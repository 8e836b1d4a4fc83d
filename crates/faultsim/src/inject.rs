//! The deterministic fault injector and fault accounting.

use serde::{Deserialize, Serialize};

use crate::config::FaultConfig;
use crate::rng;

/// Disjoint decision streams. Each stream has its own event counter,
/// so the schedule of one fault class is independent of how often the
/// others are consulted.
const STREAM_READ: u64 = 0x52_45_41_44; // "READ"
const STREAM_BROADCAST: u64 = 0x42_43_53_54; // "BCST"
const STREAM_STALL: u64 = 0x53_54_4C_4C; // "STLL"
const STREAM_STUCK_ROW: u64 = 0x52_4F_57_53; // "ROWS"
const STREAM_BANK: u64 = 0x42_41_4E_4B; // "BANK"
const STREAM_SEVERITY: u64 = 0x53_45_56_52; // "SEVR"

/// What happened to one broadcast transfer on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BroadcastFault {
    /// The transfer reached every consumer.
    Delivered,
    /// The transfer was lost; no DIMM latched it.
    Dropped,
    /// The transfer was latched but failed its checksum.
    Corrupted,
}

/// Breaker-style health of one hardware component (a rank, a DIMM).
///
/// One enum shared by every layer that classifies components: the
/// fault injector derives a rank's state from its persistent-fault
/// schedule, `nmp` surfaces per-rank tallies in `NmpReport.faults`,
/// and the serving simulator's per-DIMM circuit breaker reports its
/// Closed/HalfOpen/Open machine in the same three states — so a
/// "tripped" DIMM means one thing across the stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HealthState {
    /// Fully operational.
    #[default]
    Healthy,
    /// Operational but impaired (failed banks remapped, breaker
    /// half-open probing).
    Degraded,
    /// Out of service (permanently stalled rank, breaker open).
    Tripped,
}

impl HealthState {
    /// Short lower-case name for tables and telemetry labels.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Tripped => "tripped",
        }
    }
}

/// The deterministic, seeded fault injector.
///
/// Every decision is a pure function of `(seed, stream, event index)`
/// — counter-mode hashing rather than a shared RNG stream — so the
/// fault schedule of each class is reproducible and insensitive to how
/// often unrelated classes are queried. Persistent faults (stuck rows,
/// failed banks, permanently stalled ranks) are *stateless* hashes of
/// the component coordinates: the same component is faulty on every
/// query, which is what "stuck-at" means.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    lane: u64,
    read_events: u64,
    broadcast_events: u64,
    stall_events: u64,
}

impl FaultInjector {
    /// Creates an injector over a configuration (lane 0).
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector::with_lane(config, 0)
    }

    /// Creates an injector drawing from the given *lane*.
    ///
    /// Lanes partition the stochastic streams: injectors with the same
    /// seed but different lanes produce statistically independent
    /// schedules, so parallel domains (e.g. one DRAM channel each) can
    /// consume events concurrently without sharing a counter — the
    /// schedule of each lane depends only on `(seed, lane, event
    /// index)`, never on thread interleaving. Persistent faults (stuck
    /// rows, failed banks, stalled ranks) are coordinate-keyed and
    /// deliberately lane-independent: every lane sees the same broken
    /// hardware.
    pub fn with_lane(config: FaultConfig, lane: u64) -> Self {
        FaultInjector {
            config,
            lane,
            read_events: 0,
            broadcast_events: 0,
            stall_events: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The stream lane this injector draws from.
    pub fn lane(&self) -> u64 {
        self.lane
    }

    /// Whether any fault source is enabled (see
    /// [`FaultConfig::is_active`]).
    pub fn is_active(&self) -> bool {
        self.config.is_active()
    }

    /// Mix for the counter-indexed (stochastic) streams; includes the
    /// lane so parallel domains draw independent schedules.
    fn mix(&self, stream: u64, index: u64) -> u64 {
        let key = stream ^ self.lane.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        rng::draw(self.config.seed, key, index)
    }

    /// A uniform draw in `[0, 1)` for `(stream, lane, index)`.
    fn unit(&self, stream: u64, index: u64) -> f64 {
        (self.mix(stream, index) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `[0, 1)` for a persistent `(stream, key)`:
    /// lane-blind, so the same physical component is faulty from every
    /// lane's view.
    fn unit_persistent(&self, stream: u64, key: u64) -> f64 {
        (rng::draw(self.config.seed, stream, key) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Number of bit flips injected into the next read burst: usually
    /// 0; when the burst is hit, the severity split is 86 % single-bit,
    /// 12 % double-bit, 2 % triple-bit (fixed, so sweeps vary only the
    /// hit rate).
    pub fn next_read_flips(&mut self) -> u32 {
        let i = self.read_events;
        self.read_events += 1;
        if self.config.bit_flip_rate <= 0.0
            || self.unit(STREAM_READ, i) >= self.config.bit_flip_rate
        {
            return 0;
        }
        let sev = self.unit(STREAM_SEVERITY, i);
        if sev < 0.02 {
            3
        } else if sev < 0.14 {
            2
        } else {
            1
        }
    }

    /// Whether a distinct `(rank, bank, row)` triple is stuck-at
    /// (persistent across the run).
    pub fn row_is_stuck(&self, rank: usize, bank: usize, row: u64) -> bool {
        if self.config.stuck_row_rate <= 0.0 {
            return false;
        }
        let key = (rank as u64) << 48 ^ (bank as u64) << 40 ^ row;
        self.unit_persistent(STREAM_STUCK_ROW, key) < self.config.stuck_row_rate
    }

    /// Whether a distinct `(rank, bank)` pair has failed entirely.
    pub fn bank_is_failed(&self, rank: usize, bank: usize) -> bool {
        if self.config.failed_bank_rate <= 0.0 {
            return false;
        }
        let key = (rank as u64) << 16 ^ bank as u64;
        self.unit_persistent(STREAM_BANK, key) < self.config.failed_bank_rate
    }

    /// Whether a global rank is permanently stalled (deadlock
    /// scenario).
    pub fn rank_is_stalled(&self, global_rank: usize) -> bool {
        global_rank < 64 && self.config.stalled_rank_mask >> global_rank & 1 == 1
    }

    /// Breaker-style health of one global rank, derived from the
    /// persistent-fault schedule: stalled ⇒ [`HealthState::Tripped`],
    /// any failed bank ⇒ [`HealthState::Degraded`], otherwise
    /// [`HealthState::Healthy`].
    pub fn rank_health(&self, global_rank: usize, banks_per_rank: usize) -> HealthState {
        if self.rank_is_stalled(global_rank) {
            return HealthState::Tripped;
        }
        if (0..banks_per_rank).any(|b| self.bank_is_failed(global_rank, b)) {
            return HealthState::Degraded;
        }
        HealthState::Healthy
    }

    /// Tallies [`rank_health`](Self::rank_health) over the first
    /// `ranks` global ranks: `(healthy, degraded, tripped)`.
    pub fn rank_health_tallies(&self, ranks: usize, banks_per_rank: usize) -> (u64, u64, u64) {
        let mut tallies = (0u64, 0u64, 0u64);
        for r in 0..ranks {
            match self.rank_health(r, banks_per_rank) {
                HealthState::Healthy => tallies.0 += 1,
                HealthState::Degraded => tallies.1 += 1,
                HealthState::Tripped => tallies.2 += 1,
            }
        }
        tallies
    }

    /// Outcome of the next broadcast transfer.
    pub fn next_broadcast(&mut self) -> BroadcastFault {
        let i = self.broadcast_events;
        self.broadcast_events += 1;
        let drop = self.config.broadcast_drop_rate;
        let corrupt = self.config.broadcast_corrupt_rate;
        if drop <= 0.0 && corrupt <= 0.0 {
            return BroadcastFault::Delivered;
        }
        let u = self.unit(STREAM_BROADCAST, i);
        if u < drop {
            BroadcastFault::Dropped
        } else if u < drop + corrupt {
            BroadcastFault::Corrupted
        } else {
            BroadcastFault::Delivered
        }
    }

    /// Transient stall cycles charged to work unit `unit` for its next
    /// scheduling epoch (0 when the unit is not hit).
    pub fn next_stall_cycles(&mut self, unit: u64) -> u64 {
        if self.config.stall_rate <= 0.0 {
            return 0;
        }
        let i = self.stall_events;
        self.stall_events += 1;
        if self.unit(STREAM_STALL, i ^ unit.rotate_left(32)) < self.config.stall_rate {
            self.config.stall_cycles
        } else {
            0
        }
    }

    /// Folds the first `n` events of every stochastic stream into one
    /// fingerprint — two injectors with the same seed must agree, two
    /// with different seeds almost surely differ. Used by determinism
    /// tests; persistent-fault streams are keyed by coordinates and
    /// covered separately.
    pub fn schedule_fingerprint(&self, n: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..n {
            for stream in [STREAM_READ, STREAM_BROADCAST, STREAM_STALL, STREAM_SEVERITY] {
                acc = rng::splitmix64(acc ^ self.mix(stream, i));
            }
        }
        acc
    }
}

/// Serializable image of an injector's progress: the event counter of
/// each stochastic stream, plus the seed as a consistency guard.
///
/// Persistent faults (stuck rows, failed banks, stalled ranks) are
/// stateless coordinate hashes and need no state; restoring the three
/// counters makes the remaining fault schedule continue exactly where
/// the snapshot left off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectorState {
    /// Seed of the configuration the counters were advanced under.
    pub seed: u64,
    /// Stream lane the counters were advanced on (see
    /// [`FaultInjector::with_lane`]).
    pub lane: u64,
    /// Events consumed from the read-burst stream.
    pub read_events: u64,
    /// Events consumed from the broadcast stream.
    pub broadcast_events: u64,
    /// Events consumed from the stall stream.
    pub stall_events: u64,
}

impl checkpoint::Snapshot for FaultInjector {
    type State = InjectorState;

    fn snapshot(&self) -> InjectorState {
        InjectorState {
            seed: self.config.seed,
            lane: self.lane,
            read_events: self.read_events,
            broadcast_events: self.broadcast_events,
            stall_events: self.stall_events,
        }
    }
}

impl checkpoint::Restore for FaultInjector {
    fn restore(&mut self, state: &InjectorState) -> Result<(), checkpoint::RestoreError> {
        if state.seed != self.config.seed {
            return Err(checkpoint::RestoreError::new(format!(
                "injector snapshot was taken under seed {}, this injector uses seed {}",
                state.seed, self.config.seed
            )));
        }
        if state.lane != self.lane {
            return Err(checkpoint::RestoreError::new(format!(
                "injector snapshot was taken on lane {}, this injector draws from lane {}",
                state.lane, self.lane
            )));
        }
        self.read_events = state.read_events;
        self.broadcast_events = state.broadcast_events;
        self.stall_events = state.stall_events;
        Ok(())
    }
}

/// Counters for every fault injected and every recovery action taken.
///
/// Lives in simulator reports (serde) and publishes to the `obs`
/// registry under `faults.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Bit flips injected into read bursts.
    pub injected_bit_flips: u64,
    /// Bursts whose single-bit error ECC corrected in-line.
    pub ecc_corrected: u64,
    /// Bursts whose double-bit error ECC detected (each triggers a
    /// retry).
    pub ecc_detected: u64,
    /// Bursts whose ≥ 3-bit error escaped SEC-DED silently.
    pub ecc_silent_miss: u64,
    /// Read retries issued after ECC detections.
    pub read_retries: u64,
    /// Accesses remapped around a stuck-at row.
    pub row_remaps: u64,
    /// Accesses remapped around a failed bank.
    pub bank_remaps: u64,
    /// Broadcast transfers dropped on the bus.
    pub broadcast_drops: u64,
    /// Broadcast transfers that arrived corrupted.
    pub broadcast_corruptions: u64,
    /// Broadcast retries issued (with backoff).
    pub broadcast_retries: u64,
    /// Broadcasts that degraded to point-to-point sends after the
    /// retry budget was exhausted.
    pub broadcast_fallbacks: u64,
    /// Transient unit stalls injected.
    pub stall_events: u64,
    /// Cycles lost to transient stalls.
    pub stall_cycles: u64,
    /// Watchdog trips (forward-progress violations).
    pub watchdog_trips: u64,
    /// Unrecoverable memory errors raised.
    pub mem_errors: u64,
    /// Ranks classified [`HealthState::Healthy`] at end of run (zero
    /// for fault-free runs, which report no health census at all).
    pub ranks_healthy: u64,
    /// Ranks classified [`HealthState::Degraded`] at end of run.
    pub ranks_degraded: u64,
    /// Ranks classified [`HealthState::Tripped`] at end of run.
    pub ranks_tripped: u64,
}

impl FaultStats {
    /// Accumulates another stats block.
    pub fn merge(&mut self, other: &FaultStats) {
        self.injected_bit_flips += other.injected_bit_flips;
        self.ecc_corrected += other.ecc_corrected;
        self.ecc_detected += other.ecc_detected;
        self.ecc_silent_miss += other.ecc_silent_miss;
        self.read_retries += other.read_retries;
        self.row_remaps += other.row_remaps;
        self.bank_remaps += other.bank_remaps;
        self.broadcast_drops += other.broadcast_drops;
        self.broadcast_corruptions += other.broadcast_corruptions;
        self.broadcast_retries += other.broadcast_retries;
        self.broadcast_fallbacks += other.broadcast_fallbacks;
        self.stall_events += other.stall_events;
        self.stall_cycles += other.stall_cycles;
        self.watchdog_trips += other.watchdog_trips;
        self.mem_errors += other.mem_errors;
        // The health census is a point-in-time classification filled
        // by exactly one layer per run; summing keeps the other
        // layer's zeros harmless.
        self.ranks_healthy += other.ranks_healthy;
        self.ranks_degraded += other.ranks_degraded;
        self.ranks_tripped += other.ranks_tripped;
    }

    /// Field-wise difference `self - since`, for publishing counter
    /// deltas between telemetry flushes. `since` must be an earlier
    /// snapshot of the same monotonically growing counters.
    pub fn delta(&self, since: &FaultStats) -> FaultStats {
        FaultStats {
            injected_bit_flips: self.injected_bit_flips - since.injected_bit_flips,
            ecc_corrected: self.ecc_corrected - since.ecc_corrected,
            ecc_detected: self.ecc_detected - since.ecc_detected,
            ecc_silent_miss: self.ecc_silent_miss - since.ecc_silent_miss,
            read_retries: self.read_retries - since.read_retries,
            row_remaps: self.row_remaps - since.row_remaps,
            bank_remaps: self.bank_remaps - since.bank_remaps,
            broadcast_drops: self.broadcast_drops - since.broadcast_drops,
            broadcast_corruptions: self.broadcast_corruptions - since.broadcast_corruptions,
            broadcast_retries: self.broadcast_retries - since.broadcast_retries,
            broadcast_fallbacks: self.broadcast_fallbacks - since.broadcast_fallbacks,
            stall_events: self.stall_events - since.stall_events,
            stall_cycles: self.stall_cycles - since.stall_cycles,
            watchdog_trips: self.watchdog_trips - since.watchdog_trips,
            mem_errors: self.mem_errors - since.mem_errors,
            ranks_healthy: self.ranks_healthy.saturating_sub(since.ranks_healthy),
            ranks_degraded: self.ranks_degraded.saturating_sub(since.ranks_degraded),
            ranks_tripped: self.ranks_tripped.saturating_sub(since.ranks_tripped),
        }
    }

    /// Total faults injected (before any recovery).
    pub fn total_injected(&self) -> u64 {
        self.injected_bit_flips
            + self.row_remaps
            + self.bank_remaps
            + self.broadcast_drops
            + self.broadcast_corruptions
            + self.stall_events
    }

    /// Whether anything at all was injected or recovered.
    pub fn is_empty(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Publishes the counters to the global telemetry registry under
    /// `faults.*`. Call once per run with the run's totals (the
    /// registry accumulates across calls).
    pub fn publish(&self) {
        if self.is_empty() {
            return;
        }
        obs::counter_add("faults.injected_bit_flips", self.injected_bit_flips);
        obs::counter_add("faults.ecc_corrected", self.ecc_corrected);
        obs::counter_add("faults.ecc_detected", self.ecc_detected);
        obs::counter_add("faults.ecc_silent_miss", self.ecc_silent_miss);
        obs::counter_add("faults.read_retries", self.read_retries);
        obs::counter_add("faults.row_remaps", self.row_remaps);
        obs::counter_add("faults.bank_remaps", self.bank_remaps);
        obs::counter_add("faults.broadcast_drops", self.broadcast_drops);
        obs::counter_add("faults.broadcast_corruptions", self.broadcast_corruptions);
        obs::counter_add("faults.broadcast_retries", self.broadcast_retries);
        obs::counter_add("faults.broadcast_fallbacks", self.broadcast_fallbacks);
        obs::counter_add("faults.stall_events", self.stall_events);
        obs::counter_add("faults.stall_cycles", self.stall_cycles);
        obs::counter_add("faults.watchdog_trips", self.watchdog_trips);
        obs::counter_add("faults.mem_errors", self.mem_errors);
        obs::gauge_set("faults.ranks_healthy", self.ranks_healthy as f64);
        obs::gauge_set("faults.ranks_degraded", self.ranks_degraded as f64);
        obs::gauge_set("faults.ranks_tripped", self.ranks_tripped as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active(seed: u64) -> FaultInjector {
        FaultInjector::new(FaultConfig {
            seed,
            bit_flip_rate: 0.3,
            broadcast_drop_rate: 0.2,
            broadcast_corrupt_rate: 0.1,
            stall_rate: 0.25,
            stuck_row_rate: 0.1,
            failed_bank_rate: 0.05,
            ..FaultConfig::off()
        })
    }

    #[test]
    fn same_seed_identical_schedule() {
        let mut a = active(42);
        let mut b = active(42);
        for _ in 0..10_000 {
            assert_eq!(a.next_read_flips(), b.next_read_flips());
            assert_eq!(a.next_broadcast(), b.next_broadcast());
            assert_eq!(a.next_stall_cycles(3), b.next_stall_cycles(3));
        }
        assert_eq!(a.schedule_fingerprint(256), b.schedule_fingerprint(256));
        for rank in 0..8 {
            for bank in 0..16 {
                assert_eq!(a.bank_is_failed(rank, bank), b.bank_is_failed(rank, bank));
                for row in 0..64 {
                    assert_eq!(
                        a.row_is_stuck(rank, bank, row),
                        b.row_is_stuck(rank, bank, row)
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = active(1);
        let b = active(2);
        assert_ne!(a.schedule_fingerprint(256), b.schedule_fingerprint(256));
    }

    #[test]
    fn lanes_partition_stochastic_streams() {
        let cfg = *active(42).config();
        // Lane 0 is exactly the legacy (lane-less) schedule.
        let mut legacy = FaultInjector::new(cfg);
        let mut lane0 = FaultInjector::with_lane(cfg, 0);
        for _ in 0..1000 {
            assert_eq!(legacy.next_read_flips(), lane0.next_read_flips());
            assert_eq!(legacy.next_broadcast(), lane0.next_broadcast());
        }
        // Distinct lanes draw independent schedules from the same seed.
        let a = FaultInjector::with_lane(cfg, 1);
        let b = FaultInjector::with_lane(cfg, 2);
        assert_ne!(a.schedule_fingerprint(256), b.schedule_fingerprint(256));
        assert_ne!(lane0.schedule_fingerprint(256), a.schedule_fingerprint(256));
        // ... but agree on the persistent (hardware-coordinate) faults.
        for rank in 0..8 {
            for bank in 0..16 {
                assert_eq!(a.bank_is_failed(rank, bank), b.bank_is_failed(rank, bank));
                for row in 0..64 {
                    assert_eq!(
                        a.row_is_stuck(rank, bank, row),
                        b.row_is_stuck(rank, bank, row)
                    );
                }
            }
        }
    }

    #[test]
    fn lane_mismatch_refuses_snapshot() {
        use checkpoint::{Restore, Snapshot};
        let cfg = *active(42).config();
        let mut a = FaultInjector::with_lane(cfg, 3);
        a.next_read_flips();
        let state = a.snapshot();
        assert_eq!(state.lane, 3);
        let mut same = FaultInjector::with_lane(cfg, 3);
        assert!(same.restore(&state).is_ok());
        let mut other = FaultInjector::with_lane(cfg, 4);
        assert!(other.restore(&state).is_err());
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let mut inj = FaultInjector::new(FaultConfig::off());
        assert!(!inj.is_active());
        for _ in 0..1000 {
            assert_eq!(inj.next_read_flips(), 0);
            assert_eq!(inj.next_broadcast(), BroadcastFault::Delivered);
            assert_eq!(inj.next_stall_cycles(0), 0);
        }
        assert!(!inj.row_is_stuck(0, 0, 0));
        assert!(!inj.bank_is_failed(0, 0));
        assert!(!inj.rank_is_stalled(0));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut inj = FaultInjector::new(FaultConfig {
            bit_flip_rate: 0.25,
            ..FaultConfig::off()
        });
        let n = 100_000;
        let hits = (0..n).filter(|_| inj.next_read_flips() > 0).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn severity_split_includes_multi_bit() {
        let mut inj = FaultInjector::new(FaultConfig {
            bit_flip_rate: 1.0,
            ..FaultConfig::off()
        });
        let mut by_flips = [0u64; 4];
        for _ in 0..10_000 {
            by_flips[inj.next_read_flips().min(3) as usize] += 1;
        }
        assert_eq!(by_flips[0], 0, "rate 1.0 hits every burst");
        assert!(by_flips[1] > by_flips[2], "single-bit dominates");
        assert!(by_flips[2] > by_flips[3], "double-bit beats triple");
        assert!(by_flips[3] > 0, "triples occur");
    }

    #[test]
    fn stalled_rank_mask() {
        let inj = FaultInjector::new(FaultConfig {
            stalled_rank_mask: 0b101,
            ..FaultConfig::off()
        });
        assert!(inj.rank_is_stalled(0));
        assert!(!inj.rank_is_stalled(1));
        assert!(inj.rank_is_stalled(2));
        assert!(!inj.rank_is_stalled(63));
        assert!(!inj.rank_is_stalled(64));
    }

    #[test]
    fn persistent_faults_are_persistent() {
        let inj = active(7);
        let mut any_stuck = false;
        for row in 0..2000 {
            let first = inj.row_is_stuck(1, 2, row);
            for _ in 0..3 {
                assert_eq!(inj.row_is_stuck(1, 2, row), first);
            }
            any_stuck |= first;
        }
        assert!(any_stuck, "rate 0.1 over 2000 rows hits some row");
    }

    #[test]
    fn snapshot_resumes_stream_positions() {
        use checkpoint::{Restore, Snapshot};
        let mut a = active(42);
        for _ in 0..137 {
            a.next_read_flips();
        }
        for _ in 0..55 {
            a.next_broadcast();
        }
        for _ in 0..19 {
            a.next_stall_cycles(2);
        }
        let state = a.snapshot();
        let mut b = active(42);
        b.restore(&state).expect("same seed restores");
        for _ in 0..500 {
            assert_eq!(a.next_read_flips(), b.next_read_flips());
            assert_eq!(a.next_broadcast(), b.next_broadcast());
            assert_eq!(a.next_stall_cycles(7), b.next_stall_cycles(7));
        }
        // A different seed must refuse the snapshot.
        let mut c = active(43);
        assert!(c.restore(&state).is_err());
    }

    #[test]
    fn stats_merge_and_serde() {
        let mut a = FaultStats {
            injected_bit_flips: 5,
            ecc_corrected: 4,
            broadcast_drops: 2,
            ..FaultStats::default()
        };
        let b = FaultStats {
            injected_bit_flips: 1,
            watchdog_trips: 1,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.injected_bit_flips, 6);
        assert_eq!(a.watchdog_trips, 1);
        assert_eq!(a.total_injected(), 8);
        assert!(!a.is_empty());
        assert!(FaultStats::default().is_empty());
        let s = serde_json::to_string(&a).expect("serializes");
        let back: FaultStats = serde_json::from_str(&s).expect("deserializes");
        assert_eq!(back, a);
    }
}
