//! The memory system: per-channel FR-FCFS scheduling over bank state
//! machines with full DDR4 timing constraints.
//!
//! The scheduler is *command-accurate without a tick loop*: for each
//! scheduled burst it computes the earliest legal issue cycles of the
//! PRE/ACT/column commands given every constraint (tRCD, tRP, tRC,
//! tRRD_S/L, tFAW, tCCD_S/L, tWR, bus occupancy), then advances state.
//! This matches the fidelity a trace-driven Ramulator run provides for
//! this study — latency, bandwidth, row-buffer behavior, and energy —
//! at a fraction of the cost.

use std::collections::{BTreeMap, VecDeque};

use faultsim::ecc::{self, EccOutcome};
use faultsim::{
    FaultConfig, FaultError, FaultInjector, FaultStats, MemError, MemErrorKind, Watchdog,
    WatchdogError,
};

use crate::address::{AddressMapper, Location};
use crate::audit;
use crate::config::DramConfig;
use crate::request::{Completion, CompletionDigest, Locality, Request, RequestId, RequestKind};
use crate::snapshot::{
    BankSnapshot, BurstState, ChannelSnapshot, ChannelTelemetry, InjectorSnapshot, RankSnapshot,
    ServiceState, SystemState,
};
use crate::stats::MemoryStats;

/// Simulated-time activity slices within this many cycles of each
/// other coalesce into one trace segment, keeping trace files small
/// while still showing rank-level overlap.
const ACTIVITY_GAP: u64 = 64;

/// `enqueue` services a channel once its queue holds this many bursts,
/// or four scheduling windows if that is more. Each such call services
/// all but the last `sched_window - 1` bursts, so the mark trades the
/// per-call overhead against the bursts held queued between calls.
const HIGH_WATER: usize = 64;

#[derive(Debug, Clone, Default)]
struct BankState {
    open_row: Option<u64>,
    /// Earliest cycle the next ACT may issue (tRC from the last ACT,
    /// tRP from the last PRE).
    next_act: u64,
    /// Earliest cycle a column command may issue (tRCD from ACT).
    next_col: u64,
    /// Earliest cycle a PRE may issue (tRAS from ACT, tWR after write
    /// data).
    next_pre: u64,
}

#[derive(Debug, Clone)]
struct RankState {
    banks: Vec<BankState>,
    /// Issue cycles of the most recent activates (for tFAW).
    act_window: VecDeque<u64>,
    /// Earliest cycle the next ACT may issue per rank-level rule.
    next_act_any: u64,
    next_act_group: Vec<u64>,
    next_col_any: u64,
    next_col_group: Vec<u64>,
    /// When the rank-local data interface becomes free.
    local_bus_free: u64,
    /// Last refresh epoch observed (epoch = cycle / tREFI).
    refresh_epoch: u64,
    /// Telemetry: open coalesced busy window `(start, end)` in cycles.
    activity: Option<(u64, u64)>,
    /// Telemetry: data cycles on this rank since the last flush.
    busy_cycles: u64,
}

impl RankState {
    fn new(config: &DramConfig) -> Self {
        RankState {
            banks: vec![BankState::default(); config.banks_per_rank()],
            act_window: VecDeque::new(),
            next_act_any: 0,
            next_act_group: vec![0; config.bank_groups],
            next_col_any: 0,
            next_col_group: vec![0; config.bank_groups],
            local_bus_free: 0,
            refresh_epoch: 0,
            activity: None,
            busy_cycles: 0,
        }
    }
}

/// One channel's timing state, queue and in-flight service. Everything
/// the service loop writes lives here, so `enqueue` can service one
/// channel at a time and `try_service_all` merges the channels in a
/// fixed order.
#[derive(Debug, Clone)]
struct ChannelState {
    ranks: Vec<RankState>,
    bus_free: u64,
    queue: VecDeque<Burst>,
    /// Service since the last merge in [`MemorySystem::try_service_all`].
    service: ServiceState,
    /// Telemetry since the last flush, so the per-burst hot path
    /// touches only local memory; [`MemorySystem::service_all`]
    /// publishes it to the global registry once per call.
    telemetry: ChannelTelemetry,
    /// Telemetry: closed activity windows since the last flush,
    /// `(linear rank, start cycle, duration)`.
    slices: Vec<(usize, u64, u64)>,
    /// `(request index, data_start, finish)` of the bursts the current
    /// service call retired, in service order; the caller folds them
    /// into the completion ledger and empties it, so it holds at most
    /// one call's bursts.
    retired: Vec<(usize, u64, u64)>,
    /// Protocol-checker mirror for this channel (zero-sized no-op
    /// without the `audit` feature). Worker-local like everything else
    /// here, so violations accumulate deterministically per channel.
    checker: audit::ChannelChecker,
    /// One-shot scheduler perturbation (audit test hook).
    #[cfg(feature = "audit")]
    perturb: audit::Perturbation,
}

/// One queued burst, reduced once at enqueue (and snapshot restore)
/// to exactly the coordinates the scheduler, the issue path and the
/// fault pipeline read, packed into 32 bytes. Streaming service keeps a
/// few dozen per channel queued, except behind a stalled rank or a
/// parked channel, where the queue holds everything enqueued until
/// `service_all`. The channel is implied by the queue the burst sits
/// in; the snapshot recomposes the burst-aligned address from the
/// rest.
#[derive(Debug, Clone, Copy)]
struct Burst {
    id: RequestId,
    row: u64,
    arrival: u64,
    /// Column (burst block) within the row; only the snapshot reads it.
    column: u16,
    /// Rank within the channel, `dimm * ranks_per_dimm + rank`.
    rank: u8,
    /// Bank within the rank, `bank_group * banks_per_group + bank`.
    bank: u8,
    bank_group: u8,
    kind: RequestKind,
    locality: Locality,
}

impl Burst {
    /// Packs a location inside the topology (decoded by the mapper, or
    /// checked by [`MemorySystem::enqueue_burst`]); the topology was
    /// checked against the compact widths by
    /// [`MemorySystem::check_topology`] when the system was built.
    fn new(
        id: RequestId,
        loc: Location,
        kind: RequestKind,
        locality: Locality,
        arrival: u64,
        config: &DramConfig,
    ) -> Self {
        Burst {
            id,
            row: loc.row,
            arrival,
            column: loc.column as u16,
            rank: (loc.dimm * config.ranks_per_dimm + loc.rank) as u8,
            bank: loc.bank_in_rank(config) as u8,
            bank_group: loc.bank_group as u8,
            kind,
            locality,
        }
    }

    /// The full location of this burst on channel `channel`.
    fn location(&self, channel: usize, config: &DramConfig) -> Location {
        Location {
            channel,
            dimm: usize::from(self.rank) / config.ranks_per_dimm,
            rank: usize::from(self.rank) % config.ranks_per_dimm,
            bank_group: usize::from(self.bank_group),
            bank: usize::from(self.bank) % config.banks_per_group,
            row: self.row,
            column: usize::from(self.column),
        }
    }
}

/// Result of servicing all queued requests. Completions are folded into
/// a digest as requests retire ([`MemorySystem::completions`]).
#[derive(Debug, Clone)]
pub struct Report {
    /// Cumulative statistics after servicing.
    pub stats: MemoryStats,
    /// Cumulative fault-injection accounting (all zero when no fault
    /// model is attached).
    pub faults: FaultStats,
}

/// A DDR4 memory system.
///
/// ```
/// use dramsim::{Completion, CompletionDigest, DramConfig, MemorySystem, Request};
/// let mut sys = MemorySystem::new(DramConfig::default());
/// let id = sys.enqueue(Request::read(0, 64));
/// assert_eq!(sys.completions().count, 0, "still queued");
/// let report = sys.service_all();
/// // Idle-bank read: ACT@0, RD@tRCD, data at tRCD+tCL .. +tBL.
/// let expected = Completion { id, data_start: 16 + 16, finish: 16 + 16 + 4 };
/// assert_eq!(sys.completions(), CompletionDigest::from_iter([expected]));
/// assert_eq!(report.stats.elapsed_cycles, expected.finish);
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    config: DramConfig,
    mapper: AddressMapper,
    channels: Vec<ChannelState>,
    stats: MemoryStats,
    /// `(bursts remaining, first data_start, last finish)` of each
    /// multi-burst request with bursts in flight, by request index. An
    /// entry leaves when the request's last burst retires; a
    /// single-burst request never has one.
    inflight: BTreeMap<usize, (usize, u64, u64)>,
    /// Every request completed so far.
    completed: CompletionDigest,
    next_id: usize,
    /// Telemetry: the stats already published as counter deltas.
    flushed: MemoryStats,
    /// Per-channel fault injectors, one stream lane per channel (lane =
    /// channel index, so a single-channel system reproduces the legacy
    /// single-injector schedule exactly). Empty when no fault model is
    /// attached, which keeps every code path bit-identical to a build
    /// without fault wiring.
    injectors: Vec<FaultInjector>,
    /// Cumulative fault-injection accounting.
    fault_stats: FaultStats,
    /// Telemetry: the fault stats already published as counter deltas.
    flushed_faults: FaultStats,
    /// System-level audit accumulators (violations drained from the
    /// per-channel checkers in channel order, plus the retirement
    /// ledger).
    #[cfg(feature = "audit")]
    audit: AuditAccum,
}

/// Audit-layer accumulators owned by the system (as opposed to the
/// per-channel checker mirrors). A snapshot carries the tallies; the
/// rest is per-process: a restored system re-seeds its mirrors
/// conservatively and restarts the retirement ledger from the
/// outstanding remainder.
#[cfg(feature = "audit")]
#[derive(Debug, Default)]
struct AuditAccum {
    /// Tallies drained from the per-channel checkers, in channel order.
    tally: audit::AuditTally,
    /// Violations already published as telemetry counter deltas.
    flushed_violations: u64,
    /// Bursts expected per request id.
    expected: Vec<usize>,
    /// Bursts actually retired per request id.
    serviced: Vec<usize>,
    /// Refresh energy of refreshes no checker counted: non-zero only
    /// after restoring an image written without the `audit` feature.
    refresh_pj_base: f64,
}

impl MemorySystem {
    /// Creates an idle memory system.
    ///
    /// # Panics
    ///
    /// Panics if the topology exceeds 256 ranks per channel, 256 banks
    /// per rank or 65,536 columns per row.
    pub fn new(config: DramConfig) -> Self {
        if let Err(e) = MemorySystem::check_topology(&config) {
            panic!("{e}");
        }
        let ranks_per_channel = config.dimms_per_channel * config.ranks_per_dimm;
        let channels = (0..config.channels)
            .map(|ch| ChannelState {
                ranks: (0..ranks_per_channel)
                    .map(|_| RankState::new(&config))
                    .collect(),
                bus_free: 0,
                queue: VecDeque::new(),
                service: ServiceState::default(),
                telemetry: ChannelTelemetry::new(config.banks_per_rank()),
                slices: Vec::new(),
                retired: Vec::new(),
                checker: audit::ChannelChecker::new(
                    ch,
                    ranks_per_channel,
                    config.banks_per_rank(),
                    config.bank_groups,
                ),
                #[cfg(feature = "audit")]
                perturb: audit::Perturbation::None,
            })
            .collect();
        MemorySystem {
            mapper: AddressMapper::new(config),
            channels,
            stats: MemoryStats::default(),
            inflight: BTreeMap::new(),
            completed: CompletionDigest::default(),
            next_id: 0,
            flushed: MemoryStats::default(),
            injectors: Vec::new(),
            fault_stats: FaultStats::default(),
            flushed_faults: FaultStats::default(),
            #[cfg(feature = "audit")]
            audit: AuditAccum::default(),
            config,
        }
    }

    /// Checks that `config`'s topology fits the compact per-burst queue
    /// entry: at most 256 ranks per channel, 256 banks per rank and
    /// 65,536 columns per row. [`MemorySystem::new`] panics on a
    /// topology that fails; code restoring a configuration read from
    /// outside the program checks it first.
    pub fn check_topology(config: &DramConfig) -> Result<(), String> {
        let ranks = config.dimms_per_channel * config.ranks_per_dimm;
        let banks = config.banks_per_rank();
        let columns = config.row_bytes / config.burst_bytes.max(1);
        if ranks > 1 << 8 || banks > 1 << 8 || columns > 1 << 16 {
            return Err(format!(
                "DRAM topology of {ranks} ranks per channel, {banks} banks per rank and \
                 {columns} columns per row exceeds the scheduler's limits of 256, 256 and 65536"
            ));
        }
        Ok(())
    }

    /// Creates a memory system with a fault model attached.
    pub fn with_faults(config: DramConfig, faults: FaultConfig) -> Self {
        let mut sys = MemorySystem::new(config);
        sys.set_faults(faults);
        sys
    }

    /// Attaches (or replaces) the fault model. An inactive
    /// configuration (all rates zero, empty stall mask) detaches the
    /// injectors entirely, so zero-rate runs take the exact fault-free
    /// code path.
    ///
    /// One injector is created per channel, each drawing from its own
    /// stream lane, so channels can be serviced concurrently without
    /// sharing an event counter (see [`FaultInjector::with_lane`]).
    pub fn set_faults(&mut self, faults: FaultConfig) {
        self.injectors = if faults.is_active() {
            (0..self.config.channels)
                .map(|ch| FaultInjector::with_lane(faults, ch as u64))
                .collect()
        } else {
            Vec::new()
        };
    }

    /// Cumulative fault-injection accounting (all zero when no fault
    /// model is attached), updated by [`MemorySystem::service_all`].
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Rank-health census `(healthy, degraded, tripped)` over every
    /// global rank, derived from the persistent-fault schedule (the
    /// same classification serving-layer circuit breakers use).
    /// `None` when no fault model is attached, so fault-free runs
    /// report no census at all.
    pub fn rank_health_census(&self) -> Option<(u64, u64, u64)> {
        let inj = self.injectors.first()?;
        Some(inj.rank_health_tallies(self.config.total_ranks(), self.config.banks_per_rank()))
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Cumulative statistics (updated by [`MemorySystem::service_all`]).
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// The digest of every request completed so far: each request's
    /// first data beat and last finish over all its bursts, folded in
    /// once its last burst retires. A request a fault aborted before all
    /// its bursts retired is not in it. Streaming service retires
    /// bursts during [`MemorySystem::enqueue`], so a request can
    /// complete before [`MemorySystem::service_all`].
    pub fn completions(&self) -> CompletionDigest {
        self.completed
    }

    /// Queues a request; larger-than-burst requests are split into
    /// sequential bursts and complete when their last burst finishes.
    ///
    /// A channel whose queue reaches the high-water mark (64 bursts, or
    /// four scheduling windows if that is more) is serviced on the
    /// spot, while its scheduling window stays full, so every pick is
    /// the one a single service of the whole batch would make. Its
    /// statistics wait in the channel for the next
    /// [`MemorySystem::service_all`], which merges and publishes them.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn enqueue(&mut self, req: Request) -> RequestId {
        assert!(req.bytes > 0, "request must transfer at least one byte");
        let (mapper, step) = (self.mapper, self.config.burst_bytes);
        let locations =
            (0..req.bytes.div_ceil(step)).map(|i| mapper.map(req.addr + (i * step) as u64));
        self.push(locations, req.kind, req.locality, req.arrival_cycle)
    }

    /// Queues a one-burst request at an already decoded location, as
    /// [`MemorySystem::enqueue`] queues a request of at most one burst
    /// at the address [`AddressMapper::compose`] gives `loc`. A caller
    /// that computes its bursts' coordinates itself, as near-memory
    /// units placing data in their own rank do, so skips composing an
    /// address only for it to be decoded again.
    ///
    /// # Panics
    ///
    /// Panics if `loc` lies outside the topology: a coordinate at or
    /// beyond its count, or a row too large to have an address.
    pub fn enqueue_burst(
        &mut self,
        loc: Location,
        kind: RequestKind,
        locality: Locality,
        arrival_cycle: u64,
    ) -> RequestId {
        assert!(
            self.mapper.contains(&loc),
            "burst location {loc:?} lies outside the DRAM topology"
        );
        self.push(std::iter::once(loc), kind, locality, arrival_cycle)
    }

    /// Queues a request with one burst at each of `locations` under the
    /// next id — with a ledger entry if it has more than one burst — and
    /// services each channel whose queue reaches the high-water mark.
    fn push(
        &mut self,
        locations: impl ExactSizeIterator<Item = Location>,
        kind: RequestKind,
        locality: Locality,
        arrival: u64,
    ) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let bursts = locations.len();
        if bursts > 1 {
            self.inflight.insert(id.0, (bursts, u64::MAX, 0));
        }
        #[cfg(feature = "audit")]
        {
            self.audit.expected.push(bursts);
            self.audit.serviced.push(0);
        }
        let high_water = HIGH_WATER.max(4 * self.config.sched_window);
        for loc in locations {
            let burst = Burst::new(id, loc, kind, locality, arrival, &self.config);
            let queue = &mut self.channels[loc.channel].queue;
            queue.push_back(burst);
            if queue.len() >= high_water {
                self.stream(loc.channel);
            }
        }
        id
    }

    /// Services channel `ch` while its scheduling window is full, then
    /// folds the retired bursts into the completion ledger.
    fn stream(&mut self, ch: usize) {
        ChannelWorker {
            config: &self.config,
            ch,
            state: &mut self.channels[ch],
            injector: self.injectors.get_mut(ch),
        }
        .run(true);
        self.retire(ch);
    }

    /// Folds the bursts channel `ch` retired into the completion ledger
    /// (and the audit's retirement count). A request with no ledger entry
    /// has one burst and completes with it; a multi-burst request's
    /// entry takes the burst and leaves the ledger with its last one.
    /// Decrement, minimum, maximum and the digest's sum commute, so
    /// nothing depends on the order in which channels are folded.
    fn retire(&mut self, ch: usize) {
        for (idx, data_start, finish) in self.channels[ch].retired.drain(..) {
            #[cfg(feature = "audit")]
            {
                self.audit.serviced[idx] += 1;
            }
            let (first, last) = match self.inflight.get_mut(&idx) {
                None => (data_start, finish),
                Some(entry) => {
                    entry.0 -= 1;
                    entry.1 = entry.1.min(data_start);
                    entry.2 = entry.2.max(finish);
                    if entry.0 > 0 {
                        continue;
                    }
                    let (_, first, last) = *entry;
                    self.inflight.remove(&idx);
                    (first, last)
                }
            };
            self.completed.add(Completion {
                id: RequestId(idx),
                data_start: first,
                finish: last,
            });
        }
    }

    /// Services every queued request with per-channel FR-FCFS
    /// scheduling; the completions fold into
    /// [`MemorySystem::completions`].
    ///
    /// Bank and bus state persists across calls, so a later
    /// `service_all` continues from the current timeline.
    ///
    /// # Panics
    ///
    /// Panics (with the structured [`FaultError`] in the message) if an
    /// attached fault model raises an unrecoverable fault; use
    /// [`MemorySystem::try_service_all`] when faults are enabled.
    pub fn service_all(&mut self) -> Report {
        match self.try_service_all() {
            Ok(report) => report,
            Err(e) => panic!(
                "service_all aborted on an injected fault ({e}); \
                 use try_service_all for fault-aware runs"
            ),
        }
    }

    /// Fallible variant of [`MemorySystem::service_all`]: an
    /// unrecoverable injected fault (uncorrectable ECC beyond the retry
    /// budget, watchdog trip on a deadlocked channel) aborts with a
    /// structured [`FaultError`] instead of completing. Without an
    /// active fault model this never fails.
    ///
    /// Channels share no timing state, so each channel's service loop
    /// runs as an independent worker, and the channels' service since
    /// the last merge (streamed during [`MemorySystem::enqueue`] plus
    /// this drain) is folded in fixed channel order.
    ///
    /// On error, bursts already serviced keep their timeline effects
    /// and unserviced bursts stay queued; every channel is still
    /// serviced (faults abort their own channel only, whether in this
    /// drain or while streaming) and the lowest-indexed channel's error
    /// is reported. Telemetry is flushed either way so the trip is
    /// visible in the registry.
    pub fn try_service_all(&mut self) -> Result<Report, FaultError> {
        self.drain_channels();
        let mut aborted = None;
        for ch in 0..self.channels.len() {
            // Ordered merge: channel by channel, so every accumulator —
            // including the f64 energy tallies — sees the same fold
            // sequence however much of the service was streamed.
            let service = std::mem::take(&mut self.channels[ch].service);
            self.stats.merge(&service.stats);
            self.fault_stats.merge(&service.fault_stats);
            if aborted.is_none() {
                aborted = service.error;
            }
            self.retire(ch);
        }
        // Drain the per-channel checkers in channel order so the
        // violation list does not depend on when each channel streamed.
        #[cfg(feature = "audit")]
        for ch in &mut self.channels {
            self.audit.tally.absorb(ch.checker.take_delta());
        }
        // Background energy for the newly elapsed span.
        let elapsed_s = self.stats.elapsed_cycles as f64 * self.config.cycle_seconds();
        let ranks = self.config.total_ranks() as f64;
        self.stats.energy.background_pj =
            self.config.energy.background_mw_per_rank * 1e-3 * ranks * elapsed_s * 1e12;
        self.flush_telemetry();
        if let Some(e) = aborted {
            return Err(e);
        }

        // The health census is a point-in-time classification, not a
        // counter: set it on the emitted report (idempotent across
        // service calls) rather than folding it into the accumulator.
        let mut faults = self.fault_stats;
        if let Some((h, d, t)) = self.rank_health_census() {
            faults.ranks_healthy = h;
            faults.ranks_degraded = d;
            faults.ranks_tripped = t;
        }
        Ok(Report {
            stats: self.stats,
            faults,
        })
    }

    /// Publishes accumulated telemetry tallies to the global registry.
    ///
    /// Called once per [`MemorySystem::service_all`] so the per-burst
    /// hot path never takes the registry lock; global counters receive
    /// the delta since the previous flush, histograms merge and reset.
    /// The registry sums what it receives, so the result does not
    /// depend on how the channels' tallies are grouped.
    fn flush_telemetry(&mut self) {
        #[cfg(feature = "audit")]
        {
            let total = self.audit.tally.violations.len() as u64;
            obs::counter_add(
                "audit.protocol_violations",
                total - self.audit.flushed_violations,
            );
            self.audit.flushed_violations = total;
        }
        let (d, f) = (&self.stats, &self.flushed);
        obs::counter_add("dram.reads", d.reads - f.reads);
        obs::counter_add("dram.writes", d.writes - f.writes);
        obs::counter_add("dram.row_hits", d.row_hits - f.row_hits);
        obs::counter_add("dram.row_misses", d.row_misses - f.row_misses);
        obs::counter_add("dram.activates", d.activates - f.activates);
        obs::counter_add("dram.precharges", d.precharges - f.precharges);
        obs::counter_add(
            "dram.broadcast_transfers",
            d.broadcast_transfers - f.broadcast_transfers,
        );
        obs::counter_add("dram.channel_bytes", d.channel_bytes - f.channel_bytes);
        obs::counter_add("dram.local_bytes", d.local_bytes - f.local_bytes);
        obs::counter_add(
            "dram.channel_bus_busy_cycles",
            d.channel_bus_busy_cycles - f.channel_bus_busy_cycles,
        );
        obs::counter_add(
            "dram.local_bus_busy_cycles",
            d.local_bus_busy_cycles - f.local_bus_busy_cycles,
        );
        obs::gauge_set("dram.row_hit_rate", self.stats.row_hit_rate());
        obs::gauge_set("dram.elapsed_cycles", self.stats.elapsed_cycles as f64);
        obs::gauge_set("dram.energy_total_pj", self.stats.energy.total_pj());
        obs::gauge_set("dram.energy_bus_pj", self.stats.energy.bus_pj());
        let banks = self.config.banks_per_rank();
        let mut bank_activates = vec![0; banks];
        let rpd = self.config.ranks_per_dimm;
        // Closed activity windows of every channel, in channel order,
        // before each rank's open window below.
        for (ch, channel) in self.channels.iter_mut().enumerate() {
            for (r, start, dur) in channel.slices.drain(..) {
                obs::sim_slice(
                    &format!("dram ch{ch} dimm{} rank{}", r / rpd, r % rpd),
                    "data",
                    start,
                    dur,
                );
            }
        }
        for (ch, channel) in self.channels.iter_mut().enumerate() {
            let t = std::mem::replace(&mut channel.telemetry, ChannelTelemetry::new(banks));
            obs::hist_merge("dram.burst_latency_cycles", &t.latency);
            obs::hist_merge("dram.sched_queue_depth", &t.queue_depth);
            for (sum, n) in bank_activates.iter_mut().zip(&t.bank_activates) {
                *sum += n;
            }
            obs::counter_add(&format!("dram.ch{ch}.bursts"), t.bursts);
            obs::counter_add(&format!("dram.ch{ch}.bytes"), t.bytes);
            obs::counter_add(&format!("dram.ch{ch}.row_hits"), t.row_hits);
            obs::counter_add(&format!("dram.ch{ch}.row_misses"), t.row_misses);
            for (r, rank) in channel.ranks.iter_mut().enumerate() {
                if rank.busy_cycles > 0 {
                    obs::counter_add(
                        &format!("dram.ch{ch}.dimm{}.rank{}.busy_cycles", r / rpd, r % rpd),
                        rank.busy_cycles,
                    );
                    rank.busy_cycles = 0;
                }
                if let Some((s, e)) = rank.activity.take() {
                    obs::sim_slice(
                        &format!("dram ch{ch} dimm{} rank{}", r / rpd, r % rpd),
                        "data",
                        s,
                        e - s,
                    );
                }
            }
        }
        for (b, n) in bank_activates.into_iter().enumerate() {
            obs::counter_add(&format!("dram.bank{b}.activates"), n);
        }
        self.flushed = self.stats;
        self.fault_stats.delta(&self.flushed_faults).publish();
        self.flushed_faults = self.fault_stats;
    }

    /// Services what every channel still has queued, leaving each
    /// channel's results in its state for the ordered merge.
    fn drain_channels(&mut self) {
        // Either one injector lane per channel or none at all.
        let mut injectors = self.injectors.iter_mut();
        for (ch, state) in self.channels.iter_mut().enumerate() {
            ChannelWorker {
                config: &self.config,
                ch,
                state,
                injector: injectors.next(),
            }
            .run(false);
        }
    }

    /// Builds a system directly from a state image: `new` under the
    /// image's configuration, then [`checkpoint::Restore::restore`]. A
    /// topology `new` would refuse is a restore error here.
    pub fn from_state(state: &SystemState) -> Result<Self, checkpoint::RestoreError> {
        MemorySystem::check_topology(&state.config).map_err(checkpoint::RestoreError::new)?;
        let mut sys = MemorySystem::new(state.config);
        checkpoint::Restore::restore(&mut sys, state)?;
        Ok(sys)
    }

    /// Installs a one-shot scheduler perturbation on channel 0 — the
    /// audit layer's self-test hook (see [`audit::Perturbation`]): the
    /// next eligible command on that channel actually issues with the
    /// perturbed timing, so a working checker must flag it.
    #[cfg(feature = "audit")]
    pub fn audit_perturb(&mut self, perturbation: audit::Perturbation) {
        if let Some(ch) = self.channels.first_mut() {
            ch.perturb = perturbation;
        }
    }

    /// The audit layer's verdict on everything observed so far:
    /// protocol violations drained from the per-channel checkers plus
    /// the conservation invariants (every enqueued burst retires
    /// exactly once, energy components match their per-command closed
    /// forms). With `expect_drained`, bursts still queued — e.g. behind
    /// a tripped watchdog — are violations too.
    ///
    /// Without the `audit` feature this returns a default report with
    /// `enabled == false`; callers should treat that as "not audited",
    /// not as "clean" (see [`audit::AuditReport::is_clean`]).
    ///
    /// Sound at a `service_all` boundary. A system restored from a
    /// snapshot continues the image's tallies and re-seeds its mirrors
    /// from the image's open rows and refresh epochs, so timing windows
    /// that straddle the snapshot go unchecked.
    pub fn audit_report(&self, expect_drained: bool) -> audit::AuditReport {
        #[cfg(feature = "audit")]
        {
            let mut report = audit::AuditReport {
                enabled: true,
                commands_checked: self.audit.tally.commands,
                refresh_events: self.audit.tally.refreshes,
                violations: self.audit.tally.violations.clone(),
            };
            self.check_retirement(expect_drained, &mut report);
            self.check_energy(&mut report);
            report
        }
        #[cfg(not(feature = "audit"))]
        {
            let _ = expect_drained;
            audit::AuditReport::default()
        }
    }

    /// Conservation: every request's bursts are either retired exactly
    /// once or still queued, the completion ledger agrees with the
    /// queues, and the completion digest counts exactly the requests
    /// whose bursts have all retired.
    #[cfg(feature = "audit")]
    fn check_retirement(&self, expect_drained: bool, report: &mut audit::AuditReport) {
        let mut queued = vec![0usize; self.audit.expected.len()];
        for ch in &self.channels {
            for b in &ch.queue {
                if let Some(q) = queued.get_mut(b.id.0) {
                    *q += 1;
                }
            }
        }
        let mut retired_requests = 0u64;
        let ledger = self.audit.expected.iter().zip(&self.audit.serviced);
        for (id, ((&expected, &serviced), &in_queue)) in ledger.zip(&queued).enumerate() {
            if serviced == expected && in_queue == 0 {
                retired_requests += 1;
            }
            // A request with no ledger entry has one burst, outstanding
            // until it retires.
            let outstanding = match self.inflight.get(&id) {
                Some(entry) => entry.0,
                None => usize::from(expected == 1 && serviced == 0),
            };
            let violation = if serviced > expected {
                Some(format!(
                    "request {id} retired {serviced} bursts but only {expected} were enqueued"
                ))
            } else if serviced + in_queue != expected {
                Some(format!(
                    "request {id}: {expected} bursts enqueued, {serviced} retired, \
                     {in_queue} queued — {} lost",
                    expected - serviced - in_queue
                ))
            } else if outstanding != in_queue {
                Some(format!(
                    "request {id}: completion ledger says {outstanding} bursts outstanding \
                     but {in_queue} are queued"
                ))
            } else if expect_drained && in_queue != 0 {
                Some(format!(
                    "request {id} still has {in_queue} of {expected} bursts queued \
                     at end of run"
                ))
            } else {
                None
            };
            if let Some(message) = violation {
                report.violations.push(audit::AuditError {
                    constraint: audit::Constraint::Retirement,
                    message,
                    trace: Vec::new(),
                });
            }
        }
        if retired_requests != self.completed.count {
            report.violations.push(audit::AuditError {
                constraint: audit::Constraint::Retirement,
                message: format!(
                    "completion digest counts {} requests but {retired_requests} \
                     have retired every burst",
                    self.completed.count
                ),
                trace: Vec::new(),
            });
        }
    }

    /// Conservation: each energy component equals its per-command
    /// closed form over the cumulative counters (1 ppm relative
    /// tolerance for float re-association).
    #[cfg(feature = "audit")]
    fn check_energy(&self, report: &mut audit::AuditReport) {
        let s = &self.stats;
        let e = &self.config.energy;
        let bits = (self.config.burst_bytes * 8) as f64;
        let bank_bursts = (s.row_hits + s.row_misses) as f64;
        let channel_transfers = (s.channel_bytes / self.config.burst_bytes as u64) as f64;
        let elapsed_s = s.elapsed_cycles as f64 * self.config.cycle_seconds();
        let checks = [
            (
                "activate_pj",
                s.energy.activate_pj,
                s.activates as f64 * e.act_pre_pj,
            ),
            (
                "array_pj",
                s.energy.array_pj,
                bank_bursts * bits * e.array_pj_per_bit,
            ),
            (
                "io_pj",
                s.energy.io_pj,
                (channel_transfers - s.broadcast_transfers as f64) * bits * e.io_pj_per_bit,
            ),
            (
                "broadcast_io_pj",
                s.energy.broadcast_io_pj,
                s.broadcast_transfers as f64 * bits * e.io_pj_per_bit * e.broadcast_io_factor,
            ),
            (
                "local_io_pj",
                s.energy.local_io_pj,
                s.local_bytes as f64 * 8.0 * e.local_pj_per_bit,
            ),
            (
                "refresh_pj",
                s.energy.refresh_pj - self.audit.refresh_pj_base,
                self.audit.tally.refreshes as f64 * e.refresh_pj,
            ),
            (
                "background_pj",
                s.energy.background_pj,
                e.background_mw_per_rank
                    * 1e-3
                    * self.config.total_ranks() as f64
                    * elapsed_s
                    * 1e12,
            ),
        ];
        for (name, actual, closed_form) in checks {
            if (actual - closed_form).abs() > 1e-6 * closed_form.abs().max(1.0) {
                report.violations.push(audit::AuditError {
                    constraint: audit::Constraint::Energy,
                    message: format!(
                        "{name} = {actual} diverges from its closed form {closed_form}"
                    ),
                    trace: Vec::new(),
                });
            }
        }
    }
}

/// One channel's FR-FCFS service loop, detached from the shared
/// [`MemorySystem`]: it holds mutable access to exactly its channel's
/// state (and that channel's injector lane) and accumulates everything
/// shared in that state, for the ordered merge. Telemetry is buffered
/// there too; workers never touch the global registry.
struct ChannelWorker<'a> {
    config: &'a DramConfig,
    ch: usize,
    state: &'a mut ChannelState,
    injector: Option<&'a mut FaultInjector>,
}

impl ChannelWorker<'_> {
    /// Services the channel — while its window is full when
    /// `streaming`, else its whole queue — unless an earlier abort
    /// parked it; a new abort parks it until the merge reports it.
    fn run(mut self, streaming: bool) {
        if self.state.service.error.is_some() {
            return;
        }
        if let Err(e) = self.service(streaming) {
            self.state.service.error = Some(e);
        }
    }

    /// Global rank index of a burst, unique across channels (used to
    /// key persistent faults and the stall mask).
    fn global_rank(&self, burst: &Burst) -> usize {
        let ranks_per_channel = self.config.dimms_per_channel * self.config.ranks_per_dimm;
        self.ch * ranks_per_channel + usize::from(burst.rank)
    }

    /// Retires a serviced burst: the system folds it into the completion
    /// ledger after this call. A burst never delivers data before its
    /// request arrives, and finishes after its first beat.
    fn record_serviced(&mut self, burst: &Burst, data_start: u64, finish: u64) {
        debug_assert!(
            data_start >= burst.arrival && finish > data_start,
            "request {} retired a burst at {data_start}..{finish} that arrived at {}",
            burst.id.0,
            burst.arrival
        );
        self.state.retired.push((burst.id.0, data_start, finish));
        let stats = &mut self.state.service.stats;
        stats.elapsed_cycles = stats.elapsed_cycles.max(finish);
    }

    /// The FR-FCFS service loop. With an injector attached, every burst
    /// runs through the transient/persistent fault pipeline after issue,
    /// and a watchdog bounds no-progress rounds once only stalled-rank
    /// bursts remain; without one, the loop only picks, issues and
    /// records.
    ///
    /// `streaming` service (from `enqueue`) picks only while a full
    /// scheduling window is queued. [`ChannelWorker::pick_fr_fcfs`]
    /// reads only that window and `enqueue` only appends, so each pick
    /// — and so each issue cycle and fault draw — is the one a service
    /// of the whole batch makes at that point. It stops before a pick
    /// on a stalled rank, because the batch rotates that burst behind
    /// bursts not yet enqueued; the window and the bank state do not
    /// change while it waits, so the drain in `service_all` takes up
    /// the batch's sequence there, watchdog included.
    fn service(&mut self, streaming: bool) -> Result<(), FaultError> {
        let min_queued = if streaming {
            self.config.sched_window.max(1)
        } else {
            1
        };
        let mut faults = self.injector.take().map(|injector| {
            let watchdog = Watchdog::new(injector.config().watchdog_limit);
            (injector, watchdog)
        });
        while self.state.queue.len() >= min_queued {
            let depth = self.state.queue.len() as u64;
            let pick = self.pick_fr_fcfs();
            if let Some((injector, watchdog)) = faults.as_mut() {
                let b = &self.state.queue[pick];
                let bus_only = matches!(b.locality, Locality::Broadcast | Locality::DirectSend);
                if !bus_only && injector.rank_is_stalled(self.global_rank(b)) {
                    if streaming {
                        break;
                    }
                    // A permanently stalled rank never retires its
                    // bursts: rotate to the back of the queue and count
                    // a no-progress round. Without the watchdog this
                    // loop would spin forever once only stalled-rank
                    // bursts remain.
                    self.state.telemetry.queue_depth.record(depth);
                    let b = self.state.queue.remove(pick).expect("pick in range");
                    self.state.queue.push_back(b);
                    if watchdog.stall() {
                        self.state.service.fault_stats.watchdog_trips += 1;
                        let mut stuck: Vec<u64> =
                            self.state.queue.iter().map(|b| b.id.0 as u64).collect();
                        stuck.sort_unstable();
                        stuck.dedup();
                        return Err(WatchdogError {
                            site: format!("dramsim.channel[{}]", self.ch),
                            waited: watchdog.rounds_since_progress(),
                            stuck_requests: stuck,
                        }
                        .into());
                    }
                    continue;
                }
            }
            self.state.telemetry.queue_depth.record(depth);
            let burst = self.state.queue.remove(pick).expect("pick in range");
            let (data_start, mut finish) = self.issue_burst(&burst);
            if let Some((injector, watchdog)) = faults.as_mut() {
                finish += self.apply_burst_faults(&burst, injector)?;
                watchdog.progress();
            }
            self.record_serviced(&burst, data_start, finish);
        }
        Ok(())
    }

    /// Runs one serviced burst through the transient/persistent fault
    /// pipeline and returns the extra completion latency it incurred.
    ///
    /// * Read bursts draw transient bit flips; SEC-DED corrects
    ///   single-bit errors in-line, detects double-bit errors and
    ///   retries the access with exponential backoff (each retry
    ///   re-drawing the fault schedule), and raises a
    ///   [`MemErrorKind::UncorrectableEcc`] error once the retry budget
    ///   is exhausted. Triple-bit flips escape silently.
    /// * Accesses landing on a stuck-at row or failed bank are remapped
    ///   to spare resources, costing an indirection penalty per access.
    /// * Transient unit stalls add their configured cycle cost.
    fn apply_burst_faults(
        &mut self,
        burst: &Burst,
        injector: &mut FaultInjector,
    ) -> Result<u64, FaultError> {
        if matches!(burst.locality, Locality::Broadcast | Locality::DirectSend) {
            // Bus-only transfers touch no DRAM array; their fault modes
            // (drops/corruption) live in the broadcast layer upstream.
            return Ok(0);
        }
        let global_rank = self.global_rank(burst);
        let bank = usize::from(burst.bank);
        let t = self.config.timing;
        let mut extra = 0u64;

        // --- Transient bit flips under SEC-DED (reads only). ---
        if burst.kind == RequestKind::Read {
            let flips = injector.next_read_flips();
            if flips > 0 {
                self.state.service.fault_stats.injected_bit_flips += u64::from(flips);
                let mut outcome = ecc::outcome_for_flips(flips);
                let mut attempt = 0u32;
                loop {
                    match outcome {
                        EccOutcome::Clean => break,
                        EccOutcome::Corrected => {
                            self.state.service.fault_stats.ecc_corrected += 1;
                            break;
                        }
                        EccOutcome::SilentMiss => {
                            self.state.service.fault_stats.ecc_silent_miss += 1;
                            break;
                        }
                        EccOutcome::DetectedUncorrectable => {
                            self.state.service.fault_stats.ecc_detected += 1;
                            let cfg = injector.config();
                            if attempt >= cfg.retry_limit {
                                self.state.service.fault_stats.mem_errors += 1;
                                return Err(MemError {
                                    request: burst.id.0 as u64,
                                    rank: global_rank,
                                    bank,
                                    row: burst.row,
                                    kind: MemErrorKind::UncorrectableEcc,
                                }
                                .into());
                            }
                            // Bounded retry with exponential backoff,
                            // then a full re-read of the column.
                            self.state.service.fault_stats.read_retries += 1;
                            extra += (cfg.retry_backoff_cycles << attempt) + t.t_cl + t.t_bl;
                            attempt += 1;
                            let reflips = injector.next_read_flips();
                            if reflips > 0 {
                                self.state.service.fault_stats.injected_bit_flips +=
                                    u64::from(reflips);
                            }
                            outcome = ecc::outcome_for_flips(reflips);
                        }
                    }
                }
            }
        }

        // --- Persistent stuck-at faults: remap to spares. ---
        if injector.bank_is_failed(global_rank, bank) {
            self.state.service.fault_stats.bank_remaps += 1;
            extra += t.t_rc;
        } else if injector.row_is_stuck(global_rank, bank, burst.row) {
            self.state.service.fault_stats.row_remaps += 1;
            extra += t.t_rp + t.t_rcd;
        }

        // --- Transient rank-AU stalls. ---
        let stall = injector.next_stall_cycles(global_rank as u64);
        if stall > 0 {
            self.state.service.fault_stats.stall_events += 1;
            self.state.service.fault_stats.stall_cycles += stall;
            extra += stall;
        }
        Ok(extra)
    }

    /// FR-FCFS: the oldest row-hit burst within the scheduling window,
    /// else the oldest burst.
    fn pick_fr_fcfs(&self) -> usize {
        let window = self.config.sched_window.min(self.state.queue.len());
        for (i, b) in self.state.queue.iter().take(window).enumerate() {
            if matches!(b.locality, Locality::Broadcast | Locality::DirectSend) {
                continue; // bus-only transfers have no row to hit
            }
            let bank = &self.state.ranks[usize::from(b.rank)].banks[usize::from(b.bank)];
            if bank.open_row == Some(b.row) {
                return i;
            }
        }
        0
    }

    fn issue_burst(&mut self, burst: &Burst) -> (u64, u64) {
        let t = self.config.timing;
        let e = self.config.energy;
        let bits = (self.config.burst_bytes * 8) as f64;

        if matches!(burst.locality, Locality::Broadcast | Locality::DirectSend) {
            // Pure bus transfer latched by DIMM buffer chips; no DRAM
            // bank activity.
            let data_start = self.state.bus_free.max(burst.arrival);
            let finish = data_start + t.t_bl;
            self.state.bus_free = finish;
            self.state.service.stats.writes += 1;
            self.state.service.stats.channel_bus_busy_cycles += t.t_bl;
            self.state.service.stats.channel_bytes += self.config.burst_bytes as u64;
            if burst.locality == Locality::Broadcast {
                self.state.service.stats.broadcast_transfers += 1;
                self.state.service.stats.energy.broadcast_io_pj +=
                    bits * e.io_pj_per_bit * e.broadcast_io_factor;
            } else {
                self.state.service.stats.energy.io_pj += bits * e.io_pj_per_bit;
            }
            let tally = &mut self.state.telemetry;
            tally.bursts += 1;
            tally.bytes += self.config.burst_bytes as u64;
            tally.latency.record(finish.saturating_sub(burst.arrival));
            self.state.checker.observe_bus_only(data_start, finish);
            return (data_start, finish);
        }

        let bank_idx = usize::from(burst.bank);
        let group = usize::from(burst.bank_group);
        let rank_idx = usize::from(burst.rank);
        let row = burst.row;
        let rank = &mut self.state.ranks[rank_idx];

        // --- Periodic refresh (tREFI/tRFC): when the burst's epoch
        // advances past the rank's last observed refresh, the rank
        // stalls for tRFC and every open row is closed.
        let approx_t = burst.arrival.max(rank.next_act_any).max(rank.next_col_any);
        // `checked_div` doubles as the "refresh disabled" gate: tREFI of
        // zero yields `None` and skips the whole block.
        if let Some(epoch) = approx_t.checked_div(t.t_refi) {
            if epoch > rank.refresh_epoch {
                let refreshes = epoch - rank.refresh_epoch;
                rank.refresh_epoch = epoch;
                let resume = epoch * t.t_refi + t.t_rfc;
                rank.next_act_any = rank.next_act_any.max(resume);
                rank.next_col_any = rank.next_col_any.max(resume);
                for bank in &mut rank.banks {
                    bank.open_row = None;
                    bank.next_act = bank.next_act.max(resume);
                }
                self.state.service.stats.energy.refresh_pj += refreshes as f64 * e.refresh_pj;
                self.state
                    .checker
                    .observe_refresh(rank_idx, epoch, refreshes, resume, &t);
            }
        }

        // --- Row management. ---
        let hit = rank.banks[bank_idx].open_row == Some(row);
        if !hit {
            let bank = &mut rank.banks[bank_idx];
            let mut act_earliest = bank.next_act.max(burst.arrival);
            #[cfg(feature = "audit")]
            let skip_pre =
                audit::take_perturb(&mut self.state.perturb, audit::Perturbation::SkipPrecharge);
            #[cfg(not(feature = "audit"))]
            let skip_pre = false;
            if bank.open_row.is_some() && !skip_pre {
                // Conflict: precharge first.
                let pre = bank.next_pre.max(burst.arrival);
                #[cfg(feature = "audit")]
                let pre = if audit::take_perturb(
                    &mut self.state.perturb,
                    audit::Perturbation::EarlyPrecharge,
                ) {
                    pre.saturating_sub(1)
                } else {
                    pre
                };
                act_earliest = act_earliest.max(pre + t.t_rp);
                self.state.service.stats.precharges += 1;
                self.state.checker.observe_pre(rank_idx, bank_idx, pre, &t);
            }
            // Rank-level activation constraints.
            act_earliest = act_earliest
                .max(rank.next_act_group[group])
                .max(rank.next_act_any);
            if rank.act_window.len() >= 4 {
                let fourth_back = rank.act_window[rank.act_window.len() - 4];
                act_earliest = act_earliest.max(fourth_back + t.t_faw);
            }
            let act = act_earliest;
            #[cfg(feature = "audit")]
            let act =
                if audit::take_perturb(&mut self.state.perturb, audit::Perturbation::EarlyActivate)
                {
                    act.saturating_sub(1)
                } else {
                    act
                };
            let bank = &mut rank.banks[bank_idx];
            bank.open_row = Some(row);
            bank.next_act = act + t.t_rc;
            bank.next_col = act + t.t_rcd;
            bank.next_pre = act + (t.t_rc - t.t_rp); // tRAS
            rank.next_act_any = act + t.t_rrd_s;
            rank.next_act_group[group] = act + t.t_rrd_l;
            rank.act_window.push_back(act);
            while rank.act_window.len() > 4 {
                rank.act_window.pop_front();
            }
            self.state.service.stats.activates += 1;
            self.state.service.stats.row_misses += 1;
            self.state.service.stats.energy.activate_pj += e.act_pre_pj;
            self.state
                .checker
                .observe_act(rank_idx, bank_idx, group, row, act, &t);
        } else {
            self.state.service.stats.row_hits += 1;
        }

        // --- Column command. ---
        let bus_free = match burst.locality {
            Locality::Channel => self.state.bus_free,
            Locality::RankLocal => rank.local_bus_free,
            Locality::Broadcast | Locality::DirectSend => {
                unreachable!("handled above")
            }
        };
        let col = rank.banks[bank_idx]
            .next_col
            .max(burst.arrival)
            .max(rank.next_col_any)
            .max(rank.next_col_group[group])
            .max(bus_free.saturating_sub(t.t_cl));
        #[cfg(feature = "audit")]
        let col = if audit::take_perturb(&mut self.state.perturb, audit::Perturbation::EarlyColumn)
        {
            col.saturating_sub(1)
        } else {
            col
        };
        let data_start = (col + t.t_cl).max(bus_free);
        let finish = data_start + t.t_bl;
        rank.next_col_any = col + t.t_ccd_s;
        rank.next_col_group[group] = col + t.t_ccd_l;
        if burst.kind == RequestKind::Write {
            let bank = &mut rank.banks[bank_idx];
            bank.next_pre = bank.next_pre.max(finish + t.t_wr);
            self.state.service.stats.writes += 1;
        } else {
            self.state.service.stats.reads += 1;
        }
        self.state.checker.observe_col(
            rank_idx,
            bank_idx,
            group,
            row,
            burst.kind,
            col,
            data_start,
            finish,
            burst.locality,
            &t,
        );

        match burst.locality {
            Locality::Channel => {
                self.state.bus_free = finish;
                self.state.service.stats.channel_bus_busy_cycles += t.t_bl;
                self.state.service.stats.channel_bytes += self.config.burst_bytes as u64;
                self.state.service.stats.energy.io_pj += bits * e.io_pj_per_bit;
            }
            Locality::RankLocal => {
                let rank = &mut self.state.ranks[rank_idx];
                rank.local_bus_free = finish;
                self.state.service.stats.local_bus_busy_cycles += t.t_bl;
                self.state.service.stats.local_bytes += self.config.burst_bytes as u64;
                self.state.service.stats.energy.local_io_pj += bits * e.local_pj_per_bit;
            }
            Locality::Broadcast | Locality::DirectSend => unreachable!(),
        }
        self.state.service.stats.energy.array_pj += bits * e.array_pj_per_bit;

        let tally = &mut self.state.telemetry;
        tally.latency.record(finish.saturating_sub(burst.arrival));
        tally.bursts += 1;
        tally.bytes += self.config.burst_bytes as u64;
        if hit {
            tally.row_hits += 1;
        } else {
            tally.bank_activates[bank_idx] += 1;
            tally.row_misses += 1;
        }
        let rank = &mut self.state.ranks[rank_idx];
        rank.busy_cycles += t.t_bl;
        // Coalesce per-rank busy windows into gap-merged segments so
        // the simulated-time trace stays compact; closed windows are
        // buffered and emitted at the flush barrier.
        match rank.activity {
            Some((s, e)) if data_start <= e + ACTIVITY_GAP => {
                rank.activity = Some((s, e.max(finish)));
            }
            Some((s, e)) => {
                self.state.slices.push((rank_idx, s, e - s));
                rank.activity = Some((data_start, finish));
            }
            None => rank.activity = Some((data_start, finish)),
        }
        (data_start, finish)
    }
}

impl checkpoint::Snapshot for MemorySystem {
    type State = SystemState;

    /// Captures the complete scheduler state, including each channel's
    /// service and telemetry since the last `service_all`, so an image
    /// taken between any two calls resumes exactly (see
    /// [`crate::snapshot`] for the trace events it leaves out).
    fn snapshot(&self) -> SystemState {
        SystemState {
            config: self.config,
            stats: self.stats,
            flushed: self.flushed,
            fault_stats: self.fault_stats,
            flushed_faults: self.flushed_faults,
            inflight: self
                .inflight
                .iter()
                .map(|(&id, &(remaining, data_start, finish))| (id, remaining, data_start, finish))
                .collect(),
            completed: self.completed,
            next_id: self.next_id,
            injector: self.injectors.first().map(|first| InjectorSnapshot {
                config: *first.config(),
                states: self
                    .injectors
                    .iter()
                    .map(checkpoint::Snapshot::snapshot)
                    .collect(),
            }),
            channels: self
                .channels
                .iter()
                .enumerate()
                .map(|(ch_idx, ch)| ChannelSnapshot {
                    ranks: ch
                        .ranks
                        .iter()
                        .map(|r| RankSnapshot {
                            banks: r
                                .banks
                                .iter()
                                .map(|b| BankSnapshot {
                                    open_row: b.open_row,
                                    next_act: b.next_act,
                                    next_col: b.next_col,
                                    next_pre: b.next_pre,
                                })
                                .collect(),
                            act_window: r.act_window.iter().copied().collect(),
                            next_act_any: r.next_act_any,
                            next_act_group: r.next_act_group.clone(),
                            next_col_any: r.next_col_any,
                            next_col_group: r.next_col_group.clone(),
                            local_bus_free: r.local_bus_free,
                            refresh_epoch: r.refresh_epoch,
                            busy_cycles: r.busy_cycles,
                        })
                        .collect(),
                    bus_free: ch.bus_free,
                    queue: ch
                        .queue
                        .iter()
                        .map(|b| BurstState {
                            id: b.id.0,
                            addr: self.mapper.compose(b.location(ch_idx, &self.config)),
                            kind: b.kind,
                            locality: b.locality,
                            arrival: b.arrival,
                        })
                        .collect(),
                    service: ch.service.clone(),
                    telemetry: ch.telemetry.clone(),
                    audit: ch.checker.tally(),
                })
                .collect(),
            #[cfg(feature = "audit")]
            audit: Some(self.audit.tally.clone()),
            #[cfg(not(feature = "audit"))]
            audit: None,
        }
    }
}

impl checkpoint::Restore for MemorySystem {
    fn restore(&mut self, state: &SystemState) -> Result<(), checkpoint::RestoreError> {
        use checkpoint::RestoreError;
        if state.config != self.config {
            return Err(RestoreError::new(
                "memory-system snapshot was taken under a different DRAM configuration",
            ));
        }
        if state.channels.len() != self.config.channels {
            return Err(RestoreError::new(format!(
                "snapshot has {} channels, configuration expects {}",
                state.channels.len(),
                self.config.channels
            )));
        }
        let ranks_per_channel = self.config.dimms_per_channel * self.config.ranks_per_dimm;
        let banks = self.config.banks_per_rank();
        let groups = self.config.bank_groups;
        // Bursts each request still has in flight — queued, or hit by
        // the abort that parked a channel — checked against the ledger
        // below: servicing retires exactly one ledger burst per queued
        // burst. The map holds only what is in flight, never the run.
        let mut in_flight: BTreeMap<usize, usize> = BTreeMap::new();
        let mut note = |c: usize, id: u64, what: &str| -> Result<(), RestoreError> {
            let known = usize::try_from(id).ok().filter(|&id| id < state.next_id);
            let id = known.ok_or_else(|| {
                RestoreError::new(format!("channel {c}: {what} unknown request {id}"))
            })?;
            *in_flight.entry(id).or_default() += 1;
            Ok(())
        };
        for (c, ch) in state.channels.iter().enumerate() {
            if ch.ranks.len() != ranks_per_channel {
                return Err(RestoreError::new(format!(
                    "channel {c}: snapshot has {} ranks, configuration expects {ranks_per_channel}",
                    ch.ranks.len()
                )));
            }
            for (r, rank) in ch.ranks.iter().enumerate() {
                if rank.banks.len() != banks
                    || rank.next_act_group.len() != groups
                    || rank.next_col_group.len() != groups
                {
                    return Err(RestoreError::new(format!(
                        "channel {c} rank {r}: bank/group layout disagrees with configuration"
                    )));
                }
            }
            if ch.telemetry.bank_activates.len() != banks {
                return Err(RestoreError::new(format!(
                    "channel {c}: {} bank activate tallies, configuration expects {banks}",
                    ch.telemetry.bank_activates.len()
                )));
            }
            if let Some(FaultError::Mem(e)) = &ch.service.error {
                note(c, e.request, "parked on")?;
            }
            for b in &ch.queue {
                note(c, b.id as u64, "queued burst references")?;
                let home = self.mapper.map(b.addr).channel;
                if home != c {
                    return Err(RestoreError::new(format!(
                        "channel {c}: queued burst of request {} at {:#x} belongs to channel {home}",
                        b.id, b.addr
                    )));
                }
            }
        }
        // Each ledger entry is a multi-burst request with exactly its
        // outstanding bursts in flight; any other request in flight is
        // a single-burst one.
        let mut inflight = BTreeMap::new();
        for &(id, outstanding, data_start, finish) in &state.inflight {
            if id >= state.next_id || outstanding == 0 || inflight.contains_key(&id) {
                return Err(RestoreError::new(format!(
                    "ledger entry for request {id} is unknown, empty or repeated"
                )));
            }
            let in_queue = in_flight.get(&id).copied().unwrap_or(0);
            if outstanding != in_queue {
                return Err(RestoreError::new(format!(
                    "request {id}: ledger says {outstanding} bursts outstanding but {in_queue} are queued"
                )));
            }
            inflight.insert(id, (outstanding, data_start, finish));
        }
        if let Some((id, n)) = in_flight
            .iter()
            .find(|&(id, &n)| n != 1 && !inflight.contains_key(id))
        {
            return Err(RestoreError::new(format!(
                "request {id}: ledger has no entry but {n} bursts are queued"
            )));
        }
        // Every request in flight has a distinct id below `next_id`, so
        // the difference cannot underflow, and comparing it (rather than
        // adding to the image's count) cannot overflow.
        if state.completed.count > (state.next_id - in_flight.len()) as u64 {
            return Err(RestoreError::new(format!(
                "snapshot counts {} completed and {} unfinished requests but issued only {}",
                state.completed.count,
                in_flight.len(),
                state.next_id
            )));
        }

        self.injectors = match &state.injector {
            Some(snap) => {
                if snap.states.len() != self.config.channels {
                    return Err(RestoreError::new(format!(
                        "snapshot has {} injector lanes, configuration expects {}",
                        snap.states.len(),
                        self.config.channels
                    )));
                }
                snap.states
                    .iter()
                    .enumerate()
                    .map(|(ch, s)| {
                        let mut inj = FaultInjector::with_lane(snap.config, ch as u64);
                        checkpoint::Restore::restore(&mut inj, s).map(|()| inj)
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
            None => Vec::new(),
        };
        self.stats = state.stats;
        self.flushed = state.flushed;
        self.fault_stats = state.fault_stats;
        self.flushed_faults = state.flushed_faults;
        self.completed = state.completed;
        self.next_id = state.next_id;
        self.channels = state
            .channels
            .iter()
            .enumerate()
            .map(|(ch_idx, ch)| ChannelState {
                ranks: ch
                    .ranks
                    .iter()
                    .map(|r| RankState {
                        banks: r
                            .banks
                            .iter()
                            .map(|b| BankState {
                                open_row: b.open_row,
                                next_act: b.next_act,
                                next_col: b.next_col,
                                next_pre: b.next_pre,
                            })
                            .collect(),
                        act_window: r.act_window.iter().copied().collect(),
                        next_act_any: r.next_act_any,
                        next_act_group: r.next_act_group.clone(),
                        next_col_any: r.next_col_any,
                        next_col_group: r.next_col_group.clone(),
                        local_bus_free: r.local_bus_free,
                        refresh_epoch: r.refresh_epoch,
                        activity: None,
                        busy_cycles: r.busy_cycles,
                    })
                    .collect(),
                bus_free: ch.bus_free,
                queue: ch
                    .queue
                    .iter()
                    .map(|b| {
                        let loc = self.mapper.map(b.addr);
                        let id = RequestId(b.id);
                        Burst::new(id, loc, b.kind, b.locality, b.arrival, &self.config)
                    })
                    .collect(),
                service: ch.service.clone(),
                telemetry: ch.telemetry.clone(),
                slices: Vec::new(),
                retired: Vec::new(),
                checker: audit::ChannelChecker::new(ch_idx, ranks_per_channel, banks, groups),
                #[cfg(feature = "audit")]
                perturb: audit::Perturbation::None,
            })
            .collect();
        self.inflight = inflight;
        // The image's audit tallies carry over; the retirement ledger
        // restarts from the bursts in flight, and the mirrors re-seed from
        // the snapshot's open rows and refresh epochs. The
        // refresh-energy baseline absorbs the pre-snapshot pJ —
        // merged, or held by a channel's in-flight service — that the
        // carried tallies do not count, so the closed form covers the
        // refreshes some checker observed.
        #[cfg(feature = "audit")]
        {
            let mut energy = state.stats.energy.refresh_pj;
            let mut counted = state.audit.as_ref().map_or(0, |t| t.refreshes);
            for ch in &state.channels {
                energy += ch.service.stats.energy.refresh_pj;
                counted += ch.audit.as_ref().map_or(0, |t| t.refreshes);
            }
            let tally = state.audit.clone().unwrap_or_default();
            self.audit = AuditAccum {
                flushed_violations: tally.violations.len() as u64,
                tally,
                expected: (0..state.next_id)
                    .map(|id| in_flight.get(&id).copied().unwrap_or(0))
                    .collect(),
                serviced: vec![0; state.next_id],
                refresh_pj_base: energy - counted as f64 * self.config.energy.refresh_pj,
            };
            for (ch_state, snap) in self.channels.iter_mut().zip(&state.channels) {
                let tally = snap.audit.clone().unwrap_or_default();
                ch_state.checker.reseed(&snap.ranks, tally);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn single_channel() -> DramConfig {
        DramConfig {
            channels: 1,
            ..DramConfig::default()
        }
    }

    /// The digest of hand-computed `(request index, data_start,
    /// finish)` completions.
    fn digest(completions: &[(usize, u64, u64)]) -> CompletionDigest {
        completions
            .iter()
            .map(|&(i, data_start, finish)| Completion {
                id: RequestId(i),
                data_start,
                finish,
            })
            .collect()
    }

    #[test]
    fn idle_read_latency() {
        let mut sys = MemorySystem::new(single_channel());
        sys.enqueue(Request::read(0, 64));
        let r = sys.service_all();
        // ACT@0, RD@tRCD=16, data @ 32..36.
        assert_eq!(sys.completions(), digest(&[(0, 32, 36)]));
        assert_eq!(r.stats.elapsed_cycles, 36, "ends with the last finish");
        assert_eq!(r.stats.activates, 1);
        assert_eq!(r.stats.row_misses, 1);
    }

    #[test]
    fn row_hit_is_faster() {
        let cfg = single_channel();
        let mut sys = MemorySystem::new(cfg);
        sys.enqueue(Request::read(0, 64));
        sys.enqueue(Request::read(64 * cfg.channels as u64, 64)); // same row, next column
        let r = sys.service_all();
        assert_eq!(r.stats.row_hits, 1);
        // First read: data 32..36. Second read: col at tCCD_L after the
        // first col (same bank group), data 16+6+16=38..42 — well before
        // a fresh ACT would allow.
        assert_eq!(sys.completions(), digest(&[(0, 32, 36), (1, 38, 42)]));
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let cfg = single_channel();
        let mut sys = MemorySystem::new(cfg);
        let mapper = AddressMapper::new(cfg);
        let base = mapper.compose(Location {
            channel: 0,
            dimm: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: 0,
            column: 0,
        });
        let other_row = mapper.compose(Location {
            channel: 0,
            dimm: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: 1,
            column: 0,
        });
        sys.enqueue(Request::read(base, 64));
        sys.enqueue(Request::read(other_row, 64));
        let r = sys.service_all();
        assert_eq!(r.stats.precharges, 1);
        assert_eq!(r.stats.activates, 2);
        // First: data 32..36. Second: PRE at tRAS=39, ACT at 39+16=55
        // (=tRC), RD at 71, data 87..91.
        assert_eq!(sys.completions(), digest(&[(0, 32, 36), (1, 87, 91)]));
    }

    #[test]
    fn tfaw_throttles_activates() {
        let cfg = single_channel();
        let mut sys = MemorySystem::new(cfg);
        let mapper = AddressMapper::new(cfg);
        // Five activates to five different bank groups/banks of rank 0.
        for i in 0..5 {
            let loc = Location {
                channel: 0,
                dimm: 0,
                rank: 0,
                bank_group: i % 4,
                bank: i / 4,
                row: 0,
                column: 0,
            };
            sys.enqueue(Request::read(mapper.compose(loc), 64));
        }
        let r = sys.service_all();
        assert_eq!(r.stats.activates, 5);
        // ACTs at 0, 4, 8, 12 (tRRD_S), so the first four reads stream
        // back to back on the bus from 32; the fifth must wait for
        // tFAW=26 from the first: data at 26+16+16=58..62.
        let first_four = [(0, 32, 36), (1, 36, 40), (2, 40, 44), (3, 44, 48)];
        assert_eq!(
            sys.completions(),
            digest(&[&first_four[..], &[(4, 58, 62)]].concat())
        );
        assert_eq!(r.stats.elapsed_cycles, 62, "ends with the last finish");
    }

    #[test]
    fn rank_local_streams_run_in_parallel() {
        let cfg = single_channel();
        let mapper = AddressMapper::new(cfg);
        // Stream A: rank 0; stream B: rank 1. Rank-local.
        let mut one = MemorySystem::new(cfg);
        for col in 0..32 {
            let loc = Location {
                channel: 0,
                dimm: 0,
                rank: 0,
                bank_group: col % 4,
                bank: 0,
                row: 0,
                column: col,
            };
            one.enqueue(Request::local_read(mapper.compose(loc), 64));
        }
        let single_elapsed = one.service_all().stats.elapsed_cycles;

        let mut two = MemorySystem::new(cfg);
        for rank in 0..2 {
            for col in 0..32 {
                let loc = Location {
                    channel: 0,
                    dimm: 0,
                    rank,
                    bank_group: col % 4,
                    bank: 0,
                    row: 0,
                    column: col,
                };
                two.enqueue(Request::local_read(mapper.compose(loc), 64));
            }
        }
        let double_elapsed = two.service_all().stats.elapsed_cycles;
        // Twice the work on two ranks should cost nearly no extra time.
        assert!(
            double_elapsed < single_elapsed + single_elapsed / 4,
            "double = {double_elapsed}, single = {single_elapsed}"
        );
    }

    #[test]
    fn channel_reads_serialize_on_bus() {
        let cfg = single_channel();
        let mapper = AddressMapper::new(cfg);
        let mut sys = MemorySystem::new(cfg);
        for rank in 0..2 {
            for col in 0..16 {
                let loc = Location {
                    channel: 0,
                    dimm: 0,
                    rank,
                    bank_group: col % 4,
                    bank: 0,
                    row: 0,
                    column: col,
                };
                sys.enqueue(Request::read(mapper.compose(loc), 64));
            }
        }
        let r = sys.service_all();
        // 32 bursts × tBL=4 = 128 data cycles minimum on one shared bus.
        assert!(r.stats.elapsed_cycles >= 128);
        assert_eq!(r.stats.channel_bus_busy_cycles, 128);
    }

    #[test]
    fn broadcast_occupies_bus_once_with_higher_energy() {
        let cfg = single_channel();
        let mut sys = MemorySystem::new(cfg);
        sys.enqueue(Request::broadcast_write(0, 64));
        let r = sys.service_all();
        assert_eq!(r.stats.broadcast_transfers, 1);
        assert_eq!(r.stats.activates, 0); // no bank activity
        assert!(r.stats.energy.broadcast_io_pj > 0.0);
        // Energy factor: one broadcast costs more than one normal
        // transfer of the same size would on I/O.
        let mut plain = MemorySystem::new(cfg);
        plain.enqueue(Request::write(0, 64));
        let p = plain.service_all();
        assert!(r.stats.energy.broadcast_io_pj > p.stats.energy.io_pj);
    }

    #[test]
    fn multi_burst_requests_complete_at_last_burst() {
        let cfg = single_channel();
        let mut sys = MemorySystem::new(cfg);
        let id = sys.enqueue(Request::read(0, 256)); // 4 bursts
        assert_eq!(sys.inflight[&id.0], (4, u64::MAX, 0));
        let r = sys.service_all();
        // Four columns of one bank group, tCCD_L=6 apart: data 32..36
        // through 50..54, and the request completes with the last.
        assert_eq!(sys.completions(), digest(&[(id.0, 32, 54)]));
        assert!(
            sys.inflight.is_empty(),
            "the entry left with the last burst"
        );
        assert_eq!(r.stats.elapsed_cycles, 54, "ends with the last finish");
        assert_eq!(r.stats.reads, 4);
    }

    #[test]
    fn multi_channel_spreads_load() {
        let mut one = MemorySystem::new(single_channel());
        let mut four = MemorySystem::new(DramConfig::default());
        for i in 0..64u64 {
            one.enqueue(Request::read(i * 64, 64));
            four.enqueue(Request::read(i * 64, 64));
        }
        let t1 = one.service_all().stats.elapsed_cycles;
        let t4 = four.service_all().stats.elapsed_cycles;
        assert!(
            (t4 as f64) < t1 as f64 * 0.5,
            "four channels should be much faster: {t4} vs {t1}"
        );
    }

    #[test]
    fn stats_accumulate_across_service_calls() {
        let mut sys = MemorySystem::new(single_channel());
        let first = sys.enqueue(Request::read(0, 64));
        sys.service_all();
        assert_eq!(sys.completions(), digest(&[(first.0, 32, 36)]));
        let second = sys.enqueue(Request::read(1 << 20, 64));
        let r = sys.service_all();
        assert_eq!(r.stats.reads, 2);
        // The earlier completion stays put; the second read conflicts
        // with the row the first left open (PRE at tRAS=39, data 87..91).
        assert_eq!(
            sys.completions(),
            digest(&[(first.0, 32, 36), (second.0, 87, 91)])
        );
    }

    #[test]
    fn sequential_stream_achieves_high_bandwidth() {
        let cfg = DramConfig::default();
        let mut sys = MemorySystem::new(cfg);
        let total_bytes = 64 * 1024;
        for i in 0..(total_bytes / 64) as u64 {
            sys.enqueue(Request::read(i * 64, 64));
        }
        let r = sys.service_all();
        let bw = r.stats.effective_bandwidth(&cfg);
        let peak = cfg.system_peak_bandwidth();
        assert!(
            bw > 0.5 * peak,
            "sequential bandwidth {bw:.2e} below half of peak {peak:.2e}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_request_panics() {
        let mut sys = MemorySystem::new(single_channel());
        sys.enqueue(Request::read(0, 0));
    }

    #[test]
    fn refresh_blocks_the_rank_and_closes_rows() {
        let cfg = single_channel();
        let t = cfg.timing;
        let mut sys = MemorySystem::new(cfg);
        // A read just before the refresh epoch boundary opens a row...
        sys.enqueue(Request::read(0, 64).at_cycle(0));
        // ...and one arriving after tREFI must wait out tRFC and
        // re-activate the (closed) row.
        sys.enqueue(Request::read(0, 64).at_cycle(t.t_refi + 1));
        let r = sys.service_all();
        assert_eq!(r.stats.row_misses, 2, "row closed by refresh");
        // The second read waits out the refresh window: ACT at
        // tREFI+tRFC, then tRCD and tCL to its first beat.
        let second = t.t_refi + t.t_rfc + t.t_rcd + t.t_cl;
        assert_eq!(
            sys.completions(),
            digest(&[(0, 32, 36), (1, second, second + t.t_bl)])
        );
        assert!(r.stats.energy.refresh_pj > 0.0);
    }

    #[test]
    fn refresh_can_be_disabled() {
        let mut cfg = single_channel();
        cfg.timing.t_refi = 0;
        let mut sys = MemorySystem::new(cfg);
        sys.enqueue(Request::read(0, 64).at_cycle(0));
        sys.enqueue(Request::read(0, 64).at_cycle(100_000));
        let r = sys.service_all();
        assert_eq!(r.stats.row_hits, 1, "row survives without refresh");
        assert_eq!(r.stats.energy.refresh_pj, 0.0);
    }

    #[test]
    fn completions_respect_arrival() {
        let mut sys = MemorySystem::new(single_channel());
        sys.enqueue(Request::read(0, 64).at_cycle(1000));
        sys.service_all();
        // ACT at the arrival cycle, data 32 cycles later.
        assert_eq!(sys.completions(), digest(&[(0, 1032, 1036)]));
    }

    #[test]
    fn zero_rate_faults_are_bit_identical_to_no_faults() {
        let mut plain = MemorySystem::new(single_channel());
        let mut faulty = MemorySystem::with_faults(single_channel(), FaultConfig::off());
        for i in 0..64u64 {
            plain.enqueue(Request::read(i * 64, 64));
            faulty.enqueue(Request::read(i * 64, 64));
        }
        let a = plain.service_all();
        let b = faulty.try_service_all().expect("zero-rate cannot fail");
        assert_eq!(a.stats, b.stats);
        assert_eq!(plain.completions().count, 64);
        assert_eq!(plain.completions(), faulty.completions());
        assert!(b.faults.is_empty());
    }

    #[test]
    fn same_seed_same_faulty_report() {
        let cfg = FaultConfig {
            seed: 42,
            bit_flip_rate: 0.05,
            stall_rate: 0.02,
            stuck_row_rate: 0.01,
            ..FaultConfig::off()
        };
        let run = || {
            let mut sys = MemorySystem::with_faults(single_channel(), cfg);
            for i in 0..256u64 {
                sys.enqueue(Request::read(i * 64, 64));
            }
            sys.try_service_all().expect("recoverable faults only")
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.faults, b.faults);
        assert!(a.faults.total_injected() > 0, "rates must inject something");
    }

    #[test]
    fn ecc_detections_retry_and_add_latency() {
        let cfg = FaultConfig {
            seed: 7,
            bit_flip_rate: 1.0, // every read faults; ~12 % double-bit
            retry_limit: 50,    // high budget so the run completes
            ..FaultConfig::off()
        };
        let mut faulty = MemorySystem::with_faults(single_channel(), cfg);
        let mut plain = MemorySystem::new(single_channel());
        for i in 0..512u64 {
            faulty.enqueue(Request::read(i * 64, 64));
            plain.enqueue(Request::read(i * 64, 64));
        }
        let f = faulty.try_service_all().expect("retry budget covers it");
        let p = plain.service_all();
        assert!(f.faults.ecc_corrected > 0);
        assert!(f.faults.ecc_detected > 0);
        assert!(f.faults.read_retries > 0);
        assert!(
            f.stats.elapsed_cycles > p.stats.elapsed_cycles,
            "retries must cost cycles: {} vs {}",
            f.stats.elapsed_cycles,
            p.stats.elapsed_cycles
        );
    }

    #[test]
    fn exhausted_retries_raise_mem_error() {
        let cfg = FaultConfig {
            seed: 3,
            bit_flip_rate: 1.0,
            retry_limit: 0, // first double-bit detection is fatal
            ..FaultConfig::off()
        };
        let mut sys = MemorySystem::with_faults(single_channel(), cfg);
        for i in 0..512u64 {
            sys.enqueue(Request::read(i * 64, 64));
        }
        match sys.try_service_all() {
            Err(FaultError::Mem(e)) => {
                assert_eq!(e.kind, MemErrorKind::UncorrectableEcc);
                assert_eq!(sys.fault_stats().mem_errors, 1);
            }
            other => panic!("expected an uncorrectable ECC error, got {other:?}"),
        }
    }

    #[test]
    fn stalled_rank_trips_watchdog_naming_stuck_requests() {
        let cfg = FaultConfig {
            stalled_rank_mask: 0b1, // global rank 0 never retires
            watchdog_limit: 100,
            ..FaultConfig::off()
        };
        let mapper = AddressMapper::new(single_channel());
        let mut sys = MemorySystem::with_faults(single_channel(), cfg);
        let mut expected = Vec::new();
        for col in 0..4 {
            let loc = Location {
                channel: 0,
                dimm: 0,
                rank: 0,
                bank_group: 0,
                bank: 0,
                row: 0,
                column: col,
            };
            expected.push(sys.enqueue(Request::read(mapper.compose(loc), 64)).0 as u64);
        }
        match sys.try_service_all() {
            Err(FaultError::Watchdog(e)) => {
                assert_eq!(e.site, "dramsim.channel[0]");
                assert_eq!(e.waited, 100, "trips after exactly the limit");
                assert_eq!(e.stuck_requests, expected, "names every stuck request");
                assert_eq!(sys.fault_stats().watchdog_trips, 1);
            }
            other => panic!("expected a watchdog trip, got {other:?}"),
        }
    }

    #[test]
    fn stalled_rank_does_not_block_other_ranks() {
        // Requests on rank 1 retire even while rank 0 is dead; only the
        // stuck remainder trips the watchdog.
        let cfg = FaultConfig {
            stalled_rank_mask: 0b1,
            watchdog_limit: 50,
            ..FaultConfig::off()
        };
        let mapper = AddressMapper::new(single_channel());
        let mut sys = MemorySystem::with_faults(single_channel(), cfg);
        let stuck = sys.enqueue(Request::read(
            mapper.compose(Location {
                channel: 0,
                dimm: 0,
                rank: 0,
                bank_group: 0,
                bank: 0,
                row: 0,
                column: 0,
            }),
            64,
        ));
        sys.enqueue(Request::read(
            mapper.compose(Location {
                channel: 0,
                dimm: 0,
                rank: 1,
                bank_group: 0,
                bank: 0,
                row: 0,
                column: 0,
            }),
            64,
        ));
        match sys.try_service_all() {
            Err(FaultError::Watchdog(e)) => {
                assert_eq!(e.stuck_requests, vec![stuck.0 as u64]);
            }
            other => panic!("expected a watchdog trip, got {other:?}"),
        }
        // The healthy rank's stats registered its read.
        assert_eq!(sys.stats().reads, 1);
    }

    #[test]
    fn snapshot_restore_continues_timeline_exactly() {
        use checkpoint::Snapshot;
        let faults = FaultConfig {
            seed: 42,
            bit_flip_rate: 0.05,
            stall_rate: 0.02,
            stuck_row_rate: 0.01,
            ..FaultConfig::off()
        };
        // Reference: one system services two batches back to back.
        let mut reference = MemorySystem::with_faults(single_channel(), faults);
        for i in 0..128u64 {
            reference.enqueue(Request::read(i * 64, 64));
        }
        reference.try_service_all().expect("recoverable faults");

        // Snapshot at the service boundary, restore into a fresh
        // system, then feed both the second batch.
        let state = reference.snapshot();
        let mut resumed = MemorySystem::from_state(&state).expect("valid state");
        for i in 128..256u64 {
            reference.enqueue(Request::read(i * 64, 64));
            resumed.enqueue(Request::read(i * 64, 64));
        }
        let a = reference.try_service_all().expect("recoverable faults");
        let b = resumed.try_service_all().expect("recoverable faults");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.faults, b.faults);
        assert_eq!(reference.completions().count, 256);
        assert_eq!(reference.completions(), resumed.completions());
    }

    /// Snapshots in the middle of a streamed service: channel 0 holds a
    /// partly serviced queue, channel 1 is parked on an uncorrectable
    /// ECC error, and channel 2 is blocked behind a stalled rank. The
    /// resumed system must finish exactly as the uninterrupted one:
    /// same error, report, completions and final image.
    #[test]
    fn restore_mid_service_continues_timeline_exactly() {
        use checkpoint::Snapshot;
        let cfg = DramConfig::default();
        let faults = FaultConfig {
            seed: 5,
            bit_flip_rate: 0.5,
            retry_limit: 0,
            stall_rate: 0.02,
            stuck_row_rate: 0.05,
            stalled_rank_mask: 1 << 8, // channel 2, rank 0
            watchdog_limit: 200,
            ..FaultConfig::off()
        };
        let mapper = AddressMapper::new(cfg);
        let at = |channel, rank, column, row| {
            mapper.compose(Location {
                channel,
                dimm: rank / 2,
                rank: rank % 2,
                bank_group: column % 4,
                bank: row % 4,
                row: row as u64,
                column,
            })
        };
        // Reads draw bit flips, so only channel 1 can abort on ECC.
        let stream = |sys: &mut MemorySystem, rows: std::ops::Range<usize>| {
            for row in rows {
                for column in 0..8 {
                    sys.enqueue(Request::local_write(at(0, row % 4, column, row), 64));
                    sys.enqueue(Request::write(at(0, 3, column, row), 64));
                    sys.enqueue(Request::read(at(1, row % 4, column, row), 64));
                    sys.enqueue(Request::write(at(2, row % 2, column, row), 64));
                    sys.enqueue(Request::local_write(at(3, row % 4, column, row), 128));
                    sys.enqueue(Request::broadcast_write(at(3, 0, column, row), 64));
                }
            }
        };
        let mut reference = MemorySystem::with_faults(cfg, faults);
        stream(&mut reference, 0..24);
        let state = reference.snapshot();
        let ch = &state.channels;
        assert!(ch[0].service.stats.writes > 0, "channel 0 streamed");
        assert!(
            (15..64).contains(&ch[0].queue.len()),
            "a window stays queued"
        );
        assert!(
            matches!(ch[1].service.error, Some(FaultError::Mem(_))),
            "channel 1 parked"
        );
        assert_eq!(
            ch[2].queue.len(),
            24 * 8,
            "channel 2 blocked from its first pick"
        );
        assert_eq!(ch[2].service.stats, MemoryStats::default());
        assert!(ch[3].telemetry.bursts > 0 && ch[3].telemetry.latency.count() > 0);

        let json = serde_json::to_string(&state).expect("serializes");
        let back: SystemState = serde_json::from_str(&json).expect("parses");
        let mut resumed = MemorySystem::from_state(&back).expect("valid state");
        assert_eq!(resumed.snapshot(), state);
        stream(&mut reference, 24..48);
        stream(&mut resumed, 24..48);
        let a = reference.try_service_all();
        let b = resumed.try_service_all();
        assert!(matches!(a, Err(FaultError::Mem(_))), "{a:?}");
        assert_eq!(a.map(|r| r.stats), b.map(|r| r.stats));
        assert_eq!(reference.fault_stats(), resumed.fault_stats());
        assert_eq!(reference.fault_stats().watchdog_trips, 1);
        assert_eq!(reference.completions(), resumed.completions());
        assert_eq!(reference.snapshot(), resumed.snapshot());
    }

    #[test]
    fn restore_rejects_config_mismatch() {
        use checkpoint::{Restore, Snapshot};
        let sys = MemorySystem::new(single_channel());
        let state = sys.snapshot();
        let mut other = MemorySystem::new(DramConfig::default());
        assert!(other.restore(&state).is_err(), "channel count differs");

        let mut tampered = state.clone();
        tampered.channels[0].ranks.pop();
        let mut same_cfg = MemorySystem::new(single_channel());
        assert!(same_cfg.restore(&tampered).is_err(), "rank layout differs");
    }

    #[test]
    fn restore_rejects_a_burst_queued_on_the_wrong_channel() {
        use checkpoint::Snapshot;
        let mut sys = MemorySystem::new(DramConfig::default());
        sys.enqueue(Request::read(0, 64)); // decodes to channel 0
        let mut state = sys.snapshot();
        let burst = state.channels[0].queue.pop().expect("queued");
        state.channels[1].queue.push(burst);
        let err = MemorySystem::from_state(&state).expect_err("misplaced burst");
        assert!(err.0.contains("belongs to channel 0"), "{err}");
    }

    #[test]
    fn restore_rejects_a_ledger_that_disagrees_with_the_queues() {
        use checkpoint::Snapshot;
        let mut sys = MemorySystem::new(single_channel());
        sys.enqueue(Request::read(0, 128)); // two bursts
        let state = sys.snapshot();
        assert_eq!(state.inflight, vec![(0, 2, u64::MAX, 0)]);
        assert!(MemorySystem::from_state(&state).is_ok());
        // More bursts queued than outstanding: servicing them would
        // drive the ledger count below zero.
        let mut overfull = state.clone();
        overfull.inflight[0].1 = 1;
        // Fewer: the request could never complete.
        let mut short = state.clone();
        short.channels[0].queue.pop();
        // No entry at all: each burst would complete the request.
        let mut missing = state.clone();
        missing.inflight.clear();
        for bad in [overfull, short, missing] {
            let err = MemorySystem::from_state(&bad).expect_err("inconsistent ledger");
            assert!(err.0.contains("request 0: ledger"), "{err}");
        }
        // A completed request besides the one in flight: more requests
        // than were issued, also at a count no sum could hold.
        for count in [1, u64::MAX] {
            let mut overcounted = state.clone();
            overcounted.completed.count = count;
            let err = MemorySystem::from_state(&overcounted).expect_err("too many requests");
            assert!(err.0.contains("issued only 1"), "{err}");
        }
    }

    /// A long fault-free stream keeps a ledger entry only for a request
    /// with bursts still queued: however many requests have completed,
    /// the image never holds more entries than queued bursts, and the
    /// queues stay below the high-water mark.
    #[test]
    fn ledger_holds_only_requests_in_flight() {
        use checkpoint::Snapshot;
        // One channel, where a multi-burst request stays on its channel,
        // and four, where it stripes across them.
        for cfg in [single_channel(), DramConfig::default()] {
            let high_water = HIGH_WATER.max(4 * cfg.sched_window);
            let mut sys = MemorySystem::new(cfg);
            let requests = 100_000u64;
            let mut entries_seen = 0;
            for i in 0..requests {
                let addr = (i * 7 * 64) ^ ((i % 13) << 21);
                let req = match i % 4 {
                    0 => Request::local_read(addr, 64),
                    1 => Request::write(addr, 64),
                    2 => Request::local_write(addr, 128),
                    _ => Request::read(addr, 256),
                };
                sys.enqueue(req);
                if i % 12_500 != 12_499 {
                    continue;
                }
                let state = sys.snapshot();
                let queued: Vec<usize> = state
                    .channels
                    .iter()
                    .flat_map(|c| c.queue.iter().map(|b| b.id))
                    .collect();
                assert!(queued.len() < cfg.channels * high_water);
                assert!(state.inflight.len() <= queued.len());
                for &(id, outstanding, ..) in &state.inflight {
                    let n = queued.iter().filter(|&&q| q == id).count();
                    assert_eq!(n, outstanding, "request {id} after {i}");
                }
                entries_seen += state.inflight.len();
            }
            assert!(
                entries_seen > 0,
                "some snapshot caught a multi-burst request"
            );
            sys.service_all();
            assert!(sys.inflight.is_empty());
            assert_eq!(sys.completions().count, requests);
        }
    }

    #[test]
    fn from_state_refuses_a_topology_wider_than_a_burst_entry() {
        use checkpoint::Snapshot;
        let mut state = MemorySystem::new(single_channel()).snapshot();
        state.config.dimms_per_channel = 129; // 258 ranks per channel
        let err = MemorySystem::from_state(&state).expect_err("too many ranks");
        assert!(err.0.contains("258 ranks per channel"), "{err}");
    }

    #[test]
    #[should_panic(expected = "exceeds the scheduler's limits")]
    fn new_refuses_a_topology_wider_than_a_burst_entry() {
        MemorySystem::new(DramConfig {
            banks_per_group: 65, // 260 banks per rank
            ..single_channel()
        });
    }

    #[test]
    fn burst_entry_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Burst>(), 32);
    }

    #[test]
    fn compact_bursts_round_trip_at_the_topology_limits() {
        use checkpoint::Snapshot;
        // 256 ranks per channel, 256 banks per rank, 65,536 columns.
        let cfg = DramConfig {
            channels: 2,
            dimms_per_channel: 128,
            ranks_per_dimm: 2,
            bank_groups: 16,
            banks_per_group: 16,
            row_bytes: 64 << 16,
            ..DramConfig::default()
        };
        let mapper = AddressMapper::new(cfg);
        let last = Location {
            channel: 1,
            dimm: 127,
            rank: 1,
            bank_group: 15,
            bank: 15,
            row: 3,
            column: (1 << 16) - 1,
        };
        let mut sys = MemorySystem::new(cfg);
        sys.enqueue(Request::local_read(mapper.compose(last), 64));
        let state = sys.snapshot();
        assert_eq!(state.channels[1].queue[0].addr, mapper.compose(last));
        let mut resumed = MemorySystem::from_state(&state).expect("fits");
        assert_eq!(resumed.snapshot(), state);
        resumed.service_all();
        assert_eq!(resumed.stats().local_bytes, 64);
    }

    #[test]
    fn completion_is_none_until_every_burst_of_the_request_retires() {
        let cfg = DramConfig::default();
        let mapper = AddressMapper::new(cfg);
        // Row conflicts queued ahead on channel 2 delay that channel's
        // share of the striped request.
        let busy_channel_2 = |sys: &mut MemorySystem| {
            for row in 1..4 {
                let loc = Location {
                    channel: 2,
                    dimm: 0,
                    rank: 0,
                    bank_group: 0,
                    bank: 0,
                    row,
                    column: 0,
                };
                sys.enqueue(Request::read(mapper.compose(loc), 64));
            }
        };
        let mut striped = MemorySystem::new(cfg);
        busy_channel_2(&mut striped);
        let id = striped.enqueue(Request::read(0, 256)); // one burst per channel
        assert_eq!(striped.completions().count, 0, "queued");
        striped.service_all();
        // The same four bursts as separate requests, in the same order.
        let mut split = MemorySystem::new(cfg);
        busy_channel_2(&mut split);
        for i in 0..4u64 {
            split.enqueue(Request::read(i * 64, 64));
        }
        split.service_all();
        // Channel 2's row conflicts: data 32..36, then each PRE/ACT
        // tRC=55 after the last. The parts on channels 0, 1 and 3 read
        // idle banks; channel 2's part queues behind the conflicts.
        let busy = [(0, 32, 36), (1, 87, 91), (2, 142, 146)];
        let parts = [(3, 32, 36), (4, 32, 36), (5, 197, 201), (6, 32, 36)];
        assert_eq!(split.completions(), digest(&[&busy[..], &parts].concat()));
        // The striped request completes once, at the first beat and the
        // last finish over its parts.
        let first = parts.iter().map(|p| p.1).min().expect("four parts");
        let last = parts.iter().map(|p| p.2).max().expect("four parts");
        assert_eq!(
            striped.completions(),
            digest(&[&busy[..], &[(id.0, first, last)]].concat())
        );
        assert!(striped.inflight.is_empty());

        // A stalled rank on channel 1 trips that channel's watchdog: the
        // striped request's channel-1 burst stays queued after the abort.
        let faults = FaultConfig {
            stalled_rank_mask: 1 << 4, // channel 1, rank 0
            watchdog_limit: 50,
            ..FaultConfig::off()
        };
        let mut aborted = MemorySystem::with_faults(cfg, faults);
        let healthy = aborted.enqueue(Request::read(0, 64)); // channel 0
        let stuck = aborted.enqueue(Request::read(0, 256));
        assert!(matches!(
            aborted.try_service_all(),
            Err(FaultError::Watchdog(_))
        ));
        assert_eq!(aborted.completions(), digest(&[(healthy.0, 32, 36)]));
        assert_eq!(aborted.inflight[&stuck.0].0, 1, "a burst is still queued");
    }

    /// Digest of the snapshot JSON of a fixed mixed stream — channel,
    /// rank-local, broadcast and direct-send traffic, several requests
    /// multi-burst — serviced once and then enqueued again. First
    /// recorded when queued bursts still stored their raw address, so
    /// it pins the recomposed `addr` to the bytes the raw field
    /// produced; re-recorded when channels began to carry their
    /// in-flight service, after checking that the queues, the ledger
    /// and the stats serialize to the same bytes as before (48 bursts
    /// per channel stay below the high-water mark), and again when the
    /// per-request ledger gave way to the in-flight entries and the
    /// completion digest. An audited build's image also carries its
    /// checker's tallies, so it has its own digest.
    #[test]
    fn snapshot_bytes_match_the_golden_digest() {
        use checkpoint::Snapshot;
        let mut sys = MemorySystem::new(DramConfig::default());
        let stream = |sys: &mut MemorySystem, base: u64| {
            for i in 0..96u64 {
                let addr = base + i * 13 * 64 + ((i % 5) << 21);
                let req = match i % 6 {
                    0 => Request::read(addr, 64),
                    1 => Request::local_write(addr, 192),
                    2 => Request::broadcast_write(addr, 128),
                    3 => Request::local_read(addr, 64),
                    4 => Request::direct_send(addr, 64),
                    _ => Request::write(addr, 256),
                };
                sys.enqueue(req.at_cycle(i * 40));
            }
        };
        stream(&mut sys, 0);
        sys.service_all();
        stream(&mut sys, 1 << 30);
        let json = serde_json::to_string(&sys.snapshot()).expect("serializes");
        let golden = if cfg!(feature = "audit") {
            0x2729_e5b3_3607_714c
        } else {
            0x697d_e9e8_76fd_4387
        };
        assert_eq!(checkpoint::fnv1a64(json.as_bytes()), golden);
    }

    /// Digest of the reports, errors and every completion of a mixed
    /// workload serviced in two rounds, fault-free, faulted and with a
    /// stalled rank: channel, rank-local, broadcast and direct-send
    /// bursts, multi-burst requests, row conflicts, arrivals past
    /// tREFI, ECC retries, stuck-row and failed-bank remaps, and
    /// watchdog trips. Each round queues about 1,200 bursts per
    /// channel, so streamed service crosses the high-water mark many
    /// times. First recorded when every burst still waited for the one
    /// service call, so it pins streamed service to the batch's picks,
    /// issue cycles and fault draws. Re-recorded when the completions
    /// became a digest, by folding the per-request completions the
    /// batch-pinned scheduler still reported into that digest, so the
    /// value stays the batch scheduler's.
    #[test]
    fn streamed_service_matches_the_batch_digest() {
        let faulted = FaultConfig {
            seed: 23,
            bit_flip_rate: 0.05,
            stall_rate: 0.02,
            stuck_row_rate: 0.02,
            failed_bank_rate: 0.01,
            retry_limit: 50,
            ..FaultConfig::off()
        };
        let stalled = FaultConfig {
            stalled_rank_mask: 1 << 5, // channel 1, rank 1
            watchdog_limit: 500,
            ..FaultConfig::off()
        };
        let mut record = String::new();
        for faults in [FaultConfig::off(), faulted, stalled] {
            let mut sys = MemorySystem::with_faults(DramConfig::default(), faults);
            let t_refi = sys.config().timing.t_refi;
            for round in 0..2u64 {
                for i in 0..3000u64 {
                    let addr = (round << 32) + i * 7 * 64 + ((i % 11) << 20);
                    let req = match i % 8 {
                        0 => Request::read(addr, 64),
                        1 => Request::local_read(addr, 128),
                        2 => Request::broadcast_write(addr, 64),
                        3 => Request::local_write(addr, 64),
                        4 => Request::write(addr, 256),
                        5 => Request::direct_send(addr, 64),
                        6 => Request::read((i % 32) * 4096, 64),
                        _ => Request::local_read(addr, 64).at_cycle(i * t_refi / 1000),
                    };
                    sys.enqueue(req);
                }
                match sys.try_service_all() {
                    Ok(_) if faults == stalled => panic!("the stalled rank must trip"),
                    Ok(_) => {}
                    Err(FaultError::Watchdog(e)) => record += &format!("{e:?}"),
                    Err(e) => panic!("unexpected abort: {e}"),
                }
                record += &serde_json::to_string(sys.stats()).expect("serializes");
                record += &serde_json::to_string(sys.fault_stats()).expect("serializes");
            }
            if faults == faulted {
                let f = sys.fault_stats();
                assert!(f.read_retries > 0 && f.row_remaps > 0 && f.bank_remaps > 0);
            }
            let done = sys.completions();
            record += &format!("{}:{};", done.count, done.sum);
        }
        assert_eq!(
            checkpoint::fnv1a64(record.as_bytes()),
            0xd821_0e4b_4f34_6f2e
        );
    }

    /// The `i`-th burst of a mixed located stream: every locality and
    /// both kinds, rows revisited to force conflicts, and arrivals past
    /// tREFI.
    fn located_burst(cfg: &DramConfig, i: u64) -> (Location, RequestKind, Locality, u64) {
        let n = i as usize;
        let loc = Location {
            channel: n % cfg.channels,
            dimm: n / 4 % cfg.dimms_per_channel,
            rank: n / 8 % cfg.ranks_per_dimm,
            bank_group: n / 3 % cfg.bank_groups,
            bank: n / 5 % cfg.banks_per_group,
            row: i / 64 % 9 + ((i % 7) << 20),
            column: n * 11 % 64,
        };
        let (kind, locality) = match i % 6 {
            0 => (RequestKind::Read, Locality::RankLocal),
            1 => (RequestKind::Write, Locality::RankLocal),
            2 => (RequestKind::Read, Locality::Channel),
            3 => (RequestKind::Write, Locality::Broadcast),
            4 => (RequestKind::Write, Locality::DirectSend),
            _ => (RequestKind::Read, Locality::RankLocal),
        };
        let arrival = if i % 10 == 9 {
            i * cfg.timing.t_refi / 1000
        } else {
            0
        };
        (loc, kind, locality, arrival)
    }

    /// A stream of located bursts runs exactly as the same one-burst
    /// requests at their composed addresses: same ids, reports, errors,
    /// completions, and snapshot bytes mid-stream and after each
    /// service, fault-free, faulted and with a stalled rank.
    #[test]
    fn located_bursts_match_composed_requests() {
        use checkpoint::Snapshot;
        let faulted = FaultConfig {
            seed: 23,
            bit_flip_rate: 0.05,
            stall_rate: 0.02,
            stuck_row_rate: 0.02,
            failed_bank_rate: 0.05,
            retry_limit: 50,
            ..FaultConfig::off()
        };
        let stalled = FaultConfig {
            stalled_rank_mask: 1 << 5, // channel 1, rank 1
            watchdog_limit: 500,
            ..FaultConfig::off()
        };
        let cfg = DramConfig::default();
        let mapper = AddressMapper::new(cfg);
        let image =
            |sys: &MemorySystem| serde_json::to_string(&sys.snapshot()).expect("serializes");
        for faults in [FaultConfig::off(), faulted, stalled] {
            let mut located = MemorySystem::with_faults(cfg, faults);
            let mut composed = MemorySystem::with_faults(cfg, faults);
            for round in 0..2u64 {
                for i in round * 3000..(round + 1) * 3000 {
                    let (loc, kind, locality, arrival_cycle) = located_burst(&cfg, i);
                    let req = Request {
                        addr: mapper.compose(loc),
                        bytes: cfg.burst_bytes,
                        kind,
                        locality,
                        arrival_cycle,
                    };
                    assert_eq!(
                        located.enqueue_burst(loc, kind, locality, arrival_cycle),
                        composed.enqueue(req)
                    );
                    if i % 3000 == 1500 {
                        assert_eq!(image(&located), image(&composed), "mid-stream, burst {i}");
                    }
                }
                let a = located.try_service_all().map(|r| (r.stats, r.faults));
                let b = composed.try_service_all().map(|r| (r.stats, r.faults));
                assert_eq!(a.is_err(), faults == stalled, "{a:?}");
                assert_eq!(a, b);
                assert_eq!(located.completions(), composed.completions());
                assert_eq!(image(&located), image(&composed));
            }
            if faults == faulted {
                let f = located.fault_stats();
                assert!(
                    f.read_retries > 0 && f.row_remaps > 0 && f.bank_remaps > 0,
                    "{f:?}"
                );
            }
        }
    }

    /// A located burst outside the topology is refused before it takes
    /// an id, whichever coordinate is out of range; it is never packed
    /// into the compact queue entry.
    #[test]
    fn located_bursts_outside_the_topology_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cfg = DramConfig::default();
        // 64 B × 4 channels × 64 columns × 16 banks × 4 ranks per
        // channel: 2^20 bytes per row index, so the highest address is
        // in row 2^44 - 1.
        let last = Location {
            channel: 3,
            dimm: 1,
            rank: 1,
            bank_group: 3,
            bank: 3,
            row: (1 << 44) - 2,
            column: 63,
        };
        let mut sys = MemorySystem::new(cfg);
        sys.enqueue_burst(last, RequestKind::Read, Locality::RankLocal, 0);
        let state = checkpoint::Snapshot::snapshot(&sys);
        assert_eq!(state.channels[3].queue[0].addr, u64::MAX - (1 << 20) - 63);
        let outside = [
            Location { channel: 4, ..last },
            Location { dimm: 2, ..last },
            Location { rank: 2, ..last },
            Location {
                bank_group: 4,
                ..last
            },
            Location { bank: 4, ..last },
            Location {
                row: (1 << 44) - 1,
                ..last
            },
            Location { column: 64, ..last },
        ];
        for loc in outside {
            let refused = catch_unwind(AssertUnwindSafe(|| {
                sys.enqueue_burst(loc, RequestKind::Write, Locality::RankLocal, 0)
            }));
            assert!(refused.is_err(), "{loc:?} was queued");
        }
        assert_eq!(sys.enqueue(Request::read(0, 64)), RequestId(1));
    }

    #[test]
    fn persistent_remaps_are_counted() {
        let cfg = FaultConfig {
            seed: 11,
            stuck_row_rate: 0.2,
            failed_bank_rate: 0.1,
            ..FaultConfig::off()
        };
        let mut sys = MemorySystem::with_faults(single_channel(), cfg);
        for i in 0..512u64 {
            sys.enqueue(Request::read(i * 4096, 64)); // spread rows
        }
        let r = sys.try_service_all().expect("remaps are recoverable");
        assert!(
            r.faults.row_remaps + r.faults.bank_remaps > 0,
            "high rates over 512 spread accesses must remap something"
        );
    }

    #[test]
    fn audit_report_disabled_without_feature() {
        let mut sys = MemorySystem::new(single_channel());
        sys.enqueue(Request::read(0, 64));
        sys.service_all();
        let report = sys.audit_report(true);
        assert_eq!(report.enabled, crate::audit::is_enabled());
        if !crate::audit::is_enabled() {
            assert!(!report.is_clean(), "disabled audit must not read as clean");
        }
    }

    /// The audit self-tests below exercise the live checker, so they
    /// only exist under the feature.
    #[cfg(feature = "audit")]
    mod audit_tests {
        use super::*;
        use crate::audit::{AuditReport, Constraint, Perturbation};

        /// A workload that exercises every command class the checker
        /// knows: row hits/misses/conflicts, reads and writes, all four
        /// localities, multi-burst requests, and periodic refresh. The
        /// whole workload is requests `0..512`.
        fn mixed_workload(sys: &mut MemorySystem, requests: std::ops::Range<u64>) {
            let t = sys.config().timing;
            for i in requests {
                match i % 7 {
                    0 => sys.enqueue(Request::write(i * 4096, 64)),
                    1 => sys.enqueue(Request::local_read(i * 64, 128)),
                    2 => sys.enqueue(Request::broadcast_write(i * 64, 64)),
                    3 => sys.enqueue(Request::direct_send(i * 64, 64)),
                    4 => sys.enqueue(Request::read(i * 64, 256)),
                    // Revisit early rows to force conflicts, and push a
                    // tail past the refresh interval.
                    5 => sys.enqueue(Request::read((i % 16) * 4096, 64)),
                    _ => sys.enqueue(Request::read(i * 64, 64).at_cycle(i * t.t_refi / 256)),
                };
            }
        }

        #[test]
        fn audit_is_clean_on_a_mixed_workload() {
            let mut sys = MemorySystem::new(single_channel());
            mixed_workload(&mut sys, 0..512);
            sys.service_all();
            let report = sys.audit_report(true);
            assert!(report.is_clean(), "{}", report.summary());
            assert!(report.commands_checked > 512);
            assert!(report.refresh_events > 0, "workload must cross tREFI");
        }

        /// Located bursts retire and conserve energy exactly as
        /// composed requests do, with and without fault retries.
        #[test]
        fn audit_is_clean_on_a_located_stream() {
            let cfg = DramConfig::default();
            let retries = FaultConfig {
                seed: 7,
                bit_flip_rate: 0.2,
                stuck_row_rate: 0.05,
                retry_limit: 50,
                ..FaultConfig::off()
            };
            for faults in [FaultConfig::off(), retries] {
                let mut sys = MemorySystem::with_faults(cfg, faults);
                for i in 0..4000 {
                    let (loc, kind, locality, arrival_cycle) = located_burst(&cfg, i);
                    sys.enqueue_burst(loc, kind, locality, arrival_cycle);
                }
                let r = sys.try_service_all().expect("retry budget covers it");
                assert_eq!(r.faults.read_retries > 0, faults == retries);
                let report = sys.audit_report(true);
                assert!(report.is_clean(), "{}", report.summary());
                assert!(report.commands_checked > 4000);
                assert!(report.refresh_events > 0, "stream must cross tREFI");
            }
        }

        #[test]
        fn audit_is_clean_under_fault_retries() {
            // Every read faults; retries must not register as
            // double-retirement or break the energy closed forms.
            let cfg = FaultConfig {
                seed: 7,
                bit_flip_rate: 1.0,
                stall_rate: 0.05,
                stuck_row_rate: 0.05,
                retry_limit: 50,
                ..FaultConfig::off()
            };
            let mut sys = MemorySystem::with_faults(single_channel(), cfg);
            for i in 0..512u64 {
                sys.enqueue(Request::read(i * 64, 64));
            }
            let r = sys.try_service_all().expect("retry budget covers it");
            assert!(r.faults.read_retries > 0, "faults must actually retry");
            let report = sys.audit_report(true);
            assert!(report.is_clean(), "{}", report.summary());
        }

        #[test]
        fn audit_survives_snapshot_restore() {
            use checkpoint::Snapshot;
            let mut sys = MemorySystem::new(single_channel());
            mixed_workload(&mut sys, 0..512);
            sys.service_all();
            let state = sys.snapshot();
            let mut resumed = MemorySystem::from_state(&state).expect("valid state");
            for i in 0..64u64 {
                // Same rows again: conflicts against restored open rows.
                resumed.enqueue(Request::read((i % 16) * 4096, 64));
            }
            resumed.service_all();
            let report = resumed.audit_report(true);
            assert!(report.is_clean(), "{}", report.summary());
            assert!(report.commands_checked > 64);
        }

        #[test]
        fn audit_of_a_run_resumed_mid_service_covers_the_whole_run() {
            use checkpoint::Snapshot;
            let mut straight = MemorySystem::new(single_channel());
            mixed_workload(&mut straight, 0..512);
            straight.service_all();
            let expected = straight.audit_report(true);
            assert!(expected.is_clean(), "{}", expected.summary());

            let mut sys = MemorySystem::new(single_channel());
            mixed_workload(&mut sys, 0..400);
            let state = sys.snapshot();
            // Streamed bursts, a refresh among them, await the merge.
            let service = &state.channels[0].service;
            assert!(service.stats.reads > 0 && service.stats.energy.refresh_pj > 0.0);
            let json = serde_json::to_string(&state).expect("serializes");
            let back: SystemState = serde_json::from_str(&json).expect("parses");
            let mut resumed = MemorySystem::from_state(&back).expect("valid state");
            mixed_workload(&mut resumed, 400..512);
            resumed.service_all();
            assert_eq!(resumed.audit_report(true), expected);
        }

        /// A burst serviced twice, or one that vanished from its queue,
        /// is a retirement violation naming its request.
        #[test]
        fn audit_flags_a_lost_or_doubly_retired_burst() {
            let mut doubled = MemorySystem::new(single_channel());
            doubled.enqueue(Request::read(0, 64));
            let copy = doubled.channels[0].queue[0];
            doubled.channels[0].queue.push_back(copy);
            doubled.service_all();
            let report = doubled.audit_report(true);
            let messages: Vec<&str> = report
                .violations
                .iter()
                .filter(|v| v.constraint == Constraint::Retirement)
                .map(|v| v.message.as_str())
                .collect();
            assert!(
                messages.contains(&"request 0 retired 2 bursts but only 1 were enqueued"),
                "{messages:?}"
            );
            assert!(
                messages
                    .iter()
                    .any(|m| m.starts_with("completion digest counts 2")),
                "{messages:?}"
            );

            let mut lost = MemorySystem::new(single_channel());
            lost.enqueue(Request::read(0, 64));
            lost.enqueue(Request::read(64, 128)); // two bursts
            lost.channels[0].queue.pop_back();
            lost.service_all();
            let report = lost.audit_report(true);
            assert_eq!(report.violations.len(), 1, "{}", report.summary());
            assert_eq!(report.violations[0].constraint, Constraint::Retirement);
            assert!(
                report.violations[0]
                    .message
                    .starts_with("request 1: 2 bursts enqueued"),
                "{}",
                report.summary()
            );
        }

        #[test]
        fn undrained_queue_is_a_retirement_violation() {
            let cfg = FaultConfig {
                stalled_rank_mask: 0b1,
                watchdog_limit: 50,
                ..FaultConfig::off()
            };
            let mut sys = MemorySystem::with_faults(single_channel(), cfg);
            sys.enqueue(Request::read(0, 64)); // rank 0: never retires
            assert!(sys.try_service_all().is_err(), "watchdog must trip");
            // Not expecting a drained system: bursts may sit queued.
            assert!(sys.audit_report(false).is_clean());
            // Expecting drained: the stuck burst is a violation.
            let report = sys.audit_report(true);
            assert_eq!(report.violations.len(), 1, "{}", report.summary());
            assert_eq!(report.violations[0].constraint, Constraint::Retirement);
        }

        /// Runs `first`, installs the perturbation, runs `second`, and
        /// returns the audit report — the self-test harness proving the
        /// checker catches a deliberately broken scheduler.
        fn perturbed_run(
            perturbation: Perturbation,
            first: Option<Request>,
            second: Request,
        ) -> AuditReport {
            let mut sys = MemorySystem::new(single_channel());
            if let Some(req) = first {
                sys.enqueue(req);
                sys.service_all();
                assert!(sys.audit_report(true).is_clean(), "clean before perturbing");
            }
            sys.audit_perturb(perturbation);
            sys.enqueue(second);
            sys.service_all();
            sys.audit_report(true)
        }

        fn conflict_pair() -> (Request, Request) {
            let mapper = AddressMapper::new(single_channel());
            let same_bank = |row| {
                mapper.compose(Location {
                    channel: 0,
                    dimm: 0,
                    rank: 0,
                    bank_group: 0,
                    bank: 0,
                    row,
                    column: 0,
                })
            };
            (
                Request::read(same_bank(0), 64),
                Request::read(same_bank(1), 64),
            )
        }

        #[track_caller]
        fn assert_exactly(report: &AuditReport, constraint: Constraint) {
            assert_eq!(
                report.violations.len(),
                1,
                "want exactly one {constraint} violation; {}",
                report.summary()
            );
            let v = &report.violations[0];
            assert_eq!(v.constraint, constraint);
            assert!(!v.trace.is_empty(), "violation must carry a trace tail");
        }

        #[test]
        fn early_column_trips_trcd() {
            // Idle read: ACT@0, RD perturbed to 15 < tRCD=16.
            let report = perturbed_run(Perturbation::EarlyColumn, None, Request::read(0, 64));
            assert_exactly(&report, Constraint::Trcd);
        }

        #[test]
        fn early_activate_trips_trp() {
            // Conflict: PRE@39, ACT perturbed to 54 < 39 + tRP.
            let (a, b) = conflict_pair();
            let report = perturbed_run(Perturbation::EarlyActivate, Some(a), b);
            assert_exactly(&report, Constraint::Trp);
        }

        #[test]
        fn early_precharge_trips_tras() {
            // Conflict: PRE perturbed to 38 < ACT@0 + tRAS=39.
            let (a, b) = conflict_pair();
            let report = perturbed_run(Perturbation::EarlyPrecharge, Some(a), b);
            assert_exactly(&report, Constraint::Tras);
        }

        #[test]
        fn early_precharge_after_write_trips_twr() {
            // Write data ends at 36, next_pre = 36 + tWR = 54; the
            // perturbed PRE@53 satisfies tRAS but lands inside tWR.
            let (a, b) = conflict_pair();
            let write = Request::write(a.addr, 64);
            let report = perturbed_run(Perturbation::EarlyPrecharge, Some(write), b);
            assert_exactly(&report, Constraint::Twr);
        }

        #[test]
        fn skipped_precharge_trips_act_on_open_row() {
            let (a, b) = conflict_pair();
            let report = perturbed_run(Perturbation::SkipPrecharge, Some(a), b);
            assert_exactly(&report, Constraint::ActOnOpenRow);
        }

        #[test]
        fn unconsumed_perturbation_changes_nothing() {
            // EarlyPrecharge never fires on a conflict-free run; the
            // results and the audit stay those of a clean system.
            let mut sys = MemorySystem::new(single_channel());
            sys.audit_perturb(Perturbation::EarlyPrecharge);
            sys.enqueue(Request::read(0, 64));
            sys.service_all();
            assert_eq!(sys.completions(), digest(&[(0, 32, 36)]));
            assert!(sys.audit_report(true).is_clean());
        }
    }
}
