//! Serializable state images for checkpoint/resume.
//!
//! [`SystemState`] captures everything [`crate::MemorySystem`] carries
//! between calls: queued bursts, per-bank row-buffer and timing state,
//! rank-level scheduling windows, cumulative statistics, the ledger of
//! multi-burst requests still in flight and the digest of every
//! completed request, the fault injector's stream positions, and each
//! channel's service in flight. Nothing in it grows with the number of
//! requests already completed. `enqueue` services a channel whose queue
//! reaches its high-water mark, so an image can fall between two
//! `service_all` calls with bursts already serviced: their statistics
//! and fault tallies wait in [`ServiceState`] for the next merge, and
//! their telemetry in [`ChannelTelemetry`] for the next flush.
//! Restoring the image into a fresh system under the same
//! [`crate::DramConfig`] continues the timeline exactly — a resumed run
//! issues the same commands at the same cycles, adds the energy terms in
//! the same order, and publishes the same telemetry as an uninterrupted
//! one.
//!
//! Not captured: the closed per-rank activity windows and the open one
//! of each rank. They are simulated-time trace events, which the `obs`
//! checkpoint image does not carry across a resume either; a restore
//! starts each rank's trace afresh.

use serde::{Deserialize, Serialize};

use faultsim::{FaultConfig, FaultError, FaultStats, InjectorState};

use crate::audit::AuditTally;
use crate::config::DramConfig;
use crate::request::{CompletionDigest, Locality, RequestKind};
use crate::stats::MemoryStats;

/// Fault-model image: the configuration the injectors ran under plus
/// each channel lane's stream positions, enough to rebuild them from
/// scratch. One entry per channel, in channel order (lane = index).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InjectorSnapshot {
    /// Fault configuration (rates, seed, retry budget), shared by all
    /// lanes.
    pub config: FaultConfig,
    /// Counter-mode stream positions, one per channel lane.
    pub states: Vec<InjectorState>,
}

/// One queued burst (mirror of the scheduler's internal entry).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstState {
    /// Owning request index.
    pub id: usize,
    /// Burst-aligned physical address, recomposed from the queued
    /// burst's coordinates; restore requires it to decode to the
    /// channel whose queue holds it.
    pub addr: u64,
    /// Read or write.
    pub kind: RequestKind,
    /// Which interface the data moves on.
    pub locality: Locality,
    /// Cycle the request entered the system.
    pub arrival: u64,
}

/// Row-buffer and timing state of one bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BankSnapshot {
    /// Currently open row, if any.
    pub open_row: Option<u64>,
    /// Earliest cycle the next ACT may issue.
    pub next_act: u64,
    /// Earliest cycle a column command may issue.
    pub next_col: u64,
    /// Earliest cycle a PRE may issue.
    pub next_pre: u64,
}

/// Scheduling state of one rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankSnapshot {
    /// Per-bank state, indexed as the config lays banks out.
    pub banks: Vec<BankSnapshot>,
    /// Issue cycles of the most recent activates (tFAW window).
    pub act_window: Vec<u64>,
    /// Earliest next-ACT cycle (rank-wide tRRD_S rule).
    pub next_act_any: u64,
    /// Earliest next-ACT cycle per bank group (tRRD_L rule).
    pub next_act_group: Vec<u64>,
    /// Earliest next-column cycle (rank-wide tCCD_S rule).
    pub next_col_any: u64,
    /// Earliest next-column cycle per bank group (tCCD_L rule).
    pub next_col_group: Vec<u64>,
    /// Cycle the rank-local data interface becomes free.
    pub local_bus_free: u64,
    /// Last refresh epoch observed.
    pub refresh_epoch: u64,
    /// Telemetry: data cycles on this rank since the last flush.
    pub busy_cycles: u64,
}

/// What one channel has serviced since the last `service_all` merge.
///
/// Each channel accumulates on its own until `service_all` folds the
/// channels in channel order, so the `f64` energy sums add in the order
/// of a single service of the whole batch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceState {
    /// Statistics of the bursts serviced since the merge
    /// (`elapsed_cycles` is their latest finish).
    pub stats: MemoryStats,
    /// Fault accounting of those bursts.
    pub fault_stats: FaultStats,
    /// The fault that aborted the channel's service, if any. The channel
    /// is parked: it services nothing more until `service_all` reports
    /// the abort. The burst the abort hit has left the queue without
    /// retiring, so its request never completes: it is counted as in
    /// flight, and a multi-burst request keeps its ledger entry.
    pub error: Option<FaultError>,
}

/// Telemetry one channel has gathered since the last flush to the `obs`
/// registry, which `service_all` performs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelTelemetry {
    /// Bursts serviced.
    pub bursts: u64,
    /// Bytes those bursts moved.
    pub bytes: u64,
    /// Bank bursts that hit an open row.
    pub row_hits: u64,
    /// Bank bursts that activated a row.
    pub row_misses: u64,
    /// Burst latency (finish − arrival) in cycles.
    pub latency: obs::Histogram,
    /// Queue depth at each scheduler pick.
    pub queue_depth: obs::Histogram,
    /// Activates per in-rank bank index.
    pub bank_activates: Vec<u64>,
}

impl ChannelTelemetry {
    /// Empty tallies for a rank of `banks` banks.
    pub(crate) fn new(banks: usize) -> Self {
        ChannelTelemetry {
            bursts: 0,
            bytes: 0,
            row_hits: 0,
            row_misses: 0,
            latency: obs::Histogram::new(),
            queue_depth: obs::Histogram::new(),
            bank_activates: vec![0; banks],
        }
    }
}

/// Queue, rank and in-flight service state of one channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelSnapshot {
    /// Per-rank state, `dimm * ranks_per_dimm + rank` order.
    pub ranks: Vec<RankSnapshot>,
    /// Cycle the shared channel bus becomes free.
    pub bus_free: u64,
    /// Bursts still waiting to be scheduled, queue order preserved.
    pub queue: Vec<BurstState>,
    /// Service since the last merge.
    pub service: ServiceState,
    /// Telemetry since the last flush.
    pub telemetry: ChannelTelemetry,
    /// The channel's protocol-checker tallies since the system last
    /// drained them; `None` when the writer was built without the
    /// `audit` feature.
    pub audit: Option<AuditTally>,
}

/// Complete state image of a [`crate::MemorySystem`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemState {
    /// Configuration the snapshot was taken under; restore refuses a
    /// system built with a different one.
    pub config: DramConfig,
    /// Cumulative statistics.
    pub stats: MemoryStats,
    /// Stats already published to telemetry as counter deltas.
    pub flushed: MemoryStats,
    /// Cumulative fault accounting.
    pub fault_stats: FaultStats,
    /// Fault stats already published to telemetry.
    pub flushed_faults: FaultStats,
    /// `(request id, bursts remaining, first data_start, last finish)`
    /// of each multi-burst request with bursts in flight, in id order. A
    /// single-burst request has no entry: it completes with its burst.
    /// Restore requires each entry's bursts remaining to equal the bursts
    /// its request has queued across all channels, plus the burst a
    /// parked channel's abort hit, and every other request with a burst
    /// in flight to have exactly one.
    pub inflight: Vec<(usize, usize, u64, u64)>,
    /// Digest of every request completed so far. Restore requires its
    /// count plus the requests in flight to be at most `next_id`.
    pub completed: CompletionDigest,
    /// Next request id to assign.
    pub next_id: usize,
    /// Fault-injector image, when a model is attached.
    pub injector: Option<InjectorSnapshot>,
    /// Per-channel queues and rank state.
    pub channels: Vec<ChannelSnapshot>,
    /// Audit tallies drained from the channels so far; `None` when the
    /// writer was built without the `audit` feature. An audited system
    /// restored from an image that has them reports the whole run.
    pub audit: Option<AuditTally>,
}
