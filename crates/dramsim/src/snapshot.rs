//! Serializable state images for checkpoint/resume.
//!
//! [`SystemState`] captures everything [`crate::MemorySystem`] carries
//! between `service_all` calls: queued bursts, per-bank row-buffer and
//! timing state, rank-level scheduling windows, cumulative statistics,
//! pending-request bookkeeping, and the fault injector's stream
//! positions. Restoring it into a fresh system under the same
//! [`crate::DramConfig`] continues the timeline exactly — a resumed run
//! issues the same commands at the same cycles as an uninterrupted one.
//!
//! Not captured: the telemetry-only accumulators (histograms, per-rank
//! busy tallies, activity windows). Those are flushed to the global
//! `obs` registry at every `service_all` boundary, which is also the
//! only sound place to snapshot, so they are empty by construction; a
//! restore resets them.

use serde::{Deserialize, Serialize};

use faultsim::{FaultConfig, FaultStats, InjectorState};

use crate::config::DramConfig;
use crate::request::{Locality, RequestKind};
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
}

/// Queue and rank state of one channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelSnapshot {
    /// Per-rank state, `dimm * ranks_per_dimm + rank` order.
    pub ranks: Vec<RankSnapshot>,
    /// Cycle the shared channel bus becomes free.
    pub bus_free: u64,
    /// Bursts still waiting to be scheduled, queue order preserved.
    pub queue: Vec<BurstState>,
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
    /// Per-request `(bursts remaining, first data_start, last finish)`;
    /// restore requires each request's bursts remaining to equal the
    /// bursts it has queued across all channels.
    pub pending: Vec<(usize, u64, u64)>,
    /// Next request id to assign.
    pub next_id: usize,
    /// Fault-injector image, when a model is attached.
    pub injector: Option<InjectorSnapshot>,
    /// Per-channel queues and rank state.
    pub channels: Vec<ChannelSnapshot>,
}
