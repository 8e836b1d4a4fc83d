//! Serializable state image of the resumable functional simulator.
//!
//! [`FunctionalState`] is everything [`crate::ResumableRun`] carries
//! between start vertices: the DRAM scheduler image (with the service
//! in flight), both fault injectors' stream positions, per-resource
//! cycle budgets, byte tallies, the completed structural matrices, the
//! in-flight one, and the cursor `(metapath index, next start vertex)`. Restoring it and
//! running to the end reproduces an uninterrupted run bit for bit: the
//! walk order, the fault schedule, and every floating-point
//! accumulation replay in the original order.

use serde::{Deserialize, Serialize};

use dramsim::SystemState;
use faultsim::{FaultStats, InjectorState};
use hgnn::tensor::Matrix;

use crate::config::NmpConfig;
use crate::report::NmpCounts;

/// Complete state of a [`crate::ResumableRun`] at a vertex boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionalState {
    /// Configuration the run executes under; restore refuses any other.
    pub config: NmpConfig,
    /// DRAM scheduler image (queues, banks, stats, its injector, and
    /// each channel's service since the last merge).
    pub mem: SystemState,
    /// Stream positions of the broadcast/unit fault injector.
    pub injector: Option<InjectorState>,
    /// Fault accounting of the broadcast/unit layer.
    pub bcast_stats: FaultStats,
    /// Dataflow operation counters.
    pub counts: NmpCounts,
    /// CarPU generation cycles per DIMM.
    pub gen: Vec<u64>,
    /// Rank-AU compute cycles per rank.
    pub compute: Vec<u64>,
    /// Normal (point-to-point) bus bytes per channel.
    pub normal_bytes: Vec<f64>,
    /// Broadcast bus bytes per channel.
    pub broadcast_bytes: Vec<f64>,
    /// Edge/neighbor-list read bytes per channel.
    pub edge_bytes: Vec<f64>,
    /// Host-side aggregation traffic per channel (ablation path).
    pub host_agg_bytes: Vec<f64>,
    /// Demand-fetch bytes per channel (naive communication policy).
    pub demand_bytes: Vec<f64>,
    /// Extra host cycles accrued (recovery, host-side aggregation).
    pub host_extra_cycles: u64,
    /// Structural matrices of the metapaths completed so far.
    pub structural: Vec<Matrix>,
    /// Partial structural matrix of the in-flight metapath.
    pub current: Option<Matrix>,
    /// Index of the metapath being processed.
    pub mp_index: usize,
    /// Next start vertex of the in-flight metapath.
    pub next_start: u32,
}
