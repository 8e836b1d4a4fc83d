//! The serving run report.
//!
//! Everything here lives in the simulated clock domain — no wall
//! clock, no host topology — so a report is a pure function of
//! `(config, seed)` and serializes byte-identically across runs,
//! thread counts, and machines.

use faultsim::HealthState;
use serde::{Deserialize, Serialize};

use crate::batch::BatchPolicy;
use crate::cache::CacheStats;

/// Latency summary extracted from an [`obs::Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency in ticks.
    pub mean_ticks: f64,
    /// Minimum observed latency.
    pub min_ticks: u64,
    /// Median (log2-bucket upper bound; ≤2× the true value).
    pub p50_ticks: u64,
    /// 99th percentile.
    pub p99_ticks: u64,
    /// 99.9th percentile.
    pub p999_ticks: u64,
    /// Maximum observed latency.
    pub max_ticks: u64,
}

impl LatencyStats {
    /// Extracts the summary from a histogram.
    pub fn from_histogram(h: &obs::Histogram) -> LatencyStats {
        LatencyStats {
            count: h.count(),
            mean_ticks: h.mean(),
            min_ticks: h.min(),
            p50_ticks: h.p50(),
            p99_ticks: h.p99(),
            p999_ticks: h.p999(),
            max_ticks: h.max(),
        }
    }
}

/// One QoS class's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    /// Class name.
    pub name: String,
    /// Dispatch priority.
    pub priority: u8,
    /// Queries served.
    pub queries: u64,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Queries answered as degraded-quality brownouts.
    pub brownouts: u64,
    /// End-to-end latency (arrival → completion) of served queries.
    pub latency: LatencyStats,
    /// The class's p99 target in ticks.
    pub target_p99_ticks: u64,
    /// Whether observed p99 met the target.
    pub attained: bool,
}

/// Reuse-cache outcome.
#[derive(Debug, Clone, PartialEq, Copy, Serialize, Deserialize)]
pub struct CacheReport {
    /// Capacity in entries (0 = caching disabled).
    pub capacity_entries: u64,
    /// Raw hit/miss/eviction counters.
    pub stats: CacheStats,
    /// Overall hit rate in `[0, 1]`.
    pub hit_rate: f64,
}

/// One DIMM's utilization.
#[derive(Debug, Clone, PartialEq, Copy, Serialize, Deserialize)]
pub struct DimmReport {
    /// DIMM index (channel-major).
    pub dimm: u64,
    /// Whether a stalled rank degraded this DIMM at any point in the
    /// run (fault model or chaos scenario).
    pub stalled: bool,
    /// Circuit-breaker health at end of run (always `Healthy` when
    /// breakers are disabled).
    pub health: HealthState,
    /// Batches served.
    pub batches: u64,
    /// Queries served.
    pub queries: u64,
    /// Ticks spent busy.
    pub busy_ticks: u64,
    /// busy_ticks / makespan.
    pub utilization: f64,
}

/// Batching behavior summary.
#[derive(Debug, Clone, PartialEq, Copy, Serialize, Deserialize)]
pub struct BatchReport {
    /// Batches dispatched.
    pub total: u64,
    /// Closed by hitting the class size cap.
    pub closed_by_size: u64,
    /// Closed by the wait deadline.
    pub closed_by_deadline: u64,
    /// Flushed at end-of-arrivals drain.
    pub closed_by_drain: u64,
    /// Closed early for an idle DIMM (work-conserving mode, only
    /// under admission control).
    pub closed_by_idle: u64,
    /// Mean queries per batch.
    pub mean_size: f64,
}

impl BatchReport {
    pub(crate) fn record(&mut self, policy: BatchPolicy) {
        self.total += 1;
        match policy {
            BatchPolicy::Size => self.closed_by_size += 1,
            BatchPolicy::Deadline => self.closed_by_deadline += 1,
            BatchPolicy::Drain => self.closed_by_drain += 1,
            BatchPolicy::Idle => self.closed_by_idle += 1,
        }
    }
}

/// Fault-model impact on the serving run.
#[derive(Debug, Clone, PartialEq, Copy, Serialize, Deserialize)]
pub struct FaultReport {
    /// DIMMs degraded by a permanently stalled rank.
    pub stalled_dimms: u64,
    /// Total transient stall ticks charged to dispatches.
    pub transient_stall_ticks: u64,
    /// Dispatches that suffered a transient stall.
    pub transient_stall_events: u64,
}

/// Admission-control outcome of one serving run (all zero / disabled
/// when no [`crate::AdmissionConfig`] is set — nothing is ever
/// dropped then).
#[derive(Debug, Clone, PartialEq, Copy, Serialize, Deserialize)]
pub struct AdmissionReport {
    /// Whether admission control ran.
    pub enabled: bool,
    /// Queries admitted for normal service.
    pub accepted: u64,
    /// Sheds because the queue-depth hysteresis gate was shut.
    pub shed_queue_depth: u64,
    /// Sheds because the token bucket was empty.
    pub shed_rate_limit: u64,
    /// Sheds because the class deadline was predicted unmeetable.
    pub shed_deadline: u64,
    /// Queries answered as root-cache-only degraded brownouts instead
    /// of being shed.
    pub brownouts: u64,
    /// Times the hysteresis gate transitioned open → shut.
    pub gate_closures: u64,
    /// Latency of brownout responses (combine-only, no queueing).
    pub brownout_latency: LatencyStats,
}

/// Per-DIMM circuit-breaker outcome (all zero / disabled without
/// admission control).
#[derive(Debug, Clone, PartialEq, Copy, Serialize, Deserialize)]
pub struct BreakerReport {
    /// Whether breakers ran.
    pub enabled: bool,
    /// Breaker trips (closed/half-open → open transitions).
    pub trips: u64,
    /// Half-open probes that closed a breaker again.
    pub reopens: u64,
    /// Completions classified slow.
    pub slow_completions: u64,
    /// Total DIMM-ticks spent with a breaker open.
    pub open_ticks: u64,
    /// DIMMs still open (tripped) at end of run.
    pub open_at_end: u64,
}

/// What the chaos scenario actually did to the run (all zero for an
/// empty scenario).
#[derive(Debug, Clone, PartialEq, Copy, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Events in the script.
    pub scripted_events: u64,
    /// Load-spike windows applied to arrival generation.
    pub spike_windows: u64,
    /// Timeline effects applied during the run.
    pub applied_effects: u64,
    /// Reuse-cache flushes performed.
    pub cache_flushes: u64,
    /// Rank stall/unstall transitions performed.
    pub rank_stall_changes: u64,
    /// Fleet shrink/grow events performed.
    pub fleet_changes: u64,
}

/// The full outcome of one serving simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Seed the run was driven by.
    pub seed: u64,
    /// Offered arrival rate in queries per 1024 ticks.
    pub offered_rate_per_ktick: f64,
    /// Queries that arrived (served + shed + brownouts).
    pub arrived: u64,
    /// Queries served normally (= arrived when admission is off).
    pub queries: u64,
    /// Tick of the last completion.
    pub makespan_ticks: u64,
    /// Achieved throughput in queries per 1024 ticks.
    pub achieved_rate_per_ktick: f64,
    /// End-to-end latency across all classes.
    pub latency: LatencyStats,
    /// Queueing delay (arrival → dispatch) across all classes.
    pub queue_delay: LatencyStats,
    /// Per-class outcomes, in class order.
    pub classes: Vec<ClassReport>,
    /// Reuse-cache outcome.
    pub cache: CacheReport,
    /// Batching summary.
    pub batches: BatchReport,
    /// Per-DIMM utilization, in DIMM order.
    pub dimms: Vec<DimmReport>,
    /// Fault impact (all zero for a fault-free run).
    pub faults: FaultReport,
    /// Admission-control outcome.
    pub admission: AdmissionReport,
    /// Circuit-breaker outcome.
    pub breakers: BreakerReport,
    /// Chaos-scenario outcome.
    pub chaos: ChaosReport,
}
