//! # serve — online HGNN inference serving simulation
//!
//! Every other experiment in this workspace runs one offline
//! full-graph epoch. This crate models the scenario the accelerator
//! ultimately exists for: a *stream* of per-vertex inference queries
//! hitting MetaNMP concurrently, under load, with latency targets.
//!
//! The simulator is discrete-time and fully deterministic — every
//! stochastic decision is a pure function of `(seed, stream, event
//! index)` via counter-mode hashing (the same discipline as
//! [`faultsim`]), so a schedule reproduces exactly from its seed and
//! is insensitive to host thread count.
//!
//! Pipeline, in arrival order:
//!
//! 1. **Arrivals** ([`arrival`]) — seeded Poisson with a power-law
//!    vertex popularity skew.
//! 2. **Batching** ([`batch`]) — per-QoS-class accumulation closed by
//!    a batch-size or deadline policy.
//! 3. **QoS scheduling** ([`qos`], [`sim`]) — ready batches dispatch
//!    to idle DIMMs in (priority, deadline, age) order.
//! 4. **Service** ([`workload`]) — per-query cost calibrated against
//!    one cycle-accurate [`metanmp::Simulator`] epoch, scaled by the
//!    query vertex's metapath-instance fan-out, and discounted by the
//!    inter-query **reuse cache** ([`cache`]): an LRU over projected
//!    root aggregates and first-hop metapath prefix-aggregates, the
//!    reusability HiHGNN quantifies across concurrent queries.
//! 5. **Faults** — a [`faultsim::FaultInjector`] drives permanently
//!    stalled DIMMs (service-rate slowdown) and transient stalls, so
//!    a sick rank surfaces as a tail-latency spike, not a crash.
//! 6. **Overload protection** ([`admission`], opt-in) — a token
//!    bucket plus queue-depth hysteresis gate admits queries,
//!    deadline-aware shedding drops the ones whose class target is
//!    already unmeetable (with per-class shed budgets and structured
//!    [`ShedReason`]s), per-DIMM circuit breakers trip on
//!    fault-degraded ranks and half-open on a [`faultsim::Backoff`]
//!    schedule, and root-cache-resident queries get degraded-quality
//!    *brownout* answers instead of rejections.
//! 7. **Chaos scenarios** ([`faultsim::Scenario`], opt-in) — a seeded
//!    script of load spikes, rank stalls, cache flushes, and fleet
//!    resizes over simulated time, replaying byte-identically.
//!
//! The run produces a [`ServeReport`]: p50/p99/p999 latency (via
//! [`obs::Histogram`], the same log₂ histogram the telemetry snapshot
//! uses), per-class QoS attainment, cache hit rates, per-DIMM
//! utilization, batch statistics, and admission / breaker / chaos
//! outcomes — everything in the simulated clock domain, so two runs
//! of one seed are byte-identical.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod arrival;
pub mod batch;
pub mod cache;
mod error;
pub mod qos;
mod rng;
pub mod sim;
pub mod workload;

mod report;

pub use admission::{AdmissionConfig, ShedReason};
pub use arrival::{PoissonArrivals, Query};
pub use batch::BatchPolicy;
pub use cache::CacheStats;
pub use error::ServeError;
// Re-exported so downstream crates can script chaos scenarios without
// a direct faultsim dependency (the type appears in [`ServeConfig`]).
pub use faultsim::Scenario;
pub use qos::{default_classes, ClassSpec};
pub use report::{
    AdmissionReport, BatchReport, BreakerReport, CacheReport, ChaosReport, ClassReport, DimmReport,
    FaultReport, LatencyStats, ServeReport,
};
pub use sim::{simulate, ServeConfig};
pub use workload::ServeWorkload;
