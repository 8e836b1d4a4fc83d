//! The MetaNMP hardware model: a DIMM-based near-memory-processing
//! accelerator for metapath-based HGNNs.
//!
//! The crate reproduces the paper's §4 architecture piece by piece:
//!
//! * [`isa`] — the NMP instruction set of Figure 10, bit-exact
//!   encode/decode;
//! * [`units`] — the CarPU (cartesian-like product unit, one instance
//!   per cycle, capacity-decomposed) and the RCEU (shift-based reuse
//!   detection), Figure 9 (d) and (e);
//! * [`buffers`] — the 32 KB instance buffer, edge buffer, and the
//!   256 KB rank-AU feature cache;
//! * [`layout`] — §4.4 data placement: a vertex's features, aggregation
//!   results, and output share its home rank;
//! * [`comm`] — §4.2 broadcast vs naive distribution policies;
//! * [`distribution`] — the Figure 11 host workflow (evoke +
//!   broadcast), with exact consumer sets for the first product;
//! * [`power`] — the Table 5 area/power model;
//! * [`FunctionalSim`] — executes the dataflow end to end, computing
//!   real embeddings (validated against the `hgnn` engines) with
//!   rank-local traffic scheduled by the command-level DRAM simulator;
//!   [`ResumableRun`] steps it in chunks and resumes it from a
//!   snapshot, the §4.4 recovery mechanism;
//! * [`estimate()`] — a closed-form estimator for web-scale graphs,
//!   calibrated against the DRAM simulator and cross-checked against
//!   the functional simulator on small graphs.
//!
//! Both cost models compose bus traffic, bus time and energy with the
//! same code. They differ only in rank-local DRAM time (serviced
//! bursts versus a calibrated bytes per cycle) and in per-start-vertex
//! accounting.
//!
//! # Example
//!
//! ```
//! use hetgraph::datasets::{generate, DatasetId, GeneratorConfig};
//! use hgnn::{FeatureStore, ModelKind, OpCounters, Projection};
//! use nmp::{FunctionalSim, NmpConfig};
//!
//! let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.02));
//! let features = FeatureStore::random(&ds.graph, 7);
//! let projection = Projection::random(&ds.graph, 16, 7);
//! let mut counters = OpCounters::default();
//! let hidden = projection.project(&ds.graph, &features, &mut counters)?;
//!
//! let sim = FunctionalSim::new(NmpConfig { hidden_dim: 16, ..NmpConfig::default() });
//! let run = sim.run(&ds.graph, &hidden, ModelKind::Magnn, &ds.metapaths)?;
//! assert!(run.report.seconds > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod buffers;
pub mod comm;
mod config;
mod cost;
pub mod distribution;
mod error;
pub mod estimate;
mod functional;
pub mod isa;
pub mod layout;
pub mod power;
pub mod program;
mod report;
pub mod resilience;
mod snapshot;
pub mod units;

pub use comm::CommPolicy;
pub use config::NmpConfig;
pub use error::NmpError;
pub use estimate::{calibrate_rank_local, estimate, RankCalibration};
pub use functional::{FunctionalRun, FunctionalSim, ResumableRun};
/// The SIMD/cache-blocked kernel layer every rank-AU combine path runs
/// on, re-exported so NMP-side callers need not depend on `hgnn`
/// internals directly.
pub use hgnn::tensor::kernels;
pub use power::AreaPowerModel;
pub use report::{NmpCounts, NmpEnergy, NmpReport};
pub use snapshot::FunctionalState;

pub use faultsim::{FaultConfig, FaultError, FaultStats, MemErrorKind, WatchdogError};
