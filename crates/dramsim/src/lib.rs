//! A command-level DDR4 memory-system simulator.
//!
//! This crate stands in for the paper's Ramulator integration: it
//! models channels, DIMMs, ranks, bank groups, and banks with the full
//! Table-2 timing constraints (tRCD/tCL/tRP/tRC/tRRD/tFAW/tCCD/tBL),
//! FR-FCFS scheduling, row-buffer state, and per-component energy
//! accounting. Two extensions support the MetaNMP design:
//!
//! * **Rank-local accesses** ([`Request::local_read`]) model the
//!   rank-AU's near-memory traffic: data moves on the rank's internal
//!   interface, so all ranks stream concurrently and the shared channel
//!   bus stays free — the source of MetaNMP's aggregation bandwidth.
//! * **Broadcast writes** ([`Request::broadcast_write`]) model the
//!   §4.2 inter-DIMM broadcast: one bus transfer latched by every DIMM
//!   on the channel, with I/O energy scaled by the terminal capacitance
//!   of all DIMMs.
//!
//! Service streams. [`MemorySystem::enqueue`] services a channel once
//! its queue reaches a small high-water mark (64 bursts, or four
//! scheduling windows if that is more), picking only while a full
//! scheduling window is queued, so every pick, issue cycle and fault
//! draw is the one a single service of the whole batch would make;
//! [`MemorySystem::service_all`] drains the rest and publishes the
//! results. A simulation that enqueues millions of bursts before its
//! one service call so holds a few dozen per channel at a time. A
//! queued burst is a 32-byte entry holding the request id, row,
//! arrival cycle and the compact rank/bank/bank-group/column
//! coordinates the scheduler reads, and a request's completion is read
//! on demand with [`MemorySystem::completion`] rather than returned for
//! every request on every service call. [`MemorySystem::new`] refuses
//! topologies beyond 256 ranks per channel, 256 banks per rank or
//! 65,536 columns per row ([`MemorySystem::check_topology`]).
//!
//! # Example
//!
//! ```
//! use dramsim::{DramConfig, MemorySystem, Request};
//!
//! let mut sys = MemorySystem::new(DramConfig::default());
//! let ids: Vec<_> = (0..16u64)
//!     .map(|i| sys.enqueue(Request::read(i * 64, 64)))
//!     .collect();
//! let report = sys.service_all();
//! assert_eq!(report.stats.reads, 16);
//! assert!(report.stats.effective_bandwidth(sys.config()) > 0.0);
//! // Completion times are read per request, on demand.
//! let last = ids.iter().filter_map(|&id| sys.completion(id)).map(|c| c.finish).max();
//! assert_eq!(last, Some(report.stats.elapsed_cycles));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod address;
pub mod audit;
mod config;
pub mod parallel;
mod request;
mod snapshot;
mod stats;
mod system;

pub use address::{AddressMapper, Location};
pub use audit::{AuditError, AuditReport, AuditTally, CmdEvent, CmdKind, Constraint, Perturbation};
pub use config::{DramConfig, EnergyParams, Timing};
pub use request::{Completion, Locality, Request, RequestId, RequestKind};
pub use snapshot::{
    BankSnapshot, BurstState, ChannelSnapshot, ChannelTelemetry, InjectorSnapshot, RankSnapshot,
    ServiceState, SystemState,
};
pub use stats::{EnergyBreakdown, MemoryStats};
pub use system::{MemorySystem, Report};

pub use faultsim::{FaultConfig, FaultError, FaultStats, MemError, MemErrorKind, WatchdogError};
