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
//! Requests enter by address or by location. [`MemorySystem::enqueue`]
//! decodes each burst of a [`Request`] through the [`AddressMapper`];
//! [`MemorySystem::enqueue_burst`] queues one burst whose [`Location`]
//! the caller already knows — the rank-AUs' traffic, placed inside its
//! home rank — with no address to compose and decode again. Both take
//! the same path from there, and a located burst outside the topology
//! panics, as a zero-byte request does.
//!
//! Service streams. Enqueueing services a channel once its queue
//! reaches a small high-water mark (64 bursts, or four scheduling
//! windows if that is more), picking only while a full scheduling
//! window is queued, so every pick, issue cycle and fault draw is the
//! one a single service of the whole batch would make;
//! [`MemorySystem::service_all`] drains the rest and publishes the
//! results. A simulation that enqueues millions of bursts before its
//! one service call so holds a few dozen per channel at a time. A
//! queued burst is a 32-byte entry holding the request id, row,
//! arrival cycle and the compact rank/bank/bank-group/column
//! coordinates the scheduler reads. The system keeps no record of a
//! request once it completes: a multi-burst request holds a ledger
//! entry only while some of its bursts are in flight, a single-burst
//! request completes with its burst, and every completion is folded
//! into an order-independent [`CompletionDigest`]
//! ([`MemorySystem::completions`]). Host memory so follows the bursts
//! in flight, not the length of the run. [`MemorySystem::new`] refuses
//! topologies beyond 256 ranks per channel, 256 banks per rank or
//! 65,536 columns per row ([`MemorySystem::check_topology`]).
//!
//! # Example
//!
//! ```
//! use dramsim::{Completion, CompletionDigest, DramConfig, MemorySystem, Request};
//!
//! let mut sys = MemorySystem::new(DramConfig::default());
//! let ids: Vec<_> = (0..16u64)
//!     .map(|i| sys.enqueue(Request::read(i * 64, 64)))
//!     .collect();
//! let report = sys.service_all();
//! assert_eq!(report.stats.reads, 16);
//! assert!(report.stats.effective_bandwidth(sys.config()) > 0.0);
//! // Consecutive blocks interleave over the four channels, so each
//! // channel reads four columns of one open row, tCCD_L = 6 cycles
//! // apart: data at 32..36, 38..42, 44..48 and 50..54. Completions fold
//! // into a digest as requests retire, and the run ends with the last
//! // finish.
//! let expected = ids.iter().enumerate().map(|(i, &id)| {
//!     let data_start = 32 + 6 * (i as u64 / 4);
//!     Completion { id, data_start, finish: data_start + 4 }
//! });
//! assert_eq!(sys.completions(), expected.collect::<CompletionDigest>());
//! assert_eq!(report.stats.elapsed_cycles, 54);
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
pub use request::{Completion, CompletionDigest, Locality, Request, RequestId, RequestKind};
pub use snapshot::{
    BankSnapshot, BurstState, ChannelSnapshot, ChannelTelemetry, InjectorSnapshot, RankSnapshot,
    ServiceState, SystemState,
};
pub use stats::{EnergyBreakdown, MemoryStats};
pub use system::{MemorySystem, Report};

pub use faultsim::{FaultConfig, FaultError, FaultStats, MemError, MemErrorKind, WatchdogError};
