//! Deterministic fault injection and resilience modeling for the
//! MetaNMP simulation stack.
//!
//! The paper evaluates the MetaNMP dataflow only under fault-free
//! conditions; this crate supplies the machinery to ask how the same
//! dataflow degrades when DRAM bits flip, inter-DIMM broadcast packets
//! drop, rows wear out, or a unit stalls:
//!
//! * **Deterministic schedules** — [`FaultInjector`] derives every
//!   fault decision from a counter-mode hash of `(seed, stream,
//!   event index)` ([`rng::draw`]), so the same seed produces a
//!   byte-identical fault schedule on every run, and a zero-rate
//!   injector is exactly a no-fault run.
//! * **ECC** — a real Hamming SEC-DED (72,64) codec ([`ecc::encode`],
//!   [`ecc::decode`]) plus the statistical per-burst outcome model the
//!   simulators use on the hot path ([`ecc::outcome_for_flips`]):
//!   single-bit errors correct, double-bit errors detect (and retry),
//!   triple-bit errors escape as silent misses.
//! * **Watchdog** — a forward-progress monitor ([`Watchdog`]) that
//!   converts a would-be infinite scheduling loop into a structured
//!   [`WatchdogError`] naming the stuck requests.
//! * **Network emulation** — [`Netem`] injects deterministic
//!   drop/delay/duplicate/corrupt faults and hard partition windows
//!   into the sweep fleet's framed TCP transport, keyed counter-mode
//!   on `(seed, stream, direction, frame index)`; scripted via `net*`
//!   directives in `CHS1` scenarios.
//! * **Accounting** — [`FaultStats`] counts every injection,
//!   correction, retry, fallback, and trip, and publishes them to the
//!   `obs` telemetry registry under `faults.*`.
//!
//! The crate sits *below* `dramsim`/`nmp` in the dependency graph:
//! those crates consume the injector; this crate knows nothing about
//! DRAM timing or the NMP dataflow.

pub mod backoff;
pub mod ecc;
pub mod netem;
pub mod rng;
pub mod scenario;

mod config;
mod error;
mod inject;
mod watchdog;

pub use backoff::Backoff;
pub use config::FaultConfig;
pub use error::{FaultError, MemError, MemErrorKind};
pub use inject::{BroadcastFault, FaultInjector, FaultStats, HealthState, InjectorState};
pub use netem::{fate, Fate, NetDir, Netem, NetemConfig};
pub use scenario::{
    ChaosEvent, NetDirective, Scenario, ScenarioError, SpikeWindow, TimelineEffect,
};
pub use watchdog::{Watchdog, WatchdogError};
