//! `sweepd` — a fault-tolerant sweep-service daemon over the MetaNMP
//! experiment stack.
//!
//! The repo's sweeps (`metanmp-experiments faults --sweep-dir …`) are
//! single-process: one crash loses the process, and one wedged cell
//! wedges the pool. `sweepd` turns the same journaled sweep into a
//! supervised service:
//!
//! * **Control plane** ([`server`], [`http`]): a hand-rolled HTTP/1.1
//!   server over `std::net` (the build has no network crates). Sweep
//!   manifests arrive on `POST /sweeps`; progress streams from
//!   `GET /sweeps/:id`; `GET /metrics` exposes the telemetry snapshot.
//! * **Worker fleet** ([`daemon`]): cells are sharded across
//!   supervised `metanmp-experiments --connect` child processes that
//!   dial the daemon's worker listener and register like any remote
//!   worker (their hello `pid` ties each back to its slot). Liveness
//!   is heartbeat-based with a hard deadline; dead workers respawn
//!   under jittered exponential backoff ([`faultsim::Backoff`]).
//! * **Crash migration**: the per-sweep JSONL journal (shared with the
//!   in-process sweep runner) is the single source of truth — lease
//!   records, idempotent completions, failed attempts. A cell leased
//!   to a dead worker is re-leased to a healthy one and resumes from
//!   its `inflight-<key>.ckpt` byte-identically.
//! * **Graceful degradation**: cells carry wall-clock budgets and
//!   retry budgets; when the live fleet drops below the floor, the
//!   lowest-priority sweeps are shed with a structured reason; SIGTERM
//!   drains in-flight cells to checkpoints and exits 3 ("interrupted,
//!   resumable") — the exit-code contract the rest of the repo uses.
//! * **One worker transport** ([`remote`], [`wire`]): every worker —
//!   spawned or on another host — dials `--worker-listen` (always on,
//!   default `127.0.0.1:0`), completes a versioned registration
//!   handshake (protocol version, experiment-set fingerprint, session
//!   token for reconnect-with-resume), and speaks JSONL over a
//!   length-capped framed TCP stream. Leases are
//!   fence-generation-tagged so a partitioned worker's stale
//!   completions are rejected, and the coordinator-side transport can
//!   be wrapped in a deterministic network-fault injector
//!   ([`faultsim::Netem`]) scripted via `net*` scenario directives.

#![warn(missing_docs)]

pub mod daemon;
pub mod http;
pub mod manifest;
pub mod remote;
pub mod server;
pub mod wire;

pub use daemon::{CancelError, Daemon, DaemonConfig, SweepView, WorkerView};
pub use http::{parse_request, HttpError, ParseStatus, Request};
pub use manifest::{parse_manifest, SweepManifest};
pub use remote::serve_workers;
