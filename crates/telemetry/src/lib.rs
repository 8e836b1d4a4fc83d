//! Unified observability for the MetaNMP simulation stack.
//!
//! Three primitives, one process-global registry:
//!
//! * **Metrics** — monotonic counters ([`counter_add`]), last-write
//!   gauges ([`gauge_set`]), and log₂-bucketed histograms with
//!   p50/p95/p99 estimation ([`hist_record`], [`hist_merge`],
//!   [`Histogram`]).
//! * **Spans** — RAII wall-clock timers ([`span`]) that aggregate into
//!   per-phase totals and emit Chrome trace events; plus explicit
//!   simulated-time slices ([`sim_slice`]) for cycle-domain activity
//!   tracks (e.g. per-rank NMP compute windows).
//! * **Exporters** — a JSON metrics snapshot ([`snapshot_json`]) and a
//!   Chrome trace-event file ([`chrome_trace_json`]) loadable in
//!   Perfetto or `chrome://tracing`.
//! * **Checkpointing** — a lossless metrics image ([`checkpoint_json`])
//!   that a resumed process folds back in with
//!   [`merge_checkpoint_json`], so counters, histograms, and phase
//!   totals survive a kill-and-resume.
//!
//! Histograms are plain values too: the serving simulator records its
//! latency *results* into [`Histogram`] and reads p50/p99/p999 from
//! it, so a result percentile and a snapshot percentile share one
//! rank definition ([`Histogram::quantile`]).

mod export;
mod hist;
mod quantile;
mod snapshot;
mod state;

pub use export::{render_chrome_trace_json, render_snapshot_json};
pub use hist::Histogram;
pub use snapshot::{HistogramSummary, PhaseRow, Snapshot, TraceData, TraceEvent};
pub use state::{
    checkpoint_json, counter_add, gauge_set, hist_merge, hist_record, merge_checkpoint_json,
    merge_sink, reset, scoped_sink, sim_slice, snapshot, span, trace_data, SinkImage, SpanGuard,
};

/// Whether the observability backend is compiled in: always `true`.
/// Benchmark hosts report it next to their results.
#[inline(always)]
pub fn is_enabled() -> bool {
    true
}

/// Renders the current registry contents as a JSON metrics snapshot.
pub fn snapshot_json() -> String {
    render_snapshot_json(&snapshot())
}

/// Renders all recorded span and sim-slice events as a Chrome
/// trace-event JSON file.
pub fn chrome_trace_json() -> String {
    render_chrome_trace_json(&trace_data())
}

/// Renders the registry as a JSON snapshot with every wall-clock
/// quantity stripped (the `phases` section is emptied).
///
/// Counters, gauges, and histograms are all simulated-domain values,
/// so two runs of the same workload — at any `--jobs`/thread count —
/// must produce byte-identical output. This is the artifact the
/// determinism regression checks compare.
pub fn deterministic_snapshot_json() -> String {
    let mut snap = snapshot();
    snap.phases.clear();
    render_snapshot_json(&snap)
}
