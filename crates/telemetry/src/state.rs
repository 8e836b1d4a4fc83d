//! The registry: process-global metrics and trace state behind one mutex.
//!
//! Hot paths in the simulator (the DRAM scheduler in particular)
//! should batch locally and flush deltas here at coarse intervals —
//! see `dramsim::system` — so a single `Mutex` is plenty: the lock is
//! taken a few times per simulation phase, not per memory burst.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::hist::Histogram;
use crate::snapshot::{HistogramSummary, PhaseRow, Snapshot, TraceData, TraceEvent};

/// Trace process id for wall-clock spans.
pub const PID_WALL: u32 = 0;
/// Trace process id for simulated-time (cycle-domain) tracks.
pub const PID_SIM: u32 = 1;

/// Keep at most this many trace events; beyond it, new events are
/// dropped and `telemetry.trace.dropped_events` counts them. Bounds
/// memory for long runs without affecting metrics.
const MAX_TRACE_EVENTS: usize = 200_000;

#[derive(Default)]
struct State {
    epoch: Option<Instant>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    /// name → (calls, total wall-clock ms); survives trace-event caps.
    phase_totals: BTreeMap<String, (u64, f64)>,
    events: Vec<TraceEvent>,
    /// sim-time track name → tid under [`PID_SIM`].
    sim_tracks: BTreeMap<String, u64>,
    dropped_events: u64,
    next_tid: u64,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

thread_local! {
    /// Stack of scoped sinks installed on this thread. When non-empty,
    /// every telemetry write lands in the innermost sink instead of the
    /// process-global registry; see [`scoped_sink`].
    static SINK: RefCell<Vec<State>> = const { RefCell::new(Vec::new()) };
}

fn with_global_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let state = guard.get_or_insert_with(State::default);
    if state.epoch.is_none() {
        state.epoch = Some(Instant::now());
    }
    f(state)
}

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    SINK.with(|stack| {
        let mut stack = stack.borrow_mut();
        match stack.last_mut() {
            Some(local) => f(local),
            None => {
                drop(stack);
                with_global_state(f)
            }
        }
    })
}

thread_local! {
    // Thread ids are always allocated from the global registry so that
    // trace tids stay coherent even when a thread's first telemetry
    // call happens inside a scoped sink.
    static THREAD_TID: u64 = with_global_state(|s| {
        s.next_tid += 1;
        s.next_tid
    });
}

fn thread_tid() -> u64 {
    THREAD_TID.with(|t| *t)
}

/// Adds `delta` to the monotonic counter `name`.
pub fn counter_add(name: &str, delta: u64) {
    if delta == 0 {
        return;
    }
    with_state(|s| {
        *s.counters.entry(name.to_string()).or_insert(0) += delta;
    });
}

/// Sets the gauge `name` to `value` (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    with_state(|s| {
        s.gauges.insert(name.to_string(), value);
    });
}

/// Records one sample into the histogram `name`.
pub fn hist_record(name: &str, value: u64) {
    with_state(|s| {
        s.hists.entry(name.to_string()).or_default().record(value);
    });
}

/// Folds a locally accumulated histogram into the registry's `name`.
///
/// This is the batched counterpart of [`hist_record`]: hot loops record
/// into a stack-local [`Histogram`] and merge once per flush interval.
pub fn hist_merge(name: &str, h: &Histogram) {
    if h.count() == 0 {
        return;
    }
    with_state(|s| {
        s.hists.entry(name.to_string()).or_default().merge(h);
    });
}

/// An RAII wall-clock timer; records a span event when dropped.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct SpanGuard {
    name: String,
    cat: &'static str,
    start: Instant,
}

/// Opens a wall-clock span. The span closes (and is recorded) when the
/// returned guard drops, so nesting follows lexical scope.
pub fn span(name: impl Into<String>, cat: &'static str) -> SpanGuard {
    // Touch the state so the epoch predates the span's start.
    with_state(|_| {});
    SpanGuard {
        name: name.into(),
        cat,
        start: Instant::now(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = Instant::now();
        let dur_us = end.duration_since(self.start).as_secs_f64() * 1e6;
        let tid = thread_tid();
        let name = std::mem::take(&mut self.name);
        let cat = self.cat;
        let start = self.start;
        with_state(|s| {
            let epoch = s.epoch.expect("epoch set on first access");
            let ts_us = start
                .checked_duration_since(epoch)
                .map_or(0.0, |d| d.as_secs_f64() * 1e6);
            let entry = s.phase_totals.entry(name.clone()).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += dur_us / 1e3;
            if s.events.len() < MAX_TRACE_EVENTS {
                s.events.push(TraceEvent {
                    pid: PID_WALL,
                    tid,
                    name,
                    cat: cat.to_string(),
                    ts_us,
                    dur_us,
                });
            } else {
                s.dropped_events += 1;
            }
        });
    }
}

/// Records one simulated-time slice on the named track (cycle domain,
/// rendered as 1 cycle = 1 µs under the "simulated" trace process).
pub fn sim_slice(track: &str, name: impl Into<String>, start_cycle: u64, dur_cycles: u64) {
    with_state(|s| {
        if s.events.len() >= MAX_TRACE_EVENTS {
            s.dropped_events += 1;
            return;
        }
        let tid = match s.sim_tracks.get(track) {
            Some(&tid) => tid,
            None => {
                let tid = s.sim_tracks.len() as u64 + 1;
                s.sim_tracks.insert(track.to_string(), tid);
                tid
            }
        };
        s.events.push(TraceEvent {
            pid: PID_SIM,
            tid,
            name: name.into(),
            cat: "sim".to_string(),
            ts_us: start_cycle as f64,
            dur_us: dur_cycles as f64,
        });
    });
}

/// Copies every metric out of the registry.
pub fn snapshot() -> Snapshot {
    with_state(|s| {
        let mut counters: Vec<(String, u64)> =
            s.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
        if s.dropped_events > 0 {
            counters.push((
                "telemetry.trace.dropped_events".to_string(),
                s.dropped_events,
            ));
            counters.sort();
        }
        Snapshot {
            counters,
            gauges: s.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: s
                .hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSummary {
                            count: h.count(),
                            sum: h.sum(),
                            min: h.min(),
                            max: h.max(),
                            mean: h.mean(),
                            p50: h.p50(),
                            p95: h.p95(),
                            p99: h.p99(),
                        },
                    )
                })
                .collect(),
            phases: s
                .phase_totals
                .iter()
                .map(|(name, &(calls, total_ms))| PhaseRow {
                    name: name.clone(),
                    calls,
                    total_ms,
                })
                .collect(),
        }
    })
}

/// Copies every recorded trace event plus track names.
pub fn trace_data() -> TraceData {
    with_state(|s| {
        let mut thread_names: Vec<(u32, u64, String)> = s
            .sim_tracks
            .iter()
            .map(|(name, &tid)| (PID_SIM, tid, name.clone()))
            .collect();
        thread_names.sort_by_key(|&(pid, tid, _)| (pid, tid));
        TraceData {
            events: s.events.clone(),
            thread_names,
        }
    })
}

/// The metrics half of the registry, as persisted by
/// [`checkpoint_json`]. Trace events and sim tracks are wall-clock
/// diagnostics of one process and are deliberately not carried across
/// a resume.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct RegistryImage {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    phases: BTreeMap<String, (u64, f64)>,
}

/// Serializes the registry's metrics — counters, gauges, histograms
/// (full bucket arrays, not summaries), and per-phase totals — as a
/// JSON checkpoint image for [`merge_checkpoint_json`].
pub fn checkpoint_json() -> String {
    let image = with_state(|s| RegistryImage {
        counters: s.counters.clone(),
        gauges: s.gauges.clone(),
        hists: s.hists.clone(),
        phases: s.phase_totals.clone(),
    });
    serde_json::to_string(&image).unwrap_or_else(|e| {
        // The image is built from plain maps of plain values; encoding
        // cannot fail, but telemetry must never take a process down.
        debug_assert!(false, "checkpoint image encoding failed: {e:?}");
        "{}".to_string()
    })
}

/// Folds a [`checkpoint_json`] image into the registry: counters and
/// phase totals add, histograms merge bucket-wise, and gauges from the
/// image fill in only where the live registry has no value (last write
/// wins, and the live process is later than the checkpoint).
///
/// # Errors
///
/// Returns a description of the problem when `json` is not a valid
/// image; the registry is left untouched in that case.
pub fn merge_checkpoint_json(json: &str) -> Result<(), String> {
    let image: RegistryImage =
        serde_json::from_str(json).map_err(|e| format!("malformed telemetry checkpoint: {e:?}"))?;
    with_state(|s| {
        for (name, v) in image.counters {
            *s.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in image.gauges {
            s.gauges.entry(name).or_insert(v);
        }
        for (name, h) in image.hists {
            s.hists.entry(name).or_default().merge(&h);
        }
        for (name, (calls, ms)) in image.phases {
            let entry = s.phase_totals.entry(name).or_insert((0, 0.0));
            entry.0 += calls;
            entry.1 += ms;
        }
    });
    Ok(())
}

/// Everything a scoped sink captured, ready to be folded into the
/// registry (or an enclosing sink) with [`merge_sink`].
///
/// The image is `Send`, so worker threads can hand their telemetry to
/// the thread that owns the canonical merge order.
#[derive(Default)]
pub struct SinkImage {
    inner: Option<Box<State>>,
}

impl std::fmt::Debug for SinkImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkImage")
            .field("captured", &self.inner.is_some())
            .finish()
    }
}

/// Pops the sink on drop so a panic inside the captured closure cannot
/// leave a stale sink redirecting the thread's telemetry forever.
struct SinkGuard;

impl Drop for SinkGuard {
    fn drop(&mut self) {
        SINK.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Runs `f` with every telemetry write on *this thread* captured into a
/// private sink instead of the process-global registry, and returns the
/// captured image alongside `f`'s result.
///
/// This is the building block for deterministic parallelism: each
/// worker captures into its own sink, and the coordinating thread folds
/// the images back with [`merge_sink`] in a canonical order, making the
/// registry contents independent of thread scheduling. Sinks nest
/// (innermost wins) and are per-thread; spawned threads are *not*
/// redirected — capture on the thread that does the work.
pub fn scoped_sink<R>(f: impl FnOnce() -> R) -> (R, SinkImage) {
    let epoch = with_global_state(|s| s.epoch.expect("epoch set on first access"));
    SINK.with(|stack| {
        stack.borrow_mut().push(State {
            // Share the global epoch so captured wall-clock events merge
            // onto the same timeline without timestamp rebasing.
            epoch: Some(epoch),
            ..State::default()
        });
    });
    let guard = SinkGuard;
    let result = f();
    std::mem::forget(guard);
    let state = SINK.with(|stack| stack.borrow_mut().pop());
    let state = state.expect("scoped_sink pushed a sink above");
    (
        result,
        SinkImage {
            inner: Some(Box::new(state)),
        },
    )
}

/// Folds a captured [`SinkImage`] into the current telemetry
/// destination (the global registry, or the enclosing sink when called
/// inside [`scoped_sink`]).
///
/// Counters, phase totals, and dropped-event tallies add; histograms
/// merge bucket-wise; **gauges overwrite** (the merge order defines
/// "last write", mirroring what a serial run would have produced);
/// trace events append with simulated-time tracks re-keyed by name.
pub fn merge_sink(image: SinkImage) {
    let Some(src) = image.inner else { return };
    let src = *src;
    with_state(|dst| {
        for (name, v) in src.counters {
            *dst.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in src.gauges {
            dst.gauges.insert(name, v);
        }
        for (name, h) in src.hists {
            dst.hists.entry(name).or_default().merge(&h);
        }
        for (name, (calls, ms)) in src.phase_totals {
            let entry = dst.phase_totals.entry(name).or_insert((0, 0.0));
            entry.0 += calls;
            entry.1 += ms;
        }
        let mut tid_map: BTreeMap<u64, u64> = BTreeMap::new();
        for (name, src_tid) in src.sim_tracks {
            let dst_tid = match dst.sim_tracks.get(&name) {
                Some(&tid) => tid,
                None => {
                    let tid = dst.sim_tracks.len() as u64 + 1;
                    dst.sim_tracks.insert(name, tid);
                    tid
                }
            };
            tid_map.insert(src_tid, dst_tid);
        }
        for mut e in src.events {
            if dst.events.len() >= MAX_TRACE_EVENTS {
                dst.dropped_events += 1;
                continue;
            }
            if e.pid == PID_SIM {
                if let Some(&tid) = tid_map.get(&e.tid) {
                    e.tid = tid;
                }
            }
            dst.events.push(e);
        }
        dst.dropped_events += src.dropped_events;
    });
}

/// Clears all metrics, spans, and the wall-clock epoch.
///
/// Only the process-global registry is cleared; sinks installed by
/// [`scoped_sink`] on other threads are unaffected.
pub fn reset() {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    // Preserve the tid counter: live threads keep their cached tids.
    let next_tid = guard.as_ref().map_or(0, |s| s.next_tid);
    *guard = Some(State {
        next_tid,
        ..State::default()
    });
}
