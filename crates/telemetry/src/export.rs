//! JSON renderers for snapshots and Chrome trace files.
//!
//! Hand-rolled writers fix the byte layout of both outputs; they are
//! plain JSON that `serde_json` (and Perfetto / Chrome's
//! `about:tracing`) parse back losslessly.

use std::fmt::Write as _;

use crate::snapshot::{Snapshot, TraceData};

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    // Keep re-parsed values floating-point: "5" → "5.0".
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Renders a [`Snapshot`] as a pretty-printed JSON object with
/// `counters`, `gauges`, `histograms`, and `phases` sections.
pub fn render_snapshot_json(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"counters\": {");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        push_json_str(&mut out, name);
        let _ = write!(out, ": {v}");
    }
    if !snap.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"gauges\": {");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        push_json_str(&mut out, name);
        out.push_str(": ");
        push_f64(&mut out, *v);
    }
    if !snap.gauges.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"histograms\": {");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        push_json_str(&mut out, name);
        let _ = write!(
            out,
            ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": ",
            h.count, h.sum, h.min, h.max
        );
        push_f64(&mut out, h.mean);
        let _ = write!(
            out,
            ", \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            h.p50, h.p95, h.p99
        );
    }
    if !snap.histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"phases\": [");
    for (i, p) in snap.phases.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"name\": ");
        push_json_str(&mut out, &p.name);
        let _ = write!(out, ", \"calls\": {}, \"total_ms\": ", p.calls);
        push_f64(&mut out, p.total_ms);
        out.push('}');
    }
    if !snap.phases.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Renders trace data in the Chrome trace-event JSON format (an object
/// with a `traceEvents` array), loadable in Perfetto and
/// `chrome://tracing`. Wall-clock spans live under pid 0; simulated
/// cycle-domain tracks under pid 1 with 1 cycle rendered as 1 µs.
pub fn render_chrome_trace_json(trace: &TraceData) -> String {
    let mut out = String::with_capacity(4096 + trace.events.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let emit_sep = |out: &mut String, first: &mut bool| {
        if *first {
            *first = false;
        } else {
            out.push_str(",\n");
        }
    };
    for &(pid, name) in &[(0u32, "wall-clock"), (1u32, "simulated-cycles")] {
        emit_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":"
        );
        push_json_str(&mut out, name);
        out.push_str("}}");
    }
    for (pid, tid, name) in &trace.thread_names {
        emit_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
        );
        push_json_str(&mut out, name);
        out.push_str("}}");
    }
    for e in &trace.events {
        emit_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":",
            e.pid, e.tid
        );
        push_json_str(&mut out, &e.name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, &e.cat);
        out.push_str(",\"ts\":");
        push_f64(&mut out, e.ts_us);
        out.push_str(",\"dur\":");
        push_f64(&mut out, e.dur_us);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}
