//! Integration tests for the registry: span nesting, phase
//! aggregation, and exporter output validated by an independent JSON
//! parser (`serde_json`).
//!
//! The registry is process-global, so everything runs inside a single
//! `#[test]` with `reset()` between scenarios — parallel test threads
//! would otherwise interleave their metrics.

use telemetry as obs;

#[test]
fn registry_spans_and_exporters() {
    span_nesting_and_ordering();
    phase_totals_aggregate_across_calls();
    sim_slices_land_on_their_own_tracks();
    snapshot_json_round_trips_through_serde();
    chrome_trace_json_round_trips_through_serde();
    checkpoint_merge_restores_metrics();
    scoped_sinks_capture_and_merge_in_order();
}

fn scoped_sinks_capture_and_merge_in_order() {
    obs::reset();
    obs::counter_add("sink.counter", 1);

    // Worker-style capture: nothing lands globally until the merge.
    let ((), a) = obs::scoped_sink(|| {
        obs::counter_add("sink.counter", 10);
        obs::gauge_set("sink.gauge", 1.0);
        obs::hist_record("sink.hist", 8);
        obs::sim_slice("sink.track", "w", 0, 4);
    });
    let ((), b) = obs::scoped_sink(|| {
        obs::counter_add("sink.counter", 100);
        obs::gauge_set("sink.gauge", 2.0);
        obs::hist_record("sink.hist", 16);
    });
    let snap = obs::snapshot();
    assert_eq!(snap.counter("sink.counter"), Some(1));
    assert_eq!(snap.gauge("sink.gauge"), None);

    // Canonical-order merge: counters add, gauges last-merged-wins.
    obs::merge_sink(a);
    obs::merge_sink(b);
    let snap = obs::snapshot();
    assert_eq!(snap.counter("sink.counter"), Some(111));
    assert_eq!(snap.gauge("sink.gauge"), Some(2.0));
    assert_eq!(snap.histogram("sink.hist").unwrap().count, 2);
    let trace = obs::trace_data();
    assert!(
        trace
            .thread_names
            .iter()
            .any(|(_, _, name)| name == "sink.track"),
        "sim tracks are re-keyed into the destination registry"
    );

    // The deterministic exporter strips the wall-clock phases section.
    {
        let _s = obs::span("sink.phase", "test");
    }
    let det: serde_json::Value =
        serde_json::from_str(&obs::deterministic_snapshot_json()).expect("valid JSON");
    assert_eq!(det["phases"].as_array().map(Vec::len), Some(0));
    assert!(det["counters"]["sink.counter"].as_u64().is_some());
}

fn checkpoint_merge_restores_metrics() {
    obs::reset();
    obs::counter_add("ckpt.counter", 41);
    obs::gauge_set("ckpt.gauge", 1.25);
    for v in [1u64, 7, 7, 4096] {
        obs::hist_record("ckpt.hist", v);
    }
    {
        let _s = obs::span("ckpt.phase", "test");
    }
    let image = obs::checkpoint_json();
    let before = obs::snapshot();

    // A fresh process (registry) merges the image and continues.
    obs::reset();
    obs::counter_add("ckpt.counter", 1);
    obs::gauge_set("ckpt.gauge", 9.0); // live value must win
    obs::merge_checkpoint_json(&image).expect("image merges");
    let after = obs::snapshot();
    assert_eq!(after.counter("ckpt.counter"), Some(42));
    assert_eq!(after.gauge("ckpt.gauge"), Some(9.0));
    let (h0, h1) = (
        before.histogram("ckpt.hist").unwrap(),
        after.histogram("ckpt.hist").unwrap(),
    );
    assert_eq!(h0, h1, "histogram survives losslessly");
    let phase = after
        .phases
        .iter()
        .find(|p| p.name == "ckpt.phase")
        .expect("phase totals carried over");
    assert_eq!(phase.calls, 1);

    // Garbage is rejected without touching the registry.
    assert!(obs::merge_checkpoint_json("not json").is_err());
    assert_eq!(obs::snapshot(), after);
}

fn span_nesting_and_ordering() {
    obs::reset();
    {
        let _outer = obs::span("outer", "test");
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _inner = obs::span("inner", "test");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let trace = obs::trace_data();
    let inner = trace
        .events
        .iter()
        .find(|e| e.name == "inner")
        .expect("inner span recorded");
    let outer = trace
        .events
        .iter()
        .find(|e| e.name == "outer")
        .expect("outer span recorded");
    // Guards drop inner-first, so the inner event is recorded first.
    let inner_idx = trace.events.iter().position(|e| e.name == "inner").unwrap();
    let outer_idx = trace.events.iter().position(|e| e.name == "outer").unwrap();
    assert!(inner_idx < outer_idx, "inner must be recorded before outer");
    // The inner interval is contained in the outer interval.
    assert!(outer.ts_us <= inner.ts_us, "outer starts before inner");
    assert!(
        inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us,
        "inner ends before outer ({} + {} vs {} + {})",
        inner.ts_us,
        inner.dur_us,
        outer.ts_us,
        outer.dur_us
    );
    assert!(outer.dur_us >= inner.dur_us);
    // Same thread → same tid; both on the wall-clock pid.
    assert_eq!(inner.tid, outer.tid);
    assert_eq!(inner.pid, outer.pid);
}

fn phase_totals_aggregate_across_calls() {
    obs::reset();
    for _ in 0..3 {
        let _s = obs::span("phase.a", "test");
    }
    {
        let _s = obs::span("phase.b", "test");
    }
    let snap = obs::snapshot();
    let names: Vec<&str> = snap.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["phase.a", "phase.b"], "phases sorted by name");
    assert_eq!(snap.phases[0].calls, 3);
    assert_eq!(snap.phases[1].calls, 1);
    assert!(snap.phases[0].total_ms >= 0.0);
}

fn sim_slices_land_on_their_own_tracks() {
    obs::reset();
    obs::sim_slice("rank 0", "compute", 100, 50);
    obs::sim_slice("rank 1", "compute", 100, 80);
    obs::sim_slice("rank 0", "compute", 200, 10);
    let trace = obs::trace_data();
    let sim: Vec<_> = trace.events.iter().filter(|e| e.cat == "sim").collect();
    assert_eq!(sim.len(), 3);
    // 1 simulated cycle = 1 µs on the trace timeline.
    assert_eq!(sim[0].ts_us, 100.0);
    assert_eq!(sim[0].dur_us, 50.0);
    // Two distinct tracks → two distinct tids, both named.
    let tids: std::collections::BTreeSet<u64> = sim.iter().map(|e| e.tid).collect();
    assert_eq!(tids.len(), 2);
    let named: std::collections::BTreeSet<&str> = trace
        .thread_names
        .iter()
        .map(|(_, _, n)| n.as_str())
        .collect();
    assert!(named.contains("rank 0") && named.contains("rank 1"));
}

fn snapshot_json_round_trips_through_serde() {
    obs::reset();
    obs::counter_add("test.counter", 7);
    obs::gauge_set("test.gauge", 2.5);
    for v in [1u64, 2, 3, 100, 1000] {
        obs::hist_record("test.hist", v);
    }
    let json = obs::snapshot_json();
    let v: serde_json::Value = serde_json::from_str(&json).expect("snapshot is valid JSON");
    assert_eq!(v["counters"]["test.counter"].as_u64(), Some(7));
    assert_eq!(v["gauges"]["test.gauge"].as_f64(), Some(2.5));
    let h = &v["histograms"]["test.hist"];
    assert_eq!(h["count"].as_u64(), Some(5));
    assert_eq!(h["min"].as_u64(), Some(1));
    assert_eq!(h["max"].as_u64(), Some(1000));
    for p in ["p50", "p95", "p99"] {
        assert!(h[p].is_number(), "{p} present and numeric");
    }
}

fn chrome_trace_json_round_trips_through_serde() {
    obs::reset();
    {
        let _s = obs::span("trace me \"quoted\" \\ back\u{1}", "test");
    }
    obs::sim_slice("rank 0", "slice", 5, 9);
    let json = obs::chrome_trace_json();
    let v: serde_json::Value = serde_json::from_str(&json).expect("trace is valid JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    // Metadata events name both processes.
    assert!(events.iter().any(|e| {
        e["ph"] == "M" && e["name"] == "process_name" && e["args"]["name"] == "wall-clock"
    }));
    assert!(events.iter().any(|e| {
        e["ph"] == "M" && e["name"] == "process_name" && e["args"]["name"] == "simulated-cycles"
    }));
    // The escaped span name survives the round trip verbatim.
    assert!(events
        .iter()
        .any(|e| { e["ph"] == "X" && e["name"] == "trace me \"quoted\" \\ back\u{1}" }));
    // Every X event carries the required complete-event fields.
    for e in events.iter().filter(|e| e["ph"] == "X") {
        for field in ["pid", "tid", "ts", "dur"] {
            assert!(e[field].is_number(), "X event missing {field}: {e:?}");
        }
        assert!(e["name"].is_string() && e["cat"].is_string());
    }
}
