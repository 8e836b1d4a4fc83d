//! Overload-resilience acceptance: under a scripted chaos scenario
//! (load spike + rank-stall window), admission control must keep the
//! accepted-query p99 of every class within its target while goodput
//! stays at ≥80% of cache-cold capacity — and the same run with
//! admission disabled must demonstrably breach the targets. All
//! artifacts replay byte-identically.

use faultsim::Scenario;
use serve::{AdmissionConfig, ClassSpec, PoissonArrivals, ServeConfig, ServeWorkload};

/// The scripted chaos scenario: a 3× load spike over the middle of
/// the arrival span, overlapping a window where the ranks of DIMMs
/// 0–1 stall (2 ranks per DIMM → mask 0x0f) and a mid-run cache
/// flush.
const SCENARIO: &str = "CHS1\n\
    spike 5000 15000 3.0\n\
    stall 6000 0x0f\n\
    unstall 20000 0x0f\n\
    flush 9000\n";

fn workload() -> &'static ServeWorkload {
    use std::sync::OnceLock;
    static W: OnceLock<ServeWorkload> = OnceLock::new();
    W.get_or_init(|| ServeWorkload::build(&ServeConfig::smoke_test()).expect("build workload"))
}

/// Cache-cold system capacity in queries per 1024 ticks.
fn cold_capacity() -> f64 {
    let w = workload();
    w.dimms() as f64 * 1024.0 / w.mean_query_ticks()
}

/// One real-time class with a log2-bucket-aligned p99 target: the
/// histogram reports bucket upper bounds, so 65_535 (= 2^16 − 1) is
/// exactly representable and the admission cutoff equals the target.
fn config(protected: bool) -> ServeConfig {
    let w = workload();
    let mut c = ServeConfig::smoke_test();
    c.seed = 23;
    c.classes = vec![ClassSpec {
        name: "rt",
        priority: 1,
        share: 1.0,
        target_p99_ticks: 65_535,
        max_batch: 1,
        max_wait_ticks: 1,
    }];
    // 6× cold capacity (≈5× the warm-cache effective capacity at the
    // observed hit rate), tripling to 18× inside the spike window —
    // deep overload for the whole arrival span.
    c.arrivals = PoissonArrivals {
        rate_per_ktick: 6.0 * cold_capacity(),
        queries: 10_000,
        popularity_skew: 2.0,
    };
    c.scenario = Scenario::parse(SCENARIO).expect("valid scenario");
    if protected {
        c.admission = Some(AdmissionConfig::for_capacity(cold_capacity(), w.dimms()));
    }
    c
}

#[test]
fn admission_attains_targets_and_keeps_goodput_under_chaos() {
    let r = serve::simulate(&config(true), workload()).expect("protected run");
    let breach = serve::simulate(&config(false), workload()).expect("unprotected run");

    // The scenario actually ran: spike shaped arrivals, stalls and the
    // flush applied, breakers saw the slow DIMMs.
    assert_eq!(r.chaos.spike_windows, 1);
    assert_eq!(r.chaos.rank_stall_changes, 2);
    assert_eq!(r.chaos.cache_flushes, 1);
    assert_eq!(r.faults.stalled_dimms, 2);
    assert!(r.admission.enabled && r.breakers.enabled);

    // Every class's accepted-query p99 meets its target under attack.
    for c in &r.classes {
        assert!(
            c.attained,
            "class {} breached under protection: p99 {} > target {}",
            c.name, c.latency.p99_ticks, c.target_p99_ticks
        );
    }

    // Goodput stays at ≥80% of cache-cold capacity.
    let goodput_frac = r.achieved_rate_per_ktick / cold_capacity();
    assert!(
        goodput_frac >= 0.8,
        "goodput {:.1}% of cold capacity (achieved {:.2}, capacity {:.2})",
        100.0 * goodput_frac,
        r.achieved_rate_per_ktick,
        cold_capacity()
    );

    // Overload really was shed somewhere, with structured accounting.
    let dropped = r.arrived - r.queries;
    assert!(dropped > 0, "6–18× overload must shed or brown out");
    assert_eq!(
        r.admission.shed_queue_depth
            + r.admission.shed_rate_limit
            + r.admission.shed_deadline
            + r.admission.brownouts,
        dropped,
        "every drop is accounted for"
    );

    // The same scenario without admission breaches the target.
    assert_eq!(breach.arrived, breach.queries, "unprotected never drops");
    assert!(
        breach.classes.iter().any(|c| !c.attained),
        "unprotected run must breach: p99 {} vs target {}",
        breach.classes[0].latency.p99_ticks,
        breach.classes[0].target_p99_ticks
    );
    assert!(
        breach.latency.p99_ticks > r.latency.p99_ticks,
        "protection must cut the tail ({} vs {})",
        r.latency.p99_ticks,
        breach.latency.p99_ticks
    );
}

#[test]
fn chaos_artifacts_replay_byte_identically() {
    for protected in [true, false] {
        let a = serve::simulate(&config(protected), workload()).expect("first run");
        let b = serve::simulate(&config(protected), workload()).expect("second run");
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap(),
            "protected={protected} replay diverged"
        );
    }
}
