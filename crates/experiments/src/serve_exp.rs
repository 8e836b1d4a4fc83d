//! The `serve` experiment: online-inference serving under load.
//!
//! Calibrates one [`serve::ServeWorkload`] (IMDB @ 0.02, MAGNN,
//! hidden 16 — the same configuration as the `faults` sweep), then
//! runs one serving simulation per offered-load point plus one faulted
//! point, each as a journaled sweep cell fanned out under `--jobs`.
//! The load points are fractions of the cache-cold capacity estimate,
//! so the sweep traces the tail-latency-vs-throughput curve from
//! comfortable load into overload.
//!
//! Outputs: `results/serve.md`/`serve_classes.md` tables and a
//! deterministic `results/serve.json` — every value lives in the
//! simulated clock domain, so artifacts are byte-identical for one
//! seed at any `--jobs` value.

use hetgraph::datasets::DatasetId;
use hgnn::ModelKind;
use metanmp::FaultConfig;
use serde::Serialize;
use serve::{AdmissionConfig, PoissonArrivals, Scenario, ServeConfig, ServeReport, ServeWorkload};

use crate::common::{Ctx, ExpResult, ResultExt, TableWriter};
use crate::sweep::{CellSpec, SweepRunner};

const DATASET: DatasetId = DatasetId::Imdb;
const SCALE: f64 = 0.02;
const HIDDEN: usize = 16;
const QUERIES: u32 = 3000;
const SKEW: f64 = 2.0;
const CACHE_BYTES: usize = 1 << 20;
const SLOWDOWN: f64 = 8.0;

/// Offered load as fractions of the *cache-cold* capacity estimate.
/// The reuse cache lifts effective capacity to roughly 2–4× the cold
/// estimate on this workload, so the grid spans comfortable load
/// (1×), the knee (2×), and deep saturation (4×, 8×) — the classic
/// tail-vs-throughput curve.
const LOAD_FRACTIONS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
/// The faulted point runs at this load fraction with two DIMMs
/// degraded by permanently stalled ranks (2 ranks/DIMM → low 4 bits).
const FAULT_FRACTION: f64 = 2.0;
const FAULT_MASK: u64 = 0b1111;

/// Everything that determines one cell's result.
#[derive(Serialize)]
struct CellCfg {
    dataset: DatasetId,
    scale_bits: u64,
    hidden: u64,
    seed: u64,
    queries: u32,
    skew_bits: u64,
    cache_bytes: u64,
    slowdown_bits: u64,
    rate_bits: u64,
    stalled_rank_mask: u64,
}

fn cell_hash(cx: &Ctx, rate: f64, mask: u64) -> u64 {
    checkpoint::config_hash(&CellCfg {
        dataset: DATASET,
        scale_bits: SCALE.to_bits(),
        hidden: HIDDEN as u64,
        seed: cx.seed,
        queries: QUERIES,
        skew_bits: SKEW.to_bits(),
        cache_bytes: CACHE_BYTES as u64,
        slowdown_bits: SLOWDOWN.to_bits(),
        rate_bits: rate.to_bits(),
        stalled_rank_mask: mask,
    })
}

#[derive(Serialize)]
struct SweepCfg {
    dataset: DatasetId,
    scale_bits: u64,
    hidden: u64,
    seed: u64,
    queries: u32,
    fraction_bits: Vec<u64>,
    fault_fraction_bits: u64,
    fault_mask: u64,
}

fn sweep_hash(cx: &Ctx) -> u64 {
    checkpoint::config_hash(&SweepCfg {
        dataset: DATASET,
        scale_bits: SCALE.to_bits(),
        hidden: HIDDEN as u64,
        seed: cx.seed,
        queries: QUERIES,
        fraction_bits: LOAD_FRACTIONS.iter().map(|f| f.to_bits()).collect(),
        fault_fraction_bits: FAULT_FRACTION.to_bits(),
        fault_mask: FAULT_MASK,
    })
}

/// One sweep point of `results/serve.json`.
#[derive(Serialize)]
struct JsonRow {
    label: String,
    load_fraction: f64,
    stalled_rank_mask: u64,
    report: ServeReport,
}

#[derive(Serialize)]
struct JsonDoc {
    dataset: String,
    scale: f64,
    model: String,
    hidden_dim: usize,
    seed: u64,
    queries: u32,
    capacity_rate_per_ktick: f64,
    mean_query_ticks: f64,
    dimms: usize,
    metapaths: Vec<String>,
    rows: Vec<JsonRow>,
}

fn config_for(cx: &Ctx, rate: f64, mask: u64) -> ServeConfig {
    ServeConfig {
        dataset: DATASET,
        scale: SCALE,
        model: ModelKind::Magnn,
        hidden_dim: HIDDEN,
        seed: cx.seed,
        arrivals: PoissonArrivals {
            rate_per_ktick: rate,
            queries: QUERIES,
            popularity_skew: SKEW,
        },
        classes: serve::default_classes(),
        cache_bytes: CACHE_BYTES,
        faults: FaultConfig {
            seed: cx.seed,
            stalled_rank_mask: mask,
            ..FaultConfig::off()
        },
        stalled_dimm_slowdown: SLOWDOWN,
        admission: None,
        scenario: Scenario::empty(),
    }
}

/// Runs the serving sweep and writes `results/serve.json`.
///
/// The workload (dataset generation + one cycle-accurate calibration
/// epoch) is built once up front and shared immutably by every cell;
/// cells themselves are single-threaded serving runs, so `--jobs N`
/// parallelism comes entirely from [`SweepRunner::cells`] and results
/// stay byte-identical at any worker count.
pub fn serve_exp(cx: &Ctx) -> ExpResult {
    let workload =
        ServeWorkload::build(&config_for(cx, 1.0, 0)).ctx("serve: building workload model")?;
    let capacity = workload.dimms() as f64 * 1024.0 / workload.mean_query_ticks();

    // Cell grid in canonical order: load points, then the faulted one.
    let mut defs: Vec<(String, f64, u64)> = LOAD_FRACTIONS
        .iter()
        .map(|&f| (format!("load/{f}"), f, 0u64))
        .collect();
    defs.push((
        format!("faulted/{FAULT_FRACTION}"),
        FAULT_FRACTION,
        FAULT_MASK,
    ));

    let mut runner = SweepRunner::open(cx, "serve", sweep_hash(cx))?;
    let specs: Vec<CellSpec<'_, ServeReport>> = defs
        .iter()
        .map(|(key, fraction, mask)| {
            let rate = fraction * capacity;
            let (key, mask) = (key.clone(), *mask);
            let workload = &workload;
            CellSpec {
                key,
                hash: cell_hash(cx, rate, mask),
                run: Box::new(move || {
                    serve::simulate(&config_for(cx, rate, mask), workload)
                        .ctx("serve: serving simulation")
                }),
            }
        })
        .collect();
    let outs = runner.cells(cx.jobs, specs)?;

    // ---- Tail-latency vs throughput table ------------------------
    let mut t = TableWriter::new(
        "serve",
        "Serving — tail latency vs offered load (IMDB@0.02, MAGNN, 3000 queries)",
        &[
            "Point",
            "Offered/ktick",
            "Achieved/ktick",
            "p50",
            "p99",
            "p999",
            "Cache hit",
            "Mean batch",
            "Stalled DIMMs",
        ],
    );
    for ((label, fraction, _), r) in defs.iter().zip(&outs) {
        t.row(vec![
            label.clone(),
            format!("{:.2}", r.offered_rate_per_ktick),
            format!("{:.2}", r.achieved_rate_per_ktick),
            r.latency.p50_ticks.to_string(),
            r.latency.p99_ticks.to_string(),
            r.latency.p999_ticks.to_string(),
            format!("{:.1}%", r.cache.hit_rate * 100.0),
            format!("{:.1}", r.batches.mean_size),
            r.faults.stalled_dimms.to_string(),
        ]);
        let _ = fraction;
    }
    t.note("Latency in NMP ticks (p50/p99/p999 from log2-bucketed histograms, ≤2x bucket error). The faulted point serves the same load with two DIMMs degraded 8x by stalled ranks: queries complete, the tail absorbs the damage.");
    t.finish()?;

    // ---- Per-class QoS table (deepest healthy overload point) ----
    let stress = &outs[LOAD_FRACTIONS.len() - 1];
    let mut t = TableWriter::new(
        "serve_classes",
        "Serving — per-class QoS at the deepest healthy overload point",
        &[
            "Class",
            "Priority",
            "Queries",
            "p99",
            "Target p99",
            "Attained",
        ],
    );
    for c in &stress.classes {
        t.row(vec![
            c.name.clone(),
            c.priority.to_string(),
            c.queries.to_string(),
            c.latency.p99_ticks.to_string(),
            c.target_p99_ticks.to_string(),
            if c.attained { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.note("Priority scheduling protects the interactive class: its small batches dispatch ahead of standard/bulk work even as total load passes capacity.");
    t.finish()?;

    // ---- Deterministic JSON artifact -----------------------------
    let rows = defs
        .iter()
        .zip(outs)
        .map(|((label, fraction, mask), report)| JsonRow {
            label: label.clone(),
            load_fraction: *fraction,
            stalled_rank_mask: *mask,
            report,
        })
        .collect();
    let doc = JsonDoc {
        dataset: DATASET.abbrev().to_string(),
        scale: SCALE,
        model: "MAGNN".to_string(),
        hidden_dim: HIDDEN,
        seed: cx.seed,
        queries: QUERIES,
        capacity_rate_per_ktick: capacity,
        mean_query_ticks: workload.mean_query_ticks(),
        dimms: workload.dimms(),
        metapaths: workload
            .path_names()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    };
    let json = serde_json::to_string_pretty(&doc).ctx("serve: serializing results")?;
    std::fs::create_dir_all("results").ctx("serve: creating results/")?;
    checkpoint::atomic_write_str(std::path::Path::new("results/serve.json"), &json)
        .ctx("serve: writing results/serve.json")?;
    eprintln!("serve: deterministic sweep written to results/serve.json");
    Ok(())
}

// ---------------------------------------------------------------------
// The `overload` experiment: scripted chaos under admission control.
// ---------------------------------------------------------------------

/// Offered load of the overload sweep as a fraction of cache-cold
/// capacity (the spike multiplies it further inside its window).
const OVERLOAD_FRACTION: f64 = 4.0;
const OVERLOAD_QUERIES: u32 = 6000;

/// The scripted chaos scenario: a 3× spike over the middle of the
/// arrival span, a stall window covering the ranks of DIMMs 0–1
/// (2 ranks/DIMM → mask 0x0f), and a mid-run reuse-cache flush.
const OVERLOAD_SCENARIO: &str = "CHS1\n\
    spike 4000 12000 3.0\n\
    stall 3000 0x0f\n\
    unstall 20000 0x0f\n\
    flush 8000\n";

#[derive(Serialize)]
struct OverloadCellCfg {
    dataset: DatasetId,
    scale_bits: u64,
    hidden: u64,
    seed: u64,
    queries: u32,
    skew_bits: u64,
    cache_bytes: u64,
    slowdown_bits: u64,
    rate_bits: u64,
    admission: bool,
    scenario: String,
}

fn overload_cell_hash(cx: &Ctx, rate: f64, admission: bool, scenario: &str) -> u64 {
    checkpoint::config_hash(&OverloadCellCfg {
        dataset: DATASET,
        scale_bits: SCALE.to_bits(),
        hidden: HIDDEN as u64,
        seed: cx.seed,
        queries: OVERLOAD_QUERIES,
        skew_bits: SKEW.to_bits(),
        cache_bytes: CACHE_BYTES as u64,
        slowdown_bits: SLOWDOWN.to_bits(),
        rate_bits: rate.to_bits(),
        admission,
        scenario: scenario.to_string(),
    })
}

/// One cell of `results/serve_overload.json`.
#[derive(Serialize)]
struct OverloadRow {
    label: String,
    admission: bool,
    scripted: bool,
    report: ServeReport,
}

#[derive(Serialize)]
struct OverloadDoc {
    dataset: String,
    scale: f64,
    model: String,
    hidden_dim: usize,
    seed: u64,
    queries: u32,
    capacity_rate_per_ktick: f64,
    offered_rate_per_ktick: f64,
    scenario: String,
    rows: Vec<OverloadRow>,
}

fn overload_config(
    cx: &Ctx,
    rate: f64,
    capacity: f64,
    admission: bool,
    scripted: bool,
) -> ServeConfig {
    let mut c = config_for(cx, rate, 0);
    c.arrivals = PoissonArrivals {
        rate_per_ktick: rate,
        queries: OVERLOAD_QUERIES,
        popularity_skew: SKEW,
    };
    if admission {
        let mut policy = AdmissionConfig::for_capacity(capacity, 8);
        // Batches under the 8x stall slowdown run for thousands of
        // ticks, so a stalled DIMM only completes a couple of batches
        // inside the stall window — trip on two consecutive slow
        // completions rather than the default three.
        policy.breaker_trip_after = 2;
        c.admission = Some(policy);
    }
    if scripted {
        c.scenario = Scenario::parse(OVERLOAD_SCENARIO).expect("overload scenario parses");
    }
    c
}

/// Runs the overload sweep — scripted spike + fault chaos, admission
/// on/off — and writes `results/serve_overload.{json,md}`: goodput,
/// structured shed/brownout/reject tallies, breaker activity, and
/// per-class p99 attainment under attack.
pub fn overload_exp(cx: &Ctx) -> ExpResult {
    let workload =
        ServeWorkload::build(&config_for(cx, 1.0, 0)).ctx("overload: building workload model")?;
    let capacity = workload.dimms() as f64 * 1024.0 / workload.mean_query_ticks();
    let rate = OVERLOAD_FRACTION * capacity;
    let dimms = workload.dimms();

    // (label, admission?, scripted chaos?) in canonical order.
    let defs: [(&str, bool, bool); 3] = [
        ("calm/protected", true, false),
        ("chaos/protected", true, true),
        ("chaos/unprotected", false, true),
    ];

    let mut runner = SweepRunner::open(cx, "serve_overload", overload_sweep_hash(cx, rate))?;
    let specs: Vec<CellSpec<'_, ServeReport>> = defs
        .iter()
        .map(|&(label, admission, scripted)| {
            let workload = &workload;
            CellSpec {
                key: label.to_string(),
                hash: overload_cell_hash(
                    cx,
                    rate,
                    admission,
                    if scripted { OVERLOAD_SCENARIO } else { "" },
                ),
                run: Box::new(move || {
                    serve::simulate(
                        &overload_config(cx, rate, capacity, admission, scripted),
                        workload,
                    )
                    .ctx("overload: serving simulation")
                }),
            }
        })
        .collect();
    let outs = runner.cells(cx.jobs, specs)?;

    // ---- Goodput / shed / breaker table --------------------------
    let mut t = TableWriter::new(
        "serve_overload",
        "Serving under chaos — goodput and shed accounting (4x cold capacity, 3x spike, half-fleet stall window)",
        &[
            "Point",
            "Arrived",
            "Served",
            "Goodput/ktick",
            "Shed qd/rl/ddl",
            "Brownout",
            "Gate closes",
            "Breaker trips",
            "Open ticks",
            "p99",
        ],
    );
    for ((label, _, _), r) in defs.iter().zip(&outs) {
        t.row(vec![
            label.to_string(),
            r.arrived.to_string(),
            r.queries.to_string(),
            format!("{:.2}", r.achieved_rate_per_ktick),
            format!(
                "{}/{}/{}",
                r.admission.shed_queue_depth,
                r.admission.shed_rate_limit,
                r.admission.shed_deadline
            ),
            r.admission.brownouts.to_string(),
            r.admission.gate_closures.to_string(),
            r.breakers.trips.to_string(),
            r.breakers.open_ticks.to_string(),
            r.latency.p99_ticks.to_string(),
        ]);
    }
    t.note("Goodput is served queries per 1024 ticks over the makespan; cache-cold capacity is the admission token-refill rate. Brownouts answer root-cache-resident queries at degraded quality instead of rejecting. The unprotected point never drops, so its queue — and tail — grow without bound.");
    t.finish()?;

    // ---- Per-class attainment under attack -----------------------
    let protected = &outs[1];
    let unprotected = &outs[2];
    let mut t = TableWriter::new(
        "serve_overload_classes",
        "Serving under chaos — per-class p99 attainment under attack",
        &[
            "Class",
            "Target p99",
            "Protected p99",
            "Attained",
            "Unprotected p99",
            "Attained",
        ],
    );
    for (p, u) in protected.classes.iter().zip(&unprotected.classes) {
        t.row(vec![
            p.name.clone(),
            p.target_p99_ticks.to_string(),
            p.latency.p99_ticks.to_string(),
            if p.attained { "yes" } else { "NO" }.to_string(),
            u.latency.p99_ticks.to_string(),
            if u.attained { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.note("Protected = admission control + deadline shedding + per-DIMM circuit breakers under the scripted chaos scenario; unprotected serves the identical arrival schedule with no overload protection.");
    t.finish()?;

    // ---- Deterministic JSON artifact -----------------------------
    let rows = defs
        .iter()
        .zip(outs)
        .map(|(&(label, admission, scripted), report)| OverloadRow {
            label: label.to_string(),
            admission,
            scripted,
            report,
        })
        .collect();
    let doc = OverloadDoc {
        dataset: DATASET.abbrev().to_string(),
        scale: SCALE,
        model: "MAGNN".to_string(),
        hidden_dim: HIDDEN,
        seed: cx.seed,
        queries: OVERLOAD_QUERIES,
        capacity_rate_per_ktick: capacity,
        offered_rate_per_ktick: rate,
        scenario: OVERLOAD_SCENARIO.to_string(),
        rows,
    };
    let json = serde_json::to_string_pretty(&doc).ctx("overload: serializing results")?;
    std::fs::create_dir_all("results").ctx("overload: creating results/")?;
    checkpoint::atomic_write_str(std::path::Path::new("results/serve_overload.json"), &json)
        .ctx("overload: writing results/serve_overload.json")?;
    eprintln!("overload: deterministic chaos sweep written to results/serve_overload.json");
    let _ = dimms;
    Ok(())
}

#[derive(Serialize)]
struct OverloadSweepCfg {
    dataset: DatasetId,
    scale_bits: u64,
    hidden: u64,
    seed: u64,
    queries: u32,
    rate_bits: u64,
    scenario: String,
}

fn overload_sweep_hash(cx: &Ctx, rate: f64) -> u64 {
    checkpoint::config_hash(&OverloadSweepCfg {
        dataset: DATASET,
        scale_bits: SCALE.to_bits(),
        hidden: HIDDEN as u64,
        seed: cx.seed,
        queries: OVERLOAD_QUERIES,
        rate_bits: rate.to_bits(),
        scenario: OVERLOAD_SCENARIO.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_cell_hashes_distinguish_points() {
        let cx = Ctx::new(42, None, 1);
        let a = overload_cell_hash(&cx, 10.0, true, OVERLOAD_SCENARIO);
        let b = overload_cell_hash(&cx, 10.0, false, OVERLOAD_SCENARIO);
        let c = overload_cell_hash(&cx, 10.0, true, "");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn overload_scenario_is_valid() {
        let s = Scenario::parse(OVERLOAD_SCENARIO).expect("scenario parses");
        assert_eq!(s.spike_windows().len(), 1);
        assert_eq!(s.timeline().len(), 3);
    }

    #[test]
    fn cell_hashes_distinguish_points() {
        let cx = Ctx::new(42, None, 1);
        let a = cell_hash(&cx, 10.0, 0);
        let b = cell_hash(&cx, 20.0, 0);
        let c = cell_hash(&cx, 10.0, FAULT_MASK);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
