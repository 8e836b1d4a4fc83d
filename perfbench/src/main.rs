//! The repository's benchmark: drives one named workload through the
//! layers' public entry points, checks every op's simulated outcome
//! against the reference computed at set-up, and prints the metrics as
//! the last line of standard output.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's
//! own spans off. `--trace 1` alternates untraced and traced ops and
//! reports per-layer self times and exact counts instead. `--seconds 0`
//! runs a single op (the smoke mode). See `README.md` beside this crate.

mod trace;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::value::Value;

use trace::{Breakdown, Tracer};
use workloads::{Bench, Counts, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A `*.ms` metric is
/// the self time of the span of that name; a metric a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("hetgraph.generate.ms", "ms"),
    ("hetgraph.generate.ns_per_edge", "ns"),
    ("hetgraph.count_instances.ms", "ms"),
    ("hetgraph.edges", "count"),
    ("hetgraph.instances", "count"),
    ("hgnn.features.ms", "ms"),
    ("hgnn.reference.ms", "ms"),
    ("hgnn.projection.ms", "ms"),
    ("hgnn.materialized.ms", "ms"),
    ("hgnn.ops.flops", "count"),
    ("hgnn.ops.bytes", "bytes"),
    ("nmp.step.ms", "ms"),
    ("nmp.finish.ms", "ms"),
    ("nmp.estimate.ms", "ms"),
    ("nmp.instances", "count"),
    ("nmp.aggregations", "count"),
    ("nmp.reuse_ratio", "ratio"),
    ("nmp.sim_cycles", "cycles"),
    ("nmp.sim_energy_mj", "mJ"),
    ("dramsim.service.ms", "ms"),
    ("dramsim.ns_per_burst", "ns"),
    ("dramsim.bursts", "count"),
    ("dramsim.row_hit_rate", "ratio"),
    ("dramsim.elapsed_cycles", "cycles"),
    ("faultsim.injected", "count"),
    ("faultsim.ecc_corrected", "count"),
    ("faultsim.read_retries", "count"),
    ("faultsim.broadcast_retries", "count"),
    ("faultsim.stall_events", "count"),
    ("checkpoint.snapshot.ms", "ms"),
    ("checkpoint.save.ms", "ms"),
    ("checkpoint.load.ms", "ms"),
    ("checkpoint.restore.ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.save_mb_per_s", "MB/s"),
    ("metanmp.compare.ms", "ms"),
    ("metanmp.memory_analysis.ms", "ms"),
    ("bench.traced_op_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
];

/// Layers of the repository the benchmark does not measure.
const UNMEASURED: [(&str, &str); 5] = [
    (
        "serve",
        "about 0.75 us of host time per simulated query; its simulated-clock outputs are pinned by BENCH_serve.json",
    ),
    (
        "sweepd",
        "multi-process and networked; a closed single-process loop cannot drive it",
    ),
    (
        "experiments.sweep",
        "the sweep runner fans cells over threads, outside the one-op-at-a-time load shape",
    ),
    (
        "telemetry.flush",
        "internal to dramsim and nmp; its cost is inside dramsim.service and nmp.finish",
    ),
    (
        "bench",
        "the older kernel, parallel and serve harnesses; measured by their own binaries",
    ),
];

/// A `--trace 0` run sets up at least this many times, and again until
/// its set-ups took `SETUP_MIN_S` in all; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
/// A traced op reconciles when the layer self times cover its duration
/// to within this share: the rest is benchmark code between calls.
const RECONCILE_PCT: f64 = 5.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("a workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("seconds in 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required: {}", names.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    match run(started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(started: Instant) -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let scratch = scratch_dir(args.workload);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = if args.trace {
        traced_run(&args, &scratch)
    } else {
        untraced_run(&args, &scratch, started)
    };
    remove_scratch(&scratch);
    let result = result?;
    println!("host: {}", render(&host_context()));
    for (layer, why) in UNMEASURED {
        println!("unmeasured: {layer}: {why}");
    }
    println!("{}", render(&result));
    Ok(())
}

/// Checkpoint files live in the checkout, one directory per process.
fn scratch_dir(workload: Workload) -> PathBuf {
    Path::new(".bench_scratch").join(format!("{}-{}", workload.name(), std::process::id()))
}

/// Removes this process's scratch directory, and the parent once no
/// other process uses it.
fn remove_scratch(scratch: &Path) {
    let _ = std::fs::remove_dir_all(scratch);
    if let Some(parent) = scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Outcome of one op against the set-up's reference.
fn verify(outcome: Result<String, String>, reference: &str) -> Result<(), String> {
    match outcome {
        Ok(out) if out == reference => Ok(()),
        Ok(_) => Err("simulated outcome differs from the reference".into()),
        Err(e) => Err(e),
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn untraced_run(args: &Args, scratch: &Path, started: Instant) -> Result<Value, String> {
    let mut setup_s = Vec::new();
    let mut bench = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        // The first set-up counts from process start.
        let t = if setup_s.is_empty() {
            started
        } else {
            Instant::now()
        };
        drop(bench.take());
        let b = Bench::setup(args.workload, args.seed, scratch, &mut Tracer::disabled())?;
        setup_s.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    let mut op_ms = Vec::new();
    let mut op_rss_mb = Vec::new();
    let mut failed = 0;
    let budget = Duration::from_secs_f64(args.seconds);
    let loop_start = Instant::now();
    while op_ms.is_empty() || loop_start.elapsed() < budget {
        obs::reset();
        reset_peak_rss();
        let t = Instant::now();
        let outcome = bench.op();
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        op_rss_mb.push(peak_rss_mb()?);
        if let Err(e) = verify(outcome, bench.reference()) {
            failed += 1;
            eprintln!("op {} failed: {e}", op_ms.len());
        }
    }
    let elapsed = loop_start.elapsed().as_secs_f64();
    let attempted = op_ms.len();
    let values = [
        (attempted - failed) as f64 / elapsed,
        median(&op_ms),
        median(&setup_s),
        median(&op_rss_mb),
    ];
    println!(
        "perfbench {} seed {}: {attempted} ops in {elapsed:.2} s, one at a time",
        args.workload.name(),
        args.seed
    );
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        let note = match *name {
            "op_ms_p50" => {
                let (lo, hi) = op_ms
                    .iter()
                    .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                format!("  (median of {attempted} ops, range {lo:.1} to {hi:.1})")
            }
            "setup_s" => format!("  (median of {} set-ups)", setup_s.len()),
            "peak_rss_mb" => "  (median over ops of the peak during the op)".to_string(),
            _ => String::new(),
        };
        println!("  {name:<12} {value:>12.4} {unit}{note}");
    }
    println!(
        "  {:<12} {:>12.4} ratio  ({failed} of {attempted} ops failed their check)",
        "error_rate",
        failed as f64 / attempted as f64
    );
    let metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v));
    Ok(result(failed == 0, attempted, failed, metrics))
}

fn traced_run(args: &Args, scratch: &Path) -> Result<Value, String> {
    let mut setup_tr = Tracer::new("setup");
    let bench = Bench::setup(args.workload, args.seed, scratch, &mut setup_tr)?;
    let setup = setup_tr.finish();
    let mut untraced_ms = Vec::new();
    let mut traced: Vec<Breakdown> = Vec::new();
    let mut counts: Option<Counts> = None;
    let mut failed = 0;
    let budget = Duration::from_secs_f64(args.seconds);
    let loop_start = Instant::now();
    while untraced_ms.is_empty() || loop_start.elapsed() < budget {
        obs::reset();
        let t = Instant::now();
        let outcome = bench.op();
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = verify(outcome, bench.reference()) {
            failed += 1;
            eprintln!("untraced op {} failed: {e}", untraced_ms.len());
        }

        obs::reset();
        let mut tr = Tracer::new("op");
        let outcome = bench.traced_op(&mut tr);
        let breakdown = tr.finish();
        let check = outcome.and_then(|(out, op_counts)| {
            verify(Ok(out), bench.reference())?;
            if counts.get_or_insert_with(|| op_counts.clone()) != &op_counts {
                return Err("exact counts differ from the first traced op".into());
            }
            if breakdown.unattributed_pct() > RECONCILE_PCT {
                return Err(format!(
                    "layer self times leave {:.1}% of the op unattributed (limit {RECONCILE_PCT}%)",
                    breakdown.unattributed_pct()
                ));
            }
            Ok(())
        });
        if let Err(e) = check {
            failed += 1;
            eprintln!("traced op {} failed: {e}", traced.len() + 1);
        }
        traced.push(breakdown);
    }

    let mut values: BTreeMap<String, f64> = counts
        .unwrap_or_default()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let per_op_median = |get: &dyn Fn(&Breakdown) -> Option<f64>| {
        median(
            &traced
                .iter()
                .map(|b| get(b).unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let layers: BTreeSet<&str> = traced
        .iter()
        .chain([&setup])
        .flat_map(|b| b.self_ms.keys().copied())
        .collect();
    for &layer in &layers {
        // Layers called only while setting up (dataset generation on
        // the sim-* workloads) report their set-up self time.
        let ms = if traced.iter().any(|b| b.self_ms.contains_key(layer)) {
            per_op_median(&|b| b.self_ms.get(layer).copied())
        } else {
            setup.self_ms[layer]
        };
        values.insert(format!("{layer}.ms"), ms);
    }
    let recorded: BTreeSet<&str> = traced
        .iter()
        .flat_map(|b| b.values.keys().copied())
        .collect();
    for name in recorded {
        values.insert(
            name.to_string(),
            per_op_median(&|b| b.values.get(name).copied()),
        );
    }
    let untraced_p50 = median(&untraced_ms);
    let traced_p50 = per_op_median(&|b| Some(b.total_ms));
    let per = |num: &str, den: &str, scale: f64| {
        let (n, d) = (values.get(num).copied(), values.get(den).copied());
        match (n, d) {
            (Some(n), Some(d)) if d > 0.0 => n * scale / d,
            _ => 0.0,
        }
    };
    let derived = [
        (
            "hetgraph.generate.ns_per_edge",
            per("hetgraph.generate.ms", "hetgraph.edges", 1e6),
        ),
        (
            "dramsim.ns_per_burst",
            per("dramsim.service.ms", "dramsim.bursts", 1e6),
        ),
        (
            "checkpoint.save_mb_per_s",
            per("checkpoint.bytes", "checkpoint.save.ms", 1e-3),
        ),
        ("bench.traced_op_ms", traced_p50),
        (
            "bench.trace_overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        ),
        (
            "bench.unattributed_pct",
            per_op_median(&|b| Some(b.unattributed_pct())),
        ),
    ];
    for (name, value) in derived {
        values.insert(name.to_string(), value);
    }

    println!(
        "perfbench {} seed {} (traced): {} untraced + {} traced ops, untraced p50 {untraced_p50:.2} ms, traced p50 {traced_p50:.2} ms",
        args.workload.name(),
        args.seed,
        untraced_ms.len(),
        traced.len()
    );
    println!(
        "  {:<28} {:>12} {:>8}",
        "layer (self time)", "ms", "% of op"
    );
    for layer in &layers {
        let ms = values[&format!("{layer}.ms")];
        let share = 100.0 * ms / traced_p50;
        println!("  {layer:<28} {ms:>12.3} {share:>8.1}");
    }
    println!(
        "  layer self times reconcile with each traced op when they cover it to within {RECONCILE_PCT}%"
    );
    let attempted = untraced_ms.len() + traced.len();
    let metrics = PER_LAYER.iter().map(|&(name, unit)| {
        let value = values.get(name).copied().unwrap_or(0.0);
        (name, unit, value)
    });
    Ok(result(failed == 0, attempted, failed, metrics))
}

fn result<'a>(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: impl Iterator<Item = (&'a str, &'a str, f64)>,
) -> Value {
    let metrics = metrics
        .map(|(name, unit, value)| {
            let entry = Value::Map(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted as u128)),
        ("failed".into(), Value::UInt(failed as u128)),
        ("metrics".into(), Value::Map(metrics)),
    ])
}

fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("a Value tree always renders")
}

/// What a result depends on besides the code: recorded with every run.
fn host_context() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let backend = hgnn::tensor::kernels::active_backend().name();
    let source = match std::env::var("METANMP_KERNELS") {
        Ok(v) => format!("METANMP_KERNELS={v}"),
        Err(_) => "detected".into(),
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Map(vec![
        ("nproc".into(), Value::UInt(nproc as u128)),
        (
            "dramsim_threads".into(),
            Value::UInt(dramsim::parallel::threads() as u128),
        ),
        ("kernel_backend".into(), Value::Str(backend.into())),
        ("kernel_backend_source".into(), Value::Str(source)),
        ("build_profile".into(), Value::Str(profile.into())),
        ("telemetry".into(), Value::Bool(obs::is_enabled())),
    ])
}

/// Lowers the process's peak-RSS mark to its current RSS, so the next
/// reading is the peak of one op. Best effort: where the kernel refuses,
/// readings stay the peak since process start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn names(v: &Value) -> Vec<(String, Option<String>)> {
        v.as_array()
            .expect("a list")
            .iter()
            .map(|e| {
                let name = e["name"].as_str().expect("a name").to_string();
                let unit = e.as_map().and_then(|m| {
                    m.iter()
                        .find(|(k, _)| k == "unit")
                        .and_then(|(_, u)| u.as_str().map(String::from))
                });
                (name, unit)
            })
            .collect()
    }

    #[test]
    fn names_are_valid_and_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<String> = names(&spec["workloads"]).into_iter().map(|n| n.0).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        for (section, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = names(&spec[section]);
            let ours: Vec<(String, Option<String>)> = ours
                .iter()
                .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
                .collect();
            assert_eq!(declared, ours, "{section} differs from BENCHMARK.json");
        }

        let mut seen = BTreeSet::new();
        let all = ours
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in all {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload sim-clean --seed 7 --seconds 0 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::SimClean, 7, 0.0, true)
        );
        for bad in [
            "--workload nope --seed 1",
            "--workload sim-clean",
            "--workload sim-clean --seed -1",
            "--workload sim-clean --seed 1 --trace 2",
            "--workload sim-clean --seed 1 --seconds",
            "--workload sim-clean --seed 1 --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad} accepted");
        }
    }

    /// The one-op smoke mode of every workload: set up, then one
    /// untraced and one traced op, each passing its correctness check.
    /// One test, not four: ops reset the process-wide telemetry.
    #[test]
    fn every_workload_passes_one_op() {
        for w in Workload::ALL {
            let scratch = scratch_dir(w);
            std::fs::create_dir_all(&scratch).unwrap();
            let bench = Bench::setup(w, 1, &scratch, &mut Tracer::disabled()).unwrap();
            obs::reset();
            verify(bench.op(), bench.reference()).unwrap();
            obs::reset();
            let mut tr = Tracer::new("op");
            let (out, counts) = bench.traced_op(&mut tr).unwrap();
            let breakdown = tr.finish();
            verify(Ok(out), bench.reference()).unwrap();
            assert!(
                breakdown.unattributed_pct() <= RECONCILE_PCT,
                "{}",
                w.name()
            );
            assert!(counts["nmp.instances"] > 0.0);
            for (name, _) in PER_LAYER {
                if let Some(layer) = name.strip_suffix(".ms") {
                    assert!(
                        breakdown.self_ms.get(layer).is_none_or(|&ms| ms >= 0.0),
                        "{name} negative on {}",
                        w.name()
                    );
                }
            }
            remove_scratch(&scratch);
        }
    }
}
