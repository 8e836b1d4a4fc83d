//! Kernel benchmark: wall-time trajectory of the SIMD/cache-blocked
//! linear-algebra hot paths, written to `BENCH_kernels.json`.
//!
//! Four named hot paths are timed under the forced-scalar backend and
//! the auto-selected backend (`hgnn::tensor::kernels::active_backend`),
//! and each row records the **speedup ratio** between the two on the
//! same host — a host-independent number suitable for gating, unlike
//! absolute wall-clock. Every path also computes a result fingerprint
//! that must be bit-identical across backends and across repeat runs
//! (the kernels are bit-identical by construction); any divergence
//! exits non-zero, so the trajectory doubles as a determinism check.
//!
//! Modes:
//!
//! * (default) — measure, print, write `BENCH_kernels.json`.
//! * `--check [path]` — validate an existing artifact against the
//!   expected schema (CI guard for the committed file).
//! * `--gate [path]` — re-measure and fail (exit 1) if any named hot
//!   path regressed >10% in speedup against the committed artifact,
//!   beyond a ±0.15 noise floor. Comparison happens only when the
//!   committed and fresh backend variants match, so a scalar-fallback
//!   host passes against an AVX2-recorded baseline.
//! * `--handicap <path>:<factor>` — multiply the named path's measured
//!   auto-backend time by `factor` (test hook: lets CI demonstrate
//!   that the gate really fails on an artificial >10% slowdown).
//! * `--fingerprints <out>` — skip timing and write only the
//!   deterministic fingerprint table; CI runs this twice and
//!   byte-compares the outputs (double-run determinism).

use std::time::Instant;

use hgnn::tensor::kernels::{self, Backend, TileGeometry};
use hgnn::ModelKind;
use metanmp::Simulator;
use serde::Serialize;

const SEED: u64 = 7;
/// Minimum elapsed time per measurement before trusting ns/op.
const MIN_SAMPLE_MS: f64 = 40.0;
/// Samples per (path, backend); the minimum is reported.
const SAMPLES: usize = 5;
/// Gate: fail when fresh speedup falls below this fraction of the
/// committed speedup...
const GATE_RATIO: f64 = 0.90;
/// ...and the speedup drop also clears the noise floor:
/// `max(0.15, committed × 0.25)`. The relative term covers the
/// process-to-process ratio variance that min-of-N interleaved
/// sampling cannot remove (allocation alignment under ASLR, AVX
/// frequency licensing); the absolute term keeps near-1.0 ratios from
/// tripping on pure wall noise. An artificial 1.5× slowdown of any
/// path (`--handicap <path>:1.5`) drops its ratio by ~33% and reliably
/// clears both terms.
const GATE_NOISE_FLOOR_ABS: f64 = 0.15;
const GATE_NOISE_FLOOR_REL: f64 = 0.25;

/// Batched-projection shape: a feature block of 512 vertices × 64 raw
/// features into the canonical 64-wide hidden space, tiled for the
/// default 256 KB rank-AU feature cache. The working set (~256 KB)
/// deliberately fits well inside L2: sizes at TLB/hugepage boundaries
/// make the scalar/auto ratio swing ±30% from process to process,
/// which no amount of sampling removes.
const BATCH_N: usize = 512;
const BATCH_K: usize = 64;
const BATCH_M: usize = 64;
/// Aggregation shape: 512 instance vectors of the canonical hidden
/// dimension.
const AGG_N: usize = 512;
const AGG_D: usize = 64;

#[derive(Serialize)]
struct Row {
    path: &'static str,
    scalar_ns_per_op: f64,
    auto_ns_per_op: f64,
    /// scalar time / auto time on this host; ≥ 1.0 when the SIMD
    /// backend wins. This is the gated metric.
    speedup: f64,
    /// FNV-1a digest over the result bits; identical for both backends.
    fingerprint: u64,
    iters: u64,
}

#[derive(Serialize)]
struct Doc {
    workload: &'static str,
    seed: u64,
    host_cpus: usize,
    /// Backend the auto measurement dispatched to on this host.
    variant: &'static str,
    /// True when every path's fingerprint was identical under both
    /// backends and across repeat evaluations.
    deterministic: bool,
    rows: Vec<Row>,
}

/// A named hot path: `run(iters)` executes the kernel `iters` times
/// under the currently forced backend and returns a result
/// fingerprint.
struct HotPath {
    name: &'static str,
    run: Box<dyn Fn(u64) -> u64>,
}

fn fnv1a(seed: u64, bits: u32) -> u64 {
    let mut h = seed ^ 0xCBF29CE484222325;
    for b in bits.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

fn fingerprint_slice(seed: u64, v: &[f32]) -> u64 {
    v.iter().fold(seed, |h, x| fnv1a(h, x.to_bits()))
}

/// splitmix64-seeded values in `[-1, 1)`.
fn seeded(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    (0..len)
        .map(|_| {
            let z = faultsim::rng::splitmix64(s);
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

fn hot_paths() -> Vec<HotPath> {
    let mut paths = Vec::new();

    // --- projection_gemv: one raw feature row into hidden space. ---
    {
        let w = seeded(BATCH_K * BATCH_M, SEED);
        let x = seeded(BATCH_K, SEED ^ 1);
        paths.push(HotPath {
            name: "projection_gemv",
            run: Box::new(move |iters| {
                let mut out = vec![0.0f32; BATCH_M];
                for _ in 0..iters {
                    kernels::gemv(&w, BATCH_M, &x, &mut out);
                }
                fingerprint_slice(SEED, &out)
            }),
        });
    }

    // --- project_batch: the cache-blocked batched projection. ---
    {
        let x = seeded(BATCH_N * BATCH_K, SEED ^ 2);
        let w = seeded(BATCH_K * BATCH_M, SEED ^ 3);
        let tiles = TileGeometry::for_cache(TileGeometry::DEFAULT_CACHE_BYTES, BATCH_K, BATCH_M);
        paths.push(HotPath {
            name: "project_batch",
            run: Box::new(move |iters| {
                let mut out = vec![0.0f32; BATCH_N * BATCH_M];
                for _ in 0..iters {
                    kernels::project_batch(&x, BATCH_N, BATCH_K, &w, BATCH_M, &mut out, tiles);
                }
                fingerprint_slice(SEED, &out)
            }),
        });
    }

    // --- dot_axpy_aggregate: attention-style instance combine. ---
    {
        let insts = seeded(AGG_N * AGG_D, SEED ^ 4);
        let query = seeded(AGG_D, SEED ^ 5);
        paths.push(HotPath {
            name: "dot_axpy_aggregate",
            run: Box::new(move |iters| {
                let mut acc = vec![0.0f32; AGG_D];
                let mut score = 0.0f32;
                for _ in 0..iters {
                    acc.fill(0.0);
                    for i in 0..AGG_N {
                        let v = &insts[i * AGG_D..(i + 1) * AGG_D];
                        score = kernels::dot(&query, v);
                        kernels::axpy(&mut acc, score, v);
                    }
                }
                fingerprint_slice(fnv1a(SEED, score.to_bits()), &acc)
            }),
        });
    }

    // --- end_to_end_verify: one verify-sized simulator epoch. ---
    paths.push(HotPath {
        name: "end_to_end_verify",
        run: Box::new(|iters| {
            // The fingerprint hashes one epoch's cycles, NOT a chain
            // over iterations: the two backends may auto-calibrate to
            // different iteration counts, and the digest must only
            // reflect the simulation result.
            let mut fp = SEED;
            for _ in 0..iters {
                let outcome = Simulator::builder()
                    .dataset(hetgraph::datasets::DatasetId::Imdb)
                    .scale(0.02)
                    .model(ModelKind::Magnn)
                    .hidden_dim(16)
                    .build()
                    .expect("bench simulator configuration")
                    .run()
                    .expect("bench simulation");
                fp = fnv1a(SEED, outcome.nmp.cycles as u32);
                fp = fnv1a(fp, (outcome.nmp.cycles >> 32) as u32);
            }
            fp
        }),
    });

    paths
}

/// One backend's measurement: best ns/op, fingerprint, and whether
/// every sample reproduced the fingerprint.
struct Measurement {
    ns_per_op: f64,
    fingerprint: u64,
    stable: bool,
}

/// Times `path` under both backends with **interleaved** samples
/// (scalar, auto, scalar, auto, …): the speedup ratio divides two
/// minima taken over the same wall-clock window, so slow environmental
/// drift (CPU frequency, co-tenant load) hits both sides instead of
/// skewing the ratio. Iterations are calibrated once, on the scalar
/// backend, and shared.
fn measure(path: &HotPath) -> (Measurement, Measurement, u64) {
    kernels::force_backend(Some(Backend::Scalar));
    let mut iters = 1u64;
    let (scalar_fp, first_ns) = loop {
        let start = Instant::now();
        let fp = (path.run)(iters);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms >= MIN_SAMPLE_MS {
            break (fp, ms * 1e6 / iters as f64);
        }
        // Grow geometrically, aiming straight at the target window.
        let scale = (MIN_SAMPLE_MS / ms.max(1e-3)).ceil() as u64;
        iters = iters.saturating_mul(scale.clamp(2, 1024));
    };
    let mut scalar = Measurement {
        ns_per_op: first_ns,
        fingerprint: scalar_fp,
        stable: true,
    };
    let mut auto = Measurement {
        ns_per_op: f64::INFINITY,
        fingerprint: 0,
        stable: true,
    };
    for sample in 0..2 * SAMPLES {
        let (m, backend) = if sample % 2 == 0 {
            (&mut auto, None)
        } else {
            (&mut scalar, Some(Backend::Scalar))
        };
        kernels::force_backend(backend);
        let start = Instant::now();
        let fp = (path.run)(iters);
        let ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
        kernels::force_backend(None);
        if m.ns_per_op.is_finite() {
            m.stable &= fp == m.fingerprint;
        }
        m.ns_per_op = m.ns_per_op.min(ns);
        m.fingerprint = fp;
    }
    (scalar, auto, iters)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs the full measurement matrix. `handicaps` multiplies the named
/// paths' auto-backend times (gate-testing hook).
fn run_bench(handicaps: &[(String, f64)]) -> Doc {
    let auto_variant = {
        kernels::force_backend(None);
        kernels::active_backend()
    };
    let mut rows = Vec::new();
    let mut deterministic = true;
    for path in hot_paths() {
        let (scalar, auto, iters) = measure(&path);
        let handicap = handicaps
            .iter()
            .find(|(p, _)| p == path.name)
            .map_or(1.0, |&(_, f)| f);
        let auto_ns = auto.ns_per_op * handicap;
        if scalar.fingerprint != auto.fingerprint || !scalar.stable || !auto.stable {
            eprintln!(
                "FAIL {}: fingerprint diverged (scalar={:#018x} auto={:#018x})",
                path.name, scalar.fingerprint, auto.fingerprint
            );
            deterministic = false;
        }
        let speedup = scalar.ns_per_op / auto_ns;
        eprintln!(
            "{:>20} scalar={:>10.1}ns/op auto={auto_ns:>10.1}ns/op speedup={speedup:.2}x fp={:#018x}",
            path.name, scalar.ns_per_op, scalar.fingerprint
        );
        rows.push(Row {
            path: path.name,
            scalar_ns_per_op: scalar.ns_per_op,
            auto_ns_per_op: auto_ns,
            speedup,
            fingerprint: scalar.fingerprint,
            iters,
        });
    }
    Doc {
        workload: "gemv 128x64; batch 2048x128x64 @256KB tiles; aggregate 512x64; sim IMDB@0.02 MAGNN hidden=16",
        seed: SEED,
        host_cpus: host_cpus(),
        variant: auto_variant.name(),
        deterministic,
        rows,
    }
}

const NAMED_PATHS: [&str; 4] = [
    "projection_gemv",
    "project_batch",
    "dot_axpy_aggregate",
    "end_to_end_verify",
];

/// Validates an existing `BENCH_kernels.json` against the schema this
/// binary produces.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc: serde::value::Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    for field in [
        "workload",
        "seed",
        "host_cpus",
        "variant",
        "deterministic",
        "rows",
    ] {
        if doc.get(field).is_none() {
            return Err(format!("missing top-level field `{field}`"));
        }
    }
    if doc.get("deterministic").and_then(|v| v.as_bool()) != Some(true) {
        return Err("`deterministic` is not true".into());
    }
    let variant = doc.get("variant").and_then(|v| v.as_str()).unwrap_or("");
    if !matches!(variant, "scalar" | "avx2") {
        return Err(format!("unknown variant `{variant}`"));
    }
    let rows = doc
        .get("rows")
        .and_then(|v| v.as_array())
        .ok_or("`rows` is not an array")?;
    for name in NAMED_PATHS {
        let row = rows
            .iter()
            .find(|r| r.get("path").and_then(|v| v.as_str()) == Some(name))
            .ok_or(format!("missing row for hot path `{name}`"))?;
        for field in [
            "scalar_ns_per_op",
            "auto_ns_per_op",
            "speedup",
            "fingerprint",
            "iters",
        ] {
            if row.get(field).is_none() {
                return Err(format!("row `{name}`: missing field `{field}`"));
            }
        }
        let speedup = row.get("speedup").and_then(|v| v.as_f64()).unwrap_or(-1.0);
        if !(speedup.is_finite() && speedup > 0.0) {
            return Err(format!("row `{name}`: speedup {speedup} not positive"));
        }
        if row.get("iters").and_then(|v| v.as_u64()).unwrap_or(0) == 0 {
            return Err(format!("row `{name}`: zero iterations"));
        }
    }
    Ok(())
}

/// Re-measures and compares against the committed artifact. Returns
/// the list of regression messages (empty = gate passes).
fn gate(committed_path: &str, handicaps: &[(String, f64)]) -> Result<Vec<String>, String> {
    check(committed_path)?;
    let text = std::fs::read_to_string(committed_path)
        .map_err(|e| format!("reading {committed_path}: {e}"))?;
    let committed: serde::value::Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing {committed_path}: {e}"))?;
    let fresh = run_bench(handicaps);
    if !fresh.deterministic {
        return Ok(vec!["fresh measurement was not deterministic".into()]);
    }
    let committed_variant = committed
        .get("variant")
        .and_then(|v| v.as_str())
        .unwrap_or("");
    if committed_variant != fresh.variant {
        eprintln!(
            "gate: committed variant `{committed_variant}` != host variant `{}`; \
             speedup ratios are not comparable — skipping ratio gate",
            fresh.variant
        );
        return Ok(Vec::new());
    }
    let rows = committed
        .get("rows")
        .and_then(|v| v.as_array())
        .ok_or("no rows")?;
    let mut regressions = Vec::new();
    for name in NAMED_PATHS {
        let committed_speedup = rows
            .iter()
            .find(|r| r.get("path").and_then(|v| v.as_str()) == Some(name))
            .and_then(|r| r.get("speedup"))
            .and_then(|v| v.as_f64())
            .ok_or(format!("committed artifact lacks speedup for `{name}`"))?;
        let fresh_speedup = fresh
            .rows
            .iter()
            .find(|r| r.path == name)
            .map(|r| r.speedup)
            .ok_or(format!("fresh run lacks hot path `{name}`"))?;
        let floor = GATE_NOISE_FLOOR_ABS.max(committed_speedup * GATE_NOISE_FLOOR_REL);
        let drop = committed_speedup - fresh_speedup;
        if fresh_speedup < committed_speedup * GATE_RATIO && drop > floor {
            regressions.push(format!(
                "{name}: speedup {fresh_speedup:.2}x is >10% below committed \
                 {committed_speedup:.2}x (drop {drop:.2})"
            ));
        } else {
            eprintln!(
                "gate: {name} ok (fresh {fresh_speedup:.2}x vs committed {committed_speedup:.2}x)"
            );
        }
    }
    Ok(regressions)
}

/// Computes every path's fingerprint under both backends without
/// timing and writes a stable JSON table (CI byte-compares two runs).
fn fingerprints(out: &str) {
    #[derive(Serialize)]
    struct Fp {
        path: &'static str,
        scalar: String,
        auto: String,
    }
    let mut table = Vec::new();
    let mut ok = true;
    for path in hot_paths() {
        kernels::force_backend(Some(Backend::Scalar));
        let scalar = (path.run)(1);
        kernels::force_backend(None);
        let auto = (path.run)(1);
        kernels::force_backend(None);
        if scalar != auto {
            eprintln!(
                "FAIL {}: scalar {scalar:#018x} != auto {auto:#018x}",
                path.name
            );
            ok = false;
        }
        table.push(Fp {
            path: path.name,
            scalar: format!("{scalar:#018x}"),
            auto: format!("{auto:#018x}"),
        });
    }
    let json = serde_json::to_string_pretty(&table).expect("serialize fingerprints");
    std::fs::write(out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("wrote {out}");
    if !ok {
        std::process::exit(1);
    }
}

fn parse_handicaps(args: &[String]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--handicap" {
            let spec = args.get(i + 1).unwrap_or_else(|| {
                eprintln!("--handicap requires <path>:<factor>");
                std::process::exit(2);
            });
            let (path, factor) = spec.split_once(':').unwrap_or_else(|| {
                eprintln!("bad --handicap `{spec}`, expected <path>:<factor>");
                std::process::exit(2);
            });
            let factor: f64 = factor.parse().unwrap_or_else(|_| {
                eprintln!("bad --handicap factor in `{spec}`");
                std::process::exit(2);
            });
            out.push((path.to_string(), factor));
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => {
            let path = args
                .get(1)
                .map(String::as_str)
                .unwrap_or("BENCH_kernels.json");
            match check(path) {
                Ok(()) => eprintln!("{path}: schema OK"),
                Err(e) => {
                    eprintln!("{path}: schema violation: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("--gate") => {
            let path = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str)
                .unwrap_or("BENCH_kernels.json");
            let handicaps = parse_handicaps(&args);
            match gate(path, &handicaps) {
                Ok(regressions) if regressions.is_empty() => {
                    eprintln!("gate: all hot paths within threshold");
                }
                Ok(regressions) => {
                    for r in &regressions {
                        eprintln!("REGRESSION {r}");
                    }
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("gate error: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("--fingerprints") => {
            let out = args
                .get(1)
                .map(String::as_str)
                .unwrap_or("kernel_fingerprints.json");
            fingerprints(out);
        }
        _ => {
            let handicaps = parse_handicaps(&args);
            let doc = run_bench(&handicaps);
            let json = serde_json::to_string_pretty(&doc).expect("serialize bench results");
            std::fs::write("BENCH_kernels.json", json).expect("write BENCH_kernels.json");
            eprintln!("wrote BENCH_kernels.json (variant={})", doc.variant);
            if !doc.deterministic {
                eprintln!("backend or repeat run changed a fingerprint — determinism violated");
                std::process::exit(1);
            }
        }
    }
}
