//! Determinism regression for `--jobs`: every artifact the binary
//! produces must be byte-identical at every host thread budget.
//!
//! Three paths are exercised end to end:
//!
//! 1. `verify` — the cycle-level hardware pipeline, where `--jobs`
//!    drives DIMM-parallel instance generation inside a single
//!    simulation.
//! 2. The `faults` sweep — where `--jobs` additionally fans whole
//!    sweep cells out over the worker pool, with journal appends and
//!    telemetry merges folded back in canonical order.
//! 3. The `serve` sweep — the online-inference serving simulator,
//!    where each offered-load point is a sweep cell and the report
//!    aggregates seeded arrivals, batching, QoS scheduling, and the
//!    reuse cache.
//!
//! All run at `--jobs 1` and `--jobs 4`; tables, the JSON artifacts,
//! the sweep journals, and the deterministic telemetry snapshot are
//! compared byte for byte.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metanmp-par-det-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_metanmp-experiments"))
        .current_dir(cwd)
        .args(args)
        .env_remove("METANMP_INTERRUPT_AFTER_CELLS")
        .output()
        .expect("binary runs")
}

fn must_read(path: PathBuf) -> Vec<u8> {
    fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Runs one invocation per jobs level in its own directory and asserts
/// the named artifacts (paths relative to the working directory) are
/// byte-identical across levels.
fn assert_identical_artifacts(name: &str, args: &[&str], artifacts: &[&str]) {
    let root = scratch(name);
    let mut reference: Option<(PathBuf, Vec<Vec<u8>>)> = None;
    for jobs in ["1", "4"] {
        let dir = root.join(format!("jobs{jobs}"));
        fs::create_dir_all(&dir).unwrap();
        let mut full: Vec<&str> = args.to_vec();
        full.extend(["--jobs", jobs]);
        let out = run(&dir, &full);
        assert!(
            out.status.success(),
            "{name} --jobs {jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes: Vec<Vec<u8>> = artifacts.iter().map(|a| must_read(dir.join(a))).collect();
        match &reference {
            None => reference = Some((dir, bytes)),
            Some((ref_dir, ref_bytes)) => {
                for ((a, got), want) in artifacts.iter().zip(&bytes).zip(ref_bytes) {
                    assert_eq!(
                        got,
                        want,
                        "{a} differs between {} and {}",
                        ref_dir.display(),
                        dir.display()
                    );
                }
            }
        }
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn verify_is_byte_identical_across_jobs() {
    assert_identical_artifacts(
        "verify",
        &[
            "verify",
            "--seed",
            "7",
            "--metrics-out",
            "metrics.json",
            "--deterministic-metrics",
        ],
        &["results/verify.md", "metrics.json"],
    );
}

#[test]
fn serve_sweep_is_byte_identical_across_jobs() {
    assert_identical_artifacts(
        "serve",
        &[
            "serve",
            "--seed",
            "7",
            "--sweep-dir",
            "sweep",
            "--metrics-out",
            "metrics.json",
            "--deterministic-metrics",
        ],
        &[
            "results/serve.json",
            "results/serve.md",
            "results/serve_classes.md",
            "sweep/serve.manifest.jsonl",
            "metrics.json",
        ],
    );
}

#[test]
fn faults_sweep_is_byte_identical_across_jobs() {
    assert_identical_artifacts(
        "faults",
        &[
            "faults",
            "--seed",
            "7",
            "--sweep-dir",
            "sweep",
            "--ckpt-interval",
            "64",
            "--metrics-out",
            "metrics.json",
            "--deterministic-metrics",
        ],
        &[
            "results/faults.json",
            "results/faults_ecc.md",
            "results/faults_broadcast.md",
            "results/faults_watchdog.md",
            "sweep/faults.manifest.jsonl",
            "metrics.json",
        ],
    );
}
