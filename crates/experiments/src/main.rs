//! `metanmp-experiments` — regenerates every table and figure of the
//! paper's evaluation section.
//!
//! ```text
//! metanmp-experiments [OPTIONS] [EXPERIMENT ...]
//!
//! Experiments: table1 table3 table4 table5 fig3 fig4 fig5 fig12 fig13
//!              fig14 fig15 fig16 fig17 fig18 ablate verify faults
//!              serve overload audit all
//!
//! `audit` runs the verify and faulted workloads under the runtime
//! invariant auditor (requires a build with `--features audit`) and
//! fails on any protocol or conservation violation. It is excluded
//! from `all` because default builds compile the checker out.
//!
//! Options:
//!   --seed <u64>          seed for seeded experiments (default 42)
//!   --jobs <n>            host thread budget: sweep cells fan out over
//!                         n workers, other experiments generate
//!                         instances DIMM-parallel (0 = auto, one per
//!                         core; default auto). Results are
//!                         byte-identical at every value.
//!   --metrics-out <path>  write a JSON telemetry snapshot after the run
//!   --deterministic-metrics
//!                         strip wall-clock phases from the snapshot so
//!                         it is byte-reproducible across runs
//!   --trace-out <path>    write a Chrome trace-event file (Perfetto)
//!   --sweep-dir <dir>     journal sweep cells under <dir> (fresh sweep)
//!   --resume <dir>        resume a journaled sweep from <dir>
//!   --ckpt-interval <n>   in-run checkpoint granularity in start
//!                         vertices (default 256)
//!   --connect <addr>      run as a sweepd worker: dial the coordinator's
//!                         --worker-listen port, register over the
//!                         versioned handshake, and compute leased cells
//!                         over TCP (no --sweep-dir needed; run commands
//!                         carry the sweep coordinates). sweepd spawns
//!                         its local workers this way too
//!   --grid <exp>          print the experiment's cell grid as JSON and
//!                         exit (the coordinator's shard list)
//!   --heartbeat-ms <n>    worker liveness heartbeat period (default 100)
//! ```
//!
//! Output tables print to stdout and are saved under `results/`. An
//! experiment that fails (bad preset, diverged simulation, I/O error)
//! prints its error and exits non-zero instead of panicking.
//!
//! With `--sweep-dir`/`--resume`, SIGINT and SIGTERM are handled
//! cooperatively: the in-flight simulation is checkpointed, the run
//! exits with code 3 ("interrupted, resumable"), and a rerun with
//! `--resume <dir>` continues to a byte-identical result.

mod ablation;
mod audit;
mod characterization;
mod common;
mod datasets_exp;
mod faults;
mod hardware;
mod memory_exps;
mod performance;
mod serve_exp;
mod sweep;
mod verification;
mod worker;

use std::process::ExitCode;

use common::{Ctx, ExpError, ExpResult, SweepOptions};

type ExpFn = fn(&Ctx) -> ExpResult;

const EXPERIMENTS: &[(&str, ExpFn)] = &[
    ("table1", memory_exps::table1),
    ("table3", datasets_exp::table3),
    ("table4", memory_exps::table4),
    ("table5", hardware::table5),
    ("fig3", characterization::fig3),
    ("fig4", characterization::fig4),
    ("fig5", characterization::fig5),
    ("fig12", performance::fig12_13),
    ("fig13", performance::fig12_13),
    ("fig14", performance::fig14),
    ("fig15", hardware::fig15),
    ("fig16", hardware::fig16),
    ("fig17", hardware::fig17),
    ("fig18", hardware::fig18),
    ("ablate", ablation::ablations),
    ("verify", verification::verify),
    ("faults", faults::faults),
    ("serve", serve_exp::serve_exp),
    ("overload", serve_exp::overload_exp),
    ("audit", audit::audit),
];

fn usage() {
    eprintln!("usage: metanmp-experiments [OPTIONS] [EXPERIMENT ...]");
    eprintln!("experiments: all {}", names().join(" "));
    eprintln!("options:");
    eprintln!("  --seed <u64>          seed for seeded experiments (default 42)");
    eprintln!("  --jobs <n>            host thread budget, 0 = one per core (default auto);");
    eprintln!("                        results are byte-identical at every value");
    eprintln!("  --metrics-out <path>  write a JSON telemetry snapshot after the run");
    eprintln!("  --deterministic-metrics  strip wall-clock phases from the snapshot");
    eprintln!("  --trace-out <path>    write a Chrome trace-event file (Perfetto)");
    eprintln!("  --sweep-dir <dir>     journal sweep cells under <dir> (fresh sweep)");
    eprintln!("  --resume <dir>        resume a journaled sweep from <dir>");
    eprintln!("  --ckpt-interval <n>   in-run checkpoint granularity (default 256)");
    eprintln!("  --connect <addr>      run as a sweepd worker dialing its worker listener");
    eprintln!("  --grid <exp>          print the experiment's cell grid as JSON and exit");
    eprintln!("  --heartbeat-ms <n>    worker liveness heartbeat period (default 100)");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }

    // Split option flags from experiment names.
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut seed: u64 = 42;
    let mut jobs: usize = 0;
    let mut deterministic_metrics = false;
    let mut sweep_dir: Option<String> = None;
    let mut resume = false;
    let mut ckpt_interval: u64 = 256;
    let mut connect: Option<String> = None;
    let mut grid_exp: Option<String> = None;
    let mut heartbeat_ms: u64 = 100;
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deterministic-metrics" => deterministic_metrics = true,
            "--metrics-out" | "--trace-out" | "--sweep-dir" | "--resume" | "--connect" => {
                let Some(path) = it.next() else {
                    eprintln!("{arg} requires an argument");
                    return ExitCode::from(2);
                };
                match arg.as_str() {
                    "--metrics-out" => metrics_out = Some(path),
                    "--trace-out" => trace_out = Some(path),
                    "--sweep-dir" => sweep_dir = Some(path),
                    "--connect" => connect = Some(path),
                    _ => {
                        sweep_dir = Some(path);
                        resume = true;
                    }
                }
            }
            "--grid" => {
                let Some(exp) = it.next() else {
                    eprintln!("--grid requires an experiment name");
                    return ExitCode::from(2);
                };
                grid_exp = Some(exp);
            }
            "--seed" | "--ckpt-interval" | "--jobs" | "--heartbeat-ms" => {
                let Some(v) = it.next() else {
                    eprintln!("{arg} requires an unsigned integer argument");
                    return ExitCode::from(2);
                };
                let Ok(n) = v.parse::<u64>() else {
                    eprintln!("{arg} requires an unsigned integer, got {v:?}");
                    return ExitCode::from(2);
                };
                match arg.as_str() {
                    "--seed" => seed = n,
                    "--jobs" => jobs = n as usize,
                    "--heartbeat-ms" => {
                        if n == 0 {
                            eprintln!("--heartbeat-ms must be positive");
                            return ExitCode::from(2);
                        }
                        heartbeat_ms = n;
                    }
                    _ => {
                        if n == 0 {
                            eprintln!("--ckpt-interval must be positive");
                            return ExitCode::from(2);
                        }
                        ckpt_interval = n;
                    }
                }
            }
            _ if arg.starts_with("--") => {
                eprintln!("unknown option {arg:?}");
                usage();
                return ExitCode::from(2);
            }
            _ => experiments.push(arg),
        }
    }
    if connect.is_none() && grid_exp.is_none() && experiments.is_empty() {
        usage();
        return ExitCode::from(2);
    }

    let sweep_opts = sweep_dir.map(|dir| SweepOptions {
        dir: dir.into(),
        resume,
        interval: ckpt_interval,
    });
    if let Some(opts) = &sweep_opts {
        if let Err(e) = std::fs::create_dir_all(&opts.dir) {
            eprintln!("failed to create sweep dir {}: {e}", opts.dir.display());
            return ExitCode::FAILURE;
        }
        sweep::install_signal_handlers();
        // Deterministic interruption for the resume soak test.
        if let Ok(v) = std::env::var("METANMP_INTERRUPT_AFTER_CELLS") {
            match v.parse::<u64>() {
                Ok(n) => sweep::set_interrupt_after_cells(n),
                Err(_) => {
                    eprintln!("METANMP_INTERRUPT_AFTER_CELLS must be an unsigned integer");
                    return ExitCode::from(2);
                }
            }
        }
    }

    // One budget for every deterministic fan-out point in the stack
    // (DRAM channels, DIMM-level instance generation); the sweep runner
    // additionally uses it for its cell-level worker pool.
    dramsim::parallel::set_threads(jobs);
    let cx = Ctx::new(seed, sweep_opts, jobs);

    // One-shot grid mode: print the shard list and exit.
    if let Some(exp) = &grid_exp {
        return match worker::print_grid(&cx, exp) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("grid {exp} failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Worker mode: dial the coordinator's worker port and compute
    // leased cells over TCP until an exit command; a drain mid-cell
    // exits 3. No --sweep-dir needed — run commands carry the sweep
    // coordinates.
    if let Some(addr) = &connect {
        sweep::install_signal_handlers();
        return match worker::run_remote_worker(&cx, addr, heartbeat_ms) {
            Ok(code) => ExitCode::from(code),
            Err(e) => {
                eprintln!("worker failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = |name: &str, f: fn(&Ctx) -> ExpResult| -> Result<(), ExitCode> {
        banner(name);
        let _span = obs::span(format!("experiments.{name}"), "experiments");
        f(&cx).map_err(|e| match e {
            ExpError::Interrupted { dir } => {
                eprintln!(
                    "experiment {name} interrupted, resumable: rerun with --resume {}",
                    dir.display()
                );
                ExitCode::from(3)
            }
            e => {
                eprintln!("experiment {name} failed: {e}");
                ExitCode::FAILURE
            }
        })
    };
    let plan = match run_plan(&experiments) {
        Ok(plan) => plan,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    for (name, f) in plan {
        if let Err(code) = run(name, f) {
            return code;
        }
    }

    if let Some(path) = &metrics_out {
        let json = if deterministic_metrics {
            obs::deterministic_snapshot_json()
        } else {
            obs::snapshot_json()
        };
        let p = std::path::Path::new(path);
        if let Err(e) = checkpoint::atomic_write_str(p, &json) {
            eprintln!("failed to write metrics snapshot to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("telemetry: metrics snapshot written to {path}");
    }
    if let Some(path) = &trace_out {
        let p = std::path::Path::new(path);
        if let Err(e) = checkpoint::atomic_write_str(p, &obs::chrome_trace_json()) {
            eprintln!("failed to write Chrome trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("telemetry: Chrome trace written to {path} (load in Perfetto)");
    }
    ExitCode::SUCCESS
}

fn names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(n, _)| *n).collect()
}

/// The experiments to run for the command-line names, in order. `all`
/// expands to every experiment except `audit`, which only works under
/// `--features audit` and exists to gate CI, not to regenerate paper
/// artifacts; run it by name. An experiment is planned once, however
/// often it is named, and fig12 and fig13 count as one because they
/// share one computation.
fn run_plan(args: &[String]) -> Result<Vec<(&'static str, ExpFn)>, String> {
    let mut plan = Vec::new();
    let mut planned = std::collections::BTreeSet::new();
    for arg in args {
        let picked: Vec<(&'static str, ExpFn)> = if arg == "all" {
            EXPERIMENTS
                .iter()
                .copied()
                .filter(|(name, _)| *name != "audit")
                .collect()
        } else {
            let found = EXPERIMENTS.iter().copied().find(|(name, _)| name == arg);
            let Some(exp) = found else {
                return Err(format!(
                    "unknown experiment {arg:?}; known: all {}",
                    names().join(" ")
                ));
            };
            vec![exp]
        };
        for (name, f) in picked {
            let key = if name == "fig13" { "fig12" } else { name };
            if planned.insert(key) {
                plan.push((name, f));
            }
        }
    }
    Ok(plan)
}

fn banner(name: &str) {
    println!("\n=== {name} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planned(args: &[&str]) -> Vec<&'static str> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        run_plan(&args)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    }

    #[test]
    fn all_computes_figs_12_and_13_once() {
        let plan = planned(&["all"]);
        let shared = plan
            .iter()
            .filter(|n| **n == "fig12" || **n == "fig13")
            .count();
        assert_eq!(shared, 1, "{plan:?}");
        assert!(!plan.contains(&"audit"), "{plan:?}");
        assert_eq!(plan.len(), EXPERIMENTS.len() - 2, "{plan:?}");
    }

    #[test]
    fn named_experiments_are_planned_once_in_order() {
        assert_eq!(planned(&["fig13", "fig12", "verify"]), ["fig13", "verify"]);
        let plan = planned(&["verify", "all", "fig13"]);
        assert_eq!(plan[0], "verify");
        assert_eq!(plan.iter().filter(|n| **n == "verify").count(), 1);
        assert_eq!(planned(&["audit", "audit"]), ["audit"]);
        assert!(run_plan(&["nope".to_string()]).is_err());
    }
}
