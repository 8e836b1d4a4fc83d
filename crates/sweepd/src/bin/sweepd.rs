//! `sweepd` — the sweep-service daemon binary.
//!
//! ```text
//! sweepd --worker-cmd <path> [OPTIONS]
//!
//! Options:
//!   --worker-cmd <path>          worker/grid/finalize command (the
//!                                metanmp-experiments binary); repeatable
//!                                to pass leading arguments
//!   --listen <addr>              bind address (default 127.0.0.1:7377)
//!   --workers <n>                local worker slots, spawned as
//!                                `--connect` children (default 2; 0 =
//!                                remote-only fleet)
//!   --state-dir <dir>            per-sweep state root (default ./sweepd-state)
//!   --heartbeat-ms <n>           worker heartbeat period (default 100)
//!   --heartbeat-deadline-ms <n>  liveness deadline (default 2000)
//!   --fleet-floor <n>            minimum healthy fleet before shedding
//!                                low-priority sweeps (default 1)
//!   --cell-timeout <s>           default per-cell wall-clock budget
//!                                (default unbounded; manifests override)
//!   --retry-budget <n>           default per-cell retry budget (default 2)
//!   --ckpt-interval <n>          checkpoint granularity for workers and
//!                                the finalize pass (default 256)
//!   --backoff-seed <u64>         jitter seed for worker respawn backoff
//!   --drain-grace-ms <n>         SIGTERM→SIGKILL escalation window for
//!                                draining workers (default 10000)
//!   --worker-listen <addr>       worker listener every worker dials,
//!                                spawned or remote (default 127.0.0.1:0)
//!   --netem <file>               CHS1 scenario whose net* directives
//!                                script deterministic network faults on
//!                                worker links
//! ```
//!
//! Exit codes follow the repo contract: 0 = drained with all sweeps
//! finished, 3 = drained with resumable work remaining (rerun workers
//! against the surviving state directories), 2 = usage, 1 = failure.
//!
//! SIGINT/SIGTERM begin a graceful drain: leasing stops, every worker
//! gets the exit op and every spawned child SIGTERM, so in-flight cells
//! persist their checkpoints, and the daemon exits once the fleet is
//! reaped.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use sweepd::{server, Daemon, DaemonConfig};

/// Drain request from SIGINT/SIGTERM (async-signal-safe store only).
static DRAIN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn usage() {
    eprintln!("usage: sweepd --worker-cmd <path> [OPTIONS]");
    eprintln!("  --listen <addr>              bind address (default 127.0.0.1:7377)");
    eprintln!("  --workers <n>                local worker slots (default 2)");
    eprintln!("  --state-dir <dir>            state root (default ./sweepd-state)");
    eprintln!("  --heartbeat-ms <n>           worker heartbeat period (default 100)");
    eprintln!("  --heartbeat-deadline-ms <n>  liveness deadline (default 2000)");
    eprintln!("  --fleet-floor <n>            minimum healthy fleet (default 1)");
    eprintln!("  --cell-timeout <s>           default per-cell budget (default unbounded)");
    eprintln!("  --retry-budget <n>           default retry budget (default 2)");
    eprintln!("  --ckpt-interval <n>          checkpoint granularity (default 256)");
    eprintln!("  --backoff-seed <u64>         respawn backoff jitter seed");
    eprintln!("  --drain-grace-ms <n>         drain escalation window (default 10000)");
    eprintln!("  --worker-listen <addr>       worker listener (default 127.0.0.1:0)");
    eprintln!("  --netem <file>               CHS1 net* scenario for worker-link faults");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }

    let mut listen = "127.0.0.1:7377".to_string();
    let mut worker_listen = "127.0.0.1:0".to_string();
    let mut worker_cmd: Vec<String> = Vec::new();
    let mut cfg = DaemonConfig::new(Vec::new(), "sweepd-state".into());
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut next = |what: &str| -> Result<String, ExitCode> {
            it.next().ok_or_else(|| {
                eprintln!("{arg_name} requires {what}", arg_name = arg);
                ExitCode::from(2)
            })
        };
        macro_rules! next_u64 {
            () => {
                match next("an unsigned integer") {
                    Ok(v) => match v.parse::<u64>() {
                        Ok(n) => n,
                        Err(_) => {
                            eprintln!("{arg} requires an unsigned integer, got {v:?}");
                            return ExitCode::from(2);
                        }
                    },
                    Err(code) => return code,
                }
            };
        }
        match arg.as_str() {
            "--listen" => match next("an address") {
                Ok(v) => listen = v,
                Err(code) => return code,
            },
            "--worker-cmd" => match next("a path") {
                Ok(v) => worker_cmd.push(v),
                Err(code) => return code,
            },
            "--state-dir" => match next("a directory") {
                Ok(v) => cfg.state_dir = v.into(),
                Err(code) => return code,
            },
            "--workers" => cfg.workers = next_u64!() as usize,
            "--heartbeat-ms" => cfg.heartbeat_ms = next_u64!().max(1),
            "--heartbeat-deadline-ms" => {
                cfg.heartbeat_deadline = Duration::from_millis(next_u64!().max(1));
            }
            "--fleet-floor" => cfg.fleet_floor = next_u64!() as usize,
            "--cell-timeout" => cfg.default_cell_timeout_s = Some(next_u64!().max(1)),
            "--retry-budget" => cfg.default_retry_budget = next_u64!() as u32,
            "--ckpt-interval" => cfg.ckpt_interval = next_u64!().max(1),
            "--backoff-seed" => cfg.backoff_seed = next_u64!(),
            "--drain-grace-ms" => cfg.drain_grace = Duration::from_millis(next_u64!()),
            "--worker-listen" => match next("an address") {
                Ok(v) => worker_listen = v,
                Err(code) => return code,
            },
            "--netem" => match next("a CHS1 scenario file") {
                Ok(path) => {
                    let text = match std::fs::read_to_string(&path) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("--netem: reading {path}: {e}");
                            return ExitCode::from(2);
                        }
                    };
                    match faultsim::Scenario::parse(&text) {
                        Ok(s) => cfg.netem = s,
                        Err(e) => {
                            eprintln!("--netem: parsing {path}: {e}");
                            return ExitCode::from(2);
                        }
                    }
                }
                Err(code) => return code,
            },
            _ => {
                eprintln!("unknown option {arg:?}");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    if worker_cmd.is_empty() {
        eprintln!("--worker-cmd is required (point it at the metanmp-experiments binary)");
        usage();
        return ExitCode::from(2);
    }
    cfg.worker_cmd = worker_cmd;
    if let Err(e) = std::fs::create_dir_all(&cfg.state_dir) {
        eprintln!(
            "failed to create state dir {}: {e}",
            cfg.state_dir.display()
        );
        return ExitCode::FAILURE;
    }

    install_signal_handlers();
    let daemon = Daemon::new(cfg);

    // The worker listener is bound before the first tick, so every
    // spawn has an address to pass.
    let (bound_tx, bound_rx) = mpsc::channel();
    {
        let daemon = Arc::clone(&daemon);
        let addr = worker_listen.clone();
        std::thread::spawn(move || {
            let on_bound = bound_tx.clone();
            let served = sweepd::remote::serve_workers(daemon, &addr, move |bound| {
                let _ = on_bound.send(Ok(bound));
            });
            if let Err(e) = served {
                let _ = bound_tx.send(Err(e));
            }
        });
    }
    match bound_rx.recv() {
        Ok(Ok(bound)) => eprintln!("sweepd: workers on {bound}"),
        Ok(Err(e)) => {
            eprintln!("sweepd: failed to bind worker listener {worker_listen}: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => return ExitCode::FAILURE,
    }

    // Supervisor loop: forwards the signal flag into a drain and ticks
    // the fleet. The HTTP server runs on the main thread and returns
    // once the daemon is draining.
    let clean = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || {
            loop {
                if DRAIN.load(Ordering::SeqCst) {
                    daemon.begin_drain();
                }
                daemon.tick();
                if daemon.draining() && daemon.alive_workers() == 0 {
                    // Let finalize passes and status reads settle.
                    if daemon.run_supervisor(Duration::from_millis(25)) {
                        break true;
                    }
                    break false;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    };

    let served = server::serve(&daemon, &listen, |addr| {
        eprintln!("sweepd: listening on {addr}");
    });
    if let Err(e) = served {
        eprintln!("sweepd: failed to bind {listen}: {e}");
        daemon.begin_drain();
        let _ = clean.join();
        return ExitCode::FAILURE;
    }
    match clean.join() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(_) => ExitCode::FAILURE,
    }
}
