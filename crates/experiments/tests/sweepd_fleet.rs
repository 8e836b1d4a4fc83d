//! The real worker binary behind a `sweepd` daemon: two spawned
//! `--connect` workers run a finalized `faults` sweep whose artifacts
//! must match an in-process run byte for byte, every lease names a
//! registered `w-tcp-<pid>` worker, and a drain of the idle fleet ends
//! it cooperatively — well inside the drain grace, with no SIGKILL.

#![cfg(unix)]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::value::Value;
use sweepd::{parse_manifest, remote, Daemon, DaemonConfig};

const BIN: &str = env!("CARGO_BIN_EXE_metanmp-experiments");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweepd-fleet-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wait_until(what: &str, limit: Duration, pred: impl Fn() -> bool) {
    let deadline = Instant::now() + limit;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Collects the worker named by every lease record appended to the
/// journal until `stop` is set. The finalize pass compacts the journal
/// down to completions, so leases can only be read while cells run.
fn watch_leases(journal: PathBuf, stop: Arc<AtomicBool>) -> JoinHandle<BTreeSet<String>> {
    std::thread::spawn(move || {
        let mut workers = BTreeSet::new();
        while !stop.load(Ordering::Relaxed) {
            let text = std::fs::read_to_string(&journal).unwrap_or_default();
            for line in text.lines() {
                let Ok(v) = serde_json::from_str::<Value>(line) else {
                    continue; // a torn tail mid-append
                };
                if let Some(w) = v.get("Lease").and_then(|l| l.get("worker")) {
                    workers.insert(w.as_str().unwrap_or_default().to_string());
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        workers
    })
}

#[test]
fn spawned_workers_match_in_process_run_and_drain_promptly() {
    let dir = scratch("faults");

    let reference = dir.join("reference");
    std::fs::create_dir_all(&reference).unwrap();
    let status = Command::new(BIN)
        .args(["faults", "--seed", "7"])
        .current_dir(&reference)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("in-process run");
    assert!(status.success(), "in-process faults run failed: {status}");

    let mut cfg = DaemonConfig::new(vec![BIN.to_string()], dir.join("state"));
    cfg.workers = 2;
    cfg.drain_grace = Duration::from_secs(30);
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::new(cfg);
    let (addr_tx, addr_rx) = mpsc::channel();
    {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || {
            remote::serve_workers(daemon, "127.0.0.1:0", move |addr| {
                addr_tx.send(addr).unwrap();
            })
            .expect("worker listener");
        });
    }
    addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("listener bound");
    let ticker = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || daemon.run_supervisor(Duration::from_millis(20)))
    };

    let id = daemon
        .submit(parse_manifest(br#"{"experiment":"faults","seed":7}"#).unwrap())
        .expect("submit");
    let sweep_dir = state_dir.join(format!("sweep-{id}"));
    let stop = Arc::new(AtomicBool::new(false));
    let leases = watch_leases(sweep_dir.join("faults.manifest.jsonl"), Arc::clone(&stop));
    let status = || {
        let views = daemon.sweep_views();
        views.into_iter().find(|v| v.id == id).unwrap().status
    };
    wait_until("cells done", Duration::from_secs(600), || {
        status() != "running"
    });
    stop.store(true, Ordering::Relaxed);
    wait_until("sweep finalized", Duration::from_secs(600), || {
        status() != "finalizing"
    });
    assert_eq!(status(), "done");

    let got = std::fs::read(sweep_dir.join("results/faults.json")).expect("finalized artifact");
    let want = std::fs::read(reference.join("results/faults.json")).expect("reference artifact");
    assert!(
        got == want,
        "daemon-run results/faults.json differs from the in-process run"
    );

    let workers = leases.join().expect("lease watcher");
    assert!(!workers.is_empty(), "no lease record was seen");
    for w in &workers {
        let pid = w
            .strip_prefix("w-tcp-")
            .unwrap_or_else(|| panic!("lease names {w:?}"));
        assert!(pid.parse::<u32>().is_ok(), "lease names {w:?}");
    }

    let fleet = daemon.worker_views();
    assert_eq!(fleet.len(), 2, "{fleet:?}");
    assert!(fleet.iter().all(|w| w.kind == "local"), "{fleet:?}");

    let drain = Instant::now();
    daemon.begin_drain();
    wait_until("fleet gone", Duration::from_secs(10), || {
        daemon.alive_workers() == 0
    });
    let took = drain.elapsed();
    assert!(
        ticker.join().expect("supervisor"),
        "all sweeps finished, so the drain is clean"
    );
    assert!(took < Duration::from_secs(10), "drain took {took:?}");
}
