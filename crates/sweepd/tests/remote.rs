//! End-to-end tests for TCP remote workers: registration handshake,
//! lease fencing, heartbeat-driven migration of a partitioned worker,
//! and reconnect-with-resume. The "worker" here is an in-process fake
//! speaking the wire protocol directly, so every network event (silence,
//! disconnect, stale completion) is scripted rather than emergent.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use checkpoint::manifest::{Journal, JournalHeader, JournalRecord};
use checkpoint::FORMAT_VERSION;
use serde::value::Value;
use sweepd::{parse_manifest, remote, wire, Daemon, DaemonConfig};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweepd-remote-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the grid-only stand-in for the experiments binary: remote
/// fleets still need `--grid` locally to enumerate cells.
fn write_grid_script(dir: &Path) -> PathBuf {
    let path = dir.join("fake-grid.sh");
    let script = r#"#!/bin/sh
if [ "$1" = "--grid" ]; then
  printf '%s\n' '{"experiment":"faults","sweep_hash":77,"seed":42,"cells":[{"key":"a","hash":1},{"key":"b","hash":2}]}'
  exit 0
fi
exit 0
"#;
    std::fs::write(&path, script).unwrap();
    use std::os::unix::fs::PermissionsExt;
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
    path
}

/// Remote-only fleet: zero local slots, every worker joins over TCP.
fn config(dir: &Path) -> DaemonConfig {
    let script = write_grid_script(dir);
    let mut cfg = DaemonConfig::new(
        vec!["/bin/sh".to_string(), script.display().to_string()],
        dir.join("state"),
    );
    cfg.workers = 0;
    cfg.heartbeat_deadline = Duration::from_millis(600);
    cfg.heartbeat_ms = 50;
    cfg.backoff_base_ms = 10;
    cfg.backoff_cap_ms = 100;
    cfg
}

/// Starts the worker listener plus a background ticker; returns the
/// bound address.
fn start(daemon: &Arc<Daemon>) -> SocketAddr {
    let (addr_tx, addr_rx) = mpsc::channel();
    {
        let daemon = Arc::clone(daemon);
        std::thread::spawn(move || {
            remote::serve_workers(daemon, "127.0.0.1:0", move |addr| {
                addr_tx.send(addr).unwrap();
            })
            .expect("worker listener");
        });
    }
    {
        let daemon = Arc::clone(daemon);
        std::thread::spawn(move || {
            while !(daemon.draining() && daemon.alive_workers() == 0) {
                daemon.tick();
                std::thread::sleep(Duration::from_millis(20));
            }
        });
    }
    addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("listener bound")
}

/// Dials the coordinator and completes the handshake; returns the
/// stream, a buffered reader over its clone, and the parsed reply.
fn dial(addr: SocketAddr, token: &str, worker: &str, proto: u32, fp: u64) -> Conn {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = wire::Hello {
        proto,
        fingerprint: fp,
        token: token.to_string(),
        worker: worker.to_string(),
        pid: 0,
    };
    stream
        .write_all(wire::render_hello(&hello).as_bytes())
        .unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("handshake reply");
    let reply = wire::parse_reply(line.trim_end()).expect("reply parses");
    Conn {
        stream,
        reader,
        reply,
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: wire::HandshakeReply,
}

impl Conn {
    fn welcome(&self) -> (String, u64, Option<String>) {
        match &self.reply {
            wire::HandshakeReply::Welcome {
                session,
                gen,
                resume,
                ..
            } => (session.clone(), *gen, resume.clone()),
            wire::HandshakeReply::Reject { reason } => panic!("rejected: {reason}"),
        }
    }

    /// Spawns a heartbeat thread over a clone of the stream; returns
    /// its stop flag (the thread also exits on write failure).
    fn start_heartbeats(&self) -> Arc<AtomicBool> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let mut hb = self.stream.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while !flag.load(Ordering::Relaxed) {
                let frame = format!("{{\"ev\":\"hb\",\"seq\":{seq}}}\n");
                if hb
                    .write_all(frame.as_bytes())
                    .and_then(|()| hb.flush())
                    .is_err()
                {
                    return;
                }
                seq += 1;
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        stop
    }

    /// Blocks until the next `run` command; returns `(key, fence gen)`.
    fn next_run(&mut self) -> (String, u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut line = String::new();
        while Instant::now() < deadline {
            line.clear();
            if self.reader.read_line(&mut line).expect("read command") == 0 {
                panic!("coordinator closed the stream while waiting for a run");
            }
            if let Some(run) = parse_run(&line) {
                return run;
            }
        }
        panic!("timed out waiting for a run command");
    }

    fn send_done(&mut self, key: &str, gen: u64) {
        let hash = if key == "a" { 1 } else { 2 };
        let frame = format!(
            "{{\"ev\":\"done\",\"key\":\"{key}\",\"hash\":{hash},\"result\":\"{{\\\"v\\\":{hash}}}\",\"gen\":{gen}}}\n"
        );
        self.stream.write_all(frame.as_bytes()).unwrap();
        self.stream.flush().unwrap();
    }

    /// Serves until the coordinator sends `exit`, completing every run
    /// with the echoed fence generation. Shuts the socket down on the
    /// way out so the heartbeat thread's clone cannot hold it open.
    fn serve_until_exit(&mut self) {
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            if line.contains("\"op\":\"exit\"") {
                break;
            }
            if let Some((key, gen)) = parse_run(&line) {
                self.send_done(&key, gen);
            }
        }
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

fn parse_run(line: &str) -> Option<(String, u64)> {
    let v: Value = serde_json::from_str(line.trim_end()).ok()?;
    if v.get("op").and_then(Value::as_str) != Some("run") {
        return None;
    }
    // Remote run commands are self-contained: the sweep context rides
    // along instead of arriving in a separate bind frame.
    let dir = v.get("dir").and_then(Value::as_str)?;
    assert!(!dir.is_empty(), "run must carry the sweep dir");
    assert_eq!(v.get("seed").and_then(Value::as_u64), Some(42));
    assert!(v.get("ckpt_interval").and_then(Value::as_u64).is_some());
    let key = v.get("key").and_then(Value::as_str)?.to_string();
    let gen = v.get("gen").and_then(Value::as_u64)?;
    Some((key, gen))
}

fn tick_wait(daemon: &Daemon, what: &str, pred: impl Fn(&Daemon) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if pred(daemon) {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for: {what}");
}

fn journal_records(state_dir: &Path, sweep_id: u64) -> Vec<JournalRecord> {
    let path = state_dir
        .join(format!("sweep-{sweep_id}"))
        .join("faults.manifest.jsonl");
    let header = JournalHeader {
        version: FORMAT_VERSION,
        config_hash: 77,
        seed: 42,
    };
    let (_, records) = Journal::open_resume_records(&path, &header).expect("journal parses");
    records
}

fn good_fp() -> u64 {
    wire::fingerprint(sweepd::manifest::SUPPORTED_EXPERIMENTS)
}

#[test]
fn remote_worker_registers_and_completes_sweep() {
    let dir = scratch("complete");
    let cfg = config(&dir);
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::new(cfg);
    let addr = start(&daemon);

    let id = daemon
        .submit(parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap())
        .expect("submit");

    let mut conn = dial(addr, "", "w-remote-1", wire::PROTO_VERSION, good_fp());
    let (session, gen, resume) = conn.welcome();
    assert!(!session.is_empty());
    assert_eq!(gen, 0, "fresh registration starts at generation 0");
    assert_eq!(resume, None);
    let hb = conn.start_heartbeats();
    let server = std::thread::spawn(move || conn.serve_until_exit());

    tick_wait(&daemon, "sweep done", |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == id && v.status == "done")
    });
    let (view, cells) = daemon.sweep_detail(id).expect("detail");
    assert_eq!(view.done, 2);
    assert_eq!(view.failed, 0);
    assert!(cells.iter().all(|c| c.status == "done"));

    let workers = daemon.worker_views();
    assert_eq!(workers.len(), 1, "remote-only fleet: {workers:?}");
    assert_eq!(workers[0].kind, "remote");
    assert_eq!(workers[0].pid, 0, "remote slots have no local pid");
    assert_eq!(
        workers[0].name, "w-remote-1",
        "healthz reports the self-reported worker identity"
    );

    // Every lease and completion is fence-tagged with the same
    // nonzero generation, and leases name the worker's self-reported
    // identity.
    let records = journal_records(&state_dir, id);
    let mut lease_gens = std::collections::BTreeMap::new();
    for r in &records {
        if let JournalRecord::Lease(l) = r {
            assert_eq!(l.worker, "w-remote-1");
            let g = l.gen.expect("remote leases are fence-tagged");
            assert!(g > 0, "fence generations start at 1");
            lease_gens.insert(l.key.clone(), g);
        }
    }
    assert_eq!(lease_gens.len(), 2);
    for r in &records {
        if let JournalRecord::Cell(c) = r {
            assert_eq!(
                c.gen,
                Some(lease_gens[&c.key]),
                "completion echoes its lease fence"
            );
        }
    }

    daemon.begin_drain();
    tick_wait(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
    hb.store(true, Ordering::Relaxed);
    server.join().unwrap();
}

#[test]
fn handshake_rejects_version_and_fingerprint_mismatches() {
    let dir = scratch("reject");
    let daemon = Daemon::new(config(&dir));
    let addr = start(&daemon);

    let conn = dial(addr, "", "w-old", wire::PROTO_VERSION + 1, good_fp());
    match &conn.reply {
        wire::HandshakeReply::Reject { reason } => {
            assert!(reason.contains("protocol version mismatch"), "{reason}");
        }
        other => panic!("version skew must be rejected, got {other:?}"),
    }

    let conn = dial(addr, "", "w-skewed", wire::PROTO_VERSION, good_fp() ^ 1);
    match &conn.reply {
        wire::HandshakeReply::Reject { reason } => {
            assert!(reason.contains("fingerprint mismatch"), "{reason}");
        }
        other => panic!("config skew must be rejected, got {other:?}"),
    }

    assert_eq!(
        daemon.worker_views().len(),
        0,
        "rejected dials leave no slots"
    );
    daemon.begin_drain();
}

#[test]
fn partitioned_remote_worker_expires_and_cell_migrates() {
    let dir = scratch("partition");
    let cfg = config(&dir);
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::new(cfg);
    let addr = start(&daemon);

    let id = daemon
        .submit(parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap())
        .expect("submit");

    // W1 takes a lease, then partitions: heartbeats stop, the socket
    // stays open. Only the heartbeat deadline can detect this.
    let mut w1 = dial(addr, "", "w-r1", wire::PROTO_VERSION, good_fp());
    let w1_hb = w1.start_heartbeats();
    let (k1, g1) = w1.next_run();
    w1_hb.store(true, Ordering::Relaxed);

    let mut w2 = dial(addr, "", "w-r2", wire::PROTO_VERSION, good_fp());
    let _w2_hb = w2.start_heartbeats();
    let (k2, g2) = w2.next_run();
    assert_ne!(k1, k2);
    w2.send_done(&k2, g2);

    // The deadline fires, W1's lease migrates, and W2 (idle, already
    // bound to the sweep) picks the cell up on the next tick.
    let (k1_retry, g1_retry) = w2.next_run();
    assert_eq!(k1_retry, k1, "the partitioned worker's cell must migrate");
    assert!(g1_retry > g1, "the re-lease must carry a newer fence");
    w2.send_done(&k1, g1_retry);

    tick_wait(&daemon, "sweep done after migration", |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == id && v.status == "done")
    });

    // The healed partition's stale completion must change nothing: its
    // slot is gone and its fence generation is superseded.
    w1.send_done(&k1, g1);
    std::thread::sleep(Duration::from_millis(200));

    let records = journal_records(&state_dir, id);
    let k1_leases: Vec<(u32, String)> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Lease(l) if l.key == k1 => Some((l.attempt, l.worker.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        k1_leases.iter().map(|(a, _)| *a).collect::<Vec<_>>(),
        vec![0, 1],
        "cell must be re-leased exactly once: {k1_leases:?}"
    );
    assert_eq!(k1_leases[0].1, "w-r1");
    assert_eq!(k1_leases[1].1, "w-r2");
    let fails: Vec<String> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Failed(f) => Some(f.error.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(fails.len(), 1, "exactly one charged attempt: {fails:?}");
    assert!(fails[0].contains("heartbeat expired"), "{}", fails[0]);
    let done = records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Cell(_)))
        .count();
    assert_eq!(
        done, 2,
        "the stale completion must not append a third record"
    );

    daemon.begin_drain();
    let server = std::thread::spawn(move || w2.serve_until_exit());
    tick_wait(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
    server.join().unwrap();
}

#[test]
fn reconnect_resumes_lease_and_fences_stale_generations() {
    let dir = scratch("resume");
    let mut cfg = config(&dir);
    // Generous deadline: the redial must comfortably win the race
    // against heartbeat expiry (the deadline doubles as the grace
    // window for exactly this reconnect).
    cfg.heartbeat_deadline = Duration::from_secs(5);
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::new(cfg);
    let addr = start(&daemon);

    let id = daemon
        .submit(parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap())
        .expect("submit");

    // First connection: register, take a lease, then lose the link
    // before completing (the done frame is "lost in flight").
    let mut conn = dial(addr, "", "w-re", wire::PROTO_VERSION, good_fp());
    let (token, gen0, _) = conn.welcome();
    assert_eq!(gen0, 0);
    let hb1 = conn.start_heartbeats();
    let (k1, g1) = conn.next_run();
    hb1.store(true, Ordering::Relaxed);
    conn.stream.shutdown(Shutdown::Both).unwrap();
    drop(conn);

    // Redial with the session token: same slot, bumped generation,
    // and the welcome names the still-held lease.
    let mut conn = dial(addr, &token, "w-re", wire::PROTO_VERSION, good_fp());
    let (session, gen, resume) = conn.welcome();
    assert_eq!(session, token, "resume keeps the session token");
    assert_eq!(gen, 1, "each reconnect bumps the link generation");
    assert_eq!(
        resume.as_deref(),
        Some(k1.as_str()),
        "welcome names the held lease"
    );
    let _hb2 = conn.start_heartbeats();

    // A completion echoing the wrong fence generation is dropped and
    // the lease survives.
    conn.send_done(&k1, g1 + 999);
    std::thread::sleep(Duration::from_millis(300));
    let (view, cells) = daemon.sweep_detail(id).expect("detail");
    assert_eq!(view.done, 0, "fenced completion must not land");
    let cell = cells.iter().find(|c| c.key == k1).unwrap();
    assert_eq!(cell.status, "leased", "the fenced lease must survive");

    // Re-sending with the original fence completes the cell, and the
    // worker then finishes the rest of the sweep over the new link.
    conn.send_done(&k1, g1);
    let (k2, g2) = conn.next_run();
    assert_ne!(k2, k1);
    conn.send_done(&k2, g2);
    tick_wait(&daemon, "sweep done after resume", |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == id && v.status == "done")
    });

    // One slot for the whole story: the redial re-attached instead of
    // registering a second worker.
    let workers = daemon.worker_views();
    assert_eq!(workers.len(), 1, "{workers:?}");
    assert_eq!(workers[0].kind, "remote");
    assert_eq!(workers[0].restarts, 1, "resume counts as a re-attach");

    // No attempt was ever charged: the disconnect stayed within the
    // grace window and the fenced frame is not a failure.
    let records = journal_records(&state_dir, id);
    assert!(
        !records
            .iter()
            .any(|r| matches!(r, JournalRecord::Failed(_))),
        "no failures expected: {records:?}"
    );
    let leases = records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Lease(_)))
        .count();
    assert_eq!(leases, 2, "one lease per cell, none re-leased");

    daemon.begin_drain();
    let server = std::thread::spawn(move || conn.serve_until_exit());
    tick_wait(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
    server.join().unwrap();
}

#[test]
fn drain_escalation_fail_record_names_the_lease_holder() {
    let dir = scratch("drain-kill");
    let mut cfg = config(&dir);
    cfg.drain_grace = Duration::from_millis(300);
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::new(cfg);
    let addr = start(&daemon);

    let id = daemon
        .submit(parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap())
        .expect("submit");

    // The worker takes a lease, keeps heartbeating, and never reads the
    // exit op: only the drain grace can end it.
    let mut conn = dial(addr, "", "w-r1", wire::PROTO_VERSION, good_fp());
    let hb = conn.start_heartbeats();
    let (key, _) = conn.next_run();

    daemon.begin_drain();
    tick_wait(&daemon, "fleet drained by escalation", |d| {
        d.alive_workers() == 0
    });
    hb.store(true, Ordering::Relaxed);

    let fails: Vec<(String, String)> = journal_records(&state_dir, id)
        .into_iter()
        .filter_map(|r| match r {
            JournalRecord::Failed(f) => Some((f.key, f.error)),
            _ => None,
        })
        .collect();
    assert_eq!(fails.len(), 1, "one charged attempt: {fails:?}");
    assert_eq!(fails[0].0, key);
    assert!(
        fails[0].1.contains("worker w-r1 killed after drain grace"),
        "the reason must name the worker that held the lease: {}",
        fails[0].1
    );
    assert!(daemon.unfinished(), "the killed cell is resumable work");
}
