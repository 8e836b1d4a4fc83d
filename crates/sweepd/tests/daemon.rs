//! End-to-end supervision tests against a scripted stand-in worker.
//!
//! The daemon only sees the worker *protocol* (grid one-shot, then a
//! registration handshake and JSONL over the TCP link each spawned
//! child dials), so a bash script speaking it over `/dev/tcp` makes
//! every failure mode deterministic: a worker that completes cells, one
//! that goes silent mid-lease (heartbeat expiry → crash migration),
//! fleets below the floor (shedding). Timing margins are generous for
//! slow CI boxes.

#![cfg(unix)]

use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use checkpoint::manifest::{Journal, JournalHeader, JournalRecord};
use checkpoint::FORMAT_VERSION;
use sweepd::{parse_manifest, remote, wire, CancelError, Daemon, DaemonConfig};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweepd-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes an executable worker script. `cell_logic` is the shell `case`
/// body handling `run` commands (the command line is in `$line`).
/// Spawned as `--connect <host:port>`, the script dials the daemon,
/// registers under its own pid, and then speaks the event protocol on
/// stdin/stdout redirected to the socket.
fn write_worker_script(dir: &Path, cell_logic: &str) -> PathBuf {
    let path = dir.join("fake-worker.sh");
    let script = format!(
        r#"#!/bin/bash
if [ "$1" = "--grid" ]; then
  printf '%s\n' '{{"experiment":"faults","sweep_hash":77,"seed":42,"cells":[{{"key":"a","hash":1}},{{"key":"b","hash":2}}]}}'
  exit 0
fi
if [ "$1" != "--connect" ]; then
  exit 0
fi
exec 3<>"/dev/tcp/${{2%:*}}/${{2##*:}}" || exit 1
printf '%s\n' '{{"hello":{{"proto":{proto},"fingerprint":{fp},"token":"","worker":"w-tcp-'$$'","pid":'$$'}}}}' >&3
read -r welcome <&3
case "$welcome" in *'"welcome"'*) ;; *) exit 1 ;; esac
exec <&3 >&3
( while :; do printf '%s\n' '{{"ev":"hb","seq":0}}'; sleep 0.05; done ) &
HB=$!
trap 'kill $HB 2>/dev/null' EXIT
trap 'kill $HB 2>/dev/null; exit 3' TERM INT
while read -r line; do
  case "$line" in
    *'"op":"exit"'*) exit 0 ;;
{cell_logic}
  esac
done
exit 0
"#,
        proto = wire::PROTO_VERSION,
        fp = wire::fingerprint(sweepd::manifest::SUPPORTED_EXPERIMENTS),
    );
    std::fs::write(&path, script).unwrap();
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
    path
}

fn config(dir: &Path, script: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(
        vec!["/bin/bash".to_string(), script.display().to_string()],
        dir.join("state"),
    );
    cfg.heartbeat_deadline = Duration::from_millis(600);
    cfg.heartbeat_ms = 50;
    cfg.backoff_base_ms = 10;
    cfg.backoff_cap_ms = 100;
    cfg
}

/// Creates the daemon and binds its worker listener on a loopback port,
/// returning once the address is recorded for spawned workers.
fn start(cfg: DaemonConfig) -> Arc<Daemon> {
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
    daemon
}

/// Ticks the daemon until `pred` holds or the deadline passes.
fn tick_until(daemon: &Daemon, what: &str, pred: impl Fn(&Daemon) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        daemon.tick();
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

#[test]
fn sweep_runs_to_completion_with_leases_journaled() {
    let dir = scratch("complete");
    let script = write_worker_script(
        &dir,
        r#"    *'"key":"a"'*) printf '%s\n' '{"ev":"done","key":"a","hash":1,"result":"{\"v\":1}"}' ;;
    *'"key":"b"'*) printf '%s\n' '{"ev":"done","key":"b","hash":2,"result":"{\"v\":2}"}' ;;"#,
    );
    let cfg = config(&dir, &script);
    let state_dir = cfg.state_dir.clone();
    let daemon = start(cfg);

    let manifest = parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap();
    let id = daemon.submit(manifest).expect("submit");
    tick_until(&daemon, "sweep done", |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == id && v.status == "done")
    });

    let (view, cells) = daemon.sweep_detail(id).expect("detail");
    assert_eq!(view.done, 2);
    assert_eq!(view.failed, 0);
    assert!(cells.iter().all(|c| c.status == "done"));

    // The journal holds a lease per cell and both completions, and
    // resumes cleanly (leases compact away; completions replay).
    let records = journal_records(&state_dir, id);
    let leases: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Lease(l) => Some(l.key.clone()),
            _ => None,
        })
        .collect();
    let mut done: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Cell(c) => Some((c.key.clone(), c.result_json.clone())),
            _ => None,
        })
        .collect();
    done.sort();
    assert_eq!(leases, vec!["a".to_string(), "b".to_string()]);
    assert_eq!(
        done,
        vec![
            ("a".to_string(), "{\"v\":1}".to_string()),
            ("b".to_string(), "{\"v\":2}".to_string()),
        ]
    );

    daemon.begin_drain();
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
}

#[test]
fn dead_worker_is_detected_and_cell_migrates() {
    let dir = scratch("migrate");
    // Cell "b" hangs silently (kills its own heartbeat) on the first
    // attempt; the marker file makes the retried lease succeed.
    let marker = dir.join("b-attempted");
    let cell_logic = format!(
        r#"    *'"key":"a"'*) printf '%s\n' '{{"ev":"done","key":"a","hash":1,"result":"{{\"v\":1}}"}}' ;;
    *'"key":"b"'*)
      if [ -e {marker} ]; then
        printf '%s\n' '{{"ev":"done","key":"b","hash":2,"result":"{{\"v\":2}}"}}'
      else
        : > {marker}
        kill $HB 2>/dev/null
        sleep 60
      fi ;;"#,
        marker = marker.display()
    );
    let script = write_worker_script(&dir, &cell_logic);
    let cfg = config(&dir, &script);
    let state_dir = cfg.state_dir.clone();
    let daemon = start(cfg);

    let manifest = parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap();
    let id = daemon.submit(manifest).expect("submit");
    tick_until(&daemon, "sweep done after migration", |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == id && v.status == "done")
    });

    // The journal tells the whole story: cell "b" leased twice
    // (attempts 0 and 1), one failed attempt naming the heartbeat
    // expiry, and exactly one completion per cell.
    let records = journal_records(&state_dir, id);
    let b_leases: Vec<(u32, String)> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Lease(l) if l.key == "b" => Some((l.attempt, l.worker.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        b_leases.iter().map(|(a, _)| *a).collect::<Vec<_>>(),
        vec![0, 1],
        "cell b must be re-leased once: {b_leases:?}"
    );
    assert_ne!(
        b_leases[0].1, b_leases[1].1,
        "the retry must migrate to the surviving worker: {b_leases:?}"
    );
    let fails: Vec<String> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Failed(f) => Some(f.error.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(fails.len(), 1, "exactly one failed attempt: {fails:?}");
    assert!(
        fails[0].contains("heartbeat expired"),
        "failure must name the heartbeat: {}",
        fails[0]
    );
    let done_count = records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Cell(_)))
        .count();
    assert_eq!(done_count, 2);

    daemon.begin_drain();
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
}

#[test]
fn fleet_below_floor_sheds_lowest_priority_sweep() {
    let dir = scratch("shed");
    let script = write_worker_script(
        &dir,
        r#"    *'"key":"a"'*) printf '%s\n' '{"ev":"done","key":"a","hash":1,"result":"{\"v\":1}"}' ;;
    *'"key":"b"'*) printf '%s\n' '{"ev":"done","key":"b","hash":2,"result":"{\"v\":2}"}' ;;"#,
    );
    let mut cfg = config(&dir, &script);
    cfg.workers = 1;
    cfg.fleet_floor = 2; // unmeetable: degradation is permanent
    let daemon = start(cfg);

    let low = daemon
        .submit(
            parse_manifest(br#"{"experiment":"faults","priority":1,"finalize":false}"#).unwrap(),
        )
        .expect("submit low");
    let high = daemon
        .submit(
            parse_manifest(br#"{"experiment":"faults","priority":5,"finalize":false}"#).unwrap(),
        )
        .expect("submit high");

    tick_until(&daemon, "low-priority sweep shed", |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == low && v.status == "shed")
    });
    let views = daemon.sweep_views();
    let low_view = views.iter().find(|v| v.id == low).unwrap();
    assert!(
        low_view.detail.contains("fleet degradation"),
        "shed reason must be structured: {:?}",
        low_view.detail
    );

    // The surviving sweep still completes on the degraded fleet.
    tick_until(&daemon, "high-priority sweep done", |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == high && v.status == "done")
    });

    daemon.begin_drain();
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
}

#[test]
fn fresh_fleet_runs_concurrent_sweeps_without_shedding() {
    let dir = scratch("fresh-floor");
    let script = write_worker_script(
        &dir,
        r#"    *'"key":"a"'*) printf '%s\n' '{"ev":"done","key":"a","hash":1,"result":"{\"v\":1}"}' ;;
    *'"key":"b"'*) printf '%s\n' '{"ev":"done","key":"b","hash":2,"result":"{\"v\":2}"}' ;;"#,
    );
    // Default floor of 1 on a fleet that has not started yet: slots
    // that never died are not down, so nothing may be shed.
    let daemon = start(config(&dir, &script));
    let manifest = |priority: u32| {
        let body = format!(r#"{{"experiment":"faults","priority":{priority},"finalize":false}}"#);
        parse_manifest(body.as_bytes()).unwrap()
    };
    let low = daemon.submit(manifest(1)).expect("submit low");
    let high = daemon.submit(manifest(5)).expect("submit high");

    tick_until(&daemon, "both sweeps done", |d| {
        d.sweep_views().iter().all(|v| v.status == "done")
    });
    let views = daemon.sweep_views();
    assert!(views.iter().any(|v| v.id == low), "{views:?}");
    assert!(views.iter().any(|v| v.id == high), "{views:?}");

    // Each spawned child registered into its own slot by pid: no
    // stray remote slots, and healthz reports the hello's pid.
    let workers = daemon.worker_views();
    assert_eq!(workers.len(), 2, "{workers:?}");
    for w in &workers {
        assert_eq!(w.kind, "local", "{w:?}");
        assert!(w.pid > 0, "{w:?}");
        assert_eq!(w.name, format!("w-tcp-{}", w.pid), "{w:?}");
    }

    daemon.begin_drain();
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
}

#[test]
fn child_that_never_registers_is_killed_and_respawned() {
    let dir = scratch("unregistered");
    // Answers the grid, then never dials the worker listener.
    let script = dir.join("silent-worker.sh");
    std::fs::write(
        &script,
        r#"#!/bin/bash
if [ "$1" = "--grid" ]; then
  printf '%s\n' '{"experiment":"faults","sweep_hash":77,"seed":42,"cells":[{"key":"a","hash":1}]}'
  exit 0
fi
exec sleep 60
"#,
    )
    .unwrap();
    let mut cfg = config(&dir, &script);
    cfg.workers = 1;
    let state_dir = cfg.state_dir.clone();
    let daemon = start(cfg);
    let id = daemon
        .submit(parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap())
        .expect("submit");

    // The registration deadline is the heartbeat deadline: the silent
    // child is killed and a fresh one spawned under backoff.
    tick_until(&daemon, "unregistered child respawned", |d| {
        d.worker_views()[0].restarts >= 1
    });
    let w = &daemon.worker_views()[0];
    assert_eq!(w.kind, "local", "{w:?}");
    assert_eq!(w.pid, 0, "no hello, no pid: {w:?}");
    assert!(
        journal_records(&state_dir, id).is_empty(),
        "nothing was leased, so nothing is charged"
    );

    daemon.begin_drain();
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(daemon.unfinished(), "the sweep never ran");
}

/// One raw HTTP exchange against the server (one request per
/// connection, so each call dials fresh).
fn http(addr: std::net::SocketAddr, request: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

#[test]
fn http_control_plane_round_trips() {
    let dir = scratch("http");
    let script = write_worker_script(
        &dir,
        r#"    *'"key":"a"'*) printf '%s\n' '{"ev":"done","key":"a","hash":1,"result":"{\"v\":1}"}' ;;
    *'"key":"b"'*) printf '%s\n' '{"ev":"done","key":"b","hash":2,"result":"{\"v\":2}"}' ;;"#,
    );
    let daemon = start(config(&dir, &script));

    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    {
        let daemon = std::sync::Arc::clone(&daemon);
        std::thread::spawn(move || {
            sweepd::server::serve(&daemon, "127.0.0.1:0", move |addr| {
                addr_tx.send(addr).unwrap();
            })
            .expect("serve");
        });
    }
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server bound");
    {
        let daemon = std::sync::Arc::clone(&daemon);
        std::thread::spawn(move || {
            while !(daemon.draining() && daemon.alive_workers() == 0) {
                daemon.tick();
                std::thread::sleep(Duration::from_millis(20));
            }
        });
    }

    // Malformed manifest → structured 400 naming the field.
    let bad = http(
        addr,
        "POST /sweeps HTTP/1.1\r\nContent-Length: 20\r\n\r\n{\"experiment\":\"no\"}x",
    );
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

    // Valid manifest → 201 with the sweep id.
    let body = r#"{"experiment":"faults","finalize":false}"#;
    let created = http(
        addr,
        &format!(
            "POST /sweeps HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(created.starts_with("HTTP/1.1 201"), "{created}");
    assert!(created.contains("{\"id\":1}"), "{created}");

    // Progress streams from GET /sweeps/1 until done.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = http(addr, "GET /sweeps/1 HTTP/1.1\r\n\r\n");
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        if status.contains("\"status\":\"done\"") {
            break;
        }
        assert!(Instant::now() < deadline, "sweep never finished: {status}");
        std::thread::sleep(Duration::from_millis(50));
    }

    let health = http(addr, "GET /healthz HTTP/1.1\r\n\r\n");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(http(addr, "GET /sweeps/99 HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 404"));

    // Cancel routes: a finished sweep is terminal (409 naming the
    // state), an unknown id is 404.
    let conflict = http(addr, "POST /sweeps/1/cancel HTTP/1.1\r\n\r\n");
    assert!(conflict.starts_with("HTTP/1.1 409"), "{conflict}");
    assert!(conflict.contains("already done"), "{conflict}");
    assert!(http(addr, "POST /sweeps/99/cancel HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 404"));

    // Shutdown drains and the accept loop winds down.
    let bye = http(addr, "POST /shutdown HTTP/1.1\r\n\r\n");
    assert!(bye.starts_with("HTTP/1.1 202"), "{bye}");
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
}

#[test]
fn cancel_revokes_leases_and_collects_inflight_checkpoints() {
    let dir = scratch("cancel");
    // Cell "a" completes; cell "b" runs forever (with heartbeats), so
    // only a cancel can end the sweep.
    let script = write_worker_script(
        &dir,
        r#"    *'"key":"a"'*) printf '%s\n' '{"ev":"done","key":"a","hash":1,"result":"{\"v\":1}"}' ;;
    *'"key":"b"'*) sleep 60 & wait $! ;;"#,
    );
    let cfg = config(&dir, &script);
    let state_dir = cfg.state_dir.clone();
    let daemon = start(cfg);

    let manifest = parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap();
    let id = daemon.submit(manifest).expect("submit");
    tick_until(&daemon, "cell b leased", |d| {
        d.sweep_detail(id)
            .is_some_and(|(_, cells)| cells.iter().any(|c| c.key == "b" && c.status == "leased"))
    });

    // Plant an orphaned in-flight checkpoint, as a worker killed
    // mid-cell would leave behind.
    let sweep_dir = state_dir.join(format!("sweep-{id}"));
    let orphan = sweep_dir.join("inflight-b.ckpt");
    std::fs::write(&orphan, b"{}").unwrap();

    assert_eq!(daemon.cancel(id), Ok(true));
    assert_eq!(daemon.cancel(id), Ok(false), "second cancel is idempotent");
    assert_eq!(daemon.cancel(99), Err(CancelError::NotFound));

    assert!(
        !orphan.exists(),
        "cancel must gc orphaned inflight checkpoints"
    );
    let (view, cells) = daemon.sweep_detail(id).expect("detail");
    assert_eq!(view.status, "cancelled");
    assert!(
        cells.iter().all(|c| c.status != "leased"),
        "cancel must revoke every lease: {cells:?}"
    );
    assert!(
        daemon.worker_views().iter().all(|w| w.lease.is_empty()),
        "workers must not report revoked leases"
    );

    daemon.begin_drain();
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(
        !daemon.unfinished(),
        "a cancelled sweep is not resumable work"
    );
}

#[test]
fn leased_cell_past_wall_clock_budget_is_charged_and_retried() {
    let dir = scratch("timeout");
    // Cell "b" keeps heartbeating but never finishes on the first
    // attempt — only the wall-clock budget can unwedge it.
    let marker = dir.join("b-slow-attempted");
    let cell_logic = format!(
        r#"    *'"key":"a"'*) printf '%s\n' '{{"ev":"done","key":"a","hash":1,"result":"{{\"v\":1}}"}}' ;;
    *'"key":"b"'*)
      if [ -e {marker} ]; then
        printf '%s\n' '{{"ev":"done","key":"b","hash":2,"result":"{{\"v\":2}}"}}'
      else
        : > {marker}
        sleep 60 & wait $!
      fi ;;"#,
        marker = marker.display()
    );
    let script = write_worker_script(&dir, &cell_logic);
    let cfg = config(&dir, &script);
    let state_dir = cfg.state_dir.clone();
    let daemon = start(cfg);

    let manifest =
        parse_manifest(br#"{"experiment":"faults","cell_timeout_s":1,"finalize":false}"#).unwrap();
    let id = daemon.submit(manifest).expect("submit");
    tick_until(&daemon, "sweep done after cell timeout", |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == id && v.status == "done")
    });

    let records = journal_records(&state_dir, id);
    let fails: Vec<String> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Failed(f) if f.key == "b" => Some(f.error.clone()),
            _ => None,
        })
        .collect();
    assert!(
        fails.iter().any(|e| e.contains("wall-clock budget")),
        "timeout must be journaled with a structured reason: {fails:?}"
    );

    daemon.begin_drain();
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
}
