//! `sweepd` worker mode (`--connect <addr>`): a worker process that
//! computes sweep cells on demand.
//!
//! The worker dials the coordinator's worker port — `sweepd` spawns
//! `metanmp-experiments --connect <addr>` into its local slots, and the
//! same command joins from any other host — registers with a
//! [`sweepd::wire`] hello (protocol version, experiment-set
//! fingerprint, session token, its name `w-tcp-<pid>` and its pid), and
//! then speaks newline-delimited JSON over the framed TCP stream:
//!
//! * coordinator → worker:
//!   `{"op":"run","exp":"faults","key":…,"gen":…,"dir":…,"seed":…,"ckpt_interval":…}`
//!   runs one cell; `{"op":"exit"}` ends the worker.
//! * worker → coordinator: `{"ev":"hb","seq":…}` every
//!   `--heartbeat-ms` for liveness (idle workers prove liveness too);
//!   `{"ev":"done","key":…,"hash":…,"result":…,"gen":…}` with the cell's
//!   result JSON (the exact bytes an in-process sweep would journal);
//!   `{"ev":"err",…}` for a failed cell; `{"ev":"interrupted",…}`
//!   before a drain exit.
//!
//! Run commands are self-contained — they carry the sweep directory,
//! seed, and checkpoint interval — so the worker (re)binds its cell
//! context per command and a delayed or reordered frame can never
//! leave it mis-bound. Every run carries a fence generation that the
//! worker echoes on `done`/`err`; the coordinator uses the echo to
//! reject completions from superseded leases. A lost connection is
//! redialed under jittered backoff with the same session token: a
//! still-live slot resumes (the welcome names any held lease, and a
//! completion that failed to send is retransmitted), a reaped slot
//! registers fresh.
//!
//! Robustness contract: the worker checkpoints in-flight cells under
//! `<dir>/inflight-<key>.ckpt` (the standard sweep mechanism), so a
//! worker killed mid-cell — `kill -9` included — loses no more than one
//! checkpoint chunk, and the re-leased cell resumes byte-identically on
//! any other worker pointed at the same directory. SIGTERM drains
//! cooperatively: the in-flight cell stops at its next chunk boundary,
//! persists, and the worker exits 3 ("interrupted, resumable"); an idle
//! worker notices the signal within one read timeout.
//!
//! `--grid <exp>` is the companion one-shot mode: it prints the
//! experiment's cell grid (keys, per-cell config hashes, the sweep
//! hash for the journal header) as one JSON line and exits, giving the
//! coordinator the shard list without hard-coding any experiment
//! knowledge.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use sweepd::manifest::SUPPORTED_EXPERIMENTS;
use sweepd::wire::{self, GridCell, GridDoc};

use crate::common::{Ctx, ExpError, ExpResult, ResultExt, SweepOptions};
use crate::{faults, sweep};

/// One command from the coordinator. Unknown ops are reported as
/// errors, not fatal: a coordinator newer than the worker degrades to
/// structured failures instead of a wedged fleet.
///
/// `gen` is the lease fence echoed back on done/err. Run commands are
/// self-contained (sweep directory, seed, checkpoint interval) so the
/// worker needs no separate bind step.
#[derive(Deserialize, Debug)]
struct WireCmd {
    op: String,
    exp: Option<String>,
    key: Option<String>,
    gen: Option<u64>,
    dir: Option<String>,
    seed: Option<u64>,
    ckpt_interval: Option<u64>,
}

#[derive(Serialize)]
struct HbEv {
    ev: String,
    seq: u64,
}

#[derive(Serialize)]
struct DoneEv {
    ev: String,
    key: String,
    hash: u64,
    result: String,
    /// Fence generation echoed from the run command (`null` only for
    /// commands from a coordinator predating lease fencing).
    gen: Option<u64>,
}

#[derive(Serialize)]
struct ErrEv {
    ev: String,
    key: String,
    error: String,
    gen: Option<u64>,
}

#[derive(Serialize)]
struct InterruptedEv {
    ev: String,
    key: String,
}

/// The grid of an experiment with a distributed cell API.
///
/// Each name in [`SUPPORTED_EXPERIMENTS`] maps to the experiment's
/// `worker_grid` / `worker_run_cell` pair here and in [`run_cell`];
/// extending a new sweep to `sweepd` means adding it to that list and
/// to both matches.
fn grid_of(cx: &Ctx, exp: &str) -> Result<GridDoc, ExpError> {
    match exp {
        "faults" => Ok(GridDoc {
            experiment: exp.to_string(),
            sweep_hash: faults::worker_sweep_hash(cx),
            seed: cx.seed,
            cells: faults::worker_grid(cx)
                .into_iter()
                .map(|(key, hash)| GridCell { key, hash })
                .collect(),
        }),
        other => Err(ExpError::Failed(format!(
            "no distributed cell API for experiment {other:?} (supported: faults)"
        ))),
    }
}

fn run_cell(cx: &Ctx, exp: &str, key: &str) -> Result<(u64, String), ExpError> {
    match exp {
        "faults" => faults::worker_run_cell(cx, key),
        other => Err(ExpError::Failed(format!(
            "no distributed cell API for experiment {other:?} (supported: faults)"
        ))),
    }
}

/// `--grid <exp>`: prints the cell grid as one JSON line and exits.
pub fn print_grid(cx: &Ctx, exp: &str) -> ExpResult {
    let doc = grid_of(cx, exp)?;
    let line = serde_json::to_string(&doc).ctx("grid: serializing")?;
    println!("{line}");
    Ok(())
}

/// Dial attempts a redial loop tolerates back-to-back before giving up
/// (each one waits out a jittered exponential backoff first).
const MAX_CONSECUTIVE_DIALS: u32 = 10;

/// A completion whose send failed with the connection: retransmitted
/// after a successful reconnect when the coordinator's welcome shows
/// the lease is still ours, discarded when it migrated.
struct PendingDone {
    key: String,
    hash: u64,
    result: String,
    gen: u64,
}

/// How a connection's command loop ended.
enum SessionEnd {
    /// Clean shutdown with the process exit code (0 or resumable 3).
    Exit(u8),
    /// The link died; redial with the session token.
    Lost,
}

enum DialError {
    /// The coordinator refused registration; retrying cannot help.
    Rejected(String),
    /// Connect/handshake I/O failure; retry under backoff.
    Io(String),
}

/// Writes one protocol line through the shared connection writer (the
/// heartbeat thread and the command loop interleave whole lines only).
fn send_frame(writer: &Mutex<TcpStream>, line: &str) -> std::io::Result<()> {
    let mut s = writer.lock().expect("link writer");
    s.write_all(line.as_bytes())?;
    s.write_all(b"\n")?;
    s.flush()
}

fn send_event<T: Serialize>(writer: &Mutex<TcpStream>, msg: &T) -> std::io::Result<()> {
    let line = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    send_frame(writer, &line)
}

/// Dials the coordinator and completes the registration handshake.
fn dial(
    addr: &str,
    token: &str,
    name: &str,
    fingerprint: u64,
) -> Result<(TcpStream, String, Option<String>), DialError> {
    let io = |what: &str, e: std::io::Error| DialError::Io(format!("{what}: {e}"));
    let mut stream = TcpStream::connect(addr).map_err(|e| io("connecting", e))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| io("setting handshake timeout", e))?;
    let hello = wire::Hello {
        proto: wire::PROTO_VERSION,
        fingerprint,
        token: token.to_string(),
        worker: name.to_string(),
        pid: std::process::id(),
    };
    stream
        .write_all(wire::render_hello(&hello).as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| io("sending hello", e))?;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    let line = loop {
        match wire::parse_frame(&buf) {
            Ok(wire::FrameStatus::Complete { line, .. }) => break line.to_string(),
            Ok(wire::FrameStatus::Incomplete) => {}
            Err(e) => return Err(DialError::Io(format!("handshake reply: {e}"))),
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(DialError::Io("connection closed during handshake".into())),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(io("reading handshake reply", e)),
        }
    };
    match wire::parse_reply(&line) {
        Ok(wire::HandshakeReply::Welcome {
            session, resume, ..
        }) => Ok((stream, session, resume)),
        Ok(wire::HandshakeReply::Reject { reason }) => Err(DialError::Rejected(reason)),
        Err(e) => Err(DialError::Io(format!("parsing handshake reply: {e}"))),
    }
}

/// `--connect <addr>`: the worker loop. Dials the coordinator,
/// registers, computes leased cells until told to exit, and redials
/// lost connections with its session token. Returns `Ok(exit_code)`
/// so `main` can map a drain to the "interrupted, resumable" code 3.
///
/// # Errors
///
/// [`ExpError::Failed`] when the coordinator rejects registration
/// (version or fingerprint mismatch, draining) or the redial budget is
/// exhausted.
pub fn run_remote_worker(cx: &Ctx, addr: &str, heartbeat_ms: u64) -> Result<u8, ExpError> {
    // A coordinator built with a different experiment list rejects the
    // hello instead of leasing cells this worker cannot run.
    let fingerprint = wire::fingerprint(SUPPORTED_EXPERIMENTS);
    let name = format!("w-tcp-{}", std::process::id());
    let mut backoff =
        faultsim::Backoff::with_jitter(100, 5000, 250, cx.seed ^ u64::from(std::process::id()));
    let mut token = String::new();
    let mut pending: Option<PendingDone> = None;
    let mut failures: u32 = 0;
    loop {
        if sweep::interrupted() {
            return Ok(3);
        }
        let (stream, session, resume) = match dial(addr, &token, &name, fingerprint) {
            Ok(ok) => ok,
            Err(DialError::Rejected(reason)) => {
                return Err(ExpError::Failed(format!(
                    "coordinator {addr} rejected registration: {reason}"
                )));
            }
            Err(DialError::Io(e)) => {
                failures += 1;
                if failures >= MAX_CONSECUTIVE_DIALS {
                    return Err(ExpError::Failed(format!(
                        "giving up on {addr} after {failures} consecutive failed dials: {e}"
                    )));
                }
                eprintln!("worker: dial {addr} failed ({e}); retrying");
                std::thread::sleep(Duration::from_millis(backoff.delay(failures - 1)));
                continue;
            }
        };
        failures = 0;
        token = session;
        match run_session(cx, stream, resume, &mut pending, heartbeat_ms) {
            SessionEnd::Exit(code) => return Ok(code),
            SessionEnd::Lost => {
                std::thread::sleep(Duration::from_millis(backoff.delay(0)));
            }
        }
    }
}

/// One connection's command loop: flush any retransmit, heartbeat in
/// the background, compute runs until exit/interrupt/link loss.
fn run_session(
    cx: &Ctx,
    stream: TcpStream,
    resume: Option<String>,
    pending: &mut Option<PendingDone>,
    heartbeat_ms: u64,
) -> SessionEnd {
    let Ok(reader) = stream.try_clone() else {
        return SessionEnd::Lost;
    };
    let writer = Arc::new(Mutex::new(stream));

    // Reconcile the welcome's resume lease with our stash: re-send a
    // completion that was lost in flight; report a lease we no longer
    // have state for (interrupted mid-cell) so the coordinator charges
    // and re-leases it now instead of waiting out the cell timeout.
    match (resume, pending.take()) {
        (Some(key), Some(p)) if p.key == key => {
            if send_event(
                &writer,
                &DoneEv {
                    ev: "done".into(),
                    key: p.key.clone(),
                    hash: p.hash,
                    result: p.result.clone(),
                    gen: Some(p.gen),
                },
            )
            .is_err()
            {
                *pending = Some(p);
                return SessionEnd::Lost;
            }
        }
        (Some(key), stale) => {
            drop(stale); // completion for a lease the coordinator migrated
            let _ = send_event(
                &writer,
                &ErrEv {
                    ev: "err".into(),
                    key,
                    error: "reconnected without the cell's in-memory state".into(),
                    gen: None,
                },
            );
        }
        (None, _) => {} // idle registration; any stash is for a migrated lease
    }

    // Per-connection liveness heartbeat; exits with the connection.
    static HB_SEQ: AtomicU64 = AtomicU64::new(0);
    let alive = Arc::new(AtomicBool::new(true));
    {
        let writer = Arc::clone(&writer);
        let alive = Arc::clone(&alive);
        std::thread::spawn(move || {
            while alive.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(heartbeat_ms.max(1)));
                let beat = HbEv {
                    ev: "hb".into(),
                    seq: HB_SEQ.fetch_add(1, Ordering::Relaxed),
                };
                if send_event(&writer, &beat).is_err() {
                    return;
                }
            }
        });
    }
    let end = command_loop(cx, reader, &writer, pending);
    alive.store(false, Ordering::Relaxed);
    end
}

fn command_loop(
    cx: &Ctx,
    mut reader: TcpStream,
    writer: &Mutex<TcpStream>,
    pending: &mut Option<PendingDone>,
) -> SessionEnd {
    // Short read timeouts so interrupts are noticed while idle; the
    // coordinator sends nothing between leases, so a timeout is not a
    // liveness signal here.
    if reader
        .set_read_timeout(Some(Duration::from_millis(500)))
        .is_err()
    {
        return SessionEnd::Lost;
    }
    let mut cell_cx: Option<(Ctx, String, u64, u64)> = None; // (ctx, dir, seed, interval)
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Drain complete frames before reading more.
        while let Ok(wire::FrameStatus::Complete { line, consumed }) = wire::parse_frame(&buf) {
            let line = line.to_string();
            buf.drain(..consumed);
            match handle_command(cx, writer, &mut cell_cx, pending, &line) {
                Ok(None) => {}
                Ok(Some(end)) => return end,
                Err(()) => return SessionEnd::Lost,
            }
        }
        if wire::parse_frame(&buf).is_err() {
            // Oversized frame: protocol violation, drop the link.
            return SessionEnd::Lost;
        }
        if sweep::interrupted() {
            return SessionEnd::Exit(3);
        }
        match reader.read(&mut chunk) {
            Ok(0) => return SessionEnd::Lost,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return SessionEnd::Lost,
        }
    }
}

/// Applies one command line. `Ok(Some(end))` ends the session,
/// `Err(())` means the link died mid-send.
fn handle_command(
    cx: &Ctx,
    writer: &Mutex<TcpStream>,
    cell_cx: &mut Option<(Ctx, String, u64, u64)>,
    pending: &mut Option<PendingDone>,
    line: &str,
) -> Result<Option<SessionEnd>, ()> {
    if line.trim().is_empty() {
        return Ok(None);
    }
    let send_err = |writer: &Mutex<TcpStream>, key: String, error: String, gen: Option<u64>| {
        send_event(
            writer,
            &ErrEv {
                ev: "err".into(),
                key,
                error,
                gen,
            },
        )
        .map_err(|_| ())
    };
    let cmd: WireCmd = match serde_json::from_str(line) {
        Ok(c) => c,
        Err(e) => {
            // A scripted corrupt fault lands here: report and continue.
            send_err(
                writer,
                String::new(),
                format!("malformed command: {e}"),
                None,
            )?;
            return Ok(None);
        }
    };
    match cmd.op.as_str() {
        "exit" => Ok(Some(SessionEnd::Exit(0))),
        "run" => {
            let (Some(exp), Some(key), Some(dir), Some(seed), Some(interval)) = (
                cmd.exp.as_deref(),
                cmd.key.as_deref(),
                cmd.dir.as_deref(),
                cmd.seed,
                cmd.ckpt_interval,
            ) else {
                send_err(
                    writer,
                    cmd.key.unwrap_or_default(),
                    "run command needs exp/key/dir/seed/ckpt_interval".into(),
                    cmd.gen,
                )?;
                return Ok(None);
            };
            // (Re)bind the cell context when the sweep coordinates
            // change; every run is self-contained so reordered frames
            // cannot leave us mis-bound.
            let rebind = !matches!(
                cell_cx,
                Some((_, d, s, i)) if d == dir && *s == seed && *i == interval
            );
            if rebind {
                *cell_cx = Some((
                    Ctx::new(
                        seed,
                        Some(SweepOptions {
                            dir: dir.into(),
                            resume: false,
                            interval,
                        }),
                        cx.jobs,
                    ),
                    dir.to_string(),
                    seed,
                    interval,
                ));
            }
            let bound = &cell_cx.as_ref().expect("bound above").0;
            match run_cell(bound, exp, key) {
                Ok((hash, result)) => {
                    let done = DoneEv {
                        ev: "done".into(),
                        key: key.to_string(),
                        hash,
                        result: result.clone(),
                        gen: cmd.gen,
                    };
                    if send_event(writer, &done).is_err() {
                        // Stash for retransmit after reconnect.
                        *pending = Some(PendingDone {
                            key: key.to_string(),
                            hash,
                            result,
                            gen: cmd.gen.unwrap_or(0),
                        });
                        return Err(());
                    }
                    Ok(None)
                }
                Err(ExpError::Interrupted { .. }) => {
                    let _ = send_event(
                        writer,
                        &InterruptedEv {
                            ev: "interrupted".into(),
                            key: key.to_string(),
                        },
                    );
                    Ok(Some(SessionEnd::Exit(3)))
                }
                Err(e) => {
                    send_err(writer, key.to_string(), e.to_string(), cmd.gen)?;
                    Ok(None)
                }
            }
        }
        other => {
            send_err(writer, String::new(), format!("unknown op {other:?}"), None)?;
            Ok(None)
        }
    }
}
