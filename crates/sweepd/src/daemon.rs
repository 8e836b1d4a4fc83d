//! The sweep-service core: sweep state, the supervised worker fleet,
//! and the supervision tick.
//!
//! # Supervision model
//!
//! The daemon owns a fleet of worker *slots*. Every worker reaches the
//! daemon the same way: it dials the worker listener, completes the
//! [`crate::wire`] registration handshake, and then speaks JSONL over
//! the framed TCP stream. *Local* slots are fixed at startup; the
//! daemon spawns `metanmp-experiments --connect <listener>` into them
//! and respawns them under backoff. A registration from this host whose
//! hello `pid` matches a spawned child still waiting for its link
//! attaches to that child's slot; every other registration appends a
//! *remote* slot, which the daemon never respawns — a remote worker
//! that dies simply redials. Each link's read side is drained by a
//! dedicated reader thread that timestamps every delivered frame
//! (heartbeats included) and forwards protocol events to the
//! supervisor over a channel.
//!
//! The supervision tick, run every few tens of milliseconds:
//!
//! 1. applies worker events (completions journaled idempotently,
//!    errors charged against the cell's retry budget),
//! 2. declares workers dead when their last frame is older than the
//!    heartbeat deadline (a spawned child that has not registered
//!    within it counts too), and cancels leases older than the cell's
//!    wall-clock budget,
//! 3. reaps exited children; a death while holding a lease journals a
//!    [`FailRecord`] and returns the cell to the pending queue —
//!    *crash migration*: the next lease (any healthy worker) resumes
//!    from the cell's `inflight-<key>.ckpt` byte-identically,
//! 4. sheds the lowest-priority sweeps (structured reason, never
//!    silent) while fewer slots than the floor are up,
//! 5. advances sweep lifecycle (all cells done → optional finalize
//!    pass producing the standard artifacts),
//! 6. spawns empty local slots past their jittered exponential backoff
//!    while work is pending,
//! 7. leases pending cells to idle registered workers — or, once a
//!    drain has begun, signals and reaps the fleet instead of 6–7.
//!
//! # Lease fencing
//!
//! Every lease carries a daemon-global, monotonically increasing
//! *fence generation*. The run command echoes it to the worker, the
//! worker echoes it back on `done`/`err`, and a completion whose echo
//! does not match the live lease's generation is counted under
//! `sweepd.cells.fenced` and dropped: a worker that was partitioned
//! away, had its cell migrated, and later reconnects cannot overwrite
//! the replacement's result. The journal applies the same rule on
//! resume (see `checkpoint::manifest`), so fencing holds even across a
//! daemon restart.
//!
//! # Liveness and reconnection
//!
//! The reader thread timestamps each *delivered* frame, so a network
//! partition (or a scripted [`faultsim::Netem`] partition window)
//! starves the timestamp exactly like a hung process and triggers the
//! same crash-migration path. A worker that lost its connection
//! redials with its session token: if its slot is still live, the link
//! is re-attached in place (a new generation invalidates the stale
//! reader) and the welcome names any still-held lease so the worker
//! can re-send a completion that was lost in flight; if the slot was
//! already reaped, the worker observes a fresh registration (empty
//! resume) and knows its old lease migrated.
//!
//! The journal under each sweep's directory is the single source of
//! truth: `faults.manifest.jsonl` with the exact header the in-process
//! sweep would write, so `metanmp-experiments faults --resume <dir>`
//! replays a daemon-run sweep into byte-identical `results/` artifacts.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use checkpoint::manifest::{cell_record_fenced, FailRecord, Journal, JournalHeader, LeaseRecord};
use checkpoint::FORMAT_VERSION;
use faultsim::{Backoff, NetDir, Netem, NetemConfig, Scenario};
use serde::value::Value;
use serde::{Deserialize, Serialize};

use crate::manifest::SweepManifest;
use crate::wire;

/// Daemon-wide configuration, fixed at startup.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker command prefix (the experiments binary, or a stand-in
    /// under test); mode flags are appended per invocation.
    pub worker_cmd: Vec<String>,
    /// Local worker slots in the fleet, spawned as `--connect` children
    /// of the worker listener. Zero is allowed: a daemon can run
    /// entirely on remote workers that dial in from other hosts.
    pub workers: usize,
    /// Root directory for per-sweep state (`<state_dir>/sweep-<id>/`).
    pub state_dir: PathBuf,
    /// A worker whose last frame is older than this is dead; a spawned
    /// child must register within it.
    pub heartbeat_deadline: Duration,
    /// Heartbeat period passed to workers via `--heartbeat-ms`.
    pub heartbeat_ms: u64,
    /// Minimum healthy fleet; below it, low-priority sweeps are shed.
    pub fleet_floor: usize,
    /// Default per-cell wall-clock budget (manifest can override).
    pub default_cell_timeout_s: Option<u64>,
    /// Default per-cell retry budget (manifest can override).
    pub default_retry_budget: u32,
    /// Base respawn backoff in milliseconds.
    pub backoff_base_ms: u64,
    /// Respawn backoff cap in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed for the jittered respawn backoff (deterministic in tests).
    pub backoff_seed: u64,
    /// `--ckpt-interval` forwarded to workers and the finalize pass.
    pub ckpt_interval: u64,
    /// How long a drain waits for workers to persist and exit before
    /// escalating to SIGKILL.
    pub drain_grace: Duration,
    /// Scripted network-fault schedule applied to worker links, spawned
    /// workers included (`net*` directives; an empty scenario is a
    /// byte-exact no-op). Streams are numbered in registration order,
    /// starting at 0.
    pub netem: Scenario,
}

impl DaemonConfig {
    /// Reasonable defaults around a worker command.
    pub fn new(worker_cmd: Vec<String>, state_dir: PathBuf) -> Self {
        DaemonConfig {
            worker_cmd,
            workers: 2,
            state_dir,
            heartbeat_deadline: Duration::from_millis(2000),
            heartbeat_ms: 100,
            fleet_floor: 1,
            default_cell_timeout_s: None,
            default_retry_budget: 2,
            backoff_base_ms: 50,
            backoff_cap_ms: 5000,
            backoff_seed: 0x5eed_5eed_5eed_5eed,
            ckpt_interval: 256,
            drain_grace: Duration::from_secs(10),
            netem: Scenario::empty(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellStatus {
    Pending,
    Leased,
    Done,
    Failed,
}

#[derive(Debug)]
struct Cell {
    key: String,
    hash: u64,
    attempts: u32,
    status: CellStatus,
}

/// Lifecycle of a submitted sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepStatus {
    /// Cells are being leased and computed.
    Running,
    /// All cells done; the finalize pass is producing artifacts.
    Finalizing,
    /// Complete (artifacts under the sweep directory when finalized).
    Done,
    /// Failed with a structured reason.
    Failed(String),
    /// Shed under fleet degradation, with the structured reason.
    Shed(String),
    /// Cancelled on request; in-flight checkpoints are collected.
    Cancelled,
}

impl SweepStatus {
    fn label(&self) -> &'static str {
        match self {
            SweepStatus::Running => "running",
            SweepStatus::Finalizing => "finalizing",
            SweepStatus::Done => "done",
            SweepStatus::Failed(_) => "failed",
            SweepStatus::Shed(_) => "shed",
            SweepStatus::Cancelled => "cancelled",
        }
    }

    fn detail(&self) -> String {
        match self {
            SweepStatus::Failed(r) | SweepStatus::Shed(r) => r.clone(),
            _ => String::new(),
        }
    }

    /// Whether resumable work would be lost if the daemon exited now.
    fn unfinished(&self) -> bool {
        matches!(self, SweepStatus::Running | SweepStatus::Finalizing)
    }
}

struct Sweep {
    id: u64,
    manifest: SweepManifest,
    dir: PathBuf,
    cells: Vec<Cell>,
    journal: Journal,
    status: SweepStatus,
    finalize_child: Option<Child>,
}

impl Sweep {
    fn cell_timeout(&self, cfg: &DaemonConfig) -> Option<Duration> {
        self.manifest
            .cell_timeout_s
            .or(cfg.default_cell_timeout_s)
            .map(Duration::from_secs)
    }

    fn retry_budget(&self, cfg: &DaemonConfig) -> u32 {
        self.manifest
            .retry_budget
            .unwrap_or(cfg.default_retry_budget)
    }

    fn has_pending(&self) -> bool {
        self.status == SweepStatus::Running
            && self.cells.iter().any(|c| c.status == CellStatus::Pending)
    }
}

/// Events parsed off a worker's link by its reader thread. `gen` is
/// the fence generation echoed from the run command; events from
/// workers predating the fencing protocol carry `None` and fall back
/// to the slot-generation guard alone.
#[derive(Debug)]
enum WorkerEvent {
    Done {
        key: String,
        result: String,
        gen: Option<u64>,
    },
    Err {
        key: String,
        error: String,
        gen: Option<u64>,
    },
    Interrupted {
        key: String,
    },
    Eof,
}

fn parse_event(line: &str) -> Option<WorkerEvent> {
    let v: Value = serde_json::from_str(line).ok()?;
    let get_str = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
    let gen = v.get("gen").and_then(Value::as_u64);
    match v.get("ev").and_then(Value::as_str)? {
        "done" => Some(WorkerEvent::Done {
            key: get_str("key")?,
            result: get_str("result")?,
            gen,
        }),
        "err" => Some(WorkerEvent::Err {
            key: get_str("key")?,
            error: get_str("error").unwrap_or_default(),
            gen,
        }),
        "interrupted" => Some(WorkerEvent::Interrupted {
            key: get_str("key")?,
        }),
        // Heartbeats carry no payload the supervisor needs: the reader
        // thread already timestamped the frame.
        _ => None,
    }
}

struct LeaseInfo {
    sweep_id: u64,
    key: String,
    started: Instant,
    /// Fence generation journaled with the lease and echoed by the
    /// worker; completions with a different echo are fenced.
    gen: u64,
}

/// A registered worker's TCP link (the write side; a reader thread
/// owns a clone of the stream).
struct Link {
    writer: TcpStream,
    /// Session token the worker redials with.
    session: String,
    /// Worker-chosen identity from the hello (lease records).
    name: String,
    /// OS pid from the hello (0 when the worker omits it).
    pid: u32,
    /// Netem stream id (registration order), kept across resumes.
    stream: u64,
    /// Coordinator-side egress fault injector, when active.
    netem: Option<Netem>,
}

struct Proc {
    /// `None` while a spawned child has not registered yet.
    link: Option<Link>,
    /// The process behind a slot this daemon spawned.
    child: Option<Child>,
    /// Updated by the reader thread on every delivered frame; a spawned
    /// child's spawn time until it registers.
    last_line: Arc<Mutex<Instant>>,
    /// Generation guard: events from a previous incarnation of this
    /// slot (or a superseded connection) are ignored.
    gen: u64,
    lease: Option<LeaseInfo>,
    drain_signaled: bool,
}

impl Proc {
    /// A worker with no link yet: a just-spawned child, or a slot about
    /// to take a registration.
    fn new(child: Option<Child>, gen: u64) -> Self {
        Proc {
            link: None,
            child,
            last_line: Arc::new(Mutex::new(Instant::now())),
            gen,
            lease: None,
            drain_signaled: false,
        }
    }

    fn session(&self) -> Option<&str> {
        self.link.as_ref().map(|l| l.session.as_str())
    }

    /// Identity in lease records and failure reasons: the hello name,
    /// or the child's pid while a spawned worker has not registered.
    fn name(&self) -> String {
        match &self.link {
            Some(link) => link.name.clone(),
            None => self
                .child
                .as_ref()
                .map_or_else(String::new, |c| format!("pid {}", c.id())),
        }
    }

    /// Sends one protocol line. Frames pass through the egress fault
    /// injector, so a scripted drop silently loses the command —
    /// exactly the failure the lease timeouts exist to absorb.
    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let Some(Link { writer, netem, .. }) = self.link.as_mut() else {
            return Err(std::io::ErrorKind::NotConnected.into());
        };
        let frames = match netem.as_mut() {
            Some(n) => n.apply(line.as_bytes().to_vec()),
            None => vec![line.as_bytes().to_vec()],
        };
        for f in frames {
            writer.write_all(&f)?;
            writer.write_all(b"\n")?;
        }
        writer.flush()
    }

    /// Releases egress frames whose scripted delay has elapsed (quiet
    /// links would otherwise hold them forever).
    fn pump_egress(&mut self) {
        if let Some(Link {
            writer,
            netem: Some(n),
            ..
        }) = self.link.as_mut()
        {
            for f in n.tick() {
                if writer
                    .write_all(&f)
                    .and_then(|()| writer.write_all(b"\n"))
                    .is_err()
                {
                    return;
                }
            }
            let _ = writer.flush();
        }
    }

    /// Hard-stops the worker: kill + reap a spawned child, shut down
    /// the socket.
    fn terminate(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(link) = &self.link {
            let _ = link.writer.shutdown(Shutdown::Both);
        }
    }

    /// Non-blocking exit check (spawned children only; other workers
    /// are reaped via heartbeat expiry or EOF).
    fn try_reap(&mut self) -> Option<ExitStatus> {
        self.child.as_mut()?.try_wait().ok().flatten()
    }

    /// Best-effort cooperative cancellation of the in-flight cell: a
    /// spawned child gets SIGTERM; any other worker cannot be
    /// preempted — its eventual stale completion is fenced instead.
    fn signal_cell_cancel(&mut self) {
        if let Some(child) = &self.child {
            send_sigterm(child.id());
        }
    }

    /// One-shot drain signal: the exit op down the link, SIGTERM to a
    /// spawned child (a mid-cell child checkpoints and exits 3).
    fn signal_drain(&mut self) {
        if self.drain_signaled {
            return;
        }
        self.drain_signaled = true;
        let _ = self.send_line("{\"op\":\"exit\"}");
        self.signal_cell_cancel();
    }
}

/// A worker slot. The first `cfg.workers` slots are *local*: fixed at
/// startup and spawned by the daemon. Later slots are *remote*,
/// appended by registrations that matched no spawned child.
struct Slot {
    proc: Option<Proc>,
    restarts: u64,
    /// Consecutive deaths, feeding the backoff exponent; reset by a
    /// successful cell completion.
    deaths: u32,
    /// Counts against the fleet floor: set when the worker dies
    /// (heartbeat expiry, exit, failed spawn) or a remote worker
    /// leaves, cleared when a worker registers on the slot. A local
    /// slot that was never started is not down.
    down: bool,
    backoff: Backoff,
    respawn_after: Instant,
    next_gen: u64,
}

impl Slot {
    /// An empty slot whose respawn backoff jitters under `seed`.
    fn new(cfg: &DaemonConfig, seed: u64) -> Self {
        Slot {
            proc: None,
            restarts: 0,
            deaths: 0,
            down: false,
            backoff: Backoff::with_jitter(cfg.backoff_base_ms, cfg.backoff_cap_ms, 200, seed),
            respawn_after: Instant::now(),
            next_gen: 0,
        }
    }

    /// Records a death or failed spawn: the slot counts as down and
    /// respawns (if local) after a jittered exponential backoff.
    fn mark_dead(&mut self, now: Instant) {
        let attempt = self.deaths;
        self.deaths = self.deaths.saturating_add(1);
        self.down = true;
        self.respawn_after = now + Duration::from_millis(self.backoff.delay(attempt));
    }
}

struct State {
    sweeps: BTreeMap<u64, Sweep>,
    slots: Vec<Slot>,
    next_id: u64,
    drain_started: Option<Instant>,
    /// Session token → slot index for reconnect-with-resume.
    sessions: BTreeMap<String, usize>,
    next_session: u64,
    /// Netem stream ids, assigned in registration order.
    next_stream: u64,
    /// Daemon-global fence generation; starts at 1 so 0 stays the
    /// journal's "unfenced legacy record" sentinel.
    next_fence: u64,
    /// Address spawned workers dial; set once the worker listener is
    /// bound (no spawns before that).
    worker_addr: Option<SocketAddr>,
}

/// The daemon: shared between the HTTP server threads (submission and
/// status), the worker listener, and the supervisor thread (ticks).
pub struct Daemon {
    cfg: DaemonConfig,
    state: Mutex<State>,
    events_tx: Sender<(usize, u64, WorkerEvent)>,
    events_rx: Mutex<Receiver<(usize, u64, WorkerEvent)>>,
    draining: AtomicBool,
}

/// Why a cancel request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CancelError {
    /// No sweep with the given id.
    NotFound,
    /// The sweep already reached the named terminal state.
    Terminal(String),
}

/// Summary of one sweep for `GET /sweeps`.
#[derive(Serialize, Deserialize, Debug)]
pub struct SweepView {
    /// Sweep id.
    pub id: u64,
    /// Experiment name.
    pub experiment: String,
    /// Sweep seed.
    pub seed: u64,
    /// Scheduling priority.
    pub priority: i64,
    /// Lifecycle label: `running|finalizing|done|failed|shed|cancelled`.
    pub status: String,
    /// Structured reason for `failed`/`shed`, else empty.
    pub detail: String,
    /// Total cells in the grid.
    pub total: u64,
    /// Completed cells.
    pub done: u64,
    /// Cells currently leased to workers.
    pub leased: u64,
    /// Cells waiting for a worker.
    pub pending: u64,
    /// Cells that exhausted their retry budget.
    pub failed: u64,
}

/// Per-cell detail for `GET /sweeps/:id`.
#[derive(Serialize, Deserialize, Debug)]
pub struct CellView {
    /// Cell key.
    pub key: String,
    /// `pending|leased|done|failed`.
    pub status: String,
    /// Failed attempts so far.
    pub attempts: u32,
}

/// Worker-slot health for `GET /healthz`.
#[derive(Serialize, Deserialize, Debug)]
pub struct WorkerView {
    /// Slot index.
    pub idx: u64,
    /// Worker identity as it appears in lease journal records: the
    /// self-reported hello name (`pid <n>` while a spawned child has
    /// not registered, empty while a slot is vacant).
    pub name: String,
    /// Whether a worker occupies the slot.
    pub alive: bool,
    /// The registered worker's pid from its hello (0 until it
    /// registers, or when the hello omits it).
    pub pid: u64,
    /// Times this slot respawned or its worker re-attached.
    pub restarts: u64,
    /// Key of the currently leased cell, empty when idle.
    pub lease: String,
    /// `local` for slots this daemon spawns, else `remote`.
    pub kind: String,
}

impl Daemon {
    /// Creates a daemon. No worker is spawned until work arrives and
    /// [`crate::remote::serve_workers`] has bound the worker listener
    /// the children dial.
    pub fn new(cfg: DaemonConfig) -> Arc<Self> {
        let (tx, rx) = mpsc::channel();
        let slots = (0..cfg.workers)
            .map(|i| Slot::new(&cfg, cfg.backoff_seed.wrapping_add(i as u64)))
            .collect();
        Arc::new(Daemon {
            cfg,
            state: Mutex::new(State {
                sweeps: BTreeMap::new(),
                slots,
                next_id: 1,
                drain_started: None,
                sessions: BTreeMap::new(),
                next_session: 1,
                next_stream: 0,
                next_fence: 1,
                worker_addr: None,
            }),
            events_tx: tx,
            events_rx: Mutex::new(rx),
            draining: AtomicBool::new(false),
        })
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// Enumerates the sweep grid by running the worker command's
    /// `--grid` one-shot mode.
    fn fetch_grid(&self, manifest: &SweepManifest) -> Result<wire::GridDoc, String> {
        let cmd = &self.cfg.worker_cmd;
        let output = Command::new(&cmd[0])
            .args(&cmd[1..])
            .arg("--grid")
            .arg(&manifest.experiment)
            .arg("--seed")
            .arg(manifest.seed.to_string())
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("spawning grid command {:?}: {e}", cmd[0]))?;
        if !output.status.success() {
            return Err(format!(
                "grid command exited with {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| "grid command produced no output".to_string())?;
        let doc: wire::GridDoc =
            serde_json::from_str(line).map_err(|e| format!("parsing grid output: {e}"))?;
        if doc.experiment != manifest.experiment || doc.seed != manifest.seed {
            return Err(format!(
                "grid command answered for {:?} seed {} instead of {:?} seed {}",
                doc.experiment, doc.seed, manifest.experiment, manifest.seed
            ));
        }
        if doc.cells.is_empty() {
            return Err("grid has no cells".to_string());
        }
        Ok(doc)
    }

    /// Registers a sweep: enumerates its grid, creates the per-sweep
    /// directory and journal, and queues every cell.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the daemon is draining, the
    /// grid command fails, or the journal cannot be created.
    pub fn submit(&self, manifest: SweepManifest) -> Result<u64, String> {
        if self.draining.load(Ordering::SeqCst) {
            return Err("daemon is draining; not accepting new sweeps".into());
        }
        let grid = self.fetch_grid(&manifest)?;
        let mut st = self.state.lock().expect("daemon state");
        let id = st.next_id;
        st.next_id += 1;
        let dir = self.cfg.state_dir.join(format!("sweep-{id}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        // The journal is the one the in-process sweep would write, so
        // `--resume <dir>` (the finalize pass, or a manual rerun)
        // replays daemon-computed cells directly.
        let path = dir.join(format!("{}.manifest.jsonl", manifest.experiment));
        let header = JournalHeader {
            version: FORMAT_VERSION,
            config_hash: grid.sweep_hash,
            seed: manifest.seed,
        };
        let journal = Journal::create(&path, &header)
            .map_err(|e| format!("creating journal {}: {e}", path.display()))?;
        let cells = grid
            .cells
            .into_iter()
            .map(|c| Cell {
                key: c.key,
                hash: c.hash,
                attempts: 0,
                status: CellStatus::Pending,
            })
            .collect();
        st.sweeps.insert(
            id,
            Sweep {
                id,
                manifest,
                dir,
                cells,
                journal,
                status: SweepStatus::Running,
                finalize_child: None,
            },
        );
        Ok(id)
    }

    /// Cancels a running or finalizing sweep: revokes its leases
    /// (stale completions are subsequently fenced), kills any finalize
    /// pass, marks the sweep cancelled, and garbage-collects orphaned
    /// `inflight-<key>.ckpt` files under its directory.
    ///
    /// Returns `Ok(true)` when this call performed the cancel and
    /// `Ok(false)` when the sweep was already cancelled (idempotent).
    ///
    /// # Errors
    ///
    /// [`CancelError::NotFound`] for an unknown id,
    /// [`CancelError::Terminal`] when the sweep already finished,
    /// failed, or was shed.
    pub fn cancel(&self, id: u64) -> Result<bool, CancelError> {
        let mut st = self.state.lock().expect("daemon state");
        let status = match st.sweeps.get(&id) {
            None => return Err(CancelError::NotFound),
            Some(s) => s.status.clone(),
        };
        match status {
            SweepStatus::Cancelled => Ok(false),
            SweepStatus::Done | SweepStatus::Failed(_) | SweepStatus::Shed(_) => {
                Err(CancelError::Terminal(status.label().to_string()))
            }
            SweepStatus::Running | SweepStatus::Finalizing => {
                for slot in st.slots.iter_mut() {
                    if let Some(p) = slot.proc.as_mut() {
                        if p.lease.as_ref().is_some_and(|l| l.sweep_id == id) {
                            p.lease = None;
                        }
                    }
                }
                let sweep = st.sweeps.get_mut(&id).expect("checked above");
                if let Some(mut child) = sweep.finalize_child.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                for cell in sweep.cells.iter_mut() {
                    if cell.status == CellStatus::Leased {
                        cell.status = CellStatus::Pending;
                    }
                }
                sweep.status = SweepStatus::Cancelled;
                gc_inflight(&sweep.dir);
                obs::counter_add("sweepd.sweeps.cancelled", 1);
                Ok(true)
            }
        }
    }

    /// Records the bound worker-listener address that spawned workers
    /// dial (an unspecified bind address is dialed over loopback).
    pub(crate) fn set_worker_addr(&self, mut addr: SocketAddr) {
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        self.state.lock().expect("daemon state").worker_addr = Some(addr);
    }

    /// Registers a worker after its hello frame was read. Writes the
    /// welcome/reject reply itself (handshake frames bypass netem by
    /// design — the chaos scope is the steady-state stream).
    ///
    /// # Errors
    ///
    /// Returns the rejection reason; the reject frame has already been
    /// written to the socket on a best-effort basis.
    pub(crate) fn register(
        &self,
        hello: &wire::Hello,
        mut stream: TcpStream,
        leftover: Vec<u8>,
    ) -> Result<(), String> {
        let mut reject = |reason: String| -> Result<(), String> {
            let _ = stream.write_all(wire::render_reject(&reason).as_bytes());
            let _ = stream.flush();
            Err(reason)
        };
        if hello.proto != wire::PROTO_VERSION {
            return reject(format!(
                "protocol version mismatch: worker speaks {}, coordinator speaks {}",
                hello.proto,
                wire::PROTO_VERSION
            ));
        }
        let expected = wire::fingerprint(crate::manifest::SUPPORTED_EXPERIMENTS);
        if hello.fingerprint != expected {
            return reject(format!(
                "config fingerprint mismatch: worker {:#018x}, coordinator {:#018x} \
                 (builds disagree on the supported experiment set)",
                hello.fingerprint, expected
            ));
        }
        if self.draining() {
            return reject("daemon is draining; not accepting workers".into());
        }

        let mut st = self.state.lock().expect("daemon state");

        // Reconnect-with-resume: a known session token whose slot still
        // holds the link re-attaches it in place.
        if !hello.token.is_empty() {
            if let Some(&idx) = st.sessions.get(&hello.token) {
                let live = st.slots[idx]
                    .proc
                    .as_ref()
                    .is_some_and(|p| p.session() == Some(hello.token.as_str()));
                if live {
                    return self.resume(&mut st, idx, hello, stream, leftover);
                }
                // The slot was reaped since: fall through to a fresh
                // registration so the worker observes the migration.
                st.sessions.remove(&hello.token);
            }
        }

        // Fresh registration: a spawned child on this host still
        // waiting for its link takes its own slot; anything else
        // appends a remote slot.
        let same_host = match (stream.peer_addr(), stream.local_addr()) {
            (Ok(peer), Ok(local)) => peer.ip().is_loopback() || peer.ip() == local.ip(),
            _ => false,
        };
        let spawned = st.slots.iter().position(|s| {
            s.proc.as_ref().is_some_and(|p| {
                p.link.is_none() && p.child.as_ref().is_some_and(|c| c.id() == hello.pid)
            })
        });
        let spawned = spawned.filter(|_| same_host);
        let gen = spawned
            .and_then(|i| st.slots[i].proc.as_ref())
            .map_or(0, |p| p.gen);
        let session = format!("s{}", st.next_session);
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning worker stream: {e}"))?;
        stream
            .write_all(wire::render_welcome(&session, gen, None).as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| format!("writing welcome: {e}"))?;
        st.next_session += 1;
        let stream_id = st.next_stream;
        st.next_stream += 1;
        let idx = spawned.unwrap_or_else(|| {
            let seed = self.cfg.backoff_seed.wrapping_add(0x7e_0000 + stream_id);
            let mut slot = Slot::new(&self.cfg, seed);
            slot.proc = Some(Proc::new(None, 0));
            slot.next_gen = 1;
            st.slots.push(slot);
            st.slots.len() - 1
        });
        let netem_cfg = NetemConfig::from_scenario(&self.cfg.netem, stream_id);
        let (ingress, egress) = if netem_cfg.is_active() {
            (
                Some(Netem::new(netem_cfg.clone(), stream_id, NetDir::Ingress)),
                Some(Netem::new(netem_cfg, stream_id, NetDir::Egress)),
            )
        } else {
            (None, None)
        };
        let proc = st.slots[idx].proc.as_mut().expect("registration target");
        if let Ok(mut t) = proc.last_line.lock() {
            *t = Instant::now();
        }
        spawn_link_reader(
            idx,
            gen,
            reader,
            leftover,
            ingress,
            Arc::clone(&proc.last_line),
            self.events_tx.clone(),
        );
        proc.link = Some(Link {
            writer: stream,
            session: session.clone(),
            name: hello.worker.clone(),
            pid: hello.pid,
            stream: stream_id,
            netem: egress,
        });
        st.slots[idx].down = false;
        st.sessions.insert(session, idx);
        obs::counter_add("sweepd.remote.registered", 1);
        Ok(())
    }

    /// Re-attaches a redialing worker to its live slot: the stale
    /// socket is shut down, a new generation invalidates its reader,
    /// and the welcome names the still-held lease (if any) so the
    /// worker can re-send a completion lost in flight.
    fn resume(
        &self,
        st: &mut State,
        idx: usize,
        hello: &wire::Hello,
        mut stream: TcpStream,
        leftover: Vec<u8>,
    ) -> Result<(), String> {
        let gen = st.slots[idx].next_gen;
        st.slots[idx].next_gen += 1;
        st.slots[idx].restarts = st.slots[idx].restarts.saturating_add(1);
        let proc = st.slots[idx].proc.as_mut().expect("live slot checked");
        let resume_key = proc.lease.as_ref().map(|l| l.key.clone());
        let welcome = wire::render_welcome(&hello.token, gen, resume_key.as_deref());
        if let Err(e) = stream
            .write_all(welcome.as_bytes())
            .and_then(|()| stream.flush())
        {
            return Err(format!("writing resume welcome: {e}"));
        }
        let reader = match stream.try_clone() {
            Ok(r) => r,
            Err(e) => return Err(format!("cloning worker stream: {e}")),
        };
        let link = proc.link.as_mut().expect("resume target has a link");
        let _ = link.writer.shutdown(Shutdown::Both);
        link.writer = stream;
        link.name = hello.worker.clone();
        link.pid = hello.pid;
        let stream_id = link.stream;
        // Fresh per-connection injectors: netem frame counters are
        // per-connection by design (documented in DESIGN §17).
        let netem_cfg = NetemConfig::from_scenario(&self.cfg.netem, stream_id);
        let ingress = if netem_cfg.is_active() {
            link.netem = Some(Netem::new(netem_cfg.clone(), stream_id, NetDir::Egress));
            Some(Netem::new(netem_cfg, stream_id, NetDir::Ingress))
        } else {
            link.netem = None;
            None
        };
        proc.gen = gen;
        proc.drain_signaled = false;
        if let Ok(mut t) = proc.last_line.lock() {
            *t = Instant::now();
        }
        spawn_link_reader(
            idx,
            gen,
            reader,
            leftover,
            ingress,
            Arc::clone(&proc.last_line),
            self.events_tx.clone(),
        );
        obs::counter_add("sweepd.remote.reconnects", 1);
        Ok(())
    }

    /// Starts a graceful drain: stop leasing, SIGTERM workers so they
    /// persist in-flight checkpoints, exit once the fleet is reaped.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Whether any sweep still holds resumable work.
    pub fn unfinished(&self) -> bool {
        let st = self.state.lock().expect("daemon state");
        st.sweeps.values().any(|s| s.status.unfinished())
    }

    /// Summaries of all sweeps, newest first.
    pub fn sweep_views(&self) -> Vec<SweepView> {
        let st = self.state.lock().expect("daemon state");
        st.sweeps.values().rev().map(view_of).collect()
    }

    /// Summary plus per-cell detail for one sweep.
    pub fn sweep_detail(&self, id: u64) -> Option<(SweepView, Vec<CellView>)> {
        let st = self.state.lock().expect("daemon state");
        let sweep = st.sweeps.get(&id)?;
        let cells = sweep
            .cells
            .iter()
            .map(|c| CellView {
                key: c.key.clone(),
                status: match c.status {
                    CellStatus::Pending => "pending",
                    CellStatus::Leased => "leased",
                    CellStatus::Done => "done",
                    CellStatus::Failed => "failed",
                }
                .to_string(),
                attempts: c.attempts,
            })
            .collect();
        Some((view_of(sweep), cells))
    }

    /// Health of every worker slot.
    pub fn worker_views(&self) -> Vec<WorkerView> {
        let st = self.state.lock().expect("daemon state");
        st.slots
            .iter()
            .enumerate()
            .map(|(i, s)| WorkerView {
                idx: i as u64,
                name: s.proc.as_ref().map_or(String::new(), Proc::name),
                alive: s.proc.is_some(),
                pid: s
                    .proc
                    .as_ref()
                    .and_then(|p| p.link.as_ref())
                    .map_or(0, |l| u64::from(l.pid)),
                restarts: s.restarts,
                lease: s
                    .proc
                    .as_ref()
                    .and_then(|p| p.lease.as_ref())
                    .map_or(String::new(), |l| l.key.clone()),
                kind: if i < self.cfg.workers {
                    "local"
                } else {
                    "remote"
                }
                .to_string(),
            })
            .collect()
    }

    /// Count of occupied worker slots (spawned children included).
    pub fn alive_workers(&self) -> usize {
        let st = self.state.lock().expect("daemon state");
        st.slots.iter().filter(|s| s.proc.is_some()).count()
    }

    /// One supervision pass. The server runs this in a loop; tests call
    /// it directly for deterministic stepping.
    pub fn tick(&self) {
        let mut st = self.state.lock().expect("daemon state");
        let cfg = &self.cfg;
        let now = Instant::now();

        // 1. Worker events.
        {
            let rx = self.events_rx.lock().expect("event channel");
            while let Ok((slot_idx, gen, event)) = rx.try_recv() {
                apply_event(cfg, &mut st, slot_idx, gen, event);
            }
        }

        // 1b. Release scripted egress delays on quiet links.
        for slot in st.slots.iter_mut() {
            if let Some(p) = slot.proc.as_mut() {
                p.pump_egress();
            }
        }

        // 2. Liveness deadlines and cell wall-clock budgets.
        for idx in 0..st.slots.len() {
            let (stale, timed_out, name) = {
                let Some(proc) = st.slots[idx].proc.as_ref() else {
                    continue;
                };
                let stale = proc
                    .last_line
                    .lock()
                    .map(|t| t.elapsed() > cfg.heartbeat_deadline)
                    .unwrap_or(true);
                let timed_out = proc.lease.as_ref().and_then(|l| {
                    let sweep = st.sweeps.get(&l.sweep_id)?;
                    let budget = sweep.cell_timeout(cfg)?;
                    (l.started.elapsed() > budget).then_some((l.sweep_id, budget))
                });
                (stale, timed_out, proc.name())
            };
            if stale {
                let reason = format!(
                    "worker {name} heartbeat expired (no output for {:?})",
                    cfg.heartbeat_deadline
                );
                kill_slot(cfg, &mut st, idx, &reason, now);
                continue;
            }
            if let Some((sweep_id, budget)) = timed_out {
                // Cooperative cancellation: SIGTERM makes a spawned
                // child persist the in-flight checkpoint and exit 3
                // (any other worker cannot be preempted; its eventual
                // stale completion is fenced). The attempt is charged
                // now so the lease cannot wedge the fleet, and a retry
                // resumes from the checkpoint.
                let lease = st.slots[idx]
                    .proc
                    .as_mut()
                    .and_then(|p| p.lease.take())
                    .expect("timed-out lease");
                let reason = format!(
                    "cell {:?} exceeded its {}s wall-clock budget on worker {name}",
                    lease.key,
                    budget.as_secs(),
                );
                charge_attempt(cfg, &mut st, sweep_id, &lease.key, &reason);
                if let Some(p) = st.slots[idx].proc.as_mut() {
                    p.signal_cell_cancel();
                }
            }
        }

        // 3. Reap exited children.
        for idx in 0..st.slots.len() {
            let Some(proc) = st.slots[idx].proc.as_mut() else {
                continue;
            };
            if let Some(status) = proc.try_reap() {
                let reason = format!("worker {} exited with {status}", proc.name());
                kill_slot(cfg, &mut st, idx, &reason, now);
            }
        }

        // 4. Fleet health and degradation.
        let up = st.slots.iter().filter(|s| !s.down).count();
        obs::gauge_set("sweepd.workers.alive", up as f64);
        if up < cfg.fleet_floor {
            shed_low_priority(cfg, &mut st, up);
        }

        // 5. Sweep lifecycle: completion and finalize.
        advance_sweeps(cfg, &mut st);

        // 6–7. Spawning and leasing — or drain.
        if self.draining.load(Ordering::SeqCst) {
            drain_fleet(cfg, &mut st, now);
        } else {
            spawn_workers(cfg, &mut st, now);
            assign_work(cfg, &mut st);
        }
    }

    /// Runs supervision ticks until a drain completes. Returns `true`
    /// when all sweeps finished (exit 0), `false` when resumable work
    /// remains (exit 3).
    pub fn run_supervisor(&self, tick_interval: Duration) -> bool {
        loop {
            self.tick();
            if self.draining() {
                let st = self.state.lock().expect("daemon state");
                let live = st.slots.iter().filter(|s| s.proc.is_some()).count();
                let finalizing = st
                    .sweeps
                    .values()
                    .any(|s| s.status == SweepStatus::Finalizing);
                if live == 0 && !finalizing {
                    break;
                }
            }
            std::thread::sleep(tick_interval);
        }
        !self.unfinished()
    }
}

fn view_of(sweep: &Sweep) -> SweepView {
    let count = |s: CellStatus| sweep.cells.iter().filter(|c| c.status == s).count() as u64;
    SweepView {
        id: sweep.id,
        experiment: sweep.manifest.experiment.clone(),
        seed: sweep.manifest.seed,
        priority: sweep.manifest.priority,
        status: sweep.status.label().to_string(),
        detail: sweep.status.detail(),
        total: sweep.cells.len() as u64,
        done: count(CellStatus::Done),
        leased: count(CellStatus::Leased),
        pending: count(CellStatus::Pending),
        failed: count(CellStatus::Failed),
    }
}

/// Applies one worker event, guarded by the slot generation and the
/// lease fence.
fn apply_event(cfg: &DaemonConfig, st: &mut State, slot_idx: usize, gen: u64, event: WorkerEvent) {
    let Some(proc) = st.slots[slot_idx].proc.as_mut() else {
        return;
    };
    if proc.gen != gen {
        return; // event from a previous incarnation of the slot
    }
    match event {
        WorkerEvent::Done {
            key,
            result,
            gen: fence,
        } => {
            let Some(lease) = proc.lease.take() else {
                return; // completion for a cancelled lease; checkpoint covers it
            };
            if lease.key != key {
                proc.lease = Some(lease);
                return;
            }
            if fence.is_some_and(|g| g != lease.gen) {
                // Stale echo: the worker is finishing an attempt whose
                // lease was superseded (e.g. timeout → re-lease of the
                // same cell to the same worker). The live lease stays.
                proc.lease = Some(lease);
                obs::counter_add("sweepd.cells.fenced", 1);
                return;
            }
            st.slots[slot_idx].deaths = 0;
            let Some(sweep) = st.sweeps.get_mut(&lease.sweep_id) else {
                return;
            };
            let Some(cell) = sweep.cells.iter_mut().find(|c| c.key == key) else {
                return;
            };
            if cell.status == CellStatus::Done {
                return; // idempotent: journal already has it
            }
            let record = cell_record_fenced(&key, cell.hash, result, lease.gen);
            if let Err(e) = sweep.journal.append(&record) {
                sweep.status = SweepStatus::Failed(format!("journal append: {e}"));
                return;
            }
            cell.status = CellStatus::Done;
        }
        WorkerEvent::Err {
            key,
            error,
            gen: fence,
        } => {
            let Some(lease) = proc.lease.take() else {
                return;
            };
            if lease.key != key {
                proc.lease = Some(lease);
                return;
            }
            if fence.is_some_and(|g| g != lease.gen) {
                proc.lease = Some(lease);
                obs::counter_add("sweepd.cells.fenced", 1);
                return;
            }
            let reason = format!("worker {}: {error}", proc.name());
            charge_attempt(cfg, st, lease.sweep_id, &key, &reason);
        }
        WorkerEvent::Interrupted { key } => {
            // The worker persisted the in-flight checkpoint and is
            // exiting; the cell goes back to pending without charging
            // an attempt (a cancelled lease was already charged when
            // the timeout fired).
            if let Some(lease) = proc.lease.take() {
                if lease.key == key {
                    if let Some(sweep) = st.sweeps.get_mut(&lease.sweep_id) {
                        if let Some(cell) = sweep.cells.iter_mut().find(|c| c.key == key) {
                            if cell.status == CellStatus::Leased {
                                cell.status = CellStatus::Pending;
                            }
                        }
                    }
                } else {
                    proc.lease = Some(lease);
                }
            }
        }
        WorkerEvent::Eof => {
            // A spawned child: the reap pass collects the exit status,
            // and the heartbeat deadline covers a process that lost its
            // link but lingers (or redials). Any other worker with no
            // lease disconnected cleanly — retire the slot now instead
            // of waiting out the deadline. A *leased* worker keeps its
            // slot: the heartbeat deadline is the reconnect grace
            // window.
            if proc.child.is_none() && proc.lease.is_none() {
                kill_slot(cfg, st, slot_idx, "worker disconnected", Instant::now());
            }
        }
    }
}

/// Charges a failed attempt against a cell: journals the failure,
/// returns the cell to pending within budget, otherwise fails the cell
/// and its sweep.
fn charge_attempt(cfg: &DaemonConfig, st: &mut State, sweep_id: u64, key: &str, reason: &str) {
    let Some(sweep) = st.sweeps.get_mut(&sweep_id) else {
        return;
    };
    let budget = sweep.retry_budget(cfg);
    let Some(cell) = sweep.cells.iter_mut().find(|c| c.key == key) else {
        return;
    };
    if cell.status == CellStatus::Done {
        return;
    }
    let attempt = cell.attempts;
    cell.attempts += 1;
    let _ = sweep.journal.append_failed(&FailRecord {
        key: key.to_string(),
        attempt,
        error: reason.to_string(),
    });
    if cell.attempts > budget {
        cell.status = CellStatus::Failed;
        sweep.status = SweepStatus::Failed(format!(
            "cell {key:?} exhausted its retry budget ({budget}): {reason}"
        ));
    } else {
        cell.status = CellStatus::Pending;
    }
}

/// Tears down a slot's worker after a death or forced kill: journals
/// the orphaned lease, requeues its cell (crash migration), schedules a
/// backed-off respawn (local slots; a retired remote slot waits for
/// its worker to redial, which lands in a fresh slot).
fn kill_slot(cfg: &DaemonConfig, st: &mut State, idx: usize, reason: &str, now: Instant) {
    let Some(mut proc) = st.slots[idx].proc.take() else {
        return;
    };
    if let Some(session) = proc.session() {
        st.sessions.remove(session);
    }
    proc.terminate();
    if let Some(lease) = proc.lease.take() {
        obs::counter_add("sweepd.cells.migrated", 1);
        charge_attempt(
            cfg,
            st,
            lease.sweep_id,
            &lease.key,
            &format!("{reason} while holding the lease"),
        );
    }
    st.slots[idx].mark_dead(now);
}

/// Sheds every running sweep except the single highest-priority one
/// while the fleet is below its floor.
fn shed_low_priority(cfg: &DaemonConfig, st: &mut State, alive: usize) {
    let mut running: Vec<(i64, u64)> = st
        .sweeps
        .values()
        .filter(|s| s.status == SweepStatus::Running)
        .map(|s| (s.manifest.priority, s.id))
        .collect();
    if running.len() <= 1 {
        return;
    }
    // Keep the highest priority (ties: oldest id); shed the rest.
    running.sort_by_key(|&(priority, id)| (std::cmp::Reverse(priority), id));
    for &(priority, id) in &running[1..] {
        let reason = format!(
            "shed under fleet degradation: {alive} worker(s) alive, floor is {}; \
             priority {priority} lost to priority {}",
            cfg.fleet_floor, running[0].0
        );
        if let Some(sweep) = st.sweeps.get_mut(&id) {
            sweep.status = SweepStatus::Shed(reason);
            obs::counter_add("sweepd.sweeps.shed", 1);
        }
    }
}

/// Moves completed sweeps into (and out of) the finalize pass.
fn advance_sweeps(cfg: &DaemonConfig, st: &mut State) {
    for sweep in st.sweeps.values_mut() {
        match sweep.status {
            SweepStatus::Running if sweep.cells.iter().all(|c| c.status == CellStatus::Done) => {
                if sweep.manifest.finalize {
                    match spawn_finalize(cfg, sweep) {
                        Ok(child) => {
                            sweep.finalize_child = Some(child);
                            sweep.status = SweepStatus::Finalizing;
                        }
                        Err(e) => {
                            sweep.status =
                                SweepStatus::Failed(format!("spawning finalize pass: {e}"));
                        }
                    }
                } else {
                    sweep.status = SweepStatus::Done;
                    gc_inflight(&sweep.dir);
                }
            }
            SweepStatus::Running => {}
            SweepStatus::Finalizing => {
                let Some(child) = sweep.finalize_child.as_mut() else {
                    sweep.status = SweepStatus::Failed("finalize child lost".into());
                    continue;
                };
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => {
                        sweep.finalize_child = None;
                        sweep.status = SweepStatus::Done;
                        gc_inflight(&sweep.dir);
                    }
                    Ok(Some(status)) => {
                        sweep.finalize_child = None;
                        sweep.status =
                            SweepStatus::Failed(format!("finalize pass exited with {status}"));
                    }
                    Ok(None) => {}
                    Err(e) => {
                        sweep.finalize_child = None;
                        sweep.status = SweepStatus::Failed(format!("waiting on finalize: {e}"));
                    }
                }
            }
            _ => {}
        }
    }
}

/// Removes orphaned `inflight-<key>.ckpt` files under a finished or
/// cancelled sweep's directory. Returns the number removed.
fn gc_inflight(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0u64;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if name.starts_with("inflight-")
            && name.ends_with(".ckpt")
            && std::fs::remove_file(entry.path()).is_ok()
        {
            removed += 1;
        }
    }
    if removed > 0 {
        obs::counter_add("sweepd.gc.removed", removed);
    }
    removed
}

/// The finalize pass: a single-process resume over the sweep journal,
/// producing the standard artifacts byte-identically to an
/// uninterrupted in-process run.
fn spawn_finalize(cfg: &DaemonConfig, sweep: &Sweep) -> std::io::Result<Child> {
    let cmd = &cfg.worker_cmd;
    Command::new(&cmd[0])
        .args(&cmd[1..])
        .arg(&sweep.manifest.experiment)
        .arg("--resume")
        .arg(&sweep.dir)
        .arg("--seed")
        .arg(sweep.manifest.seed.to_string())
        .arg("--ckpt-interval")
        .arg(cfg.ckpt_interval.to_string())
        .arg("--jobs")
        .arg("1")
        .current_dir(&sweep.dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
}

/// Spawns `--connect` children into empty local slots past their
/// backoff while any sweep has pending cells. A child that fails to
/// register within the heartbeat deadline is killed by the liveness
/// pass and respawned here.
fn spawn_workers(cfg: &DaemonConfig, st: &mut State, now: Instant) {
    let Some(addr) = st.worker_addr else {
        return;
    };
    if !st.sweeps.values().any(Sweep::has_pending) {
        return;
    }
    for (idx, slot) in st.slots.iter_mut().enumerate().take(cfg.workers) {
        if slot.proc.is_some() || now < slot.respawn_after {
            continue;
        }
        let cmd = &cfg.worker_cmd;
        let spawned = Command::new(&cmd[0])
            .args(&cmd[1..])
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--heartbeat-ms")
            .arg(cfg.heartbeat_ms.to_string())
            .arg("--jobs")
            .arg("1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => {
                let gen = slot.next_gen;
                slot.next_gen += 1;
                if gen > 0 {
                    slot.restarts = slot.restarts.saturating_add(1);
                    obs::counter_add("sweepd.worker.restarts", 1);
                }
                slot.proc = Some(Proc::new(Some(child), gen));
            }
            Err(e) => {
                eprintln!("sweepd: spawning worker for slot {idx}: {e}");
                slot.mark_dead(now);
            }
        }
    }
}

/// Leases pending cells to idle registered workers, serving sweeps in
/// priority order. Any idle worker can take any sweep's cell: run
/// commands are self-contained.
fn assign_work(cfg: &DaemonConfig, st: &mut State) {
    let mut order: Vec<(i64, u64)> = st
        .sweeps
        .values()
        .filter(|s| s.has_pending())
        .map(|s| (s.manifest.priority, s.id))
        .collect();
    order.sort_by_key(|&(priority, id)| (std::cmp::Reverse(priority), id));

    for (_, sweep_id) in order {
        while st.sweeps.get(&sweep_id).is_some_and(Sweep::has_pending) {
            let idle = st.slots.iter().position(|s| {
                s.proc
                    .as_ref()
                    .is_some_and(|p| p.link.is_some() && p.lease.is_none())
            });
            let Some(idx) = idle else {
                return; // fleet saturated
            };
            lease_next(cfg, st, sweep_id, idx);
        }
    }
}

/// Leases the sweep's next pending cell to slot `idx` and sends the
/// fence-tagged run command down the worker's link. Run commands are
/// self-contained (dir/seed/ckpt-interval inline), so a delayed or
/// reordered frame can never leave a worker mis-bound.
fn lease_next(cfg: &DaemonConfig, st: &mut State, sweep_id: u64, idx: usize) {
    let fence = st.next_fence;
    let Some(worker) = st.slots[idx].proc.as_ref().map(Proc::name) else {
        return;
    };
    let Some(sweep) = st.sweeps.get_mut(&sweep_id) else {
        return;
    };
    let exp = sweep.manifest.experiment.clone();
    let seed = sweep.manifest.seed;
    let dir = sweep.dir.display().to_string();
    let Some(cell) = sweep
        .cells
        .iter_mut()
        .find(|c| c.status == CellStatus::Pending)
    else {
        return;
    };
    let lease = LeaseRecord {
        key: cell.key.clone(),
        worker,
        attempt: cell.attempts,
        gen: Some(fence),
    };
    if let Err(e) = sweep.journal.append_lease(&lease) {
        sweep.status = SweepStatus::Failed(format!("journal lease append: {e}"));
        return;
    }
    cell.status = CellStatus::Leased;
    let key = cell.key.clone();
    st.next_fence += 1;
    let Some(proc) = st.slots[idx].proc.as_mut() else {
        return;
    };
    let json = |s: &str| serde_json::to_string(&s).unwrap_or_else(|_| "\"\"".into());
    let cmd = format!(
        "{{\"op\":\"run\",\"exp\":{},\"key\":{},\"gen\":{fence},\"dir\":{},\"seed\":{seed},\"ckpt_interval\":{}}}",
        json(&exp),
        json(&key),
        json(&dir),
        cfg.ckpt_interval,
    );
    // A failed send means the worker is dying: the reap pass or the
    // heartbeat deadline journals the orphaned lease and requeues it.
    let _ = proc.send_line(&cmd);
    proc.lease = Some(LeaseInfo {
        sweep_id,
        key,
        started: Instant::now(),
        gen: fence,
    });
}

/// Reader thread for a worker link: reassembles frames with the shared
/// [`wire`] codec, passes each through the ingress fault injector, and
/// timestamps only *delivered* frames — so a scripted partition window
/// starves the liveness timestamp exactly like a real one. A protocol
/// violation (oversized frame, invalid UTF-8) drops the connection.
fn spawn_link_reader(
    idx: usize,
    gen: u64,
    stream: TcpStream,
    leftover: Vec<u8>,
    mut netem: Option<Netem>,
    last_line: Arc<Mutex<Instant>>,
    tx: Sender<(usize, u64, WorkerEvent)>,
) {
    std::thread::spawn(move || {
        let mut stream = stream;
        let mut buf = leftover;
        let mut chunk = [0u8; 4096];
        'conn: loop {
            loop {
                let step = match wire::parse_frame(&buf) {
                    Ok(wire::FrameStatus::Complete { line, consumed }) => {
                        Some((line.as_bytes().to_vec(), consumed))
                    }
                    Ok(wire::FrameStatus::Incomplete) => None,
                    Err(_) => break 'conn,
                };
                let Some((frame, consumed)) = step else { break };
                buf.drain(..consumed);
                let delivered = match netem.as_mut() {
                    Some(n) => n.apply(frame),
                    None => vec![frame],
                };
                for f in delivered {
                    if let Ok(mut t) = last_line.lock() {
                        *t = Instant::now();
                    }
                    let Ok(text) = String::from_utf8(f) else {
                        continue; // a corrupted frame still proved liveness
                    };
                    if let Some(event) = parse_event(&text) {
                        if tx.send((idx, gen, event)).is_err() {
                            return;
                        }
                    }
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        let _ = tx.send((idx, gen, WorkerEvent::Eof));
    });
}

/// Drains the fleet: one drain signal per worker (the exit op down
/// every link plus SIGTERM to every spawned child — cooperative
/// checkpoint + exit 3), escalating to a hard kill past the grace
/// window.
fn drain_fleet(cfg: &DaemonConfig, st: &mut State, now: Instant) {
    let started = *st.drain_started.get_or_insert(now);
    let escalate = now.duration_since(started) > cfg.drain_grace;
    for idx in 0..st.slots.len() {
        let Some(proc) = st.slots[idx].proc.as_mut() else {
            continue;
        };
        if escalate {
            let reason = format!("worker {} killed after drain grace", proc.name());
            kill_slot(cfg, st, idx, &reason, now);
        } else {
            proc.signal_drain();
        }
    }
}

/// Sends SIGTERM (cooperative drain) to a process.
#[cfg(unix)]
fn send_sigterm(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    // Best-effort: a vanished pid is already what we wanted.
    unsafe {
        let _ = kill(pid as i32, SIGTERM);
    }
}

#[cfg(not(unix))]
fn send_sigterm(_pid: u32) {}
