//! Resumable sweep execution: cell journaling and interrupt plumbing.
//!
//! A sweep experiment hands its units of work ("cells") to
//! [`SweepRunner::cells`]. With `--sweep-dir` set, every completed cell
//! is appended to a JSONL journal ([`checkpoint::manifest::Journal`])
//! keyed by the cell's configuration hash; `--resume` replays journaled
//! cells from their stored result JSON instead of re-simulating, so an
//! interrupted sweep picks up exactly where it stopped and the final
//! artifacts are byte-identical to an uninterrupted run.
//!
//! Interruption is cooperative: SIGINT/SIGTERM (or the
//! `METANMP_INTERRUPT_AFTER_CELLS` test hook) set a process-global
//! flag. The runner checks it before each cell; the end-to-end
//! simulator checks the same flag between checkpoint chunks via
//! [`metanmp::Simulator::run_interruptible`], persisting an in-flight
//! snapshot so even a half-finished cell resumes mid-simulation.
//!
//! The cells run over a worker pool sized by `--jobs` (one worker at
//! `--jobs 1`). Workers only compute; the folding thread journals,
//! merges telemetry, and reports in canonical (spec) order, so every
//! artifact — journal, tables, JSON, telemetry snapshot — is
//! byte-identical at any worker count. Per-cell wall-clock budgets are
//! `sweepd`'s job (`cell_timeout_s`), not this runner's.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;

use checkpoint::manifest::{cell_record, CellRecord, Journal, JournalHeader};
use checkpoint::FORMAT_VERSION;
use serde::{Deserialize, Serialize};

use crate::common::{effective_jobs, Ctx, ExpError, ResultExt};

/// Process-global interrupt request, set by the signal handlers and the
/// test hook, checked between sweep cells and simulation chunks.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Test hook: number of freshly computed cells after which an interrupt
/// is requested automatically (0 = disabled).
static INTERRUPT_AFTER: AtomicU64 = AtomicU64::new(0);

/// Whether an interrupt has been requested.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Requests a cooperative interrupt (what the signal handlers do).
pub fn request_interrupt() {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// The interrupt flag itself, for
/// [`metanmp::Simulator::run_interruptible`].
pub fn interrupt_flag() -> &'static AtomicBool {
    &INTERRUPTED
}

/// Deterministic interruption for tests: request an interrupt after `n`
/// freshly computed (non-replayed) cells complete. `0` disables.
pub fn set_interrupt_after_cells(n: u64) {
    INTERRUPT_AFTER.store(n, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that set the interrupt flag.
///
/// Only the async-signal-safe atomic store happens in the handler; the
/// sweep loop notices the flag at the next cell or checkpoint-chunk
/// boundary, persists state, and exits with code 3.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
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

/// No-op on platforms without POSIX signals; `--sweep-dir` still
/// journals and the test hook still interrupts.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// Runs a sweep's cells, journaling completions and replaying them on
/// resume. With no sweep options configured every cell just runs (no
/// journal, no interrupt checks between cells).
#[derive(Debug)]
pub struct SweepRunner {
    journal: Option<Journal>,
    cached: BTreeMap<String, CellRecord>,
    dir: Option<PathBuf>,
    fresh_cells: u64,
}

impl SweepRunner {
    /// Opens (or resumes) the journal for sweep `name`.
    ///
    /// `sweep_hash` must cover everything that determines the sweep's
    /// cell grid and results; a journal recorded under a different hash
    /// or seed is refused rather than replayed.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O and validation failures as
    /// [`ExpError::Failed`].
    pub fn open(cx: &Ctx, name: &str, sweep_hash: u64) -> Result<Self, ExpError> {
        let Some(sweep) = &cx.sweep else {
            return Ok(SweepRunner {
                journal: None,
                cached: BTreeMap::new(),
                dir: None,
                fresh_cells: 0,
            });
        };
        let path = sweep.dir.join(format!("{name}.manifest.jsonl"));
        let header = JournalHeader {
            version: FORMAT_VERSION,
            config_hash: sweep_hash,
            seed: cx.seed,
        };
        let what = format!("sweep {name}: journal {}", path.display());
        let (journal, cells) = if sweep.resume && path.exists() {
            Journal::open_resume(&path, &header).ctx(&what)?
        } else {
            (Journal::create(&path, &header).ctx(&what)?, Vec::new())
        };
        if !cells.is_empty() {
            eprintln!(
                "sweep {name}: resuming, {} completed cell(s) replayed from {}",
                cells.len(),
                path.display()
            );
        }
        Ok(SweepRunner {
            journal: Some(journal),
            cached: cells.into_iter().map(|c| (c.key.clone(), c)).collect(),
            dir: Some(sweep.dir.clone()),
            fresh_cells: 0,
        })
    }

    /// Runs (or replays) a whole batch of cells, fanning fresh cells
    /// out over a worker pool.
    ///
    /// Results come back in spec order and are bit-identical at every
    /// worker count: workers only *compute*; journal appends, telemetry
    /// merges ([`obs::merge_sink`]), the fresh-cell interrupt threshold,
    /// and error selection all happen on this thread while folding the
    /// contiguous completed prefix in canonical (spec) order. On any
    /// failure the error of the lowest-index failing cell is returned.
    /// A fresh cell that completes after the interrupt threshold
    /// tripped is discarded, so a journal never holds more fresh cells
    /// than the threshold at any worker count.
    ///
    /// `jobs` is the raw `--jobs` value (`0` = auto). While two or more
    /// workers are active the [`dramsim::parallel`] budget is pinned to
    /// 1 so cell-level and DIMM-level parallelism do not oversubscribe
    /// the host; it is restored to `jobs` afterwards. A single worker
    /// keeps the whole budget for DIMM-level instance generation.
    ///
    /// # Errors
    ///
    /// Propagates cell failures, journal failures, and interruption.
    pub fn cells<T>(&mut self, jobs: usize, specs: Vec<CellSpec<'_, T>>) -> Result<Vec<T>, ExpError>
    where
        T: Serialize + Deserialize + Send,
    {
        let workers = effective_jobs(jobs).min(specs.len().max(1));
        let pinned = workers > 1;
        if pinned {
            dramsim::parallel::set_threads(1);
        }
        let result = self.run_pool(workers, &specs);
        if pinned {
            dramsim::parallel::set_threads(jobs);
        }
        result
    }

    fn run_pool<T>(&mut self, workers: usize, specs: &[CellSpec<'_, T>]) -> Result<Vec<T>, ExpError>
    where
        T: Serialize + Deserialize + Send,
    {
        /// What a worker hands the folding thread for one cell.
        enum Msg<T> {
            /// Replayed from the journal (or refused while trying to).
            Replayed(Result<T, ExpError>),
            /// Freshly computed: the value, its serialized form for the
            /// journal, and the telemetry captured while computing it.
            Fresh(T, String, obs::SinkImage),
            /// The cell failed; claiming stops.
            Failed(ExpError),
            /// The worker observed a pending interrupt (or a failure
            /// elsewhere) and did not start the cell.
            Skipped,
        }

        let n = specs.len();
        let journaling = self.journal.is_some();
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<(usize, Msg<T>)>();
        let SweepRunner {
            journal,
            cached,
            dir,
            fresh_cells,
            ..
        } = self;
        let cached = &*cached;
        let dir = &*dir;

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (next, stop) = (&next, &stop);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= n {
                        break;
                    }
                    let spec = &specs[i];
                    let msg = if let Some(rec) = cached.get(&spec.key) {
                        Msg::Replayed(replay(&spec.key, spec.hash, rec))
                    } else if stop.load(Ordering::SeqCst) || (journaling && interrupted()) {
                        Msg::Skipped
                    } else {
                        let (res, sink) = obs::scoped_sink(|| (spec.run)());
                        match res {
                            Ok(value) => match serde_json::to_string(&value) {
                                Ok(json) => Msg::Fresh(value, json, sink),
                                Err(e) => Msg::Failed(ExpError::Failed(format!(
                                    "sweep cell {:?}: serializing result: {e}",
                                    spec.key
                                ))),
                            },
                            Err(e) => {
                                stop.store(true, Ordering::SeqCst);
                                Msg::Failed(e)
                            }
                        }
                    };
                    if tx.send((i, msg)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // Fold the contiguous completed prefix in canonical order.
            // Out-of-order completions park in `pending` until their
            // turn; the first failure (in canonical order, not arrival
            // order) wins and stops both folding and claiming.
            let mut pending: BTreeMap<usize, Msg<T>> = BTreeMap::new();
            let mut out: Vec<T> = Vec::with_capacity(n);
            let mut failure: Option<ExpError> = None;
            let mut next_fold = 0usize;
            for (i, msg) in rx {
                pending.insert(i, msg);
                while failure.is_none() {
                    let Some(msg) = pending.remove(&next_fold) else {
                        break;
                    };
                    let spec = &specs[next_fold];
                    next_fold += 1;
                    match msg {
                        Msg::Replayed(Ok(value)) => out.push(value),
                        Msg::Replayed(Err(e)) | Msg::Failed(e) => failure = Some(e),
                        Msg::Skipped => failure = Some(interrupted_error(dir.as_deref())),
                        // A fresh result folding after the interrupt
                        // threshold tripped is discarded: the sweep
                        // stops where the threshold put it.
                        Msg::Fresh(..) if journaling && interrupted() => {
                            failure = Some(interrupted_error(dir.as_deref()));
                        }
                        Msg::Fresh(value, json, sink) => {
                            obs::merge_sink(sink);
                            let appended = journal
                                .as_mut()
                                .map(|j| j.append(&cell_record(&spec.key, spec.hash, json)));
                            if let Some(Err(e)) = appended {
                                failure = Some(ExpError::Failed(format!(
                                    "sweep cell {:?}: journaling completion: {e}",
                                    spec.key
                                )));
                            } else {
                                out.push(value);
                                if journaling {
                                    *fresh_cells += 1;
                                    let after = INTERRUPT_AFTER.load(Ordering::SeqCst);
                                    if after != 0 && *fresh_cells >= after {
                                        request_interrupt();
                                    }
                                }
                            }
                        }
                    }
                    if failure.is_some() {
                        stop.store(true, Ordering::SeqCst);
                    }
                }
            }
            match failure {
                Some(e) => Err(e),
                None => Ok(out),
            }
        })
    }
}

/// The error a pending interrupt turns into for a sweep journaling
/// under `dir`.
fn interrupted_error(dir: Option<&Path>) -> ExpError {
    match dir {
        Some(dir) => ExpError::Interrupted {
            dir: dir.to_path_buf(),
        },
        // Interrupted without journaling: nothing was persisted, so
        // this is a plain failure rather than a resumable stop.
        None => ExpError::Failed("interrupted (no --sweep-dir, nothing persisted)".into()),
    }
}

/// One unit of work for [`SweepRunner::cells`]: a stable journal key,
/// the configuration hash journaled with the result, and the closure
/// that computes it.
///
/// The closure may run on a worker thread. Telemetry it emits is
/// captured in a scoped sink and merged in canonical order at the fold,
/// so it needs no coordination; it must not otherwise depend on or
/// mutate process-global state.
pub struct CellSpec<'a, T> {
    /// Stable journal key, unique within the sweep.
    pub key: String,
    /// Everything that determines the cell's result, hashed.
    pub hash: u64,
    /// Computes the cell.
    pub run: Box<dyn Fn() -> Result<T, ExpError> + Sync + 'a>,
}

/// Deserializes a journaled completion, refusing a record whose
/// configuration hash no longer matches the sweep.
fn replay<T: Deserialize>(key: &str, cell_hash: u64, rec: &CellRecord) -> Result<T, ExpError> {
    if rec.config_hash != cell_hash {
        return Err(ExpError::Failed(format!(
            "sweep cell {key:?}: journaled under config hash {:#018x}, \
             sweep now expects {cell_hash:#018x} — delete the sweep dir to start over",
            rec.config_hash
        )));
    }
    serde_json::from_str(&rec.result_json)
        .ctx(&format!("sweep cell {key:?}: replaying journaled result"))
}
