//! The `faults` experiment: resilience of the MetaNMP pipeline under
//! injected hardware faults.
//!
//! Three sweeps over the end-to-end simulator (IMDB @ 0.02, MAGNN,
//! hidden 16), all driven by one `--seed` so the whole experiment is
//! reproducible bit for bit:
//!
//! 1. **ECC sweep** — transient DRAM bit-flip rates against the
//!    SEC-DED ECC + bounded-retry pipeline: latency grows with the
//!    rate, the computed embeddings stay verified.
//! 2. **Broadcast sweep** — inter-DIMM broadcast drop rates against
//!    the retry → point-to-point-fallback policy.
//! 3. **Watchdog demo** — every rank stalled, demonstrating the
//!    forward-progress watchdog and the graceful degradation to the
//!    analytical estimate.
//!
//! Besides the usual stdout/`results/*.md` tables, the experiment
//! writes `results/faults.json` containing only simulation-derived
//! values (no wall-clock), so two runs with the same seed produce
//! byte-identical files.
//!
//! The experiment is a *resumable sweep*: with `--sweep-dir` each
//! simulation is one journaled cell and the in-flight cell checkpoints
//! through [`metanmp::SimulatorBuilder::checkpoint`], so a SIGINT'd run
//! restarted with `--resume` replays completed cells, picks the
//! interrupted simulation up mid-flight, and still produces a
//! `results/faults.json` byte-identical to an uninterrupted run.

use hetgraph::datasets::DatasetId;
use hgnn::ModelKind;
use metanmp::{FaultConfig, FaultStats, RunStatus, SimulationOutcome, Simulator};
use serde::Serialize;

use crate::common::{fmt_x, Ctx, ExpError, ExpResult, ResultExt, TableWriter};
use crate::sweep::{self, CellSpec, SweepRunner};

const DATASET: DatasetId = DatasetId::Imdb;
const SCALE: f64 = 0.02;
const HIDDEN: usize = 16;

const BIT_FLIP_RATES: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];
const DROP_RATES: [f64; 4] = [0.0, 0.05, 0.2, 0.5];

/// Everything that determines one cell's result; hashed into the
/// journal so a stale record never masquerades as the current config.
#[derive(Serialize)]
struct CellCfg {
    dataset: DatasetId,
    scale_bits: u64,
    hidden: u64,
    seed: u64,
    faults: FaultConfig,
}

fn cell_hash(cx: &Ctx, faults: &FaultConfig) -> u64 {
    checkpoint::config_hash(&CellCfg {
        dataset: DATASET,
        scale_bits: SCALE.to_bits(),
        hidden: HIDDEN as u64,
        seed: cx.seed,
        faults: *faults,
    })
}

/// The whole sweep's identity: grid plus shared parameters. Changing
/// any of these invalidates an existing journal.
#[derive(Serialize)]
struct SweepCfg {
    dataset: DatasetId,
    scale_bits: u64,
    hidden: u64,
    seed: u64,
    bit_flip_bits: Vec<u64>,
    drop_bits: Vec<u64>,
}

fn sweep_hash(cx: &Ctx) -> u64 {
    checkpoint::config_hash(&SweepCfg {
        dataset: DATASET,
        scale_bits: SCALE.to_bits(),
        hidden: HIDDEN as u64,
        seed: cx.seed,
        bit_flip_bits: BIT_FLIP_RATES.iter().map(|r| r.to_bits()).collect(),
        drop_bits: DROP_RATES.iter().map(|r| r.to_bits()).collect(),
    })
}

/// One sweep point, serialized into `results/faults.json`. Every field
/// is derived from the (deterministic) simulation — no timestamps or
/// wall-clock durations.
#[derive(Debug, Serialize)]
struct JsonRow {
    sweep: String,
    rate: f64,
    cycles: u64,
    seconds: f64,
    slowdown_vs_fault_free: f64,
    matches_reference: bool,
    max_reference_diff: f64,
    degraded: bool,
    degraded_reason: Option<String>,
    faults: FaultStats,
}

#[derive(Debug, Serialize)]
struct JsonDoc {
    dataset: String,
    scale: f64,
    model: String,
    hidden_dim: usize,
    seed: u64,
    baseline_cycles: u64,
    baseline_seconds: f64,
    rows: Vec<JsonRow>,
}

/// Filesystem-safe image of a cell key, used to give every cell its
/// own in-flight checkpoint file (cells run concurrently under
/// `--jobs`, so a shared path would interleave snapshots).
fn sanitize_key(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn run_one(cx: &Ctx, key: &str, faults: FaultConfig) -> Result<SimulationOutcome, ExpError> {
    let mut builder = Simulator::builder()
        .dataset(DATASET)
        .scale(SCALE)
        .model(ModelKind::Magnn)
        .hidden_dim(HIDDEN)
        .faults(faults);
    if let Some(sweep) = &cx.sweep {
        builder = builder
            .checkpoint(
                sweep
                    .dir
                    .join(format!("inflight-{}.ckpt", sanitize_key(key))),
            )
            .checkpoint_interval(sweep.interval);
    }
    let sim = builder.build().ctx("faults: simulator configuration")?;
    match sim
        .run_interruptible(sweep::interrupt_flag())
        .ctx("faults: end-to-end simulation")?
    {
        RunStatus::Complete(outcome) => Ok(outcome),
        RunStatus::Interrupted => Err(match &cx.sweep {
            Some(sweep) => ExpError::Interrupted {
                dir: sweep.dir.clone(),
            },
            None => {
                ExpError::Failed("faults: interrupted (no --sweep-dir, nothing persisted)".into())
            }
        }),
    }
}

/// The sweep identity hash `sweepd` journals under (worker-mode API).
pub fn worker_sweep_hash(cx: &Ctx) -> u64 {
    sweep_hash(cx)
}

/// The cell grid as `(key, cell_hash)` pairs, for the coordinator to
/// shard across workers (worker-mode API).
pub fn worker_grid(cx: &Ctx) -> Vec<(String, u64)> {
    cell_grid(cx)
        .into_iter()
        .map(|(key, faults)| (key, cell_hash(cx, &faults)))
        .collect()
}

/// Runs one cell by journal key, returning `(cell_hash, result_json)`
/// — exactly the bytes the in-process sweep would journal, so a
/// coordinator-assembled journal replays byte-identically.
pub fn worker_run_cell(cx: &Ctx, key: &str) -> Result<(u64, String), ExpError> {
    let (_, faults) = cell_grid(cx)
        .into_iter()
        .find(|(k, _)| k == key)
        .ok_or_else(|| ExpError::Failed(format!("faults: unknown cell key {key:?}")))?;
    let outcome = run_one(cx, key, faults)?;
    let json =
        serde_json::to_string(&outcome).ctx(&format!("faults: serializing cell {key:?} result"))?;
    Ok((cell_hash(cx, &faults), json))
}

/// The sweep's cell grid in canonical (journal) order: baseline, the
/// ECC sweep, the broadcast sweep, the watchdog demo.
fn cell_grid(cx: &Ctx) -> Vec<(String, FaultConfig)> {
    let mut defs = vec![("baseline".to_string(), FaultConfig::off())];
    for rate in BIT_FLIP_RATES {
        defs.push((
            format!("bit_flip/{rate:e}"),
            FaultConfig {
                seed: cx.seed,
                bit_flip_rate: rate,
                ..FaultConfig::off()
            },
        ));
    }
    for rate in DROP_RATES {
        defs.push((
            format!("broadcast_drop/{rate:e}"),
            FaultConfig {
                seed: cx.seed,
                broadcast_drop_rate: rate,
                ..FaultConfig::off()
            },
        ));
    }
    defs.push((
        "watchdog_stall".to_string(),
        FaultConfig {
            seed: cx.seed,
            stalled_rank_mask: u64::MAX,
            watchdog_limit: 200,
            ..FaultConfig::off()
        },
    ));
    defs
}

fn json_row(sweep: &str, rate: f64, base_cycles: u64, out: &SimulationOutcome) -> JsonRow {
    JsonRow {
        sweep: sweep.to_string(),
        rate,
        cycles: out.nmp.cycles,
        seconds: out.nmp.seconds,
        slowdown_vs_fault_free: out.nmp.cycles as f64 / base_cycles as f64,
        matches_reference: out.matches_reference,
        max_reference_diff: f64::from(out.max_reference_diff),
        degraded: out.degraded,
        degraded_reason: out.degraded_reason.clone(),
        faults: out.nmp.faults,
    }
}

/// Runs the fault-rate sweeps and writes `results/faults.json`.
///
/// All cells go through [`SweepRunner::cells`]: under `--jobs N` they
/// fan out over N workers, journaled and presented in the same
/// canonical order a serial run uses, so every artifact is
/// byte-identical at any worker count.
pub fn faults(cx: &Ctx) -> ExpResult {
    let mut runner = SweepRunner::open(cx, "faults", sweep_hash(cx))?;
    let defs = cell_grid(cx);
    let specs: Vec<CellSpec<'_, SimulationOutcome>> = defs
        .iter()
        .map(|(key, faults)| CellSpec {
            key: key.clone(),
            hash: cell_hash(cx, faults),
            run: Box::new({
                let (key, faults) = (key.clone(), *faults);
                move || run_one(cx, &key, faults)
            }),
        })
        .collect();
    let outs = runner.cells(cx.jobs, specs)?;

    let base = &outs[0];
    let bit_flip = &outs[1..1 + BIT_FLIP_RATES.len()];
    let drops = &outs[1 + BIT_FLIP_RATES.len()..1 + BIT_FLIP_RATES.len() + DROP_RATES.len()];
    let watchdog = &outs[outs.len() - 1];
    let base_cycles = base.nmp.cycles;
    let mut rows: Vec<JsonRow> = Vec::new();

    // ---- 1. ECC sweep: transient bit flips -----------------------
    let mut t = TableWriter::new(
        "faults_ecc",
        "Faults — DRAM bit-flip rate vs SEC-DED ECC (IMDB@0.02, MAGNN)",
        &[
            "Flip rate",
            "Cycles",
            "Slowdown",
            "Corrected",
            "Detected",
            "Retries",
            "Verified",
            "Degraded",
        ],
    );
    for (rate, out) in BIT_FLIP_RATES.into_iter().zip(bit_flip) {
        let f = out.nmp.faults;
        t.row(vec![
            format!("{rate:.0e}"),
            out.nmp.cycles.to_string(),
            fmt_x(out.nmp.cycles as f64 / base_cycles as f64),
            f.ecc_corrected.to_string(),
            f.ecc_detected.to_string(),
            f.read_retries.to_string(),
            if out.matches_reference { "yes" } else { "NO" }.to_string(),
            out.degraded.to_string(),
        ]);
        rows.push(json_row("bit_flip", rate, base_cycles, out));
    }
    t.note("SEC-DED corrects single-bit flips and retries detected double-bit flips; embeddings stay verified while latency absorbs the recovery cost.");
    t.finish()?;

    // ---- 2. Broadcast sweep: dropped inter-DIMM transfers --------
    let mut t = TableWriter::new(
        "faults_broadcast",
        "Faults — broadcast drop rate vs retry + p2p fallback (IMDB@0.02, MAGNN)",
        &[
            "Drop rate",
            "Cycles",
            "Slowdown",
            "Drops",
            "Retries",
            "Fallbacks",
            "Verified",
        ],
    );
    for (rate, out) in DROP_RATES.into_iter().zip(drops) {
        let f = out.nmp.faults;
        t.row(vec![
            format!("{rate}"),
            out.nmp.cycles.to_string(),
            fmt_x(out.nmp.cycles as f64 / base_cycles as f64),
            f.broadcast_drops.to_string(),
            f.broadcast_retries.to_string(),
            f.broadcast_fallbacks.to_string(),
            if out.matches_reference { "yes" } else { "NO" }.to_string(),
        ]);
        rows.push(json_row("broadcast_drop", rate, base_cycles, out));
    }
    t.note("Dropped broadcasts are retried with exponential backoff; transfers that exhaust the budget fall back to point-to-point sends, so every run completes verified.");
    t.finish()?;

    // ---- 3. Watchdog demo: all ranks stalled ---------------------
    let mut t = TableWriter::new(
        "faults_watchdog",
        "Faults — watchdog trip and graceful degradation (all ranks stalled)",
        &["Scenario", "Degraded", "Watchdog trips", "Reason"],
    );
    let out = watchdog;
    if !out.degraded {
        return Err(ExpError::Failed(
            "faults: stalled-rank scenario was expected to degrade but did not".to_string(),
        ));
    }
    t.row(vec![
        "stalled_rank_mask=ALL".to_string(),
        out.degraded.to_string(),
        out.nmp.faults.watchdog_trips.to_string(),
        out.degraded_reason.clone().unwrap_or_default(),
    ]);
    t.note("The forward-progress watchdog aborts the wedged cycle simulation with a structured error; the simulator falls back to the analytical estimate and marks the outcome degraded.");
    t.finish()?;
    rows.push(json_row("watchdog_stall", 1.0, base_cycles, out));

    // ---- Deterministic JSON artifact -----------------------------
    let doc = JsonDoc {
        dataset: DATASET.abbrev().to_string(),
        scale: SCALE,
        model: "MAGNN".to_string(),
        hidden_dim: HIDDEN,
        seed: cx.seed,
        baseline_cycles: base_cycles,
        baseline_seconds: base.nmp.seconds,
        rows,
    };
    let json = serde_json::to_string_pretty(&doc).ctx("faults: serializing results")?;
    std::fs::create_dir_all("results").ctx("faults: creating results/")?;
    checkpoint::atomic_write_str(std::path::Path::new("results/faults.json"), &json)
        .ctx("faults: writing results/faults.json")?;
    eprintln!("faults: deterministic sweep written to results/faults.json");
    Ok(())
}
