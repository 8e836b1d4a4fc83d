//! The high-level simulator façade: pick a dataset, a model, and a
//! hardware configuration; run a verified end-to-end inference.
//!
//! With [`SimulatorBuilder::checkpoint`] configured, the functional
//! simulation advances in bounded chunks, persists a snapshot after
//! each one, and [`Simulator::run_interruptible`] can be stopped
//! between chunks; the next run under the same configuration resumes
//! from the snapshot and produces a bit-identical outcome.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use hetgraph::datasets::{generate, Dataset, DatasetId, GeneratorConfig};
use hgnn::engine::{InferenceEngine, OnTheFlyEngine};
use hgnn::{FeatureStore, HiddenFeatures, ModelConfig, ModelKind, OpCounters, Projection};
use nmp::{
    FaultConfig, FaultError, FaultStats, FunctionalState, NmpConfig, NmpError, NmpReport,
    ResumableRun,
};
use serde::{Deserialize, Serialize};

use crate::error::MetanmpError;
use crate::memory::{compare_memory, MemoryComparison};

/// Builder for a [`Simulator`].
///
/// ```
/// use hetgraph::datasets::DatasetId;
/// use hgnn::ModelKind;
/// use metanmp::Simulator;
///
/// let sim = Simulator::builder()
///     .dataset(DatasetId::Imdb)
///     .scale(0.02)
///     .model(ModelKind::Magnn)
///     .hidden_dim(16)
///     .build()?;
/// let outcome = sim.run()?;
/// assert!(outcome.matches_reference);
/// # Ok::<(), metanmp::MetanmpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimulatorBuilder {
    dataset: DatasetId,
    scale: f64,
    seed: u64,
    model: ModelKind,
    hidden_dim: usize,
    nmp: NmpConfig,
    checkpoint: Option<PathBuf>,
    checkpoint_interval: u64,
}

impl Default for SimulatorBuilder {
    fn default() -> Self {
        SimulatorBuilder {
            dataset: DatasetId::Imdb,
            scale: 0.05,
            seed: 0x5EED,
            model: ModelKind::Magnn,
            hidden_dim: 64,
            nmp: NmpConfig::default(),
            checkpoint: None,
            checkpoint_interval: 1024,
        }
    }
}

impl SimulatorBuilder {
    /// Selects the dataset preset.
    pub fn dataset(mut self, id: DatasetId) -> Self {
        self.dataset = id;
        self
    }

    /// Sets the dataset scale factor in `(0, 1]`.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the RNG seed for dataset and feature generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the HGNN model.
    pub fn model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Sets the hidden dimension.
    pub fn hidden_dim(mut self, hidden_dim: usize) -> Self {
        self.hidden_dim = hidden_dim;
        self
    }

    /// Overrides the NMP hardware configuration (its `hidden_dim` is
    /// synchronized at [`SimulatorBuilder::build`]).
    pub fn nmp_config(mut self, nmp: NmpConfig) -> Self {
        self.nmp = nmp;
        self
    }

    /// Sets the fault model for the hardware simulation.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.nmp.faults = faults;
        self
    }

    /// Persists run progress to `path`: a checksummed snapshot is
    /// written after every [`SimulatorBuilder::checkpoint_interval`]
    /// start vertices, an existing valid snapshot at `path` is resumed
    /// from, and the file is removed once the run completes. Snapshots
    /// carry a configuration fingerprint, so a checkpoint written
    /// under different settings is refused rather than resumed.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Sets the checkpoint granularity in start vertices (default
    /// 1024). Also the interruption latency of
    /// [`Simulator::run_interruptible`].
    pub fn checkpoint_interval(mut self, vertices: u64) -> Self {
        self.checkpoint_interval = vertices;
        self
    }

    /// Generates the dataset and assembles the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`MetanmpError::Config`] for invalid scales or a zero
    /// hidden dimension.
    pub fn build(mut self) -> Result<Simulator, MetanmpError> {
        if !(self.scale > 0.0 && self.scale <= 1.0) {
            return Err(MetanmpError::Config(format!(
                "scale must be in (0, 1], got {}",
                self.scale
            )));
        }
        if self.hidden_dim == 0 {
            return Err(MetanmpError::Config("hidden_dim must be positive".into()));
        }
        if self.checkpoint_interval == 0 {
            return Err(MetanmpError::Config(
                "checkpoint_interval must be positive".into(),
            ));
        }
        self.nmp.hidden_dim = self.hidden_dim;
        let dataset = generate(
            self.dataset,
            GeneratorConfig {
                scale: self.scale,
                seed: self.seed,
                ..GeneratorConfig::default()
            },
        );
        Ok(Simulator {
            dataset,
            dataset_id: self.dataset,
            scale: self.scale,
            seed: self.seed,
            model: self.model,
            hidden_dim: self.hidden_dim,
            nmp: self.nmp,
            checkpoint: self.checkpoint,
            checkpoint_interval: self.checkpoint_interval,
        })
    }
}

/// A configured end-to-end simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    dataset: Dataset,
    dataset_id: DatasetId,
    scale: f64,
    seed: u64,
    model: ModelKind,
    hidden_dim: usize,
    nmp: NmpConfig,
    checkpoint: Option<PathBuf>,
    checkpoint_interval: u64,
}

/// Everything one simulated inference produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationOutcome {
    /// The MetaNMP hardware report.
    pub nmp: NmpReport,
    /// Largest absolute embedding difference against the software
    /// reference engine.
    pub max_reference_diff: f32,
    /// `true` when the hardware embeddings match the reference within
    /// floating-point reassociation tolerance.
    pub matches_reference: bool,
    /// Memory comparison per metapath.
    pub memory: Vec<MemoryComparison>,
    /// `true` when an unrecoverable injected fault aborted the
    /// cycle-accurate functional simulation and the report was produced
    /// by the analytical estimator instead. Degraded outcomes skip the
    /// reference check (`matches_reference` is `false`,
    /// `max_reference_diff` is zero) and the memory analysis.
    pub degraded: bool,
    /// Human-readable cause of the degradation (the fault that tripped
    /// it), when `degraded` is `true`.
    pub degraded_reason: Option<String>,
}

/// Result of [`Simulator::run_interruptible`].
// One value exists per simulation run, so the size gap between the
// variants costs nothing; boxing would only hurt the call sites.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum RunStatus {
    /// The run finished; the outcome is verified as usual.
    Complete(SimulationOutcome),
    /// A stop was requested between chunks. When a checkpoint path is
    /// configured, progress (including the telemetry registry) was
    /// persisted and the next run resumes from it.
    Interrupted,
}

/// What one checkpoint file holds: the functional-simulator state
/// plus a telemetry image that the resuming process merges back in.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointImage {
    state: FunctionalState,
    telemetry: String,
}

/// Everything that must agree for a checkpoint to be resumable.
/// Hashed (not stored) — the snapshot header carries the hash.
#[derive(Serialize, Deserialize)]
struct Fingerprint {
    dataset: DatasetId,
    scale_bits: u64,
    seed: u64,
    model: ModelKind,
    hidden_dim: u64,
    nmp: NmpConfig,
}

/// Internal outcome of [`Simulator::drive_functional`]: either the
/// functional engine ran to completion (successfully or not), or a
/// stop was requested between chunks.
#[allow(clippy::large_enum_variant)]
enum Driven {
    /// Outcome of the functional engine plus the fault tallies at the
    /// moment it ended. `finish` consumes the run and a fatal fault
    /// abandons it, so the driver snapshots the tallies for the
    /// degrade path.
    Done(Result<nmp::FunctionalRun, NmpError>, FaultStats),
    Stopped,
}

impl Simulator {
    /// Starts building a simulator.
    pub fn builder() -> SimulatorBuilder {
        SimulatorBuilder::default()
    }

    /// The generated dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Hash of every input that determines the run's result; written
    /// into checkpoint headers so a snapshot from different settings
    /// is refused at load time.
    fn fingerprint(&self) -> u64 {
        checkpoint::config_hash(&Fingerprint {
            dataset: self.dataset_id,
            scale_bits: self.scale.to_bits(),
            seed: self.seed,
            model: self.model,
            hidden_dim: self.hidden_dim as u64,
            nmp: self.nmp,
        })
    }

    /// Runs one verified inference: functional NMP simulation, checked
    /// against the software reference, plus the memory analysis.
    ///
    /// # Errors
    ///
    /// Propagates engine and simulator errors, and checkpoint errors
    /// when a checkpoint path is configured.
    pub fn run(&self) -> Result<SimulationOutcome, MetanmpError> {
        match self.run_core(None)? {
            RunStatus::Complete(outcome) => Ok(outcome),
            // Unreachable: with no stop flag the loop only exits by
            // completing or erroring.
            RunStatus::Interrupted => Err(MetanmpError::Config(
                "run() interrupted without a stop flag".into(),
            )),
        }
    }

    /// [`Simulator::run`], but checks `stop` between chunks of
    /// [`SimulatorBuilder::checkpoint_interval`] start vertices. When
    /// `stop` becomes `true`, the current progress is checkpointed (if
    /// a path is configured) and [`RunStatus::Interrupted`] is
    /// returned; a later run under the same configuration resumes from
    /// the snapshot and produces a bit-identical outcome.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_interruptible(&self, stop: &AtomicBool) -> Result<RunStatus, MetanmpError> {
        self.run_core(Some(stop))
    }

    fn run_core(&self, stop: Option<&AtomicBool>) -> Result<RunStatus, MetanmpError> {
        let _span = obs::span("metanmp.simulate", "metanmp");
        let features = FeatureStore::random(&self.dataset.graph, self.seed);
        let model_config = ModelConfig::new(self.model)
            .with_hidden_dim(self.hidden_dim)
            .with_attention(false)
            .with_seed(self.seed);

        // Software reference.
        let reference = {
            let _s = obs::span("metanmp.reference", "metanmp");
            OnTheFlyEngine.run(
                &self.dataset.graph,
                &features,
                &model_config,
                &self.dataset.metapaths,
            )?
        };

        // Hardware functional run over identically projected features,
        // cache-blocked to the configured rank-AU feature-cache
        // geometry (sized for the widest raw feature dimension so the
        // weight panel of every type fits the cache).
        let projection = Projection::random(&self.dataset.graph, self.hidden_dim, self.seed);
        let mut counters = OpCounters::default();
        let max_feature_dim = self
            .dataset
            .graph
            .schema()
            .vertex_types()
            .map(|(_, decl)| decl.feature_dim)
            .max()
            .unwrap_or(self.hidden_dim);
        let tiles = self.nmp.feature_cache_tiles(max_feature_dim);
        let hidden = {
            let _s = obs::span("metanmp.projection", "metanmp");
            projection.project_with_tiles(&self.dataset.graph, &features, &mut counters, tiles)?
        };
        let (run, fault_stats) = match self.drive_functional(&hidden, stop)? {
            Driven::Done(result, stats) => (result, stats),
            Driven::Stopped => return Ok(RunStatus::Interrupted),
        };
        let run = match run {
            Ok(run) => run,
            Err(NmpError::Fault(fault)) => {
                self.clear_checkpoint();
                return self.degrade(fault, fault_stats).map(RunStatus::Complete);
            }
            Err(e) => return Err(e.into()),
        };

        let max_reference_diff = run.embeddings.max_abs_diff(&reference.embeddings);
        let memory = {
            let _s = obs::span("metanmp.memory_analysis", "metanmp");
            self.dataset
                .metapaths
                .iter()
                .map(|mp| {
                    compare_memory(
                        &self.dataset.graph,
                        mp,
                        self.model,
                        self.hidden_dim,
                        self.nmp.dram.total_dimms(),
                    )
                })
                .collect::<Result<Vec<_>, _>>()?
        };

        self.clear_checkpoint();
        Ok(RunStatus::Complete(SimulationOutcome {
            nmp: run.report,
            max_reference_diff,
            matches_reference: max_reference_diff < 1e-3,
            memory,
            degraded: false,
            degraded_reason: None,
        }))
    }

    /// Drives the resumable functional engine chunk by chunk: resume
    /// from a valid checkpoint when one exists, snapshot after every
    /// chunk, honor `stop` between chunks.
    fn drive_functional(
        &self,
        hidden: &HiddenFeatures,
        stop: Option<&AtomicBool>,
    ) -> Result<Driven, MetanmpError> {
        let _s = obs::span("metanmp.functional", "metanmp");
        let fingerprint = self.fingerprint();
        let mut run = match &self.checkpoint {
            Some(path) => match checkpoint::try_load::<CheckpointImage>(path, fingerprint)? {
                Some(image) => {
                    obs::merge_checkpoint_json(&image.telemetry).map_err(|detail| {
                        checkpoint::CheckpointError::Malformed {
                            path: path.display().to_string(),
                            detail,
                        }
                    })?;
                    obs::counter_add("checkpoint.resumes", 1);
                    ResumableRun::from_state(&image.state)?
                }
                None => ResumableRun::new(self.nmp),
            },
            None => ResumableRun::new(self.nmp),
        };
        loop {
            match run.step(
                &self.dataset.graph,
                hidden,
                self.model,
                &self.dataset.metapaths,
                self.checkpoint_interval,
            ) {
                Ok(true) => {
                    // Completion performs the DRAM service, so the
                    // fault record is only final after it; on failure
                    // the stats ride out alongside the error.
                    return Ok(
                        match run.finish_or_stats(&self.dataset.graph, &self.dataset.metapaths) {
                            Ok(done) => {
                                let stats = done.report.faults;
                                Driven::Done(Ok(done), stats)
                            }
                            Err(b) => {
                                let (e, stats) = *b;
                                Driven::Done(Err(e), stats)
                            }
                        },
                    );
                }
                Ok(false) => {
                    if let Some(path) = &self.checkpoint {
                        let image = CheckpointImage {
                            state: checkpoint::Snapshot::snapshot(&run),
                            telemetry: obs::checkpoint_json(),
                        };
                        checkpoint::save(path, fingerprint, &image)?;
                        obs::counter_add("checkpoint.saves", 1);
                    }
                    if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                        return Ok(Driven::Stopped);
                    }
                }
                Err(e) => {
                    let stats = run.fault_stats();
                    return Ok(Driven::Done(Err(e), stats));
                }
            }
        }
    }

    /// Removes the checkpoint file once a run completes, so a stale
    /// snapshot never shadows finished work. Best-effort: the file may
    /// already be gone.
    fn clear_checkpoint(&self) {
        if let Some(path) = &self.checkpoint {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Graceful-degradation path: when the cycle-accurate functional
    /// simulation dies on an unrecoverable injected fault, fall back to
    /// the analytical performance estimate (which does not execute the
    /// faulty datapath) and mark the outcome degraded instead of
    /// failing the whole run.
    fn degrade(
        &self,
        fault: FaultError,
        stats: FaultStats,
    ) -> Result<SimulationOutcome, MetanmpError> {
        let _s = obs::span("metanmp.degraded_estimate", "metanmp");
        obs::counter_add("faults.degraded_runs", 1);
        let analytic = self.nmp.with_faults(FaultConfig::off());
        let mut report = nmp::estimate(
            &self.dataset.graph,
            self.model,
            &self.dataset.metapaths,
            &analytic,
        )?;
        // Carry the injector's tallies up to the fatal fault into the
        // report. The DRAM layer counts the trip itself
        // (`watchdog_trips` / `mem_errors`) before erroring, so sweeps
        // see both the fatal event and the recovery work preceding it.
        report.faults = stats;
        Ok(SimulationOutcome {
            nmp: report,
            max_reference_diff: 0.0,
            matches_reference: false,
            memory: Vec::new(),
            degraded: true,
            degraded_reason: Some(fault.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_end_to_end() {
        let sim = Simulator::builder()
            .dataset(DatasetId::Imdb)
            .scale(0.02)
            .model(ModelKind::Magnn)
            .hidden_dim(16)
            .build()
            .unwrap();
        let outcome = sim.run().unwrap();
        assert!(
            outcome.matches_reference,
            "diff = {}",
            outcome.max_reference_diff
        );
        assert!(outcome.nmp.seconds > 0.0);
        assert_eq!(outcome.memory.len(), sim.dataset().metapaths.len());
    }

    #[test]
    fn invalid_scale_rejected() {
        assert!(matches!(
            Simulator::builder().scale(0.0).build(),
            Err(MetanmpError::Config(_))
        ));
        assert!(matches!(
            Simulator::builder().scale(1.5).build(),
            Err(MetanmpError::Config(_))
        ));
    }

    #[test]
    fn zero_hidden_dim_rejected() {
        assert!(Simulator::builder().hidden_dim(0).build().is_err());
    }

    #[test]
    fn fault_free_outcome_is_not_degraded() {
        let sim = Simulator::builder()
            .dataset(DatasetId::Imdb)
            .scale(0.02)
            .hidden_dim(16)
            .build()
            .unwrap();
        let outcome = sim.run().unwrap();
        assert!(!outcome.degraded);
        assert!(outcome.degraded_reason.is_none());
        assert!(outcome.nmp.faults.is_empty());
    }

    #[test]
    fn unrecoverable_fault_degrades_to_estimate() {
        let sim = Simulator::builder()
            .dataset(DatasetId::Imdb)
            .scale(0.02)
            .hidden_dim(16)
            .faults(nmp::FaultConfig {
                stalled_rank_mask: u64::MAX,
                watchdog_limit: 200,
                ..nmp::FaultConfig::off()
            })
            .build()
            .unwrap();
        let outcome = sim.run().expect("degrades instead of failing");
        assert!(outcome.degraded);
        let reason = outcome.degraded_reason.expect("reason recorded");
        assert!(reason.contains("watchdog"), "reason: {reason}");
        // Every channel's watchdog trips independently (the stalled
        // ranks span all of them), and the DRAM layer tallies each
        // trip before erroring.
        assert!(
            outcome.nmp.faults.watchdog_trips >= 1,
            "trips: {}",
            outcome.nmp.faults.watchdog_trips
        );
        assert!(!outcome.matches_reference, "reference check skipped");
        assert!(outcome.memory.is_empty(), "memory analysis skipped");
        assert!(
            outcome.nmp.seconds > 0.0,
            "analytical estimate still reports timing"
        );
    }

    #[test]
    fn exhausted_retry_budget_degrades_with_reason_and_telemetry() {
        let sim = Simulator::builder()
            .dataset(DatasetId::Imdb)
            .scale(0.02)
            .hidden_dim(16)
            .faults(nmp::FaultConfig {
                seed: 3,
                bit_flip_rate: 1.0, // every read faulted
                retry_limit: 0,     // first uncorrectable detection is fatal
                ..nmp::FaultConfig::off()
            })
            .build()
            .unwrap();
        let outcome = sim.run().expect("degrades instead of failing");
        assert!(outcome.degraded);
        let reason = outcome.degraded_reason.as_deref().expect("reason recorded");
        assert!(
            reason.contains("uncorrectable-ecc"),
            "reason names the exhausted ECC retry budget: {reason}"
        );
        // The fault report survives into the degraded outcome: the
        // injector's work up to the fatal error stays visible.
        assert!(outcome.nmp.faults.injected_bit_flips > 0);
        assert!(outcome.nmp.faults.mem_errors > 0);
        // And the faults.* telemetry counters are populated (global
        // sink, so >= not ==).
        let snap = obs::snapshot();
        assert!(snap.counter("faults.degraded_runs").unwrap_or(0) >= 1);
        assert!(snap.counter("faults.injected_bit_flips").unwrap_or(0) >= 1);
    }

    /// Fault-injected ECC retries re-issue DRAM bursts for requests
    /// that already partially serviced; the retirement auditor must
    /// account those as retries of the same request, not double
    /// retirement.
    #[cfg(feature = "audit")]
    #[test]
    fn audit_stays_clean_across_fault_retries() {
        let sim = Simulator::builder()
            .dataset(DatasetId::Imdb)
            .scale(0.02)
            .hidden_dim(16)
            .faults(nmp::FaultConfig {
                seed: 5,
                bit_flip_rate: 0.05,
                stall_rate: 0.02,
                retry_limit: 50,
                ..nmp::FaultConfig::off()
            })
            .build()
            .unwrap();
        let outcome = sim.run().unwrap();
        assert!(!outcome.degraded);
        assert!(outcome.nmp.faults.total_injected() > 0, "faults did fire");
        let audit = &outcome.nmp.audit;
        assert!(audit.enabled);
        assert!(
            audit.is_clean(),
            "retries misread as violations: {:?}",
            audit.violations.first()
        );
    }

    #[test]
    fn recoverable_faults_do_not_degrade() {
        let sim = Simulator::builder()
            .dataset(DatasetId::Imdb)
            .scale(0.02)
            .hidden_dim(16)
            .faults(nmp::FaultConfig {
                seed: 5,
                broadcast_drop_rate: 0.3,
                bit_flip_rate: 0.005,
                ..nmp::FaultConfig::off()
            })
            .build()
            .unwrap();
        let outcome = sim.run().unwrap();
        assert!(!outcome.degraded);
        assert!(
            outcome.matches_reference,
            "recovered faults must not corrupt the result: diff = {}",
            outcome.max_reference_diff
        );
        assert!(outcome.nmp.faults.total_injected() > 0);
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("metanmp-simulator-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    // Deliberately tiny: the resume test below re-runs the software
    // reference and reloads/saves the full snapshot once per interrupt,
    // so a large scale or small interval makes it quadratically slow.
    fn small_sim(checkpoint: Option<PathBuf>) -> Simulator {
        let mut b = Simulator::builder()
            .dataset(DatasetId::Imdb)
            .scale(0.005)
            .hidden_dim(8)
            .faults(nmp::FaultConfig {
                seed: 11,
                broadcast_drop_rate: 0.2,
                bit_flip_rate: 0.003,
                ..nmp::FaultConfig::off()
            })
            .checkpoint_interval(5);
        if let Some(path) = checkpoint {
            b = b.checkpoint(path);
        }
        b.build().unwrap()
    }

    #[test]
    fn interrupt_and_resume_is_byte_identical() {
        let dir = scratch("resume");
        let ckpt = dir.join("run.ckpt");
        let straight = small_sim(None).run().unwrap();
        let expected = serde_json::to_string(&straight).unwrap();

        // A stop flag that is always set: every call makes exactly one
        // chunk of progress, checkpoints, and returns Interrupted —
        // the harshest possible kill schedule.
        let sim = small_sim(Some(ckpt.clone()));
        let stop = AtomicBool::new(true);
        let mut interruptions = 0u32;
        let outcome = loop {
            match sim.run_interruptible(&stop).unwrap() {
                RunStatus::Complete(outcome) => break outcome,
                RunStatus::Interrupted => {
                    interruptions += 1;
                    assert!(ckpt.exists(), "interrupt persists a snapshot");
                    assert!(interruptions < 10_000, "run never completes");
                }
            }
        };
        assert!(interruptions > 2, "test must actually interrupt the run");
        assert_eq!(
            serde_json::to_string(&outcome).unwrap(),
            expected,
            "resumed outcome must be byte-identical to an uninterrupted run"
        );
        assert!(!ckpt.exists(), "checkpoint removed after completion");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_a_structured_error() {
        let dir = scratch("corrupt");
        let ckpt = dir.join("run.ckpt");
        let sim = small_sim(Some(ckpt.clone()));

        // Leave a real snapshot behind, then corrupt it.
        let stop = AtomicBool::new(true);
        assert!(matches!(
            sim.run_interruptible(&stop).unwrap(),
            RunStatus::Interrupted
        ));
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&ckpt, &bytes).unwrap();
        match sim.run() {
            Err(MetanmpError::Checkpoint(_)) => {}
            other => panic!("bit flip must surface as a checkpoint error, got {other:?}"),
        }

        // Truncation likewise.
        let bytes = std::fs::read(&ckpt).unwrap();
        std::fs::write(&ckpt, &bytes[..20]).unwrap();
        assert!(matches!(sim.run(), Err(MetanmpError::Checkpoint(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A version-3 checkpoint carries the DRAM image's per-request
    /// `pending` ledger and neither in-flight entries nor a completion
    /// digest. Loading it is a structured error; the run never resumes
    /// with an empty ledger.
    #[test]
    fn version_3_checkpoint_is_refused() {
        let dir = scratch("v3");
        let ckpt = dir.join("run.ckpt");
        let sim = small_sim(Some(ckpt.clone()));
        let stop = AtomicBool::new(true);
        assert!(matches!(
            sim.run_interruptible(&stop).unwrap(),
            RunStatus::Interrupted
        ));
        let bytes = std::fs::read(&ckpt).unwrap();
        let json = std::str::from_utf8(&bytes[32..]).unwrap();
        let start = json.find(",\"inflight\":").expect("ledger field");
        let end = json.find(",\"next_id\":").expect("id field");
        let v3 = format!(
            "{},\"pending\":[[0,{},0]]{}",
            &json[..start],
            u64::MAX,
            &json[end..]
        );
        let hash = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let mut framed = checkpoint::encode(hash, v3.as_bytes());
        framed[8..12].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&ckpt, &framed).unwrap();
        match sim.run() {
            Err(MetanmpError::Checkpoint(checkpoint::CheckpointError::Malformed {
                detail,
                ..
            })) => assert!(detail.contains("expected array"), "{detail}"),
            other => panic!("a version-3 image must be refused, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_config_checkpoint_is_refused() {
        let dir = scratch("fingerprint");
        let ckpt = dir.join("run.ckpt");
        let stop = AtomicBool::new(true);
        let sim = small_sim(Some(ckpt.clone()));
        assert!(matches!(
            sim.run_interruptible(&stop).unwrap(),
            RunStatus::Interrupted
        ));

        // Same checkpoint path, same shape, different seed → different
        // fingerprint.
        let other = Simulator::builder()
            .dataset(DatasetId::Imdb)
            .scale(0.005)
            .hidden_dim(8)
            .seed(0xD1FF)
            .checkpoint(ckpt.clone())
            .build()
            .unwrap();
        match other.run() {
            Err(MetanmpError::Checkpoint(checkpoint::CheckpointError::ConfigMismatch {
                ..
            })) => {}
            other => panic!("foreign snapshot must be refused, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_without_checkpoint_path_still_completes_interruptible() {
        // No checkpoint path: interruption still works (state is just
        // not persisted), and an unset stop flag runs to completion.
        let sim = small_sim(None);
        let stop = AtomicBool::new(false);
        match sim.run_interruptible(&stop).unwrap() {
            RunStatus::Complete(outcome) => assert!(outcome.matches_reference),
            RunStatus::Interrupted => panic!("unset stop flag must not interrupt"),
        }
    }

    #[test]
    fn han_and_shgnn_also_verify() {
        for kind in [ModelKind::Han, ModelKind::Shgnn] {
            let sim = Simulator::builder()
                .dataset(DatasetId::Imdb)
                .scale(0.02)
                .model(kind)
                .hidden_dim(8)
                .build()
                .unwrap();
            let outcome = sim.run().unwrap();
            assert!(outcome.matches_reference, "{kind} diverged");
        }
    }
}
