//! The four workloads: their inputs (made from the seed), the untraced
//! op measured end to end, and the traced op that calls the layers one
//! level down and reports their self times and exact counts.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;

use hetgraph::datasets::{generate, DatasetId, GeneratorConfig};
use hetgraph::instances::{count_instances, count_instances_per_start};
use hgnn::engine::{InferenceEngine, OnTheFlyEngine};
use hgnn::{FeatureStore, ModelConfig, ModelKind, OpCounters, Projection};
use metanmp::{compare, compare_memory, Comparison, RunStatus, SimulationOutcome, Simulator};
use nmp::{FaultConfig, FunctionalState, NmpConfig, NmpReport, ResumableRun};
use serde::{Deserialize, Serialize};

use crate::trace::Tracer;

/// Exact per-op counts, keyed by per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// One named set of inputs the benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimClean,
    SimFaulted,
    SimCheckpoint,
    FiguresWeb,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimClean,
        Workload::SimFaulted,
        Workload::SimCheckpoint,
        Workload::FiguresWeb,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimClean => "sim-clean",
            Workload::SimFaulted => "sim-faulted",
            Workload::SimCheckpoint => "sim-checkpoint",
            Workload::FiguresWeb => "figures-web",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

const MODEL: ModelKind = ModelKind::Magnn;
/// `SimulatorBuilder`'s default step budget; the traced op chunks the
/// same way so both ops walk identical batches.
const SIM_INTERVAL: u64 = 1024;
/// Start vertices per checkpoint chunk on `sim-checkpoint`. IMDB@0.02
/// has 466 start vertices over its six metapaths, so a run saves three
/// snapshots (one before the interruption, two after the resume), the
/// last one vertex before the end. The DRAM queue is serviced only at
/// `finish`, so that last snapshot holds nearly every request: its
/// size, and the op's peak memory, follow the instance count the seed
/// pick holds fixed rather than where the chunk edges fall.
const CKPT_INTERVAL: u64 = 155;
/// Web-scale presets of `figures-web`: (dataset, analysis scale,
/// execution scale for `metanmp::compare`).
const WEB: [(DatasetId, f64, f64); 2] = [
    (DatasetId::OgbMag, 0.1, 0.00007),
    (DatasetId::Oag, 0.02, 0.00003),
];

/// The recoverable fault mix of `sim-faulted`: ECC bit flips, broadcast
/// drops and CarPU stalls, with a retry budget no op exhausts.
fn fault_mix(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        bit_flip_rate: 0.01,
        broadcast_drop_rate: 0.2,
        stall_rate: 0.01,
        retry_limit: 16,
        ..FaultConfig::off()
    }
}

fn derive(seed: u64, salt: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..].copy_from_slice(&salt.to_le_bytes());
    checkpoint::fnv1a64(&bytes)
}

fn total_instances(id: DatasetId, scale: f64, seed: u64) -> u128 {
    let ds = generate(
        id,
        GeneratorConfig {
            scale,
            seed,
            ..GeneratorConfig::default()
        },
    );
    ds.metapaths
        .iter()
        .map(|mp| count_instances(&ds.graph, mp).expect("preset metapaths fit their graph"))
        .sum()
}

/// Picks the generator seed of a small preset from the workload seed.
///
/// At these scales the metapath-instance count, which sets the work of
/// every layer, varies by about ±25% between generator seeds. The pick
/// holds it fixed: it takes the first seed derived from `seed` whose
/// total instance count is within 0.5% of the median over 64 fixed
/// calibration seeds. Every workload seed so gets a graph of its own
/// structure but of the same size, and the same seed the same graph.
pub fn pick_seed(id: DatasetId, scale: f64, seed: u64) -> u64 {
    const CALIBRATION: u64 = 64;
    const CANDIDATES: u64 = 4096;
    let mut calibration: Vec<u128> = (0..CALIBRATION)
        .map(|i| total_instances(id, scale, derive(u64::MAX, i)))
        .collect();
    calibration.sort_unstable();
    let target = calibration[calibration.len() / 2];
    let mut best = (u128::MAX, seed);
    for i in 0..CANDIDATES {
        let candidate = derive(seed, i);
        let deviation = total_instances(id, scale, candidate).abs_diff(target);
        if deviation * 200 <= target {
            return candidate;
        }
        best = best.min((deviation, candidate));
    }
    best.1
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Total milliseconds the program's own telemetry booked under `phase`
/// since the last `obs::reset`.
fn phase_ms(phase: &str) -> f64 {
    obs::snapshot()
        .phases
        .iter()
        .find(|p| p.name == phase)
        .map_or(0.0, |p| p.total_ms)
}

/// A workload ready to run: inputs built, reference outcome computed.
// One value exists per set-up, so the size gap between the variants
// costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Bench {
    Sim(SimBench),
    Web(WebBench),
}

impl Bench {
    /// Builds the inputs from `seed` and computes the reference outcome
    /// every op is checked against. `scratch` holds checkpoint files.
    pub fn setup(
        workload: Workload,
        seed: u64,
        scratch: &Path,
        tr: &mut Tracer,
    ) -> Result<Self, String> {
        match workload {
            Workload::FiguresWeb => WebBench::setup(seed, tr).map(Bench::Web),
            w => SimBench::setup(w, seed, scratch, tr).map(Bench::Sim),
        }
    }

    /// The serialized outcome every op must reproduce byte for byte.
    pub fn reference(&self) -> &str {
        match self {
            Bench::Sim(b) => &b.reference,
            Bench::Web(b) => &b.reference,
        }
    }

    /// One op through the layers' public entry points; returns its
    /// serialized outcome.
    pub fn op(&self) -> Result<String, String> {
        match self {
            Bench::Sim(b) => b.op(),
            Bench::Web(b) => b.op(&mut Tracer::disabled()).map(|(out, _)| out),
        }
    }

    /// The same op one level down, with a span around each layer call.
    pub fn traced_op(&self, tr: &mut Tracer) -> Result<(String, Counts), String> {
        match self {
            Bench::Sim(b) => b.traced_op(tr),
            Bench::Web(b) => b.op(tr),
        }
    }
}

/// What `sim-checkpoint`'s traced op persists: the functional state
/// plus the telemetry image, as the simulator façade does.
#[derive(Serialize, Deserialize)]
struct Image {
    state: FunctionalState,
    telemetry: String,
}

pub struct SimBench {
    sim: Simulator,
    seed: u64,
    hidden: usize,
    cfg: NmpConfig,
    interval: u64,
    checkpoint: Option<PathBuf>,
    reference: String,
    instances: u128,
    naive_aggregations: u128,
}

impl SimBench {
    fn setup(
        workload: Workload,
        seed: u64,
        scratch: &Path,
        tr: &mut Tracer,
    ) -> Result<Self, String> {
        let checkpointed = workload == Workload::SimCheckpoint;
        let (scale, hidden, interval) = if checkpointed {
            (0.02, 16, CKPT_INTERVAL)
        } else {
            (0.05, 64, SIM_INTERVAL)
        };
        let seed = pick_seed(DatasetId::Imdb, scale, seed);
        let faults = match workload {
            Workload::SimFaulted => fault_mix(seed),
            _ => FaultConfig::off(),
        };
        let cfg = NmpConfig {
            hidden_dim: hidden,
            faults,
            ..NmpConfig::default()
        };
        let builder = Simulator::builder()
            .dataset(DatasetId::Imdb)
            .scale(scale)
            .seed(seed)
            .model(MODEL)
            .hidden_dim(hidden)
            .nmp_config(cfg)
            .checkpoint_interval(interval);
        let plain = tr.span("hetgraph.generate", |_| {
            builder.clone().build().map_err(err)
        })?;
        let reference = checked(plain.run().map_err(err)?)?;
        let checkpoint = checkpointed.then(|| scratch.join(format!("{}.ckpt", workload.name())));
        let sim = match &checkpoint {
            Some(path) => builder.checkpoint(path).build().map_err(err)?,
            None => plain,
        };
        let ds = sim.dataset();
        let (mut instances, mut naive_aggregations) = (0, 0);
        for mp in &ds.metapaths {
            let n = tr
                .span("hetgraph.count_instances", |_| {
                    count_instances(&ds.graph, mp)
                })
                .map_err(err)?;
            instances += n;
            naive_aggregations += n * mp.length() as u128;
        }
        Ok(SimBench {
            sim,
            seed,
            hidden,
            cfg,
            interval,
            checkpoint,
            reference,
            instances,
            naive_aggregations,
        })
    }

    fn op(&self) -> Result<String, String> {
        let Some(path) = &self.checkpoint else {
            return checked(self.sim.run().map_err(err)?);
        };
        let stop = AtomicBool::new(true);
        match self.sim.run_interruptible(&stop).map_err(err)? {
            RunStatus::Interrupted if path.exists() => {}
            RunStatus::Interrupted => return Err("interrupted run left no snapshot".into()),
            RunStatus::Complete(_) => return Err("run finished before its interruption".into()),
        }
        let out = checked(self.sim.run().map_err(err)?)?;
        if path.exists() {
            return Err("completed run left its snapshot behind".into());
        }
        Ok(out)
    }

    fn traced_op(&self, tr: &mut Tracer) -> Result<(String, Counts), String> {
        let mut counts = Counts::new();
        let path = self.checkpoint.as_deref();
        if path.is_some() && self.attempt(tr, path, true, &mut counts)?.is_some() {
            return Err("run finished before its interruption".into());
        }
        let outcome = self
            .attempt(tr, path, false, &mut counts)?
            .ok_or("uninterruptible attempt stopped")?;
        let report = &outcome.nmp;
        let ds = self.sim.dataset();
        let c = &report.counts;
        let dram = &report.dram_stats;
        let f = &report.faults;
        for (name, value) in [
            ("hetgraph.edges", ds.graph.total_edge_count() as f64),
            ("hetgraph.instances", self.instances as f64),
            ("nmp.instances", c.instances as f64),
            ("nmp.aggregations", c.aggregations as f64),
            (
                "nmp.reuse_ratio",
                1.0 - c.aggregations as f64 / self.naive_aggregations as f64,
            ),
            ("nmp.sim_cycles", report.cycles as f64),
            ("nmp.sim_energy_mj", report.energy.total_j() * 1e3),
            ("dramsim.bursts", (dram.reads + dram.writes) as f64),
            ("dramsim.row_hit_rate", dram.row_hit_rate()),
            ("dramsim.elapsed_cycles", dram.elapsed_cycles as f64),
            ("faultsim.injected", f.total_injected() as f64),
            ("faultsim.ecc_corrected", f.ecc_corrected as f64),
            ("faultsim.read_retries", f.read_retries as f64),
            ("faultsim.broadcast_retries", f.broadcast_retries as f64),
            ("faultsim.stall_events", f.stall_events as f64),
        ] {
            counts.insert(name, value);
        }
        Ok((checked(outcome)?, counts))
    }

    /// One pass of `Simulator::run_core`, one level down: returns
    /// `None` when `stop` ends it after its first checkpoint.
    fn attempt(
        &self,
        tr: &mut Tracer,
        ckpt: Option<&Path>,
        stop: bool,
        counts: &mut Counts,
    ) -> Result<Option<SimulationOutcome>, String> {
        let ds = self.sim.dataset();
        let (graph, metapaths) = (&ds.graph, &ds.metapaths);
        let features = tr.span("hgnn.features", |_| FeatureStore::random(graph, self.seed));
        let model_config = ModelConfig::new(MODEL)
            .with_hidden_dim(self.hidden)
            .with_attention(false)
            .with_seed(self.seed);
        let reference = tr
            .span("hgnn.reference", |_| {
                OnTheFlyEngine.run(graph, &features, &model_config, metapaths)
            })
            .map_err(err)?;
        let mut projected = OpCounters::default();
        let hidden = tr
            .span("hgnn.projection", |_| {
                let projection = Projection::random(graph, self.hidden, self.seed);
                let widest = graph
                    .schema()
                    .vertex_types()
                    .map(|(_, decl)| decl.feature_dim)
                    .max()
                    .unwrap_or(self.hidden);
                let tiles = self.cfg.feature_cache_tiles(widest);
                projection.project_with_tiles(graph, &features, &mut projected, tiles)
            })
            .map_err(err)?;
        let fingerprint = checkpoint::config_hash(&self.cfg);
        let mut run = match ckpt.filter(|p| p.exists()) {
            Some(path) => {
                let image = tr.span("checkpoint.load", |_| {
                    let image: Image = checkpoint::load(path, fingerprint).map_err(err)?;
                    obs::merge_checkpoint_json(&image.telemetry)?;
                    Ok::<_, String>(image)
                })?;
                tr.span("checkpoint.restore", |_| {
                    ResumableRun::from_state(&image.state)
                })
                .map_err(err)?
            }
            None => ResumableRun::new(self.cfg),
        };
        loop {
            let done = tr
                .span("nmp.step", |_| {
                    run.step(graph, &hidden, MODEL, metapaths, self.interval)
                })
                .map_err(err)?;
            if done {
                break;
            }
            if let Some(path) = ckpt {
                let image = tr.span("checkpoint.snapshot", |_| Image {
                    state: checkpoint::Snapshot::snapshot(&run),
                    telemetry: obs::checkpoint_json(),
                });
                tr.span("checkpoint.save", |_| {
                    checkpoint::save(path, fingerprint, &image)
                })
                .map_err(err)?;
                // Not an exact count: the telemetry image inside the
                // snapshot carries wall-clock phase totals.
                let bytes = std::fs::metadata(path).map_err(err)?.len();
                tr.record("checkpoint.bytes", bytes as f64);
                if stop {
                    return Ok(None);
                }
            }
        }
        let service_before = phase_ms("nmp.dram.service");
        let done = tr
            .span("nmp.finish", |_| run.finish(graph, metapaths))
            .map_err(err)?;
        tr.attach(
            "dramsim.service",
            phase_ms("nmp.dram.service") - service_before,
        );
        let max_reference_diff = done.embeddings.max_abs_diff(&reference.embeddings);
        let memory = tr
            .span("metanmp.memory_analysis", |_| {
                metapaths
                    .iter()
                    .map(|mp| {
                        compare_memory(graph, mp, MODEL, self.hidden, self.cfg.dram.total_dimms())
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(err)?;
        if let Some(path) = ckpt {
            std::fs::remove_file(path).map_err(err)?;
        }
        let mut ops = reference.profile.totals();
        ops.merge(&projected);
        counts.insert("hgnn.ops.flops", ops.flops as f64);
        counts.insert("hgnn.ops.bytes", ops.bytes() as f64);
        Ok(Some(SimulationOutcome {
            nmp: done.report,
            max_reference_diff,
            matches_reference: max_reference_diff < 1e-3,
            memory,
            degraded: false,
            degraded_reason: None,
        }))
    }
}

/// Checks one simulated outcome and serializes it for the byte
/// comparison against the reference.
fn checked(outcome: SimulationOutcome) -> Result<String, String> {
    if outcome.degraded {
        return Err(format!(
            "run degraded: {}",
            outcome.degraded_reason.unwrap_or_default()
        ));
    }
    if !outcome.matches_reference {
        return Err(format!(
            "hardware embeddings diverge from the reference by {}",
            outcome.max_reference_diff
        ));
    }
    serde_json::to_string(&outcome).map_err(|e| format!("{e:?}"))
}

pub struct WebBench {
    /// Per preset: analysis-scale seed and execution-scale seed.
    seeds: Vec<(u64, u64)>,
    cfg: NmpConfig,
    reference: String,
}

/// Everything one `figures-web` op computes, serialized for the byte
/// comparison.
#[derive(Serialize)]
struct WebOutcome {
    instances: Vec<u128>,
    estimates: Vec<NmpReport>,
    comparisons: Vec<Comparison>,
}

impl WebBench {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let seeds = WEB
            .iter()
            .enumerate()
            .map(|(i, &(id, _, exec_scale))| {
                (
                    derive(seed, 1 << 32 | i as u64),
                    pick_seed(id, exec_scale, seed),
                )
            })
            .collect();
        let mut bench = WebBench {
            seeds,
            cfg: NmpConfig {
                hidden_dim: 64,
                ..NmpConfig::default()
            },
            reference: String::new(),
        };
        bench.reference = bench.op(tr)?.0;
        Ok(bench)
    }

    /// The analytic path of Figs. 12–18 for OGB-MAG and OAG.
    fn op(&self, tr: &mut Tracer) -> Result<(String, Counts), String> {
        let mut out = WebOutcome {
            instances: Vec::new(),
            estimates: Vec::new(),
            comparisons: Vec::new(),
        };
        let mut edges = 0;
        let mut naive_aggregations = 0;
        for (&(id, scale, exec_scale), &(seed, exec_seed)) in WEB.iter().zip(&self.seeds) {
            let ds = tr.span("hetgraph.generate", |_| {
                generate(
                    id,
                    GeneratorConfig {
                        scale,
                        seed,
                        ..GeneratorConfig::default()
                    },
                )
            });
            edges += ds.graph.total_edge_count();
            let per_path = tr
                .span("hetgraph.count_instances", |_| {
                    ds.metapaths
                        .iter()
                        .map(|mp| Ok(count_instances_per_start(&ds.graph, mp)?.iter().sum()))
                        .collect::<Result<Vec<u128>, hetgraph::GraphError>>()
                })
                .map_err(err)?;
            for (mp, n) in ds.metapaths.iter().zip(&per_path) {
                naive_aggregations += n * mp.length() as u128 * ModelKind::ALL.len() as u128;
            }
            out.instances.extend(per_path);
            for kind in ModelKind::ALL {
                let report = tr
                    .span("nmp.estimate", |_| {
                        nmp::estimate(&ds.graph, kind, &ds.metapaths, &self.cfg)
                    })
                    .map_err(err)?;
                out.estimates.push(report);
            }
            drop(ds);
            let exec = tr.span("hetgraph.generate", |_| {
                let config = GeneratorConfig {
                    scale: exec_scale,
                    seed: exec_seed,
                    ..GeneratorConfig::default()
                };
                generate(id, config)
            });
            edges += exec.graph.total_edge_count();
            for kind in ModelKind::ALL {
                let engines = tr
                    .enabled()
                    .then(|| ["hgnn.materialized.run", "hgnn.on_the_fly.run"].map(phase_ms));
                let c = tr
                    .span("metanmp.compare", |_| {
                        compare(&exec, kind, 64, &self.cfg, None)
                    })
                    .map_err(err)?;
                if let Some([materialized, on_the_fly]) = engines {
                    tr.attach(
                        "hgnn.materialized",
                        phase_ms("hgnn.materialized.run") - materialized,
                    );
                    tr.attach(
                        "hgnn.reference",
                        phase_ms("hgnn.on_the_fly.run") - on_the_fly,
                    );
                }
                out.comparisons.push(c);
            }
        }
        let mut counts = Counts::new();
        let estimated = |f: fn(&NmpReport) -> f64| out.estimates.iter().map(f).sum::<f64>();
        let aggregations = estimated(|r| r.counts.aggregations as f64);
        for (name, value) in [
            ("hetgraph.edges", edges as f64),
            (
                "hetgraph.instances",
                out.instances.iter().sum::<u128>() as f64,
            ),
            ("nmp.instances", estimated(|r| r.counts.instances as f64)),
            ("nmp.aggregations", aggregations),
            (
                "nmp.reuse_ratio",
                1.0 - aggregations / naive_aggregations as f64,
            ),
            ("nmp.sim_cycles", estimated(|r| r.cycles as f64)),
            ("nmp.sim_energy_mj", estimated(|r| r.energy.total_j() * 1e3)),
        ] {
            counts.insert(name, value);
        }
        let serialized = serde_json::to_string(&out).map_err(|e| format!("{e:?}"))?;
        Ok((serialized, counts))
    }
}
