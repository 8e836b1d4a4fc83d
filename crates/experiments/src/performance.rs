//! Performance experiments: Figure 12 (speedups), Figure 13 (energy
//! efficiency), Figure 14 (software/hardware ablation).

use baselines::{CpuModel, Platform, PlatformWorkload};
use hetgraph::datasets::{Dataset, DatasetId};
use hetgraph::instances::count_instances_per_start;
use hgnn::engine::{InferenceEngine, MaterializedEngine, OnTheFlyEngine};
use hgnn::{FeatureStore, ModelConfig, ModelKind};
use metanmp::compare;
use nmp::{estimate, NmpConfig};

use crate::common::{fmt_x, Ctx, ExpError, ExpResult, ResultExt, TableWriter, EXEC_BUDGET};

/// The GPU materializes instances in per-start-vertex batches; its
/// working set is the graph, the features, and the largest batch with
/// a framework safety factor.
fn gpu_working_set(ds: &Dataset) -> Result<u128, ExpError> {
    const BATCH_SAFETY: u128 = 8;
    let base = (ds.graph.topology_bytes() + ds.graph.raw_feature_bytes()) as u128;
    let mut peak_batch: u128 = 0;
    for mp in &ds.metapaths {
        let per_start = count_instances_per_start(&ds.graph, mp)
            .ctx("fig12/13: instance counts on preset metapath")?;
        let peak = per_start.iter().copied().max().unwrap_or(0);
        peak_batch = peak_batch.max(peak * mp.vertex_count() as u128 * 4);
    }
    Ok(base + peak_batch * BATCH_SAFETY)
}

fn nmp_config() -> NmpConfig {
    NmpConfig {
        hidden_dim: 64,
        ..NmpConfig::default()
    }
}

/// Figures 12 and 13, computed together: speedup and energy efficiency
/// of MetaNMP vs CPU, GPU, AWB-GCN, HyGCN, RecNMP (normalized to CPU).
pub fn fig12_13(cx: &Ctx) -> ExpResult {
    let mut speed = TableWriter::new(
        "fig12_speedup",
        "Figure 12 — speedup over the CPU baseline",
        &[
            "Workload", "CPU", "GPU", "AWB-GCN", "HyGCN", "RecNMP", "MetaNMP",
        ],
    );
    let mut energy = TableWriter::new(
        "fig13_energy",
        "Figure 13 — energy-efficiency gain over the CPU baseline",
        &[
            "Workload", "CPU", "GPU", "AWB-GCN", "HyGCN", "RecNMP", "MetaNMP",
        ],
    );
    let mut metanmp_speedups = Vec::new();
    let mut gpu_speedups = Vec::new();
    let mut metanmp_energy = Vec::new();
    let cfg = nmp_config();
    for id in DatasetId::ALL {
        let footprint = gpu_working_set(&cx.analysis_dataset(id))?;
        let ds = cx.execution_dataset(id, EXEC_BUDGET);
        for kind in ModelKind::ALL {
            let c = compare(&ds, kind, 64, &cfg, Some(footprint))
                .ctx("fig12/13: platform comparison on preset")?;
            let cell = |name: &str, energy_mode: bool| -> Result<String, ExpError> {
                let p = c
                    .platforms
                    .iter()
                    .find(|p| p.name == name)
                    .ctx("fig12/13: platform present in comparison")?;
                Ok(if p.report.oom {
                    "OOM".to_string()
                } else if energy_mode {
                    fmt_x(p.energy_gain_vs_cpu)
                } else {
                    fmt_x(p.speedup_vs_cpu)
                })
            };
            let label = format!("{}-{}", id.abbrev(), kind.name());
            speed.row(vec![
                label.clone(),
                cell("CPU", false)?,
                cell("GPU", false)?,
                cell("AWB-GCN", false)?,
                cell("HyGCN", false)?,
                cell("RecNMP", false)?,
                fmt_x(c.metanmp_speedup),
            ]);
            energy.row(vec![
                label,
                cell("CPU", true)?,
                cell("GPU", true)?,
                cell("AWB-GCN", true)?,
                cell("HyGCN", true)?,
                cell("RecNMP", true)?,
                fmt_x(c.metanmp_energy_gain),
            ]);
            metanmp_speedups.push(c.metanmp_speedup);
            metanmp_energy.push(c.metanmp_energy_gain);
            if let Some(g) = c.platforms.iter().find(|p| p.name == "GPU") {
                if !g.report.oom {
                    gpu_speedups.push(g.speedup_vs_cpu);
                }
            }
        }
    }
    let geo = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    speed.note(&format!(
        "Geomean MetaNMP speedup over CPU: {} (paper: 4225.51x); GPU geomean: {} (paper: ~10x).",
        fmt_x(geo(&metanmp_speedups)),
        fmt_x(geo(&gpu_speedups))
    ));
    speed.note("OM/OG are generated at reduced scale; GPU OOM is decided from the analysis-scale working set like the paper's full-scale runs.");
    speed.finish()?;
    energy.note(&format!(
        "Geomean MetaNMP energy gain over CPU: {} (paper: 3563.25x).",
        fmt_x(geo(&metanmp_energy))
    ));
    energy.finish()?;
    Ok(())
}

/// Figure 14: SoftwareOnly vs MetaNMP-w/o-NMPAggr vs full MetaNMP,
/// normalized to the naive CPU.
pub fn fig14(cx: &Ctx) -> ExpResult {
    let mut t = TableWriter::new(
        "fig14_ablation",
        "Figure 14 — software/hardware configurations (speedup vs naive CPU)",
        &[
            "Workload",
            "NaiveCPU",
            "SoftwareOnly",
            "w/o-NMPAggr",
            "MetaNMP",
        ],
    );
    let cfg = nmp_config();
    let mut soft = Vec::new();
    let mut wo = Vec::new();
    let mut full_v = Vec::new();
    for id in [DatasetId::Dblp, DatasetId::Imdb, DatasetId::Lastfm] {
        let ds = cx.execution_dataset(id, EXEC_BUDGET);
        for kind in ModelKind::ALL {
            let features = FeatureStore::random(&ds.graph, 0x5EED);
            let mc = ModelConfig::new(kind)
                .with_hidden_dim(64)
                .with_attention(false);
            let naive = MaterializedEngine
                .run(&ds.graph, &features, &mc, &ds.metapaths)
                .ctx("fig14: materialized engine run")?;
            let reuse = OnTheFlyEngine
                .run(&ds.graph, &features, &mc, &ds.metapaths)
                .ctx("fig14: on-the-fly engine run")?;
            let w = PlatformWorkload::new(naive.profile, reuse.profile, 0, 0.0);
            let naive_cpu = CpuModel::naive().evaluate(&w);
            let software = CpuModel::software_only().evaluate(&w);
            let without = estimate(
                &ds.graph,
                kind,
                &ds.metapaths,
                &NmpConfig {
                    aggregate_in_nmp: false,
                    ..cfg
                },
            )
            .ctx("fig14: estimate without NMP aggregation")?;
            let full = estimate(&ds.graph, kind, &ds.metapaths, &cfg)
                .ctx("fig14: full-design estimate")?;
            let s = naive_cpu.seconds / software.seconds;
            let w_x = naive_cpu.seconds / without.seconds;
            let f_x = naive_cpu.seconds / full.seconds;
            soft.push(s);
            wo.push(w_x);
            full_v.push(f_x);
            t.row(vec![
                format!("{}-{}", id.abbrev(), kind.name()),
                "1.00x".to_string(),
                fmt_x(s),
                fmt_x(w_x),
                fmt_x(f_x),
            ]);
        }
    }
    let geo = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    t.note(&format!(
        "Geomeans vs naive CPU — SoftwareOnly: {} (paper: 3.54x); w/o-NMPAggr: {} (paper: ~213x); MetaNMP: {} (paper: ~14000x vs naive, 3963x vs SoftwareOnly).",
        fmt_x(geo(&soft)),
        fmt_x(geo(&wo)),
        fmt_x(geo(&full_v))
    ));
    t.finish()?;
    Ok(())
}
