//! Characterization experiments: Figure 3 (matching cost + roofline),
//! Figure 4 (inference breakdown + roofline), Figure 5 (redundant
//! computation in MAGNN).

use baselines::{spec, Roofline};
use hetgraph::cartesian::reuse_stats;
use hetgraph::datasets::DatasetId;
use hgnn::engine::{InferenceEngine, MaterializedEngine};
use hgnn::{FeatureStore, ModelConfig, ModelKind, Phase, PhaseBreakdown};

use crate::common::{
    fmt_f, fmt_pct, fmt_x, Ctx, ExpError, ExpResult, ResultExt, TableWriter, EXEC_BUDGET,
};

const SMALL: [DatasetId; 3] = [DatasetId::Dblp, DatasetId::Imdb, DatasetId::Lastfm];

fn naive_profile(
    cx: &Ctx,
    id: DatasetId,
    kind: ModelKind,
) -> Result<hgnn::WorkloadProfile, ExpError> {
    let ds = cx.execution_dataset(id, EXEC_BUDGET);
    let features = FeatureStore::random(&ds.graph, 0x5EED);
    let config = ModelConfig::new(kind)
        .with_hidden_dim(64)
        .with_attention(false);
    Ok(MaterializedEngine
        .run(&ds.graph, &features, &config, &ds.metapaths)
        .ctx("naive engine run on preset")?
        .profile)
}

/// Figure 3a: matching time vs total inference time; Figure 3b:
/// roofline placement of the matching phase on the CPU.
pub fn fig3(cx: &Ctx) -> ExpResult {
    let mut t = TableWriter::new(
        "fig3_matching",
        "Figure 3a — metapath instance matching vs inference time (MAGNN)",
        &[
            "Dataset",
            "Matching (model s)",
            "Inference (model s)",
            "Ratio",
        ],
    );
    let cpu_roof = Roofline::new(spec::CPU.peak_flops, spec::CPU.peak_bw);
    let mut roof_rows = Vec::new();
    for id in SMALL {
        let profile = naive_profile(cx, id, ModelKind::Magnn)?;
        // Matching through the framework pre-processing pass (what the
        // paper measures in Figure 3); inference phases on the GPU
        // roofline.
        let matching = (profile.matching.bytes() as f64
            / (spec::CPU.peak_bw * spec::CPU.matching_bw_eff))
            .max(profile.instances as f64 * spec::CPU_FRAMEWORK_MATCHING_NS_PER_INSTANCE * 1e-9);
        let inf = {
            let g = &spec::GPU;
            let pt = |c: &hgnn::OpCounters, e: spec::PhaseEfficiency| {
                (c.flops as f64 / (g.peak_flops * e.compute))
                    .max(c.bytes() as f64 / (g.peak_bw * e.bandwidth))
            };
            pt(&profile.projection, g.projection)
                + pt(&profile.structural, g.structural)
                + pt(&profile.semantic, g.semantic)
        };
        t.row(vec![
            id.abbrev().to_string(),
            fmt_f(matching),
            fmt_f(inf),
            fmt_x(matching / inf),
        ]);
        let p = cpu_roof.place(Phase::Matching, &profile.matching);
        roof_rows.push((id, p));
    }
    t.note("Paper: matching is 8129x the inference time on average; the shape to reproduce is matching >> inference.");
    t.finish()?;

    let mut r = TableWriter::new(
        "fig3b_roofline",
        "Figure 3b — roofline of instance matching on the CPU",
        &[
            "Dataset",
            "Intensity (flop/B)",
            "Attainable Gflop/s",
            "Memory-bound",
        ],
    );
    for (id, p) in roof_rows {
        r.row(vec![
            id.abbrev().to_string(),
            fmt_f(p.intensity),
            fmt_f(p.attainable_flops / 1e9),
            p.memory_bound.to_string(),
        ]);
    }
    r.note(&format!(
        "CPU ridge point: {:.1} flop/B — matching sits far left of it.",
        cpu_roof.ridge_intensity()
    ));
    r.finish()?;
    Ok(())
}

/// Figure 4a: inference time breakdown; Figure 4b: roofline of the
/// inference phases on the GPU.
pub fn fig4(cx: &Ctx) -> ExpResult {
    let mut t = TableWriter::new(
        "fig4_breakdown",
        "Figure 4a — inference time breakdown (GPU roofline weights)",
        &["Workload", "Projection", "Structural", "Semantic"],
    );
    let gpu_roof = Roofline::new(spec::GPU.peak_flops, spec::GPU.peak_bw);
    let mut structural_shares = Vec::new();
    let mut roofline_rows = Vec::new();
    for id in SMALL {
        for kind in ModelKind::ALL {
            let profile = naive_profile(cx, id, kind)?;
            let b = PhaseBreakdown::from_profile(&profile, spec::GPU.peak_flops, spec::GPU.peak_bw);
            structural_shares.push(b.structural_share());
            t.row(vec![
                format!("{}-{}", id.abbrev(), kind.name()),
                fmt_pct(b.shares[0]),
                fmt_pct(b.shares[1]),
                fmt_pct(b.shares[2]),
            ]);
            if kind == ModelKind::Magnn {
                roofline_rows.push((id, gpu_roof.place_profile(&profile)));
            }
        }
    }
    let avg = structural_shares.iter().sum::<f64>() / structural_shares.len() as f64;
    t.note(&format!(
        "Average structural share: {} (paper: 83.56%).",
        fmt_pct(avg)
    ));
    t.finish()?;

    let mut r = TableWriter::new(
        "fig4b_roofline",
        "Figure 4b — roofline of inference phases on the GPU (MAGNN)",
        &["Workload", "Phase", "Intensity", "Memory-bound"],
    );
    for (id, points) in roofline_rows {
        for p in points {
            if p.phase == Phase::Matching {
                continue;
            }
            r.row(vec![
                id.abbrev().to_string(),
                p.phase.name().to_string(),
                fmt_f(p.intensity),
                p.memory_bound.to_string(),
            ]);
        }
    }
    r.note(
        "Paper: structural and semantic aggregation are memory-bound; projection is compute-bound.",
    );
    r.finish()?;
    Ok(())
}

/// Figure 5: ratio of redundant computation among metapath instances
/// (MAGNN), computed in closed form at analysis scale.
pub fn fig5(cx: &Ctx) -> ExpResult {
    let mut t = TableWriter::new(
        "fig5_redundancy",
        "Figure 5 — redundant computation ratio in MAGNN",
        &[
            "Workload",
            "Naive vector ops",
            "Shared vector ops",
            "Redundant",
        ],
    );
    let mut ratios = Vec::new();
    for id in DatasetId::ALL {
        let ds = cx.analysis_dataset(id);
        for mp in &ds.metapaths {
            let stats = reuse_stats(&ds.graph, mp).ctx("fig5: reuse stats on preset metapath")?;
            if stats.instances == 0 {
                continue;
            }
            ratios.push(stats.redundancy_ratio());
            t.row(vec![
                format!("{}-{}", id.abbrev(), mp.name()),
                stats.naive_aggregations.to_string(),
                stats.shared_aggregations.to_string(),
                fmt_pct(stats.redundancy_ratio()),
            ]);
        }
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    t.note(&format!(
        "Average redundancy: {} (paper: up to 44.56% in MAGNN).",
        fmt_pct(avg)
    ));
    t.finish()?;
    Ok(())
}
