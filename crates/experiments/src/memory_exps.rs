//! Memory experiments: Table 1 (instance memory vs graph memory) and
//! Table 4 (memory reduction of MetaNMP).

use hetgraph::datasets::DatasetId;
use hetgraph::instances::{instance_memory, InstanceStorage};
use metanmp::memory_reductions;

use crate::common::{
    analysis_scale, fmt_bytes, fmt_pct, fmt_x, Ctx, ExpResult, ResultExt, TableWriter,
};

/// Table 1: memory for graph data vs materialized metapath instances.
pub fn table1(cx: &Ctx) -> ExpResult {
    let mut t = TableWriter::new(
        "table1_memory",
        "Table 1 — graph data vs metapath-instance memory",
        &["Dataset", "Scale", "Graph data", "Instances", "Ratio"],
    );
    let mut ratios = Vec::new();
    for id in DatasetId::ALL {
        let ds = cx.analysis_dataset(id);
        let graph_bytes = (ds.graph.topology_bytes() + ds.graph.raw_feature_bytes()) as u128;
        let mut inst_bytes: u128 = 0;
        for mp in &ds.metapaths {
            inst_bytes += instance_memory(&ds.graph, mp, InstanceStorage::FullPath, 64)
                .ctx("table1: instance memory for preset metapath")?
                .structure_bytes;
        }
        let ratio = inst_bytes as f64 / graph_bytes as f64;
        ratios.push(ratio);
        t.row(vec![
            id.abbrev().to_string(),
            format!("{}", analysis_scale(id)),
            fmt_bytes(graph_bytes),
            fmt_bytes(inst_bytes),
            fmt_x(ratio),
        ]);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    t.note(&format!(
        "Average instance/graph ratio: {} (paper reports 239.84x on its datasets).",
        fmt_x(avg)
    ));
    t.note("Web-scale presets are generated at reduced scale (column 2); the ratio grows with scale, so full-scale ratios are higher.");
    t.finish()?;
    Ok(())
}

/// Table 4: memory-consumption reduction of MetaNMP per
/// dataset-metapath and model.
pub fn table4(cx: &Ctx) -> ExpResult {
    let mut t = TableWriter::new(
        "table4_reduction",
        "Table 4 — memory reduction ratio of MetaNMP",
        &["Workload", "MAGNN", "HAN", "SHGNN"],
    );
    let mut all = Vec::new();
    for id in DatasetId::ALL {
        let ds = cx.analysis_dataset(id);
        let rows = memory_reductions(&ds, 64, 8).ctx("table4: memory reductions on preset")?;
        for (name, vals) in rows {
            all.extend_from_slice(&vals);
            t.row(vec![
                name,
                fmt_pct(vals[0]),
                fmt_pct(vals[1]),
                fmt_pct(vals[2]),
            ]);
        }
    }
    let avg = all.iter().sum::<f64>() / all.len() as f64;
    t.note(&format!(
        "Average reduction: {} (paper: 51.9% average).",
        fmt_pct(avg)
    ));
    t.finish()?;
    Ok(())
}
