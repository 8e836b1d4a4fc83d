//! Table 3 analogue: statistics of the generated datasets, including
//! the degree-skew indicators that drive instance explosion.

use hetgraph::datasets::DatasetId;
use hetgraph::instances::count_instances;
use hetgraph::stats::summarize;

use crate::common::{analysis_scale, fmt_f, fmt_pct, Ctx, ExpResult, ResultExt, TableWriter};

/// Prints vertex/edge/metapath statistics per dataset (Table 3) plus
/// degree-skew indicators per relation.
pub fn table3(cx: &Ctx) -> ExpResult {
    let mut t = TableWriter::new(
        "table3_datasets",
        "Table 3 — generated dataset statistics",
        &[
            "Dataset",
            "Scale",
            "Vertices",
            "Edges",
            "Metapaths",
            "Instances (all metapaths)",
        ],
    );
    for id in DatasetId::ALL {
        let ds = cx.analysis_dataset(id);
        let instances: u128 = ds
            .metapaths
            .iter()
            .map(|mp| count_instances(&ds.graph, mp).unwrap_or(0))
            .sum();
        t.row(vec![
            id.abbrev().to_string(),
            format!("{}", analysis_scale(id)),
            ds.graph.total_vertex_count().to_string(),
            ds.graph.total_edge_count().to_string(),
            ds.metapaths
                .iter()
                .map(|m| m.name().to_string())
                .collect::<Vec<_>>()
                .join(" "),
            format!("{instances:e}"),
        ]);
    }
    t.note("Counts follow Table 3's schemas; web-scale presets are scaled per column 2.");
    t.finish()?;

    let mut d = TableWriter::new(
        "table3_degrees",
        "Degree distributions of the generated graphs (skew indicators)",
        &[
            "Dataset",
            "Relation",
            "Mean deg",
            "Max deg",
            "Top-1% edge share",
        ],
    );
    for id in [DatasetId::Dblp, DatasetId::Imdb, DatasetId::Lastfm] {
        let ds = cx.analysis_dataset(id);
        for (src, dst, s) in summarize(&ds.graph).ctx("table3: degree summary on preset")? {
            let schema = ds.graph.schema();
            let name = format!(
                "{}->{}",
                schema
                    .vertex_type(src)
                    .ctx("table3: summarized source type is in the schema")?
                    .mnemonic,
                schema
                    .vertex_type(dst)
                    .ctx("table3: summarized destination type is in the schema")?
                    .mnemonic
            );
            d.row(vec![
                id.abbrev().to_string(),
                name,
                fmt_f(s.mean),
                s.max.to_string(),
                fmt_pct(s.top1pct_edge_share),
            ]);
        }
    }
    d.note(
        "The heavy top-1% shares are what make metapath instance counts explode multiplicatively.",
    );
    d.finish()?;
    Ok(())
}
