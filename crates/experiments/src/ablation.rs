//! Design-choice ablations beyond the paper's Figure 14: every
//! MetaNMP mechanism switched off one at a time, measured as slowdown
//! against the full design (the ablation study DESIGN.md §5 calls
//! for).

use dramsim::DramConfig;
use hetgraph::datasets::DatasetId;
use hgnn::ModelKind;
use nmp::{estimate, CommPolicy, NmpConfig};

use crate::common::{fmt_x, Ctx, ExpError, ExpResult, ResultExt, TableWriter};

/// Runs the ablation table: one column per disabled mechanism.
pub fn ablations(cx: &Ctx) -> ExpResult {
    let mut t = TableWriter::new(
        "ablations",
        "Design-choice ablations (slowdown vs the full design)",
        &[
            "Workload",
            "Full",
            "-RCEU",
            "-Broadcast",
            "-NMP aggr",
            "1 rank",
            "4 PE lanes",
        ],
    );
    let base = NmpConfig {
        hidden_dim: 64,
        ..NmpConfig::default()
    };
    for id in [DatasetId::Dblp, DatasetId::Imdb, DatasetId::Lastfm] {
        let ds = cx.analysis_dataset(id);
        let run = |cfg: &NmpConfig| -> Result<f64, ExpError> {
            Ok(estimate(&ds.graph, ModelKind::Magnn, &ds.metapaths, cfg)
                .ctx("ablations: estimate")?
                .seconds)
        };
        let full = run(&base)?;
        let slowdown =
            |cfg: NmpConfig| -> Result<String, ExpError> { Ok(fmt_x(run(&cfg)? / full)) };
        t.row(vec![
            format!("{}-MAGNN", id.abbrev()),
            "1.00x".to_string(),
            slowdown(NmpConfig {
                reuse: false,
                ..base
            })?,
            slowdown(base.with_comm(CommPolicy::Naive))?,
            slowdown(NmpConfig {
                aggregate_in_nmp: false,
                ..base
            })?,
            slowdown(NmpConfig {
                dram: DramConfig {
                    ranks_per_dimm: 1,
                    ..DramConfig::default()
                },
                ..base
            })?,
            slowdown(NmpConfig {
                pe_lanes: 4,
                ..base
            })?,
        ]);
    }
    t.note("Each column disables one mechanism of the full design; larger is worse.");
    t.finish()?;
    Ok(())
}
