//! Hardware experiments: Figure 15 (broadcast vs naive communication),
//! Figures 16–17 (scalability), Figure 18 (bus energy), Table 5
//! (area/power).

use dramsim::DramConfig;
use hetgraph::datasets::DatasetId;
use hgnn::ModelKind;
use nmp::{estimate, AreaPowerModel, CommPolicy, NmpConfig};

use crate::common::{fmt_f, fmt_pct, fmt_x, Ctx, ExpError, ExpResult, ResultExt, TableWriter};

fn cfg() -> NmpConfig {
    NmpConfig {
        hidden_dim: 64,
        ..NmpConfig::default()
    }
}

/// Figure 15: MetaNMP with the broadcast mechanism vs naive
/// point-to-point communication.
pub fn fig15(cx: &Ctx) -> ExpResult {
    let mut t = TableWriter::new(
        "fig15_broadcast",
        "Figure 15 — broadcast vs naive communication",
        &[
            "Workload",
            "Naive (model s)",
            "Broadcast (model s)",
            "Speedup",
        ],
    );
    let mut speedups = Vec::new();
    for id in DatasetId::ALL {
        let ds = cx.analysis_dataset(id);
        let broadcast = estimate(&ds.graph, ModelKind::Magnn, &ds.metapaths, &cfg())
            .ctx("fig15: broadcast estimate")?;
        let naive = estimate(
            &ds.graph,
            ModelKind::Magnn,
            &ds.metapaths,
            &cfg().with_comm(CommPolicy::Naive),
        )
        .ctx("fig15: naive-communication estimate")?;
        let s = naive.seconds / broadcast.seconds;
        speedups.push(s);
        t.row(vec![
            format!("{}-MAGNN", id.abbrev()),
            fmt_f(naive.seconds),
            fmt_f(broadcast.seconds),
            fmt_x(s),
        ]);
    }
    let geo = (speedups.iter().map(|x| x.ln()).sum::<f64>() / speedups.len() as f64).exp();
    t.note(&format!(
        "Geomean broadcast speedup: {} (paper: 2.35x).",
        fmt_x(geo)
    ));
    t.finish()?;
    Ok(())
}

/// Figure 16: scalability with the number of DIMMs, single channel vs
/// multi-channel.
pub fn fig16(cx: &Ctx) -> ExpResult {
    let mut t = TableWriter::new(
        "fig16_dimms",
        "Figure 16 — scalability with #DIMMs (normalized to 2 DIMMs)",
        &["Workload", "#DIMMs", "Single-channel", "Multi-channel"],
    );
    for id in [DatasetId::OgbMag, DatasetId::Oag] {
        let ds = cx.analysis_dataset(id);
        let run = |channels: usize, dpc: usize| -> Result<f64, ExpError> {
            let c = NmpConfig {
                dram: DramConfig {
                    channels,
                    dimms_per_channel: dpc,
                    ..DramConfig::default()
                },
                ..cfg()
            };
            Ok(estimate(&ds.graph, ModelKind::Magnn, &ds.metapaths, &c)
                .ctx("fig16: scalability estimate")?
                .seconds)
        };
        // One channel of 2 DIMMs is the baseline of both layouts and
        // both layouts' 2-DIMM point, so it is estimated once.
        let base = run(1, 2)?;
        for dimms in [2usize, 4, 8, 16, 32, 64] {
            let (single, multi) = if dimms == 2 {
                (base, base)
            } else {
                (run(1, dimms)?, run(dimms / 2, 2)?)
            };
            t.row(vec![
                format!("{}-MAGNN", id.abbrev()),
                dimms.to_string(),
                fmt_x(base / single),
                fmt_x(base / multi),
            ]);
        }
    }
    t.note("Paper: single-channel scaling flattens (the shared bus serializes broadcasts); multi-channel scaling stays near-linear.");
    t.finish()?;
    Ok(())
}

/// Figure 17: scalability with the number of ranks per DIMM.
pub fn fig17(cx: &Ctx) -> ExpResult {
    let mut t = TableWriter::new(
        "fig17_ranks",
        "Figure 17 — scalability with #ranks (normalized to 1 rank)",
        &["Workload", "1 rank", "2 ranks", "4 ranks"],
    );
    for id in [DatasetId::Dblp, DatasetId::Lastfm, DatasetId::OgbMag] {
        let ds = cx.analysis_dataset(id);
        let run = |ranks: usize| -> Result<f64, ExpError> {
            let c = NmpConfig {
                dram: DramConfig {
                    ranks_per_dimm: ranks,
                    ..DramConfig::default()
                },
                ..cfg()
            };
            Ok(estimate(&ds.graph, ModelKind::Magnn, &ds.metapaths, &c)
                .ctx("fig17: rank-scalability estimate")?
                .seconds)
        };
        let r1 = run(1)?;
        t.row(vec![
            format!("{}-MAGNN", id.abbrev()),
            "1.00x".to_string(),
            fmt_x(r1 / run(2)?),
            fmt_x(r1 / run(4)?),
        ]);
    }
    t.note("Paper: 4 ranks are 1.96x faster than 2 ranks — rank-level AUs scale aggregation bandwidth.");
    t.finish()?;
    Ok(())
}

/// Figure 18: bus energy under naive vs broadcast communication, and
/// its share of the whole NMP DIMM system.
pub fn fig18(cx: &Ctx) -> ExpResult {
    let mut t = TableWriter::new(
        "fig18_bus_energy",
        "Figure 18 — bus energy: naive vs broadcast communication",
        &[
            "Workload",
            "Naive bus (mJ)",
            "Broadcast bus (mJ)",
            "Ratio",
            "Share of system",
        ],
    );
    let mut ratios = Vec::new();
    let mut shares = Vec::new();
    for id in DatasetId::ALL {
        let ds = cx.analysis_dataset(id);
        let b = estimate(&ds.graph, ModelKind::Magnn, &ds.metapaths, &cfg())
            .ctx("fig18: broadcast estimate")?;
        let n = estimate(
            &ds.graph,
            ModelKind::Magnn,
            &ds.metapaths,
            &cfg().with_comm(CommPolicy::Naive),
        )
        .ctx("fig18: naive-communication estimate")?;
        // Figure 18 compares the *distribution* traffic (the
        // communication the two policies implement differently);
        // naive-mode demand fetches are ordinary memory reads.
        let e = cfg().dram.energy;
        let b_bus = b.counts.normal_payload_bytes as f64 * 8.0 * e.io_pj_per_bit
            + b.counts.broadcast_payload_bytes as f64
                * 8.0
                * e.io_pj_per_bit
                * e.broadcast_io_factor;
        let n_bus = n.counts.normal_payload_bytes as f64 * 8.0 * e.io_pj_per_bit;
        let ratio = b_bus / n_bus;
        let share = b_bus / b.energy.total_pj();
        ratios.push(ratio);
        shares.push(share);
        t.row(vec![
            format!("{}-MAGNN", id.abbrev()),
            fmt_f(n_bus * 1e-9),
            fmt_f(b_bus * 1e-9),
            fmt_x(ratio),
            fmt_pct(share),
        ]);
    }
    let avg_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let avg_share = shares.iter().sum::<f64>() / shares.len() as f64;
    t.note(&format!(
        "Average broadcast/naive bus-energy ratio: {} (paper: 1.61x); average share of system energy: {} (paper: 1.3%).",
        fmt_x(avg_ratio),
        fmt_pct(avg_share)
    ));
    t.finish()?;
    Ok(())
}

/// Table 5: area and power of the MetaNMP additions.
pub fn table5(_cx: &Ctx) -> ExpResult {
    let m = AreaPowerModel::default();
    let mut t = TableWriter::new(
        "table5_area_power",
        "Table 5 — area and power of MetaNMP (40 nm, per DIMM)",
        &["Unit", "Area (mm^2)", "Power (mW)"],
    );
    t.row(vec![
        "Rank-AUs (2 ranks)".to_string(),
        format!("{:.4}", m.rank_au_area_mm2),
        format!("{:.2}", m.rank_au_power_mw),
    ]);
    t.row(vec![
        "DIMM-MetaNMP".to_string(),
        format!("{:.4}", m.dimm_module_area_mm2),
        format!("{:.2}", m.dimm_module_power_mw),
    ]);
    t.row(vec![
        "Total".to_string(),
        format!("{:.4}", m.area_mm2(2)),
        format!("{:.2}", m.power_mw(2)),
    ]);
    t.row(vec![
        "Typical DRAM chip / LRDIMM".to_string(),
        format!("{:.1}", m.dram_chip_area_mm2),
        format!("{:.0}", m.lrdimm_power_mw),
    ]);
    t.note(&format!(
        "Overhead: {} of a DRAM chip's area, {} of LRDIMM power.",
        fmt_pct(m.area_fraction_of_dram_chip(2)),
        fmt_pct(m.power_fraction_of_lrdimm(2))
    ));
    t.finish()?;
    Ok(())
}
