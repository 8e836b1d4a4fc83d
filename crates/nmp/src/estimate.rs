//! Closed-form MetaNMP performance estimation for graphs too large to
//! walk instance-by-instance (OGB-MAG and OAG at full scale explode to
//! billions of prefix-tree nodes).
//!
//! All operation counts come from exact dynamic programming over the
//! graph (`O(L × E)`), the per-resource load balance from the same
//! per-start-vertex counts the functional simulator uses, and the
//! effective rank-local bandwidth/energy from a short calibration run
//! of the command-level DRAM simulator under the aggregation access
//! pattern. Channel-bus traffic, bus time and energy go through the
//! same composition code as the functional simulator's, so the two
//! models differ only in rank-local DRAM time (calibrated bytes per
//! cycle here, serviced bursts there) and in per-start-vertex
//! accounting. They agree on small graphs (cross-checked in `tests/`),
//! which is what licenses using the estimator at scale.

use dramsim::{EnergyBreakdown, Locality, MemorySystem, RequestKind};
use hetgraph::instances::count_instances_and_nodes_per_start;
use hetgraph::{HeteroGraph, Metapath};
use hgnn::ModelKind;

use crate::comm::CommPolicy;
use crate::config::NmpConfig;
use crate::cost::{self, BusTraffic};
use crate::distribution::distribute;
use crate::error::NmpError;
use crate::layout::Placement;
use crate::report::{NmpCounts, NmpReport};

/// Calibration result: what the rank-local interface actually sustains
/// under the aggregation access pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankCalibration {
    /// Sustained rank-local bytes per NMP cycle (per rank).
    pub bytes_per_cycle: f64,
    /// DRAM energy per rank-local byte moved (pJ/B), including
    /// activates and array access.
    pub energy_pj_per_byte: f64,
}

/// Measures effective rank-local bandwidth and energy by replaying the
/// aggregation pattern (slot-sequential result writes, recent-slot
/// reads) on one rank of the configured DRAM.
pub fn calibrate_rank_local(config: &NmpConfig) -> RankCalibration {
    let placement = Placement::new(config.dram, config.hidden_dim);
    let mut mem = MemorySystem::new(config.dram);
    let vb = config.vector_bytes();
    let home = placement.home(0, 0);
    let samples = 2048u64;
    for slot in 0..samples {
        if slot >= 1 {
            for loc in placement.rank_vec(home, placement.agg_offset(slot - 1), vb) {
                mem.enqueue_burst(loc, RequestKind::Read, Locality::RankLocal, 0);
            }
        }
        for loc in placement.rank_vec(home, placement.agg_offset(slot), vb) {
            mem.enqueue_burst(loc, RequestKind::Write, Locality::RankLocal, 0);
        }
    }
    let report = mem.service_all();
    let bytes = (report.stats.local_bytes) as f64;
    let cycles = report.stats.elapsed_cycles.max(1) as f64;
    // Exclude background/bus energy: activates + array + local I/O.
    let e = &report.stats.energy;
    let pj = e.activate_pj + e.array_pj + e.local_io_pj;
    RankCalibration {
        bytes_per_cycle: bytes / cycles,
        energy_pj_per_byte: pj / bytes.max(1.0),
    }
}

/// Estimates a full MetaNMP inference without executing it.
///
/// # Errors
///
/// Propagates graph errors; rejects empty metapath sets.
pub fn estimate(
    graph: &HeteroGraph,
    kind: ModelKind,
    metapaths: &[Metapath],
    config: &NmpConfig,
) -> Result<NmpReport, NmpError> {
    if metapaths.is_empty() {
        return Err(NmpError::Unsupported("no metapaths given".into()));
    }
    let cfg = config;
    let d = cfg.hidden_dim as u64;
    let vb = cfg.vector_bytes() as f64;
    let vec_op = cfg.vector_op_cycles();
    let channels = cfg.dram.channels;
    let dimms = cfg.dram.total_dimms();
    let ranks = cfg.dram.total_ranks();
    let placement = Placement::new(cfg.dram, cfg.hidden_dim);
    let calib = calibrate_rank_local(cfg);

    let mut counts = NmpCounts::default();
    let mut gen = vec![0f64; dimms];
    let mut compute = vec![0f64; ranks];
    let mut local_bytes = vec![0f64; ranks];
    let mut bus = BusTraffic::new(channels);
    let mut host_extra_cycles = 0f64;

    for mp in metapaths {
        let dist = distribute(graph, mp, cfg, &placement)?;
        bus.add_distribution(&dist, &mut counts);

        let hops = mp.length() as u128;
        let t0 = mp.start_type();
        // Instances and prefix-tree nodes (root included) per start
        // vertex.
        let per_start = count_instances_and_nodes_per_start(graph, mp)?;

        for (i, &(insts, nodes_incl_root)) in per_start.iter().enumerate() {
            let nodes = nodes_incl_root.saturating_sub(1); // drop root
            if insts == 0 && nodes == 0 {
                continue;
            }
            let home = placement.home(t0.index() as u8, i as u32);
            let dimm = home.global_dimm(&cfg.dram);
            let rank = home.global_rank(&cfg.dram);
            counts.instances += insts;

            gen[dimm] += nodes as f64;
            let aggs: u128 = match (kind, cfg.reuse) {
                (ModelKind::Magnn, true) => nodes,
                (ModelKind::Magnn, false) => insts * hops,
                (ModelKind::Han, _) => insts,
                (ModelKind::Shgnn, _) => nodes,
            };
            counts.aggregations += aggs;
            if cfg.reuse && kind != ModelKind::Han {
                counts.copies += nodes.saturating_sub(insts.min(nodes));
            }
            let inter = if kind == ModelKind::Shgnn { 0 } else { insts };
            counts.inter_instance_ops += inter;

            if cfg.aggregate_in_nmp {
                compute[rank] += (aggs + inter) as f64 * vec_op as f64;
                // Aggregation traffic: one result write per
                // aggregation (the running prefix stays in the AU
                // buffer), result re-reads for inter-instance
                // aggregation, one output write.
                local_bytes[rank] += (aggs as f64 + inter as f64 + 1.0) * vb;
                if cfg.comm == CommPolicy::Naive {
                    // Without the broadcast push, most aggregation
                    // operands are fetched on demand over the channel
                    // bus.
                    let fetched = aggs as f64 * vb * cfg.naive_demand_fraction;
                    bus.demand[home.channel] += fetched;
                    counts.demand_fetch_bytes += fetched as u64;
                }
            } else {
                bus.host_agg[home.channel] += (2.0 * aggs as f64 + inter as f64) * vb;
                host_extra_cycles += (aggs + inter) as f64 * (d as f64 / 4.0 + 4.0);
            }
        }
    }

    // Semantic aggregation: one pass over every start vertex per type.
    let mut start_types: Vec<(hetgraph::VertexTypeId, usize)> = Vec::new();
    for mp in metapaths {
        let ty = mp.start_type();
        match start_types.iter_mut().find(|(t, _)| *t == ty) {
            Some((_, k)) => *k += 1,
            None => start_types.push((ty, 1)),
        }
    }
    for &(ty, k) in &start_types {
        let n = graph.vertex_count(ty)? as u64;
        counts.semantic_ops += (n as u128) * k as u128;
        // Spread uniformly over ranks.
        let per_rank_ops = n as f64 * k as f64 / ranks as f64;
        for r in 0..ranks {
            if cfg.aggregate_in_nmp {
                compute[r] += per_rank_ops * vec_op as f64;
                local_bytes[r] += per_rank_ops * (vb + vb / k as f64);
            }
        }
        if !cfg.aggregate_in_nmp {
            let per_ch = n as f64 * (k + 1) as f64 * vb / channels as f64;
            for b in bus.host_agg.iter_mut() {
                *b += per_ch;
            }
            host_extra_cycles += n as f64 * k as f64 * (d as f64 / 4.0 + 4.0);
        }
    }

    // ---- Timing composition. ----
    let bus_cycles_max = bus.bus_cycles(&cfg.dram);
    let gen_max = gen.iter().copied().fold(0f64, f64::max);
    let rank_cycles_max = (0..ranks)
        .map(|r| compute[r].max(local_bytes[r] / calib.bytes_per_cycle))
        .fold(0f64, f64::max);
    let host_cycles_total = counts.host_cycles as f64 + host_extra_cycles;
    counts.host_cycles = host_cycles_total as u64;
    counts.gen_cycles_max_dimm = gen_max as u64;
    counts.compute_cycles_max_rank = rank_cycles_max as u64;
    let host_nmp = host_cycles_total * cfg.nmp_clock_mhz / cfg.host_clock_mhz;
    let cycles = bus_cycles_max
        .max(gen_max)
        .max(rank_cycles_max)
        .max(host_nmp)
        .ceil() as u64;
    let seconds = cycles as f64 * cfg.dram.cycle_seconds();

    // ---- Energy composition: rank-local DRAM energy from the
    // calibration, split evenly between arrays and activates. ----
    let local_total: f64 = local_bytes.iter().sum();
    let rank_local = EnergyBreakdown {
        local_io_pj: local_total * 8.0 * cfg.dram.energy.local_pj_per_bit,
        array_pj: local_total * calib.energy_pj_per_byte * 0.5,
        activate_pj: local_total * calib.energy_pj_per_byte * 0.5,
        ..Default::default()
    };
    let energy = cost::energy(cfg, rank_local, &bus, seconds, host_cycles_total);

    Ok(NmpReport {
        cycles,
        seconds,
        counts,
        energy,
        dram_stats: Default::default(),
        faults: Default::default(),
        // The analytic path issues no DRAM commands to audit.
        audit: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph::datasets::{generate, DatasetId, GeneratorConfig};
    use hetgraph::instances::{count_instances, count_prefix_nodes, suffix_walk_counts};

    fn config() -> NmpConfig {
        NmpConfig {
            hidden_dim: 16,
            ..NmpConfig::default()
        }
    }

    #[test]
    fn calibration_is_sane() {
        let c = calibrate_rank_local(&config());
        assert!(c.bytes_per_cycle > 0.5);
        // One rank cannot beat the channel's peak data rate.
        assert!(c.bytes_per_cycle <= 16.0 + 1e-9);
        assert!(c.energy_pj_per_byte > 0.0);
    }

    #[test]
    fn per_start_nodes_sum_matches_closed_form() {
        let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.05));
        for mp in &ds.metapaths {
            let per_start = suffix_walk_counts(&ds.graph, mp.vertex_types(), 1).unwrap();
            let total: u128 = per_start.iter().map(|&n| n - 1).sum();
            assert_eq!(total, count_prefix_nodes(&ds.graph, mp).unwrap());
        }
    }

    #[test]
    fn estimate_counts_match_dp() {
        let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.05));
        let r = estimate(&ds.graph, ModelKind::Magnn, &ds.metapaths, &config()).unwrap();
        let expected: u128 = ds
            .metapaths
            .iter()
            .map(|mp| count_instances(&ds.graph, mp).unwrap())
            .sum();
        assert_eq!(r.counts.instances, expected);
        assert!(r.seconds > 0.0);
        assert!(r.energy.total_pj() > 0.0);
    }

    #[test]
    fn reuse_off_increases_estimated_aggregations() {
        let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.05));
        let on = estimate(&ds.graph, ModelKind::Magnn, &ds.metapaths, &config()).unwrap();
        let off = estimate(
            &ds.graph,
            ModelKind::Magnn,
            &ds.metapaths,
            &NmpConfig {
                reuse: false,
                ..config()
            },
        )
        .unwrap();
        assert!(off.counts.aggregations > on.counts.aggregations);
    }

    #[test]
    fn more_channels_speed_up_estimates() {
        use dramsim::DramConfig;
        let ds = generate(DatasetId::Lastfm, GeneratorConfig::at_scale(0.1));
        let one = estimate(
            &ds.graph,
            ModelKind::Magnn,
            &ds.metapaths,
            &NmpConfig {
                dram: DramConfig {
                    channels: 1,
                    ..DramConfig::default()
                },
                ..config()
            },
        )
        .unwrap();
        let four = estimate(&ds.graph, ModelKind::Magnn, &ds.metapaths, &config()).unwrap();
        assert!(
            four.seconds < one.seconds,
            "four channels {} >= one channel {}",
            four.seconds,
            one.seconds
        );
    }

    #[test]
    fn empty_metapaths_rejected() {
        let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.02));
        assert!(estimate(&ds.graph, ModelKind::Magnn, &[], &config()).is_err());
    }
}
