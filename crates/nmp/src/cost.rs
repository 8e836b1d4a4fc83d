//! The cost composition both cost models share.
//!
//! [`crate::ResumableRun`] (cycle-accurate) and [`crate::estimate()`]
//! (closed form) tally the same channel-bus traffic, time the bus the
//! same way, and price energy with the same formulas. Both then time a
//! run by its busiest resource (Figure 11). They differ only in how
//! they get rank-local DRAM time and energy (serviced bursts versus a
//! calibrated bytes per cycle) and in their per-start-vertex
//! accounting.

use dramsim::{DramConfig, EnergyBreakdown};

use crate::config::NmpConfig;
use crate::distribution::DistributionSummary;
use crate::report::{NmpCounts, NmpEnergy};

/// Bytes each channel's bus carries, by kind.
#[derive(Debug)]
pub(crate) struct BusTraffic {
    /// Point-to-point distribution payload, plus broadcast-recovery
    /// fallback copies.
    pub(crate) normal: Vec<f64>,
    /// Broadcast distribution payload.
    pub(crate) broadcast: Vec<f64>,
    /// Host edge-list reads.
    pub(crate) edge: Vec<f64>,
    /// Host-side aggregation traffic (ablation path).
    pub(crate) host_agg: Vec<f64>,
    /// Demand fetches (naive communication policy).
    pub(crate) demand: Vec<f64>,
}

impl BusTraffic {
    pub(crate) fn new(channels: usize) -> Self {
        BusTraffic {
            normal: vec![0.0; channels],
            broadcast: vec![0.0; channels],
            edge: vec![0.0; channels],
            host_agg: vec![0.0; channels],
            demand: vec![0.0; channels],
        }
    }

    /// Adds one metapath's host distribution: its per-channel payload
    /// and edge reads, and its host-loop and transfer counts.
    pub(crate) fn add_distribution(&mut self, dist: &DistributionSummary, counts: &mut NmpCounts) {
        let add = |tally: &mut [f64], bytes: &[f64]| {
            for (t, b) in tally.iter_mut().zip(bytes) {
                *t += b;
            }
        };
        add(&mut self.normal, &dist.normal_bytes);
        add(&mut self.broadcast, &dist.broadcast_bytes);
        add(&mut self.edge, &dist.edge_read_bytes);
        counts.host_cycles += dist.host_cycles;
        counts.broadcast_transfers += dist.broadcast_transfers;
        counts.normal_transfers += dist.normal_transfers;
        counts.bus_payload_bytes += dist.total_payload_bytes() as u64;
        counts.normal_payload_bytes += dist.normal_bytes.iter().sum::<f64>() as u64;
        counts.broadcast_payload_bytes += dist.broadcast_bytes.iter().sum::<f64>() as u64;
    }

    /// Bus cycles of the busiest channel: each burst of traffic holds
    /// its channel's bus for tBL.
    pub(crate) fn bus_cycles(&self, dram: &DramConfig) -> f64 {
        let t_bl = dram.timing.t_bl as f64;
        let burst = dram.burst_bytes as f64;
        (0..self.normal.len())
            .map(|ch| {
                (self.normal[ch]
                    + self.broadcast[ch]
                    + self.edge[ch]
                    + self.host_agg[ch]
                    + self.demand[ch])
                    / burst
                    * t_bl
            })
            .fold(0f64, f64::max)
    }
}

/// A run's energy. `dram` holds the energy of its rank-local DRAM
/// traffic, as the calling model measured it. Channel-bus traffic adds
/// I/O energy, and the irregular edge and demand reads also touch the
/// arrays. Background, logic and host energy scale with run time.
pub(crate) fn energy(
    cfg: &NmpConfig,
    mut dram: EnergyBreakdown,
    bus: &BusTraffic,
    seconds: f64,
    host_cycles: f64,
) -> NmpEnergy {
    let e = cfg.dram.energy;
    let normal_total: f64 = bus.normal.iter().sum::<f64>()
        + bus.edge.iter().sum::<f64>()
        + bus.host_agg.iter().sum::<f64>()
        + bus.demand.iter().sum::<f64>();
    let broadcast_total: f64 = bus.broadcast.iter().sum();
    dram.io_pj += normal_total * 8.0 * e.io_pj_per_bit;
    dram.broadcast_io_pj += broadcast_total * 8.0 * e.io_pj_per_bit * e.broadcast_io_factor;
    // Array energy plus roughly one activation per 512 B of irregular
    // neighbor-list data.
    let edge_total: f64 = bus.edge.iter().sum::<f64>() + bus.demand.iter().sum::<f64>();
    dram.array_pj += edge_total * 8.0 * e.array_pj_per_bit;
    dram.activate_pj += edge_total / 512.0 * e.act_pre_pj;
    let ranks = cfg.dram.total_ranks();
    dram.background_pj = e.background_mw_per_rank * 1e-3 * ranks as f64 * seconds * 1e12;
    let host_seconds = host_cycles / (cfg.host_clock_mhz * 1e6);
    NmpEnergy {
        dram,
        logic_pj: cfg.area_power.logic_energy_pj(
            cfg.dram.total_dimms(),
            cfg.dram.ranks_per_dimm,
            seconds,
        ),
        host_pj: cfg.host_active_watts * host_seconds * 1e12,
    }
}

#[cfg(test)]
mod tests {
    use faultsim::FaultConfig;
    use hetgraph::datasets::{generate, Dataset, DatasetId, GeneratorConfig};
    use hgnn::{FeatureStore, ModelKind, OpCounters, Projection};

    use crate::{estimate, CommPolicy, FunctionalSim, NmpConfig, NmpReport};

    const MODELS: [ModelKind; 3] = [ModelKind::Magnn, ModelKind::Han, ModelKind::Shgnn];

    fn dataset() -> Dataset {
        generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.01))
    }

    /// The default configuration and each single-knob ablation.
    fn configs() -> [NmpConfig; 4] {
        let base = NmpConfig {
            hidden_dim: 16,
            ..NmpConfig::default()
        };
        [
            base,
            NmpConfig {
                reuse: false,
                ..base
            },
            base.with_comm(CommPolicy::Naive),
            NmpConfig {
                aggregate_in_nmp: false,
                ..base
            },
        ]
    }

    fn digest(reports: Vec<NmpReport>) -> u64 {
        checkpoint::fnv1a64(serde_json::to_string(&reports).unwrap().as_bytes())
    }

    /// Pins what the closed-form model reports for every model under
    /// each configuration.
    #[test]
    fn estimate_reports_match_the_golden_digest() {
        let ds = dataset();
        let mut reports = Vec::new();
        for cfg in configs() {
            for kind in MODELS {
                reports.push(estimate(&ds.graph, kind, &ds.metapaths, &cfg).unwrap());
            }
        }
        assert_eq!(digest(reports), 0xafe9_b43f_b930_c36d);
    }

    /// Pins what the cycle-accurate model reports for the same matrix,
    /// plus one faulted run that exercises broadcast recovery, ECC and
    /// CarPU stalls.
    #[test]
    fn simulated_reports_match_the_golden_digest() {
        let ds = dataset();
        let features = FeatureStore::random(&ds.graph, 3);
        let projection = Projection::random(&ds.graph, 16, 0xC0FFEE);
        let hidden = projection
            .project(&ds.graph, &features, &mut OpCounters::default())
            .unwrap();
        let faulted = configs()[0].with_faults(FaultConfig {
            seed: 9,
            bit_flip_rate: 0.01,
            broadcast_drop_rate: 0.2,
            stall_rate: 0.05,
            ..FaultConfig::off()
        });
        let mut runs: Vec<(NmpConfig, ModelKind)> = configs()
            .into_iter()
            .flat_map(|cfg| MODELS.map(|kind| (cfg, kind)))
            .collect();
        runs.push((faulted, ModelKind::Magnn));
        let reports: Vec<NmpReport> = runs
            .into_iter()
            .map(|(cfg, kind)| {
                FunctionalSim::new(cfg)
                    .run(&ds.graph, &hidden, kind, &ds.metapaths)
                    .unwrap()
                    .report
            })
            .collect();
        assert_eq!(digest(reports), 0x6a1b_b846_b2a9_a9fc);
    }
}
