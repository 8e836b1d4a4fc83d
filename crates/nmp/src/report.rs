//! Simulation reports: operation counts, cycles, and energy.

use dramsim::{EnergyBreakdown, MemoryStats};
use faultsim::FaultStats;
use serde::{Deserialize, Serialize};

/// Operation counts collected during a MetaNMP run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NmpCounts {
    /// Complete metapath instances generated.
    pub instances: u128,
    /// Vector aggregations performed by rank-AUs.
    pub aggregations: u128,
    /// Reusable-result copies the RCEU produced.
    pub copies: u128,
    /// Inter-instance aggregation vector ops.
    pub inter_instance_ops: u128,
    /// Semantic (inter-path) aggregation vector ops.
    pub semantic_ops: u128,
    /// CarPU generation cycles on the busiest DIMM.
    pub gen_cycles_max_dimm: u64,
    /// PE compute cycles on the busiest rank-AU.
    pub compute_cycles_max_rank: u64,
    /// Host distribution-loop cycles (in host clocks).
    pub host_cycles: u64,
    /// Payload bytes pushed over channel buses by the host.
    pub bus_payload_bytes: u64,
    /// Distribution payload bytes sent point-to-point.
    pub normal_payload_bytes: u64,
    /// Distribution payload bytes sent by broadcast.
    pub broadcast_payload_bytes: u64,
    /// Bytes fetched on demand over the channel because no broadcast
    /// pre-filled the feature caches (naive communication only).
    pub demand_fetch_bytes: u64,
    /// Broadcast transfers issued.
    pub broadcast_transfers: u64,
    /// Point-to-point transfers issued.
    pub normal_transfers: u64,
}

impl NmpCounts {
    /// Merges counts from another metapath/phase.
    pub fn merge(&mut self, other: &NmpCounts) {
        self.instances += other.instances;
        self.aggregations += other.aggregations;
        self.copies += other.copies;
        self.inter_instance_ops += other.inter_instance_ops;
        self.semantic_ops += other.semantic_ops;
        self.gen_cycles_max_dimm += other.gen_cycles_max_dimm;
        self.compute_cycles_max_rank += other.compute_cycles_max_rank;
        self.host_cycles += other.host_cycles;
        self.bus_payload_bytes += other.bus_payload_bytes;
        self.normal_payload_bytes += other.normal_payload_bytes;
        self.broadcast_payload_bytes += other.broadcast_payload_bytes;
        self.demand_fetch_bytes += other.demand_fetch_bytes;
        self.broadcast_transfers += other.broadcast_transfers;
        self.normal_transfers += other.normal_transfers;
    }
}

/// Energy of a MetaNMP run, in picojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NmpEnergy {
    /// DRAM-system energy (activates, array, I/O, background).
    pub dram: EnergyBreakdown,
    /// NMP logic energy (rank-AUs + DIMM-MetaNMP modules).
    pub logic_pj: f64,
    /// Host-side energy for the distribution loop.
    pub host_pj: f64,
}

impl NmpEnergy {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.dram.total_pj() + self.logic_pj + self.host_pj
    }

    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.total_pj() * 1e-12
    }
}

/// Report of one MetaNMP inference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NmpReport {
    /// Total NMP-clock cycles of the run.
    pub cycles: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Operation counts.
    pub counts: NmpCounts,
    /// Energy breakdown.
    pub energy: NmpEnergy,
    /// DRAM statistics (empty in estimate mode).
    pub dram_stats: MemoryStats,
    /// Fault-injection accounting across DRAM and broadcast layers
    /// (all zero when the fault model is inactive).
    pub faults: FaultStats,
    /// Runtime invariant auditor verdict: DDR4 protocol violations and
    /// conservation-check failures observed during the run. `enabled`
    /// is false (and every count zero) unless the simulation stack was
    /// built with `--features audit`.
    pub audit: dramsim::AuditReport,
}

// Serialization excludes `audit` so artifacts from audited runs stay
// byte-identical to unaudited ones — the acceptance gate the `audit`
// experiment itself relies on. Hand-written because the vendored serde
// derive has no `#[serde(skip)]`; field order mirrors the derive.
impl Serialize for NmpReport {
    fn serialize(&self, w: &mut serde::ser::Writer) {
        w.begin_object();
        w.field("cycles", &self.cycles);
        w.field("seconds", &self.seconds);
        w.field("counts", &self.counts);
        w.field("energy", &self.energy);
        w.field("dram_stats", &self.dram_stats);
        w.field("faults", &self.faults);
        w.end_object();
    }
}

impl Deserialize for NmpReport {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::value::DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::value::DeError::expected("map", "NmpReport"))?;
        Ok(NmpReport {
            cycles: Deserialize::from_value(serde::value::map_get(m, "cycles"))?,
            seconds: Deserialize::from_value(serde::value::map_get(m, "seconds"))?,
            counts: Deserialize::from_value(serde::value::map_get(m, "counts"))?,
            energy: Deserialize::from_value(serde::value::map_get(m, "energy"))?,
            dram_stats: Deserialize::from_value(serde::value::map_get(m, "dram_stats"))?,
            faults: Deserialize::from_value(serde::value::map_get(m, "faults"))?,
            audit: dramsim::AuditReport::default(),
        })
    }
}

impl NmpReport {
    /// Speedup of this run relative to another run's time.
    pub fn speedup_vs(&self, other_seconds: f64) -> f64 {
        if self.seconds == 0.0 {
            f64::INFINITY
        } else {
            other_seconds / self.seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_merge() {
        let mut a = NmpCounts {
            instances: 10,
            aggregations: 5,
            ..Default::default()
        };
        let b = NmpCounts {
            instances: 3,
            copies: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.instances, 13);
        assert_eq!(a.copies, 2);
        assert_eq!(a.aggregations, 5);
    }

    #[test]
    fn energy_totals() {
        let e = NmpEnergy {
            logic_pj: 1e12,
            host_pj: 2e12,
            ..Default::default()
        };
        assert!((e.total_j() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn speedup() {
        let r = NmpReport {
            seconds: 0.5,
            ..Default::default()
        };
        assert_eq!(r.speedup_vs(5.0), 10.0);
    }
}
