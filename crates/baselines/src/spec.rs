//! Platform specifications: peak rates, efficiencies, and software
//! overheads.
//!
//! Peak numbers come from the platforms' public datasheets; the
//! efficiency factors and per-item software overheads are behavioral
//! calibration constants chosen so the *relative* results of Figures 12
//! and 13 (who wins, by roughly what factor) reproduce. They are all
//! in one place, documented, and easy to audit or re-tune.

use serde::{Deserialize, Serialize};

/// Fraction of a platform's peak compute/bandwidth a phase achieves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseEfficiency {
    /// Compute efficiency in `(0, 1]`.
    pub compute: f64,
    /// Bandwidth efficiency in `(0, 1]`.
    pub bandwidth: f64,
}

impl PhaseEfficiency {
    /// Convenience constructor.
    pub const fn new(compute: f64, bandwidth: f64) -> Self {
        PhaseEfficiency { compute, bandwidth }
    }
}

/// Rate and overhead constants of one platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Peak FP32 throughput (flops/s).
    pub peak_flops: f64,
    /// Peak memory bandwidth (bytes/s).
    pub peak_bw: f64,
    /// Average active power (W).
    pub power_w: f64,
    /// Dense projection (GEMM) efficiency.
    pub projection: PhaseEfficiency,
    /// Irregular structural-aggregation efficiency.
    pub structural: PhaseEfficiency,
    /// Semantic-aggregation efficiency.
    pub semantic: PhaseEfficiency,
    /// Graph-traversal (matching) bandwidth efficiency.
    pub matching_bw_eff: f64,
    /// Software/framework overhead charged per metapath instance
    /// during aggregation (ns); zero on fixed-function hardware.
    pub per_instance_overhead_ns: f64,
    /// Software overhead per traversal step during instance matching /
    /// generation (ns); models dependent pointer-chasing loads.
    pub per_node_matching_ns: f64,
}

/// Intel Xeon Gold 5117 (14 cores, 2.0 GHz base, 6-channel DDR4-2400).
///
/// Peak: 14 cores × 2.0 GHz × 32 FP32/cycle (AVX-512 FMA) ≈ 0.9 Tflop/s;
/// ~115 GB/s stream bandwidth. The large per-instance overhead models
/// the measured framework cost of metapath-based aggregation in PyG
/// (Python dispatch, per-instance tensor indexing and assembly —
/// microseconds per instance), which is what makes the measured CPU
/// baseline orders of magnitude slower than raw roofline and MetaNMP
/// 4225× faster in the paper.
pub const CPU: PlatformSpec = PlatformSpec {
    peak_flops: 0.9e12,
    peak_bw: 115e9,
    power_w: 105.0,
    projection: PhaseEfficiency::new(0.55, 0.60),
    structural: PhaseEfficiency::new(0.08, 0.12),
    semantic: PhaseEfficiency::new(0.20, 0.30),
    matching_bw_eff: 0.08,
    per_instance_overhead_ns: 7000.0,
    per_node_matching_ns: 25.0,
};

/// NVIDIA Tesla V100 (14 Tflop/s FP32, 900 GB/s HBM2, 16 GB).
///
/// Matching/materialization runs on-device but its irregular
/// expansion achieves a small fraction of HBM bandwidth; aggregation
/// kernels gather features at ~25% of peak and still pay framework
/// per-instance indexing overhead (hundreds of ns), which is why the
/// paper's GPU is only ~10× its CPU baseline.
pub const GPU: PlatformSpec = PlatformSpec {
    peak_flops: 14e12,
    peak_bw: 900e9,
    power_w: 300.0,
    projection: PhaseEfficiency::new(0.60, 0.75),
    structural: PhaseEfficiency::new(0.10, 0.25),
    semantic: PhaseEfficiency::new(0.20, 0.35),
    matching_bw_eff: 0.20,
    per_instance_overhead_ns: 200.0,
    per_node_matching_ns: 0.35,
};

/// V100 device memory (bytes); workloads whose materialized footprint
/// exceeds it are out of memory (Figure 12: OM, OG).
pub const GPU_MEMORY_BYTES: u128 = 16 * (1 << 30);

/// AWB-GCN (Stratix-10 class: 4096 PEs ≈ 2.7 Top/s, ~77 GB/s DDR).
///
/// Its auto-tuning workload balancing keeps the SpMM pipeline near
/// peak; metapath aggregation is converted to matrix form first.
pub const AWB_GCN: PlatformSpec = PlatformSpec {
    peak_flops: 2.7e12,
    peak_bw: 77e9,
    power_w: 45.0,
    projection: PhaseEfficiency::new(0.70, 0.70),
    structural: PhaseEfficiency::new(0.55, 0.60),
    semantic: PhaseEfficiency::new(0.40, 0.50),
    matching_bw_eff: 0.5,
    per_instance_overhead_ns: 0.0,
    per_node_matching_ns: 0.0,
};

/// HyGCN (hybrid aggregation/combination engines, 256 GB/s HBM).
///
/// The hybrid inter-engine fusion does not apply to HGNNs (the paper's
/// §5.3 discussion): the complex metapath aggregation must be
/// decomposed into simple vertex aggregations that starve the engines,
/// so aggregation runs at a small fraction of its bandwidth — which is
/// why HyGCN trails AWB-GCN on HGNNs despite more raw bandwidth.
pub const HYGCN: PlatformSpec = PlatformSpec {
    peak_flops: 4.6e12,
    peak_bw: 256e9,
    power_w: 30.0,
    projection: PhaseEfficiency::new(0.75, 0.70),
    structural: PhaseEfficiency::new(0.10, 0.12),
    semantic: PhaseEfficiency::new(0.30, 0.40),
    matching_bw_eff: 0.4,
    per_instance_overhead_ns: 0.0,
    per_node_matching_ns: 0.0,
};

/// RecNMP (rank-level NMP on the same 4×2×2 DDR4-2400 system:
/// 16 ranks × 19.2 GB/s).
///
/// Aggregation streams at rank-level bandwidth, but every aggregation
/// instruction is issued by the host, and there is no broadcast and no
/// computation reuse.
pub const RECNMP: PlatformSpec = PlatformSpec {
    peak_flops: 0.6e12,
    peak_bw: 16.0 * 19.2e9,
    power_w: 25.0,
    projection: PhaseEfficiency::new(0.55, 0.60), // projection stays on the host
    structural: PhaseEfficiency::new(0.60, 0.60),
    semantic: PhaseEfficiency::new(0.50, 0.50),
    matching_bw_eff: 0.5,
    per_instance_overhead_ns: 0.0,
    per_node_matching_ns: 0.0,
};

/// Host-issue overhead per aggregation instruction on RecNMP (ns): the
/// host builds and sends one NMP instruction per vector aggregation.
pub const RECNMP_HOST_ISSUE_NS: f64 = 1.6;

/// Per-instance bookkeeping of the on-the-fly software pipeline (ns):
/// cheaper than the framework's per-instance dispatch but still a
/// dependent software loop (the §3.3 "high runtime overhead" that
/// leaves SoftwareOnly 3963× slower than MetaNMP).
pub const CPU_SOFT_PER_INSTANCE_NS: f64 = 2000.0;

/// Framework-level pre-processing cost per materialized instance (ns):
/// the paper's Figure 3 measures metapath instance matching in the
/// PyG-based pipeline, where each instance passes through Python-level
/// path joins and tensor assembly — microseconds per instance, which is
/// what makes matching 8129× the inference time. Used only to model
/// the framework pre-processing pass; native pipelines use
/// `per_node_matching_ns` instead.
pub const CPU_FRAMEWORK_MATCHING_NS_PER_INSTANCE: f64 = 4000.0;

/// The ILP penalty the on-the-fly software pipeline pays on the CPU:
/// dependent instructions (prefix chaining, reuse bookkeeping) limit
/// superscalar issue (§3.3).
pub const CPU_SOFTWARE_ILP_PENALTY: f64 = 2.2;

#[cfg(test)]
mod tests {
    use super::*;

    // The asserts below compare calibration constants, so clippy sees
    // them as constant-valued; they exist to catch typos in the specs.
    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn peak_rates_are_ordered_sensibly() {
        assert!(GPU.peak_flops > CPU.peak_flops);
        assert!(GPU.peak_bw > AWB_GCN.peak_bw);
        assert!(RECNMP.peak_bw > CPU.peak_bw);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn overheads_only_on_software_platforms() {
        assert!(CPU.per_instance_overhead_ns > 0.0);
        assert_eq!(AWB_GCN.per_instance_overhead_ns, 0.0);
        assert_eq!(HYGCN.per_node_matching_ns, 0.0);
    }

    #[test]
    fn efficiencies_in_range() {
        for spec in [CPU, GPU, AWB_GCN, HYGCN, RECNMP] {
            for e in [spec.projection, spec.structural, spec.semantic] {
                assert!(e.compute > 0.0 && e.compute <= 1.0);
                assert!(e.bandwidth > 0.0 && e.bandwidth <= 1.0);
            }
        }
    }
}
