//! The five comparison platforms as analytical models.
//!
//! Each model is a function from a measured [`PlatformWorkload`] to
//! seconds and joules, built from the roofline of each phase
//! (`max(flops / compute, bytes / bandwidth)`) plus the platform's
//! software overheads. The paper's dynamic-graph scenario (§5.1, one
//! inference per 10% update batch) means every platform must obtain
//! fresh metapath instances for every inference:
//!
//! * the **CPU** baseline runs the paper's software optimization
//!   (on-the-fly generation + reuse), per §5.1;
//! * the **GPU** materializes instances on-device (or dies of OOM);
//! * **AWB-GCN**, **HyGCN**, and **RecNMP** cannot generate instances,
//!   so MetaNMP's generation time is added to them (§5.1).

use hgnn::{OpCounters, WorkloadProfile};

use crate::spec::{
    PhaseEfficiency, PlatformSpec, AWB_GCN, CPU, CPU_SOFTWARE_ILP_PENALTY,
    CPU_SOFT_PER_INSTANCE_NS, GPU, GPU_MEMORY_BYTES, HYGCN, RECNMP, RECNMP_HOST_ISSUE_NS,
};
use crate::workload::{PlatformReport, PlatformWorkload};

/// A platform that can evaluate a workload.
pub trait Platform {
    /// Display name used in figures.
    fn name(&self) -> &'static str;

    /// Evaluates a workload into time and energy.
    fn evaluate(&self, workload: &PlatformWorkload) -> PlatformReport;
}

fn phase_time(c: &OpCounters, spec: &PlatformSpec, eff: PhaseEfficiency) -> f64 {
    let t_compute = c.flops as f64 / (spec.peak_flops * eff.compute);
    let t_bytes = c.bytes() as f64 / (spec.peak_bw * eff.bandwidth);
    t_compute.max(t_bytes)
}

fn inference_time(profile: &WorkloadProfile, spec: &PlatformSpec) -> f64 {
    let projection = phase_time(&profile.projection, spec, spec.projection);
    let structural = phase_time(&profile.structural, spec, spec.structural)
        + profile.instances as f64 * spec.per_instance_overhead_ns * 1e-9;
    let semantic = phase_time(&profile.semantic, spec, spec.semantic);
    projection + structural + semantic
}

fn matching_time(profile: &WorkloadProfile, spec: &PlatformSpec) -> f64 {
    // `matching.flops` counts traversal steps (prefix-tree nodes).
    let t_bytes = profile.matching.bytes() as f64 / (spec.peak_bw * spec.matching_bw_eff);
    let t_steps = profile.matching.flops as f64 * spec.per_node_matching_ns * 1e-9;
    t_bytes.max(t_steps)
}

/// The software-optimized CPU baseline (the paper's §5.1 baseline and
/// Figure 14's "SoftwareOnly" when constructed with
/// [`CpuModel::software_only`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuModel {
    optimized: bool,
}

impl CpuModel {
    /// The naive CPU: materializes all instances, aggregates each
    /// independently.
    pub fn naive() -> Self {
        CpuModel { optimized: false }
    }

    /// The software-optimized CPU: on-the-fly generation with reuse
    /// (pays the ILP penalty of the dependent dataflow).
    pub fn software_only() -> Self {
        CpuModel { optimized: true }
    }
}

impl Platform for CpuModel {
    fn name(&self) -> &'static str {
        if self.optimized {
            "CPU (SoftwareOnly)"
        } else {
            "CPU (naive)"
        }
    }

    fn evaluate(&self, w: &PlatformWorkload) -> PlatformReport {
        let spec = &CPU;
        let (matching, inference) = if self.optimized {
            // A native on-the-fly implementation: no framework
            // per-instance overhead, but generation and structural
            // aggregation form one dependent pipeline that pays the
            // ILP penalty (§3.3). Projection and semantic aggregation
            // are unchanged dense kernels.
            let m = matching_time(&w.reuse, spec) * CPU_SOFTWARE_ILP_PENALTY;
            let structural = phase_time(&w.reuse.structural, spec, spec.structural)
                * CPU_SOFTWARE_ILP_PENALTY
                + w.reuse.instances as f64 * CPU_SOFT_PER_INSTANCE_NS * 1e-9;
            let i = phase_time(&w.reuse.projection, spec, spec.projection)
                + structural
                + phase_time(&w.reuse.semantic, spec, spec.semantic);
            (m, i)
        } else {
            (
                matching_time(&w.naive, spec),
                inference_time(&w.naive, spec),
            )
        };
        let seconds = matching + inference;
        PlatformReport {
            seconds,
            matching_seconds: matching,
            inference_seconds: inference,
            energy_j: spec.power_w * seconds,
            oom: false,
        }
    }
}

/// NVIDIA Tesla V100.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuModel;

impl Platform for GpuModel {
    fn name(&self) -> &'static str {
        "GPU (V100)"
    }

    fn evaluate(&self, w: &PlatformWorkload) -> PlatformReport {
        if w.footprint_bytes > GPU_MEMORY_BYTES {
            return PlatformReport::out_of_memory();
        }
        let spec = &GPU;
        // Instances are materialized on-device, so matching ships
        // nothing over PCIe.
        let matching = matching_time(&w.naive, spec);
        let inference = inference_time(&w.naive, spec);
        let seconds = matching + inference;
        PlatformReport {
            seconds,
            matching_seconds: matching,
            inference_seconds: inference,
            energy_j: spec.power_w * seconds,
            oom: false,
        }
    }
}

/// AWB-GCN with metapath aggregation converted to SpMM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AwbGcnModel;

impl Platform for AwbGcnModel {
    fn name(&self) -> &'static str {
        "AWB-GCN"
    }

    fn evaluate(&self, w: &PlatformWorkload) -> PlatformReport {
        let spec = &AWB_GCN;
        let matching = w.metanmp_generation_seconds;
        let inference = inference_time(&w.naive, spec);
        let seconds = matching + inference;
        PlatformReport {
            seconds,
            matching_seconds: matching,
            inference_seconds: inference,
            energy_j: spec.power_w * seconds,
            oom: false,
        }
    }
}

/// HyGCN with metapath aggregation decomposed into vertex aggregation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HyGcnModel;

impl Platform for HyGcnModel {
    fn name(&self) -> &'static str {
        "HyGCN"
    }

    fn evaluate(&self, w: &PlatformWorkload) -> PlatformReport {
        let spec = &HYGCN;
        let matching = w.metanmp_generation_seconds;
        let inference = inference_time(&w.naive, spec);
        let seconds = matching + inference;
        PlatformReport {
            seconds,
            matching_seconds: matching,
            inference_seconds: inference,
            energy_j: spec.power_w * seconds,
            oom: false,
        }
    }
}

/// RecNMP: rank-level near-memory aggregation, host-issued
/// instructions, no broadcast, no reuse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecNmpModel;

impl Platform for RecNmpModel {
    fn name(&self) -> &'static str {
        "RecNMP"
    }

    fn evaluate(&self, w: &PlatformWorkload) -> PlatformReport {
        let spec = &RECNMP;
        let matching = w.metanmp_generation_seconds;
        // Aggregation streams at rank-level bandwidth, but the host
        // issues one instruction per vector aggregation.
        let structural_bw = phase_time(&w.naive.structural, spec, spec.structural);
        let host_issue = w.naive.naive_aggregations as f64 * RECNMP_HOST_ISSUE_NS * 1e-9;
        let projection = phase_time(&w.naive.projection, &CPU, CPU.projection);
        let semantic = phase_time(&w.naive.semantic, spec, spec.semantic);
        let inference = projection + structural_bw.max(host_issue) + semantic;
        let seconds = matching + inference;
        PlatformReport {
            seconds,
            matching_seconds: matching,
            inference_seconds: inference,
            energy_j: spec.power_w * seconds,
            oom: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgnn::OpCounters;

    fn workload() -> PlatformWorkload {
        let naive = WorkloadProfile {
            matching: OpCounters {
                flops: 80_000_000, // traversal steps
                bytes_read: 320_000_000,
                bytes_written: 20_000_000_000, // materialized instances
            },
            projection: OpCounters {
                flops: 2_000_000_000,
                bytes_read: 500_000_000,
                bytes_written: 100_000_000,
            },
            structural: OpCounters {
                flops: 600_000_000,
                bytes_read: 2_400_000_000,
                bytes_written: 200_000_000,
            },
            semantic: OpCounters {
                flops: 50_000_000,
                bytes_read: 200_000_000,
                bytes_written: 50_000_000,
            },
            instances: 2_000_000,
            naive_aggregations: 8_000_000,
            ..WorkloadProfile::default()
        };
        let mut reuse = naive;
        reuse.matching.bytes_written = 0;
        reuse.structural.flops /= 2;
        reuse.structural.bytes_read /= 2;
        reuse.performed_aggregations = 4_000_000;
        PlatformWorkload::new(naive, reuse, 4 << 30, 0.001)
    }

    #[test]
    fn gpu_beats_cpu() {
        let w = workload();
        let cpu = CpuModel::software_only().evaluate(&w);
        let gpu = GpuModel.evaluate(&w);
        assert!(gpu.seconds < cpu.seconds);
        assert!(!gpu.oom);
    }

    #[test]
    fn naive_cpu_slower_than_software_only() {
        let w = workload();
        let naive = CpuModel::naive().evaluate(&w);
        let opt = CpuModel::software_only().evaluate(&w);
        assert!(opt.seconds < naive.seconds);
    }

    #[test]
    fn gpu_oom_on_huge_footprint() {
        let mut w = workload();
        w.footprint_bytes = 200u128 << 30;
        let gpu = GpuModel.evaluate(&w);
        assert!(gpu.oom);
        assert!(gpu.seconds.is_infinite());
    }

    #[test]
    fn accelerators_beat_gpu_given_fast_generation() {
        let w = workload();
        let gpu = GpuModel.evaluate(&w);
        for model in [&AwbGcnModel as &dyn Platform, &HyGcnModel, &RecNmpModel] {
            let r = model.evaluate(&w);
            assert!(
                r.seconds < gpu.seconds,
                "{} ({}) should beat GPU ({})",
                model.name(),
                r.seconds,
                gpu.seconds
            );
        }
    }

    #[test]
    fn recnmp_host_issue_can_dominate() {
        let mut w = workload();
        w.naive.naive_aggregations = 10_000_000_000;
        let r = RecNmpModel.evaluate(&w);
        // 10^10 × 1.6 ns = 16 s of host issue.
        assert!(r.inference_seconds > 10.0);
    }

    #[test]
    fn energy_scales_with_time() {
        let w = workload();
        let cpu = CpuModel::software_only().evaluate(&w);
        assert!((cpu.energy_j - 105.0 * cpu.seconds).abs() < 1e-9);
    }

    #[test]
    fn names() {
        assert_eq!(GpuModel.name(), "GPU (V100)");
        assert_eq!(CpuModel::naive().name(), "CPU (naive)");
    }
}
