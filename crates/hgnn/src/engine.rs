//! Execution engines: materialized baseline vs. on-the-fly reuse.
//!
//! Both engines compute the same model (identical embeddings, verified
//! by tests) but differ exactly where the paper says HGNN systems
//! differ:
//!
//! * [`MaterializedEngine`] enumerates and *stores* every metapath
//!   instance up front (the pre-processing phase of Figure 2) and then
//!   aggregates every instance independently, re-reading the features
//!   of shared prefix vertices for every instance — the redundant
//!   computation of Figure 5.
//! * [`OnTheFlyEngine`] generates instances during aggregation with the
//!   cartesian-like product walk and carries a running prefix aggregate
//!   (§3.1–3.2), so each prefix-tree node is aggregated exactly once
//!   and no instance list is ever stored. This is the paper's
//!   "SoftwareOnly" configuration.
//!
//! All flops and bytes are counted per phase into a
//! [`WorkloadProfile`]; the baselines and the NMP model consume these
//! counts.

use std::collections::BTreeMap;

use hetgraph::cartesian::{walk_prefix_tree, WalkEvent};
use hetgraph::instances::{count_instances, count_prefix_nodes, enumerate_instances};
use hetgraph::{HeteroGraph, Metapath, VertexId, VertexTypeId};

use crate::error::HgnnError;
use crate::features::{FeatureStore, HiddenFeatures, Projection};
use crate::model::{ModelConfig, ModelKind};
use crate::profile::{OpCounters, WorkloadProfile};
use crate::tensor::{softmax, vec_add, vec_axpy, vec_dot, vec_scale, Matrix};

/// Final embeddings, one matrix per metapath start type.
#[derive(Debug, Clone, PartialEq)]
pub struct Embeddings {
    per_type: BTreeMap<VertexTypeId, Matrix>,
}

impl Embeddings {
    /// Assembles embeddings from per-type matrices (used by external
    /// executors, e.g. the NMP simulator, whose results are compared
    /// against the engines here).
    pub fn from_per_type(per_type: BTreeMap<VertexTypeId, Matrix>) -> Self {
        Embeddings { per_type }
    }

    /// Types that received embeddings (the metapath start types).
    pub fn types(&self) -> impl Iterator<Item = VertexTypeId> + '_ {
        self.per_type.keys().copied()
    }

    /// The embedding matrix of one type, if that type started any
    /// metapath.
    pub fn matrix(&self, ty: VertexTypeId) -> Option<&Matrix> {
        self.per_type.get(&ty)
    }

    /// Maximum absolute difference against another embedding set.
    ///
    /// # Panics
    ///
    /// Panics if the two sets cover different types or shapes.
    pub fn max_abs_diff(&self, other: &Embeddings) -> f32 {
        assert_eq!(
            self.per_type.len(),
            other.per_type.len(),
            "embedding type sets differ"
        );
        self.per_type
            .iter()
            .map(|(ty, m)| {
                m.max_abs_diff(
                    other
                        .per_type
                        .get(ty)
                        .expect("embedding type sets must match"),
                )
            })
            .fold(0.0, f32::max)
    }
}

/// Result of one inference: embeddings plus the measured workload.
#[derive(Debug, Clone)]
pub struct Inference {
    /// The computed embeddings.
    pub embeddings: Embeddings,
    /// Measured per-phase operation counts.
    pub profile: WorkloadProfile,
    /// Intermediate bytes the engine kept resident for the entire run
    /// (instance lists, per-instance result vectors, tree structures).
    /// This is what MetaNMP eliminates.
    pub resident_intermediate_bytes: u128,
    /// Peak transient working-set bytes (per-start-vertex buffers that
    /// are freed immediately after use).
    pub peak_transient_bytes: u128,
}

/// A strategy for executing an HGNN forward pass.
///
/// Implementations must produce identical embeddings for identical
/// inputs; they may differ arbitrarily in how much work and memory the
/// execution takes, which is what the profile records.
pub trait InferenceEngine {
    /// Short identifier used in reports.
    fn name(&self) -> &'static str;

    /// Runs a full forward pass (projection, structural aggregation
    /// per metapath, semantic aggregation).
    ///
    /// # Errors
    ///
    /// Returns [`HgnnError::NoMetapaths`] when `metapaths` is empty and
    /// propagates graph/feature errors.
    fn run(
        &self,
        graph: &HeteroGraph,
        features: &FeatureStore,
        config: &ModelConfig,
        metapaths: &[Metapath],
    ) -> Result<Inference, HgnnError>;
}

/// The conventional materialize-everything pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaterializedEngine;

/// The paper's on-the-fly, reuse-aware pipeline (SoftwareOnly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnTheFlyEngine;

const F32: u128 = 4;

/// Reusable working buffers for one metapath's aggregation loop,
/// following the `VisitScratch` arena pattern from `nmp::functional`:
/// allocated once per metapath and recycled across start vertices so
/// the hot loop performs no per-vertex heap allocation.
struct WalkScratch {
    /// Running prefix aggregates, one per depth.
    prefix: Vec<Vec<f32>>,
    /// SHGNN child accumulators per depth.
    child_sum: Vec<Vec<f32>>,
    /// SHGNN child counts per depth.
    child_count: Vec<usize>,
    /// Current path vertices per depth.
    current: Vec<u32>,
    /// Instance vectors of the current start vertex (`n × d`).
    inst_vecs: Vec<f32>,
    /// Attention score buffer for [`combine_instances`].
    scores: Vec<f32>,
    /// Structural output row of the current start vertex.
    out: Vec<f32>,
}

impl WalkScratch {
    fn new(hops: usize, d: usize) -> Self {
        WalkScratch {
            prefix: vec![vec![0.0; d]; hops + 1],
            child_sum: vec![vec![0.0; d]; hops + 1],
            child_count: vec![0; hops + 1],
            current: vec![0; hops + 1],
            inst_vecs: Vec::new(),
            scores: Vec::new(),
            out: vec![0.0; d],
        }
    }
}

/// Combines the instance vectors of one start vertex into its
/// structural result (`out`), by mean or by dot-product attention
/// against the start vertex's own hidden vector.
#[allow(clippy::too_many_arguments)]
fn combine_instances(
    start_vec: &[f32],
    inst_vecs: &[f32],
    n: usize,
    d: usize,
    attention: bool,
    out: &mut [f32],
    c: &mut OpCounters,
    scores_buf: &mut Vec<f32>,
) {
    out.fill(0.0);
    if n == 0 {
        return;
    }
    if attention {
        scores_buf.clear();
        let scale = 1.0 / (d as f32).sqrt();
        for i in 0..n {
            let v = &inst_vecs[i * d..(i + 1) * d];
            scores_buf.push(vec_dot(start_vec, v) * scale);
        }
        c.flops += (n * 2 * d) as u128;
        softmax(scores_buf);
        c.flops += (3 * n) as u128;
        for i in 0..n {
            let v = &inst_vecs[i * d..(i + 1) * d];
            vec_axpy(out, scores_buf[i], v);
        }
        c.flops += (n * 2 * d) as u128;
        // The second pass re-reads the stored instance vectors.
        c.bytes_read += (n * d) as u128 * F32;
    } else {
        for i in 0..n {
            let v = &inst_vecs[i * d..(i + 1) * d];
            vec_add(out, v);
        }
        vec_scale(out, 1.0 / n as f32);
        c.flops += (n * d + d) as u128;
    }
    c.bytes_written += d as u128 * F32;
}

/// Weighted semantic aggregation across the metapath results of one
/// start type (`weights` sum to 1; the uniform mean is the special
/// case `1/k`).
fn semantic_combine(
    results: &[&Matrix],
    weights: &[f32],
    rows: usize,
    d: usize,
    c: &mut OpCounters,
) -> Matrix {
    let mut out = Matrix::zeros(rows, d);
    let k = results.len();
    for r in 0..rows {
        let row = out.row_mut(r);
        for (m, &w) in results.iter().zip(weights) {
            vec_axpy(row, w, m.row(r));
        }
    }
    c.flops += (rows * 2 * k * d) as u128;
    c.bytes_read += (rows * k * d) as u128 * F32;
    c.bytes_written += (rows * d) as u128 * F32;
    out
}

/// Groups metapaths by start type and runs semantic aggregation.
fn finish_semantic(
    graph: &HeteroGraph,
    metapaths: &[Metapath],
    structural: &[Matrix],
    config: &ModelConfig,
    profile: &mut WorkloadProfile,
) -> Result<Embeddings, HgnnError> {
    let d = config.hidden_dim;
    let mut by_type: BTreeMap<VertexTypeId, Vec<(&str, &Matrix)>> = BTreeMap::new();
    for (mp, m) in metapaths.iter().zip(structural) {
        by_type
            .entry(mp.start_type())
            .or_default()
            .push((mp.name(), m));
    }
    let mut per_type = BTreeMap::new();
    for (ty, named) in by_type {
        let rows = graph.vertex_count(ty)? as usize;
        let results: Vec<&Matrix> = named.iter().map(|&(_, m)| m).collect();
        let weights = if config.weighted_semantic {
            let names: Vec<&str> = named.iter().map(|&(n, _)| n).collect();
            crate::model::semantic_weights(&names)
        } else {
            vec![1.0 / results.len() as f32; results.len()]
        };
        per_type.insert(
            ty,
            semantic_combine(&results, &weights, rows, d, &mut profile.semantic),
        );
    }
    Ok(Embeddings { per_type })
}

impl InferenceEngine for MaterializedEngine {
    fn name(&self) -> &'static str {
        "materialized"
    }

    fn run(
        &self,
        graph: &HeteroGraph,
        features: &FeatureStore,
        config: &ModelConfig,
        metapaths: &[Metapath],
    ) -> Result<Inference, HgnnError> {
        if metapaths.is_empty() {
            return Err(HgnnError::NoMetapaths);
        }
        let d = config.hidden_dim;
        let mut profile = WorkloadProfile::default();
        let projection = Projection::random(graph, d, config.seed);
        let hidden = projection.project(graph, features, &mut profile.projection)?;

        let _span = obs::span("hgnn.materialized.run", "hgnn");
        let mut structural_results = Vec::with_capacity(metapaths.len());
        let mut resident: u128 = 0;
        let mut peak_transient: u128 = 0;

        for mp in metapaths {
            let types = mp.vertex_types();
            let hops = mp.length();
            let start_ty = mp.start_type();
            let start_count = graph.vertex_count(start_ty)? as usize;

            // --- Pre-processing: materialize all instances. ---
            let insts = enumerate_instances(graph, mp, usize::MAX)?;
            let tree_nodes = count_prefix_nodes(graph, mp)?;
            let prefix_nodes = tree_nodes + start_count as u128;
            profile.matching.flops += prefix_nodes;
            profile.matching.bytes_read += prefix_nodes * 4;
            profile.matching.bytes_written += insts.byte_size() as u128;
            profile.instances += insts.len() as u128;
            profile.naive_aggregations += insts.len() as u128 * hops as u128;
            resident += insts.byte_size() as u128;
            if config.kind == ModelKind::Magnn {
                // The baseline stores one intermediate vector per
                // instance for the inter-instance stage.
                resident += insts.len() as u128 * d as u128 * F32;
            }
            if config.kind == ModelKind::Shgnn {
                resident += tree_nodes * (8 + d as u128 * F32);
            }

            let mut s = Matrix::zeros(start_count, d);
            let c = &mut profile.structural;

            match config.kind {
                ModelKind::Magnn | ModelKind::Han => {
                    let mut inst_vecs: Vec<f32> = Vec::new();
                    let mut scores = Vec::new();
                    let mut out = vec![0.0f32; d];
                    let mut i = 0;
                    while i < insts.len() {
                        let start = insts.instance(i)[0];
                        // The run of instances sharing this start.
                        let mut j = i;
                        inst_vecs.clear();
                        while j < insts.len() && insts.instance(j)[0] == start {
                            let inst = insts.instance(j);
                            let base = inst_vecs.len();
                            match config.kind {
                                ModelKind::Magnn => {
                                    // Aggregate every vertex of the
                                    // instance, independently of all
                                    // other instances (the redundant
                                    // work).
                                    inst_vecs.extend_from_slice(hidden.vector(types[0], inst[0]));
                                    for k in 1..=hops {
                                        let h = hidden.vector(types[k], inst[k]);
                                        vec_add(&mut inst_vecs[base..base + d], h);
                                    }
                                    c.flops += (hops * d) as u128;
                                    c.bytes_read +=
                                        ((hops + 1) * d) as u128 * F32 + (inst.len() * 4) as u128;
                                    profile.performed_aggregations += hops as u128;
                                    let v = &mut inst_vecs[base..base + d];
                                    vec_scale(v, 1.0 / (hops + 1) as f32);
                                    c.flops += d as u128;
                                    c.bytes_written += d as u128 * F32;
                                }
                                ModelKind::Han => {
                                    let h = hidden.vector(types[hops], inst[hops]);
                                    inst_vecs.extend_from_slice(h);
                                    c.bytes_read += d as u128 * F32 + 8;
                                }
                                ModelKind::Shgnn => unreachable!(),
                            }
                            j += 1;
                        }
                        let n = (j - i) as u128;
                        peak_transient = peak_transient.max(n * d as u128 * F32);
                        let start_vec = hidden.vector(start_ty, start);
                        combine_instances(
                            start_vec,
                            &inst_vecs,
                            j - i,
                            d,
                            config.attention,
                            &mut out,
                            c,
                            &mut scores,
                        );
                        s.row_mut(start as usize).copy_from_slice(&out);
                        i = j;
                    }
                }
                ModelKind::Shgnn => {
                    // Evaluate the instance tree of each start vertex
                    // from the materialized, DFS-ordered instance list.
                    let mut i = 0;
                    while i < insts.len() {
                        let start = insts.instance(i)[0];
                        let mut j = i;
                        while j < insts.len() && insts.instance(j)[0] == start {
                            j += 1;
                        }
                        let value = shgnn_tree_value(
                            &insts,
                            i..j,
                            0,
                            hops,
                            types,
                            &hidden,
                            c,
                            &mut profile.performed_aggregations,
                        );
                        s.row_mut(start as usize).copy_from_slice(&value);
                        c.bytes_written += d as u128 * F32;
                        i = j;
                    }
                }
            }
            structural_results.push(s);
        }

        let embeddings =
            finish_semantic(graph, metapaths, &structural_results, config, &mut profile)?;
        Ok(Inference {
            embeddings,
            profile,
            resident_intermediate_bytes: resident,
            peak_transient_bytes: peak_transient,
        })
    }
}

/// Recursive tree evaluation over a DFS-ordered instance range sharing
/// a prefix of length `depth + 1`.
#[allow(clippy::too_many_arguments)]
fn shgnn_tree_value(
    insts: &hetgraph::instances::MaterializedInstances,
    range: std::ops::Range<usize>,
    depth: usize,
    hops: usize,
    types: &[VertexTypeId],
    hidden: &HiddenFeatures,
    c: &mut OpCounters,
    performed: &mut u128,
) -> Vec<f32> {
    let d = hidden.hidden_dim();
    let v = insts.instance(range.start)[depth];
    let h = hidden.vector(types[depth], v);
    c.bytes_read += d as u128 * F32;
    if depth == hops {
        return h.to_vec();
    }
    // Children: maximal runs of equal vertex at depth + 1.
    let mut sum = vec![0.0f32; d];
    let mut count = 0usize;
    let mut i = range.start;
    while i < range.end {
        let child = insts.instance(i)[depth + 1];
        let mut j = i;
        while j < range.end && insts.instance(j)[depth + 1] == child {
            j += 1;
        }
        c.bytes_read += ((j - i) * 4) as u128;
        let value = shgnn_tree_value(insts, i..j, depth + 1, hops, types, hidden, c, performed);
        vec_add(&mut sum, &value);
        c.flops += d as u128;
        *performed += 1;
        count += 1;
        i = j;
    }
    // value = 0.5 * h(v) + 0.5 * mean(children)
    vec_scale(&mut sum, 0.5 / count as f32);
    vec_axpy(&mut sum, 0.5, h);
    c.flops += 3 * d as u128;
    sum
}

impl InferenceEngine for OnTheFlyEngine {
    fn name(&self) -> &'static str {
        "on-the-fly"
    }

    fn run(
        &self,
        graph: &HeteroGraph,
        features: &FeatureStore,
        config: &ModelConfig,
        metapaths: &[Metapath],
    ) -> Result<Inference, HgnnError> {
        if metapaths.is_empty() {
            return Err(HgnnError::NoMetapaths);
        }
        let d = config.hidden_dim;
        let mut profile = WorkloadProfile::default();
        let projection = Projection::random(graph, d, config.seed);
        let hidden = projection.project(graph, features, &mut profile.projection)?;

        let _span = obs::span("hgnn.on_the_fly.run", "hgnn");
        let mut structural_results = Vec::with_capacity(metapaths.len());
        let mut peak_transient: u128 = 0;

        for mp in metapaths {
            let types = mp.vertex_types().to_vec();
            let hops = mp.length();
            let start_ty = mp.start_type();
            let start_count = graph.vertex_count(start_ty)? as usize;
            let instances = count_instances(graph, mp)?;
            profile.instances += instances;
            profile.naive_aggregations += instances * hops as u128;

            let mut s = Matrix::zeros(start_count, d);
            // One arena for the whole metapath; every buffer is either
            // cleared here or fully overwritten by the walk before it
            // is read, so recycling across start vertices is safe.
            let mut scratch = WalkScratch::new(hops, d);

            for start in 0..start_count as u32 {
                let WalkScratch {
                    prefix,
                    child_sum,
                    child_count,
                    current,
                    inst_vecs,
                    scores,
                    out,
                } = &mut scratch;
                inst_vecs.clear();
                let mut n_instances = 0usize;

                let matching = &mut profile.matching;
                let structural = &mut profile.structural;
                let performed = &mut profile.performed_aggregations;

                walk_prefix_tree(graph, mp, VertexId::new(start), |ev| match ev {
                    WalkEvent::Enter(depth, u) => {
                        matching.flops += 1;
                        matching.bytes_read += 4;
                        current[depth] = u;
                        match config.kind {
                            ModelKind::Magnn => {
                                let h = hidden.vector(types[depth], u);
                                structural.bytes_read += d as u128 * F32;
                                if depth == 0 {
                                    prefix[0].copy_from_slice(h);
                                } else {
                                    // One aggregation per prefix-tree
                                    // node: extend the shared prefix.
                                    let (lo, hi) = prefix.split_at_mut(depth);
                                    hi[0].copy_from_slice(&lo[depth - 1]);
                                    vec_add(&mut hi[0], h);
                                    structural.flops += d as u128;
                                    *performed += 1;
                                }
                            }
                            ModelKind::Shgnn => {
                                child_sum[depth].fill(0.0);
                                child_count[depth] = 0;
                            }
                            ModelKind::Han => {}
                        }
                    }
                    WalkEvent::Leaf => {
                        n_instances += 1;
                        match config.kind {
                            ModelKind::Magnn => {
                                let base = inst_vecs.len();
                                inst_vecs.extend_from_slice(&prefix[hops]);
                                let v = &mut inst_vecs[base..base + d];
                                vec_scale(v, 1.0 / (hops + 1) as f32);
                                structural.flops += d as u128;
                                structural.bytes_written += d as u128 * F32;
                            }
                            ModelKind::Han => {
                                let h = hidden.vector(types[hops], current[hops]);
                                structural.bytes_read += d as u128 * F32;
                                inst_vecs.extend_from_slice(h);
                            }
                            ModelKind::Shgnn => {}
                        }
                    }
                    WalkEvent::Exit(depth) => {
                        if config.kind == ModelKind::Shgnn {
                            let v = current[depth];
                            if depth == hops {
                                let h = hidden.vector(types[depth], v);
                                structural.bytes_read += d as u128 * F32;
                                vec_add(&mut child_sum[depth - 1], h);
                                structural.flops += d as u128;
                                child_count[depth - 1] += 1;
                                *performed += 1;
                            } else if child_count[depth] > 0 {
                                let h = hidden.vector(types[depth], v);
                                structural.bytes_read += d as u128 * F32;
                                let mut value = std::mem::take(&mut child_sum[depth]);
                                vec_scale(&mut value, 0.5 / child_count[depth] as f32);
                                vec_axpy(&mut value, 0.5, h);
                                structural.flops += 3 * d as u128;
                                if depth == 0 {
                                    s.row_mut(v as usize).copy_from_slice(&value);
                                    structural.bytes_written += d as u128 * F32;
                                } else {
                                    vec_add(&mut child_sum[depth - 1], &value);
                                    structural.flops += d as u128;
                                    child_count[depth - 1] += 1;
                                    *performed += 1;
                                }
                                child_sum[depth] = value; // reuse allocation
                            }
                        }
                    }
                })?;

                if config.kind != ModelKind::Shgnn && n_instances > 0 {
                    peak_transient = peak_transient.max((n_instances * d) as u128 * F32);
                    let start_vec = hidden.vector(start_ty, start);
                    combine_instances(
                        start_vec,
                        inst_vecs,
                        n_instances,
                        d,
                        config.attention,
                        out,
                        &mut profile.structural,
                        scores,
                    );
                    s.row_mut(start as usize).copy_from_slice(out);
                }
            }
            structural_results.push(s);
        }

        let embeddings =
            finish_semantic(graph, metapaths, &structural_results, config, &mut profile)?;
        Ok(Inference {
            embeddings,
            profile,
            resident_intermediate_bytes: 0,
            peak_transient_bytes: peak_transient,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph::datasets::{generate, DatasetId, GeneratorConfig};

    fn setup(id: DatasetId, scale: f64) -> (hetgraph::datasets::Dataset, FeatureStore) {
        let ds = generate(id, GeneratorConfig::at_scale(scale));
        let fs = FeatureStore::random(&ds.graph, 11);
        (ds, fs)
    }

    fn run_both(kind: ModelKind, attention: bool) -> (Inference, Inference) {
        let (ds, fs) = setup(DatasetId::Imdb, 0.02);
        let config = ModelConfig::new(kind)
            .with_hidden_dim(8)
            .with_attention(attention);
        let a = MaterializedEngine
            .run(&ds.graph, &fs, &config, &ds.metapaths)
            .unwrap();
        let b = OnTheFlyEngine
            .run(&ds.graph, &fs, &config, &ds.metapaths)
            .unwrap();
        (a, b)
    }

    #[test]
    fn magnn_engines_agree() {
        let (a, b) = run_both(ModelKind::Magnn, true);
        assert!(a.embeddings.max_abs_diff(&b.embeddings) < 1e-4);
    }

    #[test]
    fn magnn_mean_engines_agree() {
        let (a, b) = run_both(ModelKind::Magnn, false);
        assert!(a.embeddings.max_abs_diff(&b.embeddings) < 1e-4);
    }

    #[test]
    fn han_engines_agree() {
        let (a, b) = run_both(ModelKind::Han, true);
        assert!(a.embeddings.max_abs_diff(&b.embeddings) < 1e-4);
    }

    #[test]
    fn shgnn_engines_agree() {
        let (a, b) = run_both(ModelKind::Shgnn, false);
        assert!(a.embeddings.max_abs_diff(&b.embeddings) < 1e-4);
    }

    #[test]
    fn reuse_eliminates_magnn_redundancy() {
        let (a, b) = run_both(ModelKind::Magnn, true);
        assert!(
            b.profile.performed_aggregations < a.profile.performed_aggregations,
            "reuse {} >= naive {}",
            b.profile.performed_aggregations,
            a.profile.performed_aggregations
        );
        assert!(b.profile.redundancy_eliminated() > 0.0);
        // Figure 5: MAGNN redundancy is substantial.
        assert!(b.profile.redundancy_eliminated() > 0.10);
    }

    #[test]
    fn on_the_fly_has_no_resident_intermediate() {
        let (a, b) = run_both(ModelKind::Magnn, true);
        assert!(a.resident_intermediate_bytes > 0);
        assert_eq!(b.resident_intermediate_bytes, 0);
    }

    #[test]
    fn matching_writes_only_in_baseline() {
        let (a, b) = run_both(ModelKind::Han, true);
        assert!(a.profile.matching.bytes_written > 0);
        assert_eq!(b.profile.matching.bytes_written, 0);
    }

    #[test]
    fn instance_counts_match() {
        let (a, b) = run_both(ModelKind::Magnn, true);
        assert_eq!(a.profile.instances, b.profile.instances);
        assert!(a.profile.instances > 0);
    }

    #[test]
    fn structural_dominates_projection_bytes() {
        // The memory-bound character of HGNNs (Figure 4): structural
        // aggregation moves far more irregular bytes than projection on
        // instance-heavy datasets.
        let (ds, fs) = setup(DatasetId::Lastfm, 0.05);
        let config = ModelConfig::new(ModelKind::Magnn).with_hidden_dim(8);
        let inf = MaterializedEngine
            .run(&ds.graph, &fs, &config, &ds.metapaths)
            .unwrap();
        assert!(inf.profile.structural.bytes() > inf.profile.projection.bytes());
    }

    #[test]
    fn empty_metapaths_is_error() {
        let (ds, fs) = setup(DatasetId::Imdb, 0.02);
        let config = ModelConfig::default();
        assert!(matches!(
            MaterializedEngine.run(&ds.graph, &fs, &config, &[]),
            Err(HgnnError::NoMetapaths)
        ));
    }

    #[test]
    fn embeddings_cover_start_types() {
        let (ds, fs) = setup(DatasetId::Imdb, 0.02);
        let config = ModelConfig::new(ModelKind::Han).with_hidden_dim(8);
        let inf = OnTheFlyEngine
            .run(&ds.graph, &fs, &config, &ds.metapaths)
            .unwrap();
        // IMDB metapaths start at M, D, and A.
        assert_eq!(inf.embeddings.types().count(), 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let (a1, _) = run_both(ModelKind::Magnn, true);
        let (a2, _) = run_both(ModelKind::Magnn, true);
        assert_eq!(a1.embeddings.max_abs_diff(&a2.embeddings), 0.0);
        assert_eq!(a1.profile, a2.profile);
    }

    #[test]
    fn performed_matches_prefix_nodes_for_magnn_reuse() {
        let (ds, fs) = setup(DatasetId::Imdb, 0.02);
        let config = ModelConfig::new(ModelKind::Magnn).with_hidden_dim(8);
        let inf = OnTheFlyEngine
            .run(&ds.graph, &fs, &config, &ds.metapaths)
            .unwrap();
        let expected: u128 = ds
            .metapaths
            .iter()
            .map(|mp| count_prefix_nodes(&ds.graph, mp).unwrap())
            .sum();
        assert_eq!(inf.profile.performed_aggregations, expected);
    }

    #[test]
    fn weighted_semantic_engines_agree_and_differ_from_mean() {
        let (ds, fs) = setup(DatasetId::Imdb, 0.02);
        let weighted = ModelConfig::new(ModelKind::Magnn)
            .with_hidden_dim(8)
            .with_attention(false)
            .with_weighted_semantic(true);
        let a = MaterializedEngine
            .run(&ds.graph, &fs, &weighted, &ds.metapaths)
            .unwrap();
        let b = OnTheFlyEngine
            .run(&ds.graph, &fs, &weighted, &ds.metapaths)
            .unwrap();
        assert!(a.embeddings.max_abs_diff(&b.embeddings) < 1e-4);
        // Weighted differs from the uniform mean on multi-metapath
        // start types.
        let uniform = OnTheFlyEngine
            .run(
                &ds.graph,
                &fs,
                &weighted.with_weighted_semantic(false),
                &ds.metapaths,
            )
            .unwrap();
        assert!(b.embeddings.max_abs_diff(&uniform.embeddings) > 1e-6);
    }

    #[test]
    fn dblp_long_metapaths_work() {
        let (ds, fs) = setup(DatasetId::Dblp, 0.02);
        let config = ModelConfig::new(ModelKind::Magnn).with_hidden_dim(8);
        let a = MaterializedEngine
            .run(&ds.graph, &fs, &config, &ds.metapaths)
            .unwrap();
        let b = OnTheFlyEngine
            .run(&ds.graph, &fs, &config, &ds.metapaths)
            .unwrap();
        assert!(a.embeddings.max_abs_diff(&b.embeddings) < 1e-4);
    }
}
