//! Metapath instance enumeration, counting, and memory accounting.
//!
//! The conventional HGNN pipeline *materializes* every metapath instance
//! during pre-processing and keeps the list in memory for structural and
//! semantic aggregation — the paper measures this intermediate data at
//! 239.84× the graph itself on average (Table 1). This module implements
//! that baseline ([`MaterializedInstances`]), an exact closed-form
//! counter that never materializes ([`count_instances`]), and the
//! byte-level accounting behind Tables 1 and 4.
//!
//! Instances are *walks*: the same vertex may appear several times (the
//! paper's Figure 6 counts `②-①-②` as a valid A-B-A instance).

use serde::{Deserialize, Serialize};

use crate::error::GraphError;
use crate::graph::HeteroGraph;
use crate::metapath::Metapath;
use crate::types::{Vertex, VertexId, VertexTypeId};

/// All instances of one metapath, stored as a flat row-major matrix of
/// local vertex ids with stride `metapath.vertex_count()`.
///
/// This is the baseline's intermediate data structure; its size is what
/// MetaNMP eliminates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaterializedInstances {
    stride: usize,
    data: Vec<u32>,
    truncated: bool,
}

impl MaterializedInstances {
    /// Number of stored instances.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.stride).unwrap_or(0)
    }

    /// Returns `true` if no instances were found.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Vertices per instance (`L + 1`).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// `true` if enumeration stopped at the caller-provided cap, so the
    /// list is incomplete.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// The `i`-th instance as a slice of local vertex ids.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn instance(&self, i: usize) -> &[u32] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// Iterates over instances.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.data.chunks_exact(self.stride.max(1))
    }

    /// Bytes used to store the instance list (`4 × stride` per
    /// instance) — the paper's "Instances" row in Table 1.
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<u32>()
    }
}

/// Enumerates every instance of `metapath` in `graph` by depth-first
/// expansion, stopping after `limit` instances.
///
/// The baseline pre-processing phase. Use [`count_instances`] when only
/// the count is needed — enumeration is exponential in metapath length.
///
/// # Errors
///
/// Propagates [`GraphError`] for vertices or types that fail
/// validation (cannot happen on graphs built by [`crate::HeteroGraphBuilder`]).
pub fn enumerate_instances(
    graph: &HeteroGraph,
    metapath: &Metapath,
    limit: usize,
) -> Result<MaterializedInstances, GraphError> {
    let types = metapath.vertex_types();
    let stride = types.len();
    let mut data = Vec::new();
    let mut truncated = false;
    let start_count = graph.vertex_count(metapath.start_type())?;

    let mut stack: Vec<u32> = Vec::with_capacity(stride);
    'outer: for s in 0..start_count {
        stack.clear();
        stack.push(s);
        // Iterative DFS with explicit neighbor cursors.
        let mut cursors: Vec<usize> = vec![0];
        loop {
            let depth = stack.len() - 1;
            if depth + 1 == stride {
                // Complete instance.
                if data.len() / stride >= limit {
                    truncated = true;
                    break 'outer;
                }
                data.extend_from_slice(&stack);
                stack.pop();
                cursors.pop();
                if stack.is_empty() {
                    break;
                }
                continue;
            }
            let v = Vertex::new(
                types[depth],
                VertexId::new(
                    *stack
                        .last()
                        .expect("DFS stack is non-empty inside the loop"),
                ),
            );
            let neighbors = graph.typed_neighbors(v, types[depth + 1])?;
            let cursor = cursors
                .last_mut()
                .expect("cursor stack mirrors the DFS stack");
            if *cursor < neighbors.len() {
                let next = neighbors[*cursor];
                *cursor += 1;
                stack.push(next);
                cursors.push(0);
            } else {
                stack.pop();
                cursors.pop();
                if stack.is_empty() {
                    break;
                }
            }
        }
    }
    Ok(MaterializedInstances {
        stride,
        data,
        truncated,
    })
}

/// Counts instances of `metapath` exactly, without materializing, via
/// forward dynamic programming over walk counts.
///
/// Runs in `O(L × E)` time and `O(V)` space, so it is safe on the
/// web-scale presets where enumeration would need tens of gigabytes.
///
/// # Errors
///
/// Propagates [`GraphError`] from neighbor queries.
pub fn count_instances(graph: &HeteroGraph, metapath: &Metapath) -> Result<u128, GraphError> {
    let per_start = count_instances_per_start(graph, metapath)?;
    Ok(per_start.iter().sum())
}

/// Counts, for every start vertex, the number of instances dispersing
/// from it (the paper's per-vertex instance fan-out), via backward DP.
///
/// # Errors
///
/// Propagates [`GraphError`] from neighbor queries.
pub fn count_instances_per_start(
    graph: &HeteroGraph,
    metapath: &Metapath,
) -> Result<Vec<u128>, GraphError> {
    suffix_walk_counts(graph, metapath.vertex_types(), 0)
}

/// Counts, for every start vertex, its instances and the nodes of its
/// prefix tree (root included) in one backward pass: entry `v` is
/// `(count_instances_per_start[v], suffix_walk_counts(.., 1)[v])`.
///
/// # Errors
///
/// Propagates [`GraphError`] from neighbor queries.
pub fn count_instances_and_nodes_per_start(
    graph: &HeteroGraph,
    metapath: &Metapath,
) -> Result<Vec<(u128, u128)>, GraphError> {
    backward_walks(graph, metapath.vertex_types(), (1, 1), (0, 1), |acc, n| {
        acc.0 += n.0;
        acc.1 += n.1;
    })
}

/// Backward walk-count DP over a vertex-type sequence, for every vertex
/// of type `types[0]`:
///
/// ```text
/// g_last(v) = 1,    g_i(v) = base + Σ_{n ∈ N(v, types[i+1])} g_{i+1}(n)
/// ```
///
/// With `base = 0` this counts the full walks `v … v_last` (metapath
/// instances, see [`count_instances_per_start`]); with `base = 1` it
/// counts the nodes of the prefix tree rooted at `v`, root included.
/// Pass a suffix of a metapath's types to start the DP at a later hop.
/// An empty `types` yields an empty vector.
///
/// # Errors
///
/// Propagates [`GraphError`] from neighbor queries.
pub fn suffix_walk_counts(
    graph: &HeteroGraph,
    types: &[VertexTypeId],
    base: u128,
) -> Result<Vec<u128>, GraphError> {
    backward_walks(graph, types, 1, base, |acc, n| *acc += n)
}

/// The backward DP behind [`suffix_walk_counts`], over any value that
/// `add` can sum: `last` at every vertex of the final type, then per
/// hop `base` plus the sum over each vertex's CSR row. Two buffers,
/// sized once for the largest type, swap between hops.
fn backward_walks<T: Copy>(
    graph: &HeteroGraph,
    types: &[VertexTypeId],
    last: T,
    base: T,
    add: impl Fn(&mut T, T),
) -> Result<Vec<T>, GraphError> {
    let Some(&last_ty) = types.last() else {
        return Ok(Vec::new());
    };
    let largest = largest_type(graph, types)?;
    let mut suffix = Vec::with_capacity(largest);
    suffix.resize(graph.vertex_count(last_ty)? as usize, last);
    let mut cur = Vec::with_capacity(largest);
    for pair in types.windows(2).rev() {
        let (ty, next_ty) = (pair[0], pair[1]);
        cur.clear();
        cur.resize(graph.vertex_count(ty)? as usize, base);
        if let Some(csr) = graph.relation_csr(ty, next_ty) {
            for (slot, row) in cur.iter_mut().zip(csr.rows()) {
                for &n in row {
                    add(slot, suffix[n as usize]);
                }
            }
        }
        std::mem::swap(&mut suffix, &mut cur);
    }
    Ok(suffix)
}

/// The vertex count of the largest type in `types`, which sizes a DP's
/// two buffers once for every hop.
fn largest_type(graph: &HeteroGraph, types: &[VertexTypeId]) -> Result<usize, GraphError> {
    types.iter().try_fold(0, |largest, &ty| {
        Ok(largest.max(graph.vertex_count(ty)? as usize))
    })
}

/// One forward hop from `prev_ty` to `ty`: `next[n]` becomes the sum of
/// `prev[v]` over every `prev_ty` vertex `v` adjacent to `n`.
fn forward_hop(
    graph: &HeteroGraph,
    prev_ty: VertexTypeId,
    ty: VertexTypeId,
    prev: &[u128],
    next: &mut Vec<u128>,
) -> Result<(), GraphError> {
    next.clear();
    next.resize(graph.vertex_count(ty)? as usize, 0);
    if let Some(csr) = graph.relation_csr(prev_ty, ty) {
        for (row, &walks) in csr.rows().zip(prev) {
            if walks == 0 {
                continue;
            }
            for &n in row {
                next[n as usize] += walks;
            }
        }
    }
    Ok(())
}

/// Counts the nodes of the dependency (prefix) tree rooted at each start
/// vertex, summed over all start vertices, *excluding* the roots.
///
/// A prefix-tree node at depth `d ≥ 1` is a distinct walk
/// `v0 … vd`; the reuse-aware dataflow (§3.2) performs exactly one
/// aggregation per such node, so this count is the optimized structural
/// aggregation work and also SHGNN's tree storage size.
///
/// # Errors
///
/// Propagates [`GraphError`] from neighbor queries.
pub fn count_prefix_nodes(graph: &HeteroGraph, metapath: &Metapath) -> Result<u128, GraphError> {
    let types = metapath.vertex_types();
    let largest = largest_type(graph, types)?;
    // Forward DP: walks of each prefix length.
    let mut cur = Vec::with_capacity(largest);
    cur.resize(graph.vertex_count(types[0])? as usize, 1u128);
    let mut next = Vec::with_capacity(largest);
    let mut total: u128 = 0;
    for pair in types.windows(2) {
        forward_hop(graph, pair[0], pair[1], &cur, &mut next)?;
        total += next.iter().sum::<u128>();
        std::mem::swap(&mut cur, &mut next);
    }
    Ok(total)
}

/// Forward walk counts per metapath level: entry `i` holds, for every
/// vertex of type `types[i]`, the number of distinct walks
/// `v0 … vi` (matching the metapath prefix) that end at it. Level 0 is
/// all ones.
///
/// Used by the NMP distribution model to know which vertices hold
/// partial instances at each extension hop.
///
/// # Errors
///
/// Propagates [`GraphError`] from neighbor queries.
pub fn walk_counts_per_level(
    graph: &HeteroGraph,
    metapath: &Metapath,
) -> Result<Vec<Vec<u128>>, GraphError> {
    let types = metapath.vertex_types();
    let mut levels = Vec::with_capacity(types.len());
    levels.push(vec![1u128; graph.vertex_count(types[0])? as usize]);
    for pair in types.windows(2) {
        let mut next = Vec::new();
        forward_hop(
            graph,
            pair[0],
            pair[1],
            &levels[levels.len() - 1],
            &mut next,
        )?;
        levels.push(next);
    }
    Ok(levels)
}

/// How a baseline HGNN model stores materialized instances, which
/// determines the intermediate-data bytes MetaNMP eliminates (Table 4's
/// per-model columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstanceStorage {
    /// Full vertex sequence per instance (MAGNN aggregates every vertex
    /// inside the instance): `4 × (L+1)` bytes per instance, plus one
    /// intermediate result vector per instance.
    FullPath,
    /// Only the endpoint pair per instance (HAN aggregates
    /// metapath-based neighbors): `8` bytes per instance, no
    /// per-instance intermediate vector.
    Endpoints,
    /// Prefix-tree (SHGNN builds explicit tree structures): `8` bytes
    /// per tree node plus one intermediate vector per tree node.
    PrefixTree,
}

/// Memory accounting for one (graph, metapath, storage model)
/// combination; all sizes in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceMemory {
    /// Bytes of instance topology (paths / endpoints / tree nodes).
    pub structure_bytes: u128,
    /// Bytes of per-instance (or per-node) intermediate feature vectors
    /// the baseline must keep live during structural aggregation.
    pub intermediate_bytes: u128,
    /// Number of instances counted.
    pub instance_count: u128,
}

impl InstanceMemory {
    /// Total intermediate bytes the baseline holds.
    pub fn total(&self) -> u128 {
        self.structure_bytes + self.intermediate_bytes
    }
}

/// Computes the baseline instance memory for a storage model, with
/// `hidden_dim` the projected feature dimension used for intermediate
/// vectors.
///
/// # Errors
///
/// Propagates [`GraphError`] from the instance counters.
pub fn instance_memory(
    graph: &HeteroGraph,
    metapath: &Metapath,
    storage: InstanceStorage,
    hidden_dim: usize,
) -> Result<InstanceMemory, GraphError> {
    let instances = count_instances(graph, metapath)?;
    let vec_bytes = 4u128 * hidden_dim as u128;
    let (structure, intermediate) = match storage {
        InstanceStorage::FullPath => (
            instances * 4 * metapath.vertex_count() as u128,
            instances * vec_bytes,
        ),
        InstanceStorage::Endpoints => (instances * 8, 0),
        InstanceStorage::PrefixTree => {
            let nodes = count_prefix_nodes(graph, metapath)?;
            (nodes * 8, nodes * vec_bytes)
        }
    };
    Ok(InstanceMemory {
        structure_bytes: structure,
        intermediate_bytes: intermediate,
        instance_count: instances,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HeteroGraphBuilder;
    use crate::schema::GraphSchema;
    use crate::types::VertexTypeId;

    /// The Figure 6(a) graph. A = {2,4,7} -> ids {0,1,2};
    /// B = {1,3,6} -> ids {0,1,2}. Edges per the figure give 14 A-B-A
    /// instances in total and 5 starting at vertex ② (A id 0).
    fn figure6() -> (HeteroGraph, Metapath) {
        let mut schema = GraphSchema::new();
        let a = schema.add_vertex_type("A", 'A', 4);
        let b = schema.add_vertex_type("B", 'B', 4);
        schema.add_relation(a, b);
        let mut builder = HeteroGraphBuilder::new(schema);
        builder.set_vertex_count(a, 3);
        builder.set_vertex_count(b, 3);
        let va = |i| Vertex::new(a, VertexId::new(i));
        let vb = |i| Vertex::new(b, VertexId::new(i));
        // ①: neighbors {②,④}; ③: neighbors {②,④,⑦}; ⑥: neighbors {⑦}.
        for (x, y) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)] {
            builder.add_edge(va(x), vb(y)).unwrap();
        }
        let g = builder.finish();
        let mp = Metapath::parse("ABA", g.schema()).unwrap();
        (g, mp)
    }

    #[test]
    fn figure6_total_instance_count_is_14() {
        let (g, mp) = figure6();
        assert_eq!(count_instances(&g, &mp).unwrap(), 14);
    }

    #[test]
    fn figure6_instances_from_vertex2_is_5() {
        let (g, mp) = figure6();
        let per_start = count_instances_per_start(&g, &mp).unwrap();
        assert_eq!(per_start[0], 5); // vertex ② = A id 0
        assert_eq!(per_start.iter().sum::<u128>(), 14);
    }

    #[test]
    fn enumeration_matches_count() {
        let (g, mp) = figure6();
        let e = enumerate_instances(&g, &mp, usize::MAX).unwrap();
        assert_eq!(e.len(), 14);
        assert!(!e.is_truncated());
        assert_eq!(e.stride(), 3);
        // Every instance respects adjacency.
        let a = g.schema().type_by_mnemonic('A').unwrap();
        let b = g.schema().type_by_mnemonic('B').unwrap();
        for inst in e.iter() {
            let left = Vertex::new(a, VertexId::new(inst[0]));
            let right = Vertex::new(a, VertexId::new(inst[2]));
            assert!(g.typed_neighbors(left, b).unwrap().contains(&inst[1]));
            assert!(g.typed_neighbors(right, b).unwrap().contains(&inst[1]));
        }
    }

    #[test]
    fn enumeration_respects_limit() {
        let (g, mp) = figure6();
        let e = enumerate_instances(&g, &mp, 3).unwrap();
        assert_eq!(e.len(), 3);
        assert!(e.is_truncated());
    }

    #[test]
    fn byte_size_is_stride_times_count_times_4() {
        let (g, mp) = figure6();
        let e = enumerate_instances(&g, &mp, usize::MAX).unwrap();
        assert_eq!(e.byte_size(), 14 * 3 * 4);
    }

    #[test]
    fn pair_dp_matches_the_separate_dps_on_every_preset_metapath() {
        use crate::datasets::{generate, DatasetId, GeneratorConfig};
        for id in DatasetId::ALL {
            let scale = if id.is_web_scale() { 0.002 } else { 0.1 };
            let ds = generate(id, GeneratorConfig::at_scale(scale));
            for mp in &ds.metapaths {
                let instances = count_instances_per_start(&ds.graph, mp).unwrap();
                let nodes = suffix_walk_counts(&ds.graph, mp.vertex_types(), 1).unwrap();
                let expected: Vec<(u128, u128)> = instances.into_iter().zip(nodes).collect();
                let pairs = count_instances_and_nodes_per_start(&ds.graph, mp).unwrap();
                assert_eq!(pairs, expected, "{id}-{}", mp.name());
            }
        }
    }

    #[test]
    fn prefix_nodes_less_than_naive_vertex_touches() {
        let (g, mp) = figure6();
        let nodes = count_prefix_nodes(&g, &mp).unwrap();
        let naive: u128 = count_instances(&g, &mp).unwrap() * mp.length() as u128;
        // Sharing must strictly reduce work on this graph.
        assert!(nodes < naive, "{nodes} >= {naive}");
    }

    #[test]
    fn storage_models_order_as_expected() {
        let (g, mp) = figure6();
        let full = instance_memory(&g, &mp, InstanceStorage::FullPath, 64).unwrap();
        let ends = instance_memory(&g, &mp, InstanceStorage::Endpoints, 64).unwrap();
        let tree = instance_memory(&g, &mp, InstanceStorage::PrefixTree, 64).unwrap();
        assert!(full.total() > ends.total());
        assert!(tree.total() > ends.total());
        assert_eq!(full.instance_count, 14);
    }

    #[test]
    fn unknown_type_propagates_error() {
        let (g, _) = figure6();
        // Build a metapath against a *different* schema with more types,
        // so validation inside the graph fails.
        let mut schema2 = GraphSchema::new();
        let a = schema2.add_vertex_type("A", 'A', 4);
        let b = schema2.add_vertex_type("B", 'B', 4);
        let c = schema2.add_vertex_type("C", 'C', 4);
        schema2.add_relation(a, b);
        schema2.add_relation(b, c);
        let mp = Metapath::parse("ABC", &schema2).unwrap();
        assert!(count_instances(&g, &mp).is_err());
    }

    #[test]
    fn empty_graph_has_zero_instances() {
        let mut schema = GraphSchema::new();
        let a = schema.add_vertex_type("A", 'A', 4);
        let b = schema.add_vertex_type("B", 'B', 4);
        schema.add_relation(a, b);
        let mut builder = HeteroGraphBuilder::new(schema);
        builder.set_vertex_count(a, 5);
        builder.set_vertex_count(b, 5);
        let g = builder.finish();
        let mp = Metapath::parse("ABA", g.schema()).unwrap();
        assert_eq!(count_instances(&g, &mp).unwrap(), 0);
        assert_eq!(enumerate_instances(&g, &mp, 10).unwrap().len(), 0);
    }

    #[test]
    fn type_ids_stable() {
        let (g, _) = figure6();
        assert_eq!(
            g.schema().type_by_mnemonic('A').unwrap(),
            VertexTypeId::new(0)
        );
    }
}
