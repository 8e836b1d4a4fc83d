//! On-the-fly metapath instance generation via cartesian-like products
//! (§3.1) and the dependency walk that exposes shareable aggregation
//! (§3.2).
//!
//! The key observation of the paper: all instances of `V1-V2-V3` are, per
//! center vertex `c` of type `V2`, the cartesian-like product
//! `N_V1(c) × {c} × N_V3(c)` over `c`'s type-separated neighbor lists.
//! Longer metapaths decompose into a first ternary product followed by
//! one extension step per additional hop ([`product_plan`]). Because the
//! product enumerates instances grouped by shared prefix, the aggregate
//! of a prefix can be computed once and reused by every instance that
//! extends it — the basis of the RCEU and of the software reuse engine.

use serde::{Deserialize, Serialize};

use crate::error::GraphError;
use crate::graph::HeteroGraph;
use crate::metapath::Metapath;
use crate::types::{Vertex, VertexId, VertexTypeId};

/// One step of the cartesian-like decomposition of a metapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProductStep {
    /// The initial ternary product `N_left(c) × {c} × N_right(c)` over
    /// centers `c` of `center` type. Covers the first two hops.
    Ternary {
        /// Type of the left operand set.
        left: VertexTypeId,
        /// Type of the center (fixed) vertex.
        center: VertexTypeId,
        /// Type of the right operand set.
        right: VertexTypeId,
    },
    /// An extension step: partial instances ending at a vertex of
    /// `at` type are crossed with that vertex's neighbors of `with`
    /// type. Covers one additional hop.
    Extend {
        /// Endpoint type of the partial instances.
        at: VertexTypeId,
        /// Neighbor type the product extends with.
        with: VertexTypeId,
    },
    /// Degenerate single-hop metapath (`L == 1`): plain edge iteration.
    Edges {
        /// Source type.
        src: VertexTypeId,
        /// Destination type.
        dst: VertexTypeId,
    },
}

/// Decomposes a metapath into cartesian-like product steps (§3.1).
///
/// A metapath with `L` hops yields one [`ProductStep::Ternary`] followed
/// by `L - 2` [`ProductStep::Extend`] steps (or a single
/// [`ProductStep::Edges`] when `L == 1`).
///
/// ```
/// use hetgraph::{GraphSchema, Metapath};
/// use hetgraph::cartesian::{product_plan, ProductStep};
/// let mut s = GraphSchema::new();
/// let a = s.add_vertex_type("Author", 'A', 8);
/// let p = s.add_vertex_type("Paper", 'P', 8);
/// let c = s.add_vertex_type("Conf", 'C', 8);
/// s.add_relation(a, p);
/// s.add_relation(p, c);
/// let mp = Metapath::parse("APCPA", &s)?;
/// let plan = product_plan(&mp);
/// assert_eq!(plan.len(), 3); // ternary + 2 extensions
/// assert!(matches!(plan[0], ProductStep::Ternary { .. }));
/// # Ok::<(), hetgraph::GraphError>(())
/// ```
pub fn product_plan(metapath: &Metapath) -> Vec<ProductStep> {
    let t = metapath.vertex_types();
    if t.len() == 2 {
        return vec![ProductStep::Edges {
            src: t[0],
            dst: t[1],
        }];
    }
    let mut plan = vec![ProductStep::Ternary {
        left: t[0],
        center: t[1],
        right: t[2],
    }];
    for i in 2..t.len() - 1 {
        plan.push(ProductStep::Extend {
            at: t[i],
            with: t[i + 1],
        });
    }
    plan
}

/// A ternary product instance source for one center vertex: the CarPU's
/// unit of work (type-1 queue × type-2 register × type-3 queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CenterProduct<'g> {
    /// Local id of the center (type-2) vertex.
    pub center: u32,
    /// The center's neighbors of the metapath's first type.
    pub left: &'g [u32],
    /// The center's neighbors of the metapath's third type.
    pub right: &'g [u32],
}

impl CenterProduct<'_> {
    /// Number of instances this product generates.
    pub fn instance_count(&self) -> usize {
        self.left.len() * self.right.len()
    }
}

/// Iterates the ternary products of the *first* decomposition step of a
/// metapath with at least two hops, one per center vertex.
///
/// # Errors
///
/// Returns [`GraphError::MetapathTooShort`] if the metapath has fewer
/// than three vertex types, and propagates neighbor-query errors.
pub fn center_products<'g>(
    graph: &'g HeteroGraph,
    metapath: &Metapath,
) -> Result<Vec<CenterProduct<'g>>, GraphError> {
    let t = metapath.vertex_types();
    if t.len() < 3 {
        return Err(GraphError::MetapathTooShort(t.len()));
    }
    let (left_ty, center_ty, right_ty) = (t[0], t[1], t[2]);
    let center_count = graph.vertex_count(center_ty)?;
    let mut out = Vec::with_capacity(center_count as usize);
    for c in 0..center_count {
        let v = Vertex::new(center_ty, VertexId::new(c));
        let left = graph.typed_neighbors(v, left_ty)?;
        let right = graph.typed_neighbors(v, right_ty)?;
        if !left.is_empty() && !right.is_empty() {
            out.push(CenterProduct {
                center: c,
                left,
                right,
            });
        }
    }
    Ok(out)
}

/// Streaming generator of metapath instances.
///
/// Yields every instance exactly once, grouped by shared prefix (depth-
/// first order), without ever materializing the instance list. This is
/// the software realization of generating instances "on the fly".
///
/// Use [`InstanceStream::next_into`] to avoid per-instance allocation,
/// or the [`Iterator`] impl for convenience.
#[derive(Debug)]
pub struct InstanceStream<'g> {
    graph: &'g HeteroGraph,
    types: Vec<VertexTypeId>,
    start_cursor: u32,
    start_count: u32,
    stack: Vec<u32>,
    cursors: Vec<usize>,
}

impl<'g> InstanceStream<'g> {
    /// Creates a stream over all instances of `metapath` in `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the metapath's start type is unknown to
    /// the graph.
    pub fn new(graph: &'g HeteroGraph, metapath: &Metapath) -> Result<Self, GraphError> {
        let start_count = graph.vertex_count(metapath.start_type())?;
        Ok(InstanceStream {
            graph,
            types: metapath.vertex_types().to_vec(),
            start_cursor: 0,
            start_count,
            stack: Vec::new(),
            cursors: Vec::new(),
        })
    }

    /// Advances to the next instance, writing it into `buf`.
    ///
    /// Returns `false` when the stream is exhausted. `buf` is cleared
    /// and refilled on success.
    pub fn next_into(&mut self, buf: &mut Vec<u32>) -> bool {
        let stride = self.types.len();
        loop {
            if self.stack.is_empty() {
                if self.start_cursor >= self.start_count {
                    return false;
                }
                self.stack.push(self.start_cursor);
                self.cursors.push(0);
                self.start_cursor += 1;
            }
            let depth = self.stack.len() - 1;
            if depth + 1 == stride {
                buf.clear();
                buf.extend_from_slice(&self.stack);
                self.stack.pop();
                self.cursors.pop();
                return true;
            }
            let v = Vertex::new(
                self.types[depth],
                VertexId::new(*self.stack.last().expect("stack non-empty")),
            );
            let neighbors = self
                .graph
                .typed_neighbors(v, self.types[depth + 1])
                .expect("types validated at construction");
            let cursor = self.cursors.last_mut().expect("cursor stack in sync");
            if *cursor < neighbors.len() {
                let next = neighbors[*cursor];
                *cursor += 1;
                self.stack.push(next);
                self.cursors.push(0);
            } else {
                self.stack.pop();
                self.cursors.pop();
            }
        }
    }
}

impl Iterator for InstanceStream<'_> {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut buf = Vec::new();
        if self.next_into(&mut buf) {
            Some(buf)
        } else {
            None
        }
    }
}

/// Events emitted by [`walk_prefix_tree`].
///
/// `Enter(d, v)` means the walk extended the current prefix with vertex
/// `v` at depth `d`; the reuse-aware dataflow performs exactly one
/// aggregation per `Enter` with `d ≥ 1`. `Leaf` fires when the prefix is
/// a complete instance (after its `Enter`). `Exit(d)` unwinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkEvent {
    /// The prefix grew to depth `.0` by appending local vertex `.1`.
    Enter(usize, u32),
    /// The current prefix is a complete metapath instance.
    Leaf,
    /// The prefix shrank back past depth `.0`.
    Exit(usize),
}

/// Walks the dependency (prefix) tree of all instances dispersing from
/// one start vertex, invoking `visit` for every event.
///
/// This is the §3.2 dataflow: aggregation proceeds along the direction
/// the instances disperse from the start vertex, so a shared prefix is
/// aggregated once (`Enter`) and reused by every completion (`Leaf`)
/// beneath it.
///
/// # Errors
///
/// Propagates [`GraphError`] from neighbor queries.
pub fn walk_prefix_tree<F>(
    graph: &HeteroGraph,
    metapath: &Metapath,
    start: VertexId,
    mut visit: F,
) -> Result<(), GraphError>
where
    F: FnMut(WalkEvent),
{
    let types = metapath.vertex_types();
    let last = types.len() - 1;
    // Validate the start vertex eagerly.
    let count = graph.vertex_count(types[0])?;
    if start.raw() >= count {
        return Err(GraphError::VertexOutOfRange {
            vertex: Vertex::new(types[0], start),
            count,
        });
    }

    fn recurse<F: FnMut(WalkEvent)>(
        graph: &HeteroGraph,
        types: &[VertexTypeId],
        last: usize,
        depth: usize,
        vertex: u32,
        visit: &mut F,
    ) -> Result<(), GraphError> {
        visit(WalkEvent::Enter(depth, vertex));
        if depth == last {
            visit(WalkEvent::Leaf);
        } else {
            let v = Vertex::new(types[depth], VertexId::new(vertex));
            for &n in graph.typed_neighbors(v, types[depth + 1])? {
                recurse(graph, types, last, depth + 1, n, visit)?;
            }
        }
        visit(WalkEvent::Exit(depth));
        Ok(())
    }

    recurse(graph, types, last, 0, start.raw(), &mut visit)
}

/// Aggregation-work statistics of one metapath on one graph, comparing
/// the naive per-instance dataflow to the reuse-aware dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseStats {
    /// Vector-aggregation operations the naive dataflow performs: `L`
    /// per instance (combining `L+1` vertex features).
    pub naive_aggregations: u128,
    /// Vector-aggregation operations the reuse dataflow performs: one
    /// per prefix-tree node of depth ≥ 1.
    pub shared_aggregations: u128,
    /// Total number of instances.
    pub instances: u128,
}

impl ReuseStats {
    /// Fraction of naive aggregations that are redundant (Figure 5).
    pub fn redundancy_ratio(&self) -> f64 {
        if self.naive_aggregations == 0 {
            0.0
        } else {
            1.0 - (self.shared_aggregations as f64 / self.naive_aggregations as f64)
        }
    }
}

/// Computes [`ReuseStats`] in closed form (no enumeration).
///
/// # Errors
///
/// Propagates [`GraphError`] from the DP counters.
pub fn reuse_stats(graph: &HeteroGraph, metapath: &Metapath) -> Result<ReuseStats, GraphError> {
    let instances = crate::instances::count_instances(graph, metapath)?;
    let shared = crate::instances::count_prefix_nodes(graph, metapath)?;
    Ok(ReuseStats {
        naive_aggregations: instances * metapath.length() as u128,
        shared_aggregations: shared,
        instances,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HeteroGraphBuilder;
    use crate::instances::{count_instances, enumerate_instances};
    use crate::schema::GraphSchema;

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
        for (x, y) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)] {
            builder.add_edge(va(x), vb(y)).unwrap();
        }
        let g = builder.finish();
        let mp = Metapath::parse("ABA", g.schema()).unwrap();
        (g, mp)
    }

    #[test]
    fn stream_matches_enumeration() {
        let (g, mp) = figure6();
        let materialized = enumerate_instances(&g, &mp, usize::MAX).unwrap();
        let streamed: Vec<Vec<u32>> = InstanceStream::new(&g, &mp).unwrap().collect();
        assert_eq!(streamed.len(), materialized.len());
        for (s, m) in streamed.iter().zip(materialized.iter()) {
            assert_eq!(s.as_slice(), m);
        }
    }

    #[test]
    fn stream_next_into_reuses_buffer() {
        let (g, mp) = figure6();
        let mut stream = InstanceStream::new(&g, &mp).unwrap();
        let mut buf = Vec::new();
        let mut n = 0;
        while stream.next_into(&mut buf) {
            assert_eq!(buf.len(), 3);
            n += 1;
        }
        assert_eq!(n, 14);
    }

    #[test]
    fn center_products_cover_all_instances() {
        let (g, mp) = figure6();
        let products = center_products(&g, &mp).unwrap();
        let total: usize = products.iter().map(CenterProduct::instance_count).sum();
        assert_eq!(total as u128, count_instances(&g, &mp).unwrap());
        // Vertex ③ (B id 1) has 3 A-neighbors: product is 3 × 3 = 9.
        let p3 = products.iter().find(|p| p.center == 1).unwrap();
        assert_eq!(p3.instance_count(), 9);
    }

    #[test]
    fn product_plan_shapes() {
        let mut s = GraphSchema::new();
        let a = s.add_vertex_type("Author", 'A', 8);
        let p = s.add_vertex_type("Paper", 'P', 8);
        let c = s.add_vertex_type("Conf", 'C', 8);
        s.add_relation(a, p);
        s.add_relation(p, c);
        let apa = Metapath::parse("APA", &s).unwrap();
        assert_eq!(product_plan(&apa).len(), 1);
        let apcpa = Metapath::parse("APCPA", &s).unwrap();
        let plan = product_plan(&apcpa);
        assert_eq!(plan.len(), 3);
        assert!(matches!(plan[1], ProductStep::Extend { .. }));
        let ap = Metapath::parse("AP", &s).unwrap();
        assert!(matches!(product_plan(&ap)[0], ProductStep::Edges { .. }));
    }

    #[test]
    fn walk_counts_match_closed_form() {
        let (g, mp) = figure6();
        let mut enters_deep = 0u128; // depth >= 1
        let mut leaves = 0u128;
        for s in 0..3 {
            walk_prefix_tree(&g, &mp, VertexId::new(s), |e| match e {
                WalkEvent::Enter(d, _) if d >= 1 => enters_deep += 1,
                WalkEvent::Leaf => leaves += 1,
                _ => {}
            })
            .unwrap();
        }
        let stats = reuse_stats(&g, &mp).unwrap();
        assert_eq!(leaves, stats.instances);
        assert_eq!(enters_deep, stats.shared_aggregations);
    }

    #[test]
    fn reuse_saves_work_on_figure6() {
        let (g, mp) = figure6();
        let stats = reuse_stats(&g, &mp).unwrap();
        assert_eq!(stats.instances, 14);
        assert_eq!(stats.naive_aggregations, 28);
        // Prefix nodes: depth-1 nodes = #A-B edges as walks = 6;
        // depth-2 nodes = 14 completions. Shared = 20 < 28.
        assert_eq!(stats.shared_aggregations, 20);
        let ratio = stats.redundancy_ratio();
        assert!(ratio > 0.28 && ratio < 0.29, "ratio = {ratio}");
    }

    #[test]
    fn walk_rejects_out_of_range_start() {
        let (g, mp) = figure6();
        let err = walk_prefix_tree(&g, &mp, VertexId::new(99), |_| {}).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
    }

    #[test]
    fn events_are_balanced() {
        let (g, mp) = figure6();
        let mut depth_track: i64 = 0;
        walk_prefix_tree(&g, &mp, VertexId::new(0), |e| match e {
            WalkEvent::Enter(..) => depth_track += 1,
            WalkEvent::Exit(..) => depth_track -= 1,
            WalkEvent::Leaf => {}
        })
        .unwrap();
        assert_eq!(depth_track, 0);
    }
}
