//! The heterogeneous graph container with the paper's optimized layout.
//!
//! [`HeteroGraph`] keeps one CSR per *directed typed relation*
//! (§4.1): neighbors of different types are stored separately, so the
//! cartesian-like product reads a homogeneous neighbor slice directly
//! instead of filtering a mixed adjacency list per edge. Edges are
//! undirected at the model level; both directions are materialized.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::csr::{Csr, CsrBuilder};
use crate::error::GraphError;
use crate::schema::GraphSchema;
use crate::types::{Relation, Vertex, VertexId, VertexTypeId};

/// An immutable heterogeneous graph.
///
/// Construct one with [`HeteroGraphBuilder`]. All queries are `O(1)`
/// slice lookups thanks to the type-separated CSR layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeteroGraph {
    schema: GraphSchema,
    vertex_counts: Vec<u32>,
    /// Directed adjacency keyed by (source type, destination type).
    adjacency: BTreeMap<(VertexTypeId, VertexTypeId), Csr>,
    /// Undirected edge count per canonical relation.
    edge_counts: BTreeMap<Relation, usize>,
}

impl HeteroGraph {
    /// The schema this graph instantiates.
    pub fn schema(&self) -> &GraphSchema {
        &self.schema
    }

    /// Number of vertices of the given type.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownVertexType`] for undeclared types.
    pub fn vertex_count(&self, ty: VertexTypeId) -> Result<u32, GraphError> {
        self.vertex_counts
            .get(ty.index())
            .copied()
            .ok_or(GraphError::UnknownVertexType(ty))
    }

    /// Total number of vertices across all types.
    pub fn total_vertex_count(&self) -> u64 {
        self.vertex_counts.iter().map(|&c| c as u64).sum()
    }

    /// Total number of undirected edges across all relations.
    pub fn total_edge_count(&self) -> u64 {
        self.edge_counts.values().map(|&c| c as u64).sum()
    }

    /// Undirected edge count of one relation (0 if the relation carries
    /// no edges).
    pub fn edge_count(&self, rel: Relation) -> usize {
        self.edge_counts.get(&rel).copied().unwrap_or(0)
    }

    /// Neighbors of `v` having type `neighbor_ty`.
    ///
    /// This is the §4.1 fast path: one slice lookup, no type checks.
    /// Returns an empty slice when the relation carries no edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if `v.id` exceeds the
    /// vertex count of `v.ty`, and [`GraphError::UnknownVertexType`] for
    /// undeclared types.
    pub fn typed_neighbors(
        &self,
        v: Vertex,
        neighbor_ty: VertexTypeId,
    ) -> Result<&[u32], GraphError> {
        let count = self.vertex_count(v.ty)?;
        if v.id.raw() >= count {
            return Err(GraphError::VertexOutOfRange { vertex: v, count });
        }
        self.vertex_count(neighbor_ty)?;
        Ok(self
            .adjacency
            .get(&(v.ty, neighbor_ty))
            .map(|csr| csr.neighbors(v.id))
            .unwrap_or(&[]))
    }

    /// Degree of `v` restricted to neighbors of `neighbor_ty`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HeteroGraph::typed_neighbors`].
    pub fn typed_degree(&self, v: Vertex, neighbor_ty: VertexTypeId) -> Result<usize, GraphError> {
        Ok(self.typed_neighbors(v, neighbor_ty)?.len())
    }

    /// The directed CSR from `src` type to `dst` type, if any edges
    /// exist between them.
    pub fn relation_csr(&self, src: VertexTypeId, dst: VertexTypeId) -> Option<&Csr> {
        self.adjacency.get(&(src, dst))
    }

    /// Iterates over the vertices of one type.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownVertexType`] for undeclared types.
    pub fn vertices(
        &self,
        ty: VertexTypeId,
    ) -> Result<impl Iterator<Item = Vertex> + '_, GraphError> {
        let count = self.vertex_count(ty)?;
        Ok((0..count).map(move |i| Vertex::new(ty, VertexId::new(i))))
    }

    /// Bytes required to store the topology (all CSRs), the quantity the
    /// paper's Table 1 calls "graph data".
    pub fn topology_bytes(&self) -> usize {
        self.adjacency.values().map(Csr::byte_size).sum()
    }

    /// Bytes required to store raw vertex features (`f32` per dim), per
    /// the schema's declared feature dimensions.
    pub fn raw_feature_bytes(&self) -> usize {
        self.schema
            .vertex_types()
            .map(|(ty, decl)| self.vertex_counts[ty.index()] as usize * decl.feature_dim * 4)
            .sum()
    }

    /// Returns a [`HeteroGraphBuilder`] pre-populated with this graph's
    /// contents, for applying batch updates.
    pub fn to_builder(&self) -> HeteroGraphBuilder {
        let mut b = HeteroGraphBuilder::new(self.schema.clone());
        for (ty, _) in self.schema.vertex_types() {
            b.set_vertex_count(ty, self.vertex_counts[ty.index()]);
        }
        for (&(src, dst), csr) in &self.adjacency {
            // Add each undirected edge once (from the canonical
            // direction) to avoid duplication.
            let rel = Relation::new(src, dst);
            let canonical = src == rel.lo();
            if canonical {
                for (s, t) in csr.iter_edges() {
                    b.add_edge(Vertex::new(src, s), Vertex::new(dst, t))
                        .expect("edges of a valid graph remain valid");
                }
            }
        }
        b
    }
}

/// Builder for [`HeteroGraph`].
///
/// ```
/// use hetgraph::{GraphSchema, HeteroGraphBuilder, Vertex, VertexId};
/// let mut schema = GraphSchema::new();
/// let a = schema.add_vertex_type("Author", 'A', 8);
/// let p = schema.add_vertex_type("Paper", 'P', 8);
/// schema.add_relation(a, p);
///
/// let mut b = HeteroGraphBuilder::new(schema);
/// b.set_vertex_count(a, 2);
/// b.set_vertex_count(p, 1);
/// b.add_edge(Vertex::new(a, VertexId::new(0)), Vertex::new(p, VertexId::new(0)))?;
/// let g = b.finish();
/// assert_eq!(g.total_edge_count(), 1);
/// # Ok::<(), hetgraph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HeteroGraphBuilder {
    schema: GraphSchema,
    vertex_counts: Vec<u32>,
    /// Per relation, the local ids of each added edge's endpoints,
    /// oriented `(lo, hi)` by [`Relation`]; a self-relation keeps the
    /// order the edge was added in.
    edges: BTreeMap<Relation, Vec<(u32, u32)>>,
}

impl HeteroGraphBuilder {
    /// Creates an empty builder over a schema.
    pub fn new(schema: GraphSchema) -> Self {
        let n = schema.vertex_type_count();
        HeteroGraphBuilder {
            schema,
            vertex_counts: vec![0; n],
            edges: BTreeMap::new(),
        }
    }

    /// Sets the number of vertices of a type.
    ///
    /// # Panics
    ///
    /// Panics if the type is not declared in the schema.
    pub fn set_vertex_count(&mut self, ty: VertexTypeId, count: u32) -> &mut Self {
        assert!(
            ty.index() < self.vertex_counts.len(),
            "vertex type {ty} not declared in schema"
        );
        self.vertex_counts[ty.index()] = count;
        self
    }

    /// Adds an undirected edge between two vertices.
    ///
    /// Duplicate edges are tolerated and removed at [`finish`] time.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownRelation`] if the schema does not
    /// declare the relation, [`GraphError::VertexOutOfRange`] if an
    /// endpoint id exceeds its type's vertex count, or
    /// [`GraphError::SelfLoop`] if both endpoints are the same vertex.
    ///
    /// [`finish`]: HeteroGraphBuilder::finish
    pub fn add_edge(&mut self, a: Vertex, b: Vertex) -> Result<&mut Self, GraphError> {
        let rel = Relation::new(a.ty, b.ty);
        if !self.schema.has_relation(rel) {
            return Err(GraphError::UnknownRelation(rel));
        }
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        for v in [a, b] {
            let count = self
                .vertex_counts
                .get(v.ty.index())
                .copied()
                .ok_or(GraphError::UnknownVertexType(v.ty))?;
            if v.id.raw() >= count {
                return Err(GraphError::VertexOutOfRange { vertex: v, count });
            }
        }
        let (l, h) = if a.ty == rel.lo() { (a, b) } else { (b, a) };
        self.edges
            .entry(rel)
            .or_default()
            .push((l.id.raw(), h.id.raw()));
        Ok(self)
    }

    /// Number of undirected edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }

    /// Finalizes the graph, materializing both CSR directions of every
    /// relation.
    ///
    /// Duplicate edges are removed; the reported edge counts reflect
    /// the deduplicated simple graph.
    pub fn finish(self) -> HeteroGraph {
        let mut adjacency: BTreeMap<(VertexTypeId, VertexTypeId), Csr> = BTreeMap::new();
        let mut edge_counts = BTreeMap::new();
        for (rel, mut pairs) in self.edges {
            let (lo, hi) = (rel.lo(), rel.hi());
            let count = |ty: VertexTypeId| self.vertex_counts[ty.index()] as usize;
            if lo == hi {
                // Self-relation (e.g. Paper-Paper): one CSR with both
                // directions folded in. Self-loops were rejected at
                // insertion, so every edge contributes two entries.
                pairs.extend_from_within(..);
                let added = pairs.len() / 2;
                for pair in &mut pairs[added..] {
                    *pair = (pair.1, pair.0);
                }
                let csr = CsrBuilder::with_edges(count(lo), pairs).finish();
                edge_counts.insert(rel, csr.edge_count() / 2);
                adjacency.insert((lo, lo), csr);
            } else {
                // The reverse direction is the transpose of the
                // deduplicated forward CSR, which needs no sort.
                let fwd = CsrBuilder::with_edges(count(lo), pairs).finish();
                edge_counts.insert(rel, fwd.edge_count());
                adjacency.insert((hi, lo), fwd.transpose(count(hi)));
                adjacency.insert((lo, hi), fwd);
            }
        }
        HeteroGraph {
            schema: self.schema,
            vertex_counts: self.vertex_counts,
            adjacency,
            edge_counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HeteroGraph {
        // The Figure 6(a) example: types A, B; A-B edges.
        // A vertices: 2, 4, 7 -> local ids 0, 1, 2
        // B vertices: 1, 3, 6 -> local ids 0, 1, 2
        // Edges: 2-1, 2-3, 4-1, 4-3, 7-3, 7-6 (from the figure).
        let mut schema = GraphSchema::new();
        let a = schema.add_vertex_type("A", 'A', 4);
        let b = schema.add_vertex_type("B", 'B', 4);
        schema.add_relation(a, b);
        let mut builder = HeteroGraphBuilder::new(schema);
        builder.set_vertex_count(a, 3);
        builder.set_vertex_count(b, 3);
        let va = |i| Vertex::new(a, VertexId::new(i));
        let vb = |i| Vertex::new(b, VertexId::new(i));
        for (x, y) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2)] {
            builder.add_edge(va(x), vb(y)).unwrap();
        }
        builder.finish()
    }

    #[test]
    fn counts() {
        let g = tiny();
        assert_eq!(g.total_vertex_count(), 6);
        assert_eq!(g.total_edge_count(), 6);
    }

    #[test]
    fn typed_neighbors_both_directions() {
        let g = tiny();
        let a = g.schema().type_by_mnemonic('A').unwrap();
        let b = g.schema().type_by_mnemonic('B').unwrap();
        // B vertex 1 (paper's vertex 3) has A-neighbors {0, 1, 2}.
        assert_eq!(
            g.typed_neighbors(Vertex::new(b, VertexId::new(1)), a)
                .unwrap(),
            &[0, 1, 2]
        );
        // A vertex 0 (paper's vertex 2) has B-neighbors {0, 1}.
        assert_eq!(
            g.typed_neighbors(Vertex::new(a, VertexId::new(0)), b)
                .unwrap(),
            &[0, 1]
        );
    }

    #[test]
    fn missing_relation_yields_empty_slice() {
        let g = tiny();
        let a = g.schema().type_by_mnemonic('A').unwrap();
        // A-A has no declared edges: neighbor query is an error only if
        // the type is unknown; empty otherwise. A-A is undeclared but
        // both types exist, so the slice is empty.
        assert_eq!(
            g.typed_neighbors(Vertex::new(a, VertexId::new(0)), a)
                .unwrap(),
            &[] as &[u32]
        );
    }

    #[test]
    fn out_of_range_vertex_is_error() {
        let g = tiny();
        let a = g.schema().type_by_mnemonic('A').unwrap();
        let b = g.schema().type_by_mnemonic('B').unwrap();
        let err = g
            .typed_neighbors(Vertex::new(a, VertexId::new(99)), b)
            .unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
    }

    #[test]
    fn builder_rejects_undeclared_relation() {
        let mut schema = GraphSchema::new();
        let a = schema.add_vertex_type("A", 'A', 4);
        let b = schema.add_vertex_type("B", 'B', 4);
        // No relation declared.
        let mut builder = HeteroGraphBuilder::new(schema);
        builder.set_vertex_count(a, 1);
        builder.set_vertex_count(b, 1);
        let err = builder
            .add_edge(
                Vertex::new(a, VertexId::new(0)),
                Vertex::new(b, VertexId::new(0)),
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::UnknownRelation(_)));
    }

    #[test]
    fn self_relation_roundtrip() {
        let mut schema = GraphSchema::new();
        let p = schema.add_vertex_type("Paper", 'P', 4);
        schema.add_relation(p, p);
        let mut builder = HeteroGraphBuilder::new(schema);
        builder.set_vertex_count(p, 3);
        builder
            .add_edge(
                Vertex::new(p, VertexId::new(0)),
                Vertex::new(p, VertexId::new(2)),
            )
            .unwrap();
        let g = builder.finish();
        assert_eq!(
            g.typed_neighbors(Vertex::new(p, VertexId::new(0)), p)
                .unwrap(),
            &[2]
        );
        assert_eq!(
            g.typed_neighbors(Vertex::new(p, VertexId::new(2)), p)
                .unwrap(),
            &[0]
        );
    }

    #[test]
    fn to_builder_roundtrip_preserves_counts() {
        let g = tiny();
        let g2 = g.to_builder().finish();
        assert_eq!(g2.total_vertex_count(), g.total_vertex_count());
        assert_eq!(g2.total_edge_count(), g.total_edge_count());
        let a = g.schema().type_by_mnemonic('A').unwrap();
        let b = g.schema().type_by_mnemonic('B').unwrap();
        for i in 0..3 {
            assert_eq!(
                g2.typed_neighbors(Vertex::new(b, VertexId::new(i)), a)
                    .unwrap(),
                g.typed_neighbors(Vertex::new(b, VertexId::new(i)), a)
                    .unwrap()
            );
        }
    }

    #[test]
    fn topology_bytes_positive() {
        let g = tiny();
        assert!(g.topology_bytes() > 0);
        assert!(g.raw_feature_bytes() > 0);
    }
}
