//! Compressed sparse row adjacency used for every typed relation.
//!
//! The paper's *optimized graph layout* (§4.1) stores a vertex's
//! neighbors of different types separately so the cartesian-like product
//! can read a type-homogeneous neighbor list without per-edge type
//! checks. We realize that layout by keeping one [`Csr`] per *directed
//! typed relation*: the CSR for (Paper → Author) lists, for every paper,
//! exactly its author neighbors.

use serde::{Deserialize, Serialize};

use crate::types::VertexId;

/// Immutable CSR adjacency from one vertex type to another.
///
/// Row `i` holds the sorted neighbor list of source vertex `i`. The
/// structure is append-only at build time (see [`CsrBuilder`]) and
/// immutable afterwards.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from an edge list over `src_count` source vertices.
    ///
    /// Duplicate edges are removed (the layout stores simple graphs);
    /// neighbor lists are sorted for deterministic iteration.
    pub fn from_edges(src_count: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut builder = CsrBuilder::new(src_count);
        for &(s, t) in edges {
            builder.push(s, t);
        }
        builder.finish()
    }

    /// Number of source vertices (rows).
    pub fn source_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of stored edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Neighbor list of source vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range; callers validate ids at the graph
    /// boundary.
    pub fn neighbors(&self, v: VertexId) -> &[u32] {
        let i = v.index();
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of source vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Iterates the neighbor lists of all source vertices in order.
    pub(crate) fn rows(
        &self,
    ) -> impl DoubleEndedIterator<Item = &[u32]> + ExactSizeIterator + Clone + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.targets[w[0] as usize..w[1] as usize])
    }

    /// Iterates all `(source, target)` pairs in row order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.rows().enumerate().flat_map(|(s, row)| {
            let sv = VertexId::new(s as u32);
            row.iter().map(move |&t| (sv, VertexId::new(t)))
        })
    }

    /// The reverse adjacency over `dst_count` target vertices: row `t`
    /// lists every source with an edge to `t`.
    ///
    /// Scanning sources in order already yields sorted rows, so this is
    /// one counting pass and one scatter, with no comparison sort (the
    /// scan runs from the last source down because [`bucket`] fills rows
    /// from the back). Rows of `self` are duplicate-free, hence so are
    /// the reverse rows.
    ///
    /// # Panics
    ///
    /// Panics if a target is not below `dst_count`.
    pub(crate) fn transpose(&self, dst_count: usize) -> Csr {
        let pairs = self
            .rows()
            .enumerate()
            .rev()
            .flat_map(|(s, row)| row.iter().map(move |&t| (t, s as u32)));
        let csr = bucket(dst_count, self.targets.len(), pairs);
        debug_assert!(csr.validate());
        csr
    }

    /// Bytes needed to store this CSR (offsets plus targets, 4 bytes
    /// each), used by the memory-footprint analysis of Table 1.
    pub fn byte_size(&self) -> usize {
        (self.offsets.len() + self.targets.len()) * std::mem::size_of::<u32>()
    }

    /// Checks structural invariants; used by tests and debug assertions.
    ///
    /// Invariants: offsets are monotonically non-decreasing, the final
    /// offset equals the target count, and every neighbor list is
    /// sorted.
    pub fn validate(&self) -> bool {
        let Some(&last) = self.offsets.last() else {
            return self.targets.is_empty();
        };
        if last as usize != self.targets.len() {
            return false;
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        self.rows().all(|row| row.windows(2).all(|w| w[0] <= w[1]))
    }
}

/// Counting sort of `len` `(row, value)` pairs into a CSR with `rows`
/// rows. Each row receives its values in *reverse* input order, since
/// rows fill from the back; `pairs` is walked twice, once to size the
/// rows and once to place the values.
///
/// # Panics
///
/// Panics if `len` exceeds the `u32` offset range or a row index is not
/// below `rows`.
fn bucket(rows: usize, len: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Csr {
    let total = u32::try_from(len).expect("a CSR holds at most u32::MAX edges");
    // `ends[r]` becomes the end of row `r`, then is walked back to its
    // start while the row is filled from the back.
    let mut ends = vec![0u32; rows + 1];
    for (r, _) in pairs.clone() {
        ends[r as usize] += 1;
    }
    let mut sum = 0;
    for end in &mut ends[..rows] {
        sum += *end;
        *end = sum;
    }
    ends[rows] = total;
    let mut values = vec![0u32; len];
    for (r, v) in pairs {
        let end = &mut ends[r as usize];
        *end -= 1;
        values[*end as usize] = v;
    }
    Csr {
        offsets: ends,
        targets: values,
    }
}

/// Incremental builder for [`Csr`].
///
/// ```
/// use hetgraph::csr::CsrBuilder;
/// use hetgraph::VertexId;
/// let mut b = CsrBuilder::new(2);
/// b.push(VertexId::new(0), VertexId::new(9));
/// b.push(VertexId::new(0), VertexId::new(3));
/// let csr = b.finish();
/// assert_eq!(csr.neighbors(VertexId::new(0)), &[3, 9]);
/// assert_eq!(csr.degree(VertexId::new(1)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CsrBuilder {
    src_count: usize,
    edges: Vec<(u32, u32)>,
}

impl CsrBuilder {
    /// Creates a builder for `src_count` source vertices.
    pub fn new(src_count: usize) -> Self {
        CsrBuilder {
            src_count,
            edges: Vec::new(),
        }
    }

    /// Creates a builder over `(source, target)` pairs collected
    /// elsewhere. A source not below `src_count` panics in [`finish`].
    ///
    /// [`finish`]: CsrBuilder::finish
    pub(crate) fn with_edges(src_count: usize, edges: Vec<(u32, u32)>) -> Self {
        CsrBuilder { src_count, edges }
    }

    /// Appends an edge.
    ///
    /// # Panics
    ///
    /// Panics if the source vertex is out of range.
    pub fn push(&mut self, src: VertexId, dst: VertexId) {
        assert!(
            src.index() < self.src_count,
            "source vertex {src} out of range ({} sources)",
            self.src_count
        );
        self.edges.push((src.raw(), dst.raw()));
    }

    /// Number of edges accumulated so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the CSR, sorting and deduplicating each neighbor list.
    ///
    /// Edges are bucketed by source with a counting sort, then each
    /// (short) row is sorted and deduplicated in place, so the cost is
    /// linear in the edges plus one small sort per row.
    pub fn finish(self) -> Csr {
        let pairs = self.edges.iter().copied();
        let Csr {
            mut offsets,
            mut targets,
        } = bucket(self.src_count, self.edges.len(), pairs);
        drop(self.edges);
        let mut kept = 0;
        let mut lo = 0;
        for s in 0..self.src_count {
            let hi = offsets[s + 1] as usize;
            let row = &mut targets[lo..hi];
            row.sort_unstable();
            offsets[s] = kept as u32;
            let mut last = None;
            for i in lo..hi {
                let t = targets[i];
                if last != Some(t) {
                    targets[kept] = t;
                    kept += 1;
                    last = Some(t);
                }
            }
            lo = hi;
        }
        offsets[self.src_count] = kept as u32;
        targets.truncate(kept);
        let csr = Csr { offsets, targets };
        debug_assert!(csr.validate());
        csr
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    /// Builds a CSR the straightforward way: sort every pair, dedup,
    /// then cut the target column at each source's boundary.
    fn sorted_reference(src_count: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut pairs = pairs.to_vec();
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u32; src_count + 1];
        for &(s, _) in &pairs {
            offsets[s as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        Csr {
            offsets,
            targets: pairs.into_iter().map(|(_, t)| t).collect(),
        }
    }

    /// Seeded random edge lists: repeated edges, sources with no edge,
    /// and pushes in no particular order. With `symmetric`, every edge
    /// is pushed in both directions over one id space, as a
    /// self-relation is.
    fn random_pairs(
        seed: u64,
        src_count: u32,
        dst_count: u32,
        edges: usize,
        symmetric: bool,
    ) -> Vec<(u32, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = Vec::new();
        for _ in 0..edges {
            // Squaring the draw skews it toward low ids, so hubs repeat
            // edges and high ids are often left without any.
            let s = (rng.gen_range(0.0..1.0f64).powi(2) * src_count as f64) as u32;
            let t = rng.gen_range(0..dst_count);
            pairs.push((s, t));
            if symmetric {
                pairs.push((t, s));
            }
        }
        pairs
    }

    fn build(src_count: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut b = CsrBuilder::new(src_count);
        for &(s, t) in pairs {
            b.push(v(s), v(t));
        }
        b.finish()
    }

    #[test]
    fn finish_matches_sort_and_dedup_reference() {
        for seed in 0..16u64 {
            let (src, dst) = (1 + seed as u32 * 7, 1 + seed as u32 * 5);
            let edges = seed as usize * 40;
            let pairs = random_pairs(seed, src, dst, edges, false);
            let csr = build(src as usize, &pairs);
            assert!(csr.validate());
            assert_eq!(csr, sorted_reference(src as usize, &pairs), "seed {seed}");
            assert!(
                pairs.is_empty() || csr.edge_count() < pairs.len(),
                "seed {seed}: the list should repeat edges"
            );
            let symmetric = random_pairs(seed, src, src, edges, true);
            assert_eq!(
                build(src as usize, &symmetric),
                sorted_reference(src as usize, &symmetric),
                "seed {seed}, symmetric"
            );
        }
    }

    #[test]
    fn transpose_matches_the_sorted_reverse_and_round_trips() {
        for seed in 0..16u64 {
            let (src, dst) = (1 + seed as u32 * 3, 1 + seed as u32 * 11);
            let pairs = random_pairs(seed, src, dst, seed as usize * 60, false);
            let fwd = build(src as usize, &pairs);
            let reversed: Vec<(u32, u32)> = pairs.iter().map(|&(s, t)| (t, s)).collect();
            let rev = fwd.transpose(dst as usize);
            assert!(rev.validate());
            assert_eq!(
                rev,
                sorted_reference(dst as usize, &reversed),
                "seed {seed}"
            );
            assert_eq!(rev.transpose(src as usize), fwd, "seed {seed}");
        }
    }

    #[test]
    fn empty_csr() {
        let csr = Csr::from_edges(0, &[]);
        assert_eq!(csr.source_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert!(csr.validate());
    }

    #[test]
    fn neighbors_are_sorted() {
        let csr = Csr::from_edges(3, &[(v(1), v(7)), (v(1), v(2)), (v(0), v(5))]);
        assert_eq!(csr.neighbors(v(1)), &[2, 7]);
        assert_eq!(csr.neighbors(v(0)), &[5]);
        assert_eq!(csr.neighbors(v(2)), &[] as &[u32]);
    }

    #[test]
    fn duplicate_edges_are_removed() {
        let csr = Csr::from_edges(1, &[(v(0), v(1)), (v(0), v(1))]);
        assert_eq!(csr.neighbors(v(0)), &[1]);
        assert_eq!(csr.edge_count(), 1);
    }

    #[test]
    fn iter_edges_roundtrip() {
        let edges = vec![(v(0), v(1)), (v(2), v(0)), (v(2), v(3))];
        let csr = Csr::from_edges(3, &edges);
        let mut collected: Vec<_> = csr.iter_edges().collect();
        collected.sort_unstable();
        let mut expected = edges;
        expected.sort_unstable();
        assert_eq!(collected, expected);
    }

    #[test]
    fn byte_size_counts_offsets_and_targets() {
        let csr = Csr::from_edges(2, &[(v(0), v(1))]);
        // 3 offsets + 1 target = 4 u32s.
        assert_eq!(csr.byte_size(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range_source() {
        let mut b = CsrBuilder::new(1);
        b.push(v(1), v(0));
    }

    #[test]
    fn degrees() {
        let csr = Csr::from_edges(2, &[(v(0), v(1)), (v(0), v(2)), (v(1), v(0))]);
        assert_eq!(csr.degree(v(0)), 2);
        assert_eq!(csr.degree(v(1)), 1);
    }
}
