//! Register- and cache-blocked linear-algebra kernels in portable,
//! safe Rust.
//!
//! Every dense hot path in the workspace — projection GEMVs, the
//! rank-AU aggregation loops, semantic combination — funnels through
//! this module, so each reduction order is written down exactly once:
//!
//! * Element-wise kernels ([`add`], [`axpy`], [`scale`]) compute each
//!   output element independently with a separate multiply and add
//!   (never a fused multiply-add; Rust does not contract them).
//! * [`gemv`] accumulates output element `j` as `x[i] * w[i][j]` over
//!   inputs `i` in ascending order, skipping `x[i] == 0`. Its speed
//!   comes from register blocking across the output dimension: 32-wide,
//!   then 8-wide column panels keep their partial sums in fixed-size
//!   arrays across the whole input loop, so the compiler holds them in
//!   vector registers and `out` is loaded and stored once per panel
//!   instead of once per input row. The panel width decides only which
//!   elements share registers, never the order of additions within
//!   one, so the result is bit-identical to the plain row-sweep loop.
//! * [`dot`] reduces through one **canonical fixed-stride 8-lane
//!   accumulator** (`LaneAcc`): element `i` lands in lane `i % 8`
//!   (chunk-major), the tail feeds lanes `0..r`, and a fixed scalar
//!   combine tree finishes — the order of the paper's 8-lane rank-AU.
//!
//! [`project_batch`] adds cache blocking on top of [`gemv`]: the
//! output-column dimension is tiled so the active weight panel fits
//! the rank-AU feature-cache geometry (see [`TileGeometry`]), and rows
//! are tiled so the streamed input/output working set stays resident
//! alongside it. Blocking changes traversal order only *across* output
//! elements, never the reduction order *within* one, so the blocked
//! product is bit-identical to the naive row-at-a-time loop.

/// Which kernel implementation executes. There is one: the portable
/// loops of this module, which define the canonical semantics. Hosts
/// that describe their kernel layer (perfbench's host line) report its
/// [`Backend::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable safe-Rust loops.
    Scalar,
}

impl Backend {
    /// Stable lowercase name for reports and benchmark artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
        }
    }
}

/// The backend every kernel call runs.
pub fn active_backend() -> Backend {
    Backend::Scalar
}

/// The canonical 8-lane reduction state of [`dot`].
///
/// Lane `l` owns elements `8c + l` of the product stream; the tail
/// (final partial chunk of `r` elements) feeds lanes `0..r`, and
/// [`LaneAcc::combine`] finishes with a fixed scalar tree.
#[derive(Debug, Clone, Copy)]
struct LaneAcc([f32; 8]);

impl LaneAcc {
    fn new() -> Self {
        LaneAcc([0.0; 8])
    }

    /// Folds the canonical tail: element `j` of the remainder goes to
    /// lane `j`.
    fn tail(&mut self, a: &[f32], b: &[f32]) {
        for (l, (x, y)) in a.iter().zip(b).enumerate() {
            self.0[l] += x * y;
        }
    }

    /// The fixed combine tree: pairwise over stride 4, then 2, then 1.
    fn combine(self) -> f32 {
        let l = self.0;
        let s0 = l[0] + l[4];
        let s1 = l[1] + l[5];
        let s2 = l[2] + l[6];
        let s3 = l[3] + l[7];
        (s0 + s2) + (s1 + s3)
    }
}

/// Dot product through the canonical 8-lane reduction.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let mut acc = LaneAcc::new();
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let (pa, pb) = (&a[c * 8..c * 8 + 8], &b[c * 8..c * 8 + 8]);
        for l in 0..8 {
            acc.0[l] += pa[l] * pb[l];
        }
    }
    acc.tail(&a[chunks * 8..], &b[chunks * 8..]);
    acc.combine()
}

/// Adds `src` into `dst` element-wise.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn add(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Adds `scale × src` into `dst` element-wise.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn axpy(dst: &mut [f32], scale: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += scale * s;
    }
}

/// Scales `v` in place.
pub fn scale(v: &mut [f32], s: f32) {
    for x in v {
        *x *= s;
    }
}

/// Row-vector × matrix: `out = x · w` where `w` is row-major
/// `x.len() × cols`. Register-blocked across the output/column
/// dimension; each output element's reduction over inputs runs in
/// ascending `i` order, exactly as in the plain row-sweep loop.
///
/// # Panics
///
/// Panics if `w.len() != x.len() * cols` or `out.len() != cols`.
pub fn gemv(w: &[f32], cols: usize, x: &[f32], out: &mut [f32]) {
    assert_eq!(w.len(), x.len() * cols, "weight shape mismatch");
    assert_eq!(out.len(), cols, "output length mismatch");
    out.fill(0.0);
    gemv_acc(w, cols, x, 0, out);
}

/// `out[j] += x[i] * w[i*cols + j0 + j]` over ascending `i`, skipping
/// `x[i] == 0`, for the column range `j0..j0+out.len()`. `out` is
/// *not* cleared: callers zero it (or chain accumulation over row
/// panels). Columns go through 32-wide panels, then 8-wide panels,
/// and the fewer-than-8 left over through the plain row sweep.
fn gemv_acc(w: &[f32], cols: usize, x: &[f32], j0: usize, out: &mut [f32]) {
    let (wide, rest) = out.as_chunks_mut::<32>();
    let mut j = j0;
    for panel in wide {
        gemv_panel(w, cols, x, j, panel);
        j += 32;
    }
    let (narrow, tail) = rest.as_chunks_mut::<8>();
    for panel in narrow {
        gemv_panel(w, cols, x, j, panel);
        j += 8;
    }
    if !tail.is_empty() {
        gemv_sweep(w, cols, x, j, tail);
    }
}

/// One register-resident panel of `W` output columns starting at `j0`:
/// the partial sums stay in a local array for the whole input loop.
fn gemv_panel<const W: usize>(w: &[f32], cols: usize, x: &[f32], j0: usize, out: &mut [f32; W]) {
    let mut acc = *out;
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let row = w[i * cols + j0..]
            .first_chunk::<W>()
            .expect("panel lies inside the weight row");
        for (a, &wv) in acc.iter_mut().zip(row) {
            *a += xi * wv;
        }
    }
    *out = acc;
}

/// The plain row sweep over the columns `j0..j0+out.len()`: `out` is
/// read and written once per nonzero input.
fn gemv_sweep(w: &[f32], cols: usize, x: &[f32], j0: usize, out: &mut [f32]) {
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let row = &w[i * cols + j0..i * cols + j0 + out.len()];
        for (o, &wv) in out.iter_mut().zip(row) {
            *o += xi * wv;
        }
    }
}

/// Cache-blocking geometry for [`project_batch`], expressed in the
/// terms of the paper's rank-AU: a fixed-size feature cache that must
/// hold the active weight panel plus the streaming input/output rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGeometry {
    /// Input rows processed per tile before the column panel advances.
    pub row_block: usize,
    /// Output columns per weight panel (multiple of the 8-lane width).
    pub col_block: usize,
}

impl TileGeometry {
    /// The paper's default rank-AU feature cache (Table 2: 256 KB).
    pub const DEFAULT_CACHE_BYTES: usize = 256 * 1024;

    /// Derives tile sizes from a cache budget and the projection shape
    /// (`in_dim × out_dim` weights).
    ///
    /// Half the budget holds the weight panel (`in_dim × col_block`
    /// floats); the other half covers the `row_block` input rows and
    /// their output slices streamed against it. `col_block` is rounded
    /// to the 8-lane width and both blocks are clamped to at least one
    /// unit so degenerate shapes still tile.
    pub fn for_cache(cache_bytes: usize, in_dim: usize, out_dim: usize) -> Self {
        const F32: usize = std::mem::size_of::<f32>();
        let half = (cache_bytes / 2).max(F32);
        let panel_cols = half / (F32 * in_dim.max(1));
        let col_block = (panel_cols / 8 * 8).clamp(8, out_dim.max(8));
        let row_bytes = F32 * (in_dim + col_block);
        let row_block = (half / row_bytes.max(F32)).clamp(1, 4096);
        TileGeometry {
            row_block,
            col_block,
        }
    }
}

impl Default for TileGeometry {
    fn default() -> Self {
        // Shape-agnostic default: the 256 KB cache against the
        // workspace's canonical 64 × 64 projection.
        TileGeometry::for_cache(Self::DEFAULT_CACHE_BYTES, 64, 64)
    }
}

/// Batched, cache-blocked projection: `out = x · w` where `x` is
/// row-major `n × k`, `w` is row-major `k × m`, and `out` is row-major
/// `n × m`.
///
/// Traversal: for each column panel (`col_block` wide), stream row
/// tiles (`row_block` tall) against it, so the panel stays resident in
/// a feature-cache-sized working set. Every output element still
/// reduces over `i` in ascending order, so the result is bit-identical
/// to `n` independent [`gemv`] calls — and to the plain row-sweep loop.
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn project_batch(
    x: &[f32],
    n: usize,
    k: usize,
    w: &[f32],
    m: usize,
    out: &mut [f32],
    tiles: TileGeometry,
) {
    assert_eq!(x.len(), n * k, "input shape mismatch");
    assert_eq!(w.len(), k * m, "weight shape mismatch");
    assert_eq!(out.len(), n * m, "output shape mismatch");
    out.fill(0.0);
    let col_block = tiles.col_block.max(1);
    let row_block = tiles.row_block.max(1);
    let mut j0 = 0;
    while j0 < m {
        let jw = col_block.min(m - j0);
        let mut r0 = 0;
        while r0 < n {
            let rh = row_block.min(n - r0);
            for r in r0..r0 + rh {
                let xr = &x[r * k..(r + 1) * k];
                let or = &mut out[r * m + j0..r * m + j0 + jw];
                gemv_acc(w, m, xr, j0, or);
            }
            r0 += rh;
        }
        j0 += jw;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(len: usize, seed: u64) -> Vec<f32> {
        // splitmix64-driven values in [-1, 1), deterministic per seed.
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    #[test]
    fn canonical_dot_matches_8_lane_reference() {
        // Hand-computed canonical reduction for a short vector.
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let b = [1.0f32; 10];
        // Lanes: chunk 0 fills lanes 0..8 with 1..=8; tail (9, 10) adds
        // to lanes 0 and 1.
        let lanes = [1.0 + 9.0, 2.0 + 10.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let want = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
            + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
        assert_eq!(dot(&a, &b), want);
    }

    #[test]
    fn gemv_matches_reference_loop() {
        let (rows, cols) = (13, 21);
        let w = seeded(rows * cols, 7);
        let x = seeded(rows, 8);
        let mut out = vec![0.0f32; cols];
        gemv(&w, cols, &x, &mut out);
        let mut want = vec![0.0f32; cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for j in 0..cols {
                want[j] += xi * w[i * cols + j];
            }
        }
        assert_eq!(out, want);
    }

    #[test]
    fn project_batch_is_bit_identical_to_per_row_gemv() {
        let (n, k, m) = (17, 29, 23);
        let x = seeded(n * k, 3);
        let w = seeded(k * m, 4);
        let mut blocked = vec![0.0f32; n * m];
        // A deliberately tiny tile so blocking actually splits both
        // dimensions.
        let tiles = TileGeometry {
            row_block: 3,
            col_block: 8,
        };
        project_batch(&x, n, k, &w, m, &mut blocked, tiles);
        let mut naive = vec![0.0f32; n * m];
        for r in 0..n {
            gemv(
                &w,
                m,
                &x[r * k..(r + 1) * k],
                &mut naive[r * m..(r + 1) * m],
            );
        }
        assert_eq!(blocked, naive);
    }

    #[test]
    fn tile_geometry_fits_the_cache_budget() {
        let g = TileGeometry::for_cache(256 * 1024, 64, 64);
        // Weight panel fits half the cache.
        assert!(64 * g.col_block * 4 <= 128 * 1024);
        assert_eq!(g.col_block % 8, 0);
        assert!(g.row_block >= 1);
        // Degenerate shapes still tile.
        let tiny = TileGeometry::for_cache(64, 1, 1);
        assert!(tiny.col_block >= 8 && tiny.row_block >= 1);
    }
}
