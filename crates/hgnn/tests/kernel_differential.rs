//! Differential tests for the dense kernels.
//!
//! Each kernel is compared bit for bit against the plainest loop that
//! states its semantics: the row-sweep GEMV (output element `j`
//! accumulates `x[i] * w[i][j]` over ascending `i`, skipping
//! `x[i] == 0`), a hand-written canonical 8-lane dot product, and
//! element-at-a-time `add`/`axpy`/`scale`. The sweep covers empty
//! shapes, dimensions off the 8-lane grid, column counts on both sides
//! of one and two 32-wide panels, and inputs with all-zero rows (which
//! exercise the GEMV `x[i] == 0` skip). It also asserts
//! that cache-blocking geometry never changes a projection result or
//! its op counters.

use std::collections::BTreeMap;

use hetgraph::datasets::{generate, DatasetId, GeneratorConfig};
use hgnn::tensor::kernels::{self, project_batch, TileGeometry};
use hgnn::tensor::Matrix;
use hgnn::{FeatureStore, OpCounters, Projection};

/// splitmix64-driven values in [-1, 1), deterministic per seed. Every
/// fourth value is forced to exactly 0.0 so zero-skip paths run even on
/// random data.
fn seeded(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|i| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if i % 4 == 3 {
                0.0
            } else {
                (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// The canonical dot product written out lane by lane: element `i` of
/// each full chunk of eight goes to lane `i % 8`, element `j` of the
/// final partial chunk to lane `j`, and the lanes combine as
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
fn dot_reference(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        lanes[i % 8] += x * y;
    }
    ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]))
}

/// The row-sweep GEMV over row-major `x.len() × cols` weights: `out`
/// is read and written once per nonzero input.
fn gemv_reference(w: &[f32], cols: usize, x: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; cols];
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        for (o, &wv) in out.iter_mut().zip(&w[i * cols..(i + 1) * cols]) {
            *o += xi * wv;
        }
    }
    out
}

#[test]
fn elementwise_kernels_agree_across_shape_sweep() {
    for len in [
        0usize, 1, 2, 5, 7, 8, 9, 12, 15, 16, 17, 31, 33, 63, 65, 100, 127, 128, 129, 257,
    ] {
        for seed in 0..4u64 {
            let a = seeded(len, seed.wrapping_mul(31) + len as u64);
            let b = seeded(len, seed.wrapping_mul(67) + 9000 + len as u64);
            let zeros = vec![0.0f32; len];
            for (x, y) in [(&a, &b), (&a, &zeros), (&zeros, &b), (&zeros, &zeros)] {
                assert_eq!(
                    kernels::dot(x, y).to_bits(),
                    dot_reference(x, y).to_bits(),
                    "dot len={len} seed={seed}"
                );

                let mut add_out = x.clone();
                kernels::add(&mut add_out, y);
                let add_want: Vec<f32> = x.iter().zip(y.iter()).map(|(p, q)| p + q).collect();
                assert_eq!(bits(&add_out), bits(&add_want), "add len={len} seed={seed}");

                let mut axpy_out = x.clone();
                kernels::axpy(&mut axpy_out, 0.73, y);
                let axpy_want: Vec<f32> =
                    x.iter().zip(y.iter()).map(|(p, q)| p + 0.73 * q).collect();
                assert_eq!(
                    bits(&axpy_out),
                    bits(&axpy_want),
                    "axpy len={len} seed={seed}"
                );

                let mut scale_out = x.clone();
                kernels::scale(&mut scale_out, -2.5);
                let scale_want: Vec<f32> = x.iter().map(|p| p * -2.5).collect();
                assert_eq!(
                    bits(&scale_out),
                    bits(&scale_want),
                    "scale len={len} seed={seed}"
                );
            }
        }
    }
}

#[test]
fn gemv_and_project_batch_agree_across_shape_sweep() {
    // (rows n, raw dim k, hidden dim m): empty batches, dims off the
    // 8-lane grid, and column counts on both sides of one and two
    // 32-wide panels.
    for (n, k, m) in [
        (0usize, 5usize, 7usize),
        (1, 1, 1),
        (3, 7, 9),
        (4, 8, 8),
        (5, 12, 33),
        (7, 16, 40),
        (9, 31, 65),
        (16, 64, 64),
        (6, 19, 31),
        (6, 19, 32),
        (6, 19, 33),
        (5, 23, 63),
        (5, 23, 64),
        (5, 23, 65),
    ] {
        let x = {
            let mut x = seeded(n * k, (n * 1000 + k) as u64);
            // Zero out entire rows so whole-row skips differ from the
            // per-element zeros `seeded` already injects.
            for r in (0..n).step_by(3) {
                x[r * k..(r + 1) * k].fill(0.0);
            }
            x
        };
        let w = seeded(k * m, (k * 1000 + m) as u64);
        let want: Vec<f32> = (0..n)
            .flat_map(|r| gemv_reference(&w, m, &x[r * k..(r + 1) * k]))
            .collect();
        for tiles in [
            TileGeometry::default(),
            TileGeometry {
                row_block: 1,
                col_block: 8,
            },
            TileGeometry {
                row_block: 2,
                col_block: 16,
            },
            TileGeometry {
                row_block: 3,
                col_block: 40,
            },
        ] {
            let mut out = vec![0.0f32; n * m];
            project_batch(&x, n, k, &w, m, &mut out, tiles);
            assert_eq!(
                bits(&out),
                bits(&want),
                "project_batch n={n} k={k} m={m} tiles={tiles:?}"
            );
        }
        for r in 0..n {
            let mut out = vec![0.0f32; m];
            kernels::gemv(&w, m, &x[r * k..(r + 1) * k], &mut out);
            assert_eq!(
                bits(&out),
                bits(&want[r * m..(r + 1) * m]),
                "gemv row={r} k={k} m={m}"
            );
        }
    }
}

#[test]
fn projection_op_counts_and_outputs_are_invariant() {
    let dataset = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.02));
    let graph = &dataset.graph;
    let fs = FeatureStore::random(graph, 11);
    let proj = Projection::random(graph, 16, 13);

    // Reference: the default (row-at-a-time-equivalent) geometry.
    let mut ref_counters = OpCounters::default();
    let ref_hidden = proj.project(graph, &fs, &mut ref_counters).unwrap();

    for tiles in [
        TileGeometry::default(),
        TileGeometry {
            row_block: 1,
            col_block: 8,
        },
        TileGeometry {
            row_block: 4,
            col_block: 16,
        },
        TileGeometry::for_cache(256 * 1024, 64, 16),
    ] {
        let mut c = OpCounters::default();
        let h = proj.project_with_tiles(graph, &fs, &mut c, tiles).unwrap();
        // The cost model is shape-derived: blocked execution must
        // report exactly the reference counts.
        assert_eq!(c.flops, ref_counters.flops, "{tiles:?}");
        assert_eq!(c.bytes_read, ref_counters.bytes_read, "{tiles:?}");
        assert_eq!(c.bytes_written, ref_counters.bytes_written, "{tiles:?}");
        for (ty, _) in graph.schema().vertex_types() {
            let got: &Matrix = h.matrix(ty).unwrap();
            let want: &Matrix = ref_hidden.matrix(ty).unwrap();
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{tiles:?}");
        }
    }

    // Sanity: the projection actually counted work.
    let per_type: BTreeMap<_, _> = graph.schema().vertex_types().collect();
    assert!(!per_type.is_empty());
    assert!(ref_counters.flops > 0);
}
