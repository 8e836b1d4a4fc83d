//! Minimal dense linear algebra: row-major `f32` matrices and the
//! feature stores built from them.
//!
//! The workspace deliberately avoids external BLAS — the kernels here
//! are small, deterministic, and easy to instrument, which matters more
//! than raw speed for a simulator whose outputs are op counts and
//! functional reference results. The dense inner loops live in
//! [`kernels`], one portable safe-Rust implementation that fixes every
//! reduction order in one place; the entry points in this module keep
//! their legacy signatures and delegate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

pub mod kernels;

/// A dense row-major `f32` matrix.
///
/// ```
/// use hgnn::tensor::Matrix;
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix with i.i.d. uniform values in `[-0.5, 0.5)`,
    /// deterministic for a given seed.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.gen::<f32>() - 0.5).collect();
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Multiplies a row vector by this matrix: `out = x · self`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows()` or `out.len() != cols()`.
    pub fn vec_mul(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "input length mismatch");
        assert_eq!(out.len(), self.cols, "output length mismatch");
        kernels::gemv(&self.data, self.cols, x, out);
    }

    /// Maximum absolute difference between two matrices.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Bytes used by the value buffer.
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Adds `src` into `dst` element-wise.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn vec_add(dst: &mut [f32], src: &[f32]) {
    kernels::add(dst, src);
}

/// Adds `scale × src` into `dst` element-wise.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn vec_axpy(dst: &mut [f32], scale: f32, src: &[f32]) {
    kernels::axpy(dst, scale, src);
}

/// Scales `v` in place.
pub fn vec_scale(v: &mut [f32], scale: f32) {
    kernels::scale(v, scale);
}

/// Dot product of two vectors, reduced through the canonical 8-lane
/// order defined in [`kernels`].
///
/// # Panics
///
/// Panics on length mismatch.
pub fn vec_dot(a: &[f32], b: &[f32]) -> f32 {
    kernels::dot(a, b)
}

/// In-place numerically stable softmax.
pub fn softmax(scores: &mut [f32]) {
    if scores.is_empty() {
        return;
    }
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    if sum > 0.0 {
        for s in scores.iter_mut() {
            *s /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.byte_size(), 24);
    }

    #[test]
    fn random_is_deterministic() {
        let a = Matrix::random(3, 3, 7);
        let b = Matrix::random(3, 3, 7);
        assert_eq!(a, b);
        let c = Matrix::random(3, 3, 8);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn vec_mul_identity() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut out = [0.0; 2];
        m.vec_mul(&[3.0, 4.0], &mut out);
        assert_eq!(out, [3.0, 4.0]);
    }

    #[test]
    fn vec_mul_general() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut out = [0.0; 3];
        m.vec_mul(&[1.0, 1.0], &mut out);
        assert_eq!(out, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn axpy_add_scale_dot() {
        let mut v = vec![1.0, 2.0];
        vec_add(&mut v, &[1.0, 1.0]);
        assert_eq!(v, [2.0, 3.0]);
        vec_axpy(&mut v, 2.0, &[1.0, 0.0]);
        assert_eq!(v, [4.0, 3.0]);
        vec_scale(&mut v, 0.5);
        assert_eq!(v, [2.0, 1.5]);
        assert_eq!(vec_dot(&v, &[2.0, 2.0]), 7.0);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut s = vec![1.0, 2.0, 3.0];
        softmax(&mut s);
        let sum: f32 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn softmax_handles_large_values() {
        let mut s = vec![1000.0, 1000.0];
        softmax(&mut s);
        assert!((s[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut s: Vec<f32> = vec![];
        softmax(&mut s);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn vec_add_rejects_mismatch() {
        let mut v = vec![1.0];
        vec_add(&mut v, &[1.0, 2.0]);
    }
}
