//! Row-major dense `f32` matrices with sequential and rayon-parallel kernels.
//!
//! The neural-network substrate (`mc-nn`) stores layer weights as [`Matrix`]
//! values and drives training through `matmul` / `matvec` / rank-1 updates.
//! Batched forward/backward passes over a mini-batch are the dominant cost of
//! federated training, so [`Matrix::matmul`] switches to a row-parallel
//! implementation once the problem is large enough to amortise rayon's
//! fork/join overhead (see [`crate::PARALLEL_FLOP_THRESHOLD`]).

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::{vector, Result, TensorError, Vector, PARALLEL_FLOP_THRESHOLD};

/// A dense row-major matrix of `f32` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch(format!(
                "from_vec: expected {} elements for {}x{}, got {}",
                rows * cols,
                rows,
                cols,
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix whose rows are the given equal-length slices.
    ///
    /// # Errors
    /// Returns [`TensorError::Empty`] for an empty row set and
    /// [`TensorError::ShapeMismatch`] if row lengths differ.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(TensorError::Empty("from_rows: no rows".into()));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(TensorError::ShapeMismatch(format!(
                    "from_rows: row {i} has length {}, expected {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of stored elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = value;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Copy column `c` into a new `Vec`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Matrix multiplication `self * other`.
    ///
    /// Uses a cache-friendly i-k-j loop ordering; when the multiply-accumulate
    /// count exceeds [`PARALLEL_FLOP_THRESHOLD`] the output rows are computed
    /// in parallel on the rayon thread pool.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch(format!(
                "matmul: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        let flops = self.rows * self.cols * other.cols;
        if flops >= PARALLEL_FLOP_THRESHOLD && self.rows > 1 {
            out.data
                .par_chunks_mut(other.cols)
                .enumerate()
                .for_each(|(i, out_row)| {
                    Self::matmul_row(self.row(i), other, out_row);
                });
        } else {
            for i in 0..self.rows {
                let (a_row, out_row) = (
                    self.row(i),
                    &mut out.data[i * other.cols..(i + 1) * other.cols],
                );
                Self::matmul_row(a_row, other, out_row);
            }
        }
        Ok(out)
    }

    /// Computes one output row of a matmul: `out_row = a_row * b`.
    #[inline]
    fn matmul_row(a_row: &[f32], b: &Matrix, out_row: &mut [f32]) {
        for (k, &a_val) in a_row.iter().enumerate() {
            if a_val == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            vector::axpy(a_val, b_row, out_row);
        }
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when `x.len() != self.cols`.
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>> {
        let mut out = Vec::new();
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matvec`] into `out` (cleared first, capacity reused). Each
    /// element is one [`vector::dot`] of a row with `x`, whichever branch
    /// computes it.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when `x.len() != self.cols`.
    pub fn matvec_into(&self, x: &[f32], out: &mut Vec<f32>) -> Result<()> {
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch(format!(
                "matvec: {}x{} * {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let flops = self.rows * self.cols;
        if flops >= PARALLEL_FLOP_THRESHOLD && self.rows > 1 {
            *out = self
                .data
                .par_chunks(self.cols)
                .map(|row| vector::dot(row, x))
                .collect();
        } else {
            out.clear();
            out.extend(
                self.data
                    .chunks_exact(self.cols)
                    .map(|row| vector::dot(row, x)),
            );
        }
        Ok(())
    }

    /// Vector–matrix product `x^T * self` (length-`cols` result).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when `x.len() != self.rows`.
    pub fn vecmat(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.rows {
            return Err(TensorError::ShapeMismatch(format!(
                "vecmat: {} * {}x{}",
                x.len(),
                self.rows,
                self.cols
            )));
        }
        let mut out = vec![0.0f32; self.cols];
        for (r, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            vector::axpy(xv, self.row(r), &mut out);
        }
        Ok(out)
    }

    /// In-place element-wise `self += alpha * other`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_scaled(&mut self, alpha: f32, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch(format!(
                "add_scaled: {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        vector::axpy(alpha, &other.data, &mut self.data);
        Ok(())
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, alpha: f32) {
        vector::scale(alpha, &mut self.data);
    }

    /// Adds the rank-1 update `alpha * x * y^T` to this matrix
    /// (`x.len() == rows`, `y.len() == cols`). This is the gradient of a dense
    /// layer's weight matrix for a single sample.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] on dimension mismatch.
    pub fn add_outer(&mut self, alpha: f32, x: &[f32], y: &[f32]) -> Result<()> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(TensorError::ShapeMismatch(format!(
                "add_outer: x={} y={} for {}x{}",
                x.len(),
                y.len(),
                self.rows,
                self.cols
            )));
        }
        for (r, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            vector::axpy(alpha * xv, y, self.row_mut(r));
        }
        Ok(())
    }

    /// Frobenius norm (square root of the sum of squared entries).
    pub fn frobenius_norm(&self) -> f32 {
        vector::norm(&self.data)
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries (`0.0` for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Storage footprint in bytes of the raw `f32` payload.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Returns the matrix flattened into a [`Vector`] (row-major order).
    /// Used to ship model parameters between FL clients and the server.
    pub fn flatten(&self) -> Vector {
        Vector::from_vec(self.data.clone())
    }

    /// L2-normalises every row in place (used for batched embedding outputs).
    pub fn normalize_rows(&mut self) {
        let cols = self.cols.max(1);
        self.data.chunks_exact_mut(cols).for_each(vector::normalize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_a() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    fn sample_b() -> Matrix {
        Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap()
    }

    #[test]
    fn matmul_small_matches_hand_computation() {
        let c = sample_a().matmul(&sample_b()).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(TensorError::ShapeMismatch(_))));
    }

    #[test]
    fn parallel_matmul_matches_sequential() {
        // Large enough to trigger the parallel path.
        let n = 96;
        let a = Matrix::from_vec(
            n,
            n,
            (0..n * n).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect(),
        )
        .unwrap();
        let b = Matrix::from_vec(
            n,
            n,
            (0..n * n).map(|i| ((i % 7) as f32 - 3.0) * 0.2).collect(),
        )
        .unwrap();
        let par = a.matmul(&b).unwrap();
        // Sequential reference.
        let mut seq = Matrix::zeros(n, n);
        for i in 0..n {
            for k in 0..n {
                let av = a.get(i, k);
                for j in 0..n {
                    seq.set(i, j, seq.get(i, j) + av * b.get(k, j));
                }
            }
        }
        for (x, y) in par.as_slice().iter().zip(seq.as_slice()) {
            assert!((x - y).abs() < 1e-3, "parallel={x} sequential={y}");
        }
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = sample_a();
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]).unwrap(), vec![5.0, 7.0, 9.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = sample_a();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = sample_a();
        let i3 = Matrix::identity(3);
        assert_eq!(a.matmul(&i3).unwrap(), a);
    }

    #[test]
    fn add_outer_matches_manual_rank1_update() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(2.0, &[1.0, -1.0], &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.as_slice(), &[2.0, 4.0, 6.0, -2.0, -4.0, -6.0]);
        assert!(m.add_outer(1.0, &[1.0], &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = sample_a();
        let b = sample_a();
        a.add_scaled(0.5, &b).unwrap();
        assert_eq!(a.get(1, 2), 9.0);
        a.scale(2.0);
        assert_eq!(a.get(0, 0), 3.0);
        assert!(a.add_scaled(1.0, &Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn from_rows_validates_lengths() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.shape(), (2, 2));
    }

    #[test]
    fn flatten_round_trip() {
        let a = sample_a();
        let flat = a.flatten();
        let back = Matrix::from_vec(2, 3, flat.as_slice().to_vec()).unwrap();
        assert_eq!(a, back);
        assert!(Matrix::from_vec(4, 4, flat.as_slice().to_vec()).is_err());
    }

    #[test]
    fn normalize_rows_gives_unit_rows() {
        let mut m = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0], vec![1.0, 0.0]]).unwrap();
        m.normalize_rows();
        assert!((vector::norm(m.row(0)) - 1.0).abs() < 1e-6);
        assert_eq!(m.row(1), &[0.0, 0.0]);
        assert_eq!(m.row(2), &[1.0, 0.0]);
    }

    #[test]
    fn reductions() {
        let a = sample_a();
        assert_eq!(a.sum(), 21.0);
        assert!((a.mean() - 3.5).abs() < 1e-6);
        assert!((a.frobenius_norm() - 91.0f32.sqrt()).abs() < 1e-4);
        assert_eq!(a.storage_bytes(), 24);
        assert_eq!(Matrix::zeros(0, 0).mean(), 0.0);
    }

    #[test]
    fn col_extraction() {
        let a = sample_a();
        assert_eq!(a.col(1), vec![2.0, 5.0]);
    }
}
