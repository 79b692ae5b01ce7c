//! Principal-component analysis for embedding compression.
//!
//! Section III-A4 of the paper compresses 768-dimensional query embeddings
//! down to 64 dimensions with PCA, cutting storage by ≈83% and speeding up
//! cosine search by ≈11% while costing almost no F-score. The components are
//! learned from the embeddings of the client's training queries (Figure 3-a)
//! and then applied as an extra projection layer at inference time
//! (Figure 3-b).
//!
//! The fit uses orthogonal (subspace) iteration on the covariance matrix:
//! repeated multiplication of a random orthonormal basis by the covariance,
//! re-orthonormalised with modified Gram–Schmidt. For the sizes involved
//! (d ≤ 4096, k ≤ 128) this converges in a few tens of iterations and the
//! dominant cost — the `d x d` by `d x k` product — runs on the rayon pool
//! via `mc_tensor::Matrix::matmul`.

use mc_tensor::{rng, stats, vector, Matrix};
use serde::{Deserialize, Serialize};

use crate::{EmbedderError, Result};

/// A fitted PCA projection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pca {
    /// Column means of the training data (subtracted before projection).
    mean: Vec<f32>,
    /// `k x d` matrix whose rows are orthonormal principal directions,
    /// ordered by decreasing explained variance.
    components: Matrix,
    /// Eigenvalues (variances) associated with each kept component.
    eigenvalues: Vec<f32>,
    /// Eigenvalue sum over *all* directions (for explained-variance ratios).
    total_variance: f32,
}

impl Pca {
    /// Fits a `k`-component PCA on `data` (rows are observations).
    ///
    /// # Errors
    /// * [`EmbedderError::InsufficientData`] when there are fewer rows than
    ///   2 or fewer rows than components.
    /// * [`EmbedderError::InvalidConfig`] when `k` is 0 or exceeds the
    ///   data dimensionality.
    pub fn fit(data: &Matrix, k: usize, seed: u64) -> Result<Self> {
        let n = data.rows();
        let d = data.cols();
        if k == 0 || k > d {
            return Err(EmbedderError::InvalidConfig(format!(
                "pca: k={k} must be in 1..={d}"
            )));
        }
        if n < 2 || n < k {
            return Err(EmbedderError::InsufficientData(format!(
                "pca: need at least max(2, k)={} observations, got {n}",
                k.max(2)
            )));
        }
        let cov = stats::covariance(data)?;
        let mean = stats::column_mean(data)?;
        let total_variance: f32 = (0..d).map(|i| cov.get(i, i)).sum();

        // Subspace iteration: Q starts as a random d x k orthonormal basis.
        let mut rng = rng::seeded(seed);
        let mut q = rng::uniform_matrix(d, k, 1.0, &mut rng);
        orthonormalize_columns(&mut q);
        let iterations = 40;
        for _ in 0..iterations {
            let z = cov.matmul(&q)?;
            q = z;
            orthonormalize_columns(&mut q);
        }

        // Rayleigh quotients give the eigenvalues; sort descending.
        let mut pairs: Vec<(f32, Vec<f32>)> = (0..k)
            .map(|j| {
                let col = q.col(j);
                let cv = cov.matvec(&col).expect("cov matvec shape");
                let lambda = vector::dot(&col, &cv);
                (lambda, col)
            })
            .collect();
        pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

        let eigenvalues: Vec<f32> = pairs.iter().map(|(l, _)| l.max(0.0)).collect();
        let components = Matrix::from_rows(&pairs.into_iter().map(|(_, v)| v).collect::<Vec<_>>())?;

        Ok(Self {
            mean,
            components,
            eigenvalues,
            total_variance: total_variance.max(f32::EPSILON),
        })
    }

    /// Dimensionality of the input space.
    pub fn input_dim(&self) -> usize {
        self.components.cols()
    }

    /// Number of kept components (output dimensionality).
    pub fn output_dim(&self) -> usize {
        self.components.rows()
    }

    /// Eigenvalues of the kept components, in descending order.
    pub fn eigenvalues(&self) -> &[f32] {
        &self.eigenvalues
    }

    /// Fraction of total variance captured by the kept components.
    pub fn explained_variance_ratio(&self) -> f32 {
        (self.eigenvalues.iter().sum::<f32>() / self.total_variance).clamp(0.0, 1.0)
    }

    /// Borrow the `k x d` component matrix.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Projects one vector into the principal subspace.
    ///
    /// # Errors
    /// Returns [`EmbedderError::Shape`] when the input dimensionality differs
    /// from the fitted dimensionality.
    pub fn transform(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.input_dim() {
            return Err(EmbedderError::Shape(format!(
                "pca transform: input {} vs fitted {}",
                x.len(),
                self.input_dim()
            )));
        }
        let centered: Vec<f32> = x.iter().zip(&self.mean).map(|(v, m)| v - m).collect();
        Ok(self.components.matvec(&centered)?)
    }

    /// Maps a compressed vector back into the original space (lossy).
    ///
    /// # Errors
    /// Returns [`EmbedderError::Shape`] when the input length differs from the
    /// number of components.
    pub fn inverse_transform(&self, z: &[f32]) -> Result<Vec<f32>> {
        if z.len() != self.output_dim() {
            return Err(EmbedderError::Shape(format!(
                "pca inverse: input {} vs components {}",
                z.len(),
                self.output_dim()
            )));
        }
        // x ≈ mean + z * components (components is k x d, z is 1 x k).
        let mut x = self.components.vecmat(z)?;
        for (xi, m) in x.iter_mut().zip(&self.mean) {
            *xi += m;
        }
        Ok(x)
    }

    /// Mean reconstruction error (Euclidean) over the rows of `data`.
    pub fn reconstruction_error(&self, data: &Matrix) -> Result<f32> {
        if data.rows() == 0 {
            return Ok(0.0);
        }
        let mut total = 0.0f32;
        for r in 0..data.rows() {
            let z = self.transform(data.row(r))?;
            let back = self.inverse_transform(&z)?;
            total += vector::euclidean_distance(data.row(r), &back);
        }
        Ok(total / data.rows() as f32)
    }
}

/// Modified Gram–Schmidt orthonormalisation of the *columns* of `m` in place.
/// Columns that collapse to (numerical) zero are replaced by unit basis
/// vectors so the basis always stays full rank.
fn orthonormalize_columns(m: &mut Matrix) {
    let d = m.rows();
    let k = m.cols();
    let mut cols: Vec<Vec<f32>> = (0..k).map(|j| m.col(j)).collect();
    for j in 0..k {
        for prev in 0..j {
            let proj = vector::dot(&cols[j], &cols[prev]);
            let prev_col = cols[prev].clone();
            vector::axpy(-proj, &prev_col, &mut cols[j]);
        }
        let n = vector::norm(&cols[j]);
        if n > 1e-8 {
            vector::scale(1.0 / n, &mut cols[j]);
        } else {
            // Degenerate column: replace with a canonical basis vector not
            // colliding with earlier ones.
            let mut e = vec![0.0; d];
            e[j % d] = 1.0;
            cols[j] = e;
        }
    }
    for (j, col) in cols.iter().enumerate().take(k) {
        for (i, &value) in col.iter().enumerate().take(d) {
            m.set(i, j, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_tensor::rng::seeded;
    use rand::Rng;

    /// Builds a dataset whose variance is concentrated along two known
    /// directions in 8-d space.
    fn low_rank_data(n: usize) -> Matrix {
        let mut rng = seeded(17);
        let dir1: Vec<f32> = vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let dir2: Vec<f32> = vec![0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0];
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                let a: f32 = rng.random_range(-3.0..3.0);
                let b: f32 = rng.random_range(-1.0..1.0);
                (0..8)
                    .map(|i| a * dir1[i] + b * dir2[i] + rng.random_range(-0.01f32..0.01))
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn fit_recovers_dominant_subspace() {
        let data = low_rank_data(300);
        let pca = Pca::fit(&data, 2, 1).unwrap();
        assert_eq!(pca.input_dim(), 8);
        assert_eq!(pca.output_dim(), 2);
        // Almost all variance lives in the first two components.
        assert!(
            pca.explained_variance_ratio() > 0.98,
            "explained={}",
            pca.explained_variance_ratio()
        );
        // The top component must align with dir1 (up to sign).
        let c0 = pca.components().row(0);
        let dir1 = [1.0f32, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let cos = vector::cosine_similarity(c0, &dir1).abs();
        assert!(cos > 0.98, "cos={cos}");
        // Eigenvalues are sorted descending.
        assert!(pca.eigenvalues()[0] >= pca.eigenvalues()[1]);
    }

    #[test]
    fn components_are_orthonormal() {
        let data = low_rank_data(200);
        let pca = Pca::fit(&data, 4, 2).unwrap();
        let c = pca.components();
        for i in 0..4 {
            for j in 0..4 {
                let d = vector::dot(c.row(i), c.row(j));
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((d - expected).abs() < 1e-3, "({i},{j})={d}");
            }
        }
    }

    #[test]
    fn transform_and_inverse_reconstruct_low_rank_data() {
        let data = low_rank_data(200);
        let pca = Pca::fit(&data, 2, 3).unwrap();
        let err = pca.reconstruction_error(&data).unwrap();
        assert!(err < 0.1, "reconstruction error {err}");
        // Using only 1 component must be worse than 2.
        let pca1 = Pca::fit(&data, 1, 3).unwrap();
        assert!(pca1.reconstruction_error(&data).unwrap() > err);
    }

    #[test]
    fn compression_preserves_cosine_neighbourhoods() {
        // The property the cache actually relies on: similar embeddings stay
        // similar after projection.
        let data = low_rank_data(300);
        let pca = Pca::fit(&data, 2, 5).unwrap();
        let a = data.row(0);
        let like_a: Vec<f32> = a.iter().map(|x| x * 1.02).collect();
        let unlike: Vec<f32> = data.row(1).iter().map(|x| -x).collect();
        let za = pca.transform(a).unwrap();
        let zlike = pca.transform(&like_a).unwrap();
        let zunlike = pca.transform(&unlike).unwrap();
        assert!(vector::cosine_similarity(&za, &zlike) > vector::cosine_similarity(&za, &zunlike));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let data = low_rank_data(10);
        assert!(matches!(
            Pca::fit(&data, 0, 1),
            Err(EmbedderError::InvalidConfig(_))
        ));
        assert!(matches!(
            Pca::fit(&data, 9, 1),
            Err(EmbedderError::InvalidConfig(_))
        ));
        let tiny = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        assert!(matches!(
            Pca::fit(&tiny, 1, 1),
            Err(EmbedderError::InsufficientData(_))
        ));
    }

    #[test]
    fn shape_errors_on_mismatched_inputs() {
        let data = low_rank_data(50);
        let pca = Pca::fit(&data, 2, 9).unwrap();
        assert!(pca.transform(&[1.0, 2.0]).is_err());
        assert!(pca.inverse_transform(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let data = low_rank_data(60);
        let pca = Pca::fit(&data, 2, 11).unwrap();
        let json = serde_json::to_string(&pca).unwrap();
        let back: Pca = serde_json::from_str(&json).unwrap();
        let x = data.row(5);
        assert_eq!(pca.transform(x).unwrap(), back.transform(x).unwrap());
    }

    #[test]
    fn orthonormalize_handles_degenerate_columns() {
        let mut m = Matrix::from_rows(&[vec![1.0, 1.0], vec![0.0, 0.0], vec![0.0, 0.0]]).unwrap();
        orthonormalize_columns(&mut m);
        // First column normalised; second column was parallel to the first so
        // it must have been replaced with something orthonormal.
        let c0 = m.col(0);
        let c1 = m.col(1);
        assert!((vector::norm(&c0) - 1.0).abs() < 1e-5);
        assert!((vector::norm(&c1) - 1.0).abs() < 1e-5);
        assert!(vector::dot(&c0, &c1).abs() < 1e-3);
    }
}
