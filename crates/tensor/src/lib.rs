//! # mc-tensor
//!
//! Dense linear-algebra substrate for the MeanCache reproduction.
//!
//! The crate provides the numeric kernels every higher layer builds on:
//!
//! * [`Vector`] — an owned, contiguous `f32` vector with the operations the
//!   semantic cache needs (dot products, L2 norms, cosine similarity,
//!   normalisation, AXPY updates).
//! * [`Matrix`] — a row-major `f32` matrix with sequential and
//!   [rayon](https://docs.rs/rayon)-parallel multiplication kernels,
//!   transposes, reductions and in-place update primitives used by the
//!   neural-network substrate (`mc-nn`).
//! * [`rng`] — seeded random initialisers (Xavier/He/uniform/normal) so every
//!   experiment in the benchmark harness is reproducible.
//! * [`stats`] — mean/covariance computations used by the PCA compression
//!   stage of `mc-embedder`.
//! * [`kernels`] — the dot-product kernels under all of the above: an
//!   AVX2+FMA implementation and a portable fallback, chosen once per
//!   process, and the only module of this crate that contains `unsafe`.
//! * [`quant`] — storage-size accounting and lossy quantisation helpers used
//!   by the storage experiments (Figure 10 / Figure 15 of the paper).
//!
//! All kernels are written against plain slices where possible so callers can
//! avoid allocation in hot loops (see the Rust Performance Book guidance on
//! reusing buffers), and the parallel variants only split work when the
//! problem is large enough for the fork/join overhead to pay off.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod kernels;
pub mod matrix;
pub mod ops;
pub mod quant;
pub mod rng;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;
pub use vector::Vector;

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes. Carries a human-readable
    /// description of the mismatch.
    ShapeMismatch(String),
    /// An operation that requires a non-empty tensor received an empty one.
    Empty(String),
    /// A numeric argument was outside its valid domain.
    InvalidArgument(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            TensorError::Empty(msg) => write!(f, "empty tensor: {msg}"),
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience result alias for tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Problem size (in multiply-accumulate operations) above which the parallel
/// kernels split work across the rayon thread pool. Below this the
/// sequential kernels are faster because they avoid fork/join overhead.
pub const PARALLEL_FLOP_THRESHOLD: usize = 64 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = TensorError::ShapeMismatch("2x3 vs 4x5".into());
        assert!(e.to_string().contains("2x3 vs 4x5"));
        let e = TensorError::Empty("vector".into());
        assert!(e.to_string().contains("empty"));
        let e = TensorError::InvalidArgument("k must be > 0".into());
        assert!(e.to_string().contains("k must be > 0"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            TensorError::Empty("x".into()),
            TensorError::Empty("x".into())
        );
        assert_ne!(
            TensorError::Empty("x".into()),
            TensorError::Empty("y".into())
        );
    }
}
