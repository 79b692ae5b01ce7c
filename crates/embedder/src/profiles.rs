//! Model profiles mirroring the transformer encoders the paper evaluates.
//!
//! The reproduction does not run the original pretrained transformers;
//! instead each profile instantiates a from-scratch encoder whose *relative*
//! size, output dimensionality and per-query compute cost mirror the paper's
//! models (Section IV-A1, Figure 15):
//!
//! | Paper model | Output dims | Relative cost | Profile                   |
//! |-------------|-------------|---------------|---------------------------|
//! | MPNet       | 768         | medium        | [`ProfileKind::MpnetLike`] |
//! | Albert      | 768         | small         | [`ProfileKind::AlbertLike`] |
//! | Llama-2 7B  | 4096        | very large    | [`ProfileKind::LlamaLike`] |

use serde::{Deserialize, Serialize};

/// Which paper model a profile corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProfileKind {
    /// MPNet-like: the paper's best-performing client-side encoder.
    MpnetLike,
    /// Albert-like: the smaller/faster client-side encoder (also what the
    /// GPTCache baseline configuration uses).
    AlbertLike,
    /// Llama-2-like: a large decoder-style model whose embeddings are slow to
    /// compute, large to store, and poorly suited to semantic matching.
    LlamaLike,
    /// A custom profile (used by unit tests and ablations).
    Custom,
}

impl std::fmt::Display for ProfileKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ProfileKind::MpnetLike => "mpnet",
            ProfileKind::AlbertLike => "albert",
            ProfileKind::LlamaLike => "llama-2",
            ProfileKind::Custom => "custom",
        };
        write!(f, "{name}")
    }
}

/// Architecture description for a [`crate::QueryEncoder`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Which paper model this mirrors.
    pub kind: ProfileKind,
    /// Number of hash buckets in the n-gram embedding table.
    pub hash_buckets: u32,
    /// Width of each embedding-table row (the pooled feature dimension).
    pub table_dim: usize,
    /// Hidden layer widths of the projection MLP.
    pub hidden_dims: Vec<usize>,
    /// Output embedding dimensionality (768 for MPNet/Albert, 4096 for
    /// Llama-2, matching the paper).
    pub output_dim: usize,
    /// Minimum character n-gram length for feature hashing.
    pub min_char_ngram: usize,
    /// Maximum character n-gram length for feature hashing.
    pub max_char_ngram: usize,
}

impl ModelProfile {
    /// MPNet-like profile: 768-d output, medium capacity.
    pub fn mpnet() -> Self {
        Self {
            kind: ProfileKind::MpnetLike,
            hash_buckets: 1 << 13,
            table_dim: 256,
            hidden_dims: vec![256],
            output_dim: 768,
            min_char_ngram: 3,
            max_char_ngram: 5,
        }
    }

    /// Albert-like profile: 768-d output, reduced capacity (Albert's
    /// parameter sharing makes it several times smaller than MPNet).
    pub fn albert() -> Self {
        Self {
            kind: ProfileKind::AlbertLike,
            hash_buckets: 1 << 13,
            table_dim: 128,
            hidden_dims: vec![128],
            output_dim: 768,
            min_char_ngram: 3,
            max_char_ngram: 4,
        }
    }

    /// Llama-2-like profile: 4096-d output and a deep/wide projection stack,
    /// so computing one embedding costs roughly an order of magnitude more
    /// than MPNet — reproducing the Figure 15 cost gap.
    pub fn llama() -> Self {
        Self {
            kind: ProfileKind::LlamaLike,
            hash_buckets: 1 << 14,
            table_dim: 512,
            hidden_dims: vec![1024, 1024],
            output_dim: 4096,
            min_char_ngram: 3,
            max_char_ngram: 6,
        }
    }

    /// A deliberately tiny profile for unit tests: everything fits in a few
    /// kilobytes and trains in milliseconds.
    pub fn tiny() -> Self {
        Self {
            kind: ProfileKind::Custom,
            hash_buckets: 512,
            table_dim: 32,
            hidden_dims: vec![32],
            output_dim: 48,
            min_char_ngram: 3,
            max_char_ngram: 4,
        }
    }

    /// A small-but-realistic profile used by the experiment binaries when a
    /// full-size profile would make the benchmark needlessly slow while the
    /// measured quantity (decision quality) does not depend on scale.
    pub fn compact(kind: ProfileKind) -> Self {
        match kind {
            ProfileKind::MpnetLike => Self {
                kind,
                hash_buckets: 1 << 12,
                table_dim: 128,
                hidden_dims: vec![128],
                output_dim: 256,
                min_char_ngram: 3,
                max_char_ngram: 5,
            },
            ProfileKind::AlbertLike => Self {
                kind,
                hash_buckets: 1 << 12,
                table_dim: 64,
                hidden_dims: vec![64],
                output_dim: 256,
                min_char_ngram: 3,
                max_char_ngram: 4,
            },
            ProfileKind::LlamaLike => Self {
                kind,
                hash_buckets: 1 << 13,
                table_dim: 256,
                hidden_dims: vec![512, 512],
                output_dim: 1024,
                min_char_ngram: 3,
                max_char_ngram: 6,
            },
            ProfileKind::Custom => Self::tiny(),
        }
    }

    /// Layer sizes of the projection MLP: `[table_dim, hidden..., output_dim]`.
    pub fn mlp_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.hidden_dims.len() + 2);
        dims.push(self.table_dim);
        dims.extend_from_slice(&self.hidden_dims);
        dims.push(self.output_dim);
        dims
    }

    /// Total trainable parameters (embedding table + MLP weights + biases).
    pub fn parameter_count(&self) -> usize {
        let table = self.hash_buckets as usize * self.table_dim;
        let dims = self.mlp_dims();
        let mlp: usize = dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
        table + mlp
    }

    /// Bytes needed to store one raw (uncompressed) query embedding.
    pub fn embedding_bytes(&self) -> usize {
        mc_tensor::quant::f32_embedding_bytes(self.output_dim)
    }

    /// Approximate bytes needed to store the model itself.
    pub fn model_bytes(&self) -> usize {
        self.parameter_count() * std::mem::size_of::<f32>()
    }

    /// Validates the profile.
    ///
    /// # Errors
    /// Returns [`crate::EmbedderError::InvalidConfig`] on zero-sized fields.
    pub fn validate(&self) -> crate::Result<()> {
        if self.hash_buckets == 0
            || self.table_dim == 0
            || self.output_dim == 0
            || self.min_char_ngram == 0
            || self.max_char_ngram < self.min_char_ngram
        {
            return Err(crate::EmbedderError::InvalidConfig(format!(
                "invalid profile: {self:?}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_output_dimensions_are_respected() {
        assert_eq!(ModelProfile::mpnet().output_dim, 768);
        assert_eq!(ModelProfile::albert().output_dim, 768);
        assert_eq!(ModelProfile::llama().output_dim, 4096);
    }

    #[test]
    fn relative_ordering_matches_the_paper() {
        let mpnet = ModelProfile::mpnet();
        let albert = ModelProfile::albert();
        let llama = ModelProfile::llama();
        // Llama embeddings are larger and far more expensive; Albert is the
        // smallest/cheapest (Figure 15).
        assert!(llama.embedding_bytes() > mpnet.embedding_bytes());
        assert_eq!(mpnet.embedding_bytes(), albert.embedding_bytes());
        assert!(llama.model_bytes() > mpnet.model_bytes());
        assert!(mpnet.model_bytes() > albert.model_bytes());
    }

    #[test]
    fn embedding_bytes_match_figure_15_scale() {
        // Paper: Llama-2 embeddings ~32 KB, MPNet/Albert ~6 KB (stored with
        // metadata); the raw f32 payloads are 16 KB and 3 KB.
        assert_eq!(ModelProfile::llama().embedding_bytes(), 16384);
        assert_eq!(ModelProfile::mpnet().embedding_bytes(), 3072);
    }

    #[test]
    fn mlp_dims_and_parameter_count_are_consistent() {
        let p = ModelProfile::tiny();
        assert_eq!(p.mlp_dims(), vec![32, 32, 48]);
        let expected = 512 * 32 + (32 * 32 + 32) + (32 * 48 + 48);
        assert_eq!(p.parameter_count(), expected);
    }

    #[test]
    fn validation_catches_bad_profiles() {
        let mut p = ModelProfile::tiny();
        assert!(p.validate().is_ok());
        p.table_dim = 0;
        assert!(p.validate().is_err());
        let mut p = ModelProfile::tiny();
        p.max_char_ngram = 1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn compact_profiles_keep_relative_ordering() {
        let m = ModelProfile::compact(ProfileKind::MpnetLike);
        let a = ModelProfile::compact(ProfileKind::AlbertLike);
        let l = ModelProfile::compact(ProfileKind::LlamaLike);
        assert!(l.parameter_count() > m.parameter_count());
        assert!(m.parameter_count() > a.parameter_count());
        assert!(l.output_dim > m.output_dim);
        assert_eq!(
            ModelProfile::compact(ProfileKind::Custom),
            ModelProfile::tiny()
        );
    }

    #[test]
    fn profile_kinds_display_their_names() {
        assert_eq!(ProfileKind::LlamaLike.to_string(), "llama-2");
        assert_eq!(ProfileKind::MpnetLike.to_string(), "mpnet");
        assert_eq!(ProfileKind::AlbertLike.to_string(), "albert");
        assert_eq!(ProfileKind::Custom.to_string(), "custom");
    }
}
