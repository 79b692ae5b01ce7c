//! The query encoder: hashed n-gram features → embedding table → mean
//! pooling → projection MLP → (optional PCA) → L2-normalised embedding.
//!
//! This is the reproduction's stand-in for the paper's SBERT encoders. It is
//! fully trainable: the backward pass pushes gradients through the MLP and
//! into the rows of the embedding table that the query activated, which is
//! exactly what the per-client fine-tuning in Section III-A1 needs.

use mc_nn::mlp::MlpForward;
use mc_nn::{Activation, Mlp, MlpGrad, Optimizer};
use mc_tensor::{vector, Matrix, Vector};
use mc_text::{FeatureHasher, HashedFeatures, Tokenizer};
use serde::{Deserialize, Serialize};

use crate::{EmbedderError, ModelProfile, Pca, Result};

/// Optimiser slot offset used for embedding-table rows (slots below this are
/// used for MLP layer tensors).
const TABLE_SLOT_BASE: usize = 1 << 20;

/// A trainable query-embedding model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryEncoder {
    profile: ModelProfile,
    tokenizer: Tokenizer,
    hasher: FeatureHasher,
    /// `hash_buckets x table_dim` n-gram embedding table.
    table: Matrix,
    /// Projection MLP mapping pooled features to the output embedding.
    mlp: Mlp,
    /// Optional PCA compression layer (Section III-A4). When present,
    /// [`QueryEncoder::encode`] returns compressed embeddings.
    pca: Option<Pca>,
}

/// Cached intermediate state of one encoder forward pass.
#[derive(Debug, Clone)]
pub struct EncoderForward {
    /// Hashed features of the query.
    pub features: HashedFeatures,
    /// Cached MLP activations (they hold the mean-pooled MLP input too).
    pub mlp_forward: MlpForward,
}

impl EncoderForward {
    /// The raw (uncompressed, unnormalised) output embedding.
    pub fn output(&self) -> &[f32] {
        self.mlp_forward.output()
    }
}

/// Accumulated gradients for one encoder (sparse over table rows).
///
/// The table part holds only the rows a backward pass touched: a bucket →
/// slot index, one arena of `table_dim`-wide rows in first-touch order, and
/// the touched buckets in that order. Every walk that reduces or applies
/// the rows ([`EncoderGrad::norm`], [`QueryEncoder::apply_gradients`]) goes
/// through [`EncoderGrad::table_rows`], in ascending bucket order, so the
/// gradient norm and the optimiser updates are bit-for-bit reproducible.
#[derive(Debug, Clone)]
pub struct EncoderGrad {
    /// Width of a table row.
    dim: usize,
    /// Per bucket, the slot of its row in `rows`, or [`UNTOUCHED`].
    slot_of: Vec<u32>,
    /// The touched buckets; slot `s` holds the row of `touched[s]`.
    touched: Vec<u32>,
    /// The touched rows, `dim` floats each, in slot order.
    rows: Vec<f32>,
    /// Gradients for the MLP parameters.
    pub mlp: MlpGrad,
    /// Number of backward passes accumulated (used for averaging).
    pub count: usize,
    /// The pooled-input gradient of the latest backward pass: a buffer
    /// reused from call to call, not gradient state.
    d_pooled: Vec<f32>,
}

/// [`EncoderGrad::slot_of`] entry of a bucket no backward pass touched.
const UNTOUCHED: u32 = u32::MAX;

impl EncoderGrad {
    /// The accumulated rows of the touched embedding-table buckets, in
    /// ascending bucket order.
    pub fn table_rows(&self) -> impl Iterator<Item = (u32, &[f32])> + '_ {
        self.slot_of
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != UNTOUCHED)
            .map(|(bucket, &slot)| (bucket as u32, self.row(slot)))
    }

    fn row(&self, slot: u32) -> &[f32] {
        let at = slot as usize * self.dim;
        &self.rows[at..at + self.dim]
    }

    /// The gradient row of `bucket`, zero-filled on first touch.
    fn row_mut(&mut self, bucket: u32) -> &mut [f32] {
        let mut slot = self.slot_of[bucket as usize];
        if slot == UNTOUCHED {
            slot = self.touched.len() as u32;
            self.slot_of[bucket as usize] = slot;
            self.touched.push(bucket);
            self.rows.resize(self.rows.len() + self.dim, 0.0);
        }
        let at = slot as usize * self.dim;
        &mut self.rows[at..at + self.dim]
    }

    /// Resets to the zero gradient, keeping every buffer's capacity: only
    /// the touched rows' index entries are reset.
    pub fn clear(&mut self) {
        for &bucket in &self.touched {
            self.slot_of[bucket as usize] = UNTOUCHED;
        }
        self.touched.clear();
        self.rows.clear();
        self.mlp.clear();
        self.count = 0;
    }

    /// Scales all gradients by `alpha`. Element-wise, so one pass over the
    /// arena gives each row the bits a per-row pass would.
    pub fn scale(&mut self, alpha: f32) {
        vector::scale(alpha, &mut self.rows);
        self.mlp.scale(alpha);
    }

    /// Merges another gradient accumulator into this one.
    ///
    /// # Errors
    /// Returns [`EmbedderError::Shape`] when the two were made for encoders
    /// of different table shapes, or the MLP shapes differ.
    pub fn accumulate(&mut self, other: &EncoderGrad) -> Result<()> {
        if (self.dim, self.slot_of.len()) != (other.dim, other.slot_of.len()) {
            return Err(EmbedderError::Shape(format!(
                "accumulate: table gradient {}x{} vs {}x{}",
                self.slot_of.len(),
                self.dim,
                other.slot_of.len(),
                other.dim
            )));
        }
        for (bucket, row) in other.table_rows() {
            if self.slot_of[bucket as usize] == UNTOUCHED {
                // A copy, not `0.0 + row`: that would turn a `-0.0` into `+0.0`.
                self.row_mut(bucket).copy_from_slice(row);
            } else {
                vector::axpy(1.0, row, self.row_mut(bucket));
            }
        }
        self.mlp.accumulate(&other.mlp)?;
        self.count += other.count;
        Ok(())
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn norm(&self) -> f32 {
        let table: f32 = self.table_rows().map(|(_, r)| vector::norm_sq(r)).sum();
        (table + self.mlp.norm().powi(2)).sqrt()
    }
}

impl QueryEncoder {
    /// Creates a randomly-initialised encoder for a profile.
    ///
    /// # Errors
    /// Returns [`EmbedderError::InvalidConfig`] if the profile is invalid.
    pub fn new(profile: ModelProfile, seed: u64) -> Result<Self> {
        profile.validate()?;
        let mut rng = mc_tensor::rng::seeded(seed);
        // Small uniform init keeps pooled features in tanh's linear region.
        let table = mc_tensor::rng::uniform_matrix(
            profile.hash_buckets as usize,
            profile.table_dim,
            0.5,
            &mut rng,
        );
        let mlp = Mlp::new(
            &profile.mlp_dims(),
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        )?;
        let hasher = FeatureHasher::new(
            profile.hash_buckets,
            profile.min_char_ngram,
            profile.max_char_ngram,
        );
        Ok(Self {
            profile,
            tokenizer: Tokenizer::default(),
            hasher,
            table,
            mlp,
            pca: None,
        })
    }

    /// The model profile this encoder was built from.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Output dimensionality of [`QueryEncoder::encode`] (compressed when a
    /// PCA layer is attached).
    pub fn output_dim(&self) -> usize {
        self.pca
            .as_ref()
            .map(|p| p.output_dim())
            .unwrap_or(self.profile.output_dim)
    }

    /// Output dimensionality before compression.
    pub fn raw_output_dim(&self) -> usize {
        self.profile.output_dim
    }

    /// `true` when a PCA compression layer is attached.
    pub fn is_compressed(&self) -> bool {
        self.pca.is_some()
    }

    /// Borrow the attached PCA layer, if any.
    pub fn pca(&self) -> Option<&Pca> {
        self.pca.as_ref()
    }

    /// Attaches a fitted PCA layer (Figure 3-b).
    ///
    /// # Errors
    /// Returns [`EmbedderError::Shape`] when the PCA input dimensionality does
    /// not match the encoder's raw output dimensionality.
    pub fn attach_pca(&mut self, pca: Pca) -> Result<()> {
        if pca.input_dim() != self.profile.output_dim {
            return Err(EmbedderError::Shape(format!(
                "pca input {} vs encoder output {}",
                pca.input_dim(),
                self.profile.output_dim
            )));
        }
        self.pca = Some(pca);
        Ok(())
    }

    /// Fits a PCA layer on the raw embeddings of the provided corpus and
    /// attaches it (Figure 3-a then 3-b).
    ///
    /// # Errors
    /// Propagates PCA fitting errors (e.g. too few texts for `k` components).
    pub fn fit_pca(&mut self, texts: &[String], k: usize, seed: u64) -> Result<()> {
        let rows: Vec<Vec<f32>> = texts
            .iter()
            .map(|t| self.encode_raw(t).into_vec())
            .collect();
        if rows.is_empty() {
            return Err(EmbedderError::InsufficientData(
                "fit_pca: empty corpus".into(),
            ));
        }
        let data = Matrix::from_rows(&rows)?;
        let pca = Pca::fit(&data, k, seed)?;
        self.attach_pca(pca)
    }

    /// Hashed features of a query (exposed for the cache's context encoding).
    pub fn features(&self, text: &str) -> HashedFeatures {
        self.hasher.features_of(&self.tokenizer, text)
    }

    /// Mean-pools the embedding-table rows selected by `features`.
    fn pool(&self, features: &HashedFeatures) -> Vec<f32> {
        let mut pooled = vec![0.0f32; self.profile.table_dim];
        let total = features.total_weight();
        if total <= 0.0 {
            return pooled;
        }
        for (idx, w) in features.indices.iter().zip(&features.weights) {
            vector::axpy(*w, self.table.row(*idx as usize), &mut pooled);
        }
        vector::scale(1.0 / total, &mut pooled);
        pooled
    }

    /// Full forward pass retaining the caches needed for backpropagation.
    ///
    /// # Errors
    /// Propagates MLP shape errors (which indicate construction bugs).
    pub fn forward(&self, text: &str) -> Result<EncoderForward> {
        self.forward_features(self.features(text))
    }

    /// [`QueryEncoder::forward`] from features hashed earlier — a training
    /// run hashes each text once, not once per epoch.
    ///
    /// # Errors
    /// Propagates MLP shape errors (which indicate construction bugs).
    pub fn forward_features(&self, features: HashedFeatures) -> Result<EncoderForward> {
        let mlp_forward = self.mlp.forward(&self.pool(&features))?;
        Ok(EncoderForward {
            features,
            mlp_forward,
        })
    }

    /// Raw (uncompressed, unnormalised) embedding — the representation the
    /// training losses operate on.
    pub fn encode_raw(&self, text: &str) -> Vector {
        let pooled = self.pool(&self.features(text));
        let out = self
            .mlp
            .infer(&pooled)
            .expect("encoder MLP dimensions are consistent by construction");
        Vector::from_vec(out)
    }

    /// Deployment embedding: raw output, optionally PCA-compressed, always
    /// L2-normalised — the vector stored in and searched by the cache.
    pub fn encode(&self, text: &str) -> Vector {
        let raw = self.encode_raw(text);
        let mut projected = match &self.pca {
            Some(pca) => Vector::from_vec(
                pca.transform(raw.as_slice())
                    .expect("pca dimensions checked at attach time"),
            ),
            None => raw,
        };
        projected.normalize_in_place();
        projected
    }

    /// Cosine similarity between two queries under the deployment embedding.
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        let ea = self.encode(a);
        let eb = self.encode(b);
        vector::cosine_similarity_normalized(ea.as_slice(), eb.as_slice())
    }

    /// Zero gradient accumulator shaped for this encoder.
    pub fn zero_grad(&self) -> EncoderGrad {
        EncoderGrad {
            dim: self.profile.table_dim,
            slot_of: vec![UNTOUCHED; self.profile.hash_buckets as usize],
            touched: Vec::new(),
            rows: Vec::new(),
            mlp: self.mlp.zero_grad(),
            count: 0,
            d_pooled: Vec::new(),
        }
    }

    /// Backward pass: accumulates parameter gradients given the gradient of
    /// the loss w.r.t. the raw output embedding.
    ///
    /// # Errors
    /// Returns a shape error when `d_output` does not match the raw output
    /// dimensionality.
    pub fn backward(
        &self,
        forward: &EncoderForward,
        d_output: &[f32],
        grad: &mut EncoderGrad,
    ) -> Result<()> {
        if d_output.len() != self.profile.output_dim {
            return Err(EmbedderError::Shape(format!(
                "encoder backward: d_output {} vs {}",
                d_output.len(),
                self.profile.output_dim
            )));
        }
        // Taken out of `grad` for the loop below, which borrows `grad` whole.
        let mut d_pooled = std::mem::take(&mut grad.d_pooled);
        self.mlp
            .backward(&forward.mlp_forward, d_output, &mut grad.mlp, &mut d_pooled)?;
        let total = forward.features.total_weight();
        if total > 0.0 {
            for (idx, w) in forward
                .features
                .indices
                .iter()
                .zip(&forward.features.weights)
            {
                let coeff = *w / total;
                vector::axpy(coeff, &d_pooled, grad.row_mut(*idx));
            }
        }
        grad.d_pooled = d_pooled;
        grad.count += 1;
        Ok(())
    }

    /// Applies accumulated gradients through an optimiser. The MLP layers use
    /// dense slots; each activated table row gets its own sparse slot so Adam
    /// moments are tracked per row.
    ///
    /// # Errors
    /// Propagates optimiser shape errors.
    pub fn apply_gradients<O: Optimizer>(
        &mut self,
        grad: &EncoderGrad,
        optimizer: &mut O,
    ) -> Result<()> {
        // MLP parameters: one slot per (layer, tensor).
        for (li, layer) in self.mlp.layers_mut().iter_mut().enumerate() {
            let g = &grad.mlp.layers[li];
            optimizer
                .step(
                    li * 2,
                    layer.weights_mut().as_mut_slice(),
                    g.d_weights.as_slice(),
                )
                .map_err(EmbedderError::from)?;
            optimizer
                .step(li * 2 + 1, layer.bias_mut(), &g.d_bias)
                .map_err(EmbedderError::from)?;
        }
        // Embedding-table rows.
        for (bucket, row_grad) in grad.table_rows() {
            let slot = TABLE_SLOT_BASE + bucket as usize;
            let row = self.table.row_mut(bucket as usize);
            optimizer
                .step(slot, row, row_grad)
                .map_err(EmbedderError::from)?;
        }
        Ok(())
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.table.len() + self.mlp.parameter_count()
    }

    /// Flattens all trainable parameters (table first, then MLP) — the
    /// vector exchanged between FL clients and the server.
    pub fn parameters(&self) -> Vector {
        let mut flat = Vec::with_capacity(self.parameter_count());
        flat.extend_from_slice(self.table.as_slice());
        flat.extend_from_slice(self.mlp.parameters().as_slice());
        Vector::from_vec(flat)
    }

    /// Loads parameters produced by [`QueryEncoder::parameters`].
    ///
    /// # Errors
    /// Returns [`EmbedderError::Shape`] when the length does not match.
    pub fn set_parameters(&mut self, flat: &Vector) -> Result<()> {
        if flat.len() != self.parameter_count() {
            return Err(EmbedderError::Shape(format!(
                "set_parameters: expected {}, got {}",
                self.parameter_count(),
                flat.len()
            )));
        }
        let slice = flat.as_slice();
        let table_len = self.table.len();
        self.table
            .as_mut_slice()
            .copy_from_slice(&slice[..table_len]);
        let mlp_params = Vector::from_vec(slice[table_len..].to_vec());
        self.mlp.set_parameters(&mlp_params)?;
        Ok(())
    }

    /// Bytes needed to store one deployment embedding from this encoder.
    pub fn embedding_storage_bytes(&self) -> usize {
        mc_tensor::quant::stored_embedding_bytes(self.output_dim())
    }

    /// Approximate model size in bytes (parameters only).
    pub fn model_bytes(&self) -> usize {
        self.parameter_count() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ModelProfile;
    use mc_nn::Adam;
    use proptest::prelude::*;

    fn encoder() -> QueryEncoder {
        QueryEncoder::new(ModelProfile::tiny(), 42).unwrap()
    }

    #[test]
    fn encode_produces_unit_length_embeddings() {
        let enc = encoder();
        let e = enc.encode("How do I plot a line in python?");
        assert_eq!(e.len(), 48);
        assert!((e.norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn encoding_is_deterministic() {
        let enc = encoder();
        let a = enc.encode("what is federated learning");
        let b = enc.encode("what is federated learning");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_models() {
        let a = QueryEncoder::new(ModelProfile::tiny(), 1).unwrap();
        let b = QueryEncoder::new(ModelProfile::tiny(), 2).unwrap();
        assert_ne!(
            a.encode("hello world").as_slice(),
            b.encode("hello world").as_slice()
        );
    }

    #[test]
    fn empty_query_is_handled_gracefully() {
        let enc = encoder();
        let e = enc.encode("");
        assert_eq!(e.len(), 48);
        assert!(e.as_slice().iter().all(|x| x.is_finite()));
        // similarity with a real query never panics
        let s = enc.similarity("", "draw a line");
        assert!(s.is_finite());
    }

    #[test]
    fn lexically_similar_queries_score_higher_even_untrained() {
        let enc = encoder();
        let dup = enc.similarity(
            "how can I increase the battery life of my smartphone",
            "how can I increase the battery life of my phone",
        );
        let unrelated = enc.similarity(
            "how can I increase the battery life of my smartphone",
            "best pasta recipe with tomatoes and basil",
        );
        assert!(
            dup > unrelated,
            "near-duplicate ({dup}) must outscore unrelated ({unrelated})"
        );
    }

    #[test]
    fn backward_gradients_match_numerical_gradients() {
        let enc = encoder();
        let text = "plot a bar chart in matplotlib";
        let fwd = enc.forward(text).unwrap();
        // Loss = sum of raw outputs.
        let d_output = vec![1.0f32; enc.raw_output_dim()];
        let mut grad = enc.zero_grad();
        enc.backward(&fwd, &d_output, &mut grad).unwrap();
        assert_eq!(grad.count, 1);
        assert!(grad.table_rows().next().is_some());

        // Numerically check one activated table row entry and one MLP weight.
        let loss_of = |e: &QueryEncoder| -> f32 { e.encode_raw(text).as_slice().iter().sum() };
        let h = 1e-2;
        let (bucket, row_grad) = grad.table_rows().next().unwrap();
        let mut perturbed = enc.clone();
        let orig = perturbed.table.get(bucket as usize, 0);
        perturbed.table.set(bucket as usize, 0, orig + h);
        let up = loss_of(&perturbed);
        perturbed.table.set(bucket as usize, 0, orig - h);
        let down = loss_of(&perturbed);
        let numeric = (up - down) / (2.0 * h);
        assert!(
            (numeric - row_grad[0]).abs() < 0.05 * (1.0 + numeric.abs()),
            "table grad: numeric={numeric} analytic={}",
            row_grad[0]
        );
    }

    #[test]
    fn training_step_moves_duplicates_closer() {
        let mut enc = encoder();
        let mut opt = Adam::new(0.02).unwrap();
        let a = "how do I extend my phone battery life";
        let b = "tips for extending the duration of my phone power source";
        let before = enc.similarity(a, b);
        // A few contrastive "pull together" steps on this single pair.
        for _ in 0..30 {
            let fa = enc.forward(a).unwrap();
            let fb = enc.forward(b).unwrap();
            let (_, ga, gb) =
                mc_nn::contrastive_loss_with_grad(fa.output(), fb.output(), true, 0.4);
            let mut grad = enc.zero_grad();
            enc.backward(&fa, &ga, &mut grad).unwrap();
            enc.backward(&fb, &gb, &mut grad).unwrap();
            enc.apply_gradients(&grad, &mut opt).unwrap();
        }
        let after = enc.similarity(a, b);
        assert!(
            after > before + 0.05,
            "training must increase duplicate similarity: before={before} after={after}"
        );
    }

    #[test]
    fn parameters_round_trip_preserves_behaviour() {
        let enc = encoder();
        let params = enc.parameters();
        assert_eq!(params.len(), enc.parameter_count());
        let mut other = QueryEncoder::new(ModelProfile::tiny(), 999).unwrap();
        assert_ne!(other.encode("abc"), enc.encode("abc"));
        other.set_parameters(&params).unwrap();
        assert_eq!(other.encode("abc"), enc.encode("abc"));
        assert!(other.set_parameters(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn pca_compression_reduces_dimension_and_keeps_neighbourhoods() {
        let mut enc = encoder();
        let corpus: Vec<String> = (0..40)
            .map(|i| format!("sample query number {i} about topic {}", i % 5))
            .collect();
        enc.fit_pca(&corpus, 8, 7).unwrap();
        assert!(enc.is_compressed());
        assert_eq!(enc.output_dim(), 8);
        assert_eq!(enc.raw_output_dim(), 48);
        let e = enc.encode("sample query number 3 about topic 3");
        assert_eq!(e.len(), 8);
        assert!((e.norm() - 1.0).abs() < 1e-4);
        // Storage accounting shrinks accordingly.
        assert!(enc.embedding_storage_bytes() < mc_tensor::quant::stored_embedding_bytes(48));
    }

    #[test]
    fn attach_pca_validates_dimensions() {
        let mut enc = encoder();
        // Fit a PCA on the wrong dimensionality (8-d random data).
        let data = mc_tensor::rng::uniform_matrix(30, 8, 1.0, &mut mc_tensor::rng::seeded(1));
        let pca = Pca::fit(&data, 2, 1).unwrap();
        assert!(enc.attach_pca(pca).is_err());
        // fit_pca on an empty corpus fails.
        assert!(enc.fit_pca(&[], 4, 1).is_err());
    }

    #[test]
    fn grad_accumulate_and_scale() {
        let enc = encoder();
        let fwd = enc.forward("query one about caching").unwrap();
        let d = vec![0.5f32; enc.raw_output_dim()];
        let mut g1 = enc.zero_grad();
        enc.backward(&fwd, &d, &mut g1).unwrap();
        let mut g2 = enc.zero_grad();
        enc.backward(&fwd, &d, &mut g2).unwrap();
        let n1 = g1.norm();
        g1.accumulate(&g2).unwrap();
        assert_eq!(g1.count, 2);
        assert!((g1.norm() - 2.0 * n1).abs() < 1e-3);
        g1.scale(0.5);
        assert!((g1.norm() - n1).abs() < 1e-3);
    }

    /// The gradient container as first written: one `Vec` per touched
    /// bucket in a `BTreeMap`, kept as the reference for the arena.
    #[derive(Clone, Default)]
    struct BTreeGrad {
        rows: std::collections::BTreeMap<u32, Vec<f32>>,
    }

    impl BTreeGrad {
        fn add(&mut self, bucket: u32, coeff: f32, d: &[f32]) {
            let row = self
                .rows
                .entry(bucket)
                .or_insert_with(|| vec![0.0; d.len()]);
            vector::axpy(coeff, d, row);
        }

        fn scale(&mut self, alpha: f32) {
            for row in self.rows.values_mut() {
                vector::scale(alpha, row);
            }
        }

        fn accumulate(&mut self, other: &BTreeGrad) {
            for (bucket, row) in &other.rows {
                match self.rows.get_mut(bucket) {
                    Some(existing) => vector::axpy(1.0, row, existing),
                    None => {
                        self.rows.insert(*bucket, row.clone());
                    }
                }
            }
        }

        fn norm(&self, mlp: &MlpGrad) -> f32 {
            let table: f32 = self.rows.values().map(|r| vector::norm_sq(r)).sum();
            (table + mlp.norm().powi(2)).sqrt()
        }
    }

    /// Bit patterns, every NaN folded to one.
    fn bits(values: &[f32]) -> Vec<u32> {
        let fold = |v: &f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
        values.iter().map(fold).collect()
    }

    fn assert_same(grad: &EncoderGrad, reference: &BTreeGrad, what: &str) {
        let got: Vec<(u32, Vec<u32>)> = grad.table_rows().map(|(b, r)| (b, bits(r))).collect();
        let want: Vec<(u32, Vec<u32>)> =
            reference.rows.iter().map(|(&b, r)| (b, bits(r))).collect();
        assert_eq!(got, want, "rows and their order, {what}");
        assert_eq!(
            bits(&[grad.norm()]),
            bits(&[reference.norm(&grad.mlp)]),
            "norm, {what}"
        );
    }

    /// A row update as `backward` makes it: `row(bucket) += coeff · d`.
    fn add(grad: &mut EncoderGrad, reference: &mut BTreeGrad, bucket: u32, coeff: f32, d: &[f32]) {
        vector::axpy(coeff, d, grad.row_mut(bucket));
        reference.add(bucket, coeff, d);
    }

    /// Values where a dropped update, a wrong order or a `-0.0` turned into
    /// `+0.0` would show.
    const SPECIALS: [f32; 8] = [
        0.0,
        -0.0,
        1.0e-45,
        -3.0e-40,
        f32::MAX,
        f32::INFINITY,
        f32::NAN,
        -1.0,
    ];

    fn update(seed: u64, dim: usize, adversarial: bool) -> Vec<f32> {
        let mut d = mc_tensor::rng::uniform_vec(dim, 2.0, &mut mc_tensor::rng::seeded(seed));
        if adversarial {
            for (i, v) in d
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| i % 5 == seed as usize % 5)
            {
                *v = SPECIALS[(i + seed as usize) % SPECIALS.len()];
            }
        }
        d
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random sequences of row updates, scalings, merges and clears:
        /// after every step the arena holds the reference's rows, bit for
        /// bit, walks them in its order, and reduces them to the same norm.
        #[test]
        fn gradient_arena_matches_the_btreemap_reference(
            ops in prop::collection::vec((0usize..8, 0u32..512, 0u64..1_000_000), 1..60),
            adversarial in prop::bool::ANY,
        ) {
            let enc = encoder();
            let dim = enc.profile().table_dim;
            let mut grad = enc.zero_grad();
            let mut reference = BTreeGrad::default();
            for (step, &(kind, bucket, seed)) in ops.iter().enumerate() {
                let coeff = [0.37, -1.0, 1.0e-3, 2.5][seed as usize % 4];
                match kind {
                    // Row updates are most of what a training step does.
                    0..=3 => add(&mut grad, &mut reference, bucket, coeff, &update(seed, dim, adversarial)),
                    4 => {
                        let alpha = [0.5, -1.0, 0.0, -0.0, 3.0e-39][seed as usize % 5];
                        grad.scale(alpha);
                        reference.scale(alpha);
                    }
                    5 | 6 => {
                        // Merge a second accumulator that overlaps this one
                        // in some buckets and not others; its rows may hold
                        // `-0.0` (after a negative scale), which a merge
                        // into an untouched bucket must copy as is.
                        let mut other = enc.zero_grad();
                        let mut other_ref = BTreeGrad::default();
                        for k in 0..(seed % 6) as u32 {
                            let b = (bucket + 37 * k) % 512;
                            add(&mut other, &mut other_ref, b, coeff, &update(seed + u64::from(k), dim, adversarial));
                        }
                        if kind == 6 {
                            other.scale(-1.0);
                            other_ref.scale(-1.0);
                        }
                        grad.accumulate(&other).unwrap();
                        reference.accumulate(&other_ref);
                    }
                    _ => {
                        grad.clear();
                        reference = BTreeGrad::default();
                    }
                }
                assert_same(&grad, &reference, &format!("step {step} op {kind}"));
            }
        }
    }

    #[test]
    fn accumulate_rejects_a_gradient_of_another_shape() {
        let mut grad = encoder().zero_grad();
        let other = QueryEncoder::new(ModelProfile::compact(crate::ProfileKind::AlbertLike), 1)
            .unwrap()
            .zero_grad();
        assert!(grad.accumulate(&other).is_err());
    }

    #[test]
    fn backward_rejects_wrong_gradient_dimension() {
        let enc = encoder();
        let fwd = enc.forward("hello").unwrap();
        let mut grad = enc.zero_grad();
        assert!(enc.backward(&fwd, &[1.0, 2.0], &mut grad).is_err());
    }

    #[test]
    fn model_size_accounting() {
        let enc = encoder();
        assert_eq!(enc.model_bytes(), enc.parameter_count() * 4);
        assert!(enc.parameter_count() > 0);
    }
}
