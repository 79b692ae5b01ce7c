//! Local multitask training loop (Section III-A1).
//!
//! Each federated client fine-tunes its copy of the encoder on its own
//! labelled query pairs using two objectives:
//!
//! * **Contrastive loss** over every pair in the mini-batch — pushes
//!   non-duplicates apart and duplicates together.
//! * **Multiple-negatives ranking (MNR) loss** over the duplicate pairs of
//!   the mini-batch — treats every other positive in the batch as a negative
//!   and pulls the true pair to the top of the ranking.
//!
//! The same trainer is used standalone (centralised training baselines) and
//! inside `mc-fl`'s clients.

use std::collections::HashMap;

use mc_nn::loss::MultitaskWeights;
use mc_nn::{contrastive_loss_with_grad, mnr_loss_with_grad, Adam};
use mc_tensor::{rng, vector, Matrix};
use mc_text::{HashedFeatures, PairDataset};
use serde::{Deserialize, Serialize};

use crate::encoder::EncoderForward;
use crate::{QueryEncoder, Result};

/// Hyper-parameters of the local training loop. These mirror the knobs the
/// FL server ships to clients alongside the global model (learning rate,
/// batch size, epochs — Section III-A, step 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Mini-batch size (the paper uses 128 for MPNet and 256 for Albert).
    pub batch_size: usize,
    /// Number of local epochs per round (the paper uses 6).
    pub epochs: usize,
    /// Loss weights / margins for the multitask objective.
    pub weights: MultitaskWeightsConfig,
    /// Global-norm gradient clip (0 disables clipping).
    pub grad_clip: f32,
    /// Seed for mini-batch shuffling.
    pub seed: u64,
}

/// Serialisable mirror of [`MultitaskWeights`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultitaskWeightsConfig {
    /// Weight of the contrastive term.
    pub contrastive: f32,
    /// Weight of the MNR term.
    pub mnr: f32,
    /// Contrastive margin for non-duplicate pairs.
    pub margin: f32,
    /// MNR logit scale.
    pub mnr_scale: f32,
}

impl From<MultitaskWeightsConfig> for MultitaskWeights {
    fn from(c: MultitaskWeightsConfig) -> Self {
        MultitaskWeights {
            contrastive: c.contrastive,
            mnr: c.mnr,
            margin: c.margin,
            mnr_scale: c.mnr_scale,
        }
    }
}

impl Default for MultitaskWeightsConfig {
    fn default() -> Self {
        let w = MultitaskWeights::default();
        Self {
            contrastive: w.contrastive,
            mnr: w.mnr,
            margin: w.margin,
            mnr_scale: w.mnr_scale,
        }
    }
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.01,
            batch_size: 32,
            epochs: 2,
            weights: MultitaskWeightsConfig::default(),
            grad_clip: 5.0,
            seed: 0,
        }
    }
}

/// Statistics produced by one training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TrainingStats {
    /// Mean total loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean contrastive loss per epoch.
    pub contrastive_losses: Vec<f32>,
    /// Mean MNR loss per epoch.
    pub mnr_losses: Vec<f32>,
    /// Number of pairs seen per epoch.
    pub pairs_per_epoch: usize,
}

impl TrainingStats {
    /// The final epoch's mean loss (0 if no epochs ran).
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(0.0)
    }

    /// `true` if the loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(first), Some(last)) => last < first,
            _ => false,
        }
    }
}

/// One labelled pair of a mini-batch: the two queries' hashed features and
/// whether they are duplicates.
type BatchPair<'a> = (&'a HashedFeatures, &'a HashedFeatures, bool);

/// The hashed features of a dataset's queries, each distinct text hashed
/// once. Hashing depends only on the text (never on the weights training
/// changes), so one pass serves every epoch; the pair generator draws its
/// queries from a bank, so most texts also recur across pairs.
struct PairFeatures {
    distinct: Vec<HashedFeatures>,
    /// Per pair, the `distinct` slots of `query_a` and `query_b`.
    slots: Vec<(usize, usize)>,
}

impl PairFeatures {
    fn hash(encoder: &QueryEncoder, dataset: &PairDataset) -> Self {
        let mut distinct = Vec::new();
        let mut slot_of: HashMap<&str, usize> = HashMap::new();
        let mut slots = Vec::with_capacity(dataset.len());
        for pair in &dataset.pairs {
            let [a, b] = [&pair.query_a, &pair.query_b].map(|text| {
                *slot_of.entry(text.as_str()).or_insert_with(|| {
                    distinct.push(encoder.features(text));
                    distinct.len() - 1
                })
            });
            slots.push((a, b));
        }
        Self { distinct, slots }
    }

    fn of_pair(&self, i: usize) -> (&HashedFeatures, &HashedFeatures) {
        let (a, b) = self.slots[i];
        (&self.distinct[a], &self.distinct[b])
    }
}

/// Runs the multitask training loop against a [`QueryEncoder`].
#[derive(Debug, Clone)]
pub struct LocalTrainer {
    config: TrainerConfig,
}

impl LocalTrainer {
    /// Creates a trainer from a configuration.
    pub fn new(config: TrainerConfig) -> Self {
        Self { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Trains `encoder` in place on `dataset` and returns per-epoch stats.
    ///
    /// # Errors
    /// Propagates shape errors from the underlying NN substrate (these only
    /// occur on construction bugs, not on data).
    pub fn train(
        &self,
        encoder: &mut QueryEncoder,
        dataset: &PairDataset,
    ) -> Result<TrainingStats> {
        let mut stats = TrainingStats {
            pairs_per_epoch: dataset.len(),
            ..TrainingStats::default()
        };
        if dataset.is_empty() {
            return Ok(stats);
        }
        let weights: MultitaskWeights = self.config.weights.into();
        let mut optimizer =
            Adam::new(self.config.learning_rate).map_err(crate::EmbedderError::from)?;
        let mut shuffle_rng = rng::seeded(self.config.seed);
        let features = PairFeatures::hash(encoder, dataset);

        for _epoch in 0..self.config.epochs.max(1) {
            let order = rng::permutation(dataset.len(), &mut shuffle_rng);
            let mut epoch_loss = 0.0f32;
            let mut epoch_contrastive = 0.0f32;
            let mut epoch_mnr = 0.0f32;
            let mut batches = 0usize;

            for chunk in order.chunks(self.config.batch_size.max(1)) {
                let batch: Vec<BatchPair<'_>> = chunk
                    .iter()
                    .map(|&i| {
                        let (a, b) = features.of_pair(i);
                        (a, b, dataset.pairs[i].is_duplicate)
                    })
                    .collect();
                let (loss, c_loss, m_loss) =
                    self.train_batch(encoder, &batch, &weights, &mut optimizer)?;
                epoch_loss += loss;
                epoch_contrastive += c_loss;
                epoch_mnr += m_loss;
                batches += 1;
            }
            let b = batches.max(1) as f32;
            stats.epoch_losses.push(epoch_loss / b);
            stats.contrastive_losses.push(epoch_contrastive / b);
            stats.mnr_losses.push(epoch_mnr / b);
        }
        Ok(stats)
    }

    /// Trains on a single mini-batch, returning (total, contrastive, mnr)
    /// mean losses for the batch.
    fn train_batch(
        &self,
        encoder: &mut QueryEncoder,
        batch: &[BatchPair<'_>],
        weights: &MultitaskWeights,
        optimizer: &mut Adam,
    ) -> Result<(f32, f32, f32)> {
        if batch.is_empty() {
            return Ok((0.0, 0.0, 0.0));
        }
        let mut grad = encoder.zero_grad();
        let mut contrastive_total = 0.0f32;
        let mut mnr_total = 0.0f32;

        // Forward passes are cached so the MNR term can reuse them.
        let forwards: Vec<_> = batch
            .iter()
            .map(|&(a, b, _)| {
                let fa = encoder.forward_features(a.clone())?;
                let fb = encoder.forward_features(b.clone())?;
                Ok((fa, fb))
            })
            .collect::<Result<Vec<_>>>()?;

        // Contrastive term over every pair.
        if weights.contrastive > 0.0 {
            let scale = weights.contrastive / batch.len() as f32;
            for (&(_, _, is_duplicate), (fa, fb)) in batch.iter().zip(&forwards) {
                let (loss, mut ga, mut gb) = contrastive_loss_with_grad(
                    fa.output(),
                    fb.output(),
                    is_duplicate,
                    weights.margin,
                );
                contrastive_total += loss;
                vector::scale(scale, &mut ga);
                vector::scale(scale, &mut gb);
                encoder.backward(fa, &ga, &mut grad)?;
                encoder.backward(fb, &gb, &mut grad)?;
            }
            contrastive_total /= batch.len() as f32;
        }

        // MNR term over the duplicate pairs of the batch (needs >= 2 pairs so
        // there is at least one in-batch negative).
        let duplicates: Vec<&(EncoderForward, EncoderForward)> = batch
            .iter()
            .zip(&forwards)
            .filter(|((_, _, is_duplicate), _)| *is_duplicate)
            .map(|(_, pair)| pair)
            .collect();
        if weights.mnr > 0.0 && duplicates.len() >= 2 {
            let stack = |side: fn(&(EncoderForward, EncoderForward)) -> &EncoderForward| {
                let outputs = duplicates.iter().flat_map(|pair| side(pair).output());
                let flat: Vec<f32> = outputs.copied().collect();
                Matrix::from_vec(duplicates.len(), encoder.raw_output_dim(), flat)
            };
            let anchors = stack(|pair| &pair.0)?;
            let positives = stack(|pair| &pair.1)?;
            let (loss, mut d_anchors, mut d_positives) =
                mnr_loss_with_grad(&anchors, &positives, weights.mnr_scale)?;
            mnr_total = loss;
            d_anchors.scale(weights.mnr);
            d_positives.scale(weights.mnr);
            for (row, (fa, fb)) in duplicates.iter().enumerate() {
                encoder.backward(fa, d_anchors.row(row), &mut grad)?;
                encoder.backward(fb, d_positives.row(row), &mut grad)?;
            }
        }

        if self.config.grad_clip > 0.0 {
            let norm = grad.norm();
            if norm > self.config.grad_clip {
                grad.scale(self.config.grad_clip / norm);
            }
        }
        encoder.apply_gradients(&grad, optimizer)?;
        let total = weights.contrastive * contrastive_total + weights.mnr * mnr_total;
        Ok((total, contrastive_total, mnr_total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ModelProfile;
    use mc_text::QueryPair;

    /// A small dataset with clear duplicate / non-duplicate structure.
    fn toy_dataset() -> PairDataset {
        let mut pairs = Vec::new();
        let topics = [
            (
                "plot a line chart in python",
                "draw a line graph with python",
            ),
            (
                "increase phone battery life",
                "extend my smartphone battery duration",
            ),
            (
                "what is federated learning",
                "explain federated learning to me",
            ),
            (
                "convert celsius to fahrenheit",
                "how to change celsius into fahrenheit",
            ),
            (
                "best way to learn rust",
                "good approach for learning the rust language",
            ),
            ("capital city of france", "what is the capital of france"),
        ];
        for (a, b) in topics {
            pairs.push(QueryPair::new(a, b, true));
        }
        // Non-duplicates: mismatched topic pairs.
        for i in 0..topics.len() {
            let j = (i + 2) % topics.len();
            pairs.push(QueryPair::new(topics[i].0, topics[j].1, false));
        }
        PairDataset::new(pairs)
    }

    fn separation(encoder: &QueryEncoder, ds: &PairDataset) -> f32 {
        let mut dup = 0.0f32;
        let mut dup_n = 0;
        let mut non = 0.0f32;
        let mut non_n = 0;
        for p in &ds.pairs {
            let s = encoder.similarity(&p.query_a, &p.query_b);
            if p.is_duplicate {
                dup += s;
                dup_n += 1;
            } else {
                non += s;
                non_n += 1;
            }
        }
        dup / dup_n.max(1) as f32 - non / non_n.max(1) as f32
    }

    #[test]
    fn training_reduces_loss_and_improves_separation() {
        let mut encoder = QueryEncoder::new(ModelProfile::tiny(), 3).unwrap();
        let ds = toy_dataset();
        let before = separation(&encoder, &ds);
        let trainer = LocalTrainer::new(TrainerConfig {
            learning_rate: 0.02,
            batch_size: 6,
            epochs: 8,
            seed: 1,
            ..TrainerConfig::default()
        });
        let stats = trainer.train(&mut encoder, &ds).unwrap();
        assert_eq!(stats.epoch_losses.len(), 8);
        assert_eq!(stats.pairs_per_epoch, ds.len());
        assert!(
            stats.improved(),
            "loss must decrease: {:?}",
            stats.epoch_losses
        );
        let after = separation(&encoder, &ds);
        assert!(
            after > before,
            "duplicate/non-duplicate separation must improve: before={before} after={after}"
        );
    }

    /// FNV-1a over the little-endian bits of every parameter.
    fn parameter_checksum(encoder: &QueryEncoder) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325;
        for x in encoder.parameters().as_slice() {
            for byte in x.to_bits().to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x100000001b3);
            }
        }
        hash
    }

    /// Training is a long chain of reductions (every `dot` of every
    /// `matvec`, every gradient norm) feeding element-wise updates. The
    /// element-wise loops may be rewritten freely; a reordered reduction
    /// changes the trained weights in their last bits, which this pin turns
    /// into a test failure instead of a drift in benchmark quality. One
    /// constant per kernel implementation, because the two round their
    /// multiply-adds differently (see `mc_tensor::kernels`); both were
    /// recorded on the commit before the loops were rewritten.
    #[test]
    fn trained_weights_are_pinned_bit_for_bit() {
        let expected: u64 = match mc_tensor::kernels::active_isa() {
            "avx2+fma" => 0x1450_1992_af4d_0b8a,
            "portable" => 0x57b8_1be0_0c72_05e7,
            other => panic!("no pinned checksum for kernel implementation {other:?}"),
        };
        let mut encoder = QueryEncoder::new(ModelProfile::tiny(), 3).unwrap();
        let trainer = LocalTrainer::new(TrainerConfig {
            learning_rate: 0.02,
            batch_size: 6,
            epochs: 8,
            seed: 1,
            ..TrainerConfig::default()
        });
        trainer.train(&mut encoder, &toy_dataset()).unwrap();
        assert_eq!(
            parameter_checksum(&encoder),
            expected,
            "trained weights moved: a reduction in the training path changed order or rounding"
        );
    }

    #[test]
    fn empty_dataset_is_a_no_op() {
        let mut encoder = QueryEncoder::new(ModelProfile::tiny(), 3).unwrap();
        let params_before = encoder.parameters();
        let trainer = LocalTrainer::new(TrainerConfig::default());
        let stats = trainer
            .train(&mut encoder, &PairDataset::default())
            .unwrap();
        assert!(stats.epoch_losses.is_empty());
        assert_eq!(stats.final_loss(), 0.0);
        assert!(!stats.improved());
        assert_eq!(encoder.parameters(), params_before);
    }

    #[test]
    fn training_is_deterministic_for_a_fixed_seed() {
        let ds = toy_dataset();
        let cfg = TrainerConfig {
            epochs: 2,
            seed: 7,
            ..TrainerConfig::default()
        };
        let mut e1 = QueryEncoder::new(ModelProfile::tiny(), 5).unwrap();
        let mut e2 = QueryEncoder::new(ModelProfile::tiny(), 5).unwrap();
        LocalTrainer::new(cfg.clone()).train(&mut e1, &ds).unwrap();
        LocalTrainer::new(cfg).train(&mut e2, &ds).unwrap();
        assert_eq!(e1.parameters(), e2.parameters());
    }

    #[test]
    fn contrastive_only_and_mnr_only_both_train() {
        let ds = toy_dataset();
        for (c, m) in [(1.0f32, 0.0f32), (0.0, 1.0)] {
            let mut enc = QueryEncoder::new(ModelProfile::tiny(), 11).unwrap();
            let cfg = TrainerConfig {
                weights: MultitaskWeightsConfig {
                    contrastive: c,
                    mnr: m,
                    ..MultitaskWeightsConfig::default()
                },
                epochs: 4,
                learning_rate: 0.02,
                ..TrainerConfig::default()
            };
            let before = separation(&enc, &ds);
            LocalTrainer::new(cfg).train(&mut enc, &ds).unwrap();
            let after = separation(&enc, &ds);
            assert!(
                after > before - 0.01,
                "objective (c={c},m={m}) must not hurt separation: {before} -> {after}"
            );
        }
    }

    #[test]
    fn gradient_clipping_keeps_parameters_finite() {
        let ds = toy_dataset();
        let mut enc = QueryEncoder::new(ModelProfile::tiny(), 13).unwrap();
        let cfg = TrainerConfig {
            learning_rate: 0.5, // aggressive
            grad_clip: 1.0,
            epochs: 3,
            ..TrainerConfig::default()
        };
        LocalTrainer::new(cfg).train(&mut enc, &ds).unwrap();
        assert!(enc.parameters().as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn config_serde_round_trip() {
        let cfg = TrainerConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: TrainerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
