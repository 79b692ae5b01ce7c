//! Shared experiment setup: workload corpus, trained encoders, deployed
//! caches, and the common evaluation plumbing the experiment functions reuse.

use mc_embedder::{
    optimal_cache_threshold, LocalTrainer, ModelProfile, ProfileKind, QueryEncoder, TrainerConfig,
};
use mc_llm::{SimulatedLlm, SimulatedLlmConfig};
use mc_text::PairDataset;
use mc_workloads::{followup_training_pairs, generate_pairs, TopicBank};
use meancache::{
    Deployment, DeploymentReport, GptCacheBaseline, GptCacheConfig, MeanCache, MeanCacheConfig,
    ProbeSpec, SemanticCache,
};

/// Master seed for every experiment (deterministic end to end).
pub const EXPERIMENT_SEED: u64 = 2024;

/// GPTCache's fixed threshold from the paper's baseline configuration.
pub const GPTCACHE_THRESHOLD: f32 = 0.7;

/// Response-token cap used by the latency experiments (as in the paper).
pub const RESPONSE_TOKENS: usize = 50;

/// The corpus every experiment draws from.
pub struct ExperimentCorpus {
    /// The topic bank (queries + paraphrases).
    pub bank: TopicBank,
    /// Labelled training pairs (the GPTCache-style dataset).
    pub train: PairDataset,
    /// Labelled validation pairs (threshold calibration).
    pub validation: PairDataset,
}

impl ExperimentCorpus {
    /// Builds the standard corpus.
    pub fn standard() -> Self {
        let bank = TopicBank::generate(EXPERIMENT_SEED);
        let mut train = generate_pairs(&bank, 1400, 0.5, EXPERIMENT_SEED);
        train.extend(&followup_training_pairs());
        let mut validation = generate_pairs(&bank, 400, 0.5, EXPERIMENT_SEED + 1);
        validation.extend(&followup_training_pairs());
        Self {
            bank,
            train,
            validation,
        }
    }
}

/// A trained encoder plus its cache-calibrated optimal threshold.
pub struct TrainedModel {
    /// The fine-tuned encoder.
    pub encoder: QueryEncoder,
    /// Learned cosine threshold τ (cache-style calibration, β = 0.5).
    pub threshold: f32,
    /// Which paper model this mirrors.
    pub kind: ProfileKind,
}

/// Trains an encoder of the given kind on the corpus the way a MeanCache
/// client would (multitask contrastive + MNR), then calibrates its threshold
/// against cache-style validation scoring.
pub fn train_model(kind: ProfileKind, corpus: &ExperimentCorpus, epochs: usize) -> TrainedModel {
    let profile = ModelProfile::compact(kind);
    let mut encoder =
        QueryEncoder::new(profile, EXPERIMENT_SEED).expect("experiment profile is valid");
    let trainer = LocalTrainer::new(TrainerConfig {
        learning_rate: 0.02,
        batch_size: 32,
        epochs,
        seed: EXPERIMENT_SEED,
        ..TrainerConfig::default()
    });
    trainer
        .train(&mut encoder, &corpus.train)
        .expect("training on the experiment corpus succeeds");
    let threshold =
        optimal_cache_threshold(&encoder, &corpus.validation, 100, 0.5).clamp(0.2, 0.98);
    TrainedModel {
        encoder,
        threshold,
        kind,
    }
}

/// An *untrained* encoder of the given kind, used for the GPTCache baseline
/// (off-the-shelf embeddings, fixed threshold) and the Llama-2 feasibility
/// study.
pub fn untrained_encoder(kind: ProfileKind) -> QueryEncoder {
    QueryEncoder::new(ModelProfile::compact(kind), EXPERIMENT_SEED)
        .expect("experiment profile is valid")
}

/// Builds a MeanCache deployment around a trained model, using the default
/// (flat/exact) vector-index backend.
pub fn meancache_deployment(model: &TrainedModel) -> Deployment<MeanCache> {
    let cache = MeanCache::new(
        model.encoder.clone(),
        MeanCacheConfig::default().with_threshold(model.threshold),
    )
    .expect("valid cache config");
    Deployment::new(cache, simulated_llm(), u64::MAX, RESPONSE_TOKENS)
}

/// Builds a GPTCache-style baseline deployment (Albert-like untrained
/// encoder, fixed 0.7 threshold, server-side round trip).
pub fn gptcache_deployment() -> Deployment<GptCacheBaseline> {
    let cache = GptCacheBaseline::new(
        untrained_encoder(ProfileKind::AlbertLike),
        GptCacheConfig {
            threshold: GPTCACHE_THRESHOLD,
            ..GptCacheConfig::default()
        },
    )
    .expect("valid baseline config");
    Deployment::new(cache, simulated_llm(), u64::MAX, RESPONSE_TOKENS)
}

/// The simulated LLM web service all experiments share.
pub fn simulated_llm() -> SimulatedLlm {
    SimulatedLlm::new(SimulatedLlmConfig {
        seed: EXPERIMENT_SEED,
        ..SimulatedLlmConfig::default()
    })
    .expect("default LLM config is valid")
}

/// Populates a deployment (context-free) and runs labelled standalone probes.
pub fn run_standalone<C: SemanticCache>(
    deployment: &mut Deployment<C>,
    populate: &[(String, usize)],
    probes: &[(String, bool)],
) -> DeploymentReport {
    let items: Vec<(String, Vec<String>)> = populate
        .iter()
        .map(|(q, _)| (q.clone(), Vec::new()))
        .collect();
    deployment.populate(&items).expect("populate succeeds");
    let specs: Vec<ProbeSpec> = probes
        .iter()
        .map(|(q, should_hit)| ProbeSpec::standalone(q.clone(), *should_hit))
        .collect();
    deployment.run(&specs).expect("probe run succeeds")
}

/// Like [`run_standalone`], but replays the probes through the cache's
/// batched lookup path (one `search_batch` pass over the vector index).
/// Requires a frozen deployment; the big frozen-cache sweeps use this so
/// replay cost is dominated by search, not per-probe dispatch.
pub fn run_standalone_batched<C: SemanticCache>(
    deployment: &mut Deployment<C>,
    populate: &[(String, usize)],
    probes: &[(String, bool)],
) -> DeploymentReport {
    let items: Vec<(String, Vec<String>)> = populate
        .iter()
        .map(|(q, _)| (q.clone(), Vec::new()))
        .collect();
    deployment.populate(&items).expect("populate succeeds");
    let specs: Vec<ProbeSpec> = probes
        .iter()
        .map(|(q, should_hit)| ProbeSpec::standalone(q.clone(), *should_hit))
        .collect();
    deployment
        .run_batched(&specs)
        .expect("batched probe replay succeeds on a frozen cache")
}

/// Populates a deployment with a contextual workload and runs its probes.
pub fn run_contextual<C: SemanticCache>(
    deployment: &mut Deployment<C>,
    workload: &mc_workloads::ContextualWorkload,
) -> DeploymentReport {
    let items: Vec<(String, Vec<String>)> = workload
        .populate
        .iter()
        .map(|item| {
            let context = item
                .parent
                .map(|p| vec![workload.populate[p].text.clone()])
                .unwrap_or_default();
            (item.text.clone(), context)
        })
        .collect();
    deployment.populate(&items).expect("populate succeeds");
    let specs: Vec<ProbeSpec> = workload
        .probes
        .iter()
        .map(|p| ProbeSpec::contextual(p.text.clone(), p.context.clone(), p.should_hit))
        .collect();
    deployment.run(&specs).expect("probe run succeeds")
}

/// Renders a confusion matrix the way the paper's Figures 7/9 present them.
pub fn format_confusion(name: &str, c: &mc_metrics::ConfusionMatrix) -> String {
    format!(
        "{name}: [[TN={} FP={}] [FN={} TP={}]]  (predicted miss/hit columns, real miss/hit rows)",
        c.true_misses, c.false_hits, c.false_misses, c.true_hits
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_and_models_build() {
        let corpus = ExperimentCorpus::standard();
        assert!(corpus.train.len() > 1000);
        assert!(corpus.validation.len() > 300);
        let model = train_model(ProfileKind::AlbertLike, &corpus, 1);
        assert!((0.2..=0.98).contains(&model.threshold));
        assert_eq!(model.kind, ProfileKind::AlbertLike);
        let _ = meancache_deployment(&model);
        let _ = gptcache_deployment();
    }
}
