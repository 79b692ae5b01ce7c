//! GPTCache-style baseline: a server-side semantic cache with a fixed
//! threshold and no context verification.
//!
//! The paper compares against GPTCache in its "optimal configuration":
//! Albert embeddings with a fixed cosine threshold of 0.7 (Section IV-A).
//! Architecturally GPTCache differs from MeanCache in three ways this
//! baseline reproduces:
//!
//! 1. It runs on the **server side**, so even a cache hit costs the user a
//!    network round-trip (and, in practice, still gets billed).
//! 2. It does **not verify conversational context**, so lexically similar
//!    follow-ups from different conversations produce false hits.
//! 3. Its threshold is **fixed** (no per-user adaptation / federated
//!    optimum).

use mc_embedder::QueryEncoder;
use mc_store::IndexKind;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheDecisionOutcome, SemanticCache};
use crate::shard::ShardedCache;
use crate::{MeanCacheConfig, Result};

/// Configuration of the GPTCache-style baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GptCacheConfig {
    /// Fixed cosine-similarity threshold (GPTCache's suggested 0.7).
    pub threshold: f32,
    /// Candidate pool size per lookup.
    pub top_k: usize,
    /// Maximum number of cached entries.
    pub capacity: usize,
    /// Network round-trip to reach the server-side cache, in seconds. Every
    /// lookup pays this even when the result is a hit.
    pub network_rtt_s: f64,
    /// Vector-index row codec for the server-side store. A server cache
    /// pools *all* users' queries, so its exact scan grows with every user;
    /// [`IndexKind::flat_sq8`] quarters the resident embedding bytes and the
    /// bytes each scan streams.
    pub index: IndexKind,
    /// Shard count for the server-side store. The baseline stands on a
    /// [`ShardedCache`] built from [`GptCacheConfig::to_cache_config`], so
    /// `shards > 1` gives the server the same concurrent-probe story as the
    /// MeanCache serving layer — at the same recall trade (a paraphrase only
    /// finds its original's shard with probability `1/N`; exact repeats
    /// always route correctly, and this baseline has no context chains to
    /// keep affine). `1` (the default) is decision-identical to the
    /// pre-sharding single-`MeanCache` baseline; `0` is normalised to `1`
    /// for configs written before this field existed.
    #[serde(default)]
    pub shards: usize,
    /// How the sharded server-side store routes queries to shards (see
    /// [`crate::RoutingMode`]). [`crate::RoutingMode::Centroid`] or
    /// [`crate::RoutingMode::ScatterGather`] recover the paraphrase recall
    /// that hash sharding trades away — particularly relevant for this
    /// baseline, whose pooled multi-user cache is exactly the
    /// paraphrase-heavy shape semantic routing targets. Serde-defaulted to
    /// hash for configs written before this field existed.
    #[serde(default)]
    pub routing: crate::RoutingMode,
}

impl Default for GptCacheConfig {
    fn default() -> Self {
        Self {
            threshold: 0.7,
            top_k: 5,
            capacity: 1_000_000,
            network_rtt_s: 0.08,
            index: IndexKind::default(),
            shards: 1,
            routing: crate::RoutingMode::Hash,
        }
    }
}

impl GptCacheConfig {
    /// The [`MeanCacheConfig`] this baseline translates to: same threshold,
    /// candidate pool, capacity, index backend, shard count and routing
    /// mode, with context verification disabled (the defining difference).
    pub fn to_cache_config(&self) -> MeanCacheConfig {
        MeanCacheConfig {
            threshold: self.threshold,
            top_k: self.top_k,
            capacity: self.capacity,
            index: self.index.clone(),
            shards: self.shards,
            routing: self.routing,
            context_checking: false,
            ..MeanCacheConfig::default()
        }
    }
}

/// The server-side baseline cache: a (possibly sharded) context-oblivious
/// store behind a simulated network round-trip. With `shards = 1` the
/// sharded wrapper routes everything to its single shard, so decisions,
/// ids and statistics are identical to the historical single-`MeanCache`
/// baseline.
#[derive(Debug, Clone)]
pub struct GptCacheBaseline {
    inner: ShardedCache,
    network_rtt_s: f64,
}

impl GptCacheBaseline {
    /// Creates the baseline around an encoder (the paper's configuration uses
    /// the Albert model).
    ///
    /// # Errors
    /// Returns [`crate::CacheError::InvalidConfig`] for invalid settings.
    pub fn new(encoder: QueryEncoder, config: GptCacheConfig) -> Result<Self> {
        let inner = ShardedCache::new(encoder, config.to_cache_config())?;
        Ok(Self {
            inner,
            network_rtt_s: config.network_rtt_s.max(0.0),
        })
    }

    /// The fixed threshold in use.
    pub fn threshold(&self) -> f32 {
        self.inner.threshold()
    }

    /// Borrow the underlying encoder.
    pub fn encoder(&self) -> &QueryEncoder {
        self.inner.encoder()
    }

    /// Number of server-side shards ([`GptCacheConfig::shards`]).
    pub fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    /// Aggregated cache statistics across the server's shards.
    pub fn stats(&self) -> crate::cache::CacheStats {
        self.inner.stats()
    }

    /// Borrow the sharded server store (concurrent harnesses probe it
    /// directly through [`ShardedCache`]'s shared read/write paths).
    pub fn store(&self) -> &ShardedCache {
        &self.inner
    }
}

impl SemanticCache for GptCacheBaseline {
    fn probe(&self, query: &str, context: &[String]) -> CacheDecisionOutcome {
        // Context is ignored by design.
        let _ = context;
        self.inner.probe(query, &[])
    }

    fn commit(&mut self, outcome: &CacheDecisionOutcome) {
        self.inner.commit(outcome);
    }

    fn probe_batch(&self, probes: &[(&str, &[String])]) -> Vec<CacheDecisionOutcome> {
        // Context is ignored by design — and must be *stripped*, not merely
        // unchecked: the sharded store routes by the conversation root, and
        // inserts store standalone queries, so a context-bearing probe would
        // route to its conversation's shard while the entry lives on the
        // query's shard.
        let stripped: Vec<(&str, &[String])> =
            probes.iter().map(|(query, _)| (*query, &[][..])).collect();
        self.inner.probe_batch(&stripped)
    }

    fn insert(&mut self, query: &str, response: &str, _context: &[String]) -> Result<u64> {
        // The server-side cache stores the query without context linkage.
        self.inner.insert(query, response, &[])
    }

    fn lookup_network_overhead_s(&self) -> f64 {
        self.network_rtt_s
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }

    fn embedding_bytes(&self) -> usize {
        self.inner.embedding_bytes()
    }

    fn name(&self) -> String {
        // The single-shard name stays exactly what pre-sharding reports
        // printed; a sharded server annotates its shard count.
        match self.inner.shard_count() {
            1 => format!("GPTCache({})", self.inner.encoder().profile().kind),
            n => format!(
                "GPTCache[{n} shards]({})",
                self.inner.encoder().profile().kind
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_embedder::ModelProfile;

    fn baseline() -> GptCacheBaseline {
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
        GptCacheBaseline::new(
            encoder,
            GptCacheConfig {
                threshold: 0.6,
                ..GptCacheConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn default_configuration_matches_the_paper() {
        let cfg = GptCacheConfig::default();
        assert!((cfg.threshold - 0.7).abs() < 1e-6);
        assert!(cfg.network_rtt_s > 0.0);
    }

    #[test]
    fn behaves_as_a_semantic_cache_on_standalone_queries() {
        let mut cache = baseline();
        cache
            .insert("how do I bake sourdough bread", "Long fermentation.", &[])
            .unwrap();
        assert!(cache
            .lookup("how do I bake sourdough bread at home", &[])
            .is_hit());
        assert!(cache.lookup("tips for visiting iceland", &[]).is_miss());
        assert_eq!(cache.len(), 1);
        assert!(cache.storage_bytes() > 0);
        assert!(cache.name().contains("GPTCache"));
    }

    #[test]
    fn ignores_context_and_therefore_false_hits_on_contextual_probes() {
        let mut cache = baseline();
        cache
            .insert("draw a line plot in python", "Use plt.plot.", &[])
            .unwrap();
        cache
            .insert(
                "change the color to red",
                "Pass color='red' to plt.plot.",
                &["draw a line plot in python".to_string()],
            )
            .unwrap();
        // Different conversation, same follow-up wording: GPTCache wrongly
        // serves the cached response (the paper's Figure 8a failure mode).
        let outcome = cache.lookup("change the color to red", &["draw a circle".to_string()]);
        assert!(outcome.is_hit());
    }

    #[test]
    fn sharded_baseline_serves_like_the_single_shard_one() {
        let single = baseline();
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
        let sharded = GptCacheBaseline::new(
            encoder,
            GptCacheConfig {
                threshold: 0.6,
                shards: 4,
                ..GptCacheConfig::default()
            },
        )
        .unwrap();
        assert_eq!(single.shard_count(), 1);
        assert_eq!(sharded.shard_count(), 4);
        assert!(single.name().starts_with("GPTCache("));
        assert!(sharded.name().contains("[4 shards]"));

        let mut caches = [single, sharded];
        for cache in &mut caches {
            for (q, r) in [
                ("how do I bake sourdough bread", "Ferment overnight."),
                ("what is federated learning", "On-device training."),
                ("draw a line plot in python", "Use plt.plot."),
            ] {
                cache.insert(q, r, &[]).unwrap();
            }
        }
        // Exact repeats route correctly on any shard count, and the context
        // is ignored *and stripped*: a context-bearing probe must still find
        // the entry its query text routes to (the false-hit failure mode the
        // baseline exists to demonstrate) — on both the single-probe and the
        // batched path.
        let ctx = vec!["draw a circle".to_string()];
        for cache in &mut caches {
            assert!(cache.lookup("what is federated learning", &[]).is_hit());
            assert!(cache.lookup("what is federated learning", &ctx).is_hit());
            assert!(cache.lookup("entirely uncached topic", &[]).is_miss());
            let batched = cache.probe_batch(&[
                ("how do I bake sourdough bread", &ctx[..]),
                ("entirely uncached topic", &[][..]),
            ]);
            assert!(batched[0].is_hit(), "{}", cache.name());
            assert!(batched[1].is_miss());
        }
        assert_eq!(caches[0].stats(), caches[1].stats());
        assert_eq!(caches[0].len(), caches[1].len());
    }

    #[test]
    fn every_lookup_pays_the_network_round_trip() {
        let cache = baseline();
        assert!(cache.lookup_network_overhead_s() > 0.0);
        // Negative RTTs are clamped at construction.
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 9).unwrap();
        let clamped = GptCacheBaseline::new(
            encoder,
            GptCacheConfig {
                network_rtt_s: -1.0,
                ..GptCacheConfig::default()
            },
        )
        .unwrap();
        assert_eq!(clamped.lookup_network_overhead_s(), 0.0);
    }

    #[test]
    fn invalid_threshold_is_rejected() {
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
        assert!(GptCacheBaseline::new(
            encoder,
            GptCacheConfig {
                threshold: 1.5,
                ..GptCacheConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn exposes_threshold_and_encoder() {
        let cache = baseline();
        assert!((cache.threshold() - 0.6).abs() < 1e-6);
        assert_eq!(
            cache.encoder().profile().kind,
            mc_embedder::ProfileKind::Custom
        );
    }
}
