//! # meancache
//!
//! A from-scratch Rust reproduction of **MeanCache: User-Centric Semantic
//! Caching for LLM Web Services** (IPDPS 2025).
//!
//! MeanCache is a semantic cache that lives on the *user's* device: when a
//! new query is semantically similar to one the user already asked, the
//! cached response is returned locally, saving the LLM call entirely — its
//! cost, its latency, its quota use, and the provider's load. The system has
//! four pillars, all implemented in this workspace:
//!
//! 1. **Semantic matching** with a small, trainable query-embedding model
//!    ([`mc_embedder::QueryEncoder`]) and a cosine-similarity threshold.
//! 2. **Federated fine-tuning** of that model across users without sharing
//!    their queries (the `mc-fl` crate), including the federated threshold.
//! 3. **Context chains**: every cached query records which cached query it
//!    followed up on, so contextual queries only hit when their conversation
//!    matches ([`cache::MeanCache`], Algorithm 1 of the paper).
//! 4. **PCA compression** of cached embeddings (768 → 64 dimensions) to cut
//!    storage and speed up search ([`mc_embedder::Pca`]).
//!
//! This crate ties the substrates together into the deployable cache and the
//! evaluation drivers:
//!
//! * [`config`] — deployment configuration (threshold, top-k, context
//!   checking, capacity, eviction, and the vector-index row codec
//!   [`MeanCacheConfig::index`]).
//! * [`cache`] — [`MeanCache`] itself (Algorithm 1: embed → search → verify
//!   context → hit/miss → populate), with adaptive-threshold feedback.
//!   Retrieval is an exact scan of `mc-store`'s [`mc_store::FlatIndex`]
//!   over `f32` or SQ8 rows, a configuration choice, not a code path;
//!   [`SemanticCache::lookup_batch`] funnels whole probe batches through one
//!   `search_batch` pass for workload replays.
//! * [`shard`] — the concurrent serving layer: [`ShardedCache`] routes
//!   queries to N independent [`MeanCache`] shards behind per-shard
//!   `RwLock`s, so probes proceed in parallel (the [`SemanticCache`] hot
//!   path is split into a read-only `probe` and a narrow `commit` to make
//!   that possible) and writes only contend within one shard. Routing is
//!   pluggable ([`RoutingMode`]): stable hashing, semantic
//!   nearest-of-N-centroids, or scatter-gather fan-out — and [`reshard`]
//!   replays a cache through fresh routing when the mode or shard count
//!   changes.
//! * [`gptcache`] — the GPTCache-style baseline: server-side, fixed 0.7
//!   threshold, no context verification.
//! * [`deploy`] — an end-to-end deployment driver that runs labelled
//!   workloads against a cache + simulated LLM service and produces the
//!   confusion matrices, latency series and cost accounting the paper's
//!   evaluation reports.
//! * [`persist`] — save/restore of the local cache via `mc-store`'s
//!   persistent disk log.
//!
//! ## Quickstart
//!
//! ```
//! use meancache::{CacheDecisionOutcome, MeanCache, MeanCacheConfig, SemanticCache};
//! use mc_embedder::{ModelProfile, QueryEncoder};
//!
//! let encoder = QueryEncoder::new(ModelProfile::tiny(), 42).unwrap();
//! let mut cache = MeanCache::new(encoder, MeanCacheConfig::default()).unwrap();
//!
//! // First time: miss — the deployment would forward to the LLM and insert.
//! let miss = cache.lookup("how do I plot a line chart in python", &[]);
//! assert!(miss.is_miss());
//! cache.insert(
//!     "how do I plot a line chart in python",
//!     "Use matplotlib's plot() function ...",
//!     &[],
//! ).unwrap();
//!
//! // A paraphrase of the same intent is served from the local cache.
//! let hit = cache.lookup("plot a line chart in python", &[]);
//! assert!(matches!(hit, CacheDecisionOutcome::Hit { .. }));
//! ```

pub mod cache;
pub mod config;
pub mod deploy;
pub mod gptcache;
pub mod persist;
pub mod shard;
pub mod tenant;

pub use cache::{CacheDecisionOutcome, CacheHit, CacheStats, MeanCache, SemanticCache};
pub use config::MeanCacheConfig;
pub use deploy::{Deployment, DeploymentReport, ProbeSpec, QueryRecord};
pub use gptcache::{GptCacheBaseline, GptCacheConfig};
pub use shard::{reshard, route_key, RoutingMode, ShardStat, ShardedCache};
pub use tenant::{TenantStore, TenantedCache, DEFAULT_TENANT};

/// Errors surfaced by the cache layer.
#[derive(Debug)]
pub enum CacheError {
    /// Underlying storage failure.
    Store(mc_store::StoreError),
    /// Underlying embedding failure.
    Embedder(mc_embedder::EmbedderError),
    /// Underlying LLM-service failure.
    Llm(mc_llm::LlmError),
    /// Invalid configuration value.
    InvalidConfig(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Store(e) => write!(f, "store error: {e}"),
            CacheError::Embedder(e) => write!(f, "embedder error: {e}"),
            CacheError::Llm(e) => write!(f, "llm error: {e}"),
            CacheError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<mc_store::StoreError> for CacheError {
    fn from(e: mc_store::StoreError) -> Self {
        CacheError::Store(e)
    }
}

impl From<mc_embedder::EmbedderError> for CacheError {
    fn from(e: mc_embedder::EmbedderError) -> Self {
        CacheError::Embedder(e)
    }
}

impl From<mc_llm::LlmError> for CacheError {
    fn from(e: mc_llm::LlmError) -> Self {
        CacheError::Llm(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CacheError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions() {
        let e: CacheError = mc_store::StoreError::NotFound(3).into();
        assert!(e.to_string().contains('3'));
        let e: CacheError = mc_embedder::EmbedderError::InvalidConfig("p".into()).into();
        assert!(e.to_string().contains('p'));
        let e: CacheError = mc_llm::LlmError::QuotaExceeded { used: 1, limit: 1 }.into();
        assert!(e.to_string().contains("quota"));
        assert!(CacheError::InvalidConfig("k".into())
            .to_string()
            .contains('k'));
    }
}
