//! Deployment configuration of the local semantic cache.

use mc_store::IndexKind;
use serde::{Deserialize, Serialize};

use crate::shard::RoutingMode;
use crate::{CacheError, Result};

/// Configuration of a [`crate::MeanCache`] instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeanCacheConfig {
    /// Cosine-similarity threshold τ for a query to be considered a semantic
    /// match. In deployment this is the federated global threshold, refined
    /// locally (Section III-A2).
    pub threshold: f32,
    /// How many candidate cached queries to retrieve per lookup before
    /// context verification (Algorithm 1 retrieves the top-k similar
    /// queries).
    pub top_k: usize,
    /// Whether to verify context chains for candidate hits (Section III,
    /// "context chain"). Disabling this reduces MeanCache to a GPTCache-style
    /// context-oblivious cache — the ablation the contextual experiments
    /// quantify.
    pub context_checking: bool,
    /// Cosine threshold used when matching the probe's conversational
    /// context against a candidate's cached parent query.
    pub context_threshold: f32,
    /// Maximum number of cached entries before the least recently used one
    /// is evicted (Figure 1 shows LRU).
    pub capacity: usize,
    /// Step size for adaptive threshold updates driven by user feedback
    /// (a reported false hit raises τ, a reported false miss lowers it).
    pub feedback_step: f32,
    /// How the cache's exact [`IndexKind::Flat`] scan stores its rows:
    /// `f32` ([`IndexKind::flat`], the default) or SQ8-quantised
    /// ([`IndexKind::flat_sq8`], ~4× fewer embedding bytes). See
    /// `mc_store::index` and `mc_store::rows` for the trade-offs.
    pub index: IndexKind,
    /// Number of independent shards the serving layer
    /// ([`crate::ShardedCache`]) splits the cache into. `1` (the default)
    /// means an unsharded cache; `0` is accepted and normalised to `1` so
    /// config sidecars written before this field existed still load (the
    /// vendored serde shim deserialises a missing `#[serde(default)]` field
    /// to `usize::default()`). A plain [`crate::MeanCache`] ignores this
    /// knob — it configures the layer above.
    #[serde(default)]
    pub shards: usize,
    /// How the serving layer maps a conversation root to a shard:
    /// [`RoutingMode::Hash`] (the default — cheapest, but a paraphrase only
    /// finds its original's shard with probability `1/N`),
    /// [`RoutingMode::Centroid`] (route on the root embedding to the
    /// nearest per-shard centroid) or [`RoutingMode::ScatterGather`] (fan
    /// probes to every shard and merge). Serde-defaulted so config sidecars
    /// written before this field existed still load as hash-routed. A plain
    /// [`crate::MeanCache`] ignores this knob — it configures the layer
    /// above.
    #[serde(default)]
    pub routing: RoutingMode,
}

impl Default for MeanCacheConfig {
    fn default() -> Self {
        Self {
            threshold: 0.7,
            top_k: 5,
            context_checking: true,
            context_threshold: 0.7,
            capacity: 100_000,
            feedback_step: 0.02,
            index: IndexKind::default(),
            shards: 1,
            routing: RoutingMode::Hash,
        }
    }
}

/// Hard ceiling on [`MeanCacheConfig::shards`]: past this the per-shard
/// entry counts stop amortising the routing and lock overhead.
pub const MAX_SHARDS: usize = 1024;

impl MeanCacheConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`CacheError::InvalidConfig`] for out-of-range values.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.threshold) {
            return Err(CacheError::InvalidConfig(format!(
                "threshold {} must be in [0, 1]",
                self.threshold
            )));
        }
        if !(0.0..=1.0).contains(&self.context_threshold) {
            return Err(CacheError::InvalidConfig(format!(
                "context_threshold {} must be in [0, 1]",
                self.context_threshold
            )));
        }
        if self.top_k == 0 {
            return Err(CacheError::InvalidConfig("top_k must be >= 1".into()));
        }
        if self.capacity == 0 {
            return Err(CacheError::InvalidConfig("capacity must be >= 1".into()));
        }
        if !(0.0..1.0).contains(&self.feedback_step) {
            return Err(CacheError::InvalidConfig(format!(
                "feedback_step {} must be in [0, 1)",
                self.feedback_step
            )));
        }
        if self.shards > MAX_SHARDS {
            return Err(CacheError::InvalidConfig(format!(
                "shards {} exceeds the supported maximum {MAX_SHARDS}",
                self.shards
            )));
        }
        Ok(())
    }

    /// The shard count the serving layer should build: `shards`, with the
    /// legacy-sidecar `0` normalised to `1`.
    pub fn effective_shards(&self) -> usize {
        self.shards.max(1)
    }

    /// Returns a copy with the threshold replaced (e.g. with the federated
    /// global threshold τ_global). The context-verification threshold is the
    /// same kind of semantic-similarity decision, so it is updated to the
    /// same value; set `context_threshold` afterwards to diverge.
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        self.threshold = threshold;
        self.context_threshold = threshold;
        self
    }

    /// Returns a copy with the vector-index backend replaced.
    pub fn with_index(mut self, index: IndexKind) -> Self {
        self.index = index;
        self
    }

    /// Returns a copy with the serving-layer shard count replaced.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy with the serving-layer routing mode replaced.
    pub fn with_routing(mut self, routing: RoutingMode) -> Self {
        self.routing = routing;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_is_valid() {
        let cfg = MeanCacheConfig::default();
        assert!(cfg.validate().is_ok());
        assert!(cfg.context_checking);
    }

    #[test]
    fn invalid_values_are_rejected() {
        assert!(MeanCacheConfig {
            threshold: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MeanCacheConfig {
            context_threshold: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MeanCacheConfig {
            top_k: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MeanCacheConfig {
            capacity: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MeanCacheConfig {
            feedback_step: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn index_backend_is_selectable() {
        let cfg = MeanCacheConfig::default();
        assert_eq!(cfg.index.name(), "flat");
        // The SQ8 row codec is the knob.
        let cfg = cfg.with_index(IndexKind::flat_sq8());
        assert_eq!(cfg.index.name(), "flat-sq8");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builder_helpers_modify_copies() {
        let cfg = MeanCacheConfig::default().with_threshold(0.83);
        assert_eq!(cfg.threshold, 0.83);
        assert_eq!(cfg.context_threshold, 0.83);
        assert_eq!(MeanCacheConfig::default().threshold, 0.7);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = MeanCacheConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: MeanCacheConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        let sharded = cfg.with_shards(8);
        let json = serde_json::to_string(&sharded).unwrap();
        let back: MeanCacheConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shards, 8);
    }

    #[test]
    fn shard_count_validates_and_normalises() {
        assert_eq!(MeanCacheConfig::default().shards, 1);
        let cfg = MeanCacheConfig::default().with_shards(4);
        assert_eq!(cfg.effective_shards(), 4);
        assert!(cfg.validate().is_ok());
        // 0 is the legacy-sidecar value: valid, normalised to 1.
        let legacy = MeanCacheConfig::default().with_shards(0);
        assert!(legacy.validate().is_ok());
        assert_eq!(legacy.effective_shards(), 1);
        assert!(MeanCacheConfig::default()
            .with_shards(MAX_SHARDS + 1)
            .validate()
            .is_err());
    }

    #[test]
    fn routing_mode_round_trips_and_defaults_to_hash() {
        let cfg = MeanCacheConfig::default();
        assert_eq!(cfg.routing, RoutingMode::Hash);
        let cfg = cfg.with_routing(RoutingMode::ScatterGather);
        assert!(cfg.validate().is_ok());
        let json = serde_json::to_string(&cfg).unwrap();
        let back: MeanCacheConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.routing, RoutingMode::ScatterGather);
        // A sidecar written before the `routing` field existed must load
        // as hash-routed.
        let json = serde_json::to_string(&MeanCacheConfig::default()).unwrap();
        let old = json
            .replace(",\"routing\":\"Hash\"", "")
            .replace("\"routing\":\"Hash\",", "");
        assert!(!old.contains("routing"), "field must be stripped: {old}");
        let cfg: MeanCacheConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(cfg.routing, RoutingMode::Hash);
    }

    #[test]
    fn sidecar_with_the_retired_fsync_key_still_loads() {
        // Saves are written once and atomically, so the entry-log `fsync`
        // knob is gone, every save writes a snapshot, so the `snapshot`
        // knob is too, and eviction is always LRU, so the `eviction` knob
        // is too; sidecars written while they existed carry the keys.
        let json = serde_json::to_string(&MeanCacheConfig::default().with_shards(3)).unwrap();
        for (key, values) in [
            ("fsync", &["\"Never\"", "\"Always\"", "{\"EveryN\":16}"][..]),
            ("snapshot", &["\"Enabled\"", "\"Disabled\""][..]),
            ("eviction", &["\"Lru\"", "\"Lfu\"", "\"Fifo\""][..]),
        ] {
            assert!(!json.contains(key), "the field must be gone: {json}");
            for value in values {
                let old = json.replacen('{', &format!("{{\"{key}\":{value},"), 1);
                let cfg: MeanCacheConfig = serde_json::from_str(&old).unwrap();
                assert_eq!(cfg, MeanCacheConfig::default().with_shards(3));
            }
        }
    }

    #[test]
    fn pre_shard_configs_still_deserialize() {
        // A sidecar written before the `shards` field existed must load,
        // with the missing field defaulting to 0 (⇒ one effective shard).
        let json = serde_json::to_string(&MeanCacheConfig::default().with_shards(7)).unwrap();
        let old = json
            .replace(",\"shards\":7", "")
            .replace("\"shards\":7,", "");
        assert!(!old.contains("shards"), "field must be stripped: {old}");
        let cfg: MeanCacheConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(cfg.shards, 0);
        assert_eq!(cfg.effective_shards(), 1);
        assert!(cfg.validate().is_ok());
    }
}
