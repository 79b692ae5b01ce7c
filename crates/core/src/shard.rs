//! Concurrent sharded serving layer: N independent [`MeanCache`] shards
//! behind per-shard `RwLock`s, with a pluggable [`RoutingMode`].
//!
//! Every lookup in the base cache funnels through one `&mut` API, so no two
//! queries can be served at once no matter how fast the underlying index
//! scan is. `ShardedCache` removes that ceiling the way concurrent
//! hash-map-style caches do: route each query to one of `N` independent
//! shards so reads proceed in parallel (shared `RwLock` read guards over the
//! read-only [`SemanticCache::probe`] half) and writes only contend within
//! one shard.
//!
//! ## Routing keys
//!
//! Whatever the mode, the routing key is the **conversation root**: the
//! first context turn when the probe carries history, the query text itself
//! otherwise (see [`route_key`]). Keying on the root pins an entire
//! conversation — a standalone query and every follow-up under it — to one
//! shard, so context chains never dangle across shards.
//!
//! ```
//! use meancache::shard::route_key;
//!
//! assert_eq!(route_key("standalone question", &[]), "standalone question");
//! let chain = vec!["conversation root".to_string(), "follow-up".to_string()];
//! assert_eq!(route_key("third turn", &chain), "conversation root");
//! ```
//!
//! ## Routing modes
//!
//! What varies is how a root maps to a shard ([`RoutingMode`]):
//!
//! * [`RoutingMode::Hash`] (the default) — a fixed FNV-1a of the root text.
//!   Cheapest and byte-identical to the pre-routing-mode behaviour, but
//!   *semantically blind*: a paraphrase hashes like unrelated text, so with
//!   `N` shards it lands on the cached original's shard with probability
//!   `1/N` and otherwise misses where an unsharded cache would hit —
//!   sharding for throughput silently costs the hit rate the paper
//!   optimises.
//! * [`RoutingMode::Centroid`] — route on the root's *embedding* to the
//!   nearest of `N` per-shard centroids (k-means-seeded via
//!   [`ShardedCache::seed_centroids`], nudged incrementally as inserts
//!   land). Paraphrases embed near their originals, so they route to the
//!   same shard and hit. Exact repeats and follow-ups are additionally
//!   guaranteed their original's shard by a **root pin table** (root-hash →
//!   shard, recorded at insert), which makes centroid routing strictly no
//!   worse than hash routing on exact traffic even as centroids drift.
//! * [`RoutingMode::ScatterGather`] — fan each probe out to *all* shards in
//!   parallel (the same worker-pool fan-out batched probes use) and merge
//!   the per-shard decisions into one: the highest-scoring context-verified
//!   hit wins, and its commit is routed to the winning shard. For
//!   standalone probes the merged decision is identical to the unsharded
//!   cache (property-tested); contextual probes verify their context
//!   against the conversation's own shard, which can only diverge from the
//!   unsharded cache when ≥ `top_k` entries from *other* conversations
//!   outrank the probe's true parent globally — a case where the global
//!   resolution was rejecting a genuine parent, so the per-shard form errs
//!   toward serving it. The price is `N` index searches per probe. Inserts
//!   go to the least-occupied shard (root-pinned, so conversations stay
//!   together), which doubles as load balancing.
//!
//! ```
//! use mc_embedder::{ModelProfile, QueryEncoder};
//! use meancache::{MeanCacheConfig, RoutingMode, SemanticCache, ShardedCache};
//!
//! let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
//! let config = MeanCacheConfig::default()
//!     .with_threshold(0.6)
//!     .with_shards(4)
//!     .with_routing(RoutingMode::ScatterGather);
//! let mut cache = ShardedCache::new(encoder, config).unwrap();
//! cache
//!     .insert("how do I bake sourdough bread", "Ferment overnight.", &[])
//!     .unwrap();
//! // Scatter-gather finds the entry no matter which shard stores it.
//! assert!(cache.lookup("how do I bake sourdough bread", &[]).is_hit());
//! assert_eq!(cache.routing(), RoutingMode::ScatterGather);
//! ```
//!
//! The hit-rate ordering between the three on a paraphrase-heavy clustered
//! workload (scatter-gather = unsharded ceiling ≥ centroid ≥ hash) is pinned
//! by `tests/resharding.rs`; what each costs in latency and throughput is
//! the repository benchmark's job (`BENCHMARK.json`).
//!
//! ## Capacity
//!
//! Under hash routing each shard holds a fixed `capacity / N` slice, so one
//! hot conversation starts evicting at `1/N` of the configured total while
//! other shards sit under-filled. The semantic modes replace that with
//! **occupancy-proportional capacity borrowing**: a shard at its local
//! bound grows into the global budget while total occupancy is below
//! `capacity`, and only once the *global* budget is spent do inserts evict
//! (locally, in the shard they land in). Hash mode keeps the fixed split so
//! its behaviour stays byte-identical to earlier releases.
//!
//! ## Identifiers
//!
//! Shards allocate entry ids independently, so the serving layer namespaces
//! them: a public id is `local_id * N + shard`, decoded back on
//! [`SemanticCache::commit`]. Persisted per-shard logs keep local ids, which
//! makes reload reassemble the exact same public ids as long as the shard
//! count is unchanged (the config sidecar records it). Changing the shard
//! count or routing mode of an existing cache goes through [`reshard`],
//! which replays every entry through fresh routing (public ids are
//! reassigned; contents and decisions are preserved).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use mc_embedder::{EmbeddingMemo, QueryEncoder};
use mc_store::CacheEntry;
use mc_tensor::vector;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheDecisionOutcome, CacheHit, CacheStats, MeanCache, SemanticCache};
use crate::{CacheError, MeanCacheConfig, Result};

/// The text a probe or insert is routed by: the conversation root (first
/// context turn) when there is history, the query itself otherwise.
///
/// ```
/// use meancache::shard::route_key;
/// let ctx = vec!["root turn".to_string()];
/// assert_eq!(route_key("follow-up", &ctx), "root turn");
/// assert_eq!(route_key("standalone", &[]), "standalone");
/// ```
pub fn route_key<'a>(query: &'a str, context: &'a [String]) -> &'a str {
    context.first().map(String::as_str).unwrap_or(query)
}

/// How a [`ShardedCache`] maps a conversation root to a shard. See the
/// module docs for the full trade-off discussion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingMode {
    /// Fixed FNV-1a hash of the root text (the default; byte-identical to
    /// the original sharded behaviour).
    #[default]
    Hash,
    /// Nearest-of-N-centroids on the root embedding, with a root pin table
    /// guaranteeing exact repeats and follow-ups their original's shard.
    Centroid,
    /// Fan every probe to all shards and merge the best decision; inserts
    /// balance onto the least-occupied shard.
    ScatterGather,
}

impl RoutingMode {
    /// Stable kebab-case name (CLI flags, reports, stats snapshots).
    pub fn name(self) -> &'static str {
        match self {
            RoutingMode::Hash => "hash",
            RoutingMode::Centroid => "centroid",
            RoutingMode::ScatterGather => "scatter-gather",
        }
    }

    /// Inverse of [`RoutingMode::name`] (`None` for unknown names).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "hash" => Some(RoutingMode::Hash),
            "centroid" => Some(RoutingMode::Centroid),
            "scatter-gather" => Some(RoutingMode::ScatterGather),
            _ => None,
        }
    }
}

/// Fixed 64-bit FNV-1a. Deliberately *not* `std::hash` — routing must stay
/// identical across processes, Rust releases and save/load cycles. Also
/// deliberately a private copy rather than a helper shared with the FNV
/// loops in `mc-text` (n-gram hashing) and `mc-llm` (response
/// fingerprints): each is a separately *frozen* behaviour, and sharing one
/// function would let a change to any of them silently move the others.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in text.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Mutable routing state shared by the semantic modes. Hash routing never
/// touches it (stateless), which is what keeps hash mode byte-identical.
#[derive(Debug, Clone, Default)]
struct RouterState {
    /// One unit-norm routing centroid per shard; empty until seeded
    /// (unseeded centroid routing falls back to the hash route).
    centroids: Vec<Vec<f32>>,
    /// Roots absorbed into each centroid (k-means cluster sizes at seeding
    /// time, incremented per newly pinned root afterwards — the incremental
    /// update's learning-rate schedule).
    counts: Vec<u64>,
    /// `fnv1a(root text)` → shard, recorded at insert. Guarantees exact
    /// repeats and same-conversation follow-ups route to the shard that
    /// holds their entry no matter how far the centroids have drifted, and
    /// keeps scatter-gather inserts conversation-affine. Rebuilt from the
    /// entry logs on reload; never consulted by hash routing.
    pins: HashMap<u64, usize>,
}

/// A semantic cache partitioned into independent [`MeanCache`] shards for
/// concurrent serving. See the module docs for routing, capacity and id
/// semantics.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<RwLock<MeanCache>>,
    /// The serving-layer configuration (`shards` = the live shard count;
    /// each shard holds a copy with `shards: 1` and a split capacity).
    config: MeanCacheConfig,
    /// A copy of the shards' encoder, so routing, persistence and reports
    /// can reach it without taking a shard lock.
    encoder: QueryEncoder,
    /// Centroids + root pins for the semantic routing modes.
    router: RwLock<RouterState>,
    /// Embedding memo shared with every shard (and consulted by the
    /// routing layer's own encodes). `None` until the serving layer
    /// installs one via [`ShardedCache::set_embedding_memo`].
    memo: Option<Arc<EmbeddingMemo>>,
    /// Logical lookup counters for scatter-gather probes, which run
    /// *quietly* against each shard (one fan-out is one lookup, not N).
    scatter_lookups: AtomicU64,
    scatter_hits: AtomicU64,
    scatter_context_rejections: AtomicU64,
    /// Per-shard contention telemetry: how many lock acquisitions on the
    /// serving paths failed the `try_lock` fast path, and the total time
    /// those acquisitions then spent blocked. Uncontended acquisitions
    /// never read the clock.
    lock_contended: Vec<AtomicU64>,
    lock_wait_us: Vec<AtomicU64>,
}

/// Point-in-time per-shard counters for dashboards
/// ([`ShardedCache::shard_stats`]). `probes`/`hits` count the shard's own
/// recorded lookups — scatter-gather fan-outs probe shards *quietly* and
/// are accounted at the cache level, not here.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStat {
    /// Live entries resident in the shard.
    pub occupancy: usize,
    /// Lookups recorded against this shard.
    pub probes: u64,
    /// Hits recorded against this shard.
    pub hits: u64,
    /// Entries accepted by this shard.
    pub inserts: u64,
    /// Entries the shard's store evicted to make room for inserts. Entries
    /// removed any other way — a TTL or invalidation reclaim — are not
    /// evictions.
    pub evictions: u64,
    /// Serving-path lock acquisitions that had to block.
    pub lock_contended: u64,
    /// Total microseconds those acquisitions spent blocked.
    pub lock_wait_us: u64,
}

impl ShardedCache {
    /// Builds `config.effective_shards()` empty shards around clones of
    /// `encoder`. The configured `capacity` is the *total* across shards
    /// (split evenly, rounded up; the semantic routing modes let shards
    /// borrow unused budget from each other — see the module docs).
    ///
    /// # Errors
    /// Returns [`crate::CacheError::InvalidConfig`] when the configuration
    /// is invalid.
    pub fn new(encoder: QueryEncoder, config: MeanCacheConfig) -> Result<Self> {
        config.validate()?;
        let shard_count = config.effective_shards();
        let shard_config = MeanCacheConfig {
            shards: 1,
            routing: RoutingMode::Hash,
            capacity: config.capacity.div_ceil(shard_count),
            ..config.clone()
        };
        let shards = (0..shard_count)
            .map(|_| MeanCache::new(encoder.clone(), shard_config.clone()).map(RwLock::new))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            shards,
            config,
            encoder,
            router: RwLock::new(RouterState::default()),
            memo: None,
            scatter_lookups: AtomicU64::new(0),
            scatter_hits: AtomicU64::new(0),
            scatter_context_rejections: AtomicU64::new(0),
            lock_contended: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
            lock_wait_us: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Installs (or removes, with `None`) a shared embedding memo-cache on
    /// this serving layer *and every shard*, so probe, insert, context and
    /// routing encodes all consult one memo. Sound only while the shards'
    /// encoder stays frozen — see [`EmbeddingMemo`]'s docs.
    pub fn set_embedding_memo(&mut self, memo: Option<Arc<EmbeddingMemo>>) {
        for shard in &mut self.shards {
            shard_mut(shard).set_embedding_memo(memo.clone());
        }
        self.memo = memo;
    }

    /// Borrow the installed embedding memo, if any.
    pub fn embedding_memo(&self) -> Option<&Arc<EmbeddingMemo>> {
        self.memo.as_ref()
    }

    /// Encodes `text` for the routing layer, consulting the memo-cache when
    /// one is installed (memoized results are bit-identical to a cold
    /// encode, so routing cannot depend on whether this hit).
    fn embed(&self, text: &str) -> mc_tensor::Vector {
        match &self.memo {
            Some(memo) => memo.get_or_encode(text, |t| self.encoder.encode(t)),
            None => self.encoder.encode(text),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Borrow the serving-layer configuration.
    pub fn config(&self) -> &MeanCacheConfig {
        &self.config
    }

    /// Borrow the encoder the shards were built around.
    pub fn encoder(&self) -> &QueryEncoder {
        &self.encoder
    }

    /// The live routing mode.
    pub fn routing(&self) -> RoutingMode {
        self.config.routing
    }

    /// Seeds the centroid router by spherical k-means over `samples`
    /// (typically the embeddings of a representative workload, e.g. an
    /// `mc_workloads::EmbeddingCloud` or the queries about to be cached).
    /// `k` is the shard count; the run is deterministic (farthest-first
    /// initialisation, fixed iteration count). A no-op set of samples
    /// (empty) clears the centroids, restoring the hash fallback.
    ///
    /// # Errors
    /// [`crate::CacheError::InvalidConfig`] when a sample's dimensionality
    /// does not match the encoder's output.
    pub fn seed_centroids(&mut self, samples: &[Vec<f32>]) -> Result<()> {
        let dims = self.encoder.output_dim();
        if let Some(bad) = samples.iter().find(|s| s.len() != dims) {
            return Err(CacheError::InvalidConfig(format!(
                "centroid sample has {} dims, encoder produces {dims}",
                bad.len()
            )));
        }
        let refs: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
        let (centroids, counts) = spherical_kmeans(&refs, self.shards.len(), KMEANS_ITERS);
        let router = self.router.get_mut().unwrap_or_else(|p| p.into_inner());
        router.centroids = centroids;
        router.counts = counts;
        Ok(())
    }

    /// [`ShardedCache::seed_centroids`] from raw query texts, encoded with
    /// this cache's own encoder.
    ///
    /// # Errors
    /// Propagates [`ShardedCache::seed_centroids`] failures.
    pub fn seed_centroids_from_texts<S: AsRef<str>>(&mut self, texts: &[S]) -> Result<()> {
        let samples: Vec<Vec<f32>> = texts
            .iter()
            .map(|t| self.encoder.encode(t.as_ref()).into_vec())
            .collect();
        self.seed_centroids(&samples)
    }

    /// `true` once [`ShardedCache::seed_centroids`] (or a reshard / reload)
    /// has installed routing centroids.
    pub fn centroids_seeded(&self) -> bool {
        !read_router(&self.router).centroids.is_empty()
    }

    /// Number of pinned conversation roots (diagnostics; see
    /// `RouterState::pins` for what a pin guarantees).
    pub fn root_pin_count(&self) -> usize {
        read_router(&self.router).pins.len()
    }

    /// Snapshot of the centroid state for persistence: `(centroids,
    /// counts)`, both empty when unseeded.
    pub(crate) fn centroid_state(&self) -> (Vec<Vec<f32>>, Vec<u64>) {
        let router = read_router(&self.router);
        (router.centroids.clone(), router.counts.clone())
    }

    /// Restores a persisted centroid state (inverse of
    /// [`ShardedCache::centroid_state`]).
    ///
    /// # Errors
    /// [`crate::CacheError::InvalidConfig`] when the shape does not match
    /// this cache's shard count or embedding dimensionality.
    pub(crate) fn restore_centroid_state(
        &mut self,
        centroids: Vec<Vec<f32>>,
        counts: Vec<u64>,
    ) -> Result<()> {
        if centroids.is_empty() {
            return Ok(());
        }
        let dims = self.encoder.output_dim();
        if centroids.len() != self.shards.len()
            || counts.len() != self.shards.len()
            || centroids.iter().any(|c| c.len() != dims)
        {
            return Err(CacheError::InvalidConfig(format!(
                "persisted centroid state ({} centroids) does not match {} shards × {dims} dims",
                centroids.len(),
                self.shards.len()
            )));
        }
        let router = self.router.get_mut().unwrap_or_else(|p| p.into_inner());
        router.centroids = centroids;
        router.counts = counts;
        Ok(())
    }

    /// Rebuilds the root pin table from the live shard contents: every
    /// entry pins its conversation root to the shard that holds it. Called
    /// after a reload replayed the per-shard entry logs (pins are not
    /// persisted — the logs already are the assignment).
    pub(crate) fn rebuild_pins(&mut self) {
        let mut pins = HashMap::new();
        for (shard, lock) in self.shards.iter().enumerate() {
            let cache = read(lock);
            let by_id: HashMap<u64, &CacheEntry> = cache.entries().map(|e| (e.id, e)).collect();
            for entry in cache.entries() {
                pins.insert(fnv1a(chain_root(&by_id, entry)), shard);
            }
        }
        self.router
            .get_mut()
            .unwrap_or_else(|p| p.into_inner())
            .pins = pins;
    }

    /// The root pins that resolve to `shard`, as sorted `(root_hash,
    /// shard)` pairs — the per-shard slice of the pin table an `MCSNAP01`
    /// snapshot persists (see [`crate::persist`]).
    pub(crate) fn root_pins_for_shard(&self, shard: usize) -> Vec<(u64, u64)> {
        let router = read_router(&self.router);
        let mut pins: Vec<(u64, u64)> = router
            .pins
            .iter()
            .filter(|&(_, &s)| s == shard)
            .map(|(&root, &s)| (root, s as u64))
            .collect();
        pins.sort_unstable();
        pins
    }

    /// Replaces the root pin table with persisted `(root_hash, shard)`
    /// pairs (inverse of [`ShardedCache::root_pins_for_shard`], unioned
    /// over all shards). Pins naming an out-of-range shard are dropped —
    /// routing then falls back to centroids / hash for those roots.
    pub(crate) fn restore_root_pins(&mut self, pins: impl IntoIterator<Item = (u64, u64)>) {
        let shard_count = self.shards.len();
        let table: HashMap<u64, usize> = pins
            .into_iter()
            .filter(|&(_, shard)| (shard as usize) < shard_count)
            .map(|(root, shard)| (root, shard as usize))
            .collect();
        self.router
            .get_mut()
            .unwrap_or_else(|p| p.into_inner())
            .pins = table;
    }

    /// Garbage-collects the root pin table: drops every pin whose root no
    /// longer resolves to a live entry (the conversation was fully evicted
    /// or flushed), so a long-lived server's pin table tracks its contents
    /// instead of its history. Returns the number of pins removed.
    ///
    /// Takes each shard's read lock briefly to compute the live root set,
    /// then the router write lock for the retain. Concurrent *probes* are
    /// safe (a pin for a live root is never removed); an *insert* racing
    /// the window between the scan and the retain could have its fresh pin
    /// dropped — harmless for decisions (routing falls back to centroids /
    /// hash) but callers that can should serialise sweeps with inserts, as
    /// the serve batcher does.
    pub fn sweep_root_pins(&self) -> usize {
        let mut live: HashSet<u64> = HashSet::new();
        for lock in &self.shards {
            let cache = read(lock);
            let by_id: HashMap<u64, &CacheEntry> = cache.entries().map(|e| (e.id, e)).collect();
            for entry in cache.entries() {
                live.insert(fnv1a(chain_root(&by_id, entry)));
            }
        }
        let mut router = self.router.write().unwrap_or_else(|p| p.into_inner());
        let before = router.pins.len();
        router.pins.retain(|root, _| live.contains(root));
        before - router.pins.len()
    }

    /// The shard a `(query, context)` pair is *assigned* to: the probe
    /// route under [`RoutingMode::Hash`] and [`RoutingMode::Centroid`], the
    /// insert target under [`RoutingMode::ScatterGather`] (whose probes fan
    /// out to every shard instead of routing to one).
    pub fn shard_of(&self, query: &str, context: &[String]) -> usize {
        match self.config.routing {
            RoutingMode::Hash => self.hash_route(query, context),
            RoutingMode::Centroid => self.semantic_route(query, context).0,
            RoutingMode::ScatterGather => self.insert_route(query, context).0,
        }
    }

    /// The stateless FNV route.
    fn hash_route(&self, query: &str, context: &[String]) -> usize {
        (fnv1a(route_key(query, context)) % self.shards.len() as u64) as usize
    }

    /// Centroid route: pinned shard if the root was inserted before, else
    /// nearest centroid of the root embedding, else (unseeded) the hash
    /// route. Returns the root embedding when one was computed so insert
    /// paths can update the winning centroid without re-encoding.
    fn semantic_route(&self, query: &str, context: &[String]) -> (usize, Option<Vec<f32>>) {
        let root = route_key(query, context);
        let router = read_router(&self.router);
        if let Some(&shard) = router.pins.get(&fnv1a(root)) {
            return (shard, None);
        }
        if router.centroids.is_empty() {
            drop(router);
            return (self.hash_route(query, context), None);
        }
        let embedding = self.embed(root);
        let shard = nearest_centroid(embedding.as_slice(), &router.centroids);
        (shard, Some(embedding.into_vec()))
    }

    /// Where an insert lands, per mode, plus the root embedding when the
    /// decision computed one (centroid mode, pin missed).
    fn insert_route(&self, query: &str, context: &[String]) -> (usize, Option<Vec<f32>>) {
        match self.config.routing {
            RoutingMode::Hash => (self.hash_route(query, context), None),
            RoutingMode::Centroid => self.semantic_route(query, context),
            RoutingMode::ScatterGather => {
                let root = route_key(query, context);
                if let Some(&shard) = read_router(&self.router).pins.get(&fnv1a(root)) {
                    return (shard, None);
                }
                (self.least_occupied(), None)
            }
        }
    }

    /// The shard with the fewest entries (lowest index on ties) — the
    /// scatter-gather insert target for a fresh conversation root.
    fn least_occupied(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| (read(s).len(), i))
            .min()
            .map(|(_, i)| i)
            .unwrap_or(0)
    }

    /// Post-insert routing bookkeeping for the semantic modes: pin the
    /// root, and (centroid mode, newly pinned root with a computed
    /// embedding) pull the winning centroid toward it with a `1/count`
    /// learning rate. Hash mode never calls this.
    fn note_insert(
        &self,
        shard: usize,
        query: &str,
        context: &[String],
        root_embedding: Option<Vec<f32>>,
    ) {
        let key = fnv1a(route_key(query, context));
        let mut router = self.router.write().unwrap_or_else(|p| p.into_inner());
        let newly_pinned = match router.pins.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(shard);
                true
            }
        };
        if !newly_pinned || self.config.routing != RoutingMode::Centroid {
            return;
        }
        if let Some(embedding) = root_embedding {
            if shard < router.centroids.len() {
                let count = router.counts[shard].saturating_add(1);
                router.counts[shard] = count;
                let centroid = &mut router.centroids[shard];
                let rate = 1.0 / count as f32;
                // c ← normalize(c + rate · (x − c)): an online spherical
                // k-means step, so the routing centroids track what each
                // shard actually stores.
                for (c, &x) in centroid.iter_mut().zip(&embedding) {
                    *c += rate * (x - *c);
                }
                vector::normalize(centroid);
            }
        }
    }

    /// All-shard occupancy (read locks taken one shard at a time, never
    /// nested — see [`apply_capacity_borrowing`] for the freshness caveat).
    fn total_occupancy(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    /// Aggregated statistics across all shards. Per-event counters
    /// (lookups, hits, context rejections, inserts) sum across shards,
    /// plus the serving layer's own scatter-gather counters (scatter
    /// probes run quietly against shards — one fan-out counts as one
    /// logical lookup); `feedback_updates` is **broadcast** to every shard
    /// by [`ShardedCache::record_feedback`], so any one shard's count
    /// already equals the number of feedback events — shard 0's value is
    /// reported rather than an N-times-inflated sum.
    pub fn stats(&self) -> CacheStats {
        let mut total = self
            .shards
            .iter()
            .map(|s| read(s).stats())
            .fold(CacheStats::default(), CacheStats::merged);
        total.feedback_updates = read(&self.shards[0]).stats().feedback_updates;
        total.lookups += self.scatter_lookups.load(Ordering::Relaxed);
        total.hits += self.scatter_hits.load(Ordering::Relaxed);
        total.context_rejections += self.scatter_context_rejections.load(Ordering::Relaxed);
        total
    }

    /// The current cosine threshold τ (uniform across shards).
    pub fn threshold(&self) -> f32 {
        read(&self.shards[0]).threshold()
    }

    /// Replaces the threshold on every shard (and in the serving-layer
    /// config, so a subsequent save persists the live value).
    pub fn set_threshold(&mut self, threshold: f32) {
        for shard in &mut self.shards {
            shard_mut(shard).set_threshold(threshold);
        }
        self.config.threshold = shard_mut(&mut self.shards[0]).threshold();
    }

    /// Applies adaptive threshold feedback to every shard: τ is a global
    /// decision parameter, so all shards move in lock-step and
    /// [`ShardedCache::threshold`] stays well-defined. The serving-layer
    /// config tracks the adapted value so persistence captures it.
    pub fn record_feedback(&mut self, false_hit: bool) {
        for shard in &mut self.shards {
            shard_mut(shard).record_feedback(false_hit);
        }
        self.config.threshold = shard_mut(&mut self.shards[0]).threshold();
    }

    /// Entry counts per shard (diagnostics and tests).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| read(s).len()).collect()
    }

    /// Per-shard dashboard counters: occupancy, recorded probes/hits,
    /// inserts, evictions, and the contention telemetry the tracked lock
    /// paths accumulate. Takes each shard's read lock briefly (untracked,
    /// so polling stats never inflates the contention it measures).
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let (occupancy, stats, evictions) = {
                    let guard = read(shard);
                    (guard.len(), guard.stats(), guard.evictions())
                };
                ShardStat {
                    occupancy,
                    probes: stats.lookups,
                    hits: stats.hits,
                    inserts: stats.inserts,
                    evictions,
                    lock_contended: self.lock_contended[i].load(Ordering::Relaxed),
                    lock_wait_us: self.lock_wait_us[i].load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Pre-resolves `query`'s embedding through the memo-cache, reporting
    /// whether it was already memoized (`Some(true)`), had to run the
    /// encoder (`Some(false)`), or no memo is installed (`None`, nothing
    /// encoded). Because memoized embeddings are bit-identical to a cold
    /// encode, a subsequent probe/insert of the same query is unaffected
    /// beyond its internal encode becoming a guaranteed memo hit — the
    /// serve layer's tracing uses this to split "encode" time out of
    /// "probe" time for sampled requests.
    pub fn warm_memo(&self, query: &str) -> Option<bool> {
        let memo = self.memo.as_ref()?;
        let (_, outcome) = memo.get_or_encode_attributed(query, |t| self.encoder.encode(t));
        Some(outcome.hit)
    }

    /// Drops every cached entry and every root pin while keeping the
    /// configuration (live threshold included), the encoder, and any
    /// seeded routing centroids — a flush must not silently degrade
    /// centroid routing to the hash fallback. Statistics reset with the
    /// shards, exactly as rebuilding the cache from scratch would.
    ///
    /// # Errors
    /// Returns [`crate::CacheError::InvalidConfig`] only if the live
    /// config no longer validates (cannot happen for a config that built
    /// this cache).
    pub fn clear(&mut self) -> Result<()> {
        let shard_config = MeanCacheConfig {
            shards: 1,
            routing: RoutingMode::Hash,
            capacity: self.config.capacity.div_ceil(self.shards.len()),
            ..self.config.clone()
        };
        for shard in &mut self.shards {
            let mut fresh = MeanCache::new(self.encoder.clone(), shard_config.clone())?;
            // Flushing entries does not invalidate embeddings — the encoder
            // is unchanged — so the memo survives a clear.
            fresh.set_embedding_memo(self.memo.clone());
            *shard_mut(shard) = fresh;
        }
        let router = self.router.get_mut().unwrap_or_else(|p| p.into_inner());
        router.pins.clear();
        self.scatter_lookups = AtomicU64::new(0);
        self.scatter_hits = AtomicU64::new(0);
        self.scatter_context_rejections = AtomicU64::new(0);
        for counter in self.lock_contended.iter().chain(&self.lock_wait_us) {
            counter.store(0, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Looks up an entry by its **public** (namespaced) id, cloning it out
    /// of its shard.
    pub fn entry(&self, public_id: u64) -> Option<CacheEntry> {
        let (shard, local) = self.split_id(public_id);
        read(&self.shards[shard]).entry(local).cloned()
    }

    /// Removes an entry by its **public** id from its shard's store and
    /// index. Returns `true` when the entry existed. Dangling root pins are
    /// reclaimed by [`ShardedCache::sweep_root_pins`]; the serve layer's
    /// TTL/invalidation sweep is the caller.
    pub fn remove_public(&mut self, public_id: u64) -> bool {
        let (shard, local) = self.split_id(public_id);
        shard_mut(&mut self.shards[shard]).remove_entry(local)
    }

    /// Replaces the *total* capacity across shards (split evenly, rounded
    /// up, exactly as [`ShardedCache::new`] does). The serve layer uses
    /// this to apply per-tenant quotas to tenant-private caches.
    pub fn set_total_capacity(&mut self, capacity: usize) {
        let capacity = capacity.max(1);
        self.config.capacity = capacity;
        let per_shard = capacity.div_ceil(self.shards.len());
        for shard in &mut self.shards {
            shard_mut(shard).set_capacity(per_shard);
        }
    }

    /// **Public** ids of every resident entry, in shard order. The tenancy
    /// layer uses this to re-register lifecycle metadata for entries
    /// restored from disk.
    pub fn entry_ids(&self) -> Vec<u64> {
        let n = self.shards.len() as u64;
        let mut ids = Vec::with_capacity(self.len());
        for (shard_index, shard) in self.shards.iter().enumerate() {
            let guard = read(shard);
            for entry in guard.entries() {
                ids.push(entry.id * n + shard_index as u64);
            }
        }
        ids
    }

    /// Runs `f` over one shard's cache under its read lock (persistence and
    /// tests; the serving paths go through [`SemanticCache`]).
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&MeanCache) -> R) -> R {
        f(&read(&self.shards[shard]))
    }

    /// Exclusive access to one shard (persistence replay).
    pub(crate) fn shard_cache_mut(&mut self, shard: usize) -> &mut MeanCache {
        shard_mut(&mut self.shards[shard])
    }

    /// `local_id * N + shard` — the public id for a shard-local one.
    fn public_id(&self, shard: usize, local: u64) -> u64 {
        local * self.shards.len() as u64 + shard as u64
    }

    /// Inverse of [`ShardedCache::public_id`].
    fn split_id(&self, public_id: u64) -> (usize, u64) {
        let n = self.shards.len() as u64;
        ((public_id % n) as usize, public_id / n)
    }

    /// Inserts through a **shared** reference: takes only the target shard's
    /// write lock, so concurrent inserts to different shards proceed in
    /// parallel and probes of other shards are never blocked. This is the
    /// write path concurrent serving uses; the `&mut`
    /// [`SemanticCache::insert`] remains the single-owner equivalent
    /// (identical ids and routing).
    ///
    /// # Errors
    /// Returns [`crate::CacheError`] on storage failures.
    pub fn insert_shared(&self, query: &str, response: &str, context: &[String]) -> Result<u64> {
        let (shard, root_embedding) = self.insert_route(query, context);
        let semantic = self.config.routing != RoutingMode::Hash;
        let total = if semantic { self.total_occupancy() } else { 0 };
        let local = {
            let mut cache = self.write_tracked(shard);
            apply_capacity_borrowing(self.config.routing, self.config.capacity, &mut cache, total);
            cache.insert(query, response, context)?
        };
        if semantic {
            self.note_insert(shard, query, context, root_embedding);
        }
        Ok(self.public_id(shard, local))
    }

    /// The write half of a lookup through a **shared** reference: upgrades
    /// to the hit shard's write lock just long enough to record the
    /// eviction-policy touch. A miss takes no lock at all. This is the
    /// probe→commit "upgrade" whose contention cost the write-mix
    /// experiment quantifies.
    pub fn commit_shared(&self, outcome: &CacheDecisionOutcome) {
        if let Some(hit) = outcome.hit() {
            let (shard, local) = self.split_id(hit.entry_id);
            let mut local_hit = hit.clone();
            local_hit.entry_id = local;
            self.write_tracked(shard)
                .commit(&CacheDecisionOutcome::Hit(local_hit));
        }
    }

    /// [`SemanticCache::probe`] followed by [`ShardedCache::commit_shared`]:
    /// a full lookup through a shared reference, for concurrent callers that
    /// cannot take `&mut self`. Decision-identical to
    /// [`SemanticCache::lookup`] on a frozen cache.
    pub fn lookup_shared(&self, query: &str, context: &[String]) -> CacheDecisionOutcome {
        let outcome = self.probe(query, context);
        self.commit_shared(&outcome);
        outcome
    }

    /// Rewrites a shard-local outcome's entry id into the public namespace.
    fn globalise(&self, shard: usize, outcome: CacheDecisionOutcome) -> CacheDecisionOutcome {
        match outcome {
            CacheDecisionOutcome::Hit(mut hit) => {
                hit.entry_id = self.public_id(shard, hit.entry_id);
                CacheDecisionOutcome::Hit(hit)
            }
            CacheDecisionOutcome::Miss => CacheDecisionOutcome::Miss,
        }
    }

    /// Fans one probe out to every shard and merges the decisions: the
    /// highest-scoring context-verified hit wins (public id breaks exact
    /// ties deterministically). Shard probes run quietly; this layer
    /// records one logical lookup.
    fn probe_scatter(&self, query: &str, context: &[String]) -> CacheDecisionOutcome {
        self.scatter_lookups.fetch_add(1, Ordering::Relaxed);
        let query_embedding = self.embed(query);
        let context_embedding = if self.config.context_checking {
            context.last().map(|text| self.embed(text))
        } else {
            None
        };
        let shard_indices: Vec<usize> = (0..self.shards.len()).collect();
        let per_shard: Vec<crate::cache::ScatterProbe> = shard_indices
            .par_iter()
            .map(|&shard| {
                self.read_tracked(shard).probe_scatter(
                    query_embedding.as_slice(),
                    context_embedding.as_ref().map(|e| e.as_slice()),
                )
            })
            .collect();
        self.merge_scatter(per_shard.into_iter().enumerate())
    }

    /// Merges per-shard scatter outcomes (see
    /// [`ShardedCache::probe_scatter`]) and maintains the logical hit /
    /// context-rejection counters.
    fn merge_scatter(
        &self,
        per_shard: impl Iterator<Item = (usize, crate::cache::ScatterProbe)>,
    ) -> CacheDecisionOutcome {
        let mut best: Option<CacheHit> = None;
        let mut rejected = false;
        for (shard, probe) in per_shard {
            rejected |= probe.rejected_by_context;
            if let CacheDecisionOutcome::Hit(mut hit) = probe.outcome {
                hit.entry_id = self.public_id(shard, hit.entry_id);
                let better = match &best {
                    None => true,
                    Some(current) => match hit.score.partial_cmp(&current.score) {
                        Some(std::cmp::Ordering::Greater) => true,
                        Some(std::cmp::Ordering::Equal) => hit.entry_id < current.entry_id,
                        _ => false,
                    },
                };
                if better {
                    best = Some(hit);
                }
            }
        }
        match best {
            Some(hit) => {
                self.scatter_hits.fetch_add(1, Ordering::Relaxed);
                CacheDecisionOutcome::Hit(hit)
            }
            None => {
                if rejected {
                    self.scatter_context_rejections
                        .fetch_add(1, Ordering::Relaxed);
                }
                CacheDecisionOutcome::Miss
            }
        }
    }

    /// Batched scatter-gather: encode every probe (and context turn) once,
    /// fan the whole batch to every shard in parallel, merge per probe.
    fn probe_batch_scatter(&self, probes: &[(&str, &[String])]) -> Vec<CacheDecisionOutcome> {
        self.scatter_lookups
            .fetch_add(probes.len() as u64, Ordering::Relaxed);
        let query_embeddings: Vec<mc_tensor::Vector> =
            probes.iter().map(|(query, _)| self.embed(query)).collect();
        let context_embeddings: Vec<Option<mc_tensor::Vector>> = probes
            .iter()
            .map(|(_, context)| {
                if self.config.context_checking {
                    context.last().map(|text| self.embed(text))
                } else {
                    None
                }
            })
            .collect();
        let prepared: Vec<(&[f32], Option<&[f32]>)> = query_embeddings
            .iter()
            .zip(&context_embeddings)
            .map(|(q, c)| (q.as_slice(), c.as_ref().map(|e| e.as_slice())))
            .collect();
        let shard_indices: Vec<usize> = (0..self.shards.len()).collect();
        let mut per_shard: Vec<Vec<crate::cache::ScatterProbe>> = shard_indices
            .par_iter()
            .map(|&shard| self.read_tracked(shard).probe_scatter_batch(&prepared))
            .collect();
        (0..probes.len())
            .map(|pos| {
                let column: Vec<(usize, crate::cache::ScatterProbe)> = per_shard
                    .iter_mut()
                    .enumerate()
                    .map(|(shard, outcomes)| {
                        (
                            shard,
                            std::mem::replace(
                                &mut outcomes[pos],
                                crate::cache::ScatterProbe {
                                    outcome: CacheDecisionOutcome::Miss,
                                    rejected_by_context: false,
                                },
                            ),
                        )
                    })
                    .collect();
                // `merge_scatter` counts one logical hit/rejection per
                // probe; lookups were counted for the whole batch above.
                self.merge_scatter(column.into_iter())
            })
            .collect()
    }
}

impl Clone for ShardedCache {
    fn clone(&self) -> Self {
        Self {
            shards: self
                .shards
                .iter()
                .map(|s| RwLock::new(read(s).clone()))
                .collect(),
            config: self.config.clone(),
            encoder: self.encoder.clone(),
            router: RwLock::new(read_router(&self.router).clone()),
            memo: self.memo.clone(),
            scatter_lookups: AtomicU64::new(self.scatter_lookups.load(Ordering::Relaxed)),
            scatter_hits: AtomicU64::new(self.scatter_hits.load(Ordering::Relaxed)),
            scatter_context_rejections: AtomicU64::new(
                self.scatter_context_rejections.load(Ordering::Relaxed),
            ),
            lock_contended: self
                .lock_contended
                .iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
            lock_wait_us: self
                .lock_wait_us
                .iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl ShardedCache {
    /// [`read`] with contention accounting: an uncontended acquisition is
    /// a bare `try_read` (no clock access); only a blocked one times its
    /// wait and bumps this shard's [`ShardStat::lock_contended`].
    fn read_tracked(&self, shard: usize) -> std::sync::RwLockReadGuard<'_, MeanCache> {
        match self.shards[shard].try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                let start = std::time::Instant::now();
                let guard = read(&self.shards[shard]);
                self.lock_contended[shard].fetch_add(1, Ordering::Relaxed);
                self.lock_wait_us[shard]
                    .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
                guard
            }
        }
    }

    /// [`write`] with the same contention accounting as
    /// [`ShardedCache::read_tracked`].
    fn write_tracked(&self, shard: usize) -> std::sync::RwLockWriteGuard<'_, MeanCache> {
        match self.shards[shard].try_write() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                let start = std::time::Instant::now();
                let guard = write(&self.shards[shard]);
                self.lock_contended[shard].fetch_add(1, Ordering::Relaxed);
                self.lock_wait_us[shard]
                    .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
                guard
            }
        }
    }
}

/// Shared-read a shard, recovering a poisoned lock. Poisoning means some
/// thread panicked while holding the guard; probes never leave partial
/// writes and commits are single-entry updates (worst case: recency
/// metadata for one entry is stale), so the structures are sound to keep
/// using. The serve layer isolates the panic itself (`catch_unwind` around
/// per-batch cache work) and surfaces it via a `panics_caught` metric —
/// recovering here keeps one poisoned request from failing every
/// subsequent request on the shard.
fn read(shard: &RwLock<MeanCache>) -> std::sync::RwLockReadGuard<'_, MeanCache> {
    shard.read().unwrap_or_else(|p| p.into_inner())
}

/// Shared-read the router state (same poison-recovery stance as [`read`]).
fn read_router(router: &RwLock<RouterState>) -> std::sync::RwLockReadGuard<'_, RouterState> {
    router.read().unwrap_or_else(|p| p.into_inner())
}

/// Exclusive access through `&mut self` — no lock taken, cannot block.
fn shard_mut(shard: &mut RwLock<MeanCache>) -> &mut MeanCache {
    shard.get_mut().unwrap_or_else(|p| p.into_inner())
}

/// Exclusively lock one shard through a shared reference (the concurrent
/// write path: `insert_shared` / `commit_shared`). Poisoning gets the same
/// recovery treatment as [`read`].
fn write(shard: &RwLock<MeanCache>) -> std::sync::RwLockWriteGuard<'_, MeanCache> {
    shard.write().unwrap_or_else(|p| p.into_inner())
}

/// Capacity borrowing for the semantic modes, applied to the (locked or
/// exclusively borrowed) target shard just before an insert: grow a full
/// shard into unused global budget; once the global budget is spent, clamp
/// the shard to its own occupancy so the insert evicts locally. Shared by
/// the `&mut` and `insert_shared` paths so the policy cannot drift between
/// them. Hash mode keeps the fixed `capacity / N` split.
///
/// Two documented slacks on the `global_capacity` bound:
/// * `total` is sampled just before locking the target, so concurrent
///   writers can each overshoot by one in flight;
/// * an insert landing on an **empty** shard after the budget is spent has
///   nothing local to evict and is admitted anyway (capacity 1), so total
///   occupancy can settle at up to `global_capacity + N − 1`. Cross-shard
///   eviction would close that gap but needs a second shard's write lock
///   under the first — a lock-ordering hazard not worth a bounded,
///   one-time-per-shard slack.
fn apply_capacity_borrowing(
    routing: RoutingMode,
    global_capacity: usize,
    cache: &mut MeanCache,
    total: usize,
) {
    if routing == RoutingMode::Hash {
        return;
    }
    let len = cache.len();
    if total >= global_capacity {
        cache.set_capacity(len.max(1));
    } else if len >= cache.config().capacity {
        cache.set_capacity(len + 1);
    }
}

impl SemanticCache for ShardedCache {
    fn probe(&self, query: &str, context: &[String]) -> CacheDecisionOutcome {
        let shard = match self.config.routing {
            RoutingMode::Hash => self.hash_route(query, context),
            RoutingMode::Centroid => self.semantic_route(query, context).0,
            RoutingMode::ScatterGather => return self.probe_scatter(query, context),
        };
        let outcome = self.read_tracked(shard).probe(query, context);
        self.globalise(shard, outcome)
    }

    fn commit(&mut self, outcome: &CacheDecisionOutcome) {
        if let Some(hit) = outcome.hit() {
            let (shard, local) = self.split_id(hit.entry_id);
            let mut local_hit = hit.clone();
            local_hit.entry_id = local;
            shard_mut(&mut self.shards[shard]).commit(&CacheDecisionOutcome::Hit(local_hit));
        }
    }

    fn probe_batch(&self, probes: &[(&str, &[String])]) -> Vec<CacheDecisionOutcome> {
        if self.config.routing == RoutingMode::ScatterGather {
            return self.probe_batch_scatter(probes);
        }
        // Partition probe positions by shard, fan the per-shard batches out
        // across the rayon pool (each task holds one shard's read guard for
        // one `probe_batch` pass), then scatter the outcomes back into
        // submission order.
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (pos, (query, context)) in probes.iter().enumerate() {
            buckets[self.shard_of(query, context)].push(pos);
        }
        let tasks: Vec<(usize, Vec<usize>)> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, positions)| !positions.is_empty())
            .collect();
        let per_task: Vec<Vec<CacheDecisionOutcome>> = tasks
            .par_iter()
            .map(|(shard, positions)| {
                let shard_probes: Vec<(&str, &[String])> =
                    positions.iter().map(|&pos| probes[pos]).collect();
                let outcomes = self.read_tracked(*shard).probe_batch(&shard_probes);
                outcomes
                    .into_iter()
                    .map(|outcome| self.globalise(*shard, outcome))
                    .collect()
            })
            .collect();
        let mut results = vec![CacheDecisionOutcome::Miss; probes.len()];
        for ((_, positions), outcomes) in tasks.iter().zip(per_task) {
            for (&pos, outcome) in positions.iter().zip(outcomes) {
                results[pos] = outcome;
            }
        }
        results
    }

    fn insert(&mut self, query: &str, response: &str, context: &[String]) -> Result<u64> {
        let (shard, root_embedding) = self.insert_route(query, context);
        let semantic = self.config.routing != RoutingMode::Hash;
        if semantic {
            let total = self.total_occupancy();
            apply_capacity_borrowing(
                self.config.routing,
                self.config.capacity,
                shard_mut(&mut self.shards[shard]),
                total,
            );
        }
        let local = shard_mut(&mut self.shards[shard]).insert(query, response, context)?;
        if semantic {
            self.note_insert(shard, query, context, root_embedding);
        }
        Ok(self.public_id(shard, local))
    }

    fn lookup_network_overhead_s(&self) -> f64 {
        0.0
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    fn storage_bytes(&self) -> usize {
        self.shards.iter().map(|s| read(s).storage_bytes()).sum()
    }

    fn embedding_bytes(&self) -> usize {
        self.shards.iter().map(|s| read(s).embedding_bytes()).sum()
    }

    fn name(&self) -> String {
        let inner = read(&self.shards[0]).name();
        match self.config.routing {
            RoutingMode::Hash => format!("Sharded[{}]{inner}", self.shards.len()),
            mode => format!("Sharded[{};{}]{inner}", self.shards.len(), mode.name()),
        }
    }
}

/// Number of Lloyd iterations [`ShardedCache::seed_centroids`] runs.
const KMEANS_ITERS: usize = 12;

/// Deterministic spherical k-means: farthest-first initialisation (no RNG —
/// seeding must reproduce bit-for-bit across processes), then `iters`
/// Lloyd rounds of assign-to-nearest-centroid / renormalised-mean updates.
/// Returns `(centroids, cluster_sizes)`; both empty when `samples` is.
/// Empty clusters are re-seeded from the sample that is farthest from every
/// current centroid, so `k` shards always get `k` usable centroids when at
/// least one sample exists.
fn spherical_kmeans(samples: &[&[f32]], k: usize, iters: usize) -> (Vec<Vec<f32>>, Vec<u64>) {
    if samples.is_empty() || k == 0 {
        return (Vec::new(), Vec::new());
    }
    let dims = samples[0].len();
    // Farthest-first traversal: start from sample 0, repeatedly add the
    // sample with the lowest best-similarity to any chosen centre.
    let mut centroids: Vec<Vec<f32>> = vec![samples[0].to_vec()];
    let mut best_sim: Vec<f32> = samples.iter().map(|s| vector::dot(s, samples[0])).collect();
    while centroids.len() < k {
        let next = best_sim
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        centroids.push(samples[next].to_vec());
        for (sim, sample) in best_sim.iter_mut().zip(samples) {
            *sim = sim.max(vector::dot(sample, samples[next]));
        }
    }
    let mut counts = vec![0u64; k];
    for _ in 0..iters {
        let mut sums = vec![vec![0.0f32; dims]; k];
        counts = vec![0u64; k];
        for sample in samples {
            let cell = nearest_centroid(sample, &centroids);
            vector::axpy(1.0, sample, &mut sums[cell]);
            counts[cell] += 1;
        }
        for (cell, sum) in sums.iter_mut().enumerate() {
            if counts[cell] == 0 {
                // Re-seed an empty cell from the sample farthest from every
                // live centroid, so no shard is left unroutable.
                let farthest = samples
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let sa = centroid_affinity(a, &centroids);
                        let sb = centroid_affinity(b, &centroids);
                        sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                centroids[cell] = samples[farthest].to_vec();
                counts[cell] = 1;
                continue;
            }
            vector::normalize(sum);
            centroids[cell] = std::mem::take(sum);
        }
    }
    (centroids, counts)
}

/// Best similarity of `sample` to any centroid.
fn centroid_affinity(sample: &[f32], centroids: &[Vec<f32>]) -> f32 {
    centroids
        .iter()
        .map(|c| vector::dot(sample, c))
        .fold(f32::NEG_INFINITY, f32::max)
}

/// Index of the centroid with the highest dot product (all unit vectors, so
/// dot == cosine). Lowest index wins exact ties — deterministic routing.
fn nearest_centroid(embedding: &[f32], centroids: &[Vec<f32>]) -> usize {
    let mut best = 0;
    let mut best_sim = f32::NEG_INFINITY;
    for (i, centroid) in centroids.iter().enumerate() {
        let sim = vector::dot(embedding, centroid);
        if sim > best_sim {
            best_sim = sim;
            best = i;
        }
    }
    best
}

/// The root query text of `entry`'s conversation chain, following parent
/// links through `by_id` (the entry's own query when standalone). A
/// dangling or cyclic link — impossible for logs written by this crate, but
/// this also runs over reloaded files — stops at the last resolvable hop.
fn chain_root<'a>(by_id: &HashMap<u64, &'a CacheEntry>, entry: &'a CacheEntry) -> &'a str {
    let mut current = entry;
    for _ in 0..=by_id.len() {
        match current.parent.and_then(|p| by_id.get(&p)) {
            Some(parent) => current = parent,
            None => break,
        }
    }
    &current.query
}

/// Rebuilds `source` under `new_config` by replaying every cached entry
/// through fresh routing — the explicit path for changing a live (or
/// reloaded) cache's shard count or [`RoutingMode`].
///
/// Entries keep their query, response, embedding and parent links (parents
/// are remapped to their new shard-local ids; a conversation always lands
/// whole in one shard, whatever the target mode). Entry ids — and therefore
/// the public namespaced ids — are reassigned. Access recency/frequency
/// metadata is reset, exactly as a save/load cycle resets it. When the new
/// capacity is smaller than the entry count, later-replayed entries evict
/// earlier ones under the target's eviction policy.
///
/// Switching *to* [`RoutingMode::Centroid`]: the source's centroids are
/// carried over when it already had compatible ones; otherwise fresh
/// centroids are seeded by k-means over the replayed entries' own
/// embeddings.
///
/// # Errors
/// Returns [`crate::CacheError::InvalidConfig`] for an invalid
/// `new_config`, and propagates storage failures from the replay.
pub fn reshard(source: &ShardedCache, new_config: MeanCacheConfig) -> Result<ShardedCache> {
    let mut target = ShardedCache::new(source.encoder().clone(), new_config)?;
    // The encoder is unchanged, so memoized embeddings stay valid across a
    // reshard: carry the memo (and its warm contents) to the target.
    target.set_embedding_memo(source.embedding_memo().cloned());
    if target.config.routing == RoutingMode::Centroid {
        let (centroids, counts) = source.centroid_state();
        let compatible = centroids.len() == target.shard_count()
            && centroids
                .iter()
                .all(|c| c.len() == target.encoder().output_dim());
        if compatible && !centroids.is_empty() {
            target.restore_centroid_state(centroids, counts)?;
        } else {
            // Seed from the entries themselves: deterministic shard order,
            // ascending ids.
            let mut samples: Vec<Vec<f32>> = Vec::new();
            for shard in 0..source.shard_count() {
                source.with_shard(shard, |cache| {
                    let mut entries: Vec<&CacheEntry> = cache.entries().collect();
                    entries.sort_by_key(|e| e.id);
                    samples.extend(entries.iter().map(|e| e.embedding.as_slice().to_vec()));
                });
            }
            target.seed_centroids(&samples)?;
        }
    }
    for shard in 0..source.shard_count() {
        let mut entries: Vec<CacheEntry> =
            source.with_shard(shard, |cache| cache.entries().cloned().collect());
        // Resolve every entry's conversation root up front (cloning only
        // the root *strings*, not the embedding-heavy entries a second
        // time); the borrow map dies before the sort moves the entries.
        let roots: HashMap<u64, String> = {
            let by_id_refs: HashMap<u64, &CacheEntry> = entries.iter().map(|e| (e.id, e)).collect();
            entries
                .iter()
                .map(|e| (e.id, chain_root(&by_id_refs, e).to_string()))
                .collect()
        };
        // Parents before children (ids are allocated monotonically, so a
        // parent's id is always below its children's).
        entries.sort_by_key(|e| (e.parent.is_some(), e.id));
        let mut remap: HashMap<u64, (usize, u64)> = HashMap::with_capacity(entries.len());
        for mut entry in entries {
            let root = roots[&entry.id].clone();
            let old_id = entry.id;
            let target_shard = target.replay_route(&root);
            entry.parent = match entry.parent {
                None => None,
                Some(old_parent) => match remap.get(&old_parent) {
                    // Same root ⇒ same pin ⇒ same shard; a parent that was
                    // itself evicted during replay leaves the child
                    // standalone-rooted rather than dangling.
                    Some((parent_shard, new_parent)) if *parent_shard == target_shard => {
                        Some(*new_parent)
                    }
                    _ => None,
                },
            };
            let cache = target.shard_cache_mut(target_shard);
            let new_id = cache.reserve_id();
            entry.id = new_id;
            cache.restore_entry(entry)?;
            remap.insert(old_id, (target_shard, new_id));
            target.pin_root(&root, target_shard);
        }
    }
    Ok(target)
}

impl ShardedCache {
    /// Replay-time routing: pins first (so every entry of a conversation
    /// follows its root), then the target mode's stateless rule. Centroids
    /// stay **frozen** during a replay — the k-means seeding already saw
    /// the data, and freezing keeps the replay order-insensitive for
    /// standalone entries.
    fn replay_route(&self, root: &str) -> usize {
        let router = read_router(&self.router);
        if let Some(&shard) = router.pins.get(&fnv1a(root)) {
            return shard;
        }
        match self.config.routing {
            RoutingMode::Hash => (fnv1a(root) % self.shards.len() as u64) as usize,
            RoutingMode::Centroid => {
                if router.centroids.is_empty() {
                    return (fnv1a(root) % self.shards.len() as u64) as usize;
                }
                let embedding = self.embed(root);
                nearest_centroid(embedding.as_slice(), &router.centroids)
            }
            RoutingMode::ScatterGather => {
                drop(router);
                self.least_occupied()
            }
        }
    }

    /// Records a root → shard pin (replay/reload path; the live insert path
    /// goes through `note_insert`).
    fn pin_root(&mut self, root: &str, shard: usize) {
        self.router
            .get_mut()
            .unwrap_or_else(|p| p.into_inner())
            .pins
            .insert(fnv1a(root), shard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_embedder::ModelProfile;

    fn encoder() -> QueryEncoder {
        QueryEncoder::new(ModelProfile::tiny(), 7).unwrap()
    }

    fn sharded(shards: usize, threshold: f32) -> ShardedCache {
        ShardedCache::new(
            encoder(),
            MeanCacheConfig::default()
                .with_threshold(threshold)
                .with_shards(shards),
        )
        .unwrap()
    }

    fn sharded_with(shards: usize, threshold: f32, routing: RoutingMode) -> ShardedCache {
        ShardedCache::new(
            encoder(),
            MeanCacheConfig::default()
                .with_threshold(threshold)
                .with_shards(shards)
                .with_routing(routing),
        )
        .unwrap()
    }

    #[test]
    fn sharded_cache_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedCache>();
        assert_send_sync::<MeanCache>();
    }

    #[test]
    fn routing_is_deterministic_and_conversation_affine() {
        let cache = sharded(8, 0.6);
        let q = "how do I bake sourdough bread";
        assert_eq!(cache.shard_of(q, &[]), cache.shard_of(q, &[]));
        // A follow-up routes by its conversation root, not its own text.
        let root = vec!["how do I bake sourdough bread".to_string()];
        assert_eq!(
            cache.shard_of("make it whole-grain", &root),
            cache.shard_of(q, &[]),
        );
        // Deeper chains keep the same root and therefore the same shard.
        let deep = vec![
            "how do I bake sourdough bread".to_string(),
            "make it whole-grain".to_string(),
        ];
        assert_eq!(
            cache.shard_of("and reduce the salt", &deep),
            cache.shard_of(q, &[]),
        );
    }

    #[test]
    fn exact_repeats_and_context_chains_hit_across_shards() {
        let mut cache = sharded(4, 0.6);
        let parent_id = cache
            .insert("draw a line plot in python", "Use plt.plot.", &[])
            .unwrap();
        let ctx = vec!["draw a line plot in python".to_string()];
        let child_id = cache
            .insert("change the color to red", "Pass color='red'.", &ctx)
            .unwrap();
        assert_ne!(parent_id, child_id);

        // Exact repeat of the standalone query: hit with score ~1.
        let hit = cache.lookup("draw a line plot in python", &[]);
        assert_eq!(hit.hit().unwrap().entry_id, parent_id);
        // Same conversation: contextual hit; wrong conversation: miss.
        let same = cache.lookup("change the color to red", &ctx);
        assert!(same.hit().unwrap().contextual);
        assert_eq!(same.hit().unwrap().entry_id, child_id);
        // A different conversation routes by *its* root — whichever shard
        // that is, the probe must miss (either the shard holds nothing
        // similar, or context verification rejects the candidate).
        assert!(cache
            .lookup("change the color to red", &["draw a circle".to_string()])
            .is_miss());
        assert!(cache.lookup("change the color to red", &[]).is_miss());
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn shard_stats_track_per_shard_activity() {
        let mut cache = sharded(4, 0.6);
        for i in 0..24 {
            cache
                .insert(&format!("distinct topic number {i}"), &format!("r{i}"), &[])
                .unwrap();
        }
        cache.lookup("distinct topic number 3", &[]);
        cache.lookup("distinct topic number 9", &[]);

        let stats = cache.shard_stats();
        assert_eq!(stats.len(), 4);
        let total_occupancy: usize = stats.iter().map(|s| s.occupancy).sum();
        assert_eq!(total_occupancy, cache.len());
        let total_inserts: u64 = stats.iter().map(|s| s.inserts).sum();
        assert_eq!(total_inserts, 24);
        let total_hits: u64 = stats.iter().map(|s| s.hits).sum();
        assert_eq!(total_hits, 2);
        // Nothing evicted yet, and the single-owner path never contends.
        assert!(stats.iter().all(|s| s.evictions == 0));
        assert!(stats.iter().all(|s| s.lock_contended == 0));

        // The JSON representation round-trips (the serve snapshot embeds
        // these).
        let json = serde_json::to_string(&stats).unwrap();
        let parsed: Vec<ShardStat> = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, stats);

        cache.clear().unwrap();
        assert!(cache
            .shard_stats()
            .iter()
            .all(|s| s == &ShardStat::default()));
    }

    #[test]
    fn shard_stats_count_evictions_not_removals() {
        let mut config = MeanCacheConfig::default()
            .with_threshold(0.6)
            .with_shards(2);
        config.capacity = 8;
        let mut cache = ShardedCache::new(encoder(), config).unwrap();
        let inserts = 40;
        for i in 0..inserts {
            cache
                .insert(&format!("distinct topic number {i}"), &format!("r{i}"), &[])
                .unwrap();
        }
        assert_eq!(cache.shard_lens(), [4, 4], "both shards full");
        let evicted = inserts - 8;
        // A TTL or invalidation reclaim removes entries without evicting.
        for id in cache.entry_ids().into_iter().take(3) {
            assert!(cache.remove_public(id));
        }
        let stats = cache.shard_stats();
        assert_eq!(stats.iter().map(|s| s.occupancy).sum::<usize>(), 5);
        assert_eq!(stats.iter().map(|s| s.evictions).sum::<u64>(), evicted);
    }

    #[test]
    fn warm_memo_reports_attribution_only_with_a_memo() {
        let mut cache = sharded(2, 0.6);
        assert_eq!(cache.warm_memo("hello there"), None);
        cache.set_embedding_memo(Some(Arc::new(EmbeddingMemo::new(64, 0))));
        assert_eq!(cache.warm_memo("hello there"), Some(false));
        assert_eq!(cache.warm_memo("hello there"), Some(true));
        // Warming does not perturb probe results: the probe's internal
        // encode is now a guaranteed memo hit with an identical vector.
        cache.insert_shared("hello there", "hi", &[]).unwrap();
        assert!(cache.probe("hello there", &[]).hit().is_some());
    }

    #[test]
    fn public_ids_are_unique_and_resolve_to_their_entries() {
        let mut cache = sharded(4, 0.6);
        let mut ids = Vec::new();
        for i in 0..40 {
            let id = cache
                .insert(&format!("distinct topic number {i}"), &format!("r{i}"), &[])
                .unwrap();
            ids.push((id, format!("distinct topic number {i}")));
        }
        let unique: std::collections::HashSet<u64> = ids.iter().map(|(id, _)| *id).collect();
        assert_eq!(unique.len(), ids.len(), "public ids must not collide");
        for (id, query) in &ids {
            let entry = cache.entry(*id).expect("public id resolves");
            assert_eq!(&entry.query, query);
        }
        assert_eq!(cache.len(), 40);
        assert_eq!(cache.shard_lens().iter().sum::<usize>(), 40);
        assert!(
            cache.shard_lens().iter().filter(|&&l| l > 0).count() > 1,
            "40 distinct queries must spread over more than one shard: {:?}",
            cache.shard_lens()
        );
    }

    #[test]
    fn single_shard_matches_unsharded_decisions_exactly() {
        let mut flat =
            MeanCache::new(encoder(), MeanCacheConfig::default().with_threshold(0.6)).unwrap();
        let mut one = sharded(1, 0.6);
        let items = [
            ("how do I bake sourdough bread", "Ferment overnight."),
            ("what is federated learning", "On-device training."),
            ("tips for travelling to japan", "Get a rail pass."),
        ];
        for (q, r) in items {
            flat.insert(q, r, &[]).unwrap();
            one.insert(q, r, &[]).unwrap();
        }
        for probe in [
            "how do I bake sourdough bread",
            "explain federated learning",
            "what is the capital of portugal",
        ] {
            assert_eq!(
                flat.lookup(probe, &[]),
                one.lookup(probe, &[]),
                "probe {probe:?} diverged"
            );
        }
        assert_eq!(flat.stats(), one.stats());
    }

    #[test]
    fn probe_batch_matches_sequential_probes() {
        let mut cache = sharded(4, 0.6);
        for i in 0..25 {
            cache
                .insert(&format!("unique subject number {i}"), "resp", &[])
                .unwrap();
        }
        let probes: Vec<(String, Vec<String>)> = (0..25)
            .map(|i| (format!("unique subject number {i}"), Vec::new()))
            .chain((0..5).map(|i| (format!("never cached topic {i}"), Vec::new())))
            .collect();
        let refs: Vec<(&str, &[String])> = probes
            .iter()
            .map(|(q, c)| (q.as_str(), c.as_slice()))
            .collect();
        let batched = cache.probe_batch(&refs);
        for ((query, context), batched_outcome) in probes.iter().zip(&batched) {
            assert_eq!(
                &cache.probe(query, context),
                batched_outcome,
                "probe {query:?} diverged"
            );
        }
    }

    #[test]
    fn feedback_and_threshold_stay_uniform_across_shards() {
        let mut cache = sharded(3, 0.7);
        cache.record_feedback(true);
        let raised = cache.threshold();
        assert!(raised > 0.7);
        for shard in 0..cache.shard_count() {
            assert_eq!(cache.with_shard(shard, |c| c.threshold()), raised);
        }
        cache.set_threshold(0.5);
        for shard in 0..cache.shard_count() {
            assert_eq!(cache.with_shard(shard, |c| c.threshold()), 0.5);
        }
        // One feedback event, counted once — not once per shard.
        assert_eq!(cache.stats().feedback_updates, 1);
    }

    #[test]
    fn capacity_splits_across_shards() {
        let cache = ShardedCache::new(
            encoder(),
            MeanCacheConfig::default()
                .with_shards(4)
                .with_threshold(0.6),
        )
        .unwrap();
        // 100_000 total over 4 shards: each shard holds 25_000.
        assert_eq!(cache.with_shard(0, |c| c.config().capacity), 25_000);
        assert_eq!(cache.with_shard(0, |c| c.config().shards), 1);
        assert_eq!(cache.config().shards, 4);
        assert!(cache.name().starts_with("Sharded[4]"));
        assert_eq!(cache.lookup_network_overhead_s(), 0.0);
    }

    #[test]
    fn shared_inserts_match_exclusive_inserts() {
        let mut exclusive = sharded(4, 0.6);
        let shared = sharded(4, 0.6);
        for i in 0..20 {
            let q = format!("distinct shared topic {i}");
            let a = exclusive.insert(&q, "resp", &[]).unwrap();
            let b = shared.insert_shared(&q, "resp", &[]).unwrap();
            assert_eq!(a, b, "shared and exclusive inserts must allocate alike");
        }
        assert_eq!(exclusive.shard_lens(), shared.shard_lens());
        for i in 0..20 {
            let q = format!("distinct shared topic {i}");
            assert_eq!(exclusive.probe(&q, &[]), shared.probe(&q, &[]));
        }
    }

    #[test]
    fn concurrent_shared_inserts_land_once_each() {
        let cache = sharded(4, 0.6);
        let threads = 4;
        let per_thread = 25;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        cache
                            .insert_shared(&format!("writer {t} topic {i}"), "resp", &[])
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), threads * per_thread);
        assert_eq!(cache.stats().inserts, (threads * per_thread) as u64);
        // Every inserted query is findable (ids resolved, index consistent).
        for t in 0..threads {
            for i in 0..per_thread {
                assert!(
                    cache.probe(&format!("writer {t} topic {i}"), &[]).is_hit(),
                    "writer {t} topic {i} must be probeable"
                );
            }
        }
    }

    #[test]
    fn lookup_shared_touches_like_lookup() {
        let mut a = sharded(2, 0.6);
        let b = sharded(2, 0.6);
        a.insert("what is federated learning", "FL.", &[]).unwrap();
        b.insert_shared("what is federated learning", "FL.", &[])
            .unwrap();
        assert_eq!(
            a.lookup("what is federated learning", &[]),
            b.lookup_shared("what is federated learning", &[]),
        );
        assert_eq!(a.stats(), b.stats());
        // A miss commits nothing and takes no write lock.
        assert!(b.lookup_shared("entirely uncached question", &[]).is_miss());
    }

    #[test]
    fn clone_is_a_deep_snapshot() {
        let mut cache = sharded(2, 0.6);
        cache
            .insert("what is federated learning", "FL.", &[])
            .unwrap();
        let snapshot = cache.clone();
        cache.insert("another entry entirely", "x", &[]).unwrap();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(cache.len(), 2);
        assert!(snapshot.probe("what is federated learning", &[]).is_hit());
    }

    // ---- routing modes -----------------------------------------------------

    #[test]
    fn routing_mode_names_round_trip() {
        for mode in [
            RoutingMode::Hash,
            RoutingMode::Centroid,
            RoutingMode::ScatterGather,
        ] {
            assert_eq!(RoutingMode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(RoutingMode::from_name("bogus"), None);
        assert_eq!(RoutingMode::default(), RoutingMode::Hash);
    }

    #[test]
    fn scatter_gather_finds_entries_on_any_shard() {
        let mut hash = sharded(8, 0.6);
        let mut scatter = sharded_with(8, 0.6, RoutingMode::ScatterGather);
        // Insert through *hash* routing into the scatter cache's shards by
        // copying the entries over via reshard — instead, simply insert
        // into each and verify every exact repeat hits under scatter.
        for i in 0..30 {
            let q = format!("scatter subject number {i}");
            hash.insert(&q, "resp", &[]).unwrap();
            scatter.insert(&q, "resp", &[]).unwrap();
        }
        for i in 0..30 {
            let q = format!("scatter subject number {i}");
            assert!(scatter.probe(&q, &[]).is_hit(), "{q} must hit");
        }
        // Load balancing: least-occupied insert keeps shards level.
        let lens = scatter.shard_lens();
        let (min, max) = (
            lens.iter().min().copied().unwrap(),
            lens.iter().max().copied().unwrap(),
        );
        assert!(max - min <= 1, "scatter inserts must balance: {lens:?}");
        assert_eq!(scatter.stats().lookups, 30);
        assert_eq!(scatter.stats().hits, 30);
        assert!(scatter.name().contains("scatter-gather"));
    }

    #[test]
    fn scatter_gather_matches_unsharded_decisions_on_standalone_entries() {
        let mut flat =
            MeanCache::new(encoder(), MeanCacheConfig::default().with_threshold(0.6)).unwrap();
        let mut scatter = sharded_with(4, 0.6, RoutingMode::ScatterGather);
        let items = [
            "how can I increase the battery life of my smartphone",
            "how do I bake sourdough bread at home",
            "what is federated learning",
            "tips for travelling to japan in spring",
        ];
        for (i, q) in items.iter().enumerate() {
            flat.insert(q, &format!("resp {i}"), &[]).unwrap();
            scatter.insert(q, &format!("resp {i}"), &[]).unwrap();
        }
        for probe in [
            "how can I increase the battery life of my phone",
            "how do I bake sourdough bread",
            "explain federated learning",
            "what is the capital city of portugal",
        ] {
            let a = flat.probe(probe, &[]);
            let b = scatter.probe(probe, &[]);
            assert_eq!(a.is_hit(), b.is_hit(), "probe {probe:?} diverged");
            if let (Some(ha), Some(hb)) = (a.hit(), b.hit()) {
                assert_eq!(ha.response, hb.response, "probe {probe:?} response");
                assert_eq!(
                    ha.score.to_bits(),
                    hb.score.to_bits(),
                    "probe {probe:?} score"
                );
            }
        }
    }

    #[test]
    fn scatter_gather_batch_matches_single_probes() {
        let mut cache = sharded_with(4, 0.6, RoutingMode::ScatterGather);
        for i in 0..20 {
            cache
                .insert(&format!("batchable subject {i}"), "resp", &[])
                .unwrap();
        }
        cache
            .insert("draw a line plot in python", "Use plt.plot.", &[])
            .unwrap();
        let ctx = vec!["draw a line plot in python".to_string()];
        cache
            .insert("change the color to red", "Pass color='red'.", &ctx)
            .unwrap();
        let probes: Vec<(String, Vec<String>)> = (0..20)
            .map(|i| (format!("batchable subject {i}"), Vec::new()))
            .chain(std::iter::once((
                "change the color to red".to_string(),
                ctx.clone(),
            )))
            .chain((0..5).map(|i| (format!("never cached topic {i}"), Vec::new())))
            .collect();
        let refs: Vec<(&str, &[String])> = probes
            .iter()
            .map(|(q, c)| (q.as_str(), c.as_slice()))
            .collect();
        let batched = cache.probe_batch(&refs);
        for ((query, context), batched_outcome) in probes.iter().zip(&batched) {
            assert_eq!(
                &cache.probe(query, context),
                batched_outcome,
                "probe {query:?} diverged"
            );
        }
    }

    #[test]
    fn scatter_gather_keeps_conversations_affine() {
        let mut cache = sharded_with(4, 0.6, RoutingMode::ScatterGather);
        cache
            .insert("draw a line plot in python", "Use plt.plot.", &[])
            .unwrap();
        let ctx = vec!["draw a line plot in python".to_string()];
        let child = cache
            .insert("change the color to red", "Pass color='red'.", &ctx)
            .unwrap();
        // Root pin: the follow-up must land in its parent's shard so the
        // parent link resolves.
        let entry = cache.entry(child).unwrap();
        assert!(entry.parent.is_some(), "follow-up must link its parent");
        let same = cache.lookup("change the color to red", &ctx);
        assert!(same.hit().unwrap().contextual);
        assert!(cache
            .lookup("change the color to red", &["draw a circle".to_string()])
            .is_miss());
    }

    #[test]
    fn centroid_routing_pins_exact_repeats_and_routes_paraphrases_semantically() {
        let mut cache = sharded_with(4, 0.55, RoutingMode::Centroid);
        let seeds = [
            "how can I increase the battery life of my smartphone",
            "how do I bake sourdough bread at home",
            "what is federated learning exactly",
            "tips for travelling to japan in spring",
        ];
        cache.seed_centroids_from_texts(&seeds).unwrap();
        assert!(cache.centroids_seeded());
        for (i, q) in seeds.iter().enumerate() {
            cache.insert(q, &format!("resp {i}"), &[]).unwrap();
        }
        assert_eq!(cache.root_pin_count(), 4);
        // Exact repeats hit via the pin table.
        for q in seeds {
            assert!(cache.probe(q, &[]).is_hit(), "{q} must hit");
        }
        // A paraphrase routes by embedding to the same centroid as its
        // original and therefore hits.
        let hit = cache.probe("how can I increase the battery life of my phone", &[]);
        assert!(
            hit.is_hit(),
            "paraphrase must route to its original's shard"
        );
        assert!(hit.hit().unwrap().response.contains("resp 0"));
        assert!(cache.name().contains("centroid"));
    }

    #[test]
    fn unseeded_centroid_mode_falls_back_to_hash_routing() {
        let mut centroid = sharded_with(8, 0.6, RoutingMode::Centroid);
        let hash = sharded(8, 0.6);
        assert!(!centroid.centroids_seeded());
        // Same shard assignment as hash for unseeded fresh roots.
        for i in 0..20 {
            let q = format!("fallback subject number {i}");
            assert_eq!(centroid.shard_of(&q, &[]), hash.shard_of(&q, &[]));
        }
        centroid
            .insert("what is federated learning", "FL.", &[])
            .unwrap();
        assert!(centroid.probe("what is federated learning", &[]).is_hit());
    }

    #[test]
    fn capacity_borrowing_lets_a_hot_shard_grow_into_the_global_budget() {
        // One conversation (one root pin ⇒ one shard) inserting 8 entries
        // into a 4-shard cache with a *total* capacity of 8. The fixed
        // split would cap the hot shard at 2; borrowing must keep all 8.
        let mut config = MeanCacheConfig::default()
            .with_threshold(0.6)
            .with_shards(4)
            .with_routing(RoutingMode::ScatterGather);
        config.capacity = 8;
        let mut cache = ShardedCache::new(encoder(), config.clone()).unwrap();
        let root = "the very first question of a long conversation".to_string();
        cache.insert(&root, "r0", &[]).unwrap();
        let mut context = vec![root.clone()];
        for i in 1..8 {
            cache
                .insert(&format!("follow-up number {i}"), &format!("r{i}"), &context)
                .unwrap();
            context.push(format!("follow-up number {i}"));
        }
        assert_eq!(cache.len(), 8, "borrowing must retain the whole budget");
        assert_eq!(
            cache.shard_lens().iter().filter(|&&l| l > 0).count(),
            1,
            "one conversation pins to one shard"
        );
        // The 9th insert exceeds the global budget: an eviction happens and
        // the total stays at 8.
        cache.insert("follow-up number 8", "r8", &context).unwrap();
        assert_eq!(cache.len(), 8, "global budget must hold after borrowing");

        // Hash mode keeps the fixed split: the same traffic caps the hot
        // shard at ceil(8/4) = 2.
        let mut hash_cache = ShardedCache::new(
            encoder(),
            MeanCacheConfig {
                routing: RoutingMode::Hash,
                ..config
            },
        )
        .unwrap();
        hash_cache.insert(&root, "r0", &[]).unwrap();
        let mut context = vec![root.clone()];
        for i in 1..8 {
            hash_cache
                .insert(&format!("follow-up number {i}"), &format!("r{i}"), &context)
                .unwrap();
            context.push(format!("follow-up number {i}"));
        }
        assert_eq!(
            hash_cache.len(),
            2,
            "hash mode must keep the fixed capacity/N split"
        );
    }

    #[test]
    fn clear_empties_contents_but_keeps_centroids_and_threshold() {
        let mut cache = sharded_with(3, 0.6, RoutingMode::Centroid);
        let seeds: Vec<String> = (0..9).map(|i| format!("clear seed subject {i}")).collect();
        cache.seed_centroids_from_texts(&seeds).unwrap();
        for q in &seeds {
            cache.insert(q, "resp", &[]).unwrap();
        }
        cache.set_threshold(0.42);
        cache.clear().unwrap();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.root_pin_count(), 0, "pins are content-derived");
        assert!(
            cache.centroids_seeded(),
            "a flush must not degrade centroid routing to the hash fallback"
        );
        assert_eq!(cache.threshold(), 0.42, "live threshold survives");
        assert_eq!(cache.stats().inserts, 0, "statistics reset with contents");
        // The cleared cache still routes and serves.
        cache.insert("post-clear entry", "resp", &[]).unwrap();
        assert!(cache.probe("post-clear entry", &[]).is_hit());
    }

    #[test]
    fn reshard_changes_shard_count_and_preserves_contents() {
        let mut cache = sharded(3, 0.6);
        for i in 0..24 {
            cache
                .insert(
                    &format!("reshard subject number {i}"),
                    &format!("r{i}"),
                    &[],
                )
                .unwrap();
        }
        cache
            .insert("draw a line plot in python", "Use plt.plot.", &[])
            .unwrap();
        let ctx = vec!["draw a line plot in python".to_string()];
        cache
            .insert("change the color to red", "Pass color='red'.", &ctx)
            .unwrap();

        for (shards, routing) in [
            (5, RoutingMode::Hash),
            (2, RoutingMode::Centroid),
            (4, RoutingMode::ScatterGather),
        ] {
            let resharded = reshard(
                &cache,
                cache
                    .config()
                    .clone()
                    .with_shards(shards)
                    .with_routing(routing),
            )
            .unwrap();
            assert_eq!(resharded.shard_count(), shards);
            assert_eq!(resharded.len(), cache.len(), "{routing:?} lost entries");
            for i in 0..24 {
                let q = format!("reshard subject number {i}");
                assert!(
                    resharded.probe(&q, &[]).is_hit(),
                    "{q} must hit after resharding to {shards} {routing:?}"
                );
            }
            // The conversation chain survives whole.
            assert!(resharded
                .probe("change the color to red", &ctx)
                .hit()
                .map(|h| h.contextual)
                .unwrap_or(false));
            assert!(resharded
                .probe("change the color to red", &["draw a circle".to_string()])
                .is_miss());
        }
    }

    #[test]
    fn kmeans_is_deterministic_and_covers_all_cells() {
        let samples: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                let mut v = vec![0.0f32; 8];
                v[i % 8] = 1.0;
                v[(i + 3) % 8] = 0.5;
                vector::normalize(&mut v);
                v
            })
            .collect();
        let refs: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
        let (a, counts_a) = spherical_kmeans(&refs, 4, KMEANS_ITERS);
        let (b, _) = spherical_kmeans(&refs, 4, KMEANS_ITERS);
        assert_eq!(a, b, "seeding must be deterministic");
        assert_eq!(a.len(), 4);
        assert!(
            counts_a.iter().all(|&c| c > 0),
            "no empty cells: {counts_a:?}"
        );
        for c in &a {
            assert!((vector::norm(c) - 1.0).abs() < 1e-4, "centroids unit-norm");
        }
        // Degenerate inputs.
        assert!(spherical_kmeans(&[], 4, 3).0.is_empty());
        let one = [refs[0]];
        let (cs, _) = spherical_kmeans(&one, 3, 3);
        assert_eq!(cs.len(), 3, "k > n still yields k usable centroids");
    }

    // ---- root-pin GC -------------------------------------------------------

    #[test]
    fn sweep_root_pins_drops_only_dead_roots() {
        let mut config = MeanCacheConfig::default()
            .with_threshold(0.6)
            .with_shards(2)
            .with_routing(RoutingMode::ScatterGather);
        config.capacity = 4;
        let mut cache = ShardedCache::new(encoder(), config).unwrap();
        for i in 0..10 {
            cache
                .insert(&format!("sweepable subject number {i}"), "resp", &[])
                .unwrap();
        }
        assert_eq!(cache.root_pin_count(), 10, "every root pinned at insert");
        assert!(cache.len() < 10, "the small budget must have evicted");
        let live = cache.len();
        let swept = cache.sweep_root_pins();
        assert_eq!(swept, 10 - live, "exactly the evicted roots are swept");
        assert_eq!(cache.root_pin_count(), live);
        // Idempotent: nothing left to sweep.
        assert_eq!(cache.sweep_root_pins(), 0);
        // Live entries still probe through their (kept) pins.
        let served: usize = (0..10)
            .filter(|i| {
                cache
                    .probe(&format!("sweepable subject number {i}"), &[])
                    .is_hit()
            })
            .count();
        assert!(served >= live.min(4), "live entries must stay probeable");
    }

    #[test]
    fn sweep_root_pins_keeps_conversation_chains_via_their_root() {
        let mut cache = sharded_with(2, 0.6, RoutingMode::Centroid);
        cache
            .insert("draw a line plot in python", "Use plt.plot.", &[])
            .unwrap();
        let ctx = vec!["draw a line plot in python".to_string()];
        cache
            .insert("change the color to red", "Pass color='red'.", &ctx)
            .unwrap();
        // One conversation, one pinned root; both entries resolve to it.
        assert_eq!(cache.root_pin_count(), 1);
        assert_eq!(cache.sweep_root_pins(), 0, "a live chain keeps its pin");
        assert_eq!(cache.root_pin_count(), 1);
        assert!(cache.probe("change the color to red", &ctx).is_hit());
    }

    // ---- embedding memo ----------------------------------------------------

    #[test]
    fn memo_backed_probes_make_bit_identical_decisions() {
        for routing in [
            RoutingMode::Hash,
            RoutingMode::Centroid,
            RoutingMode::ScatterGather,
        ] {
            let mut plain = sharded_with(4, 0.6, routing);
            let mut memoized = sharded_with(4, 0.6, routing);
            memoized.set_embedding_memo(Some(Arc::new(EmbeddingMemo::new(256, 0))));
            let items = [
                "how can I increase the battery life of my smartphone",
                "how do I bake sourdough bread at home",
                "what is federated learning",
                "draw a line plot in python",
            ];
            for (i, q) in items.iter().enumerate() {
                plain.insert(q, &format!("resp {i}"), &[]).unwrap();
                memoized.insert(q, &format!("resp {i}"), &[]).unwrap();
            }
            let ctx = vec!["draw a line plot in python".to_string()];
            plain
                .insert("change the color to red", "Pass color='red'.", &ctx)
                .unwrap();
            memoized
                .insert("change the color to red", "Pass color='red'.", &ctx)
                .unwrap();
            let probes: [(&str, &[String]); 4] = [
                ("how can I increase the battery life of my phone", &[]),
                ("How Do I Bake Sourdough Bread At Home", &[]),
                ("change the color to red", &ctx),
                ("what is the capital city of portugal", &[]),
            ];
            // Two passes: the second memoized pass answers from the memo.
            for _ in 0..2 {
                for (query, context) in probes {
                    let a = plain.probe(query, context);
                    let b = memoized.probe(query, context);
                    assert_eq!(a.is_hit(), b.is_hit(), "{routing:?} {query:?}");
                    if let (Some(x), Some(y)) = (a.hit(), b.hit()) {
                        assert_eq!(x.response, y.response, "{routing:?} {query:?}");
                        assert_eq!(
                            x.score.to_bits(),
                            y.score.to_bits(),
                            "{routing:?} {query:?} score must be bit-identical"
                        );
                    }
                }
            }
            let stats = memoized.embedding_memo().unwrap().stats();
            assert!(stats.hits > 0, "{routing:?}: repeats must hit the memo");
        }
    }

    #[test]
    fn memo_survives_clone_clear_and_reshard() {
        let mut cache = sharded(2, 0.6);
        let memo = Arc::new(EmbeddingMemo::new(64, 0));
        cache.set_embedding_memo(Some(Arc::clone(&memo)));
        cache
            .insert("what is federated learning", "FL.", &[])
            .unwrap();
        for shard in 0..cache.shard_count() {
            assert!(
                cache.with_shard(shard, |c| c.embedding_memo().is_some()),
                "every shard must share the memo"
            );
        }
        let cloned = cache.clone();
        assert!(Arc::ptr_eq(cloned.embedding_memo().unwrap(), &memo));
        let resharded = reshard(&cache, cache.config().clone().with_shards(3)).unwrap();
        assert!(Arc::ptr_eq(resharded.embedding_memo().unwrap(), &memo));
        assert!(resharded.with_shard(0, |c| c.embedding_memo().is_some()));
        cache.clear().unwrap();
        assert!(
            Arc::ptr_eq(cache.embedding_memo().unwrap(), &memo),
            "a flush keeps the memo (embeddings are still valid)"
        );
        assert!(cache.with_shard(0, |c| c.embedding_memo().is_some()));
        // The warm memo still answers: a repeat probe after clear hits it.
        let hits_before = memo.stats().hits;
        let _ = cache.probe("what is federated learning", &[]);
        assert!(memo.stats().hits > hits_before);
    }
}
