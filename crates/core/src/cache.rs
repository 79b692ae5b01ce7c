//! The MeanCache itself: Algorithm 1 of the paper.
//!
//! A lookup proceeds as: encode the query → retrieve the top-k most similar
//! cached queries above the threshold → for each candidate, verify that its
//! *context chain* matches the probe's conversation → return the first
//! verified candidate's response, or report a miss so the deployment forwards
//! the query to the LLM and inserts the fresh response.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mc_embedder::{EmbeddingMemo, QueryEncoder};
use mc_store::{AnyIndex, CacheEntry, MemoryStore, VectorIndex};
use mc_tensor::vector;
use serde::{Deserialize, Serialize};

use crate::{CacheError, MeanCacheConfig, Result};

/// A successful cache hit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheHit {
    /// Id of the cached entry that answered the query.
    pub entry_id: u64,
    /// The cached response text.
    pub response: String,
    /// Cosine similarity between the probe and the cached query.
    pub score: f32,
    /// Whether the matched entry was a contextual (follow-up) entry.
    pub contextual: bool,
}

/// Outcome of a lookup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CacheDecisionOutcome {
    /// A semantically similar query with a matching context chain was found.
    Hit(CacheHit),
    /// No suitable cached entry: the query must go to the LLM service.
    Miss,
}

impl CacheDecisionOutcome {
    /// `true` for [`CacheDecisionOutcome::Miss`].
    pub fn is_miss(&self) -> bool {
        matches!(self, CacheDecisionOutcome::Miss)
    }

    /// `true` for [`CacheDecisionOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        !self.is_miss()
    }

    /// The hit payload, if any.
    pub fn hit(&self) -> Option<&CacheHit> {
        match self {
            CacheDecisionOutcome::Hit(h) => Some(h),
            CacheDecisionOutcome::Miss => None,
        }
    }
}

/// Running counters the cache keeps about itself (a point-in-time snapshot
/// of the live atomic counters — see [`MeanCache::stats`]).
///
/// The first five count decisions; `encodes` and `index_searches` count the
/// work behind them. Both work counters belong to the `MeanCache` that did
/// the work: a [`crate::ShardedCache`] sums its shards', which leaves out
/// the texts it embeds above them to route or to scatter a probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of lookups performed.
    pub lookups: u64,
    /// Number of lookups that returned a hit.
    pub hits: u64,
    /// Number of lookups where a semantic match was found but rejected by
    /// context verification (would have been a false hit without it).
    pub context_rejections: u64,
    /// Number of entries inserted.
    pub inserts: u64,
    /// Number of user-feedback threshold adjustments applied.
    pub feedback_updates: u64,
    /// Texts embedded: queries and previous turns, through the memo when
    /// one is installed (its own statistics split memo hits from encoder
    /// runs).
    pub encodes: u64,
    /// Index searches run: one per query of a batched search, including
    /// the context-resolution searches and those of scatter-gather probes.
    pub index_searches: u64,
}

impl CacheStats {
    /// Element-wise sum with another snapshot (used by the sharded serving
    /// layer to aggregate per-shard counters).
    #[must_use]
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups + other.lookups,
            hits: self.hits + other.hits,
            context_rejections: self.context_rejections + other.context_rejections,
            inserts: self.inserts + other.inserts,
            feedback_updates: self.feedback_updates + other.feedback_updates,
            encodes: self.encodes + other.encodes,
            index_searches: self.index_searches + other.index_searches,
        }
    }
}

/// The live counters behind [`CacheStats`]. Atomics, so the read-only
/// [`SemanticCache::probe`] path (`&self`, possibly many threads at once)
/// can keep counting without exclusive access. Relaxed ordering is enough:
/// these are monotonic tallies, never used to synchronise other memory.
#[derive(Debug, Default)]
struct AtomicCacheStats {
    lookups: AtomicU64,
    hits: AtomicU64,
    context_rejections: AtomicU64,
    inserts: AtomicU64,
    feedback_updates: AtomicU64,
    encodes: AtomicU64,
    index_searches: AtomicU64,
}

impl AtomicCacheStats {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            context_rejections: self.context_rejections.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            feedback_updates: self.feedback_updates.load(Ordering::Relaxed),
            encodes: self.encodes.load(Ordering::Relaxed),
            index_searches: self.index_searches.load(Ordering::Relaxed),
        }
    }

    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

impl Clone for AtomicCacheStats {
    fn clone(&self) -> Self {
        let snap = self.snapshot();
        AtomicCacheStats {
            lookups: AtomicU64::new(snap.lookups),
            hits: AtomicU64::new(snap.hits),
            context_rejections: AtomicU64::new(snap.context_rejections),
            inserts: AtomicU64::new(snap.inserts),
            feedback_updates: AtomicU64::new(snap.feedback_updates),
            encodes: AtomicU64::new(snap.encodes),
            index_searches: AtomicU64::new(snap.index_searches),
        }
    }
}

/// Common interface shared by MeanCache and the GPTCache-style baseline so
/// the deployment driver and the benchmark harness can treat them uniformly.
///
/// The hot path is split into two halves so a serving layer can run many
/// probes concurrently:
///
/// * [`SemanticCache::probe`] — the read-only half (`&self`): encode, index
///   search, threshold decision, context verification. No cache contents or
///   access metadata change, so any number of threads may probe one cache at
///   once (all statistics live in atomics).
/// * [`SemanticCache::commit`] — the narrow write half (`&mut self`): record
///   access metadata (LRU/LFU bookkeeping) for a decision that was actually
///   served. Inserts and feedback keep their own `&mut` entry points.
///
/// [`SemanticCache::lookup`] is the sequential composition of the two and
/// decides exactly as they do.
pub trait SemanticCache {
    /// The read-only half of a lookup: answers a query under the given
    /// conversational context (most recent turn last) without mutating
    /// anything but atomic statistics. Safe to call from many threads at
    /// once through a shared reference.
    fn probe(&self, query: &str, context: &[String]) -> CacheDecisionOutcome;

    /// The write half of a lookup: records access metadata (eviction-policy
    /// bookkeeping) for an outcome that was served to the user. A miss is a
    /// no-op. Decisions are unaffected — skipping `commit` only degrades
    /// LRU/LFU accuracy, never correctness.
    fn commit(&mut self, outcome: &CacheDecisionOutcome);

    /// Looks up a query under the given conversational context (most recent
    /// turn last): [`SemanticCache::probe`] followed by
    /// [`SemanticCache::commit`]. Does not modify cache contents other than
    /// access metadata. An implementation may also keep what the probe
    /// computed for an [`SemanticCache::insert`] of the same query and
    /// context that follows — the paper's miss → fill — provided the insert
    /// stores exactly what it would have computed itself ([`MeanCache`]
    /// does).
    fn lookup(&mut self, query: &str, context: &[String]) -> CacheDecisionOutcome {
        let outcome = self.probe(query, context);
        self.commit(&outcome);
        outcome
    }

    /// Inserts a fresh (query, response) pair obtained from the LLM.
    ///
    /// # Errors
    /// Returns [`CacheError`] on storage failures.
    fn insert(&mut self, query: &str, response: &str, context: &[String]) -> Result<u64>;

    /// Extra network latency (seconds) a lookup incurs before the cache can
    /// answer: zero for a user-side cache, one round-trip for a server-side
    /// cache like GPTCache.
    fn lookup_network_overhead_s(&self) -> f64;

    /// Read-only batched probe: one outcome per `(query, context)` probe,
    /// in submission order. Probes are borrowed so replayers do not copy
    /// their workload to batch it. The default loops over
    /// [`SemanticCache::probe`]; caches backed by a vector index override
    /// this to funnel all probes through one `search_batch` pass (and the
    /// sharded cache to fan out across shards in parallel).
    fn probe_batch(&self, probes: &[(&str, &[String])]) -> Vec<CacheDecisionOutcome> {
        probes
            .iter()
            .map(|(query, context)| self.probe(query, context))
            .collect()
    }

    /// Looks up a batch of probes in one call:
    /// [`SemanticCache::probe_batch`] followed by one
    /// [`SemanticCache::commit`] per outcome, in submission order.
    fn lookup_batch(&mut self, probes: &[(&str, &[String])]) -> Vec<CacheDecisionOutcome> {
        let outcomes = self.probe_batch(probes);
        for outcome in &outcomes {
            self.commit(outcome);
        }
        outcomes
    }

    /// Number of cached entries.
    fn len(&self) -> usize;

    /// `true` when the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate storage footprint of the cache contents in bytes.
    fn storage_bytes(&self) -> usize;

    /// Bytes spent on embeddings alone (what PCA compression shrinks).
    fn embedding_bytes(&self) -> usize;

    /// Human-readable name for reports.
    fn name(&self) -> String;
}

/// One shard's contribution to a scatter-gather probe: the decision the
/// shard would make on its own (computed **quietly** — no statistics are
/// recorded, since the sharded layer counts one logical lookup per fan-out)
/// plus whether a semantic candidate was rejected by context verification,
/// so the merged outcome can still account context rejections.
#[derive(Debug)]
pub(crate) struct ScatterProbe {
    /// The shard-local decision.
    pub outcome: CacheDecisionOutcome,
    /// A candidate scored above the threshold but failed context
    /// verification.
    pub rejected_by_context: bool,
}

/// The probe's conversational context, analysed once per lookup and built
/// only when a candidate's context check needs it.
#[derive(Debug, Clone)]
enum ProbeContext {
    /// The probe carries no conversation history.
    Standalone,
    /// The probe follows a previous turn.
    Contextual {
        /// Embedding of the most recent previous turn.
        embedding: Vec<f32>,
        /// The cached entries that previous turn plausibly resolves to (its
        /// top-k matches in the cache above the context threshold). Searched
        /// for at most once, and only when a candidate's cached parent has
        /// passed the score test that rejects almost every candidate. A
        /// `OnceLock` rather than a `OnceCell` so that a [`PendingFill`]
        /// holding one leaves `MeanCache` `Sync`.
        resolved: OnceLock<Vec<u64>>,
    },
}

impl ProbeContext {
    /// The context of a probe whose previous turn embeds to `embedding`
    /// (`None`: a standalone probe), not yet resolved.
    fn of_turn(embedding: Option<Vec<f32>>) -> Self {
        match embedding {
            None => ProbeContext::Standalone,
            Some(embedding) => ProbeContext::Contextual {
                embedding,
                resolved: OnceLock::new(),
            },
        }
    }
}

/// What [`MeanCache::lookup`] leaves for the insert that may follow it: the
/// query's embedding and whatever probe context the lookup built, stamped
/// with the exact query text, the exact previous turn and the generation
/// they were computed at.
#[derive(Debug, Clone)]
struct PendingFill {
    generation: u64,
    query: String,
    turn: Option<String>,
    embedding: mc_tensor::Vector,
    /// `None` when no candidate needed it, or context checking is off.
    context: Option<ProbeContext>,
}

/// The user-side semantic cache (the paper's contribution).
///
/// All read paths (including [`SemanticCache::probe`]) take `&self` over
/// plain owned data plus atomic counters, so a `MeanCache` is `Send + Sync`
/// and many threads may probe one instance concurrently — the property the
/// sharded serving layer ([`crate::ShardedCache`]) builds on.
#[derive(Debug, Clone)]
pub struct MeanCache {
    encoder: QueryEncoder,
    config: MeanCacheConfig,
    store: MemoryStore,
    index: AnyIndex,
    stats: AtomicCacheStats,
    /// Optional embedding memo-cache installed by the serving layer. Only
    /// sound while the encoder is frozen — see [`EmbeddingMemo`]'s docs.
    memo: Option<Arc<EmbeddingMemo>>,
    /// The last [`SemanticCache::lookup`]'s work, for its fill.
    pending_fill: Option<PendingFill>,
    /// Bumped by every `&mut` method except `insert` (which takes
    /// `pending_fill` instead), so an older slot is outdated: only an insert
    /// at the generation its lookup stamped may consume it.
    generation: u64,
}

impl MeanCache {
    /// Creates an empty cache around a (typically federated-trained) encoder.
    ///
    /// # Errors
    /// Returns [`CacheError::InvalidConfig`] when the configuration is
    /// invalid.
    pub fn new(encoder: QueryEncoder, config: MeanCacheConfig) -> Result<Self> {
        config.validate()?;
        let store = MemoryStore::new(config.capacity, config.eviction)?;
        let index = config.index.build(encoder.output_dim())?;
        Ok(Self {
            encoder,
            config,
            store,
            index,
            stats: AtomicCacheStats::default(),
            memo: None,
            pending_fill: None,
            generation: 0,
        })
    }

    /// Installs (or removes, with `None`) a shared embedding memo-cache in
    /// front of the encoder. The caller guarantees the encoder is frozen
    /// for the memo's lifetime; all encoder-driven paths (probe, batch
    /// probe, context resolution, insert) then consult the memo first.
    pub fn set_embedding_memo(&mut self, memo: Option<Arc<EmbeddingMemo>>) {
        self.outdate_fill();
        self.memo = memo;
    }

    /// Borrow the installed embedding memo, if any.
    pub fn embedding_memo(&self) -> Option<&Arc<EmbeddingMemo>> {
        self.memo.as_ref()
    }

    /// Encodes `text`, consulting the memo-cache when one is installed.
    /// Memoized results are bit-identical to a cold encode (same tokenizer,
    /// frozen weights), so decisions cannot depend on whether this hit.
    fn embed(&self, text: &str) -> mc_tensor::Vector {
        AtomicCacheStats::bump(&self.stats.encodes, 1);
        match &self.memo {
            Some(memo) => memo.get_or_encode(text, |t| self.encoder.encode(t)),
            None => self.encoder.encode(text),
        }
    }

    /// Borrow the encoder.
    pub fn encoder(&self) -> &QueryEncoder {
        &self.encoder
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &MeanCacheConfig {
        &self.config
    }

    /// The current cosine threshold τ.
    pub fn threshold(&self) -> f32 {
        self.config.threshold
    }

    /// Replaces the threshold (e.g. with a new federated global threshold).
    pub fn set_threshold(&mut self, threshold: f32) {
        self.outdate_fill();
        self.config.threshold = threshold.clamp(0.0, 1.0);
    }

    /// Cache statistics (a point-in-time snapshot of the atomic counters).
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Entries the store has evicted to make room for inserts. Entries
    /// removed through [`MeanCache::remove_entry`] are not counted.
    pub(crate) fn evictions(&self) -> u64 {
        self.store.evictions()
    }

    /// Name of the live vector-index backend (`"flat"`, `"flat-sq8"`,
    /// `"ivf"` or `"ivf-sq8"`).
    pub fn index_kind(&self) -> &'static str {
        self.index.kind_name()
    }

    /// Borrow the live vector index (tests and persistence checks inspect
    /// the stored representation — e.g. SQ8 codes — through this).
    pub fn index(&self) -> &AnyIndex {
        &self.index
    }

    /// Bytes spent on the search structure (embeddings as indexed, plus any
    /// backend-specific auxiliary data such as IVF centroids).
    pub fn index_bytes(&self) -> usize {
        self.index.storage_bytes()
    }

    /// Borrow an entry by id (for tests and the persistence layer).
    pub fn entry(&self, id: u64) -> Option<&CacheEntry> {
        self.store.get(id)
    }

    /// Iterate over all cached entries.
    pub fn entries(&self) -> impl Iterator<Item = &CacheEntry> {
        self.store.iter()
    }

    /// Adaptive threshold feedback (Section III-A2): when the user rejects a
    /// cached response (re-asks the LLM), the hit was false — raise τ; when
    /// the user reports the cache should have answered, lower τ.
    pub fn record_feedback(&mut self, false_hit: bool) {
        self.outdate_fill();
        let step = self.config.feedback_step;
        if false_hit {
            self.config.threshold =
                (self.config.threshold + step * (1.0 - self.config.threshold)).clamp(0.0, 1.0);
        } else {
            self.config.threshold =
                (self.config.threshold - step * self.config.threshold).clamp(0.0, 1.0);
        }
        AtomicCacheStats::bump(&self.stats.feedback_updates, 1);
    }

    /// Outdates the pending fill. Every `&mut` method but
    /// [`SemanticCache::insert`] calls it (`lookup` through `commit`,
    /// before it records its own).
    fn outdate_fill(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// One counted index search; a search that fails (a query of the wrong
    /// width) finds nothing.
    fn search(&self, query: &[f32], k: usize, min_score: f32) -> Vec<mc_store::SearchHit> {
        AtomicCacheStats::bump(&self.stats.index_searches, 1);
        self.index.search(query, k, min_score).unwrap_or_default()
    }

    /// [`MeanCache::search`] for a batch of queries, counted per query.
    fn search_batch(&self, queries: &[&[f32]]) -> Vec<Vec<mc_store::SearchHit>> {
        AtomicCacheStats::bump(&self.stats.index_searches, queries.len() as u64);
        self.index
            .search_batch(queries, self.config.top_k, self.config.threshold)
            .unwrap_or_else(|_| vec![Vec::new(); queries.len()])
    }

    /// Pre-computed view of the probe's conversational context, shared by all
    /// candidate checks of one lookup. Encodes the previous turn; its
    /// resolution waits for a candidate that needs it.
    fn probe_context(&self, context: &[String]) -> ProbeContext {
        ProbeContext::of_turn(context.last().map(|text| self.embed(text).into_vec()))
    }

    /// The cached entries a previous turn embedding to `turn` plausibly
    /// refers to: its top-k matches above the context threshold.
    fn resolve(&self, turn: &[f32]) -> Vec<u64> {
        self.search(turn, self.config.top_k, self.config.context_threshold)
            .into_iter()
            .map(|hit| hit.id)
            .collect()
    }

    /// Checks whether a candidate entry's context chain matches the probe's
    /// conversational context (Algorithm 1, lines 4-6).
    ///
    /// A contextual candidate matches when the probe's previous turn (a) is
    /// semantically similar to the candidate's cached parent query and (b)
    /// *resolves to that same parent entry* — i.e. among everything in the
    /// cache, the conversation the probe belongs to is the one the candidate
    /// followed up on. Requiring resolution keeps lexically-similar but
    /// different conversations (the paper's Q3/Q4 example) from false-hitting
    /// even when the encoder scores them above the threshold.
    ///
    /// (a) is one cosine and rejects almost every candidate, so it runs
    /// first; (b) is an index search, run only behind a passing (a) and at
    /// most once per probe.
    fn context_matches(&self, entry: &CacheEntry, probe: &ProbeContext) -> bool {
        match (entry.parent, probe) {
            // Standalone cached query and standalone probe: contexts agree.
            (None, ProbeContext::Standalone) => true,
            // Contextual cached query but standalone probe (or vice versa):
            // the interpretations differ, so never serve from cache.
            (None, ProbeContext::Contextual { .. }) | (Some(_), ProbeContext::Standalone) => false,
            (
                Some(parent_id),
                ProbeContext::Contextual {
                    embedding,
                    resolved,
                },
            ) => {
                let Some(parent_entry) = self.store.get(parent_id) else {
                    // Dangling parent (should not happen thanks to eviction
                    // protection) — be conservative.
                    return false;
                };
                let score = vector::cosine_similarity_normalized(
                    embedding,
                    parent_entry.embedding.as_slice(),
                );
                score >= self.config.context_threshold
                    && resolved
                        .get_or_init(|| self.resolve(embedding))
                        .contains(&parent_id)
            }
        }
    }

    /// Re-inserts a previously persisted entry verbatim (same id, parent,
    /// embedding and access metadata). Used by [`crate::persist`] when
    /// reloading a cache from disk.
    ///
    /// # Errors
    /// Returns [`CacheError::Store`] when the embedding does not match the
    /// index dimensionality (e.g. the encoder changed compression settings
    /// between save and load).
    pub fn restore_entry(&mut self, entry: CacheEntry) -> Result<u64> {
        self.outdate_fill();
        let id = entry.id;
        let embedding = entry.embedding.clone();
        if let Some(evicted) = self.store.insert(entry) {
            let _ = self.index.remove(evicted);
        }
        self.index
            .add(id, embedding.as_slice())
            .map_err(CacheError::from)?;
        AtomicCacheStats::bump(&self.stats.inserts, 1);
        Ok(id)
    }

    /// Removes an entry by id from both the store and the vector index.
    /// Returns `true` when the entry existed. Used by the serve layer's
    /// TTL/invalidation reclaim sweep; dangling root pins left behind are
    /// collected by the existing pin-GC sweep.
    pub fn remove_entry(&mut self, id: u64) -> bool {
        self.outdate_fill();
        match self.store.remove(id) {
            Ok(_) => {
                let _ = self.index.remove(id);
                true
            }
            Err(_) => false,
        }
    }

    /// Installs a snapshot-restored index wholesale and re-inserts `entries`
    /// — the snapshot's rows, each already present in `index` — into the
    /// entry store in arrival order. Used by [`crate::persist`]'s snapshot
    /// restore path; the snapshot saved its entries in the
    /// `(parent.is_some(), id)` order a full log replay uses, so the store
    /// assigns identical logical timestamps and future evictions stay
    /// decision-identical to a replayed cache.
    ///
    /// # Errors
    /// Returns [`CacheError::Store`] when the restored index dimensionality
    /// differs from the configured one.
    pub(crate) fn install_restored(
        &mut self,
        index: AnyIndex,
        entries: Vec<CacheEntry>,
    ) -> Result<()> {
        self.outdate_fill();
        if index.dims() != self.index.dims() {
            return Err(CacheError::Store(mc_store::StoreError::DimensionMismatch {
                expected: self.index.dims(),
                got: index.dims(),
            }));
        }
        self.index = index;
        let count = entries.len() as u64;
        for entry in entries {
            if let Some(evicted) = self.store.insert(entry) {
                let _ = self.index.remove(evicted);
            }
        }
        AtomicCacheStats::bump(&self.stats.inserts, count);
        Ok(())
    }

    /// Shared back half of a probe: context-verifies `candidates` in score
    /// order and serves the first one whose conversation matches the probe's.
    /// Read-only — the eviction-policy touch for a served hit happens in
    /// [`SemanticCache::commit`]. The probe context, if a candidate needed
    /// one, is left in `built`.
    fn decide(
        &self,
        candidates: Vec<mc_store::SearchHit>,
        context: &[String],
        built: &OnceCell<Option<ProbeContext>>,
    ) -> CacheDecisionOutcome {
        let (outcome, rejected_by_context) =
            self.decide_in(candidates, || self.probe_context(context), built);
        if outcome.is_hit() {
            AtomicCacheStats::bump(&self.stats.hits, 1);
        } else if rejected_by_context {
            AtomicCacheStats::bump(&self.stats.context_rejections, 1);
        }
        outcome
    }

    /// [`MeanCache::decide`] without statistics: context-verifies
    /// `candidates` in score order and returns the first match, plus
    /// whether any candidate was rejected by context verification.
    fn decide_from(
        &self,
        candidates: Vec<mc_store::SearchHit>,
        probe_context: impl Fn() -> ProbeContext,
    ) -> (CacheDecisionOutcome, bool) {
        self.decide_in(candidates, probe_context, &OnceCell::new())
    }

    /// [`MeanCache::decide_from`], building the probe context into `built`.
    ///
    /// `probe_context` costs an encode, and only a candidate ever reads it:
    /// it is built when the first candidate needs it (never, with context
    /// checking off), so a lookup with nothing above τ — every cold miss —
    /// does not pay for it. Its resolution search waits longer still (see
    /// [`MeanCache::context_matches`]).
    fn decide_in(
        &self,
        candidates: Vec<mc_store::SearchHit>,
        probe_context: impl Fn() -> ProbeContext,
        built: &OnceCell<Option<ProbeContext>>,
    ) -> (CacheDecisionOutcome, bool) {
        let probe_context = || self.config.context_checking.then(&probe_context);
        let mut rejected_by_context = false;
        for candidate in candidates {
            let Some(entry) = self.store.get(candidate.id) else {
                continue;
            };
            let context_ok = match built.get_or_init(&probe_context) {
                Some(probe) => self.context_matches(entry, probe),
                None => true,
            };
            if context_ok {
                let hit = CacheHit {
                    entry_id: candidate.id,
                    response: entry.response.clone(),
                    score: candidate.score,
                    contextual: entry.is_contextual(),
                };
                return (CacheDecisionOutcome::Hit(hit), rejected_by_context);
            }
            rejected_by_context = true;
        }
        (CacheDecisionOutcome::Miss, rejected_by_context)
    }

    /// [`SemanticCache::probe`], also handing back the query's embedding and,
    /// in `built`, the probe context if a candidate needed one.
    fn probe_in(
        &self,
        query: &str,
        context: &[String],
        built: &OnceCell<Option<ProbeContext>>,
    ) -> (mc_tensor::Vector, CacheDecisionOutcome) {
        AtomicCacheStats::bump(&self.stats.lookups, 1);
        let embedding = self.embed(query);
        let candidates = self.search(
            embedding.as_slice(),
            self.config.top_k,
            self.config.threshold,
        );
        let outcome = self.decide(candidates, context, built);
        (embedding, outcome)
    }

    /// One shard's share of a scatter-gather probe: search + context-verify
    /// against pre-encoded embeddings, recording **no** decision statistics
    /// (the sharded layer counts one logical lookup per fan-out, not one per
    /// shard); its index searches are counted, they are this shard's work.
    /// `context_embedding` is the probe's most recent previous turn, already
    /// ignored by the caller when context checking is off.
    pub(crate) fn probe_scatter(
        &self,
        query_embedding: &[f32],
        context_embedding: Option<&[f32]>,
    ) -> ScatterProbe {
        let candidates = self.search(query_embedding, self.config.top_k, self.config.threshold);
        let (outcome, rejected_by_context) = self.decide_from(candidates, || {
            ProbeContext::of_turn(context_embedding.map(<[f32]>::to_vec))
        });
        ScatterProbe {
            outcome,
            rejected_by_context,
        }
    }

    /// Batched [`MeanCache::probe_scatter`]: all query embeddings funnel
    /// through one `search_batch` pass, context resolution stays per-probe.
    pub(crate) fn probe_scatter_batch(
        &self,
        probes: &[(&[f32], Option<&[f32]>)],
    ) -> Vec<ScatterProbe> {
        let query_refs: Vec<&[f32]> = probes.iter().map(|(query, _)| *query).collect();
        self.search_batch(&query_refs)
            .into_iter()
            .zip(probes)
            .map(|(candidates, (_, context_embedding))| {
                let (outcome, rejected_by_context) = self.decide_from(candidates, || {
                    ProbeContext::of_turn(context_embedding.map(<[f32]>::to_vec))
                });
                ScatterProbe {
                    outcome,
                    rejected_by_context,
                }
            })
            .collect()
    }

    /// Replaces the capacity bound on this cache's store (the sharded
    /// layer's capacity-borrowing hook; see `MemoryStore::set_capacity`
    /// for the shrink semantics).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.outdate_fill();
        let capacity = capacity.max(1);
        self.config.capacity = capacity;
        self.store.set_capacity(capacity);
    }

    /// Allocates the next entry id without inserting (the reshard replay
    /// path reserves an id, rewrites parent links, then restores).
    pub(crate) fn reserve_id(&mut self) -> u64 {
        self.outdate_fill();
        self.store.next_id()
    }

    /// Finds the cached entry that corresponds to the probe's most recent
    /// context turn, used to link a newly inserted follow-up to its parent:
    /// the best match above the context threshold. `probe` is the context
    /// the lookup of this same query and turn built, if any; its embedding,
    /// and its resolution when one was searched, are reused. The first of
    /// the top-k resolution is the best match — both searches rank under
    /// the scan's one total order.
    fn resolve_parent(&self, context: &[String], probe: Option<ProbeContext>) -> Option<u64> {
        let turn = context.last()?;
        let embedding = match probe {
            Some(ProbeContext::Contextual {
                embedding,
                resolved,
            }) => match resolved.get() {
                Some(ids) => return ids.first().copied(),
                None => embedding,
            },
            _ => self.embed(turn).into_vec(),
        };
        self.search(&embedding, 1, self.config.context_threshold)
            .first()
            .map(|hit| hit.id)
    }
}

impl SemanticCache for MeanCache {
    fn probe(&self, query: &str, context: &[String]) -> CacheDecisionOutcome {
        self.probe_in(query, context, &OnceCell::new()).1
    }

    fn commit(&mut self, outcome: &CacheDecisionOutcome) {
        self.outdate_fill();
        if let Some(hit) = outcome.hit() {
            self.store.get_mut_touch(hit.entry_id);
        }
    }

    /// [`SemanticCache::probe`] then [`SemanticCache::commit`], keeping the
    /// query's embedding and the probe context for an insert of the same
    /// query text and previous turn that comes next. Any other `&mut` call
    /// in between outdates them.
    fn lookup(&mut self, query: &str, context: &[String]) -> CacheDecisionOutcome {
        let built = OnceCell::new();
        let (embedding, outcome) = self.probe_in(query, context, &built);
        self.commit(&outcome);
        self.pending_fill = Some(PendingFill {
            generation: self.generation,
            query: query.to_owned(),
            turn: context.last().cloned(),
            embedding,
            context: built.into_inner().flatten(),
        });
        outcome
    }

    fn probe_batch(&self, probes: &[(&str, &[String])]) -> Vec<CacheDecisionOutcome> {
        AtomicCacheStats::bump(&self.stats.lookups, probes.len() as u64);
        // Encode everything, then retrieve candidates for the whole batch in
        // one index pass; only context verification stays per-probe.
        let embeddings: Vec<mc_tensor::Vector> =
            probes.iter().map(|(query, _)| self.embed(query)).collect();
        let query_refs: Vec<&[f32]> = embeddings.iter().map(|e| e.as_slice()).collect();
        self.search_batch(&query_refs)
            .into_iter()
            .zip(probes)
            .map(|(candidates, (_, context))| self.decide(candidates, context, &OnceCell::new()))
            .collect()
    }

    /// Stores the LLM's response. Right after a [`SemanticCache::lookup`]
    /// of the same query text and previous turn, with no other `&mut` call
    /// in between, it takes that lookup's embedding and probe context
    /// instead of encoding and resolving again; the entry is the same.
    fn insert(&mut self, query: &str, response: &str, context: &[String]) -> Result<u64> {
        let turn = context.last();
        let generation = self.generation;
        let reused = self.pending_fill.take().filter(|fill| {
            fill.generation == generation && fill.query == query && fill.turn.as_ref() == turn
        });
        let (embedding, probe) = match reused {
            Some(fill) => (fill.embedding, fill.context),
            None => (self.embed(query), None),
        };
        let parent = if self.config.context_checking {
            self.resolve_parent(context, probe)
        } else {
            None
        };
        let id = self.store.next_id();
        let entry = CacheEntry::new(id, query, response, embedding.clone(), parent, 0);
        if let Some(evicted) = self.store.insert(entry) {
            // Keep the index consistent with the store.
            let _ = self.index.remove(evicted);
        }
        self.index.add(id, embedding.as_slice())?;
        AtomicCacheStats::bump(&self.stats.inserts, 1);
        Ok(id)
    }

    fn lookup_network_overhead_s(&self) -> f64 {
        0.0
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn storage_bytes(&self) -> usize {
        self.store.storage_bytes()
    }

    fn embedding_bytes(&self) -> usize {
        self.store.embedding_bytes()
    }

    fn name(&self) -> String {
        let compression = if self.encoder.is_compressed() {
            "-compressed"
        } else {
            ""
        };
        // The default (flat) backend is left out of the name so reports stay
        // comparable with pre-`VectorIndex` runs.
        let index = match self.index.kind_name() {
            "flat" => String::new(),
            other => format!("+{other}"),
        };
        format!(
            "MeanCache({}{}{})",
            self.encoder.profile().kind,
            compression,
            index
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_embedder::ModelProfile;
    use mc_store::EvictionPolicy;

    fn trained_like_encoder() -> QueryEncoder {
        // An untrained tiny encoder is sufficient: hashed n-gram features give
        // paraphrases high similarity and unrelated queries low similarity.
        QueryEncoder::new(ModelProfile::tiny(), 7).unwrap()
    }

    fn cache_with_threshold(threshold: f32) -> MeanCache {
        MeanCache::new(
            trained_like_encoder(),
            MeanCacheConfig {
                threshold,
                ..MeanCacheConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn empty_cache_always_misses() {
        let mut cache = cache_with_threshold(0.5);
        assert!(cache.lookup("anything at all", &[]).is_miss());
        assert_eq!(cache.len(), 0);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().lookups, 1);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn paraphrase_hits_unrelated_misses() {
        let mut cache = cache_with_threshold(0.6);
        cache
            .insert(
                "how can I increase the battery life of my smartphone",
                "Lower the screen brightness and disable background apps.",
                &[],
            )
            .unwrap();
        cache
            .insert(
                "how do I bake sourdough bread at home",
                "Feed your starter, mix, fold, proof overnight, bake at 230C.",
                &[],
            )
            .unwrap();

        let hit = cache.lookup("how can I increase the battery life of my phone", &[]);
        let hit = hit.hit().expect("paraphrase must hit");
        assert!(hit.response.contains("brightness"));
        assert!(hit.score >= 0.6);
        assert!(!hit.contextual);

        let miss = cache.lookup("what is the capital city of portugal", &[]);
        assert!(miss.is_miss());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().lookups, 2);
    }

    #[test]
    fn exact_duplicate_always_hits_at_high_threshold() {
        let mut cache = cache_with_threshold(0.95);
        cache
            .insert(
                "what is federated learning",
                "FL trains models on-device.",
                &[],
            )
            .unwrap();
        let hit = cache.lookup("what is federated learning", &[]);
        assert!(hit.is_hit());
        assert!(hit.hit().unwrap().score > 0.99);
    }

    #[test]
    fn contextual_queries_require_matching_context() {
        let mut cache = cache_with_threshold(0.6);
        // Conversation 1: draw a line plot, then change its colour.
        cache
            .insert("draw a line plot in python", "Use plt.plot(xs, ys).", &[])
            .unwrap();
        cache
            .insert(
                "change the color to red",
                "Pass color='red' to plt.plot.",
                &["draw a line plot in python".to_string()],
            )
            .unwrap();

        // Same follow-up, same conversation: hit.
        let same_context = cache.lookup(
            "change the color to red",
            &["draw a line plot in python".to_string()],
        );
        assert!(same_context.is_hit());
        assert!(same_context.hit().unwrap().contextual);

        // Same follow-up text but a *different* conversation (the paper's Q3
        // "Draw a circle?"): must miss — GPTCache's false-hit scenario.
        let different_context =
            cache.lookup("change the color to red", &["draw a circle".to_string()]);
        assert!(different_context.is_miss());
        assert!(cache.stats().context_rejections >= 1);

        // Standalone probe of a contextual entry must also miss.
        let standalone_probe = cache.lookup("change the color to red", &[]);
        assert!(standalone_probe.is_miss());
    }

    /// The probe context is built by the first candidate that needs it, not
    /// up front. Every decision and every `context_rejections` count must be
    /// what the eager construction gave, with and without a memo in front of
    /// the encoder; and a lookup with nothing above τ must not encode its
    /// context turn at all.
    #[test]
    fn lazy_probe_context_changes_no_decision() {
        let line_plot = vec!["draw a line plot in python".to_string()];
        let circle = vec!["draw a circle".to_string()];
        let unseen_turn = vec!["an earlier turn nobody cached".to_string()];
        let battery = "how can I increase the battery life of my phone";
        // (query, context, served, a candidate was rejected by context)
        let probes: [(&str, &[String], bool, bool); 6] = [
            ("change the color to red", &line_plot, true, false),
            ("change the color to red", &circle, false, true),
            ("change the color to red", &[], false, true),
            (battery, &[], true, false),
            (battery, &line_plot, false, true),
            (
                "what is the capital city of portugal",
                &unseen_turn,
                false,
                false,
            ),
        ];
        for with_memo in [false, true] {
            let mut cache = cache_with_threshold(0.6);
            let memo = with_memo.then(|| Arc::new(EmbeddingMemo::new(64, 1 << 20)));
            cache.set_embedding_memo(memo.clone());
            cache
                .insert("draw a line plot in python", "Use plt.plot(xs, ys).", &[])
                .unwrap();
            cache
                .insert("change the color to red", "Pass color='red'.", &line_plot)
                .unwrap();
            cache
                .insert(
                    "how can I increase the battery life of my smartphone",
                    "Lower the screen brightness.",
                    &[],
                )
                .unwrap();

            for (query, context, served, rejected) in probes {
                let candidates = cache
                    .index
                    .search(cache.embed(query).as_slice(), 5, 0.6)
                    .unwrap();
                let built_up_front = cache.probe_context(context);
                let eager = cache.decide_from(candidates.clone(), || built_up_front.clone());
                let lazy = cache.decide_from(candidates, || cache.probe_context(context));
                assert_eq!(lazy, eager, "memo={with_memo} {query:?} {context:?}");
                assert_eq!((lazy.0.is_hit(), lazy.1), (served, rejected), "{query:?}");

                let before = cache.stats();
                let consulted = || memo.as_ref().map(|m| m.stats().hits + m.stats().misses);
                let consulted_before = consulted();
                assert_eq!(cache.probe(query, context), lazy.0);
                let after = cache.stats();
                assert_eq!(after.hits - before.hits, served as u64);
                assert_eq!(
                    after.context_rejections - before.context_rejections,
                    rejected as u64
                );
                if context == unseen_turn.as_slice() {
                    // No candidate: only the query reached the encoder.
                    assert_eq!(consulted(), consulted_before.map(|n| n + 1));
                }
            }
        }
    }

    /// A line-plot conversation and an unrelated standalone entry.
    fn conversation_cache() -> MeanCache {
        let mut cache = cache_with_threshold(0.6);
        let line_plot = ["draw a line plot in python".to_string()];
        cache
            .insert("draw a line plot in python", "Use plt.plot(xs, ys).", &[])
            .unwrap();
        cache
            .insert("change the color to red", "Pass color='red'.", &line_plot)
            .unwrap();
        cache
            .insert(
                "how can I increase the battery life of my smartphone",
                "Lower the screen brightness.",
                &[],
            )
            .unwrap();
        cache
    }

    /// The (encodes, index searches) `f` costs `cache`.
    fn work<C: SemanticCache>(
        cache: &mut C,
        stats: fn(&C) -> CacheStats,
        f: impl FnOnce(&mut C),
    ) -> (u64, u64) {
        let before = stats(cache);
        f(cache);
        let after = stats(cache);
        (
            after.encodes - before.encodes,
            after.index_searches - before.index_searches,
        )
    }

    /// What a lookup and the fill after it cost, per query kind; the fill
    /// stores what a fill that computes everything itself stores.
    #[test]
    fn a_fill_reuses_its_lookups_encode_and_resolution() {
        let line_plot = vec!["draw a line plot in python".to_string()];
        let portugal = vec!["what is the capital city of portugal".to_string()];
        // (query, context, lookup hits, lookup cost, fill cost)
        type Case<'a> = (&'a str, &'a [String], bool, (u64, u64), (u64, u64));
        let cases: [Case; 4] = [
            // Standalone: the fill takes the query's embedding.
            ("what is federated learning", &[], false, (1, 1), (0, 0)),
            // The only candidate's parent fails the score test, so the turn
            // is encoded but never resolved; the fill resolves it once,
            // from the lookup's embedding.
            ("change the color to red", &portugal, false, (2, 1), (0, 1)),
            // A contextual hit: the resolution that verified it is reused.
            ("change the color to red", &line_plot, true, (2, 2), (0, 0)),
            // No candidate: the lookup never encodes the turn.
            ("owls hunt at night", &line_plot, false, (1, 1), (1, 1)),
        ];
        for (query, context, hit, lookup_cost, fill_cost) in cases {
            let mut cache = conversation_cache();
            let mut outcome = CacheDecisionOutcome::Miss;
            let cost = work(&mut cache, MeanCache::stats, |c| {
                outcome = c.lookup(query, context)
            });
            assert_eq!(cost, lookup_cost, "lookup {query:?} {context:?}");
            assert_eq!(outcome.is_hit(), hit, "{query:?} {context:?}");
            let mut id = 0;
            let cost = work(&mut cache, MeanCache::stats, |c| {
                id = c.insert(query, "fresh", context).unwrap()
            });
            assert_eq!(cost, fill_cost, "fill {query:?} {context:?}");

            let mut cold = conversation_cache();
            let cold_id = cold.insert(query, "fresh", context).unwrap();
            let (warm, cold) = (cache.entry(id).unwrap(), cold.entry(cold_id).unwrap());
            assert_eq!(warm.parent, cold.parent, "{query:?} {context:?}");
            assert_eq!(warm.embedding, cold.embedding);
        }
    }

    /// Every `&mut` call between a lookup and its fill makes the fill
    /// compute everything again (2 encodes and 1 search for a follow-up
    /// whose lookup left a resolution it would otherwise reuse).
    #[test]
    fn every_other_mut_call_outdates_the_pending_fill() {
        let line_plot = vec!["draw a line plot in python".to_string()];
        let query = "change the color to red";
        type Call = (&'static str, fn(&mut MeanCache));
        let calls: [Call; 12] = [
            ("nothing", |_| {}),
            ("commit", |c| c.commit(&CacheDecisionOutcome::Miss)),
            ("lookup", |c| {
                c.lookup("what is federated learning", &[]);
            }),
            ("lookup_batch", |c| {
                c.lookup_batch(&[("what is federated learning", &[][..])]);
            }),
            ("remove_entry", |c| {
                c.remove_entry(u64::MAX);
            }),
            ("restore_entry", |c| {
                let entry = c.entries().next().unwrap().clone();
                c.restore_entry(entry).unwrap();
            }),
            ("install_restored", |c| {
                let index = c.index.clone();
                c.install_restored(index, Vec::new()).unwrap();
            }),
            ("set_threshold", |c| c.set_threshold(c.threshold())),
            ("record_feedback", |c| c.record_feedback(true)),
            ("set_capacity", |c| c.set_capacity(c.config.capacity)),
            ("set_embedding_memo", |c| c.set_embedding_memo(None)),
            ("reserve_id", |c| {
                c.reserve_id();
            }),
        ];
        for (name, call) in calls {
            let mut cache = conversation_cache();
            assert!(cache.lookup(query, &line_plot).is_hit());
            call(&mut cache);
            let cost = work(&mut cache, MeanCache::stats, |c| {
                c.insert(query, "fresh", &line_plot).unwrap();
            });
            let expected = if name == "nothing" { (0, 0) } else { (2, 1) };
            assert_eq!(cost, expected, "{name}");
        }
    }

    /// Only `MeanCache::lookup` keeps work for a fill: the read-only and
    /// batched paths do not, nor does a sharded cache (whose shards are
    /// probed, never looked up) on any routing mode or path.
    #[test]
    fn only_lookup_leaves_a_pending_fill() {
        let line_plot = vec!["draw a line plot in python".to_string()];
        let query = "change the color to red";
        let fill_cost = |cache: &mut MeanCache| {
            work(cache, MeanCache::stats, |c| {
                c.insert(query, "fresh", &line_plot).unwrap();
            })
        };
        let mut cache = conversation_cache();
        cache.probe(query, &line_plot);
        assert_eq!(fill_cost(&mut cache), (2, 1), "probe");
        cache.probe_batch(&[(query, &line_plot[..])]);
        assert_eq!(fill_cost(&mut cache), (2, 1), "probe_batch");
        cache.lookup_batch(&[(query, &line_plot[..])]);
        assert_eq!(fill_cost(&mut cache), (2, 1), "lookup_batch");

        for routing in [
            crate::RoutingMode::Hash,
            crate::RoutingMode::Centroid,
            crate::RoutingMode::ScatterGather,
        ] {
            let config = MeanCacheConfig::default()
                .with_threshold(0.6)
                .with_shards(2)
                .with_routing(routing);
            let mut sharded = crate::ShardedCache::new(trained_like_encoder(), config).unwrap();
            sharded
                .insert("draw a line plot in python", "Use plt.plot.", &[])
                .unwrap();
            sharded
                .insert(query, "Pass color='red'.", &line_plot)
                .unwrap();
            assert!(sharded.lookup(query, &line_plot).is_hit());
            let cost = work(&mut sharded, crate::ShardedCache::stats, |c| {
                c.insert(query, "fresh", &line_plot).unwrap();
            });
            assert_eq!(cost, (2, 1), "{routing:?} lookup");
            assert!(sharded.lookup_shared(query, &line_plot).is_hit());
            let cost = work(&mut sharded, crate::ShardedCache::stats, |c| {
                c.insert_shared(query, "fresh", &line_plot).unwrap();
            });
            assert_eq!(cost, (2, 1), "{routing:?} lookup_shared");
        }
    }

    #[test]
    fn a_cache_with_a_pending_fill_is_still_send_sync_and_clone() {
        fn assert_shareable<T: Send + Sync + Clone>(_: &T) {}
        let mut cache = conversation_cache();
        cache.lookup(
            "change the color to red",
            &["draw a line plot in python".to_string()],
        );
        assert_shareable(&cache);
        let mut copy = cache.clone();
        let cost = work(&mut copy, MeanCache::stats, |c| {
            c.insert(
                "change the color to red",
                "fresh",
                &["draw a line plot in python".to_string()],
            )
            .unwrap();
        });
        assert_eq!(cost, (0, 0), "a clone carries the pending fill");
    }

    #[test]
    fn disabling_context_checking_reproduces_the_baseline_false_hit() {
        let encoder = trained_like_encoder();
        let mut cache = MeanCache::new(
            encoder,
            MeanCacheConfig::default()
                .with_threshold(0.6)
                .with_context_checking(false),
        )
        .unwrap();
        cache
            .insert("draw a line plot in python", "Use plt.plot(xs, ys).", &[])
            .unwrap();
        cache
            .insert(
                "change the color to red",
                "Pass color='red' to plt.plot.",
                &["draw a line plot in python".to_string()],
            )
            .unwrap();
        // Without context verification the cache happily (and wrongly) serves
        // the cached follow-up response under a different conversation.
        let wrong_context = cache.lookup(
            "change the color to red",
            &["draw a circle in python".to_string()],
        );
        assert!(wrong_context.is_hit());
    }

    #[test]
    fn follow_up_insertion_links_to_its_parent() {
        let mut cache = cache_with_threshold(0.6);
        let parent_id = cache
            .insert("draw a line plot in python", "Use plt.plot.", &[])
            .unwrap();
        let child_id = cache
            .insert(
                "change the color to red",
                "Pass color='red'.",
                &["draw a line plot in python".to_string()],
            )
            .unwrap();
        let child = cache.entry(child_id).unwrap();
        assert_eq!(child.parent, Some(parent_id));
        // A follow-up whose context was never cached gets no parent link.
        let orphan_id = cache
            .insert(
                "make it shorter",
                "Here is a shorter version.",
                &["write a poem about autumn leaves".to_string()],
            )
            .unwrap();
        assert_eq!(cache.entry(orphan_id).unwrap().parent, None);
    }

    #[test]
    fn threshold_controls_hit_aggressiveness() {
        let mut permissive = cache_with_threshold(0.1);
        let mut strict = cache_with_threshold(0.995);
        for cache in [&mut permissive, &mut strict] {
            cache
                .insert("how do I bake sourdough bread", "Long fermentation.", &[])
                .unwrap();
        }
        let loosely_related = "how do I bake a chocolate cake";
        assert!(permissive.lookup(loosely_related, &[]).is_hit());
        assert!(strict.lookup(loosely_related, &[]).is_miss());
    }

    #[test]
    fn feedback_adjusts_threshold_in_the_right_direction() {
        let mut cache = cache_with_threshold(0.7);
        cache.record_feedback(true);
        assert!(cache.threshold() > 0.7);
        let raised = cache.threshold();
        cache.record_feedback(false);
        assert!(cache.threshold() < raised);
        assert_eq!(cache.stats().feedback_updates, 2);
        // Thresholds stay in [0, 1] even under many updates.
        for _ in 0..500 {
            cache.record_feedback(true);
        }
        assert!(cache.threshold() <= 1.0);
        for _ in 0..500 {
            cache.record_feedback(false);
        }
        assert!(cache.threshold() >= 0.0);
    }

    #[test]
    fn eviction_keeps_store_and_index_consistent() {
        let encoder = trained_like_encoder();
        let mut cache = MeanCache::new(
            encoder,
            MeanCacheConfig {
                capacity: 3,
                threshold: 0.3,
                eviction: EvictionPolicy::Fifo,
                ..MeanCacheConfig::default()
            },
        )
        .unwrap();
        for (i, q) in [
            "how do I bake sourdough bread",
            "what is the capital of france",
            "explain quantum computing simply",
            "tips for travelling to japan",
            "how do I sort a list in python",
        ]
        .iter()
        .enumerate()
        {
            cache.insert(q, &format!("response {i}"), &[]).unwrap();
        }
        assert_eq!(cache.len(), 3);
        // The most recent entry must still hit exactly.
        let recent = cache.lookup("how do I sort a list in python", &[]);
        assert!(recent.is_hit());
        assert!(recent.hit().unwrap().score > 0.99);
        // The evicted entries are gone from both the store and the index: an
        // exact probe of an evicted query can no longer find an exact match.
        let live_ids: Vec<u64> = cache.entries().map(|e| e.id).collect();
        assert_eq!(live_ids.len(), 3);
        let evicted_probe = cache.lookup("how do I bake sourdough bread", &[]);
        if let Some(hit) = evicted_probe.hit() {
            assert!(
                live_ids.contains(&hit.entry_id),
                "a hit after eviction must point at a live entry"
            );
            assert!(
                hit.score < 0.99,
                "the exact evicted entry must not be served (score {})",
                hit.score
            );
        }
    }

    #[test]
    fn set_threshold_clamps_and_stats_track_inserts() {
        let mut cache = cache_with_threshold(0.5);
        cache.set_threshold(1.7);
        assert_eq!(cache.threshold(), 1.0);
        cache.set_threshold(-0.3);
        assert_eq!(cache.threshold(), 0.0);
        cache.insert("q", "r", &[]).unwrap();
        assert_eq!(cache.stats().inserts, 1);
        assert!(cache.storage_bytes() > 0);
        assert!(cache.embedding_bytes() > 0);
        assert!(cache.name().contains("MeanCache"));
    }

    #[test]
    fn ivf_backed_cache_behaves_like_flat_on_small_workloads() {
        let mut flat = cache_with_threshold(0.6);
        let mut ivf = MeanCache::new(
            trained_like_encoder(),
            MeanCacheConfig::default()
                .with_threshold(0.6)
                .with_index(mc_store::IndexKind::ivf()),
        )
        .unwrap();
        assert_eq!(flat.index_kind(), "flat");
        assert_eq!(ivf.index_kind(), "ivf");
        assert!(ivf.name().contains("+ivf"));
        for cache in [&mut flat, &mut ivf] {
            cache
                .insert(
                    "how can I increase the battery life of my smartphone",
                    "Lower the screen brightness.",
                    &[],
                )
                .unwrap();
            cache
                .insert(
                    "how do I bake sourdough bread at home",
                    "Ferment overnight.",
                    &[],
                )
                .unwrap();
        }
        for cache in [&mut flat, &mut ivf] {
            let hit = cache.lookup("how can I increase the battery life of my phone", &[]);
            assert!(hit.is_hit(), "{} must hit", cache.name());
            assert!(cache
                .lookup("what is the capital city of portugal", &[])
                .is_miss());
            assert!(cache.index_bytes() > 0);
        }
    }

    #[test]
    fn lookup_batch_matches_sequential_lookups() {
        // Two identical caches: one answers probe-by-probe, the other in one
        // batched call. Decisions must agree (a frozen cache, so earlier
        // probes cannot change later answers).
        let mut sequential = cache_with_threshold(0.6);
        let mut batched = cache_with_threshold(0.6);
        for cache in [&mut sequential, &mut batched] {
            cache
                .insert("draw a line plot in python", "Use plt.plot.", &[])
                .unwrap();
            cache
                .insert(
                    "change the color to red",
                    "Pass color='red'.",
                    &["draw a line plot in python".to_string()],
                )
                .unwrap();
            cache
                .insert("what is federated learning", "On-device training.", &[])
                .unwrap();
        }
        let probes: Vec<(String, Vec<String>)> = vec![
            ("what is federated learning".into(), vec![]),
            (
                "change the color to red".into(),
                vec!["draw a line plot in python".to_string()],
            ),
            (
                "change the color to red".into(),
                vec!["draw a circle".to_string()],
            ),
            ("completely unrelated owl facts".into(), vec![]),
        ];
        let probe_refs: Vec<(&str, &[String])> = probes
            .iter()
            .map(|(q, c)| (q.as_str(), c.as_slice()))
            .collect();
        let batch_outcomes = batched.lookup_batch(&probe_refs);
        for ((query, context), batch_outcome) in probes.iter().zip(&batch_outcomes) {
            let single = sequential.lookup(query, context);
            assert_eq!(&single, batch_outcome, "probe {query:?} diverged");
        }
        assert_eq!(batched.stats().lookups, 4);
        assert_eq!(batched.stats().hits, sequential.stats().hits);
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let encoder = trained_like_encoder();
        assert!(MeanCache::new(
            encoder,
            MeanCacheConfig {
                threshold: 2.0,
                ..MeanCacheConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn compressed_encoder_changes_name_and_embedding_size() {
        let mut encoder = trained_like_encoder();
        let corpus: Vec<String> = (0..40)
            .map(|i| format!("training query number {i}"))
            .collect();
        encoder.fit_pca(&corpus, 8, 3).unwrap();
        let mut cache =
            MeanCache::new(encoder, MeanCacheConfig::default().with_threshold(0.5)).unwrap();
        cache
            .insert("how do I bake sourdough bread", "resp", &[])
            .unwrap();
        assert!(cache.name().contains("compressed"));
        // 8-dim embeddings: 8 * 4 bytes per entry.
        assert_eq!(cache.embedding_bytes(), 32);
        assert!(cache.lookup("how do I bake sourdough bread", &[]).is_hit());
    }

    #[test]
    fn embedding_memo_counts_hits_without_changing_decisions() {
        let mut cold = cache_with_threshold(0.6);
        let mut warm = cache_with_threshold(0.6);
        let memo = Arc::new(EmbeddingMemo::new(128, 0));
        warm.set_embedding_memo(Some(Arc::clone(&memo)));
        for cache in [&mut cold, &mut warm] {
            cache
                .insert(
                    "how can I increase the battery life of my smartphone",
                    "Lower the screen brightness.",
                    &[],
                )
                .unwrap();
        }
        // The insert memoized its query; an exact repeat probe hits the memo.
        let misses_after_insert = memo.stats().misses;
        for probe in [
            "how can I increase the battery life of my smartphone",
            "how can I increase the battery life of my phone",
            "what is the capital city of portugal",
        ] {
            let a = cold.probe(probe, &[]);
            let b = warm.probe(probe, &[]);
            assert_eq!(a, b, "probe {probe:?} diverged");
            if let (Some(x), Some(y)) = (a.hit(), b.hit()) {
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
        let stats = memo.stats();
        assert!(stats.hits >= 1, "the exact repeat must hit the memo");
        assert_eq!(stats.misses, misses_after_insert + 2);
        // Removing the memo restores plain encoding.
        warm.set_embedding_memo(None);
        assert!(warm.embedding_memo().is_none());
        assert_eq!(
            cold.probe("battery life tips", &[]),
            warm.probe("battery life tips", &[]),
        );
    }

    mod memo_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Vocabulary mixing corpus words (so some probes hit), casing and
        /// whitespace variants (exercising memo normalization), and noise.
        const WORDS: &[&str] = &[
            "how",
            "do",
            "I",
            "bake",
            "sourdough",
            "bread",
            "battery",
            "life",
            "of",
            "my",
            "smartphone",
            "PHONE",
            "what",
            "is",
            "federated",
            "Learning",
            "draw",
            "a",
            "line",
            "plot",
            "in",
            "python",
            "  ",
            "zebra",
        ];

        fn query_from(indices: &[usize]) -> String {
            indices
                .iter()
                .map(|&i| WORDS[i % WORDS.len()])
                .collect::<Vec<_>>()
                .join(" ")
        }

        fn corpus_pair() -> (MeanCache, MeanCache) {
            let mut cold = cache_with_threshold(0.6);
            let mut warm = cache_with_threshold(0.6);
            warm.set_embedding_memo(Some(Arc::new(EmbeddingMemo::new(256, 0))));
            for cache in [&mut cold, &mut warm] {
                cache
                    .insert(
                        "how can I increase the battery life of my smartphone",
                        "Lower the screen brightness.",
                        &[],
                    )
                    .unwrap();
                cache
                    .insert(
                        "how do I bake sourdough bread at home",
                        "Ferment overnight.",
                        &[],
                    )
                    .unwrap();
                cache
                    .insert("what is federated learning", "On-device training.", &[])
                    .unwrap();
            }
            (cold, warm)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The memo acceptance property: memoized probe results are
            /// bit-identical to cold-encoder probes, on the miss path (first
            /// probe) and the hit path (repeat probe) alike.
            #[test]
            fn memoized_probes_are_bit_identical_to_cold_probes(
                picks in prop::collection::vec(
                    prop::collection::vec(0usize..24, 1..8),
                    1..6,
                ),
            ) {
                let (cold, warm) = corpus_pair();
                for indices in &picks {
                    let query = query_from(indices);
                    let cold_outcome = cold.probe(&query, &[]);
                    let first = warm.probe(&query, &[]); // memo miss path
                    let second = warm.probe(&query, &[]); // memo hit path
                    prop_assert_eq!(&cold_outcome, &first);
                    prop_assert_eq!(&first, &second);
                    if let (Some(a), Some(b)) = (cold_outcome.hit(), second.hit()) {
                        prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
                    }
                }
                // Every repeat probe was answered from the memo.
                let stats = warm.embedding_memo().unwrap().stats();
                prop_assert!(stats.hits >= picks.len() as u64);
            }
        }
    }
}
