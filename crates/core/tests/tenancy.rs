//! Cross-tenant isolation and quota-fairness tests for [`TenantedCache`].
//!
//! The isolation property under test is strong: a tenant's *decision
//! stream* — the exact sequence of hit/miss outcomes, matched entry ids,
//! responses, and scores — must be bit-identical whether its traffic runs
//! alone on a fresh cache or interleaved with arbitrary other-tenant
//! traffic on a shared [`TenantedCache`]. Anything weaker (say, "hit rates
//! roughly match") would let one tenant's inserts perturb another's
//! eviction order or similarity scores without failing the test.
//!
//! The fairness property is the quota floor: a background tenant resident
//! at its quota never loses an entry to a foreground tenant flooding the
//! cache at an 8:1 rate — the flood evicts the flooder's own LRU tail.

use mc_embedder::{ModelProfile, QueryEncoder};
use meancache::{CacheDecisionOutcome, MeanCacheConfig, ShardedCache, TenantedCache};
use proptest::prelude::*;

const ENCODER_SEED: u64 = 0xC0FFEE;

/// A fresh sharded cache with a deterministic encoder, so two caches built
/// by this helper embed every query identically.
fn fresh_cache(shards: usize, capacity: usize) -> ShardedCache {
    let encoder = QueryEncoder::new(ModelProfile::tiny(), ENCODER_SEED).expect("tiny profile");
    let mut config = MeanCacheConfig::default()
        .with_threshold(0.6)
        .with_shards(shards);
    config.capacity = capacity;
    ShardedCache::new(encoder, config).expect("valid config")
}

/// A tenanted cache whose default tenant is an unused template.
fn fresh_tenanted(shards: usize, capacity: usize) -> TenantedCache {
    TenantedCache::new("default", fresh_cache(shards, capacity), None)
}

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Tenant `t`'s `k`-th query. Tenant-prefixed so pools are textually
/// disjoint; a cross-tenant hit would have to come from shared *storage*,
/// not from coincidentally shared text.
fn query(t: usize, k: usize) -> String {
    format!("[{}] how does subsystem {k} behave under load", TENANTS[t])
}

/// Tenant `t`'s response for query `k`, carrying the tenant marker so a
/// leaked frame is attributable.
fn response(t: usize, k: usize) -> String {
    format!("resp:{}:{k}", TENANTS[t])
}

/// One interleaved operation: `(tenant, is_insert, query index)`.
type Op = (usize, bool, usize);

/// Replays `ops` through `cache`, addressing every op at tenant
/// `TENANTS[t]`, and returns the per-tenant decision stream: lookup
/// outcomes and insert-assigned entry ids, in issue order.
fn replay(cache: &mut TenantedCache, ops: &[Op]) -> [Vec<CacheDecisionOutcome>; 3] {
    let mut streams: [Vec<CacheDecisionOutcome>; 3] = Default::default();
    for &(t, is_insert, k) in ops {
        let name = TENANTS[t];
        if is_insert {
            cache
                .insert(name, &query(t, k), &response(t, k), &[])
                .expect("tenant exists");
        } else {
            let outcome = cache.probe(name, &query(t, k), &[]);
            cache.commit(name, &outcome);
            streams[t].push(outcome);
        }
    }
    streams
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interleaved A/B/C traffic on one shared `TenantedCache` produces,
    /// for every tenant, a decision stream bit-identical to replaying that
    /// tenant's subsequence alone on a fresh cache.
    #[test]
    fn interleaved_decision_streams_match_solo_runs(
        ops in prop::collection::vec((0..3usize, prop::bool::ANY, 0..8usize), 1..100)
    ) {
        let mut shared = fresh_tenanted(3, 64);
        for name in TENANTS {
            shared.add_tenant(name, 0).expect("add tenant");
        }
        let shared_streams = replay(&mut shared, &ops);

        for (t, name) in TENANTS.iter().enumerate() {
            let mut solo = fresh_tenanted(3, 64);
            solo.add_tenant(name, 0).expect("add tenant");
            let solo_ops: Vec<Op> = ops.iter().copied().filter(|&(ot, _, _)| ot == t).collect();
            let solo_streams = replay(&mut solo, &solo_ops);
            prop_assert_eq!(
                &shared_streams[t],
                &solo_streams[t],
                "tenant {} decision stream diverged between shared and solo runs",
                name
            );
        }
    }

    /// Every hit resolves with a frame the probing tenant itself inserted:
    /// responses are tenant-marked at insert time, so a cross-tenant
    /// resolution would surface another tenant's marker.
    #[test]
    fn hits_never_resolve_with_another_tenants_frame(
        ops in prop::collection::vec((0..3usize, prop::bool::ANY, 0..8usize), 1..100)
    ) {
        let mut shared = fresh_tenanted(3, 64);
        for name in TENANTS {
            shared.add_tenant(name, 0).expect("add tenant");
        }
        let streams = replay(&mut shared, &ops);
        for (t, stream) in streams.iter().enumerate() {
            let marker = format!("resp:{}:", TENANTS[t]);
            for outcome in stream {
                if let Some(hit) = outcome.hit() {
                    prop_assert!(
                        hit.response.starts_with(&marker),
                        "tenant {} served foreign frame {:?}",
                        TENANTS[t],
                        hit.response
                    );
                }
            }
        }
    }
}

/// Under a deterministic 8:1 foreground:background skew, the background
/// tenant's resident entries never drop below its quota floor, while the
/// foreground tenant's own LRU tail absorbs every eviction (hard quota
/// cap, per-tenant `ShardStat` occupancy).
#[test]
fn eviction_fairness_holds_the_background_quota_floor() {
    const QUOTA: usize = 32;
    let mut cache = fresh_tenanted(4, 256);
    cache.add_tenant("hot", QUOTA).expect("add hot");
    cache.add_tenant("bg", QUOTA).expect("add bg");

    // Background tenant fills exactly to quota.
    for k in 0..QUOTA {
        cache
            .insert(
                "bg",
                &format!("background standing query {k}"),
                "bg frame",
                &[],
            )
            .expect("bg insert");
    }
    let floor = cache.tenant("bg").expect("bg").len();
    assert!(floor > 0 && floor <= QUOTA, "bg populate must be resident");
    // Hash routing fills the tenant's per-shard quotas unevenly, so populate
    // may already have evicted in a shard; the fairness claim is that the
    // *flood* adds nothing on top of this baseline.
    let bg_evictions_baseline: u64 = cache
        .tenant("bg")
        .expect("bg")
        .cache()
        .shard_stats()
        .iter()
        .map(|s| s.evictions)
        .sum();

    // 8:1 skew, deterministic: eight hot inserts (all distinct, far past
    // quota) then one background lookup, repeated. The floor must hold
    // after every single step, not just at the end.
    let mut hot_seq = 0usize;
    for round in 0..32 {
        for _ in 0..8 {
            cache
                .insert(
                    "hot",
                    &format!("foreground flood query {hot_seq}"),
                    "hot frame",
                    &[],
                )
                .expect("hot insert");
            hot_seq += 1;
            let bg = cache.tenant("bg").expect("bg");
            assert!(
                bg.len() >= floor,
                "round {round}: background dropped to {} below floor {floor}",
                bg.len()
            );
            let hot = cache.tenant("hot").expect("hot");
            assert!(
                hot.len() <= QUOTA,
                "round {round}: hot occupancy {} broke quota cap {QUOTA}",
                hot.len()
            );
        }
        let outcome = cache.probe(
            "bg",
            &format!("background standing query {}", round % QUOTA),
            &[],
        );
        cache.commit("bg", &outcome);
    }

    // Per-tenant shard accounting: evictions landed on the flooder only,
    // and each tenant's shard occupancy sums to its resident count.
    let hot = cache.tenant("hot").expect("hot");
    let hot_stats = hot.cache().shard_stats();
    let hot_occupancy: usize = hot_stats.iter().map(|s| s.occupancy).sum();
    let hot_evictions: u64 = hot_stats.iter().map(|s| s.evictions).sum();
    assert_eq!(hot_occupancy, hot.len());
    assert!(
        hot_evictions >= (hot_seq - QUOTA) as u64,
        "flooder must evict its own tail: {hot_evictions} evictions for {hot_seq} inserts"
    );

    let bg = cache.tenant("bg").expect("bg");
    let bg_stats = bg.cache().shard_stats();
    let bg_occupancy: usize = bg_stats.iter().map(|s| s.occupancy).sum();
    let bg_evictions: u64 = bg_stats.iter().map(|s| s.evictions).sum();
    assert_eq!(bg_occupancy, bg.len());
    assert_eq!(
        bg_evictions, bg_evictions_baseline,
        "background tenant under quota must never be evicted by the flood"
    );
}

/// Invalidation epochs are tenant-scoped: bumping one tenant's epoch
/// screens its pre-bump entries into misses without touching a neighbour's
/// hits, and the sweep reclaims only the invalidated tenant's entries.
#[test]
fn invalidation_is_tenant_scoped() {
    let mut cache = fresh_tenanted(2, 64);
    cache.add_tenant("alpha", 0).expect("add alpha");
    cache.add_tenant("beta", 0).expect("add beta");
    cache
        .insert("alpha", "alpha question one", "alpha frame", &[])
        .expect("insert");
    cache
        .insert("beta", "beta question one", "beta frame", &[])
        .expect("insert");

    assert!(cache.probe("alpha", "alpha question one", &[]).is_hit());
    assert!(cache.probe("beta", "beta question one", &[]).is_hit());

    let epoch = cache.invalidate("alpha", 0).expect("known tenant");
    assert_eq!(epoch, 1);

    assert!(
        cache.probe("alpha", "alpha question one", &[]).is_miss(),
        "pre-bump alpha entry must screen to a miss"
    );
    assert!(
        cache.probe("beta", "beta question one", &[]).is_hit(),
        "beta must be untouched by alpha's invalidation"
    );

    let swept = cache.sweep();
    assert!(swept >= 1, "sweep must reclaim alpha's stale entry");
    assert!(cache.tenant("alpha").expect("alpha").is_empty());
    assert_eq!(cache.tenant("beta").expect("beta").len(), 1);

    // Post-bump inserts live under the new epoch and hit again.
    cache
        .insert("alpha", "alpha question two", "alpha frame 2", &[])
        .expect("insert");
    assert!(cache.probe("alpha", "alpha question two", &[]).is_hit());
}
