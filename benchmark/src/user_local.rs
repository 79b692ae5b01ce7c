//! `user_local`: the paper's deployment. One in-process `MeanCache` (default
//! flat f32 index, context checking on, LRU, capacity 1 500), one thread,
//! closed loop; every query is looked up and, when it missed or is labelled
//! a miss, inserted — so index scan, context-chain verification and the
//! encoder do all the work and no serving code runs. Staying under the flat
//! index's parallel threshold (2 048 rows) keeps it truly single-threaded.

use std::sync::Arc;
use std::time::Instant;

use mc_bench::TrainedModel;
use meancache::{MeanCache, MeanCacheConfig, SemanticCache, ShardedCache};

use crate::gen_user::{self, UserPlan, CAPACITY};
use crate::host::sched_totals;
use crate::ladder::{LadderInput, ServerSide};
use crate::plan::Tally;
use crate::run::{Env, Finish, Runner, Segment};
use crate::spans::Spans;

pub const NAME: &str = "user_local";
/// Latency limit of one operation.
pub const LIMIT_US: f64 = 2_000.0;
/// Queries per segment (each is a lookup, most are followed by an insert):
/// about 2.5 s on the reference machine.
pub const QUERIES_PER_SEGMENT: usize = 5_000;

pub fn plan(env: &Env, seed: u64, segments: usize) -> Arc<UserPlan> {
    Arc::new(gen_user::plan(
        &env.corpus,
        seed,
        segments * QUERIES_PER_SEGMENT,
    ))
}

pub struct UserLocal {
    model: TrainedModel,
    cache: MeanCache,
    plan: Arc<UserPlan>,
}

impl UserLocal {
    pub fn set_up(env: &Env, plan: Arc<UserPlan>) -> Self {
        let model = env.train();
        let config = MeanCacheConfig {
            capacity: CAPACITY,
            ..MeanCacheConfig::default().with_threshold(model.threshold)
        };
        let mut cache = MeanCache::new(model.encoder.clone(), config).expect("valid config");
        for insert in &plan.prefill {
            cache
                .insert(&insert.text, &insert.response, &insert.context)
                .expect("prefill insert");
        }
        Self { model, cache, plan }
    }
}

impl Runner for UserLocal {
    fn segment(&mut self, index: usize, mut spans: Option<&mut Spans>) -> Segment {
        let queries = &self.plan.queries[index * QUERIES_PER_SEGMENT..][..QUERIES_PER_SEGMENT];
        let mut tally = Tally::default();
        let sched_before = sched_totals();
        let started = Instant::now();
        for (op, query) in queries.iter().enumerate() {
            let lookup = &query.lookup;
            let t0 = Instant::now();
            let outcome = self.cache.lookup(&lookup.text, &lookup.context);
            let t1 = Instant::now();
            let response = outcome.hit().map(|h| h.response.as_str());
            tally.lookup_done(lookup, response, (t1 - t0).as_secs_f64() * 1e6, LIMIT_US);
            if let Some(spans) = spans.as_deref_mut() {
                spans.record("core.lookup", t0, t1, None, op as u32);
            }
            if query.force_insert || outcome.is_miss() {
                let fill = query.fill();
                let t0 = Instant::now();
                let inserted = self.cache.insert(&fill.text, &fill.response, &fill.context);
                let t1 = Instant::now();
                match inserted {
                    Ok(_) => tally.insert_done((t1 - t0).as_secs_f64() * 1e6, LIMIT_US),
                    Err(e) => {
                        tally.attempted += 1;
                        tally.fail(|| format!("insert of {:?} failed: {e}", fill.text));
                    }
                }
                if let Some(spans) = spans.as_deref_mut() {
                    spans.record("core.insert", t0, t1, None, op as u32);
                }
            }
        }
        Segment {
            wall_s: started.elapsed().as_secs_f64(),
            sched: sched_totals().since(sched_before),
            tally,
            late_us: Vec::new(),
        }
    }

    fn finish(&mut self) -> Finish {
        Finish {
            tally: Tally::default(),
            bytes_per_entry: self.cache.storage_bytes() as f64 / self.cache.len() as f64,
        }
    }

    /// The ladder's upper rungs need a `ShardedCache`: a one-shard copy of
    /// the live cache's entries (parents before their follow-ups), so every
    /// rung scans what the workload scans.
    fn ladder_input(&mut self) -> LadderInput {
        let config = self.cache.config().clone().with_shards(1);
        let mut copy = ShardedCache::new(self.model.encoder.clone(), config).expect("valid config");
        let mut entries: Vec<_> = self.cache.entries().collect();
        entries.sort_by_key(|e| (e.parent.is_some(), e.id));
        for entry in entries {
            let context: Vec<String> = entry
                .parent
                .and_then(|p| self.cache.entry(p))
                .map(|p| vec![p.query.clone()])
                .unwrap_or_default();
            copy.insert(&entry.query, &entry.response, &context)
                .expect("copy insert");
        }
        let sample = self.plan.queries[QUERIES_PER_SEGMENT..]
            .iter()
            .map(|q| q.lookup.clone())
            .take(crate::ladder::SAMPLE)
            .collect();
        LadderInput {
            model_threshold: self.model.threshold,
            cache: copy,
            serve_memo: false,
            warm_memo: false,
            sample,
            // The workload itself stops at `MeanCache`: shard and serve rungs
            // are measured but are not part of its dominance shares.
            top_rung: crate::ladder::Rung::Probe,
            evictions: self.cache.stats().inserts - self.cache.len() as u64,
            restore_replayed: None,
        }
    }

    fn server_side(&mut self) -> Option<ServerSide> {
        None
    }
}
