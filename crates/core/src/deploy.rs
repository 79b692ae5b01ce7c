//! End-to-end deployment driver: a semantic cache in front of a simulated
//! LLM web service.
//!
//! This is the harness every evaluation experiment uses: it populates a
//! cache, replays a labelled probe workload, and records per-query latency,
//! hit/miss decisions, the confusion matrix against ground truth, and the
//! cost/quota savings.
//!
//! The driver is generic over [`SemanticCache`], so the same replay runs
//! against a bare [`crate::MeanCache`], a [`crate::ShardedCache`] under any
//! [`crate::RoutingMode`], or the [`crate::GptCacheBaseline`] — which is
//! how the experiments compare architectures on identical traffic. Replay
//! paths come in two flavours: [`Deployment::run`] serves probe-by-probe
//! (per-query latency is honest), while [`Deployment::run_batched`] funnels
//! the workload through [`SemanticCache::probe_batch`] and then commits and
//! accounts strictly in submission order, which is decision-identical to
//! the sequential replay (the probe→commit split guarantees probes never
//! observe commits).
//!
//! On a miss the deployment forwards the query to the [`LlmService`],
//! charges the simulated quota/pricing, inserts the fresh response, and
//! records the full user-perceived latency (network + search + generation);
//! on a hit it serves locally and charges only the cache's own overhead
//! ([`SemanticCache::lookup_network_overhead_s`] — zero for the user-side
//! cache, one round-trip for the server-side baseline).

use std::time::Instant;

use mc_llm::{LlmRequest, LlmService, QuotaTracker, SimulatedLlm};
use mc_metrics::{ConfusionMatrix, MetricSummary, TimingStats};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheDecisionOutcome, SemanticCache};
use crate::Result;

/// One labelled probe query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeSpec {
    /// The query text.
    pub query: String,
    /// Conversation history preceding the query (oldest first).
    pub context: Vec<String>,
    /// Ground truth: should the cache serve this query? `None` when the
    /// probe is unlabelled (e.g. pure latency measurements).
    pub should_hit: Option<bool>,
}

impl ProbeSpec {
    /// A labelled standalone probe.
    pub fn standalone(query: impl Into<String>, should_hit: bool) -> Self {
        Self {
            query: query.into(),
            context: Vec::new(),
            should_hit: Some(should_hit),
        }
    }

    /// A labelled contextual probe.
    pub fn contextual(query: impl Into<String>, context: Vec<String>, should_hit: bool) -> Self {
        Self {
            query: query.into(),
            context,
            should_hit: Some(should_hit),
        }
    }
}

/// Per-query outcome recorded by the deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRecord {
    /// The probe query.
    pub query: String,
    /// Ground-truth label, when known.
    pub should_hit: Option<bool>,
    /// Did the cache serve this query?
    pub predicted_hit: bool,
    /// Total user-perceived latency in seconds (network + cache search +
    /// LLM generation when forwarded).
    pub latency_s: f64,
    /// Wall-clock time of the local encode + semantic search alone.
    pub search_time_s: f64,
    /// The response returned to the user.
    pub response: String,
}

/// Everything a deployment run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeploymentReport {
    /// Name of the cache configuration that produced this report.
    pub cache_name: String,
    /// Per-query records in probe order.
    pub records: Vec<QueryRecord>,
    /// Confusion matrix over the labelled probes.
    pub confusion: ConfusionMatrix,
    /// End-to-end latency distribution.
    pub latencies: TimingStats,
    /// Cache search-time distribution.
    pub search_times: TimingStats,
    /// Number of requests that reached the LLM service.
    pub llm_requests: u64,
    /// Total simulated LLM busy time (provider load), in seconds.
    pub llm_busy_s: f64,
    /// Quota/cost accounting for the user.
    pub quota: QuotaTracker,
    /// Cache size (entries) at the end of the run.
    pub final_cache_entries: usize,
    /// Cache storage footprint (bytes) at the end of the run.
    pub final_cache_bytes: usize,
    /// Embedding storage footprint (bytes) at the end of the run.
    pub final_embedding_bytes: usize,
}

impl DeploymentReport {
    /// Metric bundle at the requested Fβ weight.
    pub fn summary(&self, beta: f64) -> MetricSummary {
        self.confusion.summary(beta)
    }

    /// Mean end-to-end latency in seconds.
    pub fn mean_latency_s(&self) -> f64 {
        self.latencies.mean()
    }

    /// Mean latency over probes the cache served (hits only).
    pub fn mean_hit_latency_s(&self) -> f64 {
        let mut t = TimingStats::new();
        for r in self.records.iter().filter(|r| r.predicted_hit) {
            t.record(r.latency_s);
        }
        t.mean()
    }

    /// Mean latency over probes forwarded to the LLM (misses only).
    pub fn mean_miss_latency_s(&self) -> f64 {
        let mut t = TimingStats::new();
        for r in self.records.iter().filter(|r| !r.predicted_hit) {
            t.record(r.latency_s);
        }
        t.mean()
    }
}

/// A semantic cache deployed in front of an LLM web service.
#[derive(Debug)]
pub struct Deployment<C: SemanticCache> {
    cache: C,
    llm: SimulatedLlm,
    quota: QuotaTracker,
    max_tokens: usize,
    insert_on_miss: bool,
}

impl<C: SemanticCache> Deployment<C> {
    /// Creates a deployment. `quota_limit` bounds billable LLM calls;
    /// `max_tokens` caps response length (the paper uses 50).
    pub fn new(cache: C, llm: SimulatedLlm, quota_limit: u64, max_tokens: usize) -> Self {
        Self {
            cache,
            llm,
            quota: QuotaTracker::new(quota_limit),
            max_tokens,
            insert_on_miss: true,
        }
    }

    /// Disables inserting fresh responses on miss (useful when an experiment
    /// wants a frozen cache).
    pub fn freeze_cache(mut self) -> Self {
        self.insert_on_miss = false;
        self
    }

    /// Borrow the cache.
    pub fn cache(&self) -> &C {
        &self.cache
    }

    /// Mutably borrow the cache (e.g. to adjust thresholds mid-experiment).
    pub fn cache_mut(&mut self) -> &mut C {
        &mut self.cache
    }

    /// Populates the cache by asking the LLM for each (query, context) pair
    /// and inserting the response. Populate traffic is not billed against the
    /// user quota (the paper measures steady-state behaviour).
    ///
    /// # Errors
    /// Propagates storage errors.
    pub fn populate(&mut self, items: &[(String, Vec<String>)]) -> Result<()> {
        for (query, context) in items {
            let request = LlmRequest::contextual(query.clone(), context.clone(), self.max_tokens);
            let response = self.llm.generate(&request)?;
            self.cache.insert(query, &response.text, context)?;
        }
        Ok(())
    }

    /// Accounts one probe's outcome: quota bookkeeping, a billable LLM call
    /// on miss (inserting the fresh response when the cache is live), and the
    /// confusion/latency/record updates. Shared by [`Deployment::run`] and
    /// [`Deployment::run_batched`] so the two replay paths cannot drift.
    ///
    /// # Errors
    /// Propagates LLM-service and storage errors.
    fn account_probe(
        &mut self,
        probe: &ProbeSpec,
        outcome: &CacheDecisionOutcome,
        search_time_s: f64,
        acc: &mut RunAccumulator,
    ) -> Result<()> {
        let network_s = self.cache.lookup_network_overhead_s();
        let (latency_s, response, predicted_hit) = match outcome.hit() {
            Some(hit) => {
                // Served from cache: the user avoided one billable call.
                let avoided = LlmRequest::contextual(
                    probe.query.clone(),
                    probe.context.clone(),
                    self.max_tokens,
                );
                let avoided_cost = self
                    .llm
                    .config()
                    .cost
                    .cost_usd(avoided.input_tokens(), self.max_tokens);
                self.quota.record_saved(avoided_cost);
                (network_s + search_time_s, hit.response.clone(), true)
            }
            None => {
                let request = LlmRequest::contextual(
                    probe.query.clone(),
                    probe.context.clone(),
                    self.max_tokens,
                );
                let generated = self.llm.generate(&request)?;
                // Billable; if the quota is exhausted we still serve the
                // response but stop accounting further spend.
                let _ = self.quota.record_billable(generated.cost_usd);
                if self.insert_on_miss {
                    self.cache
                        .insert(&probe.query, &generated.text, &probe.context)?;
                }
                (
                    network_s + search_time_s + generated.latency_s,
                    generated.text,
                    false,
                )
            }
        };

        if let Some(should_hit) = probe.should_hit {
            acc.confusion.record_outcome(predicted_hit, should_hit);
        }
        acc.latencies.record(latency_s);
        acc.search_times.record(search_time_s);
        acc.records.push(QueryRecord {
            query: probe.query.clone(),
            should_hit: probe.should_hit,
            predicted_hit,
            latency_s,
            search_time_s,
            response,
        });
        Ok(())
    }

    /// Assembles the final report from an accumulator.
    fn finish_report(&self, acc: RunAccumulator) -> DeploymentReport {
        DeploymentReport {
            cache_name: self.cache.name(),
            records: acc.records,
            confusion: acc.confusion,
            latencies: acc.latencies,
            search_times: acc.search_times,
            llm_requests: self.llm.requests_served(),
            llm_busy_s: self.llm.busy_time_s(),
            quota: self.quota.clone(),
            final_cache_entries: self.cache.len(),
            final_cache_bytes: self.cache.storage_bytes(),
            final_embedding_bytes: self.cache.embedding_bytes(),
        }
    }

    /// Replays a probe workload through the cache's batched probe path:
    /// every probe funnels through **one** [`SemanticCache::probe_batch`]
    /// pass (a single `search_batch` over the vector index, or a parallel
    /// fan-out across shards) instead of paying per-probe dispatch, which is
    /// how the benchmark harness replays large workloads.
    ///
    /// The probe/commit split keeps the accounting deterministic even when
    /// the batch is answered out of submission order internally (a sharded
    /// cache scans shards in parallel): `probe_batch` returns outcomes in
    /// submission order by contract, and the quota bookkeeping, LLM calls
    /// and access-metadata commits below run strictly per-probe in that
    /// order, so the per-probe records and quota totals are identical to a
    /// sequential replay of the same frozen cache.
    ///
    /// Batching requires a frozen cache (`freeze_cache`): with inserts on
    /// miss, probe *i* could change what probe *i+1* sees, which a single
    /// batched index pass cannot express. Misses are still forwarded to the
    /// LLM and billed; per-probe search time is reported as the batch mean.
    ///
    /// # Errors
    /// Returns [`crate::CacheError::InvalidConfig`] when the cache is not
    /// frozen; propagates LLM-service errors.
    pub fn run_batched(&mut self, probes: &[ProbeSpec]) -> Result<DeploymentReport> {
        if self.insert_on_miss {
            return Err(crate::CacheError::InvalidConfig(
                "run_batched requires freeze_cache(): batched lookups cannot \
                 observe same-run inserts"
                    .into(),
            ));
        }
        let mut acc = RunAccumulator::with_capacity(probes.len());

        let batch: Vec<(&str, &[String])> = probes
            .iter()
            .map(|p| (p.query.as_str(), p.context.as_slice()))
            .collect();
        let started = Instant::now();
        let outcomes = self.cache.probe_batch(&batch);
        let search_time_s = started.elapsed().as_secs_f64() / probes.len().max(1) as f64;

        for (probe, outcome) in probes.iter().zip(outcomes) {
            // Commit (LRU touch) and account in submission order, one
            // probe at a time — the write half never interleaves with the
            // quota arithmetic of another probe.
            self.cache.commit(&outcome);
            self.account_probe(probe, &outcome, search_time_s, &mut acc)?;
        }
        Ok(self.finish_report(acc))
    }

    /// Runs a probe workload, returning the full report.
    ///
    /// # Errors
    /// Propagates storage errors; quota exhaustion ends billable calls but the
    /// run continues (the user simply stops getting fresh responses).
    pub fn run(&mut self, probes: &[ProbeSpec]) -> Result<DeploymentReport> {
        let mut acc = RunAccumulator::with_capacity(probes.len());
        for probe in probes {
            let started = Instant::now();
            let outcome = self.cache.lookup(&probe.query, &probe.context);
            let search_time_s = started.elapsed().as_secs_f64();
            self.account_probe(probe, &outcome, search_time_s, &mut acc)?;
        }
        Ok(self.finish_report(acc))
    }
}

/// Mutable bookkeeping shared by the sequential and batched replay paths.
struct RunAccumulator {
    records: Vec<QueryRecord>,
    confusion: ConfusionMatrix,
    latencies: TimingStats,
    search_times: TimingStats,
}

impl RunAccumulator {
    fn with_capacity(probes: usize) -> Self {
        Self {
            records: Vec::with_capacity(probes),
            confusion: ConfusionMatrix::new(),
            latencies: TimingStats::new(),
            search_times: TimingStats::new(),
        }
    }
}

/// Replays the probes directly against the LLM with no cache at all — the
/// "Llama 2" series of Figure 5.
///
/// # Errors
/// Propagates LLM-service errors.
pub fn run_without_cache(
    llm: &mut SimulatedLlm,
    probes: &[ProbeSpec],
    max_tokens: usize,
) -> Result<Vec<QueryRecord>> {
    let mut records = Vec::with_capacity(probes.len());
    for probe in probes {
        let request =
            LlmRequest::contextual(probe.query.clone(), probe.context.clone(), max_tokens);
        let response = llm.generate(&request)?;
        records.push(QueryRecord {
            query: probe.query.clone(),
            should_hit: probe.should_hit,
            predicted_hit: false,
            latency_s: response.latency_s,
            search_time_s: 0.0,
            response: response.text,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GptCacheBaseline, GptCacheConfig, MeanCache, MeanCacheConfig};
    use mc_embedder::{ModelProfile, QueryEncoder};
    use mc_llm::SimulatedLlmConfig;

    fn meancache() -> MeanCache {
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 5).unwrap();
        MeanCache::new(encoder, MeanCacheConfig::default().with_threshold(0.6)).unwrap()
    }

    fn llm() -> SimulatedLlm {
        SimulatedLlm::new(SimulatedLlmConfig::default()).unwrap()
    }

    fn populate_items() -> Vec<(String, Vec<String>)> {
        vec![
            ("how do I bake sourdough bread at home".to_string(), vec![]),
            ("what is federated learning".to_string(), vec![]),
            (
                "how can I increase the battery life of my smartphone".to_string(),
                vec![],
            ),
        ]
    }

    #[test]
    fn populate_then_probe_produces_expected_confusion() {
        let mut deployment = Deployment::new(meancache(), llm(), 1000, 50);
        deployment.populate(&populate_items()).unwrap();
        assert_eq!(deployment.cache().len(), 3);

        let probes = vec![
            ProbeSpec::standalone("what is an easy way to bake sourdough bread at home", true),
            ProbeSpec::standalone("explain federated learning", true),
            ProbeSpec::standalone("advice on visiting patagonia", false),
            ProbeSpec::standalone("best technique for grilling vegetables", false),
        ];
        let report = deployment.run(&probes).unwrap();
        assert_eq!(report.records.len(), 4);
        assert_eq!(report.confusion.total(), 4);
        // The two unrelated probes must be misses.
        assert!(!report.records[2].predicted_hit);
        assert!(!report.records[3].predicted_hit);
        // Misses are inserted, so the cache grows.
        assert!(report.final_cache_entries >= 5);
        assert!(report.final_cache_bytes > 0);
        assert!(report.summary(0.5).accuracy > 0.0);
    }

    #[test]
    fn cache_hits_are_much_faster_than_misses() {
        let mut deployment = Deployment::new(meancache(), llm(), 1000, 50);
        deployment.populate(&populate_items()).unwrap();
        let probes = vec![
            ProbeSpec::standalone("what is federated learning", true),
            ProbeSpec::standalone("tips for hiking in the swiss alps", false),
        ];
        let report = deployment.run(&probes).unwrap();
        assert!(report.records[0].predicted_hit);
        assert!(!report.records[1].predicted_hit);
        assert!(
            report.mean_hit_latency_s() * 3.0 < report.mean_miss_latency_s(),
            "hit latency {} must be far below miss latency {}",
            report.mean_hit_latency_s(),
            report.mean_miss_latency_s()
        );
        // Hits avoid billable calls.
        assert_eq!(report.quota.saved_queries(), 1);
        assert_eq!(report.quota.used(), 1);
        assert!(report.quota.saved_usd() > 0.0);
    }

    #[test]
    fn server_side_baseline_pays_network_overhead_even_on_hits() {
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 5).unwrap();
        let baseline = GptCacheBaseline::new(
            encoder,
            GptCacheConfig {
                threshold: 0.6,
                network_rtt_s: 0.25,
                ..GptCacheConfig::default()
            },
        )
        .unwrap();
        let mut deployment = Deployment::new(baseline, llm(), 1000, 50);
        deployment
            .populate(&[("what is federated learning".to_string(), vec![])])
            .unwrap();
        let report = deployment
            .run(&[ProbeSpec::standalone("what is federated learning", true)])
            .unwrap();
        assert!(report.records[0].predicted_hit);
        assert!(
            report.records[0].latency_s >= 0.25,
            "server-side hit must still pay the round trip"
        );
    }

    #[test]
    fn batched_replay_matches_sequential_run_on_a_frozen_cache() {
        let probes = vec![
            ProbeSpec::standalone("what is an easy way to bake sourdough bread at home", true),
            ProbeSpec::standalone("explain federated learning", true),
            ProbeSpec::standalone("advice on visiting patagonia", false),
        ];
        let mut sequential = Deployment::new(meancache(), llm(), 1000, 50).freeze_cache();
        sequential.populate(&populate_items()).unwrap();
        let seq_report = sequential.run(&probes).unwrap();

        let mut batched = Deployment::new(meancache(), llm(), 1000, 50).freeze_cache();
        batched.populate(&populate_items()).unwrap();
        let batch_report = batched.run_batched(&probes).unwrap();

        assert_eq!(seq_report.records.len(), batch_report.records.len());
        for (seq, batch) in seq_report.records.iter().zip(&batch_report.records) {
            assert_eq!(
                seq.predicted_hit, batch.predicted_hit,
                "probe {:?}",
                seq.query
            );
        }
        assert_eq!(seq_report.confusion.total(), batch_report.confusion.total());
        assert_eq!(
            seq_report.quota.saved_queries(),
            batch_report.quota.saved_queries()
        );
    }

    #[test]
    fn batched_replay_requires_a_frozen_cache() {
        let mut deployment = Deployment::new(meancache(), llm(), 1000, 50);
        let err = deployment
            .run_batched(&[ProbeSpec::standalone("q", false)])
            .unwrap_err();
        assert!(err.to_string().contains("freeze_cache"));
    }

    #[test]
    fn frozen_cache_does_not_grow_on_misses() {
        let mut deployment = Deployment::new(meancache(), llm(), 1000, 50).freeze_cache();
        deployment.populate(&populate_items()).unwrap();
        let before = deployment.cache().len();
        deployment
            .run(&[ProbeSpec::standalone(
                "completely unrelated question about owls",
                false,
            )])
            .unwrap();
        assert_eq!(deployment.cache().len(), before);
    }

    #[test]
    fn contextual_probes_flow_through_the_cache_contract() {
        let mut deployment = Deployment::new(meancache(), llm(), 1000, 50);
        deployment
            .populate(&[
                ("draw a line plot in python".to_string(), vec![]),
                (
                    "change the color to red".to_string(),
                    vec!["draw a line plot in python".to_string()],
                ),
            ])
            .unwrap();
        let probes = vec![
            ProbeSpec::contextual(
                "change the color to red",
                vec!["draw a line plot in python".to_string()],
                true,
            ),
            ProbeSpec::contextual(
                "change the color to red",
                vec!["draw a circle".to_string()],
                false,
            ),
        ];
        let report = deployment.run(&probes).unwrap();
        assert!(
            report.records[0].predicted_hit,
            "same conversation must hit"
        );
        assert!(
            !report.records[1].predicted_hit,
            "different conversation must miss (context verification)"
        );
        assert_eq!(report.confusion.true_hits, 1);
        assert_eq!(report.confusion.true_misses, 1);
    }

    #[test]
    fn no_cache_baseline_reports_generation_latency_for_every_query() {
        let mut service = llm();
        let probes = vec![
            ProbeSpec::standalone("q one", false),
            ProbeSpec::standalone("q two", false),
        ];
        let records = run_without_cache(&mut service, &probes, 50).unwrap();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| !r.predicted_hit));
        assert!(records.iter().all(|r| r.latency_s > 0.1));
        assert_eq!(service.requests_served(), 2);
    }

    #[test]
    fn cache_mut_exposes_the_inner_cache() {
        let mut deployment = Deployment::new(meancache(), llm(), 10, 50);
        deployment.cache_mut().set_threshold(0.9);
        assert!((deployment.cache().threshold() - 0.9).abs() < 1e-6);
    }
}
