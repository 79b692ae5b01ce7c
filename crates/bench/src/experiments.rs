//! One function per table / figure of the paper's evaluation section.
//!
//! | Function | Paper artefact |
//! |---|---|
//! | [`run_fig4`]      | Figure 4 — user-study duplicate-query analysis |
//! | [`run_table1_and_fig7_9`] | Table I + Figures 7 & 9 — end-to-end metrics and confusion matrices |
//! | [`run_fig5_6`]    | Figures 5 & 6 — per-query response times and hit/miss labels |
//! | [`run_fig8`]      | Figure 8 — contextual per-query hit/miss labels |
//! | [`run_fig10`]     | Figure 10 — storage / search time / F-score vs cache size, with PCA compression |
//! | [`run_fig11_12`]  | Figures 11 & 12 — FL training rounds vs global-model quality |
//! | [`run_fig13_14_16`] | Figures 13, 14 & 16 — cosine-threshold sweeps per model |
//! | [`run_fig15`]     | Figure 15 — embedding computation time and storage per model |

use std::time::Instant;

use mc_embedder::{sweep_thresholds, ModelProfile, ProfileKind, QueryEncoder};
use mc_fl::{
    partition_iid, ClientSampler, EmbeddingClient, FlSimulation, RoundConfig, SimulationConfig,
};
use mc_metrics::report::{fmt3, fmt_kb, fmt_pct, fmt_secs};
use mc_metrics::Table;
use mc_workloads::{paper_contextual_workload, standalone_workload, UserStudy};
use meancache::{MeanCache, MeanCacheConfig};

use crate::setup::*;

/// Figure 4: per-participant totals and duplicate counts from the user study,
/// plus a synthetic trace regenerated at the same volumes.
pub fn run_fig4() {
    let study = UserStudy::paper();
    let mut table = Table::new(
        "Figure 4 - ChatGPT user study (20 participants)",
        &[
            "participant",
            "total queries",
            "duplicate queries",
            "duplicate ratio",
        ],
    );
    for (i, (total, dups)) in study.participants.iter().enumerate() {
        table.add_row(&[
            format!("{}", i + 1),
            total.to_string(),
            dups.to_string(),
            fmt_pct(*dups as f64 / *total as f64),
        ]);
    }
    println!("{table}");
    println!(
        "total queries: {}   mean per-participant duplicate ratio: {}   (paper reports >27K queries, ~31%)",
        study.total_queries(),
        fmt_pct(study.mean_duplicate_ratio())
    );

    // Regenerate a synthetic trace for one mid-sized participant to show the
    // trace generator reproduces the same shape.
    let bank = mc_workloads::TopicBank::generate(EXPERIMENT_SEED);
    let trace = mc_workloads::participant_trace(&bank, 466, 83, EXPERIMENT_SEED);
    let repeats = trace.iter().filter(|q| q.is_repeat).count();
    println!(
        "synthetic trace for participant 18: {} queries, {} repeats ({})\n",
        trace.len(),
        repeats,
        fmt_pct(repeats as f64 / trace.len() as f64)
    );
}

/// Table I plus the confusion matrices of Figures 7 and 9: GPTCache vs
/// MeanCache (MPNet-like and Albert-like) on standalone and contextual
/// queries.
pub fn run_table1_and_fig7_9(corpus: &ExperimentCorpus) {
    // --- Standalone: cache pre-populated with 1000 queries, probed with
    // 1000 queries of which 30% are duplicates (Section IV-B). ---
    let workload = standalone_workload(&corpus.bank, 1000, 1000, 0.3, EXPERIMENT_SEED);
    let probes: Vec<(String, bool)> = workload
        .probes
        .iter()
        .map(|p| (p.text.clone(), p.should_hit))
        .collect();

    let mpnet = train_model(ProfileKind::MpnetLike, corpus, 4);
    let albert = train_model(ProfileKind::AlbertLike, corpus, 4);

    // The caches keep inserting fresh responses on every miss (the behaviour
    // of a live deployment). Note that the synthetic topic bank is small, so
    // a "novel" topic can be probed more than once; its second occurrence is
    // then served from the entry inserted moments earlier but still counts as
    // a false hit against the populate-time ground truth. This artefact
    // depresses the measured standalone precision of *every* configuration
    // equally.
    let mut gpt = gptcache_deployment();
    let gpt_standalone = run_standalone(&mut gpt, &workload.populate, &probes);
    let mut mean_mpnet = meancache_deployment(&mpnet);
    let mpnet_standalone = run_standalone(&mut mean_mpnet, &workload.populate, &probes);
    let mut mean_albert = meancache_deployment(&albert);
    let albert_standalone = run_standalone(&mut mean_albert, &workload.populate, &probes);

    // --- Contextual: the 450-query workload of Section IV-C. ---
    let contextual = paper_contextual_workload(&corpus.bank, EXPERIMENT_SEED + 3);
    let mut gpt_ctx_dep = gptcache_deployment();
    let gpt_contextual = run_contextual(&mut gpt_ctx_dep, &contextual);
    let mut mean_ctx_dep = meancache_deployment(&mpnet);
    let mean_contextual = run_contextual(&mut mean_ctx_dep, &contextual);

    let mut table = Table::new(
        "Table I - semantic cache decision quality (beta = 0.5)",
        &[
            "metric",
            "GPTCache (standalone)",
            "MeanCache MPNet (standalone)",
            "MeanCache Albert (standalone)",
            "GPTCache (contextual)",
            "MeanCache (contextual)",
        ],
    );
    let summaries = [
        gpt_standalone.summary(0.5),
        mpnet_standalone.summary(0.5),
        albert_standalone.summary(0.5),
        gpt_contextual.summary(0.5),
        mean_contextual.summary(0.5),
    ];
    for (label, pick) in [
        ("F score", 0usize),
        ("Precision", 1),
        ("Recall", 2),
        ("Accuracy", 3),
    ] {
        let mut row = vec![label.to_string()];
        for s in &summaries {
            let v = match pick {
                0 => s.f_score,
                1 => s.precision,
                2 => s.recall,
                _ => s.accuracy,
            };
            row.push(fmt3(v));
        }
        table.add_row(&row);
    }
    println!("{table}");
    println!(
        "learned thresholds: MeanCache(MPNet)={:.2}  MeanCache(Albert)={:.2}  GPTCache fixed at {:.2}",
        mpnet.threshold, albert.threshold, GPTCACHE_THRESHOLD
    );

    println!("\nFigure 7 - confusion matrices, 1000 standalone probes:");
    println!(
        "  {}",
        format_confusion("MeanCache (MPNet)", &mpnet_standalone.confusion)
    );
    println!(
        "  {}",
        format_confusion("GPTCache        ", &gpt_standalone.confusion)
    );
    println!("\nFigure 9 - confusion matrices, contextual probes:");
    println!(
        "  {}",
        format_confusion("MeanCache        ", &mean_contextual.confusion)
    );
    println!(
        "  {}",
        format_confusion("GPTCache         ", &gpt_contextual.confusion)
    );
    println!();
}

/// Figures 5 and 6: response times and hit/miss labels for a 100-query subset
/// (70 non-duplicates followed by 30 duplicates, as in the paper's plots).
pub fn run_fig5_6(corpus: &ExperimentCorpus) {
    let workload = standalone_workload(&corpus.bank, 1000, 100, 0.3, EXPERIMENT_SEED + 5);
    // Order probes as the paper plots them: non-duplicates first (ids 0-69),
    // duplicates last (ids 70-99).
    let mut probes: Vec<(String, bool)> = workload
        .probes
        .iter()
        .map(|p| (p.text.clone(), p.should_hit))
        .collect();
    probes.sort_by_key(|(_, should_hit)| *should_hit);

    let mpnet = train_model(ProfileKind::MpnetLike, corpus, 4);

    // No-cache baseline.
    let mut llm = simulated_llm();
    let specs: Vec<meancache::ProbeSpec> = probes
        .iter()
        .map(|(q, s)| meancache::ProbeSpec::standalone(q.clone(), *s))
        .collect();
    let no_cache = meancache::deploy::run_without_cache(&mut llm, &specs, RESPONSE_TOKENS)
        .expect("no-cache run succeeds");

    let mut gpt = gptcache_deployment();
    let gpt_report = run_standalone(&mut gpt, &workload.populate, &probes);
    let mut mean = meancache_deployment(&mpnet);
    let mean_report = run_standalone(&mut mean, &workload.populate, &probes);

    let mut table = Table::new(
        "Figure 5 - response time per query (seconds)",
        &[
            "query id",
            "real label",
            "Llama 2 (no cache)",
            "+ GPTCache",
            "+ MeanCache",
        ],
    );
    for i in 0..probes.len() {
        table.add_row(&[
            i.to_string(),
            if probes[i].1 { "dup" } else { "new" }.to_string(),
            fmt_secs(no_cache[i].latency_s),
            fmt_secs(gpt_report.records[i].latency_s),
            fmt_secs(mean_report.records[i].latency_s),
        ]);
    }
    println!("{table}");
    println!(
        "mean latency: no cache {}  GPTCache {}  MeanCache {}",
        fmt_secs(no_cache.iter().map(|r| r.latency_s).sum::<f64>() / no_cache.len() as f64),
        fmt_secs(gpt_report.mean_latency_s()),
        fmt_secs(mean_report.mean_latency_s()),
    );
    println!(
        "mean latency on duplicate queries only: GPTCache {}  MeanCache {}",
        fmt_secs(mean_of(&gpt_report, true)),
        fmt_secs(mean_of(&mean_report, true)),
    );

    let mut labels = Table::new(
        "Figure 6 - hit/miss labels per query",
        &[
            "query id",
            "real label",
            "GPTCache predicted",
            "MeanCache predicted",
        ],
    );
    for (i, ((probe, gpt_rec), mean_rec)) in probes
        .iter()
        .zip(&gpt_report.records)
        .zip(&mean_report.records)
        .enumerate()
    {
        labels.add_row(&[
            i.to_string(),
            if probe.1 { "hit" } else { "miss" }.to_string(),
            if gpt_rec.predicted_hit { "hit" } else { "miss" }.to_string(),
            if mean_rec.predicted_hit {
                "hit"
            } else {
                "miss"
            }
            .to_string(),
        ]);
    }
    println!("{labels}");
    let count_false_hits = |r: &meancache::DeploymentReport| r.confusion.false_hits;
    println!(
        "false hits on the 70 non-duplicate queries: GPTCache {}  MeanCache {}\n",
        count_false_hits(&gpt_report),
        count_false_hits(&mean_report)
    );
}

fn mean_of(report: &meancache::DeploymentReport, duplicates: bool) -> f64 {
    let mut stats = mc_metrics::TimingStats::new();
    for r in report
        .records
        .iter()
        .filter(|r| r.should_hit == Some(duplicates))
    {
        stats.record(r.latency_s);
    }
    stats.mean()
}

/// Figure 8: per-query contextual labels — (a) queries that should all miss,
/// (b) queries that should mostly hit.
pub fn run_fig8(corpus: &ExperimentCorpus) {
    let contextual = paper_contextual_workload(&corpus.bank, EXPERIMENT_SEED + 3);
    let mpnet = train_model(ProfileKind::MpnetLike, corpus, 4);

    let mut gpt = gptcache_deployment();
    let gpt_report = run_contextual(&mut gpt, &contextual);
    let mut mean = meancache_deployment(&mpnet);
    let mean_report = run_contextual(&mut mean, &contextual);

    let mut miss_side = (0u64, 0u64); // (gpt false hits, meancache false hits)
    let mut hit_side = (0u64, 0u64); // (gpt true hits, meancache true hits)
    for (i, probe) in contextual.probes.iter().enumerate() {
        if probe.should_hit {
            if gpt_report.records[i].predicted_hit {
                hit_side.0 += 1;
            }
            if mean_report.records[i].predicted_hit {
                hit_side.1 += 1;
            }
        } else {
            if gpt_report.records[i].predicted_hit {
                miss_side.0 += 1;
            }
            if mean_report.records[i].predicted_hit {
                miss_side.1 += 1;
            }
        }
    }
    let n_miss = contextual.probes.iter().filter(|p| !p.should_hit).count();
    let n_hit = contextual.probes.len() - n_miss;
    println!("Figure 8a - {n_miss} queries that should all MISS:");
    println!(
        "  false hits: GPTCache {}  MeanCache {}   (paper: 54 vs 3)",
        miss_side.0, miss_side.1
    );
    println!("Figure 8b - {n_hit} duplicate queries that should HIT:");
    println!(
        "  true hits: GPTCache {}  MeanCache {}   (paper reports ~8% more true hits for MeanCache)\n",
        hit_side.0, hit_side.1
    );
}

/// Figure 10: storage, average semantic-search time and F-score as the number
/// of cached queries grows, with and without PCA compression.
pub fn run_fig10(corpus: &ExperimentCorpus) {
    let mpnet = train_model(ProfileKind::MpnetLike, corpus, 4);
    let albert = train_model(ProfileKind::AlbertLike, corpus, 4);
    let pca_corpus: Vec<String> = corpus
        .bank
        .all_queries()
        .into_iter()
        .step_by(2)
        .take(600)
        .collect();

    // Compressed variants: 64 principal components, as in the paper.
    let compress = |model: &TrainedModel| -> TrainedModel {
        let mut encoder = model.encoder.clone();
        encoder
            .fit_pca(&pca_corpus, 64, EXPERIMENT_SEED)
            .expect("PCA fit succeeds");
        let threshold =
            mc_embedder::optimal_cache_threshold(&encoder, &corpus.validation, 100, 0.5)
                .clamp(0.2, 0.98);
        TrainedModel {
            encoder,
            threshold,
            kind: model.kind,
        }
    };
    let mpnet_compressed = compress(&mpnet);
    let albert_compressed = compress(&albert);

    let mut table = Table::new(
        "Figure 10 - storage, search time and F-score vs number of cached queries",
        &[
            "cached queries",
            "configuration",
            "embedding storage",
            "avg search time (batched replay)",
            "F0.5 score",
        ],
    );

    for &cached in &[1000usize, 2000, 3000] {
        let workload = standalone_workload(
            &corpus.bank,
            cached,
            300,
            0.3,
            EXPERIMENT_SEED + cached as u64,
        );
        let probes: Vec<(String, bool)> = workload
            .probes
            .iter()
            .map(|p| (p.text.clone(), p.should_hit))
            .collect();

        let run_config = |table: &mut Table, label: &str, cache: MeanCache| {
            let mut deployment =
                meancache::Deployment::new(cache, simulated_llm(), u64::MAX, RESPONSE_TOKENS)
                    .freeze_cache();
            let report = run_standalone_batched(&mut deployment, &workload.populate, &probes);
            table.add_row(&[
                cached.to_string(),
                label.to_string(),
                fmt_kb(report.final_embedding_bytes),
                fmt_secs(report.search_times.mean()),
                fmt3(report.summary(0.5).f_score),
            ]);
        };

        // GPTCache reference row (uncompressed Albert-like, fixed threshold).
        {
            let mut deployment = gptcache_deployment().freeze_cache();
            let report = run_standalone_batched(&mut deployment, &workload.populate, &probes);
            table.add_row(&[
                cached.to_string(),
                "GPTCache".to_string(),
                fmt_kb(report.final_embedding_bytes),
                fmt_secs(report.search_times.mean()),
                fmt3(report.summary(0.5).f_score),
            ]);
        }
        for (label, model) in [
            ("MeanCache (MPNet)", &mpnet),
            ("MeanCache (Albert)", &albert),
            ("MeanCache-Compressed (MPNet)", &mpnet_compressed),
            ("MeanCache-Compressed (Albert)", &albert_compressed),
        ] {
            let cache = MeanCache::new(
                model.encoder.clone(),
                MeanCacheConfig::default().with_threshold(model.threshold),
            )
            .expect("valid cache");
            run_config(&mut table, label, cache);
        }
    }
    println!("{table}");
    println!(
        "(search times are batch-amortised: probes replay through one search_batch \
         pass, so they understate single-arrival lookup latency; the paper's per-lookup \
         numbers correspond to Deployment::run)"
    );
    let full = mc_tensor::quant::stored_embedding_bytes(mpnet.encoder.raw_output_dim());
    let small = mc_tensor::quant::stored_embedding_bytes(64);
    println!(
        "per-entry embedding storage: {} uncompressed vs {} compressed ({} saving; paper reports 83%)\n",
        fmt_kb(full),
        fmt_kb(small),
        fmt_pct(1.0 - small as f64 / full as f64)
    );
}

/// Figures 11 and 12: federated training rounds vs the global model's
/// F1 / precision / recall / accuracy on the server-side test split.
pub fn run_fig11_12(corpus: &ExperimentCorpus, rounds: usize) {
    for (figure, kind, batch) in [
        ("Figure 11 (MPNet)", ProfileKind::MpnetLike, 128usize),
        ("Figure 12 (Albert)", ProfileKind::AlbertLike, 256),
    ] {
        let profile = ModelProfile::compact(kind);
        let template = QueryEncoder::new(profile.clone(), EXPERIMENT_SEED).expect("profile");
        let initial = template.parameters();

        // 20 clients, 4 sampled per round, disjoint shards (Section IV-E).
        let train_shards = partition_iid(&corpus.train, 20, EXPERIMENT_SEED);
        let val_shards = partition_iid(&corpus.validation, 20, EXPERIMENT_SEED + 1);
        let clients: Vec<EmbeddingClient> = (0..20)
            .map(|i| {
                EmbeddingClient::new(
                    i,
                    QueryEncoder::new(profile.clone(), EXPERIMENT_SEED).expect("profile"),
                    train_shards[i].clone(),
                    val_shards[i].clone(),
                )
            })
            .collect();

        let config = SimulationConfig {
            rounds,
            sampler: ClientSampler::RandomCount(4),
            round_config: RoundConfig {
                local_epochs: 2,
                batch_size: batch,
                learning_rate: 0.02,
                threshold_steps: 50,
                beta: 0.5,
                ..RoundConfig::default()
            },
            seed: EXPERIMENT_SEED,
            aggregation: mc_fl::AggregationMethod::FedAvg,
            eval_every: 1,
            eval_beta: 1.0,
            eval_threshold: None,
        };
        let test = corpus.validation.clone();
        let mut simulation = FlSimulation::new(clients, initial, 0.7, config)
            .expect("simulation config")
            .with_evaluation(template, test);
        let outcome = simulation.run().expect("federated training succeeds");

        let mut table = Table::new(
            format!("{figure} - FL training rounds vs global-model quality"),
            &[
                "round",
                "F1",
                "precision",
                "recall",
                "accuracy",
                "global tau",
            ],
        );
        for record in &outcome.history {
            if let Some(m) = record.eval {
                table.add_row(&[
                    record.round.to_string(),
                    fmt3(m.f1),
                    fmt3(m.precision),
                    fmt3(m.recall),
                    fmt3(m.accuracy),
                    fmt3(record.global_threshold as f64),
                ]);
            }
        }
        println!("{table}");
        let first = outcome
            .eval_series()
            .first()
            .map(|(_, m)| m.precision)
            .unwrap_or(0.0);
        let last = outcome
            .eval_series()
            .last()
            .map(|(_, m)| m.precision)
            .unwrap_or(0.0);
        println!(
            "precision over FL training: {} -> {} (paper: MPNet 0.74 -> 0.85, Albert 0.74 -> 0.81)\n",
            fmt3(first),
            fmt3(last)
        );
    }
}

/// Figures 13, 14 and 16: cosine-threshold sweeps for the trained MPNet-like
/// and Albert-like models and the untrained Llama-2-like model.
pub fn run_fig13_14_16(corpus: &ExperimentCorpus) {
    let balanced = corpus.validation.balanced_subsample(EXPERIMENT_SEED);
    let mpnet = train_model(ProfileKind::MpnetLike, corpus, 4);
    let albert = train_model(ProfileKind::AlbertLike, corpus, 4);
    let llama = untrained_encoder(ProfileKind::LlamaLike);

    for (figure, encoder) in [
        ("Figure 13 - MPNet threshold sweep", &mpnet.encoder),
        ("Figure 14 - Albert threshold sweep", &albert.encoder),
        ("Figure 16 - Llama-2 threshold sweep", &llama),
    ] {
        let sweep = sweep_thresholds(encoder, &balanced, 20, 1.0);
        let mut table = Table::new(
            figure,
            &["threshold", "F1", "precision", "recall", "accuracy"],
        );
        for point in &sweep.points {
            table.add_row(&[
                format!("{:.2}", point.threshold),
                fmt3(point.metrics.f1),
                fmt3(point.metrics.precision),
                fmt3(point.metrics.recall),
                fmt3(point.metrics.accuracy),
            ]);
        }
        println!("{table}");
        println!(
            "optimal threshold {:.2} with F1 {}\n",
            sweep.optimal_threshold,
            fmt3(sweep.optimal_metrics.f1)
        );
    }
    println!(
        "(paper: optimal thresholds 0.83 for MPNet and 0.78 for Albert; Llama-2 peaks at F1 0.75, well below both)\n"
    );
}

/// Figure 15: time to compute one embedding and per-query embedding storage
/// for the full-size Llama-2-like, MPNet-like and Albert-like models.
pub fn run_fig15() {
    let queries: Vec<String> = mc_workloads::TopicBank::generate(EXPERIMENT_SEED)
        .all_queries()
        .into_iter()
        .take(64)
        .collect();
    let mut table = Table::new(
        "Figure 15 - embedding computation time and storage per model",
        &[
            "model",
            "avg compute time / query",
            "embedding storage",
            "model size",
        ],
    );
    for (label, profile) in [
        ("Llama-2-like", ModelProfile::llama()),
        ("MPNet-like", ModelProfile::mpnet()),
        ("Albert-like", ModelProfile::albert()),
    ] {
        let encoder = QueryEncoder::new(profile.clone(), EXPERIMENT_SEED).expect("profile");
        // Warm up once, then measure.
        let _ = encoder.encode(&queries[0]);
        let started = Instant::now();
        for q in &queries {
            let _ = encoder.encode(q);
        }
        let per_query = started.elapsed().as_secs_f64() / queries.len() as f64;
        table.add_row(&[
            label.to_string(),
            fmt_secs(per_query),
            fmt_kb(encoder.embedding_storage_bytes()),
            fmt_kb(encoder.model_bytes()),
        ]);
    }
    println!("{table}");
    println!(
        "(paper: Llama-2 0.040s and ~32 KB per embedding vs 0.009s/0.005s and ~6 KB for MPNet/Albert)\n"
    );
}

/// One backend's measurement within a tier of the index experiment.
struct IndexBenchRow {
    /// Median per-lookup latency in microseconds. Each probe's latency is
    /// the **minimum over 3 timed repetitions** (the noise-robust estimate
    /// of its deterministic scan cost), so percentiles here spread over
    /// *probes*, not over scheduler noise.
    p50_us: f64,
    /// 99th-percentile of the same per-probe minimum-of-3 latencies: the
    /// worst probe's cost, **not** a tail-latency measure (preemption and
    /// contention are deliberately excluded).
    p99_us: f64,
    /// recall@5 against the exact f32 flat scan's top-5.
    recall_at_5: f64,
    /// True `storage_bytes()` of the built index.
    storage_bytes: usize,
}

/// Per-probe search latencies in microseconds, sorted ascending. One warm
/// pass first (page-ins, pool spin-up), then each probe is timed
/// [`LATENCY_REPS`] times and its **minimum** kept: the scan is
/// deterministic work, so the minimum is the noise-robust estimate of its
/// cost — scheduler preemption and frequency wobble only ever add time.
fn probe_latencies_us(index: &dyn mc_store::VectorIndex, queries: &[Vec<f32>]) -> Vec<f64> {
    const TOP_K: usize = 5;
    const LATENCY_REPS: usize = 3;
    for q in queries {
        let _ = index.search(q, TOP_K, -1.0).expect("search succeeds");
    }
    let mut latencies: Vec<f64> = queries.iter().map(|_| f64::INFINITY).collect();
    for _ in 0..LATENCY_REPS {
        for (q, best) in queries.iter().zip(latencies.iter_mut()) {
            let started = Instant::now();
            let _ = index.search(q, TOP_K, -1.0).expect("search succeeds");
            *best = best.min(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    latencies.sort_by(f64::total_cmp);
    latencies
}

/// The `p`-th percentile (0..=1) of an ascending-sorted latency series.
fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let pos = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[pos.min(sorted_us.len() - 1)]
}

/// Measures one tier (every backend × codec combination at `dims`), adds a
/// table row per backend and returns the measurements in `backends` order.
/// The **first** backend must be the exact f32 flat scan: its hit lists
/// double as the recall@5 ground truth for the rest, so no separate truth
/// index is built.
fn measure_tier(
    entries: usize,
    dims: usize,
    backends: &[(&str, mc_store::IndexKind)],
    table: &mut Table,
) -> Vec<IndexBenchRow> {
    use mc_store::VectorIndex;

    const TOP_K: usize = 5;
    const PROBES: usize = 64;

    assert_eq!(
        backends[0].1,
        mc_store::IndexKind::flat(),
        "the first backend supplies the exact ground truth"
    );

    // Topic-clustered vectors and paraphrase-style probes: the shape a
    // trained encoder actually produces over a cache (see
    // `mc_workloads::embeddings`). Uniform random vectors would be the
    // degenerate no-structure case no ANN index can prune.
    let cloud = mc_workloads::EmbeddingCloud::generate(
        entries,
        dims,
        (entries / 50).max(8),
        0.6,
        EXPERIMENT_SEED ^ entries as u64 ^ (dims as u64) << 32,
    );
    let queries = cloud.probes(PROBES, 0.25);

    // Filled by the first (exact f32 flat) backend's own searches.
    let mut truth: Vec<Vec<u64>> = Vec::new();
    let mut rows = Vec::with_capacity(backends.len());
    for (label, kind) in backends {
        let mut index = kind.build(dims).expect("valid index config");
        for (id, v) in cloud.vectors.iter().enumerate() {
            index.add(id as u64, v).expect("consistent dims");
        }
        let latencies = probe_latencies_us(&index, &queries);

        let hits_per_probe: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                index
                    .search(q, TOP_K, -1.0)
                    .expect("search succeeds")
                    .into_iter()
                    .map(|h| h.id)
                    .collect()
            })
            .collect();
        if truth.is_empty() {
            truth = hits_per_probe.clone();
        }
        let mut recall_hits = 0usize;
        let mut recall_total = 0usize;
        for (approx, truth_ids) in hits_per_probe.iter().zip(&truth) {
            recall_total += truth_ids.len();
            recall_hits += truth_ids.iter().filter(|t| approx.contains(t)).count();
        }
        let row = IndexBenchRow {
            p50_us: percentile(&latencies, 0.50),
            p99_us: percentile(&latencies, 0.99),
            recall_at_5: recall_hits as f64 / recall_total.max(1) as f64,
            storage_bytes: index.storage_bytes(),
        };
        table.add_row(&[
            format!("{entries}x{dims}d"),
            label.to_string(),
            format!("{:.1}us", row.p50_us),
            format!("{:.1}us", row.p99_us),
            fmt_pct(row.recall_at_5),
            fmt_kb(row.storage_bytes),
        ]);
        rows.push(row);
    }
    rows
}

/// Index-backend comparison (beyond the paper): flat vs IVF, f32 rows vs
/// SQ8-quantised rows, at growing cache sizes — per-lookup latency p50/p99,
/// recall@5 against the exact f32 flat ground truth, and true
/// `storage_bytes()`. This is the experiment behind the "index backends"
/// section of the README.
pub fn run_index_backends() {
    run_index_backends_with(&[1_000, 10_000, 100_000]);
}

/// [`run_index_backends`] with explicit size tiers (the CI smoke test runs
/// the 1k tier only).
///
/// Every tier measures all four backend × codec combinations at the paper's
/// 64-d PCA-compressed embedding size; the largest tier additionally runs
/// the flat pair at the native SBERT 768 dimensions — the regime the paper's
/// storage argument is about, where the SQ8 scan's 4× byte reduction is
/// plainly memory-bandwidth-bound. The closing speed-up / bytes-ratio line
/// comes from that 768-d pair.
pub fn run_index_backends_with(sizes: &[usize]) {
    use mc_store::IndexKind;

    const DIMS: usize = 64; // PCA-compressed embedding size from the paper
    const NATIVE_DIMS: usize = 768; // SBERT-native size (Figure 15 storage)

    let all_backends: Vec<(&str, IndexKind)> = vec![
        ("flat", IndexKind::flat()),
        ("flat-sq8", IndexKind::flat_sq8()),
        ("ivf", IndexKind::ivf()),
        ("ivf-sq8", IndexKind::ivf_sq8()),
    ];

    let mut table = Table::new(
        "Index backends - flat/IVF x f32/SQ8 rows",
        &[
            "entries x dims",
            "backend",
            "p50 / lookup",
            "p99 / lookup",
            "recall@5",
            "storage",
        ],
    );
    let largest = sizes.iter().copied().max().expect("at least one size tier");
    let mut native_pair = Vec::new();
    for &entries in sizes {
        measure_tier(entries, DIMS, &all_backends, &mut table);
        if entries == largest {
            // Native-dims tier: flat pair only (IVF k-means at 100k x 768 is
            // training cost, not scan insight).
            native_pair = measure_tier(entries, NATIVE_DIMS, &all_backends[..2], &mut table);
        }
    }
    let (f32_row, sq8_row) = (&native_pair[0], &native_pair[1]);

    println!("{table}");
    println!(
        "(SQ8 stores one u8 code per dimension + per-row scale/min and scans with the fused \
         f32 x u8 kernel; queries stay full-precision. At {largest} x {NATIVE_DIMS}d the \
         quantised flat scan is {:.2}x the speed of f32 at {:.2}x the bytes. Select per \
         deployment via MeanCacheConfig::index.)\n",
        f32_row.p50_us / sq8_row.p50_us.max(f64::EPSILON),
        sq8_row.storage_bytes as f64 / (f32_row.storage_bytes as f64).max(1.0)
    );
}

/// The split flat scan in isolation (the companion of the end-to-end
/// comparison `mc_store::DEFAULT_PARALLEL_SEARCH_THRESHOLD` is set from): the
/// same rows in a never-splitting and an always-splitting `FlatIndex`
/// (256 d, both codecs), searched alternately with `idle_us` of sleep before
/// each timed call (0 = back to back, the pool stays warm; 500 = an open-loop
/// server's gaps), then the same for an 8-query `search_batch`, whose
/// `queries × rows` is held to the same rule. Prints sequential and split
/// wall p50 and their ratio per size. On a shared host the ratio depends on
/// whether the second vCPU is free, so read it over several runs.
pub fn run_index_crossover(sizes: &[usize], idle_us: u64) {
    use mc_store::{FlatIndex, Quantization, VectorIndex};

    const DIMS: usize = 256;
    const TOP_K: usize = 5;
    const MIN_SCORE: f32 = 0.7;
    const BATCH: usize = 8;
    const ROUNDS: usize = 6; // the first is warm-up

    let idle = std::time::Duration::from_micros(idle_us);
    let timed_us = |run: &mut dyn FnMut()| {
        if !idle.is_zero() {
            std::thread::sleep(idle);
        }
        let started = Instant::now();
        run();
        started.elapsed().as_secs_f64() * 1e6
    };
    let mut table = Table::new(
        format!("Sequential vs split flat scan - {DIMS}d, {idle_us}us idle before each call"),
        &[
            "codec",
            "rows",
            "call",
            "sequential p50",
            "split p50",
            "split / seq",
        ],
    );
    for quantization in [Quantization::F32, Quantization::Sq8] {
        for &rows in sizes {
            let cloud = mc_workloads::EmbeddingCloud::generate(
                rows,
                DIMS,
                (rows / 50).max(8),
                0.6,
                EXPERIMENT_SEED ^ rows as u64,
            );
            let queries = cloud.probes(64, 0.25);
            let build = |threshold| {
                let mut index = FlatIndex::with_options(DIMS, threshold, quantization)
                    .expect("valid index config");
                for (id, v) in cloud.vectors.iter().enumerate() {
                    index.add(id as u64, v).expect("consistent dims");
                }
                index
            };
            let (seq, split) = (build(usize::MAX), build(1));
            let batches: Vec<Vec<&[f32]>> = queries
                .chunks_exact(BATCH)
                .map(|batch| batch.iter().map(Vec::as_slice).collect())
                .collect();
            let (mut single, mut batched) = ((Vec::new(), Vec::new()), (Vec::new(), Vec::new()));
            for round in 0..ROUNDS {
                for q in &queries {
                    let a = timed_us(&mut || drop(seq.search(q, TOP_K, MIN_SCORE)));
                    let b = timed_us(&mut || drop(split.search(q, TOP_K, MIN_SCORE)));
                    if round > 0 {
                        single.0.push(a);
                        single.1.push(b);
                    }
                }
                for batch in &batches {
                    let a = timed_us(&mut || drop(seq.search_batch(batch, TOP_K, MIN_SCORE)));
                    let b = timed_us(&mut || drop(split.search_batch(batch, TOP_K, MIN_SCORE)));
                    if round > 0 {
                        batched.0.push(a);
                        batched.1.push(b);
                    }
                }
            }
            for (call, (mut seq_us, mut split_us)) in
                [("search", single), ("search_batch x8", batched)]
            {
                seq_us.sort_by(f64::total_cmp);
                split_us.sort_by(f64::total_cmp);
                let (s, p) = (percentile(&seq_us, 0.5), percentile(&split_us, 0.5));
                table.add_row(&[
                    format!("{quantization:?}"),
                    rows.to_string(),
                    call.to_string(),
                    format!("{s:.1}us"),
                    format!("{p:.1}us"),
                    format!("{:.2}", p / s.max(f64::EPSILON)),
                ]);
            }
        }
    }
    println!("{table}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_and_fig15_run_quickly() {
        // Smoke tests: the cheap experiments must run end to end.
        run_fig4();
        run_fig15();
    }
}
