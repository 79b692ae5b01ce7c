//! The metric registry: every end-to-end and per-layer metric by name, with
//! its unit and direction. `BENCHMARK.json` lists exactly these names (a unit
//! test compares the two), the report prints them in this order, and the A/A
//! mode looks its bounds up here.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric and the share of the baseline median by which it may
/// worsen before a change counts as a regression. The bounds are filled from
/// the measured A/A spread (`out/aa_report.txt`, `out/aa_report_seeds.txt`),
/// not guessed: each is at least three times the widest run spread seen on
/// any workload, capped at the contract's 0.25 — which the three timing
/// metrics hit on this sandbox (spreads of 0.06–0.17) — with the floors
/// named in the README.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEndMetric; 12] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("lookup_p50_us", "us", Better::Lower, 0.25),
    e2e("insert_p50_us", "us", Better::Lower, 0.25),
    e2e("in_limit_share", "share", Better::Higher, 0.01),
    e2e("ok_share", "share", Better::Higher, 0.005),
    e2e("precision", "share", Better::Higher, 0.03),
    e2e("recall", "share", Better::Higher, 0.07),
    e2e("f_score", "share", Better::Higher, 0.04),
    e2e("false_hit_rate", "share", Better::Lower, 0.2),
    e2e("bytes_per_entry", "B", Better::Lower, 0.01),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEndMetric {
    EndToEndMetric {
        name,
        unit,
        better,
        bound,
    }
}

/// Per-layer metrics, `<crate>.<metric>`: name, unit, direction. No bounds:
/// they explain a change, they do not gate it.
pub const PER_LAYER: [(&str, &str, Better); 54] = [
    ("tensor.dot_f32_ns_per_row", "ns", Better::Lower),
    ("tensor.dot_u8_asym_ns_per_row", "ns", Better::Lower),
    ("embedder.encode_us", "us", Better::Lower),
    ("embedder.train_s", "s", Better::Lower),
    ("embedder.memo_hit_share", "share", Better::Higher),
    ("embedder.memo_get_ns", "ns", Better::Lower),
    ("store.search_us", "us", Better::Lower),
    ("store.rows_per_search", "count", Better::Lower),
    ("store.index_bytes_per_entry", "B", Better::Lower),
    ("store.wal_append_us", "us", Better::Lower),
    ("store.wal_bytes_per_insert", "B", Better::Lower),
    ("store.snapshot_write_ms", "ms", Better::Lower),
    ("store.snapshot_bytes_per_entry", "B", Better::Lower),
    ("store.evictions", "count", Better::Lower),
    ("core.probe_us", "us", Better::Lower),
    ("core.probe_ctx_us", "us", Better::Lower),
    ("core.verify_self_us", "us", Better::Lower),
    ("core.ctx_reject_share", "share", Better::Higher),
    ("core.commit_us", "us", Better::Lower),
    ("core.insert_us", "us", Better::Lower),
    ("core.shard_overhead_us", "us", Better::Lower),
    ("core.shard_lock_wait_us", "us", Better::Lower),
    ("core.tenant_overhead_us", "us", Better::Lower),
    ("core.save_ms", "ms", Better::Lower),
    ("core.restore_ms", "ms", Better::Lower),
    ("core.restore_replayed", "count", Better::Lower),
    ("serve.frame_codec_ns", "ns", Better::Lower),
    ("serve.submit_overhead_us", "us", Better::Lower),
    ("serve.wire_overhead_us", "us", Better::Lower),
    ("serve.io_events_per_op", "count", Better::Lower),
    ("serve.avg_batch", "count", Better::Higher),
    ("serve.coalesced_share", "share", Better::Higher),
    ("serve.singleflight_share", "share", Better::Higher),
    ("serve.shed_share", "share", Better::Lower),
    ("serve.stage_queue_wait_p50_us", "us", Better::Lower),
    ("serve.stage_encode_p50_us", "us", Better::Lower),
    ("serve.stage_probe_p50_us", "us", Better::Lower),
    ("serve.stage_commit_p50_us", "us", Better::Lower),
    ("serve.stage_write_flush_p50_us", "us", Better::Lower),
    ("serve.wal_append_us", "us", Better::Lower),
    ("serve.trace_overhead_share", "share", Better::Lower),
    ("host.ladder_loopback_p50_us", "us", Better::Lower),
    ("host.ladder_rung_sum_us", "us", Better::Lower),
    ("host.share_embedder", "share", Better::Lower),
    ("host.share_store", "share", Better::Lower),
    ("host.share_core", "share", Better::Lower),
    ("host.share_serve", "share", Better::Lower),
    ("host.share_persist", "share", Better::Lower),
    ("host.cpu_us_per_op", "us", Better::Lower),
    ("host.runq_wait_share", "share", Better::Lower),
    ("host.lookup_p99_us", "us", Better::Lower),
    ("host.gen_late_p99_us", "us", Better::Lower),
    ("host.ref_ms", "ms", Better::Lower),
    ("host.segment_iqr_share", "share", Better::Lower),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the result line the acceptance driver reads: one JSON object,
/// values with all their digits.
pub fn result_json(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            // JSON has no NaN or infinity; a metric that could not be
            // measured reads as -1 and the run is already marked incorrect.
            let value = if value.is_finite() { *value } else { -1.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Which way `name` improves.
pub fn better_of(name: &str) -> Better {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.better)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.2))
        .unwrap_or_else(|| panic!("metric {name} is not registered"))
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("metric {name} is not registered"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit_of(name).len() <= 16);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"name\": ").count();
        // 4 workloads + the two metric lists.
        assert_eq!(listed, 4 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut values = Values::new();
        values.insert("setup_s", 1.25);
        values.insert("ops_per_s", f64::NAN);
        let line = result_json(true, 10, 0, &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"ops_per_s\": {\"value\": -1, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
