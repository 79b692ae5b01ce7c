//! Per-request stage tracing and a fixed-capacity flight recorder.
//!
//! A serving pipeline is only debuggable if a slow request can say *where*
//! the time went. This module provides the three pieces the serve layer
//! threads through its stages:
//!
//! * [`Trace`] — one per sampled request, carried alongside the request as
//!   it crosses threads. Each pipeline stage calls [`Trace::mark`], which
//!   stores a microsecond offset from the trace's start. Offsets are
//!   clamped monotone: a mark can never read earlier than the previous
//!   mark, so a dumped trace is always a non-decreasing timeline even if
//!   two stages land within the same clock tick.
//! * [`FlightRecorder`] — a fixed-capacity ring of [`TraceSnapshot`]s.
//!   Recording never blocks: the writer claims a slot with one atomic
//!   `fetch_add` and a `try_lock`; if a reader holds that slot the snapshot
//!   is counted as dropped instead of stalling the pipeline.
//! * [`Tracer`] — the sampling gate in front of both. With sampling
//!   disabled the per-request cost is a single relaxed atomic load;
//!   slow/deadline-expired/panicked requests can still be force-recorded
//!   through [`Tracer::force_begin`] so the recorder always holds the
//!   interesting outliers.
//!
//! The snapshot types serialize to JSON for the serve layer's `TraceDump`
//! opcode and the `--trace-log` slow-request log.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Pipeline stages a request passes through, in order. The numeric value
/// is the stage's index into [`Trace`]'s offset table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Frame fully assembled on the event loop.
    Accepted = 0,
    /// Wire frame decoded into a request.
    Decoded = 1,
    /// Request admitted to the bounded queue.
    Enqueued = 2,
    /// Batcher popped the request off the queue.
    Dequeued = 3,
    /// Batch formed (post artificial delay, pre execution).
    Batched = 4,
    /// Query embedding resolved (memo hit or encoder run).
    Encoded = 5,
    /// Shard probe finished.
    Probed = 6,
    /// Feedback committed / reply resolved on the ticket.
    Committed = 7,
    /// Reply bytes flushed to the socket by the event loop.
    Written = 8,
}

/// Number of stages in [`Stage`].
pub const STAGE_COUNT: usize = 9;

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Accepted,
        Stage::Decoded,
        Stage::Enqueued,
        Stage::Dequeued,
        Stage::Batched,
        Stage::Encoded,
        Stage::Probed,
        Stage::Committed,
        Stage::Written,
    ];

    /// Stable lowercase name used in JSON dumps and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Accepted => "accepted",
            Stage::Decoded => "decoded",
            Stage::Enqueued => "enqueued",
            Stage::Dequeued => "dequeued",
            Stage::Batched => "batched",
            Stage::Encoded => "encoded",
            Stage::Probed => "probed",
            Stage::Committed => "committed",
            Stage::Written => "written",
        }
    }
}

/// Flag bits recorded on a [`Trace`].
pub mod flag {
    /// The query embedding came from the memo cache.
    pub const MEMO_HIT: u64 = 1 << 0;
    /// The query embedding required an encoder run.
    pub const MEMO_MISS: u64 = 1 << 1;
    /// The request's deadline expired before execution.
    pub const DEADLINE_EXPIRED: u64 = 1 << 2;
    /// The batch executing this request panicked.
    pub const PANICKED: u64 = 1 << 3;
    /// End-to-end latency exceeded the slow threshold.
    pub const SLOW: u64 = 1 << 4;
    /// The request was coalesced with duplicates in its batch.
    pub const COALESCED: u64 = 1 << 5;
}

/// Sentinel for a stage that was never marked.
const UNSET: u64 = u64::MAX;

/// A single request's trace: monotone stage offsets (µs from `start`) plus
/// outcome flags. Shared across the event-loop and batcher threads behind
/// an `Arc`; every operation is lock-free.
#[derive(Debug)]
pub struct Trace {
    id: u64,
    kind: &'static str,
    start: Instant,
    stages: [AtomicU64; STAGE_COUNT],
    /// Highest offset stored so far — marks clamp against this so the
    /// per-stage timeline is non-decreasing by construction.
    high_water: AtomicU64,
    flags: AtomicU64,
    recorded: AtomicBool,
}

impl Trace {
    /// A new trace starting now. `kind` labels the request type
    /// (`"lookup"`, `"insert"`, `"control"`).
    pub fn new(id: u64, kind: &'static str) -> Self {
        Trace {
            id,
            kind,
            start: Instant::now(),
            stages: std::array::from_fn(|_| AtomicU64::new(UNSET)),
            high_water: AtomicU64::new(0),
            flags: AtomicU64::new(0),
            recorded: AtomicBool::new(false),
        }
    }

    /// The trace's id (assigned by the issuing [`Tracer`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Microseconds elapsed since the trace started.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(UNSET - 1)) as u64
    }

    /// Marks `stage` as reached now.
    pub fn mark(&self, stage: Stage) {
        self.mark_at(stage, self.elapsed_us());
    }

    /// Marks `stage` with an explicit offset. The stored value is clamped
    /// to be no earlier than any previously stored mark, so a dump is
    /// monotone for any call sequence. Public so tests can drive the clamp
    /// deterministically.
    pub fn mark_at(&self, stage: Stage, offset_us: u64) {
        let offset_us = offset_us.min(UNSET - 1);
        let prev_high = self.high_water.fetch_max(offset_us, Ordering::Relaxed);
        let clamped = offset_us.max(prev_high);
        self.stages[stage as usize].store(clamped, Ordering::Relaxed);
    }

    /// The offset recorded for `stage`, if marked.
    pub fn stage_us(&self, stage: Stage) -> Option<u64> {
        match self.stages[stage as usize].load(Ordering::Relaxed) {
            UNSET => None,
            us => Some(us),
        }
    }

    /// Sets one or more [`flag`] bits.
    pub fn set_flag(&self, bits: u64) {
        self.flags.fetch_or(bits, Ordering::Relaxed);
    }

    /// An owned snapshot of the marked stages, in pipeline order.
    pub fn snapshot(&self) -> TraceSnapshot {
        let flags = self.flags.load(Ordering::Relaxed);
        let stages = Stage::ALL
            .iter()
            .filter_map(|&s| {
                self.stage_us(s).map(|us| StageMark {
                    stage: s.name().to_string(),
                    us,
                })
            })
            .collect();
        TraceSnapshot {
            id: self.id,
            kind: self.kind.to_string(),
            total_us: self.high_water.load(Ordering::Relaxed),
            stages,
            memo_hit: if flags & flag::MEMO_HIT != 0 {
                Some(true)
            } else if flags & flag::MEMO_MISS != 0 {
                Some(false)
            } else {
                None
            },
            deadline_expired: flags & flag::DEADLINE_EXPIRED != 0,
            panicked: flags & flag::PANICKED != 0,
            slow: flags & flag::SLOW != 0,
            coalesced: flags & flag::COALESCED != 0,
        }
    }
}

/// One marked stage in a [`TraceSnapshot`]: stage name plus microsecond
/// offset from the trace start.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq)]
pub struct StageMark {
    pub stage: String,
    pub us: u64,
}

/// Serializable view of one request's trace, as dumped by `TraceDump` and
/// the slow-request log.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Default)]
pub struct TraceSnapshot {
    pub id: u64,
    pub kind: String,
    /// Offset of the latest mark — the request's end-to-end time as far as
    /// the trace observed it.
    pub total_us: u64,
    /// Marked stages in pipeline order; skipped stages are omitted.
    pub stages: Vec<StageMark>,
    /// `Some(true)` = embedding memo hit, `Some(false)` = encoder ran,
    /// `None` = attribution unavailable (memo disabled or batch-amortised).
    pub memo_hit: Option<bool>,
    pub deadline_expired: bool,
    pub panicked: bool,
    pub slow: bool,
    pub coalesced: bool,
}

impl TraceSnapshot {
    /// The offset of stage `name`, if present.
    pub fn stage_us(&self, name: &str) -> Option<u64> {
        self.stages.iter().find(|m| m.stage == name).map(|m| m.us)
    }

    /// True when stage offsets are non-decreasing in pipeline order — the
    /// invariant [`Trace::mark_at`] maintains.
    pub fn is_monotone(&self) -> bool {
        self.stages.windows(2).all(|w| w[0].us <= w[1].us)
    }
}

/// A fixed-capacity ring of trace snapshots. Writers never block: each
/// `record` claims the next slot round-robin and skips (counting a drop)
/// if a concurrent `dump` holds that slot's lock.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<TraceSnapshot>>>,
    cursor: AtomicUsize,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with room for `capacity` snapshots (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Snapshots dropped because their slot was contended at record time.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Stores `snapshot`, overwriting the oldest entry once full.
    pub fn record(&self, snapshot: TraceSnapshot) {
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        match self.slots[slot].try_lock() {
            Ok(mut guard) => *guard = Some(snapshot),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// All stored snapshots, oldest id first.
    pub fn dump(&self) -> Vec<TraceSnapshot> {
        let mut out: Vec<TraceSnapshot> = self
            .slots
            .iter()
            .filter_map(|slot| match slot.lock() {
                Ok(guard) => guard.clone(),
                Err(poisoned) => poisoned.into_inner().clone(),
            })
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }
}

/// The JSON document `TraceDump` returns: recorder contents plus the
/// sampling configuration they were captured under.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Default)]
pub struct TraceDump {
    /// 1-in-N sampling rate in effect (0 = sampling disabled).
    pub sample_every: u64,
    /// Slow-request threshold in µs (0 = disabled).
    pub slow_threshold_us: u64,
    /// Snapshots lost to slot contention since start.
    pub dropped: u64,
    pub traces: Vec<TraceSnapshot>,
}

/// Sampling gate plus flight recorder: the single object the serve layer
/// shares between its event loop, batcher, and stats endpoints.
#[derive(Debug)]
pub struct Tracer {
    /// Trace 1 request in N; 0 disables sampling entirely.
    sample_every: AtomicU64,
    /// Requests slower than this (µs, end-to-end) are flagged slow and
    /// force-recorded; 0 disables.
    slow_threshold_us: AtomicU64,
    counter: AtomicU64,
    next_id: AtomicU64,
    recorder: FlightRecorder,
}

impl Tracer {
    /// A tracer with sampling disabled and a recorder of `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            sample_every: AtomicU64::new(0),
            slow_threshold_us: AtomicU64::new(0),
            counter: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            recorder: FlightRecorder::new(capacity),
        }
    }

    /// Sets the 1-in-N sampling rate (0 disables).
    pub fn set_sample_every(&self, every: u64) {
        self.sample_every.store(every, Ordering::Relaxed);
    }

    /// Current 1-in-N sampling rate.
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Sets the slow-request threshold in µs (0 disables).
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.slow_threshold_us.store(us, Ordering::Relaxed);
    }

    /// Current slow threshold in µs.
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// True if `total_us` crosses the slow threshold.
    pub fn is_slow(&self, total_us: u64) -> bool {
        let threshold = self.slow_threshold_us();
        threshold != 0 && total_us >= threshold
    }

    /// Begins a trace if this request is sampled. With sampling disabled
    /// the cost is one relaxed load.
    pub fn begin(&self, kind: &'static str) -> Option<Arc<Trace>> {
        let every = self.sample_every.load(Ordering::Relaxed);
        if every == 0 {
            return None;
        }
        if !self
            .counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
        {
            return None;
        }
        Some(self.force_begin(kind))
    }

    /// Begins a trace unconditionally — used to synthesize a record for an
    /// unsampled request that turned out slow, deadline-expired, or
    /// panicked.
    pub fn force_begin(&self, kind: &'static str) -> Arc<Trace> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Arc::new(Trace::new(id, kind))
    }

    /// Pushes `trace` into the flight recorder, once: returns false if it
    /// was already recorded (e.g. force-recorded at deadline expiry and
    /// again at write time).
    pub fn record(&self, trace: &Trace) -> bool {
        if trace.recorded.swap(true, Ordering::Relaxed) {
            return false;
        }
        self.recorder.record(trace.snapshot());
        true
    }

    /// The underlying recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The recorder contents plus sampling config, as a [`TraceDump`].
    pub fn dump(&self) -> TraceDump {
        TraceDump {
            sample_every: self.sample_every(),
            slow_threshold_us: self.slow_threshold_us(),
            dropped: self.recorder.dropped(),
            traces: self.recorder.dump(),
        }
    }

    /// [`Tracer::dump`] serialized to JSON.
    pub fn dump_json(&self) -> String {
        serde_json::to_string(&self.dump()).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_are_monotone_and_flags_stick() {
        let trace = Trace::new(7, "lookup");
        trace.mark_at(Stage::Accepted, 10);
        trace.mark_at(Stage::Decoded, 12);
        // An out-of-order (earlier) offset clamps to the high-water mark.
        trace.mark_at(Stage::Enqueued, 5);
        trace.mark_at(Stage::Written, 40);
        trace.set_flag(flag::MEMO_HIT | flag::SLOW);

        assert_eq!(trace.stage_us(Stage::Accepted), Some(10));
        assert_eq!(trace.stage_us(Stage::Enqueued), Some(12));
        assert_eq!(trace.stage_us(Stage::Dequeued), None);
        let flags = trace.flags.load(Ordering::Relaxed);
        assert_ne!(flags & flag::MEMO_HIT, 0);
        assert_eq!(flags & flag::PANICKED, 0);

        let snap = trace.snapshot();
        assert_eq!(snap.id, 7);
        assert_eq!(snap.kind, "lookup");
        assert_eq!(snap.total_us, 40);
        assert_eq!(snap.stages.len(), 4);
        assert!(snap.is_monotone());
        assert_eq!(snap.stage_us("enqueued"), Some(12));
        assert_eq!(snap.memo_hit, Some(true));
        assert!(snap.slow && !snap.deadline_expired);
    }

    #[test]
    fn recorder_wraps_and_dumps_in_id_order() {
        let rec = FlightRecorder::new(4);
        for id in 0..10u64 {
            let trace = Trace::new(id, "lookup");
            trace.mark_at(Stage::Accepted, id);
            rec.record(trace.snapshot());
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 4);
        let ids: Vec<u64> = dump.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn sampling_gate_passes_one_in_n() {
        let tracer = Tracer::new(8);
        assert!(tracer.begin("lookup").is_none(), "sampling starts disabled");
        tracer.set_sample_every(4);
        let sampled = (0..40).filter(|_| tracer.begin("lookup").is_some()).count();
        assert_eq!(sampled, 10);
        tracer.set_sample_every(1);
        assert!(tracer.begin("lookup").is_some());
    }

    #[test]
    fn record_is_first_caller_wins() {
        let tracer = Tracer::new(8);
        let trace = tracer.force_begin("lookup");
        trace.mark_at(Stage::Accepted, 1);
        assert!(tracer.record(&trace));
        assert!(!tracer.record(&trace), "second record is a no-op");
        assert_eq!(tracer.recorder().dump().len(), 1);
        assert!(trace.recorded.load(Ordering::Relaxed));
    }

    #[test]
    fn slow_threshold_gates_is_slow() {
        let tracer = Tracer::new(1);
        assert!(!tracer.is_slow(u64::MAX), "threshold 0 disables");
        tracer.set_slow_threshold_us(500);
        assert!(!tracer.is_slow(499));
        assert!(tracer.is_slow(500));
    }

    #[test]
    fn dump_round_trips_through_json() {
        let tracer = Tracer::new(4);
        tracer.set_sample_every(1);
        tracer.set_slow_threshold_us(2_000);
        for i in 0..3 {
            let trace = tracer.begin("lookup").expect("1-in-1 sampling");
            trace.mark_at(Stage::Accepted, i);
            trace.mark_at(Stage::Probed, i + 5);
            trace.mark_at(Stage::Written, i + 9);
            if i == 1 {
                trace.set_flag(flag::DEADLINE_EXPIRED | flag::MEMO_MISS);
            }
            tracer.record(&trace);
        }
        let json = tracer.dump_json();
        let parsed: TraceDump = serde_json::from_str(&json).expect("valid JSON dump");
        assert_eq!(parsed, tracer.dump());
        assert_eq!(parsed.sample_every, 1);
        assert_eq!(parsed.slow_threshold_us, 2_000);
        assert_eq!(parsed.traces.len(), 3);
        assert!(parsed.traces.iter().all(TraceSnapshot::is_monotone));
        assert_eq!(
            parsed.traces.iter().filter(|t| t.deadline_expired).count(),
            1
        );
        assert_eq!(parsed.traces[1].memo_hit, Some(false));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// For any in-order walk over a random subset of stages with
            /// arbitrary (even decreasing) raw offsets, the snapshot's
            /// stage timeline is non-decreasing.
            #[test]
            fn snapshots_are_monotone(
                raw in prop::collection::vec(0u64..1_000_000, 1..32),
                stride in 1usize..4,
            ) {
                let trace = Trace::new(1, "lookup");
                let mut stage_idx = 0usize;
                for (i, &us) in raw.iter().enumerate() {
                    // Walk stages in pipeline order, revisiting some and
                    // skipping others depending on the generated stride.
                    stage_idx = (stage_idx + (i % stride)).min(STAGE_COUNT - 1);
                    trace.mark_at(Stage::ALL[stage_idx], us);
                }
                let snap = trace.snapshot();
                prop_assert!(!snap.stages.is_empty());
                prop_assert!(
                    snap.is_monotone(),
                    "non-monotone snapshot: {:?}",
                    snap.stages
                );
                prop_assert!(snap.stages.iter().all(|m| m.us <= snap.total_us));
            }

            /// Recorder dump round-trips through JSON for arbitrary
            /// populations.
            #[test]
            fn recorder_json_round_trip(
                offsets in prop::collection::vec(0u64..10_000, 0..24),
                capacity in 1usize..8,
            ) {
                let tracer = Tracer::new(capacity);
                tracer.set_sample_every(1);
                for &us in &offsets {
                    let trace = tracer.begin("lookup").unwrap();
                    trace.mark_at(Stage::Accepted, us);
                    trace.mark_at(Stage::Written, us + 3);
                    tracer.record(&trace);
                }
                let parsed: TraceDump =
                    serde_json::from_str(&tracer.dump_json()).expect("dump parses");
                prop_assert_eq!(parsed, tracer.dump());
            }
        }
    }
}
