//! Shared vocabulary of the workload generators: the operations a trace is
//! made of, the ground-truth labels they carry, and the tallies a run keeps.

use crate::corpus::response_for;

/// Bytes of a cached response on the read-mostly workloads.
pub const RESPONSE_LEN: usize = 64;

/// A store request: the query, its conversation, and the response to cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Insert {
    pub text: String,
    pub context: Vec<String>,
    pub response: String,
}

impl Insert {
    pub fn standalone(text: String) -> Self {
        Self::with_context(text, Vec::new())
    }

    pub fn with_context(text: String, context: Vec<String>) -> Self {
        let response = response_for(&text, RESPONSE_LEN);
        Self {
            text,
            context,
            response,
        }
    }
}

/// A lookup with its ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup {
    pub text: String,
    pub context: Vec<String>,
    /// Ground truth: a semantically equivalent entry (with a matching
    /// conversation) is resident when this lookup is issued.
    pub should_hit: bool,
    /// Set on exact repeats of a resident query: the lookup must hit and
    /// carry exactly this response. Anything else is a failed operation, not
    /// a quality error.
    pub verbatim: Option<String>,
}

/// One operation of a served trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Lookup(Lookup),
    Insert(Insert),
    /// Persist the cache (`durable_fill` only).
    Save,
}

/// Lookup decisions against ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    pub true_hits: u64,
    pub false_hits: u64,
    pub true_misses: u64,
    pub false_misses: u64,
}

impl Confusion {
    pub fn record(&mut self, should_hit: bool, hit: bool) {
        match (should_hit, hit) {
            (true, true) => self.true_hits += 1,
            (false, true) => self.false_hits += 1,
            (false, false) => self.true_misses += 1,
            (true, false) => self.false_misses += 1,
        }
    }

    pub fn add(&mut self, other: Confusion) {
        self.true_hits += other.true_hits;
        self.false_hits += other.false_hits;
        self.true_misses += other.true_misses;
        self.false_misses += other.false_misses;
    }

    pub fn precision(&self) -> f64 {
        ratio(self.true_hits, self.true_hits + self.false_hits)
    }

    pub fn recall(&self) -> f64 {
        ratio(self.true_hits, self.true_hits + self.false_misses)
    }

    /// F-score with β = 0.5 (precision weighted twice recall), the paper's
    /// choice and the one `optimal_cache_threshold` calibrates τ against.
    pub fn f_score(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        let beta_sq = 0.25;
        if p + r == 0.0 {
            0.0
        } else {
            (1.0 + beta_sq) * p * r / (beta_sq * p + r)
        }
    }

    /// Share of should-miss lookups that were served a hit.
    pub fn false_hit_rate(&self) -> f64 {
        ratio(self.false_hits, self.false_hits + self.true_misses)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// What one segment did, op by op. `hits + misses + inserts + saves +
/// failures` must equal `attempted`; the run fails otherwise.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub saves: u64,
    pub failures: u64,
    /// Operations that returned a correct reply within the latency limit.
    pub in_limit: u64,
    pub confusion: Confusion,
    pub lookup_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    /// First few failure descriptions, for the report.
    pub failure_notes: Vec<String>,
}

impl Tally {
    pub fn balanced(&self) -> bool {
        self.hits + self.misses + self.inserts + self.saves + self.failures == self.attempted
    }

    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failures += 1;
        if self.failure_notes.len() < 5 {
            self.failure_notes.push(note());
        }
    }

    /// Adds another tally's counts (not its per-op latencies) to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.saves += other.saves;
        self.failures += other.failures;
        self.in_limit += other.in_limit;
        self.confusion.add(other.confusion);
        self.failure_notes.extend(other.failure_notes);
    }

    /// Accounts one answered lookup. `response` is the hit's payload, `None`
    /// on a miss.
    pub fn lookup_done(&mut self, lookup: &Lookup, response: Option<&str>, us: f64, limit_us: f64) {
        self.attempted += 1;
        self.lookup_us.push(us);
        if let Some(expected) = &lookup.verbatim {
            if response != Some(expected.as_str()) {
                self.fail(|| {
                    format!(
                        "exact repeat {:?} returned {:?}, expected the inserted response",
                        lookup.text, response
                    )
                });
                return;
            }
        }
        let hit = response.is_some();
        self.confusion.record(lookup.should_hit, hit);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        if us <= limit_us {
            self.in_limit += 1;
        }
    }

    /// Accounts one acknowledged insert.
    pub fn insert_done(&mut self, us: f64, limit_us: f64) {
        self.attempted += 1;
        self.inserts += 1;
        self.insert_us.push(us);
        if us <= limit_us {
            self.in_limit += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_metrics() {
        let mut c = Confusion::default();
        for _ in 0..8 {
            c.record(true, true);
        }
        for _ in 0..2 {
            c.record(true, false);
        }
        c.record(false, true);
        for _ in 0..9 {
            c.record(false, false);
        }
        assert!((c.precision() - 8.0 / 9.0).abs() < 1e-12);
        assert!((c.recall() - 0.8).abs() < 1e-12);
        assert!((c.false_hit_rate() - 0.1).abs() < 1e-12);
        let (p, r) = (8.0 / 9.0, 0.8);
        assert!((c.f_score() - 1.25 * p * r / (0.25 * p + r)).abs() < 1e-12);
        assert_eq!(Confusion::default().f_score(), 0.0);
    }

    #[test]
    fn tally_counts_every_op_once() {
        let mut t = Tally::default();
        let exact = Lookup {
            text: "q".into(),
            context: vec![],
            should_hit: true,
            verbatim: Some("r".into()),
        };
        t.lookup_done(&exact, Some("r"), 10.0, 100.0);
        t.lookup_done(&exact, Some("other"), 10.0, 100.0);
        t.lookup_done(&exact, None, 10.0, 100.0);
        let novel = Lookup {
            text: "n".into(),
            context: vec![],
            should_hit: false,
            verbatim: None,
        };
        t.lookup_done(&novel, None, 500.0, 100.0);
        t.insert_done(20.0, 100.0);
        assert_eq!(
            (t.attempted, t.hits, t.misses, t.inserts, t.failures),
            (5, 1, 1, 1, 2)
        );
        assert_eq!(t.in_limit, 2);
        assert!(t.balanced());
        assert_eq!(t.confusion.true_hits, 1);
        assert_eq!(t.confusion.true_misses, 1);
        assert_eq!(t.failure_notes.len(), 2);
    }
}
