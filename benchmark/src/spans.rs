//! In-memory spans around the calls the benchmark makes into a layer, written
//! out as JSON when the run ends.
//!
//! A span has a name (`<crate>.<call>`), start and end in nanoseconds since
//! the recorder was created, the span that caused it, and the id of the
//! operation it belongs to. A layer's **self time** is its span's duration
//! minus the durations of its child spans.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        op: u32,
    ) -> u32 {
        let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: since(start),
            end_ns: since(end),
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Self time of every span, in nanoseconds (clamped at zero: a child
    /// measured in a separate execution can outlast its parent by noise).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent as usize] -= (span.end_ns - span.start_ns) as i64;
            }
        }
        own.into_iter().map(|ns| ns.max(0) as u64).collect()
    }

    /// Summed self time per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += own,
                None => totals.push((span.name, own)),
            }
        }
        totals
    }

    /// Writes `{"workload": …, "spans": [{id, name, start_ns, end_ns, parent,
    /// op}, …]}`.
    pub fn write_json(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                if id == 0 { "" } else { "," },
                span.name,
                span.start_ns,
                span.end_ns,
                span.op
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut spans = Spans::default();
        let t0 = spans.origin;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let probe = spans.record("core.probe", at(0), at(100), None, 7);
        spans.record("embedder.encode", at(5), at(35), Some(probe), 7);
        let search = spans.record("store.search", at(35), at(95), Some(probe), 7);
        spans.record("tensor.kernel", at(40), at(80), Some(search), 7);
        assert_eq!(spans.self_times_ns(), vec![10_000, 30_000, 20_000, 40_000]);
        // A re-executed child that outlasts its parent clamps to zero.
        let parent = spans.record("core.probe", at(200), at(210), None, 8);
        spans.record("embedder.encode", at(300), at(330), Some(parent), 8);
        let by_name = spans.self_time_by_name();
        assert_eq!(by_name[0], ("core.probe", 10_000));
        assert_eq!(by_name[1], ("embedder.encode", 60_000));
    }

    #[test]
    fn json_lists_every_span() {
        let mut spans = Spans::default();
        let t0 = spans.origin;
        let root = spans.record("serve.request", t0, t0 + Duration::from_nanos(900), None, 3);
        spans.record(
            "core.lookup",
            t0,
            t0 + Duration::from_nanos(400),
            Some(root),
            3,
        );
        let dir = crate::run::scratch_dir("spans_test");
        let path = dir.join("trace.json");
        spans.write_json("user_local", &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(text.starts_with("{\"workload\": \"user_local\", \"spans\": ["));
        assert!(text.contains("{\"id\": 0, \"name\": \"serve.request\", \"start_ns\": 0, \"end_ns\": 900, \"parent\": null, \"op\": 3}"));
        assert!(text.contains("{\"id\": 1, \"name\": \"core.lookup\", \"start_ns\": 0, \"end_ns\": 400, \"parent\": 0, \"op\": 3}"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
