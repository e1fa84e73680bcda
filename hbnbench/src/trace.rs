//! In-memory span recorder for the traced run.
//!
//! Each span has a name, a start and end (nanoseconds since the tracer
//! was created), the span that caused it, and the round it belongs to.
//! Spans stay in memory until the run ends; [`Tracer::write_jsonl`]
//! writes them out, one JSON object per line. A span's *self time* is
//! its duration minus the durations of its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    round: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Span identifier: an index into the tracer's span list.
pub type SpanId = usize;

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    round: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::new(), round: 0 }
    }

    /// Tag spans opened from now on with `round`.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, round: self.round, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`, child of `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Per round, the summed self time in seconds of every span name.
    pub fn self_seconds_by_round(&self) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.round).or_default().entry(s.name).or_default() += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Per round, the summed duration in seconds of the spans named
    /// `name` (children included).
    pub fn total_seconds_by_round(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.round).or_default() += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"round\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.round, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.open("root", None);
        t.span("child", root, || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.close(root);
        let by_round = t.self_seconds_by_round();
        let r0 = &by_round[&0];
        assert!(r0["child"] >= 0.005);
        let total = t.total_seconds_by_round("root")[&0];
        assert!((r0["root"] + r0["child"] - total).abs() < 1e-9);
    }
}
