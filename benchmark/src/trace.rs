//! In-memory span recorder for the traced run.
//!
//! A root span is one timed caller-side op (a wire call, an advisor
//! sweep, a flip round). Its children are recorded by the benchmark's own
//! code around calls into each layer's public functions — either a replay
//! of the same op in-process, or the layer's own report of where its time
//! went. Spans are kept in memory and written once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span, `None` for a root.
    pub parent: Option<usize>,
    /// Shared by a root and all of its children.
    pub request: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// Span store for one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    requests: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }

    fn micros(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record the root span of a new request; returns its index.
    pub fn root(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        self.requests += 1;
        self.spans.push(Span {
            name,
            parent: None,
            request: self.requests,
            start_us: self.micros(start),
            end_us: self.micros(end),
        });
        self.spans.len() - 1
    }

    /// Time `f` as a child of `parent` and return what it returned.
    pub fn child<R>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.push_child(parent, name, self.micros(start), self.micros(end));
        out
    }

    /// Record a child timed by the caller while its parent was running.
    pub fn child_at(&mut self, parent: usize, name: &'static str, start: Instant, end: Instant) {
        self.push_child(parent, name, self.micros(start), self.micros(end));
    }

    /// Record a child whose duration the layer reported itself (an
    /// advisor session's elapsed time, a repartition's measured seconds);
    /// it is laid at the start of its parent.
    pub fn reported_child(&mut self, parent: usize, name: &'static str, seconds: f64) {
        let start = self.spans[parent].start_us;
        self.push_child(parent, name, start, start + seconds * 1e6);
    }

    fn push_child(&mut self, parent: usize, name: &'static str, start_us: f64, end_us: f64) {
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            request,
            start_us,
            end_us,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (µs) of every root span called `root`.
    pub fn root_durations_us(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Durations (µs) of every span called `name` under a root called
    /// `root`.
    pub fn durations_us(&self, root: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| self.spans[p].name == root))
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Self time (µs) of every root called `root`: its duration minus the
    /// sum of its children's.
    pub fn self_times_us(&self, root: &str) -> Vec<f64> {
        let mut self_us: Vec<Option<f64>> = self
            .spans
            .iter()
            .map(|s| (s.parent.is_none() && s.name == root).then_some(s.end_us - s.start_us))
            .collect();
        for s in &self.spans {
            if let Some(own) = s.parent.and_then(|p| self_us[p].as_mut()) {
                *own -= s.end_us - s.start_us;
            }
        }
        self_us.into_iter().flatten().collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.request, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_root_minus_children() {
        let mut t = Tracer::new();
        let start = Instant::now();
        let root = t.root("op", start, start + Duration::from_micros(1000));
        t.reported_child(root, "layer.a", 300e-6);
        t.reported_child(root, "layer.b", 200e-6);
        let other = t.root("other", start, start + Duration::from_micros(50));
        t.reported_child(other, "layer.a", 10e-6);
        // Instants are offsets from a floating origin: compare to a nanosecond.
        let close = |got: Vec<f64>, want: f64| got.len() == 1 && (got[0] - want).abs() < 1e-3;
        assert!(close(t.self_times_us("op"), 500.0));
        assert!(close(t.durations_us("op", "layer.a"), 300.0));
        assert!(close(t.root_durations_us("other"), 50.0));
        assert_eq!(t.spans[1].request, t.spans[0].request);
        assert_ne!(t.spans[3].request, t.spans[0].request);
    }
}
