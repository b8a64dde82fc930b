//! Spans recorded by the benchmark around its calls into the workspace's
//! crates. Spans live in memory and are written out when the run ends; a
//! layer's self time is its spans' durations minus their direct children.
//!
//! A disabled tracer records nothing and never reads the clock, so the
//! end-to-end runs pay only a branch per call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `processors.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Shared by the spans of one simulation or served job.
    pub job: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (see [`Tracer::enter`]).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Switches recording on or off between spans (the traced run
    /// alternates traced and untraced rounds).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, job });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now_ns();
            debug_assert_eq!(self.stack.last(), Some(&idx), "spans must nest");
            self.stack.pop();
            self.spans[idx].end_ns = end;
        }
    }

    /// Records an already measured interval that is not on the nesting
    /// stack (a served job's time in flight, which overlaps other jobs).
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        if self.on {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            let span = Span { name, start_ns: ns(start), end_ns: ns(end), parent: None, job };
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        out.flush()
    }
}

/// Self time per layer, in nanoseconds, over the span trees rooted at a
/// span named in `roots`: each span's duration minus the durations of its
/// direct children. Spans recorded with [`Tracer::record`] have no parent
/// and overlap one another; they are not roots and are left out.
pub fn self_time_by_layer(spans: &[Span], roots: &[&str]) -> BTreeMap<&'static str, u64> {
    // Parents precede their children, so one forward pass finds each root.
    let mut root = Vec::with_capacity(spans.len());
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root.push(s.parent.map_or(i, |p| root[p]));
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if roots.contains(&spans[root[i]].name) {
            *by_layer.entry(s.layer()).or_default() += s.dur_ns().saturating_sub(child_ns[i]);
        }
    }
    by_layer
}

/// Durations of every span named `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, job: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench.round", 0, 100, None),
            span("processors.run", 10, 60, Some(0)),
            span("processors.instantiate", 60, 70, Some(0)),
            span("baseline.run", 70, 95, Some(0)),
            span("serve.job", 0, 500, None),
            span("bench.setup", 500, 600, None),
            span("workloads.build", 510, 520, Some(5)),
        ];
        let t = self_time_by_layer(&spans, &["bench.round"]);
        assert_eq!(t["bench"], 15);
        assert_eq!(t["processors"], 60);
        assert_eq!(t["baseline"], 25);
        assert!(!t.contains_key("serve"), "overlapping job spans are not self time");
        assert!(!t.contains_key("workloads"), "only trees under the named roots count");
    }

    #[test]
    fn nested_spans_record_their_parent_and_a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("bench.round", 1);
        let inner = tr.enter("processors.run", 1);
        tr.exit(inner);
        tr.exit(outer);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.spans()[0].start_ns <= tr.spans()[1].start_ns);
        assert!(tr.spans()[1].end_ns <= tr.spans()[0].end_ns);

        let mut off = Tracer::new(false);
        let o = off.enter("bench.round", 1);
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
