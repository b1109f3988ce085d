//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory and written out when the workload ends.

use std::io::Write;
use std::time::Instant;

/// One timed call: what ran, when, under which span, for which op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `state.ingest`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Index of the op in the replayed stream; spans of one op share it.
    pub op: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for single-threaded replay.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for op `op`; spans opened by
    /// `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        result
    }

    /// Rename the most recently closed span (a call whose class is only
    /// known from its result, e.g. an ingest that turned out to retrain).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.name = name;
        }
    }

    /// Durations (ns) of every span called `name`, with the op each
    /// belongs to.
    pub fn durations(&self, name: &str) -> Vec<(usize, u64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.op, s.ns()))
            .collect()
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover. Children of one parent never overlap here (the
    /// replay is single-threaded), so that part is their sum.
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Cost of recording one empty span, in nanoseconds (median of many),
    /// so a reader can discount the spans.
    pub fn span_overhead_ns() -> f64 {
        let mut t = Tracer::new();
        for op in 0..20_000 {
            t.span("trace.empty", op, |_| {});
        }
        // The span's own duration misses the bookkeeping around it; the
        // distance between consecutive starts has all of it.
        let mut gaps: Vec<u64> = t
            .spans
            .windows(2)
            .map(|w| w[1].start_ns - w[0].start_ns)
            .collect();
        gaps.sort_unstable();
        gaps[gaps.len() / 2] as f64
    }

    /// Append every span as one JSON object per line.
    pub fn write_jsonl(&self, depth: &str, out: &mut impl Write) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"depth\":\"{depth}\",\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, self_ns[id]
            )?;
        }
        Ok(())
    }
}

/// Self time per span: duration minus the summed duration of its direct
/// children, saturating at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("extract", 10, 30, Some(0)),
            span("state.ingest", 30, 90, Some(0)),
            span("row", 40, 60, Some(2)),
        ];
        // op: 100 - (20 + 60); extract: leaf; state.ingest: 60 - 20; row: leaf.
        assert_eq!(self_times(&spans), vec![20, 20, 40, 20]);
    }

    #[test]
    fn children_never_make_self_time_negative() {
        let spans = vec![span("op", 0, 10, None), span("child", 0, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 15]);
    }

    #[test]
    fn nesting_records_parents_and_shared_op_ids() {
        let mut t = Tracer::new();
        t.span("op", 7, |t| {
            t.span("extract", 7, |_| {});
            t.span("state.ingest", 7, |_| {});
        });
        t.rename_last("state.checkpoint");
        t.span("op", 8, |_| {});
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("op", None, 7),
                ("extract", Some(0), 7),
                ("state.checkpoint", Some(0), 7),
                ("op", None, 8),
            ]
        );
        for (s, own) in t.spans.iter().zip(t.self_ns()) {
            assert!(s.end_ns >= s.start_ns);
            assert!(own <= s.ns());
        }
        let parent = &t.spans[0];
        for child in &t.spans[1..3] {
            assert!(child.start_ns >= parent.start_ns && child.end_ns <= parent.end_ns);
        }
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let mut t = Tracer::new();
        t.span("op", 1, |t| t.span("extract", 1, |_| {}));
        let mut out = Vec::new();
        t.write_jsonl("state", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = serde_json::parse_value(lines[1]).unwrap();
        assert_eq!(child.get("name").unwrap().as_str(), Some("extract"));
        assert_eq!(child.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(child.get("depth").unwrap().as_str(), Some("state"));
    }
}
