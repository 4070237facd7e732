//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! engine's public functions — name, start, end, parent, statement id — and
//! written out once, when the workload ends. A span's *self time* is its
//! duration minus the part of its interval that its children cover.

use crate::json;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one statement share this id.
    pub statement: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Recorder::end`].
    pub fn start(&mut self, name: &str, parent: Option<SpanId>, statement: u32) -> SpanId {
        let now = self.now_ns();
        self.add(name, parent, statement, now, now)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a span whose interval is already known (operator spans are
    /// rebuilt from `ExecStats` after the statement finished).
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        statement: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            statement,
        });
        self.spans.len() - 1
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        statement: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, parent, statement);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Self time of every span, indexed like [`Recorder::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Write the trace as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let self_ns = self.self_times_ns();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": {}, \"seed\": {seed}, \"unit\": \"ns\", \"spans\": [",
            json::string(workload)
        )?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"statement\": {}, \"parent\": {parent}, \
                 \"start\": {}, \"end\": {}, \"self\": {}}}{}",
                json::string(&span.name),
                span.statement,
                span.start_ns,
                span.end_ns,
                self_ns[id],
                if id + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Duration of each span minus the union of its children's intervals,
/// clipped to the span (children may overlap each other or stick out).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s".into(),
            start_ns: start,
            end_ns: end,
            parent,
            statement: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60 with grandchild 20..30; child 70..90.
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        // Self times of a well-nested tree add up to the root.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_protruding_children_count_their_union() {
        // Children 10..50 and 30..70 overlap; 90..130 sticks out of the root.
        let spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(90, 130, Some(0)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 60 - 10);
        assert_eq!(own[1], 40);
        assert_eq!(own[3], 40);
    }

    #[test]
    fn recorder_times_closures_and_keeps_parents() {
        let mut rec = Recorder::new();
        let root = rec.start("request", None, 7);
        let got = rec.time("stage", Some(root), 7, || 41 + 1);
        rec.end(root);
        assert_eq!(got, 42);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].statement, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
