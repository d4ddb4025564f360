//! The benchmark's own span recorder.
//!
//! Spans go around the calls the benchmark makes into a layer's public
//! function; nothing inside the program is instrumented. They are kept in
//! memory and written out at the end of the run. A span is either *in the
//! op's path* (the call the workload itself makes, or the op the front end
//! executed inside that call) or a *side probe* (a layer's own public entry
//! point timed on the same op's inputs, outside the op's path).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Front-end op id the span belongs to, if any.
    pub op: Option<u64>,
    /// `true` for side probes (outside the op's path).
    pub probe: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        op: Option<u64>,
        probe: bool,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            probe,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span and returns its id with `f`'s result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: Option<u64>,
        probe: bool,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start = self.now_ns();
        let value = f();
        let end = self.now_ns();
        (self.record(name, start, end, parent, op, probe), value)
    }

    /// Self time of every in-path span: its duration minus the part of its
    /// interval that its in-path children cover (children never overlap
    /// one another, since one thread makes every call).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.probe {
                continue;
            }
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let lo = span.start_ns.max(parent.start_ns);
                let hi = span.end_ns.min(parent.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| {
                if s.probe {
                    0
                } else {
                    s.dur_ns().saturating_sub(c)
                }
            })
            .collect()
    }

    /// Durations (ns) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Total self time (ns) per span name, in-path spans only.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            if !span.probe {
                *out.entry(span.name).or_insert(0) += own;
            }
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_times_ns();
        for (id, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{},\"op\":{},\"probe\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.op.map_or("null".to_string(), |o| o.to_string()),
                span.probe,
            )?;
        }
        out.flush()
    }
}
