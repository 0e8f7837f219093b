//! Spans: what the harness called, when, and under which caller.
//!
//! Recorded from the benchmark's own files around its calls into each
//! layer's public functions — nothing inside the program is instrumented.
//! Spans stay in memory and are written once, at exit. A disabled tracer
//! (every end-to-end measurement) is one predictable branch per call
//! site and records nothing.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call (or, for sub-microsecond functions driven in
/// isolation, `calls` back-to-back calls timed as one).
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same file, if any.
    pub parent: Option<usize>,
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Span recorder for one workload.
pub struct Tracer {
    on: bool,
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            workload: "",
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer; spans carry `workload`.
    pub fn on(workload: &'static str) -> Self {
        Tracer {
            on: true,
            workload,
            ..Tracer::off()
        }
    }

    /// The workload the spans carry (`""` when off).
    pub fn workload(&self) -> &'static str {
        self.workload
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; spans opened before [`Tracer::close`] become its
    /// children. Returns what `close` needs (`None` when off).
    pub fn open(&mut self, name: &'static str, calls: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            calls,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `open` returned (the innermost one still open).
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
            self.open.pop();
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`; spans `f` opens through the
    /// tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.calls(name, 1, f)
    }

    /// [`Tracer::span`] around `calls` back-to-back calls.
    pub fn calls<T>(
        &mut self,
        name: &'static str,
        calls: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.open(name, calls);
        let out = f(self);
        self.close(id);
        out
    }

    /// Every closed span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Append every span to `path` as one JSON object per line.
    pub fn append_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{}\",\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, self.workload, s.calls
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_off_records_nothing() {
        let mut tr = Tracer::on("w");
        let v = tr.span("outer", |tr| {
            tr.span("inner", |_| 1) + tr.calls("drive", 64, |_| 2)
        });
        assert_eq!(v, 3);
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(0));
        assert_eq!(tr.spans[2].calls, 64);
        assert!(tr.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(tr.named("inner").count(), 1);

        let mut off = Tracer::off();
        assert_eq!(off.span("x", |tr| tr.span("y", |_| 5)), 5);
        assert_eq!(off.len(), 0);
    }
}
