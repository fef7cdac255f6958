//! In-memory span recorder.
//!
//! A span is a named interval around one public call into a layer, with
//! the span that enclosed it and the op it belongs to. Spans stay in
//! memory while the benchmark runs and are written out as JSON lines at
//! exit; per-layer metrics are medians of span durations by name.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `magnum.step`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (or probe repetition) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans; a disabled tracer runs the closures and records
/// nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's epoch so merged
    /// spans share one time base.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs a workload's op `op`, inside a span on every other op of a
    /// traced run (the untraced half measures what tracing costs), and
    /// reports whether it was traced.
    pub fn op<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, bool) {
        if self.enabled && op.is_multiple_of(2) {
            (self.span(name, op, f), true)
        } else {
            (f(), false)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for op `op`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.nest(name, op, |_| f())
    }

    /// Runs `f` inside a span and also returns its wall time in ms
    /// (measured whether or not spans are recorded).
    pub fn timed<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = self.span(name, op, f);
        (out, start.elapsed().as_secs_f64() * 1e3)
    }

    /// Runs `f` inside a span whose body needs the tracer itself (for
    /// child spans).
    pub fn nest<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Appends another tracer's spans (re-basing their parent links).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `index` in ms: its duration minus the part its
    /// direct children cover.
    pub fn self_ms(&self, index: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let own = self.spans[index].end_ns - self.spans[index].start_ns;
        own.saturating_sub(children) as f64 / 1e6
    }

    /// Writes one JSON line per span, then one summary line per span
    /// name (count, total and self time).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut totals: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        let mut has_children = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_children[p] = true;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.op
            )?;
            let self_ms = if has_children[i] {
                self.self_ms(i)
            } else {
                s.ms()
            };
            let entry = totals.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.ms();
            entry.2 += self_ms;
        }
        for (name, (count, total, self_total)) in totals {
            writeln!(
                out,
                r#"{{"summary":"{name}","count":{count},"total_ms":{total:?},"self_ms":{self_total:?}}}"#
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.nest("outer", 7, |t| {
            t.span("inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.self_ms(0) < t.spans()[0].ms());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 3), 3);
        assert!(t.spans().is_empty());
    }
}
