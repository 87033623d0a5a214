//! The traced run's span recorder. Spans are taken in the benchmark's own
//! code around each call into a layer's public function; they stay in
//! memory and are folded into per-layer self times when the run ends.
//!
//! The traced replays are single-threaded, so spans nest strictly and a
//! span's self time is its duration minus its direct children's. The
//! spans themselves are written out when the run ends ([`Tracer::write`]).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer span name, e.g. `pipeline.sim`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (cell) this span belongs to.
    pub request: u64,
}

/// In-memory span and counter sink for one traced replay.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
    /// Request id stamped on new spans.
    pub request: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_named(|_| name, f)
    }

    /// Times `f` and names the span from its result: for calls whose layer
    /// is only known afterwards (a store call that hit, loaded or built).
    pub fn span_named<R>(
        &mut self,
        name: impl FnOnce(&R) -> &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            name: "",
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let end = self.now();
        let span = &mut self.spans[index];
        span.end = end;
        span.name = name(&out);
        out
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    /// Raises the counter `name` to at least `value`.
    pub fn count_max(&mut self, name: &'static str, value: f64) {
        let slot = self.counts.entry(name).or_insert(0.0);
        *slot = slot.max(value);
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Writes every span as one tab-separated line (`name start_ns end_ns
    /// parent request`; parent `-` for a root span).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest")?;
        for span in &self.spans {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}",
                span.name, span.start, span.end, span.request
            )?;
        }
        out.flush()
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_nanos(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child[parent] += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let own = (span.end - span.start).saturating_sub(child[i]);
            *out.entry(span.name).or_insert(0) += own;
        }
        out
    }

    /// Nanoseconds of `[from, to)` (tracer clock) that no root span covers.
    pub fn uncovered_nanos(&self, from: u64, to: u64) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start >= from && s.end <= to)
            .map(|s| s.end - s.start)
            .sum();
        (to - from).saturating_sub(covered)
    }

    /// The tracer clock, for bracketing a replay.
    pub fn clock(&self) -> u64 {
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(4));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(6))
            });
        });
        let selfs = t.self_nanos();
        assert!(selfs["inner"] >= 6_000_000);
        assert!(selfs["outer"] >= 4_000_000 && selfs["outer"] < 6_000_000);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn late_names_come_from_the_result() {
        let mut t = Tracer::new();
        let hit = t.span_named(
            |hit: &bool| if *hit { "store.lookup" } else { "build" },
            |_| true,
        );
        assert!(hit);
        assert_eq!(t.spans[0].name, "store.lookup");
    }
}
