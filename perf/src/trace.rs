//! The benchmark's own span tracer.
//!
//! Spans are recorded from `perf/` only, around calls into public
//! functions of the crates under test; nothing inside those crates is
//! instrumented. Spans and counts stay in memory and are written out
//! once, when the workload ends. A disabled tracer records nothing, so
//! end-to-end numbers (always taken with tracing off) pay one branch
//! per boundary.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Per-name aggregate over a trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` under a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// [`Tracer::span`] that also hands back the elapsed nanoseconds,
    /// measured whether or not the tracer records.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = self.span(name, f);
        (out, t.elapsed().as_nanos() as f64)
    }

    /// Adds to a count recorded at the same boundary as the spans.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += delta;
        }
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let d = s.end_ns - s.start_ns;
                own[p as usize] = own[p as usize].saturating_sub(d);
            }
        }
        own
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_ns();
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += own_ns;
        }
        by_name
    }

    /// The whole trace as JSON: every span with its parent and self
    /// time, the per-name totals, and the counts.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(i, (s, &self_ns))| {
                Value::Object(vec![
                    ("id".into(), Value::U64(i as u64)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("workload".into(), Value::Str(workload.into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p.into())),
                    ),
                    ("self_ns".into(), Value::U64(self_ns)),
                ])
            })
            .collect();
        let by_name = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("count".into(), Value::U64(t.count)),
                        ("total_ns".into(), Value::U64(t.total_ns)),
                        ("self_ns".into(), Value::U64(t.self_ns)),
                    ]),
                )
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, &v)| (k.to_string(), Value::U64(v)))
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::U64(seed)),
            ("by_name".into(), Value::Object(by_name)),
            ("counts".into(), Value::Object(counts)),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer");
        tr.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.span("inner", || ());
        tr.exit(outer);
        tr.count("things", 3);
        let t = tr.totals();
        assert_eq!(t["inner"].count, 2);
        assert_eq!(t["outer"].count, 1);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
        assert_eq!(tr.spans[1].parent, Some(0));
        let json = tr.to_json("w", 1);
        assert_eq!(json["counts"]["things"].as_u64(), Some(3));
        assert_eq!(json["spans"].as_array().unwrap().len(), 3);

        let mut off = Tracer::new(false);
        let id = off.enter("x");
        off.exit(id);
        off.count("things", 1);
        assert!(off.spans.is_empty() && off.totals().is_empty());
    }
}
