//! The [`Recorder`] sink trait, its no-op default, and the real
//! [`TraceRecorder`].
//!
//! Instrumented call sites are generic over `R: Recorder` (hot loops)
//! or hold a `&dyn Recorder` / `Arc<dyn Recorder>` (long-lived
//! structs). With [`NoopRecorder`] every method is an empty inlineable
//! body and `enabled()` is a constant `false`, so guarded blocks fold
//! away entirely — the zero-perturbation contract the differential
//! tests assert.

use crate::counter::Counter;
use crate::event::Event;
use crate::hist::Histogram;
use crate::metric::{Metric, MetricKind};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// A telemetry sink. All methods take `&self`: one recorder is shared
/// by every component of a run that holds a handle to it.
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything. Call sites guard
    /// non-trivial event construction (residual scans, timestamp
    /// reads) on this.
    fn enabled(&self) -> bool {
        false
    }

    /// Whether this recorder keeps per-event detail: spans, one event
    /// per payload, per-step and per-send metrics. Producers that run
    /// O(events) times guard on this; once-per-round, per-probe and
    /// per-audit producers guard on [`enabled`](Self::enabled).
    fn detailed(&self) -> bool {
        self.enabled()
    }

    /// Records a structured event.
    fn event(&self, _event: &Event) {}

    /// Adds to a counter metric.
    fn counter_add(&self, _metric: Metric, _delta: u64) {}

    /// Records one observation into a histogram metric.
    fn observe(&self, _metric: Metric, _value: u64) {}
}

/// The recorder that records nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A shared no-op instance for call sites that want a `&'static dyn`.
pub static NOOP: NoopRecorder = NoopRecorder;

/// The real sink: striped counters and atomic histograms for every
/// registered [`Metric`], an in-memory event aggregate, and an
/// optional JSONL file the events stream to as they happen.
pub struct TraceRecorder {
    counters: Vec<Counter>,
    histograms: Vec<Histogram>,
    events: Mutex<Vec<Event>>,
    sink: Option<Mutex<BufWriter<File>>>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("events", &self.events.lock().unwrap().len())
            .field("has_sink", &self.sink.is_some())
            .finish()
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// An in-memory recorder (no trace file).
    pub fn new() -> Self {
        TraceRecorder {
            counters: Metric::ALL.iter().map(|_| Counter::new()).collect(),
            histograms: Metric::ALL.iter().map(|_| Histogram::new()).collect(),
            events: Mutex::new(Vec::new()),
            sink: None,
        }
    }

    /// A recorder that additionally streams every event as one JSON
    /// line to `path` (truncating any existing file).
    pub fn with_jsonl(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        let mut rec = TraceRecorder::new();
        rec.sink = Some(Mutex::new(BufWriter::new(file)));
        Ok(rec)
    }

    /// Current value of a counter metric.
    ///
    /// # Panics
    ///
    /// Panics if `metric` is a histogram.
    pub fn counter(&self, metric: Metric) -> u64 {
        assert_eq!(metric.kind(), MetricKind::Counter, "{metric:?}");
        self.counters[metric.index()].get()
    }

    /// The histogram behind a histogram metric.
    ///
    /// # Panics
    ///
    /// Panics if `metric` is a counter.
    pub fn histogram(&self, metric: Metric) -> &Histogram {
        assert_eq!(metric.kind(), MetricKind::Histogram, "{metric:?}");
        &self.histograms[metric.index()]
    }

    /// A copy of every event recorded so far, in order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Renders the Prometheus text-format snapshot of all metrics.
    pub fn prometheus_text(&self) -> String {
        crate::prom::render(self)
    }

    /// Flushes the JSONL sink (no-op for in-memory recorders).
    pub fn flush(&self) -> io::Result<()> {
        if let Some(sink) = &self.sink {
            sink.lock().unwrap().flush()?;
        }
        Ok(())
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, event: &Event) {
        self.counters[Metric::EventsRecorded.index()].add(1);
        if let Some(sink) = &self.sink {
            let line = serde_json::to_string(event).expect("event serializes");
            let mut w = sink.lock().unwrap();
            // Trace IO failure must not abort the computation being
            // observed; the flush() at the end surfaces it.
            let _ = writeln!(w, "{line}");
        }
        self.events.lock().unwrap().push(event.clone());
    }

    fn counter_add(&self, metric: Metric, delta: u64) {
        debug_assert_eq!(metric.kind(), MetricKind::Counter, "{metric:?}");
        self.counters[metric.index()].add(delta);
    }

    fn observe(&self, metric: Metric, value: u64) {
        debug_assert_eq!(metric.kind(), MetricKind::Histogram, "{metric:?}");
        self.histograms[metric.index()].observe(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        r.event(&Event::DocInserted { seq: 1, doc: 2 });
        r.counter_add(Metric::RemoteUpdates, 5);
        r.observe(Metric::RouteHops, 3);
    }

    #[test]
    fn trace_recorder_accumulates() {
        let r = TraceRecorder::new();
        assert!(r.enabled());
        r.counter_add(Metric::RemoteUpdates, 2);
        r.counter_add(Metric::RemoteUpdates, 3);
        r.observe(Metric::RouteHops, 4);
        r.event(&Event::DocInserted { seq: 1, doc: 9 });
        assert_eq!(r.counter(Metric::RemoteUpdates), 5);
        assert_eq!(r.histogram(Metric::RouteHops).count(), 1);
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.counter(Metric::EventsRecorded), 1);
    }

    #[test]
    fn jsonl_sink_streams_valid_events() {
        let path = std::env::temp_dir().join(format!("dpr-telemetry-{}.jsonl", std::process::id()));
        let r = TraceRecorder::with_jsonl(&path).unwrap();
        r.event(&Event::DocInserted { seq: 1, doc: 7 });
        r.event(&Event::PeerChurn {
            round: 2,
            peer: 3,
            online: true,
        });
        r.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let events = crate::summary::parse_jsonl(&text).unwrap();
        assert_eq!(events, r.events());
        std::fs::remove_file(&path).unwrap();
    }
}
