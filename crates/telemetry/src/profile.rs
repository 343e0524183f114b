//! Critical-path convergence profiling over chaotic-runtime spans.
//!
//! A [`Profile`] consumes one chaotic segment's closed spans (from a
//! live [`crate::span::SpanTracer`] or re-parsed from
//! [`Event::SpanClosed`] JSONL) and answers "what bounds convergence?":
//!
//! * **Critical path** — walk backward from the terminal span (the
//!   announcing Safra circuit, or the latest span when the run was
//!   budget-cut) along `cause` edges to the initial injection. Every
//!   executed event has exactly one enabling predecessor, so the walk
//!   is deterministic, and because each path element is charged the
//!   half-open interval `(predecessor.end, self.end]` the per-element
//!   durations telescope to **exactly** the terminal virtual time: the
//!   compute/wire/wait breakdown sums to the total virtual wall-clock
//!   with integer precision (the CI gate checks this).
//! * **Attribution** — inside an element, time classifies by kind:
//!   [`SpanKind::PeerStep`] is compute; a [`SpanKind::LinkTransfer`]'s
//!   tail after its sender-side queueing is wire; everything else —
//!   coalescing holds, link queueing, inbox waits, Safra detection
//!   latency, and scheduling gaps between spans — is wait.
//! * **Link utilization/queueing** and **per-peer convergence lag**
//!   (how long delivered mass sat un-stepped) aggregate over all
//!   spans, not just the path.
//! * **Perfetto export** — [`chrome_trace`] renders segments as
//!   Chrome-trace-event JSON clocked on virtual time (µs), loadable in
//!   `ui.perfetto.dev` or `chrome://tracing`.

use crate::event::Event;
use crate::span::{step_fold_depths, SpanKind, SpanRec};
use crate::table::TextTable;
use serde::Value;

/// One element of the critical path, charged the half-open interval
/// `(from_ns, to_ns]` where `from_ns` is the predecessor's end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSegment {
    /// Id of the span this element is built from.
    pub span: u64,
    /// The span's kind.
    pub kind: SpanKind,
    /// Primary peer (see [`SpanRec::peer`]).
    pub peer: u32,
    /// Secondary peer (see [`SpanRec::peer2`]).
    pub peer2: u32,
    /// Interval start: the predecessor's end (0 at the path root).
    pub from_ns: u64,
    /// Interval end: this span's end.
    pub to_ns: u64,
    /// Nanoseconds attributed to compute.
    pub compute_ns: u64,
    /// Nanoseconds attributed to wire (serialization + propagation).
    pub wire_ns: u64,
    /// Nanoseconds attributed to waiting (holds, queueing, gaps,
    /// detection latency).
    pub wait_ns: u64,
    /// Frame provenance id the element rode (transfers; 0 otherwise).
    pub frame: u64,
}

impl PathSegment {
    /// The element's total charged time (`compute + wire + wait`).
    pub fn total_ns(&self) -> u64 {
        self.to_ns - self.from_ns
    }
}

/// Aggregate behaviour of one ordered link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStat {
    /// Sending peer.
    pub from: u32,
    /// Destination peer.
    pub to: u32,
    /// Payloads transferred.
    pub transfers: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total serialization + propagation nanoseconds.
    pub wire_ns: u64,
    /// Total sender-side store-and-forward queueing nanoseconds.
    pub queue_ns: u64,
    /// Worst single-payload queueing nanoseconds.
    pub max_queue_ns: u64,
}

/// Per-peer convergence lag: how long delivered rank mass sat
/// un-stepped in the peer's bounded inbox (rank staleness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerLag {
    /// The peer.
    pub peer: u32,
    /// Folded arrivals observed.
    pub arrivals: u64,
    /// Total inbox-wait nanoseconds across arrivals.
    pub wait_ns: u64,
    /// Worst single-arrival wait.
    pub max_wait_ns: u64,
    /// Un-stepped arrival-depth high-water mark.
    pub inbox_hwm: u64,
}

impl PeerLag {
    /// Mean inbox wait per arrival, nanoseconds.
    pub fn mean_wait_ns(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.wait_ns as f64 / self.arrivals as f64
        }
    }
}

/// The profile of one chaotic segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// The segment's spans, id `i + 1` at index `i`.
    pub spans: Vec<SpanRec>,
    /// Terminal virtual time: the latest span end — equal to the
    /// runtime's reported virtual wall-clock (the settle-phase Safra
    /// circuits close at exactly the final event time).
    pub virtual_ns: u64,
    /// Critical-path nanoseconds attributed to compute.
    pub compute_ns: u64,
    /// Critical-path nanoseconds attributed to wire.
    pub wire_ns: u64,
    /// Critical-path nanoseconds attributed to waiting.
    pub wait_ns: u64,
    /// The critical path, root (initial injection) first.
    pub path: Vec<PathSegment>,
    /// Per-link aggregates, busiest (most wire time) first.
    pub links: Vec<LinkStat>,
    /// Per-peer lag aggregates, highest mean wait first.
    pub peers: Vec<PeerLag>,
}

fn classify(s: &SpanRec, base: u64) -> (u64, u64, u64) {
    if s.end_ns <= base {
        return (0, 0, 0);
    }
    let eff = s.start_ns.max(base);
    let gap = eff - base;
    let inside = s.end_ns - eff;
    match s.kind {
        SpanKind::PeerStep => (inside, 0, gap),
        SpanKind::CoalesceWait | SpanKind::InboxWait | SpanKind::SafraProbe => (0, 0, gap + inside),
        SpanKind::LinkTransfer => {
            // Queueing occupies the span head; the wire part (tx +
            // propagation) is whatever of the tail the predecessor
            // did not already cover.
            let wire_begin = (s.start_ns + s.queue_ns).clamp(eff, s.end_ns);
            let wire = s.end_ns - wire_begin;
            (0, wire, gap + inside - wire)
        }
    }
}

impl Profile {
    /// Builds the profile of one segment from its spans (id = index+1).
    pub fn from_spans(spans: Vec<SpanRec>) -> Profile {
        let virtual_ns = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        // Terminal: latest end, ties broken by latest id — the
        // announcing Safra circuit when the run quiesced.
        let terminal = spans
            .iter()
            .enumerate()
            .max_by_key(|(i, s)| (s.end_ns, *i))
            .map(|(i, _)| i as u64 + 1);

        let mut path = Vec::new();
        let (mut compute, mut wire, mut wait) = (0u64, 0u64, 0u64);
        let mut cur = terminal.unwrap_or(0);
        let mut guard = spans.len() + 1;
        while cur != 0 && guard > 0 {
            guard -= 1;
            let s = &spans[cur as usize - 1];
            let base = if s.cause == 0 || s.cause >= cur {
                0
            } else {
                spans[s.cause as usize - 1].end_ns
            };
            // A consistent causal chain telescopes to `virtual_ns`;
            // an inconsistent one saturates and fails the check.
            let (c, w, q) = classify(s, base);
            compute = compute.saturating_add(c);
            wire = wire.saturating_add(w);
            wait = wait.saturating_add(q);
            path.push(PathSegment {
                span: cur,
                kind: s.kind,
                peer: s.peer,
                peer2: s.peer2,
                from_ns: base.min(s.end_ns),
                to_ns: s.end_ns,
                compute_ns: c,
                wire_ns: w,
                wait_ns: q,
                frame: s.frame,
            });
            cur = if s.cause >= cur { 0 } else { s.cause };
        }
        path.reverse();

        let mut links: Vec<LinkStat> = Vec::new();
        let mut link_index: std::collections::HashMap<(u32, u32), usize> =
            std::collections::HashMap::new();
        let mut peers: Vec<PeerLag> = Vec::new();
        let mut peer_index: std::collections::HashMap<u32, usize> =
            std::collections::HashMap::new();
        for s in &spans {
            match s.kind {
                SpanKind::LinkTransfer => {
                    let i = *link_index.entry((s.peer, s.peer2)).or_insert_with(|| {
                        links.push(LinkStat {
                            from: s.peer,
                            to: s.peer2,
                            transfers: 0,
                            bytes: 0,
                            wire_ns: 0,
                            queue_ns: 0,
                            max_queue_ns: 0,
                        });
                        links.len() - 1
                    });
                    let l = &mut links[i];
                    l.transfers += 1;
                    l.bytes = l.bytes.saturating_add(s.bytes);
                    l.wire_ns = l.wire_ns.saturating_add(s.duration_ns() - s.queue_ns);
                    l.queue_ns = l.queue_ns.saturating_add(s.queue_ns);
                    l.max_queue_ns = l.max_queue_ns.max(s.queue_ns);
                }
                SpanKind::InboxWait => {
                    let i = *peer_index.entry(s.peer).or_insert_with(|| {
                        peers.push(PeerLag {
                            peer: s.peer,
                            arrivals: 0,
                            wait_ns: 0,
                            max_wait_ns: 0,
                            inbox_hwm: 0,
                        });
                        peers.len() - 1
                    });
                    let p = &mut peers[i];
                    p.arrivals += 1;
                    p.wait_ns = p.wait_ns.saturating_add(s.duration_ns());
                    p.max_wait_ns = p.max_wait_ns.max(s.duration_ns());
                }
                _ => {}
            }
        }
        for (peer, depth) in step_fold_depths(&spans) {
            if let Some(&i) = peer_index.get(&peer) {
                peers[i].inbox_hwm = peers[i].inbox_hwm.max(depth);
            }
        }
        links.sort_by(|a, b| b.wire_ns.cmp(&a.wire_ns).then(a.from.cmp(&b.from)));
        peers.sort_by(|a, b| {
            b.mean_wait_ns()
                .partial_cmp(&a.mean_wait_ns())
                .unwrap()
                .then(a.peer.cmp(&b.peer))
        });

        Profile {
            spans,
            virtual_ns,
            compute_ns: compute,
            wire_ns: wire,
            wait_ns: wait,
            path,
            links,
            peers,
        }
    }

    /// Splits a JSONL event stream into chaotic segments (span ids
    /// restart at 1 per segment) and profiles each. Non-span events
    /// are ignored. Errors on non-dense ids, on a span that ends before
    /// it starts and on a span that queues longer than it lasts.
    pub fn segments_from_events(events: &[Event]) -> Result<Vec<Profile>, String> {
        let mut segments: Vec<Profile> = Vec::new();
        let mut cur: Vec<SpanRec> = Vec::new();
        for e in events {
            let Event::SpanClosed {
                span,
                kind,
                peer,
                peer2,
                start_ns,
                end_ns,
                queue_ns,
                bytes,
                frame,
                cause,
                consumed,
            } = e
            else {
                continue;
            };
            if *span <= cur.len() as u64 && !cur.is_empty() {
                segments.push(Profile::from_spans(std::mem::take(&mut cur)));
            }
            if *span != cur.len() as u64 + 1 {
                return Err(format!(
                    "non-dense span id {} after {} spans — corrupted trace",
                    span,
                    cur.len()
                ));
            }
            let Some(duration) = end_ns.checked_sub(*start_ns) else {
                return Err(format!(
                    "span {span} ends at {end_ns} ns, before it starts at {start_ns} ns \
                     — corrupted trace"
                ));
            };
            if *queue_ns > duration {
                return Err(format!(
                    "span {span} queues {queue_ns} ns, longer than its {duration} ns \
                     duration — corrupted trace"
                ));
            }
            cur.push(SpanRec {
                kind: *kind,
                peer: *peer,
                peer2: *peer2,
                start_ns: *start_ns,
                end_ns: *end_ns,
                queue_ns: *queue_ns,
                bytes: *bytes,
                frame: *frame,
                cause: *cause,
                consumed: *consumed,
            });
        }
        if !cur.is_empty() {
            segments.push(Profile::from_spans(cur));
        }
        Ok(segments)
    }

    /// Whether the critical-path breakdown telescopes exactly to the
    /// terminal virtual time (it must — any mismatch means the span
    /// stream is corrupt, and the CLI/CI treat it as an error).
    pub fn breakdown_is_exact(&self) -> bool {
        let sum = self.compute_ns.checked_add(self.wire_ns);
        sum.and_then(|s| s.checked_add(self.wait_ns)) == Some(self.virtual_ns)
    }

    /// Percent of the critical path spent in compute.
    pub fn compute_pct(&self) -> f64 {
        self.pct(self.compute_ns)
    }

    /// Percent of the critical path spent on the wire.
    pub fn wire_pct(&self) -> f64 {
        self.pct(self.wire_ns)
    }

    /// Percent of the critical path spent waiting.
    pub fn wait_pct(&self) -> f64 {
        self.pct(self.wait_ns)
    }

    fn pct(&self, ns: u64) -> f64 {
        if self.virtual_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / self.virtual_ns as f64
        }
    }

    /// The `k` largest critical-path elements by charged time.
    pub fn top_path(&self, k: usize) -> Vec<&PathSegment> {
        let mut v: Vec<&PathSegment> = self.path.iter().collect();
        v.sort_by(|a, b| b.total_ns().cmp(&a.total_ns()).then(a.span.cmp(&b.span)));
        v.truncate(k);
        v
    }

    /// Steps on the segment's timeline.
    pub fn steps(&self) -> u64 {
        self.count(SpanKind::PeerStep)
    }

    /// Link transfers on the segment's timeline.
    pub fn transfers(&self) -> u64 {
        self.count(SpanKind::LinkTransfer)
    }

    fn count(&self, kind: SpanKind) -> u64 {
        self.spans.iter().filter(|s| s.kind == kind).count() as u64
    }

    /// One-row summary table of the breakdown.
    pub fn render_breakdown(&self) -> String {
        let mut t = TextTable::new([
            "virtual_ms",
            "compute%",
            "wire%",
            "wait%",
            "path_len",
            "steps",
            "transfers",
            "spans",
        ]);
        t.push([
            ms(self.virtual_ns),
            pct(self.compute_pct()),
            pct(self.wire_pct()),
            pct(self.wait_pct()),
            self.path.len().to_string(),
            self.steps().to_string(),
            self.transfers().to_string(),
            self.spans.len().to_string(),
        ]);
        t.render()
    }

    /// Top-`k` critical-path elements table.
    pub fn render_path(&self, k: usize) -> String {
        let mut t = TextTable::new([
            "span",
            "kind",
            "peer",
            "peer2",
            "at_ms",
            "total_ms",
            "compute_ms",
            "wire_ms",
            "wait_ms",
            "frame",
        ]);
        for s in self.top_path(k) {
            t.push([
                s.span.to_string(),
                s.kind.as_str().to_string(),
                s.peer.to_string(),
                s.peer2.to_string(),
                ms(s.from_ns),
                ms(s.total_ns()),
                ms(s.compute_ns),
                ms(s.wire_ns),
                ms(s.wait_ns),
                s.frame.to_string(),
            ]);
        }
        t.render()
    }

    /// Top-`k` busiest links table (utilization = wire time over the
    /// segment's virtual wall-clock).
    pub fn render_links(&self, k: usize) -> String {
        let mut t = TextTable::new([
            "link",
            "transfers",
            "kib",
            "wire_ms",
            "util%",
            "queue_ms",
            "max_queue_ms",
        ]);
        for l in self.links.iter().take(k) {
            t.push([
                format!("{}->{}", l.from, l.to),
                l.transfers.to_string(),
                format!("{:.1}", l.bytes as f64 / 1024.0),
                ms(l.wire_ns),
                pct(self.pct(l.wire_ns)),
                ms(l.queue_ns),
                ms(l.max_queue_ns),
            ]);
        }
        t.render()
    }

    /// Top-`k` laggiest peers table (mean un-stepped wait of
    /// delivered rank mass — the rank-staleness metric).
    pub fn render_peer_lag(&self, k: usize) -> String {
        let mut t = TextTable::new([
            "peer",
            "arrivals",
            "mean_wait_ms",
            "max_wait_ms",
            "inbox_hwm",
        ]);
        for p in self.peers.iter().take(k) {
            t.push([
                p.peer.to_string(),
                p.arrivals.to_string(),
                format!("{:.3}", p.mean_wait_ns() / 1e6),
                ms(p.max_wait_ns),
                p.inbox_hwm.to_string(),
            ]);
        }
        t.render()
    }

    fn trace_events(&self, t_off: u64, id_off: u64, out: &mut Vec<Value>) {
        let us = |ns: u64| Value::F64((t_off + ns) as f64 / 1000.0);
        let dur_us = |ns: u64| Value::F64(ns as f64 / 1000.0);
        for (i, s) in self.spans.iter().enumerate() {
            let id = id_off + i as u64 + 1;
            let args = |extra: Vec<(String, Value)>| {
                let mut a = vec![
                    ("span".to_string(), Value::U64(id)),
                    ("cause".to_string(), Value::U64(s.cause)),
                ];
                a.extend(extra);
                Value::Object(a)
            };
            match s.kind {
                SpanKind::PeerStep | SpanKind::CoalesceWait | SpanKind::SafraProbe => {
                    let (pid, tid, name, cat) = match s.kind {
                        SpanKind::PeerStep => (0, s.peer, "step", "compute"),
                        SpanKind::CoalesceWait => (0, s.peer, "coalesce", "wait"),
                        _ => (
                            3,
                            0,
                            if s.peer2 == 1 { "announce" } else { "probe" },
                            "wait",
                        ),
                    };
                    out.push(Value::Object(vec![
                        ("name".to_string(), Value::Str(name.to_string())),
                        ("cat".to_string(), Value::Str(cat.to_string())),
                        ("ph".to_string(), Value::Str("X".to_string())),
                        ("ts".to_string(), us(s.start_ns)),
                        ("dur".to_string(), dur_us(s.duration_ns())),
                        ("pid".to_string(), Value::U64(pid)),
                        ("tid".to_string(), Value::U64(tid as u64)),
                        ("args".to_string(), args(vec![])),
                    ]));
                }
                // Transfers and inbox waits overlap on one track, so
                // they export as async begin/end pairs.
                SpanKind::LinkTransfer | SpanKind::InboxWait => {
                    let (pid, name, cat) = if s.kind == SpanKind::LinkTransfer {
                        (1, "frame", "wire")
                    } else {
                        (2, "inbox", "wait")
                    };
                    let extra = vec![
                        ("from".to_string(), Value::U64(s.peer as u64)),
                        ("to".to_string(), Value::U64(s.peer2 as u64)),
                        ("bytes".to_string(), Value::U64(s.bytes)),
                        ("frame".to_string(), Value::U64(s.frame)),
                        ("queue_ns".to_string(), Value::U64(s.queue_ns)),
                    ];
                    for (ph, ts) in [("b", s.start_ns), ("e", s.end_ns)] {
                        out.push(Value::Object(vec![
                            ("name".to_string(), Value::Str(name.to_string())),
                            ("cat".to_string(), Value::Str(cat.to_string())),
                            ("ph".to_string(), Value::Str(ph.to_string())),
                            ("ts".to_string(), us(ts)),
                            ("pid".to_string(), Value::U64(pid)),
                            ("tid".to_string(), Value::U64(s.peer as u64)),
                            ("id".to_string(), Value::U64(id)),
                            ("args".to_string(), args(extra.clone())),
                        ]));
                    }
                }
            }
        }
    }
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn pct(p: f64) -> String {
    format!("{p:.1}")
}

/// Renders segments as one Chrome-trace-event JSON document clocked on
/// virtual time (µs), with a 1 ms gutter between segments. Loadable in
/// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
pub fn chrome_trace(segments: &[Profile]) -> Value {
    let mut events: Vec<Value> = Vec::new();
    for (pid, name) in [(0, "peers"), (1, "links"), (2, "inboxes"), (3, "safra")] {
        events.push(Value::Object(vec![
            ("name".to_string(), Value::Str("process_name".to_string())),
            ("ph".to_string(), Value::Str("M".to_string())),
            ("pid".to_string(), Value::U64(pid)),
            ("tid".to_string(), Value::U64(0)),
            (
                "args".to_string(),
                Value::Object(vec![("name".to_string(), Value::Str(name.to_string()))]),
            ),
        ]));
    }
    let mut t_off = 0u64;
    let mut id_off = 0u64;
    for seg in segments {
        seg.trace_events(t_off, id_off, &mut events);
        t_off += seg.virtual_ns + 1_000_000;
        id_off += seg.spans.len() as u64;
    }
    Value::Object(vec![
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ("traceEvents".to_string(), Value::Array(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::NOOP;
    use crate::span::SpanTracer;

    /// A two-peer exchange: seed step at 1 → frame → hold → step at 0
    /// → settle probe.
    fn tracer_spans() -> Vec<SpanRec> {
        let mut tr = SpanTracer::new(2, true);
        tr.on_step_scheduled(1, 0);
        tr.on_step_executed(1, 100, 100, &NOOP); // span 1: compute [0,100]
        tr.on_send(7, 1, 0, 64, 100, 150);
        tr.on_deliver(1, 0, 500, &NOOP); // span 2: link [100,500] q=50
        tr.on_step_scheduled(0, 500);
        tr.on_step_executed(0, 800, 100, &NOOP); // 3: hold [500,700], 4: step [700,800], 5: inbox
        tr.on_probe(820, true, &NOOP); // span 6: probe [0? -> last_probe_end=0 min 820]
        tr.finish(820, &NOOP);
        tr.into_spans()
    }

    #[test]
    fn critical_path_telescopes_exactly() {
        let p = Profile::from_spans(tracer_spans());
        assert_eq!(p.virtual_ns, 820);
        assert!(p.breakdown_is_exact(), "{p:?}");
        // probe(cause=step0) <- step0 <- hold <- link <- step1 <- seed
        let kinds: Vec<SpanKind> = p.path.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::PeerStep,
                SpanKind::LinkTransfer,
                SpanKind::CoalesceWait,
                SpanKind::PeerStep,
                SpanKind::SafraProbe,
            ]
        );
        assert_eq!(p.compute_ns, 200);
        // Link element covers (100, 500]: 50 queue wait + 350 wire.
        assert_eq!(p.wire_ns, 350);
        assert_eq!(p.wait_ns, 820 - 200 - 350);
        assert_eq!(p.path.iter().map(PathSegment::total_ns).sum::<u64>(), 820);
    }

    #[test]
    fn aggregates_cover_links_and_peers() {
        let p = Profile::from_spans(tracer_spans());
        assert_eq!(p.links.len(), 1);
        let l = p.links[0];
        assert_eq!((l.from, l.to, l.transfers, l.bytes), (1, 0, 1, 64));
        assert_eq!((l.wire_ns, l.queue_ns, l.max_queue_ns), (350, 50, 50));
        assert_eq!(p.peers.len(), 1);
        let lag = p.peers[0];
        assert_eq!((lag.peer, lag.arrivals, lag.inbox_hwm), (0, 1, 1));
        assert_eq!((lag.wait_ns, lag.max_wait_ns), (300, 300));
        assert_eq!((p.steps(), p.transfers()), (2, 1));
        assert!(p.render_breakdown().contains("compute%"));
        assert!(p.render_path(10).contains("link_transfer"));
        assert!(p.render_links(5).contains("1->0"));
        assert!(p.render_peer_lag(5).contains("inbox_hwm"));
    }

    #[test]
    fn empty_profile_is_degenerate_but_exact() {
        let p = Profile::from_spans(Vec::new());
        assert_eq!(p.virtual_ns, 0);
        assert!(p.breakdown_is_exact());
        assert!(p.path.is_empty());
        assert_eq!(p.compute_pct(), 0.0);
    }

    #[test]
    fn segments_split_on_id_restart_and_roundtrip_through_events() {
        let spans = tracer_spans();
        let tr = crate::recorder::TraceRecorder::new();
        let emit = |spans: &[SpanRec]| {
            for (id, s) in (1..).zip(spans) {
                tr.event(&s.closed_event(id));
            }
        };
        emit(&spans);
        emit(&spans);
        use crate::recorder::Recorder;
        let events = tr.events();
        let segs = Profile::segments_from_events(&events).unwrap();
        assert_eq!(segs.len(), 2);
        for seg in &segs {
            assert_eq!(seg.spans, spans);
            assert!(seg.breakdown_is_exact());
        }
        let doc = chrome_trace(&segs);
        let evs = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 4 metadata + per segment: 2 steps + 1 hold + 1 probe as X,
        // 1 link + 1 inbox as b/e pairs.
        assert_eq!(evs.len(), 4 + 2 * (4 + 2 * 2));
        let json = serde_json::to_string(&doc).unwrap();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"b\""));
    }

    #[test]
    fn rejects_non_dense_ids() {
        let e = Event::SpanClosed {
            span: 3,
            kind: SpanKind::PeerStep,
            peer: 0,
            peer2: 0,
            start_ns: 0,
            end_ns: 1,
            queue_ns: 0,
            bytes: 0,
            frame: 0,
            cause: 0,
            consumed: 0,
        };
        assert!(Profile::segments_from_events(&[e]).is_err());
    }

    #[test]
    fn rejects_reversed_and_overqueued_spans_by_name() {
        let span = |start_ns, end_ns, queue_ns| Event::SpanClosed {
            span: 1,
            kind: SpanKind::LinkTransfer,
            peer: 0,
            peer2: 1,
            start_ns,
            end_ns,
            queue_ns,
            bytes: 64,
            frame: 1,
            cause: 0,
            consumed: 0,
        };
        let err = Profile::segments_from_events(&[span(100, 50, 0)]).unwrap_err();
        assert!(
            err.contains("span 1 ends at 50 ns, before it starts at 100"),
            "{err}"
        );
        let err = Profile::segments_from_events(&[span(100, 150, 51)]).unwrap_err();
        assert!(
            err.contains("span 1 queues 51 ns, longer than its 50 ns"),
            "{err}"
        );
        assert!(Profile::segments_from_events(&[span(100, 150, 50)]).is_ok());
    }
}
