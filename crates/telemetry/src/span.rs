//! Virtual-time causal spans for the chaotic (event-driven) runtime.
//!
//! The discrete-event runtime gives every action a principled duration
//! (the Eq. 4 exec model: compute time per step, serialization + base
//! latency per link transfer, coalescing holds under priority
//! scheduling). This module turns those durations into a causal span
//! model:
//!
//! * [`SpanKind::PeerStep`] — one local pass at a peer, `compute_ns`
//!   wide, ending at the `Step` event's virtual time;
//! * [`SpanKind::CoalesceWait`] — the residual-driven hold between a
//!   step being requested and its compute beginning (priority
//!   scheduling only; saturation forfeits it);
//! * [`SpanKind::LinkTransfer`] — one frame on one ordered link, from
//!   outbox emission to arrival, with the sender-side store-and-forward
//!   queueing recorded in `queue_ns`;
//! * [`SpanKind::InboxWait`] — a delivered frame waiting, folded but
//!   un-stepped, until the destination's next step consumes it;
//! * [`SpanKind::SafraProbe`] — one termination-token circuit.
//!
//! Causality travels in two fields: `cause` names the span whose
//! completion *scheduled* this one (the step that emitted a frame, the
//! delivery that requested a step, the coalesce hold that preceded a
//! compute), and — for inbox waits only — `consumed` names the
//! [`SpanKind::PeerStep`] span that finally folded the frame's mass
//! into an advertisement. Together they encode the ISSUE's edge "the
//! frame emitted by step S at peer A is consumed by step T at peer B"
//! as `S ← link ← inbox → T` without a separate edge table.
//!
//! The tracer is a pure observer: it never touches the event queue,
//! the clock, or any node state, so a traced run executes the exact
//! same schedule (`schedule_fnv`) and reaches bit-identical ranks —
//! the zero-perturbation property `tests/profile_differential.rs`
//! asserts. Span ids are dense (`1..=n`, assigned at close, in close
//! order), which is what lets [`crate::profile::Profile`] split
//! multi-segment traces and walk causal chains with plain indexing.

use crate::event::Event;
use crate::metric::Metric;
use crate::recorder::Recorder;
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::{HashMap, VecDeque};

/// The five span kinds of the chaotic runtime's virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One local pass (compute) at a peer.
    PeerStep,
    /// A priority-scheduling coalescing hold before a step's compute.
    CoalesceWait,
    /// One payload traversing one ordered link (queue + tx + prop).
    LinkTransfer,
    /// A folded-but-unstepped arrival waiting for its consuming step.
    InboxWait,
    /// One Safra termination-token circuit.
    SafraProbe,
}

impl SpanKind {
    /// The wire form used in [`Event::SpanClosed`]'s `kind` field.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::PeerStep => "peer_step",
            SpanKind::CoalesceWait => "coalesce_wait",
            SpanKind::LinkTransfer => "link_transfer",
            SpanKind::InboxWait => "inbox_wait",
            SpanKind::SafraProbe => "safra_probe",
        }
    }
}

impl Serialize for SpanKind {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for SpanKind {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_str().ok_or_else(|| Error::custom("expected string"))? {
            "peer_step" => Ok(SpanKind::PeerStep),
            "coalesce_wait" => Ok(SpanKind::CoalesceWait),
            "link_transfer" => Ok(SpanKind::LinkTransfer),
            "inbox_wait" => Ok(SpanKind::InboxWait),
            "safra_probe" => Ok(SpanKind::SafraProbe),
            other => Err(Error::custom(format!("unknown span kind {other:?}"))),
        }
    }
}

/// One closed span. Ids are implicit: a span stored at index `i` of a
/// tracer (or segment) has id `i + 1`; id `0` is the "no predecessor"
/// sentinel in `cause`/`consumed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    /// Span kind.
    pub kind: SpanKind,
    /// Primary peer: the stepping peer, a transfer's sender, an inbox
    /// wait's destination. For [`SpanKind::SafraProbe`], 0.
    pub peer: u32,
    /// Secondary peer: a transfer's destination, an inbox wait's
    /// sender. For probes: 1 if this circuit announced termination,
    /// else 0. Equals `peer` for step/coalesce spans.
    pub peer2: u32,
    /// Virtual start time in nanoseconds.
    pub start_ns: u64,
    /// Virtual end time in nanoseconds (`>= start_ns`).
    pub end_ns: u64,
    /// Transfers only: sender-side store-and-forward queueing at the
    /// head of the span (the link was still transmitting an earlier
    /// payload). Always `<= end_ns - start_ns`.
    pub queue_ns: u64,
    /// Transfers only: payload bytes on the wire.
    pub bytes: u64,
    /// Transfers and inbox waits: the cluster-wide frame provenance id
    /// stamped by `step_peer_observed` (0 when unknown).
    pub frame: u64,
    /// Id of the span whose completion scheduled this one (0 = run
    /// seed). Always a lower id: causal `cause` edges are acyclic by
    /// construction.
    pub cause: u64,
    /// Inbox waits only: id of the [`SpanKind::PeerStep`] span that
    /// consumed the waiting frame (0 = never consumed, e.g. the run's
    /// final cancellation left the mass inert). The step closes before
    /// its inbox waits, so `consumed < id` holds as well.
    pub consumed: u64,
}

impl SpanRec {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// This span as the [`Event::SpanClosed`] with id `span`.
    pub fn closed_event(&self, span: u64) -> Event {
        Event::SpanClosed {
            span,
            kind: self.kind,
            peer: self.peer,
            peer2: self.peer2,
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            queue_ns: self.queue_ns,
            bytes: self.bytes,
            frame: self.frame,
            cause: self.cause,
            consumed: self.consumed,
        }
    }
}

/// A scheduled-but-unexecuted step request (pairs with the runtime's
/// lazy-deletion `step_due` slot: only the authoritative request is
/// retained).
#[derive(Debug, Clone, Copy)]
struct StepSched {
    req_ns: u64,
    cause: u64,
}

/// A payload on the wire, pushed at `schedule_delivery` and popped at
/// the matching `Deliver` execution. Per-link arrivals are monotone
/// (store-and-forward), so a FIFO per ordered link aligns 1:1 with the
/// runtime's own delivery order — including displaced (lost-frame)
/// deliveries, which still pop.
#[derive(Debug, Clone, Copy)]
struct Flight {
    frame: u64,
    emit_ns: u64,
    depart_ns: u64,
    bytes: u64,
    cause: u64,
}

/// A folded arrival waiting for its consuming step.
#[derive(Debug, Clone, Copy)]
struct ArrivalRec {
    arrival_ns: u64,
    from: u32,
    link_span: u64,
    frame: u64,
}

/// The span observer the chaotic runtime drives. All methods are pure
/// state updates — the tracer reads the schedule, never shapes it —
/// and each span goes to the closing method's `rec` as it closes, so
/// the tracer holds only open state unless it retains. The closing
/// methods stay out of line: inlined, their code slowed the untraced
/// event loop that skips them by ≈4 % (`chaotic_async`, 2-vCPU x86-64).
#[derive(Debug)]
pub struct SpanTracer {
    /// The closed spans, kept only by a retaining tracer.
    spans: Option<Vec<SpanRec>>,
    /// Spans closed so far: the id of the latest.
    closed: u64,
    coalesce_hits: u64,
    max_inbox_depth: u64,
    sched: Vec<Option<StepSched>>,
    pending: Vec<Vec<ArrivalRec>>,
    in_flight: HashMap<(u32, u32), VecDeque<Flight>>,
    /// Span id of the event currently executing (0 while seeding).
    cur: u64,
    /// Most recent step/transfer span — what an announcing probe's
    /// `cause` points at (detection latency is the gap between them).
    last_work: u64,
    last_probe_end: u64,
}

impl SpanTracer {
    /// A tracer for a run over `num_peers` peers; with `retain` it also
    /// keeps every closed span for [`SpanTracer::into_spans`].
    pub fn new(num_peers: usize, retain: bool) -> Self {
        SpanTracer {
            spans: retain.then(Vec::new),
            closed: 0,
            coalesce_hits: 0,
            max_inbox_depth: 0,
            sched: vec![None; num_peers],
            pending: vec![Vec::new(); num_peers],
            in_flight: HashMap::new(),
            cur: 0,
            last_work: 0,
            last_probe_end: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push<R: Recorder + ?Sized>(
        &mut self,
        rec: &R,
        kind: SpanKind,
        peer: u32,
        peer2: u32,
        start_ns: u64,
        end_ns: u64,
        queue_ns: u64,
        bytes: u64,
        frame: u64,
        cause: u64,
        consumed: u64,
    ) -> u64 {
        let span = SpanRec {
            kind,
            peer,
            peer2,
            start_ns: start_ns.min(end_ns),
            end_ns,
            queue_ns,
            bytes,
            frame,
            cause,
            consumed,
        };
        self.closed += 1;
        if rec.detailed() {
            rec.event(&span.closed_event(self.closed));
        }
        if let Some(spans) = &mut self.spans {
            spans.push(span);
        }
        self.closed
    }

    /// A step for `peer` was (re)scheduled at virtual time `now` —
    /// this request is now the authoritative one (the runtime's
    /// `step_due` slot was overwritten).
    pub fn on_step_scheduled(&mut self, peer: u32, now: u64) {
        self.sched[peer as usize] = Some(StepSched {
            req_ns: now,
            cause: self.cur,
        });
    }

    /// The authoritative step of `peer` executed at `now` with compute
    /// time `compute_ns`. Closes the coalesce hold (if any), the step
    /// span, and every inbox wait the step consumed, and observes the
    /// number consumed into [`Metric::InboxDepth`]. Returns the step
    /// span id.
    #[inline(never)]
    pub fn on_step_executed<R: Recorder + ?Sized>(
        &mut self,
        peer: u32,
        now: u64,
        compute_ns: u64,
        rec: &R,
    ) -> u64 {
        let sched = self.sched[peer as usize].take().unwrap_or(StepSched {
            req_ns: now.saturating_sub(compute_ns),
            cause: 0,
        });
        // The step was scheduled at `req + hold + compute`, so compute
        // began at `now - compute`; anything between the request and
        // the compute start is the coalescing hold.
        let compute_start = now.saturating_sub(compute_ns).max(sched.req_ns);
        let mut cause = sched.cause;
        if compute_start > sched.req_ns {
            cause = self.push(
                rec,
                SpanKind::CoalesceWait,
                peer,
                peer,
                sched.req_ns,
                compute_start,
                0,
                0,
                0,
                sched.cause,
                0,
            );
        }
        let step = self.push(
            rec,
            SpanKind::PeerStep,
            peer,
            peer,
            compute_start,
            now,
            0,
            0,
            0,
            cause,
            0,
        );
        let consumed = std::mem::take(&mut self.pending[peer as usize]);
        let depth = consumed.len() as u64;
        if depth > 0 {
            if rec.detailed() {
                rec.observe(Metric::InboxDepth, depth);
            }
            self.coalesce_hits += u64::from(depth >= 2);
            self.max_inbox_depth = self.max_inbox_depth.max(depth);
        }
        for a in consumed {
            self.push(
                rec,
                SpanKind::InboxWait,
                peer,
                a.from,
                a.arrival_ns,
                now,
                0,
                0,
                a.frame,
                a.link_span,
                step,
            );
        }
        self.cur = step;
        self.last_work = step;
        step
    }

    /// A payload left `from`'s outbox at `now` for `to`: transmission
    /// departs at `depart_ns` (store-and-forward queueing before that)
    /// and the matching `Deliver` will pop this flight.
    pub fn on_send(
        &mut self,
        frame: u64,
        from: u32,
        to: u32,
        bytes: u64,
        now: u64,
        depart_ns: u64,
    ) {
        self.in_flight
            .entry((from, to))
            .or_default()
            .push_back(Flight {
                frame,
                emit_ns: now,
                depart_ns,
                bytes,
                cause: self.cur,
            });
    }

    /// The next payload on `(from, to)` arrived at `now` and its
    /// destination folded it in. Returns the closed
    /// [`SpanKind::LinkTransfer`] span id.
    #[inline(never)]
    pub fn on_deliver<R: Recorder + ?Sized>(
        &mut self,
        from: u32,
        to: u32,
        now: u64,
        rec: &R,
    ) -> u64 {
        let flight = self
            .in_flight
            .get_mut(&(from, to))
            .and_then(VecDeque::pop_front)
            .unwrap_or(Flight {
                frame: 0,
                emit_ns: now,
                depart_ns: now,
                bytes: 0,
                cause: 0,
            });
        let queue = flight.depart_ns.saturating_sub(flight.emit_ns);
        let id = self.push(
            rec,
            SpanKind::LinkTransfer,
            from,
            to,
            flight.emit_ns,
            now,
            queue.min(now.saturating_sub(flight.emit_ns)),
            flight.bytes,
            flight.frame,
            flight.cause,
            0,
        );
        self.cur = id;
        self.last_work = id;
        self.pending[to as usize].push(ArrivalRec {
            arrival_ns: now,
            from,
            link_span: id,
            frame: flight.frame,
        });
        id
    }

    /// One Safra token circuit completed at `now`; `announced` is
    /// whether this circuit announced termination.
    #[inline(never)]
    pub fn on_probe<R: Recorder + ?Sized>(&mut self, now: u64, announced: bool, rec: &R) {
        let start = self.last_probe_end.min(now);
        self.push(
            rec,
            SpanKind::SafraProbe,
            0,
            u32::from(announced),
            start,
            now,
            0,
            0,
            0,
            self.last_work,
            0,
        );
        self.last_probe_end = now;
    }

    /// Closes everything still open at the end of the run (`now` = the
    /// final virtual time): inbox waits whose mass was never consumed
    /// (a final cancellation can leave arrivals inert) and — only when
    /// the event budget cut the run short — payloads still on the
    /// wire. After this, "every opened span closes" holds.
    #[inline(never)]
    pub fn finish<R: Recorder + ?Sized>(&mut self, now: u64, rec: &R) {
        for peer in 0..self.pending.len() {
            let leftovers = std::mem::take(&mut self.pending[peer]);
            for a in leftovers {
                self.push(
                    rec,
                    SpanKind::InboxWait,
                    peer as u32,
                    a.from,
                    a.arrival_ns,
                    now.max(a.arrival_ns),
                    0,
                    0,
                    a.frame,
                    a.link_span,
                    0,
                );
            }
        }
        let mut stranded: Vec<((u32, u32), Flight)> = Vec::new();
        for (&link, q) in self.in_flight.iter_mut() {
            while let Some(f) = q.pop_front() {
                stranded.push((link, f));
            }
        }
        // Deterministic close order for the (rare) budget-exhausted
        // case: the HashMap iteration order above is not.
        stranded.sort_by_key(|&(link, f)| (f.emit_ns, link, f.frame));
        for ((from, to), f) in stranded {
            let end = now.max(f.emit_ns);
            let queue = f.depart_ns.saturating_sub(f.emit_ns);
            self.push(
                rec,
                SpanKind::LinkTransfer,
                from,
                to,
                f.emit_ns,
                end,
                queue.min(end - f.emit_ns),
                f.bytes,
                f.frame,
                f.cause,
                0,
            );
        }
    }

    /// Consumes the tracer, returning its retained spans in close (=
    /// id) order.
    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans.unwrap_or_default()
    }

    /// `(coalesce_hits, max_inbox_depth)`: [`step_fold_depths`] folded
    /// as the steps execute.
    pub fn inbox_health(&self) -> (u64, u64) {
        (self.coalesce_hits, self.max_inbox_depth)
    }
}

/// Per-step fold depths: one `(peer, arrivals_consumed)` entry per
/// step that consumed at least one waiting frame, derived from the
/// inbox-wait spans (all waits consumed by one step are pushed
/// consecutively and share a `consumed` id). Feeds the profile's
/// per-peer high-water mark; the live tracer folds the same depths
/// into [`SpanTracer::inbox_health`] as steps execute.
pub fn step_fold_depths(spans: &[SpanRec]) -> Vec<(u32, u64)> {
    let mut depths: Vec<(u32, u64)> = Vec::new();
    let mut run: Option<(u64, u32, u64)> = None; // (consumed, peer, count)
    for s in spans {
        if s.kind != SpanKind::InboxWait || s.consumed == 0 {
            continue;
        }
        match run {
            Some((c, peer, n)) if c == s.consumed => run = Some((c, peer, n + 1)),
            Some((_, peer, n)) => {
                depths.push((peer, n));
                run = Some((s.consumed, s.peer, 1));
            }
            None => run = Some((s.consumed, s.peer, 1)),
        }
    }
    if let Some((_, peer, n)) = run {
        depths.push((peer, n));
    }
    depths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{TraceRecorder, NOOP};

    #[test]
    fn span_kind_roundtrips() {
        for k in [
            SpanKind::PeerStep,
            SpanKind::CoalesceWait,
            SpanKind::LinkTransfer,
            SpanKind::InboxWait,
            SpanKind::SafraProbe,
        ] {
            assert_eq!(SpanKind::from_value(&k.to_value()).unwrap(), k);
        }
        assert!(SpanKind::from_value(&Value::Str("rpc".into())).is_err());
    }

    /// Peer 1 emits a frame at t=0 (seed step modeled manually) that
    /// peer 0 consumes after a 200 ns hold.
    /// Returns the retained spans and the ids of step 1, the link and
    /// step 0.
    fn two_peer_exchange<R: Recorder + ?Sized>(rec: &R, retain: bool) -> (Vec<SpanRec>, [u64; 3]) {
        let mut tr = SpanTracer::new(2, retain);
        tr.on_step_scheduled(1, 0);
        let s1 = tr.on_step_executed(1, 100, 100, rec);
        tr.on_send(7, 1, 0, 64, 100, 150);
        let link = tr.on_deliver(1, 0, 500, rec);
        tr.on_step_scheduled(0, 500);
        let s0 = tr.on_step_executed(0, 800, 100, rec);
        tr.finish(800, rec);
        (tr.into_spans(), [s1, link, s0])
    }

    #[test]
    fn step_with_hold_closes_coalesce_then_step_then_inbox_waits() {
        let (spans, [s1, link, s0]) = two_peer_exchange(&NOOP, true);
        // step(1), link, coalesce(0), step(0), inbox(0<-1)
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[(s1 - 1) as usize].kind, SpanKind::PeerStep);
        let l = spans[(link - 1) as usize];
        assert_eq!(
            (l.kind, l.start_ns, l.end_ns, l.queue_ns, l.bytes, l.frame),
            (SpanKind::LinkTransfer, 100, 500, 50, 64, 7)
        );
        assert_eq!(l.cause, s1, "transfer caused by the emitting step");
        let c = spans[2];
        assert_eq!(
            (c.kind, c.start_ns, c.end_ns, c.cause),
            (SpanKind::CoalesceWait, 500, 700, link)
        );
        let st = spans[(s0 - 1) as usize];
        assert_eq!(
            (st.kind, st.start_ns, st.end_ns),
            (SpanKind::PeerStep, 700, 800)
        );
        assert_eq!(st.cause, 3, "step chained after its coalesce hold");
        let iw = spans[4];
        assert_eq!(
            (iw.kind, iw.peer, iw.peer2, iw.start_ns, iw.end_ns),
            (SpanKind::InboxWait, 0, 1, 500, 800)
        );
        assert_eq!((iw.cause, iw.consumed, iw.frame), (link, s0, 7));
        // Causal edges always reference earlier spans: acyclic.
        for (i, s) in spans.iter().enumerate() {
            assert!(s.cause <= i as u64);
            assert!(s.consumed <= i as u64);
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn a_streaming_tracer_hands_each_span_to_the_recorder_and_keeps_none() {
        let (kept, _) = two_peer_exchange(&NOOP, true);
        let rec = TraceRecorder::new();
        let (streamed, _) = two_peer_exchange(&rec, false);
        assert!(streamed.is_empty());
        let want: Vec<Event> = (1..).zip(&kept).map(|(id, s)| s.closed_event(id)).collect();
        assert_eq!(rec.events(), want);
        assert_eq!(rec.histogram(Metric::InboxDepth).count(), 1);
    }

    #[test]
    fn finish_closes_unconsumed_waits_and_stranded_flights() {
        let mut tr = SpanTracer::new(2, true);
        tr.on_send(1, 0, 1, 32, 10, 10);
        tr.on_send(2, 0, 1, 32, 20, 42);
        tr.on_deliver(0, 1, 60, &NOOP); // folded but never stepped
        tr.finish(100, &NOOP);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].kind, SpanKind::InboxWait);
        assert_eq!((spans[1].end_ns, spans[1].consumed), (100, 0));
        assert_eq!(spans[2].kind, SpanKind::LinkTransfer);
        assert_eq!((spans[2].frame, spans[2].end_ns), (2, 100));
    }

    #[test]
    fn fold_depths_group_consecutive_consumers() {
        let mut tr = SpanTracer::new(3, true);
        for _ in 0..3 {
            tr.on_send(0, 1, 2, 8, 0, 0);
            tr.on_deliver(1, 2, 10, &NOOP);
        }
        tr.on_step_scheduled(2, 10);
        tr.on_step_executed(2, 20, 10, &NOOP);
        tr.on_send(0, 1, 0, 8, 20, 20);
        tr.on_deliver(1, 0, 30, &NOOP);
        tr.on_step_scheduled(0, 30);
        tr.on_step_executed(0, 40, 10, &NOOP);
        assert_eq!(tr.inbox_health(), (1, 3), "folded live, as executed");
        let depths = step_fold_depths(&tr.into_spans());
        assert_eq!(depths, vec![(2, 3), (0, 1)]);
    }
}
