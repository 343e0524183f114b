//! Wiring peer nodes to the transport: the whole system, at message
//! level.
//!
//! [`Cluster`] owns one [`PeerNode`] per peer plus the store-and-resend
//! [`Transport`], and drives the paper's pass loop: each round, every
//! *online* peer drains its inbox, steps, and hands its outbox to the
//! transport; parked messages are retried. The cluster is the
//! deployable shape of the algorithm — nothing in it reads global
//! state except the test-only convergence check.

use crate::node::{DeliverStatus, NodeStats, PeerNode, StepScratch, WireMode};
use bytes::Bytes;
use dpr_core::engine::EngineConfig;
use dpr_graph::{CsrGraph, DocId};
use dpr_p2p::frame::Frame;
use dpr_p2p::peer::{PeerId, PeerTable, Placement};
use dpr_p2p::transport::WireCodec;
use dpr_p2p::transport::{payload_entries, FaultPlan, Handle, Handles, TrafficStats, Transport};
use dpr_telemetry::{Event, MassBreakdown, Metric, Recorder, NOOP};
use std::sync::Arc;

/// Cluster peers only ever send each other payloads they encoded.
const WELL_FORMED: &str = "well-formed message from a cluster peer";

/// Statistics of one cluster round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct RoundStats {
    /// Wire payloads handed to the transport this round (frames count
    /// once each).
    pub sent: u64,
    /// Payloads applied from inboxes this round.
    pub delivered: u64,
    /// Parked payloads re-delivered this round.
    pub redelivered: u64,
    /// Overlay hops charged by the hop model for this round's sends
    /// (zero when no model is installed).
    pub hops: u64,
}

/// Per-payload overlay hop model: `(from, to, payload) -> hops`. The
/// cluster charges it once per transport send — which is once per
/// *frame* under aggregation, the routing saving the paper's Sec. 4.6
/// aggregation assumption is after.
pub type HopHook<'a> = dyn FnMut(PeerId, PeerId, &Bytes) -> u32 + 'a;

/// [`HopHook`] reading the payload as a slice, as
/// [`Cluster::round_observed`] and [`Cluster::run_observed`] charge it:
/// no frame is copied for the model.
pub type PayloadHook<'a> = dyn FnMut(PeerId, PeerId, &[u8]) -> u32 + 'a;

/// One wire payload handed to the transport by an event-driven step
/// ([`Cluster::step_peer_observed`]): everything the discrete-event
/// runtime needs to schedule the matching `Deliver` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOutcome {
    /// Sending peer.
    pub from: PeerId,
    /// Destination peer.
    pub to: PeerId,
    /// Payload size on the wire, in bytes (drives the latency model's
    /// serialization term).
    pub bytes: usize,
    /// The transport handles this send enqueued (see
    /// [`Transport::send`]); the runtime schedules one `Deliver` event
    /// per handle, so staged transport faults never desynchronize the
    /// event queue from the inboxes.
    pub handles: Handles,
    /// Cluster-wide provenance id of this payload, stamped from a
    /// monotone counter at hand-off.
    /// The chaotic runtime threads it through its link-transfer and
    /// inbox-wait spans, so the causal profiler can name exactly which
    /// frame a critical-path hop rode.
    pub frame: u64,
}

/// A full message-level system: peers + transport.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<PeerNode>,
    transport: Transport<Frame>,
    rounds: usize,
    cfg: EngineConfig,
    /// Cumulative coalesced entries handed to the transport per
    /// destination peer — the cluster's own send-side accounting,
    /// which the flight recorder's balance auditor cross-checks
    /// against each receiver's `received` counter and the in-flight
    /// backlog to localize duplication to a peer.
    sent_entries_to: Vec<u64>,
    /// Monotone payload-provenance counter backing
    /// [`SendOutcome::frame`] (ids start at 1; 0 means "unknown").
    next_frame: u64,
    /// The one set of step / delivery working memory, lent to
    /// whichever node is stepping or receiving.
    scratch: StepScratch,
    /// Which peer holds each document (indexed by doc id).
    holder_of: Vec<PeerId>,
}

impl Cluster {
    /// Builds a cluster for `graph` with documents assigned by
    /// `placement` across `num_peers` peers, every node framing under
    /// `wire`.
    ///
    /// Each document is registered on its holder with its out-links
    /// pre-resolved to `(target, holder)` pairs — the state the
    /// Sec. 3.2 address cache would hold after the first routed
    /// lookup.
    pub fn build_with(
        graph: &CsrGraph,
        placement: &Placement,
        num_peers: usize,
        cfg: EngineConfig,
        wire: WireMode,
    ) -> Self {
        assert_eq!(placement.num_docs(), graph.num_nodes());
        let holder_of: Vec<PeerId> = (0..graph.num_nodes())
            .map(|d| placement.owner(DocId::from(d)))
            .collect();
        // Size every node once for its documents and links, then stream
        // each document's links straight into its holder's link array.
        let mut sizes = vec![(0, 0); num_peers];
        for (d, holder) in holder_of.iter().enumerate() {
            let size = &mut sizes[holder.index()];
            *size = (size.0 + 1, size.1 + graph.out_degree(DocId::from(d)));
        }
        let mut nodes: Vec<PeerNode> = (sizes.into_iter().zip(0..))
            .map(|((docs, links), i)| PeerNode::sized(PeerId(i), cfg, wire, docs, links))
            .collect();
        for (d, holder) in holder_of.iter().enumerate() {
            let doc = DocId::from(d);
            let out = graph.out_neighbors(doc).iter();
            let out = out.map(|&t| (DocId(t), holder_of[t as usize]));
            nodes[holder.index()].push_document(doc, out);
        }
        Cluster {
            nodes,
            transport: Transport::new(num_peers),
            rounds: 0,
            cfg,
            sent_entries_to: vec![0; num_peers],
            next_frame: 0,
            scratch: StepScratch::default(),
            holder_of,
        }
    }

    /// Number of peers.
    pub fn num_peers(&self) -> usize {
        self.nodes.len()
    }

    /// Installs a telemetry recorder on the underlying transport, so
    /// every wire send feeds the payload/byte/parked series. Round-,
    /// node- and certificate events come only from the recorder handed
    /// to [`Cluster::run_observed`] (or one [`Cluster::round_observed`]).
    pub fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        self.transport.set_recorder(rec);
    }

    /// Sets the frame codec on every node (default [`WireCodec::Raw`];
    /// see the codec's docs for the bit-identity vs bounded-error
    /// trade). Takes effect from the next flush.
    pub fn set_codec(&mut self, codec: WireCodec) {
        for node in &mut self.nodes {
            node.set_codec(codec);
        }
    }

    /// The node of peer `p`.
    pub fn node(&self, p: PeerId) -> &PeerNode {
        &self.nodes[p.index()]
    }

    /// Every node's counters summed, except `inbox_hwm`: the largest
    /// node's high-water mark.
    pub fn node_stats(&self) -> NodeStats {
        let add = |t: NodeStats, s: NodeStats| NodeStats {
            received: t.received + s.received,
            sent_remote: t.sent_remote + s.sent_remote,
            emitted_remote: t.emitted_remote + s.emitted_remote,
            local_updates: t.local_updates + s.local_updates,
            frames_sent: t.frames_sent + s.frames_sent,
            rejected: t.rejected + s.rejected,
            inbox_hwm: t.inbox_hwm.max(s.inbox_hwm),
        };
        self.nodes
            .iter()
            .map(PeerNode::stats)
            .fold(NodeStats::default(), add)
    }

    /// Executes one round over the online peers, with an optional
    /// overlay hop model charged once per transport send.
    pub fn round_with_hops(
        &mut self,
        peers: &PeerTable,
        hops: Option<&mut HopHook<'_>>,
    ) -> RoundStats {
        match hops {
            // The hop model reads a `Bytes`: an inline frame is copied
            // into one.
            Some(model) => {
                self.round_charged(peers, |from, to, f| model(from, to, &f.bytes()), &NOOP)
            }
            None => self.round_charged(peers, |_, _, _| 0, &NOOP),
        }
    }

    /// [`Cluster::round_with_hops`] with a hop model that reads the
    /// payload as a slice, recording telemetry: one
    /// [`Event::FrameSent`] per wire payload leaving an outbox (if
    /// [`Recorder::detailed`]), one
    /// [`Event::RoundCompleted`] per round, and the store-and-resend
    /// depth into [`Metric::PendingDepth`]. With the no-op recorder
    /// this *is* `round_with_hops` — the protocol never sees `rec`.
    pub fn round_observed<R: Recorder + ?Sized>(
        &mut self,
        peers: &PeerTable,
        hops: Option<&mut PayloadHook<'_>>,
        rec: &R,
    ) -> RoundStats {
        match hops {
            Some(model) => self.round_charged(peers, |from, to, f| model(from, to, f), rec),
            None => self.round_charged(peers, |_, _, _| 0, rec),
        }
    }

    /// One round, charging `hops` once per transport send.
    fn round_charged<R: Recorder + ?Sized>(
        &mut self,
        peers: &PeerTable,
        mut hops: impl FnMut(PeerId, PeerId, &Frame) -> u32,
        rec: &R,
    ) -> RoundStats {
        self.rounds += 1;
        // Parked messages whose destination returned get delivered
        // first (the periodic resend of Sec. 3.1).
        let mut stats = RoundStats {
            redelivered: self.transport.retry_pending(peers).len() as u64,
            ..RoundStats::default()
        };
        for i in 0..self.nodes.len() {
            let pid = PeerId(i as u32);
            if !peers.is_online(pid) {
                continue;
            }
            // Inbox -> local state.
            while let Some(env) = self.transport.receive(pid) {
                self.nodes[i]
                    .handle_message_with(&mut self.scratch, &env.payload)
                    .expect(WELL_FORMED);
                stats.delivered += 1;
            }
            // Local pass, then outbox -> transport.
            self.nodes[i].step_with(&mut self.scratch, rec);
            let mut outbox = std::mem::take(&mut self.scratch.outbox);
            for (to, payload) in outbox.drain(..) {
                stats.hops += u64::from(hops(pid, to, &payload));
                self.hand_off(peers, pid, to, payload, self.rounds as u64, rec);
                stats.sent += 1;
            }
            self.scratch.outbox = outbox;
        }
        if rec.enabled() {
            let pending = self.transport.total_pending() as u64;
            rec.observe(Metric::PendingDepth, pending);
            rec.event(&Event::RoundCompleted {
                round: self.rounds as u64,
                sent: stats.sent,
                delivered: stats.delivered,
                redelivered: stats.redelivered,
                hops: stats.hops,
                pending,
            });
            self.audit_at(self.rounds as u64, rec);
        }
        stats
    }

    /// Hands one payload to the transport, recording its
    /// [`Event::FrameSent`] (stamped `tick`) if [`Recorder::detailed`],
    /// and reports it as a [`SendOutcome`].
    fn hand_off<R: Recorder + ?Sized>(
        &mut self,
        peers: &PeerTable,
        from: PeerId,
        to: PeerId,
        payload: Frame,
        tick: u64,
        rec: &R,
    ) -> SendOutcome {
        let (entries, bytes) = (payload_entries(&payload), payload.len());
        if rec.detailed() {
            rec.event(&Event::FrameSent {
                round: tick,
                from: from.0,
                to: to.0,
                entries,
                bytes: bytes as u64,
            });
        }
        self.sent_entries_to[to.index()] += entries;
        let handles = self.transport.send(peers, from, to, payload);
        self.next_frame += 1;
        SendOutcome {
            from,
            to,
            bytes,
            handles,
            frame: self.next_frame,
        }
    }

    /// Event-driven delivery: folds the envelope at `handle` into its
    /// destination's node, tracking the bounded arrival depth. Returns
    /// its `(from, to)` and the node's status, or `None` for a free handle.
    pub fn deliver(&mut self, handle: Handle) -> Option<(PeerId, PeerId, DeliverStatus)> {
        let env = self.transport.take(handle)?;
        let node = &mut self.nodes[env.to.index()];
        let status = node.on_deliver(&mut self.scratch, &env.payload);
        Some((env.from, env.to, status.expect(WELL_FORMED)))
    }

    /// Event-driven step of a single peer: runs one local pass and
    /// hands its payloads to the transport, recording one
    /// [`Event::FrameSent`] per payload (tagged with the runtime's
    /// `tick` in the round field) if [`Recorder::detailed`]. `sent`
    /// sees one [`SendOutcome`] per payload, in flush order, so the
    /// runtime can schedule the matching `Deliver` events on its
    /// virtual clock.
    pub fn step_peer_observed<R: Recorder + ?Sized>(
        &mut self,
        p: PeerId,
        peers: &PeerTable,
        tick: u64,
        rec: &R,
        mut sent: impl FnMut(SendOutcome),
    ) {
        self.nodes[p.index()].step_with(&mut self.scratch, rec);
        // Taken (and handed back) so the loop may borrow all of `self`.
        let mut outbox = std::mem::take(&mut self.scratch.outbox);
        for (to, payload) in outbox.drain(..) {
            sent(self.hand_off(peers, p, to, payload, tick, rec));
        }
        self.scratch.outbox = outbox;
    }

    /// Applies a rank increment to a document wherever it lives — the
    /// cluster-level injection point for the continuous-update
    /// scenario (the engine-layer equivalent is
    /// `ChaoticEngine::inject_delta`) — and reports which peer holds
    /// it, so the event-driven runtime can schedule that peer's next
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if no peer stores `doc`.
    pub fn apply_delta(&mut self, doc: DocId, delta: f64) -> PeerId {
        let holder = *self
            .holder_of
            .get(doc.index())
            .expect("document stored somewhere in the cluster");
        self.nodes[holder.index()].apply(doc, delta);
        holder
    }

    /// Retries every parked payload against the current presence
    /// table, reporting one [`SendOutcome`] per redelivered payload so
    /// the event-driven runtime can schedule the matching `Deliver`
    /// events (round-driven execution instead calls the transport's
    /// own retry inside [`Cluster::round_observed`]). Redeliveries
    /// always enqueue exactly one envelope.
    pub fn retry_pending_outcomes(&mut self, peers: &PeerTable) -> Vec<SendOutcome> {
        self.transport
            .retry_pending(peers)
            .into_iter()
            .map(|(from, to, bytes, handle)| {
                self.next_frame += 1;
                SendOutcome {
                    from,
                    to,
                    bytes,
                    handles: [Some(handle), None],
                    frame: self.next_frame,
                }
            })
            .collect()
    }

    /// Emits the flight recorder's ledgers stamped `round`: the mass
    /// snapshot (every node's slab terms plus the in-flight wire mass,
    /// against one unit of Φ per stored document) and the
    /// entry-balance snapshot with the most severe per-peer skew.
    /// Rounds audit themselves when observed; the event-driven runtime
    /// calls this on a virtual-time cadence with its own tick.
    /// O(docs + queued payloads).
    pub fn audit_at<R: Recorder + ?Sized>(&self, round: u64, rec: &R) {
        let (mut mb, mut docs) = (MassBreakdown::default(), 0usize);
        for n in &self.nodes {
            mb.merge(n.mass_breakdown());
            docs += n.num_docs();
        }
        rec.event(&mb.ledger_event(
            "cluster",
            round,
            self.transport.in_flight_mass(),
            self.cfg.damping,
            docs as f64,
        ));
        // Per-peer skew: entries this cluster addressed to the peer,
        // minus what the peer received and what is still on the wire
        // toward it. Negative means entries materialized from nowhere
        // (duplication); positive is indistinguishable from transit
        // delay mid-run and is the quiescence certifier's job. Report
        // the most severe peer, surplus first.
        let (mut skew_peer, mut skew) = (0u32, 0i64);
        for (i, n) in self.nodes.iter().enumerate() {
            let s = self.sent_entries_to[i] as i64
                - n.stats().received as i64
                - self.transport.in_flight_entries_to(PeerId(i as u32)) as i64;
            let more_severe = if skew < 0 {
                s < skew
            } else {
                s < 0 || s > skew
            };
            if more_severe {
                (skew_peer, skew) = (i as u32, s);
            }
        }
        let t = self.node_stats();
        rec.event(&Event::BalanceLedger {
            round,
            emitted: t.emitted_remote,
            sent: t.sent_remote,
            received: t.received,
            in_flight_entries: self.transport.in_flight_entries(),
            skew_peer,
            skew,
        });
    }

    /// Emits the flight recorder's termination certificate: transport
    /// occupancy, queued work, the Safra-style token
    /// `Σ sent − Σ received − in-flight`, and the worst relative
    /// residual against ε. Call when a run claims quiescence; the
    /// audit layer flags anything still outstanding. A no-op with a
    /// disabled recorder.
    pub fn certify_quiescence<R: Recorder + ?Sized>(&self, rec: &R) {
        if !rec.enabled() {
            return;
        }
        let (t, in_flight_entries) = (self.node_stats(), self.transport.in_flight_entries());
        rec.event(&Event::QuiescenceCert {
            round: self.rounds as u64,
            in_flight_entries,
            parked: self.transport.total_pending() as u64,
            nodes_with_work: self.nodes.iter().filter(|n| n.has_work()).count() as u64,
            token: t.sent_remote as i64 - t.received as i64 - in_flight_entries as i64,
            max_residual: self
                .nodes
                .iter()
                .map(|n| n.max_relative_residual())
                .fold(0.0, f64::max),
            epsilon: self.cfg.epsilon,
        });
    }

    /// Arms a transport-level fault (flight-recorder fault injection):
    /// the plan strikes the first corruptible send at or after its
    /// threshold. See [`FaultPlan`].
    pub fn inject_transport_fault(&mut self, plan: FaultPlan) {
        self.transport.inject_fault(plan);
    }

    /// The send index an armed fault fired at, once it has.
    pub fn fault_fired_at(&self) -> Option<u64> {
        self.transport.fault_fired_at()
    }

    /// Update entries currently undelivered in the transport (inboxes
    /// plus parked envelopes) — the in-flight side of the
    /// message-balance invariant `Σ sent − Σ received = in flight`.
    pub fn in_flight_entries(&self) -> u64 {
        self.transport.in_flight_entries()
    }

    /// The cluster's one rounds-to-quiescence loop: runs rounds until
    /// the system quiesces (no node has pending work, nothing in
    /// flight) or `max_rounds` is hit, and returns the number of rounds
    /// and whether it converged. It charges the per-send hop model of
    /// [`Cluster::round_with_hops`] and records observed rounds, one
    /// [`Event::PeerChurn`] per presence flip the churn callback makes,
    /// and the closing [`Event::QuiescenceCert`]. The protocol never
    /// sees `rec`: every recorder gives the same rounds and ranks.
    pub fn run_observed<R: Recorder + ?Sized>(
        &mut self,
        peers: &mut PeerTable,
        max_rounds: usize,
        mut churn: Option<&mut dpr_core::engine::ChurnFn<'_>>,
        mut hops: Option<&mut PayloadHook<'_>>,
        rec: &R,
    ) -> (usize, bool) {
        let mut executed = 0;
        while executed < max_rounds && !self.is_quiescent() {
            self.round_observed(peers, hops.as_deref_mut(), rec);
            executed += 1;
            if let Some(f) = churn.as_deref_mut() {
                if rec.enabled() {
                    let before: Vec<bool> = peers.peers().map(|p| peers.is_online(p)).collect();
                    f(executed, peers);
                    for (i, was) in before.iter().enumerate() {
                        let now = peers.is_online(PeerId(i as u32));
                        if now != *was {
                            rec.event(&Event::PeerChurn {
                                round: executed as u64,
                                peer: i as u32,
                                online: now,
                            });
                        }
                    }
                } else {
                    f(executed, peers);
                }
            }
        }
        self.certify_quiescence(rec);
        (executed, self.is_quiescent())
    }

    /// True when no node has pending work and no message is in flight
    /// or parked.
    pub fn is_quiescent(&self) -> bool {
        self.transport.in_flight() == 0 && self.nodes.iter().all(|n| !n.has_work())
    }

    /// Collects every document's rank into a dense vector (test /
    /// reporting convenience — a real deployment has no such view).
    pub fn collect_ranks(&self, num_docs: usize) -> Vec<f64> {
        let mut ranks = vec![f64::NAN; num_docs];
        for (doc, rank) in self.nodes.iter().flat_map(PeerNode::doc_ranks) {
            if let Some(slot) = ranks.get_mut(doc.index()) {
                *slot = rank;
            }
        }
        assert!(
            ranks.iter().all(|r| !r.is_nan()),
            "every document stored somewhere"
        );
        ranks
    }

    /// Transport counters.
    pub fn traffic(&self) -> TrafficStats {
        self.transport.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::sync_solver::SyncSolver;
    use dpr_graph::powerlaw::paper_graph;
    use dpr_p2p::peer::PlacementPolicy;
    use dpr_p2p::ring::Ring;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn build(nodes: usize, peers: usize, eps: f64, seed: u64) -> (Cluster, CsrGraph) {
        let graph = paper_graph(nodes, seed);
        let ring = Ring::with_peers(peers);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 1);
        let placement = Placement::assign(nodes, &ring, PlacementPolicy::Random, &mut rng);
        let cluster = Cluster::build_with(
            &graph,
            &placement,
            peers,
            EngineConfig::with_epsilon(eps),
            WireMode::frames(),
        );
        (cluster, graph)
    }

    #[test]
    fn cluster_converges_to_the_sync_solution() {
        let (mut cluster, graph) = build(800, 16, 1e-8, 61);
        let mut peers = PeerTable::new(16);
        let (rounds, ok) = cluster.run_observed(&mut peers, 10_000, None, None, &NOOP);
        assert!(ok, "did not quiesce in {rounds} rounds");
        let ranks = cluster.collect_ranks(800);
        let reference = SyncSolver::new().tolerance(1e-13).solve(&graph).ranks;
        for (a, b) in ranks.iter().zip(&reference) {
            assert!((a - b).abs() / b < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn cluster_agrees_with_the_array_engine() {
        let nodes = 600;
        let graph = paper_graph(nodes, 62);
        let ring = Ring::with_peers(10);
        let mut rng = ChaCha8Rng::seed_from_u64(63);
        let placement = Placement::assign(nodes, &ring, PlacementPolicy::Random, &mut rng);
        let cfg = EngineConfig::with_epsilon(1e-6);

        let mut cluster = Cluster::build_with(&graph, &placement, 10, cfg, WireMode::frames());
        let mut peers = PeerTable::new(10);
        let (_, ok) = cluster.run_observed(&mut peers, 10_000, None, None, &NOOP);
        assert!(ok);

        let owners: Vec<PeerId> = (0..nodes)
            .map(|d| placement.owner(DocId::from(d)))
            .collect();
        let mut engine =
            dpr_core::engine::ChaoticEngine::new(std::sync::Arc::new(graph.clone()), owners, cfg);
        let run = engine.run_static();
        assert!(run.converged);

        // Same protocol, but the cluster's round visits peers in
        // order, so a message from peer 3 can reach peer 7 within the
        // round — a different (equally valid) chaotic schedule. The
        // two schedules agree to O(eps).
        let ranks = cluster.collect_ranks(nodes);
        for (a, b) in ranks.iter().zip(engine.ranks()) {
            let rel = (a - b).abs() / b.abs().max(1e-12);
            assert!(rel < 1e-4, "{a} vs {b}");
        }
        // The cluster's in-round delivery hands peers *fresher* data
        // (a message from peer 3 reaches peer 7 in the same round), so
        // documents coalesce more increments per application and
        // re-advertise fewer times — chaotic iteration with lower
        // staleness costs fewer messages, never more.
        let emitted: u64 = (0..10)
            .map(|p| cluster.node(PeerId(p)).stats().emitted_remote)
            .sum();
        let ratio = emitted as f64 / run.total_remote_messages as f64;
        assert!((0.3..=1.05).contains(&ratio), "traffic ratio {ratio}");

        // One entry per frame runs the same schedule unbatched: ranks
        // must agree with the batched cluster *bit for bit* (the
        // aggregation determinism claim), and batching must be strictly
        // cheaper in payloads and bytes.
        let one_entry = WireMode { max_frame_bytes: 0 };
        let mut unbatched = Cluster::build_with(&graph, &placement, 10, cfg, one_entry);
        let mut peers_u = PeerTable::new(10);
        let (_, ok) = unbatched.run_observed(&mut peers_u, 10_000, None, None, &NOOP);
        assert!(ok);
        assert_eq!(
            unbatched.collect_ranks(nodes),
            ranks,
            "batched and unbatched ranks must be bit-identical"
        );
        let (tu, tb) = (unbatched.traffic(), cluster.traffic());
        assert!(
            tb.sent < tu.sent,
            "frames: {} !< one-entry frames: {}",
            tb.sent,
            tu.sent
        );
        assert!(
            tb.bytes_sent < tu.bytes_sent,
            "frame bytes {} !< one-entry frame bytes {}",
            tb.bytes_sent,
            tu.bytes_sent
        );
    }

    #[test]
    fn cluster_survives_churn() {
        let (mut cluster, graph) = build(500, 8, 1e-4, 64);
        let mut peers = PeerTable::new(8);
        let mut rng = ChaCha8Rng::seed_from_u64(65);
        let mut churn = move |_r: usize, p: &mut PeerTable| {
            p.set_online_fraction(0.5, &mut rng);
        };
        let (rounds, ok) = cluster.run_observed(&mut peers, 50_000, Some(&mut churn), None, &NOOP);
        assert!(ok, "no convergence in {rounds} rounds");
        assert!(cluster.traffic().parked > 0, "churn must park messages");
        assert_eq!(cluster.traffic().parked, cluster.traffic().redelivered);
        let ranks = cluster.collect_ranks(500);
        let reference = SyncSolver::new().solve(&graph).ranks;
        for (a, b) in ranks.iter().zip(&reference) {
            assert!((a - b).abs() / b < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn batched_cluster_survives_churn_identically() {
        // Same churn schedule (same RNG seed), default and one-entry
        // frames: parked frames redeliver whole, and the converged
        // ranks stay bit-identical to the unbatched run.
        let run = |wire: WireMode| {
            let graph = paper_graph(500, 64);
            let ring = Ring::with_peers(8);
            let mut rng = ChaCha8Rng::seed_from_u64(64 ^ 1);
            let placement = Placement::assign(500, &ring, PlacementPolicy::Random, &mut rng);
            let mut cluster = Cluster::build_with(
                &graph,
                &placement,
                8,
                EngineConfig::with_epsilon(1e-4),
                wire,
            );
            let mut peers = PeerTable::new(8);
            let mut churn_rng = ChaCha8Rng::seed_from_u64(65);
            let mut churn = move |_r: usize, p: &mut PeerTable| {
                p.set_online_fraction(0.5, &mut churn_rng);
            };
            let (rounds, ok) =
                cluster.run_observed(&mut peers, 50_000, Some(&mut churn), None, &NOOP);
            assert!(ok, "no convergence in {rounds} rounds");
            (cluster.collect_ranks(500), cluster.traffic())
        };
        let (single, ts) = run(WireMode { max_frame_bytes: 0 });
        let (framed, tf) = run(WireMode::frames());
        assert_eq!(framed, single, "churned ranks must be bit-identical");
        assert!(tf.parked > 0, "churn must park frames");
        assert_eq!(tf.parked, tf.redelivered);
        assert!(tf.sent < ts.sent);
    }

    #[test]
    fn every_document_lands_on_its_placed_peer() {
        let (cluster, _) = build(300, 6, 1e-3, 66);
        let total: usize = (0..6u32).map(|p| cluster.node(PeerId(p)).num_docs()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn observed_run_is_bit_identical_and_traces_traffic() {
        use dpr_telemetry::{Event, Metric, TraceRecorder};
        let build_pair = || build(400, 8, 1e-5, 71).0;
        let mut plain = build_pair();
        let mut peers1 = PeerTable::new(8);
        let (rounds1, ok1) = plain.run_observed(&mut peers1, 10_000, None, None, &NOOP);
        assert!(ok1);

        let mut observed = build_pair();
        let rec = Arc::new(TraceRecorder::new());
        observed.set_recorder(rec.clone());
        let mut peers2 = PeerTable::new(8);
        let (rounds2, ok2) = observed.run_observed(&mut peers2, 10_000, None, None, rec.as_ref());
        assert!(ok2);
        assert_eq!(rounds1, rounds2);
        assert_eq!(
            plain.collect_ranks(400),
            observed.collect_ranks(400),
            "telemetry must not perturb the computation"
        );
        assert_eq!(plain.traffic(), observed.traffic());

        // The event stream accounts for every payload, byte for byte.
        let events = rec.events();
        let (mut frames, mut frame_bytes, mut round_sent) = (0u64, 0u64, 0u64);
        let mut rounds_completed = 0usize;
        for e in &events {
            match e {
                Event::FrameSent { entries, bytes, .. } => {
                    frames += 1;
                    frame_bytes += bytes;
                    assert!(*entries >= 1);
                }
                Event::RoundCompleted { sent, .. } => {
                    rounds_completed += 1;
                    round_sent += sent;
                }
                _ => {}
            }
        }
        let traffic = observed.traffic();
        assert_eq!(rounds_completed, rounds2);
        assert_eq!(frames, traffic.sent);
        assert_eq!(round_sent, traffic.sent);
        assert_eq!(frame_bytes, traffic.bytes_sent);
        // The transport recorder mirrors the same totals as counters.
        assert_eq!(rec.counter(Metric::PayloadsSent), traffic.sent);
        assert_eq!(rec.counter(Metric::BytesOnWire), traffic.bytes_sent);
        assert_eq!(rec.histogram(Metric::PendingDepth).count(), rounds2 as u64);
    }

    #[test]
    fn run_observed_is_the_hand_loop_of_hop_charged_rounds() {
        use dpr_telemetry::{Event, TraceRecorder};
        type Log = Vec<(PeerId, PeerId, usize, u32)>;
        // A stateful hop model: each charge depends on how many sends it
        // has seen, so a skipped, repeated or reordered call moves the sum.
        fn logging(log: &mut Log) -> impl FnMut(PeerId, PeerId, &[u8]) -> u32 + '_ {
            move |from, to, payload| {
                let hops = (log.len() % 5) as u32 + from.0 % 3;
                log.push((from, to, payload.len(), hops));
                hops
            }
        }
        fn one_loop<R: Recorder + ?Sized>(rec: &R) -> (Cluster, usize, Log) {
            let (mut cluster, mut log) = (build(800, 16, 1e-4, 90).0, Log::new());
            let mut peers = PeerTable::new(16);
            let mut hook = logging(&mut log);
            let (rounds, ok) = cluster.run_observed(&mut peers, 10_000, None, Some(&mut hook), rec);
            assert!(ok);
            drop(hook);
            (cluster, rounds, log)
        }

        let (mut hand, mut hand_log) = (build(800, 16, 1e-4, 90).0, Log::new());
        let peers = PeerTable::new(16);
        let (mut hand_rounds, mut hand_hops, mut log) = (0, 0u64, logging(&mut hand_log));
        let mut hook = move |from, to, payload: &Bytes| log(from, to, payload);
        while !hand.is_quiescent() {
            hand_hops += hand.round_with_hops(&peers, Some(&mut hook)).hops;
            hand_rounds += 1;
        }
        drop(hook);
        assert!(hand_hops > 0);
        let bits = |c: &Cluster| {
            c.collect_ranks(800)
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<_>>()
        };

        let rec = Arc::new(TraceRecorder::new());
        for (run, traced) in [(one_loop(&NOOP), false), (one_loop(rec.as_ref()), true)] {
            let (cluster, rounds, log) = run;
            assert_eq!(rounds, hand_rounds, "traced: {traced}");
            assert_eq!(log, hand_log, "traced: {traced}");
            assert_eq!(log.iter().map(|l| u64::from(l.3)).sum::<u64>(), hand_hops);
            assert_eq!(bits(&cluster), bits(&hand), "traced: {traced}");
            assert_eq!(cluster.traffic(), hand.traffic(), "traced: {traced}");
        }
        let certs = rec
            .events()
            .iter()
            .filter(|e| matches!(e, Event::QuiescenceCert { .. }))
            .count();
        assert_eq!(certs, 1);
    }

    #[test]
    fn observed_run_audits_clean_and_faults_localize() {
        use dpr_p2p::transport::FaultKind;
        use dpr_telemetry::audit::Monitor;
        use dpr_telemetry::{AuditReport, TraceRecorder};

        let audited_run = |fault: Option<FaultPlan>| {
            let mut cluster = build(400, 8, 1e-6, 80).0;
            let rec = Arc::new(TraceRecorder::new());
            cluster.set_recorder(rec.clone());
            if let Some(plan) = fault {
                cluster.inject_transport_fault(plan);
            }
            let mut peers = PeerTable::new(8);
            let (rounds, ok) = cluster.run_observed(&mut peers, 10_000, None, None, rec.as_ref());
            assert!(ok, "no quiescence in {rounds} rounds");
            if fault.is_some() {
                assert!(cluster.fault_fired_at().is_some(), "fault never fired");
            }
            AuditReport::evaluate(&rec.events())
        };

        // Clean run: every monitor exercised, none violated.
        let clean = audited_run(None);
        assert!(clean.passed(), "{}", clean.diagnosis());
        for m in [
            Monitor::MassConservation,
            Monitor::MessageBalance,
            Monitor::Quiescence,
        ] {
            assert!(clean.finding(m).checked > 0, "{m} never exercised");
        }

        // Each canonical transport fault is caught, attributed to the
        // monitor owning the invariant it breaks.
        for (kind, owner) in [
            (FaultKind::MassLeak, Monitor::MassConservation),
            (FaultKind::DupFrame, Monitor::MessageBalance),
            (FaultKind::LostFrame, Monitor::Quiescence),
        ] {
            let report = audited_run(Some(FaultPlan { kind, nth_send: 40 }));
            assert!(!report.passed(), "{kind} went undetected");
            assert_eq!(report.primary().unwrap().monitor, owner, "{kind}");
        }
    }

    #[test]
    fn priority_cluster_converges_and_agrees_with_pass() {
        // Same system under both scheduling modes: priority converges
        // to the same fixed point (to O(eps)) while deferring work.
        let run = |sched: dpr_core::SchedMode| {
            let graph = paper_graph(2000, 72);
            let ring = Ring::with_peers(16);
            let mut rng = ChaCha8Rng::seed_from_u64(73);
            let placement = Placement::assign(2000, &ring, PlacementPolicy::Random, &mut rng);
            let cfg = EngineConfig::with_epsilon(1e-9).with_sched(sched);
            let mut cluster = Cluster::build_with(&graph, &placement, 16, cfg, WireMode::frames());
            let mut peers = PeerTable::new(16);
            let (rounds, ok) = cluster.run_observed(&mut peers, 50_000, None, None, &NOOP);
            assert!(ok, "no convergence in {rounds} rounds");
            (cluster.collect_ranks(2000), cluster.traffic())
        };
        let (pass, _) = run(dpr_core::SchedMode::Pass);
        let (prio, _) = run(dpr_core::SchedMode::Priority);
        let l1_per_doc: f64 = pass
            .iter()
            .zip(&prio)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / pass.len() as f64;
        assert!(l1_per_doc <= 1e-9, "l1 per doc {l1_per_doc}");
    }

    #[test]
    fn priority_wire_modes_are_bit_identical() {
        // The aggregation determinism claim must survive priority
        // ordering: same selection, same emission order, so one-entry
        // and default frames still produce bit-identical ranks.
        let run = |wire: WireMode| {
            let graph = paper_graph(1500, 74);
            let ring = Ring::with_peers(12);
            let mut rng = ChaCha8Rng::seed_from_u64(75);
            let placement = Placement::assign(1500, &ring, PlacementPolicy::Random, &mut rng);
            let cfg = EngineConfig::with_epsilon(1e-6).with_sched(dpr_core::SchedMode::Priority);
            let mut cluster = Cluster::build_with(&graph, &placement, 12, cfg, wire);
            let mut peers = PeerTable::new(12);
            let (rounds, ok) = cluster.run_observed(&mut peers, 50_000, None, None, &NOOP);
            assert!(ok, "no convergence in {rounds} rounds");
            (cluster.collect_ranks(1500), cluster.traffic())
        };
        let (single, ts) = run(WireMode { max_frame_bytes: 0 });
        let (framed, tf) = run(WireMode::frames());
        assert_eq!(
            framed, single,
            "priority ranks must not depend on the frame cap"
        );
        assert!(tf.sent < ts.sent, "frames still aggregate under priority");
    }

    #[test]
    fn priority_cluster_survives_churn() {
        // Deferred residuals + store-and-resend: parked mass and parked
        // messages both drain, and the system still reaches the
        // synchronous fixed point.
        let nodes = 500;
        let graph = paper_graph(nodes, 76);
        let ring = Ring::with_peers(8);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let placement = Placement::assign(nodes, &ring, PlacementPolicy::Random, &mut rng);
        let cfg = EngineConfig::with_epsilon(1e-8).with_sched(dpr_core::SchedMode::Priority);
        let mut cluster = Cluster::build_with(&graph, &placement, 8, cfg, WireMode::frames());
        let mut peers = PeerTable::new(8);
        for _ in 0..3 {
            cluster.round_with_hops(&peers, None);
        }
        let mut churn_rng = ChaCha8Rng::seed_from_u64(78);
        let mut churn = move |_r: usize, p: &mut PeerTable| {
            p.set_online_fraction(0.6, &mut churn_rng);
        };
        let (rounds, ok) = cluster.run_observed(&mut peers, 50_000, Some(&mut churn), None, &NOOP);
        assert!(ok, "no convergence in {rounds} rounds");
        let ranks = cluster.collect_ranks(nodes);
        let reference = SyncSolver::new().tolerance(1e-13).solve(&graph).ranks;
        for (a, b) in ranks.iter().zip(&reference) {
            assert!((a - b).abs() / b < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn quiescent_round_is_a_noop() {
        let (mut cluster, _) = build(200, 4, 1e-3, 67);
        let mut peers = PeerTable::new(4);
        cluster.run_observed(&mut peers, 10_000, None, None, &NOOP);
        let before = cluster.collect_ranks(200);
        let stats = cluster.round_with_hops(&peers, None);
        assert_eq!(stats, RoundStats::default());
        assert_eq!(cluster.collect_ranks(200), before);
    }
}
