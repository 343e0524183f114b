//! A single peer as a protocol state machine.
//!
//! A [`PeerNode`] owns a set of documents, knows each document's
//! out-links and which peer holds each linked document (resolved once
//! through the DHT, then cached — Sec. 3.2), and exchanges rank
//! updates with other peers as multi-update frames. The node is
//! completely ignorant of any global state — everything it does is
//! local, which is the property that makes the algorithm deployable.
//!
//! # Document storage
//!
//! Documents live in a struct-of-arrays slab, one slot per document in
//! arrival order (`docs`, `rank`, `advertised`, `pending`, `queued`).
//! Out-links sit in one contiguous array, slot `s` owning
//! `first[s]..first[s + 1]`: hot resolved target codes (a local slot,
//! or a remote slot tagged by the `REMOTE` bit) over cold
//! `(target, holder)` pairs. The document and frame-tag indexes map
//! straight to slot offsets, so the apply and emit hot paths never
//! touch a hash map. Indexes and codes are rebuildable from the slab
//! alone; they are a cache, not state.
//!
//! A step's working memory is not the node's: coalescing, grouping,
//! encoding and frame resolution run over a [`StepScratch`] the driver
//! lends for the call, so what a node keeps between steps is
//! proportional to its documents and links, never to the peer count.
//!
//! # Per-peer aggregation and [`WireMode`]
//!
//! Peers holding many documents send many updates to the same
//! destination peer each pass (Sec. 4.6 assumes this traffic is
//! combined). Every node therefore accumulates outbound increments
//! per destination during phase 2, coalescing same-document increments
//! into one entry (added in emission order), and flushes at the end of
//! the step — the semantics of [`dpr_core::message::FlushBuffer`], run
//! hash-free over the out-links' pre-resolved slots. Each destination's
//! entries leave packed into length-prefixed multi-update frames of at
//! most [`WireMode::max_frame_bytes`], one routed payload per frame.
//!
//! Every cap emits the *same coalesced group sums in the same order*
//! and the receiver folds them into `pending` one addition per entry in
//! arrival order, so converged ranks are bit-identical across frame-size
//! caps — the one-entry cap included, which puts one update per payload
//! as the paper's 24-byte message did (see DESIGN.md "Wire protocol &
//! aggregation").
//!
//! # Priority scheduling
//!
//! Under [`SchedMode::Priority`] a step processes only the
//! highest-residual slice of the dirty queue (the same whole-bucket
//! budget rule the engine uses — see DESIGN.md "Scheduling
//! architecture"), ordered highest bucket first so the flush buffers
//! fill with the most valuable increments before any frame-size cap
//! splits a flush. Deferred documents keep their pending mass and stay
//! queued, so [`PeerNode::has_work`] — and with it cluster quiescence
//! and Safra's termination count — still sees them.

use bytes::Bytes;
use dpr_core::engine::EngineConfig;
use dpr_core::message::MessageError;
use dpr_core::sched::{
    partition_by_greedy, partition_by_residual, residual_bucket, SchedMode, SchedStats,
};
use dpr_graph::DocId;
use dpr_p2p::guid::Guid;
use dpr_p2p::peer::PeerId;
use dpr_p2p::transport::{
    max_entries_for, CompactEntry, CompactFrameWire, FrameEntry, PayloadKind, UpdateFrameWire,
    WireCodec,
};
use dpr_telemetry::{Metric, Recorder, NOOP};
use fxhash::FxHashMap;
use std::cmp::Reverse;

/// How a node puts updates on the wire: per-destination aggregation,
/// updates accumulating during the step and leaving at its end as
/// multi-update frames of at most `max_frame_bytes` each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMode {
    /// Size cap per frame, in wire bytes (at least one entry is always
    /// allowed, so 0 caps every frame at one entry).
    pub max_frame_bytes: usize,
}

/// Default frame-size cap: one MTU-sized payload (87 entries).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1400;

impl WireMode {
    /// The default MTU-sized cap.
    pub fn frames() -> WireMode {
        WireMode {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// Default bound on un-stepped arrivals a peer absorbs before the
/// event-driven runtime must step it: the backpressure cap of the
/// chaotic run mode. A peer that keeps receiving without stepping
/// would otherwise accumulate unbounded pending mass while its
/// coalescing window stretches; saturation forces an immediate step.
pub const DEFAULT_INBOX_CAP: usize = 32;

/// Outcome of an event-driven delivery ([`PeerNode::on_deliver`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverStatus {
    /// The payload was folded in; the node can keep buffering.
    Accepted,
    /// The payload was folded in and the arrival bound is reached:
    /// the runtime must step this node now (backpressure).
    Saturated,
}

/// Tag bit of a resolved link code naming a remote slot (an index into
/// `PeerNode::remote`); a code without it is a local slab slot.
const REMOTE: u32 = 1 << 31;

/// One distinct remote `(target, holder)` of a node's out-links, with
/// the target's cached [`Guid::frame_tag`].
#[derive(Debug, Clone, Copy)]
struct RemoteTarget {
    doc: DocId,
    holder: PeerId,
    tag: u64,
}

/// Counters a node keeps about its own behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct NodeStats {
    /// Rank updates received over the wire and applied (frame entries
    /// count individually).
    pub received: u64,
    /// Rank updates put on the wire — coalesced frame entries.
    /// Conserved against `received` (Safra's termination detection
    /// counts on this invariant).
    pub sent_remote: u64,
    /// Remote link emissions before coalescing — the number of wire
    /// messages the paper's one-message-per-update model would have
    /// sent (Table 3's message metric).
    pub emitted_remote: u64,
    /// Same-peer link updates (no wire message).
    pub local_updates: u64,
    /// Multi-update frames emitted.
    pub frames_sent: u64,
    /// Messages that failed to decode or referenced unknown GUIDs.
    pub rejected: u64,
    /// Largest un-stepped arrival depth the event-driven runtime ever
    /// pushed this node to (high-water mark of the bounded inbox;
    /// always zero under round-driven stepping).
    pub inbox_hwm: u64,
}

/// The working memory of one step or delivery, lent by the driver: a
/// [`Cluster`](crate::cluster::Cluster) keeps one set, grown to its
/// largest node's needs and reused by every node in turn, so a
/// steady-state step allocates only the payloads it sends. The
/// coalescing table is indexed by the stepping node's dense remote
/// slots and the grouping table by peer id (nothing is hashed), and both
/// are epoch-stamped (nothing is cleared between steps).
#[derive(Debug, Default)]
pub struct StepScratch {
    epoch: u64,
    /// This step's selected slots, the documents that re-advertise,
    /// and the selective schedulers' buffers.
    work: Vec<u32>,
    senders: Vec<(u32, f64)>,
    deferred: Vec<u32>,
    buckets: Vec<u8>,
    keys: Vec<(u64, u32)>,
    /// Coalesced `(remote slot, increment)` pairs in first-emission
    /// order, and per remote slot `(stamp, index of its pair)`.
    emitted: Vec<(u32, f64)>,
    coalesced: Vec<(u64, u32)>,
    /// Per destination peer `(stamp, pairs this step)`; the touched
    /// ones in first-touch order; `emitted` regrouped by destination.
    dests: Vec<(u64, u32)>,
    dest_order: Vec<PeerId>,
    grouped: Vec<(u32, f64)>,
    /// Encoding stage: one payload's bytes, one compact frame's entries.
    wire: Vec<u8>,
    compact: Vec<CompactEntry>,
    /// A received frame's `(slot, delta)` pairs, staged until the
    /// whole frame has validated and resolved.
    resolved: Vec<(u32, f64)>,
    /// Dedup index, live only while a node re-resolves its links.
    remote_ix: FxHashMap<(DocId, PeerId), u32>,
    /// The step's payloads, in flush order; the driver drains it.
    pub outbox: Vec<(PeerId, Bytes)>,
}

impl StepScratch {
    /// Opens a fresh epoch over `targets` remote slots.
    fn begin(&mut self, targets: usize) {
        self.epoch += 1;
        if self.coalesced.len() < targets {
            self.coalesced.resize(targets, (0, 0));
        }
        self.emitted.clear();
        self.dest_order.clear();
    }

    /// Adds one increment to remote slot `target`'s pair, created (and
    /// counted against its destination) on first touch.
    fn emit(&mut self, target: u32, remote: &[RemoteTarget], delta: f64) {
        let at = &mut self.coalesced[target as usize];
        if at.0 == self.epoch {
            self.emitted[at.1 as usize].1 += delta;
            return;
        }
        *at = (self.epoch, self.emitted.len() as u32);
        self.emitted.push((target, delta));
        let dest = remote[target as usize].holder;
        if self.dests.len() <= dest.index() {
            self.dests.resize(dest.index() + 1, (0, 0));
        }
        let run = &mut self.dests[dest.index()];
        if run.0 != self.epoch {
            *run = (self.epoch, 0);
            self.dest_order.push(dest);
        }
        run.1 += 1;
    }

    /// Regroups `emitted` by destination — destinations in first-touch
    /// order, pairs within one in first-emission order — leaving each
    /// touched destination's *end* offset into `grouped` in `dests`.
    fn group(&mut self, remote: &[RemoteTarget]) {
        let mut start = 0;
        for dest in &self.dest_order {
            let run = &mut self.dests[dest.index()];
            (run.1, start) = (start, start + run.1);
        }
        self.grouped.clear();
        self.grouped.resize(self.emitted.len(), (0, 0.0));
        for &pair in &self.emitted {
            let next = &mut self.dests[remote[pair.0 as usize].holder.index()].1;
            self.grouped[*next as usize] = pair;
            *next += 1;
        }
    }
}

/// One peer of the P2P system, executing Fig. 1 locally.
#[derive(Debug, Clone)]
pub struct PeerNode {
    id: PeerId,
    cfg: EngineConfig,
    wire: WireMode,
    /// Frame encoding: bit-identity `Raw` (default) or varint/f32
    /// `Compact` — see [`WireCodec`].
    codec: WireCodec,
    /// The document slab: parallel vectors, one entry per slot.
    docs: Vec<DocId>,
    rank: Vec<f64>,
    advertised: Vec<f64>,
    pending: Vec<f64>,
    /// Whether a slot is on the dirty queue: the one source of truth, so
    /// the queue never holds duplicates (a queued slot's pending mass may
    /// sit at exactly zero, and a deferred one stays queued across steps).
    queued: Vec<bool>,
    /// Slot `s`'s out-links are `links[first[s]..first[s + 1]]`: the
    /// target and the peer holding it (the Sec. 3.2 address-cache
    /// entry), resolved into `codes` over the same range.
    first: Vec<u32>,
    links: Vec<(DocId, PeerId)>,
    codes: Vec<u32>,
    /// Rebuildable side-indexes into the slab.
    doc_index: FxHashMap<DocId, u32>,
    /// Frame-entry demultiplexer: 64-bit tag -> slab slot.
    tag_index: FxHashMap<u64, u32>,
    /// Set when slab membership or link holders changed; `codes` is
    /// rebuilt on the next step.
    links_dirty: bool,
    /// The distinct remote targets of the out-links (rebuildable, like
    /// the indexes above).
    remote: Vec<RemoteTarget>,
    /// Slots with queued work, processed on the next step.
    dirty: Vec<u32>,
    /// Payloads of standalone [`PeerNode::step`] calls, until drained.
    outbox: Vec<(PeerId, Bytes)>,
    stats: NodeStats,
    /// Payloads folded in since the last step — the event runtime's
    /// bounded-inbox depth. Always zero under round-driven stepping
    /// (rounds deliver through [`PeerNode::handle_message_with`]).
    arrivals_since_step: u32,
    /// Cumulative advertised delta of dangling (out-degree 0)
    /// documents — the damping sink's term of the flight recorder's
    /// conserved potential Φ (stays with the node across document
    /// handoffs; the cluster ledger sums it over all nodes).
    dangling_advertised: f64,
}

impl PeerNode {
    /// A node with no documents and an explicit wire mode.
    pub fn with_wire(id: PeerId, cfg: EngineConfig, wire: WireMode) -> Self {
        PeerNode::sized(id, cfg, wire, 0, 0)
    }

    /// [`PeerNode::with_wire`] with room for `docs` documents holding
    /// `links` out-links, so that a bulk build grows nothing.
    pub(crate) fn sized(
        id: PeerId,
        cfg: EngineConfig,
        wire: WireMode,
        docs: usize,
        links: usize,
    ) -> Self {
        let mut first = Vec::with_capacity(docs + 1);
        first.push(0);
        PeerNode {
            id,
            cfg,
            wire,
            codec: WireCodec::Raw,
            docs: Vec::with_capacity(docs),
            rank: Vec::with_capacity(docs),
            advertised: Vec::with_capacity(docs),
            pending: Vec::with_capacity(docs),
            queued: Vec::with_capacity(docs),
            first,
            links: Vec::with_capacity(links),
            codes: Vec::new(),
            doc_index: FxHashMap::with_capacity_and_hasher(docs, Default::default()),
            tag_index: FxHashMap::with_capacity_and_hasher(docs, Default::default()),
            links_dirty: false,
            remote: Vec::new(),
            dirty: Vec::with_capacity(docs),
            outbox: Vec::new(),
            stats: NodeStats::default(),
            arrivals_since_step: 0,
            dangling_advertised: 0.0,
        }
    }

    /// Sets the frame codec for subsequent flushes (receiving is
    /// codec-agnostic: any node accepts raw and compact frames alike).
    pub fn set_codec(&mut self, codec: WireCodec) {
        self.codec = codec;
    }

    /// Number of documents stored here.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// The node's counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// This node's mass-ledger terms, summed over its document slab
    /// plus the cumulative dangling sink — the flight recorder's
    /// conserved-potential inputs. O(docs) scan: call at round
    /// boundaries (the cluster gates it on `Recorder::enabled`).
    pub fn mass_breakdown(&self) -> dpr_telemetry::MassBreakdown {
        let mut mb = dpr_telemetry::MassBreakdown {
            dangling: self.dangling_advertised,
            ..Default::default()
        };
        for s in 0..self.docs.len() {
            mb.ranks += self.rank[s];
            mb.unadvertised += self.rank[s] - self.advertised[s];
            mb.pending += self.pending[s];
        }
        mb
    }

    /// The largest relative residual over this node's documents:
    /// `|pending + rank − advertised| / max(|rank|, MIN_POSITIVE)` —
    /// the same relative criterion the ε re-advertisement check uses,
    /// so at quiescence it is at most ε.
    pub fn max_relative_residual(&self) -> f64 {
        (0..self.docs.len())
            .map(|s| {
                let rank = self.rank[s];
                (self.pending[s] + rank - self.advertised[s]).abs()
                    / rank.abs().max(f64::MIN_POSITIVE)
            })
            .fold(0.0, f64::max)
    }

    /// Adds a document this peer stores, with its out-links and their
    /// holders. Seeds the base rank `(1 − d)` as the initial pending
    /// increment, as the engine does.
    ///
    /// # Panics
    ///
    /// Panics if the document is already stored here.
    pub fn add_document(&mut self, doc: DocId, out: Vec<(DocId, PeerId)>) {
        self.push_document(doc, out);
    }

    /// [`PeerNode::add_document`] from any link stream: the bulk path
    /// of [`Cluster::build_with`](crate::cluster::Cluster::build_with), which
    /// never materializes a per-document link vector. Appends a slab
    /// slot holding the base rank as pending and registers it in every
    /// side-index, rejecting duplicates and the ~2^-64 event of a
    /// same-peer 64-bit frame-tag collision (a colliding frame entry
    /// would silently credit the wrong document).
    pub(crate) fn push_document(
        &mut self,
        doc: DocId,
        out: impl IntoIterator<Item = (DocId, PeerId)>,
    ) {
        let slot = self.docs.len() as u32;
        let prev = self.doc_index.insert(doc, slot);
        assert!(
            prev.is_none(),
            "document {doc} already stored on {}",
            self.id
        );
        let prev_tag = self
            .tag_index
            .insert(Guid::for_document(doc).frame_tag(), slot);
        assert!(
            prev_tag.is_none(),
            "frame tag collision between {doc} and {} on {}",
            self.docs[prev_tag.unwrap() as usize],
            self.id
        );
        self.docs.push(doc);
        self.rank.push(0.0);
        self.advertised.push(0.0);
        self.pending.push(1.0 - self.cfg.damping);
        self.queued.push(true);
        self.links.extend(out);
        assert!(self.links.len() < REMOTE as usize, "too many links");
        self.first.push(self.links.len() as u32);
        self.links_dirty = true;
        self.dirty.push(slot);
    }

    /// Slot `s`'s range in the link array.
    fn out_range(&self, s: usize) -> std::ops::Range<usize> {
        self.first[s] as usize..self.first[s + 1] as usize
    }

    /// Rebuilds the resolved link codes — runs at the start of the
    /// next step after slab membership or link holders changed,
    /// restoring the no-hash-lookup emit path.
    fn resolve_links(&mut self, sc: &mut StepScratch) {
        self.links_dirty = false;
        let (id, doc_index, remote) = (self.id, &self.doc_index, &mut self.remote);
        remote.clear();
        self.codes.clear();
        self.codes
            .extend(self.links.iter().map(|&(target, holder)| {
                if holder == id {
                    return *doc_index
                        .get(&target)
                        .expect("locally-held link target stored on this peer");
                }
                REMOTE
                    | *sc.remote_ix.entry((target, holder)).or_insert_with(|| {
                        remote.push(RemoteTarget {
                            doc: target,
                            holder,
                            tag: Guid::for_document(target).frame_tag(),
                        });
                        remote.len() as u32 - 1
                    })
            }));
        remote.shrink_to_fit();
        sc.remote_ix.clear();
    }

    /// Current rank of a local document, if stored here.
    pub fn rank_of(&self, doc: DocId) -> Option<f64> {
        self.doc_index.get(&doc).map(|&s| self.rank[s as usize])
    }

    /// Every stored document with its current rank, in slab order.
    pub fn doc_ranks(&self) -> impl Iterator<Item = (DocId, f64)> + '_ {
        self.docs.iter().copied().zip(self.rank.iter().copied())
    }

    /// Handles one incoming wire payload in place, in whichever frame
    /// codec [`PayloadKind::of`] finds it.
    ///
    /// A frame is atomic: every entry must validate and resolve before
    /// any is applied (a malformed payload outranks an unknown
    /// document); then they fold into `pending` in entry order, one
    /// addition per entry, compact values widened `f32 → f64`.
    pub fn handle_message_with(
        &mut self,
        sc: &mut StepScratch,
        payload: &[u8],
    ) -> Result<(), MessageError> {
        sc.resolved.clear();
        let (resolved, mut unknown) = (&mut sc.resolved, None);
        let walked = match PayloadKind::of(payload) {
            PayloadKind::Compact => {
                CompactFrameWire::visit(payload, |e| match self.doc_index.get(&DocId(e.doc)) {
                    Some(&slot) => resolved.push((slot, f64::from(e.value))),
                    None => {
                        let guid = Guid::for_document(DocId(e.doc));
                        unknown.get_or_insert(MessageError::UnknownGuid(guid));
                    }
                })
            }
            PayloadKind::Raw => {
                UpdateFrameWire::visit(payload, |e| match self.tag_index.get(&e.tag) {
                    Some(&slot) => resolved.push((slot, e.value)),
                    None => {
                        unknown.get_or_insert(MessageError::UnknownTag(e.tag));
                    }
                })
            }
        };
        if let Some(err) = walked.err().map(MessageError::Wire).or(unknown) {
            self.stats.rejected += 1;
            return Err(err);
        }
        self.stats.received += sc.resolved.len() as u64;
        for &(slot, delta) in &sc.resolved {
            self.apply_slot(slot, delta);
        }
        Ok(())
    }

    /// Event-driven delivery: [`PeerNode::handle_message_with`] plus
    /// the bounded un-stepped arrival depth. Returns
    /// [`DeliverStatus::Saturated`] once [`DEFAULT_INBOX_CAP`] payloads
    /// have arrived since the last step — the backpressure signal to
    /// step this node now instead of stretching its coalescing window.
    pub fn on_deliver(
        &mut self,
        sc: &mut StepScratch,
        payload: &[u8],
    ) -> Result<DeliverStatus, MessageError> {
        self.handle_message_with(sc, payload)?;
        self.arrivals_since_step += 1;
        self.stats.inbox_hwm = self.stats.inbox_hwm.max(self.arrivals_since_step as u64);
        if self.arrivals_since_step as usize >= DEFAULT_INBOX_CAP {
            Ok(DeliverStatus::Saturated)
        } else {
            Ok(DeliverStatus::Accepted)
        }
    }

    /// Applies a local increment (same-peer updates and the insert /
    /// delete protocols use this path — no wire round trip).
    pub fn apply(&mut self, doc: DocId, delta: f64) {
        let slot = *self.doc_index.get(&doc).expect("document not stored here");
        self.apply_slot(slot, delta);
    }

    /// The slab-slot increment path shared by every apply route.
    fn apply_slot(&mut self, slot: u32, delta: f64) {
        let s = slot as usize;
        if !self.queued[s] && delta != 0.0 {
            self.queued[s] = true;
            self.dirty.push(slot);
        }
        self.pending[s] += delta;
    }

    /// Whether this node has pending work (deferred documents count).
    pub fn has_work(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Swaps this step's work out of the dirty queue into `sc.work`
    /// (neither side re-grows). Under [`SchedMode::Pass`] that is the whole
    /// queue; under [`SchedMode::Priority`] the highest-residual whole
    /// buckets meeting the budget, ordered highest bucket first (ties
    /// by slot) so flushes fill with high-value increments first; under
    /// [`SchedMode::Greedy`] the matching-pursuit prefix, already in
    /// score-descending order for the same flush-fill property.
    /// Deferred slots are parked in `sc.deferred` with their pending
    /// mass untouched.
    fn take_step_work(&mut self, sc: &mut StepScratch) -> SchedStats {
        debug_assert!(sc.work.is_empty() && sc.deferred.is_empty());
        std::mem::swap(&mut self.dirty, &mut sc.work);
        let work = &mut sc.work;
        if self.cfg.sched == SchedMode::Pass {
            return SchedStats::full_sweep(work.len());
        }
        // Canonical order: the selection must be a function of the
        // dirty *set*, not of arrival order (see sched module docs).
        work.sort_unstable();
        let (pending, rank, advertised) = (&self.pending, &self.rank, &self.advertised);
        let residual = |s: u32| {
            let s = s as usize;
            pending[s] + rank[s] - advertised[s]
        };
        match self.cfg.sched {
            SchedMode::Pass => unreachable!("handled above"),
            SchedMode::Priority => {
                let sel = partition_by_residual(work, &mut sc.deferred, &mut sc.buckets, residual);
                work.sort_by_cached_key(|&s| (Reverse(residual_bucket(residual(s))), s));
                sel
            }
            SchedMode::Greedy => {
                partition_by_greedy(work, &mut sc.deferred, &mut sc.keys, residual, |s| {
                    self.out_range(s as usize).len()
                })
            }
        }
    }

    /// [`PeerNode::step_with`] with a scratch of its own, the payloads
    /// left for [`PeerNode::drain_outbox`]: a node outside any cluster.
    pub fn step(&mut self) {
        let mut sc = StepScratch::default();
        self.step_with(&mut sc, &NOOP);
        self.outbox.append(&mut sc.outbox);
    }

    /// One local pass: apply every selected pending increment, then
    /// emit updates for documents whose rank moved more than ε. Remote
    /// emissions coalesce per target and group per destination in
    /// `sc`, and leave in `sc.outbox` at pass end packed into frames of
    /// at most [`WireMode::max_frame_bytes`]. Same-peer updates are
    /// applied directly (visible on the *next* step, matching the
    /// engine's two-phase pass). `rec` sees the flush-occupancy
    /// distribution (coalesced entries per destination), the
    /// remote/local/frame counters and the selective schedulers' queue
    /// series; the protocol never sees `rec`.
    pub fn step_with<R: Recorder + ?Sized>(&mut self, sc: &mut StepScratch, rec: &R) {
        if self.links_dirty {
            self.resolve_links(sc);
        }
        self.arrivals_since_step = 0;
        let before = self.stats;
        let sel = self.take_step_work(sc);
        if rec.enabled() && self.cfg.sched.is_selective() {
            rec.observe(Metric::SchedQueueDepth, sel.queued);
            rec.observe(Metric::SchedDeferredDocs, sel.deferred);
            rec.observe(
                Metric::SchedBudgetPermille,
                (sel.budget_hit * 1000.0) as u64,
            );
        }
        // Phase 1: apply.
        sc.senders.clear();
        for &slot in &sc.work {
            let s = slot as usize;
            self.queued[s] = false;
            let rank = self.rank[s] + std::mem::take(&mut self.pending[s]);
            self.rank[s] = rank;
            let rel = (rank - self.advertised[s]).abs() / rank.abs().max(f64::MIN_POSITIVE);
            if rel > self.cfg.epsilon {
                sc.senders.push((slot, rank));
            }
        }
        sc.work.clear();
        // Phase 2: send, walking each sender's range of the link array.
        sc.begin(self.remote.len());
        for k in 0..sc.senders.len() {
            let (slot, rank) = sc.senders[k];
            let s = slot as usize;
            let moved = rank - self.advertised[s];
            self.advertised[s] = rank;
            let out = self.out_range(s);
            if out.is_empty() {
                self.dangling_advertised += moved;
                continue;
            }
            let send = self.cfg.damping * moved / out.len() as f64;
            for i in out {
                let code = self.codes[i];
                if code & REMOTE == 0 {
                    self.apply_slot(code, send);
                    self.stats.local_updates += 1;
                } else {
                    sc.emit(code & !REMOTE, &self.remote, send);
                    self.stats.emitted_remote += 1;
                }
            }
        }
        // Deferred documents rejoin the queue behind any work phase 2
        // freshly produced; they kept `queued` and their pending mass.
        self.dirty.append(&mut sc.deferred);
        // Phase 3: flush-on-pass-end. Destinations leave in
        // first-touch order, entries within a destination in
        // first-emission order — the canonical fold order every codec
        // and cap serializes; the size cap splits an oversized run.
        sc.group(&self.remote);
        let (remote, mut start) = (&self.remote, 0);
        let cap = max_entries_for(self.wire.max_frame_bytes);
        for &to in &sc.dest_order {
            let end = sc.dests[to.index()].1 as usize;
            let run = &sc.grouped[std::mem::replace(&mut start, end)..end];
            if rec.enabled() {
                rec.observe(Metric::FlushOccupancy, run.len() as u64);
            }
            self.stats.sent_remote += run.len() as u64;
            for frame in run.chunks(cap) {
                let payload = match self.codec {
                    WireCodec::Raw => UpdateFrameWire::encode_entries(
                        &mut sc.wire,
                        frame.iter().map(|&(t, value)| FrameEntry {
                            tag: remote[t as usize].tag,
                            value,
                        }),
                    ),
                    WireCodec::Compact => {
                        sc.compact.clear();
                        sc.compact
                            .extend(frame.iter().map(|&(t, value)| CompactEntry {
                                doc: remote[t as usize].doc.0,
                                value: value as f32,
                            }));
                        sc.compact.sort_unstable_by_key(|e| e.doc);
                        CompactFrameWire::encode_entries(&mut sc.wire, &sc.compact)
                    }
                };
                self.stats.frames_sent += 1;
                sc.outbox.push((to, payload));
            }
        }
        if rec.enabled() {
            rec.counter_add(
                Metric::RemoteUpdates,
                self.stats.emitted_remote - before.emitted_remote,
            );
            rec.counter_add(
                Metric::LocalUpdates,
                self.stats.local_updates - before.local_updates,
            );
            rec.counter_add(
                Metric::FramesSent,
                self.stats.frames_sent - before.frames_sent,
            );
        }
    }

    /// Drains the outbox of standalone [`PeerNode::step`] calls:
    /// `(destination peer, encoded message)` pairs.
    pub fn drain_outbox(&mut self) -> Vec<(PeerId, Bytes)> {
        std::mem::take(&mut self.outbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_p2p::transport::{frame_wire_bytes, RankUpdateWire, RANK_UPDATE_WIRE_BYTES};

    fn cfg(eps: f64) -> EngineConfig {
        EngineConfig::with_epsilon(eps)
    }

    /// An empty node of peer `p` framing at the default cap.
    fn peer(p: u32, eps: f64) -> PeerNode {
        PeerNode::with_wire(PeerId(p), cfg(eps), WireMode::frames())
    }

    /// Handles one payload with a scratch of its own.
    fn handle(n: &mut PeerNode, payload: &[u8]) -> Result<(), MessageError> {
        n.handle_message_with(&mut StepScratch::default(), payload)
    }

    #[test]
    fn add_and_query_documents() {
        let mut n = peer(0, 1e-3);
        n.add_document(DocId(1), vec![(DocId(2), PeerId(1))]);
        assert_eq!(n.num_docs(), 1);
        assert_eq!(n.rank_of(DocId(1)), Some(0.0));
        assert_eq!(n.rank_of(DocId(9)), None);
        assert!(n.has_work(), "base rank is pending");
    }

    #[test]
    #[should_panic(expected = "already stored")]
    fn duplicate_document_rejected() {
        let mut n = peer(0, 1e-3);
        n.add_document(DocId(1), vec![]);
        n.add_document(DocId(1), vec![]);
    }

    #[test]
    fn step_applies_base_and_emits_wire_messages() {
        let mut n = peer(0, 1e-6);
        n.add_document(DocId(1), vec![(DocId(2), PeerId(1)), (DocId(3), PeerId(0))]);
        n.add_document(DocId(3), vec![]);
        n.step();
        let r = n.rank_of(DocId(1)).unwrap();
        assert!((r - 0.15).abs() < 1e-12);
        let out = n.drain_outbox();
        assert_eq!(out.len(), 1, "one remote target");
        assert_eq!(out[0].0, PeerId(1));
        assert_eq!(out[0].1.len(), frame_wire_bytes(1), "one-entry frame");
        // The same-peer update landed on doc 3's pending.
        assert!(n.has_work());
        let s = n.stats();
        assert_eq!(s.sent_remote, 1);
        assert_eq!(s.local_updates, 1);
    }

    /// `(doc, delta)` updates as one raw frame, in the given order.
    fn raw_frame(updates: impl IntoIterator<Item = (u32, f64)>) -> Bytes {
        let entries = updates.into_iter().map(|(doc, value)| FrameEntry {
            tag: Guid::for_document(DocId(doc)).frame_tag(),
            value,
        });
        UpdateFrameWire {
            entries: entries.collect(),
        }
        .encode()
    }

    /// One update as a one-entry raw frame.
    fn one(doc: u32, delta: f64) -> Bytes {
        raw_frame([(doc, delta)])
    }

    #[test]
    fn handle_message_applies_increment() {
        let mut n = peer(1, 1e-6);
        n.add_document(DocId(2), vec![]);
        n.step(); // absorb base rank
        handle(&mut n, &one(2, 0.25)).unwrap();
        assert!(n.has_work());
        n.step();
        let r = n.rank_of(DocId(2)).unwrap();
        assert!((r - 0.40).abs() < 1e-12);
        assert_eq!(n.stats().received, 1);
    }

    #[test]
    fn unknown_guid_rejected_and_counted() {
        // A compact entry names its document by id: a stranger's id is
        // reported by the document's GUID.
        let mut n = peer(1, 1e-3);
        n.add_document(DocId(2), vec![]);
        let entry = CompactEntry {
            doc: 99,
            value: 0.25,
        };
        let err = handle(&mut n, &CompactFrameWire::new(vec![entry]).encode()).unwrap_err();
        assert_eq!(
            err,
            MessageError::UnknownGuid(Guid::for_document(DocId(99)))
        );
        assert_eq!(n.stats().rejected, 1);
    }

    #[test]
    fn malformed_payload_rejected() {
        let mut n = peer(1, 1e-3);
        assert!(handle(&mut n, &Bytes::from_static(b"junk")).is_err());
        assert_eq!(n.stats().rejected, 1);
    }

    #[test]
    fn frames_mode_coalesces_per_destination() {
        // Two docs on peer 0 both link to docs on peer 1, one of them
        // twice to the same target: one frame, coalesced entries.
        let mut n = peer(0, 1e-6);
        n.add_document(
            DocId(1),
            vec![(DocId(10), PeerId(1)), (DocId(11), PeerId(1))],
        );
        n.add_document(DocId(2), vec![(DocId(10), PeerId(1))]);
        n.step();
        let out = n.drain_outbox();
        assert_eq!(out.len(), 1, "one destination -> one frame");
        assert_eq!(out[0].0, PeerId(1));
        // Two coalesced entries (docs 10 and 11): 4 + 16*2 bytes.
        assert_eq!(out[0].1.len(), 4 + 16 * 2);
        let s = n.stats();
        assert_eq!(s.emitted_remote, 3, "logical updates, pre-coalescing");
        assert_eq!(s.sent_remote, 2, "coalesced entries on the wire");
        assert_eq!(s.frames_sent, 1);

        // The receiver resolves and folds both entries.
        let mut m = peer(1, 1e-6);
        m.add_document(DocId(10), vec![]);
        m.add_document(DocId(11), vec![]);
        m.step(); // absorb base
        let (r10, r11) = (m.rank_of(DocId(10)).unwrap(), m.rank_of(DocId(11)).unwrap());
        handle(&mut m, &out.into_iter().next().unwrap().1).unwrap();
        assert_eq!(m.stats().received, 2);
        m.step();
        // doc 10 got 0.85*0.15/2 (from doc 1) + 0.85*0.15 (from doc 2).
        let exp10 = 0.85 * 0.15 / 2.0 + 0.85 * 0.15;
        assert!((m.rank_of(DocId(10)).unwrap() - r10 - exp10).abs() < 1e-12);
        assert!((m.rank_of(DocId(11)).unwrap() - r11 - 0.85 * 0.15 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn frame_size_cap_splits_the_flush() {
        // Cap fits one entry per frame: two targets -> two frames.
        let mut n = PeerNode::with_wire(
            PeerId(0),
            cfg(1e-6),
            WireMode {
                max_frame_bytes: 20,
            },
        );
        n.add_document(
            DocId(1),
            vec![(DocId(10), PeerId(1)), (DocId(11), PeerId(1))],
        );
        n.step();
        let out = n.drain_outbox();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(p, b)| *p == PeerId(1) && b.len() == 20));
        assert_eq!(n.stats().frames_sent, 2);
    }

    #[test]
    fn frame_with_unknown_tag_is_rejected_atomically() {
        let mut n = peer(1, 1e-6);
        n.add_document(DocId(2), vec![]);
        n.step();
        let err = handle(&mut n, &raw_frame([(2, 0.5), (99, 0.5)])).unwrap_err();
        assert!(matches!(err, MessageError::UnknownTag(_)));
        assert_eq!(n.stats().rejected, 1);
        assert!(!n.has_work(), "no entry applied from a bad frame");
    }

    #[test]
    fn compact_node_accepts_raw_frames_too() {
        // The codec governs sending; any node receives either codec.
        let mut n = peer(1, 1e-6);
        n.set_codec(WireCodec::Compact);
        n.add_document(DocId(2), vec![]);
        n.step();
        handle(&mut n, &one(2, 0.25)).unwrap();
        n.step();
        assert!((n.rank_of(DocId(2)).unwrap() - 0.40).abs() < 1e-12);
    }

    #[test]
    fn one_entry_frames_coalesce_before_sending() {
        // Two docs linking the same remote target: one coalesced entry,
        // not two, even at one entry per payload — aggregation is part
        // of the protocol at every cap, so ranks cannot depend on it.
        let one_entry = WireMode { max_frame_bytes: 0 };
        let mut n = PeerNode::with_wire(PeerId(0), cfg(1e-6), one_entry);
        n.add_document(DocId(1), vec![(DocId(10), PeerId(1))]);
        n.add_document(DocId(2), vec![(DocId(10), PeerId(1))]);
        n.step();
        let out = n.drain_outbox();
        assert_eq!(out.len(), 1, "coalesced into one payload");
        assert_eq!(out[0].1.len(), frame_wire_bytes(1));
        assert_eq!(n.stats().emitted_remote, 2, "logical updates still 2");
        assert_eq!(n.stats().sent_remote, 1, "one coalesced entry on the wire");
        assert_eq!(n.stats().frames_sent, 1);
        // The payload carries the sum of both contributions.
        let mut m = peer(1, 1e-6);
        m.add_document(DocId(10), vec![]);
        m.step();
        handle(&mut m, &out.into_iter().next().unwrap().1).unwrap();
        m.step();
        let exp = 0.85 * 0.15 + 0.85 * 0.15;
        assert!((m.rank_of(DocId(10)).unwrap() - 0.15 - exp).abs() < 1e-12);
    }

    #[test]
    fn on_deliver_saturates_at_the_inbox_cap_and_steps_reset_it() {
        let mut n = peer(1, 1e-6);
        n.add_document(DocId(2), vec![]);
        n.step(); // absorb base
        let mut sc = StepScratch::default();
        for i in 0..DEFAULT_INBOX_CAP {
            let status = n.on_deliver(&mut sc, &one(2, 1e-3)).unwrap();
            if i + 1 < DEFAULT_INBOX_CAP {
                assert_eq!(status, DeliverStatus::Accepted, "arrival {i}");
            } else {
                assert_eq!(status, DeliverStatus::Saturated, "arrival {i}");
            }
        }
        assert_eq!(n.arrivals_since_step as usize, DEFAULT_INBOX_CAP);
        n.step();
        assert_eq!(n.arrivals_since_step, 0, "step resets the arrival bound");
        assert_eq!(
            n.on_deliver(&mut sc, &one(2, 1e-3)).unwrap(),
            DeliverStatus::Accepted
        );
        // Every delivery was folded in: received counts all of them.
        assert_eq!(n.stats().received, DEFAULT_INBOX_CAP as u64 + 1);
    }

    #[test]
    fn epsilon_suppresses_tiny_changes() {
        let mut n = peer(0, 0.5);
        n.add_document(DocId(1), vec![(DocId(2), PeerId(1))]);
        n.step(); // rel change = 1 > 0.5: sends
        assert_eq!(n.drain_outbox().len(), 1);
        // A tiny further increment: rel << 0.5, no send.
        n.apply(DocId(1), 1e-6);
        n.step();
        assert!(n.drain_outbox().is_empty());
    }

    #[test]
    fn exact_cancellation_does_not_duplicate_queue_entries() {
        // pending returns to exactly 0.0 while queued; a later apply
        // must not enqueue the slot a second time.
        let mut n = peer(0, 1e-6);
        n.add_document(DocId(1), vec![]);
        n.apply(DocId(1), -(1.0 - 0.85)); // cancels the seeded base exactly
        n.apply(DocId(1), 0.25);
        n.step();
        assert!(!n.has_work());
        assert!((n.rank_of(DocId(1)).unwrap() - 0.25).abs() < 1e-15);
    }

    fn priority_cfg(eps: f64) -> EngineConfig {
        EngineConfig::with_epsilon(eps).with_sched(SchedMode::Priority)
    }

    #[test]
    fn priority_step_defers_low_residual_docs() {
        // 200 isolated docs with geometrically spread extra pending:
        // one step over the bypass threshold must select the heavy
        // buckets and park the tail with its mass intact.
        let mut n = PeerNode::with_wire(PeerId(0), priority_cfg(1e-12), WireMode::frames());
        for i in 0..200u32 {
            n.add_document(DocId(i), vec![]);
        }
        n.step(); // absorb the uniform base rank
        assert!(!n.has_work());
        for i in 0..200u32 {
            n.apply(DocId(i), 2.0f64.powi(-(i as i32 % 24)));
        }
        let mass_before: f64 = (0..200u32)
            .map(|i| 2.0f64.powi(-(i as i32 % 24)) + 0.15)
            .sum();
        n.step();
        assert!(n.has_work(), "low buckets deferred past the first step");
        // Deferred mass is never lost: keep stepping until quiescent
        // and every doc ends at base + its injected increment.
        let mut steps = 0;
        while n.has_work() {
            n.step();
            steps += 1;
            assert!(steps < 100, "priority steps must drain the queue");
        }
        let mass_after: f64 = (0..200u32).map(|i| n.rank_of(DocId(i)).unwrap()).sum();
        assert!((mass_after - mass_before).abs() < 1e-9, "mass conserved");
    }

    #[test]
    fn priority_flush_fills_highest_residual_first() {
        // 100 remote-linking docs, one with a much larger residual:
        // the first payload out must carry that doc's update.
        let mut n = PeerNode::with_wire(PeerId(0), priority_cfg(1e-12), WireMode::frames());
        for i in 0..100u32 {
            n.add_document(DocId(i), vec![(DocId(1000 + i), PeerId(1))]);
        }
        n.apply(DocId(42), 64.0);
        n.step();
        let out = n.drain_outbox();
        assert!(!out.is_empty());
        let frame = UpdateFrameWire::decode(out[0].1.clone()).unwrap();
        assert_eq!(
            frame.entries[0].tag,
            Guid::for_document(DocId(1042)).frame_tag(),
            "highest-residual doc flushes first"
        );
    }

    /// The pre-scratch node as a reference model: phase 1 and the send
    /// arithmetic spelled out, every emission pushed into one
    /// [`FlushBuffer`] per destination peer, flushed in first-touch
    /// order through the `UpdateFrame` / `*Wire` intermediates.
    /// `(rank, advertised, pending, out-links)` of one document.
    type ModelDoc = (f64, f64, f64, Vec<(DocId, PeerId)>);

    struct ModelNode {
        wire: WireMode,
        codec: WireCodec,
        docs: Vec<ModelDoc>,
        stats: NodeStats,
    }

    impl ModelNode {
        fn step(&mut self, eps: f64) -> Vec<(PeerId, Bytes)> {
            use dpr_core::message::FlushBuffer;
            let mut flush: std::collections::HashMap<PeerId, FlushBuffer> = Default::default();
            let mut order = Vec::new();
            for (rank, advertised, pending, out) in &mut self.docs {
                *rank += std::mem::take(pending);
                let rel = (*rank - *advertised).abs() / rank.abs().max(f64::MIN_POSITIVE);
                if rel <= eps || out.is_empty() {
                    continue;
                }
                let send = 0.85 * (*rank - *advertised) / out.len() as f64;
                *advertised = *rank;
                for &(target, holder) in out.iter() {
                    let buf = flush.entry(holder).or_insert_with(|| {
                        order.push(holder);
                        FlushBuffer::new()
                    });
                    buf.push(target, send);
                    self.stats.emitted_remote += 1;
                }
            }
            let mut outbox = Vec::new();
            for dst in order {
                let buf = flush.get_mut(&dst).unwrap();
                for frame in buf.flush(self.wire.max_frame_bytes) {
                    self.stats.sent_remote += frame.updates.len() as u64;
                    match self.codec {
                        WireCodec::Raw => {
                            let updates = frame.updates.iter().map(|u| (u.doc.0, u.delta));
                            outbox.push((dst, raw_frame(updates)));
                        }
                        WireCodec::Compact => {
                            let entries = frame.updates.iter().map(|u| CompactEntry {
                                doc: u.doc.0,
                                value: u.delta as f32,
                            });
                            outbox.push((dst, CompactFrameWire::new(entries.collect()).encode()));
                        }
                    }
                    self.stats.frames_sent += 1;
                }
            }
            outbox
        }
    }

    proptest::proptest! {
        /// The scratch emit path against the `FlushBuffer` model: same
        /// destination order, entry order, value bits and frame split
        /// points — byte-identical payloads — for arbitrary link
        /// shapes and frame caps (the 1-entry cap included), in both
        /// codecs, with one scratch lent to two nodes in turn over
        /// several steps.
        #[test]
        fn emit_path_matches_the_flush_buffer_model(
            shapes in proptest::collection::vec(
                proptest::collection::vec((0u32..24, 1u32..6), 0..14), 1..9),
            extras in proptest::collection::vec(0.01f64..3.0, 27..28),
            max_frame_bytes in 0usize..120,
            compact in proptest::prelude::any::<bool>(),
            steps in 1usize..4,
        ) {
            let wire = WireMode { max_frame_bytes };
            let codec = if compact { WireCodec::Compact } else { WireCodec::Raw };
            // Node B holds the same documents with reversed link lists.
            let mut pairs = Vec::new();
            for reversed in [false, true] {
                let mut node = PeerNode::with_wire(PeerId(0), cfg(1e-9), wire);
                node.set_codec(codec);
                let mut model = ModelNode { wire, codec, docs: Vec::new(), stats: NodeStats::default() };
                for (d, shape) in shapes.iter().enumerate() {
                    let mut out: Vec<(DocId, PeerId)> =
                        shape.iter().map(|&(t, h)| (DocId(100 + t), PeerId(h))).collect();
                    if reversed {
                        out.reverse();
                    }
                    node.add_document(DocId(d as u32), out.clone());
                    model.docs.push((0.0, 0.0, 1.0 - 0.85, out));
                }
                pairs.push((node, model));
            }
            let mut sc = StepScratch::default();
            let mut extra = extras.iter().cycle();
            for _ in 0..steps {
                for (node, model) in &mut pairs {
                    node.step_with(&mut sc, &NOOP);
                    let got: Vec<(PeerId, Bytes)> = sc.outbox.drain(..).collect();
                    proptest::prop_assert_eq!(got, model.step(1e-9));
                    proptest::prop_assert_eq!(node.stats(), model.stats);
                    // Fresh increments for the next step, in doc order.
                    for (d, doc) in model.docs.iter_mut().enumerate() {
                        let x = *extra.next().unwrap();
                        node.apply(DocId(d as u32), x);
                        doc.2 += x;
                    }
                }
            }
        }

        /// In-place payload handling against `decode` plus the resolve
        /// loop it replaced, on well-formed payloads, truncations, bit
        /// flips, NaN values, unknown documents and noise: the same
        /// `Ok` / `Err`, one `rejected` per refusal, and an unknown tag
        /// or bad value anywhere in a frame leaves every `pending`
        /// untouched. Kind 0 is the paper's 24-byte single update,
        /// which no node sends: it is refused as a wire error.
        #[test]
        fn in_place_handling_matches_decode_then_resolve(
            kind in 0u8..3,
            entries in proptest::collection::vec((0u32..40, -2.0f64..2.0), 1..30),
            mutation in 0u8..5,
            at in 0usize..4096,
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..60),
        ) {
            // Documents 0..32 are stored here; 32..40 are strangers.
            let mut node = peer(1, 1e-9);
            let mut model = peer(1, 1e-9);
            for d in 0..32u32 {
                node.add_document(DocId(d), vec![]);
                model.add_document(DocId(d), vec![]);
            }
            let mut bytes = match kind {
                0 => {
                    let (doc, value) = entries[0];
                    RankUpdateWire { guid: Guid::for_document(DocId(doc)).0, value }.encode()
                }
                1 => raw_frame(entries.iter().copied()),
                _ => {
                    let unique: std::collections::BTreeMap<u32, f32> =
                        entries.iter().map(|&(d, v)| (d, v as f32)).collect();
                    let entries = unique.into_iter().map(|(doc, value)| CompactEntry { doc, value });
                    CompactFrameWire::new(entries.collect()).encode()
                }
            }
            .to_vec();
            let n = bytes.len();
            match mutation {
                1 => bytes.truncate(at % (n + 1)),
                2 => bytes[at / 8 % n] ^= 1 << (at % 8),
                // A NaN in the last value field (single and raw).
                3 if kind < 2 => bytes[n - 8..].copy_from_slice(&f64::NAN.to_le_bytes()),
                4 => bytes = noise.clone(),
                _ => {}
            }
            let payload = Bytes::from(bytes);

            // The model: decode whole, resolve whole, then apply.
            let want: Result<Vec<(DocId, f64)>, MessageError> =
                if PayloadKind::of(&payload) == PayloadKind::Compact {
                    CompactFrameWire::decode(payload.clone())
                        .map_err(MessageError::Wire)
                        .and_then(|f| {
                            f.entries
                                .iter()
                                .map(|e| match e.doc {
                                    d if d < 32 => Ok((DocId(d), f64::from(e.value))),
                                    d => Err(MessageError::UnknownGuid(Guid::for_document(DocId(d)))),
                                })
                                .collect()
                        })
                } else {
                    UpdateFrameWire::decode(payload.clone())
                        .map_err(MessageError::Wire)
                        .and_then(|f| {
                            f.entries
                                .iter()
                                .map(|e| {
                                    (0..32)
                                        .map(DocId)
                                        .find(|&d| Guid::for_document(d).frame_tag() == e.tag)
                                        .map(|d| (d, e.value))
                                        .ok_or(MessageError::UnknownTag(e.tag))
                                })
                                .collect()
                        })
                };
            if payload.len() == RANK_UPDATE_WIRE_BYTES {
                proptest::prop_assert!(matches!(want, Err(MessageError::Wire(_))));
            }
            let got = handle(&mut node, &payload);
            proptest::prop_assert_eq!(got, want.as_ref().map(|_| ()).map_err(|e| *e));
            match &want {
                Ok(applied) => {
                    for &(doc, delta) in applied {
                        model.apply(doc, delta);
                    }
                    proptest::prop_assert_eq!(node.stats().received, applied.len() as u64);
                    proptest::prop_assert_eq!(node.stats().rejected, 0);
                }
                Err(_) => {
                    proptest::prop_assert_eq!(node.stats().received, 0);
                    proptest::prop_assert_eq!(node.stats().rejected, 1);
                }
            }
            // Bit-for-bit the model's state: nothing applied on `Err`,
            // the same per-document folds on `Ok`.
            node.step();
            model.step();
            for d in 0..32u32 {
                proptest::prop_assert_eq!(
                    node.rank_of(DocId(d)).unwrap().to_bits(),
                    model.rank_of(DocId(d)).unwrap().to_bits()
                );
            }
        }
    }
}
