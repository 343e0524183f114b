//! Message transport with store-and-resend and traffic accounting.
//!
//! Paper Sec. 3.1: "when a peer is detected as unavailable, update
//! messages are stored at the sender and periodically resent until
//! delivered successfully. In the worst case, the amount of state
//! saved scales linearly with the sum of outlinks in all documents in
//! a peer." [`Transport`] implements exactly that: sends to online
//! peers are enqueued in the destination inbox; sends to offline peers
//! are parked in a per-sender pending buffer and re-delivered by
//! [`Transport::retry_pending`] once the destination returns.
//!
//! Delivery is instantaneous (the paper's simulation does not model
//! network latency) but every message is counted, because message
//! counts are the paper's primary traffic metric (Table 3).

use crate::peer::{PeerId, PeerTable};
use bytes::Bytes;
use dpr_telemetry::{Metric, Recorder};
use std::collections::VecDeque;
use std::sync::Arc;

/// A message in flight or delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Sending peer.
    pub from: PeerId,
    /// Destination peer.
    pub to: PeerId,
    /// Application payload.
    pub payload: M,
}

/// Counters kept by the transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct TrafficStats {
    /// Messages handed to `send` (delivered or parked).
    pub sent: u64,
    /// Messages placed in a destination inbox.
    pub delivered: u64,
    /// Messages parked because the destination was offline.
    pub parked: u64,
    /// Parked messages successfully re-delivered.
    pub redelivered: u64,
    /// Retry attempts that found the destination still offline.
    pub retry_failures: u64,
    /// Payload bytes handed to `send`.
    pub bytes_sent: u64,
    /// Payload bytes placed in destination inboxes (first delivery and
    /// redelivery both count: a resent frame crosses the wire again).
    pub bytes_delivered: u64,
}

/// Payload byte size as it would appear on the wire, so the transport
/// can keep byte-accurate traffic counters for any payload type.
pub trait WireSize {
    /// Serialized size of this payload in bytes.
    fn wire_bytes(&self) -> usize;
}

impl WireSize for Bytes {
    fn wire_bytes(&self) -> usize {
        self.len()
    }
}

/// The transport corruptions `dpr doctor --inject-fault` can stage to
/// prove the audit monitors fire. Each fault breaks exactly one
/// protocol promise: `MassLeak` corrupts a rank value in flight (mass
/// conservation), `DupFrame` delivers one payload twice (message
/// balance), `LostFrame` drops one payload after counting it sent
/// (quiescence certification — Safra's token never returns to zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Corrupt the first rank value of one payload in flight.
    MassLeak,
    /// Deliver one payload twice.
    DupFrame,
    /// Silently drop one payload after counting it as sent.
    LostFrame,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::MassLeak => "mass-leak",
            FaultKind::DupFrame => "dup-frame",
            FaultKind::LostFrame => "lost-frame",
        })
    }
}

impl std::str::FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mass-leak" => Ok(FaultKind::MassLeak),
            "dup-frame" => Ok(FaultKind::DupFrame),
            "lost-frame" => Ok(FaultKind::LostFrame),
            other => Err(format!(
                "unknown fault {other:?} (expected \"mass-leak\", \"dup-frame\" or \"lost-frame\")"
            )),
        }
    }
}

/// One staged fault: corrupt the first corruptible send at or after
/// the `nth_send`-th (0-based). Deterministic by construction — the
/// send sequence is deterministic, so the same plan corrupts the same
/// payload on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// What to do to the victim payload.
    pub kind: FaultKind,
    /// 0-based send index at (or after) which to strike.
    pub nth_send: u64,
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    sends_seen: u64,
    fired_at: Option<u64>,
}

/// How a payload type participates in fault injection. The defaults
/// make every fault inert (`MassLeak`/`DupFrame` skip payloads they
/// cannot corrupt); [`Bytes`] implements the real corruptions.
pub trait FaultTarget: Sized {
    /// A copy of this payload for duplicate delivery.
    fn duplicate(&self) -> Option<Self> {
        None
    }

    /// A version of this payload whose first rank value is corrupted
    /// (kept structurally valid and finite, so receivers apply it
    /// instead of rejecting it — that is what makes the leak silent).
    fn leak_mass(&self) -> Option<Self> {
        None
    }
}

/// How much a [`FaultTarget::leak_mass`] corruption adds to the first
/// rank value of the victim payload — far above the mass auditor's
/// float tolerance, far below anything that would destabilize a run.
pub const MASS_LEAK_DELTA: f64 = 0.5;

impl FaultTarget for Bytes {
    fn duplicate(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn leak_mass(&self) -> Option<Self> {
        match PayloadKind::of(self) {
            PayloadKind::Compact => {
                let mut f = CompactFrameWire::decode(self.clone()).ok()?;
                let e = f.entries.first_mut()?;
                e.value += MASS_LEAK_DELTA as f32;
                e.value.is_finite().then(|| f.encode())
            }
            PayloadKind::Raw => {
                let mut f = UpdateFrameWire::decode(self.clone()).ok()?;
                let e = f.entries.first_mut()?;
                e.value += MASS_LEAK_DELTA;
                e.value.is_finite().then(|| f.encode())
            }
        }
    }
}

/// Per-peer inboxes plus the store-and-resend buffer.
pub struct Transport<M> {
    inboxes: Vec<VecDeque<Envelope<M>>>,
    /// Messages waiting for an offline destination, stored at the
    /// sender as the paper prescribes — kept per *sender*, whose
    /// worst-case state is bounded by the sum of its outlinks.
    pending: Vec<Vec<Envelope<M>>>,
    stats: TrafficStats,
    /// Optional telemetry recorder mirroring [`TrafficStats`] into the
    /// shared metric registry (`None` costs one branch per send).
    rec: Option<Arc<dyn Recorder>>,
    /// Staged fault, if any (`dpr doctor --inject-fault`).
    fault: Option<FaultState>,
}

impl<M: std::fmt::Debug> std::fmt::Debug for Transport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transport")
            .field("inboxes", &self.inboxes)
            .field("pending", &self.pending)
            .field("stats", &self.stats)
            .field("observed", &self.rec.is_some())
            .finish()
    }
}

impl<M> Transport<M> {
    /// A transport for `n` peers.
    pub fn new(n: usize) -> Self {
        Transport {
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            pending: (0..n).map(|_| Vec::new()).collect(),
            stats: TrafficStats::default(),
            rec: None,
            fault: None,
        }
    }

    /// Stages a deliberate corruption: the first corruptible send at
    /// or after `plan.nth_send` is struck (once). For proving that the
    /// audit monitors fire — never set on a run whose numbers you
    /// intend to keep.
    pub fn inject_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultState {
            plan,
            sends_seen: 0,
            fired_at: None,
        });
    }

    /// The send index the staged fault actually struck, if it has.
    pub fn fault_fired_at(&self) -> Option<u64> {
        self.fault.as_ref().and_then(|f| f.fired_at)
    }

    /// Installs a telemetry recorder: every subsequent send observes
    /// [`Metric::PayloadsSent`], [`Metric::BytesOnWire`],
    /// [`Metric::FrameBytes`] and [`Metric::ParkedMessages`]. Purely
    /// additive — [`TrafficStats`] is kept identically either way.
    pub fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        self.rec = Some(rec);
    }

    /// Pops the next message from `p`'s inbox.
    pub fn receive(&mut self, p: PeerId) -> Option<Envelope<M>> {
        self.inboxes[p.index()].pop_front()
    }

    /// Pops the first message in `p`'s inbox that was sent by `from`,
    /// preserving per-link FIFO order. The event-driven runtime pops
    /// by sender because its `Deliver` events are scheduled per link:
    /// messages from different senders interleave on the virtual
    /// clock, but messages on one link never overtake each other.
    /// Returns `None` when no message from `from` is waiting (e.g. a
    /// staged lost-frame fault consumed the send).
    pub fn receive_from(&mut self, p: PeerId, from: PeerId) -> Option<Envelope<M>> {
        let inbox = &mut self.inboxes[p.index()];
        let pos = inbox.iter().position(|env| env.from == from)?;
        inbox.remove(pos)
    }

    /// Number of messages waiting in `p`'s inbox.
    pub fn inbox_len(&self, p: PeerId) -> usize {
        self.inboxes[p.index()].len()
    }

    /// Total parked messages across all senders.
    pub fn total_pending(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }

    /// Total undelivered messages (inboxes + parked).
    pub fn in_flight(&self) -> usize {
        self.inboxes.iter().map(VecDeque::len).sum::<usize>() + self.total_pending()
    }

    /// Traffic counters.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }
}

impl<M: WireSize + FaultTarget> Transport<M> {
    /// Sends `payload` from `from` to `to`. If `to` is offline the
    /// message is parked at the sender for later retry. Whole payloads
    /// park and resend as units — for multi-update frames this is the
    /// store-and-resend of entire frames.
    pub fn send(&mut self, peers: &PeerTable, from: PeerId, to: PeerId, payload: M) {
        // A staged fault rewrites this send before any accounting, so
        // the counters describe what the transport *claims* happened —
        // the gap to what actually happened is what the audit monitors
        // exist to catch.
        let mut payload = payload;
        let mut duplicate: Option<M> = None;
        let mut lost = false;
        if let Some(f) = &mut self.fault {
            let idx = f.sends_seen;
            f.sends_seen += 1;
            if f.fired_at.is_none() && idx >= f.plan.nth_send {
                match f.plan.kind {
                    FaultKind::MassLeak => {
                        if let Some(p) = payload.leak_mass() {
                            payload = p;
                            f.fired_at = Some(idx);
                        }
                    }
                    FaultKind::DupFrame => {
                        duplicate = payload.duplicate();
                        if duplicate.is_some() {
                            f.fired_at = Some(idx);
                        }
                    }
                    FaultKind::LostFrame => {
                        lost = true;
                        f.fired_at = Some(idx);
                    }
                }
            }
        }

        let wire = payload.wire_bytes() as u64;
        self.stats.sent += 1;
        self.stats.bytes_sent += wire;
        let online = peers.is_online(to);
        if let Some(rec) = &self.rec {
            rec.counter_add(Metric::PayloadsSent, 1);
            rec.counter_add(Metric::BytesOnWire, wire);
            rec.observe(Metric::FrameBytes, wire);
            if !online && !lost {
                rec.counter_add(Metric::ParkedMessages, 1);
            }
        }
        if lost {
            // Counted as sent, never enqueued anywhere: the victim
            // vanishes without a trace — except in the audit ledgers.
            return;
        }
        for payload in std::iter::once(payload).chain(duplicate) {
            let env = Envelope { from, to, payload };
            if online {
                self.stats.delivered += 1;
                self.stats.bytes_delivered += wire;
                self.inboxes[to.index()].push_back(env);
            } else {
                self.stats.parked += 1;
                self.pending[from.index()].push(env);
            }
        }
    }

    /// Retries every parked message; messages whose destination is now
    /// online are delivered. Returns the number re-delivered.
    pub fn retry_pending(&mut self, peers: &PeerTable) -> u64 {
        self.retry_pending_outcomes(peers).len() as u64
    }

    /// Like [`Transport::retry_pending`], but returns one
    /// `(from, to, wire_bytes)` record per re-delivered message, in
    /// delivery order. The event-driven runtime needs the per-message
    /// breakdown to schedule one `Deliver` event per redelivery; the
    /// counters move exactly as in `retry_pending`.
    pub fn retry_pending_outcomes(&mut self, peers: &PeerTable) -> Vec<(PeerId, PeerId, usize)> {
        let mut outcomes = Vec::new();
        for sender in 0..self.pending.len() {
            let mut still_parked = Vec::new();
            for env in self.pending[sender].drain(..) {
                if peers.is_online(env.to) {
                    let wire = env.payload.wire_bytes();
                    self.stats.bytes_delivered += wire as u64;
                    outcomes.push((env.from, env.to, wire));
                    self.inboxes[env.to.index()].push_back(env);
                } else {
                    self.stats.retry_failures += 1;
                    still_parked.push(env);
                }
            }
            self.pending[sender] = still_parked;
        }
        self.stats.redelivered += outcomes.len() as u64;
        outcomes
    }
}

/// Update entries carried by one wire payload: the compact frame's
/// declared count, or the `4 + 16k` raw frame's `k` (0 for a payload
/// too short to say, and for a 24-byte one — a length no frame takes).
pub fn payload_entries(payload: &Bytes) -> u64 {
    let len = payload.len();
    match PayloadKind::of(payload) {
        _ if len < FRAME_HEADER_BYTES || len == RANK_UPDATE_WIRE_BYTES => 0,
        PayloadKind::Compact => u64::from(u16::from_le_bytes([payload[2], payload[3]])),
        PayloadKind::Raw => ((len - FRAME_HEADER_BYTES) / FRAME_ENTRY_BYTES) as u64,
    }
}

/// Total rank mass carried by one wire payload — the decoded sum of
/// its update values (0 for an undecodable payload, which the ledger
/// then reports as missing mass). Compact frames contribute their
/// `f32`-quantized values widened to `f64` — exactly what the
/// receiver will fold in.
pub fn payload_mass(payload: &Bytes) -> f64 {
    let mut mass = 0.0;
    let walked = match PayloadKind::of(payload) {
        PayloadKind::Compact => CompactFrameWire::visit(payload, |e| mass += f64::from(e.value)),
        PayloadKind::Raw => UpdateFrameWire::visit(payload, |e| mass += e.value),
    };
    walked.map_or(0.0, |()| mass)
}

impl Transport<Bytes> {
    /// Update entries currently undelivered (inboxes + parked),
    /// decoded from the queued payloads — the in-flight side of the
    /// message-balance invariant `Σ sent − Σ received = in flight`.
    pub fn in_flight_entries(&self) -> u64 {
        self.queued().map(payload_entries).sum()
    }

    /// Update entries currently undelivered and addressed to `dst`.
    pub fn in_flight_entries_to(&self, dst: PeerId) -> u64 {
        let parked = self.pending.iter().flatten().filter(|e| e.to == dst);
        let queued = self.inboxes[dst.index()].iter().chain(parked);
        queued.map(|e| payload_entries(&e.payload)).sum()
    }

    /// Rank mass currently undelivered (inboxes + parked), decoded
    /// from the queued payloads — the in-flight term of the
    /// mass-conservation ledger.
    pub fn in_flight_mass(&self) -> f64 {
        self.queued().fold(0.0, |mass, p| mass + payload_mass(p))
    }

    /// Every undelivered payload: inboxes first, then parked.
    fn queued(&self) -> impl Iterator<Item = &Bytes> {
        let parked = self.pending.iter().flatten();
        (self.inboxes.iter().flatten().chain(parked)).map(|e| &e.payload)
    }
}

/// The paper's pagerank update message: "128 bits for GUID, 64 bits
/// for pagerank value" — 24 bytes on the wire (Sec. 4.6.1). Nodes
/// never send it (they send frames); it is the unit of the paper's
/// traffic model, which the batching experiments charge as a shadow
/// of the framed run. No frame is ever 24 bytes long, so a payload of
/// this length is refused by every decoder and carries no entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankUpdateWire {
    /// GUID of the document whose rank is being updated.
    pub guid: u128,
    /// The rank contribution being delivered (may be negative for
    /// document deletion).
    pub value: f64,
}

/// Exact wire size of [`RankUpdateWire`], as assumed by the paper's
/// execution-time model.
pub const RANK_UPDATE_WIRE_BYTES: usize = 24;

/// Which of the two frame codecs a payload is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// A [`CompactFrameWire`].
    Compact,
    /// An [`UpdateFrameWire`].
    Raw,
}

impl PayloadKind {
    /// The wire-format rule: the first byte selects the frame codec
    /// ([`COMPACT_MAGIC`] ⇒ compact, else raw); the codec's decoder
    /// then refuses whatever is not a well-formed frame of its kind.
    #[inline]
    pub fn of(payload: &[u8]) -> Self {
        match payload.first() {
            Some(&COMPACT_MAGIC) => PayloadKind::Compact,
            _ => PayloadKind::Raw,
        }
    }
}

impl RankUpdateWire {
    /// Serializes to the 24-byte wire form.
    pub fn encode(&self) -> Bytes {
        let mut b = [0u8; RANK_UPDATE_WIRE_BYTES];
        b[..16].copy_from_slice(&self.guid.to_le_bytes());
        b[16..].copy_from_slice(&self.value.to_le_bytes());
        Bytes::from(&b[..])
    }

    /// Parses the 24-byte wire form.
    pub fn decode(bytes: Bytes) -> Result<Self, WireError> {
        Self::parse(&bytes)
    }

    /// [`RankUpdateWire::decode`] over a borrowed payload.
    pub fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        // Three little-endian words: GUID low half, GUID high half, value.
        let ([lo, hi, value], []) = bytes.as_chunks::<8>() else {
            return Err(WireError::BadLength(bytes.len()));
        };
        let value = f64::from_le_bytes(*value);
        if !value.is_finite() {
            return Err(WireError::NonFiniteValue);
        }
        let guid = u128::from(u64::from_le_bytes(*lo)) | u128::from(u64::from_le_bytes(*hi)) << 64;
        Ok(RankUpdateWire { guid, value })
    }
}

/// A multi-update frame: the per-destination aggregated form of k
/// rank updates.
///
/// Layout: `[magic u8][version u8][count u16 LE]` followed by `count`
/// entries of `[tag u64 LE][value f64 LE]`. The full 128-bit GUID is
/// what DHT *routing* needs; once a frame is addressed to the one peer
/// holding every target document, the 64-bit [`Guid::frame_tag`]
/// suffices to demultiplex within that peer's document set — so a
/// packed entry is 16 bytes against the 24-byte single-update message,
/// and a frame of k updates costs `4 + 16k < 24k` bytes for every
/// k ≥ 1.
///
/// Frame lengths are `4 + 16k` (20, 36, 52, …), never the 24 bytes of
/// a [`RankUpdateWire`].
///
/// [`Guid::frame_tag`]: crate::guid::Guid::frame_tag
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateFrameWire {
    /// The packed updates, in the sender's flush order.
    pub entries: Vec<FrameEntry>,
}

/// One packed update inside an [`UpdateFrameWire`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameEntry {
    /// [`Guid::frame_tag`] of the target document.
    ///
    /// [`Guid::frame_tag`]: crate::guid::Guid::frame_tag
    pub tag: u64,
    /// The coalesced rank contribution for that document.
    pub value: f64,
}

/// First byte of every frame.
pub const FRAME_MAGIC: u8 = 0xF7;
/// Wire-protocol version of the frame layout.
pub const FRAME_VERSION: u8 = 1;
/// Frame header size: magic + version + u16 entry count.
pub const FRAME_HEADER_BYTES: usize = 4;
/// Size of one packed entry: 64-bit tag + 64-bit value.
pub const FRAME_ENTRY_BYTES: usize = 16;
/// Hard cap on entries per frame (the count field is a u16).
pub const FRAME_MAX_ENTRIES: usize = u16::MAX as usize;

/// Bytes a frame of `k` entries occupies on the wire.
pub const fn frame_wire_bytes(k: usize) -> usize {
    FRAME_HEADER_BYTES + k * FRAME_ENTRY_BYTES
}

/// Largest entry count whose frame fits in `max_frame_bytes` — the
/// flush-policy size cap. Never below 1 (an undersized cap still has
/// to move single updates) and never above [`FRAME_MAX_ENTRIES`].
pub fn max_entries_for(max_frame_bytes: usize) -> usize {
    (max_frame_bytes.saturating_sub(FRAME_HEADER_BYTES) / FRAME_ENTRY_BYTES)
        .clamp(1, FRAME_MAX_ENTRIES)
}

impl UpdateFrameWire {
    /// Serializes to the length-implied wire form.
    ///
    /// # Panics
    ///
    /// Panics if the frame is empty or exceeds [`FRAME_MAX_ENTRIES`].
    pub fn encode(&self) -> Bytes {
        Self::encode_entries(&mut Vec::new(), self.entries.iter().copied())
    }

    /// [`UpdateFrameWire::encode`] straight from an entry stream,
    /// staged in the caller's reusable `buf`. Same panics.
    pub fn encode_entries(
        buf: &mut Vec<u8>,
        entries: impl ExactSizeIterator<Item = FrameEntry>,
    ) -> Bytes {
        assert!(entries.len() > 0, "empty frame");
        assert!(entries.len() <= FRAME_MAX_ENTRIES, "oversized frame");
        buf.clear();
        buf.reserve(frame_wire_bytes(entries.len()));
        buf.extend_from_slice(&[FRAME_MAGIC, FRAME_VERSION]);
        buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
        for e in entries {
            buf.extend_from_slice(&e.tag.to_le_bytes());
            buf.extend_from_slice(&e.value.to_le_bytes());
        }
        Bytes::from(buf.as_slice())
    }

    /// Parses a frame payload.
    pub fn decode(bytes: Bytes) -> Result<Self, WireError> {
        let mut entries = Vec::with_capacity(bytes.len() / FRAME_ENTRY_BYTES);
        Self::visit(&bytes, |e| entries.push(e))?;
        Ok(UpdateFrameWire { entries })
    }

    /// Validates a frame payload in place, handing each entry to `f`
    /// in wire order. `f` may already have seen a prefix when a later
    /// entry fails validation, so callers that must stay atomic stage
    /// what they see and commit only on `Ok`.
    pub fn visit(bytes: &[u8], mut f: impl FnMut(FrameEntry)) -> Result<(), WireError> {
        let len = bytes.len();
        let Some((&[magic, version, lo, hi], body)) = bytes.split_first_chunk() else {
            return Err(WireError::BadLength(len));
        };
        if magic != FRAME_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if version != FRAME_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let count = u16::from_le_bytes([lo, hi]) as usize;
        if count == 0 {
            return Err(WireError::EmptyFrame);
        }
        if len != frame_wire_bytes(count) {
            return Err(WireError::BadLength(len));
        }
        // Exactly `count` entries are left; read as a little-endian
        // u128, each holds the tag in its low half, the value's bits high.
        for entry in body.as_chunks::<FRAME_ENTRY_BYTES>().0 {
            let bits = u128::from_le_bytes(*entry);
            let value = f64::from_bits((bits >> 64) as u64);
            if !value.is_finite() {
                return Err(WireError::NonFiniteValue);
            }
            f(FrameEntry {
                tag: bits as u64,
                value,
            });
        }
        Ok(())
    }
}

/// Wire decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Payload length does not fit the declared frame entry count.
    BadLength(usize),
    /// Rank value was NaN or infinite.
    NonFiniteValue,
    /// Frame payload did not start with [`FRAME_MAGIC`].
    BadMagic(u8),
    /// Frame protocol version not understood.
    BadVersion(u8),
    /// Frame declared zero entries.
    EmptyFrame,
    /// A compact frame's varint doc-id stream was truncated,
    /// overflowed `u32`, or was not strictly ascending.
    BadDocEncoding,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadLength(n) => write!(f, "payload length {n} fits no update message"),
            WireError::NonFiniteValue => write!(f, "rank value is not finite"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#04x}"),
            WireError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            WireError::EmptyFrame => write!(f, "frame declares zero entries"),
            WireError::BadDocEncoding => write!(f, "malformed compact doc-id stream"),
        }
    }
}

impl std::error::Error for WireError {}

/// Which frame encoding a sender puts on the wire.
///
/// `Raw` is the bit-identity default: 16-byte `(tag u64, value f64)`
/// entries, so converged ranks are exactly the sequential engine's
/// bits. `Compact` trades that for bytes: doc ids are sorted ascending
/// and varint/delta-encoded, values are quantized to `f32` — a
/// bounded-error mode (per-doc relative error ≤ the f32 quantization
/// step, ~1.2e-7) whose parity bound is pinned by a differential test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Full-fidelity frames (`f64` values, 64-bit tags).
    #[default]
    Raw,
    /// Varint/delta doc ids + `f32` values.
    Compact,
}

impl std::fmt::Display for WireCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WireCodec::Raw => "raw",
            WireCodec::Compact => "compact",
        })
    }
}

impl std::str::FromStr for WireCodec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "raw" => Ok(WireCodec::Raw),
            "compact" => Ok(WireCodec::Compact),
            other => Err(format!(
                "unknown wire codec {other:?} (expected \"raw\" or \"compact\")"
            )),
        }
    }
}

/// First byte of every compact frame. Distinct from [`FRAME_MAGIC`],
/// so [`PayloadKind::of`] can tell the two frame codecs apart.
pub const COMPACT_MAGIC: u8 = 0xF8;
/// Wire-protocol version of the compact frame layout.
pub const COMPACT_VERSION: u8 = 1;
/// Compact frame header size: magic + version + u16 entry count.
pub const COMPACT_HEADER_BYTES: usize = 4;

/// One update inside a [`CompactFrameWire`]: the target document id
/// and the quantized rank contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactEntry {
    /// The target document id (node-local resolution, no GUID).
    pub doc: u32,
    /// The coalesced rank contribution, quantized to `f32`.
    pub value: f32,
}

/// The compact multi-update frame.
///
/// Layout: `[COMPACT_MAGIC][version u8][count u16 LE]` followed by
/// `count` entries of `[varint doc-delta][value f32 LE]`. Entries are
/// sorted by doc id strictly ascending (a flush buffer coalesces, so a
/// frame never repeats a doc); the first entry carries its absolute
/// doc id, each later entry the LEB128 varint of the gap to its
/// predecessor. When the encoded length would be the 24 bytes of a
/// [`RankUpdateWire`], one pad byte is appended: decoders ignore a
/// single trailing byte, and refuse a 24-byte payload outright.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompactFrameWire {
    /// The updates, sorted by doc id strictly ascending.
    pub entries: Vec<CompactEntry>,
}

fn put_varint(b: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        b.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    b.push(v as u8);
}

fn get_varint(bytes: &mut &[u8]) -> Result<u32, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = bytes.split_first().filter(|_| shift <= 28) else {
            return Err(WireError::BadDocEncoding);
        };
        *bytes = rest;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    u32::try_from(v).map_err(|_| WireError::BadDocEncoding)
}

impl CompactFrameWire {
    /// Builds a frame from `(doc, value)` pairs, sorting by doc id.
    /// Callers must not pass duplicate doc ids (the flush buffer
    /// guarantees this); duplicates are rejected at encode time.
    pub fn new(mut entries: Vec<CompactEntry>) -> Self {
        entries.sort_unstable_by_key(|e| e.doc);
        CompactFrameWire { entries }
    }

    /// Serializes to the varint/delta wire form.
    ///
    /// # Panics
    ///
    /// Panics if the frame is empty, exceeds [`FRAME_MAX_ENTRIES`],
    /// holds a non-finite value, or is not strictly ascending by doc.
    pub fn encode(&self) -> Bytes {
        Self::encode_entries(&mut Vec::new(), &self.entries)
    }

    /// [`CompactFrameWire::encode`] of a borrowed, already sorted entry
    /// slice, staged in the caller's reusable `buf`. Same panics.
    pub fn encode_entries(buf: &mut Vec<u8>, entries: &[CompactEntry]) -> Bytes {
        assert!(!entries.is_empty(), "empty frame");
        assert!(entries.len() <= FRAME_MAX_ENTRIES, "oversized frame");
        buf.clear();
        buf.reserve(COMPACT_HEADER_BYTES + entries.len() * 9);
        buf.extend_from_slice(&[COMPACT_MAGIC, COMPACT_VERSION]);
        buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
        let mut prev: Option<u32> = None;
        for e in entries {
            assert!(e.value.is_finite(), "non-finite value in compact frame");
            match prev {
                None => put_varint(buf, e.doc),
                Some(p) => {
                    assert!(e.doc > p, "compact frame docs must be strictly ascending");
                    put_varint(buf, e.doc - p);
                }
            }
            prev = Some(e.doc);
            buf.extend_from_slice(&e.value.to_le_bytes());
        }
        if buf.len() == RANK_UPDATE_WIRE_BYTES {
            buf.push(0);
        }
        Bytes::from(buf.as_slice())
    }

    /// Parses a compact frame payload.
    pub fn decode(bytes: Bytes) -> Result<Self, WireError> {
        let mut entries = Vec::with_capacity(bytes.len() / 5);
        Self::visit(&bytes, |e| entries.push(e))?;
        Ok(CompactFrameWire { entries })
    }

    /// Validates a compact frame payload in place, handing each entry
    /// to `f` in wire order (the [`UpdateFrameWire::visit`] contract).
    pub fn visit(bytes: &[u8], mut f: impl FnMut(CompactEntry)) -> Result<(), WireError> {
        let len = bytes.len();
        let Some((&[magic, version, lo, hi], mut bytes)) = bytes
            .split_first_chunk()
            .filter(|_| len != RANK_UPDATE_WIRE_BYTES)
        else {
            return Err(WireError::BadLength(len));
        };
        if magic != COMPACT_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if version != COMPACT_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let count = u16::from_le_bytes([lo, hi]) as usize;
        if count == 0 {
            return Err(WireError::EmptyFrame);
        }
        let mut prev: Option<u32> = None;
        for _ in 0..count {
            let raw = get_varint(&mut bytes)?;
            let doc = match prev {
                None => raw,
                Some(p) => {
                    if raw == 0 {
                        return Err(WireError::BadDocEncoding);
                    }
                    p.checked_add(raw).ok_or(WireError::BadDocEncoding)?
                }
            };
            prev = Some(doc);
            let Some((&value, rest)) = bytes.split_first_chunk() else {
                return Err(WireError::BadLength(len));
            };
            bytes = rest;
            let value = f32::from_le_bytes(value);
            if !value.is_finite() {
                return Err(WireError::NonFiniteValue);
            }
            f(CompactEntry { doc, value });
        }
        // At most one trailing byte: the 24-byte-collision pad.
        if bytes.len() > 1 {
            return Err(WireError::BadLength(len));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Buf, BufMut, BytesMut};

    // Toy payloads for transport-mechanics tests report their
    // in-memory size and opt out of fault corruption (the trait's
    // defaults).
    impl WireSize for u8 {
        fn wire_bytes(&self) -> usize {
            1
        }
    }
    impl WireSize for u32 {
        fn wire_bytes(&self) -> usize {
            4
        }
    }
    impl WireSize for &str {
        fn wire_bytes(&self) -> usize {
            self.len()
        }
    }
    impl FaultTarget for u8 {}
    impl FaultTarget for u32 {}
    impl FaultTarget for &str {}

    #[test]
    fn send_and_receive_in_order() {
        let peers = PeerTable::new(2);
        let mut t: Transport<u32> = Transport::new(2);
        t.send(&peers, PeerId(0), PeerId(1), 10);
        t.send(&peers, PeerId(0), PeerId(1), 11);
        assert_eq!(t.inbox_len(PeerId(1)), 2);
        assert_eq!(t.receive(PeerId(1)).unwrap().payload, 10);
        assert_eq!(t.receive(PeerId(1)).unwrap().payload, 11);
        assert!(t.receive(PeerId(1)).is_none());
        let s = t.stats();
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.parked, 0);
    }

    #[test]
    fn offline_destination_parks_at_sender() {
        let mut peers = PeerTable::new(2);
        peers.set_online(PeerId(1), false);
        let mut t: Transport<u32> = Transport::new(2);
        t.send(&peers, PeerId(0), PeerId(1), 7);
        assert_eq!(t.inbox_len(PeerId(1)), 0);
        assert_eq!(t.total_pending(), 1);
        assert_eq!(t.stats().parked, 1);

        // Retry while still offline: stays parked.
        assert_eq!(t.retry_pending(&peers), 0);
        assert_eq!(t.stats().retry_failures, 1);
        assert_eq!(t.total_pending(), 1);

        // Destination returns: message is redelivered exactly once.
        peers.set_online(PeerId(1), true);
        assert_eq!(t.retry_pending(&peers), 1);
        assert_eq!(t.total_pending(), 0);
        assert_eq!(t.receive(PeerId(1)).unwrap().payload, 7);
        assert_eq!(t.stats().redelivered, 1);
    }

    #[test]
    fn retry_outcomes_report_each_redelivery() {
        let mut peers = PeerTable::new(3);
        peers.set_online(PeerId(1), false);
        peers.set_online(PeerId(2), false);
        let mut t: Transport<Bytes> = Transport::new(3);
        t.send(&peers, PeerId(0), PeerId(1), Bytes::from_static(&[0; 24]));
        t.send(&peers, PeerId(0), PeerId(2), Bytes::from_static(&[0; 20]));
        // Only peer 1 returns: one outcome, the other stays parked.
        peers.set_online(PeerId(1), true);
        let outcomes = t.retry_pending_outcomes(&peers);
        assert_eq!(outcomes, vec![(PeerId(0), PeerId(1), 24)]);
        assert_eq!(t.stats().redelivered, 1);
        assert_eq!(t.stats().retry_failures, 1);
        assert_eq!(t.total_pending(), 1);
        assert_eq!(t.inbox_len(PeerId(1)), 1);
    }

    #[test]
    fn receive_from_pops_per_link_fifo() {
        let peers = PeerTable::new(3);
        let mut t: Transport<u32> = Transport::new(3);
        t.send(&peers, PeerId(0), PeerId(2), 1);
        t.send(&peers, PeerId(1), PeerId(2), 2);
        t.send(&peers, PeerId(0), PeerId(2), 3);
        // Popping by sender skips interleaved messages from other
        // links but stays FIFO within each link.
        assert_eq!(t.receive_from(PeerId(2), PeerId(1)).unwrap().payload, 2);
        assert_eq!(t.receive_from(PeerId(2), PeerId(0)).unwrap().payload, 1);
        assert!(t.receive_from(PeerId(2), PeerId(1)).is_none());
        assert_eq!(t.receive_from(PeerId(2), PeerId(0)).unwrap().payload, 3);
        assert_eq!(t.inbox_len(PeerId(2)), 0);
    }

    #[test]
    fn wire_roundtrip_is_24_bytes() {
        let m = RankUpdateWire {
            guid: 0x0000_dead_beef_cafe_babe_0123,
            value: -0.125,
        };
        let b = m.encode();
        assert_eq!(b.len(), RANK_UPDATE_WIRE_BYTES);
        assert_eq!(RankUpdateWire::decode(b).unwrap(), m);
    }

    #[test]
    fn wire_rejects_bad_input() {
        assert_eq!(
            RankUpdateWire::decode(Bytes::from_static(b"short")),
            Err(WireError::BadLength(5))
        );
        let nan = RankUpdateWire {
            guid: 1,
            value: f64::NAN,
        }
        .encode();
        assert_eq!(RankUpdateWire::decode(nan), Err(WireError::NonFiniteValue));
    }

    #[test]
    fn frame_roundtrip_and_length_discipline() {
        let f = UpdateFrameWire {
            entries: vec![
                FrameEntry {
                    tag: 0xdead_beef_cafe_f00d,
                    value: 0.5,
                },
                FrameEntry {
                    tag: 1,
                    value: -2.0,
                },
            ],
        };
        let b = f.encode();
        assert_eq!(b.len(), frame_wire_bytes(2));
        assert_eq!(b.len(), FRAME_HEADER_BYTES + 2 * FRAME_ENTRY_BYTES);
        assert_eq!(UpdateFrameWire::decode(b).unwrap(), f);
        // A packed frame always undercuts the 24-byte-per-update
        // baseline, even at k = 1, and never collides with the
        // single-update length.
        for k in 1..300 {
            assert!(frame_wire_bytes(k) < k * RANK_UPDATE_WIRE_BYTES);
            assert_ne!(frame_wire_bytes(k), RANK_UPDATE_WIRE_BYTES);
        }
    }

    #[test]
    fn frame_rejects_malformed_payloads() {
        let one = UpdateFrameWire {
            entries: vec![FrameEntry { tag: 7, value: 1.0 }],
        };
        let good = one.encode();

        let mut bad_magic = good.to_vec();
        bad_magic[0] = 0x00;
        assert_eq!(
            UpdateFrameWire::decode(Bytes::from(bad_magic)),
            Err(WireError::BadMagic(0x00))
        );

        let mut bad_version = good.to_vec();
        bad_version[1] = 9;
        assert_eq!(
            UpdateFrameWire::decode(Bytes::from(bad_version)),
            Err(WireError::BadVersion(9))
        );

        let mut zero_count = good.to_vec();
        zero_count[2] = 0;
        zero_count[3] = 0;
        assert_eq!(
            UpdateFrameWire::decode(Bytes::from(zero_count)),
            Err(WireError::EmptyFrame)
        );

        // Count says 2 but only one entry's bytes follow.
        let mut short = good.to_vec();
        short[2] = 2;
        assert_eq!(
            UpdateFrameWire::decode(Bytes::from(short)),
            Err(WireError::BadLength(frame_wire_bytes(1)))
        );

        let nan = UpdateFrameWire {
            entries: vec![FrameEntry {
                tag: 7,
                value: f64::NAN,
            }],
        }
        .encode();
        assert_eq!(UpdateFrameWire::decode(nan), Err(WireError::NonFiniteValue));
        assert_eq!(
            UpdateFrameWire::decode(Bytes::from_static(b"ab")),
            Err(WireError::BadLength(2))
        );
    }

    #[test]
    fn size_cap_maps_to_entry_budget() {
        // Below one entry's worth of space the cap still moves one
        // update per frame.
        assert_eq!(max_entries_for(0), 1);
        assert_eq!(max_entries_for(FRAME_HEADER_BYTES + FRAME_ENTRY_BYTES), 1);
        assert_eq!(max_entries_for(frame_wire_bytes(2)), 2);
        // A 1400-byte MTU-sized cap carries 87 packed updates.
        assert_eq!(max_entries_for(1400), 87);
        assert_eq!(max_entries_for(usize::MAX), FRAME_MAX_ENTRIES);
    }

    #[test]
    fn transport_counts_payload_bytes() {
        let mut peers = PeerTable::new(2);
        let mut t: Transport<Bytes> = Transport::new(2);
        t.send(&peers, PeerId(0), PeerId(1), Bytes::from_static(&[0; 24]));
        peers.set_online(PeerId(1), false);
        t.send(&peers, PeerId(0), PeerId(1), Bytes::from_static(&[0; 20]));
        assert_eq!(t.stats().bytes_sent, 44);
        assert_eq!(
            t.stats().bytes_delivered,
            24,
            "parked bytes not yet on the wire"
        );
        peers.set_online(PeerId(1), true);
        t.retry_pending(&peers);
        assert_eq!(t.stats().bytes_delivered, 44);
    }

    #[test]
    fn recorder_mirrors_traffic_counters() {
        use dpr_telemetry::TraceRecorder;
        let mut peers = PeerTable::new(2);
        let mut t: Transport<Bytes> = Transport::new(2);
        let rec = Arc::new(TraceRecorder::new());
        t.set_recorder(rec.clone());
        t.send(&peers, PeerId(0), PeerId(1), Bytes::from_static(&[0; 24]));
        peers.set_online(PeerId(1), false);
        t.send(&peers, PeerId(0), PeerId(1), Bytes::from_static(&[0; 20]));
        assert_eq!(rec.counter(Metric::PayloadsSent), 2);
        assert_eq!(rec.counter(Metric::BytesOnWire), 44);
        assert_eq!(rec.counter(Metric::ParkedMessages), 1);
        let h = rec.histogram(Metric::FrameBytes);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 44);
        // The mirrored series agree with the transport's own stats.
        assert_eq!(rec.counter(Metric::PayloadsSent), t.stats().sent);
        assert_eq!(rec.counter(Metric::BytesOnWire), t.stats().bytes_sent);
        assert_eq!(rec.counter(Metric::ParkedMessages), t.stats().parked);
    }

    #[test]
    fn in_flight_counts_inboxes_and_pending() {
        let mut peers = PeerTable::new(2);
        let mut t: Transport<u8> = Transport::new(2);
        t.send(&peers, PeerId(0), PeerId(1), 1);
        peers.set_online(PeerId(1), false);
        t.send(&peers, PeerId(0), PeerId(1), 2);
        assert_eq!(t.in_flight(), 2);
        assert_eq!(t.total_pending(), 1);
    }

    fn single(guid: u128, value: f64) -> Bytes {
        RankUpdateWire { guid, value }.encode()
    }

    fn frame(values: &[f64]) -> Bytes {
        UpdateFrameWire {
            entries: values
                .iter()
                .enumerate()
                .map(|(i, &value)| FrameEntry {
                    tag: i as u64,
                    value,
                })
                .collect(),
        }
        .encode()
    }

    #[test]
    fn in_flight_mass_and_entries_decode_queued_payloads() {
        let mut peers = PeerTable::new(3);
        peers.set_online(PeerId(2), false);
        let mut t: Transport<Bytes> = Transport::new(3);
        t.send(&peers, PeerId(0), PeerId(1), frame(&[0.25]));
        t.send(&peers, PeerId(0), PeerId(1), frame(&[0.5, 0.125]));
        t.send(&peers, PeerId(1), PeerId(2), frame(&[1.0])); // parked
        assert_eq!(t.in_flight_entries(), 4);
        assert_eq!(t.in_flight_entries_to(PeerId(1)), 3);
        assert_eq!(t.in_flight_entries_to(PeerId(2)), 1);
        assert_eq!(t.in_flight_mass(), 0.25 + 0.5 + 0.125 + 1.0);
        t.receive(PeerId(1)).unwrap();
        assert_eq!(t.in_flight_entries(), 3);
        assert_eq!(t.in_flight_mass(), 0.5 + 0.125 + 1.0);
    }

    #[test]
    fn mass_leak_corrupts_exactly_one_value_and_stays_decodable() {
        let peers = PeerTable::new(2);
        let mut t: Transport<Bytes> = Transport::new(2);
        t.inject_fault(FaultPlan {
            kind: FaultKind::MassLeak,
            nth_send: 1,
        });
        t.send(&peers, PeerId(0), PeerId(1), frame(&[0.25]));
        t.send(&peers, PeerId(0), PeerId(1), frame(&[0.5, 0.125]));
        t.send(&peers, PeerId(0), PeerId(1), frame(&[1.0]));
        assert_eq!(t.fault_fired_at(), Some(1));
        // First payload untouched, second leaked on its first entry
        // (still structurally valid), third untouched (strike once).
        let mut received = || UpdateFrameWire::decode(t.receive(PeerId(1)).unwrap().payload);
        assert_eq!(
            received().unwrap(),
            UpdateFrameWire::decode(frame(&[0.25])).unwrap()
        );
        let b = received().unwrap();
        assert_eq!(b.entries[0].value, 0.5 + MASS_LEAK_DELTA);
        assert_eq!(b.entries[1].value, 0.125);
        assert_eq!(
            received().unwrap(),
            UpdateFrameWire::decode(frame(&[1.0])).unwrap()
        );
        // The counters are none the wiser: that is the point.
        assert_eq!(t.stats().sent, 3);
        assert_eq!(t.stats().delivered, 3);
    }

    #[test]
    fn dup_frame_delivers_twice() {
        let peers = PeerTable::new(2);
        let mut t: Transport<Bytes> = Transport::new(2);
        t.inject_fault(FaultPlan {
            kind: FaultKind::DupFrame,
            nth_send: 0,
        });
        t.send(&peers, PeerId(0), PeerId(1), frame(&[0.25]));
        t.send(&peers, PeerId(0), PeerId(1), frame(&[0.5]));
        assert_eq!(t.fault_fired_at(), Some(0));
        assert_eq!(t.stats().sent, 2);
        assert_eq!(t.inbox_len(PeerId(1)), 3, "victim arrived twice");
        assert_eq!(t.in_flight_entries(), 3);
        let dup1 = t.receive(PeerId(1)).unwrap().payload;
        let dup2 = t.receive(PeerId(1)).unwrap().payload;
        assert_eq!(dup1, dup2);
    }

    #[test]
    fn lost_frame_counts_sent_but_never_arrives() {
        let peers = PeerTable::new(2);
        let mut t: Transport<Bytes> = Transport::new(2);
        t.inject_fault(FaultPlan {
            kind: FaultKind::LostFrame,
            nth_send: 1,
        });
        t.send(&peers, PeerId(0), PeerId(1), frame(&[0.25]));
        t.send(&peers, PeerId(0), PeerId(1), frame(&[0.5]));
        t.send(&peers, PeerId(0), PeerId(1), frame(&[1.0]));
        assert_eq!(t.fault_fired_at(), Some(1));
        assert_eq!(t.stats().sent, 3, "the victim is still counted sent");
        assert_eq!(t.stats().delivered, 2);
        assert_eq!(t.inbox_len(PeerId(1)), 2);
        assert_eq!(t.in_flight_mass(), 0.25 + 1.0);
    }

    #[test]
    fn faults_wait_for_a_corruptible_send() {
        // nth_send in the past plus an uncorruptible payload type:
        // MassLeak keeps waiting (u8 cannot leak) and never fires.
        let peers = PeerTable::new(2);
        let mut t: Transport<u8> = Transport::new(2);
        t.inject_fault(FaultPlan {
            kind: FaultKind::MassLeak,
            nth_send: 0,
        });
        t.send(&peers, PeerId(0), PeerId(1), 1);
        t.send(&peers, PeerId(0), PeerId(1), 2);
        assert_eq!(t.fault_fired_at(), None);
        assert_eq!(t.inbox_len(PeerId(1)), 2);

        // A Bytes transport fires on the first send at/after the mark.
        let mut tb: Transport<Bytes> = Transport::new(2);
        tb.inject_fault(FaultPlan {
            kind: FaultKind::LostFrame,
            nth_send: 5,
        });
        for _ in 0..5 {
            tb.send(&peers, PeerId(0), PeerId(1), frame(&[0.1]));
        }
        assert_eq!(tb.fault_fired_at(), None);
        tb.send(&peers, PeerId(0), PeerId(1), frame(&[0.1]));
        assert_eq!(tb.fault_fired_at(), Some(5));
    }

    fn compact(entries: &[(u32, f32)]) -> CompactFrameWire {
        CompactFrameWire::new(
            entries
                .iter()
                .map(|&(doc, value)| CompactEntry { doc, value })
                .collect(),
        )
    }

    #[test]
    fn compact_roundtrip_with_boundary_doc_ids() {
        let f = compact(&[(0, 0.5), (1, -2.0), (300, 1.5e-30), (u32::MAX, -0.0)]);
        let b = f.encode();
        assert_eq!(b[0], COMPACT_MAGIC);
        assert_eq!(CompactFrameWire::decode(b.clone()).unwrap(), f);
        // Varint/delta ids + f32 values always undercut the raw frame.
        assert!(b.len() < frame_wire_bytes(4));
        assert_eq!(payload_entries(&b), 4);
        let mass: f64 = f.entries.iter().map(|e| f64::from(e.value)).sum();
        assert_eq!(payload_mass(&b), mass);
    }

    #[test]
    fn compact_encoder_sorts_and_pads_away_from_single_length() {
        // `new` sorts whatever order the flush produced.
        let f = compact(&[(9, 1.0), (2, 2.0), (5, 3.0)]);
        let docs: Vec<u32> = f.entries.iter().map(|e| e.doc).collect();
        assert_eq!(docs, vec![2, 5, 9]);
        // Find an entry set whose natural encoding is exactly 24 bytes:
        // 4 header + 4 × (1-byte delta + 4-byte value) = 24.
        let collide = compact(&[(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]);
        let b = collide.encode();
        assert_eq!(b.len(), 25, "pad byte dodges the single-update length");
        assert_eq!(CompactFrameWire::decode(b.clone()).unwrap(), collide);
        // Unpadded, the same bytes are refused: no frame is 24 long.
        assert_eq!(
            CompactFrameWire::decode(Bytes::from(&b[..RANK_UPDATE_WIRE_BYTES])),
            Err(WireError::BadLength(RANK_UPDATE_WIRE_BYTES))
        );
    }

    #[test]
    fn compact_rejects_malformed_payloads() {
        let good = compact(&[(7, 1.0), (9, 2.0)]).encode();

        let mut bad_magic = good.to_vec();
        bad_magic[0] = 0x00;
        assert_eq!(
            CompactFrameWire::decode(Bytes::from(bad_magic)),
            Err(WireError::BadMagic(0x00))
        );

        let mut bad_version = good.to_vec();
        bad_version[1] = 9;
        assert_eq!(
            CompactFrameWire::decode(Bytes::from(bad_version)),
            Err(WireError::BadVersion(9))
        );

        let mut zero_count = good.to_vec();
        zero_count[2] = 0;
        zero_count[3] = 0;
        assert_eq!(
            CompactFrameWire::decode(Bytes::from(zero_count)),
            Err(WireError::EmptyFrame)
        );

        // Count says 3 but only two entries' bytes follow.
        let mut short = good.to_vec();
        short[2] = 3;
        assert_eq!(
            CompactFrameWire::decode(Bytes::from(short)),
            Err(WireError::BadDocEncoding)
        );

        // A NaN value bit pattern is rejected.
        let nan_frame = {
            let mut b = BytesMut::with_capacity(16);
            b.put_u8(COMPACT_MAGIC);
            b.put_u8(COMPACT_VERSION);
            b.put_u16_le(1);
            b.put_u8(7); // doc 7
            b.put_u32_le(f32::NAN.to_bits());
            b.freeze()
        };
        assert_eq!(
            CompactFrameWire::decode(nan_frame),
            Err(WireError::NonFiniteValue)
        );

        // A zero delta (duplicate doc) is rejected.
        let dup = {
            let mut b = BytesMut::with_capacity(16);
            b.put_u8(COMPACT_MAGIC);
            b.put_u8(COMPACT_VERSION);
            b.put_u16_le(2);
            b.put_u8(7);
            b.put_u32_le(1.0f32.to_bits());
            b.put_u8(0); // delta 0: doc 7 again
            b.put_u32_le(1.0f32.to_bits());
            b.freeze()
        };
        assert_eq!(
            CompactFrameWire::decode(dup),
            Err(WireError::BadDocEncoding)
        );

        // A varint stream overflowing u32 is rejected.
        let overflow = {
            let mut b = BytesMut::with_capacity(16);
            b.put_u8(COMPACT_MAGIC);
            b.put_u8(COMPACT_VERSION);
            b.put_u16_le(2);
            b.put_u8(0xFF); // doc u32::MAX...
            b.put_u8(0xFF);
            b.put_u8(0xFF);
            b.put_u8(0xFF);
            b.put_u8(0x0F);
            b.put_u32_le(1.0f32.to_bits());
            b.put_u8(1); // ...plus one: overflow
            b.put_u32_le(1.0f32.to_bits());
            b.freeze()
        };
        assert_eq!(
            CompactFrameWire::decode(overflow),
            Err(WireError::BadDocEncoding)
        );
    }

    #[test]
    fn compact_mass_leak_still_fires() {
        let peers = PeerTable::new(2);
        let mut t: Transport<Bytes> = Transport::new(2);
        t.inject_fault(FaultPlan {
            kind: FaultKind::MassLeak,
            nth_send: 0,
        });
        t.send(&peers, PeerId(0), PeerId(1), compact(&[(3, 0.5)]).encode());
        assert_eq!(t.fault_fired_at(), Some(0));
        let got = CompactFrameWire::decode(t.receive(PeerId(1)).unwrap().payload).unwrap();
        assert_eq!(got.entries[0].value, 0.5 + MASS_LEAK_DELTA as f32);
    }

    /// The codecs as they stood on `bytes::{Buf, BufMut}` — a `Bytes`
    /// read cursor and one `put_*` call per field — kept as the
    /// reference model of the proptests below. The decoders are verbatim
    /// but for the compact decoder's refusal of the 24-byte length.
    mod cursor_model {
        use super::*;

        pub fn encode_raw(entries: &[FrameEntry]) -> Bytes {
            let mut buf = Vec::with_capacity(frame_wire_bytes(entries.len()));
            buf.put_u8(FRAME_MAGIC);
            buf.put_u8(FRAME_VERSION);
            buf.put_u16_le(entries.len() as u16);
            for e in entries {
                buf.put_u64_le(e.tag);
                buf.put_f64_le(e.value);
            }
            Bytes::from(buf)
        }

        fn put_varint(b: &mut Vec<u8>, mut v: u32) {
            while v >= 0x80 {
                b.put_u8((v as u8 & 0x7f) | 0x80);
                v >>= 7;
            }
            b.put_u8(v as u8);
        }

        pub fn encode_compact(entries: &[CompactEntry]) -> Bytes {
            let mut buf = Vec::with_capacity(COMPACT_HEADER_BYTES + entries.len() * 9);
            buf.put_u8(COMPACT_MAGIC);
            buf.put_u8(COMPACT_VERSION);
            buf.put_u16_le(entries.len() as u16);
            let mut prev: Option<u32> = None;
            for e in entries {
                match prev {
                    None => put_varint(&mut buf, e.doc),
                    Some(p) => put_varint(&mut buf, e.doc - p),
                }
                prev = Some(e.doc);
                buf.put_u32_le(e.value.to_bits());
            }
            if buf.len() == RANK_UPDATE_WIRE_BYTES {
                buf.put_u8(0);
            }
            Bytes::from(buf)
        }

        pub fn single(mut bytes: Bytes) -> Result<RankUpdateWire, WireError> {
            if bytes.len() != RANK_UPDATE_WIRE_BYTES {
                return Err(WireError::BadLength(bytes.len()));
            }
            let guid = bytes.get_u128_le();
            let value = bytes.get_f64_le();
            if !value.is_finite() {
                return Err(WireError::NonFiniteValue);
            }
            Ok(RankUpdateWire { guid, value })
        }

        pub fn raw(mut bytes: Bytes) -> Result<UpdateFrameWire, WireError> {
            let len = bytes.len();
            if len < FRAME_HEADER_BYTES {
                return Err(WireError::BadLength(len));
            }
            let magic = bytes.get_u8();
            if magic != FRAME_MAGIC {
                return Err(WireError::BadMagic(magic));
            }
            let version = bytes.get_u8();
            if version != FRAME_VERSION {
                return Err(WireError::BadVersion(version));
            }
            let count = bytes.get_u16_le() as usize;
            if count == 0 {
                return Err(WireError::EmptyFrame);
            }
            if len != frame_wire_bytes(count) {
                return Err(WireError::BadLength(len));
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let tag = bytes.get_u64_le();
                let value = bytes.get_f64_le();
                if !value.is_finite() {
                    return Err(WireError::NonFiniteValue);
                }
                entries.push(FrameEntry { tag, value });
            }
            Ok(UpdateFrameWire { entries })
        }

        fn varint(bytes: &mut Bytes) -> Result<u32, WireError> {
            let mut v: u64 = 0;
            let mut shift = 0u32;
            loop {
                if bytes.is_empty() || shift > 28 {
                    return Err(WireError::BadDocEncoding);
                }
                let byte = bytes.get_u8();
                v |= u64::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            u32::try_from(v).map_err(|_| WireError::BadDocEncoding)
        }

        pub fn compact(mut bytes: Bytes) -> Result<CompactFrameWire, WireError> {
            let len = bytes.len();
            if len < COMPACT_HEADER_BYTES || len == RANK_UPDATE_WIRE_BYTES {
                return Err(WireError::BadLength(len));
            }
            let magic = bytes.get_u8();
            if magic != COMPACT_MAGIC {
                return Err(WireError::BadMagic(magic));
            }
            let version = bytes.get_u8();
            if version != COMPACT_VERSION {
                return Err(WireError::BadVersion(version));
            }
            let count = bytes.get_u16_le() as usize;
            if count == 0 {
                return Err(WireError::EmptyFrame);
            }
            let mut entries = Vec::with_capacity(count);
            let mut prev: Option<u32> = None;
            for _ in 0..count {
                let raw = varint(&mut bytes)?;
                let doc = match prev {
                    None => raw,
                    Some(p) => {
                        if raw == 0 {
                            return Err(WireError::BadDocEncoding);
                        }
                        p.checked_add(raw).ok_or(WireError::BadDocEncoding)?
                    }
                };
                prev = Some(doc);
                if bytes.len() < 4 {
                    return Err(WireError::BadLength(len));
                }
                let value = f32::from_bits(bytes.get_u32_le());
                if !value.is_finite() {
                    return Err(WireError::NonFiniteValue);
                }
                entries.push(CompactEntry { doc, value });
            }
            if bytes.len() > 1 {
                return Err(WireError::BadLength(len));
            }
            Ok(CompactFrameWire { entries })
        }
    }

    /// `bytes` damaged: `mutation` 1 truncates at `at`, 2 flips bit
    /// `at`, 4 replaces the payload with `noise`, 5 zeroes the header's
    /// entry count, 6 appends two or more trailing bytes of `noise`;
    /// anything else leaves it alone.
    fn damage(mut bytes: Vec<u8>, mutation: u8, at: usize, noise: &[u8]) -> Bytes {
        let n = bytes.len();
        match mutation {
            1 => bytes.truncate(at % (n + 1)),
            2 if n > 0 => bytes[at / 8 % n] ^= 1 << (at % 8),
            4 => bytes = noise.to_vec(),
            5 if n >= 4 => bytes[2..4].fill(0),
            6 => bytes.extend([0xA5, 0x5A].iter().chain(noise).take(2 + at % 7)),
            _ => {}
        }
        Bytes::from(bytes)
    }

    /// A well-formed payload of one of three kinds — a 24-byte
    /// [`RankUpdateWire`], a raw frame, a compact frame — then
    /// [`damage`]d, or with `mutation` 3 the value of entry `at`
    /// overwritten with a NaN.
    fn damaged_payload(
        kind: u8,
        entries: &[(u32, f64)],
        mutation: u8,
        at: usize,
        noise: &[u8],
    ) -> Bytes {
        let (doc, value) = entries[0];
        let mut bytes = match kind {
            0 => single(u128::from(doc), value),
            1 => UpdateFrameWire {
                entries: entries
                    .iter()
                    .map(|&(doc, value)| FrameEntry {
                        tag: u64::from(doc),
                        value,
                    })
                    .collect(),
            }
            .encode(),
            _ => {
                let unique: std::collections::BTreeMap<u32, f32> =
                    entries.iter().map(|&(d, v)| (d, v as f32)).collect();
                compact(&unique.into_iter().collect::<Vec<_>>()).encode()
            }
        }
        .to_vec();
        match mutation {
            // The value field of the single, or of raw entry `at`.
            3 if kind == 0 => bytes[16..].copy_from_slice(&f64::NAN.to_le_bytes()),
            3 if kind == 1 => {
                let off = FRAME_HEADER_BYTES + FRAME_ENTRY_BYTES * (at % entries.len()) + 8;
                bytes[off..off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
            }
            _ => return damage(bytes, mutation, at, noise),
        }
        Bytes::from(bytes)
    }

    proptest::proptest! {
        /// The in-place visitors (and the decoders now built on them)
        /// agree with the cursor decoders they replaced on arbitrary
        /// bytes, truncations and bit flips: same entries or the same
        /// error, and a visitor never yields an entry the decoder
        /// would not have.
        #[test]
        fn visitors_match_the_cursor_decoders(
            kind in 0u8..3,
            entries in proptest::collection::vec((0u32..400, -4.0f64..4.0), 1..40),
            mutation in 0u8..7,
            at in 0usize..4096,
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
        ) {
            let payload = damaged_payload(kind, &entries, mutation, at, &noise);
            let want = cursor_model::raw(payload.clone());
            proptest::prop_assert_eq!(&UpdateFrameWire::decode(payload.clone()), &want);
            let mut seen = Vec::new();
            let walked = UpdateFrameWire::visit(&payload, |e| seen.push(e));
            proptest::prop_assert_eq!(walked.err(), want.as_ref().err().copied());
            if let Ok(frame) = &want {
                proptest::prop_assert_eq!(&seen, &frame.entries);
            }

            let want = cursor_model::compact(payload.clone());
            proptest::prop_assert_eq!(&CompactFrameWire::decode(payload.clone()), &want);
            let mut seen = Vec::new();
            let walked = CompactFrameWire::visit(&payload, |e| seen.push(e));
            proptest::prop_assert_eq!(walked.err(), want.as_ref().err().copied());
            if let Ok(frame) = &want {
                proptest::prop_assert_eq!(&seen, &frame.entries);
            }

            // A single either parses or names the same error as the
            // cursor model, and the borrowed and owned entry points agree.
            proptest::prop_assert_eq!(
                RankUpdateWire::parse(&payload),
                cursor_model::single(payload.clone())
            );
            proptest::prop_assert_eq!(
                RankUpdateWire::parse(&payload),
                RankUpdateWire::decode(payload.clone())
            );
            // The ledger helpers stay total on damaged payloads.
            let mass = payload_mass(&payload);
            proptest::prop_assert!(mass.is_finite());
            payload_entries(&payload);
            // A 24-byte payload — the paper's single update, which no
            // node sends — is no frame: nothing decodes, counts or leaks.
            if payload.len() == RANK_UPDATE_WIRE_BYTES {
                proptest::prop_assert!(UpdateFrameWire::decode(payload.clone()).is_err());
                proptest::prop_assert!(CompactFrameWire::decode(payload.clone()).is_err());
                proptest::prop_assert_eq!((payload_entries(&payload), mass), (0, 0.0));
                proptest::prop_assert_eq!(payload.leak_mass(), None);
            }
        }

        /// The transport against a naive model — one `Vec` per inbox
        /// and per sender's parked list — under interleaved sends,
        /// presence flips, both receive shapes, retries, and a staged
        /// duplicate or lost frame.
        #[test]
        fn transport_matches_a_naive_vec_model(
            ops in proptest::collection::vec((0u8..7, 0u32..4, 0u32..4), 1..120),
            fault in 0u8..3,
            nth_send in 0u64..20,
        ) {
            const N: usize = 4;
            type Env = Envelope<Bytes>;
            let mut peers = PeerTable::new(N);
            let mut t: Transport<Bytes> = Transport::new(N);
            let mut inbox: Vec<Vec<Env>> = vec![Vec::new(); N];
            let mut parked: Vec<Vec<Env>> = vec![Vec::new(); N];
            let mut stats = TrafficStats::default();
            let kind = match fault {
                1 => Some(FaultKind::DupFrame),
                2 => Some(FaultKind::LostFrame),
                _ => None,
            };
            if let Some(kind) = kind {
                t.inject_fault(FaultPlan { kind, nth_send });
            }
            let (mut sends, mut fired) = (0u64, false);
            for (i, &(op, a, b)) in ops.iter().enumerate() {
                let (pa, pb) = (PeerId(a), PeerId(b));
                match op {
                    0..=2 => {
                        // Payloads are unique, so order mix-ups show.
                        let payload = Bytes::from(vec![i as u8; 1 + i % 30]);
                        t.send(&peers, pa, pb, payload.clone());
                        let strike = kind.is_some() && !fired && sends >= nth_send;
                        sends += 1;
                        fired |= strike;
                        stats.sent += 1;
                        stats.bytes_sent += payload.len() as u64;
                        let copies = match kind {
                            Some(FaultKind::LostFrame) if strike => 0,
                            Some(FaultKind::DupFrame) if strike => 2,
                            _ => 1,
                        };
                        for _ in 0..copies {
                            let env = Envelope { from: pa, to: pb, payload: payload.clone() };
                            if peers.is_online(pb) {
                                stats.delivered += 1;
                                stats.bytes_delivered += payload.len() as u64;
                                inbox[b as usize].push(env);
                            } else {
                                stats.parked += 1;
                                parked[a as usize].push(env);
                            }
                        }
                    }
                    3 => {
                        let pos = inbox[a as usize].iter().position(|e| e.from == pb);
                        let want = pos.map(|p| inbox[a as usize].remove(p));
                        proptest::prop_assert_eq!(t.receive_from(pa, pb), want);
                    }
                    4 => {
                        let q = &mut inbox[a as usize];
                        let want = (!q.is_empty()).then(|| q.remove(0));
                        proptest::prop_assert_eq!(t.receive(pa), want);
                    }
                    5 => {
                        if b % 2 == 0 {
                            peers.set_online(pa, false);
                        } else {
                            peers.set_online(pa, true);
                        }
                    }
                    _ => {
                        let mut want = Vec::new();
                        for list in &mut parked {
                            for env in std::mem::take(list) {
                                if peers.is_online(env.to) {
                                    stats.bytes_delivered += env.payload.len() as u64;
                                    stats.redelivered += 1;
                                    want.push((env.from, env.to, env.payload.len()));
                                    inbox[env.to.index()].push(env);
                                } else {
                                    stats.retry_failures += 1;
                                    list.push(env);
                                }
                            }
                        }
                        proptest::prop_assert_eq!(t.retry_pending_outcomes(&peers), want);
                    }
                }
                for (p, (inbox, parked)) in inbox.iter().zip(&parked).enumerate() {
                    proptest::prop_assert_eq!(t.inbox_len(PeerId(p as u32)), inbox.len());
                    proptest::prop_assert_eq!(t.pending[p].len(), parked.len());
                }
                proptest::prop_assert_eq!(t.stats(), stats);
                proptest::prop_assert_eq!(t.fault_fired_at().is_some(), fired);
            }
            // What is left comes out in arrival order.
            for (p, inbox) in inbox.into_iter().enumerate() {
                proptest::prop_assert_eq!(t.inboxes[p].drain(..).collect::<Vec<_>>(), inbox);
            }
        }
    }

    proptest::proptest! {
        /// Codec round-trip: sorted-unique doc ids (boundaries
        /// included), finite values (subnormal and negative included)
        /// survive encode -> decode exactly, and the length accounting
        /// holds: every compact frame is strictly smaller than its raw
        /// equivalent, never 24 bytes, and [`payload_entries`] /
        /// [`payload_mass`] agree across the two codecs.
        #[test]
        fn compact_roundtrip_proptest(
            raw_docs in proptest::collection::vec(
                proptest::prelude::any::<u32>(),
                1..62,
            ),
            bits in proptest::collection::vec(proptest::prelude::any::<u32>(), 64..65),
        ) {
            // Dedupe and always exercise the boundary ids 0 and
            // u32::MAX (5-byte varint, largest possible delta).
            let docs: std::collections::BTreeSet<u32> = raw_docs
                .into_iter()
                .chain([0, u32::MAX])
                .collect();
            let entries: Vec<CompactEntry> = docs
                .iter()
                .zip(&bits)
                .map(|(&doc, &b)| {
                    let mut v = f32::from_bits(b);
                    if !v.is_finite() {
                        v = 0.25;
                    }
                    CompactEntry { doc, value: v }
                })
                .collect();
            let k = entries.len();
            let frame = CompactFrameWire::new(entries);
            let b = frame.encode();
            proptest::prop_assert_eq!(&CompactFrameWire::decode(b.clone()).unwrap(), &frame);
            proptest::prop_assert!(b.len() < frame_wire_bytes(k), "compact must beat raw");
            proptest::prop_assert_ne!(b.len(), RANK_UPDATE_WIRE_BYTES);
            proptest::prop_assert_eq!(payload_entries(&b), k as u64);
            // Accounting parity with the raw codec: same entry count,
            // same (quantized) mass, fewer bytes on the wire.
            let raw = UpdateFrameWire {
                entries: frame
                    .entries
                    .iter()
                    .map(|e| FrameEntry { tag: u64::from(e.doc), value: f64::from(e.value) })
                    .collect(),
            }
            .encode();
            proptest::prop_assert_eq!(payload_entries(&raw), payload_entries(&b));
            proptest::prop_assert_eq!(payload_mass(&raw), payload_mass(&b));
        }

        /// The slice codecs against the `Buf`/`BufMut` models: arbitrary
        /// raw entries (any tag, any finite value bits) and compact frames
        /// whose doc gaps run from 1 up to near `u32::MAX` — or, with
        /// `pad`, four one-byte gaps, the 24-byte case that takes the pad
        /// byte — encode to byte-equal payloads; and those payloads
        /// truncated, bit-flipped, replaced by noise, zero-counted or given
        /// trailing bytes decode to the same entries or the same
        /// [`WireError`] variant.
        #[test]
        fn slice_codecs_match_the_buf_models(
            raw in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()), 1..40),
            first in proptest::prelude::any::<u32>(),
            gaps in proptest::collection::vec((0u8..3, proptest::prelude::any::<u32>()), 0..40),
            values in proptest::collection::vec(proptest::prelude::any::<u32>(), 41..42),
            pad in proptest::prelude::any::<bool>(),
            mutation in 0u8..7,
            at in 0usize..4096,
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..60),
        ) {
            let raw: Vec<FrameEntry> = raw
                .iter()
                .map(|&(tag, bits)| {
                    let value = f64::from_bits(bits);
                    FrameEntry { tag, value: if value.is_finite() { value } else { -0.5 } }
                })
                .collect();
            // Docs ascend by small, mid-sized or near-`u32::MAX` gaps until
            // the next one would overflow.
            let mut docs = vec![if pad { first % 128 } else { first }];
            for &(size, g) in &gaps {
                let gap = match size {
                    _ if pad => 1 + g % 127,
                    0 => 1 + g % 300,
                    1 => 1 + g % (1 << 21),
                    _ => u32::MAX - g % 1024,
                };
                match docs.last().unwrap().checked_add(gap) {
                    Some(doc) => docs.push(doc),
                    None => break,
                }
            }
            if pad {
                docs.resize(4, 0);
                for i in 1..4 {
                    docs[i] = docs[i - 1] + 1 + gaps.get(i).map_or(0, |g| g.1 % 127);
                }
            }
            let compact: Vec<CompactEntry> = docs
                .iter()
                .zip(&values)
                .map(|(&doc, &bits)| {
                    let value = f32::from_bits(bits);
                    CompactEntry { doc, value: if value.is_finite() { value } else { 0.25 } }
                })
                .collect();

            let raw_bytes = UpdateFrameWire { entries: raw.clone() }.encode();
            let compact_bytes = CompactFrameWire { entries: compact.clone() }.encode();
            proptest::prop_assert_eq!(&raw_bytes, &cursor_model::encode_raw(&raw));
            proptest::prop_assert_eq!(&compact_bytes, &cursor_model::encode_compact(&compact));
            if pad {
                proptest::prop_assert_eq!(compact_bytes.len(), RANK_UPDATE_WIRE_BYTES + 1);
            }
            for good in [raw_bytes, compact_bytes] {
                let payload = damage(good.to_vec(), mutation, at, &noise);
                proptest::prop_assert_eq!(
                    UpdateFrameWire::decode(payload.clone()),
                    cursor_model::raw(payload.clone())
                );
                proptest::prop_assert_eq!(
                    CompactFrameWire::decode(payload.clone()),
                    cursor_model::compact(payload.clone())
                );
                proptest::prop_assert_eq!(
                    RankUpdateWire::parse(&payload),
                    cursor_model::single(payload.clone())
                );
            }
        }
    }
}
