//! The pagerank update message, single and framed.
//!
//! "Upon receiving an update message for a document, the receiving
//! peer updates the document's pagerank" (Fig. 1). In the increment
//! formulation used by the engine, the message carries the *change* in
//! the sender's forwarded contribution; the receiver simply adds it.
//! A negative delta is a document-deletion update (Sec. 3.1).
//!
//! The paper's cost model assumes peers holding many documents combine
//! traffic to the same destination (Sec. 4.6). [`FlushBuffer`] is the
//! specification of that aggregation's sender side: increments
//! accumulate per destination peer, increments to the same document
//! coalesce into one entry, and [`UpdateFrame`] carries the result as
//! one multi-update wire payload instead of k single messages.

use dpr_graph::DocId;
use dpr_p2p::guid::Guid;
use dpr_p2p::transport::{max_entries_for, FrameEntry, RankUpdateWire, UpdateFrameWire, WireError};
use fxhash::FxHashMap;

/// An in-memory pagerank update: "add `delta` to document `doc`".
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RankUpdate {
    /// The target document.
    pub doc: DocId,
    /// The rank contribution change (damping already applied by the
    /// sender). Negative for deletions.
    pub delta: f64,
}

impl RankUpdate {
    /// Creates an update.
    pub fn new(doc: DocId, delta: f64) -> Self {
        RankUpdate { doc, delta }
    }

    /// Serializes to the paper's 24-byte wire form (128-bit GUID +
    /// 64-bit value).
    pub fn to_wire(self) -> RankUpdateWire {
        RankUpdateWire {
            guid: Guid::for_document(self.doc).0,
            value: self.delta,
        }
    }

    /// Recovers the in-memory form from the wire, resolving the GUID
    /// through the receiver's `guid -> doc` resolver (a real peer
    /// holds this map for the documents it stores).
    pub fn from_wire(
        wire: RankUpdateWire,
        resolve: impl Fn(Guid) -> Option<DocId>,
    ) -> Result<Self, MessageError> {
        let doc = resolve(Guid(wire.guid)).ok_or(MessageError::UnknownGuid(Guid(wire.guid)))?;
        Ok(RankUpdate {
            doc,
            delta: wire.value,
        })
    }
}

/// An in-memory multi-update frame: every update targets a document on
/// the same destination peer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateFrame {
    /// The updates, in sender flush order (first-touch order of the
    /// coalescing buffer — the order the receiver folds them in).
    pub updates: Vec<RankUpdate>,
}

impl UpdateFrame {
    /// Serializes to the packed wire form: each update becomes a
    /// 16-byte `(frame_tag, value)` entry.
    pub fn to_wire(&self) -> UpdateFrameWire {
        UpdateFrameWire {
            entries: self
                .updates
                .iter()
                .map(|u| FrameEntry {
                    tag: Guid::for_document(u.doc).frame_tag(),
                    value: u.delta,
                })
                .collect(),
        }
    }

    /// Recovers the in-memory form, resolving each entry's tag through
    /// the receiver's `tag -> doc` index. Entry order is preserved —
    /// the receiver must fold in this order for determinism.
    pub fn from_wire(
        wire: &UpdateFrameWire,
        resolve: impl Fn(u64) -> Option<DocId>,
    ) -> Result<Self, MessageError> {
        let mut updates = Vec::with_capacity(wire.entries.len());
        for e in &wire.entries {
            let doc = resolve(e.tag).ok_or(MessageError::UnknownTag(e.tag))?;
            updates.push(RankUpdate {
                doc,
                delta: e.value,
            });
        }
        Ok(UpdateFrame { updates })
    }
}

/// Sender-side per-destination aggregation buffer.
///
/// Increments pushed for the same document coalesce into one entry by
/// *adding in push order* — exactly the fold the receiver would have
/// performed on its own zero-seeded receiving accumulator had each
/// increment travelled alone, which is what keeps batched and
/// unbatched runs bit-identical (see DESIGN.md "Wire protocol &
/// aggregation").
///
/// `dpr-node` no longer steps through this type (it coalesces over
/// pre-resolved link slots in a scratch shared by all nodes); the
/// buffer stays public as the executable reference model its emit path
/// is property-tested against, and because `perf/` and
/// `benches/wire.rs` time it.
#[derive(Debug, Clone, Default)]
pub struct FlushBuffer {
    entries: Vec<RankUpdate>,
    index: FxHashMap<DocId, usize>,
}

impl FlushBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FlushBuffer::default()
    }

    /// Accumulates one increment, coalescing per document.
    pub fn push(&mut self, doc: DocId, delta: f64) {
        match self.index.get(&doc) {
            Some(&i) => self.entries[i].delta += delta,
            None => {
                self.index.insert(doc, self.entries.len());
                self.entries.push(RankUpdate { doc, delta });
            }
        }
    }

    /// Number of coalesced entries currently buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drains the buffer into frames of at most
    /// [`max_entries_for`]`(max_frame_bytes)` entries each — the
    /// flush-on-pass-end step of the flush policy, with the size cap
    /// splitting oversized flushes. Entries keep first-touch order
    /// across the split.
    pub fn flush(&mut self, max_frame_bytes: usize) -> Vec<UpdateFrame> {
        self.index.clear();
        let cap = max_entries_for(max_frame_bytes);
        let mut frames = Vec::with_capacity(self.entries.len().div_ceil(cap));
        let mut entries = std::mem::take(&mut self.entries);
        while !entries.is_empty() {
            let rest = entries.split_off(entries.len().min(cap));
            frames.push(UpdateFrame { updates: entries });
            entries = rest;
        }
        frames
    }
}

/// Errors decoding or resolving an update message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MessageError {
    /// The GUID does not correspond to any document held by this peer.
    UnknownGuid(Guid),
    /// A frame entry's tag does not correspond to any document held by
    /// this peer.
    UnknownTag(u64),
    /// The wire payload was malformed.
    Wire(WireError),
}

impl From<WireError> for MessageError {
    fn from(e: WireError) -> Self {
        MessageError::Wire(e)
    }
}

impl std::fmt::Display for MessageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessageError::UnknownGuid(g) => write!(f, "no local document with guid {g}"),
            MessageError::UnknownTag(t) => write!(f, "no local document with frame tag {t:#x}"),
            MessageError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for MessageError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_p2p::transport::frame_wire_bytes;
    use std::collections::HashMap;

    #[test]
    fn wire_roundtrip_via_guid_resolution() {
        let m = RankUpdate::new(DocId(17), 0.25);
        let wire = m.to_wire();
        // A peer's local guid index.
        let index: HashMap<Guid, DocId> = (0..32u32)
            .map(|i| (Guid::for_document(DocId(i)), DocId(i)))
            .collect();
        let back = RankUpdate::from_wire(wire, |g| index.get(&g).copied()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn unknown_guid_is_an_error() {
        let m = RankUpdate::new(DocId(99), 1.0);
        let err = RankUpdate::from_wire(m.to_wire(), |_| None).unwrap_err();
        assert!(matches!(err, MessageError::UnknownGuid(_)));
    }

    #[test]
    fn negative_delta_survives_the_wire() {
        let m = RankUpdate::new(DocId(3), -1.5);
        let back = RankUpdate::from_wire(m.to_wire(), |_| Some(DocId(3))).unwrap();
        assert!(back.delta < 0.0);
        assert_eq!(back.delta, -1.5);
    }

    #[test]
    fn full_byte_roundtrip() {
        // In-memory -> wire -> 24 bytes -> wire -> in-memory.
        let m = RankUpdate::new(DocId(8), 0.0625);
        let bytes = m.to_wire().encode();
        assert_eq!(bytes.len(), 24);
        let wire = RankUpdateWire::decode(bytes).unwrap();
        let back = RankUpdate::from_wire(wire, |g| {
            (g == Guid::for_document(DocId(8))).then_some(DocId(8))
        })
        .unwrap();
        assert_eq!(back, m);
    }

    /// A resolver over a dense doc range, as a receiving peer keeps.
    fn tag_index(n: u32) -> HashMap<u64, DocId> {
        (0..n)
            .map(|i| (Guid::for_document(DocId(i)).frame_tag(), DocId(i)))
            .collect()
    }

    #[test]
    fn frame_full_byte_roundtrip() {
        let frame = UpdateFrame {
            updates: vec![
                RankUpdate::new(DocId(3), 0.5),
                RankUpdate::new(DocId(0), -0.125),
                RankUpdate::new(DocId(7), 2.0),
            ],
        };
        let bytes = frame.to_wire().encode();
        assert_eq!(bytes.len(), 4 + 16 * 3);
        let wire = UpdateFrameWire::decode(bytes).unwrap();
        let index = tag_index(16);
        let back = UpdateFrame::from_wire(&wire, |t| index.get(&t).copied()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let frame = UpdateFrame {
            updates: vec![RankUpdate::new(DocId(99), 1.0)],
        };
        let err = UpdateFrame::from_wire(&frame.to_wire(), |_| None).unwrap_err();
        assert!(matches!(err, MessageError::UnknownTag(_)));
    }

    #[test]
    fn flush_buffer_coalesces_in_push_order() {
        let mut buf = FlushBuffer::new();
        buf.push(DocId(5), 0.25);
        buf.push(DocId(9), 1.0);
        buf.push(DocId(5), 0.5); // coalesces into the first entry
        assert_eq!(buf.len(), 2);
        let frames = buf.flush(usize::MAX);
        assert!(buf.is_empty());
        assert_eq!(frames.len(), 1);
        // First-touch order, and the receiver-equivalent fold 0.25 + 0.5.
        assert_eq!(
            frames[0].updates,
            vec![
                RankUpdate::new(DocId(5), 0.25 + 0.5),
                RankUpdate::new(DocId(9), 1.0)
            ]
        );
    }

    #[test]
    fn flush_splits_at_the_size_cap() {
        // Cap of 36 bytes fits exactly 2 entries per frame.
        let cap_bytes = 4 + 16 * 2;
        assert_eq!(max_entries_for(cap_bytes), 2);
        let mut buf = FlushBuffer::new();
        for i in 0..5u32 {
            buf.push(DocId(i), i as f64 + 1.0);
        }
        let frames = buf.flush(cap_bytes);
        assert_eq!(
            frames.iter().map(|f| f.updates.len()).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        // Concatenated frames preserve first-touch order exactly.
        let docs: Vec<u32> = frames
            .iter()
            .flat_map(|f| f.updates.iter().map(|u| u.doc.0))
            .collect();
        assert_eq!(docs, vec![0, 1, 2, 3, 4]);
        // A flushed buffer coalesces afresh: same doc starts a new entry.
        buf.push(DocId(0), 7.0);
        assert_eq!(buf.len(), 1);
    }

    proptest::proptest! {
        /// Satellite 1: frames of any size survive encode -> decode ->
        /// resolve byte-for-byte, including at the cap boundary.
        #[test]
        fn frame_roundtrip_proptest(
            raw in proptest::collection::vec(
                (0u32..512, -1.0e6f64..1.0e6), 1..200),
            cap_entries in 1usize..64,
        ) {
            let index = tag_index(512);
            let mut buf = FlushBuffer::new();
            for &(doc, delta) in &raw {
                buf.push(DocId(doc), delta);
            }
            let total = buf.len();
            let cap_bytes = frame_wire_bytes(cap_entries);
            proptest::prop_assert_eq!(max_entries_for(cap_bytes), cap_entries);
            let frames = buf.flush(cap_bytes);
            proptest::prop_assert_eq!(frames.len(), total.div_ceil(cap_entries));
            let mut seen = 0usize;
            for frame in &frames {
                proptest::prop_assert!(frame.updates.len() <= cap_entries);
                let bytes = frame.to_wire().encode();
                proptest::prop_assert_eq!(
                    bytes.len(), frame_wire_bytes(frame.updates.len()));
                let wire = UpdateFrameWire::decode(bytes).unwrap();
                let back =
                    UpdateFrame::from_wire(&wire, |t| index.get(&t).copied()).unwrap();
                proptest::prop_assert_eq!(&back, frame);
                seen += frame.updates.len();
            }
            proptest::prop_assert_eq!(seen, total);
            // Coalesced sum per doc equals the push-order fold.
            let mut expect: HashMap<u32, f64> = HashMap::new();
            for &(doc, delta) in &raw {
                *expect.entry(doc).or_insert(0.0) += delta;
            }
            for u in frames.iter().flat_map(|f| f.updates.iter()) {
                proptest::prop_assert_eq!(u.delta, expect[&u.doc.0]);
            }
        }
    }
}
