//! 128-bit GUIDs and the consistent-hash id space.
//!
//! DHT systems in the paper's class (Chord, Pastry, CAN) give every
//! document and every peer an identifier in one circular id space; a
//! document lives on the peer that *succeeds* its id on the circle.
//! The paper's pagerank update message is "128 bits for GUID, 64 bits
//! for pagerank value" — [`Guid`] is that 128-bit identifier.
//!
//! Hashing is a from-scratch FNV-1a/128 followed by an avalanche mix.
//! FNV alone distributes the low bits poorly for short sequential
//! inputs (like dense `DocId`s); the final mixing step gives the
//! near-uniform spread consistent hashing needs.

use dpr_graph::DocId;

/// A 128-bit identifier on the DHT circle.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Guid(pub u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// FNV-1a over a byte slice, 128-bit variant.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Final avalanche: two rounds of xor-shift-multiply on each half
/// (splitmix64 finalizer constants), recombined.
fn avalanche(h: u128) -> u128 {
    fn mix64(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    let hi = mix64((h >> 64) as u64 ^ (h as u64).rotate_left(32));
    let lo = mix64(h as u64 ^ hi);
    ((hi as u128) << 64) | lo as u128
}

impl Guid {
    /// GUID of a document.
    pub fn for_document(d: DocId) -> Guid {
        let mut bytes = [0u8; 5];
        bytes[0] = b'D';
        bytes[1..5].copy_from_slice(&d.0.to_le_bytes());
        Guid(avalanche(fnv1a_128(&bytes)))
    }

    /// GUID of a peer, derived from its stable peer number.
    pub fn for_peer(peer_num: u32) -> Guid {
        let mut bytes = [0u8; 5];
        bytes[0] = b'P';
        bytes[1..5].copy_from_slice(&peer_num.to_le_bytes());
        Guid(avalanche(fnv1a_128(&bytes)))
    }

    /// GUID of an index term (used by the distributed keyword index).
    pub fn for_term(term: &str) -> Guid {
        let mut bytes = Vec::with_capacity(term.len() + 1);
        bytes.push(b'T');
        bytes.extend_from_slice(term.as_bytes());
        Guid(avalanche(fnv1a_128(&bytes)))
    }

    /// The 64-bit demultiplexing tag used inside multi-update frames.
    ///
    /// A frame is already addressed to the one peer holding all its
    /// target documents, so entries do not need the full 128-bit GUID
    /// that DHT *routing* needs — the low half identifies a document
    /// within one peer's document set. Receivers keep a `tag -> doc`
    /// index and check for collisions when documents are registered
    /// (see `PeerNode::add_document`); the avalanche mix makes a
    /// same-peer collision a ~2^-64 event.
    #[inline]
    pub fn frame_tag(self) -> u64 {
        self.0 as u64
    }

    /// Clockwise distance from `self` to `other` on the circle.
    #[inline]
    pub fn distance_to(self, other: Guid) -> u128 {
        other.0.wrapping_sub(self.0)
    }

    /// The id `self + 2^k` (mod 2^128): the k-th Chord finger start.
    #[inline]
    pub fn finger_start(self, k: u32) -> Guid {
        debug_assert!(k < 128);
        Guid(self.0.wrapping_add(1u128 << k))
    }
}

impl std::fmt::Display for Guid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_guids_are_distinct_and_stable() {
        let a = Guid::for_document(DocId(1));
        let b = Guid::for_document(DocId(2));
        assert_ne!(a, b);
        assert_eq!(a, Guid::for_document(DocId(1)));
    }

    #[test]
    fn namespaces_do_not_collide() {
        // Same underlying number, different kinds.
        assert_ne!(Guid::for_document(DocId(7)), Guid::for_peer(7));
        assert_ne!(Guid::for_term("7"), Guid::for_peer(7));
    }

    #[test]
    fn guids_spread_across_the_circle() {
        // Dense ids must map to well-spread points: split the circle
        // into 16 equal arcs and require every arc to be hit.
        let mut buckets = [0usize; 16];
        for i in 0..4096u32 {
            let g = Guid::for_document(DocId(i));
            buckets[(g.0 >> 124) as usize] += 1;
        }
        for (i, &c) in buckets.iter().enumerate() {
            assert!(c > 128, "bucket {i} underfull: {c}");
        }
    }

    #[test]
    fn distance_wraps_around() {
        let a = Guid(u128::MAX - 1);
        let b = Guid(3);
        assert_eq!(a.distance_to(b), 5);
        assert_eq!(b.distance_to(a), u128::MAX - 4);
        assert_eq!(a.distance_to(a), 0);
    }

    #[test]
    fn finger_start_wraps() {
        let g = Guid(u128::MAX);
        assert_eq!(g.finger_start(0).0, 0);
        assert_eq!(Guid(0).finger_start(127).0, 1u128 << 127);
    }

    #[test]
    fn display_is_fixed_width_hex() {
        assert_eq!(Guid(0xab).to_string().len(), 32);
        assert!(Guid(0xab).to_string().ends_with("ab"));
    }
}
