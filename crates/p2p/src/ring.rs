//! The Chord-style consistent-hash ring.
//!
//! Peers sit at the points `Guid::for_peer(i)` on a 2^128 circle; the
//! peer responsible for any id is its *successor* — the first peer at
//! or after the id, wrapping around. [`Ring`] maintains the sorted
//! membership and answers successor queries in O(log n); it is the
//! membership source of truth for routing, placement, and the
//! distributed keyword index.

use crate::{guid::Guid, peer::PeerId};

/// Sorted ring membership.
#[derive(Debug, Clone, Default)]
pub struct Ring {
    /// `(guid, peer)` sorted by guid. Guids are unique (the hash is
    /// collision-free over the tiny peer-number space in practice;
    /// insertion asserts it).
    points: Vec<(Guid, PeerId)>,
}

impl Ring {
    /// An empty ring.
    pub fn new() -> Self {
        Ring::default()
    }

    /// A ring with peers `0..n` already joined.
    pub fn with_peers(n: usize) -> Self {
        let mut r = Ring::new();
        for i in 0..n as u32 {
            r.join(PeerId(i));
        }
        r
    }

    /// Number of peers on the ring.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the ring has no peers.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Adds a peer to the ring.
    ///
    /// # Panics
    ///
    /// Panics if the peer is already present or its guid collides.
    pub fn join(&mut self, p: PeerId) {
        let g = Guid::for_peer(p.0);
        match self.points.binary_search_by_key(&g, |&(g, _)| g) {
            Ok(_) => panic!("peer {p} (or a guid collision) already on the ring"),
            Err(pos) => self.points.insert(pos, (g, p)),
        }
    }

    /// Whether `p` is on the ring.
    pub fn contains(&self, p: PeerId) -> bool {
        let g = Guid::for_peer(p.0);
        self.points.binary_search_by_key(&g, |&(g, _)| g).is_ok()
    }

    /// The peer responsible for `id`: the first peer clockwise at or
    /// after `id`.
    ///
    /// # Panics
    ///
    /// Panics on an empty ring.
    pub fn successor(&self, id: Guid) -> PeerId {
        assert!(!self.points.is_empty(), "successor on empty ring");
        let pos = self.points.partition_point(|&(g, _)| g < id);
        if pos == self.points.len() {
            self.points[0].1
        } else {
            self.points[pos].1
        }
    }

    /// Iterator over peers in ring (guid) order.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.points.iter().map(|&(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_and_contains() {
        let mut r = Ring::new();
        assert!(r.is_empty());
        r.join(PeerId(0));
        r.join(PeerId(1));
        assert_eq!(r.len(), 2);
        assert!(r.contains(PeerId(0)));
        assert!(!r.contains(PeerId(2)));
    }

    #[test]
    #[should_panic(expected = "already on the ring")]
    fn double_join_panics() {
        let mut r = Ring::new();
        r.join(PeerId(3));
        r.join(PeerId(3));
    }

    #[test]
    fn successor_is_first_at_or_after() {
        let r = Ring::with_peers(8);
        // Brute-force check against a linear scan for many probe ids.
        let mut pts: Vec<(Guid, PeerId)> =
            (0..8u32).map(|i| (Guid::for_peer(i), PeerId(i))).collect();
        pts.sort_by_key(|&(g, _)| g);
        for probe in 0..1000u32 {
            let id = Guid::for_document(dpr_graph::DocId(probe));
            let expect = pts
                .iter()
                .find(|&&(g, _)| g >= id)
                .map(|&(_, p)| p)
                .unwrap_or(pts[0].1);
            assert_eq!(r.successor(id), expect);
        }
    }

    #[test]
    fn successor_of_own_guid_is_self() {
        let r = Ring::with_peers(5);
        for i in 0..5u32 {
            assert_eq!(r.successor(Guid::for_peer(i)), PeerId(i));
        }
    }

    #[test]
    fn predecessor_and_successor_are_adjacent() {
        let r = Ring::with_peers(16);
        for probe in 0..200u32 {
            let id = Guid::for_document(dpr_graph::DocId(probe));
            let succ = r.successor(id);
            // The peer point strictly before `id`, wrapping.
            let pos = r.points.partition_point(|&(g, _)| g < id);
            let pred = r.points[(pos + r.points.len() - 1) % r.points.len()].1;
            // id lies in succ's arc: after pred's point, at or before
            // succ's.
            let (lo, hi) = (Guid::for_peer(pred.0), Guid::for_peer(succ.0));
            let into = lo.distance_to(id);
            assert!(
                into > 0 && into <= lo.distance_to(hi),
                "id {id} not in ({lo}, {hi}]"
            );
            assert_ne!(
                pred, succ,
                "with 16 peers pred and succ of a random id differ"
            );
        }
    }

    #[test]
    fn single_peer_owns_everything() {
        let r = Ring::with_peers(1);
        for probe in 0..50u32 {
            let id = Guid::for_document(dpr_graph::DocId(probe));
            assert_eq!(r.successor(id), PeerId(0));
        }
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn successor_on_empty_ring_panics() {
        Ring::new().successor(Guid(0));
    }

    #[test]
    fn peers_iterate_in_guid_order() {
        let r = Ring::with_peers(6);
        let guids: Vec<Guid> = r.peers().map(|p| Guid::for_peer(p.0)).collect();
        assert!(guids.windows(2).all(|w| w[0] < w[1]));
    }
}
