//! Chord-style O(log n) lookup with finger tables.
//!
//! "When the first pagerank update message is sent for a document, the
//! P2P layer's routing mechanism is used to find the location of the
//! document" (paper Sec. 3.2). This module is that routing mechanism:
//! each peer keeps 128 fingers (`successor(own_guid + 2^k)`), and a
//! lookup greedily forwards through the closest preceding finger,
//! taking O(log n) hops. Hop counts feed the caching-vs-routing
//! ablation.
//!
//! The router builds finger tables from the [`Ring`] on demand, once
//! per peer, instead of running Chord's incremental stabilization
//! protocol — the simulation needs correct routing
//! tables and hop counts, not the maintenance traffic, and the paper
//! likewise excludes "message routing and other system overheads" from
//! its model.

use crate::{guid::Guid, peer::PeerId, ring::Ring};
use fxhash::FxHashMap;

/// Result of routing a lookup through the overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The peer responsible for the target id.
    pub owner: PeerId,
    /// Overlay hops taken, counting the final delivery hop; 0 when the
    /// source already owns the id.
    pub hops: u32,
    /// The peers traversed, starting with the source, ending with the
    /// owner.
    pub path: Vec<PeerId>,
}

/// Finger-table router over a [`Ring`].
#[derive(Debug, Default)]
pub struct Router {
    /// finger tables: peer -> 128 successors of guid + 2^k. Sparse
    /// (deduplicated, ordered by k) to keep the common case fast.
    fingers: FxHashMap<PeerId, Vec<(Guid, PeerId)>>,
}

impl Router {
    /// A router with no tables built yet.
    pub fn new() -> Self {
        Router::default()
    }

    fn table_for(&mut self, ring: &Ring, p: PeerId) -> &Vec<(Guid, PeerId)> {
        self.fingers.entry(p).or_insert_with(|| {
            let own = Guid::for_peer(p.0);
            let mut table = Vec::new();
            let mut last: Option<PeerId> = None;
            for k in 0..128u32 {
                let start = own.finger_start(k);
                let succ = ring.successor(start);
                if succ == p {
                    continue;
                }
                if last != Some(succ) {
                    table.push((Guid::for_peer(succ.0), succ));
                    last = Some(succ);
                }
            }
            table
        })
    }

    /// Routes a lookup for `target` starting at `from`, using greedy
    /// closest-preceding-finger forwarding.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring or the ring is empty.
    pub fn route(&mut self, ring: &Ring, from: PeerId, target: Guid) -> Route {
        assert!(ring.contains(from), "source peer {from} not on the ring");
        let owner = ring.successor(target);
        let mut path = vec![from];
        let mut current = from;
        let mut hops = 0u32;
        // Greedy forwarding always strictly decreases clockwise
        // distance to the target, so it terminates; the bound is a
        // defensive guard against table corruption.
        let max_hops = 2 * 128 + ring.len() as u32;
        while current != owner {
            let next = self.next_hop(ring, current, target, owner);
            debug_assert_ne!(next, current, "routing made no progress");
            current = next;
            hops += 1;
            path.push(current);
            assert!(hops <= max_hops, "routing loop detected");
        }
        Route { owner, hops, path }
    }

    /// The next peer on the path from `current` toward `target`: the
    /// finger whose guid most closely precedes `target`, or the owner
    /// directly when a finger reaches it.
    fn next_hop(&mut self, ring: &Ring, current: PeerId, target: Guid, owner: PeerId) -> PeerId {
        let own = Guid::for_peer(current.0);
        let table = self.table_for(ring, current);
        // Choose the finger with maximal clockwise distance from
        // `current` without passing `target`.
        let mut best: Option<(u128, PeerId)> = None;
        for &(g, p) in table.iter() {
            let d = own.distance_to(g);
            if d <= own.distance_to(target) && best.is_none_or(|(bd, _)| d > bd) {
                best = Some((d, p));
            }
        }
        match best {
            Some((_, p)) if p != current => p,
            // No finger strictly precedes the target: the owner is the
            // immediate successor; deliver directly.
            _ => owner,
        }
    }
}

/// Expected hop statistics over many routes — convenience for tests
/// and the caching ablation bench.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct HopStats {
    /// Number of routes measured.
    pub routes: u64,
    /// Total hops across all routes.
    pub total_hops: u64,
    /// Maximum hops seen on a single route.
    pub max_hops: u32,
}

impl HopStats {
    /// Records a route.
    pub fn record(&mut self, r: &Route) {
        self.routes += 1;
        self.total_hops += r.hops as u64;
        self.max_hops = self.max_hops.max(r.hops);
    }

    /// Mean hops per route.
    pub fn mean(&self) -> f64 {
        if self.routes == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.routes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_graph::DocId;

    #[test]
    fn route_reaches_the_owner() {
        let ring = Ring::with_peers(64);
        let mut router = Router::new();
        for d in 0..200u32 {
            let target = Guid::for_document(DocId(d));
            let r = router.route(&ring, PeerId(0), target);
            assert_eq!(r.owner, ring.successor(target));
            assert_eq!(*r.path.last().unwrap(), r.owner);
            assert_eq!(r.path[0], PeerId(0));
            assert_eq!(r.path.len() as u32, r.hops + 1);
        }
    }

    #[test]
    fn self_owned_ids_take_zero_hops() {
        let ring = Ring::with_peers(16);
        let mut router = Router::new();
        // Peer 3's own guid is owned by peer 3; route from peer 3.
        let r = router.route(&ring, PeerId(3), Guid::for_peer(3));
        assert_eq!(r.owner, PeerId(3));
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn hops_are_logarithmic() {
        // With n peers, Chord lookups take O(log2 n) hops; for n = 256
        // the mean should be well under 16 and the max under ~24.
        let ring = Ring::with_peers(256);
        let mut router = Router::new();
        let mut stats = HopStats::default();
        for d in 0..500u32 {
            let r = router.route(&ring, PeerId(d % 256), Guid::for_document(DocId(d)));
            stats.record(&r);
        }
        assert!(stats.mean() <= 8.0, "mean hops {}", stats.mean());
        assert!(stats.max_hops <= 24, "max hops {}", stats.max_hops);
    }

    #[test]
    fn path_makes_monotone_progress() {
        let ring = Ring::with_peers(128);
        let mut router = Router::new();
        let target = Guid::for_document(DocId(9999));
        let r = router.route(&ring, PeerId(5), target);
        // Clockwise distance to target strictly decreases along the
        // path (except possibly the final delivery hop).
        let dist = |p: PeerId| Guid::for_peer(p.0).distance_to(target);
        for w in r.path.windows(2) {
            if w[1] != r.owner {
                assert!(dist(w[1]) < dist(w[0]), "no progress {w:?}");
            }
        }
    }

    #[test]
    fn two_peer_ring_routes_in_one_hop() {
        let ring = Ring::with_peers(2);
        let mut router = Router::new();
        for d in 0..50u32 {
            let target = Guid::for_document(DocId(d));
            let owner = ring.successor(target);
            let src = PeerId(1 - owner.0); // the other peer
            let r = router.route(&ring, src, target);
            assert_eq!(r.hops, 1);
        }
    }
}
