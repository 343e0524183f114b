//! Overlay hop accounting — the Sec. 3.2 caching ablation.
//!
//! "On DHT based systems … network traffic generated from the
//! pagerank update messages can be reduced by caching IP addresses of
//! peers. When the first pagerank update message is sent for a
//! document, the P2P layer's routing mechanism is used to find the
//! location of the document. Once its location has been found the IP
//! address is cached at the source node, and subsequent update
//! messages can be exchanged directly."
//!
//! [`HopAccounting`] charges both policies on the message-level
//! cluster — per frame ([`HopAccounting::charge_peer`]) and, for the
//! unbatched shadow, per update ([`HopAccounting::charge`]):
//!
//! * [`HopAccounting::routed`] — every message is routed through the
//!   overlay (what Freenet-style anonymity requires, Sec. 3.2's last
//!   paragraph): cost = O(log n) hops per message.
//! * [`HopAccounting::cached`] — first message per (source peer,
//!   document) routes and caches; the rest go direct: amortized cost
//!   → 1 hop per message.
//!
//! Under random placement the document's actual holder need not be
//! the DHT successor of its GUID; the successor then holds a location
//! pointer, which costs one extra hop to chase — the standard
//! indirection of DHT storage systems.

use dpr_graph::DocId;
use dpr_p2p::cache::CacheSet;
use dpr_p2p::guid::Guid;
use dpr_p2p::peer::PeerId;
use dpr_p2p::ring::Ring;
use dpr_p2p::routing::Router;
use dpr_telemetry::{Event, Metric, Recorder};
use std::sync::Arc;

/// Which delivery policy is modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    RouteEveryMessage,
    CacheAfterFirst,
}

/// Hop-charging state shared across a run.
pub struct HopAccounting {
    ring: Ring,
    /// Each peer's GUID by peer id, hashed once here so that a
    /// per-frame charge never re-hashes its destination.
    peer_guids: Vec<Guid>,
    router: Router,
    /// Per-document address caches, for [`HopAccounting::charge`].
    caches: CacheSet,
    /// The peer-level address cache of [`HopAccounting::charge_peer`]:
    /// bit `dst` of sender `src`'s row, `row_words` words from
    /// `src * row_words`, is set once a frame `src → dst` has routed.
    charged: Vec<u64>,
    row_words: usize,
    policy: Policy,
    rec: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for HopAccounting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HopAccounting")
            .field("ring", &self.ring)
            .field("router", &self.router)
            .field("caches", &self.caches)
            .field("policy", &self.policy)
            .field("observed", &self.rec.is_some())
            .finish()
    }
}

impl HopAccounting {
    /// Route every message through the overlay.
    pub fn routed(ring: Ring) -> Self {
        HopAccounting::with_policy(ring, Policy::RouteEveryMessage)
    }

    /// Route the first message per (source peer, document), then cache
    /// the destination address and go direct.
    pub fn cached(ring: Ring) -> Self {
        HopAccounting::with_policy(ring, Policy::CacheAfterFirst)
    }

    fn with_policy(ring: Ring, policy: Policy) -> Self {
        let ids = ring.peers().map(|p| p.0 + 1).max().unwrap_or(0);
        let row_words = (ids as usize).div_ceil(64);
        HopAccounting {
            peer_guids: (0..ids).map(Guid::for_peer).collect(),
            caches: CacheSet::new(ring.len()),
            charged: vec![0; ids as usize * row_words],
            row_words,
            ring,
            router: Router::new(),
            policy,
            rec: None,
        }
    }

    /// Attaches a recorder. Every charged hop feeds
    /// [`Metric::RoutedHops`]; overlay routes additionally observe
    /// [`Metric::RouteHops`], and under the caching policy hits and
    /// misses feed [`Metric::RouteCacheHits`] /
    /// [`Metric::RouteCacheMisses`], each miss emitting one
    /// [`Event::RouteResolved`] (events stay bounded by the cache
    /// population, never per message).
    pub fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        self.rec = Some(rec);
    }

    /// Charges one message from `src` to the peer holding `doc`
    /// (`actual_owner`), returning the overlay hops consumed.
    pub fn charge(&mut self, src: PeerId, actual_owner: PeerId, doc: DocId) -> u32 {
        let guid = Guid::for_document(doc);
        match self.policy {
            Policy::RouteEveryMessage => self.route_cost(src, actual_owner, guid),
            Policy::CacheAfterFirst => {
                if let Some(peer) = self.caches.of(src).lookup(guid) {
                    debug_assert_eq!(peer, actual_owner, "stale cache in static run");
                    self.record_hit();
                    1
                } else {
                    let hops = self.route_cost(src, actual_owner, guid);
                    self.caches.of(src).insert(guid, actual_owner);
                    self.record_miss(src, actual_owner, hops);
                    hops
                }
            }
        }
    }

    /// Charges one *frame* from `src` to destination peer `dst`,
    /// returning the overlay hops consumed. A frame is addressed to a
    /// peer, not a document, so it routes on the peer's own GUID
    /// (every peer is its own successor — no pointer indirection) and,
    /// under the caching policy, one cache entry per destination
    /// *peer* makes every later frame a single direct hop. This is the
    /// per-frame charge that replaces per-update routing when
    /// aggregation is on. Both peers must be on the ring.
    pub fn charge_peer(&mut self, src: PeerId, dst: PeerId) -> u32 {
        let guid = self.peer_guids[dst.index()];
        match self.policy {
            Policy::RouteEveryMessage => self.route_cost(src, dst, guid),
            Policy::CacheAfterFirst => {
                let word = &mut self.charged[src.index() * self.row_words + dst.index() / 64];
                let bit = 1 << (dst.index() % 64);
                if *word & bit != 0 {
                    self.record_hit();
                    1
                } else {
                    *word |= bit;
                    let hops = self.route_cost(src, dst, guid);
                    self.record_miss(src, dst, hops);
                    hops
                }
            }
        }
    }

    fn route_cost(&mut self, src: PeerId, actual_owner: PeerId, guid: Guid) -> u32 {
        let route = self.router.route(&self.ring, src, guid);
        // If the document does not physically live on its DHT
        // successor (random placement), the successor's pointer is
        // chased with one extra hop.
        let indirection = u32::from(route.owner != actual_owner);
        // Delivery of at least one hop even if src is the successor.
        let cost = (route.hops + indirection).max(1);
        if let Some(rec) = self.rec.as_deref().filter(|r| r.enabled()) {
            rec.counter_add(Metric::RoutedHops, u64::from(cost));
            rec.observe(Metric::RouteHops, u64::from(cost));
        }
        cost
    }

    fn record_hit(&self) {
        if let Some(rec) = self.rec.as_deref().filter(|r| r.enabled()) {
            rec.counter_add(Metric::RouteCacheHits, 1);
            // The cached address still costs one direct transmission.
            rec.counter_add(Metric::RoutedHops, 1);
        }
    }

    fn record_miss(&self, src: PeerId, dst: PeerId, hops: u32) {
        if let Some(rec) = self.rec.as_deref().filter(|r| r.enabled()) {
            rec.counter_add(Metric::RouteCacheMisses, 1);
            rec.event(&Event::RouteResolved {
                src: src.0,
                dst: dst.0,
                hops,
                cached: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routed_charges_log_hops() {
        let ring = Ring::with_peers(128);
        let mut acc = HopAccounting::routed(ring.clone());
        let doc = DocId(5);
        let owner = ring.successor(Guid::for_document(doc));
        let src = PeerId(if owner == PeerId(0) { 1 } else { 0 });
        let h1 = acc.charge(src, owner, doc);
        let h2 = acc.charge(src, owner, doc);
        assert!(h1 >= 1);
        assert_eq!(h1, h2, "routing every time costs the same every time");
    }

    #[test]
    fn cached_pays_once_then_one_hop() {
        let ring = Ring::with_peers(128);
        let mut acc = HopAccounting::cached(ring.clone());
        let doc = DocId(5);
        let owner = ring.successor(Guid::for_document(doc));
        let src = PeerId(if owner == PeerId(0) { 1 } else { 0 });
        let first = acc.charge(src, owner, doc);
        let second = acc.charge(src, owner, doc);
        let third = acc.charge(src, owner, doc);
        assert!(first >= 1);
        assert_eq!(second, 1);
        assert_eq!(third, 1);
        assert_eq!(
            acc.caches.of(src).lookup(Guid::for_document(doc)),
            Some(owner)
        );
    }

    #[test]
    fn peer_charge_caches_per_destination_peer() {
        let ring = Ring::with_peers(128);
        // Peers sit at their own GUIDs, so the route lands exactly on
        // the destination — no indirection hop.
        let mut routed = HopAccounting::routed(ring.clone());
        let h1 = routed.charge_peer(PeerId(0), PeerId(77));
        let h2 = routed.charge_peer(PeerId(0), PeerId(77));
        assert!(h1 >= 1);
        assert_eq!(h1, h2, "routing every frame costs the same every time");

        let mut cached = HopAccounting::cached(ring);
        let first = cached.charge_peer(PeerId(0), PeerId(77));
        assert_eq!(first, h1, "first frame pays the same route");
        assert_eq!(cached.charge_peer(PeerId(0), PeerId(77)), 1);
        assert_eq!(cached.charge_peer(PeerId(0), PeerId(77)), 1);
        // A different destination peer is a separate cache entry.
        let other_first = cached.charge_peer(PeerId(0), PeerId(33));
        assert!(other_first >= 1);
    }

    /// The dense peer cache charges what a per-sender GUID-keyed
    /// address cache does, send for send.
    #[test]
    fn peer_charges_follow_a_guid_keyed_cache() {
        let ring = Ring::with_peers(150);
        let (mut cached, mut routed) = (
            HopAccounting::cached(ring.clone()),
            HopAccounting::routed(ring),
        );
        let mut model = CacheSet::new(150);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (src, dst) = (PeerId((x % 150) as u32), PeerId((x >> 32) as u32 % 150));
            let guid = Guid::for_peer(dst.0);
            let want = match model.of(src).lookup(guid) {
                Some(_) => 1,
                None => {
                    model.of(src).insert(guid, dst);
                    routed.charge_peer(src, dst)
                }
            };
            assert_eq!(cached.charge_peer(src, dst), want, "{src:?} -> {dst:?}");
        }
    }

    #[test]
    fn non_successor_owner_costs_an_extra_hop() {
        let ring = Ring::with_peers(64);
        let doc = DocId(7);
        let guid = Guid::for_document(doc);
        let successor = ring.successor(guid);
        // Pick an actual owner that is NOT the successor.
        let other = ring
            .peers()
            .find(|&p| p != successor)
            .expect("more than one peer");
        let src = ring
            .peers()
            .find(|&p| p != successor && p != other)
            .unwrap();
        let mut direct = HopAccounting::routed(ring.clone());
        let mut indirect = HopAccounting::routed(ring.clone());
        let h_direct = direct.charge(src, successor, doc);
        let h_indirect = indirect.charge(src, other, doc);
        assert_eq!(h_indirect, h_direct + 1);
    }

    #[test]
    fn observed_charges_match_and_feed_cache_metrics() {
        use dpr_telemetry::TraceRecorder;

        let ring = Ring::with_peers(128);
        let doc = DocId(5);
        let owner = ring.successor(Guid::for_document(doc));
        let src = PeerId(if owner == PeerId(0) { 1 } else { 0 });

        let mut plain = HopAccounting::cached(ring.clone());
        let expected: Vec<u32> = (0..3).map(|_| plain.charge(src, owner, doc)).collect();

        let rec = Arc::new(TraceRecorder::new());
        let mut acc = HopAccounting::cached(ring);
        acc.set_recorder(rec.clone());
        let got: Vec<u32> = (0..3).map(|_| acc.charge(src, owner, doc)).collect();
        assert_eq!(got, expected, "recorder must not perturb charges");

        assert_eq!(rec.counter(Metric::RouteCacheMisses), 1);
        assert_eq!(rec.counter(Metric::RouteCacheHits), 2);
        // One routed miss plus one direct hop per hit.
        assert_eq!(rec.counter(Metric::RoutedHops), u64::from(expected[0]) + 2);
        assert_eq!(rec.histogram(Metric::RouteHops).count(), 1);
        let events = rec.events();
        assert_eq!(events.len(), 1, "events only on actual routes");
        match &events[0] {
            Event::RouteResolved {
                src: s,
                dst,
                hops,
                cached,
            } => {
                assert_eq!((*s, *dst), (src.0, owner.0));
                assert_eq!(*hops, expected[0]);
                assert!(!cached);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn per_source_caches_are_independent() {
        let ring = Ring::with_peers(32);
        let mut acc = HopAccounting::cached(ring.clone());
        let doc = DocId(9);
        let owner = ring.successor(Guid::for_document(doc));
        let sources: Vec<PeerId> = ring.peers().filter(|&p| p != owner).take(3).collect();
        for &s in &sources {
            // Each source pays its own routed miss.
            let h = acc.charge(s, owner, doc);
            assert!(h >= 1);
        }
        let guid = Guid::for_document(doc);
        for &s in &sources {
            assert_eq!(acc.caches.of(s).lookup(guid), Some(owner));
        }
        let idle = ring
            .peers()
            .find(|p| *p != owner && !sources.contains(p))
            .unwrap();
        assert_eq!(
            acc.caches.of(idle).lookup(guid),
            None,
            "a source caches only its own lookups"
        );
    }
}
