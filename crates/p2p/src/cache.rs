//! Per-peer document-location cache (paper Sec. 3.2).
//!
//! "When the first pagerank update message is sent for a document, the
//! P2P layer's routing mechanism is used to find the location of the
//! document. Once its location has been found the IP address is cached
//! at the source node, and subsequent update messages can be exchanged
//! directly between source and destination. Storage requirement for
//! this scheme scales linearly with the sum of the outlinks in all
//! documents in a peer."
//!
//! The cache maps a document's GUID to the peer holding it; a miss
//! falls back to routing, which populates the entry.

use crate::{guid::Guid, peer::PeerId};
use fxhash::FxHashMap;

/// One peer's document-location cache.
#[derive(Debug, Default)]
pub struct AddressCache {
    entries: FxHashMap<Guid, PeerId>,
}

impl AddressCache {
    /// An empty cache.
    pub fn new() -> Self {
        AddressCache::default()
    }

    /// Looks up the cached location of `doc`.
    pub fn lookup(&self, doc: Guid) -> Option<PeerId> {
        self.entries.get(&doc).copied()
    }

    /// Records that `doc` lives on `peer` (after a routed lookup).
    pub fn insert(&mut self, doc: Guid, peer: PeerId) {
        self.entries.insert(doc, peer);
    }
}

/// All peers' caches, indexed by peer.
#[derive(Debug, Default)]
pub struct CacheSet {
    caches: Vec<AddressCache>,
}

impl CacheSet {
    /// Caches for `n` peers.
    pub fn new(n: usize) -> Self {
        CacheSet {
            caches: (0..n).map(|_| AddressCache::new()).collect(),
        }
    }

    /// The cache belonging to `p`.
    pub fn of(&mut self, p: PeerId) -> &mut AddressCache {
        &mut self.caches[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_graph::DocId;

    fn g(d: u32) -> Guid {
        Guid::for_document(DocId(d))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = AddressCache::new();
        assert_eq!(c.lookup(g(1)), None);
        c.insert(g(1), PeerId(4));
        assert_eq!(c.lookup(g(1)), Some(PeerId(4)));
    }

    #[test]
    fn reinsert_overwrites_stale_location() {
        let mut c = AddressCache::new();
        c.insert(g(1), PeerId(4));
        c.insert(g(1), PeerId(9));
        assert_eq!(c.lookup(g(1)), Some(PeerId(9)));
        assert_eq!(c.entries.len(), 1);
    }
}
