//! Workload construction: the paper's graph + peer assignment.
//!
//! "First the graph representing the documents is constructed … Each
//! document in the graph is then randomly assigned to a peer"
//! (Sec. 4.2). The experiments in Sec. 4.3–4.7 use 500 peers.

use dpr_graph::{powerlaw::PowerLawConfig, CsrGraph};
use dpr_p2p::peer::{PeerId, PeerTable, Placement, PlacementPolicy};
use dpr_p2p::ring::Ring;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The paper's peer count for the pagerank experiments.
pub const PAPER_NUM_PEERS: usize = 500;

/// The paper's four graph sizes (Sec. 4.1).
pub const PAPER_GRAPH_SIZES: [usize; 4] = [10_000, 100_000, 500_000, 5_000_000];

/// A ready-to-run workload: graph, ring, and document placement.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The document link graph.
    pub graph: Arc<CsrGraph>,
    /// The DHT ring with every peer joined.
    pub ring: Ring,
    /// Document → peer assignment.
    pub placement: Placement,
    /// Number of peers.
    pub num_peers: usize,
}

impl Workload {
    /// Builds the paper's workload: a power-law graph of `nodes`
    /// documents randomly placed on `num_peers` peers.
    pub fn paper(nodes: usize, num_peers: usize, seed: u64) -> Self {
        Self::build(nodes, num_peers, seed, PlacementPolicy::Random)
    }

    /// Builds a workload with an explicit placement policy.
    pub fn build(nodes: usize, num_peers: usize, seed: u64, policy: PlacementPolicy) -> Self {
        assert!(num_peers > 0, "need at least one peer");
        let graph = Arc::new(PowerLawConfig::paper(nodes, seed).generate());
        let ring = Ring::with_peers(num_peers);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9);
        let placement = Placement::assign(nodes, &ring, policy, &mut rng);
        Workload {
            graph,
            ring,
            placement,
            num_peers,
        }
    }

    /// Builds a workload placed by the *link-aware* partitioner (the
    /// paper's Sec. 6 future-work idea): BFS seeding plus `sweeps`
    /// label-refinement passes over the link structure, so linked
    /// documents land on the same peer and their rank updates never
    /// touch the network.
    pub fn build_link_aware(nodes: usize, num_peers: usize, seed: u64, sweeps: usize) -> Self {
        assert!(num_peers > 0, "need at least one peer");
        let graph = Arc::new(PowerLawConfig::paper(nodes, seed).generate());
        let labels = dpr_graph::partition::link_aware_partition(&graph, num_peers, sweeps);
        let placement = Placement::from_owner_vec(labels.into_iter().map(PeerId).collect());
        let ring = Ring::with_peers(num_peers);
        Workload {
            graph,
            ring,
            placement,
            num_peers,
        }
    }

    /// Owner vector for the engine (one peer per document).
    pub fn owners(&self) -> Vec<PeerId> {
        (0..self.graph.num_nodes())
            .map(|d| self.placement.owner(dpr_graph::DocId::from(d)))
            .collect()
    }

    /// A fresh all-online peer table.
    pub fn peer_table(&self) -> PeerTable {
        PeerTable::new(self.num_peers)
    }

    /// Remote out-link count per peer (`Σ_j L_ij` of Equation 4):
    /// for each peer, the number of document links whose endpoints
    /// live on different peers.
    pub fn remote_links_per_peer(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_peers];
        for e in self.graph.edges() {
            let src = self.placement.owner(e.from);
            let dst = self.placement.owner(e.to);
            if src != dst {
                counts[src.index()] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_consistent() {
        let w = Workload::paper(2_000, 50, 1);
        assert_eq!(w.graph.num_nodes(), 2_000);
        assert_eq!(w.ring.len(), 50);
        assert_eq!(w.placement.num_docs(), 2_000);
        assert_eq!(w.owners().len(), 2_000);
        let peers = w.peer_table();
        assert_eq!(peers.peers().filter(|&p| peers.is_online(p)).count(), 50);
    }

    #[test]
    fn remote_links_are_most_links_with_many_peers() {
        let w = Workload::paper(2_000, 100, 2);
        let remote: u64 = w.remote_links_per_peer().iter().sum();
        let total = w.graph.num_edges() as u64;
        assert!(remote > total * 9 / 10, "remote {remote} of {total}");
        assert!(remote <= total);
    }

    #[test]
    fn deterministic_workloads() {
        let a = Workload::paper(1_000, 10, 7);
        let b = Workload::paper(1_000, 10, 7);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.owners(), b.owners());
    }

    #[test]
    fn link_aware_placement_cuts_remote_links() {
        let random = Workload::paper(5_000, 20, 4);
        let aware = Workload::build_link_aware(5_000, 20, 4, 6);
        let r: u64 = random.remote_links_per_peer().iter().sum();
        let a: u64 = aware.remote_links_per_peer().iter().sum();
        assert!(
            (a as f64) < 0.8 * r as f64,
            "link-aware {a} vs random {r} remote links"
        );
        // Placement is still complete and reasonably balanced.
        let mut hist = [0usize; 20];
        for &owner in &aware.owners() {
            hist[owner.index()] += 1;
        }
        assert_eq!(hist.iter().sum::<usize>(), 5_000);
        assert!(hist.iter().all(|&c| c > 0), "{hist:?}");
    }

    #[test]
    fn dht_placement_variant() {
        let w = Workload::build(500, 20, 3, dpr_p2p::peer::PlacementPolicy::DhtSuccessor);
        // Placement must match ring successors.
        for d in 0..500u32 {
            let doc = dpr_graph::DocId(d);
            assert_eq!(
                w.placement.owner(doc),
                w.ring.successor(dpr_p2p::guid::Guid::for_document(doc))
            );
        }
    }
}
