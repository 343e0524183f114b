//! Differential tests for the compact wire codec.
//!
//! `WireCodec::Raw` is the bit-identity baseline; `WireCodec::Compact`
//! trades f64 increments for varint-delta doc ids + f32 values, so its
//! contract is *bounded error* at fewer bytes, and the bound has a
//! scope. Where the f32 rounding moves neither the selection nor the
//! event schedule (rounds Pass and Priority, chaotic LAN Pass and
//! Priority, in `crates/bench/tests/regimes.rs`), compact lands within
//! 1e-7 L1/doc of raw. Where it does (rounds Greedy, the other seven
//! chaotic frames cells) the two differ by 1.9e-5 to 3.1e-5 L1/doc,
//! and the contract is the ≤ 10ε band against the synchronous solution.

use distributed_pagerank::node::node::WireMode;
use distributed_pagerank::node::Cluster;
use distributed_pagerank::p2p::transport::WireCodec;
use distributed_pagerank::prelude::*;
use distributed_pagerank::sim::Workload;
use distributed_pagerank::telemetry::NOOP;
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

/// Pinned L1-per-doc parity bound between Raw and Compact converged
/// ranks of the full-sweep rounds cluster. Each compact update
/// quantizes an f64 increment to f32 (~1.2e-7 relative); increments
/// shrink geometrically under damping, so the accumulated per-doc
/// drift stays orders of magnitude below this pin.
const PINNED_L1_PER_DOC: f64 = 1e-7;

/// Runs one cluster over the workload under `codec`, returning the
/// converged ranks and total payload bytes sent.
fn run_with_codec(w: &Workload, codec: WireCodec) -> (Vec<f64>, u64) {
    let mut cluster = Cluster::build_with(
        &w.graph,
        &w.placement,
        w.num_peers,
        EngineConfig::with_epsilon(RECOMMENDED_EPSILON),
        WireMode::frames(),
    );
    cluster.set_codec(codec);
    let mut peers = PeerTable::new(w.num_peers);
    let (rounds, ok) = cluster.run_observed(&mut peers, 100_000, None, None, &NOOP);
    assert!(ok, "no quiescence in {rounds} rounds under {codec}");
    (
        cluster.collect_ranks(w.graph.num_nodes()),
        cluster.traffic().bytes_sent,
    )
}

fn l1_per_doc(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let l1: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    l1 / a.len() as f64
}

proptest! {
    /// Random power-law workloads: compact always converges, stays
    /// inside the pinned L1 bound of raw, and never sends more bytes.
    #[test]
    fn compact_parity_on_random_workloads(
        nodes in 50usize..400,
        num_peers in 2usize..16,
        seed in prop_vec(any::<u8>(), 1..2),
    ) {
        let w = Workload::paper(nodes, num_peers, u64::from(seed[0]));
        let (raw, raw_bytes) = run_with_codec(&w, WireCodec::Raw);
        let (compact, compact_bytes) = run_with_codec(&w, WireCodec::Compact);
        let drift = l1_per_doc(&raw, &compact);
        prop_assert!(
            drift <= PINNED_L1_PER_DOC,
            "drift {:.3e} beyond pin on n={} p={}", drift, nodes, num_peers
        );
        prop_assert!(
            compact_bytes <= raw_bytes,
            "compact {} B > raw {} B", compact_bytes, raw_bytes
        );
    }
}
