//! Differential tests for the per-peer aggregation wire path.
//!
//! The contract under test is *bit* identity, not approximation: on
//! arbitrary graphs, under arbitrary churn schedules, at every frame
//! size cap, the batched cluster must converge to exactly the ranks
//! (`==` on every `f64`) of the unbatched cluster — one entry per
//! frame, the paper's one message per update. The coalesced
//! per-destination group sums are the canonical fold at every cap, so
//! framing only changes payload packing — never a rank bit. This is
//! what lets `dpr_sim::batch` charge the unbatched wire as a shadow of
//! one framed run.

use distributed_pagerank::node::node::WireMode;
use distributed_pagerank::node::Cluster;
use distributed_pagerank::prelude::*;
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

/// The frame-size caps under differential test: 64 B (3 entries),
/// 256 B (15), 1024 B (63), and effectively uncapped.
const CAPS: [usize; 4] = [64, 256, 1024, 1 << 20];

/// The reference: one entry per frame.
const UNBATCHED: WireMode = WireMode { max_frame_bytes: 0 };

/// Strategy: a random directed graph as (n, edge list).
fn arb_graph(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_nodes).prop_flat_map(move |n| {
        let edges = prop_vec((0..n as u32, 0..n as u32), 0..max_edges);
        (Just(n), edges)
    })
}

/// Strategy: a cyclic churn plan — per round, per peer, online?
fn arb_churn_plan(num_peers: usize) -> impl Strategy<Value = Vec<Vec<bool>>> {
    prop_vec(prop_vec(any::<bool>(), num_peers..num_peers + 1), 1..6)
}

fn build_graph(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(f, t) in edges {
        b.add_edge(f, t);
    }
    b.build()
}

fn round_robin_placement(n: usize, num_peers: usize) -> Placement {
    Placement::from_owner_vec((0..n).map(|d| PeerId((d % num_peers) as u32)).collect())
}

/// Applies one row of the churn plan, keeping at least one peer
/// online so every run can terminate.
fn apply_mask(peers: &mut PeerTable, mask: &[bool]) {
    for (i, &on) in mask.iter().enumerate().take(peers.len()) {
        peers.set_online(PeerId(i as u32), on);
    }
    if !peers.peers().any(|p| peers.is_online(p)) {
        peers.set_online(PeerId(0), true);
    }
}

/// Runs a cluster under the (cycled) churn plan for `churn_rounds`,
/// then brings every peer back and runs to quiescence. Returns the
/// converged ranks.
fn run_churned(
    graph: &CsrGraph,
    placement: &Placement,
    num_peers: usize,
    wire: WireMode,
    plan: &[Vec<bool>],
    churn_rounds: usize,
) -> Vec<f64> {
    let mut cluster = Cluster::build_with(
        graph,
        placement,
        num_peers,
        EngineConfig::with_epsilon(RECOMMENDED_EPSILON),
        wire,
    );
    let mut peers = PeerTable::new(num_peers);
    for r in 0..churn_rounds {
        apply_mask(&mut peers, &plan[r % plan.len()]);
        cluster.round(&peers);
    }
    for p in 0..num_peers as u32 {
        peers.set_online(PeerId(p), true);
    }
    let (rounds, ok) = cluster.run_to_convergence(&mut peers, 100_000, None);
    assert!(ok, "no quiescence in {rounds} rounds");
    cluster.collect_ranks(graph.num_nodes())
}

proptest! {
    /// Random graph, random churn, every cap: batched == unbatched,
    /// bit for bit.
    #[test]
    fn batched_matches_unbatched_under_churn(
        (n, edges) in arb_graph(48, 120),
        plan in arb_churn_plan(4),
        churn_rounds in 0usize..12,
    ) {
        let graph = build_graph(n, &edges);
        let placement = round_robin_placement(n, 4);
        let single = run_churned(&graph, &placement, 4, UNBATCHED, &plan, churn_rounds);
        for cap in CAPS {
            let framed = run_churned(
                &graph,
                &placement,
                4,
                WireMode { max_frame_bytes: cap },
                &plan,
                churn_rounds,
            );
            prop_assert_eq!(
                &framed, &single,
                "cap {} diverged from one entry per frame", cap
            );
        }
    }
}
