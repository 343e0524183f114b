//! Differential tests for the sharded pass executor.
//!
//! The contract under test is *bit* identity, not approximation: at
//! every thread count, under arbitrary churn, on arbitrary graphs, the
//! sharded executor must produce exactly the ranks (`==` on every
//! `f64`), exactly the per-pass `PassStats` and, after every pass,
//! exactly the mass ledger (`mass_breakdown()`, dangling sink
//! included, compared as bits) of the sequential engine. A fixed-seed
//! regression test pins the sequential output itself, so the shared
//! reference cannot drift silently either. (Graphs here come from
//! `GraphBuilder`; the raw-CSR, scheduler and hop-model differential
//! lives beside the executor in `dpr-core::parallel`.)

use distributed_pagerank::core::parallel::ShardedExecutor;
use distributed_pagerank::prelude::*;
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;
use std::sync::Arc;

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

/// Strategy: a cyclic churn plan — per pass, per peer, online?
fn arb_churn_plan(num_peers: usize) -> impl Strategy<Value = Vec<Vec<bool>>> {
    prop_vec(prop_vec(any::<bool>(), num_peers..num_peers + 1), 1..6)
}

fn build(n: usize, edges: &[(u32, u32)]) -> Arc<CsrGraph> {
    let mut b = GraphBuilder::new(n);
    for &(f, t) in edges {
        b.add_edge(f, t);
    }
    Arc::new(b.build())
}

fn owners(n: usize, num_peers: usize) -> Vec<PeerId> {
    (0..n).map(|d| PeerId((d % num_peers) as u32)).collect()
}

/// Applies one row of the churn plan, keeping at least one peer
/// online so every run can terminate.
fn apply_mask(peers: &mut PeerTable, mask: &[bool]) {
    for (i, &on) in mask.iter().enumerate().take(peers.len()) {
        if on {
            peers.go_online(PeerId(i as u32));
        } else {
            peers.go_offline(PeerId(i as u32));
        }
    }
    if peers.num_online() == 0 {
        peers.go_online(PeerId(0));
    }
}

/// The bits of the engine's four mass-ledger terms.
fn mass_bits(eng: &ChaoticEngine) -> [u64; 4] {
    let mb = eng.mass_breakdown();
    [mb.ranks, mb.unadvertised, mb.pending, mb.dangling].map(f64::to_bits)
}

/// Runs `max_passes` churned passes (stopping early on quiescence)
/// and returns the exact trajectory: final ranks plus every pass's
/// stats and the mass ledger it left. `threads == 0` means the
/// sequential engine.
fn run_trajectory(
    graph: &Arc<CsrGraph>,
    owner: &[PeerId],
    plan: &[Vec<bool>],
    threads: usize,
    max_passes: usize,
) -> (Vec<f64>, Vec<(PassStats, [u64; 4])>) {
    let mut eng = ChaoticEngine::new(
        graph.clone(),
        owner.to_vec(),
        EngineConfig::with_epsilon(RECOMMENDED_EPSILON),
    );
    let num_peers = owner.iter().map(|p| p.index() + 1).max().unwrap_or(1);
    let mut peers = PeerTable::new(num_peers);
    // Threshold 0 disables the density guard: these graphs are far
    // below its floor, and the machinery under test is the sharded
    // apply + pull itself (the guard delegates to the sequential
    // engine, which would make the comparison vacuous).
    let mut exec = ShardedExecutor::new(threads.max(1)).with_auto_seq_threshold(0);
    let mut stats = Vec::new();
    for pass in 0..max_passes {
        apply_mask(&mut peers, &plan[pass % plan.len()]);
        let s = if threads == 0 {
            eng.pass(&peers)
        } else {
            exec.pass(&mut eng, &peers)
        };
        stats.push((s, mass_bits(&eng)));
        if eng.is_quiescent() {
            break;
        }
    }
    (eng.ranks().to_vec(), stats)
}

proptest! {
    /// The tentpole contract: on random graphs, random peer counts and
    /// random churn schedules, every thread count in {1, 2, 3, 4, 8}
    /// reproduces the sequential trajectory bit for bit.
    #[test]
    fn sharded_executor_is_bit_identical_to_sequential(
        (n, edges) in arb_graph(90, 350),
        num_peers in 1usize..7,
        plan in arb_churn_plan(7),
    ) {
        let graph = build(n, &edges);
        let owner = owners(n, num_peers);
        let (seq_ranks, seq_stats) = run_trajectory(&graph, &owner, &plan, 0, 60);
        for threads in [1usize, 2, 3, 4, 8] {
            let (ranks, stats) = run_trajectory(&graph, &owner, &plan, threads, 60);
            prop_assert_eq!(&ranks, &seq_ranks, "ranks diverged at {} threads", threads);
            prop_assert_eq!(&stats, &seq_stats, "stats or mass diverged at {} threads", threads);
        }
    }
}

/// Pins the sequential engine's exact output on a fixed workload, so
/// the reference the differential test compares against cannot drift
/// without this test noticing. The constants are the bits produced at
/// the time the sharded executor landed.
#[test]
fn fixed_seed_sequential_output_is_pinned() {
    let graph = Arc::new(PowerLawConfig::paper(500, 2003).generate());
    let mut eng = ChaoticEngine::new(
        graph.clone(),
        owners(500, 7),
        EngineConfig::with_epsilon(RECOMMENDED_EPSILON),
    );
    let mut peers = PeerTable::new(7);
    let run = eng.run_to_convergence(&mut peers, None);
    assert!(run.converged);

    let sum_bits: u64 = eng.ranks().iter().fold(0u64, |acc, r| {
        acc.wrapping_mul(0x100000001b3).wrapping_add(r.to_bits())
    });
    let expected_sum_bits: u64 = {
        // Recompute via the sharded executor as an internal cross-check
        // before comparing against the pinned constant.
        let mut eng2 = ChaoticEngine::new(
            graph,
            owners(500, 7),
            EngineConfig::with_epsilon(RECOMMENDED_EPSILON),
        );
        let mut peers2 = PeerTable::new(7);
        let run2 = ShardedExecutor::new(4)
            .with_auto_seq_threshold(0)
            .run_to_convergence(&mut eng2, &mut peers2, None);
        assert!(run2.converged);
        assert_eq!(eng2.ranks(), eng.ranks());
        assert_eq!(run2.passes, run.passes);
        eng2.ranks().iter().fold(0u64, |acc, r| {
            acc.wrapping_mul(0x100000001b3).wrapping_add(r.to_bits())
        })
    };
    assert_eq!(sum_bits, expected_sum_bits);

    // The pinned fingerprint of the converged rank vector. If an
    // intentional algorithm change moves it, update the constant in
    // the same commit and say why.
    assert_eq!(
        sum_bits, PINNED_RANK_FINGERPRINT,
        "sequential output drifted"
    );
}

/// FNV-style fingerprint of the 500-doc fixed-seed run; see
/// [`fixed_seed_sequential_output_is_pinned`].
const PINNED_RANK_FINGERPRINT: u64 = 12356040237301729421;
