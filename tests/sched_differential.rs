//! Differential tests for the selective schedulers (priority and
//! greedy matching pursuit).
//!
//! Three contracts:
//!
//! 1. **Approximation**: on random graphs, under arbitrary churn and
//!    arbitrary insert/delete increment injections, each selective
//!    schedule lands within 1e-9 L1 per document of the classic
//!    full-sweep engine once both quiesce at a tiny ε.
//! 2. **Bit identity**: that every frame cap converges a cluster to
//!    identical bits is `tests/batching_differential.rs`; that the
//!    engine's selective pass matches a dirty-list reference model bit
//!    for bit is `tests/kernel_reference.rs`.
//! 3. **Pinned ordering**: a fixed-seed peer-node run emits its wire
//!    updates in a deterministic order; an FNV fingerprint over the
//!    full destination/update byte sequence pins that order, so a
//!    change to residual bucketing, greedy scoring, or flush fill
//!    order cannot land silently.

use distributed_pagerank::node::node::{PeerNode, StepScratch};
use distributed_pagerank::p2p::transport::{RankUpdateWire, UpdateFrameWire};
use distributed_pagerank::prelude::*;
use dpr_graph::CsrGraph as Csr;
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Tight enough that the O(ε) gap between the two schedules sits well
/// inside the 1e-9/doc parity band.
const PARITY_EPSILON: f64 = 1e-11;

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

/// Strategy: parked insert/delete increments (doc picked mod n).
fn arb_deltas() -> impl Strategy<Value = Vec<(u32, f64)>> {
    prop_vec((any::<u32>(), -0.3f64..0.6), 0..8)
}

fn build(n: usize, edges: &[(u32, u32)]) -> Arc<Csr> {
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
        peers.set_online(PeerId(i as u32), on);
    }
    if !peers.peers().any(|p| peers.is_online(p)) {
        peers.set_online(PeerId(0), true);
    }
}

/// One full scheduled life: churned passes following `plan`, then the
/// insert/delete increments of `deltas` parked via
/// [`ChaoticEngine::inject_delta`], then every peer back online and
/// the engine drained to quiescence. Returns the final ranks.
fn run_sched_trajectory(
    graph: &Arc<Csr>,
    owner: &[PeerId],
    plan: &[Vec<bool>],
    deltas: &[(u32, f64)],
    sched: SchedMode,
) -> Vec<f64> {
    let mut eng = ChaoticEngine::new(
        graph.clone(),
        owner.to_vec(),
        EngineConfig::with_epsilon(PARITY_EPSILON).with_sched(sched),
    );
    let num_peers = owner.iter().map(|p| p.index() + 1).max().unwrap_or(1);
    let mut peers = PeerTable::new(num_peers);

    // Phase 1: churn.
    for row in plan {
        apply_mask(&mut peers, row);
        eng.pass(&peers);
    }
    // Phase 2: park external insert/delete increments.
    for &(doc, delta) in deltas {
        eng.inject_delta(DocId(doc % graph.num_nodes() as u32), delta);
    }
    // Phase 3: everyone online, drain to quiescence.
    for i in 0..num_peers {
        peers.set_online(PeerId(i as u32), true);
    }
    for _ in 0..20_000 {
        if eng.is_quiescent() {
            break;
        }
        eng.pass(&peers);
    }
    assert!(eng.is_quiescent(), "trajectory failed to quiesce");
    eng.ranks().to_vec()
}

fn l1_per_doc(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len().max(1) as f64
}

proptest! {
    /// Contract 1: under churn and insert/delete injections each
    /// selective schedule reaches the full-sweep fixed point to within
    /// 1e-9 per document.
    #[test]
    fn selective_scheds_match_pass(
        (n, edges) in arb_graph(80, 300),
        num_peers in 1usize..7,
        plan in arb_churn_plan(7),
        deltas in arb_deltas(),
    ) {
        let graph = build(n, &edges);
        let owner = owners(n, num_peers);
        let pass_ranks = run_sched_trajectory(&graph, &owner, &plan, &deltas, SchedMode::Pass);
        for sched in [SchedMode::Priority, SchedMode::Greedy] {
            let sel_ranks = run_sched_trajectory(&graph, &owner, &plan, &deltas, sched);
            let gap = l1_per_doc(&sel_ranks, &pass_ranks);
            prop_assert!(gap <= 1e-9, "{sched} vs pass gap {gap:e} per doc");
        }
    }
}

/// FNV-1a-style fold matching the fingerprint idiom of
/// `kernel_reference.rs`.
fn fold(acc: u64, byte: u64) -> u64 {
    acc.wrapping_mul(0x100000001b3).wrapping_add(byte)
}

/// Drives a fixed-seed peer-node cluster by hand (synchronous rounds,
/// nodes stepped in id order) and fingerprints every frame entry in
/// emission order as the paper's 24-byte message it replaces:
/// destination, then the message's bytes.
fn message_order_fingerprint(sched: SchedMode) -> u64 {
    let w = Workload::paper(600, 4, 2003);
    let cfg = EngineConfig::with_epsilon(1e-6).with_sched(sched);
    let mut nodes: Vec<PeerNode> = (0..4u32).map(|i| PeerNode::new(PeerId(i), cfg)).collect();
    let guid_of_tag: std::collections::HashMap<u64, Guid> = (0..w.graph.num_nodes())
        .map(|d| Guid::for_document(DocId::from(d)))
        .map(|g| (g.frame_tag(), g))
        .collect();
    for d in 0..w.graph.num_nodes() {
        let doc = DocId::from(d);
        let out: Vec<(DocId, PeerId)> = w
            .graph
            .out_neighbors(doc)
            .iter()
            .map(|&t| (DocId(t), w.placement.owner(DocId(t))))
            .collect();
        nodes[w.placement.owner(doc).index()].add_document(doc, out);
    }

    let mut fp = 0u64;
    let mut inboxes: Vec<Vec<_>> = vec![Vec::new(); nodes.len()];
    for _round in 0..100_000 {
        for node in &mut nodes {
            node.step();
            for (dst, payload) in node.drain_outbox() {
                let frame = UpdateFrameWire::decode(payload.clone()).expect("raw frame");
                for e in frame.entries {
                    let guid = guid_of_tag[&e.tag].0;
                    let single = RankUpdateWire {
                        guid,
                        value: e.value,
                    }
                    .encode();
                    fp = fold(fp, dst.index() as u64 + 1);
                    for &b in single.iter() {
                        fp = fold(fp, b as u64);
                    }
                }
                inboxes[dst.index()].push(payload);
            }
        }
        let mut delivered = false;
        let mut sc = StepScratch::default();
        for (i, inbox) in inboxes.iter_mut().enumerate() {
            for payload in inbox.drain(..) {
                nodes[i]
                    .handle_message_with(&mut sc, &payload)
                    .expect("wire decode");
                delivered = true;
            }
        }
        if !delivered && nodes.iter().all(|n| !n.has_work()) {
            return fp;
        }
    }
    panic!("fixed-seed cluster failed to quiesce");
}

/// Pins the exact wire emission order of the fixed-seed priority run
/// (150 documents per peer — selection engaged, not bypassed). If an
/// intentional scheduling change moves it, update the constant in the
/// same commit and say why. The pass-mode run is fingerprinted too, so
/// the test also proves the two schedules genuinely emit in different
/// orders (i.e. the priority path is not silently degenerating to the
/// full sweep on this workload).
#[test]
fn fixed_seed_priority_message_order_is_pinned() {
    let pri = message_order_fingerprint(SchedMode::Priority);
    let pass = message_order_fingerprint(SchedMode::Pass);
    assert_ne!(
        pri, pass,
        "priority run emitted exactly the pass-order byte stream"
    );
    assert_eq!(
        pri, PINNED_PRIORITY_MESSAGE_FINGERPRINT,
        "emission order drifted"
    );
}

/// The greedy twin of the pinned-priority test: the matching-pursuit
/// run must emit a byte stream distinct from both the full sweep and
/// the bucket scheduler (its flush buffers fill in exact score order,
/// not bucket order), and that stream is pinned. If an intentional
/// scoring change moves it, update the constant in the same commit and
/// say why.
#[test]
fn fixed_seed_greedy_message_order_is_pinned() {
    let greedy = message_order_fingerprint(SchedMode::Greedy);
    let pass = message_order_fingerprint(SchedMode::Pass);
    let pri = message_order_fingerprint(SchedMode::Priority);
    assert_ne!(
        greedy, pass,
        "greedy run emitted exactly the pass-order byte stream"
    );
    assert_ne!(
        greedy, pri,
        "greedy run emitted exactly the priority-order byte stream"
    );
    assert_eq!(
        greedy, PINNED_GREEDY_MESSAGE_FINGERPRINT,
        "emission order drifted"
    );
}

/// Fingerprint of the 600-doc / 4-peer fixed-seed priority run; see
/// [`fixed_seed_priority_message_order_is_pinned`].
const PINNED_PRIORITY_MESSAGE_FINGERPRINT: u64 = 9526718389385276226;

/// Fingerprint of the same fixed-seed run under the greedy scheduler;
/// see [`fixed_seed_greedy_message_order_is_pinned`].
const PINNED_GREEDY_MESSAGE_FINGERPRINT: u64 = 445642202004604719;
