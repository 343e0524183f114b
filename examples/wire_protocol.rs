//! The deployable path: peers exchanging real wire frames.
//!
//! Everything the other examples do through the fast array simulator,
//! this one does at message level: self-contained peer nodes, encoded
//! frames of `(document tag, rank)` updates — one frame per destination
//! peer and pass — through the store-and-resend transport while a peer
//! is away, and Safra's termination detection deciding — with no
//! global view — that the computation has converged.
//!
//! ```text
//! cargo run --release --example wire_protocol [nodes] [peers]
//! ```

use distributed_pagerank::node::termination::TerminationDetector;
use distributed_pagerank::node::Cluster;
use distributed_pagerank::prelude::*;
use rand::SeedableRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5_000);
    let num_peers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    println!("== message-level distributed pagerank ({nodes} docs, {num_peers} peers) ==\n");

    let graph = PowerLawConfig::paper(nodes, 77).generate();
    let ring = Ring::with_peers(num_peers);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(78);
    let placement = Placement::assign(nodes, &ring, PlacementPolicy::Random, &mut rng);
    let mut cluster = Cluster::build(
        &graph,
        &placement,
        num_peers,
        EngineConfig::with_epsilon(RECOMMENDED_EPSILON),
    );
    let mut peers = PeerTable::new(num_peers);

    // Run with Safra's termination detection: no component ever
    // inspects global state; a token ring decides convergence.
    let mut detector = TerminationDetector::new(num_peers);
    let mut rounds = 0usize;
    let away = PeerId(5 % num_peers as u32);
    while !detector.announced() && rounds < 100_000 {
        cluster.round(&peers);
        rounds += 1;
        // Mid-run, one peer leaves for 20 rounds and returns with its
        // documents: updates for it park at their senders meanwhile.
        if rounds == 10 {
            peers.set_online(away, false);
            println!("round {rounds}: peer {away} left");
        } else if rounds == 30 {
            peers.set_online(away, true);
            println!("round {rounds}: peer {away} returned");
        }
        detector.advance(&cluster, &peers);
    }

    println!(
        "terminated after {rounds} rounds ({} token circuits)",
        detector.circuits()
    );
    let t = cluster.traffic();
    println!(
        "wire traffic: {} frames sent ({} parked for offline peers, {} redelivered)",
        t.sent, t.parked, t.redelivered
    );

    // Sanity: the message-level result matches the centralized solver.
    let reference = SyncSolver::new().solve(&graph);
    let ranks = cluster.collect_ranks(nodes);
    let max_err = ranks
        .iter()
        .zip(&reference.ranks)
        .map(|(a, b)| (a - b).abs() / b)
        .fold(0.0f64, f64::max);
    println!("max relative error vs synchronous reference: {max_err:.2e}");
    assert!(max_err < 0.02, "protocol must deliver the paper's accuracy");
    println!("\nno peer ever saw global state: placement, rank exchange and");
    println!("termination detection all ran on local information plus the DHT.");
}
