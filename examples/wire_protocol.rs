//! The deployable path: peers exchanging real wire frames.
//!
//! Everything the other examples do through the fast array simulator,
//! this one does at message level: self-contained peer nodes, encoded
//! frames of `(document tag, rank)` updates — one frame per destination
//! peer and pass — through the store-and-resend transport, a
//! permanent peer departure with document handoff, and Safra's
//! termination detection deciding — with no global view — that the
//! computation has converged.
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
    let mut departed = false;
    while !detector.announced() && rounds < 100_000 {
        cluster.round(&peers);
        rounds += 1;
        // Mid-run, peer 5 leaves permanently: its documents (with
        // their in-progress rank state) re-home to the ring successor
        // and stranded messages are redirected.
        if rounds == 10 && num_peers > 6 {
            let victim = PeerId(5);
            peers.go_offline(victim);
            // Consistent-hashing re-home: the ring without the victim
            // names each document's new owner.
            let mut shrunk = ring.clone();
            shrunk.leave(victim);
            let migrated = cluster.peer_depart(victim, &peers, &|d: DocId| {
                shrunk.successor(Guid::for_document(d))
            });
            detector.peer_departed(victim, &cluster);
            println!("round {rounds}: peer {victim} departed; {migrated} documents re-homed");
            departed = true;
        }
        detector.advance(&cluster, &peers);
    }

    println!(
        "terminated after {rounds} rounds ({} token circuits), departure: {departed}",
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
    println!("\nno peer ever saw global state: placement, rank exchange, handoff and");
    println!("termination detection all ran on local information plus the DHT.");
}
