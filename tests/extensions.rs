//! Integration tests for the extension subsystems working together:
//! message-level cluster + termination detection + link-aware
//! placement.

use distributed_pagerank::graph::partition::link_aware_partition;
use distributed_pagerank::node::node::WireMode;
use distributed_pagerank::node::termination::TerminationDetector;
use distributed_pagerank::node::Cluster;
use distributed_pagerank::prelude::*;
use rand::SeedableRng;

/// A link-aware-placed, message-level cluster with protocol-level
/// termination detection still computes the correct ranks — and pays
/// fewer remote messages (the paper's one per update) than a randomly
/// placed one.
#[test]
fn link_aware_cluster_with_termination_detection() {
    let nodes = 1_200;
    let num_peers = 10;
    let graph = PowerLawConfig::paper(nodes, 201).generate();

    let run = |placement: Placement| {
        let mut cluster = Cluster::build_with(
            &graph,
            &placement,
            num_peers,
            EngineConfig::with_epsilon(1e-6),
            WireMode::frames(),
        );
        let peers = PeerTable::new(num_peers);
        let mut detector = TerminationDetector::new(num_peers);
        let mut rounds = 0;
        while rounds < 50_000 && !detector.announced() {
            cluster.round_with_hops(&peers, None);
            rounds += 1;
            detector.advance(&cluster, &peers);
        }
        assert!(detector.announced(), "no announcement in {rounds} rounds");
        assert!(cluster.is_quiescent(), "announcement must be sound");
        let emitted = (0..num_peers as u32).map(|p| cluster.node(PeerId(p)).stats().emitted_remote);
        (cluster.collect_ranks(nodes), emitted.sum::<u64>())
    };

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(202);
    let ring = Ring::with_peers(num_peers);
    let random = Placement::assign(nodes, &ring, PlacementPolicy::Random, &mut rng);
    let labels = link_aware_partition(&graph, num_peers, 6);
    let aware = Placement::from_owner_vec(labels.into_iter().map(PeerId).collect());

    let (ranks_random, wire_random) = run(random);
    let (ranks_aware, wire_aware) = run(aware);

    // Same answer, fewer remote messages.
    for (a, b) in ranks_random.iter().zip(&ranks_aware) {
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }
    assert!(
        wire_aware < wire_random,
        "link-aware {wire_aware} vs random {wire_random} remote messages"
    );
    // And the answer is the right one.
    let reference = SyncSolver::new().solve(&graph).ranks;
    for (a, b) in ranks_aware.iter().zip(&reference) {
        assert!((a - b).abs() / b < 1e-4, "{a} vs {b}");
    }
}

/// Safra detection is sound under churn: it never announces while the
/// system has work, even when peers flap.
#[test]
fn termination_detection_sound_under_churn() {
    use distributed_pagerank::sim::churn::Schedule;
    let nodes = 600;
    let num_peers = 8;
    let graph = PowerLawConfig::paper(nodes, 206).generate();
    let ring = Ring::with_peers(num_peers);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(207);
    let placement = Placement::assign(nodes, &ring, PlacementPolicy::Random, &mut rng);
    let mut cluster = Cluster::build_with(
        &graph,
        &placement,
        num_peers,
        EngineConfig::with_epsilon(1e-4),
        WireMode::frames(),
    );
    let mut peers = PeerTable::new(num_peers);
    let mut detector = TerminationDetector::new(num_peers);
    let mut schedule = Schedule::fraction(0.75, 208);
    let mut rounds = 0usize;
    while rounds < 50_000 && !detector.announced() {
        cluster.round_with_hops(&peers, None);
        rounds += 1;
        if rounds < 60 {
            schedule.apply(&mut peers);
        } else if rounds == 60 {
            (0..num_peers as u32).for_each(|p| {
                peers.set_online(PeerId(p), true);
            });
        }
        detector.advance(&cluster, &peers);
        if detector.announced() {
            assert!(
                cluster.is_quiescent(),
                "unsound announcement at round {rounds}"
            );
        }
    }
    assert!(detector.announced(), "no announcement in {rounds} rounds");
}
