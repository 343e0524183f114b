//! Cross-crate integration: the full paper pipeline on one workload.

use distributed_pagerank::core::error_stats;
use distributed_pagerank::prelude::*;
use distributed_pagerank::search::corpus::generate_queries;
use distributed_pagerank::sim::churn::Schedule;
use rand::SeedableRng;

/// Static pagerank + quality + incremental update + search, end to end.
#[test]
fn full_pipeline() {
    // 1. Workload: power-law docs on 100 peers.
    let nodes = 4_000;
    let workload = Workload::paper(nodes, 100, 8);

    // 2. Distributed pagerank at the paper's recommended threshold.
    let mut engine = ChaoticEngine::new(
        workload.graph.clone(),
        workload.owners(),
        EngineConfig::with_epsilon(1e-3),
    );
    let mut peers = workload.peer_table();
    let run = engine.run_to_convergence(&mut peers, None);
    assert!(run.converged);
    assert!(run.total_remote_messages > 0);

    // 3. Quality vs the synchronous reference: paper Sec. 4.8 promises
    //    "maximum error of less than 1%" at eps = 1e-3.
    let reference = SyncSolver::new().solve(&workload.graph);
    let err = error_stats::compare(engine.ranks(), &reference.ranks);
    assert!(err.max < 0.02, "max rel err {}", err.max);
    assert!(err.avg < 0.005, "avg rel err {}", err.avg);

    // 4. Incremental insert on the live system: wave is small & local.
    let mut dyn_graph = DynamicGraph::from_csr(&workload.graph);
    let mut ranks = engine.ranks().to_vec();
    let cfg = PropagationConfig {
        damping: DEFAULT_DAMPING,
        epsilon: 1e-3,
    };
    let (id, wave) = insert_document(
        &mut dyn_graph,
        &[DocId(1), DocId(2), DocId(3)],
        &mut ranks,
        cfg,
    );
    assert_eq!(id.index(), nodes);
    assert!(wave.node_coverage < nodes / 2, "wave stays local: {wave:?}");
    assert!(
        wave.path_length <= 20,
        "paper: under ~15 even for large nets"
    );

    // 5. Search over the ranked corpus: incremental beats baseline.
    let corpus = Corpus::generate(&CorpusConfig {
        num_docs: nodes,
        vocab_size: 500,
        ..Default::default()
    });
    let index = DistributedIndex::build(&corpus, engine.ranks(), &workload.ring);
    let q = Query::new(generate_queries(&corpus, 2, 1, 5).remove(0));
    let base = execute_baseline(&index, &q, TrafficModel::AllHopsRemote);
    let incr = execute_incremental(&index, &q, IncrementalConfig::top10());
    assert!(incr.traffic_ids < base.traffic_ids);
    assert!(incr.hits_returned() > 0);
    assert_eq!(
        incr.hits.first().unwrap().doc,
        base.hits.first().unwrap().doc,
        "best hit survives"
    );
}

/// The chaotic result is independent of how documents are spread over
/// peers and whether churn interrupts the run — everything converges
/// to the same fixed point (within epsilon-scale tolerance).
#[test]
fn placement_and_churn_invariance() {
    let nodes = 2_000;
    let graph = PowerLawConfig::paper(nodes, 9).generate();
    let arc = std::sync::Arc::new(graph);

    // Single peer (pure algorithm).
    let mut local = ChaoticEngine::local(arc.clone(), EngineConfig::with_epsilon(1e-6));
    local.run_static();

    // 500 peers with 60% presence churn.
    let ring = Ring::with_peers(500);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(10);
    let placement = Placement::assign(nodes, &ring, PlacementPolicy::Random, &mut rng);
    let owners: Vec<PeerId> = (0..nodes)
        .map(|d| placement.owner(DocId(d as u32)))
        .collect();
    let mut churned = ChaoticEngine::new(arc, owners, EngineConfig::with_epsilon(1e-6));
    let mut peers = PeerTable::new(500);
    let mut schedule = Schedule::fraction(0.6, 11);
    let mut churn = |_p: usize, t: &mut PeerTable| schedule.apply(t);
    let run = churned.run_to_convergence(&mut peers, Some(&mut churn));
    assert!(run.converged);

    for (a, b) in local.ranks().iter().zip(churned.ranks()) {
        let rel = (a - b).abs() / a.max(1e-12);
        assert!(rel < 1e-3, "{a} vs {b}");
    }
}

/// DHT-successor placement works end to end and the hop accounting
/// shows the benefit of the Sec. 3.2 address cache.
#[test]
fn dht_placement_with_hop_accounting() {
    use distributed_pagerank::sim::spec::{Layer, Observe, ScenarioSpec};

    let nodes = 1_500;
    let workload = Workload::build(nodes, 64, 12, PlacementPolicy::DhtSuccessor);
    let spec = ScenarioSpec::new(nodes, 64, 1e-3, 12);

    // A rounds cluster charging its frames' overlay hops, and the
    // paper's unbatched wire as its shadow: one message per entry that
    // crossed the wire, routed on its document's GUID.
    let run_with = |cache_ips| {
        let mut obs = Observe::new(&distributed_pagerank::telemetry::NOOP);
        (obs.hops, obs.unbatched) = (Some(cache_ips), Some(cache_ips));
        let out = spec.run(&workload, Layer::Cluster, obs);
        assert!(out.quiesced);
        let singles = out.unbatched.expect("charged with its shadow");
        let frames = out.traffic.expect("a cluster run");
        assert_eq!(singles.payloads, frames.entries, "one message per entry");
        (
            singles.payloads,
            singles.routed_messages,
            frames.routed_messages,
        )
    };

    let (msgs_routed, hops_routed, frame_hops_routed) = run_with(false);
    let (msgs_cached, hops_cached, frame_hops_cached) = run_with(true);
    assert_eq!(msgs_routed, msgs_cached, "same logical messages");
    assert!(
        hops_cached < hops_routed && frame_hops_cached < frame_hops_routed,
        "caching must cut overlay hops: {hops_cached} vs {hops_routed}, \
         {frame_hops_cached} vs {frame_hops_routed} framed"
    );
    // With ~64 peers, routing costs ~log2(64)/2 ≈ 3 hops per message;
    // caching amortizes to ~1.
    let routed_ratio = hops_routed as f64 / msgs_routed as f64;
    let cached_ratio = hops_cached as f64 / msgs_cached as f64;
    assert!(routed_ratio > 1.5, "routed ratio {routed_ratio}");
    assert!(cached_ratio < 2.0, "cached ratio {cached_ratio}");
}

/// The execution-time model reproduces the paper's published numbers
/// from our measured message counts at matching per-node rates.
#[test]
fn exec_time_model_consistency() {
    use distributed_pagerank::core::exec_model;

    let workload = Workload::paper(5_000, 200, 13);
    let mut engine = ChaoticEngine::new(
        workload.graph.clone(),
        workload.owners(),
        EngineConfig::with_epsilon(1e-3),
    );
    let mut peers = workload.peer_table();
    let run = engine.run_to_convergence(&mut peers, None);
    // Messages/node in the paper's observed band (tens).
    let mpn = run.messages_per_node(5_000);
    assert!((5.0..200.0).contains(&mpn), "messages/node {mpn}");

    let t32 = exec_model::aggregate_time_secs(
        run.total_remote_messages,
        exec_model::RATE_32KBS,
        run.passes,
        0.0,
    );
    let t200 = exec_model::aggregate_time_secs(
        run.total_remote_messages,
        exec_model::RATE_200KBS,
        run.passes,
        0.0,
    );
    assert!(t200 < t32);
    let ratio = t32 / t200;
    assert!(
        (ratio - 200.0 / 32.0).abs() < 1e-9,
        "pure bandwidth scaling"
    );
}
