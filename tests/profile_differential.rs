//! Differential tests for the causal span profiler of the chaotic
//! event runtime.
//!
//! That span tracing is pure observation — untraced, live-recorded and
//! profiled runs of one scenario give the same ranks, schedule and
//! outcome — is a law of the regime table
//! (`crates/bench/tests/regimes.rs`). Four contracts here:
//!
//! 1. **Well-formedness.** On random graphs, every recorded span
//!    closes with `end >= start`, causal edges point strictly
//!    backward (`cause < id`, `consumed < id`), the critical path
//!    tiles `[0, virtual_ns]` contiguously, and the
//!    compute/wire/wait breakdown telescopes *exactly* (integer
//!    equality, not within a tolerance) to the virtual wall clock.
//! 2. **Backpressure.** A star workload (one slow hub peer fed by
//!    many fast leaves) drives the hub inbox past its saturation
//!    cap; the runtime must count the saturations, report the depth
//!    high-water mark through the chaotic-health event, and still
//!    quiesce with Safra announcing termination.
//! 3. **Zero injection.** Re-running the chaotic runtime on an
//!    already-quiescent cluster executes nothing: zero steps, zero
//!    virtual time, and the settle-phase probe circuits still
//!    certify termination.
//! 4. **Stream parity.** The `span_closed` events a recorder receives
//!    as spans close rebuild exactly the profile the retaining
//!    profiled run computes, and the health event's live fold of the
//!    inbox depths equals the fold recomputed from those spans.

use distributed_pagerank::node::node::WireMode;
use distributed_pagerank::node::termination::TerminationDetector;
use distributed_pagerank::node::Cluster;
use distributed_pagerank::p2p::transport::{FaultKind, FaultPlan};
use distributed_pagerank::prelude::*;
use distributed_pagerank::sim::event::{
    run_chaotic, run_chaotic_profiled, ChaoticConfig, LatencyModel,
};
use distributed_pagerank::sim::ScenarioSpec;
use distributed_pagerank::telemetry::span::step_fold_depths;
use distributed_pagerank::telemetry::{Event, Metric, Profile, SpanKind, TraceRecorder, NOOP};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

/// The message-level cluster `spec` describes. Each call builds an
/// identical cluster, so a scenario can be re-run under different
/// recorders.
fn paper_cluster(spec: &ScenarioSpec) -> (Cluster, PeerTable) {
    let w = spec.workload();
    (spec.cluster(&w), w.peer_table())
}

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

proptest! {
    /// Contract 1: on arbitrary graphs, under every latency model and
    /// both schedulers, the span record is structurally sound and the
    /// critical-path breakdown telescopes exactly.
    #[test]
    fn spans_are_well_formed_and_breakdown_telescopes(
        (n, edges) in arb_graph(60, 240),
        num_peers in 1usize..6,
        seed in 0u64..1_000,
        latency_ix in 0usize..3,
        priority in any::<bool>(),
    ) {
        let latency = [LatencyModel::Modem, LatencyModel::Broadband, LatencyModel::Lan][latency_ix];
        let sched = if priority { SchedMode::Priority } else { SchedMode::Pass };
        let mut b = GraphBuilder::new(n);
        for &(f, t) in &edges {
            b.add_edge(f, t);
        }
        let graph = b.build();
        let placement = Placement::from_owner_vec(
            (0..n).map(|d| PeerId((d % num_peers) as u32)).collect(),
        );
        let mut cluster = Cluster::build_with(
            &graph,
            &placement,
            num_peers,
            EngineConfig::with_epsilon(1e-6).with_sched(sched),
            WireMode::frames(),
        );
        let peers = PeerTable::new(num_peers);
        let mut det = TerminationDetector::new(num_peers);
        let cfg = ChaoticConfig { seed, latency, sched, epsilon: 1e-6 };
        let (out, profile) =
            run_chaotic_profiled(&mut cluster, &peers, &cfg, &mut det, 50_000_000, &NOOP);
        prop_assert!(out.quiesced, "random scenario failed to quiesce");

        // Span structure: closed, causally backward, acyclic.
        for (i, s) in profile.spans.iter().enumerate() {
            let id = i as u64 + 1;
            prop_assert!(s.end_ns >= s.start_ns, "span {id} closed before it opened");
            prop_assert!(s.cause < id, "span {id} caused by a later span {}", s.cause);
            prop_assert!(s.consumed < id, "span {id} consumed by a later span {}", s.consumed);
            if s.kind == SpanKind::LinkTransfer {
                prop_assert!(s.queue_ns <= s.duration_ns(), "queueing exceeds transfer span");
            } else {
                prop_assert!(s.queue_ns == 0 && s.bytes == 0, "non-transfer carries wire fields");
            }
        }
        let steps = profile.spans.iter().filter(|s| s.kind == SpanKind::PeerStep).count() as u64;
        prop_assert_eq!(steps, out.steps, "one PeerStep span per executed step");
        prop_assert!(
            profile.spans.iter().any(|s| s.kind == SpanKind::SafraProbe),
            "no probe circuit was ever traced"
        );

        // The profile horizon is the runtime's virtual clock, and the
        // breakdown telescopes with integer exactness.
        prop_assert_eq!(profile.virtual_ns, out.virtual_ns);
        prop_assert!(
            profile.breakdown_is_exact(),
            "compute {} + wire {} + wait {} != virtual {}",
            profile.compute_ns, profile.wire_ns, profile.wait_ns, profile.virtual_ns
        );

        // The critical path tiles [0, virtual_ns] with no gap, no
        // overlap, and per-segment exactness.
        if out.steps > 0 {
            prop_assert!(!profile.path.is_empty(), "nonempty run with empty critical path");
        }
        let mut cursor = 0u64;
        for seg in &profile.path {
            prop_assert_eq!(seg.from_ns, cursor, "critical path has a gap or overlap");
            prop_assert!(seg.to_ns >= seg.from_ns);
            prop_assert_eq!(
                seg.compute_ns + seg.wire_ns + seg.wait_ns,
                seg.total_ns(),
                "segment attribution does not cover the segment"
            );
            cursor = seg.to_ns;
        }
        prop_assert_eq!(cursor, profile.virtual_ns, "critical path stops short of the horizon");
    }
}

/// Contract 2: a star workload saturates the hub inbox. Peer 0 owns
/// 160 documents (120 ms modeled compute per step) while 40 leaf
/// peers own one document each (the 100 µs floor), with every leaf
/// exchanging rank mass with the hub over LAN links. Between two hub
/// steps each leaf fires hundreds of times, so arrivals pile up far
/// past the 32-deep saturation cap — the runtime must take the
/// backpressure path (forfeiting the coalescing window), count it,
/// and still converge.
#[test]
fn saturated_inbox_backpressure_engages_and_still_quiesces() {
    const HUB_DOCS: usize = 160;
    const LEAVES: usize = 40;
    let n = HUB_DOCS + LEAVES;
    let mut b = GraphBuilder::new(n);
    for i in 0..LEAVES {
        let leaf = (HUB_DOCS + i) as u32;
        let hub = (i * (HUB_DOCS / LEAVES)) as u32;
        b.add_edge(leaf, hub);
        b.add_edge(hub, leaf);
    }
    // A ring through the hub documents keeps the hub itself dirty.
    for d in 0..HUB_DOCS as u32 {
        b.add_edge(d, (d + 1) % HUB_DOCS as u32);
    }
    let graph = b.build();
    let owner: Vec<PeerId> = (0..n)
        .map(|d| {
            if d < HUB_DOCS {
                PeerId(0)
            } else {
                PeerId((1 + d - HUB_DOCS) as u32)
            }
        })
        .collect();
    let num_peers = 1 + LEAVES;
    let placement = Placement::from_owner_vec(owner);
    let mut cluster = Cluster::build_with(
        &graph,
        &placement,
        num_peers,
        EngineConfig::with_epsilon(1e-6).with_sched(SchedMode::Pass),
        WireMode::frames(),
    );
    let peers = PeerTable::new(num_peers);
    let mut det = TerminationDetector::new(num_peers);
    let cfg = ChaoticConfig {
        seed: 7,
        latency: LatencyModel::Lan,
        sched: SchedMode::Pass,
        epsilon: 1e-6,
    };
    let rec = TraceRecorder::new();
    let out = run_chaotic(&mut cluster, &peers, &cfg, &mut det, 200_000_000, &rec);

    assert!(out.quiesced, "saturated star failed to quiesce");
    assert!(out.announced, "Safra never announced on the saturated star");
    let saturations = rec.counter(Metric::InboxSaturations);
    assert!(
        saturations > 0,
        "star workload never saturated the hub inbox — the backpressure path is untested"
    );
    let health = rec
        .events()
        .iter()
        .find_map(|e| match *e {
            Event::ChaoticHealth {
                saturated,
                max_inbox_depth,
                ..
            } => Some((saturated, max_inbox_depth)),
            _ => None,
        })
        .expect("chaotic run emitted no health event");
    assert_eq!(
        health.0, saturations,
        "health event disagrees with the counter"
    );
    assert!(
        health.1 >= 32,
        "saturation fired but the depth high-water mark {} never reached the cap",
        health.1
    );
}

/// Contract 3: zero injection terminates immediately. After a run
/// quiesces, a second run on the same cluster (fresh detector, fresh
/// clock) finds no peer with work: it must execute zero steps, spend
/// zero virtual time, and still certify termination through the
/// settle-phase probe circuits.
#[test]
fn zero_injection_run_terminates_immediately() {
    let spec = ScenarioSpec {
        sched: SchedMode::Priority,
        ..ScenarioSpec::new(300, 5, 1e-4, 11)
    };
    let ((mut cluster, peers), cfg) = (paper_cluster(&spec), spec.chaotic_config());
    let mut det = TerminationDetector::new(5);
    let first = run_chaotic(&mut cluster, &peers, &cfg, &mut det, 200_000_000, &NOOP);
    assert!(
        first.quiesced && first.steps > 0,
        "warm-up run did not converge"
    );
    let ranks_before: Vec<u64> = cluster
        .collect_ranks(300)
        .iter()
        .map(|r| r.to_bits())
        .collect();

    let mut det2 = TerminationDetector::new(5);
    let (again, profile) =
        run_chaotic_profiled(&mut cluster, &peers, &cfg, &mut det2, 200_000_000, &NOOP);
    assert!(again.quiesced, "zero-injection run not certified quiescent");
    assert_eq!(again.steps, 0, "quiescent cluster executed steps");
    assert_eq!(again.deliveries, 0, "quiescent cluster delivered envelopes");
    assert_eq!(again.virtual_ns, 0, "zero work must cost zero virtual time");
    assert_eq!(profile.virtual_ns, 0);
    assert!(profile.breakdown_is_exact());
    let ranks_after: Vec<u64> = cluster
        .collect_ranks(300)
        .iter()
        .map(|r| r.to_bits())
        .collect();
    assert_eq!(
        ranks_before, ranks_after,
        "zero-injection run moved the ranks"
    );
}

/// Contract 4: streaming spans at close loses nothing. For chaotic
/// Priority/LAN, clean and with a staged lost frame, the profile cut
/// from the `span_closed` events of a recorded `run_chaotic` equals
/// `run_chaotic_profiled`'s, and the `chaotic_health` fold (coalesce
/// hits, deepest inbox) and the inbox-depth histogram equal
/// `step_fold_depths` over the streamed spans.
#[test]
fn streamed_spans_rebuild_the_profiled_run() {
    let spec = ScenarioSpec {
        sched: SchedMode::Priority,
        latency: LatencyModel::Lan,
        ..ScenarioSpec::new(400, 8, 1e-4, 21)
    };
    let cfg = spec.chaotic_config();
    for fault in [None, Some(FaultKind::LostFrame)] {
        let build = || {
            let (mut cluster, peers) = paper_cluster(&spec);
            if let Some(kind) = fault {
                cluster.inject_transport_fault(FaultPlan { kind, nth_send: 25 });
            }
            (cluster, peers, TerminationDetector::new(8))
        };
        let (mut cluster, peers, mut det) = build();
        let (profiled, profile) =
            run_chaotic_profiled(&mut cluster, &peers, &cfg, &mut det, 200_000_000, &NOOP);
        assert_eq!(cluster.fault_fired_at().is_some(), fault.is_some());

        let (mut cluster, peers, mut det) = build();
        let rec = TraceRecorder::new();
        let recorded = run_chaotic(&mut cluster, &peers, &cfg, &mut det, 200_000_000, &rec);
        assert_eq!(recorded, profiled, "{fault:?}");
        let events = rec.events();
        let segments = Profile::segments_from_events(&events).unwrap();
        assert_eq!(segments, vec![profile], "{fault:?}");

        let depths = step_fold_depths(&segments[0].spans);
        let hits = depths.iter().filter(|&&(_, d)| d >= 2).count() as u64;
        let deepest = depths.iter().map(|&(_, d)| d).max().unwrap_or(0);
        let health = events
            .iter()
            .find_map(|e| match *e {
                Event::ChaoticHealth {
                    coalesce_hits,
                    max_inbox_depth,
                    ..
                } => Some((coalesce_hits, max_inbox_depth)),
                _ => None,
            })
            .expect("chaotic run emitted no health event");
        assert_eq!(health, (hits, deepest), "{fault:?}");
        assert!(
            hits > 0,
            "{fault:?}: no step coalesced — the fold is untested"
        );
        assert_eq!(rec.counter(Metric::CoalesceHits), hits, "{fault:?}");
        let hist = rec.histogram(Metric::InboxDepth);
        assert_eq!(hist.count(), depths.len() as u64, "{fault:?}");
        let consumed: u64 = depths.iter().map(|&(_, d)| d).sum();
        assert_eq!(hist.sum(), consumed, "{fault:?}");
    }
}
