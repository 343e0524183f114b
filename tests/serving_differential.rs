//! Workspace-level serving-path guarantees, exercised through the
//! facade crate: serving telemetry is pure observation (bit-identical
//! rank schedule and quantiles with the recorder on or off), the
//! served run is deterministic per seed and matches its cross-commit
//! pin, and the SLO verdict collapses correctly in both directions.

use distributed_pagerank::node::termination::TerminationDetector;
use distributed_pagerank::prelude::*;
use distributed_pagerank::sim::churn::Schedule;
use distributed_pagerank::sim::event::{
    run_chaotic_serving, ChurnPlan, Inject, InjectionPlan, LatencyModel, ServingHooks,
};
use distributed_pagerank::sim::serving::{serving_experiment, ServeStrategy, ServingConfig};
use distributed_pagerank::sim::ScenarioSpec;
use distributed_pagerank::telemetry::replay::fnv64_ranks;
use distributed_pagerank::telemetry::slo::SloSpec;
use distributed_pagerank::telemetry::{Event, TraceRecorder, NOOP};

fn cfg(seed: u64) -> ServingConfig {
    ServingConfig {
        num_docs: 900,
        vocab_size: 220,
        num_peers: 18,
        queries: 36,
        query_len: 2,
        qps: 40.0,
        updates: 12,
        churn_fraction: 0.75,
        strategy: ServeStrategy::Incremental {
            forward_fraction: 0.10,
        },
        latency: LatencyModel::Lan,
        epsilon: 1e-4,
        seed,
        ..Default::default()
    }
}

#[test]
fn serving_telemetry_is_zero_perturbation_end_to_end() {
    let off = serving_experiment(&cfg(31), &NOOP).report;
    let rec = TraceRecorder::new();
    let on = serving_experiment(&cfg(31), &rec).report;

    // The rank computation's schedule and every reported measurement
    // are bit-identical with the recorder attached.
    assert_eq!(off.schedule_fnv, on.schedule_fnv);
    assert_eq!(off.p50_ns, on.p50_ns);
    assert_eq!(off.p95_ns, on.p95_ns);
    assert_eq!(off.p99_ns, on.p99_ns);
    assert_eq!(off.p999_ns, on.p999_ns);
    assert_eq!(off.total_traffic_ids, on.total_traffic_ids);
    assert_eq!(off.stale_p99_ppm, on.stale_p99_ppm);
    assert_eq!(off.avg_hops, on.avg_hops);
    assert!(off.quiesced && on.quiesced);

    // The traced run carries the full serving stream: five causal
    // spans per query, churn flips, and the health summary — and the
    // tolerant JSONL parser round-trips all of it.
    let events = rec.events();
    let spans = events
        .iter()
        .filter(|e| matches!(e, Event::QuerySpan { .. }))
        .count();
    assert_eq!(spans, 5 * 36);
    assert!(events.iter().any(|e| matches!(e, Event::PeerChurn { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::ServingHealth { .. })));
    let jsonl: String = events
        .iter()
        .map(|e| format!("{}\n", serde_json::to_string(e).unwrap()))
        .collect();
    let summary = distributed_pagerank::telemetry::TraceSummary::from_jsonl(&jsonl).unwrap();
    assert!(summary.unknown_events().is_empty(), "no kind is unknown");
    let health = summary.serving_health().expect("health aggregated");
    assert_eq!(health.queries, 36);
    assert_eq!(health.p99_ns, on.p99_ns);
}

#[test]
fn served_runs_are_deterministic_per_seed() {
    let a = serving_experiment(&cfg(77), &NOOP).report;
    let b = serving_experiment(&cfg(77), &NOOP).report;
    assert_eq!(a.schedule_fnv, b.schedule_fnv);
    assert_eq!(a.p999_ns, b.p999_ns);
    assert_eq!(a.stale_p99_ppm, b.stale_p99_ppm);
    assert_eq!(a.total_traffic_ids, b.total_traffic_ids);
    // A different seed takes a different schedule.
    let c = serving_experiment(&cfg(78), &NOOP).report;
    assert_ne!(a.schedule_fnv, c.schedule_fnv);
}

/// Updates and queries every 4 ms of virtual time under transient
/// churn (three quarters of the peers online): a path no row of
/// `crates/bench/tests/regimes.rs` runs, pinned with the same seven
/// values, captured at `c035511`.
#[test]
fn served_run_with_updates_and_churn_matches_its_pin() {
    let spec = ScenarioSpec {
        sched: SchedMode::Priority,
        ..ScenarioSpec::new(2_000, 100, 1e-4, 2003)
    };
    let w = spec.workload();
    let (mut cluster, mut peers) = (spec.cluster(&w), w.peer_table());
    let plan: Vec<InjectionPlan> = (0..60u32)
        .map(|i| InjectionPlan {
            at_ns: 4_000_000 * (u64::from(i) + 1),
            what: if i % 3 == 0 {
                Inject::Query(i)
            } else {
                Inject::Update {
                    doc: DocId(i * 31 % 2_000),
                    delta: if i % 2 == 0 { 0.25 } else { -0.05 },
                }
            },
        })
        .collect();
    let mut queries = 0usize;
    let out = run_chaotic_serving(
        &mut cluster,
        &mut peers,
        &spec.chaotic_config(),
        &mut TerminationDetector::new(100),
        200_000_000,
        &NOOP,
        ServingHooks {
            plan: &plan,
            churn: Some(ChurnPlan {
                schedule: Schedule::fraction(0.75, 11),
                every_ns: 30_000_000,
                until_ns: 400_000_000,
            }),
            on_query: &mut |_, _, _| queries += 1,
        },
    );
    assert!(out.quiesced && out.announced, "{out:?}");
    assert_eq!(queries, 20, "every planned query fires");
    assert_eq!(
        peers.peers().filter(|&p| peers.is_online(p)).count(),
        100,
        "churn chain ends fully online"
    );
    assert!(cluster.traffic().parked > 0, "churn must park frames");
    let emitted = (0..100).map(|p| cluster.node(PeerId(p)).stats().emitted_remote);
    let rank_fnv = fnv64_ranks(&cluster.collect_ranks(2_000));
    let pin = [out.schedule_fnv, out.steps, out.deliveries, out.virtual_ns];
    let traffic = [emitted.sum(), cluster.traffic().bytes_sent, rank_fnv];
    #[rustfmt::skip]
    let want = [0xe5df32f7e7ba1e3d, 4778, 98928, 10269656787, 123561, 2275712, 0x3187fff7b9675a2d];
    assert_eq!([&pin[..], &traffic[..]].concat(), want);
}

/// The Bloom strategy's report at two and three terms per query,
/// captured at `851c952`, before the per-run term memo and the
/// member-skipping intersection: the three-term rows run the
/// unmemoized filter over an intersection at the second hop.
#[test]
fn bloom_reports_match_their_pins() {
    for (query_len, traffic, hits, bytes, p99) in [
        (2, 25298, 324.1666666666667, 8428.0, 14938171),
        (3, 28266, 184.55555555555554, 9412.388888888889, 19211306),
    ] {
        let r = serving_experiment(
            &ServingConfig {
                query_len,
                strategy: ServeStrategy::Bloom,
                ..cfg(31)
            },
            &NOOP,
        )
        .report;
        let got = (r.total_traffic_ids, r.avg_hits, r.avg_bytes, r.p99_ns);
        assert_eq!(got, (traffic, hits, bytes, p99), "query_len {query_len}");
    }
}

/// The baseline and incremental reports at two and three terms per
/// query, captured at `38a69cd`, before the executors read memoized
/// term bitsets and serving read each document's owner from the
/// placement.
#[test]
fn baseline_and_incremental_reports_match_their_pins() {
    let base = ServeStrategy::Baseline;
    let incr = ServeStrategy::Incremental {
        forward_fraction: 0.10,
    };
    #[rustfmt::skip]
    let pins = [
        (base, 2, 30174, 324.1666666666667, 10058.0, 13794071, 35712),
        (base, 3, 38156, 184.55555555555554, 12718.666666666666, 16812642, 35712),
        (incr, 2, 3078, 33.69444444444444, 1026.0, 8663570, 35712),
        (incr, 3, 3948, 20.194444444444443, 1316.0, 9856427, 35712),
    ];
    for (strategy, query_len, traffic, hits, bytes, p99, stale) in pins {
        let r = serving_experiment(
            &ServingConfig {
                query_len,
                strategy,
                ..cfg(31)
            },
            &NOOP,
        )
        .report;
        let got = (
            r.total_traffic_ids,
            r.avg_hits,
            r.avg_bytes,
            r.p99_ns,
            r.stale_p99_ppm,
        );
        let want = (traffic, hits, bytes, p99, stale);
        assert_eq!(got, want, "{strategy} query_len {query_len}");
    }
}

#[test]
fn slo_verdict_gates_in_both_directions() {
    let mut pass_cfg = cfg(5);
    pass_cfg.slos = vec![SloSpec::new("loose", 0.99, u64::MAX, 0.0)];
    assert!(serving_experiment(&pass_cfg, &NOOP).report.slo_pass);

    let mut fail_cfg = cfg(5);
    fail_cfg.slos = vec![SloSpec::new("impossible", 0.5, 1, 0.0)];
    let r = serving_experiment(&fail_cfg, &NOOP).report;
    assert!(!r.slo_pass, "1 ns p50 target must blow the budget");
    // The failing spec is attributable: every window violated it.
    assert_eq!(r.slos[0].windows_violated, r.slos[0].windows_total);
}
