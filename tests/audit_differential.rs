//! Flight-recorder differential tests: deterministic replay and
//! fault→monitor attribution.
//!
//! Two contracts from the audit subsystem are under test here:
//!
//! 1. **Replay determinism.** A captured continuous-update run at the
//!    paper's scale (10k documents over 500 peers) must replay to
//!    *bit*-identical final ranks and identical traffic counters from
//!    nothing but the capture file.
//! 2. **Monitor ownership.** Each injected transport fault must be
//!    detected, and detected *by the monitor that owns the violated
//!    invariant*: mass perturbation → mass-conservation ledger, frame
//!    duplication → message-balance auditor, frame loss → quiescence
//!    certifier. A clean run must pass all three.
//! 3. **Trail parity.** `doctor_run` keeps only the events the monitors
//!    read; its verdict must equal the verdict over the full trace, in
//!    every run mode, codec and staged fault.

use distributed_pagerank::core::RunMode;
use distributed_pagerank::node::node::WireMode;
use distributed_pagerank::node::termination::TerminationDetector;
use distributed_pagerank::node::Cluster;
use distributed_pagerank::p2p::transport::{FaultKind, FaultPlan, WireCodec};
use distributed_pagerank::prelude::*;
use distributed_pagerank::sim::event::{run_chaotic, ChaoticConfig, LatencyModel};
use distributed_pagerank::sim::flight::{self, FlightConfig};
use distributed_pagerank::sim::workload::PAPER_NUM_PEERS;
use distributed_pagerank::sim::ScenarioSpec;
use distributed_pagerank::telemetry::audit::{Monitor, COMPACT_MASS_TOLERANCE, MASS_TOLERANCE};
use distributed_pagerank::telemetry::{AuditReport, Capture, Event, TraceRecorder, NOOP};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::LedgerOnly;

/// A seconds-scale flight.
fn smoke() -> FlightConfig {
    FlightConfig {
        spec: ScenarioSpec::new(1_200, 40, 1e-3, 7),
        inserts: 6,
        checkpoints: 2,
    }
}

/// Paper-scale capture (10k docs / 500 peers, continuous updates)
/// replays bit-identically through the serialized capture file.
#[test]
fn paper_scale_capture_replays_bit_identically() {
    let cfg = FlightConfig {
        spec: ScenarioSpec::new(10_000, PAPER_NUM_PEERS, 1e-4, 2003),
        inserts: 12,
        checkpoints: 4,
    };
    let (capture, recorded) = flight::record(&cfg, &NOOP);

    // The capture must survive its own wire format: replay from the
    // re-parsed JSONL, not the in-memory struct.
    let restored = Capture::from_jsonl(&capture.to_jsonl()).expect("capture roundtrip");

    let replayed =
        flight::replay(&restored, None, &NOOP).unwrap_or_else(|e| panic!("replay diverged: {e}"));
    assert_eq!(replayed.ranks.len(), recorded.ranks.len());
    for (doc, (r, w)) in replayed.ranks.iter().zip(&recorded.ranks).enumerate() {
        assert!(
            r.to_bits() == w.to_bits(),
            "doc {doc} rank diverged: {r:e} vs {w:e}"
        );
    }
    assert_eq!(replayed.steps, recorded.steps, "passes");
    assert_eq!(
        replayed.remote_messages, recorded.remote_messages,
        "remote traffic"
    );
    assert_eq!(
        replayed.local_updates, recorded.local_updates,
        "local updates"
    );
}

/// A fingerprint tampered after capture is rejected by replay — the
/// check is not vacuous.
#[test]
fn replay_rejects_a_corrupted_capture() {
    let cfg = smoke();
    let (mut capture, _) = flight::record(&cfg, &NOOP);
    capture.fingerprint.ranks_fnv ^= 1;
    let err = flight::replay(&capture, None, &NOOP).unwrap_err();
    assert!(err.contains("ranks_fnv"), "{err}");
}

/// Captures recorded by an earlier commit's `dpr doctor --capture-out`
/// (`--docs 1200 --peers 24`, rounds; the same under `--run-mode
/// chaotic --sched priority --codec compact`) replay at HEAD: the
/// on-disk format, the scenario construction order (every RNG draw)
/// and, for the chaotic one, the executed event schedule all survive
/// whatever was refactored since.
#[test]
fn checked_in_captures_replay_at_head() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, run_mode, codec) in [
        ("capture-v3-rounds.jsonl", "rounds", "raw"),
        ("capture-v3-chaotic.jsonl", "chaotic", "compact"),
    ] {
        let capture = Capture::read(&fixtures.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(capture.header.run_mode, run_mode, "{file}");
        assert_eq!(capture.header.codec, codec, "{file}");
        // The header is exactly what HEAD would write for this flight.
        let cfg = FlightConfig::from_header(&capture.header).unwrap();
        assert_eq!(cfg.header(), capture.header, "{file}");
        let out = flight::replay(&capture, Some(cfg.spec.codec), &NOOP)
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(flight::fingerprint(&out), capture.fingerprint, "{file}");
    }
}

/// A hostile capture header is a typed error naming the field, never
/// a panic in the builders behind it.
#[test]
fn degenerate_capture_headers_are_errors_naming_the_field() {
    let (recorded, _) = flight::record(&smoke(), &NOOP);
    type Tamper = fn(&mut distributed_pagerank::telemetry::replay::CaptureHeader);
    let cases: [(&str, Tamper); 6] = [
        ("nodes", |h| h.nodes = 0),
        ("num_peers", |h| h.num_peers = 0),
        ("checkpoints", |h| h.checkpoints = 0),
        ("inserts", |h| h.inserts = 1),
        ("epsilon", |h| h.epsilon = 0.0),
        ("latency", |h| h.latency = "carrier-pigeon".into()),
    ];
    for (field, tamper) in cases {
        let mut capture = recorded.clone();
        tamper(&mut capture.header);
        // Through the file format, as `dpr doctor --replay` reads it.
        let parsed = Capture::from_jsonl(&capture.to_jsonl()).unwrap();
        let err = flight::replay(&parsed, None, &NOOP).unwrap_err();
        assert!(err.contains(field), "{field}: {err}");
    }
}

/// Clean audited run: every monitor evaluates a nonzero number of
/// checks and none fires.
#[test]
fn clean_run_passes_every_monitor() {
    let run = flight::doctor_run(&ScenarioSpec::new(600, 8, 1e-4, 21), None, None);
    assert!(run.quiesced, "diagnostic run failed to quiesce");
    assert!(
        run.report.passed(),
        "clean run flagged: {}",
        run.report.diagnosis()
    );
    for m in [
        Monitor::MassConservation,
        Monitor::MessageBalance,
        Monitor::Quiescence,
    ] {
        let f = run.report.finding(m);
        assert!(f.checked > 0, "{} never evaluated anything", m.name());
    }
}

/// Each staged transport fault fires, is detected, and is attributed
/// to exactly the monitor that owns the broken invariant.
#[test]
fn each_fault_is_owned_by_exactly_one_monitor() {
    let matrix = [
        (FaultKind::MassLeak, Monitor::MassConservation),
        (FaultKind::DupFrame, Monitor::MessageBalance),
        (FaultKind::LostFrame, Monitor::Quiescence),
    ];
    for (kind, owner) in matrix {
        let plan = FaultPlan { kind, nth_send: 40 };
        let run = flight::doctor_run(&ScenarioSpec::new(600, 8, 1e-4, 21), Some(plan), None);
        assert!(
            run.fault_fired_at.is_some(),
            "{kind} was staged but never fired"
        );
        assert!(!run.report.passed(), "{kind} went undetected");
        let primary = run.report.primary().expect("failing report has a primary");
        assert_eq!(
            primary.monitor,
            owner,
            "{kind} attributed to {} instead of {}",
            primary.monitor.name(),
            owner.name()
        );
        // The operator-facing diagnosis names the fault class.
        assert!(
            run.report.diagnosis().contains(&kind.to_string()),
            "diagnosis '{}' does not name {kind}",
            run.report.diagnosis()
        );
    }
}

/// The audit trail loses nothing the verdict depends on: for every run
/// mode × codec × staged fault, `doctor_run`'s report over its trail
/// equals the report over the full trace its sink received — every
/// finding, `checked` count and violation, hence `primary()` — and the
/// trail is exactly that trace's audited subsequence. Neither a sink
/// nor its detail changes the verdict, the trail, the rounds or the
/// fault: a trail without one (which declines per-event detail) and
/// one over a ledgers-only sink give what the traced trail gives.
#[test]
fn the_audit_trail_gives_the_full_trace_verdict() {
    let audited = |e: &Event| {
        matches!(
            e,
            Event::MassLedger { .. }
                | Event::BalanceLedger { .. }
                | Event::QuiescenceCert { .. }
                | Event::TerminationProbe {
                    announced: true,
                    ..
                }
        )
    };
    let faults = [
        None,
        Some(FaultKind::MassLeak),
        Some(FaultKind::DupFrame),
        Some(FaultKind::LostFrame),
    ];
    for run_mode in [RunMode::Rounds, RunMode::Chaotic] {
        for (codec, tol) in [
            (WireCodec::Raw, MASS_TOLERANCE),
            (WireCodec::Compact, COMPACT_MASS_TOLERANCE),
        ] {
            let spec = ScenarioSpec {
                run_mode,
                codec,
                ..ScenarioSpec::new(400, 8, 1e-4, 21)
            };
            for kind in faults {
                let case = format!("{run_mode}/{codec}/{kind:?}");
                let fault = kind.map(|kind| FaultPlan { kind, nth_send: 40 });
                let trace = Arc::new(TraceRecorder::new());
                let run = flight::doctor_run(&spec, fault, Some(trace.clone()));
                assert_eq!(run.fault_fired_at.is_some(), kind.is_some(), "{case}");
                assert!(
                    run.report.finding(Monitor::MassConservation).checked > 0,
                    "{case}"
                );
                assert_eq!(kind.is_none(), run.report.passed(), "{case}");

                let full = trace.events();
                let verdict = AuditReport::evaluate_with_mass_tolerance(&full, tol);
                assert_eq!(run.report, verdict, "{case}");
                assert_eq!(run.report.primary(), verdict.primary(), "{case}");
                let kept: Vec<Event> = full.into_iter().filter(audited).collect();
                assert_eq!(
                    run.events, kept,
                    "{case}: trail is not the audited subsequence"
                );

                // Without a sink the trail declines per-event detail;
                // the audit must not notice.
                let bare = flight::doctor_run(&spec, fault, None);
                let pin = |r: &flight::DoctorRun| {
                    let verdict = (r.report.render().render(), r.report.clone());
                    (
                        verdict,
                        r.events.clone(),
                        r.rounds,
                        r.quiesced,
                        r.fault_fired_at,
                    )
                };
                assert_eq!(pin(&bare), pin(&run), "{case}");

                // A sink that is not detailed sees every ledger and
                // none of the detail.
                let ledgers = Arc::new(LedgerOnly::default());
                let coarse = flight::doctor_run(&spec, fault, Some(ledgers.clone()));
                assert_eq!(pin(&coarse), pin(&run), "{case}");
                let detail = ledgers.detail_seen(true);
                assert!(detail.is_empty(), "{case}: detail reached it: {detail:?}");
            }
        }
    }
}

// ---------------------------------------------------------------
// Counter balance under churn: the property behind the message-
// balance auditor, checked directly against cluster state.
// ---------------------------------------------------------------

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

/// Applies one row of the churn plan, keeping at least one peer
/// online so every run can terminate.
fn apply_mask(peers: &mut PeerTable, mask: &[bool]) {
    for (i, &on) in mask.iter().enumerate().take(peers.peers().count()) {
        peers.set_online(PeerId(i as u32), on);
    }
    if !peers.peers().any(|p| peers.is_online(p)) {
        peers.set_online(PeerId(0), true);
    }
}

/// Sums `(emitted_remote, sent_remote, received)` across the cluster.
fn counter_sums(cluster: &Cluster, num_peers: usize) -> (u64, u64, u64) {
    let (mut emitted, mut sent, mut received) = (0u64, 0u64, 0u64);
    for p in 0..num_peers as u32 {
        let s = cluster.node(PeerId(p)).stats();
        emitted += s.emitted_remote;
        sent += s.sent_remote;
        received += s.received;
    }
    (emitted, sent, received)
}

/// Asserts the balance invariants at a round boundary. Emission
/// counts every remote link update produced; the pass-end flush
/// coalesces same-target updates into one wire entry, so
/// `emitted ≥ sent` (the gap is coalescing, never silent loss). What
/// left the wire but has not landed is exactly the transport's
/// undelivered backlog: `sent − received = in flight` — with the
/// in-flight term covering both deliverable inbox entries and
/// envelopes parked for offline peers ("still queued").
fn assert_balanced(cluster: &Cluster, num_peers: usize) -> Result<(), TestCaseError> {
    let (emitted, sent, received) = counter_sums(cluster, num_peers);
    prop_assert!(
        emitted >= sent,
        "coalescing can only shrink the wire: emitted {emitted} < sent {sent}"
    );
    prop_assert_eq!(
        sent - received,
        cluster.in_flight_entries(),
        "sent {} − received {} must equal the undelivered backlog",
        sent,
        received
    );
    Ok(())
}

proptest! {
    /// On any graph, under any churn schedule, the remote-update
    /// counters balance after every single round, and close out
    /// exactly (`sent == received`, nothing in flight) at quiescence.
    #[test]
    fn counters_balance_under_random_churn(
        (n, edges) in arb_graph(48, 140),
        plan in arb_churn_plan(5),
        churn_rounds in 0usize..14,
    ) {
        let num_peers = 5;
        let mut b = GraphBuilder::new(n);
        for &(f, t) in &edges {
            b.add_edge(f, t);
        }
        let graph = b.build();
        let placement =
            Placement::from_owner_vec((0..n).map(|d| PeerId((d % num_peers) as u32)).collect());
        let mut cluster = Cluster::build_with(
            &graph,
            &placement,
            num_peers,
            EngineConfig::with_epsilon(1e-6),
            WireMode::frames(),
        );
        let mut peers = PeerTable::new(num_peers);
        for r in 0..churn_rounds {
            apply_mask(&mut peers, &plan[r % plan.len()]);
            cluster.round_with_hops(&peers, None);
            assert_balanced(&cluster, num_peers)?;
        }
        for p in 0..num_peers as u32 {
            peers.set_online(PeerId(p), true);
        }
        let (rounds, ok) = cluster.run_observed(&mut peers, 100_000, None, None, &NOOP);
        prop_assert!(ok, "no quiescence in {} rounds", rounds);
        assert_balanced(&cluster, num_peers)?;
        let (_, sent, received) = counter_sums(&cluster, num_peers);
        prop_assert_eq!(sent, received, "quiescence with undelivered entries");
        prop_assert_eq!(cluster.in_flight_entries(), 0u64);
    }
}

// ---------------------------------------------------------------
// Barrier-free Safra soundness under the chaotic event runtime: the
// detector probes mid-flight between arbitrary event interleavings,
// and must never certify termination early.
// ---------------------------------------------------------------

/// Runs the chaotic event runtime on a random graph and returns the
/// outcome, the cluster, and the detector.
fn chaotic_run(
    n: usize,
    edges: &[(u32, u32)],
    seed: u64,
    latency: LatencyModel,
    sched: SchedMode,
) -> (
    distributed_pagerank::sim::event::ChaoticOutcome,
    Cluster,
    TerminationDetector,
) {
    let num_peers = 4;
    let mut b = GraphBuilder::new(n);
    for &(f, t) in edges {
        b.add_edge(f, t);
    }
    let graph = b.build();
    let placement =
        Placement::from_owner_vec((0..n).map(|d| PeerId((d % num_peers) as u32)).collect());
    let mut cluster = Cluster::build_with(
        &graph,
        &placement,
        num_peers,
        EngineConfig::with_epsilon(1e-6).with_sched(sched),
        WireMode::frames(),
    );
    let peers = PeerTable::new(num_peers);
    let mut detector = TerminationDetector::new(num_peers);
    let cfg = ChaoticConfig {
        seed,
        latency,
        sched,
        epsilon: 1e-6,
    };
    let out = run_chaotic(&mut cluster, &peers, &cfg, &mut detector, 50_000_000, &NOOP);
    (out, cluster, detector)
}

proptest! {
    /// On any graph, for any seeded event interleaving, latency model,
    /// and scheduler: the barrier-free Safra detector never announces
    /// termination while any peer still holds residual above ε or any
    /// message is in flight — announcement implies true quiescence
    /// with fully balanced counters. And the whole interleaving is a
    /// pure function of the seed: a second run reproduces the event
    /// schedule and the ranks bit-for-bit.
    #[test]
    fn safra_never_certifies_a_live_system_under_async_delivery(
        (n, edges) in arb_graph(48, 140),
        seed in any::<u64>(),
        latency_ix in 0usize..3,
        priority in any::<bool>(),
    ) {
        let num_peers = 4;
        let latency = [LatencyModel::Modem, LatencyModel::Broadband, LatencyModel::Lan][latency_ix];
        let sched = if priority { SchedMode::Priority } else { SchedMode::Pass };
        let (out, cluster, detector) = chaotic_run(n, &edges, seed, latency, sched);
        prop_assert!(out.quiesced, "run exhausted its event budget");

        // Soundness: an announcement is only ever made over a dead
        // system — no residual above ε anywhere, nothing in flight,
        // every remote entry that left a peer also landed.
        prop_assert!(out.announced, "no fault was injected, so Safra must conclude");
        prop_assert_eq!(detector.announced(), out.announced);
        prop_assert!(cluster.is_quiescent(), "announced while residual above eps");
        for p in 0..num_peers as u32 {
            prop_assert!(
                !cluster.node(PeerId(p)).has_work(),
                "announced while peer {} still has work",
                p
            );
        }
        prop_assert_eq!(
            cluster.in_flight_entries(),
            0u64,
            "announced with messages in flight"
        );
        let (_, sent, received) = counter_sums(&cluster, num_peers);
        prop_assert_eq!(sent, received, "announced with unbalanced counters");

        // Determinism: the event schedule and the fixed point are a
        // pure function of the seed.
        let (again, cluster2, _) = chaotic_run(n, &edges, seed, latency, sched);
        prop_assert_eq!(again, out, "outcome diverged on re-run");
        let a = cluster.collect_ranks(n);
        let b = cluster2.collect_ranks(n);
        for (doc, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "doc {} rank diverged on re-run: {:e} vs {:e}",
                doc, x, y
            );
        }
    }
}
