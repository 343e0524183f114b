//! Differential tests for the telemetry layer.
//!
//! The contract under test is *zero perturbation*: attaching a live
//! [`TraceRecorder`] to a run loop must not move a single rank bit or
//! change a single tally. Here: every layer and run mode through the
//! one entry point `ScenarioSpec::run` (which every sweep, table and
//! `dpr` subcommand drives), churned convergence, and the end-to-end
//! acceptance path — a continuous-churn run writes a JSONL trace that
//! re-parses schema-valid and whose per-run residual series is
//! monotone non-increasing after the last injection event.

use distributed_pagerank::core::RunMode;
use distributed_pagerank::p2p::transport::{FaultKind, FaultPlan, WireCodec};
use distributed_pagerank::prelude::*;
use distributed_pagerank::sim::event::LatencyModel;
use distributed_pagerank::sim::scenario::{continuous_update_experiment, run_convergence};
use distributed_pagerank::sim::spec::{Layer, Observe, Outcome};
use distributed_pagerank::sim::ScenarioSpec;
use dpr_telemetry::replay::fnv64_ranks;
use dpr_telemetry::{Event, Recorder, TraceRecorder, TraceSummary, NOOP};
use std::sync::Arc;

mod common;
use common::LedgerOnly;

const SEED: u64 = 2003;

/// What a run must reproduce under observation: every rank bit, step
/// and delivery, the update and wire counters (the unbatched shadow's
/// included), the schedule fingerprint, the virtual clock, and the
/// verdicts.
fn pinned(o: &Outcome) -> String {
    let ranks = fnv64_ranks(&o.ranks);
    let counts = (o.steps, o.deliveries, o.remote_messages, o.local_updates);
    let clock = (o.schedule_fnv, o.virtual_ns, o.quiesced, o.announced);
    let wire = (o.traffic, o.unbatched, o.fault_fired_at);
    format!("{ranks:#x} {counts:?} {clock:?} {wire:?}")
}

/// `obs` charging what a run supports: the hops and their unbatched
/// shadow on a rounds cluster, and the staged `fault`.
fn charged<R: Recorder + ?Sized>(
    mut obs: Observe<'_, R>,
    rounds: bool,
    fault: Option<FaultPlan>,
) -> Observe<'_, R> {
    let hops = rounds.then_some(true);
    (obs.hops, obs.unbatched, obs.fault) = (hops, hops.map(|_| false), fault);
    obs
}

/// One table over the run entry point: the engine under every
/// scheduler; the rounds cluster under every scheduler, both codecs,
/// clean and with a staged lost frame; and the chaotic cluster under
/// every (latency model, scheduler) pair the same ways. Each run goes
/// untraced, again traced — the recorder also on the transport and
/// the hop accounting, a chaotic run profiled too — and again through a
/// recorder that keeps the ledgers but declines per-event detail, which
/// must see no span, frame or route event and no per-step or per-send
/// metric. All three must pin the same values.
#[test]
fn a_recorder_never_perturbs_a_run() {
    use LatencyModel::{Broadband, Lan, Modem};
    use RunMode::{Chaotic, Rounds};
    use WireCodec::{Compact, Raw};
    let base = ScenarioSpec::new(400, 8, 1e-4, 21);
    let w = base.workload();
    let lost = FaultPlan {
        kind: FaultKind::LostFrame,
        nth_send: 25,
    };
    let mut cases = Vec::new();
    for sched in [SchedMode::Pass, SchedMode::Priority, SchedMode::Greedy] {
        cases.push((Layer::Engine, Rounds, Broadband, sched, Raw, None));
        for (codec, fault) in [
            (Raw, None),
            (Compact, None),
            (Raw, Some(lost)),
            (Compact, Some(lost)),
        ] {
            cases.push((Layer::Cluster, Rounds, Broadband, sched, codec, fault));
            for latency in [Modem, Broadband, Lan] {
                cases.push((Layer::Cluster, Chaotic, latency, sched, codec, fault));
            }
        }
    }
    for (layer, run_mode, latency, sched, codec, fault) in cases {
        let case = format!("{layer:?} {run_mode} {latency} {sched} {codec} {fault:?}");
        let spec = ScenarioSpec {
            sched,
            codec,
            run_mode,
            latency,
            ..base
        };
        let (rounds, chaotic) = (
            layer == Layer::Cluster && run_mode == Rounds,
            run_mode == Chaotic,
        );
        let bare = spec.run(&w, layer, charged(Observe::new(&NOOP), rounds, fault));
        let rec = Arc::new(TraceRecorder::new());
        let mut obs = charged(Observe::shared(&rec), rounds, fault);
        obs.profile = chaotic;
        let traced = spec.run(&w, layer, obs);
        assert_eq!(pinned(&traced), pinned(&bare), "{case}");
        assert!(bare.quiesced || fault.is_some(), "{case}");
        assert_eq!(bare.fault_fired_at.is_some(), fault.is_some(), "{case}");
        assert_eq!(traced.profile.is_some(), chaotic, "{case}");
        let events = rec.events();
        assert!(!events.is_empty(), "{case}: the recorder saw nothing");
        let spans = events.iter().any(|e| matches!(e, Event::SpanClosed { .. }));
        assert_eq!(spans, chaotic, "{case}: span stream");

        let ledgers = Arc::new(LedgerOnly::default());
        let mut obs = charged(Observe::shared(&ledgers), rounds, fault);
        obs.profile = chaotic;
        let coarse = spec.run(&w, layer, obs);
        assert_eq!(pinned(&coarse), pinned(&bare), "{case}: ledgers only");
        assert_eq!(coarse.profile.is_some(), chaotic, "{case}: ledgers only");
        assert!(ledgers.seen().contains_key("mass_ledger"), "{case}");
        let detail = ledgers.detail_seen(layer == Layer::Cluster);
        assert!(detail.is_empty(), "{case}: detail reached it: {detail:?}");
    }
}

/// The churned convergence scenario reports identical pass and
/// message tallies whether or not a recorder is attached.
#[test]
fn churned_convergence_stats_are_unchanged_by_telemetry() {
    let w = Workload::paper(1_500, 40, SEED);
    let spec = ScenarioSpec::new(1_500, 40, 1e-3, SEED);
    let plain = run_convergence(&w, &spec, 0.75, &NOOP, "convergence");
    let rec = TraceRecorder::new();
    let traced = run_convergence(&w, &spec, 0.75, &rec, "diff");
    assert_eq!(plain.passes, traced.passes);
    assert_eq!(plain.converged, traced.converged);
    assert_eq!(plain.total_remote_messages, traced.total_remote_messages);
    assert_eq!(plain.messages_per_node, traced.messages_per_node);
    assert!(rec.enabled() && rec.event_count() > 0);
}

/// The acceptance path end to end: a continuous-churn run traced to
/// JSONL re-parses schema-valid, its checkpoint results match the
/// untraced run exactly, and the residual series of every run label is
/// monotone non-increasing after the final injection event.
#[test]
fn continuous_trace_is_schema_valid_and_residual_monotone() {
    let dir = std::env::temp_dir().join(format!("dpr-telemetry-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("continuous.jsonl");

    let spec = ScenarioSpec::new(1_500, 1, 1e-3, SEED);
    let plain = continuous_update_experiment(&spec, 20, 4, &NOOP);
    let rec = TraceRecorder::with_jsonl(&path).unwrap();
    let traced = continuous_update_experiment(&spec, 20, 4, &rec);
    rec.flush().unwrap();

    assert_eq!(plain.len(), traced.len());
    for (p, t) in plain.iter().zip(&traced) {
        assert_eq!(p.inserts, t.inserts);
        assert_eq!(p.max_rel_error, t.max_rel_error);
        assert_eq!(p.wave_messages, t.wave_messages);
    }

    let text = std::fs::read_to_string(&path).unwrap();
    let summary = TraceSummary::from_jsonl(&text).expect("trace must be schema-valid");
    assert_eq!(summary.events().len(), rec.event_count());
    assert!(summary.runs().iter().any(|r| r == "initial"));
    assert!(summary.runs().iter().any(|r| r.starts_with("recompute@")));
    if let Err((run, pass, prev, cur)) = summary.residual_monotone_after_last_injection() {
        panic!("residual regressed in run {run} at pass {pass}: {prev} -> {cur}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
