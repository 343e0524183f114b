//! Differential tests for the telemetry layer.
//!
//! The contract under test is *zero perturbation*: attaching a live
//! [`TraceRecorder`] to any run loop must not move a single rank bit
//! or change a single traffic tally, under either wire mode. A third test exercises the end-to-end
//! acceptance path: a continuous-churn run writes a JSONL trace that
//! re-parses schema-valid and whose per-run residual series is
//! monotone non-increasing after the last injection event.

use distributed_pagerank::node::node::WireMode;
use distributed_pagerank::prelude::*;
use distributed_pagerank::sim::batch::run_wire_mode;
use distributed_pagerank::sim::scenario::{continuous_update_experiment, run_convergence};
use distributed_pagerank::sim::ScenarioSpec;
use dpr_telemetry::{Recorder, TraceRecorder, TraceSummary, NOOP};
use std::sync::Arc;

const SEED: u64 = 2003;

/// Observing the engine run loop yields bit-identical ranks and
/// identical run statistics.
#[test]
fn engine_ranks_are_bit_identical_with_telemetry_on() {
    let w = Workload::paper(2_000, 50, SEED);
    let ranks_plain = {
        let mut eng = ChaoticEngine::new(
            w.graph.clone(),
            w.owners(),
            EngineConfig::with_epsilon(1e-3),
        );
        let mut peers = w.peer_table();
        let run = eng.run_observed(&mut peers, None, &NOOP, "run");
        assert!(run.converged);
        eng.ranks().to_vec()
    };
    let rec = TraceRecorder::new();
    let ranks_traced = {
        let mut eng = ChaoticEngine::new(
            w.graph.clone(),
            w.owners(),
            EngineConfig::with_epsilon(1e-3),
        );
        let mut peers = w.peer_table();
        let run = eng.run_observed(&mut peers, None, &rec, "diff");
        assert!(run.converged);
        eng.ranks().to_vec()
    };
    assert_eq!(ranks_plain, ranks_traced, "ranks diverged");
    assert!(rec.event_count() > 0, "live recorder saw no events");
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

/// Observing the message-level cluster (both wire modes, with the
/// address cache on) yields bit-identical ranks and byte-identical
/// traffic accounting.
#[test]
fn cluster_runs_are_bit_identical_with_telemetry_on() {
    let w = Workload::paper(1_000, 32, SEED);
    for wire in [WireMode::Single, WireMode::frames()] {
        let spec = ScenarioSpec {
            wire,
            ..ScenarioSpec::new(1_000, 32, 1e-3, SEED)
        };
        let plain = run_wire_mode(&w, &spec, true, None);
        let rec: Arc<TraceRecorder> = Arc::new(TraceRecorder::new());
        let traced = run_wire_mode(&w, &spec, true, Some(rec.clone()));
        assert_eq!(plain.ranks, traced.ranks, "ranks diverged under {wire:?}");
        let (p, t) = (plain.traffic, traced.traffic);
        assert_eq!(p.rounds, t.rounds);
        assert_eq!(p.updates, t.updates);
        assert_eq!(p.entries, t.entries);
        assert_eq!(p.frames, t.frames);
        assert_eq!(p.payloads, t.payloads);
        assert_eq!(p.bytes_on_wire, t.bytes_on_wire);
        assert_eq!(p.routed_messages, t.routed_messages);
        assert!(rec.event_count() > 0, "live recorder saw no events");
    }
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
