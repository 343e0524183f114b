//! Differential tests for the telemetry layer.
//!
//! The contract under test is *zero perturbation*: attaching a live
//! [`TraceRecorder`] to a run loop must not move a single rank bit or
//! change a single tally. (The static engine, rounds and chaotic runs
//! are re-run traced against their rows in the regime table,
//! `crates/bench/tests/regimes.rs`.) Here: churned convergence, and
//! the end-to-end acceptance path — a continuous-churn run writes a
//! JSONL trace that re-parses schema-valid and whose per-run residual
//! series is monotone non-increasing after the last injection event.

use distributed_pagerank::prelude::*;
use distributed_pagerank::sim::scenario::{continuous_update_experiment, run_convergence};
use distributed_pagerank::sim::ScenarioSpec;
use dpr_telemetry::{Recorder, TraceRecorder, TraceSummary, NOOP};

const SEED: u64 = 2003;

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
