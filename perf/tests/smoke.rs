//! Every workload at `--scale tiny` through the real executable: the
//! checks pass, the result lines carry exactly the metrics
//! `BENCHMARK.json` names, and two back-to-back `--all` runs agree
//! under `--compare`. An API change in the crates under test that
//! breaks the benchmark fails here.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_dpr-perf");

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("the benchmark executable starts")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, section: &str) -> Vec<(String, String)> {
    spec[section]
        .as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap().to_string(),
                m["unit"].as_str().unwrap().to_string(),
            )
        })
        .collect()
}

fn object_keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn benchmark_json_is_what_the_program_emits() {
    let out = run(&["--emit-spec"]);
    assert!(out.status.success());
    let emitted: Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(
        emitted,
        benchmark_json(),
        "regenerate BENCHMARK.json with `dpr-perf --emit-spec`"
    );
}

#[test]
fn a_run_prints_the_result_line_the_contract_asks_for() {
    let spec = benchmark_json();
    let dir = scratch("single");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = run(&[
            "--workload",
            "engine_seq",
            "--seed",
            "5",
            "--seconds",
            "0.1",
            "--trace",
            trace,
            "--scale",
            "tiny",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        let last: Value = serde_json::from_str(text.lines().last().unwrap()).unwrap();
        assert_eq!(
            object_keys(&last),
            ["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(last["correct"].as_bool(), Some(true), "{text}");
        assert!(last["attempted"].as_u64().unwrap() >= 1);
        assert_eq!(last["failed"].as_u64(), Some(0));
        let expected = names(&spec, section);
        assert_eq!(
            object_keys(&last["metrics"]),
            expected.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        );
        for (name, unit) in &expected {
            let m = &last["metrics"][name.as_str()];
            assert_eq!(object_keys(m), ["value", "unit"], "{name}");
            assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{name}");
            let value = m["value"].as_f64().unwrap();
            assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
            if section == "end_to_end" {
                assert!(value > 0.0, "{name} must never be 0");
            }
        }
    }
    // The traced run left its spans behind.
    let trace: Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("trace-engine_seq.json")).unwrap())
            .unwrap();
    let spans = trace["spans"].as_array().unwrap();
    assert!(spans.iter().any(|s| s["name"] == "core.engine.pass"));
    assert!(spans
        .iter()
        .all(|s| s["end_ns"].as_u64() >= s["start_ns"].as_u64()));
    assert!(
        trace["by_name"]["core.engine.pass"]["self_ns"]
            .as_u64()
            .unwrap()
            > 0
    );
    assert!(trace["counts"]["core.engine.pushes"].as_u64().unwrap() > 0);

    // Bad input is an error, not a result.
    let out = run(&["--workload", "no_such_workload", "--trace", "0"]);
    assert!(!out.status.success() && stdout(&out).is_empty());
}

#[test]
fn every_workload_passes_and_two_runs_agree() {
    let spec = benchmark_json();
    let all = |dir: &Path| {
        let out = run(&[
            "--all",
            "--seed",
            "7",
            "--seconds",
            "0.1",
            "--scale",
            "tiny",
            "--git-sha",
            "smoke",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}\n{}",
            stdout(&out),
            String::from_utf8_lossy(&out.stderr)
        );
        let path = dir.join("all-seed7.json");
        let result: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        (path, result)
    };
    let (first_path, first) = all(&scratch("all-a"));
    let (second_path, second) = all(&scratch("all-b"));

    assert_eq!(first["provenance"]["git_sha"], "smoke");
    for key in ["seed", "nproc", "cpu_model", "rustc", "seconds_per_run"] {
        assert!(
            !first["provenance"][key].is_null(),
            "provenance lacks {key}"
        );
    }

    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let mut reached = vec![false; per_layer.len()];
    for w in spec["workloads"].as_array().unwrap() {
        let name = w["name"].as_str().unwrap();
        let run = &first["workloads"][name];
        assert!(!run.is_null(), "{name} missing from --all");
        assert_eq!(run["failures"].as_array().unwrap().len(), 0, "{name}");
        assert!(!run["params"].is_null(), "{name} has no parameters");
        for (metric, unit) in &end_to_end {
            let m = &run["end_to_end"][metric.as_str()];
            assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{name} {metric}");
            assert!(m["value"].as_f64().unwrap() > 0.0, "{name} {metric}");
        }
        for (i, (metric, unit)) in per_layer.iter().enumerate() {
            let m = &run["per_layer"][metric.as_str()];
            assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{name} {metric}");
            reached[i] |= m["value"].as_f64().unwrap() > 0.0;
        }
        // Modelled metrics are functions of the seed alone.
        for metric in [
            "rank_err_l1_per_doc",
            "msgs_per_doc",
            "wire_bytes_per_doc",
            "virtual_s",
            "query_p99_virtual_ms",
            "query_ids_per_query",
        ] {
            assert_eq!(
                run["per_layer"][metric]["value"],
                second["workloads"][name]["per_layer"][metric]["value"],
                "{name} {metric} differs between two runs of one seed"
            );
        }
    }
    // `sharded_pass_share` is honestly 0 at this scale: every pass is
    // below the executor's auto-inline threshold.
    for ((metric, _), reached) in per_layer.iter().zip(reached) {
        assert!(
            reached || metric == "core.sharded.sharded_pass_share",
            "no workload produces {metric}"
        );
    }

    // Timings at this scale are microseconds, so only the verdict on
    // the modelled rows is asserted: none may have changed.
    let out = run(&[
        "--compare",
        first_path.to_str().unwrap(),
        second_path.to_str().unwrap(),
    ]);
    let text = stdout(&out);
    assert!(text.contains(" 0 changed"), "{text}");
    for line in text
        .lines()
        .filter(|l| l.contains("per_doc") || l.contains("virtual"))
    {
        assert!(line.ends_with("ok"), "{line}");
    }
}
