//! The premise of CI's ledger drift check: a `BENCH_*.json` is a
//! function of the code and the scenario alone, so regenerating one
//! changes nothing outside `meta.git_sha` / `meta.timestamp`.

use std::path::Path;
use std::process::Command;

/// Runs a tiny `continuous --regimes` from inside `dir` — a ledger
/// record goes to the working directory — and returns its stdout and
/// the record it wrote.
fn regimes_into(dir: &Path, sha: &str) -> (String, String) {
    std::fs::create_dir_all(dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_continuous"))
        .args(["--regimes", "--nodes", "400", "--peers", "16"])
        .args(["--git-sha", sha, "--stamp", sha])
        .current_dir(dir)
        .output()
        .expect("run continuous");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let record = std::fs::read_to_string(dir.join("BENCH_regimes.json")).expect("record written");
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), record)
}

#[test]
fn regimes_emitted_twice_differ_only_in_provenance() {
    let root = std::env::temp_dir().join(format!("dpr-ledger-test-{}", std::process::id()));
    let (stdout, first) = regimes_into(&root.join("a"), "first");
    let (_, second) = regimes_into(&root.join("b"), "second");
    std::fs::remove_dir_all(&root).expect("clean up");

    // Nine groups, 22 cells, each converged once.
    assert!(
        stdout.contains("22 rows from 22 converged runs"),
        "{stdout}"
    );
    assert!(first.contains("\"git_sha\": \"first\"") && second.contains("\"git_sha\": \"second\""));
    let unstamped = |record: &str| {
        let stamped = |l: &&str| l.contains("\"git_sha\"") || l.contains("\"timestamp\"");
        let kept: Vec<&str> = record.lines().filter(|l| !stamped(l)).collect();
        assert_eq!(kept.len() + 2, record.lines().count(), "one sha, one stamp");
        kept.join("\n")
    };
    assert_eq!(unstamped(&first), unstamped(&second));
    // The cells' working state stays out of the ledger.
    assert!(!first.contains("\"ranks\"") && !first.contains("\"traffic\""));
}

/// A table record is written under `--json` only, into `results/`, and
/// without `--git-sha` / `--stamp` says so rather than guessing.
#[test]
fn table_records_go_to_results_with_unknown_provenance() {
    let root = std::env::temp_dir().join(format!("dpr-table-test-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("scratch directory");
    let table4 = |extra: &[&str]| {
        let run = Command::new(env!("CARGO_BIN_EXE_table4"))
            .args(["--sizes", "300", "--samples", "5"])
            .args(extra)
            .current_dir(&root)
            .output()
            .expect("run table4");
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    };
    table4(&[]);
    assert!(!root.join("results").exists(), "no --json, no record");
    table4(&["--json"]);
    let record = std::fs::read_to_string(root.join("results/table4.json")).expect("record written");
    std::fs::remove_dir_all(&root).expect("clean up");
    assert!(record.contains("\"git_sha\": \"unknown\""), "{record}");
    assert!(record.contains("\"timestamp\": \"unknown\""), "{record}");
}
