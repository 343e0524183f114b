//! A bench binary refuses a flag as `dpr` does: exit status 1 and
//! `error: …` on stderr, not a panic. A scenario flag its run does not
//! honour is refused after the run, a value it cannot take before it.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `bin` with `flags` in a scratch directory and returns its
/// stderr, asserting it exited 1 without a panic.
fn refused(bin: &str, flags: &str) -> String {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dpr-flags-test-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp directory");
    let out = Command::new(bin)
        .args(flags.split_whitespace())
        .env("DPR_RESULTS_DIR", &dir)
        .current_dir(&dir)
        .output()
        .expect("run the binary");
    std::fs::remove_dir_all(&dir).expect("clean up");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{flags}: {stderr}");
    assert!(!stderr.contains("panicked"), "{flags}: {stderr}");
    stderr
}

#[test]
fn shape_flags_a_run_ignores_are_refused() {
    let cases = [
        // `--sizes` is table1's size axis.
        (
            env!("CARGO_BIN_EXE_table1"),
            "--sizes 300 --peers 10 --nodes 999",
            "--nodes",
        ),
        // Non-batch table3 sweeps the fixed ε list.
        (
            env!("CARGO_BIN_EXE_table3"),
            "--sizes 300 --peers 10 --eps 1e-2",
            "--eps",
        ),
        // Bursts read only the graph's size and seed.
        (
            env!("CARGO_BIN_EXE_continuous"),
            "--bursts --nodes 400 --inserts 4 --deletes 2 --peers 7 --eps 0.5",
            "--eps, --peers",
        ),
    ];
    for (bin, flags, unknown) in cases {
        let stderr = refused(bin, flags);
        assert!(
            stderr.contains(&format!("error: unknown flag {unknown}")),
            "{flags}: {stderr}"
        );
    }
}

#[test]
fn values_a_run_cannot_take_are_refused_before_it() {
    let cases = [
        (
            env!("CARGO_BIN_EXE_table1"),
            "--sizes abc",
            "error: flag --sizes: cannot parse 'abc'",
        ),
        (
            env!("CARGO_BIN_EXE_table4"),
            "--sizes 300 --samples 0",
            "error: --samples must be at least 1",
        ),
        (
            env!("CARGO_BIN_EXE_table4"),
            "--sizes 0 --samples 3",
            "error: --sizes: a graph has at least one document",
        ),
        (
            env!("CARGO_BIN_EXE_table3"),
            "--batch --sizes 300 --peers 10 --eps 1e-2,0",
            "error: scenario epsilon: must be finite and positive",
        ),
        (
            env!("CARGO_BIN_EXE_table3"),
            "--sizes 300 --peers 10 --compute-secs nan",
            "error: --compute-secs must be finite and non-negative",
        ),
        (
            env!("CARGO_BIN_EXE_continuous"),
            "--nodes 300 --peers 10 --checkpoints 0",
            "error: --inserts must be at least --checkpoints",
        ),
        (
            env!("CARGO_BIN_EXE_continuous"),
            "--regimes --nodes 400 --peers 16 --parity-eps nan",
            "error: --parity-eps must be finite and positive",
        ),
        (
            env!("CARGO_BIN_EXE_continuous"),
            "--bursts --nodes 400 --burst-eps 0",
            "error: --burst-eps must be finite and positive",
        ),
        (
            env!("CARGO_BIN_EXE_ablations"),
            "--nodes 0",
            "error: --nodes must be at least 1",
        ),
        (
            env!("CARGO_BIN_EXE_table6"),
            "--docs 0",
            "error: --docs must be at least 1",
        ),
        (
            env!("CARGO_BIN_EXE_table4"),
            "--sizes 300 --samples 3 --damping 2",
            "error: --damping must be in (0, 1], got 2",
        ),
        (
            env!("CARGO_BIN_EXE_continuous"),
            "--serving --nodes 400 --peers 16 --queries 0",
            "error: --queries must be at least 1",
        ),
    ];
    for (bin, flags, error) in cases {
        let stderr = refused(bin, flags);
        assert!(stderr.contains(error), "{flags}: {stderr}");
        // Refused before any run: nothing was converged.
        assert!(!stderr.contains('…'), "{flags}: {stderr}");
    }
}
