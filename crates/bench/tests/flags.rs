//! A scenario flag a bench binary's run does not honour is refused
//! after the run, as `dpr` refuses it: exit status 1 and
//! `error: unknown flag …` on stderr, not a panic.

use std::process::Command;

#[test]
fn shape_flags_a_run_ignores_are_refused() {
    let dir = std::env::temp_dir().join(format!("dpr-flags-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp directory");
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
        let out = Command::new(bin)
            .args(flags.split_whitespace())
            .env("DPR_RESULTS_DIR", &dir)
            .current_dir(&dir)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags}: {stderr}");
        assert!(
            stderr.contains(&format!("error: unknown flag {unknown}"))
                && !stderr.contains("panicked"),
            "{flags}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
