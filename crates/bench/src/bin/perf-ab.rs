//! `perf-ab`: two built `dpr-perf` binaries, compared in alternating
//! pairs.
//!
//! ```text
//! perf-ab <bin-a> <bin-b> [--pairs 10] [--workload W] [--seed 2003] \
//!     [--scale tiny] [--seconds N]
//! ```
//!
//! A is the baseline (a build of the parent commit), B the change. Each
//! pair runs both binaries once on one workload, swapping which runs
//! first every pair, so that a slow phase of the host lands on both
//! sides alike. Each run's last stdout line is its JSON result, from
//! which every end-to-end metric `BENCHMARK.json` declares is read.
//! Copy each binary out of its `target/` first: a rebuild mid-run would
//! swap it.
//!
//! Per metric the table prints each side's median [quartiles], B's
//! median over A's, the pairs B won and a verdict:
//!
//! - `better`: B won at least 90% of the pairs, a one-sided sign test
//!   rejects a coin flip at 5% (so it takes five pairs or more), and the
//!   medians lie further apart than A's interquartile range;
//! - `worse`: B's median is past the metric's `BENCHMARK.json` bound in
//!   its worse direction;
//! - `unresolved`: anything else.
//!
//! Failed operations are summed per side; more on B reads `worse`, as
//! a row of its own.
//! `BENCHMARK.json` is found in the working directory or the nearest
//! directory above it, and is read, never written. Without `--workload`
//! every workload it declares runs. The exit status is 1 when any row
//! reads `worse`, 2 on an error.

use dpr_sim::flags::Args;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// What one run of one binary measured: each metric's value, in
/// declaration order, and its failed operations.
struct Run {
    values: Vec<f64>,
    failed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Better,
    Worse,
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// The `q`-quantile of sorted `xs`, interpolated linearly between
/// order statistics.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let at = q * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

/// `(first quartile, median, third quartile)` of `xs`.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        quantile(&sorted, 0.25),
        quantile(&sorted, 0.5),
        quantile(&sorted, 0.75),
    )
}

/// One-sided sign-test p-value of `won` wins in `n` pairs: the chance
/// of at least that many under a fair coin.
fn sign_test_p(won: usize, n: usize) -> f64 {
    let mut choose = 1.0;
    let mut tail = 0.0;
    for k in 0..=n {
        if k >= won {
            tail += choose;
        }
        choose = choose * (n - k) as f64 / (k + 1) as f64;
    }
    tail / 2f64.powi(n as i32)
}

/// The pairs B won and the verdict on one metric's paired samples.
fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> (usize, Verdict) {
    let b_wins = |(a, b): (&f64, &f64)| if m.lower_is_better { b < a } else { b > a };
    let won = a.iter().zip(b).filter(|&p| b_wins(p)).count();
    let ((a1, am, a3), (_, bm, _)) = (quartiles(a), quartiles(b));
    // Positive when B's median is the better one.
    let gain = if m.lower_is_better { am - bm } else { bm - am };
    let v = if -gain > m.bound * am.abs() {
        Verdict::Worse
    } else if won * 10 >= a.len() * 9 && sign_test_p(won, a.len()) <= 0.05 && gain > a3 - a1 {
        Verdict::Better
    } else {
        Verdict::Unresolved
    };
    (won, v)
}

/// Four significant digits, in scientific notation where fixed would
/// say nothing.
fn show(v: f64) -> String {
    if v != 0.0 && !(1e-3..1e6).contains(&v.abs()) {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn find_spec() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    loop {
        let path = dir.join("BENCHMARK.json");
        if path.is_file() {
            return Ok(path);
        }
        if !dir.pop() {
            return Err("no BENCHMARK.json in the working directory or above it".into());
        }
    }
}

/// The declared workload names and end-to-end metrics.
fn load_spec(path: &Path) -> Result<(Vec<String>, Vec<Metric>), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let spec: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| {
        spec.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{}: no \"{key}\" list", path.display()))
    };
    let workloads = list("workloads")?
        .iter()
        .filter_map(|w| w.get("name")?.as_str().map(String::from))
        .collect();
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))?;
    Ok((workloads, metrics))
}

/// Options passed through to every `dpr-perf` run.
struct Opts {
    seed: u64,
    scale: Option<String>,
    seconds: Option<String>,
    out: PathBuf,
}

fn run_once(bin: &Path, workload: &str, opts: &Opts, metrics: &[Metric]) -> Result<Run, String> {
    let mut cmd = Command::new(bin);
    cmd.args(["--workload", workload, "--trace", "0", "--seed"])
        .arg(opts.seed.to_string())
        .arg("--out")
        .arg(&opts.out);
    if let Some(scale) = &opts.scale {
        cmd.args(["--scale", scale]);
    }
    if let Some(seconds) = &opts.seconds {
        cmd.args(["--seconds", seconds]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("run {}: {e}", bin.display()))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "{} {workload}: {}: {stderr}",
            bin.display(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let result: Value = last
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or_else(|| format!("{} {workload}: no JSON result line", bin.display()))?;
    let values = metrics
        .iter()
        .map(|m| result.get("metrics")?.get(&m.name)?.get("value")?.as_f64())
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{} {workload}: result lacks a metric", bin.display()))?;
    let failed = result.get("failed").and_then(Value::as_u64).unwrap_or(0);
    Ok(Run { values, failed })
}

/// Runs `pairs` alternating pairs of one workload, prints its table and
/// returns how many rows read better, worse and unresolved.
fn compare(
    bins: [&Path; 2],
    workload: &str,
    pairs: usize,
    opts: &Opts,
    metrics: &[Metric],
) -> Result<(usize, usize, usize), String> {
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..pairs {
        for side in [pair % 2, 1 - pair % 2] {
            eprintln!(
                "perf-ab: {workload} pair {}/{pairs} {}",
                pair + 1,
                ["A", "B"][side]
            );
            runs[side].push(run_once(bins[side], workload, opts, metrics)?);
        }
    }
    println!("{workload}  seed {}  {pairs} pairs", opts.seed);
    println!(
        "  {:<12} {:>32} {:>32} {:>7} {:>6}  verdict",
        "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "won"
    );
    let (mut better, mut worse, mut unresolved) = (0, 0, 0);
    let cell = |(q1, m, q3): (f64, f64, f64)| format!("{} [{}, {}]", show(m), show(q1), show(q3));
    for (i, m) in metrics.iter().enumerate() {
        let [a, b] = runs
            .each_ref()
            .map(|side| side.iter().map(|r| r.values[i]).collect::<Vec<_>>());
        let (won, v) = verdict(m, &a, &b);
        let (qa, qb) = (quartiles(&a), quartiles(&b));
        println!(
            "  {:<12} {:>32} {:>32} {:>7.3} {:>6}  {v}",
            m.name,
            cell(qa),
            cell(qb),
            qb.1 / qa.1,
            format!("{won}/{pairs}")
        );
        match v {
            Verdict::Better => better += 1,
            Verdict::Worse => worse += 1,
            Verdict::Unresolved => unresolved += 1,
        }
    }
    let [fa, fb] = runs
        .each_ref()
        .map(|side| side.iter().map(|r| r.failed).sum::<u64>());
    worse += usize::from(fb > fa);
    let v = if fb > fa { "worse" } else { "-" };
    println!(
        "  {:<12} {fa:>32} {fb:>32} {:>7} {:>6}  {v}",
        "failed ops", "", ""
    );
    Ok((better, worse, unresolved))
}

fn main() -> ExitCode {
    match run() {
        Ok(worse) if worse > 0 => ExitCode::FAILURE,
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf-ab: error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parses the invocation, runs every comparison and returns the number
/// of rows that read `worse`.
fn run() -> Result<usize, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let split = argv
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(argv.len());
    let flags = argv.split_off(split);
    let [a, b] = <[String; 2]>::try_from(argv)
        .map_err(|_| "usage: perf-ab <bin-a> <bin-b> [--pairs 10] [--workload W] [--seed S] [--scale tiny] [--seconds N]")?;
    let args = Args::parse(flags)?;
    let pairs: usize = args.get("pairs", 10)?;
    let opts = Opts {
        seed: args.get("seed", 2003)?,
        scale: args.optional("scale").map(String::from),
        seconds: args.optional("seconds").map(String::from),
        out: std::env::temp_dir().join(format!("perf-ab-{}", std::process::id())),
    };
    let only = args.optional("workload").map(String::from);
    args.reject_unread()?;
    if pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }

    let (declared, metrics) = load_spec(&find_spec()?)?;
    let workloads = match only {
        Some(w) if declared.contains(&w) => vec![w],
        Some(w) => return Err(format!("unknown workload {w:?}; declared: {declared:?}")),
        None => declared,
    };
    let bins = [Path::new(&a), Path::new(&b)];
    let mut totals = (0, 0, 0);
    let compared = workloads.iter().try_for_each(|w| {
        let (better, worse, unresolved) = compare(bins, w, pairs, &opts, &metrics)?;
        totals = (totals.0 + better, totals.1 + worse, totals.2 + unresolved);
        Ok::<(), String>(())
    });
    // The runs' trace and result files are of no further use.
    let _ = std::fs::remove_dir_all(&opts.out);
    compared?;
    println!(
        "verdicts: {} better, {} worse, {} unresolved",
        totals.0, totals.1, totals.2
    );
    Ok(totals.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall() -> Metric {
        Metric {
            name: "wall_s".into(),
            lower_is_better: true,
            bound: 0.25,
        }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[2.0, 1.0]), (1.25, 1.5, 1.75));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn sign_test_tails() {
        assert_eq!(sign_test_p(0, 10), 1.0);
        assert!((sign_test_p(9, 10) - 11.0 / 1024.0).abs() < 1e-15);
        assert!((sign_test_p(2, 2) - 0.25).abs() < 1e-15);
        assert!(sign_test_p(5, 5) < 0.05 && sign_test_p(4, 4) > 0.05);
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let a: Vec<f64> = (0..10).map(|i| 1.0 + 0.01 * i as f64).collect();
        // Ten wins and a gap far past A's IQR.
        let b: Vec<f64> = a.iter().map(|x| x * 0.7).collect();
        assert_eq!(verdict(&wall(), &a, &b), (10, Verdict::Better));
        // Nine of ten, but a gap inside A's IQR.
        let mut b: Vec<f64> = a.iter().map(|x| x - 0.001).collect();
        b[0] = 2.0;
        assert_eq!(verdict(&wall(), &a, &b), (9, Verdict::Unresolved));
        // Past the 25% bound, whichever pairs won.
        let b: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&wall(), &a, &b), (0, Verdict::Worse));
        // Two pairs can never read better.
        assert_eq!(
            verdict(&wall(), &[1.0, 1.1], &[0.5, 0.6]).1,
            Verdict::Unresolved
        );
        // Higher-is-better metrics flip the direction.
        let speedup = Metric {
            lower_is_better: false,
            ..wall()
        };
        let b: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&speedup, &a, &b), (10, Verdict::Better));
    }

    #[test]
    fn the_checked_in_spec_parses() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let (workloads, metrics) = load_spec(&path).unwrap();
        assert!(workloads.iter().any(|w| w == "cluster_rounds"));
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["wall_s", "setup_s", "peak_rss_mb"]);
    }
}
