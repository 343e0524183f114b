//! `dpr-perf` — the repository's wall-clock benchmark.
//!
//! ```text
//! dpr-perf --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON result line
//! dpr-perf --all [--seed N] [--seconds S]                     every workload, untraced then traced
//! dpr-perf --compare A.json B.json                            two --all results against the bounds
//! dpr-perf --emit-spec                                        the contents of BENCHMARK.json
//! ```
//!
//! See `perf/README.md` for the workloads, the metrics and how the
//! layers map onto them.

mod bench;
mod common;
mod host;
mod report;
mod spec;
mod trace;
mod workloads {
    pub mod bursts;
    pub mod chaotic;
    pub mod cluster;
    pub mod engine;
    pub mod serving;
}

use bench::{run_traced, run_untraced, Bench};
use common::{Ledger, Scale};
use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// Default `--seed`: the paper's year.
const DEFAULT_SEED: u64 = 2003;

/// Prefix of the stdout line carrying everything a run measured (the
/// last line carries only what the result contract allows).
pub const DETAIL_PREFIX: &str = "#detail ";

/// Options shared by a single run and `--all`.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

enum Mode {
    One { workload: String, traced: bool },
    All { git_sha: Option<String> },
    Compare { a: PathBuf, b: PathBuf },
    EmitSpec,
}

fn parse_args(args: &[String]) -> Result<(Mode, RunOpts), String> {
    let mut opts = RunOpts {
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        scale: Scale::Full,
        out_dir: PathBuf::from("perf/out"),
    };
    let (mut workload, mut traced, mut all, mut git_sha) = (None, false, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be within 0..=60".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                opts.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, not {other:?}")),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value()?),
            "--git-sha" => git_sha = Some(value()?),
            "--all" => all = true,
            "--emit-spec" => return Ok((Mode::EmitSpec, opts)),
            "--compare" => {
                let (a, b) = (PathBuf::from(value()?), PathBuf::from(value()?));
                return Ok((Mode::Compare { a, b }, opts));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (all, workload) {
        (true, None) => Ok((Mode::All { git_sha }, opts)),
        (false, Some(workload)) => Ok((Mode::One { workload, traced }, opts)),
        _ => Err("give exactly one of --workload NAME, --all, --compare A B, --emit-spec".into()),
    }
}

/// Runs one workload and returns what it measured plus its parameters.
fn drive<B: Bench>(mut b: B, name: &str, traced: bool, opts: &RunOpts) -> (Ledger, Value) {
    let params = b.params();
    if !traced {
        return (run_untraced(&mut b, opts.seed, opts.seconds), params);
    }
    let (mut ledger, tr) = run_traced(&mut b, opts.seed, opts.seconds);
    let path = opts.out_dir.join(format!("trace-{name}.json"));
    let written = std::fs::create_dir_all(&opts.out_dir).and_then(|()| {
        let text = serde_json::to_string(&tr.to_json(name, opts.seed)).expect("trace serializes");
        std::fs::write(&path, text)
    });
    ledger.check(written.is_ok(), || {
        format!("cannot write {}: {written:?}", path.display())
    });
    (ledger, params)
}

fn run_workload(name: &str, traced: bool, opts: &RunOpts) -> Result<(Ledger, Value), String> {
    use workloads::{bursts, chaotic, cluster, engine, serving};
    let s = opts.scale;
    Ok(match name {
        "engine_seq" => drive(engine::EngineBench::new(false, s), name, traced, opts),
        "engine_sharded" => drive(engine::EngineBench::new(true, s), name, traced, opts),
        "cluster_rounds" => drive(cluster::ClusterBench::new(s), name, traced, opts),
        "chaotic_async" => {
            let b = chaotic::AsyncBench::new(s, opts.out_dir.clone());
            drive(b, name, traced, opts)
        }
        "chaotic_audited" => drive(chaotic::AuditedBench::new(s), name, traced, opts),
        "serving_mix" => drive(serving::ServingBench::new(s), name, traced, opts),
        "update_bursts" => drive(bursts::BurstBench::new(s), name, traced, opts),
        other => {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload {other:?}; known: {known:?}"));
        }
    })
}

/// One run: prints every metric by name with its unit, the failures if
/// any, the detail line, and last the result line.
fn one(workload: &str, traced: bool, opts: &RunOpts) -> Result<(), String> {
    let (ledger, params) = run_workload(workload, traced, opts)?;
    let reported: &[spec::Metric] = if traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };

    println!(
        "{workload}  seed {}  {}",
        opts.seed,
        if traced { "traced" } else { "untraced" }
    );
    let mut metrics = Vec::new();
    let mut detail = Vec::new();
    for m in reported {
        let samples = ledger.samples(m.name);
        let value = ledger.median(m.name);
        if !samples.is_empty() {
            let (lo, hi) = samples
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            println!(
                "  {:<42} {:>14} {:<10} min {} max {} n {}",
                m.name,
                show(value),
                m.unit,
                show(lo),
                show(hi),
                samples.len()
            );
        }
        let entry = |extra: Vec<(String, Value)>| {
            let mut o = vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(m.unit.into())),
            ];
            o.extend(extra);
            Value::Object(o)
        };
        metrics.push((m.name.to_string(), entry(Vec::new())));
        let samples = Value::Array(samples.iter().map(|&v| Value::F64(v)).collect());
        detail.push((m.name.to_string(), entry(vec![("samples".into(), samples)])));
    }
    for f in &ledger.failures {
        println!("  FAILED: {f}");
    }

    let failed = ledger.failures.len() as u64;
    let attempted = ledger.attempted.max(1).max(failed);
    let head = |metrics: Vec<(String, Value)>| {
        vec![
            ("correct".to_string(), Value::Bool(failed == 0)),
            ("attempted".to_string(), Value::U64(attempted)),
            ("failed".to_string(), Value::U64(failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]
    };
    let mut full = head(detail);
    full.extend([
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::U64(opts.seed)),
        ("traced".into(), Value::Bool(traced)),
        ("params".into(), params),
        (
            "failures".into(),
            Value::Array(ledger.failures.iter().cloned().map(Value::Str).collect()),
        ),
    ]);
    let line = |v: Value| serde_json::to_string(&v).expect("result serializes");
    println!("{DETAIL_PREFIX}{}", line(Value::Object(full)));
    println!("{}", line(Value::Object(head(metrics))));
    Ok(())
}

/// A value for people: six decimals, or four significant digits in
/// scientific notation where those would say nothing.
pub fn show(v: f64) -> String {
    if v != 0.0 && !(1e-3..1e9).contains(&v.abs()) {
        format!("{v:.3e}")
    } else {
        format!("{v:.6}")
    }
}

fn emit_spec() {
    let text = serde_json::to_string_pretty(&spec::benchmark_json()).expect("spec serializes");
    println!("{text}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|(mode, opts)| match mode {
        Mode::One { workload, traced } => one(&workload, traced, &opts).map(|()| true),
        Mode::All { git_sha } => report::all(&opts, git_sha.as_deref()),
        Mode::Compare { a, b } => report::compare(&a, &b),
        Mode::EmitSpec => {
            emit_spec();
            Ok(true)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dpr-perf: {e}");
            ExitCode::from(2)
        }
    }
}
