//! `--all`: every workload in a process of its own, untraced then
//! traced, gathered into one result file. `--compare`: two such files
//! against the benchmark's bounds.

use crate::common::{median, quartiles, Scale};
use crate::{host, show, spec, RunOpts, DETAIL_PREFIX};
use serde_json::Value;
use std::path::Path;
use std::process::Command;

/// Runs this executable on one workload and returns its detail record.
fn child(workload: &str, traced: bool, opts: &RunOpts) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args([
            "--scale",
            match opts.scale {
                Scale::Full => "full",
                Scale::Tiny => "tiny",
            },
        ])
        .arg("--out")
        .arg(&opts.out_dir)
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The lines for people; the two JSON lines are for programs.
    for line in stdout
        .lines()
        .filter(|l| l.starts_with(' ') || l.starts_with(workload))
    {
        println!("{line}");
    }
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "{workload} run ended with {}: {stderr}",
            out.status
        ));
    }
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("{workload} run printed no detail line"))?;
    serde_json::from_str(detail).map_err(|e| format!("{workload} detail line: {e}"))
}

/// Every workload, each in a fresh process so `peak_rss_mb` is its
/// own; returns whether every check of every run passed.
pub fn all(opts: &RunOpts, git_sha: Option<&str>) -> Result<bool, String> {
    let mut ok = true;
    let mut workloads = Vec::new();
    for (name, _) in spec::WORKLOADS {
        let untraced = child(name, false, opts)?;
        let traced = child(name, true, opts)?;
        for run in [&untraced, &traced] {
            ok &= run["correct"].as_bool() == Some(true);
        }
        workloads.push((
            name.to_string(),
            Value::Object(vec![
                ("params".into(), untraced["params"].clone()),
                ("end_to_end".into(), untraced["metrics"].clone()),
                ("per_layer".into(), traced["metrics"].clone()),
                (
                    "attempted".into(),
                    Value::U64(
                        untraced["attempted"].as_u64().unwrap_or(0)
                            + traced["attempted"].as_u64().unwrap_or(0),
                    ),
                ),
                (
                    "failures".into(),
                    Value::Array(
                        [&untraced, &traced]
                            .iter()
                            .flat_map(|r| r["failures"].as_array().cloned().unwrap_or_default())
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    let result = Value::Object(vec![
        (
            "provenance".into(),
            host::provenance(git_sha, opts.seed, opts.seconds),
        ),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    let path = opts.out_dir.join(format!("all-seed{}.json", opts.seed));
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| {
            let text = serde_json::to_string_pretty(&result).expect("result serializes");
            std::fs::write(&path, text)
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{}: wrote {}",
        if ok {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        },
        path.display()
    );
    Ok(ok)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// One side of a comparison: the samples of a metric, or its one value.
fn samples_of(metric: &Value) -> Vec<f64> {
    let samples: Vec<f64> = metric["samples"]
        .as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    if samples.is_empty() {
        metric["value"].as_f64().into_iter().collect()
    } else {
        samples
    }
}

/// Interquartile range as a share of the median.
fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// `b` against `a` under `bound`: regressed when `b`'s median is worse
/// by more than the bound, unless a side's spread is wider than the
/// bound and the two sides' ranges overlap — then nothing can be said.
fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return (Verdict::Unresolved, 0.0);
    };
    if ma == 0.0 {
        let same = mb == 0.0;
        return (
            if same {
                Verdict::Ok
            } else {
                Verdict::Unresolved
            },
            0.0,
        );
    }
    let worse = if higher_is_better { ma - mb } else { mb - ma } / ma.abs();
    if worse <= bound {
        return (Verdict::Ok, worse);
    }
    let range = |s: &[f64]| {
        s.iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
    };
    let ((alo, ahi), (blo, bhi)) = (range(a), range(b));
    let overlap = alo <= bhi && blo <= ahi;
    let wide = [a, b].iter().any(|s| spread(s).is_some_and(|s| s > bound));
    let verdict = if wide && overlap {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    };
    (verdict, worse)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares two `--all` results, `b` against `a`, row by row; returns
/// whether no row regressed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    let (mut regressed, mut unresolved, mut modelled_changed, mut modelled_same) = (0, 0, 0, 0);
    for (workload, _) in spec::WORKLOADS {
        let (wa, wb) = (&a["workloads"][workload], &b["workloads"][workload]);
        if wa.is_null() || wb.is_null() {
            return Err(format!("{workload} is missing from one of the files"));
        }
        let bounded = spec::END_TO_END.iter().map(|m| (m, "end_to_end")).chain(
            spec::PER_LAYER
                .iter()
                .filter(|m| m.bound.is_some())
                .map(|m| (m, "per_layer")),
        );
        for (m, section) in bounded {
            let (sa, sb) = (
                samples_of(&wa[section][m.name]),
                samples_of(&wb[section][m.name]),
            );
            let bound = m.bound.expect("filtered on it");
            let (verdict, worse) = judge(&sa, &sb, m.better == "higher", bound);
            if section == "per_layer" {
                let same = wa[section][m.name]["value"] == wb[section][m.name]["value"];
                *if same {
                    &mut modelled_same
                } else {
                    &mut modelled_changed
                } += 1;
            }
            match verdict {
                Verdict::Ok => {}
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            println!(
                "{workload:<16} {:<24} {:>14} {:>14} {:>8.2}% {:>6.1}%  {}",
                m.name,
                show(median(&sa).unwrap_or(0.0)),
                show(median(&sb).unwrap_or(0.0)),
                worse * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!(
        "{regressed} regressed, {unresolved} unresolved; modelled metrics: \
         {modelled_same} identical, {modelled_changed} changed"
    );
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_and_knows_when_it_cannot_tell() {
        let steady = [1.00, 1.01, 0.99, 1.00];
        // Within the bound.
        assert_eq!(
            judge(&steady, &[1.05, 1.04, 1.06], false, 0.10).0,
            Verdict::Ok
        );
        // Beyond it, both sides tight.
        assert_eq!(
            judge(&steady, &[1.20, 1.21, 1.19], false, 0.10).0,
            Verdict::Regressed
        );
        // Beyond it, but one side is wider than the bound and they overlap.
        assert_eq!(
            judge(&steady, &[0.95, 1.20, 1.60, 1.15], false, 0.10).0,
            Verdict::Unresolved
        );
        // Wide but every run of b is worse than every run of a.
        assert_eq!(
            judge(&steady, &[1.2, 1.6, 2.0, 1.5], false, 0.10).0,
            Verdict::Regressed
        );
        // Direction.
        assert_eq!(judge(&[2.0], &[1.0], true, 0.10).0, Verdict::Regressed);
        assert_eq!(judge(&[2.0], &[1.0], false, 0.10).0, Verdict::Ok);
        // An improvement is never a regression.
        assert_eq!(judge(&steady, &[0.5, 0.5, 0.5], false, 0.10).0, Verdict::Ok);
    }
}
