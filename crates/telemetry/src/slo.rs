//! Declarative latency SLOs evaluated over sliding windows.
//!
//! An [`SloSpec`] names a quantile target ("p99 query latency under
//! 250 ms") plus an error budget: the fraction of evaluation windows
//! allowed to violate the target before the SLO as a whole fails.
//! Observations stream into [`SlidingWindows`], which shards them
//! into fixed-width virtual-time windows each backed by a
//! [`QuantileSketch`]; because the sketches merge losslessly, the same
//! structure answers both per-window verdicts and whole-run quantiles.
//!
//! [`evaluate`] turns specs + windows into [`SloReport`]s, and
//! [`verdict`] collapses a report set into the single pass/fail bit
//! the CLI maps onto its process exit status — the mechanism CI uses
//! to gate on serving behaviour.

use crate::quantile::QuantileSketch;
use serde::{Deserialize, Serialize};

/// One declarative service-level objective over a latency quantile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloSpec {
    /// Human-readable objective name (e.g. `"p99_query_latency"`).
    pub name: String,
    /// Quantile the objective constrains, in `(0, 1]` (e.g. `0.99`).
    pub quantile: f64,
    /// Upper bound the quantile must stay below, in nanoseconds.
    pub threshold_ns: u64,
    /// Error budget: fraction of windows allowed to violate the
    /// threshold while the objective still passes (e.g. `0.1`).
    pub budget: f64,
}

impl SloSpec {
    /// Convenience constructor.
    pub fn new(name: &str, quantile: f64, threshold_ns: u64, budget: f64) -> Self {
        SloSpec {
            name: name.to_string(),
            quantile,
            threshold_ns,
            budget,
        }
    }
}

/// Evaluation outcome for one [`SloSpec`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloReport {
    /// Objective name, copied from the spec.
    pub name: String,
    /// Quantile constrained, copied from the spec.
    pub quantile: f64,
    /// Threshold, copied from the spec.
    pub threshold_ns: u64,
    /// Number of non-empty windows evaluated.
    pub windows_total: u64,
    /// Windows whose quantile exceeded the threshold.
    pub windows_violated: u64,
    /// `windows_violated / windows_total` (0 when no windows).
    pub budget_spent: f64,
    /// Allowed budget, copied from the spec.
    pub budget: f64,
    /// The quantile over the whole run (all windows merged).
    pub overall_quantile_ns: u64,
    /// True iff `budget_spent <= budget`.
    pub pass: bool,
}

/// Observations sharded into fixed-width virtual-time windows.
#[derive(Debug, Clone)]
pub struct SlidingWindows {
    window_ns: u64,
    windows: Vec<(u64, QuantileSketch)>,
}

impl SlidingWindows {
    /// New window set; `window_ns` is the window width (min 1).
    pub fn new(window_ns: u64) -> Self {
        SlidingWindows {
            window_ns: window_ns.max(1),
            windows: Vec::new(),
        }
    }

    /// Records `value` at virtual time `t_ns`. Observations must not
    /// go backwards across window boundaries (serving time is
    /// monotone), but any order within the current window is fine.
    pub fn observe(&mut self, t_ns: u64, value: u64) {
        let start = (t_ns / self.window_ns) * self.window_ns;
        match self.windows.last_mut() {
            Some((s, sketch)) if *s == start => sketch.observe(value),
            _ => {
                let mut sketch = QuantileSketch::new();
                sketch.observe(value);
                self.windows.push((start, sketch));
            }
        }
    }

    /// Per-window `(start_ns, sketch)` pairs, in time order.
    pub fn windows(&self) -> &[(u64, QuantileSketch)] {
        &self.windows
    }

    /// All windows merged into one sketch (the whole-run view).
    pub fn merged(&self) -> QuantileSketch {
        let mut all = QuantileSketch::new();
        for (_, sketch) in &self.windows {
            all.merge(sketch);
        }
        all
    }
}

/// Evaluates each spec against the windows, producing one report per
/// spec. A window violates a spec when its quantile estimate exceeds
/// the threshold; the spec passes while the violated-window fraction
/// stays within its error budget.
pub fn evaluate(specs: &[SloSpec], windows: &SlidingWindows) -> Vec<SloReport> {
    let merged = windows.merged();
    specs
        .iter()
        .map(|spec| {
            let total = windows.windows().len() as u64;
            let violated = windows
                .windows()
                .iter()
                .filter(|(_, sketch)| sketch.quantile(spec.quantile) > spec.threshold_ns)
                .count() as u64;
            let budget_spent = if total == 0 {
                0.0
            } else {
                violated as f64 / total as f64
            };
            SloReport {
                name: spec.name.clone(),
                quantile: spec.quantile,
                threshold_ns: spec.threshold_ns,
                windows_total: total,
                windows_violated: violated,
                budget_spent,
                budget: spec.budget,
                overall_quantile_ns: merged.quantile(spec.quantile),
                pass: budget_spent <= spec.budget,
            }
        })
        .collect()
}

/// Collapses a report set into the single verdict CI gates on: true
/// iff every objective passed (vacuously true when empty).
pub fn verdict(reports: &[SloReport]) -> bool {
    reports.iter().all(|r| r.pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn windows_shard_by_virtual_time_and_merge_to_whole_run() {
        let mut w = SlidingWindows::new(100 * MS);
        for i in 0..10u64 {
            w.observe(i * 30 * MS, (i + 1) * MS);
        }
        // 0..100ms, 100..200ms, 200..300ms windows → 4+3+3 observations.
        assert_eq!(w.windows().len(), 3);
        let counts: Vec<u64> = w.windows().iter().map(|(_, s)| s.count()).collect();
        assert_eq!(counts, vec![4, 3, 3]);
        assert_eq!(w.merged().count(), 10);
        assert_eq!(w.merged().quantile(1.0), 10 * MS);
    }

    #[test]
    fn budget_accounting_separates_pass_from_fail() {
        // 10 windows; two of them contain one slow (500 ms) request.
        let mut w = SlidingWindows::new(100 * MS);
        for win in 0..10u64 {
            let t = win * 100 * MS;
            for _ in 0..9 {
                w.observe(t, 10 * MS);
            }
            w.observe(t, if win < 2 { 500 * MS } else { 20 * MS });
        }
        let specs = [
            // p99 ≤ 250 ms with a 30% budget: 2/10 violated → passes.
            SloSpec::new("p99_roomy", 0.99, 250 * MS, 0.30),
            // p99 ≤ 250 ms with a 10% budget: 2/10 violated → fails.
            SloSpec::new("p99_tight", 0.99, 250 * MS, 0.10),
            // p50 ≤ 50 ms: never violated.
            SloSpec::new("p50", 0.50, 50 * MS, 0.0),
        ];
        let reports = evaluate(&specs, &w);
        assert_eq!(reports[0].windows_violated, 2);
        assert!(reports[0].pass);
        assert!(!reports[1].pass);
        assert!((reports[1].budget_spent - 0.2).abs() < 1e-9);
        assert!(reports[2].pass);
        assert_eq!(reports[2].windows_violated, 0);
        assert!(!verdict(&reports));
        assert!(verdict(&reports[..1]));
        assert!(verdict(&[]));
    }

    #[test]
    fn empty_windows_evaluate_vacuously() {
        let w = SlidingWindows::new(MS);
        let reports = evaluate(&[SloSpec::new("p99", 0.99, MS, 0.0)], &w);
        assert_eq!(reports[0].windows_total, 0);
        assert!(reports[0].pass);
        assert_eq!(reports[0].overall_quantile_ns, 0);
    }

    #[test]
    fn specs_round_trip_through_serde() {
        let spec = SloSpec::new("p999", 0.999, 750 * MS, 0.05);
        let json = serde_json::to_string(&spec).unwrap();
        let back: SloSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, "p999");
        assert_eq!(back.threshold_ns, 750 * MS);
    }
}
