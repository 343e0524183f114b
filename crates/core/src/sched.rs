//! Residual-driven priority scheduling (Gauss-Southwell-style push
//! ordering).
//!
//! The paper's chaotic iteration (Sec. 2.3) is order-free: peers may
//! apply and emit updates in any order and still reach the same fixed
//! point. The pass engine exploits that freedom only trivially — every
//! pass sweeps the whole dirty set. D-Iteration (Hong et al.) and the
//! asynchronous-iteration analysis of Kollias, Gallopoulos & Szyld
//! show that *ordering pushes by residual magnitude* — diffusing from
//! the documents holding the most un-propagated mass first — reaches
//! the same fixed point in substantially fewer updates, and therefore
//! fewer remote messages (the paper's headline Table 3 metric).
//!
//! ## Queue layout
//!
//! The scheduler never maintains a heap. Each pass it classifies the
//! queued documents into the log2 residual buckets of the
//! `dpr-telemetry` histogram scheme ([`dpr_telemetry::hist::bucket_of`]
//! over a fixed-point rescaling of the residual), accumulates the
//! residual mass per bucket, and selects *whole buckets* from the top
//! down until the selected mass reaches the adaptive emission budget
//! ([`PRIORITY_BUDGET_FRACTION`] of the total queued mass). Selecting
//! whole buckets keeps the selected set a pure function of the queued
//! *set* and the engine state: the caller lists the set ascending (see
//! [`partition_by_residual`]), so the order the documents were queued
//! in cannot move the cut.
//!
//! ## Residual carryover
//!
//! Deferred documents are never dropped: they stay queued with their
//! pending increments intact, so quiescence still means "no residual
//! above ε anywhere, nothing parked or in flight" — the paper's strong
//! convergence criterion is unchanged. Deferral only *coalesces*
//! low-value advertisements: a deferred document keeps accumulating
//! increments and later advertises the combined change in one burst of
//! messages instead of several.
//!
//! ## Greedy matching pursuit
//!
//! `Greedy` replaces the whole-bucket cut with a Dai–Freris-style
//! matching-pursuit selection: documents are ranked by *projected
//! residual reduction per emitted message* — |residual| · 1/outdeg —
//! and the pass takes the exact prefix of that ranking whose residual
//! mass meets the emission budget, instead of rounding the cut up to a
//! whole log2 bucket. The ranking is a total order ((score desc, doc
//! asc), compared bit-exactly), so the selected set is still a pure
//! function of the queued set and engine state, as in `Priority`.

use dpr_telemetry::hist::bucket_of;

/// The one canonical help string for every `--sched` flag — CLI
/// commands and bench binaries all cite this so a new mode lands in
/// every usage banner at once.
pub const SCHED_HELP: &str = "pass|priority|greedy";

/// How an engine (or node) schedules its queued documents each pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SchedMode {
    /// The classic full sweep: every queued document is applied and
    /// (when over ε) re-advertised every pass.
    #[default]
    Pass,
    /// Gauss-Southwell-style priority scheduling: each pass processes
    /// only the top residual-mass buckets and defers the rest.
    Priority,
    /// Matching-pursuit greedy scheduling: each pass processes the
    /// exact prefix of documents with the largest projected residual
    /// reduction per message and defers the rest.
    Greedy,
}

impl SchedMode {
    /// Whether this mode *selects* a subset of the queue each pass
    /// (and therefore wants residual telemetry, coalescing step
    /// timing, and deferred-work bookkeeping). `Pass` sweeps
    /// everything; `Priority` and `Greedy` are selective.
    pub fn is_selective(self) -> bool {
        matches!(self, SchedMode::Priority | SchedMode::Greedy)
    }
}

impl std::fmt::Display for SchedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SchedMode::Pass => "pass",
            SchedMode::Priority => "priority",
            SchedMode::Greedy => "greedy",
        })
    }
}

impl std::str::FromStr for SchedMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pass" => Ok(SchedMode::Pass),
            "priority" => Ok(SchedMode::Priority),
            "greedy" => Ok(SchedMode::Greedy),
            other => Err(format!(
                "unknown sched mode {other:?} (expected {SCHED_HELP})"
            )),
        }
    }
}

/// How the cluster layer advances its peers.
///
/// `Rounds` is the historical lockstep driver: every online peer
/// drains its inbox, steps once, and flushes, all inside one global
/// round barrier with instantaneous delivery. `Chaotic` is the
/// paper's actual operating regime — peers step whenever updates
/// arrive, delivery takes link-dependent virtual time, and there is
/// no barrier to re-synchronize what the scheduler deferred.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RunMode {
    /// Lockstep rounds with instantaneous delivery (the default;
    /// bit-identical to the pre-event-runtime behavior).
    #[default]
    Rounds,
    /// Event-driven asynchronous stepping over a seeded deterministic
    /// discrete-event queue with per-link latency models.
    Chaotic,
}

impl std::fmt::Display for RunMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RunMode::Rounds => "rounds",
            RunMode::Chaotic => "chaotic",
        })
    }
}

impl std::str::FromStr for RunMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rounds" => Ok(RunMode::Rounds),
            "chaotic" => Ok(RunMode::Chaotic),
            other => Err(format!(
                "unknown run mode {other:?} (expected \"rounds\" or \"chaotic\")"
            )),
        }
    }
}

/// Fraction of the queued residual mass a `Priority` pass aims to
/// process. The cut is adaptive: whole buckets are taken from the top
/// until the running mass reaches this fraction, so the number of
/// selected documents tracks the shape of the residual distribution
/// (a heavy-tailed queue selects few documents, a flat one most).
pub const PRIORITY_BUDGET_FRACTION: f64 = 0.5;

/// Queue size at or below which a `Priority` pass bypasses selection
/// and processes everything. On the convergence tail the queue is
/// small and deferral would only stretch the run without saving
/// messages.
pub const PRIORITY_BYPASS_THRESHOLD: usize = 64;

/// Fixed-point scale mapping f64 residuals onto the u64 domain of the
/// telemetry histogram buckets: residuals down to 2⁻⁴⁰ (≈ 9·10⁻¹³,
/// well below any useful ε) land in distinct log2 buckets.
const RESIDUAL_SCALE: f64 = (1u64 << 40) as f64;

/// Log2 bucket index of a residual magnitude, reusing the telemetry
/// histogram bucketing scheme over the fixed-point rescaling.
pub fn residual_bucket(residual: f64) -> usize {
    bucket_of((residual.abs() * RESIDUAL_SCALE) as u64)
}

/// Per-pass outcome of the work selection, a function of the queued
/// set and the engine state (asserted by `tests/kernel_reference.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedStats {
    /// Documents queued when the pass started.
    pub queued: u64,
    /// Documents selected for this pass.
    pub selected: u64,
    /// Documents deferred to a later pass.
    pub deferred: u64,
    /// Residual mass carried by the deferred documents.
    pub deferred_mass: f64,
    /// Fraction of the queued residual mass selected (1.0 when
    /// nothing was deferred or the queue carried no mass).
    pub budget_hit: f64,
}

impl SchedStats {
    /// Stats of a full sweep: everything selected, nothing deferred.
    pub fn full_sweep(queued: usize) -> Self {
        SchedStats {
            queued: queued as u64,
            selected: queued as u64,
            deferred: 0,
            deferred_mass: 0.0,
            budget_hit: 1.0,
        }
    }
}

/// Partitions `work` by residual priority: the selected documents stay
/// in `work` (relative order preserved), deferred ones are appended to
/// `deferred`. `residual(doc)` must return the un-propagated mass of
/// the document; `scratch` is a reusable per-item bucket buffer.
///
/// The caller must present `work` in a canonical order (the engine
/// lists its frontier ascending): the per-bucket mass sums are
/// floating-point folds over `work`, and the budget cut compares them —
/// so two passes agree on the selected set exactly when they fold in
/// the same order.
pub fn partition_by_residual(
    work: &mut Vec<u32>,
    deferred: &mut Vec<u32>,
    scratch: &mut Vec<u8>,
    mut residual: impl FnMut(u32) -> f64,
) -> SchedStats {
    let queued = work.len();
    if queued <= PRIORITY_BYPASS_THRESHOLD {
        return SchedStats::full_sweep(queued);
    }

    const BUCKETS: usize = dpr_telemetry::hist::BUCKETS;
    let mut mass = [0.0f64; BUCKETS];
    let mut count = [0u32; BUCKETS];
    scratch.clear();
    scratch.reserve(queued);
    for &d in work.iter() {
        let r = residual(d).abs();
        let b = residual_bucket(r);
        scratch.push(b as u8);
        mass[b] += r;
        count[b] += 1;
    }
    let total: f64 = mass.iter().sum();

    // Take whole buckets from the top until the budget is met. At
    // least one non-empty bucket is always selected, so a non-empty
    // queue always makes progress.
    let mut cut = 0usize;
    let mut selected_mass = 0.0f64;
    for b in (0..BUCKETS).rev() {
        if count[b] == 0 {
            continue;
        }
        selected_mass += mass[b];
        cut = b;
        if selected_mass >= PRIORITY_BUDGET_FRACTION * total {
            break;
        }
    }

    let mut kept = 0usize;
    for idx in 0..queued {
        let d = work[idx];
        if scratch[idx] as usize >= cut {
            work[kept] = d;
            kept += 1;
        } else {
            deferred.push(d);
        }
    }
    work.truncate(kept);

    SchedStats {
        queued: queued as u64,
        selected: kept as u64,
        deferred: (queued - kept) as u64,
        deferred_mass: total - selected_mass,
        budget_hit: if total > 0.0 {
            selected_mass / total
        } else {
            1.0
        },
    }
}

/// Sort key for the greedy ranking: non-negative f64 scores have
/// monotone IEEE-754 bit patterns, so `!bits` orders descending under
/// an ascending integer sort. NaN scores (a NaN residual) map to 0 —
/// never prioritized — mirroring [`residual_bucket`]'s NaN handling.
fn greedy_key(score: f64) -> u64 {
    let s = if score.is_nan() { 0.0 } else { score };
    !s.to_bits()
}

/// Partitions `work` by greedy matching pursuit: documents are ranked
/// by projected residual reduction per emitted message — |residual| /
/// max(outdeg, 1) — and the top of the ranking is kept in `work`
/// (score-descending order) until the selected residual mass reaches
/// [`PRIORITY_BUDGET_FRACTION`]; the rest is appended to `deferred`.
/// `scratch` is a reusable (key, doc) buffer.
///
/// Unlike [`partition_by_residual`], `work` comes back in
/// *selection-priority* order, not the caller's canonical order: the
/// engine reads only which documents were deferred (its apply scan
/// walks the frontier in document order whatever this returns), the
/// node layer uses the order directly so flush buffers fill
/// highest-value-first. Determinism is preserved because the ranking
/// is a total order — (score desc, doc asc) with bit-exact score
/// comparison — making the selected set and both output orders pure
/// functions of the queued set and the residual/out-degree state.
///
/// Dangling documents (outdeg 0) are scored as outdeg 1: applying
/// them retires their whole residual into the sink for zero messages,
/// so they are never worth deferring below that.
pub fn partition_by_greedy(
    work: &mut Vec<u32>,
    deferred: &mut Vec<u32>,
    scratch: &mut Vec<(u64, u32)>,
    mut residual: impl FnMut(u32) -> f64,
    mut out_degree: impl FnMut(u32) -> usize,
) -> SchedStats {
    let queued = work.len();
    if queued <= PRIORITY_BYPASS_THRESHOLD {
        return SchedStats::full_sweep(queued);
    }

    // Total queued mass folds in the caller's canonical (ascending)
    // order; the selection fold below runs in ranked order. Both are
    // deterministic given the set, which is all bit-identity needs.
    scratch.clear();
    scratch.reserve(queued);
    let mut total = 0.0f64;
    for &d in work.iter() {
        let r = residual(d).abs();
        total += r;
        let score = r / out_degree(d).max(1) as f64;
        scratch.push((greedy_key(score), d));
    }
    if total <= 0.0 {
        // A queue of exactly-zero residuals drains in one sweep
        // instead of parking forever (same escape as `Priority`).
        return SchedStats::full_sweep(queued);
    }
    scratch.sort_unstable();

    let budget = PRIORITY_BUDGET_FRACTION * total;
    let mut selected_mass = 0.0f64;
    let mut kept = 0usize;
    work.clear();
    for &(_, d) in scratch.iter() {
        if kept > 0 && selected_mass >= budget {
            deferred.push(d);
        } else {
            work.push(d);
            selected_mass += residual(d).abs();
            kept += 1;
        }
    }

    SchedStats {
        queued: queued as u64,
        selected: kept as u64,
        deferred: (queued - kept) as u64,
        deferred_mass: total - selected_mass,
        budget_hit: selected_mass / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_displays() {
        assert_eq!("pass".parse::<SchedMode>().unwrap(), SchedMode::Pass);
        assert_eq!(
            "priority".parse::<SchedMode>().unwrap(),
            SchedMode::Priority
        );
        assert_eq!("greedy".parse::<SchedMode>().unwrap(), SchedMode::Greedy);
        assert!("pri".parse::<SchedMode>().is_err());
        let err = "bogus".parse::<SchedMode>().unwrap_err();
        assert!(err.contains(SCHED_HELP), "error must cite the help: {err}");
        assert_eq!(SchedMode::Priority.to_string(), "priority");
        assert_eq!(SchedMode::Greedy.to_string(), "greedy");
        assert_eq!(SchedMode::default(), SchedMode::Pass);
        assert!(!SchedMode::Pass.is_selective());
        assert!(SchedMode::Priority.is_selective());
        assert!(SchedMode::Greedy.is_selective());
    }

    #[test]
    fn run_mode_parses_and_displays() {
        assert_eq!("rounds".parse::<RunMode>().unwrap(), RunMode::Rounds);
        assert_eq!("chaotic".parse::<RunMode>().unwrap(), RunMode::Chaotic);
        assert!("async".parse::<RunMode>().is_err());
        assert_eq!(RunMode::Chaotic.to_string(), "chaotic");
        assert_eq!(RunMode::default(), RunMode::Rounds);
    }

    #[test]
    fn residual_buckets_are_log2() {
        assert_eq!(residual_bucket(0.0), 0);
        // Monotone in magnitude, one bucket per doubling.
        let b1 = residual_bucket(1e-3);
        let b2 = residual_bucket(2e-3);
        let b4 = residual_bucket(4e-3);
        assert_eq!(b2, b1 + 1);
        assert_eq!(b4, b2 + 1);
        assert_eq!(residual_bucket(-2e-3), b2);
        // Huge residuals saturate into the top bucket instead of
        // wrapping.
        assert!(residual_bucket(1e30) >= residual_bucket(1e6));
    }

    #[test]
    fn residual_bucket_handles_the_fp_edge_cases() {
        // Zero (either sign) carries no mass: bucket 0.
        assert_eq!(residual_bucket(0.0), 0);
        assert_eq!(residual_bucket(-0.0), 0);
        // Subnormals (~1e-308) sit far below the 2⁻⁴⁰ fixed-point
        // resolution floor and truncate to bucket 0 — they are
        // scheduling noise, not signal.
        assert_eq!(residual_bucket(f64::MIN_POSITIVE), 0);
        assert_eq!(residual_bucket(f64::MIN_POSITIVE / 2.0), 0);
        assert_eq!(residual_bucket(5e-324), 0);
        // The rescaling boundary: 2⁻⁴⁰ is the smallest residual with
        // its own bucket; one ulp below truncates to 0, each doubling
        // above climbs one bucket.
        let floor = 2f64.powi(-40);
        assert_eq!(residual_bucket(floor), 1);
        assert_eq!(residual_bucket(floor * 0.999), 0);
        assert_eq!(residual_bucket(floor * 2.0), 2);
        // Non-finite residuals must not panic or wrap: ±∞ saturates
        // into the top bucket (always selected first), NaN falls to
        // bucket 0 (never prioritized).
        assert_eq!(residual_bucket(f64::INFINITY), 64);
        assert_eq!(residual_bucket(f64::NEG_INFINITY), 64);
        assert_eq!(residual_bucket(f64::NAN), 0);
    }

    #[test]
    fn small_queues_bypass_selection() {
        let mut work: Vec<u32> = (0..PRIORITY_BYPASS_THRESHOLD as u32).collect();
        let mut deferred = Vec::new();
        let mut scratch = Vec::new();
        let st = partition_by_residual(&mut work, &mut deferred, &mut scratch, |d| d as f64);
        assert_eq!(st, SchedStats::full_sweep(PRIORITY_BYPASS_THRESHOLD));
        assert_eq!(work.len(), PRIORITY_BYPASS_THRESHOLD);
        assert!(deferred.is_empty());
    }

    #[test]
    fn selects_top_mass_and_defers_the_rest() {
        // 100 docs with residual 1.0, 900 with residual 1/1024: the
        // heavy bucket holds ~99% of the mass, so it alone is selected.
        let mut work: Vec<u32> = (0..1000).collect();
        let mut deferred = Vec::new();
        let mut scratch = Vec::new();
        let st = partition_by_residual(&mut work, &mut deferred, &mut scratch, |d| {
            if d < 100 {
                1.0
            } else {
                1.0 / 1024.0
            }
        });
        assert_eq!(work, (0..100).collect::<Vec<u32>>());
        assert_eq!(deferred.len(), 900);
        assert_eq!(st.selected, 100);
        assert_eq!(st.deferred, 900);
        assert!(st.budget_hit > PRIORITY_BUDGET_FRACTION);
        assert!((st.deferred_mass - 900.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn flat_queue_selects_everything() {
        // Equal residuals: one bucket, selected whole.
        let mut work: Vec<u32> = (0..500).collect();
        let mut deferred = Vec::new();
        let mut scratch = Vec::new();
        let st = partition_by_residual(&mut work, &mut deferred, &mut scratch, |_| 0.125);
        assert_eq!(st.selected, 500);
        assert_eq!(st.deferred, 0);
        assert!(deferred.is_empty());
        assert_eq!(st.budget_hit, 1.0);
    }

    #[test]
    fn zero_mass_queue_still_progresses() {
        let mut work: Vec<u32> = (0..200).collect();
        let mut deferred = Vec::new();
        let mut scratch = Vec::new();
        let st = partition_by_residual(&mut work, &mut deferred, &mut scratch, |_| 0.0);
        // All residuals land in bucket 0 — everything is selected, so
        // a queue of exactly-zero residuals drains instead of parking
        // forever.
        assert_eq!(st.selected, 200);
        assert_eq!(st.budget_hit, 1.0);
    }

    #[test]
    fn greedy_small_queues_bypass_selection() {
        let mut work: Vec<u32> = (0..PRIORITY_BYPASS_THRESHOLD as u32).collect();
        let (mut deferred, mut scratch) = (Vec::new(), Vec::new());
        let st = partition_by_greedy(&mut work, &mut deferred, &mut scratch, |d| d as f64, |_| 3);
        assert_eq!(st, SchedStats::full_sweep(PRIORITY_BYPASS_THRESHOLD));
        assert_eq!(work.len(), PRIORITY_BYPASS_THRESHOLD);
        assert!(deferred.is_empty());
    }

    #[test]
    fn greedy_cuts_exactly_at_the_budget() {
        // 1000 docs with equal residual and equal fanout: priority
        // would select the whole (single) bucket; greedy takes exactly
        // the budget-fraction prefix, tie-broken by doc id.
        let mut work: Vec<u32> = (0..1000).collect();
        let (mut deferred, mut scratch) = (Vec::new(), Vec::new());
        let st = partition_by_greedy(&mut work, &mut deferred, &mut scratch, |_| 0.25, |_| 4);
        assert_eq!(st.selected, 500);
        assert_eq!(st.deferred, 500);
        assert_eq!(work, (0..500).collect::<Vec<u32>>());
        assert_eq!(deferred, (500..1000).collect::<Vec<u32>>());
        assert!((st.budget_hit - PRIORITY_BUDGET_FRACTION).abs() < 1e-12);
    }

    #[test]
    fn greedy_prefers_residual_reduction_per_message() {
        // Docs 0..100 carry residual 1.0 but fan out to 100 targets;
        // docs 100..200 carry 0.5 with a single target. Per-message
        // value is 0.01 vs 0.5, so the low-fanout half ranks first.
        let mut work: Vec<u32> = (0..200).collect();
        let (mut deferred, mut scratch) = (Vec::new(), Vec::new());
        let st = partition_by_greedy(
            &mut work,
            &mut deferred,
            &mut scratch,
            |d| if d < 100 { 1.0 } else { 0.5 },
            |d| if d < 100 { 100 } else { 1 },
        );
        // The cheap half's 50.0 mass is below the 75.0 budget, so the
        // selection spills into the expensive half.
        assert!(work.starts_with(&(100..200).collect::<Vec<u32>>()[..]));
        assert!(st.selected > 100);
        assert!(st.selected < 200);
        assert!(st.budget_hit >= PRIORITY_BUDGET_FRACTION);
    }

    #[test]
    fn greedy_zero_mass_queue_still_progresses() {
        let mut work: Vec<u32> = (0..200).collect();
        let (mut deferred, mut scratch) = (Vec::new(), Vec::new());
        let st = partition_by_greedy(&mut work, &mut deferred, &mut scratch, |_| 0.0, |_| 2);
        assert_eq!(st.selected, 200);
        assert_eq!(st.budget_hit, 1.0);
        assert!(deferred.is_empty());
    }

    #[test]
    fn greedy_selection_is_order_independent_as_a_set() {
        let res = |d: u32| 1.0 / (1.0 + d as f64);
        let deg = |d: u32| (d as usize % 7) + 1;
        let mut fwd: Vec<u32> = (0..300).collect();
        let mut rev: Vec<u32> = (0..300).rev().collect();
        let (mut d1, mut d2) = (Vec::new(), Vec::new());
        let (mut s1, mut s2) = (Vec::new(), Vec::new());
        rev.sort_unstable();
        let st1 = partition_by_greedy(&mut fwd, &mut d1, &mut s1, res, deg);
        let st2 = partition_by_greedy(&mut rev, &mut d2, &mut s2, res, deg);
        assert_eq!(st1, st2);
        assert_eq!(fwd, rev);
        assert_eq!(d1, d2);
    }

    #[test]
    fn greedy_dangling_docs_rank_by_full_residual() {
        // A dangling doc with residual r scores r (outdeg clamped to
        // 1), so it outranks a linked doc with the same residual and
        // higher fanout.
        let mut work: Vec<u32> = (0..100).collect();
        let (mut deferred, mut scratch) = (Vec::new(), Vec::new());
        partition_by_greedy(
            &mut work,
            &mut deferred,
            &mut scratch,
            |_| 0.5,
            |d| if d == 42 { 0 } else { 8 },
        );
        assert_eq!(work[0], 42, "the dangling doc must rank first");
    }

    #[test]
    fn selection_is_order_independent_as_a_set() {
        let res = |d: u32| 1.0 / (1.0 + d as f64);
        let mut fwd: Vec<u32> = (0..300).collect();
        let mut rev: Vec<u32> = (0..300).rev().collect();
        let (mut d1, mut d2) = (Vec::new(), Vec::new());
        let (mut s1, mut s2) = (Vec::new(), Vec::new());
        // Canonicalize both to ascending order — the contract the
        // engine upholds — then check identical outcomes.
        rev.sort_unstable();
        let st1 = partition_by_residual(&mut fwd, &mut d1, &mut s1, res);
        let st2 = partition_by_residual(&mut rev, &mut d2, &mut s2, res);
        assert_eq!(st1, st2);
        assert_eq!(fwd, rev);
        assert_eq!(d1, d2);
    }
}
