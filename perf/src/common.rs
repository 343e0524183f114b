//! Pieces every workload shares: the sample ledger, the reference
//! solution, workload construction with per-layer spans, and a
//! time-budgeted micro-timing loop.

use crate::trace::Tracer;
use dpr_core::sync_solver::SyncSolver;
use dpr_graph::powerlaw::PowerLawConfig;
use dpr_graph::CsrGraph;
use dpr_p2p::peer::{Placement, PlacementPolicy};
use dpr_p2p::ring::Ring;
use dpr_sim::workload::Workload;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Problem size of a run: `Full` is what `BENCHMARK.json` measures,
/// `Tiny` (≤2k documents) is what the smoke test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Samples per metric name, plus the operations attempted and failed.
#[derive(Debug, Default)]
pub struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// What each modelled metric read on each input seen so far.
    modelled: BTreeMap<(&'static str, u64), f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records one sample of `name`.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Counts one attempted operation; `why` names it if it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples of `name`, or 0 when the run never
    /// reached the layer that produces it.
    pub fn median(&self, name: &str) -> f64 {
        median(self.samples(name)).unwrap_or(0.0)
    }

    /// Records a modelled value: a count or a virtual-clock reading
    /// that is a pure function of the input made from `seed`. It is one
    /// sample per distinct input, and a rep that reads other bits on an
    /// input seen before is a failure.
    pub fn model(&mut self, seed: u64, name: &'static str, value: f64) {
        match self.modelled.get(&(name, seed)) {
            None => {
                self.modelled.insert((name, seed), value);
                self.put(name, value);
            }
            Some(first) if first.to_bits() == value.to_bits() => {}
            Some(first) => self.failures.push(format!(
                "{name} read {first:e} then {value:e} on the input of seed {seed}"
            )),
        }
    }
}

pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive), which is what
/// the acceptance check computes spreads with. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // 1-based position k(n+1)/4; like Python, the interval is
        // clamped into the data but the weight is not, so the ends
        // extrapolate on very short inputs.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// L1 distance per document between two rank vectors.
pub fn l1_per_doc(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rank vectors of one graph");
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    sum / a.len().max(1) as f64
}

/// Tolerance of the reference solution every rank vector is compared
/// against.
pub const REFERENCE_TOLERANCE: f64 = 1e-13;

/// The synchronous fixed point of `graph` at [`REFERENCE_TOLERANCE`].
/// With a live tracer the solve is a span and yields
/// `core.sync.ns_per_edge_iter`.
pub fn reference(graph: &CsrGraph, tr: &mut Tracer, ledger: &mut Ledger) -> Vec<f64> {
    let (res, ns) = tr.timed("core.sync.solve", || {
        SyncSolver::new()
            .tolerance(REFERENCE_TOLERANCE)
            .max_iterations(2_000)
            .solve(graph)
    });
    if tr.enabled() {
        let edge_iters = (res.iterations * graph.num_edges()).max(1) as f64;
        ledger.put("core.sync.ns_per_edge_iter", ns / edge_iters);
    }
    ledger.check(res.converged, || {
        format!(
            "reference solver stopped at residual {:e}",
            res.final_residual
        )
    });
    res.ranks
}

/// Checks the rank vectors a workload produces, input by input. The
/// first vector of an input is held to `max_err` per document against
/// the reference solve (which yields `rank_err_l1_per_doc`); every
/// later rep on that input must reproduce the first one's bits, which
/// needs neither the solve nor a cached reference vector in the memory
/// being measured.
#[derive(Debug, Default)]
pub struct RankCheck {
    first_bits: BTreeMap<u64, u64>,
}

impl RankCheck {
    pub fn check(
        &mut self,
        seed: u64,
        graph: &CsrGraph,
        ranks: &[f64],
        max_err: f64,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) {
        // FNV-1a over the rank bits.
        let bits = ranks.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, r| {
            (h ^ r.to_bits()).wrapping_mul(0x100_0000_01b3)
        });
        match self.first_bits.get(&seed) {
            Some(&first) => ledger.check(bits == first, || {
                format!("ranks differ from the first rep's on the input of seed {seed}")
            }),
            None => {
                self.first_bits.insert(seed, bits);
                let err = l1_per_doc(ranks, &reference(graph, tr, ledger));
                ledger.check(err <= max_err, || {
                    format!("rank error {err:e} per doc exceeds {max_err:e}")
                });
                ledger.model(seed, "rank_err_l1_per_doc", err);
            }
        }
    }
}

/// `Workload::paper`, which is what untraced runs call. With a live
/// tracer the same three constructions run one by one under their own
/// spans (the `Workload` fields are public), so graph generation, ring
/// build and placement are timed apart; a unit test holds the result equal to
/// `Workload::paper`'s.
pub fn build_workload(
    nodes: usize,
    num_peers: usize,
    seed: u64,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Workload {
    if !tr.enabled() {
        return Workload::paper(nodes, num_peers, seed);
    }
    let started = Instant::now();
    let whole = tr.enter("sim.workload.build");
    let (graph, ns) = tr.timed("graph.powerlaw.generate", || {
        Arc::new(PowerLawConfig::paper(nodes, seed).generate())
    });
    ledger.put(
        "graph.powerlaw.gen_ns_per_edge",
        ns / graph.num_edges().max(1) as f64,
    );
    let (ring, ns) = tr.timed("p2p.ring.build", || Ring::with_peers(num_peers));
    ledger.put("p2p.ring.build_s", ns * 1e-9);
    let (placement, ns) = tr.timed("p2p.placement.assign", || {
        // The seed mix is `Workload::build`'s.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9);
        Placement::assign(nodes, &ring, PlacementPolicy::Random, &mut rng)
    });
    ledger.put("p2p.placement.assign_ns_per_doc", ns / nodes.max(1) as f64);
    tr.exit(whole);
    ledger.put("sim.workload.build_s", started.elapsed().as_secs_f64());
    Workload {
        graph,
        ring,
        placement,
        num_peers,
    }
}

/// Whether two workloads hold the same graph and placement.
#[cfg(test)]
fn same_workload(a: &Workload, b: &Workload) -> bool {
    a.graph.num_nodes() == b.graph.num_nodes()
        && a.graph.num_edges() == b.graph.num_edges()
        && a.graph.edges().eq(b.graph.edges())
        && a.owners() == b.owners()
}

/// Calls `f` in batches until `budget` has passed (at least twice) and
/// returns the median nanoseconds per call over the batches. `f`
/// returns something to keep the optimiser from deleting the work.
pub fn time_per_call<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    // Size a batch to about a millisecond so the clock reads are
    // negligible against the work.
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().as_nanos().max(1) as f64;
    let batch = ((1e6 / once) as usize).clamp(1, 100_000);
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 2 || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
        if per_call.len() >= 10_000 {
            break;
        }
    }
    median(&per_call).expect("at least two batches ran")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn ledger_flags_a_modelled_metric_that_moves() {
        let mut l = Ledger::default();
        l.model(1, "m", 1.0);
        l.model(1, "m", 1.0);
        l.model(2, "m", 3.0);
        assert!(l.failures.is_empty());
        assert_eq!(l.samples("m"), [1.0, 3.0]);
        l.model(1, "m", 1.0 + f64::EPSILON);
        assert_eq!(l.failures.len(), 1);
        assert_eq!(l.median("absent"), 0.0);
    }

    #[test]
    fn traced_workload_build_equals_workload_paper() {
        let mut ledger = Ledger::default();
        let piecewise = build_workload(1_500, 20, 7, &mut Tracer::new(true), &mut ledger);
        assert!(same_workload(&piecewise, &Workload::paper(1_500, 20, 7)));
        assert!(ledger.median("graph.powerlaw.gen_ns_per_edge") > 0.0);
    }
}
