//! One driver per experiment family in the paper's evaluation.
//!
//! Each function builds its workload, runs the system, and returns a
//! serializable record; the `table*` binaries in `dpr-bench` print
//! these as the paper's tables.

use crate::churn::Schedule;
use crate::spec::{Outcome, ScenarioSpec};
use crate::workload::Workload;
use dpr_core::engine::{ChaoticEngine, EngineConfig};
use dpr_core::error_stats::{self, ErrorDistribution};
use dpr_core::incremental::{propagate, PropagationConfig};
use dpr_core::sync_solver::SyncSolver;
use dpr_graph::{CsrGraph, DocId};
use dpr_p2p::ring::Ring;
use dpr_search::corpus::{generate_queries, Corpus, CorpusConfig};
use dpr_search::index::DistributedIndex;
use dpr_search::query::{
    execute_baseline, execute_incremental, IncrementalConfig, Query, TrafficModel,
};
use dpr_telemetry::{Event, Recorder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

// ---------------------------------------------------------------------------
// Table 1: convergence

/// One Table 1 cell.
#[derive(Debug, Clone, Serialize)]
pub struct ConvergenceResult {
    /// Documents in the graph.
    pub graph_size: usize,
    /// Peers in the system.
    pub num_peers: usize,
    /// Fraction of peers present at any time.
    pub presence: f64,
    /// Error threshold ε.
    pub epsilon: f64,
    /// Passes to convergence.
    pub passes: usize,
    /// Whether the run converged within the pass budget.
    pub converged: bool,
    /// Remote update messages over the run.
    pub total_remote_messages: u64,
    /// Messages per document.
    pub messages_per_node: f64,
}

/// Runs one Table 1 cell — `spec` at one presence level — on a
/// pre-built workload (lets one graph serve several presence levels,
/// as in the paper). Under
/// [`SchedMode::Priority`](dpr_core::SchedMode::Priority) each pass
/// processes only the top residual-mass buckets (same fixed point to
/// O(ε), fewer messages).
///
/// Traced through `rec`: every pass emits `pass_completed` /
/// `convergence_check` events under `run_label`, and presence churn
/// shows up as `peer_churn` flips.
pub fn run_convergence<R: Recorder + ?Sized>(
    w: &Workload,
    spec: &ScenarioSpec,
    presence: f64,
    rec: &R,
    run_label: &str,
) -> ConvergenceResult {
    let mut engine = spec.engine(w);
    let mut peers = w.peer_table();
    let mut schedule = if presence < 1.0 {
        Schedule::fraction(presence, spec.seed ^ 0xc0ffee)
    } else {
        Schedule::always_on()
    };
    let mut churn = |_pass: usize, p: &mut dpr_p2p::peer::PeerTable| schedule.apply(p);
    let run = engine.run_observed(&mut peers, Some(&mut churn), rec, run_label);
    ConvergenceResult {
        graph_size: w.graph.num_nodes(),
        num_peers: w.num_peers,
        presence,
        epsilon: spec.epsilon,
        passes: run.passes,
        converged: run.converged,
        total_remote_messages: run.total_remote_messages,
        messages_per_node: run.messages_per_node(w.graph.num_nodes()),
    }
}

// ---------------------------------------------------------------------------
// Tables 2 & 3: quality and traffic vs epsilon

/// One (graph, ε) run: quality against the synchronous reference plus
/// traffic counts — one row of Table 2 and Table 3 simultaneously.
#[derive(Debug, Clone, Serialize)]
pub struct QualityResult {
    /// Documents in the graph.
    pub graph_size: usize,
    /// Error threshold ε.
    pub epsilon: f64,
    /// Passes to convergence.
    pub passes: usize,
    /// Remote update messages over the run.
    pub total_remote_messages: u64,
    /// Messages per document (Table 3's "Avg.").
    pub messages_per_node: f64,
    /// Relative-error distribution vs the synchronous reference
    /// (Table 2's row set).
    pub distribution: ErrorDistribution,
}

/// Shared state for sweeping ε over one workload: the synchronous
/// reference `R_c` is computed once.
pub struct QualitySweep {
    workload: Workload,
    reference: Vec<f64>,
}

impl QualitySweep {
    /// Builds `spec`'s workload and its synchronous reference solution.
    pub fn new(spec: &ScenarioSpec) -> Self {
        let workload = spec.workload();
        let reference = SyncSolver::new()
            .tolerance(1e-12)
            .max_iterations(1000)
            .solve(&workload.graph)
            .ranks;
        QualitySweep {
            workload,
            reference,
        }
    }

    /// The workload the sweep's runs converge over.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Scores `out`, a converged run of `spec` over the sweep's
    /// workload, against the synchronous reference. Scores are
    /// unchanged by observation; a cluster run delivers within the
    /// round (a different, equally valid chaotic schedule than the
    /// array engine), so its scored error matches the engine's to
    /// O(ε), not bitwise.
    ///
    /// # Panics
    ///
    /// If the run did not converge.
    pub fn score(&self, spec: &ScenarioSpec, out: &Outcome) -> QualityResult {
        assert!(out.quiesced, "static run must converge");
        let docs = self.workload.graph.num_nodes();
        QualityResult {
            graph_size: docs,
            epsilon: spec.epsilon,
            passes: out.steps as usize,
            total_remote_messages: out.remote_messages,
            messages_per_node: out.remote_messages as f64 / docs.max(1) as f64,
            distribution: error_stats::compare(&out.ranks, &self.reference),
        }
    }
}

// ---------------------------------------------------------------------------
// Table 4: document insertion

/// Averaged insert-wave measurements for one (graph, ε) cell.
#[derive(Debug, Clone, Serialize)]
pub struct InsertResult {
    /// Documents in the graph.
    pub graph_size: usize,
    /// Error threshold ε.
    pub epsilon: f64,
    /// Samples averaged (paper: 1000 random nodes).
    pub samples: usize,
    /// Mean longest message chain.
    pub avg_path_length: f64,
    /// Mean distinct documents reached.
    pub avg_node_coverage: f64,
    /// Mean update messages generated.
    pub avg_messages: f64,
}

/// Runs the Table 4 experiment: propagate a unit insert wave from
/// `samples` random origin documents and average path length and node
/// coverage.
pub fn insert_experiment(
    graph: &CsrGraph,
    epsilon: f64,
    damping: f64,
    samples: usize,
    seed: u64,
) -> InsertResult {
    assert!(samples > 0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cfg = PropagationConfig { damping, epsilon };
    let (mut sum_path, mut sum_cov, mut sum_msg) = (0u64, 0u64, 0u64);
    for _ in 0..samples {
        let origin = DocId(rng.gen_range(0..graph.num_nodes() as u32));
        let stats = propagate(graph, origin, dpr_core::INITIAL_RANK, cfg, None);
        sum_path += stats.path_length as u64;
        sum_cov += stats.node_coverage as u64;
        sum_msg += stats.messages;
    }
    InsertResult {
        graph_size: graph.num_nodes(),
        epsilon,
        samples,
        avg_path_length: sum_path as f64 / samples as f64,
        avg_node_coverage: sum_cov as f64 / samples as f64,
        avg_messages: sum_msg as f64 / samples as f64,
    }
}

// ---------------------------------------------------------------------------
// Table 6: incremental search

/// Parameters of the search experiment (defaults match Sec. 4.9).
#[derive(Debug, Clone, Serialize)]
pub struct SearchExperimentConfig {
    /// Corpus size (paper: ~11,000).
    pub num_docs: usize,
    /// Vocabulary size (paper: 1880).
    pub vocab_size: u32,
    /// Peers holding the documents and index (paper: 50).
    pub num_peers: usize,
    /// Queries per query length (paper: 20 each).
    pub queries_per_len: usize,
    /// Error threshold for the pagerank computation feeding the index.
    pub pagerank_epsilon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SearchExperimentConfig {
    fn default() -> Self {
        SearchExperimentConfig {
            num_docs: 11_000,
            vocab_size: 1880,
            num_peers: 50,
            queries_per_len: 20,
            pagerank_epsilon: dpr_core::RECOMMENDED_EPSILON,
            seed: 2003,
        }
    }
}

/// One Table 6 row: a (strategy, query length) aggregate.
#[derive(Debug, Clone, Serialize)]
pub struct SearchRow {
    /// "baseline", "top10" or "top20".
    pub strategy: String,
    /// Terms per query (2 or 3).
    pub query_len: usize,
    /// Mean over queries of `baseline_traffic / strategy_traffic`
    /// (1.0 for the baseline itself).
    pub avg_traffic_reduction: f64,
    /// Mean hits returned to the user.
    pub avg_hits_returned: f64,
    /// Mean ids transferred per query.
    pub avg_traffic_ids: f64,
}

/// The full Table 6 experiment: build corpus + ranks + index, run the
/// query mix under baseline / top-10 % / top-20 %, and aggregate.
pub fn search_experiment(cfg: &SearchExperimentConfig) -> Vec<SearchRow> {
    // Corpus and link structure share document ids; ranks come from
    // the distributed pagerank over the link graph, as in the paper.
    let corpus = Corpus::generate(&CorpusConfig {
        num_docs: cfg.num_docs,
        vocab_size: cfg.vocab_size,
        seed: cfg.seed,
        ..Default::default()
    });
    let graph =
        dpr_graph::powerlaw::PowerLawConfig::paper(cfg.num_docs, cfg.seed ^ 0xbeef).generate();
    let mut engine = ChaoticEngine::local(
        std::sync::Arc::new(graph),
        EngineConfig::with_epsilon(cfg.pagerank_epsilon),
    );
    let run = engine.run_static();
    assert!(run.converged);
    let ring = Ring::with_peers(cfg.num_peers);
    let index = DistributedIndex::build(&corpus, engine.ranks(), &ring);

    let mut rows = Vec::new();
    for query_len in [2usize, 3] {
        let queries: Vec<Query> =
            generate_queries(&corpus, query_len, cfg.queries_per_len, cfg.seed ^ 77)
                .into_iter()
                .map(Query::new)
                .collect();
        let baselines: Vec<_> = queries
            .iter()
            .map(|q| execute_baseline(&index, q, TrafficModel::AllHopsRemote))
            .collect();
        // Baseline row.
        rows.push(SearchRow {
            strategy: "baseline".into(),
            query_len,
            avg_traffic_reduction: 1.0,
            avg_hits_returned: mean(baselines.iter().map(|o| o.hits_returned() as f64)),
            avg_traffic_ids: mean(baselines.iter().map(|o| o.traffic_ids as f64)),
        });
        for (name, icfg) in [
            ("top10", IncrementalConfig::top10()),
            ("top20", IncrementalConfig::top20()),
        ] {
            let outs: Vec<_> = queries
                .iter()
                .map(|q| execute_incremental(&index, q, icfg))
                .collect();
            let reduction = mean(
                outs.iter()
                    .zip(&baselines)
                    .map(|(o, b)| b.traffic_ids as f64 / o.traffic_ids.max(1) as f64),
            );
            rows.push(SearchRow {
                strategy: name.into(),
                query_len,
                avg_traffic_reduction: reduction,
                avg_hits_returned: mean(outs.iter().map(|o| o.hits_returned() as f64)),
                avg_traffic_ids: mean(outs.iter().map(|o| o.traffic_ids as f64)),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Continuous accuracy under document churn (the abstract's claim)

/// One measurement point of the continuous-update experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ContinuousPoint {
    /// Documents inserted so far.
    pub inserts: usize,
    /// Max relative error of the incrementally maintained ranks vs a
    /// full recompute of the current graph.
    pub max_rel_error: f64,
    /// Mean relative error.
    pub avg_rel_error: f64,
    /// Cumulative update messages spent on incremental waves.
    pub wave_messages: u64,
    /// Update messages a full distributed recompute would have cost at
    /// this point (for the cost comparison).
    pub recompute_messages: u64,
}

/// The "continuously accurate pageranks" experiment (abstract): after
/// initial convergence of `spec`'s graph (on one local engine — the
/// peer count plays no part), keep inserting documents with random
/// out-links, maintain ranks *only* with incremental waves, and
/// measure how far they drift from a from-scratch recompute — and how
/// many messages each approach costs. Both the initial solve and every
/// checkpoint's reference recompute run under `spec.sched`.
///
/// Traced through `rec`: the initial solve runs under the label
/// `"initial"`, each insert emits a `doc_inserted` event (the trace's
/// injection marker), and every checkpoint's from-scratch reference
/// runs under `"recompute@<i>"`. Because each labeled run converges
/// monotonically, the residual series after the last injection event
/// is non-increasing — the invariant [`dpr_telemetry::TraceSummary`]
/// checks.
pub fn continuous_update_experiment<R: Recorder + ?Sized>(
    spec: &ScenarioSpec,
    inserts: usize,
    checkpoints: usize,
    rec: &R,
) -> Vec<ContinuousPoint> {
    use dpr_core::incremental::insert_document;
    assert!(checkpoints >= 1 && inserts >= checkpoints);
    // Every engine here is `local`: one peer holds every document.
    let mut peers = dpr_p2p::peer::PeerTable::new(1);
    let base = dpr_graph::powerlaw::PowerLawConfig::paper(spec.nodes, spec.seed).generate();
    let mut engine = ChaoticEngine::local(std::sync::Arc::new(base.clone()), spec.engine_config());
    let initial_run = engine.run_observed(&mut peers, None, rec, "initial");
    assert!(initial_run.converged);

    let mut graph = dpr_graph::DynamicGraph::from_csr(&base);
    let mut ranks = engine.ranks().to_vec();
    let cfg = PropagationConfig {
        damping: dpr_core::DEFAULT_DAMPING,
        epsilon: spec.epsilon,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0xabc);
    let mut wave_messages = 0u64;
    let mut points = Vec::with_capacity(checkpoints);
    let stride = inserts / checkpoints;

    for i in 1..=inserts {
        let links: Vec<DocId> = (0..rng.gen_range(1..6))
            .map(|_| DocId(rng.gen_range(0..graph.id_bound() as u32)))
            .filter(|d| graph.is_alive(*d))
            .collect();
        let links = if links.is_empty() {
            vec![DocId(0)]
        } else {
            links
        };
        let (doc, wave) = insert_document(&mut graph, &links, &mut ranks, cfg);
        wave_messages += wave.messages;
        if rec.enabled() {
            rec.event(&Event::DocInserted {
                seq: i as u64,
                doc: u64::from(doc.0),
            });
        }

        if i % stride == 0 || i == inserts {
            // Reference: full recompute of the *current* graph.
            let snapshot = graph.to_csr();
            let mut fresh =
                ChaoticEngine::local(std::sync::Arc::new(snapshot), spec.engine_config());
            let recompute_run =
                fresh.run_observed(&mut peers, None, rec, &format!("recompute@{i}"));
            assert!(recompute_run.converged);
            let errs = error_stats::compare(&ranks, fresh.ranks());
            points.push(ContinuousPoint {
                inserts: i,
                max_rel_error: errs.max,
                avg_rel_error: errs.avg,
                wave_messages,
                recompute_messages: recompute_run.total_local_updates
                    + recompute_run.total_remote_messages,
            });
            if points.len() == checkpoints {
                break;
            }
        }
    }
    points
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Layer, Observe};
    use dpr_core::SchedMode;
    use dpr_telemetry::NOOP;

    /// `spec` run on the engine over the sweep's workload, scored.
    fn scored(sweep: &QualitySweep, spec: &ScenarioSpec) -> QualityResult {
        let out = spec.run(sweep.workload(), Layer::Engine, Observe::new(&NOOP));
        sweep.score(spec, &out)
    }

    #[test]
    fn convergence_scales_with_presence() {
        let spec = ScenarioSpec::new(2_000, 100, 1e-3, 1);
        let w = spec.workload();
        let full = run_convergence(&w, &spec, 1.0, &NOOP, "convergence");
        let half = run_convergence(&w, &spec, 0.5, &NOOP, "convergence");
        assert!(full.converged && half.converged);
        assert!(
            half.passes > full.passes,
            "{} vs {}",
            half.passes,
            full.passes
        );
        // The paper sees about a 2x slowdown at 50% presence; allow a
        // broad band around that.
        let ratio = half.passes as f64 / full.passes as f64;
        assert!((1.2..6.0).contains(&ratio), "slowdown ratio {ratio}");
    }

    #[test]
    fn priority_sched_cuts_messages_at_equal_quality() {
        let spec = ScenarioSpec::new(2_000, 100, 1e-3, 5);
        let sweep = QualitySweep::new(&spec);
        let pass = scored(&sweep, &spec);
        let priority = ScenarioSpec {
            sched: SchedMode::Priority,
            ..spec
        };
        let pri = scored(&sweep, &priority);
        // Residual-driven selection spends meaningfully fewer remote
        // messages to clear the same ε …
        assert!(
            (pri.total_remote_messages as f64) < 0.8 * pass.total_remote_messages as f64,
            "priority {} vs pass {}",
            pri.total_remote_messages,
            pass.total_remote_messages
        );
        // … at the same quality band vs the synchronous reference.
        assert!(
            pri.distribution.max < 0.05,
            "max err {}",
            pri.distribution.max
        );
    }

    #[test]
    fn quality_improves_with_smaller_epsilon() {
        let spec = ScenarioSpec::new(2_000, 100, 0.2, 2);
        let sweep = QualitySweep::new(&spec);
        let loose = scored(&sweep, &spec);
        let tight = scored(
            &sweep,
            &ScenarioSpec {
                epsilon: 1e-4,
                ..spec
            },
        );
        assert!(tight.distribution.avg < loose.distribution.avg);
        assert!(
            tight.distribution.max < 0.05,
            "max err {}",
            tight.distribution.max
        );
        assert!(tight.total_remote_messages > loose.total_remote_messages);
    }

    #[test]
    fn insert_results_grow_with_accuracy() {
        let g = dpr_graph::powerlaw::paper_graph(5_000, 3);
        let loose = insert_experiment(&g, 0.2, 0.85, 50, 9);
        let tight = insert_experiment(&g, 1e-3, 0.85, 50, 9);
        assert!(tight.avg_path_length >= loose.avg_path_length);
        assert!(tight.avg_node_coverage >= loose.avg_node_coverage);
        // Paper: path lengths are small (2-5) at 0.2 and grow slowly.
        assert!(loose.avg_path_length < 10.0, "{}", loose.avg_path_length);
    }

    #[test]
    fn continuous_updates_stay_accurate_and_cheap() {
        let spec = ScenarioSpec::new(2_000, 1, 1e-4, 7);
        let points = continuous_update_experiment(&spec, 40, 4, &NOOP);
        assert_eq!(points.len(), 4);
        for p in &points {
            // Incremental maintenance keeps ranks within a few epsilon
            // of the from-scratch answer …
            assert!(p.avg_rel_error < 0.02, "avg err {}", p.avg_rel_error);
            // … and maintaining *all* inserts so far costs less than
            // even one full recompute would (the paper's operational
            // argument: no periodic recomputation needed at all).
            assert!(
                p.wave_messages < p.recompute_messages,
                "waves {} vs recompute {}",
                p.wave_messages,
                p.recompute_messages
            );
        }
        // Error accumulates slowly, not explosively.
        assert!(points.last().unwrap().avg_rel_error < 0.05);
    }

    #[test]
    fn search_experiment_shows_traffic_reduction() {
        let rows = search_experiment(&SearchExperimentConfig {
            num_docs: 2_000,
            vocab_size: 400,
            queries_per_len: 5,
            ..Default::default()
        });
        assert_eq!(rows.len(), 6);
        for row in &rows {
            match row.strategy.as_str() {
                "baseline" => assert_eq!(row.avg_traffic_reduction, 1.0),
                "top10" | "top20" => assert!(
                    row.avg_traffic_reduction > 2.0,
                    "{} reduction {}",
                    row.strategy,
                    row.avg_traffic_reduction
                ),
                other => panic!("unknown strategy {other}"),
            }
        }
        // top10 must reduce at least as much as top20.
        let t10: Vec<_> = rows.iter().filter(|r| r.strategy == "top10").collect();
        let t20: Vec<_> = rows.iter().filter(|r| r.strategy == "top20").collect();
        for (a, b) in t10.iter().zip(&t20) {
            assert!(a.avg_traffic_reduction >= b.avg_traffic_reduction);
        }
    }
}
