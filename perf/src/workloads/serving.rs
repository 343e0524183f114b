//! `serving_mix`: queries, rank updates and churn on one wire, under
//! the three query strategies. Index build and query execution in
//! `dpr-search` dominate; the rank runtime is a minority share.

use crate::bench::Bench;
use crate::common::{build_workload, time_per_call, Ledger, Scale};
use crate::trace::Tracer;
use dpr_core::engine::EngineConfig;
use dpr_core::SchedMode;
use dpr_graph::DocId;
use dpr_node::cluster::Cluster;
use dpr_node::node::WireMode;
use dpr_node::termination::TerminationDetector;
use dpr_search::bloom::bloom_intersect;
use dpr_search::corpus::{generate_queries, Corpus, CorpusConfig};
use dpr_search::index::DistributedIndex;
use dpr_search::query::{
    execute_baseline, execute_incremental, IncrementalConfig, Query, TrafficModel,
};
use dpr_sim::event::{run_chaotic, ChaoticConfig, LatencyModel};
use dpr_sim::serving::{serving_experiment, ServeStrategy, ServingConfig, ServingReport};
use dpr_sim::workload::Workload;
use dpr_telemetry::{QuantileSketch, NOOP};
use serde_json::Value;
use std::hint::black_box;
use std::time::Duration;

const STRATEGIES: [(ServeStrategy, &str); 3] = [
    (ServeStrategy::Baseline, "sim.serving.baseline"),
    (
        ServeStrategy::Incremental {
            forward_fraction: 0.10,
        },
        "sim.serving.incremental",
    ),
    (ServeStrategy::Bloom, "sim.serving.bloom"),
];

pub struct ServingBench {
    base: ServingConfig,
}

impl ServingBench {
    pub fn new(scale: Scale) -> Self {
        // Sec. 4.9's set-up: 11k documents, 1880 terms, 50 peers.
        let base = match scale {
            Scale::Full => ServingConfig {
                num_docs: 11_000,
                vocab_size: 1880,
                num_peers: 50,
                queries: 1_000,
                query_len: 2,
                qps: 100.0,
                updates: 50,
                churn_fraction: 0.8,
                epsilon: 1e-3,
                ..ServingConfig::default()
            },
            Scale::Tiny => ServingConfig {
                num_docs: 1_500,
                vocab_size: 300,
                num_peers: 16,
                queries: 200,
                query_len: 2,
                qps: 100.0,
                updates: 10,
                churn_fraction: 0.8,
                epsilon: 1e-3,
                ..ServingConfig::default()
            },
        };
        ServingBench { base }
    }

    fn config(&self, seed: u64, strategy: ServeStrategy) -> ServingConfig {
        ServingConfig {
            seed,
            strategy,
            ..self.base.clone()
        }
    }
}

/// What `serving_experiment` builds for itself before it serves:
/// workload, cluster, corpus, queries. Built here through the same
/// public constructors, so `setup_s` sees that construction even
/// though the timed call repeats it.
pub struct ServingInput {
    w: Workload,
    cluster: Cluster,
    corpus: Corpus,
    queries: Vec<Query>,
}

impl Bench for ServingBench {
    type Input = ServingInput;
    type Output = Vec<ServingReport>;

    fn params(&self) -> Value {
        let c = &self.base;
        Value::Object(vec![
            ("docs".into(), Value::U64(c.num_docs as u64)),
            ("vocab".into(), Value::U64(c.vocab_size.into())),
            ("peers".into(), Value::U64(c.num_peers as u64)),
            ("queries_per_strategy".into(), Value::U64(c.queries as u64)),
            ("query_len".into(), Value::U64(c.query_len as u64)),
            ("qps".into(), Value::F64(c.qps)),
            ("updates".into(), Value::U64(c.updates as u64)),
            ("churn_fraction".into(), Value::F64(c.churn_fraction)),
            ("epsilon".into(), Value::F64(c.epsilon)),
            (
                "strategies".into(),
                Value::Str("baseline, incremental 10%, bloom".into()),
            ),
        ])
    }

    fn setup(&mut self, seed: u64, tr: &mut Tracer, ledger: &mut Ledger) -> ServingInput {
        let c = &self.base;
        let w = build_workload(c.num_docs, c.num_peers, seed, tr, ledger);
        let (cluster, ns) = tr.timed("node.cluster.build", || {
            Cluster::build_with(
                &w.graph,
                &w.placement,
                c.num_peers,
                EngineConfig::with_epsilon(c.epsilon).with_sched(SchedMode::Pass),
                WireMode::frames(),
            )
        });
        let (corpus, corpus_ns) = tr.timed("search.corpus.generate", || {
            Corpus::generate(&CorpusConfig {
                num_docs: c.num_docs,
                vocab_size: c.vocab_size,
                seed,
                ..Default::default()
            })
        });
        if tr.enabled() {
            ledger.put("node.cluster.build_s", ns * 1e-9);
            ledger.put("search.corpus.gen_s", corpus_ns * 1e-9);
        }
        // The query seed mix is `serving_experiment`'s.
        let queries = generate_queries(&corpus, c.query_len, c.queries, seed ^ 77)
            .into_iter()
            .map(Query::new)
            .collect();
        ServingInput {
            w,
            cluster,
            corpus,
            queries,
        }
    }

    fn run(&mut self, seed: u64, _: &mut ServingInput, tr: &mut Tracer) -> Vec<ServingReport> {
        STRATEGIES
            .iter()
            .map(|&(strategy, span)| {
                let cfg = self.config(seed, strategy);
                tr.span(span, || serving_experiment(&cfg, &NOOP).report)
            })
            .collect()
    }

    fn verify(
        &mut self,
        seed: u64,
        _input: &mut ServingInput,
        reports: &Vec<ServingReport>,
        _wall_s: f64,
        _tr: &mut Tracer,
        ledger: &mut Ledger,
    ) {
        let [baseline, incremental, bloom] = reports.as_slice() else {
            ledger.check(false, || "expected three serving reports".into());
            return;
        };
        for r in reports {
            ledger.check(r.quiesced, || format!("{} run did not quiesce", r.strategy));
            ledger.check(r.avg_hits > 0.0, || {
                format!("{} returned no hits", r.strategy)
            });
            // Every query of the plan was served.
            ledger.check(r.queries == self.base.queries as u64, || {
                format!("{} served {} queries", r.strategy, r.queries)
            });
            ledger.attempted += r.queries;
        }
        ledger.check(
            baseline.schedule_fnv == incremental.schedule_fnv
                && baseline.schedule_fnv == bloom.schedule_fnv,
            || "the query strategy perturbed the rank schedule".into(),
        );
        ledger.check(
            incremental.total_traffic_ids < baseline.total_traffic_ids,
            || {
                format!(
                    "incremental shipped {} ids, baseline {}",
                    incremental.total_traffic_ids, baseline.total_traffic_ids
                )
            },
        );
        ledger.model(seed, "virtual_s", incremental.virtual_ns as f64 * 1e-9);
        ledger.model(
            seed,
            "query_p99_virtual_ms",
            incremental.p99_ns as f64 * 1e-6,
        );
        ledger.model(
            seed,
            "query_ids_per_query",
            incremental.total_traffic_ids as f64 / incremental.queries.max(1) as f64,
        );
    }

    fn layers(&mut self, seed: u64, budget: Duration, tr: &mut Tracer, ledger: &mut Ledger) {
        let each = budget / 5;
        let c = self.base.clone();
        let mut input = self.setup(seed, &mut Tracer::new(false), &mut Ledger::default());

        // The rank runtime's share: the initial convergence alone
        // against one whole serving experiment.
        let ccfg = ChaoticConfig {
            seed,
            latency: LatencyModel::Broadband,
            sched: SchedMode::Pass,
            epsilon: c.epsilon,
        };
        let peers = input.w.peer_table();
        let mut det = TerminationDetector::new(c.num_peers);
        let (initial, converge_ns) = tr.timed("sim.event.run", || {
            run_chaotic(
                &mut input.cluster,
                &peers,
                &ccfg,
                &mut det,
                1_000_000_000,
                &NOOP,
            )
        });
        ledger.check(initial.quiesced, || {
            "initial convergence did not quiesce".into()
        });
        let cfg = self.config(seed, STRATEGIES[1].0);
        let (_, serve_ns) = tr.timed(STRATEGIES[1].1, || serving_experiment(&cfg, &NOOP));
        ledger.put("sim.serving.converge_share", converge_ns / serve_ns);

        let ranks = input.cluster.collect_ranks(c.num_docs);
        let (index, ns) = tr.timed("search.index.build", || {
            DistributedIndex::build(&input.corpus, &ranks, &input.w.ring)
        });
        ledger.put("search.index.build_s", ns * 1e-9);

        // One pass over the query plan per call.
        let per_query = input.queries.len().max(1) as f64;
        let ns = time_per_call(each, || {
            for q in &input.queries {
                black_box(execute_baseline(&index, q, TrafficModel::AllHopsRemote));
            }
        });
        ledger.put("search.query.baseline_us", ns * 1e-3 / per_query);
        let ns = time_per_call(each, || {
            for q in &input.queries {
                black_box(execute_incremental(&index, q, IncrementalConfig::top10()));
            }
        });
        ledger.put("search.query.incremental_us", ns * 1e-3 / per_query);
        let sorted_ids = |t| {
            let mut ids: Vec<DocId> = index.postings(t).iter().map(|p| p.doc).collect();
            ids.sort_unstable();
            ids
        };
        let ns = time_per_call(each, || {
            for q in &input.queries {
                let (a, b) = (sorted_ids(q.terms[0]), sorted_ids(q.terms[1]));
                black_box(bloom_intersect(&a, &b, 0.01));
            }
        });
        ledger.put("search.bloom.intersect_us", ns * 1e-3 / per_query);

        let mut sketch = QuantileSketch::new();
        let mut v = 1u64;
        let ns = time_per_call(each, || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            sketch.observe(v >> 34);
        });
        ledger.put("telemetry.quantile.observe_ns", ns);
    }
}
