//! Serving-path observability: production query traffic against the
//! live rank computation.
//!
//! The paper evaluates search traffic on a *converged* index
//! (Table 6) and rank convergence under churn (Table 1) separately.
//! A deployed system does both at once: queries arrive while ranks
//! are still moving and peers flap. This module interleaves the three
//! as first-class events of the chaotic runtime
//! ([`crate::event::run_chaotic_serving`]):
//!
//! * **query arrivals** follow a Poisson process at a configured QPS,
//!   executed against the distributed index under the paper's
//!   baseline full-transfer strategy, the incremental top-x %
//!   strategy (Sec. 2.4.3), or the cited Bloom-assisted intersection
//!   (Reynolds–Vahdat) — each with exact traffic accounting;
//! * **continuous rank updates** inject deltas mid-serving, so the
//!   rank a query reads can be *stale* relative to the run's final
//!   fixed point — the staleness gauge measures exactly that gap;
//! * **transient churn** re-draws peer presence on a cadence, with
//!   store-and-resend covering offline peers.
//!
//! Each query's end-to-end latency is modeled on the virtual clock
//! from five causal stages — `query_issued → term_lookup →
//! posting_ship → intersect → result_page` — using the run's own
//! [`LatencyModel`] rates, then fed into a mergeable
//! [`QuantileSketch`] and per-window SLO accounting
//! ([`dpr_telemetry::slo`]). Serving is pure observation: the rank
//! computation's schedule fingerprint and final ranks are
//! bit-identical with serving telemetry on or off.

use crate::churn::Schedule;
use crate::event::{
    fold_schedule_fnv, run_chaotic, run_chaotic_serving, ChurnPlan, Inject, InjectionPlan,
    LatencyModel, ServingHooks, MIN_STEP_COMPUTE_NS, SCHEDULE_FNV_SEED,
};
use crate::spec::ScenarioSpec;
use dpr_core::{RunMode, SchedMode};
use dpr_graph::DocId;
use dpr_node::termination::TerminationDetector;
use dpr_node::Cluster;
use dpr_search::corpus::{generate_queries, Corpus, CorpusConfig};
use dpr_search::index::DistributedIndex;
use dpr_search::query::{
    execute_baseline, execute_incremental, BloomExecutor, IncrementalConfig, Query, TrafficModel,
};
use dpr_telemetry::slo::{evaluate, verdict, SlidingWindows, SloReport, SloSpec};
use dpr_telemetry::{Event, Metric, QuantileSketch, Recorder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Bytes per document id + pagerank shipped between peers (u32 id,
/// f64 rank): a posting on the modelled wire, however the index
/// stores it.
const POSTING_BYTES: u64 = 12;

/// Modeled intersection cost per candidate id at the intersecting
/// peer, in nanoseconds.
const INTERSECT_NS_PER_ID: u64 = 100;

/// Bloom filter false-positive target for the Bloom strategy.
const BLOOM_FP_RATE: f64 = 0.01;

/// How a query executes against the distributed index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeStrategy {
    /// Ship every matching id at each hop (the paper's comparison
    /// system).
    Baseline,
    /// Forward only the top fraction by pagerank at each hop
    /// (Sec. 2.4.3; the paper uses 0.10 and 0.20).
    Incremental {
        /// Fraction of hits forwarded per hop.
        forward_fraction: f64,
    },
    /// Reynolds–Vahdat Bloom-assisted exact intersection.
    Bloom,
}

impl std::fmt::Display for ServeStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeStrategy::Baseline => f.write_str("baseline"),
            ServeStrategy::Incremental { .. } => f.write_str("incremental"),
            ServeStrategy::Bloom => f.write_str("bloom"),
        }
    }
}

impl std::str::FromStr for ServeStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "baseline" => Ok(ServeStrategy::Baseline),
            "incremental" => Ok(ServeStrategy::Incremental {
                forward_fraction: 0.10,
            }),
            "bloom" => Ok(ServeStrategy::Bloom),
            other => Err(format!(
                "unknown strategy {other:?} (expected \"baseline\", \"incremental\" or \"bloom\")"
            )),
        }
    }
}

/// Parameters of one serving run.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Documents (graph nodes and corpus size).
    pub num_docs: usize,
    /// Vocabulary size of the synthetic corpus.
    pub vocab_size: u32,
    /// Peers holding documents and index entries.
    pub num_peers: usize,
    /// Queries served.
    pub queries: usize,
    /// Terms per query (paper: 2 and 3).
    pub query_len: usize,
    /// Mean query arrival rate (Poisson), in queries per second of
    /// virtual time.
    pub qps: f64,
    /// Continuous rank updates injected while serving.
    pub updates: usize,
    /// Fraction of peers online under churn; 1.0 disables churn.
    pub churn_fraction: f64,
    /// The query execution strategy.
    pub strategy: ServeStrategy,
    /// The network model shared with the rank computation.
    pub latency: LatencyModel,
    /// Rank-computation scheduling mode.
    pub sched: SchedMode,
    /// Rank-computation ε.
    pub epsilon: f64,
    /// Master seed.
    pub seed: u64,
    /// Latency SLOs evaluated over sliding windows.
    pub slos: Vec<SloSpec>,
    /// SLO window width, in nanoseconds of virtual time.
    pub window_ns: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            num_docs: 2_000,
            vocab_size: 400,
            num_peers: 32,
            queries: 100,
            query_len: 2,
            qps: 20.0,
            updates: 20,
            churn_fraction: 1.0,
            strategy: ServeStrategy::Incremental {
                forward_fraction: 0.10,
            },
            latency: LatencyModel::Broadband,
            sched: SchedMode::Pass,
            epsilon: 1e-5,
            seed: 2003,
            slos: vec![SloSpec::new("p99-latency", 0.99, 2_000_000_000, 0.10)],
            window_ns: 1_000_000_000,
        }
    }
}

impl ServingConfig {
    /// The scenario of the rank computation being served: the chaotic
    /// runtime over framed raw wire.
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            sched: self.sched,
            run_mode: RunMode::Chaotic,
            latency: self.latency,
            ..ScenarioSpec::new(self.num_docs, self.num_peers, self.epsilon, self.seed)
        }
    }
}

/// Aggregate result of one serving run (the BENCH_serving row shape).
#[derive(Debug, Clone, Serialize)]
pub struct ServingReport {
    /// Strategy name.
    pub strategy: String,
    /// Latency model name.
    pub latency: String,
    /// Queries served.
    pub queries: u64,
    /// Rank updates injected while serving.
    pub updates: u64,
    /// Online fraction under churn (1.0 = no churn).
    pub churn_fraction: f64,
    /// Median end-to-end query latency, ns.
    pub p50_ns: u64,
    /// 95th-percentile latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// 99.9th-percentile latency, ns.
    pub p999_ns: u64,
    /// Mean latency, ns.
    pub mean_ns: f64,
    /// Mean overlay hops per query.
    pub avg_hops: f64,
    /// Mean bytes shipped per query.
    pub avg_bytes: f64,
    /// Total id-equivalents moved between peers (the paper's traffic
    /// metric; Bloom counts filter bytes at posting-byte granularity).
    pub total_traffic_ids: u64,
    /// Mean hits returned to the user.
    pub avg_hits: f64,
    /// 99th-percentile rank staleness at query time vs the run's
    /// final fixed point, parts-per-million.
    pub stale_p99_ppm: u64,
    /// Per-SLO sliding-window verdicts.
    pub slos: Vec<SloReport>,
    /// Overall SLO verdict (every spec within budget).
    pub slo_pass: bool,
    /// Schedule fingerprint (initial convergence ⊕ served segment) —
    /// pins determinism and zero-perturbation.
    pub schedule_fnv: u64,
    /// Whether the rank computation quiesced under serving load.
    pub quiesced: bool,
    /// Virtual time of the full run, ns.
    pub virtual_ns: u64,
}

/// A serving run's report plus its mergeable sketches (for Prometheus
/// summary exposition and cross-run aggregation).
#[derive(Debug, Clone)]
pub struct ServingRun {
    /// The aggregate report.
    pub report: ServingReport,
    /// End-to-end latency sketch.
    pub latency_sketch: QuantileSketch,
    /// Rank-staleness sketch (ppm).
    pub staleness_sketch: QuantileSketch,
}

/// What one query did, recorded at serve time and aggregated after
/// the run (staleness needs the final ranks).
struct QueryRecord {
    arrival_ns: u64,
    latency_ns: u64,
    hops: u64,
    bytes: u64,
    traffic_ids: u64,
    hits: u64,
    /// Best-ranked hit and its rank as read at query time.
    top: Option<(DocId, f64)>,
}

/// One query executed against the index, normalized across
/// strategies.
struct Served {
    /// Bytes shipped at each inter-peer hop (last = result to user).
    per_hop_bytes: Vec<u64>,
    /// Ids processed by the intersecting peers (drives compute time).
    ids_processed: u64,
    /// The paper's traffic metric in id-equivalents.
    traffic_ids: u64,
    hits: u64,
    top_doc: Option<DocId>,
}

fn serve_query(
    index: &DistributedIndex,
    bloom: &mut BloomExecutor,
    query: &Query,
    strategy: ServeStrategy,
) -> Served {
    let out = match strategy {
        ServeStrategy::Baseline => execute_baseline(index, query, TrafficModel::AllHopsRemote),
        ServeStrategy::Incremental { forward_fraction } => execute_incremental(
            index,
            query,
            IncrementalConfig {
                forward_fraction,
                ..IncrementalConfig::top10()
            },
        ),
        ServeStrategy::Bloom => {
            let out = bloom.execute(query);
            let hits = out.hits_returned() as u64;
            let mut served = Served {
                per_hop_bytes: Vec::new(),
                ids_processed: 0,
                traffic_ids: hits,
                hits,
                top_doc: out.hits.first().map(|p| p.doc),
            };
            for (hop, &t) in out.per_hop.iter().zip(&query.terms[1..]) {
                // Round 1: the filter travels; round 2: candidates come
                // back and are filtered exactly at the sender.
                let bytes = [hop.filter_bytes, hop.candidate_ids * POSTING_BYTES];
                served.per_hop_bytes.extend(bytes);
                served.ids_processed += index.num_hits(t) as u64 + hop.candidate_ids;
                served.traffic_ids += hop.filter_bytes.div_ceil(POSTING_BYTES) + hop.candidate_ids;
            }
            served.per_hop_bytes.push(hits * POSTING_BYTES);
            return served;
        }
    };
    Served {
        per_hop_bytes: out.per_hop_ids.iter().map(|&n| n * POSTING_BYTES).collect(),
        ids_processed: out.per_hop_ids.iter().sum(),
        traffic_ids: out.traffic_ids,
        hits: out.hits_returned() as u64,
        top_doc: out.hits.first().map(|p| p.doc),
    }
}

/// ceil(log2(n)): the DHT routing hop bound for `n` peers.
fn route_hops(n: usize) -> u64 {
    u64::from(usize::BITS - n.saturating_sub(1).leading_zeros())
}

/// The five causal stages of a served query, in order.
const STAGES: [&str; 5] = [
    "query_issued",
    "term_lookup",
    "posting_ship",
    "intersect",
    "result_page",
];

/// Runs the serving experiment: converge the cluster, build the
/// index from the converged ranks, then serve the query plan under
/// concurrent rank updates and transient churn, measuring per-query
/// latency, hops, bytes, and rank staleness.
///
/// With a live recorder, every query emits its five causal
/// [`Event::QuerySpan`]s (`cause` = ordinal of the causing stage,
/// 0 = arrival) plus the summary [`Event::ServingHealth`], and the
/// query metrics land in the metric registry. Telemetry never feeds
/// back: the report is bit-identical with the no-op recorder.
pub fn serving_experiment<R: Recorder + ?Sized>(cfg: &ServingConfig, rec: &R) -> ServingRun {
    assert!(cfg.queries > 0, "need at least one query");
    assert!(cfg.qps > 0.0, "qps must be positive");
    assert!(
        cfg.churn_fraction > 0.0 && cfg.churn_fraction <= 1.0,
        "churn fraction in (0, 1]"
    );
    let spec = cfg.spec();
    let w = spec.workload();
    let mut cluster = spec.cluster(&w);
    let mut peers = w.peer_table();
    let ccfg = spec.chaotic_config();

    // Initial convergence (unserved): the index is built from this
    // fixed point, exactly the paper's "index update message" flow.
    let mut det = TerminationDetector::new(cfg.num_peers);
    let initial = run_chaotic(&mut cluster, &peers, &ccfg, &mut det, 1_000_000_000, rec);
    assert!(initial.quiesced, "initial convergence must quiesce");
    let r0 = cluster.collect_ranks(cfg.num_docs);
    let corpus = Corpus::generate(&CorpusConfig {
        num_docs: cfg.num_docs,
        vocab_size: cfg.vocab_size,
        seed: cfg.seed,
        ..Default::default()
    });
    let index = DistributedIndex::build(&corpus, &r0, &w.ring);
    let queries: Vec<Query> = generate_queries(&corpus, cfg.query_len, cfg.queries, cfg.seed ^ 77)
        .into_iter()
        .map(Query::new)
        .collect();
    // Nothing reads the corpus or the initial ranks while serving; the
    // index's term sets reuse their memory.
    drop((corpus, r0));

    // The injection plan: Poisson query arrivals plus uniformly
    // spread rank updates over the same horizon.
    let mut arrivals_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xa221);
    let mut plan = Vec::with_capacity(cfg.queries + cfg.updates);
    let mut t = 0u64;
    for q in 0..cfg.queries as u32 {
        let u: f64 = arrivals_rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += ((-u.ln()) / cfg.qps * 1e9) as u64 + 1;
        plan.push(InjectionPlan {
            at_ns: t,
            what: Inject::Query(q),
        });
    }
    let horizon = t;
    let mut update_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xf00d);
    for _ in 0..cfg.updates {
        plan.push(InjectionPlan {
            at_ns: update_rng.gen_range(1..=horizon.max(2)),
            what: Inject::Update {
                doc: DocId(update_rng.gen_range(0..cfg.num_docs as u32)),
                delta: update_rng.gen_range(0.05..0.5),
            },
        });
    }
    plan.sort_by_key(|p| p.at_ns);

    let churn = (cfg.churn_fraction < 1.0).then(|| ChurnPlan {
        schedule: Schedule::fraction(cfg.churn_fraction, cfg.seed ^ 0x5e55),
        every_ns: cfg.latency.coalesce_window_ns(),
        until_ns: horizon,
    });

    // Serve. The closure models the query path on the virtual clock;
    // it reads the cluster (rank staleness) but never schedules.
    let mut records: Vec<QueryRecord> = Vec::with_capacity(cfg.queries);
    let (lo, hi) = cfg.latency.base_latency_ns();
    let rate = cfg.latency.rate_bytes_per_sec();
    let lookup_hops = route_hops(cfg.num_peers);
    let mut det2 = TerminationDetector::new(cfg.num_peers);
    let mut bloom = BloomExecutor::new(&index, BLOOM_FP_RATE);
    let mut on_query = |q: u32, at: u64, cluster: &Cluster| {
        let query = &queries[q as usize];
        let served = serve_query(&index, &mut bloom, query, cfg.strategy);
        let mut rng =
            ChaCha8Rng::seed_from_u64(cfg.seed ^ (u64::from(q) + 1).wrapping_mul(0x9e37_79b9));
        let mut prop = || rng.gen_range(lo..=hi);
        let owner = index.owner_of_term(query.terms[0]);
        // Stage durations on the virtual clock.
        let lookup_ns: u64 = (0..lookup_hops).map(|_| prop()).sum();
        let ship_ns: u64 = served
            .per_hop_bytes
            .iter()
            .map(|&b| prop() + (b as f64 / rate * 1e9) as u64)
            .sum();
        let intersect_ns = (served.ids_processed * INTERSECT_NS_PER_ID).max(MIN_STEP_COMPUTE_NS);
        let page_ns = prop() + ((served.hits * POSTING_BYTES) as f64 / rate * 1e9) as u64;
        let hops = lookup_hops + served.per_hop_bytes.len() as u64;
        let bytes: u64 = served.per_hop_bytes.iter().sum();
        let latency_ns = lookup_ns + ship_ns + intersect_ns + page_ns;
        if rec.enabled() {
            let page_bytes = served.hits * POSTING_BYTES;
            let durs = [0, lookup_ns, ship_ns, intersect_ns, page_ns];
            let stage_bytes = [0, 0, bytes - page_bytes, 0, page_bytes];
            let stage_hops = [
                0,
                lookup_hops,
                (served.per_hop_bytes.len() as u64).saturating_sub(1),
                0,
                1,
            ];
            let mut start = at;
            for (i, stage) in STAGES.iter().enumerate() {
                rec.event(&Event::QuerySpan {
                    query: u64::from(q),
                    stage: (*stage).to_string(),
                    peer: owner.0,
                    start_ns: start,
                    end_ns: start + durs[i],
                    hops: stage_hops[i],
                    bytes: stage_bytes[i],
                    cause: i.saturating_sub(1) as u64,
                });
                start += durs[i];
            }
            rec.counter_add(Metric::QueriesServed, 1);
            rec.observe(Metric::QueryLatencyNs, latency_ns);
            rec.observe(Metric::QueryHops, hops);
            rec.observe(Metric::QueryBytes, bytes);
        }
        records.push(QueryRecord {
            arrival_ns: at,
            latency_ns,
            hops,
            bytes,
            traffic_ids: served.traffic_ids,
            hits: served.hits,
            // Documents do not move while serving: the placement
            // names the one peer holding the rank.
            top: served.top_doc.and_then(|d| {
                let rank = cluster.node(w.placement.owner(d)).rank_of(d);
                rank.map(|r| (d, r))
            }),
        });
    };
    let served_out = run_chaotic_serving(
        &mut cluster,
        &mut peers,
        &ccfg,
        &mut det2,
        1_000_000_000,
        rec,
        ServingHooks {
            plan: &plan,
            churn,
            on_query: &mut on_query,
        },
    );
    assert!(served_out.quiesced, "served run must quiesce");

    // Aggregate: staleness needs the final fixed point.
    let final_ranks = cluster.collect_ranks(cfg.num_docs);
    let mut latency_sketch = QuantileSketch::new();
    let mut staleness_sketch = QuantileSketch::new();
    let mut windows = SlidingWindows::new(cfg.window_ns);
    let (mut hops_sum, mut bytes_sum, mut traffic_sum, mut hits_sum) = (0u64, 0u64, 0u64, 0u64);
    for r in &records {
        latency_sketch.observe(r.latency_ns);
        windows.observe(r.arrival_ns, r.latency_ns);
        hops_sum += r.hops;
        bytes_sum += r.bytes;
        traffic_sum += r.traffic_ids;
        hits_sum += r.hits;
        let ppm = match r.top {
            Some((doc, then)) => {
                let now = final_ranks[doc.index()];
                ((then - now).abs() / now.abs().max(f64::MIN_POSITIVE) * 1e6) as u64
            }
            None => 0,
        };
        staleness_sketch.observe(ppm);
        if rec.enabled() {
            rec.observe(Metric::RankStalenessPpm, ppm);
        }
    }
    let reports = evaluate(&cfg.slos, &windows);
    let pass = verdict(&reports);
    let [p50, p95, p99, p999] = latency_sketch.latency_quantiles();
    let n = records.len() as f64;
    if rec.enabled() {
        rec.event(&Event::ServingHealth {
            queries: records.len() as u64,
            p50_ns: p50,
            p99_ns: p99,
            p999_ns: p999,
            hops: hops_sum,
            bytes_shipped: bytes_sum,
            stale_p99_ppm: staleness_sketch.quantile(0.99),
            slo_violations: reports.iter().filter(|r| !r.pass).count() as u64,
        });
    }
    let report = ServingReport {
        strategy: cfg.strategy.to_string(),
        latency: cfg.latency.to_string(),
        queries: records.len() as u64,
        updates: cfg.updates as u64,
        churn_fraction: cfg.churn_fraction,
        p50_ns: p50,
        p95_ns: p95,
        p99_ns: p99,
        p999_ns: p999,
        mean_ns: latency_sketch.mean(),
        avg_hops: hops_sum as f64 / n,
        avg_bytes: bytes_sum as f64 / n,
        total_traffic_ids: traffic_sum,
        avg_hits: hits_sum as f64 / n,
        stale_p99_ppm: staleness_sketch.quantile(0.99),
        slos: reports,
        slo_pass: pass,
        schedule_fnv: fold_schedule_fnv(
            fold_schedule_fnv(SCHEDULE_FNV_SEED, initial.schedule_fnv),
            served_out.schedule_fnv,
        ),
        quiesced: served_out.quiesced,
        virtual_ns: served_out.virtual_ns,
    };
    ServingRun {
        report,
        latency_sketch,
        staleness_sketch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_telemetry::{TraceRecorder, NOOP};

    fn small(strategy: ServeStrategy) -> ServingConfig {
        ServingConfig {
            num_docs: 800,
            vocab_size: 200,
            num_peers: 16,
            queries: 40,
            query_len: 2,
            qps: 50.0,
            updates: 10,
            churn_fraction: 0.75,
            strategy,
            latency: LatencyModel::Lan,
            epsilon: 1e-4,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    fn serving_reports_quantiles_hops_and_staleness() {
        let mut cfg = small(ServeStrategy::Baseline);
        cfg.slos = vec![
            SloSpec::new("loose", 0.99, u64::MAX, 0.0),
            SloSpec::new("absurd", 0.50, 1, 0.0),
        ];
        let run = serving_experiment(&cfg, &NOOP);
        let r = &run.report;
        assert_eq!(r.queries, 40);
        assert!(r.p50_ns <= r.p95_ns && r.p95_ns <= r.p99_ns && r.p99_ns <= r.p999_ns);
        assert!(r.p50_ns > 0 && r.avg_hops > 0.0 && r.avg_bytes > 0.0);
        assert!(r.quiesced, "ranks must reconverge under serving load");
        // Updates mid-serving leave some queries reading stale ranks.
        assert!(r.stale_p99_ppm > 0, "updates must surface as staleness");
        // Loose SLO passes, the absurd 1ns p50 target cannot.
        assert!(r.slos[0].pass && !r.slos[1].pass);
        assert!(!r.slo_pass, "one failing spec fails the verdict");
        assert_eq!(run.latency_sketch.count(), 40);
    }

    #[test]
    fn incremental_and_bloom_cut_traffic_vs_baseline() {
        let base = serving_experiment(&small(ServeStrategy::Baseline), &NOOP).report;
        let incr = serving_experiment(
            &small(ServeStrategy::Incremental {
                forward_fraction: 0.10,
            }),
            &NOOP,
        )
        .report;
        let bloom = serving_experiment(&small(ServeStrategy::Bloom), &NOOP).report;
        assert!(
            incr.total_traffic_ids < base.total_traffic_ids,
            "incremental {} !< baseline {}",
            incr.total_traffic_ids,
            base.total_traffic_ids
        );
        assert!(
            bloom.total_traffic_ids < base.total_traffic_ids,
            "bloom {} !< baseline {}",
            bloom.total_traffic_ids,
            base.total_traffic_ids
        );
        // Same rank schedule regardless of the serving strategy.
        assert_eq!(base.schedule_fnv, incr.schedule_fnv);
        assert_eq!(base.schedule_fnv, bloom.schedule_fnv);
    }

    #[test]
    fn telemetry_is_pure_observation() {
        let cfg = small(ServeStrategy::Incremental {
            forward_fraction: 0.10,
        });
        let off = serving_experiment(&cfg, &NOOP).report;
        let rec = TraceRecorder::new();
        let on = serving_experiment(&cfg, &rec).report;
        assert_eq!(off.schedule_fnv, on.schedule_fnv, "zero perturbation");
        assert_eq!(off.p50_ns, on.p50_ns);
        assert_eq!(off.p999_ns, on.p999_ns);
        assert_eq!(off.total_traffic_ids, on.total_traffic_ids);
        assert_eq!(off.stale_p99_ppm, on.stale_p99_ppm);
        // Five causal spans per query, chained by stage ordinal.
        let spans: Vec<_> = rec
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::QuerySpan {
                    query,
                    stage,
                    start_ns,
                    end_ns,
                    cause,
                    ..
                } => Some((query, stage, start_ns, end_ns, cause)),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 5 * 40);
        for chunk in spans.chunks(5) {
            assert!(chunk.iter().all(|s| s.0 == chunk[0].0), "one query each");
            for (i, s) in chunk.iter().enumerate() {
                assert_eq!(s.1, STAGES[i]);
                assert_eq!(s.4, i.saturating_sub(1) as u64, "cause chain");
                assert!(s.2 <= s.3, "span must not end before it starts");
                if i > 0 {
                    assert_eq!(s.2, chunk[i - 1].3, "stages abut");
                }
            }
        }
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e, Event::ServingHealth { .. })));
    }

    #[test]
    fn strategy_parses_and_displays() {
        for s in ["baseline", "incremental", "bloom"] {
            assert_eq!(s.parse::<ServeStrategy>().unwrap().to_string(), s);
        }
        assert!("fasd".parse::<ServeStrategy>().is_err());
    }
}
