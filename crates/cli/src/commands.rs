//! The `dpr` subcommand implementations.

use dpr_core::engine::{ChaoticEngine, EngineConfig};
use dpr_core::incremental::{propagate, PropagationConfig};
use dpr_core::sync_solver::SyncSolver;
use dpr_graph::{io, partition, powerlaw::PowerLawConfig, stats, CsrGraph, DocId, DynamicGraph};
use dpr_p2p::peer::{Placement, PlacementPolicy};
use dpr_p2p::ring::Ring;
use dpr_p2p::transport::FaultPlan;
use dpr_search::corpus::{Corpus, CorpusConfig};
use dpr_search::index::DistributedIndex;
use dpr_search::query::{
    execute_baseline, execute_incremental, IncrementalConfig, Query, TrafficModel,
};
use dpr_sim::flags::{Args, Reporter};
use dpr_sim::spec::{ScenarioSpec, SCENARIO_FLAGS_HELP};
use dpr_sim::Workload;
use dpr_telemetry::{AuditReport, Capture, Event, TraceSummary};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fs::File;
use std::sync::Arc;

/// The scenario `dpr doctor` and `dpr profile` run when no flag says
/// otherwise.
fn diagnostic_scenario() -> ScenarioSpec {
    ScenarioSpec::new(1_200, 24, 1e-4, 2003)
}

/// The command's scenario: its defaults overridden by the scenario
/// flags present, validated.
fn scenario(args: &Args, defaults: &ScenarioSpec) -> Result<ScenarioSpec, String> {
    Ok(ScenarioSpec::from_flags(|k| args.optional(k), defaults)?)
}

/// Top-level usage text. Built, not const, so the scenario flags'
/// value lists come from the one [`SCENARIO_FLAGS_HELP`] block — the
/// CLI, the bench binaries, and the parser errors all stay in
/// lockstep.
pub fn usage() -> String {
    format!(
        "\
dpr — distributed pagerank for P2P systems (HPDC'03 reproduction)

commands:
  generate   --nodes N --out FILE [--seed S] [--edges-out FILE]
  stats      --graph FILE
  rank       --graph FILE [--eps 1e-3] [--peers 500] [--seed 2003]
             [--sched M] [--out ranks.json] [--top K] [--sync]
  partition  --graph FILE --peers K [--sweeps 6]
  insert     --graph FILE --links a,b,c [--eps 1e-3] [--damping 0.85]
  delete     --graph FILE --doc ID [--eps 1e-3] [--damping 0.85]
  search     [--docs 11000] [--vocab 1880] [--peers 50] [--query t1,t2]
             [--top-percent 10] [--seed S]
  serve      [--docs 2000] [--peers 32] [--eps 1e-4] [--seed 2003]
             [--sched M] [--latency M] [--vocab 400] [--queries 100]
             [--query-len 2] [--qps 20] [--updates 20] [--churn F]
             [--strategy baseline|incremental|bloom]
             [--slo-p99-ms 2000] [--slo-budget 0.10] [--window-ms 1000]
             (exits nonzero when an SLO blows its error budget)
  trace      --input trace.jsonl [--validate] [--run LABEL] [--top K]
             [--diff other.jsonl]
  doctor     [--docs 1200] [--peers 24] [--eps 1e-4] [--seed 2003]
             [--sched M] [--codec M] [--run-mode M] [--latency M]
             [--inject-fault mass-leak|dup-frame|lost-frame]
             [--fault-at N] [--input trace.jsonl]
             [--capture-out cap.jsonl] [--inserts N] [--checkpoints K]
             [--replay cap.jsonl]
  profile    [--docs 1200] [--peers 24] [--eps 1e-4] [--seed 2003]
             [--sched M] [--codec M] [--latency M]
             [--inject-fault mass-leak|dup-frame|lost-frame]
             [--fault-at N] [--replay cap.jsonl]
             [--input trace.jsonl] [--top 8] [--segment N]
             [--perfetto-out FILE]
  help       this text

{SCENARIO_FLAGS_HELP}

every command but trace and help also accepts: --quiet (suppress
  stdout), --trace-out FILE (JSONL event trace), --prom-out FILE
  (Prometheus text snapshot of the run's metrics)"
    )
}

fn load_graph(args: &Args) -> Result<CsrGraph, String> {
    let path = args.required("graph")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    io::read_binary(file).map_err(|e| format!("read {path}: {e}"))
}

/// `dpr generate` — write a power-law graph to disk.
pub fn generate(args: &Args) -> Result<(), String> {
    let rep = Reporter::from_args(args)?;
    let nodes: usize = args.get_required("nodes")?;
    if nodes == 0 {
        return Err("--nodes must be positive".into());
    }
    let out = args.required("out")?;
    let seed: u64 = args.get("seed", 2003)?;
    let graph = PowerLawConfig::paper(nodes, seed).generate();
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    io::write_binary(&graph, file).map_err(|e| format!("write {out}: {e}"))?;
    rep.say(format!(
        "wrote {out}: {} documents, {} links ({} bytes in memory)",
        graph.num_nodes(),
        graph.num_edges(),
        graph.heap_bytes()
    ));
    if let Some(edges_out) = args.optional("edges-out") {
        let f = File::create(edges_out).map_err(|e| format!("create {edges_out}: {e}"))?;
        io::write_edge_list(&graph, f).map_err(|e| format!("write {edges_out}: {e}"))?;
        rep.say(format!("wrote {edges_out} (text edge list)"));
    }
    rep.finish()
}

/// `dpr stats` — summarize a graph file.
pub fn stats(args: &Args) -> Result<(), String> {
    let rep = Reporter::from_args(args)?;
    let graph = load_graph(args)?;
    let s = stats::summarize(&graph);
    rep.say(format!("documents:        {}", s.nodes));
    rep.say(format!("links:            {}", s.edges));
    rep.say(format!("mean out-degree:  {:.2}", s.mean_out_degree));
    rep.say(format!("max out-degree:   {}", s.max_out_degree));
    rep.say(format!("max in-degree:    {}", s.max_in_degree));
    rep.say(format!("dangling docs:    {}", s.dangling));
    if let Some(a) = s.out_exponent_fit {
        rep.say(format!(
            "out-degree power-law fit: {a:.2} (paper model: 2.4)"
        ));
    }
    if let Some(a) = s.in_exponent_fit {
        rep.say(format!(
            "in-degree power-law fit:  {a:.2} (paper model: 2.1)"
        ));
    }
    rep.say(format!(
        "weakly connected components: {}",
        stats::weakly_connected_components(&graph)
    ));
    rep.finish()
}

/// `dpr rank` — run the distributed computation (or `--sync` solver).
pub fn rank(args: &Args) -> Result<(), String> {
    let rep = Reporter::from_args(args)?;
    let graph = Arc::new(load_graph(args)?);
    let defaults = ScenarioSpec::new(graph.num_nodes(), 500, dpr_core::RECOMMENDED_EPSILON, 2003);
    let spec = scenario(args, &defaults)?;
    let top: usize = args.get("top", 10)?;

    let ranks: Vec<f64> = if args.has("sync") {
        let r = SyncSolver::new().tolerance(spec.epsilon).solve(&graph);
        rep.say(format!(
            "synchronous solve: {} iterations, residual {:.2e}",
            r.iterations, r.final_residual
        ));
        r.ranks
    } else {
        // The file's graph, placed like the paper's workload (but on
        // the bare seed, as this command always has).
        let ring = Ring::with_peers(spec.num_peers);
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        let placement =
            Placement::assign(graph.num_nodes(), &ring, PlacementPolicy::Random, &mut rng);
        let w = Workload {
            graph: graph.clone(),
            ring,
            placement,
            num_peers: spec.num_peers,
        };
        let mut engine = spec.engine(&w);
        let mut table = w.peer_table();
        let run = engine.run_observed(&mut table, None, rep.recorder(), "rank");
        rep.say(format!(
            "distributed solve: {} passes, {} remote messages ({:.1}/doc), converged: {}",
            run.passes,
            run.total_remote_messages,
            run.messages_per_node(graph.num_nodes()),
            run.converged
        ));
        engine.ranks().to_vec()
    };

    let mut order: Vec<usize> = (0..ranks.len()).collect();
    order.sort_by(|&a, &b| ranks[b].partial_cmp(&ranks[a]).expect("no NaN ranks"));
    rep.say(format!("top {top} documents:"));
    for &d in order.iter().take(top) {
        rep.say(format!("  d{d:<10} {:.6}", ranks[d]));
    }

    if let Some(out) = args.optional("out") {
        let f = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
        serde_json::to_writer(f, &ranks).map_err(|e| format!("write {out}: {e}"))?;
        rep.say(format!("wrote {out} ({} ranks)", ranks.len()));
    }
    rep.finish()
}

/// `dpr partition` — link-aware partitioning report.
pub fn partition(args: &Args) -> Result<(), String> {
    let rep = Reporter::from_args(args)?;
    let graph = load_graph(args)?;
    let peers: usize = args.get_required("peers")?;
    let sweeps: usize = args.get("sweeps", 6)?;
    if peers == 0 {
        return Err("--peers must be positive".into());
    }
    let random: Vec<u32> = (0..graph.num_nodes() as u32)
        .map(|i| i % peers as u32)
        .collect();
    let bfs = partition::bfs_partition(&graph, peers);
    let refined = partition::link_aware_partition(&graph, peers, sweeps);
    let total = graph.num_edges();
    for (name, labels) in [("random", &random), ("bfs", &bfs), ("link-aware", &refined)] {
        let cut = partition::edge_cut(&graph, labels);
        rep.say(format!(
            "{name:>11}: {cut} cross-peer links of {total} ({:.1}%)",
            100.0 * cut as f64 / total.max(1) as f64
        ));
    }
    let sizes = partition::partition_sizes(&refined, peers);
    rep.say(format!(
        "link-aware partition sizes: min {}, max {}",
        sizes.iter().min().unwrap(),
        sizes.iter().max().unwrap()
    ));
    rep.finish()
}

/// The wave flags of `insert` and `delete`, refused where
/// `incremental` would assert: ε ≤ 0 or NaN, damping outside (0, 1] or
/// NaN.
fn wave_cfg(args: &Args) -> Result<PropagationConfig, String> {
    let damping: f64 = args.get("damping", dpr_core::DEFAULT_DAMPING)?;
    let epsilon: f64 = args.get("eps", dpr_core::RECOMMENDED_EPSILON)?;
    if epsilon.is_nan() || epsilon <= 0.0 {
        return Err(format!("--eps must be positive, got {epsilon}"));
    }
    if damping.is_nan() || damping <= 0.0 || damping > 1.0 {
        return Err(format!("--damping must be in (0, 1], got {damping}"));
    }
    Ok(PropagationConfig { damping, epsilon })
}

/// `dpr insert` — simulate inserting a document with given out-links.
pub fn insert(args: &Args) -> Result<(), String> {
    let rep = Reporter::from_args(args)?;
    let graph = load_graph(args)?;
    let links: Vec<u32> = args.get_list("links")?;
    if links.is_empty() {
        return Err("--links must name at least one target document".into());
    }
    for &l in &links {
        if l as usize >= graph.num_nodes() {
            return Err(format!("link target {l} out of range"));
        }
    }
    let cfg = wave_cfg(args)?;
    let mut dyn_graph = DynamicGraph::from_csr(&graph);
    let mut ranks = vec![dpr_core::INITIAL_RANK; graph.num_nodes()];
    let (id, wave) = dpr_core::incremental::insert_document(
        &mut dyn_graph,
        &links.into_iter().map(DocId).collect::<Vec<_>>(),
        &mut ranks,
        cfg,
    );
    rep.recorder().event(&Event::DocInserted {
        seq: 1,
        doc: u64::from(id.0),
    });
    rep.say(format!(
        "inserted {id} (eps {}, damping {})",
        cfg.epsilon, cfg.damping
    ));
    rep.say(format!(
        "update wave: path length {}, node coverage {}, {} messages",
        wave.path_length, wave.node_coverage, wave.messages
    ));
    rep.finish()
}

/// `dpr delete` — simulate the delete wave of a document.
pub fn delete(args: &Args) -> Result<(), String> {
    let rep = Reporter::from_args(args)?;
    let graph = load_graph(args)?;
    let doc: u32 = args.get_required("doc")?;
    if doc as usize >= graph.num_nodes() {
        return Err(format!("document {doc} out of range"));
    }
    let cfg = wave_cfg(args)?;
    // The negated-rank wave over the document's links (Sec. 3.1).
    let wave = propagate(&graph, DocId(doc), -dpr_core::INITIAL_RANK, cfg, None);
    rep.say(format!(
        "delete wave for d{doc}: path length {}, node coverage {}, {} messages",
        wave.path_length, wave.node_coverage, wave.messages
    ));
    rep.finish()
}

/// `dpr search` — demo incremental search over a synthetic corpus.
pub fn search(args: &Args) -> Result<(), String> {
    let rep = Reporter::from_args(args)?;
    let docs: usize = args.get("docs", 11_000)?;
    let vocab: u32 = args.get("vocab", 1880)?;
    let peers: usize = args.get("peers", 50)?;
    let seed: u64 = args.get("seed", 2003)?;
    let pct: f64 = args.get("top-percent", 10.0)?;
    if docs == 0 || vocab == 0 || peers == 0 {
        return Err("--docs, --vocab and --peers must be positive".into());
    }
    if !(0.0..=100.0).contains(&pct) || pct == 0.0 {
        return Err("--top-percent must be in (0, 100]".into());
    }

    let corpus = Corpus::generate(&CorpusConfig {
        num_docs: docs,
        vocab_size: vocab,
        seed,
        ..Default::default()
    });
    let graph = PowerLawConfig::paper(docs, seed ^ 0xbeef).generate();
    let mut engine = ChaoticEngine::local(Arc::new(graph), EngineConfig::with_epsilon(1e-3));
    // A local engine: one peer holds every document.
    let mut one_peer = dpr_p2p::peer::PeerTable::new(1);
    engine.run_observed(&mut one_peer, None, rep.recorder(), "search-pagerank");
    let ring = Ring::with_peers(peers);
    let index = DistributedIndex::build(&corpus, engine.ranks(), &ring);

    let terms: Vec<u32> = match args.optional("query") {
        Some(_) => args.get_list("query")?,
        None => corpus.top_terms(2),
    };
    for (i, &t) in terms.iter().enumerate() {
        if t >= vocab {
            return Err(format!("query term {t} out of vocabulary (0..{vocab})"));
        }
        if terms[..i].contains(&t) {
            return Err(format!(
                "query term {t} repeated: --query takes distinct terms"
            ));
        }
    }
    let q = Query::new(terms.clone());
    let base = execute_baseline(&index, &q, TrafficModel::AllHopsRemote);
    let cfg = IncrementalConfig {
        forward_fraction: pct / 100.0,
        min_forward: 20,
        traffic: TrafficModel::AllHopsRemote,
    };
    let incr = execute_incremental(&index, &q, cfg);
    rep.say(format!("query {terms:?} over {docs} docs / {peers} peers:"));
    rep.say(format!(
        "  baseline:    {} ids moved, {} hits returned",
        base.traffic_ids,
        base.hits_returned()
    ));
    rep.say(format!(
        "  top-{pct:.0}%:     {} ids moved, {} hits returned ({:.1}x less traffic)",
        incr.traffic_ids,
        incr.hits_returned(),
        base.traffic_ids as f64 / incr.traffic_ids.max(1) as f64
    ));
    if let (Some(b), Some(i)) = (base.hits.first(), incr.hits.first()) {
        rep.say(format!(
            "  best hit under both strategies: {} (rank {:.4})",
            b.doc, b.rank
        ));
        assert_eq!(b.doc, i.doc, "top hit must survive the cut");
    }
    rep.finish()
}

/// `dpr serve` — production query traffic against the live rank
/// computation, with latency SLOs.
///
/// Converges a cluster, builds the distributed index from the fixed
/// point, then serves a Poisson query stream *while* rank updates
/// propagate and (with `--churn F`) peers flap. Prints the latency
/// quantiles, per-query hop/byte averages, the rank-staleness gauge,
/// and the SLO table; the process exits nonzero when any SLO blows its
/// error budget, so CI can gate on the verdict directly. `--trace-out`
/// records the five per-query causal spans (`query_issued →
/// term_lookup → posting_ship → intersect → result_page`) plus the
/// `serving_health` summary event; `--prom-out` additionally carries
/// the latency and staleness sketches as Prometheus summary metrics.
/// Serving is pure observation: the rank schedule and final ranks are
/// bit-identical with and without it.
pub fn serve(args: &Args) -> Result<(), String> {
    use dpr_search::corpus::QUERY_TERM_POOL;
    use dpr_sim::serving::{serving_experiment, ServeStrategy, ServingConfig};
    use dpr_telemetry::SloSpec;

    let rep = Reporter::from_args(args)?;
    let churn: f64 = args.get("churn", 1.0)?;
    if !(0.0..=1.0).contains(&churn) || churn == 0.0 {
        return Err("--churn must be in (0, 1]".into());
    }
    let slo_p99_ms: f64 = args.get("slo-p99-ms", 2_000.0)?;
    let slo_budget: f64 = args.get("slo-budget", 0.10)?;
    let window_ms: f64 = args.get("window-ms", 1_000.0)?;
    if slo_p99_ms <= 0.0 || window_ms <= 0.0 {
        return Err("--slo-p99-ms and --window-ms must be positive".into());
    }
    if !(0.0..=1.0).contains(&slo_budget) {
        return Err(format!("--slo-budget must be in [0, 1], got {slo_budget}"));
    }
    let spec = scenario(args, &ScenarioSpec::new(2_000, 32, 1e-4, 2003))?;
    let cfg = ServingConfig {
        num_docs: spec.nodes,
        vocab_size: args.get("vocab", 400)?,
        num_peers: spec.num_peers,
        queries: args.get("queries", 100)?,
        query_len: args.get("query-len", 2)?,
        qps: args.get("qps", 20.0)?,
        updates: args.get("updates", 20)?,
        churn_fraction: churn,
        strategy: args.get(
            "strategy",
            ServeStrategy::Incremental {
                forward_fraction: 0.10,
            },
        )?,
        latency: spec.latency,
        sched: spec.sched,
        epsilon: spec.epsilon,
        seed: spec.seed,
        slos: vec![SloSpec::new(
            "p99-latency",
            0.99,
            (slo_p99_ms * 1e6) as u64,
            slo_budget,
        )],
        window_ns: (window_ms * 1e6) as u64,
    };
    if cfg.queries == 0 || cfg.vocab_size == 0 || cfg.query_len == 0 {
        return Err("--queries, --vocab and --query-len must be positive".into());
    }
    let pool = QUERY_TERM_POOL.min(cfg.vocab_size as usize);
    if cfg.query_len > pool {
        return Err(format!(
            "--query-len {} exceeds the {pool} top terms queries draw from (min(100, --vocab))",
            cfg.query_len
        ));
    }
    if cfg.qps.is_nan() || cfg.qps <= 0.0 {
        return Err("--qps must be positive".into());
    }

    let run = serving_experiment(&cfg, rep.recorder());
    let r = &run.report;
    rep.say(format!(
        "served {} queries ({} strategy, {} latency, {:.0} qps) over {} docs / {} peers \
         with {} concurrent updates, churn {:.0}% online",
        r.queries,
        r.strategy,
        r.latency,
        cfg.qps,
        cfg.num_docs,
        cfg.num_peers,
        r.updates,
        r.churn_fraction * 100.0
    ));
    rep.say(format!(
        "latency: p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms, p999 {:.1} ms (mean {:.1} ms)",
        r.p50_ns as f64 / 1e6,
        r.p95_ns as f64 / 1e6,
        r.p99_ns as f64 / 1e6,
        r.p999_ns as f64 / 1e6,
        r.mean_ns / 1e6
    ));
    rep.say(format!(
        "per query: {:.1} hops, {:.0} bytes shipped, {:.1} hits; total traffic {} ids; \
         rank staleness p99 {} ppm",
        r.avg_hops, r.avg_bytes, r.avg_hits, r.total_traffic_ids, r.stale_p99_ppm
    ));
    rep.say(format!(
        "rank computation: quiesced {} in {:.1} virtual ms, schedule fnv {:#018x}",
        r.quiesced,
        r.virtual_ns as f64 / 1e6,
        r.schedule_fnv
    ));
    rep.say("slo table:");
    for s in &r.slos {
        rep.say(format!(
            "  {:<14} p{:<4} <= {:>8.1} ms  windows {:>3}/{:<3} violated  \
             budget {:.2} spent {:.2}  overall {:.1} ms  [{}]",
            s.name,
            (s.quantile * 100.0).round() as u64,
            s.threshold_ns as f64 / 1e6,
            s.windows_violated,
            s.windows_total,
            s.budget,
            s.budget_spent,
            s.overall_quantile_ns as f64 / 1e6,
            if s.pass { "pass" } else { "FAIL" }
        ));
    }
    rep.finish()?;
    // The sketches ride along in the Prometheus snapshot as summary
    // metrics (quantile-labeled, mergeable across runs).
    if let Some(p) = args.optional("prom-out") {
        let summaries = dpr_telemetry::prom::render_summaries(&[
            (
                "dpr_query_latency_summary_ns",
                "End-to-end query latency quantiles.",
                &run.latency_sketch,
            ),
            (
                "dpr_rank_staleness_summary_ppm",
                "Rank staleness at query time vs the final fixed point.",
                &run.staleness_sketch,
            ),
        ]);
        let mut text = std::fs::read_to_string(p).map_err(|e| format!("reread {p}: {e}"))?;
        text.push_str(&summaries);
        std::fs::write(p, text).map_err(|e| format!("write {p}: {e}"))?;
        rep.say(format!("appended latency/staleness summaries to {p}"));
    }
    if r.slo_pass {
        rep.say("slo verdict: pass");
        Ok(())
    } else {
        Err("slo verdict: FAIL (an objective exceeded its error budget)".into())
    }
}

fn load_summary(path: &str) -> Result<TraceSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("open {path}: {e}"))?;
    TraceSummary::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares the convergence and traffic series of two traces and
/// describes the first divergence (`Err`), or `Ok` when they agree.
fn diff_traces(
    a_name: &str,
    a: &TraceSummary,
    b_name: &str,
    b: &TraceSummary,
) -> Result<(), String> {
    // Convergence series, keyed by run label in a's order.
    for run in a.runs() {
        if !b.runs().iter().any(|r| r == run) {
            return Err(format!("run '{run}' is in {a_name} but not in {b_name}"));
        }
        let (ca, cb) = (a.convergence_curve(run), b.convergence_curve(run));
        for (pa, pb) in ca.iter().zip(&cb) {
            if pa.pass != pb.pass {
                return Err(format!(
                    "run '{run}' diverges at pass index: {} vs {}",
                    pa.pass, pb.pass
                ));
            }
            if pa.residual != pb.residual {
                return Err(format!(
                    "run '{run}' diverges at pass {}: residual {:e} vs {:e}",
                    pa.pass, pa.residual, pb.residual
                ));
            }
            if pa.active_docs != pb.active_docs {
                return Err(format!(
                    "run '{run}' diverges at pass {}: active docs {} vs {}",
                    pa.pass, pa.active_docs, pb.active_docs
                ));
            }
        }
        if ca.len() != cb.len() {
            return Err(format!(
                "run '{run}' diverges after pass {}: {} has {} checkpoints, {} has {}",
                ca.len().min(cb.len()),
                a_name,
                ca.len(),
                b_name,
                cb.len()
            ));
        }
    }
    for run in b.runs() {
        if !a.runs().iter().any(|r| r == run) {
            return Err(format!("run '{run}' is in {b_name} but not in {a_name}"));
        }
    }
    // Wire-traffic series, by round.
    let (ta, tb) = (a.traffic_by_round(), b.traffic_by_round());
    for (ra, rb) in ta.iter().zip(&tb) {
        if ra.round != rb.round {
            return Err(format!(
                "traffic diverges at round index: {} vs {}",
                ra.round, rb.round
            ));
        }
        for (field, va, vb) in [
            ("payloads", ra.payloads, rb.payloads),
            ("entries", ra.entries, rb.entries),
            ("bytes", ra.bytes, rb.bytes),
        ] {
            if va != vb {
                return Err(format!(
                    "traffic diverges at round {}: {field} {va} vs {vb}",
                    ra.round
                ));
            }
        }
    }
    if ta.len() != tb.len() {
        return Err(format!(
            "traffic diverges after round {}: {} has {} rounds, {} has {}",
            ta.len().min(tb.len()),
            a_name,
            ta.len(),
            b_name,
            tb.len()
        ));
    }
    Ok(())
}

fn report_unknown(path: &str, summary: &TraceSummary, say: impl Fn(String)) {
    for u in summary.unknown_events() {
        say(format!(
            "{path}: note: {} unknown event(s) of kind {:?} skipped (first at line {})",
            u.count, u.kind, u.first_line
        ));
    }
}

/// `dpr trace` — summarize, validate, or diff a JSONL telemetry trace
/// written by `--trace-out` or [`dpr_telemetry::TraceRecorder`].
pub fn trace(args: &Args) -> Result<(), String> {
    let input = args.required("input")?;
    let top: usize = args.get("top", 5)?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("open {input}: {e}"))?;
    let summary = TraceSummary::from_jsonl(&text).map_err(|e| format!("{input}: {e}"))?;

    if let Some(other) = args.optional("diff") {
        let other_summary = load_summary(other)?;
        report_unknown(input, &summary, |l| println!("{l}"));
        report_unknown(other, &other_summary, |l| println!("{l}"));
        diff_traces(input, &summary, other, &other_summary)?;
        println!(
            "{input} and {other} agree: {} run(s), {} traffic round(s) compared",
            summary.runs().len(),
            summary.traffic_by_round().len()
        );
        return Ok(());
    }

    if args.has("validate") {
        // Strict: unknown event kinds are schema violations here.
        dpr_telemetry::summary::parse_jsonl(&text).map_err(|e| format!("{input}: {e}"))?;
        summary
            .residual_monotone_after_last_injection()
            .map_err(|(run, pass, prev, next)| {
                format!(
                    "{input}: residual of run '{run}' increases at pass {pass}: {prev:e} -> {next:e}"
                )
            })?;
        println!(
            "{input}: {} events, schema-valid, residual monotone after last injection",
            summary.events().len()
        );
        return Ok(());
    }

    report_unknown(input, &summary, |l| println!("{l}"));
    println!(
        "{input}: {} events, {} engine runs",
        summary.events().len(),
        summary.runs().len()
    );
    let runs: Vec<String> = match args.optional("run") {
        Some(r) => {
            if !summary.runs().iter().any(|x| x == r) {
                return Err(format!("no run labeled '{r}' in {input}"));
            }
            vec![r.to_string()]
        }
        None => summary.runs().to_vec(),
    };
    for run in &runs {
        let curve = summary.convergence_curve(run);
        if curve.is_empty() {
            continue;
        }
        println!("\nconvergence of run '{run}':");
        print!("{}", summary.render_convergence(run).render());
    }
    if !summary.traffic_by_round().is_empty() {
        println!("\nwire traffic by round:");
        print!("{}", summary.render_traffic().render());
    }
    if !summary.hottest_peers(top).is_empty() {
        println!("\ntop {top} hottest peers:");
        print!("{}", summary.render_hottest_peers(top).render());
    }
    if summary.chaotic_health().is_some() {
        println!("\nchaotic runtime health:");
        print!("{}", summary.render_chaotic_health().render());
    }
    if summary.serving_health().is_some() {
        println!("\nserving health:");
        print!("{}", summary.render_serving_health().render());
    }
    Ok(())
}

/// `dpr doctor` — the flight recorder's diagnostic front end.
///
/// Default mode runs the message-level cluster scenario with the
/// recorder on, evaluates the three invariant monitors over the trace,
/// and prints the pass/fail diagnosis table; `--inject-fault
/// mass-leak|dup-frame|lost-frame` stages one transport corruption to
/// prove the owning monitor fires (the verdict then exits nonzero).
/// `--input` audits an existing trace instead of running one;
/// `--capture-out` records a deterministic replay capture of the
/// continuous-update scenario; `--replay` re-executes such a capture
/// and verifies the bit-exact fingerprint. `--run-mode chaotic` runs
/// the scenario under the event-driven runtime (with `--latency`
/// picking the network model); chaotic captures (v3) additionally pin
/// the executed event schedule, so a replay certifies the run took the
/// same events at the same virtual times.
pub fn doctor(args: &Args) -> Result<(), String> {
    use dpr_sim::flight::{self, FlightConfig};
    let rep = Reporter::from_args(args)?;
    let spec = scenario(args, &diagnostic_scenario())?;

    // Replay mode: prove a capture reproduces bit for bit. A capture
    // recorded under a different wire codec is refused outright —
    // compact quantizes to f32, so its fingerprint says nothing about
    // a raw run (and vice versa).
    if let Some(path) = args.optional("replay") {
        let capture =
            Capture::read(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        let out = flight::replay(&capture, Some(spec.codec), rep.recorder())
            .map_err(|e| format!("{path}: {e}"))?;
        rep.say(format!(
            "{path}: replay matched — {} docs, {} passes, {} remote messages, \
             ranks fnv {:#018x}",
            out.ranks.len(),
            out.passes,
            out.remote_messages,
            capture.fingerprint.ranks_fnv,
        ));
        return rep.finish();
    }

    // Capture mode: record the replayable continuous-update flight.
    if let Some(out) = args.optional("capture-out") {
        let cfg = FlightConfig {
            spec,
            inserts: args.get("inserts", 6)?,
            checkpoints: args.get("checkpoints", 2)?,
        };
        cfg.validate()?;
        let (capture, outcome) = flight::record(&cfg, rep.recorder());
        capture
            .write(std::path::Path::new(out))
            .map_err(|e| format!("write {out}: {e}"))?;
        rep.say(format!(
            "wrote {out}: {} injections, fingerprint over {} ranks \
             ({} passes, {} remote messages)",
            capture.injections.len(),
            outcome.ranks.len(),
            outcome.passes,
            outcome.remote_messages,
        ));
        return rep.finish();
    }

    // Audit: an ingested trace, or a fresh instrumented scenario run.
    let (report, source) = if let Some(input) = args.optional("input") {
        let summary = load_summary(input)?;
        report_unknown(input, &summary, |l| rep.say(l));
        rep.say(format!(
            "{input}: auditing {} events",
            summary.events().len()
        ));
        (AuditReport::evaluate(summary.events()), input.to_string())
    } else {
        let fault = fault_plan(args)?;
        let run = flight::doctor_run(&spec, fault, rep.recorder_arc());
        let unit = match spec.run_mode {
            dpr_core::RunMode::Rounds => "rounds",
            dpr_core::RunMode::Chaotic => "steps",
        };
        rep.say(format!(
            "scenario: {spec}, {} mode: {} {unit}, quiesced: {}",
            spec.run_mode, run.rounds, run.quiesced
        ));
        report_fault(&rep, fault, run.fault_fired_at)?;
        (run.report, "doctor run".to_string())
    };

    rep.print(report.render().render());
    let verdict = if report.passed() {
        rep.say(report.diagnosis());
        Ok(())
    } else {
        Err(format!("{source}: {}", report.diagnosis()))
    };
    // A failing run's trace is the one worth keeping: flush either way.
    rep.finish()?;
    verdict
}

/// The transport fault `--inject-fault KIND [--fault-at N]` stages.
fn fault_plan(args: &Args) -> Result<Option<FaultPlan>, String> {
    args.optional("inject-fault")
        .map(|kind| {
            Ok(FaultPlan {
                kind: kind.parse()?,
                nth_send: args.get("fault-at", 25)?,
            })
        })
        .transpose()
}

/// Says where a staged fault struck; a fault that never fired proves
/// nothing, so that is an error.
fn report_fault(
    rep: &Reporter,
    fault: Option<FaultPlan>,
    fired_at: Option<u64>,
) -> Result<(), String> {
    match (fault, fired_at) {
        (None, _) => Ok(()),
        (Some(plan), Some(n)) => {
            rep.say(format!("staged fault {} fired at send {n}", plan.kind));
            Ok(())
        }
        (Some(plan), None) => Err(format!(
            "staged fault {} never fired (too few sends?)",
            plan.kind
        )),
    }
}

/// `dpr profile` — the causal critical-path profiler for the chaotic
/// runtime.
///
/// Three sources, one pipeline: a fresh live run (default, with the
/// same scenario knobs as `dpr doctor` plus `--sched`), a re-executed
/// Capture v3 (`--replay`, chaotic captures only — the replay is
/// fingerprint-verified first, so the profile describes a proven
/// bit-exact schedule), or an already-recorded trace JSONL with
/// `span_closed` events (`--input`). Each chaotic segment becomes one
/// [`Profile`](dpr_telemetry::Profile): the compute/wire/wait
/// breakdown of the virtual wall-clock, the critical path from the
/// quiescence announcement back to the seed, per-link utilization, and
/// per-peer convergence lag.
/// The breakdown is checked to telescope exactly to the segment's
/// virtual time — a mismatch is a profiler bug and exits nonzero.
/// `--perfetto-out` writes all segments as Chrome trace-event JSON
/// (load in Perfetto; the clock is virtual nanoseconds).
pub fn profile(args: &Args) -> Result<(), String> {
    use dpr_sim::flight;
    use dpr_telemetry::profile::chrome_trace;
    use dpr_telemetry::Profile;

    let rep = Reporter::from_args(args)?;
    let spec = scenario(args, &diagnostic_scenario())?;
    let top: usize = args.get("top", 8)?;

    let segments: Vec<Profile> = if let Some(input) = args.optional("input") {
        let summary = load_summary(input)?;
        report_unknown(input, &summary, |l| rep.say(l));
        let segs =
            Profile::segments_from_events(summary.events()).map_err(|e| format!("{input}: {e}"))?;
        if segs.is_empty() {
            return Err(format!(
                "{input}: no span_closed events — record the trace from a chaotic run \
                 (e.g. dpr doctor --run-mode chaotic --trace-out FILE)"
            ));
        }
        rep.say(format!(
            "{input}: {} chaotic segment(s) in {} events",
            segs.len(),
            summary.events().len()
        ));
        segs
    } else if let Some(path) = args.optional("replay") {
        let capture =
            Capture::read(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        if capture.header.run_mode != "chaotic" {
            return Err(format!(
                "{path}: capture records run mode \"{}\" — only chaotic captures carry \
                 the virtual-time schedule this profiler attributes; re-record with \
                 --run-mode chaotic",
                capture.header.run_mode
            ));
        }
        // The profile is cut from the replay's span stream, traced to
        // a file or not.
        let rec = rep.aggregate().cloned().unwrap_or_default();
        let out =
            flight::replay(&capture, None, rec.as_ref()).map_err(|e| format!("{path}: {e}"))?;
        let segs = Profile::segments_from_events(&rec.events())
            .map_err(|e| format!("{path}: replayed trace: {e}"))?;
        rep.say(format!(
            "{path}: replay matched (schedule fnv {:#018x}); {} chaotic segment(s)",
            out.schedule_fnv,
            segs.len()
        ));
        segs
    } else {
        let fault = fault_plan(args)?;
        let run = flight::profile_run(&spec.workload(), &spec, fault, rep.recorder());
        rep.say(format!(
            "scenario: {spec}, {} sched, {} latency: {} steps in {:.3} virtual ms, quiesced: {}",
            spec.sched,
            spec.latency,
            run.outcome.steps,
            run.outcome.virtual_ns as f64 / 1e6,
            run.outcome.quiesced
        ));
        report_fault(&rep, fault, run.fault_fired_at)?;
        vec![run.profile]
    };

    // The profiler's own acceptance gate: every segment's attribution
    // must telescope exactly — compute + wire + wait == the segment's
    // virtual wall-clock, to the nanosecond. Anything else means the
    // span model dropped or double-counted time.
    for (i, seg) in segments.iter().enumerate() {
        if !seg.breakdown_is_exact() {
            return Err(format!(
                "segment {i}: breakdown does not telescope: compute {} + wire {} + wait {} \
                 != virtual {} ns (profiler invariant violated)",
                seg.compute_ns, seg.wire_ns, seg.wait_ns, seg.virtual_ns
            ));
        }
    }

    if let Some(out) = args.optional("perfetto-out") {
        let json = serde_json::to_string(&chrome_trace(&segments)).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
        rep.say(format!(
            "wrote {out}: {} segment(s) as Chrome trace events on the virtual clock",
            segments.len()
        ));
    }

    let idx = match args.optional("segment") {
        Some(s) => {
            let i: usize = s
                .parse()
                .map_err(|_| format!("flag --segment: cannot parse '{s}'"))?;
            if i >= segments.len() {
                return Err(format!(
                    "--segment {i} out of range (trace has {} segments)",
                    segments.len()
                ));
            }
            i
        }
        // Default to the longest segment: reconvergence after the
        // injection wave, which is where the convergence time goes.
        None => segments
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.virtual_ns)
            .map(|(i, _)| i)
            .unwrap_or(0),
    };
    if segments.len() > 1 {
        rep.say("\nsegments (chaotic reconvergences, in run order):");
        for (i, p) in segments.iter().enumerate() {
            let mark = if i == idx { " <- shown" } else { "" };
            rep.say(format!(
                "  [{i}] {:>10.3} virtual ms, {:>6} steps, compute {:>5.1}% \
                 wire {:>5.1}% wait {:>5.1}%{mark}",
                p.virtual_ns as f64 / 1e6,
                p.steps(),
                p.compute_pct(),
                p.wire_pct(),
                p.wait_pct()
            ));
        }
    }
    let p = &segments[idx];
    rep.say(format!("\ncritical-path breakdown of segment {idx}:"));
    rep.print(p.render_breakdown());
    rep.say(format!(
        "\ntop {top} critical-path segments (announcement -> seed):"
    ));
    rep.print(p.render_path(top));
    if !p.links.is_empty() {
        rep.say(format!("\ntop {top} links by wire time:"));
        rep.print(p.render_links(top));
    }
    if !p.peers.is_empty() {
        rep.say(format!("\ntop {top} peers by mean inbox wait:"));
        rep.print(p.render_peer_lag(top));
    }
    rep.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from).collect()).unwrap()
    }

    fn graph_file(dir: &std::path::Path, nodes: usize) -> String {
        let path = dir.join("g.bin");
        let g = PowerLawConfig::paper(nodes, 1).generate();
        io::write_binary(&g, File::create(&path).unwrap()).unwrap();
        path.to_str().unwrap().to_string()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dpr-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn generate_and_stats_roundtrip() {
        let dir = tmpdir("gen");
        let out = dir.join("g.bin");
        generate(&args(&format!("--nodes 500 --out {}", out.display()))).unwrap();
        stats(&args(&format!("--graph {}", out.display()))).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rank_distributed_and_sync() {
        let dir = tmpdir("rank");
        let g = graph_file(&dir, 400);
        let ranks_out = dir.join("ranks.json");
        rank(&args(&format!(
            "--graph {g} --eps 1e-4 --peers 10 --out {}",
            ranks_out.display()
        )))
        .unwrap();
        let text = std::fs::read_to_string(&ranks_out).unwrap();
        let ranks: Vec<f64> = serde_json::from_str(&text).unwrap();
        assert_eq!(ranks.len(), 400);
        rank(&args(&format!("--graph {g} --sync --eps 1e-8"))).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rank_priority_sched_matches_pass_to_epsilon() {
        let dir = tmpdir("sched");
        let g = graph_file(&dir, 400);
        let pass_out = dir.join("pass.json");
        let pri_out = dir.join("priority.json");
        rank(&args(&format!(
            "--graph {g} --eps 1e-6 --peers 10 --quiet --out {}",
            pass_out.display()
        )))
        .unwrap();
        rank(&args(&format!(
            "--graph {g} --eps 1e-6 --peers 10 --sched priority --quiet --out {}",
            pri_out.display()
        )))
        .unwrap();
        let pass: Vec<f64> =
            serde_json::from_str(&std::fs::read_to_string(&pass_out).unwrap()).unwrap();
        let pri: Vec<f64> =
            serde_json::from_str(&std::fs::read_to_string(&pri_out).unwrap()).unwrap();
        let l1: f64 = pass.iter().zip(&pri).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 / 400.0 < 1e-6, "l1 per doc {}", l1 / 400.0);
        assert!(
            rank(&args(&format!("--graph {g} --sched bogus"))).is_err(),
            "bad sched mode must be a clean error"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partition_reports() {
        let dir = tmpdir("part");
        let g = graph_file(&dir, 600);
        partition(&args(&format!("--graph {g} --peers 6"))).unwrap();
        assert!(partition(&args(&format!("--graph {g} --peers 0"))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_and_delete_waves() {
        let dir = tmpdir("ins");
        let g = graph_file(&dir, 300);
        insert(&args(&format!("--graph {g} --links 1,2,3"))).unwrap();
        delete(&args(&format!("--graph {g} --doc 5"))).unwrap();
        assert!(insert(&args(&format!("--graph {g} --links 9999"))).is_err());
        assert!(delete(&args(&format!("--graph {g} --doc 9999"))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn search_demo_runs_small() {
        search(&args("--docs 800 --vocab 200 --peers 10 --top-percent 10")).unwrap();
        assert!(search(&args("--docs 800 --vocab 200 --top-percent 0")).is_err());
        assert!(search(&args("--docs 800 --vocab 200 --query 9999")).is_err());
    }

    #[test]
    fn missing_graph_file_is_a_clean_error() {
        let e = stats(&args("--graph /nonexistent/g.bin")).unwrap_err();
        assert!(e.contains("open"), "{e}");
    }

    #[test]
    fn rank_trace_roundtrips_through_trace_subcommand() {
        let dir = tmpdir("trace");
        let g = graph_file(&dir, 400);
        let trace_out = dir.join("trace.jsonl");
        let prom_out = dir.join("metrics.prom");
        rank(&args(&format!(
            "--graph {g} --eps 1e-4 --peers 10 --quiet --trace-out {} --prom-out {}",
            trace_out.display(),
            prom_out.display()
        )))
        .unwrap();

        let text = std::fs::read_to_string(&trace_out).unwrap();
        let summary = TraceSummary::from_jsonl(&text).unwrap();
        assert_eq!(summary.runs(), ["rank".to_string()]);
        assert!(!summary.convergence_curve("rank").is_empty());
        summary.residual_monotone_after_last_injection().unwrap();

        let prom = std::fs::read_to_string(&prom_out).unwrap();
        assert!(prom.contains("dpr_events_recorded_total"), "{prom}");

        let input = trace_out.display().to_string();
        trace(&args(&format!("--input {input}"))).unwrap();
        trace(&args(&format!("--input {input} --validate"))).unwrap();
        trace(&args(&format!("--input {input} --run rank"))).unwrap();
        assert!(trace(&args(&format!("--input {input} --run nope"))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_trace_is_a_clean_error() {
        let dir = tmpdir("badtrace");
        let p = dir.join("bad.jsonl");
        // Corruption (not JSON) fails on every path.
        std::fs::write(&p, "not json\n").unwrap();
        let e = trace(&args(&format!("--input {}", p.display()))).unwrap_err();
        assert!(e.contains("line 1"), "{e}");
        // An unknown-but-well-formed kind is schema drift: the default
        // path tolerates (and reports) it, `--validate` rejects it.
        std::fs::write(&p, "{\"type\":\"mystery\"}\n").unwrap();
        trace(&args(&format!("--input {}", p.display()))).unwrap();
        let e = trace(&args(&format!("--input {} --validate", p.display()))).unwrap_err();
        assert!(e.contains("line 1"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_diff_finds_first_divergence() {
        let dir = tmpdir("diff");
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        let line = |pass: u64, residual: f64| {
            format!(
                "{{\"type\":\"convergence_check\",\"run\":\"r\",\"pass\":{pass},\
                 \"active_docs\":3,\"residual\":{residual}}}\n"
            )
        };
        let frame = |round: u64, bytes: u64| {
            format!(
                "{{\"type\":\"frame_sent\",\"round\":{round},\"from\":0,\"to\":1,\
                 \"entries\":2,\"bytes\":{bytes}}}\n"
            )
        };
        std::fs::write(
            &a,
            format!("{}{}{}", line(1, 0.5), line(2, 0.25), frame(1, 36)),
        )
        .unwrap();

        // Identical traces agree.
        std::fs::write(
            &b,
            format!("{}{}{}", line(1, 0.5), line(2, 0.25), frame(1, 36)),
        )
        .unwrap();
        trace(&args(&format!(
            "--input {} --diff {}",
            a.display(),
            b.display()
        )))
        .unwrap();

        // Residual divergence names the run, pass, and field.
        std::fs::write(
            &b,
            format!("{}{}{}", line(1, 0.5), line(2, 0.125), frame(1, 36)),
        )
        .unwrap();
        let e = trace(&args(&format!(
            "--input {} --diff {}",
            a.display(),
            b.display()
        )))
        .unwrap_err();
        assert!(e.contains("pass 2") && e.contains("residual"), "{e}");

        // Traffic divergence names the round and field.
        std::fs::write(
            &b,
            format!("{}{}{}", line(1, 0.5), line(2, 0.25), frame(1, 52)),
        )
        .unwrap();
        let e = trace(&args(&format!(
            "--input {} --diff {}",
            a.display(),
            b.display()
        )))
        .unwrap_err();
        assert!(e.contains("round 1") && e.contains("bytes"), "{e}");

        // A missing run is a divergence, not a silent pass.
        std::fs::write(&b, frame(1, 36)).unwrap();
        let e = trace(&args(&format!(
            "--input {} --diff {}",
            a.display(),
            b.display()
        )))
        .unwrap_err();
        assert!(e.contains("run 'r'"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doctor_clean_run_passes_and_faults_exit_nonzero() {
        let dir = tmpdir("doctor");
        let trace_out = dir.join("doctor.jsonl");
        doctor(&args(&format!(
            "--docs 600 --peers 8 --eps 1e-4 --seed 21 --quiet --trace-out {}",
            trace_out.display()
        )))
        .unwrap();

        // The saved trace re-audits clean through --input.
        doctor(&args(&format!("--input {} --quiet", trace_out.display()))).unwrap();

        // Each staged fault turns the verdict into an error naming its
        // owning monitor.
        for (fault, monitor) in [
            ("mass-leak", "mass-conservation"),
            ("dup-frame", "message-balance"),
            ("lost-frame", "quiescence"),
        ] {
            let e = doctor(&args(&format!(
                "--docs 600 --peers 8 --eps 1e-4 --seed 21 --quiet --inject-fault {fault}"
            )))
            .unwrap_err();
            assert!(e.contains(monitor), "{fault}: {e}");
            assert!(e.contains(fault), "{fault}: {e}");
        }
        assert!(doctor(&args("--inject-fault warp-core --quiet")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doctor_capture_roundtrips_through_replay() {
        let dir = tmpdir("capture");
        let cap = dir.join("cap.jsonl");
        doctor(&args(&format!(
            "--docs 800 --peers 16 --eps 1e-3 --seed 7 --inserts 4 --checkpoints 2 \
             --quiet --capture-out {}",
            cap.display()
        )))
        .unwrap();
        doctor(&args(&format!("--quiet --replay {}", cap.display()))).unwrap();
        // A raw capture replayed under --codec compact is refused
        // with the codec named, before any fingerprint comparison.
        let e = doctor(&args(&format!(
            "--quiet --codec compact --replay {}",
            cap.display()
        )))
        .unwrap_err();
        assert!(e.contains("recorded under wire codec \"raw\""), "{e}");
        // A pre-versioning (v1) capture is refused by version.
        let text = std::fs::read_to_string(&cap).unwrap();
        let v1 = text.replacen("\"version\":3", "\"version\":1", 1).replacen(
            ",\"codec\":\"raw\"",
            "",
            1,
        );
        assert_ne!(text, v1);
        let old = dir.join("v1.jsonl");
        std::fs::write(&old, v1).unwrap();
        let e = doctor(&args(&format!("--quiet --replay {}", old.display()))).unwrap_err();
        assert!(e.contains("capture version 1"), "{e}");
        // A tampered fingerprint is caught.
        let tampered = text.replacen("\"passes\":", "\"passes\":1", 1);
        assert_ne!(text, tampered);
        std::fs::write(&cap, tampered).unwrap();
        let e = doctor(&args(&format!("--quiet --replay {}", cap.display()))).unwrap_err();
        assert!(e.contains("passes"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profile_live_replay_and_trace_input_all_work() {
        let dir = tmpdir("profile");

        // Live run prints (and gates) the causal profile.
        profile(&args(
            "--docs 400 --peers 8 --eps 1e-4 --seed 21 --sched priority --latency lan",
        ))
        .unwrap();

        // A chaotic capture profiles through the fingerprint-verified
        // replay, and the perfetto export is well-formed trace JSON.
        let cap = dir.join("cap.jsonl");
        doctor(&args(&format!(
            "--docs 400 --peers 8 --eps 1e-3 --seed 9 --inserts 2 --checkpoints 1 \
             --run-mode chaotic --latency lan --quiet --capture-out {}",
            cap.display()
        )))
        .unwrap();
        let pft = dir.join("profile.json");
        profile(&args(&format!(
            "--quiet --replay {} --perfetto-out {}",
            cap.display(),
            pft.display()
        )))
        .unwrap();
        let json = std::fs::read_to_string(&pft).unwrap();
        assert!(
            json.contains("\"traceEvents\""),
            "perfetto export missing traceEvents"
        );
        assert!(
            json.contains("\"cat\":\"compute\"") && json.contains("\"cat\":\"wire\""),
            "perfetto export missing compute/wire events"
        );

        // Explicit segment selection; out-of-range is a clean error.
        profile(&args(&format!(
            "--quiet --replay {} --segment 0",
            cap.display()
        )))
        .unwrap();
        let e = profile(&args(&format!(
            "--quiet --replay {} --segment 99",
            cap.display()
        )))
        .unwrap_err();
        assert!(e.contains("out of range"), "{e}");

        // A rounds-mode capture is refused with the mode named.
        let rcap = dir.join("rounds.jsonl");
        doctor(&args(&format!(
            "--docs 400 --peers 8 --eps 1e-3 --seed 9 --inserts 2 --checkpoints 1 \
             --quiet --capture-out {}",
            rcap.display()
        )))
        .unwrap();
        let e = profile(&args(&format!("--quiet --replay {}", rcap.display()))).unwrap_err();
        assert!(e.contains("\"rounds\""), "{e}");

        // A recorded chaotic trace profiles through --input; a rounds
        // trace (no span_closed events) is a clean error.
        let tr = dir.join("trace.jsonl");
        doctor(&args(&format!(
            "--docs 400 --peers 8 --eps 1e-3 --seed 9 --run-mode chaotic --quiet \
             --trace-out {}",
            tr.display()
        )))
        .unwrap();
        profile(&args(&format!("--input {} --top 3 --quiet", tr.display()))).unwrap();
        let rtr = dir.join("rounds-trace.jsonl");
        doctor(&args(&format!(
            "--docs 400 --peers 8 --eps 1e-3 --seed 9 --quiet --trace-out {}",
            rtr.display()
        )))
        .unwrap();
        let e = profile(&args(&format!("--input {} --quiet", rtr.display()))).unwrap_err();
        assert!(e.contains("no span_closed events"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn usage_carries_the_shared_scenario_flag_block() {
        let usage = usage();
        assert!(usage.contains(SCENARIO_FLAGS_HELP) && usage.contains(dpr_core::SCHED_HELP));
        let d = diagnostic_scenario();
        assert_eq!(scenario(&args(""), &d).unwrap(), d);
        for flags in ["--docs 1200", "--peers 24", "--eps 1e-4", "--seed 2003"] {
            assert!(usage.contains(&format!("[{flags}]")), "{flags}");
            assert_eq!(scenario(&args(flags), &d).unwrap(), d, "{flags}");
        }
    }

    /// Every degenerate scenario is a clean `Err` (the dispatcher
    /// prints `error: …` and exits nonzero); a panic fails the test.
    #[test]
    fn degenerate_scenarios_are_errors_not_panics() {
        type Cmd = fn(&Args) -> Result<(), String>;
        let cmds: [(&str, Cmd); 3] = [("doctor", doctor), ("profile", profile), ("serve", serve)];
        for (name, cmd) in cmds {
            for (flags, field) in [
                ("--peers 0", "num_peers"),
                ("--docs 0", "nodes"),
                ("--eps 0", "epsilon"),
                ("--eps nan", "epsilon"),
                ("--eps -1e-3", "epsilon"),
                ("--eps inf", "epsilon"),
            ] {
                let e = cmd(&args(&format!("{flags} --quiet"))).unwrap_err();
                assert!(e.contains(field), "dpr {name} {flags}: {e}");
            }
        }
        let dir = tmpdir("degenerate");
        let cap = dir.join("cap.jsonl");
        for (flags, field) in [
            ("--checkpoints 0", "checkpoints"),
            ("--inserts 1 --checkpoints 2", "inserts"),
        ] {
            let e = doctor(&args(&format!(
                "--quiet {flags} --capture-out {}",
                cap.display()
            )))
            .unwrap_err();
            assert!(e.contains(field), "{flags}: {e}");
            assert!(!cap.exists(), "{flags}: nothing may be written");
        }
        // The wave flags `incremental` asserts on.
        let g = graph_file(&dir, 50);
        for (name, cmd, flags, flag) in [
            ("insert", insert as Cmd, "--links 1 --eps 0", "--eps"),
            ("insert", insert, "--links 1 --eps nan", "--eps"),
            ("insert", insert, "--links 1 --damping 1.5", "--damping"),
            ("delete", delete, "--doc 3 --damping 0", "--damping"),
            ("delete", delete, "--doc 3 --damping nan", "--damping"),
        ] {
            let e = cmd(&args(&format!("--graph {g} {flags} --quiet"))).unwrap_err();
            assert!(e.contains(flag), "dpr {name} {flags}: {e}");
        }
        // More terms per query than the pool queries draw from.
        for flags in ["--query-len 101", "--vocab 1"] {
            let e = serve(&args(&format!("{flags} --quiet"))).unwrap_err();
            assert!(e.contains("--query-len"), "dpr serve {flags}: {e}");
        }
        // The same through a capture file: a header edited to a
        // degenerate scenario is refused by name, by both replayers.
        doctor(&args(&format!(
            "--docs 400 --peers 8 --eps 1e-3 --run-mode chaotic --quiet --capture-out {}",
            cap.display()
        )))
        .unwrap();
        let text = std::fs::read_to_string(&cap).unwrap();
        for (from, to, field) in [
            ("\"checkpoints\":2", "\"checkpoints\":0", "checkpoints"),
            ("\"num_peers\":8", "\"num_peers\":0", "num_peers"),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(text, bad);
            std::fs::write(&cap, bad).unwrap();
            for cmd in [doctor as Cmd, profile] {
                let e = cmd(&args(&format!("--quiet --replay {}", cap.display()))).unwrap_err();
                assert!(e.contains(field), "{to}: {e}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doctor_and_profile_write_the_trace_and_prom_sinks() {
        let dir = tmpdir("sinks");
        type Cmd = fn(&Args) -> Result<(), String>;
        for (name, cmd) in [("doctor", doctor as Cmd), ("profile", profile)] {
            let (trace_out, prom_out) = (
                dir.join(format!("{name}.jsonl")),
                dir.join(format!("{name}.prom")),
            );
            cmd(&args(&format!(
                "--docs 400 --peers 8 --quiet --trace-out {} --prom-out {}",
                trace_out.display(),
                prom_out.display()
            )))
            .unwrap();
            let text = std::fs::read_to_string(&trace_out).unwrap();
            assert!(!TraceSummary::from_jsonl(&text).unwrap().events().is_empty());
            let prom = std::fs::read_to_string(&prom_out).unwrap();
            assert!(prom.contains("dpr_events_recorded_total"), "{name}: {prom}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doctor_chaotic_mode_runs_and_captures_roundtrip() {
        let dir = tmpdir("chaotic");
        // A clean chaotic diagnostic run passes the monitors; a staged
        // lost frame still lands on the quiescence monitor.
        doctor(&args(
            "--docs 500 --peers 8 --eps 1e-4 --seed 21 --run-mode chaotic --quiet",
        ))
        .unwrap();
        let e = doctor(&args(
            "--docs 500 --peers 8 --eps 1e-4 --seed 21 --run-mode chaotic \
             --inject-fault lost-frame --quiet",
        ))
        .unwrap_err();
        assert!(e.contains("quiescence"), "{e}");

        // Chaotic captures replay, and refuse when the recorded event
        // schedule diverges.
        let cap = dir.join("chaotic.jsonl");
        doctor(&args(&format!(
            "--docs 400 --peers 8 --eps 1e-3 --seed 9 --inserts 2 --checkpoints 1 \
             --run-mode chaotic --latency lan --quiet --capture-out {}",
            cap.display()
        )))
        .unwrap();
        doctor(&args(&format!("--quiet --replay {}", cap.display()))).unwrap();
        let text = std::fs::read_to_string(&cap).unwrap();
        assert!(text.contains("\"run_mode\":\"chaotic\""), "{text}");
        let mut tampered = Capture::read(&cap).unwrap();
        tampered.fingerprint.schedule_fnv ^= 1;
        tampered.write(&cap).unwrap();
        let e = doctor(&args(&format!("--quiet --replay {}", cap.display()))).unwrap_err();
        assert!(e.contains("schedule_fnv"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
