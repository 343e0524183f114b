//! Ablations of the design choices called out in DESIGN.md.
//!
//! 1. **Chaotic vs synchronous iteration** — message cost of the
//!    threshold-gated asynchronous scheme vs a synchronous solver
//!    where every document re-sends on every sweep.
//! 4. **Store-and-resend vs dropping updates** — rank mass lost when
//!    updates to offline peers are discarded.
//! 5. **Min-forward floor** — how the incremental-search floor (=20)
//!    shapes hits returned.
//! 6. **Link-aware placement** — the paper's Sec. 6 future-work idea:
//!    partition documents by link structure instead of randomly, and
//!    measure the remote-message savings.
//! 8. **Per-peer aggregation × IP caching** — overlay transmissions
//!    for the four combinations of batched frames and the Sec. 3.2
//!    address cache, charging one route (or one cached send) per
//!    frame rather than per update when aggregation is on.
//!
//! Numbers are stable across removals. 7, extrapolation-accelerated
//! solvers, went with its solver; EXPERIMENTS.md keeps the result.
//! Three re-measured rows another artefact holds: 2 (the ε trade-off)
//! is Tables 2 and 3 (`table3`), 3 (routed vs cached hops) is the two
//! "singles" rows of 8, and 9 (pass vs priority vs greedy scheduling)
//! is the engine rows of `BENCH_regimes.json` (`continuous
//! --regimes`).
//!
//! ```text
//! cargo run --release -p dpr-bench --bin ablations [--nodes 20000] [--seed N]
//! ```

use dpr_bench::{count, run_cell};
use dpr_core::engine::{ChaoticEngine, EngineConfig};
use dpr_core::error_stats;
use dpr_core::sync_solver::SyncSolver;
use dpr_p2p::peer::PeerId;
use dpr_search::corpus::{generate_queries, Corpus, CorpusConfig};
use dpr_search::index::DistributedIndex;
use dpr_search::query::{
    execute_baseline, execute_incremental, IncrementalConfig, Query, TrafficModel,
};
use dpr_sim::flags::{Args, Reporter};
use dpr_sim::spec::{Layer, Observe, ScenarioSpec};
use dpr_sim::workload::Workload;
use dpr_telemetry::fmt::{fmt_bytes, fmt_eps};
use dpr_telemetry::table::TextTable;
use dpr_telemetry::{Recorder, NOOP};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    dpr_bench::main(run)
}

fn run(args: &Args) -> Result<(), String> {
    let trace = Reporter::from_args(args)?;
    let nodes = count(args, "nodes", 20_000)?;
    let seed: u64 = args.get("seed", 2003)?;

    ablation_sync_vs_async(nodes, seed);
    ablation_store_and_resend(seed);
    ablation_min_forward_floor(seed);
    ablation_link_aware_placement(nodes, seed);
    ablation_aggregation_grid(seed, &trace);
    trace.finish()
}

/// 1. Chaotic+threshold vs synchronous all-send.
fn ablation_sync_vs_async(nodes: usize, seed: u64) {
    println!("== ablation 1: chaotic (async, eps-gated) vs synchronous all-send ==\n");
    let at = |eps| ScenarioSpec::new(nodes, 500, eps, seed);
    let w = at(1e-3).workload();
    let remote_links: u64 = w.remote_links_per_peer().iter().sum();

    let mut table = TextTable::new(["scheme", "passes/iters", "remote msgs", "max rel err"]);
    let reference = SyncSolver::new().tolerance(1e-12).solve(&w.graph);

    for eps in [1e-3, 1e-5] {
        let cell = run_cell(&w, Layer::Engine, &at(eps));
        let err = error_stats::compare(&cell.ranks, &reference.ranks);
        table.push([
            format!("chaotic eps={}", fmt_eps(eps)),
            cell.steps.to_string(),
            cell.remote_messages.to_string(),
            format!("{:.2e}", err.max),
        ]);
    }

    // Synchronous distributed: every sweep, every document re-sends to
    // every remote out-link (no threshold gating possible because the
    // sweep is global).
    let sync = SyncSolver::new()
        .tolerance(1e-3)
        .max_iterations(500)
        .solve(&w.graph);
    let sync_msgs = remote_links * sync.iterations as u64;
    let err = error_stats::compare(&sync.ranks, &reference.ranks);
    table.push([
        "synchronous (all-send)".to_string(),
        sync.iterations.to_string(),
        sync_msgs.to_string(),
        format!("{:.2e}", err.max),
    ]);
    println!("{}", table.render());
    println!("threshold gating sends only what changed; all-send pays every link every sweep\n");
}

/// 4. Store-and-resend vs dropping updates for offline peers.
fn ablation_store_and_resend(seed: u64) {
    println!("== ablation 4: store-and-resend vs dropping parked updates ==\n");
    let spec = ScenarioSpec::new(5_000, 100, 1e-6, seed);
    let w = spec.workload();
    let reference = SyncSolver::new().tolerance(1e-12).solve(&w.graph);
    let mut table = TextTable::new(["protocol", "total rank mass", "avg rel err vs R_c"]);
    for drop in [false, true] {
        let mut eng = spec.engine(&w);
        let mut peers = w.peer_table();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 1);
        let mut pass = 0;
        while !eng.is_quiescent() && pass < 5_000 {
            eng.pass(&peers);
            pass += 1;
            peers.set_online_fraction(0.5, &mut rng);
            if drop {
                eng.drop_parked(&peers);
            }
        }
        (0..100).for_each(|p| {
            peers.set_online(PeerId(p), true);
        });
        eng.run_to_convergence(&mut peers, None);
        let err = error_stats::compare(eng.ranks(), &reference.ranks);
        table.push([
            if drop {
                "drop parked updates"
            } else {
                "store-and-resend (paper)"
            }
            .to_string(),
            format!("{:.1}", eng.ranks().iter().sum::<f64>()),
            format!("{:.2e}", err.avg),
        ]);
    }
    println!("{}", table.render());
    println!("dropping updates for offline peers loses rank mass permanently (Sec. 3.1)\n");
}

/// 5. The min-forward floor in incremental search.
fn ablation_min_forward_floor(seed: u64) {
    println!("== ablation 5: incremental-search min-forward floor ==\n");
    let corpus = Corpus::generate(&CorpusConfig {
        num_docs: 5_000,
        vocab_size: 800,
        seed,
        ..Default::default()
    });
    let graph = dpr_graph::powerlaw::PowerLawConfig::paper(5_000, seed ^ 2).generate();
    let mut eng =
        ChaoticEngine::local(std::sync::Arc::new(graph), EngineConfig::with_epsilon(1e-3));
    eng.run_static();
    let ring = dpr_p2p::ring::Ring::with_peers(50);
    let index = DistributedIndex::build(&corpus, eng.ranks(), &ring);
    let queries: Vec<Query> = generate_queries(&corpus, 3, 20, seed ^ 3)
        .into_iter()
        .map(Query::new)
        .collect();

    let mut table = TextTable::new(["floor", "avg reduction (x)", "avg hits returned"]);
    for floor in [1usize, 20, 100, 1000] {
        let cfg = IncrementalConfig {
            forward_fraction: 0.10,
            min_forward: floor,
            traffic: TrafficModel::AllHopsRemote,
        };
        let (mut red, mut hits) = (0.0, 0.0);
        for q in &queries {
            let b = execute_baseline(&index, q, TrafficModel::AllHopsRemote);
            let i = execute_incremental(&index, q, cfg);
            red += b.traffic_ids as f64 / i.traffic_ids.max(1) as f64;
            hits += i.hits_returned() as f64;
        }
        table.push([
            floor.to_string(),
            format!("{:.1}", red / queries.len() as f64),
            format!("{:.1}", hits / queries.len() as f64),
        ]);
    }
    println!("{}", table.render());
    println!("a higher floor returns more hits but erodes the traffic win (paper used 20)");
}

/// 6. Link-aware vs random document placement (paper Sec. 6).
fn ablation_link_aware_placement(nodes: usize, seed: u64) {
    println!("\n== ablation 6: link-aware vs random document placement ==\n");
    let mut table = TextTable::new([
        "placement",
        "remote links",
        "remote msgs",
        "local updates",
        "passes",
    ]);
    let spec = ScenarioSpec::new(nodes, 500, 1e-3, seed);
    for (name, w) in [
        ("random (paper Sec. 4.2)", spec.workload()),
        (
            "link-aware (Sec. 6)",
            Workload::build_link_aware(nodes, 500, seed, 6),
        ),
    ] {
        let remote_links: u64 = w.remote_links_per_peer().iter().sum();
        let run = spec.run(&w, Layer::Engine, Observe::new(&NOOP));
        table.push([
            name.to_string(),
            remote_links.to_string(),
            run.remote_messages.to_string(),
            run.local_updates.to_string(),
            run.steps.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("partitioning by link structure turns remote messages into free local updates");
}

/// 8. Per-peer aggregation × IP caching, on the message-level cluster.
///
/// One framed run per routing policy; its singles cell is the run's
/// unbatched shadow under the same policy (see `dpr_sim::batch`). When
/// tracing is on, the "frames + IP cache" run (the shipping
/// configuration) runs observed so the trace describes one coherent
/// run rather than two interleaved ones.
fn ablation_aggregation_grid(seed: u64, trace: &Reporter) {
    use dpr_sim::batch::WireTraffic;
    println!("\n== ablation 8: per-peer aggregation x IP caching ==\n");
    let spec = ScenarioSpec::new(2_000, 64, 1e-3, seed);
    let w = spec.workload();
    let mut table = TextTable::new([
        "wire mode",
        "payloads",
        "bytes on wire",
        "routed msgs",
        "hops/payload",
    ]);
    let [routed, cached] = [false, true].map(|cache| {
        let untraced = Observe::new(&NOOP as &dyn Recorder);
        let mut obs = if cache { trace.observe() } else { untraced };
        (obs.hops, obs.unbatched) = (Some(cache), Some(cache));
        let out = spec.run(&w, Layer::Cluster, obs);
        assert!(out.quiesced, "static cluster run must quiesce");
        out
    });
    assert_eq!(
        routed.ranks, cached.ranks,
        "all four cells must agree bitwise"
    );
    let [unbatched_routed, unbatched_cached] = [&routed, &cached].map(|o| o.unbatched.unwrap());
    let [routed, cached] = [&routed, &cached].map(|o| o.traffic.unwrap());
    let mut row = |name: &str, t: WireTraffic| {
        table.push([
            name.to_string(),
            t.payloads.to_string(),
            fmt_bytes(t.bytes_on_wire),
            t.routed_messages.to_string(),
            format!("{:.2}", t.routed_messages as f64 / t.payloads.max(1) as f64),
        ])
    };
    row("singles, route every msg", unbatched_routed);
    row("singles + IP cache", unbatched_cached);
    row("frames, route every frame", routed);
    row("frames + IP cache", cached);
    println!("{}", table.render());
    println!(
        "the two optimizations compose: aggregation divides the payload count,\n\
         caching divides the hops per payload — and neither moves a single rank bit"
    );
}
