//! The abstract's headline operational claim, measured: "Incremental
//! update enables continuously accurate pageranks whereas the
//! currently centralized web crawl and computation over Internet
//! documents requires several days."
//!
//! After initial convergence, documents are inserted continuously and
//! ranks are maintained *only* by incremental waves. At checkpoints we
//! compare against a full recompute of the grown graph: how far have
//! the maintained ranks drifted, and what would periodic recomputation
//! have cost instead?
//!
//! ```text
//! cargo run --release -p dpr-bench --bin continuous \
//!     [--nodes 20000] [--inserts 200] [--checkpoints 5] [--eps 1e-3] \
//!     [--sched pass|priority|greedy] [--json]
//! ```
//!
//! One of five switches selects a ledger sweep instead; each asserts
//! its gates and writes one `BENCH_*.json` of modelled units (messages,
//! bytes, virtual seconds, reductions — host seconds live in `perf/`):
//!
//! * `--regimes` → `BENCH_regimes.json`: the Sched × RunMode × Latency
//!   grid on the reference scenario — array engine, round-barrier
//!   cluster (default and dense sharding) and the chaotic runtime
//!   under every latency model, at the working ε and the strict
//!   parity ε, each cell converged once and compared against
//!   the pass-scheduled cell of its group and the round-barrier pass
//!   cluster. `[--nodes 10000] [--peers 500] [--eps 1e-3]
//!   [--parity-eps 1e-9]`
//! * `--bursts` → `BENCH_bursts.json`: insert and delete mutation
//!   bursts under the global per-document wave protocol and the
//!   SCC-localized merged-wave protocol. `[--nodes 10000] [--burst-eps
//!   1e-14] [--inserts 24] [--deletes 12]`
//! * `--scale` → `BENCH_scale.json`: the round-barrier cluster at a
//!   sweep of graph sizes under both wire codecs. `[--sizes
//!   10000,100000,1000000] [--peers 500] [--eps 1e-3]`
//! * `--batch-scaling` → `BENCH_node_batching.json`: the same cluster
//!   batched at a sweep of frame-size caps, and unbatched (the paper's
//!   24-byte message per update, charged as a shadow of the first
//!   framed run). `[--nodes 10000] [--peers 500] [--eps 1e-3]`
//! * `--serving` → `BENCH_serving.json`: a Poisson query stream served
//!   against the live rank computation under each latency model and
//!   query strategy. `[--nodes 2000] [--peers 32] [--queries 120]
//!   [--updates 24] [--qps 20] [--churn 0.8] [--vocab 400]`
//!
//! Every mode takes `--seed N`, and `--git-sha SHA` / `--stamp TS` (an
//! ISO-8601 timestamp): the driver-supplied provenance stamped into the
//! `meta` envelope of the record beside the scenario parameters and the
//! codec / run-mode / scheduler axes the rows cover.

use dpr_bench::{converged_runs, count, emit, paper_spec, reduction, run_cell, Cell};
use dpr_core::{RunMode, SchedMode};
use dpr_node::node::{WireMode, DEFAULT_MAX_FRAME_BYTES};
use dpr_p2p::transport::{WireCodec, RANK_UPDATE_WIRE_BYTES};
use dpr_sim::event::LatencyModel;
use dpr_sim::flags::{Args, Reporter};
use dpr_sim::scenario::continuous_update_experiment;
use dpr_sim::spec::{Layer, Observe, ScenarioSpec};
use dpr_telemetry::fmt::{fmt_bytes, fmt_eps};
use dpr_telemetry::table::TextTable;
use serde::Serialize;

fn regimes(args: &Args) -> Result<(), String> {
    use LatencyModel::{Broadband, Lan, Modem};
    use SchedMode::{Greedy, Pass, Priority};
    let spec = paper_spec(args, 10_000, &["nodes", "peers", "eps", "seed", "codec"])?;
    let (nodes, peers_n, eps) = (spec.nodes, spec.num_peers, spec.epsilon);
    let parity_eps: f64 = args.get("parity-eps", 1e-9)?;
    positive("parity-eps", parity_eps)?;
    let w = spec.workload();
    println!(
        "Regime grid ({nodes} docs, {peers_n} peers, working eps {eps}, \
         parity eps {parity_eps})\n"
    );
    let rounds = |epsilon| ScenarioSpec {
        epsilon,
        run_mode: RunMode::Rounds,
        ..spec
    };
    let chaotic = |epsilon, latency| ScenarioSpec {
        epsilon,
        latency,
        run_mode: RunMode::Chaotic,
        ..spec
    };
    // ~250 docs per peer instead of the paper's 20.
    let dense = ScenarioSpec {
        num_peers: (nodes / 250).max(4),
        ..rounds(eps)
    };
    let (all, two) = (&[Pass, Priority, Greedy][..], &[Pass, Priority][..]);
    // The grid: each group is one (layer, run mode, latency, ε,
    // sharding) point under its schedulers, pass first. The engine
    // reads only ε and the scheduler of its spec.
    let grid = [
        (Layer::Engine, rounds(eps), all),
        (Layer::Engine, rounds(parity_eps), two),
        (Layer::Cluster, rounds(parity_eps), two),
        (Layer::Cluster, rounds(eps), two),
        (Layer::Cluster, dense, two),
        (Layer::Cluster, chaotic(eps, Modem), all),
        (Layer::Cluster, chaotic(eps, Broadband), all),
        (Layer::Cluster, chaotic(eps, Lan), all),
        (Layer::Cluster, chaotic(parity_eps, Broadband), two),
    ];
    // Every cell is converged once and compared against the pass cell
    // of its group and — on the reference sharding — against the
    // round-barrier pass cluster at its ε.
    let dense_w = dense.workload();
    let groups = grid.map(|(layer, at, scheds)| {
        let reference = at.num_peers == peers_n;
        let w = if reference { &w } else { &dense_w };
        let cells = scheds.iter().map(|&sched| ScenarioSpec { sched, ..at });
        let cells: Vec<_> = cells.map(|cell| run_cell(w, layer, &cell)).collect();
        let rd = ScenarioSpec {
            sched: Pass,
            ..rounds(at.epsilon)
        };
        let rd = reference.then(|| run_cell(w, Layer::Cluster, &rd));
        let compared = cells.iter().map(|c| {
            let (saved, gap) = c.versus(&cells[0]);
            Cell {
                msg_reduction_vs_pass: Some(saved),
                l1_per_doc_vs_pass: Some(gap),
                l1_per_doc_vs_rounds: rd.as_ref().map(|rd| c.versus(rd).1),
                ..Cell::clone(c)
            }
        });
        compared.collect::<Vec<Cell>>()
    });
    let [engine, engine_strict, strict, working, dense, modem, broadband, lan, matched] = &groups;
    let saved = |c: &Cell| c.msg_reduction_vs_pass.expect("compared");
    let gap = |c: &Cell| c.l1_per_doc_vs_pass.expect("compared");

    // 1. The array engine at the working ε. The headline: the same
    // fixed point for >= 25 % fewer remote messages, because
    // residual-ordered pushes stop low-value re-advertisements from
    // ever reaching the wire — and greedy's exact budget cut spends no
    // more than priority's bucket boundary.
    let engine_saved = saved(&engine[1]);
    assert!(
        engine_saved >= 0.25,
        "priority must cut remote messages >= 25% at eps {eps}, got {:.1}%",
        100.0 * engine_saved
    );
    let [e_pass, e_pri, e_greedy] = [0, 1, 2].map(|i| engine[i].remote_messages);
    assert!(
        e_greedy < e_pass && e_greedy <= e_pri,
        "engine greedy must beat pass and not exceed priority: \
         greedy {e_greedy} vs priority {e_pri} vs pass {e_pass}"
    );

    // 2. Rank parity at the strict ε: vs the pass schedule the gap is
    // O(ε) per document — on the engine, and on the message-level
    // cluster, where deferred residual mass interoperates with flush
    // scheduling and store-and-resend.
    for (layer, pair) in [("engine", engine_strict), ("cluster", strict)] {
        let l1 = gap(&pair[1]);
        assert!(l1 <= 1e-9, "{layer} parity: l1 per doc {l1:e} exceeds 1e-9");
    }

    // 3. The round-barrier cluster. At the paper's reference sharding
    // each peer holds only nodes/peers documents — below the bypass
    // threshold the priority queue degenerates to the full sweep by
    // design, and every round sweeps every peer regardless of residual,
    // so the update count may only tie, never regress (the 0 % the
    // chaotic rows beat). At the denser sharding the per-peer residual
    // queues clear the threshold: selection engages at the node layer
    // too and the wire itself carries strictly fewer logical updates.
    for pair in [strict, working, dense] {
        let (pass, pri) = (pair[0].remote_messages, pair[1].remote_messages);
        assert!(
            pri <= pass && (pri < pass || pair[0].peers == peers_n),
            "cluster ({} peers) priority {pri} vs pass {pass} updates",
            pair[0].peers
        );
    }

    // 4. The chaotic runtime across latency distributions. Event-driven
    // stepping gives the selective schedules something rounds never
    // did: *when* to step. Hot peers (residual mass far above ε) step
    // as soon as their Eq. 4 compute time allows; cold peers hold a
    // coalescing window so late-arriving updates merge into one step.
    // Priority must show a strictly positive reduction under every
    // latency model, and greedy's tighter selection must win or tie
    // priority (while beating pass) in at least one.
    let (mut best, mut greedy_wins) = (0.0f64, 0);
    for cells in [modem, broadband, lan] {
        let [pass, pri, greedy] = [0, 1, 2].map(|i| cells[i].remote_messages);
        assert!(
            saved(&cells[1]) > 0.0,
            "chaotic {}: priority must strictly cut remote messages, \
             got {:.1}% ({pri} vs {pass})",
            cells[1].latency,
            100.0 * saved(&cells[1])
        );
        best = best.max(saved(&cells[1]));
        greedy_wins += usize::from(greedy <= pri && greedy < pass);
    }
    assert!(
        greedy_wins >= 1,
        "greedy must beat or match priority's remote messages (while beating pass) \
         in at least one latency model"
    );

    // 5. Matched error at the strict ε: the reductions above are only
    // meaningful if chaotic mode lands on the same fixed point. Both
    // chaotic schedules must sit within 1e-9/doc of the round-barrier
    // pass cluster — stronger (by the triangle inequality) than merely
    // matching its distance to the sync solution.
    for c in matched {
        let l1 = c.l1_per_doc_vs_rounds.expect("compared");
        assert!(
            l1 <= 1e-9,
            "matched error: chaotic {} l1 per doc {l1:e} vs rounds exceeds 1e-9 \
             at eps {parity_eps}",
            c.sched
        );
    }

    // 6. The shared matched-error band of the working-ε rows:
    // per-document quiescence residual < ε amplifies through the damped
    // link structure by at most d/(1−d) ≈ 5.7×, so 10ε bounds every
    // scheduler's honest distance to the synchronous fixed point — the
    // message counts compare equal answers.
    let rows = groups.concat();
    let band = 10.0 * eps;
    for r in rows.iter().filter(|r| r.epsilon == eps) {
        assert!(
            r.l1_per_doc_vs_sync <= band,
            "{} {} {} {}: l1 per doc vs sync {:e} escapes the 10eps band {band:e}",
            r.layer,
            r.run_mode,
            r.latency,
            r.sched,
            r.l1_per_doc_vs_sync
        );
    }

    let mut table = TextTable::new([
        "layer",
        "mode",
        "latency",
        "sched",
        "wire",
        "peers",
        "eps",
        "steps",
        "deliveries",
        "remote msgs",
        "virtual s",
        "cmp/wire/wait",
        "reduction",
        "l1/doc vs pass",
        "l1/doc vs rounds",
    ]);
    let dash = || "-".to_string();
    for r in &rows {
        table.push([
            r.layer.clone(),
            r.run_mode.clone(),
            r.latency.clone(),
            r.sched.clone(),
            r.wire.clone(),
            r.peers.to_string(),
            fmt_eps(r.epsilon),
            r.steps.to_string(),
            r.deliveries.to_string(),
            r.remote_messages.to_string(),
            r.virtual_secs.map_or_else(dash, |s| format!("{s:.2}")),
            match (r.compute_pct, r.wire_pct, r.wait_pct) {
                (Some(c), Some(wi), Some(wa)) => format!("{c:.0}/{wi:.0}/{wa:.0}%"),
                _ => dash(),
            },
            format!("{:.1}%", 100.0 * saved(r)),
            format!("{:.1e}", gap(r)),
            r.l1_per_doc_vs_rounds
                .map_or_else(dash, |l| format!("{l:.1e}")),
        ]);
    }
    let table = format!(
        "{}\n({} rows from {} converged runs. Engine-layer priority reduction at eps \
         {eps}: {:.1}%; best chaotic\n cluster reduction: {:.1}% — {:.0}% of the engine win \
         recovered at the cluster layer, vs 0% under\n round barriers. Deferred residual \
         mass is never lost — quiescence still means no residual\n above eps.)\n",
        table.render(),
        rows.len(),
        converged_runs(),
        100.0 * engine_saved,
        100.0 * best,
        100.0 * best / engine_saved.max(1e-12)
    );
    let params = format!(
        "nodes={nodes} peers={peers_n} eps={eps} parity_eps={parity_eps} seed={}",
        spec.seed
    );
    let codec = spec.codec.to_string();
    let axes = [&codec, "passes+rounds+chaotic", "pass+priority+greedy"];
    emit(args, "BENCH_regimes", params, axes, rows, &table)
}

/// One row of `BENCH_bursts.json`: one mutation burst (`insert` or
/// `delete`) replayed under one strategy (`global` per-document waves,
/// or one `localized` merged wave) at the strict burst ε. `steps` is
/// the wave's node coverage, `remote_messages` its update messages;
/// `max_doc_gap_vs_global` is the largest per-document rank gap to the
/// global protocol, and the cone columns are the SCC downstream cone
/// the localized wave was certified against.
#[derive(Debug, Clone, Serialize)]
struct BurstRow {
    burst: String,
    strategy: String,
    epsilon: f64,
    steps: u64,
    remote_messages: u64,
    msg_reduction_vs_global: f64,
    max_doc_gap_vs_global: f64,
    cone_docs: Option<usize>,
    cone_components: Option<usize>,
}

/// `--bursts`: the global Sec. 3.1 protocol (one wave per document,
/// swept over the whole graph) vs the SCC-localized protocol (one
/// merged wave per burst, certified against the condensation-DAG
/// downstream cone). Same strict ε on both sides, so the parity gap is
/// pure wave-merging truncation — O(ε × generations), held under
/// 1e-9/doc — while the merged wave must generate strictly fewer
/// update messages.
fn bursts(args: &Args) -> Result<(), String> {
    use dpr_core::incremental::{
        delete_burst, delete_document, insert_burst, insert_document, BurstStats,
        PropagationConfig, PropagationStats,
    };
    use dpr_graph::scc::SccIndex;
    use dpr_graph::{DocId, DynamicGraph};

    let spec = paper_spec(args, 10_000, &["nodes", "seed"])?;
    let nodes = spec.nodes;
    let burst_eps: f64 = args.get("burst-eps", 1e-14)?;
    positive("burst-eps", burst_eps)?;
    let inserts: usize = args.get("inserts", 24)?;
    let deletes: usize = args.get("deletes", 12)?.min(inserts);
    println!(
        "Mutation bursts ({nodes} docs, burst eps {burst_eps}, {inserts} inserts / \
         {deletes} deletes)\n"
    );
    let cfg = PropagationConfig {
        damping: dpr_core::DEFAULT_DAMPING,
        epsilon: burst_eps,
    };
    // xorshift64* link picks: deterministic in the seed, no rand dep.
    let mut state = spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let batches: Vec<Vec<DocId>> = (0..inserts)
        .map(|_| {
            (0..1 + (next() % 4) as usize)
                .map(|_| DocId((next() % nodes as u64) as u32))
                .collect()
        })
        .collect();

    let mut rows: Vec<BurstRow> = Vec::new();
    // Gates one burst and records its two rows: `global` folds the
    // per-document waves, `local` is the merged wave, and the rank
    // vectors are what each strategy maintained.
    let mut record =
        |burst: &str, global: PropagationStats, local: BurstStats, g: &[f64], l: &[f64]| {
            assert!(
                local.wave.messages < global.messages,
                "localized {burst} burst must generate strictly fewer update messages: {} vs {}",
                local.wave.messages,
                global.messages
            );
            let parity = g
                .iter()
                .zip(l)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                parity <= 1e-9,
                "{burst} burst parity: max per-doc gap {parity:e} exceeds 1e-9"
            );
            let cone = (local.cone_docs, local.cone_components);
            for (strategy, wave, gap, cone) in [
                ("global", &global, 0.0, None),
                ("localized", &local.wave, parity, Some(cone)),
            ] {
                rows.push(BurstRow {
                    burst: burst.into(),
                    strategy: strategy.into(),
                    epsilon: burst_eps,
                    steps: wave.node_coverage as u64,
                    remote_messages: wave.messages,
                    msg_reduction_vs_global: reduction(wave.messages, global.messages),
                    max_doc_gap_vs_global: gap,
                    cone_docs: cone.map(|(d, _)| d),
                    cone_components: cone.map(|(_, c)| c),
                });
            }
        };
    let fold = |mut sum: PropagationStats, s: PropagationStats| {
        sum.messages += s.messages;
        sum.node_coverage += s.node_coverage;
        sum.path_length = sum.path_length.max(s.path_length);
        sum
    };

    let mut g_graph = DynamicGraph::from_csr(&spec.workload().graph);
    let mut l_graph = g_graph.clone();
    let mut index = SccIndex::new(&l_graph);
    let (mut g_ranks, mut l_ranks) = (vec![1.0f64; nodes], vec![1.0f64; nodes]);

    eprintln!("  … insert burst, global per-document waves, eps {burst_eps}");
    let global = batches
        .iter()
        .fold(PropagationStats::default(), |sum, links| {
            fold(
                sum,
                insert_document(&mut g_graph, links, &mut g_ranks, cfg).1,
            )
        });
    eprintln!("  … insert burst, SCC-localized merged wave, eps {burst_eps}");
    let (new_ids, local) = insert_burst(&mut l_graph, &mut index, &batches, &mut l_ranks, cfg);
    record("insert", global, local, &g_ranks, &l_ranks);

    eprintln!("  … delete burst, global per-document waves, eps {burst_eps}");
    let victims: Vec<DocId> = new_ids.iter().take(deletes).copied().collect();
    let global = victims.iter().fold(PropagationStats::default(), |sum, &d| {
        fold(sum, delete_document(&mut g_graph, d, &mut g_ranks, cfg))
    });
    eprintln!("  … delete burst, SCC-localized merged wave, eps {burst_eps}");
    let local = delete_burst(&mut l_graph, &mut index, &victims, &mut l_ranks, cfg);
    record("delete", global, local, &g_ranks, &l_ranks);

    let mut table = TextTable::new([
        "burst",
        "strategy",
        "eps",
        "steps",
        "remote msgs",
        "reduction",
        "max gap",
        "cone docs",
    ]);
    for r in &rows {
        table.push([
            r.burst.clone(),
            r.strategy.clone(),
            fmt_eps(r.epsilon),
            r.steps.to_string(),
            r.remote_messages.to_string(),
            format!("{:.1}%", 100.0 * r.msg_reduction_vs_global),
            format!("{:.1e}", r.max_doc_gap_vs_global),
            r.cone_docs.map_or("-".into(), |d| d.to_string()),
        ]);
    }
    let table = format!(
        "{}\n(both strategies hold 1e-9/doc parity while the localized merged wave never\n \
         leaves its certified SCC downstream cone)\n",
        table.render()
    );
    let params = format!(
        "nodes={nodes} burst_eps={burst_eps} inserts={inserts} deletes={deletes} seed={}",
        spec.seed
    );
    let axes = ["none", "waves", "global+localized"];
    emit(args, "BENCH_bursts", params, axes, rows, &table)
}

/// `--scale`: two cells per graph size — the message-level cluster run
/// to quiescence under the raw and the compact codec. The codec only
/// changes frame encoding, never the schedule; the compact cell must
/// carry at least 30 % fewer payload bytes.
fn scale(args: &Args) -> Result<(), String> {
    let sizes = dpr_bench::sizes(args, &[10_000, 100_000, 1_000_000])?;
    let spec = paper_spec(args, sizes[0], &["peers", "eps", "seed", "sched"])?;
    let (peers_n, eps) = (spec.num_peers, spec.epsilon);

    println!("Wire-codec scale sweep ({peers_n} peers, eps {eps}, sizes {sizes:?})\n");
    let mut rows: Vec<Cell> = Vec::with_capacity(2 * sizes.len());
    let mut table = TextTable::new([
        "docs",
        "rounds",
        "raw B/doc",
        "compact B/doc",
        "byte reduction",
    ]);
    for docs in sizes {
        let under = |codec| ScenarioSpec {
            nodes: docs,
            codec,
            ..spec
        };
        let w = under(WireCodec::Raw).workload();
        let raw = run_cell(&w, Layer::Cluster, &under(WireCodec::Raw));
        let compact = run_cell(&w, Layer::Cluster, &under(WireCodec::Compact));
        let entries = |c: &Cell| c.traffic.expect("rounds cell").entries;
        assert_eq!(raw.steps, compact.steps, "{docs} docs");
        assert_eq!(entries(&raw), entries(&compact), "{docs} docs");
        let saved = reduction(compact.wire_bytes, raw.wire_bytes);
        assert!(
            saved >= 0.30,
            "{docs} docs: compact must cut payload bytes >= 30%, got {:.1}%",
            100.0 * saved
        );
        table.push([
            docs.to_string(),
            raw.steps.to_string(),
            format!("{:.1}", raw.wire_bytes_per_doc),
            format!("{:.1}", compact.wire_bytes_per_doc),
            format!("{:.1}%", 100.0 * saved),
        ]);
        for (cell, saved) in [(&raw, 0.0), (&compact, saved)] {
            rows.push(Cell {
                byte_reduction_vs_raw: Some(saved),
                ..Cell::clone(cell)
            });
        }
    }
    let table = format!(
        "{}\n(compact frames carry varint-delta doc ids and f32 values; ranks stay\n\
         within the pinned L1 parity bound of the raw codec at every size)\n",
        table.render()
    );
    let params = format!("peers={peers_n} eps={eps} seed={}", spec.seed);
    let axes = ["raw+compact", "rounds", &spec.sched.to_string()];
    emit(args, "BENCH_scale", params, axes, rows, &table)
}

/// One row of `BENCH_node_batching.json`: a full cluster convergence
/// run at one frame-size cap. `max_frame_bytes == 0` is the unbatched
/// baseline — the paper's one 24-byte message per entry, charged as the
/// shadow of the first framed run (`dpr_sim::batch`), not a cap.
/// `baseline_bytes` is the paper's 24-bytes-per-entry charge for the
/// same wire-crossing updates.
#[derive(Debug, Clone, Serialize)]
struct FrameCapRow {
    max_frame_bytes: usize,
    updates: u64,
    entries: u64,
    frames: u64,
    payloads: u64,
    bytes_on_wire: u64,
    baseline_bytes: u64,
    routed_messages: u64,
    routed_reduction: f64,
    byte_reduction: f64,
}

fn batch_scaling(args: &Args) -> Result<(), String> {
    let spec = paper_spec(
        args,
        10_000,
        &["nodes", "peers", "eps", "seed", "sched", "codec"],
    )?;
    let (nodes, peers_n, eps) = (spec.nodes, spec.num_peers, spec.epsilon);
    let w = spec.workload();
    // 36 B = 2 entries/frame (the worst useful cap) up to 64 KiB
    // (effectively uncapped at this scale); 1400 B is the default
    // Ethernet-MTU-ish cap.
    let caps = [36usize, 164, DEFAULT_MAX_FRAME_BYTES, 65_536];
    let at = |max_frame_bytes| ScenarioSpec {
        wire: WireMode { max_frame_bytes },
        ..spec
    };

    println!("Frame-cap scaling on the message-level cluster ({nodes} docs, {peers_n} peers, eps {eps})\n");
    let run = |cap, unbatched| {
        let mut obs = Observe::new(&dpr_telemetry::NOOP);
        (obs.hops, obs.unbatched) = (Some(true), unbatched);
        let out = at(cap).run(&w, Layer::Cluster, obs);
        assert!(out.quiesced, "static cluster run must quiesce");
        out
    };
    // The unbatched row (cap 0) is the shadow of the first framed run.
    let first = run(caps[0], Some(false));
    let unbatched = first.unbatched.expect("charged with its shadow");
    let framed = first.traffic.expect("a cluster run");
    let mut runs = vec![(0, unbatched), (caps[0], framed)];
    for &cap in &caps[1..] {
        let out = run(cap, None);
        assert_eq!(
            first.ranks, out.ranks,
            "frame caps must converge to bit-identical ranks"
        );
        runs.push((cap, out.traffic.expect("a cluster run")));
    }
    let rows: Vec<FrameCapRow> = runs
        .into_iter()
        .map(|(max_frame_bytes, t)| {
            let baseline_bytes = RANK_UPDATE_WIRE_BYTES as u64 * t.entries;
            assert!(
                max_frame_bytes == 0 || t.bytes_on_wire < baseline_bytes,
                "cap {max_frame_bytes}: frame bytes must beat the 24-byte-per-update baseline"
            );
            FrameCapRow {
                max_frame_bytes,
                updates: t.updates,
                entries: t.entries,
                frames: t.frames,
                payloads: t.payloads,
                bytes_on_wire: t.bytes_on_wire,
                baseline_bytes,
                routed_messages: t.routed_messages,
                routed_reduction: unbatched.routed_messages as f64
                    / t.routed_messages.max(1) as f64,
                byte_reduction: baseline_bytes as f64 / t.bytes_on_wire.max(1) as f64,
            }
        })
        .collect();
    let default_row = rows
        .iter()
        .find(|r| r.max_frame_bytes == DEFAULT_MAX_FRAME_BYTES)
        .expect("default cap is in the sweep");
    assert!(
        default_row.routed_reduction >= 5.0,
        "default cap must cut routed transport messages at least 5x, got {:.1}x",
        default_row.routed_reduction
    );

    let mut table = TextTable::new([
        "frame cap",
        "entries",
        "frames",
        "payloads",
        "bytes on wire",
        "routed msgs",
        "reduction",
    ]);
    for r in &rows {
        table.push([
            if r.max_frame_bytes == 0 {
                "unbatched".to_string()
            } else {
                format!("{} B", r.max_frame_bytes)
            },
            r.entries.to_string(),
            r.frames.to_string(),
            r.payloads.to_string(),
            fmt_bytes(r.bytes_on_wire),
            r.routed_messages.to_string(),
            format!("{:.1}x", r.routed_reduction),
        ]);
    }
    let table = format!(
        "{}\n(every cap converges to bit-identical ranks; only the wire framing moves)\n",
        table.render()
    );
    let params = format!("nodes={nodes} peers={peers_n} eps={eps} seed={}", spec.seed);
    let axes = [&spec.codec.to_string(), "rounds", &spec.sched.to_string()];
    emit(args, "BENCH_node_batching", params, axes, rows, &table)
}

/// `--serving`: the serving-path workload. Serves a Poisson query
/// stream against the live rank computation — concurrent updates and
/// transient churn included — under each latency model and each of the
/// three query strategies (baseline full transfer, top-10 %
/// incremental, Bloom-assisted intersection), and records the latency
/// quantiles, per-query hop/byte averages, the rank-staleness gauge,
/// and the SLO verdicts. Gates enforced here: the incremental and Bloom
/// strategies must move less traffic than the baseline, every run's
/// SLO verdict must pass, serving must be deterministic per seed, and
/// telemetry must not perturb the served run (bit-identical schedule
/// fingerprint and quantiles with the recorder on).
fn serving(args: &Args) -> Result<(), String> {
    use dpr_sim::serving::{serving_experiment, ServeStrategy, ServingConfig, ServingReport};
    use dpr_telemetry::{SloSpec, TraceRecorder};

    let spec = dpr_bench::spec(
        args,
        &ScenarioSpec::new(2_000, 32, 1e-4, 2003),
        &["nodes", "peers", "eps", "seed", "sched"],
    )?;
    let (nodes, peers_n, eps) = (spec.nodes, spec.num_peers, spec.epsilon);
    let queries = count(args, "queries", 120)?;
    let updates: usize = args.get("updates", 24)?;
    let qps: f64 = args.get("qps", 20.0)?;
    let churn: f64 = args.get("churn", 0.8)?;
    let vocab = args.get("vocab", 400)?;
    println!(
        "Serving-path workload ({nodes} docs, {peers_n} peers, {queries} queries at \
         {qps} qps, {updates} concurrent updates, churn {churn})\n"
    );

    let base_cfg = |latency: LatencyModel, strategy: ServeStrategy| ServingConfig {
        num_docs: nodes,
        vocab_size: vocab,
        num_peers: peers_n,
        queries,
        query_len: 2,
        qps,
        updates,
        churn_fraction: churn,
        strategy,
        latency,
        sched: spec.sched,
        epsilon: eps,
        seed: spec.seed,
        // The bench SLO: p99 within 60 s of virtual time on every
        // window — generous enough for modem, real enough to catch a
        // latency-model regression by orders of magnitude.
        slos: vec![SloSpec::new("p99-latency", 0.99, 60_000_000_000, 0.0)],
        window_ns: 2_000_000_000,
    };
    let incremental = ServeStrategy::Incremental {
        forward_fraction: 0.10,
    };

    let mut rows: Vec<ServingReport> = Vec::new();
    for latency in [
        LatencyModel::Lan,
        LatencyModel::Broadband,
        LatencyModel::Modem,
    ] {
        for strategy in [ServeStrategy::Baseline, incremental, ServeStrategy::Bloom] {
            let run = serving_experiment(&base_cfg(latency, strategy), &dpr_telemetry::NOOP);
            assert!(run.report.quiesced, "serving run must quiesce");
            assert!(
                run.report.slo_pass,
                "{latency}/{strategy}: bench SLO verdict failed"
            );
            rows.push(run.report);
        }
        let [base, cheaper @ ..] = &rows[rows.len() - 3..] else {
            unreachable!("three strategies per latency")
        };
        for r in cheaper {
            assert!(
                r.total_traffic_ids < base.total_traffic_ids,
                "{latency}: {} traffic {} must undercut baseline {}",
                r.strategy,
                r.total_traffic_ids,
                base.total_traffic_ids
            );
        }
    }

    // Determinism + zero perturbation, pinned at bench scale: the same
    // config re-served (with telemetry on) reproduces the schedule
    // fingerprint and every latency quantile bit for bit.
    let pin = rows
        .iter()
        .find(|r| r.latency == "broadband" && r.strategy == "incremental")
        .expect("pinned row exists");
    let rec = TraceRecorder::new();
    let again = serving_experiment(&base_cfg(LatencyModel::Broadband, incremental), &rec).report;
    assert_eq!(pin.schedule_fnv, again.schedule_fnv, "schedule perturbed");
    assert_eq!(
        (pin.p50_ns, pin.p95_ns, pin.p99_ns, pin.p999_ns),
        (again.p50_ns, again.p95_ns, again.p99_ns, again.p999_ns),
        "quantiles perturbed"
    );
    assert_eq!(pin.total_traffic_ids, again.total_traffic_ids);
    assert!(
        rec.events()
            .iter()
            .any(|e| matches!(e, dpr_telemetry::Event::ServingHealth { .. })),
        "traced serving run must emit serving_health"
    );

    let mut table = TextTable::new([
        "latency",
        "strategy",
        "p50 ms",
        "p99 ms",
        "p999 ms",
        "hops/q",
        "bytes/q",
        "traffic ids",
        "stale p99 ppm",
        "slo",
    ]);
    for r in &rows {
        table.push([
            r.latency.clone(),
            r.strategy.clone(),
            format!("{:.1}", r.p50_ns as f64 / 1e6),
            format!("{:.1}", r.p99_ns as f64 / 1e6),
            format!("{:.1}", r.p999_ns as f64 / 1e6),
            format!("{:.1}", r.avg_hops),
            fmt_bytes(r.avg_bytes as u64),
            r.total_traffic_ids.to_string(),
            r.stale_p99_ppm.to_string(),
            if r.slo_pass {
                "pass".into()
            } else {
                "FAIL".into()
            },
        ]);
    }
    let table = format!(
        "{}\n(every row serves the same schedule: queries never perturb the rank\n\
         computation, and the incremental/bloom strategies undercut baseline\n\
         traffic under every latency model — the paper's Sec. 2.4.3 cut, held\n\
         under concurrent updates and churn)\n",
        table.render()
    );
    let params = format!(
        "nodes={nodes} peers={peers_n} queries={queries} qps={qps} updates={updates} \
         churn={churn} eps={eps} seed={}",
        spec.seed
    );
    let sched = spec.sched.to_string();
    emit(
        args,
        "BENCH_serving",
        params,
        ["raw", "chaotic+serving", &sched],
        rows,
        &table,
    )
}

/// The default mode: drift of incrementally maintained ranks.
fn continuous_accuracy(args: &Args) -> Result<(), String> {
    let trace = Reporter::from_args(args)?;
    let spec = paper_spec(args, 20_000, &["nodes", "peers", "eps", "seed", "sched"])?;
    let (nodes, eps) = (spec.nodes, spec.epsilon);
    let inserts: usize = args.get("inserts", 200)?;
    let checkpoints: usize = args.get("checkpoints", 5)?;
    if checkpoints == 0 || inserts < checkpoints {
        return Err("--inserts must be at least --checkpoints, and that at least 1".into());
    }

    println!(
        "Continuous accuracy under document churn \
         ({nodes} docs, {inserts} inserts, eps {eps})\n"
    );
    let points = continuous_update_experiment(&spec, inserts, checkpoints, trace.recorder());

    let mut table = TextTable::new([
        "inserts",
        "avg rel err",
        "max rel err",
        "wave msgs (cum.)",
        "one recompute",
    ]);
    for p in &points {
        table.push([
            p.inserts.to_string(),
            format!("{:.2e}", p.avg_rel_error),
            format!("{:.2e}", p.max_rel_error),
            p.wave_messages.to_string(),
            p.recompute_messages.to_string(),
        ]);
    }
    let last = points.last().expect("at least one checkpoint");
    let table = format!(
        "{}\nafter {} inserts the incrementally maintained ranks sit at {:.2e} average\n\
         relative error from a from-scratch solve — and maintaining them cost {} \n\
         messages total, vs {} for a single recompute (which a crawler-based\n\
         pipeline would have to repeat every cycle).\n",
        table.render(),
        last.inserts,
        last.avg_rel_error,
        last.wave_messages,
        last.recompute_messages
    );
    let sched = spec.sched.to_string();
    let params = format!(
        "nodes={nodes} inserts={inserts} eps={eps} sched={sched} seed={}",
        spec.seed
    );
    emit(
        args,
        "continuous",
        params,
        ["none", "rounds", &sched],
        points,
        &table,
    )?;
    trace.finish()
}

/// Refuses a threshold flag that is not a finite, positive number.
fn positive(flag: &str, value: f64) -> Result<(), String> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(format!("--{flag} must be finite and positive, got {value}"))
    }
}

fn main() {
    dpr_bench::main(|args| {
        if args.has("regimes") {
            regimes(args)
        } else if args.has("bursts") {
            bursts(args)
        } else if args.has("scale") {
            scale(args)
        } else if args.has("batch-scaling") {
            batch_scaling(args)
        } else if args.has("serving") {
            serving(args)
        } else {
            continuous_accuracy(args)
        }
    })
}
