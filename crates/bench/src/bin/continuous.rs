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
//! With `--batch-scaling`, runs the message-level cluster on the
//! Table 3 default scenario unbatched and then batched at a sweep of
//! frame-size caps, asserts every cap converges to bit-identical
//! ranks, and writes `BENCH_node_batching.json` (frames, measured
//! bytes vs the 24-byte baseline, routed overlay transmissions, and
//! the reduction factors per cap):
//!
//! ```text
//! cargo run --release -p dpr-bench --bin continuous -- --batch-scaling \
//!     [--nodes 10000] [--peers 500] [--eps 1e-3] [--seed N]
//! ```
//!
//! With `--scale`, runs the message-level cluster to quiescence at a
//! sweep of graph sizes (default 10k/100k/1M documents) under both
//! wire codecs and writes `BENCH_scale.json`: convergence throughput
//! (doc·rounds per second under the raw codec) and measured payload
//! bytes per document for raw vs compact frames, asserting the compact
//! codec cuts bytes/doc by at least 30% at every size:
//!
//! ```text
//! cargo run --release -p dpr-bench --bin continuous -- --scale \
//!     [--sizes 10000,100000,1000000] [--peers 500] [--eps 1e-3] [--seed N]
//! ```
//!
//! With `--sched-scaling`, measures the residual-driven priority
//! scheduler against the classic full-sweep pass scheduler on the
//! reference scenario and writes `BENCH_sched_quality.json`: the
//! remote-message saving at the working ε, rank parity (per-document
//! L1 vs the pass engine) at the strict parity ε, and the
//! message-level cluster under both wire modes:
//!
//! ```text
//! cargo run --release -p dpr-bench --bin continuous -- --sched-scaling \
//!     [--nodes 10000] [--peers 500] [--eps 1e-3] [--parity-eps 1e-9] \
//!     [--skip-cluster] [--seed N]
//! ```
//!
//! With `--async-scaling`, measures the event-driven chaotic runtime
//! against the round-barrier cluster and writes `BENCH_async.json`:
//! priority-vs-pass remote-message reduction at the cluster layer
//! under each latency model (strictly positive by assertion, where the
//! rounds rows show ~0% at the same density), virtual
//! wall-clock-to-convergence across latency distributions, and
//! matched-error rows at the strict parity ε showing chaotic mode
//! lands within 1e-9/doc of the round-barrier fixed point:
//!
//! ```text
//! cargo run --release -p dpr-bench --bin continuous -- --async-scaling \
//!     [--nodes 10000] [--peers 500] [--eps 1e-3] [--parity-eps 1e-9] \
//!     [--seed N]
//! ```
//!
//! With `--accel-scaling`, measures the PR's two update accelerators
//! together and writes `BENCH_accel.json`. The `clean` rows run the
//! greedy matching-pursuit scheduler against pass and priority on full
//! convergence runs — the sequential engine plus the chaotic cluster
//! under every latency model — at matched L1-vs-sync error, asserting
//! greedy beats or matches priority's remote-message count in at least
//! one latency model. The `burst` rows replay insert and delete
//! mutation bursts under the global per-document wave protocol and the
//! SCC-localized merged-wave protocol, asserting the localized bursts
//! generate strictly fewer update messages at ≤ 1e-9/doc rank parity:
//!
//! ```text
//! cargo run --release -p dpr-bench --bin continuous -- --accel-scaling \
//!     [--nodes 10000] [--peers 500] [--eps 1e-3] [--burst-eps 1e-14] \
//!     [--inserts 24] [--deletes 12] [--seed N]
//! ```
//!
//! Every mode additionally accepts `--git-sha SHA` and `--stamp TS`
//! (an ISO-8601 timestamp): the driver-supplied provenance stamped
//! into the shared `meta` envelope of each BENCH_*.json, alongside the
//! scenario parameters and the codec/run-mode/scheduler axes the rows
//! cover.

use dpr_bench::Args;
use dpr_core::engine::{ChaoticEngine, EngineConfig};
use dpr_core::sync_solver::SyncSolver;
use dpr_core::SchedMode;
use dpr_node::node::{WireMode, DEFAULT_MAX_FRAME_BYTES};
use dpr_sim::batch::{compare_runs, run_wire_mode};
use dpr_sim::event::{ChaoticOutcome, LatencyModel};
use dpr_sim::flight::profile_run;
use dpr_sim::report::{results_dir, BenchMeta, ExperimentRecord};
use dpr_sim::scenario::continuous_update_experiment;
use dpr_sim::spec::ScenarioSpec;
use dpr_sim::workload::Workload;
use dpr_telemetry::fmt::{fmt_bytes, fmt_eps};
use dpr_telemetry::table::TextTable;
use dpr_telemetry::Profile;
use serde::Serialize;

/// The provenance envelope every BENCH_*.json is stamped with. The
/// commit and timestamp come from the driver (`--git-sha`, `--stamp`);
/// the binary never guesses them.
fn bench_meta(
    args: &Args,
    scenario: String,
    codec: &str,
    run_mode: &str,
    sched: &str,
) -> BenchMeta {
    BenchMeta::default()
        .provenance(
            args.get::<String>("git-sha", "unknown".into()),
            args.get::<String>("stamp", "unknown".into()),
        )
        .scenario(scenario)
        .axes(codec, run_mode, sched)
}

/// [`profile_run`] under the bench-scale gates: the chaotic run of
/// `spec` over `w` must quiesce and its causal profile must account
/// for the whole virtual wall-clock. Returns the outcome, the final
/// ranks, the total remote entries the peers emitted, and the profile.
fn chaotic_run(w: &Workload, spec: &ScenarioSpec) -> (ChaoticOutcome, Vec<f64>, u64, Profile) {
    let run = profile_run(w, spec, None, &dpr_telemetry::NOOP);
    let (out, profile) = (run.outcome, run.profile);
    assert!(out.quiesced, "chaotic bench run must quiesce");
    // The profiler's acceptance gate, enforced at bench scale: the
    // critical-path attribution must sum to the virtual wall-clock
    // within 1e-6 relative (it is in fact integer-exact).
    let sum = profile.compute_ns + profile.wire_ns + profile.wait_ns;
    let rel = (sum as f64 - profile.virtual_ns as f64).abs() / (profile.virtual_ns.max(1) as f64);
    assert!(
        rel <= 1e-6,
        "profile breakdown {sum} ns vs virtual clock {} ns (rel err {rel:e})",
        profile.virtual_ns
    );
    assert_eq!(
        profile.virtual_ns, out.virtual_ns,
        "profile horizon must equal the runtime's virtual clock"
    );
    (out, run.ranks, run.remote_messages, profile)
}

/// One row of `BENCH_scale.json`: the message-level cluster run to
/// quiescence at one graph size under each wire codec. `secs` and
/// `docs_per_sec` (documents × rounds / secs — per-document round
/// throughput) time the raw-codec run; the byte columns compare the
/// two codecs' measured payload traffic on the identical schedule.
#[derive(Debug, Clone, Serialize)]
struct ScaleRow {
    docs: usize,
    peers: usize,
    rounds: usize,
    secs: f64,
    docs_per_sec: f64,
    raw_bytes_on_wire: u64,
    compact_bytes_on_wire: u64,
    raw_bytes_per_doc: f64,
    compact_bytes_per_doc: f64,
    byte_reduction: f64,
}

fn scale(args: &Args) {
    use dpr_p2p::transport::WireCodec;

    let sizes = args.sizes_or(&[10_000, 100_000, 1_000_000]);
    let spec = args.paper_spec(sizes[0], &[]);
    let (peers_n, eps) = (spec.num_peers, spec.epsilon);

    println!("Wire-codec scale sweep ({peers_n} peers, eps {eps}, sizes {sizes:?})\n");
    let mut rows = Vec::with_capacity(sizes.len());
    for docs in sizes {
        let under = |codec| ScenarioSpec {
            nodes: docs,
            codec,
            ..spec
        };
        let w = under(WireCodec::Raw).workload();
        eprintln!("  … {docs} docs, raw codec");
        let start = std::time::Instant::now();
        let raw = run_wire_mode(&w, &under(WireCodec::Raw), true, None);
        let secs = start.elapsed().as_secs_f64();
        eprintln!("  … {docs} docs, compact codec");
        let compact = run_wire_mode(&w, &under(WireCodec::Compact), true, None);

        // The codec only changes frame encoding, never the schedule:
        // identical rounds and identical coalesced entry counts.
        assert_eq!(raw.traffic.rounds, compact.traffic.rounds, "{docs} docs");
        assert_eq!(raw.traffic.entries, compact.traffic.entries, "{docs} docs");
        let row = ScaleRow {
            docs,
            peers: peers_n,
            rounds: raw.traffic.rounds,
            secs,
            docs_per_sec: docs as f64 * raw.traffic.rounds as f64 / secs,
            raw_bytes_on_wire: raw.traffic.bytes_on_wire,
            compact_bytes_on_wire: compact.traffic.bytes_on_wire,
            raw_bytes_per_doc: raw.traffic.bytes_on_wire as f64 / docs as f64,
            compact_bytes_per_doc: compact.traffic.bytes_on_wire as f64 / docs as f64,
            byte_reduction: 1.0
                - compact.traffic.bytes_on_wire as f64 / raw.traffic.bytes_on_wire.max(1) as f64,
        };
        assert!(
            row.byte_reduction >= 0.30,
            "{docs} docs: compact must cut payload bytes >= 30%, got {:.1}%",
            100.0 * row.byte_reduction
        );
        rows.push(row);
    }

    let mut table = TextTable::new([
        "docs",
        "rounds",
        "secs",
        "docs/sec",
        "raw B/doc",
        "compact B/doc",
        "byte reduction",
    ]);
    for r in &rows {
        table.push([
            r.docs.to_string(),
            r.rounds.to_string(),
            format!("{:.2}", r.secs),
            format!("{:.0}", r.docs_per_sec),
            format!("{:.1}", r.raw_bytes_per_doc),
            format!("{:.1}", r.compact_bytes_per_doc),
            format!("{:.1}%", 100.0 * r.byte_reduction),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(compact frames carry varint-delta doc ids and f32 values; ranks stay\n\
         within the pinned L1 parity bound of the raw codec at every size)"
    );

    let dir = std::env::var_os("DPR_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let params = format!("peers={peers_n} eps={eps} seed={}", spec.seed);
    let path = ExperimentRecord::new("BENCH_scale", params.clone(), rows)
        .with_meta(bench_meta(args, params, "raw+compact", "rounds", "pass"))
        .write_to_dir(dir)
        .expect("write BENCH_scale.json");
    println!("\nwrote {}", path.display());
}

/// One row of `BENCH_node_batching.json`: a full cluster convergence
/// run at one frame-size cap (`max_frame_bytes == 0` is the unbatched
/// single-message baseline).
#[derive(Debug, Clone, Serialize)]
struct BatchScalingRow {
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

fn batch_scaling(args: &Args) {
    let trace = args.trace();
    let spec = args.paper_spec(10_000, &[]);
    let (nodes, peers_n, eps) = (spec.nodes, spec.num_peers, spec.epsilon);
    let w = spec.workload();
    let wired = |wire| ScenarioSpec { wire, ..spec };
    // 36 B = 2 entries/frame (the worst useful cap) up to 64 KiB
    // (effectively uncapped at this scale); 1400 B is the default
    // Ethernet-MTU-ish cap.
    let caps = [36usize, 164, DEFAULT_MAX_FRAME_BYTES, 65_536];

    println!("Frame-cap scaling on the message-level cluster ({nodes} docs, {peers_n} peers, eps {eps})\n");
    eprintln!("  … unbatched baseline");
    let unbatched = run_wire_mode(&w, &wired(WireMode::Single), false, None);
    let t = unbatched.traffic;
    let mut rows = vec![BatchScalingRow {
        max_frame_bytes: 0,
        updates: t.updates,
        entries: t.entries,
        frames: 0,
        payloads: t.payloads,
        bytes_on_wire: t.bytes_on_wire,
        baseline_bytes: t.bytes_on_wire,
        routed_messages: t.routed_messages,
        routed_reduction: 1.0,
        byte_reduction: 1.0,
    }];
    for cap in caps {
        eprintln!("  … frames capped at {cap} B");
        let frames = WireMode::Frames {
            max_frame_bytes: cap,
        };
        let batched = run_wire_mode(&w, &wired(frames), true, trace.recorder_arc());
        let r = compare_runs(&w, eps, cap, &unbatched, &batched);
        assert!(
            r.batched.bytes_on_wire < r.baseline_bytes,
            "cap {cap}: frame bytes must beat the 24-byte-per-update baseline"
        );
        rows.push(BatchScalingRow {
            max_frame_bytes: cap,
            updates: r.batched.updates,
            entries: r.batched.entries,
            frames: r.batched.frames,
            payloads: r.batched.payloads,
            bytes_on_wire: r.batched.bytes_on_wire,
            baseline_bytes: r.baseline_bytes,
            routed_messages: r.batched.routed_messages,
            routed_reduction: r.routed_reduction,
            byte_reduction: r.byte_reduction,
        });
    }
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
    println!("{}", table.render());
    println!("(every cap converges to bit-identical ranks; only the wire framing moves)");

    let dir = std::env::var_os("DPR_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let params = format!("nodes={nodes} peers={peers_n} eps={eps} seed={}", spec.seed);
    let path = ExperimentRecord::new("BENCH_node_batching", params.clone(), rows)
        .with_meta(bench_meta(args, params, "raw", "rounds", "pass"))
        .write_to_dir(dir)
        .expect("write BENCH_node_batching.json");
    println!("\nwrote {}", path.display());
    trace.finish().expect("write trace sinks");
}

/// One row of `BENCH_sched_quality.json`: a full convergence run of
/// one (layer, scheduler, wire) configuration. Reduction and
/// parity columns compare against the pass-scheduled baseline of the
/// same layer and ε (zero on the baseline rows themselves).
#[derive(Debug, Clone, Serialize)]
struct SchedQualityRow {
    layer: String,
    sched: String,
    wire: String,
    epsilon: f64,
    passes: usize,
    remote_messages: u64,
    msg_reduction_vs_pass: f64,
    l1_per_doc_vs_pass: f64,
}

fn sched_scaling(args: &Args) {
    let spec = args.paper_spec(10_000, &[]);
    let (nodes, peers_n, eps) = (spec.nodes, spec.num_peers, spec.epsilon);
    let parity_eps: f64 = args.get("parity-eps", 1e-9);
    let w = spec.workload();
    let n = nodes as f64;
    // The rounds-driver cluster, unbatched, at one ε and scheduler.
    let singles = |epsilon: f64, sched: SchedMode| ScenarioSpec {
        epsilon,
        sched,
        wire: WireMode::Single,
        ..spec
    };

    println!(
        "Scheduler quality scaling ({nodes} docs, {peers_n} peers, \
         working eps {eps}, parity eps {parity_eps})\n"
    );

    let run_engine = |sched: SchedMode, epsilon: f64| {
        let mut engine = ChaoticEngine::new(
            w.graph.clone(),
            w.owners(),
            EngineConfig::with_epsilon(epsilon).with_sched(sched),
        );
        let mut peers = w.peer_table();
        let run = engine.run_to_convergence(&mut peers, None);
        assert!(run.converged, "sched-scaling run must converge");
        (run, engine.ranks().to_vec())
    };
    let l1_per_doc =
        |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / n;
    let engine_row = |sched: SchedMode, epsilon: f64, passes: usize, msgs: u64| SchedQualityRow {
        layer: "engine".into(),
        sched: sched.to_string(),
        wire: "array".into(),
        epsilon,
        passes,
        remote_messages: msgs,
        msg_reduction_vs_pass: 0.0,
        l1_per_doc_vs_pass: 0.0,
    };
    let mut rows: Vec<SchedQualityRow> = Vec::new();

    // 1. Message saving at the working ε. This is the headline: the
    // same fixed point for >= 25 % fewer remote messages, because
    // residual-ordered pushes stop low-value re-advertisements from
    // ever reaching the wire.
    eprintln!("  … engine, pass sched, eps {eps}");
    let (pass_run, pass_ranks) = run_engine(SchedMode::Pass, eps);
    eprintln!("  … engine, priority sched, eps {eps}");
    let (pri_run, pri_ranks) = run_engine(SchedMode::Priority, eps);
    let reduction =
        1.0 - pri_run.total_remote_messages as f64 / pass_run.total_remote_messages.max(1) as f64;
    assert!(
        reduction >= 0.25,
        "priority must cut remote messages >= 25% at eps {eps}, got {:.1}%",
        100.0 * reduction
    );
    rows.push(engine_row(
        SchedMode::Pass,
        eps,
        pass_run.passes,
        pass_run.total_remote_messages,
    ));
    rows.push(SchedQualityRow {
        msg_reduction_vs_pass: reduction,
        l1_per_doc_vs_pass: l1_per_doc(&pri_ranks, &pass_ranks),
        ..engine_row(
            SchedMode::Priority,
            eps,
            pri_run.passes,
            pri_run.total_remote_messages,
        )
    });

    // 2. Rank parity at the strict ε: vs the pass engine the gap is
    // O(ε) per document.
    eprintln!("  … engine, pass sched, eps {parity_eps} (parity reference)");
    let (pass_ref_run, pass_ref) = run_engine(SchedMode::Pass, parity_eps);
    rows.push(engine_row(
        SchedMode::Pass,
        parity_eps,
        pass_ref_run.passes,
        pass_ref_run.total_remote_messages,
    ));
    eprintln!("  … engine, priority sched, eps {parity_eps}");
    let (run, ranks) = run_engine(SchedMode::Priority, parity_eps);
    let l1 = l1_per_doc(&ranks, &pass_ref);
    assert!(l1 <= 1e-9, "parity: l1 per doc {l1:e} exceeds 1e-9");
    rows.push(SchedQualityRow {
        msg_reduction_vs_pass: 1.0
            - run.total_remote_messages as f64 / pass_ref_run.total_remote_messages.max(1) as f64,
        l1_per_doc_vs_pass: l1,
        ..engine_row(
            SchedMode::Priority,
            parity_eps,
            run.passes,
            run.total_remote_messages,
        )
    });

    // 3. The message-level cluster, both wire modes. Deferred residual
    // mass interoperates with flush scheduling and store-and-resend:
    // the wire path must not perturb the schedule, and the fixed point
    // must still sit within the parity band of the pass cluster.
    if !args.has("skip-cluster") {
        eprintln!("  … cluster, pass sched, singles, eps {parity_eps}");
        let cl_pass = run_wire_mode(&w, &singles(parity_eps, SchedMode::Pass), false, None);
        eprintln!("  … cluster, priority sched, singles, eps {parity_eps}");
        let pri_singles = singles(parity_eps, SchedMode::Priority);
        let cl_pri = run_wire_mode(&w, &pri_singles, false, None);
        eprintln!("  … cluster, priority sched, frames, eps {parity_eps}");
        let pri_frames = ScenarioSpec {
            wire: WireMode::frames(),
            ..pri_singles
        };
        let cl_pri_frames = run_wire_mode(&w, &pri_frames, true, None);
        assert_eq!(
            cl_pri.ranks, cl_pri_frames.ranks,
            "wire path must not perturb the priority schedule"
        );
        let l1 = l1_per_doc(&cl_pri.ranks, &cl_pass.ranks);
        assert!(l1 <= 1e-9, "cluster parity: l1 per doc {l1:e} exceeds 1e-9");
        // At the paper's reference sharding each peer holds only
        // nodes/peers documents — below the bypass threshold the
        // priority queue degenerates to the full sweep by design, so
        // the update count may only tie, never regress.
        assert!(
            cl_pri.traffic.updates <= cl_pass.traffic.updates,
            "cluster priority {} vs pass {} updates",
            cl_pri.traffic.updates,
            cl_pass.traffic.updates
        );
        for (sched, wire, run, l1pd) in [
            (SchedMode::Pass, "single", &cl_pass, 0.0),
            (SchedMode::Priority, "single", &cl_pri, l1),
            (SchedMode::Priority, "frames", &cl_pri_frames, l1),
        ] {
            rows.push(SchedQualityRow {
                layer: "cluster".into(),
                sched: sched.to_string(),
                wire: wire.into(),
                epsilon: parity_eps,
                passes: run.traffic.rounds,
                remote_messages: run.traffic.updates,
                msg_reduction_vs_pass: 1.0
                    - run.traffic.updates as f64 / cl_pass.traffic.updates.max(1) as f64,
                l1_per_doc_vs_pass: l1pd,
            });
        }

        // 4. A denser sharding (~250 docs per peer) where the per-peer
        // residual queues clear the bypass threshold: here selection
        // engages at the node layer too and the wire itself carries
        // measurably fewer logical updates.
        let dense_peers = (nodes / 250).max(4);
        let dense = |sched| ScenarioSpec {
            num_peers: dense_peers,
            ..singles(eps, sched)
        };
        let w_dense = dense(SchedMode::Pass).workload();
        eprintln!("  … dense cluster ({dense_peers} peers), pass sched, eps {eps}");
        let dn_pass = run_wire_mode(&w_dense, &dense(SchedMode::Pass), false, None);
        eprintln!("  … dense cluster ({dense_peers} peers), priority sched, eps {eps}");
        let dn_pri = run_wire_mode(&w_dense, &dense(SchedMode::Priority), false, None);
        assert!(
            dn_pri.traffic.updates < dn_pass.traffic.updates,
            "dense cluster priority {} vs pass {} updates",
            dn_pri.traffic.updates,
            dn_pass.traffic.updates
        );
        let dn_l1 = l1_per_doc(&dn_pri.ranks, &dn_pass.ranks);
        for (sched, run, l1pd) in [
            (SchedMode::Pass, &dn_pass, 0.0),
            (SchedMode::Priority, &dn_pri, dn_l1),
        ] {
            rows.push(SchedQualityRow {
                layer: "cluster-dense".into(),
                sched: sched.to_string(),
                wire: "single".into(),
                epsilon: eps,
                passes: run.traffic.rounds,
                remote_messages: run.traffic.updates,
                msg_reduction_vs_pass: 1.0
                    - run.traffic.updates as f64 / dn_pass.traffic.updates.max(1) as f64,
                l1_per_doc_vs_pass: l1pd,
            });
        }

        // 5. The event-driven chaotic runtime at the *default* density,
        // where the round-barrier rows of section 3 can only tie.
        // Residual-driven step timing (hot peers step promptly, cold
        // peers hold a coalescing window) moves the priority win to the
        // cluster layer itself: this is a hard regression gate — a
        // chaotic priority row reporting a reduction <= 0% fails the
        // bench.
        eprintln!("  … chaotic cluster, pass sched, eps {eps}");
        let framed = |sched| ScenarioSpec { sched, ..spec };
        let (ch_pass_out, ch_pass_ranks, ch_pass_msgs, _) =
            chaotic_run(&w, &framed(SchedMode::Pass));
        eprintln!("  … chaotic cluster, priority sched, eps {eps}");
        let (ch_pri_out, ch_pri_ranks, ch_pri_msgs, _) =
            chaotic_run(&w, &framed(SchedMode::Priority));
        let ch_reduction = 1.0 - ch_pri_msgs as f64 / ch_pass_msgs.max(1) as f64;
        assert!(
            ch_reduction > 0.0,
            "chaotic cluster: priority must strictly cut remote messages \
             at eps {eps}, got {:.1}% ({ch_pri_msgs} vs {ch_pass_msgs})",
            100.0 * ch_reduction
        );
        let ch_l1 = l1_per_doc(&ch_pri_ranks, &ch_pass_ranks);
        for (sched, out, msgs, red, l1pd) in [
            (SchedMode::Pass, &ch_pass_out, ch_pass_msgs, 0.0, 0.0),
            (
                SchedMode::Priority,
                &ch_pri_out,
                ch_pri_msgs,
                ch_reduction,
                ch_l1,
            ),
        ] {
            rows.push(SchedQualityRow {
                layer: "cluster-chaotic".into(),
                sched: sched.to_string(),
                wire: "frames".into(),
                epsilon: eps,
                passes: out.steps as usize,
                remote_messages: msgs,
                msg_reduction_vs_pass: red,
                l1_per_doc_vs_pass: l1pd,
            });
        }
    }

    let mut table = TextTable::new([
        "layer",
        "sched",
        "wire",
        "eps",
        "passes",
        "remote msgs",
        "reduction",
        "l1/doc vs pass",
    ]);
    for r in &rows {
        table.push([
            r.layer.clone(),
            r.sched.clone(),
            r.wire.clone(),
            fmt_eps(r.epsilon),
            r.passes.to_string(),
            r.remote_messages.to_string(),
            format!("{:.1}%", 100.0 * r.msg_reduction_vs_pass),
            format!("{:.1e}", r.l1_per_doc_vs_pass),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(priority rows are bit-identical across wire modes; deferred\n\
         residual mass is never lost — quiescence still means no residual above eps)"
    );

    let dir = std::env::var_os("DPR_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let params = format!(
        "nodes={nodes} peers={peers_n} eps={eps} parity_eps={parity_eps} seed={}",
        spec.seed
    );
    let path = ExperimentRecord::new("BENCH_sched_quality", params.clone(), rows)
        .with_meta(bench_meta(
            args,
            params,
            "raw",
            "rounds+chaotic",
            "pass+priority",
        ))
        .write_to_dir(dir)
        .expect("write BENCH_sched_quality.json");
    println!("\nwrote {}", path.display());
}

/// One row of `BENCH_async.json`: a full convergence run of one
/// (run mode, latency model, scheduler) configuration of the
/// message-level cluster. `steps` counts cluster rounds in rounds mode
/// and peer step events in chaotic mode; `virtual_secs` is the
/// event-clock time to quiescence under the per-link latency/bandwidth
/// model (zero in rounds mode, which has no network clock).
/// `msg_reduction_vs_pass` compares against the pass-scheduled run of
/// the same mode, latency, and ε; `l1_per_doc_vs_rounds` is the
/// matched-error column — the per-document gap to the round-barrier
/// pass cluster at the same ε. The three `*_pct` columns are the
/// causal profiler's attribution of the virtual wall-clock (they sum
/// to 100 by the exact-telescoping invariant); `null` on rounds rows,
/// which have no network clock to attribute.
#[derive(Debug, Clone, Serialize)]
struct AsyncScalingRow {
    run_mode: String,
    latency: String,
    sched: String,
    epsilon: f64,
    steps: u64,
    deliveries: u64,
    remote_messages: u64,
    virtual_secs: f64,
    msg_reduction_vs_pass: f64,
    l1_per_doc_vs_sync: f64,
    l1_per_doc_vs_rounds: f64,
    compute_pct: Option<f64>,
    wire_pct: Option<f64>,
    wait_pct: Option<f64>,
}

fn async_scaling(args: &Args) {
    let spec = args.paper_spec(10_000, &[]);
    let (nodes, peers_n, eps) = (spec.nodes, spec.num_peers, spec.epsilon);
    let parity_eps: f64 = args.get("parity-eps", 1e-9);
    let w = spec.workload();
    let n = nodes as f64;
    let sched_at = |epsilon: f64, sched: SchedMode| ScenarioSpec {
        epsilon,
        sched,
        ..spec
    };

    println!(
        "Chaotic async runtime scaling ({nodes} docs, {peers_n} peers, \
         working eps {eps}, parity eps {parity_eps})\n"
    );

    let sync = SyncSolver::new().tolerance(1e-13).solve(&w.graph).ranks;
    let l1 = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / n;
    let mut rows: Vec<AsyncScalingRow> = Vec::new();

    // Context: the engine-layer priority win at the working ε, so the
    // summary can report how much of it the cluster recovers.
    let run_engine = |sched: SchedMode| {
        let mut engine = ChaoticEngine::new(
            w.graph.clone(),
            w.owners(),
            EngineConfig::with_epsilon(eps).with_sched(sched),
        );
        let mut peers = w.peer_table();
        let run = engine.run_to_convergence(&mut peers, None);
        assert!(run.converged, "async-scaling engine run must converge");
        run.total_remote_messages
    };
    eprintln!("  … engine reference, eps {eps}");
    let engine_reduction =
        1.0 - run_engine(SchedMode::Priority) as f64 / run_engine(SchedMode::Pass).max(1) as f64;

    // 1. Round-barrier reference at the working ε. At the paper's
    // default density (nodes/peers docs per peer) the priority cluster
    // can only tie the pass cluster here — every round sweeps every
    // peer regardless of residual, so there is nothing for the
    // schedule to skip. This is the 0% the chaotic rows beat.
    eprintln!("  … rounds cluster, pass sched, eps {eps}");
    let rd_pass = run_wire_mode(&w, &sched_at(eps, SchedMode::Pass), true, None);
    eprintln!("  … rounds cluster, priority sched, eps {eps}");
    let rd_pri = run_wire_mode(&w, &sched_at(eps, SchedMode::Priority), true, None);
    for (sched, run, red, l1r) in [
        (SchedMode::Pass, &rd_pass, 0.0, 0.0),
        (
            SchedMode::Priority,
            &rd_pri,
            1.0 - rd_pri.traffic.updates as f64 / rd_pass.traffic.updates.max(1) as f64,
            l1(&rd_pri.ranks, &rd_pass.ranks),
        ),
    ] {
        rows.push(AsyncScalingRow {
            run_mode: "rounds".into(),
            latency: "none".into(),
            sched: sched.to_string(),
            epsilon: eps,
            steps: run.traffic.rounds as u64,
            deliveries: 0,
            remote_messages: run.traffic.updates,
            virtual_secs: 0.0,
            msg_reduction_vs_pass: red,
            l1_per_doc_vs_sync: l1(&run.ranks, &sync),
            l1_per_doc_vs_rounds: l1r,
            compute_pct: None,
            wire_pct: None,
            wait_pct: None,
        });
    }

    // 2. The chaotic runtime across latency distributions. Event-driven
    // stepping gives the priority schedule something rounds never did:
    // *when* to step. Hot peers (residual mass far above ε) step as
    // soon as their Eq. 4 compute time allows; cold peers hold a
    // coalescing window so late-arriving updates merge into one step.
    // Every latency model must show a strictly positive reduction.
    let mut chaotic_reductions: Vec<(LatencyModel, f64)> = Vec::new();
    for latency in [
        LatencyModel::Modem,
        LatencyModel::Broadband,
        LatencyModel::Lan,
    ] {
        eprintln!("  … chaotic cluster ({latency}), pass sched, eps {eps}");
        let over = |sched| ScenarioSpec {
            latency,
            ..sched_at(eps, sched)
        };
        let (pass_out, pass_ranks, pass_msgs, pass_prof) = chaotic_run(&w, &over(SchedMode::Pass));
        eprintln!("  … chaotic cluster ({latency}), priority sched, eps {eps}");
        let (pri_out, pri_ranks, pri_msgs, pri_prof) = chaotic_run(&w, &over(SchedMode::Priority));
        let red = 1.0 - pri_msgs as f64 / pass_msgs.max(1) as f64;
        assert!(
            red > 0.0,
            "chaotic {latency}: priority must strictly cut remote messages, \
             got {:.1}% ({pri_msgs} vs {pass_msgs})",
            100.0 * red
        );
        chaotic_reductions.push((latency, red));
        for (sched, out, ranks, msgs, r, prof) in [
            (
                SchedMode::Pass,
                &pass_out,
                &pass_ranks,
                pass_msgs,
                0.0,
                &pass_prof,
            ),
            (
                SchedMode::Priority,
                &pri_out,
                &pri_ranks,
                pri_msgs,
                red,
                &pri_prof,
            ),
        ] {
            rows.push(AsyncScalingRow {
                run_mode: "chaotic".into(),
                latency: latency.to_string(),
                sched: sched.to_string(),
                epsilon: eps,
                steps: out.steps,
                deliveries: out.deliveries,
                remote_messages: msgs,
                virtual_secs: out.virtual_ns as f64 / 1e9,
                msg_reduction_vs_pass: r,
                l1_per_doc_vs_sync: l1(ranks, &sync),
                l1_per_doc_vs_rounds: l1(ranks, &rd_pass.ranks),
                compute_pct: Some(prof.compute_pct()),
                wire_pct: Some(prof.wire_pct()),
                wait_pct: Some(prof.wait_pct()),
            });
        }
    }

    // 3. Matched error at the strict parity ε: the reduction above is
    // only meaningful if chaotic mode lands on the same fixed point.
    // Both chaotic schedules must sit within 1e-9/doc of the
    // round-barrier pass cluster — stronger (by the triangle
    // inequality) than merely matching its distance to the sync
    // solution.
    eprintln!("  … rounds cluster, pass sched, eps {parity_eps} (parity reference)");
    let rd_ref = run_wire_mode(&w, &sched_at(parity_eps, SchedMode::Pass), true, None);
    rows.push(AsyncScalingRow {
        run_mode: "rounds".into(),
        latency: "none".into(),
        sched: SchedMode::Pass.to_string(),
        epsilon: parity_eps,
        steps: rd_ref.traffic.rounds as u64,
        deliveries: 0,
        remote_messages: rd_ref.traffic.updates,
        virtual_secs: 0.0,
        msg_reduction_vs_pass: 0.0,
        l1_per_doc_vs_sync: l1(&rd_ref.ranks, &sync),
        l1_per_doc_vs_rounds: 0.0,
        compute_pct: None,
        wire_pct: None,
        wait_pct: None,
    });
    for sched in [SchedMode::Pass, SchedMode::Priority] {
        eprintln!("  … chaotic cluster (broadband), {sched} sched, eps {parity_eps}");
        let broadband = ScenarioSpec {
            latency: LatencyModel::Broadband,
            ..sched_at(parity_eps, sched)
        };
        let (out, ranks, msgs, prof) = chaotic_run(&w, &broadband);
        let gap = l1(&ranks, &rd_ref.ranks);
        assert!(
            gap <= 1e-9,
            "matched error: chaotic {sched} l1 per doc {gap:e} vs rounds \
             exceeds 1e-9 at eps {parity_eps}"
        );
        rows.push(AsyncScalingRow {
            run_mode: "chaotic".into(),
            latency: LatencyModel::Broadband.to_string(),
            sched: sched.to_string(),
            epsilon: parity_eps,
            steps: out.steps,
            deliveries: out.deliveries,
            remote_messages: msgs,
            virtual_secs: out.virtual_ns as f64 / 1e9,
            msg_reduction_vs_pass: 0.0,
            l1_per_doc_vs_sync: l1(&ranks, &sync),
            l1_per_doc_vs_rounds: gap,
            compute_pct: Some(prof.compute_pct()),
            wire_pct: Some(prof.wire_pct()),
            wait_pct: Some(prof.wait_pct()),
        });
    }

    let mut table = TextTable::new([
        "mode",
        "latency",
        "sched",
        "eps",
        "steps",
        "deliveries",
        "remote msgs",
        "virtual s",
        "cmp/wire/wait",
        "reduction",
        "l1/doc vs rounds",
    ]);
    for r in &rows {
        table.push([
            r.run_mode.clone(),
            r.latency.clone(),
            r.sched.clone(),
            fmt_eps(r.epsilon),
            r.steps.to_string(),
            r.deliveries.to_string(),
            r.remote_messages.to_string(),
            if r.virtual_secs == 0.0 {
                "-".into()
            } else {
                format!("{:.2}", r.virtual_secs)
            },
            match (r.compute_pct, r.wire_pct, r.wait_pct) {
                (Some(c), Some(wi), Some(wa)) => format!("{c:.0}/{wi:.0}/{wa:.0}%"),
                _ => "-".into(),
            },
            format!("{:.1}%", 100.0 * r.msg_reduction_vs_pass),
            format!("{:.1e}", r.l1_per_doc_vs_rounds),
        ]);
    }
    println!("{}", table.render());
    let best = chaotic_reductions
        .iter()
        .map(|&(_, r)| r)
        .fold(0.0, f64::max);
    println!(
        "(engine-layer priority reduction at eps {eps}: {:.1}%; best chaotic \
         cluster reduction: {:.1}% — {:.0}% of the engine win recovered at the \
         cluster layer, vs 0% under round barriers)",
        100.0 * engine_reduction,
        100.0 * best,
        100.0 * best / engine_reduction.max(1e-12)
    );

    let dir = std::env::var_os("DPR_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let params = format!(
        "nodes={nodes} peers={peers_n} eps={eps} parity_eps={parity_eps} seed={}",
        spec.seed
    );
    let path = ExperimentRecord::new("BENCH_async", params.clone(), rows)
        .with_meta(bench_meta(
            args,
            params,
            "raw",
            "rounds+chaotic",
            "pass+priority",
        ))
        .write_to_dir(dir)
        .expect("write BENCH_async.json");
    println!("\nwrote {}", path.display());
}

/// One row of `BENCH_accel.json`. `section == "clean"` rows are full
/// convergence runs (engine or chaotic cluster) under one scheduler at
/// the working ε — `remote_messages` counts engine remote messages or
/// cluster emitted remote entries, and every row must sit inside the
/// same L1-vs-sync error band, so the reduction column compares equal
/// answers. `section == "burst"` rows replay one mutation burst
/// (insert or delete) under one strategy (`sched` is `global` or
/// `localized`) at the strict burst ε — `remote_messages` counts wave
/// update messages and `l1_per_doc_vs_baseline` is the rank parity
/// against the global protocol. `virtual_secs` is the chaotic event
/// clock (`null` where no network clock exists); cone columns are the
/// SCC cone the localized wave was certified against (`null`
/// elsewhere).
#[derive(Debug, Clone, Serialize)]
struct AccelRow {
    section: String,
    layer: String,
    latency: String,
    sched: String,
    epsilon: f64,
    steps: u64,
    remote_messages: u64,
    virtual_secs: Option<f64>,
    msg_reduction_vs_baseline: f64,
    l1_per_doc_vs_sync: Option<f64>,
    l1_per_doc_vs_baseline: f64,
    cone_docs: Option<usize>,
    cone_components: Option<usize>,
}

fn accel_scaling(args: &Args) {
    use dpr_core::incremental::{
        delete_burst, delete_document, insert_burst, insert_document, PropagationConfig,
    };
    use dpr_graph::scc::SccIndex;
    use dpr_graph::{DocId, DynamicGraph};

    let spec = args.paper_spec(10_000, &[]);
    let (nodes, peers_n, eps) = (spec.nodes, spec.num_peers, spec.epsilon);
    let burst_eps: f64 = args.get("burst-eps", 1e-14);
    let inserts: usize = args.get("inserts", 24);
    let deletes: usize = args.get("deletes", 12).min(inserts);
    let w = spec.workload();
    let n = nodes as f64;

    println!(
        "Update-accelerator sweep ({nodes} docs, {peers_n} peers, working eps {eps}, \
         burst eps {burst_eps}, {inserts} inserts / {deletes} deletes)\n"
    );

    let sync = SyncSolver::new().tolerance(1e-13).solve(&w.graph).ranks;
    let l1 = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / n;
    let mut rows: Vec<AccelRow> = Vec::new();

    // 1. Clean convergence, sequential engine: greedy matching pursuit
    // vs whole-bucket priority vs full-sweep pass. All three must land
    // in the same L1-vs-sync error band (that is the "matched error"
    // that makes the message counts comparable), and greedy's exact
    // budget cut must spend no more remote messages than priority's
    // bucket boundary.
    let run_engine = |sched: SchedMode| {
        let mut engine = ChaoticEngine::new(
            w.graph.clone(),
            w.owners(),
            EngineConfig::with_epsilon(eps).with_sched(sched),
        );
        let mut peers = w.peer_table();
        let run = engine.run_to_convergence(&mut peers, None);
        assert!(run.converged, "accel-scaling engine run must converge");
        (run, engine.ranks().to_vec())
    };
    let scheds = [SchedMode::Pass, SchedMode::Priority, SchedMode::Greedy];
    // The shared matched-error band: per-document quiescence residual
    // < ε amplifies through the damped link structure by at most
    // d/(1−d) ≈ 5.7×, so 10ε bounds every scheduler's honest distance
    // to the synchronous fixed point.
    let band = 10.0 * eps;
    let mut engine_msgs = [0u64; 3];
    let mut engine_pass_ranks: Vec<f64> = Vec::new();
    for (i, sched) in scheds.into_iter().enumerate() {
        eprintln!("  … engine, {sched} sched, eps {eps}");
        let (run, ranks) = run_engine(sched);
        engine_msgs[i] = run.total_remote_messages;
        let l1_sync = l1(&ranks, &sync);
        assert!(
            l1_sync <= band,
            "engine {sched}: l1 per doc vs sync {l1_sync:e} escapes the 10eps band {band:e}"
        );
        if i == 0 {
            engine_pass_ranks = ranks.clone();
        }
        rows.push(AccelRow {
            section: "clean".into(),
            layer: "engine".into(),
            latency: "none".into(),
            sched: sched.to_string(),
            epsilon: eps,
            steps: run.passes as u64,
            remote_messages: run.total_remote_messages,
            virtual_secs: None,
            msg_reduction_vs_baseline: 1.0
                - run.total_remote_messages as f64 / engine_msgs[0].max(1) as f64,
            l1_per_doc_vs_sync: Some(l1_sync),
            l1_per_doc_vs_baseline: l1(&ranks, &engine_pass_ranks),
            cone_docs: None,
            cone_components: None,
        });
    }
    assert!(
        engine_msgs[2] < engine_msgs[0] && engine_msgs[2] <= engine_msgs[1],
        "engine greedy must beat pass and not exceed priority: \
         greedy {} vs priority {} vs pass {}",
        engine_msgs[2],
        engine_msgs[1],
        engine_msgs[0]
    );

    // 2. Clean convergence, chaotic cluster, every latency model. The
    // greedy schedule feeds the same residual-driven step timing as
    // priority; the acceptance gate is that its tighter selection wins
    // (or ties) the remote-message count in at least one latency model
    // while staying inside the shared error band.
    let mut greedy_wins = 0usize;
    for latency in [
        LatencyModel::Modem,
        LatencyModel::Broadband,
        LatencyModel::Lan,
    ] {
        let mut msgs = [0u64; 3];
        for (i, sched) in scheds.into_iter().enumerate() {
            eprintln!("  … chaotic cluster ({latency}), {sched} sched, eps {eps}");
            let cell = ScenarioSpec {
                sched,
                latency,
                ..spec
            };
            let (out, ranks, m, _) = chaotic_run(&w, &cell);
            msgs[i] = m;
            let l1_sync = l1(&ranks, &sync);
            assert!(
                l1_sync <= band,
                "chaotic {latency} {sched}: l1 per doc vs sync {l1_sync:e} \
                 escapes the 10eps band {band:e}"
            );
            rows.push(AccelRow {
                section: "clean".into(),
                layer: "cluster-chaotic".into(),
                latency: latency.to_string(),
                sched: sched.to_string(),
                epsilon: eps,
                steps: out.steps,
                remote_messages: m,
                virtual_secs: Some(out.virtual_ns as f64 / 1e9),
                msg_reduction_vs_baseline: 1.0 - m as f64 / msgs[0].max(1) as f64,
                l1_per_doc_vs_sync: Some(l1_sync),
                l1_per_doc_vs_baseline: 0.0,
                cone_docs: None,
                cone_components: None,
            });
        }
        if msgs[2] <= msgs[1] && msgs[2] < msgs[0] {
            greedy_wins += 1;
        }
    }
    assert!(
        greedy_wins >= 1,
        "greedy must beat or match priority's remote messages (while beating pass) \
         in at least one latency model"
    );

    // 3. Mutation bursts: the global Sec. 3.1 protocol (one wave per
    // document, swept over the whole graph) vs the SCC-localized
    // protocol (one merged wave per burst, certified against the
    // condensation-DAG downstream cone). Same strict ε on both sides,
    // so the parity gap is pure wave-merging truncation —
    // O(ε × generations), held under 1e-9/doc — while the merged wave
    // must generate strictly fewer update messages.
    let cfg = PropagationConfig {
        damping: dpr_core::DEFAULT_DAMPING,
        epsilon: burst_eps,
    };
    let base = DynamicGraph::from_csr(&w.graph);
    let base_ranks = vec![1.0f64; nodes];
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

    eprintln!("  … insert burst, global per-document waves, eps {burst_eps}");
    let mut g_graph = base.clone();
    let mut g_ranks = base_ranks.clone();
    let mut global_insert = dpr_core::incremental::PropagationStats::default();
    for links in &batches {
        let (_, s) = insert_document(&mut g_graph, links, &mut g_ranks, cfg);
        global_insert.messages += s.messages;
        global_insert.node_coverage += s.node_coverage;
        global_insert.path_length = global_insert.path_length.max(s.path_length);
    }
    eprintln!("  … insert burst, SCC-localized merged wave, eps {burst_eps}");
    let mut l_graph = base.clone();
    let mut index = SccIndex::new(&l_graph);
    let mut l_ranks = base_ranks.clone();
    let (new_ids, ins) = insert_burst(&mut l_graph, &mut index, &batches, &mut l_ranks, cfg);
    assert!(
        ins.wave.messages < global_insert.messages,
        "localized insert burst must generate strictly fewer update messages: \
         {} vs {}",
        ins.wave.messages,
        global_insert.messages
    );
    let insert_parity = g_ranks
        .iter()
        .zip(&l_ranks)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        insert_parity <= 1e-9,
        "insert burst parity: max per-doc gap {insert_parity:e} exceeds 1e-9"
    );
    let burst_row = |burst: &str,
                     sched: &str,
                     steps: u64,
                     msgs: u64,
                     baseline: u64,
                     parity: f64,
                     cone: Option<(usize, usize)>| {
        AccelRow {
            section: "burst".into(),
            layer: burst.into(),
            latency: "none".into(),
            sched: sched.into(),
            epsilon: burst_eps,
            steps,
            remote_messages: msgs,
            virtual_secs: None,
            msg_reduction_vs_baseline: 1.0 - msgs as f64 / baseline.max(1) as f64,
            l1_per_doc_vs_sync: None,
            l1_per_doc_vs_baseline: parity,
            cone_docs: cone.map(|(d, _)| d),
            cone_components: cone.map(|(_, c)| c),
        }
    };
    rows.push(burst_row(
        "insert",
        "global",
        global_insert.node_coverage as u64,
        global_insert.messages,
        global_insert.messages,
        0.0,
        None,
    ));
    rows.push(burst_row(
        "insert",
        "localized",
        ins.wave.node_coverage as u64,
        ins.wave.messages,
        global_insert.messages,
        insert_parity,
        Some((ins.cone_docs, ins.cone_components)),
    ));

    eprintln!("  … delete burst, global per-document waves, eps {burst_eps}");
    let victims: Vec<DocId> = new_ids.iter().take(deletes).copied().collect();
    let mut global_delete = dpr_core::incremental::PropagationStats::default();
    for &d in &victims {
        let s = delete_document(&mut g_graph, d, &mut g_ranks, cfg);
        global_delete.messages += s.messages;
        global_delete.node_coverage += s.node_coverage;
        global_delete.path_length = global_delete.path_length.max(s.path_length);
    }
    eprintln!("  … delete burst, SCC-localized merged wave, eps {burst_eps}");
    let del = delete_burst(&mut l_graph, &mut index, &victims, &mut l_ranks, cfg);
    assert!(
        del.wave.messages < global_delete.messages,
        "localized delete burst must generate strictly fewer update messages: \
         {} vs {}",
        del.wave.messages,
        global_delete.messages
    );
    let delete_parity = g_ranks
        .iter()
        .zip(&l_ranks)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        delete_parity <= 1e-9,
        "delete burst parity: max per-doc gap {delete_parity:e} exceeds 1e-9"
    );
    rows.push(burst_row(
        "delete",
        "global",
        global_delete.node_coverage as u64,
        global_delete.messages,
        global_delete.messages,
        0.0,
        None,
    ));
    rows.push(burst_row(
        "delete",
        "localized",
        del.wave.node_coverage as u64,
        del.wave.messages,
        global_delete.messages,
        delete_parity,
        Some((del.cone_docs, del.cone_components)),
    ));

    let mut table = TextTable::new([
        "section",
        "layer",
        "latency",
        "sched",
        "eps",
        "steps",
        "remote msgs",
        "virtual s",
        "reduction",
        "cone docs",
    ]);
    for r in &rows {
        table.push([
            r.section.clone(),
            r.layer.clone(),
            r.latency.clone(),
            r.sched.clone(),
            fmt_eps(r.epsilon),
            r.steps.to_string(),
            r.remote_messages.to_string(),
            match r.virtual_secs {
                Some(s) => format!("{s:.2}"),
                None => "-".into(),
            },
            format!("{:.1}%", 100.0 * r.msg_reduction_vs_baseline),
            match r.cone_docs {
                Some(d) => d.to_string(),
                None => "-".into(),
            },
        ]);
    }
    println!("{}", table.render());
    println!(
        "(clean rows all sit within the 10eps L1-vs-sync band, so the message counts\n\
         compare equal answers; burst rows hold 1e-9/doc parity while the localized\n\
         merged wave never leaves its certified SCC downstream cone)"
    );

    let dir = std::env::var_os("DPR_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let params = format!(
        "nodes={nodes} peers={peers_n} eps={eps} burst_eps={burst_eps} \
         inserts={inserts} deletes={deletes} seed={}",
        spec.seed
    );
    let path = ExperimentRecord::new("BENCH_accel", params.clone(), rows)
        .with_meta(bench_meta(
            args,
            params,
            "raw",
            "rounds+chaotic+waves",
            "pass+priority+greedy",
        ))
        .write_to_dir(dir)
        .expect("write BENCH_accel.json");
    println!("\nwrote {}", path.display());
}

/// `--serving`: the serving-path workload. Serves a Poisson query
/// stream against the live rank computation — concurrent updates and
/// transient churn included — under each latency model and each of the
/// three query strategies (baseline full transfer, top-10 %
/// incremental, Bloom-assisted intersection), and writes the latency
/// quantiles, per-query hop/byte averages, the rank-staleness gauge,
/// and the SLO verdicts to BENCH_serving.json. Gates enforced here:
/// the incremental and Bloom strategies must move less traffic than
/// the baseline, every run's SLO verdict must pass, serving must be
/// deterministic per seed, and telemetry must not perturb the served
/// run (bit-identical schedule fingerprint and quantiles with the
/// recorder on).
fn serving_scaling(args: &Args) {
    use dpr_sim::serving::{serving_experiment, ServeStrategy, ServingConfig, ServingReport};
    use dpr_telemetry::{SloSpec, TraceRecorder};

    let spec = args.spec(&ScenarioSpec::new(2_000, 32, 1e-4, 2003), &[]);
    let (nodes, peers_n, eps) = (spec.nodes, spec.num_peers, spec.epsilon);
    let queries: usize = args.get("queries", 120);
    let updates: usize = args.get("updates", 24);
    let qps: f64 = args.get("qps", 20.0);
    let churn: f64 = args.get("churn", 0.8);
    println!(
        "Serving-path workload ({nodes} docs, {peers_n} peers, {queries} queries at \
         {qps} qps, {updates} concurrent updates, churn {churn})\n"
    );

    let base_cfg = |latency: LatencyModel, strategy: ServeStrategy| ServingConfig {
        num_docs: nodes,
        vocab_size: args.get("vocab", 400),
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

    let mut rows: Vec<ServingReport> = Vec::new();
    for latency in [
        LatencyModel::Lan,
        LatencyModel::Broadband,
        LatencyModel::Modem,
    ] {
        let mut traffic = std::collections::HashMap::new();
        for strategy in [
            ServeStrategy::Baseline,
            ServeStrategy::Incremental {
                forward_fraction: 0.10,
            },
            ServeStrategy::Bloom,
        ] {
            let run = serving_experiment(&base_cfg(latency, strategy), &dpr_telemetry::NOOP);
            assert!(run.report.quiesced, "serving run must quiesce");
            assert!(
                run.report.slo_pass,
                "{latency}/{strategy}: bench SLO verdict failed"
            );
            traffic.insert(strategy.to_string(), run.report.total_traffic_ids);
            rows.push(run.report);
        }
        let base = traffic["baseline"];
        for s in ["incremental", "bloom"] {
            assert!(
                traffic[s] < base,
                "{latency}: {s} traffic {} must undercut baseline {base}",
                traffic[s]
            );
        }
    }

    // Determinism + zero perturbation, pinned at bench scale: the same
    // config re-served (with telemetry on) reproduces the schedule
    // fingerprint and every latency quantile bit for bit.
    let pin_cfg = base_cfg(
        LatencyModel::Broadband,
        ServeStrategy::Incremental {
            forward_fraction: 0.10,
        },
    );
    let pin = rows
        .iter()
        .find(|r| r.latency == "broadband" && r.strategy == "incremental")
        .expect("pinned row exists");
    let rec = TraceRecorder::new();
    let again = serving_experiment(&pin_cfg, &rec).report;
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
    println!("{}", table.render());
    println!(
        "(every row serves the same schedule: queries never perturb the rank\n\
         computation, and the incremental/bloom strategies undercut baseline\n\
         traffic under every latency model — the paper's Sec. 2.4.3 cut, held\n\
         under concurrent updates and churn)"
    );

    let params = format!(
        "nodes={nodes} peers={peers_n} queries={queries} qps={qps} updates={updates} \
         churn={churn} eps={eps} seed={}",
        spec.seed
    );
    let path = ExperimentRecord::new("BENCH_serving", params.clone(), rows)
        .with_meta(bench_meta(
            args,
            params,
            "raw",
            "chaotic+serving",
            &spec.sched.to_string(),
        ))
        .write_to_dir(results_dir())
        .expect("write BENCH_serving.json");
    println!("\nwrote {}", path.display());
}

/// The default mode: drift of incrementally maintained ranks.
fn continuous_accuracy(args: &Args) {
    let trace = args.trace();
    let spec = args.paper_spec(20_000, &[]);
    let (nodes, eps) = (spec.nodes, spec.epsilon);
    let inserts: usize = args.get("inserts", 200);
    let checkpoints: usize = args.get("checkpoints", 5);

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
    println!("{}", table.render());
    let last = points.last().expect("at least one checkpoint");
    println!(
        "after {} inserts the incrementally maintained ranks sit at {:.2e} average\n\
         relative error from a from-scratch solve — and maintaining them cost {} \n\
         messages total, vs {} for a single recompute (which a crawler-based\n\
         pipeline would have to repeat every cycle).",
        last.inserts, last.avg_rel_error, last.wave_messages, last.recompute_messages
    );

    if args.json() {
        let params = format!(
            "nodes={nodes} inserts={inserts} eps={eps} sched={} seed={}",
            spec.sched, spec.seed
        );
        let sched = spec.sched.to_string();
        let path = ExperimentRecord::new("continuous", params.clone(), points)
            .with_meta(bench_meta(args, params, "none", "rounds", &sched))
            .write_to_dir(results_dir())
            .expect("write results");
        println!("\nwrote {}", path.display());
    }
    trace.finish().expect("write trace sinks");
}

fn main() {
    let args = Args::parse();
    if args.has("batch-scaling") {
        batch_scaling(&args);
    } else if args.has("scale") {
        scale(&args);
    } else if args.has("sched-scaling") {
        sched_scaling(&args);
    } else if args.has("async-scaling") {
        async_scaling(&args);
    } else if args.has("accel-scaling") {
        accel_scaling(&args);
    } else if args.has("serving") {
        serving_scaling(&args);
    } else {
        continuous_accuracy(&args);
    }
    args.reject_unread();
}
