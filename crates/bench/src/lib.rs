//! # dpr-bench — experiment regenerators and micro-benchmarks
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | binary | regenerates | paper section |
//! |--------|-------------|---------------|
//! | `table1` | convergence passes vs size × presence | Sec. 4.3, Table 1 |
//! | `table3` | relative-error distribution (Table 2), message traffic + execution time (Table 3) vs ε, from one sweep | Sec. 4.4–4.6, Tables 2–3 |
//! | `table4` | insert path length & node coverage vs ε | Sec. 4.7, Table 4 |
//! | `table5` | qualitative summary from measured JSON | Table 5 |
//! | `table6` | incremental-search traffic reduction | Sec. 4.9, Table 6 |
//! | `continuous` | continuously-accurate ranks under churn, and the `BENCH_*.json` ledger | abstract claim |
//! | `figure2` | the increment-propagation worked example | Sec. 4.7, Fig. 2 |
//! | `ablations` | design-choice ablations from DESIGN.md | — |
//!
//! Every binary accepts `--sizes a,b,c`, `--seed n`, `--json` (dump a
//! JSON record into `results/`), and `--full` (paper-scale sizes; slow
//! on a laptop). The engine-driving binaries (`table1`, `table3`,
//! `continuous`, `ablations`) also take `--trace-out FILE` (JSONL
//! telemetry event trace, viewable with `dpr trace`) and `--prom-out
//! FILE` (Prometheus text snapshot of the run's metrics), and
//! `table1`/`table3`/`continuous` take `--sched pass|priority|greedy`
//! (the shared [`dpr_core::SCHED_HELP`] mode list) to pick the
//! scheduler: full sweep, residual-driven Gauss–Southwell bucket
//! selection, or greedy matching pursuit. A flag no binary reads, or a
//! value it cannot take, is an error (see [`main`]), not silence.
//!
//! The ledger — the checked-in `BENCH_*.json` files, modelled units
//! only (`perf/` owns host seconds) — is written by `continuous`'s
//! five mode switches:
//!
//! | switch | file | rows |
//! |--------|------|------|
//! | `--regimes` | `BENCH_regimes.json` | the Sched × RunMode × Latency grid of [`Cell`]s |
//! | `--bursts` | `BENCH_bursts.json` | global vs SCC-localized mutation bursts |
//! | `--scale` | `BENCH_scale.json` | raw vs compact codec [`Cell`]s per graph size |
//! | `--batch-scaling` | `BENCH_node_batching.json` | one row per frame-size cap |
//! | `--serving` | `BENCH_serving.json` | latency × query strategy serving reports |
//!
//! A sweep converges a cell through [`run_cell`] — once per distinct
//! `(layer, spec)` — and every binary's record leaves through [`emit`].
//! `scripts/ledger-drift.sh` regenerates every checked-in record, the
//! `results/*.json` tables and the ledger alike, and diffs it.

use dpr_core::sync_solver::SyncSolver;
use dpr_core::RunMode;
use dpr_sim::batch::WireTraffic;
use dpr_sim::flags::Args;
use dpr_sim::report::{out_dir, BenchMeta, ExperimentRecord};
use dpr_sim::spec::{Layer, Observe, ScenarioSpec};
use dpr_sim::workload::Workload;
use serde::Serialize;
use std::cell::RefCell;
use std::rc::Rc;

/// The ε sweep of Tables 2 and 3.
pub const TABLE23_EPSILONS: [f64; 7] = [0.2, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6];

/// The ε sweep of Table 4.
pub const TABLE4_EPSILONS: [f64; 6] = [0.2, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5];

/// Default graph sizes for laptop runs.
pub const DEFAULT_SIZES: [usize; 2] = [10_000, 100_000];

/// The `main` of every experiment binary: parses the process
/// arguments and runs `body` over them, then refuses any flag given
/// that nothing read — a typo, a flag of another binary or mode, or a
/// scenario flag the run does not honour. Every flag error, a bad value
/// or an unknown flag alike, leaves through here: `error: …` on stderr
/// and exit status 1, as `dpr` does.
pub fn main(body: impl FnOnce(&Args) -> Result<(), String>) {
    let args = Args::parse(std::env::args().skip(1).collect());
    if let Err(e) = args.and_then(|a| body(&a).and_then(|()| a.reject_unread())) {
        eprintln!("error: {e}");
        std::process::exit(1)
    }
}

/// The run's scenario: `defaults` overridden by the scenario flags
/// present of those named in `honoured` (see
/// [`ScenarioSpec::from_flags`]), validated. A swept axis is not
/// honoured: the binary reads that flag itself, if at all, as a list.
pub fn spec(
    args: &Args,
    defaults: &ScenarioSpec,
    honoured: &[&str],
) -> Result<ScenarioSpec, String> {
    Ok(ScenarioSpec::from_flags(
        |k| args.optional(k),
        defaults,
        honoured,
    )?)
}

/// [`spec`] over the paper's reference scenario: `nodes` documents on
/// its 500 peers at the recommended ε, seed 2003 (the venue year).
pub fn paper_spec(args: &Args, nodes: usize, honoured: &[&str]) -> Result<ScenarioSpec, String> {
    let (peers, eps) = (
        dpr_sim::workload::PAPER_NUM_PEERS,
        dpr_core::RECOMMENDED_EPSILON,
    );
    spec(args, &ScenarioSpec::new(nodes, peers, eps, 2003), honoured)
}

/// The value of the count flag `name`, `default` without it, refused
/// below 1.
pub fn count(args: &Args, name: &str, default: usize) -> Result<usize, String> {
    match args.get(name, default)? {
        0 => Err(format!("--{name} must be at least 1")),
        n => Ok(n),
    }
}

/// The comma-separated `--sizes` list; without it, the paper's sizes
/// under `--full` and `default` otherwise.
pub fn sizes(args: &Args, default: &[usize]) -> Result<Vec<usize>, String> {
    let sizes = args.get_list("sizes")?;
    if sizes.contains(&0) {
        return Err("--sizes: a graph has at least one document".into());
    }
    Ok(if !sizes.is_empty() {
        sizes
    } else if args.has("full") {
        dpr_sim::workload::PAPER_GRAPH_SIZES.to_vec()
    } else {
        default.to_vec()
    })
}

/// One converged run — the row type of the regime ledger. The axis
/// columns name the regime (`none` / `array` where the layer has no
/// such axis), the counters are the paper's units, and the `*_vs_*`
/// columns are `null` until a sweep fills them from
/// [`versus`](Self::versus).
#[derive(Debug, Clone, Default, Serialize)]
pub struct Cell {
    /// `engine` or `cluster`.
    pub layer: String,
    /// `passes` (engine), `rounds` or `chaotic`.
    pub run_mode: String,
    /// Network model of a chaotic run.
    pub latency: String,
    /// Scheduler.
    pub sched: String,
    /// `array` (engine) or `frames`.
    pub wire: String,
    /// Frame codec.
    pub codec: String,
    /// Documents.
    pub docs: usize,
    /// Peers.
    pub peers: usize,
    /// Convergence threshold.
    pub epsilon: f64,
    /// Engine passes, cluster rounds, or chaotic peer steps.
    pub steps: u64,
    /// Envelopes the chaotic runtime delivered.
    pub deliveries: u64,
    /// Remote rank updates emitted — the paper's message metric.
    pub remote_messages: u64,
    /// Payload bytes the transport carried (none under the engine).
    pub wire_bytes: u64,
    /// `wire_bytes / docs`.
    pub wire_bytes_per_doc: f64,
    /// The chaotic event clock at quiescence.
    pub virtual_secs: Option<f64>,
    /// Per-document L1 distance to the synchronous solution.
    pub l1_per_doc_vs_sync: f64,
    /// Critical-path share of compute (chaotic runs; the three sum to
    /// 100 by the exact-telescoping gate in [`run_cell`]).
    pub compute_pct: Option<f64>,
    /// Critical-path share of the wire.
    pub wire_pct: Option<f64>,
    /// Critical-path share of waiting.
    pub wait_pct: Option<f64>,
    /// Message reduction against the pass-scheduled cell of the group.
    pub msg_reduction_vs_pass: Option<f64>,
    /// Rank parity against the same.
    pub l1_per_doc_vs_pass: Option<f64>,
    /// Rank parity against the round-barrier pass cluster at this ε.
    pub l1_per_doc_vs_rounds: Option<f64>,
    /// Byte reduction against the raw-codec cell of the same size.
    pub byte_reduction_vs_raw: Option<f64>,
    /// FNV-1a over the chaotic runtime's executed event schedule (0
    /// under the engine and rounds).
    #[serde(skip)]
    pub schedule_fnv: u64,
    /// The chaotic event clock at quiescence, in nanoseconds.
    #[serde(skip)]
    pub virtual_ns: u64,
    /// Converged per-document ranks (shared: a row cloned out of a
    /// cell does not copy them).
    #[serde(skip)]
    pub ranks: Rc<Vec<f64>>,
    /// Full wire counters of a cluster run.
    #[serde(skip)]
    pub traffic: Option<WireTraffic>,
}

/// `1 − part / whole`: the share of `whole` that `part` saves.
pub fn reduction(part: u64, whole: u64) -> f64 {
    1.0 - part as f64 / whole.max(1) as f64
}

fn l1_per_doc(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

impl Cell {
    /// This cell against `baseline`: the remote-message reduction and
    /// the per-document L1 rank gap.
    pub fn versus(&self, baseline: &Cell) -> (f64, f64) {
        (
            reduction(self.remote_messages, baseline.remote_messages),
            l1_per_doc(&self.ranks, &baseline.ranks),
        )
    }
}

thread_local! {
    /// Every cell converged by this thread, under what produced it.
    static CONVERGED: RefCell<Vec<(Layer, ScenarioSpec, Rc<Cell>)>> = const { RefCell::new(Vec::new()) };
    /// The synchronous reference of the last graph seen, as `(nodes,
    /// seed, ranks)`; no graph has zero nodes.
    static SYNC: RefCell<(usize, u64, Vec<f64>)> = const { RefCell::new((0, 0, Vec::new())) };
}

/// Converged runs [`run_cell`] has performed on this thread.
pub fn converged_runs() -> usize {
    CONVERGED.with(|c| c.borrow().len())
}

/// Converges `spec` over `w` (which must be `spec.workload()`) on
/// `layer` through [`ScenarioSpec::run`] and describes the run as a
/// [`Cell`]: a rounds cluster charges its frames over cached addresses,
/// a chaotic one keeps its causal profile. A repeated `(layer, spec)`
/// returns the first run's cell.
///
/// # Panics
///
/// If the run does not converge or quiesce, if Safra does not announce
/// a chaotic run's quiescence, or if its causal profile does not
/// telescope to its virtual clock exactly.
pub fn run_cell(w: &Workload, layer: Layer, spec: &ScenarioSpec) -> Rc<Cell> {
    let shape = (w.graph.num_nodes(), w.num_peers);
    assert_eq!(
        shape,
        (spec.nodes, spec.num_peers),
        "not the spec's workload"
    );
    let hit = CONVERGED.with(|c| {
        let c = c.borrow();
        let same = c.iter().find(|(l, s, _)| (l, s) == (&layer, spec));
        same.map(|(_, _, cell)| cell.clone())
    });
    if let Some(cell) = hit {
        return cell;
    }
    let (sched, eps) = (spec.sched, spec.epsilon);
    eprintln!(
        "  … {layer:?} ({} docs, {} peers, {}, frames, {}), {sched} sched, eps {eps}",
        spec.nodes, spec.num_peers, spec.run_mode, spec.codec
    );
    let mut obs = Observe::new(&dpr_telemetry::NOOP);
    let (cluster, rounds) = (layer == Layer::Cluster, spec.run_mode == RunMode::Rounds);
    (obs.hops, obs.profile) = ((cluster && rounds).then_some(true), cluster && !rounds);
    let out = spec.run(w, layer, obs);
    assert!(out.quiesced, "{layer:?} cell must converge or quiesce");
    // The axes a layer does not have read `none` / `array`.
    let (run_mode, wire, codec) = match layer {
        Layer::Engine => ("passes".into(), "array", "none".into()),
        Layer::Cluster => (spec.run_mode.to_string(), "frames", spec.codec.to_string()),
    };
    let wire_bytes = out.traffic.map_or(0, |t| t.bytes_on_wire);
    let mut cell = Cell {
        layer: format!("{layer:?}").to_lowercase(),
        run_mode,
        latency: "none".into(),
        sched: sched.to_string(),
        wire: wire.into(),
        codec,
        docs: spec.nodes,
        peers: spec.num_peers,
        epsilon: eps,
        steps: out.steps,
        deliveries: out.deliveries,
        remote_messages: out.remote_messages,
        wire_bytes,
        wire_bytes_per_doc: wire_bytes as f64 / spec.nodes as f64,
        schedule_fnv: out.schedule_fnv,
        virtual_ns: out.virtual_ns,
        traffic: out.traffic,
        ..Cell::default()
    };
    if let Some(p) = &out.profile {
        assert!(
            out.announced,
            "chaotic cell must quiesce, certified by Safra"
        );
        // The profiler's acceptance gate at bench scale: the
        // critical-path attribution sums to the runtime's virtual
        // clock, integer-exactly.
        assert_eq!(
            (p.compute_ns + p.wire_ns + p.wait_ns, p.virtual_ns),
            (out.virtual_ns, out.virtual_ns),
            "profile breakdown must telescope to the virtual clock"
        );
        cell.latency = spec.latency.to_string();
        cell.virtual_secs = Some(out.virtual_ns as f64 / 1e9);
        (cell.compute_pct, cell.wire_pct) = (Some(p.compute_pct()), Some(p.wire_pct()));
        cell.wait_pct = Some(p.wait_pct());
    }
    cell.l1_per_doc_vs_sync = SYNC.with(|s| {
        let mut s = s.borrow_mut();
        if (s.0, s.1) != (spec.nodes, spec.seed) {
            let solved = SyncSolver::new().tolerance(1e-13).solve(&w.graph).ranks;
            *s = (spec.nodes, spec.seed, solved);
        }
        l1_per_doc(&out.ranks, &s.2)
    });
    cell.ranks = Rc::new(out.ranks);
    let cell = Rc::new(cell);
    CONVERGED.with(|c| c.borrow_mut().push((layer, *spec, cell.clone())));
    cell
}

/// The end of every experiment binary: prints `table`, then writes
/// `rows` as the record `name` — always for a ledger record
/// (`BENCH_*`, into the working directory, which is the workspace root
/// under `cargo run`), under `--json` for a table record (into
/// `results/`); [`out_dir`]'s override redirects both. `axes` are the
/// codec / run-mode / scheduler values the rows span, stamped into the
/// record's `meta` beside the driver-supplied `--git-sha` / `--stamp`.
pub fn emit<T: Serialize>(
    args: &Args,
    name: &str,
    params: String,
    axes: [&str; 3],
    rows: Vec<T>,
    table: &str,
) -> Result<(), String> {
    print!("{table}");
    let [codec, run_mode, sched] = axes.map(String::from);
    let meta = BenchMeta {
        git_sha: args.get("git-sha", "unknown".to_string())?,
        timestamp: args.get("stamp", "unknown".to_string())?,
        scenario: params.clone(),
        codec,
        run_mode,
        sched,
    };
    let ledger = name.starts_with("BENCH_");
    if ledger || args.has("json") {
        let dir = out_dir(if ledger { "." } else { "results" });
        let path = ExperimentRecord::new(name, params, meta, rows)
            .write_to_dir(dir)
            .map_err(|e| format!("write {name}.json: {e}"))?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_sim::flags::Reporter;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from).collect())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn spec(s: &str) -> ScenarioSpec {
        let honoured = ["nodes", "peers", "eps", "seed", "sched"];
        paper_spec(&args(s), 10_000, &honoured).unwrap()
    }

    #[test]
    fn parses_values_and_switches() {
        let a = args("--seed 7 --json --sizes 100,200");
        assert_eq!(paper_spec(&a, 10_000, &["seed"]).unwrap().seed, 7);
        assert!(a.has("json"));
        assert_eq!(sizes(&a, &DEFAULT_SIZES), Ok(vec![100, 200]));
        assert!(!a.has("full"));
    }

    #[test]
    fn defaults() {
        let a = args("");
        assert_eq!(spec("").seed, 2003);
        assert!(!a.has("json"));
        assert_eq!(sizes(&a, &DEFAULT_SIZES), Ok(DEFAULT_SIZES.to_vec()));
    }

    #[test]
    fn full_selects_paper_sizes() {
        let a = args("--full");
        let paper = dpr_sim::workload::PAPER_GRAPH_SIZES.to_vec();
        assert_eq!(sizes(&a, &DEFAULT_SIZES), Ok(paper));
        assert!(sizes(&args("--sizes abc"), &DEFAULT_SIZES).is_err());
    }

    #[test]
    fn rejects_a_flag_nothing_read() {
        let a = args("--seed 7 --threads 4");
        assert_eq!(a.get("seed", 0), Ok(7));
        let e = a.reject_unread().unwrap_err();
        assert_eq!(e.to_string(), "unknown flag --threads");
    }

    #[test]
    fn sched_flag_selects_sched_mode() {
        use dpr_core::SchedMode;
        assert_eq!(spec("").sched, SchedMode::Pass);
        assert_eq!(spec("--sched pass").sched, SchedMode::Pass);
        assert_eq!(spec("--sched priority").sched, SchedMode::Priority);
    }

    #[test]
    fn typed_get() {
        let a = args("--eps 0.5");
        assert_eq!(a.get("eps", 1.0), Ok(0.5));
        assert_eq!(a.get("nope", 9usize), Ok(9));
    }

    #[test]
    #[should_panic(expected = "unexpected positional")]
    fn rejects_positional() {
        args("loose");
    }

    #[test]
    fn run_cell_converges_a_repeated_cell_once() {
        let spec = ScenarioSpec::new(300, 6, 1e-3, 11);
        let w = spec.workload();
        let first = run_cell(&w, Layer::Cluster, &spec);
        let again = run_cell(&w, Layer::Cluster, &spec);
        assert!(Rc::ptr_eq(&first, &again));
        assert_eq!(converged_runs(), 1);
        // The layer and every spec field tell cells apart.
        let priority = dpr_core::SchedMode::Priority;
        run_cell(&w, Layer::Engine, &spec);
        run_cell(
            &w,
            Layer::Cluster,
            &ScenarioSpec {
                sched: priority,
                ..spec
            },
        );
        assert_eq!(converged_runs(), 3);
    }

    #[test]
    fn a_cell_versus_itself_is_zero() {
        let spec = ScenarioSpec::new(300, 6, 1e-3, 11);
        let cell = run_cell(&spec.workload(), Layer::Engine, &spec);
        assert!(cell.remote_messages > 0 && cell.l1_per_doc_vs_sync > 0.0);
        assert_eq!(cell.versus(&cell), (0.0, 0.0));
    }

    #[test]
    fn trace_flag_builds_a_live_recorder() {
        let dir = std::env::temp_dir().join(format!("dpr-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.jsonl");
        let t = Reporter::from_args(&args(&format!("--trace-out {}", p.display()))).unwrap();
        assert!(t.recorder().enabled());
        assert!(t.recorder_arc().is_some());
        t.finish().unwrap();
        assert!(p.exists());
        std::fs::remove_dir_all(&dir).unwrap();

        let off = Reporter::from_args(&args("")).unwrap();
        assert!(!off.recorder().enabled());
        assert!(off.recorder_arc().is_none());
        off.finish().unwrap();
    }
}
