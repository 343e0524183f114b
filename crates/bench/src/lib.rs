//! # dpr-bench — the paper's evaluation as one list of entries
//!
//! Each artefact — Tables 1–6, Fig. 2, the Sec. 4.6.2 estimate (`table3
//! --internet`), the continuous-accuracy run, ablations 1, 4, 5, 6 and
//! 8, and the five `BENCH_*.json` ledger sweeps — is one entry of
//! `ENTRIES` below. One driver, [`main`], parses the flags, sets up
//! `--trace-out` / `--prom-out` for the entries that trace, prints what
//! the entries return, writes their records and refuses every flag
//! nothing read; the binaries `table1`, `table3`..`table6`, `figure2`,
//! `continuous` and `ablations` are its aliases. `records.txt`, beside
//! this crate's manifest, pairs each checked-in record with the
//! invocation that regenerates it: the driver writes an entry's record
//! where that list says, and `scripts/ledger-drift.sh` runs the list.
//!
//! A ledger record (`BENCH_*.json`: modelled units only, as `perf/`
//! owns host seconds) is written on every run into the working
//! directory, a table record into `results/` under `--json`;
//! `DPR_RESULTS_DIR` redirects both, and `--git-sha SHA` / `--stamp TS`
//! stamp their `meta`.

mod ablations;
mod ledger;
mod paper;

use dpr_core::sync_solver::SyncSolver;
use dpr_core::RunMode;
use dpr_sim::batch::WireTraffic;
use dpr_sim::flags::{Args, Reporter};
use dpr_sim::report::{out_dir, BenchMeta, ExperimentRecord};
use dpr_sim::spec::{Layer, Observe, ScenarioSpec};
use dpr_sim::workload::Workload;
use dpr_telemetry::table::TextTable;
use serde::{Serialize, Value};
use std::cell::RefCell;
use std::rc::Rc;

/// One artefact of the evaluation.
struct Entry {
    /// Its binary, then the switch that picks it among the binary's
    /// entries (see [`select`]).
    alias: &'static str,
    /// Whether it honours `--trace-out` / `--prom-out`.
    traced: bool,
    /// Runs its sweep and asserts its gates.
    run: fn(&Args, &Reporter) -> Result<Report, String>,
}

#[rustfmt::skip]
const ENTRIES: [Entry; 18] = [
    Entry { alias: "table1", traced: true, run: paper::table1 },
    Entry { alias: "table3", traced: true, run: paper::table3 },
    Entry { alias: "table3 --batch", traced: true, run: paper::table3_batch },
    Entry { alias: "table4", traced: false, run: paper::table4 },
    Entry { alias: "table5", traced: false, run: paper::table5 },
    Entry { alias: "table6", traced: false, run: paper::table6 },
    Entry { alias: "figure2", traced: false, run: paper::figure2 },
    Entry { alias: "continuous", traced: true, run: ledger::continuous },
    Entry { alias: "continuous --regimes", traced: false, run: ledger::regimes },
    Entry { alias: "continuous --bursts", traced: false, run: ledger::bursts },
    Entry { alias: "continuous --scale", traced: false, run: ledger::scale },
    Entry { alias: "continuous --batch-scaling", traced: false, run: ledger::batch_scaling },
    Entry { alias: "continuous --serving", traced: false, run: ledger::serving },
    Entry { alias: "ablations", traced: false, run: ablations::sync_vs_async },
    Entry { alias: "ablations", traced: false, run: ablations::store_and_resend },
    Entry { alias: "ablations", traced: false, run: ablations::min_forward_floor },
    Entry { alias: "ablations", traced: false, run: ablations::link_aware_placement },
    Entry { alias: "ablations", traced: true, run: ablations::aggregation_grid },
];

/// The entries an invocation of `bin` runs, `given` telling which
/// switches it was given: the one whose switch is given, or else every
/// switchless one, in list order.
fn select(bin: &str, given: impl Fn(&str) -> bool) -> Vec<&'static Entry> {
    let switch = |e: &Entry| e.alias.strip_prefix(bin)?.strip_prefix(" --");
    match ENTRIES.iter().find(|e| switch(e).is_some_and(&given)) {
        Some(entry) => vec![entry],
        None => ENTRIES.iter().filter(|e| e.alias == bin).collect(),
    }
}

/// The entries `invocation`, a binary and its flags, runs.
fn invoked(invocation: &str) -> Vec<&'static Entry> {
    let (bin, flags) = invocation.split_once(' ').unwrap_or((invocation, ""));
    let flags: Vec<&str> = flags.split(' ').collect();
    let given = |switch: &str| flags.contains(&format!("--{switch}").as_str());
    select(bin, given)
}

/// `records.txt`'s `(record, invocation)` lines: each checked-in record
/// and the invocation that regenerates it.
fn records() -> impl Iterator<Item = (&'static str, &'static str)> {
    let lines = include_str!("../records.txt").lines();
    let pairs = lines.filter(|l| !l.is_empty() && !l.starts_with('#'));
    pairs.map(|l| l.split_once(' ').map_or((l, ""), |(r, i)| (r, i.trim())))
}

/// The record `entry` writes: the one `records.txt` pairs with an
/// invocation that runs it.
fn record_of(entry: &Entry) -> Option<&'static str> {
    let runs = |i: &str| invoked(i).iter().any(|e| std::ptr::eq(*e, entry));
    records()
        .find(|(_, invocation)| runs(invocation))
        .map(|(r, _)| r)
}

/// What an entry's run returns: the text it prints and its record, if it
/// writes one.
type Report = (String, Option<Record>);

/// A record's scenario parameters, codec / run-mode / scheduler axes and
/// rows.
type Record = (String, [String; 3], Vec<Value>);

/// `text`, with `rows` as its record.
fn report<T: Serialize>(text: String, params: String, axes: [&str; 3], rows: &[T]) -> Report {
    let rows = rows.iter().map(Serialize::to_value).collect();
    (text, Some((params, axes.map(String::from), rows)))
}

/// The `main` of every bench binary: runs the entries that `bin` and
/// the process arguments select, then refuses any flag given that
/// nothing read — a typo, a flag of another binary or entry, or a
/// scenario flag the run does not honour. Every flag error, a bad value
/// or an unknown flag alike, leaves through here: `error: …` on stderr
/// and exit status 1, as `dpr` does.
pub fn main(bin: &str) {
    let args = Args::parse(std::env::args().skip(1).collect());
    if let Err(e) = args.and_then(|a| run(bin, &a).and_then(|()| a.reject_unread())) {
        eprintln!("error: {e}");
        std::process::exit(1)
    }
}

fn run(bin: &str, args: &Args) -> Result<(), String> {
    let entries = select(bin, |switch| args.has(switch));
    let untraced = Args::default();
    let traced = entries.iter().any(|e| e.traced);
    let trace = Reporter::from_args(if traced { args } else { &untraced })?;
    for entry in entries {
        let (text, rows) = (entry.run)(args, &trace)?;
        print!("{text}");
        if let Some((path, rows)) = record_of(entry).zip(rows) {
            emit(args, path, rows)?;
        }
    }
    trace.finish()
}

/// Writes the record `path` names into [`out_dir`] of its directory: a
/// ledger record on every run, a `results/` one on `--json` only.
fn emit(args: &Args, path: &str, record: Record) -> Result<(), String> {
    let (dir, file) = path.rsplit_once('/').unwrap_or((".", path));
    if dir == "results" && !args.has("json") {
        return Ok(());
    }
    let (params, [codec, run_mode, sched], rows) = record;
    let meta = BenchMeta {
        git_sha: args.get("git-sha", "unknown".to_string())?,
        timestamp: args.get("stamp", "unknown".to_string())?,
        scenario: params.clone(),
        codec,
        run_mode,
        sched,
    };
    let name = file.trim_end_matches(".json");
    let written = ExperimentRecord::new(name, params, meta, rows)
        .write_to_dir(out_dir(dir))
        .map_err(|e| format!("write {file}: {e}"))?;
    println!("\nwrote {}", written.display());
    Ok(())
}

/// A text-table column: its header and a row's cell.
type Column<'a, T> = (&'static str, &'a dyn Fn(&T) -> String);

/// `rows` under `columns`, one line per row.
fn render<T>(columns: &[Column<T>], rows: &[T]) -> String {
    let mut table = TextTable::new(columns.iter().map(|c| c.0));
    for row in rows {
        table.push(columns.iter().map(|c| (c.1)(row)));
    }
    table.render()
}

/// Default graph sizes for laptop runs.
const DEFAULT_SIZES: [usize; 2] = [10_000, 100_000];

/// The paper's reference scenario — `nodes` documents on its 500 peers
/// at the recommended ε, seed 2003 (the venue year) — overridden by the
/// scenario flags named in `honoured` (see [`ScenarioSpec::from_flags`]).
/// A swept axis is not honoured: the entry reads that flag itself.
fn paper_spec(args: &Args, nodes: usize, honoured: &[&str]) -> Result<ScenarioSpec, String> {
    let eps = dpr_core::RECOMMENDED_EPSILON;
    let defaults = ScenarioSpec::new(nodes, dpr_sim::workload::PAPER_NUM_PEERS, eps, 2003);
    let flag = |name: &str| args.optional(name);
    Ok(ScenarioSpec::from_flags(flag, &defaults, honoured)?)
}

/// The value of the flag `name`, `default` without it, refused below
/// `least`.
fn at_least<T>(args: &Args, name: &str, default: T, least: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    let value = args.get(name, default)?;
    if value < least {
        return Err(format!("--{name} must be at least {least}"));
    }
    Ok(value)
}

/// A bound on a number flag: the test, and what it asks for.
type Bound = (fn(f64) -> bool, &'static str);
const POSITIVE: Bound = (|v| v.is_finite() && v > 0.0, "finite and positive");
const NON_NEGATIVE: Bound = (|v| v.is_finite() && v >= 0.0, "finite and non-negative");
const UNIT: Bound = (|v| v > 0.0 && v <= 1.0, "in (0, 1]");

/// The number flag `name`, `default` without it, refused out of `bound`.
fn number(args: &Args, name: &str, default: f64, (ok, what): Bound) -> Result<f64, String> {
    let value = args.get(name, default)?;
    if !ok(value) {
        return Err(format!("--{name} must be {what}, got {value}"));
    }
    Ok(value)
}

/// The comma-separated `--sizes` list; without it, the paper's sizes
/// under `--full` and `default` otherwise.
fn sizes(args: &Args, default: &[usize]) -> Result<Vec<usize>, String> {
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
fn reduction(part: u64, whole: u64) -> f64 {
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
fn converged_runs() -> usize {
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

    /// Each line of `records.txt` names an invocation that runs exactly
    /// one entry, and no entry writes two records.
    #[test]
    fn each_listed_invocation_selects_the_entry_writing_its_record() {
        let mut writers = Vec::new();
        for (record, invocation) in records() {
            let entries = invoked(invocation);
            assert_eq!(entries.len(), 1, "{record}: {invocation}");
            assert_eq!(record_of(entries[0]), Some(record), "{invocation}");
            writers.push(entries[0].alias);
        }
        let listed = writers.len();
        writers.sort_unstable();
        writers.dedup();
        assert_eq!(writers.len(), listed, "an entry is listed twice");
        assert_eq!(invoked("ablations").len(), 5);
        assert_eq!(record_of(invoked("table3 --batch")[0]), None);
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
