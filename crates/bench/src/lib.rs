//! # dpr-bench — experiment regenerators and micro-benchmarks
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | binary | regenerates | paper section |
//! |--------|-------------|---------------|
//! | `table1` | convergence passes vs size × presence | Sec. 4.3, Table 1 |
//! | `table2` | relative-error distribution vs ε | Sec. 4.4, Table 2 |
//! | `table3` | message traffic + execution time vs ε | Sec. 4.5/4.6, Table 3 |
//! | `table4` | insert path length & node coverage vs ε | Sec. 4.7, Table 4 |
//! | `table5` | qualitative summary from measured JSON | Table 5 |
//! | `table6` | incremental-search traffic reduction | Sec. 4.9, Table 6 |
//! | `continuous` | continuously-accurate ranks under churn | abstract claim |
//! | `figure2` | the increment-propagation worked example | Sec. 4.7, Fig. 2 |
//! | `ablations` | design-choice ablations from DESIGN.md | — |
//!
//! Every binary accepts `--sizes a,b,c`, `--seed n`, `--json` (dump a
//! JSON record into `results/`), and `--full` (paper-scale sizes; slow
//! on a laptop). The engine-driving binaries (`table1`–`table3`,
//! `continuous`, `ablations`) also take `--trace-out FILE` (JSONL
//! telemetry event trace, viewable with `dpr trace`) and `--prom-out
//! FILE` (Prometheus text snapshot of the run's metrics), and
//! `table1`–`table3`/`continuous` take `--sched pass|priority|greedy`
//! (the shared [`dpr_core::SCHED_HELP`] mode list) to pick the
//! scheduler: full sweep, residual-driven Gauss–Southwell bucket
//! selection, or greedy matching pursuit. A flag no binary reads is an
//! error, not silence. `continuous --sched-scaling` measures the priority
//! scheduler's message saving and parity and writes
//! `BENCH_sched_quality.json`. `cargo bench -p dpr-bench` runs the
//! criterion micro-benchmarks over the hot kernels.

use dpr_sim::flags::Reporter;
use dpr_sim::spec::ScenarioSpec;

/// The ε sweep of Tables 2 and 3.
pub const TABLE23_EPSILONS: [f64; 7] = [0.2, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6];

/// The ε sweep of Table 4.
pub const TABLE4_EPSILONS: [f64; 6] = [0.2, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5];

/// Default graph sizes for laptop runs.
pub const DEFAULT_SIZES: [usize; 2] = [10_000, 100_000];

/// The experiment binaries' edge of the shared flag parser
/// ([`dpr_sim::flags::Args`]): every bad flag is a panic here — these
/// are experiment binaries, so failing loudly beats a typed error
/// nobody handles.
#[derive(Debug)]
pub struct Args(dpr_sim::flags::Args);

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let parsed = dpr_sim::flags::Args::parse(args.into_iter().collect());
        Args(parsed.unwrap_or_else(|e| panic!("{e}")))
    }

    /// Whether a bare switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.0.has(name)
    }

    /// A typed value with a default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.0.get(name, default).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The run's scenario: `defaults` overridden by the scenario flags
    /// present (`--nodes`, `--peers`, `--eps`, `--seed`, `--sched`, …;
    /// see [`ScenarioSpec::from_flags`]), validated.
    /// Flags named in `swept` are hidden from the scenario parser: the
    /// binary sweeps that axis itself and reads the flag, if at all,
    /// as a list.
    pub fn spec(&self, defaults: &ScenarioSpec, swept: &[&str]) -> ScenarioSpec {
        let lookup = |k: &str| self.0.optional(k).filter(|_| !swept.contains(&k));
        ScenarioSpec::from_flags(lookup, defaults).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`spec`](Self::spec) over the paper's reference scenario: `nodes`
    /// documents on its 500 peers at the recommended ε, seed 2003 (the
    /// venue year).
    pub fn paper_spec(&self, nodes: usize, swept: &[&str]) -> ScenarioSpec {
        let (peers, eps) = (
            dpr_sim::workload::PAPER_NUM_PEERS,
            dpr_core::RECOMMENDED_EPSILON,
        );
        self.spec(&ScenarioSpec::new(nodes, peers, eps, 2003), swept)
    }

    /// A comma-separated list of sizes, honoring `--full`.
    pub fn sizes(&self) -> Vec<usize> {
        self.sizes_or(&DEFAULT_SIZES)
    }

    /// Like [`sizes`](Self::sizes), but with an explicit fallback when
    /// neither `--sizes` nor `--full` was given (for experiments whose
    /// natural sweep differs from [`DEFAULT_SIZES`]).
    pub fn sizes_or(&self, default: &[usize]) -> Vec<usize> {
        match self.0.get_list("sizes") {
            Err(e) => panic!("{e}"),
            Ok(sizes) if !sizes.is_empty() => sizes,
            Ok(_) if self.has("full") => dpr_sim::workload::PAPER_GRAPH_SIZES.to_vec(),
            Ok(_) => default.to_vec(),
        }
    }

    /// Whether to dump JSON records (`--json`).
    pub fn json(&self) -> bool {
        self.has("json")
    }

    /// Panics on any flag given that nothing read — a typo, or a
    /// flag of another binary or mode. The last line of every `main`.
    pub fn reject_unread(&self) {
        self.0.reject_unread().unwrap_or_else(|e| panic!("{e}"));
    }

    /// The telemetry side-channel from `--trace-out FILE` (JSONL event
    /// trace) and `--prom-out FILE` (Prometheus snapshot, written at
    /// [`Reporter::finish`]). Without either flag the reporter's
    /// recorder is the no-op one and `finish` does nothing.
    pub fn trace(&self) -> Reporter {
        Reporter::from_args(&self.0).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_args(s.split_whitespace().map(String::from))
    }

    fn spec(s: &str) -> ScenarioSpec {
        args(s).spec(&ScenarioSpec::new(10_000, 500, 1e-3, 2003), &[])
    }

    #[test]
    fn parses_values_and_switches() {
        let a = args("--seed 7 --json --sizes 100,200");
        assert_eq!(
            a.spec(&ScenarioSpec::new(10_000, 500, 1e-3, 2003), &[])
                .seed,
            7
        );
        assert!(a.json());
        assert_eq!(a.sizes(), vec![100, 200]);
        assert!(!a.has("full"));
    }

    #[test]
    fn defaults() {
        let a = args("");
        assert_eq!(spec("").seed, 2003);
        assert!(!a.json());
        assert_eq!(a.sizes(), DEFAULT_SIZES.to_vec());
    }

    #[test]
    fn full_selects_paper_sizes() {
        let a = args("--full");
        assert_eq!(a.sizes(), dpr_sim::workload::PAPER_GRAPH_SIZES.to_vec());
    }

    #[test]
    #[should_panic(expected = "unknown flag --threads")]
    fn rejects_a_flag_nothing_read() {
        let a = args("--seed 7 --threads 4");
        assert_eq!(a.get("seed", 0), 7);
        a.reject_unread();
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
        let eps: f64 = a.get("eps", 1.0);
        assert_eq!(eps, 0.5);
        let missing: usize = a.get("nope", 9);
        assert_eq!(missing, 9);
    }

    #[test]
    #[should_panic(expected = "unexpected positional")]
    fn rejects_positional() {
        args("loose");
    }

    #[test]
    fn trace_flag_builds_a_live_recorder() {
        let dir = std::env::temp_dir().join(format!("dpr-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.jsonl");
        let t = args(&format!("--trace-out {}", p.display())).trace();
        assert!(t.recorder().enabled());
        assert!(t.recorder_arc().is_some());
        t.finish().unwrap();
        assert!(p.exists());
        std::fs::remove_dir_all(&dir).unwrap();

        let off = args("").trace();
        assert!(!off.recorder().enabled());
        assert!(off.recorder_arc().is_none());
        off.finish().unwrap();
    }
}
