//! Table 1: convergence rate of the distributed pagerank algorithm.
//!
//! Paper: 500 peers, ε = 1e-3, graph sizes 10k–5000k, peer presence
//! 100 % / 75 % / 50 %. "When all peers are present, the number of
//! passes for convergence is of the order of 100 … With only half the
//! peers present … only a factor of two slowdown."
//!
//! ```text
//! cargo run --release -p dpr-bench --bin table1 [--sizes 10000,100000] \
//!     [--peers 500] [--eps 1e-3] [--seed N] \
//!     [--sched pass|priority|greedy] [--json] [--full]
//! ```

use dpr_bench::{emit, paper_spec, sizes, DEFAULT_SIZES};
use dpr_sim::flags::{Args, Reporter};
use dpr_sim::scenario::{run_convergence, ConvergenceResult};
use dpr_sim::spec::ScenarioSpec;
use dpr_telemetry::table::TextTable;

fn main() {
    dpr_bench::main(run)
}

fn run(args: &Args) -> Result<(), String> {
    let trace = Reporter::from_args(args)?;
    // `--sizes` is the sweep axis; every other scenario flag applies
    // to each size alike.
    let base = paper_spec(args, DEFAULT_SIZES[0], &["peers", "eps", "seed", "sched"])?;
    let (peers, eps) = (base.num_peers, base.epsilon);
    let presences = [1.0f64, 0.75, 0.5];

    println!("Table 1 — convergence rate ({peers} peers, eps {eps})");
    println!("(paper: ~74-241 passes; slower with fewer peers present)\n");

    let mut table = TextTable::new(["graph size", "100%", "75%", "50%"]);
    let mut rows: Vec<ConvergenceResult> = Vec::new();
    for size in sizes(args, &DEFAULT_SIZES)? {
        let spec = ScenarioSpec {
            nodes: size,
            ..base
        };
        let w = spec.workload();
        let mut cells = vec![size.to_string()];
        for presence in presences {
            let label = format!("{size}@{:.0}%", presence * 100.0);
            let r = run_convergence(&w, &spec, presence, trace.recorder(), &label);
            assert!(r.converged, "run must converge");
            cells.push(r.passes.to_string());
            rows.push(r);
        }
        table.push(cells);
        eprintln!("  … finished size {size}");
    }
    let table = format!(
        "{}\npasses per cell; each column re-draws the online peer set after every pass\n",
        table.render()
    );
    let sched = base.sched.to_string();
    let params = format!("peers={peers} eps={eps} sched={sched} seed={}", base.seed);
    let axes = ["none", "passes", &sched];
    emit(args, "table1", params, axes, rows, &table)?;
    trace.finish()
}
