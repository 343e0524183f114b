//! Table 2: relative-error distribution of the distributed pagerank
//! versus the synchronous reference, across error thresholds.
//!
//! Paper: for each graph size and each ε ∈ {0.2, 1e-1 … 1e-6}, the
//! maximum relative error `|R_d − R_c| / R_c` within the best 50 %,
//! 75 %, 90 %, 99 %, 99.9 % of pages, plus max and average. Headline:
//! "a threshold as high as 0.2 performs extremely well … a threshold
//! of 1e-3 produces extremely good results for all graph sizes."
//!
//! ```text
//! cargo run --release -p dpr-bench --bin table2 [--sizes ...] \
//!     [--peers 500] [--seed N] [--sched pass|priority|greedy] \
//!     [--json] [--full]
//! ```

use dpr_bench::{emit, Args, DEFAULT_SIZES, TABLE23_EPSILONS};
use dpr_sim::scenario::{QualityResult, QualitySweep};
use dpr_sim::spec::{Layer, Observe, ScenarioSpec};
use dpr_telemetry::fmt::fmt_eps;
use dpr_telemetry::table::TextTable;

fn main() {
    let args = Args::parse();
    let trace = args.trace();
    // `--sizes` and the ε list are the sweep axes; every other
    // scenario flag applies to each cell alike.
    let base = args.paper_spec(DEFAULT_SIZES[0], &["peers", "seed", "sched"]);
    let peers = base.num_peers;

    println!("Table 2 — relative error distribution (vs synchronous R_c)");
    println!("cells: relative error (not %); rows: best-x% of pages\n");

    let mut records: Vec<QualityResult> = Vec::new();
    for size in args.sizes() {
        eprintln!("  … building sweep for size {size}");
        let spec = ScenarioSpec {
            nodes: size,
            ..base
        };
        let sweep = QualitySweep::new(&spec);
        let results: Vec<QualityResult> = TABLE23_EPSILONS
            .iter()
            .map(|&epsilon| {
                let cell = ScenarioSpec { epsilon, ..spec };
                let label = format!("{size}@{}", fmt_eps(epsilon));
                let mut obs = Observe::new(trace.recorder());
                obs.label = &label;
                sweep.score(&cell, &cell.run(sweep.workload(), Layer::Engine, obs))
            })
            .collect();

        let mut header = vec!["% pages".to_string()];
        header.extend(TABLE23_EPSILONS.iter().map(|&e| fmt_eps(e)));
        let mut table = TextTable::new(header);
        let pct_labels = ["50", "75", "90", "99", "99.9"];
        for (row_idx, label) in pct_labels.iter().enumerate() {
            let mut cells = vec![label.to_string()];
            for r in &results {
                cells.push(format!("{:.2e}", r.distribution.percentiles[row_idx].1));
            }
            table.push(cells);
        }
        let mut max_row = vec!["Max.".to_string()];
        let mut avg_row = vec!["Avg.".to_string()];
        for r in &results {
            max_row.push(format!("{:.2e}", r.distribution.max));
            avg_row.push(format!("{:.2e}", r.distribution.avg));
        }
        table.push(max_row);
        table.push(avg_row);

        println!("Relative error for {size} nodes:");
        println!("{}", table.render());
        records.extend(results);
    }

    let sched = base.sched.to_string();
    let params = format!("peers={peers} sched={sched} seed={}", base.seed);
    emit(
        &args,
        "table2",
        params,
        ["none", "passes", &sched],
        records,
        "",
    );
    trace.finish().expect("write trace sinks");
    args.reject_unread();
}
