//! Table 4: path length and node coverage of document-insert waves.
//!
//! Paper: for each graph size and ε ∈ {0.2, 1e-1 … 1e-5}, average over
//! 1000 random insert origins of (a) the longest update-message chain
//! and (b) the number of distinct documents receiving an update. "Both
//! … are largely independent of, or grow extremely slowly with, the
//! graph size" and coverage grows ~linearly in 1/ε.
//!
//! ```text
//! cargo run --release -p dpr-bench --bin table4 [--sizes ...] \
//!     [--samples 1000] [--damping 0.85] [--seed N] [--json] [--full]
//! ```

use dpr_bench::{count, emit, sizes, DEFAULT_SIZES, TABLE4_EPSILONS};
use dpr_graph::powerlaw::paper_graph;
use dpr_sim::flags::Args;
use dpr_sim::scenario::{insert_experiment, InsertResult};
use dpr_telemetry::fmt::fmt_eps;
use dpr_telemetry::table::TextTable;

fn main() {
    dpr_bench::main(run)
}

fn run(args: &Args) -> Result<(), String> {
    let samples = count(args, "samples", 1000)?;
    let damping: f64 = args.get("damping", dpr_core::DEFAULT_DAMPING)?;
    let seed: u64 = args.get("seed", 2003)?;
    if damping.is_nan() || damping <= 0.0 || damping > 1.0 {
        return Err(format!("--damping must be in (0, 1], got {damping}"));
    }

    println!("Table 4 — insert propagation ({samples} random origins, damping {damping})\n");

    let sizes = sizes(args, &DEFAULT_SIZES)?;
    let graphs: Vec<_> = sizes
        .iter()
        .map(|&s| {
            eprintln!("  … generating graph {s}");
            paper_graph(s, seed)
        })
        .collect();

    let mut records: Vec<InsertResult> = Vec::new();
    let mut path_table = TextTable::new(
        std::iter::once("eps".to_string()).chain(sizes.iter().map(|s| s.to_string())),
    );
    let mut cov_table = TextTable::new(
        std::iter::once("eps".to_string()).chain(sizes.iter().map(|s| s.to_string())),
    );
    for &eps in &TABLE4_EPSILONS {
        let mut path_row = vec![fmt_eps(eps)];
        let mut cov_row = vec![fmt_eps(eps)];
        for g in &graphs {
            let r = insert_experiment(g, eps, damping, samples, seed ^ 0xfeed);
            path_row.push(format!("{:.1}", r.avg_path_length));
            cov_row.push(format!("{:.0}", r.avg_node_coverage));
            records.push(r);
        }
        path_table.push(path_row);
        cov_table.push(cov_row);
        eprintln!("  … finished eps {eps}");
    }

    println!("Path length:");
    println!("{}", path_table.render());
    println!("Node coverage:");
    println!("{}", cov_table.render());
    let note = "(paper: path length 2-24 growing ~log(1/eps); coverage ~linear in 1/eps,\n \
                bounded by graph size at tiny thresholds)\n";
    let params = format!("samples={samples} damping={damping} seed={seed}");
    emit(
        args,
        "table4",
        params,
        ["none", "waves", "none"],
        records,
        note,
    )
}
