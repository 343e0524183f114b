//! Tables 2 and 3: relative error, message traffic and execution time
//! vs error threshold, from one sweep — the paper reports both tables
//! from the same runs, so each (size, ε) cell converges once and its
//! [`QualityResult`] is one row of each.
//!
//! Table 2 (Sec. 4.4): the maximum relative error `|R_d − R_c| / R_c`
//! within the best 50 %, 75 %, 90 %, 99 %, 99.9 % of pages, plus max
//! and average. "A threshold as high as 0.2 performs extremely well …
//! a threshold of 1e-3 produces extremely good results for all graph
//! sizes."
//!
//! Table 3 (Sec. 4.5/4.6): total update messages (millions) and
//! messages per node for each ε, and convergence wall-time under the
//! serialized-transfer model at 32 KB/s and 200 KB/s (24-byte
//! messages). "The increase in message traffic with the threshold is
//! approximately logarithmic … message traffic per node is largely
//! independent of the graph size."
//!
//! For each size the binary prints Table 2's block, then Table 3's;
//! `--json` writes the rows once, as `results/table3.json`.
//!
//! With `--internet`, also prints the Sec. 4.6.2 extrapolation: a
//! 3-billion-document web served by web servers over T3 links.
//!
//! With `--batch`, runs the *message-level cluster* instead of the array
//! engine, and prints the aggregation columns: logical messages,
//! coalesced entries, frames, measured bytes on the wire vs the paper's
//! 24-byte-per-update baseline, and routed overlay transmissions
//! (per-update DHT routing, charged as a shadow of the framed run, vs
//! one route — then one cached IP send — per frame). Every frame cap
//! converges to bit-identical ranks, one entry per payload included
//! (see `dpr_sim::batch`). `--frame-bytes N` sets the frame size cap.
//!
//! ```text
//! cargo run --release -p dpr-bench --bin table3 [--sizes ...] \
//!     [--peers 500] [--seed N] [--sched pass|priority|greedy] \
//!     [--internet] [--json] [--full] [--compute-secs N] \
//!     [--batch [--frame-bytes 1400] [--eps e1,e2,...]]
//! ```

use dpr_bench::{emit, paper_spec, sizes, DEFAULT_SIZES, TABLE23_EPSILONS};
use dpr_core::error_stats::ErrorDistribution;
use dpr_core::exec_model::{
    aggregate_time_secs, internet_scale_days, RATE_200KBS, RATE_32KBS, RATE_T3, SECS_PER_HOUR,
};
use dpr_node::node::{WireMode, DEFAULT_MAX_FRAME_BYTES};
use dpr_sim::batch::BatchReport;
use dpr_sim::flags::{Args, Reporter};
use dpr_sim::scenario::{QualityResult, QualitySweep};
use dpr_sim::spec::{Layer, Observe, ScenarioSpec};
use dpr_telemetry::fmt::{fmt_bytes, fmt_eps};
use dpr_telemetry::table::TextTable;
use serde::Serialize;

/// One (graph, ε, frame-cap) run of the batched wire path: the
/// batched-vs-unbatched traffic comparison and the batched cluster's
/// relative-error distribution vs the synchronous reference.
#[derive(Serialize)]
struct BatchedRow {
    epsilon: f64,
    report: BatchReport,
    distribution: ErrorDistribution,
}

/// The ε sweep of the `--batch` mode. The cluster simulates every
/// wire payload individually, so the sweep stops at 1e-3; override
/// with `--eps`.
const BATCH_EPSILONS: [f64; 4] = [0.2, 1e-1, 1e-2, 1e-3];

fn batch_mode(args: &Args) -> Result<(), String> {
    let trace = Reporter::from_args(args)?;
    let cap: usize = args.get("frame-bytes", DEFAULT_MAX_FRAME_BYTES)?;
    let base = ScenarioSpec {
        wire: WireMode {
            max_frame_bytes: cap,
        },
        // `--sizes` and ε (a comma list here) are the sweep axes.
        ..paper_spec(args, DEFAULT_SIZES[0], &["peers", "seed", "sched", "codec"])?
    };
    let peers = base.num_peers;
    let mut epsilons: Vec<f64> = args.get_list("eps")?;
    if epsilons.is_empty() {
        epsilons = BATCH_EPSILONS.to_vec();
    }
    for &epsilon in &epsilons {
        let cell = ScenarioSpec { epsilon, ..base };
        cell.validate()?;
    }

    println!("Table 3 (batched wire path) — traffic vs eps, frames capped at {cap} B");
    println!("(both wire modes converge to bit-identical ranks; asserted per row)\n");

    let mut records: Vec<BatchedRow> = Vec::new();
    for size in sizes(args, &DEFAULT_SIZES)? {
        eprintln!("  … running batched sweep for size {size}");
        let spec = ScenarioSpec {
            nodes: size,
            ..base
        };
        let sweep = QualitySweep::new(&spec);
        let mut table = TextTable::new([
            "eps",
            "msgs",
            "entries",
            "frames",
            "bytes on wire",
            "24-B baseline",
            "routed unbatched",
            "routed batched",
            "reduction",
            "max rel err",
        ]);
        for &epsilon in &epsilons {
            let cell = ScenarioSpec { epsilon, ..spec };
            let mut obs = trace.observe();
            (obs.hops, obs.unbatched) = (Some(true), Some(false));
            let out = cell.run(sweep.workload(), Layer::Cluster, obs);
            let r = BatchedRow {
                epsilon,
                report: BatchReport::new(&cell, &out),
                distribution: sweep.score(&cell, &out).distribution,
            };
            table.push([
                fmt_eps(epsilon),
                r.report.batched.updates.to_string(),
                r.report.batched.entries.to_string(),
                r.report.batched.frames.to_string(),
                fmt_bytes(r.report.batched.bytes_on_wire),
                fmt_bytes(r.report.unbatched.bytes_on_wire),
                r.report.unbatched.routed_messages.to_string(),
                r.report.batched.routed_messages.to_string(),
                format!("{:.1}x", r.report.routed_reduction),
                format!("{:.2e}", r.distribution.max),
            ]);
            records.push(r);
        }
        println!("{size} nodes:");
        println!("{}", table.render());
    }
    let note = "aggregation coalesces each pass's updates per destination peer and pays one\n\
                route (then one cached IP send) per frame instead of one route per update\n";
    let (codec, sched) = (base.codec.to_string(), base.sched.to_string());
    let params = format!(
        "peers={peers} frame_bytes={cap} sched={sched} seed={}",
        base.seed
    );
    let axes = [&codec, "rounds", &sched];
    emit(args, "table3_batch", params, axes, records, note)?;
    trace.finish()
}

fn main() {
    dpr_bench::main(|args| {
        if args.has("batch") {
            batch_mode(args)
        } else {
            sweep(args)
        }
    })
}

/// The relative-error distribution of each ε, one column per ε.
fn table2(results: &[QualityResult]) -> TextTable {
    let header = std::iter::once("% pages".to_string()).chain(TABLE23_EPSILONS.map(fmt_eps));
    let mut table = TextTable::new(header);
    let mut row = |label: &str, cell: &dyn Fn(&QualityResult) -> f64| {
        let cells = results.iter().map(|r| format!("{:.2e}", cell(r)));
        table.push(std::iter::once(label.to_string()).chain(cells));
    };
    for (i, label) in ["50", "75", "90", "99", "99.9"].into_iter().enumerate() {
        row(label, &|r| r.distribution.percentiles[i].1);
    }
    row("Max.", &|r| r.distribution.max);
    row("Avg.", &|r| r.distribution.avg);
    table
}

fn sweep(args: &Args) -> Result<(), String> {
    let trace = Reporter::from_args(args)?;
    // `--sizes` and the ε list are the sweep axes; every other
    // scenario flag applies to each cell alike.
    let base = paper_spec(args, DEFAULT_SIZES[0], &["peers", "seed", "sched"])?;
    let peers = base.num_peers;
    // Per-pass computation time added to the transfer model. The paper
    // estimates "a minute or less" per pass for the 5000k graph
    // (`--compute-secs 60`). Default 0 (the transfer-dominated model
    // whose numbers match the paper's printed hours columns).
    let compute_secs: f64 = args.get("compute-secs", 0.0)?;
    if !(compute_secs.is_finite() && compute_secs >= 0.0) {
        return Err(format!(
            "--compute-secs must be finite and non-negative, got {compute_secs}"
        ));
    }

    println!("Table 2 — relative error distribution (vs synchronous R_c)");
    println!("cells: relative error (not %); rows: best-x% of pages");
    println!("Table 3 — message traffic and execution time vs eps");
    println!("(paper: traffic/node size-independent, ~logarithmic in 1/eps)\n");

    let mut records: Vec<QualityResult> = Vec::new();
    for size in sizes(args, &DEFAULT_SIZES)? {
        eprintln!("  … running sweep for size {size}");
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
        let mut table = TextTable::new([
            "eps",
            "total msgs (M)",
            "msgs/node",
            "passes",
            "hrs @32KB/s",
            "hrs @200KB/s",
        ]);
        let hours = |r: &QualityResult, rate| {
            aggregate_time_secs(r.total_remote_messages, rate, r.passes, compute_secs)
                / SECS_PER_HOUR
        };
        for r in &results {
            table.push([
                fmt_eps(r.epsilon),
                format!("{:.3}", r.total_remote_messages as f64 / 1e6),
                format!("{:.1}", r.messages_per_node),
                r.passes.to_string(),
                format!("{:.2}", hours(r, RATE_32KBS)),
                format!("{:.2}", hours(r, RATE_200KBS)),
            ]);
        }
        println!("Relative error for {size} nodes:");
        println!("{}", table2(&results).render());
        println!("{size} nodes:");
        println!("{}", table.render());
        records.extend(results);
    }

    if args.has("internet") {
        const WEB: u64 = 3_000_000_000;
        println!("Sec. 4.6.2 — Internet-scale estimate ({WEB} docs, T3 = 5.6 MB/s):");
        let mut t = TextTable::new(["eps", "msgs/node (measured)", "days"]);
        // From the per-node rates of the last size swept.
        for r in &records[records.len().saturating_sub(TABLE23_EPSILONS.len())..] {
            let mpn = r.messages_per_node;
            t.push([
                fmt_eps(r.epsilon),
                format!("{mpn:.1}"),
                format!("{:.1}", internet_scale_days(WEB, mpn, RATE_T3)),
            ]);
        }
        println!("{}", t.render());
        println!("(paper: ~14 days at a moderate threshold, ~35 days at a strict one)");
    }

    let sched = base.sched.to_string();
    let params = format!("peers={peers} sched={sched} seed={}", base.seed);
    let axes = ["none", "passes", &sched];
    emit(args, "table3", params, axes, records, "")?;
    trace.finish()
}
