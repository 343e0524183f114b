//! Table 6: network traffic reduction from incremental search.
//!
//! Paper: ~11k-document corpus, 1880 terms, 50 peers; twenty 2-word
//! and twenty 3-word queries from the top-100 terms. "When the top
//! 10% of the hits are forwarded, more than a factor of 10 reduction
//! in traffic is obtained … top 20% … more than a factor of 6." The
//! top-20%-returns-fewer-3-word-hits artifact of the min-forward
//! floor (=20) is reproduced as well.
//!
//! ```text
//! cargo run --release -p dpr-bench --bin table6 [--docs 11000] \
//!     [--vocab 1880] [--peers 50] [--queries 20] [--seed N] [--json]
//! ```

use dpr_bench::{count, emit};
use dpr_sim::flags::Args;
use dpr_sim::scenario::{search_experiment, SearchExperimentConfig, SearchRow};
use dpr_telemetry::table::TextTable;

fn main() {
    dpr_bench::main(run)
}

fn run(args: &Args) -> Result<(), String> {
    let cfg = SearchExperimentConfig {
        num_docs: count(args, "docs", 11_000)?,
        vocab_size: args.get("vocab", 1880u32)?,
        num_peers: args.get("peers", 50)?,
        queries_per_len: args.get("queries", 20)?,
        pagerank_epsilon: args.get("eps", dpr_core::RECOMMENDED_EPSILON)?,
        seed: args.get("seed", 2003)?,
    };

    println!(
        "Table 6 — incremental search ({} docs, {} terms, {} peers, {} queries/length)\n",
        cfg.num_docs, cfg.vocab_size, cfg.num_peers, cfg.queries_per_len
    );
    let rows: Vec<SearchRow> = search_experiment(&cfg);

    let pick = |strategy: &str, qlen: usize| -> &SearchRow {
        rows.iter()
            .find(|r| r.strategy == strategy && r.query_len == qlen)
            .expect("row present")
    };

    let mut reduction = TextTable::new(["", "2-term queries", "3-term queries"]);
    for strat in ["top10", "top20"] {
        reduction.push([
            format!("Top {}% forwarded", &strat[3..]),
            format!("{:.1}", pick(strat, 2).avg_traffic_reduction),
            format!("{:.1}", pick(strat, 3).avg_traffic_reduction),
        ]);
    }
    println!("Average traffic reduction (x):");
    println!("{}", reduction.render());

    let mut hits = TextTable::new(["", "2-term queries", "3-term queries"]);
    for strat in ["top10", "top20", "baseline"] {
        let label = match strat {
            "baseline" => "Baseline".to_string(),
            s => format!("Top {}% forwarded", &s[3..]),
        };
        hits.push([
            label,
            format!("{:.1}", pick(strat, 2).avg_hits_returned),
            format!("{:.1}", pick(strat, 3).avg_hits_returned),
        ]);
    }
    println!("Average # hits returned:");
    println!("{}", hits.render());
    let note = "(paper: 12.2 / 11.9 reduction at top-10%, 6.5 / 6.9 at top-20%;\n \
                baseline returns 1603.9 / 835.6 hits)\n";
    let axes = ["none", "search", "none"];
    emit(args, "table6", format!("{cfg:?}"), axes, rows, note)
}
