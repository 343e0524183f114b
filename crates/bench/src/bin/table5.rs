//! Table 5: the paper's qualitative summary, regenerated from this
//! repository's *measured* results.
//!
//! Reads the JSON records the other table binaries wrote into
//! `results/` (run them with `--json` first; any missing experiment is
//! simply skipped) and prints the five summary rows of the paper's
//! Table 5 with the measured numbers backing each claim.
//!
//! ```text
//! cargo run --release -p dpr-bench --bin table5
//! ```

use dpr_sim::report::out_dir;
use serde_json::Value;
use std::fs;

fn load(name: &str) -> Option<Value> {
    let path = out_dir("results").join(format!("{name}.json"));
    let text = fs::read_to_string(&path).ok()?;
    serde_json::from_str(&text).ok()
}

fn rows(v: &Value) -> &[Value] {
    v.get("rows")
        .and_then(Value::as_array)
        .map(Vec::as_slice)
        .unwrap_or(&[])
}

fn main() {
    println!("Table 5 — distributed pagerank computation summary (measured)\n");

    // Convergence (table1).
    match load("table1") {
        Some(v) => {
            let passes: Vec<u64> = rows(&v)
                .iter()
                .filter(|r| r["presence"] == 1.0)
                .filter_map(|r| r["passes"].as_u64())
                .collect();
            let slowest_half: Vec<u64> = rows(&v)
                .iter()
                .filter(|r| r["presence"] == 0.5)
                .filter_map(|r| r["passes"].as_u64())
                .collect();
            println!("Convergence:");
            println!(
                "  fast ({} passes at full presence across sizes), tolerant of churn \
                 ({} at 50% presence — ~2x), scalable with graph size.",
                summarize(&passes),
                summarize(&slowest_half)
            );
        }
        None => println!("Convergence: (run table1 --json first)"),
    }

    // Quality (Table 2's rows, in table3's record).
    match load("table3") {
        Some(v) => {
            let at_1e3: Vec<f64> = rows(&v)
                .iter()
                .filter(|r| (r["epsilon"].as_f64().unwrap_or(0.0) - 1e-3).abs() < 1e-9)
                .filter_map(|r| r["distribution"]["max"].as_f64())
                .collect();
            println!("Pagerank quality:");
            println!(
                "  very high — max relative error {} at the recommended eps = 1e-3 \
                 (< 1%), scaling ~linearly with eps.",
                at_1e3
                    .iter()
                    .map(|e| format!("{e:.2e}"))
                    .collect::<Vec<_>>()
                    .join(" / ")
            );
        }
        None => println!("Pagerank quality: (run table3 --json first)"),
    }

    // Traffic (table3).
    match load("table3") {
        Some(v) => {
            let mpn: Vec<f64> = rows(&v)
                .iter()
                .filter(|r| (r["epsilon"].as_f64().unwrap_or(0.0) - 1e-3).abs() < 1e-9)
                .filter_map(|r| r["messages_per_node"].as_f64())
                .collect();
            println!("Message traffic:");
            println!(
                "  reasonably low — {} messages/document at eps = 1e-3, nearly \
                 constant across graph sizes; logarithmic growth with accuracy.",
                mpn.iter()
                    .map(|m| format!("{m:.1}"))
                    .collect::<Vec<_>>()
                    .join(" / ")
            );
        }
        None => println!("Message traffic: (run table3 --json first)"),
    }

    // Inserts (table4).
    match load("table4") {
        Some(v) => {
            let at_1e3: Vec<f64> = rows(&v)
                .iter()
                .filter(|r| (r["epsilon"].as_f64().unwrap_or(0.0) - 1e-3).abs() < 1e-9)
                .filter_map(|r| r["avg_path_length"].as_f64())
                .collect();
            println!("Document insertion/deletion:");
            println!(
                "  handled naturally — insert waves travel {} hops on average at \
                 eps = 1e-3; no global recomputes, ranks continuously updated.",
                at_1e3
                    .iter()
                    .map(|p| format!("{p:.1}"))
                    .collect::<Vec<_>>()
                    .join(" / ")
            );
        }
        None => println!("Document insertion/deletion: (run table4 --json first)"),
    }

    // Search (table6).
    match load("table6") {
        Some(v) => {
            let reductions: Vec<f64> = rows(&v)
                .iter()
                .filter(|r| r["strategy"] == "top10")
                .filter_map(|r| r["avg_traffic_reduction"].as_f64())
                .collect();
            println!("Search integration:");
            println!(
                "  ~{}x traffic reduction with top-10% incremental forwarding on \
                 2- and 3-word queries.",
                reductions
                    .iter()
                    .map(|r| format!("{r:.0}"))
                    .collect::<Vec<_>>()
                    .join("x / ")
            );
        }
        None => println!("Search integration: (run table6 --json first)"),
    }

    println!("\nExecution time: dominated by network transfer (Table 3's model);");
    println!("see EXPERIMENTS.md for the full paper-vs-measured comparison.");
}

fn summarize(values: &[u64]) -> String {
    if values.is_empty() {
        return "n/a".into();
    }
    let min = values.iter().min().unwrap();
    let max = values.iter().max().unwrap();
    if min == max {
        format!("{min}")
    } else {
        format!("{min}-{max}")
    }
}
