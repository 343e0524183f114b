//! `dpr` — command-line interface to the distributed PageRank system.
//!
//! ```text
//! dpr generate  --nodes 10000 --out graph.bin [--seed N] [--edges-out g.txt]
//! dpr stats     --graph graph.bin
//! dpr rank      --graph graph.bin [--eps 1e-3] [--peers 500] [--out ranks.json] [--top 10]
//! dpr partition --graph graph.bin --peers 50 [--sweeps 6]
//! dpr insert    --graph graph.bin --links 1,2,3 [--eps 1e-3]
//! dpr delete    --graph graph.bin --doc 42 [--eps 1e-3]
//! dpr search    [--docs 11000] [--terms t1,t2] [--top-percent 10]
//! dpr serve     [--docs N] [--peers P] [--queries Q] [--qps R] [--strategy S]
//!               [--churn F] [--updates U] [--slo-p99-ms MS] (nonzero exit on SLO failure)
//! dpr trace     --input trace.jsonl [--validate] [--run LABEL] [--top K] [--diff other.jsonl]
//! dpr doctor    [--docs N] [--peers P] [--inject-fault KIND] [--input trace.jsonl]
//!               [--capture-out cap.jsonl] [--replay cap.jsonl]
//! dpr profile   [--docs N] [--peers P] [--sched pass|priority|greedy] [--replay cap.jsonl]
//!               [--input trace.jsonl] [--top K] [--segment N] [--perfetto-out FILE]
//! ```
//!
//! Every command also takes `--quiet`, `--trace-out FILE` (JSONL event
//! trace) and `--prom-out FILE` (Prometheus metrics snapshot); see
//! [`dpr_sim::flags::Reporter`].
//!
//! Subcommand implementations live in [`commands`]; this file only
//! dispatches and reports errors.

mod commands;

use std::process::ExitCode;

/// Piping `dpr` into `head` closes stdout early; Rust's default is a
/// "failed printing to stdout: Broken pipe" panic. Exit quietly
/// instead, like every other well-behaved CLI. (Installing a hook is
/// the dependency-free alternative to resetting SIGPIPE via libc.)
fn exit_quietly_on_broken_pipe() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default_hook(info);
    }));
}

fn main() -> ExitCode {
    exit_quietly_on_broken_pipe();
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        eprintln!("{}", commands::usage());
        return ExitCode::FAILURE;
    };
    let rest: Vec<String> = argv.collect();
    let parsed = match dpr_sim::flags::Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => commands::generate(&parsed),
        "stats" => commands::stats(&parsed),
        "rank" => commands::rank(&parsed),
        "partition" => commands::partition(&parsed),
        "insert" => commands::insert(&parsed),
        "delete" => commands::delete(&parsed),
        "search" => commands::search(&parsed),
        "serve" => commands::serve(&parsed),
        "trace" => commands::trace(&parsed),
        "doctor" => commands::doctor(&parsed),
        "profile" => commands::profile(&parsed),
        "help" | "--help" | "-h" => {
            println!("{}", commands::usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", commands::usage())),
    };
    // A flag the command never looked at is a typo or belongs to
    // another command: say so instead of having run the defaults.
    match result.and_then(|()| parsed.reject_unread()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The CLI's contract with the shared flag parser
/// ([`dpr_sim::flags::Args`]): bad input is a readable `Err` the
/// dispatcher prints, never a panic.
#[cfg(test)]
mod args;
