//! Docs cite the ledger, as a test: every `BENCH_<name>.json` and
//! `results/<name>.json` that README.md, DESIGN.md or EXPERIMENTS.md
//! names is a checked-in file that `scripts/ledger-drift.sh`
//! regenerates, and every `continuous --<flag>` they show is a flag the
//! binary reads — a mode switch or value flag of `continuous.rs`, or
//! one of the shared scenario / telemetry flags.

use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// The drift check, whose list names every record it regenerates.
const DRIFT: &str = "scripts/ledger-drift.sh";

/// The sources that read `continuous`'s flags, each as a `"name"`
/// literal.
const FLAG_READERS: [&str; 4] = [
    "crates/bench/src/bin/continuous.rs",
    "crates/bench/src/lib.rs",
    "crates/sim/src/spec.rs",
    "crates/sim/src/flags.rs",
];

fn read(root: &Path, file: &str) -> String {
    std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The leading run of `text` made of lowercase letters, digits and
/// `extra`.
fn word(text: &str, extra: char) -> &str {
    let end = text.find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == extra));
    &text[..end.unwrap_or(text.len())]
}

/// Every `BENCH_<name>.json` and `results/<name>.json` token of
/// `text`, as written.
fn cited_files(text: &str) -> impl Iterator<Item = String> + '_ {
    ["BENCH_", "results/"].into_iter().flat_map(move |prefix| {
        text.match_indices(prefix).filter_map(move |(i, _)| {
            let rest = &text[i + prefix.len()..];
            let name = word(rest, '_');
            (!name.is_empty() && rest[name.len()..].starts_with(".json"))
                .then(|| format!("{prefix}{name}.json"))
        })
    })
}

/// Every `<flag>` of a `continuous --<flag>` or `continuous -- --<flag>`
/// token of `text` (the closing backtick of `` `continuous` `` allowed
/// in between).
fn cited_flags(text: &str) -> impl Iterator<Item = &str> {
    text.match_indices("continuous").filter_map(|(i, name)| {
        let rest = text[i + name.len()..].trim_start_matches(['`', ' ']);
        let rest = rest.strip_prefix("-- ").unwrap_or(rest);
        let flag = word(rest.strip_prefix("--")?, '-');
        (!flag.is_empty()).then_some(flag)
    })
}

#[test]
fn docs_cite_checked_in_ledger_files_and_flags_the_binary_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readers: String = FLAG_READERS.iter().map(|f| read(root, f)).collect();
    let drift = read(root, DRIFT);
    let mut wrong = Vec::new();
    let (mut files, mut flags) = (0, 0);
    for doc in DOCS {
        let text = read(root, doc);
        for file in cited_files(&text) {
            files += 1;
            if !root.join(&file).is_file() {
                wrong.push(format!("{doc} cites {file}, which is not checked in"));
            }
            if !drift.contains(&format!("\"{file} ")) {
                wrong.push(format!(
                    "{doc} cites {file}, which {DRIFT} does not regenerate"
                ));
            }
        }
        for flag in cited_flags(&text) {
            flags += 1;
            if !readers.contains(&format!("\"{flag}\"")) {
                wrong.push(format!(
                    "{doc} shows `continuous --{flag}`, which nothing reads"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    // The scan itself must keep finding what it polices.
    assert!(
        files >= 5 && flags >= 5,
        "{files} files, {flags} flags found"
    );
}

#[test]
fn the_scanners_find_the_tokens() {
    let text = "see `BENCH_regimes.json`, BENCH_*.json and BENCH_x; run \
                `continuous --regimes`, `continuous -- --scale --sizes 1` or \
                `continuous` --bursts, not continuous-accuracy; results/, \
                results/table1.json and results/*.json";
    assert_eq!(
        cited_files(text).collect::<Vec<_>>(),
        ["BENCH_regimes.json", "results/table1.json"]
    );
    assert_eq!(
        cited_flags(text).collect::<Vec<_>>(),
        ["regimes", "scale", "bursts"]
    );
}
