//! Docs cite the ledger, as a test: every `BENCH_<name>.json` and
//! `results/<name>.json` that README.md, DESIGN.md or EXPERIMENTS.md
//! names is a checked-in file that dpr-bench's list of records,
//! `crates/bench/records.txt`, regenerates, and every `continuous
//! --<flag>` they show is a flag of one of that list's `continuous`
//! invocations.

use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// The one list of record + invocation.
const RECORDS: &str = "crates/bench/records.txt";

fn read(root: &Path, file: &str) -> String {
    std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The list's `(record, invocation)` lines.
fn records(list: &str) -> Vec<(&str, &str)> {
    let lines = list
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let pairs = lines.map(|l| l.split_once(' ').map(|(r, i)| (r, i.trim())));
    pairs.map(|p| p.expect("record, then invocation")).collect()
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
    let list = read(root, RECORDS);
    let records = records(&list);
    let continuous: Vec<&str> = records
        .iter()
        .filter_map(|(_, invocation)| invocation.strip_prefix("continuous"))
        .collect();
    let mut wrong = Vec::new();
    let (mut files, mut flags) = (0, 0);
    for doc in DOCS {
        let text = read(root, doc);
        for file in cited_files(&text) {
            files += 1;
            if !root.join(&file).is_file() {
                wrong.push(format!("{doc} cites {file}, which is not checked in"));
            }
            if !records.iter().any(|(record, _)| *record == file) {
                wrong.push(format!(
                    "{doc} cites {file}, which {RECORDS} does not regenerate"
                ));
            }
        }
        for flag in cited_flags(&text) {
            flags += 1;
            let given = |invocation: &&str| invocation.split(' ').any(|w| w == format!("--{flag}"));
            if !continuous.iter().any(given) {
                wrong.push(format!(
                    "{doc} shows `continuous --{flag}`, which no invocation of {RECORDS} gives"
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
