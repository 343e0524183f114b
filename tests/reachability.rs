//! The reachability rule, as a test, in two halves.
//!
//! *Modules:* every `pub mod` a crate exports is named by code that
//! runs — a non-test, non-comment line of some *other* file under
//! `crates/*/src` or `perf/src`.
//!
//! *Items:* every `pub fn | struct | enum | trait | type | const |
//! static` defined in non-test code under `crates/*/src`, inherent
//! methods included, is named by code that runs: its identifier, as a
//! whole word, is on a non-test, non-comment line under `crates/*/src`
//! or `perf/src` other than its own definition line and other than a
//! `pub use` / `pub mod` line. The match is by name alone, so two items
//! with the same name (two `to_wire`s) name each other and hide each
//! other: the check misses a dead item that shares its name with
//! another public item.
//!
//! A module or item nothing else reaches — only its own tests, the
//! integration tests or an example — is deleted, not kept for later.
//! Each half asserts `unreached == allowlist`, so an allowlist entry
//! that gains a caller fails too. An item is allowlisted only as the
//! reference a test compares against, or as the one public way to read
//! state a test asserts; the reason names that test.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Unreached modules that stay, with why.
const ALLOWED: [(&str, &str, &str); 0] = [];

/// Unreached items that stay: (crate, item, the test that uses it and
/// what it checks with it).
const ALLOWED_ITEMS: [(&str, &str, &str); 3] = [
    (
        "core",
        "fixed_point_residual",
        "the fixed-point reference of `engine::tests::converges_on_powerlaw_graph_to_fixed_point` \
         and `tests/proptests.rs::chaotic_matches_sync`: the engine's ranks must satisfy \
         r = (1 - d) + d·Aᵀr to within 1e-6",
    ),
    (
        "graph",
        "bfs_reach",
        "the reference of `tests/proptests.rs::scc_partition_properties`: mutual BFS \
         reachability from node 0 must equal membership in node 0's component",
    ),
    (
        "graph",
        "tarjan_scc",
        "the entry `tests/proptests.rs::scc_partition_properties` checks against `bfs_reach`: \
         it runs the Tarjan core `SccIndex` runs, over a CSR graph",
    ),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n != "target" && n != "tests")
            {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The lines of `text` that run: up to the file's first
/// `#[cfg(test)]`, comments dropped.
fn code_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .take_while(|l| !l.contains("#[cfg(test)]"))
        .filter(|l| !l.trim_start().starts_with("//"))
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `line` names module `module` of crate `krate`, read as a
/// line of that crate (`crate::m`, `super::m`, `m::…`) or of another
/// one (`dpr_<krate>::m`, `dpr_<krate>::{… m … }`).
fn names(line: &str, krate: &str, module: &str, same_crate: bool) -> bool {
    let ext = format!("dpr_{krate}::");
    line.match_indices(module).any(|(i, _)| {
        let (before, after) = (&line[..i], &line[i + module.len()..]);
        if before.ends_with(is_ident) || after.starts_with(is_ident) {
            return false;
        }
        if same_crate {
            before.ends_with("crate::")
                || before.ends_with("super::")
                || (after.starts_with("::") && !before.ends_with("::"))
        } else {
            before.ends_with(&ext) || line.contains(&format!("{ext}{{"))
        }
    })
}

/// Every source file of code that runs: `crates/*/src` and `perf/src`,
/// with its text.
fn sources(root: &Path) -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("perf/src"), &mut files);
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            (p, text)
        })
        .collect()
}

#[test]
fn every_public_module_is_reached_by_code_that_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = sources(root);

    let mut unreached = Vec::new();
    let mut modules = 0;
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let crate_dir = entry.unwrap().path();
        let krate = crate_dir.file_name().unwrap().to_str().unwrap().to_string();
        let Ok(lib) = std::fs::read_to_string(crate_dir.join("src/lib.rs")) else {
            continue; // a binary crate exports nothing
        };
        let declared =
            code_lines(&lib).filter_map(|l| l.trim().strip_prefix("pub mod ")?.strip_suffix(';'));
        for module in declared {
            modules += 1;
            let own = crate_dir.join(format!("src/{module}.rs"));
            let reached = sources.iter().any(|(path, text)| {
                let same_crate = path.starts_with(&crate_dir);
                *path != own
                    && code_lines(text)
                        .filter(|l| l.trim() != format!("pub mod {module};"))
                        .any(|l| names(l, &krate, module, same_crate))
            });
            if !reached {
                unreached.push((krate.clone(), module.to_string()));
            }
        }
    }
    assert!(modules > 40, "found only {modules} public modules");
    unreached.sort();
    let allowed: Vec<_> = ALLOWED
        .iter()
        .map(|(k, m, _why)| (k.to_string(), m.to_string()))
        .collect();
    assert_eq!(
        unreached, allowed,
        "public modules no non-test code outside their own file names, against the allowlist"
    );
}

/// The name `line` defines, if it is a `pub fn | struct | enum | trait
/// | type | const | static` item (`pub const fn` included).
fn defined_item(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = [
        "const fn ",
        "fn ",
        "struct ",
        "enum ",
        "trait ",
        "type ",
        "const ",
        "static ",
    ]
    .iter()
    .find_map(|kind| rest.strip_prefix(kind))?;
    let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
    (!name.is_empty()).then_some(name)
}

/// The distinct identifiers of `line`.
fn words(line: &str) -> impl Iterator<Item = &str> {
    let mut seen: Vec<&str> = line
        .split(|c| !is_ident(c))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
        .collect();
    seen.sort_unstable();
    seen.dedup();
    seen.into_iter()
}

#[test]
fn every_public_item_is_reached_by_code_that_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = sources(root);
    // Per identifier, how many lines of code that runs name it; a
    // definition line counts once for its own name, so an item is
    // reached when its name is on more than one such line.
    let mut lines_naming: HashMap<&str, usize> = HashMap::new();
    let mut items = Vec::new();
    for (path, text) in &sources {
        for line in code_lines(text) {
            let trimmed = line.trim_start();
            if trimmed.starts_with("pub use ") || trimmed.starts_with("pub mod ") {
                continue;
            }
            for word in words(line) {
                *lines_naming.entry(word).or_default() += 1;
            }
            if let (Ok(rel), Some(name)) =
                (path.strip_prefix(root.join("crates")), defined_item(line))
            {
                let krate = rel.iter().next().unwrap().to_str().unwrap();
                items.push((krate, name));
            }
        }
    }
    assert!(items.len() > 600, "found only {} public items", items.len());
    let mut unreached: Vec<(String, String)> = items
        .iter()
        .filter(|(_, name)| lines_naming[name] < 2)
        .map(|(k, n)| (k.to_string(), n.to_string()))
        .collect();
    unreached.sort();
    let allowed: Vec<_> = ALLOWED_ITEMS
        .iter()
        .map(|(k, i, _why)| (k.to_string(), i.to_string()))
        .collect();
    assert_eq!(
        unreached, allowed,
        "public items no other line of non-test code names, against the allowlist"
    );
}

#[test]
fn the_item_scan_reads_definitions_and_words() {
    let cases = [
        ("pub fn run(x: u32) {", Some("run")),
        ("    pub const fn new() -> Self {", Some("new")),
        ("pub const MAX_FRAME: usize = 9;", Some("MAX_FRAME")),
        ("pub struct Ring<T> {", Some("Ring")),
        ("pub(crate) fn hidden() {", None),
        ("pub use crate::ring::Ring;", None),
        ("    fn private() {", None),
    ];
    for (line, want) in cases {
        assert_eq!(defined_item(line), want, "{line}");
    }
    let got: Vec<_> = words("a.run(run_all, Ring::new(2), 3u8)").collect();
    assert_eq!(got, ["Ring", "a", "new", "run", "run_all"]);
}

#[test]
fn the_matcher_tells_a_module_from_its_namesakes() {
    // (line, crate, module, line is in that crate, names it)
    let cases = [
        ("use crate::event::Event;", "sim", "event", true, true),
        (
            "use crate::{csr::CsrGraph, DocId};",
            "graph",
            "csr",
            true,
            true,
        ),
        ("pub use bloom::BloomFilter;", "search", "bloom", true, true),
        (
            "use dpr_telemetry::event::Event;",
            "sim",
            "event",
            true,
            false,
        ),
        ("let event_queue = 3;", "sim", "event", true, false),
        (
            "use dpr_sim::event::run_chaotic;",
            "sim",
            "event",
            false,
            true,
        ),
        ("use dpr_sim::{event::X, spec};", "sim", "spec", false, true),
        (
            "use dpr_telemetry::event::Event;",
            "sim",
            "event",
            false,
            false,
        ),
        ("use crate::event::Event;", "sim", "event", false, false),
    ];
    for (line, krate, module, same_crate, want) in cases {
        assert_eq!(names(line, krate, module, same_crate), want, "{line}");
    }
}
