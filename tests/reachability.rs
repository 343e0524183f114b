//! The reachability rule, as a test, resolved by the compiler.
//!
//! The test copies the workspace into `CARGO_TARGET_TMPDIR` and, in the
//! copy, marks every `pub fn | struct | enum | trait | type | const |
//! static` defined in non-test code under `crates/*/src`, inherent
//! methods included, with `#[deprecated = "reach@<file>:<line>:<name>"]`.
//! It then runs `cargo check` over the workspace's libraries and
//! binaries and over `perf/`. Each `use of deprecated` warning rustc
//! prints names the item it resolved, by its mark, and the place of the
//! use. A `use` or `pub use` statement is not a use.
//!
//! *Items:* an item is reached when rustc reports a use of it in code
//! that runs: a library or binary under `crates/*/src` or `perf/src`.
//! Test code is not compiled.
//!
//! *Modules:* a `pub mod` a crate exports is reached when an item it
//! defines is used from another file.
//!
//! A module or item nothing else reaches — only its own tests, the
//! integration tests or an example — is deleted, not kept for later.
//! Each half asserts `unreached == allowlist`, so an allowlist entry
//! that gains a caller fails too. An item is allowlisted only as the
//! reference a test compares against, or as the one public way to read
//! state a test asserts; the reason names that test.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// Unreached modules that stay, one a line: crate, module, and why.
const ALLOWED: &str = "";

/// Unreached items that stay, one a line: crate, item, and the test
/// that uses it with what it checks (indented lines continue it).
const ALLOWED_ITEMS: &str = "
core advertised: `ChaoticEngine::advertised`, the one public read of the per-document
    advertised ranks. `tests/kernel_reference.rs::engine_matches_the_reference_model`
    asserts them bit for bit against the reference model after every pass.
core fixed_point_residual: the fixed-point reference of
    `engine::tests::converges_on_powerlaw_graph_to_fixed_point` and
    `tests/proptests.rs::chaotic_matches_sync`: the engine's ranks must satisfy
    r = (1 - d) + d·Aᵀr to within 1e-6.
core frontier: `ChaoticEngine::frontier`, the one public read of the queued documents.
    `tests/kernel_reference.rs::engine_matches_the_reference_model` asserts it equals the
    reference model's sorted dirty set after every pass.
core pending: `ChaoticEngine::pending`, the one public read of the per-document parked and
    in-flight increments. `tests/kernel_reference.rs::engine_matches_the_reference_model`
    asserts them bit for bit against the reference model after every pass.
graph bfs_reach: the reference of `tests/proptests.rs::scc_partition_properties`: mutual
    BFS reachability from node 0 must equal membership in node 0's component.
graph tarjan_scc: the entry `tests/proptests.rs::scc_partition_properties` checks against
    `bfs_reach`. It runs the Tarjan core `SccIndex` runs, over a CSR graph.
node in_flight_entries: `Cluster::in_flight_entries`, the one public read of the
    transport's undelivered entries. `tests/audit_differential.rs` asserts that
    sent − received equals it (`counters_balance_under_random_churn`), and that it is 0
    when Safra announces (`safra_never_certifies_a_live_system_under_async_delivery`).
";

/// The (crate, name) pairs of an allowlist.
fn allowed(list: &str) -> Vec<(&str, &str)> {
    let entries = list
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with(' '));
    entries
        .map(|l| l.split_once(':').unwrap().0.split_once(' ').unwrap())
        .collect()
}

/// The name `line` defines, if it is a `pub fn | struct | enum | trait
/// | type | const | static` item (`pub const fn` included).
fn defined_item(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let mut kinds = "const fn |fn |struct |enum |trait |type |const |static ".split('|');
    let rest = kinds.find_map(|kind| rest.strip_prefix(kind))?;
    let end = rest.find(|c: char| !c.is_alphanumeric() && c != '_');
    let name = &rest[..end.unwrap_or(rest.len())];
    (!name.is_empty()).then_some(name)
}

/// `text`, the file `rel`, with every public item outside its
/// `#[cfg(test)]` items marked deprecated, and the marks it put in.
/// The code is rustfmt'd (CI checks it), so a `#[cfg(test)]` item ends
/// at the first line after the attribute, at the attribute's indent,
/// that ends in `}` or `;`: a test module's closing brace, or a
/// one-line item such as `mod args;`.
fn mark(rel: &str, text: &str) -> (String, Vec<String>) {
    let (mut out, mut marks) = (String::new(), Vec::new());
    // The indent of the `#[cfg(test)]` item being skipped, if any.
    let mut testing: Option<&str> = None;
    for (i, line) in text.lines().enumerate() {
        let indent = &line[..line.len() - line.trim_start().len()];
        let test_line = match testing {
            Some(at) => {
                let end = indent == at && (line.ends_with('}') || line.ends_with(';'));
                testing = testing.filter(|_| !end);
                true
            }
            None => {
                let attr = line.trim() == "#[cfg(test)]";
                testing = attr.then_some(indent);
                attr
            }
        };
        if let Some(name) = defined_item(line).filter(|_| !test_line) {
            let mark = format!("reach@{rel}:{}:{name}", i + 1);
            out += &format!("{indent}#[deprecated = \"{mark}\"]\n");
            marks.push(mark);
        }
        out += line;
        out.push('\n');
    }
    (out, marks)
}

/// The 1-based numbers of the lines of `text` that belong to a `use`
/// statement, one that spans several lines included.
fn use_lines(text: &str) -> BTreeSet<usize> {
    let (mut lines, mut open) = (BTreeSet::new(), false);
    for (i, line) in text.lines().enumerate() {
        let t = line.trim_start();
        let t = t.strip_prefix("pub(crate) ").or(t.strip_prefix("pub "));
        open |= t.unwrap_or(line.trim_start()).starts_with("use ");
        if open {
            lines.insert(i + 1);
            open = !line.contains(';');
        }
    }
    lines
}

/// `from` copied into `to`, build output left out, and whatever `to`
/// holds that `from` does not removed. A non-test `.rs` file under
/// `crates/` is written marked; `rel` is its path in the copy, and its
/// marks go to `marks`. A file is written only when its text differs
/// from the copy's, so `cargo check` re-checks only what changed.
fn copy_marked(from: &Path, to: &Path, rel: &Path, marks: &mut Vec<String>) {
    if from.is_dir() {
        if !to.is_dir() {
            let _ = std::fs::remove_file(to);
            std::fs::create_dir_all(to).unwrap();
        }
        for entry in std::fs::read_dir(to).unwrap() {
            let name = entry.unwrap().file_name();
            let gone = to.join(&name);
            if name == "target" || !from.join(&name).exists() {
                let _ = std::fs::remove_dir_all(&gone).or_else(|_| std::fs::remove_file(&gone));
            }
        }
        for entry in std::fs::read_dir(from).unwrap() {
            let name = entry.unwrap().file_name();
            if name != "target" {
                copy_marked(&from.join(&name), &to.join(&name), &rel.join(&name), marks);
            }
        }
        return;
    }
    let mut bytes = std::fs::read(from).unwrap();
    if rel.starts_with("crates")
        && rel.extension().is_some_and(|e| e == "rs")
        && !rel.iter().any(|c| c == "tests")
    {
        let (text, found) = mark(rel.to_str().unwrap(), std::str::from_utf8(&bytes).unwrap());
        bytes = text.into_bytes();
        marks.extend(found);
    }
    if std::fs::read(to).ok().as_ref() != Some(&bytes) {
        if to.is_dir() {
            std::fs::remove_dir_all(to).unwrap();
        }
        std::fs::write(to, bytes).unwrap();
    }
}

/// What one sweep found: every mark, and every (use-site file, mark)
/// rustc reported outside a `use` statement. Paths are relative to the
/// workspace root.
struct Sweep {
    marks: Vec<String>,
    uses: Vec<(String, String)>,
}

/// The `use of deprecated` warnings of `cargo check <args>` run in
/// `dir` of the marked copy `copy`, outside `use` statements.
fn check(copy: &Path, dir: &str, args: &[&str], uses: &mut Vec<(String, String)>) {
    let mut use_sites: HashMap<PathBuf, BTreeSet<usize>> = HashMap::new();
    let out = Command::new(env!("CARGO"))
        .current_dir(copy.join(dir))
        .args("check --offline --color never --message-format short".split(' '))
        .args(args)
        .env("CARGO_TARGET_DIR", copy.with_file_name("reach-target"))
        .env("RUSTFLAGS", "--cap-lints=warn")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "cargo check in {dir:?}:\n{stderr}");
    for line in stderr.lines() {
        let Some((site, rest)) = line.split_once(": warning: use of deprecated") else {
            continue;
        };
        let mark = rest.split_once("reach@").expect(line).1.trim();
        let mut parts = site.rsplitn(3, ':').skip(1);
        let line_no: usize = parts.next().unwrap().parse().unwrap();
        // rustc names a file of the checked workspace relative to
        // `dir`, and one of a path dependency absolutely.
        let path = Path::new(dir).join(parts.next().unwrap());
        let file = path.strip_prefix(copy).unwrap_or(&path);
        let in_use = use_sites
            .entry(file.to_path_buf())
            .or_insert_with(|| use_lines(&std::fs::read_to_string(copy.join(file)).unwrap()));
        if !in_use.contains(&line_no) {
            uses.push((file.to_str().unwrap().to_string(), format!("reach@{mark}")));
        }
    }
}

/// Marks a copy of the workspace and reads rustc's use warnings over
/// it, once per test run.
fn sweep() -> &'static Sweep {
    static SWEEP: OnceLock<Sweep> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let copy = Path::new(env!("CARGO_TARGET_TMPDIR")).join("reach-src");
        std::fs::create_dir_all(&copy).unwrap();
        let mut marks = Vec::new();
        for e in "Cargo.toml Cargo.lock src crates vendor perf".split(' ') {
            copy_marked(&root.join(e), &copy.join(e), Path::new(e), &mut marks);
        }
        let mut uses = Vec::new();
        check(&copy, "", &["--workspace", "--lib", "--bins"], &mut uses);
        check(&copy, "perf", &[], &mut uses);
        Sweep { marks, uses }
    })
}

/// The file a mark names.
fn file_of(mark: &str) -> &str {
    mark["reach@".len()..].split(':').next().unwrap()
}

/// The crate and the item name a mark names.
fn item_of(mark: &str) -> (&str, &str) {
    (
        file_of(mark).split('/').nth(1).unwrap(),
        mark.rsplit(':').next().unwrap(),
    )
}

#[test]
fn every_public_item_is_reached_by_code_that_runs() {
    let Sweep { marks, uses } = sweep();
    assert!(marks.len() > 600, "only {} marks", marks.len());
    let reached: BTreeSet<&str> = uses.iter().map(|(_, mark)| mark.as_str()).collect();
    let dead: Vec<&String> = marks
        .iter()
        .filter(|m| !reached.contains(m.as_str()))
        .collect();
    let mut unreached: Vec<_> = dead.iter().map(|m| item_of(m)).collect();
    unreached.sort();
    assert_eq!(
        unreached,
        allowed(ALLOWED_ITEMS),
        "public items rustc finds no use of in code that runs, against the allowlist: {dead:#?}"
    );
}

#[test]
fn every_public_module_is_reached_by_code_that_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let Sweep { uses, .. } = sweep();
    let (mut unreached, mut modules) = (Vec::new(), 0);
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let crate_dir = entry.unwrap().path();
        let krate = crate_dir.file_name().unwrap().to_str().unwrap().to_string();
        let Ok(lib) = std::fs::read_to_string(crate_dir.join("src/lib.rs")) else {
            continue; // a binary crate exports nothing
        };
        let code = lib.lines().take_while(|l| !l.contains("#[cfg(test)]"));
        for module in code.filter_map(|l| l.trim().strip_prefix("pub mod ")?.strip_suffix(';')) {
            modules += 1;
            let own = format!("crates/{krate}/src/{module}.rs");
            if !uses
                .iter()
                .any(|(site, mark)| *site != own && file_of(mark) == own)
            {
                unreached.push((krate.clone(), module.to_string()));
            }
        }
    }
    assert!(modules > 40, "found only {modules} public modules");
    unreached.sort();
    let unreached: Vec<_> = unreached
        .iter()
        .map(|(k, m)| (k.as_str(), m.as_str()))
        .collect();
    assert_eq!(
        unreached,
        allowed(ALLOWED),
        "public modules no other file uses an item of, against the allowlist"
    );
}

#[test]
fn the_sweep_marks_definitions_and_skips_use_statements() {
    // An item after a test module is checked like one before it.
    let text = "pub fn run(x: u32) {}\n    pub const fn new() -> Self {\n\
                pub(crate) fn hidden() {}\npub use crate::ring::Ring;\n\
                #[cfg(test)]\npub fn helper() {}\n#[cfg(test)]\nmod tests {\n\
                \x20   pub fn inner() {\n    }\n}\npub fn after() {}\n";
    let (marked, marks) = mark("a.rs", text);
    let after = "reach@a.rs:12:after";
    assert_eq!(marks, ["reach@a.rs:1:run", "reach@a.rs:2:new", after]);
    assert!(marked.starts_with(
        "#[deprecated = \"reach@a.rs:1:run\"]\npub fn run(x: u32) {}\n    \
         #[deprecated = \"reach@a.rs:2:new\"]\n    pub const fn new"
    ));
    assert_eq!(defined_item("pub const MAX: usize = 9;"), Some("MAX"));
    assert_eq!(defined_item("pub struct Ring<T> {"), Some("Ring"));
    assert_eq!(defined_item("    fn private() {"), None);
    assert_eq!(
        item_of("reach@crates/graph/src/scc.rs:7:tarjan_scc"),
        ("graph", "tarjan_scc")
    );
    let uses = "use a::b;\npub use c::{\n    d,\n    e,\n};\nlet used = f();\n    use g::h;\n";
    assert_eq!(use_lines(uses), BTreeSet::from([1, 2, 3, 4, 5, 7]));
    assert_eq!(allowed(ALLOWED_ITEMS)[6], ("node", "in_flight_entries"));
}
