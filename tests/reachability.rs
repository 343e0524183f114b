//! The reachability rule, as a test: every `pub mod` a crate exports
//! is named by code that runs — a non-test, non-comment line of some
//! *other* file under `crates/` or `perf/src` — or it is on the
//! allowlist below with the reason it stays. A module only its own
//! tests, the integration tests or an example reach is deleted, not
//! kept for later.

use std::path::{Path, PathBuf};

/// Unreached modules that stay, with why.
const ALLOWED: [(&str, &str, &str); 1] = [(
    "search",
    "fasd",
    "paper Sec. 2.4.1: the FASD/Freenet-style search the paper sets its own scheme against",
)];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
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

#[test]
fn every_public_module_is_reached_by_code_that_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("perf/src"), &mut files);
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            (p, text)
        })
        .collect();

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
