//! JSON persistence of experiment records.
//!
//! Every `table*` binary can dump its rows as JSON next to the printed
//! table, so EXPERIMENTS.md numbers are regenerable and diffable.

use serde::Serialize;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The shared provenance envelope stamped into every experiment JSON.
///
/// Bench numbers are only comparable when their provenance is pinned:
/// which commit produced them, when, on which scenario, and along
/// which axes (codec, run mode, scheduler). The driver passes the
/// commit and timestamp in from outside (`--git-sha`/`--stamp` on the
/// bench binaries — the sandbox has no clock authority and the binary
/// should not guess).
#[derive(Debug, Clone, Serialize)]
pub struct BenchMeta {
    /// Commit the binary was built from, as passed by the driver.
    pub git_sha: String,
    /// ISO-8601 timestamp of the run, as passed by the driver.
    pub timestamp: String,
    /// Scenario description (graph sizes, peer counts, ε).
    pub scenario: String,
    /// Wire codec axis covered by the rows ("raw", "compact", or
    /// "raw+compact" when rows span both).
    pub codec: String,
    /// Run-mode axis ("rounds", "chaotic", or "rounds+chaotic").
    pub run_mode: String,
    /// Scheduler axis ("pass", "priority", or "pass+priority").
    pub sched: String,
}

/// A named experiment record with arbitrary serializable rows.
#[derive(Debug, Serialize)]
pub struct ExperimentRecord<T: Serialize> {
    /// Experiment id, e.g. "table1".
    pub experiment: String,
    /// Free-form parameter description.
    pub params: String,
    /// Provenance envelope shared by every experiment JSON.
    pub meta: BenchMeta,
    /// The measured rows.
    pub rows: Vec<T>,
}

impl<T: Serialize> ExperimentRecord<T> {
    /// Creates a record.
    pub fn new(
        experiment: impl Into<String>,
        params: impl Into<String>,
        meta: BenchMeta,
        rows: Vec<T>,
    ) -> Self {
        ExperimentRecord {
            experiment: experiment.into(),
            params: params.into(),
            meta,
            rows,
        }
    }

    /// Writes the record as pretty JSON to `dir/<experiment>.json`,
    /// creating the directory if needed. Returns the path written.
    pub fn write_to_dir(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        let mut f = fs::File::create(&path)?;
        serde_json::to_writer_pretty(&mut f, self).map_err(io::Error::other)?;
        f.write_all(b"\n")?;
        Ok(path)
    }
}

/// Output directory for experiment JSON: `DPR_RESULTS_DIR` when set,
/// else `default` (relative to the working directory).
pub fn out_dir(default: &str) -> PathBuf {
    std::env::var_os("DPR_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(default))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Row {
        x: u32,
    }

    #[test]
    fn writes_json_file() {
        let dir = std::env::temp_dir().join(format!("dpr-report-test-{}", std::process::id()));
        let meta = BenchMeta {
            git_sha: "abc123".into(),
            timestamp: "2026-01-01T00:00:00Z".into(),
            scenario: "demo scenario".into(),
            codec: "raw".into(),
            run_mode: "rounds".into(),
            sched: "pass".into(),
        };
        let rec = ExperimentRecord::new("table9", "demo", meta, vec![Row { x: 1 }, Row { x: 2 }]);
        let path = rec.write_to_dir(&dir).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"experiment\": \"table9\""));
        assert!(text.contains("\"x\": 2"));
        assert!(text.contains("\"git_sha\": \"abc123\""));
        assert!(text.contains("\"timestamp\": \"2026-01-01T00:00:00Z\""));
        assert!(text.contains("\"run_mode\": \"rounds\""));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn results_dir_env_override() {
        // Don't mutate the process env (tests run in parallel); just
        // check the default.
        if std::env::var_os("DPR_RESULTS_DIR").is_none() {
            assert_eq!(out_dir("results"), PathBuf::from("results"));
        }
    }
}
