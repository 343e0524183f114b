//! Deterministic capture & replay — the flight recorder's repro half.
//!
//! A capture is a small JSONL file holding everything needed to re-run
//! a scenario and *prove* the re-run matched: a header with the full
//! scenario configuration (every RNG in the system is seeded from it,
//! so injections, churn, and scheduler decisions are pure functions of
//! the header — the PR 1/2/4 determinism contracts), the injection
//! events the original run actually performed (so a replayer can
//! assert its derived stream matches before trusting the comparison),
//! and a fingerprint of the outcome: an FNV-1a hash over the exact bit
//! patterns of the final ranks plus the traffic counters.
//!
//! Replay re-executes the scenario from the header and compares
//! fingerprints. A mismatch is a determinism bug with a one-file
//! repro.
//!
//! File layout, one JSON object per line:
//!
//! ```text
//! {"capture":"header", ...}        # exactly one, first
//! {"type":"doc_inserted", ...}     # the original run's injections
//! {"capture":"fingerprint", ...}   # exactly one, last
//! ```

use crate::event::Event;
use crate::summary::TraceError;
use serde::{Deserialize, Serialize, Value};

/// Capture format version (bumped on layout changes).
///
/// History: v1 had no `codec` field — captures recorded before the
/// compact wire codec existed implicitly assumed raw `f64` frames.
/// v2 stamps the [`WireCodec`](../../dpr_p2p/transport/enum.WireCodec.html)
/// name into the header so a replayer under a different codec refuses
/// instead of comparing fingerprints from different wire semantics.
/// v3 adds the chaotic run mode: `run_mode` / `latency` header fields
/// and a `schedule_fnv` fingerprint over the executed event schedule,
/// so a chaotic replay certifies it ran the *same events*, not merely
/// that it reached the same ranks.
pub const CAPTURE_VERSION: u64 = 3;

/// The scenario configuration a capture was recorded from. Every
/// field feeds a seeded RNG or a deterministic algorithm, so the
/// header alone reproduces the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaptureHeader {
    /// Capture format version.
    pub version: u64,
    /// Scenario name (e.g. `"continuous-update"`).
    pub scenario: String,
    /// Documents in the initial graph.
    pub nodes: u64,
    /// Peers in the system.
    pub num_peers: u64,
    /// Documents inserted during the run.
    pub inserts: u64,
    /// Recompute checkpoints across the insert stream.
    pub checkpoints: u64,
    /// Convergence threshold ε.
    pub epsilon: f64,
    /// Master seed (graph, placement, and insert RNGs derive from it).
    pub seed: u64,
    /// Scheduler mode (`"pass"` / `"priority"`).
    pub sched: String,
    /// Wire codec the run's frames traveled under (`"raw"` /
    /// `"compact"`). Compact quantizes to `f32`, so fingerprints are
    /// only comparable within one codec.
    pub codec: String,
    /// Run mode (`"rounds"` / `"chaotic"`): barrier-stepped rounds or
    /// the event-driven runtime. The two execute different schedules,
    /// so fingerprints are only comparable within one mode.
    pub run_mode: String,
    /// Latency model of a chaotic run (`"modem"` / `"broadband"` /
    /// `"lan"`); rounds-mode captures record the default and ignore it.
    pub latency: String,
}

/// The outcome a replay must reproduce bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// FNV-1a over the little-endian bit patterns of the final ranks.
    pub ranks_fnv: u64,
    /// Number of documents the hash covers.
    pub docs: u64,
    /// Total engine passes across all runs in the scenario.
    pub passes: u64,
    /// Total remote messages (the paper's traffic metric).
    pub remote_messages: u64,
    /// Total local (same-peer) updates.
    pub local_updates: u64,
    /// FNV-1a over the executed event schedule of a chaotic run
    /// (every `Step`/`Deliver` with its virtual time), accumulated
    /// across the scenario's reconvergence segments. Zero for
    /// rounds-mode captures, which have no event schedule.
    pub schedule_fnv: u64,
}

/// FNV-1a over the exact bit patterns of `ranks` — equal iff every
/// rank is bit-identical (NaNs included, `-0.0 ≠ 0.0`).
pub fn fnv64_ranks(ranks: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in ranks {
        for b in r.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A complete capture: header, injection stream, fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// Scenario configuration.
    pub header: CaptureHeader,
    /// The injection events (`doc_inserted` / `peer_churn`) the
    /// original run performed, in order.
    pub injections: Vec<Event>,
    /// The outcome to reproduce.
    pub fingerprint: Fingerprint,
}

fn tagged(tag: &str, v: Value) -> Value {
    match v {
        Value::Object(mut pairs) => {
            pairs.insert(0, ("capture".to_string(), Value::Str(tag.to_string())));
            Value::Object(pairs)
        }
        other => other,
    }
}

impl Capture {
    /// Serializes to the JSONL capture layout.
    pub fn to_jsonl(&self) -> String {
        let ser = |v: &Value| serde_json::to_string(v).expect("value serializes");
        let mut out = String::new();
        out.push_str(&ser(&tagged("header", self.header.to_value())));
        out.push('\n');
        for e in &self.injections {
            out.push_str(&serde_json::to_string(e).expect("event serializes"));
            out.push('\n');
        }
        out.push_str(&ser(&tagged("fingerprint", self.fingerprint.to_value())));
        out.push('\n');
        out
    }

    /// Parses a JSONL capture, validating layout and schema.
    pub fn from_jsonl(text: &str) -> Result<Self, TraceError> {
        let mut header: Option<CaptureHeader> = None;
        let mut fingerprint: Option<Fingerprint> = None;
        let mut injections = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fail = |message: String| TraceError {
                line: i + 1,
                message,
            };
            let v: Value =
                serde_json::from_str(line).map_err(|e| fail(format!("not JSON: {e}")))?;
            match v.get("capture").and_then(Value::as_str) {
                Some("header") => {
                    if header.is_some() {
                        return Err(fail("duplicate capture header".into()));
                    }
                    // Check the raw version *before* the full schema
                    // parse: an old capture is missing newer fields,
                    // and "capture version 1" beats "missing field
                    // codec" as a diagnostic.
                    match v.get("version").and_then(Value::as_u64) {
                        Some(CAPTURE_VERSION) => {}
                        Some(old) => {
                            return Err(fail(format!(
                                "capture version {old} (this reader speaks \
                                 {CAPTURE_VERSION}; re-record the capture)"
                            )));
                        }
                        None => {
                            return Err(fail("capture header has no version".into()));
                        }
                    }
                    let h = CaptureHeader::from_value(&v).map_err(|e| fail(e.to_string()))?;
                    header = Some(h);
                }
                Some("fingerprint") => {
                    if fingerprint.is_some() {
                        return Err(fail("duplicate capture fingerprint".into()));
                    }
                    fingerprint =
                        Some(Fingerprint::from_value(&v).map_err(|e| fail(e.to_string()))?);
                }
                Some(other) => {
                    return Err(fail(format!("unknown capture record {other:?}")));
                }
                None => {
                    if header.is_none() {
                        return Err(fail("capture must start with its header".into()));
                    }
                    let e = Event::from_value(&v).map_err(|e| fail(e.to_string()))?;
                    if !e.is_injection() {
                        return Err(fail(format!(
                            "capture bodies hold injection events only, got {:?}",
                            e.kind()
                        )));
                    }
                    injections.push(e);
                }
            }
        }
        Ok(Capture {
            header: header.ok_or(TraceError {
                line: 0,
                message: "capture has no header".into(),
            })?,
            injections,
            fingerprint: fingerprint.ok_or(TraceError {
                line: 0,
                message: "capture has no fingerprint".into(),
            })?,
        })
    }

    /// Writes the capture to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Reads a capture from `path`.
    pub fn read(path: &std::path::Path) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path).map_err(|e| TraceError {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Self::from_jsonl(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Capture {
        Capture {
            header: CaptureHeader {
                version: CAPTURE_VERSION,
                scenario: "continuous-update".into(),
                nodes: 10_000,
                num_peers: 500,
                inserts: 64,
                checkpoints: 4,
                epsilon: 1e-3,
                seed: 2003,
                sched: "priority".into(),
                codec: "raw".into(),
                run_mode: "chaotic".into(),
                latency: "broadband".into(),
            },
            injections: vec![
                Event::DocInserted {
                    seq: 1,
                    doc: 10_000,
                },
                Event::PeerChurn {
                    round: 3,
                    peer: 17,
                    online: false,
                },
            ],
            fingerprint: Fingerprint {
                ranks_fnv: u64::MAX - 11, // exercises > 2^53 round-trip
                docs: 10_064,
                passes: 210,
                remote_messages: 123_456,
                local_updates: 654_321,
                schedule_fnv: 0xcbf2_9ce4_8422_2325,
            },
        }
    }

    #[test]
    fn capture_roundtrips_through_jsonl() {
        let c = sample();
        let text = c.to_jsonl();
        assert!(text.starts_with("{\"capture\":\"header\""), "{text}");
        let back = Capture::from_jsonl(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn reader_rejects_malformed_captures() {
        let c = sample();
        let text = c.to_jsonl();

        // Missing fingerprint.
        let no_fp: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(Capture::from_jsonl(&no_fp)
            .unwrap_err()
            .message
            .contains("fingerprint"));

        // Event before the header.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(0, 1);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(Capture::from_jsonl(&swapped)
            .unwrap_err()
            .message
            .contains("header"));

        // Non-injection events don't belong in a capture body.
        let with_noise = text.replacen(
            "{\"type\":\"doc_inserted\"",
            "{\"type\":\"round_completed\",\"round\":1,\"sent\":0,\"delivered\":0,\
             \"redelivered\":0,\"hops\":0,\"pending\":0}\n{\"type\":\"doc_inserted\"",
            1,
        );
        assert!(Capture::from_jsonl(&with_noise)
            .unwrap_err()
            .message
            .contains("injection"));

        // Future versions are refused loudly, not misread.
        let future = text.replacen("\"version\":3", "\"version\":99", 1);
        assert!(Capture::from_jsonl(&future)
            .unwrap_err()
            .message
            .contains("version"));
    }

    #[test]
    fn reader_rejects_old_captures_by_version_not_schema() {
        // A v1 capture has no `codec` field; the reader must say
        // "capture version 1", not complain about the missing field.
        let v1 = sample()
            .to_jsonl()
            .replacen("\"version\":3", "\"version\":1", 1)
            .replacen(",\"codec\":\"raw\"", "", 1)
            .replacen(",\"run_mode\":\"chaotic\",\"latency\":\"broadband\"", "", 1);
        let err = Capture::from_jsonl(&v1).unwrap_err().message;
        assert!(err.contains("capture version 1"), "{err}");
        assert!(err.contains("re-record"), "{err}");
        assert!(!err.contains("codec"), "{err}");

        // Likewise a v2 capture, which predates run_mode/latency and
        // the schedule fingerprint.
        let v2 = sample()
            .to_jsonl()
            .replacen("\"version\":3", "\"version\":2", 1)
            .replacen(",\"run_mode\":\"chaotic\",\"latency\":\"broadband\"", "", 1)
            .replacen(",\"schedule_fnv\":14695981039346656037", "", 1);
        let err = Capture::from_jsonl(&v2).unwrap_err().message;
        assert!(err.contains("capture version 2"), "{err}");
        assert!(!err.contains("run_mode"), "{err}");
    }

    #[test]
    fn fnv_is_bit_exact() {
        let a = [0.1, 0.2, 0.3];
        let b = [0.1, 0.2, 0.30000000000000004];
        assert_eq!(fnv64_ranks(&a), fnv64_ranks(&a));
        assert_ne!(fnv64_ranks(&a), fnv64_ranks(&b));
        assert_ne!(fnv64_ranks(&[0.0]), fnv64_ranks(&[-0.0]));
        assert_ne!(fnv64_ranks(&[]), fnv64_ranks(&[0.0]));
    }
}
