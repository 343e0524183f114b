//! Trace analysis: parse a JSONL trace and derive the summaries the
//! `dpr trace` subcommand prints — convergence curve, traffic by
//! pass/round, hottest peers — plus the residual-monotonicity check
//! the acceptance tests assert.

use crate::event::Event;
use crate::fmt::{fmt_bytes, fmt_f64};
use crate::table::TextTable;
use serde::{Deserialize, Value};

/// A schema violation found while validating a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number in the JSONL input.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

/// Parses a JSONL trace, validating every line against the event
/// schema: [`parse_jsonl_tolerant`], except that the first line of an
/// unknown kind is an error too. Blank lines are ignored.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, TraceError> {
    parse_lines(text, true).map(|(events, _)| events)
}

/// An event kind the parser did not recognize, with how often it
/// appeared — surfaced instead of swallowed so schema drift between a
/// trace writer and this reader is visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownKind {
    /// The unrecognized `"type"` discriminator.
    pub kind: String,
    /// How many lines carried it.
    pub count: u64,
    /// 1-based line number of its first appearance.
    pub first_line: usize,
}

/// Parses a JSONL trace like [`parse_jsonl`], but lines whose `"type"`
/// is not in the known taxonomy are counted per kind instead of
/// rejected (a trace from a newer writer stays readable). Lines that
/// are not JSON, lack a `"type"`, or carry a *known* type with a
/// malformed body still fail: those are corruption, not drift.
pub fn parse_jsonl_tolerant(text: &str) -> Result<(Vec<Event>, Vec<UnknownKind>), TraceError> {
    parse_lines(text, false)
}

/// The one parser loop; `strict` turns an unknown kind into an error.
fn parse_lines(text: &str, strict: bool) -> Result<(Vec<Event>, Vec<UnknownKind>), TraceError> {
    let mut events = Vec::new();
    let mut unknown: Vec<UnknownKind> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line).map_err(|e| TraceError {
            line: i + 1,
            message: format!("not JSON: {e}"),
        })?;
        let tag = value
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| TraceError {
                line: i + 1,
                message: "event missing \"type\" discriminator".to_string(),
            })?;
        if !Event::KINDS.contains(&tag) {
            if strict {
                return Err(TraceError {
                    line: i + 1,
                    message: format!("unknown event type {tag:?}"),
                });
            }
            match unknown.iter_mut().find(|u| u.kind == tag) {
                Some(u) => u.count += 1,
                None => unknown.push(UnknownKind {
                    kind: tag.to_string(),
                    count: 1,
                    first_line: i + 1,
                }),
            }
            continue;
        }
        let event = Event::from_value(&value).map_err(|e| TraceError {
            line: i + 1,
            message: e.to_string(),
        })?;
        events.push(event);
    }
    Ok((events, unknown))
}

/// One point of a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Pass index within the run.
    pub pass: u64,
    /// Residual mass after the pass.
    pub residual: f64,
    /// Documents still scheduled after the pass.
    pub active_docs: u64,
}

/// Per-round wire traffic derived from `FrameSent` events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTraffic {
    /// Round index.
    pub round: u64,
    /// Payloads sent.
    pub payloads: u64,
    /// Coalesced entries across those payloads.
    pub entries: u64,
    /// Payload bytes on the wire.
    pub bytes: u64,
}

/// Per-peer totals derived from `FrameSent` events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerTraffic {
    /// The peer.
    pub peer: u32,
    /// Bytes this peer sent.
    pub bytes_out: u64,
    /// Bytes addressed to this peer.
    pub bytes_in: u64,
    /// Payloads this peer sent.
    pub payloads_out: u64,
}

/// Chaotic-runtime health counters aggregated over a trace: sums of
/// every `ChaoticHealth` event (the runtime emits one per chaotic
/// segment), with `max_inbox_depth` taken as the maximum across
/// segments rather than a sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaoticHealthSummary {
    /// Chaotic segments (one `ChaoticHealth` event each).
    pub segments: u64,
    /// Events executed by the discrete-event loop.
    pub events: u64,
    /// Peer steps executed.
    pub steps: u64,
    /// Frames delivered into peer inboxes.
    pub deliveries: u64,
    /// Deliveries redirected to a churned-out peer's successor.
    pub displaced: u64,
    /// Deliveries that saturated the destination inbox (backpressure).
    pub saturated: u64,
    /// Steps that coalesced two or more waiting arrivals into one pass.
    pub coalesce_hits: u64,
    /// Highest un-stepped arrival depth any peer's inbox reached.
    pub max_inbox_depth: u64,
}

/// Serving-workload health aggregated over a trace: sums of every
/// `ServingHealth` event (the serving driver emits one per run), with
/// the latency/staleness quantiles taken as maxima across runs — the
/// conservative roll-up for a pass/fail read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingHealthSummary {
    /// Serving runs (one `ServingHealth` event each).
    pub runs: u64,
    /// Queries served across runs.
    pub queries: u64,
    /// Worst p50 end-to-end query latency across runs, nanoseconds.
    pub p50_ns: u64,
    /// Worst p99 end-to-end query latency across runs, nanoseconds.
    pub p99_ns: u64,
    /// Worst p999 end-to-end query latency across runs, nanoseconds.
    pub p999_ns: u64,
    /// Total overlay hops across all queries.
    pub hops: u64,
    /// Total posting/result bytes shipped.
    pub bytes_shipped: u64,
    /// Worst p99 rank staleness across runs, parts-per-million.
    pub stale_p99_ppm: u64,
    /// Total SLO objectives that failed their error budget.
    pub slo_violations: u64,
}

/// Everything `dpr trace` needs, derived once from an event stream.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    events: Vec<Event>,
    /// Run labels in first-appearance order.
    runs: Vec<String>,
    /// Unrecognized event kinds seen while parsing (empty when built
    /// from typed events).
    unknown: Vec<UnknownKind>,
}

impl TraceSummary {
    /// Builds a summary over an owned event stream.
    pub fn from_events(events: Vec<Event>) -> Self {
        let mut runs: Vec<String> = Vec::new();
        for e in &events {
            if let Event::ConvergenceCheck { run, .. } | Event::PassCompleted { run, .. } = e {
                if !runs.iter().any(|r| r == run) {
                    runs.push(run.clone());
                }
            }
        }
        TraceSummary {
            events,
            runs,
            unknown: Vec::new(),
        }
    }

    /// Parses a JSONL trace into a summary. Unknown event kinds are
    /// counted into [`TraceSummary::unknown_events`] rather than
    /// rejected (use [`parse_jsonl`] for the strict schema check);
    /// non-JSON lines and malformed known events still fail.
    pub fn from_jsonl(text: &str) -> Result<Self, TraceError> {
        let (events, unknown) = parse_jsonl_tolerant(text)?;
        let mut s = Self::from_events(events);
        s.unknown = unknown;
        Ok(s)
    }

    /// The underlying events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Engine-run labels in first-appearance order.
    pub fn runs(&self) -> &[String] {
        &self.runs
    }

    /// Event kinds the parser did not recognize, in first-appearance
    /// order — nonempty means the trace writer speaks a newer (or
    /// foreign) schema and some lines were skipped.
    pub fn unknown_events(&self) -> &[UnknownKind] {
        &self.unknown
    }

    /// The residual/active-docs curve of one run.
    pub fn convergence_curve(&self, run: &str) -> Vec<CurvePoint> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::ConvergenceCheck {
                    run: r,
                    pass,
                    active_docs,
                    residual,
                } if r == run => Some(CurvePoint {
                    pass: *pass,
                    residual: *residual,
                    active_docs: *active_docs,
                }),
                _ => None,
            })
            .collect()
    }

    /// Wire traffic per round, in round order.
    pub fn traffic_by_round(&self) -> Vec<RoundTraffic> {
        let mut rounds: Vec<RoundTraffic> = Vec::new();
        for e in &self.events {
            if let Event::FrameSent {
                round,
                entries,
                bytes,
                ..
            } = e
            {
                let slot = match rounds.iter_mut().find(|r| r.round == *round) {
                    Some(slot) => slot,
                    None => {
                        rounds.push(RoundTraffic {
                            round: *round,
                            ..RoundTraffic::default()
                        });
                        rounds.last_mut().unwrap()
                    }
                };
                slot.payloads += 1;
                slot.entries += entries;
                slot.bytes += bytes;
            }
        }
        rounds.sort_by_key(|r| r.round);
        rounds
    }

    /// The `k` peers moving the most bytes (out + in), descending;
    /// ties broken by peer id for determinism.
    pub fn hottest_peers(&self, k: usize) -> Vec<PeerTraffic> {
        let mut peers: Vec<PeerTraffic> = Vec::new();
        fn slot(peers: &mut Vec<PeerTraffic>, peer: u32) -> usize {
            match peers.iter().position(|p| p.peer == peer) {
                Some(i) => i,
                None => {
                    peers.push(PeerTraffic {
                        peer,
                        ..PeerTraffic::default()
                    });
                    peers.len() - 1
                }
            }
        }
        for e in &self.events {
            if let Event::FrameSent {
                from, to, bytes, ..
            } = e
            {
                let i = slot(&mut peers, *from);
                peers[i].bytes_out += bytes;
                peers[i].payloads_out += 1;
                let j = slot(&mut peers, *to);
                peers[j].bytes_in += bytes;
            }
        }
        peers.sort_by(|a, b| {
            (b.bytes_out + b.bytes_in, a.peer).cmp(&(a.bytes_out + a.bytes_in, b.peer))
        });
        peers.truncate(k);
        peers
    }

    /// Index just past the last injection event (`PeerChurn` /
    /// `DocInserted`); 0 when the trace has none.
    pub fn after_last_injection(&self) -> usize {
        self.events
            .iter()
            .rposition(Event::is_injection)
            .map_or(0, |i| i + 1)
    }

    /// Checks that after the final injection event every engine run's
    /// residual series is monotone non-increasing (each run starts
    /// fresh, so the series is keyed by run label). Returns the first
    /// violation as `(run, pass, prev, next)`.
    ///
    /// A hair of head-room absorbs last-ulp float noise without
    /// masking real regressions.
    pub fn residual_monotone_after_last_injection(&self) -> Result<(), (String, u64, f64, f64)> {
        let start = self.after_last_injection();
        let mut last: Vec<(String, u64, f64)> = Vec::new();
        for e in &self.events[start..] {
            if let Event::ConvergenceCheck {
                run,
                pass,
                residual,
                ..
            } = e
            {
                match last.iter_mut().find(|(r, _, _)| r == run) {
                    Some((_, prev_pass, prev)) => {
                        if *residual > *prev * (1.0 + 1e-9) + 1e-12 {
                            return Err((run.clone(), *pass, *prev, *residual));
                        }
                        *prev_pass = *pass;
                        *prev = *residual;
                    }
                    None => last.push((run.clone(), *pass, *residual)),
                }
            }
        }
        Ok(())
    }

    /// Aggregates the chaotic-runtime health counters, or `None` when
    /// the trace holds no `ChaoticHealth` events (a rounds-mode trace,
    /// or a writer predating the chaotic runtime).
    pub fn chaotic_health(&self) -> Option<ChaoticHealthSummary> {
        let mut agg = ChaoticHealthSummary::default();
        for e in &self.events {
            if let Event::ChaoticHealth {
                events,
                steps,
                deliveries,
                displaced,
                saturated,
                coalesce_hits,
                max_inbox_depth,
            } = e
            {
                agg.segments += 1;
                agg.events += events;
                agg.steps += steps;
                agg.deliveries += deliveries;
                agg.displaced += displaced;
                agg.saturated += saturated;
                agg.coalesce_hits += coalesce_hits;
                agg.max_inbox_depth = agg.max_inbox_depth.max(*max_inbox_depth);
            }
        }
        (agg.segments > 0).then_some(agg)
    }

    /// Aggregates the serving-workload health counters, or `None` when
    /// the trace holds no `ServingHealth` events (a run without the
    /// serving workload, or a writer predating it).
    pub fn serving_health(&self) -> Option<ServingHealthSummary> {
        let mut agg = ServingHealthSummary::default();
        for e in &self.events {
            if let Event::ServingHealth {
                queries,
                p50_ns,
                p99_ns,
                p999_ns,
                hops,
                bytes_shipped,
                stale_p99_ppm,
                slo_violations,
            } = e
            {
                agg.runs += 1;
                agg.queries += queries;
                agg.p50_ns = agg.p50_ns.max(*p50_ns);
                agg.p99_ns = agg.p99_ns.max(*p99_ns);
                agg.p999_ns = agg.p999_ns.max(*p999_ns);
                agg.hops += hops;
                agg.bytes_shipped += bytes_shipped;
                agg.stale_p99_ppm = agg.stale_p99_ppm.max(*stale_p99_ppm);
                agg.slo_violations += slo_violations;
            }
        }
        (agg.runs > 0).then_some(agg)
    }

    /// Renders the serving health counters as a text table (empty when
    /// the trace has none).
    pub fn render_serving_health(&self) -> TextTable {
        let mut t = TextTable::new([
            "runs",
            "queries",
            "p50 ms",
            "p99 ms",
            "p999 ms",
            "hops",
            "bytes shipped",
            "stale p99 ppm",
            "slo violations",
        ]);
        if let Some(h) = self.serving_health() {
            let ms = |ns: u64| format!("{:.2}", ns as f64 / 1e6);
            t.push([
                h.runs.to_string(),
                h.queries.to_string(),
                ms(h.p50_ns),
                ms(h.p99_ns),
                ms(h.p999_ns),
                h.hops.to_string(),
                fmt_bytes(h.bytes_shipped),
                h.stale_p99_ppm.to_string(),
                h.slo_violations.to_string(),
            ]);
        }
        t
    }

    /// Renders the chaotic health counters as a text table (empty when
    /// the trace has none).
    pub fn render_chaotic_health(&self) -> TextTable {
        let mut t = TextTable::new([
            "segments",
            "events",
            "steps",
            "deliveries",
            "displaced",
            "saturated",
            "coalesce hits",
            "max inbox depth",
        ]);
        if let Some(h) = self.chaotic_health() {
            t.push([
                h.segments.to_string(),
                h.events.to_string(),
                h.steps.to_string(),
                h.deliveries.to_string(),
                h.displaced.to_string(),
                h.saturated.to_string(),
                h.coalesce_hits.to_string(),
                h.max_inbox_depth.to_string(),
            ]);
        }
        t
    }

    /// Renders the convergence curve of `run` as a text table.
    pub fn render_convergence(&self, run: &str) -> TextTable {
        let mut t = TextTable::new(["pass", "residual", "active docs"]);
        for p in self.convergence_curve(run) {
            t.push([
                p.pass.to_string(),
                fmt_f64(p.residual),
                p.active_docs.to_string(),
            ]);
        }
        t
    }

    /// Renders the traffic-by-round table.
    pub fn render_traffic(&self) -> TextTable {
        let mut t = TextTable::new(["round", "payloads", "entries", "bytes"]);
        for r in self.traffic_by_round() {
            t.push([
                r.round.to_string(),
                r.payloads.to_string(),
                r.entries.to_string(),
                fmt_bytes(r.bytes),
            ]);
        }
        t
    }

    /// Renders the top-`k` hottest peers table.
    pub fn render_hottest_peers(&self, k: usize) -> TextTable {
        let mut t = TextTable::new(["peer", "bytes out", "bytes in", "payloads out"]);
        for p in self.hottest_peers(k) {
            t.push([
                p.peer.to_string(),
                fmt_bytes(p.bytes_out),
                fmt_bytes(p.bytes_in),
                p.payloads_out.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(run: &str, pass: u64, residual: f64) -> Event {
        Event::ConvergenceCheck {
            run: run.into(),
            pass,
            active_docs: 1,
            residual,
        }
    }

    fn frame(round: u64, from: u32, to: u32, entries: u64, bytes: u64) -> Event {
        Event::FrameSent {
            round,
            from,
            to,
            entries,
            bytes,
        }
    }

    #[test]
    fn parse_rejects_bad_lines_with_position() {
        let text = "{\"type\": \"doc_inserted\", \"seq\": 1, \"doc\": 2}\n\nnot json\n";
        let err = parse_jsonl(text).unwrap_err();
        assert_eq!(err.line, 3);

        let bad_schema = "{\"type\": \"doc_inserted\", \"seq\": 1}\n";
        assert_eq!(parse_jsonl(bad_schema).unwrap_err().line, 1);
    }

    #[test]
    fn curves_are_keyed_by_run() {
        let s = TraceSummary::from_events(vec![
            check("initial", 1, 8.0),
            check("initial", 2, 2.0),
            check("wave@1", 1, 0.5),
        ]);
        assert_eq!(s.runs(), &["initial".to_string(), "wave@1".to_string()]);
        let c = s.convergence_curve("initial");
        assert_eq!(c.len(), 2);
        assert_eq!(c[1].residual, 2.0);
        assert_eq!(s.convergence_curve("wave@1").len(), 1);
        assert!(s
            .render_convergence("initial")
            .render()
            .contains("residual"));
    }

    #[test]
    fn traffic_aggregates_by_round_and_peer() {
        let s = TraceSummary::from_events(vec![
            frame(1, 0, 1, 2, 36),
            frame(1, 1, 0, 1, 24),
            frame(2, 0, 1, 3, 52),
        ]);
        let rounds = s.traffic_by_round();
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].payloads, 2);
        assert_eq!(rounds[0].entries, 3);
        assert_eq!(rounds[0].bytes, 60);

        let hot = s.hottest_peers(10);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].peer, 0, "peer 0 moved 88 out + 24 in");
        assert_eq!(hot[0].bytes_out, 88);
        assert_eq!(hot[0].bytes_in, 24);
        assert_eq!(s.hottest_peers(1).len(), 1);
        assert!(s.render_traffic().render().contains("payloads"));
        assert!(s.render_hottest_peers(2).render().contains("bytes out"));
    }

    #[test]
    fn monotone_check_ignores_prefix_before_last_injection() {
        let s = TraceSummary::from_events(vec![
            check("initial", 1, 1.0),
            check("initial", 2, 5.0), // violation, but pre-injection
            Event::DocInserted { seq: 1, doc: 7 },
            check("wave@1", 1, 3.0),
            check("wave@1", 2, 1.0),
            check("recompute@1", 1, 9.0), // separate run: fresh start OK
            check("recompute@1", 2, 4.0),
        ]);
        assert_eq!(s.after_last_injection(), 3);
        assert!(s.residual_monotone_after_last_injection().is_ok());
    }

    #[test]
    fn monotone_check_catches_violations() {
        let s = TraceSummary::from_events(vec![
            Event::PeerChurn {
                round: 1,
                peer: 0,
                online: false,
            },
            check("r", 1, 1.0),
            check("r", 2, 2.0),
        ]);
        let (run, pass, prev, next) = s.residual_monotone_after_last_injection().unwrap_err();
        assert_eq!(run, "r");
        assert_eq!(pass, 2);
        assert_eq!((prev, next), (1.0, 2.0));
    }

    #[test]
    fn chaotic_health_sums_segments_and_maxes_depth() {
        let health = |events: u64, saturated: u64, depth: u64| Event::ChaoticHealth {
            events,
            steps: events / 2,
            deliveries: events / 3,
            displaced: 0,
            saturated,
            coalesce_hits: 5,
            max_inbox_depth: depth,
        };
        let s = TraceSummary::from_events(vec![
            check("r", 1, 1.0),
            health(600, 2, 9),
            health(400, 1, 17),
        ]);
        let h = s.chaotic_health().unwrap();
        assert_eq!(h.segments, 2);
        assert_eq!(h.events, 1000);
        assert_eq!(h.steps, 500);
        assert_eq!(h.saturated, 3);
        assert_eq!(h.coalesce_hits, 10);
        assert_eq!(h.max_inbox_depth, 17, "depth is a max, not a sum");
        assert!(s.render_chaotic_health().render().contains("saturated"));

        let rounds_only = TraceSummary::from_events(vec![check("r", 1, 1.0)]);
        assert_eq!(rounds_only.chaotic_health(), None);
    }

    #[test]
    fn serving_health_sums_runs_and_maxes_quantiles() {
        let health = |queries: u64, p99: u64, violations: u64| Event::ServingHealth {
            queries,
            p50_ns: p99 / 4,
            p99_ns: p99,
            p999_ns: p99 * 2,
            hops: queries * 3,
            bytes_shipped: queries * 100,
            stale_p99_ppm: 40,
            slo_violations: violations,
        };
        let s = TraceSummary::from_events(vec![
            check("r", 1, 1.0),
            health(300, 80_000_000, 0),
            health(200, 120_000_000, 1),
        ]);
        let h = s.serving_health().unwrap();
        assert_eq!(h.runs, 2);
        assert_eq!(h.queries, 500);
        assert_eq!(h.p99_ns, 120_000_000, "quantiles roll up as maxima");
        assert_eq!(h.hops, 1500);
        assert_eq!(h.bytes_shipped, 50_000);
        assert_eq!(h.slo_violations, 1);
        assert!(s.render_serving_health().render().contains("p99 ms"));

        let no_serving = TraceSummary::from_events(vec![check("r", 1, 1.0)]);
        assert_eq!(no_serving.serving_health(), None);
    }

    #[test]
    fn empty_trace_is_trivially_valid() {
        let s = TraceSummary::from_jsonl("").unwrap();
        assert!(s.runs().is_empty());
        assert!(s.unknown_events().is_empty());
        assert!(s.residual_monotone_after_last_injection().is_ok());
        assert_eq!(s.after_last_injection(), 0);
    }

    #[test]
    fn unknown_kinds_are_counted_not_swallowed() {
        let text = "{\"type\": \"doc_inserted\", \"seq\": 1, \"doc\": 2}\n\
                    {\"type\": \"warp_drive\", \"dilithium\": 9}\n\
                    {\"type\": \"warp_drive\"}\n\
                    {\"type\": \"mystery\"}\n";
        let s = TraceSummary::from_jsonl(text).unwrap();
        assert_eq!(s.events().len(), 1);
        assert_eq!(
            s.unknown_events(),
            &[
                UnknownKind {
                    kind: "warp_drive".into(),
                    count: 2,
                    first_line: 2,
                },
                UnknownKind {
                    kind: "mystery".into(),
                    count: 1,
                    first_line: 4,
                },
            ]
        );
        // The strict parser still rejects the same trace.
        assert_eq!(parse_jsonl(text).unwrap_err().line, 2);
    }

    #[test]
    fn tolerant_parse_still_rejects_corruption() {
        // Not JSON at all.
        assert_eq!(
            parse_jsonl_tolerant("garbage\n").unwrap_err().line,
            1,
            "non-JSON must fail"
        );
        // JSON without a discriminator.
        assert!(parse_jsonl_tolerant("{\"seq\": 1}\n")
            .unwrap_err()
            .message
            .contains("type"));
        // A known kind with a malformed body is corruption, not drift.
        assert_eq!(
            parse_jsonl_tolerant("{\"type\": \"doc_inserted\", \"seq\": 1}\n")
                .unwrap_err()
                .line,
            1
        );
    }
}
