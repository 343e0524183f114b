//! The typed event taxonomy and its JSONL encoding.
//!
//! Every event serializes to one self-describing JSON object — a
//! `"type"` discriminator plus the variant's fields — so a trace file
//! is one event per line, readable by anything that speaks JSON and
//! validated by [`Event::from_value`] (the schema check the `dpr
//! trace --validate` path and the CI smoke step run).
//!
//! The vendored `serde_derive` only handles named-field structs, so
//! the enum's codec is written out by hand; the macro below keeps the
//! two directions and the field lists in one place.

use crate::span::SpanKind;
use serde::{Deserialize, Error, Serialize, Value};

/// A structured telemetry event.
///
/// Ids are raw integers (`u32` peers, `u64` docs/passes) rather than
/// `PeerId`/`DocId`: this crate sits below every runtime crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One engine pass finished (the engine-level unit of progress).
    PassCompleted {
        /// Label of the engine run this pass belongs to (e.g.
        /// `"initial"`, `"wave@3"`, `"recompute@10"`).
        run: String,
        /// Pass index within the run, starting at 1.
        pass: u64,
        /// Documents whose pending increments were applied.
        applied: u64,
        /// Remote messages emitted during the pass.
        remote_messages: u64,
        /// Local (same-peer) rank updates during the pass.
        local_updates: u64,
        /// Distinct documents that emitted updates.
        senders: u64,
        /// Largest relative rank change seen in the pass.
        max_relative_change: f64,
        /// Overlay hops of the pass: one per remote message (the
        /// engine charges no routes; the cluster does).
        hops: u64,
        /// Wall-clock duration of the pass in nanoseconds.
        duration_ns: u64,
    },
    /// Residual mass and active-set size after a pass — the
    /// convergence trajectory. Residual is Σ|rank−advertised| +
    /// Σ|pending|: the mass not yet propagated. Absent injections
    /// (inserts, deletes) it is non-increasing pass over pass.
    ConvergenceCheck {
        /// Engine-run label (see [`Event::PassCompleted::run`]).
        run: String,
        /// Pass index within the run, starting at 1.
        pass: u64,
        /// Documents still scheduled for the next pass.
        active_docs: u64,
        /// Unpropagated rank mass after the pass.
        residual: f64,
    },
    /// Per-shard phase timings of one parallel pass. Nothing emits it
    /// since the sharded executor was deleted; it stays so that old
    /// traces still parse.
    ShardPhase {
        /// Engine-run label.
        run: String,
        /// Pass index within the run, starting at 1.
        pass: u64,
        /// Shard index: the `shard`-th document range of the apply
        /// phase and the `shard`-th target range of the pull phase.
        shard: u32,
        /// Nanoseconds this shard spent applying parked increments.
        apply_ns: u64,
        /// Nanoseconds this shard spent pulling its targets' in-links
        /// (the name dates from the mailbox-merge executor; Capture v3
        /// files fix it).
        merge_ns: u64,
    },
    /// One message-level cluster round finished.
    RoundCompleted {
        /// Round index, starting at 1.
        round: u64,
        /// Wire payloads handed to the transport this round.
        sent: u64,
        /// Payloads placed in destination inboxes this round.
        delivered: u64,
        /// Parked payloads re-delivered this round.
        redelivered: u64,
        /// Overlay hops charged this round.
        hops: u64,
        /// Payloads parked at senders (store-and-resend depth) after
        /// the round.
        pending: u64,
    },
    /// One wire payload (a multi-update frame) left a node's outbox.
    FrameSent {
        /// Round index the send happened in.
        round: u64,
        /// Sending peer.
        from: u32,
        /// Destination peer.
        to: u32,
        /// Coalesced update entries in the payload.
        entries: u64,
        /// Payload bytes on the wire.
        bytes: u64,
    },
    /// A peer's presence changed.
    PeerChurn {
        /// Round (or pass) index at which the change took effect.
        round: u64,
        /// The peer whose presence changed.
        peer: u32,
        /// New presence state.
        online: bool,
    },
    /// A document was inserted into the live system.
    DocInserted {
        /// Insertion sequence number, starting at 1.
        seq: u64,
        /// The inserted document id.
        doc: u64,
    },
    /// Safra's termination-detection token was evaluated at the
    /// initiator after a ring circuit.
    TerminationProbe {
        /// Round index of the probe.
        round: u64,
        /// Completed token circuits so far.
        circuits: u64,
        /// Token message-count accumulator.
        token_count: i64,
        /// Whether the returned token was black.
        token_black: bool,
        /// Whether termination was announced.
        announced: bool,
        /// The Safra invariant Σ sent − Σ received as the detector
        /// sees it (0 when nothing is in flight).
        invariant: i64,
    },
    /// The priority scheduler's per-pass selection outcome
    /// (residual-driven scheduling; absent in full-sweep mode).
    SchedulerPass {
        /// Engine-run label (see [`Event::PassCompleted::run`]).
        run: String,
        /// Pass index within the run, starting at 1.
        pass: u64,
        /// Documents queued when the pass started.
        queued: u64,
        /// Documents selected for processing this pass.
        selected: u64,
        /// Documents deferred to a later pass.
        deferred: u64,
        /// Residual mass carried by the deferred documents.
        deferred_mass: f64,
        /// Fraction of the queued residual mass selected.
        budget_hit: f64,
    },
    /// An overlay lookup was resolved for a destination.
    RouteResolved {
        /// Source peer.
        src: u32,
        /// Destination peer (actual holder).
        dst: u32,
        /// Overlay hops charged.
        hops: u32,
        /// Whether a cached address short-circuited the route.
        cached: bool,
    },
    /// One snapshot of the rank-mass conservation ledger, emitted per
    /// engine pass or cluster round. The audited potential is
    ///
    /// `Φ = ranks + d/(1−d)·unadvertised + 1/(1−d)·(pending + in_flight)
    ///      + d/(1−d)·dangling`
    ///
    /// which every protocol step (apply, advertise, send, deliver)
    /// preserves exactly, so `Φ` must equal `expected` (its value when
    /// the run started) at every snapshot, up to float summation noise.
    MassLedger {
        /// Engine-run label, or `"cluster"` for cluster rounds.
        run: String,
        /// Pass (engine) or round (cluster) index, starting at 1.
        step: u64,
        /// Σ rank over all documents.
        ranks: f64,
        /// Σ (rank − advertised): applied but un-advertised mass.
        unadvertised: f64,
        /// Σ pending: delivered but un-applied increments.
        pending: f64,
        /// Σ decoded update values sitting in transport queues
        /// (inboxes + parked store-and-resend payloads); 0 for the
        /// engine, whose passes leave nothing in flight.
        in_flight: f64,
        /// Cumulative advertised delta of dangling (out-degree 0)
        /// documents — mass the protocol intentionally sinks.
        dangling: f64,
        /// Damping factor d the weights are built from.
        damping: f64,
        /// Φ at run start; the conservation target.
        expected: f64,
    },
    /// One snapshot of the per-round message-balance ledger (cluster
    /// runs only): cumulative entries addressed to peers versus
    /// entries received plus entries still in transport queues.
    BalanceLedger {
        /// Round index, starting at 1.
        round: u64,
        /// Cumulative logical remote emissions (pre-coalescing).
        emitted: u64,
        /// Cumulative coalesced entries handed to the transport.
        sent: u64,
        /// Cumulative entries received (applied) by nodes.
        received: u64,
        /// Entries currently in transport queues (inboxes + parked).
        in_flight_entries: u64,
        /// Peer with the largest absolute balance skew (meaningful
        /// only when `skew != 0`).
        skew_peer: u32,
        /// That peer's `sent_to − received − in_flight_to`: negative
        /// means entries materialized from nowhere (duplication),
        /// positive means entries vanished in transit (loss).
        skew: i64,
    },
    /// One closed virtual-time span of the chaotic runtime (see
    /// [`crate::span`]): the JSONL replica of a [`crate::span::SpanRec`],
    /// emitted in dense id order so a trace reader can rebuild the
    /// exact causal model (`dpr profile --input`).
    SpanClosed {
        /// Dense span id within this chaotic segment, starting at 1
        /// (a fresh segment restarts at 1 — the profiler splits on
        /// non-increasing ids).
        span: u64,
        /// Span kind (wire form `"peer_step"`, `"coalesce_wait"`,
        /// `"link_transfer"`, `"inbox_wait"`, `"safra_probe"`).
        kind: SpanKind,
        /// Primary peer (stepper / sender / wait destination).
        peer: u32,
        /// Secondary peer (transfer destination / wait sender; for
        /// probes, 1 iff the circuit announced termination).
        peer2: u32,
        /// Virtual start time, nanoseconds.
        start_ns: u64,
        /// Virtual end time, nanoseconds.
        end_ns: u64,
        /// Transfers: sender-side link queueing at the span head.
        queue_ns: u64,
        /// Transfers: payload bytes.
        bytes: u64,
        /// Frame provenance id (transfers and inbox waits; 0 = n/a).
        frame: u64,
        /// Id of the span whose completion scheduled this one (0 =
        /// run seed).
        cause: u64,
        /// Inbox waits: id of the step span that consumed the frame
        /// (0 = never consumed).
        consumed: u64,
    },
    /// End-of-run health summary of one chaotic segment: the
    /// event-runtime counters that round-mode telemetry has no
    /// equivalent for.
    ChaoticHealth {
        /// Events executed (steps + deliveries + probes + audits).
        events: u64,
        /// Local passes executed.
        steps: u64,
        /// Envelopes delivered.
        deliveries: u64,
        /// `Deliver` events displaced by a lost frame or redirect.
        displaced: u64,
        /// Deliveries that saturated the destination inbox
        /// (backpressure-forced steps).
        saturated: u64,
        /// Steps that consumed two or more waiting arrivals (the
        /// coalescing window doing its job).
        coalesce_hits: u64,
        /// Largest un-stepped arrival depth any peer reached.
        max_inbox_depth: u64,
    },
    /// One closed stage of a served query's causal chain
    /// (`query_issued` → `term_lookup` → `posting_ship` →
    /// `intersect` → `result_page`). Deliberately a separate kind
    /// from [`Event::SpanClosed`]: the chaotic profiler's span
    /// taxonomy is closed (unknown kinds are parse errors there), so
    /// query stages ride their own event.
    QuerySpan {
        /// Query sequence number within the serving run, starting
        /// at 1.
        query: u64,
        /// Stage name (`"query_issued"`, `"term_lookup"`,
        /// `"posting_ship"`, `"intersect"`, `"result_page"`).
        stage: String,
        /// Peer the stage executed at (the coordinating peer).
        peer: u32,
        /// Virtual start time, nanoseconds.
        start_ns: u64,
        /// Virtual end time, nanoseconds.
        end_ns: u64,
        /// Overlay hops charged by the stage.
        hops: u64,
        /// Bytes shipped by the stage (posting fragments, result
        /// page).
        bytes: u64,
        /// Stage ordinal of the cause within the same query (0 =
        /// the arrival event itself), forming the per-query causal
        /// chain.
        cause: u64,
    },
    /// End-of-run health summary of a serving workload: the query-side
    /// counterpart of [`Event::ChaoticHealth`].
    ServingHealth {
        /// Queries served.
        queries: u64,
        /// p50 end-to-end query latency, nanoseconds.
        p50_ns: u64,
        /// p99 end-to-end query latency, nanoseconds.
        p99_ns: u64,
        /// p999 end-to-end query latency, nanoseconds.
        p999_ns: u64,
        /// Total overlay hops across all queries.
        hops: u64,
        /// Total posting/result bytes shipped across all queries.
        bytes_shipped: u64,
        /// p99 rank staleness at query time vs. the converged fixed
        /// point, parts-per-million.
        stale_p99_ppm: u64,
        /// Number of SLO objectives that failed their error budget.
        slo_violations: u64,
    },
    /// The quiescence certificate emitted when a cluster run claims
    /// termination: every field must witness "truly done".
    QuiescenceCert {
        /// Final round index.
        round: u64,
        /// Entries still in transport queues (must be 0).
        in_flight_entries: u64,
        /// Payloads parked for store-and-resend (must be 0).
        parked: u64,
        /// Nodes still holding queued work (must be 0).
        nodes_with_work: u64,
        /// Safra token Σ sent − Σ received (must be 0).
        token: i64,
        /// Largest relative un-advertised residual across documents.
        max_residual: f64,
        /// The ε the run converged against.
        epsilon: f64,
    },
}

/// Builds the `match`es for both codec directions from one variant ×
/// field table.
macro_rules! event_codec {
    ($( $variant:ident => $tag:literal { $($field:ident),+ $(,)? } )+) => {
        impl Serialize for Event {
            fn to_value(&self) -> Value {
                match self {
                    $(Event::$variant { $($field),+ } => Value::Object(vec![
                        ("type".to_string(), Value::Str($tag.to_string())),
                        $( (stringify!($field).to_string(), $field.to_value()), )+
                    ]),)+
                }
            }
        }

        impl Deserialize for Event {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let tag = v
                    .get("type")
                    .and_then(Value::as_str)
                    .ok_or_else(|| Error::custom("event missing \"type\" discriminator"))?;
                match tag {
                    $($tag => Ok(Event::$variant {
                        $($field: Deserialize::from_value(v.get(stringify!($field)).ok_or_else(
                            || Error::custom(concat!(
                                $tag, " missing field \"", stringify!($field), "\""
                            )),
                        )?)
                        .map_err(|e| Error::custom(format!(
                            "{}.{}: {e}", $tag, stringify!($field)
                        )))?,)+
                    }),)+
                    other => Err(Error::custom(format!("unknown event type {other:?}"))),
                }
            }
        }

        impl Event {
            /// The wire discriminator of this event (`"type"` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $tag,)+
                }
            }

            /// Every known discriminator, in taxonomy order.
            pub const KINDS: &'static [&'static str] = &[$($tag),+];
        }
    };
}

event_codec! {
    PassCompleted => "pass_completed" {
        run, pass, applied, remote_messages, local_updates, senders,
        max_relative_change, hops, duration_ns,
    }
    ConvergenceCheck => "convergence_check" { run, pass, active_docs, residual }
    ShardPhase => "shard_phase" { run, pass, shard, apply_ns, merge_ns }
    RoundCompleted => "round_completed" { round, sent, delivered, redelivered, hops, pending }
    FrameSent => "frame_sent" { round, from, to, entries, bytes }
    PeerChurn => "peer_churn" { round, peer, online }
    DocInserted => "doc_inserted" { seq, doc }
    TerminationProbe => "termination_probe" {
        round, circuits, token_count, token_black, announced, invariant,
    }
    SchedulerPass => "scheduler_pass" {
        run, pass, queued, selected, deferred, deferred_mass, budget_hit,
    }
    RouteResolved => "route_resolved" { src, dst, hops, cached }
    MassLedger => "mass_ledger" {
        run, step, ranks, unadvertised, pending, in_flight, dangling, damping, expected,
    }
    BalanceLedger => "balance_ledger" {
        round, emitted, sent, received, in_flight_entries, skew_peer, skew,
    }
    SpanClosed => "span_closed" {
        span, kind, peer, peer2, start_ns, end_ns, queue_ns, bytes, frame, cause, consumed,
    }
    ChaoticHealth => "chaotic_health" {
        events, steps, deliveries, displaced, saturated, coalesce_hits, max_inbox_depth,
    }
    QuerySpan => "query_span" {
        query, stage, peer, start_ns, end_ns, hops, bytes, cause,
    }
    ServingHealth => "serving_health" {
        queries, p50_ns, p99_ns, p999_ns, hops, bytes_shipped, stale_p99_ppm, slo_violations,
    }
    QuiescenceCert => "quiescence_cert" {
        round, in_flight_entries, parked, nodes_with_work, token, max_residual, epsilon,
    }
}

impl Event {
    /// Whether this event injects rank mass or changes membership —
    /// the events after whose last occurrence the residual series
    /// must be monotone non-increasing.
    pub fn is_injection(&self) -> bool {
        matches!(self, Event::PeerChurn { .. } | Event::DocInserted { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::PassCompleted {
                run: "initial".into(),
                pass: 3,
                applied: 120,
                remote_messages: 40,
                local_updates: 80,
                senders: 33,
                max_relative_change: 0.0625,
                hops: 91,
                duration_ns: 12_345,
            },
            Event::ConvergenceCheck {
                run: "initial".into(),
                pass: 3,
                active_docs: 17,
                residual: 0.25,
            },
            Event::ShardPhase {
                run: "initial".into(),
                pass: 3,
                shard: 1,
                apply_ns: 900,
                merge_ns: 100,
            },
            Event::RoundCompleted {
                round: 9,
                sent: 12,
                delivered: 11,
                redelivered: 1,
                hops: 30,
                pending: 2,
            },
            Event::FrameSent {
                round: 9,
                from: 4,
                to: 7,
                entries: 5,
                bytes: 84,
            },
            Event::PeerChurn {
                round: 10,
                peer: 7,
                online: false,
            },
            Event::DocInserted {
                seq: 1,
                doc: 10_000,
            },
            Event::TerminationProbe {
                round: 12,
                circuits: 2,
                token_count: -3,
                token_black: false,
                announced: false,
                invariant: 3,
            },
            Event::SchedulerPass {
                run: "initial".into(),
                pass: 3,
                queued: 1_000,
                selected: 120,
                deferred: 880,
                deferred_mass: 0.375,
                budget_hit: 0.625,
            },
            Event::RouteResolved {
                src: 4,
                dst: 7,
                hops: 5,
                cached: false,
            },
            Event::MassLedger {
                run: "cluster".into(),
                step: 6,
                ranks: 412.5,
                unadvertised: 3.25,
                pending: 1.5,
                in_flight: 0.75,
                dangling: 0.0,
                damping: 0.85,
                expected: 500.0,
            },
            Event::BalanceLedger {
                round: 6,
                emitted: 900,
                sent: 640,
                received: 612,
                in_flight_entries: 28,
                skew_peer: 0,
                skew: 0,
            },
            Event::SpanClosed {
                span: 17,
                kind: SpanKind::LinkTransfer,
                peer: 4,
                peer2: 7,
                start_ns: 1_000,
                end_ns: 45_000,
                queue_ns: 4_000,
                bytes: 84,
                frame: 9,
                cause: 12,
                consumed: 0,
            },
            Event::ChaoticHealth {
                events: 10_000,
                steps: 1_200,
                deliveries: 8_700,
                displaced: 3,
                saturated: 41,
                coalesce_hits: 310,
                max_inbox_depth: 32,
            },
            Event::QuerySpan {
                query: 12,
                stage: "posting_ship".into(),
                peer: 4,
                start_ns: 1_000,
                end_ns: 38_000,
                hops: 5,
                bytes: 1_024,
                cause: 2,
            },
            Event::ServingHealth {
                queries: 500,
                p50_ns: 42_000_000,
                p99_ns: 180_000_000,
                p999_ns: 240_000_000,
                hops: 6_200,
                bytes_shipped: 2_400_000,
                stale_p99_ppm: 870,
                slo_violations: 0,
            },
            Event::QuiescenceCert {
                round: 41,
                in_flight_entries: 0,
                parked: 0,
                nodes_with_work: 0,
                token: 0,
                max_residual: 0.000_4,
                epsilon: 0.001,
            },
        ]
    }

    #[test]
    fn roundtrips_through_json() {
        for e in samples() {
            let line = serde_json::to_string(&e).unwrap();
            let v = serde_json::from_str(&line).unwrap();
            let back = Event::from_value(&v).unwrap();
            assert_eq!(back, e, "roundtrip of {line}");
        }
    }

    #[test]
    fn wire_form_is_tagged() {
        let e = &samples()[0];
        let line = serde_json::to_string(e).unwrap();
        assert!(line.starts_with("{\"type\":\"pass_completed\""), "{line}");
        assert_eq!(e.kind(), "pass_completed");
    }

    #[test]
    fn kinds_cover_every_variant() {
        for e in samples() {
            assert!(Event::KINDS.contains(&e.kind()));
        }
        assert_eq!(Event::KINDS.len(), samples().len());
    }

    #[test]
    fn rejects_malformed_values() {
        let missing_type = serde_json::from_str("{\"pass\": 1}").unwrap();
        assert!(Event::from_value(&missing_type).is_err());

        let unknown = serde_json::from_str("{\"type\": \"warp_drive\"}").unwrap();
        assert!(Event::from_value(&unknown).is_err());

        let missing_field =
            serde_json::from_str("{\"type\": \"doc_inserted\", \"seq\": 1}").unwrap();
        let err = Event::from_value(&missing_field).unwrap_err();
        assert!(err.to_string().contains("doc"), "{err}");

        let wrong_type =
            serde_json::from_str("{\"type\": \"doc_inserted\", \"seq\": 1, \"doc\": \"x\"}")
                .unwrap();
        assert!(Event::from_value(&wrong_type).is_err());
    }

    #[test]
    fn span_kinds_decode_typed_and_unknown_ones_are_errors() {
        let span = |kind: &str| {
            serde_json::to_string(&samples()[12])
                .unwrap()
                .replace("\"link_transfer\"", kind)
        };
        let known = serde_json::from_str(&span("\"inbox_wait\"")).unwrap();
        assert!(matches!(
            Event::from_value(&known),
            Ok(Event::SpanClosed {
                kind: SpanKind::InboxWait,
                ..
            })
        ));
        let unknown = serde_json::from_str(&span("\"rpc\"")).unwrap();
        let err = Event::from_value(&unknown).unwrap_err();
        assert!(err.to_string().contains("span_closed.kind"), "{err}");
        assert!(err.to_string().contains("unknown span kind"), "{err}");
    }

    #[test]
    fn injection_classification() {
        assert!(Event::DocInserted { seq: 1, doc: 2 }.is_injection());
        assert!(Event::PeerChurn {
            round: 1,
            peer: 2,
            online: true
        }
        .is_injection());
        assert!(!samples()[0].is_injection());
    }
}
