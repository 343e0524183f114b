//! The closed registry of scalar metrics.
//!
//! A [`Metric`] is either a monotone counter or a log2-bucketed
//! histogram; the enum is the registry, so recorders can allocate
//! dense arrays indexed by discriminant and the Prometheus writer can
//! enumerate every series without dynamic registration.

/// Whether a metric is a counter or a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone sum, exposed as `<name>_total`.
    Counter,
    /// Log2-bucketed distribution, exposed as a Prometheus histogram.
    Histogram,
}

macro_rules! metrics {
    ($( $variant:ident = $idx:literal => $kind:ident, $name:literal, $help:literal; )+) => {
        /// One scalar telemetry series.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Metric {
            $(
                #[doc = $help]
                $variant = $idx,
            )+
        }

        impl Metric {
            /// Every metric, in registry order.
            pub const ALL: &'static [Metric] = &[$(Metric::$variant),+];

            /// Counter vs histogram.
            pub fn kind(self) -> MetricKind {
                match self {
                    $(Metric::$variant => MetricKind::$kind,)+
                }
            }

            /// Prometheus-style base name (without the `_total` /
            /// `_bucket` suffixes the exposition format adds).
            pub fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name,)+
                }
            }

            /// One-line help text for the exposition format.
            pub fn help(self) -> &'static str {
                match self {
                    $(Metric::$variant => $help,)+
                }
            }

            /// Dense index of this metric (its position in
            /// [`Metric::ALL`]).
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

metrics! {
    RemoteUpdates = 0 => Counter, "dpr_remote_updates",
        "Logical remote rank updates emitted";
    LocalUpdates = 1 => Counter, "dpr_local_updates",
        "Same-peer rank updates applied directly";
    FramesSent = 2 => Counter, "dpr_frames_sent",
        "Multi-update frames handed to the transport";
    PayloadsSent = 3 => Counter, "dpr_payloads_sent",
        "Wire payloads handed to the transport";
    BytesOnWire = 4 => Counter, "dpr_bytes_on_wire",
        "Payload bytes handed to the transport";
    ParkedMessages = 5 => Counter, "dpr_parked_messages",
        "Payloads parked at the sender for an offline destination";
    RoutedHops = 6 => Counter, "dpr_routed_hops",
        "Overlay hops charged by the hop model";
    RouteCacheHits = 7 => Counter, "dpr_route_cache_hits",
        "Sends short-circuited by a cached destination address";
    RouteCacheMisses = 8 => Counter, "dpr_route_cache_misses",
        "Sends that paid a full overlay route";
    EventsRecorded = 9 => Counter, "dpr_events_recorded",
        "Structured events accepted by the recorder";
    FlushOccupancy = 10 => Histogram, "dpr_flush_occupancy",
        "Coalesced entries per flush buffer at flush time";
    FrameBytes = 11 => Histogram, "dpr_frame_bytes",
        "Payload bytes per wire send";
    RouteHops = 12 => Histogram, "dpr_route_hops",
        "Overlay hops per resolved route";
    PendingDepth = 13 => Histogram, "dpr_pending_depth",
        "Store-and-resend queue depth after each cluster round";
    PassDurationNs = 14 => Histogram, "dpr_pass_duration_ns",
        "Wall-clock nanoseconds per engine pass";
    // Nothing emits the four executor metrics (15, 16, 20, 21) or
    // `Event::ShardPhase`: the sharded executor they timed is deleted.
    // They stay registered because checked-in traces and Prometheus
    // names are a published format — an old trace or scrape must still
    // parse, and a new metric must not reuse their ids or names.
    ShardApplyNs = 15 => Histogram, "dpr_shard_apply_ns",
        "Nanoseconds per shard in the apply phase";
    ShardMergeNs = 16 => Histogram, "dpr_shard_merge_ns",
        "Nanoseconds per shard in the pull phase";
    SchedQueueDepth = 17 => Histogram, "dpr_sched_queue_depth",
        "Documents queued at priority-selection time, per pass";
    SchedDeferredDocs = 18 => Histogram, "dpr_sched_deferred_docs",
        "Documents deferred by the priority scheduler, per pass";
    SchedBudgetPermille = 19 => Histogram, "dpr_sched_budget_permille",
        "Selected residual-mass fraction per pass, in permille";
    ExecDelegatedPasses = 20 => Counter, "dpr_exec_delegated_passes",
        "Sharded-executor passes delegated to the sequential engine by the density guard";
    ExecShardedPasses = 21 => Counter, "dpr_exec_sharded_passes",
        "Sharded-executor passes run through the parallel apply + pull path";
    ChaoticEvents = 22 => Counter, "dpr_chaotic_events",
        "Events executed by the chaotic discrete-event runtime";
    InboxSaturations = 23 => Counter, "dpr_inbox_saturations",
        "Chaotic deliveries that saturated the destination inbox (backpressure-forced steps)";
    CoalesceHits = 24 => Counter, "dpr_coalesce_hits",
        "Chaotic steps that folded two or more waiting arrivals into one pass";
    InboxDepth = 25 => Histogram, "dpr_inbox_depth",
        "Un-stepped arrival depth consumed per chaotic step";
    QueriesServed = 26 => Counter, "dpr_queries_served",
        "Search queries executed by the serving workload";
    QueryLatencyNs = 27 => Histogram, "dpr_query_latency_ns",
        "End-to-end virtual query latency in nanoseconds";
    QueryHops = 28 => Histogram, "dpr_query_hops",
        "Overlay hops charged per served query";
    QueryBytes = 29 => Histogram, "dpr_query_bytes",
        "Posting and result bytes shipped per served query";
    RankStalenessPpm = 30 => Histogram, "dpr_rank_staleness_ppm",
        "Rank staleness at query time vs. the converged fixed point, parts-per-million";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_dense_and_consistent() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "{m:?} out of registry order");
            assert!(m.name().starts_with("dpr_"));
            assert!(!m.help().is_empty());
        }
    }

    #[test]
    fn names_are_unique() {
        for a in Metric::ALL {
            for b in Metric::ALL {
                if a.index() != b.index() {
                    assert_ne!(a.name(), b.name());
                }
            }
        }
    }

    #[test]
    fn kinds_split_the_registry() {
        let counters = Metric::ALL
            .iter()
            .filter(|m| m.kind() == MetricKind::Counter)
            .count();
        let histograms = Metric::ALL
            .iter()
            .filter(|m| m.kind() == MetricKind::Histogram)
            .count();
        assert_eq!(counters + histograms, Metric::ALL.len());
        assert!(counters > 0 && histograms > 0);
    }
}
