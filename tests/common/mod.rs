//! A recorder the differential tests share: one that keeps the ledgers
//! and declines per-event detail.

use dpr_telemetry::{Event, Metric, Recorder};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Event kinds and metrics only per-event producers emit: spans, one
/// event per frame or route, and per-step and per-send metrics.
const DETAIL: [&str; 16] = [
    "span_closed",
    "frame_sent",
    "route_resolved",
    "dpr_remote_updates",
    "dpr_local_updates",
    "dpr_frames_sent",
    "dpr_payloads_sent",
    "dpr_bytes_on_wire",
    "dpr_parked_messages",
    "dpr_routed_hops",
    "dpr_route_cache_hits",
    "dpr_route_cache_misses",
    "dpr_flush_occupancy",
    "dpr_frame_bytes",
    "dpr_route_hops",
    "dpr_inbox_depth",
];

/// The scheduler series: per step on a cluster's peers (detail), per
/// pass on the engine (not).
const PEER_SCHED: [&str; 3] = [
    "dpr_sched_queue_depth",
    "dpr_sched_deferred_docs",
    "dpr_sched_budget_permille",
];

/// Enabled but not detailed; tallies every event kind and metric name
/// that reaches it.
#[derive(Default)]
pub struct LedgerOnly {
    seen: Mutex<BTreeMap<&'static str, u64>>,
}

impl LedgerOnly {
    fn tally(&self, name: &'static str) {
        *self.seen.lock().unwrap().entry(name).or_default() += 1;
    }

    /// Everything that reached it, by event kind or metric name.
    pub fn seen(&self) -> BTreeMap<&'static str, u64> {
        self.seen.lock().unwrap().clone()
    }

    /// What reached it that only a detailed recorder may get, the
    /// scheduler series counted as detail on a `cluster`.
    pub fn detail_seen(&self, cluster: bool) -> BTreeMap<&'static str, u64> {
        let mut seen = self.seen();
        seen.retain(|k, _| DETAIL.contains(k) || (cluster && PEER_SCHED.contains(k)));
        seen
    }
}

impl Recorder for LedgerOnly {
    fn enabled(&self) -> bool {
        true
    }

    fn detailed(&self) -> bool {
        false
    }

    fn event(&self, event: &Event) {
        self.tally(event.kind());
    }

    fn counter_add(&self, metric: Metric, _delta: u64) {
        self.tally(metric.name());
    }

    fn observe(&self, metric: Metric, _value: u64) {
        self.tally(metric.name());
    }
}
