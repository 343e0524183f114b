//! Batched vs unbatched wire traffic — the per-peer aggregation
//! experiment.
//!
//! The paper charges one 24-byte message per remote rank update, routed
//! on the document's GUID (Sec. 4.6, 3.2). Per-peer aggregation keeps
//! that *logical* update stream but coalesces each pass's updates per
//! destination peer into multi-update frames, each routed once (then
//! sent to a cached address) to the destination *peer*. This module
//! runs the message-level [`Cluster`](dpr_node::cluster::Cluster) once,
//! framed, and charges the paper's unbatched wire as a shadow of the
//! same run: every frame entry as its own message.
//!
//! The shadow is exact without a second run. Every frame cap — the
//! one-entry cap, which is the unbatched wire, included — runs the same
//! schedule to bit-identical ranks, so the unbatched wire would send
//! exactly this run's entries. Routing every message, a route's cost
//! depends only on its (sender, document); caching after the first, the
//! total is Σ first-route cost + (sends − distinct pairs), whatever the
//! send order, as a static run evicts nothing.

use crate::hops::HopAccounting;
use crate::spec::ScenarioSpec;
use crate::workload::Workload;
use bytes::Bytes;
use dpr_graph::DocId;
use dpr_node::node::WireMode;
use dpr_p2p::guid::Guid;
use dpr_p2p::peer::PeerId;
use dpr_p2p::transport::{
    CompactFrameWire, PayloadKind, UpdateFrameWire, WireCodec, RANK_UPDATE_WIRE_BYTES,
};
use dpr_telemetry::{Recorder, NOOP};
use fxhash::FxHashMap;
use serde::Serialize;
use std::sync::Arc;

/// Measured traffic of one cluster convergence run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WireTraffic {
    /// Cluster rounds to quiescence.
    pub rounds: usize,
    /// Logical remote rank updates (pre-coalescing emissions).
    pub updates: u64,
    /// Coalesced update entries that crossed the wire.
    pub entries: u64,
    /// Multi-update frames sent (zero when unbatched).
    pub frames: u64,
    /// Wire payloads handed to the transport.
    pub payloads: u64,
    /// Payload bytes on the wire.
    pub bytes_on_wire: u64,
    /// Overlay point-to-point transmissions: Σ hops over every send
    /// (routing a message over h hops transmits it h times).
    pub routed_messages: u64,
}

/// One run of a [`Cluster`](dpr_node::cluster::Cluster) under an
/// explicit frame cap and routing policy: converged ranks plus measured
/// traffic.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Converged per-document ranks.
    pub ranks: Vec<f64>,
    /// Measured traffic.
    pub traffic: WireTraffic,
}

fn accounting(w: &Workload, cache_ips: bool) -> HopAccounting {
    if cache_ips {
        HopAccounting::cached(w.ring.clone())
    } else {
        HopAccounting::routed(w.ring.clone())
    }
}

/// Runs `w` to quiescence on the message-level cluster `spec`
/// describes (scheduler, frame cap, codec; rounds driver), charging
/// overlay hops for every frame, routed on the destination peer's GUID.
/// With `cache_ips`, the first send per destination routes and caches
/// the address (paper Sec. 3.2) and later sends go direct in one hop.
///
/// The codec only changes how frames are *encoded*
/// ([`WireCodec::Compact`] sends varint-delta doc ids and `f32`
/// values), so rounds and update counts are unchanged — only
/// `bytes_on_wire` and (within the pinned parity bound) the low rank
/// bits move. Under a selective scheduler each step processes only the
/// top residual-mass buckets and defers the rest; quiescence still
/// means "no residual anywhere above ε".
///
/// With `rec`, the cluster's transport mirrors its byte counters into
/// the recorder, every round emits `frame_sent` / `round_completed`
/// events, the run closes with a `quiescence_cert`, and the hop model
/// feeds the route/cache metrics. The measured run is unchanged by
/// observation (same rounds, ranks, and traffic).
pub fn run_wire_mode(
    w: &Workload,
    spec: &ScenarioSpec,
    cache_ips: bool,
    rec: Option<Arc<dyn Recorder>>,
) -> ClusterRun {
    drive(w, spec, cache_ips, rec, |_, _, _| {})
}

/// [`run_wire_mode`] plus the paper's unbatched wire as a shadow of the
/// same run (see the module docs): every frame entry charged as its own
/// message on its document's GUID through a second, unobserved hop
/// accounting, which caches after the first route iff
/// `unbatched_cache_ips`. Returns the framed run and the unbatched
/// traffic: the run's rounds, updates and entries, one 24-byte payload
/// per entry, and the shadow's routed messages.
pub fn run_with_unbatched(
    w: &Workload,
    spec: &ScenarioSpec,
    cache_ips: bool,
    unbatched_cache_ips: bool,
    rec: Option<Arc<dyn Recorder>>,
) -> (ClusterRun, WireTraffic) {
    let mut acc = accounting(w, unbatched_cache_ips);
    // Raw frame entries name their document by frame tag.
    let docs = (0..w.graph.num_nodes()).map(DocId::from);
    let doc_of_tag: FxHashMap<u64, DocId> = docs
        .map(|d| (Guid::for_document(d).frame_tag(), d))
        .collect();
    let mut routed = 0u64;
    let run = drive(w, spec, cache_ips, rec, |src, dst, payload| {
        let mut charge = |doc| routed += u64::from(acc.charge(src, dst, doc));
        match PayloadKind::of(payload) {
            PayloadKind::Compact => CompactFrameWire::visit(payload, |e| charge(DocId(e.doc))),
            PayloadKind::Raw => UpdateFrameWire::visit(payload, |e| charge(doc_of_tag[&e.tag])),
        }
        .expect("cluster peers send well-formed frames");
    });
    let t = run.traffic;
    let unbatched = WireTraffic {
        frames: 0,
        payloads: t.entries,
        bytes_on_wire: RANK_UPDATE_WIRE_BYTES as u64 * t.entries,
        routed_messages: routed,
        ..t
    };
    (run, unbatched)
}

/// One [`Cluster::run_observed`](dpr_node::cluster::Cluster::run_observed)
/// call, its hop hook charging every frame after `also` has seen it.
fn drive(
    w: &Workload,
    spec: &ScenarioSpec,
    cache_ips: bool,
    rec: Option<Arc<dyn Recorder>>,
    mut also: impl FnMut(PeerId, PeerId, &[u8]),
) -> ClusterRun {
    let mut cluster = spec.cluster(w);
    let mut acc = accounting(w, cache_ips);
    if let Some(rec) = &rec {
        cluster.set_recorder(rec.clone());
        acc.set_recorder(rec.clone());
    }
    let mut routed = 0u64;
    let mut hook = |src, dst, payload: &Bytes| {
        also(src, dst, payload);
        let hops = acc.charge_peer(src, dst);
        routed += u64::from(hops);
        hops
    };

    let mut peers = w.peer_table();
    let (rounds, quiet) = match rec.as_deref() {
        Some(r) => cluster.run_observed(&mut peers, 100_000, None, Some(&mut hook), r),
        None => cluster.run_observed(&mut peers, 100_000, None, Some(&mut hook), &NOOP),
    };
    assert!(quiet, "static cluster run must quiesce");

    let (s, t) = (cluster.node_stats(), cluster.traffic());
    ClusterRun {
        ranks: cluster.collect_ranks(w.graph.num_nodes()),
        traffic: WireTraffic {
            rounds,
            updates: s.emitted_remote,
            entries: s.sent_remote,
            frames: s.frames_sent,
            payloads: t.sent,
            bytes_on_wire: t.bytes_sent,
            routed_messages: routed,
        },
    }
}

/// [`run_wire_mode`] under positional arguments, untraced. Kept, with
/// this exact signature, only because the frozen `perf/` benchmark
/// calls it; the next benchmark PR should move `perf/` to
/// [`run_wire_mode`] and delete this.
pub fn run_wire_mode_codec(
    w: &Workload,
    epsilon: f64,
    wire: WireMode,
    codec: WireCodec,
    cache_ips: bool,
) -> ClusterRun {
    // The rounds driver never draws from the seed.
    let shape = ScenarioSpec::new(w.graph.num_nodes(), w.num_peers, epsilon, 0);
    run_wire_mode(
        w,
        &ScenarioSpec {
            wire,
            codec,
            ..shape
        },
        cache_ips,
        None,
    )
}

/// The full batched-vs-unbatched comparison on one workload.
#[derive(Debug, Clone, Serialize)]
pub struct BatchReport {
    /// Documents in the graph.
    pub graph_size: usize,
    /// Peers in the system.
    pub num_peers: usize,
    /// Error threshold ε.
    pub epsilon: f64,
    /// Frame size cap (bytes) of the batched run.
    pub max_frame_bytes: usize,
    /// Unbatched: one 24-byte message per entry, routed per message on
    /// the document GUID (the shadow of the batched run).
    pub unbatched: WireTraffic,
    /// Batched run: frames, one route (then cached IP) per frame.
    pub batched: WireTraffic,
    /// `unbatched.routed_messages / batched.routed_messages`.
    pub routed_reduction: f64,
    /// `unbatched.bytes_on_wire / batched.bytes_on_wire`.
    pub byte_reduction: f64,
}

/// Runs `w` once and reports the saving, returning the batched run
/// alongside (for callers that score its ranks). The unbatched baseline
/// is the paper's default DHT path — every update routed on its
/// document GUID, no address cache — charged as a shadow of the batched
/// run, untraced; the batched run is the full aggregation feature as
/// `spec` describes it — coalesced frames at `spec.wire`'s cap, one
/// route per frame, cached destination IPs (the Sec. 3.2 cache, now per
/// peer instead of per document), traced through `rec` so the trace's
/// frame/round series describes one coherent run. The Sec. 3.2 cache
/// alone (unbatched + cached) is covered by the ablation grid, not
/// here.
pub fn batching_experiment(
    w: &Workload,
    spec: &ScenarioSpec,
    rec: Option<Arc<dyn Recorder>>,
) -> (BatchReport, ClusterRun) {
    let (batched, unbatched) = run_with_unbatched(w, spec, true, false, rec);
    let report = BatchReport {
        graph_size: w.graph.num_nodes(),
        num_peers: w.num_peers,
        epsilon: spec.epsilon,
        max_frame_bytes: spec.wire.max_frame_bytes,
        unbatched,
        batched: batched.traffic,
        routed_reduction: unbatched.routed_messages as f64
            / batched.traffic.routed_messages.max(1) as f64,
        byte_reduction: unbatched.bytes_on_wire as f64
            / batched.traffic.bytes_on_wire.max(1) as f64,
    };
    (report, batched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::SchedMode;

    #[test]
    fn batching_cuts_routed_messages_and_bytes() {
        // 8 peers -> ~190 docs per peer, comfortably above the
        // priority bypass threshold so residual selection engages.
        let spec = ScenarioSpec::new(1_500, 8, 1e-3, 11);
        let w = spec.workload();
        let (r, _) = batching_experiment(&w, &spec, None);
        // Same logical protocol on both sides.
        assert_eq!(r.unbatched.updates, r.batched.updates);
        assert_eq!(r.unbatched.entries, r.batched.entries);
        assert_eq!(r.unbatched.frames, 0);
        assert!(r.batched.frames > 0);
        // Frames pack at least one entry, so payloads can only shrink;
        // 8 peers with ~190 docs each coalesce well below 1:1.
        assert!(r.batched.payloads < r.unbatched.payloads);
        // 4 + 16k < 24k for every frame.
        assert!(r.batched.bytes_on_wire < r.unbatched.bytes_on_wire);
        // Routing per frame + cached IPs beats routing per update by
        // at least the mean DHT route length.
        assert!(
            r.routed_reduction >= 5.0,
            "routed reduction {}",
            r.routed_reduction
        );
        assert!(r.byte_reduction > 1.0);
    }

    #[test]
    fn priority_sched_cuts_updates_and_keeps_wire_modes_identical() {
        // 8 peers -> ~190 docs per peer, comfortably above the
        // priority bypass threshold so residual selection engages.
        let pass_spec = ScenarioSpec::new(1_500, 8, 1e-3, 11);
        let pri_spec = ScenarioSpec {
            sched: SchedMode::Priority,
            ..pass_spec
        };
        let one_entry = ScenarioSpec {
            wire: WireMode { max_frame_bytes: 0 },
            ..pri_spec
        };
        let w = pass_spec.workload();
        let pass = run_wire_mode(&w, &pass_spec, true, None);
        let pri = run_wire_mode(&w, &pri_spec, true, None);
        let pri_one_entry = run_wire_mode(&w, &one_entry, false, None);
        // The frame cap cannot perturb the priority schedule: one entry
        // per payload and full frames converge bit-identically.
        assert_eq!(pri_one_entry.ranks, pri.ranks);
        // Residual-driven selection clears the same ε with fewer
        // logical remote updates …
        assert!(
            pri.traffic.updates < pass.traffic.updates,
            "priority {} vs pass {}",
            pri.traffic.updates,
            pass.traffic.updates
        );
        // … and lands on the same fixed point to O(ε) per document.
        let l1: f64 = pass
            .ranks
            .iter()
            .zip(&pri.ranks)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let per_doc = l1 / w.graph.num_nodes() as f64;
        assert!(per_doc < 1e-3, "l1 per doc {per_doc}");
    }

    #[test]
    fn frame_cap_changes_payloads_not_ranks() {
        let spec = ScenarioSpec::new(800, 10, 1e-3, 12);
        let w = spec.workload();
        let (loose, loose_run) = batching_experiment(&w, &spec, None);
        // 2 entries/frame.
        let two_entries = ScenarioSpec {
            wire: WireMode {
                max_frame_bytes: 36,
            },
            ..spec
        };
        let (tight, tight_run) = batching_experiment(&w, &two_entries, None);
        assert_eq!(loose_run.ranks, tight_run.ranks);
        assert_eq!(loose.batched.entries, tight.batched.entries);
        assert!(tight.batched.frames > loose.batched.frames);
        assert!(tight.batched.bytes_on_wire > loose.batched.bytes_on_wire);
        assert!(tight.batched.bytes_on_wire < tight.unbatched.bytes_on_wire);
        // The shadow sees the entries, not their framing, under either
        // routing policy.
        for cache_ips in [false, true] {
            let [a, b] =
                [spec, two_entries].map(|s| run_with_unbatched(&w, &s, true, cache_ips, None).1);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
