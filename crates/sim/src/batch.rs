//! Batched vs unbatched wire traffic — the per-peer aggregation
//! experiment.
//!
//! The paper charges one 24-byte message per remote rank update
//! (Sec. 4.6). Per-peer aggregation keeps that *logical* update stream
//! but coalesces each pass's updates per destination peer and packs
//! them into multi-update frames, so the wire carries one frame header
//! per destination instead of one routed message per update. This
//! module runs the same workload through both wire modes of the
//! message-level [`Cluster`](dpr_node::cluster::Cluster) and reports:
//!
//! * **updates** — logical remote emissions (the paper's message
//!   metric, identical in both modes);
//! * **entries** — coalesced flush-buffer entries that actually cross
//!   the wire (also identical: coalescing is part of the protocol);
//! * **payloads / frames** — transport sends (24-byte singles vs
//!   length-prefixed frames);
//! * **bytes on wire** — measured payload bytes vs the `24·k` baseline;
//! * **routed messages** — overlay point-to-point transmissions: every
//!   hop of every DHT route plus every direct cached send. Unbatched,
//!   each update routes on its *document* GUID; batched, each frame
//!   costs one route (or one cached IP send) to its *destination
//!   peer*.
//!
//! Both modes converge to bit-identical ranks (asserted here), so the
//! comparison isolates pure wire-path cost.

use crate::hops::HopAccounting;
use crate::spec::ScenarioSpec;
use crate::workload::Workload;
use dpr_graph::DocId;
use dpr_node::node::WireMode;
use dpr_p2p::guid::Guid;
use dpr_p2p::transport::{PayloadKind, RankUpdateWire, WireCodec};
use dpr_telemetry::Recorder;
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
    /// Wire payloads handed to the transport (singles + frames).
    pub payloads: u64,
    /// Measured payload bytes on the wire.
    pub bytes_on_wire: u64,
    /// Overlay point-to-point transmissions: Σ hops over every send
    /// (routing a message over h hops transmits it h times).
    pub routed_messages: u64,
}

/// One run of a [`Cluster`](dpr_node::cluster::Cluster) under an
/// explicit wire mode and routing policy: converged ranks plus measured
/// traffic.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Converged per-document ranks.
    pub ranks: Vec<f64>,
    /// Measured traffic.
    pub traffic: WireTraffic,
}

/// Runs `w` to quiescence on the message-level cluster `spec`
/// describes (scheduler, wire mode, codec; rounds driver), charging
/// overlay hops for every send: singles route on the document's GUID,
/// frames on the destination peer's GUID. With `cache_ips`, the first
/// send per destination routes and caches the address (paper Sec. 3.2)
/// and later sends go direct in one hop.
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
/// events, and the hop model feeds the route/cache metrics. The
/// measured run is unchanged by observation (same rounds, ranks, and
/// traffic).
pub fn run_wire_mode(
    w: &Workload,
    spec: &ScenarioSpec,
    cache_ips: bool,
    rec: Option<Arc<dyn Recorder>>,
) -> ClusterRun {
    let mut cluster = spec.cluster(w);
    let mut acc = if cache_ips {
        HopAccounting::cached(w.ring.clone())
    } else {
        HopAccounting::routed(w.ring.clone())
    };
    if let Some(rec) = &rec {
        cluster.set_recorder(rec.clone());
        acc.set_recorder(rec.clone());
    }
    // Singles name their document only by GUID on the wire; map them
    // back so the hop model can route on the document as a real DHT
    // lookup would.
    let doc_of_guid: FxHashMap<u128, DocId> = (0..w.graph.num_nodes())
        .map(|d| (Guid::for_document(DocId::from(d)).0, DocId::from(d)))
        .collect();
    let mut hook = |src, dst, payload: &bytes::Bytes| {
        if PayloadKind::of(payload) == PayloadKind::Single {
            let wire = RankUpdateWire::decode(payload.clone()).expect("well-formed single");
            let doc = doc_of_guid[&wire.guid];
            acc.charge(src, dst, doc)
        } else {
            acc.charge_peer(src, dst)
        }
    };

    let peers = w.peer_table();
    let mut rounds = 0usize;
    let mut routed = 0u64;
    while !cluster.is_quiescent() {
        let stats = match &rec {
            Some(r) => cluster.round_observed(&peers, Some(&mut hook), r.as_ref()),
            None => cluster.round_with_hops(&peers, Some(&mut hook)),
        };
        routed += stats.hops;
        rounds += 1;
        assert!(rounds < 100_000, "static cluster run must quiesce");
    }

    let (mut updates, mut entries, mut frames) = (0u64, 0u64, 0u64);
    for p in 0..w.num_peers as u32 {
        let s = cluster.node(dpr_p2p::peer::PeerId(p)).stats();
        updates += s.emitted_remote;
        entries += s.sent_remote;
        frames += s.frames_sent;
    }
    let t = cluster.traffic();
    ClusterRun {
        ranks: cluster.collect_ranks(w.graph.num_nodes()),
        traffic: WireTraffic {
            rounds,
            updates,
            entries,
            frames,
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
    /// Unbatched run: singles, routed per update on the document GUID.
    pub unbatched: WireTraffic,
    /// Batched run: frames, one route (then cached IP) per frame.
    pub batched: WireTraffic,
    /// The paper's byte baseline for the same wire-crossing updates:
    /// `24 · entries`.
    pub baseline_bytes: u64,
    /// `unbatched.routed_messages / batched.routed_messages`.
    pub routed_reduction: f64,
    /// `baseline_bytes / batched.bytes_on_wire`.
    pub byte_reduction: f64,
    /// Whether both modes converged to bit-identical ranks (always
    /// true; also asserted).
    pub ranks_identical: bool,
}

/// Runs both wire modes on `w` and reports the saving, returning the
/// batched run alongside (for callers that score its ranks). The
/// unbatched baseline is the paper's default DHT path — every update
/// routed on its document GUID, no address cache, never traced; the
/// batched run is the full aggregation feature as `spec` describes it
/// — coalesced frames at `spec.wire`'s cap, one route per frame,
/// cached destination IPs (the Sec. 3.2 cache, now per peer instead of
/// per document), traced through `rec` so the trace's frame/round
/// series describes one coherent run. The Sec. 3.2 cache alone
/// (unbatched + cached) is covered by the ablation grid, not here.
///
/// # Panics
///
/// Panics if `spec.wire` is not a framed mode, or if the two modes
/// disagree on any converged rank bit — the aggregation layer's
/// determinism contract.
pub fn batching_experiment(
    w: &Workload,
    spec: &ScenarioSpec,
    rec: Option<Arc<dyn Recorder>>,
) -> (BatchReport, ClusterRun) {
    let WireMode::Frames { max_frame_bytes } = spec.wire else {
        panic!("the batched side of the comparison needs a framed wire mode");
    };
    let singles = ScenarioSpec {
        wire: WireMode::Single,
        ..*spec
    };
    let unbatched = run_wire_mode(w, &singles, false, None);
    let batched = run_wire_mode(w, spec, true, rec);
    let report = compare_runs(w, spec.epsilon, max_frame_bytes, &unbatched, &batched);
    (report, batched)
}

/// Builds the [`BatchReport`] from two already-measured runs (lets a
/// caller that needs the ranks — e.g. for quality scoring — run the
/// modes itself without paying for them twice).
///
/// # Panics
///
/// Same determinism contract as [`batching_experiment`].
pub fn compare_runs(
    w: &Workload,
    epsilon: f64,
    max_frame_bytes: usize,
    unbatched: &ClusterRun,
    batched: &ClusterRun,
) -> BatchReport {
    assert_eq!(
        unbatched.ranks, batched.ranks,
        "wire modes must converge to bit-identical ranks"
    );
    let baseline_bytes =
        dpr_p2p::transport::RANK_UPDATE_WIRE_BYTES as u64 * batched.traffic.entries;
    BatchReport {
        graph_size: w.graph.num_nodes(),
        num_peers: w.num_peers,
        epsilon,
        max_frame_bytes,
        unbatched: unbatched.traffic,
        batched: batched.traffic,
        baseline_bytes,
        routed_reduction: unbatched.traffic.routed_messages as f64
            / batched.traffic.routed_messages.max(1) as f64,
        byte_reduction: baseline_bytes as f64 / batched.traffic.bytes_on_wire.max(1) as f64,
        ranks_identical: true,
    }
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
        assert!(r.ranks_identical);
        // Same logical protocol in both modes.
        assert_eq!(r.unbatched.updates, r.batched.updates);
        assert_eq!(r.unbatched.entries, r.batched.entries);
        assert_eq!(r.unbatched.frames, 0);
        assert!(r.batched.frames > 0);
        // Frames pack at least one entry, so payloads can only shrink;
        // 30 peers with 50 docs each coalesce well below 1:1.
        assert!(r.batched.payloads < r.unbatched.payloads);
        // 4 + 16k < 24k for every frame.
        assert!(r.batched.bytes_on_wire < r.baseline_bytes);
        assert_eq!(r.unbatched.bytes_on_wire, r.baseline_bytes);
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
        let pass_spec = ScenarioSpec {
            wire: WireMode::Single,
            ..ScenarioSpec::new(1_500, 8, 1e-3, 11)
        };
        let pri_spec = ScenarioSpec {
            sched: SchedMode::Priority,
            ..pass_spec
        };
        let w = pass_spec.workload();
        let pass = run_wire_mode(&w, &pass_spec, false, None);
        let pri_single = run_wire_mode(&w, &pri_spec, false, None);
        let framed = ScenarioSpec {
            wire: WireMode::frames(),
            ..pri_spec
        };
        let pri_frames = run_wire_mode(&w, &framed, true, None);
        // The wire path cannot perturb the priority schedule: singles
        // and frames converge bit-identically.
        assert_eq!(pri_single.ranks, pri_frames.ranks);
        // Residual-driven selection clears the same ε with fewer
        // logical remote updates …
        assert!(
            pri_single.traffic.updates < pass.traffic.updates,
            "priority {} vs pass {}",
            pri_single.traffic.updates,
            pass.traffic.updates
        );
        // … and lands on the same fixed point to O(ε) per document.
        let l1: f64 = pass
            .ranks
            .iter()
            .zip(&pri_single.ranks)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let per_doc = l1 / w.graph.num_nodes() as f64;
        assert!(per_doc < 1e-3, "l1 per doc {per_doc}");
    }

    #[test]
    fn frame_cap_changes_payloads_not_ranks() {
        let spec = ScenarioSpec::new(800, 10, 1e-3, 12);
        let w = spec.workload();
        let (loose, _) = batching_experiment(&w, &spec, None);
        // 2 entries/frame. batching_experiment already asserts batched
        // == unbatched ranks inside each call, and the unbatched run is
        // shared protocol — so ranks agree across caps transitively.
        let two_entries = ScenarioSpec {
            wire: WireMode::Frames {
                max_frame_bytes: 36,
            },
            ..spec
        };
        let (tight, _) = batching_experiment(&w, &two_entries, None);
        assert_eq!(loose.batched.entries, tight.batched.entries);
        assert!(tight.batched.frames > loose.batched.frames);
        assert!(tight.batched.bytes_on_wire > loose.batched.bytes_on_wire);
        assert!(tight.batched.bytes_on_wire < tight.baseline_bytes);
    }
}
