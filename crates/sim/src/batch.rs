//! Batched vs unbatched wire traffic — the per-peer aggregation
//! experiment.
//!
//! The paper charges one 24-byte message per remote rank update, routed
//! on the document's GUID (Sec. 4.6, 3.2). Per-peer aggregation keeps
//! that *logical* update stream but coalesces each pass's updates per
//! destination peer into multi-update frames, each routed once (then
//! sent to a cached address) to the destination *peer*. A rounds run of
//! the message-level [`Cluster`] under
//! [`Observe::hops`](crate::spec::Observe::hops) charges its frames that
//! way; [`Observe::unbatched`](crate::spec::Observe::unbatched) charges
//! the paper's unbatched wire as a shadow of the same run: every frame
//! entry as its own message.
//!
//! The shadow is exact without a second run. Every frame cap — the
//! one-entry cap, which is the unbatched wire, included — runs the same
//! schedule to bit-identical ranks, so the unbatched wire would send
//! exactly this run's entries. Routing every message, a route's cost
//! depends only on its (sender, document); caching after the first, the
//! total is Σ first-route cost + (sends − distinct pairs), whatever the
//! send order, as a static run evicts nothing.

use crate::hops::HopAccounting;
use crate::spec::{Layer, Observe, Outcome, ScenarioSpec};
use crate::workload::Workload;
use dpr_graph::DocId;
use dpr_node::cluster::Cluster;
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

impl WireTraffic {
    /// What `cluster` has sent in `rounds`, `routed` transmissions
    /// charged.
    pub(crate) fn of(cluster: &Cluster, rounds: u64, routed: u64) -> Self {
        let (s, t) = (cluster.node_stats(), cluster.traffic());
        WireTraffic {
            rounds: rounds as usize,
            updates: s.emitted_remote,
            entries: s.sent_remote,
            frames: s.frames_sent,
            payloads: t.sent,
            bytes_on_wire: t.bytes_sent,
            routed_messages: routed,
        }
    }

    /// The unbatched wire of the same entries: one 24-byte payload per
    /// entry, `routed` transmissions charged.
    pub(crate) fn unbatched(self, routed: u64) -> Self {
        WireTraffic {
            frames: 0,
            payloads: self.entries,
            bytes_on_wire: RANK_UPDATE_WIRE_BYTES as u64 * self.entries,
            routed_messages: routed,
            ..self
        }
    }
}

/// One run of a [`Cluster`] under an explicit frame cap and routing
/// policy: converged ranks plus measured traffic.
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

/// The overlay hops one rounds run is charged, and its unbatched
/// shadow's through a second, unobserved accounting.
pub(crate) struct Charges {
    hops: HopAccounting,
    /// Transmissions charged so far.
    pub(crate) routed: u64,
    /// The shadow's accounting, the document each raw frame entry names
    /// by its tag, and the shadow's transmissions so far.
    pub(crate) shadow: Option<(HopAccounting, FxHashMap<u64, DocId>, u64)>,
}

impl Charges {
    /// Hops over `w`'s ring, caching iff `cache_ips`, observed by
    /// `rec` (a [`Recorder::detailed`] one: routes are per send); with
    /// `unbatched`, the shadow's too.
    pub(crate) fn new(
        w: &Workload,
        cache_ips: bool,
        unbatched: Option<bool>,
        rec: Option<&Arc<dyn Recorder>>,
    ) -> Self {
        let mut hops = accounting(w, cache_ips);
        if let Some(rec) = rec {
            hops.set_recorder(rec.clone());
        }
        let docs = (0..w.graph.num_nodes()).map(DocId::from);
        let tags = docs.map(|d| (Guid::for_document(d).frame_tag(), d));
        Charges {
            hops,
            routed: 0,
            shadow: unbatched.map(|cache_ips| (accounting(w, cache_ips), tags.collect(), 0)),
        }
    }

    /// Charges one frame from `src` to `dst` — its entries to the
    /// shadow first — and returns its hops.
    pub(crate) fn charge(&mut self, src: PeerId, dst: PeerId, payload: &[u8]) -> u32 {
        if let Some((acc, doc_of_tag, routed)) = &mut self.shadow {
            let mut charge = |doc| *routed += u64::from(acc.charge(src, dst, doc));
            match PayloadKind::of(payload) {
                PayloadKind::Compact => CompactFrameWire::visit(payload, |e| charge(DocId(e.doc))),
                PayloadKind::Raw => UpdateFrameWire::visit(payload, |e| charge(doc_of_tag[&e.tag])),
            }
            .expect("cluster peers send well-formed frames");
        }
        let hops = self.hops.charge_peer(src, dst);
        self.routed += u64::from(hops);
        hops
    }
}

/// An untraced rounds run of the cluster over `w` with hops charged.
/// Kept, with this exact signature, only because the frozen `perf/`
/// benchmark calls it; the next benchmark PR should move `perf/` to
/// [`ScenarioSpec::run`] and delete this.
pub fn run_wire_mode_codec(
    w: &Workload,
    epsilon: f64,
    wire: WireMode,
    codec: WireCodec,
    cache_ips: bool,
) -> ClusterRun {
    // The rounds driver never draws from the seed.
    let shape = ScenarioSpec::new(w.graph.num_nodes(), w.num_peers, epsilon, 0);
    let spec = ScenarioSpec {
        wire,
        codec,
        ..shape
    };
    let mut obs = Observe::new(&NOOP);
    obs.hops = Some(cache_ips);
    let out = spec.run(w, Layer::Cluster, obs);
    assert!(out.quiesced, "static cluster run must quiesce");
    let traffic = out.traffic.expect("a cluster run has traffic");
    ClusterRun {
        ranks: out.ranks,
        traffic,
    }
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

impl BatchReport {
    /// The saving of `out`, a rounds run of `spec` charged with its
    /// unbatched shadow. The paper's default DHT path — every update
    /// routed on its document GUID, no address cache — is the shadow
    /// under `unbatched: Some(false)`; the full aggregation feature is
    /// the run under `hops: Some(true)`: frames at `spec.wire`'s cap,
    /// one route per frame, cached destination IPs (the Sec. 3.2
    /// cache, now per peer instead of per document). The Sec. 3.2
    /// cache alone (unbatched + cached) is covered by the ablation
    /// grid, not here.
    pub fn new(spec: &ScenarioSpec, out: &Outcome) -> Self {
        let batched = out.traffic.expect("a cluster run");
        let unbatched = out
            .unbatched
            .expect("a run charged with its unbatched shadow");
        BatchReport {
            graph_size: spec.nodes,
            num_peers: spec.num_peers,
            epsilon: spec.epsilon,
            max_frame_bytes: spec.wire.max_frame_bytes,
            unbatched,
            batched,
            routed_reduction: unbatched.routed_messages as f64
                / batched.routed_messages.max(1) as f64,
            byte_reduction: unbatched.bytes_on_wire as f64 / batched.bytes_on_wire.max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::SchedMode;

    /// A rounds run of `spec` with hops charged under `cache_ips` and,
    /// with `unbatched`, its shadow.
    fn run(w: &Workload, spec: &ScenarioSpec, cache_ips: bool, unbatched: Option<bool>) -> Outcome {
        let mut obs = Observe::new(&NOOP);
        (obs.hops, obs.unbatched) = (Some(cache_ips), unbatched);
        spec.run(w, Layer::Cluster, obs)
    }

    /// The saving the batched run of `spec` reports, and its ranks.
    fn report(w: &Workload, spec: &ScenarioSpec) -> (BatchReport, Vec<f64>) {
        let out = run(w, spec, true, Some(false));
        (BatchReport::new(spec, &out), out.ranks)
    }

    #[test]
    fn batching_cuts_routed_messages_and_bytes() {
        // 8 peers -> ~190 docs per peer, comfortably above the
        // priority bypass threshold so residual selection engages.
        let spec = ScenarioSpec::new(1_500, 8, 1e-3, 11);
        let w = spec.workload();
        let (r, _) = report(&w, &spec);
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
        let pass = run(&w, &pass_spec, true, None);
        let pri = run(&w, &pri_spec, true, None);
        let pri_one_entry = run(&w, &one_entry, false, None);
        // The frame cap cannot perturb the priority schedule: one entry
        // per payload and full frames converge bit-identically.
        assert_eq!(pri_one_entry.ranks, pri.ranks);
        // Residual-driven selection clears the same ε with fewer
        // logical remote updates …
        assert!(
            pri.remote_messages < pass.remote_messages,
            "priority {} vs pass {}",
            pri.remote_messages,
            pass.remote_messages
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
        let (loose, loose_ranks) = report(&w, &spec);
        // 2 entries/frame.
        let two_entries = ScenarioSpec {
            wire: WireMode {
                max_frame_bytes: 36,
            },
            ..spec
        };
        let (tight, tight_ranks) = report(&w, &two_entries);
        assert_eq!(loose_ranks, tight_ranks);
        assert_eq!(loose.batched.entries, tight.batched.entries);
        assert!(tight.batched.frames > loose.batched.frames);
        assert!(tight.batched.bytes_on_wire > loose.batched.bytes_on_wire);
        assert!(tight.batched.bytes_on_wire < tight.unbatched.bytes_on_wire);
        // The shadow sees the entries, not their framing, under either
        // routing policy.
        for cache_ips in [false, true] {
            let [a, b] = [spec, two_entries].map(|s| run(&w, &s, true, Some(cache_ips)).unbatched);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
