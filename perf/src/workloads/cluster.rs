//! `cluster_rounds`: the message-level cluster under the round
//! barrier, large compact frames, cached hop accounting.

use crate::bench::Bench;
use crate::common::{build_workload, time_per_call, Ledger, RankCheck, Scale};
use crate::trace::Tracer;
use dpr_core::engine::EngineConfig;
use dpr_core::message::FlushBuffer;
use dpr_graph::DocId;
use dpr_node::cluster::Cluster;
use dpr_node::node::{PeerNode, WireMode, DEFAULT_MAX_FRAME_BYTES};
use dpr_p2p::peer::PeerId;
use dpr_p2p::transport::{max_entries_for, CompactEntry, CompactFrameWire, WireCodec};
use dpr_sim::batch::{run_wire_mode_codec, ClusterRun, WireTraffic};
use dpr_sim::hops::HopAccounting;
use dpr_sim::workload::Workload;
use serde_json::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Idle rounds timed after quiescence for the fixed per-peer cost.
const IDLE_ROUNDS: usize = 20;

pub struct ClusterBench {
    nodes: usize,
    num_peers: usize,
    epsilon: f64,
    ranks: RankCheck,
}

impl ClusterBench {
    pub fn new(scale: Scale) -> Self {
        // 600 documents per peer, so per-entry costs dominate the
        // per-round fixed costs.
        let (nodes, num_peers) = match scale {
            Scale::Full => (90_000, 150),
            Scale::Tiny => (2_000, 20),
        };
        ClusterBench {
            nodes,
            num_peers,
            epsilon: 1e-3,
            ranks: RankCheck::default(),
        }
    }

    fn config(&self) -> EngineConfig {
        EngineConfig::with_epsilon(self.epsilon)
    }
}

pub struct ClusterOutput {
    run: ClusterRun,
    /// Wall of the cluster build, of each round, then of the idle
    /// rounds (traced run).
    build_s: f64,
    round_s: Vec<f64>,
    idle_round_s: Vec<f64>,
}

/// `run_wire_mode_codec(w, ε, frames, Compact, cache_ips = true)` by
/// hand: build, then one span per round. In frames mode every payload
/// is a frame, so every send is charged to the destination peer.
fn drive_rounds(w: &Workload, cfg: EngineConfig, tr: &mut Tracer) -> ClusterOutput {
    let (mut cluster, build_ns) = tr.timed("node.cluster.build", || {
        Cluster::build_with(&w.graph, &w.placement, w.num_peers, cfg, WireMode::frames())
    });
    cluster.set_codec(WireCodec::Compact);
    let mut acc = HopAccounting::cached(w.ring.clone());
    let mut hook = |src, dst, _payload: &bytes::Bytes| acc.charge_peer(src, dst);
    let peers = w.peer_table();

    let mut round_s = Vec::new();
    let mut routed = 0u64;
    while !cluster.is_quiescent() && round_s.len() < 100_000 {
        let (stats, ns) = tr.timed("node.round", || {
            cluster.round_with_hops(&peers, Some(&mut hook))
        });
        routed += stats.hops;
        tr.count("node.round.payloads_sent", stats.sent);
        tr.count("node.round.payloads_delivered", stats.delivered);
        tr.count("sim.hops.charged", stats.hops);
        round_s.push(ns * 1e-9);
    }
    let idle_round_s = (0..IDLE_ROUNDS)
        .map(|_| {
            let (_, ns) = tr.timed("node.round.idle", || {
                cluster.round_with_hops(&peers, Some(&mut hook))
            });
            ns * 1e-9
        })
        .collect();

    let (mut updates, mut entries, mut frames) = (0u64, 0u64, 0u64);
    for p in 0..w.num_peers as u32 {
        let s = cluster.node(PeerId(p)).stats();
        updates += s.emitted_remote;
        entries += s.sent_remote;
        frames += s.frames_sent;
    }
    let t = cluster.traffic();
    let ranks = tr.span("node.cluster.collect_ranks", || {
        cluster.collect_ranks(w.graph.num_nodes())
    });
    ClusterOutput {
        run: ClusterRun {
            ranks,
            traffic: WireTraffic {
                rounds: round_s.len(),
                updates,
                entries,
                frames,
                payloads: t.sent,
                bytes_on_wire: t.bytes_sent,
                routed_messages: routed,
            },
        },
        build_s: build_ns * 1e-9,
        round_s,
        idle_round_s,
    }
}

impl Bench for ClusterBench {
    type Input = Workload;
    type Output = ClusterOutput;

    fn params(&self) -> Value {
        Value::Object(vec![
            ("docs".into(), Value::U64(self.nodes as u64)),
            ("peers".into(), Value::U64(self.num_peers as u64)),
            ("epsilon".into(), Value::F64(self.epsilon)),
            ("wire".into(), Value::Str("frames".into())),
            ("codec".into(), Value::Str("compact".into())),
            ("cache_ips".into(), Value::Bool(true)),
        ])
    }

    fn setup(&mut self, seed: u64, tr: &mut Tracer, ledger: &mut Ledger) -> Workload {
        build_workload(self.nodes, self.num_peers, seed, tr, ledger)
    }

    fn run(&mut self, _seed: u64, w: &mut Workload, tr: &mut Tracer) -> ClusterOutput {
        if tr.enabled() {
            return drive_rounds(w, self.config(), tr);
        }
        ClusterOutput {
            run: run_wire_mode_codec(
                w,
                self.epsilon,
                WireMode::frames(),
                WireCodec::Compact,
                true,
            ),
            build_s: 0.0,
            round_s: Vec::new(),
            idle_round_s: Vec::new(),
        }
    }

    fn verify(
        &mut self,
        seed: u64,
        w: &mut Workload,
        out: &ClusterOutput,
        _wall_s: f64,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) {
        let n = self.nodes as f64;
        let traffic = out.run.traffic;
        ledger.check(traffic.rounds < 100_000, || "round budget exhausted".into());
        let max_err = 10.0 * self.epsilon;
        self.ranks
            .check(seed, &w.graph, &out.run.ranks, max_err, tr, ledger);
        ledger.model(seed, "msgs_per_doc", traffic.updates as f64 / n);
        ledger.model(seed, "wire_bytes_per_doc", traffic.bytes_on_wire as f64 / n);

        if !tr.enabled() {
            return;
        }
        ledger.put("node.cluster.build_s", out.build_s);
        let rounds_s: f64 = out.round_s.iter().sum();
        ledger.model(seed, "node.rounds", traffic.rounds as f64);
        ledger.put(
            "node.round.ns_per_entry",
            rounds_s * 1e9 / traffic.entries.max(1) as f64,
        );
        ledger.put("node.round.first_wall_s", out.round_s[0]);
        ledger.put(
            "node.round.last_wall_s",
            *out.round_s.last().expect("one round"),
        );
        let idle_s: f64 = out.idle_round_s.iter().sum();
        ledger.put(
            "node.round.idle_ns_per_peer",
            idle_s * 1e9 / (IDLE_ROUNDS * self.num_peers) as f64,
        );
        ledger.model(
            seed,
            "p2p.codec.compact.bytes_per_entry",
            traffic.bytes_on_wire as f64 / traffic.entries.max(1) as f64,
        );
    }

    fn layers(&mut self, seed: u64, budget: Duration, tr: &mut Tracer, ledger: &mut Ledger) {
        let each = budget / 5;
        let w = Workload::paper(self.nodes, self.num_peers, seed);

        // One peer's first step over its own documents, with no
        // cluster around it: every document starts dirty.
        let owners = w.owners();
        let started = Instant::now();
        let (mut step_ns, mut stepped_docs) = (0.0, 0usize);
        for p in (0..self.num_peers as u32).cycle() {
            let mut node = PeerNode::with_wire(PeerId(p), self.config(), WireMode::frames());
            node.set_codec(WireCodec::Compact);
            for d in (0..self.nodes).filter(|&d| owners[d] == PeerId(p)) {
                let out = w.graph.out_neighbors(DocId::from(d));
                let out = out
                    .iter()
                    .map(|&t| (DocId(t), owners[t as usize]))
                    .collect();
                node.add_document(DocId::from(d), out);
            }
            let (_, ns) = tr.timed("node.step", || {
                node.step();
                black_box(node.drain_outbox())
            });
            step_ns += ns;
            stepped_docs += node.num_docs();
            if started.elapsed() >= each {
                break;
            }
        }
        ledger.put("node.step.ns_per_doc", step_ns / stepped_docs.max(1) as f64);

        // A frame's worth of entries through each wire-path piece.
        let k = max_entries_for(DEFAULT_MAX_FRAME_BYTES);
        let stride = (self.nodes / k).max(1) as u32;
        let ns = time_per_call(each, || {
            let mut buf = FlushBuffer::new();
            for i in 0..k as u32 {
                buf.push(DocId(i * stride), 0.25);
            }
            buf.flush(DEFAULT_MAX_FRAME_BYTES)
        });
        ledger.put("core.message.flush_ns_per_entry", ns / k as f64);

        let frame = CompactFrameWire::new(
            (0..k as u32)
                .map(|i| CompactEntry {
                    doc: i * stride,
                    value: 0.25,
                })
                .collect(),
        );
        let ns = time_per_call(each, || frame.encode());
        ledger.put("p2p.codec.compact.encode_ns_per_entry", ns / k as f64);
        let encoded = frame.encode();
        let ns = time_per_call(each, || CompactFrameWire::decode(encoded.clone()));
        ledger.put("p2p.codec.compact.decode_ns_per_entry", ns / k as f64);
        ledger.check(
            CompactFrameWire::decode(encoded).as_ref() == Ok(&frame),
            || "compact frame does not round-trip".into(),
        );

        let mut acc = HopAccounting::cached(w.ring.clone());
        let peers = self.num_peers as u32;
        let mut i = 0u32;
        let ns = time_per_call(each, || {
            i = i.wrapping_add(1);
            acc.charge_peer(PeerId(i % peers), PeerId((i / peers) % peers))
        });
        ledger.put("sim.hops.charge_ns", ns);
    }
}
