//! Cross-commit bit-identity pins for the chaotic event runtime.
//!
//! Every other differential test compares two runs of the *same*
//! build (traced vs untraced, singles vs frames, rep vs rep). This one
//! compares the build against constants captured at commit `c035511`,
//! before the per-event hot path (`sim::event` → `node::{cluster,node}`
//! → `core::message` → `p2p::transport`) was rebuilt: a change that
//! reorders a fold, a flush, a frame split or an event pop moves at
//! least one of these numbers.
//!
//! Pinned per scenario: `schedule_fnv`, `steps`, `deliveries`,
//! `virtual_ns`, Σ `emitted_remote`, `traffic().bytes_sent`, and an
//! FNV-1a over the little-endian rank bits in document order.

use distributed_pagerank::node::node::WireMode;
use distributed_pagerank::node::termination::TerminationDetector;
use distributed_pagerank::node::Cluster;
use distributed_pagerank::p2p::transport::WireCodec;
use distributed_pagerank::prelude::*;
use distributed_pagerank::sim::churn::Schedule;
use distributed_pagerank::sim::event::{
    run_chaotic, run_chaotic_serving, ChaoticConfig, ChaoticOutcome, ChurnPlan, Inject,
    InjectionPlan, LatencyModel, ServingHooks,
};
use distributed_pagerank::telemetry::NOOP;

const NODES: usize = 2_000;
/// 20 documents per peer: the shape the benchmark's `chaotic_async` runs.
const PEERS: usize = 100;
/// 125 documents per peer: above `PRIORITY_BYPASS_THRESHOLD`, so the
/// selective schedulers really defer work inside a step (at 20 per peer
/// `Priority` and `Greedy` differ from `Pass` only in step timing).
const DENSE_PEERS: usize = 16;
const EPSILON: f64 = 1e-4;
const SEED: u64 = 2003;
const MAX_EVENTS: u64 = 200_000_000;

/// What one scenario pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    schedule_fnv: u64,
    steps: u64,
    deliveries: u64,
    virtual_ns: u64,
    emitted_remote: u64,
    bytes_sent: u64,
    rank_fnv: u64,
}

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn build(sched: SchedMode, codec: WireCodec, num_peers: usize) -> (Cluster, PeerTable) {
    let w = Workload::paper(NODES, num_peers, SEED);
    let mut cluster = Cluster::build_with(
        &w.graph,
        &w.placement,
        num_peers,
        EngineConfig::with_epsilon(EPSILON).with_sched(sched),
        WireMode::frames(),
    );
    cluster.set_codec(codec);
    (cluster, w.peer_table())
}

fn pin(cluster: &Cluster, out: &ChaoticOutcome) -> Pin {
    assert!(out.quiesced && out.announced, "{out:?}");
    let ranks = cluster.collect_ranks(NODES);
    Pin {
        schedule_fnv: out.schedule_fnv,
        steps: out.steps,
        deliveries: out.deliveries,
        virtual_ns: out.virtual_ns,
        emitted_remote: (0..cluster.num_peers() as u32)
            .map(|p| cluster.node(PeerId(p)).stats().emitted_remote)
            .sum(),
        bytes_sent: cluster.traffic().bytes_sent,
        rank_fnv: fnv1a(ranks.iter().flat_map(|r| r.to_bits().to_le_bytes())),
    }
}

fn config(sched: SchedMode, latency: LatencyModel) -> ChaoticConfig {
    ChaoticConfig {
        seed: SEED,
        latency,
        sched,
        epsilon: EPSILON,
    }
}

fn static_run(sched: SchedMode, latency: LatencyModel, codec: WireCodec, num_peers: usize) -> Pin {
    let (mut cluster, peers) = build(sched, codec, num_peers);
    let mut det = TerminationDetector::new(num_peers);
    let out = run_chaotic(
        &mut cluster,
        &peers,
        &config(sched, latency),
        &mut det,
        MAX_EVENTS,
        &NOOP,
    );
    pin(&cluster, &out)
}

/// Updates and queries every 4 ms of virtual time under a finite
/// transient-churn chain (three quarters of the peers online).
fn served_run() -> (Pin, usize) {
    let (mut cluster, mut peers) = build(SchedMode::Priority, WireCodec::Raw, PEERS);
    let mut det = TerminationDetector::new(PEERS);
    let plan: Vec<InjectionPlan> = (0..60u32)
        .map(|i| InjectionPlan {
            at_ns: 4_000_000 * (u64::from(i) + 1),
            what: if i % 3 == 0 {
                Inject::Query(i)
            } else {
                Inject::Update {
                    doc: DocId(i * 31 % NODES as u32),
                    delta: if i % 2 == 0 { 0.25 } else { -0.05 },
                }
            },
        })
        .collect();
    let mut queries = 0usize;
    let out = run_chaotic_serving(
        &mut cluster,
        &mut peers,
        &config(SchedMode::Priority, LatencyModel::Broadband),
        &mut det,
        MAX_EVENTS,
        &NOOP,
        ServingHooks {
            plan: &plan,
            churn: Some(ChurnPlan {
                schedule: Schedule::fraction(0.75, 11),
                every_ns: 30_000_000,
                until_ns: 400_000_000,
            }),
            on_query: &mut |_, _, _| queries += 1,
        },
    );
    assert_eq!(peers.num_online(), PEERS, "churn chain ends fully online");
    assert!(cluster.traffic().parked > 0, "churn must park frames");
    (pin(&cluster, &out), queries)
}

use LatencyModel::{Broadband, Modem};
use SchedMode::{Greedy, Pass, Priority};
use WireCodec::{Compact, Raw};

/// Captured at `c035511` (see the module docs).
#[rustfmt::skip]
const STATIC_PINS: &[(SchedMode, LatencyModel, WireCodec, usize, Pin)] = &[
    (Pass, Broadband, Raw, PEERS, Pin { schedule_fnv: 0xdcd41578d72d43d0, steps: 14938, deliveries: 233192, virtual_ns: 3395143008, emitted_remote: 282180, bytes_sent: 5259280, rank_fnv: 0xe1724ee1a8e2e1d6 }),
    (Pass, Broadband, Compact, PEERS, Pin { schedule_fnv: 0x75692764ef78248f, steps: 14851, deliveries: 232975, virtual_ns: 2971785196, emitted_remote: 282087, bytes_sent: 2529000, rank_fnv: 0x09e8dcba9599c477 }),
    (Pass, Modem, Raw, PEERS, Pin { schedule_fnv: 0xf636fb87f031fbaa, steps: 26737, deliveries: 378284, virtual_ns: 6933653695, emitted_remote: 451021, bytes_sent: 8454736, rank_fnv: 0x03fb282e0b7a2ce4 }),
    (Pass, Modem, Compact, PEERS, Pin { schedule_fnv: 0x2afe6bc9d93a3fe3, steps: 26425, deliveries: 377284, virtual_ns: 6317429640, emitted_remote: 449645, bytes_sent: 4065864, rank_fnv: 0xb223f591e8d5feec }),
    (Priority, Broadband, Raw, PEERS, Pin { schedule_fnv: 0x2953e909ae901b2b, steps: 4845, deliveries: 105894, virtual_ns: 10460197252, emitted_remote: 133758, bytes_sent: 2453352, rank_fnv: 0x6a580b1763a90087 }),
    (Priority, Broadband, Compact, PEERS, Pin { schedule_fnv: 0x9a1335690ee2c3bc, steps: 4849, deliveries: 106378, virtual_ns: 10086950666, emitted_remote: 134430, bytes_sent: 1178352, rank_fnv: 0xe46cb10efc6e4439 }),
    (Priority, Modem, Raw, PEERS, Pin { schedule_fnv: 0xa922f719e7d04a87, steps: 5376, deliveries: 116585, virtual_ns: 18116805480, emitted_remote: 146672, bytes_sent: 2693892, rank_fnv: 0x62aa42528a2e18b1 }),
    (Priority, Modem, Compact, PEERS, Pin { schedule_fnv: 0x8239466568d46ac8, steps: 5609, deliveries: 116484, virtual_ns: 24618432899, emitted_remote: 146508, bytes_sent: 1287488, rank_fnv: 0x27d4761e747b49e3 }),
    (Greedy, Broadband, Raw, PEERS, Pin { schedule_fnv: 0x2953e909ae901b2b, steps: 4845, deliveries: 105894, virtual_ns: 10460197252, emitted_remote: 133758, bytes_sent: 2453352, rank_fnv: 0x6a580b1763a90087 }),
    (Greedy, Broadband, Compact, PEERS, Pin { schedule_fnv: 0x9a1335690ee2c3bc, steps: 4849, deliveries: 106378, virtual_ns: 10086950666, emitted_remote: 134430, bytes_sent: 1178352, rank_fnv: 0xe46cb10efc6e4439 }),
    (Greedy, Modem, Raw, PEERS, Pin { schedule_fnv: 0xa922f719e7d04a87, steps: 5376, deliveries: 116585, virtual_ns: 18116805480, emitted_remote: 146672, bytes_sent: 2693892, rank_fnv: 0x62aa42528a2e18b1 }),
    (Greedy, Modem, Compact, PEERS, Pin { schedule_fnv: 0x8239466568d46ac8, steps: 5609, deliveries: 116484, virtual_ns: 24618432899, emitted_remote: 146508, bytes_sent: 1287488, rank_fnv: 0x27d4761e747b49e3 }),
    (Priority, Broadband, Raw, DENSE_PEERS, Pin { schedule_fnv: 0xac31f87ea5ecca25, steps: 1192, deliveries: 14062, virtual_ns: 18237441029, emitted_remote: 64031, bytes_sent: 959080, rank_fnv: 0xbbea7d1213b492ed }),
    (Priority, Broadband, Compact, DENSE_PEERS, Pin { schedule_fnv: 0xe0d9b1c17b54df89, steps: 1177, deliveries: 14194, virtual_ns: 16772702403, emitted_remote: 64915, bytes_sent: 381023, rank_fnv: 0x6294ca3c0555ce86 }),
    (Greedy, Broadband, Raw, DENSE_PEERS, Pin { schedule_fnv: 0x0c67b0aeeae16bb7, steps: 1175, deliveries: 14792, virtual_ns: 15425670392, emitted_remote: 66963, bytes_sent: 1009856, rank_fnv: 0x4b3ce7a9c049769f }),
    (Greedy, Broadband, Compact, DENSE_PEERS, Pin { schedule_fnv: 0x6268ebdfeafe6e17, steps: 1160, deliveries: 14588, virtual_ns: 15387564684, emitted_remote: 67829, bytes_sent: 398096, rank_fnv: 0x161967fdb233c113 }),
];

/// Captured at `c035511`.
const SERVED_PIN: Pin = Pin {
    schedule_fnv: 0xe5df32f7e7ba1e3d,
    steps: 4778,
    deliveries: 98928,
    virtual_ns: 10269656787,
    emitted_remote: 123561,
    bytes_sent: 2275712,
    rank_fnv: 0x3187fff7b9675a2d,
};

#[test]
fn static_runs_match_the_pins_of_the_parent_runtime() {
    assert_eq!(STATIC_PINS.len(), 16);
    for &(sched, latency, codec, num_peers, expected) in STATIC_PINS {
        let got = static_run(sched, latency, codec, num_peers);
        assert_eq!(
            got, expected,
            "{sched} / {latency} / {codec} / {num_peers} peers"
        );
    }
}

#[test]
fn served_run_with_updates_and_churn_matches_its_pin() {
    let (got, queries) = served_run();
    assert_eq!(queries, 20, "every planned query fires");
    assert_eq!(got, SERVED_PIN);
}

/// Prints the table above for re-capture (`--ignored --nocapture`);
/// only meaningful on a commit whose runtime is the reference.
#[test]
#[ignore = "capture helper, not a check"]
fn print_pins() {
    let show = |p: Pin| {
        format!(
            "Pin {{ schedule_fnv: {:#018x}, steps: {}, deliveries: {}, virtual_ns: {}, \
             emitted_remote: {}, bytes_sent: {}, rank_fnv: {:#018x} }}",
            p.schedule_fnv,
            p.steps,
            p.deliveries,
            p.virtual_ns,
            p.emitted_remote,
            p.bytes_sent,
            p.rank_fnv
        )
    };
    let row = |sched, latency, codec, peers, name: &str| {
        let p = static_run(sched, latency, codec, peers);
        println!(
            "    ({sched:?}, {latency:?}, {codec:?}, {name}, {}),",
            show(p)
        );
    };
    for sched in [Pass, Priority, Greedy] {
        for latency in [Broadband, Modem] {
            for codec in [Raw, Compact] {
                row(sched, latency, codec, PEERS, "PEERS");
            }
        }
    }
    for sched in [Priority, Greedy] {
        for codec in [Raw, Compact] {
            row(sched, Broadband, codec, DENSE_PEERS, "DENSE_PEERS");
        }
    }
    println!("served: {}", show(served_run().0));
}
