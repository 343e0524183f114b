//! Protocol-level integration: transport, store-and-resend and wire
//! format — the Sec. 3 machinery exercised together.

use distributed_pagerank::p2p::transport::{RankUpdateWire, Transport};
use distributed_pagerank::prelude::*;
use rand::SeedableRng;
use std::collections::HashMap;

/// A miniature message-level run of the distributed protocol: two
/// peers exchange encoded 24-byte rank updates through the transport,
/// with one peer going offline mid-run and the store-and-resend
/// buffer carrying its updates.
#[test]
fn message_level_exchange_with_churn() {
    let mut peers = PeerTable::new(2);
    let mut transport: Transport<bytes::Bytes> = Transport::new(2);

    // Peer 0 holds doc 0, peer 1 holds doc 1; 0 -> 1 -> 0 cycle.
    let guid_index: HashMap<Guid, DocId> = [
        (Guid::for_document(DocId(0)), DocId(0)),
        (Guid::for_document(DocId(1)), DocId(1)),
    ]
    .into_iter()
    .collect();

    // Peer 0 advertises doc 0's base rank to doc 1.
    let update = |value| RankUpdateWire {
        guid: Guid::for_document(DocId(1)).0,
        value,
    };
    transport.send(&peers, PeerId(0), PeerId(1), update(0.85 * 0.15).encode());

    // Peer 1 goes offline before processing; peer 0 sends another.
    peers.set_online(PeerId(1), false);
    transport.send(&peers, PeerId(0), PeerId(1), update(0.85 * 0.05).encode());
    assert_eq!(transport.total_pending(), 1, "second update parked");

    // Peer 1 returns; retry delivers the parked update.
    peers.set_online(PeerId(1), true);
    assert_eq!(transport.retry_pending(&peers).len(), 1);

    // Peer 1 decodes both updates and applies them.
    let mut rank1 = 0.15f64;
    let mut received = 0;
    while let Some(env) = transport.receive(PeerId(1)) {
        let wire = RankUpdateWire::decode(env.payload).expect("valid wire");
        assert_eq!(guid_index.get(&Guid(wire.guid)), Some(&DocId(1)));
        rank1 += wire.value;
        received += 1;
    }
    assert_eq!(received, 2);
    assert!((rank1 - (0.15 + 0.85 * 0.2)).abs() < 1e-12);
    let stats = transport.stats();
    assert_eq!(stats.sent, 2);
    assert_eq!(stats.delivered, 1);
    assert_eq!(stats.parked, 1);
    assert_eq!(stats.redelivered, 1);
}

/// Store-and-resend vs dropping updates: the ablation shows why the
/// paper's protocol exists — dropping parked updates loses rank mass
/// permanently.
#[test]
fn store_and_resend_ablation() {
    let nodes = 1_000;
    let graph = PowerLawConfig::paper(nodes, 21).generate();
    let arc = std::sync::Arc::new(graph);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let ring = Ring::with_peers(20);
    let placement = Placement::assign(nodes, &ring, PlacementPolicy::Random, &mut rng);
    let owners: Vec<PeerId> = (0..nodes)
        .map(|d| placement.owner(DocId(d as u32)))
        .collect();

    let run = |drop_parked: bool| {
        let mut engine = ChaoticEngine::new(
            arc.clone(),
            owners.clone(),
            EngineConfig::with_epsilon(1e-6),
        );
        let mut peers = PeerTable::new(20);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let mut pass = 0usize;
        while !engine.is_quiescent() && pass < 5_000 {
            engine.pass(&peers);
            pass += 1;
            peers.set_online_fraction(0.5, &mut rng);
            if drop_parked {
                engine.drop_parked(&peers);
            }
        }
        // Finish with everyone online so parked mass can drain.
        (0..20u32).for_each(|p| {
            peers.set_online(PeerId(p), true);
        });
        let run = engine.run_to_convergence(&mut peers, None);
        assert!(run.converged);
        engine.ranks().iter().sum::<f64>()
    };

    let kept: f64 = run(false);
    let dropped: f64 = run(true);
    assert!(
        dropped < kept * 0.999,
        "dropping updates must lose rank mass: {dropped} vs {kept}"
    );
}
