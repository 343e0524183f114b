//! Peer identity, liveness, and document placement.
//!
//! The paper's simulation (Sec. 4.2) assigns each document "randomly
//! … to a peer" on a 500-peer system, and between passes "sets of
//! peers randomly leave and join the network". [`PeerTable`] tracks
//! which peers exist and which are currently online; [`Placement`]
//! maps documents to peers either uniformly at random (the paper's
//! methodology) or by DHT successor (how a deployed Chord-like system
//! would place them).

use crate::{guid::Guid, ring::Ring};
use dpr_graph::DocId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Identifier of a peer computer in the P2P system.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct PeerId(pub u32);

impl PeerId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Liveness of every peer in the system.
///
/// Peers are created once and then oscillate between online and
/// offline (the paper's model: a leaving peer "is likely to rejoin the
/// network at a later time", taking its documents with it while away).
#[derive(Debug, Clone)]
pub struct PeerTable {
    online: Vec<bool>,
}

impl PeerTable {
    /// `n` peers, all online.
    pub fn new(n: usize) -> Self {
        PeerTable {
            online: vec![true; n],
        }
    }

    /// Whether `p` is currently online.
    #[inline]
    pub fn is_online(&self, p: PeerId) -> bool {
        self.online[p.index()]
    }

    /// Marks `p` online or offline. Returns whether its presence
    /// changed.
    pub fn set_online(&mut self, p: PeerId, online: bool) -> bool {
        std::mem::replace(&mut self.online[p.index()], online) != online
    }

    /// Iterator over all peer ids.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        (0..self.online.len() as u32).map(PeerId)
    }

    /// Resets the table so that exactly `fraction` of peers are online,
    /// chosen uniformly at random. Used by the Table 1 columns where
    /// only 75 % / 50 % of peers are present at any time.
    pub fn set_online_fraction<R: Rng>(&mut self, fraction: f64, rng: &mut R) {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        let n = self.online.len();
        let k = ((n as f64) * fraction).round() as usize;
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(rng);
        self.online.iter_mut().for_each(|b| *b = false);
        for &i in ids.iter().take(k) {
            self.online[i] = true;
        }
    }
}

/// How documents are assigned to peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PlacementPolicy {
    /// Each document goes to a uniformly random peer — the paper's
    /// simulation methodology (Sec. 4.2).
    Random,
    /// Each document goes to the DHT successor of its GUID — how a
    /// deployed Chord-like system places it.
    DhtSuccessor,
}

/// The document → peer map.
#[derive(Debug, Clone)]
pub struct Placement {
    owner: Vec<PeerId>,
}

impl Placement {
    /// Assigns `num_docs` documents across the peers of `ring`
    /// according to `policy`.
    pub fn assign<R: Rng>(
        num_docs: usize,
        ring: &Ring,
        policy: PlacementPolicy,
        rng: &mut R,
    ) -> Self {
        assert!(!ring.is_empty(), "cannot place documents on an empty ring");
        let owner = match policy {
            PlacementPolicy::Random => {
                let peers: Vec<PeerId> = ring.peers().collect();
                (0..num_docs)
                    .map(|_| peers[rng.gen_range(0..peers.len())])
                    .collect()
            }
            PlacementPolicy::DhtSuccessor => (0..num_docs)
                .map(|d| ring.successor(Guid::for_document(DocId::from(d))))
                .collect(),
        };
        Placement { owner }
    }

    /// Wraps an externally computed owner vector (e.g. a link-aware
    /// partitioning of `dpr_graph::partition`, the paper's Sec. 6
    /// future-work idea) as a placement.
    pub fn from_owner_vec(owner: Vec<PeerId>) -> Self {
        Placement { owner }
    }

    /// The peer holding document `d`.
    #[inline]
    pub fn owner(&self, d: DocId) -> PeerId {
        self.owner[d.index()]
    }

    /// Number of placed documents.
    pub fn num_docs(&self) -> usize {
        self.owner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn peer_table_liveness_transitions() {
        let mut t = PeerTable::new(3);
        assert_eq!(t.online.iter().filter(|&&b| b).count(), 3);
        assert!(t.set_online(PeerId(1), false));
        assert!(!t.set_online(PeerId(1), false));
        assert!(!t.is_online(PeerId(1)));
        assert_eq!(t.online.iter().filter(|&&b| b).count(), 2);
        assert!(t.set_online(PeerId(1), true));
        assert!(!t.set_online(PeerId(1), true));
        assert_eq!(t.online.iter().filter(|&&b| b).count(), 3);
    }

    #[test]
    fn online_fraction_is_exact() {
        let mut t = PeerTable::new(500);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        t.set_online_fraction(0.5, &mut rng);
        assert_eq!(t.online.iter().filter(|&&b| b).count(), 250);
        t.set_online_fraction(0.75, &mut rng);
        assert_eq!(t.online.iter().filter(|&&b| b).count(), 375);
        t.set_online_fraction(1.0, &mut rng);
        assert_eq!(t.online.iter().filter(|&&b| b).count(), 500);
    }

    #[test]
    fn random_placement_covers_peers_roughly_evenly() {
        let ring = Ring::with_peers(50);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p = Placement::assign(10_000, &ring, PlacementPolicy::Random, &mut rng);
        let mut hist = [0usize; 50];
        for d in 0..10_000u32 {
            hist[p.owner(DocId(d)).index()] += 1;
        }
        // Expected load 200 per peer; allow generous slack.
        assert!(hist.iter().all(|&c| c > 100 && c < 320), "{hist:?}");
    }

    #[test]
    fn dht_placement_matches_ring_successor() {
        let ring = Ring::with_peers(10);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let p = Placement::assign(100, &ring, PlacementPolicy::DhtSuccessor, &mut rng);
        for d in 0..100u32 {
            assert_eq!(
                p.owner(DocId(d)),
                ring.successor(Guid::for_document(DocId(d)))
            );
        }
    }
}
