//! Peer presence schedules (paper Sec. 4.2 / Table 1).
//!
//! "In between such passes, sets of peers randomly leave and join the
//! network … we show the results when only three quarters of the peers
//! and half of the peers are available at any given time." The
//! schedule re-draws the online set to a fixed fraction after every
//! pass.

use dpr_p2p::peer::PeerTable;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A per-pass presence schedule.
#[derive(Debug)]
pub enum Schedule {
    /// All peers online all the time.
    AlwaysOn,
    /// After each pass, re-sample the online set to hold `fraction`
    /// of the peers.
    Fraction {
        /// Fraction of peers online (0, 1].
        fraction: f64,
        /// Deterministic RNG for the re-sampling (boxed: it buffers
        /// four cipher blocks).
        rng: Box<ChaCha8Rng>,
    },
}

impl Schedule {
    /// Full presence.
    pub fn always_on() -> Self {
        Schedule::AlwaysOn
    }

    /// A fixed-fraction schedule with its own seed.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn fraction(fraction: f64, seed: u64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction in (0, 1]");
        Schedule::Fraction {
            fraction,
            rng: Box::new(ChaCha8Rng::seed_from_u64(seed)),
        }
    }

    /// Applies the schedule for the start of the next pass.
    pub fn apply(&mut self, peers: &mut PeerTable) {
        match self {
            Schedule::AlwaysOn => {}
            Schedule::Fraction { fraction, rng } => {
                peers.set_online_fraction(*fraction, rng.as_mut());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_keeps_everyone() {
        let mut t = PeerTable::new(10);
        let mut s = Schedule::always_on();
        s.apply(&mut t);
        assert!(t.peers().all(|p| t.is_online(p)));
    }

    #[test]
    fn fraction_schedule_holds_the_fraction() {
        let mut t = PeerTable::new(100);
        let mut s = Schedule::fraction(0.75, 1);
        for _ in 0..5 {
            s.apply(&mut t);
            assert_eq!(t.peers().filter(|&p| t.is_online(p)).count(), 75);
        }
    }

    #[test]
    fn fraction_schedule_rotates_membership() {
        let mut t = PeerTable::new(100);
        let mut s = Schedule::fraction(0.5, 2);
        s.apply(&mut t);
        let first: Vec<bool> = (0..100)
            .map(|i| t.is_online(dpr_p2p::peer::PeerId(i)))
            .collect();
        s.apply(&mut t);
        let second: Vec<bool> = (0..100)
            .map(|i| t.is_online(dpr_p2p::peer::PeerId(i)))
            .collect();
        assert_ne!(first, second, "membership should rotate");
    }

    #[test]
    #[should_panic(expected = "fraction in (0, 1]")]
    fn rejects_zero_fraction() {
        Schedule::fraction(0.0, 1);
    }
}
