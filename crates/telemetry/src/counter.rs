//! Lock-free striped counters.
//!
//! A [`Counter`] is a small array of cache-line-padded `AtomicU64`
//! stripes; each thread adds to its own stripe (assigned round-robin
//! on first use), so concurrent recording from several threads never
//! contends on one cache line. Reads sum the stripes —
//! counters are write-often read-rarely.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of stripes per counter. Covers a handful of recording
/// threads without making snapshot sums expensive.
pub const STRIPES: usize = 8;

/// One cache line worth of counter.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe(AtomicU64);

/// Monotone-increasing sum, striped per thread.
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

/// Round-robin stripe assignment: stable per thread, spread across
/// stripes. Shared by every counter so a thread always lands on the
/// same stripe index.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `delta` on the calling thread's stripe.
    pub fn add(&self, delta: u64) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// The current total across all stripes.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adds_and_sums() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }
}
