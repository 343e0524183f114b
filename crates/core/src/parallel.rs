//! What is left of the sharded pass executor: a shim over the
//! sequential engine.
//!
//! `ShardedExecutor::{new, pass, run_to_convergence, pass_mix}` are kept
//! with these exact signatures only because the frozen `perf/` benchmark
//! calls them (its `engine_sharded` workload). Each is one call into
//! [`ChaoticEngine`]; the benchmark change that retires that workload
//! deletes this module.

use crate::engine::{ChaoticEngine, ChurnFn, PassStats, RunStats};
use dpr_p2p::peer::PeerTable;

/// Runs every pass on the sequential engine, counting them.
pub struct ShardedExecutor {
    passes: u64,
}

impl ShardedExecutor {
    /// The thread count is ignored: every pass runs on the caller's thread.
    pub fn new(_threads: usize) -> Self {
        ShardedExecutor { passes: 0 }
    }

    /// [`ChaoticEngine::pass`].
    pub fn pass(&mut self, eng: &mut ChaoticEngine, peers: &PeerTable) -> PassStats {
        self.passes += 1;
        eng.pass(peers)
    }

    /// [`ChaoticEngine::run_to_convergence`].
    pub fn run_to_convergence(
        &mut self,
        eng: &mut ChaoticEngine,
        peers: &mut PeerTable,
        churn: Option<&mut ChurnFn<'_>>,
    ) -> RunStats {
        let run = eng.run_to_convergence(peers, churn);
        self.passes += run.passes as u64;
        run
    }

    /// `(passes, 0)`: every pass this executor ran was the sequential
    /// engine's.
    pub fn pass_mix(&self) -> (u64, u64) {
        (self.passes, 0)
    }
}
