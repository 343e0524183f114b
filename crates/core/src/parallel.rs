//! Sharded pass execution: apply in parallel, then *pull* in parallel.
//!
//! A peer in the real system is an independent machine; inside the
//! simulator, one pass is a large data-parallel job (millions of
//! documents for the paper's biggest graphs). The same increment can
//! be *diffused* by its sender or *collected* by its receiver
//! (D-Iteration, PAPERS.md). The sequential engine diffuses: each
//! sender adds into its targets' `pending`. Done from several threads
//! that needs either atomics or a mailbox per thread pair, and every
//! push is then written and read twice. [`ShardedExecutor`] collects
//! instead, the shape of the dysthesis/n exemplar (SNIPPETS.md): dense
//! arrays and an indexed parallel iteration over *targets*.
//!
//! ## Pass structure
//!
//! 1. **Apply** (parallel over contiguous *document* ranges of whole
//!    frontier words). Each worker runs the engine's one apply scan,
//!    `engine::apply_range`, over its range — the sequential pass is
//!    the same scan over the single range `0..n` — and then stages what
//!    the scan listed: the per-link contribution change of every sender
//!    goes into the dense `send` array and the sender is marked. Every
//!    write lands in the worker's own slices, so no synchronization is
//!    needed.
//! 2. **Pull** (parallel over contiguous *target* ranges, cut so each
//!    holds the same number of in-links plus documents, to the nearest
//!    64-document boundary). Each target folds `pending[t] += send[s]`
//!    over its in-neighbours `s` and, if any of them sent, sets its
//!    frontier bit. Again every write is to the worker's own slices.
//!
//! Each phase spawns one scoped thread per range and joins them all
//! before it returns; the calling thread only waits. (Running range 0
//! on the calling thread saves a spawn and loses far more: the kernel
//! tends to start the one spawned worker on the caller's CPU, and the
//! two ranges then run back to back.) Each apply worker *owns* its
//! output lists while it runs — they are moved in and handed back —
//! because `push`-ing into adjacent `Vec` headers of a shared
//! `Vec<Vec<_>>` from two threads false-shares.
//!
//! ## Determinism
//!
//! Results are **bit-identical** to [`ChaoticEngine::pass`] at every
//! thread count, structurally rather than by argument. The apply scan
//! is the sequential engine's own, and nothing in it reads another
//! document's state, so cutting it into ranges changes nothing. The
//! sequential engine then lets each sender, in ascending order, add to
//! its targets in row order, so `pending[t]` receives its increments
//! ordered by sender id, one per link. The
//! transposed graph lists the in-neighbours of `t` in exactly that
//! order — ascending source, one entry per link, duplicates included,
//! whatever the row order of the forward graph — so the pull fold *is*
//! the sequential fold, on the same starting value (the apply phase
//! has finished everywhere before any target pulls, as in the
//! sequential two-phase pass). An in-neighbour that did not send this
//! pass holds `send = −0.0`, the one value IEEE-754 addition leaves
//! every `x` unchanged by (`x + −0.0` has the bits of `x`, for `x` of
//! either zero too), so the inner loop adds unconditionally — no
//! data-dependent branch, which is worth a tenth of the run — and the
//! terms that matter are still the senders' in sender order. Where the
//! ranges are cut changes which thread does a fold, never the fold.
//! Counters are sums and maxima.
//! The dangling-sink term is a floating-point sum, so each worker
//! returns its dangling deltas in document order and the coordinating
//! thread folds them — the sequential order again.
//!
//! Hop models (`dyn FnMut`, deliberately not thread-safe) are charged
//! on the coordinating thread between the phases by
//! `engine::charge_hops`, the walk the sequential engine charges them
//! by: senders ascending, links in row order.
//!
//! ## Density guard
//!
//! A pull pass costs `O(n + links)` however few documents sent, and a
//! threaded pass has a fixed spawn cost; the sequential pass costs
//! `O(n / 64 + dirty · out-degree)`. Measured at 2 threads on a 2-vCPU
//! host (DESIGN.md, "Execution architecture", has the table) the two
//! meet near `dirty ≈ 3n / 4` once the arrays no longer fit in cache,
//! and below roughly 130k dirty documents the sequential pass runs in
//! cache and wins at every density. So a pass whose dirty set is
//! smaller than `max(3n / 4,` [`DEFAULT_AUTO_SEQ_THRESHOLD`]`)` is
//! *delegated* to [`ChaoticEngine::pass_with_hops`], as is every pass
//! when the executor or the host has a single execution unit.
//! Delegation is invisible in results (see above) and visible in
//! wall-clock and in [`ShardedExecutor::pass_mix`].
//!
//! No scenario, flag or subcommand selects this executor: at the two
//! threads the benchmark host has it does not beat the sequential pass
//! (EXPERIMENTS.md has the rows). It stays as the body of the
//! `engine_sharded` benchmark workload and of the bit-identity tests.

use crate::engine::{
    advertise, apply_range, charge_hops, run_passes, ApplyCtx, ApplyOut, ChaoticEngine, ChurnFn,
    HopModel, PassStats, Slab,
};
use crate::RunStats;
use dpr_graph::{CsrGraph, DocId};
use dpr_p2p::peer::PeerTable;
use dpr_telemetry::NOOP;
use std::sync::Arc;

/// Absolute floor of the density guard (see the module docs): a pass
/// with fewer dirty documents than this works in cache, where the
/// diffuse pass costs a few nanoseconds a push and neither a second
/// thread nor its spawn pays, whatever the graph size.
/// [`ShardedExecutor::with_auto_seq_threshold`] replaces it; `0`
/// switches the guard off.
pub const DEFAULT_AUTO_SEQ_THRESHOLD: usize = 131_072;

/// A pull pass pays for itself once at least this many documents in a
/// hundred are dirty (measured break-even, see the module docs).
const PULL_BREAK_EVEN_PERCENT: usize = 75;

/// Everything one apply worker mutates: its document range of the
/// engine and executor arrays, plus the output lists it owns while it
/// runs.
struct ApplyShard<'a> {
    slab: Slab<'a>,
    send: &'a mut [f64],
    sent: &'a mut [bool],
    out: ApplyOut,
}

/// Everything one pull worker mutates: its target range of `pending`
/// and of the frontier.
struct PullShard<'a> {
    /// First document id of the range.
    base: usize,
    pending: &'a mut [f64],
    frontier: &'a mut [u64],
}

/// Multi-threaded pass executor over contiguous document ranges.
///
/// Holds the cross-pass scratch (the dense `send`/`sent` arrays and
/// the workers' output lists), so in steady state `pass` allocates
/// only its per-phase job vectors; hence the `&mut self` receiver.
/// Construct once per run and reuse — across engines too: what a pass
/// leaves in the scratch the next pass's apply phase resets.
#[derive(Debug)]
pub struct ShardedExecutor {
    threads: usize,
    /// Floor of the density guard; `0` switches the guard off.
    auto_seq_threshold: usize,
    /// Host parallelism cached at construction: when the hardware has
    /// a single execution unit, threading is pure overhead at *any*
    /// work size, so the guard delegates every pass.
    hw_threads: usize,
    /// Whether the most recent pass was delegated.
    delegated: bool,
    /// Cumulative pass counts by decision, for benches.
    delegated_passes: u64,
    sharded_passes: u64,
    /// Per-link contribution change of each document that sent this
    /// pass, and `−0.0` — the additive identity, bit for bit — for
    /// every other document.
    send: Vec<f64>,
    /// Whether the document sent this pass. Each apply worker resets
    /// its range of both arrays before it stages anything, so what the
    /// previous pass left (on this engine or another of equal size)
    /// cannot leak.
    sent: Vec<bool>,
    /// Per-shard apply outputs, kept between passes for their capacity.
    applied: Vec<ApplyOut>,
}

impl ShardedExecutor {
    /// An executor with `threads` worker threads (at least 1), one
    /// document range per thread and phase.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        ShardedExecutor {
            threads,
            auto_seq_threshold: DEFAULT_AUTO_SEQ_THRESHOLD,
            hw_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            delegated: false,
            delegated_passes: 0,
            sharded_passes: 0,
            send: Vec::new(),
            sent: Vec::new(),
            applied: vec![ApplyOut::default(); threads],
        }
    }

    /// This executor with the density guard's floor set to `docs`:
    /// passes whose dirty set is smaller than `max(docs, 3n / 4)`
    /// delegate to the sequential engine. `0` disables delegation
    /// altogether (every pass runs apply + pull, on one thread if the
    /// executor has one); benches and differential tests use that to
    /// measure and pin the sharded path itself.
    pub fn with_auto_seq_threshold(mut self, docs: usize) -> Self {
        self.auto_seq_threshold = docs;
        self
    }

    /// Whether the most recent pass was delegated to the sequential
    /// engine by the density guard.
    pub fn last_pass_delegated(&self) -> bool {
        self.delegated
    }

    /// Cumulative `(delegated, sharded)` pass counts over this
    /// executor's lifetime — how often the density guard fired.
    /// `sharded == 0` means every pass ran the sequential engine's
    /// exact code path (the wall-clock is then definitionally the
    /// sequential wall-clock).
    pub fn pass_mix(&self) -> (u64, u64) {
        (self.delegated_passes, self.sharded_passes)
    }

    /// Executes one pass, bit-identical to [`ChaoticEngine::pass`]
    /// (see the module docs for why).
    pub fn pass(&mut self, eng: &mut ChaoticEngine, peers: &PeerTable) -> PassStats {
        self.pass_with_hops(eng, peers, None)
    }

    /// [`ShardedExecutor::pass`] with an optional hop model, charged
    /// in the sequential engine's exact call order.
    pub fn pass_with_hops(
        &mut self,
        eng: &mut ChaoticEngine,
        peers: &PeerTable,
        hop_model: Option<&mut HopModel<'_>>,
    ) -> PassStats {
        // The density guard, checked against the pre-selection frontier
        // so the decision is scheduler-mode independent. Results are
        // bit-identical either way; only the wall-clock and the
        // pass-mix counters can tell.
        let n = eng.graph().num_nodes();
        self.delegated = self.auto_seq_threshold > 0
            && (self.threads.min(self.hw_threads) <= 1
                || eng.active_docs()
                    < self
                        .auto_seq_threshold
                        .max(n * PULL_BREAK_EVEN_PERCENT / 100));
        if self.delegated {
            self.delegated_passes += 1;
            return eng.pass_with_hops(peers, hop_model);
        }
        self.sharded_passes += 1;
        // Selection runs on this thread via the same engine routine
        // the sequential pass uses, so the selected set — and with it
        // the whole pass — is independent of the shard layout.
        let mut stats = eng.begin_pass();
        if eng.is_quiescent() {
            return stats;
        }
        self.send.resize(n, -0.0);
        self.sent.resize(n, false);
        let remote_out = eng.remote_out();
        let inbound = Arc::clone(
            eng.inbound
                .get_or_insert_with(|| Arc::new(eng.graph.transpose())),
        );
        let shards = self.threads;
        let cfg = eng.config();
        let graph: &CsrGraph = eng.graph.as_ref();

        // Phase 1: apply, parallel over document ranges of whole
        // frontier words.
        let ctx = ApplyCtx {
            graph,
            owner: &eng.owner,
            remote_out: &remote_out,
            peers,
            epsilon: cfg.epsilon,
        };
        let chunk = n.div_ceil(64).div_ceil(shards) * 64;
        let bounds: Vec<usize> = (0..=shards).map(|k| (k * chunk).min(n)).collect();
        let mut jobs = Vec::with_capacity(shards);
        {
            let mut frontier = &mut eng.frontier.words[..];
            let mut ranks = &mut eng.ranks[..];
            let mut advertised = &mut eng.advertised[..];
            let mut pending = &mut eng.pending[..];
            let mut send = &mut self.send[..];
            let mut sent = &mut self.sent[..];
            for (k, out) in self.applied.iter_mut().enumerate() {
                let len = bounds[k + 1] - bounds[k];
                jobs.push(ApplyShard {
                    slab: Slab {
                        base: bounds[k],
                        frontier: take_front(&mut frontier, words_between(&bounds, k)),
                        ranks: take_front(&mut ranks, len),
                        advertised: take_front(&mut advertised, len),
                        pending: take_front(&mut pending, len),
                    },
                    send: take_front(&mut send, len),
                    sent: take_front(&mut sent, len),
                    out: std::mem::take(out),
                });
            }
        }
        let applied = run_shards(jobs, |sh| apply_shard(sh, &ctx, cfg.damping));

        // Fold the workers' outputs in shard order, which for the one
        // floating-point sum among them is document order.
        for (slot, (out, st)) in self.applied.iter_mut().zip(applied) {
            stats.applied += st.applied;
            stats.senders += st.senders;
            stats.remote_messages += st.remote_messages;
            stats.local_updates += st.local_updates;
            stats.max_relative_change = stats.max_relative_change.max(st.max_relative_change);
            for gap in &out.dangling {
                eng.dangling_advertised += gap;
            }
            *slot = out;
        }

        // Hop charging: the model is `FnMut` and stateful, so it runs
        // on this thread, in the sequential engine's call order.
        stats.hops = match hop_model {
            Some(model) => {
                let senders = self.applied.iter().flat_map(|o| o.senders.iter().copied());
                charge_hops(graph, &eng.owner, senders, model)
            }
            None => stats.remote_messages,
        };

        // Phase 2: pull, parallel over target ranges, the balanced cut
        // moved to the nearest 64-document boundary so that each range
        // owns whole frontier words.
        let mut bounds = balanced_bounds(&inbound, shards);
        for b in &mut bounds[1..shards] {
            *b = ((*b + 32) / 64 * 64).min(n);
        }
        let mut jobs = Vec::with_capacity(shards);
        {
            let mut pending = &mut eng.pending[..];
            let mut frontier = &mut eng.frontier.words[..];
            for k in 0..shards {
                jobs.push(PullShard {
                    base: bounds[k],
                    pending: take_front(&mut pending, bounds[k + 1] - bounds[k]),
                    frontier: take_front(&mut frontier, words_between(&bounds, k)),
                });
            }
        }
        let (send, sent) = (&self.send[..], &self.sent[..]);
        run_shards(jobs, |sh| pull_range(sh, &inbound, send, sent));
        eng.finish_pass();
        stats
    }

    /// Runs parallel passes until quiescence or the engine's pass
    /// budget is exhausted. Returns the same [`RunStats`] shape as the
    /// sequential runner; `churn` runs between passes.
    pub fn run_to_convergence(
        &mut self,
        eng: &mut ChaoticEngine,
        peers: &mut PeerTable,
        churn: Option<&mut ChurnFn<'_>>,
    ) -> RunStats {
        run_passes(eng, peers, churn, &NOOP, "run", |eng, peers| {
            self.pass(eng, peers)
        })
    }
}

/// Cuts the first `len` elements off `rest` and returns them.
fn take_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// How many frontier words the document range `bounds[k]..bounds[k + 1]`
/// owns, every boundary but the last being a multiple of 64.
fn words_between(bounds: &[usize], k: usize) -> usize {
    bounds[k + 1].div_ceil(64) - bounds[k].div_ceil(64)
}

/// Runs `f` over every job, each on a scoped thread of its own (a
/// lone job on the calling thread), and returns the results in job
/// order.
fn run_shards<J: Send, R: Send>(jobs: Vec<J>, f: impl Fn(J) -> R + Sync) -> Vec<R> {
    if jobs.len() == 1 {
        return jobs.into_iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = jobs
            .into_iter()
            .map(|job| scope.spawn(move || f(job)))
            .collect();
        spawned
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

/// Cuts the rows of `inbound` into `shards` contiguous ranges of equal
/// weight, one unit per row plus one per entry, and returns the
/// `shards + 1` boundaries. The weight before row `t` is
/// `offsets[t] + t`, strictly increasing, so the boundaries are
/// monotone; a row heavier than a whole share leaves its neighbours'
/// ranges short or empty.
fn balanced_bounds(inbound: &CsrGraph, shards: usize) -> Vec<usize> {
    let offsets = inbound.offsets();
    let n = inbound.num_nodes();
    let total = inbound.num_edges() + n;
    (0..=shards)
        .map(|k| {
            let goal = total * k / shards;
            let (mut lo, mut hi) = (0, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if (offsets[mid] as usize + mid) < goal {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        })
        .collect()
}

/// Phase 1 for one document range: the engine's apply scan, then the
/// collecting side's half of the emission — each sender's contribution
/// change staged in `send` for the targets to pull.
fn apply_shard(mut sh: ApplyShard<'_>, ctx: &ApplyCtx<'_>, damping: f64) -> (ApplyOut, PassStats) {
    sh.send.fill(-0.0);
    sh.sent.fill(false);
    let mut stats = PassStats::default();
    apply_range(&mut sh.slab, ctx, &mut sh.out, &mut stats);
    for &s in &sh.out.senders {
        let li = s as usize - sh.slab.base;
        sh.send[li] = advertise(
            sh.slab.ranks[li],
            &mut sh.slab.advertised[li],
            damping,
            ctx.graph.out_degree(DocId(s)),
        );
        sh.sent[li] = true;
    }
    (sh.out, stats)
}

/// Phase 2 for one target range: every target folds the `send` values
/// of its in-neighbours into its `pending`, in in-row order (ascending
/// sender, one term per link; `−0.0` from those that did not send),
/// and if any did send joins the frontier.
fn pull_range(sh: PullShard<'_>, inbound: &CsrGraph, send: &[f64], sent: &[bool]) {
    for li in 0..sh.pending.len() {
        let t = (sh.base + li) as u32;
        let mut acc = sh.pending[li];
        let mut hit = false;
        for &s in inbound.out_neighbors(DocId(t)) {
            acc += send[s as usize];
            hit |= sent[s as usize];
        }
        if hit {
            sh.pending[li] = acc;
            sh.frontier[li / 64] |= 1 << (li % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use dpr_graph::powerlaw::paper_graph;
    use dpr_p2p::peer::PeerId;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn owners(n: usize, peers: u32, seed: u64) -> Vec<PeerId> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| PeerId(rng.gen_range(0..peers))).collect()
    }

    #[test]
    fn parallel_pass_is_bit_identical_to_sequential() {
        let g = paper_graph(2_000, 51);
        let n = g.num_nodes();
        let own = owners(n, 20, 1);
        let cfg = EngineConfig::with_epsilon(1e-5);
        let mut seq = ChaoticEngine::new(Arc::new(g.clone()), own.clone(), cfg);
        let mut par = ChaoticEngine::new(Arc::new(g), own, cfg);
        let peers = PeerTable::new(20);
        let mut exec = ShardedExecutor::new(4).with_auto_seq_threshold(0);
        for pass in 0..200 {
            if seq.is_quiescent() {
                break;
            }
            let s1 = seq.pass(&peers);
            let s2 = exec.pass(&mut par, &peers);
            assert_eq!(s1, s2, "pass {pass}");
        }
        assert!(seq.is_quiescent() && par.is_quiescent());
        // Bit-identical final state.
        assert_eq!(seq.ranks(), par.ranks());
    }

    #[test]
    fn parallel_respects_churn() {
        let g = paper_graph(800, 52);
        let n = g.num_nodes();
        let own = owners(n, 10, 2);
        let cfg = EngineConfig::with_epsilon(1e-3);
        let mut eng = ChaoticEngine::new(Arc::new(g), own, cfg);
        let mut peers = PeerTable::new(10);
        let mut exec = ShardedExecutor::new(3).with_auto_seq_threshold(0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut churn = move |_pass: usize, p: &mut PeerTable| {
            p.set_online_fraction(0.5, &mut rng);
        };
        let run = exec.run_to_convergence(&mut eng, &mut peers, Some(&mut churn));
        assert!(run.converged, "passes {}", run.passes);
        assert!(run.passes > 0);
    }

    #[test]
    fn churned_run_matches_sequential_bitwise() {
        let g = paper_graph(1_200, 55);
        let n = g.num_nodes();
        let own = owners(n, 16, 7);
        let cfg = EngineConfig::with_epsilon(1e-4);
        let mut seq = ChaoticEngine::new(Arc::new(g.clone()), own.clone(), cfg);
        let mut par = ChaoticEngine::new(Arc::new(g), own, cfg);
        let mut exec = ShardedExecutor::new(4).with_auto_seq_threshold(0);
        let mut peers_seq = PeerTable::new(16);
        let mut peers_par = PeerTable::new(16);
        // Identical churn schedules on both sides (independent rngs,
        // same seed).
        let mut rng_seq = ChaCha8Rng::seed_from_u64(9);
        let mut rng_par = ChaCha8Rng::seed_from_u64(9);
        let mut churn_seq = move |_p: usize, t: &mut PeerTable| {
            t.set_online_fraction(0.6, &mut rng_seq);
        };
        let mut churn_par = move |_p: usize, t: &mut PeerTable| {
            t.set_online_fraction(0.6, &mut rng_par);
        };
        let r1 = seq.run_to_convergence(&mut peers_seq, Some(&mut churn_seq));
        let r2 = exec.run_to_convergence(&mut par, &mut peers_par, Some(&mut churn_par));
        assert!(r1.converged && r2.converged);
        assert_eq!(r1.passes, r2.passes);
        assert_eq!(r1.per_pass, r2.per_pass);
        assert_eq!(seq.ranks(), par.ranks());
    }

    #[test]
    fn single_thread_executor_also_matches() {
        let g = paper_graph(500, 53);
        let n = g.num_nodes();
        let own = owners(n, 5, 4);
        let cfg = EngineConfig::with_epsilon(1e-4);
        let mut seq = ChaoticEngine::new(Arc::new(g.clone()), own.clone(), cfg);
        let mut par = ChaoticEngine::new(Arc::new(g), own, cfg);
        let mut peers1 = PeerTable::new(5);
        let mut peers2 = PeerTable::new(5);
        let run1 = seq.run_to_convergence(&mut peers1, None);
        let run2 = ShardedExecutor::new(1).run_to_convergence(&mut par, &mut peers2, None);
        assert_eq!(run1.passes, run2.passes);
        assert_eq!(run1.total_remote_messages, run2.total_remote_messages);
        assert_eq!(seq.ranks(), par.ranks());
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let g = paper_graph(1_500, 56);
        let n = g.num_nodes();
        let own = owners(n, 12, 5);
        let cfg = EngineConfig::with_epsilon(1e-5);
        let mut reference: Option<Vec<f64>> = None;
        for threads in [1usize, 2, 3, 4, 8] {
            let mut eng = ChaoticEngine::new(Arc::new(g.clone()), own.clone(), cfg);
            let mut peers = PeerTable::new(12);
            let run = ShardedExecutor::new(threads).run_to_convergence(&mut eng, &mut peers, None);
            assert!(run.converged);
            match &reference {
                None => reference = Some(eng.ranks().to_vec()),
                Some(r) => assert_eq!(r.as_slice(), eng.ranks(), "threads {threads}"),
            }
        }
    }

    #[test]
    fn hop_model_charged_in_sequential_order() {
        let g = paper_graph(600, 57);
        let n = g.num_nodes();
        let own = owners(n, 8, 6);
        let cfg = EngineConfig::with_epsilon(1e-4);
        let mut seq = ChaoticEngine::new(Arc::new(g.clone()), own.clone(), cfg);
        let mut par = ChaoticEngine::new(Arc::new(g), own, cfg);
        let peers = PeerTable::new(8);
        let mut exec = ShardedExecutor::new(4).with_auto_seq_threshold(0);
        // A stateful model whose answer depends on call order: parity
        // of calls so far. Any reordering shows up in `hops`.
        let mut calls_seq = 0u64;
        let mut model_seq = |_s: PeerId, _d: PeerId, _doc: DocId| {
            calls_seq += 1;
            (calls_seq % 3) as u32
        };
        let mut calls_par = 0u64;
        let mut model_par = |_s: PeerId, _d: PeerId, _doc: DocId| {
            calls_par += 1;
            (calls_par % 3) as u32
        };
        while !seq.is_quiescent() {
            let s1 = seq.pass_with_hops(&peers, Some(&mut model_seq));
            let s2 = exec.pass_with_hops(&mut par, &peers, Some(&mut model_par));
            assert_eq!(s1, s2);
        }
        assert!(par.is_quiescent());
        assert_eq!(seq.ranks(), par.ranks());
    }

    #[test]
    fn pass_on_quiescent_engine_is_a_noop() {
        let g = paper_graph(200, 54);
        let mut eng = ChaoticEngine::local(Arc::new(g), EngineConfig::with_epsilon(1e-3));
        eng.run_static();
        assert!(eng.is_quiescent());
        let mut exec = ShardedExecutor::new(2);
        let peers = PeerTable::new(1);
        let before = eng.ranks().to_vec();
        let s = exec.pass(&mut eng, &peers);
        assert_eq!(s.remote_messages + s.local_updates + s.applied, 0);
        assert_eq!(eng.ranks(), &before[..]);
    }

    #[test]
    fn executor_reuse_across_engines_of_different_sizes() {
        let mut exec = ShardedExecutor::new(3).with_auto_seq_threshold(0);
        for (n, seed) in [(300usize, 60u64), (900, 61), (300, 62)] {
            let g = paper_graph(n, seed);
            let own = owners(n, 6, seed);
            let cfg = EngineConfig::with_epsilon(1e-4);
            let mut seq = ChaoticEngine::new(Arc::new(g.clone()), own.clone(), cfg);
            let mut par = ChaoticEngine::new(Arc::new(g), own, cfg);
            let mut p1 = PeerTable::new(6);
            let mut p2 = PeerTable::new(6);
            seq.run_to_convergence(&mut p1, None);
            exec.run_to_convergence(&mut par, &mut p2, None);
            assert_eq!(seq.ranks(), par.ranks(), "n = {n}");
        }
    }

    #[test]
    fn priority_parallel_is_bit_identical_to_sequential_priority() {
        let g = paper_graph(2_000, 64);
        let n = g.num_nodes();
        let own = owners(n, 20, 14);
        let cfg = EngineConfig::with_epsilon(1e-5).with_sched(crate::SchedMode::Priority);
        let mut seq = ChaoticEngine::new(Arc::new(g.clone()), own.clone(), cfg);
        let mut par = ChaoticEngine::new(Arc::new(g), own, cfg);
        let peers = PeerTable::new(20);
        let mut exec = ShardedExecutor::new(4).with_auto_seq_threshold(0);
        let mut pass = 0;
        while !seq.is_quiescent() {
            pass += 1;
            let s1 = seq.pass(&peers);
            let s2 = exec.pass(&mut par, &peers);
            assert_eq!(s1, s2, "pass {pass}");
            assert!(pass < 10_000);
        }
        assert!(par.is_quiescent());
        assert_eq!(seq.ranks(), par.ranks());
    }

    #[test]
    fn priority_thread_counts_agree_bitwise() {
        let g = paper_graph(1_500, 65);
        let n = g.num_nodes();
        let own = owners(n, 12, 15);
        let cfg = EngineConfig::with_epsilon(1e-5).with_sched(crate::SchedMode::Priority);
        let mut reference: Option<Vec<f64>> = None;
        for threads in [1usize, 2, 3, 4, 8] {
            let mut eng = ChaoticEngine::new(Arc::new(g.clone()), own.clone(), cfg);
            let mut peers = PeerTable::new(12);
            let run = ShardedExecutor::new(threads).run_to_convergence(&mut eng, &mut peers, None);
            assert!(run.converged);
            match &reference {
                None => reference = Some(eng.ranks().to_vec()),
                Some(r) => assert_eq!(r.as_slice(), eng.ranks(), "threads {threads}"),
            }
        }
    }

    #[test]
    fn greedy_parallel_is_bit_identical_to_sequential_greedy() {
        let g = paper_graph(2_000, 64);
        let n = g.num_nodes();
        let own = owners(n, 20, 14);
        let cfg = EngineConfig::with_epsilon(1e-5).with_sched(crate::SchedMode::Greedy);
        let mut seq = ChaoticEngine::new(Arc::new(g.clone()), own.clone(), cfg);
        let mut par = ChaoticEngine::new(Arc::new(g), own, cfg);
        let peers = PeerTable::new(20);
        let mut exec = ShardedExecutor::new(4).with_auto_seq_threshold(0);
        let mut pass = 0;
        while !seq.is_quiescent() {
            pass += 1;
            let s1 = seq.pass(&peers);
            let s2 = exec.pass(&mut par, &peers);
            assert_eq!(s1, s2, "pass {pass}");
            assert!(pass < 10_000);
        }
        assert!(par.is_quiescent());
        assert_eq!(seq.ranks(), par.ranks());
    }

    #[test]
    fn greedy_thread_counts_agree_bitwise() {
        let g = paper_graph(1_500, 65);
        let n = g.num_nodes();
        let own = owners(n, 12, 15);
        let cfg = EngineConfig::with_epsilon(1e-5).with_sched(crate::SchedMode::Greedy);
        let mut reference: Option<Vec<f64>> = None;
        for threads in [1usize, 2, 3, 4, 8] {
            let mut eng = ChaoticEngine::new(Arc::new(g.clone()), own.clone(), cfg);
            let mut peers = PeerTable::new(12);
            let run = ShardedExecutor::new(threads).run_to_convergence(&mut eng, &mut peers, None);
            assert!(run.converged);
            match &reference {
                None => reference = Some(eng.ranks().to_vec()),
                Some(r) => assert_eq!(r.as_slice(), eng.ranks(), "threads {threads}"),
            }
        }
    }

    #[test]
    fn priority_churned_run_matches_sequential_bitwise() {
        let g = paper_graph(1_200, 66);
        let n = g.num_nodes();
        let own = owners(n, 16, 16);
        let cfg = EngineConfig::with_epsilon(1e-4).with_sched(crate::SchedMode::Priority);
        let mut seq = ChaoticEngine::new(Arc::new(g.clone()), own.clone(), cfg);
        let mut par = ChaoticEngine::new(Arc::new(g), own, cfg);
        let mut exec = ShardedExecutor::new(4).with_auto_seq_threshold(0);
        let mut peers_seq = PeerTable::new(16);
        let mut peers_par = PeerTable::new(16);
        let mut rng_seq = ChaCha8Rng::seed_from_u64(17);
        let mut rng_par = ChaCha8Rng::seed_from_u64(17);
        let mut churn_seq = move |_p: usize, t: &mut PeerTable| {
            t.set_online_fraction(0.6, &mut rng_seq);
        };
        let mut churn_par = move |_p: usize, t: &mut PeerTable| {
            t.set_online_fraction(0.6, &mut rng_par);
        };
        let r1 = seq.run_to_convergence(&mut peers_seq, Some(&mut churn_seq));
        let r2 = exec.run_to_convergence(&mut par, &mut peers_par, Some(&mut churn_par));
        assert!(r1.converged && r2.converged);
        assert_eq!(r1.per_pass, r2.per_pass);
        assert_eq!(seq.ranks(), par.ranks());
    }

    #[test]
    fn auto_seq_guard_delegates_small_passes_bit_identically() {
        // 2k docs is far below the default threshold, so every pass
        // must delegate — and the result must still be bit-identical
        // to the sequential engine (trivially: it *is* the sequential
        // engine), with the decision visible in the pass mix.
        let g = paper_graph(2_000, 67);
        let n = g.num_nodes();
        let own = owners(n, 10, 18);
        let cfg = EngineConfig::with_epsilon(1e-5);
        let mut seq = ChaoticEngine::new(Arc::new(g.clone()), own.clone(), cfg);
        let mut par = ChaoticEngine::new(Arc::new(g), own, cfg);
        let mut p1 = PeerTable::new(10);
        let mut p2 = PeerTable::new(10);
        let r1 = seq.run_to_convergence(&mut p1, None);
        let mut exec = ShardedExecutor::new(4);
        let r2 = exec.run_to_convergence(&mut par, &mut p2, None);
        assert!(exec.last_pass_delegated());
        assert_eq!(r1.per_pass, r2.per_pass);
        assert_eq!(seq.ranks(), par.ranks());
        assert_eq!(
            exec.pass_mix(),
            (r2.passes as u64, 0),
            "every pass below the threshold delegates"
        );
    }

    #[test]
    fn forced_sharded_path_reports_no_delegation() {
        let g = paper_graph(1_000, 68);
        let n = g.num_nodes();
        let own = owners(n, 8, 19);
        let cfg = EngineConfig::with_epsilon(1e-4);
        let mut eng = ChaoticEngine::new(Arc::new(g), own, cfg);
        let mut peers = PeerTable::new(8);
        let mut exec = ShardedExecutor::new(4).with_auto_seq_threshold(0);
        let run = exec.run_to_convergence(&mut eng, &mut peers, None);
        assert!(run.converged);
        assert!(!exec.last_pass_delegated());
        assert_eq!(exec.pass_mix(), (0, run.passes as u64));
    }

    #[test]
    fn observed_residual_series_is_monotone_non_increasing() {
        use dpr_telemetry::{Event, TraceRecorder};
        let g = paper_graph(900, 63);
        let n = g.num_nodes();
        let own = owners(n, 8, 13);
        let cfg = EngineConfig::with_epsilon(1e-4);
        let mut eng = ChaoticEngine::new(Arc::new(g), own, cfg);
        let rec = TraceRecorder::new();
        let run = eng.run_observed(&mut PeerTable::new(8), None, &rec, "mono");
        assert!(run.converged);
        let mut prev: Option<f64> = None;
        let mut pass_seen = 0u64;
        for e in rec.events() {
            if let Event::ConvergenceCheck { pass, residual, .. } = e {
                pass_seen = pass;
                if let Some(p) = prev {
                    assert!(residual <= p * (1.0 + 1e-9) + 1e-12, "{residual} > {p}");
                }
                prev = Some(residual);
            }
        }
        assert!(pass_seen > 1);
    }

    // ---- raw-CSR differential: what `GraphBuilder` graphs cannot reach ----

    use crate::SchedMode;
    use proptest::prelude::*;

    /// Everything a pass may change, compared with `==` (bits for the
    /// floats: no value here is NaN).
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        ranks: Vec<f64>,
        pending: Vec<f64>,
        advertised: Vec<f64>,
        /// The frontier's bits and its count.
        frontier: (Vec<u64>, usize),
        mass: dpr_telemetry::MassBreakdown,
    }

    fn snapshot(eng: &ChaoticEngine) -> Snapshot {
        Snapshot {
            ranks: eng.ranks.clone(),
            pending: eng.pending.clone(),
            advertised: eng.advertised.clone(),
            frontier: (eng.frontier.words.clone(), eng.frontier.len()),
            mass: eng.mass_breakdown(),
        }
    }

    /// What happens around one pass of a scripted run.
    #[derive(Debug, Clone)]
    struct Step {
        /// Peers offline during the pass (peer 0 never is, so every
        /// script can make progress).
        offline: Vec<bool>,
        /// An increment injected before the pass.
        inject: Option<(u32, f64)>,
    }

    /// Strategy: a CSR graph straight from parts — rows unsorted, with
    /// duplicate links and self-loops — as `(n, rows)`.
    fn arb_raw_rows(max_nodes: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
        (2..max_nodes).prop_flat_map(|n| prop_vec(prop_vec(0..n as u32, 0..7), n..n + 1))
    }

    fn raw_graph(rows: &[Vec<u32>]) -> Arc<CsrGraph> {
        let mut offsets = vec![0u64];
        let mut targets = Vec::new();
        for row in rows {
            targets.extend_from_slice(row);
            offsets.push(targets.len() as u64);
        }
        Arc::new(CsrGraph::from_parts(offsets, targets))
    }

    fn arb_script(n: usize, num_peers: usize) -> impl Strategy<Value = Vec<Step>> {
        let inject = (any::<bool>(), 0..n as u32, -0.75..0.75f64);
        let step = (prop_vec(any::<bool>(), num_peers..num_peers + 1), inject).prop_map(
            |(mut offline, (on, doc, delta))| {
                offline[0] = false;
                Step {
                    offline,
                    inject: on.then_some((doc, delta)),
                }
            },
        );
        prop_vec(step, 1..25)
    }

    /// Runs `script` pass by pass and returns what each pass returned
    /// and left behind, plus the hop model's calls in order.
    /// `threads == 0` is the sequential engine. The model's answer
    /// depends on how many calls came before, so a reordering shows in
    /// `PassStats::hops` as well as in the log.
    #[allow(clippy::type_complexity)]
    fn scripted_run(
        graph: &Arc<CsrGraph>,
        owner: &[PeerId],
        sched: SchedMode,
        script: &[Step],
        threads: usize,
    ) -> (Vec<(PassStats, Snapshot)>, Vec<(PeerId, PeerId, DocId)>) {
        let cfg = EngineConfig::with_epsilon(1e-3).with_sched(sched);
        let mut eng = ChaoticEngine::new(graph.clone(), owner.to_vec(), cfg);
        let mut peers = PeerTable::new(script[0].offline.len());
        let mut exec = ShardedExecutor::new(threads.max(1)).with_auto_seq_threshold(0);
        let mut calls = Vec::new();
        let mut model = |s: PeerId, d: PeerId, doc: DocId| {
            calls.push((s, d, doc));
            (calls.len() % 3) as u32
        };
        let mut passes = Vec::new();
        for step in script {
            for (i, &off) in step.offline.iter().enumerate() {
                if off {
                    peers.go_offline(PeerId(i as u32));
                } else {
                    peers.go_online(PeerId(i as u32));
                }
            }
            if let Some((doc, delta)) = step.inject {
                eng.inject_delta(DocId(doc), delta);
            }
            let stats = if threads == 0 {
                eng.pass_with_hops(&peers, Some(&mut model))
            } else {
                exec.pass_with_hops(&mut eng, &peers, Some(&mut model))
            };
            passes.push((stats, snapshot(&eng)));
        }
        (passes, calls)
    }

    proptest! {
        /// Graphs `GraphBuilder` never makes × random owners × a
        /// random offline mask and injection per pass × every
        /// scheduler × thread counts on both sides of `n`: the sharded
        /// pass returns and leaves behind exactly what the sequential
        /// one does, and calls the hop model in the same sequence.
        #[test]
        fn raw_csr_scripted_runs_match_sequential(
            (rows, owner, script) in arb_raw_rows(200).prop_flat_map(|rows| {
                let n = rows.len();
                (1..6usize).prop_flat_map(move |num_peers| (
                    Just(rows.clone()),
                    prop_vec(0..num_peers as u32, n..n + 1),
                    arb_script(n, num_peers),
                ))
            }),
        ) {
            let graph = raw_graph(&rows);
            let owner: Vec<PeerId> = owner.into_iter().map(PeerId).collect();
            for sched in [SchedMode::Pass, SchedMode::Priority, SchedMode::Greedy] {
                let want = scripted_run(&graph, &owner, sched, &script, 0);
                for threads in [1usize, 2, 3, 5, 8] {
                    let got = scripted_run(&graph, &owner, sched, &script, threads);
                    prop_assert_eq!(&got, &want, "{} at {} threads", sched, threads);
                }
            }
        }
    }

    /// Two engines driven to quiescence pass for pass, one sequentially
    /// and one through `exec`, agreeing on everything after every pass.
    fn assert_lockstep(exec: &mut ShardedExecutor, seq: &mut ChaoticEngine, peers: &PeerTable) {
        let mut par = seq.clone();
        while !seq.is_quiescent() {
            assert_eq!(seq.pass(peers), exec.pass(&mut par, peers));
            assert!(!exec.last_pass_delegated());
            assert_eq!(snapshot(seq), snapshot(&par));
        }
    }

    #[test]
    fn hub_holding_most_in_links_leaves_short_target_ranges() {
        // Every document links to the hub three times and to its
        // successor once: the hub's row of the transpose outweighs
        // everything else together, so at 2 threads the first target
        // range is the hub's alone and at 5 two are empty.
        let n = 60u32;
        let hub = 0u32;
        let rows: Vec<Vec<u32>> = (0..n).map(|d| vec![hub, (d + 1) % n, hub, hub]).collect();
        let graph = raw_graph(&rows);
        let inbound = graph.transpose();
        assert!(inbound.out_degree(DocId(hub)) > graph.num_edges() / 2);
        for threads in [2usize, 5] {
            let bounds = balanced_bounds(&inbound, threads);
            assert_eq!((bounds[0], bounds[threads]), (0, n as usize));
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "{bounds:?}");
            // The hub alone, then `threads / 2 - 1` empty ranges.
            let want_ones = threads / 2;
            assert!(bounds[1..=want_ones].iter().all(|&b| b == 1), "{bounds:?}");
            let mut seq = ChaoticEngine::new(
                graph.clone(),
                owners(n as usize, 4, 70),
                EngineConfig::with_epsilon(1e-6),
            );
            let mut exec = ShardedExecutor::new(threads).with_auto_seq_threshold(0);
            assert_lockstep(&mut exec, &mut seq, &PeerTable::new(4));
        }
    }

    #[test]
    fn more_threads_than_documents() {
        let graph = raw_graph(&[vec![1, 2], vec![2], vec![0, 0]]);
        let mut seq = ChaoticEngine::new(graph, owners(3, 2, 71), EngineConfig::with_epsilon(1e-9));
        let mut exec = ShardedExecutor::new(8).with_auto_seq_threshold(0);
        assert_lockstep(&mut exec, &mut seq, &PeerTable::new(2));
    }

    #[test]
    fn one_executor_alternating_between_two_engines_of_equal_size() {
        // Same `n`, different graph, different owner map: whatever the
        // executor keeps between passes must not carry from one engine
        // into the other.
        let n = 400;
        let cfg = EngineConfig::with_epsilon(1e-5);
        let mut seq_a = ChaoticEngine::new(Arc::new(paper_graph(n, 72)), owners(n, 7, 73), cfg);
        let mut seq_b = ChaoticEngine::new(Arc::new(paper_graph(n, 74)), owners(n, 3, 75), cfg);
        let (mut par_a, mut par_b) = (seq_a.clone(), seq_b.clone());
        let peers = PeerTable::new(7);
        let mut exec = ShardedExecutor::new(3).with_auto_seq_threshold(0);
        while !(seq_a.is_quiescent() && seq_b.is_quiescent()) {
            for (seq, par) in [(&mut seq_a, &mut par_a), (&mut seq_b, &mut par_b)] {
                if !seq.is_quiescent() {
                    assert_eq!(seq.pass(&peers), exec.pass(par, &peers));
                    assert_eq!(snapshot(seq), snapshot(par));
                }
            }
        }
        assert_ne!(seq_a.ranks(), seq_b.ranks());
    }
}
