//! The distributed chaotic-iteration PageRank engine (paper Fig. 1).
//!
//! ## Algorithm
//!
//! Every document keeps its current rank and the rank it last
//! *advertised* to its out-links. Whenever the two differ by more than
//! the error threshold ε (relative), the document sends each out-link
//! the change in its forwarded contribution,
//! `d · (rank − advertised) / N`, and advertises the new rank. A
//! receiving document simply adds the increment. This increment
//! formulation is exactly the chaotic Jacobi iteration of the paper —
//! and it is also what Sec. 3.1 prescribes for document inserts
//! (propagate the initial rank) and deletes (propagate the negated
//! rank), so static computation and incremental updates are one
//! mechanism.
//!
//! ## Simulation semantics (paper Sec. 4.2)
//!
//! Execution is pass-based: in each pass all *online* peers
//! concurrently (1) apply every increment addressed to their
//! documents, then (2) emit new increments for documents whose rank
//! moved more than ε. Messages emitted in pass `k` are visible in
//! pass `k + 1`. Increments addressed to documents on offline peers
//! stay parked until their peer returns (the store-and-resend protocol
//! of Sec. 3.1). Links between two documents on the same peer update
//! "without need for network update messages" and are therefore
//! counted separately from remote messages.
//!
//! The computation has converged when no increment is parked or in
//! flight anywhere — every document's successive difference is then
//! below ε, the paper's "very strong convergence criterion".

use crate::sched::{self, SchedMode, SchedStats};
use dpr_graph::{CsrGraph, DocId};
use dpr_p2p::peer::{PeerId, PeerTable};
use dpr_telemetry::{Event, Metric, Recorder, NOOP};
use std::sync::Arc;
use std::time::Instant;

/// Tuning of the chaotic engine.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct EngineConfig {
    /// Damping factor `d`.
    pub damping: f64,
    /// Error threshold ε: a document re-advertises its rank only when
    /// the relative change exceeds this.
    pub epsilon: f64,
    /// Safety cap on passes for [`ChaoticEngine::run_to_convergence`].
    pub max_passes: usize,
    /// How each pass schedules the queued documents (full sweep vs
    /// residual-driven priority selection).
    pub sched: SchedMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            damping: crate::DEFAULT_DAMPING,
            epsilon: crate::RECOMMENDED_EPSILON,
            max_passes: 10_000,
            sched: SchedMode::Pass,
        }
    }
}

impl EngineConfig {
    /// Config with a specific ε and defaults elsewhere.
    pub fn with_epsilon(epsilon: f64) -> Self {
        EngineConfig {
            epsilon,
            ..Default::default()
        }
    }

    /// This config with the given scheduling mode.
    pub fn with_sched(mut self, sched: SchedMode) -> Self {
        self.sched = sched;
        self
    }
}

/// Statistics of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct PassStats {
    /// Pass number (1-based).
    pub pass: usize,
    /// Update messages sent between different peers.
    pub remote_messages: u64,
    /// Same-peer link updates (no network message needed).
    pub local_updates: u64,
    /// Documents that re-advertised their rank this pass.
    pub senders: u64,
    /// Documents whose parked increments were applied this pass.
    pub applied: u64,
    /// Largest relative rank change seen during apply.
    pub max_relative_change: f64,
    /// Overlay hops consumed by remote messages (only populated when a
    /// hop model is installed; otherwise equals `remote_messages`).
    pub hops: u64,
    /// Documents queued when the pass started.
    pub queued: u64,
    /// Documents the scheduler selected for this pass (equals `queued`
    /// in [`SchedMode::Pass`]).
    pub selected: u64,
    /// Documents the priority scheduler deferred (0 in
    /// [`SchedMode::Pass`]).
    pub deferred: u64,
    /// Residual mass carried by the deferred documents.
    pub deferred_mass: f64,
    /// Fraction of the queued residual mass selected (1.0 in
    /// [`SchedMode::Pass`]).
    pub budget_hit: f64,
}

impl PassStats {
    /// Copies the per-pass scheduler outcome into the stats.
    fn record_sched(&mut self, sel: &SchedStats) {
        self.queued = sel.queued;
        self.selected = sel.selected;
        self.deferred = sel.deferred;
        self.deferred_mass = sel.deferred_mass;
        self.budget_hit = sel.budget_hit;
    }
}

/// Statistics of a full run.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct RunStats {
    /// Number of passes executed.
    pub passes: usize,
    /// Whether the run reached quiescence within the pass budget.
    pub converged: bool,
    /// Sum of remote messages over all passes.
    pub total_remote_messages: u64,
    /// Sum of same-peer updates over all passes.
    pub total_local_updates: u64,
    /// Sum of overlay hops over all passes.
    pub total_hops: u64,
}

impl RunStats {
    /// Remote messages per document — the paper's graph-size
    /// independent traffic metric (Table 3's "Avg." columns).
    pub fn messages_per_node(&self, num_docs: usize) -> f64 {
        self.total_remote_messages as f64 / num_docs.max(1) as f64
    }

    /// Folds one pass into the totals.
    fn record_pass(&mut self, stats: &PassStats) {
        self.passes += 1;
        self.total_remote_messages += stats.remote_messages;
        self.total_local_updates += stats.local_updates;
        self.total_hops += stats.hops;
    }
}

/// Callback charging overlay hops for one remote message
/// (src peer, dst peer, document). Lets the simulation layer model
/// routed vs. direct (cached) delivery without coupling the engine to
/// the router. Returning 1 models a direct IP connection.
pub type HopModel<'a> = dyn FnMut(PeerId, PeerId, DocId) -> u32 + 'a;

/// Between-pass churn callback: receives the pass number and may
/// rewrite peer liveness.
pub type ChurnFn<'a> = dyn FnMut(usize, &mut PeerTable) + 'a;

/// Records the priority scheduler's per-pass outcome into `rec`
/// (queue depth, deferred mass, budget hit-rate). A no-op in
/// [`SchedMode::Pass`] so classic traces are unchanged.
fn observe_sched<R: Recorder + ?Sized>(
    rec: &R,
    sched: SchedMode,
    stats: &PassStats,
    run_label: &str,
) {
    if !sched.is_selective() {
        return;
    }
    rec.observe(Metric::SchedQueueDepth, stats.queued);
    rec.observe(Metric::SchedDeferredDocs, stats.deferred);
    rec.observe(
        Metric::SchedBudgetPermille,
        (stats.budget_hit * 1000.0) as u64,
    );
    rec.event(&Event::SchedulerPass {
        run: run_label.to_string(),
        pass: stats.pass as u64,
        queued: stats.queued,
        selected: stats.selected,
        deferred: stats.deferred,
        deferred_mass: stats.deferred_mass,
        budget_hit: stats.budget_hit,
    });
}

/// The documents holding a parked or in-flight increment: one bit per
/// document plus the population count. Iteration is ascending document
/// order by construction, which is the order every floating-point fold
/// of a pass runs in — so no pass ever sorts.
#[derive(Debug, Clone)]
struct Frontier {
    /// Bit `d % 64` of word `d / 64` is document `d`; bits at and above
    /// the document count are never set. A pass writes these directly
    /// and owes a [`Frontier::recount`] before it returns.
    words: Vec<u64>,
    len: usize,
}

impl Frontier {
    /// Every one of `n` documents set.
    fn full(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            *words.last_mut().expect("n > 0") = (1 << (n % 64)) - 1;
        }
        Frontier { words, len: n }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, d: u32) {
        let (word, bit) = (&mut self.words[d as usize / 64], 1u64 << (d % 64));
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
    }

    fn remove(&mut self, d: u32) {
        let (word, bit) = (&mut self.words[d as usize / 64], 1u64 << (d % 64));
        self.len -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    /// The set documents, ascending.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (self.words.iter().enumerate())
            .flat_map(|(wi, &word)| ones(word).map(move |b| (wi * 64) as u32 + b))
    }

    /// Re-derives the count after a pass wrote `words` directly (the
    /// apply scan clears bits and the diffuse loop sets them, neither
    /// counting).
    fn recount(&mut self) {
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }
}

/// The positions of the set bits of `word`, ascending.
fn ones(word: u64) -> impl Iterator<Item = u32> {
    std::iter::successors(Some(word), |w| Some(w & w.wrapping_sub(1)))
        .take_while(|&w| w != 0)
        .map(u64::trailing_zeros)
}

/// The distributed pagerank engine.
#[derive(Clone)]
pub struct ChaoticEngine {
    graph: Arc<CsrGraph>,
    owner: Vec<PeerId>,
    cfg: EngineConfig,
    /// Current rank per document.
    ranks: Vec<f64>,
    /// Rank last advertised to out-links.
    advertised: Vec<f64>,
    /// Parked + in-flight increments per document.
    pending: Vec<f64>,
    /// Documents with a parked or in-flight increment.
    frontier: Frontier,
    passes: usize,
    /// Cumulative advertised delta of dangling (out-degree 0)
    /// documents — the mass the damping sink absorbed, a term of the
    /// flight recorder's conserved potential Φ.
    dangling_advertised: f64,
    /// Cumulative externally injected mass
    /// ([`ChaoticEngine::inject_delta`]), which shifts Φ by
    /// `Σδ / (1 − d)`.
    injected_mass: f64,
    /// Per document, how many of its out-links end on another peer: the
    /// message counts of a sender without a walk over its row and a
    /// random `owner[]` load per link. A function of `(graph, owner)`,
    /// built by the first pass (so not at construction) and shared by
    /// clones.
    remote_out: Option<Arc<[u32]>>,
    /// Pass-scratch buffers, kept on the engine so steady-state passes
    /// allocate nothing: the apply scan's sender list,
    scratch_senders: Vec<u32>,
    /// the frontier as a list for the selective schedulers,
    scratch_work: Vec<u32>,
    /// the documents the scheduler parked this pass, out of the
    /// frontier until [`ChaoticEngine::finish_pass`] returns them,
    scratch_deferred: Vec<u32>,
    /// per-work-item residual buckets for the selection,
    scratch_buckets: Vec<u8>,
    /// and (score key, doc) pairs for the greedy selection's ranking
    /// sort.
    scratch_keys: Vec<(u64, u32)>,
}

impl ChaoticEngine {
    /// Creates an engine for `graph` with documents assigned to peers
    /// by `owner` (one entry per document).
    ///
    /// Ranks start at zero with the base rank `(1 − d)` parked as an
    /// initial increment for every document, so the very first pass
    /// reproduces Fig. 1's "compute newrank based on inlinks" step and
    /// the fixed point is the standard normalized PageRank.
    ///
    /// # Panics
    ///
    /// Panics if `owner.len() != graph.num_nodes()`.
    pub fn new(graph: Arc<CsrGraph>, owner: Vec<PeerId>, cfg: EngineConfig) -> Self {
        assert_eq!(
            owner.len(),
            graph.num_nodes(),
            "owner map must cover every document"
        );
        // d = 1 makes the underlying series divergent under constant
        // injection (spectral radius 1); the incremental module, which
        // propagates single finite increments, is the place for d = 1.
        assert!(cfg.damping > 0.0 && cfg.damping < 1.0, "damping in (0,1)");
        assert!(cfg.epsilon > 0.0, "epsilon must be positive");
        let n = graph.num_nodes();
        ChaoticEngine {
            graph,
            owner,
            cfg,
            ranks: vec![0.0; n],
            advertised: vec![0.0; n],
            pending: vec![1.0 - cfg.damping; n],
            frontier: Frontier::full(n),
            passes: 0,
            dangling_advertised: 0.0,
            injected_mass: 0.0,
            remote_out: None,
            scratch_senders: Vec::new(),
            scratch_work: Vec::new(),
            scratch_deferred: Vec::new(),
            scratch_buckets: Vec::new(),
            scratch_keys: Vec::new(),
        }
    }

    /// Single-peer convenience: all documents on one peer. Useful for
    /// pure-algorithm tests where peer structure is irrelevant.
    pub fn local(graph: Arc<CsrGraph>, cfg: EngineConfig) -> Self {
        let n = graph.num_nodes();
        ChaoticEngine::new(graph, vec![PeerId(0); n], cfg)
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Current ranks (documents on offline peers may be stale).
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// Parked and in-flight increment per document.
    pub fn pending(&self) -> &[f64] {
        &self.pending
    }

    /// Rank last advertised to out-links, per document.
    pub fn advertised(&self) -> &[f64] {
        &self.advertised
    }

    /// The documents scheduled for the next pass, ascending.
    pub fn frontier(&self) -> impl Iterator<Item = DocId> + '_ {
        self.frontier.iter().map(DocId)
    }

    /// True when no increment is parked or in flight — the paper's
    /// convergence condition.
    pub fn is_quiescent(&self) -> bool {
        self.frontier.len() == 0
    }

    /// Documents currently scheduled for the next pass (nonzero
    /// parked/in-flight increments).
    pub fn active_docs(&self) -> usize {
        self.frontier.len()
    }

    /// Unpropagated rank mass: Σ|rank − advertised| + Σ|pending|.
    ///
    /// Applying an increment moves mass 1:1 from `pending` into the
    /// rank/advertised gap; emitting multiplies the gap by the
    /// damping factor on its way back into `pending`; ε-absorption
    /// and dangling-document advertisement only remove mass. Absent
    /// injections ([`ChaoticEngine::inject_delta`]) the residual is
    /// therefore non-increasing pass over pass — the monotone
    /// convergence trajectory the telemetry layer records.
    ///
    /// O(n) scan: call it at pass boundaries, not in hot loops (the
    /// observed run loop gates it on `Recorder::enabled`).
    pub fn residual_mass(&self) -> f64 {
        let gap: f64 = self
            .ranks
            .iter()
            .zip(&self.advertised)
            .map(|(r, a)| (r - a).abs())
            .sum();
        let parked: f64 = self.pending.iter().map(|p| p.abs()).sum();
        gap + parked
    }

    /// The engine's mass-ledger terms: Σrank, Σ(rank − advertised),
    /// Σpending, and the cumulative dangling sink — the flight
    /// recorder's conserved-potential inputs. O(n) scan: call at pass
    /// boundaries (the observed run loops gate it on
    /// `Recorder::enabled`).
    pub fn mass_breakdown(&self) -> dpr_telemetry::MassBreakdown {
        let mut mb = dpr_telemetry::MassBreakdown {
            dangling: self.dangling_advertised,
            ..Default::default()
        };
        for ((r, a), p) in self.ranks.iter().zip(&self.advertised).zip(&self.pending) {
            mb.ranks += r;
            mb.unadvertised += r - a;
            mb.pending += p;
        }
        mb
    }

    /// The potential Φ this engine must conserve: one unit per seeded
    /// document plus `1/(1 − d)` per unit of externally injected mass.
    pub fn expected_mass(&self) -> f64 {
        self.graph.num_nodes() as f64 + self.injected_mass / (1.0 - self.cfg.damping)
    }

    /// Parks an externally generated increment for `doc` (document
    /// insert/delete protocols, Sec. 3.1). Not counted as a network
    /// message; the network cost of inserts is measured by
    /// [`crate::incremental`].
    pub fn inject_delta(&mut self, doc: DocId, delta: f64) {
        if delta == 0.0 {
            return;
        }
        self.injected_mass += delta;
        self.pending[doc.index()] += delta;
        self.frontier.insert(doc.0);
    }

    /// Discards every increment parked for a document whose owner is
    /// currently offline, returning how many documents lost mass.
    ///
    /// This is the *negation* of the paper's store-and-resend protocol
    /// (Sec. 3.1) — without it, "pagerank updates to documents in
    /// unavailable peers \[are\] lost forever". Exists purely for the
    /// ablation benchmark that quantifies how much that protocol
    /// matters; never call it in a correct deployment.
    pub fn drop_parked(&mut self, peers: &PeerTable) -> usize {
        let before = self.frontier.len();
        let mut parked = std::mem::take(&mut self.scratch_work);
        parked.clear();
        parked.extend(
            self.frontier
                .iter()
                .filter(|&d| !peers.is_online(self.owner[d as usize])),
        );
        for &d in &parked {
            self.pending[d as usize] = 0.0;
            self.frontier.remove(d);
        }
        self.scratch_work = parked;
        before - self.frontier.len()
    }

    /// Opens a pass: numbers it and runs the scheduler over the
    /// frontier, which afterwards holds exactly the documents this pass
    /// must visit.
    ///
    /// In [`SchedMode::Pass`] that is the frontier as it stands. The
    /// selective modes list it — ascending, so the residual-mass folds
    /// of the selection are a function of the frontier *set* alone —
    /// and partition the list by [`sched::partition_by_residual`]
    /// (`Priority`) or [`sched::partition_by_greedy`] (`Greedy`); the
    /// deferred documents leave the frontier for `scratch_deferred`,
    /// their pending mass intact, until [`ChaoticEngine::finish_pass`]
    /// returns them.
    fn begin_pass(&mut self) -> PassStats {
        self.passes += 1;
        let mut stats = PassStats {
            pass: self.passes,
            ..Default::default()
        };
        if self.cfg.sched == SchedMode::Pass {
            stats.record_sched(&SchedStats::full_sweep(self.frontier.len()));
            return stats;
        }
        let (work, deferred) = (&mut self.scratch_work, &mut self.scratch_deferred);
        work.clear();
        work.extend(self.frontier.iter());
        let (ranks, advertised, pending) = (&self.ranks, &self.advertised, &self.pending);
        // Un-propagated mass at the document: the parked increment
        // plus the rank change not yet advertised downstream.
        let residual = |d: u32| {
            let i = d as usize;
            pending[i] + ranks[i] - advertised[i]
        };
        let sel = if self.cfg.sched == SchedMode::Priority {
            sched::partition_by_residual(work, deferred, &mut self.scratch_buckets, residual)
        } else {
            let graph = &self.graph;
            sched::partition_by_greedy(work, deferred, &mut self.scratch_keys, residual, |d| {
                graph.out_degree(DocId(d))
            })
        };
        for &d in deferred.iter() {
            self.frontier.remove(d);
        }
        stats.record_sched(&sel);
        stats
    }

    /// Closes a pass: the deferred documents rejoin the frontier with
    /// their pending mass intact — residual carryover, never lost —
    /// and the count catches up with the bits the pass wrote.
    fn finish_pass(&mut self) {
        for d in self.scratch_deferred.drain(..) {
            self.frontier.insert(d);
        }
        self.frontier.recount();
    }

    /// The per-document cross-peer out-link counts, built on first use.
    fn remote_out(&mut self) -> Arc<[u32]> {
        let (graph, owner) = (&self.graph, &self.owner);
        Arc::clone(self.remote_out.get_or_insert_with(|| {
            graph
                .nodes()
                .map(|d| {
                    let p = owner[d.index()];
                    let row = graph.out_neighbors(d);
                    let remote = row.iter().filter(|&&t| owner[t as usize] != p).count();
                    u32::try_from(remote).expect("a row of more than u32::MAX links")
                })
                .collect()
        }))
    }

    /// The apply half of Fig. 1, the engine's one scan. Every frontier
    /// document whose peer is online has its parked increment applied
    /// and leaves the frontier (offline ones stay: store-and-resend);
    /// where the rank then differs from the advertised one by more than
    /// ε the document is listed in `senders`, or, if it has no
    /// out-links, advertises into the dangling sink on the spot. No edge
    /// is walked: the message counts come from `remote_out`. Emission is
    /// the caller's, after the whole scan, so that nothing emitted in a
    /// pass is applied in it.
    fn apply_range(
        &mut self,
        peers: &PeerTable,
        remote_out: &[u32],
        senders: &mut Vec<u32>,
        stats: &mut PassStats,
    ) {
        senders.clear();
        let offsets = self.graph.offsets();
        let (owner, epsilon) = (&self.owner[..], self.cfg.epsilon);
        let (ranks, advertised) = (&mut self.ranks[..], &mut self.advertised[..]);
        let pending = &mut self.pending[..];
        for (wi, word) in self.frontier.words.iter_mut().enumerate() {
            let mut parked = 0u64;
            for b in ones(*word) {
                let i = wi * 64 + b as usize;
                if !peers.is_online(owner[i]) {
                    parked |= 1 << b;
                    continue;
                }
                let rank = ranks[i] + std::mem::take(&mut pending[i]);
                ranks[i] = rank;
                stats.applied += 1;
                let gap = rank - advertised[i];
                let rel = gap.abs() / rank.abs().max(f64::MIN_POSITIVE);
                stats.max_relative_change = stats.max_relative_change.max(rel);
                if rel <= epsilon {
                    continue;
                }
                let degree = offsets[i + 1] - offsets[i];
                if degree == 0 {
                    // Dangling document: nothing to forward, but the rank
                    // is now advertised (prevents re-evaluation forever).
                    advertised[i] = rank;
                    self.dangling_advertised += gap;
                    continue;
                }
                senders.push(i as u32);
                stats.senders += 1;
                let remote = u64::from(remote_out[i]);
                stats.remote_messages += remote;
                stats.local_updates += degree - remote;
            }
            *word = parked;
        }
    }

    /// Executes one pass; all peers in `peers` that are online
    /// participate. Returns the pass statistics.
    pub fn pass(&mut self, peers: &PeerTable) -> PassStats {
        self.pass_with_hops(peers, None)
    }

    /// [`ChaoticEngine::pass`] with an optional hop model charging
    /// overlay hops per remote message.
    pub fn pass_with_hops(
        &mut self,
        peers: &PeerTable,
        hop_model: Option<&mut HopModel<'_>>,
    ) -> PassStats {
        let mut stats = self.begin_pass();
        let remote_out = self.remote_out();
        let mut senders = std::mem::take(&mut self.scratch_senders);
        // Every frontier document may send (on the first pass all do);
        // growing the list by doubling instead costs 1.8 MiB of peak
        // RSS at 250k documents.
        senders.reserve_exact(self.frontier.len());

        // Phase 1: apply what was parked before this pass, everywhere,
        // before anything is emitted: what a sender emits below belongs
        // to the *next* pass, so order within a pass cannot matter.
        self.apply_range(peers, &remote_out, &mut senders, &mut stats);

        // Phase 2: diffuse. Every sender advertises its rank and adds
        // the change in its contribution to each out-link's parked
        // increment.
        let words = &mut self.frontier.words;
        for &s in &senders {
            let row = self.graph.out_neighbors(DocId(s));
            let i = s as usize;
            let send = self.cfg.damping * (self.ranks[i] - self.advertised[i]) / row.len() as f64;
            self.advertised[i] = self.ranks[i];
            for &t in row {
                self.pending[t as usize] += send;
                words[t as usize / 64] |= 1 << (t % 64);
            }
        }

        // The hop model is stateful, so its call order is part of the
        // result: senders ascending, each cross-peer link in row order.
        stats.hops = match hop_model {
            Some(model) => {
                let mut hops = 0;
                for &s in &senders {
                    let p = self.owner[s as usize];
                    for &t in self.graph.out_neighbors(DocId(s)) {
                        let tp = self.owner[t as usize];
                        if tp != p {
                            hops += u64::from(model(p, tp, DocId(t)));
                        }
                    }
                }
                hops
            }
            None => stats.remote_messages,
        };
        self.scratch_senders = senders;
        self.finish_pass();
        stats
    }

    /// Runs passes until quiescence or the pass budget is exhausted.
    ///
    /// `churn` runs *between* passes (the paper: "In between such
    /// passes, sets of peers randomly leave and join the network") and
    /// may rewrite peer liveness arbitrarily.
    pub fn run_to_convergence(
        &mut self,
        peers: &mut PeerTable,
        churn: Option<&mut ChurnFn<'_>>,
    ) -> RunStats {
        self.run_observed(peers, churn, &NOOP, "run")
    }

    /// [`ChaoticEngine::run_to_convergence`] recording telemetry: one
    /// `PassCompleted` + `ConvergenceCheck` + mass-ledger (+ scheduler)
    /// snapshot per pass, tagged with `run_label` so multi-run traces
    /// keep their curves apart, and a `PeerChurn` event per presence
    /// flip the churn callback makes.
    ///
    /// Recording never touches the computation — with the no-op
    /// recorder this *is* `run_to_convergence`, and with a real one
    /// the ranks stay bit-identical (asserted by the telemetry
    /// differential test).
    pub fn run_observed<R: Recorder + ?Sized>(
        &mut self,
        peers: &mut PeerTable,
        mut churn: Option<&mut ChurnFn<'_>>,
        rec: &R,
        run_label: &str,
    ) -> RunStats {
        let cfg = self.cfg;
        let mut run = RunStats::default();
        while !self.is_quiescent() && run.passes < cfg.max_passes {
            let t0 = rec.enabled().then(Instant::now);
            let stats = self.pass(peers);
            if let Some(t0) = t0 {
                let duration_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                rec.observe(Metric::PassDurationNs, duration_ns);
                rec.event(&Event::PassCompleted {
                    run: run_label.to_string(),
                    pass: stats.pass as u64,
                    applied: stats.applied,
                    remote_messages: stats.remote_messages,
                    local_updates: stats.local_updates,
                    senders: stats.senders,
                    max_relative_change: stats.max_relative_change,
                    hops: stats.hops,
                    duration_ns,
                });
                rec.event(&Event::ConvergenceCheck {
                    run: run_label.to_string(),
                    pass: stats.pass as u64,
                    active_docs: self.active_docs() as u64,
                    residual: self.residual_mass(),
                });
                // Between passes every emitted increment is already folded
                // into `pending`, so the in-flight term of the ledger is zero.
                rec.event(&self.mass_breakdown().ledger_event(
                    run_label,
                    stats.pass as u64,
                    0.0,
                    cfg.damping,
                    self.expected_mass(),
                ));
                observe_sched(rec, cfg.sched, &stats, run_label);
            }
            run.record_pass(&stats);
            if let Some(f) = churn.as_deref_mut() {
                if rec.enabled() {
                    let before: Vec<bool> = peers.peers().map(|p| peers.is_online(p)).collect();
                    f(run.passes, peers);
                    for (i, was) in before.iter().enumerate() {
                        let now = peers.is_online(PeerId(i as u32));
                        if now != *was {
                            rec.event(&Event::PeerChurn {
                                round: run.passes as u64,
                                peer: i as u32,
                                online: now,
                            });
                        }
                    }
                } else {
                    f(run.passes, peers);
                }
            }
        }
        run.converged = self.is_quiescent();
        run
    }

    /// Convenience: run with all peers online and no churn.
    pub fn run_static(&mut self) -> RunStats {
        let mut peers = PeerTable::new(self.owner.iter().map(|p| p.index() + 1).max().unwrap_or(1));
        self.run_to_convergence(&mut peers, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync_solver::{fixed_point_residual, SyncSolver};
    use dpr_graph::builder::from_edges;
    use dpr_graph::powerlaw::paper_graph;
    use dpr_graph::Edge;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn eng(graph: CsrGraph, eps: f64) -> ChaoticEngine {
        ChaoticEngine::local(Arc::new(graph), EngineConfig::with_epsilon(eps))
    }

    #[test]
    fn converges_to_sync_solution_on_small_graph() {
        let g = from_edges(
            5,
            [
                Edge::new(1u32, 0u32),
                Edge::new(2u32, 0u32),
                Edge::new(3u32, 0u32),
                Edge::new(4u32, 0u32),
                Edge::new(0u32, 1u32),
            ],
        );
        let reference = SyncSolver::new().solve(&g).ranks;
        let mut e = eng(g, 1e-9);
        let run = e.run_static();
        assert!(run.converged);
        for (a, b) in e.ranks().iter().zip(&reference) {
            assert!((a - b).abs() / b < 1e-6, "chaotic {a} vs sync {b}");
        }
    }

    #[test]
    fn converges_on_powerlaw_graph_to_fixed_point() {
        let g = paper_graph(2_000, 31);
        let mut e = eng(g, 1e-8);
        let run = e.run_static();
        assert!(run.converged, "did not converge in {} passes", run.passes);
        let res = fixed_point_residual(&e.graph, e.ranks(), crate::DEFAULT_DAMPING);
        // Residual is bounded by ~eps (un-advertised rank changes).
        assert!(res < 1e-6, "fixed point residual {res}");
    }

    #[test]
    fn single_peer_produces_no_remote_messages() {
        let g = paper_graph(500, 32);
        let mut e = eng(g, 1e-4);
        let run = e.run_static();
        assert_eq!(run.total_remote_messages, 0);
        assert!(run.total_local_updates > 0);
    }

    #[test]
    fn multi_peer_counts_remote_messages() {
        let g = paper_graph(500, 33);
        let n = g.num_nodes();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let owner: Vec<PeerId> = (0..n).map(|_| PeerId(rng.gen_range(0..10))).collect();
        let mut e = ChaoticEngine::new(Arc::new(g), owner, EngineConfig::with_epsilon(1e-4));
        let mut peers = PeerTable::new(10);
        let run = e.run_to_convergence(&mut peers, None);
        assert!(run.converged);
        assert!(run.total_remote_messages > 0);
        assert!(run.total_local_updates > 0);
        // ~90% of links cross peers with 10 uniformly random owners.
        let remote_frac = run.total_remote_messages as f64
            / (run.total_remote_messages + run.total_local_updates) as f64;
        assert!(remote_frac > 0.75, "remote fraction {remote_frac}");
    }

    #[test]
    fn peer_assignment_does_not_change_the_answer() {
        let g = paper_graph(800, 34);
        let n = g.num_nodes();
        let mut e1 = eng(g.clone(), 1e-9);
        e1.run_static();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let owner: Vec<PeerId> = (0..n).map(|_| PeerId(rng.gen_range(0..50))).collect();
        let mut e2 = ChaoticEngine::new(Arc::new(g), owner, EngineConfig::with_epsilon(1e-9));
        let mut peers = PeerTable::new(50);
        e2.run_to_convergence(&mut peers, None);
        for (a, b) in e1.ranks().iter().zip(e2.ranks()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn smaller_epsilon_sends_more_messages() {
        let g = paper_graph(1_000, 35);
        let n = g.num_nodes();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let owner: Vec<PeerId> = (0..n).map(|_| PeerId(rng.gen_range(0..50))).collect();
        let mut totals = Vec::new();
        for eps in [1e-1, 1e-3, 1e-5] {
            let mut e = ChaoticEngine::new(
                Arc::new(g.clone()),
                owner.clone(),
                EngineConfig::with_epsilon(eps),
            );
            let mut peers = PeerTable::new(50);
            let run = e.run_to_convergence(&mut peers, None);
            totals.push(run.total_remote_messages);
        }
        assert!(totals[0] < totals[1] && totals[1] < totals[2], "{totals:?}");
    }

    #[test]
    fn churn_delays_but_does_not_prevent_convergence() {
        let g = paper_graph(1_000, 36);
        let n = g.num_nodes();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let owner: Vec<PeerId> = (0..n).map(|_| PeerId(rng.gen_range(0..50))).collect();

        let run_with_fraction = |fraction: f64| {
            let mut e = ChaoticEngine::new(
                Arc::new(g.clone()),
                owner.clone(),
                EngineConfig::with_epsilon(1e-3),
            );
            let mut peers = PeerTable::new(50);
            let mut churn_rng = ChaCha8Rng::seed_from_u64(5);
            let mut churn = move |_pass: usize, p: &mut PeerTable| {
                p.set_online_fraction(fraction, &mut churn_rng);
            };
            let run = e.run_to_convergence(&mut peers, Some(&mut churn));
            (run, e)
        };

        let (full, e_full) = run_with_fraction(1.0);
        let (half, e_half) = run_with_fraction(0.5);
        assert!(full.converged && half.converged);
        assert!(
            half.passes > full.passes,
            "half presence {} vs full {}",
            half.passes,
            full.passes
        );
        // Same fixed point regardless of churn (quiescence at eps means
        // both are within the same tolerance of the true solution).
        for (a, b) in e_full.ranks().iter().zip(e_half.ranks()) {
            let rel = (a - b).abs() / a.abs().max(1e-12);
            assert!(rel < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn mass_ledger_potential_is_conserved_per_pass() {
        // Φ(ranks, unadvertised, pending, dangling) must equal the
        // expected mass at every pass boundary — including after an
        // injection shifts the expectation.
        let g = paper_graph(800, 43);
        let mut e = eng(g, 1e-8);
        let phi = |e: &ChaoticEngine| {
            let b = e.mass_breakdown();
            let d = e.config().damping;
            dpr_telemetry::audit::phi(b.ranks, b.unadvertised, b.pending, 0.0, b.dangling, d)
        };
        let tol = 1e-9 * 800.0;
        assert!((phi(&e) - e.expected_mass()).abs() < tol);
        let peers = PeerTable::new(1);
        while !e.is_quiescent() {
            e.pass(&peers);
            assert!(
                (phi(&e) - e.expected_mass()).abs() < tol,
                "pass {}: Φ {} vs expected {}",
                e.passes,
                phi(&e),
                e.expected_mass(),
            );
        }
        e.inject_delta(DocId(3), 0.5);
        let run = e.run_static();
        assert!(run.converged);
        assert!((phi(&e) - e.expected_mass()).abs() < tol);
    }

    #[test]
    fn inject_delta_reconverges() {
        let g = from_edges(
            3,
            [
                Edge::new(0u32, 1u32),
                Edge::new(1u32, 2u32),
                Edge::new(2u32, 0u32),
            ],
        );
        let mut e = eng(g, 1e-10);
        e.run_static();
        let before = e.ranks().to_vec();
        // Perturb document 0 and let the system re-converge: the
        // perturbation decays (damped cycle) and ranks move up then
        // settle near a new fixed point reflecting the injected mass.
        e.inject_delta(DocId(0), 0.5);
        assert!(!e.is_quiescent());
        let run = e.run_static();
        assert!(run.converged);
        assert!(e.ranks()[0] > before[0]);
    }

    #[test]
    fn hop_model_is_consulted_per_remote_message() {
        let g = from_edges(2, [Edge::new(0u32, 1u32), Edge::new(1u32, 0u32)]);
        let owner = vec![PeerId(0), PeerId(1)];
        let mut e = ChaoticEngine::new(Arc::new(g), owner, EngineConfig::with_epsilon(1e-6));
        let peers = PeerTable::new(2);
        let mut calls = 0u64;
        let mut model = |_s: PeerId, _d: PeerId, _doc: DocId| {
            calls += 1;
            3u32
        };
        let mut total_remote = 0u64;
        let mut total_hops = 0u64;
        while !e.is_quiescent() {
            let s = e.pass_with_hops(&peers, Some(&mut model));
            total_remote += s.remote_messages;
            total_hops += s.hops;
        }
        assert_eq!(calls, total_remote);
        assert_eq!(total_hops, 3 * total_remote);
    }

    #[test]
    fn pass_budget_is_respected() {
        let g = paper_graph(500, 37);
        let mut e = ChaoticEngine::local(
            Arc::new(g),
            EngineConfig {
                epsilon: 1e-12,
                max_passes: 5,
                ..Default::default()
            },
        );
        let run = e.run_static();
        assert_eq!(run.passes, 5);
        assert!(!run.converged);
    }

    #[test]
    #[should_panic(expected = "damping in (0,1)")]
    fn damping_one_is_rejected() {
        let g = from_edges(2, [Edge::new(0u32, 1u32), Edge::new(1u32, 0u32)]);
        let _ = ChaoticEngine::local(
            Arc::new(g),
            EngineConfig {
                damping: 1.0,
                epsilon: 1e-3,
                max_passes: 100,
                ..Default::default()
            },
        );
    }

    #[test]
    fn drop_parked_loses_mass_for_offline_peers() {
        let g = paper_graph(400, 38);
        let n = g.num_nodes();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let owner: Vec<PeerId> = (0..n).map(|_| PeerId(rng.gen_range(0..4))).collect();
        let mut e = ChaoticEngine::new(Arc::new(g), owner, EngineConfig::with_epsilon(1e-6));
        let mut peers = PeerTable::new(4);
        e.pass(&peers); // generate in-flight increments
        peers.set_online(PeerId(0), false);
        e.pass(&peers); // increments for peer 0 park
        let dropped = e.drop_parked(&peers);
        assert!(dropped > 0, "something must have been parked");
        // The remaining system still reaches quiescence, but the total
        // rank is short of the full-run total.
        peers.set_online(PeerId(0), true);
        let run = e.run_to_convergence(&mut peers, None);
        assert!(run.converged);
        let lossy_total: f64 = e.ranks().iter().sum();
        let mut full = ChaoticEngine::new(
            e.graph.clone(),
            e.owner.clone(),
            EngineConfig::with_epsilon(1e-6),
        );
        full.run_static();
        let full_total: f64 = full.ranks().iter().sum();
        assert!(lossy_total < full_total, "{lossy_total} vs {full_total}");
    }

    #[test]
    fn priority_mode_saves_messages_and_matches_ranks() {
        let g = paper_graph(2_000, 39);
        let n = g.num_nodes();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let owner: Vec<PeerId> = (0..n).map(|_| PeerId(rng.gen_range(0..50))).collect();
        let cfg = EngineConfig::with_epsilon(1e-9);
        let mut pass_eng = ChaoticEngine::new(Arc::new(g.clone()), owner.clone(), cfg);
        let r1 = pass_eng.run_static();
        let mut prio_eng = ChaoticEngine::new(
            Arc::new(g),
            owner,
            cfg.with_sched(crate::SchedMode::Priority),
        );
        let r2 = prio_eng.run_static();
        assert!(r1.converged && r2.converged);
        // Deferral coalesces advertisements: strictly fewer messages.
        assert!(
            r2.total_remote_messages < r1.total_remote_messages,
            "priority {} vs pass {}",
            r2.total_remote_messages,
            r1.total_remote_messages
        );
        // Same fixed point to well below ε (per-document L1).
        let l1: f64 = pass_eng
            .ranks()
            .iter()
            .zip(prio_eng.ranks())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(l1 / n as f64 <= 1e-9, "per-doc L1 {}", l1 / n as f64);
        // Quiescence is the paper's strong criterion: nothing parked,
        // nothing deferred.
        assert!(prio_eng.is_quiescent());
        assert!(prio_eng.scratch_deferred.is_empty());
        assert!(prio_eng.pending.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn greedy_mode_saves_messages_and_matches_ranks() {
        let g = paper_graph(2_000, 39);
        let n = g.num_nodes();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let owner: Vec<PeerId> = (0..n).map(|_| PeerId(rng.gen_range(0..50))).collect();
        let cfg = EngineConfig::with_epsilon(1e-9);
        let mut pass_eng = ChaoticEngine::new(Arc::new(g.clone()), owner.clone(), cfg);
        let r1 = pass_eng.run_static();
        let mut prio_eng = ChaoticEngine::new(
            Arc::new(g.clone()),
            owner.clone(),
            cfg.with_sched(crate::SchedMode::Priority),
        );
        let r2 = prio_eng.run_static();
        let mut greedy_eng =
            ChaoticEngine::new(Arc::new(g), owner, cfg.with_sched(crate::SchedMode::Greedy));
        let r3 = greedy_eng.run_static();
        assert!(r1.converged && r2.converged && r3.converged);
        // The exact budget cut defers at least as aggressively as the
        // whole-bucket cut: greedy beats pass outright and does not
        // lose to priority on the headline metric.
        assert!(
            r3.total_remote_messages < r1.total_remote_messages,
            "greedy {} vs pass {}",
            r3.total_remote_messages,
            r1.total_remote_messages
        );
        assert!(
            r3.total_remote_messages <= r2.total_remote_messages,
            "greedy {} vs priority {}",
            r3.total_remote_messages,
            r2.total_remote_messages
        );
        let l1: f64 = pass_eng
            .ranks()
            .iter()
            .zip(greedy_eng.ranks())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(l1 / n as f64 <= 1e-9, "per-doc L1 {}", l1 / n as f64);
        assert!(greedy_eng.is_quiescent());
        assert!(greedy_eng.scratch_deferred.is_empty());
        assert!(greedy_eng.pending.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn greedy_pass_stats_account_for_every_queued_doc() {
        let g = paper_graph(1_500, 40);
        let mut e = ChaoticEngine::local(
            Arc::new(g),
            EngineConfig::with_epsilon(1e-6).with_sched(crate::SchedMode::Greedy),
        );
        let peers = PeerTable::new(1);
        let mut saw_deferral = false;
        while !e.is_quiescent() {
            let s = e.pass(&peers);
            assert_eq!(s.queued, s.selected + s.deferred, "pass {}", s.pass);
            assert!(s.budget_hit > 0.0 && s.budget_hit <= 1.0);
            if s.deferred > 0 {
                saw_deferral = true;
                assert!(s.deferred_mass > 0.0);
            }
        }
        assert!(saw_deferral, "greedy run never deferred anything");
    }

    #[test]
    fn priority_pass_stats_account_for_every_queued_doc() {
        let g = paper_graph(1_500, 40);
        let mut e = ChaoticEngine::local(
            Arc::new(g),
            EngineConfig::with_epsilon(1e-6).with_sched(crate::SchedMode::Priority),
        );
        let peers = PeerTable::new(1);
        let mut saw_deferral = false;
        while !e.is_quiescent() {
            let s = e.pass(&peers);
            assert_eq!(s.queued, s.selected + s.deferred, "pass {}", s.pass);
            assert!(s.budget_hit > 0.0 && s.budget_hit <= 1.0);
            assert!(s.deferred_mass >= 0.0);
            if s.deferred > 0 {
                saw_deferral = true;
                assert!(s.deferred_mass > 0.0);
            }
        }
        assert!(saw_deferral, "priority run never deferred anything");
    }

    #[test]
    fn priority_mode_converges_under_churn() {
        let g = paper_graph(800, 41);
        let n = g.num_nodes();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let owner: Vec<PeerId> = (0..n).map(|_| PeerId(rng.gen_range(0..20))).collect();
        let mut e = ChaoticEngine::new(
            Arc::new(g),
            owner,
            EngineConfig::with_epsilon(1e-4).with_sched(crate::SchedMode::Priority),
        );
        let mut peers = PeerTable::new(20);
        let mut churn_rng = ChaCha8Rng::seed_from_u64(9);
        let mut churn = move |_pass: usize, p: &mut PeerTable| {
            p.set_online_fraction(0.6, &mut churn_rng);
        };
        let run = e.run_to_convergence(&mut peers, Some(&mut churn));
        assert!(run.converged, "passes {}", run.passes);
        assert!(e.is_quiescent());
    }

    #[test]
    fn observed_residual_series_is_monotone_non_increasing() {
        use dpr_telemetry::TraceRecorder;
        let g = paper_graph(900, 63);
        let n = g.num_nodes();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let owner: Vec<PeerId> = (0..n).map(|_| PeerId(rng.gen_range(0..8))).collect();
        let mut eng = ChaoticEngine::new(Arc::new(g), owner, EngineConfig::with_epsilon(1e-4));
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

    #[test]
    fn messages_per_node_metric() {
        let run = RunStats {
            total_remote_messages: 500,
            ..RunStats::default()
        };
        assert!((run.messages_per_node(100) - 5.0).abs() < 1e-12);
        assert_eq!(RunStats::default().messages_per_node(0), 0.0);
    }
}
