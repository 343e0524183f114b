//! Discrete-event runtime for the chaotic run mode
//! ([`dpr_core::RunMode::Chaotic`]).
//!
//! The paper's central claim is that distributed PageRank converges
//! under *chaotic* (asynchronous) iteration: peers step whenever
//! updates arrive, with no global round barrier. The round-driven
//! cluster loop approximates that only coarsely — every peer steps
//! exactly once per round and delivery is instantaneous — which
//! re-synchronizes precisely the work the residual-priority scheduler
//! tries to defer (BENCH_sched_quality's cluster rows show 0% win at
//! default density for exactly this reason).
//!
//! This module replaces the barrier with a seeded deterministic
//! discrete-event simulation:
//!
//! * an **event queue** popping in `(virtual_time_ns, seq)` order —
//!   ties broken by insertion sequence, so execution order is a pure
//!   function of the schedule and the run is bit-reproducible (a
//!   monotone radix heap, the runtime never scheduling into the past);
//! * **per-link latency/bandwidth models** reusing the Eq. 4
//!   exec-model rates ([`dpr_core::exec_model`]): each ordered link
//!   gets a base propagation delay sampled once from a rng seeded by
//!   `seed ⊕ hash(from, to)`, and frame transmission serializes at the
//!   model's byte rate (store-and-forward: transmissions on one link
//!   queue behind each other, propagation pipelines), its state in
//!   one small table per *sender*;
//! * **bounded inboxes with backpressure**: deliveries fold into the
//!   destination node immediately ([`PeerNode::on_deliver`]); once
//!   [`dpr_node::node::DEFAULT_INBOX_CAP`] payloads arrive un-stepped,
//!   the node saturates and the runtime steps it at once;
//! * **residual-driven step timing** — the cluster-layer
//!   Gauss-Southwell rule. Under the selective modes
//!   ([`SchedMode::Priority`], [`SchedMode::Greedy`]) a peer's step
//!   is delayed inversely with its residual: hot peers (large
//!   un-propagated mass) step promptly, cold peers hold a coalescing
//!   window so several arrivals fold into one advertisement instead of
//!   several. Under [`SchedMode::Pass`] every arrival triggers a step
//!   after the fixed compute delay — the chaotic baseline. All modes
//!   share the identical convergence criterion (quiescence at ε), so
//!   their L1-vs-sync error is matched; only the message count and the
//!   virtual wall clock differ.
//! * **barrier-free Safra probing**: the termination token advances on
//!   scheduled `Probe` events instead of between rounds, and the audit
//!   ledgers ([`Cluster::audit_at`]) are emitted on a virtual-time
//!   cadence — the PR 5 monitors are barrier-agnostic, so chaotic
//!   traces audit with the same machinery as round traces.
//!
//! The runtime owns the clock, the queue and the link tables; a step's
//! or delivery's working memory is the one
//! [`dpr_node::node::StepScratch`] the [`Cluster`] lends its nodes, so
//! in steady state an event allocates only the payloads it sends that
//! are too long to travel inline. A `Deliver` event carries the
//! transport handle of its envelope and takes it out in O(1).
//!
//! Every executed `Step`/`Deliver` event folds into a FNV-1a
//! **schedule fingerprint**; the Capture v3 format records it so
//! `dpr doctor --replay` certifies that a chaotic re-run executed the
//! *same event schedule*, not merely reached the same ranks.
//!
//! **Serving traffic and transient churn** ride the same queue
//! ([`run_chaotic_serving`]): query arrivals and continuous rank
//! updates are `Serve` events injected at pre-planned virtual times,
//! and a finite `Churn` chain re-draws the presence table on a fixed
//! cadence (offline peers neither step nor have their parked mail
//! delivered; store-and-resend flushes when they return). Neither
//! event kind folds into the schedule fingerprint, and neither
//! consults the recorder for control flow, so a served run's ranks
//! and `schedule_fnv` are bit-identical with telemetry on or off
//! (`tests/serving_differential.rs`).
//!
//! [`PeerNode::on_deliver`]: dpr_node::node::PeerNode::on_deliver

use crate::churn::Schedule;
use dpr_core::exec_model::{COMPUTE_SECS_PER_DOC, RATE_200KBS, RATE_32KBS, RATE_T3};
use dpr_core::SchedMode;
use dpr_graph::DocId;
use dpr_node::node::DeliverStatus;
use dpr_node::termination::TerminationDetector;
use dpr_node::{Cluster, SendOutcome};
use dpr_p2p::peer::{PeerId, PeerTable};
use dpr_p2p::transport::Handle;
use dpr_telemetry::profile::Profile;
use dpr_telemetry::span::{SpanRec, SpanTracer};
use dpr_telemetry::{Event, Metric, Recorder};
use fxhash::FxHashMap;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;

/// Floor on a peer's per-step compute time, so even an empty peer
/// takes nonzero virtual time to step. A real peer's step time is the
/// Eq. 4 `T_i` term: `num_docs × COMPUTE_SECS_PER_DOC` (see
/// [`dpr_core::exec_model::COMPUTE_SECS_PER_DOC`]), which is what
/// makes concurrent arrivals batch into one pass at realistic
/// granularity — per-message stepping would degenerate into path
/// enumeration at small ε.
pub const MIN_STEP_COMPUTE_NS: u64 = 100_000;

/// Virtual-time cadence of Safra token probes.
const PROBE_INTERVAL_NS: u64 = 25_000_000;

/// Virtual-time cadence of the audit ledgers (mass + balance) when a
/// recorder is attached.
const AUDIT_INTERVAL_NS: u64 = 100_000_000;

/// Residual multiple of ε at which a peer counts as fully "hot" (its
/// coalescing window shrinks toward zero — step as soon as possible).
const HOT_RESIDUAL_EPSILONS: f64 = 100.0;

/// Named per-link latency/bandwidth presets, built from the Eq. 4
/// exec-model transfer rates. The name travels in the Capture v3
/// header, so a replay can refuse a mismatched network model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LatencyModel {
    /// Dial-up-era P2P links: 30–120 ms propagation,
    /// [`RATE_32KBS`] transfer (the paper's conservative Table 3 rate).
    Modem,
    /// Broadband links: 10–60 ms propagation, [`RATE_200KBS`] transfer
    /// (the paper's aggressive Table 3 rate).
    #[default]
    Broadband,
    /// Co-located LAN: fixed 1 ms propagation, [`RATE_T3`] transfer
    /// (the Sec. 4.6.2 Internet-scale rate).
    Lan,
}

impl LatencyModel {
    /// Inclusive range the per-link base propagation delay is sampled
    /// from, in nanoseconds.
    pub fn base_latency_ns(self) -> (u64, u64) {
        match self {
            LatencyModel::Modem => (30_000_000, 120_000_000),
            LatencyModel::Broadband => (10_000_000, 60_000_000),
            LatencyModel::Lan => (1_000_000, 1_000_000),
        }
    }

    /// Link transfer rate in bytes per second.
    pub fn rate_bytes_per_sec(self) -> f64 {
        match self {
            LatencyModel::Modem => RATE_32KBS,
            LatencyModel::Broadband => RATE_200KBS,
            LatencyModel::Lan => RATE_T3,
        }
    }

    /// The coalescing window a fully cold peer holds before stepping
    /// under priority scheduling: four maximum propagation delays, so
    /// the hold horizon tracks the network's actual arrival spread.
    pub fn coalesce_window_ns(self) -> u64 {
        4 * self.base_latency_ns().1
    }
}

impl std::fmt::Display for LatencyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LatencyModel::Modem => "modem",
            LatencyModel::Broadband => "broadband",
            LatencyModel::Lan => "lan",
        })
    }
}

impl std::str::FromStr for LatencyModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "modem" => Ok(LatencyModel::Modem),
            "broadband" => Ok(LatencyModel::Broadband),
            "lan" => Ok(LatencyModel::Lan),
            other => Err(format!(
                "unknown latency model {other:?} (expected \"modem\", \"broadband\" or \"lan\")"
            )),
        }
    }
}

/// The event kinds of the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Fold the envelope at this transport handle into its
    /// destination.
    Deliver(Handle),
    /// Run one local pass at `peer` and put its outbox on the wire.
    Step {
        /// The stepping peer.
        peer: PeerId,
    },
    /// Advance the Safra termination token (barrier-free probing).
    Probe,
    /// Emit the mass/balance audit ledgers.
    Audit,
    /// Fire serving injection `idx` of the run's plan (a query
    /// arrival or a continuous rank update).
    Serve {
        /// Index into [`ServingHooks::plan`].
        idx: u32,
    },
    /// Re-draw the presence table from the churn schedule.
    Churn,
}

/// A deterministic discrete-event queue: events pop in
/// `(virtual_time_ns, seq)` order, `seq` being the push order, so two
/// runs that push the same events in the same order execute
/// identically.
///
/// The runtime never schedules into the past — every push is at or
/// after the time of the last pop — so the queue is a *radix heap*:
/// bucket 0 holds the events at exactly the last popped time, bucket
/// `k` those whose time first differs from it at bit `k − 1`. A push
/// appends to one bucket; when bucket 0 runs dry the lowest occupied
/// bucket is re-filed around its earliest time, which only ever moves
/// events to lower buckets. Buckets are append-only between re-filings
/// and re-filing is stable, so events at one time stay in push order
/// and no sequence number is stored. A drained bucket keeps its
/// storage only up to [`RETAINED_ENTRIES`], so the queue's memory is at
/// most twice the live events (16 bytes each, `Vec` doubling) plus a
/// constant — not the sum of every bucket's high-water mark.
#[derive(Debug)]
struct EventQueue {
    buckets: [Vec<(u64, Ev)>; 65],
    /// Bit `k − 1` set: bucket `k` is occupied.
    occupied: u64,
    /// Read cursor into bucket 0 (a FIFO).
    head: usize,
    /// Time of the last pop.
    last: u64,
}

/// Largest bucket capacity kept across a drain: the low buckets that
/// refill thousands of times a virtual second stay allocation-free,
/// the wide ones that hold most of the queue give their storage back.
const RETAINED_ENTRIES: usize = 64;

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            head: 0,
            last: 0,
        }
    }

    fn push(&mut self, at: u64, ev: Ev) {
        assert!(at >= self.last, "event scheduled into the past");
        let k = (u64::BITS - (at ^ self.last).leading_zeros()) as usize;
        self.buckets[k].push((at, ev));
        if k > 0 {
            self.occupied |= 1 << (k - 1);
        }
    }

    fn pop(&mut self) -> Option<(u64, Ev)> {
        if self.head == self.buckets[0].len() {
            self.head = 0;
            self.buckets[0].clear();
            self.buckets[0].shrink_to(RETAINED_ENTRIES);
            if self.occupied == 0 {
                return None;
            }
            let k = self.occupied.trailing_zeros() as usize + 1;
            self.occupied &= self.occupied - 1;
            let mut bucket = std::mem::take(&mut self.buckets[k]);
            self.last = bucket.iter().map(|e| e.0).min().expect("occupied bucket");
            for (at, ev) in bucket.drain(..) {
                self.push(at, ev);
            }
            if bucket.capacity() <= RETAINED_ENTRIES {
                self.buckets[k] = bucket;
            }
        }
        self.head += 1;
        Some(self.buckets[0][self.head - 1])
    }
}

/// Configuration of one chaotic run.
#[derive(Debug, Clone, Copy)]
pub struct ChaoticConfig {
    /// Master seed: drives the per-link latency sampling (and nothing
    /// else — the runtime itself is deterministic).
    pub seed: u64,
    /// The network model.
    pub latency: LatencyModel,
    /// Scheduling mode, mirroring the cluster's engine config: `Pass`
    /// steps promptly on arrival, `Priority` applies the
    /// residual-driven step timing.
    pub sched: SchedMode,
    /// The ε of the cluster's engine config, used to normalize
    /// residual hotness for the coalescing window.
    pub epsilon: f64,
}

/// One pre-planned serving injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inject {
    /// Execute query `idx` of the serving workload. Queries are pure
    /// readers: the runtime hands the cluster to
    /// [`ServingHooks::on_query`] and schedules nothing, so a query
    /// never perturbs the rank computation's event schedule.
    Query(u32),
    /// Apply a rank increment to a document wherever it lives — the
    /// event-level form of the continuous-update scenario. The
    /// holder's next step is scheduled if it is online.
    Update {
        /// The updated document.
        doc: DocId,
        /// Rank increment.
        delta: f64,
    },
}

/// A serving injection pinned to a virtual time. Plans are built
/// up-front (arrival processes sampled outside the runtime), so the
/// executed schedule is a pure function of the plan and the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionPlan {
    /// Virtual time of the injection, in nanoseconds.
    pub at_ns: u64,
    /// What fires.
    pub what: Inject,
}

/// A finite transient-churn chain: every `every_ns` of virtual time
/// the schedule re-draws the presence table, until the first firing
/// past `until_ns` restores every peer online and flushes parked
/// mail back onto the wire. Finiteness is what keeps served runs
/// convergent: after the chain ends, no work can stay stranded at an
/// offline peer.
#[derive(Debug)]
pub struct ChurnPlan {
    /// The presence schedule applied at each firing.
    pub schedule: Schedule,
    /// Virtual-time cadence of the firings, in nanoseconds (must be
    /// nonzero for the chain to be seeded).
    pub every_ns: u64,
    /// Virtual time after which the chain restores full presence and
    /// ends.
    pub until_ns: u64,
}

/// The serving-side inputs of [`run_chaotic_serving`].
pub struct ServingHooks<'h> {
    /// The pre-planned injections, indexed by `Serve` events.
    pub plan: &'h [InjectionPlan],
    /// Optional transient churn riding the run.
    pub churn: Option<ChurnPlan>,
    /// Called once per [`Inject::Query`] with the query index, the
    /// virtual arrival time, and the cluster's current (read-only)
    /// state. The callback must not feed anything back into the
    /// runtime — it models the serving path, which shares the wire
    /// but not the rank schedule.
    pub on_query: &'h mut dyn FnMut(u32, u64, &Cluster),
}

impl std::fmt::Debug for ServingHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingHooks")
            .field("plan", &self.plan.len())
            .field("churn", &self.churn)
            .finish()
    }
}

/// What one chaotic run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaoticOutcome {
    /// Virtual time at the last *effective* executed event, in
    /// nanoseconds — the run's modeled wall clock to convergence.
    /// (A popped stale `Step` — one displaced by a reschedule — does
    /// nothing and does not advance the clock, so this equals the end
    /// of the last causal span the profiler sees.)
    pub virtual_ns: u64,
    /// Local passes executed.
    pub steps: u64,
    /// Envelopes delivered.
    pub deliveries: u64,
    /// `Deliver` events whose handle named no queued envelope.
    pub displaced: u64,
    /// FNV-1a fingerprint over the executed `Step`/`Deliver` schedule.
    pub schedule_fnv: u64,
    /// Whether the run reached quiescence (vs the event budget).
    pub quiesced: bool,
    /// Whether barrier-free Safra announced termination.
    pub announced: bool,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one more chaotic segment's schedule fingerprint into a
/// running capture fingerprint (the continuous-update scenario runs
/// one chaotic segment per reconvergence).
pub fn fold_schedule_fnv(acc: u64, segment: u64) -> u64 {
    fnv_fold(acc, &segment.to_le_bytes())
}

/// The initial value for [`fold_schedule_fnv`] accumulation.
pub const SCHEDULE_FNV_SEED: u64 = FNV_OFFSET;

/// One ordered link, created on its first send: its sampled base
/// propagation delay and the virtual time its transmitter is busy
/// until (transmissions serialize, propagation pipelines).
#[derive(Debug, Clone, Copy)]
struct Link {
    latency_ns: u64,
    clear_ns: u64,
}

struct Runner<'a> {
    queue: EventQueue,
    cfg: ChaoticConfig,
    now: u64,
    /// Authoritative next-step time per peer; a popped `Step` that
    /// does not match is stale (lazy deletion under rescheduling).
    step_due: Vec<Option<u64>>,
    /// Per sender, its links by destination: one small table per
    /// peer, probed once per send.
    links: Vec<FxHashMap<u32, Link>>,
    /// Per-peer step compute time: `num_docs × COMPUTE_SECS_PER_DOC`
    /// in nanoseconds, floored at [`MIN_STEP_COMPUTE_NS`].
    compute_ns: Vec<u64>,
    /// Outstanding `Step` + `Deliver` events (stale ones included —
    /// every push increments, every pop decrements).
    live: u64,
    schedule_fnv: u64,
    steps: u64,
    deliveries: u64,
    displaced: u64,
    /// Deliveries that saturated the destination inbox (backpressure).
    saturated: u64,
    detector: &'a mut TerminationDetector,
    /// Causal span observer (`None` = tracing off: neither profiled
    /// nor a [`Recorder::detailed`] recorder). A pure reader of
    /// the schedule: it never touches the queue, the clock, or node
    /// state, so traced and untraced runs execute bit-identically.
    tracer: Option<SpanTracer>,
}

impl Runner<'_> {
    /// Schedules the delivery of each envelope `o` enqueued on
    /// `(from, to)`: a transmission queues behind whatever the link is
    /// already sending (store-and-forward at the model's byte rate),
    /// then propagates at the link's base latency — sampled on the
    /// link's first send from a rng seeded by `seed ⊕ hash(from, to)`.
    /// So arrivals on a link keep their send order.
    fn schedule_delivery(&mut self, o: SendOutcome) {
        let (from, to, bytes, cfg) = (o.from, o.to, o.bytes, self.cfg);
        let tx_ns = (bytes as f64 / cfg.latency.rate_bytes_per_sec() * 1e9) as u64;
        let link = self.links[from.index()].entry(to.0).or_insert_with(|| {
            let (lo, hi) = cfg.latency.base_latency_ns();
            let mix = (((from.0 as u64) << 32) | to.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ mix);
            Link {
                latency_ns: rng.gen_range(lo..=hi),
                clear_ns: 0,
            }
        });
        for handle in o.handles.into_iter().flatten() {
            let depart = link.clear_ns.max(self.now);
            link.clear_ns = depart + tx_ns;
            let arrival = depart + tx_ns + link.latency_ns;
            if let Some(tr) = self.tracer.as_mut() {
                tr.on_send(o.frame, from.0, to.0, bytes as u64, self.now, depart);
            }
            self.queue.push(arrival, Ev::Deliver(handle));
            self.live += 1;
        }
    }

    fn schedule_step(&mut self, p: PeerId, at: u64) {
        self.step_due[p.index()] = Some(at);
        if let Some(tr) = self.tracer.as_mut() {
            tr.on_step_scheduled(p.0, self.now);
        }
        self.queue.push(at, Ev::Step { peer: p });
        self.live += 1;
    }

    /// Requests a step at `at`, keeping an already-pending earlier
    /// step (the pending event stays authoritative; a later pop of the
    /// displaced one is recognized as stale).
    fn request_step(&mut self, p: PeerId, at: u64) {
        match self.step_due[p.index()] {
            Some(due) if due <= at => {}
            _ => self.schedule_step(p, at),
        }
    }

    /// The delay before a peer's next step: the peer's Eq. 4 compute
    /// time under `Pass`; under the selective modes (`Priority`,
    /// `Greedy`) the compute time plus a coalescing hold that shrinks
    /// as the peer's relative residual grows past ε — the
    /// cluster-layer Gauss-Southwell rule.
    fn step_delay(&self, cluster: &Cluster, p: PeerId) -> u64 {
        let compute = self.compute_ns[p.index()];
        if !self.cfg.sched.is_selective() {
            return compute;
        }
        let residual = cluster.node(p).max_relative_residual();
        let hot = HOT_RESIDUAL_EPSILONS * self.cfg.epsilon.max(f64::MIN_POSITIVE);
        let coldness = 1.0 / (1.0 + residual / hot);
        compute + (self.cfg.latency.coalesce_window_ns() as f64 * coldness) as u64
    }

    fn fold_event(&mut self, tag: u8, a: u32, b: u32) {
        let mut h = self.schedule_fnv;
        h = fnv_fold(h, &[tag]);
        h = fnv_fold(h, &self.now.to_le_bytes());
        h = fnv_fold(h, &a.to_le_bytes());
        h = fnv_fold(h, &b.to_le_bytes());
        self.schedule_fnv = h;
    }

    fn tick(&self) -> u64 {
        self.now / 1_000_000
    }
}

/// Runs `cluster` to quiescence under the event-driven chaotic
/// runtime, emitting the same telemetry shapes as the round loop
/// (`FrameSent`, mass/balance ledgers, termination probes, and a
/// final quiescence certificate) so the PR 5 audit monitors apply
/// unchanged. Returns when no `Step`/`Deliver` event is outstanding
/// and the cluster is quiescent, or when `max_events` have executed.
///
/// `detector` carries Safra state across segments of a continuous
/// run; pass a fresh one for a single-shot run. Presence is frozen
/// for the whole run (offline peers neither step nor receive);
/// churn during a run is [`run_chaotic_serving`]'s domain.
pub fn run_chaotic<R: Recorder + ?Sized>(
    cluster: &mut Cluster,
    peers: &PeerTable,
    cfg: &ChaoticConfig,
    detector: &mut TerminationDetector,
    max_events: u64,
    rec: &R,
) -> ChaoticOutcome {
    // With a detailed recorder the run also traces causal spans, so the
    // JSONL trace carries the full `span_closed` stream plus the
    // `chaotic_health` summary for `dpr profile --input`.
    run_chaotic_inner(
        cluster,
        Cow::Borrowed(peers),
        cfg,
        detector,
        max_events,
        rec,
        false,
        None,
    )
    .0
}

/// [`run_chaotic`] with production traffic riding the event queue:
/// the pre-planned query arrivals and rank updates in `hooks.plan`
/// fire as `Serve` events interleaved with the rank computation's
/// `Step`/`Deliver` stream, and an optional finite [`ChurnPlan`]
/// re-draws `peers` on a virtual-time cadence (mail to offline peers
/// parks at the sender and flushes when they return — the round
/// loop's store-and-resend semantics, barrier-free).
///
/// Serving is *pure observation of the schedule*: queries never
/// schedule events, and neither `Serve` nor `Churn` folds into
/// `schedule_fnv` or consults the recorder for control flow, so
/// ranks and the fingerprint are bit-identical with telemetry on or
/// off, and a plan of queries-only leaves them identical to the
/// unserved run.
pub fn run_chaotic_serving<R: Recorder + ?Sized>(
    cluster: &mut Cluster,
    peers: &mut PeerTable,
    cfg: &ChaoticConfig,
    detector: &mut TerminationDetector,
    max_events: u64,
    rec: &R,
    hooks: ServingHooks<'_>,
) -> ChaoticOutcome {
    let (out, _, table) = run_chaotic_inner(
        cluster,
        Cow::Borrowed(peers),
        cfg,
        detector,
        max_events,
        rec,
        false,
        Some(hooks),
    );
    // The run copied the table if (and only if) churn re-drew it.
    if let Cow::Owned(table) = table {
        *peers = table;
    }
    out
}

/// [`run_chaotic`] with span tracing forced on (recorder or not) and
/// the closed spans retained, additionally returning the run's causal
/// [`Profile`] — critical path, compute/wire/wait breakdown, link
/// utilization and per-peer convergence lag, all on the virtual
/// clock. Tracing is pure
/// observation: outcome, `schedule_fnv` and ranks are bit-identical
/// to an untraced run (`tests/profile_differential.rs`).
pub fn run_chaotic_profiled<R: Recorder + ?Sized>(
    cluster: &mut Cluster,
    peers: &PeerTable,
    cfg: &ChaoticConfig,
    detector: &mut TerminationDetector,
    max_events: u64,
    rec: &R,
) -> (ChaoticOutcome, Profile) {
    let peers = Cow::Borrowed(peers);
    let (out, spans, _) =
        run_chaotic_inner(cluster, peers, cfg, detector, max_events, rec, true, None);
    let profile = Profile::from_spans(spans);
    (out, profile)
}

#[allow(clippy::too_many_arguments)]
fn run_chaotic_inner<'p, R: Recorder + ?Sized>(
    cluster: &mut Cluster,
    mut peers: Cow<'p, PeerTable>,
    cfg: &ChaoticConfig,
    detector: &mut TerminationDetector,
    max_events: u64,
    rec: &R,
    profiled: bool,
    mut hooks: Option<ServingHooks<'_>>,
) -> (ChaoticOutcome, Vec<SpanRec>, Cow<'p, PeerTable>) {
    let n = cluster.num_peers();
    let compute_ns: Vec<u64> = (0..n as u32)
        .map(|p| {
            let docs = cluster.node(PeerId(p)).num_docs();
            ((docs as f64 * COMPUTE_SECS_PER_DOC * 1e9) as u64).max(MIN_STEP_COMPUTE_NS)
        })
        .collect();
    let mut r = Runner {
        queue: EventQueue::new(),
        cfg: *cfg,
        now: 0,
        step_due: vec![None; n],
        links: vec![FxHashMap::default(); n],
        compute_ns,
        live: 0,
        schedule_fnv: FNV_OFFSET,
        steps: 0,
        deliveries: 0,
        displaced: 0,
        saturated: 0,
        detector,
        tracer: (profiled || rec.detailed()).then(|| SpanTracer::new(n, profiled)),
    };
    // Seed the schedule: one step per online peer with queued work.
    for p in 0..n as u32 {
        if peers.is_online(PeerId(p)) && cluster.node(PeerId(p)).has_work() {
            r.schedule_step(PeerId(p), r.compute_ns[p as usize]);
        }
    }
    if let Some(h) = &hooks {
        // Serving injections fire at their planned times; they count
        // as live so the run outlasts an early rank quiescence.
        for (i, inj) in h.plan.iter().enumerate() {
            r.queue.push(inj.at_ns, Ev::Serve { idx: i as u32 });
            r.live += 1;
        }
        if let Some(c) = &h.churn {
            if c.every_ns > 0 {
                r.queue.push(c.every_ns, Ev::Churn);
                r.live += 1;
            }
        }
    }
    r.queue.push(PROBE_INTERVAL_NS, Ev::Probe);
    if rec.enabled() {
        r.queue.push(AUDIT_INTERVAL_NS, Ev::Audit);
    }

    let mut executed = 0u64;
    while executed < max_events && r.live > 0 {
        let Some((t, ev)) = r.queue.pop() else { break };
        executed += 1;
        match ev {
            Ev::Step { peer } => {
                r.live -= 1;
                if r.step_due[peer.index()] != Some(t) {
                    // Displaced by a reschedule: nothing happens, so
                    // the clock does not advance for a stale pop.
                    continue;
                }
                r.now = t;
                r.step_due[peer.index()] = None;
                r.fold_event(1, peer.0, 0);
                r.steps += 1;
                if let Some(tr) = r.tracer.as_mut() {
                    tr.on_step_executed(peer.0, t, r.compute_ns[peer.index()], rec);
                }
                let tick = r.tick();
                cluster.step_peer_observed(peer, &peers, tick, rec, |o| r.schedule_delivery(o));
                // Deferred or self-applied work re-queues the peer.
                if cluster.node(peer).has_work() {
                    let delay = r.step_delay(cluster, peer);
                    r.request_step(peer, r.now + delay);
                }
            }
            Ev::Deliver(handle) => {
                r.live -= 1;
                r.now = t;
                let Some((from, to, status)) = cluster.deliver(handle) else {
                    r.displaced += 1;
                    continue;
                };
                r.fold_event(2, from.0, to.0);
                if let Some(tr) = r.tracer.as_mut() {
                    tr.on_deliver(from.0, to.0, t, rec);
                }
                r.deliveries += 1;
                if status == DeliverStatus::Saturated {
                    r.saturated += 1;
                }
                // An in-flight frame still lands in an offline peer's
                // mailbox, but the peer steps only once churn brings
                // it back.
                if peers.is_online(to) && cluster.node(to).has_work() {
                    let delay = match status {
                        // Backpressure: a saturated inbox forfeits its
                        // coalescing window.
                        DeliverStatus::Saturated => r.compute_ns[to.index()],
                        DeliverStatus::Accepted => r.step_delay(cluster, to),
                    };
                    r.request_step(to, r.now + delay);
                }
            }
            Ev::Probe => {
                r.now = t;
                let tick = r.tick();
                r.detector.advance_observed(cluster, &peers, rec, tick);
                if let Some(tr) = r.tracer.as_mut() {
                    tr.on_probe(t, r.detector.announced(), rec);
                }
                if r.live > 0 && !r.detector.announced() {
                    r.queue.push(r.now + PROBE_INTERVAL_NS, Ev::Probe);
                }
            }
            Ev::Audit => {
                r.now = t;
                if rec.enabled() {
                    cluster.audit_at(r.tick(), rec);
                }
                if r.live > 0 {
                    r.queue.push(r.now + AUDIT_INTERVAL_NS, Ev::Audit);
                }
            }
            Ev::Serve { idx } => {
                r.live -= 1;
                r.now = t;
                let h = hooks.as_mut().expect("Serve events require hooks");
                match h.plan[idx as usize].what {
                    Inject::Query(q) => (h.on_query)(q, t, cluster),
                    Inject::Update { doc, delta } => {
                        let holder = cluster.apply_delta(doc, delta);
                        if peers.is_online(holder) && cluster.node(holder).has_work() {
                            let delay = r.step_delay(cluster, holder);
                            r.request_step(holder, r.now + delay);
                        }
                    }
                }
            }
            Ev::Churn => {
                r.live -= 1;
                r.now = t;
                let h = hooks.as_mut().expect("Churn events require hooks");
                let c = h.churn.as_mut().expect("Churn events require a plan");
                let peers = peers.to_mut();
                let before: Vec<bool> = (0..n).map(|i| peers.is_online(PeerId(i as u32))).collect();
                let last = t.saturating_add(c.every_ns) > c.until_ns;
                if last {
                    // End of the chain: restore full presence so
                    // nothing stays stranded at an offline peer.
                    for p in 0..n as u32 {
                        peers.set_online(PeerId(p), true);
                    }
                } else {
                    c.schedule.apply(peers);
                }
                for (i, &was_on) in before.iter().enumerate() {
                    let p = PeerId(i as u32);
                    let on = peers.is_online(p);
                    if on == was_on {
                        continue;
                    }
                    if !on {
                        // Displace any pending step; the peer
                        // resumes when it returns.
                        r.step_due[i] = None;
                    }
                    if rec.enabled() {
                        rec.event(&Event::PeerChurn {
                            round: r.tick(),
                            peer: p.0,
                            online: on,
                        });
                    }
                }
                // Store-and-resend: parked mail for returned peers
                // goes back on the wire now.
                for o in cluster.retry_pending_outcomes(peers) {
                    r.schedule_delivery(o);
                }
                for (i, &was_on) in before.iter().enumerate() {
                    let p = PeerId(i as u32);
                    if !was_on && peers.is_online(p) && cluster.node(p).has_work() {
                        let delay = r.step_delay(cluster, p);
                        r.request_step(p, r.now + delay);
                    }
                }
                if !last {
                    r.queue.push(t + c.every_ns, Ev::Churn);
                    r.live += 1;
                }
            }
        }
    }

    // Settle: a final ledger snapshot, then let the token finish its
    // circuits over the now-passive system (it will refuse to announce
    // if anything — e.g. a lost frame's counter gap — is still off).
    if rec.enabled() {
        cluster.audit_at(r.tick(), rec);
    }
    for i in 0..4u64 {
        if r.detector.announced() {
            break;
        }
        r.detector
            .advance_observed(cluster, &peers, rec, r.tick() + i + 1);
        if let Some(tr) = r.tracer.as_mut() {
            // Settle circuits run on the frozen final clock, so the
            // announcing probe span ends exactly at `virtual_ns`.
            tr.on_probe(r.now, r.detector.announced(), rec);
        }
    }
    cluster.certify_quiescence(rec);

    if let Some(tr) = r.tracer.as_mut() {
        tr.finish(r.now, rec);
    }
    if rec.enabled() {
        rec.counter_add(Metric::ChaoticEvents, executed);
        rec.counter_add(Metric::InboxSaturations, r.saturated);
        if let Some(tr) = r.tracer.as_ref() {
            let (coalesce_hits, max_depth) = tr.inbox_health();
            rec.counter_add(Metric::CoalesceHits, coalesce_hits);
            rec.event(&Event::ChaoticHealth {
                events: executed,
                steps: r.steps,
                deliveries: r.deliveries,
                displaced: r.displaced,
                saturated: r.saturated,
                coalesce_hits,
                max_inbox_depth: max_depth,
            });
        }
    }

    let outcome = ChaoticOutcome {
        virtual_ns: r.now,
        steps: r.steps,
        deliveries: r.deliveries,
        displaced: r.displaced,
        schedule_fnv: r.schedule_fnv,
        quiesced: cluster.is_quiescent(),
        announced: r.detector.announced(),
    };
    let spans = r.tracer.map_or_else(Vec::new, SpanTracer::into_spans);
    (outcome, spans, peers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::engine::EngineConfig;
    use dpr_core::sync_solver::SyncSolver;
    use dpr_graph::powerlaw::paper_graph;
    use dpr_node::node::WireMode;
    use dpr_p2p::peer::{Placement, PlacementPolicy};
    use dpr_p2p::ring::Ring;
    use dpr_telemetry::NOOP;

    fn build(
        nodes: usize,
        num_peers: usize,
        eps: f64,
        seed: u64,
        sched: SchedMode,
    ) -> (Cluster, dpr_graph::CsrGraph) {
        let graph = paper_graph(nodes, seed);
        let ring = Ring::with_peers(num_peers);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 1);
        let placement = Placement::assign(nodes, &ring, PlacementPolicy::Random, &mut rng);
        let cfg = EngineConfig::with_epsilon(eps).with_sched(sched);
        let cluster = Cluster::build_with(&graph, &placement, num_peers, cfg, WireMode::frames());
        (cluster, graph)
    }

    fn run(cluster: &mut Cluster, num_peers: usize, cfg: &ChaoticConfig) -> ChaoticOutcome {
        let peers = PeerTable::new(num_peers);
        let mut det = TerminationDetector::new(num_peers);
        run_chaotic(cluster, &peers, cfg, &mut det, 100_000_000, &NOOP)
    }

    #[test]
    fn queue_pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(20, Ev::Probe);
        q.push(10, Ev::Audit);
        q.push(10, Ev::Probe);
        assert_eq!(q.pop(), Some((10, Ev::Audit)));
        assert_eq!(q.pop(), Some((10, Ev::Probe)), "fifo at equal times");
        // Pushes between pops land at or after the last popped time.
        q.push(12, Ev::Churn);
        q.push(10, Ev::Churn);
        assert_eq!(q.pop(), Some((10, Ev::Churn)));
        assert_eq!(q.pop(), Some((12, Ev::Churn)));
        assert_eq!(q.pop(), Some((20, Ev::Probe)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn latency_model_parses_and_displays() {
        for m in [
            LatencyModel::Modem,
            LatencyModel::Broadband,
            LatencyModel::Lan,
        ] {
            assert_eq!(m.to_string().parse::<LatencyModel>().unwrap(), m);
        }
        assert!("dsl".parse::<LatencyModel>().is_err());
        assert_eq!(LatencyModel::default(), LatencyModel::Broadband);
        // Window tracks the model's worst-case propagation.
        assert!(LatencyModel::Modem.coalesce_window_ns() > LatencyModel::Lan.coalesce_window_ns());
    }

    #[test]
    fn chaotic_run_converges_to_the_sync_solution() {
        let (mut cluster, graph) = build(600, 12, 1e-8, 91, SchedMode::Pass);
        let cfg = ChaoticConfig {
            seed: 91,
            latency: LatencyModel::Broadband,
            sched: SchedMode::Pass,
            epsilon: 1e-8,
        };
        let out = run(&mut cluster, 12, &cfg);
        assert!(out.quiesced, "no quiescence after {} steps", out.steps);
        assert!(out.announced, "Safra must certify the quiescent run");
        assert!(out.virtual_ns > 0 && out.deliveries > 0);
        let ranks = cluster.collect_ranks(600);
        let reference = SyncSolver::new().tolerance(1e-13).solve(&graph).ranks;
        for (a, b) in ranks.iter().zip(&reference) {
            assert!((a - b).abs() / b < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn chaotic_run_is_deterministic_for_a_fixed_seed() {
        let mk = || build(500, 10, 1e-6, 92, SchedMode::Priority).0;
        let cfg = ChaoticConfig {
            seed: 92,
            latency: LatencyModel::Modem,
            sched: SchedMode::Priority,
            epsilon: 1e-6,
        };
        let mut a = mk();
        let mut b = mk();
        let oa = run(&mut a, 10, &cfg);
        let ob = run(&mut b, 10, &cfg);
        assert_eq!(oa, ob, "same seed, same schedule, same outcome");
        let (ra, rb) = (a.collect_ranks(500), b.collect_ranks(500));
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.to_bits(), y.to_bits(), "ranks must be bit-identical");
        }
        // A different latency seed executes a different schedule but
        // still converges to the same fixed point.
        let mut c = mk();
        let oc = run(&mut c, 10, &ChaoticConfig { seed: 93, ..cfg });
        assert_ne!(oc.schedule_fnv, oa.schedule_fnv);
        for (x, y) in c.collect_ranks(500).iter().zip(&ra) {
            let rel = (x - y).abs() / y.abs().max(1e-12);
            assert!(rel < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn query_serving_leaves_the_schedule_untouched() {
        let mk = || build(400, 8, 1e-6, 95, SchedMode::Priority).0;
        let cfg = ChaoticConfig {
            seed: 95,
            latency: LatencyModel::Broadband,
            sched: SchedMode::Priority,
            epsilon: 1e-6,
        };
        let mut base = mk();
        let base_out = run(&mut base, 8, &cfg);
        assert!(base_out.quiesced);

        let mut served = mk();
        let mut peers = PeerTable::new(8);
        let mut det = TerminationDetector::new(8);
        let plan: Vec<InjectionPlan> = (0..50u32)
            .map(|i| InjectionPlan {
                at_ns: 10_000_000 * (u64::from(i) + 1),
                what: Inject::Query(i),
            })
            .collect();
        let mut seen = Vec::new();
        let out = run_chaotic_serving(
            &mut served,
            &mut peers,
            &cfg,
            &mut det,
            100_000_000,
            &NOOP,
            ServingHooks {
                plan: &plan,
                churn: None,
                on_query: &mut |q, t, c| seen.push((q, t, c.num_peers())),
            },
        );
        assert_eq!(seen.len(), 50, "every planned query fires");
        assert!(seen.windows(2).all(|w| w[0].1 <= w[1].1), "arrival order");
        assert_eq!(
            out.schedule_fnv, base_out.schedule_fnv,
            "queries must not perturb the schedule"
        );
        assert_eq!(
            (out.steps, out.deliveries),
            (base_out.steps, base_out.deliveries)
        );
        let (ra, rb) = (base.collect_ranks(400), served.collect_ranks(400));
        for (a, b) in ra.iter().zip(&rb) {
            assert_eq!(a.to_bits(), b.to_bits(), "ranks must be bit-identical");
        }
    }

    #[test]
    fn churned_updates_quiesce_deterministically_with_telemetry_off_or_on() {
        use dpr_telemetry::Recorder;
        let mk = || build(400, 8, 1e-5, 96, SchedMode::Pass).0;
        let cfg = ChaoticConfig {
            seed: 96,
            latency: LatencyModel::Lan,
            sched: SchedMode::Pass,
            epsilon: 1e-5,
        };
        let mut plan = Vec::new();
        for i in 0..20u32 {
            plan.push(InjectionPlan {
                at_ns: 5_000_000 * (u64::from(i) + 1),
                what: if i % 2 == 0 {
                    Inject::Update {
                        doc: DocId(i * 7 % 400),
                        delta: 0.2,
                    }
                } else {
                    Inject::Query(i)
                },
            });
        }
        let run_one = |rec: &dyn Recorder| {
            let mut cluster = mk();
            let mut peers = PeerTable::new(8);
            let mut det = TerminationDetector::new(8);
            let mut queries = 0usize;
            let out = run_chaotic_serving(
                &mut cluster,
                &mut peers,
                &cfg,
                &mut det,
                100_000_000,
                rec,
                ServingHooks {
                    plan: &plan,
                    churn: Some(ChurnPlan {
                        schedule: Schedule::fraction(0.75, 7),
                        every_ns: 20_000_000,
                        until_ns: 300_000_000,
                    }),
                    on_query: &mut |_, _, _| queries += 1,
                },
            );
            assert_eq!(
                peers.peers().filter(|&p| peers.is_online(p)).count(),
                8,
                "churn chain must end fully online"
            );
            (out, cluster.collect_ranks(400), queries)
        };
        let (oa, ra, qa) = run_one(&NOOP);
        let (ob, rb, qb) = run_one(&NOOP);
        assert_eq!(oa, ob, "same seed, same served schedule");
        assert_eq!(qa, qb);
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(oa.quiesced, "served run must still quiesce");
        assert!(oa.announced, "Safra must certify the served run");
        // Telemetry on: bit-identical ranks and fingerprint (zero
        // perturbation), with the churn surfaced in the trace.
        let rec = dpr_telemetry::TraceRecorder::new();
        let (oc, rc, _) = run_one(&rec);
        assert_eq!(oc.schedule_fnv, oa.schedule_fnv);
        assert_eq!((oc.steps, oc.deliveries), (oa.steps, oa.deliveries));
        for (x, y) in rc.iter().zip(&ra) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e, Event::PeerChurn { .. })));
    }

    #[test]
    fn priority_timing_cuts_messages_vs_pass_at_matched_error() {
        // The tentpole claim at unit scale: under the event runtime,
        // residual-driven step timing beats prompt stepping on remote
        // messages, at the same ε (both run to the same quiescence
        // criterion).
        let scenario = |sched: SchedMode| {
            let (mut cluster, graph) = build(2_000, 100, 1e-6, 94, sched);
            let cfg = ChaoticConfig {
                seed: 94,
                latency: LatencyModel::Broadband,
                sched,
                epsilon: 1e-6,
            };
            let out = run(&mut cluster, 100, &cfg);
            assert!(out.quiesced, "{sched}: no quiescence");
            let emitted: u64 = (0..100u32)
                .map(|p| cluster.node(PeerId(p)).stats().emitted_remote)
                .sum();
            let reference = SyncSolver::new().tolerance(1e-13).solve(&graph).ranks;
            let l1: f64 = cluster
                .collect_ranks(2_000)
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / 2_000.0;
            (emitted, l1)
        };
        let (pass_msgs, pass_l1) = scenario(SchedMode::Pass);
        let (prio_msgs, prio_l1) = scenario(SchedMode::Priority);
        assert!(
            prio_msgs < pass_msgs,
            "priority {prio_msgs} !< pass {pass_msgs}"
        );
        assert!(
            (pass_l1 - prio_l1).abs() < 1e-5,
            "error must stay matched: {pass_l1} vs {prio_l1}"
        );
        // Greedy inherits the same residual-driven step timing, so the
        // cluster-layer saving carries over at matched error.
        let (greedy_msgs, greedy_l1) = scenario(SchedMode::Greedy);
        assert!(
            greedy_msgs < pass_msgs,
            "greedy {greedy_msgs} !< pass {pass_msgs}"
        );
        assert!(
            (pass_l1 - greedy_l1).abs() < 1e-5,
            "error must stay matched: {pass_l1} vs {greedy_l1}"
        );
    }
}
