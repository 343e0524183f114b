//! The one scenario description, and the one way to run it.
//!
//! Every table in the paper's evaluation is the same simulator under
//! one parameter tuple (Sec. 4.2: graph size, peers, ε, plus the
//! regime it runs under). [`ScenarioSpec`] is that tuple, and this
//! module is the only place that knows how to turn it into a running
//! system: the experiment drivers, the `dpr` subcommands and the bench
//! sweeps all describe their run as a spec, [`validate`] it once where
//! it enters the program (flags, capture headers), and run it through
//! [`ScenarioSpec::run`] on a [`Layer`], watched as an [`Observe`]
//! says, into one [`Outcome`].
//!
//! [`validate`]: ScenarioSpec::validate

use crate::batch::{Charges, WireTraffic};
use crate::event::{run_chaotic, run_chaotic_profiled, ChaoticConfig, LatencyModel};
use crate::workload::Workload;
use dpr_core::engine::{ChaoticEngine, EngineConfig};
use dpr_core::{RunMode, SchedMode};
use dpr_graph::DocId;
use dpr_node::cluster::{Cluster, PayloadHook};
use dpr_node::node::WireMode;
use dpr_node::termination::TerminationDetector;
use dpr_p2p::peer::{PeerId, PeerTable};
use dpr_p2p::transport::{FaultPlan, WireCodec};
use dpr_telemetry::replay::{CaptureHeader, CAPTURE_VERSION};
use dpr_telemetry::{Profile, Recorder};
use std::sync::Arc;

/// The usage-banner block for the flags [`ScenarioSpec::from_flags`]
/// owns: the value lists, once, for every command that lists the flag
/// (the `--sched` list is [`dpr_core::SCHED_HELP`]'s, pinned by test).
pub const SCENARIO_FLAGS_HELP: &str = "\
scenario flag values (each command lists the flags it honours):
  --sched pass|priority|greedy   --codec raw|compact
  --run-mode rounds|chaotic      --latency modem|broadband|lan
  --nodes N (same as --docs N)";

/// The scenario flags, by the names [`ScenarioSpec::from_flags`] takes:
/// `nodes` stands for `--docs` and its alias `--nodes`.
pub const SCENARIO_FLAGS: [&str; 8] = [
    "nodes", "peers", "eps", "seed", "sched", "codec", "run-mode", "latency",
];

/// What a run is built from: the workload's shape and seed, the
/// convergence threshold, and the regime (scheduler, wire path,
/// driver, network model) it runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Documents in the graph.
    pub nodes: usize,
    /// Peers the documents are placed on.
    pub num_peers: usize,
    /// Master seed: graph, placement, link latencies and every
    /// driver-specific RNG derive from it.
    pub seed: u64,
    /// Convergence threshold ε.
    pub epsilon: f64,
    /// Pass scheduler of every engine and node.
    pub sched: SchedMode,
    /// How cluster nodes put updates on the wire.
    pub wire: WireMode,
    /// Frame codec of the cluster. Compact quantizes updates to `f32`,
    /// so fingerprints are only comparable within one codec.
    pub codec: WireCodec,
    /// Barrier-stepped rounds or the event-driven chaotic runtime.
    pub run_mode: RunMode,
    /// Network model of a chaotic run; ignored under rounds, where
    /// delivery is instantaneous.
    pub latency: LatencyModel,
}

/// Why a scenario description was refused: the field at fault — a
/// spec field, or the flag or capture-header field it was read from —
/// and what is wrong with its value.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// The offending field.
    pub field: &'static str,
    /// What is wrong with it.
    pub problem: String,
}

impl SpecError {
    /// Refuses a count that must be at least one.
    pub(crate) fn unless_positive(field: &'static str, count: usize) -> Result<(), SpecError> {
        match count {
            0 => Err(SpecError {
                field,
                problem: "must be at least 1".into(),
            }),
            _ => Ok(()),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario {}: {}", self.field, self.problem)
    }
}

impl std::error::Error for SpecError {}

impl From<SpecError> for String {
    fn from(e: SpecError) -> String {
        e.to_string()
    }
}

impl ScenarioSpec {
    /// A scenario of the given shape under the paper's regime: full
    /// sweeps, framed raw wire, lockstep rounds, broadband links.
    pub fn new(nodes: usize, num_peers: usize, epsilon: f64, seed: u64) -> Self {
        ScenarioSpec {
            nodes,
            num_peers,
            seed,
            epsilon,
            sched: SchedMode::Pass,
            wire: WireMode::frames(),
            codec: WireCodec::Raw,
            run_mode: RunMode::Rounds,
            latency: LatencyModel::Broadband,
        }
    }

    /// Refuses the descriptions no builder below can honour: an empty
    /// graph, no peers, or an ε the convergence test can never meet
    /// (or, for NaN, always meets). Called wherever a spec enters the
    /// program — [`from_flags`](Self::from_flags),
    /// [`from_header`](Self::from_header) — so the builders' internal
    /// `assert!`s stay unreachable from flags and files.
    pub fn validate(&self) -> Result<(), SpecError> {
        // Documents and peers are `u32` ids.
        for (field, count) in [("nodes", self.nodes), ("num_peers", self.num_peers)] {
            SpecError::unless_positive(field, count)?;
            if count > u32::MAX as usize {
                return Err(SpecError {
                    field,
                    problem: format!("must be at most {} (a u32 id), got {count}", u32::MAX),
                });
            }
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(SpecError {
                field: "epsilon",
                problem: format!("must be finite and positive, got {}", self.epsilon),
            });
        }
        Ok(())
    }

    /// The paper's workload at this shape: power-law graph, randomly
    /// placed.
    pub fn workload(&self) -> Workload {
        Workload::paper(self.nodes, self.num_peers, self.seed)
    }

    /// Engine configuration: ε and scheduler.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::with_epsilon(self.epsilon).with_sched(self.sched)
    }

    /// The array engine over `w`.
    pub fn engine(&self, w: &Workload) -> ChaoticEngine {
        ChaoticEngine::new(w.graph.clone(), w.owners(), self.engine_config())
    }

    /// The message-level cluster over `w`, wire mode and codec set.
    pub fn cluster(&self, w: &Workload) -> Cluster {
        let mut cluster = Cluster::build_with(
            &w.graph,
            &w.placement,
            w.num_peers,
            self.engine_config(),
            self.wire,
        );
        cluster.set_codec(self.codec);
        cluster
    }

    /// Configuration of the chaotic event runtime driving
    /// [`cluster`](Self::cluster).
    pub fn chaotic_config(&self) -> ChaoticConfig {
        ChaoticConfig {
            seed: self.seed,
            latency: self.latency,
            sched: self.sched,
            epsilon: self.epsilon,
        }
    }

    /// Reads the scenario flags through `lookup` (flag name without
    /// dashes → value), falling back to `defaults` per absent flag,
    /// and validates the result. Only the flags named in `honoured`
    /// are read: the fields the caller's run honours, out of
    /// [`SCENARIO_FLAGS`] (`nodes` reads `--docs` or its alias
    /// `--nodes`). Any other is left unread, so the caller's
    /// unknown-flag check refuses it. The wire mode has no flag.
    pub fn from_flags<'a>(
        lookup: impl Fn(&str) -> Option<&'a str>,
        defaults: &ScenarioSpec,
        honoured: &[&str],
    ) -> Result<Self, SpecError> {
        fn flag<T: std::str::FromStr>(
            value: Option<&str>,
            field: &'static str,
            default: T,
        ) -> Result<T, SpecError>
        where
            T::Err: std::fmt::Display,
        {
            value.map_or(Ok(default), |v| {
                v.parse().map_err(|e| SpecError {
                    field,
                    problem: format!("cannot parse '{v}': {e}"),
                })
            })
        }
        let read = |key, name| honoured.contains(&key).then(|| lookup(name)).flatten();
        let value = |name| read(name, name);
        let nodes = match read("nodes", "docs") {
            Some(v) => flag(Some(v), "docs", defaults.nodes)?,
            None => flag(value("nodes"), "nodes", defaults.nodes)?,
        };
        let spec = ScenarioSpec {
            nodes,
            num_peers: flag(value("peers"), "peers", defaults.num_peers)?,
            seed: flag(value("seed"), "seed", defaults.seed)?,
            epsilon: flag(value("eps"), "eps", defaults.epsilon)?,
            sched: flag(value("sched"), "sched", defaults.sched)?,
            wire: defaults.wire,
            codec: flag(value("codec"), "codec", defaults.codec)?,
            run_mode: flag(value("run-mode"), "run-mode", defaults.run_mode)?,
            latency: flag(value("latency"), "latency", defaults.latency)?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The Capture v3 header of `scenario` run on this spec. The wire
    /// mode is not recorded: flights frame their traffic.
    pub fn header(&self, scenario: &str, inserts: usize, checkpoints: usize) -> CaptureHeader {
        CaptureHeader {
            version: CAPTURE_VERSION,
            scenario: scenario.to_string(),
            nodes: self.nodes as u64,
            num_peers: self.num_peers as u64,
            inserts: inserts as u64,
            checkpoints: checkpoints as u64,
            epsilon: self.epsilon,
            seed: self.seed,
            sched: self.sched.to_string(),
            codec: self.codec.to_string(),
            run_mode: self.run_mode.to_string(),
            latency: self.latency.to_string(),
        }
    }

    /// The validated spec a capture header describes (framed wire):
    /// its shape fields as they stand, its
    /// regime names read exactly as the flags of the same name are.
    pub fn from_header(h: &CaptureHeader) -> Result<Self, SpecError> {
        let shape = ScenarioSpec::new(h.nodes as usize, h.num_peers as usize, h.epsilon, h.seed);
        let regime = |name: &str| match name {
            "sched" => Some(h.sched.as_str()),
            "codec" => Some(h.codec.as_str()),
            "run-mode" => Some(h.run_mode.as_str()),
            "latency" => Some(h.latency.as_str()),
            _ => None,
        };
        ScenarioSpec::from_flags(regime, &shape, &SCENARIO_FLAGS)
    }
}

/// The shape half of the `scenario: …` line `dpr doctor` and
/// `dpr profile` print; each appends the regime fields it ran under.
impl std::fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} docs on {} peers, ε {}",
            self.nodes, self.num_peers, self.epsilon
        )
    }
}

/// Which system converges a scenario: the array engine (only the
/// spec's ε and scheduler apply) or the message-level cluster under
/// the spec's run mode, wire mode, codec and network model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// [`ScenarioSpec::engine`], run in passes.
    Engine,
    /// [`ScenarioSpec::cluster`], run in rounds or chaotically.
    Cluster,
}

/// How a run is watched and what it is charged, beside the scenario
/// itself. [`Observe::new`] and [`Observe::shared`] watch through one
/// recorder and charge nothing; the caller sets the other fields it
/// wants, and [`ScenarioSpec::run`] refuses one the run would ignore.
pub struct Observe<'a, R: Recorder + ?Sized> {
    /// The recorder every pass, round or event reports to. Recording
    /// never perturbs the run.
    pub(crate) rec: &'a R,
    /// The same recorder, for the cluster's transport (byte counters)
    /// and the hop accounting (route and cache metrics), which install
    /// it only if it is [`Recorder::detailed`].
    pub(crate) shared: Option<Arc<dyn Recorder>>,
    /// The run label of an engine's passes in the trace.
    pub label: &'a str,
    /// Overlay hops of a rounds cluster run: every frame routed on its
    /// destination peer's GUID, `Some(cache_ips)` caching the address
    /// after the first route (paper Sec. 3.2) iff `cache_ips`.
    pub hops: Option<bool>,
    /// The paper's unbatched wire, charged alongside `hops` as a shadow
    /// of the run ([`crate::batch`]) under the same kind of policy.
    pub unbatched: Option<bool>,
    /// One transport fault staged on the cluster.
    pub fault: Option<FaultPlan>,
    /// Whether a chaotic run keeps its causal [`Profile`].
    pub profile: bool,
}

impl<'a, R: Recorder + ?Sized> Observe<'a, R> {
    /// Watched through `rec` in the run loop alone, labelled `run`,
    /// charged nothing.
    pub fn new(rec: &'a R) -> Self {
        Observe {
            rec,
            shared: None,
            label: "run",
            hops: None,
            unbatched: None,
            fault: None,
            profile: false,
        }
    }
}

impl<'a, R: Recorder + 'static> Observe<'a, R> {
    /// [`new`](Self::new), and `rec` installed on a cluster's transport
    /// and hop accounting too.
    pub fn shared(rec: &'a Arc<R>) -> Self {
        let shared: Arc<dyn Recorder> = rec.clone();
        Observe {
            shared: Some(shared),
            ..Observe::new(rec.as_ref())
        }
    }
}

/// What a run did. Steps, deliveries and the engine's update counts
/// sum over a flight's segments; the cluster's counters are lifetime
/// sums anyway. `quiesced`, `announced`, `schedule_fnv`, `virtual_ns`
/// and `profile` are the last segment's.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Converged per-document ranks.
    pub ranks: Vec<f64>,
    /// Engine passes, cluster rounds, or chaotic peer steps.
    pub steps: u64,
    /// Whether the run converged or quiesced within its budget.
    pub quiesced: bool,
    /// Whether Safra announced a chaotic run's quiescence.
    pub announced: bool,
    /// Remote rank updates emitted — the paper's message metric.
    pub remote_messages: u64,
    /// Same-peer updates.
    pub local_updates: u64,
    /// Wire counters of a cluster run.
    pub traffic: Option<WireTraffic>,
    /// The unbatched shadow's, if [`Observe::unbatched`] asked for it.
    pub unbatched: Option<WireTraffic>,
    /// Envelopes the chaotic runtime delivered.
    pub deliveries: u64,
    /// FNV-1a over a chaotic run's executed event schedule (0 else).
    pub schedule_fnv: u64,
    /// The chaotic event clock at quiescence, in nanoseconds.
    pub virtual_ns: u64,
    /// The causal profile, if [`Observe::profile`] asked for it.
    pub profile: Option<Profile>,
    /// The send index the staged fault fired at, if it struck.
    pub fault_fired_at: Option<u64>,
}

impl ScenarioSpec {
    /// Converges this scenario over `w` on `layer`, watched and charged
    /// as `obs` says. `w` is normally [`workload`](Self::workload); a
    /// run over another placement of the same shape is valid too. The
    /// budgets are 100,000 rounds and 10⁹ chaotic events; whether the
    /// run made it is [`Outcome::quiesced`], for the caller to assert.
    ///
    /// # Panics
    ///
    /// If `obs` asks for what this run would ignore: hops (or their
    /// unbatched shadow) off a rounds cluster, a shadow without hops, a
    /// fault on the engine, or a profile off a chaotic cluster.
    pub fn run<R: Recorder + ?Sized>(
        &self,
        w: &Workload,
        layer: Layer,
        obs: Observe<'_, R>,
    ) -> Outcome {
        let mut built = self.build(w, layer, &obs);
        built.segment(obs.rec, obs.label);
        built.finish()
    }

    /// The system [`run`](Self::run) converges, built but not run, for
    /// callers that reconverge it more than once.
    pub(crate) fn build<R: Recorder + ?Sized>(
        &self,
        w: &Workload,
        layer: Layer,
        obs: &Observe<'_, R>,
    ) -> Built {
        let cluster = layer == Layer::Cluster;
        let rounds = cluster && self.run_mode == RunMode::Rounds;
        let chaotic = cluster && self.run_mode == RunMode::Chaotic;
        let ignored = [
            obs.hops.is_some() && !rounds,
            obs.unbatched.is_some() && obs.hops.is_none(),
            obs.fault.is_some() && !cluster,
            obs.profile && !chaotic,
        ];
        let mode = self.run_mode;
        assert_eq!(
            ignored, [false; 4],
            "a {layer:?} {mode} run cannot honour the asks marked true in [hops, unbatched, fault, profile]"
        );
        let (system, charges) = match layer {
            Layer::Engine => (System::Engine(Box::new(self.engine(w))), None),
            Layer::Cluster => {
                let mut cluster = self.cluster(w);
                // The transport and the hops report per send: detail.
                let rec = obs.shared.as_ref().filter(|r| r.detailed());
                if let Some(rec) = rec {
                    cluster.set_recorder(rec.clone());
                }
                if let Some(plan) = obs.fault {
                    cluster.inject_transport_fault(plan);
                }
                let charges = obs
                    .hops
                    .map(|cache| Charges::new(w, cache, obs.unbatched, rec));
                (System::Cluster(Box::new(cluster)), charges)
            }
        };
        Built {
            spec: *self,
            peers: w.peer_table(),
            system,
            charges,
            profile: obs.profile,
            out: Outcome::default(),
        }
    }
}

/// A built scenario: its system, peer table and hop charges, and the
/// outcome so far.
pub(crate) struct Built {
    spec: ScenarioSpec,
    peers: PeerTable,
    system: System,
    charges: Option<Charges>,
    profile: bool,
    out: Outcome,
}

enum System {
    Engine(Box<ChaoticEngine>),
    Cluster(Box<Cluster>),
}

impl Built {
    /// Converges the system once more, from wherever it stands,
    /// tracing through `rec` (an engine's passes under `label`). A
    /// chaotic segment runs under a fresh termination detector: Safra's
    /// counters are lifetime sums, which balance exactly at each
    /// segment's quiescence.
    pub(crate) fn segment<R: Recorder + ?Sized>(&mut self, rec: &R, label: &str) -> &Outcome {
        let out = &mut self.out;
        match &mut self.system {
            System::Engine(engine) => {
                let run = engine.run_observed(&mut self.peers, None, rec, label);
                out.steps += run.passes as u64;
                out.quiesced = run.converged;
                out.remote_messages += run.total_remote_messages;
                out.local_updates += run.total_local_updates;
            }
            System::Cluster(cluster) if self.spec.run_mode == RunMode::Rounds => {
                let charges = self.charges.as_mut();
                let mut charge = charges
                    .map(|c| move |src: PeerId, dst: PeerId, p: &[u8]| c.charge(src, dst, p));
                let hook = charge.as_mut().map(|c| c as &mut PayloadHook<'_>);
                let (rounds, quiesced) =
                    cluster.run_observed(&mut self.peers, 100_000, None, hook, rec);
                out.steps += rounds as u64;
                out.quiesced = quiesced;
            }
            System::Cluster(cluster) => {
                let (peers, cfg) = (&self.peers, self.spec.chaotic_config());
                let mut det = TerminationDetector::new(self.spec.num_peers);
                let (run, profile) = if self.profile {
                    let (run, p) =
                        run_chaotic_profiled(cluster, peers, &cfg, &mut det, 1_000_000_000, rec);
                    (run, Some(p))
                } else {
                    (
                        run_chaotic(cluster, peers, &cfg, &mut det, 1_000_000_000, rec),
                        None,
                    )
                };
                out.steps += run.steps;
                out.deliveries += run.deliveries;
                (out.quiesced, out.announced) = (run.quiesced, run.announced);
                (out.schedule_fnv, out.virtual_ns) = (run.schedule_fnv, run.virtual_ns);
                out.profile = profile;
            }
        }
        &self.out
    }

    /// Adds `delta` rank mass at `doc`, as an insert wave would.
    pub(crate) fn inject(&mut self, doc: DocId, delta: f64) {
        match &mut self.system {
            System::Engine(engine) => engine.inject_delta(doc, delta),
            System::Cluster(cluster) => {
                cluster.apply_delta(doc, delta);
            }
        }
    }

    /// The outcome, ranks and cluster counters read off the system.
    pub(crate) fn finish(mut self) -> Outcome {
        match &self.system {
            System::Engine(engine) => self.out.ranks = engine.ranks().to_vec(),
            System::Cluster(cluster) => {
                let charges = self.charges.as_ref();
                let traffic =
                    WireTraffic::of(cluster, self.out.steps, charges.map_or(0, |c| c.routed));
                let shadow = charges.and_then(|c| c.shadow.as_ref()).map(|s| s.2);
                let stats = cluster.node_stats();
                self.out = Outcome {
                    ranks: cluster.collect_ranks(self.spec.nodes),
                    remote_messages: stats.emitted_remote,
                    local_updates: stats.local_updates,
                    traffic: Some(traffic),
                    unbatched: shadow.map(|routed| traffic.unbatched(routed)),
                    fault_fired_at: cluster.fault_fired_at(),
                    ..self.out
                };
            }
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn parse(flags: &[(&str, &str)], defaults: &ScenarioSpec) -> Result<ScenarioSpec, SpecError> {
        let map: HashMap<&str, &str> = flags.iter().copied().collect();
        ScenarioSpec::from_flags(|k| map.get(k).copied(), defaults, &SCENARIO_FLAGS)
    }

    #[test]
    fn header_roundtrip_is_the_identity_over_every_regime() {
        for sched in [SchedMode::Pass, SchedMode::Priority, SchedMode::Greedy] {
            for codec in [WireCodec::Raw, WireCodec::Compact] {
                for run_mode in [RunMode::Rounds, RunMode::Chaotic] {
                    for latency in [
                        LatencyModel::Modem,
                        LatencyModel::Broadband,
                        LatencyModel::Lan,
                    ] {
                        let spec = ScenarioSpec {
                            sched,
                            codec,
                            run_mode,
                            latency,
                            ..ScenarioSpec::new(1_200, 24, 1e-4, 2003)
                        };
                        let h = spec.header("continuous-update", 6, 2);
                        assert_eq!((h.inserts, h.checkpoints), (6, 2));
                        assert_eq!(ScenarioSpec::from_header(&h), Ok(spec), "{h:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn validate_rejects_each_degenerate_scenario() {
        let ok = ScenarioSpec::new(100, 4, 1e-3, 1);
        assert_eq!(ok.validate(), Ok(()));
        let cases = [
            (ScenarioSpec { nodes: 0, ..ok }, "nodes"),
            (ScenarioSpec { num_peers: 0, ..ok }, "num_peers"),
            (
                ScenarioSpec {
                    nodes: u32::MAX as usize + 1,
                    ..ok
                },
                "nodes",
            ),
            (
                ScenarioSpec {
                    num_peers: 100_000_000_000,
                    ..ok
                },
                "num_peers",
            ),
            (ScenarioSpec { epsilon: 0.0, ..ok }, "epsilon"),
            (
                ScenarioSpec {
                    epsilon: -1e-3,
                    ..ok
                },
                "epsilon",
            ),
            (
                ScenarioSpec {
                    epsilon: f64::INFINITY,
                    ..ok
                },
                "epsilon",
            ),
            (
                ScenarioSpec {
                    epsilon: f64::NAN,
                    ..ok
                },
                "epsilon",
            ),
        ];
        for (spec, field) in cases {
            let e = spec.validate().unwrap_err();
            assert_eq!(e.field, field, "{e}");
            // The same verdict on both entry paths.
            let h = spec.header("continuous-update", 6, 2);
            assert_eq!(ScenarioSpec::from_header(&h), Err(e.clone()));
            assert_eq!(parse(&[], &spec), Err(e));
        }
        assert_eq!(parse(&[("eps", "nan")], &ok).unwrap_err().field, "epsilon");
    }

    #[test]
    fn no_flags_reproduce_the_defaults_and_each_flag_overrides_one_field() {
        // The per-command defaults of `dpr doctor`/`profile`, `serve`
        // and `rank` (the last over a 400-document graph file).
        for d in [
            ScenarioSpec::new(1_200, 24, 1e-4, 2003),
            ScenarioSpec::new(2_000, 32, 1e-4, 2003),
            ScenarioSpec::new(400, 500, dpr_core::RECOMMENDED_EPSILON, 2003),
        ] {
            assert_eq!(parse(&[], &d), Ok(d));
        }
        let d = ScenarioSpec::new(1_200, 24, 1e-4, 2003);
        let table: [(&str, &str, ScenarioSpec); 9] = [
            ("docs", "50", ScenarioSpec { nodes: 50, ..d }),
            ("nodes", "60", ScenarioSpec { nodes: 60, ..d }),
            ("peers", "7", ScenarioSpec { num_peers: 7, ..d }),
            ("eps", "1e-2", ScenarioSpec { epsilon: 1e-2, ..d }),
            ("seed", "9", ScenarioSpec { seed: 9, ..d }),
            (
                "sched",
                "greedy",
                ScenarioSpec {
                    sched: SchedMode::Greedy,
                    ..d
                },
            ),
            (
                "codec",
                "compact",
                ScenarioSpec {
                    codec: WireCodec::Compact,
                    ..d
                },
            ),
            (
                "run-mode",
                "chaotic",
                ScenarioSpec {
                    run_mode: RunMode::Chaotic,
                    ..d
                },
            ),
            (
                "latency",
                "lan",
                ScenarioSpec {
                    latency: LatencyModel::Lan,
                    ..d
                },
            ),
        ];
        for (name, value, want) in table {
            assert_eq!(parse(&[(name, value)], &d), Ok(want), "--{name} {value}");
        }
        // `--docs` wins over its bench-side alias.
        assert_eq!(
            parse(&[("docs", "5"), ("nodes", "6")], &d).unwrap().nodes,
            5
        );
    }

    #[test]
    fn bad_values_name_their_flag_or_field() {
        let d = ScenarioSpec::new(1_200, 24, 1e-4, 2003);
        for name in [
            "docs", "nodes", "peers", "eps", "seed", "sched", "codec", "run-mode", "latency",
        ] {
            let e = parse(&[(name, "bogus")], &d).unwrap_err();
            assert_eq!(e.field, name);
            assert!(e.problem.starts_with("cannot parse 'bogus'"), "{e}");
        }
        // The mode parsers' own messages (which cite the valid modes)
        // come through.
        let e = parse(&[("sched", "bogus")], &d).unwrap_err();
        assert!(e.problem.contains(dpr_core::SCHED_HELP), "{e}");
        let mut h = d.header("continuous-update", 6, 2);
        h.latency = "carrier-pigeon".into();
        let e = ScenarioSpec::from_header(&h).unwrap_err();
        assert_eq!(e.field, "latency");
        assert!(e.problem.contains("carrier-pigeon"), "{e}");
        h = d.header("continuous-update", 6, 2);
        h.num_peers = 0;
        assert_eq!(
            ScenarioSpec::from_header(&h).unwrap_err().field,
            "num_peers"
        );
    }

    #[test]
    fn builders_agree_with_the_spec() {
        let spec = ScenarioSpec {
            sched: SchedMode::Priority,
            codec: WireCodec::Compact,
            latency: LatencyModel::Lan,
            ..ScenarioSpec::new(300, 6, 1e-3, 5)
        };
        let w = spec.workload();
        assert_eq!((w.graph.num_nodes(), w.num_peers), (300, 6));
        assert_eq!(spec.cluster(&w).num_peers(), 6);
        assert_eq!(spec.engine(&w).ranks().len(), 300);
        let c = spec.chaotic_config();
        assert_eq!(
            (c.seed, c.latency, c.sched, c.epsilon),
            (5, LatencyModel::Lan, SchedMode::Priority, 1e-3)
        );
        assert_eq!(spec.to_string(), "300 docs on 6 peers, ε 0.001");
    }

    #[test]
    fn run_refuses_what_it_would_ignore() {
        let rounds = ScenarioSpec::new(60, 3, 1e-2, 1);
        let chaotic = ScenarioSpec {
            run_mode: RunMode::Chaotic,
            ..rounds
        };
        let w = rounds.workload();
        type Ask = fn(&mut Observe<'_, dpr_telemetry::NoopRecorder>);
        let asks: [(Ask, &[(ScenarioSpec, Layer)]); 4] = [
            (
                |o| o.hops = Some(true),
                &[(rounds, Layer::Engine), (chaotic, Layer::Cluster)],
            ),
            (|o| o.unbatched = Some(false), &[(rounds, Layer::Cluster)]),
            (
                |o| {
                    o.fault = Some(dpr_p2p::transport::FaultPlan {
                        kind: dpr_p2p::transport::FaultKind::LostFrame,
                        nth_send: 1,
                    })
                },
                &[(rounds, Layer::Engine)],
            ),
            (
                |o| o.profile = true,
                &[(rounds, Layer::Cluster), (chaotic, Layer::Engine)],
            ),
        ];
        for (ask, refused) in asks {
            for &(spec, layer) in refused {
                let mut obs = Observe::new(&dpr_telemetry::NOOP);
                ask(&mut obs);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    spec.run(&w, layer, obs)
                }));
                assert!(run.is_err(), "{layer:?} {}", spec.run_mode);
            }
        }
    }

    #[test]
    fn flags_help_cites_the_shared_sched_list() {
        assert!(SCENARIO_FLAGS_HELP.contains(&format!("--sched {}", dpr_core::SCHED_HELP)));
    }
}
