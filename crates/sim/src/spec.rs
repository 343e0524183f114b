//! The one scenario description.
//!
//! Every table in the paper's evaluation is the same simulator under
//! one parameter tuple (Sec. 4.2: graph size, peers, ε, plus the
//! regime it runs under). [`ScenarioSpec`] is that tuple, and this
//! module is the only place that knows how to turn it into a running
//! system: the experiment drivers, the `dpr` subcommands and the bench
//! sweeps all describe their run as a spec, [`validate`] it once where
//! it enters the program (flags, capture headers), and build from it.
//!
//! [`validate`]: ScenarioSpec::validate

use crate::event::{ChaoticConfig, LatencyModel};
use crate::workload::Workload;
use dpr_core::engine::{ChaoticEngine, EngineConfig};
use dpr_core::{RunMode, SchedMode};
use dpr_node::cluster::Cluster;
use dpr_node::node::WireMode;
use dpr_p2p::transport::WireCodec;
use dpr_telemetry::replay::{CaptureHeader, CAPTURE_VERSION};

/// The usage-banner block for the flags [`ScenarioSpec::from_flags`]
/// owns: the value lists, once, for every command that lists the flag
/// (the `--sched` list is [`dpr_core::SCHED_HELP`]'s, pinned by test).
pub const SCENARIO_FLAGS_HELP: &str = "\
scenario flag values (each command lists the flags it honours):
  --sched pass|priority|greedy   --codec raw|compact
  --run-mode rounds|chaotic      --latency modem|broadband|lan
  --nodes N (same as --docs N)";

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
        SpecError::unless_positive("nodes", self.nodes)?;
        SpecError::unless_positive("num_peers", self.num_peers)?;
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

    /// Reads the scenario flags — `--docs`/`--nodes`, `--peers`,
    /// `--eps`, `--seed`, `--sched`, `--codec`, `--run-mode`,
    /// `--latency` — through `lookup` (flag name without dashes →
    /// value), falling back to `defaults` per absent flag, and
    /// validates the result. The wire mode has no flag.
    pub fn from_flags<'a>(
        lookup: impl Fn(&str) -> Option<&'a str>,
        defaults: &ScenarioSpec,
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
        let nodes = match lookup("docs") {
            Some(v) => flag(Some(v), "docs", defaults.nodes)?,
            None => flag(lookup("nodes"), "nodes", defaults.nodes)?,
        };
        let spec = ScenarioSpec {
            nodes,
            num_peers: flag(lookup("peers"), "peers", defaults.num_peers)?,
            seed: flag(lookup("seed"), "seed", defaults.seed)?,
            epsilon: flag(lookup("eps"), "eps", defaults.epsilon)?,
            sched: flag(lookup("sched"), "sched", defaults.sched)?,
            wire: defaults.wire,
            codec: flag(lookup("codec"), "codec", defaults.codec)?,
            run_mode: flag(lookup("run-mode"), "run-mode", defaults.run_mode)?,
            latency: flag(lookup("latency"), "latency", defaults.latency)?,
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
        ScenarioSpec::from_flags(regime, &shape)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn parse(flags: &[(&str, &str)], defaults: &ScenarioSpec) -> Result<ScenarioSpec, SpecError> {
        let map: HashMap<&str, &str> = flags.iter().copied().collect();
        ScenarioSpec::from_flags(|k| map.get(k).copied(), defaults)
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
    fn flags_help_cites_the_shared_sched_list() {
        assert!(SCENARIO_FLAGS_HELP.contains(&format!("--sched {}", dpr_core::SCHED_HELP)));
    }
}
