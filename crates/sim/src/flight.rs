//! Flight recording: deterministic capture & replay plus the audited
//! diagnostic run behind `dpr doctor`.
//!
//! Two entry points:
//!
//! * [`record`] / [`replay`] — run the multi-peer continuous-update
//!   scenario and persist it as a [`Capture`]: the full configuration
//!   (every RNG seeds from it), the injection stream the run actually
//!   performed, and a fingerprint of the outcome (FNV-1a over the
//!   final rank bits plus the traffic counters). Replaying re-executes
//!   from the header and proves the re-run matched. A mismatch is a
//!   determinism bug with a one-file repro.
//! * [`doctor_run`] — run the message-level cluster with the flight
//!   recorder on, optionally staging one transport fault, and return
//!   the [`AuditReport`] verdict over the events the monitors read.
//!   This is the scenario half of `dpr doctor`; the monitors are in
//!   `dpr_telemetry::audit`.
//!
//! The continuous updates are modeled at engine level: each "insert"
//! injects the arriving document's seed mass at a randomly chosen
//! existing link target (`ChaoticEngine::inject_delta` — the effect an
//! insert wave has on the converged graph), followed by chaotic
//! reconvergence at the scenario's checkpoints. Full document insertion
//! with graph growth lives in
//! [`scenario::continuous_update_experiment`](crate::scenario::continuous_update_experiment);
//! the flight scenario trades it for multi-peer remote traffic, which
//! is what the capture's fingerprint must pin down.

use crate::event::{fold_schedule_fnv, LatencyModel, SCHEDULE_FNV_SEED};
use crate::spec::{Built, Layer, Observe, Outcome, ScenarioSpec, SpecError};
use dpr_core::{RunMode, SchedMode};
use dpr_graph::DocId;
use dpr_node::node::WireMode;
use dpr_p2p::transport::{FaultPlan, WireCodec};
use dpr_telemetry::audit::AuditTrail;
use dpr_telemetry::replay::{fnv64_ranks, Capture, CaptureHeader, Fingerprint};
use dpr_telemetry::{AuditReport, Event, Recorder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The scenario name stamped into capture headers.
pub const FLIGHT_SCENARIO: &str = "continuous-update";

/// Configuration of one flight — everything a capture header holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightConfig {
    /// The scenario flown. Rounds-mode flights run the array engine;
    /// chaotic flights run the message-level cluster under the event
    /// runtime. The two execute different schedules, so their
    /// fingerprints are not comparable.
    pub spec: ScenarioSpec,
    /// Update injections performed after the initial solve.
    pub inserts: usize,
    /// Reconvergence checkpoints across the injection stream.
    pub checkpoints: usize,
}

impl FlightConfig {
    /// Refuses what a flight cannot run: a degenerate scenario, no
    /// checkpoint, or fewer inserts than checkpoints.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.spec.validate()?;
        SpecError::unless_positive("checkpoints", self.checkpoints)?;
        if self.inserts < self.checkpoints {
            return Err(SpecError {
                field: "inserts",
                problem: format!(
                    "{} is fewer than the {} checkpoints",
                    self.inserts, self.checkpoints
                ),
            });
        }
        Ok(())
    }

    /// The capture header describing this flight.
    pub fn header(&self) -> CaptureHeader {
        self.spec
            .header(FLIGHT_SCENARIO, self.inserts, self.checkpoints)
    }

    /// Reconstructs, validated, the flight a capture header describes.
    pub fn from_header(h: &CaptureHeader) -> Result<Self, String> {
        if h.scenario != FLIGHT_SCENARIO {
            return Err(format!(
                "capture records scenario {:?}, this replayer runs {FLIGHT_SCENARIO:?}",
                h.scenario
            ));
        }
        let cfg = FlightConfig {
            spec: ScenarioSpec::from_header(h)?,
            inserts: h.inserts as usize,
            checkpoints: h.checkpoints as usize,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

/// The bit-exact fingerprint of a flight's outcome that a replay must
/// reproduce: its rank bits, steps as `passes`, traffic counters and
/// folded schedule fingerprint.
pub fn fingerprint(out: &Outcome) -> Fingerprint {
    Fingerprint {
        ranks_fnv: fnv64_ranks(&out.ranks),
        docs: out.ranks.len() as u64,
        passes: out.steps,
        remote_messages: out.remote_messages,
        local_updates: out.local_updates,
        schedule_fnv: out.schedule_fnv,
    }
}

/// Executes one flight, tracing through `rec`: the initial solve, then
/// each insert draws a target document and a seed mass, injects them
/// and emits the injection event, with a reconvergence at every
/// checkpoint. The outcome is a pure function of `cfg` (the determinism
/// contract) and `rec` never perturbs it. Rounds flights run the array
/// engine; chaotic flights the cluster under the event runtime, whose
/// segments' schedule fingerprints fold into the outcome's
/// `schedule_fnv` (zero for rounds flights). Returns the outcome and
/// the injections performed, in order.
fn fly<R: Recorder + ?Sized>(cfg: &FlightConfig, rec: &R) -> (Outcome, Vec<Event>) {
    assert!(cfg.checkpoints >= 1 && cfg.inserts >= cfg.checkpoints);
    let spec = &cfg.spec;
    let layer = match spec.run_mode {
        RunMode::Rounds => Layer::Engine,
        RunMode::Chaotic => Layer::Cluster,
    };
    let mut system = spec.build(&spec.workload(), layer, &Observe::new(rec));
    let mut schedule_fnv = SCHEDULE_FNV_SEED;
    let mut reconverge = |label: &str, system: &mut Built| {
        let segment = system.segment(rec, label);
        assert!(segment.quiesced, "every segment of a flight must quiesce");
        schedule_fnv = fold_schedule_fnv(schedule_fnv, segment.schedule_fnv);
    };
    reconverge("initial", &mut system);
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0xf11e);
    let stride = cfg.inserts / cfg.checkpoints;
    let mut injections = Vec::new();
    for i in 1..=cfg.inserts {
        let doc = DocId(rng.gen_range(0..spec.nodes as u32));
        system.inject(doc, rng.gen_range(0.05..0.5));
        let ev = Event::DocInserted {
            seq: i as u64,
            doc: u64::from(doc.0),
        };
        if rec.enabled() {
            rec.event(&ev);
        }
        injections.push(ev);
        if i % stride == 0 || i == cfg.inserts {
            reconverge(&format!("update@{i}"), &mut system);
        }
    }
    let mut out = system.finish();
    // A rounds flight has no event schedule to pin.
    out.schedule_fnv = if layer == Layer::Cluster {
        schedule_fnv
    } else {
        0
    };
    (out, injections)
}

/// Runs the flight, tracing through `rec`, and packages it as a
/// [`Capture`]. The outcome's `schedule_fnv` folds every chaotic
/// segment's (zero for a rounds flight), as the fingerprint pins it.
pub fn record<R: Recorder + ?Sized>(cfg: &FlightConfig, rec: &R) -> (Capture, Outcome) {
    let (out, injections) = fly(cfg, rec);
    let capture = Capture {
        header: cfg.header(),
        injections,
        fingerprint: fingerprint(&out),
    };
    (capture, out)
}

/// Re-executes a capture and proves the re-run matched:
/// the derived injection stream must equal the recorded one (so the
/// comparison is about the same run), then every fingerprint field
/// must agree bit for bit. The error names the first divergence. A
/// capture whose header's insert count differs from its recorded
/// injection stream is refused before anything flies.
///
/// With `expect_codec`, first refuses captures recorded under a
/// different wire codec than the one the replayer claims to run.
/// Compact quantizes updates to `f32`, so a fingerprint recorded under
/// one codec says nothing about a run under the other — comparing them
/// would report a phantom determinism bug.
///
/// The re-execution traces through `rec` exactly as the original
/// [`record`] would have, so a chaotic capture replays into a full
/// `span_closed` stream — this is how `dpr profile --replay` turns a
/// one-file repro into a causal profile. The fingerprint proof is
/// unchanged (recording never perturbs the run; that is the
/// zero-perturbation contract the differential tests pin).
pub fn replay<R: Recorder + ?Sized>(
    capture: &Capture,
    expect_codec: Option<WireCodec>,
    rec: &R,
) -> Result<Outcome, String> {
    let cfg = FlightConfig::from_header(&capture.header)?;
    if let Some(codec) = expect_codec.filter(|&c| c != cfg.spec.codec) {
        return Err(format!(
            "capture was recorded under wire codec \"{}\" but this replay runs \"{codec}\" \
             — fingerprints are not comparable across codecs; pass --codec {} or \
             re-record the capture",
            cfg.spec.codec, cfg.spec.codec
        ));
    }
    // A genuine capture records one injection per insert; refuse a
    // header that promises another flight before flying it.
    if cfg.inserts != capture.injections.len() {
        return Err(format!(
            "capture header records {} inserts but its injection stream holds {} \
             — corrupted capture",
            cfg.inserts,
            capture.injections.len()
        ));
    }
    // A genuine capture's fingerprint covers exactly the header's
    // documents; refuse a header that describes another graph.
    if capture.header.nodes != capture.fingerprint.docs {
        return Err(format!(
            "capture header records {} nodes but its fingerprint covers {} docs \
             — corrupted capture",
            capture.header.nodes, capture.fingerprint.docs
        ));
    }
    let (out, injections) = fly(&cfg, rec);
    if injections != capture.injections {
        let at = injections
            .iter()
            .zip(&capture.injections)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| injections.len().min(capture.injections.len()));
        return Err(format!(
            "replayed injection stream diverges from the capture at index {at} \
             (replayed {} vs recorded {})",
            injections.len(),
            capture.injections.len(),
        ));
    }
    let (got, want) = (fingerprint(&out), capture.fingerprint.clone());
    for (field, g, w) in [
        ("ranks_fnv", got.ranks_fnv, want.ranks_fnv),
        ("docs", got.docs, want.docs),
        ("passes", got.passes, want.passes),
        ("remote_messages", got.remote_messages, want.remote_messages),
        ("local_updates", got.local_updates, want.local_updates),
        ("schedule_fnv", got.schedule_fnv, want.schedule_fnv),
    ] {
        if g != w {
            return Err(format!(
                "fingerprint field {field} diverged: replayed {g} vs recorded {w}"
            ));
        }
    }
    Ok(out)
}

/// One audited diagnostic run — the scenario half of `dpr doctor`.
#[derive(Debug)]
pub struct DoctorRun {
    /// The monitors' verdict over the run's audit trail.
    pub report: AuditReport,
    /// Rounds the cluster executed (local steps under
    /// [`RunMode::Chaotic`]).
    pub rounds: usize,
    /// Whether the cluster quiesced within the round budget.
    pub quiesced: bool,
    /// The send index the staged fault fired at, if one was staged and
    /// struck.
    pub fault_fired_at: Option<u64>,
    /// The audit trail: the events the monitors read, in stream order.
    pub events: Vec<Event>,
}

/// Runs the message-level cluster `spec` describes to quiescence,
/// recording into an [`AuditTrail`] that forwards to `sink`, optionally
/// stages one transport `fault`, and audits the trail. `spec.run_mode`
/// picks the barrier loop or the event runtime (whose trace
/// additionally certifies the event schedule); the monitors are
/// barrier-agnostic, so the same audit applies to both. A clean run
/// passes every monitor; each staged fault is caught by the monitor
/// owning the invariant it breaks.
pub fn doctor_run(
    spec: &ScenarioSpec,
    fault: Option<FaultPlan>,
    sink: Option<Arc<dyn Recorder>>,
) -> DoctorRun {
    let trail = Arc::new(AuditTrail::new(sink));
    let mut obs = Observe::shared(&trail);
    obs.fault = fault;
    let out = spec.run(&spec.workload(), Layer::Cluster, obs);
    let events = trail.take_events();
    let mass_tol = match spec.codec {
        WireCodec::Raw => dpr_telemetry::audit::MASS_TOLERANCE,
        WireCodec::Compact => dpr_telemetry::audit::COMPACT_MASS_TOLERANCE,
    };
    DoctorRun {
        report: AuditReport::evaluate_with_mass_tolerance(&events, mass_tol),
        rounds: out.steps as usize,
        quiesced: out.quiesced,
        fault_fired_at: out.fault_fired_at,
        events,
    }
}

/// [`doctor_run`] under positional arguments and no sink. Kept, with
/// this exact signature, only because the frozen `perf/` benchmark
/// calls it; moving `perf/` to [`doctor_run`] deletes it.
#[allow(clippy::too_many_arguments)]
pub fn doctor_run_mode(
    nodes: usize,
    num_peers: usize,
    epsilon: f64,
    seed: u64,
    wire: WireMode,
    codec: WireCodec,
    fault: Option<FaultPlan>,
    sched: SchedMode,
    run_mode: RunMode,
    latency: LatencyModel,
) -> DoctorRun {
    let spec = ScenarioSpec {
        sched,
        wire,
        codec,
        run_mode,
        latency,
        ..ScenarioSpec::new(nodes, num_peers, epsilon, seed)
    };
    doctor_run(&spec, fault, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_p2p::transport::FaultKind;
    use dpr_telemetry::audit::Monitor;
    use dpr_telemetry::Profile;

    /// A seconds-scale flight.
    fn smoke() -> FlightConfig {
        FlightConfig {
            spec: ScenarioSpec::new(1_200, 40, 1e-3, 7),
            inserts: 6,
            checkpoints: 2,
        }
    }

    #[test]
    fn capture_replays_bit_identically() {
        let cfg = smoke();
        let (capture, original) = record(&cfg, &dpr_telemetry::NOOP);
        assert_eq!(capture.injections.len(), cfg.inserts);

        // Through the JSONL round trip.
        let parsed = Capture::from_jsonl(&capture.to_jsonl()).unwrap();
        let out = replay(&parsed, None, &dpr_telemetry::NOOP).unwrap();
        assert_eq!(out.ranks, original.ranks, "ranks must be bitwise equal");
        assert_eq!(fingerprint(&out), capture.fingerprint);
    }

    #[test]
    fn replay_detects_a_tampered_fingerprint() {
        let (mut capture, _) = record(&smoke(), &dpr_telemetry::NOOP);
        capture.fingerprint.remote_messages += 1;
        let err = replay(&capture, None, &dpr_telemetry::NOOP).unwrap_err();
        assert!(err.contains("remote_messages"), "{err}");

        let (mut capture, _) = record(&smoke(), &dpr_telemetry::NOOP);
        capture.injections.swap(0, 1);
        let err = replay(&capture, None, &dpr_telemetry::NOOP).unwrap_err();
        assert!(err.contains("index 0"), "{err}");
    }

    #[test]
    fn replay_refuses_a_header_that_miscounts_its_inserts() {
        let (mut capture, _) = record(&smoke(), &dpr_telemetry::NOOP);
        capture.header.inserts = 1_000_000_000_000_000_000;
        let err = replay(&capture, None, &dpr_telemetry::NOOP).unwrap_err();
        assert!(err.contains("1000000000000000000 inserts"), "{err}");
        assert!(err.contains("holds 6"), "{err}");
    }

    #[test]
    fn replay_refuses_a_header_whose_nodes_miss_its_fingerprint() {
        let (mut capture, _) = record(&smoke(), &dpr_telemetry::NOOP);
        let docs = capture.fingerprint.docs;
        capture.header.nodes = docs + 1;
        let err = replay(&capture, None, &dpr_telemetry::NOOP).unwrap_err();
        assert!(err.contains(&format!("{} nodes", docs + 1)), "{err}");
        assert!(err.contains(&format!("covers {docs} docs")), "{err}");
        // Past the id space, the scenario itself is refused.
        capture.header.nodes = 1_000_000_000_000_000;
        let err = replay(&capture, None, &dpr_telemetry::NOOP).unwrap_err();
        assert!(err.contains("scenario nodes: must be at most"), "{err}");
    }

    #[test]
    fn replay_refuses_a_codec_mismatch() {
        let (capture, _) = record(&smoke(), &dpr_telemetry::NOOP);
        assert_eq!(capture.header.codec, "raw");
        let err = replay(&capture, Some(WireCodec::Compact), &dpr_telemetry::NOOP).unwrap_err();
        assert!(err.contains("recorded under wire codec \"raw\""), "{err}");
        assert!(err.contains("--codec raw"), "{err}");
        // The matching codec replays fine.
        replay(&capture, Some(WireCodec::Raw), &dpr_telemetry::NOOP).unwrap();
    }

    #[test]
    fn compact_doctor_run_is_clean_under_its_own_tolerance() {
        let spec = ScenarioSpec {
            codec: WireCodec::Compact,
            ..ScenarioSpec::new(600, 8, 1e-4, 21)
        };
        let run = doctor_run(&spec, None, None);
        assert!(run.quiesced);
        assert!(run.report.passed(), "{}", run.report.diagnosis());
    }

    #[test]
    fn replay_refuses_foreign_scenarios() {
        let (mut capture, _) = record(&smoke(), &dpr_telemetry::NOOP);
        capture.header.scenario = "other".into();
        assert!(replay(&capture, None, &dpr_telemetry::NOOP)
            .unwrap_err()
            .contains("scenario"));
    }

    #[test]
    fn chaotic_capture_records_the_event_schedule_and_replays() {
        let cfg = FlightConfig {
            spec: ScenarioSpec {
                sched: SchedMode::Priority,
                run_mode: RunMode::Chaotic,
                latency: LatencyModel::Lan,
                ..ScenarioSpec::new(400, 10, 1e-4, 11)
            },
            inserts: 2,
            checkpoints: 1,
        };
        let (capture, original) = record(&cfg, &dpr_telemetry::NOOP);
        assert_eq!(capture.header.run_mode, "chaotic");
        assert_eq!(capture.header.latency, "lan");
        assert_ne!(capture.fingerprint.schedule_fnv, 0);

        let parsed = Capture::from_jsonl(&capture.to_jsonl()).unwrap();
        let out = replay(&parsed, None, &dpr_telemetry::NOOP).unwrap();
        assert_eq!(out.ranks, original.ranks, "chaotic replay is bit-exact");

        // A replay that executed a different schedule is named
        // precisely, even if it happened to reach the same ranks.
        let mut bad = capture.clone();
        bad.fingerprint.schedule_fnv ^= 1;
        let err = replay(&bad, None, &dpr_telemetry::NOOP).unwrap_err();
        assert!(err.contains("schedule_fnv"), "{err}");
    }

    #[test]
    fn chaotic_doctor_run_audits_clean_and_localizes_lost_frames() {
        let spec = ScenarioSpec {
            run_mode: RunMode::Chaotic,
            ..ScenarioSpec::new(600, 8, 1e-4, 21)
        };
        let clean = doctor_run(&spec, None, None);
        assert!(clean.quiesced);
        assert!(clean.rounds > 0, "chaotic doctor reports steps");
        assert!(clean.report.passed(), "{}", clean.report.diagnosis());

        let sick = doctor_run(
            &spec,
            Some(FaultPlan {
                kind: FaultKind::LostFrame,
                nth_send: 25,
            }),
            None,
        );
        assert!(sick.fault_fired_at.is_some());
        assert!(!sick.report.passed());
        assert_eq!(
            sick.report.primary().unwrap().monitor,
            Monitor::Quiescence,
            "{}",
            sick.report.diagnosis()
        );
    }

    #[test]
    fn profile_run_is_exact_and_chaotic_replay_streams_spans() {
        let spec = ScenarioSpec {
            sched: SchedMode::Priority,
            run_mode: RunMode::Chaotic,
            latency: LatencyModel::Lan,
            ..ScenarioSpec::new(400, 8, 1e-4, 21)
        };
        let mut obs = Observe::new(&dpr_telemetry::NOOP);
        obs.profile = true;
        let run = spec.run(&spec.workload(), Layer::Cluster, obs);
        assert!(run.quiesced);
        assert!(run.fault_fired_at.is_none());
        let profile = run.profile.expect("a profiled chaotic run");
        assert!(profile.breakdown_is_exact());
        assert_eq!(
            profile.virtual_ns, run.virtual_ns,
            "profile horizon equals the runtime's virtual clock"
        );
        assert!(!profile.path.is_empty());

        // Replaying a chaotic capture under a live recorder yields the
        // full span stream: one profile segment per reconvergence, and
        // every segment telescopes exactly.
        let cfg = FlightConfig {
            spec: ScenarioSpec {
                sched: SchedMode::Priority,
                run_mode: RunMode::Chaotic,
                latency: LatencyModel::Lan,
                ..ScenarioSpec::new(400, 10, 1e-4, 11)
            },
            inserts: 2,
            checkpoints: 1,
        };
        let (capture, _) = record(&cfg, &dpr_telemetry::NOOP);
        let rec = dpr_telemetry::TraceRecorder::new();
        replay(&capture, None, &rec).unwrap();
        let segments = Profile::segments_from_events(&rec.events()).unwrap();
        assert_eq!(segments.len(), 2, "initial solve plus one checkpoint");
        for seg in &segments {
            assert!(seg.breakdown_is_exact());
            assert!(seg.steps() > 0);
        }
    }

    #[test]
    fn doctor_run_is_clean_without_faults_and_localizes_with_them() {
        let spec = ScenarioSpec::new(600, 8, 1e-4, 21);
        let clean = doctor_run(&spec, None, None);
        assert!(clean.quiesced);
        assert!(clean.report.passed(), "{}", clean.report.diagnosis());
        assert!(clean.fault_fired_at.is_none());

        let sick = doctor_run(
            &spec,
            Some(FaultPlan {
                kind: FaultKind::LostFrame,
                nth_send: 25,
            }),
            None,
        );
        assert!(sick.fault_fired_at.is_some());
        assert!(!sick.report.passed());
        assert_eq!(
            sick.report.primary().unwrap().monitor,
            Monitor::Quiescence,
            "{}",
            sick.report.diagnosis()
        );
    }
}
