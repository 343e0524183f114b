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
//!   from the header — under *any* [`ExecMode`], since the executor is
//!   bit-identical — and proves the re-run matched. A mismatch is a
//!   determinism bug with a one-file repro.
//! * [`doctor_run`] — drive the message-level [`Cluster`] with the
//!   flight recorder on, optionally staging one transport fault, and
//!   return the trace together with the [`AuditReport`] verdict over
//!   it. This is the scenario half of `dpr doctor`; the monitors are
//!   in `dpr_telemetry::audit`.
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

use crate::event::{
    fold_schedule_fnv, run_chaotic, run_chaotic_profiled, ChaoticConfig, ChaoticOutcome,
    LatencyModel, SCHEDULE_FNV_SEED,
};
use crate::workload::Workload;
use dpr_core::engine::{ChaoticEngine, EngineConfig};
use dpr_core::parallel::ExecMode;
use dpr_core::{RunMode, SchedMode};
use dpr_graph::DocId;
use dpr_node::cluster::Cluster;
use dpr_node::node::WireMode;
use dpr_node::termination::TerminationDetector;
use dpr_p2p::transport::{FaultPlan, WireCodec};
use dpr_telemetry::replay::{fnv64_ranks, Capture, CaptureHeader, Fingerprint, CAPTURE_VERSION};
use dpr_telemetry::{AuditReport, Event, Profile, Recorder, TraceRecorder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The scenario name stamped into capture headers.
pub const FLIGHT_SCENARIO: &str = "continuous-update";

/// Configuration of one flight — everything a capture header holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightConfig {
    /// Documents in the graph.
    pub nodes: usize,
    /// Peers the documents are placed on.
    pub num_peers: usize,
    /// Update injections performed after the initial solve.
    pub inserts: usize,
    /// Reconvergence checkpoints across the injection stream.
    pub checkpoints: usize,
    /// Convergence threshold ε.
    pub epsilon: f64,
    /// Master seed (graph, placement, and injection RNGs derive from
    /// it).
    pub seed: u64,
    /// Pass scheduler for every run in the scenario.
    pub sched: SchedMode,
    /// Wire codec the capture's fingerprint assumes. Compact
    /// quantizes updates to `f32`, so fingerprints recorded under one
    /// codec are meaningless under the other.
    pub codec: WireCodec,
    /// Run mode: barrier-stepped rounds (the default, engine-level) or
    /// the event-driven chaotic runtime (message-level cluster). The
    /// two execute different schedules, so their fingerprints are not
    /// comparable.
    pub run_mode: RunMode,
    /// Network model of a chaotic flight; ignored (but still recorded)
    /// under rounds mode, where delivery is instantaneous.
    pub latency: LatencyModel,
}

impl FlightConfig {
    /// The acceptance-scale flight: the paper's 10,000-document graph
    /// on its 500 peers.
    pub fn paper_scale() -> Self {
        FlightConfig {
            nodes: 10_000,
            num_peers: crate::workload::PAPER_NUM_PEERS,
            inserts: 12,
            checkpoints: 4,
            epsilon: 1e-4,
            seed: 2003,
            sched: SchedMode::Pass,
            codec: WireCodec::Raw,
            run_mode: RunMode::Rounds,
            latency: LatencyModel::default(),
        }
    }

    /// A seconds-scale flight for CI smoke runs and tests.
    pub fn smoke() -> Self {
        FlightConfig {
            nodes: 1_200,
            num_peers: 40,
            inserts: 6,
            checkpoints: 2,
            epsilon: 1e-3,
            seed: 7,
            sched: SchedMode::Pass,
            codec: WireCodec::Raw,
            run_mode: RunMode::Rounds,
            latency: LatencyModel::default(),
        }
    }

    /// The capture header describing this flight.
    pub fn header(&self) -> CaptureHeader {
        CaptureHeader {
            version: CAPTURE_VERSION,
            scenario: FLIGHT_SCENARIO.to_string(),
            nodes: self.nodes as u64,
            num_peers: self.num_peers as u64,
            inserts: self.inserts as u64,
            checkpoints: self.checkpoints as u64,
            epsilon: self.epsilon,
            seed: self.seed,
            sched: self.sched.to_string(),
            codec: self.codec.to_string(),
            run_mode: self.run_mode.to_string(),
            latency: self.latency.to_string(),
        }
    }

    /// Reconstructs the flight a capture header describes.
    pub fn from_header(h: &CaptureHeader) -> Result<Self, String> {
        if h.scenario != FLIGHT_SCENARIO {
            return Err(format!(
                "capture records scenario {:?}, this replayer runs {FLIGHT_SCENARIO:?}",
                h.scenario
            ));
        }
        Ok(FlightConfig {
            nodes: h.nodes as usize,
            num_peers: h.num_peers as usize,
            inserts: h.inserts as usize,
            checkpoints: h.checkpoints as usize,
            epsilon: h.epsilon,
            seed: h.seed,
            sched: h.sched.parse()?,
            codec: h.codec.parse()?,
            run_mode: h.run_mode.parse()?,
            latency: h.latency.parse()?,
        })
    }
}

/// What one flight produced: the final ranks, the traffic counters the
/// fingerprint pins, and the injection stream actually performed.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightOutcome {
    /// Final per-document ranks.
    pub ranks: Vec<f64>,
    /// Total engine passes across the initial solve and every
    /// checkpoint reconvergence.
    pub passes: u64,
    /// Total remote messages (the paper's traffic metric).
    pub remote_messages: u64,
    /// Total same-peer updates.
    pub local_updates: u64,
    /// FNV-1a over the executed event schedule, folded across the
    /// scenario's chaotic segments; zero for rounds-mode flights.
    pub schedule_fnv: u64,
    /// The injections performed, in order.
    pub injections: Vec<Event>,
}

impl FlightOutcome {
    /// The bit-exact fingerprint a replay must reproduce.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            ranks_fnv: fnv64_ranks(&self.ranks),
            docs: self.ranks.len() as u64,
            passes: self.passes,
            remote_messages: self.remote_messages,
            local_updates: self.local_updates,
            schedule_fnv: self.schedule_fnv,
        }
    }
}

/// Executes one flight under `mode`, tracing through `rec`. The
/// outcome is a pure function of `cfg` — `mode` only changes how fast
/// it arrives (the executor determinism contract) and `rec` never
/// perturbs it. Chaotic flights run the message-level cluster under
/// the event runtime ([`crate::event`]); `mode` is irrelevant there
/// (the event loop is inherently sequential) and ignored.
pub fn fly<R: Recorder + ?Sized>(cfg: &FlightConfig, mode: ExecMode, rec: &R) -> FlightOutcome {
    assert!(cfg.checkpoints >= 1 && cfg.inserts >= cfg.checkpoints);
    if cfg.run_mode == RunMode::Chaotic {
        return fly_chaotic(cfg, rec);
    }
    let w = Workload::paper(cfg.nodes, cfg.num_peers, cfg.seed);
    let mut engine = ChaoticEngine::new(
        w.graph.clone(),
        w.owners(),
        EngineConfig::with_epsilon(cfg.epsilon).with_sched(cfg.sched),
    );
    let mut peers = w.peer_table();
    let initial = mode.run_observed(&mut engine, &mut peers, None, rec, "initial");
    assert!(initial.converged, "initial solve must converge");
    let mut passes = initial.passes as u64;
    let mut remote = initial.total_remote_messages;
    let mut local = initial.total_local_updates;

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xf11e);
    let stride = cfg.inserts / cfg.checkpoints;
    let mut injections = Vec::with_capacity(cfg.inserts);
    for i in 1..=cfg.inserts {
        let doc = DocId(rng.gen_range(0..cfg.nodes as u32));
        let delta = rng.gen_range(0.05..0.5);
        engine.inject_delta(doc, delta);
        let ev = Event::DocInserted {
            seq: i as u64,
            doc: u64::from(doc.0),
        };
        if rec.enabled() {
            rec.event(&ev);
        }
        injections.push(ev);
        if i % stride == 0 || i == cfg.inserts {
            let run = mode.run_observed(&mut engine, &mut peers, None, rec, &format!("update@{i}"));
            assert!(run.converged, "checkpoint reconvergence must converge");
            passes += run.passes as u64;
            remote += run.total_remote_messages;
            local += run.total_local_updates;
        }
    }
    FlightOutcome {
        ranks: engine.ranks().to_vec(),
        passes,
        remote_messages: remote,
        local_updates: local,
        schedule_fnv: 0,
        injections,
    }
}

/// The chaotic half of [`fly`]: the same continuous-update scenario
/// (same seeds, same injection stream) driven through the
/// message-level [`Cluster`] under the discrete-event runtime. The
/// fingerprint maps steps to `passes`, the nodes' emitted remote
/// entries to `remote_messages`, and additionally pins the executed
/// event schedule via `schedule_fnv`.
fn fly_chaotic<R: Recorder + ?Sized>(cfg: &FlightConfig, rec: &R) -> FlightOutcome {
    let w = Workload::paper(cfg.nodes, cfg.num_peers, cfg.seed);
    let mut cluster = Cluster::build_with(
        &w.graph,
        &w.placement,
        cfg.num_peers,
        EngineConfig::with_epsilon(cfg.epsilon).with_sched(cfg.sched),
        WireMode::frames(),
    );
    cluster.set_codec(cfg.codec);
    let peers = w.peer_table();
    let ccfg = ChaoticConfig {
        seed: cfg.seed,
        latency: cfg.latency,
        sched: cfg.sched,
        epsilon: cfg.epsilon,
    };
    let mut schedule_fnv = SCHEDULE_FNV_SEED;
    let mut passes = 0u64;
    // One detector per segment: Safra's counters are lifetime sums,
    // which balance exactly at each segment's quiescence.
    let reconverge = |cluster: &mut Cluster, fnv: &mut u64| {
        let mut det = TerminationDetector::new(cfg.num_peers);
        let out = run_chaotic(cluster, &peers, &ccfg, &mut det, 1_000_000_000, rec);
        assert!(out.quiesced, "chaotic segment must quiesce");
        *fnv = fold_schedule_fnv(*fnv, out.schedule_fnv);
        out.steps
    };
    passes += reconverge(&mut cluster, &mut schedule_fnv);

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xf11e);
    let stride = cfg.inserts / cfg.checkpoints;
    let mut injections = Vec::with_capacity(cfg.inserts);
    for i in 1..=cfg.inserts {
        let doc = DocId(rng.gen_range(0..cfg.nodes as u32));
        let delta = rng.gen_range(0.05..0.5);
        cluster.apply_delta(doc, delta);
        let ev = Event::DocInserted {
            seq: i as u64,
            doc: u64::from(doc.0),
        };
        if rec.enabled() {
            rec.event(&ev);
        }
        injections.push(ev);
        if i % stride == 0 || i == cfg.inserts {
            passes += reconverge(&mut cluster, &mut schedule_fnv);
        }
    }
    let (mut remote, mut local) = (0u64, 0u64);
    for p in 0..cfg.num_peers as u32 {
        let stats = cluster.node(dpr_p2p::peer::PeerId(p)).stats();
        remote += stats.emitted_remote;
        local += stats.local_updates;
    }
    FlightOutcome {
        ranks: cluster.collect_ranks(cfg.nodes),
        passes,
        remote_messages: remote,
        local_updates: local,
        schedule_fnv,
        injections,
    }
}

/// Runs the flight and packages it as a [`Capture`].
pub fn record(cfg: &FlightConfig, mode: ExecMode) -> (Capture, FlightOutcome) {
    let out = fly(cfg, mode, &dpr_telemetry::NOOP);
    let capture = Capture {
        header: cfg.header(),
        injections: out.injections.clone(),
        fingerprint: out.fingerprint(),
    };
    (capture, out)
}

/// Re-executes a capture under `mode` and proves the re-run matched:
/// the derived injection stream must equal the recorded one (so the
/// comparison is about the same run), then every fingerprint field
/// must agree bit for bit. The error names the first divergence.
pub fn replay(capture: &Capture, mode: ExecMode) -> Result<FlightOutcome, String> {
    replay_observed(capture, mode, &dpr_telemetry::NOOP)
}

/// [`replay`] with a live recorder: the re-execution traces through
/// `rec` exactly as the original `fly` would have, so a chaotic
/// capture replays into a full `span_closed` stream — this is how
/// `dpr profile --replay` turns a one-file repro into a causal
/// profile. The fingerprint proof is unchanged (recording never
/// perturbs the run; that is the zero-perturbation contract the
/// differential tests pin).
pub fn replay_observed<R: Recorder + ?Sized>(
    capture: &Capture,
    mode: ExecMode,
    rec: &R,
) -> Result<FlightOutcome, String> {
    let cfg = FlightConfig::from_header(&capture.header)?;
    let out = fly(&cfg, mode, rec);
    if out.injections != capture.injections {
        let at = out
            .injections
            .iter()
            .zip(&capture.injections)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| out.injections.len().min(capture.injections.len()));
        return Err(format!(
            "replayed injection stream diverges from the capture at index {at} \
             (replayed {} vs recorded {})",
            out.injections.len(),
            capture.injections.len(),
        ));
    }
    let (got, want) = (out.fingerprint(), capture.fingerprint.clone());
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

/// Like [`replay_observed`], but first refuses captures recorded under a
/// different wire codec than the one this replayer is running.
/// Compact quantizes updates to `f32`, so a fingerprint recorded under
/// one codec says nothing about a run under the other — comparing them
/// would report a phantom determinism bug.
pub fn replay_under_codec<R: Recorder + ?Sized>(
    capture: &Capture,
    mode: ExecMode,
    codec: WireCodec,
    rec: &R,
) -> Result<FlightOutcome, String> {
    let cfg = FlightConfig::from_header(&capture.header)?;
    if cfg.codec != codec {
        return Err(format!(
            "capture was recorded under wire codec \"{}\" but this replay runs \"{codec}\" \
             — fingerprints are not comparable across codecs; pass --codec {} or \
             re-record the capture",
            cfg.codec, cfg.codec
        ));
    }
    replay_observed(capture, mode, rec)
}

/// One audited diagnostic run — the scenario half of `dpr doctor`.
#[derive(Debug)]
pub struct DoctorRun {
    /// The monitors' verdict over the run's trace.
    pub report: AuditReport,
    /// Rounds the cluster executed.
    pub rounds: usize,
    /// Whether the cluster quiesced within the round budget.
    pub quiesced: bool,
    /// The send index the staged fault fired at, if one was staged and
    /// struck.
    pub fault_fired_at: Option<u64>,
    /// The full event trace (for `--trace-out`).
    pub events: Vec<Event>,
}

/// Drives the message-level cluster to quiescence with the flight
/// recorder on, optionally staging one transport `fault`, and audits
/// the resulting trace. A clean run passes every monitor; each staged
/// fault is caught by the monitor owning the invariant it breaks.
/// Runs under the default round loop; see [`doctor_run_mode`] for the
/// chaotic variant.
pub fn doctor_run(
    nodes: usize,
    num_peers: usize,
    epsilon: f64,
    seed: u64,
    wire: WireMode,
    codec: WireCodec,
    fault: Option<FaultPlan>,
) -> DoctorRun {
    doctor_run_mode(
        nodes,
        num_peers,
        epsilon,
        seed,
        wire,
        codec,
        fault,
        SchedMode::Pass,
        RunMode::Rounds,
        LatencyModel::default(),
    )
}

/// [`doctor_run`] with an explicit run mode: `Rounds` drives the
/// barrier loop, `Chaotic` the event runtime (where `rounds` in the
/// result counts local steps and the trace additionally certifies the
/// event schedule). The monitors are barrier-agnostic, so the same
/// audit applies to both.
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
    let w = Workload::paper(nodes, num_peers, seed);
    let mut cluster = Cluster::build_with(
        &w.graph,
        &w.placement,
        num_peers,
        EngineConfig::with_epsilon(epsilon).with_sched(sched),
        wire,
    );
    cluster.set_codec(codec);
    let rec = Arc::new(TraceRecorder::new());
    cluster.set_recorder(rec.clone());
    if let Some(plan) = fault {
        cluster.inject_transport_fault(plan);
    }
    let mut peers = w.peer_table();
    let (rounds, quiesced) = match run_mode {
        RunMode::Rounds => cluster.run_observed(&mut peers, 100_000, None, rec.as_ref()),
        RunMode::Chaotic => {
            let ccfg = ChaoticConfig {
                seed,
                latency,
                sched,
                epsilon,
            };
            let mut det = TerminationDetector::new(num_peers);
            let out = run_chaotic(
                &mut cluster,
                &peers,
                &ccfg,
                &mut det,
                1_000_000_000,
                rec.as_ref(),
            );
            (out.steps as usize, out.quiesced)
        }
    };
    let events = rec.events();
    let mass_tol = match codec {
        WireCodec::Raw => dpr_telemetry::audit::MASS_TOLERANCE,
        WireCodec::Compact => dpr_telemetry::audit::COMPACT_MASS_TOLERANCE,
    };
    DoctorRun {
        report: AuditReport::evaluate_with_mass_tolerance(&events, mass_tol),
        rounds,
        quiesced,
        fault_fired_at: cluster.fault_fired_at(),
        events,
    }
}

/// One live profiled run — the scenario half of `dpr profile`.
#[derive(Debug)]
pub struct ProfileRun {
    /// The chaotic runtime's outcome (steps, traffic, `virtual_ns`,
    /// schedule fingerprint).
    pub outcome: ChaoticOutcome,
    /// The causal profile extracted from the run's span stream.
    pub profile: Profile,
    /// The send index the staged fault fired at, if one was staged and
    /// struck.
    pub fault_fired_at: Option<u64>,
}

/// Drives one chaotic reconvergence of the paper workload with span
/// tracing forced on and returns its causal profile. This is the live
/// half of `dpr profile`; the offline halves consume a Capture v3
/// ([`replay_observed`]) or an already-recorded trace JSONL. A staged
/// transport `fault` lets the profiler show *where* the virtual time
/// goes when a frame is lost (the settle phase's probe circuits
/// dominate the critical path instead of compute).
#[allow(clippy::too_many_arguments)]
pub fn profile_run(
    nodes: usize,
    num_peers: usize,
    epsilon: f64,
    seed: u64,
    sched: SchedMode,
    codec: WireCodec,
    latency: LatencyModel,
    fault: Option<FaultPlan>,
) -> ProfileRun {
    let w = Workload::paper(nodes, num_peers, seed);
    let mut cluster = Cluster::build_with(
        &w.graph,
        &w.placement,
        num_peers,
        EngineConfig::with_epsilon(epsilon).with_sched(sched),
        WireMode::frames(),
    );
    cluster.set_codec(codec);
    if let Some(plan) = fault {
        cluster.inject_transport_fault(plan);
    }
    let peers = w.peer_table();
    let ccfg = ChaoticConfig {
        seed,
        latency,
        sched,
        epsilon,
    };
    let mut det = TerminationDetector::new(num_peers);
    let (outcome, profile) = run_chaotic_profiled(
        &mut cluster,
        &peers,
        &ccfg,
        &mut det,
        1_000_000_000,
        &dpr_telemetry::NOOP,
    );
    ProfileRun {
        outcome,
        profile,
        fault_fired_at: cluster.fault_fired_at(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_p2p::transport::FaultKind;
    use dpr_telemetry::audit::Monitor;

    #[test]
    fn capture_replays_bit_identically_across_exec_modes() {
        let cfg = FlightConfig::smoke();
        let (capture, original) = record(&cfg, ExecMode::Sequential);
        assert_eq!(capture.injections.len(), cfg.inserts);

        // Through the JSONL round trip, in both executors.
        let parsed = Capture::from_jsonl(&capture.to_jsonl()).unwrap();
        for mode in [ExecMode::Sequential, ExecMode::Parallel(4)] {
            let out = replay(&parsed, mode).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert_eq!(
                out.ranks, original.ranks,
                "{mode:?} ranks must be bitwise equal"
            );
            assert_eq!(out.fingerprint(), capture.fingerprint);
        }
    }

    #[test]
    fn replay_detects_a_tampered_fingerprint() {
        let (mut capture, _) = record(&FlightConfig::smoke(), ExecMode::Sequential);
        capture.fingerprint.remote_messages += 1;
        let err = replay(&capture, ExecMode::Sequential).unwrap_err();
        assert!(err.contains("remote_messages"), "{err}");

        let (mut capture, _) = record(&FlightConfig::smoke(), ExecMode::Sequential);
        capture.injections.swap(0, 1);
        let err = replay(&capture, ExecMode::Sequential).unwrap_err();
        assert!(err.contains("index 0"), "{err}");
    }

    #[test]
    fn replay_refuses_a_codec_mismatch() {
        let (capture, _) = record(&FlightConfig::smoke(), ExecMode::Sequential);
        assert_eq!(capture.header.codec, "raw");
        let err = replay_under_codec(
            &capture,
            ExecMode::Sequential,
            WireCodec::Compact,
            &dpr_telemetry::NOOP,
        )
        .unwrap_err();
        assert!(err.contains("recorded under wire codec \"raw\""), "{err}");
        assert!(err.contains("--codec raw"), "{err}");
        // The matching codec replays fine.
        replay_under_codec(
            &capture,
            ExecMode::Sequential,
            WireCodec::Raw,
            &dpr_telemetry::NOOP,
        )
        .unwrap();
    }

    #[test]
    fn compact_doctor_run_is_clean_under_its_own_tolerance() {
        let run = doctor_run(
            600,
            8,
            1e-4,
            21,
            WireMode::frames(),
            WireCodec::Compact,
            None,
        );
        assert!(run.quiesced);
        assert!(run.report.passed(), "{}", run.report.diagnosis());
    }

    #[test]
    fn replay_refuses_foreign_scenarios() {
        let (mut capture, _) = record(&FlightConfig::smoke(), ExecMode::Sequential);
        capture.header.scenario = "other".into();
        assert!(replay(&capture, ExecMode::Sequential)
            .unwrap_err()
            .contains("scenario"));
    }

    #[test]
    fn chaotic_capture_records_the_event_schedule_and_replays() {
        let cfg = FlightConfig {
            nodes: 400,
            num_peers: 10,
            inserts: 2,
            checkpoints: 1,
            epsilon: 1e-4,
            seed: 11,
            sched: SchedMode::Priority,
            codec: WireCodec::Raw,
            run_mode: RunMode::Chaotic,
            latency: LatencyModel::Lan,
        };
        let (capture, original) = record(&cfg, ExecMode::Sequential);
        assert_eq!(capture.header.run_mode, "chaotic");
        assert_eq!(capture.header.latency, "lan");
        assert_ne!(capture.fingerprint.schedule_fnv, 0);

        let parsed = Capture::from_jsonl(&capture.to_jsonl()).unwrap();
        let out = replay(&parsed, ExecMode::Sequential).unwrap();
        assert_eq!(out.ranks, original.ranks, "chaotic replay is bit-exact");

        // A replay that executed a different schedule is named
        // precisely, even if it happened to reach the same ranks.
        let mut bad = capture.clone();
        bad.fingerprint.schedule_fnv ^= 1;
        let err = replay(&bad, ExecMode::Sequential).unwrap_err();
        assert!(err.contains("schedule_fnv"), "{err}");
    }

    #[test]
    fn chaotic_doctor_run_audits_clean_and_localizes_lost_frames() {
        let clean = doctor_run_mode(
            600,
            8,
            1e-4,
            21,
            WireMode::frames(),
            WireCodec::Raw,
            None,
            SchedMode::Pass,
            RunMode::Chaotic,
            LatencyModel::Broadband,
        );
        assert!(clean.quiesced);
        assert!(clean.rounds > 0, "chaotic doctor reports steps");
        assert!(clean.report.passed(), "{}", clean.report.diagnosis());

        let sick = doctor_run_mode(
            600,
            8,
            1e-4,
            21,
            WireMode::frames(),
            WireCodec::Raw,
            Some(FaultPlan {
                kind: FaultKind::LostFrame,
                nth_send: 25,
            }),
            SchedMode::Pass,
            RunMode::Chaotic,
            LatencyModel::Broadband,
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
        let run = profile_run(
            400,
            8,
            1e-4,
            21,
            SchedMode::Priority,
            WireCodec::Raw,
            LatencyModel::Lan,
            None,
        );
        assert!(run.outcome.quiesced);
        assert!(run.fault_fired_at.is_none());
        assert!(run.profile.breakdown_is_exact());
        assert_eq!(
            run.profile.virtual_ns, run.outcome.virtual_ns,
            "profile horizon equals the runtime's virtual clock"
        );
        assert!(!run.profile.path.is_empty());

        // Replaying a chaotic capture under a live recorder yields the
        // full span stream: one profile segment per reconvergence, and
        // every segment telescopes exactly.
        let cfg = FlightConfig {
            nodes: 400,
            num_peers: 10,
            inserts: 2,
            checkpoints: 1,
            epsilon: 1e-4,
            seed: 11,
            sched: SchedMode::Priority,
            codec: WireCodec::Raw,
            run_mode: RunMode::Chaotic,
            latency: LatencyModel::Lan,
        };
        let (capture, _) = record(&cfg, ExecMode::Sequential);
        let rec = TraceRecorder::new();
        replay_observed(&capture, ExecMode::Sequential, &rec).unwrap();
        let segments = Profile::segments_from_events(&rec.events()).unwrap();
        assert_eq!(segments.len(), 2, "initial solve plus one checkpoint");
        for seg in &segments {
            assert!(seg.breakdown_is_exact());
            assert!(seg.steps() > 0);
        }
    }

    #[test]
    fn doctor_run_is_clean_without_faults_and_localizes_with_them() {
        let clean = doctor_run(600, 8, 1e-4, 21, WireMode::frames(), WireCodec::Raw, None);
        assert!(clean.quiesced);
        assert!(clean.report.passed(), "{}", clean.report.diagnosis());
        assert!(clean.fault_fired_at.is_none());

        let sick = doctor_run(
            600,
            8,
            1e-4,
            21,
            WireMode::frames(),
            WireCodec::Raw,
            Some(FaultPlan {
                kind: FaultKind::LostFrame,
                nth_send: 25,
            }),
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
