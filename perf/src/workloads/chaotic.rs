//! `chaotic_async` and `chaotic_audited`: the event runtime, the
//! paper's actual execution model — telemetry off, then on.

use crate::bench::Bench;
use crate::common::{build_workload, time_per_call, Ledger, RankCheck, Scale};
use crate::trace::Tracer;
use dpr_core::engine::EngineConfig;
use dpr_core::sched::RunMode;
use dpr_core::SchedMode;
use dpr_node::cluster::Cluster;
use dpr_node::node::WireMode;
use dpr_node::termination::TerminationDetector;
use dpr_p2p::peer::{PeerId, PeerTable};
use dpr_p2p::transport::{FrameEntry, RankUpdateWire, Transport, UpdateFrameWire, WireCodec};
use dpr_sim::event::{
    run_chaotic, run_chaotic_profiled, ChaoticConfig, ChaoticOutcome, LatencyModel,
};
use dpr_sim::flight::doctor_run_mode;
use dpr_sim::workload::Workload;
use dpr_telemetry::audit::{AuditReport, MASS_TOLERANCE};
use dpr_telemetry::{Profile, TraceRecorder, NOOP};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Event budget of every chaotic run; exhausting it is a failure.
const MAX_EVENTS: u64 = 1_000_000_000;

/// One chaotic scenario: paper workload, frames, raw codec, broadband,
/// full-sweep scheduling.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    nodes: usize,
    num_peers: usize,
    epsilon: f64,
}

/// A built scenario, ready for `run_chaotic`.
pub struct Built {
    w: Workload,
    cluster: Cluster,
    peers: PeerTable,
    det: TerminationDetector,
}

impl Scenario {
    fn chaotic_config(&self, seed: u64) -> ChaoticConfig {
        ChaoticConfig {
            seed,
            latency: LatencyModel::Broadband,
            sched: SchedMode::Pass,
            epsilon: self.epsilon,
        }
    }

    fn cluster(&self, w: &Workload) -> Cluster {
        let mut cluster = Cluster::build_with(
            &w.graph,
            &w.placement,
            self.num_peers,
            EngineConfig::with_epsilon(self.epsilon).with_sched(SchedMode::Pass),
            WireMode::frames(),
        );
        cluster.set_codec(WireCodec::Raw);
        cluster
    }

    fn build(&self, seed: u64, tr: &mut Tracer, ledger: &mut Ledger) -> Built {
        let w = build_workload(self.nodes, self.num_peers, seed, tr, ledger);
        let (cluster, ns) = tr.timed("node.cluster.build", || self.cluster(&w));
        if tr.enabled() {
            ledger.put("node.cluster.build_s", ns * 1e-9);
        }
        Built {
            peers: w.peer_table(),
            det: TerminationDetector::new(self.num_peers),
            w,
            cluster,
        }
    }

    fn params(&self) -> Vec<(String, Value)> {
        vec![
            ("docs".into(), Value::U64(self.nodes as u64)),
            ("peers".into(), Value::U64(self.num_peers as u64)),
            ("epsilon".into(), Value::F64(self.epsilon)),
            ("latency".into(), Value::Str("broadband".into())),
            ("sched".into(), Value::Str("pass".into())),
            ("wire".into(), Value::Str("frames".into())),
            ("codec".into(), Value::Str("raw".into())),
        ]
    }
}

/// Runs `b` to quiescence with telemetry off.
fn settle(b: &mut Built, cfg: &ChaoticConfig, tr: &mut Tracer) -> ChaoticOutcome {
    let outcome = tr.span("sim.event.run", || {
        run_chaotic(&mut b.cluster, &b.peers, cfg, &mut b.det, MAX_EVENTS, &NOOP)
    });
    tr.count("sim.event.steps", outcome.steps);
    tr.count("sim.event.deliveries", outcome.deliveries);
    outcome
}

/// Reads a settled scenario out after the clock stopped
/// (`collect_ranks` costs peers × documents lookups) and checks it:
/// quiescence, rank error, and the modelled metrics.
fn check_settled(
    sc: &Scenario,
    seed: u64,
    b: &Built,
    outcome: &ChaoticOutcome,
    ranks: &mut RankCheck,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) {
    let n = sc.nodes as f64;
    ledger.check(outcome.quiesced, || {
        "event budget exhausted before quiescence".into()
    });
    let settled = b.cluster.collect_ranks(b.w.graph.num_nodes());
    ranks.check(seed, &b.w.graph, &settled, 10.0 * sc.epsilon, tr, ledger);
    let msgs: u64 = (0..b.w.num_peers as u32)
        .map(|p| b.cluster.node(PeerId(p)).stats().emitted_remote)
        .sum();
    ledger.model(seed, "msgs_per_doc", msgs as f64 / n);
    let wire_bytes = b.cluster.traffic().bytes_sent;
    ledger.model(seed, "wire_bytes_per_doc", wire_bytes as f64 / n);
    ledger.model(seed, "virtual_s", outcome.virtual_ns as f64 * 1e-9);
    ledger.model(seed, "sim.event.steps", outcome.steps as f64);
    ledger.model(seed, "sim.event.deliveries", outcome.deliveries as f64);
}

pub struct AsyncBench {
    sc: Scenario,
    /// The small scenario the JSONL sink is timed on.
    jsonl: Scenario,
    out_dir: PathBuf,
    ranks: RankCheck,
    /// The first rep's schedule fingerprint on each input, by seed.
    schedule_fnv: BTreeMap<u64, u64>,
}

impl AsyncBench {
    pub fn new(scale: Scale, out_dir: PathBuf) -> Self {
        // The paper's smallest graph on its 500 peers at its
        // recommended ε. 20 documents per peer: the kernel idles and the
        // event queue, link tables, small frames and Safra probes do the
        // work.
        let sc = match scale {
            Scale::Full => Scenario {
                nodes: 10_000,
                num_peers: 500,
                epsilon: 1e-3,
            },
            Scale::Tiny => Scenario {
                nodes: 1_000,
                num_peers: 50,
                epsilon: 1e-3,
            },
        };
        let jsonl = match scale {
            Scale::Full => Scenario {
                nodes: 2_000,
                num_peers: 100,
                epsilon: 1e-3,
            },
            Scale::Tiny => Scenario {
                nodes: 500,
                num_peers: 25,
                epsilon: 1e-2,
            },
        };
        AsyncBench {
            sc,
            jsonl,
            out_dir,
            ranks: RankCheck::default(),
            schedule_fnv: BTreeMap::new(),
        }
    }
}

impl Bench for AsyncBench {
    type Input = Built;
    type Output = ChaoticOutcome;

    fn params(&self) -> Value {
        Value::Object(self.sc.params())
    }

    fn setup(&mut self, seed: u64, tr: &mut Tracer, ledger: &mut Ledger) -> Built {
        self.sc.build(seed, tr, ledger)
    }

    fn run(&mut self, seed: u64, b: &mut Built, tr: &mut Tracer) -> ChaoticOutcome {
        settle(b, &self.sc.chaotic_config(seed), tr)
    }

    fn verify(
        &mut self,
        seed: u64,
        b: &mut Built,
        outcome: &ChaoticOutcome,
        wall_s: f64,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) {
        check_settled(&self.sc, seed, b, outcome, &mut self.ranks, tr, ledger);
        let fnv = outcome.schedule_fnv;
        let first = *self.schedule_fnv.entry(seed).or_insert(fnv);
        ledger.check(fnv == first, || {
            format!("schedule_fnv {fnv:#x} differs from the first rep's {first:#x}")
        });

        if !tr.enabled() {
            return;
        }
        ledger.put(
            "sim.event.ns_per_event",
            wall_s * 1e9 / (outcome.steps + outcome.deliveries).max(1) as f64,
        );
    }

    fn layers(&mut self, seed: u64, budget: Duration, tr: &mut Tracer, ledger: &mut Ledger) {
        let each = budget / 8;
        let mut off = Tracer::new(false);
        let mut scratch = Ledger::default();

        // Span tracing forced on, same scenario, against the plain run.
        let cfg = self.sc.chaotic_config(seed);
        let mut plain = self.sc.build(seed, &mut off, &mut scratch);
        let (_, plain_ns) = tr.timed("bench.plain_twin", || settle(&mut plain, &cfg, &mut off));
        let mut b = self.sc.build(seed, &mut off, &mut scratch);
        let ((outcome, _profile), ns) = tr.timed("sim.event.run_profiled", || {
            run_chaotic_profiled(
                &mut b.cluster,
                &b.peers,
                &cfg,
                &mut b.det,
                MAX_EVENTS,
                &NOOP,
            )
        });
        ledger.check(outcome.quiesced, || "profiled run did not quiesce".into());
        ledger.put("telemetry.span.overhead_ratio", ns / plain_ns);

        // A Safra probe circuit over the quiescent cluster.
        let mut det = TerminationDetector::new(self.sc.num_peers);
        let ns = time_per_call(each, || det.advance(&plain.cluster, &plain.peers));
        ledger.put("node.termination.probe_ns", ns);

        // The JSONL sink, on the small scenario only: a file per run is
        // what makes `--trace-out` dear, and it never belongs in a
        // timed end-to-end run.
        let cfg = self.jsonl.chaotic_config(seed);
        let mut plain = self.jsonl.build(seed, &mut off, &mut scratch);
        let (_, plain_ns) = tr.timed("bench.plain_twin", || settle(&mut plain, &cfg, &mut off));
        let path = self
            .out_dir
            .join(format!("jsonl-sink-{}.tmp", std::process::id()));
        let mut b = self.jsonl.build(seed, &mut off, &mut scratch);
        match TraceRecorder::with_jsonl(&path) {
            Ok(rec) => {
                let rec = Arc::new(rec);
                b.cluster.set_recorder(rec.clone());
                let (_, ns) = tr.timed("sim.event.run_jsonl", || {
                    let out = run_chaotic(
                        &mut b.cluster,
                        &b.peers,
                        &cfg,
                        &mut b.det,
                        MAX_EVENTS,
                        rec.as_ref(),
                    );
                    (out, rec.flush())
                });
                let events = rec.event_count().max(1) as f64;
                let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                ledger.put("telemetry.jsonl.bytes_per_event", bytes as f64 / events);
                ledger.put("telemetry.jsonl.ns_per_event", (ns - plain_ns) / events);
                let recorded = rec.events();
                let (segments, ns) = tr.timed("telemetry.profile.extract", || {
                    Profile::segments_from_events(&recorded)
                });
                ledger.check(segments.is_ok(), || {
                    format!("profile extraction failed: {:?}", segments.err())
                });
                ledger.put("telemetry.profile.extract_s", ns * 1e-9);
            }
            Err(e) => ledger.check(false, || format!("cannot open {}: {e}", path.display())),
        }
        // Best effort: the file is scratch either way.
        let _ = std::fs::remove_file(&path);

        // The raw wire path in the shape this workload uses it: small
        // frames, singles, and one transport hop.
        let k = 4;
        let frame = UpdateFrameWire {
            entries: (0..k as u64)
                .map(|i| FrameEntry {
                    tag: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    value: 0.25,
                })
                .collect(),
        };
        let ns = time_per_call(each, || frame.encode());
        ledger.put("p2p.codec.raw.encode_ns_per_entry", ns / k as f64);
        let encoded = frame.encode();
        let ns = time_per_call(each, || UpdateFrameWire::decode(encoded.clone()));
        ledger.put("p2p.codec.raw.decode_ns_per_entry", ns / k as f64);
        let single = RankUpdateWire {
            guid: 0x0123_4567_89ab_cdef_0123_4567_89ab_cdef,
            value: 0.25,
        };
        let ns = time_per_call(each, || RankUpdateWire::decode(single.encode()));
        ledger.put("p2p.codec.single.roundtrip_ns", ns);
        ledger.check(
            UpdateFrameWire::decode(encoded.clone()).as_ref() == Ok(&frame)
                && RankUpdateWire::decode(single.encode()) == Ok(single),
            || "raw payload does not round-trip".into(),
        );

        let mut transport: Transport<bytes::Bytes> = Transport::new(self.sc.num_peers);
        let peers = PeerTable::new(self.sc.num_peers);
        let n = self.sc.num_peers as u32;
        let mut i = 0u32;
        let ns = time_per_call(each, || {
            i = i.wrapping_add(1);
            let (from, to) = (PeerId(i % n), PeerId((i / n) % n));
            transport.send(&peers, from, to, encoded.clone());
            transport.receive(to)
        });
        ledger.put("p2p.transport.send_recv_ns", ns);
    }
}

pub struct AuditedBench {
    sc: Scenario,
    /// By seed: the steps the audited scenario's untraced twin took, and
    /// the seconds of its `run_chaotic`. Settled once per input.
    twin: BTreeMap<u64, (u64, f64)>,
    ranks: RankCheck,
}

impl AuditedBench {
    pub fn new(scale: Scale) -> Self {
        // `chaotic_async`'s graph and peers at a looser ε: recording
        // triples the events kept per delivery, and all of them stay in
        // memory until the audit.
        let sc = match scale {
            Scale::Full => Scenario {
                nodes: 10_000,
                num_peers: 500,
                epsilon: 1e-2,
            },
            Scale::Tiny => Scenario {
                nodes: 1_000,
                num_peers: 50,
                epsilon: 1e-3,
            },
        };
        AuditedBench {
            sc,
            twin: BTreeMap::new(),
            ranks: RankCheck::default(),
        }
    }
}

pub struct AuditedOutput {
    passed: bool,
    diagnosis: String,
    steps: usize,
    quiesced: bool,
    events: usize,
    /// Wall of the recorded run and of the audit (traced run).
    recorded_run_s: f64,
    evaluate_s: f64,
}

impl Bench for AuditedBench {
    /// The untraced twin: the same workload and cluster
    /// `doctor_run_mode` builds for itself inside the timed call.
    type Input = Built;
    type Output = AuditedOutput;

    fn params(&self) -> Value {
        let mut p = self.sc.params();
        p.push(("recorder".into(), Value::Str("in-memory".into())));
        Value::Object(p)
    }

    fn setup(&mut self, seed: u64, tr: &mut Tracer, ledger: &mut Ledger) -> Built {
        self.sc.build(seed, tr, ledger)
    }

    fn run(&mut self, seed: u64, _twin: &mut Built, tr: &mut Tracer) -> AuditedOutput {
        let sc = self.sc;
        if !tr.enabled() {
            let run = doctor_run_mode(
                sc.nodes,
                sc.num_peers,
                sc.epsilon,
                seed,
                WireMode::frames(),
                WireCodec::Raw,
                None,
                SchedMode::Pass,
                RunMode::Chaotic,
                LatencyModel::Broadband,
            );
            return AuditedOutput {
                passed: run.report.passed(),
                diagnosis: run.report.diagnosis(),
                steps: run.rounds,
                quiesced: run.quiesced,
                events: run.events.len(),
                recorded_run_s: 0.0,
                evaluate_s: 0.0,
            };
        }
        // `doctor_run_mode` by hand, one span per layer call.
        let mut b = sc.build(seed, tr, &mut Ledger::default());
        let rec = Arc::new(TraceRecorder::new());
        b.cluster.set_recorder(rec.clone());
        let cfg = sc.chaotic_config(seed);
        let (out, run_ns) = tr.timed("sim.event.run_recorded", || {
            run_chaotic(
                &mut b.cluster,
                &b.peers,
                &cfg,
                &mut b.det,
                MAX_EVENTS,
                rec.as_ref(),
            )
        });
        let events = tr.span("telemetry.recorder.events", || rec.events());
        tr.count("telemetry.recorder.events", events.len() as u64);
        let (report, eval_ns) = tr.timed("telemetry.audit.evaluate", || {
            AuditReport::evaluate_with_mass_tolerance(&events, MASS_TOLERANCE)
        });
        AuditedOutput {
            passed: report.passed(),
            diagnosis: report.diagnosis(),
            steps: out.steps as usize,
            quiesced: out.quiesced,
            events: events.len(),
            recorded_run_s: run_ns * 1e-9,
            evaluate_s: eval_ns * 1e-9,
        }
    }

    fn verify(
        &mut self,
        seed: u64,
        twin: &mut Built,
        out: &AuditedOutput,
        wall_s: f64,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) {
        ledger.check(out.quiesced, || "audited run did not quiesce".into());
        ledger.check(out.passed, || format!("audit failed: {}", out.diagnosis));

        // The twin settles once per input: same seed, same schedule.
        if !self.twin.contains_key(&seed) {
            let cfg = self.sc.chaotic_config(seed);
            let (outcome, ns) = tr.timed("bench.plain_twin", || {
                settle(twin, &cfg, &mut Tracer::new(false))
            });
            check_settled(&self.sc, seed, twin, &outcome, &mut self.ranks, tr, ledger);
            self.twin.insert(seed, (outcome.steps, ns * 1e-9));
        }
        let (twin_steps, twin_run_s) = self.twin[&seed];
        ledger.check(out.steps as u64 == twin_steps, || {
            format!(
                "audited run took {} steps, its untraced twin {twin_steps}",
                out.steps
            )
        });

        if !tr.enabled() {
            return;
        }
        let events = out.events.max(1) as f64;
        ledger.model(seed, "telemetry.recorder.events", out.events as f64);
        ledger.put(
            "telemetry.recorder.ns_per_event",
            (out.recorded_run_s - twin_run_s) * 1e9 / events,
        );
        ledger.put(
            "telemetry.audit.evaluate_ns_per_event",
            out.evaluate_s * 1e9 / events,
        );
        // Audited over untraced, whole call against whole call: build
        // plus run (plus audit) on both sides.
        let untraced_s = ledger.median("setup_s") + twin_run_s;
        ledger.put("telemetry.recorder.overhead_ratio", wall_s / untraced_s);
    }

    /// Everything this workload adds to `chaotic_async` is read off the
    /// spans of its own run.
    fn layers(&mut self, _seed: u64, _budget: Duration, _tr: &mut Tracer, _ledger: &mut Ledger) {}
}
