//! `engine_seq` and `engine_sharded`: the rank kernel with no wire,
//! node or event machinery. Same problem, two drivers.

use crate::bench::Bench;
use crate::common::{build_workload, time_per_call, Ledger, RankCheck, Scale};
use crate::host;
use crate::trace::Tracer;
use dpr_core::engine::{ChaoticEngine, EngineConfig, PassStats, RunStats};
use dpr_core::parallel::ShardedExecutor;
use dpr_core::SchedMode;
use dpr_p2p::peer::PeerTable;
use dpr_sim::workload::Workload;
use serde_json::Value;
use std::time::{Duration, Instant};

/// Worker threads of `engine_sharded`: the container's `nproc`.
pub const SHARDED_THREADS: usize = 2;

/// ε of the scheduler comparison in the traced run.
const SCHED_EPSILON: f64 = 1e-3;

pub struct EngineBench {
    sharded: bool,
    nodes: usize,
    num_peers: usize,
    epsilon: f64,
    ranks: RankCheck,
}

impl EngineBench {
    pub fn new(sharded: bool, scale: Scale) -> Self {
        let (nodes, num_peers) = match scale {
            Scale::Full => (250_000, 500),
            Scale::Tiny => (2_000, 50),
        };
        EngineBench {
            sharded,
            nodes,
            num_peers,
            epsilon: 1e-5,
            ranks: RankCheck::default(),
        }
    }

    fn engine(&self, w: &Workload, epsilon: f64, sched: SchedMode) -> ChaoticEngine {
        ChaoticEngine::new(
            w.graph.clone(),
            w.owners(),
            EngineConfig::with_epsilon(epsilon).with_sched(sched),
        )
    }
}

pub struct EngineInput {
    w: Workload,
    eng: ChaoticEngine,
    peers: PeerTable,
}

pub struct EngineOutput {
    stats: RunStats,
    /// Nanoseconds inside pass calls (traced run).
    pass_ns: f64,
    applied: u64,
    senders: u64,
    /// `(delegated, sharded)` passes of the sharded executor.
    pass_mix: (u64, u64),
}

/// Drives `pass` by hand to quiescence, as `run_to_convergence` does
/// with no churn, one span per pass.
fn drive_passes(
    eng: &mut ChaoticEngine,
    span: &'static str,
    tr: &mut Tracer,
    mut pass: impl FnMut(&mut ChaoticEngine) -> PassStats,
) -> (RunStats, f64, u64, u64) {
    let cfg = eng.config();
    let mut run = RunStats::default();
    let (mut pass_ns, mut applied, mut senders) = (0.0, 0, 0);
    while !eng.is_quiescent() && run.passes < cfg.max_passes {
        let (stats, ns) = tr.timed(span, || pass(eng));
        pass_ns += ns;
        tr.count(
            "core.engine.pushes",
            stats.remote_messages + stats.local_updates,
        );
        tr.count("core.engine.applied", stats.applied);
        applied += stats.applied;
        senders += stats.senders;
        run.passes += 1;
        run.total_remote_messages += stats.remote_messages;
        run.total_local_updates += stats.local_updates;
    }
    run.converged = eng.is_quiescent();
    (run, pass_ns, applied, senders)
}

impl Bench for EngineBench {
    type Input = EngineInput;
    type Output = EngineOutput;

    fn params(&self) -> Value {
        Value::Object(vec![
            ("docs".into(), Value::U64(self.nodes as u64)),
            ("peers".into(), Value::U64(self.num_peers as u64)),
            ("epsilon".into(), Value::F64(self.epsilon)),
            ("sched".into(), Value::Str("pass".into())),
            (
                "threads".into(),
                Value::U64(if self.sharded { SHARDED_THREADS } else { 1 } as u64),
            ),
            (
                "oversubscribed".into(),
                Value::Bool(self.sharded && host::nproc() < SHARDED_THREADS),
            ),
        ])
    }

    fn setup(&mut self, seed: u64, tr: &mut Tracer, ledger: &mut Ledger) -> EngineInput {
        let w = build_workload(self.nodes, self.num_peers, seed, tr, ledger);
        let (eng, ns) = tr.timed("core.engine.build", || {
            self.engine(&w, self.epsilon, SchedMode::Pass)
        });
        if tr.enabled() {
            ledger.put("core.engine.build_s", ns * 1e-9);
        }
        let peers = w.peer_table();
        EngineInput { w, eng, peers }
    }

    fn run(&mut self, _seed: u64, input: &mut EngineInput, tr: &mut Tracer) -> EngineOutput {
        let EngineInput { eng, peers, .. } = input;
        let mut exec = ShardedExecutor::new(SHARDED_THREADS);
        let (stats, pass_ns, applied, senders) = match (self.sharded, tr.enabled()) {
            (false, false) => (eng.run_to_convergence(peers, None), 0.0, 0, 0),
            (true, false) => (exec.run_to_convergence(eng, peers, None), 0.0, 0, 0),
            (false, true) => drive_passes(eng, "core.engine.pass", tr, |e| e.pass(peers)),
            (true, true) => drive_passes(eng, "core.sharded.pass", tr, |e| exec.pass(e, peers)),
        };
        EngineOutput {
            stats,
            pass_ns,
            applied,
            senders,
            pass_mix: exec.pass_mix(),
        }
    }

    fn verify(
        &mut self,
        seed: u64,
        input: &mut EngineInput,
        out: &EngineOutput,
        _wall_s: f64,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) {
        let n = self.nodes as f64;
        ledger.check(out.stats.converged, || {
            format!("not quiescent after {} passes", out.stats.passes)
        });
        let max_err = 10.0 * self.epsilon;
        self.ranks
            .check(seed, &input.w.graph, input.eng.ranks(), max_err, tr, ledger);
        let msgs = out.stats.total_remote_messages as f64;
        ledger.model(seed, "msgs_per_doc", msgs / n);

        if !tr.enabled() {
            return;
        }
        let pushes = out.stats.total_remote_messages + out.stats.total_local_updates;
        let per_push = out.pass_ns / pushes.max(1) as f64;
        if self.sharded {
            ledger.put("core.sharded.ns_per_push", per_push);
            let (delegated, sharded) = out.pass_mix;
            ledger.put(
                "core.sharded.sharded_pass_share",
                sharded as f64 / (delegated + sharded).max(1) as f64,
            );
            // The timed region's CPU seconds over both workers, which
            // the driver has just sampled.
            let cpu_s = *ledger
                .samples("bench.cpu_s")
                .last()
                .expect("sampled per rep");
            ledger.put("core.sharded.cpu_s", cpu_s);
        } else {
            ledger.put("core.engine.ns_per_push", per_push);
            ledger.model(seed, "core.engine.pushes", pushes as f64);
            ledger.model(seed, "core.engine.passes", out.stats.passes as f64);
            // Bytes the pass touches, computed from element sizes (cache
            // misses ignored). Per push: target id 4, its pending
            // accumulator read+write 16, queued flag 1, owner 4. Per
            // applied document: work entry 4, owner 4, queued 1, pending
            // and rank read+write 32, applied entry written and read 8,
            // advertised 8. Per sender: two CSR offsets 16, advertised 8.
            let bytes = 25 * pushes + 57 * out.applied + 24 * out.senders;
            ledger.model(
                seed,
                "core.engine.bytes_per_push_computed",
                bytes as f64 / pushes.max(1) as f64,
            );
        }
    }

    fn layers(&mut self, seed: u64, budget: Duration, tr: &mut Tracer, ledger: &mut Ledger) {
        let w = Workload::paper(self.nodes, self.num_peers, seed);
        let edges = w.graph.num_edges().max(1) as f64;
        let ns = time_per_call(budget / 4, || w.graph.transpose());
        ledger.put("graph.csr.transpose_ns_per_edge", ns / edges);

        if self.sharded {
            // The plain single-threaded run of the same problem.
            let mut eng = self.engine(&w, self.epsilon, SchedMode::Pass);
            let mut peers = w.peer_table();
            let t = Instant::now();
            let seq = tr.span("core.engine.run", || {
                eng.run_to_convergence(&mut peers, None)
            });
            let seq_wall = t.elapsed().as_secs_f64();
            ledger.check(seq.converged, || "sequential twin not quiescent".into());
            // Untraced on both sides of the ratio.
            let sharded_wall = ledger.median("bench.untraced_wall_s");
            ledger.put("core.sharded.speedup_vs_seq", seq_wall / sharded_wall);
            return;
        }

        // The other two schedulers on the same graph, at the ε where
        // they are used: explains wall vs messages if the default moves.
        for (sched, wall_name, pushes_name, span) in [
            (
                SchedMode::Priority,
                "core.sched.priority.wall_s",
                "core.sched.priority.pushes",
                "core.sched.priority.run",
            ),
            (
                SchedMode::Greedy,
                "core.sched.greedy.wall_s",
                "core.sched.greedy.pushes",
                "core.sched.greedy.run",
            ),
        ] {
            let mut eng = self.engine(&w, SCHED_EPSILON, sched);
            let mut peers = w.peer_table();
            let (stats, ns) = tr.timed(span, || eng.run_to_convergence(&mut peers, None));
            ledger.check(stats.converged, || format!("{sched} run not quiescent"));
            ledger.put(wall_name, ns * 1e-9);
            ledger.model(
                seed,
                pushes_name,
                (stats.total_remote_messages + stats.total_local_updates) as f64,
            );
        }
    }
}
