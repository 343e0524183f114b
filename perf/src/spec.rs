//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the root
//! of the repository is `--emit-spec`'s output, and the smoke test
//! fails if the two drift apart.

use serde_json::Value;

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["perf"];

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "engine_seq",
        "rank kernel alone (ChaoticEngine passes over CSR, no wire/node/event code): the plain single-threaded baseline",
    ),
    (
        "engine_sharded",
        "same problem through ShardedExecutor at 2 threads: the only workload where core::parallel does the work",
    ),
    (
        "cluster_rounds",
        "message-level cluster under the round barrier, 600 docs/peer, large compact frames, cached hops: per-entry wire costs",
    ),
    (
        "chaotic_async",
        "event runtime with telemetry off, 20 docs/peer, tiny raw frames: queue, link tables and Safra probes, not the kernel",
    ),
    (
        "chaotic_audited",
        "the dpr doctor path: same runtime with an in-memory recorder attached, then the audit; telemetry on instead of off",
    ),
    (
        "serving_mix",
        "queries, updates and churn under three query strategies: index build and query execution in dpr-search dominate",
    ),
    (
        "update_bursts",
        "insert/delete bursts as SCC-localized waves on a dynamic graph: graph::dynamic, graph::scc, core::incremental",
    ),
];

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    /// Every end-to-end metric has one; among per-layer metrics only
    /// the modelled ones do, and only `--compare` reads it.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

/// Deterministic per seed, so any drift is a change of behaviour.
const fn modelled(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, 0.001)
}

/// Defined on every workload and never zero.
pub const END_TO_END: [Metric; 3] = [
    e2e("wall_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MiB", 0.20),
];

/// From the traced run. A workload reports 0 for a layer it never
/// reaches.
pub const PER_LAYER: [Metric; 67] = [
    // What the run computed, on the model's terms.
    modelled("rank_err_l1_per_doc", "rank/doc"),
    modelled("msgs_per_doc", "msg/doc"),
    modelled("wire_bytes_per_doc", "B/doc"),
    modelled("virtual_s", "s"),
    modelled("query_p99_virtual_ms", "ms"),
    modelled("query_ids_per_query", "ids/query"),
    // Set-up layers.
    layer("graph.powerlaw.gen_ns_per_edge", "ns/edge"),
    layer("graph.csr.transpose_ns_per_edge", "ns/edge"),
    layer("p2p.ring.build_s", "s"),
    layer("p2p.placement.assign_ns_per_doc", "ns/doc"),
    layer("sim.workload.build_s", "s"),
    layer("core.engine.build_s", "s"),
    layer("node.cluster.build_s", "s"),
    layer("search.corpus.gen_s", "s"),
    layer("graph.dynamic.from_csr_ns_per_edge", "ns/edge"),
    // Rank kernel.
    layer("core.engine.ns_per_push", "ns/push"),
    layer("core.engine.pushes", "count"),
    layer("core.engine.passes", "count"),
    layer("core.engine.bytes_per_push_computed", "B/push"),
    layer("core.sharded.ns_per_push", "ns/push"),
    higher("core.sharded.speedup_vs_seq", "x"),
    higher("core.sharded.sharded_pass_share", "ratio"),
    layer("core.sharded.cpu_s", "s"),
    layer("core.sched.priority.wall_s", "s"),
    layer("core.sched.priority.pushes", "count"),
    layer("core.sched.greedy.wall_s", "s"),
    layer("core.sched.greedy.pushes", "count"),
    layer("core.sync.ns_per_edge_iter", "ns/edge"),
    // Wire path, large compact frames.
    layer("core.message.flush_ns_per_entry", "ns/entry"),
    layer("p2p.codec.compact.encode_ns_per_entry", "ns/entry"),
    layer("p2p.codec.compact.decode_ns_per_entry", "ns/entry"),
    layer("p2p.codec.compact.bytes_per_entry", "B/entry"),
    layer("sim.hops.charge_ns", "ns"),
    // Wire path, small raw payloads.
    layer("p2p.codec.raw.encode_ns_per_entry", "ns/entry"),
    layer("p2p.codec.raw.decode_ns_per_entry", "ns/entry"),
    layer("p2p.codec.single.roundtrip_ns", "ns"),
    layer("p2p.transport.send_recv_ns", "ns"),
    // Peer node and round loop.
    layer("node.step.ns_per_doc", "ns/doc"),
    layer("node.round.ns_per_entry", "ns/entry"),
    layer("node.round.idle_ns_per_peer", "ns/peer"),
    layer("node.rounds", "count"),
    layer("node.round.first_wall_s", "s"),
    layer("node.round.last_wall_s", "s"),
    // Event runtime.
    layer("sim.event.ns_per_event", "ns/event"),
    layer("sim.event.steps", "count"),
    layer("sim.event.deliveries", "count"),
    layer("node.termination.probe_ns", "ns"),
    // The cost of watching.
    layer("telemetry.recorder.events", "count"),
    layer("telemetry.recorder.ns_per_event", "ns/event"),
    layer("telemetry.recorder.overhead_ratio", "ratio"),
    layer("telemetry.audit.evaluate_ns_per_event", "ns/event"),
    layer("telemetry.span.overhead_ratio", "ratio"),
    layer("telemetry.profile.extract_s", "s"),
    layer("telemetry.jsonl.bytes_per_event", "B/event"),
    layer("telemetry.jsonl.ns_per_event", "ns/event"),
    // Search and serving.
    layer("search.index.build_s", "s"),
    layer("search.query.baseline_us", "us"),
    layer("search.query.incremental_us", "us"),
    layer("search.bloom.intersect_us", "us"),
    layer("sim.serving.converge_share", "ratio"),
    layer("telemetry.quantile.observe_ns", "ns"),
    // Incremental updates.
    layer("core.incremental.ns_per_msg", "ns/msg"),
    layer("core.incremental.msgs", "count"),
    layer("graph.scc.build_ns_per_node", "ns/node"),
    layer("graph.scc.cone_ns_per_burst", "ns"),
    // The traced run itself: CPU seconds of the timed region (all
    // threads), and traced over untraced wall.
    layer("bench.cpu_s", "s"),
    layer("bench.trace_overhead_ratio", "ratio"),
];

fn strings(items: &[&str]) -> Value {
    Value::Array(items.iter().map(|s| Value::Str((*s).into())).collect())
}

fn metric_json(m: &Metric, with_bound: bool) -> Value {
    let mut o = vec![
        ("name".into(), Value::Str(m.name.into())),
        ("unit".into(), Value::Str(m.unit.into())),
        ("better".into(), Value::Str(m.better.into())),
    ];
    if with_bound {
        o.push((
            "bound".into(),
            Value::F64(m.bound.expect("end-to-end metrics are bounded")),
        ));
    }
    Value::Object(o)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    Value::Object(vec![
        ("command".into(), strings(&COMMAND)),
        ("paths".into(), strings(&PATHS)),
        ("run_seconds".into(), Value::U64(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::Object(vec![
                            ("name".into(), Value::Str((*name).into())),
                            ("why".into(), Value::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(END_TO_END.iter().map(|m| metric_json(m, true)).collect()),
        ),
        (
            "per_layer".into(),
            Value::Array(PER_LAYER.iter().map(|m| metric_json(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits `BENCHMARK.json` is refused outside of.
    #[test]
    fn spec_is_within_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");

        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25 && b <= setup.bound.unwrap());
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(
            serde_json::to_string_pretty(&benchmark_json())
                .unwrap()
                .len()
                < 64 * 1024
        );
    }
}
