//! `update_bursts`: the paper's "continuously accurate" path. Insert
//! and delete bursts as SCC-localized merged waves over a dynamic
//! graph, starting from the fixed point.

use crate::bench::Bench;
use crate::common::{reference, time_per_call, Ledger, Scale, REFERENCE_TOLERANCE};
use crate::trace::Tracer;
use dpr_core::incremental::{delete_burst, insert_burst, PropagationConfig};
use dpr_graph::powerlaw::PowerLawConfig;
use dpr_graph::scc::{IndexFreshness, SccIndex};
use dpr_graph::{CsrGraph, DocId, DynamicGraph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::Value;
use std::time::Duration;

const INSERTS_PER_BURST: usize = 24;
const DELETES_PER_BURST: usize = 12;

/// Largest L1 distance per live document to the fixed point the wave
/// protocol aims at (see [`protocol_fixed_point`]).
const MAX_PROTOCOL_ERR: f64 = 1e-6;

/// Where the bursts should leave the ranks. A wave's generation zero
/// carries no damping (`core::incremental::wave`, after Fig. 2): an
/// inserted document hands `r/N` to each out-link where the fixed
/// point of the grown graph has `d·r/N`. Its neighbourhood therefore
/// settles where it would if the document held `(1 − d)/d`, which is
/// the fixed point of `rank = base + d·Σ rank_in/N_in` with that base
/// for the surviving inserted documents and `1 − d` for the rest.
/// `rank_err_l1_per_doc` reports the distance to the plain from-scratch
/// solve, which this offset dominates; the pass/fail check is against
/// this function, which the wave mechanics must reach to within ε.
fn protocol_fixed_point(graph: &CsrGraph, originals: usize, damping: f64) -> Vec<f64> {
    let n = graph.num_nodes();
    let base = |v: usize| {
        if v < originals {
            1.0 - damping
        } else {
            (1.0 - damping) / damping
        }
    };
    let mut ranks: Vec<f64> = (0..n).map(base).collect();
    let mut contrib = vec![0.0f64; n];
    for _ in 0..2_000 {
        contrib.iter_mut().for_each(|c| *c = 0.0);
        for v in graph.nodes() {
            let out = graph.out_neighbors(v);
            if !out.is_empty() {
                let share = ranks[v.index()] / out.len() as f64;
                for &t in out {
                    contrib[t as usize] += share;
                }
            }
        }
        let mut max_rel = 0.0f64;
        for (v, r) in ranks.iter_mut().enumerate() {
            let new = base(v) + damping * contrib[v];
            max_rel = max_rel.max((new - *r).abs() / new);
            *r = new;
        }
        if max_rel <= REFERENCE_TOLERANCE {
            break;
        }
    }
    ranks
}

pub struct BurstBench {
    nodes: usize,
    bursts: usize,
    epsilon: f64,
}

impl BurstBench {
    pub fn new(scale: Scale) -> Self {
        let (nodes, bursts) = match scale {
            Scale::Full => (30_000, 8),
            Scale::Tiny => (2_000, 3),
        };
        BurstBench {
            nodes,
            bursts,
            epsilon: 1e-9,
        }
    }

    fn propagation(&self) -> PropagationConfig {
        PropagationConfig {
            damping: dpr_core::DEFAULT_DAMPING,
            epsilon: self.epsilon,
        }
    }
}

pub struct BurstInput {
    graph: DynamicGraph,
    index: SccIndex,
    ranks: Vec<f64>,
    /// Out-links of every document to insert, burst by burst. Links
    /// point at original documents only, and each burst deletes half
    /// of what it inserted: a deleted document never has in-links, so
    /// the negated wave is exact.
    plan: Vec<Vec<Vec<DocId>>>,
}

pub struct BurstOutput {
    wave_msgs: u64,
    /// Seconds inside the burst calls alone (traced run).
    burst_s: f64,
}

impl Bench for BurstBench {
    type Input = BurstInput;
    type Output = BurstOutput;

    fn params(&self) -> Value {
        Value::Object(vec![
            ("docs".into(), Value::U64(self.nodes as u64)),
            ("bursts".into(), Value::U64(self.bursts as u64)),
            (
                "inserts_per_burst".into(),
                Value::U64(INSERTS_PER_BURST as u64),
            ),
            (
                "deletes_per_burst".into(),
                Value::U64(DELETES_PER_BURST as u64),
            ),
            ("epsilon".into(), Value::F64(self.epsilon)),
        ])
    }

    fn setup(&mut self, seed: u64, tr: &mut Tracer, ledger: &mut Ledger) -> BurstInput {
        let (csr, ns) = tr.timed("graph.powerlaw.generate", || {
            PowerLawConfig::paper(self.nodes, seed).generate()
        });
        let edges = csr.num_edges().max(1) as f64;
        let ranks = reference(&csr, tr, ledger);
        let (graph, from_csr_ns) =
            tr.timed("graph.dynamic.from_csr", || DynamicGraph::from_csr(&csr));
        let (index, scc_ns) = tr.timed("graph.scc.build", || SccIndex::new(&graph));
        if tr.enabled() {
            ledger.put("graph.powerlaw.gen_ns_per_edge", ns / edges);
            ledger.put("graph.dynamic.from_csr_ns_per_edge", from_csr_ns / edges);
            ledger.put("graph.scc.build_ns_per_node", scc_ns / self.nodes as f64);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xb0b5);
        let plan = (0..self.bursts)
            .map(|_| {
                (0..INSERTS_PER_BURST)
                    .map(|_| {
                        (0..rng.gen_range(1..=4usize))
                            .map(|_| DocId(rng.gen_range(0..self.nodes as u32)))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        BurstInput {
            graph,
            index,
            ranks,
            plan,
        }
    }

    fn run(&mut self, _seed: u64, input: &mut BurstInput, tr: &mut Tracer) -> BurstOutput {
        let cfg = self.propagation();
        let BurstInput {
            graph,
            index,
            ranks,
            plan,
        } = input;
        let (mut wave_msgs, mut burst_ns) = (0, 0.0);
        for batches in plan.iter() {
            let ((new_ids, ins), ns) = tr.timed("core.incremental.insert_burst", || {
                insert_burst(graph, index, batches, ranks, cfg)
            });
            wave_msgs += ins.wave.messages;
            burst_ns += ns;
            let victims = &new_ids[..DELETES_PER_BURST.min(new_ids.len())];
            let (del, ns) = tr.timed("core.incremental.delete_burst", || {
                delete_burst(graph, index, victims, ranks, cfg)
            });
            wave_msgs += del.wave.messages;
            burst_ns += ns;
            tr.count(
                "core.incremental.msgs",
                ins.wave.messages + del.wave.messages,
            );
            tr.count(
                "graph.scc.cone_docs",
                (ins.cone_docs + del.cone_docs) as u64,
            );
            if index.freshness() != IndexFreshness::Exact {
                tr.span("graph.scc.refresh", || index.refresh(graph));
            }
        }
        BurstOutput {
            wave_msgs,
            burst_s: burst_ns * 1e-9,
        }
    }

    fn verify(
        &mut self,
        seed: u64,
        input: &mut BurstInput,
        out: &BurstOutput,
        _wall_s: f64,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) {
        ledger.check(input.graph.check_invariants().is_ok(), || {
            "dynamic graph lost an invariant".into()
        });
        // Tombstoned ids are isolated in the snapshot and hold no rank
        // here, and an inserted document keeps its own `1 − d`: only
        // live original documents are compared.
        let mutated = input.graph.to_csr();
        let l1_to = |expected: &[f64]| {
            let live = input.graph.alive().filter(|d| d.index() < self.nodes);
            let sum: f64 = live
                .map(|d| (input.ranks[d.index()] - expected[d.index()]).abs())
                .sum();
            sum / self.nodes as f64
        };
        let aimed_at = protocol_fixed_point(&mutated, self.nodes, dpr_core::DEFAULT_DAMPING);
        let err = l1_to(&aimed_at);
        ledger.check(err <= MAX_PROTOCOL_ERR, || {
            format!("{err:e} per doc from the wave protocol's fixed point after the bursts")
        });
        let scratch = reference(&mutated, tr, ledger);
        ledger.model(seed, "rank_err_l1_per_doc", l1_to(&scratch));
        let msgs = out.wave_msgs as f64;
        ledger.model(seed, "msgs_per_doc", msgs / self.nodes as f64);

        if tr.enabled() {
            ledger.model(seed, "core.incremental.msgs", msgs);
            ledger.put(
                "core.incremental.ns_per_msg",
                out.burst_s * 1e9 / out.wave_msgs.max(1) as f64,
            );
        }
    }

    fn layers(&mut self, seed: u64, budget: Duration, _tr: &mut Tracer, ledger: &mut Ledger) {
        // The cone query a burst starts with, apart from its wave.
        let input = self.setup(seed, &mut Tracer::new(false), &mut Ledger::default());
        let origins: Vec<DocId> = input.plan[0].iter().map(|links| links[0]).collect();
        let ns = time_per_call(budget, || {
            input.index.downstream_cone(&input.graph, &origins)
        });
        ledger.put("graph.scc.cone_ns_per_burst", ns);
    }
}
