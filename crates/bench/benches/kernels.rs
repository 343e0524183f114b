//! Criterion micro-benchmarks over the hot kernels of every subsystem.
//!
//! These complement the `table*` regenerator binaries: the binaries
//! reproduce the paper's *measurements*; these benches track the
//! *implementation's* performance so regressions are visible.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpr_core::engine::{ChaoticEngine, EngineConfig};
use dpr_core::incremental::{propagate, PropagationConfig};
use dpr_core::sync_solver::SyncSolver;
use dpr_graph::powerlaw::paper_graph;
use dpr_graph::DocId;
use dpr_p2p::guid::Guid;
use dpr_p2p::peer::PeerTable;
use dpr_p2p::ring::Ring;
use dpr_p2p::routing::Router;
use dpr_search::bloom::BloomFilter;
use dpr_search::corpus::{generate_queries, Corpus, CorpusConfig};
use dpr_search::index::DistributedIndex;
use dpr_search::query::{
    execute_baseline, execute_incremental, IncrementalConfig, Query, TrafficModel,
};
use std::sync::Arc;

fn bench_graph_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph_generation");
    for &n in &[10_000usize, 50_000] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| paper_graph(black_box(n), 42));
        });
    }
    g.finish();
}

fn bench_transpose(c: &mut Criterion) {
    let graph = paper_graph(50_000, 1);
    c.bench_function("transpose_50k", |b| {
        b.iter(|| black_box(&graph).transpose())
    });
}

fn bench_sync_solver(c: &mut Criterion) {
    let graph = paper_graph(10_000, 2);
    c.bench_function("sync_solver_10k_1e-9", |b| {
        b.iter(|| SyncSolver::new().tolerance(1e-9).solve(black_box(&graph)))
    });
}

fn bench_chaotic_pass(c: &mut Criterion) {
    let graph = Arc::new(paper_graph(50_000, 3));
    let peers = PeerTable::new(1);
    // First pass (everything dirty) — the heaviest pass of a run.
    c.bench_function("chaotic_first_pass_50k", |b| {
        b.iter_batched(
            || ChaoticEngine::local(graph.clone(), EngineConfig::with_epsilon(1e-3)),
            |mut eng| {
                eng.pass(&peers);
                eng
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

fn bench_chaotic_convergence(c: &mut Criterion) {
    let graph = Arc::new(paper_graph(10_000, 4));
    c.bench_function("chaotic_converge_10k_1e-3", |b| {
        b.iter_batched(
            || ChaoticEngine::local(graph.clone(), EngineConfig::with_epsilon(1e-3)),
            |mut eng| {
                let run = eng.run_static();
                assert!(run.converged);
                eng
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

fn bench_insert_wave(c: &mut Criterion) {
    let graph = paper_graph(100_000, 5);
    let cfg = PropagationConfig {
        damping: 0.85,
        epsilon: 1e-3,
    };
    c.bench_function("insert_wave_100k_1e-3", |b| {
        b.iter(|| propagate(black_box(&graph), DocId(17), 1.0, cfg, None))
    });
}

fn bench_routing(c: &mut Criterion) {
    let ring = Ring::with_peers(500);
    c.bench_function("chord_route_500_peers", |b| {
        let mut router = Router::new();
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            router.route(
                &ring,
                dpr_p2p::peer::PeerId(i % 500),
                Guid::for_document(DocId(i)),
            )
        })
    });
}

fn bench_bloom(c: &mut Criterion) {
    let docs: Vec<DocId> = (0..10_000u32).map(DocId).collect();
    c.bench_function("bloom_build_10k", |b| {
        b.iter(|| BloomFilter::from_docs(black_box(&docs), 0.01))
    });
    let filter = BloomFilter::from_docs(&docs, 0.01);
    c.bench_function("bloom_probe", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            filter.contains(DocId(i % 20_000))
        })
    });
}

fn bench_search(c: &mut Criterion) {
    let corpus = Corpus::generate(&CorpusConfig {
        num_docs: 11_000,
        vocab_size: 1880,
        ..Default::default()
    });
    let ranks: Vec<f64> = (0..11_000).map(|i| 0.15 + (i as f64 * 2.3) % 4.0).collect();
    let ring = Ring::with_peers(50);
    let index = DistributedIndex::build(&corpus, &ranks, &ring);
    let query = Query::new(generate_queries(&corpus, 3, 1, 9).remove(0));
    c.bench_function("search_baseline_3term", |b| {
        b.iter(|| execute_baseline(black_box(&index), &query, TrafficModel::AllHopsRemote))
    });
    c.bench_function("search_incremental_3term", |b| {
        b.iter(|| execute_incremental(black_box(&index), &query, IncrementalConfig::top10()))
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets =
        bench_graph_generation,
        bench_transpose,
        bench_sync_solver,
        bench_chaotic_pass,
        bench_chaotic_convergence,
        bench_insert_wave,
        bench_routing,
        bench_bloom,
        bench_search,
}
criterion_main!(kernels);
