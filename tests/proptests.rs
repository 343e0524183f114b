//! Property-based tests over the core data structures and invariants.

use distributed_pagerank::core::incremental::propagate_burst_localized;
use distributed_pagerank::core::sync_solver::fixed_point_residual;
use distributed_pagerank::graph::scc::SccIndex;
use distributed_pagerank::prelude::*;
use distributed_pagerank::search::bloom::{bloom_intersect, BloomIntersectTraffic};
use distributed_pagerank::search::index::Posting;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a random directed graph as (n, edge list).
fn arb_graph(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_nodes).prop_flat_map(move |n| {
        let edges = vec((0..n as u32, 0..n as u32), 0..max_edges);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(f, t) in edges {
        b.add_edge(f, t);
    }
    b.build()
}

proptest! {
    /// CSR construction: sorted, deduplicated adjacency; degree sums
    /// equal the edge count; transpose is an involution.
    #[test]
    fn csr_invariants((n, edges) in arb_graph(60, 300)) {
        let g = build(n, &edges);
        prop_assert_eq!(g.num_nodes(), n);
        let mut total = 0usize;
        for v in g.nodes() {
            let out = g.out_neighbors(v);
            prop_assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            prop_assert!(out.iter().all(|&t| (t as usize) < n));
            total += out.len();
        }
        prop_assert_eq!(total, g.num_edges());
        prop_assert_eq!(g.transpose().transpose(), g.clone());
        // Transpose preserves edge count and reverses membership.
        let t = g.transpose();
        prop_assert_eq!(t.num_edges(), g.num_edges());
        for e in g.edges() {
            prop_assert!(t.out_neighbors(e.to).contains(&e.from.0));
        }
    }

    /// The binary graph format round-trips losslessly.
    #[test]
    fn graph_io_roundtrip((n, edges) in arb_graph(40, 150)) {
        use distributed_pagerank::graph::io;
        let g = build(n, &edges);
        let mut bin = Vec::new();
        io::write_binary(&g, &mut bin).unwrap();
        prop_assert_eq!(&io::read_binary(bin.as_slice()).unwrap(), &g);
    }

    /// The chaotic engine and the synchronous solver agree on any
    /// random graph, and the chaotic result satisfies the fixed-point
    /// equation to ~epsilon.
    #[test]
    fn chaotic_matches_sync((n, edges) in arb_graph(40, 200)) {
        let g = build(n, &edges);
        let reference = SyncSolver::new().tolerance(1e-13).solve(&g);
        let mut engine = ChaoticEngine::local(
            Arc::new(g.clone()),
            EngineConfig { epsilon: 1e-10, max_passes: 20_000, ..Default::default() },
        );
        let run = engine.run_static();
        prop_assert!(run.converged);
        for (a, b) in engine.ranks().iter().zip(&reference.ranks) {
            prop_assert!((a - b).abs() / b < 1e-6, "chaotic {} vs sync {}", a, b);
        }
        let res = fixed_point_residual(&g, engine.ranks(), DEFAULT_DAMPING);
        prop_assert!(res < 1e-6, "residual {}", res);
    }

    /// Rank conservation: every rank is at least (1 - d), and the
    /// total never exceeds n (dangling nodes only leak mass).
    #[test]
    fn rank_bounds((n, edges) in arb_graph(50, 250)) {
        let g = build(n, &edges);
        let r = SyncSolver::new().solve(&g);
        for &x in &r.ranks {
            prop_assert!(x >= 0.15 - 1e-9);
        }
        let total: f64 = r.ranks.iter().sum();
        prop_assert!(total <= n as f64 + 1e-6);
    }

    /// Insert followed by delete of the same document restores every
    /// rank exactly (the waves are mirror images).
    #[test]
    fn insert_delete_cancellation(
        (n, edges) in arb_graph(40, 150),
        link_picks in vec(any::<u32>(), 1..5),
        eps in 1e-6f64..1e-2,
    ) {
        let g = build(n, &edges);
        let mut dyn_graph = DynamicGraph::from_csr(&g);
        let mut ranks = vec![1.0f64; n];
        let before = ranks.clone();
        let targets: Vec<DocId> = link_picks
            .iter()
            .map(|&x| DocId(x % n as u32))
            .collect();
        let cfg = PropagationConfig { damping: 0.85, epsilon: eps };
        let (id, _) = insert_document(&mut dyn_graph, &targets, &mut ranks, cfg);
        let _ = delete_document(&mut dyn_graph, id, &mut ranks, cfg);
        for i in 0..n {
            prop_assert!((ranks[i] - before[i]).abs() < 1e-9,
                "rank {} drifted: {} vs {}", i, ranks[i], before[i]);
        }
        prop_assert!(dyn_graph.check_invariants().is_ok());
    }

    /// Localized (cone-restricted, merged) propagation and the global
    /// per-origin protocol agree to 1e-9 per document on arbitrary
    /// graphs. The waves truncate increments below epsilon at
    /// different points, so the bound is O(epsilon * generations) —
    /// epsilon = 1e-13 keeps it comfortably under 1e-9.
    #[test]
    fn localized_and_global_propagation_agree(
        (n, edges) in arb_graph(40, 150),
        origin_picks in vec((any::<u32>(), 0.01f64..1.0), 1..4),
    ) {
        let g = build(n, &edges);
        let dg = DynamicGraph::from_csr(&g);
        let index = SccIndex::new(&dg);
        let origins: Vec<(DocId, f64)> = origin_picks
            .iter()
            .map(|&(x, delta)| (DocId(x % n as u32), delta))
            .collect();
        let cfg = PropagationConfig { damping: 0.85, epsilon: 1e-13 };

        let mut global = vec![1.0f64; n];
        for &(d, delta) in &origins {
            propagate(&dg, d, delta, cfg, Some(&mut global));
        }

        let mut localized = vec![1.0f64; n];
        let burst =
            propagate_burst_localized(&dg, &index, &origins, cfg, Some(&mut localized));
        prop_assert!(burst.cone_docs <= n);

        for i in 0..n {
            prop_assert!((localized[i] - global[i]).abs() <= 1e-9,
                "doc {} localized {} vs global {}", i, localized[i], global[i]);
        }
    }

    /// DynamicGraph invariants hold under arbitrary mutation sequences.
    #[test]
    fn dynamic_graph_mutations(
        (n, edges) in arb_graph(30, 100),
        ops in vec((0u8..2, any::<u32>()), 1..40),
    ) {
        let g = build(n, &edges);
        let mut dg = DynamicGraph::from_csr(&g);
        for (op, a) in ops {
            let alive: Vec<DocId> = dg.alive().collect();
            if alive.is_empty() { break; }
            let pick = |x: u32| alive[x as usize % alive.len()];
            match op {
                0 => { dg.insert_document(&[pick(a)]); }
                _ => { if alive.len() > 1 { dg.delete_document(pick(a)); } }
            }
            prop_assert!(dg.check_invariants().is_ok(), "{:?}", dg.check_invariants());
        }
    }

    /// Bloom filters never produce false negatives, at any size/rate.
    #[test]
    fn bloom_no_false_negatives(
        items in vec(any::<u32>(), 1..300),
        fp in 0.001f64..0.3,
    ) {
        let docs: Vec<DocId> = items.iter().map(|&x| DocId(x)).collect();
        let f = BloomFilter::from_docs(&docs, fp);
        for &d in &docs {
            prop_assert!(f.contains(d));
        }
    }

    /// Bloom-assisted intersection is always exact.
    #[test]
    fn bloom_intersection_exact(
        a in vec(0u32..5_000, 0..400),
        b in vec(0u32..5_000, 0..400),
    ) {
        let mut a: Vec<DocId> = a.into_iter().map(DocId).collect();
        let mut b: Vec<DocId> = b.into_iter().map(DocId).collect();
        a.sort_unstable(); a.dedup();
        b.sort_unstable(); b.dedup();
        if a.is_empty() { return Ok(()); }
        let (got, _) = bloom_intersect(&a, &b, 0.05);
        let expect: Vec<DocId> = b.iter().copied()
            .filter(|d| a.binary_search(d).is_ok())
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// The member-skipping pass returns what filtering all of `b` and
    /// then merging with `a` did, traffic included, whether `a`'s
    /// membership comes from its sorted list or from a bitset. A
    /// quarter of the cases each take an empty `a`, an empty `b`, and
    /// `a ⊆ b`.
    #[test]
    fn bloom_intersect_matches_the_filter_then_merge_model(
        a in vec(0u32..3_000, 0..300),
        b in vec(0u32..3_000, 0..300),
        fp in 0.001f64..0.5,
        shape in 0u8..4,
    ) {
        use distributed_pagerank::search::idset::IdSet;
        let ids = |mut v: Vec<u32>| {
            v.sort_unstable();
            v.dedup();
            v.into_iter().map(DocId).collect::<Vec<_>>()
        };
        let a = if shape == 0 { Vec::new() } else { ids(a) };
        let b = match shape {
            1 => Vec::new(),
            2 => ids(b.into_iter().chain(a.iter().map(|d| d.0)).collect()),
            _ => ids(b),
        };
        let want = model_bloom_intersect(&a, &b, fp);
        let filter = BloomFilter::from_docs(&a, fp);
        let mut set = IdSet::new(3_000);
        a.iter().for_each(|d| set.insert(d.0));
        prop_assert_eq!(&bloom_intersect(&a, &b, fp), &want);
        prop_assert_eq!(&filter.intersect(&a[..], b.iter().copied()), &want);
        prop_assert_eq!(&filter.intersect(&set, b.iter().copied()), &want);
    }

    /// The guided sampler lands where a search of the whole table does,
    /// on the same words.
    #[test]
    fn power_law_sample_matches_the_full_search_model(
        (exponent, min, span) in (0.5f64..3.0, 1u32..50, 0u32..5_000),
        words in vec(any::<u64>(), 1..200),
    ) {
        use distributed_pagerank::graph::distr::PowerLaw;
        let law = PowerLaw::new(exponent, min, min + span);
        let model = ModelPowerLaw::new(exponent, min, min + span);
        for &x in &words {
            prop_assert_eq!(law.sample(&mut Word(x)), model.sample(x), "word {:#x}", x);
        }
    }

    /// Ring successor is consistent with a brute-force linear scan and
    /// ownership partitions the circle.
    #[test]
    fn ring_successor_correct(peers in 1usize..64, probes in vec(any::<u32>(), 1..50)) {
        let ring = Ring::with_peers(peers);
        let mut pts: Vec<(Guid, PeerId)> =
            (0..peers as u32).map(|i| (Guid::for_peer(i), PeerId(i))).collect();
        pts.sort_by_key(|&(g, _)| g);
        for p in probes {
            let id = Guid::for_document(DocId(p));
            let expect = pts.iter().find(|&&(g, _)| g >= id).map(|&(_, p)| p)
                .unwrap_or(pts[0].1);
            prop_assert_eq!(ring.successor(id), expect);
        }
    }

    /// Routing always terminates at the true owner within the O(log n)
    /// hop bound.
    #[test]
    fn routing_terminates(peers in 2usize..128, probes in vec(any::<u32>(), 1..30)) {
        use distributed_pagerank::p2p::routing::Router;
        let ring = Ring::with_peers(peers);
        let mut router = Router::new();
        for p in probes {
            let target = Guid::for_document(DocId(p));
            let src = PeerId(p % peers as u32);
            let route = router.route(&ring, src, target);
            prop_assert_eq!(route.owner, ring.successor(target));
            prop_assert!(route.hops <= 2 * 7 + 2,
                "hops {} exceeds bound for {} peers", route.hops, peers);
        }
    }

    /// The incremental top-x% search returns a rank-sorted subset of
    /// the exact boolean answer, and never more traffic than baseline.
    #[test]
    fn incremental_search_is_sound(seed in 0u64..500, frac in 0.05f64..0.5) {
        let corpus = Corpus::generate(&CorpusConfig {
            num_docs: 400, vocab_size: 80, tokens_per_doc: 25, seed,
            ..Default::default()
        });
        let ranks: Vec<f64> = (0..400).map(|i| 0.15 + (i as f64 * 3.7) % 2.0).collect();
        let ring = Ring::with_peers(10);
        let index = DistributedIndex::build(&corpus, &ranks, &ring);
        let q = Query::new(vec![0, 1]);
        let base = execute_baseline(&index, &q, TrafficModel::AllHopsRemote);
        let cfg = IncrementalConfig {
            forward_fraction: frac,
            min_forward: 20,
            traffic: TrafficModel::AllHopsRemote,
        };
        let incr = execute_incremental(&index, &q, cfg);
        prop_assert!(incr.traffic_ids <= base.traffic_ids);
        prop_assert!(incr.hits_returned() <= base.hits_returned());
        // Subset of the exact answer, in rank order.
        let base_docs: std::collections::HashSet<u32> =
            base.hits.iter().map(|p| p.doc.0).collect();
        for w in incr.hits.windows(2) {
            prop_assert!(w[0].rank >= w[1].rank);
        }
        for h in &incr.hits {
            prop_assert!(base_docs.contains(&h.doc.0));
        }
    }

    /// The rank-ordered index build and the bitset intersection equal
    /// the sorting models, bit for bit, on rank vectors full of ties and
    /// signed zeros.
    #[test]
    fn index_and_queries_match_the_sorting_models(
        (n, palette) in (20usize..300).prop_flat_map(|n| (Just(n), vec(0usize..6, n..n + 1))),
        (vocab, tokens, seed) in (20u32..120, 3usize..40, any::<u64>()),
        picks in vec(0usize..12, 1..4),
        (frac, floor) in (0.05f64..0.6, 0usize..30),
    ) {
        const RANKS: [f64; 6] = [0.0, -0.0, 0.15, 0.15, 1.0, 2.5];
        let corpus = Corpus::generate(&CorpusConfig {
            num_docs: n, vocab_size: vocab, tokens_per_doc: tokens, seed,
            ..Default::default()
        });
        let ranks: Vec<f64> = palette.iter().map(|&i| RANKS[i]).collect();
        let index = DistributedIndex::build(&corpus, &ranks, &Ring::with_peers(10));
        let lists = model_lists(&corpus, &ranks);
        let bits = |l: &[Posting]| l.iter().map(|p| (p.doc.0, p.rank.to_bits())).collect::<Vec<_>>();
        for (t, list) in lists.iter().enumerate() {
            prop_assert_eq!(bits(index.postings(t as u32)), bits(list), "term {}", t);
        }

        let top = corpus.top_terms(12);
        let mut terms: Vec<u32> = Vec::new();
        for &i in &picks {
            if !terms.contains(&top[i]) {
                terms.push(top[i]);
            }
        }
        let q = Query::new(terms.clone());
        let cfg = IncrementalConfig { forward_fraction: frac, min_forward: floor, ..IncrementalConfig::top10() };
        for (out, cut) in [
            (execute_baseline(&index, &q, TrafficModel::AllHopsRemote), None),
            (execute_incremental(&index, &q, cfg), Some((frac, floor))),
        ] {
            let (hits, per_hop) = model_execute(&lists, &terms, cut);
            prop_assert_eq!(bits(&out.hits), bits(&hits));
            prop_assert_eq!(out.traffic_ids, per_hop.iter().sum::<u64>());
            prop_assert_eq!(out.per_hop_ids, per_hop);
        }
    }
}

/// The index build before it sorted once: each term's doc-order list,
/// stably sorted by rank descending, doc ascending.
fn model_lists(corpus: &Corpus, ranks: &[f64]) -> Vec<Vec<Posting>> {
    let mut lists = vec![Vec::new(); corpus.vocab_size() as usize];
    for (d, &rank) in ranks.iter().enumerate() {
        let doc = DocId::from(d);
        for &t in corpus.terms_of(doc) {
            lists[t as usize].push(Posting { doc, rank });
        }
    }
    for list in &mut lists {
        list.sort_by(|a: &Posting, b: &Posting| {
            b.rank
                .partial_cmp(&a.rank)
                .unwrap()
                .then(a.doc.0.cmp(&b.doc.0))
        });
    }
    lists
}

/// The query path before bitsets, under `AllHopsRemote`: each hop
/// forwards (for the incremental strategy, the top `frac` unless under
/// `floor`) and intersects through a sorted id list and
/// `binary_search`. Returns the hits and the ids moved per hop.
fn model_execute(
    lists: &[Vec<Posting>],
    terms: &[u32],
    cut: Option<(f64, usize)>,
) -> (Vec<Posting>, Vec<u64>) {
    let mut current = lists[terms[0] as usize].clone();
    let mut per_hop = Vec::new();
    for &t in &terms[1..] {
        if let Some((frac, floor)) = cut {
            let top = (frac * current.len() as f64).ceil() as usize;
            if top >= floor {
                current.truncate(top);
            }
        }
        per_hop.push(current.len() as u64);
        let mut member: Vec<u32> = lists[t as usize].iter().map(|p| p.doc.0).collect();
        member.sort_unstable();
        current.retain(|p| member.binary_search(&p.doc.0).is_ok());
    }
    per_hop.push(current.len() as u64);
    (current, per_hop)
}

/// `Corpus::generate` dedups through a bitset; the model sorts and
/// dedups each document's tokens, drawn from the same Zipf stream.
#[test]
fn corpus_matches_the_sort_dedup_model() {
    use distributed_pagerank::graph::distr::Zipf;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    let configs = [
        CorpusConfig {
            num_docs: 500,
            vocab_size: 200,
            tokens_per_doc: 50,
            ..Default::default()
        },
        CorpusConfig {
            num_docs: 300,
            seed: 7,
            ..Default::default()
        },
        CorpusConfig {
            num_docs: 200,
            vocab_size: 3,
            tokens_per_doc: 10,
            zipf_skew: 0.5,
            seed: 1,
        },
    ];
    for cfg in &configs {
        let corpus = Corpus::generate(cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let zipf = Zipf::new(cfg.vocab_size, cfg.zipf_skew);
        let mut doc_freq = vec![0u32; cfg.vocab_size as usize];
        for d in 0..cfg.num_docs {
            let mut terms: Vec<u32> = (0..cfg.tokens_per_doc)
                .map(|_| zipf.sample(&mut rng) - 1)
                .collect();
            terms.sort_unstable();
            terms.dedup();
            assert_eq!(
                corpus.terms_of(DocId::from(d)),
                &terms[..],
                "{cfg:?} doc {d}"
            );
            for &t in &terms {
                doc_freq[t as usize] += 1;
            }
        }
        for (t, &f) in doc_freq.iter().enumerate() {
            assert_eq!(corpus.doc_freq(t as u32), f, "{cfg:?} term {t}");
        }
    }
}

/// `bloom_intersect` before it skipped members: B filters all of `b`
/// through `Bloom(a)`, A merges the candidates with `a`.
fn model_bloom_intersect(a: &[DocId], b: &[DocId], fp: f64) -> (Vec<DocId>, BloomIntersectTraffic) {
    let filter = BloomFilter::from_docs(a, fp);
    let candidates: Vec<DocId> = b.iter().copied().filter(|&d| filter.contains(d)).collect();
    let mut i = 0;
    let result: Vec<DocId> = candidates
        .iter()
        .copied()
        .filter(|&d| {
            while i < a.len() && a[i] < d {
                i += 1;
            }
            a.get(i) == Some(&d)
        })
        .collect();
    let traffic = BloomIntersectTraffic {
        filter_bytes: filter.wire_bytes(),
        candidate_ids: candidates.len() as u64,
        result_ids: result.len() as u64,
    };
    (result, traffic)
}

/// `PowerLaw` before its guide table: the same cumulative table,
/// searched whole for the uniform `rng.gen::<f64>()` makes of a word.
struct ModelPowerLaw {
    min: u32,
    cdf: Vec<f64>,
}

impl ModelPowerLaw {
    fn new(exponent: f64, min: u32, max: u32) -> Self {
        let mut cdf = Vec::new();
        let mut acc = 0.0f64;
        for i in min..=max {
            acc += (i as f64).powf(-exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        *cdf.last_mut().unwrap() = 1.0;
        ModelPowerLaw { min, cdf }
    }

    fn sample(&self, word: u64) -> u32 {
        let u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let idx = self.cdf.partition_point(|&c| c < u);
        self.min + idx.min(self.cdf.len() - 1) as u32
    }
}

/// An rng that returns one word, over and over.
struct Word(u64);

impl rand::RngCore for Word {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// On each side of every guide-slice boundary (`b << 54` and the word
/// below it), the guided sampler equals the full search, for supports
/// of one value, of the corpus vocabulary, and of 100,000 values.
#[test]
fn power_law_sample_matches_the_model_at_every_slice_boundary() {
    use distributed_pagerank::graph::distr::PowerLaw;
    for (exponent, min, max) in [
        (1.0, 1, 1),
        (2.4, 7, 7),
        (1.0, 1, 1_880),
        (2.1, 1, 1_880),
        (2.4, 1, 100_000),
        (0.7, 3, 100_002),
    ] {
        let law = PowerLaw::new(exponent, min, max);
        let model = ModelPowerLaw::new(exponent, min, max);
        for b in 0..=1024u64 {
            for x in [b << 54, (b << 54).wrapping_sub(1), (b << 54) | 0x3ff] {
                assert_eq!(
                    law.sample(&mut Word(x)),
                    model.sample(x),
                    "x^{exponent} on {min}..={max}, word {x:#x}"
                );
            }
        }
    }
}

proptest! {
    /// Tarjan SCC: components partition the nodes, nodes in one
    /// component reach each other, and the component ids respect
    /// reverse topological order on the condensation.
    #[test]
    fn scc_partition_properties((n, edges) in arb_graph(40, 160)) {
        use distributed_pagerank::graph::scc::tarjan_scc;
        use distributed_pagerank::graph::stats::bfs_reach;
        let g = build(n, &edges);
        let scc = tarjan_scc(&g);
        prop_assert_eq!(scc.component.len(), n);
        prop_assert!(scc.num_components >= 1 && scc.num_components <= n);
        // Ids are dense: every id below the count labels some node.
        let ids: std::collections::BTreeSet<u32> = scc.component.iter().copied().collect();
        prop_assert!(ids.iter().copied().eq(0..scc.num_components as u32));
        // Mutual reachability within a component (spot check node 0's
        // component against BFS both ways).
        let c0 = scc.component[0];
        let (fwd, _) = bfs_reach(&g, DocId(0));
        let (bwd, _) = bfs_reach(&g.transpose(), DocId(0));
        for v in 0..n {
            let mutual = fwd[v] && bwd[v];
            prop_assert_eq!(mutual, scc.component[v] == c0,
                "node {} mutual={} but component match={}", v, mutual,
                scc.component[v] == c0);
        }
    }

    /// Partitioning: labels are complete and in range; refinement
    /// never increases the edge cut; the cut is 0 for k = 1.
    #[test]
    fn partition_properties((n, edges) in arb_graph(60, 240), k in 1usize..8) {
        use distributed_pagerank::graph::partition::*;
        let g = build(n, &edges);
        let mut labels = bfs_partition(&g, k);
        prop_assert!(labels.iter().all(|&l| (l as usize) < k));
        prop_assert_eq!(partition_sizes(&labels, k).iter().sum::<usize>(), n);
        let before = edge_cut(&g, &labels);
        refine_partition(&g, &mut labels, k, 1.25);
        let after = edge_cut(&g, &labels);
        prop_assert!(after <= before);
        if k == 1 {
            prop_assert_eq!(after, 0);
        }
    }
}

/// A `u64` field that is often 0, `u64::MAX` or small (so spans are
/// sometimes well-formed and ids sometimes hit), otherwise arbitrary.
fn hostile_u64() -> impl Strategy<Value = u64> {
    (0u8..5, any::<u64>()).prop_map(|(pick, x)| match pick {
        0 => 0,
        1 => u64::MAX,
        2 => x % 64,
        _ => x,
    })
}

/// An `i64` field that is often 0, -1 or an extreme.
fn hostile_i64() -> impl Strategy<Value = i64> {
    (0u8..6, any::<i64>()).prop_map(|(pick, x)| match pick {
        0 => 0,
        1 => -1,
        2 => i64::MIN,
        3 => i64::MAX,
        _ => x,
    })
}

/// An `f64` field that is often NaN, ±inf, 0 or a plain value.
fn hostile_f64() -> impl Strategy<Value = f64> {
    (0u8..7, any::<u64>()).prop_map(|(pick, x)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => (x % 1000) as f64 / 7.0,
        _ => f64::from_bits(x),
    })
}

proptest! {
    /// The profiler is total over hostile `span_closed` fields: with
    /// dense ids (a segment restarts at 1), any start, end, queue,
    /// byte, cause and consumer values either profile — and the
    /// breakdown check and every table render — or are refused as a
    /// corrupted trace. Never a panic or an overflow.
    #[test]
    fn profiler_is_total_on_hostile_spans(
        spans in vec(
            (
                (0usize..5, 0u8..6, any::<u32>(), any::<u32>()),
                (hostile_u64(), hostile_u64(), hostile_u64()),
                (hostile_u64(), hostile_u64(), hostile_u64(), hostile_u64()),
            ),
            1..40,
        ),
    ) {
        use distributed_pagerank::telemetry::{Event, Profile, SpanKind};
        const KINDS: [SpanKind; 5] = [
            SpanKind::PeerStep,
            SpanKind::CoalesceWait,
            SpanKind::LinkTransfer,
            SpanKind::InboxWait,
            SpanKind::SafraProbe,
        ];
        let mut next = 1u64;
        let mut events = Vec::new();
        for &((kind, restart, peer, peer2), (start_ns, end_ns, queue_ns), (bytes, frame, cause, consumed)) in &spans {
            if restart == 0 {
                next = 1;
            }
            events.push(Event::SpanClosed {
                span: next,
                kind: KINDS[kind],
                peer,
                peer2,
                start_ns,
                end_ns,
                queue_ns,
                bytes,
                frame,
                cause,
                consumed,
            });
            next += 1;
        }
        if let Ok(segments) = Profile::segments_from_events(&events) {
            for p in &segments {
                p.breakdown_is_exact();
                p.render_breakdown();
                p.render_path(8);
                p.render_links(8);
                p.render_peer_lag(8);
            }
        }
    }

    /// The audit is total over hostile ledger, certificate and probe
    /// fields: evaluation, diagnosis and the table all return, whatever
    /// the counters, skews, invariants and floats (NaN and ±inf
    /// included) say.
    #[test]
    fn audit_is_total_on_hostile_ledgers(
        picks in vec(
            (
                0u8..4,
                (hostile_u64(), hostile_u64(), hostile_u64(), hostile_u64(), hostile_u64()),
                (hostile_i64(), any::<u32>(), any::<bool>()),
                (hostile_f64(), hostile_f64(), hostile_f64(), hostile_f64()),
                (hostile_f64(), hostile_f64(), hostile_f64()),
            ),
            1..12,
        ),
    ) {
        use distributed_pagerank::telemetry::audit::COMPACT_MASS_TOLERANCE;
        use distributed_pagerank::telemetry::{AuditReport, Event};
        let events: Vec<Event> = picks
            .iter()
            .map(|&(pick, (a, b, c, d, e), (i, peer, flag), (f0, f1, f2, f3), (g0, g1, g2))| {
                match pick {
                    0 => Event::MassLedger {
                        run: "hostile".into(),
                        step: a,
                        ranks: f0,
                        unadvertised: f1,
                        pending: f2,
                        in_flight: f3,
                        dangling: g0,
                        damping: g1,
                        expected: g2,
                    },
                    1 => Event::BalanceLedger {
                        round: a,
                        emitted: b,
                        sent: c,
                        received: d,
                        in_flight_entries: e,
                        skew_peer: peer,
                        skew: i,
                    },
                    2 => Event::QuiescenceCert {
                        round: a,
                        in_flight_entries: b,
                        parked: c,
                        nodes_with_work: d,
                        token: i,
                        max_residual: f0,
                        epsilon: f1,
                    },
                    _ => Event::TerminationProbe {
                        round: a,
                        circuits: b,
                        token_count: i,
                        token_black: flag,
                        announced: true,
                        invariant: i,
                    },
                }
            })
            .collect();
        for report in [
            AuditReport::evaluate(&events),
            AuditReport::evaluate_with_mass_tolerance(&events, COMPACT_MASS_TOLERANCE),
        ] {
            report.diagnosis();
            report.render().render();
        }
    }
}
