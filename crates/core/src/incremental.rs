//! Incremental pagerank updates for document inserts and deletes.
//!
//! Paper Sec. 3.1 and 4.7: inserting a document initializes its rank
//! to a constant (1.0) and propagates contributions to its out-links;
//! each receiving document forwards its own (shrunken) increment to
//! *its* out-links, until increments drop below the error threshold ε
//! and the wave dies out. Deleting a document propagates the negated
//! rank. Figure 2 illustrates the wave: G (rank 1, three out-links)
//! sends H an increment of 1/3; H (two out-links) forwards 1/6 to K
//! and L; and so on.
//!
//! Table 4 measures two quantities over this wave, both reproduced by
//! [`propagate`]:
//!
//! * **path length** — the longest chain of update messages before
//!   the wave dies;
//! * **node coverage** — the number of distinct documents that
//!   receive at least one update message ("an upper bound on the
//!   number of messages a document insert can generate").
//!
//! ## Bursts and localization
//!
//! The paper's protocol runs one wave per mutation. When mutations
//! arrive in *bursts*, the per-mutation waves re-touch their shared
//! downstream regions once each — [`propagate_burst_localized`]
//! instead merges the whole burst into a single generation-synchronous
//! wave, so a document forwards its accumulated increment once per
//! generation no matter how many origins feed it, and node coverage /
//! message counts are deduplicated across the burst. It also consults
//! an [`SccIndex`] downstream cone, copies the cone's links into one
//! flat CSR snapshot and runs the wave over that, and *proves* the wave
//! stays inside the cone: every link of every cone document is asserted
//! to land in the cone as it is copied, a superset of the links any
//! message crosses. Upstream components receive nothing and are
//! therefore fixed — the certification the engine's localized
//! dirty-set seeding relies on.

use dpr_graph::scc::{ConeSet, SccIndex};
use dpr_graph::{CsrGraph, DocId, DynamicGraph};

/// Outcome of one increment wave.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct PropagationStats {
    /// Longest message chain (hops from the origin document).
    pub path_length: u32,
    /// Distinct documents that received an update message.
    pub node_coverage: usize,
    /// Total update messages generated.
    pub messages: u64,
}

/// Tuning of the increment wave.
#[derive(Debug, Clone, Copy)]
pub struct PropagationConfig {
    /// Damping applied at every forwarding step. Figure 2's worked
    /// example uses `1.0` (pure fractions 1/3, 1/6, …); Table 4 runs
    /// use the engine's damping.
    pub damping: f64,
    /// Error threshold ε: a document forwards its received increment
    /// only while the increment (relative to the unit initial rank)
    /// exceeds this.
    pub epsilon: f64,
}

impl Default for PropagationConfig {
    fn default() -> Self {
        PropagationConfig {
            damping: crate::DEFAULT_DAMPING,
            epsilon: crate::RECOMMENDED_EPSILON,
        }
    }
}

/// Out-link access used by the wave — implemented for both graph
/// representations so inserts can be measured on a static snapshot
/// (Table 4 picks existing nodes) or on a live dynamic graph.
pub trait OutLinks {
    /// Number of documents.
    fn len(&self) -> usize;
    /// Whether there are no documents.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Out-links of `v`.
    fn out(&self, v: DocId) -> &[u32];
}

impl OutLinks for CsrGraph {
    fn len(&self) -> usize {
        self.num_nodes()
    }
    fn out(&self, v: DocId) -> &[u32] {
        self.out_neighbors(v)
    }
}

impl OutLinks for DynamicGraph {
    fn len(&self) -> usize {
        self.id_bound()
    }
    fn out(&self, v: DocId) -> &[u32] {
        self.out_links(v)
    }
}

/// Propagates an increment wave of size `initial` (the inserted
/// document's rank, or its negation for a delete) starting at
/// `origin`, applying increments into `ranks` if provided.
///
/// The origin itself distributes `initial / N(origin)` to each of its
/// out-links — Figure 2's first step — and every receiver forwards
/// `damping · received / N` while `|received| > ε`.
pub fn propagate<G: OutLinks>(
    graph: &G,
    origin: DocId,
    initial: f64,
    cfg: PropagationConfig,
    ranks: Option<&mut [f64]>,
) -> PropagationStats {
    wave(graph, &[(origin, initial)], cfg, ranks)
}

/// The shared wave core: every origin distributes its initial in
/// generation zero, and from then on each document forwards its
/// accumulated increment once per generation no matter how many
/// origins' waves flow through it. Message and node-coverage counts
/// are therefore deduplicated across a burst — never more than the sum
/// of the per-origin waves, strictly fewer whenever the waves overlap.
fn wave<G: OutLinks>(
    graph: &G,
    origins: &[(DocId, f64)],
    cfg: PropagationConfig,
    mut ranks: Option<&mut [f64]>,
) -> PropagationStats {
    assert!(cfg.epsilon > 0.0, "epsilon must be positive");
    assert!(cfg.damping > 0.0 && cfg.damping <= 1.0, "damping in (0,1]");
    let n = graph.len();
    let mut stats = PropagationStats::default();
    let mut covered = vec![false; n];

    // Generation-synchronous wave: all increments reaching a document
    // within one generation are accumulated and forwarded as one
    // message per out-link — what a peer batching its inbox does, and
    // the only formulation whose work is bounded by O(E) per
    // generation at very small thresholds (a per-message event queue
    // blows up combinatorially in cyclic graphs).
    let mut acc = vec![0.0f64; n];
    let mut on_frontier = vec![false; n];
    // Two frontier buffers, swapped between generations. A message
    // writes its target one past the queued prefix unconditionally and
    // lengthens the prefix only if the target was not queued yet — no
    // data-dependent branch; the spare slot keeps the write in bounds.
    let mut frontier = vec![0u32; n + 1];
    let mut next = vec![0u32; n + 1];
    let mut len = 0usize;
    let mut depth = 0u32;
    // Safety valve: with damping = 1 on a cyclic graph the wave mass
    // never decays and the loop below would not terminate; cap the
    // generations far above anything a damped wave can reach.
    const MAX_GENERATIONS: u32 = 1_000_000;

    // Generation zero: every origin's initial distribution, carrying
    // no damping — the full initial rank is what the new (or deleted)
    // document advertises (Fig. 2).
    for &(origin, initial) in origins {
        let out = graph.out(origin);
        if out.is_empty() {
            continue;
        }
        let share = initial / out.len() as f64;
        stats.messages += out.len() as u64;
        for &t in out {
            frontier[len] = t;
            len += usize::from(!on_frontier[t as usize]);
            on_frontier[t as usize] = true;
            stats.node_coverage += usize::from(!covered[t as usize]);
            covered[t as usize] = true;
            acc[t as usize] += share;
        }
        depth = 1;
        stats.path_length = 1;
    }

    while len > 0 {
        let live = std::mem::take(&mut len);
        for &v in &frontier[..live] {
            on_frontier[v as usize] = false;
            let delta = std::mem::take(&mut acc[v as usize]);
            if let Some(r) = ranks.as_deref_mut() {
                r[v as usize] += delta;
            }
            // Forward while the received increment is significant.
            if delta.abs() <= cfg.epsilon {
                continue;
            }
            let out = graph.out(DocId(v));
            if out.is_empty() {
                continue;
            }
            let share = cfg.damping * delta / out.len() as f64;
            stats.messages += out.len() as u64;
            for &t in out {
                next[len] = t;
                len += usize::from(!on_frontier[t as usize]);
                on_frontier[t as usize] = true;
                stats.node_coverage += usize::from(!covered[t as usize]);
                covered[t as usize] = true;
                acc[t as usize] += share;
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        if len > 0 {
            depth += 1;
            stats.path_length = depth;
            if depth >= MAX_GENERATIONS {
                break;
            }
        }
    }
    stats
}

/// Outcome of a localized burst: the merged wave's statistics plus the
/// SCC cone that certified it.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct BurstStats {
    /// The merged wave's Table 4 statistics.
    pub wave: PropagationStats,
    /// Origins in the burst.
    pub origins: usize,
    /// Live documents inside the downstream cone.
    pub cone_docs: usize,
    /// Components inside the downstream cone.
    pub cone_components: usize,
}

/// Runs a burst as one merged wave, restricted to — and certified
/// against — the [`SccIndex`] downstream cone of its origins. The wave
/// runs over a CSR snapshot of the cone, and every link of every cone
/// document is asserted to land inside the cone as it is copied, so
/// every document outside it provably receives nothing and keeps its
/// rank bit-identically: upstream components are never re-swept.
///
/// # Panics
///
/// Panics if `index` is stale (refresh it first), or if an origin or a
/// link of the cone leaves the cone (which would indicate index
/// corruption).
pub fn propagate_burst_localized(
    graph: &DynamicGraph,
    index: &SccIndex,
    origins: &[(DocId, f64)],
    cfg: PropagationConfig,
    ranks: Option<&mut [f64]>,
) -> BurstStats {
    let origin_docs: Vec<DocId> = origins.iter().map(|&(d, _)| d).collect();
    let cone = index.downstream_cone(graph, &origin_docs);
    let snapshot = cone_snapshot(graph, &cone, &origin_docs);
    let wave_stats = wave(&snapshot, origins, cfg, ranks);
    BurstStats {
        wave: wave_stats,
        origins: origins.len(),
        cone_docs: cone.docs,
        cone_components: cone.components,
    }
}

/// The cone's adjacency as one flat CSR over all of `graph`'s ids:
/// each cone document's out-links in *stored* order (the order decides
/// the order of the wave's f64 additions, and deletes leave rows
/// unsorted, so `to_csr`'s sorted rows would move rank bits), every
/// other row empty. The upstream certificate is checked here, on every
/// link the wave could cross.
fn cone_snapshot(graph: &DynamicGraph, cone: &ConeSet, origins: &[DocId]) -> CsrGraph {
    for &origin in origins {
        assert!(
            cone.contains(origin),
            "origin {origin} outside its own cone"
        );
    }
    let mut offsets = Vec::with_capacity(graph.id_bound() + 1);
    let mut targets = Vec::new();
    offsets.push(0);
    for v in (0..graph.id_bound()).map(DocId::from) {
        if cone.contains(v) {
            for &t in graph.out_links(v) {
                assert!(
                    cone.contains(DocId(t)),
                    "wave escaped the cone at document {t}"
                );
                targets.push(t);
            }
        }
        offsets.push(targets.len() as u64);
    }
    CsrGraph::from_parts(offsets, targets)
}

/// Inserts a whole batch of documents structurally (updating `index`
/// incrementally — inserts are exact, no rebuild), then runs one
/// localized merged wave seeding each new document's base rank.
/// Returns the new ids and the burst statistics.
pub fn insert_burst(
    graph: &mut DynamicGraph,
    index: &mut SccIndex,
    batches: &[Vec<DocId>],
    ranks: &mut Vec<f64>,
    cfg: PropagationConfig,
) -> (Vec<DocId>, BurstStats) {
    let seed = 1.0 - cfg.damping;
    let mut origins: Vec<(DocId, f64)> = Vec::with_capacity(batches.len());
    for links in batches {
        let id = graph.insert_document(links);
        index.on_insert_document(id);
        ranks.push(seed);
        origins.push((id, seed));
    }
    assert_eq!(ranks.len(), graph.id_bound(), "rank vector out of sync");
    let stats = propagate_burst_localized(graph, index, &origins, cfg, Some(ranks.as_mut_slice()));
    (origins.into_iter().map(|(d, _)| d).collect(), stats)
}

/// Deletes a batch of documents: one merged localized wave propagates
/// every negated rank over the pre-deletion topology (the negation
/// must follow the links the documents had), then the documents are
/// unlinked and `index` coarsens.
pub fn delete_burst(
    graph: &mut DynamicGraph,
    index: &mut SccIndex,
    docs: &[DocId],
    ranks: &mut [f64],
    cfg: PropagationConfig,
) -> BurstStats {
    assert_eq!(ranks.len(), graph.id_bound(), "rank vector out of sync");
    let origins: Vec<(DocId, f64)> = docs.iter().map(|&d| (d, -ranks[d.index()])).collect();
    let stats = propagate_burst_localized(graph, index, &origins, cfg, Some(ranks));
    for &d in docs {
        ranks[d.index()] = 0.0;
        graph.delete_document(d);
        index.on_delete_document(d);
    }
    stats
}

/// Inserts a new document into `graph` and propagates the insert wave
/// (the full Sec. 3.1 protocol). Extends `ranks` with the new
/// document's rank. Returns the new id and the wave statistics.
///
/// The paper says the new document's pagerank is "initialized to some
/// fixed constant value"; its Table 4 measurement uses 1.0. For
/// *maintenance* the mathematically right constant is `1 − d`: a
/// freshly inserted document has no in-links, so its fixed-point rank
/// is exactly the base rank, and seeding anything larger permanently
/// over-injects rank mass into its neighborhood. We seed `1 − d`
/// (keeping the system at the true fixed point of the grown graph, to
/// within ε); the Table 4 experiment measures waves with
/// [`crate::INITIAL_RANK`] via [`propagate`] directly.
pub fn insert_document(
    graph: &mut DynamicGraph,
    out_links: &[DocId],
    ranks: &mut Vec<f64>,
    cfg: PropagationConfig,
) -> (DocId, PropagationStats) {
    let id = graph.insert_document(out_links);
    assert_eq!(ranks.len() + 1, graph.id_bound(), "rank vector out of sync");
    let seed = 1.0 - cfg.damping;
    ranks.push(seed);
    let stats = propagate(graph, id, seed, cfg, Some(ranks.as_mut_slice()));
    (id, stats)
}

/// Deletes a document from `graph` and propagates its negated rank
/// (Sec. 3.1: "when a document is removed, a pagerank update message
/// is sent with the value of the pagerank negated"). The wave runs
/// over the graph *before* unlinking, because the negation must follow
/// the links the document had. Returns the wave statistics.
pub fn delete_document(
    graph: &mut DynamicGraph,
    doc: DocId,
    ranks: &mut [f64],
    cfg: PropagationConfig,
) -> PropagationStats {
    assert_eq!(ranks.len(), graph.id_bound(), "rank vector out of sync");
    let rank = ranks[doc.index()];
    let stats = propagate(graph, doc, -rank, cfg, Some(ranks));
    ranks[doc.index()] = 0.0;
    graph.delete_document(doc);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_graph::builder::from_edges;
    use dpr_graph::powerlaw::paper_graph;
    use dpr_graph::Edge;
    use proptest::prelude::*;

    /// The reference wave: the same generations as [`wave`], read
    /// through [`OutLinks`] with a branch per queue and coverage test
    /// and a fresh `Vec` per generation, and — given a cone — every
    /// message target asserted to lie inside it. [`wave`] must match it
    /// bit for bit.
    fn wave_model<G: OutLinks>(
        graph: &G,
        origins: &[(DocId, f64)],
        cfg: PropagationConfig,
        mut ranks: Option<&mut [f64]>,
        cone: Option<&ConeSet>,
    ) -> PropagationStats {
        assert!(cfg.epsilon > 0.0, "epsilon must be positive");
        assert!(cfg.damping > 0.0 && cfg.damping <= 1.0, "damping in (0,1]");
        let mut stats = PropagationStats::default();
        let mut covered = vec![false; graph.len()];

        // Generation-synchronous wave: all increments reaching a document
        // within one generation are accumulated and forwarded as one
        // message per out-link — what a peer batching its inbox does, and
        // the only formulation whose work is bounded by O(E) per
        // generation at very small thresholds (a per-message event queue
        // blows up combinatorially in cyclic graphs).
        let mut acc = vec![0.0f64; graph.len()];
        let mut frontier: Vec<u32> = Vec::new();
        let mut on_frontier = vec![false; graph.len()];
        let mut depth = 0u32;
        // Safety valve: with damping = 1 on a cyclic graph the wave mass
        // never decays and the loop below would not terminate; cap the
        // generations far above anything a damped wave can reach.
        const MAX_GENERATIONS: u32 = 1_000_000;

        // Generation zero: every origin's initial distribution, carrying
        // no damping — the full initial rank is what the new (or deleted)
        // document advertises (Fig. 2).
        for &(origin, initial) in origins {
            if let Some(c) = cone {
                assert!(c.contains(origin), "origin {origin} outside its own cone");
            }
            let out = graph.out(origin);
            if out.is_empty() {
                continue;
            }
            let share = initial / out.len() as f64;
            for &t in out {
                stats.messages += 1;
                if let Some(c) = cone {
                    assert!(
                        c.contains(DocId(t)),
                        "wave escaped the cone at document {t}"
                    );
                }
                if !covered[t as usize] {
                    covered[t as usize] = true;
                    stats.node_coverage += 1;
                }
                acc[t as usize] += share;
                if !on_frontier[t as usize] {
                    on_frontier[t as usize] = true;
                    frontier.push(t);
                }
            }
            depth = 1;
            stats.path_length = 1;
        }

        while !frontier.is_empty() {
            let mut next: Vec<u32> = Vec::new();
            for &v in &frontier {
                on_frontier[v as usize] = false;
                let delta = std::mem::take(&mut acc[v as usize]);
                if let Some(r) = ranks.as_deref_mut() {
                    r[v as usize] += delta;
                }
                // Forward while the received increment is significant.
                if delta.abs() <= cfg.epsilon {
                    continue;
                }
                let out = graph.out(DocId(v));
                if out.is_empty() {
                    continue;
                }
                let share = cfg.damping * delta / out.len() as f64;
                for &t in out {
                    stats.messages += 1;
                    if let Some(c) = cone {
                        assert!(
                            c.contains(DocId(t)),
                            "wave escaped the cone at document {t}"
                        );
                    }
                    if !covered[t as usize] {
                        covered[t as usize] = true;
                        stats.node_coverage += 1;
                    }
                    acc[t as usize] += share;
                    if !on_frontier[t as usize] {
                        on_frontier[t as usize] = true;
                        next.push(t);
                    }
                }
            }
            frontier = next;
            if !frontier.is_empty() {
                depth += 1;
                stats.path_length = depth;
                if depth >= MAX_GENERATIONS {
                    break;
                }
            }
        }
        stats
    }

    /// Figure 2's graph: G -> {H, I, J}; H -> {K, L}; I -> M.
    /// Ids: G=0, H=1, I=2, J=3, K=4, L=5, M=6.
    fn figure2() -> CsrGraph {
        from_edges(
            7,
            [
                Edge::new(0u32, 1u32),
                Edge::new(0u32, 2u32),
                Edge::new(0u32, 3u32),
                Edge::new(1u32, 4u32),
                Edge::new(1u32, 5u32),
                Edge::new(2u32, 6u32),
            ],
        )
    }

    #[test]
    fn figure2_fractions_are_exact() {
        // With damping 1 and a threshold small enough to let the wave
        // flow, the increments are the paper's exact fractions:
        // H, I, J get 1/3; K, L get 1/6; M gets 1/3 * 1/1 = 1/3.
        let g = figure2();
        let mut ranks = vec![0.0; 7];
        let cfg = PropagationConfig {
            damping: 1.0,
            epsilon: 1e-9,
        };
        let stats = propagate(&g, DocId(0), 1.0, cfg, Some(&mut ranks));
        assert!((ranks[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((ranks[2] - 1.0 / 3.0).abs() < 1e-12);
        assert!((ranks[3] - 1.0 / 3.0).abs() < 1e-12);
        assert!((ranks[4] - 1.0 / 6.0).abs() < 1e-12);
        assert!((ranks[5] - 1.0 / 6.0).abs() < 1e-12);
        assert!((ranks[6] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.node_coverage, 6);
        assert_eq!(stats.messages, 6);
        assert_eq!(stats.path_length, 2);
    }

    #[test]
    fn threshold_stops_the_wave() {
        // With eps = 0.3, H/I/J's received 1/3 still exceeds it, so
        // they forward; K/L/M receive ~1/6..1/3 but K and L (1/6)
        // would forward only if 1/6 > 0.3 — it is not, and they have
        // no out-links anyway. With eps = 0.4 the wave stops at depth 1.
        let g = figure2();
        let cfg = PropagationConfig {
            damping: 1.0,
            epsilon: 0.4,
        };
        let stats = propagate(&g, DocId(0), 1.0, cfg, None);
        assert_eq!(stats.path_length, 1);
        assert_eq!(stats.node_coverage, 3);
    }

    #[test]
    fn lower_epsilon_reaches_further() {
        let g = paper_graph(5_000, 41);
        let loose = propagate(
            &g,
            DocId(17),
            1.0,
            PropagationConfig {
                damping: 0.85,
                epsilon: 0.2,
            },
            None,
        );
        let tight = propagate(
            &g,
            DocId(17),
            1.0,
            PropagationConfig {
                damping: 0.85,
                epsilon: 1e-4,
            },
            None,
        );
        assert!(tight.node_coverage >= loose.node_coverage);
        assert!(tight.path_length >= loose.path_length);
        assert!(tight.messages >= loose.messages);
    }

    #[test]
    fn dangling_origin_generates_nothing() {
        let g = from_edges(2, [Edge::new(0u32, 1u32)]);
        let stats = propagate(&g, DocId(1), 1.0, PropagationConfig::default(), None);
        assert_eq!(stats, PropagationStats::default());
    }

    #[test]
    fn insert_then_delete_restores_ranks() {
        // Insert a document, then delete it: the negated-rank wave
        // must cancel the insert wave exactly (same links, same rank).
        let base = paper_graph(300, 42);
        let mut graph = DynamicGraph::from_csr(&base);
        let mut ranks = vec![1.0; 300];
        let before = ranks.clone();
        // Insert and delete waves are mirror images (same links, same
        // magnitude, opposite sign, same truncation), so cancellation
        // is exact regardless of epsilon.
        let cfg = PropagationConfig {
            damping: 0.85,
            epsilon: 1e-6,
        };
        let targets = [DocId(3), DocId(7), DocId(11)];
        let (id, ins) = insert_document(&mut graph, &targets, &mut ranks, cfg);
        assert!(ins.messages > 0);
        assert!(ranks[3] > before[3]);
        let del = delete_document(&mut graph, id, &mut ranks, cfg);
        assert!(del.messages > 0);
        for i in 0..300 {
            assert!(
                (ranks[i] - before[i]).abs() < 1e-6,
                "rank {i}: {} vs {}",
                ranks[i],
                before[i]
            );
        }
        assert!(!graph.is_alive(id));
        graph.check_invariants().unwrap();
    }

    #[test]
    fn delete_uses_current_rank() {
        let base = from_edges(2, [Edge::new(0u32, 1u32)]);
        let mut graph = DynamicGraph::from_csr(&base);
        let mut ranks = vec![2.0, 5.0];
        let cfg = PropagationConfig {
            damping: 1.0,
            epsilon: 1e-9,
        };
        delete_document(&mut graph, DocId(0), &mut ranks, cfg);
        // Document 1 received -2.0 (0's whole rank over 1 out-link).
        assert!((ranks[1] - 3.0).abs() < 1e-12);
        assert_eq!(ranks[0], 0.0);
    }

    #[test]
    fn coverage_is_bounded_by_graph_size() {
        // The paper notes the 10k graph saturates at tiny thresholds.
        let g = paper_graph(200, 43);
        let stats = propagate(
            &g,
            DocId(0),
            1.0,
            PropagationConfig {
                damping: 0.85,
                epsilon: 1e-12,
            },
            None,
        );
        assert!(stats.node_coverage <= 200);
    }

    #[test]
    fn works_on_dynamic_graph_too() {
        let base = figure2();
        let dg = DynamicGraph::from_csr(&base);
        let s1 = propagate(&base, DocId(0), 1.0, PropagationConfig::default(), None);
        let s2 = propagate(&dg, DocId(0), 1.0, PropagationConfig::default(), None);
        assert_eq!(s1, s2);
    }

    #[test]
    fn burst_with_single_origin_matches_propagate_exactly() {
        let g = paper_graph(2_000, 44);
        let cfg = PropagationConfig {
            damping: 0.85,
            epsilon: 1e-9,
        };
        let mut r1 = vec![0.0; 2_000];
        let mut r2 = vec![0.0; 2_000];
        let s1 = propagate(&g, DocId(17), 1.0, cfg, Some(&mut r1));
        let s2 = wave(&g, &[(DocId(17), 1.0)], cfg, Some(&mut r2));
        assert_eq!(s1, s2);
        assert_eq!(r1, r2, "single-origin burst must be bit-identical");
    }

    #[test]
    fn overlapping_burst_dedupes_coverage_and_messages() {
        // A(0) -> C(2) -> D(3) and B(1) -> C(2): both waves flow
        // through C. Run separately, C forwards twice (4 messages,
        // coverage 2 + 2); merged, C forwards its accumulated
        // increment once (3 messages, coverage 2).
        let g = from_edges(
            4,
            [
                Edge::new(0u32, 2u32),
                Edge::new(1u32, 2u32),
                Edge::new(2u32, 3u32),
            ],
        );
        let cfg = PropagationConfig {
            damping: 1.0,
            epsilon: 1e-9,
        };
        let sep_a = propagate(&g, DocId(0), 1.0, cfg, None);
        let sep_b = propagate(&g, DocId(1), 1.0, cfg, None);
        assert_eq!(sep_a.messages + sep_b.messages, 4);
        assert_eq!(sep_a.node_coverage + sep_b.node_coverage, 4);
        let burst = wave(&g, &[(DocId(0), 1.0), (DocId(1), 1.0)], cfg, None);
        assert_eq!(burst.messages, 3, "C must forward once, not twice");
        assert_eq!(burst.node_coverage, 2, "coverage counts distinct docs");
        assert_eq!(burst.path_length, 2);
    }

    #[test]
    fn burst_never_exceeds_the_sum_of_separate_waves() {
        let g = paper_graph(5_000, 45);
        let cfg = PropagationConfig {
            damping: 0.85,
            epsilon: 1e-8,
        };
        let origins: Vec<(DocId, f64)> = [3u32, 700, 701, 1_900, 4_999]
            .iter()
            .map(|&d| (DocId(d), 1.0))
            .collect();
        let mut sum_messages = 0u64;
        let mut sum_coverage = 0usize;
        for &(d, v) in &origins {
            let s = propagate(&g, d, v, cfg, None);
            sum_messages += s.messages;
            sum_coverage += s.node_coverage;
        }
        let burst = wave(&g, &origins, cfg, None);
        assert!(
            burst.messages < sum_messages,
            "overlapping waves must coalesce: {} vs {sum_messages}",
            burst.messages
        );
        // Coverage counts each document once across the burst (the
        // separate waves count shared downstream docs once *each*).
        assert!(burst.node_coverage < sum_coverage);
        assert!(burst.node_coverage <= 5_000);
    }

    #[test]
    fn localized_burst_stays_in_cone_and_upstream_is_bit_fixed() {
        let base = paper_graph(3_000, 46);
        let graph = DynamicGraph::from_csr(&base);
        let index = SccIndex::new(&graph);
        let cfg = PropagationConfig {
            damping: 0.85,
            epsilon: 1e-10,
        };
        // Seed the burst deep in the DAG: documents whose component
        // ids are small sit near the sinks of the condensation, so
        // most of the graph stays strictly upstream of their cone.
        let component = dpr_graph::scc::tarjan_scc_dynamic(&graph).component;
        let mut low: Vec<DocId> = (0..3_000u32).map(DocId).collect();
        low.sort_by_key(|&d| component[d.index()]);
        let origins = [(low[0], 1.0), (low[1], -0.5)];
        let origin_docs = [low[0], low[1]];
        let before: Vec<f64> = (0..3_000).map(|i| i as f64 * 0.001).collect();
        let mut ranks = before.clone();
        let stats =
            propagate_burst_localized(&graph, &index, &origins, cfg, Some(ranks.as_mut_slice()));
        assert!(stats.cone_docs >= stats.wave.node_coverage);
        assert!(stats.cone_components > 0);
        // The certificate: documents outside the cone kept their rank
        // bit-identically — upstream components were never re-swept.
        let cone = index.downstream_cone(&graph, &origin_docs);
        let mut outside = 0;
        for i in 0..3_000usize {
            if !cone.contains(DocId::from(i)) {
                assert_eq!(ranks[i].to_bits(), before[i].to_bits(), "doc {i} moved");
                outside += 1;
            }
        }
        assert!(outside > 0, "scenario must leave some documents upstream");
    }

    #[test]
    fn insert_burst_and_sequential_inserts_agree_to_epsilon() {
        let base = paper_graph(800, 47);
        // ε far below the 1e-9 parity bar: the two protocols apply the
        // same linear increments and differ only at ε-truncation
        // points, whose accumulated effect is O(ε · generations).
        let cfg = PropagationConfig {
            damping: 0.85,
            epsilon: 1e-13,
        };
        let batches: Vec<Vec<DocId>> = vec![
            vec![DocId(3), DocId(90)],
            vec![DocId(3), DocId(500)],
            vec![DocId(241)],
        ];
        // Sequential protocol: one wave per insert.
        let mut g1 = DynamicGraph::from_csr(&base);
        let mut r1 = vec![1.0 / 800.0; 800];
        let mut seq_messages = 0u64;
        for links in &batches {
            let (_, s) = insert_document(&mut g1, links, &mut r1, cfg);
            seq_messages += s.messages;
        }
        // Burst protocol: one merged localized wave.
        let mut g2 = DynamicGraph::from_csr(&base);
        let mut idx = SccIndex::new(&g2);
        let mut r2 = vec![1.0 / 800.0; 800];
        let (ids, burst) = insert_burst(&mut g2, &mut idx, &batches, &mut r2, cfg);
        assert_eq!(ids.len(), 3);
        assert_eq!(idx.freshness(), dpr_graph::scc::IndexFreshness::Exact);
        assert!(
            burst.wave.messages <= seq_messages,
            "burst {} vs sequential {seq_messages}",
            burst.wave.messages
        );
        // Rank parity ≤ 1e-9 per doc: the merged wave applies the same
        // linear increments, differing only in ε-truncation points.
        for (i, (a, b)) in r1.iter().zip(&r2).enumerate() {
            assert!((a - b).abs() <= 1e-9, "doc {i}: {a} vs {b}");
        }
    }

    #[test]
    fn delete_burst_unlinks_and_coarsens() {
        let base = paper_graph(400, 48);
        let mut graph = DynamicGraph::from_csr(&base);
        let mut index = SccIndex::new(&graph);
        let mut ranks = vec![1.0 / 400.0; 400];
        let cfg = PropagationConfig {
            damping: 0.85,
            epsilon: 1e-10,
        };
        let victims = [DocId(5), DocId(77)];
        let stats = delete_burst(&mut graph, &mut index, &victims, &mut ranks, cfg);
        assert!(stats.wave.messages > 0);
        for &v in &victims {
            assert!(!graph.is_alive(v));
            assert_eq!(ranks[v.index()], 0.0);
        }
        assert_eq!(index.freshness(), dpr_graph::scc::IndexFreshness::Coarse);
        assert!(index.refresh(&graph));
        graph.check_invariants().unwrap();
    }

    /// `real` and `model` agree on every `PropagationStats` field and
    /// on every rank bit.
    fn assert_same(
        real: (&PropagationStats, &[f64]),
        model: (&PropagationStats, &[f64]),
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(real.0, model.0);
        prop_assert_eq!(real.1.len(), model.1.len());
        for (i, (a, b)) in real.1.iter().zip(model.1).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "doc {}: {} vs {}", i, a, b);
        }
        Ok(())
    }

    proptest! {
        /// The snapshot wave and the wave model agree bit for
        /// bit — every rank and every `PropagationStats` field — over
        /// rounds of insert and delete bursts (deletes leave rows
        /// unsorted) and over single waves on a `CsrGraph`, Figure 2's
        /// at damping 1 among them. Ids `≡ 3 (mod 4)` have no
        /// out-links: dangling documents.
        #[test]
        fn snapshot_wave_matches_the_model(
            n in 4usize..24,
            edges in prop_vec((any::<u32>(), any::<u32>()), 0..80),
            rounds in prop_vec(
                (
                    prop_vec(prop_vec(any::<u32>(), 0..4), 1..4),
                    prop_vec(any::<u32>(), 1..4),
                ),
                3..5,
            ),
            damping in 0usize..2,
            epsilon in 0usize..3,
        ) {
            let (damping, epsilon) = ([0.5, 0.85][damping], [1e-3, 1e-7, 1e-12][epsilon]);
            let n32 = n as u32;
            let g = from_edges(
                n,
                edges
                    .iter()
                    .map(|&(a, b)| (a % n32, b % n32))
                    .filter(|&(a, _)| a % 4 != 3)
                    .map(|(a, b)| Edge::new(a, b)),
            );
            let cfg = PropagationConfig { damping, epsilon };
            let fig2 = PropagationConfig { damping: 1.0, epsilon };
            for (csr, cfg) in [(&g, cfg), (&figure2(), fig2)] {
                for origin in csr.nodes() {
                    let mut real = vec![0.25; csr.num_nodes()];
                    let mut model = real.clone();
                    let s = propagate(csr, origin, 1.0, cfg, Some(&mut real));
                    let m = wave_model(csr, &[(origin, 1.0)], cfg, Some(&mut model), None);
                    assert_same((&s, &real), (&m, &model))?;
                }
            }

            let mut graph = DynamicGraph::from_csr(&g);
            let mut index = SccIndex::new(&graph);
            let mut ranks: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
            for (batches, victims) in &rounds {
                let alive: Vec<DocId> = graph.alive().collect();
                let batches: Vec<Vec<DocId>> = batches
                    .iter()
                    .map(|b| b.iter().map(|&x| alive[x as usize % alive.len()]).collect())
                    .collect();
                let (mut m_graph, mut m_index, mut m_ranks) =
                    (graph.clone(), index.clone(), ranks.clone());
                let mut origins = Vec::new();
                for links in &batches {
                    let id = m_graph.insert_document(links);
                    m_index.on_insert_document(id);
                    m_ranks.push(1.0 - damping);
                    origins.push((id, 1.0 - damping));
                }
                let ids: Vec<DocId> = origins.iter().map(|&(d, _)| d).collect();
                let cone = m_index.downstream_cone(&m_graph, &ids);
                let m = wave_model(&m_graph, &origins, cfg, Some(&mut m_ranks), Some(&cone));
                let (new_ids, burst) = insert_burst(&mut graph, &mut index, &batches, &mut ranks, cfg);
                prop_assert_eq!(new_ids, ids);
                assert_same((&burst.wave, &ranks), (&m, &m_ranks))?;

                // Distinct live victims, at least one survivor.
                let mut alive: Vec<DocId> = graph.alive().collect();
                let mut docs = Vec::new();
                for &x in victims {
                    if alive.len() > 1 {
                        docs.push(alive.swap_remove(x as usize % alive.len()));
                    }
                }
                let mut m_ranks = ranks.clone();
                let origins: Vec<(DocId, f64)> =
                    docs.iter().map(|&d| (d, -m_ranks[d.index()])).collect();
                let cone = index.downstream_cone(&graph, &docs);
                let m = wave_model(&graph, &origins, cfg, Some(&mut m_ranks), Some(&cone));
                docs.iter().for_each(|d| m_ranks[d.index()] = 0.0);
                let burst = delete_burst(&mut graph, &mut index, &docs, &mut ranks, cfg);
                assert_same((&burst.wave, &ranks), (&m, &m_ranks))?;
            }
        }
    }

    /// A cone taken from a graph where 1 is a sink (0 -> 1): `{1}`.
    fn sink_cone() -> ConeSet {
        let a = DynamicGraph::from_csr(&from_edges(2, [Edge::new(0u32, 1u32)]));
        SccIndex::new(&a).downstream_cone(&a, &[DocId(1)])
    }

    #[test]
    #[should_panic(expected = "wave escaped the cone")]
    fn certificate_fires_on_a_link_leaving_the_cone() {
        // The same cone over a graph where 1 links back to 0.
        let b = DynamicGraph::from_csr(&from_edges(
            2,
            [Edge::new(0u32, 1u32), Edge::new(1u32, 0u32)],
        ));
        cone_snapshot(&b, &sink_cone(), &[DocId(1)]);
    }

    #[test]
    #[should_panic(expected = "outside its own cone")]
    fn certificate_fires_on_an_origin_outside_the_cone() {
        let a = DynamicGraph::from_csr(&from_edges(2, [Edge::new(0u32, 1u32)]));
        cone_snapshot(&a, &sink_cone(), &[DocId(0)]);
    }

    #[test]
    fn snapshot_keeps_stored_row_order() {
        // Deleting 1 swap-removes it from 0's row: [1, 2, 3, 4] -> [4, 2, 3].
        let base = from_edges(5, (1..5u32).map(|t| Edge::new(0u32, t)));
        let mut graph = DynamicGraph::from_csr(&base);
        graph.delete_document(DocId(1));
        assert_eq!(graph.out_links(DocId(0)), &[4, 2, 3]);
        let index = SccIndex::new(&graph);
        let cone = index.downstream_cone(&graph, &[DocId(0)]);
        let snapshot = cone_snapshot(&graph, &cone, &[DocId(0)]);
        for v in graph.alive() {
            assert_eq!(snapshot.out_neighbors(v), graph.out_links(v), "row {v}");
        }
        assert!(snapshot.out_neighbors(DocId(1)).is_empty(), "tombstone row");
    }
}
