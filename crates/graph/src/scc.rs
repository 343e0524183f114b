//! Strongly connected components.
//!
//! The SCC structure matters operationally: rank mass circulates
//! inside a component but only flows one way between components. The
//! algorithm is Tarjan's, implemented iteratively (an explicit work
//! stack) because generated graphs reach millions of nodes and a
//! recursive formulation would overflow the thread stack.
//!
//! ## Localized recomputation machinery
//!
//! The decomposition drives the incremental engine's *localized*
//! update waves: [`Condensation`]
//! materializes the component DAG with its topological ordering,
//! [`SccIndex`] keeps a decomposition valid across [`DynamicGraph`]
//! mutations without a full Tarjan re-run per mutation, and
//! [`SccIndex::downstream_cone`] answers the scheduling question a
//! burst raises — *which documents can this change reach?* Everything
//! upstream of the cone is provably at its fixed point already (rank
//! flows only along edges, and no edge enters the cone from outside
//! it), so the wave never has to re-sweep it.

use crate::{csr::CsrGraph, dynamic::DynamicGraph, DocId};

/// The strongly-connected-component decomposition of a graph.
#[derive(Debug, Clone)]
pub struct SccDecomposition {
    /// Component id of every node (ids are dense, in *reverse*
    /// topological order of the condensation — Tarjan's natural
    /// output order).
    pub component: Vec<u32>,
    /// Number of components.
    pub num_components: usize,
}

impl SccDecomposition {
    /// Sizes of all components.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_components];
        for &c in &self.component {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Id and size of the largest component.
    pub fn largest(&self) -> (u32, usize) {
        self.sizes()
            .into_iter()
            .enumerate()
            .max_by_key(|&(_, s)| s)
            .map(|(c, s)| (c as u32, s))
            .expect("at least one component")
    }
}

/// Tarjan's algorithm, iterative, over a CSR snapshot.
pub fn tarjan_scc(graph: &CsrGraph) -> SccDecomposition {
    tarjan_scc_with(graph.num_nodes(), |v| graph.out_neighbors(DocId(v)))
}

/// Tarjan's algorithm over a live [`DynamicGraph`]. Tombstoned ids
/// become isolated singleton components (same convention as
/// [`DynamicGraph::to_csr`]), so component ids stay aligned with
/// document ids.
pub fn tarjan_scc_dynamic(graph: &DynamicGraph) -> SccDecomposition {
    const EMPTY: &[u32] = &[];
    tarjan_scc_with(graph.id_bound(), |v| {
        if graph.is_alive(DocId(v)) {
            graph.out_links(DocId(v))
        } else {
            EMPTY
        }
    })
}

/// The shared iterative Tarjan core: `out(v)` yields the
/// out-neighbors of node `v` for `v < n`.
fn tarjan_scc_with<'g>(n: usize, out: impl Fn(u32) -> &'g [u32]) -> SccDecomposition {
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut component = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut num_components = 0u32;

    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            let targets = out(v);
            if *child < targets.len() {
                let w = targets[*child];
                *child += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                // v is finished.
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // v is a component root: pop its members.
                    loop {
                        let w = stack.pop().expect("stack holds the component");
                        on_stack[w as usize] = false;
                        component[w as usize] = num_components;
                        if w == v {
                            break;
                        }
                    }
                    num_components += 1;
                }
            }
        }
    }

    SccDecomposition {
        component,
        num_components: num_components as usize,
    }
}

/// The condensation DAG: one node per strongly connected component,
/// cross-component edges deduplicated.
///
/// Component ids double as the topological ordering: Tarjan emits
/// components in reverse topological order, so every DAG edge `c → c'`
/// satisfies `c' < c` — descending component id *is* a topological
/// sort of the condensation. [`Condensation::downstream_cone`] exploits
/// that: a single descending sweep propagates reachability, no queue
/// or visited-set bookkeeping needed.
#[derive(Debug, Clone)]
pub struct Condensation {
    num_components: usize,
    /// CSR adjacency over components (offsets/targets).
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Condensation {
    /// Builds the condensation of `scc` from the graph's edge list.
    pub fn new(scc: &SccDecomposition, edges: impl Iterator<Item = (u32, u32)>) -> Self {
        let mut cross: Vec<(u32, u32)> = edges
            .map(|(u, v)| (scc.component[u as usize], scc.component[v as usize]))
            .filter(|&(cu, cv)| cu != cv)
            .collect();
        cross.sort_unstable();
        cross.dedup();
        let mut offsets = vec![0u32; scc.num_components + 1];
        for &(cu, _) in &cross {
            offsets[cu as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let targets = cross.into_iter().map(|(_, cv)| cv).collect();
        Condensation {
            num_components: scc.num_components,
            offsets,
            targets,
        }
    }

    /// Condensation of a [`DynamicGraph`] (tombstones are isolated).
    pub fn from_dynamic(graph: &DynamicGraph, scc: &SccDecomposition) -> Self {
        Condensation::new(
            scc,
            graph
                .alive()
                .flat_map(|u| graph.out_links(u).iter().map(move |&v| (u.0, v))),
        )
    }

    /// Number of components (DAG nodes).
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Deduplicated successor components of `c`; every entry is `< c`.
    pub fn out_components(&self, c: u32) -> &[u32] {
        let i = c as usize;
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Component ids in topological order (sources first) — simply
    /// descending, by the reverse-topological id invariant.
    pub fn topo_order(&self) -> impl Iterator<Item = u32> {
        (0..self.num_components as u32).rev()
    }

    /// Marks every component reachable from `seeds` (inclusive): the
    /// downstream cone. One descending sweep suffices because every
    /// DAG edge points to a smaller id.
    pub fn downstream_cone(&self, seeds: impl IntoIterator<Item = u32>) -> Vec<bool> {
        let mut marked = vec![false; self.num_components];
        for s in seeds {
            marked[s as usize] = true;
        }
        for c in self.topo_order() {
            if marked[c as usize] {
                for &succ in self.out_components(c) {
                    marked[succ as usize] = true;
                }
            }
        }
        marked
    }
}

/// How faithfully an [`SccIndex`] currently reflects its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexFreshness {
    /// The partition is the graph's true SCC decomposition.
    Exact,
    /// Deletions have happened since the last rebuild: the partition
    /// is a sound *coarsening* (deletions only ever split components,
    /// never merge them), so every cone the index reports is a
    /// superset of the true cone — localization stays correct, just
    /// less tight.
    Coarse,
}

/// Counters describing how the index has been maintained — the
/// localized-recomputation telemetry the bench and experiment reports
/// surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct SccIndexStats {
    /// Full Tarjan rebuilds (including the initial build).
    pub rebuilds: u64,
    /// Document inserts absorbed exactly, without a rebuild.
    pub incremental_inserts: u64,
    /// Deletions absorbed as a sound coarsening.
    pub coarse_deletes: u64,
}

/// An SCC decomposition kept *incrementally valid* across
/// [`DynamicGraph`] mutations.
///
/// Inserts are maintained exactly: a freshly inserted document has no
/// in-links (the paper's insert model), so it is a source: it forms its
/// own singleton component, and giving it the next id keeps the
/// reverse-topological invariant — all its edges point at components
/// with smaller ids. Deletions degrade gracefully: they coarsen (see
/// [`IndexFreshness::Coarse`]) until the next [`SccIndex::refresh`]
/// re-runs Tarjan.
#[derive(Debug, Clone)]
pub struct SccIndex {
    comp: Vec<u32>,
    num_components: usize,
    freshness: IndexFreshness,
    stats: SccIndexStats,
}

impl SccIndex {
    /// Builds the index from the graph's current state.
    pub fn new(graph: &DynamicGraph) -> Self {
        let scc = tarjan_scc_dynamic(graph);
        SccIndex {
            comp: scc.component,
            num_components: scc.num_components,
            freshness: IndexFreshness::Exact,
            stats: SccIndexStats {
                rebuilds: 1,
                ..SccIndexStats::default()
            },
        }
    }

    /// Number of components in the current partition.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Current freshness (see [`IndexFreshness`]).
    pub fn freshness(&self) -> IndexFreshness {
        self.freshness
    }

    /// Maintenance counters.
    pub fn stats(&self) -> SccIndexStats {
        self.stats
    }

    /// Absorbs a document insert (call right after
    /// [`DynamicGraph::insert_document`] returned `id`). Exact: the
    /// new document is a source and becomes its own component with the
    /// largest id.
    pub fn on_insert_document(&mut self, id: DocId) {
        assert_eq!(
            id.index(),
            self.comp.len(),
            "inserts must be reported in id order"
        );
        self.comp.push(self.num_components as u32);
        self.num_components += 1;
        self.stats.incremental_inserts += 1;
    }

    /// Absorbs a document deletion. The partition coarsens: the
    /// tombstone keeps its old component label, and surviving
    /// components can only have split.
    pub fn on_delete_document(&mut self, _id: DocId) {
        self.coarsen();
    }

    fn coarsen(&mut self) {
        if self.freshness == IndexFreshness::Exact {
            self.freshness = IndexFreshness::Coarse;
        }
        self.stats.coarse_deletes += 1;
    }

    /// Rebuilds from scratch if the index is not exact. Returns
    /// whether a rebuild ran.
    pub fn refresh(&mut self, graph: &DynamicGraph) -> bool {
        if self.freshness == IndexFreshness::Exact {
            return false;
        }
        let scc = tarjan_scc_dynamic(graph);
        self.comp = scc.component;
        self.num_components = scc.num_components;
        self.freshness = IndexFreshness::Exact;
        self.stats.rebuilds += 1;
        true
    }

    /// The downstream cone of a burst: every document in a component
    /// reachable (in the condensation DAG) from an origin's component.
    /// Sound under [`IndexFreshness::Exact`] and
    /// [`IndexFreshness::Coarse`].
    pub fn downstream_cone(&self, graph: &DynamicGraph, origins: &[DocId]) -> ConeSet {
        let scc = SccDecomposition {
            component: self.comp.clone(),
            num_components: self.num_components,
        };
        let dag = Condensation::from_dynamic(graph, &scc);
        let marked = dag.downstream_cone(origins.iter().map(|&d| self.comp[d.index()]));
        let mut docs = 0usize;
        let mut in_cone = vec![false; self.comp.len()];
        for (d, flag) in in_cone.iter_mut().enumerate() {
            if marked[self.comp[d] as usize] && graph.is_alive(DocId::from(d)) {
                *flag = true;
                docs += 1;
            }
        }
        let components = marked.iter().filter(|&&m| m).count();
        ConeSet {
            in_cone,
            docs,
            components,
        }
    }
}

/// The document set a burst can reach — the membership test the
/// localized wave consults, plus the size telemetry the bench reports.
#[derive(Debug, Clone)]
pub struct ConeSet {
    in_cone: Vec<bool>,
    /// Live documents inside the cone.
    pub docs: usize,
    /// Components inside the cone.
    pub components: usize,
}

impl ConeSet {
    /// Whether `doc` lies inside the cone.
    pub fn contains(&self, doc: DocId) -> bool {
        self.in_cone.get(doc.index()).copied().unwrap_or(false)
    }

    /// Total id range covered by the membership table.
    pub fn id_bound(&self) -> usize {
        self.in_cone.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::powerlaw::paper_graph;
    use crate::Edge;

    #[test]
    fn two_cycles_and_a_bridge() {
        // {0,1} cycle -> bridge -> {2,3} cycle; 4 isolated.
        let g = from_edges(
            5,
            [
                Edge::new(0u32, 1u32),
                Edge::new(1u32, 0u32),
                Edge::new(1u32, 2u32),
                Edge::new(2u32, 3u32),
                Edge::new(3u32, 2u32),
            ],
        );
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components, 3);
        assert_eq!(scc.component[0], scc.component[1]);
        assert_eq!(scc.component[2], scc.component[3]);
        assert_ne!(scc.component[0], scc.component[2]);
        assert_ne!(scc.component[4], scc.component[0]);
        let sizes = scc.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 5);
        assert_eq!(scc.largest().1, 2);
    }

    #[test]
    fn dag_has_singleton_components() {
        let g = from_edges(
            4,
            [
                Edge::new(0u32, 1u32),
                Edge::new(1u32, 2u32),
                Edge::new(0u32, 3u32),
            ],
        );
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components, 4);
    }

    #[test]
    fn component_ids_are_reverse_topological() {
        // Tarjan emits sinks first: in 0 -> 1, component(1) < component(0).
        let g = from_edges(2, [Edge::new(0u32, 1u32)]);
        let scc = tarjan_scc(&g);
        assert!(scc.component[1] < scc.component[0]);
    }

    #[test]
    fn powerlaw_graph_has_a_giant_core() {
        // The Broder-style generator should produce a substantial
        // strongly connected core, like the real web.
        let scc = tarjan_scc(&paper_graph(20_000, 111));
        assert!(scc.largest().1 > 2_000, "core size {}", scc.largest().1);
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // 1M-node path graph: the worst case for DFS depth — a
        // recursive Tarjan would blow the thread stack three orders of
        // magnitude before finishing, so this pins the iterative
        // implementation at the 1M-doc condensation scale the
        // localized-recomputation machinery targets.
        let n = 1_000_000;
        let mut b = crate::GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1);
        }
        let g = b.build();
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components, n);
        // Reverse-topological ids along the whole chain: the sink is
        // component 0, each predecessor one higher.
        assert_eq!(scc.component[n - 1], 0);
        assert_eq!(scc.component[0], n as u32 - 1);
    }

    #[test]
    fn condensation_orders_and_cones() {
        // diamond with a cycle: {0,1} -> 2, {0,1} -> 3, 2 -> 4, 3 -> 4
        let g = from_edges(
            5,
            [
                Edge::new(0u32, 1u32),
                Edge::new(1u32, 0u32),
                Edge::new(1u32, 2u32),
                Edge::new(0u32, 3u32),
                Edge::new(2u32, 4u32),
                Edge::new(3u32, 4u32),
            ],
        );
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components, 4);
        let dag = Condensation::new(&scc, g.edges().map(|e| (e.from.0, e.to.0)));
        // Every DAG edge points at a smaller id (reverse-topological
        // invariant), and topo_order visits sources before sinks.
        for c in 0..dag.num_components() as u32 {
            for &succ in dag.out_components(c) {
                assert!(succ < c, "edge {c} -> {succ} breaks the invariant");
            }
        }
        let order: Vec<u32> = dag.topo_order().collect();
        assert_eq!(order[0], scc.component[0], "the core is the only source");
        // Cone from the core covers everything; cone from 2 covers
        // only {2, 4}; cone from the sink is itself.
        let all = dag.downstream_cone([scc.component[0]]);
        assert!(all.iter().all(|&m| m));
        let mid = dag.downstream_cone([scc.component[2]]);
        for v in 0..5usize {
            let expect = v == 2 || v == 4;
            assert_eq!(mid[scc.component[v] as usize], expect, "doc {v}");
        }
        let sink = dag.downstream_cone([scc.component[4]]);
        assert_eq!(sink.iter().filter(|&&m| m).count(), 1);
    }

    #[test]
    fn scc_index_absorbs_inserts_exactly() {
        // 0 <-> 1 -> 2
        let g = from_edges(
            3,
            [
                Edge::new(0u32, 1u32),
                Edge::new(1u32, 0u32),
                Edge::new(1u32, 2u32),
            ],
        );
        let mut dg = DynamicGraph::from_csr(&g);
        let mut idx = SccIndex::new(&dg);
        assert_eq!(idx.freshness(), IndexFreshness::Exact);
        assert_eq!(idx.num_components(), 2);

        // Insert: a fresh source document, absorbed exactly.
        let id = dg.insert_document(&[DocId(0), DocId(2)]);
        idx.on_insert_document(id);
        assert_eq!(idx.freshness(), IndexFreshness::Exact);
        assert_eq!(idx.num_components(), 3);
        assert_eq!(idx.comp[id.index()], 2);

        // The exact index agrees with a from-scratch Tarjan.
        let fresh = tarjan_scc_dynamic(&dg);
        assert_eq!(idx.comp, fresh.component);
        assert_eq!(idx.num_components(), fresh.num_components);
        assert_eq!(idx.stats().rebuilds, 1);
        assert_eq!(idx.stats().incremental_inserts, 1);
    }

    #[test]
    fn scc_index_coarsens_on_deletion_and_cones_stay_sound() {
        // {0,1} core -> 2 -> 3, plus island 4.
        let g = from_edges(
            5,
            [
                Edge::new(0u32, 1u32),
                Edge::new(1u32, 0u32),
                Edge::new(1u32, 2u32),
                Edge::new(2u32, 3u32),
            ],
        );
        let mut dg = DynamicGraph::from_csr(&g);
        let mut idx = SccIndex::new(&dg);
        // Deleting 2 cuts the core off from 3. The coarse index may
        // over-approximate, but never under-approximate, the cone.
        dg.delete_document(DocId(2));
        idx.on_delete_document(DocId(2));
        assert_eq!(idx.freshness(), IndexFreshness::Coarse);
        let coarse = idx.downstream_cone(&dg, &[DocId(0)]);
        let exact_idx = SccIndex::new(&dg);
        let exact = exact_idx.downstream_cone(&dg, &[DocId(0)]);
        for v in 0..5u32 {
            if exact.contains(DocId(v)) {
                assert!(
                    coarse.contains(DocId(v)),
                    "coarse cone must contain the exact cone (doc {v})"
                );
            }
        }
        // Refresh tightens back to exact.
        assert!(idx.refresh(&dg));
        let tight = idx.downstream_cone(&dg, &[DocId(0)]);
        assert!(!tight.contains(DocId(3)), "3 is unreachable after the cut");
        assert!(!tight.contains(DocId(2)), "tombstones are never in a cone");
        assert_eq!(tight.docs, 2);
    }

    #[test]
    fn downstream_cone_matches_doc_level_reachability() {
        // On a generated workload graph, the component-DAG cone must
        // equal plain forward reachability from the origins.
        let g = paper_graph(3_000, 123);
        let dg = DynamicGraph::from_csr(&g);
        let idx = SccIndex::new(&dg);
        let origins = [DocId(7), DocId(1_234)];
        let cone = idx.downstream_cone(&dg, &origins);
        // BFS reachability over documents.
        let mut reach = vec![false; g.num_nodes()];
        let mut queue: std::collections::VecDeque<u32> = origins.iter().map(|d| d.0).collect();
        for d in &origins {
            reach[d.index()] = true;
        }
        while let Some(v) = queue.pop_front() {
            for &t in g.out_neighbors(DocId(v)) {
                if !reach[t as usize] {
                    reach[t as usize] = true;
                    queue.push_back(t);
                }
            }
        }
        for (v, &reached) in reach.iter().enumerate() {
            assert_eq!(
                cone.contains(DocId::from(v)),
                reached,
                "doc {v}: cone and reachability disagree"
            );
        }
        assert_eq!(cone.docs, reach.iter().filter(|&&r| r).count());
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let g = CsrGraph::empty(1);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components, 1);
    }
}
