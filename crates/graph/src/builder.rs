//! Edge-list accumulation and conversion into [`CsrGraph`].

use crate::{csr::CsrGraph, DocId, Edge};

/// Accumulates directed edges and finalizes them into a [`CsrGraph`].
///
/// The builder tolerates duplicate edges and self-loops in its input —
/// the configuration-model generator naturally produces both — and
/// removes them at [`GraphBuilder::build`] time, matching the simple
/// "links between documents" semantics of the paper (a document linking
/// to itself contributes nothing to rank flow, and linking twice is the
/// same as linking once).
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// A builder for a graph with `num_nodes` documents.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates room for `n` edges.
    pub fn with_edge_capacity(mut self, n: usize) -> Self {
        self.edges.reserve(n);
        self
    }

    /// Adds the directed edge `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: impl Into<DocId>, to: impl Into<DocId>) {
        let e = Edge {
            from: from.into(),
            to: to.into(),
        };
        assert!(
            e.from.index() < self.num_nodes && e.to.index() < self.num_nodes,
            "edge {} -> {} out of range for {} nodes",
            e.from,
            e.to,
            self.num_nodes
        );
        self.edges.push(e);
    }

    /// Adds every edge from an iterator.
    pub fn extend(&mut self, edges: impl IntoIterator<Item = Edge>) {
        for e in edges {
            self.add_edge(e.from, e.to);
        }
    }

    /// Sorts, deduplicates, and packs the edges into CSR form.
    pub fn build(mut self) -> CsrGraph {
        self.edges.retain(|e| e.from != e.to);
        // Sort by (from, to) then dedup: gives sorted adjacency lists.
        self.edges.sort_unstable_by_key(|e| (e.from.0, e.to.0));
        self.edges.dedup();

        let mut offsets = vec![0u64; self.num_nodes + 1];
        for e in &self.edges {
            offsets[e.from.index() + 1] += 1;
        }
        for i in 0..self.num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let targets = self.edges.iter().map(|e| e.to.0).collect();
        CsrGraph::from_parts(offsets, targets)
    }
}

/// Builds a graph directly from an edge iterator.
pub fn from_edges(num_nodes: usize, edges: impl IntoIterator<Item = Edge>) -> CsrGraph {
    let mut b = GraphBuilder::new(num_nodes);
    b.extend(edges);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_deduped_csr() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2u32, 0u32);
        b.add_edge(0u32, 2u32);
        b.add_edge(0u32, 1u32);
        b.add_edge(0u32, 2u32); // duplicate
        b.add_edge(1u32, 1u32); // self loop, dropped
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(DocId(0)), &[1, 2]);
        assert_eq!(g.out_neighbors(DocId(1)), &[] as &[u32]);
        assert_eq!(g.out_neighbors(DocId(2)), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0u32, 5u32);
    }

    #[test]
    fn from_edges_helper() {
        let g = from_edges(2, [Edge::new(0u32, 1u32), Edge::new(1u32, 0u32)]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
    }
}
