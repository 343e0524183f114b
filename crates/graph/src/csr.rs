//! Immutable compressed-sparse-row (CSR) storage for link graphs.
//!
//! The static pagerank computation iterates over every out-link of every
//! document many times (Table 1 of the paper needs 74–241 passes), so
//! the hot representation must be compact and sequential. CSR stores all
//! adjacency lists in one contiguous `Vec<u32>` plus an offset array,
//! which is the standard high-performance layout for sparse graph
//! kernels.

use crate::{DocId, Edge};

/// An immutable directed graph in compressed-sparse-row form.
///
/// `offsets` has `n + 1` entries; the out-neighbors of node `v` are
/// `targets[offsets[v] .. offsets[v + 1]]`. Out-neighbor lists are
/// sorted and deduplicated by [`crate::GraphBuilder`]; graphs made by
/// [`CsrGraph::from_parts`] are only as sorted as their caller made
/// them.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not monotone, do not start at 0, do not
    /// end at `targets.len()`, or if any target is out of range. These
    /// invariants are what every traversal relies on, so they are
    /// checked once at construction instead of on every access.
    ///
    /// Row order is **not** checked: ascending rows are the caller's
    /// contract. Every traversal — the rank engines included — reads
    /// rows as multisets in stored order and must keep doing so (a
    /// duplicate edge is two links, a self-loop is a link).
    pub fn from_parts(offsets: Vec<u64>, targets: Vec<u32>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have n + 1 entries");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len() as u64,
            "offsets must end at the number of edges"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone non-decreasing"
        );
        let n = offsets.len() - 1;
        assert!(
            targets.iter().all(|&t| (t as usize) < n),
            "edge target out of range"
        );
        CsrGraph { offsets, targets }
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of nodes (documents).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (links).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The row offsets, `n + 1` entries: `offsets()[v]` edges precede
    /// row `v`, so they are also the prefix sums a caller needs to cut
    /// the node range into pieces of equal edge count.
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Out-degree of `v` — the paper's `N(v)`, the divisor used when a
    /// document distributes its rank over its out-links.
    #[inline]
    pub fn out_degree(&self, v: DocId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Out-neighbors of `v`, in stored order (ascending for graphs
    /// from [`crate::GraphBuilder`] and [`CsrGraph::transpose`]).
    #[inline]
    pub fn out_neighbors(&self, v: DocId) -> &[u32] {
        let i = v.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = DocId> + '_ {
        (0..self.num_nodes() as u32).map(DocId)
    }

    /// Iterator over all edges in node order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |v| {
            self.out_neighbors(v).iter().map(move |&t| Edge {
                from: v,
                to: DocId(t),
            })
        })
    }

    /// The transposed graph: every edge `u -> v` becomes `v -> u`.
    ///
    /// The synchronous reference solver (paper Sec. 4.3, the quantity
    /// `R_c`) pulls rank along *in-links*, which is exactly a traversal
    /// of the transpose. Built with a counting sort, O(V + E). Every
    /// row of the result lists its sources in ascending order, one
    /// entry per edge (duplicates kept), whatever the row order of
    /// `self`.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.num_nodes();
        let mut counts = vec![0u64; n + 1];
        for &t in &self.targets {
            counts[t as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; self.targets.len()];
        for v in 0..n {
            let (s, e) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            for &t in &self.targets[s..e] {
                targets[cursor[t as usize] as usize] = v as u32;
                cursor[t as usize] += 1;
            }
        }
        // Sources are visited in ascending order, so each per-node slice
        // of the transpose is already sorted; uphold the CSR invariant
        // without a second sort.
        CsrGraph { offsets, targets }
    }

    /// In-degrees of all nodes, computed in one O(E) sweep.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes()];
        for &t in &self.targets {
            deg[t as usize] += 1;
        }
        deg
    }

    /// Count of nodes with no out-links ("dangling" documents). These
    /// documents leak rank in the naive formulation; both solvers treat
    /// them identically so the comparison in Table 2 stays apples to
    /// apples.
    pub fn num_dangling(&self) -> usize {
        (0..self.num_nodes())
            .filter(|&v| self.offsets[v] == self.offsets[v + 1])
            .count()
    }

    /// Approximate heap footprint in bytes, for capacity planning of the
    /// paper-scale (5M node) runs.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::from_parts(vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3])
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(DocId(0)), 2);
        assert_eq!(g.out_neighbors(DocId(0)), &[1, 2]);
        assert_eq!(g.out_degree(DocId(3)), 0);
        assert_eq!(g.num_dangling(), 1);
    }

    #[test]
    fn edges_iterates_in_node_order() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                Edge::new(0u32, 1u32),
                Edge::new(0u32, 2u32),
                Edge::new(1u32, 3u32),
                Edge::new(2u32, 3u32),
            ]
        );
    }

    #[test]
    fn transpose_reverses_every_edge() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.out_neighbors(DocId(3)), &[1, 2]);
        assert_eq!(t.out_neighbors(DocId(1)), &[0]);
        assert_eq!(t.out_neighbors(DocId(0)), &[] as &[u32]);
        // transpose twice is identity
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn in_degrees_match_transpose_out_degrees() {
        let g = diamond();
        let t = g.transpose();
        let deg = g.in_degrees();
        for v in g.nodes() {
            assert_eq!(deg[v.index()] as usize, t.out_degree(v));
        }
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(3);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_dangling(), 3);
        assert_eq!(g.out_neighbors(DocId(1)), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn rejects_non_monotone_offsets() {
        CsrGraph::from_parts(vec![0, 2, 1, 4, 4], vec![1, 2, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_target() {
        CsrGraph::from_parts(vec![0, 1], vec![7]);
    }

    #[test]
    #[should_panic(expected = "end at the number of edges")]
    fn rejects_mismatched_edge_count() {
        CsrGraph::from_parts(vec![0, 1], vec![]);
    }
}
