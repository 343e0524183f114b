//! Graph statistics: degree distributions, power-law fits, reachability.
//!
//! Used by tests to validate the generator against the paper's model
//! and by the experiment binaries to report workload characteristics.

use crate::{csr::CsrGraph, DocId};
use std::collections::VecDeque;

/// Out-degrees of every node.
pub fn out_degrees(g: &CsrGraph) -> Vec<u32> {
    g.nodes().map(|v| g.out_degree(v) as u32).collect()
}

/// Arithmetic mean of a degree vector.
pub fn mean(deg: &[u32]) -> f64 {
    if deg.is_empty() {
        return 0.0;
    }
    deg.iter().map(|&d| d as f64).sum::<f64>() / deg.len() as f64
}

/// Maximum-likelihood estimate of the exponent of a *truncated
/// discrete* power law `P(X = i) ∝ i^-alpha` on `xmin ..= max(deg)`.
///
/// The common continuous-approximation estimator (Clauset–Shalizi–
/// Newman `1 + n / Σ ln(x/(xmin - ½))`) is badly biased when most mass
/// sits at `x = 1`, which is exactly the regime of the paper's degree
/// laws, so we maximize the exact truncated-zeta likelihood
/// `L(a) = -a Σ ln x − n ln Z(a)` numerically (ternary search; `L` is
/// strictly concave in `a`).
///
/// Returns `None` if fewer than two samples lie at or above `xmin` or
/// if all samples are equal (the likelihood is then monotone).
pub fn mle_exponent(deg: &[u32], xmin: u32) -> Option<f64> {
    assert!(xmin >= 1);
    let mut n = 0u64;
    let mut sum_ln = 0.0f64;
    let mut xmax = xmin;
    for &d in deg {
        if d >= xmin {
            n += 1;
            sum_ln += (d as f64).ln();
            xmax = xmax.max(d);
        }
    }
    if n < 2 || xmax == xmin {
        return None;
    }
    let log_lik = |a: f64| -> f64 {
        let z: f64 = (xmin..=xmax).map(|i| (i as f64).powf(-a)).sum();
        -a * sum_ln - n as f64 * z.ln()
    };
    let (mut lo, mut hi) = (0.01f64, 10.0f64);
    for _ in 0..200 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if log_lik(m1) < log_lik(m2) {
            lo = m1;
        } else {
            hi = m2;
        }
    }
    Some((lo + hi) / 2.0)
}

/// Breadth-first search over out-links from `src`; returns the set of
/// reached nodes (including `src`) as a boolean mask and the count.
pub fn bfs_reach(g: &CsrGraph, src: DocId) -> (Vec<bool>, usize) {
    let mut seen = vec![false; g.num_nodes()];
    let mut queue = VecDeque::new();
    seen[src.index()] = true;
    queue.push_back(src.0);
    let mut count = 1usize;
    while let Some(v) = queue.pop_front() {
        for &t in g.out_neighbors(DocId(v)) {
            if !seen[t as usize] {
                seen[t as usize] = true;
                count += 1;
                queue.push_back(t);
            }
        }
    }
    (seen, count)
}

/// Number of weakly-connected components (edges treated as undirected),
/// computed with union-find.
pub fn weakly_connected_components(g: &CsrGraph) -> usize {
    let mut uf = UnionFind::new(g.num_nodes());
    for e in g.edges() {
        uf.union(e.from.index(), e.to.index());
    }
    uf.num_sets()
}

/// Classic union-find with path halving and union by size.
#[derive(Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    sets: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns true if they were
    /// distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.sets -= 1;
        true
    }

    /// Number of disjoint sets remaining.
    pub fn num_sets(&self) -> usize {
        self.sets
    }
}

/// Summary of a graph printed by the experiment binaries.
#[derive(Debug, Clone, serde::Serialize)]
pub struct GraphSummary {
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Mean out-degree.
    pub mean_out_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: u32,
    /// Maximum in-degree.
    pub max_in_degree: u32,
    /// Nodes with no out-links.
    pub dangling: usize,
    /// MLE exponent fit of the out-degree tail (xmin = 1).
    pub out_exponent_fit: Option<f64>,
    /// MLE exponent fit of the in-degree tail (xmin = 1).
    pub in_exponent_fit: Option<f64>,
}

/// Computes a [`GraphSummary`].
pub fn summarize(g: &CsrGraph) -> GraphSummary {
    let out = out_degrees(g);
    let inn = g.in_degrees();
    GraphSummary {
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        mean_out_degree: mean(&out),
        max_out_degree: out.iter().copied().max().unwrap_or(0),
        max_in_degree: inn.iter().copied().max().unwrap_or(0),
        dangling: g.num_dangling(),
        out_exponent_fit: mle_exponent(&out, 1),
        in_exponent_fit: mle_exponent(&inn, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::Edge;

    fn chain() -> CsrGraph {
        from_edges(
            4,
            [
                Edge::new(0u32, 1u32),
                Edge::new(1u32, 2u32),
                Edge::new(2u32, 3u32),
            ],
        )
    }

    #[test]
    fn bfs_reaches_downstream_only() {
        let g = chain();
        let (seen, count) = bfs_reach(&g, DocId(1));
        assert_eq!(count, 3);
        assert!(!seen[0]);
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn components_counts_weak_connectivity() {
        let g = chain();
        assert_eq!(weakly_connected_components(&g), 1);
        let g2 = from_edges(4, [Edge::new(0u32, 1u32), Edge::new(2u32, 3u32)]);
        assert_eq!(weakly_connected_components(&g2), 2);
        let g3 = CsrGraph::empty(3);
        assert_eq!(weakly_connected_components(&g3), 3);
    }

    #[test]
    fn union_find_merges_and_sizes() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(1, 2));
        assert_eq!(uf.num_sets(), 3);
        let (r2, r4) = (uf.find(2), uf.find(4));
        assert_eq!((uf.size[r2], uf.size[r4]), (3, 1));
    }

    #[test]
    fn mean_of_degrees() {
        let deg = vec![1, 1, 2, 4];
        assert!((mean(&deg) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mle_recovers_known_exponent() {
        // Sample a power law with alpha = 2.4 and check the estimator
        // lands nearby.
        use crate::distr::PowerLaw;
        use rand::SeedableRng;
        let law = PowerLaw::new(2.4, 1, 10_000);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let samples: Vec<u32> = (0..50_000).map(|_| law.sample(&mut rng)).collect();
        let alpha = mle_exponent(&samples, 1).unwrap();
        assert!((2.1..=2.7).contains(&alpha), "estimate {alpha}");
    }

    #[test]
    fn mle_needs_enough_samples() {
        assert!(mle_exponent(&[5], 1).is_none());
        assert!(mle_exponent(&[], 1).is_none());
    }

    #[test]
    fn summary_fields_consistent() {
        let g = chain();
        let s = summarize(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(s.dangling, 1);
        assert_eq!(s.max_out_degree, 1);
        assert_eq!(s.max_in_degree, 1);
    }
}
