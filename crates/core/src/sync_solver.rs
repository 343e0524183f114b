//! Conventional synchronous (Jacobi) PageRank — the paper's `R_c`.
//!
//! "To test the quality of the pagerank, we computed the pageranks
//! using a conventional synchronous iterative solver and compared the
//! error between the pagerank from our distributed asynchronous
//! scheme (R_d) and the pagerank from the conventional approach (R_c)"
//! (Sec. 4.3). This solver is that reference: full-vector Jacobi
//! sweeps pulling rank along in-links until the largest relative
//! change falls below a (tight) tolerance.
//!
//! Dangling documents (no out-links) simply do not forward rank — the
//! same convention the distributed engine uses — so the two schemes
//! share a fixed point and Table 2 compares like with like.

use dpr_graph::CsrGraph;

/// Synchronous PageRank solver.
#[derive(Debug, Clone)]
pub struct SyncSolver {
    tolerance: f64,
    max_iterations: usize,
}

/// Result of a synchronous solve.
#[derive(Debug, Clone)]
pub struct SyncResult {
    /// Final ranks, indexed by document.
    pub ranks: Vec<f64>,
    /// Sweeps executed.
    pub iterations: usize,
    /// Largest relative change in the final sweep.
    pub final_residual: f64,
    /// Whether `final_residual <= tolerance` was reached within the
    /// iteration budget.
    pub converged: bool,
}

impl Default for SyncSolver {
    fn default() -> Self {
        SyncSolver {
            tolerance: 1e-12,
            max_iterations: 500,
        }
    }
}

impl SyncSolver {
    /// A solver with the default reference-quality settings
    /// (tolerance 1e-12, damping 0.85).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the convergence tolerance on the max relative change.
    pub fn tolerance(mut self, tol: f64) -> Self {
        assert!(tol > 0.0, "tolerance must be positive");
        self.tolerance = tol;
        self
    }

    /// Caps the number of sweeps.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Solves for the pageranks of `graph`.
    pub fn solve(&self, graph: &CsrGraph) -> SyncResult {
        let n = graph.num_nodes();
        let damping = crate::DEFAULT_DAMPING;
        let base = 1.0 - damping;
        let mut ranks = vec![1.0f64; n];
        let mut contrib = vec![0.0f64; n];
        let mut iterations = 0;
        let mut final_residual = f64::INFINITY;

        // Push-style sweep over out-links: equivalent to pulling along
        // in-links but avoids materializing the transpose, and walks
        // the CSR arrays sequentially.
        while iterations < self.max_iterations {
            contrib.iter_mut().for_each(|c| *c = 0.0);
            for v in graph.nodes() {
                let out = graph.out_neighbors(v);
                if out.is_empty() {
                    continue;
                }
                let share = ranks[v.index()] / out.len() as f64;
                for &t in out {
                    contrib[t as usize] += share;
                }
            }
            let mut max_rel = 0.0f64;
            for i in 0..n {
                let new = base + damping * contrib[i];
                let rel = (new - ranks[i]).abs() / new.max(f64::MIN_POSITIVE);
                max_rel = max_rel.max(rel);
                ranks[i] = new;
            }
            iterations += 1;
            final_residual = max_rel;
            if max_rel <= self.tolerance {
                break;
            }
        }

        SyncResult {
            ranks,
            iterations,
            final_residual,
            converged: final_residual <= self.tolerance,
        }
    }
}

/// Verifies that `ranks` satisfies the PageRank fixed-point equation
/// on `graph` to within `tol` (max relative residual). Used by tests
/// of both solvers.
pub fn fixed_point_residual(graph: &CsrGraph, ranks: &[f64], damping: f64) -> f64 {
    assert_eq!(ranks.len(), graph.num_nodes());
    let base = 1.0 - damping;
    let mut contrib = vec![0.0f64; ranks.len()];
    for v in graph.nodes() {
        let out = graph.out_neighbors(v);
        if out.is_empty() {
            continue;
        }
        let share = ranks[v.index()] / out.len() as f64;
        for &t in out {
            contrib[t as usize] += share;
        }
    }
    let mut max_rel = 0.0f64;
    for i in 0..ranks.len() {
        let expect = base + damping * contrib[i];
        let rel = (expect - ranks[i]).abs() / expect.max(f64::MIN_POSITIVE);
        max_rel = max_rel.max(rel);
    }
    max_rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_graph::builder::from_edges;
    use dpr_graph::powerlaw::paper_graph;
    use dpr_graph::Edge;

    #[test]
    fn two_node_cycle_has_uniform_rank() {
        // 0 <-> 1 is symmetric: both ranks are exactly 1.
        let g = from_edges(2, [Edge::new(0u32, 1u32), Edge::new(1u32, 0u32)]);
        let r = SyncSolver::new().solve(&g);
        assert!(r.converged);
        assert!((r.ranks[0] - 1.0).abs() < 1e-9);
        assert!((r.ranks[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn star_center_outranks_leaves() {
        // Leaves 1..=4 all point at 0; 0 points back at 1.
        let g = from_edges(
            5,
            [
                Edge::new(1u32, 0u32),
                Edge::new(2u32, 0u32),
                Edge::new(3u32, 0u32),
                Edge::new(4u32, 0u32),
                Edge::new(0u32, 1u32),
            ],
        );
        let r = SyncSolver::new().solve(&g);
        assert!(r.converged);
        assert!(r.ranks[0] > r.ranks[1]);
        assert!(r.ranks[1] > r.ranks[2]); // 1 gets 0's endorsement
        assert!((r.ranks[2] - r.ranks[3]).abs() < 1e-12); // symmetric leaves
    }

    #[test]
    fn analytic_chain_values() {
        // 0 -> 1 -> 2 (2 dangling), d = 0.85:
        // R0 = 0.15; R1 = 0.15 + 0.85*R0; R2 = 0.15 + 0.85*R1.
        let g = from_edges(3, [Edge::new(0u32, 1u32), Edge::new(1u32, 2u32)]);
        let r = SyncSolver::new().solve(&g);
        let r0 = 0.15;
        let r1 = 0.15 + 0.85 * r0;
        let r2 = 0.15 + 0.85 * r1;
        assert!((r.ranks[0] - r0).abs() < 1e-9, "{}", r.ranks[0]);
        assert!((r.ranks[1] - r1).abs() < 1e-9, "{}", r.ranks[1]);
        assert!((r.ranks[2] - r2).abs() < 1e-9, "{}", r.ranks[2]);
    }

    #[test]
    fn solution_satisfies_fixed_point_on_powerlaw_graph() {
        let g = paper_graph(3_000, 21);
        let r = SyncSolver::new().solve(&g);
        assert!(r.converged, "residual {}", r.final_residual);
        let res = fixed_point_residual(&g, &r.ranks, crate::DEFAULT_DAMPING);
        assert!(res < 1e-10, "fixed point residual {res}");
        assert!(
            r.ranks.iter().all(|&x| x >= 0.15 - 1e-12),
            "ranks below base"
        );
    }

    #[test]
    fn iteration_budget_is_respected() {
        let g = paper_graph(1_000, 22);
        let r = SyncSolver::new()
            .tolerance(1e-15)
            .max_iterations(3)
            .solve(&g);
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }

    #[test]
    fn total_rank_is_bounded_by_n() {
        // With rank leakage at dangling nodes, total rank <= n and
        // >= n * (1 - d).
        let g = paper_graph(2_000, 23);
        let r = SyncSolver::new().solve(&g);
        let total: f64 = r.ranks.iter().sum();
        let n = g.num_nodes() as f64;
        assert!(total <= n + 1e-6);
        assert!(total >= n * 0.15 - 1e-6);
    }
}
