//! # dpr-core — distributed PageRank by chaotic (asynchronous) iteration
//!
//! The primary contribution of "Distributed Pagerank for P2P Systems"
//! (HPDC 2003): pageranks computed *in place* by the peers holding the
//! documents, with no central server and no global synchronization,
//! as a chaotic-iteration solution of the PageRank linear system
//! (Chazan & Miranker, 1969).
//!
//! The PageRank fixed point used throughout is the standard
//! normalized form of the paper's Equation 1,
//!
//! ```text
//! R(i) = (1 - d) + d * Σ_{j ∈ in(i)} R(j) / N(j)
//! ```
//!
//! where `d` is the damping factor and `N(j)` the out-degree of `j`.
//!
//! ## Modules
//!
//! * [`engine`] — the distributed algorithm of the paper's Figure 1,
//!   run pass-by-pass over simulated peers exactly as in Sec. 4.2:
//!   peers concurrently update the ranks of their documents from
//!   received update messages and send new updates for every document
//!   whose rank moved by more than the error threshold ε.
//! * [`sync_solver`] — the conventional synchronous (Jacobi) solver;
//!   its result is the paper's `R_c`, the quality reference of Table 2.
//! * [`incremental`] — increment propagation for document inserts and
//!   deletes (paper Sec. 3.1, 4.7, Figure 2), measuring the path
//!   length and node coverage reported in Table 4.
//! * [`error_stats`] — the relative-error distribution `|R_d − R_c| /
//!   R_c` summarized the way Table 2 reports it.
//! * [`exec_model`] — the analytic execution-time model (Equation 4
//!   and the aggregate serialized-transfer model behind Table 3's
//!   hours columns, plus the Sec. 4.6.2 Internet-scale estimate).
//! * [`message`] — the update-message type and its 24-byte wire form.
//! * [`parallel`] — a shim over [`engine`] with the sharded
//!   executor's old signatures, kept only for the frozen `perf/`
//!   benchmark. There is no threaded pass.

#![warn(missing_docs)]

pub mod engine;
pub mod error_stats;
pub mod exec_model;
pub mod incremental;
pub mod message;
pub mod parallel;
pub mod sched;
pub mod sync_solver;

pub use engine::{ChaoticEngine, EngineConfig, PassStats, RunStats};
pub use message::RankUpdate;
pub use sched::{RunMode, SchedMode, SCHED_HELP};
pub use sync_solver::SyncSolver;

/// Google's customary damping factor; the paper does not give its
/// value, so we default to the standard 0.85.
pub const DEFAULT_DAMPING: f64 = 0.85;

/// The paper's recommended error threshold: "an error threshold of
/// 1e-3 seems ideal — pageranks have a maximum error of less than 1 %,
/// with reasonably low message traffic" (Sec. 4.8).
pub const RECOMMENDED_EPSILON: f64 = 1e-3;

/// Initial pagerank assigned to newly inserted documents (Sec. 4.7
/// uses 1.0).
pub const INITIAL_RANK: f64 = 1.0;
