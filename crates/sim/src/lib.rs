//! # dpr-sim — scenario driver for the distributed PageRank experiments
//!
//! Ties the substrates together the way the paper's simulation does
//! (Sec. 4.2): build a power-law document graph, assign documents
//! randomly to peers, run the chaotic pagerank engine pass by pass
//! with optional churn, and measure convergence, quality, traffic,
//! incremental updates, and search behaviour.
//!
//! * [`spec`] — the one validated scenario description every driver,
//!   `dpr` subcommand and bench sweep builds its run from.
//! * [`flags`] — the one `--key value` parser and output/trace sink
//!   behind the `dpr` subcommands and the experiment binaries.
//! * [`workload`] — graph + placement construction for a given scale.
//! * [`churn`] — per-pass peer presence schedules.
//! * [`hops`] — overlay hop accounting: routed-every-message vs the
//!   Sec. 3.2 address cache (the caching ablation).
//! * [`batch`] — batched vs unbatched wire traffic on the
//!   message-level cluster (the per-peer aggregation experiment; the
//!   unbatched side is a shadow of the one framed run).
//! * [`event`] — the discrete-event chaotic runtime: seeded
//!   deterministic event queue, per-link latency/bandwidth models, and
//!   residual-driven step timing (`--run-mode chaotic`).
//! * [`flight`] — deterministic capture & replay of the
//!   continuous-update scenario, plus the audited diagnostic run
//!   behind `dpr doctor`.
//! * [`scenario`] — one function per experiment family; each returns a
//!   serializable record that the `table*` binaries print.
//! * [`serving`] — production query traffic served against the live
//!   rank computation: latency SLOs, quantile sketches, and per-query
//!   causal spans (`dpr serve`).
//! * [`report`] — JSON persistence of experiment records.

#![warn(missing_docs)]

pub mod batch;
pub mod churn;
pub mod event;
pub mod flags;
pub mod flight;
pub mod hops;
pub mod report;
pub mod scenario;
pub mod serving;
pub mod spec;
pub mod workload;

pub use scenario::{insert_experiment, search_experiment};
pub use spec::{ScenarioSpec, SpecError};
pub use workload::Workload;
