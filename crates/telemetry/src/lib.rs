//! # dpr-telemetry — structured tracing for the PageRank workspace
//!
//! The paper's claims are trajectories, not endpoints: chaotic
//! iteration converging pass by pass under churn (Sec. 2.3/3.1), the
//! ~10x wire-traffic cut of aggregation. Watching those trajectories
//! needs a telemetry substrate that (a) never perturbs the computation
//! it observes — the workspace's determinism contracts promise
//! bit-identical ranks with tracing on or off, in every wire mode — and
//! (b) costs nothing when it is off, so hot loops stay hot.
//!
//! The design, bottom to top:
//!
//! * [`Event`] — the typed event taxonomy (`PassCompleted`,
//!   `ConvergenceCheck`, `FrameSent`, `PeerChurn`, ...), one JSON
//!   object per event on the JSONL wire, self-describing via a
//!   `"type"` discriminator.
//! * [`Metric`] — the closed registry of scalar series: monotone
//!   counters and log2-bucketed histograms, named in Prometheus style.
//! * [`Recorder`] — the object-safe sink trait every instrumented
//!   call site talks to. The default [`NoopRecorder`] has empty
//!   inlineable bodies and `enabled() == false`, so instrumented code
//!   generic over `R: Recorder` monomorphizes to nothing when
//!   telemetry is off.
//! * [`TraceRecorder`] — the real sink: lock-free striped counters
//!   ([`counter::Counter`]) and atomic histograms
//!   ([`hist::Histogram`]) plus an in-memory event aggregate and an
//!   optional JSONL file.
//! * Sinks: [`prom::render`] writes a Prometheus text-format
//!   snapshot; [`summary::TraceSummary`] consumes a JSONL trace (or
//!   the in-memory aggregate) and derives the convergence curve,
//!   traffic-by-pass table and hottest peers for the `dpr trace`
//!   subcommand.
//! * Flight recorder: [`audit::AuditReport`] runs the online invariant
//!   monitors (mass-conservation ledger, message-balance auditor,
//!   quiescence certifier) over an event stream for `dpr doctor`;
//!   [`replay::Capture`] is the deterministic capture-and-replay
//!   format that turns any traced run into a bit-exact repro.
//!
//! The crate depends only on the vendored `serde`/`serde_json` shims
//! and sits below every runtime crate (`dpr-p2p`, `dpr-core`,
//! `dpr-node`, `dpr-sim`), so all of them can record into it without
//! dependency cycles. Events therefore carry raw `u32`/`u64` ids, not
//! `PeerId`/`DocId`.
//!
//! ## Overhead model
//!
//! Instrumentation appears at three temperatures:
//!
//! 1. **Per-pass / per-round** (residual scans, event construction):
//!    guarded by `rec.enabled()`; with [`NoopRecorder`] the guard is a
//!    constant `false` and the whole block folds away.
//! 2. **Per-step, per-message and per-span detail** (transport bytes,
//!    route hops, `frame_sent`, spans): guarded by `rec.detailed()`
//!    (installed only for a detailed recorder where it is stored), so
//!    a recorder that keeps only ledgers pays one predictable branch;
//!    one relaxed atomic add per event when on.
//! 3. **Never in the innermost arithmetic**: the engine's
//!    apply/emit inner loops are not touched — passes are observed at
//!    their boundaries, which is where the paper's own metrics live.

#![warn(missing_docs)]

pub mod audit;
pub mod counter;
pub mod event;
pub mod fmt;
pub mod hist;
pub mod metric;
pub mod profile;
pub mod prom;
pub mod quantile;
pub mod recorder;
pub mod replay;
pub mod slo;
pub mod span;
pub mod summary;
pub mod table;

pub use audit::{AuditReport, MassBreakdown};
pub use event::Event;
pub use metric::Metric;
pub use profile::Profile;
pub use quantile::QuantileSketch;
pub use recorder::{NoopRecorder, Recorder, TraceRecorder, NOOP};
pub use replay::Capture;
pub use slo::{SloReport, SloSpec};
pub use span::{SpanKind, SpanRec, SpanTracer};
pub use summary::TraceSummary;
