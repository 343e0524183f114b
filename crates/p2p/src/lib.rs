//! # dpr-p2p — simulated DHT overlay for distributed PageRank
//!
//! The paper computes pageranks over documents stored in a DHT-based
//! peer-to-peer system (CAN / Pastry / Chord class). This crate builds
//! that substrate from scratch:
//!
//! * [`guid`] — 128-bit global unique identifiers and the consistent
//!   hash that maps documents and peers into the same id space.
//! * [`ring`] — a Chord-style ring: peers own arcs of the GUID circle,
//!   documents are placed on their successor peer, and finger tables
//!   give O(log n) lookup.
//! * [`routing`] — iterative lookup over the ring, counting hops so the
//!   caching ablation (route every message vs. cache the address after
//!   the first lookup, paper Sec. 3.2) can be measured.
//! * [`peer`] — peer lifecycle: join, graceful leave, crash, rejoin;
//!   document re-placement on membership change.
//! * [`transport`] — message delivery with per-peer inboxes, the
//!   store-and-resend buffer for messages addressed to offline peers
//!   (paper Sec. 3.1), and traffic accounting.
//! * [`frame`] — the cluster's wire payload, kept inline when short.
//! * [`cache`] — the per-peer address cache that short-circuits routing
//!   after the first successful lookup.
//!
//! Everything is deterministic given a seed, single-process, and
//! instrumented — the goal is faithful *protocol* behaviour plus
//! precise message counts, matching the paper's simulation methodology
//! (Sec. 4.2: network latency is intentionally not modeled).

#![warn(missing_docs)]

pub mod cache;
pub mod frame;
pub mod guid;
pub mod peer;
pub mod ring;
pub mod routing;
pub mod transport;

pub use guid::Guid;
pub use peer::PeerId;
pub use ring::Ring;
pub use transport::Transport;
