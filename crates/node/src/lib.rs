//! # dpr-node — message-level peers running the distributed protocol
//!
//! The simulation crate (`dpr-sim`) drives the pagerank computation
//! through the array-based [`dpr_core::ChaoticEngine`], which is fast
//! enough for the paper's 5-million-document graphs but abstracts the
//! actual peer protocol away. This crate is the other half of the
//! story — the paper's future work, "implement the distributed
//! computation of the pagerank on a P2P system": every peer is a
//! self-contained state machine ([`node::PeerNode`]) holding only its
//! own documents, a frame-tag index, and an outbox, exchanging
//! **encoded multi-update frames** (the per-destination aggregate of
//! the paper's 24-byte GUID + value messages, Sec. 4.6.1) through the
//! churn-tolerant transport of `dpr-p2p`.
//!
//! [`cluster::Cluster`] wires a set of peer nodes to the transport and
//! runs the pass loop; its result is validated against the array
//! engine in this crate's tests — the two implementations agree to
//! floating-point reordering tolerance on every workload tried,
//! including runs with churn.
//!
//! [`termination`] supplies what a real deployment needs to *know*
//! the computation has converged without any global view: Safra's
//! token-ring termination-detection protocol.

#![warn(missing_docs)]

pub mod cluster;
pub mod node;
pub mod termination;

pub use cluster::{Cluster, SendOutcome};
pub use node::{DeliverStatus, PeerNode};
