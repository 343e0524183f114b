//! # dpr-search — pagerank-guided keyword search for P2P systems
//!
//! The application half of the HPDC'03 paper: once every document has
//! a pagerank, multi-word boolean keyword queries on a DHT can forward
//! only the *top x %* of hits (sorted by pagerank) between the peers
//! holding each term's index entry, instead of shipping every matching
//! document id. The paper measures an order-of-magnitude traffic
//! reduction (Table 6).
//!
//! * [`corpus`] — a synthetic document corpus with a Zipf term
//!   distribution standing in for the authors' unavailable 2003 news
//!   crawl (11k documents, 1880-term vocabulary; see DESIGN.md
//!   substitution #1).
//! * [`index`] — the distributed inverted index: each term's posting
//!   list lives on the DHT successor of the term's GUID, as document
//!   ids read against one table of pageranks (paper Sec. 2.4.2).
//! * [`query`] — boolean multi-word query execution: the baseline
//!   (ship every id) and the incremental top-x% algorithm of
//!   Sec. 2.4.3, both with exact traffic accounting.
//! * [`bloom`] — a from-scratch Bloom filter and the Bloom-assisted
//!   intersection the paper cites (Reynolds–Vahdat) as a composable
//!   further optimisation.
//! * [`idset`] — the bitset over ids that the corpus dedups through and
//!   the query path intersects through.

#![warn(missing_docs)]

pub mod bloom;
pub mod corpus;
pub mod idset;
pub mod index;
pub mod query;

pub use bloom::BloomFilter;
pub use corpus::{Corpus, CorpusConfig};
pub use index::DistributedIndex;
pub use query::{IncrementalConfig, Query, SearchOutcome};

/// A term id: the rank of the term in the vocabulary (0 = most
/// frequent by construction of the synthetic corpus).
pub type TermId = u32;
