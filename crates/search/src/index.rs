//! The distributed inverted index with pageranks (paper Sec. 2.4.2).
//!
//! "Keyword search on DHT based systems is typically implemented by
//! using a distributed index, with the index entry for each keyword
//! pointing to all documents containing that particular keyword. We
//! propose adding an extra entry in the index to store the pageranks
//! for documents. When the pagerank has been computed for a node, an
//! index update message is sent, and the pagerank is noted in the
//! index."
//!
//! Each term's posting list lives on the DHT successor of
//! `Guid::for_term(term)`; postings carry `(DocId, pagerank)` and are
//! kept sorted by pagerank descending so the incremental search can
//! cut the top x % without re-sorting.

use crate::{corpus::Corpus, idset::IdSet, TermId};
use dpr_graph::DocId;
use dpr_p2p::{guid::Guid, peer::PeerId, ring::Ring};

/// One posting: a document and its pagerank.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Posting {
    /// The document.
    pub doc: DocId,
    /// The document's pagerank as recorded in the index.
    pub rank: f64,
}

/// The distributed inverted index.
#[derive(Debug, Clone)]
pub struct DistributedIndex {
    /// Posting lists per term, sorted by rank descending.
    postings: Vec<Vec<Posting>>,
    /// The peer owning each term's index entry.
    term_owner: Vec<PeerId>,
    /// Index-update messages sent while building (one per document per
    /// term entry, as in the paper's "an index update message is sent").
    update_messages: u64,
    /// Documents in the corpus (the universe of [`Self::doc_set`]).
    num_docs: usize,
}

impl DistributedIndex {
    /// Builds the index for `corpus`, placing each term's entry on its
    /// DHT owner from `ring`, with all pageranks initialized from
    /// `ranks` (one value per document).
    ///
    /// # Panics
    ///
    /// Panics if `ranks.len() != corpus.num_docs()`.
    pub fn build(corpus: &Corpus, ranks: &[f64], ring: &Ring) -> Self {
        assert_eq!(ranks.len(), corpus.num_docs(), "one rank per document");
        let vocab = corpus.vocab_size() as usize;
        // One sort over the documents; appending each one's postings in
        // that order leaves every list in its final order.
        let mut order: Vec<u32> = (0..ranks.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            ranks[b as usize]
                .partial_cmp(&ranks[a as usize])
                .expect("NaN rank")
                .then(a.cmp(&b))
        });
        let mut postings: Vec<Vec<Posting>> = (0..vocab as u32)
            .map(|t| Vec::with_capacity(corpus.doc_freq(t) as usize))
            .collect();
        for d in order {
            let (doc, rank) = (DocId(d), ranks[d as usize]);
            for &t in corpus.terms_of(doc) {
                postings[t as usize].push(Posting { doc, rank });
            }
        }
        let update_messages = postings.iter().map(|l| l.len() as u64).sum();
        let term_owner = (0..vocab as u32)
            .map(|t| ring.successor(Guid::for_term(&term_name(t))))
            .collect();
        DistributedIndex {
            postings,
            term_owner,
            update_messages,
            num_docs: ranks.len(),
        }
    }

    /// The peer holding the index entry of `term`.
    pub fn owner_of_term(&self, term: TermId) -> PeerId {
        self.term_owner[term as usize]
    }

    /// Posting list of `term`, sorted by pagerank descending.
    pub fn postings(&self, term: TermId) -> &[Posting] {
        &self.postings[term as usize]
    }

    /// Number of documents containing `term`.
    pub fn num_hits(&self, term: TermId) -> usize {
        self.postings[term as usize].len()
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> u32 {
        self.postings.len() as u32
    }

    /// Index-update messages sent while building.
    pub fn update_messages(&self) -> u64 {
        self.update_messages
    }

    /// The documents containing `term`, as a bitset over the corpus.
    pub fn doc_set(&self, term: TermId) -> IdSet {
        let mut set = IdSet::new(self.num_docs);
        for p in self.postings(term) {
            set.insert(p.doc.0);
        }
        set
    }
}

/// Deterministic printable name for a synthetic term, used as the
/// DHT key ("term0017" etc.).
pub fn term_name(t: TermId) -> String {
    format!("term{t:04}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    fn setup() -> (Corpus, Vec<f64>, Ring) {
        let corpus = Corpus::generate(&CorpusConfig {
            num_docs: 400,
            vocab_size: 100,
            tokens_per_doc: 40,
            ..Default::default()
        });
        // Distinct, deterministic ranks.
        let ranks: Vec<f64> = (0..400).map(|i| 0.15 + (i as f64 * 7.0) % 3.0).collect();
        let ring = Ring::with_peers(50);
        (corpus, ranks, ring)
    }

    #[test]
    fn postings_cover_exactly_the_corpus() {
        let (corpus, ranks, ring) = setup();
        let idx = DistributedIndex::build(&corpus, &ranks, &ring);
        for t in 0..100u32 {
            assert_eq!(idx.num_hits(t) as u32, corpus.doc_freq(t));
            for p in idx.postings(t) {
                assert!(corpus.contains(p.doc, t));
                assert_eq!(p.rank, ranks[p.doc.index()]);
            }
        }
    }

    #[test]
    fn postings_sorted_by_rank_desc() {
        let (corpus, ranks, ring) = setup();
        let idx = DistributedIndex::build(&corpus, &ranks, &ring);
        for t in 0..100u32 {
            let list = idx.postings(t);
            for w in list.windows(2) {
                assert!(
                    w[0].rank > w[1].rank || (w[0].rank == w[1].rank && w[0].doc.0 < w[1].doc.0)
                );
            }
        }
    }

    #[test]
    fn term_owners_follow_the_ring() {
        let (corpus, ranks, ring) = setup();
        let idx = DistributedIndex::build(&corpus, &ranks, &ring);
        for t in [0u32, 13, 99] {
            assert_eq!(
                idx.owner_of_term(t),
                ring.successor(Guid::for_term(&term_name(t)))
            );
        }
        // Terms spread over many peers (not all on one).
        let mut owners: Vec<PeerId> = (0..100u32).map(|t| idx.owner_of_term(t)).collect();
        owners.sort_unstable();
        owners.dedup();
        assert!(owners.len() > 10, "only {} distinct owners", owners.len());
    }

    #[test]
    #[should_panic(expected = "NaN rank")]
    fn nan_rank_rejected() {
        let (corpus, mut ranks, ring) = setup();
        ranks[7] = f64::NAN;
        DistributedIndex::build(&corpus, &ranks, &ring);
    }

    #[test]
    fn build_counts_one_update_message_per_posting() {
        let (corpus, ranks, ring) = setup();
        let idx = DistributedIndex::build(&corpus, &ranks, &ring);
        let total_postings: u64 = (0..100u32).map(|t| idx.num_hits(t) as u64).sum();
        assert_eq!(idx.update_messages(), total_postings);
    }
}
