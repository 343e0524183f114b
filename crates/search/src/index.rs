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
//! `Guid::for_term(term)`. A rank depends only on its document, so a
//! list is stored as document ids, sorted by pagerank descending (the
//! incremental search cuts the top x % without re-sorting), and each
//! rank is stored once; a [`Postings`] view pairs the two on read.
//! Each term's documents are also kept as a bitset, built the first
//! time a query asks for it: the index does not change once built, so
//! the set never goes stale.

use crate::{corpus::Corpus, idset::IdSet, TermId};
use dpr_graph::DocId;
use dpr_p2p::{guid::Guid, peer::PeerId, ring::Ring};
use std::sync::OnceLock;

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
    /// Each term's documents, sorted by rank descending, then doc.
    postings: Vec<Vec<DocId>>,
    /// Each document's pagerank (the universe of [`Self::doc_set`]).
    ranks: Vec<f64>,
    /// The peer owning each term's index entry.
    term_owner: Vec<PeerId>,
    /// Each term's documents as a bitset, built on first use.
    sets: Vec<OnceLock<IdSet>>,
}

/// A term's posting list: its documents, best pagerank first, each
/// paired with its rank from the index's rank table.
#[derive(Debug, Clone, Copy)]
pub struct Postings<'a> {
    index: &'a DistributedIndex,
    term: TermId,
}

impl<'a> Postings<'a> {
    /// The postings, best pagerank first.
    pub fn iter(self) -> impl Iterator<Item = Posting> + 'a {
        let Postings { index, term } = self;
        index.docs(term).iter().map(|&doc| index.posting(doc))
    }
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
        let df = |t: usize| corpus.doc_freq(t as u32) as usize;
        let mut postings: Vec<Vec<DocId>> = (0..vocab).map(|t| Vec::with_capacity(df(t))).collect();
        for d in order {
            for &t in corpus.terms_of(DocId(d)) {
                postings[t as usize].push(DocId(d));
            }
        }
        debug_assert!(postings.iter().enumerate().all(|(t, l)| l.len() == df(t)));
        let term_owner = (0..vocab as u32)
            .map(|t| ring.successor(Guid::for_term(&term_name(t))))
            .collect();
        DistributedIndex {
            postings,
            ranks: ranks.to_vec(),
            term_owner,
            sets: std::iter::repeat_with(OnceLock::new).take(vocab).collect(),
        }
    }

    /// The peer holding the index entry of `term`.
    pub fn owner_of_term(&self, term: TermId) -> PeerId {
        self.term_owner[term as usize]
    }

    /// Posting list of `term`, sorted by pagerank descending.
    pub fn postings(&self, term: TermId) -> Postings<'_> {
        Postings { index: self, term }
    }

    /// The documents containing `term`, best pagerank first: the ids
    /// of [`Self::postings`].
    pub fn docs(&self, term: TermId) -> &[DocId] {
        &self.postings[term as usize]
    }

    /// `doc` with its pagerank as recorded in the index.
    pub(crate) fn posting(&self, doc: DocId) -> Posting {
        Posting {
            doc,
            rank: self.ranks[doc.index()],
        }
    }

    /// Number of documents containing `term`.
    pub fn num_hits(&self, term: TermId) -> usize {
        self.docs(term).len()
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> u32 {
        self.term_owner.len() as u32
    }

    /// The documents containing `term`, as a bitset over the corpus,
    /// built on the first call and kept.
    pub fn doc_set(&self, term: TermId) -> &IdSet {
        self.sets[term as usize].get_or_init(|| {
            let mut set = IdSet::new(self.ranks.len());
            for d in self.docs(term) {
                set.insert(d.0);
            }
            set
        })
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
            for p in idx.postings(t).iter() {
                assert!(corpus.terms_of(p.doc).contains(&t));
                assert_eq!(p.rank, ranks[p.doc.index()]);
            }
        }
    }

    #[test]
    fn postings_sorted_by_rank_desc() {
        let (corpus, ranks, ring) = setup();
        let idx = DistributedIndex::build(&corpus, &ranks, &ring);
        for t in 0..100u32 {
            let list: Vec<Posting> = idx.postings(t).iter().collect();
            for w in list.windows(2) {
                assert!(
                    w[0].rank > w[1].rank || (w[0].rank == w[1].rank && w[0].doc.0 < w[1].doc.0)
                );
            }
        }
    }

    /// Terms no document holds, at either end of the vocabulary and
    /// inside it, have empty lists, and their neighbours' lists hold
    /// exactly their own documents.
    #[test]
    fn terms_in_no_document_have_empty_runs() {
        // Terms 0, 3 and 6 (the first, a middle and the last) are in
        // no document.
        let corpus = Corpus::from_term_sets(7, vec![vec![1, 2, 5], vec![1, 4, 5], vec![2, 4]]);
        let idx = DistributedIndex::build(&corpus, &[0.5, 2.0, 1.0], &Ring::with_peers(4));
        for t in [0, 3, 6] {
            assert_eq!(idx.postings(t).iter().count(), 0, "term {t}");
            assert_eq!(idx.num_hits(t), 0, "term {t}");
            assert_eq!(idx.doc_set(t).iter().count(), 0, "term {t}");
        }
        let ids = |t| idx.docs(t).iter().map(|d| d.0).collect::<Vec<_>>();
        for (t, mut expect) in [(1, [1, 0]), (2, [2, 0]), (4, [1, 2]), (5, [1, 0])] {
            assert_eq!(ids(t), expect, "term {t}");
            expect.sort_unstable();
            assert_eq!(
                idx.doc_set(t).iter().collect::<Vec<_>>(),
                expect,
                "term {t}"
            );
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
}
