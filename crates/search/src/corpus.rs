//! Synthetic document corpus with Zipf-distributed terms.
//!
//! Paper Sec. 4.9 builds its corpus by crawling news pages: "a
//! document corpus consisting of around 11,000 documents … After
//! removing common stopwords and thresholding based on most frequently
//! appearing terms, the document corpus was reduced to 1880
//! dimensional data. Two-word and three-word search queries were
//! generated by randomly combining the top 100 most frequent terms."
//!
//! That crawl is not available, so this module synthesizes an
//! equivalent corpus: every document draws its tokens from a Zipf law
//! over a 1880-term vocabulary, giving the same heavy-skewed document
//! frequencies that make the top-100-terms queries produce large hit
//! lists — the property Table 6 actually depends on.

use crate::{idset::IdSet, TermId};
use dpr_graph::distr::Zipf;
use dpr_graph::DocId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of the synthetic corpus.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CorpusConfig {
    /// Number of documents (paper: ~11,000).
    pub num_docs: usize,
    /// Vocabulary size after stopword removal/thresholding
    /// (paper: 1880).
    pub vocab_size: u32,
    /// Zipf skew of term frequencies (classic text is ≈ 1).
    pub zipf_skew: f64,
    /// Tokens drawn per document before deduplication; controls how
    /// many distinct terms a document contains.
    pub tokens_per_doc: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            num_docs: 11_000,
            vocab_size: 1880,
            zipf_skew: 1.0,
            tokens_per_doc: 200,
            seed: 2003,
        }
    }
}

/// The generated corpus: per-document sorted term sets plus global
/// term statistics.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Sorted distinct terms of each document.
    docs: Vec<Vec<TermId>>,
    /// Document frequency of each term.
    doc_freq: Vec<u32>,
}

impl Corpus {
    /// Synthesizes a corpus.
    pub fn generate(cfg: &CorpusConfig) -> Self {
        assert!(cfg.vocab_size > 0 && cfg.num_docs > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let zipf = Zipf::new(cfg.vocab_size, cfg.zipf_skew);
        let mut docs = Vec::with_capacity(cfg.num_docs);
        let mut doc_freq = vec![0u32; cfg.vocab_size as usize];
        let mut seen = IdSet::new(cfg.vocab_size as usize);
        let mut terms = Vec::with_capacity(cfg.tokens_per_doc);
        for _ in 0..cfg.num_docs {
            for _ in 0..cfg.tokens_per_doc {
                // Zipf ranks are 1-based; TermId 0 is the most
                // frequent term.
                seen.insert(zipf.sample(&mut rng) - 1);
            }
            terms.clear();
            terms.extend(seen.iter());
            seen.clear();
            for &t in terms.iter() {
                doc_freq[t as usize] += 1;
            }
            docs.push(terms.clone());
        }
        Corpus { docs, doc_freq }
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> u32 {
        self.doc_freq.len() as u32
    }

    /// Sorted distinct terms of document `d`.
    pub fn terms_of(&self, d: DocId) -> &[TermId] {
        &self.docs[d.index()]
    }

    /// Document frequency of `term`.
    pub fn doc_freq(&self, term: TermId) -> u32 {
        self.doc_freq[term as usize]
    }

    /// The `k` most frequent terms, by document frequency, most
    /// frequent first.
    pub fn top_terms(&self, k: usize) -> Vec<TermId> {
        let mut order: Vec<TermId> = (0..self.vocab_size()).collect();
        order.sort_by_key(|&t| std::cmp::Reverse(self.doc_freq[t as usize]));
        order.truncate(k);
        order
    }
}

/// How many of the most frequent terms queries draw from (paper: "the
/// top 100 most frequent terms").
pub const QUERY_TERM_POOL: usize = 100;

/// Generates `count` random queries of `len` distinct terms each,
/// drawing terms from the corpus's [`QUERY_TERM_POOL`] most frequent
/// terms, exactly as in the paper's evaluation. Queries are drawn with
/// replacement, so a plan can repeat a query.
///
/// # Panics
///
/// Panics if `len` is 0 or exceeds the pool (`min(100, vocabulary)`).
pub fn generate_queries(corpus: &Corpus, len: usize, count: usize, seed: u64) -> Vec<Vec<TermId>> {
    assert!(len >= 1, "queries need at least one term");
    let pool = corpus.top_terms(QUERY_TERM_POOL);
    assert!(pool.len() >= len, "vocabulary smaller than query length");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(count);
    while queries.len() < count {
        let mut q: Vec<TermId> = Vec::with_capacity(len);
        while q.len() < len {
            let t = pool[rng.gen_range(0..pool.len())];
            if !q.contains(&t) {
                q.push(t);
            }
        }
        queries.push(q);
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        Corpus::generate(&CorpusConfig {
            num_docs: 500,
            vocab_size: 200,
            tokens_per_doc: 50,
            ..Default::default()
        })
    }

    #[test]
    fn corpus_shape_matches_config() {
        let c = small();
        assert_eq!(c.num_docs(), 500);
        assert_eq!(c.vocab_size(), 200);
        for d in 0..500 {
            let terms = c.terms_of(DocId(d as u32));
            assert!(!terms.is_empty());
            assert!(terms.len() <= 50);
            assert!(terms.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
            assert!(terms.iter().all(|&t| t < 200));
        }
    }

    #[test]
    fn doc_freq_matches_postings() {
        let c = small();
        for t in [0u32, 1, 10, 100, 199] {
            let holders = c.docs.iter().filter(|terms| terms.contains(&t)).count();
            assert_eq!(holders as u32, c.doc_freq(t));
        }
    }

    #[test]
    fn zipf_makes_low_term_ids_frequent() {
        let c = small();
        // Term 0 (Zipf rank 1) must appear in far more documents than
        // a mid-vocabulary term.
        assert!(
            c.doc_freq(0) > c.doc_freq(100) * 2,
            "{} vs {}",
            c.doc_freq(0),
            c.doc_freq(100)
        );
        // And the top terms should appear in a sizable share of docs.
        assert!(c.doc_freq(0) as usize > c.num_docs() / 4);
    }

    #[test]
    fn top_terms_sorted_by_frequency() {
        let c = small();
        let top = c.top_terms(10);
        for w in top.windows(2) {
            assert!(c.doc_freq(w[0]) >= c.doc_freq(w[1]));
        }
    }

    #[test]
    fn deterministic_generation() {
        let cfg = CorpusConfig {
            num_docs: 100,
            vocab_size: 50,
            ..Default::default()
        };
        let a = Corpus::generate(&cfg);
        let b = Corpus::generate(&cfg);
        assert_eq!(a.docs, b.docs);
    }

    #[test]
    fn queries_have_distinct_terms_from_top_pool() {
        let c = small();
        let pool = c.top_terms(100);
        let qs = generate_queries(&c, 3, 20, 7);
        assert_eq!(qs.len(), 20);
        for q in &qs {
            assert_eq!(q.len(), 3);
            let mut d = q.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3, "terms must be distinct");
            assert!(q.iter().all(|t| pool.contains(t)));
        }
    }
}
