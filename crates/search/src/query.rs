//! Boolean multi-word query execution with traffic accounting.
//!
//! Three strategies are implemented over the distributed index:
//!
//! * **Baseline** (paper's comparison system, Sec. 4.9): there are no
//!   pageranks, so the peer owning the first term's index entry ships
//!   its *entire* hit list to the peer owning the second term, which
//!   intersects and ships the whole result onward, and the final
//!   result set is shipped back to the querying user. Traffic is the
//!   total number of document ids moved between peers (and to the
//!   user), exactly the paper's metric.
//!
//! * **Incremental** (paper Sec. 2.4.3): each hop sorts its current
//!   hit set by pagerank and forwards only the top x %. "When the top
//!   x% of the documents falls below a threshold (we used 20), then
//!   all the results are forwarded along" — reproduced verbatim,
//!   including the artifact it causes in Table 6 (top-20 % can return
//!   *fewer* 3-word hits than top-10 %).
//!
//! * **Bloom** (Reynolds–Vahdat, cited in Sec. 2.4.2): each hop sends
//!   a filter of the running result and gets back the next term's
//!   documents that pass it ([`BloomExecutor`]).
//!
//! Every reader needs only sizes and the best hit, so the executors
//! work on the index's memoized term bitsets: a running AND is counted
//! a word at a time, and the result is a view of the first term's
//! rank-ordered list ([`Hits`]), listed only on demand.
//!
//! The paper's evaluation "assumed that each search term in the query
//! was always present in a different peer", making every hop a remote
//! transfer; [`TrafficModel`] lets you keep that assumption or charge
//! only true cross-peer hops.

use crate::bloom::{BloomFilter, BloomIntersectTraffic};
use crate::idset::{bits, members};
use crate::{index::DistributedIndex, index::Posting, TermId};
use dpr_graph::DocId;
use serde::Serialize;

/// A boolean AND query over distinct terms.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Query {
    /// The query terms, in routing order.
    pub terms: Vec<TermId>,
}

impl Query {
    /// Creates a query.
    ///
    /// # Panics
    ///
    /// Panics if empty or containing duplicate terms.
    pub fn new(terms: Vec<TermId>) -> Self {
        assert!(!terms.is_empty(), "empty query");
        assert!(
            (1..terms.len()).all(|i| !terms[..i].contains(&terms[i])),
            "duplicate query terms"
        );
        Query { terms }
    }
}

/// How inter-hop transfers are charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TrafficModel {
    /// Every hop crosses peers (the paper's assumption).
    AllHopsRemote,
    /// Hops between entries co-located on the same peer are free.
    ChargeCrossPeerOnly,
}

/// Tuning of the incremental algorithm.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct IncrementalConfig {
    /// Fraction of hits forwarded at each hop (paper: 0.10 and 0.20).
    pub forward_fraction: f64,
    /// If the top x % would be fewer than this many documents, *all*
    /// hits are forwarded instead (paper: 20).
    pub min_forward: usize,
    /// Transfer charging model.
    pub traffic: TrafficModel,
}

impl IncrementalConfig {
    /// The paper's top-10 % configuration.
    pub fn top10() -> Self {
        IncrementalConfig {
            forward_fraction: 0.10,
            min_forward: 20,
            traffic: TrafficModel::AllHopsRemote,
        }
    }

    /// The paper's top-20 % configuration.
    pub fn top20() -> Self {
        IncrementalConfig {
            forward_fraction: 0.20,
            min_forward: 20,
            traffic: TrafficModel::AllHopsRemote,
        }
    }
}

/// The documents a query returns, best pagerank first: the members of
/// a rank-ordered prefix of the first term's list that every later
/// term holds. The executor counts them; the list is read on demand.
#[derive(Debug, Clone, Copy)]
pub struct Hits<'a> {
    index: &'a DistributedIndex,
    /// The first term's documents the last hop forwarded.
    forwarded: &'a [DocId],
    /// The terms after the first.
    rest: &'a [TermId],
    len: usize,
}

impl<'a> Hits<'a> {
    /// The hits, best pagerank first.
    pub fn iter(self) -> impl Iterator<Item = Posting> + 'a {
        let Hits {
            index,
            forwarded,
            rest,
            ..
        } = self;
        forwarded
            .iter()
            .copied()
            .filter(move |&d| holds_all(index, rest, d))
            .map(move |d| index.posting(d))
    }

    /// The best-ranked hit.
    pub fn first(self) -> Option<Posting> {
        self.iter().next()
    }
}

/// Result of executing one query.
#[derive(Debug, Clone)]
pub struct SearchOutcome<'a> {
    /// Document ids transferred between peers plus the final transfer
    /// to the user — the paper's traffic metric.
    pub traffic_ids: u64,
    /// Ids moved at each hop (last entry = result returned to user).
    pub per_hop_ids: Vec<u64>,
    /// The documents returned to the user, best pagerank first.
    pub hits: Hits<'a>,
}

impl SearchOutcome<'_> {
    /// Number of hits returned to the user.
    pub fn hits_returned(&self) -> usize {
        self.hits.len
    }
}

/// Whether `doc` holds every one of `terms`.
fn holds_all(index: &DistributedIndex, terms: &[TermId], doc: DocId) -> bool {
    terms.iter().all(|&t| index.doc_set(t).contains(doc.0))
}

/// Ids a hop from `from`'s entry to `to`'s charges for moving `ids`.
fn charge(
    model: TrafficModel,
    index: &DistributedIndex,
    from: TermId,
    to: TermId,
    ids: u64,
) -> u64 {
    let co_located = index.owner_of_term(from) == index.owner_of_term(to);
    if model == TrafficModel::ChargeCrossPeerOnly && co_located {
        0
    } else {
        ids
    }
}

/// Executes `query` with the baseline full-transfer strategy.
pub fn execute_baseline<'a>(
    index: &'a DistributedIndex,
    query: &'a Query,
    model: TrafficModel,
) -> SearchOutcome<'a> {
    let terms = &query.terms;
    let sets: Vec<&[u64]> = terms.iter().map(|&t| index.doc_set(t).words()).collect();
    // per_hop[k]: the documents holding the first k + 1 terms, counted
    // a word at a time; the ids hop k + 1 ships, or the result.
    let mut per_hop = vec![0u64; terms.len()];
    for i in 0..sets[0].len() {
        let mut running = !0u64;
        for (k, set) in sets.iter().enumerate() {
            running &= set[i];
            per_hop[k] += u64::from(running.count_ones());
        }
    }
    for k in 1..terms.len() {
        per_hop[k - 1] = charge(model, index, terms[k - 1], terms[k], per_hop[k - 1]);
    }
    let hits = Hits {
        index,
        forwarded: index.docs(terms[0]),
        rest: &terms[1..],
        len: per_hop[terms.len() - 1] as usize,
    };
    SearchOutcome {
        traffic_ids: per_hop.iter().sum(),
        per_hop_ids: per_hop,
        hits,
    }
}

/// The shortest prefix of `docs` holding `n` documents that hold every
/// one of `terms` (there must be that many).
fn prefix_holding<'a>(
    index: &DistributedIndex,
    docs: &'a [DocId],
    terms: &[TermId],
    n: usize,
) -> &'a [DocId] {
    let (mut end, mut held) = (0, 0);
    while held < n {
        held += usize::from(holds_all(index, terms, docs[end]));
        end += 1;
    }
    &docs[..end]
}

/// Executes `query` with the incremental top-x% strategy.
pub fn execute_incremental<'a>(
    index: &'a DistributedIndex,
    query: &'a Query,
    cfg: IncrementalConfig,
) -> SearchOutcome<'a> {
    assert!(
        cfg.forward_fraction > 0.0 && cfg.forward_fraction <= 1.0,
        "forward fraction in (0, 1]"
    );
    let terms = &query.terms;
    let rest = &terms[1..];
    // The running result: the documents of `forwarded`, a prefix of the
    // first term's rank-ordered list, that hold every term so far.
    let mut forwarded = index.docs(terms[0]);
    let mut len = forwarded.len();
    let mut per_hop = Vec::with_capacity(terms.len());
    for (i, &t) in rest.iter().enumerate() {
        // The result is in pagerank order; cut it to the top x %,
        // unless that would be under the floor, in which case
        // everything goes.
        let top = (cfg.forward_fraction * len as f64).ceil() as usize;
        if top >= cfg.min_forward {
            forwarded = prefix_holding(index, forwarded, &rest[..i], top);
            len = top;
        }
        per_hop.push(charge(cfg.traffic, index, terms[i], t, len as u64));
        len = forwarded
            .iter()
            .filter(|&&d| holds_all(index, &rest[..=i], d))
            .count();
    }
    per_hop.push(len as u64);
    SearchOutcome {
        traffic_ids: per_hop.iter().sum(),
        per_hop_ids: per_hop,
        hits: Hits {
            index,
            forwarded,
            rest,
            len,
        },
    }
}

/// Result of one Bloom-assisted query.
#[derive(Debug, Clone)]
pub struct BloomOutcome<'a> {
    /// Each hop's two rounds: the filter sent, the candidates returned.
    pub per_hop: Vec<BloomIntersectTraffic>,
    /// The documents returned to the user (the exact intersection),
    /// best pagerank first.
    pub hits: Hits<'a>,
}

impl BloomOutcome<'_> {
    /// Number of hits returned to the user.
    pub fn hits_returned(&self) -> usize {
        self.hits.len
    }
}

/// The Bloom-assisted strategy over one index: each hop sends a filter
/// of the running result to the next term's peer, which returns the
/// documents passing it, and the sender drops the false positives.
/// What a first hop learns is kept across queries: the first term's
/// filter, built on first use, and which documents outside the term
/// that filter admits, each probed at most once. The index does not
/// change, so none of it goes stale.
pub struct BloomExecutor<'a> {
    index: &'a DistributedIndex,
    fp_rate: f64,
    first_hops: Vec<Option<Box<FirstHop>>>,
}

/// A first term's filter and what it is known to admit outside the term.
struct FirstHop {
    filter: BloomFilter,
    /// Words of the documents outside the term probed so far.
    probed: Vec<u64>,
    /// Words of the probed documents the filter admits.
    passes: Vec<u64>,
}

impl<'a> BloomExecutor<'a> {
    /// An executor over `index` whose filters target `fp_rate`.
    pub fn new(index: &'a DistributedIndex, fp_rate: f64) -> Self {
        BloomExecutor {
            index,
            fp_rate,
            first_hops: std::iter::repeat_with(|| None)
                .take(index.vocab_size() as usize)
                .collect(),
        }
    }

    /// Executes `query`. Only a query of three or more terms lists a
    /// result: the first hop's, to build the second hop's filter over.
    pub fn execute<'q>(&mut self, query: &'q Query) -> BloomOutcome<'q>
    where
        'a: 'q,
    {
        let index = self.index;
        let (&t0, rest) = query.terms.split_first().expect("non-empty query");
        let mut per_hop = Vec::with_capacity(rest.len());
        let mut result: Vec<DocId> = Vec::new();
        for (i, &t) in rest.iter().enumerate() {
            let traffic = if i == 0 {
                self.first_hop(t0, t)
            } else {
                if i == 1 {
                    let (a, b) = (index.doc_set(t0).words(), index.doc_set(rest[0]).words());
                    result = members(a.iter().zip(b).map(|(a, b)| a & b))
                        .map(DocId)
                        .collect();
                }
                // A filter over an intersection serves one query only.
                let filter = BloomFilter::from_docs(&result, self.fp_rate);
                let (next, traffic) =
                    filter.intersect(&result[..], index.doc_set(t).iter().map(DocId));
                result = next;
                traffic
            };
            per_hop.push(traffic);
        }
        let len = per_hop
            .last()
            .map_or(index.num_hits(t0), |h| h.result_ids as usize);
        BloomOutcome {
            per_hop,
            hits: Hits {
                index,
                forwarded: index.docs(t0),
                rest,
                len,
            },
        }
    }

    /// The first hop from `t0`'s entry to `t1`'s, counted a word at a
    /// time: the result is `set(t0) ∧ set(t1)` and the false positives
    /// are `set(t1) ∧ passes(t0)`, after probing the documents of
    /// `set(t1) ∖ set(t0)` the filter has not been asked about.
    fn first_hop(&mut self, t0: TermId, t1: TermId) -> BloomIntersectTraffic {
        let (index, fp_rate) = (self.index, self.fp_rate);
        let own = index.doc_set(t0).words();
        let hop = self.first_hops[t0 as usize].get_or_insert_with(|| {
            Box::new(FirstHop {
                filter: BloomFilter::from_docs(index.docs(t0), fp_rate),
                probed: vec![0; own.len()],
                passes: vec![0; own.len()],
            })
        });
        let (mut results, mut false_positives) = (0u64, 0u64);
        for (i, (&a, &b)) in own.iter().zip(index.doc_set(t1).words()).enumerate() {
            results += u64::from((a & b).count_ones());
            let fresh = b & !a & !hop.probed[i];
            for bit in bits(fresh) {
                if hop.filter.contains(DocId(i as u32 * 64 + bit)) {
                    hop.passes[i] |= 1 << bit;
                }
            }
            hop.probed[i] |= fresh;
            false_positives += u64::from((b & hop.passes[i]).count_ones());
        }
        BloomIntersectTraffic {
            filter_bytes: hop.filter.wire_bytes(),
            candidate_ids: results + false_positives,
            result_ids: results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusConfig};
    use crate::index::DistributedIndex;
    use dpr_p2p::ring::Ring;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn setup() -> (Corpus, DistributedIndex) {
        let corpus = Corpus::generate(&CorpusConfig {
            num_docs: 2_000,
            vocab_size: 300,
            tokens_per_doc: 60,
            seed: 5,
            ..Default::default()
        });
        let ranks: Vec<f64> = (0..2_000)
            .map(|i| 0.15 + ((i as f64) * 13.37) % 5.0)
            .collect();
        let ring = Ring::with_peers(50);
        let idx = DistributedIndex::build(&corpus, &ranks, &ring);
        (corpus, idx)
    }

    #[test]
    fn baseline_returns_exact_intersection() {
        let (corpus, idx) = setup();
        let q = Query::new(vec![0, 1]);
        let out = execute_baseline(&idx, &q, TrafficModel::AllHopsRemote);
        // Verify against a brute-force scan.
        let expect: usize = (0..corpus.num_docs())
            .filter(|&d| {
                let doc = dpr_graph::DocId::from(d);
                corpus.terms_of(doc).contains(&0) && corpus.terms_of(doc).contains(&1)
            })
            .count();
        assert_eq!(out.hits_returned(), expect);
        // Traffic = |hits(term0)| shipped + |intersection| to user.
        assert_eq!(out.traffic_ids, idx.num_hits(0) as u64 + expect as u64);
    }

    #[test]
    fn incremental_cuts_traffic() {
        let (_, idx) = setup();
        let q = Query::new(vec![0, 1]);
        let base = execute_baseline(&idx, &q, TrafficModel::AllHopsRemote);
        let incr = execute_incremental(&idx, &q, IncrementalConfig::top10());
        assert!(
            incr.traffic_ids * 4 < base.traffic_ids,
            "incremental {} vs baseline {}",
            incr.traffic_ids,
            base.traffic_ids
        );
        // Hits are a subset of the baseline's, and the best-ranked hit
        // is identical (top documents always survive the cut).
        assert!(incr.hits_returned() <= base.hits_returned());
        assert_eq!(
            incr.hits.first().unwrap().doc,
            base.hits.first().unwrap().doc
        );
    }

    #[test]
    fn incremental_hits_are_rank_sorted_prefix_consistent() {
        let (_, idx) = setup();
        let q = Query::new(vec![2, 7, 11]);
        let out = execute_incremental(&idx, &q, IncrementalConfig::top20());
        let hits: Vec<Posting> = out.hits.iter().collect();
        assert_eq!(hits.len(), out.hits_returned());
        for w in hits.windows(2) {
            assert!(w[0].rank >= w[1].rank);
        }
    }

    #[test]
    fn floor_forwards_everything_for_small_hit_sets() {
        let (_, idx) = setup();
        // A rare term: top 10% of a small list is under the floor, so
        // the whole list must be forwarded (no truncation at all) and
        // the result equals the baseline's.
        let rare = (0..300u32)
            .filter(|&t| (5..100).contains(&idx.num_hits(t)))
            .max_by_key(|&t| t)
            .expect("need a rare term");
        let q = Query::new(vec![rare, 0]);
        let base = execute_baseline(&idx, &q, TrafficModel::AllHopsRemote);
        let incr = execute_incremental(&idx, &q, IncrementalConfig::top10());
        assert_eq!(incr.hits_returned(), base.hits_returned());
        assert_eq!(incr.traffic_ids, base.traffic_ids);
    }

    #[test]
    fn top20_can_return_fewer_hits_than_top10() {
        // The paper's Table 6 artifact: with ~100-200 hits, top-20%
        // (>= 20 docs) truncates, while top-10% (< 20 docs) falls
        // below the floor and forwards everything.
        let (_, idx) = setup();
        let mid = (0..300u32)
            .find(|&t| (120..190).contains(&idx.num_hits(t)))
            .expect("need a mid-frequency term");
        let q = Query::new(vec![mid, 0]);
        let t10 = execute_incremental(&idx, &q, IncrementalConfig::top10());
        let t20 = execute_incremental(&idx, &q, IncrementalConfig::top20());
        assert!(
            t10.hits_returned() >= t20.hits_returned(),
            "10%: {}, 20%: {}",
            t10.hits_returned(),
            t20.hits_returned()
        );
    }

    #[test]
    fn charge_cross_peer_only_never_exceeds_all_remote() {
        let (_, idx) = setup();
        let q = Query::new(vec![0, 1, 2]);
        let all = execute_baseline(&idx, &q, TrafficModel::AllHopsRemote);
        let xp = execute_baseline(&idx, &q, TrafficModel::ChargeCrossPeerOnly);
        assert!(xp.traffic_ids <= all.traffic_ids);
        assert_eq!(xp.hits_returned(), all.hits_returned());
    }

    #[test]
    fn single_term_query_ships_only_the_result() {
        let (_, idx) = setup();
        let q = Query::new(vec![5]);
        let out = execute_baseline(&idx, &q, TrafficModel::AllHopsRemote);
        assert_eq!(out.traffic_ids, idx.num_hits(5) as u64);
        assert_eq!(out.per_hop_ids.len(), 1);
    }

    proptest! {
        /// The word-parallel Bloom first hop equals the member-skipping
        /// pass over sorted lists, whichever filters the executor has
        /// already built and probed: result ids, candidate and result
        /// counts, filter size, and the best hit.
        #[test]
        fn bloom_first_hop_matches_the_member_skipping_pass(
            docs in vec(vec(0u32..10, 0..7), 1..300),
            ranks in vec(0u8..6, 300..301),
            pairs in vec((0u32..10, 0u32..10), 1..40),
            fp in 0.001f64..0.5,
        ) {
            let n = docs.len();
            let docs = docs.into_iter().map(|mut d| { d.sort_unstable(); d.dedup(); d }).collect();
            let corpus = Corpus::from_term_sets(10, docs);
            let ranks: Vec<f64> = ranks[..n].iter().map(|&r| f64::from(r) * 0.5).collect();
            let index = DistributedIndex::build(&corpus, &ranks, &Ring::with_peers(4));
            let mut bloom = BloomExecutor::new(&index, fp);
            for (t0, t1) in pairs.into_iter().filter(|(a, b)| a != b) {
                let q = Query::new(vec![t0, t1]);
                let out = bloom.execute(&q);
                let sorted = |t| {
                    let mut ids = index.docs(t).to_vec();
                    ids.sort_unstable();
                    ids
                };
                let (a, b) = (sorted(t0), sorted(t1));
                let (want, traffic) = BloomFilter::from_docs(&a, fp).intersect(&a[..], b);
                prop_assert_eq!(&out.per_hop, &vec![traffic]);
                prop_assert_eq!(out.hits_returned(), want.len());
                let mut got: Vec<DocId> = out.hits.iter().map(|p| p.doc).collect();
                got.sort_unstable();
                prop_assert_eq!(&got, &want);
                let best = index.docs(t0).iter().find(|d| want.binary_search(d).is_ok());
                prop_assert_eq!(out.hits.first().map(|p| p.doc), best.copied());
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate query terms")]
    fn duplicate_terms_rejected() {
        Query::new(vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "empty query")]
    fn empty_query_rejected() {
        Query::new(vec![]);
    }
}
