//! Pagerank-guided incremental keyword search (paper Sec. 2.4.3, 4.9).
//!
//! Builds a corpus over a P2P system, computes pageranks with the
//! distributed engine, indexes everything in a distributed inverted
//! index, and runs multi-word queries under the baseline and the
//! incremental top-x% strategy, printing the traffic each one costs.
//!
//! ```text
//! cargo run --release --example p2p_search
//! ```

use distributed_pagerank::prelude::*;
use distributed_pagerank::search::corpus::generate_queries;

fn main() {
    println!("== pagerank-guided P2P keyword search ==");

    // The paper's corpus scale: ~11k documents, 1880-term vocabulary,
    // 50 peers.
    let corpus = Corpus::generate(&CorpusConfig::default());
    println!(
        "corpus: {} documents, {} terms",
        corpus.num_docs(),
        corpus.vocab_size()
    );

    // Link structure + distributed pagerank for the same documents.
    let graph = PowerLawConfig::paper(corpus.num_docs(), 11).generate();
    let mut engine = ChaoticEngine::local(
        std::sync::Arc::new(graph),
        EngineConfig::with_epsilon(RECOMMENDED_EPSILON),
    );
    let run = engine.run_static();
    println!("pagerank converged in {} passes", run.passes);

    // The distributed index: each term's posting list (with pageranks)
    // lives on the DHT successor of the term's GUID.
    let ring = Ring::with_peers(50);
    let index = DistributedIndex::build(&corpus, engine.ranks(), &ring);
    // One index-update message per posting.
    let postings: usize = (0..corpus.vocab_size()).map(|t| index.num_hits(t)).sum();
    println!("distributed index built: {postings} index-update messages\n");

    // Run a few queries from the top-100 most frequent terms.
    for (qlen, label) in [(2usize, "two-word"), (3usize, "three-word")] {
        println!("-- {label} queries --");
        let queries = generate_queries(&corpus, qlen, 3, 31);
        for terms in queries {
            let q = Query::new(terms.clone());
            let base = execute_baseline(&index, &q, TrafficModel::AllHopsRemote);
            let t10 = execute_incremental(&index, &q, IncrementalConfig::top10());
            println!(
                "  {:?}: baseline {} ids / {} hits  |  top-10% {} ids / {} hits  ({:.1}x less traffic)",
                terms,
                base.traffic_ids,
                base.hits_returned(),
                t10.traffic_ids,
                t10.hits_returned(),
                base.traffic_ids as f64 / t10.traffic_ids.max(1) as f64
            );
            // The user still sees the best documents first: the top
            // hit is identical under both strategies.
            if let (Some(b), Some(i)) = (base.hits.first(), t10.hits.first()) {
                assert_eq!(b.doc, i.doc, "top-ranked hit must survive the cut");
            }
        }
    }

    println!("\n(the Table 6 binary sweeps 20 queries per length and both cut levels)");
}
