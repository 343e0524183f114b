//! A from-scratch Bloom filter and Bloom-assisted set intersection.
//!
//! "Boolean multi-word queries are inefficient on DHT based systems,
//! because documents ids of all the hits for the keywords need to be
//! passed from peer to peer … To avoid this excessive traffic Bloom
//! filter based solutions have been proposed [Reynolds–Vahdat]"
//! (Sec. 2.4.2), and the incremental search "can be coupled with a
//! Bloom filter based method to provide further reduction in traffic"
//! (Sec. 2.4.3). This module provides both pieces: the filter itself
//! and the two-round exact intersection protocol, with byte-level
//! traffic accounting so it composes with the Table 6 measurements.

use crate::idset::IdSet;
use dpr_graph::DocId;

/// A fixed-size Bloom filter over document ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
}

/// splitmix64 finalizer — a cheap, well-mixed 64-bit hash.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl BloomFilter {
    /// A filter sized for `expected_items` at the given target false
    /// positive rate, using the optimal `m = -n ln p / (ln 2)^2` bits
    /// and `k = m/n ln 2` hash functions.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fp_rate < 1` and `expected_items > 0`.
    pub fn with_capacity(expected_items: usize, fp_rate: f64) -> Self {
        assert!(expected_items > 0, "capacity must be positive");
        assert!(fp_rate > 0.0 && fp_rate < 1.0, "fp rate in (0,1)");
        let n = expected_items as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-(n * fp_rate.ln()) / (ln2 * ln2)).ceil().max(64.0) as u64;
        let k = ((m as f64 / n) * ln2).round().max(1.0) as u32;
        BloomFilter {
            bits: vec![0u64; m.div_ceil(64) as usize],
            num_bits: m,
            num_hashes: k,
        }
    }

    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        self.num_bits.div_ceil(8)
    }

    #[inline]
    fn bit_positions(&self, doc: DocId) -> impl Iterator<Item = u64> {
        // Kirsch–Mitzenmacher double hashing: g_i = h1 + i * h2.
        let h1 = mix64(doc.0 as u64);
        let h2 = mix64(doc.0 as u64 ^ 0xa5a5_a5a5_5a5a_5a5a) | 1;
        let m = self.num_bits;
        (0..self.num_hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % m)
    }

    /// Inserts a document id.
    pub fn insert(&mut self, doc: DocId) {
        for p in self.bit_positions(doc) {
            self.bits[(p / 64) as usize] |= 1u64 << (p % 64);
        }
    }

    /// Whether `doc` may be in the set (false positives possible,
    /// false negatives impossible).
    pub fn contains(&self, doc: DocId) -> bool {
        self.bit_positions(doc)
            .all(|p| self.bits[(p / 64) as usize] & (1u64 << (p % 64)) != 0)
    }

    /// Builds a filter over a hit list.
    pub fn from_docs(docs: &[DocId], fp_rate: f64) -> Self {
        let mut f = BloomFilter::with_capacity(docs.len().max(1), fp_rate);
        for &d in docs {
            f.insert(d);
        }
        f
    }
}

/// Traffic generated by a Bloom-assisted exact intersection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct BloomIntersectTraffic {
    /// Bytes for the filter shipped from peer A to peer B.
    pub filter_bytes: u64,
    /// Candidate ids shipped back from B to A (includes false
    /// positives).
    pub candidate_ids: u64,
    /// Exact result ids after A filters false positives.
    pub result_ids: u64,
}

/// Exact membership in the set a filter was built over, asked about
/// ids in ascending order: a merge cursor over a sorted list, or one
/// word probe of a bitset.
pub trait Members {
    /// A test of `doc ∈ self`, valid while the ids asked ascend.
    fn ascending_test(&self) -> impl FnMut(DocId) -> bool + '_;
}

impl Members for [DocId] {
    fn ascending_test(&self) -> impl FnMut(DocId) -> bool + '_ {
        let mut i = 0;
        move |d| {
            while i < self.len() && self[i] < d {
                i += 1;
            }
            self.get(i) == Some(&d)
        }
    }
}

impl Members for IdSet {
    fn ascending_test(&self) -> impl FnMut(DocId) -> bool + '_ {
        |d| self.contains(d.0)
    }
}

impl BloomFilter {
    /// The rest of [`bloom_intersect`] once this filter is built over
    /// `a`: walks `b` in ascending order and returns `b ∩ a` with the
    /// protocol's traffic. B ships back `b ∩ Bloom(a)` and A drops the
    /// false positives. A member of `a` is a candidate and a result
    /// without being hashed (a filter has no false negatives), so only
    /// the ids of `b ∖ a` are probed, to count the false positives.
    pub fn intersect<A: Members + ?Sized>(
        &self,
        a: &A,
        b: impl IntoIterator<Item = DocId>,
    ) -> (Vec<DocId>, BloomIntersectTraffic) {
        let mut in_a = a.ascending_test();
        let mut result = Vec::new();
        let mut false_positives = 0u64;
        for d in b {
            if in_a(d) {
                debug_assert!(self.contains(d), "{d:?} in a but not in the filter");
                result.push(d);
            } else if self.contains(d) {
                false_positives += 1;
            }
        }
        let traffic = BloomIntersectTraffic {
            filter_bytes: self.wire_bytes(),
            candidate_ids: result.len() as u64 + false_positives,
            result_ids: result.len() as u64,
        };
        (result, traffic)
    }
}

/// The Reynolds–Vahdat two-round exact intersection: A sends
/// `Bloom(a)` to B; B returns `b ∩ Bloom(a)` (a small superset of the
/// true intersection); A intersects that with `a`, which removes every
/// false positive. Inputs must be strictly ascending (checked in debug
/// builds); the result is strictly ascending and exact.
pub fn bloom_intersect(
    a: &[DocId],
    b: &[DocId],
    fp_rate: f64,
) -> (Vec<DocId>, BloomIntersectTraffic) {
    let ascending = |s: &[DocId]| s.windows(2).all(|w| w[0] < w[1]);
    debug_assert!(ascending(a) && ascending(b), "input not strictly ascending");
    BloomFilter::from_docs(a, fp_rate).intersect(a, b.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: impl IntoIterator<Item = u32>) -> Vec<DocId> {
        v.into_iter().map(DocId).collect()
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000u32 {
            f.insert(DocId(i));
        }
        for i in 0..1000u32 {
            assert!(f.contains(DocId(i)), "false negative on {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut f = BloomFilter::with_capacity(5_000, 0.01);
        for i in 0..5_000u32 {
            f.insert(DocId(i));
        }
        let fps = (5_000..105_000u32)
            .filter(|&i| f.contains(DocId(i)))
            .count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.03, "fp rate {rate} vs target 0.01");
        assert!(rate > 0.0005, "suspiciously low fp rate {rate}");
    }

    #[test]
    fn sizing_follows_theory() {
        let f = BloomFilter::with_capacity(1000, 0.01);
        // Optimal: ~9.6 bits/item, ~7 hashes.
        assert!((9_000..11_000).contains(&f.num_bits), "{}", f.num_bits);
        assert!((6..=8).contains(&f.num_hashes), "{}", f.num_hashes);
        assert_eq!(f.wire_bytes(), f.num_bits.div_ceil(8));
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::with_capacity(10, 0.01);
        assert!((0..100u32).all(|i| !f.contains(DocId(i))));
    }

    #[test]
    fn bloom_intersect_is_exact() {
        let a = ids(0..1000);
        let b = ids((500..1500).step_by(1));
        let (result, traffic) = bloom_intersect(&a, &b, 0.01);
        assert_eq!(result, ids(500..1000));
        assert_eq!(traffic.result_ids, 500);
        assert!(traffic.candidate_ids >= 500);
        // Candidates include few false positives at 1% on 1000 probes.
        assert!(traffic.candidate_ids < 600, "{}", traffic.candidate_ids);
        assert!(traffic.filter_bytes > 0);
    }

    #[test]
    fn bloom_intersect_disjoint_sets() {
        let a = ids(0..100);
        let b = ids(1000..1100);
        let (result, traffic) = bloom_intersect(&a, &b, 0.01);
        assert!(result.is_empty());
        assert_eq!(traffic.result_ids, 0);
    }

    #[test]
    fn bloom_saves_bytes_vs_full_ids_on_large_lists() {
        // Shipping 100k 16-byte GUIDs = 1.6 MB; a 1% filter is ~120 KB.
        let a = ids(0..100_000);
        let f = BloomFilter::from_docs(&a, 0.01);
        assert!(f.wire_bytes() < 100_000 * 16 / 10);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not strictly ascending")]
    fn bloom_intersect_rejects_unsorted_input() {
        bloom_intersect(&ids([3, 1, 2]), &ids([1, 2, 3]), 0.01);
    }

    #[test]
    #[should_panic(expected = "fp rate")]
    fn rejects_bad_fp_rate() {
        BloomFilter::with_capacity(10, 1.5);
    }
}
