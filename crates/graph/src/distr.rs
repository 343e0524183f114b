//! Discrete heavy-tailed samplers: power-law and Zipf.
//!
//! Two distributions drive the paper's synthetic workloads:
//!
//! * **Power-law degrees** — Broder et al. found that the number of web
//!   pages with (in/out) degree `i` is ∝ `i^-x` with `x = 2.1` (in) and
//!   `x = 2.4` (out); the paper assumes P2P document links look the
//!   same (Sec. 4.1).
//! * **Zipf term frequencies** — the search evaluation (Sec. 4.9)
//!   builds queries from the most frequent terms of a text corpus;
//!   natural-language term frequencies are classically Zipfian, which
//!   is what our synthetic corpus uses in place of the authors'
//!   unavailable 2003 news crawl.
//!
//! Both samplers precompute a cumulative table and invert it: the
//! draw's uniform `u` maps to the first entry `≥ u`, with no
//! floating-point rejection loops — important when generating 5M-node
//! graphs. A guide table of 1,025 entries narrows that search to the
//! entries inside `u`'s 1/1024-wide slice of `[0, 1)`, so a draw costs
//! a few comparisons where the head of the law is heavy (degree 1,
//! term rank 1) and a search over one slice in the tail, never more
//! than the O(log k) of a search over the whole table.

use rand::Rng;

/// A draw's top `GUIDE_BITS` bits name the slice of `[0, 1)` its
/// uniform falls in.
const GUIDE_BITS: u32 = 10;

/// Sampler for a bounded discrete power law `P(X = i) ∝ i^-exponent`
/// on the support `min ..= max`.
#[derive(Debug, Clone)]
pub struct PowerLaw {
    min: u32,
    /// cdf[j] = P(X <= min + j), normalized so the last entry is 1.
    cdf: Vec<f64>,
    /// guide[b] = the first j with cdf[j] >= b / 1024, for b in
    /// 0..=1024: the entries a uniform in [b/1024, (b+1)/1024) can
    /// land on are exactly cdf[guide[b]..=guide[b+1]].
    guide: Vec<u32>,
}

impl PowerLaw {
    /// Creates a sampler on `min ..= max` with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0`, `min > max`, or the exponent is not finite
    /// and positive.
    pub fn new(exponent: f64, min: u32, max: u32) -> Self {
        assert!(min >= 1, "power-law support must start at 1 or above");
        assert!(min <= max, "empty support");
        assert!(exponent.is_finite() && exponent > 0.0, "bad exponent");
        let mut cdf = Vec::with_capacity((max - min + 1) as usize);
        let mut acc = 0.0f64;
        for i in min..=max {
            acc += (i as f64).powf(-exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point drift: the last entry must be
        // exactly 1 so sampling can never fall off the end.
        *cdf.last_mut().unwrap() = 1.0;
        // The slice bounds b / 1024 are exact dyadics, so each entry
        // is the search answer at the slice's lower end.
        let slices = 1u32 << GUIDE_BITS;
        let guide = (0..=slices)
            .map(|b| cdf.partition_point(|&c| c < f64::from(b) / f64::from(slices)) as u32)
            .collect();
        PowerLaw { min, cdf, guide }
    }

    /// Draws one value: the first `j` with `cdf[j] >= u` for the
    /// uniform `u` that `rng.gen::<f64>()` makes of the same word.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let x = rng.next_u64();
        let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        // u lies in [b/1024, (b+1)/1024), so by monotonicity the
        // answer lies in guide[b]..=guide[b+1].
        let b = (x >> (64 - GUIDE_BITS)) as usize;
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let idx = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        self.min + idx.min(self.cdf.len() - 1) as u32
    }
}

/// Sampler for the Zipf distribution over ranks `1 ..= n`:
/// `P(rank = k) ∝ k^-s`.
///
/// Implemented as a thin wrapper over [`PowerLaw`] — Zipf *is* a power
/// law over ranks — but kept as its own type because callers use it for
/// term selection where the value is a rank, not a degree.
#[derive(Debug, Clone)]
pub struct Zipf {
    inner: PowerLaw,
}

impl Zipf {
    /// A Zipf law over `1..=n` with skew `s` (classic Zipf has `s = 1`).
    pub fn new(n: u32, s: f64) -> Self {
        Zipf {
            inner: PowerLaw::new(s, 1, n),
        }
    }

    /// Draws a rank in `1 ..= n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.inner.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Exact probability of value `i` under `p`'s normalized law.
    fn pmf(p: &PowerLaw, i: u32) -> f64 {
        match i.checked_sub(p.min).map(|j| j as usize) {
            Some(0) => p.cdf[0],
            Some(j) if j < p.cdf.len() => p.cdf[j] - p.cdf[j - 1],
            _ => 0.0,
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let p = PowerLaw::new(2.4, 1, 100);
        let total: f64 = (1..=100).map(|i| pmf(&p, i)).sum();
        assert!((total - 1.0).abs() < 1e-12, "pmf total {total}");
    }

    #[test]
    fn samples_stay_in_support() {
        let p = PowerLaw::new(2.1, 2, 50);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = p.sample(&mut rng);
            assert!((2..=50).contains(&v));
        }
    }

    #[test]
    fn heavier_exponent_means_lighter_tail() {
        // With a larger exponent, the probability of the minimum value
        // grows and the tail shrinks.
        let light = PowerLaw::new(3.0, 1, 1000);
        let heavy = PowerLaw::new(1.5, 1, 1000);
        assert!(pmf(&light, 1) > pmf(&heavy, 1));
        assert!(pmf(&light, 1000) < pmf(&heavy, 1000));
    }

    #[test]
    fn empirical_frequencies_track_pmf() {
        let p = PowerLaw::new(2.4, 1, 20);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 200_000usize;
        let mut counts = [0usize; 21];
        for _ in 0..n {
            counts[p.sample(&mut rng) as usize] += 1;
        }
        for i in 1..=5u32 {
            let emp = counts[i as usize] as f64 / n as f64;
            let exp = pmf(&p, i);
            assert!(
                (emp - exp).abs() < 0.01,
                "value {i}: empirical {emp:.4} vs pmf {exp:.4}"
            );
        }
    }

    #[test]
    fn mean_matches_analytic_small_case() {
        // Support {1,2}, exponent 1: weights 1 and 1/2 -> P(1)=2/3.
        let p = PowerLaw::new(1.0, 1, 2);
        assert!((pmf(&p, 1) - 2.0 / 3.0).abs() < 1e-12);
        let mean: f64 = (1..=2).map(|i| f64::from(i) * pmf(&p, i)).sum();
        assert!((mean - (2.0 / 3.0 + 2.0 * 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn zipf_rank_one_is_most_likely() {
        let z = Zipf::new(1880, 1.0);
        assert!(pmf(&z.inner, 1) > pmf(&z.inner, 2));
        assert!(pmf(&z.inner, 2) > pmf(&z.inner, 100));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let v = z.sample(&mut rng);
        assert!((1..=1880).contains(&v));
    }

    #[test]
    #[should_panic(expected = "support must start at 1")]
    fn rejects_zero_min() {
        PowerLaw::new(2.0, 0, 10);
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn rejects_inverted_support() {
        PowerLaw::new(2.0, 5, 4);
    }
}
