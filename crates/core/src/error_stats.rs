//! Relative-error distributions — the measurements behind Table 2.
//!
//! The paper characterizes pagerank quality as the relative error
//! `|R_d − R_c| / R_c` between the distributed result `R_d` and the
//! synchronous reference `R_c`, reported as the maximum error within
//! the best 50 %, 75 %, 90 %, 99 % and 99.9 % of pages, plus the
//! overall maximum and average.

/// The percentile levels Table 2 reports (fractions of pages).
pub const TABLE2_PERCENTILES: [f64; 5] = [0.50, 0.75, 0.90, 0.99, 0.999];

/// Summary of a relative-error distribution, Table 2 style.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ErrorDistribution {
    /// `(fraction, error)` pairs: the maximum relative error among the
    /// best `fraction` of pages, for each entry of
    /// [`TABLE2_PERCENTILES`].
    pub percentiles: Vec<(f64, f64)>,
    /// The largest relative error over all pages.
    pub max: f64,
    /// The mean relative error over all pages.
    pub avg: f64,
    /// Number of pages measured.
    pub count: usize,
}

/// Per-document relative errors `|approx − reference| / reference`.
///
/// # Panics
///
/// Panics if lengths differ or a reference value is zero (pageranks
/// are bounded below by `1 − d > 0`).
pub fn relative_errors(approx: &[f64], reference: &[f64]) -> Vec<f64> {
    assert_eq!(approx.len(), reference.len(), "length mismatch");
    approx
        .iter()
        .zip(reference)
        .map(|(&a, &r)| {
            assert!(r != 0.0, "reference rank is zero");
            (a - r).abs() / r.abs()
        })
        .collect()
}

/// Summarizes a set of relative errors the way Table 2 reports them.
///
/// # Panics
///
/// Panics on an empty input.
pub fn summarize(mut errors: Vec<f64>) -> ErrorDistribution {
    assert!(!errors.is_empty(), "no errors to summarize");
    let count = errors.len();
    let avg = errors.iter().sum::<f64>() / count as f64;
    errors.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN error"));
    let max = *errors.last().unwrap();
    let percentiles = TABLE2_PERCENTILES
        .iter()
        .map(|&p| {
            // "up to 50% of the pages had error < x": x is the error
            // at the ceil(p * count)-th best page.
            let idx = ((p * count as f64).ceil() as usize).clamp(1, count) - 1;
            (p, errors[idx])
        })
        .collect();
    ErrorDistribution {
        percentiles,
        max,
        avg,
        count,
    }
}

/// Convenience: full Table 2 cell set from two rank vectors.
pub fn compare(approx: &[f64], reference: &[f64]) -> ErrorDistribution {
    summarize(relative_errors(approx, reference))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_errors_are_elementwise() {
        let e = relative_errors(&[1.1, 2.0, 0.5], &[1.0, 2.0, 1.0]);
        assert!((e[0] - 0.1).abs() < 1e-12);
        assert_eq!(e[1], 0.0);
        assert!((e[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_orders_percentiles() {
        // 100 pages with errors 0.00 .. 0.99.
        let errors: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let s = summarize(errors);
        assert_eq!(s.count, 100);
        assert!((s.max - 0.99).abs() < 1e-12);
        assert!((s.avg - 0.495).abs() < 1e-12);
        // 50th percentile = 50th best page = error 0.49.
        assert!((s.percentiles[0].1 - 0.49).abs() < 1e-12);
        // 99th percentile = 99th best = 0.98.
        assert!((s.percentiles[3].1 - 0.98).abs() < 1e-12);
        // Monotone in the fraction.
        for w in s.percentiles.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn identical_vectors_have_zero_error() {
        let v = vec![0.3, 1.7, 2.0];
        let s = compare(&v, &v);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.avg, 0.0);
        assert!(s.percentiles.iter().all(|&(_, e)| e == 0.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        relative_errors(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "no errors")]
    fn empty_summary_panics() {
        summarize(Vec::new());
    }

    #[test]
    fn single_element_summary() {
        let s = summarize(vec![0.25]);
        assert_eq!(s.max, 0.25);
        assert_eq!(s.avg, 0.25);
        assert!(s.percentiles.iter().all(|&(_, e)| e == 0.25));
    }
}
