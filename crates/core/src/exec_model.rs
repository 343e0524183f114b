//! Analytic execution-time models (paper Sec. 4.6, Eq. 4).
//!
//! The paper estimates wall-clock convergence time from message counts
//! rather than simulating network timing. **Equation 4** (per-pass,
//! per-peer) gives the time of one pass at peer *i* as
//! `T_i + Σ_j L_ij · s / r` — compute time plus the *serialized*
//! transfer of the pass's messages to each other peer (`L_ij` =
//! document links from peer *i* to peer *j*, `s` = message size, `r` =
//! transfer rate). The event-driven chaotic runtime charges exactly
//! those terms per step and per link, from the constants below.
//!
//! Table 3's hours columns use the **aggregate serialized model**: the
//! paper's printed numbers equal `total_messages · s / r` — the entire
//! run's bytes pushed through one serialized `r`-rate pipe (e.g.
//! threshold 0.2, 5000k graph: 169.1 M messages × 24 B ÷ 32 KB/s ≈
//! 33.7 h, matching the table). This is Eq. 4 summed over all peers and
//! passes, the stated "conservative" bound. The Sec. 4.6.2
//! Internet-scale estimate (3 billion documents on web servers linked
//! at T3 rate) is the same model at Internet size.

/// The paper's message size: 128-bit GUID + 64-bit rank = 24 bytes.
pub const MESSAGE_BYTES: f64 = 24.0;

/// Conservative P2P transfer rate used in Table 3 (bytes/second).
pub const RATE_32KBS: f64 = 32.0 * 1024.0;

/// Aggressive P2P transfer rate used in Table 3 (bytes/second).
pub const RATE_200KBS: f64 = 200.0 * 1024.0;

/// T3-line rate used for the Internet-scale estimate (Sec. 4.6.2):
/// "about 5.6 Megabytes per second".
pub const RATE_T3: f64 = 5.6e6;

/// Local compute cost of one pagerank pass, per document held
/// (seconds). Sec. 4.6.2 charges roughly 0.75 s of computation per
/// pass for a 1000-document peer; this is that rate per document,
/// the `T_i` term of Eq. 4 for a peer holding `n` documents being
/// `n × COMPUTE_SECS_PER_DOC`. The event-driven chaotic runtime uses
/// it as each peer's step time, which is what makes arrivals batch
/// at realistic granularity instead of per-message.
pub const COMPUTE_SECS_PER_DOC: f64 = 7.5e-4;

/// Aggregate serialized-transfer model: total convergence time in
/// seconds for `total_messages` update messages at `rate` bytes/s,
/// plus `passes` × `compute_per_pass` seconds of computation.
///
/// With `compute_per_pass = 0` this reproduces Table 3's hours
/// columns exactly.
pub fn aggregate_time_secs(
    total_messages: u64,
    rate: f64,
    passes: usize,
    compute_per_pass: f64,
) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    total_messages as f64 * MESSAGE_BYTES / rate + passes as f64 * compute_per_pass
}

/// Seconds in one hour, for reporting.
pub const SECS_PER_HOUR: f64 = 3600.0;
/// Seconds in one day, for reporting.
pub const SECS_PER_DAY: f64 = 86_400.0;

/// The Sec. 4.6.2 Internet-scale estimate: convergence time in days
/// for a corpus of `num_docs` documents when each document generates
/// `messages_per_node` update messages over the run (Table 3's
/// graph-size-independent per-node metric) and web servers exchange
/// messages at `rate` bytes/s through one serialized pipe.
pub fn internet_scale_days(num_docs: u64, messages_per_node: f64, rate: f64) -> f64 {
    assert!(rate > 0.0 && messages_per_node >= 0.0);
    num_docs as f64 * messages_per_node * MESSAGE_BYTES / rate / SECS_PER_DAY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_hours_reproduce_from_message_counts() {
        // Paper Table 3, 5000k graph: 169.1 M messages at threshold
        // 0.2 -> 33.7 h @ 32 KB/s and 5.4 h @ 200 KB/s.
        let t32 = aggregate_time_secs(169_100_000, RATE_32KBS, 0, 0.0) / SECS_PER_HOUR;
        assert!((t32 - 33.7).abs() < 0.8, "got {t32} h");
        let t200 = aggregate_time_secs(169_100_000, RATE_200KBS, 0, 0.0) / SECS_PER_HOUR;
        assert!((t200 - 5.4).abs() < 0.3, "got {t200} h");
    }

    #[test]
    fn table3_highest_accuracy_row() {
        // Threshold 1e-6: 586 M messages -> 117 h @ 32 KB/s, 18.7 h
        // @ 200 KB/s.
        let t32 = aggregate_time_secs(586_000_000, RATE_32KBS, 0, 0.0) / SECS_PER_HOUR;
        assert!((t32 - 117.0).abs() < 3.0, "got {t32} h");
        let t200 = aggregate_time_secs(586_000_000, RATE_200KBS, 0, 0.0) / SECS_PER_HOUR;
        assert!((t200 - 18.7).abs() < 0.5, "got {t200} h");
    }

    #[test]
    fn compute_term_adds_linearly() {
        let base = aggregate_time_secs(1_000, RATE_32KBS, 0, 0.0);
        let with_compute = aggregate_time_secs(1_000, RATE_32KBS, 10, 60.0);
        assert!((with_compute - base - 600.0).abs() < 1e-9);
    }

    #[test]
    fn internet_scale_is_order_weeks() {
        // 3e9 docs, ~100 msgs/node (between the paper's eps=1e-5 and
        // 1e-6 rows), T3: the paper says "about 35 days".
        let days = internet_scale_days(3_000_000_000, 100.0, RATE_T3);
        assert!((10.0..60.0).contains(&days), "got {days} days");
        // And ~14 days at roughly the eps=1e-3 per-node rate (~40).
        let days14 = internet_scale_days(3_000_000_000, 40.0, RATE_T3);
        assert!((5.0..25.0).contains(&days14), "got {days14} days");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_nonpositive_rate() {
        aggregate_time_secs(1, 0.0, 0, 0.0);
    }
}
