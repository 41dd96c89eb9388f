//! Network-level measurements collected by the substrates.
//!
//! The experiment harness reports message complexity (messages per
//! operation) and event counts from the [`NetMetrics`] counters, which both
//! runtimes fill by the one rule of [`crate::link::Tally`]. The
//! sustained-load experiment E15 additionally records per-operation
//! latencies in a [`LatencyHistogram`].

/// Number of buckets in a [`LatencyHistogram`]: one per power of two up to
/// `2^62`, plus an overflow bucket. 64 × 8 bytes keeps the histogram small
/// enough to live inside per-client bench state.
const HIST_BUCKETS: usize = 64;

/// A fixed-bucket latency histogram with logarithmic (power-of-two)
/// buckets.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` (bucket 0 also absorbs 0).
/// Percentile queries return the *upper bound* of the bucket holding the
/// requested rank — a conservative estimate whose relative error is bounded
/// by the 2× bucket width, which is plenty for throughput trend tracking
/// (E15) while keeping `record` allocation-free and O(1).
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample (any time unit; callers must stay consistent).
    pub fn record(&mut self, sample: u64) {
        // floor(log2(sample)), with 0 landing in bucket 0.
        let idx = (63 - (sample | 1).leading_zeros()) as usize;
        self.buckets[idx.min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket containing the `p`-th percentile; the true
    /// sample is within 2× of the returned value and never above `max`.
    ///
    /// Edge-case contract (each of these was previously unspecified or
    /// wrong):
    /// * an **empty** histogram returns 0 for every `p` — no rank exists,
    ///   and 0 is the conventional "no data" value used by the E15 reports;
    /// * `p <= 0` returns the **exact minimum** sample (the nearest-rank
    ///   definition's 0th percentile *is* the minimum, so we report it
    ///   exactly rather than a bucket bound);
    /// * `p >= 100` returns the exact maximum (out-of-range `p` clamps to
    ///   the `[0, 100]` domain, and float rounding such as
    ///   `(100.0 / 100.0) * count` ceiling past `count` can no longer
    ///   overshoot the last occupied bucket).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p <= 0.0 {
            return self.min;
        }
        if p >= 100.0 {
            return self.max;
        }
        // Nearest-rank: the ceil of p% of the count, clamped into
        // [1, count] so float rounding can never produce rank 0 or
        // rank count+1 (which would fall off the occupied buckets).
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket i spans [2^i, 2^(i+1)); report the upper bound,
                // clamped to the observed extremes.
                let upper = if i + 1 >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The network counters of a substrate (a snapshot, on threads).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Logical messages handed to a link by a process or the environment,
    /// whatever a link fault then did to them. Garbage a
    /// [`crate::corruption::FaultPlan`] places in transit was never sent:
    /// it shows up as delivered or dropped only.
    pub messages_sent: u64,
    /// Messages delivered to a live process.
    pub messages_delivered: u64,
    /// Messages dropped (link fault, crashed or unknown destination).
    pub messages_dropped: u64,
    /// Events processed (deliveries + timers).
    pub events_processed: u64,
    /// Wire frames handed to channels. With link batching disabled this
    /// equals [`NetMetrics::messages_sent`]; with batching enabled one frame
    /// carries up to `max_batch` logical messages.
    pub frames_sent: u64,
    /// Wire frames delivered to a live process.
    pub frames_delivered: u64,
}

impl NetMetrics {
    /// Difference of two snapshots — the traffic between them.
    pub fn delta_since(&self, earlier: &NetMetrics) -> NetMetrics {
        NetMetrics {
            messages_sent: self.messages_sent - earlier.messages_sent,
            messages_delivered: self.messages_delivered - earlier.messages_delivered,
            messages_dropped: self.messages_dropped - earlier.messages_dropped,
            events_processed: self.events_processed - earlier.events_processed,
            frames_sent: self.frames_sent - earlier.frames_sent,
            frames_delivered: self.frames_delivered - earlier.frames_delivered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let mut h = LatencyHistogram::new();
        for s in 1..=1000u64 {
            h.record(s);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        // p50 of 1..=1000 is 500; the bucket upper bound for 500 is 511.
        let p50 = h.percentile(50.0);
        assert!((500..=511).contains(&p50), "p50 = {p50}");
        // p99 rank 990 lands in [512, 1023) → clamped to max 1000.
        let p99 = h.percentile(99.0);
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
        assert!((h.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(99.0), 0, "sole sample 0 → p99 clamps to max 0");
    }

    #[test]
    fn histogram_merge_accumulates() {
        let (mut a, mut b) = (LatencyHistogram::new(), LatencyHistogram::new());
        for s in [1u64, 2, 4] {
            a.record(s);
        }
        for s in [1024u64, 2048] {
            b.record(s);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), 2048);
        assert!(a.percentile(100.0) >= 1024);
    }

    #[test]
    fn histogram_empty_is_zero_at_every_percentile() {
        let h = LatencyHistogram::new();
        for p in [0.0, 50.0, 100.0, -5.0, 250.0] {
            assert_eq!(h.percentile(p), 0, "empty histogram at p = {p}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_single_sample_is_exact_at_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(777);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(h.percentile(p), 777, "single sample at p = {p}");
        }
        assert_eq!(h.min(), 777);
        assert_eq!(h.max(), 777);
    }

    #[test]
    fn histogram_p0_is_min_and_p100_is_max() {
        let mut h = LatencyHistogram::new();
        for s in [3u64, 90, 1000, 65_000] {
            h.record(s);
        }
        assert_eq!(h.percentile(0.0), 3, "p0 is the exact minimum");
        assert_eq!(h.percentile(100.0), 65_000, "p100 is the exact maximum");
        // Out-of-range percentiles clamp to the [0, 100] domain.
        assert_eq!(h.percentile(-10.0), h.percentile(0.0));
        assert_eq!(h.percentile(1000.0), h.percentile(100.0));
    }

    #[test]
    fn histogram_merged_percentiles_cover_both_sources() {
        let (mut a, mut b) = (LatencyHistogram::new(), LatencyHistogram::new());
        for s in [2u64, 3, 5] {
            a.record(s);
        }
        for s in [4096u64, 8192, 10_000] {
            b.record(s);
        }
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.percentile(0.0), 2, "merge keeps the global minimum");
        assert_eq!(a.percentile(100.0), 10_000, "merge keeps the global maximum");
        // p50 (rank 3) still lies in the low source's range...
        assert!(a.percentile(50.0) <= 7, "p50 = {}", a.percentile(50.0));
        // ...and p90 (rank 6) in the high source's range.
        assert!(a.percentile(90.0) >= 8192, "p90 = {}", a.percentile(90.0));
        // Merging an empty histogram changes nothing.
        let snapshot = a.percentile(0.0);
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.percentile(0.0), snapshot);
    }

    #[test]
    fn histogram_huge_samples_do_not_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(50.0), u64::MAX);
    }

    #[test]
    fn delta_subtracts() {
        let mut m = NetMetrics { messages_sent: 1, ..NetMetrics::default() };
        let snap = m.clone();
        m.messages_sent += 2;
        let d = m.delta_since(&snap);
        assert_eq!(d.messages_sent, 2);
        assert_eq!(d.messages_delivered, 0);
    }
}
