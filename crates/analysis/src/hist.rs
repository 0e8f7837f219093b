//! Fixed-bin-width histograms over durations, with exact extrema.
//!
//! The simulator delivers millions of per-packet delay samples per run;
//! storing them raw is wasteful when every figure in the paper is either a
//! distribution plot (Fig. 8, 12, 13), a CCDF (Figs. 9–11), or a max/jitter
//! summary (Figs. 7, 14–17). [`DurationHistogram`] keeps counts in fixed
//! bins *plus* the exact minimum and maximum, so bound checks ("observed
//! max below calculated upper bound") are not blurred by binning.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use lit_sim::Duration;

/// A histogram of [`Duration`] samples with fixed bin width.
#[derive(Clone, Debug)]
pub struct DurationHistogram {
    bin_width: Duration,
    /// `bins[i]` counts samples in `[i·w, (i+1)·w)`.
    bins: Vec<u64>,
    /// Samples at or above `bins.len() · w`.
    overflow: u64,
    count: u64,
    sum_ps: u128,
    min: Duration,
    max: Duration,
}

impl DurationHistogram {
    /// A histogram with `nbins` bins of width `bin_width`; samples beyond
    /// the last bin land in a single overflow bucket (still counted in all
    /// aggregate statistics).
    ///
    /// # Panics
    /// Panics if `bin_width` is zero or `nbins` is zero.
    pub fn new(bin_width: Duration, nbins: usize) -> Self {
        assert!(bin_width > Duration::ZERO, "histogram: zero bin width");
        assert!(nbins > 0, "histogram: zero bins");
        DurationHistogram {
            bin_width,
            bins: vec![0; nbins],
            overflow: 0,
            count: 0,
            sum_ps: 0,
            min: Duration::MAX,
            max: Duration::ZERO,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        self.count += 1;
        self.sum_ps += d.as_ps() as u128;
        self.min = self.min.min(d);
        self.max = self.max.max(d);
        let idx = (d.as_ps() / self.bin_width.as_ps()) as usize;
        if idx < self.bins.len() {
            #[expect(
                clippy::indexing_slicing,
                reason = "`idx < self.bins.len()` checked on the line above"
            )]
            {
                self.bins[idx] += 1;
            }
        } else {
            self.overflow += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<Duration> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample, or `None` if empty.
    pub fn max(&self) -> Option<Duration> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact range `max − min` (the paper's *jitter* of a sample set), or
    /// `None` if empty.
    pub fn spread(&self) -> Option<Duration> {
        (self.count > 0).then(|| self.max - self.min)
    }

    /// Mean of all samples, or `None` if empty.
    pub fn mean(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_ps((self.sum_ps / self.count as u128) as u64))
    }

    /// The configured bin width.
    pub fn bin_width(&self) -> Duration {
        self.bin_width
    }

    /// Count in the overflow bucket.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Raw bin counts: `bin_counts()[i]` counts samples in
    /// `[i·w, (i+1)·w)`. Exposed for exact count-based comparisons (the
    /// conformance oracle's ineq.-16 check), where the f64 CCDF helpers
    /// would round.
    pub fn bin_counts(&self) -> &[u64] {
        &self.bins
    }

    /// Iterate `(bin_lower_edge, count)` for all non-empty bins.
    pub fn nonempty_bins(&self) -> impl Iterator<Item = (Duration, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (self.bin_width * i as u64, c))
    }

    /// Fraction of samples in each bin, `(bin_lower_edge, fraction)`, for
    /// distribution plots like the paper's Figure 8.
    pub fn pdf(&self) -> Vec<(Duration, f64)> {
        let n = self.count.max(1) as f64;
        self.nonempty_bins()
            .map(|(edge, c)| (edge, c as f64 / n))
            .collect()
    }

    /// Empirical complementary CDF evaluated at the *upper edge* of every
    /// bin: returns `(d, P(sample > d))` pairs, ending with the exact max.
    ///
    /// Evaluating at upper edges makes the empirical CCDF an exact lower
    /// bound of the true `P(D > d)` staircase, so comparisons against
    /// analytic *upper* bounds (ineq. 16, Figs. 9–11) are conservative in
    /// the right direction.
    pub fn ccdf(&self) -> Vec<(Duration, f64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let n = self.count as f64;
        let mut remaining = self.count;
        let mut out = Vec::new();
        for (i, &c) in self.bins.iter().enumerate() {
            remaining -= c;
            if c > 0 || i == 0 {
                let upper = self.bin_width * (i as u64 + 1);
                out.push((upper, remaining as f64 / n));
            }
            if remaining == 0 {
                break;
            }
        }
        if self.overflow > 0 {
            out.push((self.max, 0.0));
        }
        out
    }

    /// Upper estimate of `P(sample > t)`: every sample in the bin
    /// containing `t` is counted as exceeding `t`, so the estimate is
    /// always ≥ the true empirical CCDF — the right direction when the
    /// histogram stands in for a distribution being used as an *upper
    /// bound* (the paper's "simulated upper bound" of Figs. 9–11).
    pub fn ccdf_at(&self, t: Duration) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let idx = (t.as_ps() / self.bin_width.as_ps()) as usize;
        let below: u64 = self.bins.iter().take(idx.min(self.bins.len())).sum();
        (self.count - below) as f64 / self.count as f64
    }

    /// The smallest duration `d` (resolved to a bin upper edge, or the
    /// exact max for the last sample) such that at least `q · count`
    /// samples are `≤ d`. `q` must be in `(0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        assert!(q > 0.0 && q <= 1.0, "quantile: q out of range");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut cum = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(self.bin_width * (i as u64 + 1));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram with identical bin layout into this one.
    ///
    /// # Panics
    /// Panics on mismatched bin width or bin count.
    pub fn merge(&mut self, other: &DurationHistogram) {
        assert_eq!(self.bin_width, other.bin_width, "merge: bin width mismatch");
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "merge: bin count mismatch"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_ms(x)
    }

    #[test]
    fn records_extrema_exactly() {
        let mut h = DurationHistogram::new(ms(1), 100);
        h.record(Duration::from_us(1_499));
        h.record(Duration::from_us(7_301));
        h.record(Duration::from_us(2));
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(Duration::from_us(2)));
        assert_eq!(h.max(), Some(Duration::from_us(7_301)));
        assert_eq!(h.spread(), Some(Duration::from_us(7_299)));
    }

    #[test]
    fn empty_histogram() {
        let h = DurationHistogram::new(ms(1), 10);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.spread(), None);
        assert!(h.ccdf().is_empty());
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn binning_and_overflow() {
        let mut h = DurationHistogram::new(ms(1), 5);
        h.record(ms(0)); // bin 0
        h.record(Duration::from_us(999)); // bin 0
        h.record(ms(1)); // bin 1
        h.record(ms(4)); // bin 4
        h.record(ms(5)); // overflow
        h.record(ms(100)); // overflow
        let bins: Vec<_> = h.nonempty_bins().collect();
        assert_eq!(bins, vec![(ms(0), 2), (ms(1), 1), (ms(4), 1)]);
        assert_eq!(h.overflow_count(), 2);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn ccdf_is_monotone_nonincreasing_and_reaches_zero() {
        let mut h = DurationHistogram::new(Duration::from_us(100), 1000);
        for i in 0..1000u64 {
            h.record(Duration::from_us(i * 97 % 50_000));
        }
        let c = h.ccdf();
        assert!(!c.is_empty());
        for w in c.windows(2) {
            assert!(w[0].1 >= w[1].1, "ccdf not monotone");
            assert!(w[0].0 <= w[1].0);
        }
        assert_eq!(c.last().unwrap().1, 0.0);
    }

    #[test]
    fn ccdf_at_is_conservative_upper_estimate() {
        let mut h = DurationHistogram::new(ms(1), 10);
        h.record(Duration::from_us(500)); // bin 0
        h.record(Duration::from_us(2_500)); // bin 2
        h.record(Duration::from_us(2_700)); // bin 2
        h.record(ms(50)); // overflow
                          // t inside bin 0: everything counts as above.
        assert_eq!(h.ccdf_at(Duration::from_us(100)), 1.0);
        // t inside bin 2: bin-0 sample excluded, bin-2 samples included.
        assert_eq!(h.ccdf_at(Duration::from_us(2_600)), 0.75);
        // t past all bins: only overflow remains.
        assert_eq!(h.ccdf_at(ms(20)), 0.25);
        // Conservative: true empirical P(X > 2.6ms) is 0.5, estimate 0.75.
        let empty = DurationHistogram::new(ms(1), 4);
        assert_eq!(empty.ccdf_at(ms(1)), 0.0);
    }

    #[test]
    fn quantiles() {
        let mut h = DurationHistogram::new(ms(1), 100);
        for i in 1..=100u64 {
            h.record(ms(i) - Duration::from_us(500)); // bins 0..99
        }
        // Median should land near 50 ms.
        let q50 = h.quantile(0.5).unwrap();
        assert!(q50 >= ms(49) && q50 <= ms(51), "q50={q50}");
        assert_eq!(h.quantile(1.0).unwrap(), h.max().unwrap().max(ms(100)));
    }

    #[test]
    fn mean_is_exact_sum_division() {
        let mut h = DurationHistogram::new(ms(1), 10);
        h.record(ms(2));
        h.record(ms(4));
        assert_eq!(h.mean(), Some(ms(3)));
    }

    #[test]
    fn merge_combines() {
        let mut a = DurationHistogram::new(ms(1), 10);
        let mut b = DurationHistogram::new(ms(1), 10);
        a.record(ms(1));
        b.record(ms(5));
        b.record(ms(20)); // overflow
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(ms(20)));
        assert_eq!(a.overflow_count(), 1);
    }

    #[test]
    fn pdf_sums_to_at_most_one() {
        let mut h = DurationHistogram::new(ms(1), 4);
        for i in 0..10 {
            h.record(ms(i % 6));
        }
        let total: f64 = h.pdf().iter().map(|(_, f)| f).sum();
        assert!(total <= 1.0 + 1e-12);
        assert!(total > 0.5);
    }

    #[test]
    #[should_panic(expected = "bin width mismatch")]
    fn merge_rejects_mismatch() {
        let mut a = DurationHistogram::new(ms(1), 10);
        let b = DurationHistogram::new(ms(2), 10);
        a.merge(&b);
    }
}
