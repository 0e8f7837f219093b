//! Fixed-bin-width histograms over durations, with exact extrema.
//!
//! The simulator delivers millions of per-packet delay samples per run;
//! storing them raw is wasteful when every figure in the paper is either a
//! distribution plot (Fig. 8, 12, 13), a CCDF (Figs. 9–11), or a max/jitter
//! summary (Figs. 7, 14–17). [`DurationHistogram`] keeps counts in fixed
//! bins *plus* the exact minimum and maximum, so bound checks ("observed
//! max below calculated upper bound") are not blurred by binning.
//!
//! The counts live in [`Bins`], which costs what it has seen: the bin
//! count is a ceiling, and only the prefix of bins up to the highest one
//! hit is in memory, bin 0 inline: a histogram takes a heap block from its
//! first sample past bin 0. The layout (bin width and count) is stored
//! once per distinct layout and referred to by every store of it, so a
//! `DurationHistogram` is one 64-byte line. `lit_net::OccupancyHistogram`
//! sits on the same store (bits instead of picoseconds).

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
use std::sync::OnceLock;

/// The layout of a histogram: `nbins` bins of `width` each. Every store of
/// one layout refers to one shared copy ([`BinShape::of`]), so a store
/// carries an 8-byte reference where it carried the two numbers.
#[derive(Debug, PartialEq, Eq)]
struct BinShape {
    width: u64,
    nbins: usize,
}

impl BinShape {
    /// The shared copy of the layout `(width, nbins)`, interned for the
    /// life of the process: the first 64 distinct layouts live in a static
    /// table (no heap), any past them in a leaked 16-byte box each. A
    /// lookup scans that table, so a caller building many histograms of
    /// one layout builds one and clones it: a clone of an empty store is
    /// a copy of four words.
    ///
    /// # Panics
    /// Panics if `width` or `nbins` is zero.
    fn of(width: u64, nbins: usize) -> &'static BinShape {
        assert!(width > 0, "histogram: zero bin width");
        assert!(nbins > 0, "histogram: zero bins");
        static SHAPES: [OnceLock<BinShape>; 64] = [const { OnceLock::new() }; 64];
        let want = BinShape { width, nbins };
        for slot in &SHAPES {
            let shape = slot.get_or_init(|| BinShape { width, nbins });
            if *shape == want {
                return shape;
            }
        }
        Box::leak(Box::new(want))
    }
}

/// The counts of a fixed-bin-width histogram over `u64` samples, stored as
/// far as the data reached: bins `0..nbins` exist logically, a prefix
/// reaching the highest bin ever hit exists in memory, and samples at or
/// past `nbins · width` share one overflow counter. Bin 0 lives inline, so
/// a store whose samples all fall in bin 0 (or all overflow) owns no heap
/// block; the first sample past bin 0 moves the prefix to the heap. Every
/// answer is the one a dense array of `nbins` counters would give. The
/// layout is shared by every store of it: a store is 32 bytes.
#[derive(Clone, Debug)]
pub struct Bins {
    shape: &'static BinShape,
    /// `stored()[i]` counts samples in `[i·width, (i+1)·width)`; bins
    /// from `stored().len()` on are all zero.
    hit: Hit,
    overflow: u64,
}

/// The stored prefix: bin 0 alone, inline, or bins `0..len` on the heap
/// (`len ≥ 2`), whose tail past the highest bin hit is zeros. 16 bytes:
/// the inline count sits beside the box's non-null pointer.
#[derive(Clone, Debug)]
enum Hit {
    One(u64),
    Many(Box<[u64]>),
}

impl Bins {
    /// `nbins` logical bins of `width` each, none of them on the heap.
    ///
    /// # Panics
    /// Panics if `width` or `nbins` is zero.
    pub fn new(width: u64, nbins: usize) -> Self {
        Bins {
            shape: BinShape::of(width, nbins),
            hit: Hit::One(0),
            overflow: 0,
        }
    }

    /// Count one sample.
    #[inline]
    pub fn record(&mut self, x: u64) {
        let idx = (x / self.shape.width) as usize;
        match self.stored_mut().get_mut(idx) {
            Some(c) => *c += 1,
            None => self.record_past_prefix(idx),
        }
    }

    /// The first sample of a bin past the stored prefix: count an
    /// overflow, or grow the prefix to reach the bin. The prefix doubles,
    /// so filling up costs O(log nbins) reallocations, and is clamped to
    /// `nbins`, so the store never holds more than the dense layout did.
    #[cold]
    fn record_past_prefix(&mut self, idx: usize) {
        if idx >= self.shape.nbins {
            self.overflow += 1;
            return;
        }
        self.grow(idx + 1);
        if let Some(c) = self.stored_mut().get_mut(idx) {
            *c = 1;
        }
    }

    /// Store at least bins `0..len` (`stored().len() < len ≤ nbins`).
    /// Leaving bin 0 alone allocates exactly `len` bins, what a one-bin
    /// heap prefix would have doubled to, as `len ≥ 2`; a heap prefix
    /// doubles, clamped to `[len, nbins]`.
    fn grow(&mut self, len: usize) {
        let stored = self.stored();
        let cap = match self.hit {
            Hit::One(_) => len,
            Hit::Many(_) => (2 * stored.len()).clamp(len, self.shape.nbins),
        };
        let mut v = Vec::with_capacity(cap);
        v.extend_from_slice(stored);
        v.resize(cap, 0);
        self.hit = Hit::Many(v.into_boxed_slice());
    }

    /// The stored prefix, bin 0 first: never empty.
    fn stored(&self) -> &[u64] {
        match &self.hit {
            Hit::One(c) => std::slice::from_ref(c),
            Hit::Many(v) => v,
        }
    }

    /// Mutable twin of [`Bins::stored`].
    fn stored_mut(&mut self) -> &mut [u64] {
        match &mut self.hit {
            Hit::One(c) => std::slice::from_mut(c),
            Hit::Many(v) => v,
        }
    }

    /// Samples counted, overflow included: one pass over the stored bins.
    pub fn total(&self) -> u64 {
        self.below(self.shape.nbins).saturating_add(self.overflow)
    }

    /// Samples in bins `0..idx`.
    fn below(&self, idx: usize) -> u64 {
        let stored = self.stored().iter().take(idx);
        stored.fold(0, |sum, &c| sum.saturating_add(c))
    }

    /// All `nbins` logical counts in bin order: the stored prefix, then
    /// zeros.
    fn counts(&self) -> impl ExactSizeIterator<Item = &u64> + '_ {
        let stored = self.stored();
        (0..self.shape.nbins).map(|i| stored.get(i).unwrap_or(&0))
    }

    /// `(bin_lower_edge, count)` of every non-empty bin, in bin order.
    fn nonempty(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let bins = self.stored().iter().enumerate().filter(|(_, &c)| c > 0);
        bins.map(|(i, &c)| (i as u64 * self.shape.width, c))
    }

    /// `(bin_lower_edge, fraction of all samples)` of every non-empty bin.
    pub fn pdf(&self) -> Vec<(u64, f64)> {
        let n = self.total().max(1) as f64;
        self.nonempty()
            .map(|(edge, c)| (edge, c as f64 / n))
            .collect()
    }

    /// Upper estimate of `P(sample > x)`: every sample in the bin holding
    /// `x` counts as exceeding it. Zero on an empty histogram.
    pub fn ccdf_at(&self, x: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let below = self.below((x / self.shape.width) as usize);
        total.saturating_sub(below) as f64 / total as f64
    }

    /// Empirical `(x, P(sample > x))` at the upper edge of bin 0 and of
    /// every non-empty bin, up to the bin that leaves nothing beyond it;
    /// overflowed samples end it with a row at `max`, the largest sample.
    pub fn ccdf(&self, max: u64) -> Vec<(u64, f64)> {
        let total = self.total();
        let mut out = Vec::new();
        let mut remaining = total;
        // Past the stored prefix every bin is empty and adds no row; bin 0
        // has its row even when it is empty (every sample overflowed).
        for (i, &c) in self.stored().iter().enumerate() {
            if remaining == 0 {
                break;
            }
            remaining = remaining.saturating_sub(c);
            if c > 0 || i == 0 {
                out.push((
                    (i as u64 + 1) * self.shape.width,
                    remaining as f64 / total as f64,
                ));
            }
        }
        if self.overflow > 0 {
            out.push((max, 0.0));
        }
        out
    }

    /// Add another store's counts into this one. Counts saturate at
    /// `u64::MAX` rather than wrapping, so pathological pooling degrades
    /// the distribution instead of corrupting it; the stored prefixes
    /// need not be equally long.
    ///
    /// # Panics
    /// Panics on mismatched bin width or bin count.
    pub fn merge(&mut self, other: &Bins) {
        assert_eq!(
            self.shape.width, other.shape.width,
            "merge: bin width mismatch"
        );
        assert_eq!(
            self.shape.nbins, other.shape.nbins,
            "merge: bin count mismatch"
        );
        let theirs = other.stored();
        if self.stored().len() < theirs.len() {
            self.grow(theirs.len());
        }
        for (a, b) in self.stored_mut().iter_mut().zip(theirs) {
            *a = a.saturating_add(*b);
        }
        self.overflow = self.overflow.saturating_add(other.overflow);
    }
}

/// A histogram of [`Duration`] samples with fixed bin width.
#[derive(Clone, Debug)]
pub struct DurationHistogram {
    /// Over picoseconds.
    bins: Bins,
    sum_ps: u128,
    min: Duration,
    max: Duration,
}

/// `(ps, y)` rows as `(Duration, y)` rows.
fn in_durations<Y>(
    rows: impl IntoIterator<Item = (u64, Y)>,
) -> impl Iterator<Item = (Duration, Y)> {
    rows.into_iter().map(|(ps, y)| (Duration::from_ps(ps), y))
}

impl DurationHistogram {
    /// A histogram with `nbins` bins of width `bin_width`; samples beyond
    /// the last bin land in a single overflow bucket (still counted in all
    /// aggregate statistics). `nbins` is a ceiling, not a cost: see
    /// [`Bins`].
    ///
    /// # Panics
    /// Panics if `bin_width` is zero or `nbins` is zero.
    pub fn new(bin_width: Duration, nbins: usize) -> Self {
        DurationHistogram {
            bins: Bins::new(bin_width.as_ps(), nbins),
            sum_ps: 0,
            min: Duration::MAX,
            max: Duration::ZERO,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        self.sum_ps += d.as_ps() as u128;
        self.min = self.min.min(d);
        self.max = self.max.max(d);
        self.bins.record(d.as_ps());
    }

    /// Number of recorded samples: the sum of the counts, so one pass over
    /// the stored bins — a report-time question, not a per-packet one.
    pub fn count(&self) -> u64 {
        self.bins.total()
    }

    /// No sample yet. The extrema start crossed (`min` at the top, `max`
    /// at zero) and any sample uncrosses them, so this reads two words.
    fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// Exact smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<Duration> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Exact largest sample, or `None` if empty.
    pub fn max(&self) -> Option<Duration> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Exact range `max − min` (the paper's *jitter* of a sample set), or
    /// `None` if empty.
    pub fn spread(&self) -> Option<Duration> {
        (!self.is_empty()).then(|| self.max - self.min)
    }

    /// Mean of all samples, or `None` if empty.
    pub fn mean(&self) -> Option<Duration> {
        (!self.is_empty()).then(|| Duration::from_ps((self.sum_ps / self.count() as u128) as u64))
    }

    /// The configured bin width.
    pub fn bin_width(&self) -> Duration {
        Duration::from_ps(self.bins.shape.width)
    }

    /// Count in the overflow bucket.
    pub fn overflow_count(&self) -> u64 {
        self.bins.overflow
    }

    /// Raw bin counts, all `nbins` of them whatever is stored: the `i`-th
    /// counts samples in `[i·w, (i+1)·w)`. Exposed for exact count-based
    /// comparisons (the conformance oracle's ineq.-16 check, run
    /// digests), where the f64 CCDF helpers would round.
    pub fn bin_counts(&self) -> impl ExactSizeIterator<Item = &u64> + '_ {
        self.bins.counts()
    }

    /// Iterate `(bin_lower_edge, count)` for all non-empty bins.
    pub fn nonempty_bins(&self) -> impl Iterator<Item = (Duration, u64)> + '_ {
        in_durations(self.bins.nonempty())
    }

    /// Fraction of samples in each bin, `(bin_lower_edge, fraction)`, for
    /// distribution plots like the paper's Figure 8.
    pub fn pdf(&self) -> Vec<(Duration, f64)> {
        in_durations(self.bins.pdf()).collect()
    }

    /// Empirical complementary CDF evaluated at the *upper edge* of every
    /// bin: returns `(d, P(sample > d))` pairs, ending with the exact max.
    ///
    /// Evaluating at upper edges makes the empirical CCDF an exact lower
    /// bound of the true `P(D > d)` staircase, so comparisons against
    /// analytic *upper* bounds (ineq. 16, Figs. 9–11) are conservative in
    /// the right direction.
    pub fn ccdf(&self) -> Vec<(Duration, f64)> {
        in_durations(self.bins.ccdf(self.max.as_ps())).collect()
    }

    /// Upper estimate of `P(sample > t)`: every sample in the bin
    /// containing `t` is counted as exceeding `t`, so the estimate is
    /// always ≥ the true empirical CCDF — the right direction when the
    /// histogram stands in for a distribution being used as an *upper
    /// bound* (the paper's "simulated upper bound" of Figs. 9–11).
    pub fn ccdf_at(&self, t: Duration) -> f64 {
        self.bins.ccdf_at(t.as_ps())
    }

    /// The smallest duration `d` (resolved to a bin upper edge, or the
    /// exact max for the last sample) such that at least `q · count`
    /// samples are `≤ d`. `q` must be in `(0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        assert!(q > 0.0 && q <= 1.0, "quantile: q out of range");
        if self.is_empty() {
            return None;
        }
        let target = (q * self.count() as f64).ceil() as u64;
        let mut cum = 0u64;
        for (edge, c) in self.bins.nonempty() {
            cum = cum.saturating_add(c);
            if cum >= target {
                return Some(Duration::from_ps(edge + self.bins.shape.width));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram with identical bin layout into this one
    /// (counts saturate, see [`Bins::merge`]).
    ///
    /// # Panics
    /// Panics on mismatched bin width or bin count.
    pub fn merge(&mut self, other: &DurationHistogram) {
        self.bins.merge(&other.bins);
        self.sum_ps = self.sum_ps.saturating_add(other.sum_ps);
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

    /// Bins held: 1 inline, else the heap prefix's length.
    fn capacity(b: &Bins) -> usize {
        b.stored().len()
    }

    /// A prefix that climbs one bin at a time reallocates O(log nbins)
    /// times, never past `nbins` counters.
    #[test]
    fn a_climbing_prefix_doubles_its_capacity() {
        let mut b = Bins::new(1, 4_000);
        let mut reallocs = 0;
        for x in 0..4_000 {
            let cap = capacity(&b);
            b.record(x);
            reallocs += usize::from(capacity(&b) != cap);
        }
        assert_eq!(reallocs, 12, "2, 4, …, 2048, then the clamp at 4 000");
        assert_eq!(capacity(&b), 4_000);
    }

    /// Bin 0 and overflow stay inline however often they are hit; the
    /// first sample past bin 0 takes bin 0's count along to the heap.
    #[test]
    fn bin_0_is_inline_until_a_sample_passes_it() {
        let mut b = Bins::new(10, 50);
        for x in [0, 9, 3, 500, 9] {
            b.record(x);
        }
        assert!(matches!(b.hit, Hit::One(4)));
        b.record(25);
        assert_eq!(b.stored(), [4, 0, 1]);
        assert_eq!(b.total(), 6);
        assert_eq!(size_of::<Hit>(), size_of::<Box<[u64]>>());
    }

    /// One copy of each layout, referred to by every store of it.
    #[test]
    fn a_layout_is_stored_once() {
        let (a, b) = (Bins::new(7, 9), Bins::new(7, 9));
        assert!(std::ptr::eq(a.shape, b.shape));
        assert!(std::ptr::eq(a.shape, a.clone().shape));
        assert!(!std::ptr::eq(a.shape, Bins::new(7, 10).shape));
        assert_eq!(size_of::<Bins>(), 32);
        assert_eq!(size_of::<DurationHistogram>(), 64);
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
