//! Per-session and per-node measurements, mirroring what the paper plots.
//!
//! * end-to-end delay per delivered packet (max, min, jitter = max − min,
//!   full histogram — Figs. 7–11, 14–17);
//! * co-simulated **reference-server** delay per packet (eq. 1) — the
//!   "simulated upper bound" curves of Figs. 9–11 and the right-hand side
//!   of every bound check;
//! * per-hop buffer occupancy in bits, sampled exactly as the paper does:
//!   "at the moment the last bit of a packet arrives at a server node",
//!   counting the packet under transmission (Figs. 12–13);
//! * per-node link utilization and scheduler lateness (finish − deadline),
//!   the saturation diagnostic.
//!
//! A session's row costs what its traffic touched: a histogram's bin 0
//! is inline and the bins past it exist from their first hit ([`Bins`]),
//! so the per-hop rows — gauge, maximum and counts, 48 bytes a hop — are
//! the row's one allocation at build, and its only one for as long as
//! every sample lands in bin 0 or overflows. What every row shares is
//! stored once: each histogram refers to its layout, which the
//! [`StatsConfig`] fixes, instead of holding the bin width and count, and
//! rows start as copies of the config's empty histograms (`BlankRows`),
//! so a [`SessionStats`] row is 240 bytes.

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

use lit_analysis::{BatchMeans, Bins, BusyFraction, DurationHistogram};
use lit_sim::{Duration, Time};
use std::collections::{vec_deque, VecDeque};

/// Sizing knobs for the statistics collectors.
#[derive(Clone, Copy, Debug)]
pub struct StatsConfig {
    /// Bin width of the end-to-end and reference delay histograms.
    pub delay_bin: Duration,
    /// Number of delay bins (delays beyond land in overflow but still
    /// count toward max/jitter exactly). A ceiling, not a cost: a bin
    /// takes memory from the first sample at or past it.
    pub delay_bins: usize,
    /// Bin width, in bits, of the buffer-occupancy histograms.
    pub buffer_bin_bits: u64,
    /// Number of buffer bins (a ceiling, as `delay_bins`).
    pub buffer_bins: usize,
    /// Keep the **last** this-many per-packet delivery records per
    /// session (0 = off, the default). Each record is ~48 bytes; the log
    /// is a ring, so memory is bounded regardless of run length.
    pub delivery_log_cap: usize,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            delay_bin: Duration::from_us(250),
            delay_bins: 4_000, // covers 1 s of delay
            buffer_bin_bits: 424,
            buffer_bins: 256,
            delivery_log_cap: 0,
        }
    }
}

impl StatsConfig {
    /// Coarse-resolution sizing for scale runs with very many sessions
    /// (e.g. the 1k→1M scaling curve): delay bins of 20 ms covering the
    /// same 1 s span, a handful of buffer bins, no delivery log. Maxima,
    /// jitter, and counts stay exact; only distribution resolution is
    /// traded. Bins cost memory only once hit, so against the default
    /// this bounds what a session *can* grow to (928 B of counts over two
    /// hops instead of 68 kB), not what an idle one holds.
    pub fn compact() -> Self {
        StatsConfig {
            delay_bin: Duration::from_ms(20),
            delay_bins: 50, // covers the same 1 s of delay, coarsely
            buffer_bin_bits: 424 * 16,
            buffer_bins: 8,
            delivery_log_cap: 0,
        }
    }
}

/// One delivered packet, as recorded by the optional delivery log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Per-session packet index (1-based, the paper's `i`).
    pub seq: u64,
    /// Injection instant `t¹_i`.
    pub created: Time,
    /// Delivery instant (past the last node, incl. final propagation).
    pub delivered: Time,
    /// The packet's co-simulated reference-server delay `D^ref_i`.
    pub ref_delay: Duration,
}

impl DeliveryRecord {
    /// End-to-end delay of this packet.
    pub fn delay(&self) -> Duration {
        self.delivered - self.created
    }

    /// Pathwise excess `D_i − D^ref_i` in signed picoseconds.
    pub fn excess_ps(&self) -> i128 {
        self.delay().signed_sub(self.ref_delay)
    }
}

/// The optional ring of a session's most recent deliveries: one word
/// when off, a boxed `(cap, ring)` when [`StatsConfig::delivery_log_cap`]
/// is positive. Memory stays bounded by the cap whatever the run length.
#[derive(Clone, Debug)]
pub struct DeliveryLog(Option<Box<(usize, VecDeque<DeliveryRecord>)>>);

impl DeliveryLog {
    /// A log keeping the last `cap` records (`0`: off, no allocation).
    pub(crate) fn new(cap: usize) -> Self {
        DeliveryLog((cap > 0).then(|| Box::new((cap, VecDeque::new()))))
    }

    /// Append `rec`, dropping the oldest record when full (no-op when off).
    pub(crate) fn push(&mut self, rec: DeliveryRecord) {
        if let Some((cap, ring)) = self.0.as_deref_mut() {
            if ring.len() == *cap {
                ring.pop_front();
            }
            ring.push_back(rec);
        }
    }

    /// The kept records, oldest first.
    pub fn iter(&self) -> vec_deque::Iter<'_, DeliveryRecord> {
        self.0
            .as_deref()
            .map(|(_, ring)| ring.iter())
            .unwrap_or_default()
    }

    /// Number of kept records.
    pub fn len(&self) -> usize {
        self.0.as_deref().map_or(0, |(_, ring)| ring.len())
    }

    /// Whether no record is kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> IntoIterator for &'a DeliveryLog {
    type Item = &'a DeliveryRecord;
    type IntoIter = vec_deque::Iter<'a, DeliveryRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One hop's buffer occupancy of one session, one 48-byte row: the gauge
/// (bits held there now), the exact maximum, and the histogram of the
/// samples, on the same grow-on-first-hit [`Bins`] as `DurationHistogram`.
#[derive(Clone, Debug)]
pub struct OccupancyHistogram {
    /// Over bits.
    bins: Bins,
    max_bits: u64,
    /// Bits in the buffer right now (bookkeeping between samples).
    level_bits: u64,
}

impl OccupancyHistogram {
    /// `nbins` bins of `bin_bits` bits each (`nbins` is a ceiling, not a
    /// cost).
    pub fn new(bin_bits: u64, nbins: usize) -> Self {
        OccupancyHistogram {
            bins: Bins::new(bin_bits, nbins),
            max_bits: 0,
            level_bits: 0,
        }
    }

    /// Record one occupancy sample.
    pub fn record(&mut self, bits: u64) {
        self.max_bits = self.max_bits.max(bits);
        self.bins.record(bits);
    }

    /// Number of samples (one pass over the stored bins).
    pub fn count(&self) -> u64 {
        self.bins.total()
    }

    /// Exact largest sample in bits.
    pub fn max_bits(&self) -> u64 {
        self.max_bits
    }

    /// `(bin_lower_edge_bits, fraction)` for all non-empty bins.
    pub fn pdf(&self) -> Vec<(u64, f64)> {
        self.bins.pdf()
    }

    /// Merge another histogram with identical bin layout into this one
    /// (used to pool replica runs into one distribution, and by the
    /// k-shard driver, where the gauges add because only a hop's owner
    /// ever moves its gauge). Counts saturate, see [`Bins::merge`].
    ///
    /// # Panics
    /// Panics on mismatched bin width or bin count.
    pub fn merge(&mut self, other: &OccupancyHistogram) {
        self.bins.merge(&other.bins);
        self.max_bits = self.max_bits.max(other.max_bits);
        self.level_bits = self.level_bits.saturating_add(other.level_bits);
    }

    /// Upper estimate of `P(occupancy > bits)`: samples in the bin
    /// containing `bits` count as exceeding it (conservative in the
    /// direction needed when comparing against analytic upper bounds).
    pub fn ccdf_at(&self, bits: u64) -> f64 {
        self.bins.ccdf_at(bits)
    }

    /// Empirical `P(occupancy > bits)` at each bin upper edge.
    pub fn ccdf(&self) -> Vec<(u64, f64)> {
        self.bins.ccdf(self.max_bits)
    }
}

/// Everything measured about one session.
#[derive(Clone, Debug)]
pub struct SessionStats {
    /// Packets injected at the first node.
    pub injected: u64,
    /// Packets delivered past the last node (including final propagation).
    pub delivered: u64,
    /// End-to-end delay distribution (delivery − creation).
    pub e2e: DurationHistogram,
    /// Co-simulated reference-server delay distribution (eq. 1 with the
    /// session's reserved rate, fed by the same arrivals).
    pub reference: DurationHistogram,
    /// Per-hop buffer occupancy distributions, one per route hop.
    pub buffer: Box<[OccupancyHistogram]>,
    /// Largest observed `D_i − D_i^ref` over delivered packets, in signed
    /// picoseconds. The pathwise content of ineq. (12): under
    /// Leave-in-Time this never reaches `β + α`.
    pub max_excess_ps: i128,
    /// Batch-means accumulator over end-to-end delays (seconds), for
    /// autocorrelation-robust confidence intervals on the mean.
    pub delay_batches: BatchMeans,
    /// The most recent deliveries (empty unless
    /// [`StatsConfig::delivery_log_cap`] > 0).
    pub deliveries: DeliveryLog,
    /// Conformance-oracle violations that name this session: every check
    /// on one of its packets, at any hop or at delivery, plus the drain
    /// check of ineq. 16; always 0 when the oracle is off.
    pub oracle_violations: u64,
}

/// The empty histograms of a [`StatsConfig`], built once and copied into
/// every row: each histogram refers to its layout instead of holding it,
/// and copying an empty one copies that reference, where building one
/// looks the layout up.
#[derive(Debug)]
pub(crate) struct BlankRows {
    delay: DurationHistogram,
    buffer: OccupancyHistogram,
    delivery_log_cap: usize,
}

impl BlankRows {
    pub(crate) fn new(cfg: &StatsConfig) -> Self {
        BlankRows {
            delay: DurationHistogram::new(cfg.delay_bin, cfg.delay_bins),
            buffer: OccupancyHistogram::new(cfg.buffer_bin_bits, cfg.buffer_bins),
            delivery_log_cap: cfg.delivery_log_cap,
        }
    }
}

impl SessionStats {
    pub(crate) fn new(blank: &BlankRows, hops: usize) -> Self {
        SessionStats {
            injected: 0,
            delivered: 0,
            e2e: blank.delay.clone(),
            reference: blank.delay.clone(),
            buffer: vec![blank.buffer.clone(); hops].into_boxed_slice(),
            max_excess_ps: i128::MIN,
            delay_batches: BatchMeans::default_config(),
            deliveries: DeliveryLog::new(blank.delivery_log_cap),
            oracle_violations: 0,
        }
    }

    /// A packet's last bit arrived at `hop`: grow the occupancy gauge and
    /// record the new level — counting the arriving packet, which is how
    /// the paper samples buffer occupancy. Out-of-range hops (a wiring
    /// bug) record nothing rather than panicking mid-simulation.
    pub(crate) fn occupy(&mut self, hop: usize, len_bits: u64) {
        if let Some(row) = self.buffer.get_mut(hop) {
            row.level_bits += len_bits;
            row.record(row.level_bits);
        }
    }

    /// The packet's last bit left `hop`: release its bits from the gauge.
    pub(crate) fn release(&mut self, hop: usize, len_bits: u64) {
        if let Some(row) = self.buffer.get_mut(hop) {
            row.level_bits = row.level_bits.saturating_sub(len_bits);
        }
    }

    /// Fold another partial accumulator for the *same* session into this
    /// one. Used by the k-shard driver: each shard accumulates only the
    /// fields its own hops write (injection fields on the first-hop
    /// shard, delivery fields on the last-hop shard, per-hop occupancy on
    /// the hop's owner), so partials are field-disjoint and absorbing
    /// them in any fixed order reconstructs exactly the one-shard totals.
    pub(crate) fn absorb(&mut self, o: &SessionStats) {
        self.injected += o.injected;
        self.delivered += o.delivered;
        self.e2e.merge(&o.e2e);
        self.reference.merge(&o.reference);
        for (a, b) in self.buffer.iter_mut().zip(&o.buffer) {
            a.merge(b);
        }
        self.max_excess_ps = self.max_excess_ps.max(o.max_excess_ps);
        // Delivery-derived batch means live entirely on the last-hop
        // shard; adopt the one non-empty accumulator.
        if o.delivered > 0 && self.delay_batches.count() == 0 {
            self.delay_batches = o.delay_batches.clone();
        }
        for r in &o.deliveries {
            self.deliveries.push(*r);
        }
        self.oracle_violations += o.oracle_violations;
    }

    /// Largest observed end-to-end delay.
    pub fn max_delay(&self) -> Option<Duration> {
        self.e2e.max()
    }

    /// Observed end-to-end jitter: max − min delay over delivered packets
    /// (the paper's definition of `J`).
    pub fn jitter(&self) -> Option<Duration> {
        self.e2e.spread()
    }

    /// Mean end-to-end delay.
    pub fn mean_delay(&self) -> Option<Duration> {
        self.e2e.mean()
    }

    /// Largest observed `D_i − D_i^ref` (signed ps), if any packet was
    /// delivered.
    pub fn max_excess(&self) -> Option<i128> {
        (self.delivered > 0).then_some(self.max_excess_ps)
    }

    /// Batch-means ~95 % confidence interval on the mean end-to-end delay
    /// `(mean, half_width)`, if enough batches completed. The mean is the
    /// exact one of [`SessionStats::mean_delay`]; the batches give only
    /// the half-width.
    #[expect(
        clippy::disallowed_methods,
        reason = "reporting boundary: a batch-means half-width is float statistics, converted back to a Duration for display only"
    )]
    pub fn mean_delay_ci(&self) -> Option<(Duration, Duration)> {
        let h = self.delay_batches.half_width()?;
        Some((self.mean_delay()?, Duration::from_secs_f64(h)))
    }
}

/// Everything measured about one node.
#[derive(Clone, Debug)]
pub struct NodeStats {
    /// Link busy-time tracker.
    pub busy: BusyFraction,
    /// Packets transmitted.
    pub transmitted: u64,
    /// Bits transmitted.
    pub bits_transmitted: u64,
    /// Largest observed `finish − deadline` in picoseconds (negative =
    /// every packet beat its deadline). For deadline disciplines this is
    /// the scheduler-saturation diagnostic: Leave-in-Time guarantees
    /// `F̂ < F + L_MAX/C`.
    pub max_lateness_ps: i128,
    /// Conformance-oracle violations that name this node: every check on
    /// a packet at this node (regulator and lateness), plus the drain check
    /// of work conservation; always 0 when the oracle is off.
    pub oracle_violations: u64,
}

impl NodeStats {
    pub(crate) fn new() -> Self {
        NodeStats {
            busy: BusyFraction::new(),
            transmitted: 0,
            bits_transmitted: 0,
            max_lateness_ps: i128::MIN,
            oracle_violations: 0,
        }
    }

    /// Measured utilization over `[0, now]`.
    pub fn utilization_at(&self, now: Time) -> f64 {
        self.busy.fraction_at(now)
    }

    /// Largest `finish − deadline`, if any packet was transmitted.
    pub fn max_lateness(&self) -> Option<i128> {
        (self.transmitted > 0).then_some(self.max_lateness_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_histogram_tracks_max_exactly() {
        let mut h = OccupancyHistogram::new(424, 8);
        h.record(0);
        h.record(424);
        h.record(425);
        h.record(9_999); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_bits(), 9_999);
        let pdf = h.pdf();
        assert_eq!(pdf[0], (0, 0.25)); // the single 0-bit sample
                                       // 424 and 425 land in bin 1.
        assert_eq!(pdf[1], (424, 0.5));
    }

    #[test]
    fn occupancy_ccdf_monotone() {
        let mut h = OccupancyHistogram::new(100, 50);
        for i in 0..1000u64 {
            h.record(i * 7 % 4000);
        }
        let c = h.ccdf();
        for w in c.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(c.last().unwrap().1, 0.0);
    }

    #[test]
    fn occupancy_merge_pools_counts_and_max() {
        let mut a = OccupancyHistogram::new(100, 4);
        a.record(50);
        a.record(150);
        let mut b = OccupancyHistogram::new(100, 4);
        b.record(150);
        b.record(999); // overflow
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max_bits(), 999);
        let pdf = a.pdf();
        assert_eq!(pdf[0], (0, 0.25));
        assert_eq!(pdf[1], (100, 0.5));
        // Merging an empty histogram is a no-op.
        let before = a.pdf();
        a.merge(&OccupancyHistogram::new(100, 4));
        assert_eq!(a.pdf(), before);
    }

    #[test]
    #[should_panic(expected = "bin width mismatch")]
    fn occupancy_merge_rejects_mismatched_layout() {
        let mut a = OccupancyHistogram::new(100, 4);
        a.merge(&OccupancyHistogram::new(200, 4));
    }

    #[test]
    fn session_stats_jitter_is_spread() {
        let mut s = SessionStats::new(&BlankRows::new(&StatsConfig::default()), 2);
        s.e2e.record(Duration::from_ms(10));
        s.e2e.record(Duration::from_ms(4));
        s.e2e.record(Duration::from_ms(7));
        assert_eq!(s.jitter(), Some(Duration::from_ms(6)));
        assert_eq!(s.max_delay(), Some(Duration::from_ms(10)));
        assert_eq!(s.buffer.len(), 2);
    }

    #[test]
    fn node_stats_lateness_gate() {
        let n = NodeStats::new();
        assert_eq!(n.max_lateness(), None);
    }

    #[test]
    fn node_stats_lateness_keeps_sign() {
        // Lateness is signed: a node whose every finish beats its
        // deadline reports a *negative* maximum — collapsing it to zero
        // would hide exactly the margin the paper's invariant promises.
        let mut n = NodeStats::new();
        n.transmitted = 1;
        n.max_lateness_ps = -42;
        assert_eq!(n.max_lateness(), Some(-42));
        n.transmitted = 2;
        n.max_lateness_ps = n.max_lateness_ps.max(7);
        assert_eq!(n.max_lateness(), Some(7));
        // The empty-node sentinel (i128::MIN) never leaks out.
        let empty = NodeStats::new();
        assert!(empty.max_lateness().is_none());
    }

    #[test]
    fn occupancy_ccdf_at_empty_histogram_is_zero() {
        let h = OccupancyHistogram::new(424, 8);
        assert_eq!(h.ccdf_at(0), 0.0);
        assert_eq!(h.ccdf_at(u64::MAX), 0.0);
        assert!(h.pdf().is_empty());
        assert!(h.ccdf().iter().all(|&(_, p)| p == 0.0));
    }

    #[test]
    fn occupancy_ccdf_at_single_bin() {
        // One bin: every sample is either in it or in overflow; ccdf_at
        // conservatively counts the query's own bin as exceeding.
        let mut h = OccupancyHistogram::new(100, 1);
        h.record(10);
        h.record(50);
        h.record(250); // overflow
        assert_eq!(h.ccdf_at(0), 1.0); // query inside bin 0: all 3 count
        assert_eq!(h.ccdf_at(99), 1.0);
        assert_eq!(h.ccdf_at(100), 1.0 / 3.0); // past bin 0: overflow only
        assert_eq!(h.ccdf_at(u64::MAX), 1.0 / 3.0);
    }

    #[test]
    fn occupancy_merge_saturates_instead_of_wrapping() {
        let mut a = OccupancyHistogram::new(100, 2);
        a.record(10);
        a.record(500); // overflow
        for _ in 0..64 {
            // Pooled with itself: bin 0 and the overflow bucket double.
            let twin = a.clone();
            a.merge(&twin);
        }
        a.merge(&a.clone());
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.pdf(), [(0, 1.0)]); // bin 0 stopped at the ceiling too
                                         // Still usable afterwards: probabilities stay in [0, 1].
        assert!([0, 150, 900]
            .iter()
            .all(|&b| (0.0..=1.0).contains(&a.ccdf_at(b))));
    }
}
