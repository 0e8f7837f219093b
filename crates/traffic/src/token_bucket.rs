//! Token-bucket filter `(r, b₀)` — the traffic characterization under which
//! the paper's closed-form delay bound holds (footnote 1 and ineq. 14–15).
//!
//! The bucket holds at most `b₀` tokens (here: bits), starts full, and
//! refills continuously at rate `r`. A session *conforms* if every packet
//! of length `L` finds at least `L` tokens, which are then removed.
//!
//! Token state is kept in **picobits** (`1 bit = 10¹² picobits`): since
//! time is in picoseconds, a refill over `Δps` at `r` bit/s is *exactly*
//! `Δps · r` picobits — integer arithmetic, no drift, so conformance
//! decisions are exact and reproducible.
//!
//! Two consumers:
//! * [`TokenBucket::try_consume`] — conformance *checking* (used by tests
//!   and bound validation);
//! * [`ShapedSource`] — conformance *enforcing*: wraps any [`Source`] and
//!   delays each packet to its earliest conforming instant.

use crate::source::{Emission, Source};
use lit_sim::{Duration, SimRng, Time, PS_PER_SEC};

/// Exact token-bucket state.
///
/// ```
/// use lit_traffic::TokenBucket;
/// use lit_sim::Time;
///
/// // (32 kbit/s, one 424-bit cell): full at t = 0, refills one cell
/// // every 13.25 ms.
/// let mut tb = TokenBucket::new(32_000, 424);
/// assert!(tb.try_consume(Time::ZERO, 424));
/// assert!(!tb.try_consume(Time::ZERO, 424)); // empty now
/// assert!(tb.try_consume(Time::from_us(13_250), 424)); // refilled
/// ```
#[derive(Clone, Debug)]
pub struct TokenBucket {
    /// Refill rate `r` in bits per second.
    rate_bps: u64,
    /// Capacity `b₀` in picobits.
    depth_pb: u128,
    /// Current fill in picobits (`0 ..= depth_pb`).
    tokens_pb: u128,
    /// Instant of the last update.
    last: Time,
}

const PB_PER_BIT: u128 = PS_PER_SEC as u128; // 10^12

impl TokenBucket {
    /// A bucket `(r, b₀)` that starts full at `Time::ZERO`.
    ///
    /// # Panics
    /// Panics if `rate_bps` or `depth_bits` is zero.
    pub fn new(rate_bps: u64, depth_bits: u64) -> Self {
        assert!(rate_bps > 0, "TokenBucket: zero rate");
        assert!(depth_bits > 0, "TokenBucket: zero depth");
        let depth_pb = depth_bits as u128 * PB_PER_BIT;
        TokenBucket {
            rate_bps,
            depth_pb,
            tokens_pb: depth_pb,
            last: Time::ZERO,
        }
    }

    /// Refill rate in bits per second.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Bucket depth `b₀` in bits.
    pub fn depth_bits(&self) -> u64 {
        (self.depth_pb / PB_PER_BIT) as u64
    }

    /// Advance the refill clock to `now` (idempotent; `now` must not
    /// precede the last update).
    fn refill(&mut self, now: Time) {
        let dt = now
            .checked_since(self.last)
            .expect("TokenBucket: time went backwards");
        self.last = now;
        let add = dt.picobits_at_rate(self.rate_bps);
        self.tokens_pb = (self.tokens_pb + add).min(self.depth_pb);
    }

    /// Current fill in (fractional) bits at `now`.
    pub fn tokens_bits_at(&mut self, now: Time) -> f64 {
        self.refill(now);
        self.tokens_pb as f64 / PB_PER_BIT as f64
    }

    /// If at `now` the bucket holds at least `len_bits` tokens, consume
    /// them and return `true`; otherwise leave the bucket untouched and
    /// return `false`.
    pub fn try_consume(&mut self, now: Time, len_bits: u32) -> bool {
        self.refill(now);
        let need = len_bits as u128 * PB_PER_BIT;
        if self.tokens_pb >= need {
            self.tokens_pb -= need;
            true
        } else {
            false
        }
    }

    /// The earliest instant `≥ now` at which `len_bits` tokens will be
    /// available, or `None` if the packet can never conform
    /// (`len_bits > b₀`). Does not consume.
    pub fn earliest_conforming(&mut self, now: Time, len_bits: u32) -> Option<Time> {
        self.refill(now);
        let need = len_bits as u128 * PB_PER_BIT;
        if need > self.depth_pb {
            return None;
        }
        if self.tokens_pb >= need {
            return Some(now);
        }
        let deficit = need - self.tokens_pb;
        // ceil(deficit / rate) picoseconds until the deficit refills.
        let wait = Duration::try_from(deficit.div_ceil(self.rate_bps as u128))
            .expect("token-bucket refill wait fits u64 ps");
        Some(now + wait)
    }
}

/// Wraps a [`Source`], delaying each emission to its earliest conforming
/// instant under a token bucket `(r, b₀)` — i.e. a *shaper*.
///
/// The output of a `ShapedSource` is guaranteed to conform to the bucket,
/// so the paper's `D^ref_max = b₀/r` (eq. 14) and hence the closed-form
/// end-to-end bound (ineq. 15) apply to it.
#[derive(Clone, Debug)]
pub struct ShapedSource<S> {
    inner: S,
    bucket: TokenBucket,
    /// Shaping must not reorder: next output may not precede this.
    last_out: Time,
}

impl<S: Source> ShapedSource<S> {
    /// Shape `inner` through a fresh bucket `(rate_bps, depth_bits)`.
    pub fn new(inner: S, rate_bps: u64, depth_bits: u64) -> Self {
        ShapedSource {
            inner,
            bucket: TokenBucket::new(rate_bps, depth_bits),
            last_out: Time::ZERO,
        }
    }

    /// The bucket parameters, for bound computation.
    pub fn bucket_params(&self) -> (u64, u64) {
        (self.bucket.rate_bps(), self.bucket.depth_bits())
    }
}

impl<S: Source> Source for ShapedSource<S> {
    fn next_emission(&mut self, rng: &mut SimRng) -> Option<Emission> {
        let e = self.inner.next_emission(rng)?;
        let at = e.at.max(self.last_out);
        let at = self
            .bucket
            .earliest_conforming(at, e.len_bits)
            .expect("ShapedSource: packet longer than bucket depth");
        let ok = self.bucket.try_consume(at, e.len_bits);
        debug_assert!(ok, "earliest_conforming then try_consume must succeed");
        self.last_out = at;
        Some(Emission {
            at,
            len_bits: e.len_bits,
        })
    }

    fn mean_rate_bps(&self) -> Option<f64> {
        self.inner.mean_rate_bps().map(|r| {
            // The shaper caps the long-run rate at the bucket rate.
            r.min(self.bucket.rate_bps() as f64)
        })
    }

    fn draws(&self) -> bool {
        self.inner.draws()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deterministic::BurstSource;
    use crate::poisson::PoissonSource;
    use crate::source::SourceExt;

    #[test]
    fn starts_full_and_caps_at_depth() {
        let mut tb = TokenBucket::new(32_000, 424);
        assert_eq!(tb.tokens_bits_at(Time::ZERO), 424.0);
        // After a long idle period it is still capped at b0.
        assert_eq!(tb.tokens_bits_at(Time::from_secs(100)), 424.0);
    }

    #[test]
    fn consume_and_refill_exactly() {
        let mut tb = TokenBucket::new(32_000, 424);
        assert!(tb.try_consume(Time::ZERO, 424));
        assert_eq!(tb.tokens_bits_at(Time::ZERO), 0.0);
        // 13.25 ms at 32 kbit/s refills exactly 424 bits.
        let t = Time::from_us(13_250);
        assert_eq!(tb.tokens_bits_at(t), 424.0);
    }

    #[test]
    fn rejects_when_empty_without_consuming() {
        let mut tb = TokenBucket::new(32_000, 424);
        assert!(tb.try_consume(Time::ZERO, 424));
        assert!(!tb.try_consume(Time::ZERO, 1));
        // Nothing was taken by the failed attempt.
        let t = Time::from_ps(Duration::from_bits_at_rate(1, 32_000).as_ps());
        assert!(tb.try_consume(t, 1));
    }

    #[test]
    fn earliest_conforming_is_tight() {
        let mut tb = TokenBucket::new(32_000, 424);
        assert!(tb.try_consume(Time::ZERO, 424));
        let t = tb.earliest_conforming(Time::ZERO, 424).unwrap();
        assert_eq!(t, Time::from_us(13_250));
        // And at that instant consumption succeeds.
        assert!(tb.try_consume(t, 424));
    }

    #[test]
    fn oversized_packet_never_conforms() {
        let mut tb = TokenBucket::new(32_000, 424);
        assert_eq!(tb.earliest_conforming(Time::ZERO, 425), None);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn refill_rejects_time_reversal() {
        let mut tb = TokenBucket::new(1000, 100);
        let _ = tb.tokens_bits_at(Time::from_ms(5));
        let _ = tb.tokens_bits_at(Time::from_ms(4));
    }

    #[test]
    fn shaped_burst_is_spaced_at_bucket_rate() {
        // A 10-packet instantaneous burst through a (32 kbit/s, 424 bit)
        // bucket: first packet passes at once (full bucket), the rest are
        // spaced L/r = 13.25 ms apart.
        let burst = BurstSource::new(Duration::from_ms(1), 10, 424);
        let mut s = ShapedSource::new(burst, 32_000, 424);
        let mut rng = SimRng::seed_from(0);
        let mut prev: Option<Time> = None;
        for i in 0..10 {
            let e = s.next_emission(&mut rng).unwrap();
            if let Some(p) = prev {
                assert_eq!(e.at - p, Duration::from_us(13_250), "packet {i}");
            }
            prev = Some(e.at);
        }
    }

    #[test]
    fn shaped_output_conforms() {
        // Whatever comes out of the shaper must pass an independent
        // conformance checker with the same parameters.
        let src = PoissonSource::new(Duration::from_ms(5), 424);
        let mut shaped = ShapedSource::new(src, 100_000, 1_272); // 3 packets deep
        let mut rng = SimRng::seed_from(77);
        let mut checker = TokenBucket::new(100_000, 1_272);
        let em = shaped.emissions_until(Time::from_secs(50), &mut rng);
        assert!(em.len() > 1000);
        for e in &em {
            assert!(checker.try_consume(e.at, e.len_bits), "at {}", e.at);
        }
    }

    #[test]
    fn shaper_preserves_order_and_never_advances_early() {
        let src = BurstSource::new(Duration::from_ms(50), 5, 424);
        let mut raw = BurstSource::new(Duration::from_ms(50), 5, 424);
        let mut shaped = ShapedSource::new(src, 64_000, 848);
        let mut r1 = SimRng::seed_from(0);
        let mut r2 = SimRng::seed_from(0);
        for _ in 0..100 {
            let a = raw.next_emission(&mut r1).unwrap();
            let b = shaped.next_emission(&mut r2).unwrap();
            assert!(b.at >= a.at, "shaped packet released early");
        }
    }
}
