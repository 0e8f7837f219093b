//! Deterministic (fixed packet rate / CBR) source, plus a worst-case burst
//! source used by adversarial tests.
//!
//! The paper uses Deterministic sources "in experiments where we want to
//! commit all the bandwidth of a server" (Fig. 11: 47 × 32 kbit/s CBR
//! sessions as cross traffic). Spacing is `a_D = 13.25 ms` with 424-bit
//! packets, i.e. exactly the 32 kbit/s reservation.

use crate::source::{Emission, Source};
use lit_sim::{Duration, SimRng, Time};

/// A constant-bit-rate source: one `len_bits` packet every `gap`.
#[derive(Clone, Debug)]
pub struct DeterministicSource {
    gap: Duration,
    len_bits: u32,
    /// Time of the next emission.
    next_at: Time,
}

impl DeterministicSource {
    /// Create a CBR source with the given spacing and packet length,
    /// first emission at `gap` (so an idle origin does not emit at t = 0).
    ///
    /// # Panics
    /// Panics if `gap` is zero.
    pub fn new(gap: Duration, len_bits: u32) -> Self {
        assert!(gap > Duration::ZERO, "DeterministicSource: zero gap");
        DeterministicSource {
            gap,
            len_bits,
            next_at: Time::ZERO + gap,
        }
    }

    /// Shift the emission phase: first packet at `gap + offset`.
    /// Staggering phases is how Fig. 11's 47 CBR cross sessions per link
    /// avoid all arriving in one aligned batch.
    pub fn with_offset(mut self, offset: Duration) -> Self {
        self.next_at += offset;
        self
    }

    /// The paper's CBR configuration: 424-bit packets every 13.25 ms
    /// (32 kbit/s).
    pub fn paper_cbr() -> Self {
        DeterministicSource::new(Duration::from_us(13_250), 424)
    }
}

impl Source for DeterministicSource {
    fn next_emission(&mut self, _rng: &mut SimRng) -> Option<Emission> {
        let at = self.next_at;
        self.next_at = at + self.gap;
        Some(Emission {
            at,
            len_bits: self.len_bits,
        })
    }

    fn mean_rate_bps(&self) -> Option<f64> {
        Some(self.len_bits as f64 / self.gap.as_secs_f64())
    }

    fn period(&self) -> Option<Duration> {
        Some(self.gap)
    }

    fn draws(&self) -> bool {
        false
    }
}

/// An adversarial source: every `period`, emits `burst` packets
/// back-to-back (all stamped at the same instant).
///
/// Not part of the paper's source mix — used by saturation and bound tests
/// to realize worst-case token-bucket behaviour (a full bucket dumped at
/// once), and to show what happens to FCFS under misbehaving traffic.
#[derive(Clone, Debug)]
pub struct BurstSource {
    period: Duration,
    burst: u32,
    len_bits: u32,
    next_burst_at: Time,
    remaining_in_burst: u32,
}

impl BurstSource {
    /// Create a burst source; first burst at `Time::ZERO + period`.
    ///
    /// # Panics
    /// Panics if `period` is zero or `burst` is zero.
    pub fn new(period: Duration, burst: u32, len_bits: u32) -> Self {
        assert!(period > Duration::ZERO, "BurstSource: zero period");
        assert!(burst > 0, "BurstSource: empty burst");
        BurstSource {
            period,
            burst,
            len_bits,
            next_burst_at: Time::ZERO + period,
            remaining_in_burst: 0,
        }
    }
}

impl Source for BurstSource {
    fn next_emission(&mut self, _rng: &mut SimRng) -> Option<Emission> {
        if self.remaining_in_burst == 0 {
            self.remaining_in_burst = self.burst;
        }
        let at = self.next_burst_at;
        self.remaining_in_burst -= 1;
        if self.remaining_in_burst == 0 {
            self.next_burst_at = at + self.period;
        }
        Some(Emission {
            at,
            len_bits: self.len_bits,
        })
    }

    fn mean_rate_bps(&self) -> Option<f64> {
        Some(self.burst as f64 * self.len_bits as f64 / self.period.as_secs_f64())
    }

    fn draws(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceExt;

    #[test]
    fn paper_cbr_is_32kbps() {
        let s = DeterministicSource::paper_cbr();
        assert!((s.mean_rate_bps().unwrap() - 32_000.0).abs() < 1.0);
        // The phase does not change the period; a burst source has none.
        let s = s.with_offset(Duration::from_ms(2));
        assert_eq!(s.period(), Some(Duration::from_us(13_250)));
        assert_eq!(
            BurstSource::new(Duration::from_ms(10), 4, 424).period(),
            None
        );
    }

    #[test]
    fn exact_spacing() {
        let mut s = DeterministicSource::new(Duration::from_ms(5), 1000);
        let mut rng = SimRng::seed_from(0);
        let em = s.emissions_until(Time::from_secs(1), &mut rng);
        assert_eq!(em.len(), 199); // 5ms, 10ms, …, 995ms
        for (i, e) in em.iter().enumerate() {
            assert_eq!(e.at, Time::from_ms(5 * (i as u64 + 1)));
        }
    }

    #[test]
    fn offset_shifts_phase() {
        let mut s =
            DeterministicSource::new(Duration::from_ms(5), 424).with_offset(Duration::from_ms(2));
        let mut rng = SimRng::seed_from(0);
        assert_eq!(s.next_emission(&mut rng).unwrap().at, Time::from_ms(7));
    }

    #[test]
    fn burst_source_emits_simultaneous_packets() {
        let mut s = BurstSource::new(Duration::from_ms(10), 4, 424);
        let mut rng = SimRng::seed_from(0);
        let em = s.emissions_until(Time::from_ms(25), &mut rng);
        assert_eq!(em.len(), 8);
        assert!(em[..4].iter().all(|e| e.at == Time::from_ms(10)));
        assert!(em[4..].iter().all(|e| e.at == Time::from_ms(20)));
    }

    #[test]
    fn burst_rate() {
        let s = BurstSource::new(Duration::from_ms(100), 10, 424);
        assert!((s.mean_rate_bps().unwrap() - 42_400.0).abs() < 1.0);
    }
}
