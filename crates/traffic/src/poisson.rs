//! Poisson source (paper §3): exponentially distributed interarrival times
//! with mean `a_P`, fixed packet length.
//!
//! The paper uses Poisson sessions for two purposes: to exercise the
//! firewall property (their reference-server backlog is unbounded, so they
//! stress the scheduler), and because the reference server of a Poisson
//! session is an M/D/1 queue whose delay distribution is known in closed
//! form — which is what makes the analytic bound of Figures 9–11 computable.

use crate::source::{Emission, Source};
use lit_sim::{Duration, SimRng, Time};

/// A Poisson packet source.
#[derive(Clone, Debug)]
pub struct PoissonSource {
    /// Mean interarrival time `a_P`.
    mean_gap: Duration,
    /// Fixed packet length in bits.
    len_bits: u32,
    /// Internal clock: time of the previous emission.
    now: Time,
}

impl PoissonSource {
    /// Create a source with mean interarrival `mean_gap` and fixed packet
    /// length `len_bits`.
    ///
    /// # Panics
    /// Panics if `mean_gap` is zero (the arrival rate would be infinite).
    pub fn new(mean_gap: Duration, len_bits: u32) -> Self {
        assert!(mean_gap > Duration::ZERO, "PoissonSource: zero mean gap");
        PoissonSource {
            mean_gap,
            len_bits,
            now: Time::ZERO,
        }
    }

    /// The configured mean interarrival time.
    pub fn mean_gap(&self) -> Duration {
        self.mean_gap
    }

    /// Arrival rate λ in packets per second.
    pub fn lambda(&self) -> f64 {
        1.0 / self.mean_gap.as_secs_f64()
    }
}

impl Source for PoissonSource {
    fn next_emission(&mut self, rng: &mut SimRng) -> Option<Emission> {
        let gap = rng.exponential(self.mean_gap);
        self.now += gap;
        Some(Emission {
            at: self.now,
            len_bits: self.len_bits,
        })
    }

    fn mean_rate_bps(&self) -> Option<f64> {
        Some(self.len_bits as f64 * self.lambda())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceExt;

    #[test]
    fn rate_matches_lambda() {
        // Paper Fig. 9 session: a_P = 1.5143 ms, 424-bit packets
        // => 424/0.0015143 ≈ 280 kbit/s offered on a 400 kbit/s reservation.
        let mut s = PoissonSource::new(Duration::from_ns(1_514_300), 424);
        let mut rng = SimRng::seed_from(21);
        let horizon = Time::from_secs(600);
        let em = s.emissions_until(horizon, &mut rng);
        let bits: u64 = em.iter().map(|e| e.len_bits as u64).sum();
        let rate = bits as f64 / horizon.as_secs_f64();
        let want = s.mean_rate_bps().unwrap();
        assert!((rate - want).abs() / want < 0.02, "rate={rate} want={want}");
        assert!((want - 279_963.0).abs() < 100.0, "want={want}");
    }

    #[test]
    fn interarrival_cv_close_to_one() {
        // Exponential gaps have coefficient of variation 1.
        let mut s = PoissonSource::new(Duration::from_ms(10), 424);
        let mut rng = SimRng::seed_from(2);
        let em = s.emissions_until(Time::from_secs(2_000), &mut rng);
        let gaps: Vec<f64> = em
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_secs_f64())
            .collect();
        let n = gaps.len() as f64;
        let mean = gaps.iter().sum::<f64>() / n;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv={cv}");
    }

    #[test]
    fn monotone_strictly_increasing_clock() {
        let mut s = PoissonSource::new(Duration::from_us(100), 424);
        let mut rng = SimRng::seed_from(3);
        let mut prev = Time::ZERO;
        for _ in 0..1000 {
            let e = s.next_emission(&mut rng).unwrap();
            assert!(e.at >= prev);
            prev = e.at;
        }
    }

    #[test]
    #[should_panic(expected = "zero mean gap")]
    fn zero_gap_rejected() {
        let _ = PoissonSource::new(Duration::ZERO, 424);
    }
}
