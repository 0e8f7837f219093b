//! Heavy-tailed ON-OFF source — an extension beyond the paper's source
//! mix.
//!
//! The paper's guarantees hold for *any* dynamic traffic behaviour; its
//! evaluation only exercises exponential/deterministic models. Measured
//! data traffic, however, is famously heavy-tailed (self-similar), and the
//! "simulated upper bound" recipe of Figures 9–11 is exactly the tool for
//! such sessions: no closed-form reference distribution exists, but the
//! co-simulated reference server still yields a valid ineq.-16 bound.
//!
//! [`ParetoOnOffSource`] keeps the paper's ON-OFF skeleton (fixed in-burst
//! spacing `T`) but draws both the burst length (in packets) and the OFF
//! duration from Pareto distributions: `P(X > x) = (x_m/x)^α` with shape
//! `α` and scale `x_m`. Shapes in `(1, 2]` give finite mean but infinite
//! variance — the classical self-similarity regime.

use crate::source::{Emission, Source};
use lit_sim::{Duration, SimRng, Time};

/// Configuration of a heavy-tailed ON-OFF source.
#[derive(Clone, Copy, Debug)]
pub struct ParetoOnOffConfig {
    /// Pareto shape for the burst length (packets); `1 < α ≤ 2` for the
    /// heavy-tailed regime.
    pub on_shape: f64,
    /// Mean burst length in packets (must exceed 1).
    pub mean_burst_packets: f64,
    /// Pareto shape for the OFF duration.
    pub off_shape: f64,
    /// Mean OFF duration.
    pub mean_off: Duration,
    /// In-burst packet spacing `T`.
    pub spacing: Duration,
    /// Packet length in bits.
    pub len_bits: u32,
}

impl ParetoOnOffConfig {
    /// A voice-like heavy-tailed profile: spacing and packet size as the
    /// paper's ON-OFF source, burst/silence Pareto with shape 1.5.
    pub fn heavy_voice(mean_off: Duration) -> Self {
        ParetoOnOffConfig {
            on_shape: 1.5,
            mean_burst_packets: 26.566, // a_ON/T of the paper's source
            off_shape: 1.5,
            mean_off,
            spacing: Duration::from_us(13_250),
            len_bits: 424,
        }
    }
}

/// Draw a Pareto variate with the given shape and **mean**: scale is
/// derived as `x_m = mean·(α−1)/α` (finite mean requires `α > 1`).
fn pareto_with_mean(rng: &mut SimRng, shape: f64, mean: f64) -> f64 {
    debug_assert!(shape > 1.0, "pareto: shape must exceed 1 for finite mean");
    let xm = mean * (shape - 1.0) / shape;
    let u = 1.0 - rng.unit_f64(); // (0, 1]
    xm / u.powf(1.0 / shape)
}

/// The heavy-tailed ON-OFF state machine.
#[derive(Clone, Debug)]
pub struct ParetoOnOffSource {
    cfg: ParetoOnOffConfig,
    next_at: Time,
    remaining: u64,
    started: bool,
}

impl ParetoOnOffSource {
    /// Create a source; an OFF period precedes the first burst.
    ///
    /// # Panics
    /// Panics unless both shapes exceed 1 (finite means) and the mean
    /// burst length is at least 1 packet.
    pub fn new(cfg: ParetoOnOffConfig) -> Self {
        assert!(
            cfg.on_shape > 1.0 && cfg.off_shape > 1.0,
            "shapes must be > 1"
        );
        assert!(
            cfg.mean_burst_packets >= 1.0,
            "bursts must average ≥ 1 packet"
        );
        ParetoOnOffSource {
            cfg,
            next_at: Time::ZERO,
            remaining: 0,
            started: false,
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "Pareto sampling is float by nature; the 1 h cap bounds the draw before its one rounding"
    )]
    fn draw_off(&self, rng: &mut SimRng) -> Duration {
        let secs = pareto_with_mean(rng, self.cfg.off_shape, self.cfg.mean_off.as_secs_f64());
        // Cap a single silence at an hour: keeps pathological tail draws
        // from overflowing the clock while distorting the mean by < 1e-6
        // at any realistic configuration.
        Duration::from_secs_f64(secs.min(3_600.0))
    }

    fn draw_burst(&self, rng: &mut SimRng) -> u64 {
        let n = pareto_with_mean(rng, self.cfg.on_shape, self.cfg.mean_burst_packets);
        // At least one packet; cap at a million to bound event memory.
        (n.round() as u64).clamp(1, 1_000_000)
    }
}

impl Source for ParetoOnOffSource {
    fn next_emission(&mut self, rng: &mut SimRng) -> Option<Emission> {
        if !self.started {
            self.started = true;
            let off = self.draw_off(rng);
            self.remaining = self.draw_burst(rng);
            self.next_at = Time::ZERO + off;
        }
        if self.remaining == 0 {
            let off = self.draw_off(rng);
            self.remaining = self.draw_burst(rng);
            self.next_at += off;
        }
        let at = self.next_at;
        self.remaining -= 1;
        self.next_at = at + self.cfg.spacing;
        Some(Emission {
            at,
            len_bits: self.cfg.len_bits,
        })
    }

    fn mean_rate_bps(&self) -> Option<f64> {
        let t = self.cfg.spacing.as_secs_f64();
        let on = self.cfg.mean_burst_packets * t;
        let duty = on / (on + self.cfg.mean_off.as_secs_f64());
        Some(self.cfg.len_bits as f64 / t * duty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceExt;

    #[test]
    fn monotone_and_spaced() {
        let mut rng = SimRng::seed_from(5);
        let mut s = ParetoOnOffSource::new(ParetoOnOffConfig::heavy_voice(Duration::from_ms(650)));
        let mut prev = Time::ZERO;
        for _ in 0..5_000 {
            let e = s.next_emission(&mut rng).unwrap();
            assert!(e.at >= prev);
            prev = e.at;
        }
    }

    #[test]
    fn long_run_rate_tracks_mean() {
        let mut rng = SimRng::seed_from(12);
        let mut s = ParetoOnOffSource::new(ParetoOnOffConfig::heavy_voice(Duration::from_ms(650)));
        let horizon = Time::from_secs(20_000);
        let em = s.emissions_until(horizon, &mut rng);
        let bits: u64 = em.iter().map(|e| e.len_bits as u64).sum();
        let rate = bits as f64 / horizon.as_secs_f64();
        let want = s.mean_rate_bps().unwrap();
        // Heavy tails converge slowly; 20 % at this horizon is expected.
        assert!(
            (rate - want).abs() / want < 0.2,
            "rate={rate:.0} want={want:.0}"
        );
    }

    #[test]
    fn bursts_are_heavy_tailed() {
        // The burst-length distribution must produce rare giants: with
        // α = 1.5 and mean ~26, bursts over 10× the mean should appear at
        // a rate far exceeding the exponential model's (which would be
        // e^{-10} ≈ 5e-5).
        let mut rng = SimRng::seed_from(3);
        let mut giants = 0;
        let n = 20_000;
        for _ in 0..n {
            if pareto_with_mean(&mut rng, 1.5, 26.566) > 265.66 {
                giants += 1;
            }
        }
        let frac = giants as f64 / n as f64;
        assert!(frac > 0.002, "giant-burst fraction {frac}");
    }

    #[test]
    fn pareto_mean_is_calibrated() {
        let mut rng = SimRng::seed_from(7);
        let n = 2_000_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += pareto_with_mean(&mut rng, 2.5, 10.0);
        }
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean={mean}");
    }

    #[test]
    #[should_panic(expected = "shapes must be > 1")]
    fn infinite_mean_rejected() {
        let mut cfg = ParetoOnOffConfig::heavy_voice(Duration::from_ms(1));
        cfg.on_shape = 0.9;
        let _ = ParetoOnOffSource::new(cfg);
    }
}
