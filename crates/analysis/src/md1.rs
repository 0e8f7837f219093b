//! Exact M/D/1 queueing analysis.
//!
//! The reference server of a Poisson session is an M/D/1 queue (Poisson
//! arrivals, deterministic service `D = L/r`, one server). The paper's
//! Figures 9–11 compare simulated end-to-end delay CCDFs against an
//! analytic upper bound obtained by shifting the *reference server's* delay
//! distribution (ineq. 16), "calculated following the results presented in
//! [16, 21]" — i.e. the classical Erlang/Crommelin waiting-time formula,
//! which we implement here:
//!
//! ```text
//! P(W ≤ t) = (1 − ρ) · Σ_{k=0}^{⌊t/D⌋} (−1)^k e^{λ(t−kD)} (λ(t−kD))^k / k!
//! ```
//!
//! The series is alternating with terms growing like `e^{λt}`, so the
//! cancellation costs roughly `λt / ln 10` decimal digits; direct `f64`
//! evaluation is accurate up to `λ·t ≈ 30`, which covers every operating
//! point in the paper's figures. Beyond that the implementation switches to
//! the exact Cramér–Lundberg exponential tail `P(W > t) ∝ e^{−θt}`
//! (with `θ` the unique positive root of `λ(e^{θD} − 1) = θ`), anchored
//! continuously at the last stable point — asymptotically exact and
//! monotone.

#![expect(
    clippy::disallowed_methods,
    reason = "float by design: queueing theory in f64 seconds; a Duration enters and leaves only as a report value"
)]

use lit_sim::Duration;

/// An M/D/1 queue: Poisson arrivals at rate `λ`, fixed service time `D`.
///
/// ```
/// use lit_analysis::Md1;
/// use lit_sim::Duration;
///
/// // The paper's Figure 9 reference server: a_P = 1.5143 ms,
/// // 424-bit cells at 400 kbit/s (rho = 0.7).
/// let q = Md1::from_mean_gap(
///     Duration::from_secs_f64(1.5143e-3),
///     Duration::from_bits_at_rate(424, 400_000),
/// );
/// assert!((q.rho() - 0.7).abs() < 1e-3);
/// // Sojourn tail used by the ineq.-16 bound:
/// let p = q.sojourn_ccdf(Duration::from_ms(10));
/// assert!(p > 0.0 && p < 0.1);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Md1 {
    /// Arrival rate in packets per second.
    lambda: f64,
    /// Service time in seconds.
    service: f64,
}

impl Md1 {
    /// Construct from the arrival rate (packets/s) and service time.
    ///
    /// # Panics
    /// Panics unless `0 < λ·D < 1` (the queue must be stable) and both
    /// parameters are positive and finite.
    pub fn new(lambda_per_sec: f64, service: Duration) -> Self {
        let d = service.as_secs_f64();
        assert!(
            lambda_per_sec.is_finite() && lambda_per_sec > 0.0,
            "Md1: bad lambda"
        );
        assert!(d > 0.0, "Md1: zero service time");
        let rho = lambda_per_sec * d;
        assert!(rho < 1.0, "Md1: unstable (rho = {rho})");
        Md1 {
            lambda: lambda_per_sec,
            service: d,
        }
    }

    /// Convenience constructor from mean interarrival gap `a_P` and service
    /// time (the paper's parameterization).
    pub fn from_mean_gap(mean_gap: Duration, service: Duration) -> Self {
        Md1::new(1.0 / mean_gap.as_secs_f64(), service)
    }

    /// Utilization `ρ = λ·D`.
    pub fn rho(&self) -> f64 {
        self.lambda * self.service
    }

    /// Mean waiting time (excluding service): `ρD / (2(1−ρ))`
    /// (Pollaczek–Khinchine).
    pub fn mean_wait(&self) -> Duration {
        let rho = self.rho();
        Duration::from_secs_f64(rho * self.service / (2.0 * (1.0 - rho)))
    }

    /// Mean sojourn time (waiting + service).
    pub fn mean_sojourn(&self) -> Duration {
        self.mean_wait() + Duration::from_secs_f64(self.service)
    }

    /// Crommelin's alternating series, returning `(cdf, noise)` where
    /// `noise` is an estimate of the absolute cancellation error: the
    /// largest term magnitude times the term count times `f64` epsilon.
    fn wait_cdf_series(&self, t: f64) -> (f64, f64) {
        let d = self.service;
        let lam = self.lambda;
        let kmax = (t / d).floor() as i64;
        if kmax < 0 {
            return (0.0, 0.0);
        }
        // ln-factorial built incrementally; Kahan-compensated sum.
        let mut sum = 0.0f64;
        let mut comp = 0.0f64;
        let mut ln_fact = 0.0f64;
        let mut max_mag = 0.0f64;
        for k in 0..=kmax {
            if k > 0 {
                ln_fact += (k as f64).ln();
            }
            let x = lam * (t - k as f64 * d); // ≥ 0 for k ≤ kmax
            let ln_mag = if x > 0.0 {
                k as f64 * x.ln() + x - ln_fact
            } else {
                // x == 0 ⇒ the k = 0 term is e^0 = 1; higher k contribute 0.
                if k == 0 {
                    0.0
                } else {
                    f64::NEG_INFINITY
                }
            };
            let mag = ln_mag.exp();
            max_mag = max_mag.max(mag);
            let term = mag * if k % 2 == 0 { 1.0 } else { -1.0 };
            // Kahan step.
            let y = term - comp;
            let s = sum + y;
            comp = (s - sum) - y;
            sum = s;
        }
        let scale = 1.0 - self.rho();
        let noise = scale * max_mag * (kmax + 1) as f64 * f64::EPSILON;
        ((scale * sum).clamp(0.0, 1.0), noise)
    }

    /// The asymptotic decay rate `θ` of `P(W > t)`: the unique positive
    /// root of `λ(e^{θD} − 1) = θ` (the pole of the Pollaczek–Khinchine
    /// transform), found by bisection.
    pub fn tail_decay_rate(&self) -> f64 {
        let lam = self.lambda;
        let d = self.service;
        let f = |theta: f64| lam * ((theta * d).exp() - 1.0) - theta;
        // f(0) = 0 with f'(0) = ρ − 1 < 0; f → +∞. Bracket the root.
        let mut hi = 1.0 / d;
        while f(hi) <= 0.0 {
            hi *= 2.0;
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if f(mid) <= 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The largest time at which the series CCDF still dominates its own
    /// cancellation noise by a factor of 100 — the hand-off point to the
    /// exponential tail. Found by stepping down from the requested time in
    /// service-time increments.
    fn tail_anchor(&self, t: f64) -> f64 {
        // Never start above λt = 30: beyond that the series terms overflow
        // towards infinity and the value is pure noise anyway.
        let mut anchor = t.min(30.0 / self.lambda);
        loop {
            let (cdf, noise) = self.wait_cdf_series(anchor);
            if 1.0 - cdf > 100.0 * noise || anchor <= self.service {
                return anchor;
            }
            anchor -= self.service;
        }
    }

    /// `P(W ≤ t)` — CDF of the FIFO waiting time.
    pub fn wait_cdf(&self, t: Duration) -> f64 {
        let t = t.as_secs_f64();
        if self.lambda * t <= 30.0 {
            let (direct, noise) = self.wait_cdf_series(t);
            // Direct evaluation is fine while the answer dwarfs the noise.
            if 1.0 - direct > 100.0 * noise {
                return direct;
            }
        }
        // Otherwise: exact exponential tail, anchored continuously at the
        // last time the series is trustworthy.
        let anchor = self.tail_anchor(t);
        let anchor_ccdf = (1.0 - self.wait_cdf_series(anchor).0).max(0.0);
        let theta = self.tail_decay_rate();
        let ccdf = anchor_ccdf * (-theta * (t - anchor)).exp();
        (1.0 - ccdf).clamp(0.0, 1.0)
    }

    /// `P(W > t)` — complementary CDF of the waiting time.
    pub fn wait_ccdf(&self, t: Duration) -> f64 {
        1.0 - self.wait_cdf(t)
    }

    /// `P(D_ref > t)` where `D_ref = W + D` is the total delay through the
    /// reference server — the quantity the paper's ineq. 16 shifts.
    pub fn sojourn_ccdf(&self, t: Duration) -> f64 {
        match t.checked_sub(Duration::from_secs_f64(self.service)) {
            Some(w) => self.wait_ccdf(w),
            // Delay is always at least the service time.
            None => 1.0,
        }
    }

    /// `P(D_ref ≤ t)`.
    pub fn sojourn_cdf(&self, t: Duration) -> f64 {
        1.0 - self.sojourn_ccdf(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_sim::{SimRng, Time};
    use lit_traffic::{PoissonSource, Source};

    /// Paper Fig. 9 session: a_P = 1.5143 ms, r = 400 kbit/s, L = 424 bits.
    fn fig9_queue() -> Md1 {
        Md1::from_mean_gap(
            Duration::from_secs_f64(1.5143e-3),
            Duration::from_bits_at_rate(424, 400_000),
        )
    }

    #[test]
    fn rho_matches_paper_utilizations() {
        assert!((fig9_queue().rho() - 0.7).abs() < 0.001);
        // Fig. 10 session: a_P = 40 ms, r = 32 kbit/s → ρ = 0.33.
        let q = Md1::from_mean_gap(
            Duration::from_ms(40),
            Duration::from_bits_at_rate(424, 32_000),
        );
        assert!((q.rho() - 0.33125).abs() < 0.001, "rho={}", q.rho());
    }

    #[test]
    fn cdf_boundaries() {
        let q = fig9_queue();
        assert_eq!(q.wait_cdf(Duration::ZERO), 1.0 - q.rho());
        // Far tail: effectively 1.
        assert!(q.wait_cdf(Duration::from_secs(5)) > 1.0 - 1e-9);
        // Sojourn below the service time is impossible.
        assert_eq!(q.sojourn_ccdf(Duration::from_us(500)), 1.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let q = fig9_queue();
        let mut prev = 0.0;
        for i in 0..500 {
            let t = Duration::from_us(i * 100);
            let c = q.wait_cdf(t);
            // The alternating series carries a cancellation-noise floor
            // bounded (by construction) at 1 % of the local CCDF.
            assert!(
                c + 0.011 * (1.0 - c).max(1e-12) >= prev,
                "non-monotone at {t}: {c} < {prev}"
            );
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
    }

    #[test]
    fn mean_wait_pollaczek_khinchine() {
        let q = fig9_queue();
        // rho=0.7, D=1.06ms -> E[W] = 0.7*1.06/(2*0.3) = 1.2366... ms
        let want = 0.7 * 1.06e-3 / (2.0 * 0.3);
        assert!((q.mean_wait().as_secs_f64() - want).abs() < 2e-6);
    }

    #[test]
    fn mean_wait_agrees_with_integrated_ccdf() {
        // E[W] = ∫ P(W > t) dt — ties the distribution to the PK mean.
        let q = fig9_queue();
        let dt = 2e-5;
        let mut acc = 0.0;
        let mut t = 0.0;
        while t < 0.2 {
            acc += q.wait_ccdf(Duration::from_secs_f64(t)) * dt;
            t += dt;
        }
        let want = q.mean_wait().as_secs_f64();
        assert!(
            (acc - want).abs() / want < 0.02,
            "integrated={acc}, pk={want}"
        );
    }

    /// Simulate the reference server (eq. 1 of the paper) fed by a Poisson
    /// source and compare the empirical delay CCDF to the analytic one.
    #[test]
    fn analytic_matches_simulated_reference_server() {
        let q = fig9_queue();
        let mut src = PoissonSource::new(Duration::from_secs_f64(1.5143e-3), 424);
        let mut rng = SimRng::seed_from(1234);
        let service = Duration::from_bits_at_rate(424, 400_000);
        let mut w_prev = Time::ZERO; // W_{0} = t_1 handled on first packet
        let mut first = true;
        let mut delays: Vec<Duration> = Vec::new();
        for _ in 0..400_000u32 {
            let e = src.next_emission(&mut rng).unwrap();
            if first {
                w_prev = e.at;
                first = false;
            }
            let w = e.at.max(w_prev) + service;
            delays.push(w - e.at);
            w_prev = w;
        }
        let n = delays.len() as f64;
        for t_ms in [2.0, 5.0, 10.0, 15.0] {
            let t = Duration::from_millis_f64(t_ms);
            let emp = delays.iter().filter(|&&d| d > t).count() as f64 / n;
            let ana = q.sojourn_ccdf(t);
            let tol = 3.0 * (ana * (1.0 - ana) / n).sqrt() + 0.003;
            assert!(
                (emp - ana).abs() < tol,
                "t={t_ms}ms emp={emp} ana={ana} tol={tol}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn rejects_unstable_queue() {
        let _ = Md1::new(1000.0, Duration::from_ms(2));
    }
}
