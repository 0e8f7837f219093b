//! Figures 9–11 — probability distribution of end-to-end delays of a
//! tagged five-hop Poisson session against two upper bounds (10-minute
//! CROSS runs):
//!
//! * the **analytic** bound: the M/D/1 sojourn CCDF of the session's
//!   reference server, shifted right by `β + α` (ineq. 16);
//! * the **simulated** bound: the same shift applied to the CCDF measured
//!   on a co-simulated reference server fed by the identical arrivals —
//!   the paper's recipe for sessions that resist analysis.
//!
//! | Figure | tagged session             | cross traffic              |
//! |--------|----------------------------|----------------------------|
//! | 9      | a_P = 1.5143 ms, 400 kbit/s (ρ=0.7)  | Poisson 1136 kbit/s, a_P = 0.3929 ms |
//! | 10     | a_P = 40 ms, 32 kbit/s (ρ=0.33)      | Poisson 1472 kbit/s, a_P = 0.28804 ms |
//! | 11     | a_P = 40 ms, 32 kbit/s (ρ=0.33)      | 47 × 32 kbit/s CBR per route |
//!
//! Paper shape: Fig. 9's analytic bound is tight enough for percentile
//! planning (≈ 26 ms bound vs ≈ 23 ms observed at the 10⁻⁴ tail); Fig. 10's
//! is loose (low reserved rate inflates β); Fig. 11 shows the same session
//! tight again under CBR cross traffic.

use super::common::{
    build_cross_poisson, max_lateness_fraction, run_points, CrossTraffic, PooledSession, RunConfig,
    CROSS_1136K_GAP, CROSS_1472K_GAP, TAGGED_400K_GAP,
};
use crate::report::{frac, Table};
use lit_analysis::Md1;
use lit_core::PathBounds;
use lit_sim::Duration;
use lit_traffic::ATM_CELL_BITS;

/// Which of the three figures to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Figure 9.
    Fig9,
    /// Figure 10.
    Fig10,
    /// Figure 11.
    Fig11,
}

impl Variant {
    /// Tagged session `(rate_bps, mean_gap)`.
    pub fn session(self) -> (u64, Duration) {
        match self {
            Variant::Fig9 => (400_000, TAGGED_400K_GAP),
            Variant::Fig10 | Variant::Fig11 => (32_000, Duration::from_ms(40)),
        }
    }

    /// Cross-traffic configuration.
    pub fn cross(self) -> CrossTraffic {
        match self {
            Variant::Fig9 => CrossTraffic::Poisson {
                rate_bps: 1_136_000,
                mean_gap: CROSS_1136K_GAP,
            },
            Variant::Fig10 => CrossTraffic::Poisson {
                rate_bps: 1_472_000,
                mean_gap: CROSS_1472K_GAP,
            },
            Variant::Fig11 => CrossTraffic::Deterministic { count: 47 },
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Fig9 => "Figure 9",
            Variant::Fig10 => "Figure 10",
            Variant::Fig11 => "Figure 11",
        }
    }
}

/// One CCDF sample point.
#[derive(Clone, Copy, Debug)]
pub struct CcdfPoint {
    /// Delay value `d`.
    pub delay: Duration,
    /// Empirical `P(D > d)` of the tagged session.
    pub empirical: f64,
    /// Analytic upper bound (shifted M/D/1).
    pub analytic_bound: f64,
    /// Simulated upper bound (shifted measured reference CCDF).
    pub simulated_bound: f64,
}

/// The experiment's result.
#[derive(Clone, Debug)]
pub struct DistResult {
    /// Which figure.
    pub variant: Variant,
    /// Utilization `ρ` of the tagged session's reference server.
    pub rho: f64,
    /// The shift `β + α` applied by ineq. (16).
    pub shift: Duration,
    /// CCDF curves on a delay grid.
    pub points: Vec<CcdfPoint>,
    /// Delivered packets of the tagged session.
    pub delivered: u64,
    /// Scheduler-saturation diagnostic.
    pub lateness_fraction: f64,
}

impl DistResult {
    /// The smallest grid delay with empirical CCDF at or below `p`
    /// (a percentile read-out, as the paper's 0.01 % example).
    pub fn empirical_percentile(&self, p: f64) -> Option<Duration> {
        self.points
            .iter()
            .find(|pt| pt.empirical <= p)
            .map(|pt| pt.delay)
    }

    /// Same read-out on the analytic bound curve.
    pub fn analytic_percentile(&self, p: f64) -> Option<Duration> {
        self.points
            .iter()
            .find(|pt| pt.analytic_bound <= p)
            .map(|pt| pt.delay)
    }
}

/// Run one of Figures 9–11: [`RunConfig::replicas`] independent runs on
/// the worker pool, pooled into one empirical distribution before the
/// CCDF grid is evaluated.
pub fn run(cfg: &RunConfig, variant: Variant) -> DistResult {
    let (rate, gap) = variant.session();
    let seeds = cfg.replica_seeds();
    let reps: Vec<(PooledSession, PathBounds, f64)> = run_points(cfg, &seeds, |_, &seed| {
        let (mut net, tagged) = build_cross_poisson(cfg, rate, gap, variant.cross(), seed);
        net.run_until(cfg.horizon(600));
        let rep = (
            PooledSession::from_stats(net.session_stats(tagged)),
            PathBounds::for_session(&net, tagged),
            max_lateness_fraction(&net),
        );
        cfg.collector.retire(net);
        rep
    });
    // Bounds depend only on admission, identical in every replica.
    let pb = reps[0].1.clone();
    let lateness_fraction = reps
        .iter()
        .map(|&(_, _, l)| l)
        .fold(f64::NEG_INFINITY, f64::max);
    let st = PooledSession::pool(reps.into_iter().map(|(s, _, _)| s).collect());

    let service = Duration::from_bits_at_rate(ATM_CELL_BITS as u64, rate);
    let md1 = Md1::from_mean_gap(gap, service);
    let shift_ps = u64::try_from(pb.shift_ps().max(0)).expect("shift fits u64 ps");
    let shift = Duration::from_ps(shift_ps);

    // Delay grid: half-millisecond steps from 0 to past the largest
    // observed delay (and at least past the shift, where the bounds
    // start to fall below 1).
    let max_obs = st.max_delay().unwrap_or(Duration::ZERO);
    // Extend far enough past the shift for the analytic bound to decay
    // through the percentiles the paper reads off (10⁻⁴ and below).
    let top = (max_obs + Duration::from_ms(20)).max(shift + Duration::from_ms(150));
    let step = Duration::from_us(500);
    let mut points = Vec::new();
    let mut d = Duration::ZERO;
    while d <= top {
        let empirical = st.e2e.ccdf_at(d);
        let analytic = pb.delay_ccdf_bound(|t| md1.sojourn_ccdf(t), d);
        let simulated = pb.delay_ccdf_bound(|t| st.reference.ccdf_at(t), d);
        points.push(CcdfPoint {
            delay: d,
            empirical,
            analytic_bound: analytic,
            simulated_bound: simulated,
        });
        d += step;
    }

    DistResult {
        variant,
        rho: md1.rho(),
        shift,
        points,
        delivered: st.delivered,
        lateness_fraction,
    }
}

/// Render the CCDF curves as a table.
pub fn table(r: &DistResult) -> Table {
    let mut t = Table::new(
        format!(
            "{} — P(delay > d), rho = {:.3}, shift beta+alpha = {:.3} ms, {} packets",
            r.variant.name(),
            r.rho,
            r.shift.as_millis_f64(),
            r.delivered
        ),
        &["delay_ms", "empirical", "analytic_bound", "simulated_bound"],
    );
    for p in &r.points {
        // Skip the flat all-ones prefix to keep tables readable.
        if p.empirical >= 1.0 && p.analytic_bound >= 1.0 && p.simulated_bound >= 1.0 {
            continue;
        }
        t.push(vec![
            format!("{:.1}", p.delay.as_millis_f64()),
            frac(p.empirical),
            frac(p.analytic_bound),
            frac(p.simulated_bound),
        ]);
    }
    t
}
