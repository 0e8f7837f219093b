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
    run_replicas, Pooled, RunConfig, Tandem, CROSS_1136K_GAP, CROSS_1472K_GAP, TAGGED_400K_GAP,
    VOICE_BPS,
};
use crate::report::{frac, Table};
use crate::topology::{cross_routes, five_hop};
use lit_analysis::Md1;
use lit_net::{Network, SessionId};
use lit_sim::Duration;
use lit_traffic::{DeterministicSource, PoissonSource, ATM_CELL_BITS};

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

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Fig9 => "Figure 9",
            Variant::Fig10 => "Figure 10",
            Variant::Fig11 => "Figure 11",
        }
    }
}

/// Build one replica's CROSS network: the tagged five-hop Poisson
/// session, then the variant's cross traffic on every one-hop route.
fn build(cfg: &RunConfig, variant: Variant, seed: u64) -> (Network, [SessionId; 1]) {
    let (rate, gap) = variant.session();
    let poisson = |gap| PoissonSource::new(gap, ATM_CELL_BITS);
    let mut t = Tandem::one_class(seed);
    let tagged = t.admit(five_hop(), 0, rate, false, poisson(gap));
    for route in cross_routes() {
        match variant {
            Variant::Fig9 => {
                t.admit(route, 0, 1_136_000, false, poisson(CROSS_1136K_GAP));
            }
            Variant::Fig10 => {
                t.admit(route, 0, 1_472_000, false, poisson(CROSS_1472K_GAP));
            }
            // 47 CBR sessions, all in phase (each starts at connection
            // time), so each frame delivers one aligned 47-packet batch —
            // the worst case Figure 11 exercises, where the bound tightens
            // against the observation.
            Variant::Fig11 => {
                for _ in 0..47 {
                    t.admit(route, 0, VOICE_BPS, false, DeterministicSource::paper_cbr());
                }
            }
        }
    }
    (t.build(cfg), [tagged])
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
    let Pooled {
        sessions: [st],
        bounds: [pb],
        lateness_fraction,
    } = run_replicas(cfg, |seed| build(cfg, variant, seed));

    let service = Duration::from_bits_at_rate(ATM_CELL_BITS as u64, rate);
    let md1 = Md1::from_mean_gap(gap, service);
    let shift_ps = u64::try_from(pb.shift_ps().max(0)).expect("shift fits u64 ps");
    let shift = Duration::from_ps(shift_ps);

    // Delay grid: half-millisecond steps from 0 to past the largest
    // observed delay, and far enough past the shift for the analytic bound
    // to decay through the percentiles the paper reads off (10⁻⁴ and below).
    let max_obs = st.e2e.max().unwrap_or(Duration::ZERO);
    let top = (max_obs + Duration::from_ms(20)).max(shift + Duration::from_ms(150));
    let step = Duration::from_us(500);
    let mut points = Vec::new();
    let mut d = Duration::ZERO;
    while d <= top {
        points.push(CcdfPoint {
            delay: d,
            empirical: st.e2e.ccdf_at(d),
            analytic_bound: pb.delay_ccdf_bound(|t| md1.sojourn_ccdf(t), d),
            simulated_bound: pb.delay_ccdf_bound(|t| st.reference.ccdf_at(t), d),
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
