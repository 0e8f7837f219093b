//! Extension experiment: the delay-distribution bound for a heavy-tailed
//! session, where no closed-form reference distribution exists.
//!
//! The paper stresses that its method "is able to provide this function
//! for sessions with **any** kind of dynamic traffic behavior" — for
//! sessions that resist analysis, ineq. (16) still works with the
//! reference-server distribution obtained *by simulation* (the recipe
//! demonstrated on Figures 9–11 with the "simulated upper bound" curve).
//!
//! Here a Pareto ON-OFF session (infinite-variance bursts and silences,
//! the self-similar regime of measured data traffic) crosses the five-hop
//! CROSS configuration; its empirical delay CCDF is compared against the
//! shifted co-simulated reference CCDF. There is no analytic column —
//! that is the point.

use super::common::{run_replicas, Pooled, RunConfig, Tandem, CROSS_1472K_GAP, VOICE_BPS};
use crate::report::{frac, Table};
use crate::topology::{cross_routes, five_hop};
use lit_net::{Network, SessionId, StatsConfig};
use lit_sim::Duration;
use lit_traffic::{ParetoOnOffConfig, ParetoOnOffSource, PoissonSource, ATM_CELL_BITS};

/// One CCDF point of the heavy-tail experiment.
#[derive(Clone, Copy, Debug)]
pub struct HeavyTailPoint {
    /// Delay value.
    pub delay: Duration,
    /// Empirical `P(D > d)`.
    pub empirical: f64,
    /// Simulated ineq.-16 bound (shifted reference CCDF).
    pub simulated_bound: f64,
}

/// The experiment's result.
#[derive(Clone, Debug)]
pub struct HeavyTailResult {
    /// CCDF curves.
    pub points: Vec<HeavyTailPoint>,
    /// Delivered packets of the tagged session.
    pub delivered: u64,
    /// Largest per-packet excess over the reference server (signed ps),
    /// versus the theoretical ceiling `β + α` (ps).
    pub max_excess_ps: i128,
    /// The ceiling itself.
    pub shift_ps: i128,
    /// Saturation diagnostic.
    pub lateness_fraction: f64,
}

/// Build the heavy-tail CROSS network for one replica seed: a
/// heavy-tailed voice-like session reserved at 32 kbit/s, and Poisson
/// cross load.
fn build(cfg: &RunConfig, seed: u64) -> (Network, [SessionId; 1]) {
    let mut t = Tandem::one_class(seed).stats(StatsConfig::default());
    let src = ParetoOnOffSource::new(ParetoOnOffConfig::heavy_voice(Duration::from_ms(650)));
    let tagged = t.admit(five_hop(), 0, VOICE_BPS, false, src);
    for route in cross_routes() {
        let src = PoissonSource::new(CROSS_1472K_GAP, ATM_CELL_BITS);
        t.admit(route, 0, 1_472_000, false, src);
    }
    (t.build(cfg), [tagged])
}

/// Run the heavy-tail extension on the CROSS topology (default horizon
/// 10 minutes, as Figures 9–11): [`RunConfig::replicas`] independent
/// runs on the worker pool, pooled into one distribution.
pub fn run(cfg: &RunConfig) -> HeavyTailResult {
    let Pooled {
        sessions: [st],
        bounds: [pb],
        lateness_fraction,
    } = run_replicas(cfg, |seed| build(cfg, seed));

    let top = st.e2e.max().unwrap_or(Duration::ZERO) + Duration::from_ms(20);
    let mut points = Vec::new();
    let mut d = Duration::ZERO;
    while d <= top {
        points.push(HeavyTailPoint {
            delay: d,
            empirical: st.e2e.ccdf_at(d),
            simulated_bound: pb.delay_ccdf_bound(|t| st.reference.ccdf_at(t), d),
        });
        d += Duration::from_ms(1);
    }
    HeavyTailResult {
        points,
        delivered: st.delivered,
        max_excess_ps: st.max_excess_ps,
        shift_ps: pb.shift_ps(),
        lateness_fraction,
    }
}

/// Render as a table.
pub fn table(r: &HeavyTailResult) -> Table {
    let mut t = Table::new(
        format!(
            "Extension — heavy-tailed (Pareto) session: simulated ineq.-16 bound, {} packets, max pathwise excess {:.3} ms of {:.3} ms allowed",
            r.delivered,
            r.max_excess_ps as f64 / 1e9,
            r.shift_ps as f64 / 1e9,
        ),
        &["delay_ms", "empirical", "simulated_bound"],
    );
    for p in &r.points {
        if p.empirical >= 1.0 && p.simulated_bound >= 1.0 {
            continue;
        }
        t.push(vec![
            format!("{:.1}", p.delay.as_millis_f64()),
            frac(p.empirical),
            frac(p.simulated_bound),
        ]);
    }
    t
}
