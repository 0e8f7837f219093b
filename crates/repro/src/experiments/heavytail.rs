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

use super::common::{
    max_lateness_fraction, run_points, PooledSession, RunConfig, CROSS_1472K_GAP, T1_BPS,
};
use crate::report::{frac, Table};
use crate::topology::{cross_routes, five_hop, paper_tandem};
use lit_core::{ClassedAdmission, DRule, LitDiscipline, PathBounds, SessionRequest};
use lit_net::{DelayAssignment, NetworkBuilder, SessionId, SessionSpec};
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

/// Build the heavy-tail CROSS network for one replica seed.
fn build(cfg: &RunConfig, seed: u64) -> (lit_net::Network, SessionId) {
    let mut b = NetworkBuilder::new().seed(seed);
    let nodes = paper_tandem(&mut b);
    let mut admission: Vec<ClassedAdmission> = nodes
        .iter()
        .map(|_| ClassedAdmission::one_class(T1_BPS))
        .collect();

    // Tagged: heavy-tailed voice-like session, reserved at 32 kbit/s.
    let req = SessionRequest::new(32_000, ATM_CELL_BITS);
    let hops: Vec<(u32, DelayAssignment)> = five_hop()
        .node_indices()
        .map(|n| {
            let a = admission[n]
                .try_admit(0, &req, DRule::PerPacket)
                .expect("32 kbit/s fits");
            (nodes[n].0, a)
        })
        .collect();
    let tagged = b.add_session_with_hops(
        SessionSpec::atm(SessionId(0), 32_000),
        hops,
        Box::new(ParetoOnOffSource::new(ParetoOnOffConfig::heavy_voice(
            Duration::from_ms(650),
        ))),
    );
    // Poisson cross load.
    for route in cross_routes() {
        let creq = SessionRequest::new(1_472_000, ATM_CELL_BITS);
        let hops: Vec<(u32, DelayAssignment)> = route
            .node_indices()
            .map(|n| {
                let a = admission[n]
                    .try_admit(0, &creq, DRule::PerPacket)
                    .expect("cross fits");
                (nodes[n].0, a)
            })
            .collect();
        b.add_session_with_hops(
            SessionSpec::atm(SessionId(0), 1_472_000),
            hops,
            Box::new(PoissonSource::new(CROSS_1472K_GAP, ATM_CELL_BITS)),
        );
    }

    let net = cfg.build(b, &LitDiscipline::factory(), true);
    (net, tagged)
}

/// Run the heavy-tail extension on the CROSS topology (default horizon
/// 10 minutes, as Figures 9–11): [`RunConfig::replicas`] independent
/// runs on the worker pool, pooled into one distribution.
pub fn run(cfg: &RunConfig) -> HeavyTailResult {
    let seeds = cfg.replica_seeds();
    let reps: Vec<(PooledSession, PathBounds, f64)> = run_points(cfg, &seeds, |_, &seed| {
        let (mut net, tagged) = build(cfg, seed);
        net.run_until(cfg.horizon(600));
        let rep = (
            PooledSession::from_stats(net.session_stats(tagged)),
            PathBounds::for_session(&net, tagged),
            max_lateness_fraction(&net),
        );
        cfg.collector.retire(net);
        rep
    });
    let pb = reps[0].1.clone();
    let lateness_fraction = reps
        .iter()
        .map(|&(_, _, l)| l)
        .fold(f64::NEG_INFINITY, f64::max);
    let st = PooledSession::pool(reps.into_iter().map(|(s, _, _)| s).collect());

    let top = st.max_delay().unwrap_or(Duration::ZERO) + Duration::from_ms(20);
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
        max_excess_ps: if st.delivered > 0 {
            st.max_excess_ps
        } else {
            i128::MIN
        },
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
