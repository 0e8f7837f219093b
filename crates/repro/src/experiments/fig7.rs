//! Figure 7: maximum delay and delay jitter of a five-hop ON-OFF session
//! in the MIX configuration under admission control procedure 1 with one
//! class, swept over the mean OFF time (5-minute runs).
//!
//! Paper observations to reproduce: utilization sweeps 35.1 %–98.2 %;
//! observed maximum delay stays well below the calculated upper bound
//! (≈ 72.6 ms) and is largely insensitive to utilization.

use super::common::{
    build_mix_one_class, max_lateness_fraction, run_points, voice_bounds, RunConfig, A_OFF_SWEEP_US,
};
use crate::report::{ms, Table};
use lit_net::NodeId;
use lit_sim::Duration;

/// One sweep point of Figure 7.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Point {
    /// Mean OFF duration `a_OFF`.
    pub a_off: Duration,
    /// Long-run source duty cycle (the paper's "utilization factor").
    pub expected_utilization: f64,
    /// Measured mean link utilization across the five nodes.
    pub measured_utilization: f64,
    /// Observed maximum end-to-end delay of the tagged session.
    pub max_delay: Duration,
    /// Observed end-to-end jitter (max − min).
    pub jitter: Duration,
    /// Mean end-to-end delay.
    pub mean_delay: Duration,
    /// Batch-means 95 % half-width on the mean delay (`None` for very
    /// short runs).
    pub mean_ci: Option<Duration>,
    /// Analytic delay bound (ineq. 15).
    pub delay_bound: Duration,
    /// Analytic jitter bound (no jitter control).
    pub jitter_bound: Duration,
    /// Packets delivered for the tagged session.
    pub delivered: u64,
    /// Worst `finish − deadline` across nodes as a fraction of `L_MAX/C`
    /// (< 1 ⇔ no scheduler saturation).
    pub lateness_fraction: f64,
}

/// Run one sweep point.
pub fn point(cfg: &RunConfig, a_off: Duration) -> Fig7Point {
    let (mut net, tagged) = build_mix_one_class(cfg, a_off);
    let horizon = cfg.horizon(300);
    net.run_until(horizon);
    let st = net.session_stats(tagged);
    let (pb, dref) = voice_bounds(&net, tagged);
    let measured = (0..net.num_nodes())
        .map(|n| net.node_stats(NodeId(n as u32)).utilization_at(horizon))
        .sum::<f64>()
        / net.num_nodes() as f64;
    let duty = 352.0 / (352.0 + a_off.as_millis_f64());
    let point = Fig7Point {
        a_off,
        expected_utilization: duty,
        measured_utilization: measured,
        max_delay: st.max_delay().unwrap_or(Duration::ZERO),
        jitter: st.jitter().unwrap_or(Duration::ZERO),
        mean_delay: st.mean_delay().unwrap_or(Duration::ZERO),
        mean_ci: st.mean_delay_ci().map(|(_, h)| h),
        delay_bound: pb.delay_bound(dref),
        jitter_bound: pb.jitter_bound(dref, false),
        delivered: st.delivered,
        lateness_fraction: max_lateness_fraction(&net),
    };
    cfg.collector.retire(net);
    point
}

/// Run the full sweep. Points are independent simulations; the shared
/// worker pool spreads them over [`RunConfig::worker_count`] threads.
pub fn run(cfg: &RunConfig) -> Vec<Fig7Point> {
    run_points(cfg, &A_OFF_SWEEP_US, |_, &us| {
        point(cfg, Duration::from_us(us))
    })
}

/// Render the sweep as a table.
pub fn table(points: &[Fig7Point]) -> Table {
    let mut t = Table::new(
        "Figure 7 — five-hop ON-OFF session, MIX, AC1/one class",
        &[
            "a_off_ms",
            "util_expected",
            "util_measured",
            "max_delay_ms",
            "jitter_ms",
            "mean_delay_ms",
            "mean_ci_ms",
            "delay_bound_ms",
            "jitter_bound_ms",
            "delivered",
            "lateness_frac",
        ],
    );
    for p in points {
        t.push(vec![
            format!("{:.1}", p.a_off.as_millis_f64()),
            format!("{:.3}", p.expected_utilization),
            format!("{:.3}", p.measured_utilization),
            ms(p.max_delay),
            ms(p.jitter),
            ms(p.mean_delay),
            p.mean_ci.map(ms).unwrap_or_else(|| "-".into()),
            ms(p.delay_bound),
            ms(p.jitter_bound),
            p.delivered.to_string(),
            format!("{:.3}", p.lateness_fraction),
        ]);
    }
    t
}
