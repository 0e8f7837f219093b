//! Figures 14–17 — delay shifting with admission control procedure 2 and
//! two classes, MIX ON-OFF sweep (5-minute runs).
//!
//! Class 1 (R₁ = 640 kbit/s, σ₁ = 2.77 ms ⇒ d = 2.77 ms) holds 5 five-hop
//! and 5 four-hop sessions; class 2 (R₂ = C, σ₂ = 13.25 ms ⇒ d ≈ 18.77 ms)
//! holds everything else. Four tagged five-hop sessions are measured:
//! class 1 and class 2, each with and without delay-jitter control.
//!
//! Paper observation: class-1 sessions see markedly lower delay *and*
//! jitter than class-2 sessions — the class hierarchy shifts delay from
//! one set of sessions to the other without touching anyone's reserved
//! rate.

use super::common::{
    build_mix_ac2, build_mix_classed, max_lateness_fraction, run_points, voice_bounds, RunConfig,
    A_OFF_SWEEP_US,
};
use crate::report::{ms, Table};
use lit_core::Procedure;
use lit_net::{Network, SessionId};
use lit_sim::Duration;

/// Measurements of one tagged session at one sweep point.
#[derive(Clone, Copy, Debug)]
pub struct TaggedMeasure {
    /// Observed maximum end-to-end delay.
    pub max_delay: Duration,
    /// Observed jitter.
    pub jitter: Duration,
    /// Mean delay.
    pub mean_delay: Duration,
    /// Analytic delay bound (ineq. 12 with D^ref = L/r token bucket).
    pub delay_bound: Duration,
    /// Analytic jitter bound for the session's jitter-control mode.
    pub jitter_bound: Duration,
    /// Delivered packets.
    pub delivered: u64,
}

/// One sweep point: the four tagged sessions of Figures 14–17 in order
/// (class 1 no-JC, class 1 JC, class 2 no-JC, class 2 JC).
#[derive(Clone, Copy, Debug)]
pub struct Fig14Point {
    /// Mean OFF duration of every source.
    pub a_off: Duration,
    /// Figures 14, 15, 16, 17 respectively.
    pub tagged: [TaggedMeasure; 4],
    /// Scheduler-saturation diagnostic.
    pub lateness_fraction: f64,
}

fn measure(net: &Network, id: SessionId, jc: bool) -> TaggedMeasure {
    let st = net.session_stats(id);
    let (pb, dref) = voice_bounds(net, id);
    TaggedMeasure {
        max_delay: st.max_delay().unwrap_or(Duration::ZERO),
        jitter: st.jitter().unwrap_or(Duration::ZERO),
        mean_delay: st.mean_delay().unwrap_or(Duration::ZERO),
        delay_bound: pb.delay_bound(dref),
        jitter_bound: pb.jitter_bound(dref, jc),
        delivered: st.delivered,
    }
}

/// Run one sweep point.
pub fn point(cfg: &RunConfig, a_off: Duration) -> Fig14Point {
    let (mut net, tagged) = build_mix_ac2(cfg, a_off);
    net.run_until(cfg.horizon(300));
    let point = Fig14Point {
        a_off,
        tagged: [
            measure(&net, tagged.class1_nojc, false),
            measure(&net, tagged.class1_jc, true),
            measure(&net, tagged.class2_nojc, false),
            measure(&net, tagged.class2_jc, true),
        ],
        lateness_fraction: max_lateness_fraction(&net),
    };
    cfg.collector.retire(net);
    point
}

/// Run the full sweep on the shared worker pool.
pub fn run(cfg: &RunConfig) -> Vec<Fig14Point> {
    run_points(cfg, &A_OFF_SWEEP_US, |_, &us| {
        point(cfg, Duration::from_us(us))
    })
}

/// Labels of the four tagged sessions, in array order.
pub const TAGGED_LABELS: [&str; 4] = [
    "fig14:class1-nojc",
    "fig15:class1-jc",
    "fig16:class2-nojc",
    "fig17:class2-jc",
];

/// Render the sweep as a table (one row per point × tagged session).
pub fn table(points: &[Fig14Point]) -> Table {
    let mut t = Table::new(
        "Figures 14-17 — AC2 with two classes (class 1: d = 2.77 ms; class 2: d = 18.77 ms)",
        &[
            "a_off_ms",
            "session",
            "max_delay_ms",
            "jitter_ms",
            "mean_delay_ms",
            "delay_bound_ms",
            "jitter_bound_ms",
            "delivered",
        ],
    );
    for p in points {
        for (label, m) in TAGGED_LABELS.iter().zip(&p.tagged) {
            t.push(vec![
                format!("{:.1}", p.a_off.as_millis_f64()),
                label.to_string(),
                ms(m.max_delay),
                ms(m.jitter),
                ms(m.mean_delay),
                ms(m.delay_bound),
                ms(m.jitter_bound),
                m.delivered.to_string(),
            ]);
        }
    }
    t
}

/// The paper's AC1-vs-AC2 remark, measured: the same two-class MIX
/// experiment under both procedures, comparing the class-1 and class-2
/// tagged sessions' bounds and observations.
pub fn procedure_comparison(cfg: &RunConfig, a_off: Duration) -> Table {
    let mut t = Table::new(
        "Figures 14-17 addendum — procedure 1 vs procedure 2, same class ladder",
        &[
            "procedure",
            "session",
            "d_ms",
            "max_delay_ms",
            "jitter_ms",
            "delay_bound_ms",
        ],
    );
    for (name, procedure) in [("AC1", Procedure::Proc1), ("AC2", Procedure::Proc2)] {
        let (mut net, tagged) = build_mix_classed(cfg, a_off, procedure);
        net.run_until(cfg.horizon(300));
        for (label, id) in [
            ("class1-nojc", tagged.class1_nojc),
            ("class2-nojc", tagged.class2_nojc),
        ] {
            let m = measure(&net, id, false);
            let (_, first_hop) = net.session_hops(id).next().expect("a route has a hop");
            let d = first_hop.d_max(424, net.session_spec(id).rate_bps);
            t.push(vec![
                name.to_string(),
                label.to_string(),
                ms(d),
                ms(m.max_delay),
                ms(m.jitter),
                ms(m.delay_bound),
            ]);
        }
        cfg.collector.retire(net);
    }
    t
}
