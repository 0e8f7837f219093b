//! Figures 8, 12, 13 — one 10-minute CROSS run with two tagged five-hop
//! ON-OFF sessions (with/without delay-jitter control) and Poisson cross
//! traffic.
//!
//! * Figure 8: end-to-end delay distributions of the two sessions. Paper:
//!   jitter drops from 59.7 ms observed (bound 66.25 ms) without control
//!   to 12.4 ms (bound 13.25 ms) with control, at the price of a higher
//!   *average* delay.
//! * Figures 12/13: buffer-space distributions of the same two sessions at
//!   the first and last nodes, against the calculated bounds (observed max
//!   within about two packets of the bound).

use super::common::{
    build_cross_onoff, max_lateness_fraction, run_points, voice_bounds, PooledSession, RunConfig,
};
use crate::report::{frac, ms, Table};
use lit_net::{Network, SessionId};
use lit_sim::Duration;

/// Everything measured in the Figure 8/12/13 run.
#[derive(Clone, Debug)]
pub struct Fig8Result {
    /// Summary per tagged session (no-JC first, JC second).
    pub sessions: [SessionSummary; 2],
    /// Scheduler-saturation diagnostic.
    pub lateness_fraction: f64,
}

/// Per-session measurements and bounds.
#[derive(Clone, Debug)]
pub struct SessionSummary {
    /// `true` for the session with delay-jitter control.
    pub jitter_control: bool,
    /// Delivered packet count.
    pub delivered: u64,
    /// Observed jitter (max − min delay).
    pub jitter: Duration,
    /// Jitter bound (66.25 ms without JC, 13.25 ms with, per the paper).
    pub jitter_bound: Duration,
    /// Observed max delay and the delay bound.
    pub max_delay: Duration,
    /// Analytic end-to-end delay bound (ineq. 15).
    pub delay_bound: Duration,
    /// Mean delay (jitter control should *raise* it).
    pub mean_delay: Duration,
    /// Delay histogram, `(bin_lower_edge, fraction)` — Figure 8's curves.
    pub delay_pdf: Vec<(Duration, f64)>,
    /// Buffer occupancy at the first node: `(max_bits, bound_bits, pdf)`.
    pub buffer_first: BufferSummary,
    /// Buffer occupancy at the last node.
    pub buffer_last: BufferSummary,
}

/// Buffer occupancy at one node (Figures 12/13).
#[derive(Clone, Debug)]
pub struct BufferSummary {
    /// Largest observed occupancy, bits.
    pub max_bits: u64,
    /// The calculated upper bound, bits.
    pub bound_bits: u64,
    /// `(occupancy_bits, fraction)` distribution.
    pub pdf: Vec<(u64, f64)>,
}

/// Analytic bounds of one tagged session. Bounds depend only on the
/// admission sequence, which is identical in every replica.
#[derive(Clone, Copy, Debug)]
struct SessionBounds {
    jitter_bound: Duration,
    delay_bound: Duration,
    buffer_first_bound: u64,
    buffer_last_bound: u64,
}

fn bounds_of(net: &Network, id: SessionId, jc: bool) -> SessionBounds {
    let (pb, dref) = voice_bounds(net, id);
    SessionBounds {
        jitter_bound: pb.jitter_bound(dref, jc),
        delay_bound: pb.delay_bound(dref),
        buffer_first_bound: pb.buffer_bound_bits(dref, 0, jc),
        buffer_last_bound: pb.buffer_bound_bits(dref, pb.hops() - 1, jc),
    }
}

fn summarize(pooled: &PooledSession, b: &SessionBounds, jc: bool) -> SessionSummary {
    SessionSummary {
        jitter_control: jc,
        delivered: pooled.delivered,
        jitter: pooled.jitter().unwrap_or(Duration::ZERO),
        jitter_bound: b.jitter_bound,
        max_delay: pooled.max_delay().unwrap_or(Duration::ZERO),
        delay_bound: b.delay_bound,
        mean_delay: pooled.mean_delay().unwrap_or(Duration::ZERO),
        delay_pdf: pooled.e2e.pdf(),
        buffer_first: BufferSummary {
            max_bits: pooled.buffer_first.max_bits(),
            bound_bits: b.buffer_first_bound,
            pdf: pooled.buffer_first.pdf(),
        },
        buffer_last: BufferSummary {
            max_bits: pooled.buffer_last.max_bits(),
            bound_bits: b.buffer_last_bound,
            pdf: pooled.buffer_last.pdf(),
        },
    }
}

/// One replica's measurements: the two tagged sessions plus diagnostics.
struct Replica {
    sessions: [PooledSession; 2],
    bounds: [SessionBounds; 2],
    lateness_fraction: f64,
}

/// Run the experiment: [`RunConfig::replicas`] independent runs on the
/// worker pool, pooled into one pair of session distributions.
pub fn run(cfg: &RunConfig) -> Fig8Result {
    let seeds = cfg.replica_seeds();
    let reps: Vec<Replica> = run_points(cfg, &seeds, |_, &seed| {
        let (mut net, no_jc, jc) = build_cross_onoff(cfg, seed);
        net.run_until(cfg.horizon(600));
        let rep = Replica {
            sessions: [
                PooledSession::from_stats(net.session_stats(no_jc)),
                PooledSession::from_stats(net.session_stats(jc)),
            ],
            bounds: [bounds_of(&net, no_jc, false), bounds_of(&net, jc, true)],
            lateness_fraction: max_lateness_fraction(&net),
        };
        cfg.collector.retire(net);
        rep
    });
    let bounds = reps[0].bounds;
    let lateness_fraction = reps
        .iter()
        .map(|r| r.lateness_fraction)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut per_session: [Vec<PooledSession>; 2] = [Vec::new(), Vec::new()];
    for rep in reps {
        let [a, b] = rep.sessions;
        per_session[0].push(a);
        per_session[1].push(b);
    }
    let [no_jc_snaps, jc_snaps] = per_session;
    Fig8Result {
        sessions: [
            summarize(&PooledSession::pool(no_jc_snaps), &bounds[0], false),
            summarize(&PooledSession::pool(jc_snaps), &bounds[1], true),
        ],
        lateness_fraction,
    }
}

/// Figure 8 summary table.
pub fn table(r: &Fig8Result) -> Table {
    let mut t = Table::new(
        "Figure 8 — delay jitter with/without delay-jitter control (CROSS, Poisson cross traffic)",
        &[
            "session",
            "delivered",
            "jitter_ms",
            "jitter_bound_ms",
            "max_delay_ms",
            "delay_bound_ms",
            "mean_delay_ms",
        ],
    );
    for s in &r.sessions {
        t.push(vec![
            if s.jitter_control { "with-jc" } else { "no-jc" }.to_string(),
            s.delivered.to_string(),
            ms(s.jitter),
            ms(s.jitter_bound),
            ms(s.max_delay),
            ms(s.delay_bound),
            ms(s.mean_delay),
        ]);
    }
    t
}

/// Figure 8 delay-distribution table (both sessions' PDFs on a common
/// axis).
pub fn pdf_table(r: &Fig8Result) -> Table {
    let mut t = Table::new(
        "Figure 8 — delay distributions",
        &["delay_ms", "fraction_no_jc", "fraction_with_jc"],
    );
    use std::collections::BTreeMap;
    let mut bins: BTreeMap<u64, [f64; 2]> = BTreeMap::new();
    for (i, s) in r.sessions.iter().enumerate() {
        for &(edge, f) in &s.delay_pdf {
            bins.entry(edge.as_ps()).or_default()[i] = f;
        }
    }
    for (edge_ps, fr) in bins {
        t.push(vec![
            format!("{:.3}", Duration::from_ps(edge_ps).as_millis_f64()),
            frac(fr[0]),
            frac(fr[1]),
        ]);
    }
    t
}

/// Figures 12/13 buffer table for one session.
pub fn buffer_table(r: &Fig8Result, jc: bool) -> Table {
    let s = &r.sessions[usize::from(jc)];
    let fig = if jc { "Figure 13" } else { "Figure 12" };
    let mut t = Table::new(
        format!(
            "{fig} — buffer space, session {} delay-jitter control (max/bound: first {}/{} bits, last {}/{} bits)",
            if jc { "with" } else { "without" },
            s.buffer_first.max_bits,
            s.buffer_first.bound_bits,
            s.buffer_last.max_bits,
            s.buffer_last.bound_bits,
        ),
        &["buffer_bits", "fraction_first_node", "fraction_last_node"],
    );
    use std::collections::BTreeMap;
    let mut bins: BTreeMap<u64, [f64; 2]> = BTreeMap::new();
    for &(bits, f) in &s.buffer_first.pdf {
        bins.entry(bits).or_default()[0] = f;
    }
    for &(bits, f) in &s.buffer_last.pdf {
        bins.entry(bits).or_default()[1] = f;
    }
    for (bits, fr) in bins {
        t.push(vec![bits.to_string(), frac(fr[0]), frac(fr[1])]);
    }
    t
}
