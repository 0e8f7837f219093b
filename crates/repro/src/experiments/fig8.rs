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

use super::common::{build_cross_onoff, run_replicas, Pooled, PooledSession, RunConfig};
use crate::report::{frac, ms, Table};
use lit_core::PathBounds;
use lit_sim::Duration;
use lit_traffic::ATM_CELL_BITS;
use std::collections::BTreeMap;

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

fn summarize(pooled: &PooledSession, pb: &PathBounds, jc: bool) -> SessionSummary {
    // Both tagged sessions are 32 kbit/s voice: a one-cell bucket.
    let dref = pb.dref_token_bucket(ATM_CELL_BITS as u64);
    SessionSummary {
        jitter_control: jc,
        delivered: pooled.delivered,
        jitter: pooled.e2e.spread().unwrap_or(Duration::ZERO),
        jitter_bound: pb.jitter_bound(dref, jc),
        max_delay: pooled.e2e.max().unwrap_or(Duration::ZERO),
        delay_bound: pb.delay_bound(dref),
        mean_delay: pooled.e2e.mean().unwrap_or(Duration::ZERO),
        delay_pdf: pooled.e2e.pdf(),
        buffer_first: BufferSummary {
            max_bits: pooled.buffer_first.max_bits(),
            bound_bits: pb.buffer_bound_bits(dref, 0, jc),
            pdf: pooled.buffer_first.pdf(),
        },
        buffer_last: BufferSummary {
            max_bits: pooled.buffer_last.max_bits(),
            bound_bits: pb.buffer_bound_bits(dref, pb.hops() - 1, jc),
            pdf: pooled.buffer_last.pdf(),
        },
    }
}

/// Run the experiment: [`RunConfig::replicas`] independent runs on the
/// worker pool, pooled into one pair of session distributions.
pub fn run(cfg: &RunConfig) -> Fig8Result {
    let Pooled {
        sessions: [no_jc, jc],
        bounds: [no_jc_pb, jc_pb],
        lateness_fraction,
    } = run_replicas(cfg, |seed| {
        let (net, no_jc, jc) = build_cross_onoff(cfg, seed);
        (net, [no_jc, jc])
    });
    Fig8Result {
        sessions: [
            summarize(&no_jc, &no_jc_pb, false),
            summarize(&jc, &jc_pb, true),
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
    let [a, b] = &r.sessions;
    for (edge, fr) in side_by_side(&a.delay_pdf, &b.delay_pdf) {
        t.push(vec![
            format!("{:.3}", edge.as_millis_f64()),
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
    for (bits, fr) in side_by_side(&s.buffer_first.pdf, &s.buffer_last.pdf) {
        t.push(vec![bits.to_string(), frac(fr[0]), frac(fr[1])]);
    }
    t
}

/// Two `(key, fraction)` distributions on their common key axis; a key
/// missing from one reads 0 there.
fn side_by_side<K: Ord + Copy>(a: &[(K, f64)], b: &[(K, f64)]) -> BTreeMap<K, [f64; 2]> {
    let mut bins: BTreeMap<K, [f64; 2]> = BTreeMap::new();
    for (i, pdf) in [a, b].into_iter().enumerate() {
        for &(k, f) in pdf {
            bins.entry(k).or_default()[i] = f;
        }
    }
    bins
}
