//! Ablation: exact vs approximate (bucketed) priority queue.
//!
//! The paper: "Leave-in-Time uses an approximate sorted priority queue
//! algorithm which runs in O(1) time with a small cost in emulation
//! error". This experiment measures that emulation error on the Figure 8
//! workload: the same CROSS network is run with the exact deadline order
//! and with bucketed orders of increasing bucket width. Per-hop inversions
//! are bounded by one bucket, so end-to-end delay/jitter may grow by at
//! most `hops × bucket`. Both orders run on the same binary heap (the
//! bucketed one on a quantized key), so the O(1) line-card cost is not
//! reproduced and `wall_s` is only each run's wall clock.

use super::common::{build_cross_onoff_queued, max_lateness_fraction, run_points, RunConfig};
use crate::report::{ms, Table};
use lit_net::QueueKind;
use lit_sim::Duration;

/// Measurements for one queue configuration.
#[derive(Clone, Copy, Debug)]
pub struct AblationRow {
    /// Bucket width; `None` = exact heap.
    pub bucket: Option<Duration>,
    /// Tagged no-jitter-control session: observed max delay.
    pub max_delay: Duration,
    /// Tagged no-jitter-control session: observed jitter.
    pub jitter: Duration,
    /// Tagged jitter-control session: observed jitter.
    pub jitter_jc: Duration,
    /// Worst scheduler lateness as a fraction of `L_MAX/C` (may exceed 1
    /// for coarse buckets — that is the emulation error showing up).
    pub lateness_fraction: f64,
    /// Wall-clock seconds for the run (not a line-card queue cost).
    pub wall_seconds: f64,
}

/// Run the ablation: exact, then bucket widths of 0.1 ms, 1 ms, and one
/// full cell time at the session rate (13.25 ms). The four configurations
/// run on the worker pool; each row's wall clock is measured inside its
/// own worker, so with `--threads 1` the timings stay contention-free
/// (the mode to use when the wall column matters).
pub fn run(cfg: &RunConfig) -> Vec<AblationRow> {
    let cases = [
        None,
        Some(Duration::from_us(100)),
        Some(Duration::from_ms(1)),
        Some(Duration::from_us(13_250)),
    ];
    run_points(cfg, &cases, |_, &bucket| {
        let kind = match bucket {
            None => QueueKind::Exact,
            Some(b) => QueueKind::Bucketed { bucket: b },
        };
        let started = std::time::Instant::now();
        let (mut net, no_jc, jc) = build_cross_onoff_queued(cfg, cfg.seed, kind);
        net.run_until(cfg.horizon(600));
        let wall = started.elapsed().as_secs_f64();
        let st = net.session_stats(no_jc);
        let row = AblationRow {
            bucket,
            max_delay: st.max_delay().unwrap_or(Duration::ZERO),
            jitter: st.jitter().unwrap_or(Duration::ZERO),
            jitter_jc: net.session_stats(jc).jitter().unwrap_or(Duration::ZERO),
            lateness_fraction: max_lateness_fraction(&net),
            wall_seconds: wall,
        };
        cfg.collector.retire(net);
        row
    })
}

/// Render the ablation as a table.
pub fn table(rows: &[AblationRow]) -> Table {
    let mut t = Table::new(
        "Ablation — exact vs bucketed (approximate) priority queue, Figure 8 workload",
        &[
            "queue",
            "max_delay_ms",
            "jitter_ms",
            "jitter_jc_ms",
            "lateness_frac",
            "wall_s",
        ],
    );
    for r in rows {
        t.push(vec![
            match r.bucket {
                None => "exact".to_string(),
                Some(b) => format!("bucket={:.2}ms", b.as_millis_f64()),
            },
            ms(r.max_delay),
            ms(r.jitter),
            ms(r.jitter_jc),
            format!("{:.3}", r.lateness_fraction),
            format!("{:.2}", r.wall_seconds),
        ]);
    }
    t
}
