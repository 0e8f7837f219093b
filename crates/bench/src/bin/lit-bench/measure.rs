//! `run <workload>`: timed repetitions, set-up samples, peak RSS and the
//! check pass, folded into one [`Report`].
//!
//! Order inside the workload's process: timed repetitions (each a fresh
//! set-up followed by 100 calibrated slices, and a look at the peak RSS),
//! extra set-up samples, and only then the check pass — its oracle state
//! must not count towards the peak the timed configuration is charged with.

use crate::estimator::{median, median_of, stitch, Calibrator, Sample, CALIB_REF_NS, SLICES};
use crate::spans::Tracer;
use crate::workloads::{Instance, Plan, Workload};
use crate::Metric;
use std::time::Instant;

/// Repetitions when no wall budget is given (the issue's five).
pub const DEFAULT_REPS: usize = 5;
/// Fewest repetitions a wall budget may buy: below three a median
/// cannot out-vote a disturbed repetition.
const MIN_REPS: usize = 3;
/// Set-up is sampled until this many samples (cheap where set-up is
/// microseconds, and there the median needs them) ...
const SETUP_SAMPLES: usize = 101;
/// ... or until the extra samples have cost this much wall time.
const SETUP_EXTRA_BUDGET_S: f64 = 1.0;
/// What the check pass costs, in repetitions: it is one more run of the
/// horizon with the oracle counting (measured 0.9–1.7 across the five).
const CHECK_COST_REPS: f64 = 1.5;
/// Added to the median set-up time to make `setup_s`. The benchmark
/// format gates a metric by one relative bound; 25 % of this pedestal is
/// the 2 ms below which a change in set-up time is timer and cache noise
/// (three workloads set up in under 0.4 ms), so the gate reads
/// "worse by more than 2 ms + 25 %".
pub const SETUP_PEDESTAL_S: f64 = 0.008;

/// How much timed work to do.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Exactly this many repetitions.
    Reps(usize),
    /// As many repetitions as fit in this much wall time next to the
    /// extra set-ups and the check pass, but at least [`MIN_REPS`].
    Seconds(f64),
}

/// One repetition: set-up, then every slice.
pub struct Rep {
    pub setup: Sample,
    pub slices: Vec<Sample>,
    /// Cumulative events after each slice.
    pub slice_events: Vec<u64>,
    pub digest: u64,
}

impl Rep {
    /// Calibration-normalised ns per event of this repetition alone.
    pub fn norm_per_event(&self) -> f64 {
        let events = *self.slice_events.last().expect("SLICES > 0") as f64;
        self.slices.iter().map(Sample::norm).sum::<f64>() / events
    }
}

/// Set an instance up (timed) and run its slices (each timed); hands the
/// finished instance back for callers that read more out of it.
pub fn one_rep<I: Instance>(
    cal: &mut Calibrator,
    tr: &mut Tracer,
    setup: impl FnOnce(&mut Tracer) -> I,
) -> (Rep, I) {
    let (setup, mut inst) = cal.timed_once(|| setup(tr));
    let name = inst.slice_span();
    let (slices, slice_events) = cal
        .timed(SLICES, |i| tr.span(name, |_| inst.advance(i)))
        .into_iter()
        .unzip();
    let rep = Rep {
        setup,
        slices,
        slice_events,
        digest: inst.digest(),
    };
    (rep, inst)
}

/// Everything `run` reports about one workload.
pub struct Report {
    pub workload: &'static Workload,
    pub seed: u64,
    pub cores: usize,
    pub reps: usize,
    pub setup_samples: usize,
    pub ops: u64,
    pub failed_ops: u64,
    pub sim_digest: String,
    pub metrics: Vec<Metric>,
}

/// Names of the end-to-end metrics, in report order.
pub const END_TO_END: [&str; 3] = ["ns_per_event_norm", "setup_s", "peak_rss_mb"];

/// Peak RSS so far without the file-backed share (the executable's and
/// libc's pages: ±60 kB from one process to the next with fault-around,
/// and not memory the workload asked for). That share only ever grows, so
/// `VmHWM − RssFile` is a lower bound on the peak of everything else, short
/// by the file pages first touched since the peak: a page or two once a
/// repetition has run before, which is why [`run`] asks after each one and
/// keeps the largest answer.
fn peak_sans_file_kb() -> u64 {
    let rss = crate::rss_kb();
    rss.peak.saturating_sub(rss.file)
}

/// Measure one workload end to end and check it. End-to-end numbers
/// come from calls with `tr` off; the traced pass hands in a recording
/// tracer to get the same run as spans.
pub fn run(
    workload: &'static Workload,
    plan: &Plan,
    budget: Budget,
    extra_setups: bool,
    cal: &mut Calibrator,
    tr: &mut Tracer,
) -> Report {
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut peak_rss_kb = 0;
    loop {
        reps.push(one_rep(cal, tr, |tr| plan.setup(tr)).0);
        peak_rss_kb = peak_rss_kb.max(peak_sans_file_kb());
        let enough = match budget {
            Budget::Reps(n) => reps.len() >= n,
            Budget::Seconds(s) => {
                let spent = started.elapsed().as_secs_f64();
                let per_rep = spent / reps.len() as f64;
                let still_to_come = per_rep * CHECK_COST_REPS + SETUP_EXTRA_BUDGET_S;
                reps.len() >= MIN_REPS && spent + per_rep + still_to_come > s
            }
        };
        if enough {
            break;
        }
    }

    let mut setups: Vec<Sample> = reps.iter().map(|r| r.setup).collect();
    let extra = Instant::now();
    while extra_setups
        && setups.len() < SETUP_SAMPLES
        && extra.elapsed().as_secs_f64() < SETUP_EXTRA_BUDGET_S
    {
        setups.push(cal.timed_once(|| plan.setup(tr)).0);
    }

    let check = plan.check(tr);
    let deterministic = reps
        .iter()
        .all(|r| r.slice_events == check.slice_events && r.digest == check.digest);
    let failed_ops = if deterministic {
        check.failed_ops
    } else {
        check.ops
    };

    let events = *check.slice_events.last().expect("SLICES > 0") as f64;
    let matrix: Vec<&[Sample]> = reps.iter().map(|r| r.slices.as_slice()).collect();
    let est = stitch(&matrix);
    // Normalised like every host-time number, then put back into seconds
    // at the calibration loop's reference speed.
    let setup_s = median_of(&setups, Sample::norm) * CALIB_REF_NS / 1e9;
    let mut raw_totals: Vec<f64> = matrix
        .iter()
        .map(|r| r.iter().map(|s| s.wall_ns).sum::<f64>() / events)
        .collect();
    let mut metrics = vec![
        Metric::new("ns_per_event_norm", est.norm_ns / events, "ns"),
        Metric::new("setup_s", SETUP_PEDESTAL_S + setup_s, "s"),
        Metric::new("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB"),
        Metric::new("host.calib_ns_per_iter", est.calib, "ns"),
        Metric::new("host.ns_per_event_raw", median(&mut raw_totals), "ns"),
        Metric::new(
            "host.setup_raw_s",
            median_of(&setups, |s| s.wall_ns) / 1e9,
            "s",
        ),
        Metric::new("net.events", events, "count"),
    ];
    // One repetition is its own floor: the ratio would read 1.00 and mean nothing.
    if reps.len() > 1 {
        metrics.push(Metric::new("host.noise_ratio", est.noise_ratio(), "ratio"));
    }
    metrics.extend(check.stats);
    Report {
        workload,
        seed: plan.seed(),
        cores: std::thread::available_parallelism().map_or(1, usize::from),
        reps: reps.len(),
        setup_samples: setups.len(),
        ops: check.ops,
        failed_ops,
        sim_digest: format!("{:016x}", check.digest),
        metrics,
    }
}
