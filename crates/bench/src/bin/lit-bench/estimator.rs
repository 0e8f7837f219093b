//! The estimator behind every host-time number the benchmark reports.
//!
//! A shared 2-core box drifts between contention phases that last
//! minutes and move raw wall time by 20–30 %, so a plain "median of k
//! runs" tracks the phase, not the code. Two defences, combined:
//!
//! 1. **Paired calibration.** Every timed interval (a *slice*) is
//!    bracketed by two short bursts of a fixed calibration loop, and the
//!    slice's wall time is divided by the mean cost per iteration of its
//!    two neighbours. A phase that slows the machine slows the loop too,
//!    so it divides out. The loop is frozen in this file on purpose: a
//!    calibration that lived in the measured code base could be "sped up"
//!    by the same change it is meant to judge.
//! 2. **Stitched per-slice medians.** A repetition is cut into
//!    [`SLICES`] slices that do identical work in every repetition
//!    (deterministic simulator, same horizons), so slice *i* of every
//!    repetition estimates the same quantity. The result is
//!    `Σ_i median_over_reps(norm_i)`: a hiccup that hits some
//!    repetitions of some slices is voted out slice by slice, where a
//!    whole-run median would have to discard the entire repetition.
//!
//! What neither can remove — a disturbance that hits *every* repetition
//! of a slice but not its calibration bursts — shows up as a gap between
//! the stitched raw median and the stitched raw floor, reported as
//! `host.noise_ratio`.

use std::hint::black_box;
use std::time::Instant;

/// Slices per repetition.
pub const SLICES: usize = 100;

/// Read-modify-write iterations per calibration burst (~0.6 ms).
const CALIB_ITERS: u32 = 500_000;

/// What a burst costs per iteration on the box that defined the benchmark
/// (2.0–2.2 in every phase seen there). Only `setup_s` uses it: a normalised
/// time multiplied by this reads as seconds on that box, which keeps the
/// metric's unit honest and its 2 ms floor meaningful.
pub const CALIB_REF_NS: f64 = 2.0;

/// Calibration buffer: 2¹⁶ words = 512 KiB, L2-sized like the simulator's
/// hot heap + session state, so memory contention moves it too.
const CALIB_WORDS: usize = 1 << 16;

/// The frozen calibration loop: random read-modify-writes over a 512 KiB
/// buffer, indexed by an inline xorshift64 so no code outside this file
/// is on its path.
pub struct Calibrator {
    buf: Vec<u64>,
    state: u64,
}

impl Calibrator {
    /// A calibrator with a warm buffer.
    pub fn new() -> Self {
        let mut c = Calibrator {
            buf: vec![0; CALIB_WORDS],
            state: 0x9E37_79B9_7F4A_7C15,
        };
        c.burst();
        c
    }

    /// One burst; returns its cost in wall nanoseconds per iteration.
    pub fn burst(&mut self) -> f64 {
        let mut x = self.state;
        let t = Instant::now();
        for _ in 0..CALIB_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[(x as usize) & (CALIB_WORDS - 1)];
            *slot = slot.wrapping_add(x);
        }
        let ns = t.elapsed().as_nanos() as f64;
        self.state = x;
        black_box(&self.buf);
        ns / f64::from(CALIB_ITERS)
    }

    /// Run `step(0..n)`, timing each call and bracketing it with bursts;
    /// adjacent slices share the burst between them.
    pub fn timed<T>(&mut self, n: usize, mut step: impl FnMut(usize) -> T) -> Vec<(Sample, T)> {
        let mut before = self.burst();
        (0..n)
            .map(|i| {
                let t = Instant::now();
                let out = step(i);
                let wall_ns = t.elapsed().as_nanos() as f64;
                let after = self.burst();
                let calib = (before + after) / 2.0;
                before = after;
                (Sample { wall_ns, calib }, out)
            })
            .collect()
    }

    /// Time one call between two bursts of its own.
    pub fn timed_once<T>(&mut self, f: impl FnOnce() -> T) -> (Sample, T) {
        let before = self.burst();
        let t = Instant::now();
        let out = f();
        let wall_ns = t.elapsed().as_nanos() as f64;
        let calib = (before + self.burst()) / 2.0;
        (Sample { wall_ns, calib }, out)
    }
}

/// One timed interval and the calibration cost around it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall time of the interval, ns.
    pub wall_ns: f64,
    /// Mean ns/iteration of the two adjacent calibration bursts.
    pub calib: f64,
}

impl Sample {
    /// Wall time in units of "ns on a machine whose calibration loop
    /// runs at 1 ns/iteration".
    pub fn norm(&self) -> f64 {
        self.wall_ns / self.calib
    }
}

/// What [`stitch`] makes of a repetitions × slices matrix.
#[derive(Clone, Copy, Debug)]
pub struct Estimate {
    /// `Σ_i median_r(norm)`: the calibration-normalised total.
    pub norm_ns: f64,
    /// `Σ_i median_r(wall)`: the same stitching on raw wall time.
    pub raw_median_ns: f64,
    /// `Σ_i min_r(wall)`: the raw floor.
    pub raw_floor_ns: f64,
    /// Median calibration cost over every sample, ns/iteration.
    pub calib: f64,
}

impl Estimate {
    /// Stitched raw median ÷ stitched raw floor; 1.0 on a quiet machine.
    pub fn noise_ratio(&self) -> f64 {
        self.raw_median_ns / self.raw_floor_ns
    }
}

/// Median; NaN when empty. Sorts `xs`.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Median of `f` over a set of samples.
pub fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&mut samples.iter().map(f).collect::<Vec<_>>())
}

/// Stitch a matrix of `reps[r][i]` (repetition `r`, slice `i`) into one
/// estimate. Every repetition must have the same number of slices.
pub fn stitch<R: AsRef<[Sample]>>(reps: &[R]) -> Estimate {
    let reps: Vec<&[Sample]> = reps.iter().map(AsRef::as_ref).collect();
    let slices = reps.first().map_or(0, |r| r.len());
    assert!(
        reps.iter().all(|r| r.len() == slices),
        "ragged repetition matrix"
    );
    let mut est = Estimate {
        norm_ns: 0.0,
        raw_median_ns: 0.0,
        raw_floor_ns: 0.0,
        calib: 0.0,
    };
    for i in 0..slices {
        let column: Vec<Sample> = reps.iter().map(|r| r[i]).collect();
        est.norm_ns += median_of(&column, Sample::norm);
        est.raw_median_ns += median_of(&column, |s| s.wall_ns);
        est.raw_floor_ns += column
            .iter()
            .map(|s| s.wall_ns)
            .fold(f64::INFINITY, f64::min);
    }
    let all: Vec<Sample> = reps.concat();
    est.calib = median_of(&all, |s| s.calib);
    est
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quiet machine: slice `i` costs `1e6 + 1e4·i` ns in every
    /// repetition, calibration runs at 1.25 ns/iter throughout.
    fn quiet(reps: usize) -> Vec<Vec<Sample>> {
        (0..reps)
            .map(|_| {
                (0..SLICES)
                    .map(|i| Sample {
                        wall_ns: 1e6 + 1e4 * i as f64,
                        calib: 1.25,
                    })
                    .collect()
            })
            .collect()
    }

    fn rel_move(a: f64, b: f64) -> f64 {
        (a - b).abs() / b
    }

    #[test]
    fn quiet_matrix_is_the_plain_normalised_sum() {
        let est = stitch(&quiet(5));
        let want: f64 = (0..SLICES).map(|i| (1e6 + 1e4 * i as f64) / 1.25).sum();
        assert!(rel_move(est.norm_ns, want) < 1e-12);
        assert!(rel_move(est.noise_ratio(), 1.0) < 1e-12);
        assert_eq!(est.calib, 1.25);
    }

    #[test]
    fn phase_in_two_of_five_repetitions_is_voted_out() {
        // Contention the calibration does NOT see (worst case for the
        // pairing): 40 slices of repetitions 1 and 3 run 35 % slow.
        let base = stitch(&quiet(5));
        let mut m = quiet(5);
        for r in [1, 3] {
            for s in &mut m[r][20..60] {
                s.wall_ns *= 1.35;
            }
        }
        let est = stitch(&m);
        assert!(rel_move(est.norm_ns, base.norm_ns) < 0.01);
    }

    #[test]
    fn phase_hitting_slice_and_calibration_alike_divides_out() {
        // A machine-wide slowdown covering 4 of 5 repetitions entirely:
        // the median cannot vote it out, the pairing must cancel it.
        let base = stitch(&quiet(5));
        let mut m = quiet(5);
        for rep in &mut m[1..] {
            for s in rep.iter_mut() {
                s.wall_ns *= 1.27;
                s.calib *= 1.27;
            }
        }
        let est = stitch(&m);
        assert!(rel_move(est.norm_ns, base.norm_ns) < 0.01);
        // ... while the raw numbers visibly moved.
        assert!(est.raw_median_ns > base.raw_median_ns * 1.2);
    }

    #[test]
    fn phase_in_every_repetition_is_reported_not_hidden() {
        // Every repetition of slices 30..50 is disturbed (by differing
        // amounts) and the calibration bursts are not: nothing can
        // remove that, so noise_ratio has to say so.
        let mut m = quiet(5);
        for (r, rep) in m.iter_mut().enumerate() {
            for s in &mut rep[30..50] {
                s.wall_ns *= 1.2 + 0.1 * r as f64;
            }
        }
        let est = stitch(&m);
        assert!(est.norm_ns > stitch(&quiet(5)).norm_ns * 1.02);
        assert!(est.noise_ratio() > 1.02, "ratio {}", est.noise_ratio());
    }

    #[test]
    fn calibrator_measures_something_and_brackets_each_step() {
        let mut cal = Calibrator::new();
        let out = cal.timed(3, |i| i * 2);
        assert_eq!(out.iter().map(|(_, v)| *v).collect::<Vec<_>>(), [0, 2, 4]);
        assert!(out.iter().all(|(s, _)| s.calib > 0.0 && s.wall_ns >= 0.0));
        let (s, v) = cal.timed_once(|| 7);
        assert_eq!(v, 7);
        assert!(s.norm().is_finite());
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }
}
