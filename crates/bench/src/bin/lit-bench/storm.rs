//! `ac3_storm`: admission-control churn with no simulator underneath.
//!
//! One [`Ac3Fast`] server on a 10 Gbit/s link is prefilled to 100 000
//! resident sessions, then driven through a seeded mix of random-class
//! admits and random-handle releases. The classes are `bench_admission`'s
//! 12-class palette (same rates and lengths) with every delay divided by
//! [`DELAY_DIV`], which puts the ineq.-19 feasibility edge a few thousand
//! sessions above the prefill: with admits outnumbering releases the
//! population climbs to the edge within the first tenth of the churn and
//! then hovers there, so every class survives dominance pruning, each
//! decision walks the full 2¹² Gray-code enumeration, and a steady share
//! of admits (≈ 1 − releases/admits) is rejected with a witness.
//!
//! An *event* of this workload is one admit or release decision.

use crate::estimator::{median, Calibrator, SLICES};
use crate::spans::Tracer;
use crate::workloads::{Check, Fnv, Instance};
use crate::Metric;
use lit_core::{Ac3Fast, Ac3FastError, Ac3Handle};
use lit_sim::{Duration, SimRng};
use std::time::Instant;

/// Sessions resident after prefill.
pub const RESIDENTS: u32 = 100_000;
/// Link capacity, bit/s.
const LINK_BPS: u64 = 10_000_000_000;
/// Palette delays are divided by this; 55 puts the edge near 103 000.
const DELAY_DIV: u64 = 55;
/// Share of churn operations that are admits; the rest release.
const ADMIT_PCT: u64 = 55;
/// Churn operations per repetition (≈ 2 s on the box that sized it).
const CHURN_OPS: u64 = 300_000;
/// Every this-many-th call gets a span in the traced replay ...
const SPAN_EVERY: u64 = 256;
/// ... and this often the replay stops for a calibration burst.
const CALIB_EVERY: u64 = 4096;

/// Class `k` of the palette: `(rate bit/s, L_max bits, delay)`.
fn class(k: u64) -> (u64, u32, Duration) {
    let k = k % 12;
    (
        2_000 + 500 * k,
        400 + 100 * k as u32,
        (Duration::from_ms(200) + Duration::from_ms(50) * k) / DELAY_DIV,
    )
}

/// The workload's parameters.
pub struct StormPlan {
    pub seed: u64,
    pub ops: u64,
}

impl StormPlan {
    pub fn new(seed: u64, quick: bool) -> Self {
        StormPlan {
            seed,
            ops: if quick { CHURN_OPS / 20 } else { CHURN_OPS },
        }
    }

    /// Prefill to residency (this workload's set-up).
    pub fn setup(&self) -> Storm {
        let mut ac = Ac3Fast::new(LINK_BPS);
        // Room for the churn to grow into: a reallocation mid-run would
        // make peak RSS depend on whether the allocator could extend in
        // place.
        let mut handles = Vec::with_capacity(2 * RESIDENTS as usize);
        for i in 0..u64::from(RESIDENTS) {
            let (r, l, d) = class(i);
            handles.push(ac.try_admit(r, l, d).expect("prefill stays feasible").0);
        }
        Storm {
            ac,
            handles,
            rng: SimRng::seed_from(self.seed),
            ops: self.ops,
            done: 0,
            tally: Tally::default(),
            trail: Fnv::new(),
        }
    }

    /// The check pass: replay the churn verifying every rejection
    /// witness, then drain and demand an empty server.
    pub fn check(&self) -> Check {
        let mut storm = self.setup();
        let mut slice_events = Vec::with_capacity(SLICES);
        let mut failed = 0u64;
        for slice in 0..SLICES {
            let end = storm.slice_end(slice);
            while storm.done < end {
                if let Op::Admit(Err(e)) = storm.step() {
                    match e {
                        Ac3FastError::Infeasible(w) => {
                            failed += u64::from(w.violates(LINK_BPS) != Some(true));
                        }
                        _ => failed += 1,
                    }
                }
            }
            slice_events.push(storm.done);
        }
        failed += storm.tally.stale_releases;
        let digest = storm.digest();
        for h in std::mem::take(&mut storm.handles) {
            failed += u64::from(!storm.ac.release(h));
        }
        failed += u64::from(storm.ac.admitted_rate_bps() != 0 || !storm.ac.is_empty());
        Check {
            ops: self.ops,
            failed_ops: failed,
            slice_events,
            digest,
            stats: Vec::new(),
        }
    }

    /// The traced replay: every call timed on its own, for the
    /// `core.ac3.*` rows; every [`SPAN_EVERY`]-th call also gets a span.
    /// Runs the churn on past the timed length until `decisions` admits
    /// were decided. Returns the share of the replay's wall time spent
    /// inside `try_admit`/`release` (the rest is the churn generator and
    /// the clock reads) and the rows, normalised by the median of the
    /// calibration bursts taken every [`CALIB_EVERY`] calls.
    pub fn traced(
        &self,
        decisions: u64,
        cal: &mut Calibrator,
        tr: &mut Tracer,
    ) -> (f64, Vec<Metric>) {
        let mut storm = self.setup();
        let mut decide = Vec::with_capacity(decisions as usize);
        let mut calib = Vec::new();
        let (mut release_ns, mut releases, mut whole_ns) = (0.0, 0u64, 0.0);
        while (decide.len() as u64) < decisions {
            if storm.done.is_multiple_of(CALIB_EVERY) {
                calib.push(cal.burst());
            }
            let drawn = Instant::now();
            let (x, admit) = storm.draw();
            let called = Instant::now();
            let op = if !storm.done.is_multiple_of(SPAN_EVERY) {
                storm.apply(x, admit)
            } else if admit {
                tr.span("core.ac3.try_admit", |_| storm.apply(x, admit))
            } else {
                tr.span("core.ac3.release", |_| storm.apply(x, admit))
            };
            let ns = called.elapsed().as_nanos() as f64;
            whole_ns += drawn.elapsed().as_nanos() as f64;
            match op {
                Op::Admit(_) => decide.push(ns),
                Op::Release => {
                    release_ns += ns;
                    releases += 1;
                }
            }
        }
        let inside_ns = decide.iter().sum::<f64>() + release_ns;
        let calib = median(&mut calib);
        decide.sort_by(f64::total_cmp);
        let quantile = |q: f64| decide[((decide.len() - 1) as f64 * q) as usize] / calib;
        let t = &storm.tally;
        let n = decide.len() as f64;
        let release = release_ns / releases.max(1) as f64 / calib;
        let rows = vec![
            Metric::new("core.ac3.decide_p50_ns", quantile(0.50), "ns"),
            Metric::new("core.ac3.decide_p99_ns", quantile(0.99), "ns"),
            Metric::new("core.ac3.decide_samples", n, "count"),
            Metric::new("core.ac3.release_ns", release, "ns"),
            Metric::new("core.ac3.admit_pct", 100.0 * t.admitted as f64 / n, "%"),
            Metric::new(
                "core.ac3.infeasible_pct",
                100.0 * t.infeasible as f64 / n,
                "%",
            ),
            Metric::new("core.ac3.undecided", t.undecided as f64, "count"),
            Metric::new("core.ac3.classes", storm.ac.num_classes() as f64, "count"),
        ];
        (inside_ns / whole_ns, rows)
    }
}

/// Outcome counters of a churn.
#[derive(Default)]
struct Tally {
    admitted: u64,
    infeasible: u64,
    /// `DecisionBudget` + `Overflow` + anything else that is not a
    /// witnessed rejection: the server failed to decide.
    undecided: u64,
    stale_releases: u64,
}

/// What one churn step did.
enum Op {
    Admit(Result<(), Ac3FastError>),
    Release,
}

/// A prefilled server mid-churn.
pub struct Storm {
    ac: Ac3Fast,
    handles: Vec<Ac3Handle>,
    rng: SimRng,
    ops: u64,
    done: u64,
    tally: Tally,
    /// Running hash of every decision's outcome, in order.
    trail: Fnv,
}

impl Storm {
    fn slice_end(&self, slice: usize) -> u64 {
        self.ops * (slice as u64 + 1) / SLICES as u64
    }

    /// Draw the next operation: its random word and whether it admits.
    fn draw(&mut self) -> (u64, bool) {
        let x = self.rng.next_u64();
        (x, x % 100 < ADMIT_PCT || self.handles.is_empty())
    }

    fn apply(&mut self, x: u64, admit: bool) -> Op {
        self.done += 1;
        if admit {
            let (r, l, d) = class(x >> 8);
            let verdict = self
                .ac
                .try_admit(r, l, d)
                .map(|(h, _)| self.handles.push(h));
            match &verdict {
                Ok(()) => self.tally.admitted += 1,
                Err(Ac3FastError::Infeasible(_)) => self.tally.infeasible += 1,
                Err(_) => self.tally.undecided += 1,
            }
            self.trail.word(u64::from(verdict.is_ok()));
            Op::Admit(verdict)
        } else {
            let i = ((x >> 8) % self.handles.len() as u64) as usize;
            let h = self.handles.swap_remove(i);
            self.tally.stale_releases += u64::from(!self.ac.release(h));
            Op::Release
        }
    }

    fn step(&mut self) -> Op {
        let (x, admit) = self.draw();
        self.apply(x, admit)
    }
}

impl Instance for Storm {
    fn advance(&mut self, slice: usize) -> u64 {
        let end = self.slice_end(slice);
        while self.done < end {
            self.step();
        }
        self.done
    }

    /// Every decision's outcome in order, the outcome counts, and the
    /// server's final population.
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.trail.finish());
        for w in [
            self.done,
            self.tally.admitted,
            self.tally.infeasible,
            self.tally.undecided,
            self.ac.len(),
            self.ac.admitted_rate_bps(),
            self.ac.num_classes() as u64,
        ] {
            h.word(w);
        }
        h.finish()
    }

    fn slice_span(&self) -> &'static str {
        "core.ac3.churn"
    }

    fn population(&self) -> u32 {
        RESIDENTS
    }
}
