//! Admission-control cost: the paper's complexity claims made measurable.
//!
//! * AC1/AC2 perform O(P) tests per admission — flat in the number of
//!   already-admitted sessions;
//! * AC3, read literally, tests `2^n` subsets for the n-th admission;
//!   [`Ac3Fast`] decides the same inequality over parameter classes, so
//!   `ac3_fast` cost tracks the number of distinct classes rather than
//!   resident sessions.

#![forbid(unsafe_code)]

use lit_bench::Bencher;
use lit_core::{Ac3Fast, ClassedAdmission, DRule, DelayClass, Procedure, SessionRequest};
use lit_sim::Duration;

fn classes(p: usize, link: u64) -> Vec<DelayClass> {
    (1..=p)
        .map(|k| DelayClass {
            max_bandwidth_bps: link * k as u64 / p as u64,
            base_delay: Duration::from_ms(k as u64 * 10),
        })
        .collect()
}

fn classed(b: &Bencher) {
    for &p in &[1usize, 4, 16] {
        b.run(&format!("admission/classed_fill/ac1/{p}"), || {
            let mut ac =
                ClassedAdmission::new(Procedure::Proc1, 100_000_000, classes(p, 100_000_000))
                    .unwrap();
            let req = SessionRequest::new(100_000, 424);
            let mut ok = 0u32;
            for _ in 0..500 {
                if ac.try_admit(p - 1, &req, DRule::PerSessionMax).is_ok() {
                    ok += 1;
                }
            }
            ok
        });
    }
}

fn ac3_fast(b: &Bencher) {
    // Fills up to 1000 sessions — far past any `2^n` enumeration: cost
    // stays flat because every session lands in one of 12 parameter
    // classes.
    for &n in &[8usize, 14, 20, 1_000] {
        b.run(&format!("admission/ac3_fast_fill/{n}"), || {
            let mut ac = Ac3Fast::new(100_000_000);
            let mut ok = 0u32;
            for i in 0..n {
                let d = Duration::from_ms(5 + (i % 12) as u64);
                if ac.try_admit(20_000, 424, d).is_ok() {
                    ok += 1;
                }
            }
            ok
        });
    }
    // Steady-state churn at 1000 resident: admit + release, the
    // long-running-node hot path.
    b.run("admission/ac3_fast_churn/1000", || {
        let mut ac = Ac3Fast::new(100_000_000);
        for i in 0..1_000u64 {
            let d = Duration::from_ms(5 + i % 12);
            ac.try_admit(20_000, 424, d).unwrap();
        }
        let d = Duration::from_ms(5);
        let mut ok = 0u32;
        for _ in 0..100 {
            if let Ok((h, _)) = ac.try_admit(20_000, 424, d) {
                ok += 1;
                ac.release(h);
            }
        }
        ok
    });
}

fn main() {
    let b = Bencher::from_args();
    classed(&b);
    ac3_fast(&b);
    // `BENCH_admission.json` belongs to the `bench_admission` storm
    // binary (the guarded artifact); the micro rows get their own file.
    b.write_json("admission_micro");
}
