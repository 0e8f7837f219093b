//! Golden pins for procedure 3 on the paper's worked example server
//! (§ "The Admission Control Procedures": C = 100 Mbit/s, the
//! three-class configuration).
//!
//! Two families of pins:
//!
//! * the worked example's granted delays (0.4 / 1.8 / 5.6 ms for the
//!   100 kbit/s, 400-bit session under AC1) are *AC3-feasible* as fixed
//!   per-session `d` values — the paper's procedures are consistent;
//! * exact rejection artifacts: the first violating subset the `2^n`
//!   enumerator reports is deterministic (smallest failing mask), so its
//!   `SubsetInfeasible { mask }` values are stable goldens, as is the
//!   fast backend's class-level witness for the same decisions.

#![forbid(unsafe_code)]

mod common;

use common::{Ac3Admission, Ac3Error};
use lit_core::{Ac3Fast, Ac3FastError};
use lit_net::DelayAssignment;
use lit_sim::Duration;

/// The worked example's link: C = 100 Mbit/s.
const LINK: u64 = 100_000_000;

#[test]
fn worked_example_delays_are_ac3_feasible() {
    // The paper assigns the 100 kbit/s, 400-bit session d = 0.4 ms in
    // class 1, 1.8 ms in class 2, 5.6 ms in class 3 (rule 1.3a). Running
    // those three assignments through procedure 3 as arbitrary fixed
    // delays must admit all of them: AC1's grants satisfy ineq. (19).
    let mut exact = Ac3Admission::new(LINK);
    let mut fast = Ac3Fast::new(LINK);
    for d_us in [400u64, 1_800, 5_600] {
        let d = Duration::from_us(d_us);
        let granted = exact.try_admit(100_000, 400, d).unwrap();
        assert_eq!(granted, DelayAssignment::Fixed(d));
        let (_, granted_fast) = fast.try_admit(100_000, 400, d).unwrap();
        assert_eq!(granted_fast, granted);
    }
    assert_eq!(exact.admitted_rate_bps(), 300_000);
    assert_eq!(fast.admitted_rate_bps(), 300_000);
}

#[test]
fn rejection_masks_are_stable_goldens() {
    // A generous session plus a tight one (d at 1.25× its singleton
    // floor L/C = 40 µs); an identical tight candidate then fails the
    // pair subset {s1, candidate} — the enumerator reports the smallest
    // failing mask, bit 1 ⇒ mask = 0b10.
    let mut exact = Ac3Admission::new(LINK);
    exact
        .try_admit(10_000_000, 4_000, Duration::from_ms(2))
        .unwrap();
    exact
        .try_admit(30_000_000, 4_000, Duration::from_us(50))
        .unwrap();
    let err = exact
        .try_admit(30_000_000, 4_000, Duration::from_us(50))
        .unwrap_err();
    assert_eq!(err, Ac3Error::SubsetInfeasible { mask: 0b10 });

    // A candidate infeasible on its own pins mask = 0 (the empty set of
    // existing sessions; the candidate is always in A).
    let err = exact
        .try_admit(30_000_000, 4_000, Duration::from_us(39))
        .unwrap_err();
    assert_eq!(err, Ac3Error::SubsetInfeasible { mask: 0 });

    // Teardown shifts delay capacity back: releasing the tight session
    // (index 1) makes the rejected candidate admissible.
    assert!(exact.release(1));
    assert_eq!(exact.admitted_rate_bps(), 10_000_000);
    exact
        .try_admit(30_000_000, 4_000, Duration::from_us(50))
        .unwrap();
    assert_eq!(exact.admitted_rate_bps(), 40_000_000);
}

#[test]
fn fast_witness_for_the_same_rejection_is_pinned() {
    let mut fast = Ac3Fast::new(LINK);
    fast.try_admit(10_000_000, 4_000, Duration::from_ms(2))
        .unwrap();
    fast.try_admit(30_000_000, 4_000, Duration::from_us(50))
        .unwrap();
    let err = fast
        .try_admit(30_000_000, 4_000, Duration::from_us(50))
        .unwrap_err();
    let Ac3FastError::Infeasible(w) = err else {
        panic!("expected Infeasible, got {err:?}");
    };
    // Same violating set as the exact enumerator's mask 0b10, expressed
    // class-wise: the one resident (30 Mbit/s, 4000 bit, 50 µs) session
    // plus the candidate.
    assert_eq!(w.candidate.rate_bps, 30_000_000);
    assert_eq!(w.candidate.count, 1);
    assert_eq!(w.classes.len(), 1);
    let c = w.classes[0];
    assert_eq!(
        (c.rate_bps, c.max_len_bits, c.d, c.count),
        (30_000_000, 4_000, Duration::from_us(50), 1)
    );
    assert_eq!(w.num_sessions(), 2);
    assert_eq!(w.violates(LINK), Some(true));
    // The same set does not violate on a 10× link — violates() is a real
    // re-evaluation, not a stored flag.
    assert_eq!(w.violates(LINK * 10), Some(false));
}

#[test]
fn paper_trio_rate_fill_matches_both_backends() {
    // Fill the worked-example server to its rate capacity with three
    // class-shaped reservations; the next bit of rate must fail test
    // (18) identically on both backends.
    let mut exact = Ac3Admission::new(LINK);
    let mut fast = Ac3Fast::new(LINK);
    for (r, d_us) in [
        (10_000_000u64, 200u64),
        (30_000_000, 1_600),
        (60_000_000, 4_000),
    ] {
        let d = Duration::from_us(d_us);
        exact.try_admit(r, 4_000, d).unwrap();
        fast.try_admit(r, 4_000, d).unwrap();
    }
    assert_eq!(exact.admitted_rate_bps(), LINK);
    assert_eq!(fast.admitted_rate_bps(), LINK);
    assert_eq!(
        exact
            .try_admit(1_000, 400, Duration::from_ms(4))
            .unwrap_err(),
        Ac3Error::RateExceeded
    );
    assert_eq!(
        fast.try_admit(1_000, 400, Duration::from_ms(4))
            .unwrap_err(),
        Ac3FastError::RateExceeded
    );
}
