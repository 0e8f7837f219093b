//! The reference enumerator's own tests.
//!
//! `common::Ac3Admission` is what `diff_ac3.rs` and `golden_ac3.rs` hold
//! `Ac3Fast` to, so it is itself pinned here: the paper's procedure-3
//! statements (`d = L/r` always fits, the singleton floor `d ≥ L/C`,
//! stranded bandwidth, the AC2 one-class equivalence), its teardown and
//! overflow handling, and the property that the candidate-only test
//! loses nothing against a from-scratch check of every subset.

#![forbid(unsafe_code)]

mod common;

use common::{Ac3Admission, Ac3Error};
use lit_core::{ClassedAdmission, DRule, DelayClass, Procedure, SessionRequest};
use lit_prop::check;
use lit_sim::Duration;

#[test]
fn ac3_accepts_d_equal_len_over_rate_up_to_capacity() {
    // d_s = L/r for every session is always feasible (it is the
    // one-class AC1 assignment): fill the link completely.
    // r = 64 kbit/s makes L/r = 6.625 ms exact in picoseconds, so the
    // full-set test sits exactly at equality and must pass.
    let mut ac = Ac3Admission::new(640_000);
    for _ in 0..10 {
        ac.try_admit(64_000, 424, Duration::from_bits_at_rate(424, 64_000))
            .unwrap();
    }
    assert_eq!(ac.admitted_rate_bps(), 640_000);
}

#[test]
fn ac3_rejects_rate_overbooking() {
    let mut ac = Ac3Admission::new(1_536_000);
    ac.try_admit(1_000_000, 424, Duration::from_ms(10)).unwrap();
    assert_eq!(
        ac.try_admit(600_000, 424, Duration::from_ms(10))
            .unwrap_err(),
        Ac3Error::RateExceeded
    );
}

#[test]
fn ac3_singleton_test_bounds_minimum_d() {
    // Singleton A = {s}: C ≥ L·r/(r·d) = L/d ⇒ d ≥ L/C.
    let mut ac = Ac3Admission::new(1_536_000);
    let just_under = Duration::from_ps(LinkParams_lmax_ps() - 1);
    assert!(matches!(
        ac.try_admit(32_000, 424, just_under).unwrap_err(),
        Ac3Error::SubsetInfeasible { mask: 0 }
    ));
    let at_limit = Duration::from_ps(LinkParams_lmax_ps());
    assert!(ac.try_admit(32_000, 424, at_limit).is_ok());
}

/// 424 bits / 1536 kbit/s in ps, rounded as `from_bits_at_rate` does.
#[allow(non_snake_case)]
fn LinkParams_lmax_ps() -> u64 {
    Duration::from_bits_at_rate(424, 1_536_000).as_ps()
}

#[test]
fn ac3_aggressive_d_strands_bandwidth() {
    // The paper: procedure 3 "may lead to incomplete usage of
    // bandwidth". Give one session a very small d; a second session
    // at the complementary rate is then rejected by a pair subset even
    // though Σ r ≤ C.
    let mut ac = Ac3Admission::new(1_536_000);
    // d barely above L/C for a 768 kbit/s session.
    ac.try_admit(768_000, 424, Duration::from_us(300)).unwrap();
    let err = ac
        .try_admit(768_000, 424, Duration::from_us(300))
        .unwrap_err();
    assert!(
        matches!(err, Ac3Error::SubsetInfeasible { .. }),
        "expected subset infeasibility, got {err:?}"
    );
    // With a generous d the pair passes: 2L/C ≤ (r1·d1 + r2·d2)/C...
    assert!(ac.try_admit(768_000, 424, Duration::from_ms(20)).is_ok());
}

#[test]
fn ac3_equivalent_to_proc2_one_class_with_common_d() {
    // Paper: AC2 with P = 1 and ε = 0 is equivalent to AC3 when all
    // sessions share the same constant d = σ_1.
    let c = 1_536_000u64;
    let sigma = Duration::from_us(1_500);
    let classes = vec![DelayClass {
        max_bandwidth_bps: c,
        base_delay: sigma,
    }];
    let mut ac2 = ClassedAdmission::new(Procedure::Proc2, c, classes).unwrap();
    let mut ac3 = Ac3Admission::new(c);
    // Keep admitting identical sessions until one of them rejects;
    // they must reject at the same point.
    let mut n2 = 0;
    let mut n3 = 0;
    for _ in 0..40 {
        // Under AC2, rule (2.3) with R_0 = 0 gives d = σ_1 exactly.
        let req = SessionRequest::new(100_000, 424);
        if ac2.try_admit(0, &req, DRule::PerSessionMax).is_ok() {
            n2 += 1;
        }
        if ac3.try_admit(100_000, 424, sigma).is_ok() {
            n3 += 1;
        }
    }
    assert_eq!(n2, n3);
    assert!(n2 > 0);
}

#[test]
fn ac3_zero_params_rejected() {
    let mut ac = Ac3Admission::new(1000);
    assert_eq!(
        ac.try_admit(0, 424, Duration::from_ms(1)).unwrap_err(),
        Ac3Error::ZeroParameter
    );
    assert_eq!(
        ac.try_admit(100, 424, Duration::ZERO).unwrap_err(),
        Ac3Error::ZeroParameter
    );
}

#[test]
fn ac3_release_restores_feasibility_and_rate() {
    // Admit a session whose aggressive d strands the rest of the
    // link; a second identical request must fail, succeed again after
    // release, and the cached rate sum must track exactly.
    let mut ac = Ac3Admission::new(1_536_000);
    ac.try_admit(768_000, 424, Duration::from_us(300)).unwrap();
    assert_eq!(ac.admitted_rate_bps(), 768_000);
    assert!(ac.try_admit(768_000, 424, Duration::from_us(300)).is_err());
    assert!(ac.release(0));
    assert_eq!(ac.admitted_rate_bps(), 0);
    assert!(ac.is_empty());
    assert!(ac.try_admit(768_000, 424, Duration::from_us(300)).is_ok());
    assert_eq!(ac.admitted_rate_bps(), 768_000);
    // Out-of-range release is a no-op.
    assert!(!ac.release(5));
    assert_eq!(ac.len(), 1);
}

#[test]
fn ac3_release_swap_remove_keeps_rate_consistent() {
    let mut ac = Ac3Admission::new(1_000_000);
    let d = Duration::from_ms(50);
    ac.try_admit(100_000, 424, d).unwrap();
    ac.try_admit(200_000, 424, d).unwrap();
    ac.try_admit(300_000, 424, d).unwrap();
    // Releasing the middle session swaps the last into its place.
    assert!(ac.release(1));
    assert_eq!(ac.admitted_rate_bps(), 400_000);
    assert!(ac.release(1)); // the former index-2 session
    assert_eq!(ac.admitted_rate_bps(), 100_000);
    assert!(ac.release(0));
    assert_eq!(ac.admitted_rate_bps(), 0);
}

#[test]
fn ac3_rate_overflow_rejected_not_wrapped() {
    // Regression: `admitted + rate` used to be an unchecked u64 add,
    // so a near-MAX request wrapped past the capacity test. L = 1 bit
    // and d = 1 ps keep the subset products inside u128.
    let mut ac = Ac3Admission::new(u64::MAX);
    ac.try_admit(u64::MAX - 1, 1, Duration::from_ps(1)).unwrap();
    assert_eq!(
        ac.try_admit(u64::MAX - 1, 1, Duration::from_ps(1))
            .unwrap_err(),
        Ac3Error::RateExceeded
    );
    assert_eq!(ac.admitted_rate_bps(), u64::MAX - 1);
    assert_eq!(ac.len(), 1);
}

/// After any sequence of successful AC3 admissions, re-checking
/// ineq. (19) from scratch over *every* non-empty subset still passes
/// (the incremental candidate-only test loses nothing).
#[test]
fn ac3_incremental_equals_exhaustive() {
    check("ac3_incremental_equals_exhaustive", |g| {
        let n_reqs = g.size(1, 8);
        let reqs: Vec<(u64, u32)> = (0..n_reqs)
            .map(|_| (g.range(8_000, 400_000), g.range(1, 60) as u32))
            .collect();
        let c = 1_536_000u64;
        let mut ac = Ac3Admission::new(c);
        let mut admitted: Vec<(u64, u32, Duration)> = Vec::new();
        for (rate, d_ms) in reqs {
            let d = Duration::from_ms(d_ms as u64);
            if ac.try_admit(rate, 424, d).is_ok() {
                admitted.push((rate, 424, d));
            }
        }
        // From-scratch exhaustive re-check.
        let n = admitted.len();
        for mask in 1u64..(1 << n) {
            let (mut sl, mut sr, mut srd) = (0u128, 0u128, 0u128);
            for (i, (rate, len, d)) in admitted.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    sl += *len as u128;
                    sr += *rate as u128;
                    srd += *rate as u128 * d.as_ps() as u128;
                }
            }
            assert!(
                c as u128 * srd >= sl * sr * lit_sim::PS_PER_SEC as u128,
                "subset {mask:#b} infeasible after the fact"
            );
        }
    });
}
