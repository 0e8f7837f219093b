//! Differential pin: [`Ac3Fast`] against the exact `2^n` enumerator.
//!
//! Random admit/teardown interleavings drive both procedure-3 backends
//! in lockstep over the same request stream and assert, after every
//! operation:
//!
//! * identical accept/reject decisions and identical granted
//!   [`DelayAssignment`]s;
//! * aligned rejection reasons, and on `SubsetInfeasible`/`Infeasible`
//!   that *both* reported violating sets genuinely violate ineq. (19)
//!   when re-evaluated from scratch;
//! * identical `admitted_rate_bps` and session counts, returning exactly
//!   to zero after a full drain.
//!
//! Residency is capped at `|φ| ≤ 12`, where the exact enumerator is the
//! ground truth (`2^12` subsets per decision).
//!
//! Generator ranges keep every cross-multiplied product inside `u128`
//! (`C ≤ 2^33`, `L ≤ 2^20`, `d ≤ ~2^54 ps`, `Σr ≤ C`, 13 sessions), so
//! neither backend can hit its overflow guard and the comparison is
//! always of real decisions.

#![forbid(unsafe_code)]

mod common;

use common::{Ac3Admission, Ac3Error};
use lit_core::{Ac3Fast, Ac3FastError, Ac3Handle};
use lit_net::DelayAssignment;
use lit_prop::{check, Gen};
use lit_sim::{Duration, PS_PER_SEC};

/// Most sessions resident at once: the exact oracle's comfort zone.
const MAX_RESIDENT: usize = 12;

/// One live session as the harness tracks it: parameters, the fast
/// backend's handle, in a vector whose order mirrors the exact
/// enumerator's internal `swap_remove` order exactly.
#[derive(Clone, Copy)]
struct Live {
    rate_bps: u64,
    len_bits: u32,
    d: Duration,
    handle: Ac3Handle,
}

/// Exactly re-evaluate ineq. (19) for the exact enumerator's reported
/// mask (over `mirror` order) plus the candidate.
fn mask_violates(link_bps: u64, mirror: &[Live], mask: u64, cand: (u64, u32, Duration)) -> bool {
    let mut sum_l = cand.1 as u128;
    let mut sum_r = cand.0 as u128;
    let mut sum_rd = cand.0 as u128 * cand.2.as_ps() as u128;
    for (i, s) in mirror.iter().enumerate() {
        if mask & (1 << i) != 0 {
            sum_l += s.len_bits as u128;
            sum_r += s.rate_bps as u128;
            sum_rd += s.rate_bps as u128 * s.d.as_ps() as u128;
        }
    }
    sum_l * sum_r * PS_PER_SEC as u128 > link_bps as u128 * sum_rd
}

/// A random request. A small per-run palette forces repeated parameter
/// classes (exercising the fast path's all-or-none aggregation); fresh
/// draws mix feasible, boundary-tight, and fully random `d` styles.
fn gen_request(g: &mut Gen, link_bps: u64, palette: &[(u64, u32, u64)]) -> (u64, u32, Duration) {
    if !palette.is_empty() && g.bool() {
        let &(r, l, d_ps) = g.pick(palette);
        return (r, l, Duration::from_ps(d_ps));
    }
    let (r, l, d_ps) = gen_triple(g, link_bps);
    (r, l, Duration::from_ps(d_ps))
}

fn gen_triple(g: &mut Gen, link_bps: u64) -> (u64, u32, u64) {
    let r = match g.weighted(&[3, 2, 1]) {
        // A unit fraction of the link: several sessions fit exactly.
        0 => (link_bps / g.range(2, 33)).max(1),
        1 => g.range(1, link_bps + 1),
        _ => g.range(1, 1 + link_bps / 100).max(1),
    };
    let l = g.range(1, 1_000_001) as u32;
    // L/C in picoseconds — the singleton feasibility floor for d.
    let floor_ps = ((l as u128 * PS_PER_SEC as u128) / link_bps as u128).max(1) as u64;
    let d_ps = match g.weighted(&[3, 3, 2]) {
        // Comfortably feasible: a few × the floor.
        0 => floor_ps.saturating_mul(g.range(1, 17)).max(1),
        // Boundary pressure: within a few ps of the floor, either side.
        1 => {
            let jitter = g.range(0, 5);
            if g.bool() {
                floor_ps.saturating_add(jitter)
            } else {
                floor_ps.saturating_sub(jitter).max(1)
            }
        }
        // Anywhere up to ~2^54 ps (≈ 5 h).
        _ => g.range(1, 1u64 << 54),
    };
    (r, l, d_ps)
}

/// Drive one random interleaving through both backends in lockstep.
fn drive(g: &mut Gen) {
    // C ≤ 8 Gbit/s keeps all subset products (13 sessions, L ≤ 2^20,
    // d ≤ 2^54 ps) far inside u128 for both implementations.
    let link_bps = g.range(1_000, 8_000_000_000);
    let mut exact = Ac3Admission::new(link_bps);
    let mut fast = Ac3Fast::new(link_bps);
    let n_palette = g.size(0, 4);
    let palette: Vec<(u64, u32, u64)> = (0..n_palette).map(|_| gen_triple(g, link_bps)).collect();
    let mut mirror: Vec<Live> = Vec::new();

    let steps = g.size(1, 48);
    for _ in 0..steps {
        let admit = mirror.is_empty() || (mirror.len() < MAX_RESIDENT && g.weighted(&[2, 1]) == 0);
        if admit {
            // Occasionally a degenerate request: both must reject it as
            // ZeroParameter without touching state.
            let (rate_bps, len_bits, d) = if g.weighted(&[20, 1]) == 1 {
                let mut req = gen_request(g, link_bps, &palette);
                match g.weighted(&[1, 1, 1]) {
                    0 => req.0 = 0,
                    1 => req.1 = 0,
                    _ => req.2 = Duration::ZERO,
                }
                req
            } else {
                gen_request(g, link_bps, &palette)
            };
            let before_rate = exact.admitted_rate_bps();
            let re = exact.try_admit(rate_bps, len_bits, d);
            let rf = fast.try_admit(rate_bps, len_bits, d);
            match (re, rf) {
                (Ok(granted_e), Ok((handle, granted_f))) => {
                    assert_eq!(
                        granted_e, granted_f,
                        "granted assignments diverge for r={rate_bps} L={len_bits} d={d}"
                    );
                    assert_eq!(granted_f, DelayAssignment::Fixed(d));
                    mirror.push(Live {
                        rate_bps,
                        len_bits,
                        d,
                        handle,
                    });
                }
                (Err(ee), Err(ef)) => {
                    match (ee, &ef) {
                        (Ac3Error::ZeroParameter, Ac3FastError::ZeroParameter) => {}
                        (Ac3Error::RateExceeded, Ac3FastError::RateExceeded) => {}
                        (Ac3Error::SubsetInfeasible { mask }, Ac3FastError::Infeasible(w)) => {
                            assert!(
                                mask_violates(link_bps, &mirror, mask, (rate_bps, len_bits, d)),
                                "exact reported a non-violating mask {mask:#b}"
                            );
                            assert_eq!(
                                w.violates(link_bps),
                                Some(true),
                                "fast witness does not violate: {w:?}"
                            );
                        }
                        other => panic!(
                            "reject reasons diverge for r={rate_bps} L={len_bits} d={d}: {other:?}"
                        ),
                    }
                    assert_eq!(
                        exact.admitted_rate_bps(),
                        before_rate,
                        "reject mutated state"
                    );
                }
                (re, rf) => panic!(
                    "decision diverges for r={rate_bps} L={len_bits} d={d} \
                     over {} residents: exact {re:?}, fast {rf:?}",
                    mirror.len()
                ),
            }
        } else {
            let idx = g.below(mirror.len() as u64) as usize;
            let s = mirror[idx];
            assert!(exact.release(idx), "exact release({idx}) failed");
            assert!(fast.release(s.handle), "fast release failed");
            // Mirror the enumerator's swap_remove ordering.
            mirror.swap_remove(idx);
        }
        assert_eq!(exact.admitted_rate_bps(), fast.admitted_rate_bps());
        assert_eq!(exact.len(), fast.len() as usize);
        assert_eq!(exact.len(), mirror.len());
    }

    // Full drain: both return exactly to empty.
    while let Some(s) = mirror.pop() {
        assert!(exact.release(mirror.len()));
        assert!(fast.release(s.handle));
    }
    assert_eq!(exact.admitted_rate_bps(), 0);
    assert_eq!(fast.admitted_rate_bps(), 0);
    assert!(exact.is_empty() && fast.is_empty());
}

#[test]
fn fast_matches_exact_on_random_interleavings() {
    check("diff_ac3_default_path", drive);
}
