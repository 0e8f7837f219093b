//! Property tests for the fixed-point clock types near `u64::MAX`.
//!
//! The clock contract `lit_sim::time` carries in its types: arithmetic on
//! `Time`/`Duration` either reports overflow (`checked_*` returns `None`),
//! fails loudly (constructors and `+`/`-` panic) or widens (`signed_*`,
//! `From`, `picobits_at_rate`), in debug *and* release. These properties
//! drive inputs within a few thousand picoseconds of the representable
//! ceiling and assert nothing wraps.

#![forbid(unsafe_code)]

use lit_prop::{check, Gen};
use lit_sim::{Duration, ParseDurationError, Time, PS_PER_MS, PS_PER_NS, PS_PER_SEC, PS_PER_US};
use std::panic::catch_unwind;

/// A magnitude mix that hammers the overflow boundary: mostly values
/// within 4096 of `u64::MAX`, some near `MAX / unit-scale` edges, some
/// ordinary small counts as a control group.
fn gen_count(g: &mut Gen) -> u64 {
    match g.weighted(&[4, 3, 2]) {
        0 => u64::MAX - g.below(4096),
        1 => {
            let per = *g.pick(&[PS_PER_NS, PS_PER_US, PS_PER_MS, PS_PER_SEC]);
            let edge = u64::MAX / per;
            // Straddle the exact largest representable count for the unit.
            (edge - 2).saturating_add(g.below(5))
        }
        _ => g.below(1 << 20),
    }
}

/// Every multiplying constructor must agree with u128 math: return the
/// exact picosecond value when it fits in u64, panic when it does not.
#[test]
fn constructors_near_max_fail_loudly() {
    // Constructor overflow panics are the *expected* outcome for half the
    // generated inputs; silence the per-panic backtrace spam. (All panic
    // assertions live in this one test fn, so no other test in this
    // binary races on the process-global hook.)
    std::panic::set_hook(Box::new(|_| {}));
    check("constructors_near_max_fail_loudly", |g| {
        let n = gen_count(g);
        type Ctor = fn(u64) -> u64;
        let cases: [(u64, Ctor); 4] = [
            (PS_PER_NS, |k| Duration::from_ns(k).as_ps()),
            (PS_PER_US, |k| Duration::from_us(k).as_ps()),
            (PS_PER_MS, |k| Duration::from_ms(k).as_ps()),
            (PS_PER_SEC, |k| Duration::from_secs(k).as_ps()),
        ];
        for (per, ctor) in cases {
            let wide = n as u128 * per as u128;
            let got = catch_unwind(move || ctor(n));
            if wide <= u64::MAX as u128 {
                assert_eq!(got.ok(), Some(wide as u64), "unit {per}: wrong product");
            } else {
                assert!(
                    got.is_err(),
                    "unit {per}: count {n} wrapped instead of panicking"
                );
            }
        }
        // Time's constructors share the same scaling helper; spot-check one.
        let wide = n as u128 * PS_PER_MS as u128;
        let got = catch_unwind(move || Time::from_ms(n).as_ps());
        assert_eq!(got.ok(), (wide <= u64::MAX as u128).then_some(wide as u64));
    });
}

/// `checked_add`/`checked_mul`/`checked_since` must agree with u128 math
/// bit-for-bit, and the panicking operators must panic exactly when the
/// checked form reports `None`.
#[test]
fn checked_ops_match_u128_oracle() {
    std::panic::set_hook(Box::new(|_| {}));
    check("checked_ops_match_u128_oracle", |g| {
        let a = gen_count(g);
        let b = gen_count(g);
        let t = Time::from_ps(a);
        let d = Duration::from_ps(b);

        let sum = a as u128 + b as u128;
        let fits = sum <= u64::MAX as u128;
        assert_eq!(
            t.checked_add(d).map(Time::as_ps),
            fits.then_some(sum as u64),
            "checked_add disagrees with u128 for {a} + {b}"
        );
        assert_eq!(
            catch_unwind(move || (t + d).as_ps()).ok(),
            fits.then_some(sum as u64),
            "`+` must panic exactly when checked_add is None"
        );

        let k = g.below(8);
        let prod = b as u128 * k as u128;
        let fits = prod <= u64::MAX as u128;
        assert_eq!(
            d.checked_mul(k).map(Duration::as_ps),
            fits.then_some(prod as u64),
            "checked_mul disagrees with u128 for {b} * {k}"
        );

        // Subtraction in both directions: checked reports, signed widens.
        let u = Time::from_ps(b);
        if a >= b {
            assert_eq!(t.checked_since(u), Some(Duration::from_ps(a - b)));
        } else {
            assert_eq!(t.checked_since(u), None);
        }
        assert_eq!(t.signed_since(u), a as i128 - b as i128);
    });
}

/// The widened operations agree with `i128`/`u128` math for any operands:
/// signed differences are antisymmetric and extend `checked_since`, `From`
/// round-trips, eq. 8's clamp is `max(0, ·)` with the `MAX` sentinel above
/// `u64::MAX`, and the quotients and rate products cannot wrap.
#[test]
fn widened_ops_match_wide_oracle() {
    check("widened_ops_match_wide_oracle", |g| {
        let (a, b) = (gen_count(g), gen_count(g));
        let (t, u) = (Time::from_ps(a), Time::from_ps(b));
        let (d, e) = (Duration::from_ps(a), Duration::from_ps(b));
        let (wa, diff) = (a as i128, a as i128 - b as i128);

        assert_eq!((t.signed_since(u), u.signed_since(t)), (diff, -diff));
        assert_eq!((d.signed_sub(e), e.signed_sub(d)), (diff, -diff));
        match t.checked_since(u) {
            Some(span) => assert_eq!(i128::from(span), diff),
            None => assert!(diff < 0),
        }
        assert_eq!((i128::from(t), u128::from(t)), (wa, a as u128));
        assert_eq!(Duration::try_from(u128::from(d)), Ok(d));
        assert!(Duration::try_from(u128::from(d) + u128::from(u64::MAX) + 1).is_err());

        // Clamp at 0, below it, inside the range and past u64::MAX.
        let clamp = Duration::from_signed_clamped;
        assert_eq!((clamp(0), clamp(-1 - wa)), (Duration::ZERO, Duration::ZERO));
        assert_eq!(
            (clamp(wa), clamp(wa + u64::MAX as i128 + 1)),
            (d, Duration::MAX)
        );
        assert_eq!(clamp(diff), Duration::from_ps(a.saturating_sub(b)));

        let frame = Duration::from_ps(b.max(1));
        assert_eq!(t.frame_index(frame), a / b.max(1));
        assert_eq!(d.div_ceil(frame), a.div_ceil(b.max(1)));
        assert_eq!(d.picobits_at_rate(b), a as u128 * b as u128);
    });
}

/// Decimal parse ∘ exact format is the identity over all of `u64`, in
/// every unit, and the integer parser equals the float path it replaced
/// wherever that path was exact: it rounded three times (parse, `/ 10⁹`,
/// `· 10¹²`), which stays under half a picosecond below 2⁵⁰ ps (≈ 19 min)
/// and is already one off at 2⁵³ + 1.
#[test]
fn decimal_roundtrips_over_all_of_u64() {
    /// The retired `f64` parser of `scenario::parse_duration` (ns unit).
    fn float_path(num: &str) -> Duration {
        let secs = num.parse::<f64>().unwrap() / 1e9;
        Duration::from_ps((secs * PS_PER_SEC as f64).round() as u64)
    }
    check("decimal_roundtrips_over_all_of_u64", |g| {
        let ps = match g.weighted(&[2, 1, 1]) {
            0 => g.u64(),
            1 => gen_count(g),
            _ => g.below(1 << 50),
        };
        let want = Duration::from_ps(ps);
        let units = [PS_PER_NS, PS_PER_US, PS_PER_MS, PS_PER_SEC];
        for (unit, places) in units.into_iter().zip([3, 6, 9, 12]) {
            let parse = |s: &str| Duration::from_decimal(s, unit);
            let text = format!("{}.{:0places$}", ps / unit, ps % unit);
            assert_eq!(parse(&text), Ok(want), "{text} × {unit}");
            // More digits than the picosecond resolves round half-up.
            assert_eq!(parse(&format!("{text}4999")), Ok(want), "{text}4999");
            let up = want.checked_add(Duration::from_ps(1));
            assert_eq!(parse(&format!("{text}5")).ok(), up, "{text}5");
            if unit == PS_PER_NS && ps < 1 << 50 {
                assert_eq!(parse(&text), Ok(float_path(&text)));
            }
            let negative = parse(&format!("-{text}"));
            assert_eq!(negative, Err(ParseDurationError::OutOfRange));
        }
    });
}
