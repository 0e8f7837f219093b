//! Fixed-point simulated time.
//!
//! All simulated clocks in this workspace are expressed in **picoseconds**
//! held in a `u64`. Picosecond resolution was chosen because the paper's
//! evaluation multiplexes 424-bit ATM cells onto 1536 kbit/s (T1) links: one
//! cell transmission lasts 276 041 666.6̅ ps, so rounding to the nearest
//! picosecond accumulates less than 0.7 ps of error per transmission — far
//! below the millisecond scale at which the paper's bounds live — while a
//! `u64` still spans 213 days of simulated time, ample for the paper's
//! 5–10 minute runs.
//!
//! Two newtypes are provided, mirroring `std::time`:
//!
//! * [`Time`] — an absolute instant on the simulation clock (zero = start of
//!   the run);
//! * [`Duration`] — a non-negative span between instants.
//!
//! **The clock contract lives here** (DESIGN.md §9). Eq. 8–11 and
//! ineq. 12–17 hold only in exact picosecond arithmetic, and a wrapped
//! clock would corrupt event ordering, so every operation the engine needs
//! is a named method that checks (`checked_*`), panics in debug *and*
//! release (`+`, `-`) or widens — signed differences to `i128`,
//! `ps × rate` to `u128`, the way back through `TryFrom<u128>` — and the
//! header below makes this file prove its own arithmetic to clippy.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::float_arithmetic
)]

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// Scale a raw unit count into picoseconds, panicking on overflow in
/// debug *and* release: a clock constructor that wrapped would corrupt
/// every deadline downstream, so it must fail loudly instead.
const fn scale_ps(count: u64, per: u64) -> u64 {
    match count.checked_mul(per) {
        Some(ps) => ps,
        None => panic!("clock constructor overflowed u64 picoseconds"),
    }
}

/// `u64` arithmetic widened to 128 bits, where it cannot wrap.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "a difference of two u64s fits i128; a product of two is at most 2¹²⁸ − 2⁶⁵ + 1, which leaves room for den/2 < 2⁶³; a zero den is the documented panic"
)]
mod wide {
    /// `a − b`.
    #[inline]
    pub(super) const fn signed_diff(a: u64, b: u64) -> i128 {
        a as i128 - b as i128
    }

    /// `a · b`.
    #[inline]
    pub(super) const fn mul(a: u64, b: u64) -> u128 {
        a as u128 * b as u128
    }

    /// `a · b / den` rounded half-up; panics if `den` is zero.
    #[inline]
    pub(super) const fn mul_div_round(a: u64, b: u64, den: u64) -> u128 {
        (mul(a, b) + den as u128 / 2) / den as u128
    }
}

/// Picobits per bit: a picosecond at one bit per second.
const PB_PER_BIT: u128 = PS_PER_SEC as u128;

/// A picosecond count as a float ratio: the lossy door, for reports only.
#[inline]
#[expect(
    clippy::cast_precision_loss,
    clippy::float_arithmetic,
    reason = "reporting boundary: lossy by contract, never fed back into a clock"
)]
fn ratio_f64(ps: u64, per: u64) -> f64 {
    ps as f64 / per as f64
}

/// An absolute instant on the simulation clock, in picoseconds since the
/// start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A non-negative span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

/// What `Time` and `Duration` share: unit constructors that fail loudly,
/// raw and lossy accessors, lossless widening to picoseconds (`i128` for
/// sums of signed terms — eq. 9, ineq. 12's `D^ref_max + β + α`; `u128` for
/// key spaces — eq. 10's deadline as an EDF key), `+=` and `Display`/`Debug`.
macro_rules! clock_common {
    ($T:ident, $debug_prefix:literal) => {
        impl $T {
            /// Construct from raw picoseconds.
            #[inline]
            pub const fn from_ps(ps: u64) -> Self {
                $T(ps)
            }

            /// Construct from nanoseconds.
            #[inline]
            pub const fn from_ns(ns: u64) -> Self {
                $T(scale_ps(ns, PS_PER_NS))
            }

            /// Construct from microseconds.
            #[inline]
            pub const fn from_us(us: u64) -> Self {
                $T(scale_ps(us, PS_PER_US))
            }

            /// Construct from milliseconds.
            #[inline]
            pub const fn from_ms(ms: u64) -> Self {
                $T(scale_ps(ms, PS_PER_MS))
            }

            /// Construct from seconds.
            #[inline]
            pub const fn from_secs(s: u64) -> Self {
                $T(scale_ps(s, PS_PER_SEC))
            }

            /// Raw picosecond count.
            #[inline]
            pub const fn as_ps(self) -> u64 {
                self.0
            }

            /// Value in (fractional) seconds. Lossy; for reporting only.
            #[inline]
            pub fn as_secs_f64(self) -> f64 {
                ratio_f64(self.0, PS_PER_SEC)
            }

            /// Value in (fractional) milliseconds. Lossy; for reporting only.
            #[inline]
            pub fn as_millis_f64(self) -> f64 {
                ratio_f64(self.0, PS_PER_MS)
            }
        }

        impl From<$T> for i128 {
            #[inline]
            fn from(x: $T) -> i128 {
                i128::from(x.0)
            }
        }

        impl From<$T> for u128 {
            #[inline]
            fn from(x: $T) -> u128 {
                u128::from(x.0)
            }
        }

        impl AddAssign<Duration> for $T {
            #[inline]
            fn add_assign(&mut self, rhs: Duration) {
                *self = *self + rhs;
            }
        }

        impl fmt::Display for $T {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&format_ps(self.0))
            }
        }

        impl fmt::Debug for $T {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($debug_prefix, "{}"), format_ps(self.0))
            }
        }
    };
}
clock_common!(Time, "t=");
clock_common!(Duration, "");

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel (e.g. "no next event").
    pub const MAX: Time = Time(u64::MAX);

    /// Duration elapsed since `earlier`, or `None` if `earlier` is later
    /// than `self`.
    #[inline]
    pub fn checked_since(self, earlier: Time) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration)
    }

    /// `self − other` in signed picoseconds, exact for any two instants:
    /// the lead time `F − t` an EDF scheduler is a function of, and the
    /// lateness `F̂ − F` the non-saturation lemma bounds (`< L_MAX/C`).
    #[inline]
    pub const fn signed_since(self, other: Time) -> i128 {
        wide::signed_diff(self.0, other.0)
    }

    /// `⌊t / T⌋`, the index of the frame of length `frame` holding this
    /// instant (HRR, Stop-and-Go). Panics if `frame` is zero.
    #[inline]
    pub fn frame_index(self, frame: Duration) -> u64 {
        self.0
            .checked_div(frame.0)
            .expect("frame_index: zero frame")
    }

    /// `self + d`, or `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: Duration) -> Option<Time> {
        self.0.checked_add(d.0).map(Time)
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span; an "infinite" sentinel.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from fractional seconds, rounding to the nearest
    /// picosecond. Panics on negative, non-finite, or out-of-range input.
    /// A float door: `clippy.toml` disallows it, so each caller states why
    /// its value is a float by nature (a random draw, a statistic);
    /// literals and text have exact constructors.
    #[expect(
        clippy::float_arithmetic,
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        reason = "the float door itself: one rounding to the nearest picosecond, range-checked above the cast"
    )]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "Duration::from_secs_f64: invalid seconds {s}"
        );
        let ps = s * PS_PER_SEC as f64;
        assert!(ps <= u64::MAX as f64, "Duration::from_secs_f64: overflow");
        Duration(ps.round() as u64)
    }

    /// [`Duration::from_secs_f64`] in milliseconds; a float door like it.
    #[expect(
        clippy::float_arithmetic,
        clippy::disallowed_methods,
        reason = "the float door itself, in its millisecond spelling"
    )]
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Parse an unsigned decimal literal (`digits[.digits]`, no sign, no
    /// exponent) counting units of `unit_ps` — `"13.25"` with
    /// [`PS_PER_MS`] is 13.25 ms — in integer arithmetic: exact, half-up at
    /// the picosecond. The one door for clocks that arrive as text
    /// (scenario files, CSV traces); every `u64` picosecond count survives
    /// format → parse, which a float path loses above 2⁵³. Fraction digits
    /// past the nineteenth are checked but cannot move a power-of-ten
    /// unit's rounding and are not weighed.
    ///
    /// # Errors
    /// `Malformed` for anything but `digits[.digits]`, `OutOfRange` for a
    /// negative literal or one past `u64::MAX` picoseconds.
    pub fn from_decimal(text: &str, unit_ps: u64) -> Result<Self, ParseDurationError> {
        use ParseDurationError::{Malformed, OutOfRange};
        let (negative, text) = match text.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, text),
        };
        let (whole, frac) = text.split_once('.').unwrap_or((text, ""));
        let all_digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
        if whole.len().max(frac.len()) == 0 || !all_digits(whole) || !all_digits(frac) {
            return Err(Malformed);
        }
        if negative {
            return Err(OutOfRange);
        }
        // An ASCII digit's value is its low nibble.
        let push = |acc: u64, b: u8| acc.checked_mul(10)?.checked_add(u64::from(b & 0x0f));
        let units = whole.bytes().try_fold(0u64, push).ok_or(OutOfRange)?;
        // Nineteen digits stay below 10¹⁹ < 2⁶⁴: neither fold can fail.
        let (frac_num, scale) = frac
            .bytes()
            .take(19)
            .try_fold((0u64, 1u64), |(n, s), b| {
                Some((push(n, b)?, s.checked_mul(10)?))
            })
            .ok_or(OutOfRange)?;
        wide::mul(units, unit_ps)
            .checked_add(wide::mul_div_round(frac_num, unit_ps, scale))
            .and_then(|ps| Duration::try_from(ps).ok())
            .ok_or(OutOfRange)
    }

    /// Eq. 8's clamp, `max(0, ·)`, from signed picoseconds: the holding
    /// time `A = max{0, F + L_MAX/C − F̂ + d_max − d_i}` (eq. 8–9) and the
    /// `max(0, D^ref_max + β + α)` of ineq. 12 and 17 — the one place
    /// where clamping a clock *is* the semantics. Past `u64::MAX` ps it
    /// gives the [`Duration::MAX`] sentinel, not a per-packet panic.
    #[inline]
    pub fn from_signed_clamped(ps: i128) -> Self {
        match u64::try_from(ps.max(0)) {
            Ok(ps) => Duration(ps),
            Err(_) => Duration::MAX,
        }
    }

    /// The time it takes to emit `bits` bits at `rate_bps` bits per second,
    /// rounded to the nearest picosecond in `u128`: *the* primitive behind
    /// every rate computation (`L/r` of eq. 11, `L/C`, `b₀/r` of eq. 14).
    /// Panics if `rate_bps == 0` or the span overflows.
    #[inline]
    pub fn from_bits_at_rate(bits: u64, rate_bps: u64) -> Self {
        assert!(rate_bps > 0, "from_bits_at_rate: zero rate");
        match Duration::try_from(wide::mul_div_round(bits, PS_PER_SEC, rate_bps)) {
            Ok(d) => d,
            Err(_) => panic!("from_bits_at_rate: overflow"),
        }
    }

    /// `self × rate_bps` in picobits (`1 bit = 10¹²`): exactly what a
    /// server of that rate emits in this span. The widened product behind
    /// the token bucket's refill, the buffer bounds' `r·(window)` and
    /// AC3's `r·d` (ineq. 19); cannot overflow.
    #[inline]
    pub const fn picobits_at_rate(self, rate_bps: u64) -> u128 {
        wide::mul(self.0, rate_bps)
    }

    /// The number of whole bits a server of `rate_bps` emits in `self`
    /// (floor). Inverse of [`Duration::from_bits_at_rate`] up to rounding.
    /// Panics if the count exceeds `u64`.
    #[inline]
    pub fn bits_at_rate(self, rate_bps: u64) -> u64 {
        let bits = self.picobits_at_rate(rate_bps) / PB_PER_BIT;
        u64::try_from(bits).expect("bits_at_rate: overflow")
    }

    /// [`Duration::bits_at_rate`] rounded **up** — the direction in which
    /// a buffer-space bound `r·(D^ref_max + …)` stays a bound.
    #[inline]
    pub fn bits_at_rate_ceil(self, rate_bps: u64) -> u64 {
        let bits = self.picobits_at_rate(rate_bps).div_ceil(PB_PER_BIT);
        u64::try_from(bits).expect("bits_at_rate_ceil: overflow")
    }

    /// `self − d` in signed picoseconds, exact for any two spans: eq. 9's
    /// `d_max − d_i`, ineq. 12's excess `D_i − D^ref_i` and its
    /// `α = max{d_i − L_i/r}`, any of which may be negative.
    #[inline]
    pub const fn signed_sub(self, d: Duration) -> i128 {
        wide::signed_diff(self.0, d.0)
    }

    /// `⌈self / d⌉` (RCSP's `⌈w / x_min⌉` packets in a window). Panics if
    /// `d` is zero.
    #[inline]
    pub fn div_ceil(self, d: Duration) -> u64 {
        assert!(d.0 > 0, "Duration::div_ceil: zero divisor");
        self.0.div_ceil(d.0)
    }

    /// `self + d`, or `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: Duration) -> Option<Duration> {
        self.0.checked_add(d.0).map(Duration)
    }

    /// `self - d`, or `None` if `d > self`.
    #[inline]
    pub fn checked_sub(self, d: Duration) -> Option<Duration> {
        self.0.checked_sub(d.0).map(Duration)
    }

    /// `self * k`, or `None` on overflow.
    #[inline]
    pub fn checked_mul(self, k: u64) -> Option<Duration> {
        self.0.checked_mul(k).map(Duration)
    }
}

/// The checked way back from widened picoseconds: `Err` past `u64::MAX`.
impl TryFrom<u128> for Duration {
    type Error = core::num::TryFromIntError;
    #[inline]
    fn try_from(ps: u128) -> Result<Duration, Self::Error> {
        u64::try_from(ps).map(Duration)
    }
}

/// Why [`Duration::from_decimal`] rejected a literal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseDurationError {
    /// Not `digits[.digits]`.
    Malformed,
    /// Negative, or past `u64::MAX` picoseconds.
    OutOfRange,
}

/// The panicking operators: the checked integer operation, failing loudly
/// in debug *and* release. `Time − Time` is the elapsed span; use
/// `checked_since`/`signed_since` when the order is uncertain.
macro_rules! loud_op {
    ($($Op:ident $op:ident $L:ident $R:ident $Out:ident $checked:ident $msg:literal;)*) => {$(
        impl $Op<$R> for $L {
            type Output = $Out;
            #[inline]
            fn $op(self, rhs: $R) -> $Out {
                $Out(self.0.$checked(rhs.0).expect($msg))
            }
        }
    )*};
}
loud_op! {
    Add add Time Duration Time checked_add "Time + Duration overflowed";
    Sub sub Time Duration Time checked_sub "Time - Duration underflowed";
    Sub sub Time Time Duration checked_sub "Time - Time underflowed";
    Add add Duration Duration Duration checked_add "Duration + Duration overflowed";
    Sub sub Duration Duration Duration checked_sub "Duration - Duration underflowed";
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.checked_mul(rhs).expect("Duration * u64 overflowed"))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0.checked_div(rhs).expect("Duration / 0"))
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

/// Render a picosecond count with a human-scale unit.
fn format_ps(ps: u64) -> String {
    if ps == 0 {
        "0s".to_string()
    } else if ps.is_multiple_of(PS_PER_SEC) {
        format!("{}s", ps / PS_PER_SEC)
    } else if ps >= PS_PER_SEC {
        format!("{:.6}s", ratio_f64(ps, PS_PER_SEC))
    } else if ps >= PS_PER_MS {
        format!("{:.6}ms", ratio_f64(ps, PS_PER_MS))
    } else if ps >= PS_PER_US {
        format!("{:.3}us", ratio_f64(ps, PS_PER_US))
    } else if ps >= PS_PER_NS {
        format!("{:.3}ns", ratio_f64(ps, PS_PER_NS))
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_secs(1), Time::from_ms(1000));
        assert_eq!(Time::from_ms(1), Time::from_us(1000));
        assert_eq!(Time::from_us(1), Time::from_ns(1000));
        assert_eq!(Time::from_ns(1), Time::from_ps(1000));
        assert_eq!(Duration::from_secs(2).as_ps(), 2 * PS_PER_SEC);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = Time::from_ms(5) + Duration::from_us(250);
        assert_eq!(t - Time::from_ms(5), Duration::from_us(250));
        assert_eq!(t - Duration::from_us(250), Time::from_ms(5));
    }

    #[test]
    fn atm_cell_on_t1_link() {
        // 424 bits at 1536 kbit/s = 276.0416̅ us.
        let d = Duration::from_bits_at_rate(424, 1_536_000);
        assert_eq!(d.as_ps(), 276_041_667); // rounded from ...666.67
                                            // And on a 32 kbit/s reservation: exactly 13.25 ms.
        let d = Duration::from_bits_at_rate(424, 32_000);
        assert_eq!(d, Duration::from_us(13_250));
    }

    #[test]
    fn bits_at_rate_inverts() {
        let d = Duration::from_bits_at_rate(1_000_000, 1_536_000);
        let bits = d.bits_at_rate(1_536_000);
        assert!((bits as i64 - 1_000_000).abs() <= 1, "bits={bits}");
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn time_sub_panics_on_reversed_order() {
        let _ = Time::from_ms(1) - Time::from_ms(2);
    }

    #[test]
    fn checked_ops() {
        assert_eq!(Time::from_ms(1).checked_since(Time::from_ms(2)), None);
        assert_eq!(
            Time::from_ms(2).checked_since(Time::from_ms(1)),
            Some(Duration::from_ms(1))
        );
        assert_eq!(Time::MAX.checked_add(Duration::from_ps(1)), None);
        assert_eq!(Duration::MAX.checked_mul(2), None);
    }

    #[test]
    fn decimal_literals_parse_exactly() {
        use ParseDurationError::{Malformed, OutOfRange};
        let ms = |s| Duration::from_decimal(s, PS_PER_MS);
        assert_eq!(ms("13.25"), Ok(Duration::from_us(13_250)));
        assert_eq!((ms(".5"), ms("5.")), (ms("0.5"), ms("5")));
        // Half-up at the picosecond; later digits cannot un-round it.
        let ns = |s| Duration::from_decimal(s, PS_PER_NS);
        assert_eq!(ns("0.0004999999999999999999999"), Ok(Duration::ZERO));
        assert_eq!(ns("0.0005"), Ok(Duration::from_ps(1)));
        assert_eq!(ns("18446744073709551.615"), Ok(Duration::MAX));
        assert_eq!(ns("18446744073709551.616"), Err(OutOfRange));
        assert_eq!(ms("-1"), Err(OutOfRange));
        for bad in ["", ".", "-", "-x", "1e3", "+1", "1.2.3", "inf", "1 "] {
            assert_eq!(ms(bad), Err(Malformed), "{bad:?}");
        }
    }

    /// The paper's Table-1 mean gaps are whole nanoseconds; the
    /// experiments name them as `Duration::from_ns` constants. Each is
    /// pinned here against the float spelling it replaced.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the float spellings are this test's reference"
    )]
    fn paper_table1_gaps_are_whole_nanoseconds() {
        for (ns, secs) in [
            (1_514_300, 1.5143e-3),
            (392_900, 0.3929e-3),
            (288_040, 0.28804e-3),
            (800_000, 0.8e-3),
        ] {
            assert_eq!(Duration::from_ns(ns), Duration::from_secs_f64(secs));
        }
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the float doors' own unit test")]
    fn from_secs_f64_rounds() {
        assert_eq!(Duration::from_secs_f64(0.001), Duration::from_ms(1));
        assert_eq!(Duration::from_millis_f64(13.25), Duration::from_us(13_250));
    }

    #[test]
    fn display_units() {
        assert_eq!(Duration::from_secs(3).to_string(), "3s");
        assert_eq!(Duration::from_ps(5).to_string(), "5ps");
        assert_eq!(Duration::from_ms(2).to_string(), "2.000000ms");
    }

    #[test]
    fn duration_sum() {
        let total: Duration = [Duration::from_ms(1), Duration::from_us(500), Duration::ZERO]
            .into_iter()
            .sum();
        assert_eq!(total, Duration::from_us(1_500));
        let empty: Duration = std::iter::empty().sum();
        assert_eq!(empty, Duration::ZERO);
    }

    #[test]
    fn time_display_and_debug() {
        assert_eq!(Time::from_secs(2).to_string(), "2s");
        assert_eq!(format!("{:?}", Time::from_ms(1)), "t=1.000000ms");
        assert_eq!(Duration::from_us(3).to_string(), "3.000us");
        assert_eq!(Duration::from_ns(7).to_string(), "7.000ns");
    }

    #[test]
    fn min_max() {
        let a = Time::from_ms(1);
        let b = Time::from_ms(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = Duration::from_ms(1);
        let y = Duration::from_ms(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }
}
