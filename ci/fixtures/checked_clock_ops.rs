//! Known-bad modular arithmetic on clocks; see `raw_time_arithmetic.rs`.
//! `wraps` and `overflows` are no longer rejected (DESIGN.md §9 says why).

pub fn wraps(deadline_ps: u64, step: u64) -> u64 {
    deadline_ps.wrapping_add(step)
}

pub fn saturates(a: Time, b: Time) -> Duration {
    a.saturating_since(b)
}

pub fn overflows(d: Duration, k: u64) -> (u64, bool) {
    d.as_ps().overflowing_mul(k)
}
