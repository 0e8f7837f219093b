//! Known-bad clock arithmetic. Never compiled as a file: CI's
//! `clock-contract` job appends each function to `core/discipline.rs` in
//! turn and requires the diagnostic DESIGN.md §9 names for it.

pub fn bare_u64_math(t: Time, d: Duration) -> u64 {
    t.as_ps() + d.as_ps()
}

pub fn right_operand(t: Time, d: Duration) -> u64 {
    t.as_ps() / 3 + 2 * d.as_ps()
}

pub fn computed_ctor(ps: u128) -> Duration {
    Duration::from_ps(ps as u64)
}

pub fn arith_ctor(k: u64) -> Duration {
    Duration::from_ms(k * 40 + 7)
}

pub fn float_ctor(x: f64) -> Duration {
    Duration::from_secs_f64(x)
}
