//! Known-good fixture: none of the rules may fire on this file when
//! presented under a production `src/` location. Never compiled.
//!
//! The lower half exercises the context-mask cases (slice patterns,
//! types, test modules) that a token-pattern reading takes for code.
#![forbid(unsafe_code)]

/// Clock math stays inside the newtypes or widens before leaving them.
fn widened(a: Time, b: Time) -> i128 {
    a.as_ps() as i128 - b.as_ps() as i128
}

/// Checked operations with handled `None` arms.
fn checked(t: Time, d: Duration) -> Time {
    t.checked_add(d).unwrap_or(Time::MAX)
}

/// Constructors fed literals or plain bindings only.
fn built() -> Duration {
    Duration::from_ms(40)
}

/// Slice patterns are patterns, not index expressions.
fn slice_pattern(xs: &[u64]) -> u64 {
    let [a, b] = [1u64, 2] else { return 0 };
    match xs {
        [first, .., last] => first + last,
        _ => a + b,
    }
}

/// `from_ps`/`Duration` in type or pattern position is not clock math.
struct Typed {
    window_ps: u64,
}

fn typed(t: Typed) -> u64 {
    let Typed { window_ps } = t;
    window_ps
}

#[cfg(test)]
mod tests {
    /// Test code may do raw clock math.
    #[test]
    fn test_code_is_exempt() {
        assert_eq!(Duration::from_ms(1).as_ps() * 2, 2_000_000_000);
    }
}
