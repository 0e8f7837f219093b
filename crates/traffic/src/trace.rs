//! Trace-replay source: emits a pre-recorded packet sequence.
//!
//! Used by tests (hand-crafted adversarial arrival patterns), by the
//! property-test harness (arbitrary arrival sequences from proptest), and
//! by anyone wanting to feed measured traces through the simulator.

use crate::source::{Emission, Source};
use lit_sim::{Duration, ParseDurationError, SimRng, Time, PS_PER_US};

/// Replays a fixed list of emissions, in order.
#[derive(Clone, Debug)]
pub struct TraceSource {
    trace: Vec<Emission>,
    pos: usize,
}

impl TraceSource {
    /// Build from an emission list.
    ///
    /// # Panics
    /// Panics if the trace is not sorted by time (a source must be
    /// monotone).
    pub fn new(trace: Vec<Emission>) -> Self {
        assert!(
            trace.windows(2).all(|w| w[0].at <= w[1].at),
            "TraceSource: trace not time-sorted"
        );
        TraceSource { trace, pos: 0 }
    }

    /// Build from `(time, len_bits)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Time, u32)>) -> Self {
        Self::new(
            pairs
                .into_iter()
                .map(|(at, len_bits)| Emission { at, len_bits })
                .collect(),
        )
    }

    /// Number of emissions not yet replayed.
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.pos
    }

    /// Parse a trace from CSV text with a `time_us,len_bits` header —
    /// the interchange format for replaying externally captured traces.
    /// Times are decimal microseconds, read exactly
    /// ([`Duration::from_decimal`]).
    ///
    /// # Errors
    /// Returns a message naming the offending 1-based line.
    pub fn from_csv(text: &str) -> Result<Self, String> {
        let mut pairs = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (i == 0 && line.starts_with("time_us")) {
                continue;
            }
            let (t, l) = line
                .split_once(',')
                .ok_or_else(|| format!("line {}: expected 'time_us,len_bits'", i + 1))?;
            let at = Duration::from_decimal(t.trim(), PS_PER_US).map_err(|e| match e {
                ParseDurationError::Malformed => format!("line {}: bad time '{t}'", i + 1),
                ParseDurationError::OutOfRange => format!("line {}: time out of range", i + 1),
            })?;
            let len: u32 = l
                .trim()
                .parse()
                .map_err(|_| format!("line {}: bad length '{l}'", i + 1))?;
            pairs.push((Time::ZERO + at, len));
        }
        if pairs.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err("trace not time-sorted".to_string());
        }
        Ok(Self::from_pairs(pairs))
    }

    /// Serialize the *remaining* trace as CSV (`time_us,len_bits`),
    /// inverse of [`TraceSource::from_csv`] up to microsecond rounding.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_us,len_bits\n");
        for e in &self.trace[self.pos..] {
            out.push_str(&format!(
                "{:.3},{}\n",
                (e.at - Time::ZERO).as_secs_f64() * 1e6,
                e.len_bits
            ));
        }
        out
    }
}

impl Source for TraceSource {
    fn next_emission(&mut self, _rng: &mut SimRng) -> Option<Emission> {
        let e = self.trace.get(self.pos).copied()?;
        self.pos += 1;
        Some(e)
    }

    fn draws(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_in_order_then_exhausts() {
        let mut s = TraceSource::from_pairs([
            (Time::from_ms(1), 100),
            (Time::from_ms(1), 200),
            (Time::from_ms(3), 300),
        ]);
        let mut rng = SimRng::seed_from(0);
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.next_emission(&mut rng).unwrap().len_bits, 100);
        assert_eq!(s.next_emission(&mut rng).unwrap().len_bits, 200);
        assert_eq!(s.next_emission(&mut rng).unwrap().len_bits, 300);
        assert_eq!(s.next_emission(&mut rng), None);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "not time-sorted")]
    fn rejects_unsorted_trace() {
        let _ = TraceSource::from_pairs([(Time::from_ms(2), 1), (Time::from_ms(1), 1)]);
    }

    #[test]
    fn csv_roundtrip() {
        let src = TraceSource::from_pairs([
            (Time::from_us(1_500), 424),
            (Time::from_ms(2), 212),
            (Time::from_ms(2), 424),
        ]);
        let csv = src.to_csv();
        assert!(csv.starts_with("time_us,len_bits\n"));
        let back = TraceSource::from_csv(&csv).unwrap();
        assert_eq!(back.remaining(), 3);
        let mut rng = lit_sim::SimRng::seed_from(0);
        let mut a = src;
        let mut b = back;
        for _ in 0..3 {
            let x = a.next_emission(&mut rng).unwrap();
            let y = b.next_emission(&mut rng).unwrap();
            assert_eq!(x.len_bits, y.len_bits);
            // Round-trip through fractional microseconds: sub-ns exact.
            let dx = x.at.signed_since(y.at).abs();
            assert!(dx < 1_000_000, "time drifted by {dx} ps");
        }
    }

    #[test]
    fn csv_parse_errors_name_lines() {
        assert!(TraceSource::from_csv("time_us,len_bits\nxyz,1")
            .unwrap_err()
            .contains("line 2"));
        assert!(TraceSource::from_csv("5,424\n1,424")
            .unwrap_err()
            .contains("not time-sorted"));
        assert!(TraceSource::from_csv("1").unwrap_err().contains("line 1"));
        assert!(TraceSource::from_csv("-3,424")
            .unwrap_err()
            .contains("range"));
    }
}
