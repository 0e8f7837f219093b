//! The [`Source`] abstraction: anything that emits a timed sequence of
//! packets into the network.
//!
//! A source is a *pull*-style generator: the simulation executor asks for
//! the next emission and schedules it. Sources carry their own internal
//! clock, so they are independent of the event loop and can be unit-tested
//! (and property-tested) in isolation.
//!
//! A source may also say that it is strictly periodic
//! ([`Source::period`]). The executor uses that only to pick the
//! event-set lane the source's injections go through — sources of one
//! period fire in a fixed cyclic order, a sorted run — and checks every
//! push against the lane's tail, so a wrong answer costs speed, never
//! order.

use lit_sim::{Duration, SimRng, Time};

/// A single packet emission: the instant the packet is handed to the
/// network (its last bit generated) and its length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Emission {
    /// When the packet enters the network.
    pub at: Time,
    /// Packet length in bits (header + payload, as the paper counts it).
    pub len_bits: u32,
}

/// A packet generator with its own notion of time.
///
/// Implementations must be **monotone**: successive calls return
/// non-decreasing `at` values. `None` means the source is exhausted and
/// will never emit again.
///
/// `Send` is a supertrait so the sharded executor can pin each session's
/// source to the worker thread owning its first hop; sources are
/// self-contained generators with no shared handles.
pub trait Source: Send {
    /// Produce the next emission, advancing internal state.
    fn next_emission(&mut self, rng: &mut SimRng) -> Option<Emission>;

    /// Long-run average bit rate, if the model has one in closed form.
    /// Used for documentation, sanity checks and utilization estimates —
    /// never for scheduling.
    fn mean_rate_bps(&self) -> Option<f64> {
        None
    }

    /// The fixed spacing of successive emissions, if every gap is the
    /// same. A scheduling *hint* (see the module docs): never relied on
    /// for correctness, and `None` is always a valid answer.
    fn period(&self) -> Option<Duration> {
        None
    }

    /// Whether [`Source::next_emission`] ever draws from its `rng`. A
    /// source that answers `false` is handed a stream shared with the
    /// other sources that never draw, so the executor keeps random state
    /// only for sources that use it; `true` is always a valid answer.
    fn draws(&self) -> bool {
        true
    }
}

/// Extension helpers for working with sources outside the event loop.
pub trait SourceExt: Source {
    /// Collect every emission up to (and excluding) `horizon`.
    ///
    /// Convenient for analysis and tests; the real simulator pulls lazily.
    fn emissions_until(&mut self, horizon: Time, rng: &mut SimRng) -> Vec<Emission> {
        let mut out = Vec::new();
        while let Some(e) = self.next_emission(rng) {
            if e.at >= horizon {
                break;
            }
            out.push(e);
        }
        out
    }
}

impl<S: Source + ?Sized> SourceExt for S {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-packet source for exercising the trait plumbing.
    struct TwoShots {
        sent: u32,
    }

    impl Source for TwoShots {
        fn next_emission(&mut self, _rng: &mut SimRng) -> Option<Emission> {
            if self.sent >= 2 {
                return None;
            }
            self.sent += 1;
            Some(Emission {
                at: Time::ZERO + Duration::from_ms(self.sent as u64),
                len_bits: 424,
            })
        }
    }

    #[test]
    fn emissions_until_respects_horizon() {
        let mut rng = SimRng::seed_from(0);
        let mut s = TwoShots { sent: 0 };
        let got = s.emissions_until(Time::from_ms(2), &mut rng);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].at, Time::from_ms(1));
    }

    #[test]
    fn exhaustion() {
        let mut rng = SimRng::seed_from(0);
        let mut s = TwoShots { sent: 0 };
        assert!(s.next_emission(&mut rng).is_some());
        assert!(s.next_emission(&mut rng).is_some());
        assert!(s.next_emission(&mut rng).is_none());
    }
}
