//! Stop-and-Go queueing (Golestani '90) — the framing-based,
//! non-work-conserving discipline of paper §4's comparison.
//!
//! Time on every link is divided into frames of length `T`. A packet
//! arriving during one frame may not be transmitted until the start of the
//! next frame — even if the link is idle — which bounds both the minimum
//! and maximum per-hop delay and yields end-to-end delay `αHT ± T`
//! (`α ∈ [1, 2)`) and jitter `≤ 2T` for `(r, T)`-smooth sessions.
//!
//! Within a frame, eligible packets are served FCFS (the admission rule —
//! at most `r_s·T` bits per session per frame, `Σ r_s ≤ C` — guarantees a
//! frame's worth of eligible traffic always fits in a frame, so intra-frame
//! order does not matter). The coupling the paper criticizes is visible
//! directly in the API: the only delay knob is the global `T`, and
//! bandwidth comes in increments of `L/T`.

use lit_net::{DelayAssignment, Discipline, LinkParams, Packet, ScheduleDecision, SessionSpec};
use lit_sim::{Duration, Time};

/// The Stop-and-Go scheduler (one per node).
#[derive(Clone, Debug)]
pub struct StopAndGoDiscipline {
    /// Frame length `T`.
    frame: Duration,
}

impl StopAndGoDiscipline {
    /// A Stop-and-Go scheduler with frame length `frame`.
    ///
    /// # Panics
    /// Panics if the frame length is zero.
    pub fn new(frame: Duration) -> Self {
        assert!(frame > Duration::ZERO, "StopAndGo: zero frame");
        StopAndGoDiscipline { frame }
    }

    /// A boxed factory for [`lit_net::NetworkBuilder::build`] with a
    /// common frame length on every link.
    pub fn factory(frame: Duration) -> impl Fn(&LinkParams) -> Box<dyn Discipline> {
        move |_: &LinkParams| Box::new(StopAndGoDiscipline::new(frame)) as Box<dyn Discipline>
    }

    /// Start of the frame *after* the one containing `t`.
    fn next_frame_start(&self, t: Time) -> Time {
        Time::ZERO + self.frame * (t.frame_index(self.frame) + 1)
    }
}

impl Discipline for StopAndGoDiscipline {
    fn name(&self) -> &'static str {
        "stop-and-go"
    }

    fn register_session(&mut self, _: &SessionSpec, _: &DelayAssignment) {}

    fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
        // Held until the next frame boundary; FCFS within the frame
        // (equal keys resolve FIFO in the node queue).
        let eligible = self.next_frame_start(now);
        pkt.deadline = eligible + self.frame;
        ScheduleDecision::at(eligible, eligible)
    }

    fn on_departure(&mut self, _: &mut Packet, _: Time) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_net::SessionId;

    #[test]
    fn packets_wait_for_the_next_frame() {
        let d = StopAndGoDiscipline::new(Duration::from_ms(10));
        assert_eq!(d.next_frame_start(Time::from_ms(0)), Time::from_ms(10));
        assert_eq!(d.next_frame_start(Time::from_ms(9)), Time::from_ms(10));
        // A packet arriving exactly at a boundary belongs to the frame
        // that starts there and waits for the following one.
        assert_eq!(d.next_frame_start(Time::from_ms(10)), Time::from_ms(20));
    }

    #[test]
    fn eligibility_is_frame_aligned() {
        let mut d = StopAndGoDiscipline::new(Duration::from_ms(10));
        d.register_session(
            &SessionSpec::atm(SessionId(0), 32_000),
            &DelayAssignment::LenOverRate,
        );
        let mut p = Packet::new(SessionId(0), 1, 424, Time::from_us(3_700));
        let dec = d.on_arrival(&mut p, Time::from_us(3_700));
        assert_eq!(dec.eligible, Time::from_ms(10));
        // Per-hop delay is at most 2T: held < T, then served within the
        // next frame.
        assert_eq!(p.deadline, Time::from_ms(20));
    }
}
