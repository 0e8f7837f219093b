//! VirtualClock (L. Zhang, SIGCOMM '90 / ToCS '91) — the discipline
//! Leave-in-Time generalizes.
//!
//! Each packet is stamped with the finishing time it would have in the
//! session's dedicated fixed-rate server (eq. 2 of the Leave-in-Time
//! paper):
//!
//! ```text
//! F_i = max{ t_i, F_{i-1} } + L_i / r,    F_0 = t_1
//! ```
//!
//! and packets are served in increasing stamp order. This file is an
//! *independent* implementation (it never touches `lit-core`), which lets
//! the test suite verify the paper's claim that Leave-in-Time with one
//! admission class, `d = L/r`, and no jitter control behaves identically.

use lit_net::{DelayAssignment, Discipline, Packet, ScheduleDecision, SessionSpec, SessionTable};
use lit_sim::{Duration, Time};

/// Per-session VirtualClock state.
#[derive(Clone, Copy, Debug)]
struct VcState {
    rate_bps: u64,
    /// `F_{i-1}`; `None` before the first packet.
    f_prev: Option<Time>,
}

/// The VirtualClock scheduler (one per node).
#[derive(Clone, Debug, Default)]
pub struct VirtualClockDiscipline {
    sessions: SessionTable<VcState>,
}

impl VirtualClockDiscipline {
    /// A new VirtualClock scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// A boxed factory for [`lit_net::NetworkBuilder::build`].
    pub fn factory() -> impl Fn(&lit_net::LinkParams) -> Box<dyn Discipline> {
        |_: &lit_net::LinkParams| Box::new(VirtualClockDiscipline::new()) as Box<dyn Discipline>
    }
}

impl Discipline for VirtualClockDiscipline {
    fn name(&self) -> &'static str {
        "virtualclock"
    }

    fn register_session(&mut self, spec: &SessionSpec, _: &DelayAssignment) {
        self.sessions.insert(
            spec.id,
            VcState {
                rate_bps: spec.rate_bps,
                f_prev: None,
            },
        );
    }

    fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
        let s = self.sessions.registered_mut(pkt.session);
        let service = Duration::from_bits_at_rate(pkt.len_bits as u64, s.rate_bps);
        let base = match s.f_prev {
            Some(f) => now.max(f),
            None => now,
        };
        let f = base + service;
        s.f_prev = Some(f);
        pkt.deadline = f;
        pkt.d = service;
        ScheduleDecision::at(now, f)
    }

    fn on_departure(&mut self, _: &mut Packet, _: Time) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_net::SessionId;

    #[test]
    fn stamp_recursion_matches_eq2() {
        let mut d = VirtualClockDiscipline::new();
        d.register_session(
            &SessionSpec::atm(SessionId(0), 32_000),
            &DelayAssignment::LenOverRate,
        );
        let mut p = Packet::new(SessionId(0), 1, 424, Time::ZERO);
        d.on_arrival(&mut p, Time::ZERO);
        assert_eq!(p.deadline, Time::from_us(13_250));
        let mut p = Packet::new(SessionId(0), 2, 424, Time::ZERO);
        d.on_arrival(&mut p, Time::from_ms(1));
        assert_eq!(p.deadline, Time::from_us(26_500));
        let mut p = Packet::new(SessionId(0), 3, 424, Time::ZERO);
        d.on_arrival(&mut p, Time::from_ms(100));
        assert_eq!(p.deadline, Time::from_us(113_250));
    }

    #[test]
    fn stamps_isolate_sessions() {
        // A backlogged session's stamps run ahead; a fresh session's first
        // packet stamps near real time and therefore wins.
        let mut d = VirtualClockDiscipline::new();
        d.register_session(
            &SessionSpec::atm(SessionId(0), 32_000),
            &DelayAssignment::LenOverRate,
        );
        d.register_session(
            &SessionSpec::atm(SessionId(1), 32_000),
            &DelayAssignment::LenOverRate,
        );
        let mut greedy_key = 0u128;
        for i in 0..50 {
            let mut p = Packet::new(SessionId(0), i + 1, 424, Time::ZERO);
            greedy_key = d.on_arrival(&mut p, Time::ZERO).key;
        }
        let mut p = Packet::new(SessionId(1), 1, 424, Time::ZERO);
        let polite_key = d.on_arrival(&mut p, Time::ZERO).key;
        assert!(polite_key < greedy_key);
    }
}
