//! Self-Clocked Fair Queueing (Golestani, INFOCOM '94) — referenced by the
//! paper as "a relevant work on fair queueing systems".
//!
//! SCFQ avoids WFQ's GPS reference simulation by using the service tag of
//! the packet **currently in service** as the virtual time:
//!
//! ```text
//! F_i = max{ F_{i-1}, v(t_i) } + L_i / φ_j
//! ```
//!
//! This makes the stamp O(1) like VirtualClock's, at the cost of a looser
//! delay bound. The in-service tag is tracked via the
//! [`Discipline::on_service_start`] hook; when the server goes idle at the
//! end of a busy period, the virtual time and all session stamps reset.

use lit_net::{
    DelayAssignment, Discipline, LinkParams, Packet, ScheduleDecision, SessionSpec, SessionTable,
};
use lit_sim::Time;

/// Per-session SCFQ state.
#[derive(Clone, Copy, Debug)]
struct ScfqState {
    weight: f64,
    f_last: f64,
}

/// The SCFQ scheduler (one per node).
pub struct ScfqDiscipline {
    sessions: SessionTable<ScfqState>,
    /// Virtual time: tag of the packet in (or last in) service.
    v: f64,
    /// Packets currently queued or in service (busy-period tracking).
    backlog: u64,
}

impl ScfqDiscipline {
    /// A new SCFQ scheduler.
    pub fn new() -> Self {
        ScfqDiscipline {
            sessions: SessionTable::new(),
            v: 0.0,
            backlog: 0,
        }
    }

    /// A boxed factory for [`lit_net::NetworkBuilder::build`].
    pub fn factory() -> impl Fn(&LinkParams) -> Box<dyn Discipline> {
        |_: &LinkParams| Box::new(ScfqDiscipline::new()) as Box<dyn Discipline>
    }
}

impl Default for ScfqDiscipline {
    fn default() -> Self {
        Self::new()
    }
}

impl Discipline for ScfqDiscipline {
    fn name(&self) -> &'static str {
        "scfq"
    }

    fn register_session(&mut self, spec: &SessionSpec, _: &DelayAssignment) {
        self.sessions.insert(
            spec.id,
            ScfqState {
                weight: spec.rate_bps as f64,
                f_last: 0.0,
            },
        );
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "SCFQ's virtual clock is a float by definition; it is mapped onto the Time axis only to ride the packet's deadline field"
    )]
    fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
        self.backlog += 1;
        let v = self.v;
        let s = self.sessions.registered_mut(pkt.session);
        let f = s.f_last.max(v) + pkt.len_bits as f64 / s.weight;
        s.f_last = f;
        // The tag rides in the packet's scratch deadline field (virtual
        // seconds mapped onto the Time axis) so the service-start hook can
        // read it back.
        pkt.deadline = Time::ZERO + lit_sim::Duration::from_secs_f64(f);
        ScheduleDecision {
            eligible: now,
            key: f.to_bits() as u128,
        }
    }

    fn on_service_start(&mut self, pkt: &Packet, _now: Time) {
        // The in-service packet's tag becomes the virtual time.
        let tag = (pkt.deadline - Time::ZERO).as_secs_f64();
        self.v = self.v.max(tag);
    }

    fn on_departure(&mut self, _pkt: &mut Packet, _finish: Time) {
        self.backlog -= 1;
        if self.backlog == 0 {
            // End of busy period: reset the virtual clock and all stamps.
            self.v = 0.0;
            for s in self.sessions.values_mut() {
                s.f_last = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_net::SessionId;

    #[test]
    fn stamps_share_like_fair_queueing() {
        let mut d = ScfqDiscipline::new();
        d.register_session(
            &SessionSpec::atm(SessionId(0), 32_000),
            &DelayAssignment::LenOverRate,
        );
        d.register_session(
            &SessionSpec::atm(SessionId(1), 32_000),
            &DelayAssignment::LenOverRate,
        );
        let mut keys = Vec::new();
        for i in 0..3u64 {
            for sid in 0..2u32 {
                let mut p = Packet::new(SessionId(sid), i + 1, 424, Time::ZERO);
                keys.push((sid, d.on_arrival(&mut p, Time::ZERO).key));
            }
        }
        keys.sort_by_key(|&(_, k)| k);
        let order: Vec<u32> = keys.iter().map(|&(s, _)| s).collect();
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn busy_period_reset_on_drain() {
        let mut d = ScfqDiscipline::new();
        d.register_session(
            &SessionSpec::atm(SessionId(0), 32_000),
            &DelayAssignment::LenOverRate,
        );
        let mut p = Packet::new(SessionId(0), 1, 424, Time::ZERO);
        let k1 = d.on_arrival(&mut p, Time::ZERO).key;
        d.on_departure(&mut p, Time::from_ms(1));
        let mut p2 = Packet::new(SessionId(0), 2, 424, Time::ZERO);
        let k2 = d.on_arrival(&mut p2, Time::from_secs(5)).key;
        assert_eq!(k1, k2);
    }
}
