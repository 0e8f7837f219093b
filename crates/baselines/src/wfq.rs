//! Weighted Fair Queueing (Demers, Keshav & Shenker '89) with Parekh's
//! GPS virtual time — the PGPS comparison point of paper §4.
//!
//! Each packet is stamped with the virtual time at which it would finish
//! under bit-by-bit round robin:
//!
//! ```text
//! S_i = max{ V(t_i), F_{i-1} },   F_i = S_i + L_i / φ_j
//! ```
//!
//! where the weight `φ_j` is the session's reserved rate and the GPS
//! virtual time advances as `dV/dt = C / Σ_{j ∈ B(t)} φ_j` over the set
//! `B(t)` of sessions backlogged **in the GPS reference system**
//! (`F_j > V`). `V` and the per-session stamps reset at the end of each
//! GPS busy period.
//!
//! Contrast with Leave-in-Time/VirtualClock: the WFQ stamp of a packet
//! depends on *which other sessions are backlogged* at its arrival —
//! virtual time is global state — whereas the LiT deadline is a function
//! of the session's own history alone. That difference is exactly the
//! paper's "most significant difference between PGPS and Leave-in-Time".
//!
//! Complexity: advancing `V` scans the registered sessions per boundary
//! crossing, `O(S)` per arrival worst case — fine at the paper's scale
//! (≤ ~120 sessions/node) and kept simple on purpose; see the bench crate
//! for measured cost.

use lit_net::{
    DelayAssignment, Discipline, LinkParams, Packet, ScheduleDecision, SessionSpec, SessionTable,
};
use lit_sim::Time;

/// Per-session WFQ state.
#[derive(Clone, Copy, Debug)]
struct WfqState {
    /// Weight `φ_j` (the reserved rate, in bit/s).
    weight: f64,
    /// Virtual finish time of the session's latest packet (0 = none).
    f_last: f64,
}

/// The WFQ scheduler (one per node).
pub struct WfqDiscipline {
    link_bps: f64,
    sessions: SessionTable<WfqState>,
    /// Current GPS virtual time.
    v: f64,
    /// Real time at which `v` was last updated.
    v_at: Time,
}

impl WfqDiscipline {
    /// A WFQ scheduler for a node with the given outgoing link.
    pub fn new(link: LinkParams) -> Self {
        WfqDiscipline {
            link_bps: link.rate_bps as f64,
            sessions: SessionTable::new(),
            v: 0.0,
            v_at: Time::ZERO,
        }
    }

    /// A boxed factory for [`lit_net::NetworkBuilder::build`].
    pub fn factory() -> impl Fn(&LinkParams) -> Box<dyn Discipline> {
        |link: &LinkParams| Box::new(WfqDiscipline::new(*link)) as Box<dyn Discipline>
    }

    /// Advance the GPS virtual time to real instant `now`, walking the
    /// piecewise-linear segments between GPS departure boundaries.
    fn advance_virtual(&mut self, now: Time) {
        let mut dt = (now - self.v_at).as_secs_f64();
        self.v_at = now;
        while dt > 0.0 {
            // Backlogged weight and the nearest stamp above V.
            let mut sum_phi = 0.0;
            let mut next_f = f64::INFINITY;
            for s in self.sessions.values() {
                if s.f_last > self.v {
                    sum_phi += s.weight;
                    next_f = next_f.min(s.f_last);
                }
            }
            if sum_phi == 0.0 {
                // GPS idle: end of a busy period. Reset the virtual clock
                // and every stamp so the next busy period starts at 0.
                self.v = 0.0;
                for s in self.sessions.values_mut() {
                    s.f_last = 0.0;
                }
                return;
            }
            let rate = self.link_bps / sum_phi; // dV/dt on this segment
            let dv_to_boundary = next_f - self.v;
            let dt_to_boundary = dv_to_boundary / rate;
            if dt_to_boundary >= dt {
                self.v += dt * rate;
                return;
            }
            self.v = next_f;
            dt -= dt_to_boundary;
        }
    }
}

impl Discipline for WfqDiscipline {
    fn name(&self) -> &'static str {
        "wfq"
    }

    fn register_session(&mut self, spec: &SessionSpec, _: &DelayAssignment) {
        self.sessions.insert(
            spec.id,
            WfqState {
                weight: spec.rate_bps as f64,
                f_last: 0.0,
            },
        );
    }

    fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
        self.advance_virtual(now);
        let v = self.v;
        let s = self.sessions.registered_mut(pkt.session);
        let start = v.max(s.f_last);
        let f = start + pkt.len_bits as f64 / s.weight;
        s.f_last = f;
        // Virtual stamps are non-negative f64s; their IEEE-754 bit pattern
        // is order-preserving, giving a monotone u128 key.
        ScheduleDecision {
            eligible: now,
            key: f.to_bits() as u128,
        }
    }

    fn on_departure(&mut self, _: &mut Packet, _: Time) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_net::SessionId;

    fn link() -> LinkParams {
        LinkParams::paper_t1()
    }

    fn spec(id: u32, rate: u64) -> SessionSpec {
        SessionSpec::atm(SessionId(id), rate)
    }

    fn key_to_f(key: u128) -> f64 {
        f64::from_bits(key as u64)
    }

    #[test]
    fn lone_session_virtual_time_tracks_reference() {
        // One backlogged session of weight r on a link of rate C: V
        // advances at C/r, so a packet's virtual finish L/r corresponds to
        // real service L/C.
        let mut d = WfqDiscipline::new(link());
        d.register_session(&spec(0, 32_000), &DelayAssignment::LenOverRate);
        let mut p = Packet::new(SessionId(0), 1, 424, Time::ZERO);
        let k1 = d.on_arrival(&mut p, Time::ZERO).key;
        assert!((key_to_f(k1) - 424.0 / 32_000.0).abs() < 1e-12);
    }

    #[test]
    fn equal_weights_interleave() {
        // Two equally weighted sessions dump 3 packets each at t = 0; the
        // stamps must interleave one-for-one.
        let mut d = WfqDiscipline::new(link());
        d.register_session(&spec(0, 32_000), &DelayAssignment::LenOverRate);
        d.register_session(&spec(1, 32_000), &DelayAssignment::LenOverRate);
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
    fn fresh_session_beats_backlogged_one() {
        let mut d = WfqDiscipline::new(link());
        d.register_session(&spec(0, 32_000), &DelayAssignment::LenOverRate);
        d.register_session(&spec(1, 32_000), &DelayAssignment::LenOverRate);
        let mut greedy_key = 0u128;
        for i in 0..20u64 {
            let mut p = Packet::new(SessionId(0), i + 1, 424, Time::ZERO);
            greedy_key = d.on_arrival(&mut p, Time::ZERO).key;
        }
        // Later, after V has advanced a little, session 1 sends one packet.
        let mut p = Packet::new(SessionId(1), 1, 424, Time::from_ms(5));
        let polite_key = d.on_arrival(&mut p, Time::from_ms(5)).key;
        assert!(polite_key < greedy_key);
    }

    #[test]
    fn busy_period_reset() {
        let mut d = WfqDiscipline::new(link());
        d.register_session(&spec(0, 32_000), &DelayAssignment::LenOverRate);
        let mut p = Packet::new(SessionId(0), 1, 424, Time::ZERO);
        let k1 = d.on_arrival(&mut p, Time::ZERO).key;
        // Long idle gap: GPS drains, V resets, so an identical packet gets
        // an identical stamp.
        let mut p = Packet::new(SessionId(0), 2, 424, Time::from_secs(10));
        let k2 = d.on_arrival(&mut p, Time::from_secs(10)).key;
        assert_eq!(k1, k2);
    }

    #[test]
    fn weights_split_proportionally() {
        // Weights 3:1 — in one virtual unit the heavy session finishes 3
        // packets for every 1 of the light one.
        let mut d = WfqDiscipline::new(link());
        d.register_session(&spec(0, 96_000), &DelayAssignment::LenOverRate);
        d.register_session(&spec(1, 32_000), &DelayAssignment::LenOverRate);
        let mut stamps = Vec::new();
        for i in 0..4u64 {
            let mut p = Packet::new(SessionId(0), i + 1, 424, Time::ZERO);
            stamps.push((0u32, key_to_f(d.on_arrival(&mut p, Time::ZERO).key)));
        }
        let mut p = Packet::new(SessionId(1), 1, 424, Time::ZERO);
        stamps.push((1, key_to_f(d.on_arrival(&mut p, Time::ZERO).key)));
        stamps.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        // The light session's single packet (stamp L/32k) sorts after the
        // heavy session's third packet (3·L/96k = L/32k, FIFO tie goes to
        // the earlier stamp equality) and before its fourth.
        let order: Vec<u32> = stamps.iter().map(|&(s, _)| s).collect();
        assert_eq!(order[4], 0, "heavy session's 4th packet is last");
        assert_eq!(&order[..2], &[0, 0]);
    }
}
