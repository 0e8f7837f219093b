//! Hierarchical Round Robin (Kalmanek, Kanakia & Keshav, GlobeCom '90) —
//! the second framing discipline of paper §4.
//!
//! One level of the hierarchy is implemented (the paper's comparison only
//! uses the per-level mechanics): time on the link is divided into frames
//! of `slots_per_frame` fixed-size slots, each long enough for one
//! maximum-length packet; a session admitted with `n_j` slots per frame
//! may transmit at most `n_j` packets per frame, and — like Stop-and-Go —
//! a packet arriving during one frame is not eligible before the next
//! frame starts (non-work-conserving). Bandwidth therefore comes in
//! increments of `L_MAX/T_frame`, and the per-hop delay is bounded by two
//! frame times, "the same upper bound on delay as Stop-and-Go" but with
//! no guaranteed lower bound (a session's slots may fall anywhere within
//! the frame).
//!
//! Mapping onto the [`Discipline`] interface: eligibility is the start of
//! the first frame *after* arrival that still has quota for the session;
//! the priority key is that frame index (FIFO within a frame), so framed
//! service order emerges from the node's ordinary eligible queue.

use lit_net::{
    DelayAssignment, Discipline, LinkParams, Packet, ScheduleDecision, SessionSpec, SessionTable,
};
use lit_sim::{Duration, Time};

/// Per-session HRR state at one node.
#[derive(Clone, Copy, Debug)]
struct HrrState {
    /// Slots per frame granted to the session.
    quota: u32,
    /// Frame index the session is currently filling.
    frame: u64,
    /// Slots already claimed in `frame`.
    used: u32,
}

/// The single-level HRR scheduler for one node.
#[derive(Clone, Debug)]
pub struct HrrDiscipline {
    /// Frame length `T = slots_per_frame · L_MAX/C`.
    frame: Duration,
    slots_per_frame: u32,
    /// Slots handed out so far (admission bookkeeping).
    slots_granted: u32,
    sessions: SessionTable<HrrState>,
}

impl HrrDiscipline {
    /// A scheduler whose frame holds `slots_per_frame` maximum-length
    /// packets on `link`.
    ///
    /// # Panics
    /// Panics if `slots_per_frame` is zero.
    pub fn new(link: LinkParams, slots_per_frame: u32) -> Self {
        assert!(slots_per_frame > 0, "HRR: empty frame");
        HrrDiscipline {
            // Exact frame length: slots·L_MAX at link rate, divided once
            // (per-slot rounding would drift by a few ps per slot).
            frame: Duration::from_bits_at_rate(
                slots_per_frame as u64 * link.lmax_bits as u64,
                link.rate_bps,
            ),
            slots_per_frame,
            slots_granted: 0,
            sessions: SessionTable::new(),
        }
    }

    /// A boxed factory for [`lit_net::NetworkBuilder::build`].
    pub fn factory(slots_per_frame: u32) -> impl Fn(&LinkParams) -> Box<dyn Discipline> {
        move |link: &LinkParams| {
            Box::new(HrrDiscipline::new(*link, slots_per_frame)) as Box<dyn Discipline>
        }
    }

    /// The frame length `T`.
    pub fn frame(&self) -> Duration {
        self.frame
    }

    /// Slots a session of rate `r` needs: `⌈r·T / L_MAX⌉`, the paper's
    /// `L/T`-granularity bandwidth allocation.
    fn slots_for(&self, spec: &SessionSpec) -> u32 {
        let bits_per_frame = self.frame.bits_at_rate(spec.rate_bps);
        bits_per_frame.div_ceil(spec.max_len_bits as u64).max(1) as u32
    }

    /// Frame index containing `t`.
    fn frame_of(&self, t: Time) -> u64 {
        t.frame_index(self.frame)
    }

    /// Start instant of frame `k` (test helper).
    #[cfg(test)]
    fn frame_start(&self, k: u64) -> Time {
        Time::ZERO + self.frame * k
    }
}

impl Discipline for HrrDiscipline {
    fn name(&self) -> &'static str {
        "hrr"
    }

    fn register_session(&mut self, spec: &SessionSpec, _: &DelayAssignment) {
        let quota = self.slots_for(spec);
        self.slots_granted += quota;
        debug_assert!(
            self.slots_granted <= self.slots_per_frame,
            "HRR: frame over-allocated ({} of {} slots)",
            self.slots_granted,
            self.slots_per_frame
        );
        self.sessions.insert(
            spec.id,
            HrrState {
                quota,
                frame: 0,
                used: 0,
            },
        );
    }

    fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
        let earliest = self.frame_of(now) + 1; // never the arrival frame
        let frame_len = self.frame;
        let s = self.sessions.registered_mut(pkt.session);
        // Find the first frame ≥ earliest with quota left for the session.
        if s.frame < earliest {
            s.frame = earliest;
            s.used = 0;
        }
        if s.used == s.quota {
            s.frame += 1;
            s.used = 0;
        }
        s.used += 1;
        let eligible = Time::ZERO + frame_len * s.frame;
        pkt.deadline = eligible + frame_len; // must clear within its frame
        ScheduleDecision {
            eligible,
            key: s.frame as u128,
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

    #[test]
    fn frame_length_is_slots_times_cell() {
        let d = HrrDiscipline::new(link(), 48);
        // 48 cells at 276.042 us each = 13.25 ms.
        assert_eq!(d.frame(), Duration::from_bits_at_rate(48 * 424, 1_536_000));
    }

    #[test]
    fn voice_session_gets_one_slot_per_frame() {
        let mut d = HrrDiscipline::new(link(), 48);
        // 32 kbit/s over a 13.25 ms frame = exactly one 424-bit cell.
        let spec = SessionSpec::atm(SessionId(0), 32_000);
        d.register_session(&spec, &DelayAssignment::LenOverRate);
        // Two packets in the same arrival frame: quota 1 ⇒ the second is
        // pushed to the following frame.
        let mut p1 = Packet::new(SessionId(0), 1, 424, Time::ZERO);
        let e1 = d.on_arrival(&mut p1, Time::ZERO).eligible;
        let mut p2 = Packet::new(SessionId(0), 2, 424, Time::ZERO);
        let e2 = d.on_arrival(&mut p2, Time::ZERO).eligible;
        assert_eq!(e1, d.frame_start(1));
        assert_eq!(e2, d.frame_start(2));
    }

    #[test]
    fn arrival_frame_never_serves() {
        let mut d = HrrDiscipline::new(link(), 48);
        d.register_session(
            &SessionSpec::atm(SessionId(0), 32_000),
            &DelayAssignment::LenOverRate,
        );
        // Arrive late within frame 3: eligible at frame 4's start.
        let t = d.frame_start(4) - Duration::from_us(1);
        let mut p = Packet::new(SessionId(0), 1, 424, Time::ZERO);
        let e = d.on_arrival(&mut p, t).eligible;
        assert_eq!(e, d.frame_start(4));
    }

    #[test]
    fn end_to_end_delay_within_two_frames_per_hop() {
        use lit_net::NetworkBuilder;
        use lit_traffic::{OnOffConfig, OnOffSource};
        let mut b = NetworkBuilder::new().seed(6);
        let nodes = b.tandem(3, link());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(OnOffSource::new(OnOffConfig::paper_voice(
                Duration::from_ms(650),
            ))),
        );
        let mut net = b.build(&HrrDiscipline::factory(48));
        net.run_until(Time::from_secs(120));
        let st = net.session_stats(sid);
        assert!(st.delivered > 1000);
        let frame = Duration::from_bits_at_rate(48 * 424, 1_536_000);
        let slack = (link().lmax_time() + Duration::from_ms(1)) * 3;
        // ≤ 2 frames per hop (held < 1 frame, served within 1 frame).
        assert!(
            st.max_delay().unwrap() <= frame * 6 + slack,
            "max {}",
            st.max_delay().unwrap()
        );
        // Like Stop-and-Go, a floor exists too: at least one full frame
        // wait at the first hop.
        assert!(st.e2e.min().unwrap() >= frame - link().lmax_time());
    }

    #[test]
    fn bandwidth_granularity_is_l_over_t() {
        // A 33 kbit/s session needs 2 slots of a 13.25 ms frame — the
        // coarse granularity the paper criticizes framing schemes for.
        let d = HrrDiscipline::new(link(), 48);
        assert_eq!(d.slots_for(&SessionSpec::atm(SessionId(0), 32_000)), 1);
        assert_eq!(d.slots_for(&SessionSpec::atm(SessionId(0), 33_000)), 2);
    }
}
