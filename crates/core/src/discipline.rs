//! The Leave-in-Time packet scheduler (paper §2, "Final Version").
//!
//! Per received packet, at server node `n`:
//!
//! * **eligibility** (eq. 6–7): `Eⁿ = tⁿ` for sessions without delay-jitter
//!   control; `Eⁿ = tⁿ + Aⁿ` with the holding time `Aⁿ` stamped by the
//!   upstream node for sessions with jitter control (the delay regulator);
//! * **deadline** (eq. 10–11):
//!   `Fⁿᵢ = max{Eⁿᵢ, Kⁿᵢ₋₁} + dⁿᵢ` and `Kⁿᵢ = max{Eⁿᵢ, Kⁿᵢ₋₁} + Lᵢ/r`,
//!   with `Kⁿ₀ = tⁿ₁`;
//! * eligible packets from all sessions are served in increasing deadline
//!   order (ties FIFO);
//! * at departure (eq. 9) the node stamps the next hop's holding time
//!   `Aⁿ⁺¹ = Fⁿ + L_MAX/Cₙ − F̂ⁿ + dⁿ_max − dⁿᵢ`, where `F̂ⁿ` is the actual
//!   finish time. `Aⁿ⁺¹ ≥ 0` and `F̂ⁿ < Fⁿ + L_MAX/Cₙ` are invariants
//!   (proven in the paper's technical report; asserted here in debug
//!   builds and property-tested).
//!
//! With one admission class, `d = L/r`, and no jitter control, the whole
//! construction collapses to VirtualClock (eq. 2) — tested against the
//! independent VirtualClock implementation in `lit-baselines`.
//!
//! **Packet numbering.** The paper numbers a session's packets "in
//! increasing order as they arrive"; this implementation advances the
//! `K`-recursion in per-node arrival order, which coincides with the
//! global packet index whenever per-session service is FIFO (always true
//! for fixed-size packets, and for any configuration where `dᵢ` makes `F`
//! monotone within a session).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::float_arithmetic
)]

use lit_net::{
    DelayAssignment, DelayCoeffs, Discipline, LinkParams, Packet, ScheduleDecision, SessionSpec,
    SessionTable,
};
use lit_sim::{Duration, Time};

/// What admission fixed for a session at one node: its rate, its `d`
/// coefficients and `d_max`. Procedures 1–2 assign these per class, so
/// sessions registered one after another often share one profile.
#[derive(Clone, Copy, PartialEq, Eq)]
struct LitProfile {
    /// Reserved rate `r_s` in bit/s — the eq. 11 `L/r` clock.
    rate_bps: u64,
    /// Per-hop delay assignment, lowered to fixed-point coefficients.
    coeffs: DelayCoeffs,
    /// `d_max,s` at this node — enters the holding-time stamp (eq. 9).
    d_max: Duration,
}

/// One session's state at one node: 16 bytes, one row of the node's
/// [`SessionTable`]. Eq. 11's `K` is the only state a packet moves; the
/// rest of what the kernel reads is the session's [`LitProfile`].
///
/// `k_prev` holds the eq. 11 recursion state with `Time::ZERO` standing
/// in for "no packet yet": the paper sets `K₀ = t₁`, and since
/// `E₁ ≥ t₁ ≥ 0` the first packet's base `max{E₁, K₀}` equals
/// `max{E₁, 0} = E₁` — exactly what the explicit `Option::None` case
/// computed. No sentinel branch.
struct LitSession {
    /// `K_{i-1,s}`; `Time::ZERO` before the first packet (see above).
    k_prev: Time,
    /// Index of the session's profile in the node's `profiles`.
    profile: u32,
    /// Whether the session requested delay-jitter control (eq. 7 vs 6).
    jitter: bool,
}

/// One Leave-in-Time scheduler instance (one per server node).
pub struct LitDiscipline {
    link: LinkParams,
    sessions: SessionTable<LitSession>,
    /// The distinct profiles, in registration order: a session equal to
    /// the one registered before it shares its entry, so even sessions
    /// that all differ cost a 16-byte row and a 64-byte profile each, what
    /// one row holding both cost.
    profiles: Vec<LitProfile>,
}

impl LitDiscipline {
    /// A scheduler for a node with the given outgoing link.
    pub fn new(link: LinkParams) -> Self {
        LitDiscipline {
            link,
            sessions: SessionTable::new(),
            profiles: Vec::new(),
        }
    }

    /// A boxed factory suitable for [`lit_net::NetworkBuilder::build`].
    pub fn factory() -> impl Fn(&LinkParams) -> Box<dyn Discipline> {
        |link: &LinkParams| Box::new(LitDiscipline::new(*link)) as Box<dyn Discipline>
    }
}

/// The profile `row` names: `register_session` pushed it before the row.
fn profile<'a>(profiles: &'a [LitProfile], row: &LitSession) -> &'a LitProfile {
    #[expect(
        clippy::indexing_slicing,
        reason = "a row only holds the index of a profile pushed before it, and profiles are never removed"
    )]
    &profiles[row.profile as usize]
}

impl Discipline for LitDiscipline {
    fn name(&self) -> &'static str {
        "leave-in-time"
    }

    fn register_session(&mut self, spec: &SessionSpec, delay: &DelayAssignment) {
        let profile = LitProfile {
            rate_bps: spec.rate_bps,
            coeffs: delay.coeffs(spec.rate_bps),
            d_max: delay.d_max(spec.max_len_bits, spec.rate_bps),
        };
        if self.profiles.last() != Some(&profile) {
            self.profiles.push(profile);
        }
        // A fresh row starts the K-recursion at K₀ = t₁.
        let row = LitSession {
            k_prev: Time::ZERO,
            profile: u32::try_from(self.profiles.len().saturating_sub(1)).unwrap_or(u32::MAX),
            jitter: spec.jitter_control,
        };
        self.sessions.insert(spec.id, row);
    }

    fn reserve(&mut self, sessions: usize) {
        self.sessions.reserve(sessions);
    }

    fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
        let s = self.sessions.registered_mut(pkt.session);
        let p = profile(&self.profiles, s);

        // Eligibility: eq. (6) / (7). `pkt.hold` is Aⁿ from upstream
        // (zero at the first hop per eq. 8).
        let eligible = if s.jitter { now + pkt.hold } else { now };

        // Deadline: eq. (10)–(11), with K₀ = t₁ making the first base
        // simply E₁ (since E₁ ≥ t₁ ≥ 0 = the fresh-row K value).
        let base = eligible.max(s.k_prev);
        let d = p.coeffs.d_for(pkt.len_bits);
        let f = base + d;
        s.k_prev = base + Duration::from_bits_at_rate(pkt.len_bits as u64, p.rate_bps);

        pkt.deadline = f;
        pkt.d = d;
        ScheduleDecision::at(eligible, f)
    }

    fn on_departure(&mut self, pkt: &mut Packet, finish: Time) {
        let row = self.sessions.registered_mut(pkt.session);
        let d_max = profile(&self.profiles, row).d_max;
        // Holding time for the next hop, eq. (9):
        //   A = (F + L_MAX/C − F̂) + (d_max − d_i).
        // Both parenthesized terms are provably non-negative; computed in
        // signed 128-bit picoseconds, where every term is below 2⁶⁵ in
        // magnitude, so the saturating adds never saturate.
        let slack_ps = i128::from(pkt.deadline)
            .saturating_add(i128::from(self.link.lmax_time()))
            .saturating_sub(i128::from(finish));
        // Under an *exact* eligible queue, F̂ < F + L_MAX/C always (the
        // paper's non-saturation invariant; re-checked by the tests via
        // NodeStats::max_lateness). Under an approximate bucketed queue
        // the finish may run late by up to one bucket — the documented
        // emulation error — so the holding time is clamped instead of
        // asserted.
        let spread_ps = d_max.signed_sub(pkt.d);
        debug_assert!(spread_ps >= 0, "d_i exceeded d_max");
        // Eq. 8's max(0, ·); the hold is bounded by d_max plus one link
        // transmission, so the constructor's saturating arm is unreachable.
        pkt.hold = Duration::from_signed_clamped(slack_ps.saturating_add(spread_ps));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_net::SessionId;
    use lit_sim::SimRng;

    fn spec(rate: u64, jc: bool) -> SessionSpec {
        let s = SessionSpec::atm(SessionId(0), rate);
        if jc {
            s.with_jitter_control()
        } else {
            s
        }
    }

    fn mk(jc: bool) -> LitDiscipline {
        let mut d = LitDiscipline::new(LinkParams::paper_t1());
        d.register_session(&spec(32_000, jc), &DelayAssignment::LenOverRate);
        d
    }

    fn pkt(seq: u64) -> Packet {
        Packet::new(SessionId(0), seq, 424, Time::ZERO)
    }

    #[test]
    fn virtualclock_mode_matches_eq2_by_hand() {
        // d = L/r = 13.25 ms. Arrivals at 0, 1 ms, 40 ms.
        // F1 = 0 + 13.25; F2 = max(1, 13.25) + 13.25 = 26.5;
        // F3 = max(40, 26.5) + 13.25 = 53.25.
        let mut disc = mk(false);
        let mut p = pkt(1);
        let dec = disc.on_arrival(&mut p, Time::ZERO);
        assert_eq!(dec.eligible, Time::ZERO);
        assert_eq!(p.deadline, Time::from_us(13_250));

        let mut p = pkt(2);
        disc.on_arrival(&mut p, Time::from_ms(1));
        assert_eq!(p.deadline, Time::from_us(26_500));

        let mut p = pkt(3);
        disc.on_arrival(&mut p, Time::from_ms(40));
        assert_eq!(p.deadline, Time::from_us(53_250));
    }

    #[test]
    fn no_jitter_control_ignores_hold() {
        let mut disc = mk(false);
        let mut p = pkt(1);
        p.hold = Duration::from_ms(5);
        let dec = disc.on_arrival(&mut p, Time::from_ms(10));
        assert_eq!(dec.eligible, Time::from_ms(10));
    }

    #[test]
    fn jitter_control_delays_eligibility_by_hold() {
        let mut disc = mk(true);
        let mut p = pkt(1);
        p.hold = Duration::from_ms(5);
        let dec = disc.on_arrival(&mut p, Time::from_ms(10));
        assert_eq!(dec.eligible, Time::from_ms(15));
        // And the deadline builds on E, not t: F1 = 15 + 13.25 = 28.25 ms.
        assert_eq!(p.deadline, Time::from_us(28_250));
    }

    #[test]
    fn split_clocks_decouple_d_from_rate() {
        // d fixed at 2 ms but K still advances at L/r: the session's
        // long-run throughput claim is unchanged by a small d.
        let mut disc = LitDiscipline::new(LinkParams::paper_t1());
        disc.register_session(
            &spec(32_000, false),
            &DelayAssignment::Fixed(Duration::from_ms(2)),
        );
        // Burst of three at t = 0:
        // K0 = 0; F1 = 0+2 ms, K1 = 13.25 ms;
        // F2 = max(0, 13.25)+2 = 15.25 ms, K2 = 26.5 ms;
        // F3 = 26.5+2 = 28.5 ms.
        let mut p = pkt(1);
        disc.on_arrival(&mut p, Time::ZERO);
        assert_eq!(p.deadline, Time::from_ms(2));
        let mut p = pkt(2);
        disc.on_arrival(&mut p, Time::ZERO);
        assert_eq!(p.deadline, Time::from_us(15_250));
        let mut p = pkt(3);
        disc.on_arrival(&mut p, Time::ZERO);
        assert_eq!(p.deadline, Time::from_us(28_500));
    }

    #[test]
    fn departure_stamps_hold_per_eq9() {
        let mut disc = mk(false);
        let mut p = pkt(1);
        disc.on_arrival(&mut p, Time::ZERO); // F = 13.25 ms, d = 13.25 ms
                                             // Suppose the packet actually finishes at 13 ms (0.25 ms early).
        disc.on_departure(&mut p, Time::from_ms(13));
        // A = F + L_MAX/C − F̂ + (d_max − d)
        //   = 13.25 ms + 0.276042 ms − 13 ms + 0 = 0.526042 ms.
        assert_eq!(p.hold.as_ps(), 526_041_667);
    }

    #[test]
    fn departure_hold_includes_d_spread() {
        // Variable-length packets under rule (1.3): a short packet gets a
        // smaller d, and the difference (d_max − d_i) is added to A.
        let mut disc = LitDiscipline::new(LinkParams::paper_t1());
        let mut s = SessionSpec::atm(SessionId(0), 32_000);
        s.max_len_bits = 848;
        disc.register_session(&s, &DelayAssignment::LenOverRate);
        let mut p = Packet::new(SessionId(0), 1, 424, Time::ZERO);
        disc.on_arrival(&mut p, Time::ZERO); // d = 13.25 ms; d_max = 26.5 ms
        let f = p.deadline;
        disc.on_departure(&mut p, f); // F̂ = F exactly
                                      // A = L_MAX/C + (26.5 − 13.25) ms.
        let want = LinkParams::paper_t1().lmax_time() + Duration::from_us(13_250);
        assert_eq!(p.hold, want);
    }

    /// A uniform draw below `n`.
    fn bits(rng: &mut SimRng, n: u32) -> u32 {
        u32::try_from(rng.below(u64::from(n))).unwrap()
    }

    /// One of the three forms of rule (1.3)/(2.3), drawn at random.
    fn any_delay(rng: &mut SimRng, rate: u64) -> DelayAssignment {
        let link = LinkParams::paper_t1();
        match rng.below(3) {
            0 => DelayAssignment::LenOverRate,
            1 => DelayAssignment::Linear {
                num: link.rate_bps,
                den: u128::from(rate).saturating_mul(u128::from(link.rate_bps)),
                base: Duration::from_us(rng.below(20_000)),
            },
            _ => DelayAssignment::Fixed(Duration::from_us(rng.below(50_000).saturating_add(1))),
        }
    }

    /// The kernel against eq. 6–11 and eq. 9 worked out for every packet
    /// from the session's `DelayAssignment` itself: random rates, all
    /// three delay forms, packet lengths and jitter flags over sessions
    /// whose packets interleave, with runs of sessions that differ at most
    /// in their jitter flag, which must share one profile.
    #[test]
    fn shared_profiles_compute_what_each_session_s_own_assignment_does() {
        let link = LinkParams::paper_t1();
        let mut rng = SimRng::seed_from(35);
        let mut disc = LitDiscipline::new(link);
        // (spec, delay at this node, K_{i-1}) per session.
        let mut refs: Vec<(SessionSpec, DelayAssignment, Time)> = Vec::new();
        for id in 0..48u32 {
            let copy = refs.last().filter(|_| rng.below(3) > 0).copied();
            let (mut spec, delay) = match copy {
                Some((spec, delay, _)) => (spec, delay),
                None => {
                    let rate = rng.below(1_000_000).saturating_add(8_000);
                    let mut spec = SessionSpec::atm(SessionId(0), rate);
                    spec.max_len_bits = 424_u32.saturating_add(bits(&mut rng, 2_000));
                    spec.min_len_bits = bits(&mut rng, 424).saturating_add(1);
                    (spec, any_delay(&mut rng, rate))
                }
            };
            spec.id = SessionId(id);
            spec.jitter_control = rng.below(2) == 1;
            let profiles = disc.profiles.len();
            disc.register_session(&spec, &delay);
            let grew = disc.profiles.len().saturating_sub(profiles);
            assert_eq!(grew, usize::from(copy.is_none()), "session {id}");
            refs.push((spec, delay, Time::ZERO));
        }

        let mut now = Time::ZERO;
        for seq in 1..=20_000u64 {
            now += Duration::from_us(rng.below(400));
            let sid = bits(&mut rng, u32::try_from(refs.len()).unwrap()) as usize;
            let (spec, delay, k_prev) = &mut refs[sid];
            let span = spec.max_len_bits.saturating_sub(spec.min_len_bits);
            let len = spec
                .min_len_bits
                .saturating_add(bits(&mut rng, span.saturating_add(1)));
            let mut pkt = Packet::new(spec.id, seq, len, now);
            pkt.hold = Duration::from_us(rng.below(3_000));

            let eligible = if spec.jitter_control {
                now + pkt.hold
            } else {
                now
            };
            let base = eligible.max(*k_prev);
            let d = delay.d_for(len, spec.rate_bps);
            *k_prev = base + Duration::from_bits_at_rate(u64::from(len), spec.rate_bps);
            let dec = disc.on_arrival(&mut pkt, now);
            assert_eq!(dec, ScheduleDecision::at(eligible, base + d));
            assert_eq!((pkt.deadline, pkt.d), (base + d, d));

            // Finish anywhere from well ahead of F to just before
            // F + L_MAX/C, the invariant's edge.
            let ahead = Duration::from_us(rng.below(2_000));
            let late = Duration::from_ns(rng.below(276_000));
            let finish = (pkt.deadline + late).checked_since(Time::ZERO + ahead);
            let finish = Time::ZERO + finish.unwrap_or(Duration::ZERO);
            let d_max = delay.d_max(spec.max_len_bits, spec.rate_bps);
            let want = pkt
                .deadline
                .signed_since(finish)
                .saturating_add(i128::from(link.lmax_time()))
                .saturating_add(d_max.signed_sub(d));
            disc.on_departure(&mut pkt, finish);
            assert_eq!(
                pkt.hold,
                Duration::from_signed_clamped(want),
                "packet {seq}"
            );
        }
    }

    #[test]
    fn a_row_is_sixteen_bytes() {
        assert_eq!(size_of::<Option<LitSession>>(), 16);
        assert_eq!(size_of::<LitProfile>(), 64);
    }

    #[test]
    #[should_panic(expected = "unregistered session")]
    fn unregistered_session_panics() {
        let mut disc = LitDiscipline::new(LinkParams::paper_t1());
        let mut p = pkt(1);
        disc.on_arrival(&mut p, Time::ZERO);
    }
}
