//! A fully hand-computed two-node Leave-in-Time pipeline.
//!
//! One jitter-controlled session sends two packets through two T1 nodes.
//! Every quantity — deadlines `F`, clocks `K`, actual finish times `F̂`,
//! holding times `A`, eligibilities `E` — is derived by hand from
//! eqs. (6)–(11) below and asserted against the simulator, end to end.
//!
//! Setup: L = 424 bits, r = 32 kbit/s (so L/r = 13.25 ms), C = 1536 kbit/s
//! (L/C ≈ 0.276042 ms), Γ = 1 ms, no competing traffic.
//!
//! Packet arrivals at node 1: t₁ = 0, t₂ = 1 ms (a back-to-back-ish pair).
//!
//! Node 1 (E = t, hold = 0 at the first hop):
//!   F₁¹ = 0 + 13.25 = 13.25 ms,  K₁¹ = 13.25 ms
//!   F₂¹ = max(1, 13.25) + 13.25 = 26.5 ms,  K₂¹ = 26.5 ms
//! The link is idle, but packets are *eligible* immediately (no JC hold at
//! hop 1), so they transmit on arrival:
//!   F̂₁¹ = 0 + L/C = 0.276042 ms       → delivered to node 2 at 1.276042 ms
//!   F̂₂¹ = 1 + L/C = 1.276042 ms       → node 2 at 2.276042 ms
//! Holding times stamped for node 2 (eq. 9, d = L/r so d_max − d = 0):
//!   A₁² = F₁¹ + L/C − F̂₁¹ = 13.25 + 0.276042 − 0.276042 = 13.25 ms
//!   A₂² = 26.5 + 0.276042 − 1.276042 = 25.5 ms
//! Node 2 eligibilities (eq. 7):
//!   E₁² = 1.276042 + 13.25  = 14.526042 ms
//!   E₂² = 2.276042 + 25.5   = 27.776042 ms
//! Node 2 deadlines (eq. 10–11, K₀² = t₁² = 1.276042 ms):
//!   F₁² = max(E₁², K₀²) + 13.25 = 27.776042 ms, K₁² = 27.776042 ms
//!   F₂² = max(E₂², K₁²) + 13.25 = 41.026042 ms
//! Transmissions start at eligibility (idle link):
//!   F̂₁² = E₁² + L/C = 14.802083 ms → delivered 15.802083 ms
//!   F̂₂² = E₂² + L/C = 28.052083 ms → delivered 29.052083 ms
//! End-to-end delays: 15.802083 ms and 28.052083 ms.
//!
//! Note the regulator's effect: both packets' *node-2 eligibilities* are
//! exactly `F¹ + L/C + Γ` — the jitter accumulated at node 1 (packet 2
//! waited 0 ms, packet 1 waited 0 ms, but their deadlines diverged from
//! real time differently) is fully reconstructed.

#![forbid(unsafe_code)]

use lit_core::LitDiscipline;
use lit_net::{LinkParams, NetworkBuilder, SessionId, SessionSpec};
use lit_sim::{Duration, Time};
use lit_traffic::TraceSource;

#[test]
fn two_node_regulator_pipeline_matches_hand_computation() {
    let mut b = NetworkBuilder::new();
    let nodes = b.tandem(2, LinkParams::paper_t1());
    let sid = b.add_session(
        SessionSpec::atm(SessionId(0), 32_000).with_jitter_control(),
        &nodes,
        Box::new(TraceSource::from_pairs([
            (Time::ZERO, 424),
            (Time::from_ms(1), 424),
        ])),
    );
    let mut net = b.build(&LitDiscipline::factory());
    net.run_until(Time::from_secs(1));

    let st = net.session_stats(sid);
    assert_eq!(st.delivered, 2);

    // L/C = 424/1536000 s = 276041666.67 ps ≈ 276041667 ps (rounded).
    let l_over_c = Duration::from_bits_at_rate(424, 1_536_000);
    assert_eq!(l_over_c.as_ps(), 276_041_667);

    // Packet 1: delivered at E₁² + L/C + Γ = 14.526042 + 0.276042 + 1 ms.
    let delivery1 = Time::from_ms(1) + l_over_c // arrival at node 2
        + Duration::from_us(13_250) // hold A₁²
        + l_over_c // transmission at node 2
        + Duration::from_ms(1); // final propagation
    let delay1 = delivery1 - Time::ZERO;

    // Packet 2: arrival at node 2 at 2.276042 ms + hold 25.5 ms
    // ⇒ eligible 27.776042 ms ⇒ delivered + L/C + Γ, minus creation 1 ms.
    let delivery2 =
        Time::from_ms(2) + l_over_c + Duration::from_us(25_500) + l_over_c + Duration::from_ms(1);
    let delay2 = delivery2 - Time::from_ms(1);

    assert_eq!(st.e2e.min().unwrap(), delay1, "packet 1 delay");
    assert_eq!(st.max_delay().unwrap(), delay2, "packet 2 delay");

    // Jitter: 28.052083 − 15.802083 = 12.25 ms = 13.25 − 1 (the arrival
    // spacing), exactly the reference-server jitter — per-hop jitter was
    // eliminated by the regulator.
    assert_eq!(st.jitter().unwrap(), Duration::from_us(12_250));
}

#[test]
fn without_jitter_control_packets_ride_ahead_of_their_deadlines() {
    // The same two packets without jitter control: they are never held,
    // so each sees only transmission + propagation per hop.
    let mut b = NetworkBuilder::new();
    let nodes = b.tandem(2, LinkParams::paper_t1());
    let sid = b.add_session(
        SessionSpec::atm(SessionId(0), 32_000),
        &nodes,
        Box::new(TraceSource::from_pairs([
            (Time::ZERO, 424),
            (Time::from_ms(1), 424),
        ])),
    );
    let mut net = b.build(&LitDiscipline::factory());
    net.run_until(Time::from_secs(1));
    let st = net.session_stats(sid);
    let l_over_c = Duration::from_bits_at_rate(424, 1_536_000);
    let want = (l_over_c + Duration::from_ms(1)) * 2;
    assert_eq!(st.max_delay().unwrap(), want);
    assert_eq!(st.jitter().unwrap(), Duration::ZERO);
}

#[test]
fn backlogged_sessions_get_their_reserved_rates() {
    // The throughput side of the guarantee: three persistently backlogged
    // sessions with reservations in ratio 3:2:1 filling a T1 exactly must
    // each receive (at least) their reserved rate over a long interval.
    use lit_traffic::PoissonSource;
    let rates = [768_000u64, 512_000, 256_000];
    let mut b = NetworkBuilder::new().seed(44);
    let nodes = b.tandem(1, LinkParams::paper_t1());
    let mut sids = Vec::new();
    for &r in &rates {
        // Offer ~2x the reservation so the session never goes idle.
        let gap = Duration::from_bits_at_rate(424, 2 * r);
        sids.push(b.add_session(
            SessionSpec::atm(SessionId(0), r),
            &nodes,
            Box::new(PoissonSource::new(gap, 424)),
        ));
    }
    let mut net = b.build(&LitDiscipline::factory());
    let horizon = Time::from_secs(60);
    net.run_until(horizon);
    for (&r, &sid) in rates.iter().zip(&sids) {
        let st = net.session_stats(sid);
        let goodput = st.delivered as f64 * 424.0 / horizon.as_secs_f64();
        assert!(
            goodput >= r as f64 * 0.99,
            "session reserved {r} got only {goodput:.0} bit/s"
        );
        // And no one steals: at most the reservation plus rounding slack,
        // because everyone else is also backlogged.
        assert!(
            goodput <= r as f64 * 1.02,
            "session reserved {r} took {goodput:.0} bit/s"
        );
    }
}
