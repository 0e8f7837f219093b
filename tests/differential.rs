//! Differential fuzzing as a tier-1 test: a short campaign of random
//! admission-valid scenarios, each run three ways (LiT/heap with the
//! counting conformance oracle, LiT/calendar, VirtualClock/heap) and
//! compared packet-for-packet. See `lit_repro::fuzz` for the generator
//! and the `fuzz_diff` binary in `lit-bench` for long campaigns.

#![forbid(unsafe_code)]

use lit_net::{EventBackend, EventSetStats, LinkParams, NetworkBuilder, SessionId, SessionSpec};
use lit_repro::fuzz;
use lit_repro::scenario::{RunOptions, Scenario};
use lit_sim::{Duration, Time};
use lit_traffic::DeterministicSource;

/// Campaign seed for this test. Any failure prints the case seed; replay
/// it with `fuzz_diff --seed <campaign> --cases 1` after reproducing the
/// index, or directly from the minimized `.scn` the campaign writes.
const CAMPAIGN_SEED: u64 = 0x1995_0720;

#[test]
fn sixty_random_scenarios_agree_across_backends_and_disciplines() {
    let dir = std::env::temp_dir().join("lit_diff_failures");
    let report = fuzz::campaign(CAMPAIGN_SEED, 60, None, &dir);
    assert_eq!(report.cases, 60);
    assert!(
        report.failures.is_empty(),
        "divergences: {:?}",
        report.failures
    );
}

#[test]
fn minimized_failures_replay_from_text() {
    // The failure artifacts must be replayable: a generated scenario
    // serialized with to_text() and re-parsed runs to the same result.
    for case in 0..4 {
        let sc = fuzz::generate(CAMPAIGN_SEED.wrapping_add(case));
        let back = Scenario::parse(&sc.to_text()).expect("serialized scenario parses");
        let (a, ids_a) = sc.run_probed(&RunOptions::default(), None);
        let (b, ids_b) = back.run_probed(&RunOptions::default(), None);
        for (x, y) in ids_a.iter().zip(&ids_b) {
            assert_eq!(
                a.session_stats(*x).delivered,
                b.session_stats(*y).delivered,
                "case {case}"
            );
            assert_eq!(
                a.session_stats(*x).max_delay(),
                b.session_stats(*y).max_delay(),
                "case {case}"
            );
        }
    }
}

#[test]
fn shrink_keeps_failures_failing_and_scenarios_valid() {
    // shrink() on a PASSING case must terminate and return a scenario
    // that still parses/runs (it can't make a passing case fail).
    let sc = fuzz::generate(7);
    let min = fuzz::shrink(sc.clone());
    assert!(fuzz::check(&min).is_ok());
    assert!(!min.to_text().is_empty());
}

/// Run what `add` builds under Leave-in-Time on all three event backends
/// — the heap with its sorted-run lanes, the calendar and the wheel
/// without — and require the same events and the same per-session
/// results; returns what the heap's lanes did.
fn lanes_change_nothing(add: impl Fn(&mut NetworkBuilder) -> Time) -> EventSetStats {
    let run = |backend| {
        let mut b = NetworkBuilder::new().event_backend(backend);
        let until = add(&mut b);
        let mut net = b.build(&lit_core::LitDiscipline::factory());
        net.run_until(until);
        let sessions: Vec<_> = (0..net.num_sessions() as u32)
            .map(|i| {
                let st = net.session_stats(SessionId(i));
                let delays = (st.e2e.min(), st.max_delay(), st.jitter());
                (st.injected, st.delivered, delays, st.max_excess())
            })
            .collect();
        ((net.event_count(), sessions), net.event_set_stats())
    };
    let (heap, seen) = run(EventBackend::Heap);
    assert_eq!(heap, run(EventBackend::Calendar).0);
    assert_eq!(heap, run(EventBackend::Wheel).0);
    seen
}

#[test]
fn lanes_change_nothing_under_leave_in_time() {
    let link = LinkParams::paper_t1();
    let cbr = |i: u64, rate: u64| {
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.jitter_control = i % 2 == 1;
        let gap = Duration::from_bits_at_rate(424, rate);
        (spec, DeterministicSource::new(gap, 424))
    };
    // Phase-aligned bursts of two periods down a tandem: every release
    // reaches node 1's regulator in the order node 0 served (eq. 9).
    let seen = lanes_change_nothing(|b| {
        let nodes = b.tandem(2, link);
        for i in 0..500 {
            let (spec, source) = cbr(i, 2_000 - 400 * (i / 2 % 2));
            b.add_session(spec, &nodes, Box::new(source));
        }
        Time::from_secs(2)
    });
    assert!(seen.lane_appended > 5_000, "{seen:?}");
    assert_eq!(seen.lane_fell_back, 0, "{seen:?}");
    // Two upstream nodes into one: each serves in its own deadline order,
    // so the merged releases are no sorted run and some fall back.
    let seen = lanes_change_nothing(|b| {
        let nodes = b.tandem(3, link);
        for i in 0..60 {
            let (spec, source) = cbr(i, 20_000 - 4_000 * (i / 2 % 2));
            let route = [nodes[(i / 4 % 2) as usize], nodes[2]];
            let source = source.with_offset(Duration::from_us(i * 173));
            b.add_session(spec, &route, Box::new(source));
        }
        Time::from_secs(2)
    });
    assert!(seen.lane_fell_back > 0, "{seen:?}");
}
