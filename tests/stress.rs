//! Long-haul stress test (opt-in: `cargo test --release -- --ignored`).
//!
//! Runs the full 116-session MIX network for 10 simulated minutes — on the
//! order of 25 million events — and re-checks every invariant the shorter
//! suites assert: bounds for *all* sessions, conservation, non-saturation,
//! and bit-reproducibility of the summary.
//!
//! Also pins, on `lit-bench`'s `sessions_100k` network, the exact counters
//! the sorted-run lanes of the future-event set are judged by.

#![forbid(unsafe_code)]

use lit_net::{EventSetStats, LinkParams, NetworkBuilder, SessionId, SessionSpec, StatsConfig};
use lit_repro::collect::Collector;
use lit_repro::experiments::common::build_mix_one_class;
use lit_repro::experiments::RunConfig;
use lit_sim::{Duration, Time};
use lit_traffic::DeterministicSource;

/// `lit-bench`'s `sessions_100k` network (a copy of `NetPlan::builder`): a
/// 2-node T1 tandem, 100 000 CBR sessions at 0.8·C/n each, every second
/// one jitter-controlled, phases spread over one gap plus 37 ns so no two
/// events ever tie. Every CBR injection and every regulator release
/// (eq. 9, jitter-controlled or not) is a sorted run: all of them wait in
/// lanes, none falls back, and the heap holds only the handful of packets
/// on the wire.
#[test]
#[ignore = "long: 100 000 sessions, ~7M events; run with --release -- --ignored"]
fn sessions_100k_event_set_counters_at_seed_1() {
    const N: u64 = 100_000;
    let link = LinkParams::paper_t1();
    let mut b = NetworkBuilder::new().seed(1).stats(StatsConfig::compact());
    let nodes = b.tandem(2, link);
    let rate = link.rate_bps * 8 / 10 / N;
    let gap = Duration::from_bits_at_rate(424, rate);
    for i in 0..N {
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.jitter_control = i % 2 == 1;
        let offset = gap * i / N + Duration::from_ns(37);
        let source = DeterministicSource::new(gap, 424).with_offset(offset);
        b.add_session(spec, &nodes, Box::new(source));
    }
    let mut net = b.build(&lit_core::LitDiscipline::factory());
    net.run_until(Time::from_secs(600));
    assert_eq!(net.event_count(), 7_241_506);
    assert_eq!(
        net.event_set_stats(),
        EventSetStats {
            heap_high_water: 5,
            lane_appended: 2_497_169,
            lane_fell_back: 0,
        }
    );
}

#[test]
#[ignore = "long: ~25M events; run with --release -- --ignored"]
fn mix_full_horizon_all_invariants() {
    let run = || {
        let collector = Collector::default();
        let cfg = RunConfig {
            seed: 424_242,
            ..RunConfig::paper(&collector)
        };
        let (mut net, _) = build_mix_one_class(&cfg, Duration::from_us(6_500));
        net.run_until(Time::from_secs(600));
        let mut summary = Vec::new();
        for i in 0..net.num_sessions() {
            let id = lit_net::SessionId(i as u32);
            let st = net.session_stats(id);
            assert!(st.delivered > 0, "session {i} starved");
            assert!(
                st.injected - st.delivered < 64,
                "session {i}: {} in flight at horizon",
                st.injected - st.delivered
            );
            let pb = lit_core::PathBounds::for_session(&net, id);
            // Pathwise ineq. (12) for every delivered packet.
            assert!(
                st.max_excess().unwrap() < pb.shift_ps(),
                "session {i}: excess {} !< {}",
                st.max_excess().unwrap(),
                pb.shift_ps()
            );
            // Token-bucket delay bound (sources emit at most one cell per
            // L/r while ON).
            let bound = pb.delay_bound_token_bucket(424);
            assert!(st.max_delay().unwrap() < bound, "session {i}");
            summary.push((st.delivered, st.max_delay(), st.jitter()));
        }
        // Non-saturation at every node.
        let lmax = lit_net::LinkParams::paper_t1().lmax_time().as_ps() as i128;
        for n in 0..net.num_nodes() {
            let l = net
                .node_stats(lit_net::NodeId(n as u32))
                .max_lateness()
                .unwrap();
            assert!(l < lmax, "node {n}: lateness {l}");
        }
        summary
    };
    assert_eq!(run(), run(), "full-horizon run not reproducible");
}
