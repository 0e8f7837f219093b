//! Long-haul stress test (opt-in: `cargo test --release -- --ignored`).
//!
//! Runs the full 116-session MIX network for 10 simulated minutes — on the
//! order of 25 million events — and re-checks every invariant the shorter
//! suites assert: bounds for *all* sessions, conservation, non-saturation,
//! and bit-reproducibility of the summary.

#![forbid(unsafe_code)]

use lit_repro::collect::Collector;
use lit_repro::experiments::common::build_mix_one_class;
use lit_repro::experiments::RunConfig;
use lit_sim::{Duration, Time};

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
