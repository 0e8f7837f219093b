//! Differential fuzzing as a tier-1 test: a short campaign of random
//! admission-valid scenarios, each run three ways (LiT/heap with the
//! counting conformance oracle, LiT/calendar, VirtualClock/heap) and
//! compared packet-for-packet. See `lit_repro::fuzz` for the generator
//! and the `fuzz_diff` binary in `lit-bench` for long campaigns.

#![forbid(unsafe_code)]

use lit_repro::fuzz;
use lit_repro::scenario::{RunOptions, Scenario};

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
