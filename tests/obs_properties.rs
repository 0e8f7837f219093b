//! Property tests cross-validating the observability registry against
//! the executor's own ground-truth statistics: whatever scenario the
//! fuzzer generates, the probe's counters must agree exactly with the
//! drain stats, the per-hop dispatch totals with packets × hops, the
//! histogram populations with their sampling sites, and the violation
//! counters with the conformance oracle's count-mode totals.

#![forbid(unsafe_code)]

use lit_net::{NodeId, OracleMode, ViolationKind};
use lit_obs::metrics::ObsShard;
use lit_obs::{trace::TraceKind, ObsProbe};
use lit_repro::fuzz;
use lit_repro::scenario::{RunOptions, Scenario};

/// Run a scenario with a metrics-only probe, drain-check the oracle, and
/// hand back the network plus the recorded shard.
fn run_with_probe(sc: &Scenario) -> (lit_net::Network, ObsShard) {
    let opts = RunOptions {
        oracle: OracleMode::Count,
        ..RunOptions::default()
    };
    let (mut net, _ids) = sc.run_probed(&opts, Some(Box::new(ObsProbe::new(0))));
    // Fold the drain-time CCDF check into the oracle totals *before*
    // finishing the probe, so both sides count the same set of checks.
    net.oracle_drain_check();
    let probe = net.take_probe().expect("probe installed");
    let shard = probe
        .as_any()
        .and_then(|a| a.downcast_ref::<ObsProbe>())
        .expect("probe downcasts to ObsProbe")
        .shard
        .clone();
    (net, shard)
}

#[test]
fn metrics_agree_with_ground_truth_on_fuzzed_scenarios() {
    for seed in 0..12u64 {
        let sc = fuzz::generate(seed);
        let (net, shard) = run_with_probe(&sc);

        let mut node_dispatches_sum = 0u64;
        for (n, obs) in shard.nodes.iter().enumerate() {
            let st = net.node_stats(NodeId(n as u32));
            // The run stops at the horizon without draining, so a node
            // may hold queued packets (arrivals > dispatches) and at
            // most one packet mid-transmission.
            assert!(
                obs.arrivals >= obs.dispatches,
                "seed {seed} node {n}: dispatches exceed arrivals"
            );
            assert!(
                obs.dispatches - obs.departures <= 1,
                "seed {seed} node {n}: more than one packet in service"
            );
            assert_eq!(
                obs.departures, st.transmitted,
                "seed {seed} node {n}: departures vs drain-stat transmitted"
            );
            assert_eq!(
                obs.served_bits, st.bits_transmitted,
                "seed {seed} node {n}: served bits vs drain-stat bits"
            );
            // Histogram populations equal their sampling sites: the
            // queue depths are sampled once per arrival, the slack once
            // per departure.
            assert_eq!(obs.eligible_depth.count(), obs.arrivals);
            assert_eq!(obs.slack_ps.count(), obs.departures);
            node_dispatches_sum += obs.dispatches;
        }
        let total_arrivals: u64 = shard.nodes.iter().map(|n| n.arrivals).sum();
        assert_eq!(shard.event_depth.count(), total_arrivals);

        let mut hop_dispatches_sum = 0u64;
        let mut node_served: u64 = shard.nodes.iter().map(|n| n.served_bits).sum();
        for (s, obs) in shard.sessions.iter().enumerate() {
            let st = net.session_stats(lit_net::SessionId(s as u32));
            assert_eq!(
                obs.delivered, st.delivered,
                "seed {seed} session {s}: delivered vs drain stats"
            );
            // Hops are traversed in order, so per-hop dispatch counts
            // are non-increasing along the route, and a fully delivered
            // packet was dispatched once at every hop.
            let mut prev = u64::MAX;
            for (h, hop) in obs.hops.iter().enumerate() {
                assert!(
                    hop.dispatches <= prev,
                    "seed {seed} session {s} hop {h}: dispatches increase along route"
                );
                assert!(
                    hop.dispatches >= st.delivered,
                    "seed {seed} session {s} hop {h}: delivered packets skipped a hop"
                );
                assert_eq!(hop.holding_ps.count(), hop.held);
                assert!(hop.held <= hop.dispatches + 1);
                hop_dispatches_sum += hop.dispatches;
                prev = hop.dispatches;
            }
            node_served = node_served.saturating_sub(obs.served_bits);
        }
        // Every dispatch belongs to exactly one (session, hop), and all
        // served bits are attributed to a session.
        assert_eq!(
            hop_dispatches_sum, node_dispatches_sum,
            "seed {seed}: per-hop dispatches do not partition node dispatches"
        );
        assert_eq!(
            node_served, 0,
            "seed {seed}: served bits not fully attributed"
        );

        // Oracle equality: the probe's violation counters are fed by the
        // same call sites that bump the oracle's count-mode totals.
        assert_eq!(
            shard.violation_total(),
            net.oracle_violations(),
            "seed {seed}: probe violations vs oracle totals"
        );
        assert_eq!(shard.networks, 1);
    }
}

#[test]
fn violation_counters_match_oracle_totals_kind_by_kind_under_overload() {
    // At rho = 1.2 the oracle must fire. Every kind it counts reaches the
    // probe under that kind's label, as often: the same violation path
    // feeds both, whichever check found it.
    let text = include_str!("../scenarios/overload_rho120.scn");
    let sc = Scenario::parse(text).expect("parse overload fixture");
    let (net, shard) = run_with_probe(&sc);
    let t = net.oracle_totals();
    assert!(t.total() > 0, "overload ran clean: {t:?}");
    let by_kind = [
        (ViolationKind::EligibilityOrder, t.eligibility_order),
        (ViolationKind::ReleaseTime, t.release_time),
        (ViolationKind::Lateness, t.lateness),
        (ViolationKind::DelayBound, t.delay_bound),
        (ViolationKind::JitterBound, t.jitter_bound),
        (ViolationKind::CcdfBound, t.ccdf_bound),
        (ViolationKind::ShapingBound, t.shaping_bound),
        (ViolationKind::RegulatorFifo, t.regulator_fifo),
        (ViolationKind::WorkConservation, t.work_conservation),
    ];
    let expected: std::collections::BTreeMap<String, u64> = by_kind
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(kind, n)| (kind.label().to_string(), n))
        .collect();
    assert_eq!(shard.violations, expected);
}

#[test]
fn held_counter_matches_eligible_events_with_positive_holding() {
    // Directed case: a jitter-controlled 32 kb/s session misbehaves by
    // dumping 100 back-to-back cells. The entry server admits them as
    // they come (eq. 6: E¹ = a¹), but with delay-jitter control each
    // cell carries its upstream slack Aⁿ (eq. 8–9) and the second hop's
    // regulator holds it for exactly that long — so nearly every burst
    // cell is held there, and the `held` counter must equal the number
    // of `eligible` trace events (which fire only for E > arrival).
    let text = "nodes 2 rate=1536000 prop=1ms lmax=424\n\
                discipline lit\n\
                seed 3\n\
                session route=0..1 rate=32000 jc source=burst(period=50ms,count=100,len=424)\n\
                run 1s\n";
    let sc = Scenario::parse(text).expect("parse burst scenario");
    let opts = RunOptions {
        oracle: OracleMode::Count,
        ..RunOptions::default()
    };
    let (mut net, _ids) = sc.run_probed(&opts, Some(Box::new(ObsProbe::new(1 << 16))));
    assert_eq!(net.oracle_drain_check(), 0);
    let probe = net.take_probe().expect("probe installed");
    let obs = probe
        .as_any()
        .and_then(|a| a.downcast_ref::<ObsProbe>())
        .expect("downcast");

    let held: u64 = obs.shard.sessions[0].hops.iter().map(|h| h.held).sum();
    assert!(held > 50, "burst should be regulated, held = {held}");

    assert_eq!(
        obs.trace.dropped(),
        0,
        "ring too small for the directed case; grow the cap"
    );
    let events = obs.trace.events();
    let eligible = events
        .iter()
        .filter(|e| e.kind == TraceKind::Eligible)
        .count() as u64;
    assert_eq!(held, eligible, "held counter vs eligible trace events");
    assert!(
        events
            .iter()
            .filter(|e| e.kind == TraceKind::Eligible)
            .all(|e| e.aux_ps > 0),
        "eligible events must carry a positive holding time"
    );

    // Holding-time histogram totals agree with the trace too.
    let hist_count: u64 = obs.shard.sessions[0]
        .hops
        .iter()
        .map(|h| h.holding_ps.count())
        .sum();
    assert_eq!(hist_count, held);
}

#[test]
fn violation_counters_match_oracle_with_impossible_bounds() {
    // Force violations deterministically: run a plain CBR session under
    // Leave-in-Time, then install an impossible pathwise bound so the
    // oracle flags every delivery. Probe counters and oracle totals must
    // stay in lockstep, and the trace must carry the inequality label.
    use lit_net::SessionBounds;

    let text = "nodes 2 rate=1536000 prop=1ms lmax=424\n\
                discipline lit\n\
                seed 5\n\
                session route=0..1 rate=32000 source=cbr(gap=13.25ms,len=424)\n\
                run 1s\n";
    // Scenario::run_probed installs the paper bounds; rebuild the bound
    // afterwards with an impossible shift. The horizon-limited run is
    // violation-free, so any counts below come from the drain check.
    let sc = Scenario::parse(text).expect("parse cbr scenario");
    let opts = RunOptions {
        oracle: OracleMode::Count,
        ..RunOptions::default()
    };
    let (mut net, ids) = sc.run_probed(&opts, Some(Box::new(ObsProbe::new(4096))));
    assert_eq!(net.oracle_violations(), 0, "conforming run must be clean");

    net.set_session_bounds(
        ids[0],
        SessionBounds {
            shift_ps: -1_000_000_000_000,
            jitter_spread_ps: i128::MAX / 2,
        },
    );
    let drain_violations = net.oracle_drain_check();
    assert!(
        drain_violations > 0,
        "impossible bound must trip the CCDF check"
    );

    let probe = net.take_probe().expect("probe installed");
    let obs = probe
        .as_any()
        .and_then(|a| a.downcast_ref::<ObsProbe>())
        .expect("downcast");
    assert_eq!(obs.shard.violation_total(), net.oracle_violations());
    assert_eq!(
        obs.shard.violation_total(),
        drain_violations,
        "all violations in this run come from the drain check"
    );
    // The shard keys violations by inequality label, and the trace tags
    // each violation event with the same label.
    let ccdf_label = "ccdf-bound (ineq. 16)";
    assert_eq!(
        obs.shard.violations.get(ccdf_label).copied(),
        Some(drain_violations),
        "violations keyed by the violated inequality"
    );
    assert!(
        obs.trace
            .events()
            .iter()
            .any(|e| e.kind == TraceKind::Violation && e.tag == ccdf_label),
        "violation trace event carries the inequality label"
    );
}
