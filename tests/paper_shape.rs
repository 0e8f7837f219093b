//! Integration tests: reduced-horizon versions of every paper experiment,
//! asserting the qualitative *shape* the paper reports and that every
//! analytic bound holds on the simulated data.
//!
//! The full-horizon versions live in the `lit-repro` binary; these run the
//! same code paths at 15–30 simulated seconds, which is long enough for
//! the structural claims (bounds, orderings, isolation) to be decidable.

#![forbid(unsafe_code)]

use lit_net::RegulatorBackend;
use lit_repro::collect::Collector;
use lit_repro::experiments::{common, fig14_17, fig7, fig8, fig9_11, firewall, RunConfig};
use lit_repro::scenario::RunOptions;
use lit_sim::Duration;

/// Oracle off, nothing observed: these tests read the result tables, so
/// any throwaway collector will do.
fn quick(collector: &Collector, seconds: u64) -> RunConfig<'_> {
    RunConfig {
        seconds: Some(seconds),
        ..RunConfig::paper(collector)
    }
}

// ---------------------------------------------------------------- Figure 7

#[test]
fn fig7_bounds_hold_across_the_sweep() {
    for &a_off_us in &[6_500u64, 88_000, 650_000] {
        let p = fig7::point(
            &quick(&Collector::default(), 15),
            Duration::from_us(a_off_us),
        );
        assert!(p.delivered > 100, "a_off={a_off_us}us: too few packets");
        assert!(
            p.max_delay < p.delay_bound,
            "a_off={a_off_us}us: {} !< {}",
            p.max_delay,
            p.delay_bound
        );
        assert!(p.jitter < p.jitter_bound);
        // The scheduler never saturates: F̂ < F + L_MAX/C.
        assert!(p.lateness_fraction < 1.0, "{}", p.lateness_fraction);
        // Measured utilization tracks the sources' duty cycle.
        assert!(
            (p.measured_utilization - p.expected_utilization).abs() < 0.04,
            "util {} vs duty {}",
            p.measured_utilization,
            p.expected_utilization
        );
    }
}

#[test]
fn fig7_utilization_endpoints_match_paper() {
    let lo = fig7::point(&quick(&Collector::default(), 15), Duration::from_us(6_500));
    let hi = fig7::point(&quick(&Collector::default(), 15), Duration::from_ms(650));
    assert!((lo.expected_utilization - 0.982).abs() < 1e-3);
    assert!((hi.expected_utilization - 0.351).abs() < 1e-3);
    // Delay stays far below the ~72.6 ms bound even at 98 % utilization —
    // the paper's headline observation for this figure.
    assert!(lo.max_delay < Duration::from_ms(30), "{}", lo.max_delay);
}

// ------------------------------------------------------- Figures 8, 12, 13

#[test]
fn fig8_jitter_control_shape() {
    let r = fig8::run(&quick(&Collector::default(), 30));
    let (no_jc, jc) = (&r.sessions[0], &r.sessions[1]);
    assert!(no_jc.delivered > 300 && jc.delivered > 300);

    // Jitter bounds: 66.25 ms and 13.25 ms (paper values).
    assert!((no_jc.jitter_bound.as_millis_f64() - 66.25).abs() < 0.01);
    assert!((jc.jitter_bound.as_millis_f64() - 13.25).abs() < 0.01);
    assert!(no_jc.jitter < no_jc.jitter_bound);
    assert!(jc.jitter < jc.jitter_bound);

    // Control reduces jitter by a large factor...
    assert!(jc.jitter.as_ps() * 3 < no_jc.jitter.as_ps());
    // ...and raises the mean delay (packets are pushed toward the bound).
    assert!(jc.mean_delay > no_jc.mean_delay);

    // Both sessions respect the common delay bound.
    assert!(no_jc.max_delay < no_jc.delay_bound);
    assert!(jc.max_delay < jc.delay_bound);
    assert!(r.lateness_fraction < 1.0);
}

#[test]
fn fig12_fig13_buffer_bounds_hold_at_every_hop() {
    let r = fig8::run(&quick(&Collector::default(), 30));
    for s in &r.sessions {
        for (name, b) in [("first", &s.buffer_first), ("last", &s.buffer_last)] {
            assert!(
                b.max_bits <= b.bound_bits,
                "jc={} {name}: {} > {}",
                s.jitter_control,
                b.max_bits,
                b.bound_bits
            );
        }
    }
    // Paper: jitter control shrinks the *downstream* buffer requirement.
    let (no_jc, jc) = (&r.sessions[0], &r.sessions[1]);
    assert!(jc.buffer_last.bound_bits < no_jc.buffer_last.bound_bits);
    // At the first node both bounds coincide.
    assert_eq!(jc.buffer_first.bound_bits, no_jc.buffer_first.bound_bits);
}

// ------------------------------------------------------- Figures 9, 10, 11

fn check_distribution(variant: fig9_11::Variant, expect_rho: f64) {
    let r = fig9_11::run(&quick(&Collector::default(), 30), variant);
    assert!((r.rho - expect_rho).abs() < 0.01, "rho={}", r.rho);
    assert!(r.delivered > 300);
    assert!(r.lateness_fraction < 1.0);
    let n = r.delivered as f64;
    for p in &r.points {
        // The simulated bound is pathwise (D_i ≤ D_i^ref + shift), so the
        // empirical CCDF may never exceed it.
        assert!(
            p.empirical <= p.simulated_bound + 1e-12,
            "{} at {}: emp {} > sim bound {}",
            variant.name(),
            p.delay,
            p.empirical,
            p.simulated_bound
        );
        // Against the analytic bound, allow binomial sampling noise.
        let noise = 4.0 * (p.analytic_bound * (1.0 - p.analytic_bound) / n).sqrt() + 3.0 / n;
        assert!(
            p.empirical <= p.analytic_bound + noise,
            "{} at {}: emp {} > analytic {} (+{noise})",
            variant.name(),
            p.delay,
            p.empirical,
            p.analytic_bound
        );
    }
}

#[test]
fn fig9_distribution_bound() {
    check_distribution(fig9_11::Variant::Fig9, 0.70);
}

#[test]
fn fig10_distribution_bound() {
    check_distribution(fig9_11::Variant::Fig10, 0.33);
}

#[test]
fn fig11_distribution_bound() {
    check_distribution(fig9_11::Variant::Fig11, 0.33);
}

#[test]
fn fig10_bound_is_looser_than_fig9() {
    // The paper: for the low-rate session the analytic bound visibly
    // detaches from the observation (β grows as r shrinks). Compare the
    // 1 % read-outs of bound vs empirical in both figures.
    let r9 = fig9_11::run(&quick(&Collector::default(), 30), fig9_11::Variant::Fig9);
    let r10 = fig9_11::run(&quick(&Collector::default(), 30), fig9_11::Variant::Fig10);
    let gap = |r: &fig9_11::DistResult| {
        let ana = r.analytic_percentile(0.01).unwrap();
        let emp = r.empirical_percentile(0.01).unwrap();
        ana.as_millis_f64() - emp.as_millis_f64()
    };
    assert!(
        gap(&r10) > 2.0 * gap(&r9),
        "fig10 gap {} !>> fig9 gap {}",
        gap(&r10),
        gap(&r9)
    );
}

// --------------------------------------------------------- Figures 14–17

#[test]
fn fig14_17_class_hierarchy_shape() {
    let p = fig14_17::point(&quick(&Collector::default(), 20), Duration::from_ms(88));
    let [c1_nojc, c1_jc, c2_nojc, c2_jc] = p.tagged;

    // Every tagged session respects its bounds.
    for (m, jc) in [
        (c1_nojc, false),
        (c1_jc, true),
        (c2_nojc, false),
        (c2_jc, true),
    ] {
        assert!(m.delivered > 200);
        assert!(
            m.max_delay < m.delay_bound,
            "{} !< {}",
            m.max_delay,
            m.delay_bound
        );
        assert!(
            m.jitter < m.jitter_bound,
            "{} !< {} (jc={jc})",
            m.jitter,
            m.jitter_bound
        );
    }

    // The class hierarchy: class 1 beats class 2 on delay and jitter for
    // matching jitter-control modes.
    assert!(c1_nojc.max_delay < c2_nojc.max_delay);
    assert!(c1_jc.max_delay < c2_jc.max_delay);
    assert!(c1_nojc.jitter < c2_nojc.jitter);
    assert!(c1_jc.jitter < c2_jc.jitter);

    // Jitter control still works within each class.
    assert!(c1_jc.jitter < c1_nojc.jitter);
    assert!(c2_jc.jitter < c2_nojc.jitter);

    assert!(p.lateness_fraction < 1.0);
}

#[test]
fn regulator_option_reaches_the_figure_networks() {
    // `--regulator` used to stop at the scenario runner. MIX under AC2
    // puts two jitter-controlled sessions on the five-hop route, so the
    // shared interleaved FIFO makes one wait behind the other's holds and
    // the jitter-controlled statistics must move. (CROSS would not show
    // it: its one jitter-controlled session is the only one ever held,
    // and a FIFO of one session releases exactly like its own regulator.)
    let jc_stats = |regulator| {
        let collector = Collector::default();
        let cfg = RunConfig {
            seed: 7,
            engine: RunOptions {
                regulator: Some(regulator),
                ..RunOptions::default()
            },
            ..RunConfig::paper(&collector)
        };
        let (mut net, tagged) = common::build_mix_ac2(&cfg, Duration::from_ms(88));
        net.run_until(lit_sim::Time::from_secs(5));
        [tagged.class1_jc, tagged.class2_jc].map(|id| {
            let st = net.session_stats(id);
            (st.delivered, st.max_delay(), st.mean_delay(), st.jitter())
        })
    };
    assert_ne!(
        jc_stats(RegulatorBackend::PerSession),
        jc_stats(RegulatorBackend::Interleaved)
    );
}

// ---------------------------------------------------- pathwise ineq. (12)

#[test]
fn pathwise_excess_never_reaches_beta_plus_alpha() {
    // The strongest check in the suite: for every delivered packet of
    // every session in a fully loaded MIX network,
    // D_i − D_i^ref < β + α must hold individually.
    let collector = Collector::default();
    let cfg = RunConfig {
        seed: 77,
        ..RunConfig::paper(&collector)
    };
    let (mut net, _) = common::build_mix_one_class(&cfg, Duration::from_ms(88));
    net.run_until(lit_sim::Time::from_secs(15));
    for i in 0..net.num_sessions() {
        let id = lit_net::SessionId(i as u32);
        let st = net.session_stats(id);
        if st.delivered == 0 {
            continue;
        }
        let pb = lit_core::PathBounds::for_session(&net, id);
        assert!(
            st.max_excess().unwrap() < pb.shift_ps(),
            "session {i}: excess {} !< shift {}",
            st.max_excess().unwrap(),
            pb.shift_ps()
        );
    }
}

// ----------------------------------------------------------------- firewall

#[test]
fn firewall_fcfs_is_the_outlier() {
    // 60 s, not 20: the victim needs a few ON-periods to collide with
    // burst alignments before FCFS pushes it past the bound (it first
    // crosses near t ≈ 40 s with this seed; 60 s leaves margin).
    let rows = firewall::run(&quick(&Collector::default(), 60));
    assert_eq!(rows.len(), 9);
    // FCFS lets the bursts push the victim past the LiT bound, and every
    // work-conserving rate-based discipline at least halves its max delay
    // (Jitter-EDD rides near the bound by design, HRR holds per frame).
    let fcfs = &rows[0];
    assert!(fcfs.discipline == "fcfs" && fcfs.max_delay > fcfs.lit_bound);
    for r in rows
        .iter()
        .filter(|r| !matches!(r.discipline, "fcfs" | "jitter-edd" | "hrr"))
    {
        assert!(r.max_delay * 2 < fcfs.max_delay, "{}", r.discipline);
    }
    // The rate-based sorted-priority disciplines keep the victim under
    // the LiT bound (HRR isolates too but plays by framing bounds).
    for r in rows
        .iter()
        .filter(|r| !matches!(r.discipline, "fcfs" | "hrr"))
    {
        assert!(
            r.max_delay < r.lit_bound,
            "{}: {} !< {}",
            r.discipline,
            r.max_delay,
            r.lit_bound
        );
    }
}

// ------------------------------------------------------------- determinism

#[test]
fn experiments_are_bit_reproducible() {
    let a = fig7::point(&quick(&Collector::default(), 10), Duration::from_ms(88));
    let b = fig7::point(&quick(&Collector::default(), 10), Duration::from_ms(88));
    assert_eq!(a.max_delay, b.max_delay);
    assert_eq!(a.jitter, b.jitter);
    assert_eq!(a.delivered, b.delivered);
    let collector = Collector::default();
    let mut c = quick(&collector, 10);
    c.seed ^= 1;
    let d = fig7::point(&c, Duration::from_ms(88));
    assert!(d.max_delay != a.max_delay || d.delivered != a.delivered);
}

// --------------------------------------- buffer distribution bound ([6])

#[test]
fn buffer_distribution_bound_holds_empirically() {
    // The reconstruction of [6]'s distributional buffer bound: at every
    // hop, the occupancy CCDF must stay below the shifted reference-delay
    // CCDF (both measured on the same run).
    let collector = Collector::default();
    let cfg = RunConfig::paper(&collector);
    let (mut net, no_jc, jc) = common::build_cross_onoff(&cfg, cfg.seed);
    net.run_until(lit_sim::Time::from_secs(25));
    for (id, has_jc) in [(no_jc, false), (jc, true)] {
        let st = net.session_stats(id);
        let pb = lit_core::PathBounds::for_session(&net, id);
        for hop in 0..st.buffer.len() {
            for q_cells in 0..12u64 {
                let q = q_cells * 424;
                let emp = st.buffer[hop].ccdf_at(q);
                let bound = pb.buffer_ccdf_bound(|t| st.reference.ccdf_at(t), hop, has_jc, q);
                assert!(
                    emp <= bound + 1e-9,
                    "jc={has_jc} hop={hop} q={q}: emp {emp} > bound {bound}"
                );
            }
        }
    }
}

// ---------------------------------------------- approximate-queue ablation

#[test]
fn bucketed_queue_error_is_bounded_by_hops_times_bucket() {
    use lit_repro::experiments::ablation;
    let rows = ablation::run(&quick(&Collector::default(), 15));
    let exact = rows[0];
    assert!(exact.bucket.is_none());
    for r in &rows[1..] {
        let bucket = r.bucket.unwrap();
        // Per hop the inversion is < bucket; end to end, < hops · bucket.
        let slack = bucket * 5;
        assert!(
            r.max_delay <= exact.max_delay + slack,
            "bucket {}: max {} vs exact {} + {}",
            bucket,
            r.max_delay,
            exact.max_delay,
            slack
        );
        assert!(
            r.jitter_jc <= exact.jitter_jc + slack,
            "bucket {}: jitter_jc {} vs {}",
            bucket,
            r.jitter_jc,
            exact.jitter_jc
        );
    }
}

// --------------------------------------------------------------- scenarios

#[test]
fn bundled_scenario_files_parse_and_run() {
    use lit_repro::scenario::Scenario;
    for file in ["scenarios/fig8_cross.scn", "scenarios/misbehaver.scn"] {
        let text = std::fs::read_to_string(file).expect(file);
        let mut sc = Scenario::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let _ = &mut sc;
        // Parsing is the contract here; running full horizons is covered
        // by the unit tests with shorter scenarios.
    }
}

#[test]
fn fig11_bound_is_tighter_than_fig10() {
    // The paper's Fig. 10 vs Fig. 11 contrast: the same low-rate session's
    // analytic bound is loose under Poisson cross traffic but tight under
    // phase-aligned CBR cross traffic (whose per-frame batches realize the
    // per-hop worst case).
    let r10 = fig9_11::run(&quick(&Collector::default(), 60), fig9_11::Variant::Fig10);
    let r11 = fig9_11::run(&quick(&Collector::default(), 60), fig9_11::Variant::Fig11);
    let tightness = |r: &fig9_11::DistResult| {
        let ana = r.analytic_percentile(0.001).unwrap().as_millis_f64();
        let emp = r.empirical_percentile(0.001).unwrap().as_millis_f64();
        emp / ana
    };
    let t10 = tightness(&r10);
    let t11 = tightness(&r11);
    assert!(t11 > t10 + 0.15, "fig11 {t11:.2} !>> fig10 {t10:.2}");
}

// --------------------------------------------------- heavy-tail extension

#[test]
fn heavytail_simulated_bound_holds() {
    use lit_repro::experiments::heavytail;
    let r = heavytail::run(&quick(&Collector::default(), 40));
    assert!(r.delivered > 500);
    assert!(r.lateness_fraction < 1.0);
    // Pathwise ceiling respected even for infinite-variance traffic.
    assert!(r.max_excess_ps < r.shift_ps);
    for p in &r.points {
        assert!(
            p.empirical <= p.simulated_bound + 1e-12,
            "at {}: {} > {}",
            p.delay,
            p.empirical,
            p.simulated_bound
        );
    }
}

// --------------------------------------------------- heterogeneous links

#[test]
fn bounds_hold_on_heterogeneous_link_rates() {
    // The paper's formulas carry per-hop capacities C_n; exercise them
    // with three different link speeds on one route.
    use leave_in_time::core::{LitDiscipline, PathBounds};
    use leave_in_time::net::{LinkParams, NetworkBuilder, SessionId, SessionSpec};
    use leave_in_time::traffic::{PoissonSource, ShapedSource};
    use lit_sim::Time;

    let mut b = NetworkBuilder::new().seed(91);
    let mk = |rate_bps: u64| LinkParams {
        rate_bps,
        propagation: Duration::from_us(500),
        lmax_bits: 424,
    };
    let n0 = b.add_node(mk(1_536_000));
    let n1 = b.add_node(mk(768_000));
    let n2 = b.add_node(mk(3_072_000));
    let route = [n0, n1, n2];
    let tagged = b.add_session(
        SessionSpec::atm(SessionId(0), 64_000),
        &route,
        Box::new(ShapedSource::new(
            PoissonSource::new(Duration::from_ms(8), 424),
            64_000,
            2 * 424,
        )),
    );
    // Cross load sized to the slowest link.
    for n in route {
        b.add_session(
            SessionSpec::atm(SessionId(0), 600_000),
            &[n],
            Box::new(PoissonSource::new(Duration::from_us(750), 424)),
        );
    }
    let mut net = b.build(&LitDiscipline::factory());
    net.run_until(Time::from_secs(30));
    let st = net.session_stats(tagged);
    assert!(st.delivered > 1000);
    let pb = PathBounds::for_session(&net, tagged);
    let bound = pb.delay_bound_token_bucket(2 * 424);
    assert!(
        st.max_delay().unwrap() < bound,
        "{} !< {}",
        st.max_delay().unwrap(),
        bound
    );
    assert!(st.max_excess().unwrap() < pb.shift_ps());
    // β really is per-hop: it must differ from a homogeneous-T1 path's.
    let t1_hop = lit_core::HopSpec {
        link: LinkParams::paper_t1(),
        assignment: leave_in_time::net::DelayAssignment::LenOverRate,
    };
    let t1 = PathBounds::new(64_000, 424, 424, vec![t1_hop; 3]);
    assert_ne!(pb.beta_ps(), t1.beta_ps());
}
