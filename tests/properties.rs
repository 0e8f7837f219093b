//! Property-based tests for the workspace's core invariants — DESIGN.md §6.
//!
//! Each property drives the real network executor with arbitrary traffic
//! and checks a theorem of the paper (or a structural invariant of the
//! implementation) on the outcome. Debug assertions inside the scheduler
//! (`A ≥ 0`, `F̂ < F + L_MAX/C`) are active here as well, so every run
//! doubles as a regulator-invariant check.
//!
//! Case count: `PROPTEST_CASES` env var (default 24; the nightly CI job
//! sets 256). A failing case prints its seed — replay with
//! `LIT_PROP_SEED=<seed>`. Regression seeds found by the differential
//! fuzz harness (`fuzz_diff`) get pinned via `check_with`.

#![forbid(unsafe_code)]

use leave_in_time::baselines::VirtualClockDiscipline;
use leave_in_time::core::{install_oracle_bounds, LitDiscipline, PathBounds};
use leave_in_time::net::{
    DelayAssignment, LinkParams, NetworkBuilder, OracleConfig, OracleMode, SessionId, SessionSpec,
};
use leave_in_time::prelude::*;
use leave_in_time::traffic::{ShapedSource, Source, TokenBucket, TraceSource};
use lit_prop::{check, Gen};

/// An arbitrary packet trace: cumulative arrival times (ps gaps up to
/// 50 ms) and lengths 1..=424 bits.
fn gen_trace(g: &mut Gen, max_len: usize) -> Vec<(Time, u32)> {
    let n = g.size(1, max_len);
    let mut t = Time::ZERO;
    (0..n)
        .map(|_| {
            t += Duration::from_ps(g.below(50_000_000_000));
            (t, g.range(1, 425) as u32)
        })
        .collect()
}

/// The paper's special-case claim: Leave-in-Time with one class,
/// `d = L/r`, and no jitter control *is* VirtualClock — for arbitrary
/// traffic, not just the paper's source models.
#[test]
fn lit_reduces_to_virtualclock() {
    check("lit_reduces_to_virtualclock", |g| {
        let n_traces = g.size(1, 4);
        let traces: Vec<Vec<(Time, u32)>> = (0..n_traces).map(|_| gen_trace(g, 40)).collect();
        let hops = g.size(1, 4);
        let run = |vc: bool| {
            let mut b = NetworkBuilder::new().seed(1);
            let nodes = b.tandem(hops, LinkParams::paper_t1());
            let n = traces.len();
            let mut ids = Vec::new();
            for (i, tr) in traces.iter().enumerate() {
                let rate = 1_536_000 / n as u64 / (i as u64 + 1);
                ids.push(b.add_session(
                    SessionSpec::atm(SessionId(0), rate),
                    &nodes,
                    Box::new(TraceSource::from_pairs(tr.clone())),
                ));
            }
            let mut net = if vc {
                b.build(&|_: &LinkParams| Box::new(VirtualClockDiscipline::new()))
            } else {
                b.build(&LitDiscipline::factory())
            };
            net.run_until(Time::from_secs(3_000));
            ids.into_iter()
                .map(|id| {
                    let st = net.session_stats(id);
                    (st.delivered, st.max_delay(), st.jitter(), st.mean_delay())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    });
}

/// Pathwise ineq. (12): for token-bucket-shaped arbitrary traffic,
/// every packet's end-to-end delay stays below
/// `b₀/r + β + α` — and the per-packet excess over the reference
/// server stays below `β + α`. The conformance oracle runs in `Panic`
/// mode throughout, so every regulator invariant is checked per packet
/// and the explicit drain check at the end panics on ineq. 16 or a
/// work-conservation failure.
#[test]
fn delay_bound_holds_for_shaped_arbitrary_traffic() {
    check("delay_bound_holds_for_shaped_arbitrary_traffic", |g| {
        let trace = gen_trace(g, 60);
        let cross = gen_trace(g, 60);
        let hops = g.size(1, 4);
        let rate = g.range(16_000, 400_000);
        let depth_cells = g.range(1, 6);
        let jc = g.bool();
        let b0 = depth_cells * 424;
        let mut b = NetworkBuilder::new()
            .seed(2)
            .oracle(OracleConfig::new(OracleMode::Panic));
        let nodes = b.tandem(hops, LinkParams::paper_t1());
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.jitter_control = jc;
        spec.min_len_bits = 1; // traces carry lengths in 1..=424
        let tagged = b.add_session(
            spec,
            &nodes,
            Box::new(ShapedSource::new(TraceSource::from_pairs(trace), rate, b0)),
        );
        // Arbitrary (unshaped, possibly misbehaving) cross traffic with
        // the remaining reservation.
        let cross_rate = 1_536_000 - rate;
        b.add_session(
            SessionSpec::atm(SessionId(0), cross_rate),
            &nodes,
            Box::new(TraceSource::from_pairs(cross)),
        );
        let mut net = b.build(&LitDiscipline::factory());
        install_oracle_bounds(&mut net);
        net.run_until(Time::from_secs(3_000));

        let st = net.session_stats(tagged);
        assert!(st.delivered > 0);
        let pb = PathBounds::for_session(&net, tagged);
        let bound = pb.delay_bound_token_bucket(b0);
        assert!(
            st.max_delay().unwrap() < bound,
            "max {} !< bound {}",
            st.max_delay().unwrap(),
            bound
        );
        assert!(st.max_excess().unwrap() < pb.shift_ps());
        // Scheduler saturation is impossible under valid reservations.
        for n in 0..net.num_nodes() {
            if let Some(l) = net.node_stats(lit_net::NodeId(n as u32)).max_lateness() {
                assert!(
                    l < LinkParams::paper_t1().lmax_time().as_ps() as i128,
                    "lateness {l}"
                );
            }
        }
        net.oracle_drain_check();
        assert_eq!(net.oracle_violations(), 0);
    });
}

/// Jitter bound (ineq. 17) for shaped traffic, with and without
/// delay-jitter control.
#[test]
fn jitter_bound_holds_for_shaped_arbitrary_traffic() {
    check("jitter_bound_holds_for_shaped_arbitrary_traffic", |g| {
        let trace = gen_trace(g, 60);
        let cross = gen_trace(g, 60);
        let hops = g.size(2, 5);
        let jc = g.bool();
        let (rate, b0) = (32_000u64, 424u64);
        let mut b = NetworkBuilder::new().seed(3);
        let nodes = b.tandem(hops, LinkParams::paper_t1());
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.jitter_control = jc;
        spec.min_len_bits = 1; // traces carry lengths in 1..=424
        let tagged = b.add_session(
            spec,
            &nodes,
            Box::new(ShapedSource::new(TraceSource::from_pairs(trace), rate, b0)),
        );
        b.add_session(
            SessionSpec::atm(SessionId(0), 1_400_000),
            &nodes,
            Box::new(TraceSource::from_pairs(cross)),
        );
        let mut net = b.build(&LitDiscipline::factory());
        net.run_until(Time::from_secs(3_000));
        let st = net.session_stats(tagged);
        assert!(st.delivered > 0);
        let pb = PathBounds::for_session(&net, tagged);
        let dref = Duration::from_bits_at_rate(b0, rate);
        let bound = pb.jitter_bound(dref, jc);
        assert!(
            st.jitter().unwrap() < bound,
            "jitter {} !< bound {} (jc={jc})",
            st.jitter().unwrap(),
            bound
        );
    });
}

/// Buffer bounds hold per hop for shaped traffic.
#[test]
fn buffer_bounds_hold_for_shaped_arbitrary_traffic() {
    check("buffer_bounds_hold_for_shaped_arbitrary_traffic", |g| {
        let trace = gen_trace(g, 60);
        let hops = g.size(1, 5);
        let depth_cells = g.range(1, 6);
        let (rate, b0) = (64_000u64, depth_cells * 424);
        let mut b = NetworkBuilder::new().seed(4);
        let nodes = b.tandem(hops, LinkParams::paper_t1());
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.min_len_bits = 1; // traces carry lengths in 1..=424
        let tagged = b.add_session(
            spec,
            &nodes,
            Box::new(ShapedSource::new(TraceSource::from_pairs(trace), rate, b0)),
        );
        let mut net = b.build(&LitDiscipline::factory());
        net.run_until(Time::from_secs(3_000));
        let st = net.session_stats(tagged);
        let pb = PathBounds::for_session(&net, tagged);
        let dref = Duration::from_bits_at_rate(b0, rate);
        for hop in 0..hops {
            assert!(
                st.buffer[hop].max_bits() <= pb.buffer_bound_bits(dref, hop, false),
                "hop {hop}: {} > {}",
                st.buffer[hop].max_bits(),
                pb.buffer_bound_bits(dref, hop, false)
            );
        }
    });
}

/// The token-bucket shaper's output always conforms to its bucket.
#[test]
fn shaper_output_conforms() {
    check("shaper_output_conforms", |g| {
        let trace = gen_trace(g, 80);
        let rate = g.range(1_000, 2_000_000);
        let depth_cells = g.range(1, 8);
        let b0 = depth_cells * 424;
        let mut shaped = ShapedSource::new(TraceSource::from_pairs(trace), rate, b0);
        let mut checker = TokenBucket::new(rate, b0);
        let mut rng = SimRng::seed_from(0);
        let mut prev = Time::ZERO;
        while let Some(e) = shaped.next_emission(&mut rng) {
            assert!(e.at >= prev, "shaper reordered");
            prev = e.at;
            assert!(checker.try_consume(e.at, e.len_bits));
        }
    });
}

/// Histograms: ccdf_at is monotone non-increasing and dominates the
/// bin-edge CCDF; quantiles bracket the extrema.
#[test]
fn histogram_invariants() {
    check("histogram_invariants", |g| {
        use leave_in_time::analysis::DurationHistogram;
        let n_samples = g.size(1, 300);
        let samples: Vec<u64> = (0..n_samples).map(|_| g.below(2_000_000_000)).collect();
        let mut h = DurationHistogram::new(Duration::from_us(100), 1000);
        for &s in &samples {
            h.record(Duration::from_ps(s * 1000));
        }
        let mut prev = f64::INFINITY;
        for i in 0..100 {
            let t = Duration::from_us(i * 25);
            let c = h.ccdf_at(t);
            assert!(c <= prev + 1e-12);
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
        for &(edge, frac) in h.ccdf().iter() {
            // ccdf() evaluates *after* the bin; ccdf_at at the same point
            // must dominate (it refuses to exclude the boundary bin).
            assert!(h.ccdf_at(edge - Duration::from_ps(1)) + 1e-12 >= frac);
        }
        assert!(h.quantile(1.0).unwrap() >= h.max().unwrap());
        assert_eq!(h.count(), samples.len() as u64);
    });
}

/// Rule (1.3)-style `Linear` assignments (per-packet d with a class
/// base offset) keep every bound for variable-length shaped traffic.
/// This is the delay-shifting path the earlier properties (which use
/// `d = L/r`) never exercise: d may exceed L/r (a "donor" session in
/// a high class), and α is strictly positive.
#[test]
fn linear_assignment_bounds_hold() {
    check("linear_assignment_bounds_hold", |g| {
        let trace = gen_trace(g, 60);
        let cross = gen_trace(g, 60);
        let hops = g.size(1, 4);
        let base_us = g.below(20_000);
        let num_factor = g.range(1, 4); // slope numerator = factor · C
        let (rate, b0) = (48_000u64, 2 * 424u64);
        let c = 1_536_000u64;
        // d_i = L_i · (factor·C)/(r·C) + base = factor·L_i/r + base ≥ L_i/r.
        let assignment = DelayAssignment::Linear {
            num: num_factor * c,
            den: rate as u128 * c as u128,
            base: Duration::from_us(base_us),
        };
        let mut b = NetworkBuilder::new().seed(6);
        let nodes = b.tandem(hops, LinkParams::paper_t1());
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.min_len_bits = 1;
        spec.delay = assignment;
        let tagged = b.add_session(
            spec,
            &nodes,
            Box::new(ShapedSource::new(TraceSource::from_pairs(trace), rate, b0)),
        );
        b.add_session(
            SessionSpec::atm(SessionId(0), c - rate),
            &nodes,
            Box::new(TraceSource::from_pairs(cross)),
        );
        let mut net = b.build(&LitDiscipline::factory());
        net.run_until(Time::from_secs(3_000));
        let st = net.session_stats(tagged);
        assert!(st.delivered > 0);
        let pb = PathBounds::for_session(&net, tagged);
        assert!(pb.alpha_ps() >= 0, "slope >= 1/r means alpha >= 0");
        let bound = pb.delay_bound_token_bucket(b0);
        assert!(
            st.max_delay().unwrap() < bound,
            "max {} !< bound {}",
            st.max_delay().unwrap(),
            bound
        );
        assert!(st.max_excess().unwrap() < pb.shift_ps());
    });
}
