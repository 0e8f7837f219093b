//! Planning a playback point for a *tolerant* audio application — the use
//! case the paper's introduction motivates and ineq. (16) enables.
//!
//! ```sh
//! cargo run --example tolerant_audio
//! ```
//!
//! A Poisson-ish audio session has **no** finite worst-case delay (its
//! reference-server backlog is unbounded), so a plain delay bound is
//! useless. Leave-in-Time still bounds the delay *distribution*: shift
//! the session's own M/D/1 reference distribution right by β + α. A
//! tolerant receiver that accepts losing a fraction p of packets can then
//! read its playback delay straight off that curve — before ever sending
//! a packet — and compare it afterwards with the simulated truth.

#![forbid(unsafe_code)]

use leave_in_time::analysis::Md1;
use leave_in_time::core::{LitDiscipline, PathBounds};
use leave_in_time::net::{LinkParams, NetworkBuilder, SessionId, SessionSpec};
use leave_in_time::prelude::*;
use leave_in_time::traffic::{PoissonSource, ATM_CELL_BITS};
use lit_repro::experiments::common::{CROSS_1136K_GAP, TAGGED_400K_GAP};

fn main() {
    // The audio session: 424-bit cells, mean gap 1.5143 ms, reserved
    // 400 kbit/s over five hops (the paper's Figure 9 operating point,
    // rho = 0.7).
    let rate = 400_000u64;
    let gap = TAGGED_400K_GAP;
    let hops = 5usize;

    let mut builder = NetworkBuilder::new().seed(1234);
    let nodes = builder.tandem(hops, LinkParams::paper_t1());
    let session = builder.add_session(
        SessionSpec::atm(SessionId(0), rate),
        &nodes,
        Box::new(PoissonSource::new(gap, ATM_CELL_BITS)),
    );
    // Competing Poisson cross traffic on every hop.
    for node in &nodes {
        builder.add_session(
            SessionSpec::atm(SessionId(0), 1_136_000),
            &[*node],
            Box::new(PoissonSource::new(CROSS_1136K_GAP, ATM_CELL_BITS)),
        );
    }
    let mut net = builder.build(&LitDiscipline::factory());

    // ---- Plan BEFORE running: pure analysis. ------------------------------
    let bounds = PathBounds::for_session(&net, session);
    let service = Duration::from_bits_at_rate(ATM_CELL_BITS as u64, rate);
    let md1 = Md1::from_mean_gap(gap, service);

    println!("tolerance   planned playback delay (analytic bound)");
    println!("----------------------------------------------------");
    let mut plans = Vec::new();
    for loss in [0.01, 0.001, 0.0001] {
        // Smallest d with bound(P(D > d)) <= loss, by scanning.
        let mut d = Duration::ZERO;
        while bounds.delay_ccdf_bound(|t| md1.sojourn_ccdf(t), d) > loss {
            d += Duration::from_us(100);
        }
        println!("   {:>6.2}%   {:7.3} ms", loss * 100.0, d.as_millis_f64());
        plans.push((loss, d));
    }

    // ---- Verify by simulation. ---------------------------------------------
    net.run_until(Time::from_secs(120));
    let st = net.session_stats(session);
    println!();
    println!(
        "simulated {} packets; actual loss at each playback point:",
        st.delivered
    );
    for (loss, d) in plans {
        let actual = st.e2e.ccdf_at(d);
        println!(
            "   planned for {:>6.2}%  ->  measured {:>8.4}% late",
            loss * 100.0,
            actual * 100.0
        );
        // The plan is an upper bound: reality must be no worse.
        assert!(
            actual <= loss * 1.05 + 1e-4,
            "bound violated: {actual} > {loss}"
        );
    }
    println!();
    println!("the bound is safe at every tolerance level: a receiver can");
    println!("commit to a playback point without trusting anyone else's traffic.");
}
