//! Quickstart: a three-hop Leave-in-Time network with one reserved
//! session and background traffic.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Builds three T1 nodes in tandem, admits a 64 kbit/s session under
//! admission control procedure 1 (one class, so the scheduler behaves
//! like VirtualClock), runs 30 simulated seconds, and compares the
//! measured end-to-end delay against the analytic bound of ineq. (15).

#![forbid(unsafe_code)]

use leave_in_time::core::{ConnectionManager, DRule, LitDiscipline, PathBounds, SessionRequest};
use leave_in_time::net::{LinkParams, NetworkBuilder, SessionId, SessionSpec};
use leave_in_time::prelude::*;
use leave_in_time::traffic::{PoissonSource, ShapedSource, ATM_CELL_BITS};

fn main() {
    // --- Topology: three T1 nodes in tandem. ------------------------------
    let mut builder = NetworkBuilder::new().seed(7);
    let nodes = builder.tandem(3, LinkParams::paper_t1());

    // --- Connection establishment. ----------------------------------------
    // One admission controller per node; the session must pass at every
    // hop (the paper's "admission control tests ... in all the nodes along
    // the session's route").
    let mut cm = ConnectionManager::one_class(nodes.len(), 1_536_000);

    let rate = 64_000;
    let req = SessionRequest::new(rate, ATM_CELL_BITS);
    let conn = cm
        .establish(0..nodes.len(), 0, req, DRule::PerPacket)
        .expect("link has room for 64 kbit/s");

    // The session's traffic: Poisson at ~80 % of the reservation, shaped
    // through a (r, 3-cell) token bucket so the closed-form delay bound
    // applies.
    let bucket_depth = 3 * ATM_CELL_BITS as u64;
    let source = ShapedSource::new(
        PoissonSource::new(Duration::from_ms(6), ATM_CELL_BITS),
        rate,
        bucket_depth,
    );
    let session = builder.add_session_with_hops(
        SessionSpec::atm(SessionId(0), rate),
        conn.hops(),
        Box::new(source),
    );

    // Background: one best-effort-ish heavy Poisson session per hop.
    for node in &nodes {
        let bg_req = SessionRequest::new(1_400_000, ATM_CELL_BITS);
        let bg = cm
            .establish([node.index()], 0, bg_req, DRule::PerPacket)
            .expect("background fits");
        builder.add_session_with_hops(
            SessionSpec::atm(SessionId(0), 1_400_000),
            bg.hops(),
            Box::new(PoissonSource::new(Duration::from_us(310), ATM_CELL_BITS)),
        );
    }

    // --- Run. ---------------------------------------------------------------
    let mut net = builder.build(&LitDiscipline::factory());
    net.run_until(Time::from_secs(30));

    // --- Report. -------------------------------------------------------------
    let stats = net.session_stats(session);
    let bounds = PathBounds::for_session(&net, session);
    let bound = bounds.delay_bound_token_bucket(bucket_depth);

    println!("Leave-in-Time quickstart (3 T1 hops, 64 kbit/s reservation)");
    println!("  packets delivered : {}", stats.delivered);
    println!(
        "  mean delay        : {:7.3} ms",
        stats.mean_delay().unwrap().as_millis_f64()
    );
    println!(
        "  max delay         : {:7.3} ms",
        stats.max_delay().unwrap().as_millis_f64()
    );
    println!(
        "  jitter (max-min)  : {:7.3} ms",
        stats.jitter().unwrap().as_millis_f64()
    );
    println!(
        "  analytic bound    : {:7.3} ms   (ineq. 15: b0/r + beta + alpha)",
        bound.as_millis_f64()
    );
    assert!(
        stats.max_delay().unwrap() < bound,
        "the paper's guarantee must hold"
    );
    println!("  bound holds       : yes");
}
