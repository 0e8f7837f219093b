//! Call admission: the control plane in front of the scheduler.
//!
//! ```sh
//! cargo run --example call_admission
//! ```
//!
//! A stream of connection *requests* (random routes and rates over the
//! paper's five-node tandem) hits a [`ConnectionManager`]. Whatever passes
//! the per-node admission tests — all-or-nothing along the route, with
//! rollback — becomes a real session in the simulated network; the rest
//! are blocked. After the run, every admitted session is checked against
//! its analytic delay bound: admission control is exactly what makes those
//! bounds *mean* something.

#![forbid(unsafe_code)]

use leave_in_time::core::{ConnectionManager, DRule, LitDiscipline, PathBounds, SessionRequest};
use leave_in_time::net::{LinkParams, NetworkBuilder, SessionId, SessionSpec};
use leave_in_time::prelude::*;
use leave_in_time::traffic::{PoissonSource, ShapedSource, ATM_CELL_BITS};

fn main() {
    const NODES: usize = 5;
    let mut builder = NetworkBuilder::new().seed(2026);
    let _node_ids = builder.tandem(NODES, LinkParams::paper_t1());
    let mut cm = ConnectionManager::one_class(NODES, 1_536_000);
    let mut rng = SimRng::seed_from(99);

    let mut admitted = Vec::new();
    let mut blocked = 0usize;
    let offered = 120usize;
    for _ in 0..offered {
        // Random route [a, b] and a rate from a small menu.
        let a = (rng.below(NODES as u64)) as usize;
        let b = (rng.below(NODES as u64)) as usize;
        let (lo, hi) = (a.min(b), a.max(b));
        let rate = [32_000u64, 64_000, 128_000, 256_000][rng.below(4) as usize];
        let req = SessionRequest::new(rate, ATM_CELL_BITS);
        match cm.establish(lo..=hi, 0, req, DRule::PerPacket) {
            Ok(conn) => {
                // Admitted: become a real (shaped, hence conforming)
                // session in the network.
                let depth = 4 * ATM_CELL_BITS as u64;
                // Offer 85 % of the reservation: L / (0.85·r) = 100·L / (85·r).
                let mean_gap = Duration::from_bits_at_rate(ATM_CELL_BITS as u64 * 100, rate * 85);
                let src =
                    ShapedSource::new(PoissonSource::new(mean_gap, ATM_CELL_BITS), rate, depth);
                let sid = builder.add_session_with_hops(
                    SessionSpec::atm(SessionId(0), rate),
                    conn.hops(),
                    Box::new(src),
                );
                admitted.push((sid, depth));
            }
            Err(_) => blocked += 1,
        }
    }

    println!(
        "offered {offered} connections: admitted {}, blocked {} ({:.1} % blocking)",
        admitted.len(),
        blocked,
        100.0 * blocked as f64 / offered as f64
    );
    for n in 0..NODES {
        println!(
            "  node {n}: committed {:>7} bit/s of 1536000",
            cm.node(n).admitted_rate_bps()
        );
    }

    let mut net = builder.build(&LitDiscipline::factory());
    net.run_until(Time::from_secs(60));

    let mut worst_margin = f64::INFINITY;
    for &(sid, depth) in &admitted {
        let st = net.session_stats(sid);
        if st.delivered == 0 {
            continue;
        }
        let bound = PathBounds::for_session(&net, sid).delay_bound_token_bucket(depth);
        let max = st.max_delay().unwrap();
        assert!(max < bound, "session {sid:?}: {max} !< {bound}");
        worst_margin =
            worst_margin.min((bound.as_millis_f64() - max.as_millis_f64()) / bound.as_millis_f64());
    }
    println!();
    println!(
        "all {} admitted sessions met their delay bounds (tightest margin {:.1} %)",
        admitted.len(),
        worst_margin * 100.0
    );
    println!("blocking at the control plane is the price of those guarantees.");
}
