//! Delay-jitter control in action (the paper's Figure 8, in miniature).
//!
//! ```sh
//! cargo run --example jitter_control
//! ```
//!
//! Two identical voice-like ON-OFF sessions cross five loaded T1 hops.
//! One requests delay-jitter control (a delay regulator at every hop past
//! the first), the other does not. Jitter collapses from tens of
//! milliseconds to about one packet time — in exchange for a mean delay
//! pushed toward the delay *bound* (regulated packets ride close to the
//! worst case by design).

#![forbid(unsafe_code)]

use leave_in_time::core::{LitDiscipline, PathBounds};
use leave_in_time::net::{LinkParams, NetworkBuilder, SessionId, SessionSpec};
use leave_in_time::prelude::*;
use leave_in_time::traffic::{OnOffConfig, OnOffSource, PoissonSource, ATM_CELL_BITS};
use lit_repro::experiments::common::CROSS_1472K_GAP;

fn main() {
    let mut builder = NetworkBuilder::new().seed(42);
    let nodes = builder.tandem(5, LinkParams::paper_t1());

    let voice = || {
        Box::new(OnOffSource::new(OnOffConfig::paper_voice(
            Duration::from_ms(650),
        ))) as Box<dyn leave_in_time::traffic::Source>
    };

    // The two tagged sessions: identical traffic, different service.
    let plain = builder.add_session(SessionSpec::atm(SessionId(0), 32_000), &nodes, voice());
    let smooth = builder.add_session(
        SessionSpec::atm(SessionId(0), 32_000).with_jitter_control(),
        &nodes,
        voice(),
    );

    // Poisson cross traffic on every hop (fills the rest of each link).
    for node in &nodes {
        builder.add_session(
            SessionSpec::atm(SessionId(0), 1_472_000),
            &[*node],
            Box::new(PoissonSource::new(CROSS_1472K_GAP, ATM_CELL_BITS)),
        );
    }

    let mut net = builder.build(&LitDiscipline::factory());
    net.run_until(Time::from_secs(60));

    let dref = Duration::from_bits_at_rate(ATM_CELL_BITS as u64, 32_000);
    println!("Session                  jitter      bound    mean delay");
    println!("---------------------------------------------------------");
    for (name, id, jc) in [
        ("without jitter control", plain, false),
        ("with jitter control   ", smooth, true),
    ] {
        let st = net.session_stats(id);
        let bound = PathBounds::for_session(&net, id).jitter_bound(dref, jc);
        println!(
            "{name}  {:7.3} ms  {:7.3} ms  {:7.3} ms",
            st.jitter().unwrap().as_millis_f64(),
            bound.as_millis_f64(),
            st.mean_delay().unwrap().as_millis_f64(),
        );
        assert!(st.jitter().unwrap() < bound);
    }
    println!();
    println!("Note how control trades mean delay for predictability:");
    println!("regulators hold packets so everyone experiences nearly the");
    println!("same (worst-case-ish) delay — ideal for fixed playback points.");
}
