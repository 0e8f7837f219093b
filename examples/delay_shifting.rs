//! Delay shifting with admission-control classes (paper §2 + Figs 14–17).
//!
//! ```sh
//! cargo run --example delay_shifting
//! ```
//!
//! Forty-eight identical 32 kbit/s voice sessions fully reserve three T1
//! hops (48 × 32 kbit/s = C). Six of them are admitted into class 1 of
//! admission control procedure 2 (d = 1.7 ms per hop); the other 42 land
//! in class 2 (d ≈ 15.5 ms per hop). Nobody's reserved rate changes — yet
//! class-1 sessions see a fraction of the end-to-end delay, *paid for* by
//! the class-2 sessions: the paper's notion of shifting delay between
//! sessions.

#![forbid(unsafe_code)]

use leave_in_time::core::{
    ClassedAdmission, ConnectionManager, DRule, DelayClass, LitDiscipline, PathBounds, Procedure,
    SessionRequest,
};
use leave_in_time::net::{LinkParams, NetworkBuilder, SessionId, SessionSpec};
use leave_in_time::prelude::*;
use leave_in_time::traffic::{OnOffConfig, OnOffSource, ATM_CELL_BITS};

fn main() {
    const HOPS: usize = 3;
    const SESSIONS: usize = 48; // 48 × 32 kbit/s = the whole T1
    const CLASS1: usize = 6; // sessions admitted to the low-delay class

    let classes = vec![
        DelayClass {
            max_bandwidth_bps: 256_000, // R1: up to 8 voice sessions
            // σ1 must cover Σ L_max/C over class 1: 6 · 0.276 ms = 1.66 ms.
            base_delay: Duration::from_us(1_700),
        },
        DelayClass {
            max_bandwidth_bps: 1_536_000, // R2 = C
            // σ2 must cover all 48 sessions: 48 · 0.276 ms = 13.25 ms.
            base_delay: Duration::from_us(13_250),
        },
    ];

    let mut builder = NetworkBuilder::new().seed(3);
    let nodes = builder.tandem(HOPS, LinkParams::paper_t1());
    let node =
        ClassedAdmission::new(Procedure::Proc2, 1_536_000, classes).expect("valid class ladder");
    let mut cm = ConnectionManager::new(vec![node; nodes.len()]);

    let req = SessionRequest::new(32_000, ATM_CELL_BITS);
    let mut ids = Vec::new();
    for i in 0..SESSIONS {
        let class = usize::from(i >= CLASS1); // first CLASS1 sessions → class 1
        let conn = cm
            .establish(0..nodes.len(), class, req, DRule::PerSessionMax)
            .expect("configuration chosen to pass all tests");
        // Voice-like bursts at 80 % duty: enough contention for the class
        // hierarchy to matter.
        let src = OnOffSource::new(OnOffConfig::paper_voice(Duration::from_ms(88)));
        let id = builder.add_session_with_hops(
            SessionSpec::atm(SessionId(0), 32_000),
            conn.hops(),
            Box::new(src),
        );
        ids.push((class, id));
    }

    let mut net = builder.build(&LitDiscipline::factory());
    net.run_until(Time::from_secs(120));

    let dref = Duration::from_bits_at_rate(ATM_CELL_BITS as u64, 32_000);
    let mut worst = [Duration::ZERO; 2];
    let mut sum_ms = [0.0f64; 2];
    let mut bounds = [Duration::ZERO; 2];
    for (class, id) in &ids {
        let st = net.session_stats(*id);
        let bound = PathBounds::for_session(&net, *id).delay_bound(dref);
        let max = st.max_delay().unwrap();
        worst[*class] = worst[*class].max(max);
        sum_ms[*class] += st.mean_delay().unwrap().as_millis_f64();
        bounds[*class] = bound;
        assert!(max < bound, "per-session guarantee violated");
    }

    println!("48 voice sessions, 3 T1 hops fully reserved, AC2 with two classes");
    println!();
    println!("class  sessions  worst max delay  avg mean delay   delay bound");
    println!("---------------------------------------------------------------");
    for c in 0..2 {
        let n = if c == 0 { CLASS1 } else { SESSIONS - CLASS1 };
        println!(
            "{:>5}  {:>8}  {:>12.3} ms  {:>11.3} ms  {:>9.3} ms",
            c + 1,
            n,
            worst[c].as_millis_f64(),
            sum_ms[c] / n as f64,
            bounds[c].as_millis_f64()
        );
    }
    println!();
    assert!(worst[0] < worst[1]);
    println!("same reservations, same traffic — delay shifted by admission class.");
}
