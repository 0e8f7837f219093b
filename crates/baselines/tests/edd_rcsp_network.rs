//! Network-level behaviour of the EDD and RCSP baselines.

#![forbid(unsafe_code)]

use lit_baselines::{EddAdmission, EddDiscipline, RcspDiscipline};
use lit_net::{DelayAssignment, LinkParams, NetworkBuilder, NodeId, SessionId, SessionSpec};
use lit_sim::{Duration, Time};
use lit_traffic::{BurstSource, OnOffConfig, OnOffSource, PoissonSource};

/// Build a 3-hop network with two tagged voice sessions (one per flag) and
/// Poisson load, under the given discipline factory.
fn run_tagged_pair(
    factory: &lit_net::DisciplineFactory<'_>,
    jc_flags: [bool; 2],
) -> [lit_net::SessionStats; 2] {
    let mut b = NetworkBuilder::new().seed(21);
    let nodes = b.tandem(3, LinkParams::paper_t1());
    let mut tagged = Vec::new();
    for &jc in &jc_flags {
        let mut spec = SessionSpec::atm(SessionId(0), 32_000);
        spec.jitter_control = jc;
        tagged.push(b.add_session(
            spec,
            &nodes,
            Box::new(OnOffSource::new(OnOffConfig::paper_voice(
                Duration::from_ms(650),
            ))),
        ));
    }
    for n in &nodes {
        b.add_session(
            SessionSpec::atm(SessionId(0), 1_400_000),
            &[*n],
            Box::new(PoissonSource::new(Duration::from_us(320), 424)),
        );
    }
    let mut net = b.build(factory);
    net.run_until(Time::from_secs(60));
    [
        net.session_stats(tagged[0]).clone(),
        net.session_stats(tagged[1]).clone(),
    ]
}

#[test]
fn jitter_edd_regulators_cut_jitter() {
    // Note: the jitter_control *spec flag* is irrelevant for EDD — the
    // regulator choice is the discipline variant itself — so the pair is
    // run once per discipline.
    let dedd = EddDiscipline::factory(false);
    let jedd = EddDiscipline::factory(true);
    let [plain, _] = run_tagged_pair(&dedd, [false, false]);
    let [smooth, _] = run_tagged_pair(&jedd, [false, false]);
    assert!(plain.delivered > 1000 && smooth.delivered > 1000);
    assert!(
        smooth.jitter().unwrap().as_ps() * 2 < plain.jitter().unwrap().as_ps(),
        "jitter-edd {} vs delay-edd {}",
        smooth.jitter().unwrap(),
        plain.jitter().unwrap()
    );
    // Regulators trade mean delay for smoothness.
    assert!(smooth.mean_delay().unwrap() > plain.mean_delay().unwrap());
}

#[test]
fn rcsp_priority_levels_order_delays() {
    // Two voice sessions on 3 hops, one mapped to the tight level and one
    // to the loose level; heavy shared Poisson load in between at the
    // middle level.
    let levels = vec![
        Duration::from_ms(2),
        Duration::from_ms(15),
        Duration::from_ms(80),
    ];
    let mut b = NetworkBuilder::new().seed(33);
    let nodes = b.tandem(3, LinkParams::paper_t1());
    let fast = b.add_session(
        SessionSpec::atm(SessionId(0), 32_000)
            .with_delay(DelayAssignment::Fixed(Duration::from_ms(2))),
        &nodes,
        Box::new(OnOffSource::new(OnOffConfig::paper_voice(
            Duration::from_ms(88),
        ))),
    );
    let slow = b.add_session(
        SessionSpec::atm(SessionId(0), 32_000)
            .with_delay(DelayAssignment::Fixed(Duration::from_ms(80))),
        &nodes,
        Box::new(OnOffSource::new(OnOffConfig::paper_voice(
            Duration::from_ms(88),
        ))),
    );
    for n in &nodes {
        b.add_session(
            SessionSpec::atm(SessionId(0), 1_400_000)
                .with_delay(DelayAssignment::Fixed(Duration::from_ms(15))),
            &[*n],
            Box::new(PoissonSource::new(Duration::from_us(300), 424)),
        );
    }
    let mut net = b.build(&RcspDiscipline::factory(levels));
    net.run_until(Time::from_secs(60));
    let f = net.session_stats(fast);
    let s = net.session_stats(slow);
    assert!(f.delivered > 1000 && s.delivered > 1000);
    assert!(
        f.max_delay().unwrap() < s.max_delay().unwrap(),
        "fast {} !< slow {}",
        f.max_delay().unwrap(),
        s.max_delay().unwrap()
    );
    assert!(f.mean_delay().unwrap() < s.mean_delay().unwrap());
}

#[test]
fn rcsp_rate_control_tames_a_misbehaver() {
    // A misbehaving burster shares the top priority level with a polite
    // session. RCSP's rate controller spaces the burster's eligibility at
    // its declared x_min, so the victim barely notices.
    let levels = vec![Duration::from_ms(10), Duration::from_ms(100)];
    let mut b = NetworkBuilder::new().seed(4);
    let nodes = b.tandem(1, LinkParams::paper_t1());
    let victim = b.add_session(
        SessionSpec::atm(SessionId(0), 32_000)
            .with_delay(DelayAssignment::Fixed(Duration::from_ms(10))),
        &nodes,
        Box::new(OnOffSource::new(OnOffConfig::paper_voice(Duration::ZERO))),
    );
    b.add_session(
        SessionSpec::atm(SessionId(0), 32_000)
            .with_delay(DelayAssignment::Fixed(Duration::from_ms(10))),
        &nodes,
        Box::new(BurstSource::new(Duration::from_ms(50), 100, 424)),
    );
    let mut net = b.build(&RcspDiscipline::factory(levels));
    net.run_until(Time::from_secs(30));
    let st = net.session_stats(victim);
    assert!(
        st.max_delay().unwrap() < Duration::from_ms(5),
        "victim max {}",
        st.max_delay().unwrap()
    );
}

#[test]
fn admitted_edd_sessions_meet_their_deadlines() {
    // Admit a mix of local delay bounds through the schedulability test,
    // then run exactly that set: no packet may finish past its deadline
    // (NodeStats.max_lateness ≤ 0).
    let mut adm = EddAdmission::new(1_536_000);
    let mut accepted = Vec::new();
    for (rate, d_ms) in [(64_000u64, 2u64), (128_000, 3), (256_000, 5), (256_000, 8)] {
        let x_min = Duration::from_bits_at_rate(424, rate);
        if adm.try_admit(x_min, 424, Duration::from_ms(d_ms)).is_ok() {
            accepted.push((rate, d_ms));
        }
    }
    assert!(
        accepted.len() >= 3,
        "admission too conservative: {accepted:?}"
    );

    let mut b = NetworkBuilder::new().seed(77);
    let nodes = b.tandem(1, LinkParams::paper_t1());
    for &(rate, d_ms) in &accepted {
        // Offer exactly the declared peak: CBR at x_min spacing.
        let x_min = Duration::from_bits_at_rate(424, rate);
        b.add_session(
            SessionSpec::atm(SessionId(0), rate)
                .with_delay(DelayAssignment::Fixed(Duration::from_ms(d_ms))),
            &nodes,
            Box::new(lit_traffic::DeterministicSource::new(x_min, 424)),
        );
    }
    let mut net = b.build(&EddDiscipline::factory(false));
    net.run_until(Time::from_secs(30));
    let lateness = net.node_stats(NodeId(0)).max_lateness().unwrap();
    assert!(lateness <= 0, "a deadline was missed by {lateness} ps");
}

#[test]
fn unadmitted_overload_misses_edd_deadlines() {
    // The complement: skip admission, overload the link with tight
    // deadlines, and watch EDF miss them — the saturation the paper says
    // the schedulability test exists to prevent.
    let mut b = NetworkBuilder::new().seed(78);
    let nodes = b.tandem(1, LinkParams::paper_t1());
    for _ in 0..12 {
        b.add_session(
            SessionSpec::atm(SessionId(0), 128_000)
                .with_delay(DelayAssignment::Fixed(Duration::from_us(500))),
            &nodes,
            Box::new(PoissonSource::new(Duration::from_us(3_000), 424)),
        );
    }
    let mut net = b.build(&EddDiscipline::factory(false));
    net.run_until(Time::from_secs(10));
    let lateness = net.node_stats(NodeId(0)).max_lateness().unwrap();
    assert!(lateness > 0, "expected missed deadlines, got {lateness} ps");
}
