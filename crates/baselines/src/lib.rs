//! # lit-baselines — the service disciplines the paper compares against
//!
//! Independent implementations of the schedulers discussed in §4 of the
//! Leave-in-Time paper, all plugging into the same `lit-net`
//! [`lit_net::Discipline`] interface:
//!
//! * [`FcfsDiscipline`] — first-come-first-served (no isolation at all);
//! * [`VirtualClockDiscipline`] — L. Zhang's VirtualClock (eq. 2), the
//!   discipline Leave-in-Time reduces to with one class and `d = L/r`;
//! * [`WfqDiscipline`] — Weighted Fair Queueing with Parekh's GPS virtual
//!   time (the PGPS comparison point);
//! * [`ScfqDiscipline`] — Golestani's Self-Clocked Fair Queueing;
//! * [`StopAndGoDiscipline`] — framing-based, non-work-conserving
//!   Stop-and-Go;
//! * [`EddDiscipline`] — Delay-EDD and Jitter-EDD with the `(x_min, d)`
//!   schedulability test ([`EddAdmission`]);
//! * [`RcspDiscipline`] — Rate-Controlled Static-Priority queueing with
//!   per-level worst-case-demand admission ([`RcspAdmission`]).
//!
//! * [`HrrDiscipline`] — single-level Hierarchical Round Robin (framed
//!   slot quotas; "the same upper bound on delay as Stop-and-Go" but no
//!   delay floor guarantee).
//!
//! The integration test suite uses these to verify, by simulation, the
//! paper's equivalence and comparison claims.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod edd;
mod fcfs;
mod hrr;
mod rcsp;
mod scfq;
mod stop_and_go;
mod virtual_clock;
mod wfq;

pub use edd::{EddAdmission, EddDiscipline, EddError};
pub use fcfs::FcfsDiscipline;
pub use hrr::HrrDiscipline;
pub use rcsp::{RcspAdmission, RcspDiscipline, RcspError};
pub use scfq::ScfqDiscipline;
pub use stop_and_go::StopAndGoDiscipline;
pub use virtual_clock::VirtualClockDiscipline;
pub use wfq::WfqDiscipline;

#[cfg(test)]
mod tests {
    use super::*;
    use lit_core::LitDiscipline;
    use lit_net::{DelayAssignment, LinkParams, NetworkBuilder, SessionId, SessionSpec};
    use lit_sim::{Duration, Time};
    use lit_traffic::{BurstSource, OnOffConfig, OnOffSource, PoissonSource};

    /// Build the same 3-hop, 12-session ON-OFF network under a given
    /// discipline factory and return per-session (delivered, max, jitter).
    fn run_mix(
        factory: &lit_net::DisciplineFactory<'_>,
        seed: u64,
    ) -> Vec<(u64, Duration, Duration)> {
        let mut b = NetworkBuilder::new().seed(seed);
        let nodes = b.tandem(3, LinkParams::paper_t1());
        let mut sids = Vec::new();
        for i in 0..12 {
            let cfg = OnOffConfig::paper_voice(Duration::from_ms(88))
                .with_offset(Duration::from_us(i * 731));
            sids.push(b.add_session(
                SessionSpec::atm(SessionId(0), 32_000),
                &nodes,
                Box::new(OnOffSource::new(cfg)),
            ));
        }
        // Heterogeneous-rate Poisson sessions: their reference clocks run
        // ahead of arrivals during bursts, so deadline order genuinely
        // differs from arrival order.
        for _ in 0..2 {
            sids.push(b.add_session(
                SessionSpec::atm(SessionId(0), 400_000),
                &nodes,
                Box::new(PoissonSource::new(Duration::from_us(1_200), 424)),
            ));
        }
        let mut net = b.build(factory);
        net.run_until(Time::from_secs(60));
        sids.iter()
            .map(|&s| {
                let st = net.session_stats(s);
                (st.delivered, st.max_delay().unwrap(), st.jitter().unwrap())
            })
            .collect()
    }

    #[test]
    fn virtualclock_equals_lit_special_case() {
        // The paper: Leave-in-Time with admission control procedure 1,
        // one class, d = L/r, no jitter control *is* VirtualClock. Same
        // seed ⇒ identical arrivals ⇒ the two disciplines must produce
        // identical delivery statistics.
        let lit = run_mix(&|l: &LinkParams| Box::new(LitDiscipline::new(*l)), 11);
        let vc = run_mix(
            &|_: &LinkParams| Box::new(VirtualClockDiscipline::new()),
            11,
        );
        assert_eq!(lit, vc);
    }

    #[test]
    fn fcfs_differs_from_deadline_scheduling_under_load() {
        let fcfs = run_mix(&|_: &LinkParams| Box::new(FcfsDiscipline::new()), 11);
        let vc = run_mix(
            &|_: &LinkParams| Box::new(VirtualClockDiscipline::new()),
            11,
        );
        // Same arrivals, but at ~74 % load the schedules diverge.
        assert_ne!(fcfs, vc);
    }

    #[test]
    fn firewall_lit_isolates_where_fcfs_does_not() {
        // One well-behaved CBR-ish session shares a link with a hugely
        // misbehaving burster that reserved only 32 kbit/s. Under FCFS the
        // victim's max delay explodes; under Leave-in-Time it stays near
        // its isolated value.
        let run = |factory: &lit_net::DisciplineFactory<'_>| {
            let mut b = NetworkBuilder::new().seed(5);
            let nodes = b.tandem(1, LinkParams::paper_t1());
            let victim = b.add_session(
                SessionSpec::atm(SessionId(0), 32_000),
                &nodes,
                Box::new(OnOffSource::new(OnOffConfig::paper_voice(Duration::ZERO))),
            );
            // Misbehaving: 100 packets dumped every 50 ms ≈ 848 kbit/s
            // offered on a 32 kbit/s reservation.
            b.add_session(
                SessionSpec::atm(SessionId(0), 32_000),
                &nodes,
                Box::new(BurstSource::new(Duration::from_ms(50), 100, 424)),
            );
            let mut net = b.build(factory);
            net.run_until(Time::from_secs(30));
            net.session_stats(victim).max_delay().unwrap()
        };
        let under_fcfs = run(&|_: &LinkParams| Box::new(FcfsDiscipline::new()));
        let under_lit = run(&|l: &LinkParams| Box::new(LitDiscipline::new(*l)));
        // FCFS: the victim waits behind ~100-packet bursts (> 20 ms).
        assert!(
            under_fcfs > Duration::from_ms(20),
            "fcfs victim max delay {under_fcfs}"
        );
        // LiT: the bound b0/r + β + α = 13.25 + 0.276 + 1 ms (1 hop)
        // holds regardless of the burster.
        assert!(
            under_lit < Duration::from_ms(16),
            "lit victim max delay {under_lit}"
        );
        assert!(under_fcfs.as_ps() > 2 * under_lit.as_ps());
    }

    #[test]
    fn wfq_and_lit_bound_token_bucket_sessions_alike() {
        // The paper: for token-bucket sessions the LiT(1-class) bound
        // equals the PGPS bound. Empirically both disciplines must keep a
        // conforming session below that common bound.
        let bound = {
            use lit_core::{HopSpec, PathBounds};
            let hop = HopSpec {
                link: LinkParams::paper_t1(),
                assignment: DelayAssignment::LenOverRate,
            };
            PathBounds::new(32_000, 424, 424, vec![hop; 3]).delay_bound_token_bucket(424)
        };
        let lit_factory =
            |l: &LinkParams| Box::new(LitDiscipline::new(*l)) as Box<dyn lit_net::Discipline>;
        let wfq_factory = WfqDiscipline::factory();
        let factories: [&lit_net::DisciplineFactory<'_>; 2] = [&lit_factory, &wfq_factory];
        for factory in factories {
            let mut b = NetworkBuilder::new().seed(9);
            let nodes = b.tandem(3, LinkParams::paper_t1());
            let tagged = b.add_session(
                SessionSpec::atm(SessionId(0), 32_000),
                &nodes,
                Box::new(OnOffSource::new(OnOffConfig::paper_voice(
                    Duration::from_ms(650),
                ))),
            );
            // Poisson cross traffic filling most of each link.
            for n in &nodes {
                b.add_session(
                    SessionSpec::atm(SessionId(0), 1_472_000),
                    &[*n],
                    Box::new(PoissonSource::new(Duration::from_ns(288_040), 424)),
                );
            }
            let mut net = b.build(factory);
            net.run_until(Time::from_secs(60));
            let got = net.session_stats(tagged).max_delay().unwrap();
            assert!(got < bound, "max {got} vs bound {bound}");
        }
    }

    #[test]
    fn stop_and_go_delay_within_frame_bounds() {
        // A (r, T)-smooth session under Stop-and-Go over H hops must see
        // delay within [HT − T, 2HT + T] plus transmission/propagation
        // slack, and jitter ≤ 2T plus the same slack variation.
        let frame = Duration::from_us(13_250); // T chosen so r·T = one cell
        let mut b = NetworkBuilder::new().seed(2);
        let nodes = b.tandem(3, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(OnOffSource::new(OnOffConfig::paper_voice(
                Duration::from_ms(650),
            ))),
        );
        let mut net = b.build(&StopAndGoDiscipline::factory(frame));
        net.run_until(Time::from_secs(120));
        let st = net.session_stats(sid);
        let h = 3u64;
        let slack = (LinkParams::paper_t1().lmax_time() + Duration::from_ms(1)) * h;
        let max = st.max_delay().unwrap();
        let min = st.e2e.min().unwrap();
        assert!(max <= frame * (2 * h + 1) + slack, "max={max}");
        assert!(min >= frame * (h - 1), "min={min}");
        assert!(
            st.jitter().unwrap() <= frame * 2 + slack,
            "jitter={}",
            st.jitter().unwrap()
        );
    }

    #[test]
    fn scfq_shares_capacity_fairly_under_backlog() {
        // Two sessions with 3:1 reservations, both persistently sending
        // more than reserved: throughput must split ≈ 3:1.
        let mut b = NetworkBuilder::new().seed(4);
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let heavy = b.add_session(
            SessionSpec::atm(SessionId(0), 1_152_000),
            &nodes,
            Box::new(PoissonSource::new(Duration::from_us(200), 424)),
        );
        let light = b.add_session(
            SessionSpec::atm(SessionId(0), 384_000),
            &nodes,
            Box::new(PoissonSource::new(Duration::from_us(200), 424)),
        );
        let mut net = b.build(&ScfqDiscipline::factory());
        net.run_until(Time::from_secs(30));
        let h = net.session_stats(heavy).delivered as f64;
        let l = net.session_stats(light).delivered as f64;
        let ratio = h / l;
        assert!((ratio - 3.0).abs() < 0.1, "ratio={ratio}");
    }

    #[test]
    fn every_session_table_discipline_rejects_an_unregistered_packet_alike() {
        let link = LinkParams::paper_t1();
        let disciplines: [Box<dyn lit_net::Discipline>; 7] = [
            Box::new(LitDiscipline::new(link)),
            Box::new(VirtualClockDiscipline::new()),
            Box::new(WfqDiscipline::new(link)),
            Box::new(ScfqDiscipline::new()),
            Box::new(EddDiscipline::jitter_edd()),
            Box::new(RcspDiscipline::new(vec![Duration::from_ms(5)])),
            Box::new(HrrDiscipline::new(link, 48)),
        ];
        for mut d in disciplines {
            d.register_session(
                &SessionSpec::atm(SessionId(0), 32_000),
                &DelayAssignment::LenOverRate,
            );
            let mut pkt = lit_net::Packet::new(SessionId(1), 1, 424, Time::ZERO);
            let run = std::panic::AssertUnwindSafe(|| d.on_arrival(&mut pkt, Time::ZERO));
            let payload = std::panic::catch_unwind(run).expect_err(d.name());
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(
                msg,
                Some("packet from unregistered session"),
                "{}",
                d.name()
            );
        }
    }
}
