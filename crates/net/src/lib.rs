//! # lit-net — packet-switching network substrate
//!
//! The simulated network the paper's evaluation runs on: server nodes with
//! one outgoing link each, fixed routes, connection-oriented sessions, and
//! a pluggable per-node [`Discipline`] (Leave-in-Time lives in `lit-core`;
//! FCFS, VirtualClock, WFQ, SCFQ and Stop-and-Go in `lit-baselines`).
//!
//! ```
//! use lit_net::{LinkParams, NetworkBuilder, SessionSpec, SessionId};
//! # use lit_net::{Discipline, DelayAssignment, Packet, ScheduleDecision};
//! # use lit_sim::Time;
//! # struct Fifo;
//! # impl Discipline for Fifo {
//! #     fn name(&self) -> &'static str { "fifo" }
//! #     fn register_session(&mut self, _: &SessionSpec, _: &DelayAssignment) {}
//! #     fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
//! #         pkt.deadline = now;
//! #         ScheduleDecision::at(now, now)
//! #     }
//! #     fn on_departure(&mut self, _: &mut Packet, _: Time) {}
//! # }
//! use lit_traffic::DeterministicSource;
//!
//! let mut b = NetworkBuilder::new().seed(1);
//! let nodes = b.tandem(5, LinkParams::paper_t1());
//! let sid = b.add_session(
//!     SessionSpec::atm(SessionId(0), 32_000),
//!     &nodes,
//!     Box::new(DeterministicSource::paper_cbr()),
//! );
//! let mut net = b.build(&|_link| Box::new(Fifo));
//! net.run_until(Time::from_secs(10));
//! assert!(net.session_stats(sid).delivered > 700);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arena;
mod discipline;
mod equeue;
mod network;
mod node;
pub mod oracle;
mod packet;
mod refserver;
pub mod shard;
mod spec;
mod stats;
mod table;

pub use arena::{PacketArena, PacketRef};
pub use discipline::{Discipline, DisciplineFactory, RegulatorBackend, ScheduleDecision};
pub use equeue::QueueKind;
pub use lit_obs::{NoopProbe, ObsProbe, PacketView, Probe};
pub use lit_sim::EventBackend;
pub use network::{EventSetStats, Network, NetworkBuilder};
pub use oracle::{OracleConfig, OracleMode, OracleTotals, SessionBounds, ViolationKind};
pub use packet::{NodeId, Packet, SessionId};
pub use refserver::{RefOutcome, ReferenceServer};
pub use spec::{DelayAssignment, DelayCoeffs, LinkParams, SessionSpec};
pub use stats::{
    DeliveryLog, DeliveryRecord, NodeStats, OccupancyHistogram, SessionStats, StatsConfig,
};
pub use table::SessionTable;

#[cfg(test)]
mod tests {
    use super::*;
    use lit_sim::{Duration, Time};
    use lit_traffic::{DeterministicSource, PoissonSource, TraceSource};

    /// Plain FCFS used to exercise the executor machinery.
    struct Fifo {
        /// Optional fixed regulator hold, to exercise the eligibility path.
        hold: Duration,
        /// Deadline slack past eligibility. `fifo_factory` uses zero, which
        /// leaves every finish exactly at the lateness allowance; oracle
        /// tests pick nonzero slack to place packets on either side of it.
        slack: Duration,
    }

    impl Discipline for Fifo {
        fn name(&self) -> &'static str {
            "test-fifo"
        }
        fn register_session(&mut self, _: &SessionSpec, _: &DelayAssignment) {}
        fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
            let eligible = now + self.hold;
            pkt.deadline = eligible + self.slack;
            ScheduleDecision::at(eligible, eligible)
        }
        fn on_departure(&mut self, _: &mut Packet, _: Time) {}
    }

    fn fifo_factory(hold: Duration) -> impl Fn(&LinkParams) -> Box<dyn Discipline> {
        slack_fifo_factory(hold, Duration::ZERO)
    }

    fn slack_fifo_factory(
        hold: Duration,
        slack: Duration,
    ) -> impl Fn(&LinkParams) -> Box<dyn Discipline> {
        move |_: &LinkParams| Box::new(Fifo { hold, slack }) as Box<dyn Discipline>
    }

    #[test]
    fn lone_cbr_session_sees_pure_service_delay() {
        // One 32 kbit/s CBR session alone on 5 T1 hops: every packet finds
        // idle links, so its delay is exactly 5·(L/C + Γ).
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(5, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(30));

        let st = net.session_stats(sid);
        assert!(st.delivered > 2000, "delivered={}", st.delivered);
        let per_hop = LinkParams::paper_t1().lmax_time() + Duration::from_ms(1);
        let want = per_hop * 5;
        assert_eq!(st.max_delay(), Some(want));
        assert_eq!(st.e2e.min(), Some(want));
        assert_eq!(st.jitter(), Some(Duration::ZERO));
    }

    #[test]
    fn conservation_no_packet_lost_or_duplicated() {
        let mut b = NetworkBuilder::new().seed(7);
        let nodes = b.tandem(3, LinkParams::paper_t1());
        let mut sids = Vec::new();
        for _ in 0..10 {
            sids.push(b.add_session(
                SessionSpec::atm(SessionId(0), 100_000),
                &nodes,
                Box::new(PoissonSource::new(Duration::from_ms(8), 424)),
            ));
        }
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(20));
        for &sid in &sids {
            let st = net.session_stats(sid);
            assert!(st.injected > 0);
            assert!(st.delivered <= st.injected);
            // Light load: nearly everything injected should have drained.
            assert!(st.injected - st.delivered < 5);
        }
    }

    #[test]
    fn regulator_hold_shifts_delay() {
        let mk = |hold_ms: u64| {
            let mut b = NetworkBuilder::new();
            let nodes = b.tandem(1, LinkParams::paper_t1());
            let sid = b.add_session(
                SessionSpec::atm(SessionId(0), 32_000),
                &nodes,
                Box::new(DeterministicSource::paper_cbr()),
            );
            let mut net = b.build(&fifo_factory(Duration::from_ms(hold_ms)));
            net.run_until(Time::from_secs(5));
            net.session_stats(sid).max_delay().unwrap()
        };
        assert_eq!(mk(3) - mk(0), Duration::from_ms(3));
    }

    #[test]
    fn fifo_order_among_equal_keys() {
        // Two packets arriving at the same instant must depart in arrival
        // (push) order.
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let a = b.add_session(
            SessionSpec::atm(SessionId(0), 100_000),
            &nodes,
            Box::new(TraceSource::from_pairs([(Time::from_ms(1), 424)])),
        );
        let bsid = b.add_session(
            SessionSpec::atm(SessionId(0), 100_000),
            &nodes,
            Box::new(TraceSource::from_pairs([(Time::from_ms(1), 424)])),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(1));
        let tx = LinkParams::paper_t1().lmax_time();
        let prop = Duration::from_ms(1);
        // Session a (injected first at the same instant) transmits first.
        assert_eq!(net.session_stats(a).max_delay(), Some(tx + prop));
        assert_eq!(net.session_stats(bsid).max_delay(), Some(tx + tx + prop));
    }

    #[test]
    fn buffer_occupancy_counts_packet_in_transmission() {
        // Two same-instant packets of one session: the second sample sees
        // both packets (848 bits) queued, per the paper's counting rule.
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 100_000),
            &nodes,
            Box::new(TraceSource::from_pairs([
                (Time::from_ms(1), 424),
                (Time::from_ms(1), 424),
            ])),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(1));
        let st = net.session_stats(sid);
        assert_eq!(st.buffer[0].max_bits(), 848);
        assert_eq!(st.buffer[0].count(), 2);
    }

    #[test]
    fn reference_server_cosim_matches_eq1_by_hand() {
        // Arrivals at 0 ms and 1 ms, L = 424, r = 424 kbit/s ⇒ service
        // exactly 1 ms. W1 = 0+1 = 1 ms (delay 1 ms); W2 = max(1,1)+1 =
        // 2 ms (delay 1 ms).
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 424_000),
            &nodes,
            Box::new(TraceSource::from_pairs([
                (Time::ZERO, 424),
                (Time::from_ms(1), 424),
            ])),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(1));
        let st = net.session_stats(sid);
        assert_eq!(st.reference.max(), Some(Duration::from_ms(1)));
        assert_eq!(st.reference.min(), Some(Duration::from_ms(1)));
        assert_eq!(st.reference.count(), 2);
    }

    #[test]
    fn utilization_reflects_offered_load() {
        let mut b = NetworkBuilder::new().seed(3);
        let nodes = b.tandem(1, LinkParams::paper_t1());
        // 24 CBR sessions at 32 kbit/s = half a T1.
        for i in 0..24u64 {
            b.add_session(
                SessionSpec::atm(SessionId(0), 32_000),
                &nodes,
                Box::new(DeterministicSource::paper_cbr().with_offset(Duration::from_us(i * 137))),
            );
        }
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        let horizon = Time::from_secs(60);
        net.run_until(horizon);
        let u = net.node_stats(nodes[0]).utilization_at(horizon);
        assert!((u - 0.5).abs() < 0.01, "utilization={u}");
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = |seed: u64| {
            let mut b = NetworkBuilder::new().seed(seed);
            let nodes = b.tandem(3, LinkParams::paper_t1());
            let mut sids = Vec::new();
            for _ in 0..8 {
                sids.push(b.add_session(
                    SessionSpec::atm(SessionId(0), 150_000),
                    &nodes,
                    Box::new(PoissonSource::new(Duration::from_ms(4), 424)),
                ));
            }
            let mut net = b.build(&fifo_factory(Duration::ZERO));
            net.run_until(Time::from_secs(10));
            sids.iter()
                .map(|&s| {
                    let st = net.session_stats(s);
                    (st.delivered, st.max_delay(), st.jitter())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn delivery_log_keeps_the_last_n_records() {
        let cfg = StatsConfig {
            delivery_log_cap: 3,
            ..Default::default()
        };
        let mut b = NetworkBuilder::new().stats(cfg);
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(1));
        let st = net.session_stats(sid);
        assert!(st.delivered > 60);
        assert_eq!(st.deliveries.len(), 3, "ring capped");
        // The records are the *last* three deliveries, in order.
        let seqs: Vec<u64> = st.deliveries.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![st.delivered - 2, st.delivered - 1, st.delivered]);
        for r in &st.deliveries {
            assert_eq!(r.delay(), st.max_delay().unwrap()); // lone CBR: constant delay
            assert!(r.excess_ps() < 0); // delay < ref delay here (fast link)
        }
        // Off by default: no records without opting in.
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(1));
        assert!(net.session_stats(sid).deliveries.is_empty());
    }

    #[test]
    fn incremental_horizons_equal_one_shot() {
        // run_until(10) then run_until(20) must equal run_until(20): the
        // executor's state carries over exactly.
        let build = || {
            let mut b = NetworkBuilder::new().seed(8);
            let nodes = b.tandem(3, LinkParams::paper_t1());
            let mut sids = Vec::new();
            for _ in 0..6 {
                sids.push(b.add_session(
                    SessionSpec::atm(SessionId(0), 200_000),
                    &nodes,
                    Box::new(PoissonSource::new(Duration::from_ms(3), 424)),
                ));
            }
            (b.build(&fifo_factory(Duration::ZERO)), sids)
        };
        let (mut a, sids) = build();
        a.run_until(Time::from_secs(10));
        a.run_until(Time::from_secs(20));
        let (mut b, _) = build();
        b.run_until(Time::from_secs(20));
        for &sid in &sids {
            let (x, y) = (a.session_stats(sid), b.session_stats(sid));
            assert_eq!(x.delivered, y.delivered);
            assert_eq!(x.max_delay(), y.max_delay());
            assert_eq!(x.jitter(), y.jitter());
        }
    }

    /// FCFS whose regulator hold depends on the session — `base` times
    /// the session id modulo `cycle` — so that eligibility instants at a
    /// node are *not* in arrival order, and some packets are not held.
    struct Staggered {
        base: Duration,
        cycle: u32,
    }

    impl Discipline for Staggered {
        fn name(&self) -> &'static str {
            "test-staggered"
        }
        fn register_session(&mut self, _: &SessionSpec, _: &DelayAssignment) {}
        fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
            let eligible = now + self.base * u64::from(pkt.session.0 % self.cycle);
            pkt.deadline = eligible;
            ScheduleDecision::at(eligible, eligible)
        }
        fn on_departure(&mut self, _: &mut Packet, _: Time) {}
    }

    fn staggered_factory(
        base: Duration,
        cycle: u32,
    ) -> impl Fn(&LinkParams) -> Box<dyn Discipline> {
        move |_: &LinkParams| Box::new(Staggered { base, cycle }) as Box<dyn Discipline>
    }

    /// A source that lies about being periodic: it reports `gap` as its
    /// period and emits at `k·gap` plus up to a whole gap of jitter.
    struct Liar {
        gap: Duration,
        next: Time,
    }

    impl lit_traffic::Source for Liar {
        fn next_emission(&mut self, rng: &mut lit_sim::SimRng) -> Option<lit_traffic::Emission> {
            self.next += self.gap;
            let jitter = Duration::from_ps(rng.below(self.gap.as_ps()));
            Some(lit_traffic::Emission {
                at: self.next + jitter,
                len_bits: 424,
            })
        }
        fn period(&self) -> Option<Duration> {
            Some(self.gap)
        }
    }

    /// Everything a run shows of itself: the event count, and per session
    /// the counts, the delay extremes and the delivery log.
    fn outcome(net: &Network) -> impl PartialEq + std::fmt::Debug {
        let sessions: Vec<_> = (0..net.num_sessions() as u32)
            .map(|i| {
                let st = net.session_stats(SessionId(i));
                let log: Vec<DeliveryRecord> = st.deliveries.iter().cloned().collect();
                let delays = (st.e2e.min(), st.max_delay(), st.jitter());
                (st.injected, st.delivered, delays, st.max_excess(), log)
            })
            .collect();
        (net.event_count(), sessions)
    }

    /// The event-set engine is a pure performance knob: every backend
    /// pops the identical `(time, seq)` sequence — the heap with its
    /// sorted-run lanes, the calendar and the wheel without any — so a
    /// whole run (regulator holds, contention, RNG draws and all) is
    /// equal down to the delivery logs and the event count. `add`
    /// populates the builder and says how long to run; returns what the
    /// heap's lanes did.
    fn assert_matches_heap(
        other: EventBackend,
        factory: &DisciplineFactory<'_>,
        add: impl Fn(&mut NetworkBuilder) -> Time,
    ) -> EventSetStats {
        let run = |backend: EventBackend| {
            let cfg = StatsConfig {
                delivery_log_cap: 32,
                ..Default::default()
            };
            let mut b = NetworkBuilder::new()
                .seed(21)
                .stats(cfg)
                .event_backend(backend);
            let until = add(&mut b);
            let mut net = b.build(factory);
            net.run_until(until);
            net
        };
        let (heap, reference) = (run(EventBackend::Heap), run(other));
        assert_eq!(outcome(&heap), outcome(&reference), "heap vs {other:?}");
        let laneless = reference.event_set_stats();
        assert_eq!((laneless.lane_appended, laneless.lane_fell_back), (0, 0));
        heap.event_set_stats()
    }

    /// Eight Poisson sessions over three hops, every packet held 30 µs:
    /// no source is periodic, the release lanes carry every hold.
    fn poisson_tandem(b: &mut NetworkBuilder) -> Time {
        let nodes = b.tandem(3, LinkParams::paper_t1());
        for _ in 0..8 {
            b.add_session(
                SessionSpec::atm(SessionId(0), 150_000),
                &nodes,
                Box::new(PoissonSource::new(Duration::from_ms(4), 424)),
            );
        }
        Time::from_secs(10)
    }

    /// 2 000 phase-*aligned* CBR sessions of two periods over two hops,
    /// every second one jitter-controlled, plus one of a third period
    /// nobody shares; run with the odd sessions held one cell time and
    /// the even ones not at all. Cells reach node 1 one cell time apart,
    /// so an odd session's release (a lane head) falls on the very
    /// picosecond the next even session's cell arrives and is eligible
    /// at once (a heap event) with the same FCFS key: which of the two
    /// transmits first is decided by push order alone. The periods are
    /// 4 000 and 5 000 cell times, so injections (lane heads) also fall
    /// on `TxDone`s of the burst before.
    fn aligned_cbr(b: &mut NetworkBuilder) -> Time {
        let cell = LinkParams::paper_t1().lmax_time();
        let nodes = b.tandem(2, LinkParams::paper_t1());
        for i in 0..2_000u64 {
            let mut spec = SessionSpec::atm(SessionId(0), 300);
            spec.jitter_control = i % 2 == 1;
            let gap = cell * (4_000 + 1_000 * (i / 2 % 2));
            b.add_session(spec, &nodes, Box::new(DeterministicSource::new(gap, 424)));
        }
        let lone = DeterministicSource::new(cell * 4_500, 424);
        b.add_session(SessionSpec::atm(SessionId(0), 300), &nodes, Box::new(lone));
        Time::ZERO + cell * 13_000
    }

    /// Forty sources that claim one period and jitter every emission.
    fn lying_sources(b: &mut NetworkBuilder) -> Time {
        let nodes = b.tandem(2, LinkParams::paper_t1());
        for _ in 0..40 {
            let source = Liar {
                gap: Duration::from_ms(20),
                next: Time::ZERO,
            };
            b.add_session(
                SessionSpec::atm(SessionId(0), 30_000),
                &nodes,
                Box::new(source),
            );
        }
        Time::from_secs(4)
    }

    /// Nodes 0 and 1 both feed node 2; staggered CBR phases.
    fn fan_in(b: &mut NetworkBuilder) -> Time {
        let nodes = b.tandem(3, LinkParams::paper_t1());
        for i in 0..30u64 {
            let route = [nodes[(i % 2) as usize], nodes[2]];
            let source = DeterministicSource::new(Duration::from_ms(10), 424)
                .with_offset(Duration::from_us(i * 331));
            b.add_session(
                SessionSpec::atm(SessionId(0), 42_400),
                &route,
                Box::new(source),
            );
        }
        Time::from_secs(2)
    }

    fn event_backend_matches_heap(other: EventBackend) {
        let hold = fifo_factory(Duration::from_us(30));
        let seen = assert_matches_heap(other, &hold, poisson_tandem);
        assert!(
            seen.lane_appended > 0 && seen.lane_fell_back == 0,
            "{seen:?}"
        );

        let alternate = staggered_factory(LinkParams::paper_t1().lmax_time(), 2);
        let seen = assert_matches_heap(other, &alternate, aligned_cbr);
        assert_eq!(seen.lane_fell_back, 0, "{seen:?}");
        // Only the lone session's injections and the packets on the wire
        // ever sat in the heap.
        assert!(seen.heap_high_water <= 8, "{seen:?}");

        // A lying period hint and out-of-order releases cost fallbacks,
        // never order.
        let seen = assert_matches_heap(other, &hold, lying_sources);
        assert!(seen.lane_fell_back > 0, "{seen:?}");
        let staggered = staggered_factory(Duration::from_us(400), 3);
        let seen = assert_matches_heap(other, &staggered, fan_in);
        assert!(seen.lane_fell_back > 0, "{seen:?}");
    }

    #[test]
    fn calendar_event_backend_matches_heap() {
        event_backend_matches_heap(EventBackend::Calendar);
    }

    #[test]
    fn wheel_event_backend_matches_heap() {
        event_backend_matches_heap(EventBackend::Wheel);
    }

    #[test]
    fn build_opens_a_lane_only_for_a_period_two_sources_share() {
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let cbr = |ms| DeterministicSource::new(Duration::from_ms(ms), 424);
        let spec = SessionSpec::atm(SessionId(0), 100_000);
        b.add_session(spec, &nodes, Box::new(cbr(10)));
        b.add_session(spec, &nodes, Box::new(cbr(15))); // nobody else's period
        let shifted = cbr(10).with_offset(Duration::from_ms(3));
        b.add_session(spec, &nodes, Box::new(shifted));
        let poisson = PoissonSource::new(Duration::from_ms(8), 424);
        b.add_session(spec, &nodes, Box::new(poisson));
        let net = b.build(&fifo_factory(Duration::ZERO));
        // First injections: two through the 10 ms lane, two on the heap.
        let seen = net.event_set_stats();
        assert_eq!((seen.lane_appended, seen.heap_high_water), (2, 2));
        assert_eq!(net.event_count(), 4);
    }

    #[test]
    fn cbr_sessions_leave_the_heap_to_packets_in_flight() {
        // A 10 000-session copy of `lit-bench`'s `sessions_100k` builder,
        // every packet held 30 µs at each hop.
        const N: u64 = 10_000;
        let link = LinkParams::paper_t1();
        let mut b = NetworkBuilder::new().stats(StatsConfig::compact());
        let nodes = b.tandem(2, link);
        let rate = link.rate_bps * 8 / 10 / N;
        let gap = Duration::from_bits_at_rate(424, rate);
        for i in 0..N {
            let mut spec = SessionSpec::atm(SessionId(0), rate);
            spec.jitter_control = i % 2 == 1;
            let offset = gap * i / N + Duration::from_ns(37);
            let source = DeterministicSource::new(gap, 424).with_offset(offset);
            b.add_session(spec, &nodes, Box::new(source));
        }
        let mut net = b.build(&fifo_factory(Duration::from_us(30)));
        net.run_until(Time::ZERO + gap * 4);
        let seen = net.event_set_stats();
        assert!(seen.heap_high_water <= 8, "{seen:?}");
        assert_eq!(seen.lane_fell_back, 0, "{seen:?}");
        // Per packet: its source's next injection and a release per hop.
        let injected = net.session_stats(SessionId(0)).injected * N;
        assert!(seen.lane_appended >= injected * 3, "{seen:?}");
    }

    #[test]
    fn tiny_bucket_queue_equals_exact() {
        // A 1-ps bucket quantizes nothing: the bucketed queue must behave
        // identically to the exact heap (both are FIFO among equal keys).
        let run = |kind: QueueKind| {
            let mut b = NetworkBuilder::new().seed(13).queue_kind(kind);
            let nodes = b.tandem(2, LinkParams::paper_t1());
            let mut sids = Vec::new();
            for _ in 0..5 {
                sids.push(b.add_session(
                    SessionSpec::atm(SessionId(0), 280_000),
                    &nodes,
                    Box::new(PoissonSource::new(Duration::from_us(1_800), 424)),
                ));
            }
            let mut net = b.build(&fifo_factory(Duration::ZERO));
            net.run_until(Time::from_secs(20));
            sids.iter()
                .map(|&s| {
                    let st = net.session_stats(s);
                    (st.delivered, st.max_delay(), st.jitter())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(QueueKind::Exact),
            run(QueueKind::Bucketed {
                bucket: Duration::from_ps(1)
            })
        );
    }

    #[test]
    fn oracle_clean_on_lone_regulated_session() {
        // A lone CBR session with a fixed hold exercises the Eligible
        // path: release-time and eligibility-order checks must all pass.
        let mut b = NetworkBuilder::new().oracle(OracleConfig::new(OracleMode::Count));
        let nodes = b.tandem(2, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&slack_fifo_factory(
            Duration::from_ms(2),
            Duration::from_ms(10),
        ));
        net.run_until(Time::from_secs(10));
        assert!(net.session_stats(sid).delivered > 500);
        assert_eq!(net.oracle_drain_check(), 0);
        assert_eq!(net.oracle_violations(), 0);
    }

    #[test]
    fn oracle_counts_lateness_under_fifo_contention() {
        // Three same-instant packets with 500 µs of deadline slack on a T1
        // (tx = 276 µs): packet k finishes (k+1)·tx after eligibility, so
        // only seq 2 exceeds slack + allowance. One violation, exactly.
        let mut b = NetworkBuilder::new().oracle(OracleConfig::new(OracleMode::Count));
        let nodes = b.tandem(1, LinkParams::paper_t1());
        for _ in 0..3 {
            b.add_session(
                SessionSpec::atm(SessionId(0), 100_000),
                &nodes,
                Box::new(TraceSource::from_pairs([(Time::from_ms(1), 424)])),
            );
        }
        let mut net = b.build(&slack_fifo_factory(Duration::ZERO, Duration::from_us(500)));
        net.run_until(Time::from_secs(1));
        assert_eq!(net.oracle_drain_check(), 0);
        assert_eq!(net.oracle_totals().lateness, 1);
        assert_eq!(net.node_stats(nodes[0]).oracle_violations, 1);
    }

    #[test]
    fn oracle_flags_installed_bounds_and_drain_check() {
        // An impossible bound (negative shift) must trip the pathwise
        // delay check on every delivery and the drain-time CCDF check.
        let mut b = NetworkBuilder::new().oracle(OracleConfig::new(OracleMode::Count));
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.set_session_bounds(
            sid,
            SessionBounds {
                shift_ps: -1_000_000_000_000,
                jitter_spread_ps: i128::MAX / 2, // jitter check stays quiet
            },
        );
        net.run_until(Time::from_secs(1));
        let delivered = net.session_stats(sid).delivered;
        assert!(delivered > 60);
        assert_eq!(net.oracle_totals().delay_bound, delivered);
        assert_eq!(net.oracle_drain_check(), 1);
        assert_eq!(net.oracle_totals().ccdf_bound, 1);
        // One session: every violation, the node checks' included, names it.
        assert_eq!(
            net.session_stats(sid).oracle_violations,
            net.oracle_violations()
        );
    }

    #[test]
    fn jitter_oracle_reference_is_delivered_side_under_every_shard_count() {
        // A ten-cell burst on a two-hop tandem: every cell is injected —
        // and the injected-side D^ref_max reaches 10·L/r = 10 ms — before
        // the first one is delivered. Against the delivered-side maximum
        // (k ms after the k-th delivery) and a spread of −5 ms, the jitter
        // (k−1)·tx trips the check for k = 1..6 and no later; against the
        // injected-side 10 ms it never would. One shard and two must
        // count the same six.
        let run = |shards: usize| {
            let mut b = NetworkBuilder::new()
                .oracle(OracleConfig::new(OracleMode::Count))
                .shards(shards);
            let nodes = b.tandem(2, LinkParams::paper_t1());
            let sid = b.add_session(
                SessionSpec::atm(SessionId(0), 424_000),
                &nodes,
                Box::new(TraceSource::from_pairs([(Time::from_ms(1), 424); 10])),
            );
            let mut net = b.build(&fifo_factory(Duration::ZERO));
            assert_eq!(net.shard_count(), shards);
            net.set_session_bounds(
                sid,
                lit_net_bounds(i128::MAX / 2, -i128::from(Duration::from_ms(5))),
            );
            net.run_until(Time::from_secs(1));
            assert_eq!(net.session_stats(sid).delivered, 10);
            assert_eq!(net.oracle_drain_check(), 0);
            net.oracle_totals().jitter_bound
        };
        assert_eq!(run(1), 6);
        assert_eq!(run(2), 6);
    }

    #[test]
    #[should_panic(expected = "conformance oracle: delay-bound")]
    fn oracle_panic_mode_panics_with_kind() {
        let mut b = NetworkBuilder::new().oracle(OracleConfig::new(OracleMode::Panic));
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&slack_fifo_factory(Duration::ZERO, Duration::from_ms(10)));
        net.set_session_bounds(
            sid,
            SessionBounds {
                shift_ps: i128::MIN / 2,
                jitter_spread_ps: i128::MAX / 2,
            },
        );
        // Not drained: the first delivery panics inside `run_until`.
        net.run_until(Time::from_secs(1));
    }

    #[test]
    fn oracle_off_has_no_state_and_no_counts() {
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        // Installing bounds with the oracle off is a documented no-op.
        net.set_session_bounds(sid, SessionBounds::default());
        net.run_until(Time::from_secs(1));
        assert_eq!(net.oracle_violations(), 0);
        assert_eq!(net.oracle_drain_check(), 0);
    }

    #[test]
    fn probe_observes_full_lifecycle_and_violations() {
        // A 2-hop regulated CBR session with an impossible delay bound:
        // the probe must see every arrival/dispatch/departure, one
        // holding sample per held packet, and the same violation count
        // the oracle records.
        let mut b = NetworkBuilder::new()
            .oracle(OracleConfig::new(OracleMode::Count))
            .probe(Box::new(ObsProbe::new(256)));
        let nodes = b.tandem(2, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&slack_fifo_factory(
            Duration::from_ms(2),
            Duration::from_ms(10),
        ));
        net.set_session_bounds(sid, lit_net_bounds(-1_000_000_000_000, i128::MAX / 2));
        net.run_until(Time::from_secs(2));
        net.oracle_drain_check();
        let oracle_total = net.oracle_violations();
        let delivered = net.session_stats(sid).delivered;
        let transmitted: u64 = (0..2).map(|n| net.node_stats(NodeId(n)).transmitted).sum();

        let probe = net.take_probe().expect("probe installed");
        let obs = probe
            .as_any()
            .and_then(|a| a.downcast_ref::<ObsProbe>())
            .expect("ObsProbe downcasts");
        let s = &obs.shard;
        assert!(delivered > 100);
        assert_eq!(s.sessions[0].delivered, delivered);
        let node_departs: u64 = s.nodes.iter().map(|n| n.departures).sum();
        assert_eq!(node_departs, transmitted);
        let hop_dispatches: u64 = s.sessions[0].hops.iter().map(|h| h.dispatches).sum();
        assert_eq!(hop_dispatches, transmitted);
        // Every packet was held 2 ms at every hop it reached (a packet
        // still sitting in a regulator at the horizon has arrived but
        // not yet released, so held sits between dispatches and arrivals).
        let arrivals: u64 = s.nodes.iter().map(|n| n.arrivals).sum();
        let held: u64 = s.sessions[0].hops.iter().map(|h| h.held).sum();
        assert!(hop_dispatches <= held && held <= arrivals);
        assert_eq!(
            s.sessions[0].hops[0].holding_ps.max(),
            Duration::from_ms(2).as_ps()
        );
        assert_eq!(s.violation_total(), oracle_total);
        assert_eq!(
            s.violations.get(ViolationKind::DelayBound.label()).copied(),
            Some(delivered)
        );
        assert_eq!(
            s.violations.get(ViolationKind::CcdfBound.label()).copied(),
            Some(1)
        );
        // The trace saw exactly one event per recorded lifecycle stage.
        assert_eq!(
            obs.trace.total(),
            arrivals + held + hop_dispatches + node_departs + oracle_total
        );
    }

    fn lit_net_bounds(shift_ps: i128, jitter_spread_ps: i128) -> SessionBounds {
        SessionBounds {
            shift_ps,
            jitter_spread_ps,
        }
    }

    #[test]
    #[should_panic(expected = "route is empty")]
    fn empty_route_rejected() {
        let mut b = NetworkBuilder::new();
        b.add_session_with_hops(
            SessionSpec::atm(SessionId(0), 1000),
            vec![],
            Box::new(DeterministicSource::paper_cbr()),
        );
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_rejected() {
        let mut b = NetworkBuilder::new();
        b.add_session(
            SessionSpec::atm(SessionId(0), 1000),
            &[NodeId(5)],
            Box::new(DeterministicSource::paper_cbr()),
        );
    }
}
