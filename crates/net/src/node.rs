//! The node step: the one state machine that moves a packet through a
//! server node, shared by every driver.
//!
//! Model (paper §2–3): each server node owns one outgoing link of capacity
//! `Cₙ` and propagation delay `Γₙ`; a session follows a fixed route of
//! nodes established at connection time; a packet "arrives" at a node when
//! its **last bit** arrives; the node may hold it in a delay regulator
//! until its eligibility time (eq. 6–9), then serves eligible packets in
//! increasing priority-key order (eq. 10–11 deadlines), non-preemptively,
//! one at a time; the last bit leaves at the finish time and reaches the
//! next node one propagation delay later. Delivery past the final node
//! includes that link's propagation delay, matching the
//! `Σ (L_MAX/Cₙ + Γₙ)` structure of the paper's β constant.
//!
//! A [`NodeCore`] holds the runtime state of the nodes it *owns* — every
//! node under the one-shard driver, one contiguous block under the
//! k-shard driver — plus the injectors of the sessions that start there,
//! the statistics rows those nodes write, the conformance oracle and an
//! optional probe. An injector is 56 bytes and holds no random state:
//! the core keeps a stream only for each source that draws from one
//! (`lit_traffic::Source::draws`), in its own table, and hands every
//! other source one shared stream it never reads. Packets live in the
//! core's [`PacketArena`]; events carry 8-byte [`PacketRef`]s. The step
//! functions never touch a future-event set: everything they schedule
//! goes through a [`Sink`], which is what lets the two drivers in
//! [`crate::shard`] differ only in *when* they hand events back
//! (event-set FIFO order, or canonically sorted same-instant groups
//! inside lookahead windows) and a unit test drive a node with no event
//! set at all.
//!
//! The oracle and the probe observe the lifecycle points: arrival,
//! regulator release, service start, departure and delivery. A point
//! builds one [`Record`], the node and the packet's [`PacketView`], once
//! and only behind `observed`, a flag fixed when the core is built or a
//! probe is installed; with the oracle off and no probe, a point costs one
//! untaken branch. Every failed check goes through [`NodeCore::violate`],
//! which counts it per kind, on the session and node rows the record
//! names and at the probe, then panics in panic mode. The statistics rows
//! are the run's results, not observers, and are written unconditionally.
//!
//! Two kinds of event are sorted runs and go through event-set *lanes*
//! ([`Sink::emit_lane`], see `lit_sim::EventQueue`): the next `Inject` of
//! a periodic source, on the lane its period shares with the other
//! sources of that period, and the `Eligible` of a packet a per-session
//! regulator holds, on the lane of its node. The second is the paper's
//! eq. 9: a jitter-controlled packet's eligibility at node n+1 is
//! `Fⁿ + L_MAX/Cₙ + Γₙ + (dⁿ_max − dⁿᵢ)` — the actual finish time
//! cancels — and node n serves in increasing `Fⁿ`, so releases reach the
//! next regulator already in time order. The lane is a hint: a push
//! that would break its order falls through to the heap, and the pop
//! order is the no-lane one either way.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::float_arithmetic
)]

use crate::arena::{PacketArena, PacketRef};
use crate::discipline::{Discipline, DisciplineFactory, RegFifo, RegulatorBackend};
use crate::equeue::{EligibleQueue, QueueKind};
use crate::oracle::{Finding, OracleConfig, OracleRt, ViolationKind};
use crate::packet::{Packet, SessionId};
use crate::refserver::ReferenceServer;
use crate::spec::{DelayAssignment, LinkParams, SessionSpec};
use crate::stats::{BlankRows, DeliveryRecord, NodeStats, SessionStats};
use lit_obs::{PacketView, Probe};
use lit_sim::{Duration, EventQueue, Lane, SimRng, Time};
use lit_traffic::Source;
use std::sync::Arc;

/// Events of a node step. Packets are named by arena reference and no
/// event carries an instant or a key, so an event is `Copy` and fits 16
/// bytes: with its `(time, seq)` an event-set entry is 32.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ev {
    /// Inject the pending emission of session `sid` (arrival at hop 0).
    Inject { sid: u32 },
    /// A packet's last bit arrives at its current hop's node.
    Arrive { p: PacketRef },
    /// A regulated packet becomes eligible at its node. The eligibility
    /// instant the regulator computed and the priority key wait in the
    /// packet's arena slot ([`PacketArena::hold`]); the oracle verifies
    /// the driver releases the packet exactly then.
    Eligible { p: PacketRef },
    /// The head of `node`'s shared interleaved-regulator FIFO reaches its
    /// eligibility instant (kept in the FIFO entry): release every leading
    /// entry whose own eligibility has passed, then re-arm at the new
    /// head's instant.
    RegFire { node: u32 },
    /// The node finished transmitting its current packet.
    TxDone { node: u32 },
}

/// Where a node step puts what it schedules. One implementation per
/// driver, plus the recording sink of the unit tests below.
pub(crate) trait Sink {
    /// Schedule `ev` at `at`, never earlier than the core's clock.
    fn emit(&mut self, at: Time, ev: Ev);
    /// [`Sink::emit`] with a hint: `ev` continues the sorted run `lane`
    /// was opened for. Same order of dispatch as `emit` in every case.
    fn emit_lane(&mut self, _lane: Lane, at: Time, ev: Ev) {
        self.emit(at, ev);
    }
    /// The packet's next hop is `node`, which the emitting core does not
    /// own: deliver it there at `at`.
    fn handoff(&mut self, node: u32, at: Time, pkt: Packet);
    /// Events scheduled and not yet handed back (sampled by the probe).
    fn depth(&self) -> usize;
}

/// The one-shard driver's sink is the bare future-event set: every event
/// is pushed, ties pop in push order, and no node lives elsewhere.
impl Sink for EventQueue<Ev> {
    fn emit(&mut self, at: Time, ev: Ev) {
        self.push(at, ev);
    }

    fn emit_lane(&mut self, lane: Lane, at: Time, ev: Ev) {
        self.push_lane(lane, at, ev);
    }

    fn handoff(&mut self, node: u32, _at: Time, _pkt: Packet) {
        debug_assert!(false, "one-shard driver owns every node, got {node}");
    }

    fn depth(&self) -> usize {
        self.len()
    }
}

/// What every core and the facade read and nobody writes after `build`.
/// Routes are one flat table, not a vector per session: a session costs
/// no allocation here, and finding a hop's node is one offset add.
pub(crate) struct Topology {
    /// Outgoing link of each node.
    pub(crate) links: Vec<LinkParams>,
    /// The spec each session was registered with, less what `hops`
    /// and `delays` already hold.
    pub(crate) specs: Vec<SpecRow>,
    /// `(node index, index in delays)` along every route, session after
    /// session: 8 bytes a hop.
    pub(crate) hops: Vec<(u32, u32)>,
    /// The hops' delay assignments, one entry per run of equal ones in
    /// hop order: a route, or a class of sessions added one after another,
    /// stores its assignment once.
    pub(crate) delays: Vec<DelayAssignment>,
    /// Where each session's route starts in `hops`, then `hops.len()`:
    /// one entry more than there are sessions.
    pub(crate) route_start: Vec<u32>,
}

/// What the topology keeps of a session's spec: the id is the row's
/// index and each hop's delay assignment sits in `delays`, so a row is
/// 24 bytes where a whole [`SessionSpec`] is 80.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SpecRow {
    rate_bps: u64,
    max_len_bits: u32,
    min_len_bits: u32,
    jitter_control: bool,
}

impl SpecRow {
    /// The row of `spec`.
    pub(crate) fn new(spec: &SessionSpec) -> Self {
        SpecRow {
            rate_bps: spec.rate_bps,
            max_len_bits: spec.max_len_bits,
            min_len_bits: spec.min_len_bits,
            jitter_control: spec.jitter_control,
        }
    }

    /// The spec of session `id` at a hop assigned `delay`.
    pub(crate) fn spec(&self, id: SessionId, delay: DelayAssignment) -> SessionSpec {
        SessionSpec {
            id,
            rate_bps: self.rate_bps,
            max_len_bits: self.max_len_bits,
            min_len_bits: self.min_len_bits,
            jitter_control: self.jitter_control,
            delay,
        }
    }
}

impl Topology {
    /// The route of session `sid` as `(node, index in delays)` (empty for
    /// an unknown session).
    pub(crate) fn route(&self, sid: usize) -> &[(u32, u32)] {
        let ends = self.route_start.get(sid).zip(self.route_start.get(sid + 1));
        ends.and_then(|(&from, &to)| self.hops.get(from as usize..to as usize))
            .unwrap_or(&[])
    }

    /// Every route, in session order.
    pub(crate) fn routes(&self) -> impl Iterator<Item = &[(u32, u32)]> {
        (0..self.specs.len()).map(|sid| self.route(sid))
    }

    /// Where hop `hop` of session `sid` sits in `hops`, and in every
    /// table laid out like it.
    fn slot(&self, sid: usize, hop: usize) -> usize {
        self.route_start
            .get(sid)
            .map_or(usize::MAX, |&from| from as usize + hop)
    }

    /// The node serving hop `hop` of session `sid`.
    fn node_at(&self, sid: usize, hop: usize) -> u32 {
        debug_assert!(hop < self.route(sid).len(), "hop off the route");
        #[expect(
            clippy::indexing_slicing,
            reason = "executor invariant: packets carry the session id and hop index they were routed with at build"
        )]
        self.hops[self.slot(sid, hop)].0
    }

    /// Whether session `sid` asked for delay-jitter control.
    fn jitter_control(&self, sid: usize) -> bool {
        self.specs.get(sid).is_some_and(|s| s.jitter_control)
    }
}

/// Runtime state of one owned server node.
struct NodeRt {
    link: LinkParams,
    discipline: Box<dyn Discipline>,
    queue: EligibleQueue<PacketRef>,
    /// The packet currently being transmitted, if any.
    current: Option<PacketRef>,
    /// The shared head-gated regulator FIFO of this node. Only populated
    /// under [`RegulatorBackend::Interleaved`]; stays empty (and costs
    /// nothing) under the per-session backend.
    fifo: RegFifo<PacketRef>,
    /// The event-set lane of this node's per-session regulator releases.
    releases: Lane,
}

/// The injector of one session, owned by the core of its first hop: 56
/// bytes. Its random stream is not in it: most sources never draw.
struct Injector {
    source: Box<dyn Source>,
    /// The emission the scheduled `Inject` materializes, already pulled
    /// from the source, as two fields so that `stream` fills what would
    /// be an emission's padding. Once the source is exhausted nothing
    /// is scheduled and they are the last one injected.
    at: Time,
    len_bits: u32,
    /// Where the source's stream is in the core's `streams`.
    stream: u32,
    /// The session's reference server (eq. 1), co-simulated at injection.
    reference: ReferenceServer,
    /// The event-set lane of the source's period, if it shares one.
    lane: Option<Lane>,
}

/// The slot of something this core owns. Every index an event carries
/// was minted by `build` against these very tables, so a miss is a
/// wiring bug, not an input error.
fn owned<T>(slots: &mut [Option<T>], i: usize) -> &mut T {
    #[expect(
        clippy::expect_used,
        reason = "executor invariant: events only name nodes, injectors and stats rows that build installed on this core"
    )]
    slots
        .get_mut(i)
        .and_then(Option::as_mut)
        .expect("event names a slot this core does not own")
}

/// A packet that must still be live: references stay valid from `alloc`
/// until the delivery or handoff that `take`s them.
fn live(arena: &PacketArena, p: PacketRef) -> &Packet {
    #[expect(
        clippy::expect_used,
        reason = "executor invariant: events and queues only hold references the arena has not yet taken"
    )]
    arena.get(p).expect("stale packet reference")
}

/// Mutable twin of [`live`].
fn live_mut(arena: &mut PacketArena, p: PacketRef) -> &mut Packet {
    #[expect(
        clippy::expect_used,
        reason = "executor invariant: events and queues only hold references the arena has not yet taken"
    )]
    arena.get_mut(p).expect("stale packet reference")
}

/// What every observer of a lifecycle point sees: the node, `u32::MAX`
/// past the last hop or for a whole-session check, and the packet.
pub(crate) type Record = (u32, PacketView);

/// The record of `pkt` at `node`.
fn record(node: u32, pkt: &Packet) -> Record {
    let view = PacketView {
        session: pkt.session.0,
        seq: pkt.seq,
        hop: pkt.hop,
        len_bits: pkt.len_bits,
        created: pkt.created,
        arrived: pkt.arrived,
    };
    (node, view)
}

/// The node-step state machine over the nodes one driver shard owns.
pub(crate) struct NodeCore {
    /// The instant of the event being dispatched; the driver sets it.
    pub(crate) now: Time,
    topo: Arc<Topology>,
    arena: PacketArena,
    /// Node runtime state, globally indexed; `Some` only for owned nodes.
    nodes: Vec<Option<NodeRt>>,
    /// Per-node statistics, globally indexed; only owned rows are written.
    pub(crate) node_stats: Vec<NodeStats>,
    /// Session injectors, globally indexed; `Some` iff hop 0 is owned and
    /// the source emits at all.
    injectors: Vec<Option<Injector>>,
    /// The random streams of the injectors' sources: first the one that
    /// every source which never draws ([`Source::draws`]) is handed, then
    /// one per source that does, its session's own.
    streams: Vec<SimRng>,
    /// Per-session statistics rows; `Some` iff any hop is owned. Rows are
    /// field-disjoint across cores (each field is written only by the
    /// core owning the hop that produces it; violation counts add).
    pub(crate) stats: Vec<Option<SessionStats>>,
    /// How the nodes realize their delay regulators.
    regulator: RegulatorBackend,
    pub(crate) oracle: OracleRt,
    probe: Option<Box<dyn Probe>>,
    /// Whether the oracle is on or a probe is installed: the one branch a
    /// lifecycle point pays when nothing observes it.
    observed: bool,
}

impl NodeCore {
    /// A core over the nodes `owns` selects, with no sessions yet; opens
    /// one release lane per owned node in `events`, the event set that
    /// will feed it.
    pub(crate) fn new(
        topo: Arc<Topology>,
        owns: impl Fn(usize) -> bool,
        factory: &DisciplineFactory<'_>,
        queue_kind: QueueKind,
        oracle: OracleConfig,
        regulator: RegulatorBackend,
        events: &mut EventQueue<Ev>,
    ) -> Self {
        let sessions = topo.specs.len();
        let oracle = OracleRt::new(oracle, sessions, topo.hops.len());
        NodeCore {
            now: Time::ZERO,
            arena: PacketArena::new(),
            nodes: topo
                .links
                .iter()
                .enumerate()
                .map(|(n, link)| {
                    owns(n).then(|| {
                        let mut discipline = factory(link);
                        discipline.reserve(sessions);
                        NodeRt {
                            link: *link,
                            discipline,
                            queue: EligibleQueue::new(queue_kind),
                            current: None,
                            fifo: RegFifo::new(),
                            releases: events.lane(),
                        }
                    })
                })
                .collect(),
            node_stats: topo.links.iter().map(|_| NodeStats::new()).collect(),
            injectors: (0..sessions).map(|_| None).collect(),
            streams: vec![SimRng::seed_from(0)],
            stats: (0..sessions).map(|_| None).collect(),
            topo,
            regulator,
            observed: oracle.enabled(),
            oracle,
            probe: None,
        }
    }

    /// Install `probe` (`None` removes it) and return the one it replaces.
    pub(crate) fn set_probe(&mut self, probe: Option<Box<dyn Probe>>) -> Option<Box<dyn Probe>> {
        self.observed = probe.is_some() || self.oracle.enabled();
        std::mem::replace(&mut self.probe, probe)
    }

    /// Connection establishment at one owned hop: register session `id`
    /// with the node's discipline, its spec carrying this hop's `delay`,
    /// and make sure its statistics row exists, a copy of `blank`.
    pub(crate) fn register_hop(
        &mut self,
        id: SessionId,
        node: u32,
        delay: &DelayAssignment,
        blank: &BlankRows,
    ) {
        let sid = id.index();
        if let Some(row) = self.topo.specs.get(sid) {
            owned(&mut self.nodes, node as usize)
                .discipline
                .register_session(&row.spec(id, *delay), delay);
        }
        let hops = self.topo.route(sid).len();
        if let Some(row) = self.stats.get_mut(sid) {
            row.get_or_insert_with(|| SessionStats::new(blank, hops));
        }
    }

    /// Install the injector of session `sid` (whose first hop this core
    /// owns), scheduling through `lane` if given, and pull its first
    /// emission; returns when to inject it. `rng` is the session's own
    /// stream, kept only if the source draws.
    pub(crate) fn install_injector(
        &mut self,
        sid: usize,
        mut source: Box<dyn Source>,
        rng: SimRng,
        lane: Option<Lane>,
    ) -> Option<Time> {
        let stream = if source.draws() {
            self.streams.push(rng);
            self.streams.len() - 1
        } else {
            0
        };
        let next = source.next_emission(self.streams.get_mut(stream)?)?;
        let inj = Injector {
            source,
            at: next.at,
            len_bits: next.len_bits,
            stream: u32::try_from(stream).ok()?,
            reference: ReferenceServer::new(self.topo.specs.get(sid).map_or(0, |s| s.rate_bps)),
            lane,
        };
        if let Some(slot) = self.injectors.get_mut(sid) {
            *slot = Some(inj);
        }
        Some(next.at)
    }

    /// Whether this core owns `node`.
    fn owns(&self, node: usize) -> bool {
        self.nodes.get(node).is_some_and(Option::is_some)
    }

    /// A live packet, for the k-shard driver's content-derived tie key.
    pub(crate) fn packet(&self, p: PacketRef) -> Option<&Packet> {
        self.arena.get(p)
    }

    /// Take in a packet handed off by another core.
    pub(crate) fn adopt(&mut self, pkt: Packet) -> PacketRef {
        self.arena.alloc(pkt)
    }

    /// Run the step `ev` names at `self.now`.
    pub(crate) fn dispatch<S: Sink>(&mut self, ev: Ev, sink: &mut S) {
        match ev {
            Ev::Inject { sid } => self.inject(sid, sink),
            Ev::Arrive { p } => self.arrive(p, sink),
            Ev::Eligible { p } => self.eligible(p, sink),
            Ev::RegFire { node } => self.reg_fire(node, sink),
            Ev::TxDone { node } => self.tx_done(node, sink),
        }
    }

    /// Record one violation of `kind` at `at` against `rec`, in a fixed
    /// order: the per-kind total, the session row and the node row the
    /// record names, the probe; then, in panic mode, stop with `detail`,
    /// which is rendered only then.
    pub(crate) fn violate(
        &mut self,
        kind: ViolationKind,
        at: Time,
        (node, pkt): Record,
        detail: impl FnOnce() -> String,
    ) {
        *self.oracle.totals.slot(kind) += 1;
        if let Some(st) = self
            .stats
            .get_mut(pkt.session as usize)
            .and_then(Option::as_mut)
        {
            st.oracle_violations += 1;
        }
        if let Some(nst) = self.node_stats.get_mut(node as usize) {
            nst.oracle_violations += 1;
        }
        if let Some(pr) = self.probe.as_deref_mut() {
            pr.on_violation(at, kind.label(), pkt.session, pkt.seq, node);
        }
        self.oracle.escalate(kind, detail);
    }

    /// Record every failed check the oracle found at a lifecycle point.
    fn judge(&mut self, at: Time, rec: Record, found: impl IntoIterator<Item = Option<Finding>>) {
        for f in found.into_iter().flatten() {
            self.violate(f.kind, at, rec, || format!("{f} at {rec:?}"));
        }
    }

    /// Materialize the pulled emission of `sid` as a packet at hop 0 and
    /// pull/schedule the next one.
    fn inject<S: Sink>(&mut self, sid: u32, sink: &mut S) {
        let s = owned(&mut self.injectors, sid as usize);
        let (at, len_bits) = (s.at, s.len_bits);
        debug_assert_eq!(at, self.now);
        let ref_delay = s.reference.offer(at, len_bits).delay;

        // The next Inject is scheduled before anything the arrival below
        // schedules: same-instant order is emission order.
        #[expect(
            clippy::expect_used,
            reason = "executor invariant: `install_injector` pushed the stream an injector names"
        )]
        let rng = self
            .streams
            .get_mut(s.stream as usize)
            .expect("unknown stream");
        if let Some(next) = s.source.next_emission(rng) {
            debug_assert!(next.at >= at, "source emitted into the past");
            (s.at, s.len_bits) = (next.at, next.len_bits);
            match s.lane {
                Some(lane) => sink.emit_lane(lane, next.at, Ev::Inject { sid }),
                None => sink.emit(next.at, Ev::Inject { sid }),
            }
        }

        // The first hop's core counts the session's injections, so the
        // count numbers the packet: from 1, as the paper does.
        let st = owned(&mut self.stats, sid as usize);
        st.injected += 1;
        st.reference.record(ref_delay);
        let mut pkt = Packet::new(SessionId(sid), st.injected, len_bits, at);
        pkt.ref_delay = ref_delay;

        let p = self.arena.alloc(pkt);
        self.arrive(p, sink);
    }

    /// A packet's last bit arrives at its current hop.
    fn arrive<S: Sink>(&mut self, p: PacketRef, sink: &mut S) {
        let now = self.now;
        let pkt = live_mut(&mut self.arena, p);
        pkt.arrived = now;
        let (sid, hop) = (pkt.session.index(), pkt.hop as usize);
        let node_idx = self.topo.node_at(sid, hop);

        // Buffer occupancy, sampled as the paper does: at last-bit arrival,
        // counting the arriving packet and any packet in transmission.
        owned(&mut self.stats, sid).occupy(hop, pkt.len_bits as u64);

        let node = owned(&mut self.nodes, node_idx as usize);
        let decision = node.discipline.on_arrival(pkt, now);
        let eligible = decision.eligible;
        debug_assert!(
            eligible >= now,
            "discipline produced an eligibility time in the past"
        );
        if self.observed {
            let (rec, depth) = (record(node_idx, pkt), node.queue.len());
            if let Some(pr) = self.probe.as_deref_mut() {
                pr.on_arrive(now, node_idx, rec.1, depth, sink.depth());
            }
            if self.oracle.enabled() {
                let found = self.oracle.arrival(self.topo.slot(sid, hop), eligible, now);
                self.judge(now, rec, found);
            }
        }
        let node = owned(&mut self.nodes, node_idx as usize);
        if self.regulator == RegulatorBackend::Interleaved {
            // Interleaved join rule: a packet enters the shared FIFO when
            // it must be held (`E > now`) or when it is jitter-controlled
            // and the FIFO already holds earlier packets (overtaking them
            // would break the regulator's FIFO contract). Immediately
            // eligible non-jc packets bypass the regulator, as unshaped
            // traffic does in TSN ATS.
            let jc = self.topo.jitter_control(sid);
            if eligible > now || (jc && !node.fifo.queue.is_empty()) {
                let was_empty = node.fifo.queue.is_empty();
                node.fifo.join(p, decision.key, eligible, now);
                if was_empty {
                    // Joining an empty FIFO implies `E > now`, so the
                    // head timer is always armed strictly in the future.
                    sink.emit(eligible, Ev::RegFire { node: node_idx });
                }
            } else {
                self.enqueue_eligible(node_idx, p, decision.key, sink);
            }
        } else if eligible > now {
            self.arena.hold(p, decision.key, eligible);
            sink.emit_lane(node.releases, eligible, Ev::Eligible { p });
        } else {
            self.enqueue_eligible(node_idx, p, decision.key, sink);
        }
    }

    /// A per-session regulator releases a packet it held, armed for the
    /// instant parked in its arena slot. The event only exists for packets
    /// with `E > arrival`, so the holding time is strictly positive.
    fn eligible<S: Sink>(&mut self, p: PacketRef, sink: &mut S) {
        let Some((pkt, key, armed)) = self.arena.held(p) else {
            debug_assert!(false, "released packet vanished");
            return;
        };
        let node_idx = self.topo.node_at(pkt.session.index(), pkt.hop as usize);
        self.release(node_idx, p, key, armed, None, sink);
    }

    /// The head of `node_idx`'s interleaved-regulator FIFO reached its
    /// eligibility instant: release the head, then every successor whose
    /// own eligibility has also passed (head gating makes releases
    /// cascade), then re-arm the timer at the new head's instant. The
    /// timer was armed for the head's eligibility and only this function
    /// takes the head, so the head is released whatever the clock says and
    /// checked against that instant; every release is also checked against
    /// the regulator's own equation and shaping ceiling ([`Self::release`]).
    fn reg_fire<S: Sink>(&mut self, node_idx: u32, sink: &mut S) {
        let now = self.now;
        let mut first = true;
        loop {
            let fifo = &mut owned(&mut self.nodes, node_idx as usize).fifo;
            let Some(head) = fifo.queue.front() else {
                break;
            };
            if head.eligible > now && !first {
                sink.emit(head.eligible, Ev::RegFire { node: node_idx });
                break;
            }
            let Some(entry) = fifo.queue.pop_front() else {
                break;
            };
            let rule = (
                fifo.last_release.max(entry.eligible),
                entry.eligible,
                fifo.max_hold,
            );
            fifo.last_release = now;
            let armed = if first { entry.eligible } else { now };
            first = false;
            self.release(node_idx, entry.item, entry.key, armed, Some(rule), sink);
        }
    }

    /// A regulator releases held packet `p`, armed for `armed`, onto
    /// `node_idx`'s eligible queue: the oracle referees the release
    /// ([`OracleRt::release`], with the interleaved FIFO's `fifo` rule),
    /// the probe sees the holding time `now − arrival` of eq. 8–9, and the
    /// packet joins the queue.
    fn release<S: Sink>(
        &mut self,
        node_idx: u32,
        p: PacketRef,
        key: u128,
        armed: Time,
        fifo: Option<(Time, Time, Duration)>,
        sink: &mut S,
    ) {
        if self.observed {
            let now = self.now;
            let rec = record(node_idx, live(&self.arena, p));
            if self.oracle.enabled() {
                self.judge(now, rec, self.oracle.release(now, armed, fifo));
            }
            if let Some(pr) = self.probe.as_deref_mut() {
                let held = now.checked_since(rec.1.arrived).unwrap_or(Duration::ZERO);
                pr.on_eligible(now, node_idx, rec.1, held);
            }
        }
        self.enqueue_eligible(node_idx, p, key, sink);
    }

    /// Put an eligible packet in the node's transmission queue and start
    /// the link if idle.
    fn enqueue_eligible<S: Sink>(&mut self, node_idx: u32, p: PacketRef, key: u128, sink: &mut S) {
        let node = owned(&mut self.nodes, node_idx as usize);
        node.queue.push(key, p);
        if node.current.is_none() {
            self.start_tx(node_idx, sink);
        }
    }

    /// Begin transmitting the highest-priority eligible packet.
    fn start_tx<S: Sink>(&mut self, node_idx: u32, sink: &mut S) {
        let now = self.now;
        let node = owned(&mut self.nodes, node_idx as usize);
        debug_assert!(node.current.is_none(), "link already busy");
        let Some(p) = node.queue.pop() else {
            return;
        };
        let pkt = live(&self.arena, p);
        let tx = node.link.tx_time(pkt.len_bits);
        node.discipline.on_service_start(pkt, now);
        if let Some(pr) = self.probe.as_deref_mut() {
            pr.on_dispatch(now, node_idx, record(node_idx, pkt).1);
        }
        node.current = Some(p);
        if let Some(nst) = self.node_stats.get_mut(node_idx as usize) {
            nst.busy.set_busy(now);
        }
        sink.emit(now + tx, Ev::TxDone { node: node_idx });
    }

    /// The node's current packet finished transmission: account for it,
    /// then forward it (owned next hop: in place in the arena; otherwise
    /// by value through the sink) or deliver it, and keep the link busy
    /// if more eligible work is queued.
    fn tx_done<S: Sink>(&mut self, node_idx: u32, sink: &mut S) {
        let finish = self.now;
        let node = owned(&mut self.nodes, node_idx as usize);
        #[expect(
            clippy::expect_used,
            reason = "executor invariant: a TxDone event exists only while `current` is occupied"
        )]
        let p = node.current.take().expect("TxDone with idle link");
        let pkt = live_mut(&mut self.arena, p);
        node.discipline.on_departure(pkt, finish);
        let (link, idle) = (node.link, node.queue.is_empty());
        let (sid, hop) = (pkt.session.index(), pkt.hop as usize);
        let lateness = finish.signed_since(pkt.deadline);

        if let Some(nst) = self.node_stats.get_mut(node_idx as usize) {
            nst.transmitted += 1;
            nst.bits_transmitted += pkt.len_bits as u64;
            nst.max_lateness_ps = nst.max_lateness_ps.max(lateness);
            if idle {
                nst.busy.set_idle(finish);
            }
        }
        // Session accounting: the packet no longer occupies this node.
        owned(&mut self.stats, sid).release(hop, pkt.len_bits as u64);

        let last = hop + 1 >= self.topo.route(sid).len();
        if self.observed {
            let rec = record(node_idx, pkt);
            // The non-saturation lemma is a per-session-regulator one:
            // under the interleaved backend a packet may also wait behind
            // other sessions' holds in the shared FIFO, and the checks at
            // release take over.
            if self.oracle.enabled() && self.regulator == RegulatorBackend::PerSession {
                let found = self.oracle.departure(lateness, link.lmax_time());
                self.judge(finish, rec, [found]);
            }
            if let Some(pr) = self.probe.as_deref_mut() {
                // Deadline slack F − departure; negative means the packet
                // left late (the lateness check allows < L_MAX/C).
                let slack = -lateness;
                let slack =
                    i64::try_from(slack).unwrap_or(if slack < 0 { i64::MIN } else { i64::MAX });
                pr.on_depart(finish, node_idx, rec.1, slack, last);
            }
        }
        let arrival = finish + link.propagation;
        if last {
            self.deliver(p, finish, arrival);
        } else {
            let next = self.topo.node_at(sid, hop + 1);
            live_mut(&mut self.arena, p).hop += 1;
            if self.owns(next as usize) {
                sink.emit(arrival, Ev::Arrive { p });
            } else if let Some(pkt) = self.arena.take(p) {
                sink.handoff(next, arrival, pkt);
            }
        }

        if !idle {
            self.start_tx(node_idx, sink);
        }
    }

    /// A packet left its last node at `finish` and is delivered at
    /// `delivery` — one propagation later, matching β's
    /// `Σ(L_MAX/Cₙ + Γₙ)` over n = 1..N. Records the end-to-end delay
    /// and checks the pathwise bounds.
    fn deliver(&mut self, p: PacketRef, finish: Time, delivery: Time) {
        let Some(pkt) = self.arena.take(p) else {
            debug_assert!(false, "delivered packet vanished");
            return;
        };
        let sid = pkt.session.index();
        let st = owned(&mut self.stats, sid);
        st.delivered += 1;
        let delay = delivery - pkt.created;
        st.e2e.record(delay);
        st.delay_batches.record(delay.as_secs_f64());
        let excess = delay.signed_sub(pkt.ref_delay);
        st.max_excess_ps = st.max_excess_ps.max(excess);
        st.deliveries.push(DeliveryRecord {
            seq: pkt.seq,
            created: pkt.created,
            delivered: delivery,
            ref_delay: pkt.ref_delay,
        });
        // The oracle is the one observer of a delivery.
        if self.oracle.enabled() {
            let jitter = st.e2e.spread();
            let found = self.oracle.delivery(sid, pkt.ref_delay, excess, jitter);
            // The packet has left the last node: the record names none.
            let rec = record(u32::MAX, &pkt);
            self.judge(finish, rec, found);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::ScheduleDecision;
    use crate::oracle::{OracleMode, OracleTotals};
    use crate::stats::StatsConfig;
    use lit_obs::ObsProbe;
    use lit_traffic::TraceSource;

    /// FCFS with a fixed 2 ms regulator hold.
    struct Hold;

    impl Discipline for Hold {
        fn name(&self) -> &'static str {
            "hold"
        }
        fn register_session(&mut self, _: &SessionSpec, _: &DelayAssignment) {}
        fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
            let eligible = now + Duration::from_ms(2);
            pkt.deadline = eligible;
            ScheduleDecision::at(eligible, eligible)
        }
        fn on_departure(&mut self, _: &mut Packet, _: Time) {}
    }

    /// The recording sink: no event set, just what was emitted, in order.
    impl Sink for Vec<(Time, Ev)> {
        fn emit(&mut self, at: Time, ev: Ev) {
            self.push((at, ev));
        }
        fn handoff(&mut self, node: u32, _: Time, _: Packet) {
            panic!("one-node core handed a packet off to node {node}");
        }
        fn depth(&self) -> usize {
            self.len()
        }
    }

    /// One T1 node, one session sending two cells 100 µs apart, each held
    /// 2 ms; the first injection is due at 1 000 µs.
    fn one_node_core(regulator: RegulatorBackend, oracle: OracleConfig) -> NodeCore {
        let link = LinkParams::paper_t1();
        let spec = SessionSpec::atm(SessionId(0), 32_000);
        let topo = Arc::new(Topology {
            links: vec![link],
            specs: vec![SpecRow::new(&spec)],
            hops: vec![(0, 0)],
            delays: vec![spec.delay],
            route_start: vec![0, 1],
        });
        let factory = |_: &LinkParams| Box::new(Hold) as Box<dyn Discipline>;
        let mut core = NodeCore::new(
            topo,
            |_| true,
            &factory,
            QueueKind::Exact,
            oracle,
            regulator,
            &mut EventQueue::new(),
        );
        let blank = BlankRows::new(&StatsConfig::default());
        core.register_hop(SessionId(0), 0, &spec.delay, &blank);
        let cells = [(Time::from_us(1_000), 424), (Time::from_us(1_100), 424)];
        let source = Box::new(TraceSource::from_pairs(cells));
        let first = core.install_injector(0, source, SimRng::seed_from(1), None);
        assert_eq!(first, Some(Time::from_us(1_000)));
        core
    }

    /// Dispatches whatever the core emits in (time, emission) order and
    /// returns every emission as `"<at µs> <event>"` — packets named by
    /// sequence number — plus the session's final statistics.
    fn lifecycle(regulator: RegulatorBackend) -> (Vec<String>, SessionStats) {
        let mut core = one_node_core(regulator, OracleConfig::off());
        let mut pending = vec![(Time::from_us(1_000), Ev::Inject { sid: 0 })];
        let mut log = Vec::new();
        while !pending.is_empty() {
            let next = (0..pending.len())
                .min_by_key(|&i| pending[i].0)
                .expect("non-empty");
            let (at, ev) = pending.remove(next);
            core.now = at;
            let mut sink = Vec::new();
            core.dispatch(ev, &mut sink);
            for &(at, ev) in &sink {
                let seq = |p| core.packet(p).map_or(0, |k| k.seq);
                let label = match ev {
                    Ev::Inject { .. } => "inject".to_string(),
                    Ev::Arrive { p } => format!("arrive #{}", seq(p)),
                    Ev::Eligible { p, .. } => format!("eligible #{}", seq(p)),
                    Ev::RegFire { .. } => "reg-fire".to_string(),
                    Ev::TxDone { .. } => "tx-done".to_string(),
                };
                log.push(format!("{} {label}", at.as_ps() / 1_000_000));
            }
            pending.extend(sink);
        }
        assert_eq!(core.arena.live(), 0, "every packet was delivered");
        let stats = core.stats[0].take().expect("row installed");
        (log, stats)
    }

    /// 424 bits on a T1 take 276 µs (truncated), so the link is busy
    /// 3 000–3 276 µs and 3 276–3 552 µs; delivery adds 1 ms propagation.
    fn assert_delivered(st: &SessionStats) {
        let tx = LinkParams::paper_t1().lmax_time();
        assert_eq!((st.injected, st.delivered), (2, 2));
        assert_eq!(st.e2e.min(), Some(Duration::from_ms(3) + tx));
        assert_eq!(
            st.max_delay(),
            Some(Duration::from_us(1_900) + tx + tx + Duration::from_ms(1))
        );
    }

    /// Inject the first cell under the counting oracle and a recording
    /// probe, then dispatch the release the core armed one picosecond
    /// late. The instant it was armed for lives in the arena slot / the
    /// regulator FIFO, not in the event: the release-time check must
    /// still see it. Every violation names the session and the node, so
    /// each reaches both rows and the probe; returns the release, the
    /// totals and the labels the probe saw, in label order.
    fn late_release(regulator: RegulatorBackend) -> (Ev, OracleTotals, Vec<String>) {
        let mut core = one_node_core(regulator, OracleConfig::new(OracleMode::Count));
        core.set_probe(Some(Box::new(ObsProbe::new(0))));
        core.now = Time::from_us(1_000);
        let mut armed = Vec::new();
        core.dispatch(Ev::Inject { sid: 0 }, &mut armed);
        let (at, release) = armed[1]; // [0] is the next injection
        assert_eq!(at, Time::from_us(3_000));
        core.now = at + Duration::from_ps(1);
        core.dispatch(release, &mut Vec::new());
        let totals = core.oracle.totals;
        let session_row = core.stats[0].as_ref().expect("row installed");
        assert_eq!(session_row.oracle_violations, totals.total());
        assert_eq!(core.node_stats[0].oracle_violations, totals.total());
        let probe = core.set_probe(None).expect("probe installed");
        let obs = probe.as_any().and_then(|a| a.downcast_ref::<ObsProbe>());
        let seen = &obs.expect("an ObsProbe").shard;
        assert_eq!(seen.violation_total(), totals.total());
        (release, totals, seen.violations.keys().cloned().collect())
    }

    /// The packet count lives in the statistics row, the reference
    /// server's `W_0` is `Time::ZERO`, not a `None`, and the random stream
    /// is an index: no second count, no option tag, no state a
    /// deterministic source never reads.
    #[test]
    fn an_injector_is_56_bytes() {
        assert_eq!(size_of::<Injector>(), 56);
        assert_eq!(size_of::<Option<Injector>>(), 56);
    }

    /// A session's spec row holds no id and no delay assignment.
    #[test]
    fn a_spec_row_is_24_bytes() {
        assert_eq!(size_of::<SpecRow>(), 24);
    }

    #[test]
    fn late_eligible_event_is_one_release_time_violation() {
        let (ev, seen, labels) = late_release(RegulatorBackend::PerSession);
        assert!(matches!(ev, Ev::Eligible { .. }));
        assert_eq!((seen.release_time, seen.total()), (1, 1));
        assert_eq!(labels, [ViolationKind::ReleaseTime.label()]);
    }

    #[test]
    fn late_reg_fire_event_is_one_release_time_violation() {
        let (ev, seen, labels) = late_release(RegulatorBackend::Interleaved);
        assert_eq!(ev, Ev::RegFire { node: 0 });
        // The late release itself also breaks the regulator equation.
        assert_eq!((seen.release_time, seen.regulator_fifo), (1, 1));
        assert_eq!(seen.total(), 2);
        let fifo = ViolationKind::RegulatorFifo;
        assert_eq!(labels, [fifo.label(), ViolationKind::ReleaseTime.label()]);
    }

    #[test]
    fn an_event_set_entry_is_32_bytes() {
        // `Ev` is 12 bytes today; anything up to 16 keeps the entry at 32.
        assert!(std::mem::size_of::<Ev>() <= 16);
        assert_eq!(std::mem::size_of::<(Time, u64, Ev)>(), 32);
    }

    #[test]
    fn per_session_regulator_emits_one_release_per_held_packet() {
        let (log, st) = lifecycle(RegulatorBackend::PerSession);
        assert_eq!(
            log,
            [
                "1100 inject",      // injecting #1 schedules #2 first…
                "3000 eligible #1", // …then holds #1 until E = a + 2 ms
                "3100 eligible #2",
                "3276 tx-done", // #1 released onto the idle link
                "3552 tx-done", // #2 waited in the eligible queue
            ]
        );
        assert_delivered(&st);
    }

    #[test]
    fn interleaved_regulator_emits_one_head_timer() {
        let (log, st) = lifecycle(RegulatorBackend::Interleaved);
        assert_eq!(
            log,
            [
                "1100 inject",
                "3000 reg-fire", // #1 joins the empty FIFO and arms the timer
                // #2 joins behind it and emits nothing
                "3276 tx-done",  // the timer releases #1 onto the idle link…
                "3100 reg-fire", // …and re-arms at the new head's E
                "3552 tx-done",
            ]
        );
        assert_delivered(&st);
    }
}
