//! The network: nodes in a topology, sessions on routes, built by
//! [`NetworkBuilder`] and run through the [`Network`] facade.
//!
//! What a node *does* to a packet is defined once, in [`crate::node`];
//! how events reach it is one of the two drivers in [`crate::shard`].
//! This module only assembles them: it partitions the nodes, registers
//! every session where its hops live, and presents one set of
//! statistics and oracle results whichever driver ran.

use crate::discipline::{DisciplineFactory, RegulatorBackend};
use crate::equeue::QueueKind;
use crate::node::{Ev, NodeCore, SpecRow, Topology};
use crate::oracle::{
    ccdf_shift_violation, OracleConfig, OracleMode, OracleTotals, SessionBounds, ViolationKind,
};
use crate::packet::{NodeId, SessionId};
use crate::shard::{owner_of, Shard};
use crate::spec::{DelayAssignment, LinkParams, SessionSpec};
use crate::stats::{BlankRows, NodeStats, SessionStats, StatsConfig};
use lit_obs::{PacketView, Probe};
use lit_sim::{Duration, EventBackend, EventQueue, Lane, SeedSeq, Time};
use lit_traffic::Source;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds a [`Network`]: add nodes, add sessions on routes, then `build`
/// with a discipline factory.
pub struct NetworkBuilder {
    /// Nodes, specs and routes, filled in place as they are added.
    topo: Topology,
    /// The source of each session, in session order.
    sources: Vec<Box<dyn Source>>,
    stats_cfg: StatsConfig,
    master_seed: u64,
    queue_kind: QueueKind,
    event_backend: EventBackend,
    oracle: OracleConfig,
    probe: Option<Box<dyn Probe>>,
    shards: usize,
    regulator: RegulatorBackend,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkBuilder {
    /// An empty network with seed 0 and default statistics sizing.
    pub fn new() -> Self {
        NetworkBuilder {
            topo: Topology {
                links: Vec::new(),
                specs: Vec::new(),
                hops: Vec::new(),
                delays: Vec::new(),
                route_start: vec![0],
            },
            sources: Vec::new(),
            stats_cfg: StatsConfig::default(),
            master_seed: 0,
            queue_kind: QueueKind::Exact,
            event_backend: EventBackend::default(),
            oracle: OracleConfig::off(),
            probe: None,
            shards: 1,
            regulator: RegulatorBackend::PerSession,
        }
    }

    /// Select how each node realizes its delay regulator (default: the
    /// paper's per-session regulators). Under
    /// [`RegulatorBackend::Interleaved`] every node holds its
    /// ahead-of-schedule packets in **one shared FIFO** gated by the head's
    /// eligibility instant (TSN ATS style): a packet may additionally wait
    /// behind earlier-queued packets of other sessions, so the paper's
    /// per-session lateness allowance no longer applies and the oracle
    /// swaps that check for the interleaved-regulator release-order and
    /// shaping-delay invariants.
    pub fn regulator(mut self, backend: RegulatorBackend) -> Self {
        self.regulator = backend;
        self
    }

    /// Partition the nodes across `n` shard workers, each running its own
    /// event loop inside conservative lookahead windows (default: 1, the
    /// one-shard driver). Results are byte-identical across every count
    /// `n ≥ 2`; they also match one shard whenever no two network events
    /// share an instant (staggered sources). With same-instant ties the
    /// drivers may order concurrent packets of *different* sessions at
    /// one node differently — one shard breaks ties in event-set push
    /// order, `k` shards in canonical content order; see [`crate::shard`].
    /// Falls back to one shard when a probe is installed, the oracle is
    /// in panic mode, or a cross-shard link has zero propagation delay
    /// (no lookahead); the degrade bumps
    /// [`crate::shard::shard_fallbacks`] and shows in
    /// [`Network::shard_count`].
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Install an observability probe (default: none). With no probe and
    /// the oracle off, each lifecycle point of the node step pays one
    /// untaken branch and never materializes a [`lit_obs::PacketView`] —
    /// the zero-cost-when-off contract.
    pub fn probe(mut self, probe: Box<dyn Probe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Enable the online conformance oracle (default: off). See
    /// [`crate::oracle`] for what is checked; per-session bound constants
    /// are installed after `build` via `lit_core::install_oracle_bounds`.
    pub fn oracle(mut self, cfg: OracleConfig) -> Self {
        self.oracle = cfg;
        self
    }

    /// Select the eligible-queue implementation used by every node
    /// (default: exact deadline order). See [`QueueKind`].
    pub fn queue_kind(mut self, kind: QueueKind) -> Self {
        self.queue_kind = kind;
        self
    }

    /// Select the engine of the future-event set (default:
    /// [`EventBackend::Heap`]). All three backends pop the identical
    /// event sequence, so this is purely a performance knob; only the
    /// heap has lanes for sorted runs (periodic injections, per-session
    /// regulator releases), under the other two every event is pushed
    /// alike. Measured by `lit-bench`'s traced pass against the heap, one
    /// pass per workload: the wheel costs +52…+76 ns/event and the
    /// calendar +22…+29 on the shallow-event-set workloads; at 1.5e5
    /// pending events, where the heap keeps 5 and lanes the rest, the
    /// wheel costs +58 and the calendar +42.
    pub fn event_backend(mut self, backend: EventBackend) -> Self {
        self.event_backend = backend;
        self
    }

    /// Set the master seed from which every session's RNG stream derives.
    pub fn seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Override statistics sizing.
    pub fn stats(mut self, cfg: StatsConfig) -> Self {
        self.stats_cfg = cfg;
        self
    }

    /// Add a server node with the given outgoing link; returns its id.
    pub fn add_node(&mut self, link: LinkParams) -> NodeId {
        let id = NodeId(self.topo.links.len() as u32);
        self.topo.links.push(link);
        id
    }

    /// Add `n` nodes in tandem with identical links (the paper's Figure 6
    /// topology is `tandem(5, LinkParams::paper_t1())`).
    pub fn tandem(&mut self, n: usize, link: LinkParams) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node(link)).collect()
    }

    /// Add a session traversing `route`, fed by `source`, using the
    /// spec's default delay assignment at every hop. Returns the assigned
    /// session id (the spec's `id` field is overwritten).
    pub fn add_session(
        &mut self,
        spec: SessionSpec,
        route: &[NodeId],
        source: Box<dyn Source>,
    ) -> SessionId {
        self.push_session(spec, route.iter().map(|n| (n.0, spec.delay)), source)
    }

    /// Add a session with an explicit per-hop delay assignment (delay
    /// shifting can differ node by node).
    ///
    /// # Panics
    /// Panics on an empty route or an unknown node id.
    pub fn add_session_with_hops(
        &mut self,
        spec: SessionSpec,
        hops: impl IntoIterator<Item = (u32, DelayAssignment)>,
        source: Box<dyn Source>,
    ) -> SessionId {
        self.push_session(spec, hops, source)
    }

    /// The one way a session joins: its spec, then its hops straight into
    /// the flat route table (a session owns no vector), then its source.
    fn push_session(
        &mut self,
        mut spec: SessionSpec,
        hops: impl IntoIterator<Item = (u32, DelayAssignment)>,
        source: Box<dyn Source>,
    ) -> SessionId {
        let id = SessionId(self.sources.len() as u32);
        spec.id = id;
        let topo = &mut self.topo;
        let start = topo.hops.len();
        for (n, delay) in hops {
            assert!(
                (n as usize) < topo.links.len(),
                "route references unknown node {n}"
            );
            if topo.delays.last() != Some(&delay) {
                topo.delays.push(delay);
            }
            let at = u32::try_from(topo.delays.len() - 1).expect("fewer delays than hops");
            topo.hops.push((n, at));
        }
        assert!(topo.hops.len() > start, "session route is empty");
        let end = u32::try_from(topo.hops.len()).expect("routes pass u32::MAX hops in all");
        topo.route_start.push(end);
        topo.specs.push(SpecRow::new(&spec));
        self.sources.push(source);
        id
    }

    /// Instantiate the network, creating one discipline per node and
    /// registering every session at every node it traverses. One shard
    /// owns every node unless [`NetworkBuilder::shards`] asked for more
    /// *and* sharding is admissible (see [`Self::shards`]).
    pub fn build(self, factory: &DisciplineFactory<'_>) -> Network {
        let nshards = self.effective_shards();
        if nshards <= 1 && self.shards > 1 {
            crate::shard::record_fallback();
        }
        let n_nodes = self.topo.links.len();
        let owner = |node: u32| owner_of(node as usize, n_nodes, nshards);
        let (mut topo, sources) = (self.topo, self.sources);
        // The tables grew by doubling and are final now.
        topo.specs.shrink_to_fit();
        topo.hops.shrink_to_fit();
        topo.delays.shrink_to_fit();
        topo.route_start.shrink_to_fit();
        let topo = Arc::new(topo);
        let blank = BlankRows::new(&self.stats_cfg);

        let mut shards: Vec<Shard> = (0..nshards)
            .map(|id| {
                let mut events = EventQueue::with_backend(self.event_backend);
                let core = NodeCore::new(
                    Arc::clone(&topo),
                    |n| owner(n as u32) == id,
                    factory,
                    self.queue_kind,
                    self.oracle,
                    self.regulator,
                    &mut events,
                );
                Shard::new(id, nshards, core, events)
            })
            .collect();

        // Sources of one period on one shard fire in a fixed cyclic order:
        // a sorted run, which gets an event-set lane. Count first — a
        // period only one source has stays on the heap, so there are never
        // more lanes than half the sessions.
        let first_owner = |sid: usize| owner(topo.route(sid)[0].0);
        let mut periods: BTreeMap<(usize, Duration), (usize, Option<Lane>)> = BTreeMap::new();
        for (sid, source) in sources.iter().enumerate() {
            if let Some(period) = source.period() {
                periods.entry((first_owner(sid), period)).or_default().0 += 1;
            }
        }

        // Register sessions: disciplines and a stats row on each hop's
        // owner, the injector (with its RNG from the global per-session
        // seed sequence — identical streams for every shard count) on
        // the first hop's owner.
        let mut seeds = SeedSeq::new(self.master_seed);
        for (sid, (route, source)) in topo.routes().zip(sources).enumerate() {
            let rng = seeds.next_rng();
            for &(node, delay) in route {
                shards[owner(node)].core.register_hop(
                    SessionId(sid as u32),
                    node,
                    &topo.delays[delay as usize],
                    &blank,
                );
            }
            let first = &mut shards[first_owner(sid)];
            let events = &mut first.sink.events;
            let lane = source
                .period()
                .and_then(|period| periods.get_mut(&(first_owner(sid), period)))
                .filter(|(sharing, _)| *sharing >= 2)
                .map(|(sharing, lane)| {
                    // One pending injection per source: the lane never
                    // holds more than `sharing`.
                    *lane.get_or_insert_with(|| events.lane_with_capacity(*sharing))
                });
            if let Some(at) = first.core.install_injector(sid, source, rng, lane) {
                let ev = Ev::Inject { sid: sid as u32 };
                match lane {
                    Some(lane) => events.push_lane(lane, at, ev),
                    None => events.push(at, ev),
                }
            }
        }

        let lookahead_ps = if nshards > 1 {
            crate::shard::wire(&mut shards, &topo)
        } else {
            u64::MAX
        };
        if let Some(mut p) = self.probe {
            let session_hops: Vec<usize> = topo.routes().map(<[_]>::len).collect();
            p.on_build(self.master_seed, n_nodes, &session_hops);
            // A probe forces one shard, so shard 0 sees every hook.
            shards[0].core.set_probe(Some(p));
        }

        let mut net = Network {
            topo,
            shards,
            lookahead_ps,
            blank,
            merged_sessions: Vec::new(),
            merged_nodes: Vec::new(),
        };
        net.merge();
        net
    }

    /// The shard count `build` will actually use: the requested count,
    /// clamped to the node count, degraded to 1 whenever lookahead
    /// windows cannot reproduce one-shard observability — a probe hooks
    /// every dispatch in global order, panic-mode oracling must stop at
    /// the *first* violation globally — or whenever a cross-shard hop
    /// has zero propagation delay, which would make the conservative
    /// lookahead window empty.
    fn effective_shards(&self) -> usize {
        let links = &self.topo.links;
        let s = self.shards.min(links.len()).max(1);
        if s <= 1 || self.probe.is_some() || self.oracle.mode == OracleMode::Panic {
            return 1;
        }
        let owner = |node: u32| owner_of(node as usize, links.len(), s);
        let zero_lookahead = self.topo.routes().any(|route| {
            route.windows(2).any(|w| {
                owner(w[0].0) != owner(w[1].0)
                    && links[w[0].0 as usize].propagation == Duration::ZERO
            })
        });
        if zero_lookahead {
            1
        } else {
            s
        }
    }
}

/// Exact counters of the future-event sets behind a [`Network`]
/// ([`Network::event_set_stats`]): no clock is read for them, and they
/// repeat run for run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventSetStats {
    /// Most events the heap ever held at once — what a pop sifts
    /// through; events waiting in lanes are not in it. Each shard's own
    /// high-water mark, added up.
    pub heap_high_water: u64,
    /// Events scheduled through a lane (`Inject` of a periodic source,
    /// `Eligible` of a per-session regulator) that kept it sorted.
    pub lane_appended: u64,
    /// Lane pushes that would have broken the lane's order and went to
    /// the heap instead. Always zero under the calendar and the wheel,
    /// which have no lanes.
    pub lane_fell_back: u64,
}

/// The network: topology + sessions + node-step cores + accumulated
/// statistics.
///
/// One `crate::node::NodeCore` per shard does all the work; with one
/// shard its rows *are* the statistics, with `k ≥ 2` the field-disjoint
/// per-shard rows are merged after every [`Network::run_until`].
/// Statistics, traces and oracle counts are byte-identical across all
/// `k ≥ 2`, and match one shard whenever no two events share an instant
/// — see [`NetworkBuilder::shards`] for the tie-order caveat on
/// tie-heavy workloads, and [`Network::shard_count`] for which driver
/// actually ran.
pub struct Network {
    topo: Arc<Topology>,
    /// One entry: the one-shard driver. More: the k-shard driver.
    shards: Vec<Shard>,
    /// Minimum cross-shard propagation delay (the lookahead `L`).
    lookahead_ps: u64,
    /// The empty rows the merged view starts from.
    blank: BlankRows,
    /// The merged view of the shards' rows; empty with one shard, whose
    /// rows are read in place.
    merged_sessions: Vec<SessionStats>,
    merged_nodes: Vec<NodeStats>,
}

impl Network {
    /// Advance the simulation until no event at or before `until` remains.
    /// May be called repeatedly with growing horizons.
    pub fn run_until(&mut self, until: Time) {
        match self.shards.as_mut_slice() {
            [one] => one.run_fifo(until),
            many => crate::shard::run_windows(many, self.lookahead_ps, until),
        }
        for shard in &mut self.shards {
            shard.core.now = shard.core.now.max(until);
        }
        self.merge();
    }

    /// Rebuild the merged statistics view from the shards' field-disjoint
    /// rows, in fixed shard order (commutative merges make the order a
    /// formality, but fixing it keeps float accumulations bit-stable).
    /// Nothing to do with one shard.
    fn merge(&mut self) {
        if self.shards.len() < 2 {
            return;
        }
        self.merged_sessions = (0..self.topo.specs.len())
            .map(|sid| {
                let mut row = SessionStats::new(&self.blank, self.topo.route(sid).len());
                for st in self
                    .shards
                    .iter()
                    .filter_map(|s| s.core.stats[sid].as_ref())
                {
                    row.absorb(st);
                }
                row
            })
            .collect();
        let (n_nodes, k) = (self.topo.links.len(), self.shards.len());
        self.merged_nodes = (0..n_nodes)
            .map(|n| self.shards[owner_of(n, n_nodes, k)].core.node_stats[n].clone())
            .collect();
    }

    /// The core that owns `node`.
    fn owner_mut(&mut self, node: usize) -> &mut NodeCore {
        let sh = owner_of(node, self.topo.links.len(), self.shards.len());
        &mut self.shards[sh].core
    }

    /// Current simulation clock (every core's, after `run_until`).
    pub fn now(&self) -> Time {
        self.shards[0].core.now
    }

    /// Statistics of one session.
    pub fn session_stats(&self, id: SessionId) -> &SessionStats {
        match self.shards.as_slice() {
            [one] => one.core.stats[id.index()].as_ref(),
            _ => self.merged_sessions.get(id.index()),
        }
        .expect("unknown session id")
    }

    /// Statistics of one node.
    pub fn node_stats(&self, id: NodeId) -> &NodeStats {
        match self.shards.as_slice() {
            [one] => &one.core.node_stats[id.index()],
            _ => &self.merged_nodes[id.index()],
        }
    }

    /// The spec a session was registered with, its `delay` the
    /// assignment at its first hop ([`Network::session_hops`] has them
    /// all).
    pub fn session_spec(&self, id: SessionId) -> SessionSpec {
        let (_, first) = self.topo.route(id.index())[0];
        self.topo.specs[id.index()].spec(id, self.topo.delays[first as usize])
    }

    /// Number of sessions.
    pub fn num_sessions(&self) -> usize {
        self.topo.specs.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.topo.links.len()
    }

    /// The per-hop delay assignments of a session (node index, assignment),
    /// in route order.
    pub fn session_hops(
        &self,
        id: SessionId,
    ) -> impl ExactSizeIterator<Item = (u32, DelayAssignment)> + '_ {
        let delays = &self.topo.delays;
        let route = self.topo.route(id.index()).iter();
        route.map(|&(node, d)| (node, delays[d as usize]))
    }

    /// The outgoing-link parameters of a node.
    pub fn node_link(&self, id: NodeId) -> &LinkParams {
        &self.topo.links[id.index()]
    }

    /// Install the conformance-oracle bound constants for one session
    /// (normally done for every session by
    /// `lit_core::install_oracle_bounds`). No-op when the oracle is off.
    pub fn set_session_bounds(&mut self, id: SessionId, bounds: SessionBounds) {
        for shard in &mut self.shards {
            if let Some(slot) = shard.core.oracle.bounds.get_mut(id.index()) {
                *slot = Some(bounds);
            }
        }
    }

    /// Total events ever scheduled (a proxy for simulation work, used by
    /// the overhead-guard benchmark): event-set pushes plus, under the
    /// k-shard driver, same-instant group appends. Invariant across
    /// shard counts: same workload, same count.
    pub fn event_count(&self) -> u64 {
        self.shards.iter().map(Shard::event_count).sum()
    }

    /// What the future-event sets did, summed over the shards.
    pub fn event_set_stats(&self) -> EventSetStats {
        let mut sum = EventSetStats::default();
        for events in self.shards.iter().map(|s| &s.sink.events) {
            let (appended, fell_back) = events.lane_pushes();
            sum.heap_high_water += events.heap_high_water();
            sum.lane_appended += appended;
            sum.lane_fell_back += fell_back;
        }
        sum
    }

    /// Remove the installed observability probe. Callers that install a
    /// concrete probe use this plus `Probe::as_any` to read the recorded
    /// registries back; take it *after* [`Network::oracle_drain_check`]
    /// so drain-time violations are part of what it recorded.
    pub fn take_probe(&mut self) -> Option<Box<dyn Probe>> {
        self.shards.first_mut()?.core.set_probe(None)
    }

    /// Total conformance-oracle violations recorded by this network.
    pub fn oracle_violations(&self) -> u64 {
        self.oracle_totals().total()
    }

    /// Violation counts by kind, summed over the shards' cores.
    pub fn oracle_totals(&self) -> OracleTotals {
        let mut t = OracleTotals::default();
        for shard in &self.shards {
            t.absorb(&shard.core.oracle.totals);
        }
        t
    }

    /// Drain-time checks: (a) ineq. 16 — for every session with installed
    /// bounds, the end-to-end delay histogram must sit under the
    /// reference histogram shifted right by `β + α`, compared on absolute
    /// counts; (b) workload-conservation sanity (the Kruk et al.
    /// heavy-traffic premise) — every node's accumulated busy time must
    /// equal the service time of the bits it transmitted. Both sides of
    /// each comparison are whole-run, so they read the merged view; a
    /// failure is recorded on the core that owns the session's last hop
    /// or the node. Returns the number of sessions plus nodes that
    /// failed. Nothing runs it implicitly: a network dropped without it
    /// has not had these two checks.
    pub fn oracle_drain_check(&mut self) -> u64 {
        if !self.shards[0].core.oracle.enabled() {
            return 0;
        }
        let (now, mut failed) = (self.now(), 0);
        for sid in 0..self.topo.specs.len() {
            // Every core holds the same installed bounds.
            let Some(b) = self.shards[0].core.oracle.bounds[sid] else {
                continue;
            };
            let st = self.session_stats(SessionId(sid as u32));
            if st.delivered == 0 {
                continue;
            }
            let Some((d_ps, lhs, rhs)) = ccdf_shift_violation(&st.e2e, &st.reference, b.shift_ps)
            else {
                continue;
            };
            failed += 1;
            let last_node = self.topo.route(sid).last().map_or(0, |h| h.0 as usize);
            let whole = PacketView {
                session: sid as u32,
                ..PacketView::default()
            };
            let core = self.owner_mut(last_node);
            core.violate(ViolationKind::CcdfBound, now, (u32::MAX, whole), || {
                format!(
                    "session {sid}: {lhs} packets with D > {d_ps} ps, but only \
                     {rhs} with D^ref > {} ps (shift {} ps)",
                    d_ps - b.shift_ps,
                    b.shift_ps
                )
            });
        }
        // Workload conservation over [0, now], per node: busy time must
        // equal the service time of the transmitted bits. Slack: ±1 ps
        // per packet (each tx time rounds to the nearest picosecond, and
        // so does the recomputed total) plus one L_MAX/C upward for a
        // packet still on the wire at the horizon, whose open busy
        // interval is closed virtually while its bits are not yet
        // counted.
        for n in 0..self.topo.links.len() {
            let link = self.topo.links[n];
            let nst = self.node_stats(NodeId(n as u32));
            let service_ps = i128::from(Duration::from_bits_at_rate(
                nst.bits_transmitted,
                link.rate_bps,
            ));
            let busy_ps = i128::from(nst.busy.busy_at(now));
            let transmitted = nst.transmitted;
            let count = transmitted as i128;
            let lmax_ps = i128::from(link.lmax_time());
            if busy_ps >= service_ps - count && busy_ps <= service_ps + count + lmax_ps {
                continue;
            }
            failed += 1;
            let nobody = PacketView {
                session: u32::MAX,
                ..PacketView::default()
            };
            let detail = || {
                format!(
                    "node {n}: busy {busy_ps} ps over [0, {now}] vs {service_ps} ps \
                     of transmitted service ({transmitted} packets, allowance ±{count} ps \
                     + {lmax_ps} ps in flight)"
                )
            };
            let core = self.owner_mut(n);
            core.violate(
                ViolationKind::WorkConservation,
                now,
                (n as u32, nobody),
                detail,
            );
        }
        if failed > 0 {
            self.merge(); // the marks landed on per-shard rows
        }
        failed
    }

    /// How many shard workers the built network actually uses (1 for the
    /// one-shard driver, including every fallback case).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}
