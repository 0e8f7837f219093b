//! The [`Probe`] trait the network executor drives, plus the two
//! implementations: [`NoopProbe`] (every hook is the default no-op) and
//! [`ObsProbe`] (records into an [`ObsShard`] and a [`TraceRing`]).
//!
//! The executor holds an `Option<Box<dyn Probe>>`. With no probe and the
//! oracle off (the default) each lifecycle point is one untaken branch and
//! no [`PacketView`] is ever materialized — that is the
//! "zero-cost-when-off" contract the CI overhead guard enforces. With a
//! probe, hooks fire at packet arrival, regulator release, service start,
//! departure and on every conformance-oracle violation.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use crate::metrics::ObsShard;
use crate::trace::{TraceEvent, TraceKind, TraceRing};
use lit_sim::{Duration, Time};
use std::any::Any;

/// A probe's view of a packet: the identity and timing fields every hook
/// needs, decoupled from the network's own packet type (which lives in a
/// crate that depends on this one).
#[derive(Clone, Copy, Debug, Default)]
pub struct PacketView {
    /// Owning session id.
    pub session: u32,
    /// Per-session sequence number (1-based, as the paper counts).
    pub seq: u64,
    /// Hop index along the session's route.
    pub hop: u32,
    /// Packet length, bits.
    pub len_bits: u32,
    /// Generation time at the first server.
    pub created: Time,
    /// Last-bit arrival time at the current node.
    pub arrived: Time,
}

/// Observability hooks called by the network executor. Every method has
/// a no-op default, so implementations override only what they consume
/// and the compiler can erase unused hooks entirely.
pub trait Probe: Send {
    /// Called once from `NetworkBuilder::build` with the final topology:
    /// the master seed, the node count, and each session's hop count —
    /// everything a dense registry needs to size itself up front.
    fn on_build(&mut self, _master_seed: u64, _nodes: usize, _session_hops: &[usize]) {}

    /// A packet's last bit arrived at `node`. `eligible_depth` is the
    /// node's eligible-queue population and `event_depth` the future-
    /// event-set population, both sampled at this instant.
    fn on_arrive(
        &mut self,
        _now: Time,
        _node: u32,
        _pkt: PacketView,
        _eligible_depth: usize,
        _event_depth: usize,
    ) {
    }

    /// The regulator released a held packet (`E > arrival` only);
    /// `held` is the holding time `E − arrival` of eq. 8–9.
    fn on_eligible(&mut self, _now: Time, _node: u32, _pkt: PacketView, _held: Duration) {}

    /// The packet won the eligible queue and service started.
    fn on_dispatch(&mut self, _now: Time, _node: u32, _pkt: PacketView) {}

    /// The packet's last bit left the node. `slack_ps` is the deadline
    /// slack `F − departure` (negative = late); `delivered` marks the
    /// final hop.
    fn on_depart(
        &mut self,
        _now: Time,
        _node: u32,
        _pkt: PacketView,
        _slack_ps: i64,
        _delivered: bool,
    ) {
    }

    /// The conformance oracle recorded a violation; `tag` names the
    /// violated inequality (`ViolationKind::label`). `node` is
    /// `u32::MAX` for session-level checks.
    fn on_violation(
        &mut self,
        _now: Time,
        _tag: &'static str,
        _session: u32,
        _seq: u64,
        _node: u32,
    ) {
    }

    /// Downcast support, so callers that installed a concrete probe can
    /// take it back out of the network and read its registries directly.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }
}

/// The trivial probe: every hook is the inherited no-op. Exists mostly
/// as documentation of the disabled path and for tests that need *a*
/// probe without caring what it records.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// The recording probe: metrics into an [`ObsShard`], lifecycle events
/// into a [`TraceRing`].
#[derive(Debug, Default)]
pub struct ObsProbe {
    /// The metrics registry (sized at `on_build`).
    pub shard: ObsShard,
    /// The lifecycle trace.
    pub trace: TraceRing,
    /// Master seed of the observed network (stamped at `on_build`).
    pub seed: u64,
}

/// How many leading events a tracing [`ObsProbe`] retains exactly.
pub(crate) const TRACE_HEAD_CAP: usize = 64;

impl ObsProbe {
    /// A probe tracing into a ring of the given tail capacity (0 =
    /// metrics only, no trace storage).
    pub fn new(trace_cap: usize) -> Self {
        ObsProbe {
            shard: ObsShard::default(),
            trace: TraceRing::new(if trace_cap == 0 { 0 } else { TRACE_HEAD_CAP }, trace_cap),
            seed: 0,
        }
    }

    /// `inline(always)`: the hooks run on the simulator's hot path and
    /// without the hint the 72-byte [`TraceEvent`] is memcpy'd through
    /// two call frames before it reaches the ring slot.
    #[inline(always)]
    fn record(&mut self, e: TraceEvent) {
        if self.trace.enabled() {
            self.trace.record(e);
        }
    }
}

/// The trace event of stage `kind` for `pkt` at `node` and `now`, its
/// kind-specific fields empty.
#[inline(always)]
fn event(kind: TraceKind, now: Time, node: u32, pkt: PacketView) -> TraceEvent {
    TraceEvent {
        kind,
        t_ps: now.as_ps(),
        session: pkt.session,
        seq: pkt.seq,
        node,
        hop: pkt.hop,
        len_bits: pkt.len_bits,
        aux_ps: 0,
        start_ps: 0,
        delivered: false,
        tag: "",
    }
}

impl Probe for ObsProbe {
    fn on_build(&mut self, master_seed: u64, nodes: usize, session_hops: &[usize]) {
        self.seed = master_seed;
        self.shard = ObsShard::sized(nodes, session_hops);
    }

    fn on_arrive(
        &mut self,
        now: Time,
        node: u32,
        pkt: PacketView,
        eligible_depth: usize,
        event_depth: usize,
    ) {
        // Ids outside the topology declared at `on_build` skip the dense
        // registries (an observer must never panic the simulation); the
        // id-agnostic trace below still records the event.
        if let Some(n) = self.shard.nodes.get_mut(node as usize) {
            n.arrivals += 1;
            n.eligible_depth.record(eligible_depth as u64);
        }
        self.shard.event_depth.record(event_depth as u64);
        self.record(event(TraceKind::Arrive, now, node, pkt));
    }

    fn on_eligible(&mut self, now: Time, node: u32, pkt: PacketView, held: Duration) {
        if let Some(h) = self
            .shard
            .sessions
            .get_mut(pkt.session as usize)
            .and_then(|s| s.hops.get_mut(pkt.hop as usize))
        {
            h.held += 1;
            h.holding_ps.record(held.as_ps());
        }
        let aux_ps = held.as_ps().min(i64::MAX as u64) as i64;
        self.record(TraceEvent {
            aux_ps,
            ..event(TraceKind::Eligible, now, node, pkt)
        });
    }

    fn on_dispatch(&mut self, now: Time, node: u32, pkt: PacketView) {
        if let Some(n) = self.shard.nodes.get_mut(node as usize) {
            n.dispatches += 1;
        }
        if let Some(h) = self
            .shard
            .sessions
            .get_mut(pkt.session as usize)
            .and_then(|s| s.hops.get_mut(pkt.hop as usize))
        {
            h.dispatches += 1;
        }
        self.record(event(TraceKind::Dispatch, now, node, pkt));
    }

    fn on_depart(&mut self, now: Time, node: u32, pkt: PacketView, slack_ps: i64, delivered: bool) {
        if let Some(n) = self.shard.nodes.get_mut(node as usize) {
            n.departures += 1;
            n.served_bits += u64::from(pkt.len_bits);
            n.slack_ps.record(slack_ps);
        }
        if let Some(s) = self.shard.sessions.get_mut(pkt.session as usize) {
            s.served_bits += u64::from(pkt.len_bits);
            if delivered {
                s.delivered += 1;
            }
        }
        self.record(TraceEvent {
            aux_ps: slack_ps,
            start_ps: pkt.arrived.as_ps(),
            delivered,
            ..event(TraceKind::Depart, now, node, pkt)
        });
    }

    fn on_violation(&mut self, now: Time, tag: &'static str, session: u32, seq: u64, node: u32) {
        *self.shard.violations.entry(tag.to_string()).or_insert(0) += 1;
        let pkt = PacketView {
            session,
            seq,
            ..PacketView::default()
        };
        let e = event(TraceKind::Violation, now, node, pkt);
        self.record(TraceEvent { tag, ..e });
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(session: u32, seq: u64, hop: u32) -> PacketView {
        PacketView {
            session,
            seq,
            hop,
            len_bits: 424,
            created: Time::ZERO,
            arrived: Time::from_us(5),
        }
    }

    #[test]
    fn obs_probe_records_lifecycle_into_shard_and_ring() {
        let mut p = ObsProbe::new(128);
        p.on_build(42, 2, &[2]);
        assert_eq!(p.seed, 42);
        let t = Time::from_us(10);
        p.on_arrive(t, 0, view(0, 1, 0), 3, 17);
        p.on_eligible(t, 0, view(0, 1, 0), Duration::from_us(2));
        p.on_dispatch(t, 0, view(0, 1, 0));
        p.on_depart(t, 0, view(0, 1, 0), -700, false);
        p.on_depart(t, 1, view(0, 1, 1), 900, true);
        p.on_violation(t, "delay-bound (ineq. 12/15)", 0, 1, u32::MAX);

        assert_eq!(p.shard.nodes[0].arrivals, 1);
        assert_eq!(p.shard.nodes[0].eligible_depth.max(), 3);
        assert_eq!(p.shard.event_depth.max(), 17);
        assert_eq!(p.shard.sessions[0].hops[0].held, 1);
        assert_eq!(
            p.shard.sessions[0].hops[0].holding_ps.max(),
            Duration::from_us(2).as_ps()
        );
        assert_eq!(p.shard.sessions[0].hops[0].dispatches, 1);
        assert_eq!(p.shard.nodes[0].slack_ps.neg.count(), 1);
        assert_eq!(p.shard.nodes[1].slack_ps.pos.count(), 1);
        assert_eq!(p.shard.sessions[0].delivered, 1);
        assert_eq!(p.shard.sessions[0].served_bits, 848);
        assert_eq!(p.shard.violation_total(), 1);
        assert_eq!(p.trace.total(), 6);
        let kinds: Vec<TraceKind> = p.trace.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Arrive,
                TraceKind::Eligible,
                TraceKind::Dispatch,
                TraceKind::Depart,
                TraceKind::Depart,
                TraceKind::Violation
            ]
        );
    }

    #[test]
    fn metrics_only_probe_stores_no_trace() {
        let mut p = ObsProbe::new(0);
        p.on_build(1, 1, &[1]);
        p.on_arrive(Time::from_us(1), 0, view(0, 1, 0), 0, 1);
        assert_eq!(p.shard.nodes[0].arrivals, 1);
        assert!(p.trace.events().is_empty());
    }

    #[test]
    fn noop_probe_compiles_to_defaults() {
        let mut p = NoopProbe;
        p.on_build(0, 4, &[1, 2]);
        p.on_arrive(Time::ZERO, 0, view(0, 1, 0), 0, 0);
        assert!(p.as_any().is_none());
    }

    #[test]
    fn downcast_roundtrip() {
        let p: Box<dyn Probe> = Box::new(ObsProbe::new(8));
        let any = p.as_any().expect("ObsProbe downcasts");
        assert!(any.downcast_ref::<ObsProbe>().is_some());
    }
}
