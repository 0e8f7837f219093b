//! The two drivers of the node step: an event-set FIFO loop over one
//! shard, and per-core event loops over `k` shards coupled through
//! conservative lookahead windows.
//!
//! Both drive the same `NodeCore` step functions; a `Shard` is a core
//! plus the future-event set that feeds it. The **one-shard driver**
//! (`Shard::run_fifo`) owns every node, pops events in event-set order
//! (FIFO among equal timestamps) and pushes everything the core emits
//! straight back: no barrier, no mailbox, no tie sort. The rest of this
//! module is the **k-shard driver**.
//!
//! # Partitioning
//!
//! Each server node owns exactly one outgoing link, so nodes are the unit
//! of parallelism: [`owner_of`] assigns node `n` of `N` to shard
//! `n·S/N` — contiguous blocks, so a tandem route stays on one shard
//! until it genuinely crosses a block boundary. A shard's core owns,
//! besides its nodes' disciplines/queues/links, the injectors of every
//! session whose *first* hop it owns, the statistics rows it touches, and
//! a private packet arena and simulation clock.
//!
//! # The lookahead window (conservative PDES)
//!
//! Let `L` be the minimum propagation delay over every *cross-shard*
//! consecutive hop pair of any route (builder refuses to shard when that
//! minimum is zero). The run loop alternates compute and exchange:
//!
//! 1. every shard publishes the timestamp of its earliest local event;
//!    a barrier makes the global minimum `T_min` common knowledge;
//! 2. every shard processes its local events with `t < T_min + L`
//!    (the *window*, exclusive at the horizon), sending cross-shard
//!    packet handoffs as it goes;
//! 3. a second barrier ends the window; every shard drains its inboxes
//!    into its event set and the loop repeats.
//!
//! This is safe because a handoff sent at `τ ≥ T_min` arrives at
//! `τ + propagation ≥ T_min + L`: nothing received at a barrier can ever
//! be earlier than the horizon the receiver already processed up to.
//!
//! # Determinism
//!
//! Identical results for every shard count is a hard requirement, so
//! within one shard events are *not* processed in future-event-set FIFO
//! order (which would depend on cross-shard push interleavings). Instead
//! the shard drains the whole group of events sharing the current
//! instant and sorts it by a content-derived tie key — `(kind, session,
//! hop, seq)`, with kind ranked Inject < Arrive < Eligible < RegFire <
//! TxDone —
//! which is unique per event and independent of arrival order. Events a
//! shard *generates at the current instant* (zero-propagation forwards,
//! next-emission injects at the same tick) are appended to the group
//! tail in generation order, mirroring the FIFO tail-append of a
//! heap-based loop. By induction over instants, each shard's processing
//! sequence is the restriction of the one canonical global sequence to
//! the events it owns: same-instant causal chains never cross shards
//! (cross-shard hops have propagation ≥ L > 0), so node-local histories
//! — and therefore all statistics, delivery logs and oracle counts —
//! are byte-identical for every admissible shard count **≥ 2**.
//!
//! Versus the one-shard driver the guarantee is conditional: it
//! dispatches same-instant ties in event-set push order, a global FIFO
//! notion no shard can reconstruct, so two sessions' packets hitting one
//! idle link at the same picosecond may transmit in different orders
//! under the two drivers (e.g. phase-aligned CBR fan-in). One shard ≡ k
//! shards holds exactly when no two network events share an instant —
//! which staggered sources guarantee and `tests/shard_determinism.rs`
//! pins; the repro fuzzer compares shard counts against each other on
//! arbitrary traffic instead.
//!
//! # Mailboxes
//!
//! Cross-shard handoffs travel by value ([`Packet`] is `Copy`) through a
//! fixed-capacity [`std::sync::mpsc::sync_channel`] per directed shard
//! pair that actually has a route edge. A full channel never blocks the
//! sender mid-window (that could deadlock the barrier): the sender flips
//! to a mutex-guarded spill vector for the rest of the window, and the
//! receiver drains channel-then-spill after the barrier, preserving
//! per-pair FIFO order. Senders and receivers never touch a mailbox
//! concurrently — sends happen strictly between the two barriers,
//! drains strictly after the second — the spill mutex is only ever
//! uncontended, and the channel is merely a bounded SPSC buffer.
//!
//! # Fallbacks
//!
//! [`crate::NetworkBuilder::build`] picks the one-shard driver whenever
//! windows cannot reproduce its observability: a probe is installed
//! (hooks fire in global dispatch order), the oracle is in panic mode
//! (must stop at the *first* violation globally), a cross-shard hop has
//! zero propagation (empty lookahead), or fewer than two shards survive
//! clamping to the node count. The degrade is not silent: every
//! occurrence bumps the process-global [`shard_fallbacks`] counter, and
//! the driver in use is observable via [`crate::Network::shard_count`].

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

use crate::node::{Ev, NodeCore, Sink, Topology};
use crate::packet::Packet;
use lit_sim::{EventQueue, Lane, Time};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Barrier, Mutex};

/// Which shard owns node `node` of `n_nodes` when running `shards`
/// shards: contiguous blocks of `⌈N/S⌉`-ish size, computed without
/// rounding drift as `node·S/N`.
pub fn owner_of(node: usize, n_nodes: usize, shards: usize) -> usize {
    debug_assert!(node < n_nodes && shards >= 1);
    node * shards / n_nodes
}

/// Process-global count of builds that requested ≥ 2 shards but got the
/// one-shard driver (probe installed, panic-mode oracle, a
/// zero-lookahead cross-shard edge, or fewer than two nodes). The
/// fallback keeps results valid, but it silently changes which driver a
/// run measures, so it is counted instead of hidden: harnesses can
/// assert the k-shard driver actually ran (see also
/// [`crate::Network::shard_count`]), and `lit-repro` prints a notice
/// when a `--shards` request degraded.
static SHARD_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// How many builds so far degraded a ≥ 2 shard request to one shard
/// (see [`crate::NetworkBuilder::shards`] for the fallback cases).
pub fn shard_fallbacks() -> u64 {
    SHARD_FALLBACKS.load(Ordering::Relaxed)
}

/// Record one degraded build (called by `NetworkBuilder::build`).
pub(crate) fn record_fallback() {
    SHARD_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Mailbox capacity per directed shard pair; overflow spills to a
/// mutex-guarded vector for the remainder of the window.
const MAILBOX_CAP: usize = 1024;

/// A cross-shard packet handoff: arrive at `at` on the receiving shard.
struct Handoff {
    at: Time,
    pkt: Packet,
}

/// The canonical same-instant ordering key: unique per event (a session
/// has one packet per `(hop, seq)` in flight, a node one transmission)
/// and derived from content only, never from queue arrival order.
fn tie_key(core: &NodeCore, ev: &Ev) -> (u8, u32, u32, u64) {
    let of = |kind, p| {
        core.packet(p)
            .map_or((kind, u32::MAX, u32::MAX, u64::MAX), |k| {
                (kind, k.session.0, k.hop, k.seq)
            })
    };
    match *ev {
        Ev::Inject { sid } => (0, sid, 0, 0),
        Ev::Arrive { p } => of(1, p),
        Ev::Eligible { p, .. } => of(2, p),
        Ev::RegFire { node, .. } => (3, node, 0, 0),
        Ev::TxDone { node } => (4, node, 0, 0),
    }
}

/// What a windowed shard's core emits into: the shard's event set, the
/// same-instant group being dispatched, and the mailboxes to its peers.
/// The one-shard driver bypasses all but `events`.
pub(crate) struct ShardSink {
    pub(crate) events: EventQueue<Ev>,
    /// The instant of the group being dispatched (the core's clock).
    now: Time,
    /// Same-instant event group: sorted on entry, appended to while it
    /// is dispatched (capacity persists).
    group: Vec<Ev>,
    /// Same-instant events appended to the group tail instead of the
    /// event set; `events.pushed() + appended` is the event count the
    /// one-shard driver would report.
    appended: u64,
    id: usize,
    nshards: usize,
    n_nodes: usize,
    /// Outgoing mailboxes, one per destination shard with a route edge.
    outboxes: Vec<Option<SyncSender<Handoff>>>,
    /// Incoming mailboxes, one per source shard with a route edge.
    inboxes: Vec<Option<Receiver<Handoff>>>,
    /// Spill lanes `[from][to]`, shared by all shards; the sender locks
    /// `[self.id][dest]`, the receiver drains `[src][self.id]`.
    spill: Arc<Vec<Vec<Mutex<Vec<Handoff>>>>>,
    /// Destinations whose channel filled this window (drain resets).
    spilling: Vec<bool>,
    /// Handoff drain scratch (capacity persists).
    handoff_buf: Vec<Handoff>,
}

impl Sink for ShardSink {
    /// Same-instant events append to the current group's tail (FIFO,
    /// like a heap loop would pop them), future ones go to the event set.
    fn emit(&mut self, at: Time, ev: Ev) {
        if !self.joins_group(at, ev) {
            self.events.push(at, ev);
        }
    }

    /// As `emit`, with future events going through `lane`.
    fn emit_lane(&mut self, lane: Lane, at: Time, ev: Ev) {
        if !self.joins_group(at, ev) {
            self.events.push_lane(lane, at, ev);
        }
    }

    fn handoff(&mut self, node: u32, at: Time, pkt: Packet) {
        let dest = owner_of(node as usize, self.n_nodes, self.nshards);
        self.send_handoff(dest, Handoff { at, pkt });
    }

    /// Windowed cores carry no probe; reports the event set alone.
    fn depth(&self) -> usize {
        self.events.len()
    }
}

impl ShardSink {
    /// Append `ev` to the tail of the group being dispatched if it is due
    /// at this very instant; says whether it was.
    fn joins_group(&mut self, at: Time, ev: Ev) -> bool {
        debug_assert!(at >= self.now, "scheduled into the past");
        let joins = at == self.now;
        if joins {
            self.group.push(ev);
            self.appended += 1;
        }
        joins
    }

    /// Send a handoff to shard `dest`: through the bounded channel while
    /// it has room, then through the spill lane for the rest of the
    /// window (per-pair FIFO is preserved: the receiver drains the
    /// channel before the spill).
    fn send_handoff(&mut self, dest: usize, h: Handoff) {
        if self.spilling.get(dest) == Some(&true) {
            return self.spill_push(dest, h);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "wire() creates an outbox for every shard pair with a route edge; tx_done only targets those"
        )]
        #[expect(
            clippy::expect_used,
            reason = "wire() created a mailbox for every cross-shard route edge"
        )]
        let tx = self.outboxes[dest]
            .as_ref()
            .expect("handoff to a shard pair without a mailbox");
        match tx.try_send(h) {
            Ok(()) => {}
            Err(TrySendError::Full(h)) => {
                if let Some(flag) = self.spilling.get_mut(dest) {
                    *flag = true;
                }
                self.spill_push(dest, h);
            }
            Err(TrySendError::Disconnected(_)) => {
                // Receivers live in the sibling shards for the network's
                // whole lifetime; a closed channel means the network is
                // being torn down and the packet can only vanish.
                debug_assert!(false, "handoff channel disconnected mid-run");
            }
        }
    }

    fn spill_push(&mut self, dest: usize, h: Handoff) {
        #[expect(
            clippy::indexing_slicing,
            reason = "spill is built as a full nshards×nshards matrix"
        )]
        let lane = &self.spill[self.id][dest];
        // The lane is uncontended by protocol (sends and drains are
        // separated by a barrier); a poisoned lock means another shard
        // panicked and the run is aborting anyway.
        #[expect(
            clippy::expect_used,
            reason = "poisoned only if a sibling shard already panicked; propagating is correct"
        )]
        lane.lock().expect("spill lane poisoned").push(h);
    }
}

/// One shard: a core and the event set (plus, under the k-shard driver,
/// the mailboxes) that feed it.
pub(crate) struct Shard {
    pub(crate) core: NodeCore,
    pub(crate) sink: ShardSink,
}

impl Shard {
    /// Shard `id` of `nshards`: `core` fed by `events` (the event set
    /// its lanes were opened in), with no mailboxes yet.
    pub(crate) fn new(id: usize, nshards: usize, core: NodeCore, events: EventQueue<Ev>) -> Self {
        Shard {
            sink: ShardSink {
                events,
                now: Time::ZERO,
                group: Vec::new(),
                appended: 0,
                id,
                nshards,
                n_nodes: core.node_stats.len(),
                outboxes: Vec::new(),
                inboxes: Vec::new(),
                spill: Arc::new(Vec::new()),
                spilling: vec![false; nshards],
                handoff_buf: Vec::new(),
            },
            core,
        }
    }

    /// The one-shard driver: pop every event at or before `until` in
    /// event-set order and push what the core emits straight back.
    pub(crate) fn run_fifo(&mut self, until: Time) {
        let events = &mut self.sink.events;
        while let Some((t, ev)) = events.pop_if(|t, _| t <= until) {
            debug_assert!(t >= self.core.now, "time went backwards");
            self.core.now = t;
            self.core.dispatch(ev, events);
        }
    }

    /// Events this shard scheduled so far, counted as the one-shard
    /// driver would: pushes plus same-instant group appends.
    pub(crate) fn event_count(&self) -> u64 {
        self.sink.events.pushed() + self.sink.appended
    }

    /// Timestamp of the earliest local event, `u64::MAX` if none.
    fn next_event_ps(&self) -> u64 {
        self.sink.events.peek_time().map_or(u64::MAX, |t| t.as_ps())
    }

    /// Process every local event strictly below `horizon_ps` and at or
    /// before `until`, draining and canonically ordering each
    /// same-instant group (see module docs on determinism).
    fn process_window(&mut self, horizon_ps: u64, until: Time) {
        let Shard { core, sink } = self;
        while let Some(t) = sink.events.peek_time() {
            if t.as_ps() >= horizon_ps || t > until {
                break;
            }
            debug_assert!(t >= core.now, "time went backwards");
            core.now = t;
            sink.now = t;
            debug_assert!(sink.group.is_empty());
            while let Some((_, ev)) = sink.events.pop_if(|at, _| at == t) {
                sink.group.push(ev);
            }
            sink.group.sort_unstable_by_key(|ev| tie_key(core, ev));
            // The group grows while it is dispatched: a cursor, not an
            // iterator.
            let mut i = 0;
            while let Some(&ev) = sink.group.get(i) {
                i += 1;
                core.dispatch(ev, sink);
            }
            sink.group.clear();
        }
    }

    /// Post-barrier: move every received handoff into the local event
    /// set (channel first, then spill, per source shard in id order) and
    /// re-arm the spill flags for the next window.
    fn drain_inboxes(&mut self) {
        let Shard { core, sink } = self;
        sink.spilling.fill(false);
        for (src, inbox) in sink.inboxes.iter().enumerate() {
            if let Some(rx) = inbox {
                while let Ok(h) = rx.try_recv() {
                    sink.handoff_buf.push(h);
                }
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "spill is built as a full nshards×nshards matrix; inboxes has one entry per shard"
            )]
            let lane = &sink.spill[src][sink.id];
            #[expect(
                clippy::expect_used,
                reason = "poisoned only if a sibling shard already panicked; propagating is correct"
            )]
            let mut lane = lane.lock().expect("spill lane poisoned");
            sink.handoff_buf.append(&mut lane);
        }
        for h in sink.handoff_buf.drain(..) {
            let p = core.adopt(h.pkt);
            sink.events.push(h.at, Ev::Arrive { p });
        }
    }
}

/// Give `shards` (≥ 2, built over `topo`) their mailboxes — a channel
/// for every directed shard pair some route crosses, spill lanes for
/// every pair (cheap, and keeps indexing uniform) — and return the
/// lookahead `L`: the minimum propagation over cross-shard consecutive
/// hop pairs, `u64::MAX` when no route crosses shards (windows are then
/// unbounded and the shards run mutually independent).
pub(crate) fn wire(shards: &mut [Shard], topo: &Topology) -> u64 {
    let nshards = shards.len();
    let owner = |node: u32| owner_of(node as usize, topo.links.len(), nshards);
    let mut lookahead_ps = u64::MAX;
    let mut edge = vec![vec![false; nshards]; nshards];
    for route in topo.routes() {
        for w in route.windows(2) {
            #[expect(
                clippy::indexing_slicing,
                reason = "windows(2) yields exactly two elements"
            )]
            let (a, z) = (w[0].0, w[1].0);
            if owner(a) != owner(z) {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "route nodes index the link table by construction"
                )]
                {
                    lookahead_ps = lookahead_ps.min(topo.links[a as usize].propagation.as_ps());
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "the edge matrix is nshards × nshards and owners are < nshards"
                )]
                {
                    edge[owner(a)][owner(z)] = true;
                }
            }
        }
    }
    debug_assert!(
        lookahead_ps > 0,
        "zero lookahead should have forced one shard"
    );

    let spill: Arc<Vec<Vec<Mutex<Vec<Handoff>>>>> = Arc::new(
        (0..nshards)
            .map(|_| (0..nshards).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
    );
    for sh in shards.iter_mut() {
        sh.sink.outboxes = (0..nshards).map(|_| None).collect();
        sh.sink.inboxes = (0..nshards).map(|_| None).collect();
        sh.sink.spill = Arc::clone(&spill);
    }
    for (from, row) in edge.iter().enumerate() {
        for (to, _) in row.iter().enumerate().filter(|(_, &has)| has) {
            let (tx, rx) = std::sync::mpsc::sync_channel(MAILBOX_CAP);
            #[expect(
                clippy::indexing_slicing,
                reason = "from/to enumerate the nshards × nshards edge matrix; every mailbox row was sized to nshards just above"
            )]
            {
                shards[from].sink.outboxes[to] = Some(tx);
                shards[to].sink.inboxes[from] = Some(rx);
            }
        }
    }
    lookahead_ps
}

/// The k-shard driver: advance every shard until no event at or before
/// `until` remains, one worker thread per shard (shard 0 on the
/// caller's), inside lookahead windows of width `lookahead_ps`.
pub(crate) fn run_windows(shards: &mut [Shard], lookahead_ps: u64, until: Time) {
    let n = shards.len();
    let until_ps = until.as_ps();
    let next_ts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let barrier = Barrier::new(n);
    let abort = AtomicBool::new(false);
    let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let worker = |shard: &mut Shard| {
        loop {
            // Window protocol. Publish my earliest timestamp; after
            // barrier A everyone computes the same global minimum
            // from the same published snapshot, so every shard takes
            // the same branch below — the barriers stay aligned.
            // The break condition must be a pure function of that
            // common snapshot: reading `abort` here could observe a
            // sibling's mid-window store while that sibling already
            // parks on barrier B, and breaking would strand it (and
            // everyone else) on a barrier no one completes. Abort is
            // therefore checked only after barrier B, where the
            // flagging store (sequenced before the flagger's own
            // barrier-B wait) is visible to every shard alike.
            #[expect(
                clippy::indexing_slicing,
                reason = "next_ts has one published slot per shard"
            )]
            next_ts[shard.sink.id].store(shard.next_event_ps(), Ordering::SeqCst);
            barrier.wait();
            let tmin = next_ts
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .min()
                .unwrap_or(u64::MAX);
            if tmin == u64::MAX || tmin > until_ps {
                break;
            }
            // u64::MAX is the no-event sentinel; saturating keeps it a
            // sentinel instead of wrapping.
            let horizon = tmin.saturating_add(lookahead_ps);
            // A panicking shard must not leave siblings parked on a
            // barrier: trap the payload, flag the abort, and keep
            // the protocol moving to the next aligned exit.
            let r = catch_unwind(AssertUnwindSafe(|| shard.process_window(horizon, until)));
            if let Err(payload) = r {
                let mut slot = match panic_slot.lock() {
                    Ok(s) => s,
                    Err(p) => p.into_inner(),
                };
                slot.get_or_insert(payload);
                abort.store(true, Ordering::SeqCst);
            }
            barrier.wait(); // barrier B: every send of this window is done
            if abort.load(Ordering::SeqCst) {
                break;
            }
            shard.drain_inboxes();
        }
    };

    std::thread::scope(|s| {
        let mut iter = shards.iter_mut();
        let first = iter.next();
        for shard in iter {
            s.spawn(|| worker(shard));
        }
        if let Some(shard) = first {
            worker(shard); // shard 0 runs on the caller's thread
        }
    });
    if let Some(payload) = panic_slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_blocks_are_contiguous_and_balanced() {
        for n in 1..40usize {
            for s in 1..=8usize.min(n) {
                let owners: Vec<usize> = (0..n).map(|i| owner_of(i, n, s)).collect();
                // Monotone, starts at 0, ends at s-1, covers every shard.
                assert_eq!(owners[0], 0);
                assert_eq!(*owners.last().unwrap(), s - 1);
                assert!(owners.windows(2).all(|w| w[0] <= w[1]));
                for sh in 0..s {
                    let cnt = owners.iter().filter(|&&o| o == sh).count();
                    assert!(
                        cnt == n / s || cnt == n / s + 1 || cnt == n.div_ceil(s),
                        "shard {sh} owns {cnt} of {n} nodes across {s} shards"
                    );
                }
            }
        }
    }
}
