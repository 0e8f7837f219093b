//! Deterministic future-event set.
//!
//! [`EventQueue`] is a time-ordered priority queue with a crucial extra
//! guarantee: events scheduled for the *same* instant pop in the order they
//! were pushed (FIFO). A plain `BinaryHeap` keyed on time alone makes
//! same-time ordering depend on heap internals, which would make runs
//! non-reproducible across refactors; we break ties with a monotonically
//! increasing sequence number instead.
//!
//! The queue has three interchangeable engines (see [`EventBackend`]):
//! the default 4-ary heap of 32-byte entries (`heap.rs`, O(log₄ n) per
//! op), the amortized-O(1) calendar ring (`calendar.rs`) and the
//! hierarchical timer wheel (`wheel.rs`). All three pop the identical
//! `(time, seq)` sequence, so the choice is purely a performance knob.
//! Payloads are `Copy`: the heap moves entries through a hole, not by
//! swaps.
//!
//! # Lanes
//!
//! Much of what a simulation schedules is a *sorted run*: sources of one
//! period fire in a fixed cyclic order, a regulator releases in the order
//! the upstream node served. [`EventQueue::lane`] opens a FIFO for such a
//! run and [`EventQueue::push_lane`] appends to it in O(1) instead of
//! sifting into the heap. The caller's claim is a hint that is never
//! trusted: a push that would break the lane's order (earlier than its
//! tail) goes to the heap instead, so a lane is sorted by construction.
//! Every push, laned or not, takes its `seq` from the one counter, and
//! `pop` / `pop_if` / `peek_time` merge the heap root with a small heap
//! of lane heads on `(time, seq)` — the pop sequence is exactly the
//! no-lane one, and there is nothing to switch off. The calendar and the
//! wheel have no lanes (`push_lane` is `push`): they are the reference the
//! differential tests compare the laned heap against.

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

use crate::calendar::CalendarQueue;
use crate::heap::QuadHeap;
use crate::time::Time;
use crate::wheel::TimerWheel;
use std::collections::VecDeque;

/// Which engine an [`EventQueue`] runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EventBackend {
    /// 4-ary heap: O(log₄ n) per op, with FIFO lanes beside it for
    /// sorted runs (see the module docs). The default, and the only
    /// engine with lanes: inside the executor `lit-bench` measures it
    /// ahead of the wheel (+52…+76 ns/event) and of the calendar
    /// (+22…+42) on every committed workload, event sets 13 to 1.5·10⁵
    /// deep — at the deepest the heap itself holds five entries, the
    /// rest wait in lanes.
    #[default]
    Heap,
    /// Ring-array calendar queue: amortized O(1) per op, same pop order.
    Calendar,
    /// Hierarchical timer wheel: amortized O(1) per op at any horizon,
    /// same pop order. No width estimation or rebuild heuristics.
    Wheel,
}

enum Inner<E> {
    Heap(QuadHeap<E>),
    Calendar(CalendarQueue<E>),
    Wheel(TimerWheel<E>),
}

/// A calendar key (`u128::from(Time)` at push) back as an instant: lossless.
#[inline]
fn calendar_time(key: u128) -> Time {
    Time::from_ps(key as u64)
}

/// A sorted-run FIFO of an [`EventQueue`], opened by [`EventQueue::lane`].
/// Only meaningful to the queue that opened it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lane(u32);

/// The future-event set of a discrete-event simulation.
///
/// ```
/// use lit_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ms(2), "late");
/// q.push(Time::from_ms(1), "early");
/// q.push(Time::from_ms(1), "early-second");
/// assert_eq!(q.pop(), Some((Time::from_ms(1), "early")));
/// assert_eq!(q.pop(), Some((Time::from_ms(1), "early-second")));
/// assert_eq!(q.pop(), Some((Time::from_ms(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
///
/// The calendar backend pops the same sequence:
///
/// ```
/// use lit_sim::{EventBackend, EventQueue, Time};
///
/// let mut q = EventQueue::with_backend(EventBackend::Calendar);
/// q.push(Time::from_ms(2), "late");
/// q.push(Time::from_ms(1), "early");
/// assert_eq!(q.pop(), Some((Time::from_ms(1), "early")));
/// assert_eq!(q.pop(), Some((Time::from_ms(2), "late")));
/// ```
///
/// A sorted run can bypass the heap through a lane; the pop order does
/// not change, and a push that breaks the run falls back to the heap:
///
/// ```
/// use lit_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// let lane = q.lane();
/// q.push_lane(lane, Time::from_ms(2), "lane-2");
/// q.push(Time::from_ms(2), "heap-2");
/// q.push_lane(lane, Time::from_ms(1), "out-of-order"); // to the heap
/// assert_eq!(q.heap_len(), 2);
/// assert_eq!(q.pop(), Some((Time::from_ms(1), "out-of-order")));
/// assert_eq!(q.pop(), Some((Time::from_ms(2), "lane-2")));
/// assert_eq!(q.pop(), Some((Time::from_ms(2), "heap-2")));
/// ```
pub struct EventQueue<E> {
    inner: Inner<E>,
    next_seq: u64,
    /// The lanes, each sorted by `(at, seq)`; always empty under the
    /// calendar and the wheel.
    lanes: Vec<VecDeque<(Time, u64, E)>>,
    /// One `(at, seq, lane)` per non-empty lane: its front entry.
    heads: QuadHeap<u32>,
    /// Entries in all lanes together.
    lane_len: usize,
    /// Most entries the engine ever held outside the lanes.
    heap_high_water: u64,
    /// Lane pushes that kept the lane sorted and were appended.
    lane_appended: u64,
    /// Lane pushes earlier than their lane's tail, sent to the heap.
    lane_fell_back: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue on the default (heap) backend.
    pub fn new() -> Self {
        Self::with_backend(EventBackend::Heap)
    }

    /// An empty queue on the chosen backend.
    pub fn with_backend(backend: EventBackend) -> Self {
        Self::with_capacity_in(0, backend)
    }

    /// An empty heap-backed queue with room for `cap` events before
    /// reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_capacity_in(cap, EventBackend::Heap)
    }

    /// An empty queue on the chosen backend, pre-sized for `cap` events.
    pub fn with_capacity_in(cap: usize, backend: EventBackend) -> Self {
        EventQueue {
            inner: match backend {
                EventBackend::Heap => Inner::Heap(QuadHeap::with_capacity(cap)),
                EventBackend::Calendar => Inner::Calendar(CalendarQueue::with_capacity(cap)),
                EventBackend::Wheel => Inner::Wheel(TimerWheel::new()),
            },
            next_seq: 0,
            lanes: Vec::new(),
            heads: QuadHeap::with_capacity(0),
            lane_len: 0,
            heap_high_water: 0,
            lane_appended: 0,
            lane_fell_back: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> EventBackend {
        match self.inner {
            Inner::Heap(_) => EventBackend::Heap,
            Inner::Calendar(_) => EventBackend::Calendar,
            Inner::Wheel(_) => EventBackend::Wheel,
        }
    }

    /// Schedule `event` to fire at `at`.
    ///
    /// Pushing an event in the past is allowed here (the queue is just a
    /// data structure); the executor is responsible for asserting that time
    /// never flows backwards.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_engine(at, seq, event);
    }

    /// Hand entry `(at, seq, event)` to the engine, outside every lane.
    #[inline]
    fn push_engine(&mut self, at: Time, seq: u64, event: E) {
        match &mut self.inner {
            Inner::Heap(h) => h.push(at, seq, event),
            // The calendar and the wheel keep their own monotone seq,
            // incremented once per push just like ours, so FIFO order
            // matches the heap's.
            Inner::Calendar(c) => c.push(u128::from(at), event),
            Inner::Wheel(w) => w.push(at.as_ps(), event),
        }
        self.heap_high_water = self.heap_high_water.max(self.heap_len() as u64);
    }

    /// Open a lane: a FIFO for events the caller expects to schedule in
    /// non-decreasing time order (see the module docs).
    pub fn lane(&mut self) -> Lane {
        self.lane_with_capacity(0)
    }

    /// [`EventQueue::lane`] with room for `cap` events before the lane
    /// grows: a caller that knows how many it will hold at once (one per
    /// source of a period) saves the doubling's slack. Only the heap has
    /// lanes to fill; the other engines allocate nothing for it.
    pub fn lane_with_capacity(&mut self, cap: usize) -> Lane {
        let id = self.lanes.len() as u32;
        let cap = match self.inner {
            Inner::Heap(_) => cap,
            Inner::Calendar(_) | Inner::Wheel(_) => 0,
        };
        self.lanes.push(VecDeque::with_capacity(cap));
        Lane(id)
    }

    /// Schedule `event` at `at` like [`EventQueue::push`] — same `seq`
    /// counter, same pop order — through `lane` if that keeps the lane
    /// sorted (`at` is not earlier than its last entry), through the heap
    /// otherwise. Under the calendar and the wheel this *is* `push`.
    #[inline]
    pub fn push_lane(&mut self, lane: Lane, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let fifo = match self.inner {
            Inner::Heap(_) => self.lanes.get_mut(lane.0 as usize),
            Inner::Calendar(_) | Inner::Wheel(_) => None,
        };
        let Some(fifo) = fifo else {
            return self.push_engine(at, seq, event);
        };
        match fifo.back() {
            Some(&(tail, _, _)) if at < tail => {
                self.lane_fell_back += 1;
                return self.push_engine(at, seq, event);
            }
            Some(_) => {}
            None => self.heads.push(at, seq, lane.0),
        }
        fifo.push_back((at, seq, event));
        self.lane_len += 1;
        self.lane_appended += 1;
    }

    /// Remove and return the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        match &mut self.inner {
            Inner::Heap(_) => self.pop_if(|_, _| true),
            Inner::Calendar(c) => c.pop().map(|(k, e)| (calendar_time(k), e)),
            Inner::Wheel(w) => w.pop().map(|(k, e)| (Time::from_ps(k), e)),
        }
    }

    /// Remove and return the earliest event only if `pred` accepts it.
    ///
    /// The predicate sees the event's due time and a borrow of its
    /// payload; when it returns `false` (or the queue is empty) nothing is
    /// removed. Both drivers take their events through it — the one-shard
    /// loop everything due by its horizon, the windowed loop one
    /// same-instant group at a time — without a speculative pop that
    /// would have to be pushed back (disturbing FIFO seq order).
    #[inline]
    pub fn pop_if<F>(&mut self, pred: F) -> Option<(Time, E)>
    where
        F: FnOnce(Time, &E) -> bool,
    {
        let take = match &mut self.inner {
            Inner::Heap(h) => {
                // The earliest lane head pops unless the heap root sorts
                // before it on `(at, seq)`.
                let lane = match (self.heads.peek(), h.peek()) {
                    (Some((head, &lane)), Some((root, _))) if head < root => lane,
                    (Some((_, &lane)), None) => lane,
                    // The heap tests its root and removes it in one step.
                    _ => return h.pop_if(pred),
                };
                let fifo = self.lanes.get_mut(lane as usize)?;
                let (at, _, event) = fifo.front()?;
                if !pred(*at, event) {
                    return None;
                }
                let (at, _, event) = fifo.pop_front()?;
                self.lane_len -= 1;
                match fifo.front() {
                    Some(&(next, seq, _)) => self.heads.replace_root(next, seq, lane),
                    None => {
                        self.heads.pop_if(|_, _| true);
                    }
                }
                return Some((at, event));
            }
            Inner::Calendar(c) => c.peek().map(|(k, e)| pred(calendar_time(k), e)),
            Inner::Wheel(w) => w.peek().map(|(k, e)| pred(Time::from_ps(k), e)),
        };
        // The peek above caches the min position (calendar/wheel hints),
        // so the pop that follows does not re-scan.
        if take == Some(true) {
            self.pop()
        } else {
            None
        }
    }

    /// The due time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        match &self.inner {
            Inner::Heap(h) => match (h.peek_time(), self.heads.peek_time()) {
                (Some(root), Some(head)) => Some(root.min(head)),
                (root, head) => root.or(head),
            },
            Inner::Calendar(c) => c.peek_key().map(calendar_time),
            Inner::Wheel(w) => w.peek_key().map(Time::from_ps),
        }
    }

    /// Number of pending events, in the lanes or out.
    pub fn len(&self) -> usize {
        self.heap_len() + self.lane_len
    }

    /// Number of pending events outside the lanes: what a pop actually
    /// sifts through.
    pub fn heap_len(&self) -> usize {
        match &self.inner {
            Inner::Heap(h) => h.len(),
            Inner::Calendar(c) => c.len(),
            Inner::Wheel(w) => w.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (diagnostic counter).
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// The largest [`EventQueue::heap_len`] ever reached (diagnostic
    /// counter).
    pub fn heap_high_water(&self) -> u64 {
        self.heap_high_water
    }

    /// Lane pushes so far as `(appended, fell_back)`: those that went
    /// through their lane and those that would have broken its order and
    /// went to the heap (diagnostic counters; both zero under the
    /// calendar and the wheel).
    pub fn lane_pushes(&self) -> (u64, u64) {
        (self.lane_appended, self.lane_fell_back)
    }

    /// Drop all pending events, keeping allocations and open lanes.
    pub fn clear(&mut self) {
        match &mut self.inner {
            Inner::Heap(h) => h.clear(),
            Inner::Calendar(c) => c.clear(),
            Inner::Wheel(w) => w.clear(),
        }
        self.lanes.iter_mut().for_each(VecDeque::clear);
        self.heads.clear();
        self.lane_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    const BACKENDS: [EventBackend; 3] = [
        EventBackend::Heap,
        EventBackend::Calendar,
        EventBackend::Wheel,
    ];

    #[test]
    fn orders_by_time() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            for i in (0..100u64).rev() {
                q.push(Time::from_ms(i), i);
            }
            let mut prev = Time::ZERO;
            let mut n = 0;
            while let Some((t, e)) = q.pop() {
                assert!(t >= prev);
                assert_eq!(t, Time::from_ms(e));
                prev = t;
                n += 1;
            }
            assert_eq!(n, 100);
        }
    }

    #[test]
    fn fifo_among_ties() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            let t = Time::from_secs(1);
            for i in 0..1000 {
                q.push(t, i);
            }
            for i in 0..1000 {
                assert_eq!(q.pop(), Some((t, i)));
            }
        }
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.push(Time::from_ms(10), "a");
            q.push(Time::from_ms(5), "b");
            assert_eq!(q.pop().unwrap().1, "b");
            q.push(Time::from_ms(7), "c");
            q.push(Time::from_ms(6), "d");
            assert_eq!(q.pop().unwrap().1, "d");
            assert_eq!(q.pop().unwrap().1, "c");
            assert_eq!(q.pop().unwrap().1, "a");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn peek_and_counters() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            assert_eq!(q.peek_time(), None);
            q.push(Time::from_ms(3), ());
            q.push(Time::from_ms(1), ());
            assert_eq!(q.peek_time(), Some(Time::from_ms(1)));
            assert_eq!(q.len(), 2);
            assert_eq!(q.pushed(), 2);
            q.clear();
            assert!(q.is_empty());
            // seq keeps increasing after clear, preserving global FIFO.
            q.push(Time::from_ms(1) + Duration::ZERO, ());
            assert_eq!(q.pushed(), 3);
        }
    }

    #[test]
    fn lanes_count_and_peek_like_the_heap() {
        let ms = Time::from_ms;
        // Heap-only, lane-only, then mixed: `len`, `pushed` and
        // `peek_time` cover both; `heap_len` and the counters tell them
        // apart.
        let mut q = EventQueue::new();
        let lane = q.lane();
        assert_eq!((q.len(), q.peek_time()), (0, None));
        q.push(ms(5), 'h');
        assert_eq!((q.len(), q.heap_len(), q.pushed()), (1, 1, 1));
        assert_eq!(q.peek_time(), Some(ms(5)));
        assert_eq!(q.pop(), Some((ms(5), 'h')));

        q.push_lane(lane, ms(7), 'a');
        q.push_lane(lane, ms(7), 'b');
        assert_eq!((q.len(), q.heap_len(), q.pushed()), (2, 0, 3));
        assert_eq!(q.peek_time(), Some(ms(7)));
        assert!(!q.is_empty());

        q.push(ms(6), 'i');
        q.push_lane(lane, ms(6), 'c'); // earlier than the tail: to the heap
        q.push(ms(7), 'j');
        assert_eq!((q.len(), q.heap_len(), q.pushed()), (5, 3, 6));
        assert_eq!(q.peek_time(), Some(ms(6)));
        assert_eq!(q.lane_pushes(), (2, 1));
        assert_eq!(q.heap_high_water(), 3);
        // A refused lane head stays put.
        assert_eq!(q.pop_if(|_, &e| e == 'a'), None);
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ['i', 'c', 'a', 'b', 'j']);
        assert_eq!((q.len(), q.peek_time()), (0, None));

        // A drained lane takes any instant again; `clear` empties lanes
        // too and keeps them open.
        q.push_lane(lane, ms(1), 'd');
        assert_eq!(q.lane_pushes(), (3, 1));
        q.clear();
        assert_eq!((q.len(), q.pushed(), q.peek_time()), (0, 7, None));
        q.push_lane(lane, ms(2), 'e');
        assert_eq!(q.pop(), Some((ms(2), 'e')));
        assert_eq!(q.heap_high_water(), 3);
    }

    #[test]
    fn calendar_and_wheel_lanes_are_plain_pushes() {
        for backend in [EventBackend::Calendar, EventBackend::Wheel] {
            let mut q = EventQueue::with_backend(backend);
            let lane = q.lane();
            q.push_lane(lane, Time::from_ms(2), 'a');
            q.push_lane(lane, Time::from_ms(1), 'b');
            assert_eq!((q.len(), q.heap_len(), q.pushed()), (2, 2, 2));
            assert_eq!(q.lane_pushes(), (0, 0));
            assert_eq!(q.pop(), Some((Time::from_ms(1), 'b')));
            assert_eq!(q.pop(), Some((Time::from_ms(2), 'a')));
        }
    }

    #[test]
    fn backends_agree_with_sentinels() {
        let mut heap = EventQueue::with_backend(EventBackend::Heap);
        let mut cal = EventQueue::with_backend(EventBackend::Calendar);
        let mut wheel = EventQueue::with_backend(EventBackend::Wheel);
        let pushes = [
            Time::from_ms(5),
            Time::MAX,
            Time::from_ms(5),
            Time::ZERO,
            Time::MAX,
            Time::from_secs(3),
        ];
        for (i, &t) in pushes.iter().enumerate() {
            heap.push(t, i);
            cal.push(t, i);
            wheel.push(t, i);
        }
        for _ in 0..pushes.len() {
            let h = heap.pop();
            assert_eq!(h, cal.pop());
            assert_eq!(h, wheel.pop());
        }
        assert_eq!(heap.pop(), None);
        assert_eq!(cal.pop(), None);
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn pop_if_takes_only_matching_front() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.push(Time::from_ms(1), "a");
            q.push(Time::from_ms(1), "b");
            q.push(Time::from_ms(2), "c");
            // Front matches: removed.
            assert_eq!(
                q.pop_if(|t, e| t == Time::from_ms(1) && *e == "a"),
                Some((Time::from_ms(1), "a"))
            );
            // Front is "b", predicate rejects: nothing removed.
            assert_eq!(q.pop_if(|_, e| *e == "c"), None);
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop(), Some((Time::from_ms(1), "b")));
            assert_eq!(q.pop_if(|_, _| true), Some((Time::from_ms(2), "c")));
            assert_eq!(q.pop_if(|_, _| true), None);
        }
    }
}
