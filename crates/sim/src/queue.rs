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
//! op), the amortized-O(1) [`CalendarQueue`] ring and the hierarchical
//! [`TimerWheel`]. All three pop the identical `(time, seq)` sequence —
//! the calendar is an *exact* structure, not the paper's approximate
//! line-card variant — so the choice is purely a performance knob.
//! Payloads are `Copy`: the heap moves entries through a hole, not by
//! swaps.

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

/// Which engine an [`EventQueue`] runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EventBackend {
    /// 4-ary heap: O(log₄ n) per op. The default: inside the executor
    /// `lit-bench` measures it ahead of the wheel on every committed
    /// workload (event sets 13 to 1.5·10⁵ deep) and ahead of the calendar
    /// on all but the deepest, where the two tie.
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
pub struct EventQueue<E> {
    inner: Inner<E>,
    next_seq: u64,
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
                EventBackend::Wheel => Inner::Wheel(TimerWheel::with_capacity(cap)),
            },
            next_seq: 0,
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
        match &mut self.inner {
            Inner::Heap(h) => h.push(at, seq, event),
            // The calendar and the wheel keep their own monotone seq,
            // incremented once per push just like ours, so FIFO order
            // matches the heap's.
            Inner::Calendar(c) => c.push(at.as_ps() as u128, event),
            Inner::Wheel(w) => w.push(at.as_ps(), event),
        }
    }

    /// Remove and return the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        match &mut self.inner {
            Inner::Heap(h) => h.pop_if(|_, _| true),
            // lit-lint: allow(raw-time-arithmetic, "calendar keys are as_ps() values widened to u128 at push; the narrowing is a lossless roundtrip")
            Inner::Calendar(c) => c.pop().map(|(k, e)| (Time::from_ps(k as u64), e)),
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
    pub fn pop_if<F>(&mut self, pred: F) -> Option<(Time, E)>
    where
        F: FnOnce(Time, &E) -> bool,
    {
        let take = match &mut self.inner {
            // The heap tests its root and removes it in one step.
            Inner::Heap(h) => return h.pop_if(pred),
            // lit-lint: allow(raw-time-arithmetic, "calendar keys are as_ps() values widened to u128 at push; the narrowing is a lossless roundtrip")
            Inner::Calendar(c) => c.peek().map(|(k, e)| pred(Time::from_ps(k as u64), e)),
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
            Inner::Heap(h) => h.peek_time(),
            // lit-lint: allow(raw-time-arithmetic, "calendar keys are as_ps() values widened to u128 at push; the narrowing is a lossless roundtrip")
            Inner::Calendar(c) => c.peek_key().map(|k| Time::from_ps(k as u64)),
            Inner::Wheel(w) => w.peek_key().map(Time::from_ps),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
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

    /// Drop all pending events, keeping allocations.
    pub fn clear(&mut self) {
        match &mut self.inner {
            Inner::Heap(h) => h.clear(),
            Inner::Calendar(c) => c.clear(),
            Inner::Wheel(w) => w.clear(),
        }
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
