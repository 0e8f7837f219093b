//! Property tests: the event queue against a reference model.
//!
//! The model is a sorted `Vec<(Time, push_index, payload)>`; after any
//! interleaving of pushes and pops, the queue must agree with the model
//! exactly — that is the determinism contract everything above relies on.

#![forbid(unsafe_code)]

use lit_prop::{check, Gen};
use lit_sim::{Duration, EventBackend, EventQueue, KeyedEntry, SimRng, Time};
use std::collections::BinaryHeap;

/// An operation against the queue.
#[derive(Clone, Debug)]
enum Op {
    Push(u64), // time in microseconds
    Pop,
}

fn gen_ops(g: &mut Gen) -> Vec<Op> {
    let n = g.size(1, 400);
    (0..n)
        .map(|_| match g.weighted(&[3, 1]) {
            0 => Op::Push(g.below(1_000_000)),
            _ => Op::Pop,
        })
        .collect()
}

/// Push times for the backend-agreement test: a narrow band (to force
/// same-instant FIFO ties), a wide band, and far-future sentinels within
/// a few ps of `Time::MAX` (the "never" markers long-running executors
/// park in the queue).
fn gen_time(g: &mut Gen) -> Time {
    match g.weighted(&[4, 3, 1]) {
        0 => Time::from_ps(g.below(64) * 1_000),
        1 => Time::from_us(g.below(1_000_000)),
        _ => Time::from_ps(u64::MAX - g.below(4)),
    }
}

/// `Some(t)` = push at `t`, `None` = pop.
fn gen_backend_ops(g: &mut Gen) -> Vec<Option<Time>> {
    let n = g.size(1, 400);
    (0..n)
        .map(|_| match g.weighted(&[3, 1]) {
            0 => Some(gen_time(g)),
            _ => None,
        })
        .collect()
}

#[test]
fn queue_matches_sorted_reference() {
    check("queue_matches_sorted_reference", |g| {
        let ops = gen_ops(g);
        let mut q = EventQueue::new();
        // Reference: a Vec kept sorted by (time, insertion order).
        let mut model: Vec<(Time, u64, u64)> = Vec::new();
        let mut push_idx = 0u64;
        for op in ops {
            match op {
                Op::Push(us) => {
                    let t = Time::from_us(us);
                    q.push(t, push_idx);
                    model.push((t, push_idx, push_idx));
                    push_idx += 1;
                }
                Op::Pop => {
                    model.sort_by_key(|&(t, i, _)| (t, i));
                    let want = if model.is_empty() {
                        None
                    } else {
                        let (t, _, v) = model.remove(0);
                        Some((t, v))
                    };
                    assert_eq!(q.pop(), want);
                }
            }
            assert_eq!(q.len(), model.len());
            model.sort_by_key(|&(t, i, _)| (t, i));
            assert_eq!(q.peek_time(), model.first().map(|&(t, _, _)| t));
        }
        // Drain: remaining elements come out in exact model order.
        model.sort_by_key(|&(t, i, _)| (t, i));
        for &(t, _, v) in &model {
            assert_eq!(q.pop(), Some((t, v)));
        }
        assert!(q.is_empty());
    });
}

#[test]
fn heap_matches_sorted_reference_at_every_level_boundary() {
    check(
        "heap_matches_sorted_reference_at_every_level_boundary",
        |g| {
            // A 4-ary heap's levels fill at 1, 5, 21, 85 and 341 entries.
            // Grow to each size, dip below it and climb past it again, then
            // drain — on a handful of instants, so nearly every comparison is
            // decided by push order, with `Time::MAX` sentinels at the back.
            let instants = [
                Time::ZERO,
                Time::from_ps(1),
                Time::from_ps(2),
                Time::from_ps(u64::MAX - 1),
                Time::MAX,
            ];
            for n in [1usize, 5, 21, 85, 341] {
                let mut q = EventQueue::new();
                // Reference: a Vec kept sorted by (time, push index).
                let mut model: Vec<(Time, u64)> = Vec::new();
                let mut idx = 0u64;
                let dip = g.size(1, n + 1);
                for (pushes, pops) in [(n, dip), (dip + 1, n + 1)] {
                    for _ in 0..pushes {
                        let t = *g.pick(&instants);
                        q.push(t, idx);
                        let at = model.partition_point(|&(mt, _)| mt <= t);
                        model.insert(at, (t, idx));
                        idx += 1;
                    }
                    for _ in 0..pops {
                        assert_eq!(q.peek_time(), model.first().map(|&(t, _)| t));
                        assert_eq!(q.pop(), Some(model.remove(0)));
                        assert_eq!(q.len(), model.len());
                    }
                }
                assert!(model.is_empty());
                assert_eq!(q.pop(), None);
            }
        },
    );
}

/// The classic hold model at the depth of `lit-bench`'s deepest workload:
/// pop the earliest event, push it back a random increment later. std's
/// binary heap over [`KeyedEntry`] is the reference, entry for entry.
#[test]
#[cfg_attr(miri, ignore)]
fn deep_hold_model_matches_std_binary_heap() {
    const DEPTH: u64 = 200_000;
    const OPS: u64 = 1_000_000;
    let mut rng = SimRng::seed_from(0x4a11_0c8e);
    let mut q = EventQueue::with_capacity(DEPTH as usize);
    let mut model = BinaryHeap::with_capacity(DEPTH as usize);
    let mut seq = 0u64;
    let mut push = |q: &mut EventQueue<u64>, model: &mut BinaryHeap<_>, t: Time| {
        q.push(t, seq);
        model.push(KeyedEntry {
            key: t,
            seq,
            item: seq,
        });
        seq += 1;
    };
    for _ in 0..DEPTH {
        push(&mut q, &mut model, Time::from_ps(rng.below(1_000_000)));
    }
    for _ in 0..OPS {
        let want = model.pop().map(|e| (e.key, e.item));
        assert_eq!(q.pop(), want);
        let (t, _) = want.expect("the hold model never drains");
        // One increment in eight is zero: a tie with everything still
        // pending at `t`, which must queue behind all of it.
        let step = Duration::from_ps(rng.below(8).min(1) * rng.below(2_000_000));
        push(&mut q, &mut model, t + step);
    }
    assert_eq!(q.len(), DEPTH as usize);
    assert_eq!(q.pushed(), DEPTH + OPS);
    while let Some(e) = model.pop() {
        assert_eq!(q.pop(), Some((e.key, e.item)));
    }
    assert_eq!(q.pop(), None);
}

#[test]
fn refusal_drain_clear_and_reuse() {
    for backend in [
        EventBackend::Heap,
        EventBackend::Calendar,
        EventBackend::Wheel,
    ] {
        let mut q = EventQueue::with_backend(backend);
        for (i, ms) in [3u64, 1, 2, 1].into_iter().enumerate() {
            q.push(Time::from_ms(ms), i);
        }
        // A refused front stays the front, however often it is asked.
        for _ in 0..3 {
            assert_eq!(q.pop_if(|t, _| t < Time::from_ms(1)), None);
            assert_eq!(q.pop_if(|_, &e| e == 3), None);
        }
        assert_eq!(q.len(), 4);
        let horizon = Time::from_ms(2);
        let due: Vec<usize> = std::iter::from_fn(|| q.pop_if(|t, _| t <= horizon))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(due, [1, 3, 2]);
        // Pop to empty, then push into the emptied queue.
        assert_eq!(q.pop(), Some((Time::from_ms(3), 0)));
        assert_eq!((q.pop(), q.pop_if(|_, _| true)), (None, None));
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ms(9), 4);
        q.push(Time::from_ms(8), 5);
        // `clear` forgets the events, never the push count.
        q.clear();
        assert_eq!((q.len(), q.pushed()), (0, 6));
        q.push(Time::from_ms(7), 6);
        q.push(Time::from_ms(7), 7);
        assert_eq!(q.pushed(), 8);
        assert_eq!(q.pop(), Some((Time::from_ms(7), 6)));
        assert_eq!(q.pop(), Some((Time::from_ms(7), 7)));
        assert_eq!(q.pop(), None);
    }
}

/// One step of a lane program.
#[derive(Clone, Copy, Debug)]
enum LaneOp {
    Push(Time),
    /// Through lane number `.0` (of the 1–4 the program opened).
    PushLane(usize, Time),
    Pop,
    /// `pop_if` with a predicate that says no.
    Refuse,
    /// `pop_if(|t, _| t <= horizon)` until it declines.
    PopDue(Time),
    /// Pop until empty: every lane drained, then reused.
    Drain,
    Clear,
}

/// A program over `lanes` lanes on a 1 ns grid 64 wide that creeps
/// forward, so that lane heads tie with heap roots and with each other
/// all the time. A lane push usually continues its lane's run, and
/// deliberately often does not (the fallback); either kind of push is
/// sometimes a far-future sentinel.
fn gen_lane_program(g: &mut Gen, lanes: usize) -> Vec<LaneOp> {
    let n = g.size(1, 300);
    let mut base = 0u64;
    let mut tails = vec![0u64; lanes];
    let at = |g: &mut Gen, base: u64| match g.weighted(&[12, 1]) {
        0 => (base + g.below(64)) * 1_000,
        _ => u64::MAX - g.below(3),
    };
    (0..n)
        .map(|_| {
            base += g.below(3);
            match g.weighted(&[6, 12, 8, 1, 2, 1, 1]) {
                0 => LaneOp::Push(Time::from_ps(at(g, base))),
                1 => {
                    let lane = g.size(0, lanes);
                    let t = match g.weighted(&[3, 1]) {
                        // At or after the lane's last push…
                        0 => (tails[lane].max(base * 1_000)).saturating_add(g.below(4) * 1_000),
                        // …or wherever, which usually is before it.
                        _ => at(g, base),
                    };
                    tails[lane] = t;
                    LaneOp::PushLane(lane, Time::from_ps(t))
                }
                2 => LaneOp::Pop,
                3 => LaneOp::Refuse,
                4 => LaneOp::PopDue(Time::from_ps((base + g.below(64)) * 1_000)),
                5 => {
                    tails.fill(0);
                    LaneOp::Drain
                }
                _ => {
                    tails.fill(0);
                    LaneOp::Clear
                }
            }
        })
        .collect()
}

#[test]
fn lanes_match_sorted_reference_on_every_backend() {
    check("lanes_match_sorted_reference_on_every_backend", |g| {
        let lanes = g.size(1, 5);
        let program = gen_lane_program(g, lanes);
        for backend in [
            EventBackend::Heap,
            EventBackend::Calendar,
            EventBackend::Wheel,
        ] {
            let mut q = EventQueue::with_backend(backend);
            let handles: Vec<_> = (0..lanes).map(|_| q.lane()).collect();
            // Reference: a Vec kept sorted by (time, push index); the
            // payload is the push index.
            let mut model: Vec<(Time, u64)> = Vec::new();
            let mut idx = 0u64;
            let mut lane_pushes = 0u64;
            let file = |model: &mut Vec<(Time, u64)>, t: Time, idx: &mut u64| {
                let at = model.partition_point(|&(mt, _)| mt <= t);
                model.insert(at, (t, *idx));
                *idx += 1;
            };
            for &op in &program {
                match op {
                    LaneOp::Push(t) => {
                        q.push(t, idx);
                        file(&mut model, t, &mut idx);
                    }
                    LaneOp::PushLane(lane, t) => {
                        q.push_lane(handles[lane], t, idx);
                        file(&mut model, t, &mut idx);
                        lane_pushes += 1;
                    }
                    LaneOp::Pop => {
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        assert_eq!(q.pop(), want);
                    }
                    LaneOp::Refuse => {
                        let front = model.first().copied();
                        let mut shown = None;
                        assert_eq!(
                            q.pop_if(|t, &e| {
                                shown = Some((t, e));
                                false
                            }),
                            None
                        );
                        assert_eq!(shown, front, "the predicate sees the front");
                    }
                    LaneOp::PopDue(horizon) => {
                        while let Some(got) = q.pop_if(|t, _| t <= horizon) {
                            assert_eq!(got, model.remove(0));
                        }
                        assert!(model.first().is_none_or(|&(t, _)| t > horizon));
                    }
                    LaneOp::Drain => {
                        for want in model.drain(..) {
                            assert_eq!(q.pop(), Some(want));
                        }
                        assert_eq!(q.pop(), None);
                    }
                    LaneOp::Clear => {
                        q.clear();
                        model.clear();
                    }
                }
                assert_eq!(q.len(), model.len());
                assert_eq!(q.is_empty(), model.is_empty());
                assert_eq!(q.pushed(), idx);
                assert_eq!(
                    q.peek_time(),
                    model.first().map(|&(t, _)| t),
                    "{backend:?} after {op:?}"
                );
                assert!(q.heap_len() <= q.len());
                assert!(q.heap_high_water() >= q.heap_len() as u64);
            }
            // Whatever is left comes out in exact model order.
            for want in model {
                assert_eq!(q.pop(), Some(want));
            }
            assert_eq!(q.pop(), None);
            // Only the heap has lanes; there every lane push is counted
            // as one or the other.
            let (appended, fell_back) = q.lane_pushes();
            match backend {
                EventBackend::Heap => assert_eq!(appended + fell_back, lane_pushes),
                _ => assert_eq!((appended, fell_back), (0, 0)),
            }
        }
    });
}

#[test]
fn calendar_and_heap_backends_agree() {
    check("calendar_and_heap_backends_agree", |g| {
        // The calendar ring is a pure engine swap: for ANY interleaving of
        // pushes and pops — including same-instant FIFO ties and sentinel
        // times at the far end of the clock — it must pop the exact
        // (time, payload) sequence the binary heap pops.
        let ops = gen_backend_ops(g);
        let mut heap = EventQueue::with_backend(EventBackend::Heap);
        let mut cal = EventQueue::with_backend(EventBackend::Calendar);
        let mut idx = 0u64;
        for op in ops {
            match op {
                Some(t) => {
                    heap.push(t, idx);
                    cal.push(t, idx);
                    idx += 1;
                }
                None => {
                    assert_eq!(heap.pop(), cal.pop());
                }
            }
            assert_eq!(heap.len(), cal.len());
            assert_eq!(heap.peek_time(), cal.peek_time());
        }
        while !heap.is_empty() {
            assert_eq!(heap.pop(), cal.pop());
        }
        assert_eq!(cal.pop(), None);
    });
}

#[test]
fn wheel_agrees_with_heap_and_calendar() {
    check("wheel_agrees_with_heap_and_calendar", |g| {
        // Same contract as above for the hierarchical timer wheel: all
        // three engines must pop the identical (time, payload) sequence,
        // under FIFO ties and near-`Time::MAX` sentinels alike.
        let ops = gen_backend_ops(g);
        let mut heap = EventQueue::with_backend(EventBackend::Heap);
        let mut cal = EventQueue::with_backend(EventBackend::Calendar);
        let mut wheel = EventQueue::with_backend(EventBackend::Wheel);
        let mut idx = 0u64;
        for op in ops {
            match op {
                Some(t) => {
                    heap.push(t, idx);
                    cal.push(t, idx);
                    wheel.push(t, idx);
                    idx += 1;
                }
                None => {
                    let h = heap.pop();
                    assert_eq!(h, cal.pop());
                    assert_eq!(h, wheel.pop());
                }
            }
            assert_eq!(heap.len(), wheel.len());
            assert_eq!(heap.peek_time(), wheel.peek_time());
        }
        while !heap.is_empty() {
            let h = heap.pop();
            assert_eq!(h, cal.pop());
            assert_eq!(h, wheel.pop());
        }
        assert_eq!(wheel.pop(), None);
    });
}

#[test]
fn wheel_horizon_edge_cases() {
    check("wheel_horizon_edge_cases", |g| {
        // Cascades across every wheel level: pairs of keys straddling the
        // top of the key space, plus a dense tie cluster near the cursor.
        // The wheel must release them in exact (time, seq) order even when
        // the cursor has to jump from ~0 to within a few ps of u64::MAX.
        let mut wheel = EventQueue::with_backend(EventBackend::Wheel);
        let mut heap = EventQueue::with_backend(EventBackend::Heap);
        let near = g.below(64);
        let sentinels = [
            Time::from_ps(u64::MAX),
            Time::from_ps(u64::MAX - g.below(4)),
            Time::from_ps(u64::MAX - 64),
            Time::from_ps((u64::MAX >> 1) + g.below(1024)),
        ];
        let mut idx = 0u64;
        for &t in &sentinels {
            wheel.push(t, idx);
            heap.push(t, idx);
            idx += 1;
        }
        for _ in 0..g.size(1, 64) {
            let t = Time::from_ps(near + g.below(8));
            wheel.push(t, idx);
            heap.push(t, idx);
            idx += 1;
        }
        while !heap.is_empty() {
            assert_eq!(wheel.pop(), heap.pop());
        }
        assert_eq!(wheel.pop(), None);
    });
}

#[test]
fn duration_rate_roundtrip() {
    check("duration_rate_roundtrip", |g| {
        let bits = g.range(1, 10_000_000);
        let rate = g.range(1_000, 10_000_000_000);
        // from_bits_at_rate then bits_at_rate loses at most one bit.
        let d = Duration::from_bits_at_rate(bits, rate);
        let back = d.bits_at_rate(rate);
        assert!(back.abs_diff(bits) <= 1, "bits={bits} back={back}");
    });
}

#[test]
fn duration_rate_is_monotone() {
    check("duration_rate_is_monotone", |g| {
        let a = g.below(1_000_000);
        let b = g.below(1_000_000);
        let rate = g.range(1_000, 1_000_000_000);
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(Duration::from_bits_at_rate(lo, rate) <= Duration::from_bits_at_rate(hi, rate));
    });
}

#[test]
fn rng_streams_reproducible() {
    check("rng_streams_reproducible", |g| {
        let seed = g.u64();
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    });
}

#[test]
fn exponential_is_nonnegative_finite() {
    check("exponential_is_nonnegative_finite", |g| {
        let seed = g.u64();
        let mean_us = g.range(1, 10_000_000);
        let mut rng = SimRng::seed_from(seed);
        let mean = Duration::from_us(mean_us);
        for _ in 0..64 {
            let x = rng.exponential(mean);
            // No panic and representable: that is the contract (the
            // draw itself is unbounded above but astronomically unlikely
            // to overflow f64→u64 at these means).
            assert!(x >= Duration::ZERO);
        }
    });
}
