//! Future-event-set throughput: the simulator's hottest structure.
//!
//! Every pattern runs under two [`EventBackend`]s — the default 4-ary
//! heap and the opt-in calendar ring — so the O(log n) vs amortized-O(1)
//! crossover is visible directly. Patterns benched:
//!
//! * `hold` — the classic hold model: at steady size N, pop one / push one
//!   with a random increment (what a running simulation actually does);
//! * `burst` — push N then drain N (network start-up / tear-down shape).
//!
//! The headline comparison is `hold` at N = 1 000 000, the one size where
//! the calendar still leads; `lit-bench` reports the same hold model off
//! the real executor as `sim.hold_ns` / `sim.backend_delta_ns.*`.

#![forbid(unsafe_code)]

use lit_bench::Bencher;
use lit_sim::{Duration, EventBackend, EventQueue, SimRng, Time};

const BACKENDS: [(EventBackend, &str); 2] = [
    (EventBackend::Heap, "heap"),
    (EventBackend::Calendar, "calendar"),
];

const HOLD_OPS: u64 = 10_000;

fn hold(b: &Bencher) {
    for (backend, label) in BACKENDS {
        for &n in &[100usize, 10_000, 1_000_000] {
            // Pre-fill to steady state once; each measured run then does
            // HOLD_OPS pop-one/push-one cycles against the shared queue,
            // which keeps the population at n throughout.
            let mut rng = SimRng::seed_from(9);
            let mut q = EventQueue::with_capacity_in(n + 1, backend);
            let mut now = Time::ZERO;
            for i in 0..n {
                q.push(now + Duration::from_ns(rng.below(1_000_000)), i as u64);
            }
            b.run(&format!("event_queue/hold/{label}/{n}"), || {
                let mut sum = 0u64;
                for _ in 0..HOLD_OPS {
                    let (t, e) = q.pop().expect("steady state");
                    now = t;
                    q.push(now + Duration::from_ns(1 + rng.below(1_000_000)), e);
                    sum = sum.wrapping_add(e);
                }
                sum
            });
        }
    }
}

fn burst(b: &Bencher) {
    for (backend, label) in BACKENDS {
        for &n in &[1024usize, 16_384] {
            b.run(&format!("event_queue/burst/{label}/{n}"), || {
                let mut rng = SimRng::seed_from(5);
                let mut q = EventQueue::with_capacity_in(n, backend);
                for i in 0..n {
                    q.push(Time::from_ns(rng.below(1_000_000_000)), i as u64);
                }
                let mut sum = 0u64;
                while let Some((_, e)) = q.pop() {
                    sum = sum.wrapping_add(e);
                }
                sum
            });
        }
    }
}

fn main() {
    let b = Bencher::from_args();
    hold(&b);
    burst(&b);
    b.write_json("event_queue");
}
