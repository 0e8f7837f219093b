//! The per-node eligible-packet queue, exact or approximate.
//!
//! The paper notes that Leave-in-Time "uses an approximate sorted priority
//! queue algorithm which runs in O(1) time with a small cost in emulation
//! error". [`EligibleQueue`] reproduces that queue's *order*, not its
//! line-card cost: one binary heap, `O(log n)` per operation, ordered by
//! `(key / quantum, arrival seq)`. [`QueueKind::Exact`] is quantum 1, exact
//! deadline order (the default). [`QueueKind::Bucketed`] is quantum = the
//! bucket width: FIFO within a bucket, so two packets whose deadlines
//! differ by less than one bucket may be served in arrival order, and the
//! *emulation error* — extra lateness versus the exact scheduler — is
//! bounded by the bucket width. The `ablation-queue` command of
//! `lit-repro` measures that error on the paper's workloads.

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

use lit_sim::{Duration, KeyedEntry};
use std::collections::BinaryHeap;

/// Which eligible-queue order a node uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// Exact deadline order.
    #[default]
    Exact,
    /// Bucketed approximate order; emulation error < the bucket width.
    Bucketed {
        /// Bucket width: the quantum of the priority key (ps when time-keyed).
        bucket: Duration,
    },
}

/// The eligible queue of one node, generic over the queued payload (the
/// node step stores dense [`crate::PacketRef`] arena indices).
pub(crate) struct EligibleQueue<T> {
    heap: BinaryHeap<KeyedEntry<u128, T>>,
    /// Push counter: the FIFO tie-break among equal quantized keys.
    seq: u64,
    /// The heap orders `key / quantum`: 1 when exact, else the bucket width.
    quantum: u128,
}

impl<T> EligibleQueue<T> {
    pub(crate) fn new(kind: QueueKind) -> Self {
        let quantum = match kind {
            QueueKind::Exact => 1,
            QueueKind::Bucketed { bucket } => {
                assert!(bucket > Duration::ZERO, "bucketed queue: zero width");
                u128::from(bucket)
            }
        };
        EligibleQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            quantum,
        }
    }

    pub(crate) fn push(&mut self, mut key: u128, item: T) {
        // The exact queue, the hot one, runs no u128 division.
        if self.quantum != 1 {
            key /= self.quantum;
        }
        self.heap.push(KeyedEntry {
            key,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.item)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Packets awaiting service, excluding any packet in transmission.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, SessionId};
    use lit_sim::{SimRng, Time};

    fn pkt(seq: u64) -> Packet {
        Packet::new(SessionId(0), seq, 424, Time::ZERO)
    }

    #[test]
    fn exact_orders_by_key_then_fifo() {
        let mut q = EligibleQueue::new(QueueKind::Exact);
        q.push(30, pkt(1));
        q.push(10, pkt(2));
        q.push(10, pkt(3));
        q.push(20, pkt(4));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|p| p.seq).collect();
        assert_eq!(order, vec![2, 3, 4, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn pops_follow_a_stable_sort_by_quantized_key() {
        // Random interleaved pushes and pops: every pop must be the live
        // entry first in `(key / quantum, push index)` order.
        let mut rng = SimRng::seed_from(33);
        let widths = [1, 33, 1_000].map(|ns| Some(Duration::from_ns(ns)));
        for bucket in [None].into_iter().chain(widths) {
            let kind = bucket.map_or(QueueKind::Exact, |bucket| QueueKind::Bucketed { bucket });
            let quantum = bucket.map_or(1, u128::from);
            let mut q = EligibleQueue::new(kind);
            let mut live: Vec<(u128, u64)> = Vec::new();
            for index in 0..4_000u64 {
                if rng.below(5) < 3 {
                    let key = u128::from(rng.below(4_000) * 250);
                    q.push(key, index);
                    live.push((key, index));
                    continue;
                }
                let want = (0..live.len()).min_by_key(|&i| (live[i].0 / quantum, live[i].1));
                assert_eq!(q.pop(), want.map(|i| live.remove(i).1), "{kind:?}");
                assert_eq!(q.len(), live.len());
            }
        }
    }

    #[test]
    fn bucketed_is_fifo_within_bucket() {
        let w = Duration::from_ms(1);
        let mut q = EligibleQueue::new(QueueKind::Bucketed { bucket: w });
        // Keys 0.4 ms and 0.9 ms share bucket 0: FIFO wins over key order.
        q.push(u128::from(Duration::from_us(900)), pkt(1));
        q.push(u128::from(Duration::from_us(400)), pkt(2));
        // 1.5 ms lands in bucket 1.
        q.push(u128::from(Duration::from_us(1_500)), pkt(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|p| p.seq).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn bucketed_error_is_below_one_bucket() {
        // Any inversion the bucketed queue produces involves keys within
        // one bucket width of each other.
        let w = Duration::from_us(500);
        let mut q = EligibleQueue::new(QueueKind::Bucketed { bucket: w });
        let keys = [7u64, 3, 9, 1, 5, 2, 8, 4, 6, 0];
        for (i, &k) in keys.iter().enumerate() {
            let mut p = pkt(i as u64);
            p.deadline = Time::from_us(k * 100);
            q.push((k * 100_000_000) as u128, p);
        }
        let mut popped = Vec::new();
        while let Some(p) = q.pop() {
            popped.push(p.deadline);
        }
        for (i, a) in popped.iter().enumerate() {
            for b in &popped[i + 1..] {
                if a > b {
                    assert!(*a - *b < w, "inversion of {} over {}", a, b);
                }
            }
        }
    }

    #[test]
    fn bucketed_pop_never_lies_about_length() {
        // Regression guard for the old desync hazard: every packet the
        // queue accepted must come back out as a `Some`, with `None` only
        // once truly empty — across interleavings that empty and refill
        // quantization buckets repeatedly.
        let w = Duration::from_us(10);
        let mut q = EligibleQueue::new(QueueKind::Bucketed { bucket: w });
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for round in 0..50u64 {
            for i in 0..(round % 7) + 1 {
                // Mix of shared and distinct buckets, plus far-ahead keys.
                let key = (round % 3) as u128 * u128::from(w)
                    + i as u128
                    + (i % 2) as u128 * 1_000_000_000;
                q.push(key, pkt(pushed));
                pushed += 1;
            }
            for _ in 0..(round % 5) {
                if q.pop().is_some() {
                    popped += 1;
                } else {
                    assert!(q.is_empty(), "pop returned None on a non-empty queue");
                }
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(pushed, popped, "queue lost or invented packets");
        assert!(q.is_empty());
    }
}
