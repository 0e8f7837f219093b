//! The shared keyed-entry helper behind the FIFO-stable priority queues
//! that sit on std's `BinaryHeap`.
//!
//! `lit-net`'s eligible-packet queue, the calendar ring's overflow heap
//! and the reference models of the event-set tests order their contents
//! by `(key, push sequence)`: the key carries the priority (a
//! [`crate::Time`] or a scheduler key), and the monotonically increasing
//! sequence number makes same-key entries pop in push order, which is
//! what keeps simulation runs bit-reproducible across refactors. (The future-event set's own heap keeps the same order in a
//! purpose-built entry, see `heap.rs`.)

use core::cmp::Ordering;

/// An entry of a **min**-ordered priority queue: payload `item` with
/// priority `key`, FIFO among equal keys via `seq`.
///
/// `Ord` is *reversed* (greater key ⇒ `Less`) so the entry can be dropped
/// straight into `std::collections::BinaryHeap` — a max-heap — and the
/// smallest `(key, seq)` pops first:
///
/// ```
/// use lit_sim::KeyedEntry;
/// use std::collections::BinaryHeap;
///
/// let mut h = BinaryHeap::new();
/// h.push(KeyedEntry { key: 2u64, seq: 0, item: "late" });
/// h.push(KeyedEntry { key: 1u64, seq: 1, item: "early" });
/// h.push(KeyedEntry { key: 1u64, seq: 2, item: "early-second" });
/// assert_eq!(h.pop().unwrap().item, "early");
/// assert_eq!(h.pop().unwrap().item, "early-second");
/// assert_eq!(h.pop().unwrap().item, "late");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct KeyedEntry<K, T> {
    /// The priority; smaller pops first.
    pub key: K,
    /// Push sequence number; among equal keys, smaller pops first.
    pub seq: u64,
    /// The payload.
    pub item: T,
}

impl<K: Ord, T> PartialEq for KeyedEntry<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<K: Ord, T> Eq for KeyedEntry<K, T> {}

impl<K: Ord, T> PartialOrd for KeyedEntry<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, T> Ord for KeyedEntry<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so BinaryHeap (a max-heap) pops the smallest
        // (key, seq) first.
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn reversed_order_makes_a_min_heap() {
        let mut h = BinaryHeap::new();
        for (key, seq) in [(5u64, 0u64), (1, 1), (5, 2), (0, 3), (1, 4)] {
            h.push(KeyedEntry { key, seq, item: () });
        }
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| h.pop())
            .map(|e| (e.key, e.seq))
            .collect();
        assert_eq!(popped, vec![(0, 3), (1, 1), (1, 4), (5, 0), (5, 2)]);
    }

    #[test]
    fn eq_ignores_payload() {
        let a = KeyedEntry {
            key: 1u32,
            seq: 2,
            item: "x",
        };
        let b = KeyedEntry {
            key: 1u32,
            seq: 2,
            item: "y",
        };
        assert_eq!(a, b);
    }
}
