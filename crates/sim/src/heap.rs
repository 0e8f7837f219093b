//! The default future-event set: a 4-ary min-heap of 32-byte entries.
//!
//! An entry is `(at, seq, event)`; with a 16-byte event it is 32 bytes,
//! two to a cache line. Order is the `(at, seq)` total order of
//! [`crate::EventQueue`], compared as one `u128` composed in registers
//! (never stored: a packed key field measured slower than the two `u64`s
//! it is made of).
//!
//! Arity 4 halves the levels of a binary heap, and the four children of a
//! node are one contiguous 128-byte group, so a pop at depth 1.5·10⁵ walks
//! nine groups where a binary heap of 64-byte entries walked seventeen
//! pairs of that size. The pop is *bottom-up*: the hole left by the root
//! walks down along the smallest child all the way to a leaf — one branch-
//! free min-of-4 per level, no comparison against the displaced last leaf
//! — and only then does that leaf climb back up from the hole. A future-
//! event set pushes events that are late relative to what it holds, so the
//! last leaf almost always belongs at the bottom and the climb is zero or
//! one step; the textbook top-down sift would pay a fifth, badly predicted
//! comparison on every level for the same result. Entries move through the
//! hole (one copy per level) rather than by swaps, which is why the
//! payload must be `Copy`.
//!
//! Every slice access goes through `get`, so the sift loops carry no
//! panic path; a miss would be a bug in the index arithmetic below and
//! ends the loop instead.

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

use crate::time::Time;

/// Children per node.
const ARITY: usize = 4;

#[derive(Clone, Copy)]
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// `(at, seq)` as one integer: smaller pops first.
    #[inline(always)]
    fn key(&self) -> u128 {
        u128::from(self.at) << 64 | self.seq as u128
    }
}

/// Offset (0..4) of the smallest key in a full group of children,
/// computed with selects rather than branches: which child wins is a coin
/// flip the predictor cannot learn.
#[inline(always)]
fn min_of_4<E>(group: &[Entry<E>; ARITY]) -> usize {
    let [a, b, c, d] = group.each_ref().map(Entry::key);
    let (lo, klo) = if b < a { (1, b) } else { (0, a) };
    let (hi, khi) = if d < c { (3, d) } else { (2, c) };
    if khi < klo {
        hi
    } else {
        lo
    }
}

/// A min-heap on `(at, seq)`; `seq` values must be distinct.
pub(crate) struct QuadHeap<E> {
    v: Vec<Entry<E>>,
}

impl<E: Copy> QuadHeap<E> {
    pub(crate) fn with_capacity(cap: usize) -> Self {
        QuadHeap {
            v: Vec::with_capacity(cap),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.v.len()
    }

    pub(crate) fn clear(&mut self) {
        self.v.clear();
    }

    /// The due time of the earliest entry, if any.
    #[inline]
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.v.first().map(|e| e.at)
    }

    /// The earliest entry's `(at, seq)` as one integer — comparable
    /// across heaps fed from one seq counter — and its payload.
    #[inline]
    pub(crate) fn peek(&self) -> Option<(u128, &E)> {
        self.v.first().map(|e| (e.key(), &e.event))
    }

    /// Overwrite the earliest entry with a later one: one sift instead of
    /// the two of a pop followed by a push. A no-op on an empty heap.
    #[inline]
    pub(crate) fn replace_root(&mut self, at: Time, seq: u64, event: E) {
        if !self.v.is_empty() {
            let hole = self.sink_hole();
            self.sift_up(hole, Entry { at, seq, event });
        }
    }

    pub(crate) fn push(&mut self, at: Time, seq: u64, event: E) {
        let hole = self.v.len();
        let e = Entry { at, seq, event };
        self.v.push(e);
        self.sift_up(hole, e);
    }

    /// Remove the earliest entry if `pred` accepts it.
    #[inline]
    pub(crate) fn pop_if(&mut self, pred: impl FnOnce(Time, &E) -> bool) -> Option<(Time, E)> {
        let root = *self.v.first()?;
        if !pred(root.at, &root.event) {
            return None;
        }
        let last = self.v.pop()?;
        if !self.v.is_empty() {
            let hole = self.sink_hole();
            self.sift_up(hole, last);
        }
        Some((root.at, root.event))
    }

    /// Walk the hole at the root down along the smallest child to a leaf
    /// position and return where it stopped. The slot it stops at holds a
    /// stale copy that the caller overwrites.
    #[inline]
    fn sink_hole(&mut self) -> usize {
        let v = self.v.as_mut_slice();
        let mut hole = 0;
        loop {
            let first = ARITY * hole + 1;
            let Some(group) = v.get(first..) else {
                return hole;
            };
            let offset = match group.first_chunk::<ARITY>() {
                Some(full) => min_of_4(full),
                // The one ragged group at the end of the array, or none.
                None => match group.iter().enumerate().min_by_key(|(_, e)| e.key()) {
                    Some((i, _)) => i,
                    None => return hole,
                },
            };
            let Some(&up) = group.get(offset) else {
                return hole;
            };
            if let Some(slot) = v.get_mut(hole) {
                *slot = up;
            }
            hole = first + offset;
        }
    }

    /// Move `e` up from the hole at `hole` to where its key belongs.
    #[inline]
    fn sift_up(&mut self, mut hole: usize, e: Entry<E>) {
        let v = self.v.as_mut_slice();
        let key = e.key();
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            let Some(&p) = v.get(parent) else {
                break;
            };
            if p.key() <= key {
                break;
            }
            if let Some(slot) = v.get_mut(hole) {
                *slot = p;
            }
            hole = parent;
        }
        if let Some(slot) = v.get_mut(hole) {
            *slot = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every entry sorts after its parent.
    fn assert_heap<E: Copy>(h: &QuadHeap<E>) {
        for (i, e) in h.v.iter().enumerate().skip(1) {
            let parent = &h.v[(i - 1) / ARITY];
            assert!(parent.key() < e.key(), "entry {i} sorts before its parent");
        }
    }

    #[test]
    fn entry_of_a_16_byte_event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Entry<[u32; 4]>>(), 32);
        assert_eq!(std::mem::size_of::<Entry<[u32; 3]>>(), 32);
    }

    #[test]
    fn min_of_4_finds_every_position() {
        for want in 0..ARITY {
            let g: [Entry<()>; ARITY] = std::array::from_fn(|i| Entry {
                at: Time::from_ps(if i == want { 1 } else { 2 }),
                seq: i as u64,
                event: (),
            });
            assert_eq!(min_of_4(&g), want);
            // Equal times: the sequence number decides.
            let g: [Entry<()>; ARITY] = std::array::from_fn(|i| Entry {
                at: Time::MAX,
                seq: if i == want { 0 } else { 1 + i as u64 },
                event: (),
            });
            assert_eq!(min_of_4(&g), want);
        }
    }

    #[test]
    fn shape_holds_across_every_level_boundary() {
        // Sizes one below, at and one above each full level of the
        // layout (1, 5, 21, 85, 341), pushed in descending order so every
        // push climbs to the root, with ties on every fourth instant.
        for n in [1usize, 2, 4, 5, 6, 20, 21, 22, 84, 85, 86, 340, 341, 342] {
            let mut h = QuadHeap::with_capacity(0);
            for i in 0..n as u64 {
                h.push(Time::from_ps((n as u64 - i) / 4), i, i);
                assert_heap(&h);
            }
            let mut prev = None;
            for left in (0..n).rev() {
                let (at, i) = h.pop_if(|_, _| true).expect("entry pending");
                assert!(prev < Some((at, i)), "popped out of (time, seq) order");
                prev = Some((at, i));
                assert_eq!(h.len(), left);
                assert_heap(&h);
            }
            assert_eq!(h.pop_if(|_, _| true), None);
        }
    }

    #[test]
    fn replace_root_is_pop_then_push() {
        // Every size around the first two level boundaries, the
        // replacement landing before, among and after what is pending.
        for n in 1..=22u64 {
            for at in [0, 2 * n / 3, 2 * n + 1] {
                let mut h = QuadHeap::with_capacity(0);
                let mut want = QuadHeap::with_capacity(0);
                for i in 0..n {
                    h.push(Time::from_ps(2 * (n - i)), i, i);
                    want.push(Time::from_ps(2 * (n - i)), i, i);
                }
                assert_eq!(h.peek(), Some(((2u128 << 64) | (n - 1) as u128, &(n - 1))));
                h.replace_root(Time::from_ps(at), n, n);
                want.pop_if(|_, _| true);
                want.push(Time::from_ps(at), n, n);
                assert_heap(&h);
                while let Some(e) = want.pop_if(|_, _| true) {
                    assert_eq!(h.pop_if(|_, _| true), Some(e));
                }
                assert_eq!(h.len(), 0);
            }
        }
        let mut empty = QuadHeap::<u8>::with_capacity(0);
        empty.replace_root(Time::ZERO, 0, 0);
        assert_eq!(empty.peek(), None);
    }

    #[test]
    fn refused_front_stays_put() {
        let mut h = QuadHeap::with_capacity(4);
        h.push(Time::from_ps(7), 0, 'a');
        h.push(Time::from_ps(3), 1, 'b');
        assert_eq!(h.pop_if(|at, _| at < Time::from_ps(3)), None);
        assert_eq!(h.len(), 2);
        assert_eq!(h.peek_time(), Some(Time::from_ps(3)));
        assert_eq!(h.pop_if(|_, &e| e == 'b'), Some((Time::from_ps(3), 'b')));
        h.clear();
        assert_eq!(h.peek_time(), None);
    }
}
