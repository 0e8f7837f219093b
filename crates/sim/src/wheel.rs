//! Hierarchical (radix) timer wheel: exact, amortized-O(1) at any horizon.
//!
//! [`TimerWheel`] is the third engine behind `EventQueue` (besides the
//! binary heap and the calendar ring, `calendar.rs`). Like the
//! calendar it is an *exact* min-priority queue — it pops the identical
//! `(key, seq)` sequence, FIFO among equal keys — but where the calendar
//! keeps one ring whose bucket width must track the live-key distribution
//! (and rebuilds when it drifts), the wheel is a fixed radix decomposition
//! of the key space itself: no width estimation, no overflow heap, no
//! distribution-dependent degradation. Eligibility release stays O(1) even
//! when holding timers span from "next cell slot" (sub-microsecond) to the
//! far end of the simulated horizon.
//!
//! # Layout
//!
//! A `u64` picosecond key is read as eleven 6-bit digits (66 bits ≥ 64).
//! Level `l` has 64 slots; an entry lives at the *highest* level at which
//! its digit differs from the cursor's (level 0 if the key is inside the
//! cursor's 64-key block). Two invariants follow from insertion and are
//! preserved by every cursor move:
//!
//! 1. every live key is `>= cursor` (backdated pushes trigger a rebuild);
//! 2. an entry at level `l` agrees with the cursor on all digits above `l`
//!    and exceeds it at digit `l` (so equal keys are always co-located,
//!    which is what makes FIFO-exactness structural rather than lucky).
//!
//! Level-0 slots therefore hold exactly one key each, and popping is: take
//! the front of the lowest occupied level-0 slot (a `u64` occupancy bitmap
//! per level makes "lowest occupied" one `trailing_zeros`). When level 0 is
//! empty, the lowest occupied slot of the lowest occupied level is
//! *cascaded*: the cursor jumps to that slot's span and its entries are
//! re-placed, all landing at strictly lower levels. An entry can cascade at
//! most ten times over its lifetime, so the per-event cost is O(1)
//! amortized regardless of how far ahead it was scheduled.

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

use std::cell::Cell;
use std::collections::VecDeque;

/// Bits per digit; each level fans out into `1 << BITS` slots.
const BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Levels needed to cover all 64 key bits (`11 * 6 = 66`).
const LEVELS: usize = 11;

struct Entry<T> {
    key: u64,
    /// Monotone push counter; the FIFO tie-break among equal keys.
    seq: u64,
    item: T,
}

/// Cached location of the current minimum, so `peek` + `pop` (the
/// executor's idiom) costs one scan, not two.
#[derive(Clone, Copy)]
struct MinPos {
    level: usize,
    slot: usize,
    idx: usize,
    key: u64,
    seq: u64,
}

/// An exact min-priority queue over `u64` keys with amortized-O(1)
/// push/pop and FIFO order among equal keys, backed by a hierarchical
/// timer wheel.
pub(crate) struct TimerWheel<T> {
    /// `LEVELS * SLOTS` slot queues, flattened (`level * SLOTS + slot`).
    /// A slot queue is append-at-back / take-at-front, so both direct
    /// pushes and cascade re-placements preserve seq order.
    slots: Box<[VecDeque<Entry<T>>]>,
    /// Per-level occupancy bitmap; bit `s` set iff slot `s` is non-empty.
    occ: [u64; LEVELS],
    /// Lower bound on every live key (the last popped key, the span start
    /// of the last cascaded slot, or the smallest pushed key since).
    cursor: u64,
    /// Total live entries.
    len: usize,
    /// Monotone push counter.
    next_seq: u64,
    hint: Cell<Option<MinPos>>,
}

impl<T> TimerWheel<T> {
    /// An empty wheel. The slot table is allocated eagerly (`704` empty
    /// queues) but the queues themselves allocate only on first use.
    pub(crate) fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occ: [0; LEVELS],
            cursor: 0,
            len: 0,
            next_seq: 0,
            hint: Cell::new(None),
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Drop all entries, keeping allocations. The seq counter keeps
    /// increasing so global FIFO order survives a clear.
    pub(crate) fn clear(&mut self) {
        #[expect(
            clippy::indexing_slicing,
            reason = "l < LEVELS and s < SLOTS: 6-bit bitmap index"
        )]
        for l in 0..LEVELS {
            let mut occ = self.occ[l];
            self.occ[l] = 0;
            while occ != 0 {
                let s = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                self.slots[l * SLOTS + s].clear();
            }
        }
        self.len = 0;
        self.hint.set(None);
    }

    /// The level an entry with `key` belongs at, relative to the current
    /// cursor: the highest 6-bit digit at which they differ.
    fn level_of(&self, key: u64) -> usize {
        let x = key ^ self.cursor;
        if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / BITS) as usize
        }
    }

    /// Structural insert at the level/slot dictated by the cursor.
    /// Does not touch `len`; callers account for it.
    fn place(&mut self, e: Entry<T>) {
        let l = self.level_of(e.key);
        let s = ((e.key >> (BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "l < LEVELS (64-bit key / 6-bit digits) and s < SLOTS (6-bit mask)"
        )]
        self.slots[l * SLOTS + s].push_back(e);
        #[expect(clippy::indexing_slicing, reason = "l < LEVELS as above")]
        {
            self.occ[l] |= 1 << s;
        }
    }

    /// Insert `item` at `key`. Keys may arrive out of order; a key below
    /// the cursor (already-popped territory) forces a full rebuild, which
    /// executors never trigger because simulation time is monotone.
    pub(crate) fn push(&mut self, key: u64, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.hint.set(None);
        if self.len == 0 {
            self.cursor = key;
        } else if key < self.cursor {
            self.rebuild(key);
        }
        self.place(Entry { key, seq, item });
        self.len += 1;
    }

    /// Re-anchor the wheel at `new_front` and re-place every entry.
    /// Re-placement in seq order keeps equal-key entries FIFO in their
    /// new slots. Cold path: only a backdated push lands here.
    fn rebuild(&mut self, new_front: u64) {
        let mut all: Vec<Entry<T>> = Vec::with_capacity(self.len);
        #[expect(
            clippy::indexing_slicing,
            reason = "l < LEVELS and s < SLOTS: 6-bit bitmap index"
        )]
        for l in 0..LEVELS {
            let mut occ = self.occ[l];
            self.occ[l] = 0;
            while occ != 0 {
                let s = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                all.extend(self.slots[l * SLOTS + s].drain(..));
            }
        }
        all.sort_unstable_by_key(|e| e.seq);
        self.cursor = new_front;
        for e in all {
            self.place(e);
        }
    }

    /// Empty the lowest occupied slot of the lowest occupied level `>= 1`
    /// into lower levels, advancing the cursor to that slot's span start.
    /// Every re-placed entry lands at a strictly lower level, so each
    /// entry cascades at most `LEVELS - 1` times over its lifetime.
    fn cascade(&mut self) {
        let mut l = 1;
        #[expect(
            clippy::indexing_slicing,
            reason = "l < LEVELS: loop guard checks the bound before indexing"
        )]
        while l < LEVELS && self.occ[l] == 0 {
            l += 1;
        }
        debug_assert!(l < LEVELS, "wheel: non-empty but no occupied level");
        if l >= LEVELS {
            return;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "l < LEVELS: guarded by the check above"
        )]
        let s = self.occ[l].trailing_zeros() as usize;
        let shift = BITS * l as u32;
        debug_assert!(
            s as u64 > (self.cursor >> shift) & (SLOTS as u64 - 1),
            "wheel: occupied slot at or below the cursor digit"
        );
        #[expect(clippy::indexing_slicing, reason = "l < LEVELS as above")]
        {
            self.occ[l] &= !(1 << s);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "l < LEVELS and s < SLOTS: 6-bit bitmap index"
        )]
        let drained = std::mem::take(&mut self.slots[l * SLOTS + s]);
        // Span start of the cascaded slot: cursor digits above `l` kept,
        // digit `l` set to `s`, everything below zeroed. The top level's
        // "digits above" are empty, hence the shift guard.
        let hi = shift + BITS;
        let high = if hi >= 64 {
            0
        } else {
            (self.cursor >> hi) << hi
        };
        self.cursor = high | ((s as u64) << shift);
        for e in drained {
            self.place(e);
        }
    }

    /// Pop the front entry of level-0 slot `s` and advance the cursor to
    /// its key. Caller guarantees the slot is occupied.
    fn take_front(&mut self, s: usize) -> (u64, T) {
        #[expect(clippy::indexing_slicing, reason = "s < SLOTS: 6-bit bitmap index")]
        let q = &mut self.slots[s];
        #[expect(
            clippy::expect_used,
            reason = "caller found slot s occupied in the level-0 bitmap, and the bitmap tracks emptiness exactly"
        )]
        let e = q.pop_front().expect("wheel: occupied slot is empty");
        if q.is_empty() {
            self.occ[0] &= !(1 << s);
        }
        self.len -= 1;
        self.cursor = e.key;
        (e.key, e.item)
    }

    /// Remove and return the smallest-key entry (FIFO among equal keys).
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        if let Some(h) = self.hint.take() {
            if h.level == 0 {
                let (key, item) = self.take_front(h.slot);
                debug_assert_eq!(key, h.key);
                return Some((key, item));
            }
        }
        loop {
            let l0 = self.occ[0];
            if l0 != 0 {
                return Some(self.take_front(l0.trailing_zeros() as usize));
            }
            self.cascade();
        }
    }

    /// Locate the minimum `(key, seq)` entry.
    ///
    /// Level-0 entries (keys in the cursor's 64-key block) always precede
    /// higher-level ones, and within level 0 the lowest occupied slot is
    /// the single smallest key, whose queue front is the oldest push. With
    /// level 0 empty, invariant 2 orders levels bottom-up: an entry at
    /// level `l` matches the cursor on every digit above `l`, so it beats
    /// any entry at a level `m > l` (which exceeds the cursor — and hence
    /// the level-`l` entry — at digit `m`). The lowest occupied slot of
    /// the lowest occupied level therefore holds the global minimum; only
    /// that one queue, which mixes digits below `l`, needs a linear scan.
    fn find_min(&self) -> Option<MinPos> {
        if self.len == 0 {
            return None;
        }
        let l0 = self.occ[0];
        if l0 != 0 {
            let s = l0.trailing_zeros() as usize;
            #[expect(clippy::indexing_slicing, reason = "s < SLOTS: 6-bit bitmap index")]
            #[expect(
                clippy::expect_used,
                reason = "the level-0 bitmap tracks emptiness exactly"
            )]
            let e = self.slots[s]
                .front()
                .expect("wheel: occupied slot is empty");
            return Some(MinPos {
                level: 0,
                slot: s,
                idx: 0,
                key: e.key,
                seq: e.seq,
            });
        }
        let mut l = 1;
        #[expect(
            clippy::indexing_slicing,
            reason = "l < LEVELS: loop guard checks the bound before indexing"
        )]
        while l < LEVELS && self.occ[l] == 0 {
            l += 1;
        }
        if l >= LEVELS {
            debug_assert!(false, "wheel: non-empty but no occupied level");
            return None;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "l < LEVELS: guarded by the check above"
        )]
        let s = self.occ[l].trailing_zeros() as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "l < LEVELS and s < SLOTS: 6-bit bitmap index"
        )]
        #[expect(
            clippy::expect_used,
            reason = "the bitmap tracks emptiness exactly, so the slot queue is non-empty"
        )]
        let (idx, e) = self.slots[l * SLOTS + s]
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.key, e.seq))
            .expect("wheel: occupied slot is empty");
        Some(MinPos {
            level: l,
            slot: s,
            idx,
            key: e.key,
            seq: e.seq,
        })
    }

    /// The smallest key, without removing it. Caches the found position,
    /// so the executor's peek-then-pop idiom scans once.
    pub(crate) fn peek_key(&self) -> Option<u64> {
        if let Some(h) = self.hint.get() {
            return Some(h.key);
        }
        let m = self.find_min();
        self.hint.set(m);
        m.map(|m| m.key)
    }

    /// The smallest-key entry (key and a borrow of its item), without
    /// removing it. Shares the cached position with `peek_key`/`pop`.
    pub(crate) fn peek(&self) -> Option<(u64, &T)> {
        let pos = match self.hint.get() {
            Some(h) => h,
            None => {
                let m = self.find_min()?;
                self.hint.set(Some(m));
                m
            }
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "hint invariant: find_min cached a live position and every mutation clears the hint"
        )]
        let e = &self.slots[pos.level * SLOTS + pos.slot][pos.idx];
        debug_assert_eq!((e.key, e.seq), (pos.key, pos.seq));
        Some((e.key, e.item_ref()))
    }
}

impl<T> Entry<T> {
    fn item_ref(&self) -> &T {
        &self.item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn orders_and_fifo_ties() {
        let mut w = TimerWheel::new();
        for i in (0..100u64).rev() {
            w.push(i * 1_000_003, i);
        }
        for i in 0..1000u64 {
            w.push(500, 100 + i);
        }
        let mut prev = None;
        let mut last_seq_at_500 = None;
        let mut n = 0;
        while let Some((k, v)) = w.pop() {
            if let Some(p) = prev {
                assert!(k >= p, "keys out of order: {k} after {p}");
            }
            if k == 500 && v >= 100 {
                if let Some(s) = last_seq_at_500 {
                    assert_eq!(v, s + 1, "ties not FIFO");
                }
                last_seq_at_500 = Some(v);
            }
            prev = Some(k);
            n += 1;
        }
        assert_eq!(n, 1100);
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimerWheel::new();
        let keys = [9u64, 3, 3, 1 << 40, 7, u64::MAX, 0, 64, 63, 65];
        for (i, &k) in keys.iter().enumerate() {
            w.push(k, i);
        }
        while w.len() > 0 {
            let pk = w.peek_key().unwrap();
            let (k2, &v) = w.peek().unwrap();
            let (k, v2) = w.pop().unwrap();
            assert_eq!((pk, k2, v), (k, k, v2));
        }
        assert_eq!(w.peek_key(), None);
        assert_eq!(w.peek(), None);
    }

    #[test]
    fn backdated_push_rebuilds() {
        let mut w = TimerWheel::new();
        w.push(1 << 50, "far");
        assert_eq!(w.peek_key(), Some(1 << 50));
        w.push(5, "near"); // below the cursor: rebuild
        w.push(5, "near2");
        assert_eq!(w.pop(), Some((5, "near")));
        assert_eq!(w.pop(), Some((5, "near2")));
        assert_eq!(w.pop(), Some((1 << 50, "far")));
    }

    #[test]
    fn sentinels_at_the_top_of_the_key_space() {
        let mut w = TimerWheel::new();
        w.push(u64::MAX, "a");
        w.push(u64::MAX - 1, "b");
        w.push(u64::MAX, "c");
        w.push(0, "zero"); // backdated: rebuild with sentinels live
        assert_eq!(w.pop(), Some((0, "zero")));
        assert_eq!(w.pop(), Some((u64::MAX - 1, "b")));
        assert_eq!(w.pop(), Some((u64::MAX, "a")));
        assert_eq!(w.pop(), Some((u64::MAX, "c")));
        assert_eq!(w.pop(), None);
        // Cursor parked at the top: the wheel must accept new work.
        w.push(42, "again");
        assert_eq!(w.pop(), Some((42, "again")));
    }

    /// Differential fuzz against a reference heap ordered by `(key, seq)`.
    #[test]
    fn agrees_with_reference_heap() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..50 {
            let mut w = TimerWheel::new();
            let mut model: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut floor = 0u64; // keep pushes monotone-ish; dips exercise rebuild
            for _ in 0..2000 {
                let r = rng();
                if r % 100 < 60 || model.is_empty() {
                    let key = match r % 10 {
                        0 => floor,                    // exact tie with cursor
                        1 => u64::MAX - (r >> 32) % 4, // sentinel band
                        2 => (r >> 8) % 64,            // backdated small keys
                        _ => floor.saturating_add((r >> 16) % (1 << (round % 48 + 8))),
                    };
                    w.push(key, seq);
                    model.push(std::cmp::Reverse((key, seq)));
                    seq += 1;
                } else {
                    let got = w.pop();
                    let want = model.pop().map(|std::cmp::Reverse((k, s))| (k, s));
                    assert_eq!(got, want);
                    if let Some((k, _)) = got {
                        floor = k;
                    }
                }
            }
            while let Some(std::cmp::Reverse((k, s))) = model.pop() {
                assert_eq!(w.pop(), Some((k, s)));
            }
            assert_eq!(w.pop(), None);
            assert_eq!(w.len(), 0);
        }
    }

    #[test]
    fn clear_keeps_seq_monotone() {
        let mut w = TimerWheel::new();
        w.push(10, 0);
        w.push(20, 1);
        w.clear();
        assert_eq!(w.len(), 0);
        w.push(10, 2);
        w.push(10, 3);
        assert_eq!(w.pop(), Some((10, 2)));
        assert_eq!(w.pop(), Some((10, 3)));
    }
}
