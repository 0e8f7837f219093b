//! A ring-array **calendar queue** (Brown, CACM '88): an exact,
//! amortized-O(1) priority queue, the engine behind
//! `EventBackend::Calendar`.
//!
//! The structure is a ring of `N` buckets, each `width` key-units wide.
//! Bucket `b` holds keys whose *day* `key / width` satisfies
//! `day % N == b`, so the ring covers one *year* of `N * width` key-units
//! and wraps. Both `N` and `width` are powers of two, making every
//! day/bucket computation a shift-and-mask — no 128-bit division on the
//! hot path. Unlike the textbook layout (a linked list per bucket), each
//! bucket stores up to [`BUCKET_CAP`] entries **inline** in the ring
//! array, sorted by `(key, seq)`; the rare entries that do not fit spill
//! into a shared binary-heap side pocket. One push or pop therefore
//! touches a single ring cache line in the common case — the difference
//! between this and a pointer-chasing layout is ~3× at a million queued
//! events. Operations:
//!
//! * **push** drops the entry into its bucket's inline slots. If the
//!   bucket is full, the largest `(key, seq)` among {resident, new} goes
//!   to the overflow heap, so the inline slots always hold the bucket's
//!   smallest entries and the slot front stays the bucket minimum;
//! * **pop** scans forward from the cursor (a lower bound on every live
//!   ring key) and takes the first bucket front inside its current
//!   day-window — O(1) expected, because the next event of a well-sized
//!   calendar is at most a few day-windows ahead. The winner is then
//!   compared against the overflow-heap minimum; the smaller `(key, seq)`
//!   pops. If a whole year is scanned fruitlessly (all remaining events
//!   far in the future, e.g. a `Time::MAX` sentinel), pop falls back to a
//!   direct O(N) min-scan over bucket fronts — always correct — and jumps
//!   the cursor there so the *next* pop is O(1) again;
//! * the ring **resizes** lazily: it doubles when entries outnumber
//!   buckets and halves below a quarter entry per bucket, re-estimating
//!   `width` from the inter-decile key spread (deciles rather than
//!   min/max so far-future sentinels cannot wreck the estimate). Long
//!   scans and overflow traffic accrue *debt*; once the debt since the
//!   last rebuild exceeds the queue length, the ring rebuilds in place
//!   with a fresh width. A calendar whose width has drifted wrong — or
//!   was never estimated, right after construction — heals itself at
//!   amortized O(1) cost, and a hostile key distribution (everything in
//!   one bucket) degrades to the overflow heap's O(log n), never worse.
//!
//! Unlike the *approximate* calendar the paper sketches for line cards,
//! this one is **exact**: pops come out in strict `(key, seq)` order, FIFO
//! among equal keys, bit-identical to a binary heap. The approximation
//! knob lives one level up, in `lit-net`'s bucketed eligible queue, which
//! quantizes keys *before* they reach this ring.

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

use crate::entry::KeyedEntry;
use core::cell::Cell;
use std::collections::BinaryHeap;

/// Inline entries per ring bucket. Four slots keep a bucket within two
/// cache lines for small payloads while making overflow spills rare at
/// the steady-state occupancy of ≤ 1 entry per bucket.
const BUCKET_CAP: usize = 4;
/// Minimum (and initial) number of buckets; the ring never shrinks below.
const MIN_BUCKETS: usize = 16;
/// Shrink when `len * SHRINK_DIV < nbuckets` (growth doubles the ring
/// whenever `len > nbuckets`, so occupancy stays in (¼, 1]).
const SHRINK_DIV: usize = 4;
/// Scans this much longer than ideal are charged to the debt counter.
const FREE_SCAN: usize = 4;
/// Rebuild (re-estimating the width) when accrued debt exceeds
/// `max(len, DEBT_FLOOR)` — the rebuild then costs no more than the work
/// already wasted, keeping everything amortized O(1).
const DEBT_FLOOR: u64 = 64;

struct Slot<T> {
    key: u128,
    seq: u64,
    item: T,
}

/// One ring bucket: up to [`BUCKET_CAP`] slots, sorted by `(key, seq)`.
struct Bucket<T> {
    len: u8,
    slots: [Option<Slot<T>>; BUCKET_CAP],
}

impl<T> Bucket<T> {
    fn new() -> Self {
        Bucket {
            len: 0,
            slots: core::array::from_fn(|_| None),
        }
    }

    fn front(&self) -> Option<&Slot<T>> {
        self.slots[0].as_ref()
    }

    /// Insert keeping `(key, seq)` order; caller guarantees room.
    fn insert_sorted(&mut self, slot: Slot<T>) {
        let mut i = self.len as usize;
        while i > 0 {
            #[expect(
                clippy::indexing_slicing,
                clippy::expect_used,
                reason = "structure invariant: i <= len <= BUCKET_CAP and every slot below len is Some"
            )]
            let prev = self.slots[i - 1].as_ref().expect("bucket: hole below len");
            if (prev.key, prev.seq) <= (slot.key, slot.seq) {
                break;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "caller guarantees len < BUCKET_CAP, so i and i - 1 are in bounds"
            )]
            {
                self.slots[i] = self.slots[i - 1].take();
            }
            i -= 1;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "caller guarantees len < BUCKET_CAP, so i is in bounds"
        )]
        {
            self.slots[i] = Some(slot);
        }
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<Slot<T>> {
        let out = self.slots[0].take()?;
        let l = self.len as usize;
        for i in 0..l - 1 {
            #[expect(
                clippy::indexing_slicing,
                reason = "structure invariant: i + 1 < len <= BUCKET_CAP"
            )]
            {
                self.slots[i] = self.slots[i + 1].take();
            }
        }
        self.len -= 1;
        Some(out)
    }

    /// Remove and return the largest entry; caller guarantees non-empty.
    fn pop_back(&mut self) -> Slot<T> {
        self.len -= 1;
        #[expect(
            clippy::indexing_slicing,
            reason = "structure invariant: the old len was <= BUCKET_CAP and every slot below it is Some"
        )]
        #[expect(
            clippy::expect_used,
            reason = "structure invariant: every slot below len is Some"
        )]
        self.slots[self.len as usize]
            .take()
            .expect("bucket: hole below len")
    }
}

/// Where the cached minimum lives.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MinLoc {
    Ring(usize),
    Overflow,
}

/// Cached location of the current minimum, so `peek` + `pop` (the
/// executor's idiom) costs one scan, not two.
#[derive(Clone, Copy)]
struct MinPos {
    loc: MinLoc,
    key: u128,
    seq: u64,
}

/// An exact min-priority queue over `u128` keys with amortized-O(1)
/// push/pop and FIFO order among equal keys.
pub(crate) struct CalendarQueue<T> {
    buckets: Vec<Bucket<T>>,
    /// Entries that did not fit their bucket's inline slots. Always the
    /// *largest* entries of their bucket, but possibly smaller than other
    /// buckets' fronts, so the pop path compares against its minimum.
    overflow: BinaryHeap<KeyedEntry<u128, T>>,
    /// `width = 1 << width_shift` key-units per bucket.
    width_shift: u32,
    /// Total entries (ring + overflow).
    len: usize,
    /// Entries held in ring buckets.
    ring_len: usize,
    /// Monotone push counter; the FIFO tie-break among equal keys.
    next_seq: u64,
    /// Cursor: a lower bound on every live key (the last popped key, or
    /// the smallest pushed key since). Pop scans forward from here; a
    /// fruitless year-scan jumps it to the ring minimum, hence the Cell.
    cur: Cell<u128>,
    hint: Cell<Option<MinPos>>,
    /// `(key, seq)` of the overflow-heap minimum, mirrored here so the
    /// pop path does not dereference the heap's backing array (a likely
    /// cache miss) when the ring already holds the answer.
    ov_min: Option<(u128, u64)>,
    /// Wasted work (scan steps, overflow traffic) since the last rebuild.
    debt: Cell<u64>,
}

impl<T> CalendarQueue<T> {
    /// An empty calendar pre-sized for roughly `cap` concurrent entries.
    /// The width starts at 1 and is estimated from live keys at the first
    /// debt-triggered recalibration or occupancy-triggered resize.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Self::with_buckets(cap.max(MIN_BUCKETS).next_power_of_two())
    }

    fn with_buckets(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        CalendarQueue {
            buckets: (0..n).map(|_| Bucket::new()).collect(),
            overflow: BinaryHeap::new(),
            ov_min: None,
            width_shift: 0,
            len: 0,
            ring_len: 0,
            next_seq: 0,
            cur: Cell::new(0),
            hint: Cell::new(None),
            debt: Cell::new(0),
        }
    }

    /// Number of queued entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Drop every entry, keeping the ring geometry and the push counter
    /// (so FIFO sequence numbers keep increasing across a clear).
    pub(crate) fn clear(&mut self) {
        for b in &mut self.buckets {
            for s in &mut b.slots {
                *s = None;
            }
            b.len = 0;
        }
        self.overflow.clear();
        self.ov_min = None;
        self.len = 0;
        self.ring_len = 0;
        self.hint.set(None);
        self.debt.set(0);
    }

    fn bucket_of(&self, key: u128) -> usize {
        ((key >> self.width_shift) as usize) & (self.buckets.len() - 1)
    }

    /// Insert `key`; among equal keys, entries pop in push order.
    pub(crate) fn push(&mut self, key: u128, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.len == 0 || key < self.cur.get() {
            // Keep the invariant `cur <= every live key`; on an empty
            // calendar also jump the cursor forward so pop does not scan
            // up from a stale past.
            self.cur.set(key);
        }
        if let Some(h) = self.hint.get() {
            if key < h.key {
                self.hint.set(None);
            }
        }
        self.place(Slot { key, seq, item });
        self.len += 1;
        if self.len > self.buckets.len() {
            self.rebuild(self.buckets.len() * 2);
        } else if self.debt.get() >= (self.len as u64).max(DEBT_FLOOR) {
            self.rebuild(self.buckets.len());
        }
    }

    /// Put one slot into its ring bucket, spilling the bucket's largest
    /// entry to the overflow heap when the inline slots are full.
    fn place(&mut self, slot: Slot<T>) {
        let idx = self.bucket_of(slot.key);
        #[expect(
            clippy::indexing_slicing,
            reason = "bucket_of maps every key into 0..buckets.len()"
        )]
        let b = &mut self.buckets[idx];
        if (b.len as usize) < BUCKET_CAP {
            b.insert_sorted(slot);
            self.ring_len += 1;
            return;
        }
        // Overflow traffic is O(log n) work the width estimate should
        // have avoided; charge it so chronic spilling triggers a rebuild.
        self.debt.set(self.debt.get() + 1);
        #[expect(
            clippy::expect_used,
            reason = "this branch runs only when the bucket is full, so its last slot is Some"
        )]
        let back = b.slots[BUCKET_CAP - 1]
            .as_ref()
            .expect("bucket: hole below len");
        let spill = if (slot.key, slot.seq) >= (back.key, back.seq) {
            slot
        } else {
            let evicted = b.pop_back();
            b.insert_sorted(slot);
            evicted
        };
        if self.ov_min.is_none_or(|m| (spill.key, spill.seq) < m) {
            self.ov_min = Some((spill.key, spill.seq));
        }
        self.overflow.push(KeyedEntry {
            key: spill.key,
            seq: spill.seq,
            item: spill.item,
        });
    }

    /// The smallest key, without removing it. Caches the found position,
    /// so the executor's peek-then-pop idiom scans once.
    pub(crate) fn peek_key(&self) -> Option<u128> {
        if let Some(h) = self.hint.get() {
            return Some(h.key);
        }
        let m = self.find_min();
        self.hint.set(m);
        m.map(|m| m.key)
    }

    /// The smallest-key entry (key and a borrow of its item), without
    /// removing it. Shares the cached position with `peek_key`/`pop`.
    pub(crate) fn peek(&self) -> Option<(u128, &T)> {
        let pos = match self.hint.get() {
            Some(h) => h,
            None => {
                let m = self.find_min()?;
                self.hint.set(Some(m));
                m
            }
        };
        match pos.loc {
            MinLoc::Ring(idx) => {
                let s = self.buckets.get(idx).and_then(|b| b.front())?;
                debug_assert_eq!((s.key, s.seq), (pos.key, pos.seq));
                Some((s.key, &s.item))
            }
            // The heap root IS the hinted entry: find_min compared the
            // ring winner against ov_min, the mirror of the heap's root.
            MinLoc::Overflow => {
                let e = self.overflow.peek()?;
                debug_assert_eq!((e.key, e.seq), (pos.key, pos.seq));
                Some((e.key, &e.item))
            }
        }
    }

    /// Remove and return the smallest-key entry (FIFO among equal keys).
    pub(crate) fn pop(&mut self) -> Option<(u128, T)> {
        let pos = match self.hint.take() {
            Some(h) => h,
            None => self.find_min()?,
        };
        let (key, item) = match pos.loc {
            MinLoc::Ring(idx) => {
                #[expect(
                    clippy::indexing_slicing,
                    clippy::expect_used,
                    reason = "hint invariant: find_min cached a position inside an occupied bucket, and every mutation clears the hint"
                )]
                let slot = self.buckets[idx]
                    .pop_front()
                    .expect("calendar: hinted bucket is empty");
                debug_assert_eq!((slot.key, slot.seq), (pos.key, pos.seq));
                self.ring_len -= 1;
                (slot.key, slot.item)
            }
            MinLoc::Overflow => {
                self.debt.set(self.debt.get() + 1);
                #[expect(
                    clippy::expect_used,
                    reason = "hint invariant: find_min saw a non-empty overflow heap, and every mutation clears the hint"
                )]
                let e = self
                    .overflow
                    .pop()
                    .expect("calendar: hinted overflow is empty");
                debug_assert_eq!((e.key, e.seq), (pos.key, pos.seq));
                self.ov_min = self.overflow.peek().map(|o| (o.key, o.seq));
                (e.key, e.item)
            }
        };
        self.len -= 1;
        self.cur.set(key);
        if self.buckets.len() > MIN_BUCKETS && self.len * SHRINK_DIV < self.buckets.len() {
            self.rebuild(self.buckets.len() / 2);
        } else if self.debt.get() >= (self.len as u64).max(DEBT_FLOOR) {
            // Scanning / spilling has wasted more work than a rebuild
            // costs: the width is wrong for the live keys. Re-estimate.
            self.rebuild(self.buckets.len());
        }
        Some((key, item))
    }

    /// Locate the minimum `(key, seq)` entry across ring and overflow.
    ///
    /// Ring buckets are sorted and hold their bucket's smallest entries
    /// (spills evict the largest), so each front is its bucket's minimum.
    /// Scan one year of day-windows from the cursor: the first front
    /// inside its window is the ring minimum (every smaller key would
    /// live in an already-scanned window of an earlier bucket, whose
    /// front proved that window empty). If a whole year is empty, fall
    /// back to a direct min over bucket fronts and jump the cursor there,
    /// so repeated pops of far-future keys stay O(1). The ring winner is
    /// then compared against the overflow minimum.
    fn find_min(&self) -> Option<MinPos> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<MinPos> = None;
        if self.ring_len > 0 {
            let n = self.buckets.len();
            let width = 1u128 << self.width_shift;
            let cur = self.cur.get();
            let start = self.bucket_of(cur);
            // Upper edge of the cursor's day-window: the next multiple of
            // `width` strictly above `cur` (shift-free because width is a
            // power of two), saturating for keys at the top of the space.
            let mut top = (cur | (width - 1)).saturating_add(1);
            let (wrap, first) = self.buckets.split_at(start);
            let mut step = 0usize;
            'scan: for half in [first, wrap] {
                for (off, b) in half.iter().enumerate() {
                    if let Some(front) = b.front() {
                        if front.key < top {
                            if step > FREE_SCAN {
                                self.debt.set(self.debt.get() + step as u64);
                            }
                            let bucket = if step < first.len() { start + off } else { off };
                            best = Some(MinPos {
                                loc: MinLoc::Ring(bucket),
                                key: front.key,
                                seq: front.seq,
                            });
                            break 'scan;
                        }
                    }
                    step += 1;
                    top = top.saturating_add(width);
                }
            }
            if best.is_none() {
                self.debt.set(self.debt.get() + n as u64);
                for (i, b) in self.buckets.iter().enumerate() {
                    if let Some(f) = b.front() {
                        if best.is_none_or(|m| (f.key, f.seq) < (m.key, m.seq)) {
                            best = Some(MinPos {
                                loc: MinLoc::Ring(i),
                                key: f.key,
                                seq: f.seq,
                            });
                        }
                    }
                }
                debug_assert!(best.is_some(), "calendar: ring_len > 0 but no front");
                if let Some(m) = best {
                    // Everything lives ≥ a year ahead; restart future
                    // scans at the minimum instead of re-walking the ring.
                    // The overflow may hold something earlier, which a
                    // rebuild can bring back into the ring: the cursor
                    // stays a lower bound on that too.
                    let ov = self.ov_min.map_or(m.key, |(key, _)| key);
                    self.cur.set(m.key.min(ov));
                }
            }
        }
        if let Some((ok, os)) = self.ov_min {
            if best.is_none_or(|m| (ok, os) < (m.key, m.seq)) {
                best = Some(MinPos {
                    loc: MinLoc::Overflow,
                    key: ok,
                    seq: os,
                });
            }
        }
        debug_assert!(best.is_some(), "calendar: len > 0 but nothing found");
        best
    }

    /// Re-bucket every entry (ring and overflow) into `new_n` buckets
    /// with a freshly estimated width.
    fn rebuild(&mut self, new_n: usize) {
        self.hint.set(None);
        self.debt.set(0);
        let mut slots: Vec<Slot<T>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            while let Some(s) = b.pop_front() {
                slots.push(s);
            }
        }
        slots.extend(self.overflow.drain().map(|e| Slot {
            key: e.key,
            seq: e.seq,
            item: e.item,
        }));
        self.ov_min = None;
        self.ring_len = 0;
        if let Some(shift) = Self::estimate_width_shift(&slots) {
            self.width_shift = shift;
        }
        if self.buckets.len() != new_n {
            self.buckets = (0..new_n).map(|_| Bucket::new()).collect();
        }
        for s in slots {
            self.place(s);
        }
        // `place` may have re-charged debt for entries that legitimately
        // spill (concentrated keys); start the next period clean so one
        // rebuild cannot immediately trigger another.
        self.debt.set(0);
    }

    /// Width estimate: the mean key gap over the inter-decile range,
    /// rounded up to a power of two, so each current-year bucket holds
    /// O(1) entries and outliers (far-future sentinels) cannot stretch
    /// the year. `None` when there are too few entries to estimate.
    fn estimate_width_shift(slots: &[Slot<T>]) -> Option<u32> {
        if slots.len() < 2 {
            return None;
        }
        let mut keys: Vec<u128> = slots.iter().map(|s| s.key).collect();
        let lo_i = keys.len() / 10;
        let hi_i = keys.len() - 1 - keys.len() / 10;
        let (_, &mut lo, _) = keys.select_nth_unstable(lo_i);
        let (_, &mut hi, _) = keys.select_nth_unstable(hi_i);
        let gaps = (hi_i - lo_i).max(1) as u128;
        let width = ((hi - lo) / gaps).max(1);
        // ceil(log2): the power-of-two width in [mean gap, 2 * mean gap).
        Some((128 - (width - 1).leading_zeros()).min(127))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut q = CalendarQueue::with_capacity(0);
        for key in [50u128, 10, 40, 20, 30, 0] {
            q.push(key, key);
        }
        let mut out = Vec::new();
        while let Some((k, v)) = q.pop() {
            assert_eq!(k, v);
            out.push(k);
        }
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!((q.len(), q.next_seq), (0, 6));
    }

    #[test]
    fn fifo_among_equal_keys() {
        let mut q = CalendarQueue::with_capacity(0);
        q.push(7, "first");
        q.push(7, "second");
        q.push(3, "zeroth");
        q.push(7, "third");
        assert_eq!(q.pop(), Some((3, "zeroth")));
        assert_eq!(q.pop(), Some((7, "first")));
        assert_eq!(q.pop(), Some((7, "second")));
        assert_eq!(q.pop(), Some((7, "third")));
    }

    #[test]
    fn fifo_survives_overflow_spills() {
        // > BUCKET_CAP entries with the same key force spills to the
        // overflow heap; pop order must stay strict push order.
        let mut q = CalendarQueue::with_capacity(0);
        for i in 0..100u64 {
            q.push(42, i);
        }
        for i in 0..100u64 {
            assert_eq!(q.pop(), Some((42, i)));
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_push_pop_with_backdated_keys() {
        let mut q = CalendarQueue::with_capacity(0);
        q.push(1_000, ());
        q.push(2_000, ());
        assert_eq!(q.pop().unwrap().0, 1_000);
        // Push a key *behind* the cursor but ahead of the popped key — the
        // cursor must move back so the scan still finds it.
        q.push(1_500, ());
        q.push(1_200, ());
        assert_eq!(q.pop().unwrap().0, 1_200);
        assert_eq!(q.pop().unwrap().0, 1_500);
        assert_eq!(q.pop().unwrap().0, 2_000);
    }

    #[test]
    fn cursor_jump_on_peek_respects_the_overflow() {
        // Six entries at width 1 spill the 16 000s to the overflow. Once
        // the ring holds only the far 64 000, a *peek* finds its year
        // empty and jumps the cursor — which must not pass the overflow's
        // 16 000s, or the next push drags it to 17 000 and the rebuild
        // that re-rings them leaves them behind it.
        let mut q = CalendarQueue::with_capacity(0);
        for key in [4_000, 16_000, 4_000, 16_000, 8_000, 16_000] {
            q.push(key, ());
        }
        assert_eq!(q.pop(), Some((4_000, ())));
        q.push(13_000, ());
        q.push(64_000, ());
        for want in [4_000, 8_000, 13_000, 16_000] {
            assert_eq!(q.pop(), Some((want, ())));
        }
        assert_eq!(q.peek_key(), Some(16_000));
        q.push(17_000, ());
        assert_eq!(q.peek_key(), Some(16_000));
        for want in [16_000, 16_000, 17_000, 64_000] {
            assert_eq!(q.pop(), Some((want, ())));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn survives_resize_cycles() {
        let mut q = CalendarQueue::with_capacity(0);
        // Grow well past several doublings, then drain to force shrinks.
        let n = 10_000u128;
        for i in 0..n {
            q.push((i * 7919) % 100_000, i);
        }
        assert_eq!(q.len(), n as usize);
        let mut last = 0u128;
        let mut popped = 0usize;
        while let Some((k, _)) = q.pop() {
            assert!(k >= last, "out of order after resize: {k} < {last}");
            last = k;
            popped += 1;
        }
        assert_eq!(popped, n as usize);
    }

    #[test]
    fn far_future_sentinels_are_handled() {
        let mut q = CalendarQueue::with_capacity(0);
        q.push(u64::MAX as u128, "sentinel");
        q.push(u64::MAX as u128, "sentinel2");
        for i in 0..100u128 {
            q.push(i * 1_000, "near");
        }
        for i in 0..100u128 {
            assert_eq!(q.pop(), Some((i * 1_000, "near")));
        }
        assert_eq!(q.pop(), Some((u64::MAX as u128, "sentinel")));
        assert_eq!(q.pop(), Some((u64::MAX as u128, "sentinel2")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clear_keeps_seq_counter() {
        let mut q = CalendarQueue::with_capacity(0);
        q.push(5, ());
        q.push(6, ());
        q.clear();
        assert_eq!((q.len(), q.next_seq), (0, 2));
        q.push(1, ());
        assert_eq!(q.next_seq, 3);
        assert_eq!(q.pop(), Some((1, ())));
    }

    #[test]
    fn hold_model_stays_sorted() {
        // The classic calendar workload: steady-state size, keys drift
        // upward. Exercises the day-window scan and width estimation.
        let mut q = CalendarQueue::with_capacity(0);
        let mut state = 0x1995_u64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u128;
        for i in 0..1_000u128 {
            q.push(i * 100 + (lcg() % 100) as u128, ());
        }
        for _ in 0..50_000 {
            let (k, _) = q.pop().unwrap();
            assert!(k >= now, "hold model went backwards");
            now = k;
            q.push(now + 1 + (lcg() % 200_000) as u128, ());
        }
        assert_eq!(q.len(), 1_000);
    }
}
