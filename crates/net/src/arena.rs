//! Generational packet arena: allocation-free packet storage for the
//! executor's hot loop.
//!
//! Every packet in flight inside one shard lives in one [`PacketArena`]
//! slot; events and eligible queues carry a dense 8-byte [`PacketRef`]
//! instead of the ~80-byte [`Packet`] itself, so event-set entries stay
//! small and moving them never copies scheduler scratch fields around.
//! Slots are recycled through an in-place free list on delivery, drop, or
//! cross-shard handoff, so steady-state simulation performs **zero**
//! allocator traffic: capacity grows to the high-water mark of
//! concurrently live packets and then stays put.
//!
//! References are *generational*: each slot carries a generation counter
//! bumped on free, and a [`PacketRef`] embeds the generation it was minted
//! with. A stale reference (use after free/take) is therefore detected
//! instead of silently aliasing an unrelated packet — `get`/`take` return
//! `None` and the executor's debug assertions catch the wiring bug.
//!
//! A slot is 104 bytes: the 80-byte packet and generation, and the 24-byte
//! `(key, until)` a per-session regulator parks with a packet it holds
//! ([`PacketArena::hold`]). Only held packets need the pair, but on the
//! workload where slots are many (10⁵ sessions, half of them
//! jitter-controlled) nearly every live packet is a held one, so a side
//! table for held packets alone would hold as many entries and save
//! nothing; the pair stays in the slot, where a release reads it with the
//! packet.

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

use crate::packet::Packet;
use lit_sim::Time;

/// A dense generational handle into a [`PacketArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketRef {
    idx: u32,
    gen: u32,
}

impl PacketRef {
    /// The dense slot index (stable while the packet is live).
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }
}

/// One arena slot: the packet payload, what a per-session regulator
/// parked with it ([`PacketArena::hold`]; stale until then) and the
/// slot's current generation. A slot is free iff its index is on the free
/// list; `gen` is bumped when the slot is freed, invalidating outstanding
/// references. The key is two `u64`s because a `u128` would align the
/// slot to 16 bytes and pad it by 8 more.
struct Slot {
    pkt: Packet,
    /// `(key >> 64, key as u64, until)`.
    held: (u64, u64, Time),
    gen: u32,
}

/// A slab of packets with generational references and an in-place free
/// list. See the module docs for the lifetime discipline.
pub struct PacketArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl Default for PacketArena {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// An empty arena with room for `cap` packets before any reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        PacketArena {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Store `pkt`, reusing a freed slot if one exists.
    pub fn alloc(&mut self, pkt: Packet) -> PacketRef {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            #[expect(
                clippy::indexing_slicing,
                reason = "free-list entries are indices of slots this arena pushed; they never dangle"
            )]
            let slot = &mut self.slots[idx as usize];
            slot.pkt = pkt;
            return PacketRef { idx, gen: slot.gen };
        }
        let idx = self.slots.len() as u32;
        let held = (0, 0, Time::ZERO);
        self.slots.push(Slot { pkt, held, gen: 0 });
        PacketRef { idx, gen: 0 }
    }

    /// The slot `r` names, unless `r` is stale.
    #[inline]
    fn slot(&self, r: PacketRef) -> Option<&Slot> {
        self.slots.get(r.idx as usize).filter(|s| s.gen == r.gen)
    }

    /// Mutable twin of [`Self::slot`].
    #[inline]
    fn slot_mut(&mut self, r: PacketRef) -> Option<&mut Slot> {
        let slot = self.slots.get_mut(r.idx as usize);
        slot.filter(|s| s.gen == r.gen)
    }

    /// A per-session regulator holds live packet `r` until `until`, to be
    /// queued with priority `key` then. Kept beside the packet so that the
    /// release event carries the reference alone.
    pub(crate) fn hold(&mut self, r: PacketRef, key: u128, until: Time) {
        if let Some(s) = self.slot_mut(r) {
            s.held = ((key >> 64) as u64, key as u64, until);
        }
    }

    /// A live packet with the `(key, until)` last parked by [`Self::hold`].
    #[inline]
    pub(crate) fn held(&self, r: PacketRef) -> Option<(&Packet, u128, Time)> {
        let s = self.slot(r)?;
        let (hi, lo, until) = s.held;
        Some((&s.pkt, (hi as u128) << 64 | lo as u128, until))
    }

    /// Read a live packet; `None` if the reference is stale.
    #[inline]
    pub fn get(&self, r: PacketRef) -> Option<&Packet> {
        self.slot(r).map(|s| &s.pkt)
    }

    /// Mutate a live packet; `None` if the reference is stale.
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> Option<&mut Packet> {
        self.slot_mut(r).map(|s| &mut s.pkt)
    }

    /// Remove a live packet, returning it by value and recycling its slot.
    /// `None` (and no state change) if the reference is stale.
    pub fn take(&mut self, r: PacketRef) -> Option<Packet> {
        let slot = self.slot_mut(r)?;
        slot.gen = slot.gen.wrapping_add(1);
        let pkt = slot.pkt;
        self.live -= 1;
        self.free.push(r.idx);
        Some(pkt)
    }

    /// Packets currently live.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slots ever created — the high-water mark of concurrent liveness,
    /// *not* the total number of packets that passed through.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::SessionId;
    use lit_sim::Time;

    fn pkt(seq: u64) -> Packet {
        Packet::new(SessionId(1), seq, 424, Time::from_ms(seq))
    }

    #[test]
    fn alloc_get_take_roundtrip() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(pkt(1));
        let r2 = a.alloc(pkt(2));
        assert_eq!(a.live(), 2);
        assert_eq!(a.get(r1).unwrap().seq, 1);
        assert_eq!(a.get(r2).unwrap().seq, 2);
        let p = a.take(r1).unwrap();
        assert_eq!(p.seq, 1);
        assert_eq!(a.live(), 1);
        // Stale after take: every accessor refuses the old reference.
        assert!(a.get(r1).is_none());
        assert!(a.take(r1).is_none());
        assert_eq!(a.live(), 1, "stale take must not corrupt the count");
    }

    #[test]
    fn recycled_slot_gets_fresh_generation() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(pkt(1));
        a.take(r1).unwrap();
        let r2 = a.alloc(pkt(2));
        // Same slot, new generation: old handle dead, new handle live.
        assert_eq!(r1.index(), r2.index());
        assert_ne!(r1, r2);
        assert!(a.get(r1).is_none());
        assert_eq!(a.get(r2).unwrap().seq, 2);
    }

    #[test]
    fn churn_capacity_stays_bounded() {
        // 100k alloc/free cycles with at most 64 live packets: capacity
        // must stop at the high-water mark.
        let mut a = PacketArena::new();
        let mut live = Vec::new();
        for i in 0..100_000u64 {
            live.push((i, a.alloc(pkt(i))));
            if live.len() == 64 {
                for (seq, r) in live.drain(..) {
                    assert_eq!(a.take(r).map(|p| p.seq), Some(seq));
                }
            }
        }
        assert!(
            a.capacity() <= 64,
            "capacity {} grew past the high-water mark",
            a.capacity()
        );
        assert_eq!(a.live(), live.len());
    }

    #[test]
    fn held_release_rides_in_a_slot_24_bytes_larger() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(1));
        let key = (7u128 << 64) | 9;
        a.hold(r, key, Time::from_ms(3));
        let (p, k, until) = a.held(r).unwrap();
        assert_eq!((p.seq, k, until), (1, key, Time::from_ms(3)));
        assert!(a.take(r).is_some() && a.held(r).is_none());
        // Packet + generation alone pad to 80.
        assert_eq!(std::mem::size_of::<(Packet, u32)>(), 80);
        assert_eq!(std::mem::size_of::<Slot>(), 80 + 24);
    }

    #[test]
    fn get_mut_writes_through() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(7));
        a.get_mut(r).unwrap().hop = 3;
        assert_eq!(a.get(r).unwrap().hop, 3);
    }
}
