//! Dense per-session state tables and the `SessionId` free-list slab.
//!
//! Session identifiers are dense `u32` indices by construction (see
//! [`SessionId`]), so per-session scheduler state never needs a hash map:
//! a flat table indexed by `id.index()` is both O(1) and cache-linear.
//! Two pieces live here:
//!
//! * [`IdSlab`] — the allocator that *keeps* ids dense across
//!   connect/teardown churn. Without it, long-running experiments mint
//!   monotonically growing ids and every table in every node leaks
//!   capacity; with it, a torn-down session's slot is reused by the next
//!   establishment and table footprints are bounded by the peak number of
//!   concurrent sessions.
//! * [`SessionTable`] — one row per session, keyed by `SessionId`: the
//!   Leave-in-Time scheduler's eq. 10–11 state and every stateful
//!   baseline's. A table the builder sizes up front ([`SessionTable::reserve`])
//!   is one block of exactly that many rows.

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

use crate::packet::SessionId;

/// Free-list allocator for dense [`SessionId`]s.
///
/// `alloc` pops the free list before growing the id space, so the
/// high-water mark — and with it the capacity of every per-session table
/// in the network — is bounded by the peak number of live sessions, not
/// by the total number of establishments.
///
/// ```
/// use lit_net::{IdSlab, SessionId};
///
/// let mut slab = IdSlab::new();
/// let a = slab.alloc();
/// let b = slab.alloc();
/// assert_eq!((a, b), (SessionId(0), SessionId(1)));
/// assert!(slab.release(a));
/// assert_eq!(slab.alloc(), SessionId(0)); // slot reused
/// assert_eq!(slab.high_water(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct IdSlab {
    /// `live[i]` iff id `i` is currently allocated; `live.len()` is the
    /// high-water mark of the id space.
    live: Vec<bool>,
    /// Released ids available for reuse (LIFO: warmest slot first).
    free: Vec<u32>,
}

impl IdSlab {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the lowest-overhead free id: a released slot if one
    /// exists, otherwise a fresh id extending the space by one.
    pub fn alloc(&mut self) -> SessionId {
        if let Some(id) = self.free.pop() {
            if let Some(slot) = self.live.get_mut(id as usize) {
                *slot = true;
            }
            return SessionId(id);
        }
        #[expect(
            clippy::expect_used,
            reason = "control-plane growth path; 2^32 concurrent sessions exceeds any reachable configuration and must stop the run"
        )]
        let id = u32::try_from(self.live.len()).expect("session id space exhausted");
        self.live.push(true);
        SessionId(id)
    }

    /// Return `id` to the free list. `false` (and no state change) if the
    /// id is unknown or already free — double releases must not poison
    /// the free list with duplicates.
    pub fn release(&mut self, id: SessionId) -> bool {
        match self.live.get_mut(id.index()) {
            Some(slot) if *slot => {
                *slot = false;
                self.free.push(id.0);
                true
            }
            _ => false,
        }
    }

    /// Number of currently allocated ids.
    pub fn live_count(&self) -> usize {
        self.live.len() - self.free.len()
    }

    /// Size of the id space ever used: the bound on every dense
    /// per-session table's capacity.
    pub fn high_water(&self) -> usize {
        self.live.len()
    }
}

/// A slab of per-session state keyed by dense [`SessionId`]s.
///
/// Insert and lookup are O(1); capacity is the id high-water mark, or
/// what [`SessionTable::reserve`] asked for. A session's state lives in
/// an `Option` slot, so an id that was never inserted reads as absent.
#[derive(Clone, Debug)]
pub struct SessionTable<S> {
    slots: Vec<Option<S>>,
}

impl<S> Default for SessionTable<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> SessionTable<S> {
    /// An empty table.
    pub fn new() -> Self {
        SessionTable { slots: Vec::new() }
    }

    /// Make room for ids below `sessions` in one block of exactly that
    /// many rows, so inserting them never regrows the table.
    pub fn reserve(&mut self, sessions: usize) {
        self.slots
            .reserve_exact(sessions.saturating_sub(self.slots.len()));
    }

    /// Insert (or replace) the state for `id`, growing the table to fit.
    pub fn insert(&mut self, id: SessionId, state: S) {
        let idx = id.index();
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, || None);
        }
        if let Some(slot) = self.slots.get_mut(idx) {
            *slot = Some(state);
        }
    }

    /// Mutable state for `id`, if present.
    pub fn get_mut(&mut self, id: SessionId) -> Option<&mut S> {
        self.slots.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// Mutable state for the session a packet belongs to: a packet from a
    /// session the discipline never registered is a wiring bug, and stops
    /// the run here, at the caller.
    #[track_caller]
    pub fn registered_mut(&mut self, id: SessionId) -> &mut S {
        #[expect(
            clippy::expect_used,
            reason = "executor invariant: packets only come from sessions registered at every hop of their route"
        )]
        self.get_mut(id).expect("packet from unregistered session")
    }

    /// Iterate live session states in id order.
    pub fn values(&self) -> impl Iterator<Item = &S> {
        self.slots.iter().flatten()
    }

    /// Iterate live session states mutably, in id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.slots.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_reuses_released_ids() {
        let mut slab = IdSlab::new();
        let ids: Vec<_> = (0..4).map(|_| slab.alloc()).collect();
        assert_eq!(
            ids,
            vec![SessionId(0), SessionId(1), SessionId(2), SessionId(3)]
        );
        assert!(slab.release(SessionId(1)));
        assert!(slab.release(SessionId(2)));
        // LIFO reuse: warmest slot first.
        assert_eq!(slab.alloc(), SessionId(2));
        assert_eq!(slab.alloc(), SessionId(1));
        assert_eq!(slab.alloc(), SessionId(4));
        assert_eq!(slab.high_water(), 5);
        assert_eq!(slab.live_count(), 5);
    }

    #[test]
    fn slab_rejects_double_release() {
        let mut slab = IdSlab::new();
        let a = slab.alloc();
        assert!(slab.release(a));
        assert!(!slab.release(a), "double release must be rejected");
        assert!(!slab.release(SessionId(99)), "unknown id must be rejected");
        // The free list holds exactly one entry: a single realloc, then
        // fresh growth.
        assert_eq!(slab.alloc(), a);
        assert_eq!(slab.alloc(), SessionId(1));
    }

    #[test]
    fn churn_bounds_high_water_at_peak_live() {
        let mut slab = IdSlab::new();
        // 1000 connect/teardown cycles with at most 3 concurrent sessions
        // must not grow the id space past 3.
        let mut held: Vec<SessionId> = Vec::new();
        for i in 0..1000 {
            if held.len() == 3 {
                let id = held.remove(i % held.len());
                assert!(slab.release(id));
            }
            held.push(slab.alloc());
        }
        assert_eq!(slab.high_water(), 3);
    }

    #[test]
    fn table_insert_remove_get() {
        let mut t: SessionTable<u64> = SessionTable::new();
        t.reserve(3);
        t.insert(SessionId(2), 20);
        t.insert(SessionId(0), 0);
        t.insert(SessionId(0), 1); // replaces
        assert_eq!(t.get_mut(SessionId(1)), None);
        assert_eq!(t.get_mut(SessionId(7)), None);
        *t.registered_mut(SessionId(0)) += 4;
        assert_eq!(t.values().copied().collect::<Vec<_>>(), [5, 20]);
        assert_eq!(t.slots.capacity(), 3, "reserved once, never regrown");
    }
}
