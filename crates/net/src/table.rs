//! Dense per-session state tables.
//!
//! Session identifiers are dense `u32` indices by construction (see
//! [`SessionId`]), so per-session scheduler state never needs a hash map:
//! a flat table indexed by `id.index()` is both O(1) and cache-linear.
//! [`SessionTable`] is one row per session, keyed by `SessionId`: the
//! Leave-in-Time scheduler's eq. 11 state (`K` and the index of the
//! session's shared admission profile) and every stateful baseline's. A
//! table the builder sizes up front ([`SessionTable::reserve`]) is one
//! block of exactly that many rows.

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
