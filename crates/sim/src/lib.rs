//! # lit-sim — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the Leave-in-Time reproduction: a minimal,
//! fully deterministic discrete-event core in the spirit of classic network
//! simulators (ns-2's scheduler, smoltcp's event-driven style), providing:
//!
//! * [`Time`] / [`Duration`] — picosecond fixed-point simulated time with
//!   exact-enough rate arithmetic ([`Duration::from_bits_at_rate`]);
//! * [`EventQueue`] — the future-event set, FIFO-stable among same-time
//!   events so runs are bit-reproducible, with a pluggable engine
//!   ([`EventBackend`]): 4-ary heap by default, calendar ring or
//!   hierarchical timer wheel opt-in; sorted runs of events wait in FIFO
//!   [`Lane`]s beside the heap, same pop order;
//! * [`KeyedEntry`] — the shared reversed-`Ord` entry for FIFO-stable
//!   min-heaps throughout the workspace;
//! * [`SimRng`] / [`SeedSeq`] — per-component reproducible random streams.
//!
//! The kernel deliberately contains **no** networking concepts; nodes,
//! links, packets and scheduling disciplines live in `lit-net` and above.
//! This keeps the event core reusable and independently testable.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod calendar;
mod entry;
mod heap;
mod queue;
mod rng;
mod time;
mod wheel;

pub use entry::KeyedEntry;
pub use queue::{EventBackend, EventQueue, Lane};
pub use rng::{splitmix64_at, SeedSeq, SimRng};
pub use time::{Duration, ParseDurationError, Time, PS_PER_MS, PS_PER_NS, PS_PER_SEC, PS_PER_US};
