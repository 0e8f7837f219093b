//! # lit-obs — zero-cost-when-off observability
//!
//! The paper's claims are *per-session* guarantees — the firewall property
//! (ineq. 12/15), jitter (ineq. 17), the CCDF shift (ineq. 16) — but the
//! drain statistics only say whether a run met them, not *where* deadline
//! slack was consumed hop by hop or how long the regulators held packets.
//! This crate is the measurement substrate:
//!
//! * [`metrics`] — a per-network metrics shard ([`ObsShard`]): monotonic
//!   counters, gauges (maxima), and log₂-scale histograms for per-hop
//!   queue depth, deadline slack `F − departure`, regulator holding time
//!   `E − arrival`, eligible-queue occupancy, and per-session served bits.
//!   Storage is dense arrays sized once at network build — no string keys
//!   or map lookups on the hot path.
//! * [`trace`] — a structured packet-lifecycle tracer ([`TraceRing`]):
//!   arrive / eligible / dispatch / depart / violation events in a
//!   bounded ring (exact head + bounded tail), exported as Chrome
//!   `trace_event` JSON for `chrome://tracing` or as compact JSONL.
//! * [`probe`] — the [`Probe`] trait the network executor calls. Every
//!   method has a no-op default; the executor holds an
//!   `Option<Box<dyn Probe>>`, so with no probe and the oracle off each
//!   lifecycle point is one untaken branch.
//! * [`hub`] — the collection point of one run, an ordinary value its
//!   owner lends to whoever builds networks. Shards merge
//!   commutatively (counters add, maxima max, histogram bins add) and
//!   trace rings are sorted by `(network seed, content hash)` at export,
//!   so the exported bytes are identical for any worker-thread count.
//! * [`json`] — a minimal JSON parser (the workspace carries no external
//!   crates) used by the trace-schema check and the bench-JSON tests.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod hub;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod trace;

pub use metrics::{HopObs, LogHistogram, NodeObs, ObsShard, SessionObs, SignedLogHistogram};
pub use probe::{NoopProbe, ObsProbe, PacketView, Probe};
pub use trace::{TraceEvent, TraceKind, TraceRing};
