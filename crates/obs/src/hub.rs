//! The collection point for probe output: an ordinary value the run's
//! owner constructs, lends to whoever builds networks, and exports from.
//!
//! Experiment runners spawn one network per replica, possibly across
//! worker threads in arbitrary completion order. Each finished network's
//! [`ObsProbe`] is handed to [`Hub::absorb`]; export then reads the
//! commutatively merged shards and sorts the trace rings by
//! `(network master seed, content hash)`, so the exported bytes are
//! identical for any `--threads` value. That invariant is what the
//! thread-determinism snapshot test pins.
//!
//! A hub with both switches off hands out no probes ([`Hub::probe`]
//! returns `None`), and with the oracle off too the executor's lifecycle
//! points stay one untaken branch each.

use crate::metrics::ObsShard;
use crate::probe::{ObsProbe, Probe};
use crate::trace::{self, TraceEvent};
use std::sync::{Mutex, MutexGuard};

/// Default per-network trace-ring tail capacity when tracing is enabled.
/// Sized so the ring's working set (~72 B/slot, ~36 KiB total) stays
/// close to L1: the tracer cycles through every slot continuously, and a
/// larger ring turns each record into a cache-line miss — that is what
/// the CI overhead guard's ≤ 10% probes-on budget polices.
pub const DEFAULT_TRACE_CAP: usize = 512;

#[derive(Debug, Default)]
struct Pool {
    shard: ObsShard,
    rings: Vec<(u64, Vec<TraceEvent>)>,
}

/// Pools the observations of every network of one run.
#[derive(Debug, Default)]
pub struct Hub {
    /// Whether networks get a probe at all (`--metrics` or `--trace`).
    on: bool,
    /// Per-network trace-ring tail capacity; 0 = metrics only.
    trace_cap: usize,
    pool: Mutex<Pool>,
}

impl Hub {
    /// A hub collecting metrics if `metrics`, and lifecycle traces into
    /// per-network rings of tail capacity `trace_cap` if that is nonzero
    /// (tracing implies the metrics registry exists). `Hub::default()`
    /// collects nothing.
    pub fn new(metrics: bool, trace_cap: usize) -> Self {
        Hub {
            on: metrics || trace_cap > 0,
            trace_cap,
            pool: Mutex::default(),
        }
    }

    /// The probe a network should install, or `None` when collection is
    /// off.
    pub fn probe(&self) -> Option<Box<dyn Probe>> {
        self.on
            .then(|| Box::new(ObsProbe::new(self.trace_cap)) as Box<dyn Probe>)
    }

    fn lock(&self) -> MutexGuard<'_, Pool> {
        // A poisoned pool only means a worker panicked mid-absorb; the
        // observations themselves are still mergeable.
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pool one finished network's observations (a probe this hub handed
    /// out, taken back with `Network::take_probe`). Order across threads
    /// is irrelevant by construction.
    pub fn absorb(&self, probe: &dyn Probe) {
        let Some(p) = probe.as_any().and_then(|a| a.downcast_ref::<ObsProbe>()) else {
            return;
        };
        let mut pool = self.lock();
        pool.shard.merge(&p.shard);
        if p.trace.total() > 0 && p.trace.enabled() {
            pool.rings.push((p.seed, p.trace.events()));
        }
    }

    /// The pooled metrics as deterministic JSON.
    pub fn metrics_json(&self) -> String {
        self.lock().shard.to_json()
    }

    /// A clone of the pooled metrics shard (for in-process assertions).
    pub fn metrics_shard(&self) -> ObsShard {
        self.lock().shard.clone()
    }

    /// The pooled rings ordered by `(seed, content hash)`, so exports are
    /// thread-count independent.
    fn sorted_groups(&self) -> Vec<(u64, Vec<TraceEvent>)> {
        let mut groups = self.lock().rings.clone();
        groups.sort_by_cached_key(|(seed, events)| (*seed, ring_hash(events)));
        groups
    }

    /// The pooled trace as Chrome `trace_event` JSON.
    pub fn chrome_trace_json(&self) -> String {
        trace::chrome_trace_json(&self.sorted_groups())
    }

    /// The pooled trace as JSONL, one `{"seed":…, …}` object per event, in
    /// the same deterministic ring order as [`Hub::chrome_trace_json`].
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for (seed, events) in &self.sorted_groups() {
            for e in events {
                let line = trace::jsonl_line(e);
                out.push_str(&format!("{{\"seed\":{seed},{}\n", &line[1..]));
            }
        }
        out
    }
}

/// FNV-1a over an event's identifying fields — a content fingerprint
/// used only to order rings deterministically when seeds collide (equal
/// seed ⇒ identical replica ⇒ identical hash ⇒ order irrelevant).
fn ring_hash(events: &[TraceEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in events {
        mix(e.t_ps);
        mix(u64::from(e.session));
        mix(e.seq);
        mix(u64::from(e.node));
        mix(e.aux_ps as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::PacketView;
    use lit_sim::Time;

    fn run_one(hub: &Hub, seed: u64, arrivals: u64) {
        let mut p = hub.probe().expect("collection is on");
        p.on_build(seed, 1, &[1]);
        for i in 0..arrivals {
            p.on_arrive(
                Time::from_us(i),
                0,
                PacketView {
                    session: 0,
                    seq: i + 1,
                    hop: 0,
                    len_bits: 424,
                    created: Time::ZERO,
                    arrived: Time::from_us(i),
                },
                0,
                1,
            );
        }
        hub.absorb(&*p);
    }

    #[test]
    fn pooled_export_is_submission_order_independent() {
        let a = Hub::new(true, 64);
        run_one(&a, 3, 2);
        run_one(&a, 1, 5);

        let b = Hub::new(true, 64);
        run_one(&b, 1, 5);
        run_one(&b, 3, 2);
        assert_eq!(b.metrics_json(), a.metrics_json());
        assert_eq!(b.chrome_trace_json(), a.chrome_trace_json());
        assert_eq!(b.trace_jsonl(), a.trace_jsonl());

        let shard = b.metrics_shard();
        assert_eq!(shard.networks, 2);
        assert_eq!(shard.nodes[0].arrivals, 7);

        assert!(Hub::default().probe().is_none());
    }
}
