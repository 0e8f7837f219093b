//! The knob-dependent arms of the traced pass — and only of the traced
//! pass: nothing on the `all`/`run` path reaches this file.
//!
//! `EventBackend` and `shards` are knobs ROADMAP item 3 may delete. Every
//! mention of them in the benchmark is here, so the PR that deletes a
//! knob finds its arm in one place — and the rule (README, "Knob-dependent
//! arms") is that a benchmark issue drops the arm *before* that PR, so a
//! deletion never has to edit the benchmark it is judged by.

use crate::spans::Tracer;
use crate::workloads::{finish_builder, NetInstance, NetPlan, Variant};
use lit_net::EventBackend;
use lit_sim::Duration;

/// One way of turning a knob away from its default.
#[derive(Clone, Copy)]
pub enum Knob {
    Backend(EventBackend),
    Shards(usize),
}

/// The event-set arms: metric name and the backend it swaps in.
pub const BACKEND_ARMS: [(&str, Knob); 2] = [
    (
        "sim.backend_delta_ns.wheel",
        Knob::Backend(EventBackend::Wheel),
    ),
    (
        "sim.backend_delta_ns.calendar",
        Knob::Backend(EventBackend::Calendar),
    ),
];

/// The sharded-executor arm: two shards, the most this 2-core box can run.
pub const SHARD_ARM: Knob = Knob::Shards(2);
/// The one workload the sharded arm runs on.
pub const SHARD_WORKLOAD: &str = "tandem_jc";

/// Scalar fallbacks the sharded builds have taken so far in this process.
pub fn shard_fallbacks() -> u64 {
    lit_net::shard::shard_fallbacks()
}

/// The timed configuration of `plan` with one knob turned.
pub fn instance(plan: &NetPlan, knob: Knob, tr: &mut Tracer) -> NetInstance {
    let v = Variant::default();
    let net = match plan.scenario(tr) {
        Some(sc) => {
            let mut opts = plan.options(&v);
            match knob {
                Knob::Backend(b) => opts.backend = Some(b),
                Knob::Shards(n) => opts.shards = Some(n),
            }
            tr.span("net.build", |_| {
                sc.with_horizon(Duration::ZERO).run_probed(&opts, None).0
            })
        }
        None => tr.span("net.build", |_| {
            let b = plan.builder().expect("a plan is Text or Sessions");
            let b = match knob {
                Knob::Backend(x) => b.event_backend(x),
                Knob::Shards(n) => b.shards(n),
            };
            finish_builder(b, v)
        }),
    };
    NetInstance::new(net, plan.horizon)
}
