//! Where a run's results go once its networks are done.
//!
//! `lit-repro` builds many networks per command — one per sweep point,
//! discipline or replica, possibly on worker threads. Each of them is
//! handed to [`Collector::retire`] when its measurements have been read;
//! the collector keeps the conformance-oracle tally and the pooled
//! observability output that the CLI reports after the command. It is an
//! ordinary value: `main` owns one, [`crate::experiments::RunConfig`]
//! lends it, tests make their own.

use lit_net::{Network, Probe};
use lit_obs::hub::Hub;
use std::sync::atomic::{AtomicU64, Ordering};

/// The sink for every network of one run. Both tallies are commutative
/// (a sum; [`Hub::absorb`]), so worker completion order never shows.
#[derive(Debug, Default)]
pub struct Collector {
    hub: Hub,
    violations: AtomicU64,
}

impl Collector {
    /// A collector pooling observability output into `hub`
    /// (`Collector::default()` observes nothing and only counts).
    pub fn new(hub: Hub) -> Self {
        Collector {
            hub,
            violations: AtomicU64::new(0),
        }
    }

    /// The probe the next network should install, if the hub is on.
    pub fn probe(&self) -> Option<Box<dyn Probe>> {
        self.hub.probe()
    }

    /// Take a finished network out of service: run its drain-time oracle
    /// checks, add its violation total to the tally, pool its probe.
    /// Returns that network's violation total, drain-time findings
    /// included. Under `OracleMode::Panic` a drain-time finding panics
    /// here.
    pub fn retire(&self, mut net: Network) -> u64 {
        net.oracle_drain_check();
        let violations = net.oracle_violations();
        self.violations.fetch_add(violations, Ordering::Relaxed);
        if let Some(p) = net.take_probe() {
            self.hub.absorb(&*p);
        }
        violations
    }

    /// Oracle violations over every network retired so far.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// The pooled observability output.
    pub fn hub(&self) -> &Hub {
        &self.hub
    }
}
