//! Online conformance oracle: checks the paper's invariants and service
//! commitments *while the simulation runs*, in O(1) per packet.
//!
//! The oracle is an opt-in cross-check of everything `lit-core` promises:
//!
//! * **Regulator invariants** (per hop): eligibility times of a session
//!   are non-decreasing, a held packet is released exactly at its
//!   eligibility instant, and the scheduler never saturates —
//!   `F̂ < F + L_MAX/C` (the lemma behind ineq. 12).
//! * **End-to-end delay** (ineq. 12/15, checked pathwise): every
//!   delivered packet satisfies `D_i − D^ref_i < β + α`, against the
//!   co-simulated reference server — valid for *any* arrival pattern,
//!   which is the paper's firewall property.
//! * **Delay jitter** (ineq. 17 and its no-control sibling): the running
//!   `max − min` delay never exceeds the empirical `D^ref_max` over the
//!   packets delivered so far plus the session's spread constant.
//! * **Delay distribution** (ineq. 16, checked at drain time):
//!   `P(D > d) ≤ P(D^ref > d − β − α)` compared bin-by-bin on absolute
//!   counts, with the rounding slack taken in the sound direction.
//!
//! The per-session constants ([`SessionBounds`]) are installed after
//! `build` by `lit_core::install_oracle_bounds`, which knows the bound
//! formulas; `lit-net` only stores and checks them. Violations accumulate
//! into [`OracleTotals`] and per-node/per-session counters, read back
//! through `Network::oracle_totals` once the run (and its
//! `Network::oracle_drain_check`) is done.

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::float_arithmetic
)]

use lit_analysis::DurationHistogram;
use lit_sim::Time;

/// What the oracle does when a check is evaluated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OracleMode {
    /// No checking (zero overhead; the default).
    #[default]
    Off,
    /// Count violations (totals, per-node/per-session counters).
    Count,
    /// Panic with a descriptive message on the first violation.
    Panic,
}

impl std::str::FromStr for OracleMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(OracleMode::Off),
            "count" => Ok(OracleMode::Count),
            "panic" => Ok(OracleMode::Panic),
            other => Err(format!("unknown oracle mode '{other}' (off|count|panic)")),
        }
    }
}

/// Configuration handed to [`crate::NetworkBuilder::oracle`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleConfig {
    /// Checking mode.
    pub mode: OracleMode,
}

impl OracleConfig {
    /// A config with the given mode.
    pub fn new(mode: OracleMode) -> Self {
        OracleConfig { mode }
    }

    /// The disabled config (same as `Default`).
    pub fn off() -> Self {
        OracleConfig::default()
    }
}

/// Per-session constants of the paper's bounds, in signed picoseconds.
///
/// Installed by `lit_core::install_oracle_bounds`; sessions without
/// installed bounds only get the structural regulator checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionBounds {
    /// `β + α` (eq. 13 + the signed α of ineq. 12): the pathwise bound on
    /// `D_i − D^ref_i` and the CCDF shift of ineq. 16.
    pub shift_ps: i128,
    /// The jitter bound minus `D^ref_max`: with jitter control
    /// `δ^N_max − d^N_max + α` (ineq. 17), without it
    /// `Δ^{1,N} − d^N_max + α`.
    pub jitter_spread_ps: i128,
}

/// The invariant a violation was recorded against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A session's eligibility times at one hop went backwards (eq. 6–7
    /// make `E` non-decreasing per session).
    EligibilityOrder,
    /// A held packet was released at a time other than its eligibility
    /// instant (or the discipline produced an eligibility in the past).
    ReleaseTime,
    /// `F̂ ≥ F + L_MAX/C`: the scheduler missed a deadline by more than
    /// the non-preemption allowance — saturation, which admission control
    /// is supposed to preclude.
    Lateness,
    /// A delivered packet had `D_i − D^ref_i ≥ β + α` (ineq. 12).
    DelayBound,
    /// Running jitter exceeded `D^ref_max` + the session's spread
    /// constant (ineq. 17 family).
    JitterBound,
    /// The drain-time histogram comparison of ineq. 16 failed.
    CcdfBound,
    /// An interleaved-regulator release exceeded the node's running
    /// shaping-delay ceiling (the executable form of the Thomas–Le Boudec
    /// service-curve property: FIFO + head gating can hold a packet no
    /// longer than the largest eligibility offset `E − a` queued at or
    /// ahead of it).
    ShapingBound,
    /// The interleaved regulator released out of FIFO order, released a
    /// not-yet-eligible head, or its release instants went backwards
    /// (releases must equal `max(last release, head E)`, non-decreasing).
    RegulatorFifo,
    /// Drain-time heavy-traffic sanity (Kruk et al.): a node's accumulated
    /// busy time diverged from the service time of the work it actually
    /// transmitted — the executor created or destroyed workload.
    WorkConservation,
}

impl ViolationKind {
    /// A stable label naming the violated inequality of the paper — the
    /// key used by the observability layer (metrics `violations` map and
    /// trace-event `tag`).
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::EligibilityOrder => "eligibility-order (eq. 6-7)",
            ViolationKind::ReleaseTime => "release-time (eq. 6-9)",
            ViolationKind::Lateness => "lateness (non-saturation lemma)",
            ViolationKind::DelayBound => "delay-bound (ineq. 12/15)",
            ViolationKind::JitterBound => "jitter-bound (ineq. 17)",
            ViolationKind::CcdfBound => "ccdf-bound (ineq. 16)",
            ViolationKind::ShapingBound => "shaping-bound (interleaved service curve)",
            ViolationKind::RegulatorFifo => "regulator-fifo (interleaved release order)",
            ViolationKind::WorkConservation => "work-conservation (heavy-traffic sanity)",
        }
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::EligibilityOrder => "eligibility-order",
            ViolationKind::ReleaseTime => "release-time",
            ViolationKind::Lateness => "lateness",
            ViolationKind::DelayBound => "delay-bound",
            ViolationKind::JitterBound => "jitter-bound",
            ViolationKind::CcdfBound => "ccdf-bound",
            ViolationKind::ShapingBound => "shaping-bound",
            ViolationKind::RegulatorFifo => "regulator-fifo",
            ViolationKind::WorkConservation => "work-conservation",
        };
        f.write_str(s)
    }
}

/// Violation counts by kind, for one `Network`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleTotals {
    /// [`ViolationKind::EligibilityOrder`] count.
    pub eligibility_order: u64,
    /// [`ViolationKind::ReleaseTime`] count.
    pub release_time: u64,
    /// [`ViolationKind::Lateness`] count.
    pub lateness: u64,
    /// [`ViolationKind::DelayBound`] count.
    pub delay_bound: u64,
    /// [`ViolationKind::JitterBound`] count.
    pub jitter_bound: u64,
    /// [`ViolationKind::CcdfBound`] count.
    pub ccdf_bound: u64,
    /// [`ViolationKind::ShapingBound`] count.
    pub shaping_bound: u64,
    /// [`ViolationKind::RegulatorFifo`] count.
    pub regulator_fifo: u64,
    /// [`ViolationKind::WorkConservation`] count.
    pub work_conservation: u64,
}

impl OracleTotals {
    /// Sum over all kinds.
    pub fn total(&self) -> u64 {
        self.eligibility_order
            + self.release_time
            + self.lateness
            + self.delay_bound
            + self.jitter_bound
            + self.ccdf_bound
            + self.shaping_bound
            + self.regulator_fifo
            + self.work_conservation
    }

    /// Add another network shard's counts, kind by kind.
    pub(crate) fn absorb(&mut self, o: &OracleTotals) {
        self.eligibility_order += o.eligibility_order;
        self.release_time += o.release_time;
        self.lateness += o.lateness;
        self.delay_bound += o.delay_bound;
        self.jitter_bound += o.jitter_bound;
        self.ccdf_bound += o.ccdf_bound;
        self.shaping_bound += o.shaping_bound;
        self.regulator_fifo += o.regulator_fifo;
        self.work_conservation += o.work_conservation;
    }

    fn slot(&mut self, kind: ViolationKind) -> &mut u64 {
        match kind {
            ViolationKind::EligibilityOrder => &mut self.eligibility_order,
            ViolationKind::ReleaseTime => &mut self.release_time,
            ViolationKind::Lateness => &mut self.lateness,
            ViolationKind::DelayBound => &mut self.delay_bound,
            ViolationKind::JitterBound => &mut self.jitter_bound,
            ViolationKind::CcdfBound => &mut self.ccdf_bound,
            ViolationKind::ShapingBound => &mut self.shaping_bound,
            ViolationKind::RegulatorFifo => &mut self.regulator_fifo,
            ViolationKind::WorkConservation => &mut self.work_conservation,
        }
    }
}

/// Per-network oracle state.
pub(crate) struct OracleRt {
    pub(crate) mode: OracleMode,
    pub(crate) totals: OracleTotals,
    /// Installed bounds, indexed by session.
    pub(crate) bounds: Vec<Option<SessionBounds>>,
    /// Last eligibility time per `[session][hop]` (empty when disabled).
    pub(crate) last_eligible: Vec<Vec<Time>>,
    /// Largest reference delay over the packets *delivered* so far, per
    /// session, in picoseconds: the jitter check's `D^ref_max` (empty
    /// when disabled).
    pub(crate) ref_max_ps: Vec<i128>,
    /// Whether the network runs the interleaved regulator backend. Under
    /// it the per-session lateness allowance no longer holds (a packet may
    /// additionally wait behind other sessions' holds), so the `Lateness`
    /// check is suspended and the `ShapingBound`/`RegulatorFifo` checks
    /// take over at the regulator.
    pub(crate) interleaved: bool,
}

impl OracleRt {
    pub(crate) fn new(cfg: OracleConfig, session_hops: &[usize]) -> Self {
        let enabled = cfg.mode != OracleMode::Off;
        OracleRt {
            mode: cfg.mode,
            totals: OracleTotals::default(),
            bounds: if enabled {
                vec![None; session_hops.len()]
            } else {
                Vec::new()
            },
            last_eligible: if enabled {
                session_hops.iter().map(|&h| vec![Time::ZERO; h]).collect()
            } else {
                Vec::new()
            },
            ref_max_ps: if enabled {
                vec![i128::MIN; session_hops.len()]
            } else {
                Vec::new()
            },
            interleaved: false,
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.mode != OracleMode::Off
    }

    /// Record one violation; panics in `Panic` mode. `detail` is only
    /// rendered when a message is actually needed.
    pub(crate) fn violate(&mut self, kind: ViolationKind, detail: impl FnOnce() -> String) {
        *self.totals.slot(kind) += 1;
        if self.mode == OracleMode::Panic {
            panic!("conformance oracle: {kind}: {}", detail());
        }
    }
}

/// Ineq. 16 on absolute counts: for every threshold `d` (taken at the
/// e2e histogram's bin lower edges), the number of delivered packets with
/// `D > d` must not exceed the number of injected packets with
/// `D^ref > d − shift`. Binning slack is taken in the sound direction —
/// the left side is an under-count (bins strictly above `d`), the right
/// an over-count (every bin not certainly ≤ `d − shift`) — so a reported
/// violation is a true counter-example, never a rounding artifact.
///
/// Returns the first offending threshold as `(d_ps, lhs, rhs)`.
pub(crate) fn ccdf_shift_violation(
    e2e: &DurationHistogram,
    reference: &DurationHistogram,
    shift_ps: i128,
) -> Option<(i128, u64, u64)> {
    let w = i128::from(e2e.bin_width());
    debug_assert_eq!(e2e.bin_width(), reference.bin_width());
    // prefix[m] = reference samples certainly ≤ m·w (bins 0..m).
    let mut prefix = vec![0u64];
    for &c in reference.bin_counts() {
        prefix.push(prefix.last().map_or(0, |below| below + c));
    }
    let rtotal = reference.count();
    // Packets delivered above bin k, overflow bucket included.
    let mut lhs = e2e.count();
    for (k, &c) in e2e.bin_counts().enumerate() {
        // Threshold d = k·w; delivered packets in bins ≥ k+1 (and the
        // overflow bucket) have D ≥ (k+1)·w > d, strictly.
        lhs -= c;
        if lhs == 0 {
            break; // it only shrinks with k
        }
        let t = k as i128 * w - shift_ps;
        let rhs = if t < 0 {
            rtotal
        } else {
            // Bins m with upper edge (m+1)·w ≤ t hold samples certainly
            // not exceeding t.
            let certain = prefix.get((t / w) as usize).or(prefix.last());
            rtotal - certain.copied().unwrap_or(0)
        };
        if lhs > rhs {
            return Some((k as i128 * w, lhs, rhs));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_sim::Duration;

    fn hist(samples_ms: &[u64]) -> DurationHistogram {
        let mut h = DurationHistogram::new(Duration::from_ms(1), 64);
        for &s in samples_ms {
            h.record(Duration::from_ms(s));
        }
        h
    }

    #[test]
    fn ccdf_shift_holds_when_delays_within_shift_of_reference() {
        // D_i = Dref_i + 3 ms < Dref_i + 5 ms shift.
        let e2e = hist(&[13, 14, 18]);
        let reference = hist(&[10, 11, 15]);
        let shift = i128::from(Duration::from_ms(5));
        assert_eq!(ccdf_shift_violation(&e2e, &reference, shift), None);
    }

    #[test]
    fn ccdf_shift_detects_excess_mass() {
        // One packet delayed 20 ms past its reference: violates a 5 ms
        // shift at thresholds between the reference tail and the sample.
        let e2e = hist(&[30]);
        let reference = hist(&[10]);
        let shift = i128::from(Duration::from_ms(5));
        let v = ccdf_shift_violation(&e2e, &reference, shift);
        assert!(v.is_some());
        let (d, lhs, rhs) = v.unwrap();
        assert_eq!((lhs, rhs), (1, 0));
        assert!(d >= i128::from(Duration::from_ms(16)), "d={d}");
    }

    #[test]
    fn ccdf_shift_binning_slack_never_false_positives() {
        // Samples right at the strictness margin: D = Dref + shift − ε is
        // legal; with ε below a bin width the count comparison must still
        // pass thanks to the conservative rounding.
        let mut e2e = DurationHistogram::new(Duration::from_ms(1), 64);
        let mut reference = DurationHistogram::new(Duration::from_ms(1), 64);
        let shift = i128::from(Duration::from_ms(5));
        for i in 0..50u64 {
            let r = Duration::from_us(i * 137);
            reference.record(r);
            e2e.record(r + Duration::from_us(4_999)); // just under 5 ms more
        }
        assert_eq!(ccdf_shift_violation(&e2e, &reference, shift), None);
    }

    #[test]
    fn ccdf_shift_handles_overflow_bins() {
        let mut e2e = DurationHistogram::new(Duration::from_ms(1), 4);
        let mut reference = DurationHistogram::new(Duration::from_ms(1), 4);
        // Both in overflow, within shift: fine.
        reference.record(Duration::from_ms(100));
        e2e.record(Duration::from_ms(102));
        let shift = i128::from(Duration::from_ms(5));
        assert_eq!(ccdf_shift_violation(&e2e, &reference, shift), None);
        // Overflowed delivery with an in-range reference 50 ms earlier:
        // must be flagged even though bins can't resolve the overflow.
        let e2e2 = hist(&[60]);
        let mut r2 = DurationHistogram::new(Duration::from_ms(1), 8);
        r2.record(Duration::from_ms(1));
        assert!(ccdf_shift_violation(&e2e2, &r2, shift).is_some());
    }

    #[test]
    fn mode_parses() {
        assert_eq!("off".parse(), Ok(OracleMode::Off));
        assert_eq!("count".parse(), Ok(OracleMode::Count));
        assert_eq!("panic".parse(), Ok(OracleMode::Panic));
        assert!("loud".parse::<OracleMode>().is_err());
    }

    #[test]
    fn totals_sum_and_slots() {
        let mut t = OracleTotals::default();
        *t.slot(ViolationKind::Lateness) += 2;
        *t.slot(ViolationKind::CcdfBound) += 1;
        assert_eq!(t.total(), 3);
        assert_eq!(t.lateness, 2);
        assert_eq!(t.ccdf_bound, 1);
    }
}
