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
use lit_sim::{Duration, Time};

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

    /// This kind's finding, observing `got` against `limit`, unless the
    /// check held.
    fn unless(self, held: bool, got: impl Into<i128>, limit: impl Into<i128>) -> Option<Finding> {
        let (kind, got, limit) = (self, got.into(), limit.into());
        (!held).then_some(Finding { kind, got, limit })
    }
}

/// The label's name part, without the paper reference: `release-time`.
impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label().split(" (").next().unwrap_or_default())
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

    pub(crate) fn slot(&mut self, kind: ViolationKind) -> &mut u64 {
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

/// A failed online check: what was observed against what the invariant
/// allows, in signed picoseconds (instants count from zero).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Finding {
    pub(crate) kind: ViolationKind,
    got: i128,
    limit: i128,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "observed {} ps, limit {} ps", self.got, self.limit)
    }
}

/// Per-network oracle state: the totals, and the tables the online
/// checks read, empty when the oracle is off. The node step reports each
/// lifecycle point to the checks below, and only when the oracle is on.
pub(crate) struct OracleRt {
    pub(crate) mode: OracleMode,
    pub(crate) totals: OracleTotals,
    /// Installed bounds, indexed by session.
    pub(crate) bounds: Vec<Option<SessionBounds>>,
    /// Last eligibility time at every route hop, laid out like the
    /// topology's flat route table (`route_start[session] + hop`).
    last_eligible: Vec<Time>,
    /// Largest reference delay over the packets *delivered* so far, per
    /// session, in picoseconds: the jitter check's `D^ref_max`. Delivered
    /// side, because the delivering core knows it under every driver, and
    /// never looser than the injected-side maximum (which can run ahead).
    ref_max_ps: Vec<i128>,
}

impl OracleRt {
    /// The oracle of a network with `sessions` sessions whose routes have
    /// `hops` hops in all.
    pub(crate) fn new(cfg: OracleConfig, sessions: usize, hops: usize) -> Self {
        let on = cfg.mode != OracleMode::Off;
        let (sessions, hops) = if on { (sessions, hops) } else { (0, 0) };
        OracleRt {
            mode: cfg.mode,
            totals: OracleTotals::default(),
            bounds: vec![None; sessions],
            last_eligible: vec![Time::ZERO; hops],
            ref_max_ps: vec![i128::MIN; sessions],
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.mode != OracleMode::Off
    }

    /// Eq. 6–7 at an arrival at `now`: the eligibility `E` at route slot
    /// `slot` neither precedes the session's previous one there nor lies
    /// in the past.
    pub(crate) fn arrival(&mut self, slot: usize, e: Time, now: Time) -> [Option<Finding>; 2] {
        let Some(last) = self.last_eligible.get_mut(slot) else {
            return [None; 2];
        };
        let prev = std::mem::replace(last, (*last).max(e));
        [
            ViolationKind::EligibilityOrder.unless(e >= prev, e, prev),
            ViolationKind::ReleaseTime.unless(e >= now, e, now),
        ]
    }

    /// Eq. 6–9 at a regulator release at `now`: the packet leaves at
    /// `armed`, the instant the regulator computed. Under the interleaved
    /// backend `fifo` is `(max(last release, E), E, ceiling)`: the release
    /// also equals the first (the regulator's defining equation) and holds
    /// the packet past its own `E` no longer than the ceiling, the
    /// Thomas–Le Boudec property that FIFO plus head gating holds no packet
    /// longer than the largest `E − a` any packet brought into the FIFO.
    pub(crate) fn release(
        &self,
        now: Time,
        armed: Time,
        fifo: Option<(Time, Time, Duration)>,
    ) -> [Option<Finding>; 3] {
        let (expected, e, ceiling) = fifo.unwrap_or((now, now, Duration::ZERO));
        let shaping = now.checked_since(e).unwrap_or(Duration::ZERO);
        [
            ViolationKind::ReleaseTime.unless(now == armed, now, armed),
            ViolationKind::RegulatorFifo.unless(now == expected, now, expected),
            ViolationKind::ShapingBound.unless(shaping <= ceiling, shaping, ceiling),
        ]
    }

    /// The non-saturation lemma at a departure `lateness = F̂ − F` past
    /// the deadline: `F̂ < F + L_MAX/C`.
    pub(crate) fn departure(&self, lateness: i128, lmax: Duration) -> Option<Finding> {
        ViolationKind::Lateness.unless(lateness < i128::from(lmax), lateness, lmax)
    }

    /// The delivery of a packet of session `sid` with reference delay
    /// `ref_delay` and `D_i − D^ref_i = excess`, which leaves the session
    /// with the running `jitter`. Ineq. 12, pathwise: `excess < β + α`,
    /// for any arrival pattern (the firewall property). Ineq. 17 family:
    /// the jitter stays below `D^ref_max` plus the spread constant; both
    /// running maxima only grow, so checking per delivery is checking at
    /// drain time, and ineq. 12 implies it.
    pub(crate) fn delivery(
        &mut self,
        sid: usize,
        ref_delay: Duration,
        excess: i128,
        jitter: Option<Duration>,
    ) -> [Option<Finding>; 2] {
        let Some(dref) = self.ref_max_ps.get_mut(sid) else {
            return [None; 2];
        };
        *dref = (*dref).max(i128::from(ref_delay));
        let Some(b) = self.bounds.get(sid).copied().flatten() else {
            return [None; 2];
        };
        let (jitter, most) = (jitter.map_or(0, i128::from), *dref + b.jitter_spread_ps);
        [
            ViolationKind::DelayBound.unless(excess < b.shift_ps, excess, b.shift_ps),
            ViolationKind::JitterBound.unless(jitter < most, jitter, most),
        ]
    }

    /// The last step of a violation: in panic mode, stop the run with
    /// `detail`, which is rendered only then.
    pub(crate) fn escalate(&self, kind: ViolationKind, detail: impl FnOnce() -> String) {
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
