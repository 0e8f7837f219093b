//! Shared test support: the literal `2^n` procedure-3 enumerator.
//!
//! [`Ac3Admission`] is the *reference* for ineq. (19) — a subset
//! enumeration kept deliberately simple so `lit_core::Ac3Fast`, the one
//! procedure-3 admission the library ships, can be differentially pinned
//! against it (`diff_ac3.rs`, `golden_ac3.rs`); `ac3_oracle.rs` tests the
//! enumerator itself. It is capped at 25 resident sessions and costs
//! seconds per admit near the cap, which is why it lives here and not in
//! `lit-core`'s API. Mount with `mod common;`.

// Each test binary uses a different part of this module.
#![allow(dead_code)]

use lit_net::DelayAssignment;
use lit_sim::{Duration, PS_PER_SEC};

/// One admitted session under procedure 3.
#[derive(Clone, Copy, Debug)]
struct Ac3Session {
    rate_bps: u64,
    max_len_bits: u32,
    d: Duration,
}

/// Rejections from procedure 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ac3Error {
    /// The request's rate or `d` is zero.
    ZeroParameter,
    /// Test (18) failed: `Σ r > C`.
    RateExceeded,
    /// Ineq. (19) failed for some subset `A` (the offending subset's
    /// bitmask over *existing* sessions is reported; bit `i` = existing
    /// session `i`, and the candidate is always in `A`).
    SubsetInfeasible {
        /// Bitmask of the violating subset.
        mask: u64,
    },
    /// More sessions than the exhaustive `2^n` test supports.
    TooManySessions,
}

impl std::fmt::Display for Ac3Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ac3Error::ZeroParameter => write!(f, "rate and d must be positive"),
            Ac3Error::RateExceeded => write!(f, "total reserved rate would exceed C"),
            Ac3Error::SubsetInfeasible { mask } => {
                write!(f, "inequality (19) violated for subset mask {mask:#b}")
            }
            Ac3Error::TooManySessions => write!(
                f,
                "exhaustive subset test limited to {} sessions",
                Ac3Admission::MAX_SESSIONS
            ),
        }
    }
}

impl std::error::Error for Ac3Error {}

/// Admission control procedure 3: arbitrary fixed `d_s` per session,
/// guarded by the subset test
///
/// ```text
/// C ≥ (Σ_{s∈A} L_max,s · Σ_{s∈A} r_s) / (Σ_{s∈A} r_s·d_s)   ∀ A ⊆ φ, A ≠ ∅
/// ```
///
/// As the paper notes, there are `2^{|φ|} − 1` subsets; this implementation
/// tests only the `2^{|φ|−1}` subsets containing the *candidate* (every
/// other subset was already verified when its members were admitted), and
/// evaluates the inequality in exact 128-bit integer cross-multiplied form.
#[derive(Clone, Debug)]
pub struct Ac3Admission {
    link_bps: u64,
    sessions: Vec<Ac3Session>,
    /// Running `Σ r` over `sessions`, maintained by admit/release so the
    /// test-(18) check is `O(1)` instead of re-summing `O(n)` per admit.
    admitted_rate_bps: u64,
}

impl Ac3Admission {
    /// Exhaustive-test ceiling: `2^25` subset evaluations ≈ tens of ms.
    pub const MAX_SESSIONS: usize = 25;

    /// Admission state for a link of capacity `C`.
    pub fn new(link_bps: u64) -> Self {
        assert!(link_bps > 0, "Ac3Admission: zero link rate");
        Ac3Admission {
            link_bps,
            sessions: Vec::new(),
            admitted_rate_bps: 0,
        }
    }

    /// Number of admitted sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session is admitted.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Total reserved rate (cached; `O(1)`).
    pub fn admitted_rate_bps(&self) -> u64 {
        self.admitted_rate_bps
    }

    /// Ineq. (19) for one subset, exactly:
    /// `C · Σ(r·d) ≥ Σ L · Σ r`, with `r·d` in bit·ps and the right side
    /// scaled by `PS_PER_SEC` to match.
    fn subset_ok(&self, candidate: &Ac3Session, mask: u64) -> bool {
        let mut sum_l: u128 = candidate.max_len_bits as u128;
        let mut sum_r: u128 = candidate.rate_bps as u128;
        let mut sum_rd: u128 = candidate.rate_bps as u128 * candidate.d.as_ps() as u128;
        for (i, s) in self.sessions.iter().enumerate() {
            if mask & (1 << i) != 0 {
                sum_l += s.max_len_bits as u128;
                sum_r += s.rate_bps as u128;
                sum_rd += s.rate_bps as u128 * s.d.as_ps() as u128;
            }
        }
        self.link_bps as u128 * sum_rd >= sum_l * sum_r * PS_PER_SEC as u128
    }

    /// Try to admit a session with rate `rate_bps`, maximum length
    /// `max_len_bits`, and requested constant delay `d`.
    pub fn try_admit(
        &mut self,
        rate_bps: u64,
        max_len_bits: u32,
        d: Duration,
    ) -> Result<DelayAssignment, Ac3Error> {
        if rate_bps == 0 || d == Duration::ZERO || max_len_bits == 0 {
            return Err(Ac3Error::ZeroParameter);
        }
        if self.sessions.len() >= Self::MAX_SESSIONS {
            return Err(Ac3Error::TooManySessions);
        }
        // Checked: near-`u64::MAX` rate requests must reject, not wrap
        // past the capacity test.
        let Some(total_rate) = self.admitted_rate_bps.checked_add(rate_bps) else {
            return Err(Ac3Error::RateExceeded);
        };
        if total_rate > self.link_bps {
            return Err(Ac3Error::RateExceeded);
        }
        let candidate = Ac3Session {
            rate_bps,
            max_len_bits,
            d,
        };
        let n = self.sessions.len();
        for mask in 0..(1u64 << n) {
            if !self.subset_ok(&candidate, mask) {
                return Err(Ac3Error::SubsetInfeasible { mask });
            }
        }
        self.sessions.push(candidate);
        self.admitted_rate_bps = total_rate;
        Ok(DelayAssignment::Fixed(d))
    }

    /// Tear down the session at `index` (0-based admission order),
    /// returning its reserved rate to the pool. The *last* admitted
    /// session moves into the freed index (`swap_remove`), which callers
    /// tracking indices — like `diff_ac3.rs`'s mirror — must account for.
    /// Returns `false` (and changes nothing) if `index` is out of range.
    ///
    /// Removing a session only shrinks every subset sum, so no re-check
    /// of ineq. (19) is needed: all remaining subsets stay feasible.
    pub fn release(&mut self, index: usize) -> bool {
        if index >= self.sessions.len() {
            return false;
        }
        let s = self.sessions.swap_remove(index);
        self.admitted_rate_bps -= s.rate_bps;
        true
    }
}
