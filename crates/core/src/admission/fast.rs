//! Fast incremental admission for procedure 3 — [`Ac3Fast`].
//!
//! Read literally, ineq. (19) is answered by enumerating every subset
//! `A ⊆ φ` that contains the candidate — `2^{|φ|}` evaluations, seconds
//! per admit at 24 resident sessions (that enumerator is the test
//! reference, `crates/core/tests/common/mod.rs`). This module answers the
//! *same* question with cost independent of the number of resident
//! sessions, so admit/release churn works at millions of sessions.
//!
//! Write `F(A) = PS·(Σ_{s∈A} L_s)(Σ_{s∈A} r_s) − C·Σ_{s∈A} r_s·d_s`
//! (picosecond-scaled, exactly the cross-multiplied form of the
//! reference's `subset_ok`): the candidate is admissible iff
//! `F(A) ≤ 0` for every `A ∋ candidate`. Three structural facts shrink
//! the search (proofs in DESIGN.md §11):
//!
//! 1. **All-or-none classes.** Adding one more member `s` to a set with
//!    totals `(L, R)` changes `F` by `Δ⁺ = PS·(l_s·R + r_s·L + l_s·r_s) −
//!    C·r_s·d_s`, and removing it changes `F` by `−Δ⁻` with
//!    `Δ⁻ = PS·(l_s·R + r_s·L − l_s·r_s) − C·r_s·d_s ≤ Δ⁺`. If a maximizer
//!    of `F` keeps `s` (`Δ⁻ ≥ 0`), adding an *identical* session can only
//!    help (`Δ⁺ ≥ Δ⁻ ≥ 0`) — so some maximizer takes every session of a
//!    `(r, L, d)`-class or none of them. Sessions therefore aggregate
//!    into classes, and only class subsets matter.
//! 2. **Dominance pruning.** The member gain `Δ⁻` is monotone in the set
//!    totals `(L, R)`. Iterating "drop every class whose members fail
//!    `Δ⁻ ≥ 0` at the current totals", starting from the full set, is a
//!    shrinking iteration of a monotone operator: by induction it never
//!    drops a member of a maximal maximizer, so it converges to a
//!    *superset* of one. Everything pruned is provably irrelevant.
//! 3. **Sorted prefixes.** At the maximizer's own totals ratio
//!    `λ* = L*/R*`, members are exactly the sessions with
//!    `k_s(λ*) = r_s·(PS·l_s + C·d_s)/(l_s + λ*·r_s)` below a threshold —
//!    a prefix of the sort by `k_s(λ*)`. Violating sets, when they
//!    exist, live at the front of that order.
//!
//! The decision pipeline: aggregate resident sessions into `(r, L, d)`
//! classes (a [`BTreeMap`], so iteration — and therefore every witness —
//! is deterministic), prune with (2), then if at most
//! [`Ac3Fast::exhaustive_limit`] classes survive, enumerate their subsets
//! Gray-code style — *provably exact* by (1)+(2). Beyond the limit, an
//! equally exact branch-and-bound over classes takes over: DFS in the
//! sorted-prefix order of (3) (so the first descent walks the most
//! violation-prone prefixes), pruning any branch whose optimistic bound
//! `PS·(L_p+L_suffix)(R_p+R_suffix) − C·W_p` cannot go positive. Its
//! worst case is exponential in the *class* count only, fenced by a node
//! budget whose exhaustion is a conservative rejection
//! ([`Ac3FastError::DecisionBudget`] — never observed outside adversarial
//! inputs); the differential suite (`crates/core/tests/diff_ac3.rs`)
//! pins both paths to the exhaustive oracle. Service deployments with a
//! bounded palette of delay classes (the paper's framing) always stay on
//! the Gray-code path.
//!
//! All subset arithmetic is exact `u128`, `checked_*` throughout; any
//! overflow is a conservative [`Ac3FastError::Overflow`] rejection rather
//! than a wrapped comparison.

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

use lit_net::DelayAssignment;
use lit_sim::{Duration, PS_PER_SEC};
use std::collections::BTreeMap;

/// Picoseconds per second, widened once for the cross-multiplied tests.
const PS: u128 = PS_PER_SEC as u128;

/// Sentinel for "no free slot" in the handle free list.
const NO_SLOT: u32 = u32::MAX;

/// Ceiling on [`Ac3Fast::with_exhaustive_limit`]: `2^20` subset sums is
/// about a millisecond, the most an admit may spend in the exact path.
const MAX_EXHAUSTIVE_LIMIT: u32 = 20;

/// Node budget for the branch-and-bound fallback. `2^21` nodes is twice
/// the Gray-code ceiling's subset count; exhausting it rejects
/// conservatively rather than answering late or wrong.
const BNB_NODE_BUDGET: u64 = 1 << 21;

/// One `(r, L_max, d)` parameter class; the unit of aggregation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct ClassKey {
    rate_bps: u64,
    len_bits: u32,
    d: Duration,
}

/// A stable, generation-checked reference to one admitted session.
///
/// Returned by [`Ac3Fast::try_admit`]; spent by [`Ac3Fast::release`].
/// Releasing twice, or releasing a handle from another instance's
/// numbering, safely returns `false` — the generation tag catches reuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ac3Handle {
    slot: u32,
    gen: u32,
}

#[derive(Clone, Copy, Debug)]
enum Slot {
    Live { gen: u32, key: ClassKey },
    Free { gen: u32, next: u32 },
}

/// One parameter class of a rejection witness: `count` sessions that all
/// reserved `rate_bps`/`max_len_bits`/`d`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ac3ClassSpec {
    /// Reserved rate `r_s` in bit/s.
    pub rate_bps: u64,
    /// Maximum packet length `L_max,s` in bits.
    pub max_len_bits: u32,
    /// The session's constant delay increment `d_s`.
    pub d: Duration,
    /// How many admitted sessions share these parameters and belong to
    /// the violating set.
    pub count: u64,
}

/// A concrete violating set for ineq. (19): the candidate plus whole
/// parameter classes of already-admitted sessions.
///
/// Unlike the reference enumerator's `SubsetInfeasible { mask }` (a
/// bitmask over session indices), the witness is index-free — it survives
/// arbitrary admit/release churn and stays `O(#classes)` even with
/// millions of resident sessions. [`Ac3Witness::violates`] re-derives the
/// violation from scratch, so tests can hold the implementation to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ac3Witness {
    /// The candidate session's parameters (`count` is always 1).
    pub candidate: Ac3ClassSpec,
    /// The admitted classes in the violating set, in class-key order.
    pub classes: Vec<Ac3ClassSpec>,
}

impl Ac3Witness {
    /// Total number of sessions in the violating set (candidate included).
    pub fn num_sessions(&self) -> u64 {
        1 + self.classes.iter().map(|c| c.count).sum::<u64>()
    }

    /// Exactly re-evaluate ineq. (19) on this set against capacity
    /// `link_bps`: `Some(true)` iff the set genuinely violates. `None` if
    /// the cross-multiplied products overflow `u128` (never the case for
    /// witnesses produced by [`Ac3Fast`], which rejects with
    /// [`Ac3FastError::Overflow`] before emitting one).
    pub fn violates(&self, link_bps: u64) -> Option<bool> {
        let mut sum_l: u128 = 0;
        let mut sum_r: u128 = 0;
        let mut sum_rd: u128 = 0;
        let one = [self.candidate];
        for c in one.iter().chain(self.classes.iter()) {
            let n = c.count as u128;
            sum_l = sum_l.checked_add((c.max_len_bits as u128).checked_mul(n)?)?;
            sum_r = sum_r.checked_add((c.rate_bps as u128).checked_mul(n)?)?;
            let rd = c.d.picobits_at_rate(c.rate_bps);
            sum_rd = sum_rd.checked_add(rd.checked_mul(n)?)?;
        }
        let lhs = sum_l.checked_mul(sum_r)?.checked_mul(PS)?;
        let rhs = (link_bps as u128).checked_mul(sum_rd)?;
        Some(lhs > rhs)
    }
}

/// Rejections from the fast procedure-3 service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ac3FastError {
    /// The request's rate, maximum length, or `d` is zero.
    ZeroParameter,
    /// Test (18) failed: `Σ r` would exceed `C` (or overflow `u64`).
    RateExceeded,
    /// Ineq. (19) failed; the witness names a concrete violating set.
    Infeasible(Ac3Witness),
    /// A cross-multiplied product exceeded `u128`; the request is
    /// conservatively rejected rather than compared with wrapped values.
    Overflow,
    /// The branch-and-bound fallback hit its node budget before settling
    /// the decision; the request is conservatively rejected. Requires
    /// more than [`Ac3Fast::exhaustive_limit`] surviving classes *and* an
    /// adversarial parameter spread — not reachable from a bounded
    /// service-class palette.
    DecisionBudget,
}

impl std::fmt::Display for Ac3FastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ac3FastError::ZeroParameter => write!(f, "rate, max length and d must be positive"),
            Ac3FastError::RateExceeded => write!(f, "total reserved rate would exceed C"),
            Ac3FastError::Infeasible(w) => write!(
                f,
                "inequality (19) violated by a set of {} sessions in {} classes",
                w.num_sessions(),
                w.classes.len() + 1
            ),
            Ac3FastError::Overflow => {
                write!(
                    f,
                    "admission arithmetic overflowed u128; rejected conservatively"
                )
            }
            Ac3FastError::DecisionBudget => {
                write!(
                    f,
                    "subset search exceeded its node budget; rejected conservatively"
                )
            }
        }
    }
}

impl std::error::Error for Ac3FastError {}

/// Per-class aggregate used by one admission decision: the class key, its
/// session count, the per-member `r·d` product, and the class totals.
#[derive(Clone, Copy)]
struct Agg {
    key: ClassKey,
    count: u64,
    /// `r·d` of one member, in bit·ps/s.
    w_each: u128,
    /// `count · L` in bits.
    tot_l: u128,
    /// `count · r` in bit/s.
    tot_r: u128,
    /// `count · r·d`.
    tot_w: u128,
}

/// Incremental admission control procedure 3 with teardown.
///
/// A candidate is admitted iff ineq. (19) holds for every subset
/// containing it — the contract of the paper's `2^n` enumeration — but
/// the decision cost depends on the number of *distinct parameter
/// classes*, not the number of resident sessions, and
/// [`Ac3Fast::release`] returns a session's reservation to the pool in
/// `O(log #classes)`.
///
/// ```
/// use lit_core::admission::fast::Ac3Fast;
/// use lit_sim::Duration;
///
/// let mut ac = Ac3Fast::new(1_536_000);
/// let (h, _) = ac.try_admit(768_000, 424, Duration::from_ms(20)).unwrap();
/// assert_eq!(ac.admitted_rate_bps(), 768_000);
/// assert!(ac.release(h));
/// assert_eq!(ac.admitted_rate_bps(), 0);
/// assert!(!ac.release(h), "handles are single-use");
/// ```
#[derive(Clone, Debug)]
pub struct Ac3Fast {
    link_bps: u64,
    exhaustive_limit: u32,
    admitted_rate_bps: u64,
    live: u64,
    slots: Vec<Slot>,
    free_head: u32,
    classes: BTreeMap<ClassKey, u64>,
}

impl Ac3Fast {
    /// Admission state for a link of capacity `C` bit/s.
    pub fn new(link_bps: u64) -> Self {
        assert!(link_bps > 0, "Ac3Fast: zero link rate");
        Ac3Fast {
            link_bps,
            exhaustive_limit: 16,
            admitted_rate_bps: 0,
            live: 0,
            slots: Vec::new(),
            free_head: NO_SLOT,
            classes: BTreeMap::new(),
        }
    }

    /// Override how many surviving classes the Gray-code enumeration may
    /// cover before branch-and-bound takes over (default 16, clamped to
    /// 20). `0` forces every decision through branch-and-bound — used by
    /// the differential tests to exercise that path.
    pub fn with_exhaustive_limit(mut self, limit: u32) -> Self {
        self.exhaustive_limit = limit.min(MAX_EXHAUSTIVE_LIMIT);
        self
    }

    /// The configured exhaustive-path class ceiling.
    pub fn exhaustive_limit(&self) -> u32 {
        self.exhaustive_limit
    }

    /// Link capacity `C` in bit/s.
    pub fn link_bps(&self) -> u64 {
        self.link_bps
    }

    /// Number of admitted sessions.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// Whether no session is admitted.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total reserved rate (cached; `O(1)`).
    pub fn admitted_rate_bps(&self) -> u64 {
        self.admitted_rate_bps
    }

    /// Number of distinct `(r, L_max, d)` parameter classes currently
    /// admitted — the quantity decision cost actually depends on.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Try to admit a session with rate `rate_bps`, maximum length
    /// `max_len_bits`, and requested constant delay `d`. On success
    /// returns the teardown handle and the granted (fixed) assignment.
    pub fn try_admit(
        &mut self,
        rate_bps: u64,
        max_len_bits: u32,
        d: Duration,
    ) -> Result<(Ac3Handle, DelayAssignment), Ac3FastError> {
        if rate_bps == 0 || max_len_bits == 0 || d == Duration::ZERO {
            return Err(Ac3FastError::ZeroParameter);
        }
        let Some(total_rate) = self.admitted_rate_bps.checked_add(rate_bps) else {
            return Err(Ac3FastError::RateExceeded);
        };
        if total_rate > self.link_bps {
            return Err(Ac3FastError::RateExceeded);
        }
        let key = ClassKey {
            rate_bps,
            len_bits: max_len_bits,
            d,
        };
        self.check_feasible(key)?;
        match self.classes.entry(key) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let n = e.get_mut();
                let Some(next) = n.checked_add(1) else {
                    return Err(Ac3FastError::Overflow);
                };
                *n = next;
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(1);
            }
        }
        self.admitted_rate_bps = total_rate;
        self.live += 1;
        let handle = self.alloc_slot(key);
        Ok((handle, DelayAssignment::Fixed(d)))
    }

    /// Tear down a previously admitted session, returning its reservation
    /// to the pool. `false` if the handle is stale (already released) or
    /// unknown; the instance is unchanged in that case.
    pub fn release(&mut self, handle: Ac3Handle) -> bool {
        let Some(slot) = self.slots.get_mut(handle.slot as usize) else {
            return false;
        };
        let Slot::Live { gen, key } = *slot else {
            return false;
        };
        if gen != handle.gen {
            return false;
        }
        *slot = Slot::Free {
            // A generation that would wrap retires the slot instead (it
            // never re-enters the free list with gen 0 colliding old
            // handles); practically unreachable.
            gen: gen.saturating_add(1),
            next: self.free_head,
        };
        if gen != u32::MAX {
            self.free_head = handle.slot;
        }
        match self.classes.get_mut(&key) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                self.classes.remove(&key);
            }
            // Unreachable: a live slot always has a class entry.
            None => return false,
        }
        self.admitted_rate_bps = self.admitted_rate_bps.saturating_sub(key.rate_bps);
        self.live = self.live.saturating_sub(1);
        true
    }

    fn alloc_slot(&mut self, key: ClassKey) -> Ac3Handle {
        if self.free_head != NO_SLOT {
            let idx = self.free_head;
            if let Some(slot) = self.slots.get_mut(idx as usize) {
                if let Slot::Free { gen, next } = *slot {
                    self.free_head = next;
                    *slot = Slot::Live { gen, key };
                    return Ac3Handle { slot: idx, gen };
                }
            }
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Slot::Live { gen: 0, key });
        Ac3Handle { slot: idx, gen: 0 }
    }

    /// Is ineq. (19) violated for the set with totals `(sum_l, sum_r,
    /// sum_rd)`? Exact cross-multiplied comparison, `Err` on overflow.
    fn violated(&self, sum_l: u128, sum_r: u128, sum_rd: u128) -> Result<bool, Ac3FastError> {
        let lhs = sum_l
            .checked_mul(sum_r)
            .and_then(|p| p.checked_mul(PS))
            .ok_or(Ac3FastError::Overflow)?;
        let rhs = (self.link_bps as u128)
            .checked_mul(sum_rd)
            .ok_or(Ac3FastError::Overflow)?;
        Ok(lhs > rhs)
    }

    /// The full subset test for one candidate class key.
    fn check_feasible(&self, cand: ClassKey) -> Result<(), Ac3FastError> {
        let cl = cand.len_bits as u128;
        let cr = cand.rate_bps as u128;
        let cw = cand.d.picobits_at_rate(cand.rate_bps);

        // Singleton set {candidate}: d ≥ L/C.
        if self.violated(cl, cr, cw)? {
            return Err(Ac3FastError::Infeasible(Ac3Witness {
                candidate: spec_of(cand, 1),
                classes: Vec::new(),
            }));
        }
        if self.classes.is_empty() {
            return Ok(());
        }

        // Aggregate resident sessions into classes (deterministic order).
        let mut aggs: Vec<Agg> = Vec::with_capacity(self.classes.len());
        for (&key, &count) in &self.classes {
            let n = count as u128;
            let w_each = key.d.picobits_at_rate(key.rate_bps);
            let tot_w = w_each.checked_mul(n).ok_or(Ac3FastError::Overflow)?;
            aggs.push(Agg {
                key,
                count,
                w_each,
                // u32×u64 and u64×u64 products fit u128.
                tot_l: (key.len_bits as u128) * n,
                tot_r: (key.rate_bps as u128) * n,
                tot_w,
            });
        }

        // Full-set totals (candidate included).
        let mut tl = cl;
        let mut tr = cr;
        let mut tw = cw;
        for a in &aggs {
            tl = tl.checked_add(a.tot_l).ok_or(Ac3FastError::Overflow)?;
            tr = tr.checked_add(a.tot_r).ok_or(Ac3FastError::Overflow)?;
            tw = tw.checked_add(a.tot_w).ok_or(Ac3FastError::Overflow)?;
        }

        // Dominance pruning (module docs, fact 2): shrink from the full
        // set, dropping classes whose members would lower F at the
        // current totals; re-check the surviving set each round. The
        // first `violated` call also proves the full-set products fit
        // u128, which bounds every subset product below.
        let mut alive = vec![true; aggs.len()];
        loop {
            if self.violated(tl, tr, tw)? {
                return Err(Ac3FastError::Infeasible(witness(cand, &aggs, |i| {
                    alive.get(i).copied().unwrap_or(false)
                })));
            }
            let mut removed = false;
            for (a, flag) in aggs.iter().zip(alive.iter_mut()) {
                if !*flag {
                    continue;
                }
                // Keep s iff removing it would not raise F:
                //   PS·(l·R + r·L − l·r) ≥ C·r·d.
                let l = a.key.len_bits as u128;
                let r = a.key.rate_bps as u128;
                let gain = l
                    .checked_mul(tr)
                    .and_then(|x| x.checked_add(r.checked_mul(tl)?))
                    .and_then(|x| x.checked_sub(l * r))
                    .and_then(|x| x.checked_mul(PS))
                    .ok_or(Ac3FastError::Overflow)?;
                let cost = (self.link_bps as u128)
                    .checked_mul(a.w_each)
                    .ok_or(Ac3FastError::Overflow)?;
                if gain < cost {
                    *flag = false;
                    removed = true;
                    tl -= a.tot_l;
                    tr -= a.tot_r;
                    tw -= a.tot_w;
                }
            }
            if !removed {
                break;
            }
        }
        let pruned: Vec<usize> = (0..aggs.len())
            .filter(|&i| alive.get(i) == Some(&true))
            .collect();
        if pruned.is_empty() {
            return Ok(());
        }

        // Quick accept: if C·d_s ≥ PS·TL for every survivor and the
        // candidate, then for any subset A, C·Σr·d ≥ PS·TL·Σr ≥
        // PS·L_A·R_A — all subsets feasible. (Overflow here only skips
        // the shortcut.)
        if let Some(ps_tl) = tl.checked_mul(PS) {
            let min_d = pruned
                .iter()
                .filter_map(|&i| aggs.get(i))
                .fold(cand.d, |m, a| m.min(a.key.d));
            if min_d.picobits_at_rate(self.link_bps) >= ps_tl {
                return Ok(());
            }
        }

        if pruned.len() as u32 <= self.exhaustive_limit {
            // Provably exact: some maximal violating set (if any) is a
            // union of whole surviving classes.
            if let Some(inset) = self.exhaustive_reject((cl, cr, cw), &aggs, &pruned) {
                return Err(Ac3FastError::Infeasible(witness(cand, &aggs, |i| {
                    inset.contains(&i)
                })));
            }
            return Ok(());
        }
        if let Some(inset) = self.bnb_reject((cl, cr, cw), &aggs, &pruned)? {
            return Err(Ac3FastError::Infeasible(witness(cand, &aggs, |i| {
                inset.contains(&i)
            })));
        }
        Ok(())
    }

    /// Gray-code enumeration of all subsets of the surviving classes
    /// (candidate always in). Returns the class indices of a violating
    /// set, or `None` if all subsets are feasible. Partial sums are
    /// bounded by the full-set totals whose products were already
    /// overflow-checked, so the inner loop uses plain arithmetic.
    fn exhaustive_reject(
        &self,
        cand: (u128, u128, u128),
        aggs: &[Agg],
        pruned: &[usize],
    ) -> Option<Vec<usize>> {
        let k = pruned.len();
        let (mut sl, mut sr, mut sw) = cand;
        let link = self.link_bps as u128;
        let mut inset = vec![false; k];
        for step in 1..(1u64 << k) {
            let b = step.trailing_zeros() as usize;
            let a = pruned.get(b).and_then(|&i| aggs.get(i))?;
            let flag = inset.get_mut(b)?;
            if *flag {
                sl -= a.tot_l;
                sr -= a.tot_r;
                sw -= a.tot_w;
            } else {
                sl += a.tot_l;
                sr += a.tot_r;
                sw += a.tot_w;
            }
            *flag = !*flag;
            if sl * sr * PS > link * sw {
                return Some(
                    inset
                        .iter()
                        .zip(pruned.iter())
                        .filter(|(f, _)| **f)
                        .map(|(_, &i)| i)
                        .collect(),
                );
            }
        }
        None
    }

    /// Exact branch-and-bound over the surviving classes, for decisions
    /// beyond the Gray-code limit. Every node's partial set (candidate +
    /// included classes) is a real subset, tested exactly; a branch is
    /// pruned when even taking its whole suffix (which maximizes the
    /// `PS·L·R` term) while paying only the already-included `C·W` cost
    /// cannot violate. Classes are visited in ascending sorted-prefix key
    /// `k(λ)` at the full-set ratio — a heuristic for finding violations
    /// on the first descent; exactness never depends on it.
    ///
    /// Returns the class indices of a violating set, `Ok(None)` if all
    /// subsets are provably feasible, or `Err(DecisionBudget)` past
    /// [`BNB_NODE_BUDGET`] nodes. All arithmetic is bounded by the
    /// overflow-checked full-set products.
    fn bnb_reject(
        &self,
        cand: (u128, u128, u128),
        aggs: &[Agg],
        pruned: &[usize],
    ) -> Result<Option<Vec<usize>>, Ac3FastError> {
        let k = pruned.len();
        let link = self.link_bps as u128;
        let (cl, cr, cw) = cand;

        // Branching order: ascending k(λ) = (PS·L + C·d)/(L/r + λ) at
        // λ = L_full/R_full. f64 is fine — this only orders exploration.
        let c_f = self.link_bps as f64;
        let ps_f = PS_PER_SEC as f64;
        let (mut fl, mut fr) = (cl as f64, cr as f64);
        for &i in pruned {
            if let Some(a) = aggs.get(i) {
                fl += a.tot_l as f64;
                fr += a.tot_r as f64;
            }
        }
        let lam = fl / fr;
        let mut order: Vec<usize> = pruned.to_vec();
        order.sort_by(|&a, &b| {
            let key = |i: usize| {
                aggs.get(i).map_or(f64::INFINITY, |a| {
                    let l = a.key.len_bits as f64;
                    let r = a.key.rate_bps as f64;
                    (ps_f * l + c_f * (a.key.d.as_ps() as f64)) / (l / r + lam)
                })
            };
            key(a).total_cmp(&key(b)).then(a.cmp(&b))
        });

        // Suffix totals: suf[p] = Σ over order[p..] of (tot_l, tot_r).
        let mut suf: Vec<(u128, u128)> = vec![(0, 0); k + 1];
        for p in (0..k).rev() {
            let (nl, nr) = suf.get(p + 1).copied().unwrap_or((0, 0));
            let a = order.get(p).and_then(|&i| aggs.get(i));
            let (al, ar) = a.map_or((0, 0), |a| (a.tot_l, a.tot_r));
            if let Some(s) = suf.get_mut(p) {
                *s = (nl + al, nr + ar);
            }
        }

        let (mut sl, mut sr, mut sw) = (cl, cr, cw);
        let mut chosen = vec![false; k];
        let mut nodes: u64 = 0;
        // Explicit DFS: (pos, phase). Phase 0 enters a node, phase 1
        // undoes the include branch and opens the exclude branch.
        let mut stack: Vec<(usize, u8)> = vec![(0, 0)];
        while let Some((pos, phase)) = stack.pop() {
            if phase == 1 {
                if let Some(a) = order.get(pos).and_then(|&i| aggs.get(i)) {
                    sl -= a.tot_l;
                    sr -= a.tot_r;
                    sw -= a.tot_w;
                }
                if let Some(c) = chosen.get_mut(pos) {
                    *c = false;
                }
                stack.push((pos + 1, 0));
                continue;
            }
            nodes += 1;
            if nodes > BNB_NODE_BUDGET {
                return Err(Ac3FastError::DecisionBudget);
            }
            // The partial set is itself a subset containing the candidate.
            if sl * sr * PS > link * sw {
                return Ok(Some(
                    chosen
                        .iter()
                        .zip(order.iter())
                        .filter(|(c, _)| **c)
                        .map(|(_, &i)| i)
                        .collect(),
                ));
            }
            if pos >= k {
                continue;
            }
            // Optimistic bound: take the entire suffix for free.
            let (rl, rr) = suf.get(pos).copied().unwrap_or((0, 0));
            if (sl + rl) * (sr + rr) * PS <= link * sw {
                continue;
            }
            // Include branch first (phase 1 will undo it), then exclude.
            if let Some(a) = order.get(pos).and_then(|&i| aggs.get(i)) {
                sl += a.tot_l;
                sr += a.tot_r;
                sw += a.tot_w;
            }
            if let Some(c) = chosen.get_mut(pos) {
                *c = true;
            }
            stack.push((pos, 1));
            stack.push((pos + 1, 0));
        }
        Ok(None)
    }
}

/// A witness class from a raw key.
fn spec_of(key: ClassKey, count: u64) -> Ac3ClassSpec {
    Ac3ClassSpec {
        rate_bps: key.rate_bps,
        max_len_bits: key.len_bits,
        d: key.d,
        count,
    }
}

/// Assemble a witness from the aggregate table and a membership
/// predicate over aggregate indices.
fn witness(cand: ClassKey, aggs: &[Agg], member: impl Fn(usize) -> bool) -> Ac3Witness {
    Ac3Witness {
        candidate: spec_of(cand, 1),
        classes: aggs
            .iter()
            .enumerate()
            .filter(|(i, _)| member(*i))
            .map(|(_, a)| spec_of(a.key, a.count))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d_equal_len_over_rate_fills_capacity() {
        // Mirror of the reference enumerator's test: d = L/r is always
        // feasible; the full-set test sits exactly at equality.
        let mut ac = Ac3Fast::new(640_000);
        for _ in 0..10 {
            ac.try_admit(64_000, 424, Duration::from_bits_at_rate(424, 64_000))
                .unwrap();
        }
        assert_eq!(ac.admitted_rate_bps(), 640_000);
        assert_eq!(ac.len(), 10);
        assert_eq!(ac.num_classes(), 1);
    }

    #[test]
    fn singleton_bounds_minimum_d() {
        let mut ac = Ac3Fast::new(1_536_000);
        let lmax_ps = Duration::from_bits_at_rate(424, 1_536_000).as_ps();
        let err = ac
            .try_admit(32_000, 424, Duration::from_ps(lmax_ps - 1))
            .unwrap_err();
        let Ac3FastError::Infeasible(w) = err else {
            panic!("expected infeasible, got {err:?}");
        };
        assert!(w.classes.is_empty());
        assert_eq!(w.violates(1_536_000), Some(true));
        assert!(ac
            .try_admit(32_000, 424, Duration::from_ps(lmax_ps))
            .is_ok());
    }

    #[test]
    fn aggressive_d_strands_bandwidth_with_verifiable_witness() {
        let mut ac = Ac3Fast::new(1_536_000);
        ac.try_admit(768_000, 424, Duration::from_us(300)).unwrap();
        let err = ac
            .try_admit(768_000, 424, Duration::from_us(300))
            .unwrap_err();
        let Ac3FastError::Infeasible(w) = err else {
            panic!("expected infeasible, got {err:?}");
        };
        assert_eq!(w.num_sessions(), 2);
        assert_eq!(w.violates(1_536_000), Some(true));
        // With a generous d the pair passes.
        assert!(ac.try_admit(768_000, 424, Duration::from_ms(20)).is_ok());
    }

    #[test]
    fn release_restores_feasibility() {
        let mut ac = Ac3Fast::new(1_536_000);
        let (h, _) = ac.try_admit(768_000, 424, Duration::from_us(300)).unwrap();
        assert!(matches!(
            ac.try_admit(768_000, 424, Duration::from_us(300)),
            Err(Ac3FastError::Infeasible(_))
        ));
        assert!(ac.release(h));
        assert!(!ac.release(h), "double release must fail");
        assert_eq!(ac.admitted_rate_bps(), 0);
        assert!(ac.is_empty());
        let (h2, _) = ac.try_admit(768_000, 424, Duration::from_us(300)).unwrap();
        assert_ne!(h, h2, "generation tag must advance");
    }

    #[test]
    fn rate_test_checks_overflow() {
        // L = 1 bit, d = 1 ps keeps the singleton subset products inside
        // u128 while Σr still wraps u64 on the second admit.
        let mut ac = Ac3Fast::new(u64::MAX);
        ac.try_admit(u64::MAX - 1, 1, Duration::from_ps(1)).unwrap();
        assert_eq!(
            ac.try_admit(u64::MAX - 1, 1, Duration::from_ps(1))
                .unwrap_err(),
            Ac3FastError::RateExceeded
        );
    }

    #[test]
    fn zero_parameters_rejected() {
        let mut ac = Ac3Fast::new(1000);
        for (r, l, d) in [
            (0u64, 424u32, Duration::from_ms(1)),
            (100, 0, Duration::from_ms(1)),
            (100, 424, Duration::ZERO),
        ] {
            assert_eq!(
                ac.try_admit(r, l, d).unwrap_err(),
                Ac3FastError::ZeroParameter
            );
        }
    }

    #[test]
    fn fallback_path_agrees_on_simple_cases() {
        // exhaustive_limit = 0 forces every decision through the
        // branch-and-bound; the full differential pin lives in
        // tests/diff_ac3.rs.
        let mut exact_path = Ac3Fast::new(1_536_000);
        let mut sweep_path = Ac3Fast::new(1_536_000).with_exhaustive_limit(0);
        for (r, l, d) in [
            (100_000u64, 424u32, Duration::from_ms(8)),
            (200_000, 1_000, Duration::from_ms(2)),
            (768_000, 424, Duration::from_us(300)),
            (400_000, 9_000, Duration::from_us(500)),
            (32_000, 424, Duration::from_us(280)),
        ] {
            let a = exact_path.try_admit(r, l, d).is_ok();
            let b = sweep_path.try_admit(r, l, d).is_ok();
            assert_eq!(a, b, "r={r} l={l} d={d}");
        }
    }
}
