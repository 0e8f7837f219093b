//! Fast incremental admission for procedure 3 — [`Ac3Fast`].
//!
//! Read literally, ineq. (19) is answered by enumerating every subset
//! `A ⊆ φ` that contains the candidate — `2^{|φ|}` evaluations, seconds
//! per admit at 24 resident sessions (that enumerator is the test
//! reference, `crates/core/tests/common/mod.rs`). This module answers the
//! *same* question in time polynomial in the number of distinct
//! parameter classes and independent of the number of resident sessions,
//! so admit/release churn works at millions of sessions.
//!
//! Write `F(A) = PS·(Σ_{s∈A} L_s)(Σ_{s∈A} r_s) − C·Σ_{s∈A} r_s·d_s`
//! (picosecond-scaled, exactly the cross-multiplied form of the
//! reference's `subset_ok`): the candidate is admissible iff
//! `F(A) ≤ 0` for every `A ∋ candidate`. Three structural facts answer
//! it (proofs in DESIGN.md §11):
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
//! 3. **Supermodular ⇒ minimum cut.** In class indicators `x_i` (class
//!    totals `L_i`, `R_i`, `W_i`, candidate `(cl, cr, cw)` pinned), `F` is
//!    the quadratic `F0 + Σ u_i·x_i + Σ_{i<j} q_ij·x_i·x_j` with
//!    `F0 = PS·cl·cr − C·cw`, `u_i = PS·(cl·R_i + L_i·cr + L_i·R_i) −
//!    C·W_i` and `q_ij = PS·(L_i·R_j + L_j·R_i) ≥ 0`. Nonnegative pairwise
//!    coefficients make `F` supermodular, so its maximum is one minimum
//!    s–t cut (Picard–Ratliff 1975).
//!
//! The decision pipeline: aggregate resident sessions into `(r, L, d)`
//! classes (a [`BTreeMap`], so iteration — and therefore every witness —
//! is deterministic), prune with (2), accept at once when every
//! survivor's `d` clears `PS·TL/C`, and otherwise answer with one
//! max-flow over the `m` surviving classes (`Ac3Fast::cut_reject`):
//! exact and polynomial in `m`, with no budget and no fallback. A
//! rejection's witness is the minimal maximizer of `F`. The differential
//! suite (`crates/core/tests/diff_ac3.rs`) pins the pipeline to the
//! exhaustive oracle.
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

/// Level of a node the residual search has not reached.
const UNSEEN: u32 = u32::MAX;

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
                f.write_str("admission arithmetic overflowed u128; rejected conservatively")
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

impl Agg {
    /// `count` members of `key`; `None` if `count · r·d` overflows.
    fn new(key: ClassKey, count: u64) -> Option<Agg> {
        let n = count as u128;
        let w_each = key.d.picobits_at_rate(key.rate_bps);
        Some(Agg {
            key,
            count,
            w_each,
            // u32×u64 and u64×u64 products fit u128.
            tot_l: (key.len_bits as u128) * n,
            tot_r: (key.rate_bps as u128) * n,
            tot_w: w_each.checked_mul(n)?,
        })
    }
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
            admitted_rate_bps: 0,
            live: 0,
            slots: Vec::new(),
            free_head: NO_SLOT,
            classes: BTreeMap::new(),
        }
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
        match self.classes.get_mut(&key) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                self.classes.remove(&key);
            }
            // Unreachable: a live slot always has a class entry.
            None => return false,
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

        // Aggregate resident sessions into classes (deterministic order)
        // and take the full-set totals (candidate included).
        let mut aggs: Vec<Agg> = Vec::with_capacity(self.classes.len());
        let (mut tl, mut tr, mut tw) = (cl, cr, cw);
        for (&key, &count) in &self.classes {
            let a = Agg::new(key, count).ok_or(Ac3FastError::Overflow)?;
            tl = tl.checked_add(a.tot_l).ok_or(Ac3FastError::Overflow)?;
            tr = tr.checked_add(a.tot_r).ok_or(Ac3FastError::Overflow)?;
            tw = tw.checked_add(a.tot_w).ok_or(Ac3FastError::Overflow)?;
            aggs.push(a);
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
        let mut keep = alive.iter();
        aggs.retain(|_| keep.next() == Some(&true));
        if aggs.is_empty() {
            return Ok(());
        }

        // Quick accept: if C·d_s ≥ PS·TL for every survivor and the
        // candidate, then for any subset A, C·Σr·d ≥ PS·TL·Σr ≥
        // PS·L_A·R_A — all subsets feasible. (Overflow here only skips
        // the shortcut.)
        if let Some(ps_tl) = tl.checked_mul(PS) {
            let min_d = aggs.iter().fold(cand.d, |m, a| m.min(a.key.d));
            if min_d.picobits_at_rate(self.link_bps) >= ps_tl {
                return Ok(());
            }
        }

        match self.cut_reject((cl, cr, cw), &aggs) {
            Some(inset) => Err(Ac3FastError::Infeasible(witness(cand, &aggs, |i| {
                inset.get(i) == Some(&true)
            }))),
            None => Ok(()),
        }
    }

    /// Maximize `F` over unions of the surviving classes `live`,
    /// candidate pinned, as one minimum s–t cut (module docs, fact 3):
    /// membership in the minimal maximizer when it violates, `None` when
    /// every subset is feasible. Node 0 is the source, survivor `i` is
    /// node `i + 1` and node `m + 1` the sink; a cut with source side `A`
    /// costs `T + F0 − F(A)`. Every capacity and `T + PS·cl·cr` is a sum
    /// of distinct terms of the overflow-checked `PS·TL·TR`, or at most
    /// `C·TW`; each node pair has capacity one way only, so no residual
    /// exceeds it, and the flow never exceeds `T`: plain arithmetic.
    fn cut_reject(&self, cand: (u128, u128, u128), live: &[Agg]) -> Option<Vec<bool>> {
        let (cl, cr, cw) = cand;
        let link = self.link_bps as u128;
        let n = live.len() + 2;
        let mut cap = vec![0; n * n];
        let mut set = |u: usize, v: usize, c: u128| {
            if let Some(x) = cap.get_mut(u * n + v) {
                *x = c;
            }
        };
        // T + PS·cl·cr, so that need = T + F0 = this − C·cw is unsigned.
        let mut t_and_ps_clcr = PS * cl * cr;
        for (i, a) in live.iter().enumerate() {
            let mut q_sum = 0;
            for (j, b) in live.iter().enumerate().skip(i + 1) {
                let q = PS * (a.tot_l * b.tot_r + b.tot_l * a.tot_r);
                set(i + 1, j + 1, q);
                q_sum += q;
            }
            // a_i = −u_i − Σ_{j>i} q_ij = cost − gain.
            let gain = PS * (cl * a.tot_r + a.tot_l * cr + a.tot_l * a.tot_r) + q_sum;
            let cost = link * a.tot_w;
            if cost >= gain {
                set(i + 1, n - 1, cost - gain);
            } else {
                set(0, i + 1, gain - cost);
                t_and_ps_clcr += gain - cost;
            }
        }
        // need ≤ 0: no cut costs less, so every subset is feasible.
        let need = t_and_ps_clcr.checked_sub(link * cw).filter(|&x| x > 0)?;
        flow_short_of(&mut cap, n, need)
    }
}

/// Dinic's max-flow from node 0 to node `n − 1` of the dense `n × n`
/// residual matrix `cap`, stopped as soon as it reaches `need`: `None` if
/// it does, otherwise which of nodes `1 … n − 1` the source still reaches.
fn flow_short_of(cap: &mut [u128], n: usize, need: u128) -> Option<Vec<bool>> {
    let (mut level, mut next, mut queue) = (vec![UNSEEN; n], vec![0; n], Vec::with_capacity(n));
    let mut flow = 0;
    loop {
        for (v, l) in level.iter_mut().enumerate() {
            *l = if v == 0 { 0 } else { UNSEEN };
        }
        queue.clear();
        queue.push(0);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let deeper = level.get(u).map_or(UNSEEN, |&l| l + 1);
            let row = cap.get(u * n..(u + 1) * n).unwrap_or_default();
            for (v, (&c, l)) in row.iter().zip(level.iter_mut()).enumerate() {
                if c > 0 && *l == UNSEEN {
                    *l = deeper;
                    queue.push(v);
                }
            }
        }
        if level.last() == Some(&UNSEEN) {
            return Some(level.iter().skip(1).map(|&l| l != UNSEEN).collect());
        }
        next.fill(0);
        loop {
            let pushed = augment(cap, &level, &mut next, 0, u128::MAX);
            if pushed == 0 {
                break;
            }
            flow += pushed;
            if flow >= need {
                return None;
            }
        }
    }
}

/// Push one path of at most `limit` from `u` to the sink along `level`,
/// advancing the current-arc pointers `next`; the amount pushed.
fn augment(cap: &mut [u128], level: &[u32], next: &mut [usize], u: usize, limit: u128) -> u128 {
    let n = level.len();
    if u + 1 == n {
        return limit;
    }
    let deeper = level.get(u).map_or(UNSEEN, |&l| l + 1);
    while let Some(&v) = next.get(u).filter(|&&v| v < n) {
        let c = cap.get(u * n + v).copied().unwrap_or(0);
        if c > 0 && level.get(v) == Some(&deeper) {
            let pushed = augment(cap, level, next, v, limit.min(c));
            if pushed > 0 {
                if let Some(x) = cap.get_mut(u * n + v) {
                    *x -= pushed;
                }
                if let Some(x) = cap.get_mut(v * n + u) {
                    *x += pushed;
                }
                return pushed;
            }
        }
        if let Some(p) = next.get_mut(u) {
            *p += 1;
        }
    }
    0
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

    fn key(rate_bps: u64, len_bits: u32, d: Duration) -> ClassKey {
        ClassKey {
            rate_bps,
            len_bits,
            d,
        }
    }

    #[test]
    fn failed_release_leaves_the_instance_unchanged() {
        let mut ac = Ac3Fast::new(1_536_000);
        let (h, _) = ac.try_admit(768_000, 424, Duration::from_ms(20)).unwrap();
        // Break the live-slot/class invariant to reach the defensive path.
        let classes = std::mem::take(&mut ac.classes);
        assert!(!ac.release(h));
        assert_eq!((ac.len(), ac.admitted_rate_bps()), (1, 768_000));
        ac.classes = classes;
        assert!(ac.release(h), "the handle must still name a live slot");
    }

    /// Residents X = (1 kbit/s, 1 000 bit, 2 µs) and two Y = (1 kbit/s,
    /// 1 000 bit, 7 µs) on 1 Gbit/s, a candidate like X. In units of
    /// 10¹⁸: F({c}) = −1, F({c, X}) = 0, F({c, Y, Y}) = −7, F(all) = −2.
    /// Nothing is pruned and the quick accept fails, so the cut decides.
    #[test]
    fn a_proper_subset_at_exactly_zero_decides_at_the_cut() {
        let cand = Duration::from_us(2);
        let admit_after = |x_d| {
            let mut ac = Ac3Fast::new(1_000_000_000);
            for d in [x_d, Duration::from_us(7), Duration::from_us(7)] {
                ac.try_admit(1_000, 1_000, d).unwrap();
            }
            ac.try_admit(1_000, 1_000, cand)
        };
        assert!(admit_after(cand).is_ok());
        let x_d = cand - Duration::from_ps(1);
        let Err(Ac3FastError::Infeasible(w)) = admit_after(x_d) else {
            panic!("one picosecond off X's d must violate at {{c, X}}");
        };
        assert_eq!(w.classes, [spec_of(key(1_000, 1_000, x_d), 1)]);
        assert_eq!(w.violates(1_000_000_000), Some(true));
    }

    /// 200 resident classes of one `(r, L)` with `d` = 200 … 399 µs, and
    /// a candidate 100 times longer whose `d` puts the full set at exactly
    /// F = 0 and every smaller set below: nothing is pruned, and a search
    /// over class subsets bounded by 2²¹ nodes does not settle it.
    #[test]
    fn two_hundred_surviving_classes_get_a_decided_verdict() {
        let (us, ps) = (Duration::from_us, Duration::from_ps);
        let mut ac = Ac3Fast::new(1_000_000_000);
        for i in 0..200 {
            ac.try_admit(1_000, 1_000, us(200 + i)).unwrap();
        }
        let Err(Ac3FastError::Infeasible(w)) = ac.try_admit(1_000, 100_000, us(400) - ps(1)) else {
            panic!("one picosecond less must violate at the full set");
        };
        assert_eq!(w.num_sessions(), 201);
        assert_eq!(w.violates(1_000_000_000), Some(true));
        assert!(ac.try_admit(1_000, 100_000, us(400)).is_ok());
    }

    /// `F` of the candidate `c` plus the classes `pick` selects, exact.
    fn f_of(link: u64, c: Agg, aggs: &[Agg], pick: impl Fn(usize) -> bool) -> i128 {
        let picked = aggs.iter().enumerate().filter(|(i, _)| pick(*i));
        let (l, r, w) = picked.fold((c.tot_l, c.tot_r, c.tot_w), |(l, r, w), (_, a)| {
            (l + a.tot_l, r + a.tot_r, w + a.tot_w)
        });
        (l * r * PS) as i128 - (link as u128 * w) as i128
    }

    /// The cut over every class against a brute force over class subsets:
    /// same verdict, and a witness that attains the maximum of `F`; the
    /// whole pipeline gives the same verdict. Ranges keep `PS·TL·TR` and
    /// `C·TW` below 2¹¹⁶.
    #[test]
    fn cut_matches_brute_force_over_class_subsets() {
        lit_prop::check("ac3_cut_vs_brute_force", |g| {
            let link = g.range(1_000, 1 << 33);
            // (l, r, count, collinear): collinear classes are multiples
            // of one base point and share its d, so (l, r, r·d) align.
            let base = (g.range(1, 1 << 16), g.range(1, 1 << 20));
            let shapes: Vec<_> = (0..g.size(1, 16))
                .map(|_| {
                    let (k, n) = (g.range(1, 16), g.range(1, 51));
                    match g.weighted(&[2, 1]) {
                        0 => (g.range(1, 1 << 20), g.range(1, link + 1), n, false),
                        _ => (base.0 * k, base.1 * k, n, true),
                    }
                })
                .collect();
            // d near the singleton floor L/C or the full-set PS·TL/C.
            let tl: u64 = shapes.iter().map(|s| s.0 * s.2).sum();
            let threshold = (PS * tl as u128 / link as u128) as u64;
            let mut draw_d = |l: u64| {
                let floor = (PS * l as u128 / link as u128) as u64;
                Duration::from_ps(match g.weighted(&[2, 2, 1]) {
                    0 => floor - 2 + g.range(0, 5),
                    1 => threshold - 4 + g.range(0, 9),
                    _ => g.range(floor, floor.max(2 * threshold) + 2),
                })
            };
            let (base_d, mut keys) = (draw_d(base.0), Vec::new());
            for &(l, r, n, collinear) in &shapes {
                let d = if collinear { base_d } else { draw_d(l) };
                keys.push((key(r, l as u32, d), n));
            }
            // The first key is the candidate; the rest are residents.
            let (cand, mut ac) = (keys[0].0, Ac3Fast::new(link));
            for &(k, n) in &keys[1..] {
                *ac.classes.entry(k).or_insert(0) += n;
            }
            let aggs: Vec<_> = ac
                .classes
                .iter()
                .flat_map(|(&k, &n)| Agg::new(k, n))
                .collect();
            let c = Agg::new(cand, 1).unwrap();
            let subsets =
                (0..1u32 << aggs.len()).map(|m| f_of(link, c, &aggs, |i| m >> i & 1 == 1));
            let best = subsets.max().unwrap();

            let cut = ac.cut_reject((c.tot_l, c.tot_r, c.tot_w), &aggs);
            assert_eq!(cut.is_some(), best > 0, "cut verdict at max F = {best}");
            if let Some(inset) = cut {
                let member = |i: usize| inset[i];
                assert_eq!(f_of(link, c, &aggs, member), best, "no maximizer");
                assert_eq!(witness(cand, &aggs, member).violates(link), Some(true));
            }
            match ac.check_feasible(cand) {
                Ok(()) => assert!(best <= 0, "admitted at max F = {best}"),
                Err(Ac3FastError::Infeasible(w)) if best > 0 => assert!(w.violates(link).unwrap()),
                Err(e) => panic!("rejected at max F = {best}: {e:?}"),
            }
        });
    }
}
