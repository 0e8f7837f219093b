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
//!    s–t cut (Picard–Ratliff 1975). Since `q·x_i·x_j = q·x_i −
//!    q·x_i·(1 − x_j)` whichever way the arc `i → j` points, the nodes may
//!    come in any order: the cut value, the verdict and the source side
//!    (the minimal maximizer) are the same for all of them.
//!
//! The decision pipeline: the resident sessions are kept as a table of
//! `(r, L, d)` classes sorted by key, each with its totals cached (so
//! iteration — and therefore every witness — is deterministic, and no
//! decision re-aggregates); prune with (2), accept at once when every
//! survivor's `d` clears `PS·TL/C`, and otherwise answer with one
//! max-flow over the `m` surviving classes (`Scratch::cut_reject`), fed
//! in ascending order of `u_i`, which leaves the flow less to route:
//! exact and polynomial in `m`, with no budget and no fallback. A
//! rejection's witness is the minimal maximizer of `F`. The differential
//! suite (`crates/core/tests/diff_ac3.rs`) pins the pipeline to the
//! exhaustive oracle. Every buffer a decision uses lives in the
//! instance: an admitted request allocates nothing, a rejected one only
//! its witness.
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

/// Picoseconds per second, widened once for the cross-multiplied tests.
const PS: u128 = PS_PER_SEC as u128;

/// Sentinel for "no free slot" in the handle free list.
const NO_SLOT: u32 = u32::MAX;

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
        ineq19_violated(link_bps, sum_l, sum_r, sum_rd)
    }
}

/// Whether a set with totals `Σ L`, `Σ r`, `Σ r·d` breaks ineq. (19) on a
/// link of `link_bps`: `PS·Σ L·Σ r > C·Σ r·d`, cross-multiplied exactly;
/// `None` if a product overflows `u128`.
/// Paper: ineq. 19
fn ineq19_violated(link_bps: u64, sum_l: u128, sum_r: u128, sum_rd: u128) -> Option<bool> {
    let lhs = sum_l.checked_mul(sum_r)?.checked_mul(PS)?;
    let rhs = (link_bps as u128).checked_mul(sum_rd)?;
    Some(lhs > rhs)
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

/// One admitted parameter class: its key, its session count, the
/// per-member `r·d` product, and the class totals, kept current by
/// [`Ac3Fast::try_admit`] and [`Ac3Fast::release`].
#[derive(Clone, Copy, Debug)]
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
/// classes*, not the number of resident sessions. The classes are one
/// table sorted by key, with each class's totals cached:
/// [`Ac3Fast::release`] returns a session's reservation to the pool with
/// one binary search, plus an `O(#classes)` shift when its class empties.
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
    /// The admitted classes, sorted by key; none has `count == 0`.
    classes: Vec<Agg>,
    scratch: Scratch,
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
            classes: Vec::new(),
            scratch: Scratch::default(),
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
    /// Paper: ineq. 18
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
        match self.classes.binary_search_by_key(&key, |a| a.key) {
            Ok(i) => {
                if let Some(class) = self.classes.get_mut(i) {
                    let grown = class.count.checked_add(1).and_then(|n| Agg::new(key, n));
                    *class = grown.ok_or(Ac3FastError::Overflow)?;
                }
            }
            Err(i) => {
                let class = Agg::new(key, 1).ok_or(Ac3FastError::Overflow)?;
                self.classes.insert(i, class);
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
        // Unreachable `Err`: a live slot always has a class entry.
        let Ok(i) = self.classes.binary_search_by_key(&key, |a| a.key) else {
            return false;
        };
        match self.classes.get_mut(i) {
            Some(class) if class.count > 1 => {
                // A smaller count of a class that fit fits.
                if let Some(shrunk) = Agg::new(key, class.count - 1) {
                    *class = shrunk;
                }
            }
            _ => {
                self.classes.remove(i);
            }
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

    /// The full subset test for one candidate class key.
    fn check_feasible(&mut self, cand: ClassKey) -> Result<(), Ac3FastError> {
        let Ac3Fast {
            link_bps,
            classes,
            scratch,
            ..
        } = self;
        let violated = |l, r, w| ineq19_violated(*link_bps, l, r, w).ok_or(Ac3FastError::Overflow);
        let cl = cand.len_bits as u128;
        let cr = cand.rate_bps as u128;
        let cw = cand.d.picobits_at_rate(cand.rate_bps);

        // Singleton set {candidate}: d ≥ L/C.
        if violated(cl, cr, cw)? {
            return Err(Ac3FastError::Infeasible(witness(cand, classes, &[])));
        }
        if classes.is_empty() {
            return Ok(());
        }

        // The full-set totals, candidate included.
        let (mut tl, mut tr, mut tw) = (cl, cr, cw);
        for a in classes.iter() {
            tl = tl.checked_add(a.tot_l).ok_or(Ac3FastError::Overflow)?;
            tr = tr.checked_add(a.tot_r).ok_or(Ac3FastError::Overflow)?;
            tw = tw.checked_add(a.tot_w).ok_or(Ac3FastError::Overflow)?;
        }

        // Dominance pruning (module docs, fact 2): shrink from the full
        // set, dropping classes whose members would lower F at the
        // current totals; re-check the surviving set each round. The
        // first `violated` call also proves the full-set products fit
        // u128, which bounds every subset product below.
        let keep = &mut scratch.keep;
        keep.clear();
        keep.resize(classes.len(), true);
        loop {
            if violated(tl, tr, tw)? {
                return Err(Ac3FastError::Infeasible(witness(cand, classes, keep)));
            }
            let mut removed = false;
            for (a, flag) in classes.iter().zip(keep.iter_mut()) {
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
                let cost = (*link_bps as u128)
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
        let mut survivors = classes.iter().zip(keep.iter()).filter(|(_, &k)| k);
        let Some(min_d) = survivors.next().map(|(a, _)| a.key.d) else {
            return Ok(());
        };

        // Quick accept: if C·d_s ≥ PS·TL for every survivor and the
        // candidate, then for any subset A, C·Σr·d ≥ PS·TL·Σr ≥
        // PS·L_A·R_A — all subsets feasible. (Overflow here only skips
        // the shortcut.)
        if let Some(ps_tl) = tl.checked_mul(PS) {
            let min_d = survivors.fold(cand.d.min(min_d), |m, (a, _)| m.min(a.key.d));
            if min_d.picobits_at_rate(*link_bps) >= ps_tl {
                return Ok(());
            }
        }

        if scratch.cut_reject(*link_bps as u128, (cl, cr, cw), classes) {
            Err(Ac3FastError::Infeasible(witness(
                cand,
                classes,
                &scratch.keep,
            )))
        } else {
            Ok(())
        }
    }
}

/// The buffers one decision works in, kept by the instance so that a
/// decision allocates nothing once they have grown to the class count.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Per class, in key order: survived pruning so far; after a
    /// rejecting cut, belongs to the witness.
    keep: Vec<bool>,
    /// The survivors in the cut's node order, ascending in `u_i`:
    /// `(u_i ≥ 0, |u_i| if so else !|u_i|, class index)`, so that the
    /// derived order compares `u_i` exactly and breaks ties by key.
    order: Vec<(bool, u128, usize)>,
    flow: Dinic,
}

impl Scratch {
    /// Maximize `F` over unions of the classes `keep` marks, candidate
    /// `(cl, cr, cw)` pinned, as one minimum s–t cut (module docs, fact
    /// 3): `true` iff the maximum violates, and then `keep` marks the
    /// minimal maximizer. Node 0 is the source, the survivor of rank `k`
    /// in ascending `u_i` is node `k + 1`, and node `m + 1` the sink; arc
    /// `i → j` for `i < j` carries `q_ij`, and a cut with source side `A`
    /// costs `T + F0 − F(A)`. Every capacity and `T + PS·cl·cr` is a sum
    /// of distinct terms of the overflow-checked `PS·TL·TR`, or at most
    /// `C·TW`; each node pair has capacity one way only, so no residual
    /// exceeds it, and the flow never exceeds `T`: plain arithmetic.
    fn cut_reject(&mut self, link: u128, cand: (u128, u128, u128), classes: &[Agg]) -> bool {
        let (cl, cr, cw) = cand;
        self.order.clear();
        for ((i, a), _) in classes
            .iter()
            .enumerate()
            .zip(&self.keep)
            .filter(|(_, &k)| k)
        {
            let gain = PS * (cl * a.tot_r + a.tot_l * cr + a.tot_l * a.tot_r);
            let cost = link * a.tot_w;
            self.order.push(if gain >= cost {
                (true, gain - cost, i)
            } else {
                (false, !(cost - gain), i)
            });
        }
        self.order.sort_unstable();

        let n = self.order.len() + 2;
        let flow = &mut self.flow;
        flow.reset(n);
        // T + PS·cl·cr, so that need = T + F0 = this − C·cw is unsigned.
        let mut t_and_ps_clcr = PS * cl * cr;
        for (i, &(nonneg, u, ai)) in self.order.iter().enumerate() {
            let a = classes.get(ai);
            let mut q_sum = 0;
            for (j, &(_, _, bj)) in self.order.iter().enumerate().skip(i + 1) {
                let (Some(a), Some(b)) = (a, classes.get(bj)) else {
                    continue;
                };
                let q = PS * (a.tot_l * b.tot_r + b.tot_l * a.tot_r);
                flow.set(i + 1, j + 1, q);
                q_sum += q;
            }
            // −a_i = u_i + Σ_{j>i} q_ij = up − down: an arc from the
            // source if positive, else one to the sink.
            let (up, down) = if nonneg { (u + q_sum, 0) } else { (q_sum, !u) };
            if up > down {
                flow.set(0, i + 1, up - down);
                t_and_ps_clcr += up - down;
            } else {
                flow.set(i + 1, n - 1, down - up);
            }
        }
        // need ≤ 0: no cut costs less, so every subset is feasible.
        let Some(need) = t_and_ps_clcr.checked_sub(link * cw).filter(|&x| x > 0) else {
            return false;
        };
        if !flow.short_of(need) {
            return false;
        }
        self.keep.fill(false);
        for (k, &(_, _, i)) in self.order.iter().enumerate() {
            if let (true, Some(x)) = (has(&flow.seen, k + 1), self.keep.get_mut(i)) {
                *x = true;
            }
        }
        true
    }
}

/// Dinic's max-flow over a dense residual matrix whose rows also keep a
/// bitset of their nonzero arcs: level sets are ORs of those rows, and
/// the blocking-flow search picks its next arc by `trailing_zeros` of
/// `row ∧ next level ∧ not yet dead`.
#[derive(Clone, Debug, Default)]
struct Dinic {
    /// Nodes; 0 is the source, `n − 1` the sink.
    n: usize,
    /// 64-bit words per node set, `⌈n/64⌉`.
    words: usize,
    /// Residual capacities, row-major `n × n`.
    cap: Vec<u128>,
    /// Row `u` (`words` words): bit `v` set iff `cap[u][v] > 0`.
    adj: Vec<u64>,
    /// The current phase's level sets, `words` words each.
    layer: Vec<u64>,
    /// Nodes the last search reached from the source.
    seen: Vec<u64>,
    /// Nodes the current phase has not found dead.
    alive: Vec<u64>,
}

/// Whether node set `set` holds `v`.
fn has(set: &[u64], v: usize) -> bool {
    set.get(v / 64).is_some_and(|x| x >> (v % 64) & 1 == 1)
}

/// Set or clear bit `v` of a node set.
fn flip(set: &mut [u64], v: usize, on: bool) {
    if let Some(x) = set.get_mut(v / 64) {
        let bit = 1 << (v % 64);
        *x = if on { *x | bit } else { *x & !bit };
    }
}

impl Dinic {
    /// An `n`-node network with no arcs.
    fn reset(&mut self, n: usize) {
        self.n = n;
        self.words = n.div_ceil(64);
        for (v, len) in [
            (&mut self.adj, n * self.words),
            (&mut self.layer, n * self.words),
            (&mut self.seen, self.words),
            (&mut self.alive, self.words),
        ] {
            v.clear();
            v.resize(len, 0);
        }
        self.cap.clear();
        self.cap.resize(n * n, 0);
    }

    /// Give arc `u → v` capacity `c` (it has none yet).
    fn set(&mut self, u: usize, v: usize, c: u128) {
        if let (Some(x), true) = (self.cap.get_mut(u * self.n + v), c > 0) {
            *x = c;
            self.arc(u, v, true);
        }
    }

    /// Mark arc `u → v` as present in (`on`) or absent from row `u`.
    fn arc(&mut self, u: usize, v: usize, on: bool) {
        let w = self.words;
        if let Some(row) = self.adj.get_mut(u * w..(u + 1) * w) {
            flip(row, v, on);
        }
    }

    /// Push flow from the source until it reaches `need`: `false` if it
    /// does, `true` if the maximum flow falls short, and then `seen` is
    /// the source side of the minimum cut closest to the source.
    fn short_of(&mut self, need: u128) -> bool {
        let mut flow = 0;
        while self.levels() {
            self.alive.fill(u64::MAX);
            flow += self.push(0, 0, need - flow);
            if flow >= need {
                return false;
            }
        }
        true
    }

    /// Breadth-first level sets from the source into `layer`, stopping at
    /// the sink's level, whose set is the sink alone: `false` (with
    /// `seen` the residual reach of the source) if the sink is cut off.
    fn levels(&mut self) -> bool {
        let (w, sink) = (self.words, self.n - 1);
        self.seen.fill(0);
        flip(&mut self.seen, 0, true);
        self.layer.fill(0);
        flip(&mut self.layer, 0, true);
        for depth in 0..self.n {
            let (done, rest) = self.layer.split_at_mut((depth + 1) * w);
            let (Some(frontier), Some(next)) = (done.get(depth * w..), rest.get_mut(..w)) else {
                return false;
            };
            for (k, &word) in frontier.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let u = k * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let row = self.adj.get(u * w..(u + 1) * w).unwrap_or_default();
                    for (x, &a) in next.iter_mut().zip(row) {
                        *x |= a;
                    }
                }
            }
            let mut any = false;
            for (x, &s) in next.iter_mut().zip(&self.seen) {
                *x &= !s;
                any |= *x != 0;
            }
            if !any {
                return false;
            }
            if has(next, sink) {
                next.fill(0);
                flip(next, sink, true);
                return true;
            }
            for (s, &x) in self.seen.iter_mut().zip(next.iter()) {
                *s |= x;
            }
        }
        false
    }

    /// The lowest-numbered live node of level `depth + 1` that `u` has
    /// residual capacity to.
    fn next_arc(&self, u: usize, depth: usize) -> Option<usize> {
        let w = self.words;
        let row = self.adj.get(u * w..(u + 1) * w)?;
        let next = self.layer.get((depth + 1) * w..(depth + 2) * w)?;
        let words = row.iter().zip(next).zip(&self.alive);
        words.enumerate().find_map(|(k, ((&a, &l), &z))| {
            let x = a & l & z;
            (x != 0).then(|| k * 64 + x.trailing_zeros() as usize)
        })
    }

    /// Push up to `limit` from `u` (at level `depth`) to the sink along
    /// the level sets, as many paths as it takes; `u` is marked dead once
    /// it has no arc left. The amount pushed.
    fn push(&mut self, u: usize, depth: usize, limit: u128) -> u128 {
        let n = self.n;
        if u + 1 == n {
            return limit;
        }
        let mut pushed = 0;
        while pushed < limit {
            let Some(v) = self.next_arc(u, depth) else {
                flip(&mut self.alive, u, false);
                break;
            };
            let c = self.cap.get(u * n + v).copied().unwrap_or(0);
            let got = self.push(v, depth + 1, c.min(limit - pushed));
            if got == 0 {
                flip(&mut self.alive, v, false);
                continue;
            }
            if let Some(x) = self.cap.get_mut(u * n + v) {
                *x -= got;
                if *x == 0 {
                    self.arc(u, v, false);
                }
            }
            if let Some(x) = self.cap.get_mut(v * n + u) {
                *x += got;
            }
            self.arc(v, u, true);
            pushed += got;
        }
        pushed
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

/// Assemble a witness from the class table and per-class membership
/// flags (a class past the end of `member` is not in it), in one
/// exact-size allocation.
fn witness(cand: ClassKey, classes: &[Agg], member: &[bool]) -> Ac3Witness {
    let mut set = Vec::with_capacity(member.iter().filter(|&&m| m).count());
    let members = classes.iter().zip(member).filter(|(_, &m)| m);
    set.extend(members.map(|(a, _)| spec_of(a.key, a.count)));
    Ac3Witness {
        candidate: spec_of(cand, 1),
        classes: set,
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

    /// An instance holding `n` sessions of each `key` (merged), without
    /// admission: the tests below place classes the pipeline would refuse.
    fn holding(link: u64, keys: impl IntoIterator<Item = (ClassKey, u64)>) -> Ac3Fast {
        let mut merged = std::collections::BTreeMap::new();
        for (k, n) in keys {
            *merged.entry(k).or_insert(0) += n;
        }
        let mut ac = Ac3Fast::new(link);
        ac.classes = merged
            .into_iter()
            .flat_map(|(k, n)| Agg::new(k, n))
            .collect();
        ac
    }

    /// Run the cut over every class of `ac`: its membership flags when it
    /// rejects.
    fn cut_all(ac: &Ac3Fast, cand: Agg) -> Option<Vec<bool>> {
        let mut scratch = Scratch {
            keep: vec![true; ac.classes.len()],
            ..Scratch::default()
        };
        let link = ac.link_bps as u128;
        let cand = (cand.tot_l, cand.tot_r, cand.tot_w);
        scratch
            .cut_reject(link, cand, &ac.classes)
            .then_some(scratch.keep)
    }

    /// The cut over every class against a brute force over class subsets:
    /// same verdict, and a witness that is the minimal maximizer of `F`
    /// (the intersection of every subset attaining the maximum); the
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
            let (cand, mut ac) = (keys[0].0, holding(link, keys[1..].iter().copied()));
            let aggs = ac.classes.clone();
            let c = Agg::new(cand, 1).unwrap();
            let f: Vec<_> = (0..1u32 << aggs.len())
                .map(|m| f_of(link, c, &aggs, |i| m >> i & 1 == 1))
                .collect();
            let best = *f.iter().max().unwrap();
            let minimal = (0..f.len() as u32)
                .filter(|&m| f[m as usize] == best)
                .fold(u32::MAX, |x, m| x & m);

            let cut = cut_all(&ac, c);
            assert_eq!(cut.is_some(), best > 0, "cut verdict at max F = {best}");
            if let Some(inset) = cut {
                let member = |i: usize| inset[i];
                assert_eq!(f_of(link, c, &aggs, member), best, "no maximizer");
                let got = (0..aggs.len())
                    .filter(|&i| inset[i])
                    .fold(0, |x, i| x | 1 << i);
                assert_eq!(got, minimal, "not the minimal maximizer");
                assert_eq!(witness(cand, &aggs, &inset).violates(link), Some(true));
            }
            match ac.check_feasible(cand) {
                Ok(()) => assert!(best <= 0, "admitted at max F = {best}"),
                Err(Ac3FastError::Infeasible(w)) if best > 0 => assert!(w.violates(link).unwrap()),
                Err(e) => panic!("rejected at max F = {best}: {e:?}"),
            }
        });
    }

    /// Every class and the candidate share one `L/r` (here 0.1 s, so
    /// `L = ρ·R` for any set): then `F = PS·ρ·R² − C·W`, every maximizer
    /// takes each class of smaller `d` than one it holds (and every class
    /// of equal `d`), and the minimal maximizer is the shortest maximizing
    /// prefix in `d` order. The cut over 62, 63, 64, 65 and 130 classes
    /// (64 to 132 nodes: one, two and three mask words) and the whole
    /// pipeline, against that prefix scan.
    #[test]
    fn collinear_classes_cut_at_the_shortest_maximizing_prefix() {
        const LINK: u64 = 1_000_000_000;
        // The candidate: 1 000 bit/s and 100 bit; the classes are k times
        // that, k ∈ {1, 2, 3}, in groups of one to three sharing a d.
        let cr: u64 = 1_000;
        let mut rng = lit_sim::SimRng::seed_from(40);
        for m in [62, 63, 64, 65, 130] {
            let (mut rejects, mut accepts) = (0, 0);
            for trial in 0..8 {
                // Group g at total rate Y before it and r_g in it gets
                // d = 100·(2Y + r_g) + δ_g ps, which changes F by exactly
                // −C·r_g·δ_g: the prefixes' F are a random walk in the
                // δ's, and d rises from group to group. The last δ is not
                // positive, so pruning keeps every class.
                let (mut keys, mut y, mut walk, mut low) = (Vec::new(), cr, 0i128, 0i128);
                while keys.len() < m {
                    let size = (1 + rng.below(3) as usize).min(m - keys.len());
                    let first = rng.below(3);
                    let ks: Vec<u64> = (0..size as u64).map(|t| 1 + (first + t) % 3).collect();
                    let r_g: u64 = ks.iter().map(|k| k * cr).sum();
                    let mut delta = match rng.below(4) {
                        0 => 0,
                        _ => rng.below(100_001) as i64 - 50_000,
                    };
                    if keys.len() + size == m {
                        delta = -delta.abs();
                    }
                    let d = Duration::from_ps((100 * (2 * y + r_g) as i64 + delta) as u64);
                    keys.extend(ks.iter().map(|&k| (key(k * cr, 100 * k as u32, d), 1)));
                    y += r_g;
                    walk += r_g as i128 * delta as i128;
                    low = low.min(walk);
                }
                // With the candidate's d = L/C + ε, F(prefix) = −C·(cr·ε +
                // walk): the least ε that keeps every prefix at F ≤ 0
                // accepts (at F = 0 when cr divides the walk's low), one
                // ps less rejects.
                let eps = (-low as u64).div_ceil(cr).saturating_sub(trial % 2);
                let cand = key(cr, 100, Duration::from_ps(100 * cr + eps));
                let mut ac = holding(LINK, keys.iter().copied());
                assert_eq!(ac.num_classes(), m);

                // The prefix scan over groups of equal d.
                let c = Agg::new(cand, 1).unwrap();
                let mut by_d = ac.classes.clone();
                by_d.sort_by_key(|a| a.key.d);
                let (mut best, mut cut_d) = (f_of(LINK, c, &[], |_| true), None);
                for (i, a) in by_d.iter().enumerate() {
                    if by_d.get(i + 1).is_some_and(|b| b.key.d == a.key.d) {
                        continue;
                    }
                    let fp = f_of(LINK, c, &by_d[..=i], |_| true);
                    if fp > best {
                        (best, cut_d) = (fp, Some(a.key.d));
                    }
                }
                let expect: Vec<bool> = ac
                    .classes
                    .iter()
                    .map(|a| cut_d.is_some_and(|d| a.key.d <= d))
                    .collect();
                let full = f_of(LINK, c, &ac.classes, |_| true);

                let cut = cut_all(&ac, c);
                assert_eq!(
                    cut.is_some(),
                    best > 0,
                    "m = {m}: cut verdict at max F = {best}"
                );
                if let Some(inset) = &cut {
                    assert_eq!(
                        inset, &expect,
                        "m = {m}: not the shortest maximizing prefix"
                    );
                }
                match ac.check_feasible(cand) {
                    Ok(()) => {
                        assert!(best <= 0, "m = {m}: admitted at max F = {best}");
                        accepts += 1;
                    }
                    Err(Ac3FastError::Infeasible(w)) if best > 0 => {
                        assert_eq!(w.violates(LINK), Some(true));
                        // Unless the full set violates, the cut decided.
                        if full <= 0 {
                            assert_eq!(w, witness(cand, &ac.classes, &expect), "m = {m}");
                        }
                        rejects += 1;
                    }
                    Err(e) => panic!("m = {m}: rejected at max F = {best}: {e:?}"),
                }
            }
            assert!(
                rejects > 0 && accepts > 0,
                "m = {m}: {rejects} rejects, {accepts} accepts"
            );
        }
    }
}
