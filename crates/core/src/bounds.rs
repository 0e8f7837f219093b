//! The analytic service commitments (paper §2, "Service Commitments
//! Provided by Leave-in-Time").
//!
//! Everything is a function of the session's **own** parameters — its
//! reserved rate, packet-length range, per-hop delay assignments — and of
//! static link parameters. No other session appears anywhere: this is the
//! paper's performance-isolation ("firewall") property made executable.
//!
//! Implemented bounds, for a session crossing hops `1..N`:
//!
//! * end-to-end delay (ineq. 12):
//!   `D^{1,N}_max < D^ref_max + β^{1,N} + α^N`, with
//!   `β = Σₙ(L_MAX/Cₙ + Γₙ) + Σ_{n<N} dⁿ_max` (eq. 13) and
//!   `α^N = max_i{d^N_i − L_i/r}`;
//! * token-bucket specialization (ineq. 14–15): `D^ref_max = b₀/r`
//!   (equals the PGPS/WFQ bound when `d = L/r`);
//! * delay distribution (ineq. 16): `P(D > d) ≤ P(D^ref > d − β − α)`;
//! * delay jitter (ineq. 17 and its no-jitter-control sibling);
//! * per-node buffer space (the two unnumbered inequalities).

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::float_arithmetic
)]

use lit_net::{DelayAssignment, LinkParams, Network, SessionId};
use lit_sim::Duration;

/// One hop as seen by the bound calculator: the node's outgoing link and
/// the session's delay assignment at that node.
#[derive(Clone, Copy, Debug)]
pub struct HopSpec {
    /// Outgoing link of the node (`Cₙ`, `Γₙ`, `L_MAX`).
    pub link: LinkParams,
    /// The session's `d`-assignment at this node.
    pub assignment: DelayAssignment,
}

/// Bound calculator for one session over one path.
///
/// ```
/// use lit_core::{HopSpec, PathBounds};
/// use lit_net::{DelayAssignment, LinkParams};
///
/// // The paper's five-hop voice session: 32 kbit/s, 424-bit cells,
/// // d = L/r at every hop (admission procedure 1, one class).
/// let hop = HopSpec {
///     link: LinkParams::paper_t1(),
///     assignment: DelayAssignment::LenOverRate,
/// };
/// let pb = PathBounds::new(32_000, 424, 424, vec![hop; 5]);
///
/// // Ineq. (15) for a one-cell token bucket: the paper's 72.63 ms.
/// let bound = pb.delay_bound_token_bucket(424);
/// assert!((bound.as_millis_f64() - 72.63).abs() < 0.01);
/// ```
#[derive(Clone, Debug)]
pub struct PathBounds {
    rate_bps: u64,
    max_len_bits: u32,
    min_len_bits: u32,
    hops: Vec<HopSpec>,
}

impl PathBounds {
    /// Build from explicit parameters.
    ///
    /// # Panics
    /// Panics on an empty path, a zero rate, or `min_len > max_len`.
    pub fn new(rate_bps: u64, max_len_bits: u32, min_len_bits: u32, hops: Vec<HopSpec>) -> Self {
        assert!(!hops.is_empty(), "PathBounds: empty path");
        assert!(rate_bps > 0, "PathBounds: zero rate");
        assert!(
            min_len_bits <= max_len_bits,
            "PathBounds: len range inverted"
        );
        PathBounds {
            rate_bps,
            max_len_bits,
            min_len_bits,
            hops,
        }
    }

    /// Build for a session as registered in a [`Network`] — the exact
    /// per-hop assignments and links the scheduler is using.
    pub fn for_session(net: &Network, id: SessionId) -> Self {
        let spec = net.session_spec(id);
        let hops = net
            .session_hops(id)
            .map(|(n, assignment)| HopSpec {
                link: *net.node_link(lit_net::NodeId(n)),
                assignment,
            })
            .collect();
        PathBounds::new(spec.rate_bps, spec.max_len_bits, spec.min_len_bits, hops)
    }

    /// Number of hops `N`.
    pub fn hops(&self) -> usize {
        self.hops.len()
    }

    /// `dⁿ_max` for hop `n` (0-based).
    pub fn d_max(&self, n: usize) -> Duration {
        self.hops[n]
            .assignment
            .d_max(self.max_len_bits, self.rate_bps)
    }

    /// `β^{1,N}` (eq. 13): fixed per-hop overheads plus the delay
    /// increments of all hops but the last.
    pub fn beta(&self) -> Duration {
        let mut beta = Duration::ZERO;
        for h in &self.hops {
            beta += h.link.lmax_time() + h.link.propagation;
        }
        for n in 0..self.hops.len() - 1 {
            beta += self.d_max(n);
        }
        beta
    }

    /// `α^N = max_i { d^N_i − L_i/r }` in signed picoseconds. All three
    /// assignment forms are affine in the packet length, so the maximum is
    /// attained at one of the two length extremes. May be negative (e.g.
    /// `d` fixed below `L_min/r`); the bounds use it signed.
    pub fn alpha_ps(&self) -> i128 {
        let last = &self.hops[self.hops.len() - 1];
        let eval = |len: u32| -> i128 {
            let d = last.assignment.d_for(len, self.rate_bps);
            let lr = Duration::from_bits_at_rate(len as u64, self.rate_bps);
            d.signed_sub(lr)
        };
        eval(self.min_len_bits).max(eval(self.max_len_bits))
    }

    /// `β + α` in signed picoseconds — the shift of ineq. 16 and the
    /// "+ constants" of ineq. 12.
    pub fn shift_ps(&self) -> i128 {
        i128::from(self.beta()) + self.alpha_ps()
    }

    /// `δⁿ_max = L_MAX/Cₙ + dⁿ_max − L_min,s/Cₙ` — hop `n`'s jitter
    /// contribution (0-based).
    pub fn delta_max(&self, n: usize) -> Duration {
        let link = &self.hops[n].link;
        let lmin = Duration::from_bits_at_rate(self.min_len_bits as u64, link.rate_bps);
        link.lmax_time() + self.d_max(n) - lmin
    }

    /// `Δ^{1,n} = Σ_{m=1..n} δᵐ_max` over the first `n` hops (0 ⇒ zero).
    pub fn delta_sum(&self, n: usize) -> Duration {
        (0..n).map(|m| self.delta_max(m)).sum()
    }

    /// Upper bound on end-to-end delay (ineq. 12), given the session's
    /// reference-server delay bound `D^ref_max`.
    pub fn delay_bound(&self, dref_max: Duration) -> Duration {
        Duration::from_signed_clamped(i128::from(dref_max) + self.shift_ps())
    }

    /// Ineq. (15): the delay bound for a session conforming to a token
    /// bucket `(r_s, b₀)`, using `D^ref_max = b₀/r` (eq. 14). With
    /// `d = L/r` at every hop this is exactly the PGPS bound.
    pub fn delay_bound_token_bucket(&self, b0_bits: u64) -> Duration {
        self.delay_bound(Duration::from_bits_at_rate(b0_bits, self.rate_bps))
    }

    /// Upper bound on end-to-end delay **jitter** (max − min delay over
    /// packets). `jitter_control` selects between the paper's two forms:
    /// without control the per-hop contributions accumulate
    /// (`Δ^{1,N} − d^N_max`), with control only the last hop contributes
    /// (`δ^N_max − d^N_max`, ineq. 17).
    pub fn jitter_bound(&self, dref_max: Duration, jitter_control: bool) -> Duration {
        let spread_ps = self.oracle_bounds(jitter_control).jitter_spread_ps;
        Duration::from_signed_clamped(i128::from(dref_max) + spread_ps)
    }

    /// Upper bound on the buffer space (bits) the session can occupy at
    /// hop `n` (0-based), per the paper's two unnumbered inequalities:
    ///
    /// * without jitter control: `r·(D^ref_max + Δ^{1,n−1} + L_MAX/Cₙ + dⁿ_max)`;
    /// * with jitter control: `r·(D^ref_max + δ^{n−1}_max + L_MAX/Cₙ + dⁿ_max)`,
    ///
    /// with `δ⁰ = Δ^{1,0} = 0`. Rounded **up** to stay a valid bound.
    pub fn buffer_bound_bits(&self, dref_max: Duration, n: usize, jitter_control: bool) -> u64 {
        let upstream = if n == 0 {
            Duration::ZERO
        } else if jitter_control {
            self.delta_max(n - 1)
        } else {
            self.delta_sum(n)
        };
        let window = dref_max + upstream + self.hops[n].link.lmax_time() + self.d_max(n);
        // ceil(window · r) bits.
        window.bits_at_rate_ceil(self.rate_bps)
    }

    /// Upper bound on the buffer-space *distribution* at hop `n`:
    /// `P(Qⁿ > q) ≤ P(D^ref > q/r − (upstream + L_MAX/Cₙ + dⁿ_max))`.
    ///
    /// The paper states the max-buffer bounds and defers the
    /// distributional version to the first author's dissertation; this is
    /// the reconstruction by the same argument as ineq. (16): the
    /// worst-case window of the session's bits present at node `n` is its
    /// reference-server delay plus the fixed per-hop constants, so
    /// shifting the reference delay CCDF (expressed in bits at rate `r`)
    /// bounds the occupancy CCDF. Validated empirically by the test
    /// suite on shaped arbitrary traffic.
    pub fn buffer_ccdf_bound<F: Fn(Duration) -> f64>(
        &self,
        ref_ccdf: F,
        n: usize,
        jitter_control: bool,
        q_bits: u64,
    ) -> f64 {
        let upstream = if n == 0 {
            Duration::ZERO
        } else if jitter_control {
            self.delta_max(n - 1)
        } else {
            self.delta_sum(n)
        };
        let fixed = upstream + self.hops[n].link.lmax_time() + self.d_max(n);
        // q bits at rate r take q/r seconds to accumulate.
        let q_time = Duration::from_bits_at_rate(q_bits, self.rate_bps);
        match q_time.checked_sub(fixed) {
            Some(arg) => ref_ccdf(arg),
            None => 1.0,
        }
    }

    /// The constants the online conformance oracle checks this session
    /// against: the pathwise/CCDF shift `β + α` and the jitter spread
    /// (the session's jitter bound minus `D^ref_max`, so the oracle can
    /// compare against the *empirical* reference maximum — both bound
    /// forms are pathwise in `D^ref_i`, so the substitution stays a
    /// theorem).
    pub fn oracle_bounds(&self, jitter_control: bool) -> lit_net::SessionBounds {
        let n = self.hops.len();
        let upstream = if jitter_control {
            self.delta_max(n - 1)
        } else {
            self.delta_sum(n)
        };
        let spread_ps = upstream.signed_sub(self.d_max(n - 1));
        lit_net::SessionBounds {
            shift_ps: self.shift_ps(),
            jitter_spread_ps: spread_ps + self.alpha_ps(),
        }
    }

    /// Ineq. (16): upper bound on `P(D^{1,N} > d)` given the CCDF of the
    /// session's delay in its reference server — shift that CCDF right by
    /// `β + α`.
    ///
    /// `ref_ccdf` may be analytic (e.g. `lit_analysis::Md1::sojourn_ccdf`)
    /// or empirical (a measured reference-server histogram — the paper's
    /// "simulated upper bound").
    pub fn delay_ccdf_bound<F: Fn(Duration) -> f64>(&self, ref_ccdf: F, d: Duration) -> f64 {
        let arg_ps = i128::from(d) - self.shift_ps();
        if arg_ps < 0 {
            // The shift exceeds d: the reference CCDF is evaluated on a
            // negative delay, where P(D^ref > x) = 1.
            1.0
        } else {
            ref_ccdf(Duration::from_signed_clamped(arg_ps))
        }
    }
}

/// The Stop-and-Go comparison of paper §4: for a `(r, T)`-smooth session,
/// Stop-and-Go's end-to-end delay is `αHT ± T` with `α ∈ [1, 2)` while the
/// per-link increase of the Leave-in-Time bound is `L_MAX/C + d_max`.
/// Returns `(sng_low, sng_high, lit_bound)` end-to-end bounds over `hops`
/// identical links, reproducing the paper's worked example.
pub fn stop_and_go_comparison(
    frame: Duration,
    hops: usize,
    link: &LinkParams,
    rate_bps: u64,
    d_max: Duration,
) -> (Duration, Duration, Duration) {
    // Stop-and-Go: delay ∈ [αHT − T, αHT + T] with α < 2; take the
    // extremes α = 1 and α → 2.
    let h = hops as u64;
    let sng_low = frame * h - frame;
    let sng_high = frame * (2 * h) + frame;
    // Leave-in-Time (ineq. 15, no propagation as in the paper's footnote):
    // D^ref_max = T (bucket (r, rT)) and per link L_MAX/C + d_max.
    let dref = frame;
    let per_link = link.lmax_time() + d_max;
    let mut lit = dref;
    for _ in 0..hops {
        lit += per_link;
    }
    // The last hop's d_max is not part of β, but α^N = d_max − L/r adds it
    // back for the fixed-d session of the example; keep the simple form.
    let _ = rate_bps;
    (sng_low, sng_high, lit)
}

/// Compute and install the conformance-oracle bound constants for every
/// session of `net`, from the exact per-hop assignments the scheduler is
/// using. Call once after `NetworkBuilder::build` on a network whose
/// oracle is enabled (no-op otherwise). Only meaningful under
/// [`crate::LitDiscipline`] (or VirtualClock, which it subsumes).
pub fn install_oracle_bounds(net: &mut Network) {
    for i in 0..net.num_sessions() {
        let id = SessionId(u32::try_from(i).expect("session ids are dense u32s"));
        let jc = net.session_spec(id).jitter_control;
        let bounds = PathBounds::for_session(net, id).oracle_bounds(jc);
        net.set_session_bounds(id, bounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's five-hop T1 path with `d = L/r` for a 32 kbit/s ATM
    /// session (Fig. 7–8 configuration under AC1/one class).
    fn paper_path(jc: bool) -> PathBounds {
        let _ = jc;
        let hop = HopSpec {
            link: LinkParams::paper_t1(),
            assignment: DelayAssignment::LenOverRate,
        };
        PathBounds::new(32_000, 424, 424, vec![hop; 5])
    }

    #[test]
    fn beta_matches_hand_computation() {
        // β = 5·(L_MAX/C + Γ) + 4·d_max
        //   = 5·(0.276042 ms + 1 ms) + 4·13.25 ms = 59.380208 ms.
        let b = paper_path(false).beta();
        let want = (LinkParams::paper_t1().lmax_time() + Duration::from_ms(1)) * 5
            + Duration::from_us(13_250) * 4;
        assert_eq!(b, want);
        assert!((b.as_millis_f64() - 59.38).abs() < 0.01);
    }

    #[test]
    fn alpha_zero_for_len_over_rate() {
        assert_eq!(paper_path(false).alpha_ps(), 0);
    }

    #[test]
    fn alpha_signed_for_fixed_d() {
        // Fixed d = 2 ms on the last hop, L/r = 13.25 ms ⇒ α = −11.25 ms.
        let mut hops = vec![
            HopSpec {
                link: LinkParams::paper_t1(),
                assignment: DelayAssignment::LenOverRate,
            };
            5
        ];
        hops[4].assignment = DelayAssignment::Fixed(Duration::from_ms(2));
        let pb = PathBounds::new(32_000, 424, 424, hops);
        assert_eq!(pb.alpha_ps(), -i128::from(Duration::from_us(11_250)));
    }

    #[test]
    fn alpha_uses_length_extremes() {
        // Fixed d with variable lengths: max of d − L/r is at L_min.
        let hop = HopSpec {
            link: LinkParams::paper_t1(),
            assignment: DelayAssignment::Fixed(Duration::from_ms(20)),
        };
        let pb = PathBounds::new(32_000, 848, 424, vec![hop]);
        // α = 20 ms − 424/32000 = 6.75 ms (at L_min).
        assert_eq!(pb.alpha_ps(), i128::from(Duration::from_us(6_750)));
    }

    #[test]
    fn token_bucket_delay_bound_fig7_value() {
        // D < b0/r + β + α = 13.25 + 59.38 + 0 = 72.63 ms for a
        // (32 kbit/s, 424 bit) session on the paper's 5-hop path.
        let pb = paper_path(false);
        let bound = pb.delay_bound_token_bucket(424);
        assert!((bound.as_millis_f64() - 72.63).abs() < 0.01, "{bound}");
    }

    #[test]
    fn jitter_bounds_match_fig8_values() {
        // Paper Fig. 8: upper bound 66.25 ms without jitter control,
        // 13.25 ms with jitter control (D^ref_max = 13.25 ms since the
        // ON-OFF source conforms to (32 kbit/s, 424 bit)).
        let pb = paper_path(false);
        let dref = Duration::from_us(13_250);
        let without = pb.jitter_bound(dref, false);
        let with = pb.jitter_bound(dref, true);
        assert!((without.as_millis_f64() - 66.25).abs() < 0.01, "{without}");
        assert!((with.as_millis_f64() - 13.25).abs() < 0.01, "{with}");
    }

    #[test]
    fn jitter_bound_with_jc_does_not_grow_with_hops() {
        let dref = Duration::from_us(13_250);
        let hop = HopSpec {
            link: LinkParams::paper_t1(),
            assignment: DelayAssignment::LenOverRate,
        };
        let j2 = PathBounds::new(32_000, 424, 424, vec![hop; 2]).jitter_bound(dref, true);
        let j5 = PathBounds::new(32_000, 424, 424, vec![hop; 5]).jitter_bound(dref, true);
        assert_eq!(j2, j5);
        // …while without control it grows linearly.
        let n2 = PathBounds::new(32_000, 424, 424, vec![hop; 2]).jitter_bound(dref, false);
        let n5 = PathBounds::new(32_000, 424, 424, vec![hop; 5]).jitter_bound(dref, false);
        assert!(n5 > n2);
    }

    #[test]
    fn buffer_bounds_first_node_same_with_or_without_jc() {
        // At n = 1 both forms have zero upstream term.
        let pb = paper_path(false);
        let dref = Duration::from_us(13_250);
        let a = pb.buffer_bound_bits(dref, 0, false);
        let b = pb.buffer_bound_bits(dref, 0, true);
        assert_eq!(a, b);
        // r·(13.25 + 0.276042 + 13.25) ms · 32 kbit/s ≈ 856.8 bits.
        assert!((856..=857).contains(&a), "{a}");
    }

    #[test]
    fn buffer_bounds_last_node_jc_much_smaller() {
        let pb = paper_path(false);
        let dref = Duration::from_us(13_250);
        let no_jc = pb.buffer_bound_bits(dref, 4, false);
        let jc = pb.buffer_bound_bits(dref, 4, true);
        assert!(no_jc > jc, "no_jc={no_jc} jc={jc}");
        // Hand values (δ = 13.25 ms exactly since L_min = L_MAX here):
        // without JC r·(13.25 + 4·13.25 + 0.276042 + 13.25) ms ≈ 2552.8
        // bits; with JC r·(13.25 + 13.25 + 0.276042 + 13.25) ms ≈ 1280.8.
        assert_eq!(no_jc, 2553);
        assert_eq!(jc, 1281);
    }

    #[test]
    fn ccdf_bound_shifts_reference() {
        let pb = paper_path(false);
        // A toy reference CCDF: exp(−t/10ms).
        let ref_ccdf = |t: Duration| (-t.as_millis_f64() / 10.0).exp();
        let shift = Duration::from_signed_clamped(pb.shift_ps());
        // Below the shift the bound is 1.
        assert_eq!(
            pb.delay_ccdf_bound(ref_ccdf, shift - Duration::from_ms(1)),
            1.0
        );
        // Above it, it equals the shifted reference.
        let d = shift + Duration::from_ms(10);
        let got = pb.delay_ccdf_bound(ref_ccdf, d);
        assert!((got - (-1.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn buffer_ccdf_bound_degenerates_to_max_bound() {
        // With a deterministic reference CCDF (step at D^ref_max), the
        // distributional bound reaches zero exactly past the max-buffer
        // bound.
        let pb = paper_path(false);
        let dref = Duration::from_us(13_250);
        let step = |t: Duration| if t > dref { 0.0 } else { 1.0 };
        let qmax = pb.buffer_bound_bits(dref, 4, false);
        // Just below the bound the probability is still 1, above it 0.
        assert_eq!(pb.buffer_ccdf_bound(step, 4, false, qmax - 424), 1.0);
        assert_eq!(pb.buffer_ccdf_bound(step, 4, false, qmax + 424), 0.0);
    }

    #[test]
    fn buffer_ccdf_bound_is_one_below_the_fixed_term() {
        let pb = paper_path(false);
        // Tiny q: the fixed per-hop constants alone exceed q/r.
        let any_ccdf = |_t: Duration| 0.123;
        assert_eq!(pb.buffer_ccdf_bound(any_ccdf, 2, false, 1), 1.0);
    }

    #[test]
    fn stop_and_go_example() {
        // Paper §4: 10 packets of 0.01·T·C per T, rate 0.1C. With
        // d = L/r = 0.1T: per-link LiT increase L_MAX/C + 0.1T versus
        // Stop-and-Go's αT ∈ [T, 2T). Take T = 10 ms, C = 1536 kbit/s,
        // H = 5: LiT bound ≈ T + 5·(0.276 ms + 1 ms + ...) — here just
        // check the comparison function orders the schemes as the paper
        // claims for a small L_MAX/C.
        let link = LinkParams::paper_t1();
        let t = Duration::from_ms(10);
        let d_max = Duration::from_ms(1); // 0.1·T
        let (lo, hi, lit) = stop_and_go_comparison(t, 5, &link, 153_600, d_max);
        assert_eq!(lo, Duration::from_ms(40));
        assert_eq!(hi, Duration::from_ms(110));
        // LiT: T + 5·(0.276042 + 1) ms ≈ 16.38 ms — well below S&G's low end.
        assert!(lit < lo, "lit={lit} sng_low={lo}");
    }

    #[test]
    #[should_panic(expected = "empty path")]
    fn empty_path_rejected() {
        let _ = PathBounds::new(32_000, 424, 424, vec![]);
    }
}
