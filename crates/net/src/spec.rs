//! Session and link parameterization shared by every discipline.

use crate::packet::SessionId;
use lit_sim::{Duration, PS_PER_SEC};

/// Parameters of a node's outgoing link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkParams {
    /// Link capacity `Cₙ` in bits per second.
    pub rate_bps: u64,
    /// Propagation delay `Γₙ` of the outgoing link.
    pub propagation: Duration,
    /// The largest packet length allowed anywhere in the network,
    /// `L_MAX`, in bits. Enters the holding-time computation (eq. 9) and
    /// every bound.
    pub lmax_bits: u32,
}

impl LinkParams {
    /// The paper's link: T1 capacity (1536 kbit/s), 1 ms propagation
    /// (≈ 200 km of fiber), 424-bit maximum packet.
    pub fn paper_t1() -> Self {
        LinkParams {
            rate_bps: 1_536_000,
            propagation: Duration::from_ms(1),
            lmax_bits: 424,
        }
    }

    /// Transmission time of an `len_bits`-bit packet on this link.
    pub fn tx_time(&self, len_bits: u32) -> Duration {
        Duration::from_bits_at_rate(len_bits as u64, self.rate_bps)
    }

    /// `L_MAX / Cₙ` — the worst-case transmission time on this link.
    pub fn lmax_time(&self) -> Duration {
        self.tx_time(self.lmax_bits)
    }
}

/// How the per-hop delay increment `d_{i,s}` is assigned for a session at
/// a node (the paper's "second generalization", eq. 4–5 and §2 "The
/// Admission Control Procedures").
///
/// The admission control procedures in `lit-core` produce values of this
/// type; the enum itself lives here so that the network substrate stays
/// independent of any particular discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayAssignment {
    /// `d_{i,s} = L_{i,s} / r_s` — the VirtualClock special case
    /// (admission control procedure 1 with one class and ε = 0).
    LenOverRate,
    /// `d_{i,s} = L_{i,s} · num/den + base` with `num/den` in seconds per
    /// bit — rules (1.3) and (2.3), where `num = R` and `den = r·C`.
    Linear {
        /// Numerator of the per-bit slope (a bandwidth, bit/s).
        num: u64,
        /// Denominator of the per-bit slope (a product of bandwidths,
        /// bit²/s²).
        den: u128,
        /// Constant offset (`σ` of the class, plus any ε).
        base: Duration,
    },
    /// `d_{i,s} = d` — a packet-length-independent constant (rules (1.3a),
    /// (2.3a), and admission control procedure 3).
    Fixed(Duration),
}

impl DelayAssignment {
    /// The delay increment for a packet of `len_bits` belonging to a
    /// session with reserved rate `rate_bps`.
    pub fn d_for(&self, len_bits: u32, rate_bps: u64) -> Duration {
        self.coeffs(rate_bps).d_for(len_bits)
    }

    /// `d_max,s` — the supremum of `d_{i,s}` over all packets of a session
    /// with maximum length `max_len_bits` (all three forms are monotone in
    /// the packet length).
    pub fn d_max(&self, max_len_bits: u32, rate_bps: u64) -> Duration {
        self.d_for(max_len_bits, rate_bps)
    }

    /// Lower this assignment to branch-free fixed-point coefficients for a
    /// session with reserved rate `rate_bps`: the one arithmetic of eq. 10's
    /// `d`, which [`DelayAssignment::d_for`] evaluates too.
    pub fn coeffs(&self, rate_bps: u64) -> DelayCoeffs {
        match *self {
            DelayAssignment::LenOverRate => DelayCoeffs {
                num_ps: PS_PER_SEC as u128,
                den: rate_bps as u128,
                base: Duration::ZERO,
            },
            DelayAssignment::Linear { num, den, base } => DelayCoeffs {
                num_ps: num as u128 * PS_PER_SEC as u128,
                den,
                base,
            },
            DelayAssignment::Fixed(d) => DelayCoeffs {
                num_ps: 0,
                den: 1,
                base: d,
            },
        }
    }
}

/// A [`DelayAssignment`] lowered to uniform fixed-point coefficients:
/// every form becomes
///
/// ```text
/// d(len) = (len · num_ps + den/2) / den ps + base
/// ```
///
/// computed exactly in `u128`. A scheduler stores the triple in its
/// per-session row and evaluates eq. 10 with no per-packet enum dispatch;
/// the half-denominator rounding is `Duration::from_bits_at_rate`'s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelayCoeffs {
    /// Per-bit slope numerator, pre-multiplied into picoseconds.
    pub num_ps: u128,
    /// Per-bit slope denominator (never zero for a valid session).
    pub den: u128,
    /// Constant offset.
    pub base: Duration,
}

impl DelayCoeffs {
    /// The delay increment `d_i` for a `len_bits`-bit packet (eq. 10).
    ///
    /// # Panics
    /// Panics if the increment overflows `u64` picoseconds or `den` is
    /// zero — the same loud failures as the `DelayAssignment` path.
    #[inline]
    pub fn d_for(&self, len_bits: u32) -> Duration {
        let ps = (len_bits as u128 * self.num_ps + self.den / 2) / self.den;
        Duration::try_from(ps).expect("delay increment fits u64 ps") + self.base
    }
}

/// Everything a node needs to know about a session at connection
/// establishment.
#[derive(Clone, Copy, Debug)]
pub struct SessionSpec {
    /// Dense session identifier.
    pub id: SessionId,
    /// Reserved rate `r_s` in bits per second.
    pub rate_bps: u64,
    /// Maximum packet length `L_max,s` in bits.
    pub max_len_bits: u32,
    /// Minimum packet length `L_min,s` in bits (enters the per-node jitter
    /// contribution `δⁿ_max,s`).
    pub min_len_bits: u32,
    /// Whether the session requests delay-jitter control (a delay
    /// regulator at every hop past the first).
    pub jitter_control: bool,
    /// Default per-hop delay assignment (may be overridden hop by hop when
    /// building the network).
    pub delay: DelayAssignment,
}

impl SessionSpec {
    /// A spec with the paper's fixed 424-bit packets and
    /// `d = L/r` (VirtualClock mode), no jitter control.
    pub fn atm(id: SessionId, rate_bps: u64) -> Self {
        SessionSpec {
            id,
            rate_bps,
            max_len_bits: 424,
            min_len_bits: 424,
            jitter_control: false,
            delay: DelayAssignment::LenOverRate,
        }
    }

    /// Builder-style: enable delay-jitter control.
    pub fn with_jitter_control(mut self) -> Self {
        self.jitter_control = true;
        self
    }

    /// Builder-style: set the delay assignment.
    pub fn with_delay(mut self, delay: DelayAssignment) -> Self {
        self.delay = delay;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_link_times() {
        let l = LinkParams::paper_t1();
        // 424 bits / 1536 kbit/s ≈ 276.042 us.
        assert_eq!(l.lmax_time().as_ps(), 276_041_667);
        assert_eq!(l.tx_time(424), l.lmax_time());
    }

    #[test]
    fn tx_time_scales_with_length() {
        let l = LinkParams::paper_t1();
        assert_eq!(l.tx_time(848), Duration::from_bits_at_rate(848, 1_536_000));
        assert_eq!(l.tx_time(0), Duration::ZERO);
    }

    #[test]
    fn len_over_rate() {
        let d = DelayAssignment::LenOverRate.d_for(424, 32_000);
        assert_eq!(d, Duration::from_us(13_250));
    }

    #[test]
    fn linear_matches_ac1_worked_example() {
        // Paper §2: C = 100 Mbit/s, r = 100 kbit/s, L = 400 bits,
        // class 1 with R1 = 10 Mbit/s, σ0 = 0 ⇒ d = L·R1/(r·C) = 0.4 ms.
        let da = DelayAssignment::Linear {
            num: 10_000_000,
            den: 100_000u128 * 100_000_000u128,
            base: Duration::ZERO,
        };
        assert_eq!(da.d_for(400, 100_000), Duration::from_us(400));
    }

    #[test]
    fn linear_with_base() {
        // Class 2 of the same example: R2 = 40 Mbit/s, σ1 = 0.2 ms
        // ⇒ d = 400·40M/(100k·100M) + 0.2 ms = 1.6 ms + 0.2 ms = 1.8 ms.
        let da = DelayAssignment::Linear {
            num: 40_000_000,
            den: 100_000u128 * 100_000_000u128,
            base: Duration::from_us(200),
        };
        assert_eq!(da.d_for(400, 100_000), Duration::from_us(1_800));
    }

    #[test]
    fn fixed_ignores_length() {
        let da = DelayAssignment::Fixed(Duration::from_ms(5));
        assert_eq!(da.d_for(1, 1), Duration::from_ms(5));
        assert_eq!(da.d_max(1_000_000, 1), Duration::from_ms(5));
    }

    #[test]
    fn d_max_uses_max_len() {
        let da = DelayAssignment::LenOverRate;
        assert_eq!(da.d_max(848, 32_000), Duration::from_us(26_500));
    }

    #[test]
    fn coeffs_match_independent_references() {
        // The paper's §2 worked example: C = 100 Mbit/s, r = 100 kbit/s,
        // class slopes R1 = 10 and R2 = 40 Mbit/s, σ1 = 0.2 ms.
        let den = 100_000u128 * 100_000_000u128;
        let ac1 = DelayAssignment::Linear {
            num: 10_000_000,
            den,
            base: Duration::ZERO,
        };
        let ac2 = DelayAssignment::Linear {
            num: 40_000_000,
            den,
            base: Duration::from_us(200),
        };
        let fixed = DelayAssignment::Fixed(Duration::from_ms(5));
        for rate in [32_000, 100_000, 1_536_000, 10_000_000_000] {
            for len in [0u32, 1, 53, 400, 424, 848, 65_535, 1 << 24] {
                let at = |da: DelayAssignment| da.coeffs(rate).d_for(len);
                let l = u64::from(len);
                let lor = Duration::from_bits_at_rate(l, rate);
                assert_eq!(at(DelayAssignment::LenOverRate), lor, "L/r {rate} {len}");
                // d = L·R/(r·C): L/(r·C/R) at the worked example's r·C/R,
                // which is a whole rate only because the slopes divide r·C.
                let slope1 = Duration::from_bits_at_rate(l, 1_000_000);
                let slope2 = Duration::from_bits_at_rate(l, 250_000);
                assert_eq!(at(ac1), slope1, "AC1 {rate} {len}");
                assert_eq!(at(ac2), slope2 + Duration::from_us(200), "AC2 {rate} {len}");
                assert_eq!(at(fixed), Duration::from_ms(5), "fixed {rate} {len}");
            }
        }
        // The worked example's own numbers: 0.4 ms and 1.8 ms at L = 400.
        assert_eq!(ac1.coeffs(100_000).d_for(400), Duration::from_us(400));
        assert_eq!(ac2.coeffs(100_000).d_for(400), Duration::from_us(1_800));
    }

    #[test]
    fn spec_builders() {
        let s = SessionSpec::atm(SessionId(0), 32_000)
            .with_jitter_control()
            .with_delay(DelayAssignment::Fixed(Duration::from_ms(2)));
        assert!(s.jitter_control);
        assert_eq!(s.delay, DelayAssignment::Fixed(Duration::from_ms(2)));
    }
}
