//! Admission control (paper §2, "The Admission Control Procedures").
//!
//! The per-hop delay increment `d_{i,s}` is a *service parameter*, not a
//! traffic descriptor; assigning it too aggressively saturates the
//! scheduler (packets miss `F + L_MAX/C`). The paper gives three
//! procedures that regulate how small `d` may be, enabling **delay
//! shifting** — lowering some sessions' delays at the expense of others:
//!
//! * [`ClassedAdmission`] with [`Procedure::Proc1`] — classes
//!   `(R_k, σ_k)`; tests (1.1)/(1.2); `d = L·R_j/(r·C) + σ_{j−1} + ε`.
//!   Exploits the full link bandwidth but couples `d` to `L/r`.
//! * [`ClassedAdmission`] with [`Procedure::Proc2`] — same classes; tests
//!   (1.1)/(2.2); `d = L·R_{j−1}/(r·C) + σ_j + ε`. Decouples class-1
//!   sessions from `L/r` (good for low-rate sessions) but requires a large
//!   `σ_P` to use all bandwidth.
//! * [`fast::Ac3Fast`] (procedure 3) — arbitrary constant `d_s` per
//!   session, guarded by the subset test (ineq. 19) over all non-empty
//!   `A ⊆ φ`; may strand bandwidth. Decided incrementally over
//!   `(r, L, d)` classes, with teardown.
//!
//! Class indices are **0-based** in this API; the paper's class `k`
//! is `classes[k-1]`.
//!
//! The paper's literal reading of ineq. (19) — enumerate all `2^{|φ|}`
//! subsets — is not part of this library: it lives in
//! `crates/core/tests/common/mod.rs` as the reference that
//! `tests/diff_ac3.rs` and `tests/golden_ac3.rs` pin `Ac3Fast` against.

pub mod fast;

use lit_net::DelayAssignment;
use lit_sim::Duration;

/// A delay class `(R_k, σ_k)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelayClass {
    /// `R_k` — the maximum bandwidth that may be allocated to sessions in
    /// this class *and all lower-numbered classes* (Figure 5's nesting).
    pub max_bandwidth_bps: u64,
    /// `σ_k` — the base delay of the class.
    pub base_delay: Duration,
}

/// Which of the two classed procedures to enforce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Procedure {
    /// Admission control procedure 1.
    Proc1,
    /// Admission control procedure 2.
    Proc2,
}

/// Whether `d_{i,s}` tracks each packet's length (rules 1.3 / 2.3) or is
/// fixed at the session's maximum length (rules 1.3a / 2.3a).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DRule {
    /// `d_{i,s}` proportional to `L_{i,s}` — rules (1.3) and (2.3).
    PerPacket,
    /// `d_{i,s}` constant, computed from `L_max,s` — rules (1.3a), (2.3a).
    PerSessionMax,
}

/// What a session asks for at connection establishment.
#[derive(Clone, Copy, Debug)]
pub struct SessionRequest {
    /// Reserved rate `r_s` in bits per second.
    pub rate_bps: u64,
    /// Maximum packet length `L_max,s` in bits.
    pub max_len_bits: u32,
    /// The non-negative constant `ε_s` added to `d` (usually zero; used
    /// e.g. to round fixed `d` values up to a supported grid).
    pub epsilon: Duration,
}

impl SessionRequest {
    /// A request with `ε = 0`.
    pub fn new(rate_bps: u64, max_len_bits: u32) -> Self {
        SessionRequest {
            rate_bps,
            max_len_bits,
            epsilon: Duration::ZERO,
        }
    }
}

/// Rejections from the classed procedures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The request's rate is zero.
    ZeroRate,
    /// The class index does not exist.
    UnknownClass,
    /// Test (1.1) failed at the given class: cumulative reserved rate
    /// would exceed `R_m`.
    BandwidthExceeded {
        /// 0-based class index `m` at which the test failed.
        class: usize,
        /// `R_m` in bit/s.
        limit_bps: u64,
        /// The cumulative rate that admission would have produced.
        needed_bps: u64,
    },
    /// Test (1.2)/(2.2) failed at the given class: cumulative `Σ L_max/C`
    /// would exceed `σ_m`.
    BaseDelayExceeded {
        /// 0-based class index `m` at which the test failed.
        class: usize,
        /// `σ_m`.
        limit: Duration,
        /// The cumulative `Σ L_max/C` that admission would have produced.
        needed: Duration,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::ZeroRate => write!(f, "session requested a zero rate"),
            AdmissionError::UnknownClass => write!(f, "no such delay class"),
            AdmissionError::BandwidthExceeded {
                class,
                limit_bps,
                needed_bps,
            } => write!(
                f,
                "test (1.1) failed at class {}: cumulative rate {needed_bps} bit/s > R = {limit_bps} bit/s",
                class + 1
            ),
            AdmissionError::BaseDelayExceeded {
                class,
                limit,
                needed,
            } => write!(
                f,
                "base-delay test failed at class {}: cumulative L_max/C {needed} > sigma = {limit}",
                class + 1
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Invalid class configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// At least one class is required.
    NoClasses,
    /// `R_k` must be non-decreasing in `k`.
    BandwidthNotMonotone,
    /// `σ_k` must be non-decreasing in `k`.
    BaseDelayNotMonotone,
    /// The paper requires `R_P = C`.
    LastClassNotFullLink,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::NoClasses => "at least one delay class is required",
            ConfigError::BandwidthNotMonotone => "class bandwidths R_k must be non-decreasing",
            ConfigError::BaseDelayNotMonotone => "class base delays sigma_k must be non-decreasing",
            ConfigError::LastClassNotFullLink => "the last class must have R_P = C",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// Admission control procedures 1 and 2 for one server node.
///
/// ```
/// use lit_core::{ClassedAdmission, DRule, DelayClass, Procedure, SessionRequest};
/// use lit_sim::Duration;
///
/// // The paper's worked example: C = 100 Mbit/s, three classes.
/// let classes = vec![
///     DelayClass { max_bandwidth_bps: 10_000_000, base_delay: Duration::from_us(200) },
///     DelayClass { max_bandwidth_bps: 40_000_000, base_delay: Duration::from_us(1_600) },
///     DelayClass { max_bandwidth_bps: 100_000_000, base_delay: Duration::from_ms(4) },
/// ];
/// let mut ac = ClassedAdmission::new(Procedure::Proc1, 100_000_000, classes).unwrap();
///
/// // A 100 kbit/s session with 400-bit packets admitted to class 1
/// // gets d = L·R1/(r·C) = 0.4 ms (the paper's number).
/// let req = SessionRequest::new(100_000, 400);
/// let granted = ac.try_admit(0, &req, DRule::PerSessionMax).unwrap();
/// assert_eq!(granted.d_for(400, 100_000), Duration::from_us(400));
/// ```
#[derive(Clone, Debug)]
pub struct ClassedAdmission {
    procedure: Procedure,
    link_bps: u64,
    classes: Vec<DelayClass>,
    /// Σ of reserved rates per class.
    rate_in_class: Vec<u64>,
    /// Σ of `L_max,s` (bits) per class — divided by `C` on demand so the
    /// (1.2)/(2.2) sums stay exact.
    lmax_bits_in_class: Vec<u64>,
}

impl ClassedAdmission {
    /// Set up a node's admission state.
    pub fn new(
        procedure: Procedure,
        link_bps: u64,
        classes: Vec<DelayClass>,
    ) -> Result<Self, ConfigError> {
        if classes.is_empty() {
            return Err(ConfigError::NoClasses);
        }
        for w in classes.windows(2) {
            if w[1].max_bandwidth_bps < w[0].max_bandwidth_bps {
                return Err(ConfigError::BandwidthNotMonotone);
            }
            if w[1].base_delay < w[0].base_delay {
                return Err(ConfigError::BaseDelayNotMonotone);
            }
        }
        if classes.last().unwrap().max_bandwidth_bps != link_bps {
            return Err(ConfigError::LastClassNotFullLink);
        }
        let p = classes.len();
        Ok(ClassedAdmission {
            procedure,
            link_bps,
            classes,
            rate_in_class: vec![0; p],
            lmax_bits_in_class: vec![0; p],
        })
    }

    /// Single-class convenience: procedure 1 with `R_1 = C` (and an
    /// irrelevant `σ_1`), the configuration under which Leave-in-Time
    /// reduces to VirtualClock and matches the PGPS bound.
    pub fn one_class(link_bps: u64) -> Self {
        ClassedAdmission::new(
            Procedure::Proc1,
            link_bps,
            vec![DelayClass {
                max_bandwidth_bps: link_bps,
                base_delay: Duration::ZERO,
            }],
        )
        .expect("one-class configuration is always valid")
    }

    /// Number of classes `P`.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Total reserved rate across all classes.
    pub fn admitted_rate_bps(&self) -> u64 {
        self.rate_in_class.iter().sum()
    }

    /// The delay assignment this node *would* give a session of `class`
    /// (0-based), without admitting it. This is the pure rule
    /// (1.3)/(1.3a)/(2.3)/(2.3a) arithmetic, used by the paper's worked
    /// examples.
    pub fn d_assignment(&self, class: usize, req: &SessionRequest, rule: DRule) -> DelayAssignment {
        let (num_bps, sigma) = match self.procedure {
            // Rule (1.3): slope R_j, offset σ_{j-1} (σ_0 = 0).
            Procedure::Proc1 => (
                self.classes[class].max_bandwidth_bps,
                if class == 0 {
                    Duration::ZERO
                } else {
                    self.classes[class - 1].base_delay
                },
            ),
            // Rule (2.3): slope R_{j-1} (R_0 = 0), offset σ_j.
            Procedure::Proc2 => (
                if class == 0 {
                    0
                } else {
                    self.classes[class - 1].max_bandwidth_bps
                },
                self.classes[class].base_delay,
            ),
        };
        let base = sigma + req.epsilon;
        let den = req.rate_bps as u128 * self.link_bps as u128;
        let linear = DelayAssignment::Linear {
            num: num_bps,
            den,
            base,
        };
        match rule {
            DRule::PerPacket => linear,
            DRule::PerSessionMax => {
                DelayAssignment::Fixed(linear.d_for(req.max_len_bits, req.rate_bps))
            }
        }
    }

    /// Try to admit a session into `class` (0-based). On success the
    /// session's resources are recorded and its [`DelayAssignment`] for
    /// this node is returned.
    pub fn try_admit(
        &mut self,
        class: usize,
        req: &SessionRequest,
        rule: DRule,
    ) -> Result<DelayAssignment, AdmissionError> {
        if req.rate_bps == 0 {
            return Err(AdmissionError::ZeroRate);
        }
        if class >= self.classes.len() {
            return Err(AdmissionError::UnknownClass);
        }
        let p = self.classes.len();

        // Test (1.1) for m = j..P (also subsumes the shared rate test (18)
        // because R_P = C): cumulative rate of classes 1..m must fit R_m.
        let mut cum_rate: u64 = self.rate_in_class[..=class].iter().sum();
        cum_rate += req.rate_bps;
        for m in class..p {
            if m > class {
                cum_rate += self.rate_in_class[m];
            }
            let limit = self.classes[m].max_bandwidth_bps;
            if cum_rate > limit {
                return Err(AdmissionError::BandwidthExceeded {
                    class: m,
                    limit_bps: limit,
                    needed_bps: cum_rate,
                });
            }
        }

        // Base-delay test: (1.2) stops at P−1, (2.2) includes P.
        let last_checked = match self.procedure {
            Procedure::Proc1 => p.saturating_sub(1), // exclusive end = P−1
            Procedure::Proc2 => p,
        };
        let mut cum_bits: u64 = self.lmax_bits_in_class[..=class].iter().sum();
        cum_bits += req.max_len_bits as u64;
        for m in class..last_checked {
            if m > class {
                cum_bits += self.lmax_bits_in_class[m];
            }
            let needed = Duration::from_bits_at_rate(cum_bits, self.link_bps);
            let limit = self.classes[m].base_delay;
            if needed > limit {
                return Err(AdmissionError::BaseDelayExceeded {
                    class: m,
                    limit,
                    needed,
                });
            }
        }

        self.rate_in_class[class] += req.rate_bps;
        self.lmax_bits_in_class[class] += req.max_len_bits as u64;
        Ok(self.d_assignment(class, req, rule))
    }

    /// Release a previously admitted session's resources (connection
    /// teardown). The caller must pass the same class and request used at
    /// admission.
    pub fn release(&mut self, class: usize, req: &SessionRequest) {
        self.rate_in_class[class] = self.rate_in_class[class]
            .checked_sub(req.rate_bps)
            .expect("release without matching admit");
        self.lmax_bits_in_class[class] = self.lmax_bits_in_class[class]
            .checked_sub(req.max_len_bits as u64)
            .expect("release without matching admit");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's worked example server: C = 100 Mbit/s, three classes
    /// (10 Mbit/s, 0.2 ms), (40 Mbit/s, 1.6 ms), (100 Mbit/s, 4 ms).
    fn example_classes() -> Vec<DelayClass> {
        vec![
            DelayClass {
                max_bandwidth_bps: 10_000_000,
                base_delay: Duration::from_us(200),
            },
            DelayClass {
                max_bandwidth_bps: 40_000_000,
                base_delay: Duration::from_us(1_600),
            },
            DelayClass {
                max_bandwidth_bps: 100_000_000,
                base_delay: Duration::from_ms(4),
            },
        ]
    }

    fn d_of(a: &DelayAssignment, len: u32, rate: u64) -> Duration {
        a.d_for(len, rate)
    }

    #[test]
    fn paper_worked_example_ac1() {
        // 100 kbit/s session, 400-bit packets ⇒ d = 0.4, 1.8, 5.6 ms in
        // classes 1, 2, 3 (rule 1.3a).
        let mut ac =
            ClassedAdmission::new(Procedure::Proc1, 100_000_000, example_classes()).unwrap();
        let req = SessionRequest::new(100_000, 400);
        for (class, want_us) in [(0usize, 400u64), (1, 1_800), (2, 5_600)] {
            let a = ac.d_assignment(class, &req, DRule::PerSessionMax);
            assert_eq!(
                d_of(&a, 400, 100_000),
                Duration::from_us(want_us),
                "class {class}"
            );
        }
        // And an actual admission into class 1 succeeds.
        let a = ac.try_admit(0, &req, DRule::PerSessionMax).unwrap();
        assert_eq!(d_of(&a, 400, 100_000), Duration::from_us(400));
    }

    #[test]
    fn paper_worked_example_ac2() {
        // Same setup under procedure 2 ⇒ d = 0.2, 2.0, 5.6 ms.
        let ac = ClassedAdmission::new(Procedure::Proc2, 100_000_000, example_classes()).unwrap();
        let req = SessionRequest::new(100_000, 400);
        for (class, want_us) in [(0usize, 200u64), (1, 2_000), (2, 5_600)] {
            let a = ac.d_assignment(class, &req, DRule::PerSessionMax);
            assert_eq!(
                d_of(&a, 400, 100_000),
                Duration::from_us(want_us),
                "class {class}"
            );
        }
    }

    #[test]
    fn paper_low_rate_session_comparison() {
        // 10 kbit/s session: class 1 gives d = 4 ms under AC1 but 0.2 ms
        // under AC2 — the paper's headline difference.
        let req = SessionRequest::new(10_000, 400);
        let ac1 = ClassedAdmission::new(Procedure::Proc1, 100_000_000, example_classes()).unwrap();
        let ac2 = ClassedAdmission::new(Procedure::Proc2, 100_000_000, example_classes()).unwrap();
        let d1 = d_of(
            &ac1.d_assignment(0, &req, DRule::PerSessionMax),
            400,
            10_000,
        );
        let d2 = d_of(
            &ac2.d_assignment(0, &req, DRule::PerSessionMax),
            400,
            10_000,
        );
        assert_eq!(d1, Duration::from_ms(4));
        assert_eq!(d2, Duration::from_us(200));
    }

    #[test]
    fn one_class_gives_len_over_rate() {
        // AC1 with one class and ε = 0: d = L·C/(r·C) = L/r, the
        // VirtualClock special case.
        let mut ac = ClassedAdmission::one_class(1_536_000);
        let req = SessionRequest::new(32_000, 424);
        let a = ac.try_admit(0, &req, DRule::PerPacket).unwrap();
        assert_eq!(d_of(&a, 424, 32_000), Duration::from_us(13_250));
    }

    #[test]
    fn test_1_1_rejects_overbooked_class() {
        let mut ac =
            ClassedAdmission::new(Procedure::Proc1, 100_000_000, example_classes()).unwrap();
        // Class 1 holds at most 10 Mbit/s.
        let big = SessionRequest::new(6_000_000, 400);
        ac.try_admit(0, &big, DRule::PerSessionMax).unwrap();
        let err = ac.try_admit(0, &big, DRule::PerSessionMax).unwrap_err();
        assert!(
            matches!(err, AdmissionError::BandwidthExceeded { class: 0, .. }),
            "{err}"
        );
        // But the same session fits in class 2.
        ac.try_admit(1, &big, DRule::PerSessionMax).unwrap();
    }

    #[test]
    fn test_1_1_checks_higher_classes_too() {
        // Filling class 3 to the brim blocks class-1 admissions via the
        // m = 3 test even if class 1 itself has room.
        let mut ac =
            ClassedAdmission::new(Procedure::Proc1, 100_000_000, example_classes()).unwrap();
        ac.try_admit(
            2,
            &SessionRequest::new(100_000_000, 400),
            DRule::PerSessionMax,
        )
        .unwrap();
        let err = ac
            .try_admit(0, &SessionRequest::new(1, 400), DRule::PerSessionMax)
            .unwrap_err();
        assert!(matches!(
            err,
            AdmissionError::BandwidthExceeded { class: 2, .. }
        ));
    }

    #[test]
    fn test_1_2_rejects_when_sigma_too_small() {
        // σ_1 = 0.2 ms at C = 100 Mbit/s allows Σ L ≤ 20 000 bits in
        // class 1 (0.2 ms · 100 Mbit/s).
        let mut ac =
            ClassedAdmission::new(Procedure::Proc1, 100_000_000, example_classes()).unwrap();
        for _ in 0..50 {
            ac.try_admit(0, &SessionRequest::new(1_000, 400), DRule::PerSessionMax)
                .unwrap();
        }
        // 50 × 400 = 20 000 bits: full. One more fails test (1.2).
        let err = ac
            .try_admit(0, &SessionRequest::new(1_000, 400), DRule::PerSessionMax)
            .unwrap_err();
        assert!(
            matches!(err, AdmissionError::BaseDelayExceeded { class: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn proc1_ignores_sigma_p_but_proc2_enforces_it() {
        // One class with a tiny σ: AC1 never checks σ_P, AC2 does.
        let classes = vec![DelayClass {
            max_bandwidth_bps: 1_536_000,
            base_delay: Duration::from_ps(1),
        }];
        let req = SessionRequest::new(32_000, 424);
        let mut ac1 = ClassedAdmission::new(Procedure::Proc1, 1_536_000, classes.clone()).unwrap();
        assert!(ac1.try_admit(0, &req, DRule::PerPacket).is_ok());
        let mut ac2 = ClassedAdmission::new(Procedure::Proc2, 1_536_000, classes).unwrap();
        let err = ac2.try_admit(0, &req, DRule::PerPacket).unwrap_err();
        assert!(matches!(err, AdmissionError::BaseDelayExceeded { .. }));
    }

    #[test]
    fn release_returns_resources() {
        let mut ac =
            ClassedAdmission::new(Procedure::Proc1, 100_000_000, example_classes()).unwrap();
        let req = SessionRequest::new(10_000_000, 400);
        ac.try_admit(0, &req, DRule::PerSessionMax).unwrap();
        assert!(ac.try_admit(0, &req, DRule::PerSessionMax).is_err());
        ac.release(0, &req);
        assert!(ac.try_admit(0, &req, DRule::PerSessionMax).is_ok());
        assert_eq!(ac.admitted_rate_bps(), 10_000_000);
    }

    #[test]
    fn epsilon_adds_to_d() {
        let ac = ClassedAdmission::one_class(1_536_000);
        let mut req = SessionRequest::new(32_000, 424);
        req.epsilon = Duration::from_us(100);
        let a = ac.d_assignment(0, &req, DRule::PerSessionMax);
        assert_eq!(d_of(&a, 424, 32_000), Duration::from_us(13_350));
    }

    #[test]
    fn config_validation() {
        assert_eq!(
            ClassedAdmission::new(Procedure::Proc1, 1000, vec![]).unwrap_err(),
            ConfigError::NoClasses
        );
        let c = |bw, us| DelayClass {
            max_bandwidth_bps: bw,
            base_delay: Duration::from_us(us),
        };
        assert_eq!(
            ClassedAdmission::new(Procedure::Proc1, 1000, vec![c(500, 10), c(400, 20)])
                .unwrap_err(),
            ConfigError::BandwidthNotMonotone
        );
        assert_eq!(
            ClassedAdmission::new(Procedure::Proc1, 1000, vec![c(500, 20), c(1000, 10)])
                .unwrap_err(),
            ConfigError::BaseDelayNotMonotone
        );
        assert_eq!(
            ClassedAdmission::new(Procedure::Proc1, 1000, vec![c(500, 10)]).unwrap_err(),
            ConfigError::LastClassNotFullLink
        );
    }
}
