//! Delay-EDD (Ferrari & Verma, JSAC '90) and Jitter-EDD (Verma, Zhang &
//! Ferrari, TriCom '91) — the earliest-due-date disciplines of paper §4.
//!
//! Unlike Leave-in-Time/VirtualClock, the deadline here is **not** coupled
//! to the reserved rate: at connection establishment each session is
//! assigned a per-node *local delay bound* `d`, and each packet's deadline
//! is its rate-controlled expected arrival plus `d`:
//!
//! ```text
//! ExA_1 = E_1,   ExA_i = max{ E_i, ExA_{i-1} + x_min },
//! Deadline_i = ExA_i + d
//! ```
//!
//! where `x_min` is the session's declared minimum packet interarrival
//! time. The expected-arrival clamp is Delay-EDD's rate control: a session
//! sending faster than `x_min` only pushes its own deadlines out.
//!
//! **Jitter-EDD** adds a per-hop delay regulator: the upstream node stamps
//! the *slack* `Deadline − F̂` (deadline minus actual finish) into the
//! packet header, and the next hop holds the packet that long before it
//! becomes eligible — so every packet leaves hop `n` appearing to have
//! experienced exactly its local delay bound. This is the mechanism
//! Leave-in-Time's regulators (eq. 9) build on.
//!
//! Because deadlines are decoupled from rates, a separate **schedulability
//! test** ([`EddAdmission`]) is required — the paper's point about the
//! "compromise on the looser coupling": peak-rate bandwidth reservation
//! plus a non-preemptive EDF feasibility test.
//!
//! In this implementation the declared peak rate is the reserved rate:
//! `x_min = L_max / r` (the paper notes that in [26] "bandwidth is
//! reserved at the peak rate implied by `x_min`").

use lit_net::{DelayAssignment, Discipline, Packet, ScheduleDecision, SessionSpec, SessionTable};
use lit_sim::{Duration, Time};

/// Per-session EDD state at one node.
#[derive(Clone, Copy, Debug)]
struct EddState {
    /// Declared minimum packet interarrival time.
    x_min: Duration,
    /// Local delay bound `d` assigned at establishment.
    d: Duration,
    /// Expected arrival of the previous packet; `None` before packet 1.
    exa_prev: Option<Time>,
}

/// The (Delay-/Jitter-)EDD scheduler for one node.
pub struct EddDiscipline {
    /// `true` ⇒ Jitter-EDD (regulators on), `false` ⇒ Delay-EDD.
    jitter: bool,
    sessions: SessionTable<EddState>,
}

impl EddDiscipline {
    /// A Delay-EDD scheduler (work-conserving, no regulators).
    pub fn delay_edd() -> Self {
        EddDiscipline {
            jitter: false,
            sessions: SessionTable::new(),
        }
    }

    /// A Jitter-EDD scheduler (delay regulators at every hop).
    pub fn jitter_edd() -> Self {
        EddDiscipline {
            jitter: true,
            sessions: SessionTable::new(),
        }
    }

    /// A boxed factory for [`lit_net::NetworkBuilder::build`].
    pub fn factory(jitter: bool) -> impl Fn(&lit_net::LinkParams) -> Box<dyn Discipline> {
        move |_: &lit_net::LinkParams| {
            Box::new(if jitter {
                EddDiscipline::jitter_edd()
            } else {
                EddDiscipline::delay_edd()
            }) as Box<dyn Discipline>
        }
    }
}

impl Discipline for EddDiscipline {
    fn name(&self) -> &'static str {
        if self.jitter {
            "jitter-edd"
        } else {
            "delay-edd"
        }
    }

    fn register_session(&mut self, spec: &SessionSpec, delay: &DelayAssignment) {
        self.sessions.insert(
            spec.id,
            EddState {
                x_min: Duration::from_bits_at_rate(spec.max_len_bits as u64, spec.rate_bps),
                // The local delay bound: the session's delay assignment
                // evaluated at its maximum length (EDD bounds are per
                // session, not per packet).
                d: delay.d_max(spec.max_len_bits, spec.rate_bps),
                exa_prev: None,
            },
        );
    }

    fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
        let jitter = self.jitter;
        let s = self.sessions.registered_mut(pkt.session);
        // Jitter-EDD: the regulator holds the packet for the upstream
        // slack carried in the header.
        let eligible = if jitter { now + pkt.hold } else { now };
        let exa = match s.exa_prev {
            Some(prev) => eligible.max(prev + s.x_min),
            None => eligible,
        };
        s.exa_prev = Some(exa);
        let deadline = exa + s.d;
        pkt.deadline = deadline;
        pkt.d = s.d;
        ScheduleDecision::at(eligible, deadline)
    }

    fn on_departure(&mut self, pkt: &mut Packet, finish: Time) {
        if self.jitter {
            // Stamp the slack: how far ahead of its deadline the packet
            // finished. (Zero if it finished late — EDF may miss deadlines
            // when the admission test was not applied.)
            pkt.hold = pkt.deadline.checked_since(finish).unwrap_or(Duration::ZERO);
        }
    }
}

/// One admitted EDD session, as seen by the schedulability test.
#[derive(Clone, Copy, Debug)]
struct EddSession {
    x_min: Duration,
    max_len_bits: u32,
    d: Duration,
}

/// Rejections from the EDD admission test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EddError {
    /// Peak-rate bandwidth test failed: `Σ L_max/x_min > C`.
    PeakRateExceeded,
    /// The non-preemptive EDF feasibility test failed for the session
    /// with the given local delay bound.
    Unschedulable {
        /// The `d` at which feasibility broke.
        at_bound: Duration,
    },
    /// A parameter was zero.
    ZeroParameter,
}

impl std::fmt::Display for EddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EddError::PeakRateExceeded => write!(f, "peak-rate bandwidth exceeded"),
            EddError::Unschedulable { at_bound } => {
                write!(f, "EDF schedulability failed at local bound {at_bound}")
            }
            EddError::ZeroParameter => write!(f, "x_min and d must be positive"),
        }
    }
}

impl std::error::Error for EddError {}

/// The Delay-EDD admission ("schedulability") test for one node — the
/// paper's "schedulability test at connection establishment time \[5\] to
/// avoid scheduling saturation, which can occur even if bandwidth is not
/// overbooked".
///
/// Two conditions:
///
/// 1. **peak-rate bandwidth**: `Σ_j L_max,j / x_min,j ≤ C`;
/// 2. **non-preemptive EDF feasibility** (sufficient condition): for every
///    admitted bound `d_j`, the worst-case backlog of work that may be due
///    by `d_j` — one maximum-length packet from every session with
///    `d_k ≤ d_j`, plus one blocking packet from the longest session with
///    `d_k > d_j` — must fit within `d_j` at link rate.
#[derive(Clone, Debug)]
pub struct EddAdmission {
    link_bps: u64,
    sessions: Vec<EddSession>,
}

impl EddAdmission {
    /// Admission state for a link of capacity `C` bit/s.
    pub fn new(link_bps: u64) -> Self {
        assert!(link_bps > 0, "EddAdmission: zero link rate");
        EddAdmission {
            link_bps,
            sessions: Vec::new(),
        }
    }

    /// Number of admitted sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session was admitted yet.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    fn tx(&self, bits: u32) -> Duration {
        Duration::from_bits_at_rate(bits as u64, self.link_bps)
    }

    /// Feasibility of a candidate set (all current sessions + `cand`).
    fn feasible(&self, cand: EddSession) -> Result<(), EddError> {
        let mut all: Vec<EddSession> = self.sessions.clone();
        all.push(cand);
        // 1. Peak-rate bandwidth.
        let mut load = 0.0f64;
        for s in &all {
            load += s.max_len_bits as f64 / s.x_min.as_secs_f64();
        }
        if load > self.link_bps as f64 {
            return Err(EddError::PeakRateExceeded);
        }
        // 2. Non-preemptive EDF sufficient test.
        for j in &all {
            let mut demand = Duration::ZERO;
            let mut blocking = Duration::ZERO;
            for k in &all {
                if k.d <= j.d {
                    demand += self.tx(k.max_len_bits);
                } else {
                    blocking = blocking.max(self.tx(k.max_len_bits));
                }
            }
            if demand + blocking > j.d {
                return Err(EddError::Unschedulable { at_bound: j.d });
            }
        }
        Ok(())
    }

    /// Try to admit a session with minimum interarrival `x_min`, maximum
    /// length `max_len_bits`, and requested local delay bound `d`. On
    /// success the bound is granted as a fixed [`DelayAssignment`].
    pub fn try_admit(
        &mut self,
        x_min: Duration,
        max_len_bits: u32,
        d: Duration,
    ) -> Result<DelayAssignment, EddError> {
        if x_min == Duration::ZERO || d == Duration::ZERO || max_len_bits == 0 {
            return Err(EddError::ZeroParameter);
        }
        let cand = EddSession {
            x_min,
            max_len_bits,
            d,
        };
        self.feasible(cand)?;
        self.sessions.push(cand);
        Ok(DelayAssignment::Fixed(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_net::SessionId;

    fn spec(rate: u64) -> SessionSpec {
        SessionSpec::atm(SessionId(0), rate)
    }

    #[test]
    fn expected_arrival_rate_controls_deadlines() {
        // Three back-to-back packets with x_min = 13.25 ms: deadlines
        // spread at x_min even though arrivals are simultaneous.
        let mut d = EddDiscipline::delay_edd();
        d.register_session(&spec(32_000), &DelayAssignment::Fixed(Duration::from_ms(5)));
        let mut stamps = Vec::new();
        for i in 0..3u64 {
            let mut p = Packet::new(SessionId(0), i + 1, 424, Time::ZERO);
            d.on_arrival(&mut p, Time::ZERO);
            stamps.push(p.deadline);
        }
        assert_eq!(stamps[0], Time::from_ms(5));
        assert_eq!(stamps[1], Time::from_ms(5) + Duration::from_us(13_250));
        assert_eq!(stamps[2], Time::from_ms(5) + Duration::from_us(26_500));
    }

    #[test]
    fn slow_arrivals_keep_fresh_deadlines() {
        let mut d = EddDiscipline::delay_edd();
        d.register_session(&spec(32_000), &DelayAssignment::Fixed(Duration::from_ms(5)));
        let mut p = Packet::new(SessionId(0), 1, 424, Time::ZERO);
        d.on_arrival(&mut p, Time::ZERO);
        let mut p = Packet::new(SessionId(0), 2, 424, Time::ZERO);
        d.on_arrival(&mut p, Time::from_ms(100));
        assert_eq!(p.deadline, Time::from_ms(105));
    }

    #[test]
    fn jitter_edd_stamps_slack_and_holds() {
        let mut d = EddDiscipline::jitter_edd();
        d.register_session(&spec(32_000), &DelayAssignment::Fixed(Duration::from_ms(5)));
        let mut p = Packet::new(SessionId(0), 1, 424, Time::ZERO);
        let dec = d.on_arrival(&mut p, Time::ZERO);
        assert_eq!(dec.eligible, Time::ZERO);
        assert_eq!(p.deadline, Time::from_ms(5));
        // Finishes 2 ms early ⇒ slack 2 ms stamped for the next hop.
        d.on_departure(&mut p, Time::from_ms(3));
        assert_eq!(p.hold, Duration::from_ms(2));
        // At the next hop a fresh (Jitter-EDD) node honours the hold.
        let mut d2 = EddDiscipline::jitter_edd();
        d2.register_session(&spec(32_000), &DelayAssignment::Fixed(Duration::from_ms(5)));
        let dec = d2.on_arrival(&mut p, Time::from_ms(4));
        assert_eq!(dec.eligible, Time::from_ms(6));
    }

    #[test]
    fn admission_peak_rate() {
        let mut adm = EddAdmission::new(1_536_000);
        // 424 bits / 1 ms = 424 kbit/s peak each; 3 fit, the 4th passes
        // too (1.696M > 1.536M fails).
        for i in 0..3 {
            adm.try_admit(Duration::from_ms(1), 424, Duration::from_ms(10))
                .unwrap_or_else(|e| panic!("session {i}: {e}"));
        }
        assert_eq!(
            adm.try_admit(Duration::from_ms(1), 424, Duration::from_ms(10))
                .unwrap_err(),
            EddError::PeakRateExceeded
        );
    }

    #[test]
    fn admission_edf_feasibility() {
        let adm_base = EddAdmission::new(1_536_000);
        // One cell takes 0.276 ms. A lone session asking d just above
        // one cell time is fine; ten sessions all asking 1 ms are not
        // (10 cells = 2.76 ms > 1 ms), even though peak bandwidth fits.
        let mut adm = adm_base.clone();
        adm.try_admit(Duration::from_ms(50), 424, Duration::from_us(300))
            .unwrap();
        let mut adm = adm_base.clone();
        let mut failed = None;
        for i in 0..10 {
            if let Err(e) = adm.try_admit(Duration::from_ms(50), 424, Duration::from_ms(1)) {
                failed = Some((i, e));
                break;
            }
        }
        let (i, e) = failed.expect("must eventually fail EDF test");
        assert!(i >= 2, "fails too early at {i}");
        assert!(matches!(e, EddError::Unschedulable { .. }));
    }

    #[test]
    fn admission_rejects_zero_params() {
        let mut adm = EddAdmission::new(1000);
        assert_eq!(
            adm.try_admit(Duration::ZERO, 424, Duration::from_ms(1))
                .unwrap_err(),
            EddError::ZeroParameter
        );
    }
}
