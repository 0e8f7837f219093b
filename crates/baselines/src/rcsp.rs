//! Rate-Controlled Static-Priority queueing (Zhang & Ferrari,
//! INFOCOM '93) — paper §4's "avoids both framing strategies … and sorted
//! priority queues, by the separation of rate-control and delay-control".
//!
//! Two components per node:
//!
//! * a per-session **rate controller**: packet `i` becomes eligible at
//!   `E_i = max{ t_i, E_{i-1} + x_min }` — the arriving stream is
//!   reconstructed to its declared minimum spacing, whatever upstream
//!   nodes did to it;
//! * a **static-priority scheduler**: each session is assigned to a
//!   priority level with an associated per-node delay bound; eligible
//!   packets are served highest level first, FIFO within a level — no
//!   sorted queue at all.
//!
//! The admission test per level `p` is the paper's worst-case demand
//! condition: within any window of length `d_p`, the traffic from all
//! sessions at levels `≤ p` (each contributing `⌈d_p/x_min⌉ + 1` packets
//! at most) plus one blocking lower-priority packet must fit at link rate.

use lit_net::{
    DelayAssignment, Discipline, LinkParams, Packet, ScheduleDecision, SessionSpec, SessionTable,
};
use lit_sim::{Duration, Time};

/// Per-session rate-controller state.
#[derive(Clone, Copy, Debug)]
struct RcspState {
    x_min: Duration,
    /// Priority level (0 = highest).
    level: u32,
    /// Delay bound of the level (diagnostic only at run time).
    d: Duration,
    /// Eligibility of the previous packet.
    e_prev: Option<Time>,
}

/// The RCSP scheduler for one node.
///
/// Sessions are mapped to priority levels by their delay assignment: at
/// registration, the session's `d` is matched against the node's level
/// table (the smallest level bound `≥ d` wins... the closest level whose
/// bound does not exceed the request).
pub struct RcspDiscipline {
    /// Level delay bounds, ascending (level 0 = tightest).
    level_bounds: Vec<Duration>,
    sessions: SessionTable<RcspState>,
}

impl RcspDiscipline {
    /// A scheduler with the given ascending level delay bounds.
    ///
    /// # Panics
    /// Panics if `level_bounds` is empty or not strictly ascending.
    pub fn new(level_bounds: Vec<Duration>) -> Self {
        assert!(!level_bounds.is_empty(), "RCSP: no priority levels");
        assert!(
            level_bounds.windows(2).all(|w| w[0] < w[1]),
            "RCSP: level bounds must ascend"
        );
        RcspDiscipline {
            level_bounds,
            sessions: SessionTable::new(),
        }
    }

    /// A boxed factory with identical levels at every node.
    pub fn factory(level_bounds: Vec<Duration>) -> impl Fn(&LinkParams) -> Box<dyn Discipline> {
        move |_: &LinkParams| {
            Box::new(RcspDiscipline::new(level_bounds.clone())) as Box<dyn Discipline>
        }
    }

    /// The level a session with per-node delay bound `d` lands in: the
    /// highest (tightest) level whose bound is at least `d`… i.e. the
    /// first level bound `≥ d`, or the last level if `d` exceeds them all.
    fn level_for(&self, d: Duration) -> u32 {
        self.level_bounds
            .iter()
            .position(|&b| b >= d)
            .unwrap_or(self.level_bounds.len() - 1) as u32
    }
}

impl Discipline for RcspDiscipline {
    fn name(&self) -> &'static str {
        "rcsp"
    }

    fn register_session(&mut self, spec: &SessionSpec, delay: &DelayAssignment) {
        let d = delay.d_max(spec.max_len_bits, spec.rate_bps);
        let level = self.level_for(d);
        self.sessions.insert(
            spec.id,
            RcspState {
                x_min: Duration::from_bits_at_rate(spec.max_len_bits as u64, spec.rate_bps),
                level,
                d: self.level_bounds[level as usize],
                e_prev: None,
            },
        );
    }

    fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
        let s = self.sessions.registered_mut(pkt.session);
        // Rate controller: reconstruct x_min spacing.
        let eligible = match s.e_prev {
            Some(prev) => now.max(prev + s.x_min),
            None => now,
        };
        s.e_prev = Some(eligible);
        pkt.deadline = eligible + s.d;
        pkt.d = s.d;
        // Static priority: the key is just the level — FIFO within a
        // level comes from the queue's arrival-order tie break.
        ScheduleDecision {
            eligible,
            key: s.level as u128,
        }
    }

    fn on_departure(&mut self, _: &mut Packet, _: Time) {}
}

/// One admitted RCSP session, for the admission test.
#[derive(Clone, Copy, Debug)]
struct RcspSession {
    x_min: Duration,
    max_len_bits: u32,
    level: usize,
}

/// Rejections from RCSP admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RcspError {
    /// The requested level does not exist.
    UnknownLevel,
    /// The worst-case demand test failed at the given level.
    LevelOverloaded {
        /// Level index at which the test failed.
        level: usize,
    },
    /// A parameter was zero.
    ZeroParameter,
}

impl std::fmt::Display for RcspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RcspError::UnknownLevel => write!(f, "no such priority level"),
            RcspError::LevelOverloaded { level } => {
                write!(f, "worst-case demand exceeds bound at level {level}")
            }
            RcspError::ZeroParameter => write!(f, "x_min must be positive"),
        }
    }
}

impl std::error::Error for RcspError {}

/// RCSP admission control for one node.
#[derive(Clone, Debug)]
pub struct RcspAdmission {
    link_bps: u64,
    level_bounds: Vec<Duration>,
    sessions: Vec<RcspSession>,
}

impl RcspAdmission {
    /// Admission state for a link of capacity `C` and the given ascending
    /// level bounds.
    pub fn new(link_bps: u64, level_bounds: Vec<Duration>) -> Self {
        assert!(link_bps > 0 && !level_bounds.is_empty());
        assert!(level_bounds.windows(2).all(|w| w[0] < w[1]));
        RcspAdmission {
            link_bps,
            level_bounds,
            sessions: Vec::new(),
        }
    }

    /// Worst-case work (transmission time) session `s` can demand within
    /// a window `w`: `(⌈w/x_min⌉ + 1)` maximum-length packets.
    fn demand_in(&self, s: &RcspSession, w: Duration) -> Duration {
        let n = w.div_ceil(s.x_min) + 1;
        Duration::from_bits_at_rate(s.max_len_bits as u64 * n, self.link_bps)
    }

    /// Check every level's bound against worst-case demand from levels at
    /// or above it, plus one blocking packet from below.
    fn feasible(&self, cand: RcspSession) -> Result<(), RcspError> {
        let mut all = self.sessions.clone();
        all.push(cand);
        let lmax_tx: Duration = all
            .iter()
            .map(|s| Duration::from_bits_at_rate(s.max_len_bits as u64, self.link_bps))
            .max()
            .unwrap_or(Duration::ZERO);
        for (p, &dp) in self.level_bounds.iter().enumerate() {
            let mut demand = Duration::ZERO;
            let mut any = false;
            for s in &all {
                if s.level <= p {
                    demand += self.demand_in(s, dp);
                    any = true;
                }
            }
            if !any {
                continue;
            }
            if demand + lmax_tx > dp {
                return Err(RcspError::LevelOverloaded { level: p });
            }
        }
        Ok(())
    }

    /// Try to admit a session at `level` with declared minimum spacing
    /// `x_min` and maximum length `max_len_bits`. The granted delay
    /// assignment is the level's bound.
    pub fn try_admit(
        &mut self,
        level: usize,
        x_min: Duration,
        max_len_bits: u32,
    ) -> Result<DelayAssignment, RcspError> {
        if x_min == Duration::ZERO || max_len_bits == 0 {
            return Err(RcspError::ZeroParameter);
        }
        if level >= self.level_bounds.len() {
            return Err(RcspError::UnknownLevel);
        }
        let cand = RcspSession {
            x_min,
            max_len_bits,
            level,
        };
        self.feasible(cand)?;
        self.sessions.push(cand);
        Ok(DelayAssignment::Fixed(self.level_bounds[level]))
    }

    /// Number of admitted sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session was admitted yet.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_net::SessionId;

    fn levels() -> Vec<Duration> {
        vec![
            Duration::from_ms(2),
            Duration::from_ms(10),
            Duration::from_ms(50),
        ]
    }

    #[test]
    fn rate_controller_spaces_eligibility() {
        let mut d = RcspDiscipline::new(levels());
        d.register_session(
            &SessionSpec::atm(SessionId(0), 32_000),
            &DelayAssignment::Fixed(Duration::from_ms(10)),
        );
        // Burst of three at t = 0: eligibility at 0, x_min, 2·x_min.
        let mut es = Vec::new();
        for i in 0..3u64 {
            let mut p = Packet::new(SessionId(0), i + 1, 424, Time::ZERO);
            es.push(d.on_arrival(&mut p, Time::ZERO).eligible);
        }
        assert_eq!(es[0], Time::ZERO);
        assert_eq!(es[1], Time::from_us(13_250));
        assert_eq!(es[2], Time::from_us(26_500));
    }

    #[test]
    fn level_mapping_and_priority_keys() {
        let mut d = RcspDiscipline::new(levels());
        d.register_session(
            &SessionSpec::atm(SessionId(0), 32_000),
            &DelayAssignment::Fixed(Duration::from_ms(1)), // → level 0
        );
        d.register_session(
            &SessionSpec::atm(SessionId(1), 32_000),
            &DelayAssignment::Fixed(Duration::from_ms(30)), // → level 2
        );
        let mut p0 = Packet::new(SessionId(0), 1, 424, Time::ZERO);
        let mut p1 = Packet::new(SessionId(1), 1, 424, Time::ZERO);
        let k0 = d.on_arrival(&mut p0, Time::ZERO).key;
        let k1 = d.on_arrival(&mut p1, Time::ZERO).key;
        assert!(k0 < k1, "higher priority must have smaller key");
        assert_eq!(k0, 0);
        assert_eq!(k1, 2);
    }

    #[test]
    fn oversized_request_lands_in_last_level() {
        let d = RcspDiscipline::new(levels());
        assert_eq!(d.level_for(Duration::from_secs(1)), 2);
        assert_eq!(d.level_for(Duration::from_us(1)), 0);
    }

    #[test]
    fn admission_fills_then_rejects_top_level() {
        let mut adm = RcspAdmission::new(1_536_000, levels());
        // Each voice session demands (⌈2ms/13.25ms⌉+1)=2 cells in the
        // 2 ms window ⇒ 0.552 ms; plus 1 blocking cell 0.276 ms. Level 0
        // holds 3 such sessions (1.93 ms ≤ 2 ms), not 4.
        let x = Duration::from_us(13_250);
        for i in 0..3 {
            adm.try_admit(0, x, 424)
                .unwrap_or_else(|e| panic!("session {i}: {e}"));
        }
        assert_eq!(
            adm.try_admit(0, x, 424).unwrap_err(),
            RcspError::LevelOverloaded { level: 0 }
        );
        // But the same session is welcome at level 1.
        adm.try_admit(1, x, 424).unwrap();
        assert_eq!(adm.len(), 4);
    }

    #[test]
    fn lower_levels_count_against_higher_bounds() {
        let mut adm = RcspAdmission::new(1_536_000, levels());
        // Saturate level 1's 10 ms window with high-priority traffic…
        let x = Duration::from_us(1_000); // ~424 kbit/s peak each
        adm.try_admit(0, x, 424).unwrap(); // demand in 10ms: 11 cells
        adm.try_admit(1, x, 424).unwrap();
        adm.try_admit(1, x, 424).unwrap();
        // Each session demands ⌈10/1⌉+1 = 11 cells ≈ 3.04 ms in the 10 ms
        // window; a few more and level 1 must overflow before level 2.
        let mut last = None;
        for _ in 0..5 {
            match adm.try_admit(1, x, 424) {
                Ok(_) => {}
                Err(e) => {
                    last = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(last, Some(RcspError::LevelOverloaded { .. })));
    }

    #[test]
    fn unknown_level_rejected() {
        let mut adm = RcspAdmission::new(1_536_000, levels());
        assert_eq!(
            adm.try_admit(9, Duration::from_ms(1), 424).unwrap_err(),
            RcspError::UnknownLevel
        );
    }
}
