//! Differential fuzzing of the simulator and the discipline.
//!
//! Each case is a random admission-valid [`Scenario`] restricted to the
//! regime where the paper proves Leave-in-Time degenerates exactly: one
//! admission class, `d = L/r`, no jitter control — there LiT **is**
//! VirtualClock, packet for packet. Every case runs four ways:
//!
//! 1. `lit` on the heap event backend, conformance oracle counting —
//!    zero violations expected (the oracle's per-hop and pathwise
//!    end-to-end checks, plus the drain-time CCDF check);
//! 2. `lit` on the calendar backend — the delivery log must be
//!    bit-identical to run 1 (same `(seq, created, delivered,
//!    ref_delay)` for every packet of every session) and the event
//!    count equal: run 1's event set has sorted-run lanes, this one
//!    has none;
//! 3. `lit` on the timer-wheel backend — also bit-identical to run 1;
//! 4. `virtualclock` on the heap backend — also bit-identical to run 1.
//!
//! Plus one k-shard pair: `lit` on 2 shards vs 7 shards (oracle
//! counting on both) — delivery logs and violation counts must match
//! *each other* exactly. The k-shard driver orders same-instant events
//! canonically rather than in heap-FIFO order, so it is compared against
//! itself across shard counts (its own determinism contract) instead of
//! against run 1, whose tie order random scenarios are allowed to
//! differ in.
//!
//! Failures shrink greedily (drop sessions, halve the horizon) and are
//! written as replayable `.scn` files via [`Scenario::to_text`], so
//! `lit-repro scenario <file>` reproduces them directly.

use crate::scenario::{RunOptions, Scenario, SessionLine, SourceSpec};
use lit_net::{
    DeliveryRecord, EventBackend, LinkParams, Network, ObsProbe, OracleMode, SessionId, StatsConfig,
};
use lit_obs::TraceEvent;
use lit_sim::{Duration, SimRng};
use std::path::{Path, PathBuf};

/// How many trailing lifecycle events each arm contributes to a
/// divergence bundle.
const BUNDLE_TAIL: usize = 50;

/// Reserved rates stay below this fraction of link capacity in every
/// generated case, so each node is admission-valid (`Σ r ≤ C`) with slack
/// and the oracle's lateness invariant is in force.
const MAX_RATE_BPS: u64 = 200_000; // 6 × 200 kbit/s < 0.8 × 1536 kbit/s

/// Statistics sizing for fuzz runs: coarse histograms (the comparison is
/// the delivery log, not the distributions) and a log deep enough to hold
/// every delivery of a one-second case.
fn fuzz_stats() -> StatsConfig {
    StatsConfig {
        delay_bin: Duration::from_ms(1),
        delay_bins: 4_000,
        buffer_bin_bits: 424,
        buffer_bins: 64,
        delivery_log_cap: 1 << 16,
    }
}

/// Independent case seeds from `(campaign seed, case index)`.
fn case_seed(master: u64, case: u64) -> u64 {
    lit_sim::splitmix64_at(master, case.wrapping_add(1))
}

/// Generate the random scenario of `seed`. Deterministic, whole-ns
/// durations throughout (so [`Scenario::to_text`] round-trips exactly).
pub fn generate(seed: u64) -> Scenario {
    let mut rng = SimRng::seed_from(seed);
    let nodes = 1 + rng.below(4) as usize;
    let nsessions = 1 + rng.below(6) as usize;
    let mut link = LinkParams::paper_t1();
    let mut sessions = Vec::new();
    for _ in 0..nsessions {
        let first = rng.below(nodes as u64) as usize;
        let last = first + rng.below((nodes - first) as u64) as usize;
        let rate = 10_000 + rng.below((MAX_RATE_BPS - 10_000) / 1_000 + 1) * 1_000;
        let len = (64 + rng.below(961)) as u32;
        link.lmax_bits = link.lmax_bits.max(len);
        let gap = Duration::from_ns(100_000) + Duration::from_ns(rng.below(19_900_001));
        let source = match rng.below(4) {
            0 => SourceSpec::Poisson { gap, len },
            1 => SourceSpec::Cbr {
                gap,
                len,
                offset: Duration::from_ns(rng.below(1_000_001)),
            },
            2 => SourceSpec::Burst {
                period: Duration::from_ns(10_000_000) + Duration::from_ns(rng.below(90_000_001)),
                count: (1 + rng.below(32)) as u32,
                len,
            },
            _ => SourceSpec::OnOff {
                on: Duration::from_ns(1_000_000) + Duration::from_ns(rng.below(200_000_000)),
                off: Duration::from_ns(1_000_000) + Duration::from_ns(rng.below(650_000_000)),
                t: gap,
                len,
            },
        };
        // Occasionally shape to the reserved rate — conforming traffic
        // exercises the tight side of the oracle's bounds.
        let shape = if rng.below(4) == 0 {
            Some((rate, 2 * len as u64))
        } else {
            None
        };
        sessions.push(SessionLine {
            first,
            last,
            rate,
            jc: false, // jitter control would break the ≡ VirtualClock premise
            d: None,   // default d = L/r, ditto
            shape,
            source,
            path: None,
        });
    }
    Scenario {
        nodes,
        link,
        discipline: crate::scenario::DisciplineChoice::Lit,
        queue: lit_net::QueueKind::Exact,
        backend: EventBackend::Heap,
        seed: rng.next_u64(),
        sessions,
        generators: Vec::new(),
        regulator: lit_net::RegulatorBackend::PerSession,
        horizon: Duration::from_ms(200) + Duration::from_ms(rng.below(801)),
    }
}

/// One session's full delivery evidence: total count plus the logged
/// `(seq, created, delivered, ref_delay)` records.
fn snapshot(net: &Network, ids: &[SessionId]) -> Vec<(u64, Vec<DeliveryRecord>)> {
    ids.iter()
        .map(|id| {
            let st = net.session_stats(*id);
            (st.delivered, st.deliveries.iter().cloned().collect())
        })
        .collect()
}

/// Run one scenario all three ways; `Err` describes the first divergence
/// or oracle violation.
pub fn check(sc: &Scenario) -> Result<(), String> {
    // One arm: `sc` on `backend`, the oracle counting or off, sharded or not.
    let arm = |sc: &Scenario, backend, oracle, shards| {
        let opts = RunOptions {
            backend: Some(backend),
            stats: Some(fuzz_stats()),
            oracle,
            shards,
            regulator: None,
        };
        sc.run_probed(&opts, None)
    };
    let (mut lit_heap, ids) = arm(sc, EventBackend::Heap, OracleMode::Count, None);
    lit_heap.oracle_drain_check();
    let violations = lit_heap.oracle_violations();
    if violations > 0 {
        return Err(format!(
            "oracle: {violations} violation(s): {:?}",
            lit_heap.oracle_totals()
        ));
    }
    let base = snapshot(&lit_heap, &ids);
    // The heap ran with its sorted-run lanes, these two have none: same
    // deliveries from the same number of events.
    for (backend, name) in [
        (EventBackend::Calendar, "calendar"),
        (EventBackend::Wheel, "wheel"),
    ] {
        let (net, net_ids) = arm(sc, backend, OracleMode::Off, None);
        if snapshot(&net, &net_ids) != base || net.event_count() != lit_heap.event_count() {
            return Err(format!("{name} event backend diverges from heap"));
        }
    }
    let vc = sc.with_discipline("virtualclock")?;
    let (vc_net, vc_ids) = arm(&vc, EventBackend::Heap, OracleMode::Off, None);
    if snapshot(&vc_net, &vc_ids) != base {
        return Err("virtualclock diverges from leave-in-time with d = L/r".into());
    }
    // Sharded-executor determinism: different shard counts must agree
    // with each other packet for packet and violation for violation
    // (falls back to one shard — still a valid identity — when the
    // scenario's links have zero propagation).
    let (mut sh2, sh2_ids) = arm(sc, EventBackend::Heap, OracleMode::Count, Some(2));
    let (mut sh7, sh7_ids) = arm(sc, EventBackend::Heap, OracleMode::Count, Some(7));
    sh2.oracle_drain_check();
    sh7.oracle_drain_check();
    if snapshot(&sh2, &sh2_ids) != snapshot(&sh7, &sh7_ids) {
        return Err("sharded executor diverges between 2 and 7 shards".into());
    }
    if sh2.oracle_violations() != sh7.oracle_violations() {
        return Err(format!(
            "sharded oracle totals diverge: 2 shards {:?} vs 7 shards {:?}",
            sh2.oracle_totals(),
            sh7.oracle_totals()
        ));
    }
    Ok(())
}

/// Greedily minimize a failing scenario: drop sessions one at a time,
/// then halve the horizon (never below 50 ms), keeping the failure alive
/// at every step.
pub fn shrink(mut sc: Scenario) -> Scenario {
    loop {
        let mut progressed = false;
        for i in 0..sc.sessions.len() {
            if sc.sessions.len() == 1 {
                break;
            }
            let mut cand = sc.clone();
            cand.sessions.remove(i);
            if check(&cand).is_err() {
                sc = cand;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    loop {
        let half_ms = u64::try_from(sc.horizon.as_ps() as u128 / 2_000_000_000)
            .expect("halved horizon fits u64 ms");
        if half_ms < 50 {
            break;
        }
        let mut cand = sc.clone();
        cand.horizon = Duration::from_ms(half_ms);
        if check(&cand).is_err() {
            sc = cand;
        } else {
            break;
        }
    }
    sc
}

/// Write a minimized failure as a replayable scenario file; returns the
/// path (best-effort: I/O errors are reported on stderr, not fatal).
pub fn write_failure(dir: &Path, seed: u64, why: &str, sc: &Scenario) -> PathBuf {
    let path = dir.join(format!("case_{seed:016x}.scn"));
    let text = format!("# fuzz_diff failure, seed {seed}: {why}\n{}", sc.to_text());
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("fuzz: cannot write {}: {e}", path.display());
    }
    path
}

/// Re-run the three differential arms of `sc` with a local tracing probe
/// and return each arm's trailing `BUNDLE_TAIL` (50) lifecycle events. Used
/// only on failures, so the extra runs cost nothing on the hot path.
pub fn trace_arms(sc: &Scenario) -> Vec<(String, Vec<TraceEvent>)> {
    let stats = Some(fuzz_stats());
    let mut arms: Vec<(String, Scenario, EventBackend)> = vec![
        ("lit-heap".into(), sc.clone(), EventBackend::Heap),
        ("lit-calendar".into(), sc.clone(), EventBackend::Calendar),
        ("lit-wheel".into(), sc.clone(), EventBackend::Wheel),
    ];
    if let Ok(vc) = sc.with_discipline("virtualclock") {
        arms.push(("vc-heap".into(), vc, EventBackend::Heap));
    }
    arms.into_iter()
        .map(|(label, arm, backend)| {
            let (mut net, _) = arm.run_probed(
                &RunOptions {
                    backend: Some(backend),
                    stats,
                    oracle: OracleMode::Off,
                    shards: None,
                    regulator: None,
                },
                Some(Box::new(ObsProbe::new(BUNDLE_TAIL))),
            );
            let tail = net
                .take_probe()
                .and_then(|p| {
                    p.as_any()
                        .and_then(|a| a.downcast_ref::<ObsProbe>())
                        .map(|o| o.trace.last_n(BUNDLE_TAIL))
                })
                .unwrap_or_default();
            (label, tail)
        })
        .collect()
}

/// Write the per-arm trace tails of a divergence next to its `.scn` file
/// as JSONL, one event per line with a leading `"arm"` field. Returns the
/// path (best-effort, like [`write_failure`]).
pub fn write_trace_bundle(dir: &Path, seed: u64, arms: &[(String, Vec<TraceEvent>)]) -> PathBuf {
    let path = dir.join(format!("case_{seed:016x}.trace.jsonl"));
    let mut body = String::new();
    for (label, events) in arms {
        for e in events {
            body.push_str(&lit_obs::trace::jsonl_line_tagged(label, e));
            body.push('\n');
        }
    }
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("fuzz: cannot write {}: {e}", path.display());
    }
    path
}

/// A campaign's outcome.
#[derive(Debug)]
pub struct FuzzReport {
    /// Cases actually run (may stop early on `wall_budget`).
    pub cases: u64,
    /// `(case seed, first divergence, minimized .scn path)` per failure.
    pub failures: Vec<(u64, String, PathBuf)>,
}

/// Run `cases` generated cases starting from `master` (stopping early if
/// `wall_budget` elapses), minimizing and recording every failure under
/// `out_dir`.
pub fn campaign(
    master: u64,
    cases: u64,
    wall_budget: Option<std::time::Duration>,
    out_dir: &Path,
) -> FuzzReport {
    let start = std::time::Instant::now();
    let mut failures = Vec::new();
    let mut ran = 0;
    for case in 0..cases {
        if let Some(budget) = wall_budget {
            if start.elapsed() >= budget {
                eprintln!("fuzz: wall budget reached after {ran} case(s)");
                break;
            }
        }
        let seed = case_seed(master, case);
        let sc = generate(seed);
        if let Err(why) = check(&sc) {
            eprintln!("fuzz: case {case} (seed {seed:#018x}) FAILED: {why}");
            let min = shrink(sc);
            let path = write_failure(out_dir, seed, &why, &min);
            write_trace_bundle(out_dir, seed, &trace_arms(&min));
            failures.push((seed, why.clone(), path));
        }
        ran += 1;
        if ran % 100 == 0 {
            eprintln!(
                "fuzz: {ran}/{cases} cases, {} failure(s), {:.1}s",
                failures.len(),
                start.elapsed().as_secs_f64()
            );
        }
    }
    FuzzReport {
        cases: ran,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_round_trip_and_stay_admissible() {
        for case in 0..32 {
            let sc = generate(case_seed(0xF00D, case));
            let text = sc.to_text();
            let back =
                Scenario::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back, sc, "case {case} round-trip\n{text}");
            // Admission validity: reserved rates fit every node's link.
            for node in 0..sc.nodes {
                let sum: u64 = sc
                    .sessions
                    .iter()
                    .filter(|s| s.first <= node && node <= s.last)
                    .map(|s| s.rate)
                    .sum();
                assert!(sum * 10 <= sc.link.rate_bps * 8, "node {node} over-booked");
            }
        }
    }

    #[test]
    fn one_case_runs_clean() {
        let sc = generate(case_seed(1, 0));
        check(&sc).unwrap();
    }

    #[test]
    fn forced_divergence_writes_trace_bundle() {
        // Jitter control breaks the LiT ≡ VirtualClock premise: with two
        // hops, LiT holds ahead-of-schedule packets at the second node
        // while VirtualClock forwards them immediately.
        let sc = Scenario {
            nodes: 2,
            link: LinkParams::paper_t1(),
            discipline: crate::scenario::DisciplineChoice::Lit,
            queue: lit_net::QueueKind::Exact,
            backend: EventBackend::Heap,
            seed: 7,
            sessions: vec![SessionLine {
                first: 0,
                last: 1,
                rate: 64_000,
                jc: true,
                d: None,
                shape: None,
                source: SourceSpec::Cbr {
                    gap: Duration::from_ms(10),
                    len: 424,
                    offset: Duration::from_ns(0),
                },
                path: None,
            }],
            generators: Vec::new(),
            regulator: lit_net::RegulatorBackend::PerSession,
            horizon: Duration::from_ms(200),
        };
        let why = check(&sc).expect_err("jc session must diverge from VirtualClock");
        assert!(why.contains("virtualclock"), "unexpected failure: {why}");
        let arms = trace_arms(&sc);
        assert_eq!(arms.len(), 4, "all four arms traced");
        assert!(arms.iter().all(|(_, evs)| !evs.is_empty()));
        let dir = std::env::temp_dir().join(format!("lit_fuzz_bundle_{}", std::process::id()));
        let path = write_trace_bundle(&dir, 0xDEAD, &arms);
        let body = std::fs::read_to_string(&path).expect("bundle written");
        let mut arms_seen = std::collections::BTreeSet::new();
        for line in body.lines() {
            let v = lit_obs::json::Value::parse(line)
                .unwrap_or_else(|e| panic!("bundle line does not parse ({e}): {line}"));
            let arm = v.get("arm").and_then(|a| a.as_str()).expect("arm tag");
            arms_seen.insert(arm.to_string());
            assert!(v.get("k").is_some(), "event kind present: {line}");
            assert!(v.get("t_ps").is_some(), "timestamp present: {line}");
        }
        assert_eq!(arms_seen.len(), 4, "every arm contributes events");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn comparison_is_not_vacuous() {
        // The differential check is only meaningful if cases actually
        // deliver packets and the delivery log captures them.
        let mut logged = 0usize;
        for case in 0..16 {
            let sc = generate(case_seed(3, case));
            let (net, ids) = sc.run_probed(
                &RunOptions {
                    backend: None,
                    stats: Some(fuzz_stats()),
                    oracle: OracleMode::Off,
                    shards: None,
                    regulator: None,
                },
                None,
            );
            for id in &ids {
                let st = net.session_stats(*id);
                assert_eq!(st.deliveries.len() as u64, st.delivered.min(1 << 16));
                logged += st.deliveries.len();
            }
        }
        assert!(logged > 1_000, "only {logged} deliveries over 16 cases");
    }
}
