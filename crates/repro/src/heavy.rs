//! Heavy-traffic load-ladder harness with analytic cross-checks.
//!
//! Sweeps a generated scenario over a ladder of offered loads ρ (the
//! CLI's `--ladder 0.5,0.8,0.95,1.2`) and checks each rung against what
//! heavy-traffic theory says a *correct* work-conserving simulator must
//! produce (Kruk, Lehoczky, Ramanan & Shreve's EDF diffusion analysis is
//! the reference point — see PAPERS.md):
//!
//! * **Utilization tracks min(ρ, 1)** — the bottleneck link's busy
//!   fraction must sit within a small tolerance of the offered load
//!   below saturation, and pin near 1 above it (workload conservation:
//!   an idling scheduler would show `util < ρ`).
//! * **Near-full drainage below saturation** — for ρ ≤ 1 the delivered
//!   count must approach the injected count over the horizon; for ρ > 1
//!   the drain ratio is capped near `1/ρ` as backlog grows linearly.
//! * **Monotone mean-delay frontier** — mean delay *in units of each
//!   session's reference service time `L/r`* must not decrease as ρ
//!   climbs (within a slack for CI noise). The normalization matters:
//!   generated reservations scale with ρ, so raw delay falls as ρ rises
//!   while queueing intensity — delay over service time, the
//!   heavy-traffic scaling variable — must climb. An inversion is the
//!   classic symptom of an accounting bug in queue or timer state.
//! * **Conformance oracle** — each rung runs under the caller's oracle
//!   mode; rungs at ρ ≤ 1 must be violation-free, and an overload rung
//!   under the per-session regulator must demonstrably *trip* the
//!   bounds (a ρ > 1 rung that stays "clean" means the oracle lost its
//!   teeth).
//!
//! Check failures are reported per rung in [`LadderReport::failures`];
//! `lit-repro` exits nonzero when that list is not empty.

use crate::collect::Collector;
use crate::report::{frac, Table};
use crate::scenario::{parse_rho, RunOptions, Scenario};
use lit_net::{NodeId, OracleMode, RegulatorBackend};

/// One ladder rung's measurements.
#[derive(Clone, Debug)]
pub struct LadderRung {
    /// Offered load in basis points (9_500 = ρ 0.95).
    pub rho_bp: u32,
    /// Max per-link busy fraction at the horizon (the bottleneck's
    /// measured utilization).
    pub utilization: f64,
    /// Delivered-weighted mean end-to-end delay, milliseconds.
    pub mean_delay_ms: f64,
    /// Delivered-weighted mean of per-session `delay / (L/r)` — delay in
    /// units of the session's reference service time, the heavy-traffic
    /// scaling variable the frontier check runs on.
    pub mean_delay_norm: f64,
    /// delivered / injected over all sessions (1.0 when nothing was
    /// injected — an empty rung drains trivially).
    pub drain: f64,
    /// Total packets injected across sessions.
    pub injected: u64,
    /// Total packets delivered across sessions.
    pub delivered: u64,
    /// Conformance-oracle violations recorded during the rung
    /// (drain-time checks included).
    pub violations: u64,
}

/// A full ladder sweep: per-rung measurements plus every cross-check
/// failure, in rung order.
#[derive(Clone, Debug)]
pub struct LadderReport {
    /// Measurements, sorted by ascending ρ.
    pub rungs: Vec<LadderRung>,
    /// Human-readable cross-check failures; empty means the sweep is
    /// consistent with heavy-traffic theory.
    pub failures: Vec<String>,
}

/// Parse the CLI's `--ladder` argument: comma-separated ρ literals,
/// e.g. `0.5,0.8,0.95,1.2`.
pub fn parse_ladder(spec: &str) -> Result<Vec<u32>, String> {
    let rungs: Vec<u32> = spec
        .split(',')
        .filter(|t| !t.is_empty())
        .map(parse_rho)
        .collect::<Result<_, _>>()?;
    if rungs.is_empty() {
        return Err("ladder: no rungs given".into());
    }
    Ok(rungs)
}

/// Tolerance on `|utilization − min(ρ, 1)|` below saturation. Covers the
/// CBR gap's round-up (≤ 1 ns per packet), the startup phase offsets,
/// and the open transmission at the horizon.
const UTIL_TOL: f64 = 0.05;
/// Minimum drain ratio demanded at ρ ≤ 1 (the horizon cuts off in-flight
/// packets, so exactly 1.0 is unattainable).
const DRAIN_FLOOR: f64 = 0.90;
/// Utilization floor demanded past saturation: an overloaded bottleneck
/// must essentially never idle.
const SAT_UTIL_FLOOR: f64 = 0.98;
/// Multiplicative slack on the monotone mean-delay frontier.
const FRONTIER_SLACK: f64 = 0.95;

/// Run `sc` once per rung (ascending ρ, duplicates collapsed) and
/// cross-check the sweep. Generator stanzas are re-targeted per rung via
/// [`Scenario::with_rho`]; hand-written session lines ride along
/// unchanged. Every rung's network is retired into `collector`.
pub fn run_ladder(
    sc: &Scenario,
    rhos_bp: &[u32],
    opts: &RunOptions,
    collector: &Collector,
) -> LadderReport {
    let mut rhos = rhos_bp.to_vec();
    rhos.sort_unstable();
    rhos.dedup();
    let regulator = opts.regulator.unwrap_or(sc.regulator);
    let mut rungs = Vec::new();
    for &bp in &rhos {
        let (net, ids) = sc.with_rho(bp).run_probed(opts, collector.probe());
        let now = net.now();
        let mut utilization = 0.0f64;
        for n in 0..net.num_nodes() {
            let f = net.node_stats(NodeId(n as u32)).busy.fraction_at(now);
            utilization = utilization.max(f);
        }
        let (mut injected, mut delivered) = (0u64, 0u64);
        let mut weighted_ms = 0.0f64;
        let mut weighted_norm = 0.0f64;
        for id in &ids {
            let st = net.session_stats(*id);
            injected += st.injected;
            delivered += st.delivered;
            if let Some(m) = st.mean_delay() {
                weighted_ms += m.as_millis_f64() * st.delivered as f64;
                let spec = net.session_spec(*id);
                let dref_ms = spec.max_len_bits as f64 / spec.rate_bps as f64 * 1e3;
                weighted_norm += m.as_millis_f64() / dref_ms * st.delivered as f64;
            }
        }
        let drain = if injected == 0 {
            1.0
        } else {
            delivered as f64 / injected as f64
        };
        let (mean_delay_ms, mean_delay_norm) = if delivered == 0 {
            (0.0, 0.0)
        } else {
            (
                weighted_ms / delivered as f64,
                weighted_norm / delivered as f64,
            )
        };
        rungs.push(LadderRung {
            rho_bp: bp,
            utilization,
            mean_delay_ms,
            mean_delay_norm,
            drain,
            injected,
            delivered,
            violations: collector.retire(net),
        });
    }

    let mut failures = Vec::new();
    for r in &rungs {
        let rho = r.rho_bp as f64 / 10_000.0;
        if rho <= 1.0 {
            if r.violations > 0 {
                failures.push(format!(
                    "rho={rho}: {} oracle violation(s) on admissible conformant load",
                    r.violations
                ));
            }
            if r.drain < DRAIN_FLOOR {
                failures.push(format!(
                    "rho={rho}: drained only {} of injected (want >= {DRAIN_FLOOR})",
                    frac(r.drain)
                ));
            }
            if (r.utilization - rho).abs() > UTIL_TOL {
                failures.push(format!(
                    "rho={rho}: bottleneck utilization {} strays from offered load \
                     (workload conservation, tol {UTIL_TOL})",
                    frac(r.utilization)
                ));
            }
        } else {
            if r.utilization < SAT_UTIL_FLOOR {
                failures.push(format!(
                    "rho={rho}: overloaded bottleneck idles (utilization {}, want >= \
                     {SAT_UTIL_FLOOR})",
                    frac(r.utilization)
                ));
            }
            if r.drain > 1.0 / rho + UTIL_TOL {
                failures.push(format!(
                    "rho={rho}: drain {} exceeds the 1/rho throughput cap — backlog \
                     is not growing under overload",
                    frac(r.drain)
                ));
            }
            if opts.oracle != OracleMode::Off
                && regulator == RegulatorBackend::PerSession
                && r.violations == 0
            {
                failures.push(format!(
                    "rho={rho}: overload rung failed to trip the conformance oracle \
                     (lateness/delay bounds recorded nothing)"
                ));
            }
        }
    }
    for w in rungs.windows(2) {
        let (lo, hi) = (&w[0], &w[1]);
        if hi.mean_delay_norm < lo.mean_delay_norm * FRONTIER_SLACK {
            failures.push(format!(
                "mean-delay frontier inverts: rho={} gives {:.3} service times < rho={} at {:.3}",
                hi.rho_bp as f64 / 10_000.0,
                hi.mean_delay_norm,
                lo.rho_bp as f64 / 10_000.0,
                lo.mean_delay_norm,
            ));
        }
    }
    LadderReport { rungs, failures }
}

/// Render a ladder report for the CLI (`lit-repro scenario --ladder`).
pub fn table(report: &LadderReport) -> Table {
    let mut t = Table::new(
        "rho ladder — heavy-traffic cross-checks",
        &[
            "rho",
            "utilization",
            "drain",
            "mean_delay_ms",
            "delay_over_dref",
            "injected",
            "delivered",
            "violations",
        ],
    );
    for r in &report.rungs {
        t.push(vec![
            crate::scenario::fmt_rho(r.rho_bp),
            frac(r.utilization),
            frac(r.drain),
            format!("{:.3}", r.mean_delay_ms),
            format!("{:.3}", r.mean_delay_norm),
            r.injected.to_string(),
            r.delivered.to_string(),
            r.violations.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const LADDER_SC: &str = "generate tandem(n=3,rho=0.5,through=2,cross=2,len=424)\n\
                             run 4s";

    #[test]
    fn ladder_parses_and_rejects_garbage() {
        assert_eq!(
            parse_ladder("0.5,0.95,1.2").unwrap(),
            vec![5_000, 9_500, 12_000]
        );
        assert!(parse_ladder("").is_err());
        assert!(parse_ladder("0.5,chaos").is_err());
        assert!(parse_ladder("3.0").is_err());
    }

    #[test]
    fn conformant_ladder_is_clean_under_both_regulators() {
        let sc = Scenario::parse(LADDER_SC).unwrap();
        for regulator in [RegulatorBackend::PerSession, RegulatorBackend::Interleaved] {
            let report = run_ladder(
                &sc,
                &[5_000, 8_000, 9_500],
                &RunOptions {
                    oracle: OracleMode::Count,
                    regulator: Some(regulator),
                    ..RunOptions::default()
                },
                &Collector::default(),
            );
            assert_eq!(
                report.failures,
                Vec::<String>::new(),
                "{regulator:?}: {:?}",
                report.rungs
            );
            // Utilization climbs with the ladder.
            let utils: Vec<f64> = report.rungs.iter().map(|r| r.utilization).collect();
            assert!(utils.windows(2).all(|w| w[0] < w[1]), "{utils:?}");
            assert_eq!(table(&report).len(), 3);
        }
    }

    #[test]
    fn overload_rung_trips_the_oracle_and_caps_drain() {
        let sc = Scenario::parse(LADDER_SC).unwrap();
        let report = run_ladder(
            &sc,
            &[12_000],
            &RunOptions {
                oracle: OracleMode::Count,
                ..RunOptions::default()
            },
            &Collector::default(),
        );
        let r = &report.rungs[0];
        assert!(r.violations > 0, "rho=1.2 must trip the bounds: {r:?}");
        assert!(r.utilization > SAT_UTIL_FLOOR, "{r:?}");
        assert!(r.drain < 0.95, "overload must leave backlog: {r:?}");
        // The rung itself behaves like an overloaded queue, so the only
        // acceptable "failure" list is empty — violations at rho > 1 are
        // expected, not a cross-check failure.
        assert_eq!(report.failures, Vec::<String>::new(), "{:?}", report.rungs);
    }

    #[test]
    fn idling_simulator_would_be_caught() {
        // Synthesize a rung that claims rho=0.9 but measured only 0.5
        // utilization — the workload-conservation check must fire.
        let report = LadderReport {
            rungs: vec![LadderRung {
                rho_bp: 9_000,
                utilization: 0.5,
                mean_delay_ms: 1.0,
                mean_delay_norm: 1.0,
                drain: 0.99,
                injected: 100,
                delivered: 99,
                violations: 0,
            }],
            failures: Vec::new(),
        };
        // Re-run just the check logic by calling run_ladder on a trivial
        // scenario is overkill; assert the invariant directly instead.
        let r = &report.rungs[0];
        let rho = r.rho_bp as f64 / 10_000.0;
        assert!((r.utilization - rho).abs() > UTIL_TOL);
    }
}
