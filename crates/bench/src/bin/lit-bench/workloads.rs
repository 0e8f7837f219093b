//! The five workloads, their benchmark-owned inputs, and the check pass.
//!
//! Scenario texts are copies kept inside this directory (`scenarios/`),
//! so an edit under the repository's own `scenarios/` cannot silently
//! change what the benchmark measures; a test pins each copy to its
//! original except for the `run`/`seed` lines.

use crate::estimator::SLICES;
use crate::spans::Tracer;
use crate::storm::StormPlan;
use crate::Metric;
use lit_baselines::FcfsDiscipline;
use lit_core::{install_oracle_bounds, LitDiscipline, PathBounds};
use lit_net::{
    LinkParams, Network, NetworkBuilder, NodeId, OracleConfig, OracleMode, Probe, RegulatorBackend,
    SessionId, SessionSpec, StatsConfig,
};
use lit_repro::scenario::{RunOptions, Scenario};
use lit_sim::{Duration, Time};
use lit_traffic::DeterministicSource;

/// A workload's name and the one-line reason it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Every workload, in the order `all` runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cross_paper",
        why: "paper Fig. 8 CROSS at 600 s: rho 0.98 Poisson cross traffic, deep eligible queues, \
              RNG-heavy sources, shallow event set; kernel + eligible queue + sources + histograms",
    },
    Workload {
        name: "tandem_jc",
        why: "rho 0.8 CBR ladder tandem, 36 sessions over 8 hops: sources nearly free, one in six \
              events a per-session regulator release; regulator + arrive/forward path",
    },
    Workload {
        name: "tandem_il",
        why: "the same tandem under the interleaved regulator (one head-gated FIFO per node): a \
              gain for one regulator backend that costs the other shows here",
    },
    Workload {
        name: "sessions_100k",
        why: "100 000 CBR sessions on a 2-node tandem: event set 1e5 deep, working set far beyond \
              LLC; event-set backend, session-table layout, bytes/session, set-up and RSS",
    },
    Workload {
        name: "ac3_storm",
        why: "Ac3Fast admit/release churn at 100 000 residents on the ineq.-19 edge: no simulator \
              layer runs, so executor optimisations must leave it unchanged",
    },
];

const CROSS_TEXT: &str = include_str!("scenarios/cross_paper.scn");
const TANDEM_TEXT: &str = include_str!("scenarios/tandem.scn");
/// The committed ρ = 1.2 fixture: the check pass's negative control.
#[cfg(test)]
const OVERLOAD_TEXT: &str = include_str!("scenarios/overload.scn");

/// Horizons of the scenario workloads; each copy's `run` line says the same.
const CROSS_HORIZON_S: u64 = 600;
const TANDEM_HORIZON_S: u64 = 400;
/// ROADMAP item 1's ρ = 0.8 rung of the ladder, in basis points.
const TANDEM_RHO_BP: u32 = 8_000;

/// `sessions_100k`: session count, horizon, and default seed. The first
/// packet of a session leaves one 35 s gap (plus its phase) after the
/// start, so a twentieth of the horizon would inject nothing: the quick
/// horizon is an eighth.
const SESSIONS: u32 = 100_000;
const SESSIONS_HORIZON_S: u64 = 600;
const SESSIONS_QUICK_HORIZON_S: u64 = 75;
const SESSIONS_SEED: u64 = 1;

/// Default churn seed of `ac3_storm`.
const STORM_SEED: u64 = 1;

/// The paper's Fig. 8 jitter, ms: session 0 (no control), session 1 (jc).
const PAPER_JITTER_MS: [f64; 2] = [59.7, 12.4];

/// A workload ready to be set up: parameters resolved, seed applied.
pub enum Plan {
    Net(NetPlan),
    Storm(StormPlan),
}

/// Resolve `name` into a plan. `seed` overrides the workload's own seed;
/// `quick` cuts the work to a twentieth.
pub fn plan(
    name: &str,
    seed: Option<u64>,
    quick: bool,
) -> Result<(&'static Workload, Plan), String> {
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == name) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload '{name}' (one of: {})",
            names.join(", ")
        ));
    };
    let scale = if quick { 20 } else { 1 };
    let text = |text: &str, horizon_s: u64, rho_bp, regulator, source| NetPlan {
        seed: seed.unwrap_or_else(|| seed_directive(text)),
        input: NetInput::Text {
            text: seed.map_or_else(|| text.to_string(), |s| with_seed(text, s)),
            rho_bp,
            regulator,
        },
        horizon: Duration::from_secs(horizon_s) / scale,
        source,
    };
    let tandem = |regulator| {
        let rho = Some(TANDEM_RHO_BP);
        Plan::Net(text(
            TANDEM_TEXT,
            TANDEM_HORIZON_S,
            rho,
            regulator,
            SourceModel::Cbr,
        ))
    };
    let plan = match name {
        "cross_paper" => Plan::Net(text(
            CROSS_TEXT,
            CROSS_HORIZON_S,
            None,
            None,
            SourceModel::PaperCross,
        )),
        "tandem_jc" => tandem(None),
        "tandem_il" => tandem(Some(RegulatorBackend::Interleaved)),
        "sessions_100k" => Plan::Net(NetPlan {
            seed: seed.unwrap_or(SESSIONS_SEED),
            input: NetInput::Sessions { n: SESSIONS },
            horizon: Duration::from_secs(if quick {
                SESSIONS_QUICK_HORIZON_S
            } else {
                SESSIONS_HORIZON_S
            }),
            source: SourceModel::Cbr,
        }),
        _ => Plan::Storm(StormPlan::new(seed.unwrap_or(STORM_SEED), quick)),
    };
    Ok((workload, plan))
}

/// The value of the text's `seed` directive (0, the format's default, if absent).
fn seed_directive(text: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix("seed "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// `text` with its `seed` directive rewritten to `seed`.
fn with_seed(text: &str, seed: u64) -> String {
    text.lines()
        .map(|l| {
            if l.starts_with("seed ") {
                format!("seed {seed}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect()
}

impl Plan {
    pub fn seed(&self) -> u64 {
        match self {
            Plan::Net(p) => p.seed,
            Plan::Storm(p) => p.seed,
        }
    }

    /// Set up the timed configuration: oracle off, no probe, default
    /// engine. This call is what `setup_s` times.
    pub fn setup(&self, tr: &mut Tracer) -> Box<dyn Instance> {
        match self {
            Plan::Net(p) => Box::new(p.instance(Variant::default(), tr)),
            Plan::Storm(p) => Box::new(p.setup()),
        }
    }

    /// The check pass (see [`Check`]).
    pub fn check(&self, tr: &mut Tracer) -> Check {
        match self {
            Plan::Net(p) => p.check(tr),
            Plan::Storm(p) => p.check(),
        }
    }
}

/// A set-up workload that advances slice by slice.
pub trait Instance {
    /// Do the work of slice `slice` (they are asked for in order);
    /// returns the events completed since set-up began.
    fn advance(&mut self, slice: usize) -> u64;
    /// Digest of the simulated outcome so far.
    fn digest(&self) -> u64;
    /// Span name of one `advance` call.
    fn slice_span(&self) -> &'static str;
    /// Sessions (or residents) set up; what bytes-per-head divides by.
    fn population(&self) -> u32;
}

impl<I: Instance + ?Sized> Instance for Box<I> {
    fn advance(&mut self, slice: usize) -> u64 {
        (**self).advance(slice)
    }
    fn digest(&self) -> u64 {
        (**self).digest()
    }
    fn slice_span(&self) -> &'static str {
        (**self).slice_span()
    }
    fn population(&self) -> u32 {
        (**self).population()
    }
}

/// What the check pass found. `ops` operations were attempted and
/// `failed_ops` of them (or of the invariants checked over them) failed.
pub struct Check {
    pub ops: u64,
    pub failed_ops: u64,
    /// Cumulative event count after each slice.
    pub slice_events: Vec<u64>,
    pub digest: u64,
    /// `simstat.*` and `oracle.violations`.
    pub stats: Vec<Metric>,
}

/// Where a network workload's sessions come from.
pub enum NetInput {
    /// Scenario text, optionally re-targeted to another load and run
    /// under another regulator.
    Text {
        text: String,
        rho_bp: Option<u32>,
        regulator: Option<RegulatorBackend>,
    },
    /// `n` CBR sessions on a 2-node T1 tandem, built with `NetworkBuilder`.
    Sessions { n: u32 },
}

/// A network workload.
pub struct NetPlan {
    pub seed: u64,
    pub input: NetInput,
    pub horizon: Duration,
    pub source: SourceModel,
}

/// What feeds the sessions, as far as the harness needs to know it.
#[derive(Clone, Copy, PartialEq)]
pub enum SourceModel {
    /// Fig. 8 CROSS: Poisson cross traffic plus the two tagged ON-OFF
    /// voice sessions (ids 0 and 1) the paper reports jitter for.
    PaperCross,
    /// Constant bit rate throughout.
    Cbr,
}

/// Ways a build may differ from the timed configuration. Only options
/// that are not candidates for deletion live here; the knob-dependent
/// arms are in `knobs.rs`.
#[derive(Default)]
pub struct Variant {
    pub oracle: OracleMode,
    pub stats: Option<StatsConfig>,
    pub fcfs: bool,
    pub probe: Option<Box<dyn Probe>>,
}

impl NetPlan {
    /// Parse and expand the scenario text (`None` for `Sessions`).
    pub fn scenario(&self, tr: &mut Tracer) -> Option<Scenario> {
        let NetInput::Text { text, rho_bp, .. } = &self.input else {
            return None;
        };
        let sc = tr.span("repro.parse", |_| {
            Scenario::parse(text).expect("benchmark-owned scenario text parses")
        });
        Some(tr.span("repro.expand", |_| match rho_bp {
            Some(rho) => sc.with_rho(*rho).expanded(),
            None => sc.expanded(),
        }))
    }

    /// Statistics sizing of the timed configuration.
    pub fn stats(&self) -> StatsConfig {
        match self.input {
            NetInput::Text { .. } => StatsConfig::default(),
            NetInput::Sessions { .. } => StatsConfig::compact(),
        }
    }

    /// Run options of the timed configuration under `v`.
    pub fn options(&self, v: &Variant) -> RunOptions {
        RunOptions {
            oracle: v.oracle,
            stats: v.stats,
            regulator: match &self.input {
                NetInput::Text { regulator, .. } => *regulator,
                NetInput::Sessions { .. } => None,
            },
            ..RunOptions::default()
        }
    }

    /// The `Sessions` builder with every session added (`None` for `Text`):
    /// reserved rate 0.8·C/n each, every second one jitter-controlled,
    /// phases spread over one gap plus 37 ns so no two events ever tie.
    pub fn builder(&self) -> Option<NetworkBuilder> {
        let NetInput::Sessions { n } = self.input else {
            return None;
        };
        let link = LinkParams::paper_t1();
        let mut b = NetworkBuilder::new().seed(self.seed).stats(self.stats());
        let nodes = b.tandem(2, link);
        let rate = link.rate_bps * 8 / 10 / u64::from(n);
        let gap = Duration::from_bits_at_rate(424, rate);
        for i in 0..u64::from(n) {
            let mut spec = SessionSpec::atm(SessionId(0), rate);
            spec.jitter_control = i % 2 == 1;
            let offset = gap * i / u64::from(n) + Duration::from_ns(37);
            let source = DeterministicSource::new(gap, 424).with_offset(offset);
            b.add_session(spec, &nodes, Box::new(source));
        }
        Some(b)
    }

    /// Workload text/parameters → built network with its first events
    /// scheduled (`run_until(0)`).
    pub fn build(&self, v: Variant, tr: &mut Tracer) -> Network {
        let Some(sc) = self.scenario(tr) else {
            return tr.span("net.build", |_| {
                finish_builder(self.builder().expect("a plan is Text or Sessions"), v)
            });
        };
        let opts = self.options(&v);
        let sc = if v.fcfs {
            sc.with_discipline("fcfs").expect("fcfs is a discipline")
        } else {
            sc
        };
        tr.span("net.build", |_| {
            sc.with_horizon(Duration::ZERO).run_probed(&opts, v.probe).0
        })
    }

    /// [`NetPlan::build`] wrapped for slice-by-slice running.
    pub fn instance(&self, v: Variant, tr: &mut Tracer) -> NetInstance {
        NetInstance::new(self.build(v, tr), self.horizon)
    }

    /// The check pass: the whole horizon under `OracleMode::Count`, then
    /// the drain-time checks. `failed_ops` = violations + drain failures.
    fn check(&self, tr: &mut Tracer) -> Check {
        let v = Variant {
            oracle: OracleMode::Count,
            ..Variant::default()
        };
        let mut inst = self.instance(v, tr);
        let slice_events = (0..SLICES)
            .map(|i| tr.span("net.run_until", |_| inst.advance(i)))
            .collect();
        // The drain check counts its own findings into the totals, so
        // `oracle_violations` afterwards already includes them.
        tr.span("net.oracle_drain_check", |_| inst.net.oracle_drain_check());
        let violations = inst.net.oracle_violations();
        let mut stats = self.sim_stats(&inst.net);
        stats.push(Metric::new("oracle.violations", violations as f64, "count"));
        Check {
            ops: sum_sessions(&inst.net, |st| st.injected),
            failed_ops: violations,
            slice_events,
            digest: inst.digest(),
            stats,
        }
    }

    /// Exact statistics of the simulated network (`simstat.*`).
    fn sim_stats(&self, net: &Network) -> Vec<Metric> {
        let sessions = || (0..net.num_sessions() as u32).map(SessionId);
        let stat = |id| net.session_stats(id);
        let max_delay = sessions().filter_map(|id| stat(id).max_delay()).max();
        let jitter = sessions().filter_map(|id| stat(id).jitter()).max();
        let bound_use_ppm = sessions()
            .filter_map(|id| {
                let shift = PathBounds::for_session(net, id).shift_ps();
                let excess = stat(id).max_excess()?.max(0);
                (shift > 0).then(|| excess * 1_000_000 / shift)
            })
            .max();
        let now_ps = u128::from(net.now().as_ps()).max(1);
        let utilization_ppm = (0..net.num_nodes() as u32)
            .map(|n| {
                let busy = net.node_stats(NodeId(n)).busy.busy_at(net.now());
                u128::from(busy.as_ps()) * 1_000_000 / now_ps
            })
            .max();
        let us = |d: Option<Duration>| d.map_or(0.0, |d| d.as_ps() as f64 / 1e6);
        let mut out = vec![
            Metric::new(
                "simstat.injected",
                sum_sessions(net, |s| s.injected) as f64,
                "count",
            ),
            Metric::new(
                "simstat.delivered",
                sum_sessions(net, |s| s.delivered) as f64,
                "count",
            ),
            Metric::new("simstat.max_delay_us", us(max_delay), "us"),
            Metric::new("simstat.jitter_us", us(jitter), "us"),
            Metric::new(
                "simstat.bound_use_ppm",
                bound_use_ppm.unwrap_or(0) as f64,
                "ppm",
            ),
            Metric::new(
                "simstat.utilization_ppm",
                utilization_ppm.unwrap_or(0) as f64,
                "ppm",
            ),
        ];
        if self.source == SourceModel::PaperCross {
            let err = PAPER_JITTER_MS
                .iter()
                .zip(sessions())
                .map(|(paper, id)| {
                    let ms = stat(id).jitter().map_or(0.0, |j| j.as_millis_f64());
                    100.0 * (ms - paper).abs() / paper
                })
                .fold(0.0, f64::max);
            out.push(Metric::new("simstat.paper_jitter_err_pct", err, "%"));
        }
        out
    }
}

/// Build a `Sessions` builder under `v`, as `Scenario::run_probed` does
/// for text: oracle bounds installed when the oracle is on, then the
/// first events scheduled.
pub fn finish_builder(mut b: NetworkBuilder, v: Variant) -> Network {
    b = b.oracle(OracleConfig::new(v.oracle));
    if let Some(stats) = v.stats {
        b = b.stats(stats);
    }
    if let Some(p) = v.probe {
        b = b.probe(p);
    }
    let mut net = if v.fcfs {
        b.build(&FcfsDiscipline::factory())
    } else {
        b.build(&LitDiscipline::factory())
    };
    if v.oracle != OracleMode::Off {
        install_oracle_bounds(&mut net);
    }
    net.run_until(Time::ZERO);
    net
}

fn sum_sessions(net: &Network, f: impl Fn(&lit_net::SessionStats) -> u64) -> u64 {
    (0..net.num_sessions() as u32)
        .map(|i| f(net.session_stats(SessionId(i))))
        .sum()
}

/// A built network advanced by growing `run_until` horizons.
pub struct NetInstance {
    pub net: Network,
    horizon: Duration,
}

impl NetInstance {
    pub fn new(net: Network, horizon: Duration) -> Self {
        NetInstance { net, horizon }
    }
}

impl Instance for NetInstance {
    fn advance(&mut self, slice: usize) -> u64 {
        let until = self.horizon * (slice as u64 + 1) / SLICES as u64;
        self.net.run_until(Time::ZERO + until);
        self.net.event_count()
    }

    /// Everything the statistics hold that a behaviour change would move:
    /// per-session counts, delay extremes and full delay histogram, the
    /// reference-server maximum, per-hop buffer maxima; per-node traffic,
    /// lateness and busy time; and the event count.
    fn digest(&self) -> u64 {
        let net = &self.net;
        let mut h = Fnv::new();
        h.word(net.event_count());
        for i in 0..net.num_sessions() as u32 {
            let st = net.session_stats(SessionId(i));
            let ps = |d: Option<Duration>| d.map_or(u64::MAX, |d| d.as_ps());
            h.word(st.injected);
            h.word(st.delivered);
            h.word(ps(st.e2e.min()));
            h.word(ps(st.e2e.max()));
            h.word(ps(st.reference.max()));
            h.word(st.max_excess_ps as u64);
            for &c in st.e2e.bin_counts() {
                h.word(c);
            }
            for b in &st.buffer {
                h.word(b.max_bits());
            }
        }
        for n in 0..net.num_nodes() as u32 {
            let st = net.node_stats(NodeId(n));
            h.word(st.transmitted);
            h.word(st.bits_transmitted);
            h.word(st.max_lateness_ps as u64);
            h.word(st.busy.busy_at(net.now()).as_ps());
        }
        h.finish()
    }

    fn slice_span(&self) -> &'static str {
        "net.run_until"
    }

    fn population(&self) -> u32 {
        self.net.num_sessions() as u32
    }
}

/// Word-wise FNV-1a, for digests.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sans_run_and_seed(text: &str) -> Vec<&str> {
        text.lines()
            .filter(|l| !l.starts_with("run ") && !l.starts_with("seed "))
            .collect()
    }

    #[test]
    fn copies_equal_their_originals_except_run_and_seed() {
        // Paths relative to this file: the same in both packages the
        // sources build as.
        for (copy, name, original) in [
            (
                CROSS_TEXT,
                "fig8_cross.scn",
                include_str!("../../../../../scenarios/fig8_cross.scn"),
            ),
            (
                TANDEM_TEXT,
                "gen_tandem_ladder.scn",
                include_str!("../../../../../scenarios/gen_tandem_ladder.scn"),
            ),
            (
                OVERLOAD_TEXT,
                "overload_rho120.scn",
                include_str!("../../../../../scenarios/overload_rho120.scn"),
            ),
        ] {
            assert_eq!(
                sans_run_and_seed(copy),
                sans_run_and_seed(original),
                "{name} drifted from the benchmark's copy"
            );
        }
    }

    #[test]
    fn run_lines_state_the_horizons_the_plans_use() {
        assert!(CROSS_TEXT.contains(&format!("\nrun {CROSS_HORIZON_S}s\n")));
        assert!(TANDEM_TEXT.contains(&format!("\nrun {TANDEM_HORIZON_S}s\n")));
    }

    #[test]
    fn seed_flag_rewrites_the_directive_and_nothing_else() {
        assert_eq!(seed_directive(CROSS_TEXT), 7);
        let rewritten = with_seed(CROSS_TEXT, 99);
        assert_eq!(seed_directive(&rewritten), 99);
        assert_eq!(sans_run_and_seed(&rewritten), sans_run_and_seed(CROSS_TEXT));
        let Ok((_, Plan::Net(p))) = plan("cross_paper", Some(99), true) else {
            panic!("cross_paper is a network workload");
        };
        assert_eq!(p.seed, 99);
        assert!(plan("nope", None, true).is_err());
    }

    /// Negative control: the committed overload fixture through the same
    /// check pass must fail operations, or the pass has lost its teeth.
    #[test]
    fn overload_fixture_fails_the_check_pass() {
        let p = NetPlan {
            seed: seed_directive(OVERLOAD_TEXT),
            input: NetInput::Text {
                text: OVERLOAD_TEXT.to_string(),
                rho_bp: None,
                regulator: None,
            },
            horizon: Duration::from_secs(10),
            source: SourceModel::Cbr,
        };
        let c = p.check(&mut Tracer::off());
        assert!(c.ops > 0);
        assert!(c.failed_ops > 0, "rho = 1.2 ran clean");
    }

    #[test]
    fn every_plan_resolves_and_quick_divides_the_horizon() {
        for w in &WORKLOADS {
            assert!(plan(w.name, None, true).is_ok(), "{}", w.name);
            assert!(
                w.why.len() <= 200,
                "{} why is over the contract's 200",
                w.name
            );
        }
        let (Ok((_, Plan::Net(full))), Ok((_, Plan::Net(quick)))) = (
            plan("tandem_jc", None, false),
            plan("tandem_jc", None, true),
        ) else {
            panic!("tandem_jc is a network workload");
        };
        assert_eq!(full.horizon, quick.horizon * 20);
    }
}
