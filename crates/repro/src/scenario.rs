//! A small text format for describing and running experiments without
//! recompiling — `lit-repro scenario <file>`.
//!
//! ```text
//! # comment                      (blank lines and #-comments ignored)
//! nodes 5 rate=1536000 prop=1ms lmax=424
//! discipline lit                 # lit | fcfs | virtualclock | wfq |
//!                                # scfq | stop-and-go:frame=10ms |
//!                                # hrr:slots=48 | delay-edd | jitter-edd
//! queue bucket=1ms               # exact (default) | bucket=<duration>
//! seed 42
//! session route=0..4 rate=32000 jc d=2.77ms \
//!         source=onoff(on=352ms,off=650ms,t=13.25ms,len=424)
//! session route=1..1 rate=1472000 source=poisson(gap=0.28804ms,len=424)
//! session route=0..2 rate=64000 shape=64000:1696 \
//!         source=burst(period=50ms,count=10,len=424)
//! run 60s
//! ```
//!
//! Durations accept `s`, `ms`, `us`, `ns` suffixes with decimals.
//! Session options: `jc` (delay-jitter control), `d=<duration>` (fixed
//! per-hop delay; default is `L/r`), `shape=<rate>:<bits>` (pass the
//! source through a token-bucket shaper). Sources: `onoff`, `poisson`,
//! `cbr(gap,len[,offset])`, `burst(period,count,len)`. A zero rate,
//! `lmax`, length, count, gap, period, ON spacing or queue bucket, a
//! shaper that can never pass a packet, and a packet longer than `lmax`
//! (it voids every `L_MAX/C` term of β) are errors at their line, not
//! engine panics.
//!
//! Further directives: `backend heap|calendar|wheel` selects the
//! event-set implementation (default heap; all deliver identically);
//! `regulator per-session|interleaved` selects the eligibility-regulator
//! backend (default per-session — see [`lit_net::RegulatorBackend`];
//! interleaved runs discipline `lit` only, see [`regulator_fits`]). A
//! session may give an explicit node list where `route=A..B` would be
//! contiguous: `session path=0,3,7 ...`.
//!
//! `generate` stanzas expand into whole session populations at a target
//! offered load ρ (see [`Scenario::expanded`]):
//!
//! ```text
//! generate tandem(n=8,rho=0.95,through=4,cross=4,len=424)
//! generate fattree(depth=2,fanout=4,rho=0.9,len=424)
//! generate wan(nodes=12,flows=32,rho=0.8,len=424)
//! ```
//!
//! A parsed
//! [`Scenario`] serializes back to text with [`Scenario::to_text`] — the
//! differential fuzzer uses this to write minimized failures as
//! replayable files.

use crate::collect::Collector;
use crate::report::{ms, Table};
use lit_baselines::{
    EddDiscipline, FcfsDiscipline, HrrDiscipline, ScfqDiscipline, StopAndGoDiscipline,
    VirtualClockDiscipline, WfqDiscipline,
};
use lit_core::{install_oracle_bounds, Ac3Fast, Ac3FastError, LitDiscipline, PathBounds};
use lit_net::{
    DelayAssignment, DisciplineFactory, EventBackend, LinkParams, Network, NetworkBuilder,
    OracleConfig, OracleMode, QueueKind, RegulatorBackend, SessionId, SessionSpec, StatsConfig,
};
use lit_sim::{Duration, ParseDurationError, Time, PS_PER_MS, PS_PER_NS, PS_PER_SEC, PS_PER_US};
use lit_traffic::{
    BurstSource, DeterministicSource, OnOffConfig, OnOffSource, PoissonSource, ShapedSource, Source,
};

/// A parse failure, with the offending 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One verdict of [`Scenario::ac3_vet`]: admitted, or the 0-based node
/// that refused the session and why.
pub type Ac3Verdict = Result<(), (usize, Ac3FastError)>;

/// [`Scenario::ac3_vet`]'s verdicts, counted. *Infeasible* is a decided
/// "no" (test 18, ineq. 19, a zero parameter); *undecided* is a
/// conservative one — [`Ac3FastError::Overflow`] — where the session
/// might have fitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ac3Tally {
    /// Sessions every node on the route accepted.
    pub admitted: usize,
    /// Sessions some node proved inadmissible.
    pub infeasible: usize,
    /// Sessions rejected without a decision.
    pub undecided: usize,
}

impl Ac3Tally {
    /// Count `verdicts`.
    pub fn of(verdicts: &[Ac3Verdict]) -> Self {
        let mut t = Ac3Tally::default();
        for v in verdicts {
            match v {
                Ok(()) => t.admitted += 1,
                Err((_, Ac3FastError::Overflow)) => t.undecided += 1,
                Err((
                    _,
                    Ac3FastError::ZeroParameter
                    | Ac3FastError::RateExceeded
                    | Ac3FastError::Infeasible(_),
                )) => t.infeasible += 1,
            }
        }
        t
    }
}

/// Which discipline the scenario runs under.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum DisciplineChoice {
    Lit,
    Fcfs,
    VirtualClock,
    Wfq,
    Scfq,
    StopAndGo(Duration),
    Hrr(u32),
    DelayEdd,
    JitterEdd,
}

/// One session line.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SessionLine {
    pub(crate) first: usize,
    pub(crate) last: usize,
    pub(crate) rate: u64,
    pub(crate) jc: bool,
    pub(crate) d: Option<Duration>,
    pub(crate) shape: Option<(u64, u64)>,
    pub(crate) source: SourceSpec,
    /// Explicit node list (`path=0,3,7`); `None` means the contiguous
    /// `route=first..last`.
    pub(crate) path: Option<Vec<usize>>,
}

impl SessionLine {
    /// The node indices this session visits, in order.
    pub(crate) fn route_nodes(&self) -> Vec<usize> {
        match &self.path {
            Some(p) => p.clone(),
            None => (self.first..=self.last).collect(),
        }
    }

    /// Establish this session against per-node procedure-3 state through
    /// [`lit_core::establish`]; a refusal releases the hops already
    /// granted and names the refusing node.
    fn ac3_establish(&self, nodes: &mut [Ac3Fast]) -> Ac3Verdict {
        let len = self.source.len();
        let d = self
            .d
            .unwrap_or_else(|| Duration::from_bits_at_rate(len as u64, self.rate));
        let route = self.route_nodes();
        lit_core::establish(
            nodes,
            route.iter().copied(),
            |n| n.try_admit(self.rate, len, d).map(|(h, _)| h),
            |n, h| {
                n.release(h);
            },
        )
        .map(|_| ())
        .map_err(|e| (route[e.hop], e.error))
    }

    /// Human-readable route for report tables.
    pub(crate) fn route_desc(&self) -> String {
        match &self.path {
            Some(p) => p
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join("-"),
            None => format!("{}..{}", self.first, self.last),
        }
    }
}

/// A parsed source description.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum SourceSpec {
    OnOff {
        on: Duration,
        off: Duration,
        t: Duration,
        len: u32,
    },
    Poisson {
        gap: Duration,
        len: u32,
    },
    Cbr {
        gap: Duration,
        len: u32,
        offset: Duration,
    },
    Burst {
        period: Duration,
        count: u32,
        len: u32,
    },
}

impl SourceSpec {
    /// The packet length every emission of this source has.
    pub(crate) fn len(&self) -> u32 {
        match *self {
            SourceSpec::OnOff { len, .. }
            | SourceSpec::Poisson { len, .. }
            | SourceSpec::Cbr { len, .. }
            | SourceSpec::Burst { len, .. } => len,
        }
    }
}

/// Offered load ρ in basis points from a decimal literal (`0.95` →
/// `9_500`). Loads above 2.0 are rejected — far past saturation nothing
/// new is learned and backlogs explode.
pub(crate) fn parse_rho(s: &str) -> Result<u32, String> {
    let v: f64 = s.parse().map_err(|_| format!("bad rho '{s}'"))?;
    if !v.is_finite() || v <= 0.0 || v > 2.0 {
        return Err(format!("rho '{s}' out of range (0, 2]"));
    }
    Ok((v * 10_000.0).round() as u32)
}

/// Inverse of [`parse_rho`]: the shortest decimal that parses back to
/// the same basis points.
pub(crate) fn fmt_rho(bp: u32) -> String {
    if bp.is_multiple_of(10_000) {
        return format!("{}", bp / 10_000);
    }
    let mut frac = format!("{:04}", bp % 10_000);
    while frac.ends_with('0') {
        frac.pop();
    }
    format!("{}.{frac}", bp / 10_000)
}

/// ρ·C split evenly over the bottleneck's session count, floored so the
/// total reservation never exceeds ρ·C, and clamped to ≥ 1 bps.
fn per_session_rate(rate_bps: u64, rho_bp: u32, bottleneck_sessions: usize) -> u64 {
    let r = (rate_bps as u128 * rho_bp as u128) / (10_000u128 * bottleneck_sessions.max(1) as u128);
    r.max(1) as u64
}

/// One generated CBR session: reserved rate `r`, packet length `len`
/// bits, inter-packet gap rounded *up* to whole nanoseconds so the
/// emitted rate never exceeds the reservation (the traffic is
/// conformant whenever the reservations are admissible), and a
/// per-session phase offset `1 + 37·idx` ns so no two generated sources
/// tick in lockstep.
fn cbr_line(
    first: usize,
    last: usize,
    path: Option<Vec<usize>>,
    r: u64,
    len: u32,
    jc: bool,
    idx: usize,
) -> SessionLine {
    let gap_ns = (len as u128 * 1_000_000_000).div_ceil(r as u128) as u64;
    let offset_ns = 1 + idx as u64 * 37;
    SessionLine {
        first,
        last,
        rate: r,
        jc,
        d: None,
        shape: None,
        source: SourceSpec::Cbr {
            gap: Duration::from_ns(gap_ns),
            len,
            offset: Duration::from_ns(offset_ns),
        },
        path,
    }
}

/// The most nodes a scenario may ask for, by its `nodes` directive or a
/// generator stanza: a run allocates per node, and node ids are `u32`.
const MAX_NODES: usize = 4_096;

/// A `generate` stanza: a parameterized scenario family that
/// [`Scenario::expanded`] resolves into concrete CBR session lines at a
/// target offered load ρ.
///
/// Every family sizes each session's reservation as `ρ·C / m` where `m`
/// is the session count on the *bottleneck* link, so the busiest link
/// carries an offered load of exactly ρ — admissible for ρ ≤ 1, an
/// overload fixture past it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum GenSpec {
    /// `tandem(n,rho[,through,cross,len])`: an `n`-hop line with
    /// `through` full-route jitter-controlled sessions plus `cross`
    /// single-hop sessions per node — every link carries
    /// `through + cross` sessions (the paper's fig. 8 CROSS shape,
    /// scaled).
    Tandem {
        n: usize,
        rho_bp: u32,
        through: usize,
        cross: usize,
        len: u32,
    },
    /// `fattree(depth,fanout,rho[,len])`: the uplinks of a complete
    /// `fanout`-ary tree of the given depth as server nodes (level 1 =
    /// just below the root, labeled breadth-first), one flow per leaf
    /// routed leaf → root. The level-1 uplinks are the bottleneck,
    /// carrying `fanout^(depth-1)` flows each.
    FatTree {
        depth: usize,
        fanout: usize,
        rho_bp: u32,
        len: u32,
    },
    /// `wan(nodes,flows,rho[,len])`: `flows` deterministic pseudorandom
    /// forward paths over a `nodes`-link line (see [`wan_path`]); rates
    /// are normalized by the most-loaded link.
    Wan {
        nodes: usize,
        flows: usize,
        rho_bp: u32,
        len: u32,
    },
}

impl GenSpec {
    /// Parse the token after `generate`, e.g.
    /// `tandem(n=8,rho=0.95,through=4,cross=4,len=424)`.
    pub(crate) fn parse_stanza(tok: &str) -> Result<GenSpec, String> {
        let (name, args) = call(tok).ok_or_else(|| format!("bad generator syntax '{tok}'"))?;
        let allow = |allowed: &[&str]| -> Result<(), String> {
            for (k, _) in &args {
                if !allowed.contains(k) {
                    return Err(format!("generate {name}: unknown option '{k}'"));
                }
            }
            Ok(())
        };
        let get = |key: &str| args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        let req = |key: &str| -> Result<usize, String> {
            get(key)
                .ok_or_else(|| format!("generate {name}: missing '{key}'"))?
                .parse()
                .map_err(|_| format!("generate {name}: bad '{key}'"))
        };
        let opt = |key: &str, default: usize| -> Result<usize, String> {
            match get(key) {
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("generate {name}: bad '{key}'")),
                None => Ok(default),
            }
        };
        let rho_bp =
            parse_rho(get("rho").ok_or_else(|| format!("generate {name}: missing 'rho'"))?)?;
        let len = opt("len", 424)?;
        if len == 0 || len > 65_536 {
            return Err(format!("generate {name}: len out of range [1, 65536]"));
        }
        let len = len as u32;
        Ok(match name {
            "tandem" => {
                allow(&["n", "rho", "through", "cross", "len"])?;
                let n = req("n")?;
                let through = opt("through", 4)?;
                let cross = opt("cross", 4)?;
                if n == 0 || n > 1_024 {
                    return Err("generate tandem: n out of range [1, 1024]".into());
                }
                if through + cross == 0 || through > 4_096 || cross > 256 {
                    return Err("generate tandem: session counts out of range".into());
                }
                GenSpec::Tandem {
                    n,
                    rho_bp,
                    through,
                    cross,
                    len,
                }
            }
            "fattree" => {
                allow(&["depth", "fanout", "rho", "len"])?;
                let depth = req("depth")?;
                let fanout = req("fanout")?;
                if !(1..=6).contains(&depth) || !(2..=16).contains(&fanout) {
                    return Err("generate fattree: want depth in [1, 6], fanout in [2, 16]".into());
                }
                let g = GenSpec::FatTree {
                    depth,
                    fanout,
                    rho_bp,
                    len,
                };
                if g.num_nodes() > MAX_NODES {
                    return Err(format!("generate fattree: more than {MAX_NODES} nodes"));
                }
                g
            }
            "wan" => {
                allow(&["nodes", "flows", "rho", "len"])?;
                let nodes = req("nodes")?;
                let flows = req("flows")?;
                if nodes == 0 || nodes > MAX_NODES || flows == 0 || flows > 4_096 {
                    return Err("generate wan: nodes/flows out of range [1, 4096]".into());
                }
                GenSpec::Wan {
                    nodes,
                    flows,
                    rho_bp,
                    len,
                }
            }
            other => return Err(format!("unknown generator family '{other}'")),
        })
    }

    /// Canonical stanza text (everything after `generate `).
    fn to_text(&self) -> String {
        match *self {
            GenSpec::Tandem {
                n,
                rho_bp,
                through,
                cross,
                len,
            } => format!(
                "tandem(n={n},rho={},through={through},cross={cross},len={len})",
                fmt_rho(rho_bp)
            ),
            GenSpec::FatTree {
                depth,
                fanout,
                rho_bp,
                len,
            } => format!(
                "fattree(depth={depth},fanout={fanout},rho={},len={len})",
                fmt_rho(rho_bp)
            ),
            GenSpec::Wan {
                nodes,
                flows,
                rho_bp,
                len,
            } => format!(
                "wan(nodes={nodes},flows={flows},rho={},len={len})",
                fmt_rho(rho_bp)
            ),
        }
    }

    /// How many server nodes this family needs.
    pub(crate) fn num_nodes(&self) -> usize {
        match *self {
            GenSpec::Tandem { n, .. } => n,
            GenSpec::FatTree { depth, fanout, .. } => {
                crate::topology::fattree_num_nodes(depth, fanout)
            }
            GenSpec::Wan { nodes, .. } => nodes,
        }
    }

    /// Resolve into concrete session lines. `base_idx` is the index of
    /// the first generated session in the combined list (phase offsets
    /// continue across stanzas); `rate_bps` is the link capacity C.
    pub(crate) fn expand(&self, base_idx: usize, rate_bps: u64) -> Vec<SessionLine> {
        match *self {
            GenSpec::Tandem {
                n,
                rho_bp,
                through,
                cross,
                len,
            } => {
                let r = per_session_rate(rate_bps, rho_bp, through + cross);
                let mut out = Vec::new();
                for _ in 0..through {
                    out.push(cbr_line(0, n - 1, None, r, len, true, base_idx + out.len()));
                }
                for node in 0..n {
                    for _ in 0..cross {
                        out.push(cbr_line(
                            node,
                            node,
                            None,
                            r,
                            len,
                            false,
                            base_idx + out.len(),
                        ));
                    }
                }
                out
            }
            GenSpec::FatTree {
                depth,
                fanout,
                rho_bp,
                len,
            } => {
                let paths = crate::topology::fattree_uplink_paths(depth, fanout);
                let r = per_session_rate(rate_bps, rho_bp, fanout.pow(depth as u32 - 1));
                paths
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let (first, last) = (p[0], p[p.len() - 1]);
                        let path = (p.len() > 1).then_some(p);
                        cbr_line(first, last, path, r, len, false, base_idx + i)
                    })
                    .collect()
            }
            GenSpec::Wan {
                nodes,
                flows,
                rho_bp,
                len,
            } => {
                let paths = crate::topology::wan_paths(flows, nodes);
                let mut load = vec![0usize; nodes];
                for p in &paths {
                    for &n in p {
                        load[n] += 1;
                    }
                }
                let m = load.iter().copied().max().unwrap_or(0);
                let r = per_session_rate(rate_bps, rho_bp, m);
                paths
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let (first, last) = (p[0], p[p.len() - 1]);
                        let path = (p.len() > 1).then_some(p);
                        cbr_line(first, last, path, r, len, false, base_idx + i)
                    })
                    .collect()
            }
        }
    }
}

/// A fully parsed scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    pub(crate) nodes: usize,
    pub(crate) link: LinkParams,
    pub(crate) discipline: DisciplineChoice,
    pub(crate) queue: QueueKind,
    pub(crate) backend: EventBackend,
    pub(crate) seed: u64,
    pub(crate) sessions: Vec<SessionLine>,
    /// Unexpanded `generate` stanzas, in file order. Round-trips through
    /// [`Scenario::to_text`]; [`Scenario::expanded`] resolves them.
    pub(crate) generators: Vec<GenSpec>,
    /// Eligibility-regulator backend (`regulator` directive).
    pub(crate) regulator: RegulatorBackend,
    pub(crate) horizon: Duration,
}

/// Duration units of the scenario grammar, coarsest first.
const UNITS: [(&str, u64); 4] = [
    ("s", PS_PER_SEC),
    ("ms", PS_PER_MS),
    ("us", PS_PER_US),
    ("ns", PS_PER_NS),
];

/// Parse a duration literal like `13.25ms`, `60s`, `100us`, `500ns`:
/// a decimal count of a unit, read exactly ([`Duration::from_decimal`]).
fn parse_duration(s: &str) -> Result<Duration, String> {
    let (num, unit) = s
        .find(|c: char| c.is_alphabetic())
        .map(|i| s.split_at(i))
        .ok_or_else(|| format!("duration '{s}' is missing a unit"))?;
    let &(_, unit_ps) = UNITS
        .iter()
        .find(|(name, _)| *name == unit)
        .ok_or_else(|| format!("unknown duration unit '{unit}'"))?;
    Duration::from_decimal(num, unit_ps).map_err(|e| match e {
        ParseDurationError::Malformed => format!("bad duration value '{num}'"),
        ParseDurationError::OutOfRange => format!("duration '{s}' out of range"),
    })
}

/// Render a duration as the shortest exact literal [`parse_duration`]
/// accepts: the coarsest unit the value is a whole multiple of, with a
/// fractional-nanosecond fallback for sub-ns precision.
fn fmt_duration(d: Duration) -> String {
    let ps = d.as_ps();
    match UNITS.iter().find(|(_, per)| ps.is_multiple_of(*per)) {
        Some((unit, per)) => format!("{}{unit}", ps / per),
        None => format!("{}.{:03}ns", ps / PS_PER_NS, ps % PS_PER_NS),
    }
}

/// Run-time engine options, none of which are part of the scenario text
/// itself: what [`Scenario::run_probed`] overrides the file's directives
/// with, and what [`crate::experiments::RunConfig`] carries to every
/// network an experiment builds.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Replace the scenario's event-set backend.
    pub backend: Option<EventBackend>,
    /// Replace the default statistics sizing (e.g. to turn on the
    /// delivery log for packet-for-packet comparison).
    pub stats: Option<StatsConfig>,
    /// Conformance-oracle mode; armed only when the discipline is `lit`
    /// with an exact eligible queue.
    pub oracle: OracleMode,
    /// Shard-worker count (see [`NetworkBuilder::shards`]); `None` is the
    /// one-shard driver. Results are byte-identical across every `N ≥ 2`,
    /// and equal to one shard's only when no two events share an instant
    /// (see `lit_net::shard`); a probe or panic-mode oracle forces one
    /// shard.
    pub shards: Option<usize>,
    /// Regulator-backend override; `None` follows the scenario's
    /// `regulator` directive (per-session where there is no scenario).
    pub regulator: Option<RegulatorBackend>,
}

impl RunOptions {
    /// The one place a network gets built: apply these options to `b`
    /// (`None` is the default backend, regulator and shard count, and
    /// leaves the statistics sizing as the caller set it), install
    /// `probe`, build, and install every session's paper bounds iff the
    /// oracle is on and the regulator is per-session — ineq. 12/17 are
    /// *dedicated-regulator* results, so under the shared interleaved
    /// FIFO only the regime-independent invariants stay armed. `checked`
    /// says whether the oracle applies at all: its invariants are
    /// Leave-in-Time's on an exact deadline queue, so baseline
    /// disciplines and the bucketed ablation queue pass `false` and run
    /// with it off whatever `self.oracle` says.
    pub fn build(
        &self,
        mut b: NetworkBuilder,
        factory: &DisciplineFactory<'_>,
        checked: bool,
        probe: Option<Box<dyn lit_net::Probe>>,
    ) -> Network {
        let regulator = self.regulator.unwrap_or_default();
        let oracle = if checked {
            self.oracle
        } else {
            OracleMode::Off
        };
        b = b
            .event_backend(self.backend.unwrap_or_default())
            .regulator(regulator)
            .shards(self.shards.unwrap_or(1))
            .oracle(OracleConfig::new(oracle));
        if let Some(stats) = self.stats {
            b = b.stats(stats);
        }
        if let Some(p) = probe {
            b = b.probe(p);
        }
        let mut net = b.build(factory);
        if oracle != OracleMode::Off && regulator == RegulatorBackend::PerSession {
            install_oracle_bounds(&mut net);
        }
        net
    }
}

/// Whether `regulator` may serve a discipline that is (`lit`) or is not
/// Leave-in-Time. The interleaved regulator's one head-gated FIFO per
/// node is analysed for Leave-in-Time only (Thomas–Le Boudec); under a
/// baseline it couples one session's rate-controller or frame holds to
/// every other session's at the node, so the pairing is refused wherever
/// it is asked for: the `regulator` directive, `--regulator` with a
/// scenario, and `--regulator` with the commands that run baselines.
pub fn regulator_fits(regulator: RegulatorBackend, lit: bool) -> Result<(), &'static str> {
    if lit || regulator == RegulatorBackend::PerSession {
        Ok(())
    } else {
        Err("the interleaved regulator runs discipline lit only")
    }
}

/// A count or rate literal that must not be zero.
fn positive<T: std::str::FromStr + Default + PartialEq>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n != T::default())
}

/// Split `key=value` (value may be absent for flags).
fn keyval(tok: &str) -> (&str, Option<&str>) {
    match tok.split_once('=') {
        Some((k, v)) => (k, Some(v)),
        None => (tok, None),
    }
}

/// Parse the inside of `name(...)` into `(name, args)`.
fn call(tok: &str) -> Option<(&str, Vec<(&str, &str)>)> {
    let open = tok.find('(')?;
    let close = tok.rfind(')')?;
    if close < open {
        return None;
    }
    let name = &tok[..open];
    let args = tok[open + 1..close]
        .split(',')
        .filter(|a| !a.is_empty())
        .map(|a| a.split_once('=').unwrap_or((a, "")))
        .collect();
    Some((name, args))
}

/// Parse a discipline name as written after the `discipline` directive.
fn parse_discipline(name: &str) -> Result<DisciplineChoice, String> {
    Ok(match name {
        "lit" | "leave-in-time" => DisciplineChoice::Lit,
        "fcfs" => DisciplineChoice::Fcfs,
        "virtualclock" | "vc" => DisciplineChoice::VirtualClock,
        "wfq" => DisciplineChoice::Wfq,
        "scfq" => DisciplineChoice::Scfq,
        "delay-edd" => DisciplineChoice::DelayEdd,
        "jitter-edd" => DisciplineChoice::JitterEdd,
        other => {
            if let Some(frame) = other.strip_prefix("stop-and-go:frame=") {
                DisciplineChoice::StopAndGo(
                    Some(parse_duration(frame)?)
                        .filter(|d| *d > Duration::ZERO)
                        .ok_or("stop-and-go: frame must be positive")?,
                )
            } else if let Some(slots) = other.strip_prefix("hrr:slots=") {
                DisciplineChoice::Hrr(positive(slots).ok_or("hrr: bad slot count")?)
            } else {
                return Err(format!("unknown discipline '{other}'"));
            }
        }
    })
}

impl Scenario {
    /// Read and parse a scenario file, attaching the path (and line, for
    /// parse failures) to any error so callers can print it verbatim.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Scenario, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Scenario::parse(&text).map_err(|e| format!("{}:{}: {}", path.display(), e.line, e.message))
    }

    /// [`regulator_fits`] for this scenario's discipline.
    pub fn regulator_fits(&self, regulator: RegulatorBackend) -> Result<(), &'static str> {
        regulator_fits(regulator, self.discipline == DisciplineChoice::Lit)
    }

    /// Parse a scenario from text.
    pub fn parse(text: &str) -> Result<Scenario, ParseError> {
        let mut nodes = None;
        let mut link = LinkParams::paper_t1();
        let mut discipline = DisciplineChoice::Lit;
        let mut queue = QueueKind::Exact;
        let mut backend = EventBackend::Heap;
        let mut seed = 0u64;
        let mut sessions = Vec::new();
        let mut generators = Vec::new();
        let mut regulator = RegulatorBackend::PerSession;
        let mut regulator_line = 0;
        let mut horizon = None;
        // `(line, packet length)` of every session and generator stanza,
        // held against `lmax` once the whole file is read; `(line, highest
        // node)` of every session, held against the node count.
        let mut lens = Vec::new();
        let mut highs = Vec::new();

        let err = |line: usize, message: String| ParseError { line, message };

        // Join continuation lines ending in '\'.
        let mut logical: Vec<(usize, String)> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some((_, prev)) = logical.last_mut() {
                if prev.ends_with('\\') {
                    prev.pop();
                    prev.push(' ');
                    prev.push_str(&line);
                    continue;
                }
            }
            logical.push((i + 1, line));
        }

        for (ln, line) in logical {
            let mut toks = line.split_whitespace();
            // Blank and comment-only lines were dropped above, but a
            // continuation backslash can still leave a whitespace-only
            // logical line; skip it rather than unwrap on it.
            let Some(head) = toks.next() else {
                continue;
            };
            match head {
                "nodes" => {
                    let count: usize = toks
                        .next()
                        .ok_or_else(|| err(ln, "nodes: missing count".into()))?
                        .parse()
                        .map_err(|_| err(ln, "nodes: bad count".into()))?;
                    if count > MAX_NODES {
                        return Err(err(ln, format!("nodes: more than {MAX_NODES}")));
                    }
                    for tok in toks {
                        match keyval(tok) {
                            ("rate", Some(v)) => {
                                link.rate_bps = positive(v).ok_or_else(|| {
                                    err(ln, "nodes: rate must be a positive integer".into())
                                })?
                            }
                            ("prop", Some(v)) => {
                                link.propagation = parse_duration(v).map_err(|e| err(ln, e))?
                            }
                            ("lmax", Some(v)) => {
                                link.lmax_bits = positive(v).ok_or_else(|| {
                                    err(ln, "nodes: lmax must be a positive integer".into())
                                })?
                            }
                            (k, _) => return Err(err(ln, format!("nodes: unknown option '{k}'"))),
                        }
                    }
                    nodes = Some(count);
                }
                "discipline" => {
                    let name = toks
                        .next()
                        .ok_or_else(|| err(ln, "discipline: missing name".into()))?;
                    discipline = parse_discipline(name).map_err(|e| err(ln, e))?;
                }
                "backend" => {
                    let name = toks
                        .next()
                        .ok_or_else(|| err(ln, "backend: missing name".into()))?;
                    backend = match name {
                        "heap" => EventBackend::Heap,
                        "calendar" => EventBackend::Calendar,
                        "wheel" => EventBackend::Wheel,
                        other => return Err(err(ln, format!("unknown backend '{other}'"))),
                    };
                }
                "queue" => {
                    let kind = toks
                        .next()
                        .ok_or_else(|| err(ln, "queue: missing kind".into()))?;
                    queue = match keyval(kind) {
                        ("exact", None) => QueueKind::Exact,
                        ("bucket", Some(v)) => match parse_duration(v).map_err(|e| err(ln, e))? {
                            bucket if bucket > Duration::ZERO => QueueKind::Bucketed { bucket },
                            _ => return Err(err(ln, "queue: bucket must be positive".into())),
                        },
                        _ => return Err(err(ln, format!("unknown queue kind '{kind}'"))),
                    };
                }
                "regulator" => {
                    let name = toks
                        .next()
                        .ok_or_else(|| err(ln, "regulator: missing backend".into()))?;
                    regulator = name.parse().map_err(|e: String| err(ln, e))?;
                    regulator_line = ln;
                }
                "generate" => {
                    let spec = toks
                        .next()
                        .ok_or_else(|| err(ln, "generate: missing family".into()))?;
                    let g = GenSpec::parse_stanza(spec).map_err(|e| err(ln, e))?;
                    let (GenSpec::Tandem { len, .. }
                    | GenSpec::FatTree { len, .. }
                    | GenSpec::Wan { len, .. }) = g;
                    lens.push((ln, len));
                    generators.push(g);
                }
                "seed" => {
                    seed = toks
                        .next()
                        .ok_or_else(|| err(ln, "seed: missing value".into()))?
                        .parse()
                        .map_err(|_| err(ln, "seed: bad value".into()))?;
                }
                "session" => {
                    let mut first = None;
                    let mut path: Option<Vec<usize>> = None;
                    let mut rate = None;
                    let mut jc = false;
                    let mut d = None;
                    let mut shape = None;
                    let mut source = None;
                    for tok in toks {
                        match keyval(tok) {
                            ("path", Some(v)) => {
                                let p = v
                                    .split(',')
                                    .map(|t| {
                                        t.parse::<usize>()
                                            .map_err(|_| err(ln, "path: bad node list".into()))
                                    })
                                    .collect::<Result<Vec<_>, _>>()?;
                                if p.is_empty() {
                                    return Err(err(ln, "path: empty".into()));
                                }
                                for (i, a) in p.iter().enumerate() {
                                    if p[..i].contains(a) {
                                        return Err(err(ln, "path: repeated node".into()));
                                    }
                                }
                                path = Some(p);
                            }
                            ("route", Some(v)) => {
                                let (a, b) = v
                                    .split_once("..")
                                    .ok_or_else(|| err(ln, "route: want A..B".into()))?;
                                let a: usize =
                                    a.parse().map_err(|_| err(ln, "route: bad start".into()))?;
                                let b: usize =
                                    b.parse().map_err(|_| err(ln, "route: bad end".into()))?;
                                if b < a {
                                    return Err(err(ln, "route: end before start".into()));
                                }
                                first = Some((a, b));
                            }
                            ("rate", Some(v)) => {
                                rate = Some(positive(v).ok_or_else(|| {
                                    err(ln, "session: rate must be a positive integer".into())
                                })?)
                            }
                            ("jc", None) => jc = true,
                            ("d", Some(v)) => d = Some(parse_duration(v).map_err(|e| err(ln, e))?),
                            ("shape", Some(v)) => {
                                let (r, depth) = v
                                    .split_once(':')
                                    .ok_or_else(|| err(ln, "shape: want rate:bits".into()))?;
                                shape = Some((
                                    r.parse().map_err(|_| err(ln, "shape: bad rate".into()))?,
                                    depth
                                        .parse()
                                        .map_err(|_| err(ln, "shape: bad depth".into()))?,
                                ));
                            }
                            ("source", Some(v)) => {
                                source = Some(Self::parse_source(v).map_err(|e| err(ln, e))?)
                            }
                            (k, _) => {
                                return Err(err(ln, format!("session: unknown option '{k}'")))
                            }
                        }
                    }
                    let (a, b) = match (&path, first) {
                        (Some(_), Some(_)) => {
                            return Err(err(ln, "session: give route or path, not both".into()))
                        }
                        (Some(p), None) => (p[0], p[p.len() - 1]),
                        (None, Some(ab)) => ab,
                        (None, None) => return Err(err(ln, "session: missing route".into())),
                    };
                    let source = source.ok_or_else(|| err(ln, "session: missing source".into()))?;
                    if let Some((r, depth)) = shape {
                        if r == 0 || depth < u64::from(source.len()) {
                            let msg = "shape: want a positive rate and depth ≥ the packet length";
                            return Err(err(ln, msg.into()));
                        }
                    }
                    lens.push((ln, source.len()));
                    highs.push((ln, path.iter().flatten().copied().fold(b, usize::max)));
                    sessions.push(SessionLine {
                        first: a,
                        last: b,
                        rate: rate.ok_or_else(|| err(ln, "session: missing rate".into()))?,
                        jc,
                        d,
                        shape,
                        source,
                        path,
                    });
                }
                "run" => {
                    let v = toks
                        .next()
                        .ok_or_else(|| err(ln, "run: missing duration".into()))?;
                    horizon = Some(parse_duration(v).map_err(|e| err(ln, e))?);
                }
                other => return Err(err(ln, format!("unknown directive '{other}'"))),
            }
        }

        regulator_fits(regulator, discipline == DisciplineChoice::Lit)
            .map_err(|e| err(regulator_line, e.into()))?;
        // A `generate` stanza implies its own node count; the `nodes`
        // directive is then optional and only raises the floor.
        let gen_nodes = generators.iter().map(GenSpec::num_nodes).max().unwrap_or(0);
        let nodes = match nodes {
            Some(n) => n.max(gen_nodes),
            None if gen_nodes > 0 => gen_nodes,
            None => return Err(err(0, "missing 'nodes' directive".into())),
        };
        let horizon = horizon.ok_or_else(|| err(0, "missing 'run' directive".into()))?;
        // A packet longer than L_MAX voids every L_MAX/C term of β.
        if let Some(&(ln, len)) = lens.iter().find(|&&(_, len)| len > link.lmax_bits) {
            let lmax = link.lmax_bits;
            return Err(err(ln, format!("packet length {len} exceeds lmax={lmax}")));
        }
        if let Some(&(ln, hi)) = highs.iter().find(|&&(_, hi)| hi >= nodes) {
            return Err(err(ln, format!("route ends at node {hi} of {nodes}")));
        }
        if sessions.is_empty() && generators.is_empty() {
            return Err(err(0, "no sessions defined".into()));
        }
        Ok(Scenario {
            nodes,
            link,
            discipline,
            queue,
            backend,
            seed,
            sessions,
            generators,
            regulator,
            horizon,
        })
    }

    fn parse_source(v: &str) -> Result<SourceSpec, String> {
        let (name, args) = call(v).ok_or_else(|| format!("bad source syntax '{v}'"))?;
        let get = |key: &str| -> Result<&str, String> {
            args.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("source {name}: missing '{key}'"))
        };
        // Lengths, counts, gaps and periods: zero has no meaning here.
        let len = |key: &str| -> Result<u32, String> {
            positive(get(key)?)
                .ok_or_else(|| format!("source {name}: '{key}' must be a positive integer"))
        };
        let span = |key: &str| -> Result<Duration, String> {
            Some(parse_duration(get(key)?)?)
                .filter(|d| *d > Duration::ZERO)
                .ok_or_else(|| format!("source {name}: '{key}' must be positive"))
        };
        match name {
            "onoff" => Ok(SourceSpec::OnOff {
                on: parse_duration(get("on")?)?,
                off: parse_duration(get("off")?)?,
                t: span("t")?,
                len: len("len")?,
            }),
            "poisson" => Ok(SourceSpec::Poisson {
                gap: span("gap")?,
                len: len("len")?,
            }),
            "cbr" => Ok(SourceSpec::Cbr {
                gap: span("gap")?,
                len: len("len")?,
                offset: args
                    .iter()
                    .find(|(k, _)| *k == "offset")
                    .map(|(_, v)| parse_duration(v))
                    .transpose()?
                    .unwrap_or(Duration::ZERO),
            }),
            "burst" => Ok(SourceSpec::Burst {
                period: span("period")?,
                count: len("count")?,
                len: len("len")?,
            }),
            other => Err(format!("unknown source kind '{other}'")),
        }
    }

    /// Build the scenario under `opts` (which win over the file's
    /// `backend` and `regulator` directives) with `probe` installed, and
    /// run it to its horizon; returns the network and the session ids in
    /// definition order. The one method that builds a network: the
    /// caller reads the results off it — `Network::oracle_drain_check`,
    /// `oracle_totals`, `take_probe` — or hands it to
    /// [`crate::collect::Collector::retire`].
    pub fn run_probed(
        &self,
        opts: &RunOptions,
        probe: Option<Box<dyn lit_net::Probe>>,
    ) -> (Network, Vec<SessionId>) {
        if !self.generators.is_empty() {
            return self.expanded().run_probed(opts, probe);
        }
        let checked = self.discipline == DisciplineChoice::Lit && self.queue == QueueKind::Exact;
        let opts = RunOptions {
            backend: Some(opts.backend.unwrap_or(self.backend)),
            regulator: Some(opts.regulator.unwrap_or(self.regulator)),
            ..*opts
        };
        let mut b = NetworkBuilder::new().seed(self.seed).queue_kind(self.queue);
        let nodes = b.tandem(self.nodes, self.link);
        let mut ids = Vec::new();
        for s in &self.sessions {
            let mut spec = SessionSpec::atm(SessionId(0), s.rate);
            spec.jitter_control = s.jc;
            // The spec's packet-length range must cover what the source
            // emits: L_max enters d_max (eq. 9's holding-time stamp) and
            // β; L_min enters the jitter bound.
            spec.max_len_bits = s.source.len();
            spec.min_len_bits = s.source.len();
            if let Some(d) = s.d {
                spec.delay = DelayAssignment::Fixed(d);
            }
            let source: Box<dyn Source> = {
                let inner: Box<dyn Source> = match s.source {
                    SourceSpec::OnOff { on, off, t, len } => {
                        Box::new(OnOffSource::new(OnOffConfig {
                            mean_on: on,
                            mean_off: off,
                            spacing: t,
                            len_bits: len,
                            initial_offset: Duration::ZERO,
                        }))
                    }
                    SourceSpec::Poisson { gap, len } => Box::new(PoissonSource::new(gap, len)),
                    SourceSpec::Cbr { gap, len, offset } => {
                        Box::new(DeterministicSource::new(gap, len).with_offset(offset))
                    }
                    SourceSpec::Burst { period, count, len } => {
                        Box::new(BurstSource::new(period, count, len))
                    }
                };
                match s.shape {
                    Some((rate, depth)) => {
                        Box::new(ShapedSource::new(BoxedSource(inner), rate, depth))
                    }
                    None => inner,
                }
            };
            let route: Vec<_> = s.route_nodes().into_iter().map(|n| nodes[n]).collect();
            ids.push(b.add_session(spec, &route, source));
        }
        type Factory = Box<dyn Fn(&LinkParams) -> Box<dyn lit_net::Discipline>>;
        let factory: Factory = match &self.discipline {
            DisciplineChoice::Lit => Box::new(|l: &LinkParams| {
                Box::new(LitDiscipline::new(*l)) as Box<dyn lit_net::Discipline>
            }),
            DisciplineChoice::Fcfs => Box::new(FcfsDiscipline::factory()),
            DisciplineChoice::VirtualClock => Box::new(VirtualClockDiscipline::factory()),
            DisciplineChoice::Wfq => Box::new(WfqDiscipline::factory()),
            DisciplineChoice::Scfq => Box::new(ScfqDiscipline::factory()),
            DisciplineChoice::StopAndGo(frame) => Box::new(StopAndGoDiscipline::factory(*frame)),
            DisciplineChoice::Hrr(slots) => Box::new(HrrDiscipline::factory(*slots)),
            DisciplineChoice::DelayEdd => Box::new(EddDiscipline::factory(false)),
            DisciplineChoice::JitterEdd => Box::new(EddDiscipline::factory(true)),
        };
        let mut net = opts.build(b, &*factory, checked, probe);
        net.run_until(Time::ZERO + self.horizon);
        (net, ids)
    }

    /// Vet every session line through per-node procedure-3 admission
    /// (the CLI's `--ac3` flag), one [`Ac3Fast`] per node at the
    /// scenario's link rate. Returns one verdict per session in
    /// definition order; a session admits only if every node on its
    /// route accepts it (one [`lit_core::establish`] per session, so a
    /// mid-route rejection rolls back the hops already granted).
    ///
    /// The per-hop delay submitted is the session's `d=` option when
    /// present, else the `L/r` default the run itself would use. A
    /// scenario with `generate` stanzas is expanded first, so the
    /// verdicts cover (and index) the *expanded* session list.
    pub fn ac3_vet(&self) -> Vec<Ac3Verdict> {
        if !self.generators.is_empty() {
            return self.expanded().ac3_vet();
        }
        let mut nodes = self.ac3_nodes();
        self.sessions
            .iter()
            .map(|s| s.ac3_establish(&mut nodes))
            .collect()
    }

    /// Empty per-node procedure-3 state for [`Scenario::ac3_vet`].
    fn ac3_nodes(&self) -> Vec<Ac3Fast> {
        (0..self.nodes)
            .map(|_| Ac3Fast::new(self.link.rate_bps))
            .collect()
    }

    /// The same scenario keeping only sessions whose `keep` entry is
    /// true (missing entries keep the session) — used to drop
    /// AC3-rejected sessions before a run.
    pub fn retain_sessions(&self, keep: &[bool]) -> Scenario {
        Scenario {
            sessions: self
                .sessions
                .iter()
                .enumerate()
                .filter(|(i, _)| keep.get(*i).copied().unwrap_or(true))
                .map(|(_, s)| s.clone())
                .collect(),
            ..self.clone()
        }
    }

    /// The same scenario under another discipline (for differential runs).
    pub fn with_discipline(&self, name: &str) -> Result<Scenario, String> {
        Ok(Scenario {
            discipline: parse_discipline(name)?,
            ..self.clone()
        })
    }

    /// The same scenario with a different run horizon (snapshot tests
    /// shorten the committed scenarios to keep golden runs fast).
    pub fn with_horizon(&self, horizon: Duration) -> Scenario {
        Scenario {
            horizon,
            ..self.clone()
        }
    }

    /// Resolve every `generate` stanza into concrete session lines,
    /// appended in stanza order after any hand-written sessions. The
    /// result has no generators and is otherwise identical; expanding a
    /// generator-free scenario is a clone. Phase offsets continue across
    /// the combined list, so no two sources tick in phase.
    pub fn expanded(&self) -> Scenario {
        let mut sc = self.clone();
        for g in &self.generators {
            let base = sc.sessions.len();
            sc.sessions.extend(g.expand(base, self.link.rate_bps));
        }
        sc.generators.clear();
        sc
    }

    /// The same scenario with every generator stanza's offered load
    /// replaced by `rho_bp` basis points (9_500 = ρ 0.95) — the
    /// load-ladder sweep's rung constructor. Hand-written session lines
    /// are untouched.
    pub fn with_rho(&self, rho_bp: u32) -> Scenario {
        let mut sc = self.clone();
        for g in &mut sc.generators {
            let (GenSpec::Tandem { rho_bp: r, .. }
            | GenSpec::FatTree { rho_bp: r, .. }
            | GenSpec::Wan { rho_bp: r, .. }) = g;
            *r = rho_bp;
        }
        sc
    }

    /// Serialize back to scenario text. `parse(to_text(sc)) == sc` for
    /// every scenario whose durations are whole nanoseconds (all of the
    /// fuzzer's, and every file under `scenarios/`).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "nodes {} rate={} prop={} lmax={}",
            self.nodes,
            self.link.rate_bps,
            fmt_duration(self.link.propagation),
            self.link.lmax_bits,
        );
        let disc = match &self.discipline {
            DisciplineChoice::Lit => "lit".to_string(),
            DisciplineChoice::Fcfs => "fcfs".to_string(),
            DisciplineChoice::VirtualClock => "virtualclock".to_string(),
            DisciplineChoice::Wfq => "wfq".to_string(),
            DisciplineChoice::Scfq => "scfq".to_string(),
            DisciplineChoice::StopAndGo(f) => format!("stop-and-go:frame={}", fmt_duration(*f)),
            DisciplineChoice::Hrr(slots) => format!("hrr:slots={slots}"),
            DisciplineChoice::DelayEdd => "delay-edd".to_string(),
            DisciplineChoice::JitterEdd => "jitter-edd".to_string(),
        };
        let _ = writeln!(out, "discipline {disc}");
        if let QueueKind::Bucketed { bucket } = self.queue {
            let _ = writeln!(out, "queue bucket={}", fmt_duration(bucket));
        }
        if self.backend == EventBackend::Calendar {
            let _ = writeln!(out, "backend calendar");
        } else if self.backend == EventBackend::Wheel {
            let _ = writeln!(out, "backend wheel");
        }
        if self.regulator == RegulatorBackend::Interleaved {
            let _ = writeln!(out, "regulator interleaved");
        }
        let _ = writeln!(out, "seed {}", self.seed);
        for g in &self.generators {
            let _ = writeln!(out, "generate {}", g.to_text());
        }
        for s in &self.sessions {
            match &s.path {
                Some(p) => {
                    let list = p
                        .iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                        .join(",");
                    let _ = write!(out, "session path={list} rate={}", s.rate);
                }
                None => {
                    let _ = write!(out, "session route={}..{} rate={}", s.first, s.last, s.rate);
                }
            }
            if s.jc {
                let _ = write!(out, " jc");
            }
            if let Some(d) = s.d {
                let _ = write!(out, " d={}", fmt_duration(d));
            }
            if let Some((rate, depth)) = s.shape {
                let _ = write!(out, " shape={rate}:{depth}");
            }
            let src = match &s.source {
                SourceSpec::OnOff { on, off, t, len } => format!(
                    "onoff(on={},off={},t={},len={len})",
                    fmt_duration(*on),
                    fmt_duration(*off),
                    fmt_duration(*t),
                ),
                SourceSpec::Poisson { gap, len } => {
                    format!("poisson(gap={},len={len})", fmt_duration(*gap))
                }
                SourceSpec::Cbr { gap, len, offset } => {
                    if *offset == Duration::ZERO {
                        format!("cbr(gap={},len={len})", fmt_duration(*gap))
                    } else {
                        format!(
                            "cbr(gap={},len={len},offset={})",
                            fmt_duration(*gap),
                            fmt_duration(*offset),
                        )
                    }
                }
                SourceSpec::Burst { period, count, len } => {
                    format!(
                        "burst(period={},count={count},len={len})",
                        fmt_duration(*period)
                    )
                }
            };
            let _ = writeln!(out, " source={src}");
        }
        let _ = writeln!(out, "run {}", fmt_duration(self.horizon));
        out
    }

    /// Run under `opts` and render per-session results, retiring the
    /// network into `collector`. The last column is the Leave-in-Time
    /// delay bound *assuming a one-cell token bucket* — it only applies
    /// to sessions whose traffic actually conforms (shaped or
    /// CBR/ON-OFF at the reserved rate), and is omitted for other
    /// disciplines.
    pub fn run_report(&self, opts: &RunOptions, collector: &Collector) -> Table {
        let sc = self.expanded();
        let (net, ids) = sc.run_probed(opts, collector.probe());
        let bounded = matches!(
            sc.discipline,
            DisciplineChoice::Lit | DisciplineChoice::VirtualClock
        );
        let mut t = Table::new(
            format!("scenario — {} nodes, horizon {}", sc.nodes, sc.horizon),
            &[
                "session",
                "route",
                "delivered",
                "max_delay_ms",
                "mean_delay_ms",
                "jitter_ms",
                "bound_if_1cell_tb_ms",
            ],
        );
        for (i, id) in ids.iter().enumerate() {
            let st = net.session_stats(*id);
            let bound = if bounded {
                let b0 = net.session_spec(*id).max_len_bits as u64;
                match PathBounds::for_session(&net, *id).delay_bound_token_bucket(b0) {
                    // Saturated: the bound's sum passed u64 picoseconds.
                    Duration::MAX => "inf".to_string(),
                    bound => ms(bound),
                }
            } else {
                "-".to_string()
            };
            t.push(vec![
                i.to_string(),
                sc.sessions[i].route_desc(),
                st.delivered.to_string(),
                st.max_delay().map(ms).unwrap_or_else(|| "-".into()),
                st.mean_delay().map(ms).unwrap_or_else(|| "-".into()),
                st.jitter().map(ms).unwrap_or_else(|| "-".into()),
                bound,
            ]);
        }
        collector.retire(net);
        t
    }
}

/// Adapter: a boxed source as a `Source` (for shaping a dynamic inner).
struct BoxedSource(Box<dyn Source>);

impl Source for BoxedSource {
    fn next_emission(&mut self, rng: &mut lit_sim::SimRng) -> Option<lit_traffic::Emission> {
        self.0.next_emission(rng)
    }
    fn mean_rate_bps(&self) -> Option<f64> {
        self.0.mean_rate_bps()
    }
    fn draws(&self) -> bool {
        self.0.draws()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG8ISH: &str = r#"
# miniature figure 8
nodes 5 rate=1536000 prop=1ms lmax=424
discipline lit
seed 7
session route=0..4 rate=32000 source=onoff(on=352ms,off=650ms,t=13.25ms,len=424)
session route=0..4 rate=32000 jc source=onoff(on=352ms,off=650ms,t=13.25ms,len=424)
session route=0..0 rate=1472000 source=poisson(gap=0.28804ms,len=424)
session route=1..1 rate=1472000 source=poisson(gap=0.28804ms,len=424)
session route=2..2 rate=1472000 source=poisson(gap=0.28804ms,len=424)
session route=3..3 rate=1472000 source=poisson(gap=0.28804ms,len=424)
session route=4..4 rate=1472000 source=poisson(gap=0.28804ms,len=424)
run 10s
"#;

    #[test]
    fn parses_and_runs_fig8ish() {
        let sc = Scenario::parse(FIG8ISH).unwrap();
        assert_eq!(sc.nodes, 5);
        assert_eq!(sc.sessions.len(), 7);
        let (net, ids) = sc.run_probed(&RunOptions::default(), None);
        assert!(net.session_stats(ids[0]).delivered > 100);
        // The jc session's jitter is smaller.
        let j0 = net.session_stats(ids[0]).jitter().unwrap();
        let j1 = net.session_stats(ids[1]).jitter().unwrap();
        assert!(j1 < j0, "jc {j1} !< plain {j0}");
        let report = sc.run_report(&RunOptions::default(), &Collector::default());
        assert_eq!(report.len(), 7);
    }

    #[test]
    fn bounds_past_u64_picoseconds_report_instead_of_panicking() {
        // Both paths sum past u64::MAX ps ≈ 1.84·10⁷ s: β holds four
        // d = 5·10⁶ s, or two Γ = 10⁷ s.
        let cbr = "rate=32000 source=cbr(gap=20ms,len=424)";
        for text in [
            format!("nodes 5\nsession route=0..4 {cbr} d=5000000s jc\nrun 1s"),
            format!("nodes 2 prop=10000000s\nsession route=0..1 {cbr}\nrun 1s"),
        ] {
            let sc = Scenario::parse(&text).unwrap();
            let report = sc.run_report(&RunOptions::default(), &Collector::default());
            assert_eq!(report.len(), 1, "{text}");
            let counted = RunOptions {
                oracle: OracleMode::Count,
                ..RunOptions::default()
            };
            let (net, _) = sc.run_probed(&counted, None);
            assert_eq!(net.oracle_totals().total(), 0, "{text}");
        }
    }

    /// A bound past u64 picoseconds saturates to `Duration::MAX`; the
    /// report says `inf`, not the sentinel's 18446744073.710 ms.
    #[test]
    fn a_saturated_bound_reports_inf() {
        let cbr = "rate=32000 source=cbr(gap=20ms,len=424)";
        let bound_column = |text: &str| {
            let sc = Scenario::parse(text).unwrap();
            let csv = sc
                .run_report(&RunOptions::default(), &Collector::default())
                .to_csv();
            let row = csv.lines().nth(1).unwrap().to_string();
            row.rsplit(',').next().unwrap().to_string()
        };
        let saturated = format!("nodes 5\nsession route=0..4 {cbr} d=5000000s jc\nrun 1s");
        assert_eq!(bound_column(&saturated), "inf");
        let finite = format!("nodes 5\nsession route=0..4 {cbr} d=5s jc\nrun 1s");
        assert!(bound_column(&finite).parse::<f64>().unwrap() > 25_000.0);
    }

    #[test]
    fn duration_literals() {
        assert_eq!(
            parse_duration("13.25ms").unwrap(),
            Duration::from_us(13_250)
        );
        assert_eq!(parse_duration("60s").unwrap(), Duration::from_secs(60));
        assert_eq!(parse_duration("100us").unwrap(), Duration::from_us(100));
        assert_eq!(parse_duration("500ns").unwrap(), Duration::from_ns(500));
        assert!(parse_duration("5").is_err());
        assert!(parse_duration("5parsecs").is_err());
        assert!(parse_duration("-1ms").is_err());
    }

    #[test]
    fn continuation_lines() {
        let text =
            "nodes 2\nsession route=0..1 rate=1000 \\\n  source=poisson(gap=1ms,len=424)\nrun 1s\n";
        let sc = Scenario::parse(text).unwrap();
        assert_eq!(sc.sessions.len(), 1);
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = Scenario::parse("nodes 2\nbogus directive\nrun 1s").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn route_validation() {
        let e = Scenario::parse(
            "nodes 2\nsession route=0..5 rate=1 source=poisson(gap=1ms,len=1)\nrun 1s",
        )
        .unwrap_err();
        assert!(e.message.contains("route ends"));
        let e = Scenario::parse(
            "nodes 2\nsession route=1..0 rate=1 source=poisson(gap=1ms,len=1)\nrun 1s",
        )
        .unwrap_err();
        assert!(e.message.contains("end before start"));
    }

    #[test]
    fn missing_directives() {
        assert!(Scenario::parse("run 1s").is_err());
        assert!(Scenario::parse("nodes 1").is_err());
        let e = Scenario::parse("nodes 1\nrun 1s").unwrap_err();
        assert!(e.message.contains("no sessions"));
    }

    #[test]
    fn disciplines_and_queue_parse() {
        for d in [
            "lit",
            "fcfs",
            "virtualclock",
            "wfq",
            "scfq",
            "delay-edd",
            "jitter-edd",
            "stop-and-go:frame=10ms",
            "hrr:slots=48",
        ] {
            let text = format!(
                "nodes 1\ndiscipline {d}\nqueue bucket=1ms\nsession route=0..0 rate=1000 source=cbr(gap=10ms,len=424)\nrun 1s"
            );
            let sc = Scenario::parse(&text).unwrap_or_else(|e| panic!("{d}: {e}"));
            let (net, ids) = sc.run_probed(&RunOptions::default(), None);
            assert!(net.session_stats(ids[0]).delivered > 0, "{d}");
        }
    }

    #[test]
    fn shaped_and_burst_sources() {
        let text = "nodes 1\nsession route=0..0 rate=32000 shape=32000:848 \
                    source=burst(period=100ms,count=5,len=424)\nrun 5s";
        let sc = Scenario::parse(text).unwrap();
        let (net, ids) = sc.run_probed(&RunOptions::default(), None);
        assert!(net.session_stats(ids[0]).delivered >= 200);
    }

    #[test]
    fn to_text_round_trips_every_feature() {
        // One scenario exercising every serializable field: non-default
        // link, bucketed queue, calendar backend, jc, fixed d, shaping,
        // all four source kinds, fractional-unit durations.
        let text = "nodes 3 rate=3072000 prop=0.5ms lmax=848\n\
                    discipline lit\n\
                    queue bucket=1ms\n\
                    backend calendar\n\
                    seed 99\n\
                    session route=0..2 rate=32000 jc d=13.25ms source=onoff(on=352ms,off=650ms,t=13.25ms,len=424)\n\
                    session route=1..1 rate=64000 shape=64000:1696 source=poisson(gap=0.28804ms,len=848)\n\
                    session route=0..1 rate=32000 source=cbr(gap=13.25ms,len=424,offset=1.5ms)\n\
                    session route=2..2 rate=32000 source=burst(period=50ms,count=100,len=424)\n\
                    run 2.5s\n";
        let sc = Scenario::parse(text).unwrap();
        let serialized = sc.to_text();
        let back = Scenario::parse(&serialized).unwrap_or_else(|e| panic!("{e}\n{serialized}"));
        assert_eq!(back, sc, "serialized:\n{serialized}");
        // Serialization is a fixpoint: text → Scenario → text → Scenario
        // converges after one round.
        assert_eq!(back.to_text(), serialized);
    }

    #[test]
    fn duration_formatting_picks_shortest_exact_unit() {
        assert_eq!(fmt_duration(Duration::from_secs(60)), "60s");
        assert_eq!(fmt_duration(Duration::from_ms(13)), "13ms");
        assert_eq!(fmt_duration(Duration::from_us(13_250)), "13250us");
        assert_eq!(fmt_duration(Duration::from_ns(500)), "500ns");
        assert_eq!(fmt_duration(Duration::from_ps(1_500)), "1.500ns");
        for d in [
            Duration::from_us(13_250),
            Duration::from_ps(287_999_999),
            Duration::from_ns(1),
        ] {
            assert_eq!(parse_duration(&fmt_duration(d)).unwrap(), d, "{d}");
        }
    }

    #[test]
    fn durations_round_trip_past_the_f64_mantissa() {
        // A float parser reads 2⁵³ + 1 ps (`9007199254740.993ns`) one off.
        for ps in [9_007_199_254_740_993, u64::MAX - 1, u64::MAX] {
            let d = Duration::from_ps(ps);
            assert_eq!(parse_duration(&fmt_duration(d)).unwrap(), d, "{ps}");
        }
        let err = |s| parse_duration(s).unwrap_err();
        assert!(err("18446744073709551.616ns").contains("out of range"));
        assert!(err("1.2.3ms").contains("bad duration value"));
    }

    #[test]
    fn malformed_inputs_error_with_context() {
        // "input => expected substring of the message"
        let whole = [
            "nodes 2 bogus=1\nrun 1s => unknown option 'bogus'",
            "nodes x\nrun 1s => bad count",
            "nodes 2\ndiscipline tardis\nrun 1s => unknown discipline",
            "nodes 2\ndiscipline hrr:slots=zero\nrun 1s => bad slot count",
            "nodes 2\ndiscipline hrr:slots=0\nrun 1s => bad slot count",
            "nodes 2\ndiscipline stop-and-go:frame=0ms\nrun 1s => frame must be positive",
            "nodes 2\nqueue fifo\nrun 1s => unknown queue kind",
            "nodes 2\nbackend abacus\nrun 1s => unknown backend",
            "nodes 2\nseed minus-one\nrun 1s => bad value",
            "nodes 2\nrun 1parsec => unknown duration unit",
            "nodes 2\nrun -1s => out of range",
            "nodes 2\nsession rate=1 source=poisson(gap=1ms,len=1)\nrun 1s => missing route",
            // Hostile values: each used to panic in the engine or run
            // silently with a void bound.
            "nodes 2 rate=0\nrun 1s => nodes: rate must be a positive",
            "nodes 2 lmax=0\nrun 1s => nodes: lmax must be a positive",
            "nodes 2\ngenerate tandem(n=2,rho=0.5,len=848)\nrun 1s => 848 exceeds lmax=424",
            "nodes 2\nqueue bucket=0ms\nrun 1s => queue: bucket must be positive",
            "nodes 2\nregulator interleaved\ndiscipline fcfs\nrun 1s => runs discipline lit only",
            "nodes 2\nsession route=0..5 rate=1 source=cbr(gap=1ms,len=1)\nrun 1s => node 5 of 2",
            "nodes 2\nsession path=0,7 rate=1 source=cbr(gap=1ms,len=1)\nrun 1s => node 7 of 2",
            // Parsing only: the count is refused before anything is built.
            "nodes 4097\nrun 1s => nodes: more than 4096",
        ];
        // The options of `session route=0..1` on a 2-node network.
        let session = [
            "source=poisson(gap=1ms,len=1) => missing rate",
            "rate=1 => missing source",
            "rate=1 source=chaos(x=1) => unknown source kind",
            "rate=1 source=poisson(len=1) => missing 'gap'",
            "rate=1 source=poisson => bad source syntax",
            "rate=1 shape=32000 source=poisson(gap=1ms,len=1) => want rate:bits",
            "rate=0 source=poisson(gap=1ms,len=1) => session: rate must be a positive",
            "rate=1 source=poisson(gap=0ms,len=1) => 'gap' must be positive",
            "rate=1 source=cbr(gap=0ms,len=1) => 'gap' must be positive",
            "rate=1 source=burst(period=0ms,count=1,len=1) => 'period' must be positive",
            "rate=1 source=burst(period=1ms,count=0,len=1) => 'count' must be a positive",
            "rate=1 source=onoff(on=1ms,off=1ms,t=0ms,len=1) => 't' must be positive",
            "rate=1 source=poisson(gap=1ms,len=0) => 'len' must be a positive",
            "rate=1 source=cbr(gap=1ms,len=10000) => 10000 exceeds lmax=424",
            "rate=1 shape=0:424 source=cbr(gap=1ms,len=424) => want a positive rate",
            "rate=1 shape=1:423 source=cbr(gap=1ms,len=424) => depth ≥ the packet length",
        ];
        let check = |text: &str, want: &str| {
            let e = Scenario::parse(text).unwrap_err();
            assert!(
                e.message.contains(want) && e.line > 0,
                "for {text:?}: got {e}, want substring {want:?} at a line"
            );
        };
        let split = |row: &'static str| row.split_once(" => ").expect("input => expected");
        for (text, want) in whole.map(split) {
            check(text, want);
        }
        for (opts, want) in session.map(split) {
            check(&format!("nodes 2\nsession route=0..1 {opts}\nrun 1s"), want);
        }
        // `lmax` may come after the session: the length check waits for
        // the whole file and still names the session's line.
        let text = "\nsession route=0..1 rate=1 source=cbr(gap=1ms,len=848)\nnodes 2\nrun 1s";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.to_string(), "line 2: packet length 848 exceeds lmax=424");
    }

    const FIG8_CROSS_SCN: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/fig8_cross.scn"
    ));
    const MISBEHAVER_SCN: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/misbehaver.scn"
    ));

    #[test]
    fn golden_fig8_cross_scenario() {
        let sc = Scenario::parse(FIG8_CROSS_SCN).unwrap();
        assert_eq!(sc.nodes, 5);
        assert_eq!(sc.seed, 7);
        assert_eq!(sc.discipline, DisciplineChoice::Lit);
        assert_eq!(sc.horizon, Duration::from_secs(60));
        assert_eq!(sc.sessions.len(), 7);
        assert!(sc.sessions[1].jc && !sc.sessions[0].jc);
        assert_eq!((sc.sessions[0].first, sc.sessions[0].last), (0, 4));
        match sc.sessions[2].source {
            SourceSpec::Poisson { gap, len } => {
                assert_eq!(gap, Duration::from_ns(288_040));
                assert_eq!(len, 424);
            }
            ref other => panic!("session 2: want poisson, got {other:?}"),
        }
        // Round-trips exactly (whole-ns durations throughout).
        assert_eq!(Scenario::parse(&sc.to_text()).unwrap(), sc);
    }

    const GEN_TANDEM_SCN: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/gen_tandem_ladder.scn"
    ));
    const GEN_FATTREE_SCN: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/gen_fattree.scn"
    ));
    const GEN_WAN_SCN: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/gen_wan.scn"
    ));
    const OVERLOAD_SCN: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/overload_rho120.scn"
    ));

    #[test]
    fn golden_generator_scenarios_round_trip() {
        // Every committed generator fixture must survive text → Scenario
        // → text → Scenario unchanged, keep its stanza unexpanded, and
        // expand to the documented population.
        let tandem = Scenario::parse(GEN_TANDEM_SCN).unwrap();
        assert_eq!(tandem.nodes, 8);
        assert_eq!(tandem.generators.len(), 1);
        assert_eq!(tandem.regulator, RegulatorBackend::PerSession);
        assert_eq!(Scenario::parse(&tandem.to_text()).unwrap(), tandem);
        assert_eq!(tandem.expanded().sessions.len(), 4 + 8 * 4);

        let fattree = Scenario::parse(GEN_FATTREE_SCN).unwrap();
        assert_eq!(fattree.nodes, 12); // implied by the stanza
        assert_eq!(fattree.regulator, RegulatorBackend::Interleaved);
        assert_eq!(Scenario::parse(&fattree.to_text()).unwrap(), fattree);
        assert_eq!(fattree.expanded().sessions.len(), 9);

        let wan = Scenario::parse(GEN_WAN_SCN).unwrap();
        assert_eq!(wan.nodes, 12);
        assert_eq!(Scenario::parse(&wan.to_text()).unwrap(), wan);
        assert_eq!(wan.expanded().sessions.len(), 32);

        let overload = Scenario::parse(OVERLOAD_SCN).unwrap();
        assert_eq!(Scenario::parse(&overload.to_text()).unwrap(), overload);
        match overload.generators[0] {
            GenSpec::Tandem { rho_bp, .. } => assert_eq!(rho_bp, 12_000),
            ref other => panic!("want tandem, got {other:?}"),
        }
    }

    #[test]
    fn golden_overload_fixture_trips_the_oracle() {
        // Acceptance fixture: rho > 1 must demonstrably violate the
        // bounds. A shortened horizon keeps the test quick; overload
        // shows up within the first second.
        let sc = Scenario::parse(OVERLOAD_SCN)
            .unwrap()
            .with_horizon(Duration::from_secs(2));
        let (mut net, _ids) = sc.run_probed(
            &RunOptions {
                oracle: OracleMode::Count,
                ..RunOptions::default()
            },
            None,
        );
        net.oracle_drain_check();
        assert!(
            net.oracle_violations() > 0,
            "rho=1.2 stayed clean: {:?}",
            net.oracle_totals()
        );
    }

    #[test]
    fn golden_misbehaver_scenario() {
        let sc = Scenario::parse(MISBEHAVER_SCN).unwrap();
        assert_eq!(sc.nodes, 1);
        assert_eq!(sc.seed, 3);
        assert_eq!(sc.horizon, Duration::from_secs(30));
        assert_eq!(sc.sessions.len(), 2);
        match sc.sessions[1].source {
            SourceSpec::Burst { period, count, len } => {
                assert_eq!(period, Duration::from_ms(50));
                assert_eq!(count, 100);
                assert_eq!(len, 424);
            }
            ref other => panic!("session 1: want burst, got {other:?}"),
        }
        assert_eq!(Scenario::parse(&sc.to_text()).unwrap(), sc);
    }

    /// Two modest sessions fit node 0 of a T1; the third asks for a
    /// per-hop d below its L/C floor.
    const AC3_OVERLOAD_SCN: &str = "nodes 2 rate=1536000 prop=1ms lmax=424\n\
        session route=0..1 rate=32000 d=13.25ms source=cbr(gap=13.25ms,len=424)\n\
        session route=0..1 rate=32000 d=13.25ms source=cbr(gap=13.25ms,len=424)\n\
        session route=0..0 rate=64000 d=0.1ms source=cbr(gap=6.625ms,len=424)\n\
        run 1s";

    /// Session 0 loads node 1 only; session 1 (route 0..1) clears node 0
    /// but is refused at node 1; session 2 wants node 0's full rate.
    const AC3_ROLLBACK_SCN: &str = "nodes 2 rate=1536000 prop=1ms lmax=424\n\
        session route=1..1 rate=1300000 d=1ms source=cbr(gap=1ms,len=424)\n\
        session route=0..1 rate=400000 d=1ms source=cbr(gap=1ms,len=424)\n\
        session route=0..0 rate=1536000 d=1ms source=cbr(gap=1ms,len=424)\n\
        run 1s";

    #[test]
    fn ac3_vet_admits_feasible_and_drops_overload() {
        let sc = Scenario::parse(AC3_OVERLOAD_SCN).unwrap();
        let verdicts = sc.ac3_vet();
        assert_eq!(verdicts.len(), 3);
        assert_eq!((&verdicts[0], &verdicts[1]), (&Ok(()), &Ok(())));
        // Rejected by ineq. 19 at node 0, on the singleton {candidate}.
        match &verdicts[2] {
            Err((0, Ac3FastError::Infeasible(w))) => assert!(w.classes.is_empty(), "{w:?}"),
            other => panic!("want Infeasible at node 0, got {other:?}"),
        }
        // Dropping the rejected line leaves a runnable scenario.
        let kept = sc.retain_sessions(&[true, true, false]);
        assert_eq!(kept.sessions.len(), 2);
        let (net, ids) = kept.run_probed(&RunOptions::default(), None);
        assert!(net.session_stats(ids[0]).delivered > 0);
    }

    #[test]
    fn ac3_vet_rolls_back_mid_route_rejection() {
        let sc = Scenario::parse(AC3_ROLLBACK_SCN).unwrap();
        let verdicts = sc.ac3_vet();
        assert_eq!(verdicts[0], Ok(()));
        assert_eq!(verdicts[1], Err((1, Ac3FastError::RateExceeded)));
        // Node 0's grant to session 1 was released, or this would fail.
        assert_eq!(verdicts[2], Ok(()), "node 0 leaked the rolled-back grant");

        // The same establishment step by step: the rejected session
        // leaves every node's reservation exactly where it found it.
        let mut nodes = sc.ac3_nodes();
        let rates = |nodes: &[Ac3Fast]| -> Vec<u64> {
            nodes.iter().map(|n| n.admitted_rate_bps()).collect()
        };
        assert_eq!(sc.sessions[0].ac3_establish(&mut nodes), Ok(()));
        let before = rates(&nodes);
        assert_eq!(before, [0, 1_300_000]);
        assert_eq!(sc.sessions[1].ac3_establish(&mut nodes), verdicts[1]);
        assert_eq!(rates(&nodes), before);
    }

    /// `ac3_vet()`'s per-session verdicts, pinned to what `--ac3` prints
    /// for each scenario:
    ///
    /// ```text
    /// misbehaver.scn   session 0 admitted
    ///                  session 1 admitted
    /// overload         session 0 admitted
    ///                  session 1 admitted
    ///                  session 2 REJECTED (node 0: inequality (19) violated by a set of 1 sessions in 1 classes)
    /// rollback         session 0 admitted
    ///                  session 1 REJECTED (node 1: total reserved rate would exceed C)
    ///                  session 2 admitted
    /// ```
    #[test]
    fn ac3_vet_verdicts_are_pinned() {
        let show = |text: &str| -> Vec<String> {
            Scenario::parse(text)
                .unwrap()
                .ac3_vet()
                .iter()
                .map(|v| match v {
                    Ok(()) => "admitted".to_string(),
                    Err((n, e)) => format!("REJECTED (node {n}: {e})"),
                })
                .collect()
        };
        assert_eq!(show(MISBEHAVER_SCN), ["admitted", "admitted"]);
        assert_eq!(
            show(AC3_OVERLOAD_SCN),
            [
                "admitted",
                "admitted",
                "REJECTED (node 0: inequality (19) violated by a set of 1 sessions in 1 classes)"
            ]
        );
        assert_eq!(
            show(AC3_ROLLBACK_SCN),
            [
                "admitted",
                "REJECTED (node 1: total reserved rate would exceed C)",
                "admitted"
            ]
        );
    }

    /// The tally's *undecided* column is fed constructed errors:
    /// `Overflow` (products past `u128`) is not reachable from a scenario
    /// file on a T1 link, so no fixture contrives one.
    #[test]
    fn ac3_tally_counts_conservative_rejects_as_undecided() {
        let verdicts = [
            Ok(()),
            Err((0, Ac3FastError::RateExceeded)),
            Err((3, Ac3FastError::Overflow)),
            Ok(()),
            Err((1, Ac3FastError::Overflow)),
            Err((2, Ac3FastError::ZeroParameter)),
        ];
        assert_eq!(
            Ac3Tally::of(&verdicts),
            Ac3Tally {
                admitted: 2,
                infeasible: 2,
                undecided: 2,
            }
        );
        let real = Scenario::parse(AC3_OVERLOAD_SCN).unwrap().ac3_vet();
        assert_eq!(
            Ac3Tally::of(&real),
            Ac3Tally {
                admitted: 2,
                infeasible: 1,
                undecided: 0,
            }
        );
    }

    #[test]
    fn generator_stanzas_round_trip_and_expand() {
        let text = "nodes 8 rate=1536000 prop=1ms lmax=424\n\
                    regulator interleaved\n\
                    generate tandem(n=8,rho=0.95,through=4,cross=4,len=424)\n\
                    run 5s";
        let sc = Scenario::parse(text).unwrap();
        assert_eq!(sc.regulator, RegulatorBackend::Interleaved);
        assert_eq!(sc.generators.len(), 1);
        assert!(sc.sessions.is_empty());
        let serialized = sc.to_text();
        let back = Scenario::parse(&serialized).unwrap_or_else(|e| panic!("{e}\n{serialized}"));
        assert_eq!(back, sc, "serialized:\n{serialized}");
        assert_eq!(back.to_text(), serialized);
        let ex = sc.expanded();
        assert!(ex.generators.is_empty());
        assert_eq!(ex.sessions.len(), 4 + 8 * 4);
        // Through sessions span the line under jitter control; every
        // reservation is ρ·C split over the link's through+cross share.
        assert!(ex.sessions[0].jc);
        assert_eq!((ex.sessions[0].first, ex.sessions[0].last), (0, 7));
        assert_eq!(ex.sessions[0].rate, 1_536_000 * 9_500 / (10_000 * 8));
        // CBR gap rounds up: emitted rate never exceeds the reservation.
        for s in &ex.sessions {
            match s.source {
                SourceSpec::Cbr { gap, len, .. } => {
                    assert!(gap.as_ps() as u128 * s.rate as u128 >= len as u128 * 1_000_000_000_000)
                }
                ref other => panic!("want cbr, got {other:?}"),
            }
        }
        // Phase offsets are pairwise distinct.
        let mut offsets: Vec<_> = ex
            .sessions
            .iter()
            .map(|s| match s.source {
                SourceSpec::Cbr { offset, .. } => offset,
                ref other => panic!("want cbr, got {other:?}"),
            })
            .collect();
        offsets.sort();
        offsets.dedup();
        assert_eq!(offsets.len(), ex.sessions.len());
    }

    #[test]
    fn fattree_generator_implies_nodes_and_routes_leafward() {
        // No `nodes` directive: the stanza implies 3 + 9 = 12 uplinks.
        let text = "generate fattree(depth=2,fanout=3,rho=0.9)\nrun 1s";
        let sc = Scenario::parse(text).unwrap();
        assert_eq!(sc.nodes, 12);
        assert_eq!(Scenario::parse(&sc.to_text()).unwrap(), sc);
        let ex = sc.expanded();
        assert_eq!(ex.sessions.len(), 9); // one flow per leaf
        for s in &ex.sessions {
            // Each flow descends from its leaf uplink to a level-1 uplink.
            let p = s.path.as_ref().unwrap();
            assert_eq!(p.len(), 2);
            assert!(p[0] >= 3 && p[1] < 3, "{p:?}");
            // The level-1 bottleneck carries fanout^(depth-1) = 3 flows.
            assert_eq!(s.rate, 1_536_000 * 9_000 / (10_000 * 3));
        }
    }

    #[test]
    fn wan_generator_is_deterministic_and_normalized() {
        let text = "generate wan(nodes=10,flows=16,rho=0.8)\nrun 1s";
        let a = Scenario::parse(text).unwrap().expanded();
        let b = Scenario::parse(text).unwrap().expanded();
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.sessions.len(), 16);
        let mut load = [0u64; 10];
        for s in &a.sessions {
            let p = s.route_nodes();
            // Strictly increasing node ids — forward, acyclic paths.
            assert!(p.windows(2).all(|w| w[0] < w[1]), "{p:?}");
            assert!(*p.iter().max().unwrap() < 10);
            for n in p {
                load[n] += s.rate;
            }
        }
        // The most-loaded link's reservations total at most ρ·C.
        assert!(*load.iter().max().unwrap() <= 1_536_000 * 8_000 / 10_000);
    }

    #[test]
    fn path_sessions_parse_run_and_round_trip() {
        let text = "nodes 4\nsession path=0,2,3 rate=32000 source=cbr(gap=13.25ms,len=424)\nrun 1s";
        let sc = Scenario::parse(text).unwrap();
        assert_eq!(sc.sessions[0].route_nodes(), vec![0, 2, 3]);
        assert_eq!(sc.sessions[0].route_desc(), "0-2-3");
        let (net, ids) = sc.run_probed(&RunOptions::default(), None);
        assert!(net.session_stats(ids[0]).delivered > 0);
        assert_eq!(Scenario::parse(&sc.to_text()).unwrap(), sc);
        for (bad, want) in [
            (
                "nodes 4\nsession route=0..1 path=0,1 rate=1 source=cbr(gap=1ms,len=1)\nrun 1s",
                "route or path, not both",
            ),
            (
                "nodes 4\nsession path=0,1,0 rate=1 source=cbr(gap=1ms,len=1)\nrun 1s",
                "repeated node",
            ),
            (
                "nodes 2\nsession path=0,5 rate=1 source=cbr(gap=1ms,len=1)\nrun 1s",
                "route ends",
            ),
        ] {
            let e = Scenario::parse(bad).unwrap_err();
            assert!(e.message.contains(want), "{bad:?}: {}", e.message);
        }
    }

    #[test]
    fn regulator_directive_selects_backend_and_runs_clean() {
        let text = "nodes 3\nregulator interleaved\n\
                    session route=0..2 rate=32000 jc source=cbr(gap=13.25ms,len=424)\n\
                    session route=1..1 rate=64000 source=cbr(gap=6.625ms,len=424)\n\
                    run 2s";
        let sc = Scenario::parse(text).unwrap();
        assert_eq!(sc.regulator, RegulatorBackend::Interleaved);
        assert_eq!(Scenario::parse(&sc.to_text()).unwrap(), sc);
        let (mut net, ids) = sc.run_probed(
            &RunOptions {
                oracle: OracleMode::Count,
                ..RunOptions::default()
            },
            None,
        );
        net.oracle_drain_check();
        assert!(net.session_stats(ids[0]).delivered > 100);
        assert_eq!(net.oracle_violations(), 0, "{:?}", net.oracle_totals());
        assert!(Scenario::parse("nodes 1\nregulator sometimes\nrun 1s").is_err());
    }

    #[test]
    fn generator_stanzas_reject_malformed_input() {
        for (text, want) in [
            ("generate tandem(rho=0.9)\nrun 1s", "missing 'n'"),
            ("generate tandem(n=3)\nrun 1s", "missing 'rho'"),
            ("generate tandem(n=3,rho=7)\nrun 1s", "out of range"),
            ("generate tandem(n=0,rho=0.9)\nrun 1s", "n out of range"),
            (
                "generate tandem(n=3,rho=0.9,depth=2)\nrun 1s",
                "unknown option",
            ),
            (
                "generate fattree(depth=9,fanout=2,rho=0.9)\nrun 1s",
                "depth in [1, 6]",
            ),
            (
                "generate wan(nodes=0,flows=4,rho=0.9)\nrun 1s",
                "out of range",
            ),
            (
                "generate mesh(n=3,rho=0.9)\nrun 1s",
                "unknown generator family",
            ),
            ("generate tandem\nrun 1s", "bad generator syntax"),
        ] {
            let e = Scenario::parse(text).unwrap_err();
            assert!(
                e.message.contains(want),
                "for {text:?}: got {:?}, want substring {want:?}",
                e.message
            );
        }
    }

    #[test]
    fn with_rho_rewrites_every_stanza() {
        let sc = Scenario::parse(
            "generate tandem(n=4,rho=0.5)\ngenerate wan(nodes=6,flows=4,rho=0.5)\nrun 1s",
        )
        .unwrap();
        let hot = sc.with_rho(12_000);
        for g in &hot.generators {
            let (GenSpec::Tandem { rho_bp, .. }
            | GenSpec::FatTree { rho_bp, .. }
            | GenSpec::Wan { rho_bp, .. }) = g;
            assert_eq!(*rho_bp, 12_000);
        }
        // Overload over-reserves: per-session rates exceed the fair C/m
        // share, so the bottleneck's reservations total 1.2·C.
        let ex = hot.expanded();
        let fair = ex.sessions[0].rate;
        assert!(fair > sc.expanded().sessions[0].rate);
    }

    #[test]
    fn rho_literals_round_trip() {
        for (s, bp) in [
            ("0.95", 9_500),
            ("1", 10_000),
            ("1.2", 12_000),
            ("0.5", 5_000),
        ] {
            assert_eq!(parse_rho(s).unwrap(), bp);
            assert_eq!(parse_rho(&fmt_rho(bp)).unwrap(), bp);
        }
        assert!(parse_rho("0").is_err());
        assert!(parse_rho("2.5").is_err());
        assert!(parse_rho("nan").is_err());
    }

    #[test]
    fn with_discipline_swaps_only_the_discipline() {
        let sc = Scenario::parse(MISBEHAVER_SCN).unwrap();
        let vc = sc.with_discipline("virtualclock").unwrap();
        assert_eq!(vc.discipline, DisciplineChoice::VirtualClock);
        assert_eq!(vc.sessions, sc.sessions);
        assert!(sc.with_discipline("tardis").is_err());
    }
}
