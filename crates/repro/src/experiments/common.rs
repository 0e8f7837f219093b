//! Shared experiment machinery: run configuration, the paper tandem every
//! figure admits its sessions into (`Tandem`), the MIX and CROSS
//! configurations built on it, the replica runner that pools the
//! single-run distribution experiments (`run_replicas`), and bound
//! helpers.

use crate::collect::Collector;
use crate::scenario::RunOptions;
use crate::topology::{cross_routes, five_hop, mix_routes, paper_tandem, Route};
use lit_analysis::DurationHistogram;
use lit_core::{
    ClassedAdmission, ConnectionManager, DRule, DelayClass, LitDiscipline, PathBounds, Procedure,
    SessionRequest,
};
use lit_net::{
    DisciplineFactory, Network, NetworkBuilder, NodeId, OccupancyHistogram, QueueKind, SessionId,
    SessionSpec, SessionStats, StatsConfig,
};
use lit_sim::{Duration, Time};
use lit_traffic::{OnOffConfig, OnOffSource, PoissonSource, Source, ATM_CELL_BITS};
use std::sync::atomic::{AtomicUsize, Ordering};

/// T1 capacity, bits per second.
pub const T1_BPS: u64 = 1_536_000;
/// The standard 32 kbit/s reservation of the paper's ON-OFF/CBR sessions.
pub const VOICE_BPS: u64 = 32_000;

/// The paper's Table-1 mean gaps are whole nanoseconds (pinned against
/// their float spellings in `lit_sim::time`'s tests). Fig. 9's tagged
/// 400 kbit/s Poisson session: 1.5143 ms.
pub const TAGGED_400K_GAP: Duration = Duration::from_ns(1_514_300);
/// Fig. 9's 1 136 kbit/s Poisson cross traffic: 0.3929 ms.
pub const CROSS_1136K_GAP: Duration = Duration::from_ns(392_900);
/// The 1 472 kbit/s Poisson cross traffic of Fig. 8/10/12–13: 0.28804 ms.
pub const CROSS_1472K_GAP: Duration = Duration::from_ns(288_040);
/// The firewall experiment's polite 640 kbit/s filler: 0.8 ms.
pub const FILLER_640K_GAP: Duration = Duration::from_ns(800_000);

/// How long to simulate, with which master seed, how to spread
/// independent runs over worker threads, under which engine options, and
/// where finished networks leave their results. The only carrier of any
/// of these: nothing an experiment builds reads ambient state.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig<'a> {
    /// Override of the experiment's paper-specified duration (seconds of
    /// simulated time); `None` runs the full paper duration.
    pub seconds: Option<u64>,
    /// Master seed; every session derives its own stream from it.
    pub seed: u64,
    /// Worker-thread count for [`run_points`]; `None` uses every
    /// available core. Thread count never changes results — only
    /// wall-clock time.
    pub threads: Option<usize>,
    /// Independent repetitions of the single-run distribution experiments
    /// (Figures 8–13 and the heavy-tail extension), pooled into one set
    /// of histograms. Replica `r` runs with [`replica_seed`]`(seed, r)`,
    /// so replica 0 alone reproduces a `replicas = 1` run exactly.
    pub replicas: u32,
    /// Engine options of every network built (the CLI's `--oracle`,
    /// `--regulator` and `--shards`); the default is the paper's engine,
    /// unchecked.
    pub engine: RunOptions,
    /// Where every network is retired once its point has been measured.
    pub collector: &'a Collector,
}

impl<'a> RunConfig<'a> {
    /// Full paper durations (5 or 10 minutes depending on the experiment).
    pub fn paper(collector: &'a Collector) -> Self {
        RunConfig {
            seconds: None,
            seed: 0x5EED_1995,
            threads: None,
            replicas: 1,
            engine: RunOptions::default(),
            collector,
        }
    }

    /// A fast configuration for tests and smoke runs: reduced horizon,
    /// several pooled replicas so the distribution tails still fill in.
    pub fn quick(collector: &'a Collector) -> Self {
        RunConfig {
            seconds: Some(20),
            replicas: 4,
            ..RunConfig::paper(collector)
        }
    }

    /// [`RunOptions::build`] under this run's engine options, with the
    /// collector's probe installed.
    pub fn build(
        &self,
        b: NetworkBuilder,
        factory: &DisciplineFactory<'_>,
        checked: bool,
    ) -> Network {
        self.engine
            .build(b, factory, checked, self.collector.probe())
    }

    /// The horizon for an experiment whose paper duration is
    /// `paper_seconds`.
    pub fn horizon(&self, paper_seconds: u64) -> Time {
        Time::from_secs(self.seconds.unwrap_or(paper_seconds))
    }

    /// Number of worker threads [`run_points`] will use.
    pub fn worker_count(&self) -> usize {
        self.threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(1)
            })
            .max(1)
    }

    /// The replica master seeds of this configuration, in replica order.
    pub fn replica_seeds(&self) -> Vec<u64> {
        (0..self.replicas.max(1))
            .map(|r| replica_seed(self.seed, r))
            .collect()
    }
}

/// Master seed of replica `r`: the configured seed itself for replica 0
/// (so single-replica runs are unchanged), an independent SplitMix64
/// derivation for the rest.
pub fn replica_seed(master: u64, replica: u32) -> u64 {
    if replica == 0 {
        return master;
    }
    lit_sim::splitmix64_at(master, replica as u64)
}

/// Run every item of a sweep through `f` on a pool of
/// [`RunConfig::worker_count`] worker threads, preserving input order in
/// the output.
///
/// Determinism: item `i` always computes `f(i, &items[i])` with no shared
/// state, and results are reassembled by index — so the output is
/// byte-identical for any thread count, including 1 (where the pool is
/// skipped entirely). Workers claim items from a shared atomic counter,
/// so an expensive item does not leave a whole stripe of the sweep on
/// one thread.
pub fn run_points<P, R, F>(cfg: &RunConfig, items: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    let n = items.len();
    let workers = cfg.worker_count().min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, p)| f(i, p)).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        (i < n).then(|| (i, f(i, &items[i])))
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| s.spawn(|| std::iter::from_fn(&claim).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Distribution statistics of one tagged session, pooled across replicas.
///
/// Histograms add bin-by-bin ([`DurationHistogram::merge`] /
/// [`OccupancyHistogram::merge`]); counters add; extrema take the max.
/// With one replica this is a plain copy of the session's stats.
#[derive(Clone, Debug)]
pub struct PooledSession {
    /// Total delivered packets across replicas.
    pub delivered: u64,
    /// Pooled end-to-end delay distribution.
    pub e2e: DurationHistogram,
    /// Pooled co-simulated reference-server distribution.
    pub reference: DurationHistogram,
    /// Pooled first-hop buffer occupancy.
    pub buffer_first: OccupancyHistogram,
    /// Pooled last-hop buffer occupancy.
    pub buffer_last: OccupancyHistogram,
    /// Largest `D_i − D_i^ref` (signed ps) over all replicas.
    pub max_excess_ps: i128,
}

impl PooledSession {
    /// Snapshot one session's stats from one finished run.
    pub fn from_stats(st: &SessionStats) -> Self {
        let last = st.buffer.len() - 1;
        PooledSession {
            delivered: st.delivered,
            e2e: st.e2e.clone(),
            reference: st.reference.clone(),
            buffer_first: st.buffer[0].clone(),
            buffer_last: st.buffer[last].clone(),
            max_excess_ps: st.max_excess_ps,
        }
    }

    /// Pool another replica's snapshot into this one.
    pub fn absorb(&mut self, other: &PooledSession) {
        self.delivered += other.delivered;
        self.e2e.merge(&other.e2e);
        self.reference.merge(&other.reference);
        self.buffer_first.merge(&other.buffer_first);
        self.buffer_last.merge(&other.buffer_last);
        self.max_excess_ps = self.max_excess_ps.max(other.max_excess_ps);
    }
}

/// What [`run_replicas`] measured: `N` tagged sessions pooled across the
/// replicas, replica 0's bounds for each (bounds depend only on the
/// admission sequence, identical in every replica), and the largest
/// [`max_lateness_fraction`] of any replica.
pub(crate) struct Pooled<const N: usize> {
    /// The tagged sessions' statistics, pooled in replica order.
    pub sessions: [PooledSession; N],
    /// The tagged sessions' path bounds.
    pub bounds: [PathBounds; N],
    /// Scheduler-saturation diagnostic.
    pub lateness_fraction: f64,
}

/// Run [`RunConfig::replicas`] independent copies of a single-run
/// distribution experiment on the worker pool and pool them: replica `r`
/// builds `build(`[`replica_seed`]`(seed, r))` — a network and its `N`
/// tagged sessions — runs it to the horizon of the paper's 10-minute runs,
/// snapshots the tagged sessions and retires the network to the collector.
pub(crate) fn run_replicas<const N: usize>(
    cfg: &RunConfig,
    build: impl Fn(u64) -> (Network, [SessionId; N]) + Sync,
) -> Pooled<N> {
    let reps = run_points(cfg, &cfg.replica_seeds(), |_, &seed| {
        let (mut net, tagged) = build(seed);
        net.run_until(cfg.horizon(600));
        let rep = Pooled {
            sessions: tagged.map(|id| PooledSession::from_stats(net.session_stats(id))),
            bounds: tagged.map(|id| PathBounds::for_session(&net, id)),
            lateness_fraction: max_lateness_fraction(&net),
        };
        cfg.collector.retire(net);
        rep
    });
    let mut reps = reps.into_iter();
    let mut pooled = reps.next().expect("at least one replica");
    for rep in reps {
        for (p, s) in pooled.sessions.iter_mut().zip(&rep.sessions) {
            p.absorb(s);
        }
        pooled.lateness_fraction = pooled.lateness_fraction.max(rep.lateness_fraction);
    }
    pooled
}

/// The a_OFF sweep of Figures 7 and 14–17, in milliseconds (§3: "the same
/// as the ones used in \[25\]").
pub const A_OFF_SWEEP_US: [u64; 7] = [6_500, 18_500, 39_100, 88_000, 150_900, 288_000, 650_000];

/// Statistics sizing used by the delay-distribution experiments.
pub fn fine_stats() -> StatsConfig {
    StatsConfig {
        delay_bin: Duration::from_us(250),
        delay_bins: 8_000, // 2 s of delay headroom
        buffer_bin_bits: ATM_CELL_BITS as u64,
        buffer_bins: 512,
        delivery_log_cap: 0,
    }
}

/// The paper's five T1 nodes in tandem (Fig. 6), every session
/// established through a [`ConnectionManager`] before it joins: the one
/// place the experiments establish a session. Ids, and with them each
/// session's RNG stream, follow [`Tandem::admit`] order.
pub(crate) struct Tandem {
    b: NetworkBuilder,
    cm: ConnectionManager,
    rule: DRule,
    queue: QueueKind,
}

impl Tandem {
    /// An empty tandem seeded with `seed`, sized by [`fine_stats`], with
    /// the exact eligible queue and `admission` under `rule` at every node.
    pub(crate) fn new(seed: u64, admission: ClassedAdmission, rule: DRule) -> Self {
        let mut b = NetworkBuilder::new().seed(seed).stats(fine_stats());
        // A fresh builder numbers the tandem's nodes 0..5, the indices
        // the connection manager and `Route::node_indices` use.
        let nodes = paper_tandem(&mut b);
        Tandem {
            cm: ConnectionManager::new(vec![admission; nodes.len()]),
            b,
            rule,
            queue: QueueKind::Exact,
        }
    }

    /// [`Tandem::new`] under AC1 with one class: `d = L/r` at every hop.
    pub(crate) fn one_class(seed: u64) -> Self {
        Tandem::new(seed, ClassedAdmission::one_class(T1_BPS), DRule::PerPacket)
    }

    /// Replace the statistics sizing.
    pub(crate) fn stats(mut self, cfg: StatsConfig) -> Self {
        self.b = self.b.stats(cfg);
        self
    }

    /// Replace the eligible-queue implementation.
    pub(crate) fn queue(mut self, queue: QueueKind) -> Self {
        self.b = self.b.queue_kind(queue);
        self.queue = queue;
        self
    }

    /// Admit an ATM session reserving `rate` bit/s into `class` at every
    /// node of `route`, then add it with jitter control `jc`, fed by
    /// `source`.
    pub(crate) fn admit(
        &mut self,
        route: Route,
        class: usize,
        rate: u64,
        jc: bool,
        source: impl Source + 'static,
    ) -> SessionId {
        let req = SessionRequest::new(rate, ATM_CELL_BITS);
        let conn = self
            .cm
            .establish(route.node_indices(), class, req, self.rule)
            .expect("the paper's configurations fit every link; admission must pass");
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.jitter_control = jc;
        self.b
            .add_session_with_hops(spec, conn.hops(), Box::new(source))
    }

    /// The Leave-in-Time network. A bucketed eligible queue deliberately
    /// approximates deadline order, so the oracle's exactness invariants
    /// apply, and the oracle runs, only over the exact queue.
    pub(crate) fn build(self, cfg: &RunConfig) -> Network {
        let checked = self.queue == QueueKind::Exact;
        cfg.build(self.b, &LitDiscipline::factory(), checked)
    }
}

/// Admit the MIX sessions in the paper's route order, all ON-OFF voice
/// with mean OFF time `a_off`; `class_of(route, k)` gives the `k`-th
/// session of `route` its class and jitter control. Returns the five-hop
/// sessions in order.
fn admit_mix(
    t: &mut Tandem,
    a_off: Duration,
    class_of: impl Fn(Route, usize) -> (usize, bool),
) -> Vec<SessionId> {
    let mut five = Vec::new();
    for (route, count) in mix_routes() {
        for k in 0..count {
            let (class, jc) = class_of(route, k);
            let src = OnOffSource::new(OnOffConfig::paper_voice(a_off));
            let id = t.admit(route, class, VOICE_BPS, jc, src);
            if route == five_hop() {
                five.push(id);
            }
        }
    }
    five
}

/// Build the MIX configuration, all sessions ON-OFF with the given mean
/// OFF time, under admission control procedure 1 with one class
/// (`d = L/r`). Returns the network and the tagged five-hop session.
pub fn build_mix_one_class(cfg: &RunConfig, a_off: Duration) -> (Network, SessionId) {
    let mut t = Tandem::one_class(cfg.seed);
    let five = admit_mix(&mut t, a_off, |_, _| (0, false));
    (t.build(cfg), five[0])
}

/// The four tagged five-hop sessions of Figures 14–17.
#[derive(Clone, Copy, Debug)]
pub struct Ac2Tagged {
    /// Class 1, without delay-jitter control (Fig. 14).
    pub class1_nojc: SessionId,
    /// Class 1, with delay-jitter control (Fig. 15).
    pub class1_jc: SessionId,
    /// Class 2, without delay-jitter control (Fig. 16).
    pub class2_nojc: SessionId,
    /// Class 2, with delay-jitter control (Fig. 17).
    pub class2_jc: SessionId,
}

/// The paper's two-class AC2 configuration: class 1 (R₁ = 640 kbit/s,
/// σ₁ = 2.77 ms) and class 2 (R₂ = C, σ₂ = 13.25 ms).
pub fn ac2_two_classes() -> Vec<DelayClass> {
    vec![
        DelayClass {
            max_bandwidth_bps: 640_000,
            base_delay: Duration::from_us(2_770),
        },
        DelayClass {
            max_bandwidth_bps: T1_BPS,
            base_delay: Duration::from_us(13_250),
        },
    ]
}

/// Build the MIX configuration under admission control procedure 2 with
/// two classes (Figures 14–17): class 1 holds 5 five-hop (`a-j`) and 5
/// four-hop (`a-i`) sessions with `d = 2.77 ms`; everything else is
/// class 2 with `d ≈ 18.77 ms`. Among the class-1 and class-2 five-hop
/// sessions, one of each is given delay-jitter control.
pub fn build_mix_ac2(cfg: &RunConfig, a_off: Duration) -> (Network, Ac2Tagged) {
    build_mix_classed(cfg, a_off, Procedure::Proc2)
}

/// [`build_mix_ac2`] generalized over the admission procedure. The paper
/// reports having run Figures 14–17 under procedure 1 as well, observing
/// that procedure 2 gives class-1 sessions a lower bound; this builder
/// regenerates both variants from the same class ladder.
pub fn build_mix_classed(
    cfg: &RunConfig,
    a_off: Duration,
    procedure: Procedure,
) -> (Network, Ac2Tagged) {
    let admission = ClassedAdmission::new(procedure, T1_BPS, ac2_two_classes())
        .expect("paper class configuration is valid");
    let mut t = Tandem::new(cfg.seed, admission, DRule::PerSessionMax);
    let five = admit_mix(&mut t, a_off, |route, k| {
        // Class 1: the first 5 sessions of a-j and of a-i. Jitter control
        // for two of the tagged five-hop sessions.
        let class1 = (route == five_hop() || route.name() == "a-i") && k < 5;
        let jc = route == five_hop() && (k == 1 || k == 6);
        (usize::from(!class1), jc)
    });
    let tagged = Ac2Tagged {
        class1_nojc: five[0],
        class1_jc: five[1],
        class2_nojc: five[5],
        class2_jc: five[6],
    };
    (t.build(cfg), tagged)
}

/// Build the CROSS configuration of Figures 8/12/13: two tagged five-hop
/// ON-OFF sessions (a_OFF = 650 ms; the second with jitter control) plus
/// one 1472 kbit/s Poisson session per one-hop cross route
/// (a_P = 0.28804 ms). One-class admission. Returns
/// `(network, no_jc, jc)`.
pub fn build_cross_onoff(cfg: &RunConfig, seed: u64) -> (Network, SessionId, SessionId) {
    build_cross_onoff_queued(cfg, seed, QueueKind::Exact)
}

/// [`build_cross_onoff`] with an explicit eligible-queue implementation —
/// the knob of the approximate-priority-queue ablation.
pub fn build_cross_onoff_queued(
    cfg: &RunConfig,
    seed: u64,
    queue: QueueKind,
) -> (Network, SessionId, SessionId) {
    let mut t = Tandem::one_class(seed).queue(queue);
    let voice = || OnOffSource::new(OnOffConfig::paper_voice(Duration::from_ms(650)));
    let no_jc = t.admit(five_hop(), 0, VOICE_BPS, false, voice());
    let jc = t.admit(five_hop(), 0, VOICE_BPS, true, voice());
    for route in cross_routes() {
        let src = PoissonSource::new(CROSS_1472K_GAP, ATM_CELL_BITS);
        t.admit(route, 0, 1_472_000, false, src);
    }
    (t.build(cfg), no_jc, jc)
}

/// `PathBounds` for a session in a network, plus the token-bucket
/// reference bound `D^ref_max = b₀/r` for a one-cell-deep bucket (the
/// paper's ON-OFF and CBR sessions emit at most one cell per `L/r`).
pub fn voice_bounds(net: &Network, id: SessionId) -> (PathBounds, Duration) {
    let pb = PathBounds::for_session(net, id);
    let dref = Duration::from_bits_at_rate(ATM_CELL_BITS as u64, net.session_spec(id).rate_bps);
    (pb, dref)
}

/// Worst scheduler lateness across all nodes, as a fraction of `L_MAX/C`
/// — the saturation diagnostic. Leave-in-Time guarantees the value stays
/// below 1.
pub fn max_lateness_fraction(net: &Network) -> f64 {
    let lmax = lit_net::LinkParams::paper_t1().lmax_time().as_ps() as f64;
    (0..net.num_nodes())
        .filter_map(|n| net.node_stats(NodeId(n as u32)).max_lateness())
        .map(|l| l as f64 / lmax)
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One session of a built network: each hop's node and `d` in
    /// hundredths of a millisecond, and its jitter control.
    type Row = (Vec<(u32, u64)>, bool);

    fn sessions(net: &Network) -> Vec<Row> {
        let row = |id| {
            let spec = net.session_spec(id);
            let d = |a: &lit_net::DelayAssignment| a.d_max(ATM_CELL_BITS, spec.rate_bps).as_ps();
            let hops = net.session_hops(id);
            let hops = hops.map(|(n, a)| (n, (d(&a) + 5_000_000) / 10_000_000));
            (hops.collect(), spec.jitter_control)
        };
        (0..net.num_sessions() as u32)
            .map(|i| row(SessionId(i)))
            .collect()
    }

    /// The wiring [`Tandem`] centralises, read back from networks that are
    /// built but never run.
    #[test]
    fn tandem_admits_the_papers_sessions() {
        let collector = Collector::default();
        let cfg = RunConfig::quick(&collector);
        let per_link = |s: &[Row]| {
            (0..5)
                .map(|n| s.iter().filter(|r| r.0.iter().any(|h| h.0 == n)).count())
                .collect::<Vec<_>>()
        };
        let jc = |s: &[Row]| (0..s.len()).filter(|&i| s[i].1).collect::<Vec<_>>();
        let five = |d| (0..5).map(|n| (n, d)).collect::<Vec<_>>();

        let ac1 = sessions(&build_mix_one_class(&cfg, Duration::from_ms(88)).0);
        assert_eq!(per_link(&ac1), [48; 5]);
        // One class: d = L/r = 13.25 ms at every hop.
        assert!(ac1.iter().flat_map(|r| &r.0).all(|h| h.1 == 1325));

        let (net, t) = build_mix_ac2(&cfg, Duration::from_ms(88));
        let ac2 = sessions(&net);
        assert_eq!(per_link(&ac2), [48; 5]);
        let hops = |id: SessionId| &ac2[id.index()].0;
        assert_eq!([hops(t.class1_nojc), hops(t.class1_jc)], [&five(277); 2]);
        // Rule 2.3a: 5.52 + 13.25 ms.
        assert_eq!([hops(t.class2_nojc), hops(t.class2_jc)], [&five(1877); 2]);
        assert_eq!(jc(&ac2), [t.class1_jc.index(), t.class2_jc.index()]);

        let (net, no_jc, with_jc) = build_cross_onoff(&cfg, cfg.seed);
        let cross = sessions(&net);
        let hops = |id: SessionId| &cross[id.index()].0;
        assert_eq!([hops(no_jc), hops(with_jc)], [&five(1325); 2]);
        assert_eq!(jc(&cross), [with_jc.index()]);
    }
}
