//! Extension experiment (DESIGN.md E13): the firewall property, head to
//! head.
//!
//! A well-behaved five-hop ON-OFF session crosses five links; on each
//! link a *misbehaving* session (reserved 32 kbit/s but offering ~850
//! kbit/s in periodic 100-packet bursts) competes with it, alongside
//! polite Poisson filler. The victim's delay is measured under FCFS,
//! Leave-in-Time, VirtualClock, WFQ, SCFQ, Delay-EDD, Jitter-EDD and RCSP.
//!
//! Expected shape: FCFS lets the burster push the victim *past* the
//! Leave-in-Time bound; every rate-based discipline keeps the victim under
//! it (ineq. 15). Jitter-EDD's mean delay is high by design (regulators
//! hold packets near the bound) but its jitter is tiny; RCSP's static
//! priority gives the lowest raw delay.

use super::common::{
    max_lateness_fraction, run_points, voice_bounds, RunConfig, FILLER_640K_GAP, VOICE_BPS,
};
use crate::report::{ms, Table};
use crate::topology::{cross_routes, five_hop, paper_tandem};
use lit_baselines::{
    EddDiscipline, FcfsDiscipline, HrrDiscipline, RcspDiscipline, ScfqDiscipline,
    VirtualClockDiscipline, WfqDiscipline,
};
use lit_core::LitDiscipline;
use lit_net::{DisciplineFactory, NetworkBuilder, SessionId, SessionSpec};
use lit_sim::Duration;
use lit_traffic::{BurstSource, OnOffConfig, OnOffSource, PoissonSource, ATM_CELL_BITS};

/// Result for one discipline.
#[derive(Clone, Debug)]
pub struct FirewallRow {
    /// Discipline name.
    pub discipline: &'static str,
    /// Victim's observed maximum end-to-end delay.
    pub max_delay: Duration,
    /// Victim's observed mean delay.
    pub mean_delay: Duration,
    /// Victim's jitter.
    pub jitter: Duration,
    /// The LiT/PGPS analytic bound for the victim (only the rate-based
    /// disciplines are expected to respect it).
    pub lit_bound: Duration,
    /// Scheduler lateness diagnostic (meaningful for deadline schedulers).
    pub lateness_fraction: f64,
}

fn run_one(factory: &DisciplineFactory<'_>, name: &'static str, cfg: &RunConfig) -> FirewallRow {
    let mut b = NetworkBuilder::new().seed(cfg.seed);
    let nodes = paper_tandem(&mut b);
    let victim = b.add_session(
        SessionSpec::atm(SessionId(0), VOICE_BPS),
        &five_hop().nodes(&nodes),
        Box::new(OnOffSource::new(OnOffConfig::paper_voice(
            Duration::from_ms(88),
        ))),
    );
    for route in cross_routes() {
        // The misbehaver: reserved 32 kbit/s, offered ~848 kbit/s.
        b.add_session(
            SessionSpec::atm(SessionId(0), VOICE_BPS),
            &route.nodes(&nodes),
            Box::new(BurstSource::new(Duration::from_ms(50), 100, ATM_CELL_BITS)),
        );
        // Polite filler so the link is otherwise moderately used.
        b.add_session(
            SessionSpec::atm(SessionId(0), 640_000),
            &route.nodes(&nodes),
            Box::new(PoissonSource::new(FILLER_640K_GAP, ATM_CELL_BITS)),
        );
    }
    // The pathwise bounds hold for ANY arrival pattern (the firewall
    // property itself), so the Leave-in-Time arm runs under the oracle —
    // misbehaving source included. Baseline disciplines use other
    // deadline semantics and are exempt.
    let mut net = cfg.build(b, factory, name == "leave-in-time");
    net.run_until(cfg.horizon(120));
    let st = net.session_stats(victim);
    let (pb, dref) = voice_bounds(&net, victim);
    let row = FirewallRow {
        discipline: name,
        max_delay: st.max_delay().unwrap_or(Duration::ZERO),
        mean_delay: st.mean_delay().unwrap_or(Duration::ZERO),
        jitter: st.jitter().unwrap_or(Duration::ZERO),
        lit_bound: pb.delay_bound(dref),
        lateness_fraction: max_lateness_fraction(&net),
    };
    cfg.collector.retire(net);
    row
}

/// Builds one discipline's factory.
type MakeFactory = fn() -> Box<DisciplineFactory<'static>>;

/// The disciplines of the comparison, in table order, each with the
/// constructor of its factory. Factories are built inside each worker so
/// the rows can run concurrently (factories are not `Sync`).
const DISCIPLINES: [(&str, MakeFactory); 9] = [
    ("fcfs", || Box::new(FcfsDiscipline::factory())),
    ("leave-in-time", || Box::new(LitDiscipline::factory())),
    ("virtualclock", || {
        Box::new(VirtualClockDiscipline::factory())
    }),
    ("wfq", || Box::new(WfqDiscipline::factory())),
    ("scfq", || Box::new(ScfqDiscipline::factory())),
    ("delay-edd", || Box::new(EddDiscipline::factory(false))),
    ("jitter-edd", || Box::new(EddDiscipline::factory(true))),
    // RCSP levels chosen so the 13.25 ms LenOverRate assignments land in
    // the middle level.
    ("rcsp", || {
        let levels = [5, 20, 100].map(Duration::from_ms);
        Box::new(RcspDiscipline::factory(levels.to_vec()))
    }),
    // 48-slot frames = 13.25 ms, one slot per 32 kbit/s session.
    ("hrr", || Box::new(HrrDiscipline::factory(48))),
];

/// Run the firewall comparison across all disciplines, one worker-pool
/// item per discipline (the runs are fully independent).
pub fn run(cfg: &RunConfig) -> Vec<FirewallRow> {
    run_points(cfg, &DISCIPLINES, |_, &(name, make)| {
        run_one(&*make(), name, cfg)
    })
}

/// Render the comparison.
pub fn table(rows: &[FirewallRow]) -> Table {
    let mut t = Table::new(
        "Firewall property — victim session vs per-link misbehaving bursts",
        &[
            "discipline",
            "max_delay_ms",
            "mean_delay_ms",
            "jitter_ms",
            "lit_bound_ms",
        ],
    );
    for r in rows {
        t.push(vec![
            r.discipline.to_string(),
            ms(r.max_delay),
            ms(r.mean_delay),
            ms(r.jitter),
            ms(r.lit_bound),
        ]);
    }
    t
}
