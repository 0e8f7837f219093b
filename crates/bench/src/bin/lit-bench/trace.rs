//! `trace`: the separate traced pass that attributes the end-to-end
//! number to layers.
//!
//! Three sources, all driven from outside the program:
//!
//! * **spans** around every call the harness makes into a layer's public
//!   functions (`repro.parse`, `repro.expand`, `net.build`,
//!   `net.run_until`, `net.oracle_drain_check`, the isolated drives);
//! * **counts** from a counting [`Probe`] attached for one repetition —
//!   calls per event, queue depths, regulator holds;
//! * **costs**: per-call cost of a layer driven in isolation at the
//!   depth / session count the counts measured, and real-run
//!   differentials (swap one thing, run the same horizon, subtract).
//!
//! A layer's estimate is `isolated per-call cost × in-situ calls per
//! event`. Isolated calls have the cache to themselves, so estimates are
//! lower bounds; what they do not cover — eligible queue, regulator,
//! link/tx, `SessionStats`, dispatch, and every cache miss the layers
//! inflict on each other — is stated as `net.residual_ns`, not spread
//! over the rows. Every `*_ns` is calibration-normalised like the
//! end-to-end number it decomposes.

use crate::estimator::{median, Calibrator};
use crate::knobs;
use crate::measure::{one_rep, run, Budget, Report};
use crate::spans::Tracer;
use crate::workloads::{
    plan, Instance, NetInput, NetInstance, NetPlan, Plan, SourceModel, Variant,
};
use crate::Metric;
use lit_analysis::DurationHistogram;
use lit_core::LitDiscipline;
use lit_net::{
    Discipline, LinkParams, ObsProbe, OracleMode, Packet, PacketView, Probe, SessionId,
    SessionSpec, StatsConfig,
};
use lit_sim::{Duration, EventQueue, SimRng, Time};
use lit_traffic::{DeterministicSource, PoissonSource, Source};
use std::any::Any;
use std::hint::black_box;

/// Every per-layer metric and its unit: the `per_layer` list of
/// `BENCHMARK.json`, in order. A workload that bypasses a layer reports
/// that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("host.calib_ns_per_iter", "ns"),
    ("host.ns_per_event_raw", "ns"),
    ("host.noise_ratio", "ratio"),
    ("host.setup_raw_s", "s"),
    ("host.trace_overhead_pct", "%"),
    ("repro.parse_us", "us"),
    ("repro.expand_us", "us"),
    ("net.build_ms", "ms"),
    ("net.events", "count"),
    ("net.events_per_packet", "ratio"),
    ("net.bytes_per_session", "B"),
    ("net.equeue_depth_mean", "count"),
    ("net.equeue_depth_max", "count"),
    ("net.reg_holds_per_event", "ratio"),
    ("net.batchable_arrivals_pct", "%"),
    ("net.stats_delta_ns", "ns"),
    ("net.residual_ns", "ns"),
    ("sim.fes_depth_mean", "count"),
    ("sim.fes_depth_max", "count"),
    ("sim.hold_ns", "ns"),
    ("sim.est_ns", "ns"),
    ("sim.backend_delta_ns.wheel", "ns"),
    ("sim.backend_delta_ns.calendar", "ns"),
    ("core.arrival_ns", "ns"),
    ("core.departure_ns", "ns"),
    ("core.calls_per_event", "ratio"),
    ("core.est_ns", "ns"),
    ("core.fcfs_delta_ns", "ns"),
    ("core.ac3.decide_p50_ns", "ns"),
    ("core.ac3.decide_p99_ns", "ns"),
    ("core.ac3.decide_samples", "count"),
    ("core.ac3.release_ns", "ns"),
    ("core.ac3.admit_pct", "%"),
    ("core.ac3.infeasible_pct", "%"),
    ("core.ac3.undecided", "count"),
    ("core.ac3.classes", "count"),
    ("core.ac3.bytes_per_resident", "B"),
    ("traffic.emit_ns", "ns"),
    ("traffic.emits_per_event", "ratio"),
    ("traffic.est_ns", "ns"),
    ("analysis.hist_record_ns", "ns"),
    ("analysis.est_ns", "ns"),
    ("oracle.delta_ns", "ns"),
    ("oracle.violations", "count"),
    ("obs.metrics_delta_ns", "ns"),
    ("obs.trace_delta_ns", "ns"),
    ("shard.s2_ratio", "ratio"),
    ("shard.fallbacks", "count"),
    ("simstat.injected", "count"),
    ("simstat.delivered", "count"),
    ("simstat.max_delay_us", "us"),
    ("simstat.jitter_us", "us"),
    ("simstat.bound_use_ppm", "ppm"),
    ("simstat.utilization_ppm", "ppm"),
    ("simstat.paper_jitter_err_pct", "%"),
];

/// Slices a differential arm runs: a fifth of the horizon.
const ARM_SLICES: usize = crate::estimator::SLICES / 5;
/// Calls per batch of an isolated drive.
const DRIVE_CALLS: usize = 1 << 16;
/// Scalar/sharded pairs behind `shard.s2_ratio`.
const SHARD_PAIRS: usize = 3;

/// How much repetition the traced pass buys. `--quick` buys the least
/// that still walks every code path.
#[derive(Clone, Copy)]
struct Effort {
    /// Repetitions of the plain run (two or more give `host.noise_ratio`).
    reps: usize,
    /// Runs per differential arm (stitched from the cheaper slices).
    arm_runs: usize,
    /// Batches per isolated drive (the median is reported).
    drive_batches: usize,
    /// Admit decisions the `ac3_storm` replay times one by one.
    storm_decisions: u64,
}

const FULL: Effort = Effort {
    reps: 3,
    arm_runs: 2,
    drive_batches: 9,
    storm_decisions: 1_000_000,
};

const QUICK: Effort = Effort {
    reps: 2,
    arm_runs: 1,
    drive_batches: 3,
    storm_decisions: 20_000,
};

/// What the traced pass produced for one workload.
pub struct Traced {
    pub report: Report,
    pub layers: Vec<Metric>,
    pub tracer: Tracer,
}

/// Run the traced pass of one workload.
pub fn trace(name: &str, seed: Option<u64>, quick: bool) -> Result<Traced, String> {
    let (workload, plan) = plan(name, seed, quick)?;
    let mut pass = Pass {
        cal: Calibrator::new(),
        tr: Tracer::on(workload.name),
        effort: if quick { QUICK } else { FULL },
    };
    let mut layers = Vec::new();

    // Memory first: once anything big has been built and dropped, the
    // allocator recycles it and a later build no longer grows the RSS.
    let before = crate::rss_kb().now;
    let inst = plan.setup(&mut Tracer::off());
    let grown = (crate::rss_kb().now.saturating_sub(before) * 1024) as f64;
    let population = inst.population();
    drop(inst);
    let per_head = match &plan {
        Plan::Net(_) => "net.bytes_per_session",
        Plan::Storm(_) => "core.ac3.bytes_per_resident",
    };
    layers.push(Metric::new(per_head, grown / f64::from(population), "B"));

    // The plain run, as spans: its repetitions plus the check pass.
    let reps = Budget::Reps(pass.effort.reps);
    let report = pass.tr.span("bench.run", |tr| {
        run(workload, &plan, reps, false, &mut pass.cal, tr)
    });
    let norm = report
        .metrics
        .iter()
        .find(|m| m.name == "ns_per_event_norm")
        .map_or(f64::NAN, |m| m.value);
    match &plan {
        Plan::Net(p) => layers.extend(pass.net_layers(p, population, norm)),
        Plan::Storm(p) => {
            let Pass { cal, tr, effort } = &mut pass;
            let (share, rows) = tr.span("bench.drives", |tr| {
                p.traced(effort.storm_decisions, cal, tr)
            });
            layers.extend(rows);
            // No simulator layer runs here: the estimate is the replay's
            // share of wall time spent inside the server, the residual is
            // the churn generator and handle table around it.
            layers.push(Metric::new("core.est_ns", share * norm, "ns"));
            layers.push(Metric::new("net.residual_ns", (1.0 - share) * norm, "ns"));
        }
    }
    layers.extend(setup_rows(&pass.tr));
    Ok(Traced {
        report,
        layers,
        tracer: pass.tr,
    })
}

/// The `--trace 1` line of the BENCHMARK.json contract: every
/// [`PER_LAYER`] metric, 0 where the workload bypasses the layer.
pub fn contract_metrics(t: &Traced) -> Vec<Metric> {
    let measured = || t.layers.iter().chain(&t.report.metrics);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured().find(|m| m.name == name).map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// The set-up rows, read off the spans: median duration of every
/// `repro.parse` / `repro.expand` / `net.build` call the pass made.
fn setup_rows(tr: &Tracer) -> Vec<Metric> {
    [
        ("repro.parse", "repro.parse_us", 1e3, "us"),
        ("repro.expand", "repro.expand_us", 1e3, "us"),
        ("net.build", "net.build_ms", 1e6, "ms"),
    ]
    .into_iter()
    .filter_map(|(span, name, per_unit, unit)| {
        let mut ns: Vec<f64> = tr.named(span).map(|s| s.duration_ns()).collect();
        (!ns.is_empty()).then(|| Metric::new(name, median(&mut ns) / per_unit, unit))
    })
    .collect()
}

/// Counts taken at the probe boundary during one repetition.
#[derive(Default)]
struct CountingProbe {
    arrivals: u64,
    injections: u64,
    holds: u64,
    departures: u64,
    deliveries: u64,
    equeue_sum: u64,
    equeue_max: usize,
    fes_sum: u64,
    fes_max: usize,
    /// Arrivals repeating the previous arrival's (time, session, hop):
    /// exactly the runs `batch_arrivals` could drain in one call.
    batchable: u64,
    last: Option<(Time, u32, u32)>,
}

impl Probe for CountingProbe {
    fn on_arrive(&mut self, now: Time, _node: u32, pkt: PacketView, equeue: usize, fes: usize) {
        self.arrivals += 1;
        self.injections += u64::from(pkt.hop == 0);
        self.equeue_sum += equeue as u64;
        self.equeue_max = self.equeue_max.max(equeue);
        self.fes_sum += fes as u64;
        self.fes_max = self.fes_max.max(fes);
        let key = (now, pkt.session, pkt.hop);
        self.batchable += u64::from(self.last == Some(key));
        self.last = Some(key);
    }

    fn on_eligible(&mut self, _: Time, _: u32, _: PacketView, _: Duration) {
        self.holds += 1;
    }

    fn on_depart(&mut self, _: Time, _: u32, _: PacketView, _: i64, delivered: bool) {
        self.departures += 1;
        self.deliveries += u64::from(delivered);
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// The traced pass's working state.
struct Pass {
    cal: Calibrator,
    tr: Tracer,
    effort: Effort,
}

impl Pass {
    /// Normalised ns/event of one differential arm over the first
    /// [`ARM_SLICES`] slices: the arm is built and run `arm_runs` times
    /// and stitched slice by slice from the cheaper run (with two samples
    /// the minimum is the robust choice: noise only ever adds time). Base
    /// and arms all go through here, so a delta compares like with like.
    fn arm_cost(&mut self, mut build: impl FnMut(&mut Tracer) -> NetInstance) -> f64 {
        let Pass { cal, tr, effort } = self;
        let mut floor = [f64::INFINITY; ARM_SLICES];
        let mut events = 0;
        for _ in 0..effort.arm_runs {
            let mut inst = build(tr);
            let slices = cal.timed(ARM_SLICES, |i| {
                tr.span("net.run_until", |_| inst.advance(i))
            });
            for (best, (s, cumulative)) in floor.iter_mut().zip(slices) {
                *best = best.min(s.norm());
                events = cumulative;
            }
        }
        floor.iter().sum::<f64>() / events as f64
    }

    /// Raw wall ns of `inst` run over the first [`ARM_SLICES`] slices in one go.
    fn arm_wall(&mut self, mut inst: NetInstance) -> f64 {
        let t = std::time::Instant::now();
        self.tr
            .span("net.run_until", |_| inst.advance(ARM_SLICES - 1));
        t.elapsed().as_nanos() as f64
    }

    /// Median normalised ns per call over `drive_batches` runs of
    /// `batch`, which makes [`DRIVE_CALLS`] calls; one span per batch.
    fn drive(&mut self, name: &'static str, mut batch: impl FnMut()) -> f64 {
        let Pass { cal, tr, effort } = self;
        let mut per_call: Vec<f64> = (0..effort.drive_batches)
            .map(|_| {
                let (s, ()) = cal.timed_once(|| tr.calls(name, DRIVE_CALLS as u64, |_| batch()));
                s.norm() / DRIVE_CALLS as f64
            })
            .collect();
        median(&mut per_call)
    }

    /// Layer rows of a network workload with `sessions` sessions whose
    /// plain run cost `norm` per event.
    fn net_layers(&mut self, p: &NetPlan, sessions: u32, norm: f64) -> Vec<Metric> {
        // One repetition under the counting probe.
        let (rep, mut inst) = one_rep(&mut self.cal, &mut self.tr, |tr| {
            let v = Variant {
                probe: Some(Box::new(CountingProbe::default())),
                ..Variant::default()
            };
            p.instance(v, tr)
        });
        let probe = inst.net.take_probe().expect("probe was installed");
        let c: &CountingProbe = probe
            .as_any()
            .and_then(|a| a.downcast_ref())
            .expect("the probe installed above");
        let events = *rep.slice_events.last().expect("SLICES > 0") as f64;
        let per_event = |n: u64| n as f64 / events;
        let arrivals = c.arrivals.max(1) as f64;
        let fes_depth = c.fes_sum as f64 / arrivals;
        let overhead_pct = 100.0 * (rep.norm_per_event() / norm - 1.0);

        // Isolated drives, at the depth and session count measured above.
        let drives = self.tr.open("bench.drives", 1);
        let hold = self.drive_hold(fes_depth.round().max(1.0) as u64);
        let (arrival, departure) = self.drive_kernel(sessions);
        let emit = self.drive_source(p.source);
        let record = self.drive_histogram(p.stats());
        self.tr.close(drives);
        let core_est = arrival * per_event(c.arrivals) + departure * per_event(c.departures);
        let traffic_est = emit * per_event(c.injections);
        let analysis_est = record * per_event(c.injections + c.deliveries);
        let residual = norm - hold - core_est - traffic_est - analysis_est;

        let mut rows: Vec<(&str, f64, &'static str)> = vec![
            ("host.trace_overhead_pct", overhead_pct, "%"),
            (
                "net.events_per_packet",
                events / c.injections.max(1) as f64,
                "ratio",
            ),
            (
                "net.equeue_depth_mean",
                c.equeue_sum as f64 / arrivals,
                "count",
            ),
            ("net.equeue_depth_max", c.equeue_max as f64, "count"),
            ("net.reg_holds_per_event", per_event(c.holds), "ratio"),
            (
                "net.batchable_arrivals_pct",
                100.0 * c.batchable as f64 / arrivals,
                "%",
            ),
            ("net.residual_ns", residual, "ns"),
            ("sim.fes_depth_mean", fes_depth, "count"),
            ("sim.fes_depth_max", c.fes_max as f64, "count"),
            ("sim.hold_ns", hold, "ns"),
            // One pop and one push per event, by the definition of an event.
            ("sim.est_ns", hold, "ns"),
            ("core.arrival_ns", arrival, "ns"),
            ("core.departure_ns", departure, "ns"),
            (
                "core.calls_per_event",
                per_event(c.arrivals + c.departures),
                "ratio",
            ),
            ("core.est_ns", core_est, "ns"),
            ("traffic.emit_ns", emit, "ns"),
            ("traffic.emits_per_event", per_event(c.injections), "ratio"),
            ("traffic.est_ns", traffic_est, "ns"),
            ("analysis.hist_record_ns", record, "ns"),
            ("analysis.est_ns", analysis_est, "ns"),
        ];
        let arms = self.tr.open("bench.arms", 1);
        self.arms(p, &mut rows);
        self.tr.close(arms);
        rows.into_iter()
            .map(|(name, value, unit)| Metric::new(name, value, unit))
            .collect()
    }

    /// Real-run differentials: each arm minus the timed configuration,
    /// both over the same fifth of the horizon.
    fn arms(&mut self, p: &NetPlan, rows: &mut Vec<(&str, f64, &'static str)>) {
        let variant =
            |pass: &mut Pass, v: &dyn Fn() -> Variant| pass.arm_cost(|tr| p.instance(v(), tr));
        let base = variant(self, &Variant::default);
        let mut arms: Vec<(&str, f64)> = Vec::new();
        if matches!(p.input, NetInput::Text { .. }) {
            // `Sessions` already runs compact: nothing to swap.
            let compact = || Variant {
                stats: Some(StatsConfig::compact()),
                ..Variant::default()
            };
            arms.push(("net.stats_delta_ns", variant(self, &compact)));
        }
        let fcfs = || Variant {
            fcfs: true,
            ..Variant::default()
        };
        arms.push(("core.fcfs_delta_ns", variant(self, &fcfs)));
        let oracle = || Variant {
            oracle: OracleMode::Count,
            ..Variant::default()
        };
        arms.push(("oracle.delta_ns", variant(self, &oracle)));
        for (name, ring) in [("obs.metrics_delta_ns", 0), ("obs.trace_delta_ns", 4096)] {
            let probed = || Variant {
                probe: Some(Box::new(ObsProbe::new(ring))),
                ..Variant::default()
            };
            arms.push((name, variant(self, &probed)));
        }
        for (name, knob) in knobs::BACKEND_ARMS {
            arms.push((name, self.arm_cost(|tr| knobs::instance(p, knob, tr))));
        }
        rows.extend(
            arms.into_iter()
                .map(|(name, cost)| (name, cost - base, "ns")),
        );

        if self.tr.workload() == knobs::SHARD_WORKLOAD {
            let fallbacks = knobs::shard_fallbacks();
            let mut ratios: Vec<f64> = (0..SHARD_PAIRS)
                .map(|_| {
                    let scalar = p.instance(Variant::default(), &mut self.tr);
                    let scalar_ns = self.arm_wall(scalar);
                    let sharded = knobs::instance(p, knobs::SHARD_ARM, &mut self.tr);
                    self.arm_wall(sharded) / scalar_ns
                })
                .collect();
            rows.push(("shard.s2_ratio", median(&mut ratios), "ratio"));
            let fell_back = (knobs::shard_fallbacks() - fallbacks) as f64;
            rows.push(("shard.fallbacks", fell_back, "count"));
        }
    }

    /// `sim.hold`: the classic hold model on the default event set — pop
    /// the earliest event, push it back a random increment later — at a
    /// steady population of `depth` events the size of the executor's own.
    fn drive_hold(&mut self, depth: u64) -> f64 {
        // 112 bytes: what the executor's event enum (a packet plus a key
        // and an instant) occupies, so heap swaps move as much memory.
        type Payload = [u64; 14];
        let mean = Duration::from_us(100);
        let mut rng = SimRng::seed_from(1);
        let mut q: EventQueue<Payload> = EventQueue::new();
        let span_ps = (mean * depth).as_ps();
        for _ in 0..depth {
            q.push(Time::from_ps(rng.below(span_ps)), [0; 14]);
        }
        let two_means_ps = (mean * 2).as_ps();
        let increments: Vec<Duration> = (0..DRIVE_CALLS)
            .map(|_| Duration::from_ps(rng.below(two_means_ps)))
            .collect();
        self.drive("sim.hold", || {
            for &inc in &increments {
                let (at, e) = q.pop().expect("population is constant");
                q.push(at + inc, e);
            }
        })
    }

    /// `core.on_arrival` / `core.on_departure`: one Leave-in-Time
    /// scheduler with `sessions` sessions registered, packets round-robin
    /// over them one transmission time apart (the link kept busy, as in
    /// the workloads). Arrivals and departures alternate batch by batch
    /// on the same packets, as a departure needs its arrival's stamps.
    fn drive_kernel(&mut self, sessions: u32) -> (f64, f64) {
        let Pass { cal, tr, effort } = self;
        let link = LinkParams::paper_t1();
        let mut d = LitDiscipline::new(link);
        let rate = (link.rate_bps * 8 / 10 / u64::from(sessions)).max(1);
        for i in 0..sessions {
            let mut spec = SessionSpec::atm(SessionId(i), rate);
            spec.jitter_control = i % 2 == 1;
            d.register_session(&spec, &spec.delay);
        }
        let mut sent = 0u64;
        let mut pkts: Vec<Packet> = Vec::with_capacity(DRIVE_CALLS);
        let (mut arrival, mut departure) = (Vec::new(), Vec::new());
        for _ in 0..effort.drive_batches {
            pkts.clear();
            for _ in 0..DRIVE_CALLS {
                let sid = SessionId((sent % u64::from(sessions)) as u32);
                let at = Time::ZERO + link.lmax_time() * sent;
                pkts.push(Packet::new(sid, sent / u64::from(sessions) + 1, 424, at));
                sent += 1;
            }
            let (a, ()) = cal.timed_once(|| {
                tr.calls("core.on_arrival", DRIVE_CALLS as u64, |_| {
                    for p in &mut pkts {
                        black_box(d.on_arrival(p, p.created));
                    }
                })
            });
            let (b, ()) = cal.timed_once(|| {
                tr.calls("core.on_departure", DRIVE_CALLS as u64, |_| {
                    for p in &mut pkts {
                        d.on_departure(p, p.deadline);
                    }
                })
            });
            arrival.push(a.norm() / DRIVE_CALLS as f64);
            departure.push(b.norm() / DRIVE_CALLS as f64);
        }
        black_box(&pkts);
        (median(&mut arrival), median(&mut departure))
    }

    /// `traffic.next_emission` of the source kind that emits most of the
    /// workload's packets.
    fn drive_source(&mut self, model: SourceModel) -> f64 {
        let mut source: Box<dyn Source> = match model {
            // The cross sessions' Poisson(0.28804 ms) emit 99.7 % of the packets.
            SourceModel::PaperCross => {
                Box::new(PoissonSource::new(Duration::from_ns(288_040), 424))
            }
            SourceModel::Cbr => Box::new(DeterministicSource::paper_cbr()),
        };
        let mut rng = SimRng::seed_from(1);
        self.drive("traffic.next_emission", || {
            for _ in 0..DRIVE_CALLS {
                black_box(source.next_emission(&mut rng));
            }
        })
    }

    /// `analysis.hist_record` into a delay histogram sized as the workload's.
    fn drive_histogram(&mut self, cfg: StatsConfig) -> f64 {
        let mut hist = DurationHistogram::new(cfg.delay_bin, cfg.delay_bins);
        let mut rng = SimRng::seed_from(1);
        let delays: Vec<Duration> = (0..DRIVE_CALLS)
            .map(|_| Duration::from_us(rng.below(100_000)))
            .collect();
        let ns = self.drive("analysis.hist_record", || {
            for &d in &delays {
                hist.record(d);
            }
        });
        black_box(hist.count());
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_probe_spots_batchable_runs() {
        let mut c = CountingProbe::default();
        let view = |session, hop| PacketView {
            session,
            seq: 1,
            hop,
            len_bits: 424,
            created: Time::ZERO,
            arrived: Time::ZERO,
        };
        c.on_arrive(Time::from_ms(1), 0, view(3, 0), 2, 10);
        c.on_arrive(Time::from_ms(1), 0, view(3, 0), 4, 12);
        c.on_arrive(Time::from_ms(1), 0, view(4, 0), 0, 12);
        c.on_arrive(Time::from_ms(2), 1, view(4, 1), 0, 11);
        assert_eq!((c.arrivals, c.injections, c.batchable), (4, 3, 1));
        assert_eq!((c.equeue_max, c.fes_max, c.fes_sum), (4, 12, 45));
    }

    #[test]
    fn per_layer_names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        assert!(PER_LAYER
            .iter()
            .all(|(n, u)| n.len() <= 64 && u.len() <= 16));
    }
}
