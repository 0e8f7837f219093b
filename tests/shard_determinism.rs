//! The shard count is a wall-clock knob, never a results knob: building
//! the same network with `--shards 1..=8` must produce byte-identical
//! statistics, delivery logs, event counts and oracle verdicts. `1` runs
//! the scalar engine, `≥2` the lookahead-windowed sharded engine, so
//! these tests pin scalar ≡ sharded(k) for every admissible `k` end to
//! end, Debug-formatted and compared as strings.

#![forbid(unsafe_code)]

use leave_in_time::core::{install_oracle_bounds, LitDiscipline};
use leave_in_time::net::{
    DelayAssignment, LinkParams, NetworkBuilder, NodeId, OracleConfig, OracleMode,
    RegulatorBackend, SessionId, SessionSpec, StatsConfig,
};
use leave_in_time::sim::{Duration, Time};
use leave_in_time::traffic::{DeterministicSource, PoissonSource};
use lit_repro::scenario::{RunOptions, Scenario};

/// Serializes the tests that assert on the process-global fallback
/// counter (`shard_fallbacks`), which every builder in this binary feeds.
static FALLBACK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn stats_cfg() -> StatsConfig {
    StatsConfig {
        delivery_log_cap: 64,
        ..StatsConfig::default()
    }
}

/// Everything a user can observe about a finished network, as one string.
fn fingerprint(net: &mut leave_in_time::net::Network) -> String {
    let mut out = String::new();
    let drain_failures = net.oracle_drain_check();
    for i in 0..net.num_sessions() {
        let st = net.session_stats(SessionId(i as u32));
        out.push_str(&format!("session {i}: {st:?}\n"));
    }
    for n in 0..net.num_nodes() {
        let st = net.node_stats(NodeId(n as u32));
        out.push_str(&format!("node {n}: {st:?}\n"));
    }
    out.push_str(&format!(
        "events {} oracle {:?} drain {}\n",
        net.event_count(),
        net.oracle_totals(),
        drain_failures
    ));
    out
}

/// The 16-node fat tandem of the scale benchmark: every session rides the
/// full route, sources staggered so no two network events ever share an
/// instant (which is what makes scalar FIFO order and the sharded
/// engine's canonical order agree event for event).
fn fat_tandem(shards: usize, oracle: bool) -> leave_in_time::net::Network {
    let mut b = NetworkBuilder::new()
        .seed(42)
        .shards(shards)
        .stats(stats_cfg());
    if oracle {
        b = b.oracle(OracleConfig::new(OracleMode::Count));
    }
    let nodes = b.tandem(16, LinkParams::paper_t1());
    for i in 0..6u64 {
        let spec = SessionSpec::atm(SessionId(0), 32_000).with_jitter_control();
        b.add_session(
            spec,
            &nodes,
            Box::new(
                DeterministicSource::new(Duration::from_us(13_250), 424)
                    .with_offset(Duration::from_ns(1 + i * 37)),
            ),
        );
    }
    for i in 0..4u64 {
        let spec = SessionSpec::atm(SessionId(0), 64_000);
        b.add_session(
            spec,
            &nodes[(i as usize % 3)..],
            Box::new(PoissonSource::new(Duration::from_us(9_000), 424)),
        );
    }
    let mut net = b.build(&|l| Box::new(LitDiscipline::new(*l)) as _);
    if oracle {
        install_oracle_bounds(&mut net);
    }
    net
}

/// A fan-in tree: two staggered tandem branches merging into a shared
/// trunk, so cross-shard handoffs from *different* shards target the
/// same node and the drain order of the mailboxes is actually exercised.
fn fan_in(shards: usize) -> leave_in_time::net::Network {
    let mut b = NetworkBuilder::new()
        .seed(7)
        .shards(shards)
        .stats(stats_cfg());
    let left: Vec<NodeId> = (0..4).map(|_| b.add_node(LinkParams::paper_t1())).collect();
    let right: Vec<NodeId> = (0..4).map(|_| b.add_node(LinkParams::paper_t1())).collect();
    let trunk: Vec<NodeId> = (0..4)
        .map(|_| {
            b.add_node(LinkParams {
                rate_bps: 3_072_000,
                ..LinkParams::paper_t1()
            })
        })
        .collect();
    for (i, branch) in [&left, &right].into_iter().enumerate() {
        for j in 0..3u64 {
            let route: Vec<NodeId> = branch.iter().chain(trunk.iter()).copied().collect();
            let spec = SessionSpec::atm(SessionId(0), 32_000)
                .with_delay(DelayAssignment::LenOverRate)
                .with_jitter_control();
            b.add_session(
                spec,
                &route,
                Box::new(
                    DeterministicSource::new(Duration::from_us(13_250), 424)
                        .with_offset(Duration::from_ns(1 + (i as u64) * 101 + j * 37)),
                ),
            );
        }
    }
    b.build(&|l| Box::new(LitDiscipline::new(*l)) as _)
}

/// The fat tandem again, but under the interleaved (shared per-hop
/// FIFO) regulator with the counting oracle armed. The per-session
/// bounds of ineq. 12/17 are dedicated-regulator results, so
/// `install_oracle_bounds` is deliberately NOT called here; the
/// regulator-FIFO, shaping-bound and work-conservation checks still run
/// and must count identically on every engine.
fn interleaved_tandem(shards: usize) -> leave_in_time::net::Network {
    let mut b = NetworkBuilder::new()
        .seed(42)
        .shards(shards)
        .stats(stats_cfg())
        .regulator(RegulatorBackend::Interleaved)
        .oracle(OracleConfig::new(OracleMode::Count));
    let nodes = b.tandem(16, LinkParams::paper_t1());
    for i in 0..6u64 {
        let spec = SessionSpec::atm(SessionId(0), 32_000).with_jitter_control();
        b.add_session(
            spec,
            &nodes,
            Box::new(
                DeterministicSource::new(Duration::from_us(13_250), 424)
                    .with_offset(Duration::from_ns(1 + i * 37)),
            ),
        );
    }
    for i in 0..4u64 {
        let spec = SessionSpec::atm(SessionId(0), 64_000);
        b.add_session(
            spec,
            &nodes[(i as usize % 3)..],
            Box::new(PoissonSource::new(Duration::from_us(9_000), 424)),
        );
    }
    b.build(&|l| Box::new(LitDiscipline::new(*l)) as _)
}

#[test]
fn fat_tandem_identical_across_shard_counts() {
    let horizon = Time::from_ms(1_500);
    let mut baseline = fat_tandem(1, false);
    assert_eq!(baseline.shard_count(), 1, "shards(1) must run scalar");
    baseline.run_until(horizon);
    let want = fingerprint(&mut baseline);
    for shards in 2..=8usize {
        let mut net = fat_tandem(shards, false);
        assert!(net.shard_count() > 1, "{shards} shards degraded to scalar");
        net.run_until(horizon);
        assert_eq!(
            fingerprint(&mut net),
            want,
            "results diverged at {shards} shards"
        );
    }
}

#[test]
fn fat_tandem_oracle_counts_identical_across_shard_counts() {
    let horizon = Time::from_ms(1_000);
    let mut baseline = fat_tandem(1, true);
    baseline.run_until(horizon);
    let want = fingerprint(&mut baseline);
    for shards in [2usize, 4, 8] {
        let mut net = fat_tandem(shards, true);
        assert!(net.shard_count() > 1, "{shards} shards degraded to scalar");
        net.run_until(horizon);
        assert_eq!(
            fingerprint(&mut net),
            want,
            "oracle-mode results diverged at {shards} shards"
        );
    }
}

#[test]
fn interleaved_regulator_identical_across_shard_counts() {
    let horizon = Time::from_ms(1_000);
    let mut baseline = interleaved_tandem(1);
    assert_eq!(baseline.shard_count(), 1, "shards(1) must run scalar");
    baseline.run_until(horizon);
    let want = fingerprint(&mut baseline);
    for shards in 2..=8usize {
        let mut net = interleaved_tandem(shards);
        assert!(net.shard_count() > 1, "{shards} shards degraded to scalar");
        net.run_until(horizon);
        assert_eq!(
            fingerprint(&mut net),
            want,
            "interleaved-regulator results diverged at {shards} shards"
        );
    }
}

/// Full `.scn` scenarios driven through the `RunOptions` shard
/// override: oracle counts and every visible statistic must match the
/// scalar run at every shard count. `misbehaver.scn` is hand-written
/// with a single node (sharding degrades to scalar there and bumps the
/// process-global fallback counter — hence the lock); the generated
/// tandem expands to 36 sessions over 8 nodes and genuinely shards.
#[test]
fn scenarios_match_scalar_across_shard_counts() {
    let _guard = FALLBACK_LOCK.lock().unwrap();
    for (file, horizon_ms) in [("misbehaver.scn", 2_000u64), ("gen_tandem_ladder.scn", 400)] {
        let path = format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let sc = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("{file}: {e}"))
            .with_horizon(Duration::from_ms(horizon_ms));
        let run = |shards: usize| {
            let (mut net, _ids) = sc.run_probed(
                &RunOptions {
                    oracle: OracleMode::Count,
                    stats: Some(stats_cfg()),
                    shards: Some(shards),
                    ..RunOptions::default()
                },
                None,
            );
            fingerprint(&mut net)
        };
        let want = run(1);
        for shards in 2..=8usize {
            assert_eq!(run(shards), want, "{file} diverged at {shards} shards");
        }
    }
}

#[test]
fn fan_in_identical_across_shard_counts() {
    let horizon = Time::from_ms(1_500);
    let mut baseline = fan_in(1);
    baseline.run_until(horizon);
    let want = fingerprint(&mut baseline);
    for shards in 2..=8usize {
        let mut net = fan_in(shards);
        net.run_until(horizon);
        assert_eq!(
            fingerprint(&mut net),
            want,
            "fan-in results diverged at {shards} shards"
        );
    }
}

#[test]
fn repeated_run_until_segments_match_one_shot() {
    // Windowed execution must be insensitive to where `run_until` stops:
    // many short horizons = one long horizon.
    let mut one_shot = fat_tandem(4, false);
    one_shot.run_until(Time::from_ms(1_000));
    let want = fingerprint(&mut one_shot);
    let mut stepped = fat_tandem(4, false);
    for step in 1..=10u64 {
        stepped.run_until(Time::from_ms(step * 100));
    }
    assert_eq!(fingerprint(&mut stepped), want);
}

/// Test discipline that panics on every arrival past a global limit.
struct PanicAfter {
    seen: std::sync::Arc<std::sync::atomic::AtomicU64>,
    limit: u64,
}

impl leave_in_time::net::Discipline for PanicAfter {
    fn name(&self) -> &'static str {
        "panic-after"
    }
    fn register_session(&mut self, _: &SessionSpec, _: &DelayAssignment) {}
    fn on_arrival(
        &mut self,
        pkt: &mut leave_in_time::net::Packet,
        now: Time,
    ) -> leave_in_time::net::ScheduleDecision {
        use std::sync::atomic::Ordering;
        if self.seen.fetch_add(1, Ordering::Relaxed) + 1 >= self.limit {
            panic!("injected discipline failure");
        }
        pkt.deadline = now;
        leave_in_time::net::ScheduleDecision::at(now, now)
    }
    fn on_departure(&mut self, _: &mut leave_in_time::net::Packet, _: Time) {}
}

#[test]
fn sharded_worker_panic_propagates_to_caller() {
    // A discipline panicking mid-window on one shard must resurface via
    // resume_unwind on the calling thread — never strand sibling shards
    // on a window barrier. The worker loop's only exits are barrier-
    // aligned (tmin from the common barrier-A snapshot; abort checked
    // only after barrier B), so this completes instead of deadlocking.
    let seen = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let result = std::panic::catch_unwind({
        let seen = std::sync::Arc::clone(&seen);
        move || {
            let mut b = NetworkBuilder::new().seed(9).shards(4).stats(stats_cfg());
            let nodes = b.tandem(8, LinkParams::paper_t1());
            for i in 0..4u64 {
                b.add_session(
                    SessionSpec::atm(SessionId(0), 64_000),
                    &nodes,
                    Box::new(
                        DeterministicSource::new(Duration::from_us(6_625), 424)
                            .with_offset(Duration::from_ns(1 + i * 37)),
                    ),
                );
            }
            let mut net = b.build(&|_l| {
                Box::new(PanicAfter {
                    seen: std::sync::Arc::clone(&seen),
                    limit: 200,
                }) as _
            });
            assert!(net.shard_count() > 1, "panic test needs the sharded engine");
            net.run_until(Time::from_secs(5));
        }
    });
    let payload = result.expect_err("injected panic must propagate");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(
        msg.contains("injected discipline failure"),
        "unexpected panic payload: {msg:?}"
    );
}

#[test]
fn probe_forces_scalar_engine() {
    // Satellite guard: an installed probe must degrade sharding to the
    // scalar engine (probes hook the global dispatch order) — and the
    // degrade must not be silent: it bumps the process-global fallback
    // counter so harnesses can tell which engine a run measured. The
    // counter is process-global, so the tests that touch it serialize
    // on FALLBACK_LOCK and assert deltas, not absolutes.
    let _guard = FALLBACK_LOCK.lock().unwrap();
    let before = leave_in_time::net::shard::shard_fallbacks();
    let mut b = NetworkBuilder::new().seed(1).shards(8);
    let nodes = b.tandem(8, LinkParams::paper_t1());
    b.add_session(
        SessionSpec::atm(SessionId(0), 32_000),
        &nodes,
        Box::new(DeterministicSource::paper_cbr()),
    );
    let net = b
        .probe(Box::new(leave_in_time::net::NoopProbe))
        .build(&|l| Box::new(LitDiscipline::new(*l)) as _);
    assert_eq!(net.shard_count(), 1);
    assert!(
        leave_in_time::net::shard::shard_fallbacks() > before,
        "probe fallback must be counted"
    );
}

#[test]
fn zero_propagation_forces_scalar_engine_and_is_counted() {
    // Zero propagation on a cross-shard hop means zero lookahead — no
    // conservative window exists, so the build degrades to scalar and
    // records the fallback.
    let _guard = FALLBACK_LOCK.lock().unwrap();
    let before = leave_in_time::net::shard::shard_fallbacks();
    let zero_prop = LinkParams {
        propagation: Duration::ZERO,
        ..LinkParams::paper_t1()
    };
    let mut b = NetworkBuilder::new().seed(2).shards(8);
    let nodes = b.tandem(8, zero_prop);
    b.add_session(
        SessionSpec::atm(SessionId(0), 32_000),
        &nodes,
        Box::new(DeterministicSource::paper_cbr()),
    );
    let net = b.build(&|l| Box::new(LitDiscipline::new(*l)) as _);
    assert_eq!(net.shard_count(), 1);
    assert!(
        leave_in_time::net::shard::shard_fallbacks() > before,
        "zero-lookahead fallback must be counted"
    );

    // A sharded build that is admissible must NOT bump the counter.
    let counted = leave_in_time::net::shard::shard_fallbacks();
    let net = fat_tandem(4, false);
    assert!(net.shard_count() > 1);
    assert_eq!(
        leave_in_time::net::shard::shard_fallbacks(),
        counted,
        "an admissible sharded build is not a fallback"
    );
}
