//! `bench_scale` — sessions-vs-throughput curve for the million-session
//! hot path, plus the shards-vs-throughput curve for the per-core
//! sharded executor.
//!
//! **Scale sweep.** For each session count on a 1k → 1M sweep, registers
//! that many sessions with one Leave-in-Time scheduler and pumps a fixed
//! number of events through a hierarchical-timer-wheel future-event set:
//! pop the next (time, session) event, run the eq. 8–11 arrival math
//! against the struct-of-arrays session columns, re-arm the session.
//! That is the executor's per-event skeleton with the O(log n) heap
//! swapped for the O(1) wheel, measured under the cache pressure of the
//! full session table — exactly what grows with scale.
//!
//! **Shard sweep.** Builds the 32-node fat tandem as a real `Network`
//! at shard counts 1/2/4/8 (1 = the one-shard driver, ≥2 = the
//! lookahead-windowed sharded engine, 4-node chains per shard at 8) and
//! measures aggregate events/sec over a fixed horizon. The artifact
//! records `cores` (`available_parallelism`) next to the curve because
//! the speedup column is only meaningful relative to it: on a 1-core
//! runner the sharded rows measure pure engine overhead, not
//! parallelism.
//!
//! **Statistics.** Each point is min-of-k across `--reps` paired
//! (calibration, sweep) samples — the minimum is the standard noise
//! floor estimator on shared runners, and unlike the median it cannot be
//! dragged non-monotonic by one slow rep landing on one scale. The 95%
//! confidence interval of the sample mean (`ci95_ns`, half-width) is
//! stored alongside so the artifact shows how noisy the run was.
//! `rel_calib` (min ns/event divided by that same rep's calibration
//! unit) remains the machine-portable value the regression guard
//! compares.
//!
//! Usage: `bench_scale [--test|--quick] [--reps N] [--events N]
//! [--max-sessions N] [--out DIR] [--check FILE] [--tol F]
//! [--shard-guard]`
//!
//! * default: run both sweeps and write `BENCH_scale.json` into `--out`
//!   (the workspace `results/` directory);
//! * `--check FILE`: additionally compare each measured scale's
//!   `rel_calib` against the committed curve and fail on a regression
//!   beyond `--tol` (default 15%);
//! * `--max-sessions N`: truncate the scale sweep (`0` skips it — CI's
//!   shard-guard-only smoke run);
//! * `--shard-guard`: fail unless the highest shard count clears a
//!   core-count-aware speedup floor over one shard —
//!   `min(2.0, 0.75·min(8, cores))` — skipped with a notice when the
//!   runner has fewer than 2 cores.

#![forbid(unsafe_code)]

use lit_bench::{calibrate, register_sessions, CALIBRATE_ITERS};
use lit_core::LitDiscipline;
use lit_net::{
    Discipline, LinkParams, NetworkBuilder, Packet, SessionId, SessionSpec, StatsConfig,
};
use lit_sim::{Duration, EventBackend, EventQueue, Time};
use lit_traffic::DeterministicSource;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The full sweep: decade steps from 1k to 1M live sessions.
const SCALES: [u32; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Shard counts for the network sweep; 1 is the one-shard driver.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Nodes in the sharded fat tandem: 8 shards own 4-node chains.
const SHARD_NODES: usize = 32;

/// One measured point of the sessions curve.
struct Point {
    sessions: u32,
    events: u64,
    ns_per_event: f64,
    ci95_ns: f64,
    rel_calib: f64,
    samples: usize,
}

/// One measured point of the shards curve.
struct ShardPoint {
    shards: usize,
    events: u64,
    ns_per_event: f64,
    ci95_ns: f64,
    events_per_sec: f64,
    speedup: f64,
}

/// Pump `events` pop → eq. 8–11 → push cycles through a wheel-backed
/// event set with `n` registered sessions; returns wall nanoseconds.
fn run_scale(n: u32, events: u64) -> u128 {
    let mut d = LitDiscipline::new(LinkParams::paper_t1());
    register_sessions(&mut d, n);
    let mut q: EventQueue<u32> = EventQueue::with_backend(EventBackend::Wheel);
    // One outstanding event per session, staggered so the wheel sees the
    // steady interleaving a live network produces rather than one giant
    // same-instant slot.
    for i in 0..n {
        // lit-lint: allow(raw-time-arithmetic, "bench setup: synthetic stagger offsets, bounded by 37 ms at the 1M-session scale")
        q.push(Time::ZERO + Duration::from_ns(u64::from(i) * 37), i);
    }
    let gap = Duration::from_us(50);
    let mut sum = 0u128;
    let t = Instant::now();
    for seq in 0..events {
        let Some((at, sid)) = q.pop() else { break };
        let mut pkt = Packet::new(SessionId(sid), seq, 424, at);
        let dec = d.on_arrival(&mut pkt, at);
        sum ^= dec.key;
        q.push(at + gap, sid);
    }
    let ns = t.elapsed().as_nanos();
    black_box(sum);
    ns
}

/// Build the 32-node fat tandem at `shards` shards and run it to
/// `horizon`; returns (wall nanoseconds of `run_until`, events
/// processed). Topology mirrors `tests/shard_determinism.rs`: sources
/// staggered so results are shard-count-invariant (pinned there, timed
/// here).
fn run_sharded(shards: usize, horizon: Time) -> (u128, u64) {
    let mut b = NetworkBuilder::new()
        .seed(42)
        .shards(shards)
        .stats(StatsConfig::default());
    let nodes = b.tandem(SHARD_NODES, LinkParams::paper_t1());
    for i in 0..12u64 {
        b.add_session(
            SessionSpec::atm(SessionId(0), 32_000).with_jitter_control(),
            &nodes,
            Box::new(
                DeterministicSource::new(Duration::from_us(13_250), 424)
                    // lit-lint: allow(raw-time-arithmetic, "bench setup: stagger offsets bounded by 12·37 ns")
                    .with_offset(Duration::from_ns(1 + i * 37)),
            ),
        );
    }
    let mut net = b.build(&|l| Box::new(LitDiscipline::new(*l)) as _);
    let t = Instant::now();
    net.run_until(horizon);
    let ns = t.elapsed().as_nanos();
    (ns, net.event_count())
}

/// Minimum of a sample; NaN when empty.
fn min_of(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Half-width of the 95% confidence interval of the sample mean
/// (normal approximation, sample standard deviation). Zero for fewer
/// than two samples.
fn ci95_half_width(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    1.96 * (var / n as f64).sqrt()
}

/// `reps` paired (calibration, sweep) samples for one scale: each entry
/// of the returned vectors is one rep's ns/event and its ratio to that
/// same rep's calibration unit.
fn sample_scale(n: u32, events: u64, reps: u32) -> (Vec<f64>, Vec<f64>) {
    let mut ns_per_event = Vec::new();
    let mut rel = Vec::new();
    for _ in 0..reps.max(1) {
        let calib_unit = calibrate() as f64 / CALIBRATE_ITERS as f64;
        let ns = run_scale(n, events) as f64 / events.max(1) as f64;
        ns_per_event.push(ns);
        rel.push(ns / calib_unit);
    }
    (ns_per_event, rel)
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_scale [--test|--quick] [--reps N] [--events N] \
         [--max-sessions N] [--out DIR] [--check FILE] [--tol F] [--shard-guard]"
    );
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut reps = 3u32;
    let mut events = 2_000_000u64;
    let mut max_sessions = u32::MAX;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let mut check: Option<PathBuf> = None;
    let mut tol = 0.15f64;
    let mut shard_guard = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--test" | "--quick" => quick = true,
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--events" => {
                events = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--max-sessions" => {
                max_sessions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--check" => check = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--tol" => {
                tol = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--shard-guard" => shard_guard = true,
            "--bench" => {} // appended by `cargo bench`
            _ => usage(),
        }
    }
    if let Some(dir) = std::env::var_os("BENCH_OUT") {
        out = PathBuf::from(dir);
    }
    let mut shard_horizon = Time::from_ms(2_000);
    if quick {
        events = events.min(200_000);
        max_sessions = max_sessions.min(10_000);
        reps = reps.min(2);
        shard_horizon = Time::from_ms(300);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Read the committed curve before the sweep: `--check` may name the
    // same path the fresh artifact is about to overwrite.
    let committed = check.as_ref().map(|p| {
        std::fs::read_to_string(p)
            .ok()
            .and_then(|s| lit_obs::json::Value::parse(&s).ok())
    });
    let committed_points: Vec<(u32, f64)> = committed
        .as_ref()
        .and_then(|v| v.as_ref())
        .and_then(|v| v.get("points"))
        .and_then(|p| p.as_array())
        .map(|arr| {
            arr.iter()
                .filter_map(|p| {
                    let sessions = p.get("sessions")?.as_f64()? as u32;
                    let rel = p.get("rel_calib")?.as_f64()?;
                    Some((sessions, rel))
                })
                .collect()
        })
        .unwrap_or_default();

    let calib_ns = calibrate();
    println!(
        "bench_scale: calibration {:.1} ms ({:.2} ns/iter), \
         {events} events/scale, {reps} reps, {cores} cores",
        calib_ns as f64 / 1e6,
        calib_ns as f64 / CALIBRATE_ITERS as f64
    );

    let mut points = Vec::new();
    for &n in SCALES.iter().filter(|&&n| n <= max_sessions) {
        let (mut ns_samples, mut rel_samples) = sample_scale(n, events, reps);
        // Under `--check`, a scale that looks regressed gets more paired
        // samples folded in before the verdict: shared runners have slow
        // phases, and the floor tightens as the sample grows. A genuine
        // regression survives every retry.
        if let Some(&(_, base)) = committed_points.iter().find(|(s, _)| *s == n) {
            for retry in 0..2 {
                if min_of(&rel_samples) <= base * (1.0 + tol) {
                    break;
                }
                let more = reps.max(1) * (retry + 2);
                eprintln!("bench_scale: {n} sessions above tolerance, retrying with {more} reps");
                let (a, b) = sample_scale(n, events, more);
                ns_samples.extend(a);
                rel_samples.extend(b);
            }
        }
        let ns_per_event = min_of(&ns_samples);
        let ci95_ns = ci95_half_width(&ns_samples);
        let rel_calib = min_of(&rel_samples);
        println!(
            "  {n:>9} sessions  {ns_per_event:>7.1} ns/event  ±{ci95_ns:.1}  rel {rel_calib:.3}"
        );
        points.push(Point {
            sessions: n,
            events,
            ns_per_event,
            ci95_ns,
            rel_calib,
            samples: ns_samples.len(),
        });
    }

    let mut shard_points: Vec<ShardPoint> = Vec::new();
    for &s in &SHARD_COUNTS {
        let mut ns_samples = Vec::new();
        let mut ev = 0u64;
        for _ in 0..reps.max(1) {
            let (wall, n_ev) = run_sharded(s, shard_horizon);
            ev = n_ev;
            ns_samples.push(wall as f64 / n_ev.max(1) as f64);
        }
        let ns_per_event = min_of(&ns_samples);
        let ci95_ns = ci95_half_width(&ns_samples);
        let speedup = shard_points
            .first()
            .map_or(1.0, |base| base.ns_per_event / ns_per_event);
        println!(
            "  {s:>9} shards    {ns_per_event:>7.1} ns/event  ±{ci95_ns:.1}  \
             {:.2} Mev/s  speedup {speedup:.2}x",
            1e3 / ns_per_event
        );
        shard_points.push(ShardPoint {
            shards: s,
            events: ev,
            ns_per_event,
            ci95_ns,
            events_per_sec: 1e9 / ns_per_event,
            speedup,
        });
    }

    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut artifact = format!(
        "{{\n  \"bench\": \"scale\",\n  \"unix_time_secs\": {stamp},\n  \
         \"quick\": {quick},\n  \"calib_ns\": {calib_ns},\n  \"cores\": {cores},\n  \
         \"points\": [\n"
    );
    for (i, p) in points.iter().enumerate() {
        artifact.push_str(&format!(
            "    {{\"sessions\": {}, \"events\": {}, \"ns_per_event\": {:.3}, \
             \"ci95_ns\": {:.3}, \"rel_calib\": {:.4}, \"samples\": {}}}{}\n",
            p.sessions,
            p.events,
            p.ns_per_event,
            p.ci95_ns,
            p.rel_calib,
            p.samples,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    artifact.push_str("  ],\n  \"shards\": [\n");
    for (i, p) in shard_points.iter().enumerate() {
        artifact.push_str(&format!(
            "    {{\"shards\": {}, \"events\": {}, \"ns_per_event\": {:.3}, \
             \"ci95_ns\": {:.3}, \"events_per_sec\": {:.0}, \"speedup\": {:.3}}}{}\n",
            p.shards,
            p.events,
            p.ns_per_event,
            p.ci95_ns,
            p.events_per_sec,
            p.speedup,
            if i + 1 < shard_points.len() { "," } else { "" }
        ));
    }
    artifact.push_str("  ]\n}\n");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("bench_scale: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let path = out.join("BENCH_scale.json");
    if let Err(e) = std::fs::write(&path, &artifact) {
        eprintln!("bench_scale: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("[json] {}", path.display());

    let mut failed = false;

    if shard_guard {
        // The speedup floor scales with the cores actually present:
        // 0.75·cores up to the 8-shard sweep ceiling, capped at the 2×
        // the acceptance bar asks of a many-core machine. Below 2 cores
        // there is no parallelism to measure — skip with a notice so
        // 1-core CI runners stay honest rather than red.
        if cores < 2 {
            println!(
                "bench_scale: shard guard skipped ({cores} core(s) — \
                 no parallelism to measure)"
            );
        } else {
            let floor = (0.75 * cores.min(8) as f64).min(2.0);
            let top = shard_points.last().expect("SHARD_COUNTS is non-empty");
            if top.speedup < floor {
                eprintln!(
                    "bench_scale: FAIL {} shards speedup {:.2}x below floor {:.2}x ({cores} cores)",
                    top.shards, top.speedup, floor
                );
                failed = true;
            } else {
                println!(
                    "bench_scale: shard guard passed ({} shards {:.2}x >= {:.2}x)",
                    top.shards, top.speedup, floor
                );
            }
        }
    }

    if let Some(check_path) = check {
        if matches!(committed, Some(None)) {
            eprintln!("bench_scale: cannot read {}", check_path.display());
            std::process::exit(1);
        }
        let mut compared = 0;
        for p in &points {
            let Some(&(_, base)) = committed_points.iter().find(|(s, _)| *s == p.sessions) else {
                continue;
            };
            compared += 1;
            let drift = p.rel_calib / base - 1.0;
            if drift > tol {
                eprintln!(
                    "bench_scale: FAIL {} sessions regressed {:+.1}% vs committed curve (limit {:.0}%)",
                    p.sessions,
                    drift * 100.0,
                    tol * 100.0
                );
                failed = true;
            } else {
                println!(
                    "bench_scale: {} sessions {:+.1}% vs committed curve (limit {:.0}%)",
                    p.sessions,
                    drift * 100.0,
                    tol * 100.0
                );
            }
        }
        if compared == 0 && max_sessions > 0 {
            eprintln!(
                "bench_scale: no comparable scales in {}",
                check_path.display()
            );
            failed = true;
        }
        if !failed {
            println!("bench_scale: regression guard passed");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
