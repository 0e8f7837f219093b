//! `bench_queues` — tracked heap-vs-calendar numbers for CI.
//!
//! Criterion is great for interactive exploration but heavy for a CI
//! smoke lane; this binary measures the hold model (steady-state pop one
//! / push one, the access pattern of a running simulation) for both
//! [`EventBackend`]s at n ∈ {10², 10⁴, 10⁶} and writes
//! `results/BENCH_queues.json` with ns/op per cell, plus the
//! calendar-to-heap speedup at each size. The JSON is a tracking
//! artifact, not a gate; the 1e6 ratio is printed on its own line so a
//! shift is visible in the CI log (1.2–1.7× against the 4-ary heap, where
//! the std binary heap it replaced read 2.1–2.3×).
//!
//! Usage: `bench_queues [--ops N] [--out DIR]` (defaults: 2 000 000 ops
//! per measurement at 1e4+, scaled down at 1e2; `results/`).

#![forbid(unsafe_code)]

use lit_sim::{Duration, EventBackend, EventQueue, SimRng, Time};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

const SIZES: [usize; 3] = [100, 10_000, 1_000_000];

/// ns/op of the hold model at steady size `n` over `ops` operations.
fn hold_ns_per_op(backend: EventBackend, n: usize, ops: u64) -> f64 {
    let mut rng = SimRng::seed_from(9);
    let mut q = EventQueue::with_capacity_in(n + 1, backend);
    let mut now = Time::ZERO;
    for i in 0..n {
        q.push(now + Duration::from_ns(rng.below(1_000_000)), i as u64);
    }
    // Warm-up: let the calendar's self-tuning settle before timing.
    for _ in 0..(n as u64).min(ops / 10).max(1_000) {
        let (t, e) = q.pop().expect("steady state");
        now = t;
        q.push(
            now + Duration::from_ns(1) + Duration::from_ns(rng.below(1_000_000)),
            e,
        );
    }
    let started = Instant::now();
    for _ in 0..ops {
        let (t, e) = q.pop().expect("steady state");
        now = t;
        q.push(
            now + Duration::from_ns(1) + Duration::from_ns(rng.below(1_000_000)),
            e,
        );
        black_box(e);
    }
    started.elapsed().as_nanos() as f64 / ops as f64
}

fn main() {
    let mut ops: u64 = 2_000_000;
    let mut out = PathBuf::from("results");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ops" => {
                ops = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    let mut cells = Vec::new();
    for &n in &SIZES {
        // Tiny queues saturate quickly; fewer ops keep total runtime flat.
        let cell_ops = if n <= 100 { ops / 4 } else { ops }.max(10_000);
        let heap = hold_ns_per_op(EventBackend::Heap, n, cell_ops);
        let cal = hold_ns_per_op(EventBackend::Calendar, n, cell_ops);
        let speedup = heap / cal;
        println!(
            "hold n={n:>9}: heap {heap:8.1} ns/op | calendar {cal:8.1} ns/op | speedup {speedup:.2}x"
        );
        cells.push((n, heap, cal, speedup));
    }
    let at_1e6 = cells
        .iter()
        .find(|&&(n, ..)| n == 1_000_000)
        .map(|&(_, _, _, s)| s)
        .unwrap_or(0.0);
    println!("calendar vs heap at 1e6: {at_1e6:.2}x");

    // Hand-rolled JSON: the workspace has no serde_json, and the shape is
    // four numbers per cell.
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = format!(
        "{{\n  \"bench\": \"event_queue_hold\",\n  \"unix_time_secs\": {stamp},\n  \"unit\": \"ns/op\",\n  \"cells\": [\n",
    );
    for (i, (n, heap, cal, speedup)) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {n}, \"heap\": {heap:.2}, \"calendar\": {cal:.2}, \"speedup\": {speedup:.3}}}{}\n",
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("bench_queues: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let path = out.join("BENCH_queues.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => {
            eprintln!("bench_queues: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: bench_queues [--ops N] [--out DIR]");
    std::process::exit(2);
}
