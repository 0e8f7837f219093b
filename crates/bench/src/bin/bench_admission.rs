//! `bench_admission` — the admission storm: sustained admit/teardown
//! throughput per backend as resident sessions grow.
//!
//! Each measured point prefills one admission server to a target
//! residency, then pumps admit → release cycles of a representative
//! probe session through it and reports ns/cycle and admits/sec:
//!
//! * `ac1` / `ac2` (procedures 1 and 2): O(P) class-ladder tests,
//!   flat in residency by construction;
//! * `ac3_fast`: procedure 3 ([`lit_core::Ac3Fast`], incremental and
//!   class-aggregated) on a 1k → 1M residency sweep built from 12
//!   service classes.
//!
//! The committed artifact `results/BENCH_admission.json` stores, per
//! point, ns/cycle and its calibration-normalized twin (`rel_calib`),
//! same discipline as `bench_scale`: each rep pairs a calibration run
//! with a measurement run so machine drift divides out, the stored value
//! is the median of paired ratios, and a failing `--check` retries with
//! more reps before giving a verdict.
//!
//! `--check FILE` enforces that no point's `rel_calib` regressed beyond
//! `--tol` (default 25%) against the committed curve.
//!
//! Usage: `bench_admission [--test|--quick] [--reps N] [--out DIR]
//! [--check FILE] [--tol F]`

#![forbid(unsafe_code)]

use lit_bench::{calibrate, CALIBRATE_ITERS};
use lit_core::{Ac3Fast, ClassedAdmission, DRule, DelayClass, Procedure, SessionRequest};
use lit_sim::Duration;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Residency sweep for the fast AC3 service (and the flat AC1/AC2
/// baselines): decade steps from 1k to 1M.
const FAST_SCALES: [u32; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// One planned measurement: `(backend, resident, ops, runner)`.
type PlanPoint = (&'static str, u32, u64, Box<dyn Fn() -> u128>);

/// One measured point of the storm.
struct Point {
    backend: &'static str,
    resident: u32,
    ops: u64,
    ns_per_admit: f64,
    admits_per_sec: f64,
    rel_calib: f64,
}

/// A 3-class ladder on a 10 Gbit/s link, roomy enough to hold a million
/// 1 kbit/s residents inside both the bandwidth caps (test 1.1) and the
/// base-delay budgets (tests 1.2/2.2).
fn ladder(link: u64) -> Vec<DelayClass> {
    (1..=3u64)
        .map(|k| DelayClass {
            max_bandwidth_bps: link * k / 3,
            // lit-lint: allow(raw-time-arithmetic, "bench setup: synthetic class ladder, k ≤ 3")
            base_delay: Duration::from_ms(100 * k),
        })
        .collect()
}

/// Prefill + probe churn for AC1/AC2: `n` resident 1 kbit/s sessions,
/// then `ops` admit/release cycles of one more. Returns wall ns.
fn run_classed(procedure: Procedure, n: u32, ops: u64) -> u128 {
    let link = 10_000_000_000u64;
    let mut ac = ClassedAdmission::new(procedure, link, ladder(link)).unwrap();
    let resident = SessionRequest::new(1_000, 424);
    for i in 0..n {
        ac.try_admit((i % 3) as usize, &resident, DRule::PerSessionMax)
            .expect("prefill session rejected");
    }
    let probe = SessionRequest::new(1_000, 424);
    let mut ok = 0u64;
    let t = Instant::now();
    for _ in 0..ops {
        if ac.try_admit(1, &probe, DRule::PerSessionMax).is_ok() {
            ok += 1;
            ac.release(1, &probe);
        }
    }
    let ns = t.elapsed().as_nanos();
    assert_eq!(ok, ops, "probe admissions rejected under churn");
    black_box(ok);
    ns
}

/// The 12 service classes the fast-AC3 sweep draws residents from:
/// small rates (a million of them fit a 10 Gbit/s link) with generous,
/// per-class delay bounds so the full population stays ineq.-19
/// feasible.
fn fast_class(i: u32) -> (u64, u32, Duration) {
    let k = u64::from(i % 12);
    let d_ms = 200 + 50 * k;
    (
        2_000 + 500 * k,
        400 + 100 * (i % 12),
        Duration::from_ms(d_ms),
    )
}

/// Prefill + probe churn for the fast AC3 service. Returns wall ns over
/// `ops` admit/release cycles at `n` resident sessions.
fn run_fast(n: u32, ops: u64) -> u128 {
    let link = 10_000_000_000u64;
    let mut ac = Ac3Fast::new(link);
    for i in 0..n {
        let (r, l, d) = fast_class(i);
        ac.try_admit(r, l, d).expect("prefill session rejected");
    }
    let (r, l, d) = fast_class(0);
    let mut ok = 0u64;
    let t = Instant::now();
    for _ in 0..ops {
        if let Ok((h, _)) = ac.try_admit(r, l, d) {
            ok += 1;
            ac.release(h);
        }
    }
    let ns = t.elapsed().as_nanos();
    assert_eq!(ok, ops, "probe admissions rejected under churn");
    black_box(ok);
    ns
}

/// Median of a small sample (copies and sorts it).
fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `reps` paired (calibration, churn) samples for one point.
fn sample(run: &dyn Fn() -> u128, ops: u64, reps: u32) -> (Vec<f64>, Vec<f64>) {
    let mut ns_per_admit = Vec::new();
    let mut rel = Vec::new();
    for _ in 0..reps.max(1) {
        let calib_unit = calibrate() as f64 / CALIBRATE_ITERS as f64;
        let ns = run() as f64 / ops.max(1) as f64;
        ns_per_admit.push(ns);
        rel.push(ns / calib_unit);
    }
    (ns_per_admit, rel)
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_admission [--test|--quick] [--reps N] [--out DIR] \
         [--check FILE] [--tol F]"
    );
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut reps = 3u32;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let mut check: Option<PathBuf> = None;
    let mut tol = 0.25f64;
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
            "--out" => out = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--check" => check = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--tol" => {
                tol = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--bench" => {} // appended by `cargo bench`
            _ => usage(),
        }
    }
    if let Some(dir) = std::env::var_os("BENCH_OUT") {
        out = PathBuf::from(dir);
    }
    if quick {
        reps = reps.min(1);
    }
    // Per-backend probe counts: sized so each measurement run lasts long
    // enough to be stable.
    let classed_ops: u64 = if quick { 20_000 } else { 200_000 };
    let fast_ops: u64 = if quick { 2_000 } else { 20_000 };
    // `--quick` skips the 1M point.
    let max_fast: u32 = if quick { 100_000 } else { u32::MAX };

    // Read the committed curve before the sweep: `--check` may name the
    // same path the fresh artifact is about to overwrite.
    let committed = check.as_ref().map(|p| {
        std::fs::read_to_string(p)
            .ok()
            .and_then(|s| lit_obs::json::Value::parse(&s).ok())
    });
    let committed_points: Vec<(String, u32, f64)> = committed
        .as_ref()
        .and_then(|v| v.as_ref())
        .and_then(|v| v.get("points"))
        .and_then(|p| p.as_array())
        .map(|arr| {
            arr.iter()
                .filter_map(|p| {
                    let backend = p.get("backend")?.as_str()?.to_string();
                    let resident = p.get("resident")?.as_f64()? as u32;
                    let rel = p.get("rel_calib")?.as_f64()?;
                    Some((backend, resident, rel))
                })
                .collect()
        })
        .unwrap_or_default();

    let calib_ns = calibrate();
    println!(
        "bench_admission: calibration {:.1} ms ({:.2} ns/iter), {reps} reps",
        calib_ns as f64 / 1e6,
        calib_ns as f64 / CALIBRATE_ITERS as f64
    );

    // The measurement plan: every (backend, residency, churn-ops) point.
    let mut plan: Vec<PlanPoint> = Vec::new();
    for &n in FAST_SCALES.iter().filter(|&&n| n <= max_fast) {
        plan.push((
            "ac1",
            n,
            classed_ops,
            Box::new(move || run_classed(Procedure::Proc1, n, classed_ops)),
        ));
        plan.push((
            "ac2",
            n,
            classed_ops,
            Box::new(move || run_classed(Procedure::Proc2, n, classed_ops)),
        ));
        plan.push((
            "ac3_fast",
            n,
            fast_ops,
            Box::new(move || run_fast(n, fast_ops)),
        ));
    }

    let mut points = Vec::new();
    for (backend, resident, ops, run) in &plan {
        let (mut ns_samples, mut rel_samples) = sample(run.as_ref(), *ops, reps);
        // Under `--check`, a point that looks regressed gets more paired
        // samples folded in before the verdict (see bench_scale).
        if let Some(&(_, _, base)) = committed_points
            .iter()
            .find(|(b, r, _)| b == backend && r == resident)
        {
            for retry in 0..2 {
                if median(&rel_samples) <= base * (1.0 + tol) {
                    break;
                }
                let more = reps.max(1) * (retry + 2);
                eprintln!(
                    "bench_admission: {backend}@{resident} above tolerance, \
                     retrying with {more} reps"
                );
                let (a, b) = sample(run.as_ref(), *ops, more);
                ns_samples.extend(a);
                rel_samples.extend(b);
            }
        }
        let ns_per_admit = median(&ns_samples);
        let admits_per_sec = 1e9 / ns_per_admit;
        let rel_calib = median(&rel_samples);
        println!(
            "  {backend:>9} @ {resident:>9} resident  {ns_per_admit:>12.1} ns/admit  \
             {admits_per_sec:>12.0} admits/s  rel {rel_calib:.3}"
        );
        points.push(Point {
            backend,
            resident: *resident,
            ops: *ops,
            ns_per_admit,
            admits_per_sec,
            rel_calib,
        });
    }

    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut artifact = format!(
        "{{\n  \"bench\": \"admission\",\n  \"unix_time_secs\": {stamp},\n  \
         \"quick\": {quick},\n  \"calib_ns\": {calib_ns},\n  \"points\": [\n"
    );
    for (i, p) in points.iter().enumerate() {
        artifact.push_str(&format!(
            "    {{\"backend\": \"{}\", \"resident\": {}, \"ops\": {}, \
             \"ns_per_admit\": {:.3}, \"admits_per_sec\": {:.3}, \"rel_calib\": {:.4}}}{}\n",
            p.backend,
            p.resident,
            p.ops,
            p.ns_per_admit,
            p.admits_per_sec,
            p.rel_calib,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    artifact.push_str("  ]\n}\n");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("bench_admission: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let mut path = out.join("BENCH_admission.json");
    // A `--check` run must never clobber the baseline it is judged
    // against: redirect the fresh samples to a sibling artifact when
    // the output path resolves to the committed curve itself.
    if let Some(baseline) = check.as_ref() {
        let same = match (path.canonicalize(), baseline.canonicalize()) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        };
        if same {
            path = out.join("BENCH_admission.check.json");
        }
    }
    if let Err(e) = std::fs::write(&path, &artifact) {
        eprintln!("bench_admission: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("[json] {}", path.display());

    let Some(check_path) = check else { return };
    if matches!(committed, Some(None)) {
        eprintln!("bench_admission: cannot read {}", check_path.display());
        std::process::exit(1);
    }
    let mut failed = false;

    // No measured point may regress beyond tolerance against the
    // committed curve.
    let mut compared = 0;
    for p in &points {
        let Some(&(_, _, base)) = committed_points
            .iter()
            .find(|(b, r, _)| b == p.backend && *r == p.resident)
        else {
            continue;
        };
        compared += 1;
        let drift = p.rel_calib / base - 1.0;
        if drift > tol {
            eprintln!(
                "bench_admission: FAIL {}@{} regressed {:+.1}% vs committed curve (limit {:.0}%)",
                p.backend,
                p.resident,
                drift * 100.0,
                tol * 100.0
            );
            failed = true;
        } else {
            println!(
                "bench_admission: {}@{} {:+.1}% vs committed curve (limit {:.0}%)",
                p.backend,
                p.resident,
                drift * 100.0,
                tol * 100.0
            );
        }
    }
    if compared == 0 {
        eprintln!(
            "bench_admission: no comparable points in {}",
            check_path.display()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_admission: regression guard passed");
}
