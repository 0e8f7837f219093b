//! `obs_overhead` — the observability layer's overhead guard.
//!
//! Runs one ~10⁶-event Leave-in-Time scenario three ways — probes off,
//! metrics-only probe, metrics + trace probe — and reports wall time per
//! simulator event for each arm. Each rep is an interleaved burst of
//! `k` back-to-back `(off, on)` pairs per probed arm; one overhead
//! sample is `min-of-k(on) / min-of-k(off) − 1`. The minimum within an
//! arm filters scheduler noise, which only ever adds time; taking it
//! *inside* a short burst keeps the two arms' minima drawn from the
//! same machine conditions, so drift divides out of the ratio. The
//! reported overhead is the **median** of those burst ratios with an
//! order-statistic ~95% confidence interval. (Earlier versions paired
//! single runs — the CI routinely spanned impossible negative
//! overheads — and before that took the minimum *ratio*, which is
//! biased downward: the quietest `on` against an average `off`.)
//!
//! Two guards:
//!
//! * **within-run**: the metrics arm's median overhead may be at most
//!   `--tol-on` (default 15%) over the probes-off arm, the trace arm's at
//!   most `--tol-trace` (default 25%). (The tolerances are wider than the
//!   old 10% because the median does not under-report the way the min
//!   did.)
//! * **cross-run** (only with `--baseline FILE`): the probes-off arm,
//!   normalized by a fixed pure-CPU calibration loop to absorb machine
//!   speed differences, may regress at most `--tol-off` (default 5%)
//!   against the committed baseline (also a median — refresh it with a
//!   generous `--reps` so the stored value is not one contention phase).
//!
//! `--write-baseline` refreshes the committed baseline;
//! every invocation writes `results/BENCH_obs_overhead.json`.
//!
//! Usage: `obs_overhead [--test|--quick] [--reps N] [--min-k K]
//! [--out DIR] [--baseline FILE] [--write-baseline] [--tol-off F]
//! [--tol-on F] [--tol-trace F]`

#![forbid(unsafe_code)]

use lit_bench::calibrate;
use lit_net::{ObsProbe, OracleMode};
use lit_repro::scenario::{RunOptions, Scenario};
use lit_sim::Duration;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The paper's Figure 8 CROSS shape — two five-hop voice sessions
/// against Poisson cross traffic near saturation on every link. 30
/// simulated seconds push ~10⁶ events through the future-event set with
/// realistically deep queues (an idle drip would understate the
/// probes-off baseline and overstate the relative probe cost).
const SCENARIO: &str = "\
nodes 5 rate=1536000 prop=1ms lmax=424
discipline lit
seed 11
session route=0..4 rate=32000 source=onoff(on=352ms,off=650ms,t=13.25ms,len=424)
session route=0..4 rate=32000 jc source=onoff(on=352ms,off=650ms,t=13.25ms,len=424)
session route=0..0 rate=1472000 source=poisson(gap=0.28804ms,len=424)
session route=1..1 rate=1472000 source=poisson(gap=0.28804ms,len=424)
session route=2..2 rate=1472000 source=poisson(gap=0.28804ms,len=424)
session route=3..3 rate=1472000 source=poisson(gap=0.28804ms,len=424)
session route=4..4 rate=1472000 source=poisson(gap=0.28804ms,len=424)
run 30s
";

/// Raw paired samples from interleaved runs; medians are computed after
/// all reps (including guard retries) are merged.
struct ArmSamples {
    /// Best wall time per arm (off, metrics, trace), nanoseconds.
    best: [u128; 3],
    /// Within-rep paired `arm / off − 1` ratios for metrics and trace:
    /// the two runs of one rep execute back to back, so common-mode
    /// machine drift divides out of each sample.
    overhead: [Vec<f64>; 2],
    /// Paired `off / calibration` ratios — the machine-speed normalized
    /// probes-off cost the committed baseline stores (as a median).
    off_rel: Vec<f64>,
    /// Best calibration time, nanoseconds.
    calib_ns: u128,
    /// Future-event-set events per run (probe-independent).
    events: u64,
}

impl ArmSamples {
    /// Fold another round of samples into this one.
    fn merge(&mut self, other: ArmSamples) {
        for arm in 0..3 {
            self.best[arm] = self.best[arm].min(other.best[arm]);
        }
        for probed in 0..2 {
            self.overhead[probed].extend(&other.overhead[probed]);
        }
        self.off_rel.extend(&other.off_rel);
        self.calib_ns = self.calib_ns.min(other.calib_ns);
    }
}

/// Median of a sample; NaN when empty.
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

/// Order-statistic ~95% confidence interval for the median (normal
/// approximation to the binomial ranks; degenerates to the sample range
/// for very small n).
fn median_ci(xs: &[f64]) -> (f64, f64) {
    let mut xs = xs.to_vec();
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let k = (1.96 * (n as f64).sqrt() / 2.0).ceil() as usize;
    let lo = (n / 2).saturating_sub(k);
    let hi = (n / 2 + k).min(n - 1);
    (xs[lo], xs[hi])
}

/// Run the three arms — probes off, metrics-only, metrics + trace.
/// Each rep runs one interleaved burst of `k` back-to-back `(off, on)`
/// pairs per probed arm and contributes a single
/// `min-of-k(on) / min-of-k(off) − 1` overhead sample: the minimum
/// filters scheduler noise (which only ever adds time), and taking both
/// minima inside the same short burst means slow drift (thermal
/// throttling, noisy neighbours) divides out of the ratio.
fn time_arms(sc: &Scenario, reps: u32, k: u32, trace_cap: usize) -> ArmSamples {
    let opts = RunOptions {
        backend: None,
        stats: None,
        oracle: OracleMode::Off,
        shards: None,
        regulator: None,
    };
    let mut best = [u128::MAX; 3];
    let mut overhead: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut events = 0;
    let mut timed = |probe: Option<Box<dyn lit_net::Probe>>| -> u128 {
        let t = Instant::now();
        let (net, _) = sc.run_probed(&opts, probe);
        let ns = t.elapsed().as_nanos();
        events = net.event_count();
        black_box(&net);
        ns
    };
    let mut off_rel = Vec::new();
    let mut calib_best = u128::MAX;
    for _ in 0..reps.max(1) {
        // Pair a calibration sample with the off burst of the rep so
        // the cross-run baseline ratio is drift-cancelled the same way
        // the within-run overhead ratios are.
        let calib = calibrate();
        calib_best = calib_best.min(calib);
        for probed in 0..2 {
            let mut off_min = u128::MAX;
            let mut on_min = u128::MAX;
            for _ in 0..k.max(1) {
                off_min = off_min.min(timed(None));
                on_min = on_min.min(timed(Some(Box::new(ObsProbe::new(if probed == 0 {
                    0
                } else {
                    trace_cap
                })))));
            }
            best[0] = best[0].min(off_min);
            best[probed + 1] = best[probed + 1].min(on_min);
            overhead[probed].push(on_min as f64 / off_min.max(1) as f64 - 1.0);
            if probed == 0 {
                off_rel.push(off_min as f64 / calib.max(1) as f64);
            }
        }
    }
    ArmSamples {
        best,
        overhead,
        off_rel,
        calib_ns: calib_best,
        events,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: obs_overhead [--test|--quick] [--reps N] [--min-k K] \
         [--out DIR] [--baseline FILE] [--write-baseline] [--tol-off F] \
         [--tol-on F] [--tol-trace F]"
    );
    std::process::exit(2);
}

/// Pull `"key": <number>` out of a parsed baseline file.
fn field(v: &lit_obs::json::Value, key: &str) -> Option<f64> {
    v.get(key).and_then(|x| x.as_f64())
}

fn main() {
    let mut quick = false;
    let mut reps = 7u32;
    let mut min_k = 3u32;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut tol_off = 0.05f64;
    let mut tol_on = 0.15f64;
    let mut tol_trace = 0.25f64;
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
            "--min-k" => {
                min_k = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--baseline" => baseline = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--write-baseline" => write_baseline = true,
            "--tol-off" => {
                tol_off = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--tol-on" => {
                tol_on = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--tol-trace" => {
                tol_trace = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--bench" => {} // appended by `cargo bench`
            _ => usage(),
        }
    }
    if std::env::var_os("BENCH_OUT").is_some() {
        out = PathBuf::from(std::env::var_os("BENCH_OUT").unwrap());
    }

    let mut sc = Scenario::parse(SCENARIO).expect("built-in scenario parses");
    if quick {
        sc = sc.with_horizon(Duration::from_ms(4_000));
        reps = reps.min(2);
        min_k = min_k.min(2);
    }

    let base_rel = baseline.as_ref().and_then(|p| {
        std::fs::read_to_string(p)
            .ok()
            .and_then(|s| lit_obs::json::Value::parse(&s).ok())
            .and_then(|v| field(&v, "off_rel_calib"))
    });
    let mut t = time_arms(&sc, reps, min_k, lit_obs::hub::DEFAULT_TRACE_CAP);
    let over_tol = |t: &ArmSamples| {
        median(&t.overhead[0]) > tol_on
            || median(&t.overhead[1]) > tol_trace
            || base_rel.is_some_and(|b| median(&t.off_rel) > b * (1.0 + tol_off))
    };
    let mut retry_reps = reps * 2;
    for _ in 0..3 {
        if !over_tol(&t) {
            break;
        }
        // Shared runners have sustained slow phases; before failing the
        // guard, fold in more paired samples — the median tightens as the
        // sample grows. A persistent regression still fails: more samples
        // of a genuinely slower binary only confirm its median.
        eprintln!("obs_overhead: overhead above tolerance, retrying with {retry_reps} reps");
        t.merge(time_arms(
            &sc,
            retry_reps,
            min_k,
            lit_obs::hub::DEFAULT_TRACE_CAP,
        ));
        retry_reps = (retry_reps * 3 / 2).min(reps * 4);
    }
    let ([off_ns, metrics_ns, trace_ns], events) = (t.best, t.events);
    let metrics_over = median(&t.overhead[0]);
    let trace_over = median(&t.overhead[1]);
    let (metrics_lo, metrics_hi) = median_ci(&t.overhead[0]);
    let (trace_lo, trace_hi) = median_ci(&t.overhead[1]);
    let off_rel = median(&t.off_rel);
    let (off_rel_lo, off_rel_hi) = median_ci(&t.off_rel);
    let calib_ns = t.calib_ns;

    let per_event = off_ns as f64 / events.max(1) as f64;
    println!(
        "obs_overhead: {events} events, calib {:.1} ms, {} min-of-{min_k} burst samples",
        calib_ns as f64 / 1e6,
        t.overhead[0].len()
    );
    println!(
        "  off     {:>9.1} ms  ({per_event:.1} ns/event, {off_rel:.4} of calib, \
         CI [{off_rel_lo:.4}, {off_rel_hi:.4}])",
        off_ns as f64 / 1e6
    );
    println!(
        "  metrics {:>9.1} ms  ({:+.2}% vs off, CI [{:+.2}%, {:+.2}%])",
        metrics_ns as f64 / 1e6,
        metrics_over * 100.0,
        metrics_lo * 100.0,
        metrics_hi * 100.0
    );
    println!(
        "  trace   {:>9.1} ms  ({:+.2}% vs off, CI [{:+.2}%, {:+.2}%])",
        trace_ns as f64 / 1e6,
        trace_over * 100.0,
        trace_lo * 100.0,
        trace_hi * 100.0
    );

    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("obs_overhead: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let artifact = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"unix_time_secs\": {stamp},\n  \
         \"events\": {events},\n  \"calib_ns\": {calib_ns},\n  \"off_ns\": {off_ns},\n  \
         \"metrics_ns\": {metrics_ns},\n  \"trace_ns\": {trace_ns},\n  \
         \"off_ns_per_event\": {per_event:.3},\n  \"off_rel_calib\": {off_rel:.6},\n  \
         \"off_rel_calib_ci\": [{off_rel_lo:.6}, {off_rel_hi:.6}],\n  \
         \"metrics_overhead\": {metrics_over:.6},\n  \
         \"metrics_overhead_ci\": [{metrics_lo:.6}, {metrics_hi:.6}],\n  \
         \"trace_overhead\": {trace_over:.6},\n  \
         \"trace_overhead_ci\": [{trace_lo:.6}, {trace_hi:.6}]\n}}\n"
    );
    let path = out.join("BENCH_obs_overhead.json");
    if let Err(e) = std::fs::write(&path, &artifact) {
        eprintln!("obs_overhead: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("[json] {}", path.display());

    if write_baseline {
        let base = format!(
            "{{\n  \"bench\": \"obs_overhead_baseline\",\n  \"unix_time_secs\": {stamp},\n  \
             \"events\": {events},\n  \"off_rel_calib\": {off_rel:.6},\n  \
             \"off_ns_per_event\": {per_event:.3}\n}}\n"
        );
        let bpath = baseline
            .clone()
            .unwrap_or_else(|| out.join("BENCH_obs_baseline.json"));
        if let Err(e) = std::fs::write(&bpath, base) {
            eprintln!("obs_overhead: cannot write {}: {e}", bpath.display());
            std::process::exit(1);
        }
        println!("[baseline] {}", bpath.display());
        return;
    }

    let mut failed = false;
    if metrics_over > tol_on || trace_over > tol_trace {
        eprintln!(
            "obs_overhead: FAIL probes-on overhead (metrics {:+.2}% vs limit {:.0}%, \
             trace {:+.2}% vs limit {:.0}%)",
            metrics_over * 100.0,
            tol_on * 100.0,
            trace_over * 100.0,
            tol_trace * 100.0
        );
        failed = true;
    }
    if let Some(bpath) = baseline {
        match base_rel {
            Some(base) => {
                if off_rel > base * (1.0 + tol_off) {
                    eprintln!(
                        "obs_overhead: FAIL probes-off regressed {:+.2}% vs baseline (limit {:.0}%)",
                        (off_rel / base - 1.0) * 100.0,
                        tol_off * 100.0
                    );
                    failed = true;
                } else {
                    println!(
                        "obs_overhead: probes-off {:+.2}% vs baseline (limit {:.0}%)",
                        (off_rel / base - 1.0) * 100.0,
                        tol_off * 100.0
                    );
                }
            }
            None => {
                eprintln!("obs_overhead: cannot read baseline {}", bpath.display());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("obs_overhead: guards passed");
}
