//! `lit-bench` — the repository's benchmark.
//!
//! Five workloads through the real `Network::run_until` (and `Ac3Fast`),
//! three end-to-end metrics each, and a separate traced pass that
//! attributes the end-to-end number to layers. See `README.md` next to
//! this file for every name, the estimator, and how to read the output.
//!
//! ```text
//! lit-bench all            [--seed N] [--quick] [--json] [--out DIR]
//! lit-bench run <workload> [--seed N] [--quick] [--json]
//! lit-bench trace [<workload>] [--seed N] [--quick] [--json] [--out DIR]
//! lit-bench --workload W --seed N --seconds S --trace 0|1     (BENCHMARK.json)
//! ```
//!
//! `all` and a bare `trace` run one child process per workload, one
//! after the other, so every workload gets a clean peak RSS and the box
//! never carries more than one measuring thread.

#![forbid(unsafe_code)]

mod estimator;
mod knobs;
mod measure;
mod spans;
mod storm;
mod trace;
mod workloads;

use measure::{Budget, Report, DEFAULT_REPS, END_TO_END};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::WORKLOADS;

/// One named number with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Resident-set figures of this process in kB.
pub struct Rss {
    /// `VmRSS`: resident now.
    pub now: u64,
    /// `VmHWM`: the most that was ever resident.
    pub peak: u64,
    /// `RssFile`: the file-backed share of `now`.
    pub file: u64,
}

/// Read `/proc/self/status`; zeros where the file or a field is missing
/// (non-Linux).
pub fn rss_kb() -> Rss {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    };
    Rss {
        now: field("VmRSS:"),
        peak: field("VmHWM:"),
        file: field("RssFile:"),
    }
}

/// `{"name":{"value":v,"unit":"u"},...}`.
fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A finite number with all its digits; non-finite values have no JSON
/// spelling and mean a broken measurement, so they become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn report_json(r: &Report, extra: &[Metric]) -> String {
    let all: Vec<Metric> = r.metrics.iter().chain(extra).cloned().collect();
    format!(
        "{{\"workload\":\"{}\",\"why\":\"{}\",\"seed\":{},\"cores\":{},\"reps\":{},\"slices\":{},\
         \"setup_samples\":{},\"ops\":{},\"failed_ops\":{},\"sim_digest\":\"{}\",\"metrics\":{}}}",
        r.workload.name,
        r.workload.why,
        r.seed,
        r.cores,
        r.reps,
        estimator::SLICES,
        r.setup_samples,
        r.ops,
        r.failed_ops,
        r.sim_digest,
        metrics_json(&all)
    )
}

fn print_human(r: &Report, extra: &[Metric]) {
    println!(
        "== {}  (seed {}, cores {})",
        r.workload.name, r.seed, r.cores
    );
    println!("why: {}", r.workload.why);
    println!(
        "samples: {} repetitions x {} slices, {} set-ups; ops {}, failed_ops {}; sim_digest {}",
        r.reps,
        estimator::SLICES,
        r.setup_samples,
        r.ops,
        r.failed_ops,
        r.sim_digest
    );
    for m in r.metrics.iter().chain(extra) {
        // Six significant digits whatever the magnitude (set-up is 1e-5 s
        // on some workloads, simstat counts are 1e7).
        let magnitude = if m.value == 0.0 {
            5.0
        } else {
            m.value.abs().log10().floor()
        };
        let digits = 5 - (magnitude as i32).clamp(-9, 5);
        println!(
            "  {:<34} {:>18.*} {}",
            m.name, digits as usize, m.value, m.unit
        );
    }
    println!(
        "  note: setup_s = {} ms pedestal + the median set-up at calibration speed {} ns/iter \
         (host.setup_raw_s is the wall time), so that its 25 % bound is never less than 2 ms",
        measure::SETUP_PEDESTAL_S * 1e3,
        estimator::CALIB_REF_NS
    );
    let setup = r.metrics.iter().find(|m| m.name == "host.setup_raw_s");
    if setup.is_some_and(|m| m.value < 1e-3) {
        println!(
            "  note: set-up is below a millisecond here, inside timer noise; it is live on \
             sessions_100k and ac3_storm only"
        );
    }
}

/// Parsed command line.
struct Args {
    sub: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    quick: bool,
    json: bool,
    out: PathBuf,
    /// `--seconds` of the BENCHMARK.json contract.
    seconds: Option<f64>,
    /// `--trace 0|1` of the BENCHMARK.json contract.
    contract_trace: Option<bool>,
}

const USAGE: &str = "usage: lit-bench all|run <workload>|trace [<workload>] \
                     [--seed N] [--quick] [--json] [--out DIR]\n       \
                     lit-bench --workload W --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let mut a = Args {
        sub: None,
        workload: None,
        seed: None,
        quick: false,
        json: false,
        out: PathBuf::from(target).join("lit-bench"),
        seconds: None,
        contract_trace: None,
    };
    let mut it = std::env::args().skip(1);
    let mut contract = false;
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--seed" => {
                a.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--quick" => a.quick = true,
            "--json" => a.json = true,
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--workload" => {
                contract = true;
                a.workload = Some(value("a name")?);
            }
            "--seconds" => {
                a.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                a.contract_trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ if a.sub.is_none() && !contract => a.sub = Some(arg),
            _ if a.workload.is_none() => a.workload = Some(arg),
            _ => return Err(format!("unexpected argument '{arg}'")),
        }
    }
    Ok(a)
}

/// Run `sub <workload>` in one child process per workload, sequentially.
/// With `--json` the children's result lines are collected into one
/// object; otherwise their tables stream through.
fn fan_out(sub: &str, a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    let mut lines = Vec::new();
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.arg(sub).arg(w.name).arg("--out").arg(&a.out);
        if let Some(s) = a.seed {
            cmd.arg("--seed").arg(s.to_string());
        }
        if a.quick {
            cmd.arg("--quick");
        }
        if a.json {
            let out = cmd
                .arg("--json")
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {sub} {}: {e}", w.name))?;
            ok &= out.status.success();
            let text = String::from_utf8_lossy(&out.stdout);
            lines.extend(text.lines().last().map(str::to_string));
        } else {
            let status = cmd
                .status()
                .map_err(|e| format!("spawn {sub} {}: {e}", w.name))?;
            ok &= status.success();
        }
    }
    if a.json {
        println!("{{\"workloads\":[{}]}}", lines.join(","));
    }
    Ok(ok)
}

/// `run <workload>`: end-to-end metrics, tracing off.
fn measure_one(
    name: &str,
    seed: Option<u64>,
    quick: bool,
    budget: Budget,
) -> Result<Report, String> {
    let (workload, plan) = workloads::plan(name, seed, quick)?;
    let mut cal = estimator::Calibrator::new();
    let mut off = spans::Tracer::off();
    Ok(measure::run(
        workload, &plan, budget, !quick, &mut cal, &mut off,
    ))
}

/// The traced pass of one workload. Its spans go to `<out>/spans.jsonl`:
/// appended, or replacing the file when `fresh`.
fn traced(name: &str, a: &Args, quick: bool, fresh: bool) -> Result<trace::Traced, String> {
    let t = trace::trace(name, a.seed, quick)?;
    let path = a.out.join("spans.jsonl");
    let located = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(&a.out).map_err(located)?;
    if fresh && path.exists() {
        std::fs::remove_file(&path).map_err(located)?;
    }
    t.tracer.append_jsonl(&path).map_err(located)?;
    Ok(t)
}

/// The BENCHMARK.json contract: one workload, one result line.
fn contract(name: &str, a: &Args) -> Result<bool, String> {
    let (report, metrics) = if a.contract_trace == Some(true) {
        let t = traced(name, a, false, true)?;
        let per_layer = trace::contract_metrics(&t);
        (t.report, per_layer)
    } else {
        let budget = Budget::Seconds(a.seconds.unwrap_or(20.0));
        let r = measure_one(name, a.seed, false, budget)?;
        let e2e = r
            .metrics
            .iter()
            .filter(|m| END_TO_END.contains(&m.name))
            .cloned()
            .collect();
        (r, e2e)
    };
    print_human(&report, &[]);
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.failed_ops == 0,
        report.ops,
        report.failed_ops,
        metrics_json(&metrics)
    );
    Ok(report.failed_ops == 0)
}

fn dispatch(a: &Args) -> Result<bool, String> {
    if let (None, Some(w)) = (&a.sub, &a.workload) {
        return contract(w, a);
    }
    match (a.sub.as_deref(), a.workload.as_deref()) {
        (Some("all"), None) => fan_out("run", a),
        (Some("run"), Some(w)) => {
            let budget = Budget::Reps(if a.quick { 1 } else { DEFAULT_REPS });
            let r = measure_one(w, a.seed, a.quick, budget)?;
            if a.json {
                println!("{}", report_json(&r, &[]));
            } else {
                print_human(&r, &[]);
            }
            Ok(r.failed_ops == 0)
        }
        (Some("trace"), None) => {
            // One file per invocation: the children append to it.
            let spans = a.out.join("spans.jsonl");
            if spans.exists() {
                std::fs::remove_file(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
            }
            fan_out("trace", a)
        }
        (Some("trace"), Some(w)) => {
            let t = traced(w, a, a.quick, false)?;
            if a.json {
                println!("{}", report_json(&t.report, &t.layers));
            } else {
                print_human(&t.report, &t.layers);
                let path = a.out.join("spans.jsonl");
                println!("  spans: {} appended to {}", t.tracer.len(), path.display());
            }
            Ok(t.report.failed_ops == 0)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| dispatch(&a)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("lit-bench: failed operations (see failed_ops above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lit-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_obs::json::Value;
    use std::collections::BTreeSet;

    #[test]
    fn json_numbers_keep_their_digits_and_never_print_nan() {
        assert_eq!(json_num(91.437_182_93), "91.43718293");
        assert_eq!(json_num(f64::NAN), "null");
        let m = [
            Metric::new("a.b", 1.5, "ns"),
            Metric::new("c", 2.0, "count"),
        ];
        assert_eq!(
            metrics_json(&m),
            "{\"a.b\":{\"value\":1.5,\"unit\":\"ns\"},\"c\":{\"value\":2,\"unit\":\"count\"}}"
        );
    }

    /// The `--quick` smoke, in-process: every workload through the traced
    /// pass (which contains the plain run and the check pass).
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "a minute unoptimised, 10 s optimised: run with `cargo test --release`"
    )]
    fn quick_smoke_reports_every_metric_and_fails_nothing() {
        let mut measured = BTreeSet::new();
        for w in &WORKLOADS {
            let t = trace::trace(w.name, None, true).expect("workload runs");
            assert_eq!(t.report.failed_ops, 0, "{}", w.name);
            assert!(t.report.ops > 0, "{}", w.name);
            let all: Vec<&Metric> = t.report.metrics.iter().chain(&t.layers).collect();
            let value = |name: &str| {
                let m = all.iter().find(|m| m.name == name);
                m.unwrap_or_else(|| panic!("{}: no {name}", w.name)).value
            };
            for name in END_TO_END {
                assert!(value(name) > 0.0, "{}: {name} = {}", w.name, value(name));
            }
            for m in &all {
                assert!(m.value.is_finite(), "{}: {} = {}", w.name, m.name, m.value);
                assert!(!m.unit.is_empty(), "{}: {} has no unit", w.name, m.name);
                measured.insert(m.name);
            }
            // Unoptimised builds skew isolated drives against the real
            // run, so the layer table's invariant is a release-build one.
            if !cfg!(debug_assertions) {
                let (residual, norm) = (value("net.residual_ns"), value("ns_per_event_norm"));
                assert!(
                    (0.0..norm).contains(&residual),
                    "{}: {residual} of {norm}",
                    w.name
                );
            }
            let line = trace::contract_metrics(&t);
            assert_eq!(line.len(), trace::PER_LAYER.len());
            assert!(
                t.tracer.len() > estimator::SLICES,
                "{}: spans recorded",
                w.name
            );
        }
        for (name, _) in trace::PER_LAYER {
            assert!(measured.contains(name), "{name} is measured on no workload");
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly what this
    /// binary reports.
    #[test]
    fn benchmark_json_matches_the_binary() {
        // Path relative to this file: the same in both packages the
        // sources build as.
        let text = include_str!("../../../../../BENCHMARK.json");
        let v = Value::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str, field: &str| -> Vec<String> {
            let items = v.get(key).and_then(Value::as_array).unwrap_or(&[]);
            items
                .iter()
                .map(|i| {
                    i.get(field)
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string()
                })
                .collect()
        };
        let names = |ws: &[&str]| ws.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(list("workloads", "name"), names(&WORKLOADS.map(|w| w.name)));
        assert_eq!(list("workloads", "why"), names(&WORKLOADS.map(|w| w.why)));
        assert_eq!(list("end_to_end", "name"), names(&END_TO_END));
        assert_eq!(
            list("per_layer", "name"),
            names(&trace::PER_LAYER.map(|(n, _)| n))
        );
        assert_eq!(
            list("per_layer", "unit"),
            names(&trace::PER_LAYER.map(|(_, u)| u))
        );
        let paths = v.get("paths").and_then(Value::as_array).unwrap_or(&[]);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("crates/bench/src/bin/lit-bench"));
    }
}
