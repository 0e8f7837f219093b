//! `lit-repro` — regenerate the paper's figures and tables.
//!
//! ```text
//! lit-repro [--quick] [--seed N] [--threads N] [--shards N] [--replicas N] [--out DIR] <command>
//!
//! commands:
//!   fig7        max delay/jitter sweep, MIX ON-OFF, AC1/one class
//!   fig8        jitter control vs none, CROSS + Poisson cross traffic
//!   fig9        delay CCDF vs bounds, Poisson session rho = 0.7
//!   fig10       delay CCDF vs bounds, Poisson session rho = 0.33
//!   fig11       same session, Deterministic (CBR) cross traffic
//!   fig12       buffer distribution, session without jitter control
//!   fig13       buffer distribution, session with jitter control
//!   fig14-17    AC2 two-class delay-shifting sweep
//!   tables      §2 admission examples, PGPS equivalence, §4 Stop-and-Go
//!   firewall    victim vs misbehaving bursts across five disciplines
//!   all         everything above
//! ```
//!
//! `--quick` shrinks every run to ~20 simulated seconds and pools 4
//! replicas per distribution experiment for smoke tests; the default
//! reproduces the paper's 5/10-minute horizons with a single replica.
//! Independent runs (sweep points, disciplines, replicas) spread over
//! `--threads N` workers (default: all cores); the thread count never
//! changes results, only wall-clock time. `--shards N` splits every
//! network *within* one run across N per-core shard executors (default:
//! 1, the one-shard driver) — byte-identical results across every `N ≥ 2`,
//! and identical to `N = 1` on the experiments' staggered traffic where
//! no two events share an instant (`firewall`'s same-instant bursts fall
//! under the general tie-order caveat documented, with the fallback
//! cases, at `lit_net::shard`; a run whose `--shards` request degraded to
//! one shard says so on stderr). Tables print to stdout and are also
//! written as CSV under `--out` (default `results/`).
//!
//! Every flag lands in one `RunConfig` (or, for `--metrics` / `--trace`,
//! in the `Collector` it lends): the commands read engine options from
//! it and retire each finished network into it, and the tail of `main`
//! reports from it. Nothing is process-global.

#![forbid(unsafe_code)]

use lit_net::OracleMode;
use lit_obs::hub::{Hub, DEFAULT_TRACE_CAP};
use lit_repro::collect::Collector;
use lit_repro::commands::{emit, run_command, write_file, Outputs};
use lit_repro::experiments::RunConfig;
use lit_repro::scenario::{regulator_fits, Ac3Tally, RunOptions, Scenario};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    /// `--quick`: the reduced preset (20 s horizon, 4 pooled replicas);
    /// the explicit flags below override it regardless of order.
    quick: bool,
    seconds: Option<u64>,
    seed: Option<u64>,
    threads: Option<usize>,
    replicas: Option<u32>,
    /// `--oracle`, `--regulator`, `--shards`: the engine options of every
    /// network the command builds.
    engine: RunOptions,
    out: Outputs,
    command: String,
    extra: Vec<String>,
    /// `--metrics FILE`: write the pooled observability metrics JSON here.
    metrics: Option<PathBuf>,
    /// `--trace FILE`: write the pooled packet-lifecycle trace here
    /// (Chrome `trace_event` JSON; `.jsonl` extension selects JSONL).
    trace: Option<PathBuf>,
    /// `--ac3`: vet scenario sessions through per-node procedure-3
    /// admission before running, dropping rejected sessions.
    ac3: bool,
    /// `--ladder r1,r2,...`: sweep the scenario's `generate` stanzas over
    /// these offered loads with heavy-traffic cross-checks instead of a
    /// single run.
    ladder: Option<Vec<u32>>,
}

impl Args {
    /// The run configuration the flags describe, retiring into `collector`.
    fn run_config<'a>(&self, collector: &'a Collector) -> RunConfig<'a> {
        let mut cfg = if self.quick {
            RunConfig::quick(collector)
        } else {
            RunConfig::paper(collector)
        };
        if let Some(s) = self.seconds {
            cfg.seconds = Some(s);
        }
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        if let Some(t) = self.threads {
            cfg.threads = Some(t);
        }
        if let Some(r) = self.replicas {
            cfg.replicas = r;
        }
        cfg.engine = self.engine;
        cfg
    }

    /// The collector the `--metrics` / `--trace` flags ask for.
    fn collector(&self) -> Collector {
        let trace_cap = if self.trace.is_some() {
            DEFAULT_TRACE_CAP
        } else {
            0
        };
        Collector::new(Hub::new(self.metrics.is_some(), trace_cap))
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: lit-repro [--quick] [--seconds N] [--seed N] [--threads N] [--shards N] [--replicas N] [--out DIR] \
         [--oracle off|count|panic] [--regulator per-session|interleaved] [--metrics FILE] [--trace FILE] \
         [--ac3] [--ladder R1,R2,...] \
         <fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14-17|fig14-17-ac1|tables|firewall|ablation-queue|heavytail|scenario FILE|all>\n\
         --ac3 applies to `scenario` only: establishment is vetted per node by procedure 3 \
         (ineq. 19) and rejected sessions are dropped; not combinable with --ladder\n\
         --ladder applies to `scenario` only: re-target the file's `generate` stanzas at each offered \
         load (e.g. 0.5,0.8,0.95,1.2) and cross-check utilization, drainage and the delay frontier\n\
         --regulator overrides the eligibility-regulator backend of every network built, \
         figure commands included (a scenario's `regulator` directive loses to it); \
         interleaved runs discipline lit only, so it is refused with `firewall`, `all` \
         and a scenario of another discipline"
    );
    std::process::exit(2);
}

/// A flag combination that would otherwise be silently ignored: one-line
/// reason on stderr, exit 2.
fn usage_error(reason: &str) -> ! {
    eprintln!("lit-repro: {reason}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut quick = false;
    let mut seconds = None;
    let mut seed = None;
    let mut threads = None;
    let mut replicas = None;
    let mut engine = RunOptions::default();
    let mut out = PathBuf::from("results");
    let mut command = None;
    let mut extra = Vec::new();
    let mut metrics = None;
    let mut trace = None;
    let mut ac3 = false;
    let mut ladder = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let num = |it: &mut dyn Iterator<Item = String>| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--seconds" => seconds = Some(num(&mut it)),
            "--seed" => seed = Some(num(&mut it)),
            "--threads" => threads = Some(num(&mut it).max(1) as usize),
            "--shards" => engine.shards = Some(num(&mut it) as usize),
            "--replicas" => replicas = Some(num(&mut it).max(1) as u32),
            "--out" => out = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--metrics" => metrics = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--trace" => trace = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--ac3" => ac3 = true,
            "--oracle" => {
                engine.oracle = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--regulator" => {
                engine.regulator = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--ladder" => {
                let spec = it.next().unwrap_or_else(|| usage());
                ladder = Some(
                    lit_repro::heavy::parse_ladder(&spec)
                        .unwrap_or_else(|e| usage_error(&format!("--ladder: {e}"))),
                );
            }
            c if !c.starts_with('-') && command.is_none() => command = Some(c.to_string()),
            c if !c.starts_with('-') => extra.push(c.to_string()),
            _ => usage(),
        }
    }
    let command = command.unwrap_or_else(|| usage());
    // Only the `scenario` command reads these two; anywhere else they
    // would be dropped without a word.
    for (flag, given) in [("--ac3", ac3), ("--ladder", ladder.is_some())] {
        if given && command != "scenario" {
            usage_error(&format!(
                "{flag} applies only to the `scenario` command (got `{command}`)"
            ));
        }
    }
    if ac3 && ladder.is_some() {
        usage_error("--ac3 and --ladder cannot be combined (the ladder does not vet sessions)");
    }
    // `firewall` (and so `all`) runs the baselines next to LiT.
    if matches!(command.as_str(), "firewall" | "all") {
        if let Err(e) = regulator_fits(engine.regulator.unwrap_or_default(), false) {
            usage_error(&format!("--regulator: `{command}` runs baselines, and {e}"));
        }
    }
    Args {
        quick,
        seconds,
        seed,
        threads,
        replicas,
        engine,
        out: Outputs::new(out),
        command,
        extra,
        metrics,
        trace,
        ac3,
        ladder,
    }
}

/// Vet a parsed scenario through per-node AC3 (`--ac3`): print one
/// verdict per session line, then the tally, and return the tally with
/// the scenario minus its rejected sessions.
fn vet_scenario(sc: &Scenario) -> (Ac3Tally, Scenario) {
    let verdicts = sc.ac3_vet();
    for (i, v) in verdicts.iter().enumerate() {
        match v {
            Ok(()) => println!("ac3: session {i} admitted"),
            Err((n, e)) => println!("ac3: session {i} REJECTED (node {n}: {e})"),
        }
    }
    let tally = Ac3Tally::of(&verdicts);
    println!(
        "ac3: {}/{} admitted, {} infeasible, {} undecided",
        tally.admitted,
        verdicts.len(),
        tally.infeasible,
        tally.undecided
    );
    let keep: Vec<bool> = verdicts.iter().map(|v| v.is_ok()).collect();
    (tally, sc.retain_sessions(&keep))
}

/// After the run: flush the pooled observability output to the paths the
/// `--metrics` / `--trace` flags named. Both exports are deterministic
/// for a given seed and workload, independent of `--threads`.
fn write_obs(args: &Args, hub: &Hub) {
    if let Some(path) = &args.metrics {
        let json = hub.metrics_json();
        if args.out.wrote(path, write_file(path, &json)) {
            eprintln!("[metrics] {}", path.display());
        }
    }
    if let Some(path) = &args.trace {
        let body = if path.extension().is_some_and(|e| e == "jsonl") {
            hub.trace_jsonl()
        } else {
            hub.chrome_trace_json()
        };
        if args.out.wrote(path, write_file(path, &body)) {
            eprintln!("[trace] {}", path.display());
        }
    }
}

/// After a run: if `--shards` asked for parallelism but some network
/// builds degraded to the one-shard driver (probe installed, panic-mode
/// oracle, zero-lookahead edge), say so — the results are still valid,
/// but any wall-clock numbers were measured on the one-shard driver.
fn report_shard_fallbacks(cfg: &RunConfig) {
    let fb = lit_net::shard::shard_fallbacks();
    if cfg.engine.shards.unwrap_or(1) > 1 && fb > 0 {
        eprintln!(
            "shards: {fb} network build(s) fell back to the one-shard driver \
             (probe / panic-mode oracle / zero-lookahead edge; results unaffected)"
        );
    }
}

/// After a run: report the collector's conformance-oracle tally (every
/// network the command built was retired into it, drain checks
/// included); `false` on a nonzero count.
fn oracle_conforms(cfg: &RunConfig) -> bool {
    if cfg.engine.oracle == OracleMode::Off {
        return true;
    }
    let v = cfg.collector.violations();
    if v == 0 {
        eprintln!("oracle: 0 violations");
    } else {
        eprintln!("oracle: {v} violation(s) — bounds do not conform");
    }
    v == 0
}

/// The tail of every run: observability files, the shard note, the oracle
/// tally — and a failing exit if the oracle counted a violation or any
/// output file could not be written.
fn finish(args: &Args, cfg: &RunConfig) -> ExitCode {
    write_obs(args, cfg.collector.hub());
    report_shard_fallbacks(cfg);
    if oracle_conforms(cfg) && !args.out.failed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let collector = args.collector();
    let cfg = args.run_config(&collector);
    if args.command == "scenario" {
        let path = args.extra.first().cloned().unwrap_or_else(|| usage());
        return match Scenario::load(&path) {
            Ok(sc) => {
                if let Some(Err(e)) = cfg.engine.regulator.map(|r| sc.regulator_fits(r)) {
                    usage_error(&format!("{path}: --regulator: {e}"));
                }
                if let Some(rungs) = &args.ladder {
                    let report = lit_repro::heavy::run_ladder(&sc, rungs, &cfg.engine, &collector);
                    emit(
                        &args.out,
                        "scenario_ladder",
                        &lit_repro::heavy::table(&report),
                    );
                    for f in &report.failures {
                        eprintln!("ladder: {f}");
                    }
                    let verdict = finish(&args, &cfg);
                    return if report.failures.is_empty() {
                        verdict
                    } else {
                        eprintln!("ladder: {} cross-check failure(s)", report.failures.len());
                        ExitCode::FAILURE
                    };
                }
                // Expand `generate` stanzas up front so AC3 vetting and
                // the report index the concrete session list.
                let mut sc = sc.expanded();
                let mut undecided = 0;
                if args.ac3 {
                    let (tally, kept) = vet_scenario(&sc);
                    undecided = tally.undecided;
                    if undecided > 0 {
                        eprintln!(
                            "scenario: ac3 left {undecided} session(s) undecided \
                             (overflow; rejected conservatively)"
                        );
                    }
                    if tally.admitted == 0 {
                        eprintln!("scenario: ac3 admitted no sessions");
                        return ExitCode::FAILURE;
                    }
                    sc = kept;
                }
                emit(
                    &args.out,
                    "scenario",
                    &sc.run_report(&cfg.engine, &collector),
                );
                let verdict = finish(&args, &cfg);
                if undecided > 0 {
                    ExitCode::FAILURE
                } else {
                    verdict
                }
            }
            Err(e) => {
                eprintln!("scenario: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mode = match cfg.seconds {
        Some(s) => format!("{s} s (reduced)"),
        None => "paper horizons (5/10 min)".to_string(),
    };
    let oracle = match cfg.engine.oracle {
        OracleMode::Off => String::new(),
        m => format!(" | oracle {m:?}"),
    };
    eprintln!(
        "lit-repro: {} | seed {} | horizon {mode} | {} worker thread(s) | {} replica(s){oracle}",
        args.command,
        cfg.seed,
        cfg.worker_count(),
        cfg.replicas.max(1),
    );
    if run_command(&args.command, &cfg, &args.out) {
        finish(&args, &cfg)
    } else {
        usage()
    }
}
