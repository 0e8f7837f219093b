//! `lit-lint` CLI.
//!
//! ```text
//! lit-lint check [--root DIR] [--max-allows N] [--budget-ms MS]
//! lit-lint rules
//! ```
//!
//! `check` exits 0 when the workspace is clean (suppressed findings are
//! reported but do not fail), 1 when any violation remains — or when the
//! allow inventory exceeds `--max-allows`, or the scan overruns
//! `--budget-ms` — and 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use lit_lint::{rules, run_check, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: lit-lint <check [--root DIR] [--max-allows N] [--budget-ms MS] | rules>");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("rules") => {
            for r in rules::all() {
                println!("{:<26} {}", r.name, r.describe);
                println!("{:<26} protects: {}", "", r.protects);
            }
            ExitCode::SUCCESS
        }
        Some("check") => {
            let mut root = PathBuf::from(".");
            let mut max_allows: Option<usize> = None;
            let mut budget_ms: Option<u128> = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--root" => root = PathBuf::from(args.next().unwrap_or_else(|| usage())),
                    "--max-allows" => {
                        max_allows = Some(
                            args.next()
                                .and_then(|v| v.parse().ok())
                                .unwrap_or_else(|| usage()),
                        )
                    }
                    "--budget-ms" => {
                        budget_ms = Some(
                            args.next()
                                .and_then(|v| v.parse().ok())
                                .unwrap_or_else(|| usage()),
                        )
                    }
                    _ => usage(),
                }
            }
            if !root.join("Cargo.toml").is_file() {
                eprintln!("lit-lint: {} is not a workspace root", root.display());
                return ExitCode::from(2);
            }
            let start = std::time::Instant::now();
            let report = match run_check(&root, &Config::default()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("lit-lint: {e}");
                    return ExitCode::from(2);
                }
            };
            let elapsed_ms = start.elapsed().as_millis();
            for f in report.violations() {
                eprintln!(
                    "{}:{}:{}: [{}] {}\n    {}",
                    f.file, f.line, f.col, f.rule, f.message, f.snippet
                );
            }
            let allowed = report.findings.iter().filter(|f| f.allowed()).count();
            let violations = report.violation_count();
            eprintln!(
                "lit-lint: {} file(s), {} finding(s): {} violation(s), {} allowed, \
                 {} allow annotation(s), {} ms",
                report.files_scanned,
                report.findings.len(),
                violations,
                allowed,
                report.allows_total,
                elapsed_ms
            );
            let mut failed = violations > 0;
            if violations > 0 {
                for (rule, n) in report.counts_by_rule() {
                    eprintln!("  {rule}: {n}");
                }
            }
            if let Some(max) = max_allows {
                if report.allows_total > max {
                    eprintln!(
                        "lit-lint: allow inventory {} exceeds --max-allows {max}; the allow \
                         list can only shrink — remove allows, don't add them",
                        report.allows_total
                    );
                    failed = true;
                }
            }
            if let Some(budget) = budget_ms {
                if elapsed_ms > budget {
                    eprintln!(
                        "lit-lint: scan took {elapsed_ms} ms, over the --budget-ms {budget} \
                         runtime budget"
                    );
                    failed = true;
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
