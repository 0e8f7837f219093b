//! `lit-lint` CLI.
//!
//! ```text
//! lit-lint check [--root DIR] [--json FILE] [--rule NAME]...
//!                [--max-allows N] [--budget-ms MS]
//! lit-lint allows [--root DIR]
//! lit-lint rules
//! ```
//!
//! `check` exits 0 when the workspace is clean (suppressed findings are
//! reported but do not fail), 1 when any violation remains — or when the
//! allow inventory exceeds `--max-allows`, or the scan overruns
//! `--budget-ms` — and 2 on usage or I/O errors. `--json` writes the
//! `lit-lint-v1` report.
//!
//! `allows` prints the burndown inventory: every allow annotation in the
//! workspace, grouped rule × crate.

#![forbid(unsafe_code)]

use lit_lint::{collect_allows, rules, run_check, Config};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: lit-lint <check [--root DIR] [--json FILE] [--rule NAME]... \
         [--max-allows N] [--budget-ms MS] | allows [--root DIR] | rules>"
    );
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
        Some("allows") => {
            let mut root = PathBuf::from(".");
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--root" => root = PathBuf::from(args.next().unwrap_or_else(|| usage())),
                    _ => usage(),
                }
            }
            let allows = match collect_allows(&root, &Config::default()) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("lit-lint: {e}");
                    return ExitCode::from(2);
                }
            };
            // rule × crate burndown table.
            let mut by: BTreeMap<(String, String), usize> = BTreeMap::new();
            for (file, a) in &allows {
                let crate_name = file
                    .strip_prefix("crates/")
                    .and_then(|r| r.split('/').next())
                    .unwrap_or("(root)")
                    .to_string();
                *by.entry((a.rule.clone(), crate_name)).or_insert(0) += 1;
            }
            println!("{:<26} {:<10} {:>6}", "rule", "crate", "count");
            for ((rule, krate), n) in &by {
                println!("{rule:<26} {krate:<10} {n:>6}");
            }
            println!("total: {} allow annotation(s)", allows.len());
            ExitCode::SUCCESS
        }
        Some("check") => {
            let mut cfg = Config::default();
            let mut root = PathBuf::from(".");
            let mut json: Option<PathBuf> = None;
            let mut max_allows: Option<usize> = None;
            let mut budget_ms: Option<u128> = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--root" => root = PathBuf::from(args.next().unwrap_or_else(|| usage())),
                    "--json" => json = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
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
                    "--rule" => {
                        cfg.only_rules
                            .insert(args.next().unwrap_or_else(|| usage()));
                    }
                    _ => usage(),
                }
            }
            if !root.join("Cargo.toml").is_file() {
                eprintln!("lit-lint: {} is not a workspace root", root.display());
                return ExitCode::from(2);
            }
            let start = std::time::Instant::now();
            let report = match run_check(&root, &cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("lit-lint: {e}");
                    return ExitCode::from(2);
                }
            };
            let elapsed_ms = start.elapsed().as_millis();
            if let Some(path) = &json {
                if let Err(e) = write_output(path, &report.to_json()) {
                    eprintln!("lit-lint: cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
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

fn write_output(path: &std::path::Path, content: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, content)
}
