//! # lit-lint — workspace static analysis for the clock contract
//!
//! A dependency-free, *syntax-aware* static-analysis pass over the whole
//! workspace, run as `cargo run -p lit-lint -- check`. It holds only the
//! rules that need to know what a `Time` is (or what the shard window
//! protocol is); everything the compiler can see — panicking calls and
//! indexing in the hot-path files, randomly-ordered containers — is
//! clippy's job (`#![deny(clippy::…)]` file headers, an `expect`
//! attribute with its `reason` at each justified site, and the root
//! `clippy.toml`). Four rules:
//!
//! * [`rules::RAW_TIME_ARITHMETIC`] — no raw `u64`/`f64` arithmetic,
//!   narrowing casts, or float literals flowing into `Time`/`Duration`;
//! * [`rules::CHECKED_CLOCK_OPS`] — `wrapping_*`/`overflowing_*`/
//!   `saturating_*` in a statement touching clock-carrying values must
//!   be justified;
//! * [`rules::BARRIER_PROTOCOL`] — a per-loop state machine over the
//!   sharded executor's window protocol (publish → barrier A → send →
//!   barrier B → drain), pinning the PR-7 abort-race class;
//! * [`rules::STALE_ALLOW`] — an allow annotation that suppresses
//!   nothing is itself a violation, so the allow list can only shrink.
//!
//! Escape hatch: `// lit-lint: allow(<rule>, "<justification>")` on (or
//! directly above) the offending line. Justifications are mandatory and
//! non-empty; stale or malformed annotations are themselves violations.
//!
//! The engine is a hand-rolled lexer ([`lexer`]), a recursive-descent
//! parser producing a lightweight item/statement/expression tree with
//! spans ([`parser`], [`ast`]), and intra-function control-flow regions
//! ([`mod@cfg`]) — the build container is fully offline, so `syn` is not
//! available. The parser never rejects: anything it cannot shape
//! degrades to leaf spans, and a round-trip property test pins
//! lex → parse → span-reassembly ≡ source over every workspace file.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ast;
pub mod cfg;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod source;

use diag::{Finding, Report};
use source::SourceFile;
use std::path::{Path, PathBuf};

/// What to scan and how rules map onto the tree. Paths are
/// workspace-relative and `/`-separated.
pub struct Config {
    /// Path prefixes exempt from the clock rules (`raw-time-arithmetic`,
    /// `checked-clock-ops`): the definitions themselves and the
    /// float-by-design analysis crate.
    pub time_exempt: Vec<String>,
    /// Path prefixes never scanned at all (fixtures of known-bad code).
    pub skip: Vec<String>,
    /// Files subject to the barrier-protocol window state machine.
    pub barrier_files: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            time_exempt: ["crates/analysis/", "crates/sim/src/time.rs", "crates/lint/"]
                .map(String::from)
                .to_vec(),
            skip: ["crates/lint/tests/fixtures/"].map(String::from).to_vec(),
            barrier_files: ["crates/net/src/shard.rs"].map(String::from).to_vec(),
        }
    }
}

impl Config {
    /// Is `rel` exempt from the clock rules?
    pub fn is_time_exempt(&self, rel: &str) -> bool {
        self.time_exempt.iter().any(|p| rel.starts_with(p))
    }

    /// Is `rel` subject to the barrier-protocol state machine?
    pub fn is_barrier_file(&self, rel: &str) -> bool {
        self.barrier_files.iter().any(|p| p == rel)
    }

    /// Production source: anything under a `src/` directory (unit-test
    /// modules inside are masked separately). Integration tests, benches,
    /// and examples are exempt from the clock rules.
    pub fn is_production_src(&self, rel: &str) -> bool {
        rel.starts_with("src/") || rel.contains("/src/")
    }
}

/// Collect every `.rs` file under `root` that the pass should look at,
/// as sorted workspace-relative paths.
pub fn workspace_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let top = ["src", "crates", "tests", "examples", "benches"];
    for t in top {
        let dir = root.join(t);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    let mut rels: Vec<PathBuf> = out
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(PathBuf::from))
        .filter(|p| {
            let rel = rel_str(p);
            !cfg.skip.iter().any(|s| rel.starts_with(s))
        })
        .collect();
    rels.sort();
    Ok(rels)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A path as a `/`-separated string (stable across platforms for reports).
pub fn rel_str(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run every rule over one in-memory file and resolve allow
/// annotations. Exposed for the fixture self-tests.
pub fn check_source(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    check_source_counted(rel, src, cfg).0
}

/// Like [`check_source`], also returning the number of allow annotations
/// the file carries (fed into [`diag::Report::allows_total`]).
pub fn check_source_counted(rel: &str, src: &str, cfg: &Config) -> (Vec<Finding>, usize) {
    let file = SourceFile::new(rel, src);
    let mut findings: Vec<Finding> = Vec::new();
    findings.extend(file.allow_errors.iter().cloned());
    for rule in rules::all() {
        findings.extend((rule.check)(&file, cfg));
    }
    resolve_allows(&file, &mut findings);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    (findings, file.allows.len())
}

/// Match findings against the file's allow annotations: a finding on an
/// annotation's target line with the annotation's rule is suppressed (its
/// justification recorded); an annotation that suppresses nothing becomes
/// a `stale-allow` violation — whatever rule it names, so an annotation
/// for a rule that no longer exists cannot survive either.
fn resolve_allows(file: &SourceFile, findings: &mut Vec<Finding>) {
    let mut used = vec![false; file.allows.len()];
    for f in findings.iter_mut() {
        for (k, a) in file.allows.iter().enumerate() {
            if a.rule == f.rule && a.target == f.line {
                f.justification = Some(a.justification.clone());
                used[k] = true;
                break;
            }
        }
    }
    for (k, a) in file.allows.iter().enumerate() {
        if !used[k] {
            findings.push(Finding {
                rule: rules::STALE_ALLOW,
                file: file.rel.clone(),
                line: a.line,
                col: 1,
                message: format!(
                    "allow({}, …) suppresses nothing on line {}; remove it so the allow \
                     list only shrinks",
                    a.rule, a.target
                ),
                snippet: file.snippet(a.line),
                justification: None,
            });
        }
    }
}

/// Run the whole pass over the workspace rooted at `root`.
pub fn run_check(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let mut report = Report::default();
    let files = workspace_files(root, cfg)?;
    report.files_scanned = files.len();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let (findings, n_allows) = check_source_counted(&rel_str(&rel), &src, cfg);
        report.findings.extend(findings);
        report.allows_total += n_allows;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_suppresses_and_unused_allow_fires() {
        let cfg = Config::default();
        let src = "#![forbid(unsafe_code)]\n\
                   fn f(t: Time) -> u64 {\n\
                       // lit-lint: allow(raw-time-arithmetic, \"documented widening\")\n\
                       t.as_ps() * 2\n\
                   }\n\
                   // lit-lint: allow(raw-time-arithmetic, \"nothing here\")\n\
                   fn g() {}\n";
        let fs = check_source("crates/net/src/spec.rs", src, &cfg);
        let raw: Vec<_> = fs
            .iter()
            .filter(|f| f.rule == rules::RAW_TIME_ARITHMETIC)
            .collect();
        assert_eq!(raw.len(), 1);
        assert!(raw[0].allowed());
        assert_eq!(raw[0].justification.as_deref(), Some("documented widening"));
        assert_eq!(fs.iter().filter(|f| f.rule == "stale-allow").count(), 1);

        // An annotation naming a rule that has left the rule set (the
        // two that moved to clippy) suppresses nothing, so it is stale:
        // an orphaned comment cannot survive a scan.
        for gone in ["no-panic-hot-path", "nondeterministic-iteration"] {
            let src = format!(
                "#![forbid(unsafe_code)]\n\
                 fn f(v: &[u8], i: usize) -> u8 {{\n\
                     // lit-lint: allow({gone}, \"i < v.len() by construction\")\n\
                     v[i]\n\
                 }}\n"
            );
            let fs = check_source("crates/net/src/node.rs", &src, &cfg);
            assert_eq!(fs.len(), 1, "{fs:?}");
            assert_eq!(fs[0].rule, rules::STALE_ALLOW);
            assert!(!fs[0].allowed());
        }
    }

    #[test]
    fn widening_escapes_are_clean() {
        let cfg = Config::default();
        let src = "#![forbid(unsafe_code)]\n\
                   fn f(a: Time, b: Time) -> i128 {\n\
                       a.as_ps() as i128 - b.as_ps() as i128\n\
                   }\n\
                   fn g(d: Duration) -> f64 { d.as_ps() as f64 }\n";
        let fs = check_source("crates/core/src/bounds.rs", src, &cfg);
        assert!(
            fs.iter().all(|f| f.rule != rules::RAW_TIME_ARITHMETIC),
            "{fs:?}"
        );
    }

    #[test]
    fn test_code_is_exempt_from_clock_rules() {
        let cfg = Config::default();
        let src = "#![forbid(unsafe_code)]\n\
                   #[cfg(test)]\nmod tests {\n\
                       fn t(x: Duration) -> u64 { x.as_ps() * 3 }\n\
                   }\n";
        let fs = check_source("crates/net/src/spec.rs", src, &cfg);
        assert!(fs.is_empty(), "{fs:?}");
    }
}
