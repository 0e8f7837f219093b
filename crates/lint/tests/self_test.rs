//! Fixture self-tests: each rule must fire on its known-bad fixture (and
//! stay quiet on the known-good one), both through the library API and —
//! for one fixture — through a real `run_check` over an on-disk tree, the
//! same path the CLI takes. This is the negative test for the acceptance
//! criterion "non-zero exit on each bad fixture": the CLI exits non-zero
//! exactly when `Report::violation_count() > 0`.

#![forbid(unsafe_code)]

use lit_lint::rules::{BARRIER_PROTOCOL, CHECKED_CLOCK_OPS, RAW_TIME_ARITHMETIC};
use lit_lint::{check_source, run_check, Config};

const RAW_TIME: &str = include_str!("fixtures/raw_time_arithmetic.rs");
const CHECKED: &str = include_str!("fixtures/checked_clock_ops.rs");
const BARRIER: &str = include_str!("fixtures/barrier_protocol.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");

/// Unsuppressed findings of `rule` when `src` pretends to live at `rel`.
fn violations(rel: &str, src: &str, rule: &str) -> usize {
    check_source(rel, src, &Config::default())
        .iter()
        .filter(|f| !f.allowed() && f.rule == rule)
        .count()
}

#[test]
fn raw_time_fixture_fires() {
    // Five distinct patterns: bare `as_ps` math, right-operand math, a
    // narrowing cast in a constructor, arithmetic in a constructor, and a
    // float conversion. Presented as ordinary production source.
    let n = violations("crates/net/src/spec.rs", RAW_TIME, RAW_TIME_ARITHMETIC);
    assert!(n >= 5, "want >= 5 raw-time findings, got {n}");
}

#[test]
fn raw_time_fixture_is_silent_in_exempt_crates() {
    // The same file inside the float-by-design analysis crate is legal.
    assert_eq!(
        violations("crates/analysis/src/md1.rs", RAW_TIME, RAW_TIME_ARITHMETIC),
        0
    );
}

#[test]
fn checked_clock_fixture_fires() {
    let n = violations("crates/net/src/oracle.rs", CHECKED, CHECKED_CLOCK_OPS);
    assert!(n >= 3, "want >= 3 checked-clock findings, got {n}");
}

#[test]
fn barrier_fixture_reconstructs_the_pr7_deadlock() {
    // The fixture is the pre-fix PR-7 worker loop (plus two synthetic
    // phase violations). The headline finding is the abort.load in the
    // break condition between barrier A and barrier B — the exact race
    // loom caught after the fact.
    let cfg = Config::default();
    let fs = check_source("crates/net/src/shard.rs", BARRIER, &cfg);
    let barrier: Vec<_> = fs
        .iter()
        .filter(|f| !f.allowed() && f.rule == BARRIER_PROTOCOL)
        .collect();
    assert!(
        barrier.len() >= 3,
        "want >= 3 barrier findings (abort-in-phase-1, early drain, conditional wait), got {barrier:?}"
    );
    assert!(
        barrier.iter().any(|f| f.message.contains("PR-7")),
        "the abort-race finding must fire: {barrier:?}"
    );
    // The same file under any other path is out of the rule's scope.
    assert_eq!(
        violations("crates/net/src/mailbox.rs", BARRIER, BARRIER_PROTOCOL),
        0
    );
}

#[test]
fn the_real_shard_worker_loop_passes() {
    // The committed post-fix shard.rs must be protocol-clean: the rule
    // exists to keep it that way.
    let src = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../net/src/shard.rs"))
        .expect("read crates/net/src/shard.rs");
    assert_eq!(
        violations("crates/net/src/shard.rs", &src, BARRIER_PROTOCOL),
        0,
        "the fixed worker loop must satisfy the window protocol"
    );
}

#[test]
fn clean_fixture_is_clean_even_on_a_hot_path() {
    let fs = check_source("crates/sim/src/queue.rs", CLEAN, &Config::default());
    let bad: Vec<_> = fs.iter().filter(|f| !f.allowed()).collect();
    assert!(bad.is_empty(), "clean fixture produced {bad:?}");
}

/// End-to-end negative test over a real directory tree, one injection
/// per rule: drop each known-bad fixture into a scratch workspace at a
/// path where its rule applies, run the same `run_check` the CLI calls,
/// and require that rule among the violations (⇒ CLI exit 1). Removing
/// the injection must bring the tree back to zero.
#[test]
fn injected_violation_fails_a_workspace_scan() {
    let root = std::env::temp_dir().join(format!("lit-lint-selftest-{}", std::process::id()));
    let stale_allow_src = "#![forbid(unsafe_code)]\n\
         //! doc\n\
         // lit-lint: allow(checked-clock-ops, \"nothing here wraps — the allow is dead\")\n\
         pub fn fine() -> u64 { 7 }\n";
    // (relative injection path, fixture source, rule that must fire)
    let injections: [(&str, &str, &str); 4] = [
        ("crates/sim/src/bad_time.rs", RAW_TIME, RAW_TIME_ARITHMETIC),
        ("crates/sim/src/bad_clock.rs", CHECKED, CHECKED_CLOCK_OPS),
        ("crates/net/src/shard.rs", BARRIER, BARRIER_PROTOCOL),
        (
            "crates/sim/src/dead_allow.rs",
            stale_allow_src,
            lit_lint::rules::STALE_ALLOW,
        ),
    ];

    for (rel, fixture, rule) in injections {
        std::fs::remove_dir_all(&root).ok();
        let src = root.join("crates/sim/src");
        std::fs::create_dir_all(&src).expect("mkdir scratch workspace");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
        std::fs::write(src.join("lib.rs"), "#![forbid(unsafe_code)]\n//! doc\n")
            .expect("write clean root");

        let bad = root.join(rel);
        std::fs::create_dir_all(bad.parent().expect("fixture path has a parent"))
            .expect("mkdir injection dir");
        std::fs::write(&bad, fixture).expect("inject bad fixture");

        let cfg = Config::default();
        let report = run_check(&root, &cfg).expect("scan scratch workspace");
        let hits = report
            .findings
            .iter()
            .filter(|f| !f.allowed() && f.rule == rule)
            .count();
        assert!(
            hits >= 1,
            "injected {rel} must trip `{rule}`; report had {} violation(s): {:?}",
            report.violation_count(),
            report
                .findings
                .iter()
                .filter(|f| !f.allowed())
                .collect::<Vec<_>>()
        );

        std::fs::remove_file(&bad).expect("remove injected fixture");
        let report = run_check(&root, &cfg).expect("re-scan scratch workspace");
        assert_eq!(
            report.violation_count(),
            0,
            "clean tree must pass after removing {rel}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}
