//! `lit-repro` command-line behaviour, driven through the built binary:
//! `--ac3` / `--ladder` are usage errors wherever they would be ignored,
//! `--ac3 scenario FILE` prints one verdict per session and a tally,
//! `--regulator` reaches the figure commands but refuses `interleaved`
//! wherever a baseline discipline would run, and an output file that
//! cannot be written fails the run.

#![forbid(unsafe_code)]

use std::process::{Command, Output};

const MISBEHAVER: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/misbehaver.scn"
);

fn lit_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lit-repro"))
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .args(args)
        .output()
        .expect("spawn lit-repro")
}

/// Exit 2, nothing on stdout, and exactly one stderr line naming `what`.
fn assert_usage_error(args: &[&str], what: &str) {
    let out = lit_repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(what), "{args:?}: {stderr}");
}

#[test]
fn ac3_outside_scenario_is_a_usage_error() {
    assert_usage_error(&["--ac3", "tables"], "--ac3 applies only to");
}

#[test]
fn ladder_outside_scenario_is_a_usage_error() {
    assert_usage_error(
        &["--ladder", "0.5,0.8", "tables"],
        "--ladder applies only to",
    );
}

#[test]
fn ac3_with_ladder_is_a_usage_error() {
    assert_usage_error(
        &["--ac3", "--ladder", "0.5,0.8", "scenario", MISBEHAVER],
        "cannot be combined",
    );
}

#[test]
fn ac3_takes_no_value() {
    // The former `--ac3 exact|fast`: the word now parses as the command.
    assert_usage_error(&["--ac3", "exact", "scenario", MISBEHAVER], "got `exact`");
}

#[test]
fn ac3_scenario_prints_a_verdict_per_session_then_the_tally() {
    let out = lit_repro(&["--ac3", "scenario", MISBEHAVER]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ac3: Vec<&str> = stdout.lines().filter(|l| l.starts_with("ac3:")).collect();
    assert_eq!(
        ac3,
        [
            "ac3: session 0 admitted",
            "ac3: session 1 admitted",
            "ac3: 2/2 admitted, 0 infeasible, 0 undecided",
        ]
    );
    assert!(!String::from_utf8_lossy(&out.stderr).contains("undecided"));
}

#[test]
fn regulator_flag_reaches_the_figure_commands() {
    // fig14-17, not fig8: MIX/AC2 holds packets of several sessions per
    // node, which is where the two regulators part ways.
    let csv = |dir: &str, flags: &[&str]| {
        let dir = format!("{}/{dir}", env!("CARGO_TARGET_TMPDIR"));
        let mut args = vec!["--out", &dir, "--replicas", "1", "--seconds", "2"];
        args.extend_from_slice(flags);
        args.push("fig14-17");
        let out = lit_repro(&args);
        assert!(out.status.success(), "{out:?}");
        std::fs::read_to_string(format!("{dir}/fig14_17.csv")).expect("fig14_17.csv written")
    };
    let per_session = csv("reg_default", &[]);
    assert_eq!(
        per_session,
        csv("reg_ps", &["--regulator", "per-session"]),
        "the default is the per-session regulator"
    );
    assert_ne!(per_session, csv("reg_il", &["--regulator", "interleaved"]));
}

#[test]
fn interleaved_regulator_with_the_baselines_is_a_usage_error() {
    for command in ["firewall", "all"] {
        assert_usage_error(
            &["--regulator", "interleaved", command],
            "runs discipline lit only",
        );
    }
}

#[test]
fn interleaved_regulator_with_a_baseline_scenario_names_the_file() {
    let lit = std::fs::read_to_string(MISBEHAVER).expect("read misbehaver.scn");
    let path = format!("{}/misbehaver_fcfs.scn", env!("CARGO_TARGET_TMPDIR"));
    let fcfs = lit.replace("discipline lit", "discipline fcfs");
    std::fs::write(&path, fcfs).expect("write the fcfs scenario");
    assert_usage_error(
        &["--regulator", "interleaved", "scenario", &path],
        &format!("{path}: --regulator: the interleaved regulator runs discipline lit only"),
    );
}

/// A path below a regular file: nothing can be created there.
const UNWRITABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/nope");

/// `flag` points an output at [`UNWRITABLE`]: the run still finishes (the
/// tables print), stderr locates the failure as `path: os error`, exit 1.
fn assert_failed_write_exits_1(flag: &str, target: &str) {
    let out = lit_repro(&[flag, target, "tables"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("## "),
        "{flag}: the run did not finish"
    );
    let located = format!("lit-repro: {UNWRITABLE}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with(&located) && l.contains("os error")),
        "{flag}: {stderr}"
    );
}

#[test]
fn unwritable_out_dir_exits_1() {
    assert_failed_write_exits_1("--out", UNWRITABLE);
}

#[test]
fn unwritable_metrics_file_exits_1() {
    assert_failed_write_exits_1("--metrics", &format!("{UNWRITABLE}/m.json"));
}

#[test]
fn unwritable_trace_file_exits_1() {
    assert_failed_write_exits_1("--trace", &format!("{UNWRITABLE}/t.json"));
}
