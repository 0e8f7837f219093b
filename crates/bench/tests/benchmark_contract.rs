//! The benchmark's contract, held in tier-1: the built `lit-bench` runs
//! the three scenario-file workloads of the root `BENCHMARK.json` with no
//! failed operation, reports every end-to-end metric that file declares,
//! and simulates exactly what it simulated when the digests below were
//! pinned — so a PR that claims "same bytes" proves it by `cargo test`.
//!
//! `sessions_100k` and `ac3_storm` take most of a debug-profile
//! `all --quick` and run in the CI `bench` job instead.

#![forbid(unsafe_code)]

use lit_obs::json::Value;
use std::process::{Command, Stdio};

/// `sim_digest` of `run <workload> --quick` at each workload's own seed.
const PINNED: [(&str, &str); 3] = [
    ("cross_paper", "553c7c4e9e5f44c6"),
    ("tandem_jc", "9b54451bcaed1a93"),
    ("tandem_il", "423fb5b6df8a5c75"),
];

fn names(decl: &Value, list: &str) -> Vec<String> {
    decl.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` array"))
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Value::as_str);
            name.unwrap_or_else(|| panic!("unnamed `{list}` entry"))
                .to_string()
        })
        .collect()
}

#[test]
fn quick_runs_keep_the_declared_metrics_and_the_pinned_digests() {
    let decl =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
            .expect("read BENCHMARK.json");
    let decl = Value::parse(&decl).expect("parse BENCHMARK.json");
    let workloads = names(&decl, "workloads");
    let end_to_end = names(&decl, "end_to_end");
    assert!(!end_to_end.is_empty());

    // One child per workload, as `lit-bench all` does — side by side here,
    // since nothing below reads a timing.
    let children = PINNED.map(|(workload, _)| {
        assert!(
            workloads.iter().any(|w| w == workload),
            "{workload} is not declared in BENCHMARK.json"
        );
        Command::new(env!("CARGO_BIN_EXE_lit-bench"))
            .args(["run", workload, "--quick", "--json"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn lit-bench")
    });
    for (child, (workload, digest)) in children.into_iter().zip(PINNED) {
        let out = child.wait_with_output().expect("wait for lit-bench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{workload}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let row = Value::parse(&stdout).unwrap_or_else(|e| panic!("{workload}: {e}: {stdout}"));
        assert_eq!(
            row.get("failed_ops").and_then(Value::as_f64),
            Some(0.0),
            "{workload}: {stdout}"
        );
        assert_eq!(
            row.get("sim_digest").and_then(Value::as_str),
            Some(digest),
            "{workload} no longer simulates what the pinned digest saw"
        );
        for metric in &end_to_end {
            let value = row
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{workload}: end-to-end metric {metric} missing: {stdout}"
            );
        }
    }
}
