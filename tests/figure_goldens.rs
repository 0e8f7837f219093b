//! The reproduction itself, in tier-1: `lit-repro --quick --threads 2 all`
//! run in process must write exactly the committed tables under
//! `tests/golden/figures/`, compared as CI's repro-smoke job compares
//! them. `ablation_queue.csv` is compared on its first five columns: its
//! last, `wall_s`, is wall-clock time.

use lit_repro::collect::Collector;
use lit_repro::commands::{run_command, Outputs};
use lit_repro::experiments::RunConfig;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The file names in `dir`.
fn names(dir: &Path) -> BTreeSet<String> {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    entries
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

/// `text` with each line cut to its first five comma-separated fields.
fn first_five_columns(text: &str) -> String {
    let cut = |line: &str| line.split(',').take(5).collect::<Vec<_>>().join(",");
    text.lines().map(cut).collect::<Vec<_>>().join("\n")
}

#[test]
fn quick_figures_match_the_goldens() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figures");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figure_goldens");
    let _ = fs::remove_dir_all(&out);
    let collector = Collector::default();
    let cfg = RunConfig {
        threads: Some(2),
        ..RunConfig::quick(&collector)
    };
    let outputs = Outputs::new(out.clone());
    assert!(run_command("all", &cfg, &outputs));
    assert!(!outputs.failed(), "a table could not be written");

    assert_eq!(names(&golden), names(&out), "the set of tables differs");
    for name in names(&golden) {
        let read = |dir: &Path| fs::read_to_string(dir.join(&name)).expect("table reads");
        let (want, got) = (read(&golden), read(&out));
        if name == "ablation_queue.csv" {
            assert_eq!(
                first_five_columns(&want),
                first_five_columns(&got),
                "{name}"
            );
        } else {
            assert!(want == got, "{name} differs from its golden");
        }
    }
}
