//! The figure and table commands of the `lit-repro` binary, as a library:
//! `main` parses the flags and dispatches here, and the figure-golden
//! test runs `all` in process.

use crate::experiments::{
    ablation, fig14_17, fig7, fig8, fig9_11, firewall, heavytail, tables, RunConfig,
};
use crate::report::Table;
use lit_sim::Duration;
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Where output files go and whether every one of them got there. A
/// failed write is reported as `path: os error` when it happens, the run
/// carries on, and the exit status is 1 once it has finished.
pub struct Outputs {
    /// `--out DIR`: the directory the CSV tables land in.
    dir: PathBuf,
    failed: Cell<bool>,
}

impl Outputs {
    /// Outputs landing in `dir`, none failed yet.
    pub fn new(dir: PathBuf) -> Self {
        Outputs {
            dir,
            failed: Cell::new(false),
        }
    }

    /// Whether any write failed.
    pub fn failed(&self) -> bool {
        self.failed.get()
    }

    /// Take the outcome of writing `path`; `true` if the file is there.
    pub fn wrote(&self, path: &Path, outcome: std::io::Result<()>) -> bool {
        if let Err(e) = &outcome {
            eprintln!("lit-repro: {}: {e}", path.display());
            self.failed.set(true);
        }
        outcome.is_ok()
    }
}

/// Write `body` to `path`, creating the directory above it first.
pub fn write_file(path: &Path, body: &str) -> std::io::Result<()> {
    path.parent().map_or(Ok(()), std::fs::create_dir_all)?;
    std::fs::write(path, body)
}

/// Print table `t` and write it as `name.csv` under the output directory.
pub fn emit(out: &Outputs, name: &str, t: &Table) {
    print!("{}", t.render());
    println!();
    let csv = out.dir.join(format!("{name}.csv"));
    if out.wrote(&csv, t.write_csv(&out.dir, name)) {
        println!("[csv] {}", csv.display());
    }
    println!();
}

/// Run the figure or table command `cmd` (every one but `scenario`),
/// printing and writing what it produces; `false` for an unknown name.
pub fn run_command(cmd: &str, cfg: &RunConfig, out: &Outputs) -> bool {
    match cmd {
        "fig7" => {
            let points = fig7::run(cfg);
            emit(out, "fig7", &fig7::table(&points));
        }
        "fig8" | "fig12" | "fig13" => {
            let r = fig8::run(cfg);
            match cmd {
                "fig8" => {
                    emit(out, "fig8_summary", &fig8::table(&r));
                    emit(out, "fig8_pdf", &fig8::pdf_table(&r));
                }
                "fig12" => emit(out, "fig12_buffer_nojc", &fig8::buffer_table(&r, false)),
                _ => emit(out, "fig13_buffer_jc", &fig8::buffer_table(&r, true)),
            }
        }
        "fig9" | "fig10" | "fig11" => {
            let variant = match cmd {
                "fig9" => fig9_11::Variant::Fig9,
                "fig10" => fig9_11::Variant::Fig10,
                _ => fig9_11::Variant::Fig11,
            };
            let r = fig9_11::run(cfg, variant);
            emit(out, cmd, &fig9_11::table(&r));
            if let (Some(ana), Some(emp)) =
                (r.analytic_percentile(1e-4), r.empirical_percentile(1e-4))
            {
                println!(
                    "0.01% tail: analytic bound {:.1} ms, observed {:.1} ms",
                    ana.as_millis_f64(),
                    emp.as_millis_f64()
                );
            }
        }
        "fig14-17" | "fig14" | "fig15" | "fig16" | "fig17" => {
            let points = fig14_17::run(cfg);
            emit(out, "fig14_17", &fig14_17::table(&points));
        }
        "tables" => {
            emit(
                out,
                "table_admission_examples",
                &tables::admission_examples(),
            );
            emit(out, "table_pgps_equivalence", &tables::pgps_equivalence(10));
            emit(out, "table_stop_and_go", &tables::stop_and_go_table());
            emit(
                out,
                "table_virtualclock_bounds",
                &tables::virtualclock_bounds(10),
            );
        }
        "firewall" => {
            let rows = firewall::run(cfg);
            emit(out, "firewall", &firewall::table(&rows));
        }
        "fig14-17-ac1" => {
            let t = fig14_17::procedure_comparison(cfg, Duration::from_ms(88));
            emit(out, "fig14_17_ac1_vs_ac2", &t);
        }
        "ablation-queue" => {
            let rows = ablation::run(cfg);
            emit(out, "ablation_queue", &ablation::table(&rows));
        }
        "heavytail" => {
            let r = heavytail::run(cfg);
            emit(out, "heavytail", &heavytail::table(&r));
        }
        "all" => {
            for c in [
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "fig13",
                "fig14-17",
                "fig14-17-ac1",
                "tables",
                "firewall",
                "ablation-queue",
                "heavytail",
            ] {
                println!("==> {c}");
                run_command(c, cfg, out);
            }
        }
        _ => return false,
    }
    true
}
