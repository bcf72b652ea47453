//! Runs the paper's experiments and writes each report to
//! `results/<name>.{txt,json}`:
//!
//! ```text
//! experiments <name>...|all [--quick]
//! ```
//!
//! `--quick` selects each experiment's small configuration. Exit status:
//! 1 on a usage error or if any experiment fails to run or save,
//! otherwise 2 if any result contradicts the paper, otherwise 0. The
//! table of experiments is `sleepy_harness::experiments::EXPERIMENTS`.

#![forbid(unsafe_code)]

use sleepy_fleet::errln;
use sleepy_harness::experiments::{run_all, Experiment, EXPERIMENTS};
use sleepy_harness::output::default_results_dir;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--quick");
    let all = names.iter().any(|n| n == "all");
    let unknown: Vec<&String> =
        names.iter().filter(|n| *n != "all" && !EXPERIMENTS.iter().any(|e| e.name == *n)).collect();
    if names.is_empty() || !unknown.is_empty() {
        for name in unknown {
            errln!("experiments: unknown experiment `{name}`");
        }
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        errln!("usage: experiments <name>...|all [--quick]");
        errln!("names: {} all", valid.join(" "));
        return ExitCode::FAILURE;
    }
    let selected: Vec<Experiment> =
        EXPERIMENTS.iter().filter(|e| all || names.iter().any(|n| n == e.name)).copied().collect();
    ExitCode::from(run_all(&selected, !flags.is_empty(), &default_results_dir()))
}
