//! The experiment table behind the `experiments` binary: one row per
//! experiment, carrying its name, its full and `--quick`
//! configurations, and its paper verdict.
//!
//! ```text
//! experiments <name>...|all [--quick]
//! ```
//!
//! Every selected experiment writes `results/<name>.{txt,json}`. The
//! run exits 1 if any experiment fails to run or to save its report,
//! otherwise 2 if any result contradicts the paper, otherwise 0.

use crate::ablation::{run_ablation, AblationConfig, AblationReport};
use crate::awake_timeline::{run_awake_timeline, AwakeTimelineConfig, AwakeTimelineReport};
use crate::churn::{run_churn, ChurnConfig, ChurnReport};
use crate::coloring::{run_coloring, ColoringConfig, ColoringReport};
use crate::corollary1::{run_corollary1, Corollary1Config, Corollary1Report};
use crate::energy::{run_energy, EnergyConfig, EnergyReport};
use crate::error::HarnessError;
use crate::figure1::{run_figure1, Figure1Report};
use crate::figure2::{run_figure2, Figure2Config, Figure2Report};
use crate::lemmas::{run_lemmas, LemmasConfig, LemmasReport};
use crate::output::save_report;
use crate::robustness::{run_robustness, RobustnessConfig, RobustnessReport};
use crate::table1::{run_table1, Table1Config, Table1Report};
use crate::theorems::{run_theorems, TheoremsConfig, TheoremsReport};
use serde::Serialize;
use sleepy_fleet::{errln, outln};
use std::path::Path;

/// A paper verdict: `Err(reason)` when a result contradicts the paper.
pub type Verdict = Result<(), String>;

/// One finished experiment.
#[derive(Debug)]
pub struct Outcome {
    /// The rendered report (`<name>.txt`).
    pub text: String,
    /// The report as JSON (`<name>.json`).
    pub json: serde_json::Value,
    /// Whether the result agrees with the paper.
    pub verdict: Verdict,
}

/// One row of [`EXPERIMENTS`].
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The command-line name and the report file stem.
    pub name: &'static str,
    /// Runs the full (`false`) or `--quick` (`true`) configuration.
    pub run: fn(quick: bool) -> Result<Outcome, HarnessError>,
}

/// The `--quick` configuration `small` when `quick`, else the default.
fn config<C: Default>(quick: bool, small: C) -> C {
    if quick {
        small
    } else {
        C::default()
    }
}

/// Packs a report with its rendering and its verdict.
fn outcome<R: Serialize>(
    report: R,
    render: fn(&R) -> String,
    verdict: fn(&R) -> Verdict,
) -> Result<Outcome, HarnessError> {
    Ok(Outcome {
        text: render(&report),
        json: serde_json::to_value(&report).expect("serializable report"),
        verdict: verdict(&report),
    })
}

/// The verdict of an experiment the paper states no pass/fail result for.
fn no_verdict<R>(_: &R) -> Verdict {
    Ok(())
}

/// Every experiment, in the order `all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        run: |quick| {
            let small =
                Table1Config { sizes: vec![128, 256, 512], trials: 3, ..Default::default() };
            outcome(run_table1(&config(quick, small))?, Table1Report::render, no_verdict)
        },
    },
    Experiment {
        name: "figure1",
        run: |_| outcome(run_figure1()?, Figure1Report::render, Figure1Report::verdict),
    },
    Experiment {
        name: "figure2",
        run: |quick| {
            let small = Figure2Config { n: 1 << 11, trials: 3, ..Default::default() };
            outcome(run_figure2(&config(quick, small))?, Figure2Report::render, no_verdict)
        },
    },
    Experiment {
        name: "lemmas",
        run: |quick| {
            let small = LemmasConfig { n: 1 << 10, trials: 4, ..Default::default() };
            outcome(run_lemmas(&config(quick, small))?, LemmasReport::render, no_verdict)
        },
    },
    Experiment {
        name: "theorems",
        run: |quick| {
            let small = TheoremsConfig {
                size_exponents: (7..=12).collect(),
                trials: 3,
                ..Default::default()
            };
            outcome(run_theorems(&config(quick, small))?, TheoremsReport::render, no_verdict)
        },
    },
    Experiment {
        name: "corollary1",
        run: |quick| {
            let small = Corollary1Config { n: 512, trials: 10, ..Default::default() };
            let report = run_corollary1(&config(quick, small))?;
            outcome(report, Corollary1Report::render, Corollary1Report::verdict)
        },
    },
    Experiment {
        name: "energy",
        run: |quick| {
            let small = EnergyConfig { sizes: vec![128, 256], trials: 2, ..Default::default() };
            outcome(run_energy(&config(quick, small))?, EnergyReport::render, no_verdict)
        },
    },
    Experiment {
        name: "ablation",
        run: |quick| {
            let small = AblationConfig {
                n: 512,
                trials: 4,
                greedy_cs: vec![0.25, 1.0, 4.0],
                ..Default::default()
            };
            outcome(run_ablation(&config(quick, small))?, AblationReport::render, no_verdict)
        },
    },
    Experiment {
        name: "coloring",
        run: |quick| {
            let small = ColoringConfig { sizes: vec![128, 512], trials: 3, ..Default::default() };
            outcome(run_coloring(&config(quick, small))?, ColoringReport::render, no_verdict)
        },
    },
    Experiment {
        name: "robustness",
        run: |quick| {
            let small = RobustnessConfig {
                n: 96,
                trials: 4,
                loss_probabilities: vec![0.0, 0.01, 0.05],
                ..Default::default()
            };
            let report = run_robustness(&config(quick, small))?;
            outcome(report, RobustnessReport::render, no_verdict)
        },
    },
    Experiment {
        name: "churn",
        run: |quick| {
            let small = ChurnConfig { n: 256, phases: 4, trials: 3, ..Default::default() };
            outcome(run_churn(&config(quick, small))?, ChurnReport::render, no_verdict)
        },
    },
    Experiment {
        name: "awake_timeline",
        run: |quick| {
            let small = AwakeTimelineConfig { n: 256, trials: 3, ..Default::default() };
            let report = run_awake_timeline(&config(quick, small))?;
            outcome(report, AwakeTimelineReport::render, no_verdict)
        },
    },
];

/// Runs `selected` in order, printing each report and saving it under
/// `dir`. Returns the process exit code: 1 if any experiment failed to
/// run or to save, otherwise 2 if any verdict failed, otherwise 0. A
/// closed stdout changes neither the files saved nor the exit code.
pub fn run_all(selected: &[Experiment], quick: bool, dir: &Path) -> u8 {
    let (mut failed, mut contradicted) = (0usize, 0usize);
    for experiment in selected {
        let name = experiment.name;
        outln!("\n################ {name} ################");
        let saved = (experiment.run)(quick).and_then(|outcome| {
            outln!("{}", outcome.text);
            save_report(dir, name, &outcome.text, &outcome.json)?;
            Ok(outcome.verdict)
        });
        match saved {
            Ok(Ok(())) => {}
            Ok(Err(reason)) => {
                errln!("{name} CONTRADICTS THE PAPER: {reason}");
                contradicted += 1;
            }
            Err(e) => {
                errln!("{name} FAILED: {e}");
                failed += 1;
            }
        }
    }
    outln!("\n################ summary ################");
    if failed > 0 {
        errln!("{failed} experiment(s) failed");
        1
    } else if contradicted > 0 {
        errln!("{contradicted} experiment(s) contradict the paper");
        2
    } else {
        outln!(
            "{} experiment(s) agree with the paper; reports in {}",
            selected.len(),
            dir.display()
        );
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(verdict: Verdict) -> Result<Outcome, HarnessError> {
        Ok(Outcome { text: "report".to_string(), json: serde_json::json!({}), verdict })
    }

    #[test]
    fn exit_code_is_1_on_any_error_else_2_on_any_failed_verdict() {
        let dir = std::env::temp_dir().join(format!("sleepy-experiments-{}", std::process::id()));
        let agrees = Experiment { name: "agrees", run: |_| report(Ok(())) };
        let contradicts =
            Experiment { name: "contradicts", run: |_| report(Err("no".to_string())) };
        let broken = Experiment {
            name: "broken",
            run: |_| Err(HarnessError::Io(std::io::Error::other("boom"))),
        };
        assert_eq!(run_all(&[agrees], false, &dir), 0);
        assert_eq!(run_all(&[agrees, contradicts], true, &dir), 2);
        assert_eq!(run_all(&[contradicts, broken, agrees], false, &dir), 1);
        // A contradicting result still writes its report; a broken one
        // writes nothing.
        assert_eq!(std::fs::read_to_string(dir.join("contradicts.txt")).unwrap(), "report");
        assert!(!dir.join("broken.txt").exists());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn names_are_distinct_and_never_all() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_ne!(e.name, "all");
            assert!(EXPERIMENTS[..i].iter().all(|f| f.name != e.name), "duplicate {}", e.name);
        }
        assert_eq!(EXPERIMENTS.len(), 12);
    }
}
