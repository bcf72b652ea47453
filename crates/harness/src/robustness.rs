//! **Experiment RB — robustness under message loss (beyond the paper).**
//!
//! The paper's model is perfectly reliable: a message sent to an awake
//! neighbor always arrives. Real duty-cycled radios lose packets. This
//! experiment injects i.i.d. per-message loss into the engine and measures
//! how gracefully each algorithm's *output quality* degrades:
//!
//! * the sleeping algorithms depend on one-shot announcements at
//!   rigidly scheduled rounds (a lost `Status(In)` directly yields an
//!   independence violation),
//! * Luby-B re-draws priorities every phase, so a lost message usually
//!   only delays a node — but a lost `Join` can still produce adjacent
//!   MIS pairs,
//! * Greedy-CRT's fixed ranks mean a lost `Removed` can block a node
//!   behind a stale higher-ranked neighbor until it is freed by later
//!   eliminations (or, in Algorithm 2's bounded base case, a timeout).
//!
//! None of these algorithms were designed for lossy links; the point of
//! the experiment is to quantify the reliability assumption's weight, not
//! to rank the algorithms.

use crate::error::HarnessError;
use crate::workloads::Workload;
use serde::{Deserialize, Serialize};
use sleepy_baselines::{run_baseline, BaselineKind};
use sleepy_fleet::deterministic_map;
use sleepy_graph::GraphFamily;
use sleepy_mis::{run_sleeping_mis, MisConfig};
use sleepy_net::{EngineConfig, FaultPlan};
use sleepy_stats::TextTable;
use sleepy_verify::{verify_mis, MisViolation};

/// Configuration of the robustness experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessConfig {
    /// Graph family.
    pub family: GraphFamily,
    /// Node count.
    pub n: usize,
    /// Loss probabilities to sweep.
    pub loss_probabilities: Vec<f64>,
    /// Trials per setting.
    pub trials: usize,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            family: GraphFamily::GnpAvgDeg(8.0),
            n: 512,
            loss_probabilities: vec![0.0, 0.001, 0.01, 0.05, 0.1],
            trials: 10,
            base_seed: 0x10_55,
        }
    }
}

/// Outcome quality of one (algorithm, loss rate) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessCell {
    /// Algorithm label.
    pub algo: String,
    /// Injected per-message loss probability.
    pub loss: f64,
    /// Fraction of trials whose output was still a valid MIS.
    pub valid_fraction: f64,
    /// Mean independence violations (adjacent in-MIS pairs) per trial.
    pub mean_independence_violations: f64,
    /// Mean undominated nodes per trial.
    pub mean_maximality_violations: f64,
    /// Fraction of trials that completed (no engine error / round-cap hit).
    pub completed_fraction: f64,
}

/// Results of experiment RB.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// The configuration used.
    pub config: RobustnessConfig,
    /// One cell per (algorithm, loss probability).
    pub cells: Vec<RobustnessCell>,
}

/// Counts both kinds of violations exhaustively (not just the first).
fn count_violations(g: &sleepy_graph::Graph, in_mis: &[bool]) -> (usize, usize) {
    let indep = g.edges().filter(|&(u, v)| in_mis[u as usize] && in_mis[v as usize]).count();
    let maximal = g
        .node_ids()
        .filter(|&v| !in_mis[v as usize] && !g.neighbors(v).iter().any(|&u| in_mis[u as usize]))
        .count();
    (indep, maximal)
}

const ROBUSTNESS_ALGOS: [&str; 4] = ["SleepingMIS", "Fast-SleepingMIS", "Luby-B", "Greedy-CRT"];

/// Runs experiment RB.
///
/// # Errors
///
/// Propagates workload failures; engine errors under loss are *recorded*
/// (as incomplete trials), not propagated.
pub fn run_robustness(config: &RobustnessConfig) -> Result<RobustnessReport, HarnessError> {
    let workload = Workload::new(config.family, config.n);
    let mut cells = Vec::new();
    for &loss in &config.loss_probabilities {
        for algo in ROBUSTNESS_ALGOS {
            let seeds: Vec<u64> =
                (0..config.trials as u64).map(|t| config.base_seed + 577 * t).collect();
            let trials = deterministic_map(seeds.len(), 0, |i| -> Result<_, HarnessError> {
                let seed = seeds[i];
                let g = workload.instance(seed)?;
                // The sleeping algorithms always finish within their padded
                // schedule, loss or not; only the baselines can stall under
                // loss, so only they get a (generous) round cap.
                let max_rounds = if algo.contains("Sleeping") {
                    EngineConfig::default().max_rounds
                } else {
                    200_000 + 100 * config.n as u64
                };
                let fault = if loss > 0.0 {
                    FaultPlan::Iid { probability: loss, seed: seed ^ 0xF00D }
                } else {
                    FaultPlan::None
                };
                let ec = EngineConfig { max_rounds, fault, ..EngineConfig::default() };
                let in_mis = match algo {
                    "SleepingMIS" => {
                        run_sleeping_mis(&g, MisConfig::alg1(seed), &ec).map(|r| r.in_mis)
                    }
                    "Fast-SleepingMIS" => {
                        run_sleeping_mis(&g, MisConfig::alg2(seed), &ec).map(|r| r.in_mis)
                    }
                    "Luby-B" => run_baseline(&g, BaselineKind::LubyB, seed, &ec)
                        .map(|r| r.in_mis)
                        .map_err(sleepy_mis::MisError::Engine),
                    _ => run_baseline(&g, BaselineKind::GreedyCrt, seed, &ec)
                        .map(|r| r.in_mis)
                        .map_err(sleepy_mis::MisError::Engine),
                };
                Ok(match in_mis {
                    Ok(in_mis) => {
                        let valid = verify_mis(&g, &in_mis).is_ok();
                        let _ = MisViolation::NotMaximal { node: 0 }; // doc anchor
                        let (iv, mv) = count_violations(&g, &in_mis);
                        Some((valid, iv, mv))
                    }
                    Err(_) => None, // engine error (e.g. cap) = incomplete
                })
            })?;
            let completed: Vec<_> = trials.iter().flatten().collect();
            let denom = completed.len().max(1) as f64;
            cells.push(RobustnessCell {
                algo: algo.to_string(),
                loss,
                valid_fraction: completed.iter().filter(|t| t.0).count() as f64 / denom,
                mean_independence_violations: completed.iter().map(|t| t.1 as f64).sum::<f64>()
                    / denom,
                mean_maximality_violations: completed.iter().map(|t| t.2 as f64).sum::<f64>()
                    / denom,
                completed_fraction: completed.len() as f64 / trials.len() as f64,
            });
        }
    }
    Ok(RobustnessReport { config: config.clone(), cells })
}

impl RobustnessReport {
    /// Renders the degradation table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== Experiment RB — robustness under message loss (n = {}, {} trials/cell) ==\n\n",
            self.config.n, self.config.trials
        ));
        let mut t = TextTable::new(vec![
            "algorithm",
            "loss",
            "valid",
            "indep violations",
            "undominated",
            "completed",
        ]);
        for c in &self.cells {
            t.row(vec![
                c.algo.clone(),
                format!("{:.3}", c.loss),
                format!("{:.0}%", 100.0 * c.valid_fraction),
                format!("{:.2}", c.mean_independence_violations),
                format!("{:.2}", c.mean_maximality_violations),
                format!("{:.0}%", 100.0 * c.completed_fraction),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(
            "\nAll algorithms assume reliable links; this quantifies how heavily the \
             paper's model leans on that (beyond-the-paper experiment).\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robustness_runs_small() {
        let cfg = RobustnessConfig {
            family: GraphFamily::GnpAvgDeg(6.0),
            n: 96,
            loss_probabilities: vec![0.0, 0.05],
            trials: 4,
            base_seed: 7,
        };
        let r = run_robustness(&cfg).unwrap();
        assert_eq!(r.cells.len(), 2 * 4);
        // Loss-free cells are perfect.
        for c in r.cells.iter().filter(|c| c.loss == 0.0) {
            assert_eq!(c.valid_fraction, 1.0, "{} should be valid at loss 0", c.algo);
            assert_eq!(c.completed_fraction, 1.0);
        }
        // At 5% loss at least one algorithm shows degradation (violations
        // or incompleteness) — message loss is not free.
        let degraded = r.cells.iter().filter(|c| c.loss > 0.0).any(|c| {
            c.valid_fraction < 1.0
                || c.mean_independence_violations > 0.0
                || c.completed_fraction < 1.0
        });
        assert!(degraded, "5% loss should visibly degrade someone");
        assert!(r.render().contains("message loss"));
    }
}
