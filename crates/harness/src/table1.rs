//! **Experiment T1 — Table 1 of the paper.**
//!
//! The paper's Table 1 compares four complexity measures across prior MIS
//! algorithms and the two sleeping algorithms:
//!
//! | measure | prior (Luby, CRT, …) | Algorithm 1 | Algorithm 2 |
//! |---------|----------------------|-------------|-------------|
//! | node-averaged awake | n/a (always awake) | O(1) | O(1) |
//! | worst-case awake    | n/a                | O(log n) | O(log n) |
//! | worst-case round    | O(log n)           | O(n³) | O(log^3.41 n) |
//! | node-averaged round | O(log n) best known | O(n³) | O(log^3.41 n) |
//!
//! This experiment *measures* all four quantities for all six implemented
//! algorithms over an n-sweep, fits growth shapes, and renders both the raw
//! sweep and a Table-1-shaped summary. For the always-awake baselines the
//! awake measures coincide with the round measures — the "not applicable"
//! entries of the paper become "equals the round complexity" here.

use crate::error::HarnessError;
use crate::measure::{aggregate_measurement, AggregateMeasurement, Execution, ALL_ALGOS};
use serde::{Deserialize, Serialize};
use sleepy_fleet::{run_plan, FleetConfig, TrialPlan};
use sleepy_graph::GraphFamily;
use sleepy_stats::{fit_power, TextTable};

/// Configuration of the Table 1 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Config {
    /// Graph family to sweep (one family per run keeps the table
    /// readable).
    pub family: GraphFamily,
    /// Node counts (powers of two keep ⌈3·log₂ n⌉ smooth).
    pub sizes: Vec<usize>,
    /// Trials per (algorithm, size).
    pub trials: usize,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            family: GraphFamily::GnpAvgDeg(8.0),
            sizes: vec![128, 256, 512, 1024, 2048, 4096],
            trials: 5,
            base_seed: 0x7AB1E1,
        }
    }
}

/// Results of the Table 1 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Report {
    /// The configuration used.
    pub config: Table1Config,
    /// One aggregate per (algorithm, size).
    pub cells: Vec<AggregateMeasurement>,
    /// Fitted n-exponents per algorithm for each of the four measures
    /// (algo, avg-awake, worst-awake, worst-round, avg-round).
    pub shape_fits: Vec<ShapeFit>,
}

/// Fitted polynomial exponents (f ≈ a·n^b) of the four measures for one
/// algorithm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShapeFit {
    /// Algorithm label.
    pub algo: String,
    /// Exponent of node-averaged awake complexity (paper: ≈ 0 for the
    /// sleeping algorithms).
    pub node_avg_awake_exp: f64,
    /// Exponent of worst-case awake complexity (paper: ≈ 0, log growth).
    pub worst_awake_exp: f64,
    /// Exponent of worst-case round complexity (paper: ≈ 3 for
    /// Algorithm 1, ≈ 0 polylog for Algorithm 2 and the baselines).
    pub worst_round_exp: f64,
    /// Exponent of node-averaged round complexity.
    pub node_avg_round_exp: f64,
}

/// Runs experiment T1.
///
/// # Errors
///
/// Propagates workload and execution failures.
pub fn run_table1(config: &Table1Config) -> Result<Table1Report, HarnessError> {
    // One declarative plan for the whole sweep: every (size, algorithm)
    // cell is a fleet job, executed together on the worker pool.
    let plan = TrialPlan::sweep(
        &[config.family],
        &config.sizes,
        &ALL_ALGOS,
        config.trials,
        config.base_seed,
        Execution::Auto,
    );
    let out = run_plan(&plan, &FleetConfig::default())?;
    let cells: Vec<AggregateMeasurement> = plan
        .jobs
        .iter()
        .zip(&out.aggregates)
        .map(|(job, agg)| aggregate_measurement(&job.workload, job.algo, agg))
        .collect();
    let mut shape_fits = Vec::new();
    for algo in ALL_ALGOS {
        let mine: Vec<&AggregateMeasurement> =
            cells.iter().filter(|c| c.algo == algo.to_string()).collect();
        if mine.len() < 2 {
            continue;
        }
        let ns: Vec<f64> = mine.iter().map(|c| c.n as f64).collect();
        let fit = |f: &dyn Fn(&AggregateMeasurement) -> f64| {
            fit_power(&ns, &mine.iter().map(|c| f(c)).collect::<Vec<_>>()).exponent
        };
        shape_fits.push(ShapeFit {
            algo: algo.to_string(),
            node_avg_awake_exp: fit(&|c| c.node_avg_awake.mean),
            worst_awake_exp: fit(&|c| c.worst_awake.mean),
            worst_round_exp: fit(&|c| c.worst_round.mean),
            node_avg_round_exp: fit(&|c| c.node_avg_round.mean),
        });
    }
    Ok(Table1Report { config: config.clone(), cells, shape_fits })
}

impl Table1Report {
    /// Renders the raw sweep and the Table-1-shaped summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== Experiment T1 (Table 1) — family {}, {} trials per cell ==\n\n",
            self.config.family, self.config.trials
        ));
        let mut sweep = TextTable::new(vec![
            "algorithm",
            "n",
            "avg awake",
            "worst awake",
            "worst round",
            "avg round",
            "valid",
        ]);
        for c in &self.cells {
            sweep.row(vec![
                c.algo.clone(),
                c.n.to_string(),
                format!("{:.2} ±{:.2}", c.node_avg_awake.mean, c.node_avg_awake.ci95_half_width()),
                format!("{:.1}", c.worst_awake.mean),
                format!("{:.0}", c.worst_round.mean),
                format!("{:.1}", c.node_avg_round.mean),
                format!("{:.0}%", 100.0 * c.valid_fraction),
            ]);
        }
        out.push_str(&sweep.render());
        out.push_str(
            "\n-- Table 1 shape summary (fitted n-exponents; paper's claims in brackets) --\n",
        );
        let mut shape = TextTable::new(vec![
            "measure",
            "Luby/CRT/Ghaffari (paper: n/a | O(log n))",
            "SleepingMIS (paper: O(1)|O(log n)|O(n^3)|O(n^3))",
            "Fast-SleepingMIS (paper: O(1)|O(log n)|O(log^3.41 n)|O(log^3.41 n))",
        ]);
        let baseline_mean = |f: &dyn Fn(&ShapeFit) -> f64| -> f64 {
            let b: Vec<f64> =
                self.shape_fits.iter().filter(|s| !s.algo.contains("Sleeping")).map(f).collect();
            b.iter().sum::<f64>() / b.len().max(1) as f64
        };
        let find = |name: &str| self.shape_fits.iter().find(|s| s.algo == name);
        type ShapeCol = Box<dyn Fn(&ShapeFit) -> f64>;
        let rows: [(&str, ShapeCol); 4] = [
            ("node-avg awake  n-exp", Box::new(|s: &ShapeFit| s.node_avg_awake_exp)),
            ("worst awake     n-exp", Box::new(|s: &ShapeFit| s.worst_awake_exp)),
            ("worst round     n-exp", Box::new(|s: &ShapeFit| s.worst_round_exp)),
            ("node-avg round  n-exp", Box::new(|s: &ShapeFit| s.node_avg_round_exp)),
        ];
        for (label, f) in &rows {
            shape.row(vec![
                label.to_string(),
                format!("{:.3}", baseline_mean(f)),
                find("SleepingMIS").map(|s| format!("{:.3}", f(s))).unwrap_or_default(),
                find("Fast-SleepingMIS").map(|s| format!("{:.3}", f(s))).unwrap_or_default(),
            ]);
        }
        out.push_str(&shape.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Table1Config {
        Table1Config {
            family: GraphFamily::GnpAvgDeg(6.0),
            sizes: vec![64, 128, 256],
            trials: 2,
            base_seed: 7,
        }
    }

    #[test]
    fn table1_runs_and_renders() {
        let report = run_table1(&small_config()).unwrap();
        assert_eq!(report.cells.len(), 3 * ALL_ALGOS.len());
        assert_eq!(report.shape_fits.len(), ALL_ALGOS.len());
        let text = report.render();
        assert!(text.contains("SleepingMIS"));
        assert!(text.contains("Luby-B"));
        assert!(text.contains("shape summary"));
    }

    #[test]
    fn sleeping_algorithms_have_flat_awake_growth() {
        // Even on a small sweep, the awake exponent of the sleeping
        // algorithms must be far below the baselines' (which grow with
        // log n, i.e. a small positive n-exponent).
        let report = run_table1(&small_config()).unwrap();
        let alg1 = report.shape_fits.iter().find(|s| s.algo == "SleepingMIS").unwrap();
        assert!(
            alg1.node_avg_awake_exp.abs() < 0.25,
            "avg awake exponent {}",
            alg1.node_avg_awake_exp
        );
        // Worst-case rounds of Algorithm 1 grow polynomially (exponent
        // near 3, with ceil-induced jitter).
        assert!(alg1.worst_round_exp > 1.8, "worst round exp {}", alg1.worst_round_exp);
    }
}
