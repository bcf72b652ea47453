//! **Experiments C1 / WHP — Corollary 1 and Lemma 1.**
//!
//! * **Corollary 1**: `SleepingMISRecursive` and the parallel/distributed
//!   randomized greedy MIS produce the same MIS — both compute the
//!   lexicographically-first MIS of the random rank order. We check, per
//!   trial, that Algorithm 1's output equals the sequential greedy MIS
//!   over decreasing K-rank (Definition 1), and that Algorithm 2's output
//!   equals the sequential greedy over the composite order (K₂-rank, then
//!   base greedy rank, then id). Trials with full-rank ties or base-case
//!   timeouts are excluded and counted separately (they are exactly the
//!   Monte-Carlo failure events).
//! * **Lemma 1 / whp correctness**: the fraction of seeded runs whose
//!   output verifies as an MIS, against the n^{-1}-ish tie bound.

use crate::error::HarnessError;
use crate::experiments::Verdict;
use crate::workloads::Workload;
use serde::{Deserialize, Serialize};
use sleepy_fleet::deterministic_map;
use sleepy_graph::GraphFamily;
use sleepy_mis::{depth_alg1, depth_alg2, derive_all, execute_sleeping_mis, MisConfig};
use sleepy_stats::TextTable;
use sleepy_verify::{lexicographically_first_mis, verify_mis};

/// Configuration of the Corollary 1 / whp experiments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corollary1Config {
    /// Families to test.
    pub families: Vec<GraphFamily>,
    /// Node count per instance.
    pub n: usize,
    /// Trials per family.
    pub trials: usize,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for Corollary1Config {
    fn default() -> Self {
        Corollary1Config {
            families: vec![
                GraphFamily::GnpAvgDeg(8.0),
                GraphFamily::RandomRegular(4),
                GraphFamily::GeometricAvgDeg(8.0),
                GraphFamily::BarabasiAlbert(3),
                GraphFamily::Tree,
                GraphFamily::Cycle,
            ],
            n: 1 << 11,
            trials: 25,
            base_seed: 0xC0_0001,
        }
    }
}

/// Per-trial outcome of the equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum TrialOutcome {
    Equal,
    Different,
    SkippedTie,
    SkippedTimeout,
}

/// Per-family equivalence statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EquivalenceStats {
    /// Family label.
    pub family: String,
    /// Trials where the outputs matched exactly.
    pub equal: usize,
    /// Trials where they differed (a genuine counterexample — expected 0).
    pub different: usize,
    /// Trials skipped due to full-rank ties (Monte-Carlo events).
    pub skipped_ties: usize,
    /// Trials skipped due to Algorithm 2 base-case timeouts.
    pub skipped_timeouts: usize,
}

/// Results of experiments C1 and WHP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corollary1Report {
    /// The configuration used.
    pub config: Corollary1Config,
    /// Algorithm 1 vs sequential greedy on decreasing K-rank.
    pub alg1_equivalence: Vec<EquivalenceStats>,
    /// Algorithm 2 vs sequential greedy on the composite order.
    pub alg2_equivalence: Vec<EquivalenceStats>,
    /// Fraction of Algorithm 1 runs that verified as a valid MIS.
    pub alg1_validity_rate: f64,
    /// Fraction of Algorithm 2 runs that verified as a valid MIS.
    pub alg2_validity_rate: f64,
    /// Total runs behind the validity rates.
    pub validity_runs: usize,
}

fn check_family(
    workload: &Workload,
    config: &Corollary1Config,
    alg2: bool,
) -> Result<EquivalenceStats, HarnessError> {
    let seeds: Vec<u64> = (0..config.trials as u64).map(|t| config.base_seed + 31 * t).collect();
    let outcomes = deterministic_map(seeds.len(), 0, |i| -> Result<TrialOutcome, HarnessError> {
        let seed = seeds[i];
        let g = workload.instance(seed)?;
        let n = g.n();
        let coins = derive_all(seed, n);
        let (cfg, k) = if alg2 {
            (MisConfig::alg2(seed), depth_alg2(n))
        } else {
            (MisConfig::alg1(seed), depth_alg1(n))
        };
        // Full-rank ties break the lexicographic argument (Lemma 5's
        // failure event); skip and count them.
        let mut prefix: Vec<u128> = coins.iter().map(|c| c.rank(k)).collect();
        if !alg2 {
            prefix.sort_unstable();
            if prefix.windows(2).any(|w| w[0] == w[1]) {
                return Ok(TrialOutcome::SkippedTie);
            }
        }
        let out = execute_sleeping_mis(&g, cfg)?;
        if out.base_timeout.iter().any(|&t| t) {
            return Ok(TrialOutcome::SkippedTimeout);
        }
        let reference = if alg2 {
            // Composite order: K2-rank, then greedy rank, then id.
            let keys: Vec<(u128, u64, u32)> = (0..n as u32)
                .map(|v| (coins[v as usize].rank(k), coins[v as usize].greedy_rank, v))
                .collect();
            lexicographically_first_mis(&g, &keys)
        } else {
            let keys: Vec<u128> = (0..n).map(|v| coins[v].rank(k)).collect();
            lexicographically_first_mis(&g, &keys)
        };
        Ok(if reference == out.in_mis { TrialOutcome::Equal } else { TrialOutcome::Different })
    })?;
    Ok(EquivalenceStats {
        family: workload.family.label(),
        equal: outcomes.iter().filter(|&&o| o == TrialOutcome::Equal).count(),
        different: outcomes.iter().filter(|&&o| o == TrialOutcome::Different).count(),
        skipped_ties: outcomes.iter().filter(|&&o| o == TrialOutcome::SkippedTie).count(),
        skipped_timeouts: outcomes.iter().filter(|&&o| o == TrialOutcome::SkippedTimeout).count(),
    })
}

/// Runs experiments C1 and WHP.
///
/// # Errors
///
/// Propagates workload and execution failures.
pub fn run_corollary1(config: &Corollary1Config) -> Result<Corollary1Report, HarnessError> {
    let mut alg1_equivalence = Vec::new();
    let mut alg2_equivalence = Vec::new();
    let mut valid1 = 0usize;
    let mut valid2 = 0usize;
    let mut runs = 0usize;
    for family in &config.families {
        let workload = Workload::new(*family, config.n);
        alg1_equivalence.push(check_family(&workload, config, false)?);
        alg2_equivalence.push(check_family(&workload, config, true)?);
        // Validity (Lemma 1) over the same trials.
        let seeds: Vec<u64> =
            (0..config.trials as u64).map(|t| config.base_seed + 31 * t).collect();
        let validity =
            deterministic_map(seeds.len(), 0, |i| -> Result<(bool, bool), HarnessError> {
                let seed = seeds[i];
                let g = workload.instance(seed)?;
                let v1 = verify_mis(&g, &execute_sleeping_mis(&g, MisConfig::alg1(seed))?.in_mis)
                    .is_ok();
                let v2 = verify_mis(&g, &execute_sleeping_mis(&g, MisConfig::alg2(seed))?.in_mis)
                    .is_ok();
                Ok((v1, v2))
            })?;
        valid1 += validity.iter().filter(|(a, _)| *a).count();
        valid2 += validity.iter().filter(|(_, b)| *b).count();
        runs += validity.len();
    }
    Ok(Corollary1Report {
        config: config.clone(),
        alg1_equivalence,
        alg2_equivalence,
        alg1_validity_rate: valid1 as f64 / runs.max(1) as f64,
        alg2_validity_rate: valid2 as f64 / runs.max(1) as f64,
        validity_runs: runs,
    })
}

impl Corollary1Report {
    /// Renders the equivalence and validity tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== Experiments C1/WHP — Corollary 1 equivalence and Lemma 1 validity \
             (n = {}, {} trials/family) ==\n\n",
            self.config.n, self.config.trials
        ));
        let table = |stats: &[EquivalenceStats], title: &str| -> String {
            let mut t =
                TextTable::new(vec!["family", "equal", "different", "tie-skips", "timeout-skips"]);
            for s in stats {
                t.row(vec![
                    s.family.clone(),
                    s.equal.to_string(),
                    s.different.to_string(),
                    s.skipped_ties.to_string(),
                    s.skipped_timeouts.to_string(),
                ]);
            }
            format!("{title}\n{}\n", t.render())
        };
        out.push_str(&table(
            &self.alg1_equivalence,
            "-- Corollary 1: Algorithm 1 == sequential greedy on decreasing K-rank --",
        ));
        out.push_str(&table(
            &self.alg2_equivalence,
            "-- Algorithm 2 == sequential greedy on (K2-rank, greedy rank, id) --",
        ));
        out.push_str(&format!(
            "-- Lemma 1 (whp correctness): Algorithm 1 valid in {:.2}% and Algorithm 2 in \
             {:.2}% of {} runs --\n",
            100.0 * self.alg1_validity_rate,
            100.0 * self.alg2_validity_rate,
            self.validity_runs
        ));
        out
    }

    /// The paper verdict: no trial is a counterexample to Corollary 1.
    pub fn verdict(&self) -> Verdict {
        let counterexamples: usize =
            self.alg1_equivalence.iter().chain(&self.alg2_equivalence).map(|s| s.different).sum();
        if counterexamples == 0 {
            Ok(())
        } else {
            Err(format!("{counterexamples} counterexample(s) to Corollary 1, see the report"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corollary1_equivalence_holds() {
        let cfg = Corollary1Config {
            families: vec![GraphFamily::GnpAvgDeg(6.0), GraphFamily::Cycle],
            n: 256,
            trials: 8,
            base_seed: 77,
        };
        let r = run_corollary1(&cfg).unwrap();
        for s in r.alg1_equivalence.iter().chain(&r.alg2_equivalence) {
            assert_eq!(s.different, 0, "counterexample found in {}", s.family);
            assert!(s.equal > 0, "all trials skipped in {}", s.family);
        }
        assert!(r.alg1_validity_rate > 0.99);
        assert!(r.alg2_validity_rate > 0.99);
        assert!(r.render().contains("Corollary 1"));
    }

    #[test]
    fn verdict_fails_on_a_counterexample() {
        let stats = |family: &str| EquivalenceStats {
            family: family.to_string(),
            equal: 5,
            different: 0,
            skipped_ties: 1,
            skipped_timeouts: 0,
        };
        let mut report = Corollary1Report {
            config: Corollary1Config::default(),
            alg1_equivalence: vec![stats("gnp"), stats("cycle")],
            alg2_equivalence: vec![stats("gnp"), stats("cycle")],
            alg1_validity_rate: 1.0,
            alg2_validity_rate: 1.0,
            validity_runs: 24,
        };
        assert_eq!(report.verdict(), Ok(()));
        report.alg2_equivalence[1].different = 2;
        assert!(report.verdict().unwrap_err().starts_with("2 counterexample(s) to Corollary 1"));
    }
}
