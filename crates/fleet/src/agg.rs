//! Per-job aggregates, built push by push.
//!
//! The in-process runner keeps the strongest invariant — output depends
//! only on the plan — by having its in-order collector [`push`] every
//! trial sequentially in global trial order; neither thread count nor
//! shard size can perturb a single bit. Multi-process runs keep it too:
//! the coordinator merges the workers' result stores and replays the
//! plan warm through the same collector ([`procs`](crate::procs)), so
//! no partial aggregate is ever combined with another.
//!
//! Moments stream in O(1) memory ([`StreamingMoments`]); exact p50/p99
//! additionally retain the raw per-trial values (8 bytes per trial per
//! metric — fine at the thousands-of-trials scale).
//!
//! [`push`]: JobAggregate::push

use crate::measure::{ComplexityReport, DynamicReport};
use serde::{Deserialize, Serialize};
use sleepy_stats::{PhaseSeries, StreamingMoments, Summary, UpdateSeries};

/// A single metric's aggregate: streaming moments plus the retained
/// samples its quantiles are read from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricAggregate {
    /// Streaming count/mean/M2/min/max.
    pub moments: StreamingMoments,
    samples: Vec<f64>,
}

impl MetricAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one observation.
    pub fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.samples.push(x);
    }

    /// The retained samples, sorted ascending (one sort feeds every
    /// quantile a caller reads).
    fn sorted_samples(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in metrics"));
        sorted
    }

    /// Nearest-rank percentile on an already-sorted sample
    /// (numerically identical to [`Summary::percentile_of`]).
    fn rank_of(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank]
    }

    /// Summary-statistics view (serializable).
    pub fn stats(&self) -> MetricStats {
        let sorted = self.sorted_samples();
        MetricStats {
            count: self.moments.count,
            mean: if self.moments.count == 0 { 0.0 } else { self.moments.mean },
            std_dev: self.moments.std_dev(),
            min: self.moments.min_or_zero(),
            max: self.moments.max_or_zero(),
            p50: Self::rank_of(&sorted, 50.0),
            p99: Self::rank_of(&sorted, 99.0),
        }
    }

    /// Converts into the harness's classic [`Summary`] shape.
    pub fn to_summary(&self) -> Summary {
        let sorted = self.sorted_samples();
        // Summary::of's median averages the middle pair for even
        // counts; reproduce that exactly.
        let c = sorted.len();
        let median = if c == 0 {
            0.0
        } else if c % 2 == 1 {
            sorted[c / 2]
        } else {
            (sorted[c / 2 - 1] + sorted[c / 2]) / 2.0
        };
        self.moments.to_summary(median)
    }
}

/// Serializable summary statistics of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricStats {
    /// Number of observations.
    pub count: u64,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

/// The aggregate of one job's trials.
#[derive(Debug, Clone, Default)]
pub struct JobAggregate {
    /// Node-averaged awake complexity per trial.
    pub node_avg_awake: MetricAggregate,
    /// Worst-case awake complexity per trial.
    pub worst_awake: MetricAggregate,
    /// Worst-case round complexity per trial.
    pub worst_round: MetricAggregate,
    /// Node-averaged round complexity per trial.
    pub node_avg_round: MetricAggregate,
    /// Total messages per trial.
    pub messages: MetricAggregate,
    /// MIS size per trial.
    pub mis_size: MetricAggregate,
    /// Trials whose output verified as an MIS.
    pub valid_trials: u64,
    /// Trials aggregated.
    pub trials: u64,
    /// Total Algorithm 2 base-case timeouts observed.
    pub base_timeouts: u64,
}

impl JobAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one trial's report.
    pub fn push(&mut self, r: &ComplexityReport) {
        self.node_avg_awake.push(r.summary.node_avg_awake);
        self.worst_awake.push(r.summary.worst_awake as f64);
        self.worst_round.push(r.summary.worst_round as f64);
        self.node_avg_round.push(r.summary.node_avg_round);
        self.messages.push(r.summary.total_messages as f64);
        self.mis_size.push(r.mis_size as f64);
        self.valid_trials += u64::from(r.valid);
        self.trials += 1;
        self.base_timeouts += r.base_timeouts as u64;
    }

    /// Fraction of trials whose output verified as an MIS.
    pub fn valid_fraction(&self) -> f64 {
        self.valid_trials as f64 / (self.trials.max(1)) as f64
    }
}

/// The aggregate of one dynamic job's trials: one
/// [`JobAggregate`] per phase, repair-specific per-phase metrics, and
/// whole-trial totals.
#[derive(Debug, Clone, Default)]
pub struct DynamicJobAggregate {
    /// Per-phase aggregates across trials, indexed by phase.
    pub phases: Vec<JobAggregate>,
    /// Repair scope (nodes re-run) per phase, as a [`PhaseSeries`].
    pub repair_scope: PhaseSeries,
    /// Carried-over MIS members per phase.
    pub carried: PhaseSeries,
    /// Whole-trial total of node-averaged awake complexity summed over
    /// phases — the per-trial "awake cost of surviving the churn".
    pub total_avg_awake: MetricAggregate,
    /// Per-update cost accounting across every incremental update of
    /// every trial (empty unless the job ran
    /// [`RepairStrategy::Incremental`](crate::RepairStrategy::Incremental)).
    pub updates: UpdateSeries,
    /// Trials whose *every* phase verified as an MIS.
    pub valid_trials: u64,
    /// Trials aggregated.
    pub trials: u64,
}

impl DynamicJobAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one dynamic trial's report.
    pub fn push(&mut self, r: &DynamicReport) {
        if self.phases.len() < r.phases.len() {
            self.phases.resize_with(r.phases.len(), JobAggregate::new);
        }
        let mut total_awake = 0.0;
        for p in &r.phases {
            self.phases[p.phase].push(&p.report);
            self.repair_scope.push(p.phase, p.repair_scope as f64);
            self.carried.push(p.phase, p.carried as f64);
            for u in &p.updates {
                self.updates.push(u.awake_sum, u.scope);
            }
            total_awake += p.report.summary.node_avg_awake;
        }
        self.total_avg_awake.push(total_awake);
        self.valid_trials += u64::from(r.all_valid());
        self.trials += 1;
    }

    /// Fraction of trials valid on every phase.
    pub fn valid_fraction(&self) -> f64 {
        self.valid_trials as f64 / (self.trials.max(1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepy_net::ComplexitySummary;

    fn report(x: f64, valid: bool) -> ComplexityReport {
        ComplexityReport {
            algo: "test".into(),
            n: 10,
            summary: ComplexitySummary {
                n: 10,
                node_avg_awake: x,
                worst_awake: (2.0 * x) as u64,
                worst_round: (3.0 * x) as u64,
                node_avg_round: 4.0 * x,
                active_rounds: 0,
                total_messages: (5.0 * x) as u64,
                dropped_messages: 0,
                lost_messages: 0,
                total_bits: 0,
            },
            mis_size: x as usize,
            valid,
            base_timeouts: usize::from(!valid),
        }
    }

    #[test]
    fn push_counts_trials_and_ranks_quantiles() {
        let reports: Vec<ComplexityReport> =
            (0..40).map(|i| report(1.0 + (i % 7) as f64, i % 5 != 0)).collect();
        let mut agg = JobAggregate::new();
        reports.iter().for_each(|r| agg.push(r));
        assert_eq!((agg.trials, agg.valid_trials, agg.base_timeouts), (40, 32, 8));
        assert_eq!(agg.valid_fraction(), 0.8);
        // Values 1..=7, 6 or 5 copies each: nearest rank 20 of 0..40 is
        // the 21st smallest (a 4), rank 39 the largest.
        let stats = agg.node_avg_awake.stats();
        assert_eq!((stats.p50, stats.p99), (4.0, 7.0));
        assert_eq!((stats.min, stats.max), (1.0, 7.0));
        assert_eq!(agg.worst_awake.stats().p99, 14.0);
        let mean = reports.iter().map(|r| r.summary.node_avg_awake).sum::<f64>() / 40.0;
        assert!((stats.mean - mean).abs() < 1e-12);
    }

    #[test]
    fn to_summary_matches_batch_summary() {
        let values = [2.0, 9.0, 4.0, 4.0, 5.0, 7.0, 5.0, 4.0];
        let mut agg = MetricAggregate::new();
        values.iter().for_each(|&x| agg.push(x));
        let batch = Summary::of(&values);
        let s = agg.to_summary();
        assert_eq!(s.count, batch.count);
        assert!((s.mean - batch.mean).abs() < 1e-12);
        assert!((s.std_dev - batch.std_dev).abs() < 1e-9);
        assert_eq!(s.min, batch.min);
        assert_eq!(s.max, batch.max);
        assert_eq!(s.median, batch.median);
    }

    #[test]
    fn dynamic_push_counts_one_update_per_churn_phase() {
        use crate::measure::{DynamicReport, PhaseReport, UpdateKind, UpdateRecord};
        let trial = |t: usize| DynamicReport {
            phases: (0..3)
                .map(|phase| PhaseReport {
                    phase,
                    report: report(1.0 + ((t + phase) % 5) as f64, !(t + phase).is_multiple_of(7)),
                    m: 20 + phase,
                    repair_scope: if phase == 0 { 10 } else { 2 + t % 3 },
                    carried: if phase == 0 { 0 } else { 5 },
                    updates: if phase == 0 {
                        Vec::new()
                    } else {
                        vec![UpdateRecord {
                            kind: UpdateKind::EdgeInsert,
                            scope: t % 3,
                            awake_sum: (t % 3) as f64 * 1.5,
                        }]
                    },
                })
                .collect(),
        };
        let mut agg = DynamicJobAggregate::new();
        (0..30).for_each(|t| agg.push(&trial(t)));
        assert_eq!(agg.trials, 30);
        assert_eq!(agg.phases.len(), 3);
        assert!(agg.phases.iter().all(|p| p.trials == 30));
        let close = |got: Vec<f64>, want: [f64; 3]| {
            let near = got.iter().zip(want).all(|(g, w)| (g - w).abs() < 1e-12);
            assert!(got.len() == 3 && near, "{got:?}");
        };
        close(agg.repair_scope.means(), [10.0, 3.0, 3.0]);
        close(agg.carried.means(), [0.0, 5.0, 5.0]);
        assert_eq!(agg.updates.count(), 60, "one update per churn phase per trial");
        assert_eq!(agg.updates.zero_scope, 20);
        assert!((agg.updates.amortized_awake() - 1.5).abs() < 1e-12);
        assert!(agg.valid_fraction() < 1.0);
    }

    #[test]
    fn empty_aggregate_is_all_zero() {
        let agg = MetricAggregate::new();
        let s = agg.stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(JobAggregate::new().valid_fraction(), 0.0);
    }
}
