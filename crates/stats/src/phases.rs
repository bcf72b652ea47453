//! Per-phase streaming aggregation for dynamic (churn) workloads.

use crate::StreamingMoments;
use serde::{Deserialize, Serialize};

/// A sequence of [`StreamingMoments`], one per phase of a dynamic
/// workload.
///
/// Trials of a dynamic job each contribute one observation per phase;
/// the series keeps the phases separate so experiments can report how a
/// metric (awake complexity, repair scope, …) evolves across churn
/// events. Like [`StreamingMoments`], pushing in global trial order
/// keeps results byte-identical across thread counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseSeries {
    /// One accumulator per phase index.
    phases: Vec<StreamingMoments>,
}

impl PhaseSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one observation for `phase`, growing the series with
    /// empty accumulators as needed.
    pub fn push(&mut self, phase: usize, x: f64) {
        if phase >= self.phases.len() {
            self.phases.resize_with(phase + 1, StreamingMoments::new);
        }
        self.phases[phase].push(x);
    }

    /// Per-phase means, in phase order (0 for phases with no data).
    pub fn means(&self) -> Vec<f64> {
        self.phases.iter().map(|p| if p.count == 0 { 0.0 } else { p.mean }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_grows_and_separates_phases() {
        let mut s = PhaseSeries::new();
        assert!(s.means().is_empty());
        s.push(0, 1.0);
        s.push(2, 5.0);
        s.push(0, 3.0);
        let counts: Vec<u64> = s.phases.iter().map(|p| p.count).collect();
        assert_eq!(counts, vec![2, 0, 1]);
        assert_eq!(s.means(), vec![2.0, 0.0, 5.0]);
    }
}
