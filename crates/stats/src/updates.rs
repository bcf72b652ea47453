//! Per-update cost accounting for incremental dynamic workloads.
//!
//! An *update* is one atomic graph mutation (edge insert/delete, node
//! arrival/departure) absorbed by an incremental repair strategy. The
//! Ghaffari–Portmann line of work states its dynamic sleeping-model
//! bounds as *amortized awake rounds per update*; [`UpdateSeries`] is
//! the accumulator that measures exactly that quantity across every
//! update of every trial.

use crate::StreamingMoments;
use serde::{Deserialize, Serialize};

/// An aggregate of per-update repair costs.
///
/// Each observation is one absorbed update: the total awake rounds the
/// repair spent on it (summed over the nodes that woke) and the repair
/// scope (how many nodes re-ran). Like [`StreamingMoments`], pushing in
/// global trial order keeps results byte-identical across thread counts.
///
/// # Example
///
/// ```
/// use sleepy_stats::UpdateSeries;
///
/// let mut s = UpdateSeries::new();
/// s.push(6.0, 3); // an update that woke 3 nodes for 6 awake rounds total
/// s.push(0.0, 0); // an update absorbed without waking anyone
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.zero_scope, 1);
/// assert_eq!(s.amortized_awake(), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateSeries {
    /// Awake-round cost per update (summed over the woken nodes).
    pub awake: StreamingMoments,
    /// Repair scope per update (nodes the algorithm re-ran on).
    pub scope: StreamingMoments,
    /// Updates absorbed without re-running on any node at all.
    pub zero_scope: u64,
}

impl UpdateSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one absorbed update.
    pub fn push(&mut self, awake_sum: f64, scope: usize) {
        self.awake.push(awake_sum);
        self.scope.push(scope as f64);
        self.zero_scope += u64::from(scope == 0);
    }

    /// Updates observed.
    pub fn count(&self) -> u64 {
        self.awake.count
    }

    /// Whether no update has been observed.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The amortized awake cost per update — total awake rounds spent
    /// absorbing updates divided by the number of updates (0 when
    /// empty). This is the quantity Ghaffari–Portmann-style bounds
    /// speak about.
    pub fn amortized_awake(&self) -> f64 {
        if self.awake.count == 0 {
            0.0
        } else {
            self.awake.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_accumulates_and_amortizes() {
        let mut s = UpdateSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.amortized_awake(), 0.0);
        s.push(4.0, 2);
        s.push(2.0, 1);
        s.push(0.0, 0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.zero_scope, 1);
        assert!((s.amortized_awake() - 2.0).abs() < 1e-12);
        assert!((s.scope.mean - 1.0).abs() < 1e-12);
        assert_eq!(s.awake.max_or_zero(), 4.0);
    }
}
