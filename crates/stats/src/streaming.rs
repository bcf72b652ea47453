//! Streaming moment accumulators for trial aggregation.
//!
//! The fleet runtime aggregates metrics across thousands of trials that
//! finish on different worker threads in scheduling-dependent order. Its
//! in-order collector pushes every trial into a [`StreamingMoments`] in
//! global trial order, so the floating-point rounding of the running
//! mean and M2 — and with it every aggregate byte — depends on the plan
//! alone, never on thread count or shard size.

use crate::Summary;
use serde::{Deserialize, Serialize};

/// Streaming count/mean/M2/min/max in O(1) memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingMoments {
    /// Number of observations.
    pub count: u64,
    /// Running mean (0 when empty).
    pub mean: f64,
    /// Sum of squared deviations from the mean (Welford's M2).
    pub m2: f64,
    /// Minimum (+inf when empty).
    pub min: f64,
    /// Maximum (-inf when empty).
    pub max: f64,
}

impl Default for StreamingMoments {
    fn default() -> Self {
        StreamingMoments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl StreamingMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one observation (Welford's online update).
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Sample standard deviation (n−1 denominator; 0 if count < 2).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).max(0.0).sqrt()
        }
    }

    /// Minimum, with empty accumulators reading 0 (matching
    /// [`Summary::of`] on an empty sample).
    pub fn min_or_zero(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum, with empty accumulators reading 0.
    pub fn max_or_zero(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Converts into a [`Summary`], supplying the median from retained
    /// samples (the accumulator itself cannot produce quantiles).
    pub fn to_summary(&self, median: f64) -> Summary {
        Summary {
            count: self.count as usize,
            mean: if self.count == 0 { 0.0 } else { self.mean },
            std_dev: self.std_dev(),
            min: self.min_or_zero(),
            max: self.max_or_zero(),
            median,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn matches_batch_summary() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = StreamingMoments::new();
        for &x in &data {
            acc.push(x);
        }
        let s = Summary::of(&data);
        assert_eq!(acc.count as usize, s.count);
        assert_close(acc.mean, s.mean);
        assert_close(acc.std_dev(), s.std_dev);
        assert_close(acc.min_or_zero(), s.min);
        assert_close(acc.max_or_zero(), s.max);
    }

    #[test]
    fn empty_reads_zero() {
        let empty = StreamingMoments::new();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.min_or_zero(), 0.0);
        assert_eq!(empty.max_or_zero(), 0.0);
        let s = empty.to_summary(0.0);
        assert_eq!((s.count, s.mean, s.std_dev, s.min, s.max), (0, 0.0, 0.0, 0.0, 0.0));
        let mut one = StreamingMoments::new();
        one.push(3.0);
        assert_close(one.mean, 3.0);
        assert_eq!(one.to_summary(3.0).median, 3.0);
    }
}
