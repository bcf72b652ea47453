//! Erdős–Rényi G(n, p) random graphs.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Samples G(n, p): each of the n·(n−1)/2 possible edges is present
/// independently with probability `p`.
///
/// Uses geometric skip sampling (Batagelj–Brandes), so the running time is
/// O(n + m) rather than O(n²) for sparse graphs.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]` or is
/// not finite.
///
/// # Example
///
/// ```
/// use sleepy_graph::generators::gnp;
/// let g = gnp(50, 0.1, 7)?;
/// assert_eq!(g.n(), 50);
/// # Ok::<(), sleepy_graph::GraphError>(())
/// ```
pub fn gnp(n: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter {
            reason: format!("edge probability p={p} must lie in [0, 1]"),
        });
    }
    if n <= 1 || p == 0.0 {
        return Graph::from_edges(n, []);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    if p >= 1.0 {
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                edges.push((u, v));
            }
        }
        return Graph::from_edges(n, edges);
    }
    // Walk the strictly-upper-triangular adjacency in row-major order,
    // jumping ahead by geometrically distributed gaps. Below p = 2^-53,
    // 1 - p rounds to 1 and its log to 0, which would make every gap -∞:
    // ln_1p keeps those p apart from 0, the saturating adds take the huge
    // gaps, and every other p's gaps are as they were.
    let log_q = if 1.0 - p < 1.0 { (1.0 - p).ln() } else { (-p).ln_1p() };
    let mut v: i64 = 1;
    let mut w: i64 = -1;
    let n_i = n as i64;
    while v < n_i {
        let r: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        w = w.saturating_add((r.ln() / log_q).floor() as i64).saturating_add(1);
        while w >= v && v < n_i {
            w -= v;
            v += 1;
        }
        if v < n_i {
            edges.push((w as NodeId, v as NodeId));
        }
    }
    Graph::from_edges(n, edges)
}

/// Samples G(n, p) with `p = min(1, avg_degree / (n - 1))`, so the expected
/// average degree is (approximately) `avg_degree`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `avg_degree` is negative or
/// not finite.
pub fn gnp_avg_degree(n: usize, avg_degree: f64, seed: u64) -> Result<Graph, GraphError> {
    if !avg_degree.is_finite() || avg_degree < 0.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("average degree {avg_degree} must be a nonnegative finite number"),
        });
    }
    if n <= 1 {
        return Graph::from_edges(n, []);
    }
    let p = (avg_degree / (n - 1) as f64).min(1.0);
    gnp(n, p, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_zero_is_empty_and_p_one_is_complete() {
        let g = gnp(20, 0.0, 1).unwrap();
        assert_eq!(g.m(), 0);
        let g = gnp(20, 1.0, 1).unwrap();
        assert_eq!(g.m(), 20 * 19 / 2);
    }

    #[test]
    fn rejects_bad_p() {
        assert!(gnp(5, -0.1, 0).is_err());
        assert!(gnp(5, 1.5, 0).is_err());
        assert!(gnp(5, f64::NAN, 0).is_err());
    }

    #[test]
    fn edge_count_near_expectation() {
        // n=400, p=0.05: E[m] = 0.05 * 400*399/2 = 3990. Std dev ~ 61.6.
        let g = gnp(400, 0.05, 99).unwrap();
        let expected = 0.05 * (400.0 * 399.0 / 2.0);
        let sd = (expected * 0.95_f64).sqrt();
        assert!(
            (g.m() as f64 - expected).abs() < 6.0 * sd,
            "m = {} far from expectation {expected}",
            g.m()
        );
    }

    #[test]
    fn avg_degree_hits_target() {
        let g = gnp_avg_degree(1000, 6.0, 5).unwrap();
        let mean = g.degree_stats().mean;
        assert!((mean - 6.0).abs() < 1.0, "mean degree {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(gnp(100, 0.07, 3).unwrap(), gnp(100, 0.07, 3).unwrap());
        assert_ne!(gnp(100, 0.07, 3).unwrap(), gnp(100, 0.07, 4).unwrap());
    }

    #[test]
    fn a_probability_below_2_pow_minus_53_draws_no_edge() {
        for p in [1e-17, 1e-300, f64::MIN_POSITIVE] {
            assert_eq!(gnp(1000, p, 1).unwrap().m(), 0, "p = {p}");
        }
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(gnp(0, 0.5, 0).unwrap().n(), 0);
        assert_eq!(gnp(1, 0.5, 0).unwrap().m(), 0);
        let g = gnp(2, 1.0, 0).unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn avg_degree_larger_than_n_saturates() {
        let g = gnp_avg_degree(10, 100.0, 0).unwrap();
        assert_eq!(g.m(), 45); // complete
    }
}
