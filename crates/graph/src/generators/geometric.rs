//! Random geometric graphs — the ad-hoc wireless / sensor-network topology.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Samples a random geometric graph: `n` points uniform on the unit square,
/// with an edge between every pair at Euclidean distance at most `radius`.
///
/// This is the standard model of an ad-hoc wireless or sensor network — the
/// setting whose energy constraints motivate the sleeping model (paper §1.1).
/// The points are counting-sorted into a grid of square cells at least
/// `radius` wide, with at most ⌊√n⌋ cells per side so that the grid never
/// outgrows the point set. Each cell is then scanned against itself and its
/// four forward neighbors (east, and the three cells of the next row), so
/// every candidate pair is tested once, in memory order. The expected
/// running time is O(n + m).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `radius` is negative or not
/// finite.
///
/// # Example
///
/// ```
/// use sleepy_graph::generators::{radius_for_avg_degree, random_geometric};
/// let r = radius_for_avg_degree(200, 6.0);
/// let g = random_geometric(200, r, 7)?;
/// assert_eq!(g.n(), 200);
/// # Ok::<(), sleepy_graph::GraphError>(())
/// ```
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Result<Graph, GraphError> {
    if !radius.is_finite() || radius < 0.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("geometric radius {radius} must be a nonnegative finite number"),
        });
    }
    if n == 0 || radius == 0.0 {
        return Graph::from_edges(n, []);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
    // Cells of width 1/cells >= radius: all neighbors of a point lie in its
    // own or the 8 adjacent cells.
    let cells = ((1.0 / radius) as usize).clamp(1, n.isqrt());
    let cell_of = |x: f64| ((x * cells as f64) as usize).min(cells - 1);
    // Counting sort into cell order: `start[c]` counts cell c, becomes
    // the end of its run, and the fill walks it down to the run's start.
    let mut start = vec![0usize; cells * cells + 1];
    let cell: Vec<usize> = pts.iter().map(|&(x, y)| cell_of(y) * cells + cell_of(x)).collect();
    for &c in &cell {
        start[c] += 1;
    }
    let mut acc = 0;
    for s in &mut start {
        acc += *s;
        *s = acc;
    }
    let (mut ids, mut xs, mut ys) = (vec![0 as NodeId; n], vec![0.0; n], vec![0.0; n]);
    for (i, &c) in cell.iter().enumerate().rev() {
        start[c] -= 1;
        let at = start[c];
        (ids[at], xs[at], ys[at]) = (i as NodeId, pts[i].0, pts[i].1);
    }
    drop((pts, cell));
    let r2 = radius * radius;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut scan = |a: usize, others: std::ops::Range<usize>| {
        for b in others {
            let (dx, dy) = (xs[b] - xs[a], ys[b] - ys[a]);
            if dx * dx + dy * dy <= r2 {
                edges.push((ids[a], ids[b]));
            }
        }
    };
    for cy in 0..cells {
        for cx in 0..cells {
            let c = cy * cells + cx;
            // The forward half of the neighborhood is two runs of adjacent
            // cells: this one and its east neighbor, then the west, below
            // and east cells of the next row.
            let (west, east) = (usize::from(cx > 0), usize::from(cx + 1 < cells));
            let row_end = start[c + 1 + east];
            let below = c + cells;
            let next_row =
                if cy + 1 < cells { start[below - west]..start[below + 1 + east] } else { 0..0 };
            for a in start[c]..start[c + 1] {
                scan(a, a + 1..row_end);
                scan(a, next_row.clone());
            }
        }
    }
    drop((ids, xs, ys, start));
    Graph::from_edges(n, edges)
}

/// The connection radius for which a random geometric graph on the unit
/// square has expected average degree approximately `avg_degree`
/// (ignoring boundary effects): `r = sqrt(avg_degree / (π·(n−1)))`, capped
/// at `sqrt(2)` (every pair connected).
pub fn radius_for_avg_degree(n: usize, avg_degree: f64) -> f64 {
    if n <= 1 || avg_degree <= 0.0 {
        return 0.0;
    }
    (avg_degree / (std::f64::consts::PI * (n - 1) as f64)).sqrt().min(std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radius_zero_is_empty() {
        let g = random_geometric(50, 0.0, 1).unwrap();
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn radius_sqrt2_is_complete() {
        let g = random_geometric(20, std::f64::consts::SQRT_2 + 0.01, 1).unwrap();
        assert_eq!(g.m(), 20 * 19 / 2);
    }

    #[test]
    fn rejects_bad_radius() {
        assert!(random_geometric(5, -1.0, 0).is_err());
        assert!(random_geometric(5, f64::NAN, 0).is_err());
    }

    /// The same RNG stream, tested pair by pair.
    fn brute_force(n: usize, r: f64, seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
        let mut brute = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let (dx, dy) = (pts[j].0 - pts[i].0, pts[j].1 - pts[i].1);
                if dx * dx + dy * dy <= r * r {
                    brute.push((i as NodeId, j as NodeId));
                }
            }
        }
        Graph::from_edges(n, brute).unwrap()
    }

    #[test]
    fn bucket_grid_matches_brute_force() {
        let cases: [(usize, f64, u64); 17] = [
            (120, 0.17, 33),
            // One, two and three cells per side, on and off the boundary
            // radii 1, 1/2 and 1/3.
            (150, 1.2, 1),
            (150, 1.0, 2),
            (150, 0.7, 3),
            (150, 0.5, 4),
            (150, 0.45, 5),
            (150, 1.0 / 3.0, 6),
            (150, 0.3, 7),
            // 1/r exceeds ⌊√n⌋, so the grid is capped at ⌊√n⌋ per side.
            (200, 0.05, 8),
            (64, 0.01, 9),
            (64, 1e-7, 10),
            // Tiny graphs.
            (1, 0.3, 11),
            (2, 0.9, 12),
            (2, 0.1, 13),
            (3, 0.5, 14),
            (3, 0.05, 15),
            (3, 1.5, 16),
        ];
        for (n, r, seed) in cases {
            assert_eq!(random_geometric(n, r, seed).unwrap(), brute_force(n, r, seed), "{n} {r}");
        }
    }

    #[test]
    fn avg_degree_near_target() {
        let n = 2000;
        let target = 8.0;
        let g = random_geometric(n, radius_for_avg_degree(n, target), 5).unwrap();
        let mean = g.degree_stats().mean;
        // Boundary effects push the mean a bit below target.
        assert!(mean > target * 0.6 && mean < target * 1.3, "mean degree {mean}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(random_geometric(64, 0.2, 3).unwrap(), random_geometric(64, 0.2, 3).unwrap());
    }
}
