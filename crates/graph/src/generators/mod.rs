//! Deterministic, seedable graph generators.
//!
//! Every randomized generator takes an explicit `seed: u64` and produces the
//! same graph for the same `(parameters, seed)` pair on every platform.
//!
//! The [`GraphFamily`] enum provides a uniform handle used by the experiment
//! harness to sweep workloads: a family plus `(n, seed)` yields a graph.

mod geometric;
mod gnp;
mod powerlaw;
mod regular;
mod structured;
mod trees;

pub use geometric::{radius_for_avg_degree, random_geometric};
pub use gnp::{gnp, gnp_avg_degree};
pub use powerlaw::barabasi_albert;
pub use regular::random_regular;
pub use structured::{clique, complete_bipartite, cycle, empty, grid2d, hypercube, path, star};
pub use trees::{balanced_binary_tree, random_tree};

use crate::error::GraphError;
use crate::graph::Graph;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A parameterized family of graphs, used by the harness to generate
/// workloads of varying size with one description.
///
/// # Example
///
/// ```
/// use sleepy_graph::GraphFamily;
///
/// let fam = GraphFamily::GnpAvgDeg(4.0);
/// let g = fam.generate(100, 42)?;
/// assert_eq!(g.n(), 100);
/// # Ok::<(), sleepy_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum GraphFamily {
    /// Erdős–Rényi G(n, p) with p chosen so the expected average degree is
    /// the given constant (sparse regime).
    GnpAvgDeg(f64),
    /// Erdős–Rényi G(n, p) with p = min(1, c·ln n / n); with c > 1 the graph
    /// is connected with high probability.
    GnpLogDensity(f64),
    /// Random d-regular graph from the configuration model.
    RandomRegular(usize),
    /// Random geometric graph on the unit square with radius chosen for the
    /// given expected average degree — the ad-hoc wireless / sensor-network
    /// topology motivating the paper.
    GeometricAvgDeg(f64),
    /// Barabási–Albert preferential attachment, each new node bringing
    /// the given number of edges (power-law degrees).
    BarabasiAlbert(usize),
    /// Uniformly random recursive tree.
    Tree,
    /// Simple cycle C_n.
    Cycle,
    /// Simple path P_n.
    Path,
    /// Star K_{1,n-1}.
    Star,
    /// Complete graph K_n.
    Clique,
    /// Near-square 2D grid (`⌊√n⌋ × ⌊n/⌊√n⌋⌋` — may have slightly fewer
    /// than n nodes).
    Grid2d,
    /// Hypercube on the largest power of two that is at most n
    /// (the generated graph may have fewer than n nodes).
    Hypercube,
    /// Edgeless graph (every node isolated).
    Empty,
}

impl GraphFamily {
    /// Checks the family's parameter on its own, so that a caller can
    /// reject a bad family before it runs anything. It rejects exactly
    /// the parameters [`generate`](GraphFamily::generate) rejects at some
    /// n >= 2, and `generate` calls it first.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] for a negative or non-finite
    /// average degree or log-density, or a Barabási–Albert attachment
    /// count of 0.
    pub fn validate(&self) -> Result<(), GraphError> {
        let (what, x) = match *self {
            GraphFamily::GnpAvgDeg(d) | GraphFamily::GeometricAvgDeg(d) => ("average degree", d),
            GraphFamily::GnpLogDensity(c) => ("log-density", c),
            GraphFamily::BarabasiAlbert(0) => {
                return Err(GraphError::InvalidParameter {
                    reason: "Barabási–Albert attachment count m must be >= 1".to_string(),
                })
            }
            _ => return Ok(()),
        };
        if x.is_finite() && x >= 0.0 {
            Ok(())
        } else {
            Err(GraphError::InvalidParameter {
                reason: format!("{what} {x} must be a nonnegative finite number"),
            })
        }
    }

    /// Generates an instance of this family with `n` nodes (or, for
    /// [`GraphFamily::Hypercube`], the largest power of two at most `n`).
    ///
    /// # Errors
    ///
    /// What [`validate`](GraphFamily::validate) rejects, and otherwise
    /// the underlying generator error, e.g. [`GraphError::TooManyNodes`].
    pub fn generate(&self, n: usize, seed: u64) -> Result<Graph, GraphError> {
        self.validate()?;
        match *self {
            GraphFamily::GnpAvgDeg(d) => gnp_avg_degree(n, d, seed),
            GraphFamily::GnpLogDensity(c) => {
                let p = if n <= 1 { 0.0 } else { (c * (n as f64).ln() / n as f64).min(1.0) };
                gnp(n, p, seed)
            }
            GraphFamily::RandomRegular(d) => {
                // Keep d feasible for small n so sweeps do not error out.
                let d_eff = d.min(n.saturating_sub(1));
                let d_eff = if n * d_eff % 2 == 1 { d_eff.saturating_sub(1) } else { d_eff };
                random_regular(n, d_eff, seed)
            }
            GraphFamily::GeometricAvgDeg(d) => {
                random_geometric(n, radius_for_avg_degree(n, d), seed)
            }
            GraphFamily::BarabasiAlbert(m) => barabasi_albert(n, m, seed),
            GraphFamily::Tree => random_tree(n, seed),
            GraphFamily::Cycle => cycle(n),
            GraphFamily::Path => path(n),
            GraphFamily::Star => star(n),
            GraphFamily::Clique => clique(n),
            GraphFamily::Grid2d => {
                if n == 0 {
                    return empty(0);
                }
                let rows = ((n as f64).sqrt().floor() as usize).max(1);
                let cols = (n / rows).max(1);
                grid2d(rows, cols)
            }
            GraphFamily::Hypercube => {
                if n == 0 {
                    return empty(0);
                }
                let dim = if n == 1 { 0 } else { n.ilog2() as usize };
                hypercube(dim)
            }
            GraphFamily::Empty => empty(n),
        }
    }

    /// Short stable identifier used in reports and file names.
    pub fn label(&self) -> String {
        match *self {
            GraphFamily::GnpAvgDeg(d) => format!("gnp-avg{d}"),
            GraphFamily::GnpLogDensity(c) => format!("gnp-logn-c{c}"),
            GraphFamily::RandomRegular(d) => format!("regular-{d}"),
            GraphFamily::GeometricAvgDeg(d) => format!("geometric-avg{d}"),
            GraphFamily::BarabasiAlbert(m) => format!("ba-{m}"),
            GraphFamily::Tree => "tree".to_string(),
            GraphFamily::Cycle => "cycle".to_string(),
            GraphFamily::Path => "path".to_string(),
            GraphFamily::Star => "star".to_string(),
            GraphFamily::Clique => "clique".to_string(),
            GraphFamily::Grid2d => "grid2d".to_string(),
            GraphFamily::Hypercube => "hypercube".to_string(),
            GraphFamily::Empty => "empty".to_string(),
        }
    }
}

impl fmt::Display for GraphFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_generate() {
        let fams = [
            GraphFamily::GnpAvgDeg(4.0),
            GraphFamily::GnpLogDensity(2.0),
            GraphFamily::RandomRegular(3),
            GraphFamily::GeometricAvgDeg(5.0),
            GraphFamily::BarabasiAlbert(2),
            GraphFamily::Tree,
            GraphFamily::Cycle,
            GraphFamily::Path,
            GraphFamily::Star,
            GraphFamily::Clique,
            GraphFamily::Grid2d,
            GraphFamily::Hypercube,
            GraphFamily::Empty,
        ];
        for fam in fams {
            let g = fam.generate(32, 7).unwrap_or_else(|e| panic!("{fam}: {e}"));
            assert!(g.n() >= 16, "{fam} produced only {} nodes", g.n());
            assert!(!fam.label().is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for fam in [
            GraphFamily::GnpAvgDeg(3.0),
            GraphFamily::RandomRegular(4),
            GraphFamily::GeometricAvgDeg(4.0),
            GraphFamily::BarabasiAlbert(2),
            GraphFamily::Tree,
        ] {
            let a = fam.generate(64, 123).unwrap();
            let b = fam.generate(64, 123).unwrap();
            assert_eq!(a, b, "{fam} not deterministic");
            let c = fam.generate(64, 124).unwrap();
            // Overwhelmingly likely to differ for randomized families.
            assert_ne!(a, c, "{fam} ignored seed");
        }
    }

    /// Every family the dynamic/churn path can hand a tiny or emptied
    /// instance to. Regression: Grid2d and Hypercube used to return a
    /// 1-node graph for n = 0.
    const ALL_FAMILIES: [GraphFamily; 13] = [
        GraphFamily::GnpAvgDeg(4.0),
        GraphFamily::GnpLogDensity(1.5),
        GraphFamily::RandomRegular(3),
        GraphFamily::GeometricAvgDeg(5.0),
        GraphFamily::BarabasiAlbert(2),
        GraphFamily::Tree,
        GraphFamily::Cycle,
        GraphFamily::Path,
        GraphFamily::Star,
        GraphFamily::Clique,
        GraphFamily::Grid2d,
        GraphFamily::Hypercube,
        GraphFamily::Empty,
    ];

    #[test]
    fn small_n_does_not_error() {
        for fam in ALL_FAMILIES {
            for n in 0..6 {
                let g = fam.generate(n, 1).unwrap_or_else(|e| panic!("{fam} n={n}: {e}"));
                assert!(g.n() <= n, "{fam} n={n} produced {} nodes", g.n());
            }
        }
    }

    #[test]
    fn validate_rejects_bad_parameters_at_every_size() {
        let bad = [
            GraphFamily::GnpAvgDeg(-1.0),
            GraphFamily::GnpAvgDeg(f64::NAN),
            GraphFamily::GnpLogDensity(-1.0),
            GraphFamily::GnpLogDensity(f64::INFINITY),
            GraphFamily::GeometricAvgDeg(-1.0),
            GraphFamily::GeometricAvgDeg(f64::NAN),
            GraphFamily::GeometricAvgDeg(f64::INFINITY),
            GraphFamily::GeometricAvgDeg(f64::NEG_INFINITY),
            GraphFamily::BarabasiAlbert(0),
        ];
        for fam in bad {
            assert!(matches!(fam.validate(), Err(GraphError::InvalidParameter { .. })), "{fam}");
            for n in [0, 1, 2, 64] {
                assert_eq!(fam.generate(n, 1), Err(fam.validate().unwrap_err()), "{fam} n={n}");
            }
        }
    }

    /// What `validate` accepts, `generate` builds at every size: no
    /// parameter fails later than the check.
    #[test]
    fn validate_accepts_only_what_generate_builds() {
        let xs = [-0.0, 0.0, 1e-300, 0.5, 3.0, 1e300, f64::MAX];
        let mut fams: Vec<GraphFamily> = ALL_FAMILIES.to_vec();
        for x in xs {
            fams.extend([
                GraphFamily::GnpAvgDeg(x),
                GraphFamily::GnpLogDensity(x),
                GraphFamily::GeometricAvgDeg(x),
            ]);
        }
        for k in [1, 2, 5, 1000] {
            fams.extend([GraphFamily::BarabasiAlbert(k), GraphFamily::RandomRegular(k)]);
        }
        for fam in fams {
            fam.validate().unwrap_or_else(|e| panic!("{fam}: {e}"));
            for n in [0, 1, 2, 3, 17, 64] {
                fam.generate(n, 3).unwrap_or_else(|e| panic!("{fam} n={n}: {e}"));
            }
        }
    }

    #[test]
    fn geometric_degree_zero_is_edgeless_and_a_tiny_one_is_cheap() {
        let g = GraphFamily::GeometricAvgDeg(0.0).generate(64, 1).unwrap();
        assert_eq!((g.n(), g.m()), (64, 0));
        // Radius ~2e-6: sized by 1/r², the grid would have ~2·10¹¹
        // cells; sized by ⌊√n⌋ it has 64.
        let g = GraphFamily::GeometricAvgDeg(1e-9).generate(64, 1).unwrap();
        assert_eq!((g.n(), g.m()), (64, 0));
    }

    #[test]
    fn n_zero_yields_the_empty_graph_everywhere() {
        for fam in ALL_FAMILIES {
            let g = fam.generate(0, 1).unwrap_or_else(|e| panic!("{fam}: {e}"));
            assert_eq!(g.n(), 0, "{fam} must produce the 0-node graph for n = 0");
            assert_eq!(g.m(), 0);
        }
    }
}
