//! # sleepy-harness
//!
//! The experiment harness that regenerates **every table and figure** of
//! *"Sleeping is Efficient"* (PODC 2020), plus empirical validation of its
//! lemmas and theorems. Each module below is one experiment, listed in
//! the [`experiments`] table under its module name. The `experiments`
//! binary runs any of them, or `all`; `--quick` picks their small
//! configurations:
//!
//! ```text
//! experiments <name>...|all [--quick]
//! ```
//!
//! | Experiment | Paper artifact | Module |
//! |-----------|----------------|--------|
//! | T1  | Table 1 (4 complexity measures × algorithms) | [`table1`] |
//! | F1  | Figure 1 (recursion-tree timing labels)      | [`figure1`] |
//! | F2  | Figure 2 (truncated recursion tree, level occupancy) | [`figure2`] |
//! | L2/L3/L5/L7 | Lemmas 2, 3 (Pruning), 5, 7          | [`lemmas`] |
//! | TH1/TH2 | Theorems 1 and 2 scaling                  | [`theorems`] |
//! | C1/WHP | Corollary 1 equivalence, whp correctness   | [`corollary1`] |
//! | EN  | §1.1 energy motivation (sensor networks)      | [`energy`] |
//! | AB  | ablations of fixed design knobs (greedy c, truncation depth) | [`ablation`] |
//! | CO  | §1.5 contrast: (Δ+1)-coloring is O(1) node-averaged in the traditional model | [`coloring`] |
//! | RB  | robustness under injected message loss (beyond the paper) | [`robustness`] |
//! | CH  | MIS repair vs recompute under graph churn (beyond the paper) | [`churn`] |
//! | AW  | awake fraction per round via the protocol flight recorder | [`awake_timeline`] |
//!
//! All experiments are deterministic given their configured base seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod awake_timeline;
pub mod churn;
pub mod coloring;
pub mod corollary1;
pub mod energy;
mod error;
pub mod experiments;
pub mod figure1;
pub mod figure2;
pub mod lemmas;
mod measure;
pub mod output;
pub mod robustness;
pub mod table1;
pub mod theorems;
mod workloads;

pub use error::HarnessError;
pub use measure::{
    measure_once, measure_trials, AggregateMeasurement, AlgoKind, ComplexityReport, Execution,
    ALL_ALGOS, SLEEPING_ALGOS,
};
pub use workloads::{standard_families, Workload};
