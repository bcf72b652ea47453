//! # sleepy-stats
//!
//! Statistics for the experiment harness: summaries with confidence
//! intervals, least-squares growth-shape fits (is a measured curve
//! constant, logarithmic, polylogarithmic, or polynomial in n?), and plain
//! text / markdown table rendering.
//!
//! The growth fits are how the harness turns raw sweeps into the *shape*
//! claims of the paper's Table 1 and Theorems 1–2 — e.g. "node-averaged
//! awake complexity is O(1)" becomes "the fitted polynomial exponent of
//! the measured curve is ≈ 0 and the curve is flat within noise".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fit;
mod phases;
mod streaming;
mod summary;
mod table;
mod updates;

pub use fit::{fit_log_power, fit_power, linear_regression, GrowthFit, LinearFit};
pub use phases::PhaseSeries;
pub use streaming::StreamingMoments;
pub use summary::Summary;
pub use table::TextTable;
pub use updates::UpdateSeries;
