//! Store error type.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

/// Any failure opening or writing a store. Corrupt *segments* are not
/// errors — they are quarantined on open and reported via
/// [`StoreStats`](crate::StoreStats) — but unusable directories and
/// failed writes are.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Filesystem operation failed, with the path it failed on.
    Io(PathBuf, std::io::Error),
    /// The store was asked to do something invalid.
    Config(String),
    /// No segment number is left for a new segment: the store in this
    /// directory holds a segment numbered `u64::MAX - 1` or above.
    SegmentsExhausted(PathBuf),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(path, e) => write!(f, "store I/O failed on {}: {e}", path.display()),
            StoreError::Config(msg) => write!(f, "invalid store operation: {msg}"),
            StoreError::SegmentsExhausted(dir) => {
                write!(f, "no segment number left in store {}", dir.display())
            }
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(_, e) => Some(e),
            StoreError::Config(_) | StoreError::SegmentsExhausted(_) => None,
        }
    }
}
