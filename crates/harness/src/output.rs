//! Report output: writes rendered text and JSON into `results/`.

use crate::error::HarnessError;
use std::path::{Path, PathBuf};

/// Writes `text` to `results/<name>.txt` and `json` to
/// `results/<name>.json` under `dir`, creating the directory if needed.
/// Returns the text path.
///
/// # Errors
///
/// I/O failures ([`HarnessError::Io`]).
pub fn save_report(
    dir: &Path,
    name: &str,
    text: &str,
    json: &serde_json::Value,
) -> Result<PathBuf, HarnessError> {
    std::fs::create_dir_all(dir)?;
    let txt_path = dir.join(format!("{name}.txt"));
    std::fs::write(&txt_path, text)?;
    let json_path = dir.join(format!("{name}.json"));
    std::fs::write(&json_path, serde_json::to_string_pretty(json).expect("serializable"))?;
    Ok(txt_path)
}

/// The default results directory: `results/` under the current directory.
pub fn default_results_dir() -> PathBuf {
    PathBuf::from("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_report_round_trip() {
        let dir = std::env::temp_dir().join(format!("sleepy-test-{}", std::process::id()));
        let path = save_report(&dir, "unit", "hello", &serde_json::json!({"x": 1})).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "hello");
        let json = std::fs::read_to_string(dir.join("unit.json")).unwrap();
        assert!(json.contains("\"x\": 1"));
        std::fs::remove_dir_all(dir).ok();
    }
}
