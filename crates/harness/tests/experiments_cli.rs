//! The `experiments` binary: an unknown name is a usage error that runs
//! nothing, and a known one writes its two report files.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `experiments` with `args` in a fresh working directory named by
/// `tag`; returns the output and the directory.
fn experiments(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("experiments-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("experiments runs");
    (output, dir)
}

#[test]
fn unknown_name_lists_the_valid_names_and_writes_nothing() {
    let (output, dir) = experiments("unknown", &["figure1", "no-such-experiment", "--quick"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("unknown experiment `no-such-experiment`"), "{stderr}");
    for name in ["table1", "figure1", "corollary1", "awake_timeline", "all"] {
        assert!(stderr.contains(name), "usage must list `{name}`: {stderr}");
    }
    assert!(!dir.join("results").exists(), "a usage error must run nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figure1_quick_writes_its_reports() {
    let (output, dir) = experiments("figure1", &["figure1", "--quick"]);
    assert_eq!(output.status.code(), Some(0), "{}", String::from_utf8_lossy(&output.stderr));
    let text = std::fs::read_to_string(dir.join("results/figure1.txt")).unwrap();
    assert!(text.contains("labels match the paper's figure exactly: YES"), "{text}");
    let json = std::fs::read_to_string(dir.join("results/figure1.json")).unwrap();
    assert!(json.contains("\"labels_match_paper\": true"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figure1_quick_writes_its_reports_when_stdout_is_closed() {
    let dir = std::env::temp_dir().join(format!("experiments-cli-closed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Every stdout write fails with BrokenPipe: the read end is gone.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["figure1", "--quick"])
        .current_dir(&dir)
        .stdout(writer)
        .output()
        .expect("experiments runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for file in ["results/figure1.txt", "results/figure1.json"] {
        assert!(dir.join(file).exists(), "{file} missing: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
