//! The `fleet` binary's process surface: a stdout whose reader has gone
//! away changes neither the files a run writes nor its exit status, and
//! the file-taking subcommands reject an unknown flag instead of
//! reading it as a file name.

mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn fleet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fleet"))
}

fn tape(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/tapes").join(name)
}

/// Runs `cmd` with stdout connected to a pipe whose read end is closed
/// before the child starts, so every stdout write fails with
/// `BrokenPipe`.
fn run_with_closed_stdout(mut cmd: Command) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    cmd.stdout(writer).stderr(Stdio::piped()).output().expect("fleet runs")
}

#[test]
fn a_closed_stdout_neither_panics_nor_fails_the_run() {
    let alg1 = tape("alg1_star8.jsonl");
    let cases: [&[&str]; 3] =
        [&["--help"], &["lint", "--list-rules"], &["replay", alg1.to_str().unwrap()]];
    for args in cases {
        let mut cmd = fleet();
        cmd.args(args);
        let out = run_with_closed_stdout(cmd);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "fleet {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "fleet {args:?}: {stderr}");
    }
}

#[test]
fn a_sweep_with_a_closed_stdout_writes_the_same_aggregates() {
    let sweep = |dir: &Path| {
        let mut cmd = fleet();
        cmd.args(["--families", "cycle,gnp6", "--sizes", "48", "--algos", "alg1,luby-b"])
            .args(["--trials", "3", "--no-progress", "--out"])
            .arg(dir);
        cmd
    };
    let open = util::tmp_dir("fleet-cli", "stdout-open");
    let closed = util::tmp_dir("fleet-cli", "stdout-closed");
    let status = sweep(&open).output().expect("fleet runs").status;
    assert!(status.success());
    let out = run_with_closed_stdout(sweep(&closed));
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    for file in ["trials.jsonl", "aggregates.json", "aggregates.csv"] {
        let want = std::fs::read(open.join(file)).unwrap();
        let got = std::fs::read(closed.join(file)).unwrap_or_default();
        assert_eq!(got, want, "{file} differs with stdout closed");
    }
    let _ = std::fs::remove_dir_all(&open);
    let _ = std::fs::remove_dir_all(&closed);
}

#[test]
fn replay_and_trace_check_reject_unknown_flags() {
    let alg1 = tape("alg1_star8.jsonl");
    let cases: [(&str, Vec<&str>); 2] = [
        ("replay", vec!["replay", "--thread", "2", alg1.to_str().unwrap()]),
        ("trace-check", vec!["trace-check", "--bogus"]),
    ];
    for (sub, args) in cases {
        let out = fleet().args(&args).output().expect("fleet runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "fleet {args:?}: {stderr}");
        let flag = args[1];
        assert!(stderr.contains(&format!("unknown `fleet {sub}` flag `{flag}`")), "{stderr}");
    }
    // The known spelling of the same replay still passes.
    let out = fleet().args(["replay", "--threads", "2"]).arg(&alg1).output().expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}
