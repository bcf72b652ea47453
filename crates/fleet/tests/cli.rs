//! The `fleet` binary's process surface: a stdout or stderr whose
//! reader has gone away changes neither the files a run writes nor its
//! exit status, the file-taking subcommands reject an unknown flag
//! instead of reading it as a file name, and a bad invocation fails
//! before it writes anything.

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

/// Runs `cmd` with stderr connected to a pipe whose read end is closed
/// before the child starts, so every stderr write fails with
/// `BrokenPipe`.
fn run_with_closed_stderr(mut cmd: Command) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    cmd.stdout(Stdio::null()).stderr(writer).output().expect("fleet runs")
}

#[test]
fn a_sweep_with_a_closed_stderr_writes_the_same_aggregates() {
    let sweep = |dir: &Path| {
        let mut cmd = fleet();
        cmd.args(["--families", "cycle,gnp6", "--sizes", "48", "--algos", "alg1,luby-b"])
            .args(["--trials", "3", "--out"])
            .arg(dir);
        cmd
    };
    let open = util::tmp_dir("fleet-cli", "stderr-open");
    let closed = util::tmp_dir("fleet-cli", "stderr-closed");
    let status = sweep(&open).output().expect("fleet runs").status;
    assert!(status.success());
    // With progress on, the run writes its status lines, the progress
    // line and the telemetry summary to the closed stderr.
    let out = run_with_closed_stderr(sweep(&closed));
    assert_eq!(out.status.code(), Some(0));
    for file in ["trials.jsonl", "aggregates.json", "aggregates.csv"] {
        let want = std::fs::read(open.join(file)).unwrap();
        let got = std::fs::read(closed.join(file)).unwrap_or_default();
        assert_eq!(got, want, "{file} differs with stderr closed");
    }
    let _ = std::fs::remove_dir_all(&open);
    let _ = std::fs::remove_dir_all(&closed);
}

#[test]
fn lint_usage_errors_keep_their_exit_code_with_a_closed_stderr() {
    let missing = util::tmp_dir("fleet-cli", "lint-missing-root");
    let cases: [Vec<&str>; 3] = [
        vec!["lint", "--bogus"],
        vec!["lint", "--root"],
        vec!["lint", "--root", missing.to_str().unwrap()],
    ];
    for args in cases {
        let mut cmd = fleet();
        cmd.args(&args);
        assert_eq!(run_with_closed_stderr(cmd).status.code(), Some(2), "fleet {args:?}");
    }
}

/// Every entry point rejects a bad invocation when it parses its
/// arguments: exit 1, one `fleet: ` message, no panic, and not a single
/// file or directory created in the working directory.
#[test]
fn bad_invocations_fail_before_writing_anything() {
    let scratch = util::tmp_dir("fleet-cli", "reject-plan");
    std::fs::create_dir_all(&scratch).unwrap();
    let sweep = |family| {
        sleepy_fleet::TrialPlan::sweep(
            &[family],
            &[16],
            &[sleepy_fleet::AlgoKind::SleepingMis],
            2,
            7,
            sleepy_fleet::Execution::Auto,
        )
    };
    let plan = scratch.join("plan.json");
    std::fs::write(&plan, sleepy_fleet::plan_to_json(&sweep(sleepy_graph::GraphFamily::Cycle)))
        .unwrap();
    let plan = plan.to_str().unwrap();
    // A plan file is input too: a family `generate` would reject fails
    // the worker before it creates its store.
    let bad_plan = scratch.join("bad-plan.json");
    let bad = sweep(sleepy_graph::GraphFamily::GeometricAvgDeg(-1.0));
    std::fs::write(&bad_plan, sleepy_fleet::plan_to_json(&bad)).unwrap();
    let bad_plan = bad_plan.to_str().unwrap();
    let tape = tape("alg1_star8.jsonl");
    let tape = tape.to_str().unwrap();
    // A small sweep, so that a case a regression lets through ends fast.
    let small = ["--families", "cycle", "--sizes", "16", "--algos", "alg1", "--trials", "1"];
    let with_small = |flags: &[&'static str]| -> Vec<&'static str> {
        small.iter().chain(flags).copied().collect()
    };
    let cases: Vec<Vec<&str>> = vec![
        // An unknown flag, a missing value and a bad number, per entry
        // point (trace-check takes no flag with a value).
        vec!["--bogus"],
        vec!["--trials"],
        vec!["--trials", "x"],
        vec!["worker", "--bogus"],
        vec!["worker", "--plan"],
        vec!["worker", "--plan", plan, "--shard", "0/1", "--store", "S", "--threads", "x"],
        vec!["merge", "--bogus"],
        vec!["merge", "--plan"],
        vec!["merge", "--plan", plan, "--from", "A", "--store", "S", "--shard-size", "x"],
        vec!["gc", "--bogus"],
        vec!["gc", "--store"],
        vec!["gc", "--store", "S", "--ttl-secs", "x"],
        vec!["record-tape", "--bogus"],
        vec!["record-tape", "--n"],
        vec!["record-tape", "--algo", "alg1", "--n", "x"],
        vec!["replay", "--bogus", tape],
        vec!["replay", tape, "--threads"],
        vec!["replay", "--threads", "x", tape],
        vec!["trace-check", "--bogus"],
        vec!["chaos", "--bogus"],
        vec!["chaos", "--n"],
        vec!["chaos", "--n", "x"],
        // Bad values.
        with_small(&["--seed", "0xZZ"]),
        vec!["--families", "nope"],
        vec!["--algos", "nope"],
        with_small(&["--dynamic", "--repair", "nope"]),
        with_small(&["--dynamic", "--churn-model", "nope"]),
        // Flag scope: a dynamic-only flag without --dynamic, and a
        // static-only flag with it.
        with_small(&["--phases", "3"]),
        with_small(&["--dynamic", "--protocol-trace", "P"]),
        // Missing companion flags.
        with_small(&["--no-cache"]),
        with_small(&["--round-timeline"]),
        vec!["merge", "--plan", plan, "--from", "A", "--store", "S", "--trace-from", "T"],
        // Required flags.
        vec!["worker"],
        vec!["merge"],
        vec!["gc"],
        vec!["record-tape"],
        // record-tape: two fault plans, and a loss outside [0, 1].
        vec!["record-tape", "--algo", "alg1", "--loss", "0.1", "--fault-crash", "2:0:40"],
        vec!["record-tape", "--algo", "alg1", "--loss", "2"],
        vec!["chaos", "--procs", "0"],
        vec!["replay"],
        vec!["trace-check"],
        // Plan files are static-only; a zero shard size; a shard index
        // past the shard count.
        with_small(&["--dynamic", "--emit-plan", "P"]),
        with_small(&["--shard-size", "0", "--out", "D"]),
        with_small(&["--shard-size", "0", "--dry-run"]),
        vec!["worker", "--plan", plan, "--shard", "3/2", "--store", "S"],
        // Family parameters and churn fractions that the generators
        // reject, checked before `--out` exists.
        vec!["--families", "gnp-1", "--out", "D"],
        vec!["--families", "geo-1", "--out", "D"],
        vec!["--families", "geonan", "--out", "D"],
        vec!["--families", "gnplog-1", "--out", "D"],
        vec!["--families", "ba0", "--out", "D"],
        vec!["record-tape", "--algo", "alg1", "--family", "geoinf", "--out", "T"],
        with_small(&["--dynamic", "--edge-churn", "2", "--out", "D"]),
        with_small(&["--dynamic", "--node-churn", "-1", "--out", "D"]),
        vec!["worker", "--plan", bad_plan, "--shard", "0/1", "--store", "S"],
    ];
    for (i, args) in cases.iter().enumerate() {
        let dir = util::tmp_dir("fleet-cli", &format!("reject-{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        let out = fleet().args(args).current_dir(&dir).output().expect("fleet runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "fleet {args:?}: {stderr}");
        assert!(stderr.starts_with("fleet: "), "fleet {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "fleet {args:?}: {stderr}");
        let left: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert!(left.is_empty(), "fleet {args:?} wrote {left:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
