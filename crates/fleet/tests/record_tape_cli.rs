//! `fleet record-tape` rejects malformed fault flags instead of
//! recording a run it did not ask for: each invocation below exits
//! nonzero and writes no tape. One well-formed spelling re-records its
//! committed corpus tape, so the rejections are not a blanket failure.

mod util;

use std::path::Path;
use std::process::Command;

/// Runs `fleet record-tape` with `args` plus `--out <dir>/tape.jsonl`;
/// returns whether it succeeded and the tape it wrote, if any.
fn record(tag: &str, args: &[&str]) -> (bool, Option<String>) {
    let dir = util::tmp_dir("fleet-record-tape-cli", tag);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("tape.jsonl");
    let status = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .arg("record-tape")
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("fleet runs")
        .status;
    let tape = std::fs::read_to_string(&out).ok();
    let _ = std::fs::remove_dir_all(&dir);
    (status.success(), tape)
}

const LUBY_B_STAR12: [&str; 8] =
    ["--algo", "luby-b", "--family", "star", "--n", "12", "--seed", "3"];

#[test]
fn malformed_fault_flags_are_rejected() {
    let cases: [(&str, &[&str]); 4] = [
        // Dropping the bad component would leave the valid `2:0:40`.
        ("crash-component", &["--fault-crash", "2:0:x:40"]),
        // 2^32 + 2 must not wrap to node 2.
        ("crash-node-range", &["--fault-crash", "4294967298:0:40"]),
        // Dropping `zz` would leave a valid four-value burst.
        ("burst-component", &["--fault-burst", "0.15,zz,0.3,0.02,0.9"]),
        // One run has one fault plan; a nonzero loss is one.
        ("loss-and-crash", &["--loss", "0.5", "--fault-crash", "2:0:40"]),
    ];
    for (tag, flags) in cases {
        let args: Vec<&str> = LUBY_B_STAR12.iter().chain(flags).copied().collect();
        let (ok, tape) = record(tag, &args);
        assert!(!ok, "{tag}: {args:?} must exit nonzero");
        assert!(tape.is_none(), "{tag}: {args:?} must write no tape");
    }
}

#[test]
fn well_formed_crash_flag_re_records_the_corpus_tape() {
    let args: Vec<&str> =
        LUBY_B_STAR12.iter().chain(&["--fault-crash", "2:0:40"]).copied().collect();
    let (ok, tape) = record("crash-ok", &args);
    assert!(ok, "{args:?} must succeed");
    let committed =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/tapes/luby_b_star12_crash.jsonl");
    assert_eq!(tape, Some(std::fs::read_to_string(committed).unwrap()));
}
