//! Conformance: the committed tape corpus must replay byte-for-byte.
//!
//! Every `tests/tapes/*.jsonl` file pins one recorded engine exchange —
//! the full [`EngineInput`](sleepy_net::EngineInput) stream plus an
//! FNV-1a digest over the emitted outputs. Replaying feeds the inputs
//! through a fresh sans-io [`SleepyEngine`](sleepy_net::SleepyEngine)
//! with **no protocol code and no RNG**, so any engine semantic drift
//! (ordering, loss process, alarm handling, error paths) breaks the
//! digest here before it can silently shift experiment artifacts.

use sleepy_baselines::BaselineKind;
use sleepy_fleet::tape::{record_tape, replay_text};
use sleepy_fleet::AlgoKind;
use sleepy_graph::GraphFamily;
use sleepy_net::{replay_tape, CrashWindow, EngineConfig, FaultPlan, Tape};

fn corpus() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/tapes");
    let mut tapes = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/tapes exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable tape");
            tapes.push((name, text));
        }
    }
    tapes.sort();
    assert!(tapes.len() >= 10, "tape corpus went missing: {} files", tapes.len());
    tapes
}

#[test]
fn every_committed_tape_replays_byte_for_byte() {
    for (name, text) in corpus() {
        let tape = Tape::from_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let outcome = replay_tape(&tape).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(outcome.output_count, tape.output_count, "{name}");
        assert_eq!(outcome.outputs_fnv, tape.outputs_fnv, "{name}");
        assert_eq!(outcome.error, tape.error, "{name}");
        // Serialization is canonical: parse → serialize reproduces the
        // committed file exactly, so the corpus can be regenerated
        // idempotently and diffs stay meaningful.
        assert_eq!(tape.to_jsonl(), text, "{name}: to_jsonl is not the file's bytes");
    }
}

#[test]
fn corpus_covers_the_required_edge_cases() {
    let tapes: Vec<(String, Tape)> = corpus()
        .into_iter()
        .map(|(name, text)| {
            let tape = Tape::from_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, tape)
        })
        .collect();
    // One tape per algorithm family.
    for slug in ["alg1", "alg2", "luby-a", "luby-b", "greedy", "ghaffari"] {
        assert!(
            tapes.iter().any(|(_, t)| t.header.label.starts_with(&format!("{slug}/"))),
            "no tape for {slug}"
        );
    }
    // A message-loss tape and a recorded-failure (round cap with
    // never-terminating nodes) tape.
    assert!(tapes.iter().any(|(_, t)| t.header.loss_probability > 0.0), "no message-loss tape");
    assert!(
        tapes.iter().any(|(_, t)| t.error.as_deref().is_some_and(|e| e.contains("round cap"))),
        "no recorded-error tape"
    );
    // A burst-loss tape and a node-crash tape: faulted runs are
    // first-class conformance artifacts (the fault plan rides in the
    // header and replays without protocol code).
    assert!(
        tapes.iter().any(|(_, t)| matches!(t.header.fault, FaultPlan::Burst { .. })),
        "no burst-loss tape"
    );
    assert!(
        tapes.iter().any(|(_, t)| matches!(t.header.fault, FaultPlan::Crash { .. })),
        "no node-crash tape"
    );
}

#[test]
fn fresh_recordings_survive_the_full_cycle() {
    // record → serialize → parse → replay, end to end in-process, for a
    // sleeping-model algorithm and a baseline (with loss).
    let lossy = EngineConfig {
        fault: FaultPlan::Iid { probability: 0.3, seed: 5 },
        ..EngineConfig::default()
    };
    for (algo, config) in [
        (AlgoKind::FastSleepingMis, EngineConfig::default()),
        (AlgoKind::Baseline(BaselineKind::LubyA), lossy),
    ] {
        let tape = record_tape(algo, GraphFamily::GnpAvgDeg(6.0), 14, 21, &config)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
        let text = tape.to_jsonl();
        let parsed = Tape::from_jsonl(&text).unwrap_or_else(|e| panic!("{algo}: {e}"));
        assert_eq!(parsed.to_jsonl(), text, "{algo}: round-trip not canonical");
        let line = replay_text("fresh", &text).unwrap_or_else(|e| panic!("{algo}: {e}"));
        assert!(line.contains("OK"), "{algo}: {line}");
    }
}

#[test]
fn corpus_tapes_re_record_byte_for_byte() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/tapes");
    let with_fault = |fault| EngineConfig { fault, ..EngineConfig::default() };
    // Each tape's original `fleet record-tape` arguments.
    let cases = [
        (
            "alg1_gnp12_loss",
            AlgoKind::SleepingMis,
            GraphFamily::GnpAvgDeg(8.0),
            12,
            9,
            with_fault(FaultPlan::Iid { probability: 0.2, seed: 11 }),
        ),
        (
            "alg2_gnp14_burst",
            AlgoKind::FastSleepingMis,
            GraphFamily::GnpAvgDeg(8.0),
            14,
            5,
            with_fault(FaultPlan::Burst {
                p_enter: 0.15,
                p_exit: 0.3,
                loss_good: 0.02,
                loss_bad: 0.9,
                seed: 77,
            }),
        ),
        (
            "luby_b_star12_crash",
            AlgoKind::Baseline(BaselineKind::LubyB),
            GraphFamily::Star,
            12,
            3,
            with_fault(FaultPlan::Crash {
                windows: vec![CrashWindow { node: 2, start: 0, end: 40 }],
            }),
        ),
        ("alg1_star8", AlgoKind::SleepingMis, GraphFamily::Star, 8, 7, EngineConfig::default()),
        (
            "ghaffari_clique8_roundcap",
            AlgoKind::Baseline(BaselineKind::Ghaffari),
            GraphFamily::Clique,
            8,
            1,
            EngineConfig { max_rounds: 1, ..EngineConfig::default() },
        ),
    ];
    for (name, algo, family, n, seed, config) in cases {
        let committed = std::fs::read_to_string(dir.join(format!("{name}.jsonl")))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let tape =
            record_tape(algo, family, n, seed, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(tape.to_jsonl(), committed, "{name}: re-recording changed the bytes");
    }
}
