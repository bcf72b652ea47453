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
use sleepy_graph::{Graph, GraphFamily};
use sleepy_net::{
    replay_tape, run_protocol_taped, Action, CrashWindow, EngineConfig, FaultPlan, Incoming,
    NodeCtx, NullSink, Outbox, Protocol, Round, Tape,
};

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

/// Header of a one-node tape whose round cap is `Round::MAX` itself.
const LAST_ROUND_HEADER: &str = "{\"tape\":\"sleepy-engine-tape\",\"version\":1,\
\"label\":\"last-round/n=1\",\"seed\":0,\"n\":1,\"edges\":[],\
\"max_rounds\":18446744073709551615,\"congest_bits\":null,\
\"loss_probability\":0.0,\"loss_seed\":0,\"messages\":false}\n\
{\"i\":\"sends\",\"node\":0,\"msgs\":[]}\n\
{\"i\":\"step\",\"node\":0,\"act\":{\"s\":18446744073709551615},\"out\":true}\n";

/// A node that sleeps until the last round `Round::MAX` and terminates
/// there: the run must end in the round cap, never wrap the round
/// counter. The tape is what a build whose counter wrapped recorded (it
/// "finished" with 0 total rounds); replaying it must be a divergence.
#[test]
fn reaching_round_max_is_the_round_cap_on_replay() {
    let wrapped = format!(
        "{LAST_ROUND_HEADER}{{\"i\":\"sends\",\"node\":0,\"msgs\":[]}}\n\
         {{\"i\":\"step\",\"node\":0,\"act\":\"t\",\"out\":true}}\n\
         {{\"end\":true,\"outputs\":11,\"fnv\":\"ebaf7bb6798cae8c\",\"error\":null}}\n"
    );
    let tape = Tape::from_jsonl(&wrapped).expect("hand-built tape parses");
    let err = replay_tape(&tape).expect_err("a wrapped round counter must not replay");
    assert!(err.to_string().contains("input 2 follows an engine error"), "{err}");

    let capped = format!(
        "{LAST_ROUND_HEADER}{{\"end\":true,\"outputs\":5,\"fnv\":\"b520fcb1963fe236\",\
         \"error\":\"round cap 18446744073709551615 exceeded with 1 unfinished nodes\"}}\n"
    );
    let tape = Tape::from_jsonl(&capped).expect("hand-built tape parses");
    let outcome = replay_tape(&tape).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(outcome.error, tape.error);
    assert_eq!(tape.to_jsonl(), capped, "hand-built tape is canonical");

    // A live recording of that run is exactly the capped tape.
    struct LastRound;
    impl Protocol for LastRound {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &NodeCtx, _: &mut Outbox<()>) {}
        fn receive(&mut self, ctx: &NodeCtx, _: &[Incoming<()>]) -> Action {
            if ctx.round == 0 {
                Action::SleepUntil(Round::MAX)
            } else {
                Action::Terminate
            }
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }
    let graph = Graph::from_edges(1, []).unwrap();
    let config = EngineConfig { max_rounds: Round::MAX, ..EngineConfig::default() };
    let (run, mut live) = run_protocol_taped(&graph, &config, |_, _| LastRound, &mut NullSink);
    assert!(run.is_err());
    live.header.label = "last-round/n=1".to_string();
    assert_eq!(live.to_jsonl(), capped);
}
