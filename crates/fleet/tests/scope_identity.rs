//! The protocol flight recorder is a pure side channel: running the
//! exact same static plan with the recorder off, with the per-round
//! timeline recorded, and with the full protocol trace exported must
//! leave every measured artifact — trials.jsonl, the aggregate report,
//! and the store records — byte-for-byte identical, at every thread
//! count. And the recorder's own outputs are part of the determinism
//! contract too: `round_timeline.jsonl` must be byte-identical across
//! thread counts, and the protocol trace must be a valid Chrome trace.

use sleepy_fleet::sink::JsonlSink;
use sleepy_fleet::{
    run_plan_cached, write_protocol_trace, write_round_timeline, AlgoKind, Execution, FleetConfig,
    TrialPlan,
};
use sleepy_graph::GraphFamily;
use sleepy_store::Store;
use std::path::PathBuf;

mod util;

fn tmp_dir(tag: &str) -> PathBuf {
    util::tmp_dir("fleet-scope-test", tag)
}

fn plan() -> TrialPlan {
    TrialPlan::sweep(
        &[GraphFamily::GnpAvgDeg(6.0), GraphFamily::Tree],
        &[48],
        &[AlgoKind::SleepingMis, AlgoKind::Baseline(sleepy_baselines::BaselineKind::LubyA)],
        3,
        0xFEED,
        Execution::Auto,
    )
}

/// What the recorder is switched to in one cell of the matrix.
#[derive(Clone, Copy)]
enum Recorder {
    Off,
    RoundSeries,
    FullTrace,
}

/// Everything a run is judged by, plus the recorder's own outputs when
/// it was on.
#[derive(PartialEq)]
struct RunArtifacts {
    trials_jsonl: String,
    aggregates_json: String,
    store_records: Vec<(String, String)>,
    round_timeline: Option<String>,
    protocol_trace: Option<String>,
}

fn run_cell(recorder: Recorder, threads: usize, tag: &str) -> RunArtifacts {
    let dir = tmp_dir(tag);
    let cfg = FleetConfig::with_threads(threads);
    let mut store = Store::open(&dir).unwrap();

    let plan = plan();
    let mut trial_sink = JsonlSink::new(Vec::new());
    let out = run_plan_cached(&plan, &cfg, &mut [&mut trial_sink], Some(&mut store), true).unwrap();

    // The recorder runs after the measured plan, exactly as the CLI
    // sequences it.
    let (round_timeline, protocol_trace) = match recorder {
        Recorder::Off => (None, None),
        Recorder::RoundSeries => {
            let path = dir.join("round_timeline.jsonl");
            write_round_timeline(&plan, threads, &path).unwrap();
            (Some(std::fs::read_to_string(&path).unwrap()), None)
        }
        Recorder::FullTrace => {
            let timeline = dir.join("round_timeline.jsonl");
            write_round_timeline(&plan, threads, &timeline).unwrap();
            let trace = dir.join("proto.trace.json");
            write_protocol_trace(&plan, &trace).unwrap();
            (
                Some(std::fs::read_to_string(&timeline).unwrap()),
                Some(std::fs::read_to_string(&trace).unwrap()),
            )
        }
    };

    let store_records = store
        .entries()
        .map(|e| (e.key.to_string(), serde::value::to_compact_string(e.payload)))
        .collect();
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    RunArtifacts {
        trials_jsonl: String::from_utf8(trial_sink.into_inner()).unwrap(),
        aggregates_json: serde_json::to_string_pretty(&out.report(&plan)).unwrap(),
        store_records,
        round_timeline,
        protocol_trace,
    }
}

#[test]
fn measured_artifacts_identical_across_recorder_modes_and_threads() {
    let baseline = run_cell(Recorder::Off, 1, "off-t1");
    assert!(!baseline.trials_jsonl.is_empty());
    assert!(!baseline.store_records.is_empty());

    let mut timelines = Vec::new();
    let mut traces = Vec::new();
    for (recorder, rtag) in
        [(Recorder::Off, "off"), (Recorder::RoundSeries, "series"), (Recorder::FullTrace, "full")]
    {
        for threads in [1, 2, 4] {
            if matches!(recorder, Recorder::Off) && threads == 1 {
                continue; // the baseline cell
            }
            let cell = run_cell(recorder, threads, &format!("{rtag}-t{threads}"));
            assert_eq!(
                cell.trials_jsonl, baseline.trials_jsonl,
                "trials.jsonl drifted ({rtag}, {threads} threads)"
            );
            assert_eq!(
                cell.aggregates_json, baseline.aggregates_json,
                "aggregates drifted ({rtag}, {threads} threads)"
            );
            assert_eq!(
                cell.store_records, baseline.store_records,
                "store records drifted ({rtag}, {threads} threads)"
            );
            if let Some(t) = cell.round_timeline {
                timelines.push((rtag, threads, t));
            }
            if let Some(t) = cell.protocol_trace {
                traces.push((threads, t));
            }
        }
    }

    // The recorder's own timeline is byte-identical across thread
    // counts AND across series-only vs full-trace recording.
    let (_, _, first) = &timelines[0];
    assert!(!first.is_empty());
    for (rtag, threads, t) in &timelines {
        assert_eq!(t, first, "round_timeline.jsonl drifted ({rtag}, {threads} threads)");
    }

    // The protocol trace is deterministic and a valid Chrome trace with
    // per-node tracks (n = 48 <= MAX_TRACK_NODES) and counter series.
    let (_, first_trace) = &traces[0];
    for (threads, t) in &traces {
        assert_eq!(t, first_trace, "protocol trace drifted ({threads} threads)");
    }
    let check = sleepy_telemetry::validate_trace(first_trace).unwrap();
    assert!(check.spans > 0, "expected per-node awake spans");
    assert!(check.counters > 0, "expected awake/sent counter series");
    assert_eq!(check.categories, vec!["proto"]);
}
