//! Store fault harness, property-tested: truncate a segment at an
//! *arbitrary* byte boundary and the store must converge — a cut on a
//! line boundary keeps exactly the surviving whole lines, any other
//! cut quarantines the segment wholesale, and in every case a warm
//! rerun re-executes exactly the lost trials and reproduces the cold
//! run byte-for-byte. [`CacheStats`] is the witness: `hits` counts the
//! survivors, `executed` counts the healed holes, and they always sum
//! to the plan.

use proptest::prelude::*;
use sleepy_fleet::sink::JsonlSink;
use sleepy_fleet::{run_plan_cached, AlgoKind, Execution, FleetConfig, TrialPlan};
use sleepy_graph::GraphFamily;
use sleepy_store::{Store, StoreFault, StoreFaultInjector};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

mod util;

fn plan() -> TrialPlan {
    TrialPlan::sweep(
        &[GraphFamily::GnpAvgDeg(6.0)],
        &[32],
        &[AlgoKind::SleepingMis, AlgoKind::FastSleepingMis],
        3,
        0xD15C,
        Execution::Auto,
    )
}

fn config() -> FleetConfig {
    FleetConfig { threads: 1, shard_size: 4, progress: false }
}

/// One cold run, captured once: the template store directory plus the
/// oracle trials.jsonl bytes every healed rerun must reproduce.
struct Template {
    dir: PathBuf,
    trials: Vec<u8>,
    payloads: BTreeMap<String, String>,
}

fn template() -> &'static Template {
    static TEMPLATE: OnceLock<Template> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let dir = util::tmp_dir("fleet-store-chaos", "template");
        let mut store = Store::open(&dir).unwrap();
        let mut sink = JsonlSink::new(Vec::new());
        let out =
            run_plan_cached(&plan(), &config(), &mut [&mut sink], Some(&mut store), true).unwrap();
        assert_eq!(out.cache.executed, plan().total_trials());
        let payloads = payload_map(&store);
        Template { dir, trials: sink.into_inner(), payloads }
    })
}

fn payload_map(store: &Store) -> BTreeMap<String, String> {
    store
        .entries()
        .map(|e| (e.key.to_string(), serde::value::to_compact_string(e.payload)))
        .collect()
}

/// Copies the template store into a fresh per-case directory.
fn clone_template(tag: &str) -> PathBuf {
    let dir = util::tmp_dir("fleet-store-chaos", tag);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&template().dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

/// The store's segment files as `(name, bytes)`, sorted by name.
fn segments(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut segs = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("seg-") && name.ends_with(".jsonl") {
            segs.push((name, std::fs::read(&path).unwrap()));
        }
    }
    segs.sort();
    segs
}

/// Warm-runs the plan against `dir` and returns (trials bytes, hits,
/// executed, payload map afterwards).
fn heal(dir: &Path) -> (Vec<u8>, u64, u64, BTreeMap<String, String>) {
    let mut store = Store::open(dir).unwrap();
    let mut sink = JsonlSink::new(Vec::new());
    let out =
        run_plan_cached(&plan(), &config(), &mut [&mut sink], Some(&mut store), true).unwrap();
    let payloads = payload_map(&store);
    (sink.into_inner(), out.cache.hits, out.cache.executed, payloads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn truncation_at_any_boundary_converges(seg_pick in 0usize..64, cut_pick in 0usize..1_000_000) {
        let total = plan().total_trials();
        let case = format!("cut-{seg_pick}-{cut_pick}");
        let dir = clone_template(&case);
        let segs = segments(&dir);
        prop_assert!(!segs.is_empty(), "cold run stored no segments");
        let (name, bytes) = &segs[seg_pick % segs.len()];
        let cut = cut_pick % (bytes.len() + 1);

        // Expected survivors: a cut on a line boundary keeps the whole
        // lines before it; any mid-line cut (including losing the final
        // newline) must quarantine the segment wholesale.
        let on_boundary = cut == 0 || bytes[cut - 1] == b'\n';
        let seg_lines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        let surviving_lines = if on_boundary {
            bytes[..cut].iter().filter(|&&b| b == b'\n').count() as u64
        } else {
            0
        };
        let expected_hits = total - seg_lines + surviving_lines;

        std::fs::write(dir.join(name), &bytes[..cut]).unwrap();
        let (trials, hits, executed, payloads) = heal(&dir);

        prop_assert_eq!(hits, expected_hits, "cut {} of {} in {}", cut, bytes.len(), name);
        prop_assert_eq!(executed, total - expected_hits, "hits + executed must cover the plan");
        // Byte identity: healing is indistinguishable from never
        // having been corrupted.
        prop_assert_eq!(&trials, &template().trials, "healed trials.jsonl diverged");
        prop_assert_eq!(&payloads, &template().payloads, "healed store records diverged");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_injector_faults_converge(seed in 0u64..1u64 << 48) {
        let total = plan().total_trials();
        let dir = clone_template(&format!("inj-{seed}"));
        let fault = StoreFaultInjector::new(&dir, seed).corrupt_one().unwrap();
        prop_assert!(fault != StoreFault::Nothing, "template store has data to corrupt");
        let (trials, hits, executed, payloads) = heal(&dir);
        prop_assert_eq!(hits + executed, total, "{}", fault);
        prop_assert_eq!(&trials, &template().trials, "healed trials.jsonl diverged after {}", fault);
        prop_assert_eq!(&payloads, &template().payloads, "store records diverged after {}", fault);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
