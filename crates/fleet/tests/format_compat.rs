//! Store-format compatibility of trial records: a static trial record
//! written by an earlier release is still served, still sits under the
//! key the current plan computes for it, and still decodes into the
//! same report. Twin of `crates/store/tests/format_compat.rs`.

use sleepy_baselines::BaselineKind;
use sleepy_fleet::cache::{job_trial_key, report_from_value, report_to_value};
use sleepy_fleet::{AlgoKind, JobSpec, Workload};
use sleepy_graph::GraphFamily;
use sleepy_store::Store;

mod util;

/// A static trial record copied from a store written by `fleet --trials 25 --store`.
const TRIAL_LINE: &str = concat!(
    r#"{"key":"s/Luby-A@gnp-avg8:4020000000000000/n=256#xAuto#s0000000000051ee9/te68125b148da521d","#,
    r#""stamp":1792207880,"payload":{"algo":"Luby-A","n":256,"summary":{"n":256,"#,
    r#""node_avg_awake":7.15625,"worst_awake":27,"worst_round":27,"node_avg_round":7.15625,"#,
    r#""active_rounds":27,"total_messages":6214,"dropped_messages":1945,"total_bits":163660},"#,
    r#""mis_size":72,"valid":true,"base_timeouts":0},"sum":"fd0a9e9d8b0ceba2"}"#
);

#[test]
fn recorded_trial_record_is_served_and_decodes() {
    let dir = util::tmp_dir("fleet-format-compat", "trial");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("seg-00000001.jsonl"), format!("{TRIAL_LINE}\n")).unwrap();
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.stats().quarantined, 0);

    let job = JobSpec::new(
        Workload::new(GraphFamily::GnpAvgDeg(8.0), 256),
        AlgoKind::Baseline(BaselineKind::LubyA),
        25,
    );
    let key = job_trial_key(&job, 0x51ee9, 0xe681_25b1_48da_521d);
    let payload = store.get(&key).expect("the recorded key is the one the plan computes");
    let report = report_from_value(payload).expect("the recorded payload decodes");
    assert_eq!((report.algo.as_str(), report.n, report.mis_size), ("Luby-A", 256, 72));
    assert_eq!(report.summary.node_avg_awake, 7.15625);
    assert_eq!(report.summary.dropped_messages, 1945);
    assert!(report.valid);
    // The codec is lossless on it: re-encoding yields the stored payload.
    assert_eq!(&report_to_value(&report), payload);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
