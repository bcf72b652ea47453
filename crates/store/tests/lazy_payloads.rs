//! Open builds no payload; a lookup parses its payload once. The
//! `store.payloads_decoded` counter, set against `store.entries_loaded`,
//! shows how much of a store a run woke up. (Its own test binary: the
//! telemetry mode is process-global.)

use sleepy_store::Store;
use sleepy_telemetry::Mode;

#[test]
fn payloads_decoded_counts_each_payload_looked_up_once() {
    let dir = std::env::temp_dir().join(format!("sleepy-store-lazy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = Store::open(&dir).unwrap();
    store
        .append((0..4u64).map(|i| (format!("k{i}"), serde_json::json!({"v": i}))).collect())
        .unwrap();
    drop(store);

    sleepy_telemetry::set_mode(Mode::Metrics);
    let _ = sleepy_telemetry::snapshot_and_reset();
    let store = Store::open(&dir).unwrap();
    for key in ["k0", "k2", "k0", "k2", "absent"] {
        store.get(key);
    }
    let counters = sleepy_telemetry::snapshot_and_reset().counters;
    sleepy_telemetry::set_mode(Mode::Off);
    assert_eq!(counters.get("store.entries_loaded"), Some(&4));
    assert_eq!(counters.get("store.payloads_decoded"), Some(&2));
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
