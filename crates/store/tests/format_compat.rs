//! On-disk format compatibility: a segment built from lines written by
//! earlier releases opens cleanly and serves exactly what those lines
//! hold. Any change to the line layout, the checksum, or the parser
//! that breaks existing stores fails here.

use sleepy_store::Store;

/// The store's own test entry, as `encode_line` writes it.
const GOLDEN_LINE: &str = concat!(
    r#"{"key":"SleepingMIS@gnp-avg8:4020000000000000/n=96#xAuto#s0000000000051ee9/t00ff","#,
    r#""stamp":1753833600,"payload":{"node_avg_awake":0.000030517578125,"worst_round":17,"#,
    r#""valid":true,"nested":[1,2.5,"x"]},"sum":"384025c2a321a104"}"#
);

/// A static trial record copied from a store written by `fleet --trials 25 --store`.
const TRIAL_LINE: &str = concat!(
    r#"{"key":"s/Luby-A@gnp-avg8:4020000000000000/n=256#xAuto#s0000000000051ee9/te68125b148da521d","#,
    r#""stamp":1792207880,"payload":{"algo":"Luby-A","n":256,"summary":{"n":256,"#,
    r#""node_avg_awake":7.15625,"worst_awake":27,"worst_round":27,"node_avg_round":7.15625,"#,
    r#""active_rounds":27,"total_messages":6214,"dropped_messages":1945,"total_bits":163660},"#,
    r#""mis_size":72,"valid":true,"base_timeouts":0},"sum":"fd0a9e9d8b0ceba2"}"#
);

#[test]
fn recorded_segment_lines_open_and_serve_their_payloads() {
    let dir = std::env::temp_dir().join(format!("sleepy-store-compat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("seg-00000001.jsonl"), format!("{GOLDEN_LINE}\n{TRIAL_LINE}\n"))
        .unwrap();

    let store = Store::open(&dir).unwrap();
    assert_eq!(store.stats().quarantined, 0);
    assert_eq!(store.len(), 2);
    for line in [GOLDEN_LINE, TRIAL_LINE] {
        let parsed = serde_json::from_str(line).unwrap();
        let key = parsed.get("key").and_then(|k| k.as_str()).unwrap();
        assert_eq!(store.get(key), parsed.get("payload"), "{key}");
    }
    // Served entries re-encode to the recorded bytes.
    let reencoded: Vec<String> =
        store.entries().map(|e| sleepy_store::encode_line(&e.to_entry())).collect();
    assert_eq!(reencoded, [GOLDEN_LINE, TRIAL_LINE]);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
