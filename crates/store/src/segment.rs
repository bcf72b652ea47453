//! Segment line format: one self-checking JSON object per entry.
//!
//! A line is `{"key":K,"stamp":S,"payload":P,"sum":H}` where `H` is the
//! FNV-1a-64 checksum (exactly 16 lowercase hex digits) of the compact
//! serialization of the same object *without* the `sum` field: the
//! line's own bytes before `,"sum":`, closed by `}`. The checksum makes
//! every line independently verifiable from its raw bytes, so truncation
//! and bit-rot are detected on read rather than silently aggregated; a
//! line not in the writer's exact layout counts as corrupt.

use serde::Value;

/// One stored entry: a content key, a TTL stamp, and an opaque payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The content-address of the entry (e.g. a fleet trial key).
    pub key: String,
    /// Unix seconds at write time; drives TTL garbage collection.
    pub stamp: u64,
    /// The stored document.
    pub payload: Value,
}

/// FNV-1a 64-bit hash — small, dependency-free, and plenty for
/// detecting truncation and corruption (not an integrity MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a-64 hash. Each step is a bijection on the state,
/// so changing any one input byte changes the result.
fn fnv1a64_continue(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Encodes an entry as one JSONL line (no trailing newline).
pub fn encode_line(entry: &Entry) -> String {
    let key = Value::String(entry.key.clone());
    let body = format!("{{\"key\":{key},\"stamp\":{},\"payload\":{}}}", entry.stamp, entry.payload);
    let sum = fnv1a64(body.as_bytes());
    format!("{},\"sum\":\"{sum:016x}\"}}", &body[..body.len() - 1])
}

/// Decodes and verifies one segment line. `None` means the line is
/// corrupt (not in the writer's layout, unparsable, wrong field types,
/// or checksum mismatch) — the caller quarantines the whole segment.
pub fn decode_line(line: &str) -> Option<Entry> {
    // The writer hashed `body` + `}`, then closed the line with the
    // fixed 26-byte `,"sum":"<16 lowercase hex>"}` instead of that `}`.
    let (body, suffix) = line.split_at_checked(line.len().checked_sub(26)?)?;
    let hex = suffix.strip_prefix(",\"sum\":\"")?.strip_suffix("\"}")?;
    if hex != format!("{:016x}", fnv1a64_continue(fnv1a64(body.as_bytes()), b"}")) {
        return None;
    }
    let Value::Object(fields) = serde_json::from_str(line).ok()? else { return None };
    match <[(String, Value); 4]>::try_from(fields).ok()? {
        [(k, Value::String(key)), (s, stamp), (p, payload), (h, _)]
            if [&k, &s, &p, &h] == ["key", "stamp", "payload", "sum"] =>
        {
            Some(Entry { key, stamp: stamp.as_u64()?, payload })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Entry {
        Entry {
            key: "SleepingMIS@gnp-avg8:4020000000000000/n=96#xAuto#s0000000000051ee9/t00ff".into(),
            stamp: 1_753_833_600,
            payload: serde_json::json!({
                "node_avg_awake": 3.0517578125e-5,
                "worst_round": 17u64,
                "valid": true,
                "nested": serde_json::json!([1u64, 2.5f64, "x"])
            }),
        }
    }

    #[test]
    fn round_trips() {
        let e = entry();
        let line = encode_line(&e);
        assert!(!line.contains('\n'));
        assert_eq!(decode_line(&line), Some(e));
    }

    #[test]
    fn float_payloads_round_trip_bit_exactly() {
        for bits in [0x3ff0_0000_0000_0001u64, 0x4008_0000_0000_0000, 0x3f50_624d_d2f1_a9fc] {
            let x = f64::from_bits(bits);
            let e = Entry { key: "k".into(), stamp: 0, payload: serde_json::json!(x) };
            let back = decode_line(&encode_line(&e)).unwrap();
            assert_eq!(back.payload.as_f64().unwrap().to_bits(), bits);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let line = encode_line(&entry());
        // Flip a digit inside the payload.
        let bad = line.replacen("17", "18", 1);
        assert_ne!(bad, line);
        assert_eq!(decode_line(&bad), None);
        // Truncation.
        assert_eq!(decode_line(&line[..line.len() - 10]), None);
        // Garbage.
        assert_eq!(decode_line("not json at all"), None);
        assert_eq!(decode_line("{\"key\":\"k\"}"), None);
        // An upper-case checksum is not the writer's layout.
        assert_eq!(decode_line(&line.replace("384025c2a321a104", "384025C2A321A104")), None);
    }

    /// A line whose checksum matches its own bytes but whose layout
    /// differs from the writer's.
    fn self_consistent_line(body: &str) -> String {
        let sum = fnv1a64(body.as_bytes());
        format!("{},\"sum\":\"{sum:016x}\"}}", &body[..body.len() - 1])
    }

    #[test]
    fn only_the_writers_layout_is_accepted() {
        let e = Entry { key: "k".into(), stamp: 1, payload: Value::Null };
        let good = self_consistent_line(r#"{"key":"k","stamp":1,"payload":null}"#);
        assert_eq!(good, encode_line(&e));
        assert_eq!(decode_line(&good), Some(e));
        for body in [
            r#"{"stamp":1,"key":"k","payload":null}"#,
            r#"{"key":"k","stamp":1,"payload":null,"extra":0}"#,
            r#"{"key":"k","stamp":-1,"payload":null}"#,
            r#"{"key":7,"stamp":1,"payload":null}"#,
            r#"{"key":"k","stamp":1}"#,
        ] {
            assert_eq!(decode_line(&self_consistent_line(body)), None, "{body}");
        }
        // The checksum covers the bytes as written, not a re-serialization.
        assert_eq!(decode_line(&good.replace(":null", ": null")), None);
    }

    /// `encode_line(&entry())` as written by every store so far.
    const GOLDEN_LINE: &str = concat!(
        r#"{"key":"SleepingMIS@gnp-avg8:4020000000000000/n=96#xAuto#s0000000000051ee9/t00ff","#,
        r#""stamp":1753833600,"payload":{"node_avg_awake":0.000030517578125,"worst_round":17,"#,
        r#""valid":true,"nested":[1,2.5,"x"]},"sum":"384025c2a321a104"}"#
    );

    #[test]
    fn checksum_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(encode_line(&entry()), GOLDEN_LINE);
    }

    #[test]
    fn every_single_bit_flip_of_a_line_is_rejected() {
        assert_eq!(decode_line(GOLDEN_LINE), Some(entry()));
        let mut line = GOLDEN_LINE.as_bytes().to_vec();
        for at in 0..line.len() {
            for bit in 0..8 {
                line[at] ^= 1 << bit;
                // Invalid UTF-8 condemns the whole segment before any line
                // is decoded; everything else must fail `decode_line`.
                if let Ok(mutant) = std::str::from_utf8(&line) {
                    assert_eq!(decode_line(mutant), None, "bit {bit} of byte {at} flipped");
                }
                line[at] ^= 1 << bit;
            }
        }
    }
}
