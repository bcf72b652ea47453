//! Segment line format: one self-checking JSON object per entry.
//!
//! A line is `{"key":K,"stamp":S,"payload":P,"sum":H}` where `H` is the
//! FNV-1a-64 checksum (exactly 16 lowercase hex digits) of the compact
//! serialization of the same object *without* the `sum` field: the
//! line's own bytes before `,"sum":`, closed by `}`. The checksum makes
//! every line independently verifiable from its raw bytes, so truncation
//! and bit-rot are detected on read rather than silently aggregated; a
//! line not in the writer's exact layout counts as corrupt.
//!
//! Reading is split in two. [`check_segment`] verifies every line
//! completely — checksum, frame, and the payload's JSON syntax — without
//! building a payload, and says where each payload sits; parsing it is
//! left to whoever needs the value ([`decode_line`], or a store lookup).

use serde::Value;
use std::ops::Range;

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
    fnv1a64_continue(FNV_OFFSET, bytes)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a-64 hash. Each step is a bijection on the state,
/// so changing any one input byte changes the result.
fn fnv1a64_continue(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| fnv1a64_step(h, b))
}

fn fnv1a64_step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// [`fnv1a64`] of four inputs at once. Each step of one hash waits for
/// the multiply before it; four independent chains run side by side
/// overlap in the CPU, so four lines hash in about the time of two.
fn fnv1a64_x4(inputs: [&[u8]; 4]) -> [u64; 4] {
    let common = inputs.iter().map(|bytes| bytes.len()).min().unwrap_or(0);
    let mut hashes = [FNV_OFFSET; 4];
    for i in 0..common {
        for (hash, bytes) in hashes.iter_mut().zip(&inputs) {
            *hash = fnv1a64_step(*hash, bytes[i]);
        }
    }
    for (hash, bytes) in hashes.iter_mut().zip(&inputs) {
        *hash = fnv1a64_continue(*hash, &bytes[common..]);
    }
    hashes
}

/// Encodes an entry as one JSONL line (no trailing newline).
pub fn encode_line(entry: &Entry) -> String {
    let key = Value::String(entry.key.clone());
    let body = format!("{{\"key\":{key},\"stamp\":{},\"payload\":{}}}", entry.stamp, entry.payload);
    let sum = fnv1a64(body.as_bytes());
    format!("{},\"sum\":\"{sum:016x}\"}}", &body[..body.len() - 1])
}

/// Decodes and verifies one segment line: the checks a store makes when
/// it opens a segment, plus one parse of the payload. `None` means the
/// line is corrupt (checksum mismatch, not in the writer's layout, or a
/// payload that is not JSON) — the caller quarantines the whole segment.
pub fn decode_line(line: &str) -> Option<Entry> {
    let (body, sum) = split_sum(line)?;
    if !sums_match(&[(0, body, sum)]) {
        return None;
    }
    let (key, stamp, payload) = check_body(body)?;
    Some(Entry { key, stamp, payload: serde_json::from_str(&body[payload]).ok()? })
}

/// A verified line whose payload is not parsed yet: its key, its stamp,
/// and the byte range of its payload in the text it was checked in.
pub(crate) type Checked = (String, u64, Range<usize>);

/// Verifies every line of a segment's text, which ends with a newline,
/// the way [`decode_line`] does, but builds no payload: `None` if any
/// line is corrupt, else each line's [`Checked`] parts. A payload range
/// is one that [`serde_json::from_str`] is certain to accept.
pub(crate) fn check_segment(text: &str) -> Option<Vec<Checked>> {
    let mut start = 0;
    let lines: Vec<(usize, &str, u64)> = text
        .split_inclusive('\n')
        .map(|raw| {
            let offset = start;
            start += raw.len();
            // As `str::lines`: a line ends at `\n` or `\r\n`.
            let line = raw.strip_suffix('\n').unwrap_or(raw);
            let (body, sum) = split_sum(line.strip_suffix('\r').unwrap_or(line))?;
            Some((offset, body, sum))
        })
        .collect::<Option<_>>()?;
    if !lines.chunks(4).all(sums_match) {
        return None;
    }
    lines
        .into_iter()
        .map(|(offset, body, _)| {
            let (key, stamp, payload) = check_body(body)?;
            Some((key, stamp, offset + payload.start..offset + payload.end))
        })
        .collect()
}

/// Splits a line into the body its checksum covers and the checksum it
/// claims. The writer hashed `body` + `}`, then closed the line with the
/// fixed 26-byte `,"sum":"<16 lowercase hex>"}` instead of that `}`.
fn split_sum(line: &str) -> Option<(&str, u64)> {
    let (body, suffix) = line.split_at_checked(line.len().checked_sub(26)?)?;
    let hex = suffix.strip_prefix(",\"sum\":\"")?.strip_suffix("\"}")?;
    // Sixteen lowercase hex digits name one number, and name it the way
    // the writer's `{:016x}` does.
    let lowercase = hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    Some((body, u64::from_str_radix(hex, 16).ok().filter(|_| lowercase)?))
}

/// Whether each of up to four `(offset, body, sum)` lines hashes to the
/// checksum it claims (FNV-1a-64 of the body followed by `}`).
fn sums_match(lines: &[(usize, &str, u64)]) -> bool {
    let mut bodies = [&b""[..]; 4];
    for (slot, (_, body, _)) in bodies.iter_mut().zip(lines) {
        *slot = body.as_bytes();
    }
    let hashes = fnv1a64_x4(bodies);
    lines.iter().zip(hashes).all(|(&(_, _, sum), hash)| fnv1a64_continue(hash, b"}") == sum)
}

/// Verifies the rest of a line whose checksum matched: the frame
/// `{"key":<string>,"stamp":<u64>,"payload":` byte for byte as
/// [`encode_line`] writes it (no whitespace, no leading zero, the key in
/// the writer's escaping), then the payload's JSON syntax, by
/// [`serde_json::validate`]. Whitespace inside the payload is accepted,
/// around it (where the writer puts none) it is not. Returns the key,
/// the stamp and the payload's byte range in `body`.
fn check_body(body: &str) -> Option<Checked> {
    let rest = body.strip_prefix("{\"key\":")?;
    let (Value::String(key), len) = serde_json::from_str_prefix(rest).ok()? else { return None };
    // Only a key with an escape or a control byte can be spelled other
    // than the writer spells it.
    let token = &rest[..len];
    if token.bytes().any(|b| b == b'\\' || b < 0x20) && serde_json::to_string(&key).ok()? != token {
        return None;
    }
    let rest = rest[len..].strip_prefix(",\"stamp\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if digits > 1 && rest.starts_with('0') {
        return None;
    }
    let stamp = rest[..digits].parse().ok()?;
    let payload = rest[digits..].strip_prefix(",\"payload\":")?;
    if payload.trim_ascii().len() != payload.len() {
        return None;
    }
    serde_json::validate(payload).ok()?;
    Some((key, stamp, body.len() - payload.len()..body.len()))
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
            // The writer prints a stamp without sign or leading zero...
            r#"{"key":"k","stamp":01,"payload":null}"#,
            r#"{"key":"k","stamp":-0,"payload":null}"#,
            r#"{"key":"k","stamp":1.0,"payload":null}"#,
            r#"{"key":"k","stamp":18446744073709551616,"payload":null}"#,
            // ...puts no whitespace between frame tokens or around the payload...
            r#"{ "key":"k","stamp":1,"payload":null}"#,
            r#"{"key": "k","stamp":1,"payload":null}"#,
            r#"{"key":"k" ,"stamp":1,"payload":null}"#,
            r#"{"key":"k","stamp": 1,"payload":null}"#,
            r#"{"key":"k","stamp":1 ,"payload":null}"#,
            r#"{"key":"k","stamp":1,"payload": null}"#,
            r#"{"key":"k","stamp":1,"payload":null }"#,
            // ...and escapes a key only where it must.
            r#"{"key":"\u006b","stamp":1,"payload":null}"#,
            r#"{"key":"k\/","stamp":1,"payload":null}"#,
            "{\"key\":\"k\tk\",\"stamp\":1,\"payload\":null}",
            // A payload must be one JSON document.
            r#"{"key":"k","stamp":1,"payload":nul}"#,
            r#"{"key":"k","stamp":1,"payload":null null}"#,
            r#"{"key":"k","stamp":1,"payload":"\ud83d"}"#,
        ] {
            let line = self_consistent_line(body);
            assert_eq!(decode_line(&line), None, "{body}");
            // Open rejects it too, with no payload parse to fall back on.
            assert_eq!(check_segment(&format!("{line}\n")), None, "{body}");
        }
        // The checksum covers the bytes as written, not a re-serialization.
        assert_eq!(decode_line(&good.replace(":null", ": null")), None);
        // Whitespace inside the payload is still accepted, and keys with
        // characters the writer escapes round-trip.
        let spaced = self_consistent_line(r#"{"key":"k","stamp":1,"payload":{"a": [1, 2]}}"#);
        let payload = serde_json::json!({"a": serde_json::json!([1u64, 2u64])});
        assert_eq!(decode_line(&spaced), Some(Entry { key: "k".into(), stamp: 1, payload }));
        for key in ["k\"\\\n\t\r\u{1}é/", "", "0"] {
            let e = Entry { key: key.into(), stamp: 0, payload: Value::Null };
            assert_eq!(decode_line(&encode_line(&e)), Some(e), "{key:?}");
        }
    }

    #[test]
    fn check_segment_verifies_every_line_in_every_lane() {
        // Lines of six lengths: one full group of four hashed side by
        // side over their common length, then a partial group.
        let lines: Vec<String> = (0..6u64)
            .map(|i| {
                let key = format!("k{}", "x".repeat(7 * i as usize));
                encode_line(&Entry { key, stamp: i, payload: serde_json::json!([i]) })
            })
            .collect();
        let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
        let checked = check_segment(&text).unwrap();
        for ((key, stamp, payload), line) in checked.iter().zip(&lines) {
            let parsed = serde_json::from_str(&text[payload.clone()]).unwrap();
            let e = Entry { key: key.clone(), stamp: *stamp, payload: parsed };
            assert_eq!(decode_line(line), Some(e));
        }
        // `\r\n` ends a line too, as it did when segments were read by
        // `str::lines`.
        let crlf = check_segment(&text.replace('\n', "\r\n")).unwrap();
        let keys = |c: &[Checked]| c.iter().map(|(key, _, _)| key.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&crlf), keys(&checked));
        let mut bytes = text.into_bytes();
        for at in 0..bytes.len() {
            bytes[at] ^= 1;
            if let Ok(mutant) = std::str::from_utf8(&bytes) {
                assert_eq!(check_segment(mutant), None, "byte {at} flipped");
            }
            bytes[at] ^= 1;
        }
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
