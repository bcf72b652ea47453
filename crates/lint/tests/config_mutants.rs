//! `Config::parse` on hostile input: every single-byte replacement of
//! the committed `lint.toml` from a small alphabet of structural bytes,
//! and every truncation of it, parses or returns a `line N: ...` error.
//! None may panic.

use sleepy_lint::Config;

/// TOML's structural bytes, plus one letter and one digit.
const ALPHABET: &[u8] = b"\"#=[]{},.:- \ne7";

/// Parses `text`, failing the test with the mutant's description if the
/// parser panics or returns an error without a line number.
fn check(text: &str, what: &str) {
    match std::panic::catch_unwind(|| Config::parse(text)) {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => {
            let line = e.strip_prefix("line ").and_then(|rest| rest.split_once(": "));
            let numbered = line.is_some_and(|(n, _)| n.parse::<usize>().is_ok_and(|n| n >= 1));
            assert!(numbered, "{what}: error without a line number: {e}");
        }
        Err(_) => panic!("Config::parse panicked on {what}"),
    }
}

#[test]
fn every_mutant_of_the_committed_config_parses_or_errors() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint.toml");
    let original = std::fs::read(path).expect("lint.toml is committed");
    Config::parse(std::str::from_utf8(&original).unwrap()).expect("the committed config parses");
    let mut bytes = original.clone();
    let mut tried = 0usize;
    for at in 0..original.len() {
        if let Ok(text) = std::str::from_utf8(&original[..at]) {
            check(text, &format!("truncation to {at} bytes"));
            tried += 1;
        }
        for &b in ALPHABET {
            bytes[at] = b;
            if let Ok(text) = std::str::from_utf8(&bytes) {
                check(text, &format!("byte {at} := {:?}", b as char));
                tried += 1;
            }
        }
        bytes[at] = original[at];
    }
    assert!(tried > 10 * original.len(), "only {tried} mutants were valid UTF-8");
}
