//! `Tape::from_jsonl` and `replay_tape` on hostile input: every
//! single-byte replacement of two committed tapes from a small alphabet
//! of structural bytes, and every truncation of them, replays or fails
//! with a `TapeError`. None may panic.
//!
//! The suite does not ask that mutants be rejected. A v1 tape's end
//! record pins the outputs only, so a mutated input that leaves them
//! unchanged (a message's `bits`, `max_rounds`, a loss seed under zero
//! loss, the `label` stamp) still replays as OK.

use sleepy_net::{replay_tape, Tape};

/// JSON's structural bytes, plus one letter and one digit.
const ALPHABET: &[u8] = b"\"#=[]{},.:- \ne7";

/// Parses and replays `text`; returns whether the replay succeeded.
/// Fails the test with the mutant's description if either step panics.
fn replays(text: &str, what: &str) -> bool {
    match std::panic::catch_unwind(|| Tape::from_jsonl(text).and_then(|tape| replay_tape(&tape))) {
        Ok(outcome) => outcome.is_ok(),
        Err(_) => panic!("parsing or replaying {what} panicked"),
    }
}

/// Runs every mutant of the committed tape `name`.
fn mutate(name: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/tapes").join(name);
    let original = std::fs::read(path).expect("the tape is committed");
    assert!(replays(std::str::from_utf8(&original).unwrap(), name), "{name} must replay");
    let mut bytes = original.clone();
    let mut tried = 0usize;
    for at in 0..original.len() {
        if let Ok(text) = std::str::from_utf8(&original[..at]) {
            replays(text, &format!("{name} truncated to {at} bytes"));
            tried += 1;
        }
        for &b in ALPHABET {
            bytes[at] = b;
            if let Ok(text) = std::str::from_utf8(&bytes) {
                replays(text, &format!("{name} with byte {at} := {:?}", b as char));
                tried += 1;
            }
        }
        bytes[at] = original[at];
    }
    assert_eq!(tried, original.len() * (ALPHABET.len() + 1), "{name} is not ASCII");
}

#[test]
fn every_mutant_of_alg1_star8_replays_or_errors() {
    mutate("alg1_star8.jsonl");
}

#[test]
fn every_mutant_of_ghaffari_clique8_roundcap_replays_or_errors() {
    mutate("ghaffari_clique8_roundcap.jsonl");
}
