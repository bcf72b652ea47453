//! `plan_from_json` on hostile input: every single-byte replacement of
//! a small `plan.json` from an alphabet of structural bytes, and every
//! truncation of it, either parses or returns a `FleetError::Config`;
//! none may panic. A mutant that parses is a plan in its own right: it
//! re-serializes to text that parses back to the same plan.

use sleepy_fleet::{plan_from_json, plan_to_json, AlgoKind, Execution, FleetError, TrialPlan};
use sleepy_graph::GraphFamily;

/// JSON's structural bytes, plus one letter and one digit.
const ALPHABET: &[u8] = b"\"#=[]{},.:- \ne7";

/// Parses `text`; returns whether it was accepted. Fails the test with
/// the mutant's description on a panic, a non-`Config` error, or an
/// accepted plan that does not round-trip.
fn check(text: &str, what: &str) -> bool {
    match std::panic::catch_unwind(|| plan_from_json(text)) {
        Ok(Ok(plan)) => {
            let again = plan_to_json(&plan);
            let reparsed = plan_from_json(&again)
                .unwrap_or_else(|e| panic!("{what}: re-serialized plan fails to parse: {e}"));
            assert_eq!(plan_to_json(&reparsed), again, "{what}: plan does not round-trip");
            true
        }
        Ok(Err(FleetError::Config(_))) => false,
        Ok(Err(e)) => panic!("{what}: not a config error: {e:?}"),
        Err(_) => panic!("plan_from_json panicked on {what}"),
    }
}

#[test]
fn every_mutant_of_a_small_plan_parses_or_is_a_config_error() {
    let mut plan = TrialPlan::sweep(
        &[GraphFamily::GnpAvgDeg(6.5), GraphFamily::Tree],
        &[48],
        &[AlgoKind::SleepingMis, AlgoKind::FastSleepingMis],
        3,
        0x5EED,
        Execution::Auto,
    );
    plan.jobs[3].execution = Execution::ForceEngine;
    let original = plan_to_json(&plan).into_bytes();
    assert!(check(std::str::from_utf8(&original).unwrap(), "the unmutated plan"));
    let mut bytes = original.clone();
    let mut accepted = 0usize;
    for at in 0..original.len() {
        accepted += usize::from(check(std::str::from_utf8(&original[..at]).unwrap(), "truncation"));
        for &b in ALPHABET {
            bytes[at] = b;
            let what = format!("byte {at} := {:?}", b as char);
            accepted += usize::from(check(std::str::from_utf8(&bytes).unwrap(), &what));
        }
        bytes[at] = original[at];
    }
    // Replacing a byte by itself (and whitespace edits) must be accepted.
    assert!(accepted > original.len(), "only {accepted} mutants were accepted");
}
