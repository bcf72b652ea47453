//! Thread-scaling demonstration of the fleet runtime on the acceptance
//! sweep: the six standard graph families × both paper algorithms × two
//! baselines, ≥ 1000 trials total. Runs the identical plan at several
//! thread counts in interleaved passes (1, 2, 4, 8 threads, then again),
//! asserts every pass's aggregate report is byte-identical to the first,
//! and prints each thread count's median wall clock with its min–max.
//!
//! ```text
//! cargo run --release --example fleet_speedup
//! ```
//!
//! The output of a run of this example is checked in at
//! `docs/fleet_speedup.txt` (regenerate on your hardware; the speedup
//! column is only meaningful on a multi-core machine).

use sleepy::baselines::BaselineKind;
use sleepy::fleet::{run_plan, standard_families, AlgoKind, Execution, FleetConfig, TrialPlan};
use sleepy::stats::TextTable;

/// Passes over all thread counts. One ~0.2 s sweep per sample swings
/// by tens of percent on a shared host; a median of seven interleaved
/// samples does not, and interleaving spreads slow spells evenly.
const PASSES: usize = 7;

fn main() {
    let algos = [
        AlgoKind::SleepingMis,
        AlgoKind::FastSleepingMis,
        AlgoKind::Baseline(BaselineKind::LubyB),
        AlgoKind::Baseline(BaselineKind::GreedyCrt),
    ];
    let plan = TrialPlan::sweep(&standard_families(), &[256], &algos, 42, 0x5CA1E, Execution::Auto);
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    println!(
        "fleet speedup sweep: {} jobs ({} families x {} algorithms), {} trials total, {} cores available",
        plan.jobs.len(),
        standard_families().len(),
        algos.len(),
        plan.total_trials(),
        cores,
    );

    let thread_counts = [1usize, 2, 4, 8];
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); thread_counts.len()];
    let mut reference_report = None;
    for pass in 0..PASSES {
        for (secs, &threads) in samples.iter_mut().zip(&thread_counts) {
            let out =
                run_plan(&plan, &FleetConfig::with_threads(threads)).expect("fleet sweep runs");
            assert_eq!(out.total_trials, plan.total_trials());
            let report = serde_json::to_string(&out.report(&plan)).expect("serializes");
            match &reference_report {
                None => reference_report = Some(report),
                Some(reference) => {
                    assert_eq!(
                        reference, &report,
                        "aggregates differ at {threads} threads, pass {pass}"
                    );
                }
            }
            secs.push(out.elapsed.as_secs_f64());
        }
    }

    let mut table =
        TextTable::new(vec!["threads", "median wall clock", "min-max", "speedup vs 1 thread"]);
    let mut baseline_secs = None;
    for (secs, threads) in samples.iter_mut().zip(thread_counts) {
        secs.sort_by(f64::total_cmp);
        let median = secs[secs.len() / 2];
        let speedup = baseline_secs.get_or_insert(median);
        table.row(vec![
            threads.to_string(),
            format!("{median:.3} s"),
            format!("{:.3}-{:.3} s", secs[0], secs[secs.len() - 1]),
            format!("{:.2}x", *speedup / median),
        ]);
    }
    println!("{}", table.render());
    println!("{PASSES} interleaved passes per thread count; speedup compares medians");
    println!("aggregate reports byte-identical across all thread counts and passes: YES");
    if cores < 8 {
        println!(
            "note: only {cores} core(s) available here — rerun on an 8-core machine to see \
             the parallel speedup (the determinism assertion holds regardless)."
        );
    }
}
