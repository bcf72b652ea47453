//! Plan files: serialize a [`TrialPlan`] to JSON and read it back.
//!
//! The multi-process coordinator hands each worker process the *exact*
//! plan (job order included — trial seeds depend on job position), via
//! a `plan.json` written next to the store. Writing uses the derived
//! serializer; reading is a hand-rolled decoder over the JSON value
//! tree, because the vendored offline `serde` stand-in has no typed
//! deserialization. Floats (graph-family parameters) round-trip
//! bit-exactly: they are printed in shortest-round-trip form.

use crate::error::FleetError;
use crate::measure::{AlgoKind, Execution};
use crate::spec::{JobSpec, TrialPlan};
use crate::workload::Workload;
use serde::Value;
use sleepy_baselines::BaselineKind;
use sleepy_graph::GraphFamily;

/// Renders a plan as pretty JSON (the `plan.json` format).
pub fn plan_to_json(plan: &TrialPlan) -> String {
    serde_json::to_string_pretty(plan).expect("plan serializes")
}

/// Parses a `plan.json` document back into a [`TrialPlan`].
///
/// # Errors
///
/// [`FleetError::Config`] describing the first malformed element.
pub fn plan_from_json(text: &str) -> Result<TrialPlan, FleetError> {
    let bad = |what: &str| FleetError::Config(format!("plan file: bad or missing {what}"));
    let v = serde_json::from_str(text)
        .map_err(|e| FleetError::Config(format!("plan file is not JSON: {e}")))?;
    let base_seed = v.get("base_seed").and_then(Value::as_u64).ok_or_else(|| bad("base_seed"))?;
    let jobs_v = v.get("jobs").and_then(Value::as_array).ok_or_else(|| bad("jobs"))?;
    let mut jobs = Vec::with_capacity(jobs_v.len());
    for (i, j) in jobs_v.iter().enumerate() {
        jobs.push(job_from_value(j).ok_or_else(|| bad(&format!("jobs[{i}]")))?);
    }
    Ok(TrialPlan { jobs, base_seed })
}

fn job_from_value(v: &Value) -> Option<JobSpec> {
    let w = v.get("workload")?;
    let workload = Workload {
        family: family_from_value(w.get("family")?).filter(|f| f.validate().is_ok())?,
        n: w.get("n")?.as_u64()? as usize,
    };
    Some(JobSpec {
        workload,
        algo: algo_from_value(v.get("algo")?)?,
        trials: v.get("trials")?.as_u64()? as usize,
        execution: match v.get("execution")?.as_str()? {
            "Auto" => Execution::Auto,
            "ForceEngine" => Execution::ForceEngine,
            _ => return None,
        },
    })
}

/// Decodes the derived enum encoding: unit variants are their name as a
/// string, tuple variants are a single-key object.
fn family_from_value(v: &Value) -> Option<GraphFamily> {
    if let Some(name) = v.as_str() {
        return match name {
            "Tree" => Some(GraphFamily::Tree),
            "Cycle" => Some(GraphFamily::Cycle),
            "Path" => Some(GraphFamily::Path),
            "Star" => Some(GraphFamily::Star),
            "Clique" => Some(GraphFamily::Clique),
            "Grid2d" => Some(GraphFamily::Grid2d),
            "Hypercube" => Some(GraphFamily::Hypercube),
            "Empty" => Some(GraphFamily::Empty),
            _ => None,
        };
    }
    let float = |name: &str| v.get(name).and_then(Value::as_f64);
    let int = |name: &str| v.get(name).and_then(Value::as_u64).map(|u| u as usize);
    if let Some(d) = float("GnpAvgDeg") {
        Some(GraphFamily::GnpAvgDeg(d))
    } else if let Some(c) = float("GnpLogDensity") {
        Some(GraphFamily::GnpLogDensity(c))
    } else if let Some(d) = float("GeometricAvgDeg") {
        Some(GraphFamily::GeometricAvgDeg(d))
    } else if let Some(d) = int("RandomRegular") {
        Some(GraphFamily::RandomRegular(d))
    } else {
        int("BarabasiAlbert").map(GraphFamily::BarabasiAlbert)
    }
}

fn algo_from_value(v: &Value) -> Option<AlgoKind> {
    if let Some(name) = v.as_str() {
        return match name {
            "SleepingMis" => Some(AlgoKind::SleepingMis),
            "FastSleepingMis" => Some(AlgoKind::FastSleepingMis),
            _ => None,
        };
    }
    match v.get("Baseline")?.as_str()? {
        "LubyA" => Some(AlgoKind::Baseline(BaselineKind::LubyA)),
        "LubyB" => Some(AlgoKind::Baseline(BaselineKind::LubyB)),
        "GreedyCrt" => Some(AlgoKind::Baseline(BaselineKind::GreedyCrt)),
        "Ghaffari" => Some(AlgoKind::Baseline(BaselineKind::Ghaffari)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::ALL_ALGOS;

    fn full_plan() -> TrialPlan {
        // Every family (including awkward f64 params) × every algorithm.
        let families = [
            GraphFamily::GnpAvgDeg(8.0 + f64::EPSILON * 8.0),
            GraphFamily::GnpLogDensity(1.5),
            GraphFamily::RandomRegular(4),
            GraphFamily::GeometricAvgDeg(7.25),
            GraphFamily::BarabasiAlbert(3),
            GraphFamily::Tree,
            GraphFamily::Cycle,
            GraphFamily::Path,
            GraphFamily::Star,
            GraphFamily::Clique,
            GraphFamily::Grid2d,
            GraphFamily::Hypercube,
            GraphFamily::Empty,
        ];
        let mut plan = TrialPlan::new(0xFEED_BEEF_1234_5678);
        for (i, &family) in families.iter().enumerate() {
            let mut job =
                JobSpec::new(Workload::new(family, 16 + i), ALL_ALGOS[i % ALL_ALGOS.len()], i);
            if i % 2 == 0 {
                job.execution = Execution::ForceEngine;
            }
            plan.push(job);
        }
        plan
    }

    #[test]
    fn plan_round_trips_with_identical_keys() {
        let plan = full_plan();
        let text = plan_to_json(&plan);
        let back = plan_from_json(&text).unwrap();
        assert_eq!(back.base_seed, plan.base_seed);
        assert_eq!(back.jobs.len(), plan.jobs.len());
        for (a, b) in plan.jobs.iter().zip(&back.jobs) {
            // Content keys cover family (bit-exact f64 params), n, algo,
            // execution, and base seed.
            assert_eq!(a.key(plan.base_seed), b.key(back.base_seed));
            assert_eq!(a.trials, b.trials);
        }
        // And a second round trip is textually stable.
        assert_eq!(plan_to_json(&back), text);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        assert!(plan_from_json("not json").is_err());
        assert!(plan_from_json("{}").is_err());
        assert!(plan_from_json("{\"base_seed\": 1, \"jobs\": 3}").is_err());
        assert!(plan_from_json("{\"base_seed\": 1, \"jobs\": [{\"trials\": 1}]}").is_err());
        let err = plan_from_json("{\"jobs\": [], \"base_seed\": -1}").unwrap_err();
        assert!(err.to_string().contains("base_seed"), "{err}");
    }
}
