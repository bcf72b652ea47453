//! The four workloads. README.md records why each one exists.

use crate::replay;
use crate::trace::{now, secs_since};
use crate::{Args, Bench, Gates, Reference, Rep, Scale, Scratch, Tally, Traced};
use sleepy_fleet::sink::{PhaseRecord, PhaseSink, TrialRecord, TrialSink};
use sleepy_fleet::{
    run_dynamic_plan, run_dynamic_plan_with_sinks, run_plan_cached, standard_families, AlgoKind,
    DynamicFleetOutput, DynamicJobSpec, DynamicPlan, DynamicWorkload, Execution, FleetConfig,
    FleetError, FleetOutput, RepairStrategy, SeedStream, TrialPlan, Workload, ALL_ALGOS,
    SLEEPING_ALGOS,
};
use sleepy_graph::{ChurnModel, ChurnSpec, GraphFamily};
use sleepy_store::Store;
use std::path::{Path, PathBuf};

/// The workload named in `args`.
pub(crate) fn build(args: &Args) -> Box<dyn Bench> {
    let tiny = args.scale == Scale::Tiny;
    let seeds = SeedStream::new(args.seed);
    // The paper's sensor-network geometry, a power-law family and a tree
    // beside G(n,p): generation cost differs tenfold across them.
    let families = vec![
        GraphFamily::GnpAvgDeg(8.0),
        GraphFamily::GeometricAvgDeg(8.0),
        GraphFamily::BarabasiAlbert(3),
        GraphFamily::Tree,
    ];
    match args.workload.as_str() {
        "sweep-exec" => Box::new(Sweep {
            plan_of: SweepPlan {
                families,
                n: if tiny { 512 } else { 1 << 16 },
                algos: SLEEPING_ALGOS.to_vec(),
                trials: if tiny { 2 } else { 16 },
                execution: Execution::Auto,
                base_seed: seeds.seed(0),
            },
            threads: 2,
            store: true,
            plan: TrialPlan::new(0),
        }),
        "sweep-engine" => Box::new(Sweep {
            plan_of: SweepPlan {
                families,
                n: if tiny { 128 } else { 1 << 14 },
                algos: ALL_ALGOS.to_vec(),
                trials: if tiny { 1 } else { 2 },
                execution: Execution::ForceEngine,
                base_seed: seeds.seed(0),
            },
            threads: 1,
            store: false,
            plan: TrialPlan::new(0),
        }),
        "store-warm" => Box::new(Warm {
            plan_of: (0..3)
                .map(|k| SweepPlan {
                    families: standard_families(),
                    n: if tiny { 32 } else { 256 },
                    algos: SLEEPING_ALGOS.to_vec(),
                    trials: if tiny { 10 } else { 600 },
                    execution: Execution::Auto,
                    base_seed: seeds.seed(k),
                })
                .collect(),
            plans: Vec::new(),
            store_dir: None,
            cold: Vec::new(),
            fills_agree: true,
        }),
        "churn" => Box::new(Churn {
            n: if tiny { 256 } else { 1 << 14 },
            phases: if tiny { 3 } else { 6 },
            trials: if tiny { 1 } else { 4 },
            base_seed: seeds.seed(0),
            plan: DynamicPlan::new(0),
        }),
        other => unreachable!("Args::parse admits only known workloads, got {other}"),
    }
}

/// A static sweep's shape; [`SweepPlan::build`] is the timed plan
/// construction.
struct SweepPlan {
    families: Vec<GraphFamily>,
    n: usize,
    algos: Vec<AlgoKind>,
    trials: usize,
    execution: Execution,
    base_seed: u64,
}

impl SweepPlan {
    fn build(&self) -> TrialPlan {
        TrialPlan::sweep(
            &self.families,
            &[self.n],
            &self.algos,
            self.trials,
            self.base_seed,
            self.execution,
        )
    }
}

impl TrialSink for Tally {
    fn record(&mut self, trial: &TrialRecord<'_>) -> std::io::Result<()> {
        self.add_run(&trial.report.summary, true);
        Ok(())
    }
}

impl PhaseSink for Tally {
    fn record(&mut self, phase: &PhaseRecord<'_>) -> std::io::Result<()> {
        if phase.report.phase == 0 {
            self.add_run(&phase.report.report.summary, false);
        }
        for u in &phase.report.updates {
            self.update_awake += u.awake_sum;
            self.updates += 1.0;
        }
        Ok(())
    }
}

fn open(dir: &Path) -> Result<Store, String> {
    Store::open(dir).map_err(|e| format!("opening store {}: {e}", dir.display()))
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn bytes_or_error(r: Result<String, FleetError>) -> String {
    r.unwrap_or_else(|e| format!("error: {e}"))
}

/// A static call's outcome: an operation is a trial.
fn static_rep(plan: &TrialPlan, out: Result<FleetOutput, FleetError>, wall: f64) -> Rep {
    let attempted = plan.total_trials();
    match out {
        Ok(o) => Rep {
            wall,
            trials: o.total_trials,
            attempted,
            failed: o.aggregates.iter().map(|a| a.trials - a.valid_trials).sum(),
            hits: o.cache.hits,
            bytes: serde_json::to_string(&o.report(plan)).expect("report serializes"),
        },
        Err(e) => Rep {
            wall,
            trials: 0,
            attempted,
            failed: attempted,
            hits: 0,
            bytes: format!("error: {e}"),
        },
    }
}

/// `sweep-exec` and `sweep-engine`: one cold sweep per call.
struct Sweep {
    plan_of: SweepPlan,
    threads: usize,
    /// Each call records into a fresh store.
    store: bool,
    plan: TrialPlan,
}

impl Sweep {
    fn call(&self, dir: &Path, tally: Option<&mut Tally>) -> Result<Rep, String> {
        let mut store = if self.store { Some(open(dir)?) } else { None };
        let mut sinks: Vec<&mut dyn TrialSink> = Vec::new();
        if let Some(tally) = tally {
            sinks.push(tally);
        }
        let config = FleetConfig::with_threads(self.threads);
        let start = now();
        let out = run_plan_cached(&self.plan, &config, &mut sinks, store.as_mut(), true);
        let wall = secs_since(start);
        drop(store);
        remove(dir);
        Ok(static_rep(&self.plan, out, wall))
    }
}

impl Bench for Sweep {
    fn threads(&self) -> usize {
        self.threads
    }

    fn ops_per_call(&self) -> u64 {
        self.plan.total_trials()
    }

    fn verifications_per_call(&self) -> u64 {
        self.plan.total_trials()
    }

    fn setup(&mut self, scratch: &Scratch, rep: usize) -> Result<f64, String> {
        let dir = scratch.path(&format!("setup-{rep}"));
        let start = now();
        self.plan = self.plan_of.build();
        let store = if self.store { Some(open(&dir)?) } else { None };
        let secs = secs_since(start);
        drop(store);
        remove(&dir);
        Ok(secs)
    }

    fn reference(&mut self, scratch: &Scratch, _: &mut Gates) -> Result<Reference, String> {
        let mut tally = Tally::default();
        let rep = self.call(&scratch.path("reference"), Some(&mut tally))?;
        Ok(Reference {
            attempted: rep.attempted,
            failed: rep.failed,
            bytes: vec![rep.bytes],
            tally,
        })
    }

    fn timed(&mut self, scratch: &Scratch, i: usize) -> Result<Rep, String> {
        self.call(&scratch.path(&format!("call-{i}")), None)
    }

    fn traced(
        &mut self,
        scratch: &Scratch,
        i: usize,
        t: &mut Traced,
    ) -> Result<(String, f64), String> {
        let dir = scratch.path(&format!("traced-{i}"));
        let mut store = if self.store {
            let store = replay::open_store(&dir, &mut t.setup, &mut t.setup_counts);
            Some(store.map_err(|e| e.to_string())?)
        } else {
            None
        };
        let start = now();
        let bytes = replay::static_plan(
            &self.plan,
            self.threads,
            store.as_mut(),
            &mut t.timed,
            &mut t.counts,
        );
        let wall = secs_since(start);
        drop(store);
        remove(&dir);
        Ok((bytes_or_error(bytes), wall))
    }
}

/// `store-warm`: open a filled store and replay one of its sweeps.
struct Warm {
    plan_of: Vec<SweepPlan>,
    plans: Vec<TrialPlan>,
    /// The store the last preparation filled.
    store_dir: Option<PathBuf>,
    /// Each sweep's report bytes from the first cold fill.
    cold: Vec<String>,
    /// Every later fill reproduced `cold`.
    fills_agree: bool,
}

impl Warm {
    fn dir(&self) -> &Path {
        self.store_dir.as_deref().expect("setup filled a store")
    }
}

impl Bench for Warm {
    fn threads(&self) -> usize {
        1
    }

    fn ops_per_call(&self) -> u64 {
        self.plans[0].total_trials()
    }

    fn verifications_per_call(&self) -> u64 {
        0
    }

    fn variant(&self, i: usize) -> usize {
        i % self.plans.len()
    }

    fn expected_hits(&self, i: usize) -> u64 {
        self.plans[self.variant(i)].total_trials()
    }

    fn setup(&mut self, scratch: &Scratch, rep: usize) -> Result<f64, String> {
        let dir = scratch.path(&format!("fill-{rep}"));
        let config = FleetConfig::with_threads(1);
        let start = now();
        self.plans = self.plan_of.iter().map(SweepPlan::build).collect();
        let mut store = open(&dir)?;
        let mut bytes = Vec::new();
        for plan in &self.plans {
            let out = run_plan_cached(plan, &config, &mut [], Some(&mut store), true);
            bytes.push(static_rep(plan, out, 0.0).bytes);
        }
        let secs = secs_since(start);
        drop(store);
        if rep == 0 {
            self.cold = bytes;
        } else {
            self.fills_agree &= bytes == self.cold;
        }
        if let Some(old) = self.store_dir.replace(dir) {
            remove(&old);
        }
        Ok(secs)
    }

    fn reference(&mut self, _: &Scratch, gates: &mut Gates) -> Result<Reference, String> {
        gates.check("fill-repeat", self.fills_agree, || "cold fills disagree".into());
        let mut tally = Tally::default();
        let config = FleetConfig::with_threads(1);
        let mut warm_ok = true;
        let (mut attempted, mut failed) = (0, 0);
        for (plan, cold) in self.plans.iter().zip(&self.cold) {
            let mut store = open(self.dir())?;
            let out = run_plan_cached(plan, &config, &mut [&mut tally], Some(&mut store), true);
            let rep = static_rep(plan, out, 0.0);
            warm_ok &= rep.bytes == *cold && rep.hits == plan.total_trials();
            attempted += rep.attempted;
            failed += rep.failed;
        }
        gates.check("warm-equals-cold", warm_ok, || {
            "a warm replay's aggregates differ from its cold fill's, or it executed trials".into()
        });
        Ok(Reference { bytes: self.cold.clone(), tally, attempted, failed })
    }

    fn timed(&mut self, _: &Scratch, i: usize) -> Result<Rep, String> {
        let plan = &self.plans[self.variant(i)];
        let config = FleetConfig::with_threads(1);
        let start = now();
        let mut store = open(self.dir())?;
        let out = run_plan_cached(plan, &config, &mut [], Some(&mut store), true);
        let wall = secs_since(start);
        drop(store);
        Ok(static_rep(plan, out, wall))
    }

    fn traced_setup(
        &mut self,
        scratch: &Scratch,
        t: &mut Traced,
        reference: &Reference,
        gates: &mut Gates,
    ) -> Result<(), String> {
        let dir = scratch.path("traced-fill");
        let mut store = replay::open_store(&dir, &mut t.setup, &mut t.setup_counts)
            .map_err(|e| e.to_string())?;
        let mut same = true;
        for (plan, cold) in self.plans.iter().zip(&reference.bytes) {
            let bytes =
                replay::static_plan(plan, 1, Some(&mut store), &mut t.setup, &mut t.setup_counts);
            same &= bytes_or_error(bytes) == *cold;
        }
        drop(store);
        remove(&dir);
        gates.check("traced-fill-bytes", same, || "the traced cold fill's bytes differ".into());
        Ok(())
    }

    fn traced(&mut self, _: &Scratch, i: usize, t: &mut Traced) -> Result<(String, f64), String> {
        let plan = &self.plans[self.variant(i)];
        let dir = self.dir().to_path_buf();
        let start = now();
        let store = replay::open_store(&dir, &mut t.timed, &mut t.counts);
        let bytes = store.and_then(|mut store| {
            replay::static_plan(plan, 1, Some(&mut store), &mut t.timed, &mut t.counts)
        });
        let wall = secs_since(start);
        Ok((bytes_or_error(bytes), wall))
    }
}

/// `churn`: incremental repair under uniform and adversarial churn.
struct Churn {
    n: usize,
    phases: usize,
    trials: usize,
    base_seed: u64,
    plan: DynamicPlan,
}

impl Churn {
    fn build(&self) -> DynamicPlan {
        let mut plan = DynamicPlan::new(self.base_seed);
        for family in [GraphFamily::GnpAvgDeg(8.0), GraphFamily::GeometricAvgDeg(8.0)] {
            for model in [ChurnModel::Uniform, ChurnModel::Adversarial] {
                // The fleet CLI's default churn: edges ±5%, nodes ±2%,
                // arrivals bring 3 edges.
                let churn = ChurnSpec {
                    edge_delete_frac: 0.05,
                    edge_insert_frac: 0.05,
                    node_delete_frac: 0.02,
                    node_insert_frac: 0.02,
                    arrival_degree: 3,
                    model,
                };
                plan.push(DynamicJobSpec::new(
                    DynamicWorkload::new(Workload::new(family, self.n), self.phases, churn),
                    AlgoKind::SleepingMis,
                    RepairStrategy::Incremental,
                    self.trials,
                ));
            }
        }
        plan
    }

    /// A dynamic call's outcome: an operation is a churn phase. An
    /// invalid initial run (phase 0) counts as one more failed
    /// operation.
    fn rep(&self, out: Result<DynamicFleetOutput, FleetError>, wall: f64) -> Rep {
        let churn_phases = self.ops_per_call();
        match out {
            Ok(o) => {
                let invalid = |p: &sleepy_fleet::JobAggregate| p.trials - p.valid_trials;
                let initial: u64 = o.aggregates.iter().map(|a| invalid(&a.phases[0])).sum();
                let later: u64 =
                    o.aggregates.iter().flat_map(|a| &a.phases[1..]).map(invalid).sum();
                Rep {
                    wall,
                    trials: o.total_trials,
                    attempted: churn_phases + initial,
                    failed: later + initial,
                    hits: o.cache.hits,
                    bytes: serde_json::to_string(&o.report(&self.plan)).expect("report serializes"),
                }
            }
            Err(e) => Rep {
                wall,
                trials: 0,
                attempted: churn_phases,
                failed: churn_phases,
                hits: 0,
                bytes: format!("error: {e}"),
            },
        }
    }
}

impl Bench for Churn {
    fn threads(&self) -> usize {
        1
    }

    fn ops_per_call(&self) -> u64 {
        self.plan.total_trials() * (self.phases as u64 - 1)
    }

    fn verifications_per_call(&self) -> u64 {
        self.plan.total_trials() * self.phases as u64
    }

    fn setup(&mut self, _: &Scratch, _: usize) -> Result<f64, String> {
        let start = now();
        self.plan = self.build();
        Ok(secs_since(start))
    }

    fn reference(&mut self, _: &Scratch, _: &mut Gates) -> Result<Reference, String> {
        let mut tally = Tally::default();
        let out = run_dynamic_plan_with_sinks(
            &self.plan,
            &FleetConfig::with_threads(1),
            &mut [&mut tally],
        );
        let rep = self.rep(out, 0.0);
        Ok(Reference {
            attempted: rep.attempted,
            failed: rep.failed,
            bytes: vec![rep.bytes],
            tally,
        })
    }

    fn timed(&mut self, _: &Scratch, _: usize) -> Result<Rep, String> {
        let config = FleetConfig::with_threads(1);
        let start = now();
        let out = run_dynamic_plan(&self.plan, &config);
        let wall = secs_since(start);
        Ok(self.rep(out, wall))
    }

    fn traced(&mut self, _: &Scratch, _: usize, t: &mut Traced) -> Result<(String, f64), String> {
        let start = now();
        let bytes = replay::dynamic_plan(&self.plan, 1, &mut t.timed, &mut t.counts);
        Ok((bytes_or_error(bytes), secs_since(start)))
    }
}
