//! # sleepy
//!
//! A from-scratch Rust reproduction of *"Sleeping is Efficient: MIS in
//! O(1)-rounds Node-averaged Awake Complexity"* (Chatterjee, Gmyr,
//! Pandurangan, PODC 2020) — the paper that introduced the **sleeping
//! model** of distributed computing and showed that maximal independent
//! set can be computed with **O(1) expected awake rounds per node**.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`graph`] — port-numbered CSR graphs and seeded workload generators
//!   (G(n,p), random regular, geometric/sensor, power-law, trees, …).
//! * [`net`] — the synchronous CONGEST **sleeping-model engine**:
//!   send/receive rounds, sleep/wake scheduling with message dropping,
//!   event-driven skipping of all-asleep rounds, awake/round metrics, and
//!   an energy model.
//! * [`mis`] — the paper's algorithms: `SleepingMIS` (Algorithm 1) and
//!   `Fast-SleepingMIS` (Algorithm 2), both as message-passing protocols
//!   and as an exact combinatorial executor, plus rank/schedule/recursion-
//!   tree tooling.
//! * [`baselines`] — Luby A/B, randomized greedy (CRT/Fischer–Noever) and
//!   Ghaffari'16, on the same engine for comparable metrics.
//! * [`verify`] — MIS checkers and lexicographically-first MIS references
//!   (Corollary 1).
//! * [`stats`] — summaries, streaming moment accumulators, growth-shape
//!   fits, table rendering.
//! * [`store`] — the persistent content-addressed result store:
//!   append-only self-checking JSONL segments, crash-safe manifests,
//!   TTL/GC compaction, and multi-process merge.
//! * [`fleet`] — the parallel batch-execution runtime: declarative
//!   `JobSpec`/`TrialPlan` sweeps, SplitMix64 seed streams, a
//!   work-stealing worker pool with deterministic (thread-count
//!   invariant) output, JSONL/CSV/JSON result sinks, the persistent
//!   result cache, multi-process sharding, and the `fleet` CLI.
//! * [`harness`] — the experiments regenerating every table and figure of
//!   the paper, running their trial loops on the fleet.
//!
//! ## Quickstart
//!
//! ```
//! use sleepy::graph::generators;
//! use sleepy::mis::{execute_sleeping_mis, MisConfig};
//! use sleepy::verify::verify_mis;
//!
//! // A 10k-node sparse random graph.
//! let g = generators::gnp_avg_degree(10_000, 8.0, 42).unwrap();
//! // Run Algorithm 1 (exact executor; bit-identical to the protocol).
//! let out = execute_sleeping_mis(&g, MisConfig::alg1(42))?;
//! verify_mis(&g, &out.in_mis).expect("a valid MIS");
//!
//! let s = out.summary();
//! assert!(s.node_avg_awake < 12.0);           // O(1) average awake rounds
//! assert!(s.worst_awake <= 3 * (40 + 1));     // <= 3(K+1), K = ceil(3 log2 n)
//! # Ok::<(), sleepy::mis::MisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sleepy_baselines as baselines;
pub use sleepy_fleet as fleet;
pub use sleepy_graph as graph;
pub use sleepy_harness as harness;
pub use sleepy_mis as mis;
pub use sleepy_net as net;
pub use sleepy_stats as stats;
pub use sleepy_store as store;
pub use sleepy_verify as verify;
