//! Per-layer metrics of the traced run, named for the module each
//! layer lives in. README.md lists which end-to-end metric each one
//! should move and the workload where the prediction is no change.

use crate::replay::Counts;
use crate::trace::Summary;
use crate::{metric, Metric};

/// What the per-layer metrics are computed from.
pub struct Input<'a> {
    /// Spans inside the traced calls' wall time.
    pub timed: &'a Summary,
    /// Those plus the traced preparation's spans.
    pub all: &'a Summary,
    /// Counts of one traced call (they repeat exactly).
    pub per_call: &'a Counts,
    /// Counts of the preparation and every traced call.
    pub totals: &'a Counts,
    /// Summed wall time of the traced calls, in seconds.
    pub traced_wall: f64,
    /// Threads the calls ran on.
    pub threads: f64,
    /// Traced wall ÷ untraced wall − 1, per call.
    pub trace_overhead: f64,
}

/// Span names that belong to a layer, with the share metric their self
/// time is reported under. Self time outside these is the fleet's own
/// (pool, collector, aggregation, idle workers).
const LAYER_SHARES: [(&str, &[&str]); 9] = [
    ("graph.gen_share", &["graph.gen"]),
    ("core.exec_share", &["core.exec"]),
    ("net.share", &["net.run"]),
    ("verify.share", &["verify"]),
    ("fleet.cache.share", &["fleet.cache.encode", "fleet.cache.decode"]),
    ("store.share", &["store.open", "store.get", "store.append"]),
    ("fleet.dynamic.churn_share", &["fleet.dynamic.churn"]),
    // `IncrementalRepairer::new` converts the phase graph for absorbing.
    ("fleet.dynamic.absorb_share", &["fleet.dynamic.new", "fleet.dynamic.absorb"]),
    ("fleet.dynamic.finish_share", &["fleet.dynamic.finish"]),
];

/// The algorithms the engine runs, by CLI name.
const ENGINE_ALGOS: [&str; 6] = ["alg1", "alg2", "luby-a", "luby-b", "greedy", "ghaffari"];

/// Calls a timing needs before its p90 is printed in the table.
const P90_MIN_CALLS: usize = 100;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, plus the table of span timings printed
/// before them.
pub fn metrics(i: &Input) -> (Vec<Metric>, Vec<String>) {
    let capacity = i.traced_wall * i.threads;
    let self_secs = |names: &[&str], s: &Summary| names.iter().map(|n| s.self_secs(n)).sum::<f64>();
    let rate = |count: u64, name: &str| ratio(count as f64, i.all.self_secs(name));
    let q = |name: &str, p: f64, scale: f64| i.all.quantile(name, p) * scale;
    let (ms, us) = (1e3, 1e6);
    let c = i.per_call;

    let mut m = vec![
        metric("graph.gen_ms_p50", q("graph.gen", 0.5, ms), "ms"),
        metric("graph.gen_ms_p90", q("graph.gen", 0.9, ms), "ms"),
        metric("graph.gen_edges_per_s", rate(i.totals.gen_edges, "graph.gen"), "edges/s"),
        metric("core.exec_ms_p50", q("core.exec", 0.5, ms), "ms"),
        metric("core.exec_ms_p90", q("core.exec", 0.9, ms), "ms"),
        metric("core.exec_nodes_per_s", rate(i.totals.exec_nodes, "core.exec"), "nodes/s"),
        metric("net.run_ms_p50", q("net.run", 0.5, ms), "ms"),
        metric("net.run_ms_p90", q("net.run", 0.9, ms), "ms"),
    ];
    for algo in ENGINE_ALGOS {
        let p50 = i.all.tagged_quantile("net.run", algo, 0.5) * ms;
        m.push(metric(format!("net.{algo}.run_ms_p50"), p50, "ms"));
    }
    m.extend([
        metric("net.messages_per_s", rate(i.totals.net_messages, "net.run"), "msgs/s"),
        metric(
            "net.awake_node_rounds_per_s",
            rate(i.totals.net_awake_node_rounds, "net.run"),
            "node-rounds/s",
        ),
        metric("net.active_rounds", c.net_active_rounds as f64, "rounds"),
        metric("net.messages", c.net_messages as f64, "msgs"),
        metric(
            "net.delivered_ratio",
            ratio(c.net_delivered as f64, c.net_messages as f64),
            "ratio",
        ),
        metric("verify.ms_p50", q("verify", 0.5, ms), "ms"),
        metric("verify.edges_per_s", rate(i.totals.verify_edges, "verify"), "edges/s"),
        metric("fleet.cache.encode_us_p50", q("fleet.cache.encode", 0.5, us), "us"),
        metric("fleet.cache.decode_us_p50", q("fleet.cache.decode", 0.5, us), "us"),
        metric("store.open_ms_p50", q("store.open", 0.5, ms), "ms"),
        metric(
            "store.open_mb_per_s",
            ratio(i.totals.store_open_bytes as f64 / 1e6, i.all.self_secs("store.open")),
            "MB/s",
        ),
        metric("store.entries_loaded", c.store_entries_loaded as f64, "entries"),
        metric(
            "store.match_ratio",
            ratio(c.store_hits as f64, c.store_entries_loaded as f64),
            "ratio",
        ),
        metric("store.get_us_p50", q("store.get", 0.5, us), "us"),
        metric("store.append_ms_p50", q("store.append", 0.5, ms), "ms"),
        metric(
            "store.append_records_per_s",
            rate(i.totals.store_appended, "store.append"),
            "records/s",
        ),
        metric("store.bytes", c.store_bytes as f64, "bytes"),
        metric("fleet.dynamic.churn_ms_p50", q("fleet.dynamic.churn", 0.5, ms), "ms"),
        metric("fleet.dynamic.absorb_us_p50", q("fleet.dynamic.absorb", 0.5, us), "us"),
        metric("fleet.dynamic.absorb_us_p90", q("fleet.dynamic.absorb", 0.9, us), "us"),
        metric(
            "fleet.dynamic.events_per_s",
            rate(i.totals.events, "fleet.dynamic.absorb"),
            "events/s",
        ),
        metric("fleet.dynamic.finish_ms_p50", q("fleet.dynamic.finish", 0.5, ms), "ms"),
        metric("fleet.dynamic.events", c.events as f64, "events"),
        metric(
            "fleet.dynamic.zero_scope_ratio",
            ratio(c.zero_scope as f64, c.events as f64),
            "ratio",
        ),
    ]);
    let mut attributed = 0.0;
    for (name, spans) in LAYER_SHARES {
        let share = ratio(self_secs(spans, i.timed), capacity);
        attributed += share;
        m.push(metric(name, share, "ratio"));
    }
    m.push(metric("fleet.unattributed_share", 1.0 - attributed, "ratio"));
    m.push(metric("bench.trace_overhead", i.trace_overhead, "ratio"));

    let mut table = vec![format!(
        "{:<22} {:>8} {:>12} {:>12} {:>10} {:>7}",
        "span", "calls", "p50_ms", "p90_ms", "self_s", "share"
    )];
    for (_, spans) in LAYER_SHARES {
        for &name in spans {
            let calls = i.all.calls(name);
            if calls == 0 {
                continue;
            }
            let p90 = if calls >= P90_MIN_CALLS {
                format!("{:.4}", q(name, 0.9, ms))
            } else {
                "-".to_string()
            };
            table.push(format!(
                "{name:<22} {calls:>8} {:>12.4} {p90:>12} {:>10.4} {:>7.4}",
                q(name, 0.5, ms),
                i.all.self_secs(name),
                ratio(i.timed.self_secs(name), capacity)
            ));
        }
    }
    table.push(format!(
        "traced wall {:.4} s x {} threads; unattributed share {:.4}",
        i.traced_wall,
        i.threads,
        1.0 - attributed
    ));
    (m, table)
}
