//! In-memory spans for the traced run.
//!
//! The traced run calls each layer's public function from the
//! benchmark's own code and wraps every call in one span: name, start,
//! end and parent. Spans stay in memory until the run ends. A layer's
//! self time is the duration of its spans minus the part their child
//! spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Reads the clock: every timing the benchmark reports starts here.
pub fn now() -> Instant {
    // sleepy-lint: allow(no-wall-clock): timing is the benchmark's job; no report
    // byte it compares depends on the clock.
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// One call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `graph.gen`.
    pub name: &'static str,
    /// Sub-key within the name (the algorithm for engine runs), or "".
    pub tag: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread of work. Worker threads record into
/// their own logs, which the collecting thread [`adopt`](Self::adopt)s.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog { epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// The epoch this log's timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn stamp(&self) -> u64 {
        now().saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, tag: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.stamp();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, tag, start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.stamp();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_tagged(name, "", f)
    }

    /// Runs `f` inside a tagged span.
    pub fn time_tagged<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, tag);
        let out = f();
        self.exit(id);
        out
    }

    /// Moves the spans of a log recorded on another thread into this
    /// one. Its root spans stay roots: they ran beside this thread's
    /// spans, not inside them.
    pub fn adopt(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON Lines, one object per span; `parent`
    /// is the `id` of the enclosing span.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Durations and self time of every span name in a set of spans.
#[derive(Debug, Default)]
pub struct Summary {
    durations: BTreeMap<(&'static str, &'static str), Vec<u64>>,
    self_ns: BTreeMap<&'static str, u64>,
}

impl Summary {
    /// Summarizes `spans` (parents index into the same slice).
    pub fn of(spans: &[Span]) -> Self {
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let mut summary = Summary::default();
        for (s, child) in spans.iter().zip(covered) {
            summary.durations.entry((s.name, s.tag)).or_default().push(s.dur_ns());
            *summary.self_ns.entry(s.name).or_default() += s.dur_ns().saturating_sub(child);
        }
        for d in summary.durations.values_mut() {
            d.sort_unstable();
        }
        summary
    }

    fn all(&self, name: &str) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .durations
            .iter()
            .filter(|((n, _), _)| *n == name)
            .flat_map(|(_, d)| d.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// Calls recorded under `name` (any tag).
    pub fn calls(&self, name: &str) -> usize {
        self.durations.iter().filter(|((n, _), _)| *n == name).map(|(_, d)| d.len()).sum()
    }

    /// Nearest-rank quantile `q` of `name`'s call durations in seconds
    /// (0 when there were no calls).
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        nearest_rank(&self.all(name), q)
    }

    /// Nearest-rank quantile of the calls of `name` tagged `tag`.
    pub fn tagged_quantile(&self, name: &'static str, tag: &'static str, q: f64) -> f64 {
        self.durations.get(&(name, tag)).map_or(0.0, |d| nearest_rank(d, q))
    }

    /// Summed self time of `name`'s spans, in seconds.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }
}

/// Nearest-rank quantile of sorted nanosecond durations, in seconds.
fn nearest_rank(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, tag: "", start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("trial", 0, 100, None),
            span("graph.gen", 10, 40, Some(0)),
            span("verify", 50, 70, Some(0)),
            span("store.get", 55, 60, Some(2)),
        ];
        let s = Summary::of(&spans);
        assert_eq!(s.self_ns["trial"], 50);
        assert_eq!(s.self_ns["graph.gen"], 30);
        assert_eq!(s.self_ns["verify"], 15);
        assert_eq!(s.self_ns["store.get"], 5);
        assert_eq!(s.calls("verify"), 1);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let d: Vec<u64> = (1..=10).map(|x| x * 1_000_000_000).collect();
        assert_eq!(nearest_rank(&d, 0.5), 5.0);
        assert_eq!(nearest_rank(&d, 0.9), 9.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn adopted_roots_stay_roots() {
        let epoch = now();
        let mut main = SpanLog::new(epoch);
        let plan = main.enter("plan", "");
        let mut worker = SpanLog::new(epoch);
        let trial = worker.enter("trial", "");
        worker.time("graph.gen", || ());
        worker.exit(trial);
        main.adopt(worker);
        main.exit(plan);
        let spans = main.spans();
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        let mut jsonl = Vec::new();
        main.write_jsonl(&mut jsonl).unwrap();
        assert_eq!(String::from_utf8(jsonl).unwrap().lines().count(), 3);
    }
}
