//! The worker pool: dynamic (work-stealing) shard claiming with
//! deterministic result ordering.
//!
//! Scheduling is dynamic — each worker claims the next unclaimed shard
//! from a shared atomic counter, so fast workers steal work the slow
//! ones never reach — but *results* are totally ordered by shard index:
//! the collector releases shard outputs strictly in order, holding at
//! most a bounded number of out-of-order shards in flight. Determinism
//! therefore never depends on thread count or timing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

/// Resolves a thread-count request: 0 means "all available cores".
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    }
}

/// The in-flight window every runner passes to [`run_shards_ordered`]:
/// two shard outputs per worker, so each worker can finish one shard
/// and start the next while the collector waits on the head shard.
pub(crate) fn in_flight_window(threads: usize) -> usize {
    2 * resolve_threads(threads)
}

/// Applies `f` to every index in `0..count` on `threads` workers
/// (0 = auto), returning results in index order and the smallest-index
/// error if any trial fails. This is the shared low-level primitive for
/// experiments whose trial bodies don't fit the declarative
/// [`TrialPlan`](crate::TrialPlan) form; the first error wins by *index*
/// (not by wall-clock), so error reporting is deterministic too.
///
/// # Errors
///
/// The error produced by the smallest failing index.
pub fn deterministic_map<T, E, F>(count: usize, threads: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let mut out = Vec::with_capacity(count);
    run_shards_ordered(count, threads, in_flight_window(threads), f, |_, v| {
        out.push(v);
        Ok(())
    })?;
    Ok(out)
}

/// A sliding-window gate bounding how far ahead of the in-order
/// emission frontier workers may run: shard `i` may start only once
/// `i < emitted + window`. The head shard (`i == emitted`) always
/// satisfies the predicate, so the pipeline can never deadlock, and at
/// most `window` shard outputs ever sit buffered ahead of the collector.
struct WindowGate {
    state: Mutex<GateState>,
    advanced: Condvar,
    window: usize,
}

struct GateState {
    emitted: usize,
    cancelled: bool,
}

impl WindowGate {
    fn new(window: usize) -> Self {
        WindowGate {
            state: Mutex::new(GateState { emitted: 0, cancelled: false }),
            advanced: Condvar::new(),
            window,
        }
    }

    /// Blocks until `shard` enters the window; `false` means the run
    /// was cancelled.
    fn wait_for(&self, shard: usize) -> bool {
        let mut s = self.state.lock().expect("gate poisoned");
        while !s.cancelled && shard >= s.emitted + self.window {
            s = self.advanced.wait(s).expect("gate poisoned");
        }
        !s.cancelled
    }

    /// Advances the emission frontier by one shard.
    fn advance(&self) {
        self.state.lock().expect("gate poisoned").emitted += 1;
        self.advanced.notify_all();
    }

    /// Cancels the run, releasing every waiting worker.
    fn cancel(&self) {
        self.state.lock().expect("gate poisoned").cancelled = true;
        self.advanced.notify_all();
    }
}

/// Runs `shard_count` shards on a worker pool and feeds each shard's
/// output to `collect` **in shard-index order**, regardless of which
/// worker finished it when. `run_shard` executes on worker threads;
/// `collect` executes on the calling thread. At most `max_in_flight`
/// shard outputs are buffered waiting for their turn; workers block
/// once the budget is exhausted, bounding memory.
///
/// # Errors
///
/// The error of the smallest-index failing shard.
pub fn run_shards_ordered<T, E, F, C>(
    shard_count: usize,
    threads: usize,
    max_in_flight: usize,
    run_shard: F,
    mut collect: C,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
    C: FnMut(usize, T) -> Result<(), E>,
{
    let workers = resolve_threads(threads).min(shard_count.max(1));
    sleepy_telemetry::gauge_max("pool.workers", workers as u64);
    if workers <= 1 || shard_count <= 1 {
        for i in 0..shard_count {
            let r = {
                let _span = sleepy_telemetry::span!("pool", "shard", {"shard": i});
                sleepy_telemetry::counter_add("pool.shards", 1);
                run_shard(i)
            };
            collect(i, r?)?;
        }
        return Ok(());
    }
    let gate = WindowGate::new(max_in_flight.max(workers));
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, Result<T, E>)>();
    let mut collect_err: Option<E> = None;
    let mut worker_err: Option<E> = None;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let gate = &gate;
            let next = &next;
            let stop = &stop;
            let run_shard = &run_shard;
            scope.spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= shard_count {
                    break;
                }
                if !gate.wait_for(i) {
                    break;
                }
                let _span = sleepy_telemetry::span!("pool", "shard", {"shard": i, "worker": w});
                sleepy_telemetry::counter_add("pool.shards", 1);
                // A "steal": dynamic claiming handed this shard to a
                // different worker than static round-robin would have.
                if i % workers != w {
                    sleepy_telemetry::counter_add("pool.steals", 1);
                }
                let r = run_shard(i);
                if r.is_err() {
                    stop.store(true, Ordering::Relaxed);
                }
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // In-order collection: hold out-of-order shards until their
        // predecessors arrive.
        let mut pending: BTreeMap<usize, Result<T, E>> = BTreeMap::new();
        let mut next_emit = 0usize;
        for (i, r) in rx {
            pending.insert(i, r);
            while let Some(r) = pending.remove(&next_emit) {
                gate.advance();
                match r {
                    Ok(v) => {
                        if worker_err.is_none() && collect_err.is_none() {
                            if let Err(e) = collect(next_emit, v) {
                                collect_err = Some(e);
                                stop.store(true, Ordering::Relaxed);
                                gate.cancel();
                            }
                        }
                    }
                    Err(e) => {
                        // Smallest failing index wins deterministically:
                        // shards before it were already emitted in order.
                        // A collect error always has a smaller index than
                        // any worker error still draining (the collector
                        // stops consuming once it fails), so don't let a
                        // later worker error mask it.
                        if worker_err.is_none() && collect_err.is_none() {
                            worker_err = Some(e);
                        }
                        stop.store(true, Ordering::Relaxed);
                        gate.cancel();
                    }
                }
                next_emit += 1;
            }
        }
    });
    // collect_err first: it was recorded at a smaller shard index than
    // any worker error that drained afterwards.
    if let Some(e) = collect_err {
        return Err(e);
    }
    if let Some(e) = worker_err {
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_map_orders_and_errors() {
        let ok: Result<Vec<usize>, ()> = deterministic_map(50, 4, |i| Ok(i * 2));
        assert_eq!(ok.unwrap(), (0..50).map(|i| i * 2).collect::<Vec<_>>());
        let err: Result<Vec<usize>, usize> =
            deterministic_map(50, 4, |i| if i == 30 { Err(i) } else { Ok(i) });
        assert_eq!(err.unwrap_err(), 30);
    }

    #[test]
    fn deterministic_map_single_threaded_and_empty() {
        let one: Result<Vec<usize>, ()> = deterministic_map(1, 8, Ok);
        assert_eq!(one.unwrap(), vec![0]);
        let none: Result<Vec<usize>, ()> = deterministic_map(0, 8, Ok);
        assert_eq!(none.unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn shards_collect_in_order_across_thread_counts() {
        for threads in [1, 2, 4, 8] {
            let mut seen = Vec::new();
            run_shards_ordered::<usize, (), _, _>(
                20,
                threads,
                4,
                |i| {
                    // Perturb completion order: earlier shards take longer.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((20 - i) % 5) as u64 * 50,
                    ));
                    Ok(i * i)
                },
                |i, v| {
                    seen.push((i, v));
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(seen, (0..20).map(|i| (i, i * i)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shard_error_is_smallest_failing_index() {
        for threads in [2, 8] {
            let err = run_shards_ordered::<usize, usize, _, _>(
                30,
                threads,
                4,
                |i| if i % 7 == 5 { Err(i) } else { Ok(i) },
                |_, _| Ok(()),
            )
            .unwrap_err();
            assert_eq!(err, 5);
        }
    }

    #[test]
    fn collector_error_propagates() {
        let err = run_shards_ordered::<usize, String, _, _>(10, 2, 4, Ok, |i, _| {
            if i == 3 {
                Err("sink broke".to_string())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, "sink broke");
    }
}
