//! The engine's steady state allocates nothing.
//!
//! A counting global allocator tallies the allocations made on the test
//! thread while it drives a run. The same protocol on the same graph runs
//! once for `R` rounds and once for `10·R`; once every buffer has reached
//! its high-water mark, a round must not allocate, so both runs make
//! exactly as many allocations. `R` is past one full timer-wheel
//! revolution, so by then every wheel bucket has been used and holds its
//! capacity.
//!
//! Run it in release mode too: users and the benchmark run release
//! builds, and their allocation count is the one that matters.

use sleepy::graph::{generators, NodeId};
use sleepy::net::{
    run_protocol, Action, EngineConfig, Incoming, NodeCtx, Outbox, Protocol, Round, WHEEL_SLOTS,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to [`System`], counting allocations made by threads that
/// set [`COUNTING`].
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. Const-initialized
    /// and without a destructor, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which implements the `GlobalAlloc` contract; `count` only bumps an
// atomic and reads a thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator, i.e. by
        // `System`, with `layout`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Broadcasts its id every awake round. In round `r`, node `v` sleeps
/// for two rounds when `(r + v) % 4 == 0` — a period that divides the
/// wheel's revolution, so every revolution fills the buckets alike —
/// and otherwise stays awake; everyone terminates at round `end`.
struct Pulse {
    id: NodeId,
    end: Round,
    heard: u64,
}

impl Protocol for Pulse {
    type Msg = u32;
    type Output = u64;

    fn send(&mut self, _: &NodeCtx, out: &mut Outbox<u32>) {
        out.broadcast(self.id);
    }

    fn receive(&mut self, ctx: &NodeCtx, inbox: &[Incoming<u32>]) -> Action {
        self.heard += inbox.len() as u64;
        if ctx.round >= self.end {
            Action::Terminate
        } else if (ctx.round + self.id as Round).is_multiple_of(4) {
            Action::SleepUntil(ctx.round + 2)
        } else {
            Action::Continue
        }
    }

    fn output(&self) -> Option<u64> {
        Some(self.heard)
    }
}

#[test]
fn steady_state_allocates_nothing() {
    let graph = generators::gnp(64, 0.1, 7).unwrap();
    let config = EngineConfig::default();
    let counted_run = |end: Round| {
        ALLOCATIONS.store(0, Ordering::Relaxed);
        COUNTING.with(|c| c.set(true));
        let run = run_protocol(&graph, &config, |id, _| Pulse { id, end, heard: 0 });
        COUNTING.with(|c| c.set(false));
        let run = run.expect("the pulse protocol terminates");
        assert_eq!(run.metrics.active_rounds, end + 2, "every round up to end + 1 runs");
        (ALLOCATIONS.load(Ordering::Relaxed), run.outputs)
    };
    let short = 2 * WHEEL_SLOTS as Round;
    let (short_allocs, short_outputs) = counted_run(short);
    let (long_allocs, long_outputs) = counted_run(10 * short);
    assert!(short_outputs.iter().zip(&long_outputs).all(|(a, b)| a < b), "longer run hears more");
    assert_eq!(
        short_allocs,
        long_allocs,
        "a {}-round run allocates {} times, a {}-round run {} times",
        short + 2,
        short_allocs,
        10 * short + 2,
        long_allocs
    );
}
