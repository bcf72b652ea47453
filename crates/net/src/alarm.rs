//! The engine's wake-alarm deadline queue.
//!
//! The sleeping-model engine's idle-round skipping hinges on one data
//! structure: the set of `(wake_round, node)` alarms set by sleeping
//! nodes. [`TimerWheel`] keeps them as a ring of [`WHEEL_SLOTS`]
//! per-round buckets for near-future wakes plus a `BTreeMap` overflow
//! for far-future ones (Algorithm 1's padded Θ(n³) schedules sleep
//! *very* far ahead). Scheduling into the wheel window and popping a
//! due bucket are O(1) amortized plus a sort of the popped bucket.
//!
//! [`TimerWheel::pop_due`] yields due nodes in ascending id order —
//! exactly the order a `(round, node)` binary min-heap pops them, which
//! is what the legacy engine loop kept inline. The unit tests hold the
//! wheel to such a heap under random traffic.
//!
//! # Usage contract
//!
//! Callers must pop rounds in non-decreasing order and never skip past
//! a round that still holds alarms (the engine guarantees this: it
//! processes rounds consecutively while any node is awake and otherwise
//! jumps exactly to [`TimerWheel::next_deadline`]). Scheduling a wake
//! at or before the current pop frontier is a caller bug, which the
//! engine rules out via [`EngineError::SleepIntoPast`](crate::EngineError).

use crate::Round;
use sleepy_graph::NodeId;
use std::collections::BTreeMap;

/// Number of per-round buckets in the [`TimerWheel`] ring. Wakes within
/// this many rounds of the pop frontier go straight into a bucket;
/// farther ones wait in the sorted overflow until the frontier advances.
pub const WHEEL_SLOTS: usize = 256;

/// The bucketed timer-wheel deadline queue.
///
/// `base` is the pop frontier: every alarm strictly before it has been
/// popped. Rounds `base .. base + WHEEL_SLOTS` live in the ring (bucket
/// of round `r` at slot `(cursor + (r - base)) % WHEEL_SLOTS`); later
/// rounds wait in `overflow`, keyed by round, and are cascaded into the
/// ring as the frontier advances.
#[derive(Debug, Clone)]
pub struct TimerWheel {
    base: Round,
    cursor: usize,
    slots: Vec<Vec<NodeId>>,
    /// Alarms currently inside the ring (invariant: overflow keys are all
    /// `>= base + WHEEL_SLOTS`, so the ring always holds the earliest
    /// deadline when it is non-empty).
    in_wheel: usize,
    overflow: BTreeMap<Round, Vec<NodeId>>,
    len: usize,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel {
            base: 0,
            cursor: 0,
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            in_wheel: 0,
            overflow: BTreeMap::new(),
            len: 0,
        }
    }
}

impl TimerWheel {
    /// An empty wheel with the pop frontier at round 0.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// Schedules `node` to wake at `wake`.
    pub fn schedule(&mut self, wake: Round, node: NodeId) {
        debug_assert!(wake >= self.base, "scheduled a wake behind the pop frontier");
        self.len += 1;
        // Offset comparison, not `wake < base + SLOTS`: the latter
        // overflows (or saturates into excluding `base` itself) for
        // `SleepUntil(u64::MAX)`.
        if wake - self.base < WHEEL_SLOTS as Round {
            let idx = (self.cursor + (wake - self.base) as usize) % WHEEL_SLOTS;
            self.slots[idx].push(node);
            self.in_wheel += 1;
        } else {
            self.overflow.entry(wake).or_default().push(node);
        }
    }

    /// The earliest scheduled wake round, if any alarm is set.
    pub fn next_deadline(&self) -> Option<Round> {
        if self.in_wheel > 0 {
            for off in 0..WHEEL_SLOTS {
                if !self.slots[(self.cursor + off) % WHEEL_SLOTS].is_empty() {
                    return Some(self.base + off as Round);
                }
            }
            unreachable!("in_wheel > 0 but every slot is empty");
        }
        self.overflow.keys().next().copied()
    }

    /// Moves the pop frontier up to `round`, cascading overflow entries
    /// that enter the ring window.
    fn advance_to(&mut self, round: Round) {
        if self.in_wheel == 0 {
            // Ring empty: jump the frontier in O(1); cursor is arbitrary.
            self.base = round;
            self.cursor = 0;
        } else {
            while self.base < round {
                debug_assert!(self.slots[self.cursor].is_empty(), "skipped a due alarm");
                self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
                self.base += 1;
            }
        }
        // Cascade every overflow round now inside the window.
        while let Some((&r, _)) = self.overflow.iter().next() {
            if r - self.base >= WHEEL_SLOTS as Round {
                break;
            }
            let nodes = self.overflow.remove(&r).expect("key just observed");
            let idx = (self.cursor + (r - self.base) as usize) % WHEEL_SLOTS;
            self.in_wheel += nodes.len();
            self.slots[idx].extend(nodes);
        }
    }

    /// Appends every node scheduled to wake at exactly `round` to `out`,
    /// in ascending id order, removing them from the queue and advancing
    /// the pop frontier to `round`.
    pub fn pop_due(&mut self, round: Round, out: &mut Vec<NodeId>) {
        debug_assert!(round >= self.base, "rounds must be popped in non-decreasing order");
        if round > self.base || (self.in_wheel == 0 && !self.overflow.is_empty()) {
            self.advance_to(round);
        }
        let bucket = &mut self.slots[self.cursor];
        if !bucket.is_empty() {
            bucket.sort_unstable();
            self.in_wheel -= bucket.len();
            self.len -= bucket.len();
            out.append(bucket);
        }
    }

    /// Number of pending alarms.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no alarm is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Deterministic SplitMix64 stream for test traffic (no ambient
    /// entropy in engine-adjacent tests).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The oracle: `(wake_round, node)` pairs in a binary min-heap, the
    /// structure the legacy engine loop keeps inline.
    #[derive(Default)]
    struct HeapModel(BinaryHeap<Reverse<(Round, NodeId)>>);

    impl HeapModel {
        fn schedule(&mut self, wake: Round, node: NodeId) {
            self.0.push(Reverse((wake, node)));
        }

        fn next_deadline(&self) -> Option<Round> {
            self.0.peek().map(|&Reverse((r, _))| r)
        }

        fn pop_due(&mut self, round: Round, out: &mut Vec<NodeId>) {
            while let Some(&Reverse((r, v))) = self.0.peek() {
                if r != round {
                    break;
                }
                self.0.pop();
                out.push(v);
            }
        }
    }

    #[test]
    fn simple_schedule_and_pop() {
        let mut q = TimerWheel::new();
        assert!(q.is_empty());
        assert_eq!(q.next_deadline(), None);
        q.schedule(5, 2);
        q.schedule(3, 7);
        q.schedule(5, 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_deadline(), Some(3));
        let mut out = Vec::new();
        q.pop_due(3, &mut out);
        assert_eq!(out, vec![7]);
        out.clear();
        q.pop_due(4, &mut out);
        assert!(out.is_empty());
        q.pop_due(5, &mut out);
        assert_eq!(out, vec![1, 2], "equal-round pops are ascending by id");
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_handles_far_future_and_big_jumps() {
        let mut q = TimerWheel::new();
        q.schedule(1_000_000, 3);
        q.schedule(1_000_000, 1);
        q.schedule(2, 0);
        assert_eq!(q.next_deadline(), Some(2));
        let mut out = Vec::new();
        q.pop_due(2, &mut out);
        assert_eq!(out, vec![0]);
        assert_eq!(q.next_deadline(), Some(1_000_000));
        out.clear();
        // Jump straight to the far deadline (idle-round skipping).
        q.pop_due(1_000_000, &mut out);
        assert_eq!(out, vec![1, 3]);
        assert!(q.is_empty());
        // Reschedule near the new frontier.
        q.schedule(1_000_001, 9);
        assert_eq!(q.next_deadline(), Some(1_000_001));
        out.clear();
        q.pop_due(1_000_001, &mut out);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn wheel_overflow_cascades_across_window_boundary() {
        let mut q = TimerWheel::new();
        // One alarm just inside the window, one just outside.
        let inside = (WHEEL_SLOTS - 1) as Round;
        let outside = WHEEL_SLOTS as Round + 3;
        q.schedule(inside, 5);
        q.schedule(outside, 6);
        let mut out = Vec::new();
        for r in 0..=inside {
            q.pop_due(r, &mut out);
        }
        assert_eq!(out, vec![5]);
        assert_eq!(q.next_deadline(), Some(outside));
        out.clear();
        q.pop_due(outside, &mut out);
        assert_eq!(out, vec![6]);
        assert!(q.is_empty());
    }

    #[test]
    fn extreme_wake_round_does_not_overflow() {
        let mut q = TimerWheel::new();
        q.schedule(Round::MAX, 1);
        assert_eq!(q.next_deadline(), Some(Round::MAX));
        let mut out = Vec::new();
        q.pop_due(Round::MAX, &mut out);
        assert_eq!(out, vec![1]);
    }

    /// Under engine-like random traffic the wheel reports the same
    /// deadlines and pops the same sequences as the heap oracle.
    #[test]
    fn wheel_matches_heap_under_random_traffic() {
        for seed in 0..8u64 {
            let mut rng = 0x5EED_0000 + seed;
            let mut heap = HeapModel::default();
            let mut wheel = TimerWheel::new();
            let mut round: Round = 0;
            let mut pending = 0usize;
            let mut next_node: NodeId = 0;
            for _ in 0..600 {
                // Schedule a burst of alarms strictly after `round`.
                let burst = (splitmix(&mut rng) % 4) as usize;
                for _ in 0..burst {
                    let r = splitmix(&mut rng);
                    // Mix of near (ring) and far (overflow) wakes.
                    let offset = if r.is_multiple_of(5) { 1 + r % 10_000 } else { 1 + r % 40 };
                    let wake = round + offset;
                    heap.schedule(wake, next_node);
                    wheel.schedule(wake, next_node);
                    next_node += 1;
                    pending += 1;
                }
                assert_eq!(heap.next_deadline(), wheel.next_deadline());
                assert_eq!(heap.0.len(), wheel.len());
                if pending == 0 {
                    round += 1;
                    continue;
                }
                // Advance: half the time to the next deadline (idle jump),
                // otherwise one round at a time.
                round = if splitmix(&mut rng).is_multiple_of(2) {
                    heap.next_deadline().expect("pending > 0")
                } else {
                    round + 1
                };
                let mut a = Vec::new();
                let mut b = Vec::new();
                heap.pop_due(round, &mut a);
                wheel.pop_due(round, &mut b);
                assert_eq!(a, b, "divergent pops at round {round} (seed {seed})");
                pending -= a.len();
            }
        }
    }
}
