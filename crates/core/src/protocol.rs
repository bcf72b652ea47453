//! The SleepingMIS / Fast-SleepingMIS message-passing protocol
//! (Algorithms 1 and 2 of the paper), flattened into a per-node state
//! machine over the sleeping-model engine.
//!
//! ## How the recursion becomes a state machine
//!
//! Every call of `SleepingMISRecursive(k)` occupies a fixed window of
//! T(k) rounds ([`Schedule`]), so a node can always compute the absolute
//! round of its next obligation. Each node keeps a stack of frames — one
//! per recursive call it is currently participating in — and advances the
//! top frame through the phases
//!
//! 1. **first isolated-node detection** (broadcast `Hello`; no message
//!    received ⇒ join the MIS),
//! 2. **left recursion** (descend if X_k = 1 and still undecided,
//!    else sleep through the window),
//! 3. **synchronization / elimination** (broadcast inMIS; a neighbor in the
//!    MIS ⇒ set inMIS = false),
//! 4. **second isolated-node detection** (broadcast inMIS; all subgraph
//!    neighbors false ⇒ join the MIS),
//! 5. **right recursion** (descend if still undecided, else sleep).
//!
//! When a node finishes a call it *returns*: if the call was a left child
//! it wakes for the parent's sync round; if it was a right child the parent
//! is finished too and the pop cascades — when the stack empties the node
//! terminates. This cascade is exactly why decided nodes re-announce their
//! status at every ancestor's sync and second-iso rounds, which the
//! correctness proof (Lemma 1) relies on.
//!
//! Algorithm 2 differs only in the base case: instead of joining the MIS
//! outright at k = 0, participants run the parallel randomized greedy MIS
//! inside a fixed window of 1 + 2·⌈c·log₂ n⌉ rounds (rank exchange, then
//! two rounds per iteration), going back to sleep as soon as they decide.

use crate::error::MisError;
use crate::params::{greedy_iterations, MisConfig, SendPolicy, Variant};
use crate::rank::{greedy_key, NodeRandomness};
use crate::schedule::Schedule;
use sleepy_graph::{Graph, NodeId, Port};
use sleepy_net::{
    run_protocol_taped, run_protocol_with_sink, Action, EngineConfig, Incoming, MessageSize,
    NodeCtx, NullSink, Outbox, Protocol, Round, RunMetrics, Tape, TraceSink,
};

/// Tri-state MIS status, as stored in `v.inMIS` by the paper's pseudocode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisStatus {
    /// Not yet determined.
    Unknown,
    /// In the MIS.
    In,
    /// Not in the MIS (dominated by a neighbor in the MIS).
    Out,
}

/// Messages exchanged by the protocol. All are O(log n) bits, respecting
/// the CONGEST model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisMsg {
    /// First-isolated-detection probe ("I participate in this call").
    Hello,
    /// The sender's current inMIS value (sync and second-iso rounds).
    Status(MisStatus),
    /// Greedy base case: the sender's rank and id (rank-exchange round).
    GreedyHello {
        /// The sender's random 64-bit rank.
        rank: u64,
        /// The sender's id (tie-break).
        id: NodeId,
    },
    /// Greedy base case: the sender joined the MIS this iteration.
    GreedyJoin,
    /// Greedy base case: the sender was eliminated and leaves the graph.
    GreedyRemoved,
}

impl MessageSize for MisMsg {
    fn bits(&self) -> usize {
        match self {
            MisMsg::Hello => 1,
            MisMsg::Status(_) => 3,
            MisMsg::GreedyHello { .. } => 2 + 64 + 32,
            MisMsg::GreedyJoin | MisMsg::GreedyRemoved => 3,
        }
    }
}

/// A node's final output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeOutput {
    /// Whether the node is in the computed MIS.
    pub in_mis: bool,
    /// Whether the node hit Algorithm 2's base-case round budget without
    /// deciding (the Monte-Carlo failure mode; it then defaults to
    /// `in_mis = false`, which can cost maximality).
    pub base_timeout: bool,
}

/// Immutable per-run data shared by all node protocols: validated depth,
/// schedule, and the precomputed durations T(0..=K). Build it once per
/// run; every [`SleepingMisProtocol`] borrows it.
#[derive(Debug, Clone)]
pub struct PreparedMis {
    /// The validated configuration.
    pub config: MisConfig,
    /// Number of nodes.
    pub n: usize,
    /// Recursion depth K.
    pub depth: u32,
    /// The padded schedule.
    pub schedule: Schedule,
    /// T(k) for k = 0..=K.
    pub durations: Vec<u64>,
    /// Max greedy iterations per base case (Algorithm 2).
    pub max_iterations: u32,
}

impl PreparedMis {
    /// Validates `config` for an n-node network and precomputes the
    /// schedule.
    ///
    /// # Errors
    ///
    /// Propagates [`MisConfig::validate`] and schedule-overflow errors.
    pub fn new(n: usize, config: MisConfig) -> Result<Self, MisError> {
        config.validate(n)?;
        let depth = config.depth_for(n);
        let (schedule, max_iterations) = match config.variant {
            Variant::SleepingMis => (Schedule::alg1(), 0),
            Variant::FastSleepingMis => {
                let iters = greedy_iterations(n, config.greedy_c);
                (Schedule::alg2(1 + 2 * iters as u64), iters)
            }
        };
        let durations = schedule.durations(depth)?;
        Ok(PreparedMis { config, n, depth, schedule, durations, max_iterations })
    }

    /// T(k); `k` must be ≤ the prepared depth.
    fn t(&self, k: u32) -> u64 {
        self.durations[k as usize]
    }
}

/// Where a node is within a greedy base-case window (Algorithm 2): the
/// rank exchange, then a join and a removal round per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GreedySub {
    /// Rank-exchange round (the base window's first round).
    Init,
    /// Join-announcement round of the current iteration.
    Join,
    /// Removal-announcement round of the current iteration.
    Removal,
}

impl GreedySub {
    /// The sub-round at round `now` of a window that began at `start`. A
    /// participant stays awake from the window's first round until it
    /// leaves, so the offset alone says where it is.
    fn at(start: Round, now: Round) -> Self {
        match now - start {
            0 => GreedySub::Init,
            d if d % 2 == 1 => GreedySub::Join,
            _ => GreedySub::Removal,
        }
    }
}

/// Phase of a recursion frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Next obligation: the call's first-isolated-detection round.
    FirstIso,
    /// Next obligation: the call's sync round.
    Sync,
    /// Next obligation: the call's second-iso round.
    SecondIso,
    /// Base-case greedy window (Algorithm 2 only); see [`GreedySub`].
    Greedy,
}

/// One recursion call the node participates in.
///
/// The call's ports live on the node's port stack as `ports[lo..hi]`,
/// pushed when the call's first round runs and truncated back to `lo`
/// when the frame pops; until then the range is empty.
///
/// - A recursion frame holds the ports to the neighbors participating in
///   the call (learned at first-iso), ascending.
/// - A greedy frame holds its alive base-subgraph neighbors, ascending,
///   and above `hi`, up to the end of the stack, those of them whose
///   greedy key beats this node's: it wins a join round when none is
///   left. A greedy frame is always on top, so no other frame's ports
///   sit above it.
#[derive(Debug, Clone, Copy)]
struct Frame {
    k: u32,
    start: Round,
    /// Whether this call is the left recursion of its parent.
    is_left: bool,
    stage: Stage,
    lo: usize,
    hi: usize,
}

/// Per-node protocol state for SleepingMIS / Fast-SleepingMIS.
///
/// Construct via [`SleepingMisProtocol::new`] and run with
/// [`run_sleeping_mis`] (or [`sleepy_net::run_protocol`] directly). A
/// node holds a borrow of the run's [`PreparedMis`], its coins, a stack
/// of the recursion calls it is in, and one port stack that those calls
/// share (see `Frame`), so a node-round touches the node, its top frame
/// and that frame's ports, and no per-call allocation.
#[derive(Debug, Clone)]
pub struct SleepingMisProtocol<'p> {
    prepared: &'p PreparedMis,
    coins: NodeRandomness,
    status: MisStatus,
    stack: Vec<Frame>,
    ports: Vec<Port>,
    /// Set when K = 0 under Algorithm 1 (the node joins the MIS before any
    /// communication and terminates at round 0).
    terminate_immediately: bool,
    base_timeout: bool,
    done: bool,
}

impl<'p> SleepingMisProtocol<'p> {
    /// Creates the state machine for node `id`.
    ///
    /// All nodes of a run must share the same `prepared` data: build one
    /// [`PreparedMis`] per run and lend it to every node from the factory
    /// closure, as [`run_sleeping_mis`] does. The node keeps only the
    /// borrow, so per-node memory does not grow with the schedule.
    pub fn new(id: NodeId, prepared: &'p PreparedMis) -> Self {
        let coins = NodeRandomness::derive(prepared.config.seed, id);
        let mut p = SleepingMisProtocol {
            prepared,
            coins,
            status: MisStatus::Unknown,
            stack: Vec::new(),
            ports: Vec::new(),
            terminate_immediately: false,
            base_timeout: false,
            done: false,
        };
        // Root call starting at round 0.
        let stage = match (prepared.depth, prepared.config.variant) {
            (0, Variant::SleepingMis) => {
                // Base case at the root: join immediately; terminate at
                // round 0 (one awake round for the handshake with the
                // engine).
                p.status = MisStatus::In;
                p.terminate_immediately = true;
                return p;
            }
            (0, Variant::FastSleepingMis) => Stage::Greedy,
            _ => Stage::FirstIso,
        };
        p.push_frame(prepared.depth, 0, false, stage);
        p
    }

    /// The X_k coin of this node.
    fn x(&self, k: u32) -> bool {
        self.coins.x(k)
    }

    /// `Continue` if the next obligation is the very next round, otherwise
    /// sleep until it.
    fn goto(&self, target: Round, now: Round) -> Action {
        debug_assert!(target > now, "next obligation must be in the future");
        if target == now + 1 {
            Action::Continue
        } else {
            Action::SleepUntil(target)
        }
    }

    /// Pushes a frame whose ports are not known yet.
    fn push_frame(&mut self, k: u32, start: Round, is_left: bool, stage: Stage) {
        let top = self.ports.len();
        self.stack.push(Frame { k, start, is_left, stage, lo: top, hi: top });
    }

    /// Pops the top frame and its ports.
    fn pop_frame(&mut self) -> Frame {
        let frame = self.stack.pop().expect("pop_frame requires a frame");
        self.ports.truncate(frame.lo);
        frame
    }

    /// Enter a child call at level `k` starting at round `start`
    /// (= `now` + 1). Handles Algorithm 1's zero-duration base case inline.
    fn descend(&mut self, k: u32, start: Round, is_left: bool, now: Round) -> Action {
        if k == 0 && self.prepared.config.variant == Variant::SleepingMis {
            // Base case (lines 9-12): join the MIS; the call takes no
            // rounds, so immediately return from this virtual child.
            debug_assert_eq!(self.status, MisStatus::Unknown);
            self.status = MisStatus::In;
            return self.return_after_child(is_left, now);
        }
        let stage = if k == 0 { Stage::Greedy } else { Stage::FirstIso };
        self.push_frame(k, start, is_left, stage);
        self.goto(start, now)
    }

    /// Pop the top frame (its window is over for this node) and cascade.
    fn return_from(&mut self, now: Round) -> Action {
        let frame = self.pop_frame();
        self.return_after_child(frame.is_left, now)
    }

    /// After finishing a child call (`child_was_left` tells which side),
    /// resume the parent: a left child resumes at the parent's sync round;
    /// a right child completes the parent as well, cascading upward. An
    /// empty stack means the node is done.
    fn return_after_child(&mut self, mut child_was_left: bool, now: Round) -> Action {
        loop {
            let Some(parent) = self.stack.last() else {
                self.done = true;
                debug_assert_ne!(self.status, MisStatus::Unknown);
                return Action::Terminate;
            };
            if child_was_left {
                debug_assert_eq!(parent.stage, Stage::Sync);
                let sync = parent.start + 1 + self.prepared.t(parent.k - 1);
                return self.goto(sync, now);
            }
            // Right child: the parent window ends with it; pop and continue.
            child_was_left = self.pop_frame().is_left;
        }
    }

    /// Sends `msg` to the top frame's ports under
    /// [`SendPolicy::SubgraphOnly`], to every neighbor otherwise.
    fn announce(&self, frame: &Frame, out: &mut Outbox<MisMsg>, msg: MisMsg) {
        if self.prepared.config.send_policy == SendPolicy::SubgraphOnly {
            for &p in &self.ports[frame.lo..frame.hi] {
                out.send(p, msg);
            }
        } else {
            out.broadcast(msg);
        }
    }

    /// Drops every neighbor that sent `gone` this round from the top
    /// (greedy) frame: from its alive ports and from the ports above them.
    fn drop_greedy_ports(&mut self, inbox: &[Incoming<MisMsg>], gone: MisMsg) {
        let top = self.stack.last_mut().expect("a greedy frame is on top");
        let sent = |p: Port| inbox.iter().any(|m| m.port == p && m.msg == gone);
        let mut kept = top.lo;
        for i in top.lo..top.hi {
            let p = self.ports[i];
            if !sent(p) {
                self.ports[kept] = p;
                kept += 1;
            }
        }
        let alive_end = kept;
        for i in top.hi..self.ports.len() {
            let p = self.ports[i];
            if !sent(p) {
                self.ports[kept] = p;
                kept += 1;
            }
        }
        top.hi = alive_end;
        self.ports.truncate(kept);
    }

    /// One round of the greedy base case (Algorithm 2, line 10).
    fn greedy_receive(
        &mut self,
        ctx: &NodeCtx,
        frame: Frame,
        inbox: &[Incoming<MisMsg>],
    ) -> Action {
        let now = ctx.round;
        match GreedySub::at(frame.start, now) {
            GreedySub::Init => {
                let mine = greedy_key(self.coins.greedy_rank, ctx.id);
                let hellos = || {
                    inbox.iter().filter_map(|m| match m.msg {
                        MisMsg::GreedyHello { rank, id } => Some((m.port, greedy_key(rank, id))),
                        _ => None,
                    })
                };
                debug_assert_eq!(frame.lo, self.ports.len());
                self.ports.extend(hellos().map(|(p, _)| p));
                self.ports[frame.lo..].sort_unstable();
                let hi = self.ports.len();
                self.ports.extend(hellos().filter(|&(_, key)| key > mine).map(|(p, _)| p));
                self.stack.last_mut().expect("greedy frame").hi = hi;
                Action::Continue
            }
            GreedySub::Join => {
                if self.status == MisStatus::In {
                    // Joined this round (decided during `send`); leave
                    // the window.
                    return self.return_from(now);
                }
                if inbox.iter().any(|m| m.msg == MisMsg::GreedyJoin) {
                    self.drop_greedy_ports(inbox, MisMsg::GreedyJoin);
                    debug_assert_eq!(self.status, MisStatus::Unknown);
                    self.status = MisStatus::Out;
                }
                Action::Continue
            }
            GreedySub::Removal => {
                self.drop_greedy_ports(inbox, MisMsg::GreedyRemoved);
                if self.status == MisStatus::Out {
                    // Eliminated last round and announced it this round;
                    // leave.
                    return self.return_from(now);
                }
                let iterations = (now - frame.start) / 2;
                if iterations >= self.prepared.max_iterations as u64 {
                    // Round budget exhausted (Monte-Carlo failure):
                    // default to not-in-MIS.
                    debug_assert_eq!(now, frame.start + 2 * self.prepared.max_iterations as u64);
                    if self.status == MisStatus::Unknown {
                        self.status = MisStatus::Out;
                        self.base_timeout = true;
                    }
                    return self.return_from(now);
                }
                Action::Continue
            }
        }
    }
}

impl Protocol for SleepingMisProtocol<'_> {
    type Msg = MisMsg;
    type Output = NodeOutput;

    fn send(&mut self, ctx: &NodeCtx, out: &mut Outbox<MisMsg>) {
        if self.terminate_immediately {
            return;
        }
        let Some(&frame) = self.stack.last() else { return };
        match frame.stage {
            Stage::FirstIso => out.broadcast(MisMsg::Hello),
            Stage::Sync | Stage::SecondIso => {
                self.announce(&frame, out, MisMsg::Status(self.status));
            }
            Stage::Greedy => match GreedySub::at(frame.start, ctx.round) {
                GreedySub::Init => {
                    out.broadcast(MisMsg::GreedyHello { rank: self.coins.greedy_rank, id: ctx.id })
                }
                GreedySub::Join => {
                    // No alive neighbor's key beats this node's.
                    if self.status == MisStatus::Unknown && self.ports.len() == frame.hi {
                        self.status = MisStatus::In;
                        self.announce(&frame, out, MisMsg::GreedyJoin);
                    }
                }
                GreedySub::Removal => {
                    // Eliminated at the join round just before.
                    if self.status == MisStatus::Out {
                        self.announce(&frame, out, MisMsg::GreedyRemoved);
                    }
                }
            },
        }
    }

    fn receive(&mut self, ctx: &NodeCtx, inbox: &[Incoming<MisMsg>]) -> Action {
        if self.terminate_immediately {
            self.done = true;
            return Action::Terminate;
        }
        debug_assert!(!self.done, "received after termination");
        let now = ctx.round;
        let frame = *self.stack.last().expect("an unfinished node has a frame");
        let k = frame.k;
        match frame.stage {
            // --- First isolated-node detection (lines 13-16) ---
            Stage::FirstIso => {
                debug_assert_eq!(now, frame.start);
                debug_assert_eq!(frame.lo, self.ports.len());
                self.ports.extend(inbox.iter().filter(|m| m.msg == MisMsg::Hello).map(|m| m.port));
                self.ports[frame.lo..].sort_unstable();
                if self.ports.len() == frame.lo {
                    self.status = MisStatus::In; // isolated in G[U]
                }
                let top = self.stack.last_mut().expect("frame");
                top.hi = self.ports.len();
                top.stage = Stage::Sync;
                let sync = frame.start + 1 + self.prepared.t(k - 1);
                if self.status == MisStatus::Unknown && self.x(k) {
                    // Left recursion (lines 17-18).
                    self.descend(k - 1, now + 1, true, now)
                } else {
                    // Sleep through the left window (lines 19-21).
                    self.goto(sync, now)
                }
            }
            // --- Synchronization / elimination (lines 22-25) ---
            Stage::Sync => {
                if self.status == MisStatus::Unknown {
                    let u_ports = &self.ports[frame.lo..frame.hi];
                    let eliminated = inbox.iter().any(|m| {
                        m.msg == MisMsg::Status(MisStatus::In)
                            && u_ports.binary_search(&m.port).is_ok()
                    });
                    if eliminated {
                        self.status = MisStatus::Out;
                    }
                }
                self.stack.last_mut().expect("frame").stage = Stage::SecondIso;
                Action::Continue // second-iso is always the next round
            }
            // --- Second isolated-node detection (lines 26-29) ---
            Stage::SecondIso => {
                if self.status == MisStatus::Unknown {
                    let u_ports = &self.ports[frame.lo..frame.hi];
                    let falses = inbox
                        .iter()
                        .filter(|m| {
                            m.msg == MisMsg::Status(MisStatus::Out)
                                && u_ports.binary_search(&m.port).is_ok()
                        })
                        .count();
                    debug_assert!(
                        !u_ports.is_empty(),
                        "an undecided node cannot be isolated at second-iso"
                    );
                    if falses == u_ports.len() {
                        self.status = MisStatus::In;
                    }
                }
                if self.status == MisStatus::Unknown {
                    // Right recursion (lines 30-31).
                    self.descend(k - 1, now + 1, false, now)
                } else {
                    // Sleep through the right window and return
                    // (lines 32-34).
                    self.return_from(now)
                }
            }
            // --- Greedy base case (Algorithm 2, line 10) ---
            Stage::Greedy => self.greedy_receive(ctx, frame, inbox),
        }
    }

    fn output(&self) -> Option<NodeOutput> {
        match self.status {
            MisStatus::Unknown => None,
            MisStatus::In => Some(NodeOutput { in_mis: true, base_timeout: self.base_timeout }),
            MisStatus::Out => Some(NodeOutput { in_mis: false, base_timeout: self.base_timeout }),
        }
    }
}

/// Result of a full protocol run.
#[derive(Debug, Clone)]
pub struct MisRunResult {
    /// MIS membership per node.
    pub in_mis: Vec<bool>,
    /// Nodes that hit the Algorithm 2 base-case budget (always empty for
    /// Algorithm 1).
    pub base_timeouts: Vec<NodeId>,
    /// Engine metrics (awake rounds, finish rounds, messages, …).
    pub metrics: RunMetrics,
}

/// Runs SleepingMIS (Algorithm 1) or Fast-SleepingMIS (Algorithm 2) on
/// `graph` through the sleeping-model engine.
///
/// # Errors
///
/// Configuration errors ([`MisError::DepthTooLarge`],
/// [`MisError::ScheduleOverflow`], [`MisError::InvalidConfig`]) or engine
/// failures ([`MisError::Engine`]).
///
/// # Example
///
/// ```
/// use sleepy_graph::generators;
/// use sleepy_mis::{run_sleeping_mis, MisConfig};
/// use sleepy_net::EngineConfig;
///
/// let g = generators::cycle(16).unwrap();
/// let run = run_sleeping_mis(&g, MisConfig::alg1(7), &EngineConfig::default())?;
/// // An MIS of a cycle has between n/3 and n/2 nodes.
/// let size = run.in_mis.iter().filter(|&&b| b).count();
/// assert!((6..=8).contains(&size));
/// # Ok::<(), sleepy_mis::MisError>(())
/// ```
pub fn run_sleeping_mis(
    graph: &Graph,
    config: MisConfig,
    engine_config: &EngineConfig,
) -> Result<MisRunResult, MisError> {
    run_sleeping_mis_with_sink(graph, config, engine_config, &mut NullSink)
}

/// [`run_sleeping_mis`] with the engine streaming every protocol event
/// into `sink` — the entry point for round-timeline recorders and
/// schedule validators; pass a [`TraceBuffer`](sleepy_net::TraceBuffer)
/// to keep a [`Trace`](sleepy_net::Trace).
///
/// # Errors
///
/// Same as [`run_sleeping_mis`].
pub fn run_sleeping_mis_with_sink<S: TraceSink + ?Sized>(
    graph: &Graph,
    config: MisConfig,
    engine_config: &EngineConfig,
    sink: &mut S,
) -> Result<MisRunResult, MisError> {
    let prepared = PreparedMis::new(graph.n(), config)?;
    let outcome = run_protocol_with_sink(
        graph,
        engine_config,
        |id, _ctx| SleepingMisProtocol::new(id, &prepared),
        sink,
    )?;
    Ok(collect_mis(outcome))
}

/// [`run_sleeping_mis_with_sink`] recording the run as an engine
/// [`Tape`] — the entry point behind `fleet record-tape`.
///
/// Returns the run result together with the tape. The tape is produced
/// even when the engine errors (the error is part of the recorded
/// conformance artifact); it is `None` only when the configuration
/// itself is rejected before the engine starts. The tape's `label` and
/// `seed` stamps are left empty for the caller to fill.
pub fn run_sleeping_mis_taped(
    graph: &Graph,
    config: MisConfig,
    engine_config: &EngineConfig,
    sink: &mut dyn TraceSink,
) -> (Result<MisRunResult, MisError>, Option<Tape>) {
    let prepared = match PreparedMis::new(graph.n(), config) {
        Ok(p) => p,
        Err(e) => return (Err(e), None),
    };
    let (result, tape) = run_protocol_taped(
        graph,
        engine_config,
        |id, _ctx| SleepingMisProtocol::new(id, &prepared),
        sink,
    );
    (result.map(collect_mis).map_err(MisError::from), Some(tape))
}

fn collect_mis(outcome: sleepy_net::RunOutcome<NodeOutput>) -> MisRunResult {
    let mut in_mis = Vec::with_capacity(outcome.outputs.len());
    let mut base_timeouts = Vec::new();
    for (id, out) in outcome.outputs.iter().enumerate() {
        let out = out.as_ref().expect("completed runs have outputs for every node");
        in_mis.push(out.in_mis);
        if out.base_timeout {
            base_timeouts.push(id as NodeId);
        }
    }
    MisRunResult { in_mis, base_timeouts, metrics: outcome.metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepy_graph::generators;

    fn is_valid_mis(g: &Graph, in_mis: &[bool]) -> bool {
        // Independence.
        for (u, v) in g.edges() {
            if in_mis[u as usize] && in_mis[v as usize] {
                return false;
            }
        }
        // Maximality.
        for v in g.node_ids() {
            if !in_mis[v as usize] && !g.neighbors(v).iter().any(|&u| in_mis[u as usize]) {
                return false;
            }
        }
        true
    }

    #[test]
    fn single_node_alg1() {
        let g = generators::empty(1).unwrap();
        let run = run_sleeping_mis(&g, MisConfig::alg1(1), &EngineConfig::default()).unwrap();
        assert_eq!(run.in_mis, vec![true]);
        assert_eq!(run.metrics.total_rounds, 1);
        assert_eq!(run.metrics.per_node[0].awake_rounds, 1);
    }

    #[test]
    fn single_node_alg2() {
        let g = generators::empty(1).unwrap();
        let run = run_sleeping_mis(&g, MisConfig::alg2(1), &EngineConfig::default()).unwrap();
        assert_eq!(run.in_mis, vec![true]);
        // Rank-exchange round + first join round.
        assert_eq!(run.metrics.per_node[0].awake_rounds, 2);
    }

    #[test]
    fn empty_graph_all_join() {
        let g = generators::empty(6).unwrap();
        for cfg in [MisConfig::alg1(3), MisConfig::alg2(3)] {
            let run = run_sleeping_mis(&g, cfg, &EngineConfig::default()).unwrap();
            assert!(run.in_mis.iter().all(|&b| b), "{cfg:?}");
        }
    }

    #[test]
    fn two_nodes_exactly_one_joins() {
        // Algorithm 1 is Monte Carlo: with n = 2 the depth is K = 3 and
        // two adjacent nodes draw identical rank bits with probability
        // 2^-3 = 1/8, in which case both join (the paper's "whp" guarantee
        // is vacuous at n = 2). Verify correctness exactly on the non-tie
        // seeds and that failures coincide with full rank ties.
        use crate::rank::NodeRandomness;
        let g = generators::path(2).unwrap();
        let mut failures = 0;
        for seed in 0..20 {
            let run =
                run_sleeping_mis(&g, MisConfig::alg1(seed), &EngineConfig::default()).unwrap();
            let count = run.in_mis.iter().filter(|&&b| b).count();
            let tie =
                NodeRandomness::derive(seed, 0).rank(3) == NodeRandomness::derive(seed, 1).rank(3);
            if tie {
                failures += 1;
                assert_eq!(count, 2, "a full tie must make both join (seed {seed})");
            } else {
                assert_eq!(count, 1, "seed {seed}: {:?}", run.in_mis);
            }
        }
        assert!(failures <= 8, "tie rate implausibly high: {failures}/20");
        // Algorithm 2 tie-breaks greedy ranks by id, so it is always exact
        // here (n = 2 means depth 0, i.e. pure greedy).
        for seed in 0..20 {
            let run =
                run_sleeping_mis(&g, MisConfig::alg2(seed), &EngineConfig::default()).unwrap();
            assert_eq!(run.in_mis.iter().filter(|&&b| b).count(), 1, "alg2 seed {seed}");
        }
    }

    /// Whether any two nodes share a full K-rank for this `(n, seed)` —
    /// the Monte-Carlo failure event of Algorithm 1 (ties can produce
    /// adjacent MIS members; the paper's "whp" guarantee only bounds the
    /// probability). Seed tests skip or relax tie seeds instead of
    /// demanding luck from the PRNG stream.
    fn has_full_rank_tie(n: usize, seed: u64) -> bool {
        let k = crate::depth_alg1(n);
        let mut ranks: Vec<u128> =
            crate::rank::derive_all(seed, n).iter().map(|c| c.rank(k)).collect();
        ranks.sort_unstable();
        ranks.windows(2).any(|w| w[0] == w[1])
    }

    #[test]
    fn clique_exactly_one_joins() {
        // With n = 9 the rank has only K = ceil(3 log2 9) = 10 bits, so a
        // birthday tie among the 9 nodes happens with a few percent
        // probability per seed; exactly-one holds on every tie-free seed.
        let g = generators::clique(9).unwrap();
        let mut checked = 0;
        for seed in 0..10 {
            let run =
                run_sleeping_mis(&g, MisConfig::alg1(seed), &EngineConfig::default()).unwrap();
            let count = run.in_mis.iter().filter(|&&b| b).count();
            if has_full_rank_tie(g.n(), seed) {
                assert!(count >= 1, "seed {seed}: nobody joined");
            } else {
                assert_eq!(count, 1, "seed {seed}");
                checked += 1;
            }
        }
        assert!(checked >= 5, "implausibly many tie seeds: only {checked}/10 tie-free");
    }

    #[test]
    fn valid_mis_on_varied_graphs_alg1() {
        let mut checked = 0;
        for (i, g) in [
            generators::cycle(17).unwrap(),
            generators::star(12).unwrap(),
            generators::gnp(60, 0.1, 5).unwrap(),
            generators::random_tree(40, 2).unwrap(),
            generators::grid2d(6, 7).unwrap(),
        ]
        .iter()
        .enumerate()
        {
            for seed in 0..5 {
                let run =
                    run_sleeping_mis(g, MisConfig::alg1(seed), &EngineConfig::default()).unwrap();
                if has_full_rank_tie(g.n(), seed) {
                    // Ties can only break independence; every node is
                    // still decided, so domination must hold regardless.
                    for v in g.node_ids() {
                        let dominated = run.in_mis[v as usize]
                            || g.neighbors(v).iter().any(|&u| run.in_mis[u as usize]);
                        assert!(dominated, "graph {i} seed {seed}: node {v} undominated");
                    }
                } else {
                    assert!(is_valid_mis(g, &run.in_mis), "graph {i} seed {seed}");
                    checked += 1;
                }
            }
        }
        assert!(checked >= 15, "implausibly many tie seeds: only {checked}/25 tie-free");
    }

    #[test]
    fn valid_mis_on_varied_graphs_alg2() {
        for (i, g) in [
            generators::cycle(17).unwrap(),
            generators::gnp(60, 0.1, 5).unwrap(),
            generators::clique(10).unwrap(),
            generators::grid2d(5, 8).unwrap(),
        ]
        .iter()
        .enumerate()
        {
            for seed in 0..5 {
                let run =
                    run_sleeping_mis(g, MisConfig::alg2(seed), &EngineConfig::default()).unwrap();
                assert!(is_valid_mis(g, &run.in_mis), "graph {i} seed {seed}");
                assert!(run.base_timeouts.is_empty(), "graph {i} seed {seed} timed out");
            }
        }
    }

    #[test]
    fn alg1_total_rounds_within_padded_schedule() {
        let g = generators::gnp(32, 0.2, 1).unwrap();
        let prepared = PreparedMis::new(32, MisConfig::alg1(1)).unwrap();
        let t_root = prepared.t(prepared.depth);
        let run = run_sleeping_mis(&g, MisConfig::alg1(1), &EngineConfig::default()).unwrap();
        assert!(run.metrics.total_rounds <= t_root);
    }

    #[test]
    fn awake_rounds_are_multiples_of_three_plus_base_alg1() {
        // Every Algorithm 1 node is awake exactly 3 rounds per call it
        // participates in (all calls have k >= 1 when K >= 1).
        let g = generators::gnp(40, 0.15, 9).unwrap();
        let run = run_sleeping_mis(&g, MisConfig::alg1(4), &EngineConfig::default()).unwrap();
        for m in &run.metrics.per_node {
            assert_eq!(m.awake_rounds % 3, 0, "awake={}", m.awake_rounds);
            assert!(m.awake_rounds >= 3);
        }
    }

    #[test]
    fn alg1_worst_awake_at_most_3_depth() {
        let n = 64;
        let g = generators::gnp(n, 0.1, 3).unwrap();
        let prepared = PreparedMis::new(n, MisConfig::alg1(3)).unwrap();
        let run = run_sleeping_mis(&g, MisConfig::alg1(3), &EngineConfig::default()).unwrap();
        let max_awake = run.metrics.per_node.iter().map(|m| m.awake_rounds).max().unwrap();
        assert!(max_awake <= 3 * (prepared.depth as u64 + 1));
    }

    #[test]
    fn message_sizes_respect_congest() {
        let n = 50;
        let g = generators::gnp(n, 0.15, 2).unwrap();
        let cfg = EngineConfig {
            congest_bits: Some(sleepy_net::congest_bits_budget(n)),
            ..EngineConfig::default()
        };
        run_sleeping_mis(&g, MisConfig::alg1(1), &cfg).unwrap();
        run_sleeping_mis(&g, MisConfig::alg2(1), &cfg).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::gnp(48, 0.12, 6).unwrap();
        let a = run_sleeping_mis(&g, MisConfig::alg1(11), &EngineConfig::default()).unwrap();
        let b = run_sleeping_mis(&g, MisConfig::alg1(11), &EngineConfig::default()).unwrap();
        assert_eq!(a.in_mis, b.in_mis);
        assert_eq!(a.metrics, b.metrics);
        let c = run_sleeping_mis(&g, MisConfig::alg1(12), &EngineConfig::default()).unwrap();
        // Different seed should (overwhelmingly) give a different trace.
        assert!(a.in_mis != c.in_mis || a.metrics != c.metrics);
    }

    #[test]
    fn depth_override_forces_greedy_root() {
        // Algorithm 2 with depth 0 degenerates to pure distributed greedy.
        let g = generators::cycle(12).unwrap();
        let mut cfg = MisConfig::alg2(5);
        cfg.depth_override = Some(0);
        let run = run_sleeping_mis(&g, cfg, &EngineConfig::default()).unwrap();
        assert!(is_valid_mis(&g, &run.in_mis));
        // All awake rounds bounded by the base window.
        let budget = 1 + 2 * greedy_iterations(12, 4.0) as u64;
        for m in &run.metrics.per_node {
            assert!(m.awake_rounds <= budget);
        }
    }

    #[test]
    fn base_timeout_failure_injection() {
        // A clique forces the greedy to need many iterations (one joiner
        // per iteration eliminates everyone, so actually 1 iteration); use
        // a path with adversarially tiny budget instead: c so small that
        // max_iterations = 1. On a path of ranks in descending order the
        // greedy needs multiple iterations, so some nodes must time out.
        let g = generators::path(64).unwrap();
        let mut timed_out = 0;
        for seed in 0..10 {
            let mut cfg = MisConfig::alg2(seed);
            cfg.greedy_c = 0.01; // 1 iteration only
            cfg.depth_override = Some(0); // pure greedy on the whole path
            let run = run_sleeping_mis(&g, cfg, &EngineConfig::default()).unwrap();
            timed_out += run.base_timeouts.len();
        }
        assert!(timed_out > 0, "expected at least one base-case timeout");
    }

    #[test]
    fn status_message_size() {
        assert!(MisMsg::Hello.bits() <= 3);
        assert!(MisMsg::Status(MisStatus::Unknown).bits() <= 3);
        assert_eq!(MisMsg::GreedyHello { rank: 0, id: 0 }.bits(), 98);
    }
}
