//! The coroutine driver: runs one application program per node on its
//! own OS thread, cooperatively scheduled by its kernel shard through
//! rendezvous channels, and drives the sharded event loop to
//! completion.
//!
//! Invariant: at any real-time instant, each kernel shard is either
//! running itself or has handed the floor to exactly one of *its* app
//! threads. Shards synchronize only at window barriers, where all
//! cross-shard effects travel through canonically ordered inboxes (see
//! [`crate::kernel`]), so runs are deterministic — and identical for
//! any worker count — regardless of OS scheduling.
//!
//! The window protocol per shard, between two barrier pairs:
//!
//! 1. flush staged sends to the per-shard inboxes, **barrier A**;
//! 2. drain own inbox in canonical order, publish status (heap
//!    minimum, progress, unfinished count), **barrier B**;
//! 3. every shard independently computes the same verdict from the
//!    published statuses: finish, fail (deadlock / stall / event
//!    budget), or open the next window
//!    `[global_min, global_min + lookahead)`;
//! 4. process own events strictly inside the window, rendezvousing
//!    with own programs as they resume.
//!
//! On failure verdicts every shard deposits a diagnostic fragment and
//! shard 0 panics with the assembled per-node report, preserving the
//! single-threaded kernel's panic messages. A panic anywhere else
//! (e.g. in a node behavior) poisons the window barrier and is
//! re-thrown from the caller's thread with its original payload.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};

use crate::kernel::{
    Event, FaultChange, FaultNotice, InTransit, Kernel, NodeBehavior, OpOutcome, Partition,
};
use crate::model::CostModel;
use crate::msg::NodeId;
use crate::stats::NetStats;
use crate::time::{Dur, SimTime};
use crate::transport::{Ctx, Transport};

/// Kernel → program: "you have the floor at virtual time `time`, and
/// may run ahead locally for up to `budget` of virtual time".
struct Go<R> {
    time: SimTime,
    reply: Option<R>,
    budget: Dur,
}

/// Program → kernel: why the program stopped running. `elapsed` carries
/// virtual time the program consumed locally (run-ahead under the
/// granted budget) since its last rendezvous.
enum AppYield<Op> {
    /// Submit a DSM operation and wait for its reply. The op is
    /// dispatched at `grant time + elapsed`.
    Op { op: Op, elapsed: Dur },
    /// Total local computation (including run-ahead) to charge.
    Advance(Dur),
    /// The program returned after `elapsed` of local run-ahead.
    Finished { elapsed: Dur },
}

type GoTx<R> = SyncSender<Go<R>>;
type YieldRx<Op> = Receiver<AppYield<Op>>;

/// The application program's handle to the simulated machine. One per
/// node; the program calls these methods and the kernel interleaves all
/// programs deterministically in virtual time.
///
/// Virtual time as seen by the program is `base + used`: `base` is the
/// kernel clock at the last `Go` grant and `used` is local run-ahead
/// accumulated since, bounded by the granted `budget`. The fast-path
/// accessors (`local_allows` / `consume_local` / `flush_local`) let a
/// lease holder (see `dsm-core`) service page hits entirely on the app
/// thread inside that window.
pub struct AppHandle<Op, Reply> {
    node: NodeId,
    nnodes: u32,
    go_rx: Receiver<Go<Reply>>,
    yield_tx: SyncSender<AppYield<Op>>,
    base: Cell<SimTime>,
    used: Cell<Dur>,
    budget: Cell<Dur>,
}

impl<Op, Reply> AppHandle<Op, Reply> {
    /// This program's node id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Total nodes in the run.
    pub fn nodes(&self) -> u32 {
        self.nnodes
    }

    /// Current virtual time, including local run-ahead.
    pub fn now(&self) -> SimTime {
        self.base.get() + self.used.get()
    }

    fn recv_go(&self) -> Option<Reply> {
        let go = self.go_rx.recv().expect("kernel hung up");
        self.base.set(go.time);
        self.used.set(Dur::ZERO);
        self.budget.set(go.budget);
        go.reply
    }

    /// Submit an operation to the local protocol and wait (in virtual
    /// time) for its reply. Any accumulated run-ahead is charged first:
    /// the kernel dispatches the op at `base + elapsed`.
    pub fn op(&self, op: Op) -> Reply {
        let elapsed = self.used.replace(Dur::ZERO);
        self.yield_tx
            .send(AppYield::Op { op, elapsed })
            .expect("kernel hung up");
        self.recv_go().expect("op resumed without a reply")
    }

    /// Model `d` of pure local computation. Accumulates locally while
    /// the granted budget lasts; otherwise yields to the kernel.
    pub fn advance(&self, d: Dur) {
        if d == Dur::ZERO {
            return;
        }
        let used = self.used.get();
        if used + d <= self.budget.get() {
            self.used.set(used + d);
            return;
        }
        self.yield_tx
            .send(AppYield::Advance(used + d))
            .expect("kernel hung up");
        let reply = self.recv_go();
        debug_assert!(reply.is_none());
    }

    /// True if `d` more virtual time fits in the current run-ahead
    /// budget. A zero budget always fails: the fast path is disabled
    /// whenever the kernel could not grant a window (e.g. zero-cost
    /// models), so ordering matches the rendezvous path exactly.
    pub fn local_allows(&self, d: Dur) -> bool {
        let budget = self.budget.get();
        budget > Dur::ZERO && self.used.get() + d <= budget
    }

    /// Consume `d` of the run-ahead budget for a locally serviced
    /// access. Call only after [`AppHandle::local_allows`] approved it.
    pub fn consume_local(&self, d: Dur) {
        debug_assert!(self.local_allows(d), "consume_local exceeds granted budget");
        self.used.set(self.used.get() + d);
    }

    /// Yield accumulated run-ahead to the kernel and receive a fresh
    /// budget grant. Returns `false` (doing nothing) if no time has
    /// been consumed since the last grant — yielding then would be a
    /// pure no-op rendezvous and could perturb event ordering.
    pub fn flush_local(&self) -> bool {
        let used = self.used.get();
        if used == Dur::ZERO {
            return false;
        }
        self.yield_tx
            .send(AppYield::Advance(used))
            .expect("kernel hung up");
        let reply = self.recv_go();
        debug_assert!(reply.is_none());
        true
    }

    fn wait_first_go(&self) {
        self.recv_go();
    }

    fn finish(&self) {
        // The kernel may already have shut down if it panicked.
        let _ = self.yield_tx.send(AppYield::Finished {
            elapsed: self.used.get(),
        });
    }
}

/// Outcome of a completed run.
#[derive(Debug)]
pub struct RunResult<V> {
    /// Virtual time at which the last program finished — the parallel
    /// execution time used for speedup figures.
    pub end_time: SimTime,
    /// Per-node program finish times.
    pub finish_times: Vec<SimTime>,
    /// Aggregate network traffic (merged across shards in shard
    /// order; identical for any worker count).
    pub stats: NetStats,
    /// Kernel→program floor handoffs performed over the whole run. Each
    /// is one rendezvous (two channel hops of real time); the batched
    /// fault pipeline exists to shrink this number.
    pub rendezvous: u64,
    /// Per-node program return values.
    pub results: Vec<V>,
    /// Per-node end-of-run metric gauges
    /// ([`NodeBehavior::gauges`]), indexed by node.
    pub gauges: Vec<Vec<(&'static str, u64)>>,
    /// Total kernel events processed, summed across shards.
    pub events: u64,
    /// Kernel worker threads (shards) the run used, after clamping to
    /// the node count.
    pub workers: usize,
    /// Wall-clock duration of the run, for throughput reporting.
    pub wall: std::time::Duration,
}

impl<V> RunResult<V> {
    /// Simulator throughput: kernel events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

/// Default progress-watchdog window: ten seconds of virtual time with
/// no program making progress is treated as a hang. Far above any
/// legitimate gap (the longest single modeled cost in the tree is a
/// sub-second bulk transfer), far below a wedged run's event horizon.
pub const DEFAULT_STALL_WINDOW: Dur = Dur::millis(10_000);

/// Configuration for one simulation run.
pub struct Sim<N: NodeBehavior> {
    nodes: Vec<N>,
    model: CostModel,
    max_events: u64,
    stall_window: Dur,
    local_quantum: Dur,
    workers: usize,
}

impl<N: NodeBehavior> Sim<N> {
    /// Build a run over the given per-node behaviors (protocol
    /// instances) and cost model.
    pub fn new(nodes: Vec<N>, model: CostModel) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        Sim {
            nodes,
            model,
            max_events: u64::MAX,
            stall_window: DEFAULT_STALL_WINDOW,
            local_quantum: crate::kernel::MAX_LOCAL_QUANTUM,
            workers: 1,
        }
    }

    /// Cap on per-grant program run-ahead (defaults to
    /// [`crate::kernel::MAX_LOCAL_QUANTUM`]). Larger quanta mean fewer
    /// kernel rendezvous for compute-heavy programs; smaller quanta
    /// tighten the `max_events` livelock guard. Purely a wall-clock
    /// knob: virtual-time results are identical for any positive value.
    pub fn local_quantum(mut self, q: Dur) -> Self {
        assert!(q > Dur::ZERO, "local quantum must be positive");
        self.local_quantum = q;
        self
    }

    /// Kernel worker threads (shards). Nodes are partitioned into
    /// contiguous blocks, one per worker, clamped to the node count.
    /// Purely a wall-clock knob: same-seed runs are bit-identical for
    /// any value — the window protocol admits cross-shard messages in
    /// an order that is a function of virtual time only.
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Panic (with a diagnostic dump) if more than `max` events are
    /// processed — the backstop for zero-delay livelocks, where virtual
    /// time never advances and the stall watchdog cannot fire. The
    /// count is shared across shards and checked on every pop, so the
    /// backstop fires even when a single shard spins inside a window.
    pub fn max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Progress watchdog: panic with a per-node diagnostic dump if no
    /// program makes progress for `window` of virtual time while some
    /// program is still unfinished. `Dur::ZERO` disables the watchdog.
    pub fn stall_window(mut self, window: Dur) -> Self {
        self.stall_window = window;
        self
    }

    /// Run one program per node to completion and return the result.
    ///
    /// `programs.len()` must equal the node count. Programs run on
    /// their own threads but in deterministic cooperative order.
    ///
    /// Panics on distributed deadlock: if every shard's event queue
    /// drains while some program has not finished, the blocked nodes
    /// are reported.
    pub fn run<V, F>(self, programs: Vec<F>) -> RunResult<V>
    where
        V: Send,
        F: FnOnce(&AppHandle<N::Op, N::Reply>) -> V + Send,
    {
        let Sim {
            nodes,
            model,
            max_events,
            stall_window,
            local_quantum,
            workers,
        } = self;
        let nnodes = nodes.len() as u32;
        assert_eq!(programs.len(), nodes.len(), "one program per node required");
        let wall_start = std::time::Instant::now();

        let part = Partition::new(nnodes, workers.min(u32::MAX as usize) as u32);
        let workers = part.workers();
        let lookahead = model.min_net_delay();
        let events = crate::kernel::new_event_counter();

        let mut go_txs = Vec::with_capacity(nodes.len());
        let mut yield_rxs = Vec::with_capacity(nodes.len());
        let mut handles = Vec::with_capacity(nodes.len());
        for i in 0..nodes.len() {
            // Capacity 1 is enough: strict rendezvous means at most one
            // message is ever in flight per channel.
            let (go_tx, go_rx) = sync_channel::<Go<N::Reply>>(1);
            let (yield_tx, yield_rx) = sync_channel::<AppYield<N::Op>>(1);
            go_txs.push(go_tx);
            yield_rxs.push(yield_rx);
            handles.push(AppHandle {
                node: NodeId(i as u32),
                nnodes,
                go_rx,
                yield_tx,
                base: Cell::new(SimTime::ZERO),
                used: Cell::new(Dur::ZERO),
                budget: Cell::new(Dur::ZERO),
            });
        }

        let kernels: Vec<Kernel<N>> = (0..workers)
            .map(|shard| {
                let mut k = Kernel::new(part, shard, model.clone(), Arc::clone(&events));
                k.set_max_events(max_events);
                k.set_local_quantum(local_quantum);
                k
            })
            .collect();
        let shard_nodes = split_by_shard(nodes, part);
        let shard_gtx = split_by_shard(go_txs, part);
        let shard_yrx = split_by_shard(yield_rxs, part);

        // Shared window machinery, borrowed by every shard thread.
        let inboxes: Vec<Mutex<Vec<InTransit<N::Msg>>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        let statuses: Vec<Mutex<ShardStatus>> = (0..workers)
            .map(|_| Mutex::new(ShardStatus::default()))
            .collect();
        let diags: Vec<Mutex<Option<ShardDiag>>> = (0..workers).map(|_| Mutex::new(None)).collect();
        let barrier = WindowBarrier::new(workers);
        let stash: PanicStash = Mutex::new(None);
        let win = WindowShared {
            inboxes: &inboxes,
            statuses: &statuses,
            diags: &diags,
            barrier: &barrier,
            stall_window,
            lookahead,
        };

        std::thread::scope(|s| {
            let mut joins = Vec::with_capacity(programs.len());
            for (program, handle) in programs.into_iter().zip(handles) {
                joins.push(s.spawn(move || {
                    handle.wait_first_go();
                    let v = program(&handle);
                    handle.finish();
                    v
                }));
            }

            // Shard 0 runs on this thread so its failure reports (and
            // any behavior panic payload) propagate to the caller
            // unchanged; shards 1.. run on worker threads whose panics
            // are stashed and re-thrown here.
            let mut shard_iter = kernels
                .into_iter()
                .zip(shard_nodes)
                .zip(shard_gtx)
                .zip(shard_yrx);
            let (((kernel0, nodes0), gtx0), yrx0) = shard_iter.next().expect("at least one shard");
            let mut worker_joins = Vec::with_capacity(workers - 1);
            for (w, (((kernel, nodes), gtx), yrx)) in shard_iter.enumerate() {
                let shard = w + 1;
                let stash = &stash;
                worker_joins.push(s.spawn(move || {
                    let exit = catch_unwind(AssertUnwindSafe(move || {
                        run_shard(kernel, nodes, gtx, yrx, shard, win)
                    }));
                    match exit {
                        Ok(ShardExit::Done { kernel, nodes }) => Some((*kernel, nodes)),
                        Ok(_) => None,
                        Err(payload) => {
                            stash_panic(stash, payload);
                            win.barrier.poison();
                            None
                        }
                    }
                }));
            }

            let exit = catch_unwind(AssertUnwindSafe(move || {
                run_shard(kernel0, nodes0, gtx0, yrx0, 0, win)
            }));
            let shard0 = match exit {
                Ok(ShardExit::Done { kernel, nodes }) => (*kernel, nodes),
                Ok(ShardExit::Fail { verdict }) => {
                    panic!(
                        "{}",
                        assemble_report(
                            &verdict,
                            &diags,
                            events.load(Ordering::Relaxed),
                            max_events,
                            stall_window,
                        )
                    );
                }
                Ok(ShardExit::Poisoned) => {
                    let payload = stash
                        .lock()
                        .expect("panic stash poisoned")
                        .take()
                        .expect("poisoned barrier without a stashed panic");
                    resume_unwind(payload);
                }
                Err(payload) => {
                    stash_panic(&stash, payload);
                    win.barrier.poison();
                    let payload = stash
                        .lock()
                        .expect("panic stash poisoned")
                        .take()
                        .expect("stashed above");
                    resume_unwind(payload);
                }
            };

            // Clean exit: collect the worker shards, then aggregate in
            // shard order (= node order, blocks are contiguous).
            let mut shards = vec![shard0];
            for j in worker_joins {
                let done = j.join().expect("worker shard panicked");
                shards.push(done.expect("worker shard exited uncleanly on a clean run"));
            }
            let results: Vec<V> = joins
                .into_iter()
                .map(|j| j.join().expect("program panicked"))
                .collect();

            let mut stats = NetStats::new();
            let mut rendezvous = 0u64;
            let mut finish_times = Vec::with_capacity(nnodes as usize);
            let mut gauges = Vec::with_capacity(nnodes as usize);
            for (kernel, behaviors) in &shards {
                stats.merge(&kernel.stats);
                rendezvous += kernel.rendezvous;
                finish_times.extend(kernel.app.iter().map(|slot| slot.finish_time));
                gauges.extend(behaviors.iter().map(|n| n.gauges()));
            }
            let end_time = finish_times.iter().copied().max().unwrap_or(SimTime::ZERO);
            RunResult {
                end_time,
                finish_times,
                stats,
                rendezvous,
                results,
                gauges,
                events: events.load(Ordering::Relaxed),
                workers,
                wall: wall_start.elapsed(),
            }
        })
    }
}

/// Distribute per-node values into per-shard vectors (node order within
/// each shard).
fn split_by_shard<T>(items: Vec<T>, part: Partition) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..part.workers()).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        out[part.shard_of(NodeId(i as u32))].push(item);
    }
    out
}

type PanicStash = Mutex<Option<Box<dyn Any + Send + 'static>>>;

/// Keep the first panic payload; later ones (cascading failures after
/// the barrier is poisoned) are dropped.
fn stash_panic(stash: &PanicStash, payload: Box<dyn Any + Send + 'static>) {
    let mut slot = stash.lock().expect("panic stash poisoned");
    if slot.is_none() {
        *slot = Some(payload);
    }
}

/// Status a shard publishes at every window boundary (between barriers
/// A and B; read by all shards after B).
#[derive(Default)]
struct ShardStatus {
    heap_min: Option<SimTime>,
    now: SimTime,
    last_progress: SimTime,
    unfinished: usize,
    budget_hit: bool,
    /// Messages this shard staged during the window that just ended
    /// (including shard-local ones). The fleet-wide sum is the traffic
    /// signal for adaptive window widening: a pure function of virtual
    /// time, so every shard folds the same sequence.
    staged: u64,
}

/// Adaptive window widening: after [`WIDEN_AFTER`] consecutive
/// fleet-wide zero-traffic windows, the lookahead factor doubles (up
/// to [`WIDEN_CAP`]) so compute-heavy quiet phases cross fewer
/// barriers; any staged message resets it. Every shard folds the same
/// per-window staged totals, so the factor sequence — and with it
/// every window boundary — is identical across shards and worker
/// counts. Correctness of widened windows is restored at admission:
/// messages staged inside one are floored to its end (see
/// [`Kernel::admit`]).
struct Widen {
    streak: u32,
    factor: u64,
}

/// Zero-traffic windows tolerated before widening kicks in.
const WIDEN_AFTER: u32 = 3;
/// Maximum lookahead multiplier.
const WIDEN_CAP: u64 = 8;

/// Diagnostic fragment a shard deposits when the consensus verdict is a
/// failure, consumed by shard 0 to assemble the panic report.
struct ShardDiag {
    heap_len: usize,
    heap_min: Option<SimTime>,
    peek: Option<String>,
    now: SimTime,
    never_finished: Vec<NodeId>,
    node_lines: String,
}

/// What every shard independently concludes at a window boundary. All
/// shards read the same published statuses, so all reach the same
/// verdict — that agreement is what keeps the barrier sequence aligned.
#[derive(Clone, Copy, Debug)]
enum Verdict {
    /// Open the next window ending at this time.
    Continue(SimTime),
    /// Every program finished and every heap is empty.
    Done,
    /// The shared event counter crossed `max_events`.
    Budget,
    /// No program progress for longer than the stall window.
    Stall { last: SimTime },
    /// Every heap is empty but some programs never finished.
    Deadlock { t: SimTime },
}

/// References to the window machinery shared by all shards of one run.
struct WindowShared<'a, M> {
    inboxes: &'a [Mutex<Vec<InTransit<M>>>],
    statuses: &'a [Mutex<ShardStatus>],
    diags: &'a [Mutex<Option<ShardDiag>>],
    barrier: &'a WindowBarrier,
    stall_window: Dur,
    lookahead: Dur,
}

impl<M> Clone for WindowShared<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for WindowShared<'_, M> {}

/// A reusable barrier that can be poisoned: when any shard panics, it
/// poisons the barrier and every current and future waiter returns
/// `Err` instead of deadlocking on the missing participant.
struct WindowBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    n: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

struct BarrierPoisoned;

impl WindowBarrier {
    fn new(n: usize) -> Self {
        WindowBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
            n,
        }
    }

    fn wait(&self) -> Result<(), BarrierPoisoned> {
        let mut g = self.state.lock().expect("barrier state poisoned");
        if g.poisoned {
            return Err(BarrierPoisoned);
        }
        g.arrived += 1;
        if g.arrived == self.n {
            g.arrived = 0;
            g.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = g.generation;
        while g.generation == gen && !g.poisoned {
            g = self.cv.wait(g).expect("barrier state poisoned");
        }
        if g.poisoned {
            Err(BarrierPoisoned)
        } else {
            Ok(())
        }
    }

    fn poison(&self) {
        let mut g = self.state.lock().expect("barrier state poisoned");
        g.poisoned = true;
        self.cv.notify_all();
    }
}

/// How one shard's event loop ended.
enum ShardExit<N: NodeBehavior> {
    /// Clean finish: all shards agreed the run is complete.
    Done {
        kernel: Box<Kernel<N>>,
        nodes: Vec<N>,
    },
    /// Failure verdict: the diagnostic fragment has been deposited;
    /// shard 0 assembles the report and panics.
    Fail { verdict: Verdict },
    /// The barrier was poisoned underneath us (another shard panicked).
    Poisoned,
}

/// Aggregate the published shard statuses into the one verdict every
/// shard must agree on. Reads happen strictly between barrier B and
/// the next barrier A, so no shard can be rewriting a status slot
/// concurrently.
fn consensus<M>(win: &WindowShared<'_, M>, widen: &mut Widen) -> Verdict {
    let mut heap_min: Option<SimTime> = None;
    let mut unfinished = 0usize;
    let mut budget_hit = false;
    let mut last_progress = SimTime::ZERO;
    let mut now_max = SimTime::ZERO;
    let mut staged = 0u64;
    for slot in win.statuses {
        let s = slot.lock().expect("status slot poisoned");
        heap_min = match (heap_min, s.heap_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        unfinished += s.unfinished;
        budget_hit |= s.budget_hit;
        last_progress = last_progress.max(s.last_progress);
        now_max = now_max.max(s.now);
        staged += s.staged;
    }
    // Fold the widening state from the fleet-wide traffic of the
    // window that just closed. Same inputs on every shard → same
    // factor sequence → same verdicts.
    if staged == 0 {
        widen.streak += 1;
        if widen.streak >= WIDEN_AFTER && widen.factor < WIDEN_CAP {
            widen.factor *= 2;
        }
    } else {
        widen.streak = 0;
        widen.factor = 1;
    }
    if budget_hit {
        return Verdict::Budget;
    }
    match heap_min {
        None if unfinished == 0 => Verdict::Done,
        None => Verdict::Deadlock { t: now_max },
        Some(m) => {
            if win.stall_window > Dur::ZERO
                && unfinished > 0
                && m.since(last_progress) > win.stall_window
            {
                Verdict::Stall {
                    last: last_progress,
                }
            } else {
                // Every event strictly below this bound is safe to
                // process: any message sent by an event at or after
                // `m` delivers at least `lookahead` later (and never
                // earlier — jitter, spikes and queueing only add). The
                // 1ns floor keeps zero-lookahead models moving one
                // timestamp per window. With the widening factor > 1
                // the bound is no longer intrinsic; the admission
                // floor at the window end restores it.
                Verdict::Continue(m + (win.lookahead * widen.factor).max(Dur::nanos(1)))
            }
        }
    }
}

/// One shard's event loop: the window protocol around the same
/// dispatch core the single-threaded kernel ran.
fn run_shard<N: NodeBehavior>(
    mut kernel: Kernel<N>,
    mut nodes: Vec<N>,
    go_txs: Vec<GoTx<N::Reply>>,
    yield_rxs: Vec<YieldRx<N::Op>>,
    shard: usize,
    win: WindowShared<'_, N::Msg>,
) -> ShardExit<N> {
    let lo = kernel.lo();
    let nlocal = nodes.len();

    // Protocol start hooks, then kick every owned program at t=0 in
    // node order. Sends from on_start are staged and admitted at the
    // first window boundary like any others.
    for (i, node) in nodes.iter_mut().enumerate() {
        let mut ctx = Ctx {
            port: &mut kernel,
            node: NodeId(lo + i as u32),
        };
        node.on_start(&mut ctx);
    }
    for i in 0..nlocal as u32 {
        kernel.schedule(
            SimTime::ZERO,
            Event::Resume {
                node: NodeId(lo + i),
            },
        );
    }

    // Ops whose locally accumulated time is still being charged: the
    // op dispatches when the matching Resume fires.
    let mut pending_ops: Vec<Option<N::Op>> = (0..nlocal).map(|_| None).collect();
    // Progress watchdog state: the virtual time of the last Resume
    // event for one of this shard's programs (ops completing, run-ahead
    // being charged, programs finishing — anything that is program
    // progress rather than protocol chatter). Published per window;
    // the consensus takes the max across shards.
    let mut last_progress = SimTime::ZERO;
    let mut unfinished = nlocal;
    let mut budget_hit = false;
    // Adaptive widening state (identical evolution on every shard) and
    // the admission floor owed for messages staged in the window that
    // just ended: its end time when it was widened, else ZERO (no-op).
    let mut widen = Widen {
        streak: 0,
        factor: 1,
    };
    let mut floor = SimTime::ZERO;

    loop {
        // Window boundary. Flush staged sends so every inbox holds the
        // complete traffic of the window that just ended...
        let staged = kernel.flush_outgoing(win.inboxes);
        if win.barrier.wait().is_err() {
            return ShardExit::Poisoned;
        }
        // ...then drain own inbox in canonical order and publish where
        // this shard stands.
        let batch = std::mem::take(&mut *win.inboxes[shard].lock().expect("inbox poisoned"));
        kernel.admit(batch, floor);
        *win.statuses[shard].lock().expect("status slot poisoned") = ShardStatus {
            heap_min: kernel.heap_min(),
            now: kernel.now(),
            last_progress,
            unfinished,
            budget_hit,
            staged,
        };
        if win.barrier.wait().is_err() {
            return ShardExit::Poisoned;
        }
        let window_end = match consensus(&win, &mut widen) {
            Verdict::Continue(w) => w,
            Verdict::Done => {
                return ShardExit::Done {
                    kernel: Box::new(kernel),
                    nodes,
                }
            }
            verdict => {
                *win.diags[shard].lock().expect("diag slot poisoned") =
                    Some(make_diag(&kernel, &nodes));
                // Barrier C: all fragments must be deposited before
                // shard 0 assembles the report. Poisoning here means
                // some shard died instead — proceed; the report
                // tolerates missing fragments.
                let _ = win.barrier.wait();
                return ShardExit::Fail { verdict };
            }
        };
        kernel.set_window_end(window_end);
        floor = if widen.factor > 1 {
            window_end
        } else {
            SimTime::ZERO
        };

        // Process this shard's slice of the window.
        while let Some((t, event)) = kernel.pop_in_window() {
            if kernel.over_event_budget() {
                budget_hit = true;
                break;
            }
            match event {
                Event::Deliver { src, dst, msg, nic } => {
                    if kernel.node_down(dst) {
                        // The destination's volatile state is gone: the
                        // frame dies at the dead host's NIC.
                        kernel.note_crash_dropped();
                        continue;
                    }
                    let mut ctx = Ctx {
                        port: &mut kernel,
                        node: dst,
                    };
                    let node = &mut nodes[(dst.0 - lo) as usize];
                    if nic {
                        node.on_nic(&mut ctx, src, msg);
                    } else {
                        node.on_message(&mut ctx, src, msg);
                    }
                }
                Event::Timer { node, token } => {
                    if kernel.node_down(node) {
                        kernel.note_crash_dropped();
                        continue;
                    }
                    let mut ctx = Ctx {
                        port: &mut kernel,
                        node,
                    };
                    nodes[(node.0 - lo) as usize].on_timer(&mut ctx, token);
                }
                Event::Fault { node, change } => {
                    kernel.apply_fault(node, change);
                    let i = (node.0 - lo) as usize;
                    let notice = match change {
                        FaultChange::SelfCrash { .. } => FaultNotice::Crashed,
                        FaultChange::SelfRecover => FaultNotice::Recovered,
                        FaultChange::PeerDown { peer, permanent } => {
                            FaultNotice::PeerDown { peer, permanent }
                        }
                        FaultChange::PeerUp(p) => FaultNotice::PeerUp(p),
                    };
                    {
                        let mut ctx = Ctx {
                            port: &mut kernel,
                            node,
                        };
                        nodes[i].on_fault(&mut ctx, notice);
                    }
                    match change {
                        // No recovery is coming: a program parked on an
                        // op would wedge the whole run, so resume it as
                        // a zombie that runs out of script at the crash
                        // instant (see the Resume arm).
                        FaultChange::SelfCrash { permanent: true }
                            if kernel.op_awaiting_reply(node) =>
                        {
                            let r = nodes[i].crashed_reply().unwrap_or_else(|| {
                                panic!(
                                    "{node} crashed permanently while parked on an op, \
                                     but its behavior provides no crashed_reply"
                                )
                            });
                            kernel.complete_op_after(node, r, Dur::ZERO);
                        }
                        // Re-grant the floor the crash swallowed.
                        FaultChange::SelfRecover if kernel.take_resume_dropped(node) => {
                            kernel.schedule(t, Event::Resume { node });
                        }
                        _ => {}
                    }
                }
                Event::Resume { node } => {
                    if kernel.node_down(node) && !kernel.node_dead(node) {
                        // Frozen across a crash window: the program
                        // keeps its stack but loses the floor until
                        // recovery re-grants it.
                        kernel.note_resume_dropped(node);
                        continue;
                    }
                    last_progress = t;
                    let i = (node.0 - lo) as usize;
                    if kernel.app[i].finished {
                        continue;
                    }
                    let dead = kernel.node_dead(node);
                    let mut reply = kernel.app[i].pending_reply.take();
                    let mut next_op = pending_ops[i].take();
                    // Inner loop: keep the program running while its
                    // ops complete with zero cost at this instant.
                    loop {
                        let op = match next_op.take() {
                            Some(op) => op,
                            None => {
                                let budget = kernel.local_budget(node);
                                kernel.rendezvous += 1;
                                go_txs[i]
                                    .send(Go {
                                        time: kernel.now(),
                                        reply: reply.take(),
                                        budget,
                                    })
                                    .expect("program thread died");
                                match yield_rxs[i].recv().expect("program thread died") {
                                    AppYield::Op { op, elapsed } => {
                                        // Zombies pay no virtual time:
                                        // the node's timeline ends at
                                        // the crash.
                                        if elapsed == Dur::ZERO || dead {
                                            op
                                        } else {
                                            // Charge the run-ahead first;
                                            // the op dispatches when this
                                            // Resume fires.
                                            pending_ops[i] = Some(op);
                                            let at = kernel.now() + elapsed;
                                            kernel.schedule(at, Event::Resume { node });
                                            break;
                                        }
                                    }
                                    AppYield::Advance(d) => {
                                        let at = if dead { kernel.now() } else { kernel.now() + d };
                                        kernel.schedule(at, Event::Resume { node });
                                        break;
                                    }
                                    AppYield::Finished { elapsed } => {
                                        kernel.app[i].finished = true;
                                        kernel.app[i].finish_time = if dead {
                                            kernel.now()
                                        } else {
                                            kernel.now() + elapsed
                                        };
                                        unfinished -= 1;
                                        break;
                                    }
                                }
                            }
                        };
                        if dead {
                            // Ops from a zombie never reach the
                            // behavior: complete immediately with the
                            // canned crash reply.
                            reply = Some(nodes[i].crashed_reply().unwrap_or_else(|| {
                                panic!(
                                    "{node} crashed permanently but its behavior \
                                     provides no crashed_reply"
                                )
                            }));
                            continue;
                        }
                        kernel.app[i].in_op = true;
                        let outcome = {
                            let mut ctx = Ctx {
                                port: &mut kernel,
                                node,
                            };
                            nodes[i].on_op(&mut ctx, op)
                        };
                        kernel.app[i].in_op = false;
                        match outcome {
                            OpOutcome::Done(r) => {
                                reply = Some(r);
                            }
                            OpOutcome::DoneAfter(r, d) => {
                                kernel.app[i].pending_reply = Some(r);
                                let at = kernel.now() + d;
                                kernel.schedule(at, Event::Resume { node });
                                break;
                            }
                            OpOutcome::Blocked => {
                                // The op handler may complete
                                // synchronously via complete_op
                                // (e.g. colocated manager), in
                                // which case blocked is already
                                // false and a Resume is queued.
                                if kernel.app[i].pending_reply.is_none() {
                                    kernel.app[i].blocked = true;
                                }
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Capture one shard's diagnostic fragment for the failure report.
fn make_diag<N: NodeBehavior>(kernel: &Kernel<N>, nodes: &[N]) -> ShardDiag {
    let lo = kernel.lo();
    let mut node_lines = String::new();
    for (i, n) in nodes.iter().enumerate() {
        let desc = n.describe();
        let desc = if desc.is_empty() { "-" } else { desc.as_str() };
        node_lines.push_str(&format!(
            "\n  n{} [{}]: {}",
            lo as usize + i,
            kernel.app_state(i),
            desc
        ));
    }
    ShardDiag {
        heap_len: kernel.heap_len(),
        heap_min: kernel.heap_min(),
        peek: kernel.peek_summary(),
        now: kernel.now(),
        never_finished: kernel.blocked_nodes(),
        node_lines,
    }
}

/// Multi-line diagnostic for a wedged run: the reason, kernel counters,
/// the earliest pending event across shards, and every node's program
/// state plus its behavior's `describe()` line (which, under the
/// reliable transport, includes in-flight retransmit queue depths).
fn assemble_report(
    verdict: &Verdict,
    diags: &[Mutex<Option<ShardDiag>>],
    events: u64,
    max_events: u64,
    stall_window: Dur,
) -> String {
    let fragments: Vec<Option<ShardDiag>> = diags
        .iter()
        .map(|d| d.lock().expect("diag slot poisoned").take())
        .collect();
    let now = fragments
        .iter()
        .flatten()
        .map(|d| d.now)
        .max()
        .unwrap_or(SimTime::ZERO);
    let pending: usize = fragments.iter().flatten().map(|d| d.heap_len).sum();
    let next = fragments
        .iter()
        .flatten()
        .filter(|d| d.heap_min.is_some())
        .min_by_key(|d| d.heap_min)
        .and_then(|d| d.peek.clone());
    let reason = match verdict {
        Verdict::Budget => {
            format!("kernel exceeded max_events={max_events} — protocol livelock?")
        }
        Verdict::Stall { last } => format!(
            "progress watchdog: no program progress for {stall_window} of virtual \
             time (last at t={last})"
        ),
        Verdict::Deadlock { t } => {
            let never: Vec<String> = fragments
                .iter()
                .flatten()
                .flat_map(|d| d.never_finished.iter().map(|n| format!("{n}")))
                .collect();
            format!(
                "distributed deadlock: event queue drained at t={t} with nodes \
                 never finished [{}]",
                never.join(" ")
            )
        }
        Verdict::Continue(_) | Verdict::Done => unreachable!("not a failure verdict"),
    };
    let mut out = format!(
        "{reason}\n  virtual time: {now}\n  events processed: {events}\n  event heap: \
         {pending} pending"
    );
    if let Some(top) = next {
        out.push_str(&format!(" (next: {top})"));
    }
    for fragment in fragments.iter().flatten() {
        out.push_str(&fragment.node_lines);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::wire_enum! {
        /// A trivial ping-pong behavior: node 0's program sends a ping
        /// op; the behavior forwards it to node 1, whose handler pongs
        /// back.
        #[derive(Clone)]
        enum PingMsg: Payload {
            Ping = 40 => 8,
            Pong = 41 => 8,
        }
    }

    struct PingNode;
    impl NodeBehavior for PingNode {
        type Msg = PingMsg;
        type Op = ();
        type Reply = SimTime;

        fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg) {
            match msg {
                PingMsg::Ping => ctx.send(from, PingMsg::Pong),
                PingMsg::Pong => {
                    let now = ctx.now();
                    ctx.complete_op(now);
                }
            }
        }

        fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, _op: ()) -> OpOutcome<SimTime> {
            ctx.send(NodeId(1), PingMsg::Ping);
            OpOutcome::Blocked
        }
    }

    #[test]
    fn ping_pong_round_trip_time_and_stats() {
        let model = CostModel::uniform(Dur::micros(10), 0);
        let sim = Sim::new(vec![PingNode, PingNode], model);
        let res = sim.run(vec![
            |h: &AppHandle<(), SimTime>| h.op(()),
            |_h: &AppHandle<(), SimTime>| SimTime::ZERO,
        ]);
        // One-way 10us each direction.
        assert_eq!(res.results[0], SimTime(20_000));
        assert_eq!(res.stats.kind("Ping").count, 1);
        assert_eq!(res.stats.kind("Pong").count, 1);
        assert_eq!(res.end_time, SimTime(20_000));
        assert_eq!(res.workers, 1);
        assert!(res.events > 0, "event count must be reported");
    }

    #[test]
    fn advance_accumulates_virtual_time() {
        let model = CostModel::uniform(Dur::ZERO, 0);
        let sim = Sim::new(vec![PingNode], model);
        let res = sim.run(vec![|h: &AppHandle<(), SimTime>| {
            h.advance(Dur::micros(5));
            h.advance(Dur::micros(7));
            h.now()
        }]);
        assert_eq!(res.results[0], SimTime(12_000));
        assert_eq!(res.finish_times[0], SimTime(12_000));
    }

    #[test]
    fn end_time_is_max_of_finish_times() {
        let model = CostModel::uniform(Dur::ZERO, 0);
        let sim = Sim::new(vec![PingNode, PingNode], model);
        let res = sim.run(vec![
            |h: &AppHandle<(), SimTime>| h.advance(Dur::millis(3)),
            |h: &AppHandle<(), SimTime>| h.advance(Dur::millis(1)),
        ]);
        assert_eq!(res.end_time, SimTime(3_000_000));
        assert_eq!(res.finish_times[1], SimTime(1_000_000));
    }

    #[test]
    #[should_panic(expected = "distributed deadlock")]
    fn deadlock_is_detected() {
        struct StuckNode;
        impl NodeBehavior for StuckNode {
            type Msg = PingMsg;
            type Op = ();
            type Reply = ();
            fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: Self::Msg) {}
            fn on_op(&mut self, _: &mut Ctx<'_, Self>, _: ()) -> OpOutcome<()> {
                OpOutcome::Blocked // nobody will ever complete this
            }
        }
        let sim = Sim::new(vec![StuckNode], CostModel::default());
        sim.run(vec![|h: &AppHandle<(), ()>| h.op(())]);
    }

    /// Two nodes ping each other forever via timers without any program
    /// progress: node programs block on an op nobody completes while
    /// the behaviors keep virtual time advancing. The stall watchdog
    /// must fire with a diagnostic dump, not a bare panic.
    struct WedgedNode {
        beats: u64,
    }
    impl NodeBehavior for WedgedNode {
        type Msg = PingMsg;
        type Op = ();
        type Reply = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
            ctx.set_timer(Dur::millis(1), 7);
        }
        fn describe(&self) -> String {
            format!("wedged; heartbeats={}", self.beats)
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: Self::Msg) {}
        fn on_op(&mut self, _: &mut Ctx<'_, Self>, _: ()) -> OpOutcome<()> {
            OpOutcome::Blocked // nobody will ever complete this
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, token: u64) {
            self.beats += 1;
            ctx.set_timer(Dur::millis(1), token);
        }
    }

    fn run_wedged(sim: Sim<WedgedNode>) {
        sim.run(vec![|h: &AppHandle<(), ()>| h.op(()), |h: &AppHandle<
            (),
            (),
        >| h.op(())]);
    }

    fn wedged_panic_message(sim: Sim<WedgedNode>) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_wedged(sim)))
            .expect_err("watchdog should have fired");
        err.downcast_ref::<String>()
            .expect("panic payload should be a String")
            .clone()
    }

    #[test]
    fn stall_watchdog_dumps_node_state() {
        let sim = Sim::new(
            vec![WedgedNode { beats: 0 }, WedgedNode { beats: 0 }],
            CostModel::default(),
        )
        .stall_window(Dur::millis(50));
        let msg = wedged_panic_message(sim);
        assert!(msg.contains("progress watchdog"), "got: {msg}");
        assert!(msg.contains("event heap"), "got: {msg}");
        // Both nodes' describe() lines and program states appear.
        assert!(
            msg.contains("n0 [blocked]: wedged; heartbeats="),
            "got: {msg}"
        );
        assert!(
            msg.contains("n1 [blocked]: wedged; heartbeats="),
            "got: {msg}"
        );
    }

    /// The same watchdog dump must work when the wedged nodes live on
    /// different shards: every shard deposits its fragment and shard 0
    /// assembles the full per-node report.
    #[test]
    fn stall_watchdog_dumps_node_state_across_shards() {
        let sim = Sim::new(
            vec![WedgedNode { beats: 0 }, WedgedNode { beats: 0 }],
            CostModel::default(),
        )
        .stall_window(Dur::millis(50))
        .workers(2);
        let msg = wedged_panic_message(sim);
        assert!(msg.contains("progress watchdog"), "got: {msg}");
        assert!(
            msg.contains("n0 [blocked]: wedged; heartbeats="),
            "got: {msg}"
        );
        assert!(
            msg.contains("n1 [blocked]: wedged; heartbeats="),
            "got: {msg}"
        );
    }

    #[test]
    fn max_events_backstop_dumps_node_state() {
        // Watchdog disabled: only the event-count backstop can fire.
        let sim = Sim::new(
            vec![WedgedNode { beats: 0 }, WedgedNode { beats: 0 }],
            CostModel::default(),
        )
        .stall_window(Dur::ZERO)
        .max_events(500);
        let msg = wedged_panic_message(sim);
        assert!(msg.contains("exceeded max_events=500"), "got: {msg}");
        assert!(msg.contains("n0 [blocked]: wedged"), "got: {msg}");
    }

    #[test]
    fn max_events_backstop_fires_across_shards() {
        let sim = Sim::new(
            vec![WedgedNode { beats: 0 }, WedgedNode { beats: 0 }],
            CostModel::default(),
        )
        .stall_window(Dur::ZERO)
        .max_events(500)
        .workers(2);
        let msg = wedged_panic_message(sim);
        assert!(msg.contains("exceeded max_events=500"), "got: {msg}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let model = CostModel::lan_1992();
            let sim = Sim::new(vec![PingNode, PingNode], model);
            let res = sim.run(vec![
                |h: &AppHandle<(), SimTime>| {
                    h.advance(Dur::micros(3));
                    h.op(())
                },
                |h: &AppHandle<(), SimTime>| {
                    h.advance(Dur::micros(50));
                    h.now()
                },
            ]);
            (res.end_time, res.results.clone(), res.stats.total_msgs())
        };
        assert_eq!(run(), run());
    }

    /// A ring of nodes, each pinging its successor, with jitter on: the
    /// full observable trace must be bit-identical for every worker
    /// count (including workers > nodes, which clamps).
    struct RingNode;
    impl NodeBehavior for RingNode {
        type Msg = PingMsg;
        type Op = ();
        type Reply = SimTime;
        fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg) {
            match msg {
                PingMsg::Ping => ctx.send(from, PingMsg::Pong),
                PingMsg::Pong => {
                    let now = ctx.now();
                    ctx.complete_op(now);
                }
            }
        }
        fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, _op: ()) -> OpOutcome<SimTime> {
            let next = NodeId((ctx.me().0 + 1) % ctx.nodes());
            ctx.send(next, PingMsg::Ping);
            OpOutcome::Blocked
        }
    }

    #[test]
    fn worker_count_does_not_change_the_trace() {
        let run = |workers: usize| {
            let model = CostModel::lan_1992().with_jitter(Dur::micros(20), 7);
            let sim =
                Sim::new(vec![RingNode, RingNode, RingNode, RingNode], model).workers(workers);
            let programs: Vec<_> = (0..4)
                .map(|_| {
                    |h: &AppHandle<(), SimTime>| {
                        let a = h.op(());
                        h.advance(Dur::micros(30));
                        let b = h.op(());
                        (a, b)
                    }
                })
                .collect();
            let res = sim.run(programs);
            assert_eq!(res.workers, workers.min(4));
            (
                res.end_time,
                res.finish_times.clone(),
                res.results.clone(),
                res.stats.clone(),
                res.rendezvous,
                res.events,
            )
        };
        let w1 = run(1);
        for workers in [2, 3, 4, 8] {
            assert_eq!(w1, run(workers), "trace diverged at workers={workers}");
        }
    }

    #[test]
    fn done_after_charges_local_time() {
        struct LocalNode;
        impl NodeBehavior for LocalNode {
            type Msg = PingMsg;
            type Op = u64;
            type Reply = u64;
            fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: Self::Msg) {}
            fn on_op(&mut self, _: &mut Ctx<'_, Self>, op: u64) -> OpOutcome<u64> {
                OpOutcome::DoneAfter(op * 2, Dur::micros(op))
            }
        }
        let sim = Sim::new(vec![LocalNode], CostModel::uniform(Dur::ZERO, 0));
        let res = sim.run(vec![|h: &AppHandle<u64, u64>| {
            let a = h.op(10);
            let b = h.op(5);
            (a, b, h.now())
        }]);
        assert_eq!(res.results[0], (20, 10, SimTime(15_000)));
    }
}
