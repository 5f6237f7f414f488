//! The asynchronous ("semi-chaotic") lock-free engine — the paper's
//! headline contribution (§4).
//!
//! "Here 'asynchronous' means that the processors never have to wait for
//! any of the other processors — there are no synchronization locks or
//! barriers." The algorithm processes the circuit *by elements* rather
//! than by time steps:
//!
//! 1. **Initialization**: generator and constant nodes are evaluated for
//!    all time (their full event schedules are appended and their valid
//!    times set to the end of simulation).
//! 2. Each processor independently: atomically removes an element from
//!    the distributed activation grid, replays as much of its input
//!    behavior as the inputs' *valid times* allow (batching many events
//!    per activation), appends the resulting output events, extends the
//!    outputs' valid times, and stimulates fan-out elements at most once
//!    (the [`ActivationState`] machine).
//!
//! Valid times are updated *incrementally*, so the Chandy–Misra deadlock
//! never arises; storage for consumed events is reclaimed concurrently
//! ("this garbage collection may also be done asynchronously"); and the
//! controlling-value lookahead extends an AND/OR gate's output validity
//! past unknown inputs, exactly as the paper's example ("if e2 is an AND
//! gate and node 2 is 0 from time 0 until time 25 ... any events on node 4
//! between times 0 and 25 can be ignored").
//!
//! # Register lookahead
//!
//! The same §4 idea applied to clocked elements: a flip-flop, memory or
//! opaque latch cannot move its output before the next event on one of
//! its trigger ports ([`ElementKind::triggers`]: clock, reset, enable),
//! whatever its data inputs do. After replay, such an element publishes
//! its outputs as valid through that next trigger event (or, with none
//! published yet, through the trigger node's own `valid_until`) plus its
//! delay. Data events are *not* skipped — an evaluation they cause leaves
//! output and state alone, so they stay in their lists and are replayed
//! once valid. This is what keeps feedback through registers from
//! creeping one loop delay per activation: on `pipelined_cpu`, where
//! every loop crosses a `DffR`, it removes about nine activations in ten.
//! An element still stores only its own outputs' `valid_until`, so the
//! single-writer argument below is unchanged; both lookahead rules read
//! their inputs through [`Cursor::quiet_through`], whose load order is
//! the one subtle point (see its docs).
//!
//! # Lock-freedom inventory
//!
//! - element scheduling: a worker-private local LIFO deque backed by an
//!   n×n single-reader/single-writer FIFO grid
//!   ([`parsim_queue::grid()`]) whose slots carry id *batches*;
//! - per-node behavior: an append-only chunked event list
//!   ([`crate::behavior`]) with a single writer (the node's driver,
//!   exclusive via the activation machine) and release/acquire
//!   publication;
//! - valid times: monotone `AtomicU64`s;
//! - at-most-once stimulation: [`ActivationState`] CAS machine;
//! - termination: a global pending-work counter;
//! - garbage collection: per-fanout consumption cursors, chunks freed by
//!   the (exclusive) writer once every consumer has moved past them.
//!
//! No mutex, no barrier, no rollback, anywhere on the hot path.
//!
//! Each entry in this inventory is verified by a deterministic
//! interleaving exploration (the `parsim-model-check` crate): the grid's
//! SPSC slots, the id batches, and the activation machine in
//! `crates/queue/tests/model.rs`; the behavior list's publication,
//! GC-cursor, `valid_until`, and lookahead quiet-window protocols in
//! `crates/core/tests/model_chaotic.rs`. DESIGN.md §9 maps every entry to
//! its model test.
//!
//! # Locality-aware scheduling
//!
//! The engine places elements itself: fan-out cone clustering
//! ([`parsim_netlist::partition::cone_cluster`]) assigns every element an
//! owner processor, and every activation is routed to its owner. Each
//! worker seeds its run with its owned initial activations and checks a
//! bounded local LIFO deque before its grid column. An element
//! stimulating an owned fan-out pushes locally (hot in cache, no atomics
//! beyond the activation CAS); foreign fan-out accumulates into
//! per-destination [`IdBatch`] buffers flushed at activation end, so one
//! SPSC slot carries many element ids. First-touch pipelining wakes flush
//! eagerly — batching must not delay the paper's producer/consumer
//! overlap. The idle branch escalates through a truncated exponential
//! backoff ([`Backoff`]) instead of burning a hardware thread. All of it
//! is observable via [`Metrics::locality`](crate::Metrics::locality).

use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

use parsim_checkpoint::{EngineSnapshot, PendingEvent};
use parsim_logic::{
    evaluate, expand_generator, transition_delay, Bit, Delay, ElemState, ElementKind, Lookahead, Time,
    Value,
};
use parsim_netlist::partition::cone_cluster;
use parsim_netlist::{Netlist, NodeId};
use parsim_queue::{grid, ActivationState, Backoff, GridSender, IdBatch};
use parsim_trace::{EventKind, Tracer, WorkerTracer};

use parsim_telemetry::{Counter, Gauge, Tally};

use crate::behavior::{ChunkAlloc, Cursor, NodeState};
use crate::checkpoint::{new_run_ctx, SegmentOut, SegmentSpec};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::exec::run_workers;
use crate::fault::FaultAction;
use crate::shared::SharedSlice;
use crate::waveform::SimResult;

/// Engine tag used in [`SimError`] values.
const ENGINE: &str = "chaotic-async";

/// Per-worker results: recorded waveform changes, the worker's drained
/// trace ring, and the events the worker computed beyond the segment cut
/// (checkpoint capture mode), and its `ChunkAlloc` tally `(allocs,
/// frees)`, summed after the join. Every other counter travels through
/// the worker's telemetry shard.
type WorkerOutput = (Vec<(Time, NodeId, Value)>, WorkerTracer, Vec<PendingEvent>, (u64, u64));

/// How many activations a worker runs between telemetry shard flushes.
/// The chaotic hot loop has no step boundary to piggyback on, so counter
/// publishes are micro-batched to keep them off the per-event path.
const TELEMETRY_FLUSH_EVERY: u64 = 256;

/// Push-side bound of the local LIFO deque: fan-out pushes beyond this
/// divert to the owner's grid column instead, so one worker cannot hoard
/// unbounded work its peers could be executing. Incoming grid batches
/// always append (they must not be dropped), so occupancy is bounded by
/// `LOCAL_CAP` plus the size of the worker's initial owned set plus one
/// batch.
const LOCAL_CAP: usize = 1024;

/// Per-worker scheduling endpoint: the worker-private LIFO deque, the
/// per-destination batch buffers, and this worker's grid sender.
struct Sched {
    /// This worker's index (= its owner id in the partition).
    w: usize,
    tx: GridSender<IdBatch>,
    /// Worker-private LIFO deque, checked before the grid column.
    local: Vec<u32>,
    /// One fill-in-progress batch per destination worker, flushed at
    /// activation end (or immediately when full / for first-touch wakes).
    outbox: Vec<IdBatch>,
    #[cfg(feature = "chaos")]
    chaos: parsim_queue::chaos::ChaosState,
}

impl Sched {
    fn new(w: usize, tx: GridSender<IdBatch>, local: Vec<u32>) -> Sched {
        let n = tx.peers();
        Sched {
            w,
            tx,
            local,
            outbox: (0..n).map(|_| IdBatch::new()).collect(),
            #[cfg(feature = "chaos")]
            chaos: parsim_queue::chaos::ChaosState::new("chaotic-sched"),
        }
    }

    /// Routes one freshly won activation. Owned elements under the cap
    /// push onto the local deque; everything else accumulates in the
    /// destination's batch (a full batch flushes immediately).
    fn enqueue(&mut self, ctx: &Ctx<'_>, e: u32, tally: &mut Tally, tr: &mut WorkerTracer) {
        #[cfg(feature = "chaos")]
        self.chaos.maybe_yield();
        let dest = ctx.owner[e as usize] as usize;
        if dest == self.w && self.local.len() < LOCAL_CAP {
            tally.inc(Counter::LocalHits);
            tr.instant(EventKind::LocalHit, e);
            self.local.push(e);
            return;
        }
        // Foreign fan-out — or local overflow diverted through the grid
        // so idle peers cannot starve while this worker hoards work.
        tally.inc(Counter::GridSends);
        if !self.outbox[dest].push(e) {
            self.flush_one(dest, tally, tr);
            let pushed = self.outbox[dest].push(e);
            debug_assert!(pushed, "a freshly flushed batch accepts an id");
        }
    }

    /// Like [`enqueue`](Sched::enqueue), but the destination's batch
    /// flushes immediately afterwards: used for first-touch wakes, where
    /// batching latency would defeat the paper's producer/consumer
    /// pipelining.
    fn enqueue_eager(
        &mut self,
        ctx: &Ctx<'_>,
        e: u32,
        tally: &mut Tally,
        tr: &mut WorkerTracer,
    ) {
        self.enqueue(ctx, e, tally, tr);
        self.flush_one(ctx.owner[e as usize] as usize, tally, tr);
    }

    /// Sends one destination's fill-in-progress batch, if non-empty.
    fn flush_one(&mut self, dest: usize, tally: &mut Tally, tr: &mut WorkerTracer) {
        if self.outbox[dest].is_empty() {
            return;
        }
        #[cfg(feature = "chaos")]
        self.chaos.maybe_yield();
        let batch = self.outbox[dest].take();
        tally.inc(Counter::GridBatches);
        self.tx.send_to_traced(dest, batch, tr);
    }

    /// Flushes every destination batch. Called at activation end, so no
    /// foreign activation waits longer than one element run.
    fn flush_all(&mut self, tally: &mut Tally, tr: &mut WorkerTracer) {
        for dest in 0..self.outbox.len() {
            self.flush_one(dest, tally, tr);
        }
    }
}

/// Static per-element wiring resolved once at startup.
struct ElemMeta {
    kind: ElementKind,
    rise: Delay,
    fall: Delay,
    /// min(rise, fall): the conservative validity increment.
    delay: u64,
    /// Per input port: (node index, position in that node's fanout list).
    inputs: Vec<(u32, u32)>,
    /// Output node indices.
    outputs: Vec<u32>,
    /// The lookahead rule `run_element` applies after replay
    /// ([`Lookahead::None`] for every element when
    /// [`SimConfig::lookahead`](crate::SimConfig) is off).
    lookahead: Lookahead,
}

/// Mutable per-element run state, exclusive via the activation machine.
struct ElemRun {
    cursors: Vec<Cursor>,
    cur_vals: Vec<Value>,
    state: ElemState,
    last_out: Vec<Value>,
    /// Last appended event time per output port (monotone transport).
    last_te: Vec<u64>,
    /// Value of each output node at the segment cut: the last event value
    /// appended *within* the cut (unlike `last_out`, which also tracks
    /// beyond-cut overflow events). Read post-join for snapshot capture.
    cut_val: Vec<Value>,
}

/// Everything a worker needs, shared immutably.
struct Ctx<'a> {
    netlist: &'a Netlist,
    nodes: Vec<NodeState>,
    meta: Vec<ElemMeta>,
    runs: SharedSlice<ElemRun>,
    acts: Vec<ActivationState>,
    /// Element index -> slot in `acts` (partition-grouped layout).
    act_of: Vec<u32>,
    pending: AtomicI64,
    watched: Vec<bool>,
    /// Owner worker per element.
    owner: Vec<u32>,
    /// This segment's cut: events and validity never pass it.
    end: u64,
    /// The run's horizon (`config.end_time`): events in `(end, horizon]`
    /// overflow into the checkpoint snapshot when `capture` is on, and
    /// are dropped (without bookkeeping) otherwise — matching what an
    /// uninterrupted run would keep or drop.
    horizon: u64,
    capture: bool,
    gc: bool,
}

impl Ctx<'_> {
    /// The activation flag for element `e` (partition-grouped layout).
    #[inline(always)]
    fn act(&self, e: usize) -> &ActivationState {
        &self.acts[self.act_of[e] as usize]
    }
}

/// The asynchronous lock-free simulator.
///
/// Produces waveforms identical to [`EventDriven`](crate::EventDriven) on
/// every circuit, at any thread count.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaoticAsync;

impl ChaoticAsync {
    /// Runs the simulation on `config.threads` worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WorkerPanicked`] if any worker panicked (all
    /// peers are cancelled and joined first), and
    /// [`SimError::Stalled`] / [`SimError::DeadlineExceeded`] if the
    /// watchdog configured via
    /// [`SimConfig::stall_timeout`](crate::SimConfig) /
    /// [`SimConfig::deadline`](crate::SimConfig) cancelled the run.
    pub fn run(netlist: &Netlist, config: &SimConfig) -> Result<SimResult, SimError> {
        let ctx = new_run_ctx(config);
        let out = Self::run_segment(netlist, config, SegmentSpec::whole(config, ctx.clone()))?;
        Ok(out.into_result(netlist, config, &ctx))
    }

    /// Runs one segment — the whole run when `seg` is
    /// [`SegmentSpec::whole`]. The chaotic engine's quiescence property
    /// is what makes its cuts consistent: the run terminates only when
    /// every node's `valid_until` has reached the cut, so every element
    /// has replayed every input event within the segment and the
    /// captured per-element state is exactly what a fresh engine warm-
    /// started from it needs. Resume seeds the behavior lists with the
    /// snapshot's in-flight events and the re-expanded generator
    /// schedules past the previous cut; cursors start at the (empty)
    /// list heads with the snapshot's node values as their baselines.
    pub(crate) fn run_segment(
        netlist: &Netlist,
        config: &SimConfig,
        seg: SegmentSpec<'_>,
    ) -> Result<SegmentOut, SimError> {
        let start = Instant::now();
        let horizon = config.end_time.ticks();
        let end = seg.cut;
        let t0 = seg.resume.map(|s| s.time);
        let capture = seg.capture;
        let n_threads = config.threads;

        let mut watched = vec![false; netlist.num_nodes()];
        for &w in &config.watch {
            watched[w.index()] = true;
        }

        // ---- static wiring ------------------------------------------------
        let mut fanout_pos: Vec<Vec<u32>> = vec![Vec::new(); netlist.num_elements()];
        for node in netlist.nodes() {
            for (k, &(elem, port)) in node.fanout().iter().enumerate() {
                let list = &mut fanout_pos[elem.index()];
                if list.len() <= port as usize {
                    list.resize(port as usize + 1, 0);
                }
                list[port as usize] = k as u32;
            }
        }
        let meta: Vec<ElemMeta> = netlist
            .iter_elements()
            .map(|(id, e)| {
                let inputs = e
                    .inputs()
                    .iter()
                    .enumerate()
                    .map(|(port, &node)| (node.index() as u32, fanout_pos[id.index()][port]))
                    .collect();
                let scalar = e.inputs().iter().all(|&i| netlist.node(i).width() == 1)
                    && e.outputs().iter().all(|&o| netlist.node(o).width() == 1);
                ElemMeta {
                    kind: e.kind().clone(),
                    rise: e.rise_delay(),
                    fall: e.fall_delay(),
                    delay: e.min_delay().ticks(),
                    inputs,
                    outputs: e.outputs().iter().map(|&o| o.index() as u32).collect(),
                    lookahead: if config.lookahead {
                        e.kind().lookahead(scalar)
                    } else {
                        Lookahead::None
                    },
                }
            })
            .collect();

        let owner: Vec<u32> = cone_cluster(netlist, n_threads).assignment().to_vec();

        let mut seed_alloc = ChunkAlloc::default();
        let nodes: Vec<NodeState> = netlist
            .nodes()
            .iter()
            .map(|nd| NodeState::new(nd.fanout().len(), &mut seed_alloc))
            .collect();

        // ---- initialization (§4 step 1) -----------------------------------
        // Per-thread change buffers; index 0 doubles as the init buffer.
        let mut init_changes: Vec<(Time, NodeId, Value)> = Vec::new();
        let mut events_seed = 0u64;
        // Per-node value at this segment's cut, maintained for snapshot
        // capture: the baseline (snapshot values or all-X), overwritten by
        // the generator expansion below and — post-join — by each logic
        // driver's `cut_val`.
        let mut base_vals: Vec<Value> = match seg.resume {
            Some(snap) => snap.values.clone(),
            None => netlist
                .nodes()
                .iter()
                .map(|nd| Value::x(nd.width()))
                .collect(),
        };
        // Snapshot events beyond even this segment's cut: carried through
        // to the next snapshot unexecuted.
        let mut carry: Vec<PendingEvent> = Vec::new();
        for (i, nd) in netlist.nodes().iter().enumerate() {
            match nd.driver() {
                Some((drv, _)) if netlist.element(drv).kind().is_generator() => {
                    // Expansion stops at the cut; a resumed segment
                    // re-expands and keeps only events past the previous
                    // cut (the earlier ones are already baked into the
                    // snapshot's node values).
                    for (t, v) in expand_generator(netlist.element(drv).kind(), Time(end)) {
                        base_vals[i] = v;
                        if t0.is_some_and(|t0| t.ticks() <= t0) {
                            continue;
                        }
                        // SAFETY: pre-spawn exclusive access.
                        unsafe { nodes[i].push(t.ticks(), v, &mut seed_alloc) };
                        let is_initial_x =
                            t0.is_none() && t == Time::ZERO && v == Value::x(nd.width());
                        if !is_initial_x {
                            events_seed += 1;
                            if watched[i] {
                                init_changes.push((t, NodeId::from_index(i), v));
                            }
                        }
                    }
                    nodes[i].valid_until.store(end, Ordering::Relaxed);
                }
                Some(_) => match t0 {
                    // Driven by logic: implicit X at time zero.
                    None => unsafe { nodes[i].push(0, Value::x(nd.width()), &mut seed_alloc) },
                    // Resumed: the cursor baselines carry the value at the
                    // previous cut; behavior is known through it.
                    Some(t0) => nodes[i].valid_until.store(t0, Ordering::Relaxed),
                },
                None => {
                    // Floating: X forever, known for all time.
                    if t0.is_none() {
                        unsafe { nodes[i].push(0, Value::x(nd.width()), &mut seed_alloc) };
                    }
                    nodes[i].valid_until.store(end, Ordering::Relaxed);
                }
            }
        }
        // Re-inject the snapshot's in-flight events — computed before the
        // previous cut for delivery after it. The snapshot keeps them
        // sorted by time, so each node's append-only list stays monotone.
        // Watched ones are recorded *here*: the capturing segment routed
        // them into the snapshot instead of its change log.
        if let Some(snap) = seg.resume {
            for ev in &snap.pending {
                if ev.time > end {
                    carry.push(ev.clone());
                    continue;
                }
                let i = ev.node as usize;
                // SAFETY: pre-spawn exclusive access.
                unsafe { nodes[i].push(ev.time, ev.value, &mut seed_alloc) };
                events_seed += 1;
                if watched[i] {
                    init_changes.push((Time(ev.time), NodeId::from_index(i), ev.value));
                }
            }
        }

        let baseline = |node: u32| match seg.resume {
            Some(snap) => snap.values[node as usize],
            None => Value::x(netlist.nodes()[node as usize].width()),
        };
        let runs: SharedSlice<ElemRun> = SharedSlice::new(
            meta.iter()
                .enumerate()
                .map(|(e, m)| ElemRun {
                    cursors: m
                        .inputs
                        .iter()
                        .map(|&(node, _)| Cursor::new(&nodes[node as usize], baseline(node)))
                        .collect(),
                    cur_vals: m.inputs.iter().map(|&(node, _)| baseline(node)).collect(),
                    state: match seg.resume {
                        Some(snap) => snap.elem_states[e].clone(),
                        None => ElemState::init(&m.kind),
                    },
                    last_out: m
                        .outputs
                        .iter()
                        .map(|&o| match seg.resume {
                            Some(snap) => snap.last_scheduled[o as usize],
                            None => Value::x(netlist.nodes()[o as usize].width()),
                        })
                        .collect(),
                    last_te: m
                        .outputs
                        .iter()
                        .map(|&o| match seg.resume {
                            Some(snap) => snap.last_sched_time[o as usize],
                            None => 0,
                        })
                        .collect(),
                    cut_val: m.outputs.iter().map(|&o| base_vals[o as usize]).collect(),
                })
                .collect(),
        );
        // Injected in-flight events move their nodes' values at the cut:
        // fold them into the drivers' `cut_val` (last one per node wins —
        // the pending list is time-sorted).
        if let Some(snap) = seg.resume {
            for ev in &snap.pending {
                if ev.time > end {
                    continue;
                }
                let node = NodeId::from_index(ev.node as usize);
                if let Some((drv, port)) = netlist.node(node).driver() {
                    // SAFETY: pre-spawn exclusive access.
                    unsafe { runs.get_mut(drv.index()) }.cut_val[port as usize] = ev.value;
                }
            }
        }

        // Activation flags, grouped by owning worker with a cache line's
        // worth of padding between partitions so one partition's CAS
        // traffic does not false-share its neighbor's flags. `act_of`
        // maps element index -> slot.
        const ACT_PAD: usize = 64;
        let n_elems = netlist.num_elements();
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); n_threads];
        for e in 0..n_elems {
            groups[owner[e] as usize].push(e as u32);
        }
        let mut acts: Vec<ActivationState> =
            Vec::with_capacity(n_elems + ACT_PAD * n_threads.saturating_sub(1));
        let mut act_of = vec![0u32; n_elems];
        for (w, group) in groups.iter().enumerate() {
            if w > 0 {
                acts.extend((0..ACT_PAD).map(|_| ActivationState::new()));
            }
            for &e in group {
                act_of[e as usize] = acts.len() as u32;
                acts.push(ActivationState::new());
            }
        }

        let ctx = Ctx {
            netlist,
            nodes,
            meta,
            runs,
            acts,
            act_of,
            pending: AtomicI64::new(0),
            watched,
            owner,
            end,
            horizon,
            capture,
            gc: config.gc,
        };

        // Initial activation: every non-generator element (matches the
        // other engines' time-zero initialization pass).
        let (senders, receivers) = grid::<IdBatch>(n_threads);
        let mut init_work: Vec<Vec<u32>> = vec![Vec::new(); n_threads];
        for (id, e) in netlist.iter_elements() {
            if e.kind().is_generator() {
                continue;
            }
            assert!(ctx.act(id.index()).try_activate());
            ctx.pending.fetch_add(1, Ordering::AcqRel);
            // Seed each worker's local deque with its owned elements:
            // initial and steady-state placement agree, so a cone's chain
            // reaction starts — and stays — on its owner.
            init_work[ctx.owner[id.index()] as usize].push(id.index() as u32);
        }
        // The deque pops LIFO, so reverse each seed: pops then follow
        // ascending element order (builder order, roughly topological) and
        // each element finds its inputs already valid. Seeding in
        // pop-is-reverse-topological order costs an order of magnitude in
        // wasted early activations on deep circuits.
        for work in &mut init_work {
            work.reverse();
        }

        // ---- workers -------------------------------------------------------
        let registry = &seg.telemetry.registry;
        // Build-phase events (generator expansion) happened on this
        // thread, before any worker existed: they belong to the driver.
        registry.driver().add(Counter::EventsProcessed, events_seed);
        let ctx = &ctx;
        let tracer = Tracer::new(config.trace.as_ref());
        let inputs: Vec<_> = senders.into_iter().zip(receivers).zip(init_work).collect();
        // No barrier to poison here: peers that lose their feeder spin in
        // the empty-queue branch, where they poll the cancel flag.
        let outputs: Vec<WorkerOutput> = run_workers(
            ENGINE,
            config,
            &seg.telemetry,
            None,
            inputs,
            |w, ((tx, mut rx), init), cont| {
                let mut changes: Vec<(Time, NodeId, Value)> = Vec::new();
                let mut overflow: Vec<PendingEvent> = Vec::new();
                let mut tr = tracer.worker(w);
                let mut tally = Tally::default();
                // Seeded owned activations count as local hits: they were
                // placed without touching the grid.
                tally.add(Counter::LocalHits, init.len() as u64);
                let shard = registry.worker(w);
                let mut since_flush = 0u64;
                let mut sched = Sched::new(w, tx, init);
                let mut alloc = ChunkAlloc::default();
                let mut backoff = Backoff::new();
                let mut idle_since: Option<Instant> = None;
                let mut processed = 0u64;
                loop {
                    if cont.cancelled() {
                        break;
                    }
                    // Local-first: drain the private deque, then pull one batch
                    // off the grid column and run its ids from the deque.
                    let next = match sched.local.pop() {
                        Some(e) => Some(e),
                        None => rx.recv_traced(&mut tr).and_then(|batch| {
                            sched.local.extend_from_slice(batch.as_slice());
                            sched.local.pop()
                        }),
                    };
                    match next {
                        Some(e) => {
                            if let Some(t0) = idle_since.take() {
                                tally.add_elapsed(Counter::IdleNs, t0);
                            }
                            backoff.reset();
                            if let FaultAction::Exit =
                                config.fault.check(w, processed, cont.cancel_flag())
                            {
                                break;
                            }
                            processed += 1;
                            cont.beat(w);
                            let busy = Instant::now();
                            let e = e as usize;
                            tr.begin(EventKind::ActivationReplay, e as u32);
                            ctx.act(e).begin_run();
                            tally.inc(Counter::Activations);
                            // SAFETY: activation machine grants
                            // exclusive element access.
                            unsafe {
                                run_element(
                                    ctx,
                                    e,
                                    &mut sched,
                                    &mut changes,
                                    &mut overflow,
                                    &mut alloc,
                                    &mut tally,
                                    &mut tr,
                                )
                            };
                            if ctx.act(e).finish_run() {
                                sched.enqueue(ctx, e as u32, &mut tally, &mut tr);
                            } else {
                                ctx.pending.fetch_sub(1, Ordering::AcqRel);
                            }
                            // One activation's foreign fan-out rides together:
                            // flush now, so no peer waits longer than one
                            // element run.
                            sched.flush_all(&mut tally, &mut tr);
                            tr.end(EventKind::ActivationReplay);
                            tr.counter(EventKind::QueueDepth, sched.local.len() as u32);
                            tally.add_elapsed(Counter::BusyNs, busy);
                            since_flush += 1;
                            if since_flush >= TELEMETRY_FLUSH_EVERY {
                                since_flush = 0;
                                tally.flush(&shard);
                                shard.set_gauge(Gauge::QueueDepth, sched.local.len() as u64);
                            }
                        }
                        None => {
                            if ctx.pending.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            if idle_since.is_none() {
                                idle_since = Some(Instant::now());
                                tr.instant(EventKind::Heartbeat, 0);
                                // Going idle is off the hot path: flush so a
                                // sampler snapshot taken during the lull sees
                                // current totals.
                                tally.flush(&shard);
                                shard.set_gauge(Gauge::QueueDepth, 0);
                            }
                            if backoff.snooze_traced(&mut tr) {
                                tally.inc(Counter::BackoffParks);
                            }
                        }
                    }
                }
                // Close the trailing idle span on every exit path (termination,
                // cancellation, fault exit) — it used to leak unless the worker
                // happened to pop one more element.
                if let Some(t0) = idle_since.take() {
                    tally.add_elapsed(Counter::IdleNs, t0);
                }
                tally.flush(&shard);
                (changes, tr, overflow, (alloc.allocs, alloc.frees))
            },
            |d| {
                // Iterate elements (not slots): the partition-grouped `acts`
                // layout holds always-idle padding entries.
                let idle = (0..netlist.num_elements())
                    .filter(|&e| ctx.act(e).is_idle())
                    .count();
                d.pending_activations = Some(ctx.pending.load(Ordering::Acquire));
                d.activations_idle = Some(idle);
                d.activations_pending = Some(netlist.num_elements() - idle);
                d.min_valid_until = ctx
                    .nodes
                    .iter()
                    .map(|n| n.valid_until.load(Ordering::Acquire))
                    .min()
                    .map(Time);
            },
        )?;

        let mut changes = init_changes;
        let mut worker_tracers = Vec::with_capacity(n_threads);
        // Build-phase chunk traffic folds into the run totals.
        let (mut chunk_allocs, mut chunk_frees) = (seed_alloc.allocs, seed_alloc.frees);
        for (c, wt, of, (allocs, frees)) in outputs {
            changes.extend(c);
            worker_tracers.push(wt);
            carry.extend(of);
            chunk_allocs += allocs;
            chunk_frees += frees;
        }
        // `gc` is the only caller of `ChunkAlloc::free`, so the frees are
        // the GC's reclaims; the totals publish once here, on the driver
        // shard.
        {
            let d = registry.driver();
            d.add(Counter::GcChunksFreed, chunk_frees);
            d.add(Counter::ArenaChunkAllocs, chunk_allocs);
            d.add(Counter::ArenaChunkFrees, chunk_frees);
        }
        let wall = start.elapsed();
        let snapshot = capture.then(|| {
            // Quiescence means every element has replayed every event in
            // the segment, so the per-element run state *is* the state at
            // the cut. SAFETY (all accesses below): workers are joined;
            // single-threaded access with the joins as the edge.
            let mut values = base_vals;
            let mut last_scheduled: Vec<Value> = match seg.resume {
                Some(snap) => snap.last_scheduled.clone(),
                None => netlist
                    .nodes()
                    .iter()
                    .map(|nd| Value::x(nd.width()))
                    .collect(),
            };
            let mut last_sched_time: Vec<u64> = match seg.resume {
                Some(snap) => snap.last_sched_time.clone(),
                None => vec![0u64; netlist.num_nodes()],
            };
            let mut elem_states: Vec<ElemState> = Vec::with_capacity(netlist.num_elements());
            for e in 0..netlist.num_elements() {
                let run = unsafe { ctx.runs.get(e) };
                elem_states.push(run.state.clone());
                for (port, &out) in ctx.meta[e].outputs.iter().enumerate() {
                    if ctx.meta[e].kind.is_generator() {
                        continue;
                    }
                    values[out as usize] = run.cut_val[port];
                    last_scheduled[out as usize] = run.last_out[port];
                    last_sched_time[out as usize] = run.last_te[port];
                }
            }
            carry.sort_by_key(|ev| (ev.time, ev.node));
            EngineSnapshot {
                end_time: horizon,
                time: end,
                step: 0,
                seeds: [0, 0],
                values,
                last_scheduled,
                last_sched_time,
                elem_states,
                pending: std::mem::take(&mut carry),
                changes: Vec::new(),
            }
        });
        Ok(SegmentOut {
            changes,
            wall,
            trace: tracer.finish(worker_tracers),
            snapshot,
        })
    }
}

/// Executes one element activation: §4's "get as much of the new output
/// behavior from the inputs as possible".
///
/// # Safety
///
/// The caller must hold the element exclusively (activation machine), which
/// makes `runs[e]`, the output nodes' writer sides, and `last_scheduled`
/// state single-writer.
#[allow(clippy::too_many_arguments)]
unsafe fn run_element(
    ctx: &Ctx<'_>,
    e: usize,
    sched: &mut Sched,
    changes: &mut Vec<(Time, NodeId, Value)>,
    overflow: &mut Vec<PendingEvent>,
    alloc: &mut ChunkAlloc,
    tally: &mut Tally,
    tr: &mut WorkerTracer,
) {
    let meta = &ctx.meta[e];
    let run = ctx.runs.get_mut(e);
    let mut outputs_touched = false;
    let mut validity_extended = false;
    // First-touch pipelining: wake each output's fan-out once, as soon as
    // the first event of this run lands, so consumers overlap with the
    // rest of the batch; the end-of-run activation catches anything
    // appended after a consumer drained and went idle again.
    let mut woken = [false; 2];

    // The minimum time through which *all* inputs are known.
    let min_valid = meta
        .inputs
        .iter()
        .map(|&(node, _)| ctx.nodes[node as usize].valid_until.load(Ordering::Acquire))
        .min()
        .unwrap_or(ctx.end);

    // ---- replay every input event at or before min_valid ------------------
    // Allocation invariant: this loop is allocation-free in steady state.
    // Input replay reuses the pre-sized `run.cursors` / `run.cur_vals`,
    // `evaluate` returns the stack-only `Outputs` (and `Value::resolve` is
    // pure bit-plane arithmetic with no temporaries), and `Node::push`
    // appends into chunked arenas whose growth is amortized. Keep it that
    // way: never construct a `Vec` per activation here.
    loop {
        let mut t_next = u64::MAX;
        for (i, &(node, _)) in meta.inputs.iter().enumerate() {
            if let Some((t, _)) = run.cursors[i].peek(&ctx.nodes[node as usize]) {
                if t <= min_valid && t < t_next {
                    t_next = t;
                }
            }
        }
        if t_next == u64::MAX {
            break;
        }
        // Advance every input through time t_next.
        for (i, &(node, _)) in meta.inputs.iter().enumerate() {
            let node = &ctx.nodes[node as usize];
            while let Some((t, _)) = run.cursors[i].peek(node) {
                if t > t_next {
                    break;
                }
                run.cursors[i].consume(node);
            }
            run.cur_vals[i] = run.cursors[i].value;
        }
        let out = evaluate(&meta.kind, &run.cur_vals, &mut run.state);
        tally.inc(Counter::Evaluations);
        tr.instant(EventKind::Eval, e as u32);
        // Inputs are known through t_next, so every output is now known
        // through t_next + delay — publish that *immediately* so fan-out
        // elements running concurrently can consume this run's events
        // while it is still producing. This is the paper's pipelining:
        // "one processor may be evaluating an element producing events and
        // another processor can be evaluating one of the elements on the
        // fan-out of that element."
        let known_through = (t_next + meta.delay).min(ctx.end);
        for (port, v) in out.iter() {
            let out_node = meta.outputs[port] as usize;
            let changed = run.last_out[port] != v;
            if changed {
                let td = transition_delay(&run.last_out[port], &v, meta.rise, meta.fall);
                // Monotone transport (see Builder::element_with_delays).
                let te = (t_next + td.ticks()).max(run.last_te[port] + 1);
                if te <= ctx.end {
                    // Only a kept event updates the last-value tracking
                    // (a drop beyond the horizon must not, or a flip-back
                    // would duplicate the kept value on the node).
                    run.last_out[port] = v;
                    run.last_te[port] = te;
                    run.cut_val[port] = v;
                    ctx.nodes[out_node].push(te, v, alloc);
                    tally.inc(Counter::EventsProcessed);
                    tr.instant(EventKind::EventInsert, out_node as u32);
                    if ctx.watched[out_node] {
                        changes.push((Time(te), NodeId::from_index(out_node), v));
                    }
                    outputs_touched = true;
                } else if ctx.capture && te <= ctx.horizon {
                    // Beyond the cut but inside the run's horizon: the
                    // uninterrupted run would keep this event, so it goes
                    // into the snapshot's pending set — with the same
                    // bookkeeping a kept event gets (the next segment's
                    // monotone transport must see it).
                    run.last_out[port] = v;
                    run.last_te[port] = te;
                    overflow.push(PendingEvent {
                        time: te,
                        node: out_node as u32,
                        value: v,
                    });
                }
            }
            let vu = &ctx.nodes[out_node].valid_until;
            // Relaxed is sufficient: `valid_until` of an output node is
            // stored only by this element's run, and successive runs are
            // ordered by the activation machine's AcqRel RMW chain
            // (`finish_run` -> `try_activate` -> `begin_run`), so this
            // load can never see anything older than the previous run's
            // store. The Release store is for the concurrent input-side
            // Acquire readers (lookahead/replay gating), not for us.
            // Model-checked: `valid_until_relaxed_rmw_is_exclusive` in
            // crates/core/tests/model_chaotic.rs.
            if vu.load(Ordering::Relaxed) < known_through {
                vu.store(known_through, Ordering::Release);
                validity_extended = true;
            }
            if changed && !woken[port] {
                woken[port] = true;
                for &(consumer, _) in ctx.netlist.nodes()[out_node].fanout() {
                    let c = consumer.index();
                    if ctx.act(c).try_activate() {
                        ctx.pending.fetch_add(1, Ordering::AcqRel);
                        sched.enqueue_eager(ctx, c as u32, tally, tr);
                    }
                }
            }
        }
    }

    // ---- lookahead (§4): push output validity past unknown inputs ----------
    let mut effective_valid = min_valid;
    match meta.lookahead {
        Lookahead::None => {}
        // The paper's AND-gate shortcut.
        Lookahead::Controlling(ctrl) => loop {
            // How long does some input pin the output?
            let mut pin_end = 0u64;
            let mut pinned = false;
            for (i, &(node, _)) in meta.inputs.iter().enumerate() {
                if bit_of(&run.cur_vals[i]) != Some(ctrl) {
                    continue;
                }
                pin_end = pin_end.max(run.cursors[i].quiet_through(&ctx.nodes[node as usize]));
                pinned = true;
            }
            if !pinned || pin_end <= effective_valid {
                break;
            }
            effective_valid = pin_end;
            // Skip events the pinned output makes irrelevant; the values
            // still update so later evaluations start from the right state.
            let mut skipped_any = false;
            for (i, &(node, _)) in meta.inputs.iter().enumerate() {
                let node = &ctx.nodes[node as usize];
                while let Some((t, _)) = run.cursors[i].peek(node) {
                    if t > pin_end {
                        break;
                    }
                    run.cursors[i].consume(node);
                    skipped_any = true;
                }
                run.cur_vals[i] = run.cursors[i].value;
            }
            if !skipped_any {
                break;
            }
        },
        // Register lookahead: nothing but a trigger event moves the output,
        // so it is quiet for as long as every trigger port is. Events on
        // the other inputs stay in their lists and are replayed — to no
        // effect on the output — once they become valid.
        Lookahead::Triggers(rule) => {
            let armed = rule.while_level.is_none_or(|level| {
                rule.ports.iter().all(|&p| bit_of(&run.cur_vals[p]) == Some(level))
            });
            if armed {
                let quiet = rule
                    .ports
                    .iter()
                    .map(|&p| run.cursors[p].quiet_through(&ctx.nodes[meta.inputs[p].0 as usize]))
                    .min()
                    .unwrap_or(min_valid);
                effective_valid = effective_valid.max(quiet);
            }
        }
    }
    if effective_valid > min_valid {
        tally.inc(Counter::LookaheadExtensions);
    }

    // ---- publish consumption cursors (enables GC) --------------------------
    let mut consumed_any = false;
    for (i, &(node, fanout_pos)) in meta.inputs.iter().enumerate() {
        let slot = &ctx.nodes[node as usize].consumed[fanout_pos as usize];
        // Relaxed: this element is the slot's only writer.
        consumed_any |= slot.load(Ordering::Relaxed) != run.cursors[i].global;
        slot.store(run.cursors[i].global, Ordering::Release);
    }
    if !consumed_any {
        tally.inc(Counter::EmptyActivations);
    }

    // ---- extend output valid times (incremental clock values) --------------
    let out_valid = effective_valid.saturating_add(meta.delay).min(ctx.end);
    for &out in &meta.outputs {
        let vu = &ctx.nodes[out as usize].valid_until;
        // Relaxed load justified by writer exclusivity — same argument as
        // the `known_through` site above (and the same model test).
        if vu.load(Ordering::Relaxed) < out_valid {
            vu.store(out_valid, Ordering::Release);
            validity_extended = true;
        }
    }

    // ---- stimulate fan-out at most once ------------------------------------
    if outputs_touched || validity_extended {
        for &out in &meta.outputs {
            for &(consumer, _) in ctx.netlist.nodes()[out as usize].fanout() {
                let c = consumer.index();
                if ctx.act(c).try_activate() {
                    ctx.pending.fetch_add(1, Ordering::AcqRel);
                    sched.enqueue(ctx, c as u32, tally, tr);
                }
            }
        }
    }

    // ---- asynchronous garbage collection ------------------------------------
    if ctx.gc {
        for &out in &meta.outputs {
            ctx.nodes[out as usize].gc(alloc);
        }
    }
}

/// Extracts a single known bit, if the value is 1-bit and known.
fn bit_of(v: &Value) -> Option<Bit> {
    if v.width() != 1 {
        return None;
    }
    match v.bit_at(0) {
        Bit::Zero => Some(Bit::Zero),
        Bit::One => Some(Bit::One),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::assert_equivalent;
    use crate::seq::EventDriven;
    use parsim_logic::Delay;
    use parsim_netlist::Builder;

    fn pipeline_circuit() -> (Netlist, Vec<NodeId>) {
        // gen -> e1 -> e2 <- e3 feedback: the paper's Fig. 4 example shape.
        let mut b = Builder::new();
        let n1 = b.node("n1", 1);
        let n2 = b.node("n2", 1);
        let n3 = b.node("n3", 1);
        let n4 = b.node("n4", 1);
        b.element(
            "gen",
            ElementKind::Clock {
                half_period: 3,
                offset: 3,
            },
            Delay(1),
            &[],
            &[n1],
        )
        .unwrap();
        b.element("e1", ElementKind::Not, Delay(1), &[n1], &[n2])
            .unwrap();
        b.element("e2", ElementKind::Nand, Delay(2), &[n2, n4], &[n3])
            .unwrap();
        b.element("e3", ElementKind::Not, Delay(1), &[n3], &[n4])
            .unwrap();
        (b.finish().unwrap(), vec![n1, n2, n3, n4])
    }

    #[test]
    fn matches_sequential_on_feedback_circuit() {
        let (n, watch) = pipeline_circuit();
        let cfg = SimConfig::new(Time(100)).watch_all(watch);
        let seq = EventDriven::run(&n, &cfg).unwrap();
        for threads in [1, 2, 4] {
            let a = ChaoticAsync::run(&n, &cfg.clone().threads(threads)).unwrap();
            assert_equivalent(&seq, &a, &format!("chaotic x{threads}"));
        }
    }

    #[test]
    fn event_counts_match_sequential() {
        let (n, watch) = pipeline_circuit();
        let cfg = SimConfig::new(Time(200)).watch_all(watch);
        let seq = EventDriven::run(&n, &cfg).unwrap();
        let a = ChaoticAsync::run(&n, &cfg).unwrap();
        assert_eq!(seq.metrics.events_processed, a.metrics.events_processed);
    }

    #[test]
    fn lookahead_does_not_change_waveforms() {
        let (n, watch) = pipeline_circuit();
        let cfg = SimConfig::new(Time(150)).watch_all(watch).threads(2);
        let with = ChaoticAsync::run(&n, &cfg).unwrap();
        let without = ChaoticAsync::run(&n, &cfg.clone().without_lookahead()).unwrap();
        assert_equivalent(&with, &without, "lookahead");
    }

    #[test]
    fn gc_does_not_change_waveforms_and_frees_chunks() {
        // A long simulation of a deep chain accumulates many events.
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        b.element(
            "osc",
            ElementKind::Clock {
                half_period: 1,
                offset: 1,
            },
            Delay(1),
            &[],
            &[clk],
        )
        .unwrap();
        let mut prev = clk;
        let mut watch = vec![clk];
        for i in 0..8 {
            let n = b.node(&format!("n{i}"), 1);
            b.element(&format!("inv{i}"), ElementKind::Not, Delay(1), &[prev], &[n])
                .unwrap();
            watch.push(n);
            prev = n;
        }
        let n = b.finish().unwrap();
        let cfg = SimConfig::new(Time(2000)).watch_all(watch);
        let seq = EventDriven::run(&n, &cfg).unwrap();
        let gc_run = ChaoticAsync::run(&n, &cfg).unwrap();
        let no_gc = ChaoticAsync::run(&n, &cfg.clone().without_gc()).unwrap();
        assert_equivalent(&seq, &gc_run, "gc on");
        assert_equivalent(&seq, &no_gc, "gc off");
    }

    #[test]
    fn deep_batching_on_generator_fed_chain() {
        // With all inputs valid for all time, each element should process
        // its whole history in very few activations (§4: "determine the
        // behavior ... for the entire simulation").
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        b.element(
            "osc",
            ElementKind::Clock {
                half_period: 2,
                offset: 2,
            },
            Delay(1),
            &[],
            &[clk],
        )
        .unwrap();
        let out = b.node("out", 1);
        b.element("inv", ElementKind::Not, Delay(1), &[clk], &[out])
            .unwrap();
        let n = b.finish().unwrap();
        let cfg = SimConfig::new(Time(10_000)).watch(out);
        let r = ChaoticAsync::run(&n, &cfg).unwrap();
        // ~5000 clock edges, processed in O(1) activations.
        assert!(r.metrics.evaluations > 4000);
        assert!(
            r.metrics.activations < 10,
            "expected deep batching, got {} activations",
            r.metrics.activations
        );
    }

    #[test]
    fn register_ring_costs_clock_edges_not_ticks() {
        // clk -> DFF -> NOT -> back into D. The inverter's output is only
        // ever known one loop delay past the flip-flop's, so without the
        // trigger rule validity creeps round the ring 2 ticks per turn;
        // with it the flip-flop jumps to its next clock event each time.
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        let kind = ElementKind::Clock { half_period: 50, offset: 50 };
        b.element("osc", kind, Delay(1), &[], &[clk]).unwrap();
        let q = b.node("q", 1);
        let d = b.node("d", 1);
        b.element("ff", ElementKind::Dff { width: 1 }, Delay(1), &[clk, d], &[q]).unwrap();
        b.element("inv", ElementKind::Not, Delay(1), &[q], &[d]).unwrap();
        let n = b.finish().unwrap();
        let cfg = SimConfig::new(Time(10_000)).watch(q);
        let edges = 10_000 / 50;
        let with = ChaoticAsync::run(&n, &cfg).unwrap();
        // Two elements, each run a small constant number of times per edge.
        assert!(
            with.metrics.activations <= 2 * 2 * edges,
            "expected O(clock edges) activations, got {}",
            with.metrics.activations
        );
        assert!(with.metrics.lookahead_extensions >= edges);
        let without = ChaoticAsync::run(&n, &cfg.clone().without_lookahead()).unwrap();
        assert!(
            without.metrics.activations >= 10_000 / 2,
            "the ablated ring creeps: {} activations",
            without.metrics.activations
        );
        assert_equivalent(&with, &without, "register ring");
    }

    #[test]
    fn wide_functional_elements_match() {
        let mut b = Builder::new();
        let a = b.node("a", 8);
        let c = b.node("c", 8);
        let cin = b.node("cin", 1);
        let sum = b.node("sum", 8);
        let cout = b.node("cout", 1);
        b.element(
            "agen",
            ElementKind::Lfsr {
                width: 8,
                period: 7,
                seed: 3,
            },
            Delay(1),
            &[],
            &[a],
        )
        .unwrap();
        b.element(
            "bgen",
            ElementKind::Lfsr {
                width: 8,
                period: 5,
                seed: 9,
            },
            Delay(1),
            &[],
            &[c],
        )
        .unwrap();
        b.element(
            "cgen",
            ElementKind::Clock {
                half_period: 11,
                offset: 11,
            },
            Delay(1),
            &[],
            &[cin],
        )
        .unwrap();
        b.element(
            "add",
            ElementKind::Adder { width: 8 },
            Delay(2),
            &[a, c, cin],
            &[sum, cout],
        )
        .unwrap();
        let n = b.finish().unwrap();
        let cfg = SimConfig::new(Time(500)).watch(sum).watch(cout);
        let seq = EventDriven::run(&n, &cfg).unwrap();
        let asy = ChaoticAsync::run(&n, &cfg.clone().threads(3)).unwrap();
        assert_equivalent(&seq, &asy, "adder");
    }
}
