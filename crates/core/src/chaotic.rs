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
//! its trigger ports ([`ElementKind::triggers`]: clock, reset, enable)
//! that can move it — a rising clock edge, a reset asserting, any enable
//! change ([`Edge`]) — whatever its data inputs do. After replay, such an
//! element publishes its outputs as valid through the tick before that
//! event (or, with none published yet, through the trigger node's own
//! `valid_until`) plus its delay. Data events, falling clock edges and
//! reset releases are *not* skipped — an evaluation they cause leaves the
//! output alone, so they stay in their lists and are replayed once valid.
//! This is what keeps feedback through registers from creeping one loop
//! delay per activation, and a falling edge from sending one more
//! validity wave round every loop: on `pipelined_cpu(8, 48)` at 400
//! ticks, where every loop crosses a `DffR`, it removes about seventeen
//! activations in eighteen (191 467 → 10 459). An element still stores
//! only its own outputs' `valid_until`, so the single-writer argument
//! below is unchanged; both lookahead rules read their inputs through
//! [`Cursor::scan_quiet`], whose load order is the one subtle point (see
//! its docs).
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
//! - garbage collection: one consumption cursor per fan-out entry in a
//!   flat node-major table; a chunk is freed once every consumer has moved
//!   past it, by the node's writer after its run or by the reader that
//!   leaves it last, with concurrent reclaimers of one node excluded by a
//!   per-node try-flag whose loser skips (see [`crate::behavior`]).
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
//!
//! # Run state: flat pin tables
//!
//! A run's set-up is paid on every run, and on a clocked design it is
//! much of the run, so it is a few flat tables rather than `Vec`s per
//! element. `Wiring` lays every element's pins end to end: `pins_in`
//! holds `(node, position in the node's fan-out list)` per input pin,
//! filled from the nodes' fan-out lists, and `pins_out` the driven node
//! per output pin; `ElemMeta` keeps the two spans. The mutable state is
//! six `SharedSlice` tables indexed by input pin (cursors, current
//! values), output pin (last scheduled value and time, value at the cut)
//! or element (evaluation state), and `Ctx::run` lends one element its
//! slots as an `ElemRun`. Workers charge busy time per busy span, not
//! per activation (`Span`), so the hot loop reads no clock.
//!
//! # Replay on locals
//!
//! One replayed evaluation should cost what its work costs: read the
//! events due, evaluate, file the outputs. `run_element` first peeks each
//! input pin's next event in place and notes its time if it is at or
//! before the inputs' common valid time; an activation with nothing due
//! stops there and copies nothing. Otherwise the element's cursors are
//! copied into the worker's `Replay` scratch, and each evaluation advances
//! only the pins due at its time and finds the next time in the same pass;
//! the cursors go back to the run table once, before they are published.
//! Gates, buffers and the mux evaluate through the native arms every
//! scalar engine shares (`crate::native`), decoded once per run into
//! `ElemMeta`; stateful and RTL kinds go through [`evaluate`]. Outputs are
//! routed by `Bounds::route`, which settles a symmetric delay without the
//! per-bit direction scan.

use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

use parsim_checkpoint::PendingEvent;
use parsim_logic::{
    evaluate, Bit, Delay, Edge, ElemState, ElementKind, Lookahead, Outputs, Time, Value,
};
use parsim_netlist::compile::Opcode;
use parsim_netlist::partition::cone_cluster;
use parsim_netlist::{Netlist, NodeId};
use parsim_queue::{grid, ActivationState, Backoff, GridSender, IdBatch};
use parsim_trace::{EventKind, Tracer, WorkerTracer};

use parsim_telemetry::{Counter, Gauge, Tally};

use crate::behavior::{crosses_chunk, ChunkAlloc, Cursor, Lists};
use crate::checkpoint::{
    in_flight_events, new_run_ctx, start_state, stimulus_events, Bounds, Route, SegmentOut,
    SegmentSpec,
};
use crate::compiled::LaneStimulus;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::exec::run_workers;
use crate::fault::FaultAction;
use crate::layout::{LineGroup, OwnerLayout, LINE};
use crate::native::eval_native;
use crate::shared::SharedSlice;
use crate::waveform::SimResult;

/// Engine tag used in [`SimError`] values.
const ENGINE: &str = "chaotic-async";

/// Activation flags per cache line.
const FLAGS: usize = LINE / std::mem::size_of::<ActivationState>();

/// Per-worker results: recorded waveform changes, the worker's drained
/// trace ring, and the events the worker computed beyond the segment cut
/// (checkpoint capture mode), and its `ChunkAlloc` tally `(allocs,
/// frees)`, summed after the join. Every other counter travels through
/// the worker's telemetry shard.
type WorkerOutput = (
    Vec<(Time, NodeId, Value)>,
    WorkerTracer,
    Vec<PendingEvent>,
    (u64, u64),
);

/// How many activations a worker runs between telemetry shard flushes.
/// The chaotic hot loop has no step boundary to piggyback on, so counter
/// publishes are micro-batched to keep them off the per-event path.
const TELEMETRY_FLUSH_EVERY: u64 = 256;

/// The span a worker's time is charged to: [`Counter::BusyNs`] from the
/// pop that ends a lull (or starts the run) until the worker next finds
/// nothing to do, [`Counter::IdleNs`] from then until its next pop. One
/// clock read closes a span and opens the next, so spans neither gap nor
/// overlap, and an activation inside a busy span reads no clock at all.
#[derive(Default)]
struct Span(Option<(Counter, Instant)>);

impl Span {
    /// Whether the open span is charged to `c`.
    fn is(&self, c: Counter) -> bool {
        matches!(self.0, Some((open, _)) if open == c)
    }

    /// Charges the open span, if any, through now and opens one charged
    /// to `to` (none when `to` is `None`).
    fn switch(&mut self, to: Option<Counter>, tally: &mut Tally) {
        let now = Instant::now();
        if let Some((c, since)) = self.0 {
            tally.add(c, now.duration_since(since).as_nanos() as u64);
        }
        self.0 = to.map(|c| (c, now));
    }
}

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
    fn enqueue_eager(&mut self, ctx: &Ctx<'_>, e: u32, tally: &mut Tally, tr: &mut WorkerTracer) {
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
    /// The opcode of `kind`, for the shared native gate arms (`None` for
    /// generators, which never run).
    op: Option<Opcode>,
    rise: Delay,
    fall: Delay,
    /// min(rise, fall): the conservative validity increment.
    delay: u64,
    /// This element's input pins, one per input port: `start..end` in
    /// [`Wiring::pins_in`] and in the per-input-pin run tables.
    ins: (u32, u32),
    /// This element's output pins, one per output port: `start..end` in
    /// [`Wiring::pins_out`] and in the per-output-pin run tables.
    outs: (u32, u32),
    /// The lookahead rule `run_element` applies after replay
    /// ([`Lookahead::None`] for every element when
    /// [`SimConfig::lookahead`](crate::SimConfig) is off).
    lookahead: Lookahead,
}

/// A `(start, end)` pin span as a table index range.
#[inline(always)]
fn pin_range((start, end): (u32, u32)) -> Range<usize> {
    start as usize..end as usize
}

/// The static wiring: per-element metadata and two flat pin tables, every
/// element's pins laid end to end in element order.
struct Wiring {
    meta: Vec<ElemMeta>,
    /// Per input pin: the node it reads and this pin's position in that
    /// node's fan-out list (its consumption slot, [`Lists::publish`]).
    pins_in: Vec<(u32, u32)>,
    /// Per output pin: the node it drives.
    pins_out: Vec<u32>,
}

impl Wiring {
    /// One prefix-sum pass over the elements places their pins; each
    /// node's fan-out list then fills the input pins it feeds, which
    /// names every pin's consumption slot without a per-element lookup.
    fn new(netlist: &Netlist, lookahead: bool) -> Wiring {
        let mut n_in = 0u32;
        let mut pins_out: Vec<u32> = Vec::with_capacity(netlist.num_elements());
        let meta: Vec<ElemMeta> = netlist
            .iter_elements()
            .map(|(_, e)| {
                let ins = (n_in, n_in + e.inputs().len() as u32);
                n_in = ins.1;
                let first_out = pins_out.len() as u32;
                pins_out.extend(e.outputs().iter().map(|&o| o.index() as u32));
                let scalar = e.inputs().iter().all(|&i| netlist.node(i).width() == 1)
                    && e.outputs().iter().all(|&o| netlist.node(o).width() == 1);
                ElemMeta {
                    kind: e.kind().clone(),
                    op: Opcode::of(e.kind()),
                    rise: e.rise_delay(),
                    fall: e.fall_delay(),
                    delay: e.min_delay().ticks(),
                    ins,
                    outs: (first_out, pins_out.len() as u32),
                    lookahead: if lookahead {
                        e.kind().lookahead(scalar)
                    } else {
                        Lookahead::None
                    },
                }
            })
            .collect();
        let mut pins_in = vec![(0u32, 0u32); n_in as usize];
        for (i, node) in netlist.nodes().iter().enumerate() {
            for (k, &(elem, port)) in node.fanout().iter().enumerate() {
                pins_in[meta[elem.index()].ins.0 as usize + port as usize] = (i as u32, k as u32);
            }
        }
        Wiring {
            meta,
            pins_in,
            pins_out,
        }
    }
}

/// One element's mutable run state: its slots of the run tables, lent by
/// [`Ctx::run`] to whoever holds the element exclusively.
struct ElemRun<'a> {
    /// Per input pin.
    cursors: &'a mut [Cursor],
    /// Per input pin, end to end as the evaluators read them.
    cur_vals: &'a mut [Value],
    state: &'a mut ElemState,
    /// Per output pin.
    last_out: &'a mut [Value],
    /// Last appended event time per output pin (monotone transport).
    last_te: &'a mut [u64],
    /// Value of each output node at the segment cut: the last event value
    /// appended *within* the cut (unlike `last_out`, which also tracks
    /// beyond-cut overflow events). Read post-join for snapshot capture.
    cut_val: &'a mut [Value],
}

/// Everything a worker needs, shared immutably.
struct Ctx<'a> {
    netlist: &'a Netlist,
    nodes: Lists,
    wiring: Wiring,
    // The run tables behind `ElemRun`: `cursors` and `cur_vals` per input
    // pin, `last_out`, `last_te` and `cut_val` per output pin, `states`
    // per element.
    cursors: SharedSlice<Cursor>,
    cur_vals: SharedSlice<Value>,
    last_out: SharedSlice<Value>,
    last_te: SharedSlice<u64>,
    cut_val: SharedSlice<Value>,
    states: SharedSlice<ElemState>,
    /// Activation flags, one per element at its `act_at` position.
    acts: Vec<LineGroup<ActivationState, FLAGS>>,
    /// Elements by owning worker, each worker's flags on lines of its own.
    act_at: OwnerLayout,
    pending: AtomicI64,
    watched: Vec<bool>,
    /// Owner worker per element.
    owner: Vec<u32>,
    /// The segment: events and validity never pass its cut.
    bounds: Bounds,
    gc: bool,
}

impl Ctx<'_> {
    /// The activation flag for element `e`, on a line only the flags of
    /// `e`'s owner share.
    #[inline(always)]
    fn act(&self, e: usize) -> &ActivationState {
        let p = self.act_at.pos(e) as usize;
        &self.acts[p / FLAGS].0[p % FLAGS]
    }

    /// Lends element `e` its slots of the run tables.
    ///
    /// # Safety
    ///
    /// The caller must hold `e` exclusively: a worker inside `e`'s
    /// activation (the activation machine admits one run at a time and
    /// orders successive runs), or the driver after the workers have
    /// joined. Elements' pin spans are disjoint, so runs of distinct
    /// elements never alias.
    #[inline(always)]
    unsafe fn run(&self, e: usize) -> ElemRun<'_> {
        let m = &self.wiring.meta[e];
        let (ins, outs) = (pin_range(m.ins), pin_range(m.outs));
        ElemRun {
            cursors: self.cursors.slice_mut(ins.clone()),
            cur_vals: self.cur_vals.slice_mut(ins),
            state: self.states.get_mut(e),
            last_out: self.last_out.slice_mut(outs.clone()),
            last_te: self.last_te.slice_mut(outs.clone()),
            cut_val: self.cut_val.slice_mut(outs),
        }
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
        let bounds = seg.bounds(config);
        let end = seg.cut;
        let n_threads = config.threads;

        let mut watched = vec![false; netlist.num_nodes()];
        for &w in &config.watch {
            watched[w.index()] = true;
        }

        let wiring = Wiring::new(netlist, config.lookahead);
        let owner: Vec<u32> = cone_cluster(netlist, n_threads).assignment().to_vec();

        let mut seed_alloc = ChunkAlloc::default();
        let fanouts = netlist.nodes().iter().map(|nd| nd.fanout().len());
        let nodes = Lists::new(fanouts, &mut seed_alloc);

        // ---- initialization (§4 step 1) -----------------------------------
        for (i, nd) in netlist.nodes().iter().enumerate() {
            match nd.driver() {
                // Generator schedules are seeded below, through the cut.
                Some((drv, _)) if netlist.element(drv).kind().is_generator() => {
                    nodes[i].valid_until.store(end, Ordering::Relaxed);
                }
                Some(_) => match bounds.t0 {
                    // Driven by logic: implicit X at time zero.
                    None => unsafe { nodes[i].push(0, Value::x(nd.width()), &mut seed_alloc) },
                    // Resumed: the cursor baselines carry the value at the
                    // previous cut; behavior is known through it.
                    Some(t0) => nodes[i].valid_until.store(t0, Ordering::Relaxed),
                },
                None => {
                    // Floating: X forever, known for all time.
                    if bounds.t0.is_none() {
                        unsafe { nodes[i].push(0, Value::x(nd.width()), &mut seed_alloc) };
                    }
                    nodes[i].valid_until.store(end, Ordering::Relaxed);
                }
            }
        }
        let start_state = start_state(netlist, bounds.horizon, seg.resume);
        // Per-node value at this segment's cut, maintained for snapshot
        // capture: the start state's, overwritten by every seeded event and
        // — post-join — by each logic driver's `cut_val`.
        let mut base_vals: Vec<Value> = start_state.values.clone();
        // Per-thread change buffers; index 0 doubles as the init buffer.
        let mut init_changes: Vec<(Time, NodeId, Value)> = Vec::new();
        let mut events_seed = 0u64;
        // Seeds one event into its node's behavior list. Watched in-flight
        // events are recorded here: the capturing segment routed them into
        // its snapshot instead of its change log.
        let mut seed = |changes: &mut Vec<(Time, NodeId, Value)>, t: u64, i: usize, v: Value| {
            base_vals[i] = v;
            // SAFETY: pre-spawn exclusive access.
            unsafe { nodes[i].push(t, v, &mut seed_alloc) };
            // A generator's initial X at time zero is no event.
            if t != 0 || v != Value::x(v.width()) {
                events_seed += 1;
                if watched[i] {
                    changes.push((Time(t), NodeId::from_index(i), v));
                }
            }
        };
        stimulus_events(netlist, &LaneStimulus::base(), bounds, |t, i, v| {
            seed(&mut init_changes, t, i, v);
            Ok(())
        })?;
        // This engine reports generator changes node by node, each in time
        // order, and the change log rides every snapshot's bytes. The
        // stimulus comes in element order, so a stable sort restores it.
        init_changes.sort_by_key(|&(_, node, _)| node);
        // The snapshot keeps in-flight events sorted by time, so each node's
        // append-only list stays monotone.
        let mut carry = in_flight_events(seg.resume, end, |t, i, v| {
            seed(&mut init_changes, t, i, v);
            Ok(())
        })?;

        // ---- run tables: one slot per input pin, output pin or element ----
        let in_nodes = || wiring.pins_in.iter().map(|&(n, _)| n as usize);
        let out_nodes = || wiring.pins_out.iter().map(|&o| o as usize);
        let values = &start_state.values;
        let cursors = in_nodes()
            .map(|n| Cursor::new(&nodes[n], values[n]))
            .collect();
        let cur_vals = in_nodes().map(|n| values[n]).collect();
        let last_out = out_nodes().map(|o| start_state.last_scheduled[o]).collect();
        let last_te = out_nodes()
            .map(|o| start_state.last_sched_time[o])
            .collect();
        let cut_val = out_nodes().map(|o| base_vals[o]).collect();
        let states = start_state.elem_states.iter().cloned().collect();

        // Activation flags by owning worker, so one worker's CAS traffic
        // does not false-share another's flags.
        let act_at = OwnerLayout::build(owner.iter().map(|&w| w as usize), n_threads, FLAGS);
        let acts = act_at.store(|_| ActivationState::new());

        let ctx = Ctx {
            netlist,
            nodes,
            wiring,
            cursors,
            cur_vals,
            last_out,
            last_te,
            cut_val,
            states,
            acts,
            act_at,
            pending: AtomicI64::new(0),
            watched,
            owner,
            bounds,
            gc: config.gc,
        };

        // Initial activation: every non-generator element (matches the
        // other engines' time-zero initialization pass).
        let (senders, receivers) = grid::<IdBatch>(n_threads);
        // Seed each worker's local deque with its owned elements: initial
        // and steady-state placement agree, so a cone's chain reaction
        // starts — and stays — on its owner. The deque pops LIFO, so each
        // seed is reversed: pops then follow ascending element order
        // (builder order, roughly topological) and each element finds its
        // inputs already valid. Seeding in pop-is-reverse-topological
        // order costs an order of magnitude in wasted early activations on
        // deep circuits.
        let generator = |e: u32| netlist.elements()[e as usize].kind().is_generator();
        let init_work: Vec<Vec<u32>> = (0..n_threads)
            .map(|w| {
                let owned = ctx.act_at.items(w).iter().rev().copied();
                owned.filter(|&e| !generator(e)).collect()
            })
            .collect();
        for &e in init_work.iter().flatten() {
            assert!(ctx.act(e as usize).try_activate());
            ctx.pending.fetch_add(1, Ordering::AcqRel);
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
                let mut replay = Replay::default();
                let mut alloc = ChunkAlloc::default();
                let mut backoff = Backoff::new();
                let mut span = Span::default();
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
                            if !span.is(Counter::BusyNs) {
                                span.switch(Some(Counter::BusyNs), &mut tally);
                            }
                            backoff.reset();
                            if let FaultAction::Exit =
                                config.fault.check(w, processed, cont.cancel_flag())
                            {
                                break;
                            }
                            processed += 1;
                            cont.beat(w);
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
                                    &mut replay,
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
                            since_flush += 1;
                            if since_flush >= TELEMETRY_FLUSH_EVERY {
                                since_flush = 0;
                                // Split the busy span so a live sampler
                                // sees busy time advance mid-span.
                                span.switch(Some(Counter::BusyNs), &mut tally);
                                tally.flush(&shard);
                                shard.set_gauge(Gauge::QueueDepth, sched.local.len() as u64);
                            }
                        }
                        None => {
                            if ctx.pending.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            if !span.is(Counter::IdleNs) {
                                span.switch(Some(Counter::IdleNs), &mut tally);
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
                // Close the open span, busy or idle, on every exit path
                // (termination, cancellation, fault exit).
                span.switch(None, &mut tally);
                tally.flush(&shard);
                (changes, tr, overflow, (alloc.allocs, alloc.frees))
            },
            |d| {
                // Iterate elements (not positions): `acts` holds
                // always-idle padding flags.
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
        // shard. So does the simulated time: the run quiesced, so every
        // node's behavior is known through the cut.
        {
            let d = registry.driver();
            d.set_gauge(Gauge::SimTime, end);
            d.add(Counter::GcChunksFreed, chunk_frees);
            d.add(Counter::ArenaChunkAllocs, chunk_allocs);
            d.add(Counter::ArenaChunkFrees, chunk_frees);
        }
        let wall = start.elapsed();
        let snapshot = bounds.capture.then(|| {
            // Quiescence means every element has replayed every event in
            // the segment, so the per-element run state *is* the state at
            // the cut. SAFETY (all accesses below): workers are joined;
            // single-threaded access with the joins as the edge.
            let mut values = base_vals;
            let mut last_scheduled = start_state.last_scheduled.clone();
            let mut last_sched_time = start_state.last_sched_time.clone();
            let mut elem_states: Vec<ElemState> = Vec::with_capacity(netlist.num_elements());
            for (e, meta) in ctx.wiring.meta.iter().enumerate() {
                let run = unsafe { ctx.run(e) };
                elem_states.push(run.state.clone());
                if meta.kind.is_generator() {
                    continue;
                }
                for (port, &out) in ctx.wiring.pins_out[pin_range(meta.outs)].iter().enumerate() {
                    values[out as usize] = run.cut_val[port];
                    last_scheduled[out as usize] = run.last_out[port];
                    last_sched_time[out as usize] = run.last_te[port];
                }
            }
            bounds.snapshot(values, last_scheduled, last_sched_time, elem_states, carry)
        });
        Ok(SegmentOut {
            changes,
            wall,
            trace: tracer.finish(worker_tracers),
            snapshot,
        })
    }
}

/// A worker's replay state, reused across activations: per input pin of
/// the element being replayed, the time of its next replayable event and a
/// copy of its cursor. The cursors are stored back to the run table once,
/// after the replay.
#[derive(Default)]
struct Replay {
    next: Vec<u64>,
    cursors: Vec<Cursor>,
}

/// Executes one element activation: §4's "get as much of the new output
/// behavior from the inputs as possible".
///
/// # Safety
///
/// The caller must hold the element exclusively (activation machine), which
/// makes its run-table slots ([`Ctx::run`]) and the output nodes' writer
/// sides single-writer.
#[allow(clippy::too_many_arguments)]
unsafe fn run_element(
    ctx: &Ctx<'_>,
    e: usize,
    sched: &mut Sched,
    replay: &mut Replay,
    changes: &mut Vec<(Time, NodeId, Value)>,
    overflow: &mut Vec<PendingEvent>,
    alloc: &mut ChunkAlloc,
    tally: &mut Tally,
    tr: &mut WorkerTracer,
) {
    let meta = &ctx.wiring.meta[e];
    let pins = &ctx.wiring.pins_in[pin_range(meta.ins)];
    let outs = &ctx.wiring.pins_out[pin_range(meta.outs)];
    let run = ctx.run(e);
    let mut outputs_touched = false;
    let mut validity_extended = false;
    // First-touch pipelining: wake each output's fan-out once, as soon as
    // the first event of this run lands, so consumers overlap with the
    // rest of the batch; the end-of-run activation catches anything
    // appended after a consumer drained and went idle again.
    let mut woken = [false; 2];

    // The minimum time through which *all* inputs are known.
    let min_valid = pins
        .iter()
        .map(|&(node, _)| ctx.nodes[node as usize].valid_until.load(Ordering::Acquire))
        .min()
        .unwrap_or(ctx.bounds.cut);

    // ---- replay every input event at or before min_valid ------------------
    // Each pin's next replayable time, `u64::MAX` when its next event (if
    // any is published) lies past `min_valid`. Every event at or before
    // `min_valid` was published before the validity that covers it, so a
    // pin found without one gets none during this run.
    let replayable = |event: Option<(u64, Value)>| match event {
        Some((t, _)) if t <= min_valid => t,
        _ => u64::MAX,
    };
    // Peeked in place: an activation with nothing to replay copies no
    // cursor.
    replay.next.clear();
    let mut t_next = u64::MAX;
    for (cursor, &(node, _)) in run.cursors.iter_mut().zip(pins) {
        let next = replayable(cursor.peek(&ctx.nodes[node as usize]));
        t_next = t_next.min(next);
        replay.next.push(next);
    }
    let replaying = t_next != u64::MAX;
    if replaying {
        replay.cursors.clear();
        replay.cursors.extend_from_slice(run.cursors);
    }
    // Allocation invariant: this loop is allocation-free in steady state.
    // Replay runs on the worker's `Replay` scratch, the native arms and
    // `evaluate` return the stack-only `Outputs` (and `Value::resolve` is
    // pure bit-plane arithmetic with no temporaries), and `Node::push`
    // appends into chunked arenas whose growth is amortized. Keep it that
    // way: never construct a `Vec` per activation here.
    while t_next != u64::MAX {
        let t = t_next;
        t_next = u64::MAX;
        // Advance every pin due at t, and find the next time any is due.
        let locals = replay.next.iter_mut().zip(&mut replay.cursors);
        for ((next, cursor), (val, &(node, _))) in locals.zip(run.cur_vals.iter_mut().zip(pins)) {
            if *next == t {
                let node = &ctx.nodes[node as usize];
                loop {
                    cursor.consume(node);
                    *next = replayable(cursor.peek(node));
                    if *next > t {
                        break;
                    }
                }
                *val = cursor.value;
            }
            t_next = t_next.min(*next);
        }
        tally.inc(Counter::Evaluations);
        tr.instant(EventKind::Eval, e as u32);
        // Inputs are known through t, so every output is now known through
        // t + delay — publish that *immediately* so fan-out elements
        // running concurrently can consume this run's events while it is
        // still producing. This is the paper's pipelining: "one processor
        // may be evaluating an element producing events and another
        // processor can be evaluating one of the elements on the fan-out
        // of that element."
        let known_through = (t + meta.delay).min(ctx.bounds.cut);
        let vals = &*run.cur_vals;
        let out = match meta
            .op
            .and_then(|op| eval_native(op, vals.len(), |k| vals[k]))
        {
            Some(v) => Outputs::one(v),
            None => evaluate(&meta.kind, vals, run.state),
        };
        for port in 0..out.len() {
            let v = out.get(port);
            let out_node = outs[port] as usize;
            let changed = run.last_out[port] != v;
            if changed {
                let (last, last_t) = (&mut run.last_out[port], &mut run.last_te[port]);
                match ctx.bounds.route(last, last_t, v, t, (meta.rise, meta.fall)) {
                    Route::Keep(te) => {
                        run.cut_val[port] = v;
                        ctx.nodes[out_node].push(te, v, alloc);
                        tally.inc(Counter::EventsProcessed);
                        tr.instant(EventKind::EventInsert, out_node as u32);
                        if ctx.watched[out_node] {
                            changes.push((Time(te), NodeId::from_index(out_node), v));
                        }
                        outputs_touched = true;
                    }
                    Route::Capture(te) => overflow.push(PendingEvent {
                        time: te,
                        node: out_node as u32,
                        value: v,
                    }),
                    Route::Drop => {}
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
    if replaying {
        run.cursors.copy_from_slice(&replay.cursors);
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
            for (i, &(node, _)) in pins.iter().enumerate() {
                if bit_of(&run.cur_vals[i]) != Some(ctrl) {
                    continue;
                }
                let quiet = run.cursors[i].scan_quiet(&ctx.nodes[node as usize], Edge::Any);
                pin_end = pin_end.max(quiet);
                pinned = true;
            }
            if !pinned || pin_end <= effective_valid {
                break;
            }
            effective_valid = pin_end;
            // Skip events the pinned output makes irrelevant; the values
            // still update so later evaluations start from the right state.
            let mut skipped_any = false;
            for (i, &(node, _)) in pins.iter().enumerate() {
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
        // Register lookahead: nothing but a moving trigger edge moves the
        // output, so it is quiet until the first one on any trigger port.
        // Every other event, on a data input or a non-moving clock or
        // reset edge, stays in its list and is replayed — to no effect on
        // the output — once it becomes valid.
        Lookahead::Triggers(rule) => {
            let armed = rule.while_level.is_none_or(|level| {
                rule.ports
                    .iter()
                    .all(|&(p, _)| bit_of(&run.cur_vals[p]) == Some(level))
            });
            if armed {
                let quiet = rule
                    .ports
                    .iter()
                    .map(|&(p, edge)| {
                        run.cursors[p].scan_quiet(&ctx.nodes[pins[p].0 as usize], edge)
                    })
                    .min()
                    .unwrap_or(min_valid);
                effective_valid = effective_valid.max(quiet);
            }
        }
    }
    if effective_valid > min_valid {
        tally.inc(Counter::LookaheadExtensions);
    }

    // ---- publish consumption cursors; the last reader out frees a chunk ---
    // Each cursor published is one this run has reached: `Lists::gc`'s
    // contract.
    let mut consumed_any = false;
    for (i, &(node, k)) in pins.iter().enumerate() {
        let global = run.cursors[i].global;
        let prev = ctx.nodes.publish(node as usize, k as usize, global);
        consumed_any |= prev != global;
        if ctx.gc && crosses_chunk(prev, global) {
            ctx.nodes.gc(node as usize, alloc);
        }
    }
    if !consumed_any {
        tally.inc(Counter::EmptyActivations);
    }

    // ---- extend output valid times (incremental clock values) --------------
    let out_valid = effective_valid
        .saturating_add(meta.delay)
        .min(ctx.bounds.cut);
    for &out in outs {
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
        for &out in outs {
            for &(consumer, _) in ctx.netlist.nodes()[out as usize].fanout() {
                let c = consumer.index();
                if ctx.act(c).try_activate() {
                    ctx.pending.fetch_add(1, Ordering::AcqRel);
                    sched.enqueue(ctx, c as u32, tally, tr);
                }
            }
        }
    }

    // ---- the writer's garbage collection ------------------------------------
    if ctx.gc {
        for &out in outs {
            ctx.nodes.gc(out as usize, alloc);
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
    use std::time::Duration;

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
    fn pin_tables_match_the_netlist() {
        let cpu = parsim_circuits::pipelined_cpu(16, 128).unwrap().netlist;
        let mult = parsim_circuits::gate_multiplier(16, &[(3, 5)], 256)
            .unwrap()
            .netlist;
        for netlist in [cpu, mult] {
            let w = Wiring::new(&netlist, true);
            assert_eq!(w.meta.len(), netlist.num_elements());
            for (id, e) in netlist.iter_elements() {
                let m = &w.meta[id.index()];
                assert_eq!(pin_range(m.ins).len(), e.inputs().len());
                for (p, &input) in e.inputs().iter().enumerate() {
                    let (node, k) = w.pins_in[m.ins.0 as usize + p];
                    assert_eq!(node as usize, input.index());
                    let fanout = netlist.node(input).fanout();
                    assert_eq!(fanout[k as usize], (id, p as u16), "{id:?} port {p}");
                }
                let outs: Vec<NodeId> = w.pins_out[pin_range(m.outs)]
                    .iter()
                    .map(|&o| NodeId::from_index(o as usize))
                    .collect();
                assert_eq!(outs, e.outputs());
            }
        }
    }

    #[test]
    fn busy_spans_fit_in_the_wall_time() {
        let cpu = parsim_circuits::pipelined_cpu(16, 128).unwrap();
        for threads in [1, 2] {
            let cfg = SimConfig::new(Time(512))
                .watch_all(cpu.pc.clone())
                .threads(threads);
            let m = ChaoticAsync::run(&cpu.netlist, &cfg).unwrap().metrics;
            assert_eq!(m.per_thread.len(), threads, "one row per worker");
            for (w, t) in m.per_thread.iter().enumerate() {
                // A worker that exits mid-span still publishes it.
                assert!(
                    t.busy > Duration::ZERO,
                    "x{threads} worker {w}: no busy time"
                );
                assert!(
                    t.busy + t.idle <= m.wall,
                    "x{threads} worker {w}: {:?} + {:?} > wall {:?}",
                    t.busy,
                    t.idle,
                    m.wall
                );
            }
            if threads == 1 {
                // A lone worker runs out of work only when `pending` is 0,
                // and then it exits instead of idling.
                assert_eq!(m.per_thread[0].idle, Duration::ZERO);
            }
        }
    }

    /// The simulated-time gauge reads the cut the run quiesced at, as the
    /// step engines' reads their last step.
    #[test]
    fn finals_carry_the_simulated_time_reached() {
        let (netlist, watch) = pipeline_circuit();
        for threads in [1, 2] {
            let cfg = SimConfig::new(Time(200))
                .watch_all(watch.clone())
                .threads(threads);
            let r = ChaoticAsync::run(&netlist, &cfg).unwrap();
            let finals = &r.telemetry.expect("every run carries telemetry").finals;
            assert_eq!(finals.gauge(Gauge::SimTime), 200, "x{threads}");
        }
    }

    /// At one thread every element runs once, after the elements that
    /// drive its inputs, so a node's writer never runs again once its
    /// readers have consumed its list: only the readers can reclaim. The
    /// last reader to leave a chunk frees it, so every chunk but each
    /// node's tail comes back during the run: 3 908 of 6 375 chunks over
    /// 2 467 nodes. When only the writer reclaimed, it freed 259.
    #[test]
    fn one_thread_reclaims_every_chunk_but_the_tails() {
        let operands: Vec<(u64, u64)> = (0..24).map(|i| (i * 2_731, 65_535 - i * 977)).collect();
        let m = parsim_circuits::gate_multiplier(16, &operands, 256).unwrap();
        let r = ChaoticAsync::run(&m.netlist, &SimConfig::new(m.schedule_end())).unwrap();
        let (allocs, nodes) = (r.metrics.arena.chunk_allocs, m.netlist.num_nodes() as u64);
        assert!(
            allocs > 2 * nodes,
            "{allocs} chunks over {nodes} nodes: lists too short"
        );
        assert_eq!(
            r.metrics.gc_chunks_freed,
            allocs - nodes,
            "a chunk other than a tail survived"
        );
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
            b.element(
                &format!("inv{i}"),
                ElementKind::Not,
                Delay(1),
                &[prev],
                &[n],
            )
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
        // with it the flip-flop jumps to its next rising clock edge each
        // time, straight past the falling one between.
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        let kind = ElementKind::Clock {
            half_period: 50,
            offset: 50,
        };
        b.element("osc", kind, Delay(1), &[], &[clk]).unwrap();
        let q = b.node("q", 1);
        let d = b.node("d", 1);
        b.element(
            "ff",
            ElementKind::Dff { width: 1 },
            Delay(1),
            &[clk, d],
            &[q],
        )
        .unwrap();
        b.element("inv", ElementKind::Not, Delay(1), &[q], &[d])
            .unwrap();
        let n = b.finish().unwrap();
        let cfg = SimConfig::new(Time(10_000)).watch(q);
        let rising_edges = 10_000 / 100;
        let with = ChaoticAsync::run(&n, &cfg).unwrap();
        // Two elements, about one run each per rising edge: a falling edge
        // must not cost a turn of the ring.
        assert!(
            with.metrics.activations <= 3 * rising_edges,
            "expected O(rising clock edges) activations, got {}",
            with.metrics.activations
        );
        assert!(with.metrics.lookahead_extensions >= rising_edges);
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
