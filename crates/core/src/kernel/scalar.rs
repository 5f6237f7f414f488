//! Scalar executor for the compiled instruction stream.
//!
//! This is the paper's §3 engine rebuilt on the level-major stream from
//! [`CompiledProgram`]: barrier-separated apply/evaluate phases, static
//! partition, unit delay — but per-element dynamic dispatch is gone
//! (instructions carry dense opcodes and slot indices) and, when
//! [`SimConfig::activity_gating`] is on, blocks whose inputs did not change
//! are skipped instead of re-evaluated — and when a step queues no write on
//! any worker the loop jumps to the next scheduled stimulus, since nothing
//! can change in between ([`WriteMark`]).
//!
//! Shared-state discipline: between two barriers a worker writes only
//! cache lines no other worker writes. A value slot is written only by the
//! worker owning its driving instruction (plus worker 0 for generator and
//! undriven slots) during the *apply* phase and read by everyone during the
//! *evaluate* phase, with a [`SpinBarrier`] between the phases; the slot
//! file is laid out by writing worker ([`SlotLayout`]), so each worker's
//! writes land on lines of its own, and the hot loops index it through the
//! layout's per-worker position lists, never through a remap. Dirty bits
//! are set during apply and taken by their owner during evaluate, under
//! the same barrier edges, in words on each owner's own lines
//! ([`DirtyMask`]). Element state is a `Vec` per worker in its instruction
//! order, moved into the worker and handed back for the snapshot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parsim_logic::{evaluate, ElemState, Time, Value};
use parsim_netlist::compile::CompiledProgram;
use parsim_netlist::{Netlist, NodeId};
use parsim_queue::{SpinBarrier, WriteMark};
use parsim_telemetry::{Counter, Gauge, Tally};
use parsim_trace::{EventKind, Tracer, WorkerTracer};

use crate::checkpoint::{
    generator_events, in_flight_events, new_run_ctx, start_state, SegmentOut, SegmentSpec,
};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::exec::run_workers;
use crate::fault::FaultAction;
use crate::kernel::{credit_quiet_steps, DirtyMask, ExecPlan, SlotLayout, GROUP};
use crate::waveform::SimResult;

/// Engine tag used in [`SimError`] values.
const ENGINE: &str = "compiled-mode";

/// Per-worker results: waveform changes, the worker's drained trace ring,
/// the unapplied pending set the worker held when the segment ended
/// (checkpoint capture mode: these are the unit-delay events for
/// `cut + 1`, by slot-file position), and the worker's element states.
/// Counters travel through the worker's telemetry shard.
type WorkerOutput = (
    Vec<(Time, NodeId, Value)>,
    WorkerTracer,
    Vec<(u32, Value)>,
    Vec<ElemState>,
);

/// The slot-file group and index of position `pos`.
#[inline]
fn cell(pos: u32) -> (usize, usize) {
    (pos as usize / GROUP, pos as usize % GROUP)
}

/// Runs the scalar compiled-mode kernel (whole run).
pub(crate) fn run(
    netlist: &Netlist,
    config: &SimConfig,
    prog: &CompiledProgram,
) -> Result<SimResult, SimError> {
    let ctx = new_run_ctx(config);
    let out = run_segment(
        netlist,
        config,
        prog,
        SegmentSpec::whole(config, ctx.clone()),
    )?;
    Ok(out.into_result(netlist, config, &ctx))
}

/// Runs one segment of the scalar compiled-mode kernel.
///
/// Compiled mode is unit-delay, so a snapshot at cut `T` is simply: slot
/// values after the apply phase of step `T`, instruction states after the
/// evaluate phase of step `T`, and the pending set that evaluate produced
/// (events for `T + 1`). Resume re-applies that pending set (each event by
/// the worker whose region holds its slot, like generator events) and
/// restarts the step loop at `T + 1` with an
/// all-dirty mask — re-evaluating a clean block is idempotent, so the
/// conservative mask costs work, never correctness.
pub(crate) fn run_segment(
    netlist: &Netlist,
    config: &SimConfig,
    prog: &CompiledProgram,
    seg: SegmentSpec<'_>,
) -> Result<SegmentOut, SimError> {
    let start = Instant::now();
    let bounds = seg.bounds(config);
    let (cut, end) = (bounds.cut, bounds.horizon);
    let first_step = bounds.t0.map_or(0, |t| t + 1);
    let threads = config.threads;
    let gating = config.activity_gating;

    let plan = ExecPlan::build(prog, threads);
    let plan = &plan;
    let layout = SlotLayout::build(prog, plan);
    let layout = &layout;
    // Program slots and nodes cross into positions here, at the edges.
    let pos_of = |node: NodeId| layout.pos(prog.slot_of(node));
    let node_at = |pos: u32| prog.node_of(layout.slot_at(pos));

    let mut watched = vec![false; layout.positions()];
    for &n in &config.watch {
        watched[pos_of(n) as usize] = true;
    }
    let watched = &watched;

    // The segment's stimulus (generators are excluded from the instruction
    // stream): the generator schedules, then a resume snapshot's in-flight
    // events, node updates like any other.
    // `(time, push order, slot, value)`, sorted by the first two (in place:
    // a stable sort's scratch buffer would be the run's peak allocation on
    // a circuit of fast clocks) and walked by a per-worker cursor: every
    // worker needs the next stimulus time and applies the events that land
    // in its region (all of a generator's are worker 0's).
    let mut gen_events: Vec<(u64, u32, u32, Value)> = Vec::new();
    let generators = netlist.generators();
    for &gen in &generators {
        let e = netlist.element(gen);
        let slot = pos_of(e.outputs()[0]);
        let events = generator_events(e.kind(), bounds);
        if gen_events.is_empty() {
            // One allocation when the generators are alike (an array of
            // clocks), not a doubling series that fragments the heap;
            // pages reserved beyond what is pushed are never touched.
            let (_, most) = events.size_hint();
            gen_events.reserve(most.unwrap_or(0) * generators.len());
        }
        for (t, v) in events {
            gen_events.push((t, gen_events.len() as u32, slot, v));
        }
    }
    // In-flight events past this segment's cut skip straight to the next
    // snapshot.
    let carry = in_flight_events(seg.resume, cut, |t, node, v| {
        let slot = pos_of(NodeId::from_index(node));
        gen_events.push((t, gen_events.len() as u32, slot, v));
        Ok(())
    })?;
    gen_events.sort_unstable_by_key(|ev| (ev.0, ev.1));
    let gen_events = &gen_events;

    let start_state = start_state(netlist, end, seg.resume);
    // Shared slot values: written single-writer during apply phases.
    let values = layout.slot_file(|slot| start_state.values[prog.node_of(slot).index()]);
    let values = &values;
    // Per-worker element state, in the worker's instruction order.
    let states: Vec<Vec<ElemState>> = plan
        .thread_insns
        .iter()
        .map(|insns| {
            let state = |&i: &u32| start_state.elem_states[prog.elem(i as usize)].clone();
            insns.iter().map(state).collect()
        })
        .collect();
    let dirty = DirtyMask::all_dirty(&plan.thread_blocks);
    let dirty = &dirty;

    let barrier = &SpinBarrier::new(threads);
    let last_write = WriteMark::new();
    let last_write = &last_write;
    let registry = &seg.telemetry.registry;
    // Cooperative cancellation: thread 0 copies the cancel flag into
    // `stop` during the apply phase, and everyone samples `stop` after
    // the following barrier — so all threads break at the same step.
    let stop = AtomicBool::new(false);
    let stop = &stop;
    // Last step thread 0 started, for the stall diagnostic.
    let cur_step = AtomicU64::new(0);
    let cur_step = &cur_step;

    let tracer = Tracer::new(config.trace.as_ref());

    let outputs: Vec<WorkerOutput> = run_workers(
        ENGINE,
        config,
        &seg.telemetry,
        Some(barrier),
        states,
        |p, mut states, cont| {
            let code = layout.code(p);
            let region = layout.region(p);
            let mut changes: Vec<(Time, NodeId, Value)> = Vec::new();
            let mut tr = tracer.worker(p);
            let shard = registry.worker(p);
            let mut tally = Tally::default();
            let mut pending: Vec<(u32, Value)> = Vec::new();
            let mut inputs_buf: Vec<Value> = Vec::with_capacity(8);
            let mut processed = 0u64;
            let mut cursor = 0usize;
            let mut t = first_step;
            'run: while t <= cut {
                cont.beat(p);
                if p == 0 {
                    cur_step.store(t, Ordering::Relaxed);
                    tally.inc(Counter::TimeSteps);
                    shard.set_gauge(Gauge::SimTime, t);
                    if cont.cancelled() {
                        stop.store(true, Ordering::Release);
                    }
                }
                let busy_start = Instant::now();
                tr.begin(EventKind::PhaseApply, t as u32);
                // ---- apply phase ----------------------------
                for &(slot, v) in &pending {
                    let (g, j) = cell(slot);
                    // SAFETY: the slot's group lies in this worker's
                    // region, which only it writes and nobody reads
                    // during apply; phases are separated by barriers.
                    unsafe { values.get_mut(g) }.0[j] = v;
                    tally.inc(Counter::EventsProcessed);
                    if watched[slot as usize] {
                        changes.push((Time(t), node_at(slot), v));
                    }
                    if gating {
                        for &b in layout.fanout(slot) {
                            dirty.mark(b);
                        }
                    }
                }
                pending.clear();
                // Every executed step is at or before the next stimulus, so
                // what is due is exactly the entries at `t`.
                while let Some(&(_, _, slot, v)) = gen_events.get(cursor).filter(|ev| ev.0 == t) {
                    cursor += 1;
                    if !region.contains(&slot) {
                        continue;
                    }
                    let (g, j) = cell(slot);
                    // SAFETY: as above, the slot is in this worker's region.
                    let cur = &mut unsafe { values.get_mut(g) }.0[j];
                    if *cur != v {
                        *cur = v;
                        tally.inc(Counter::EventsProcessed);
                        if watched[slot as usize] {
                            changes.push((Time(t), node_at(slot), v));
                        }
                        if gating {
                            for &b in layout.fanout(slot) {
                                dirty.mark(b);
                            }
                        }
                    }
                }
                tr.end(EventKind::PhaseApply);
                tally.add_elapsed(Counter::BusyNs, busy_start);
                let wait_start = Instant::now();
                barrier.wait_traced(&mut tr, 0);
                tally.add_elapsed(Counter::IdleNs, wait_start);
                // All threads observe the same `stop` value here (set before
                // the barrier), so they break at the same step.
                if barrier.is_poisoned() || stop.load(Ordering::Acquire) {
                    break 'run;
                }

                // ---- evaluate phase -------------------------
                let busy_start = Instant::now();
                tr.begin(EventKind::PhaseEval, t as u32);
                let mut step_evals = 0u64;
                if t < end {
                    for b in plan.thread_blocks[p].clone() {
                        let block = plan.blocks[b];
                        let (lo, hi) = (block.lo as usize, block.hi as usize);
                        if gating && !dirty.take(b as u32) {
                            tally.inc(Counter::BlocksSkipped);
                            tally.add(Counter::EvalsSkipped, (hi - lo) as u64);
                            tr.instant(EventKind::BlockSkip, b as u32);
                            continue;
                        }
                        tr.instant(EventKind::BlockRun, b as u32);
                        for (k, state) in (lo..hi).zip(&mut states[lo..hi]) {
                            if let FaultAction::Exit =
                                config.fault.check(p, processed, cont.cancel_flag())
                            {
                                // Only reached after cancellation,
                                // which always poisons the barrier,
                                // so peers are not left waiting.
                                break 'run;
                            }
                            processed += 1;
                            cont.beat(p);
                            let i = plan.thread_insns[p][k] as usize;
                            inputs_buf.clear();
                            for &inp in code.inputs(k) {
                                let (g, j) = cell(inp);
                                // SAFETY: read-only phase.
                                inputs_buf.push(unsafe { values.get(g) }.0[j]);
                            }
                            let kind = netlist.elements()[prog.elem(i)].kind();
                            let out = evaluate(kind, &inputs_buf, state);
                            step_evals += 1;
                            tr.instant(EventKind::Eval, i as u32);
                            for (port, v) in out.iter() {
                                let slot = code.outputs(k)[port];
                                let (g, j) = cell(slot);
                                // SAFETY: read-only phase.
                                if unsafe { values.get(g) }.0[j] != v {
                                    pending.push((slot, v));
                                    tr.instant(EventKind::EventInsert, layout.slot_at(slot));
                                }
                            }
                        }
                    }
                }
                tr.counter(EventKind::QueueDepth, pending.len() as u32);
                tr.end(EventKind::PhaseEval);
                // Activations mirror evaluations (every
                // evaluated instruction counts as activated).
                tally.add(Counter::Evaluations, step_evals);
                tally.add(Counter::Activations, step_evals);
                shard.set_gauge(Gauge::QueueDepth, pending.len() as u64);
                tally.add_elapsed(Counter::BusyNs, busy_start);
                // One flush per worker per step.
                tally.flush(&shard);
                if gating && !pending.is_empty() {
                    last_write.note(t);
                }
                let wait_start = Instant::now();
                barrier.wait_traced(&mut tr, 1);
                tally.add_elapsed(Counter::IdleNs, wait_start);
                if barrier.is_poisoned() {
                    break 'run;
                }
                // A step that queued no write anywhere left no
                // dirty block either: nothing changes until the
                // next stimulus, so continue there.
                let mut next = t + 1;
                let stimulus = gen_events.get(cursor).map_or(cut + 1, |ev| ev.0);
                if gating && stimulus > next && last_write.quiet(t) {
                    next = stimulus;
                    let counts = (p == 0).then_some(&*shard);
                    credit_quiet_steps(&mut tally, plan, p, counts, (t, next, end));
                    let jumped = u32::try_from(next - t - 1).unwrap_or(u32::MAX);
                    tr.instant(EventKind::QuietJump, jumped);
                }
                t = next;
            }
            // The last barrier's idle time and any early break.
            tally.flush(&shard);
            (changes, tr, pending, states)
        },
        |d| d.sim_time = Some(Time(cur_step.load(Ordering::Relaxed))),
    )?;

    let mut changes = Vec::new();
    let mut worker_tracers = Vec::with_capacity(threads);
    let mut leftover: Vec<(u32, Value)> = Vec::new();
    let mut worker_states = Vec::with_capacity(threads);
    for (c, wt, pend, st) in outputs {
        changes.extend(c);
        worker_tracers.push(wt);
        leftover.extend(pend);
        worker_states.push(st);
    }
    let wall = start.elapsed();
    let snapshot = bounds.capture.then(|| {
        let node_values: Vec<Value> = (0..netlist.num_nodes())
            .map(|n| {
                let (g, j) = cell(pos_of(NodeId::from_index(n)));
                // SAFETY: workers are joined; single-threaded access with
                // the joins as the synchronization edge.
                unsafe { values.get(g) }.0[j]
            })
            .collect();
        let mut elem_states = start_state.elem_states.clone();
        for (insns, states) in plan.thread_insns.iter().zip(worker_states) {
            for (&i, state) in insns.iter().zip(states) {
                elem_states[prog.elem(i as usize)] = state;
            }
        }
        let queued = leftover
            .into_iter()
            .map(|(pos, v)| (node_at(pos).index(), v));
        bounds.unit_delay_snapshot(node_values, elem_states, queued, carry)
    });
    Ok(SegmentOut {
        changes,
        wall,
        trace: tracer.finish(worker_tracers),
        snapshot,
    })
}
