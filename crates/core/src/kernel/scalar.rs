//! Scalar executor for the compiled instruction stream.
//!
//! This is the paper's §3 engine rebuilt on the level-major stream from
//! [`CompiledProgram`]: barrier-separated apply/evaluate phases, static
//! partition, unit delay — but with no per-element dynamic dispatch, and,
//! when [`SimConfig::activity_gating`] is on, blocks whose inputs did not
//! change are skipped instead of re-evaluated — and when a step queues no
//! write on any worker the loop jumps to the next scheduled stimulus, since
//! nothing can change in between ([`WriteMark`]).
//!
//! The evaluate phase matches on each instruction's [`Opcode`], held per
//! worker in its own instruction order ([`WorkerCode`](super::WorkerCode)).
//! Gates, buffers and the mux read their inputs straight from the slot
//! file through the native arms every scalar engine shares
//! ([`crate::native`]); the result is compared with the output slot in
//! place. Stateful and RTL opcodes gather their inputs and
//! go through [`evaluate`] with an [`ElementKind`] cached per worker, so
//! the step loop never reads the netlist. Bookkeeping is paid per gating
//! block, not per instruction: one heartbeat per block run (plus one per
//! step), and the [`FaultPlan`](crate::FaultPlan) is consulted per
//! instruction only in the block that reaches its first ordinal, so a
//! fault still lands on its exact activation. Busy and idle time cost one
//! clock read per phase boundary, four per step.
//!
//! Shared-state discipline: between two barriers a worker writes only
//! cache lines no other worker writes. A value slot is written by its
//! writer ([`ExecPlan::writers`]) during the *apply* phase and read by
//! everyone during the *evaluate* phase, with a [`SpinBarrier`] between
//! the phases; the slot file ([`SlotLayout`]) and the dirty bits
//! ([`DirtyMask`], set during apply, taken by their owner during
//! evaluate) keep each worker's writes on lines of its own, and the hot
//! loops index the file through per-worker position lists, never a remap.
//! Element state is a `Vec` per worker in its instruction order, moved
//! into the worker and handed back for the snapshot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parsim_logic::{evaluate, ElemState, ElementKind, Time, Value};
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
use crate::native::eval_native;
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

/// A segment's stimulus as time-ordered runs laid end to end: `(time,
/// position, value)` events, one run per generator and one for a resume
/// snapshot's in-flight events.
#[derive(Default)]
struct Stimulus {
    events: Vec<(u64, u32, Value)>,
    /// The end of each run in `events`.
    ends: Vec<usize>,
}

impl Stimulus {
    /// Closes the run of the events pushed since the last one closed.
    fn end_run(&mut self) {
        let from = self.ends.last().map_or(0, |&end| end);
        debug_assert!(
            self.events[from..].is_sorted_by_key(|ev| ev.0),
            "a stimulus run must be in time order"
        );
        self.ends.push(self.events.len());
    }
}

/// One worker's walk over a [`Stimulus`]: a cursor per run. A step takes
/// the events due at its time run by run, which is the order a sort by
/// time that keeps push order on ties gives, and learns the next stimulus
/// time in the same pass, at one check per run per step rather than a
/// sort of every event of the segment.
struct StimulusWalk<'a> {
    stimulus: &'a Stimulus,
    /// Each run's next event.
    next: Vec<usize>,
}

impl<'a> StimulusWalk<'a> {
    fn new(stimulus: &'a Stimulus) -> StimulusWalk<'a> {
        let starts = std::iter::once(0).chain(stimulus.ends.iter().copied());
        let next = starts.take(stimulus.ends.len()).collect();
        StimulusWalk { stimulus, next }
    }

    /// Hands `apply` each event due at `t` (every executed step is at or
    /// before the next stimulus, so that is every run's events at `t`) and
    /// returns the time of the next event left, if any.
    fn take_due(&mut self, t: u64, mut apply: impl FnMut(u32, Value)) -> Option<u64> {
        let mut after: Option<u64> = None;
        for (next, &end) in self.next.iter_mut().zip(&self.stimulus.ends) {
            while let Some(&(time, pos, v)) = self.stimulus.events[..end].get(*next) {
                if time != t {
                    after = Some(after.map_or(time, |a| a.min(time)));
                    break;
                }
                apply(pos, v);
                *next += 1;
            }
        }
        after
    }
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
    let pos_of = |node: NodeId| layout.slots.pos(prog.slot_of(node) as usize);
    let node_at = |pos: u32| prog.node_of(layout.slots.item_at(pos));

    let mut watched = vec![false; layout.slots.positions()];
    for &n in &config.watch {
        watched[pos_of(n) as usize] = true;
    }
    let watched = &watched;

    // The segment's stimulus (generators are excluded from the instruction
    // stream): the generator schedules, then a resume snapshot's in-flight
    // events, node updates like any other, each a time-ordered run. Every
    // worker walks all of it ([`StimulusWalk`]): it needs the next
    // stimulus time and applies the events that land in its region (all
    // of a generator's land in one region, its first reader's).
    let mut stimulus = Stimulus::default();
    let generators = netlist.generators();
    for &gen in &generators {
        let e = netlist.element(gen);
        let slot = pos_of(e.outputs()[0]);
        let events = generator_events(e.kind(), bounds);
        if stimulus.events.is_empty() {
            // One allocation when the generators are alike (an array of
            // clocks), not a doubling series that fragments the heap;
            // pages reserved beyond what is pushed are never touched.
            let (_, most) = events.size_hint();
            stimulus
                .events
                .reserve(most.unwrap_or(0) * generators.len());
        }
        stimulus.events.extend(events.map(|(t, v)| (t, slot, v)));
        stimulus.end_run();
    }
    // In-flight events past this segment's cut skip straight to the next
    // snapshot.
    let carry = in_flight_events(seg.resume, cut, |t, node, v| {
        let slot = pos_of(NodeId::from_index(node));
        stimulus.events.push((t, slot, v));
        Ok(())
    })?;
    // Snapshots list these in time order, but one read from a file is
    // outside input; a stable sort keeps equal times in push order.
    let from = stimulus.ends.last().map_or(0, |&end| end);
    stimulus.events[from..].sort_by_key(|ev| ev.0);
    stimulus.end_run();
    let stimulus = &stimulus;

    let start_state = start_state(netlist, end, seg.resume);
    // Shared slot values: written single-writer during apply phases.
    let values = layout.slot_file(|slot| start_state.values[prog.node_of(slot).index()]);
    let values = &values;
    // Per-worker element state, in the worker's instruction order.
    let states: Vec<Vec<ElemState>> = (0..threads)
        .map(|p| {
            let state = |&i: &u32| start_state.elem_states[prog.elem(i as usize)].clone();
            plan.thread_insns(p).iter().map(state).collect()
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
            let region = layout.slots.region(p);
            // The element kinds of the worker's instructions, for the
            // opcodes without a native arm: nothing reads the netlist in
            // the step loop.
            let kinds: Vec<&ElementKind> = plan
                .thread_insns(p)
                .iter()
                .map(|&i| netlist.elements()[prog.elem(i as usize)].kind())
                .collect();
            let fault_at = config.fault.first_activation(p);
            let mut changes: Vec<(Time, NodeId, Value)> = Vec::new();
            let mut tr = tracer.worker(p);
            let shard = registry.worker(p);
            let mut tally = Tally::default();
            let mut pending: Vec<(u32, Value)> = Vec::new();
            let mut inputs_buf: Vec<Value> = Vec::with_capacity(8);
            let mut processed = 0u64;
            let mut due = StimulusWalk::new(stimulus);
            let mut t = first_step;
            // One clock read per phase boundary: it closes the busy or
            // idle span that ends there and opens the next.
            let mut mark = Instant::now();
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
                let next_stimulus = due.take_due(t, |slot, v| {
                    if !region.contains(&slot) {
                        return;
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
                });
                tr.end(EventKind::PhaseApply);
                tally.lap(Counter::BusyNs, &mut mark);
                barrier.wait_traced(&mut tr, 0);
                tally.lap(Counter::IdleNs, &mut mark);
                // All threads observe the same `stop` value here (set before
                // the barrier), so they break at the same step.
                if barrier.is_poisoned() || stop.load(Ordering::Acquire) {
                    break 'run;
                }

                // ---- evaluate phase -------------------------
                tr.begin(EventKind::PhaseEval, t as u32);
                let mut step_evals = 0u64;
                if t < end {
                    // SAFETY (every `read`): read-only phase.
                    let read = |pos: u32| {
                        let (g, j) = cell(pos);
                        unsafe { values.get(g) }.0[j]
                    };
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
                        // Heartbeat and fault plan are block-grained: the
                        // plan is consulted per instruction only in the
                        // block that reaches its first ordinal.
                        cont.beat(p);
                        let checked = processed + (hi - lo) as u64 > fault_at;
                        for (k, state) in (lo..hi).zip(&mut states[lo..hi]) {
                            if checked {
                                let n = processed + (k - lo) as u64;
                                if let FaultAction::Exit =
                                    config.fault.check(p, n, cont.cancel_flag())
                                {
                                    // Only reached after cancellation,
                                    // which always poisons the barrier,
                                    // so peers are not left waiting.
                                    break 'run;
                                }
                            }
                            let ins = code.inputs.row(k);
                            let outs = code.outputs.row(k);
                            let native = eval_native(code.ops[k], ins.len(), |j| read(ins[j]));
                            if tr.is_active() {
                                tr.instant(EventKind::Eval, plan.thread_insns(p)[k]);
                            }
                            let mut emit = |pos: u32, v: Value| {
                                if read(pos) != v {
                                    pending.push((pos, v));
                                    if tr.is_active() {
                                        tr.instant(
                                            EventKind::EventInsert,
                                            layout.slots.item_at(pos),
                                        );
                                    }
                                }
                            };
                            match native {
                                Some(v) => emit(outs[0], v),
                                None => {
                                    inputs_buf.clear();
                                    inputs_buf.extend(ins.iter().map(|&pos| read(pos)));
                                    let out = evaluate(kinds[k], &inputs_buf, state);
                                    for (port, v) in out.iter() {
                                        emit(outs[port], v);
                                    }
                                }
                            }
                        }
                        processed += (hi - lo) as u64;
                        step_evals += (hi - lo) as u64;
                    }
                }
                tr.counter(EventKind::QueueDepth, pending.len() as u32);
                tr.end(EventKind::PhaseEval);
                // Activations mirror evaluations (every
                // evaluated instruction counts as activated).
                tally.add(Counter::Evaluations, step_evals);
                tally.add(Counter::Activations, step_evals);
                shard.set_gauge(Gauge::QueueDepth, pending.len() as u64);
                tally.lap(Counter::BusyNs, &mut mark);
                // One flush per worker per step.
                tally.flush(&shard);
                if gating && !pending.is_empty() {
                    last_write.note(t);
                }
                barrier.wait_traced(&mut tr, 1);
                tally.lap(Counter::IdleNs, &mut mark);
                if barrier.is_poisoned() {
                    break 'run;
                }
                // A step that queued no write anywhere left no
                // dirty block either: nothing changes until the
                // next stimulus, so continue there.
                let mut next = t + 1;
                let stimulus = next_stimulus.unwrap_or(cut + 1);
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
        for (p, states) in worker_states.into_iter().enumerate() {
            for (&i, state) in plan.thread_insns(p).iter().zip(states) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The walk hands out the events a sort by `(time, push order)` would,
    /// step by step, and names the next stimulus time after each step.
    #[test]
    fn stimulus_walk_is_the_time_sort_it_replaced() {
        let mut rng = SmallRng::seed_from_u64(0x0571_a1c5);
        for _ in 0..50 {
            let mut stimulus = Stimulus::default();
            for _ in 0..rng.gen_range(0..6usize) {
                let mut t = 0;
                for _ in 0..rng.gen_range(0..20usize) {
                    t += rng.gen_range(1..4u64);
                    let (pos, v) = (rng.gen_range(0..8u32), Value::bit(rng.gen()));
                    stimulus.events.push((t, pos, v));
                }
                stimulus.end_run();
            }
            let mut sorted: Vec<_> = stimulus.events.iter().enumerate().collect();
            sorted.sort_by_key(|&(i, ev)| (ev.0, i));

            let mut walk = StimulusWalk::new(&stimulus);
            let mut got = Vec::new();
            let mut t = sorted.first().map_or(0, |(_, ev)| ev.0);
            loop {
                let next = walk.take_due(t, |pos, v| got.push((t, pos, v)));
                let want = sorted.iter().map(|(_, ev)| ev.0).find(|&time| time > t);
                assert_eq!(next, want, "next stimulus after {t}");
                match next {
                    Some(after) => t = after,
                    None => break,
                }
            }
            let want: Vec<_> = sorted.iter().map(|(_, &ev)| ev).collect();
            assert_eq!(got, want);
        }
    }
}
