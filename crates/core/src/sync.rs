//! The synchronous parallel event-driven engine (§2 of the paper).
//!
//! The classic two-phase event-driven algorithm run in parallel with a
//! barrier after each phase. Work is routed to its owner at insert time,
//! and only the owner does it:
//!
//! - **Owned state**: every element belongs to one worker, the placement
//!   of [`cone_cluster`] (the one the asynchronous engine uses), and every
//!   node to the owner of its driver (undriven nodes to worker 0). An
//!   element activation goes to the element owner's outbox; only the owner
//!   dedupes it, with a private step stamp, and evaluates it. Since a node
//!   belongs to its driver's owner, every output the evaluator schedules
//!   is for a node it owns: the update goes straight into the evaluator's
//!   own private time-keyed calendar, and only that worker applies it.
//!   Every outbox has a single writer and a single reader, so the paper's
//!   "splitting up the problem into n parts when adding to the list rather
//!   than when removing from the list" holds with a fixed split instead of
//!   its round-robin one.
//! - **No stealing**: the paper steals at the end of each phase for
//!   +15–20% utilization. Here a stolen element's outputs would belong to
//!   another worker, which costs a shared work list, an atomic cursor per
//!   item, an update outbox per worker pair and a third barrier per step;
//!   on two cores that costs more than it buys. The machine model
//!   (`parsim-machine`) keeps the paper's stealing for its ablation.
//!
//! A step is two phases behind two barriers: apply (apply the step's
//! updates, route fan-out activations) and evaluate (drain, dedupe and
//! evaluate activations, file outputs in the own calendar). After the
//! second barrier every worker reads the same per-worker slots — earliest
//! pending time, events, cancellation — and so derives the same next step
//! without a leader.
//!
//! Shared-state discipline: owner-only state is not shared ([`Owned`]).
//! Every `SharedSlice` slot has one writer for the whole run (a node value
//! by its driver's owner; an outbox by its row's worker), and the barriers
//! provide the cross-phase synchronization edges: node values are written
//! in phase A and read by any worker in phase B.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parsim_checkpoint::PendingEvent;
use parsim_logic::{ElemState, Time, Value};
use parsim_netlist::compile::Opcode;
use parsim_netlist::partition::cone_cluster;
use parsim_netlist::{Netlist, NodeId};
use parsim_queue::{CachePadded, SpinBarrier};
use parsim_telemetry::{Counter, Gauge, Tally};
use parsim_trace::{EventKind, Tracer};

use crate::checkpoint::{
    in_flight_events, new_run_ctx, start_state, stimulus_events, Route, SegmentOut, SegmentSpec,
};
use crate::compiled::LaneStimulus;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::exec::run_workers;
use crate::fault::FaultAction;
use crate::layout::OwnerLayout;
use crate::native::eval_element;
use crate::shared::SharedSlice;
use crate::waveform::SimResult;

/// Engine tag used in [`SimError`] values.
const ENGINE: &str = "sync-event-driven";

#[derive(Debug, Clone, Copy)]
struct Update {
    node: u32,
    value: Value,
}

/// A worker's private calendar: node updates it owns, keyed by time.
type Calendar = BTreeMap<u64, Vec<Update>>;

/// What one worker alone touches, handed in and back for the snapshot:
/// its calendar, and its elements' states and its nodes' last scheduled
/// values and times in its region's order of an [`OwnerLayout`].
struct Owned {
    calendar: Calendar,
    states: Vec<ElemState>,
    last_scheduled: Vec<Value>,
    last_sched_time: Vec<u64>,
}

/// What a worker publishes before a step's last barrier; every worker
/// reads all slots after it.
#[derive(Default)]
struct StepSlot {
    /// The earliest time in this worker's calendar (`u64::MAX`: none).
    next: AtomicU64,
    /// Node updates the worker applied this step.
    events: AtomicU64,
    /// Whether the worker saw the run cancelled.
    cancelled: AtomicBool,
}

/// The synchronous parallel event-driven simulator.
///
/// With `threads = 1` it degenerates to the sequential algorithm (plus
/// barrier no-ops) and produces waveforms identical to
/// [`EventDriven`](crate::EventDriven) — as it does for any thread count.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncEventDriven;

impl SyncEventDriven {
    /// Runs the simulation on `config.threads` worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WorkerPanicked`] if any worker panicked (the
    /// phase barrier is poisoned so peers unblock, and every thread is
    /// joined first), and [`SimError::Stalled`] /
    /// [`SimError::DeadlineExceeded`] if the configured watchdog cancelled
    /// the run.
    pub fn run(netlist: &Netlist, config: &SimConfig) -> Result<SimResult, SimError> {
        let ctx = new_run_ctx(config);
        let out = Self::run_segment(netlist, config, SegmentSpec::whole(config, ctx.clone()))?;
        Ok(out.into_result(netlist, config, &ctx))
    }

    /// Runs one segment — the whole run when `seg` is
    /// [`SegmentSpec::whole`]. Resume seeds the shared state slices from
    /// the snapshot and files its pending events into their owners'
    /// calendars before any worker spawns; capture routes events computed
    /// beyond `seg.cut` (but within the horizon) into per-worker overflow
    /// lists that become the returned snapshot's pending set. See
    /// [`EventDriven::run_segment`](crate::seq::EventDriven::run_segment)
    /// for the bookkeeping rules both engines share.
    pub(crate) fn run_segment(
        netlist: &Netlist,
        config: &SimConfig,
        seg: SegmentSpec<'_>,
    ) -> Result<SegmentOut, SimError> {
        let start = Instant::now();
        let bounds = seg.bounds(config);
        let cut = seg.cut;
        let n = config.threads;

        let mut watched = vec![false; netlist.num_nodes()];
        for &w in &config.watch {
            watched[w.index()] = true;
        }
        let watched = &watched;

        // Owners: an element's is its cone cluster's, a node's its driver's.
        let elem_owner = cone_cluster(netlist, n).assignment().to_vec();
        let node_owner: Vec<u32> = netlist
            .nodes()
            .iter()
            .map(|nd| nd.driver().map_or(0, |(d, _)| elem_owner[d.index()]))
            .collect();
        let elems = OwnerLayout::build(elem_owner.iter().map(|&w| w as usize), n, 1);
        let nodes = OwnerLayout::build(node_owner.iter().map(|&w| w as usize), n, 1);
        let (elem_owner, elems, nodes) = (&elem_owner, &elems, &nodes);
        // Each element's opcode, decoded once for the native gate arms.
        let ops: Vec<Option<Opcode>> = netlist
            .elements()
            .iter()
            .map(|e| Opcode::of(e.kind()))
            .collect();
        let ops = &ops;

        let start_state = start_state(netlist, bounds.horizon, seg.resume).into_owned();
        // Shared node values: written only by the node's owner, in phase A.
        let node_values: SharedSlice<Value> = SharedSlice::new(start_state.values);
        let values = &node_values;

        // n x n activation outboxes: slot i*n+j written by worker i in
        // phase A, drained by j in phase B. The initialization pass (first
        // segment only) activates every non-generator element at step 0,
        // in its owner's own slot.
        let mut first_acts: Vec<Vec<u32>> = vec![Vec::new(); n * n];
        if seg.resume.is_none() {
            for (id, e) in netlist.iter_elements() {
                if !e.kind().is_generator() {
                    let w = elem_owner[id.index()] as usize;
                    first_acts[w * n + w].push(id.index() as u32);
                }
            }
        }
        let act_out: SharedSlice<Vec<u32>> = SharedSlice::new(first_acts);
        let act_out = &act_out;
        let slots: Vec<CachePadded<StepSlot>> = (0..n)
            .map(|_| CachePadded::new(StepSlot::default()))
            .collect();
        let slots = &slots;

        // Seed the segment's stimulus, then the resume snapshot's in-flight
        // events, into their owners' calendars. The carry skips this
        // segment unexecuted.
        let mut calendars: Vec<Calendar> = vec![Calendar::new(); n];
        let mut file = |t: u64, node: usize, value: Value| {
            calendars[node_owner[node] as usize]
                .entry(t)
                .or_default()
                .push(Update {
                    node: node as u32,
                    value,
                });
            Ok(())
        };
        stimulus_events(netlist, &LaneStimulus::base(), bounds, &mut file)?;
        let mut carry = in_flight_events(seg.resume, cut, &mut file)?;
        // Each worker's owned state, in its regions' order.
        let owned = (calendars.into_iter())
            .zip(elems.split(start_state.elem_states))
            .zip(nodes.split(start_state.last_scheduled))
            .zip(nodes.split(start_state.last_sched_time))
            .map(|(((calendar, states), scheduled), sched_time)| Owned {
                calendar,
                states,
                last_scheduled: scheduled,
                last_sched_time: sched_time,
            })
            .collect();

        let registry = &seg.telemetry.registry;
        let barrier = &SpinBarrier::new(n);
        let tracer = Tracer::new(config.trace.as_ref());

        // A panicking worker poisons the barrier so peers blocked at a
        // phase boundary unblock; the monitor does the same on cancel.
        let outputs = run_workers(
            ENGINE,
            config,
            &seg.telemetry,
            Some(barrier),
            owned,
            |me, mut own, cont| {
                let calendar = &mut own.calendar;
                // An owned element's or node's index in `own`'s `Vec`s.
                let (elem_base, node_base) = (elems.region(me).start, nodes.region(me).start);
                let elem_ix = |e: usize| (elems.pos(e) - elem_base) as usize;
                let node_ix = |node: usize| (nodes.pos(node) - node_base) as usize;
                let mut changes: Vec<(Time, NodeId, Value)> = Vec::new();
                let mut overflow: Vec<PendingEvent> = Vec::new();
                let mut tr = tracer.worker(me);
                let shard = registry.worker(me);
                let mut tally = Tally::default();
                // Drained calendar buffers, reused for new time entries.
                let mut spare: Vec<Vec<Update>> = Vec::new();
                // The step each owned element was last evaluated in:
                // activation is exactly-once per step.
                let mut stamp = vec![u64::MAX; own.states.len()];
                let mut inputs_buf: Vec<Value> = Vec::with_capacity(8);
                let mut processed = 0u64;
                let mut t = 0u64;
                'run: loop {
                    // Every worker reaches this point once per step: the
                    // liveness signal the watchdog samples.
                    cont.beat(me);

                    // ---- phase A: apply step t, route fan-out
                    // activations to their owners ----
                    let busy = Instant::now();
                    tr.begin(EventKind::PhaseNodes, t as u32);
                    let mut my_events = 0u64;
                    if let Some(due) = calendar.first_entry().filter(|d| *d.key() == t) {
                        let mut due = due.remove();
                        for &Update { node, value } in &due {
                            let node = node as usize;
                            // SAFETY: only the node's owner writes its
                            // value, and only in phase A.
                            let slot = unsafe { values.get_mut(node) };
                            if *slot == value {
                                continue;
                            }
                            *slot = value;
                            my_events += 1;
                            if watched[node] {
                                changes.push((Time(t), NodeId::from_index(node), value));
                            }
                            for &(elem, _) in netlist.nodes()[node].fanout() {
                                let e = elem.index();
                                let owner = elem_owner[e] as usize;
                                // SAFETY: row `me` is written only by `me`,
                                // in phase A.
                                unsafe { act_out.get_mut(me * n + owner) }.push(e as u32);
                            }
                        }
                        due.clear();
                        spare.push(due);
                    }
                    tr.end(EventKind::PhaseNodes);
                    tally.add(Counter::EventsProcessed, my_events);
                    tally.add_elapsed(Counter::BusyNs, busy);
                    let wait = Instant::now();
                    barrier.wait_traced(&mut tr, 0);
                    tally.add_elapsed(Counter::IdleNs, wait);
                    if barrier.is_poisoned() {
                        break 'run;
                    }

                    // ---- phase B: drain, dedupe and evaluate owned
                    // activations, file outputs in the own calendar ----
                    let busy = Instant::now();
                    tr.begin(EventKind::PhaseElems, t as u32);
                    let mut my_evals = 0u64;
                    for i in 0..n {
                        // SAFETY: slot (i, me) is drained only by `me`, in
                        // phase B; its writer is past the barrier above.
                        for e in unsafe { act_out.get_mut(i * n + me) }.drain(..) {
                            let e = e as usize;
                            let k = elem_ix(e);
                            if stamp[k] == t {
                                continue;
                            }
                            if let FaultAction::Exit =
                                config.fault.check(me, processed, cont.cancel_flag())
                            {
                                // Only reached after cancellation, which
                                // always poisons the barrier, so peers are
                                // not left waiting.
                                break 'run;
                            }
                            processed += 1;
                            stamp[k] = t;
                            cont.beat(me);
                            let elem = &netlist.elements()[e];
                            let ins = elem.inputs();
                            // SAFETY: values quiescent in B.
                            let input = |i: usize| unsafe { *values.get(ins[i].index()) };
                            let state = &mut own.states[k];
                            let out = eval_element(
                                ops[e],
                                elem.kind(),
                                ins.len(),
                                input,
                                state,
                                &mut inputs_buf,
                            );
                            my_evals += 1;
                            tr.instant(EventKind::Eval, e as u32);
                            for port in 0..out.len() {
                                let val = out.get(port);
                                let out_node = elem.outputs()[port].index();
                                // The output's owner is the element's.
                                let o = node_ix(out_node);
                                let ls = &mut own.last_scheduled[o];
                                if *ls == val {
                                    continue;
                                }
                                let lt = &mut own.last_sched_time[o];
                                let delays = (elem.rise_delay(), elem.fall_delay());
                                let te = match bounds.route(ls, lt, val, t, delays) {
                                    Route::Keep(te) => te,
                                    Route::Capture(te) => {
                                        overflow.push(PendingEvent {
                                            time: te,
                                            node: out_node as u32,
                                            value: val,
                                        });
                                        continue;
                                    }
                                    Route::Drop => continue,
                                };
                                calendar
                                    .entry(te)
                                    .or_insert_with(|| match spare.pop() {
                                        Some(buf) => {
                                            tally.inc(Counter::MailboxRecycled);
                                            buf
                                        }
                                        None => {
                                            tally.inc(Counter::PoolMisses);
                                            tr.instant(EventKind::PoolMiss, me as u32);
                                            Vec::new()
                                        }
                                    })
                                    .push(Update {
                                        node: out_node as u32,
                                        value: val,
                                    });
                                tr.instant(EventKind::EventInsert, out_node as u32);
                            }
                        }
                    }
                    tr.end(EventKind::PhaseElems);
                    shard.set_gauge(Gauge::QueueDepth, my_evals);
                    tr.counter(EventKind::QueueDepth, my_evals as u32);
                    // Every evaluated element was activated once.
                    tally.add(Counter::Evaluations, my_evals);
                    tally.add(Counter::Activations, my_evals);
                    tally.add_elapsed(Counter::BusyNs, busy);
                    // One flush per worker per step, never per event.
                    tally.flush(&shard);
                    let mine = &slots[me];
                    let next = calendar.first_key_value().map_or(u64::MAX, |(&k, _)| k);
                    mine.next.store(next, Ordering::Relaxed);
                    mine.events.store(my_events, Ordering::Relaxed);
                    mine.cancelled.store(cont.cancelled(), Ordering::Relaxed);
                    let wait = Instant::now();
                    let leader = barrier.wait_traced(&mut tr, 1);
                    tally.add_elapsed(Counter::IdleNs, wait);
                    if barrier.is_poisoned() {
                        break 'run;
                    }
                    // ---- every worker derives the same next step ----
                    // The slots are next written in the next step's phase
                    // B, after a barrier every reader has passed by then.
                    let (mut next, mut events, mut cancelled) = (u64::MAX, 0, false);
                    for s in slots {
                        next = next.min(s.next.load(Ordering::Relaxed));
                        events += s.events.load(Ordering::Relaxed);
                        cancelled |= s.cancelled.load(Ordering::Relaxed);
                    }
                    if leader {
                        if events > 0 {
                            registry.driver().record_step_events(events);
                        }
                        registry.driver().inc(Counter::TimeSteps);
                        registry.driver().set_gauge(Gauge::SimTime, t);
                    }
                    if next == u64::MAX || next > cut || cancelled {
                        break 'run;
                    }
                    t = next;
                }
                // The last step's idle time and any early break.
                tally.flush(&shard);
                // Counters travel through the worker's telemetry shard.
                (changes, tr, overflow, own)
            },
            // The step the workers last agreed on (or, for a worker that
            // already published, the one after it).
            |d| {
                let next = slots.iter().map(|s| s.next.load(Ordering::Relaxed)).min();
                d.sim_time = next.map(Time);
            },
        )?;

        let mut changes = Vec::new();
        let mut worker_tracers = Vec::with_capacity(n);
        let mut owned = Vec::with_capacity(n);
        for (c, wt, of, own) in outputs {
            changes.extend(c);
            worker_tracers.push(wt);
            carry.extend(of);
            owned.push(own);
        }
        let wall = start.elapsed();
        let snapshot = bounds.capture.then(|| {
            bounds.snapshot(
                node_values.into_vec(),
                nodes.join(owned.iter().map(|o| &o.last_scheduled)),
                nodes.join(owned.iter().map(|o| &o.last_sched_time)),
                elems.join(owned.iter().map(|o| &o.states)),
                carry,
            )
        });
        Ok(SegmentOut {
            changes,
            wall,
            trace: tracer.finish(worker_tracers),
            snapshot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::assert_equivalent;
    use crate::seq::EventDriven;
    use parsim_logic::{Delay, ElementKind};
    use parsim_netlist::Builder;

    fn mixed_delay_circuit() -> (Netlist, Vec<NodeId>) {
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        b.element(
            "osc",
            ElementKind::Clock {
                half_period: 7,
                offset: 3,
            },
            Delay(1),
            &[],
            &[clk],
        )
        .unwrap();
        let a = b.node("a", 1);
        let c = b.node("c", 1);
        let d = b.node("d", 1);
        b.element("g1", ElementKind::Not, Delay(2), &[clk], &[a])
            .unwrap();
        b.element("g2", ElementKind::Not, Delay(3), &[a], &[c])
            .unwrap();
        b.element("g3", ElementKind::Xor, Delay(1), &[a, c], &[d])
            .unwrap();
        (b.finish().unwrap(), vec![clk, a, c, d])
    }

    #[test]
    fn matches_sequential_reference() {
        let (n, watch) = mixed_delay_circuit();
        let cfg = SimConfig::new(Time(100)).watch_all(watch);
        let seq = EventDriven::run(&n, &cfg).unwrap();
        for threads in [1, 2, 3, 5] {
            let par = SyncEventDriven::run(&n, &cfg.clone().threads(threads)).unwrap();
            assert_equivalent(&seq, &par, &format!("sync x{threads}"));
            assert_eq!(
                seq.metrics.events_processed, par.metrics.events_processed,
                "event counts must match at {threads} threads"
            );
        }
    }

    #[test]
    fn sequential_feedback_matches() {
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        let rst = b.node("rst", 1);
        let q0 = b.node("q0", 1);
        let q1 = b.node("q1", 1);
        let d0 = b.node("d0", 1);
        b.element(
            "osc",
            ElementKind::Clock {
                half_period: 5,
                offset: 5,
            },
            Delay(1),
            &[],
            &[clk],
        )
        .unwrap();
        b.element(
            "porst",
            ElementKind::Pulse { at: 0, width: 3 },
            Delay(1),
            &[],
            &[rst],
        )
        .unwrap();
        b.element(
            "ff0",
            ElementKind::DffR { width: 1 },
            Delay(1),
            &[clk, d0, rst],
            &[q0],
        )
        .unwrap();
        b.element(
            "ff1",
            ElementKind::DffR { width: 1 },
            Delay(1),
            &[clk, q0, rst],
            &[q1],
        )
        .unwrap();
        b.element("fb", ElementKind::Xnor, Delay(1), &[q0, q1], &[d0])
            .unwrap();
        let n = b.finish().unwrap();
        let cfg = SimConfig::new(Time(200)).watch(q0).watch(q1);
        let seq = EventDriven::run(&n, &cfg).unwrap();
        let par = SyncEventDriven::run(&n, &cfg.clone().threads(4)).unwrap();
        assert_equivalent(&seq, &par, "feedback");
        assert!(seq.waveform(q0).unwrap().num_changes() > 5);
    }

    /// The scheduling hot path must not allocate per activation: each
    /// worker reuses its drained calendar buffers, so misses (fresh
    /// allocations) are bounded by peak calendar occupancy, not by event
    /// count. The counter is per-run ([`Metrics::pool_misses`]) and lives
    /// in release builds too, so reuse is observable outside debug runs.
    #[test]
    fn update_buffers_are_recycled() {
        let (n, watch) = mixed_delay_circuit();
        let cfg = SimConfig::new(Time(5000)).watch_all(watch).threads(2);
        let r = SyncEventDriven::run(&n, &cfg).unwrap();
        let misses = r.metrics.pool_misses;
        // Thousands of events; misses only while the calendars warm up.
        assert!(r.metrics.events_processed > 1000, "circuit too quiet");
        assert!(misses > 0, "warm-up must allocate at least one buffer");
        assert!(
            misses < r.metrics.events_processed / 4,
            "pool misses ({misses}) scale with events ({}) — buffers not recycled",
            r.metrics.events_processed
        );
    }

    /// Only a node's owner applies its updates and only an element's owner
    /// evaluates it, so each worker's event count is exactly the oracle's
    /// changes on the nodes it owns, and its evaluation count one per
    /// owned non-generator element per step in which it was activated:
    /// step 0 and every step that changed one of its inputs.
    #[test]
    fn each_worker_applies_the_nodes_it_owns() {
        use parsim_circuits::{gate_multiplier, pipelined_cpu};
        use std::collections::BTreeSet;
        let m = gate_multiplier(8, &[(123, 231), (255, 1)], 160).unwrap();
        let cpu = pipelined_cpu(8, 48).unwrap();
        for (name, netlist, end) in [
            ("multiplier", &m.netlist, m.schedule_end()),
            ("cpu", &cpu.netlist, Time(400)),
        ] {
            let all: Vec<NodeId> = (0..netlist.num_nodes()).map(NodeId::from_index).collect();
            let cfg = SimConfig::new(end).watch_all(all.iter().copied());
            let oracle = EventDriven::run(netlist, &cfg).unwrap();
            let elem_owner = cone_cluster(netlist, 2);
            let mut owned = [0u64; 2];
            for &node in &all {
                let owner = netlist
                    .node(node)
                    .driver()
                    .map_or(0, |(d, _)| elem_owner.assignment()[d.index()] as usize);
                owned[owner] += oracle.waveform(node).unwrap().num_changes() as u64;
            }
            let mut evaluated = [0u64; 2];
            for (id, e) in netlist.iter_elements() {
                if e.kind().is_generator() {
                    continue;
                }
                let mut steps = BTreeSet::from([0u64]);
                for &inp in e.inputs() {
                    let times = oracle.waveform(inp).unwrap().times();
                    steps.extend(times.iter().map(|t| t.0));
                }
                evaluated[elem_owner.assignment()[id.index()] as usize] += steps.len() as u64;
            }
            assert_eq!(
                evaluated.iter().sum::<u64>(),
                oracle.metrics.evaluations,
                "{name}: activated steps must be the oracle's evaluations"
            );
            for run in 0..4 {
                let r = SyncEventDriven::run(netlist, &cfg.clone().threads(2)).unwrap();
                let events: Vec<u64> = r.metrics.per_thread.iter().map(|p| p.events).collect();
                assert_eq!(events, owned, "{name} run {run}");
                let evals: Vec<u64> = r.metrics.per_thread.iter().map(|p| p.evaluations).collect();
                assert_eq!(evals, evaluated, "{name} run {run}: evaluations");
            }
        }
    }

    #[test]
    fn utilization_metrics_present() {
        let (n, watch) = mixed_delay_circuit();
        let cfg = SimConfig::new(Time(50)).watch_all(watch).threads(2);
        let r = SyncEventDriven::run(&n, &cfg).unwrap();
        assert_eq!(r.metrics.per_thread.len(), 2);
        assert!(r.metrics.time_steps > 0);
    }
}
