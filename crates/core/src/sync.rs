//! The synchronous parallel event-driven engine (§2 of the paper).
//!
//! The classic two-phase event-driven algorithm run in parallel with a
//! barrier between phases, incorporating both of the paper's key fixes:
//!
//! - **Distributed queues**: "the queues were distributed with each
//!   processor having one queue for each of the other processors ... thus
//!   splitting up the problem into n parts when adding to the list rather
//!   than when removing from the list." Scheduled node updates and element
//!   activations are scattered round-robin at *insert* time into per-pair
//!   mailboxes with a single writer and a single reader each.
//! - **End-of-phase work stealing**: "once a processor has finished all
//!   the tasks assigned to it, it looks at the queues on the other
//!   processors for more work. This introduces a little contention ...
//!   but only at the very end of each phase" (reported +15–20%
//!   utilization). Each processor's per-phase work list is consumed
//!   through an atomic cursor that idle processors advance on behalf of
//!   the owner.
//!
//! Shared-state discipline: every `SharedSlice` slot is written by at most
//! one thread per phase (updates are unique per `(node, time)`; element
//! activation is made exclusive by a compare-and-swap step stamp), and
//! barriers provide the cross-phase synchronization edges.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use parsim_checkpoint::PendingEvent;
use parsim_logic::{evaluate, ElemState, Time, Value};
use parsim_netlist::{Netlist, NodeId};
use parsim_queue::{MailPool, SpinBarrier};
use parsim_telemetry::{Counter, Gauge, Tally};
use parsim_trace::{EventKind, Tracer, WorkerTracer};

use crate::checkpoint::{
    in_flight_events, new_run_ctx, start_state, stimulus_events, Route, SegmentOut, SegmentSpec,
};
use crate::compiled::LaneStimulus;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::exec::run_workers;
use crate::fault::FaultAction;
use crate::shared::SharedSlice;
use crate::waveform::SimResult;

/// Engine tag used in [`SimError`] values.
const ENGINE: &str = "sync-event-driven";

/// Per-worker results: recorded waveform changes, the worker's trace
/// ring, and the events the worker computed beyond the segment cut
/// (checkpoint capture mode). Counters travel through the worker's
/// telemetry shard, not here.
type WorkerOutput = (Vec<(Time, NodeId, Value)>, WorkerTracer, Vec<PendingEvent>);

#[derive(Debug, Clone, Copy)]
struct Update {
    node: u32,
    value: Value,
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
    /// the snapshot and re-injects its pending events into the mailboxes
    /// before any worker spawns; capture routes events computed beyond
    /// `seg.cut` (but within the horizon) into per-worker overflow lists
    /// that become the returned snapshot's pending set. See
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

        let start_state = start_state(netlist, bounds.horizon, seg.resume).into_owned();
        // Shared node values: one writer per (node, time) in phase A.
        let values: SharedSlice<Value> = SharedSlice::new(start_state.values);
        let values = &values;
        // Last value scheduled per node: touched only while evaluating the
        // node's (unique) driver, which is exclusive per step.
        let last_scheduled: SharedSlice<Value> = SharedSlice::new(start_state.last_scheduled);
        let last_scheduled = &last_scheduled;
        // Last scheduled event time per node (same single-writer
        // discipline as `last_scheduled`).
        let last_sched_time: SharedSlice<u64> = SharedSlice::new(start_state.last_sched_time);
        let last_sched_time = &last_sched_time;
        let states: SharedSlice<ElemState> = SharedSlice::new(start_state.elem_states);
        let states = &states;

        // Per-element activation stamp: the step at which the element was
        // last scheduled. CAS makes scheduling exactly-once per step.
        let stamps: Vec<AtomicU64> = (0..netlist.num_elements())
            .map(|_| AtomicU64::new(u64::MAX))
            .collect();
        let stamps = &stamps;

        // n x n mailboxes: slot i*n+j written by thread i, drained by j.
        let node_mail: SharedSlice<BTreeMap<u64, Vec<Update>>> =
            SharedSlice::from_fn(n * n, |_| BTreeMap::new());
        // Recycled update buffers, one pool per mailbox slot
        // ([`parsim_queue::MailPool`]). The drain side (phase A fill, reader
        // thread) puts emptied vectors back; the insert side (phase B,
        // writer thread) takes them for new time entries. The two sides
        // run in barrier-separated phases, so each slot has one accessor
        // at a time — the same discipline as the mailbox it shadows. Net
        // effect: the scheduling hot path performs zero steady-state
        // allocations; `Counter::PoolMisses` counts the fresh ones, bounded
        // by the peak number of live `(mailbox, time)` entries, not by the
        // event count (`tests::update_buffers_are_recycled`).
        let free_mail: MailPool<Update> = MailPool::new(n);
        let elem_mail: SharedSlice<Vec<u32>> = SharedSlice::from_fn(n * n, |_| Vec::new());
        // Per-thread phase work lists + steal cursors.
        let phase_nodes: SharedSlice<Vec<Update>> = SharedSlice::from_fn(n, |_| Vec::new());
        let phase_elems: SharedSlice<Vec<u32>> = SharedSlice::from_fn(n, |_| Vec::new());
        let node_cursor: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let elem_cursor: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let (node_mail, elem_mail) = (&node_mail, &elem_mail);
        let free_mail = &free_mail;
        let (phase_nodes, phase_elems) = (&phase_nodes, &phase_elems);
        let (node_cursor, elem_cursor) = (&node_cursor, &elem_cursor);

        // Seed the segment's stimulus, then the resume snapshot's in-flight
        // events, round-robin into thread 0's mailbox row (safe: threads
        // have not started); each of the two starts at column 0. The carry
        // skips this segment unexecuted.
        let file = |rr: &mut usize, t: u64, node: usize, value: Value| {
            // SAFETY: pre-spawn exclusive access.
            unsafe { node_mail.get_mut(*rr) }
                .entry(t)
                .or_default()
                .push(Update { node: node as u32, value });
            *rr = (*rr + 1) % n;
            Ok(())
        };
        let mut rr = 0usize;
        stimulus_events(netlist, &LaneStimulus::base(), bounds, |t, node, v| {
            file(&mut rr, t, node, v)
        })?;
        let mut rr = 0usize;
        let mut carry = in_flight_events(seg.resume, cut, |t, node, v| file(&mut rr, t, node, v))?;
        if seg.resume.is_none() {
            // Initialization pass: activate every non-generator element at
            // step 0 (first segment only).
            let mut rr = 0usize;
            for (id, e) in netlist.iter_elements() {
                if e.kind().is_generator() {
                    continue;
                }
                stamps[id.index()].store(0, Ordering::Relaxed);
                // SAFETY: pre-spawn exclusive access.
                unsafe { elem_mail.get_mut(rr) }.push(id.index() as u32);
                rr = (rr + 1) % n;
            }
        }

        let next_time = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        // Events applied in the current step, summed across workers in
        // phase A and taken (reset) by the step leader between barriers 3
        // and 4 for the events-per-step histogram.
        let step_events = AtomicU64::new(0);
        let (next_time, done) = (&next_time, &done);
        let step_events = &step_events;
        let registry = &seg.telemetry.registry;
        let barrier = &SpinBarrier::new(n);
        let tracer = Tracer::new(config.trace.as_ref());

        // A panicking worker poisons the barrier so peers blocked at a
        // phase boundary unblock; the monitor does the same on cancel.
        let outputs: Vec<WorkerOutput> = run_workers(
            ENGINE,
            config,
            &seg.telemetry,
            Some(barrier),
            vec![(); n],
            |me, (), cont| {
                let mut changes: Vec<(Time, NodeId, Value)> = Vec::new();
                let mut overflow: Vec<PendingEvent> = Vec::new();
                let mut tr = tracer.worker(me);
                let shard = registry.worker(me);
                let mut tally = Tally::default();
                let mut rr_elem = (me + 1) % n;
                let mut rr_node = (me + 1) % n;
                let mut inputs_buf: Vec<Value> = Vec::with_capacity(8);
                let mut processed = 0u64;
                'run: loop {
                    // Every worker reaches this point once per step: the
                    // liveness signal the watchdog samples.
                    cont.beat(me);
                    let t = next_time.load(Ordering::Acquire);

                    // ---- phase A fill: drain updates for time t --
                    let busy = Instant::now();
                    {
                        // SAFETY: each thread touches only its own
                        // work list; barrier-separated from steals.
                        let work = unsafe { phase_nodes.get_mut(me) };
                        work.clear();
                        for i in 0..n {
                            // SAFETY: slot (i, me) is drained only by `me`;
                            // writers are quiescent (previous barrier).
                            let mail = unsafe { node_mail.get_mut(i * n + me) };
                            if let Some(mut us) = mail.remove(&t) {
                                // `append` drains `us` but keeps its capacity:
                                // recycle it for the writer of this slot.
                                work.append(&mut us);
                                // SAFETY: pool slot (i, me) is put only here
                                // (phase A, by `me`); the taking writer runs in
                                // barrier-separated phase B.
                                unsafe { free_mail.put(i, me, us) };
                            }
                        }
                        node_cursor[me].store(0, Ordering::Release);
                    }
                    tally.add_elapsed(Counter::BusyNs, busy);
                    let wait = Instant::now();
                    barrier.wait_traced(&mut tr, 0);
                    tally.add_elapsed(Counter::IdleNs, wait);
                    if barrier.is_poisoned() {
                        break 'run;
                    }

                    // ---- phase A process: apply updates, activate
                    // fan-out (with stealing) ----------------------
                    let busy = Instant::now();
                    tr.begin(EventKind::PhaseNodes, t as u32);
                    let mut my_events = 0u64;
                    for v in 0..n {
                        let victim = (me + v) % n;
                        // SAFETY: immutable during the processing
                        // phase (writers filled before barrier).
                        let work = unsafe { phase_nodes.get(victim) };
                        loop {
                            let idx = node_cursor[victim].fetch_add(1, Ordering::AcqRel);
                            if idx >= work.len() {
                                break;
                            }
                            let Update { node, value } = work[idx];
                            let node = node as usize;
                            // SAFETY: updates are unique per
                            // (node, time): exclusive writer.
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
                                // Exactly-once activation per step.
                                let mut cur = stamps[e].load(Ordering::Relaxed);
                                loop {
                                    if cur == t {
                                        break;
                                    }
                                    match stamps[e].compare_exchange_weak(
                                        cur,
                                        t,
                                        Ordering::AcqRel,
                                        Ordering::Relaxed,
                                    ) {
                                        Ok(_) => {
                                            // SAFETY: row `me` is written only
                                            // by this thread this phase.
                                            unsafe { elem_mail.get_mut(me * n + rr_elem) }
                                                .push(e as u32);
                                            rr_elem = (rr_elem + 1) % n;
                                            break;
                                        }
                                        Err(now) => cur = now,
                                    }
                                }
                            }
                        }
                    }
                    tr.end(EventKind::PhaseNodes);
                    step_events.fetch_add(my_events, Ordering::Relaxed);
                    tally.add(Counter::EventsProcessed, my_events);
                    tally.add_elapsed(Counter::BusyNs, busy);
                    let wait = Instant::now();
                    barrier.wait_traced(&mut tr, 1);
                    tally.add_elapsed(Counter::IdleNs, wait);
                    if barrier.is_poisoned() {
                        break 'run;
                    }

                    // ---- phase B fill: drain activated elements --
                    let busy = Instant::now();
                    {
                        // SAFETY: own work list.
                        let work = unsafe { phase_elems.get_mut(me) };
                        work.clear();
                        for i in 0..n {
                            // SAFETY: slot (i, me) drained only by
                            // `me`; writers quiescent.
                            let mail = unsafe { elem_mail.get_mut(i * n + me) };
                            work.append(mail);
                        }
                        elem_cursor[me].store(0, Ordering::Release);
                        shard.set_gauge(Gauge::QueueDepth, work.len() as u64);
                        tr.counter(EventKind::QueueDepth, work.len() as u32);
                    }
                    tally.add_elapsed(Counter::BusyNs, busy);
                    let wait = Instant::now();
                    barrier.wait_traced(&mut tr, 2);
                    tally.add_elapsed(Counter::IdleNs, wait);
                    if barrier.is_poisoned() {
                        break 'run;
                    }

                    // ---- phase B process: evaluate + schedule ----
                    let busy = Instant::now();
                    tr.begin(EventKind::PhaseElems, t as u32);
                    let mut my_evals = 0u64;
                    for v in 0..n {
                        let victim = (me + v) % n;
                        // SAFETY: immutable during processing.
                        let work = unsafe { phase_elems.get(victim) };
                        loop {
                            let idx = elem_cursor[victim].fetch_add(1, Ordering::AcqRel);
                            if idx >= work.len() {
                                break;
                            }
                            let e = work[idx] as usize;
                            if v != 0 {
                                // Work taken from another worker's
                                // list: end-of-phase stealing.
                                tr.instant(EventKind::Steal, e as u32);
                            }
                            if let FaultAction::Exit =
                                config.fault.check(me, processed, cont.cancel_flag())
                            {
                                // Only reached after cancellation,
                                // which always poisons the barrier,
                                // so peers are not left waiting.
                                break 'run;
                            }
                            processed += 1;
                            cont.beat(me);
                            let elem = &netlist.elements()[e];
                            inputs_buf.clear();
                            for &inp in elem.inputs() {
                                // SAFETY: values quiescent in B.
                                inputs_buf.push(unsafe { *values.get(inp.index()) });
                            }
                            // SAFETY: element exclusive (stamp CAS).
                            let state = unsafe { states.get_mut(e) };
                            let out = evaluate(elem.kind(), &inputs_buf, state);
                            my_evals += 1;
                            tr.instant(EventKind::Eval, e as u32);
                            for (port, val) in out.iter() {
                                let out_node = elem.outputs()[port].index();
                                // SAFETY: only the driver's
                                // evaluator touches this slot.
                                let ls = unsafe { last_scheduled.get_mut(out_node) };
                                if *ls == val {
                                    continue;
                                }
                                // SAFETY: same single-writer slot.
                                let lt = unsafe { last_sched_time.get_mut(out_node) };
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
                                // SAFETY: row `me` written only by this thread
                                // this phase (mailbox and its buffer pool alike).
                                unsafe { node_mail.get_mut(me * n + rr_node) }
                                    .entry(te)
                                    .or_insert_with(|| {
                                        // SAFETY: slot (me, rr_node) is taken
                                        // only by `me` in this phase.
                                        match unsafe { free_mail.take(me, rr_node) } {
                                            Some(buf) => {
                                                tally.inc(Counter::MailboxRecycled);
                                                buf
                                            }
                                            None => {
                                                tally.inc(Counter::PoolMisses);
                                                tr.instant(EventKind::PoolMiss, rr_node as u32);
                                                Vec::new()
                                            }
                                        }
                                    })
                                    .push(Update {
                                        node: out_node as u32,
                                        value: val,
                                    });
                                tr.instant(EventKind::EventInsert, out_node as u32);
                                rr_node = (rr_node + 1) % n;
                            }
                        }
                    }
                    tr.end(EventKind::PhaseElems);
                    // Every evaluated element was activated once.
                    tally.add(Counter::Evaluations, my_evals);
                    tally.add(Counter::Activations, my_evals);
                    tally.add_elapsed(Counter::BusyNs, busy);
                    // One flush per worker per step, never per event.
                    tally.flush(&shard);
                    let wait = Instant::now();
                    let leader = barrier.wait_traced(&mut tr, 3);
                    // ---- reduce: find the next active time -------
                    if leader {
                        // Leader-exclusive (barrier-ordered):
                        // record this step's global event count.
                        let events = step_events.swap(0, Ordering::Relaxed);
                        if events > 0 {
                            registry.driver().record_step_events(events);
                        }
                        registry.driver().inc(Counter::TimeSteps);
                        registry.driver().set_gauge(Gauge::SimTime, t);
                        let mut min_t = u64::MAX;
                        for slot in 0..n * n {
                            // SAFETY: all writers are at the barrier below.
                            if let Some((&k, _)) = unsafe { node_mail.get(slot) }.first_key_value()
                            {
                                min_t = min_t.min(k);
                            }
                        }
                        // Cooperative cancellation folds into the existing
                        // `done` mechanism: only the leader samples the flag,
                        // so workers never diverge at a barrier.
                        if min_t == u64::MAX || min_t > cut || cont.cancelled() {
                            done.store(true, Ordering::Release);
                        } else {
                            next_time.store(min_t, Ordering::Release);
                        }
                    }
                    barrier.wait_traced(&mut tr, 4);
                    tally.add_elapsed(Counter::IdleNs, wait);
                    if barrier.is_poisoned() || done.load(Ordering::Acquire) {
                        break 'run;
                    }
                }
                // The last step's idle time and any early break.
                tally.flush(&shard);
                (changes, tr, overflow)
            },
            |d| d.sim_time = Some(Time(next_time.load(Ordering::Acquire))),
        )?;

        let mut changes = Vec::new();
        let mut worker_tracers = Vec::with_capacity(n);
        for (c, wt, of) in outputs {
            changes.extend(c);
            worker_tracers.push(wt);
            carry.extend(of);
        }
        let wall = start.elapsed();
        let snapshot = bounds.capture.then(|| {
            let num_nodes = netlist.num_nodes();
            // SAFETY: all workers are joined; single-threaded access with
            // the joins as the synchronization edge.
            unsafe {
                bounds.snapshot(
                    values.slice(0..num_nodes).to_vec(),
                    last_scheduled.slice(0..num_nodes).to_vec(),
                    last_sched_time.slice(0..num_nodes).to_vec(),
                    states.slice(0..netlist.num_elements()).to_vec(),
                    carry,
                )
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
                seq.metrics.events_processed,
                par.metrics.events_processed,
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

    /// The scheduling hot path must not allocate per activation: drained
    /// update buffers are recycled, so pool misses (fresh allocations) are
    /// bounded by peak calendar occupancy, not by event count. The counter
    /// is per-run ([`Metrics::pool_misses`]) and lives in release builds
    /// too, so pool effectiveness is observable outside debug runs.
    #[test]
    fn update_buffers_are_recycled() {
        let (n, watch) = mixed_delay_circuit();
        let cfg = SimConfig::new(Time(5000)).watch_all(watch).threads(2);
        let r = SyncEventDriven::run(&n, &cfg).unwrap();
        let misses = r.metrics.pool_misses;
        // Thousands of events; misses only during pool warm-up.
        assert!(r.metrics.events_processed > 1000, "circuit too quiet");
        assert!(misses > 0, "warm-up must allocate at least one buffer");
        assert!(
            misses < r.metrics.events_processed / 4,
            "pool misses ({misses}) scale with events ({}) — buffers not recycled",
            r.metrics.events_processed
        );
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
