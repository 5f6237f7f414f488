//! The uniprocessor event-driven reference engine.
//!
//! The classic two-phase algorithm the paper's §2 parallelizes:
//!
//! 1. update all scheduled nodes,
//! 2. evaluate all elements connected to the changed nodes,
//! 3. schedule all output nodes that change.
//!
//! This engine is the correctness oracle for the three parallel engines
//! and the baseline for the paper's uniprocessor speed comparisons (§5:
//! the asynchronous algorithm runs 1–3× faster than this on one
//! processor). It also records the events-per-time-step histogram behind
//! the paper's "less than 5 events available about 50% of the time"
//! observation.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use parsim_checkpoint::{EngineSnapshot, PendingEvent};
use parsim_logic::{Time, Value};
use parsim_netlist::compile::Opcode;
use parsim_netlist::{Netlist, NodeId};
use parsim_telemetry::{Counter, Gauge, Tally};
use parsim_trace::{EventKind, Tracer};

use crate::checkpoint::{
    check_resume, in_flight_events, new_run_ctx, start_state, stimulus_events, Route, SegmentOut,
    SegmentSpec,
};
use crate::compiled::LaneStimulus;
use crate::config::SimConfig;
use crate::error::{SimError, StallDiagnostic};
use crate::exec::{monitored, Containment};
use crate::native::eval_element;
use crate::waveform::SimResult;

/// Engine tag used in [`SimError`] values.
const ENGINE: &str = "event-driven";

/// How many processed events between deadline checks (the sequential
/// engine has no watchdog thread; it polls the clock inline).
const DEADLINE_CHECK_EVERY: u64 = 4096;

/// A sentinel "node" index used to force an otherwise-empty time-zero
/// step (the initialization pass).
const NOOP: usize = usize::MAX;

/// The sequential event-driven simulator.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Copy, Default)]
pub struct EventDriven;

impl EventDriven {
    /// Runs the simulation through `config.end_time` (inclusive).
    ///
    /// `config.threads` is ignored — this engine is sequential by
    /// definition. [`SimConfig::stall_timeout`](crate::SimConfig) and
    /// [`SimConfig::fault`](crate::SimConfig) are also ignored: with one
    /// thread there is nothing to contain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DeadlineExceeded`] if
    /// [`SimConfig::deadline`](crate::SimConfig) is set and elapses; the
    /// deadline is polled inline every few thousand processed events.
    pub fn run(netlist: &Netlist, config: &SimConfig) -> Result<SimResult, SimError> {
        Self::run_lane(netlist, config, &LaneStimulus::base())
    }

    /// Runs one stimulus lane through `config.end_time`: each override in
    /// `stimulus` replaces its node's generator schedule (or drives an
    /// undriven node), expanded exactly as [`CompiledMode::run_batch`]
    /// expands a lane's overrides. On a netlist whose delays are all 1 the
    /// result is byte-identical to that batch lane's.
    ///
    /// [`CompiledMode::run_batch`]: crate::CompiledMode::run_batch
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an override
    /// [`LaneStimulus::validate`] refuses, plus [`EventDriven::run`]'s.
    pub fn run_lane(
        netlist: &Netlist,
        config: &SimConfig,
        stimulus: &LaneStimulus,
    ) -> Result<SimResult, SimError> {
        stimulus
            .validate(netlist)
            .map_err(|reason| SimError::InvalidConfig { reason })?;
        let ctx = new_run_ctx(config);
        let seg = SegmentSpec::whole(config, ctx.clone());
        let out = Self::run_segment(netlist, config, seg, stimulus)?;
        Ok(out.into_result(netlist, config, &ctx))
    }

    /// One checkpoint segment of [`EventDriven::run_lane`], the one-lane
    /// counterpart of [`CompiledMode::run_batch_segment_with_program`]:
    /// simulates up to (and including) `cut`, from time zero or from
    /// `resume`, and returns the segment's waveforms (changes after the
    /// resume time only) with the snapshot to resume from.
    ///
    /// [`CompiledMode::run_batch_segment_with_program`]: crate::CompiledMode::run_batch_segment_with_program
    ///
    /// # Errors
    ///
    /// [`EventDriven::run_lane`]'s, plus [`SimError::InvalidConfig`] when
    /// the resume snapshot is not strictly before `cut` and
    /// [`SimError::Checkpoint`] when it does not fit the netlist or was
    /// captured for another `end_time`.
    pub fn run_lane_segment(
        netlist: &Netlist,
        config: &SimConfig,
        stimulus: &LaneStimulus,
        resume: Option<&EngineSnapshot>,
        cut: Time,
    ) -> Result<(SimResult, EngineSnapshot), SimError> {
        stimulus
            .validate(netlist)
            .map_err(|reason| SimError::InvalidConfig { reason })?;
        if let Some(snap) = resume {
            check_resume(snap, netlist, config.end_time.ticks(), cut.ticks())?;
        }
        let ctx = new_run_ctx(config);
        let seg = SegmentSpec {
            resume,
            cut: cut.ticks(),
            capture: true,
            telemetry: ctx.clone(),
        };
        let mut out = Self::run_segment(netlist, config, seg, stimulus)?;
        let snapshot = out.snapshot.take().expect("capture was requested");
        Ok((out.into_result(netlist, config, &ctx), snapshot))
    }

    /// Runs one segment of the simulation — the whole run when `seg` is
    /// [`SegmentSpec::whole`] — on `stimulus`, which the caller has
    /// validated. With a `resume` snapshot the engine
    /// warm-starts at the previous cut (no time-zero initialization
    /// pass; pending events are re-injected and generator schedules
    /// re-expanded past the cut). With `capture`, events computed beyond
    /// `seg.cut` but within the horizon are collected into a returned
    /// [`EngineSnapshot`] instead of living in the calendar — with the
    /// same last-scheduled bookkeeping an uninterrupted run would have
    /// performed, which is what makes resumed waveforms bit-identical.
    pub(crate) fn run_segment(
        netlist: &Netlist,
        config: &SimConfig,
        seg: SegmentSpec<'_>,
        stimulus: &LaneStimulus,
    ) -> Result<SegmentOut, SimError> {
        let start = Instant::now();
        // The deadline is a budget for the whole run, not for this segment.
        let check_deadline = |heartbeat: u64, t: u64| match config.deadline {
            Some(d) if Duration::from_nanos(seg.telemetry.registry.uptime_ns()) > d => {
                Err(SimError::DeadlineExceeded {
                    engine: ENGINE,
                    deadline: d,
                    diagnostic: Box::new(StallDiagnostic {
                        heartbeats: vec![heartbeat],
                        sim_time: Some(Time(t)),
                        ..StallDiagnostic::default()
                    }),
                })
            }
            _ => Ok(()),
        };
        let bounds = seg.bounds(config);
        let cut = seg.cut;
        let num_nodes = netlist.num_nodes();
        let num_elems = netlist.num_elements();

        // `last_sched_time` is the last time an event was scheduled per
        // node, enforcing the monotone-transport rule under asymmetric
        // rise/fall delays.
        let start_state = start_state(netlist, bounds.horizon, seg.resume).into_owned();
        let mut values = start_state.values;
        let mut last_scheduled = start_state.last_scheduled;
        let mut last_sched_time = start_state.last_sched_time;
        let mut states = start_state.elem_states;
        let mut watched = vec![false; num_nodes];
        for &n in &config.watch {
            watched[n.index()] = true;
        }

        // Pending node updates, keyed by time.
        let mut schedule: BTreeMap<u64, Vec<(usize, Value)>> = BTreeMap::new();
        if seg.resume.is_none() {
            // Force a time-zero step for the initialization pass (a
            // no-op sentinel; real updates may join the same bucket).
            schedule.entry(0).or_default().push((NOOP, Value::x(1)));
        }
        // Events past the cut: the carry, then the captured ones.
        let mut overflow = in_flight_events(seg.resume, cut, |t, node, v| {
            schedule.entry(t).or_default().push((node, v));
            Ok(())
        })?;
        // Generator pre-expansion is O(edges × generators) and runs before
        // the main loop, so it polls the deadline too — a huge end time
        // with many clocks must not push the first check past the budget.
        let mut expanded = 0u64;
        stimulus_events(netlist, stimulus, bounds, |t, node, v| {
            schedule.entry(t).or_default().push((node, v));
            expanded += 1;
            if expanded.is_multiple_of(DEADLINE_CHECK_EVERY) {
                check_deadline(0, 0)?;
            }
            Ok(())
        })?;

        // Initialization pass: every non-generator element is evaluated at
        // time zero (matches compiled mode's sweep and the asynchronous
        // engine's initial activation of all elements). A resumed segment
        // already initialized in its first segment.
        let mut stamp = vec![u64::MAX; num_elems];
        let init_activated: Vec<usize> = if seg.resume.is_some() {
            Vec::new()
        } else {
            netlist
                .iter_elements()
                .filter(|(_, e)| !e.kind().is_generator())
                .map(|(id, _)| id.index())
                .collect()
        };
        for &e in &init_activated {
            stamp[e] = 0;
        }

        let mut changes: Vec<(Time, NodeId, Value)> = Vec::new();
        // Each element's opcode, decoded once for the native gate arms.
        let ops: Vec<Option<Opcode>> = netlist
            .elements()
            .iter()
            .map(|e| Opcode::of(e.kind()))
            .collect();
        let mut inputs_buf: Vec<Value> = Vec::with_capacity(8);
        let mut next_deadline_check = DEADLINE_CHECK_EVERY;
        // This engine is a single logical worker: worker 0 owns the only
        // ring. Each simulated step is a TimeStep span; evaluations and
        // schedule inserts are instants within it.
        let tracer = Tracer::new(config.trace.as_ref());
        let mut tr = tracer.worker(0);
        // Telemetry: worker shard 0, published once per time step (the
        // sequential engine has no watchdog thread unless the sampler
        // needs one — deadlines stay inline polls either way).
        let shard = seg.telemetry.registry.worker(0);
        let mut tally = Tally::default();
        tally.add(Counter::Activations, init_activated.len() as u64);
        let containment = Containment::new(1);
        monitored(&containment, None, None, &seg.telemetry, None, |_| {
            while let Some((t, updates)) = schedule.pop_first() {
                if config.deadline.is_some() {
                    // The shard is current as of the previous step's flush.
                    let evaluations = shard.counter(Counter::Evaluations);
                    let work = shard.counter(Counter::EventsProcessed) + evaluations;
                    if work >= next_deadline_check {
                        next_deadline_check = work + DEADLINE_CHECK_EVERY;
                        check_deadline(evaluations, t)?;
                    }
                }
                if t > cut {
                    break;
                }
                tr.begin(EventKind::TimeStep, t as u32);
                let mut activated = if t == 0 {
                    init_activated.clone()
                } else {
                    Vec::new()
                };

                // Phase 1: update nodes, collect activated fan-out elements.
                let mut step_events = 0u64;
                for (node, v) in updates {
                    if node == NOOP || values[node] == v {
                        continue;
                    }
                    values[node] = v;
                    step_events += 1;
                    if watched[node] {
                        changes.push((Time(t), NodeId::from_index(node), v));
                    }
                    for &(elem, _) in netlist.nodes()[node].fanout() {
                        let e = elem.index();
                        if stamp[e] != t {
                            stamp[e] = t;
                            activated.push(e);
                            tally.inc(Counter::Activations);
                        }
                    }
                }
                if step_events > 0 {
                    tally.inc(Counter::TimeSteps);
                    shard.record_step_events(step_events);
                }
                tally.add(Counter::EventsProcessed, step_events);
                shard.set_gauge(Gauge::SimTime, t);
                shard.set_gauge(Gauge::QueueDepth, activated.len() as u64);
                tr.counter(EventKind::QueueDepth, activated.len() as u32);

                // Phase 2: evaluate activated elements, schedule changed
                // outputs.
                for e in activated {
                    let elem = &netlist.elements()[e];
                    let ins = elem.inputs();
                    let input = |k: usize| values[ins[k].index()];
                    let state = &mut states[e];
                    let out = eval_element(
                        ops[e],
                        elem.kind(),
                        ins.len(),
                        input,
                        state,
                        &mut inputs_buf,
                    );
                    tally.inc(Counter::Evaluations);
                    tr.instant(EventKind::Eval, e as u32);
                    for port in 0..out.len() {
                        let v = out.get(port);
                        let out_node = elem.outputs()[port].index();
                        if last_scheduled[out_node] == v {
                            continue;
                        }
                        match bounds.route(
                            &mut last_scheduled[out_node],
                            &mut last_sched_time[out_node],
                            v,
                            t,
                            (elem.rise_delay(), elem.fall_delay()),
                        ) {
                            Route::Keep(te) => {
                                schedule.entry(te).or_default().push((out_node, v));
                                tr.instant(EventKind::EventInsert, out_node as u32);
                            }
                            Route::Capture(te) => overflow.push(PendingEvent {
                                time: te,
                                node: out_node as u32,
                                value: v,
                            }),
                            Route::Drop => {}
                        }
                    }
                }
                // One flush per step keeps the shard current for mid-run
                // sampling without touching the per-event path.
                tally.flush(&shard);
                tr.end(EventKind::TimeStep);
            }
            tally.flush(&shard);
            Ok::<_, SimError>(())
        })?;

        let wall = start.elapsed();
        let snapshot = seg
            .capture
            .then(|| bounds.snapshot(values, last_scheduled, last_sched_time, states, overflow));
        Ok(SegmentOut {
            changes,
            wall,
            trace: tracer.finish([tr]),
            snapshot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::{Delay, ElementKind};
    use parsim_netlist::Builder;

    /// clk (period 10) -> inverter (delay 1).
    fn clocked_inverter() -> (Netlist, NodeId, NodeId) {
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        let out = b.node("out", 1);
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
        b.element("inv", ElementKind::Not, Delay(1), &[clk], &[out])
            .unwrap();
        (b.finish().unwrap(), clk, out)
    }

    #[test]
    fn inverter_follows_clock_with_delay() {
        let (n, clk, out) = clocked_inverter();
        let cfg = SimConfig::new(Time(20)).watch(clk).watch(out);
        let r = EventDriven::run(&n, &cfg).unwrap();
        assert_eq!(
            r.waveform(clk).unwrap().changes().collect::<Vec<_>>(),
            [
                (Time(0), Value::bit(false)),
                (Time(5), Value::bit(true)),
                (Time(10), Value::bit(false)),
                (Time(15), Value::bit(true)),
                (Time(20), Value::bit(false)),
            ]
        );
        assert_eq!(
            r.waveform(out).unwrap().changes().collect::<Vec<_>>(),
            [
                (Time(1), Value::bit(true)), // init pass: !0 at t=0 -> 1 at t=1
                (Time(6), Value::bit(false)),
                (Time(11), Value::bit(true)),
                (Time(16), Value::bit(false)),
            ]
        );
    }

    #[test]
    fn dff_divides_clock() {
        // DFF with q -> inverter -> d: toggles every rising edge.
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        let q = b.node("q", 1);
        let d = b.node("d", 1);
        b.element(
            "osc",
            ElementKind::Clock {
                half_period: 4,
                offset: 4,
            },
            Delay(1),
            &[],
            &[clk],
        )
        .unwrap();
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
        let cfg = SimConfig::new(Time(40)).watch(q);
        let r = EventDriven::run(&n, &cfg).unwrap();
        let w = r.waveform(q).unwrap();
        // q is X until the first edge captures a known d... but d = !X = X
        // until q is known — the classic X-lock. q stays X forever here
        // because the loop never resolves. Verify that is what happens.
        assert_eq!(w.num_changes(), 0);
    }

    #[test]
    fn dffr_reset_breaks_x_lock() {
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        let rst = b.node("rst", 1);
        let q = b.node("q", 1);
        let d = b.node("d", 1);
        b.element(
            "osc",
            ElementKind::Clock {
                half_period: 4,
                offset: 4,
            },
            Delay(1),
            &[],
            &[clk],
        )
        .unwrap();
        b.element(
            "porst",
            ElementKind::Pulse { at: 0, width: 2 },
            Delay(1),
            &[],
            &[rst],
        )
        .unwrap();
        b.element(
            "ff",
            ElementKind::DffR { width: 1 },
            Delay(1),
            &[clk, d, rst],
            &[q],
        )
        .unwrap();
        b.element("inv", ElementKind::Not, Delay(1), &[q], &[d])
            .unwrap();
        let n = b.finish().unwrap();
        let cfg = SimConfig::new(Time(40)).watch(q);
        let r = EventDriven::run(&n, &cfg).unwrap();
        let w = r.waveform(q).unwrap();
        // Reset drives q to 0; afterwards it toggles on each rising edge
        // (t = 4, 12, 20, ... plus the flop delay).
        assert!(w.num_changes() >= 4, "changes: {:?}", w.changes());
        assert_eq!(w.value_at(Time(2)), Value::bit(false));
        assert_eq!(w.value_at(Time(6)), Value::bit(true));
        assert_eq!(w.value_at(Time(14)), Value::bit(false));
    }

    #[test]
    fn ring_oscillator_oscillates() {
        // 3-inverter ring with a reset-ish const kick is impossible; a pure
        // ring stays X. Use a NAND ring with an enable pulse to start it.
        let mut b = Builder::new();
        let en = b.node("en", 1);
        let n1 = b.node("n1", 1);
        let n2 = b.node("n2", 1);
        let n3 = b.node("n3", 1);
        // en is 0 until t=5, which forces n1=1 through the NAND's
        // controlling input and breaks the X-lock; the ring then
        // oscillates once en rises.
        b.element(
            "enp",
            ElementKind::Pulse { at: 5, width: 1000 },
            Delay(1),
            &[],
            &[en],
        )
        .unwrap();
        // NAND(en, n3) -> n1 -> inv -> n2 -> inv -> n3.
        b.element("g1", ElementKind::Nand, Delay(1), &[en, n3], &[n1])
            .unwrap();
        b.element("g2", ElementKind::Not, Delay(1), &[n1], &[n2])
            .unwrap();
        b.element("g3", ElementKind::Not, Delay(1), &[n2], &[n3])
            .unwrap();
        let n = b.finish().unwrap();
        let cfg = SimConfig::new(Time(60)).watch(n1);
        let r = EventDriven::run(&n, &cfg).unwrap();
        // With en=1, n1 = !n3 through three stages: period-6 oscillation.
        let w = r.waveform(n1).unwrap();
        assert!(
            w.num_changes() > 10,
            "ring should oscillate: {:?}",
            w.changes()
        );
    }

    #[test]
    fn metrics_are_populated() {
        let (n, _, out) = clocked_inverter();
        let cfg = SimConfig::new(Time(100)).watch(out);
        let r = EventDriven::run(&n, &cfg).unwrap();
        assert!(r.metrics.events_processed > 20);
        assert!(r.metrics.evaluations >= 20);
        assert!(r.metrics.time_steps > 20);
        assert!(r.metrics.events_per_step.steps() == r.metrics.time_steps);
        assert!((r.metrics.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_events_after_end_time() {
        let (n, clk, out) = clocked_inverter();
        let cfg = SimConfig::new(Time(7)).watch(clk).watch(out);
        let r = EventDriven::run(&n, &cfg).unwrap();
        for w in r.waveforms() {
            assert!(w.times().iter().all(|&t| t <= Time(7)));
        }
    }

    #[test]
    fn floating_inputs_stay_x_but_constants_propagate() {
        let mut b = Builder::new();
        let float = b.node("float", 1);
        let zero = b.node("zero", 1);
        let y = b.node("y", 1);
        let z = b.node("z", 1);
        b.element(
            "c0",
            ElementKind::Const {
                value: Value::bit(false),
            },
            Delay(1),
            &[],
            &[zero],
        )
        .unwrap();
        // AND(float, 0) = 0 even with a floating input.
        b.element("g", ElementKind::And, Delay(1), &[float, zero], &[y])
            .unwrap();
        // NOT(float) = X forever.
        b.element("g2", ElementKind::Not, Delay(1), &[float], &[z])
            .unwrap();
        let n = b.finish().unwrap();
        let cfg = SimConfig::new(Time(10)).watch(y).watch(z);
        let r = EventDriven::run(&n, &cfg).unwrap();
        assert_eq!(r.final_value(y), Some(Value::bit(false)));
        assert_eq!(r.final_value(z), Some(Value::x(1)));
    }
}
