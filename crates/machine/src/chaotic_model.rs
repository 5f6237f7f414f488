//! Modeled execution of the asynchronous algorithm (§4) on the virtual
//! multiprocessor.
//!
//! A discrete-event simulation of the lock-free engine: virtual
//! processors pull element activations from their FIFO columns of the
//! n×n grid, each activation replays every input event its valid times
//! allow (batching), appends output events, extends validities, and
//! stimulates fan-out at most once. The model executes activations in
//! global start-time order, so available parallelism, pipelining on
//! feedback chains, and batching depth all emerge from the circuit itself.
//!
//! One deliberate approximation: an activation sees the effects of every
//! activation that *started* earlier in virtual time (a real machine would
//! only expose effects of *completed* ones). This slightly deepens event
//! batching but never changes functional results — the algorithm is
//! conservative either way.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parsim_logic::{
    evaluate, expand_generator, scan_quiet, transition_delay, Bit, Delay, Edge, ElemState,
    ElementKind, Lookahead, Time, Value,
};
use parsim_netlist::Netlist;

use crate::cost::{memory_pressure, MachineConfig};
use crate::report::ModelReport;
use crate::sync_model::{element_costs, scaled};

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const DIRTY: u8 = 3;

struct NodeSim {
    events: Vec<(u64, Value)>,
    valid: u64,
}

struct ElemSim {
    kind: ElementKind,
    rise: Delay,
    fall: Delay,
    /// min(rise, fall): the validity increment.
    delay: u64,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    cursors: Vec<usize>,
    cur_vals: Vec<Value>,
    state: ElemState,
    last_out: Vec<Value>,
    last_te: Vec<u64>,
    lookahead: Lookahead,
    occurrence: u64,
}

/// Models the asynchronous simulator on the given virtual machine.
///
/// # Examples
///
/// ```
/// use parsim_circuits::inverter_array;
/// use parsim_logic::Time;
/// use parsim_machine::{model_async, MachineConfig};
///
/// let arr = inverter_array(8, 8, 1)?;
/// let r = model_async(&arr.netlist, Time(100), &MachineConfig::multimax(8));
/// // Deep batching: far fewer activations than evaluations.
/// assert!(r.activations * 4 < r.evaluations);
/// assert!(r.utilization() > 0.5);
/// # Ok::<(), parsim_netlist::BuildError>(())
/// ```
pub fn model_async(netlist: &Netlist, end: Time, machine: &MachineConfig) -> ModelReport {
    let end = end.ticks();
    let p = machine.procs;
    let cost = &machine.cost;
    let costs = element_costs(netlist, cost);
    let penalties = machine.penalties(memory_pressure(netlist.num_elements()));

    // ---- circuit state ----------------------------------------------------
    let mut nodes: Vec<NodeSim> = netlist
        .nodes()
        .iter()
        .map(|n| NodeSim {
            events: vec![(0, Value::x(n.width()))],
            valid: 0,
        })
        .collect();
    let mut total_events = 0u64;
    for (i, nd) in netlist.nodes().iter().enumerate() {
        match nd.driver() {
            Some((drv, _)) if netlist.element(drv).kind().is_generator() => {
                let kind = netlist.element(drv).kind();
                nodes[i].events.clear();
                for (t, v) in expand_generator(kind, Time(end)) {
                    nodes[i].events.push((t.ticks(), v));
                    total_events += 1;
                }
                nodes[i].valid = end;
            }
            Some(_) => {}
            None => nodes[i].valid = end,
        }
    }
    let mut elems: Vec<ElemSim> = netlist
        .iter_elements()
        .map(|(_, e)| {
            let scalar = e.inputs().iter().all(|&i| netlist.node(i).width() == 1)
                && e.outputs().iter().all(|&o| netlist.node(o).width() == 1);
            ElemSim {
                kind: e.kind().clone(),
                rise: e.rise_delay(),
                fall: e.fall_delay(),
                delay: e.min_delay().ticks(),
                inputs: e.inputs().iter().map(|&n| n.index() as u32).collect(),
                outputs: e.outputs().iter().map(|&n| n.index() as u32).collect(),
                cursors: vec![0; e.inputs().len()],
                cur_vals: e
                    .inputs()
                    .iter()
                    .map(|&n| Value::x(netlist.node(n).width()))
                    .collect(),
                state: ElemState::init(e.kind()),
                last_out: e
                    .outputs()
                    .iter()
                    .map(|&o| Value::x(netlist.node(o).width()))
                    .collect(),
                last_te: vec![0; e.outputs().len()],
                lookahead: if machine.lookahead {
                    e.kind().lookahead(scalar)
                } else {
                    Lookahead::None
                },
                occurrence: 0,
            }
        })
        .collect();

    // ---- scheduler state ---------------------------------------------------
    // Each processor's column, ordered by arrival (push) time in virtual
    // time; a sequence number keeps same-instant pushes FIFO. Real pushes
    // happen at run completion instants, so arrival order — not DES
    // processing order — is the faithful FIFO order.
    let mut queues: Vec<BinaryHeap<Reverse<(u64, u64, u32)>>> =
        (0..p).map(|_| BinaryHeap::new()).collect();
    let mut seq = 0u64;
    let mut act = vec![IDLE; netlist.num_elements()];
    let mut rr = 0usize;
    for (id, e) in netlist.iter_elements() {
        if e.kind().is_generator() {
            continue;
        }
        act[id.index()] = QUEUED;
        // Hash-scatter: avoids structural alignment between circuit
        // generation order and processor assignment.
        let target = ((id.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32)
            % p as u64;
        queues[target as usize].push(Reverse((0, seq, id.index() as u32)));
        seq += 1;
    }

    let mut proc_free = vec![0u64; p];
    let mut busy = vec![0u64; p];
    let mut evaluations = 0u64;
    let mut activations = 0u64;
    let mut finish_max = 0u64;
    let mut deadlock_recoveries = 0u64;

    // Memory homes: on the modeled machine an element's output events
    // live in the memory of its hash-scatter home processor. A processor
    // evaluating a foreign element writes its events into remote memory.
    let home: Vec<usize> = (0..elems.len())
        .map(|e| (((e as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % p as u64) as usize)
        .collect();
    let mut local_events = 0u64;
    let mut remote_events = 0u64;

    loop {
        // Pick the execution with the globally earliest start time.
        let mut best: Option<(usize, u64)> = None;
        for (q, queue) in queues.iter().enumerate() {
            if let Some(&Reverse((avail, _, _))) = queue.peek() {
                let start = proc_free[q].max(avail);
                if best.is_none_or(|(_, s)| start < s) {
                    best = Some((q, start));
                }
            }
        }
        let Some((q, start)) = best else {
            if machine.incremental_validity {
                break;
            }
            // Chandy–Misra deadlock handling: "the simulation is run
            // asynchronously until no more elements have events on all
            // their inputs (i.e. deadlock). To break the deadlock, the
            // clock-values of the elements are updated and the simulation
            // is restarted" (§1).
            // One clock-update pass per recovery round: each element's
            // output clocks advance by one delay past its input minimum —
            // just enough to unlock some work, so feedback circuits
            // deadlock again and again (the cost the paper eliminates).
            let mut any_change = false;
            for elem in &elems {
                if elem.inputs.is_empty() {
                    continue;
                }
                let mv = elem
                    .inputs
                    .iter()
                    .map(|&n| nodes[n as usize].valid)
                    .min()
                    .expect("nonempty inputs");
                let nv = mv.saturating_add(elem.delay).min(end);
                for &out in &elem.outputs {
                    let out = out as usize;
                    if nodes[out].valid < nv {
                        nodes[out].valid = nv;
                        any_change = true;
                    }
                }
            }
            if !any_change {
                break; // true completion: recovery unlocked nothing
            }
            deadlock_recoveries += 1;
            // A global stall: every processor waits for the detection and
            // the clock update (charged per element, serially).
            let recovery_cost =
                cost.barrier_base + elems.len() as u64 * cost.update_cost;
            let resume = proc_free.iter().copied().max().unwrap_or(0) + recovery_cost;
            for pf in proc_free.iter_mut() {
                *pf = resume;
            }
            // Restart: re-activate every element with processable events.
            for (ei, elem) in elems.iter().enumerate() {
                if act[ei] != IDLE || elem.kind.is_generator() {
                    continue;
                }
                let has_work = elem.inputs.iter().enumerate().any(|(i, &n)| {
                    let node = &nodes[n as usize];
                    node.events
                        .get(elem.cursors[i])
                        .is_some_and(|&(t, _)| t <= node.valid)
                });
                if has_work {
                    act[ei] = QUEUED;
                    queues[rr].push(Reverse((resume, seq, ei as u32)));
                    seq += 1;
                    rr = (rr + 1) % p;
                }
            }
            continue;
        };
        let Reverse((_, _, e)) = queues[q].pop().expect("nonempty queue");
        let e = e as usize;
        act[e] = RUNNING;
        activations += 1;

        // ---- execute the activation (the §4 element procedure) -----------
        let mut cycles = cost.queue_op + cost.eval_overhead;
        let mut touched = false;
        let mut extended = false;
        let min_valid = elems[e]
            .inputs
            .iter()
            .map(|&n| nodes[n as usize].valid)
            .min()
            .unwrap_or(end);

        loop {
            // Earliest replayable event time across inputs.
            let mut t_next = u64::MAX;
            for (i, &n) in elems[e].inputs.iter().enumerate() {
                let node = &nodes[n as usize];
                if let Some(&(t, _)) = node.events.get(elems[e].cursors[i]) {
                    if t <= min_valid && t < t_next {
                        t_next = t;
                    }
                }
            }
            if t_next == u64::MAX {
                break;
            }
            for i in 0..elems[e].inputs.len() {
                let n = elems[e].inputs[i] as usize;
                while let Some(&(t, v)) = nodes[n].events.get(elems[e].cursors[i]) {
                    if t > t_next {
                        break;
                    }
                    elems[e].cursors[i] += 1;
                    elems[e].cur_vals[i] = v;
                }
            }
            let elem = &mut elems[e];
            let out = evaluate(&elem.kind, &elem.cur_vals, &mut elem.state);
            elem.occurrence += 1;
            evaluations += 1;
            cycles += scaled(costs[e], cost.eval_noise, e as u64, elem.occurrence);
            // Mirror the engine's pipelining: validity advances and
            // fan-out is stimulated while the run is still producing.
            let known_through = (t_next + elem.delay).min(end);
            let (rise, fall) = (elem.rise, elem.fall);
            let ports: Vec<(usize, Value)> = out.iter().collect();
            for (port, v) in ports {
                let out_node = elems[e].outputs[port] as usize;
                let changed = elems[e].last_out[port] != v;
                if changed {
                    let td =
                        transition_delay(&elems[e].last_out[port], &v, rise, fall);
                    let te =
                        (t_next + td.ticks()).max(elems[e].last_te[port] + 1);
                    if te <= end {
                        // Kept events only (mirrors the engine).
                        elems[e].last_out[port] = v;
                        elems[e].last_te[port] = te;
                        nodes[out_node].events.push((te, v));
                        if !machine.incremental_validity && nodes[out_node].valid < te {
                            // Chandy–Misra mode: knowledge travels only on
                            // event messages (timestamp = te).
                            nodes[out_node].valid = te;
                            extended = true;
                        }
                        total_events += 1;
                        cycles += cost.update_cost;
                        if q == home[e] {
                            local_events += 1;
                            cycles += cost.local_mem_cost;
                        } else {
                            remote_events += 1;
                            cycles += cost.remote_mem_cost;
                        }
                        touched = true;
                    }
                }
                if machine.incremental_validity
                    && nodes[out_node].valid < known_through {
                        nodes[out_node].valid = known_through;
                        extended = true;
                    }
                if changed {
                    let pushed_at =
                        start + ((cycles as f64) * penalties[q]).ceil() as u64;
                    for &(consumer, _) in netlist.nodes()[out_node].fanout() {
                        let c = consumer.index();
                        match act[c] {
                            IDLE => {
                                act[c] = QUEUED;
                                let avail = pushed_at
                                    + machine.topology.latency(q, rr);
                                queues[rr].push(Reverse((avail, seq, c as u32)));
                                seq += 1;
                                rr = (rr + 1) % p;
                                cycles += cost.queue_op;
                            }
                            RUNNING => act[c] = DIRTY,
                            _ => {}
                        }
                    }
                }
            }
        }

        // ---- lookahead (controlling value / register triggers) ------------
        let quiet = |elem: &ElemSim, i: usize, edge: Edge| {
            let node = &nodes[elem.inputs[i] as usize];
            let unconsumed = node.events[elem.cursors[i]..].iter().copied();
            scan_quiet(node.valid, elem.cur_vals[i], unconsumed, edge)
        };
        let mut effective_valid = min_valid;
        match elems[e].lookahead {
            Lookahead::None => {}
            Lookahead::Controlling(ctrl) => loop {
                let mut pin_end = 0u64;
                let mut pinned = false;
                for i in 0..elems[e].inputs.len() {
                    if bit_of(&elems[e].cur_vals[i]) != Some(ctrl) {
                        continue;
                    }
                    pin_end = pin_end.max(quiet(&elems[e], i, Edge::Any));
                    pinned = true;
                }
                if !pinned || pin_end <= effective_valid {
                    break;
                }
                effective_valid = pin_end;
                let mut consumed = false;
                for i in 0..elems[e].inputs.len() {
                    let n = elems[e].inputs[i] as usize;
                    while let Some(&(t, v)) = nodes[n].events.get(elems[e].cursors[i]) {
                        if t > pin_end {
                            break;
                        }
                        elems[e].cursors[i] += 1;
                        elems[e].cur_vals[i] = v;
                        consumed = true;
                    }
                }
                if !consumed {
                    break;
                }
            },
            Lookahead::Triggers(rule) => {
                let elem = &elems[e];
                let armed = rule.while_level.is_none_or(|level| {
                    rule.ports.iter().all(|&(p, _)| bit_of(&elem.cur_vals[p]) == Some(level))
                });
                if armed {
                    let through = rule.ports.iter().map(|&(p, edge)| quiet(elem, p, edge)).min();
                    effective_valid = effective_valid.max(through.unwrap_or(min_valid));
                }
            }
        }

        // ---- validity extension (the paper's incremental clock values;
        // absent in the Chandy–Misra ablation) -------------------------------
        if machine.incremental_validity {
            let out_valid = effective_valid.saturating_add(elems[e].delay).min(end);
            for k in 0..elems[e].outputs.len() {
                let out = elems[e].outputs[k] as usize;
                if nodes[out].valid < out_valid {
                    nodes[out].valid = out_valid;
                    extended = true;
                }
            }
        }

        let dur = (((cycles) as f64) * penalties[q]).ceil() as u64;
        let finish = start + dur;
        busy[q] += dur;
        proc_free[q] = finish;
        finish_max = finish_max.max(finish);

        // ---- stimulate fan-out at most once -------------------------------
        if touched || extended {
            let outputs = elems[e].outputs.clone();
            for &out in &outputs {
                for &(consumer, _) in netlist.nodes()[out as usize].fanout() {
                    let c = consumer.index();
                    match act[c] {
                        IDLE => {
                            act[c] = QUEUED;
                            let avail = finish + machine.topology.latency(q, rr);
                            queues[rr].push(Reverse((avail, seq, c as u32)));
                            seq += 1;
                            rr = (rr + 1) % p;
                        }
                        RUNNING => act[c] = DIRTY,
                        _ => {}
                    }
                }
            }
        }
        if act[e] == DIRTY {
            act[e] = QUEUED;
            let avail = finish + machine.topology.latency(q, rr);
            queues[rr].push(Reverse((avail, seq, e as u32)));
            seq += 1;
            rr = (rr + 1) % p;
        } else {
            act[e] = IDLE;
        }
    }

    ModelReport {
        procs: p,
        virtual_time: finish_max,
        busy,
        events: total_events,
        local_events,
        remote_events,
        evaluations,
        activations,
        deadlock_recoveries,
    }
}

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
    use crate::sync_model::{model_seq, model_sync};
    use parsim_circuits::{functional_multiplier, inverter_array};

    #[test]
    fn uniprocessor_async_beats_event_driven_by_one_to_three_x() {
        // §5: "the uniprocessor version of the asynchronous algorithm
        // ranges between 1 to 3 times faster than the event-driven
        // algorithm."
        let arr = inverter_array(16, 16, 1).unwrap();
        let seq = model_seq(&arr.netlist, Time(150), &MachineConfig::multimax(1).cost);
        let asy = model_async(&arr.netlist, Time(150), &MachineConfig::multimax(1));
        let ratio = seq.virtual_time as f64 / asy.virtual_time as f64;
        assert!(
            (1.0..=3.5).contains(&ratio),
            "uniprocessor async/event-driven ratio {ratio:.2}"
        );
    }

    #[test]
    fn batching_is_deep_on_pipeline_circuits() {
        let arr = inverter_array(8, 8, 1).unwrap();
        let r = model_async(&arr.netlist, Time(200), &MachineConfig::multimax(1));
        // Events per activation much greater than 1 (the whole point).
        let per_act = r.events as f64 / r.activations as f64;
        assert!(per_act > 3.0, "batching {per_act:.2}");
    }

    #[test]
    fn async_utilization_beats_sync_at_high_proc_counts() {
        // Fig. 5's core claim: at 16 processors the asynchronous algorithm
        // utilizes processors 10-20+ points better than the event-driven
        // one on the inverter array (toggled at a realistic rate, where
        // the event-driven algorithm starves).
        let arr = inverter_array(32, 16, 4).unwrap();
        let m16 = MachineConfig::multimax(16);
        let asy = model_async(&arr.netlist, Time(150), &m16);
        let sync = model_sync(&arr.netlist, Time(150), &m16);
        assert!(
            asy.utilization() > sync.utilization() + 0.10,
            "async {:.2} should beat sync {:.2} by 10+ points",
            asy.utilization(),
            sync.utilization()
        );
    }

    #[test]
    fn functional_multiplier_pipelines() {
        // Small circuit: the asynchronous algorithm still extracts some
        // concurrency by pipelining; speedups are modest but real.
        let m = functional_multiplier(&[(9, 11), (100, 200), (4_000, 3)], 64).unwrap();
        let uni = model_async(&m.netlist, Time(192), &MachineConfig::multimax(1));
        let s4 = model_async(&m.netlist, Time(192), &MachineConfig::multimax(4));
        let speedup = s4.speedup(&uni);
        assert!(speedup > 1.2, "pipelined speed-up {speedup:.2}");
    }

    #[test]
    fn remote_memory_cost_slows_unpartitioned_runs() {
        let arr = inverter_array(16, 16, 2).unwrap();
        let base = MachineConfig::multimax(8);
        let r = model_async(&arr.netlist, Time(150), &base);
        // Uniprocessor: every write is local. (Home
        // attribution covers run-time pushes only; generator traces are
        // pre-expanded at build time, so the sum is below `events`.)
        let uni = model_async(&arr.netlist, Time(150), &MachineConfig::multimax(1));
        assert_eq!(uni.remote_events, 0);
        assert!(uni.local_events > 0);
        assert!(uni.local_events <= uni.events);
        // Multiprocessor with dynamic scheduling: most elements run away
        // from their home processor at some point.
        assert!(r.local_events + r.remote_events <= r.events);
        assert!(r.remote_events > 0, "8 procs must produce remote writes");
        // Charging remote writes stretches virtual time; the default
        // (0-cost) report is unchanged, so existing figures hold.
        let mut dear = base.clone();
        dear.cost.remote_mem_cost = 50;
        let slow = model_async(&arr.netlist, Time(150), &dear);
        // (Counts can shift slightly: charged cycles move finish times,
        // which feed back into the dynamic schedule.)
        assert!(slow.remote_events > 0);
        assert!(
            slow.virtual_time > r.virtual_time,
            "remote memory cost must show up in virtual time: {} vs {}",
            slow.virtual_time,
            r.virtual_time
        );
    }

    #[test]
    fn deterministic() {
        let arr = inverter_array(8, 8, 2).unwrap();
        let a = model_async(&arr.netlist, Time(100), &MachineConfig::multimax(5));
        let b = model_async(&arr.netlist, Time(100), &MachineConfig::multimax(5));
        assert_eq!(a.virtual_time, b.virtual_time);
        assert_eq!(a.busy, b.busy);
    }
}
