//! Modeled execution of the synchronous event-driven algorithm (and its
//! uniprocessor baseline).
//!
//! The model replays the circuit's real execution trace (see
//! [`trace_execution`](crate::trace_execution)) under the machine's cost
//! model: per step, node updates and element evaluations are scattered
//! round-robin across the virtual processors, the paper's §2 split that
//! Figure 1 is about, idle processors steal from the back of the longest
//! remaining queue (the threaded engine neither scatters nor steals: it
//! routes work to owners), the phases end with barriers, and (optionally)
//! every queue operation serializes through a central lock — reproducing
//! the §2 strawman that capped speed-up at ~2.

use std::collections::VecDeque;

use parsim_logic::Time;
use parsim_netlist::Netlist;

use crate::cost::{memory_pressure, noise, CostModel, MachineConfig};
use crate::report::ModelReport;
use crate::trace::trace_execution;

/// Models the *uniprocessor* event-driven simulator (the paper's
/// normalization baseline): no barriers, no queue scatter — just the
/// sequential two-phase loop under the same per-operation costs.
pub fn model_seq(netlist: &Netlist, end: Time, cost: &CostModel) -> ModelReport {
    let trace = trace_execution(netlist, end);
    let costs = element_costs(netlist, cost);
    let mut occurrence = vec![0u64; netlist.num_elements()];
    let mut t = 0u64;
    for step in &trace.steps {
        t += step.updates.len() as u64 * (cost.update_cost + cost.queue_op);
        for &e in &step.evals {
            let e = e as usize;
            occurrence[e] += 1;
            t += cost.queue_op
                + cost.eval_overhead
                + scaled(costs[e], cost.eval_noise, e as u64, occurrence[e]);
        }
    }
    ModelReport {
        procs: 1,
        virtual_time: t,
        busy: vec![t],
        events: trace.total_events,
        local_events: 0,
        remote_events: 0,
        evaluations: trace.total_evals,
        activations: trace.total_evals,
        deadlock_recoveries: 0,
    }
}

/// Models the parallel synchronous event-driven simulator on the given
/// virtual machine.
///
/// # Examples
///
/// ```
/// use parsim_circuits::inverter_array;
/// use parsim_logic::Time;
/// use parsim_machine::{model_sync, MachineConfig};
///
/// let arr = inverter_array(8, 8, 1)?;
/// let r = model_sync(&arr.netlist, Time(80), &MachineConfig::multimax(4));
/// assert_eq!(r.procs, 4);
/// assert!(r.virtual_time > 0);
/// # Ok::<(), parsim_netlist::BuildError>(())
/// ```
pub fn model_sync(netlist: &Netlist, end: Time, machine: &MachineConfig) -> ModelReport {
    let trace = trace_execution(netlist, end);
    let cost = &machine.cost;
    let costs = element_costs(netlist, cost);
    let penalties = machine.penalties(memory_pressure(netlist.num_elements()));
    let p = machine.procs;
    let barrier = cost.barrier_base
        + cost.barrier_per_proc * p as u64
        + machine.topology.barrier_extra(p);
    // On a message-passing interconnect, every scattered item pays the
    // mean network latency on top of the queue operation.
    let mean_latency = if p > 1 {
        let total: u64 = (0..p)
            .flat_map(|a| (0..p).map(move |b| (a, b)))
            .map(|(a, b)| machine.topology.latency(a, b))
            .sum();
        total / (p as u64 * p as u64)
    } else {
        0
    };

    let mut occurrence = vec![0u64; netlist.num_elements()];
    let mut busy = vec![0u64; p];
    let mut t = 0u64;
    let mut update_costs: Vec<u64> = Vec::new();
    let mut eval_costs: Vec<u64> = Vec::new();
    for step in &trace.steps {
        // Update phase: apply node changes (each was dequeued from a
        // distributed queue) and push the resulting activations.
        update_costs.clear();
        update_costs.extend(
            step.updates
                .iter()
                .map(|_| cost.update_cost + cost.queue_op + mean_latency),
        );
        // Activation pushes are charged with the evaluation items (one
        // enqueue + one dequeue per activation).
        eval_costs.clear();
        eval_costs.extend(step.evals.iter().map(|&e| {
            let e = e as usize;
            occurrence[e] += 1;
            2 * cost.queue_op
                + mean_latency
                + cost.eval_overhead
                + scaled(costs[e], cost.eval_noise, e as u64, occurrence[e])
        }));

        // Without stealing, work is placed by *static ownership* (a block
        // partition — the paper's "static load-balancing" baseline);
        // otherwise it is scattered round-robin at insert time.
        let owners_updates: Option<Vec<usize>> = (!machine.work_stealing).then(|| {
            step.updates
                .iter()
                .map(|&n| block_owner(n as usize, netlist.num_nodes(), p))
                .collect()
        });
        let owners_evals: Option<Vec<usize>> = (!machine.work_stealing).then(|| {
            step.evals
                .iter()
                .map(|&e| block_owner(e as usize, netlist.num_elements(), p))
                .collect()
        });
        for (phase, owners) in [
            (&update_costs, owners_updates.as_deref()),
            (&eval_costs, owners_evals.as_deref()),
        ] {
            let (span, phase_busy) = schedule_phase_owned(phase, owners, machine, &penalties);
            t += span + barrier;
            for (b, pb) in busy.iter_mut().zip(&phase_busy) {
                *b += pb;
            }
        }
    }
    if p > 1 {
        t = apply_os_interrupts(t, machine);
    }
    ModelReport {
        procs: p,
        virtual_time: t,
        busy,
        events: trace.total_events,
        local_events: 0,
        remote_events: 0,
        evaluations: trace.total_evals,
        activations: trace.total_evals,
        deadlock_recoveries: 0,
    }
}

/// Greedy scheduling of one phase's work items over the virtual
/// processors.
///
/// Items are dealt round-robin into per-processor queues (the paper's
/// insert-time scatter). Each processor consumes its own queue; with work
/// stealing enabled, a processor whose queue is empty steals from the back
/// of the longest remaining queue at `steal_cost` extra. With a central
/// queue, every item first passes through a serially-owned lock.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn schedule_phase(
    items: &[u64],
    machine: &MachineConfig,
    penalties: &[f64],
) -> (u64, Vec<u64>) {
    schedule_phase_owned(items, None, machine, penalties)
}

/// [`schedule_phase`] with optional per-item static ownership (used by the
/// no-stealing baseline).
pub(crate) fn schedule_phase_owned(
    items: &[u64],
    owners: Option<&[usize]>,
    machine: &MachineConfig,
    penalties: &[f64],
) -> (u64, Vec<u64>) {
    let p = machine.procs;
    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); p];
    for (i, &c) in items.iter().enumerate() {
        let target = owners.map_or(i % p, |o| o[i]);
        queues[target].push_back(c);
    }
    let mut t = vec![0u64; p];
    let mut queue_free = 0u64; // the central lock's next free time
    loop {
        // Earliest-available processor next (approximates real time
        // order).
        let me = (0..p).min_by_key(|&q| t[q]).expect("procs > 0");
        let (work, steal) = match queues[me].pop_front() {
            Some(w) => (w, 0),
            None => {
                let victim = (0..p)
                    .filter(|&v| !queues[v].is_empty())
                    .max_by_key(|&v| queues[v].len());
                match (victim, machine.work_stealing) {
                    (Some(v), true) => (
                        queues[v].pop_back().expect("nonempty victim"),
                        machine.cost.steal_cost,
                    ),
                    _ => {
                        // This processor is done; park it at the max so
                        // the argmin moves on. If all queues are empty we
                        // are finished.
                        if queues.iter().all(VecDeque::is_empty) {
                            break;
                        }
                        // No stealing: skip this processor permanently by
                        // advancing it past every possible finish time.
                        let remaining: u64 =
                            queues.iter().flat_map(|q| q.iter()).sum::<u64>();
                        let parked = t[me];
                        t[me] = parked + remaining + 1;
                        continue;
                    }
                }
            }
        };
        let mut start = t[me];
        if !machine.distributed_queues {
            // Central queue: serialize the dequeue through the lock.
            start = start.max(queue_free);
            queue_free = start + machine.cost.central_queue_op;
            start = queue_free;
        }
        let dur = (((work + steal) as f64) * penalties[me]).ceil() as u64;
        let finish = start + dur;
        t[me] = finish;
    }
    // Undo parking before reporting busy times.
    let mut busy = t.clone();
    if !machine.work_stealing {
        // Parked processors carried a sentinel; recompute busy as the sum
        // of their own executed work. Simplest: recompute by re-dealing.
        let mut own = vec![0u64; p];
        for (i, &c) in items.iter().enumerate() {
            let me = owners.map_or(i % p, |o| o[i]);
            own[me] += ((c as f64) * penalties[me]).ceil() as u64;
        }
        busy = own;
    }
    let span = busy.iter().copied().max().unwrap_or(0).max(
        if machine.work_stealing {
            *t.iter().max().unwrap_or(&0)
        } else {
            0
        },
    );
    (span, busy)
}

/// The block partition used as the static-ownership baseline.
pub(crate) fn block_owner(index: usize, total: usize, procs: usize) -> usize {
    let per = total.div_ceil(procs).max(1);
    (index / per).min(procs - 1)
}

pub(crate) fn element_costs(netlist: &Netlist, cost: &CostModel) -> Vec<u64> {
    netlist
        .elements()
        .iter()
        .map(|e| e.kind().eval_cost() * cost.event_scale)
        .collect()
}

pub(crate) fn scaled(base: u64, amp: f64, elem: u64, occ: u64) -> u64 {
    ((base as f64) * noise(amp, elem, occ)).ceil() as u64
}

pub(crate) fn apply_os_interrupts(t: u64, machine: &MachineConfig) -> u64 {
    match machine.os_interrupts {
        Some(os) if os.period > 0 => t + (t / os.period) * os.duration,
        _ => t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_circuits::inverter_array;

    fn machine(procs: usize) -> MachineConfig {
        MachineConfig::multimax(procs)
    }

    #[test]
    fn phase_scheduling_balances_with_stealing() {
        let m = machine(4);
        let pen = vec![1.0; 4];
        // One heavy item + many light: stealing should approach ideal.
        let mut items = vec![10u64; 40];
        items[0] = 50;
        let (span, busy) = schedule_phase(&items, &m, &pen);
        let total: u64 = busy.iter().sum();
        assert!(span >= total / 4);
        assert!(span < total / 2, "span {span} vs total {total}");
    }

    #[test]
    fn stealing_beats_static_on_imbalanced_rr_deal() {
        // Items dealt round-robin where one processor's share is heavy.
        let items: Vec<u64> = (0..40).map(|i| if i % 4 == 0 { 40 } else { 4 }).collect();
        let mut with = machine(4);
        with.work_stealing = true;
        let mut without = machine(4);
        without.work_stealing = false;
        let pen = vec![1.0; 4];
        let (span_with, _) = schedule_phase(&items, &with, &pen);
        let (span_without, _) = schedule_phase(&items, &without, &pen);
        assert!(
            span_with < span_without,
            "stealing {span_with} should beat static {span_without}"
        );
    }

    #[test]
    fn central_queue_serializes() {
        let items = vec![4u64; 64];
        let mut central = machine(8);
        central.distributed_queues = false;
        let distributed = machine(8);
        let pen = vec![1.0; 8];
        let (span_c, _) = schedule_phase(&items, &central, &pen);
        let (span_d, _) = schedule_phase(&items, &distributed, &pen);
        assert!(
            span_c > 2 * span_d,
            "central {span_c} should be far worse than distributed {span_d}"
        );
    }

    #[test]
    fn sync_model_speedup_grows_then_saturates() {
        let arr = inverter_array(16, 8, 1).unwrap();
        let uni = model_sync(&arr.netlist, Time(100), &machine(1));
        let s4 = model_sync(&arr.netlist, Time(100), &machine(4)).speedup(&uni);
        let s8 = model_sync(&arr.netlist, Time(100), &machine(8)).speedup(&uni);
        assert!(s4 > 2.0, "s4 = {s4:.2}");
        assert!(s8 > s4, "s8 {s8:.2} should exceed s4 {s4:.2}");
        assert!(s8 < 8.0, "sublinear: {s8:.2}");
    }

    #[test]
    fn cache_sharing_knee_past_eight_processors() {
        // On a memory-heavy circuit (pressure ~1) the speed-up slope
        // collapses once processors start sharing caches — the paper's
        // ">8 processors" dip. Compare the marginal speed-up of procs
        // 6->8 against 8->10.
        let arr = inverter_array(64, 78, 1).unwrap(); // ~4992 elements
        let uni = model_sync(&arr.netlist, Time(60), &machine(1));
        let s6 = model_sync(&arr.netlist, Time(60), &machine(6)).speedup(&uni);
        let s8 = model_sync(&arr.netlist, Time(60), &machine(8)).speedup(&uni);
        let s10 = model_sync(&arr.netlist, Time(60), &machine(10)).speedup(&uni);
        let slope_before = (s8 - s6) / 2.0;
        let slope_after = (s10 - s8) / 2.0;
        assert!(
            slope_after < 0.5 * slope_before,
            "slope should collapse past 8: before {slope_before:.2}/proc, after {slope_after:.2}/proc (s6 {s6:.2} s8 {s8:.2} s10 {s10:.2})"
        );
    }

    #[test]
    fn seq_model_counts_match_trace() {
        let arr = inverter_array(4, 4, 2).unwrap();
        let r = model_seq(&arr.netlist, Time(80), &CostModel::default());
        assert!(r.events > 0);
        assert_eq!(r.procs, 1);
        assert_eq!(r.busy[0], r.virtual_time);
    }

    #[test]
    fn os_interrupts_slow_things_down() {
        let arr = inverter_array(8, 8, 1).unwrap();
        let clean = model_sync(&arr.netlist, Time(100), &machine(4));
        let mut noisy_cfg = machine(4);
        noisy_cfg.os_interrupts = Some(crate::cost::OsInterrupts {
            period: 1000,
            duration: 800,
        });
        let noisy = model_sync(&arr.netlist, Time(100), &noisy_cfg);
        assert!(noisy.virtual_time > clean.virtual_time);
    }
}
