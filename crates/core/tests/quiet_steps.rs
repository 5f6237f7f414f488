//! Quiet-step jumps of the compiled kernels.
//!
//! When a step queues no write on any worker, both compiled executors
//! continue at the next scheduled stimulus instead of at `t + 1`. That must
//! be invisible everywhere except in wall time and in
//! [`Metrics::quiet_steps`](parsim_core::Metrics): waveforms stay equal to
//! the sequential oracle lane by lane, every counter reads what walking the
//! ticks would have read, snapshots at any cut equal the ones the every-tick
//! loop (`without_activity_gating`) captures, and all of it holds at every
//! thread count. The equivalence driver (`support::check`) checks the
//! waveforms and counters; this file picks circuits with long quiet
//! stretches and checks that the jumps happen.

mod support;

use std::sync::Arc;

use parsim_circuits::{gate_multiplier, inverter_array, GateMultiplier};
use parsim_core::{
    assert_equivalent, checkpoint, CheckpointStore, CompiledMode, EngineKind,
    EngineSnapshot, EventDriven, LaneStimulus, SimConfig, SimResult, StorageFaultPlan,
};
use parsim_checkpoint::ChangeRecord;
use parsim_logic::{expand_generator, Delay, ElementKind, Time, Value};
use parsim_netlist::compile::CompiledProgram;
use parsim_netlist::{Builder, Netlist, NodeId};

use support::{check, counters, Circuit, Outcome, THREADS};

// ---- the return-to-zero multiplier: period >> settle time ------------------

const BITS: usize = 8;
const PERIOD: u64 = 160;

/// Lane `l`'s operand schedule: `(0,0), p, (0,0), q, (0,0)`, distinct per lane.
fn rtz_operands(l: usize) -> Vec<(u64, u64)> {
    let mask = (1u64 << BITS) - 1;
    let mix = |k: u64| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 29) & mask;
    let l = l as u64;
    vec![
        (0, 0),
        (mix(4 * l + 1).max(1), mix(4 * l + 2).max(1)),
        (0, 0),
        (mix(4 * l + 3).max(1), mix(4 * l + 4).max(1)),
        (0, 0),
    ]
}

fn multiplier(l: usize) -> GateMultiplier {
    gate_multiplier(BITS, &rtz_operands(l), PERIOD).unwrap()
}

/// Lane `l` as overrides of the base multiplier's input generators: the
/// expansion the engines apply to a `Pattern` of each operand bit.
fn multiplier_lane(base: &GateMultiplier, l: usize) -> LaneStimulus {
    let pairs = rtz_operands(l);
    let mut stim = LaneStimulus::base();
    for (i, &node) in base.a_inputs.iter().chain(&base.b_inputs).enumerate() {
        let values: Vec<Value> = pairs
            .iter()
            .map(|&(a, b)| {
                let operand = if i < BITS { a } else { b };
                Value::bit((operand >> (i % BITS)) & 1 == 1)
            })
            .collect();
        let kind = ElementKind::Pattern { period: PERIOD, values: values.into() };
        stim = stim.drive(node, expand_generator(&kind, base.schedule_end()));
    }
    stim
}

fn multiplier_oracle(l: usize) -> SimResult {
    let own = multiplier(l);
    let cfg = SimConfig::new(own.schedule_end()).watch_all(own.product.iter().copied());
    EventDriven::run(&own.netlist, &cfg).unwrap()
}

// ---- a clocked chain with a slow clock -------------------------------------

const HALF_PERIOD: u64 = 25;
const CHAIN_END: u64 = 260;
const STAGES: usize = 5;

/// `clk` (slow) → `STAGES` flip-flops in a row, each followed by an
/// inverter, and `nd = !d` so a change of `d` shows at once. `d` is driven
/// by a `Vector` of `schedule`; nodes are created in the same order whatever
/// the schedule, so `NodeId`s line up across lanes.
fn chain(schedule: &[(Time, Value)]) -> (Netlist, NodeId, Vec<NodeId>) {
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    let d = b.node("d", 1);
    let nd = b.node("nd", 1);
    let kind = ElementKind::Clock { half_period: HALF_PERIOD, offset: HALF_PERIOD };
    b.element("osc", kind, Delay(1), &[], &[clk]).unwrap();
    let changes: Arc<[(u64, Value)]> = schedule.iter().map(|&(t, v)| (t.ticks(), v)).collect();
    b.element("vec", ElementKind::Vector { changes }, Delay(1), &[], &[d]).unwrap();
    b.element("invd", ElementKind::Not, Delay(1), &[d], &[nd]).unwrap();
    let mut watch = vec![clk, d, nd];
    let mut prev = d;
    for i in 0..STAGES {
        let q = b.node(&format!("q{i}"), 1);
        let n = b.node(&format!("n{i}"), 1);
        b.element(&format!("ff{i}"), ElementKind::Dff { width: 1 }, Delay(1), &[clk, prev], &[q])
            .unwrap();
        b.element(&format!("inv{i}"), ElementKind::Not, Delay(1), &[q], &[n]).unwrap();
        watch.extend([q, n]);
        prev = n;
    }
    (b.finish().unwrap(), d, watch)
}

/// Lane `l`'s `d` schedule: a value at 0 and a change shortly after each of
/// a lane-dependent subset of clock edges — never inside a quiet stretch.
fn chain_schedule(l: usize) -> Vec<(Time, Value)> {
    let mut out = vec![(Time(0), Value::bit(l % 2 == 1))];
    let mut level = l % 2 == 1;
    for edge in 1..CHAIN_END / HALF_PERIOD {
        if !(l + edge as usize).is_multiple_of(3) {
            level = !level;
            out.push((Time(edge * HALF_PERIOD + 1 + (l as u64 % 3)), Value::bit(level)));
        }
    }
    out
}

fn chain_oracle(schedule: &[(Time, Value)]) -> SimResult {
    let (netlist, _, watch) = chain(schedule);
    EventDriven::run(&netlist, &SimConfig::new(Time(CHAIN_END)).watch_all(watch)).unwrap()
}

// ---- equivalence and counters ----------------------------------------------

/// The batch's every-tick loop (`without_activity_gating`) at width 64:
/// the lanes the driver checked, every instruction evaluated at every step,
/// nothing skipped and no quiet step.
fn check_every_tick_batch(
    (netlist, watch, end): (&Netlist, &[NodeId], Time),
    stimuli: &[LaneStimulus],
    out: &Outcome,
) {
    let cfg = SimConfig::new(end).watch_all(watch.iter().copied()).threads(2).with_lane_width(64);
    let r = CompiledMode::run_batch(netlist, &cfg.without_activity_gating(), stimuli).unwrap();
    for (l, lane) in r.lanes.iter().enumerate() {
        assert_equivalent(&out.lanes[l % out.lanes.len()], lane, &format!("every-tick lane {l}"));
    }
    let insns = CompiledProgram::compile(netlist).num_insns() as u64;
    let chunks = stimuli.len().div_ceil(64) as u64;
    counters("every-tick batch", &r.metrics, end.ticks(), insns * chunks, false, &mut None);
}

/// Each lane's `run_lane` oracle is the oracle of that lane's own netlist.
fn assert_lanes_match(out: &Outcome, oracles: &[SimResult]) {
    assert_eq!(out.lanes.len(), oracles.len());
    for (l, (lane, oracle)) in out.lanes.iter().zip(oracles).enumerate() {
        assert!(lane.to_vcd() == oracle.to_vcd(), "lane {l}: run_lane differs from its own netlist");
    }
}

#[test]
fn multiplier_lanes_match_their_oracles_and_most_steps_are_quiet() {
    let base = multiplier(0);
    let end = base.schedule_end();
    let oracles: Vec<SimResult> = (0..65).map(multiplier_oracle).collect();
    assert_eq!(multiplier(64).product, base.product, "node ids line up across lanes");
    let stimuli: Vec<LaneStimulus> = (0..65).map(|l| multiplier_lane(&base, l)).collect();
    let circuit = Circuit::new("multiplier", &base.netlist, base.product.clone(), end);
    let out = check(&circuit.lanes(stimuli.clone()));
    assert_lanes_match(&out, &oracles);
    check_every_tick_batch((&base.netlist, &base.product, end), &stimuli, &out);
    let steps = end.ticks() + 1;
    for (what, quiet) in [("scalar", out.quiet_steps), ("batch", out.batch_quiet_steps)] {
        let quiet = quiet.expect("a unit-delay netlist");
        assert!(quiet * 10 >= steps * 7, "{what}: {quiet} of {steps} steps quiet, expected 70 %");
    }
}

#[test]
fn clocked_chain_lanes_match_their_oracles_between_slow_clock_edges() {
    let (netlist, d, watch) = chain(&chain_schedule(0));
    let oracles: Vec<SimResult> = (0..65).map(|l| chain_oracle(&chain_schedule(l))).collect();
    // Lane 0 follows the netlist's own generators; the rest override `d`.
    let stimuli: Vec<LaneStimulus> = (0..65)
        .map(|l| match l {
            0 => LaneStimulus::base(),
            _ => LaneStimulus::base().drive(d, chain_schedule(l)),
        })
        .collect();
    let circuit = Circuit::new("chain", &netlist, watch.clone(), Time(CHAIN_END));
    let out = check(&circuit.lanes(stimuli.clone()));
    assert_lanes_match(&out, &oracles);
    check_every_tick_batch((&netlist, &watch, Time(CHAIN_END)), &stimuli, &out);
    for (what, quiet) in [("scalar", out.quiet_steps), ("batch", out.batch_quiet_steps)] {
        let quiet = quiet.expect("a unit-delay netlist");
        assert!(quiet > CHAIN_END / 2, "{what}: only {quiet} quiet steps");
    }
}

/// The paper's control circuit with its inputs toggling every tick: a
/// stimulus is due at every step, so there is never anything to jump over.
#[test]
fn inverter_array_is_never_quiet() {
    let arr = inverter_array(8, 4, 1).unwrap();
    let out = check(&Circuit::new("inverter array", &arr.netlist, arr.taps.clone(), Time(60)));
    assert_eq!((out.quiet_steps, out.batch_quiet_steps), (Some(0), Some(0)));
    let circuit = (&arr.netlist, arr.taps.as_slice(), Time(60));
    check_every_tick_batch(circuit, &[LaneStimulus::base()], &out);
}

/// One lane's override fires in the middle of every other lane's quiet
/// stretch: the jump target is the earliest stimulus over the whole chunk,
/// not the earliest of the lanes that happen to be settled.
#[test]
fn one_lanes_stimulus_interrupts_everyone_elses_quiet_stretch() {
    const ODD: usize = 5;
    let (netlist, d, watch) = chain(&chain_schedule(0));
    let schedules = |odd: bool| -> Vec<Vec<(Time, Value)>> {
        (0..8)
            .map(|l| {
                let mut s = chain_schedule(l);
                if odd && l == ODD {
                    // Twelve ticks after an edge everything has settled.
                    for edge in [2, 5, 8] {
                        let at = Time(edge * HALF_PERIOD + 12);
                        let level = s.iter().rev().find(|(t, _)| *t < at).unwrap().1;
                        s.push((at, level.not()));
                        s.push((Time(at.ticks() + 3), level));
                    }
                    s.sort_by_key(|(t, _)| *t);
                }
                s
            })
            .collect()
    };
    let stimuli = |odd: bool| -> Vec<LaneStimulus> {
        schedules(odd).into_iter().map(|s| LaneStimulus::base().drive(d, s)).collect()
    };
    let oracles: Vec<SimResult> = schedules(true).iter().map(|s| chain_oracle(s)).collect();
    let circuit = Circuit::new("chain, odd lane", &netlist, watch.clone(), Time(CHAIN_END));
    let out = check(&circuit.lanes(stimuli(true)));
    assert_lanes_match(&out, &oracles);
    // The driver's width-64 rows cycle the eight lanes into 65; so does
    // this run, without the odd lane's extra edges. Those cost executed
    // steps: six stimuli plus their ripples.
    let quiet = out.batch_quiet_steps.expect("a unit-delay netlist");
    let undisturbed: Vec<LaneStimulus> = stimuli(false).into_iter().cycle().take(65).collect();
    let cfg = SimConfig::new(Time(CHAIN_END)).watch_all(watch).with_lane_width(64);
    let undisturbed = CompiledMode::run_batch(&netlist, &cfg, &undisturbed).unwrap();
    assert!(
        quiet + 6 <= undisturbed.metrics.quiet_steps,
        "{quiet} quiet steps with the odd lane, {} without",
        undisturbed.metrics.quiet_steps
    );
}

// ---- cuts and resumes inside a quiet stretch --------------------------------

/// The last tick of the first operand period at which any lane applies a
/// write, read off an all-nodes waveform of the oracle.
fn last_active_tick(lanes: usize) -> u64 {
    (0..lanes)
        .map(|l| {
            let own = multiplier(l);
            let all: Vec<NodeId> = (0..own.netlist.num_nodes()).map(NodeId::from_index).collect();
            let cfg = SimConfig::new(Time(2 * PERIOD - 1)).watch_all(all);
            let r = EventDriven::run(&own.netlist, &cfg).unwrap();
            r.waveforms()
                .into_iter()
                .flat_map(|w| w.times().iter().map(|t| t.ticks()))
                .filter(|&t| t >= PERIOD)
                .max()
                .unwrap()
        })
        .max()
        .unwrap()
}

/// Plants `snap` (with the head segment's watched history) in a checkpoint
/// directory and resumes it on the scalar compiled engine.
fn resume_on_scalar_engine(
    tag: &str,
    netlist: &Netlist,
    cfg: &SimConfig,
    snap: &EngineSnapshot,
    head: &SimResult,
) -> SimResult {
    let dir = std::env::temp_dir().join(format!("parsim-quiet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut planted = snap.clone();
    planted.step = 1;
    planted.changes = head
        .waveforms()
        .into_iter()
        .flat_map(|w| {
            let node = w.node().index() as u32;
            w.changes().map(move |(t, value)| ChangeRecord { time: t.ticks(), node, value })
        })
        .collect();
    planted.changes.sort_by_key(|c| c.time);
    let mut store = CheckpointStore::open(&dir, checkpoint::netlist_digest(netlist), 2).unwrap();
    store.save(&planted, &StorageFaultPlan::new()).unwrap();
    let cfg = cfg.clone().with_checkpoint_dir(&dir).with_checkpoint_every(u64::MAX / 2);
    let r = checkpoint::resume(EngineKind::Compiled, netlist, &cfg).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    r
}

#[test]
fn batch_cuts_in_and_around_a_quiet_stretch_equal_the_every_tick_loop() {
    const LANE_COUNT: usize = 3;
    let base = multiplier(0);
    let end = base.schedule_end();
    let stimuli: Vec<LaneStimulus> = (0..LANE_COUNT).map(|l| multiplier_lane(&base, l)).collect();
    let oracles: Vec<SimResult> = (0..LANE_COUNT).map(multiplier_oracle).collect();
    let active = last_active_tick(LANE_COUNT);
    assert!(active + 20 < 2 * PERIOD, "the period leaves a quiet stretch to cut in");

    // In flight, on the last active tick, one past it, deep in the quiet.
    for cut in [active - 1, active, active + 1, active + 20] {
        for threads in THREADS {
            let tag = format!("cut {cut} x{threads}");
            let cfg = SimConfig::new(end).watch_all(base.product.iter().copied()).threads(threads);
            let run = |cfg: &SimConfig| {
                CompiledMode::run_batch_segment(&base.netlist, cfg, &stimuli, None, Time(cut))
                    .unwrap()
            };
            let (head, snaps) = run(&cfg);
            let (_, every_tick) = run(&cfg.clone().without_activity_gating());
            assert_eq!(snaps, every_tick, "{tag}: snapshots");
            let in_flight = snaps.iter().any(|s| !s.pending.is_empty());
            assert_eq!(in_flight, cut < active, "{tag}: pending events");

            let (tail, _) = CompiledMode::run_batch_segment(
                &base.netlist,
                &cfg,
                &stimuli,
                Some(&snaps),
                end,
            )
            .unwrap();
            assert!(tail.metrics.quiet_steps > 0, "{tag}: the resumed half jumps too");
            for (l, (lane, oracle)) in head.lanes.iter().zip(&oracles).enumerate() {
                let mut whole = lane.clone();
                whole.append_segment(&tail.lanes[l]);
                assert_equivalent(oracle, &whole, &format!("{tag} lane {l} stitched"));
                assert_eq!(whole.to_vcd(), oracle.to_vcd(), "{tag} lane {l}");
            }
        }
        // Each lane's snapshot is a scalar-engine snapshot of that lane's
        // own netlist.
        let cfg = SimConfig::new(end).watch_all(base.product.iter().copied());
        let (head, snaps) =
            CompiledMode::run_batch_segment(&base.netlist, &cfg, &stimuli, None, Time(cut)).unwrap();
        for l in 0..LANE_COUNT {
            let own = multiplier(l);
            let tag = format!("cut{cut}-lane{l}");
            let r = resume_on_scalar_engine(&tag, &own.netlist, &cfg, &snaps[l], &head.lanes[l]);
            assert_equivalent(&oracles[l], &r, &tag);
        }
    }
}

/// `checkpoint::run` slices the scalar engine's run at a period far smaller
/// than the quiet stretch: every segment but the active ones is one jump.
#[test]
fn scalar_checkpoint_segments_shorter_than_the_quiet_stretch() {
    let base = multiplier(1);
    let end = base.schedule_end();
    let dir = std::env::temp_dir().join(format!("parsim-quiet-{}-every", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SimConfig::new(end)
        .watch_all(base.product.iter().copied())
        .threads(3)
        .with_checkpoint_dir(&dir)
        .with_checkpoint_every(7);
    let r = checkpoint::run(EngineKind::Compiled, &base.netlist, &cfg).unwrap();
    assert_equivalent(&multiplier_oracle(1), &r, "checkpoint every 7");
    assert_eq!(r.metrics.time_steps, end.ticks() + 1);
    assert!(r.metrics.quiet_steps * 2 > end.ticks(), "{}", r.metrics.quiet_steps);
    assert!(r.metrics.checkpoint.writes >= end.ticks() / 7);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- tracing ---------------------------------------------------------------

/// Under the `trace` feature a jump is one instant carrying the number of
/// steps it passed, not that many empty apply/eval spans: per worker the
/// instants add up to `quiet_steps` and the apply spans to the rest.
#[cfg(feature = "trace")]
#[test]
fn a_traced_jump_is_one_instant_carrying_its_length() {
    use parsim_core::{RunReport, TraceConfig};
    use parsim_trace::{EventKind, Mark};

    let base = multiplier(0);
    let cfg = SimConfig::new(base.schedule_end())
        .watch_all(base.product.iter().copied())
        .threads(2)
        .with_trace(TraceConfig::with_capacity(1 << 17));
    let r = CompiledMode::run(&base.netlist, &cfg).unwrap();
    let trace = r.trace.as_ref().expect("trace feature on and configured");
    assert_eq!(trace.dropped(), 0, "the ring holds the whole run");
    let m = &r.metrics;
    assert!(m.quiet_steps > 0);
    for w in &trace.workers {
        let count = |kind, mark| w.events.iter().filter(move |e| e.kind == kind && e.mark == mark);
        let jumped: u64 =
            count(EventKind::QuietJump, Mark::Instant).map(|e| u64::from(e.arg)).sum();
        assert_eq!(jumped, m.quiet_steps, "worker {}", w.worker);
        let applies = count(EventKind::PhaseApply, Mark::Begin).count() as u64;
        assert_eq!(applies, m.time_steps - m.quiet_steps, "worker {}", w.worker);
    }
    let report = RunReport::new(m, Some(trace), None);
    assert!((0.0..=1.0).contains(&report.utilization()));
}
