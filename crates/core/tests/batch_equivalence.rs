//! Per-lane equivalence of the word-parallel batch kernel and of the
//! one-lane event-driven engine.
//!
//! The equivalence driver (`support::check`) holds every lane of every
//! [`CompiledMode::run_batch`] configuration to [`EventDriven::run_lane`] of
//! its stimulus. Here each lane's `run_lane` result must in turn be
//! byte-identical to the sequential [`EventDriven`] oracle on a netlist
//! with the overrides bound in as `Vector` drivers — on random unit-delay
//! netlists (combinational gates, muxes, flip-flops, latches, tri-states,
//! and fallback RTL ops), on `parsim-circuits`' random circuits, and on
//! ISCAS c17. A chain of [`EventDriven::run_lane_segment`] calls stitches
//! to the uncut run. Plus: activity gating must eliminate the work of
//! quiescent sub-circuits without touching waveforms.

mod support;

use std::sync::Arc;

use parsim_circuits::{random_circuit, RandomCircuitParams};
use parsim_core::{equivalence_report, CompiledMode, EventDriven, LaneStimulus, SimConfig};
use parsim_logic::{Delay, ElementKind, Time, Value};
use parsim_netlist::bench_fmt::{from_bench, BenchOptions, C17};
use parsim_netlist::{Builder, Netlist, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use support::{check, Circuit};

/// One lane's input schedules, one per circuit input.
type Schedules = Vec<Vec<(Time, Value)>>;

/// Builds a deterministic random unit-delay circuit: a clock, `num_inputs`
/// stimulus nodes, and `num_gates` 1-bit elements drawn from the kinds
/// with native packed kernels. When `drive` is `Some`, the inputs get
/// `Vector` drivers (the scalar oracle form); when `None` they are left
/// floating for `run_batch` overrides. Node creation order is identical
/// either way, so `NodeId`s line up across the two forms.
fn gate_circuit(
    seed: u64,
    num_inputs: usize,
    num_gates: usize,
    drive: Option<&Schedules>,
) -> (Netlist, Vec<NodeId>, Vec<NodeId>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    let inputs: Vec<NodeId> = (0..num_inputs)
        .map(|i| b.node(&format!("in{i}"), 1))
        .collect();
    let gates: Vec<NodeId> = (0..num_gates)
        .map(|i| b.node(&format!("g{i}"), 1))
        .collect();
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
    if let Some(schedules) = drive {
        for (i, sched) in schedules.iter().enumerate() {
            b.element(&format!("vec{i}"), vector_driver(sched), Delay(1), &[], &[inputs[i]])
                .unwrap();
        }
    }
    let mut pool = inputs.clone();
    for (i, &out) in gates.iter().enumerate() {
        let pick = |rng: &mut SmallRng| pool[rng.gen_range(0..pool.len())];
        let (kind, ins): (ElementKind, Vec<NodeId>) = match rng.gen_range(0..12u32) {
            0 => (ElementKind::Not, vec![pick(&mut rng)]),
            1 => (ElementKind::Buf, vec![pick(&mut rng)]),
            k @ 2..=5 => {
                let fanin = rng.gen_range(2..=3usize);
                let ins = (0..fanin).map(|_| pick(&mut rng)).collect();
                let kind = [
                    ElementKind::And,
                    ElementKind::Or,
                    ElementKind::Nand,
                    ElementKind::Nor,
                ][k as usize - 2]
                    .clone();
                (kind, ins)
            }
            6 => (ElementKind::Xor, vec![pick(&mut rng), pick(&mut rng)]),
            7 => (ElementKind::Xnor, vec![pick(&mut rng), pick(&mut rng)]),
            8 => (
                ElementKind::Mux { width: 1 },
                vec![pick(&mut rng), pick(&mut rng), pick(&mut rng)],
            ),
            9 => (
                ElementKind::Dff { width: 1 },
                vec![clk, pick(&mut rng)],
            ),
            10 => (
                ElementKind::Latch { width: 1 },
                vec![pick(&mut rng), pick(&mut rng)],
            ),
            _ => (
                ElementKind::TriBuf { width: 1 },
                vec![pick(&mut rng), pick(&mut rng)],
            ),
        };
        b.element(&format!("e{i}"), kind, Delay(1), &ins, &[out])
            .unwrap();
        pool.push(out);
    }
    let mut watch = gates;
    watch.extend(inputs.iter().copied());
    watch.push(clk);
    (b.finish().unwrap(), watch, inputs)
}

/// Random per-input schedule: strictly increasing times, mostly 0/1 with
/// occasional X to exercise unknown propagation.
fn random_schedule(rng: &mut SmallRng, end: u64) -> Vec<(Time, Value)> {
    let mut t = rng.gen_range(0..4u64);
    let mut out = Vec::new();
    while t < end {
        let v = match rng.gen_range(0..8u32) {
            0 => Value::x(1),
            k => Value::bit(k % 2 == 1),
        };
        out.push((Time(t), v));
        t += rng.gen_range(1..7u64);
    }
    if out.is_empty() {
        out.push((Time(0), Value::bit(false)));
    }
    out
}

fn lane_schedules(rng: &mut SmallRng, lanes: usize, num_inputs: usize, end: u64) -> Vec<Schedules> {
    (0..lanes)
        .map(|_| (0..num_inputs).map(|_| random_schedule(rng, end)).collect())
        .collect()
}

/// The comparison itself, over any circuit family. `build(None)` is the
/// netlist the batch runs; `build(Some(schedules))` is one lane's oracle
/// form, with `Vector` drivers bound in — same nodes, same watch list,
/// same inputs. An empty schedule leaves that input, in that lane, to the
/// netlist's own generator. The driver runs the lanes through every batch
/// configuration; each lane's `run_lane` result must be its oracle's.
fn check_built_lanes(
    name: &str,
    build: impl Fn(Option<&Schedules>) -> (Netlist, Vec<NodeId>, Vec<NodeId>),
    per_lane: &[Schedules],
    end: Time,
) {
    let (netlist, watch, inputs) = build(None);
    let stimuli: Vec<LaneStimulus> = per_lane
        .iter()
        .map(|schedules| LaneStimulus {
            overrides: inputs
                .iter()
                .zip(schedules)
                .filter(|(_, s)| !s.is_empty())
                .map(|(&n, s)| (n, s.clone()))
                .collect(),
        })
        .collect();
    let out = check(&Circuit::new(name, &netlist, watch.clone(), end).lanes(stimuli));
    assert_eq!(out.lanes.len(), per_lane.len(), "{name}: a unit-delay netlist");
    for (l, schedules) in per_lane.iter().enumerate() {
        let (oracle_netlist, oracle_watch, _) = build(Some(schedules));
        assert_eq!(oracle_watch, watch);
        let oracle_cfg = SimConfig::new(end).watch_all(watch.clone());
        let oracle = EventDriven::run(&oracle_netlist, &oracle_cfg).unwrap();
        assert!(
            out.lanes[l].to_vcd() == oracle.to_vcd(),
            "{name}: lane {l}/{}: run_lane differs from the Vector-driver oracle",
            per_lane.len()
        );
    }
}

/// [`check_built_lanes`] on [`gate_circuit`].
fn check_gate_lanes(seed: u64, num_inputs: usize, num_gates: usize, per_lane: &[Schedules], end: Time) {
    let build = |drive: Option<&Schedules>| gate_circuit(seed, num_inputs, num_gates, drive);
    check_built_lanes(&format!("gate circuit seed {seed}"), build, per_lane, end);
}

/// A lane's schedule as the `Vector` driver its oracle netlist binds in.
fn vector_driver(sched: &[(Time, Value)]) -> ElementKind {
    let changes: Arc<[(u64, Value)]> =
        sched.iter().map(|&(t, v)| (t.ticks(), v)).collect::<Vec<_>>().into();
    ElementKind::Vector { changes }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_lanes_match_event_driven_oracle(
        seed in any::<u64>(),
        lanes in 1usize..=8,
        num_gates in 5usize..60,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let num_inputs = rng.gen_range(1..5usize);
        let end = 80u64;
        let per_lane = lane_schedules(&mut rng, lanes, num_inputs, end);
        check_gate_lanes(seed, num_inputs, num_gates, &per_lane, Time(end));
    }
}

/// `netlist` with each listed node's generator rebuilt as a `Vector` of its
/// schedule (an empty schedule keeps the generator): one lane's oracle form.
/// Nodes and elements keep their order, so ids and VCD identifiers match.
fn with_vector_drivers(netlist: &Netlist, drive: &[(NodeId, &[(Time, Value)])]) -> Netlist {
    let mut b = Builder::new();
    for (_, node) in netlist.iter_nodes() {
        b.node(node.name(), node.width());
    }
    for (_, e) in netlist.iter_elements() {
        let bound = drive
            .iter()
            .find(|(n, s)| e.outputs() == [*n] && !s.is_empty());
        let kind = match bound {
            Some((_, sched)) if e.kind().is_generator() => vector_driver(sched),
            _ => e.kind().clone(),
        };
        let (rise, fall) = (e.rise_delay(), e.fall_delay());
        b.element_with_delays(e.name(), kind, rise, fall, e.inputs(), e.outputs())
            .unwrap();
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `parsim-circuits`' random circuits at unit delay (LFSR, clock and
    /// pulse inputs, flip-flop feedback), with a random subset of the
    /// generators — the flip-flops' clock included — overridden per lane.
    #[test]
    fn random_circuit_lanes_match_on_both_engines(
        seed in any::<u64>(),
        lanes in 1usize..=4,
        elements in 5usize..60,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let params = RandomCircuitParams {
            elements,
            inputs: rng.gen_range(1..5usize),
            seq_fraction: 0.2,
            max_delay: 1,
            seed,
        };
        let end = 80u64;
        let circuit = random_circuit(&params).unwrap();
        let inputs: Vec<NodeId> = std::iter::once("clk".to_string())
            .chain((0..params.inputs).map(|i| format!("in{i}")))
            .map(|name| circuit.netlist.node_by_name(&name).unwrap())
            .collect();
        let mut watch = circuit.watch.clone();
        watch.extend(&inputs);
        let per_lane: Vec<Schedules> = (0..lanes)
            .map(|_| {
                // An empty schedule leaves that generator in place.
                let overridden: Vec<bool> = inputs.iter().map(|_| rng.gen_bool(0.5)).collect();
                overridden
                    .into_iter()
                    .map(|o| if o { random_schedule(&mut rng, end) } else { Vec::new() })
                    .collect()
            })
            .collect();
        let build = |schedules: Option<&Schedules>| {
            let netlist = match schedules {
                None => circuit.netlist.clone(),
                Some(schedules) => {
                    let drive: Vec<(NodeId, &[(Time, Value)])> =
                        inputs.iter().zip(schedules).map(|(&n, s)| (n, s.as_slice())).collect();
                    with_vector_drivers(&circuit.netlist, &drive)
                }
            };
            (netlist, watch.clone(), inputs.clone())
        };
        check_built_lanes(&format!("{params:?}"), build, &per_lane, Time(end));
    }
}

/// A one-lane event-driven run cut twice — at a tick where nothing happens
/// and at a tick with events — and resumed from each snapshot stitches to
/// the uncut run, overrides included.
#[test]
fn run_lane_segments_cut_quiet_and_active_stitch_to_the_uncut_run() {
    let seed = 0x5e9_c0de;
    let end = 90u64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let (netlist, _, inputs) = gate_circuit(seed, 3, 30, None);
    let mut stimulus = LaneStimulus::base();
    for &input in &inputs {
        stimulus = stimulus.drive(input, random_schedule(&mut rng, end));
    }
    // Every node watched, so a tick with no change anywhere is a quiet one.
    let cfg = SimConfig::new(Time(end)).watch_all(netlist.iter_nodes().map(|(id, _)| id));
    let uncut = EventDriven::run_lane(&netlist, &cfg, &stimulus).unwrap();
    let active: Vec<u64> = uncut
        .waveforms()
        .iter()
        .flat_map(|w| w.times().iter().map(|t| t.ticks()))
        .collect();
    let quiet = (1..end)
        .find(|t| !active.contains(t))
        .expect("a tick without events");
    let busy = (1..end)
        .rev()
        .find(|t| active.contains(t))
        .expect("a tick with events");
    let (first, second) = (quiet.min(busy), quiet.max(busy));
    let (mut whole, snap) =
        EventDriven::run_lane_segment(&netlist, &cfg, &stimulus, None, Time(first)).unwrap();
    let mut resume = snap;
    for cut in [second, end] {
        let (part, snap) =
            EventDriven::run_lane_segment(&netlist, &cfg, &stimulus, Some(&resume), Time(cut))
                .unwrap();
        whole.append_segment(&part);
        resume = snap;
    }
    assert_eq!(
        whole.to_vcd(),
        uncut.to_vcd(),
        "cuts at {quiet} (quiet) and {busy} (active)"
    );
    assert_eq!(
        whole.metrics.events_processed,
        uncut.metrics.events_processed
    );
}

/// 513 lanes: at the driver's forced width 512 one chunk in a 512-bit
/// group, all eight words live, and a one-lane tail chunk; at width 64
/// eight full chunks and the same tail; and in the 1- and 8-lane rows
/// words that are mostly dead lanes, whose garbage must be masked out of
/// events, waveforms, and gating decisions.
#[test]
fn ragged_lane_tails_match_oracle() {
    let seed = 0x7a11_5eed;
    let mut rng = SmallRng::seed_from_u64(seed + 513);
    let per_lane = lane_schedules(&mut rng, 513, 2, 40);
    check_gate_lanes(seed, 2, 12, &per_lane, Time(40));
}

/// ISCAS c17 under 64 random stimulus lanes, each checked against its own
/// sequential oracle run.
#[test]
fn c17_batch_matches_oracle_per_lane() {
    // Parse c17 with floating inputs; the batch drives them via overrides,
    // the oracle builds the same netlist with Vector drivers bound in.
    // Both builds create the `drive_*` nodes before instantiating, so
    // NodeIds line up.
    let input_names = ["1", "2", "3", "6", "7"];
    let parsed = from_bench(
        C17,
        &BenchOptions {
            input_period: None,
            ..Default::default()
        },
    )
    .unwrap();
    let build = |schedules: Option<&Schedules>| -> (Netlist, Vec<NodeId>, Vec<NodeId>) {
        let mut b = Builder::new();
        let bound: Vec<NodeId> = input_names
            .iter()
            .map(|name| b.node(&format!("drive_{name}"), 1))
            .collect();
        if let Some(schedules) = schedules {
            for (k, sched) in schedules.iter().enumerate() {
                b.element(&format!("vec_{k}"), vector_driver(sched), Delay(1), &[], &[bound[k]])
                    .unwrap();
            }
        }
        let bindings: Vec<(&str, NodeId)> = input_names
            .iter()
            .zip(&bound)
            .map(|(&name, &n)| (name, n))
            .collect();
        let map = b.instantiate(&parsed.netlist, "c17", &bindings).unwrap();
        let mut watch = vec![map["22"], map["23"]];
        watch.extend(bound.iter().copied());
        (b.finish().unwrap(), watch, bound)
    };

    let mut rng = SmallRng::seed_from_u64(17);
    let end = 100u64;
    let per_lane = lane_schedules(&mut rng, 64, input_names.len(), end);
    check_built_lanes("c17", build, &per_lane, Time(end));
}

/// Fallback (lane-serial) opcodes inside a batch: an adder + comparator
/// datapath has no native packed kernel, so the executor gathers each
/// lane, runs the scalar evaluator, and scatters the result. Waveforms
/// must still match the oracle exactly.
#[test]
fn fallback_opcodes_match_oracle() {
    let build = |schedules: Option<&Schedules>| -> (Netlist, Vec<NodeId>, Vec<NodeId>) {
        let mut b = Builder::new();
        let a = b.node("a", 4);
        let c = b.node("c", 4);
        let cin = b.node("cin", 1);
        let sum = b.node("sum", 4);
        let cout = b.node("cout", 1);
        let eq = b.node("eq", 1);
        let lt = b.node("lt", 1);
        if let Some(schedules) = schedules {
            for (k, (name, node)) in [("a", a), ("c", c), ("cin", cin)].iter().enumerate() {
                let driver = vector_driver(&schedules[k]);
                b.element(&format!("vec_{name}"), driver, Delay(1), &[], &[*node]).unwrap();
            }
        }
        b.element(
            "add",
            ElementKind::Adder { width: 4 },
            Delay(1),
            &[a, c, cin],
            &[sum, cout],
        )
        .unwrap();
        b.element(
            "cmpu",
            ElementKind::Comparator { width: 4 },
            Delay(1),
            &[sum, c],
            &[eq, lt],
        )
        .unwrap();
        (b.finish().unwrap(), vec![sum, cout, eq, lt], vec![a, c, cin])
    };

    let mut rng = SmallRng::seed_from_u64(99);
    let end = 60u64;
    let wide_schedule = |rng: &mut SmallRng, width: u8| -> Vec<(Time, Value)> {
        let mut t = 0u64;
        let mut out = Vec::new();
        while t < end {
            out.push((
                Time(t),
                Value::from_u64(rng.gen_range(0..(1u64 << width)), width),
            ));
            t += rng.gen_range(1..6u64);
        }
        out
    };
    let per_lane: Vec<Schedules> = (0..32)
        .map(|_| {
            vec![
                wide_schedule(&mut rng, 4),
                wide_schedule(&mut rng, 4),
                wide_schedule(&mut rng, 1),
            ]
        })
        .collect();
    check_built_lanes("adder and comparator", build, &per_lane, Time(end));
}

/// The shapes a watch list can take, through both recording sites: a
/// 4-bit bus and a clock that are generator-driven in the netlist and
/// overridden per lane (thread 0's generator writes — the clock only in odd
/// lanes, so even lanes log the base schedule), multi-bit instruction
/// outputs (the pending-apply site), a node nothing ever drives (a watched
/// slot with an empty log), and a node listed twice.
#[test]
fn multi_bit_duplicate_idle_and_overridden_watches_match_oracle() {
    let build = |schedules: Option<&Schedules>| -> (Netlist, Vec<NodeId>, Vec<NodeId>) {
        let mut b = Builder::new();
        let bus = b.node("bus", 4);
        let clk = b.node("clk", 1);
        let idle = b.node("idle", 4);
        let inv = b.node("inv", 4);
        let reg = b.node("reg", 4);
        let values: Arc<[Value]> = (0..5).map(|k| Value::from_u64(3 * k + 1, 4)).collect();
        let base = [
            ElementKind::Pattern { period: 7, values },
            ElementKind::Clock { half_period: 3, offset: 2 },
        ];
        for (k, (node, kind)) in [bus, clk].into_iter().zip(base).enumerate() {
            let kind = match schedules.map(|s| &s[k]).filter(|s| !s.is_empty()) {
                Some(sched) => vector_driver(sched),
                None => kind,
            };
            b.element(&format!("drv{k}"), kind, Delay(1), &[], &[node]).unwrap();
        }
        b.element("not", ElementKind::Not, Delay(1), &[bus], &[inv]).unwrap();
        b.element("ff", ElementKind::Dff { width: 4 }, Delay(1), &[clk, inv], &[reg]).unwrap();
        (b.finish().unwrap(), vec![reg, bus, idle, clk, inv, reg], vec![bus, clk])
    };

    let mut rng = SmallRng::seed_from_u64(0x3a7c);
    let end = 70u64;
    let per_lane: Vec<Schedules> = (0..70)
        .map(|l| {
            let mut t = rng.gen_range(0..3u64);
            let mut bus = Vec::new();
            while t < end {
                bus.push((Time(t), Value::from_u64(rng.gen_range(0..16u64), 4)));
                t += rng.gen_range(1..9u64);
            }
            let clk = if l % 2 == 1 { random_schedule(&mut rng, end) } else { Vec::new() };
            vec![bus, clk]
        })
        .collect();
    check_built_lanes("watch shapes", build, &per_lane, Time(end));
}

/// 130 lanes: at width 64 two full chunks and a two-lane tail, on one
/// worker and on two. Each lane's inputs open with its own index in
/// binary, and the inputs are watched, so no two lanes have the same
/// waveforms: a chunk or lane offset slipping anywhere between the packed
/// logs and `BatchResult::lanes` cannot cancel out.
#[test]
fn distinct_lanes_across_three_chunks_land_in_their_own_results() {
    let seed = 0xd157_1ac7;
    let (lanes, num_inputs, end) = (130usize, 8usize, 40u64);
    let mut rng = SmallRng::seed_from_u64(seed);
    let per_lane: Vec<Schedules> = (0..lanes)
        .map(|l| {
            (0..num_inputs)
                .map(|i| {
                    let mut sched = vec![(Time(0), Value::bit((l >> i) & 1 == 1))];
                    let later = random_schedule(&mut rng, end);
                    sched.extend(later.into_iter().filter(|&(t, _)| t > Time(0)));
                    sched
                })
                .collect()
        })
        .collect();
    check_gate_lanes(seed, num_inputs, 24, &per_lane, Time(end));
}

/// A quiescent sub-circuit must contribute (almost) zero evaluations once
/// it settles: activity gating skips its blocks every remaining step.
#[test]
fn quiescent_subcircuit_is_gated_out() {
    // Active part: clock + one inverter. Quiescent part: a 200-gate
    // inverter chain fed by a constant, silent after the X→value wavefront
    // passes (~200 steps out of 4000).
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    let act = b.node("act", 1);
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
    b.element("inv_act", ElementKind::Not, Delay(1), &[clk], &[act])
        .unwrap();
    let seed = b.node("seed", 1);
    b.element(
        "const",
        ElementKind::Const {
            value: Value::bit(true),
        },
        Delay(1),
        &[],
        &[seed],
    )
    .unwrap();
    let mut prev = seed;
    for i in 0..200 {
        let n = b.node(&format!("q{i}"), 1);
        b.element(&format!("qi{i}"), ElementKind::Not, Delay(1), &[prev], &[n])
            .unwrap();
        prev = n;
    }
    let n = b.finish().unwrap();

    let end = Time(4000);
    let watch = vec![clk, act, prev];
    let gated_cfg = SimConfig::new(end).watch_all(watch.clone()).threads(2);
    let gated = CompiledMode::run(&n, &gated_cfg).unwrap();
    let ungated = CompiledMode::run(&n, &gated_cfg.clone().without_activity_gating()).unwrap();

    // Identical waveforms; gating is purely a work optimization.
    let rep = equivalence_report(&ungated, &gated);
    assert!(rep.is_equivalent(), "gating changed waveforms: {rep}");

    // Ungated: every element every step. Gated: accounting still covers
    // every (element, step) pair, but >90% is skipped, not evaluated.
    let elements = 201u64; // inv_act + 200 chain inverters (generators excluded)
    assert_eq!(ungated.metrics.evaluations, elements * end.ticks());
    assert_eq!(ungated.metrics.evals_skipped, 0);
    assert_eq!(
        gated.metrics.evaluations + gated.metrics.evals_skipped,
        elements * end.ticks()
    );
    assert!(gated.metrics.blocks_skipped > 0);
    assert!(
        gated.metrics.gating_ratio() > 0.9,
        "only {:.1}% of evaluations eliminated ({} evals, {} skipped)",
        gated.metrics.gating_ratio() * 100.0,
        gated.metrics.evaluations,
        gated.metrics.evals_skipped
    );

    // The quiescent chain itself contributes zero evaluations after its
    // wavefront settles: all work beyond the settle budget belongs to the
    // active pair. Chain blocks can each be touched a handful of times
    // while the wavefront crosses them; bound that settle work generously
    // and require everything else to have been skipped.
    let active_insns = 2u64; // inv_act shares no block with the chain? (bound below is safe either way)
    let settle_budget = 200u64 * 64; // chain insns × generous wavefront passes
    assert!(
        gated.metrics.evaluations <= active_insns * end.ticks() + settle_budget,
        "quiescent chain kept evaluating: {} evaluations",
        gated.metrics.evaluations
    );
}
