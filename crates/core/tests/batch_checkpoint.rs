//! Checkpoint segments through the SIMD batch kernel.
//!
//! A batch cut at time `T` must behave like the scalar engine's segment
//! contract, per lane: resuming the captured snapshots reproduces the
//! exact waveform tail of an uncut run, and the final snapshots of a
//! cut-and-resumed run are identical to those of a straight-through run.

use std::sync::Arc;

use parsim_core::{
    CheckpointError, CompiledMode, EngineSnapshot, EventDriven, LaneStimulus, SimConfig, SimError,
};
use parsim_checkpoint::netlist_digest;
use parsim_logic::{Delay, ElementKind, Time, Value};
use parsim_netlist::{Builder, Netlist, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A circuit exercising every state-capture path: native edge state
/// (dff), native level state (latch), pure combinational gates, and a
/// fallback RTL op (adder) whose per-lane `ElemState` rides `fb_state`.
fn circuit() -> (Netlist, Vec<NodeId>, Vec<NodeId>) {
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    let d0 = b.node("d0", 1);
    let d1 = b.node("d1", 1);
    let q0 = b.node("q0", 1);
    let q1 = b.node("q1", 1);
    let lq = b.node("lq", 1);
    let x = b.node("x", 1);
    let a = b.node("a", 4);
    let sum = b.node("sum", 4);
    let cout = b.node("cout", 1);
    b.element(
        "osc",
        ElementKind::Clock {
            half_period: 3,
            offset: 3,
        },
        Delay(1),
        &[],
        &[clk],
    )
    .unwrap();
    b.element("ff0", ElementKind::Dff { width: 1 }, Delay(1), &[clk, d0], &[q0])
        .unwrap();
    b.element("ff1", ElementKind::Dff { width: 1 }, Delay(1), &[clk, q0], &[q1])
        .unwrap();
    b.element("lat", ElementKind::Latch { width: 1 }, Delay(1), &[clk, d1], &[lq])
        .unwrap();
    b.element("x1", ElementKind::Xor, Delay(1), &[q1, lq], &[x])
        .unwrap();
    b.element(
        "add",
        ElementKind::Adder { width: 4 },
        Delay(1),
        &[a, a, x],
        &[sum, cout],
    )
    .unwrap();
    let watch = vec![clk, q0, q1, lq, x, sum, cout];
    (b.finish().unwrap(), watch, vec![d0, d1, a])
}

fn stimuli(lanes: usize, end: u64) -> Vec<LaneStimulus> {
    let mut rng = SmallRng::seed_from_u64(0xc4ec_2026);
    let (_, _, inputs) = circuit();
    (0..lanes)
        .map(|_| {
            let mut s = LaneStimulus::base();
            for (k, &n) in inputs.iter().enumerate() {
                let width = if k == 2 { 4 } else { 1 };
                let mut t = 0u64;
                let mut sched = Vec::new();
                while t < end {
                    sched.push((
                        Time(t),
                        Value::from_u64(rng.gen_range(0..(1u64 << width)), width),
                    ));
                    t += rng.gen_range(1..5u64);
                }
                s = s.drive(n, sched);
            }
            s
        })
        .collect()
}

fn config(end: u64, watch: &[NodeId]) -> SimConfig {
    SimConfig::new(Time(end))
        .watch_all(watch.to_vec())
        .threads(2)
        .with_lane_width(256)
}

/// Cut + resume reproduces the uncut run exactly: stitched per-lane
/// waveforms and the final snapshots are both identical.
#[test]
fn cut_and_resume_roundtrip_is_exact() {
    let (netlist, watch, _) = circuit();
    let end = 80u64;
    let cut = 37u64;
    // One 256-bit chunk (4 plane words), ragged: lanes 150..256 are dead
    // and must stay invisible to events, waveforms, and snapshots.
    let lanes = 150usize;
    let stim = stimuli(lanes, end);
    let cfg = config(end, &watch);

    let (whole, final_snaps) =
        CompiledMode::run_batch_segment(&netlist, &cfg, &stim, None, Time(end)).unwrap();
    assert_eq!(whole.metrics.lane_width, 256);
    assert_eq!(final_snaps.len(), lanes);

    let (head, mid_snaps) =
        CompiledMode::run_batch_segment(&netlist, &cfg, &stim, None, Time(cut)).unwrap();
    assert_eq!(mid_snaps.len(), lanes);
    assert!(mid_snaps.iter().all(|s| s.time == cut));
    let (tail, resumed_snaps) =
        CompiledMode::run_batch_segment(&netlist, &cfg, &stim, Some(&mid_snaps), Time(end))
            .unwrap();

    // Final snapshots: bit-identical whether or not the run was cut.
    assert_eq!(final_snaps, resumed_snaps);

    // Waveforms: head ++ tail == whole, per lane, per watched node.
    for l in 0..lanes {
        for &n in &watch {
            let mut stitched: Vec<_> = head.lanes[l].waveform(n).unwrap().changes().collect();
            stitched.extend(tail.lanes[l].waveform(n).unwrap().changes());
            let whole_changes: Vec<_> = whole.lanes[l].waveform(n).unwrap().changes().collect();
            assert_eq!(
                stitched, whole_changes,
                "lane {l} node {n:?}: stitched segments diverge from uncut run"
            );
            assert!(stitched
                .windows(2)
                .all(|w| w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 != w[1].1)));
        }
    }
    // The head's changes all precede the cut boundary; the tail's follow it.
    for l in 0..lanes {
        for &n in &watch {
            assert!(head.lanes[l]
                .waveform(n)
                .unwrap()
                .times()
                .iter()
                .all(|t| t.ticks() <= cut));
            assert!(tail.lanes[l]
                .waveform(n)
                .unwrap()
                .times()
                .iter()
                .all(|t| t.ticks() > cut));
        }
    }
}

/// Multi-cut chains (several segments in a row, across chunk-count
/// changes) still land on the straight-through snapshots.
#[test]
fn multi_cut_chain_matches_single_segment() {
    let (netlist, watch, _) = circuit();
    let end = 60u64;
    let lanes = 67usize; // two chunks at width 64: exercises per-chunk capture
    let stim = stimuli(lanes, end);
    let cfg = config(end, &watch).with_lane_width(64);

    let (_, straight) =
        CompiledMode::run_batch_segment(&netlist, &cfg, &stim, None, Time(end)).unwrap();
    let mut snaps = None;
    for cut in [13u64, 29, 44, end] {
        let (_, s) =
            CompiledMode::run_batch_segment(&netlist, &cfg, &stim, snaps.as_deref(), Time(cut))
                .unwrap();
        snaps = Some(s);
    }
    assert_eq!(snaps.unwrap(), straight);
}

/// A cut taken while watched, instruction-driven nodes have an event in
/// flight, with the lanes split over threads: at 2 threads lanes 0–1 and
/// lane 2 are two chunks (the second starts at lane 2, inside a word), at
/// 3 threads every lane is a chunk of its own. The snapshots
/// must encode to the 1-thread bytes, the stitched lists must come out
/// strictly time-ordered and equal to the uncut run, and a cut taken at 3
/// threads must resume at 1 thread to the same lists.
#[test]
fn in_flight_events_resume_in_time_order_at_any_thread_count() {
    // A clock fanning out to six inverters, each feeding a second one: at
    // a step where the clock toggles, every first-rank output is pending.
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    b.element("osc", ElementKind::Clock { half_period: 3, offset: 3 }, Delay(1), &[], &[clk])
        .unwrap();
    let mut watch = vec![clk];
    for i in 0..6 {
        let n = b.node(&format!("n{i}"), 1);
        let m = b.node(&format!("m{i}"), 1);
        b.element(&format!("inv{i}"), ElementKind::Not, Delay(1), &[clk], &[n]).unwrap();
        b.element(&format!("buf{i}"), ElementKind::Not, Delay(1), &[n], &[m]).unwrap();
        watch.extend([n, m]);
    }
    let netlist = b.finish().unwrap();
    let digest = netlist_digest(&netlist);
    let (end, cut) = (40u64, 9u64);
    // Lane 0 follows the base clock (toggles at the cut, first rank in
    // flight); the others have one edge, at the cut and one step before it
    // (second rank in flight).
    let bit = Value::bit;
    let stim: Vec<LaneStimulus> = std::iter::once(LaneStimulus::base())
        .chain([9u64, 8].map(|edge| {
            let sched =
                vec![(Time(0), bit(false)), (Time(edge), bit(true)), (Time(21), bit(false))];
            LaneStimulus::base().drive(clk, sched)
        }))
        .collect();
    let config_at =
        |threads: usize| SimConfig::new(Time(end)).watch_all(watch.clone()).threads(threads);
    let encoded =
        |snaps: &[EngineSnapshot]| snaps.iter().map(|s| s.encode(digest)).collect::<Vec<_>>();

    let (_, one_thread) =
        CompiledMode::run_batch_segment(&netlist, &config_at(1), &stim, None, Time(cut)).unwrap();
    for (l, snap) in one_thread.iter().enumerate() {
        assert!(!snap.pending.is_empty(), "lane {l}: the cut catches events in flight");
        assert!(snap.pending.iter().all(|ev| ev.time == cut + 1));
    }

    for threads in [2usize, 3] {
        let cfg = config_at(threads);
        let (whole, _) =
            CompiledMode::run_batch_segment(&netlist, &cfg, &stim, None, Time(end)).unwrap();
        let (head, snaps) =
            CompiledMode::run_batch_segment(&netlist, &cfg, &stim, None, Time(cut)).unwrap();
        assert_eq!(encoded(&snaps), encoded(&one_thread), "x{threads}: snapshot bytes");

        // Resumed at the cut's thread count and at one thread.
        for resumed in [threads, 1] {
            let (tail, _) = CompiledMode::run_batch_segment(
                &netlist,
                &config_at(resumed),
                &stim,
                Some(&snaps),
                Time(end),
            )
            .unwrap();
            for (l, lane) in head.lanes.iter().enumerate() {
                let mut stitched = lane.clone();
                stitched.append_segment(&tail.lanes[l]);
                for &n in &watch {
                    let w = stitched.waveform(n).unwrap();
                    let case = format!("lane {l} node {n:?}, cut x{threads}, resumed x{resumed}");
                    assert!(w.times().windows(2).all(|p| p[0] < p[1]), "{case}");
                    let whole_w = whole.lanes[l].waveform(n).unwrap();
                    assert_eq!(
                        w.changes().collect::<Vec<_>>(),
                        whole_w.changes().collect::<Vec<_>>(),
                        "{case}"
                    );
                }
            }
        }
    }
}

/// A two-inverter chain: another netlist than [`circuit`], for snapshots
/// of the wrong shape.
fn foreign_netlist() -> Netlist {
    let mut b = Builder::new();
    let (a, m, q) = (b.node("a", 1), b.node("m", 1), b.node("q", 1));
    let osc = ElementKind::Clock { half_period: 2, offset: 1 };
    b.element("osc", osc, Delay(1), &[], &[a]).unwrap();
    b.element("i0", ElementKind::Not, Delay(1), &[a], &[m]).unwrap();
    b.element("i1", ElementKind::Not, Delay(1), &[m], &[q]).unwrap();
    b.finish().unwrap()
}

/// Resume validation: wrong snapshot count, mismatched times, a cut not
/// after the snapshot time, a snapshot of another netlist and one
/// captured for another horizon are all rejected.
#[test]
fn resume_validation_rejects_bad_snapshots() {
    let (netlist, watch, _) = circuit();
    let stim = stimuli(3, 40);
    let cfg = config(40, &watch);
    let (_, snaps) =
        CompiledMode::run_batch_segment(&netlist, &cfg, &stim, None, Time(20)).unwrap();

    let err = CompiledMode::run_batch_segment(&netlist, &cfg, &stim, Some(&snaps[..2]), Time(40));
    assert!(matches!(err, Err(SimError::InvalidConfig { .. })));

    let mut skewed = snaps.clone();
    skewed[1].time = 19;
    let err = CompiledMode::run_batch_segment(&netlist, &cfg, &stim, Some(&skewed), Time(40));
    assert!(matches!(err, Err(SimError::InvalidConfig { .. })));

    let err = CompiledMode::run_batch_segment(&netlist, &cfg, &stim, Some(&snaps), Time(20));
    assert!(matches!(err, Err(SimError::InvalidConfig { .. })));

    let foreign = foreign_netlist();
    let base = vec![LaneStimulus::base(); 3];
    let fcfg = SimConfig::new(Time(40)).with_lane_width(64);
    let (_, alien) =
        CompiledMode::run_batch_segment(&foreign, &fcfg, &base, None, Time(20)).unwrap();
    let err = CompiledMode::run_batch_segment(&netlist, &cfg, &stim, Some(&alien), Time(40));
    assert!(
        matches!(err, Err(SimError::Checkpoint(CheckpointError::ShapeMismatch { .. }))),
        "{err:?}"
    );

    let (_, later) =
        CompiledMode::run_batch_segment(&netlist, &config(60, &watch), &stim, None, Time(20))
            .unwrap();
    let err = CompiledMode::run_batch_segment(&netlist, &cfg, &stim, Some(&later), Time(40));
    assert!(
        matches!(
            err,
            Err(SimError::Checkpoint(CheckpointError::EndTimeMismatch { snapshot: 60, config: 40 }))
        ),
        "{err:?}"
    );
}

/// `EventDriven::run_lane_segment` applies the same check as the batch.
#[test]
fn lane_segment_resume_rejects_bad_snapshots() {
    let (netlist, watch, _) = circuit();
    let stim = &stimuli(1, 40)[0];
    let cfg = SimConfig::new(Time(40)).watch_all(watch.clone());
    let run = |snap: &EngineSnapshot| {
        EventDriven::run_lane_segment(&netlist, &cfg, stim, Some(snap), Time(40)).map(|_| ())
    };

    let foreign = foreign_netlist();
    let fcfg = SimConfig::new(Time(40));
    let (_, alien) =
        EventDriven::run_lane_segment(&foreign, &fcfg, &LaneStimulus::base(), None, Time(20))
            .unwrap();
    let err = run(&alien);
    assert!(
        matches!(err, Err(SimError::Checkpoint(CheckpointError::ShapeMismatch { .. }))),
        "{err:?}"
    );

    let lcfg = SimConfig::new(Time(60)).watch_all(watch);
    let (_, later) = EventDriven::run_lane_segment(&netlist, &lcfg, stim, None, Time(20)).unwrap();
    let err = run(&later);
    assert!(
        matches!(
            err,
            Err(SimError::Checkpoint(CheckpointError::EndTimeMismatch { snapshot: 60, config: 40 }))
        ),
        "{err:?}"
    );
}

/// `Arc` is used by `LaneStimulus` docs' `Vector` form; keep the import
/// exercised for the override-vs-vector equivalence below.
#[test]
fn override_matches_vector_driver_through_a_cut() {
    // One lane, driven two ways: as a batch override cut at t=25, and as
    // a netlist-baked Vector generator run straight through. The stitched
    // override waveform must match the baked one.
    let end = 50u64;
    let sched: Vec<(Time, Value)> = vec![
        (Time(0), Value::bit(false)),
        (Time(7), Value::bit(true)),
        (Time(19), Value::x(1)),
        (Time(30), Value::bit(true)),
        (Time(41), Value::bit(false)),
    ];
    let build = |bake: bool| {
        let mut b = Builder::new();
        let d = b.node("d", 1);
        let q = b.node("q", 1);
        if bake {
            let changes: Arc<[(u64, Value)]> = sched
                .iter()
                .map(|&(t, v)| (t.ticks(), v))
                .collect::<Vec<_>>()
                .into();
            b.element("vec", ElementKind::Vector { changes }, Delay(1), &[], &[d])
                .unwrap();
        }
        b.element("inv", ElementKind::Not, Delay(1), &[d], &[q])
            .unwrap();
        (b.finish().unwrap(), d, q)
    };

    let (baked, _, q) = build(true);
    let cfg = SimConfig::new(Time(end)).watch(q);
    let oracle = CompiledMode::run(&baked, &cfg).unwrap();

    let (floating, d, q) = build(false);
    let cfg = SimConfig::new(Time(end)).watch(q).with_lane_width(64);
    let stim = vec![LaneStimulus::base().drive(d, sched.clone())];
    let (head, snaps) =
        CompiledMode::run_batch_segment(&floating, &cfg, &stim, None, Time(25)).unwrap();
    let (tail, _) =
        CompiledMode::run_batch_segment(&floating, &cfg, &stim, Some(&snaps), Time(end)).unwrap();
    let mut stitched: Vec<_> = head.lanes[0].waveform(q).unwrap().changes().collect();
    stitched.extend(tail.lanes[0].waveform(q).unwrap().changes());
    assert_eq!(stitched, oracle.waveform(q).unwrap().changes().collect::<Vec<_>>());
}
