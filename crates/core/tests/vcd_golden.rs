//! VCD bytes, pinned against something other than `to_vcd` itself.
//!
//! Two anchors: a literal small enough to check by hand, and the encoder
//! this crate shipped before the allocation-free one — kept here verbatim
//! as a reference and compared byte for byte on real circuits, and the
//! three ways a `SimResult` comes to be other than straight from an engine
//! (`restricted`, `append_segment`, duplicate watch entries, the last on
//! every engine through the equivalence driver).

use std::fmt::Write as _;

mod support;

use parsim_circuits::{gate_multiplier, pipelined_cpu};
use parsim_core::{CompiledMode, EventDriven, LaneStimulus, SimConfig, SimResult};
use parsim_logic::{Delay, ElementKind, Time, Value};
use parsim_netlist::{Builder, Netlist, NodeId};

use support::{check, Circuit};

/// The retired encoder: two `String`s and a `fmt` call per change, then a
/// global sort. Slow, obviously right, and the format's definition.
fn reference_vcd(r: &SimResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$timescale 1ns $end");
    let _ = writeln!(out, "$scope module parsim $end");
    let ws = r.waveforms();
    let ident = |i: usize| -> String {
        // VCD identifier alphabet: printable ASCII 33..=126.
        let mut s = String::new();
        let mut v = i;
        loop {
            s.push((33 + (v % 94)) as u8 as char);
            v /= 94;
            if v == 0 {
                break;
            }
        }
        s
    };
    for (i, w) in ws.iter().enumerate() {
        let _ = writeln!(
            out,
            "$var wire {} {} {} $end",
            w.width(),
            ident(i),
            w.name()
        );
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");
    // Group changes by time.
    let mut all: Vec<(Time, usize, Value)> = Vec::new();
    for (i, w) in ws.iter().enumerate() {
        all.push((Time::ZERO, i, w.value_at(Time::ZERO)));
        for (t, v) in w.changes() {
            if t > Time::ZERO {
                all.push((t, i, v));
            }
        }
    }
    all.sort_by_key(|&(t, i, _)| (t, i));
    let mut last_time = None;
    for (t, i, v) in all {
        if last_time != Some(t) {
            let _ = writeln!(out, "#{}", t.ticks());
            last_time = Some(t);
        }
        if v.width() == 1 {
            let _ = writeln!(out, "{}{}", v.to_binary_string(), ident(i));
        } else {
            let _ = writeln!(out, "b{} {}", v.to_binary_string(), ident(i));
        }
    }
    out
}

fn assert_matches_reference(r: &SimResult, tag: &str) {
    let got = r.to_vcd();
    let want = reference_vcd(r);
    // Not `assert_eq!`: a mismatch would print two ~100 KB strings.
    if got != want {
        let at = got.bytes().zip(want.bytes()).position(|(a, b)| a != b);
        panic!(
            "{tag}: VCD differs from the reference encoder ({} vs {} bytes, first difference at {at:?})",
            got.len(),
            want.len()
        );
    }
}

/// 93 undriven filler nodes push the interesting ones across the
/// one-character/two-character identifier boundary (94 symbols).
const FILLERS: usize = 93;

/// `f0..f92` float at `x`; `clk` toggles every 2 ticks from t = 2; `k` is a
/// 4-bit constant with an `x` and a `z` bit, applied at t = 0; `en` pulses
/// high over [3, 5); `bus` is `k` through a tri-state buffer (delay 1), so
/// it reads all-`z` while `en` is low.
fn tiny() -> (Netlist, Vec<NodeId>) {
    let mut b = Builder::new();
    let mut watch: Vec<NodeId> = (0..FILLERS).map(|i| b.node(&format!("f{i}"), 1)).collect();
    let clk = b.node("clk", 1);
    let k = b.node("k", 4);
    let en = b.node("en", 1);
    let bus = b.node("bus", 4);
    let clock = ElementKind::Clock {
        half_period: 2,
        offset: 2,
    };
    b.element("osc", clock, Delay(1), &[], &[clk]).unwrap();
    let value: Value = "4'b1x0z".parse().unwrap();
    b.element("kk", ElementKind::Const { value }, Delay(1), &[], &[k])
        .unwrap();
    b.element("pulse", ElementKind::Pulse { at: 3, width: 2 }, Delay(1), &[], &[en])
        .unwrap();
    b.element("tri", ElementKind::TriBuf { width: 4 }, Delay(1), &[en, k], &[bus])
        .unwrap();
    watch.extend([clk, k, en, bus]);
    (b.finish().unwrap(), watch)
}

#[test]
fn tiny_circuit_matches_the_literal() {
    let (netlist, watch) = tiny();
    let cfg = SimConfig::new(Time(6)).watch_all(watch);
    let r = EventDriven::run(&netlist, &cfg).unwrap();

    let mut want = String::from("$timescale 1ns $end\n$scope module parsim $end\n");
    // Identifiers `!` (33) .. `}` (125) for the fillers, in node order.
    let filler_ids: Vec<char> = ('!'..='}').collect();
    assert_eq!(filler_ids.len(), FILLERS);
    for (i, id) in filler_ids.iter().enumerate() {
        want.push_str(&format!("$var wire 1 {id} f{i} $end\n"));
    }
    // Index 93 is the last one-character identifier; 94 wraps to `!"`
    // (least significant symbol first).
    want.push_str(
        "$var wire 1 ~ clk $end\n\
         $var wire 4 !\" k $end\n\
         $var wire 1 \"\" en $end\n\
         $var wire 4 #\" bus $end\n\
         $upscope $end\n\
         $enddefinitions $end\n\
         #0\n",
    );
    for id in &filler_ids {
        want.push_str(&format!("x{id}\n"));
    }
    want.push_str(
        "0~\n\
         b1x0z !\"\n\
         0\"\"\n\
         bxxxx #\"\n\
         #1\n\
         bzzzz #\"\n\
         #2\n\
         1~\n\
         #3\n\
         1\"\"\n\
         #4\n\
         0~\n\
         b1x0z #\"\n\
         #5\n\
         0\"\"\n\
         #6\n\
         1~\n\
         bzzzz #\"\n",
    );
    assert_eq!(r.to_vcd(), want);
    assert_matches_reference(&r, "tiny");
}

/// Times past 2^16, 2^32 and 2^48: the encoder's grouping by time takes
/// one 16-bit digit a pass, so each of these adds a pass, and times that
/// agree in their low digits (3 and 65 539, 7 and 2^32 + 7) must not merge.
#[test]
fn late_times_are_grouped_in_order() {
    let mut b = Builder::new();
    let a = b.node("a", 1);
    let y = b.node("y", 2);
    let bit = |v| Value::from_u64(v, 1);
    let two = |v| Value::from_u64(v, 2);
    let on_a = vec![(3, bit(1)), (65_539, bit(0)), ((1 << 32) + 7, bit(1)), (1 << 48, bit(0))];
    let on_y = vec![(7, two(1)), (65_536, two(2)), ((1 << 32) + 7, two(3)), ((1 << 48) + 1, two(0))];
    b.element("va", ElementKind::Vector { changes: on_a.into() }, Delay(1), &[], &[a])
        .unwrap();
    b.element("vy", ElementKind::Vector { changes: on_y.into() }, Delay(1), &[], &[y])
        .unwrap();
    let netlist = b.finish().unwrap();
    let cfg = SimConfig::new(Time((1 << 48) + 1)).watch_all([y, a]);
    let r = EventDriven::run(&netlist, &cfg).unwrap();
    let want = "$timescale 1ns $end\n$scope module parsim $end\n\
                $var wire 1 ! a $end\n$var wire 2 \" y $end\n\
                $upscope $end\n$enddefinitions $end\n\
                #0\nx!\nbxx \"\n\
                #3\n1!\n\
                #7\nb01 \"\n\
                #65536\nb10 \"\n\
                #65539\n0!\n\
                #4294967303\n1!\nb11 \"\n\
                #281474976710656\n0!\n\
                #281474976710657\nb00 \"\n";
    assert_eq!(r.to_vcd(), want);
    assert_matches_reference(&r, "late times");
}

fn all_nodes(netlist: &Netlist) -> Vec<NodeId> {
    netlist.iter_nodes().map(|(id, _)| id).collect()
}

/// The oracle's all-nodes dump is the reference encoder's, on the
/// multiplier and on the CPU. The equivalence driver holds every engine
/// configuration to the oracle's bytes; `tests/full_stack.rs` runs it on
/// these two circuits with every node watched.
#[test]
fn the_oracle_matches_the_reference_encoder_with_all_nodes_watched() {
    let m = gate_multiplier(8, &[(123, 231), (255, 1)], 160).unwrap();
    let cpu = pipelined_cpu(8, 48).unwrap();
    for (name, netlist, end) in [
        ("multiplier", &m.netlist, m.schedule_end()),
        ("cpu", &cpu.netlist, Time(400)),
    ] {
        let cfg = SimConfig::new(end).watch_all(all_nodes(netlist));
        assert_matches_reference(&EventDriven::run(netlist, &cfg).unwrap(), name);
    }
}

#[test]
fn duplicate_watch_entries_encode_once() {
    let m = gate_multiplier(4, &[(9, 13)], 80).unwrap();
    let mut watch = m.product.clone();
    watch.extend(m.product.iter().rev().copied());
    watch.push(m.product[0]);
    let end = m.schedule_end();
    let once = EventDriven::run(&m.netlist, &SimConfig::new(end).watch_all(m.product.clone()))
        .unwrap();
    let r = check(&Circuit::new("duplicate watch", &m.netlist, watch, end)).oracle;
    assert_matches_reference(&r, "duplicate watch");
    assert_eq!(r.to_vcd(), once.to_vcd(), "duplicates changed the document");
    assert_eq!(r.waveforms().len(), m.product.len());
}

#[test]
fn restricted_view_matches_the_reference_encoder() {
    let cpu = pipelined_cpu(8, 48).unwrap();
    let cfg = SimConfig::new(Time(400)).watch_all(all_nodes(&cpu.netlist));
    let full = EventDriven::run(&cpu.netlist, &cfg).unwrap();
    // Out of node order, with a repeat, cut mid-run.
    let mut watch = cpu.wb_result.clone();
    watch.extend(cpu.pc.iter().rev().copied());
    watch.push(cpu.clk);
    watch.push(cpu.pc[0]);
    let view = full.restricted(&watch, Time(250));
    assert_matches_reference(&view, "restricted");
    let direct = EventDriven::run(&cpu.netlist, &SimConfig::new(Time(250)).watch_all(watch))
        .unwrap();
    assert_eq!(view.to_vcd(), direct.to_vcd(), "a restricted view is the run it restricts to");
}

#[test]
fn stitched_segments_match_the_reference_encoder() {
    let m = gate_multiplier(4, &[(9, 13), (15, 15)], 80).unwrap();
    let end = m.schedule_end();
    let cfg = SimConfig::new(end).watch_all(all_nodes(&m.netlist));
    let stim = [LaneStimulus::base(), LaneStimulus::base()];
    let (whole, _) =
        CompiledMode::run_batch_segment(&m.netlist, &cfg, &stim, None, end).unwrap();
    let cut = Time(end.ticks() / 3);
    let (head, snaps) =
        CompiledMode::run_batch_segment(&m.netlist, &cfg, &stim, None, cut).unwrap();
    let (tail, _) =
        CompiledMode::run_batch_segment(&m.netlist, &cfg, &stim, Some(&snaps), end).unwrap();
    for (lane, (mut stitched, tail)) in head.lanes.into_iter().zip(&tail.lanes).enumerate() {
        stitched.append_segment(tail);
        assert_matches_reference(&stitched, &format!("stitched lane {lane}"));
        assert_eq!(stitched.to_vcd(), whole.lanes[lane].to_vcd(), "lane {lane}: head ++ tail");
    }
    // A node watched only in the later segment is adopted whole.
    let narrow = SimConfig::new(end).watch_all(m.product.clone());
    let (mut head, snaps) =
        CompiledMode::run_batch_segment(&m.netlist, &narrow, &stim, None, cut).unwrap();
    let (tail, _) =
        CompiledMode::run_batch_segment(&m.netlist, &cfg, &stim, Some(&snaps), end).unwrap();
    head.lanes[0].append_segment(&tail.lanes[0]);
    assert_eq!(head.lanes[0].waveforms().len(), m.netlist.num_nodes());
    assert_matches_reference(&head.lanes[0], "stitched, wider tail");
}
