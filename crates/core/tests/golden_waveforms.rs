//! Golden waveform hashes: locks the exact simulation semantics of the
//! paper circuits against accidental drift.
//!
//! If one of these hashes changes, a code change altered observable
//! simulation behavior. That may be intentional (e.g. a semantics fix) —
//! update the constant *after* confirming the new waveforms are correct
//! and that all engines still agree.

use parsim_circuits::{functional_multiplier, gate_multiplier, inverter_array, pipelined_cpu};
use parsim_core::{EventDriven, SimConfig, SimResult};
use parsim_logic::Time;
use parsim_netlist::Netlist;

/// FNV-1a over every watched waveform's `(name, time, value)` stream.
fn waveform_hash(result: &SimResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for w in result.waveforms() {
        eat(w.name().as_bytes());
        for (t, v) in w.changes() {
            eat(&t.ticks().to_le_bytes());
            eat(v.to_binary_string().as_bytes());
        }
    }
    h
}

fn run_all_nodes(netlist: &Netlist, end: Time) -> u64 {
    let watch: Vec<_> = netlist.iter_nodes().map(|(id, _)| id).collect();
    let r = EventDriven::run(netlist, &SimConfig::new(end).watch_all(watch)).unwrap();
    waveform_hash(&r)
}

#[test]
fn golden_inverter_array() {
    let arr = inverter_array(8, 8, 2).unwrap();
    assert_eq!(run_all_nodes(&arr.netlist, Time(200)), 0x63e4f517dc844695);
}

#[test]
fn golden_gate_multiplier() {
    let m = gate_multiplier(8, &[(123, 231), (255, 255)], 160).unwrap();
    assert_eq!(run_all_nodes(&m.netlist, m.schedule_end()), 0x34b280cc288ca34e);
}

#[test]
fn golden_functional_multiplier() {
    let m = functional_multiplier(&[(40_000, 50_000), (7, 9)], 64).unwrap();
    assert_eq!(run_all_nodes(&m.netlist, m.schedule_end()), 0x2205beee247635);
}

#[test]
fn golden_pipelined_cpu() {
    let cpu = pipelined_cpu(8, 48).unwrap();
    assert_eq!(run_all_nodes(&cpu.netlist, Time(800)), 0x65a71b7032ebc60b);
}
