//! Circuits with memory elements (the paper's coarse functional level:
//! "entire complex microprocessors").

use parsim_circuits::functional_cpu;
use parsim_core::{EventDriven, SimConfig};
use parsim_logic::{Delay, ElementKind, Time, Value};
use parsim_netlist::Builder;

use crate::support::{check, Circuit};

#[test]
fn functional_cpu_all_engines_agree() {
    let cpu = functional_cpu(32).unwrap();
    check(&Circuit::new(
        "functional cpu",
        &cpu.netlist,
        [cpu.acc, cpu.mem_out],
        Time(2000),
    ));
}

#[test]
fn functional_cpu_accumulator_computes() {
    let cpu = functional_cpu(32).unwrap();
    let cfg = SimConfig::new(Time(4000)).watch(cpu.acc);
    let r = EventDriven::run(&cpu.netlist, &cfg).unwrap();
    let w = r.waveform(cpu.acc).unwrap();
    // The accumulator leaves reset and keeps taking new values. Reads of
    // never-written memory cells legitimately poison it to X (read-first
    // RAM starts all-X), and arithmetic propagates the X until the next
    // `acc = imm` instruction — so we assert recurring recovery, not
    // permanent knownness.
    assert!(
        w.num_changes() >= 10,
        "acc changed {} times",
        w.num_changes()
    );
    let mut known = 0;
    let mut distinct_known = std::collections::HashSet::new();
    for cycle in 4..60u64 {
        let t = Time(cycle * 64 + 40);
        let v = w.value_at(t);
        if let Some(val) = v.to_u64() {
            known += 1;
            distinct_known.insert(val);
        }
    }
    assert!(known >= 5, "acc known in only {known}/56 samples");
    assert!(
        distinct_known.len() >= 3,
        "acc should take several distinct known values: {distinct_known:?}"
    );
}

/// A directed memory test: write a known pattern, read it back through
/// the simulator, byte for byte.
#[test]
fn memory_write_read_cycle_via_simulation() {
    // addr cycles 0,1,2,3; we is high for the first 4 writes then low;
    // wdata = addr * 3 + 1. After the write pass, reads must return the
    // written values.
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    b.element(
        "clkgen",
        ElementKind::Clock {
            half_period: 8,
            offset: 8,
        },
        Delay(1),
        &[],
        &[clk],
    )
    .unwrap();
    let addr = b.node("addr", 2);
    let addr_vals: Vec<Value> = (0..4u64).map(|a| Value::from_u64(a, 2)).collect();
    b.element(
        "addrgen",
        ElementKind::Pattern {
            period: 16,
            values: addr_vals.into(),
        },
        Delay(1),
        &[],
        &[addr],
    )
    .unwrap();
    let we = b.node("we", 1);
    b.element(
        "wegen",
        ElementKind::Pulse { at: 0, width: 64 },
        Delay(1),
        &[],
        &[we],
    )
    .unwrap();
    let wdata = b.node("wdata", 8);
    let data_vals: Vec<Value> = (0..4u64).map(|a| Value::from_u64(a * 3 + 1, 8)).collect();
    b.element(
        "datagen",
        ElementKind::Pattern {
            period: 16,
            values: data_vals.into(),
        },
        Delay(1),
        &[],
        &[wdata],
    )
    .unwrap();
    let rdata = b.node("rdata", 8);
    b.element(
        "mem",
        ElementKind::Memory {
            addr_bits: 2,
            width: 8,
        },
        Delay(1),
        &[clk, we, addr, wdata],
        &[rdata],
    )
    .unwrap();
    let n = b.finish().unwrap();
    let out = check(&Circuit::new("memory write/read", &n, [rdata], Time(200)));

    // Writes land on rising edges at t = 8, 24, 40, 56 (addr 0..3).
    // The second pass (t = 72, 88, 104, 120) re-reads the same addresses
    // with we low; rdata updates one delay after each edge.
    let w = out.oracle.waveform(rdata).unwrap();
    for (k, expected) in (0..4u64).map(|a| a * 3 + 1).enumerate() {
        let t = Time(72 + 16 * k as u64 + 4);
        assert_eq!(
            w.value_at(t).to_u64(),
            Some(expected),
            "readback of cell {k} at {t}"
        );
    }
}
