//! The paper's benchmark circuits, scaled down: inverter array, gate-level
//! multiplier, functional multiplier and pipelined CPU — and the values
//! they compute. The CPU's matrix is `tests/full_stack.rs`'s, every node
//! watched.

use parsim_circuits::{functional_multiplier, gate_multiplier, inverter_array, pipelined_cpu};
use parsim_core::{EventDriven, SimConfig};
use parsim_logic::Time;

use crate::support::{check, Circuit};

#[test]
fn inverter_array_all_engines() {
    let arr = inverter_array(8, 8, 2).unwrap();
    let watch = arr.taps.iter().chain(&arr.inputs).copied();
    check(&Circuit::new(
        "inverter array 8x8",
        &arr.netlist,
        watch,
        Time(120),
    ));
}

#[test]
fn inverter_array_sparse_events() {
    // Slow toggling: few events per step, lots of idle time steps.
    let arr = inverter_array(4, 16, 16).unwrap();
    check(&Circuit::new(
        "sparse inverter array",
        &arr.netlist,
        arr.taps.clone(),
        Time(300),
    ));
}

#[test]
fn gate_multiplier_all_engines_and_correct_products() {
    let operands = [
        (0u64, 0u64),
        (3, 5),
        (255, 255),
        (170, 85),
        (200, 13),
        (12, 11),
        (250, 250),
        (1, 255),
    ];
    let m = gate_multiplier(8, &operands, 160).unwrap();
    let out = check(&Circuit::new(
        "gate multiplier",
        &m.netlist,
        m.product.clone(),
        m.schedule_end(),
    ));
    // Sampled products equal native arithmetic.
    for (k, expected) in m.expected_products().into_iter().enumerate() {
        let got = out.oracle.bus_value_at(&m.product, m.sample_time(k));
        assert_eq!(got, Some(expected), "product {k}");
    }
}

#[test]
fn functional_multiplier_all_engines_and_correct_products() {
    let operands = vec![(0u64, 0u64), (7, 9), (65_535, 65_535), (40_000, 3)];
    let m = functional_multiplier(&operands, 64).unwrap();
    // Delays are 1 and 2: the compiled rows do not apply.
    let out = check(&Circuit::new(
        "functional multiplier",
        &m.netlist,
        [m.product],
        m.schedule_end(),
    ));
    assert!(out.quiet_steps.is_none(), "not a unit-delay netlist");
    for (k, expected) in m.expected_products().into_iter().enumerate() {
        let got = out
            .oracle
            .waveform(m.product)
            .unwrap()
            .value_at(m.sample_time(k))
            .to_u64();
        assert_eq!(got, Some(expected), "product {k}");
    }
}

#[test]
fn pipelined_cpu_pc_advances() {
    let cpu = pipelined_cpu(8, 48).unwrap();
    let cfg = SimConfig::new(Time(1500)).watch_all(cpu.pc.clone());
    let r = EventDriven::run(&cpu.netlist, &cfg).unwrap();
    // After a few clock cycles the PC should count upwards. Sample after
    // each rising edge (clock: offset 48, half-period 48 -> rising at 48,
    // 144, 240...). The PC register captures pc+1 each edge.
    let mut values = Vec::new();
    for k in 0..8u64 {
        let t = Time(48 + 96 * k + 40); // well after the edge settles
        if let Some(v) = r.bus_value_at(&cpu.pc, t) {
            values.push(v);
        }
    }
    assert!(values.len() >= 6, "pc unreadable: {values:?}");
    for w in values.windows(2) {
        assert_eq!(w[1], (w[0] + 1) & 0xff, "pc sequence {values:?}");
    }
}
