//! Simulating ISCAS `.bench` circuits: truth-table verification of c17
//! and cross-engine equivalence under LFSR stimulus.

use parsim_core::{EventDriven, SimConfig};
use parsim_logic::{Delay, ElementKind, Time, Value};
use parsim_netlist::bench_fmt::{from_bench, BenchOptions, C17};
use parsim_netlist::Builder;

use crate::support::{check, Circuit};

/// Software model of c17.
fn c17_reference(i1: bool, i2: bool, i3: bool, i6: bool, i7: bool) -> (bool, bool) {
    let nand = |a: bool, b: bool| !(a && b);
    let n10 = nand(i1, i3);
    let n11 = nand(i3, i6);
    let n16 = nand(i2, n11);
    let n19 = nand(n11, i7);
    (nand(n10, n16), nand(n16, n19))
}

#[test]
fn c17_truth_table_exhaustive() {
    // All 32 input combinations, applied via constant drivers.
    for combo in 0..32u32 {
        let bits: Vec<bool> = (0..5).map(|k| combo & (1 << k) != 0).collect();
        // Parse with floating inputs, then rebuild with Const drivers by
        // round-tripping through the text format and a fresh builder.
        let parsed = from_bench(
            C17,
            &BenchOptions {
                input_period: None,
                ..Default::default()
            },
        )
        .unwrap();
        // Attach drivers by instantiating the parsed netlist into a new
        // builder with the inputs bound to constant nodes.
        let mut b = Builder::new();
        let input_names = ["1", "2", "3", "6", "7"];
        let mut bindings = Vec::new();
        let mut bound_nodes = Vec::new();
        for (k, name) in input_names.iter().enumerate() {
            let n = b.node(&format!("drive_{name}"), 1);
            b.element(
                &format!("const_{name}"),
                ElementKind::Const {
                    value: Value::bit(bits[k]),
                },
                Delay(1),
                &[],
                &[n],
            )
            .unwrap();
            bound_nodes.push(n);
        }
        for (k, name) in input_names.iter().enumerate() {
            bindings.push((*name, bound_nodes[k]));
        }
        let map = b.instantiate(&parsed.netlist, "c17", &bindings).unwrap();
        let out22 = map["22"];
        let out23 = map["23"];
        let n = b.finish().unwrap();

        let cfg = SimConfig::new(Time(20)).watch(out22).watch(out23);
        let r = EventDriven::run(&n, &cfg).unwrap();
        let (e22, e23) = c17_reference(bits[0], bits[1], bits[2], bits[3], bits[4]);
        assert_eq!(
            r.final_value(out22),
            Some(Value::bit(e22)),
            "combo {combo:05b} out 22"
        );
        assert_eq!(
            r.final_value(out23),
            Some(Value::bit(e23)),
            "combo {combo:05b} out 23"
        );
    }
}

#[test]
fn c17_all_engines_agree_under_lfsr_stimulus() {
    let c = from_bench(C17, &BenchOptions::default()).unwrap();
    let watch = c.outputs.iter().chain(&c.inputs).copied();
    let seq = check(&Circuit::new("c17", &c.netlist, watch, Time(400))).oracle;
    // The outputs actually toggle under stimulus.
    for &o in &c.outputs {
        assert!(
            seq.waveform(o).unwrap().num_changes() > 5,
            "output {o} is stuck"
        );
    }
}

#[test]
fn sequential_bench_circuit_simulates() {
    // A 3-bit LFSR described in .bench form (XOR feedback).
    let text = "\
INPUT(seed)
OUTPUT(q2)
q0 = DFF(fb)
q1 = DFF(q0)
q2 = DFF(q1)
fb = XOR(q1, q2, seed)
";
    let c = from_bench(text, &BenchOptions::default()).unwrap();
    check(&Circuit::new(
        "bench lfsr",
        &c.netlist,
        [c.outputs[0]],
        Time(800),
    ));
}
