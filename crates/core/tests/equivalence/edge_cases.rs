//! Defensive edge cases every engine must survive: empty circuits,
//! zero-length simulations, delays beyond the horizon, and maximum
//! widths.

use parsim_core::{
    assert_equivalent, ChaoticAsync, CompiledMode, EventDriven, SimConfig, SyncEventDriven,
};
use parsim_logic::{Delay, ElementKind, Time, Value};
use parsim_netlist::Builder;

use crate::support::{check, Circuit};

#[test]
fn empty_netlist() {
    let n = Builder::new().finish().unwrap();
    check(&Circuit::new("empty netlist", &n, [], Time(100)));
}

#[test]
fn nodes_without_elements() {
    let mut b = Builder::new();
    let a = b.node("a", 8);
    let n = b.finish().unwrap();
    let r = check(&Circuit::new("no elements", &n, [a], Time(50))).oracle;
    assert_eq!(r.final_value(a), Some(Value::x(8)));
}

#[test]
fn generator_only_circuit() {
    let mut b = Builder::new();
    let c = b.node("c", 1);
    b.element(
        "osc",
        ElementKind::Clock {
            half_period: 3,
            offset: 3,
        },
        Delay(1),
        &[],
        &[c],
    )
    .unwrap();
    let n = b.finish().unwrap();
    check(&Circuit::new("generator only", &n, [c], Time(30)));
}

#[test]
fn zero_end_time() {
    let mut b = Builder::new();
    let c = b.node("c", 1);
    let y = b.node("y", 1);
    b.element(
        "k",
        ElementKind::Const {
            value: Value::bit(true),
        },
        Delay(1),
        &[],
        &[c],
    )
    .unwrap();
    b.element("inv", ElementKind::Not, Delay(1), &[c], &[y])
        .unwrap();
    let n = b.finish().unwrap();
    let r = check(&Circuit::new("zero end time", &n, [c, y], Time(0))).oracle;
    // The constant lands at t=0; the inverter's response would land at
    // t=1, beyond the horizon.
    assert_eq!(r.final_value(c), Some(Value::bit(true)));
    assert_eq!(r.final_value(y), Some(Value::x(1)));
}

#[test]
fn delay_beyond_horizon_never_fires() {
    let mut b = Builder::new();
    let c = b.node("c", 1);
    let y = b.node("y", 1);
    b.element(
        "k",
        ElementKind::Const {
            value: Value::bit(false),
        },
        Delay(1),
        &[],
        &[c],
    )
    .unwrap();
    b.element("slow", ElementKind::Not, Delay(1_000_000), &[c], &[y])
        .unwrap();
    let n = b.finish().unwrap();
    // Compiled mode imposes unit delay by definition, so the driver keeps
    // this deliberately non-unit-delay circuit off its rows.
    let out = check(&Circuit::new("delay beyond horizon", &n, [y], Time(100)));
    assert!(out.quiet_steps.is_none(), "not a unit-delay netlist");
    assert_eq!(out.oracle.final_value(y), Some(Value::x(1)));
}

#[test]
fn width_64_datapath() {
    let mut b = Builder::new();
    let a = b.node("a", 64);
    let c = b.node("c", 64);
    let cin = b.node("cin", 1);
    let sum = b.node("sum", 64);
    let cout = b.node("cout", 1);
    b.element(
        "ga",
        ElementKind::Const {
            value: Value::from_u64(u64::MAX, 64),
        },
        Delay(1),
        &[],
        &[a],
    )
    .unwrap();
    b.element(
        "gb",
        ElementKind::Const {
            value: Value::from_u64(1, 64),
        },
        Delay(1),
        &[],
        &[c],
    )
    .unwrap();
    b.element(
        "gc",
        ElementKind::Const {
            value: Value::bit(false),
        },
        Delay(1),
        &[],
        &[cin],
    )
    .unwrap();
    b.element(
        "add",
        ElementKind::Adder { width: 64 },
        Delay(1),
        &[a, c, cin],
        &[sum, cout],
    )
    .unwrap();
    let n = b.finish().unwrap();
    let r = check(&Circuit::new("64-bit adder", &n, [sum, cout], Time(10))).oracle;
    assert_eq!(r.final_value(sum), Some(Value::from_u64(0, 64)));
    assert_eq!(r.final_value(cout), Some(Value::bit(true)));
}

#[test]
fn more_threads_than_elements() {
    let mut b = Builder::new();
    let c = b.node("c", 1);
    let y = b.node("y", 1);
    b.element(
        "osc",
        ElementKind::Clock {
            half_period: 2,
            offset: 2,
        },
        Delay(1),
        &[],
        &[c],
    )
    .unwrap();
    b.element("inv", ElementKind::Not, Delay(1), &[c], &[y])
        .unwrap();
    let n = b.finish().unwrap();
    let cfg = SimConfig::new(Time(40)).watch(y).threads(8);
    let seq = EventDriven::run(&n, &cfg).unwrap();
    assert_equivalent(&seq, &SyncEventDriven::run(&n, &cfg).unwrap(), "sync x8");
    assert_equivalent(&seq, &ChaoticAsync::run(&n, &cfg).unwrap(), "async x8");
    assert_equivalent(&seq, &CompiledMode::run(&n, &cfg).unwrap(), "compiled x8");
}

#[test]
fn self_loop_element() {
    // A DFF whose data input is its own output, kicked by a reset: q
    // holds 0 forever after reset, but the wiring exercises
    // self-activation in the asynchronous engine.
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    let rst = b.node("rst", 1);
    let q = b.node("q", 1);
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
    b.element(
        "porst",
        ElementKind::Pulse { at: 0, width: 2 },
        Delay(1),
        &[],
        &[rst],
    )
    .unwrap();
    b.element(
        "ff",
        ElementKind::DffR { width: 1 },
        Delay(1),
        &[clk, q, rst],
        &[q],
    )
    .unwrap();
    let n = b.finish().unwrap();
    let r = check(&Circuit::new("self loop", &n, [q], Time(60))).oracle;
    assert_eq!(r.final_value(q), Some(Value::bit(false)));
}

#[test]
fn wide_fan_in_gates_replay_every_pin() {
    // Every n-ary gate kind at every fan-in from 2 to 9 (with NOT and BUF
    // as the one-input gates), over sources that toggle at coprime
    // periods, never change, or go to X and Z; then a second level over
    // the first, a gate reading one node on two pins, a mux whose select
    // goes unknown, and a two-output adder. The chaotic engine replays
    // each pin from its own cursor, so this puts every pin position of
    // its replay under the oracle.
    let mut b = Builder::new();
    let source = |b: &mut Builder, name: &str, width: u8, kind: ElementKind| {
        let node = b.node(name, width);
        b.element(&format!("{name}_gen"), kind, Delay(1), &[], &[node])
            .unwrap();
        node
    };
    let clock = |half_period: u64, offset: u64| ElementKind::Clock {
        half_period,
        offset,
    };
    let konst = |bit: bool| ElementKind::Const {
        value: Value::bit(bit),
    };
    let (zero, one) = (Value::bit(false), Value::bit(true));
    let pool = [
        source(&mut b, "c2", 1, clock(2, 1)),
        source(&mut b, "c3", 1, clock(3, 2)),
        source(
            &mut b,
            "xz",
            1,
            ElementKind::Pattern {
                period: 4,
                values: vec![zero, Value::x(1), one, Value::z(1)].into(),
            },
        ),
        source(&mut b, "k1", 1, konst(true)),
        source(&mut b, "c5", 1, clock(5, 1)),
        source(
            &mut b,
            "v",
            1,
            ElementKind::Vector {
                changes: vec![(0, Value::z(1)), (9, one), (17, Value::x(1)), (30, zero)].into(),
            },
        ),
        source(&mut b, "k0", 1, konst(false)),
        source(&mut b, "c7", 1, clock(7, 4)),
        source(
            &mut b,
            "l",
            1,
            ElementKind::Lfsr {
                width: 1,
                period: 3,
                seed: 5,
            },
        ),
    ];
    let kinds = [
        ElementKind::And,
        ElementKind::Nand,
        ElementKind::Or,
        ElementKind::Xor,
        ElementKind::Xnor,
    ];
    let gate = |b: &mut Builder, name: String, kind: ElementKind, ins: &[_]| {
        let out = b.node(&name, 1);
        b.element(&format!("{name}_g"), kind, Delay(1), ins, &[out])
            .unwrap();
        out
    };
    let mut first = Vec::new();
    for (k, kind) in kinds.iter().enumerate() {
        for n in 2..=pool.len() {
            // A different window of the pool for every gate.
            let ins: Vec<_> = (0..n).map(|i| pool[(k + n + i) % pool.len()]).collect();
            first.push(gate(&mut b, format!("{kind:?}{n}"), kind.clone(), &ins));
        }
    }
    first.push(gate(&mut b, "not".into(), ElementKind::Not, &[pool[2]]));
    first.push(gate(&mut b, "buf".into(), ElementKind::Buf, &[pool[5]]));
    // Second level: inputs that become valid at different times.
    let mut second = Vec::new();
    for (k, kind) in kinds.iter().enumerate() {
        let ins: Vec<_> = (0..9).map(|i| first[(5 * k + 4 * i) % first.len()]).collect();
        second.push(gate(&mut b, format!("{kind:?}_l2"), kind.clone(), &ins));
    }
    let twice = [first[3], pool[0], first[3]];
    second.push(gate(&mut b, "twice".into(), ElementKind::Xor, &twice));
    let mux_ins = [pool[2], pool[0], first[20]];
    second.push(gate(&mut b, "mux".into(), ElementKind::Mux { width: 1 }, &mux_ins));

    let a = source(
        &mut b,
        "a",
        4,
        ElementKind::Lfsr {
            width: 4,
            period: 5,
            seed: 9,
        },
    );
    let c = source(
        &mut b,
        "c",
        4,
        ElementKind::Pattern {
            period: 6,
            values: vec![Value::from_u64(3, 4), Value::x(4), Value::from_u64(12, 4)].into(),
        },
    );
    let sum = b.node("sum", 4);
    let cout = b.node("cout", 1);
    b.element(
        "add",
        ElementKind::Adder { width: 4 },
        Delay(1),
        &[a, c, second[0]],
        &[sum, cout],
    )
    .unwrap();

    let n = b.finish().unwrap();
    let watch: Vec<_> = n.iter_nodes().map(|(id, _)| id).collect();
    check(&Circuit::new("wide fan-in", &n, watch, Time(200)));
}
