//! Transparent-latch circuits — level-sensitive state is the classic
//! cross-engine hazard (a latch is transparent for whole intervals, not
//! just at edges).

use parsim_logic::{Delay, ElementKind, Time, Value};
use parsim_netlist::{Builder, Netlist, NodeId};

use crate::support::{check, Circuit};

/// A latch following a fast data signal while enabled by a slow gate.
fn latch_follower() -> (Netlist, Vec<NodeId>) {
    let mut b = Builder::new();
    let en = b.node("en", 1);
    let d = b.node("d", 1);
    let q = b.node("q", 1);
    b.element(
        "engen",
        ElementKind::Clock {
            half_period: 20,
            offset: 20,
        },
        Delay(1),
        &[],
        &[en],
    )
    .unwrap();
    b.element(
        "dgen",
        ElementKind::Clock {
            half_period: 3,
            offset: 3,
        },
        Delay(1),
        &[],
        &[d],
    )
    .unwrap();
    b.element(
        "l",
        ElementKind::Latch { width: 1 },
        Delay(1),
        &[en, d],
        &[q],
    )
    .unwrap();
    (b.finish().unwrap(), vec![en, d, q])
}

#[test]
fn latch_follower_agrees_and_is_transparent_only_while_enabled() {
    let (n, watch) = latch_follower();
    let q = watch[2];
    let out = check(&Circuit::new("latch follower", &n, watch, Time(300)));
    let wq = out.oracle.waveform(q).unwrap();
    // While en=1 (e.g. ticks 21..40 after the latch delay), q follows d
    // (period-3 toggles); while en=0 (41..60), q freezes.
    let transparent_changes = wq
        .times()
        .iter()
        .filter(|t| (22..40).contains(&t.ticks()))
        .count();
    let opaque_changes = wq
        .times()
        .iter()
        .filter(|t| (42..60).contains(&t.ticks()))
        .count();
    assert!(
        transparent_changes >= 4,
        "q should follow d while transparent: {transparent_changes}"
    );
    assert_eq!(opaque_changes, 0, "q must freeze while opaque");
}

/// A latch-based divider loop: q feeds back through an inverter into its
/// own data, gated by a narrow enable — a pathological level-sensitive
/// feedback structure.
#[test]
fn gated_latch_feedback_loop_agrees() {
    let mut b = Builder::new();
    let en = b.node("en", 1);
    let d = b.node("d", 1);
    let q = b.node("q", 1);
    // Narrow enable pulses: transparent for 2 ticks every 16.
    let values: Vec<Value> = (0..8).map(|k| Value::bit(k == 0)).collect();
    b.element(
        "engen",
        ElementKind::Pattern {
            period: 2,
            values: values.into(),
        },
        Delay(1),
        &[],
        &[en],
    )
    .unwrap();
    b.element(
        "l",
        ElementKind::Latch { width: 1 },
        Delay(3),
        &[en, d],
        &[q],
    )
    .unwrap();
    b.element("inv", ElementKind::Not, Delay(2), &[q], &[d])
        .unwrap();
    let n = b.finish().unwrap();
    let out = check(&Circuit::new("gated latch loop", &n, [q, d, en], Time(400)));
    // X holds in the loop until a known value enters, so the equivalence
    // is the real assertion; here we only confirm the enable is active.
    assert!(out.oracle.waveform(en).unwrap().num_changes() > 10);
}

/// Wide (bus) latches across engines.
#[test]
fn wide_latch_agrees() {
    let mut b = Builder::new();
    let en = b.node("en", 1);
    let d = b.node("d", 8);
    let q = b.node("q", 8);
    b.element(
        "engen",
        ElementKind::Clock {
            half_period: 12,
            offset: 12,
        },
        Delay(1),
        &[],
        &[en],
    )
    .unwrap();
    b.element(
        "dgen",
        ElementKind::Lfsr {
            width: 8,
            period: 5,
            seed: 77,
        },
        Delay(1),
        &[],
        &[d],
    )
    .unwrap();
    b.element(
        "l",
        ElementKind::Latch { width: 8 },
        Delay(2),
        &[en, d],
        &[q],
    )
    .unwrap();
    let n = b.finish().unwrap();
    let out = check(&Circuit::new("wide latch", &n, [q], Time(300)));
    let changes = out.oracle.waveform(q).unwrap().num_changes();
    assert!(changes > 3, "q changed {changes} times");
}
