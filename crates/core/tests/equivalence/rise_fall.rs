//! Directed tests of asymmetric rise/fall delays and the
//! monotone-transport rule.

use parsim_logic::{Delay, ElementKind, Time, Value};
use parsim_netlist::Builder;

use crate::support::{check, Circuit};

/// A buffer with rise 5 / fall 1 driven by a slow clock: edges shift by
/// the direction-specific delay.
#[test]
fn asymmetric_buffer_shifts_edges_by_direction() {
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    let out = b.node("out", 1);
    b.element(
        "osc",
        ElementKind::Clock {
            half_period: 20,
            offset: 20,
        },
        Delay(1),
        &[],
        &[clk],
    )
    .unwrap();
    b.element_with_delays("buf", ElementKind::Buf, Delay(5), Delay(1), &[clk], &[out])
        .unwrap();
    let n = b.finish().unwrap();
    let r = check(&Circuit::new("asymmetric buffer", &n, [out], Time(100))).oracle;
    let w = r.waveform(out).unwrap();
    // clk rises at 20 (out -> 1 at 25), falls at 40 (out -> 0 at 41),
    // rises at 60 (out -> 1 at 65), falls at 80 (out -> 0 at 81).
    // The initial X -> 0 evaluation at t=0 lands at max-delay: t=5.
    assert_eq!(
        w.changes().collect::<Vec<_>>(),
        [
            (Time(5), Value::bit(false)),
            (Time(25), Value::bit(true)),
            (Time(41), Value::bit(false)),
            (Time(65), Value::bit(true)),
            (Time(81), Value::bit(false)),
        ]
    );
}

/// A pulse narrower than the rise/fall difference stretches instead of
/// collapsing out of order (the monotone-transport rule).
#[test]
fn short_pulse_stretches_not_reorders() {
    let mut b = Builder::new();
    let p = b.node("p", 1);
    let out = b.node("out", 1);
    // 2-tick-wide pulse through a buffer with rise 10 / fall 1: the raw
    // schedule would be rise at t=5+10=15 and fall at t=7+1=8 — out of
    // order. The monotone rule stretches the fall to t=16.
    b.element(
        "pg",
        ElementKind::Pulse { at: 5, width: 2 },
        Delay(1),
        &[],
        &[p],
    )
    .unwrap();
    b.element_with_delays("buf", ElementKind::Buf, Delay(10), Delay(1), &[p], &[out])
        .unwrap();
    let n = b.finish().unwrap();
    let r = check(&Circuit::new("short pulse", &n, [out], Time(60))).oracle;
    let w = r.waveform(out).unwrap();
    assert_eq!(
        w.changes().collect::<Vec<_>>(),
        [
            (Time(10), Value::bit(false)), // initial X -> 0 via max delay
            (Time(15), Value::bit(true)),
            (Time(16), Value::bit(false)), // stretched, not reordered
        ],
        "got {:?}",
        w.changes()
    );
    // Event times stay strictly monotone per node by construction.
    assert!(w.times().windows(2).all(|x| x[0] < x[1]));
}

/// All engines agree under asymmetric delays, including on feedback.
#[test]
fn engines_agree_with_asymmetric_delays() {
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    b.element(
        "osc",
        ElementKind::Clock {
            half_period: 7,
            offset: 7,
        },
        Delay(1),
        &[],
        &[clk],
    )
    .unwrap();
    let a = b.node("a", 1);
    let c = b.node("c", 1);
    let d = b.node("d", 1);
    b.element_with_delays("g1", ElementKind::Not, Delay(4), Delay(1), &[clk], &[a])
        .unwrap();
    b.element_with_delays("g2", ElementKind::Not, Delay(1), Delay(6), &[a], &[c])
        .unwrap();
    b.element_with_delays("g3", ElementKind::Xor, Delay(2), Delay(3), &[a, c], &[d])
        .unwrap();
    let n = b.finish().unwrap();
    check(&Circuit::new("asymmetric delays", &n, [a, c, d], Time(200)));
}

/// Text-format round trip preserves asymmetric delays.
#[test]
fn rise_fall_survives_text_round_trip() {
    let mut b = Builder::new();
    let a = b.node("a", 1);
    let y = b.node("y", 1);
    b.element_with_delays("g", ElementKind::Not, Delay(3), Delay(7), &[a], &[y])
        .unwrap();
    let n = b.finish().unwrap();
    let text = n.to_text();
    assert!(text.contains("delay=3/7"), "{text}");
    let reparsed = parsim_netlist::Netlist::from_text(&text).unwrap();
    let g = reparsed.element_by_name("g").unwrap();
    assert_eq!(reparsed.element(g).rise_delay(), Delay(3));
    assert_eq!(reparsed.element(g).fall_delay(), Delay(7));
}
