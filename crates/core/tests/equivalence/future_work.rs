//! The paper's §6 future-work circuits: tristate buses and long feedback
//! chains.

use parsim_circuits::{feedback_chain, shared_bus};
use parsim_core::{ChaoticAsync, EventDriven, SimConfig};
use parsim_logic::{Bit, Time};

use crate::support::{check, Circuit};

#[test]
fn shared_bus_all_engines_agree() {
    let bus = shared_bus(4, 8, 16).unwrap();
    check(&Circuit::new(
        "shared bus",
        &bus.netlist,
        [bus.bus, bus.captured],
        Time(400),
    ));
}

#[test]
fn bus_is_never_left_floating_or_fought_over_in_steady_state() {
    let bus = shared_bus(3, 8, 16).unwrap();
    let cfg = SimConfig::new(Time(400)).watch(bus.bus);
    let r = EventDriven::run(&bus.netlist, &cfg).unwrap();
    let w = r.waveform(bus.bus).unwrap();
    // After the rotation settles, sample mid-slot: the bus must carry a
    // fully known value (one-hot enables guarantee a single driver).
    for k in 2..20u64 {
        let t = Time(k * 16 + 8);
        let v = w.value_at(t);
        assert!(v.is_fully_known(), "bus not cleanly driven at {t}: {v}");
    }
    // During handover the bus may glitch, but it must never stay floating
    // (Z on every bit) for a whole slot.
    for k in 2..20u64 {
        let any_known = (0..16).any(|dt| w.value_at(Time(k * 16 + dt)).is_fully_known());
        assert!(any_known, "bus floated through slot {k}");
    }
}

#[test]
fn feedback_rings_oscillate_identically_across_engines() {
    let fb = feedback_chain(3, 8).unwrap();
    let seq = check(&Circuit::new(
        "feedback rings",
        &fb.netlist,
        fb.taps.clone(),
        Time(300),
    ))
    .oracle;
    // Rings oscillate with period 2 * length once kicked.
    for &tap in &fb.taps {
        let w = seq.waveform(tap).unwrap();
        assert!(
            w.num_changes() > 250 / (2 * 8),
            "ring should oscillate: {} changes",
            w.num_changes()
        );
    }
}

#[test]
fn feedback_destroys_async_batching() {
    // §4: on a feedback chain the asynchronous algorithm degrades to
    // event-at-a-time processing — the batching factor collapses to ~1.
    let fb = feedback_chain(1, 16).unwrap();
    let pipe = parsim_circuits::inverter_array(1, 16, 2).unwrap();
    let cfg = SimConfig::new(Time(1000));
    let ring = ChaoticAsync::run(&fb.netlist, &cfg).unwrap();
    let open = ChaoticAsync::run(&pipe.netlist, &cfg).unwrap();
    let ring_batch = ring.metrics.evaluations as f64 / ring.metrics.activations.max(1) as f64;
    let open_batch = open.metrics.evaluations as f64 / open.metrics.activations.max(1) as f64;
    assert!(
        ring_batch < 3.0,
        "feedback should force event-at-a-time: {ring_batch:.2}"
    );
    assert!(
        open_batch > 20.0 * ring_batch,
        "open chain should batch deeply: {open_batch:.2} vs ring {ring_batch:.2}"
    );
}

#[test]
fn tristate_z_reaches_watched_waveforms() {
    // Between rotations nothing drives the bus tap of a disabled driver:
    // the waveform must actually show Z (not X).
    let bus = shared_bus(2, 4, 16).unwrap();
    let tap0 = bus.netlist.node_by_name("tap0").unwrap();
    let cfg = SimConfig::new(Time(200)).watch(tap0);
    let r = EventDriven::run(&bus.netlist, &cfg).unwrap();
    let w = r.waveform(tap0).unwrap();
    let saw_z = w
        .changes()
        .any(|(_, v)| (0..4).all(|i| v.bit_at(i) == Bit::Z));
    assert!(saw_z, "expected the tap to float while disabled");
}
