//! Locality-aware scheduling in the asynchronous engine: waveform
//! equivalence against the sequential oracle on a chain array and on a
//! fan-out wide enough to overflow the local deque into the grid, and the
//! scheduling-counter invariants (the overflow happens, batches never
//! exceed sends, chain circuits stay processor-local).

mod support;

use parsim_circuits::{inverter_array, random_circuit, RandomCircuitParams};
use parsim_core::{ChaoticAsync, SimConfig};
use parsim_logic::{Delay, ElementKind, Time};
use parsim_netlist::{Builder, Netlist, NodeId};

use support::{check, Circuit};

/// Buffers hanging off the ring oscillator of [`wide_fanout_ring`].
const FANOUT: usize = 2_000;

/// A three-stage ring oscillator (`nand(en, r2) -> r0 -> not -> r1 -> not
/// -> r2`, enabled at tick 5) whose `r0` fans out to [`FANOUT`] buffers.
/// The ring keeps extending `r0`'s validity, and the first extension after
/// the buffers have run wakes all of them in one go: about twice the
/// local deque's cap of 1 024. Returns the netlist and the nodes to watch
/// (the ring and every 97th buffer).
fn wide_fanout_ring() -> (Netlist, Vec<NodeId>) {
    let mut b = Builder::new();
    let en = b.node("en", 1);
    let pulse = ElementKind::Pulse {
        at: 5,
        width: 1 << 40,
    };
    b.element("en_gen", pulse, Delay(1), &[], &[en]).unwrap();
    let r = [b.node("r0", 1), b.node("r1", 1), b.node("r2", 1)];
    b.element("nand", ElementKind::Nand, Delay(1), &[en, r[2]], &[r[0]])
        .unwrap();
    b.element("inv1", ElementKind::Not, Delay(1), &[r[0]], &[r[1]])
        .unwrap();
    b.element("inv2", ElementKind::Not, Delay(1), &[r[1]], &[r[2]])
        .unwrap();
    let mut watch = r.to_vec();
    for i in 0..FANOUT {
        let out = b.node(&format!("b{i}"), 1);
        b.element(
            &format!("buf{i}"),
            ElementKind::Buf,
            Delay(1),
            &[r[0]],
            &[out],
        )
        .unwrap();
        if i % 97 == 0 {
            watch.push(out);
        }
    }
    (b.finish().unwrap(), watch)
}

#[test]
fn local_deque_overflow_routes_through_the_grid() {
    let (netlist, watch) = wide_fanout_ring();
    check(&Circuit::new("wide fan-out ring", &netlist, watch, Time(120)));
    // A lone worker owns every element, so only the deque's overflow can
    // reach the grid — and it must here.
    let r = ChaoticAsync::run(&netlist, &SimConfig::new(Time(120))).unwrap();
    let l = &r.metrics.locality;
    assert!(l.grid_sends > 0, "the deque never overflowed: {l:?}");
}

#[test]
fn chain_circuits_match_the_oracle_and_stay_processor_local() {
    // Independent inverter chains are pure fan-out cones: the partitioner
    // must keep each chain on one worker, so well over half (here: all)
    // of the scheduled activations bypass the grid.
    let arr = inverter_array(16, 8, 2).unwrap();
    check(&Circuit::new("inverter array 16x8", &arr.netlist, arr.taps.clone(), Time(400)));
    let cfg = SimConfig::new(Time(400));
    for threads in [2usize, 4] {
        let r = ChaoticAsync::run(&arr.netlist, &cfg.clone().threads(threads)).unwrap();
        let l = &r.metrics.locality;
        assert!(
            l.locality_ratio() >= 0.5,
            "x{threads}: locality ratio {:.3} below 0.5 ({l:?})",
            l.locality_ratio()
        );
    }
}

#[test]
fn batches_never_exceed_sends() {
    let c = random_circuit(&RandomCircuitParams {
        elements: 120,
        inputs: 6,
        seq_fraction: 0.25,
        max_delay: 3,
        seed: 7,
    })
    .unwrap();
    let cfg = SimConfig::new(Time(300)).threads(4);
    let r = ChaoticAsync::run(&c.netlist, &cfg).unwrap();
    let l = &r.metrics.locality;
    assert!(
        l.grid_batches <= l.grid_sends,
        "a batch carries at least one id: {l:?}"
    );
    if l.grid_sends > 0 {
        assert!(l.batch_occupancy() >= 1.0, "{l:?}");
    }
}
