//! A miniature design flow: build a hierarchical circuit from a reusable
//! cell, sweep away dead logic, export to ISCAS `.bench`, and simulate
//! before/after to confirm nothing observable changed.
//!
//! ```text
//! cargo run --example design_flow
//! ```

use parsim::netlist::bench_fmt::to_bench;
use parsim::netlist::optimize::sweep;
use parsim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A reusable 2-bit counter cell with a gate-level synchronous reset
    // (plain DFFs keep the cell expressible in the .bench format; the
    // reset AND breaks the power-on X through its controlling input).
    let cell = {
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        let rst = b.node("rst", 1);
        let rstn = b.node("rstn", 1);
        let q0 = b.node("q0", 1);
        let q1 = b.node("q1", 1);
        let t0 = b.node("t0", 1);
        let t1 = b.node("t1", 1);
        let d0 = b.node("d0", 1);
        let d1 = b.node("d1", 1);
        let unused = b.node("unused", 1);
        b.element("rinv", ElementKind::Not, Delay(1), &[rst], &[rstn])?;
        b.element("ff0", ElementKind::Dff { width: 1 }, Delay(1), &[clk, d0], &[q0])?;
        b.element("ff1", ElementKind::Dff { width: 1 }, Delay(1), &[clk, d1], &[q1])?;
        b.element("x0", ElementKind::Not, Delay(1), &[q0], &[t0])?;
        b.element("x1", ElementKind::Xor, Delay(1), &[q0, q1], &[t1])?;
        b.element("r0", ElementKind::And, Delay(1), &[t0, rstn], &[d0])?;
        b.element("r1", ElementKind::And, Delay(1), &[t1, rstn], &[d1])?;
        // Deliberate dead logic: nothing observes this gate.
        b.element("dead", ElementKind::Nand, Delay(1), &[q0, q1], &[unused])?;
        b.finish()?
    };

    // Top level: two counter instances sharing a clock and reset.
    let mut top = Builder::new();
    let clk = top.node("clk", 1);
    let rst = top.node("rst", 1);
    top.element(
        "osc",
        ElementKind::Clock { half_period: 5, offset: 5 },
        Delay(1),
        &[],
        &[clk],
    )?;
    top.element("porst", ElementKind::Pulse { at: 0, width: 3 }, Delay(1), &[], &[rst])?;
    let a = top.instantiate(&cell, "u0", &[("clk", clk), ("rst", rst)])?;
    let b_map = top.instantiate(&cell, "u1", &[("clk", clk), ("rst", rst)])?;
    let netlist = top.finish()?;
    println!("flattened design:\n{}", NetlistStats::compute(&netlist));

    // Keep only the counter outputs; sweep everything unobserved.
    let keep = vec![a["q0"], a["q1"], b_map["q0"], b_map["q1"]];
    let swept = sweep(&netlist, &keep);
    println!(
        "sweep removed {} elements, {} nodes\n",
        swept.removed_elements, swept.removed_nodes
    );

    // Prove observability was preserved: identical waveforms on the kept
    // nodes before and after the sweep.
    let end = Time(120);
    let before = EventDriven::run(&netlist, &SimConfig::new(end).watch_all(keep.clone())).unwrap();
    let after = EventDriven::run(
        &swept.netlist,
        &SimConfig::new(end).watch_all(swept.kept.clone()),
    ).unwrap();
    for (orig, new) in keep.iter().zip(&swept.kept) {
        let wb = before.waveform(*orig).expect("watched");
        let wa = after.waveform(*new).expect("watched");
        assert!(wb.changes().eq(wa.changes()), "sweep changed {}", wb.name());
    }
    println!("kept waveforms identical before/after sweep ✓");

    // Export the swept design as an ISCAS .bench netlist.
    let bench = to_bench(&swept.netlist)?;
    println!("\n--- .bench export ---\n{bench}");
    Ok(())
}
