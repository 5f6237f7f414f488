//! Register lookahead oracle matrix: every clocked element kind, fed by
//! every shape of clock path, must stay bit-identical to the sequential
//! oracle — the chaotic engine with the trigger rule on and ablated, and
//! checkpoint cuts inside a clock half-period and between a falling and
//! the next rising edge.
//!
//! The rule under test lets a `Dff`/`DffR`/`Memory` (and a `Latch` while
//! `en = 0`) publish its output as valid up to its next trigger event that
//! can move it — a rising clock edge, a reset asserting, an enable
//! changing — however far behind its data inputs are, and past falling
//! edges, reset releases and X/Z clock transitions on the way. The circuits here put
//! every register inside a feedback loop (so the data input really does
//! lag), move the data while the trigger ports are quiet, and vary how
//! much the engine knows about the clock: straight from a generator
//! (valid for all time), through a buffer chain (valid only as far as the
//! buffers have run), and gated by an AND (valid only while the gate is
//! pinned or its inputs are known).

mod support;

use parsim_core::{ChaoticAsync, SimConfig, SimResult};
use parsim_logic::{Delay, ElementKind, Time, Value};
use parsim_netlist::{Builder, Netlist, NodeId};

use support::{check, Circuit};

#[derive(Debug, Clone, Copy)]
enum ClockPath {
    /// The register's clock pin is the generator's node.
    Direct,
    /// Three buffers between generator and register: the clock node's
    /// `valid_until` is whatever the last buffer has published.
    Buffered,
    /// `gen AND gate`, the gate opening and closing at a slower rate.
    Gated,
}

const PATHS: [ClockPath; 3] = [ClockPath::Direct, ClockPath::Buffered, ClockPath::Gated];

/// Rise/fall pairs for the registers and their feedback logic: symmetric,
/// slow-rise, slow-fall.
const DELAYS: [(u64, u64); 3] = [(1, 1), (3, 1), (1, 4)];

fn clock(b: &mut Builder, name: &str, half_period: u64, offset: u64) -> NodeId {
    let n = b.node(name, 1);
    let kind = ElementKind::Clock { half_period, offset };
    b.element(&format!("{name}_gen"), kind, Delay(1), &[], &[n]).unwrap();
    n
}

fn lfsr(b: &mut Builder, name: &str, width: u8, period: u64, seed: u64) -> NodeId {
    let n = b.node(name, width);
    let kind = ElementKind::Lfsr { width, period, seed };
    b.element(&format!("{name}_gen"), kind, Delay(1), &[], &[n]).unwrap();
    n
}

fn vector(b: &mut Builder, name: &str, changes: &[(u64, Value)]) -> NodeId {
    let n = b.node(name, 1);
    let kind = ElementKind::Vector { changes: changes.to_vec().into() };
    b.element(&format!("{name}_gen"), kind, Delay(1), &[], &[n]).unwrap();
    n
}

/// Builds the clock the registers see. Half-period 7 from tick 7: rising
/// edges at 7, 21, 35, 49, 63, ... on the generator's own node.
fn clock_path(b: &mut Builder, path: ClockPath) -> NodeId {
    let gen = clock(b, "clkgen", 7, 7);
    match path {
        ClockPath::Direct => gen,
        ClockPath::Buffered => {
            let mut prev = gen;
            for (i, d) in [1, 2, 1].into_iter().enumerate() {
                let n = b.node(&format!("clkbuf{i}"), 1);
                b.element(&format!("cb{i}"), ElementKind::Buf, Delay(d), &[prev], &[n]).unwrap();
                prev = n;
            }
            prev
        }
        ClockPath::Gated => {
            let gate = clock(b, "clkgate", 40, 25);
            let n = b.node("clkgated", 1);
            b.element("cg", ElementKind::And, Delay(1), &[gen, gate], &[n]).unwrap();
            n
        }
    }
}

struct Case {
    netlist: Netlist,
    watch: Vec<NodeId>,
}

/// A toggle ring (`q -> NOT -> d`) and a 4-bit data register, both `Dff`.
fn dff_case(path: ClockPath, (rise, fall): (u64, u64)) -> Case {
    let mut b = Builder::new();
    let clk = clock_path(&mut b, path);
    // The ring needs a known value to leave X: a mux loads 0 first.
    let load = vector(&mut b, "load", &[(0, Value::bit(true)), (30, Value::bit(false))]);
    let zero = b.node("zero", 1);
    b.element("zero_gen", ElementKind::Const { value: Value::bit(false) }, Delay(1), &[], &[zero])
        .unwrap();
    let (q, nq, d) = (b.node("q", 1), b.node("nq", 1), b.node("d", 1));
    b.element_with_delays("ff", ElementKind::Dff { width: 1 }, Delay(rise), Delay(fall), &[clk, d], &[q])
        .unwrap();
    b.element_with_delays("inv", ElementKind::Not, Delay(fall), Delay(rise), &[q], &[nq]).unwrap();
    b.element("sel", ElementKind::Mux { width: 1 }, Delay(1), &[load, nq, zero], &[d]).unwrap();
    // Data moving every 3 ticks against a 14-tick clock.
    let data = lfsr(&mut b, "data", 4, 3, 0xb5);
    let r = b.node("r", 4);
    b.element_with_delays("reg", ElementKind::Dff { width: 4 }, Delay(rise), Delay(fall), &[clk, data], &[r])
        .unwrap();
    Case { netlist: b.finish().unwrap(), watch: vec![clk, q, nq, d, r] }
}

/// Two `DffR`s: one reset by a directed vector (asserted between clock
/// edges, coincident with a rising edge, held across one, unknown for a
/// while), one by a reset whose period is coprime to the clock's so every
/// relative phase occurs whatever the clock path's skew. The second sits
/// in a toggle ring.
fn dffr_case(path: ClockPath, (rise, fall): (u64, u64)) -> Case {
    let mut b = Builder::new();
    let clk = clock_path(&mut b, path);
    let (hi, lo, x) = (Value::bit(true), Value::bit(false), Value::x(1));
    let rst = vector(
        &mut b,
        "rst",
        &[
            (0, hi),
            (3, lo),
            (24, hi), // between the edges at 21 and 35
            (26, lo),
            (35, hi), // on the rising edge at 35
            (37, lo),
            (60, hi), // held across the rising edge at 63
            (66, lo),
            (80, x),
            (95, lo),
            (105, hi),
            (106, lo),
        ],
    );
    let data = lfsr(&mut b, "data", 4, 3, 0x3c);
    let r = b.node("r", 4);
    b.element_with_delays(
        "reg",
        ElementKind::DffR { width: 4 },
        Delay(rise),
        Delay(fall),
        &[clk, data, rst],
        &[r],
    )
    .unwrap();
    let sweep = clock(&mut b, "sweep", 5, 2);
    let (q, d) = (b.node("q", 1), b.node("d", 1));
    b.element_with_delays(
        "ff",
        ElementKind::DffR { width: 1 },
        Delay(rise),
        Delay(fall),
        &[clk, d, sweep],
        &[q],
    )
    .unwrap();
    b.element_with_delays("inv", ElementKind::Not, Delay(fall), Delay(rise), &[q], &[d]).unwrap();
    Case { netlist: b.finish().unwrap(), watch: vec![clk, rst, r, sweep, q, d] }
}

/// Two latches with data moving every 3 ticks: one enabled by the clock
/// path (opaque and transparent phases), one by a vector that also goes
/// unknown. The first closes a loop through a NOR (a start-up `kick`
/// forces the loop out of X) and an XOR that keeps `d` moving while the
/// latch is opaque.
fn latch_case(path: ClockPath, (rise, fall): (u64, u64)) -> Case {
    let mut b = Builder::new();
    let en = clock_path(&mut b, path);
    let (hi, lo, x) = (Value::bit(true), Value::bit(false), Value::x(1));
    let kick = vector(&mut b, "kick", &[(0, hi), (40, lo)]);
    let wobble = clock(&mut b, "wobble", 3, 1);
    let (q, nq, d) = (b.node("q", 1), b.node("nq", 1), b.node("d", 1));
    b.element_with_delays("l", ElementKind::Latch { width: 1 }, Delay(rise), Delay(fall), &[en, d], &[q])
        .unwrap();
    b.element("inv", ElementKind::Nor, Delay(2), &[q, kick], &[nq]).unwrap();
    b.element("mix", ElementKind::Xor, Delay(1), &[nq, wobble], &[d]).unwrap();
    let en2 = vector(
        &mut b,
        "en2",
        &[
            (0, lo),
            (10, hi),
            (30, lo),
            (50, x),
            (70, lo),
            (90, hi),
            (100, x),
            (120, lo),
            (150, hi),
            (170, lo),
            (200, hi),
            (230, x),
            (260, hi),
            (300, lo),
            (330, hi),
        ],
    );
    let data = lfsr(&mut b, "data", 4, 3, 0x71);
    let r = b.node("r", 4);
    b.element_with_delays("l2", ElementKind::Latch { width: 4 }, Delay(rise), Delay(fall), &[en2, data], &[r])
        .unwrap();
    Case { netlist: b.finish().unwrap(), watch: vec![en, q, d, en2, r] }
}

/// A 4x4 memory whose write data comes back, inverted, from its own read
/// port once a start-up phase has filled the cells with known words.
fn memory_case(path: ClockPath, (rise, fall): (u64, u64)) -> Case {
    let mut b = Builder::new();
    let clk = clock_path(&mut b, path);
    let we = clock(&mut b, "we", 11, 4);
    let addr = lfsr(&mut b, "addr", 2, 5, 0x2d);
    let fill = lfsr(&mut b, "fill", 4, 3, 0x97);
    let filling = vector(&mut b, "filling", &[(0, Value::bit(true)), (160, Value::bit(false))]);
    let (rdata, back, wdata) = (b.node("rdata", 4), b.node("back", 4), b.node("wdata", 4));
    b.element_with_delays(
        "mem",
        ElementKind::Memory { addr_bits: 2, width: 4 },
        Delay(rise),
        Delay(fall),
        &[clk, we, addr, wdata],
        &[rdata],
    )
    .unwrap();
    b.element("inv", ElementKind::Not, Delay(2), &[rdata], &[back]).unwrap();
    b.element("sel", ElementKind::Mux { width: 4 }, Delay(1), &[filling, back, fill], &[wdata])
        .unwrap();
    Case { netlist: b.finish().unwrap(), watch: vec![clk, we, addr, rdata, wdata] }
}

/// Builds one register kind's circuit for a clock path and a rise/fall pair.
type BuildCase = fn(ClockPath, (u64, u64)) -> Case;

const KINDS: [(&str, BuildCase); 4] = [
    ("dff", dff_case),
    ("dffr", dffr_case),
    ("latch", latch_case),
    ("memory", memory_case),
];

/// A register that never leaves X would make the comparison vacuous: every
/// watched node must take known values.
fn assert_known(tag: &str, case: &Case, oracle: &SimResult) {
    for &w in &case.watch {
        let known = oracle.waveform(w).unwrap().changes();
        assert!(
            known.filter(|(_, v)| v.to_u64().is_some()).count() >= 4,
            "{tag}: {} stays unknown",
            case.netlist.node(w).name()
        );
    }
}

/// Every kind, path and rise/fall pair through the whole matrix. With the
/// buffered clock and slow rise, the extra cuts every 33 ticks fall 5, 3,
/// 1, ... ticks into a clock half-period (half-period 7): the registers'
/// outputs were published valid past the cut by the trigger rule.
#[test]
fn every_register_kind_and_clock_path_matches_the_oracle() {
    for (kind, build) in KINDS {
        for path in PATHS {
            for delays in DELAYS {
                let case = build(path, delays);
                let tag = format!("{kind}/{path:?}/{delays:?}");
                let mut circuit = Circuit::new(&tag, &case.netlist, case.watch.clone(), Time(400));
                if matches!(path, ClockPath::Buffered) && delays == (3, 1) {
                    circuit = circuit.cut_every(33);
                }
                assert_known(&tag, &case, &check(&circuit).oracle);
            }
        }
    }
}

/// The rule must actually fire on every kind (otherwise the matrix above
/// only re-tests the old engine), and must not fire when ablated.
#[test]
fn lookahead_extends_validity_on_every_register_kind() {
    for (kind, build) in KINDS {
        let case = build(ClockPath::Direct, (1, 1));
        let cfg = SimConfig::new(Time(400));
        let on = ChaoticAsync::run(&case.netlist, &cfg).unwrap().metrics;
        let off = ChaoticAsync::run(&case.netlist, &cfg.clone().without_lookahead()).unwrap().metrics;
        assert!(on.lookahead_extensions > 0, "{kind}: rule never fired");
        assert!(
            on.activations < off.activations,
            "{kind}: {} activations with lookahead, {} without",
            on.activations,
            off.activations
        );
    }
}

/// Registers whose trigger ports carry every transition the edge rule
/// looks past: falling clock edges, a clock through X and Z (X→1 and
/// Z→1 are not rising edges), a train of 1↔X glitches longer than one
/// scan reads, and a reset that releases, goes unknown and returns to 0.
/// The regular clock `clk` has half-period 10 from tick 13: rising edges
/// at 13, 33, 53, ..., falling edges at 23, 43, ..., so a cut at every
/// multiple of 20 lies between a falling edge and the next rising one.
fn non_moving_edges_case() -> Case {
    let mut b = Builder::new();
    let (lo, hi, x, z) = (Value::bit(false), Value::bit(true), Value::x(1), Value::z(1));
    let clk = clock(&mut b, "clk", 10, 13);
    let mut glitchy = vec![(0, lo), (10, hi), (15, lo), (20, x), (24, hi), (28, z), (31, hi)];
    glitchy.extend((0..24).map(|k| (34 + k, if k % 2 == 0 { x } else { hi })));
    glitchy.extend([(60, lo), (66, hi), (70, z), (74, lo), (80, hi), (86, lo), (95, x), (99, lo)]);
    glitchy.extend((0..30).map(|k| (110 + 6 * k, if k % 2 == 0 { hi } else { lo })));
    let gclk = vector(&mut b, "gclk", &glitchy);
    let load = vector(&mut b, "load", &[(0, hi), (25, lo)]);
    let zero = b.node("zero", 1);
    b.element("zero_gen", ElementKind::Const { value: lo }, Delay(1), &[], &[zero]).unwrap();
    // A toggle ring on each clock, so the data input lags its register.
    let mut watch = vec![clk, gclk];
    for (name, c) in [("g", gclk), ("t", clk)] {
        let [q, nq, d] = ["q", "nq", "d"].map(|n| b.node(&format!("{name}{n}"), 1));
        let ff = ElementKind::Dff { width: 1 };
        b.element_with_delays(&format!("{name}ff"), ff, Delay(2), Delay(1), &[c, d], &[q]).unwrap();
        b.element(&format!("{name}inv"), ElementKind::Not, Delay(1), &[q], &[nq]).unwrap();
        let sel = ElementKind::Mux { width: 1 };
        b.element(&format!("{name}sel"), sel, Delay(1), &[load, nq, zero], &[d]).unwrap();
        watch.extend([q, d]);
    }
    let resets = [(0, hi), (5, lo), (40, hi), (45, lo), (70, x), (77, lo), (100, z), (103, hi)];
    let rst = vector(&mut b, "rst", &[&resets[..], &[(106, lo), (150, hi), (151, lo)]].concat());
    // A 4-bit word moving every 4 ticks, never resting on one value.
    let data = b.node("data", 4);
    let words: Vec<Value> = [3, 9, 14, 5, 12, 6, 10].map(|w| Value::from_u64(w, 4)).to_vec();
    let pattern = ElementKind::Pattern { period: 4, values: words.into() };
    b.element("data_gen", pattern, Delay(1), &[], &[data]).unwrap();
    // The reset register's data comes back from its own output.
    let (r, rd) = (b.node("r", 4), b.node("rd", 4));
    b.element("reg", ElementKind::DffR { width: 4 }, Delay(2), &[clk, rd, rst], &[r]).unwrap();
    b.element("mix", ElementKind::Xor, Delay(1), &[r, data], &[rd]).unwrap();
    // So does the memory's write data, from its read port, once a
    // start-up phase has filled the cells with known words.
    let addr = lfsr(&mut b, "addr", 2, 5, 0x2d);
    let we = clock(&mut b, "we", 11, 4);
    let filling = vector(&mut b, "filling", &[(0, hi), (130, lo)]);
    let [rdata, back, wdata] = ["rdata", "back", "wdata"].map(|n| b.node(n, 4));
    let mem = ElementKind::Memory { addr_bits: 2, width: 4 };
    b.element("mem", mem, Delay(1), &[gclk, we, addr, wdata], &[rdata]).unwrap();
    b.element("wmix", ElementKind::Xor, Delay(2), &[rdata, data], &[back]).unwrap();
    let sel = ElementKind::Mux { width: 4 };
    b.element("wsel", sel, Delay(1), &[filling, back, data], &[wdata]).unwrap();
    watch.extend([rst, data, r, rd, rdata, wdata]);
    Case { netlist: b.finish().unwrap(), watch }
}

/// Cuts every 20 ticks fall between a falling edge and the next rising
/// one of `clk`: a register's output was published valid past the cut,
/// over the falling edge, and the resumed segment must pick up byte-equal.
/// Beside the driver's one run per thread count, the chaotic engine runs
/// the circuit eight times at 2 and at 4 threads: each run interleaves the
/// edge scan's loads differently.
#[test]
fn scans_past_falling_edges_resets_released_and_unknown_clocks_match_the_oracle() {
    let case = non_moving_edges_case();
    let circuit = Circuit::new("non-moving edges", &case.netlist, case.watch.clone(), Time(300));
    let oracle = check(&circuit.cut_every(20)).oracle;
    assert_known("non-moving edges", &case, &oracle);
    let want = oracle.to_vcd();
    for (threads, reps) in [(1, 1), (2, 8), (4, 8)] {
        for _ in 0..reps {
            let cfg = SimConfig::new(Time(300)).watch_all(case.watch.clone()).threads(threads);
            let r = ChaoticAsync::run(&case.netlist, &cfg).unwrap();
            assert!(r.to_vcd() == want, "x{threads}: VCD differs from the oracle's");
            assert_eq!(r.metrics.events_processed, oracle.metrics.events_processed, "x{threads}");
            assert!(r.metrics.lookahead_extensions > 0, "x{threads}: rule never fired");
        }
    }
}
