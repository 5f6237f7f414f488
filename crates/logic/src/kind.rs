//! The catalog of element models known to the simulators.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::value::{Bit, Value};

/// Every element model the simulators understand.
///
/// The catalog spans the paper's three abstraction levels: scalar gates
/// (gate level), sequential primitives, and functional/RTL blocks such as
/// the 8-bit adders and 3-bit multipliers that make up the paper's
/// functional-level multiplier. Generators ("gen" in the paper's Fig. 4
/// example) have no inputs and are pre-expanded for all simulation time at
/// initialization, exactly as §4 step 1 prescribes.
///
/// Gates are width-generic: all inputs and the output share one width, so an
/// `And` over 16-bit buses is a bitwise AND.
///
/// # Examples
///
/// ```
/// use parsim_logic::ElementKind;
///
/// let adder = ElementKind::Adder { width: 8 };
/// assert_eq!(adder.num_outputs(), 2); // sum and carry-out
/// assert!(adder.eval_cost() > ElementKind::Not.eval_cost());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum ElementKind {
    /// N-ary AND; inputs and output share `width` bits.
    And,
    /// N-ary OR.
    Or,
    /// N-ary NAND.
    Nand,
    /// N-ary NOR.
    Nor,
    /// N-ary XOR (left fold).
    Xor,
    /// N-ary XNOR.
    Xnor,
    /// Inverter.
    Not,
    /// Buffer.
    Buf,
    /// 2:1 multiplexer; inputs `sel(1), a(width), b(width)`; output `width`.
    /// `sel = 0` selects `a`.
    Mux { width: u8 },
    /// Rising-edge D flip-flop; inputs `clk(1), d(width)`; output `q(width)`.
    Dff { width: u8 },
    /// D flip-flop with asynchronous active-high reset; inputs
    /// `clk(1), d(width), rst(1)`; output `q(width)`.
    DffR { width: u8 },
    /// Transparent latch; inputs `en(1), d(width)`; output `q(width)`.
    Latch { width: u8 },
    /// Ripple-model adder; inputs `a(width), b(width), cin(1)`; outputs
    /// `sum(width), cout(1)`.
    Adder { width: u8 },
    /// Subtractor; inputs `a(width), b(width)`; output `diff(width)`.
    Subtractor { width: u8 },
    /// Multiplier; inputs `a(width), b(width)`; output `p(2*width)`.
    Multiplier { width: u8 },
    /// Unsigned comparator; inputs `a(width), b(width)`; outputs
    /// `eq(1), lt(1)`.
    Comparator { width: u8 },
    /// Synchronous memory with registered read-first output: inputs
    /// `clk(1), we(1), addr(addr_bits), wdata(width)`; output
    /// `rdata(width)`. On each rising clock edge the addressed cell is
    /// read into `rdata`, then written from `wdata` when `we = 1`.
    /// Unknown addresses or write enables conservatively poison the
    /// affected cells to `X`.
    Memory { addr_bits: u8, width: u8 },
    /// Tristate buffer: inputs `en(1), d(width)`; output follows `d`
    /// while `en = 1`, floats at `Z` while `en = 0`, and is `X` for an
    /// unknown enable.
    TriBuf { width: u8 },
    /// Wired-bus resolver: n driver inputs of `width` bits each; output
    /// is their per-bit resolution ([`Value::resolve`]).
    Resolver { width: u8 },
    /// Bus slice (pure wiring): input `in(in_width)`; output the bits
    /// `[lo, lo + width)`.
    Slice { in_width: u8, lo: u8, width: u8 },
    /// Zero extension (pure wiring): input `in(in_width)`; output
    /// `out(out_width)` with high bits zero.
    ZeroExt { in_width: u8, out_width: u8 },
    /// Constant left shift (pure wiring): input `in(in_width)`; output
    /// `out(out_width) = in << amount`, truncated to `out_width`.
    Shl {
        in_width: u8,
        out_width: u8,
        amount: u8,
    },
    /// Clock generator: output is 0 until `offset`, then toggles every
    /// `half_period` ticks (first toggle at `offset`).
    Clock { half_period: u64, offset: u64 },
    /// One-shot pulse: 0, then 1 during `[at, at + width)`.
    Pulse { at: u64, width: u64 },
    /// Cyclic pattern generator: emits `values[k % len]` at `t = k * period`.
    Pattern { period: u64, values: Arc<[Value]> },
    /// Explicit timed stimulus: emits each `(time, value)` change once, in
    /// order — the test-vector generator behind
    /// [`TestBench`](https://docs.rs/parsim-core)-style directed tests.
    Vector { changes: Arc<[(u64, Value)]> },
    /// Pseudo-random generator: a 64-bit Fibonacci LFSR stepped every
    /// `period` ticks, emitting its low `width` bits.
    Lfsr { width: u8, period: u64, seed: u64 },
    /// Constant driver.
    Const { value: Value },
}

/// How many inputs an element accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Exactly `n` inputs.
    Exact(usize),
    /// At least `n` inputs (n-ary gates).
    AtLeast(usize),
}

/// A controlling-value rule used by the asynchronous engine's lookahead
/// optimization (§4: "if e2 is an AND gate and node 2 is 0 ... node 3 will
/// be 0 ... and any events on node 4 ... can be ignored").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Controlling {
    /// The input bit value that pins the output.
    pub input: Bit,
    /// The output bit produced while any input holds the controlling value.
    pub output: Bit,
}

/// The trigger rule of a clocked element, used by the asynchronous
/// engine's register lookahead: the output can only move at an event on
/// one of the `ports`, and there only at a transition its [`Edge`]
/// accepts, whatever the other inputs do in between. An evaluation
/// caused by any other input leaves both the output and the internal
/// state as they were, so the output is known up to the next trigger
/// event that can move it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Triggers {
    /// Input ports whose events can move the output, each with the
    /// transitions on it that can.
    pub ports: &'static [(usize, Edge)],
    /// Level-sensitive elements: the rule holds only while every trigger
    /// port carries this known bit (a latch is opaque while `en = 0`).
    /// `None` for edge-triggered elements, where it always holds.
    pub while_level: Option<Bit>,
}

/// Which transitions of one input can move an element's output: the
/// predicate a lookahead scan applies to each event it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Every change: a latch enable, or any input of a controlling-value
    /// gate.
    Any,
    /// A known 0 to a known 1 ([`Value::is_rising_edge`]): a register
    /// samples on nothing else, and the previous clock value it compares
    /// against is the one the port carried before the event.
    Rising,
    /// A change to a known 1: an asynchronous reset asserting. Leaving 1,
    /// or going to X or Z, holds the stored word.
    ToOne,
}

impl Edge {
    /// True if an event taking the input from `prev` to `now` can move
    /// the output.
    pub fn moves(self, prev: &Value, now: &Value) -> bool {
        match self {
            Edge::Any => true,
            Edge::Rising => Value::is_rising_edge(prev, now),
            Edge::ToOne => now.to_logic().to_u64() == Some(1),
        }
    }
}

/// Most events [`scan_quiet`] reads past a cursor.
const SCAN_LIMIT: usize = 16;

/// The time through which an input, read from a consumer's position,
/// carries no event that can move the consumer's output: the lookahead
/// rules' quiet window.
///
/// `prev` is the input's value at the consumer's position, `events` the
/// events published past it in time order, and `valid` the input's valid
/// time, read *before* `events` (a node's driver appends an event before
/// it publishes a validity covering it). The window ends one tick before
/// the first event `edge` says moves the output. Through `valid` every
/// event is in `events`, so a drained scan returns `valid`; a scan that
/// reaches `valid`, or reads its limit of events, stops at the last
/// event it read, since nothing unread can lie at or before it. Reading
/// at most 16 events keeps a glitchy input, one that piles up non-moving
/// events faster than they are consumed, from making every caller rescan
/// them all.
pub fn scan_quiet(
    valid: u64,
    mut prev: Value,
    events: impl IntoIterator<Item = (u64, Value)>,
    edge: Edge,
) -> u64 {
    for (read, (t, v)) in events.into_iter().enumerate() {
        if edge.moves(&prev, &v) {
            return t.saturating_sub(1);
        }
        if t >= valid || read + 1 == SCAN_LIMIT {
            return t;
        }
        prev = v;
    }
    valid
}

/// The gate-specific lookahead rule (§4) an asynchronous simulator may
/// apply to an element after replaying its inputs; see
/// [`ElementKind::lookahead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookahead {
    /// Outputs are valid only as far as every input is.
    None,
    /// Scalar gate: while some input holds this controlling bit the output
    /// is pinned, whatever the other inputs do.
    Controlling(Bit),
    /// Clocked element: the output is quiet until the next event on one of
    /// its trigger ports.
    Triggers(Triggers),
}

impl ElementKind {
    /// True for generator elements (no inputs; pre-expanded at init).
    pub fn is_generator(&self) -> bool {
        matches!(
            self,
            ElementKind::Clock { .. }
                | ElementKind::Pulse { .. }
                | ElementKind::Pattern { .. }
                | ElementKind::Vector { .. }
                | ElementKind::Lfsr { .. }
                | ElementKind::Const { .. }
        )
    }

    /// True for elements with internal state (flip-flops, latches,
    /// memories).
    pub fn is_sequential(&self) -> bool {
        matches!(
            self,
            ElementKind::Dff { .. }
                | ElementKind::DffR { .. }
                | ElementKind::Latch { .. }
                | ElementKind::Memory { .. }
        )
    }

    /// The number of output ports.
    pub fn num_outputs(&self) -> usize {
        match self {
            ElementKind::Adder { .. } | ElementKind::Comparator { .. } => 2,
            _ => 1,
        }
    }

    /// The width of output port `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.num_outputs()`.
    pub fn output_width(&self, idx: usize) -> u8 {
        assert!(idx < self.num_outputs(), "output index out of range");
        match self {
            ElementKind::Mux { width }
            | ElementKind::Dff { width }
            | ElementKind::DffR { width }
            | ElementKind::Latch { width }
            | ElementKind::TriBuf { width }
            | ElementKind::Resolver { width }
            | ElementKind::Memory { width, .. }
            | ElementKind::Subtractor { width } => *width,
            ElementKind::Adder { width }
                if idx == 0 => {
                    *width
                }
            ElementKind::Multiplier { width } => width.saturating_mul(2).min(64),
            ElementKind::Comparator { .. } => 1,
            ElementKind::Slice { width, .. } => *width,
            ElementKind::ZeroExt { out_width, .. } | ElementKind::Shl { out_width, .. } => {
                *out_width
            }
            ElementKind::Pattern { values, .. } => values[0].width(),
            ElementKind::Vector { changes } => changes[0].1.width(),
            ElementKind::Lfsr { width, .. } => *width,
            ElementKind::Const { value } => value.width(),
            ElementKind::Clock { .. } | ElementKind::Pulse { .. } => 1,
            // Width-generic gates: resolved by the netlist from the nodes.
            _ => 1,
        }
    }

    /// True for gates whose output width follows their node widths rather
    /// than being fixed by the kind itself.
    pub fn is_width_generic(&self) -> bool {
        matches!(
            self,
            ElementKind::And
                | ElementKind::Or
                | ElementKind::Nand
                | ElementKind::Nor
                | ElementKind::Xor
                | ElementKind::Xnor
                | ElementKind::Not
                | ElementKind::Buf
        )
    }

    /// The accepted input arity.
    pub fn input_arity(&self) -> Arity {
        match self {
            ElementKind::And
            | ElementKind::Or
            | ElementKind::Nand
            | ElementKind::Nor
            | ElementKind::Xor
            | ElementKind::Xnor => Arity::AtLeast(2),
            ElementKind::Not
            | ElementKind::Buf
            | ElementKind::Slice { .. }
            | ElementKind::ZeroExt { .. }
            | ElementKind::Shl { .. } => Arity::Exact(1),
            ElementKind::Mux { .. } | ElementKind::DffR { .. } | ElementKind::Adder { .. } => {
                Arity::Exact(3)
            }
            ElementKind::Memory { .. } => Arity::Exact(4),
            ElementKind::Dff { .. }
            | ElementKind::Latch { .. }
            | ElementKind::TriBuf { .. }
            | ElementKind::Subtractor { .. }
            | ElementKind::Multiplier { .. }
            | ElementKind::Comparator { .. } => Arity::Exact(2),
            ElementKind::Resolver { .. } => Arity::AtLeast(2),
            _ => Arity::Exact(0), // generators
        }
    }

    /// Checks an input count against [`Self::input_arity`].
    ///
    /// # Errors
    ///
    /// Returns [`PortCountError`] when the count is not accepted.
    pub fn check_arity(&self, n_inputs: usize) -> Result<(), PortCountError> {
        let ok = match self.input_arity() {
            Arity::Exact(n) => n_inputs == n,
            Arity::AtLeast(n) => n_inputs >= n,
        };
        if ok {
            Ok(())
        } else {
            Err(PortCountError {
                kind: format!("{self:?}"),
                expected: self.input_arity(),
                got: n_inputs,
            })
        }
    }

    /// The controlling-value rule for this element, if it has one.
    ///
    /// Used by the asynchronous engine to extend output valid times past
    /// unknown inputs while another input pins the output.
    pub fn controlling(&self) -> Option<Controlling> {
        match self {
            ElementKind::And => Some(Controlling {
                input: Bit::Zero,
                output: Bit::Zero,
            }),
            ElementKind::Nand => Some(Controlling {
                input: Bit::Zero,
                output: Bit::One,
            }),
            ElementKind::Or => Some(Controlling {
                input: Bit::One,
                output: Bit::One,
            }),
            ElementKind::Nor => Some(Controlling {
                input: Bit::One,
                output: Bit::Zero,
            }),
            _ => None,
        }
    }

    /// The trigger rule for this element, if it is clocked.
    ///
    /// Port numbers follow the input order documented on each variant:
    /// a flip-flop or memory only samples on a rising clock edge (and a
    /// `DffR` also moves when its asynchronous reset asserts); a latch
    /// holds while its enable is a known 0, until the enable changes, and
    /// is transparent — no rule — otherwise.
    pub fn triggers(&self) -> Option<Triggers> {
        let (ports, while_level): (&'static [(usize, Edge)], _) = match self {
            ElementKind::Dff { .. } | ElementKind::Memory { .. } => (&[(0, Edge::Rising)], None),
            ElementKind::DffR { .. } => (&[(0, Edge::Rising), (2, Edge::ToOne)], None),
            ElementKind::Latch { .. } => (&[(0, Edge::Any)], Some(Bit::Zero)),
            _ => return None,
        };
        Some(Triggers { ports, while_level })
    }

    /// The lookahead rule for an instance of this kind, resolved once per
    /// element at simulator start-up. `scalar` says every port of the
    /// instance is one bit wide — the controlling-value rule reads single
    /// bits, so a bus-wide gate gets none.
    pub fn lookahead(&self, scalar: bool) -> Lookahead {
        match (self.controlling(), self.triggers()) {
            (Some(c), _) if scalar => Lookahead::Controlling(c.input),
            (_, Some(t)) => Lookahead::Triggers(t),
            _ => Lookahead::None,
        }
    }

    /// Relative evaluation cost in "inverter events", the paper's unit
    /// ("elements at the higher levels of abstraction will have execution
    /// times ranging from 1 to 100 inverter-events").
    ///
    /// Used by the LPT partitioner and by the virtual-machine cost model.
    pub fn eval_cost(&self) -> u64 {
        match self {
            ElementKind::Not | ElementKind::Buf => 1,
            ElementKind::And | ElementKind::Or | ElementKind::Nand | ElementKind::Nor => 1,
            ElementKind::Xor | ElementKind::Xnor => 2,
            ElementKind::Mux { .. } => 2,
            ElementKind::Dff { .. } | ElementKind::Latch { .. } => 2,
            ElementKind::DffR { .. } => 3,
            ElementKind::Adder { width } | ElementKind::Subtractor { width } => {
                2 + (*width as u64) / 2
            }
            ElementKind::Multiplier { width } => 4 + 2 * (*width as u64),
            ElementKind::Comparator { width } => 2 + (*width as u64) / 4,
            ElementKind::Slice { .. } | ElementKind::ZeroExt { .. } | ElementKind::Shl { .. } => 1,
            ElementKind::TriBuf { .. } => 1,
            ElementKind::Resolver { width } => 1 + (*width as u64) / 8,
            ElementKind::Memory { addr_bits, width } => {
                5 + (*width as u64) / 4 + *addr_bits as u64
            }
            ElementKind::Clock { .. }
            | ElementKind::Pulse { .. }
            | ElementKind::Pattern { .. }
            | ElementKind::Vector { .. }
            | ElementKind::Lfsr { .. }
            | ElementKind::Const { .. } => 1,
        }
    }

    /// A short lowercase mnemonic used by the netlist text format.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            ElementKind::And => "and",
            ElementKind::Or => "or",
            ElementKind::Nand => "nand",
            ElementKind::Nor => "nor",
            ElementKind::Xor => "xor",
            ElementKind::Xnor => "xnor",
            ElementKind::Not => "not",
            ElementKind::Buf => "buf",
            ElementKind::Mux { .. } => "mux",
            ElementKind::Dff { .. } => "dff",
            ElementKind::DffR { .. } => "dffr",
            ElementKind::Latch { .. } => "latch",
            ElementKind::Adder { .. } => "add",
            ElementKind::Subtractor { .. } => "sub",
            ElementKind::Multiplier { .. } => "mul",
            ElementKind::Comparator { .. } => "cmp",
            ElementKind::Memory { .. } => "mem",
            ElementKind::TriBuf { .. } => "tribuf",
            ElementKind::Resolver { .. } => "res",
            ElementKind::Slice { .. } => "slice",
            ElementKind::ZeroExt { .. } => "zext",
            ElementKind::Shl { .. } => "shl",
            ElementKind::Clock { .. } => "clock",
            ElementKind::Pulse { .. } => "pulse",
            ElementKind::Pattern { .. } => "pattern",
            ElementKind::Vector { .. } => "vector",
            ElementKind::Lfsr { .. } => "lfsr",
            ElementKind::Const { .. } => "const",
        }
    }
}

impl fmt::Display for ElementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Error returned when an element is connected to the wrong number of
/// inputs.
///
/// # Examples
///
/// ```
/// use parsim_logic::ElementKind;
///
/// assert!(ElementKind::Not.check_arity(2).is_err());
/// assert!(ElementKind::And.check_arity(4).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortCountError {
    kind: String,
    expected: Arity,
    got: usize,
}

impl fmt::Display for PortCountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let expected = match self.expected {
            Arity::Exact(n) => format!("exactly {n}"),
            Arity::AtLeast(n) => format!("at least {n}"),
        };
        write!(
            f,
            "element {} expects {expected} inputs, got {}",
            self.kind, self.got
        )
    }
}

impl Error for PortCountError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_checks() {
        assert!(ElementKind::And.check_arity(2).is_ok());
        assert!(ElementKind::And.check_arity(5).is_ok());
        assert!(ElementKind::And.check_arity(1).is_err());
        assert!(ElementKind::Not.check_arity(1).is_ok());
        assert!(ElementKind::Adder { width: 8 }.check_arity(3).is_ok());
        assert!(ElementKind::Adder { width: 8 }.check_arity(2).is_err());
        assert!(ElementKind::Clock {
            half_period: 5,
            offset: 0
        }
        .check_arity(0)
        .is_ok());
    }

    #[test]
    fn output_shapes() {
        let adder = ElementKind::Adder { width: 8 };
        assert_eq!(adder.num_outputs(), 2);
        assert_eq!(adder.output_width(0), 8);
        assert_eq!(adder.output_width(1), 1);
        let mul = ElementKind::Multiplier { width: 3 };
        assert_eq!(mul.output_width(0), 6);
    }

    #[test]
    fn generator_classification() {
        assert!(ElementKind::Const {
            value: Value::bit(true)
        }
        .is_generator());
        assert!(!ElementKind::And.is_generator());
        assert!(ElementKind::Dff { width: 1 }.is_sequential());
        assert!(!ElementKind::And.is_sequential());
    }

    #[test]
    fn controlling_values() {
        let c = ElementKind::And.controlling().unwrap();
        assert_eq!(c.input, Bit::Zero);
        assert_eq!(c.output, Bit::Zero);
        let c = ElementKind::Nor.controlling().unwrap();
        assert_eq!(c.input, Bit::One);
        assert_eq!(c.output, Bit::Zero);
        assert!(ElementKind::Xor.controlling().is_none());
    }

    #[test]
    fn trigger_ports_name_clock_reset_and_enable() {
        let t = ElementKind::Dff { width: 4 }.triggers().unwrap();
        assert_eq!((t.ports, t.while_level), (&[(0, Edge::Rising)][..], None));
        let t = ElementKind::DffR { width: 1 }.triggers().unwrap();
        assert_eq!((t.ports, t.while_level), (&[(0, Edge::Rising), (2, Edge::ToOne)][..], None));
        let t = ElementKind::Memory { addr_bits: 2, width: 8 }.triggers().unwrap();
        assert_eq!((t.ports, t.while_level), (&[(0, Edge::Rising)][..], None));
        let t = ElementKind::Latch { width: 2 }.triggers().unwrap();
        assert_eq!((t.ports, t.while_level), (&[(0, Edge::Any)][..], Some(Bit::Zero)));
        // Exactly the sequential kinds have a rule.
        for kind in [ElementKind::Dff { width: 4 }, ElementKind::Latch { width: 2 }] {
            assert_eq!(kind.lookahead(false), Lookahead::Triggers(kind.triggers().unwrap()));
        }
        assert_eq!(ElementKind::Nand.lookahead(true), Lookahead::Controlling(Bit::Zero));
        assert_eq!(ElementKind::Nand.lookahead(false), Lookahead::None);
        assert_eq!(ElementKind::Xor.lookahead(true), Lookahead::None);
        assert!(ElementKind::And.triggers().is_none());
        assert!(ElementKind::TriBuf { width: 1 }.triggers().is_none());
        assert!(ElementKind::Clock { half_period: 1, offset: 0 }.triggers().is_none());
    }

    #[test]
    fn edges_name_the_moving_transitions() {
        let (lo, hi, x, z) = (Value::bit(false), Value::bit(true), Value::x(1), Value::z(1));
        assert!(Edge::Rising.moves(&lo, &hi));
        for (prev, now) in [(hi, lo), (x, hi), (z, hi), (lo, x), (hi, x)] {
            assert!(!Edge::Rising.moves(&prev, &now), "{prev} -> {now}");
        }
        for prev in [lo, x, z] {
            assert!(Edge::ToOne.moves(&prev, &hi), "{prev} -> 1");
        }
        for (prev, now) in [(hi, lo), (hi, x), (lo, z), (x, lo)] {
            assert!(!Edge::ToOne.moves(&prev, &now), "{prev} -> {now}");
        }
        assert!(Edge::Any.moves(&hi, &lo));
    }

    #[test]
    fn scan_quiet_stops_before_the_first_moving_event() {
        let (lo, hi) = (Value::bit(false), Value::bit(true));
        let clock = [(10, hi), (20, lo), (30, hi), (40, lo)];
        // From 0, the rising edge at 10 moves; from 1, the one at 30.
        assert_eq!(scan_quiet(50, lo, clock, Edge::Rising), 9);
        assert_eq!(scan_quiet(50, hi, clock[1..].iter().copied(), Edge::Rising), 29);
        // Every event moves: one tick before the next event, as a peek.
        assert_eq!(scan_quiet(50, hi, clock[1..].iter().copied(), Edge::Any), 19);
        // Drained: the valid time. A non-moving event at or past it: that
        // event's time.
        assert_eq!(scan_quiet(50, lo, [(40, lo)], Edge::Rising), 50);
        assert_eq!(scan_quiet(50, lo, std::iter::empty(), Edge::Rising), 50);
        assert_eq!(scan_quiet(15, hi, clock[1..].iter().copied(), Edge::Rising), 20);
        // A glitch train: the scan stops at its limit, on the last event
        // it read.
        let glitches = (1..=100u64).map(|t| (t, if t % 2 == 1 { Value::x(1) } else { hi }));
        assert_eq!(scan_quiet(1_000, hi, glitches, Edge::Rising), SCAN_LIMIT as u64);
    }

    #[test]
    fn costs_scale_with_abstraction_level() {
        // The paper: functional elements cost 1..100 inverter events.
        let inv = ElementKind::Not.eval_cost();
        let add8 = ElementKind::Adder { width: 8 }.eval_cost();
        let mul3 = ElementKind::Multiplier { width: 3 }.eval_cost();
        assert_eq!(inv, 1);
        assert!(add8 > inv && mul3 > inv);
        assert!(mul3 <= 100 && add8 <= 100);
    }

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(ElementKind::Nand.mnemonic(), "nand");
        assert_eq!(ElementKind::Dff { width: 4 }.to_string(), "dff");
    }
}
