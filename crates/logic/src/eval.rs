//! The element evaluation kernel shared by all four simulation engines.

use crate::kind::ElementKind;
use crate::time::Time;
use crate::value::Value;

/// Per-element internal state.
///
/// Combinational elements carry no state; flip-flops and latches store
/// their output plus (for edge-triggered elements) the last observed
/// clock value so that edges can be detected idempotently no matter how
/// often an engine re-evaluates the element with unchanged inputs;
/// memories store their cell array as well.
///
/// # Examples
///
/// ```
/// use parsim_logic::{ElemState, ElementKind};
///
/// let st = ElemState::init(&ElementKind::Dff { width: 4 });
/// assert!(matches!(st, ElemState::Edge { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElemState {
    /// No internal state (combinational elements and generators).
    None,
    /// A stored output value (latches).
    Stored(Value),
    /// Stored output plus last clock sample (edge-triggered flip-flops).
    Edge { q: Value, last_clk: Value },
    /// Memory cells plus registered read output and last clock sample.
    Mem {
        cells: Vec<Value>,
        q: Value,
        last_clk: Value,
    },
}

impl ElemState {
    /// The correct initial state for an element of the given kind.
    ///
    /// Sequential outputs start at all-`X`, matching the paper's
    /// initialization where everything is "only known to be X at time 0".
    pub fn init(kind: &ElementKind) -> ElemState {
        match kind {
            ElementKind::Dff { width } | ElementKind::DffR { width } => ElemState::Edge {
                q: Value::x(*width),
                last_clk: Value::x(1),
            },
            ElementKind::Latch { width } => ElemState::Stored(Value::x(*width)),
            ElementKind::Memory { addr_bits, width } => ElemState::Mem {
                cells: vec![Value::x(*width); 1usize << *addr_bits],
                q: Value::x(*width),
                last_clk: Value::x(1),
            },
            _ => ElemState::None,
        }
    }
}

/// The outputs produced by one element evaluation (at most two ports).
///
/// # Examples
///
/// ```
/// use parsim_logic::{evaluate, ElemState, ElementKind, Value};
///
/// let mut st = ElemState::None;
/// let a = Value::from_u64(9, 8);
/// let b = Value::from_u64(250, 8);
/// let out = evaluate(
///     &ElementKind::Adder { width: 8 },
///     &[a, b, Value::bit(false)],
///     &mut st,
/// );
/// assert_eq!(out.len(), 2);
/// assert_eq!(out.get(0).to_u64(), Some(3)); // 259 mod 256
/// assert_eq!(out.get(1).to_u64(), Some(1)); // carry out
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outputs {
    vals: [Value; 2],
    len: u8,
}

impl Outputs {
    /// A single-output result.
    #[inline]
    pub fn one(v: Value) -> Outputs {
        Outputs {
            vals: [v, v],
            len: 1,
        }
    }

    /// A two-output result.
    #[inline]
    pub fn two(a: Value, b: Value) -> Outputs {
        Outputs { vals: [a, b], len: 2 }
    }

    /// The number of populated output ports (1 or 2).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no outputs are populated (never the case for valid elements).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value on output port `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> Value {
        assert!(idx < self.len(), "output index out of range");
        self.vals[idx]
    }

    /// Iterates over `(port, value)` pairs.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (usize, Value)> + '_ {
        (0..self.len()).map(move |i| (i, self.vals[i]))
    }
}

/// Evaluates one element given its current input values, updating internal
/// state, and returns the values now driven on its outputs.
///
/// This kernel is deliberately *pure with respect to time*: all timing
/// (delays, scheduling) is the engines' business, which is what lets the
/// same models run under the synchronous event-driven, compiled-mode, and
/// asynchronous algorithms unchanged.
///
/// Generator elements are **not** evaluated through this function — they are
/// pre-expanded for all simulation time by [`expand_generator`] (§4 step 1
/// of the paper). Calling `evaluate` on a generator returns its initial
/// value so that engines which sweep every element stay well-defined.
///
/// # Panics
///
/// Panics if `inputs` has the wrong arity or mismatched widths for the
/// element kind; netlist validation prevents both for well-formed circuits.
pub fn evaluate(kind: &ElementKind, inputs: &[Value], state: &mut ElemState) -> Outputs {
    match kind {
        ElementKind::And => Outputs::one(fold_logic(inputs, Value::and)),
        ElementKind::Or => Outputs::one(fold_logic(inputs, Value::or)),
        ElementKind::Nand => Outputs::one(fold_logic(inputs, Value::and).not()),
        ElementKind::Nor => Outputs::one(fold_logic(inputs, Value::or).not()),
        ElementKind::Xor => Outputs::one(fold_logic(inputs, Value::xor)),
        ElementKind::Xnor => Outputs::one(fold_logic(inputs, Value::xor).not()),
        ElementKind::Not => Outputs::one(inputs[0].to_logic().not()),
        ElementKind::Buf => Outputs::one(inputs[0].to_logic()),
        ElementKind::Mux { .. } => Outputs::one(Value::mux(&inputs[0], &inputs[1], &inputs[2])),
        ElementKind::Dff { .. } => {
            let clk = inputs[0];
            let d = inputs[1];
            let ElemState::Edge { q, last_clk } = state else {
                panic!("dff evaluated with non-edge state");
            };
            if Value::is_rising_edge(last_clk, &clk) {
                *q = d;
            }
            *last_clk = clk;
            Outputs::one(*q)
        }
        ElementKind::DffR { width } => {
            let clk = inputs[0];
            let d = inputs[1];
            let rst = inputs[2].to_logic();
            let ElemState::Edge { q, last_clk } = state else {
                panic!("dffr evaluated with non-edge state");
            };
            if rst.to_u64() == Some(1) {
                *q = Value::zero(*width);
            } else if Value::is_rising_edge(last_clk, &clk) && rst.to_u64() == Some(0) {
                *q = d;
            }
            *last_clk = clk;
            Outputs::one(*q)
        }
        ElementKind::Latch { width } => {
            let en = inputs[0].to_logic();
            let d = inputs[1];
            let ElemState::Stored(q) = state else {
                panic!("latch evaluated with non-stored state");
            };
            match en.to_u64() {
                Some(1) => *q = d,
                Some(_) => {}
                None => {
                    if *q != d {
                        *q = Value::x(*width);
                    }
                }
            }
            Outputs::one(*q)
        }
        ElementKind::Adder { .. } => {
            let (sum, cout) = inputs[0].add_carry(&inputs[1], &inputs[2]);
            Outputs::two(sum, cout)
        }
        ElementKind::Subtractor { .. } => Outputs::one(inputs[0].sub(&inputs[1])),
        ElementKind::Multiplier { width } => {
            let out_w = width.saturating_mul(2).min(64);
            Outputs::one(inputs[0].mul(&inputs[1], out_w))
        }
        ElementKind::Comparator { .. } => Outputs::two(
            inputs[0].logic_eq(&inputs[1]),
            inputs[0].logic_lt(&inputs[1]),
        ),
        ElementKind::Memory { width, .. } => {
            let clk = inputs[0];
            let we = inputs[1].to_logic();
            let addr = inputs[2].to_logic();
            let wdata = inputs[3];
            let ElemState::Mem { cells, q, last_clk } = state else {
                panic!("memory evaluated with non-memory state");
            };
            if Value::is_rising_edge(last_clk, &clk) {
                // Read-first: the old cell value appears on rdata.
                *q = match addr.to_u64() {
                    Some(a) => cells[a as usize],
                    None => Value::x(*width),
                };
                // Then the write, with conservative X handling.
                match (we.to_u64(), addr.to_u64()) {
                    (Some(1), Some(a)) => cells[a as usize] = wdata,
                    (Some(_), _) => {} // we = 0: no write
                    (None, Some(a)) => cells[a as usize] = Value::x(*width),
                    (None, None) => {
                        for c in cells.iter_mut() {
                            *c = Value::x(*width);
                        }
                    }
                }
                if we.to_u64() == Some(1) && addr.to_u64().is_none() {
                    // Writing to an unknown address poisons everything.
                    for c in cells.iter_mut() {
                        *c = Value::x(*width);
                    }
                }
            }
            *last_clk = clk;
            Outputs::one(*q)
        }
        ElementKind::TriBuf { width } => {
            let en = inputs[0].to_logic();
            Outputs::one(match en.to_u64() {
                Some(1) => inputs[1],
                Some(_) => Value::z(*width),
                None => Value::x(*width),
            })
        }
        ElementKind::Resolver { .. } => {
            let mut acc = inputs[0];
            for v in &inputs[1..] {
                acc = acc.resolve(v);
            }
            Outputs::one(acc)
        }
        ElementKind::Slice { lo, width, .. } => Outputs::one(inputs[0].slice(*lo, *width)),
        ElementKind::ZeroExt {
            in_width,
            out_width,
        } => Outputs::one(if out_width > in_width {
            inputs[0].concat(&Value::zero(out_width - in_width))
        } else {
            inputs[0]
        }),
        ElementKind::Shl {
            out_width, amount, ..
        } => {
            let padded = if *amount > 0 {
                Value::zero(*amount).concat(&inputs[0])
            } else {
                inputs[0]
            };
            let out = if padded.width() > *out_width {
                padded.slice(0, *out_width)
            } else if padded.width() < *out_width {
                padded.concat(&Value::zero(*out_width - padded.width()))
            } else {
                padded
            };
            Outputs::one(out)
        }
        // Generators: engines use `expand_generator`; return the t=0 value.
        _ => Outputs::one(generator_initial(kind)),
    }
}

fn fold_logic(inputs: &[Value], op: fn(&Value, &Value) -> Value) -> Value {
    let mut acc = inputs[0].to_logic();
    for v in &inputs[1..] {
        acc = op(&acc, &v.to_logic());
    }
    acc
}

fn generator_initial(kind: &ElementKind) -> Value {
    match kind {
        ElementKind::Clock { offset, .. } => Value::bit(*offset == 0),
        ElementKind::Pulse { at, .. } => Value::bit(*at == 0),
        ElementKind::Pattern { values, .. } => values[0],
        ElementKind::Vector { changes } => {
            if changes[0].0 == 0 {
                changes[0].1
            } else {
                Value::x(changes[0].1.width())
            }
        }
        ElementKind::Lfsr { width, seed, .. } => Value::from_u64(*seed, *width),
        ElementKind::Const { value } => *value,
        _ => unreachable!("not a generator"),
    }
}

/// Expands a generator element into its full event schedule up to and
/// including `end_time` — the paper's §4 step 1 ("evaluate all generator
/// and constant nodes for all time").
///
/// The returned list always starts with the value at time zero, is strictly
/// increasing in time, and never contains two consecutive equal values.
///
/// # Panics
///
/// Panics if `kind` is not a generator (see
/// [`ElementKind::is_generator`]), or if a periodic generator has a zero
/// period.
///
/// # Examples
///
/// ```
/// use parsim_logic::{expand_generator, ElementKind, Time, Value};
///
/// let clk = ElementKind::Clock { half_period: 5, offset: 5 };
/// let ev = expand_generator(&clk, Time(20));
/// assert_eq!(
///     ev,
///     vec![
///         (Time(0), Value::bit(false)),
///         (Time(5), Value::bit(true)),
///         (Time(10), Value::bit(false)),
///         (Time(15), Value::bit(true)),
///         (Time(20), Value::bit(false)),
///     ]
/// );
/// ```
pub fn expand_generator(kind: &ElementKind, end_time: Time) -> Vec<(Time, Value)> {
    assert!(kind.is_generator(), "expand_generator on non-generator");
    let end = end_time.ticks();
    let mut events: Vec<(Time, Value)> = Vec::new();
    if let ElementKind::Vector { changes } = kind {
        expand_vector(changes.iter().copied(), end_time, |t, v| events.push((t, v)));
        return events;
    }
    let mut push = |t: u64, v: Value| {
        if let Some((lt, lv)) = events.last() {
            if lt.ticks() == t {
                events.pop();
                if let Some((_, prev)) = events.last() {
                    if *prev == v {
                        return;
                    }
                }
            } else if *lv == v {
                return;
            }
        }
        events.push((Time(t), v));
    };
    match kind {
        ElementKind::Clock {
            half_period,
            offset,
        } => {
            assert!(*half_period >= 1, "clock half_period must be >= 1");
            push(0, Value::bit(false));
            let mut level = false;
            let mut t = *offset;
            while t <= end {
                level = !level;
                push(t, Value::bit(level));
                t = t.saturating_add(*half_period);
                if t == u64::MAX {
                    break;
                }
            }
        }
        ElementKind::Pulse { at, width } => {
            push(0, Value::bit(false));
            if *at <= end {
                push(*at, Value::bit(true));
                let fall = at.saturating_add(*width);
                if fall <= end {
                    push(fall, Value::bit(false));
                }
            }
        }
        ElementKind::Pattern { period, values } => {
            assert!(*period >= 1, "pattern period must be >= 1");
            assert!(!values.is_empty(), "pattern must have values");
            let mut k = 0u64;
            loop {
                let t = k.saturating_mul(*period);
                if t > end {
                    break;
                }
                push(t, values[(k % values.len() as u64) as usize]);
                k += 1;
            }
        }
        ElementKind::Lfsr {
            width,
            period,
            seed,
        } => {
            assert!(*period >= 1, "lfsr period must be >= 1");
            let mut state = if *seed == 0 { 0xace1_u64 } else { *seed };
            let m = if *width >= 64 {
                u64::MAX
            } else {
                (1u64 << *width) - 1
            };
            let mut t = 0u64;
            loop {
                push(t, Value::from_u64(state & m, *width));
                // x^64 + x^63 + x^61 + x^60 + 1 Fibonacci LFSR.
                let bit = (state ^ (state >> 1) ^ (state >> 3) ^ (state >> 4)) & 1;
                state = (state >> 1) | (bit << 63);
                t = t.saturating_add(*period);
                if t > end || t == u64::MAX {
                    break;
                }
            }
        }
        ElementKind::Const { value } => push(0, *value),
        _ => unreachable!(),
    }
    events
}

/// The event schedule of a [`ElementKind::Vector`] generator, streamed:
/// calls `emit` for each event up to and including `end_time`, in time
/// order. Before its first change the node is unknown (unless the vector
/// starts at `t = 0`), and a change that repeats the previous value is no
/// event.
///
/// This is the one definition of "a node driven by a `Vector`":
/// [`expand_generator`] collects it, and the batch kernel streams each
/// lane's override schedule through it without building an `ElementKind`
/// — which is what makes a batch lane exactly a `Vector`-driven netlist.
///
/// # Panics
///
/// Panics if `changes` is not strictly increasing in time.
pub fn expand_vector(
    changes: impl IntoIterator<Item = (u64, Value)>,
    end_time: Time,
    mut emit: impl FnMut(Time, Value),
) {
    let mut prev_t: Option<u64> = None;
    // What the node holds after the last emitted event.
    let mut held: Option<Value> = None;
    for (t, v) in changes {
        assert!(
            prev_t.is_none_or(|p| p < t),
            "vector changes must be strictly increasing in time"
        );
        if prev_t.is_none() && t > 0 {
            let x = Value::x(v.width());
            emit(Time::ZERO, x);
            held = Some(x);
        }
        prev_t = Some(t);
        // Past `end_time` only the ordering check is still owed.
        if t <= end_time.ticks() && held != Some(v) {
            emit(Time(t), v);
            held = Some(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::kind::Arity;
    use crate::value::Bit;

    fn eval(kind: &ElementKind, inputs: &[Value]) -> Value {
        let mut st = ElemState::init(kind);
        evaluate(kind, inputs, &mut st).get(0)
    }

    #[test]
    fn basic_gates() {
        let t = Value::bit(true);
        let f = Value::bit(false);
        assert_eq!(eval(&ElementKind::And, &[t, t, t]), t);
        assert_eq!(eval(&ElementKind::And, &[t, f, t]), f);
        assert_eq!(eval(&ElementKind::Or, &[f, f]), f);
        assert_eq!(eval(&ElementKind::Nand, &[t, t]), f);
        assert_eq!(eval(&ElementKind::Nor, &[f, f]), t);
        assert_eq!(eval(&ElementKind::Xor, &[t, f]), t);
        assert_eq!(eval(&ElementKind::Xnor, &[t, f]), f);
        assert_eq!(eval(&ElementKind::Not, &[t]), f);
        assert_eq!(eval(&ElementKind::Buf, &[t]), t);
    }

    #[test]
    fn wide_gates_are_bitwise() {
        let a = Value::from_u64(0b1100, 4);
        let b = Value::from_u64(0b1010, 4);
        assert_eq!(eval(&ElementKind::And, &[a, b]).to_u64(), Some(0b1000));
        assert_eq!(eval(&ElementKind::Nor, &[a, b]).to_u64(), Some(0b0001));
    }

    #[test]
    fn mux_selects_and_merges() {
        let a = Value::from_u64(3, 4);
        let b = Value::from_u64(9, 4);
        let mux = ElementKind::Mux { width: 4 };
        assert_eq!(eval(&mux, &[Value::bit(false), a, b]), a);
        assert_eq!(eval(&mux, &[Value::bit(true), a, b]), b);
        assert_eq!(eval(&mux, &[Value::x(1), a, b]), Value::x(4));
        assert_eq!(eval(&mux, &[Value::x(1), a, a]), a);
    }

    #[test]
    fn dff_captures_on_rising_edge_only() {
        let dff = ElementKind::Dff { width: 4 };
        let mut st = ElemState::init(&dff);
        let d1 = Value::from_u64(5, 4);
        let d2 = Value::from_u64(9, 4);
        // Initial: X clock, output X.
        let q = evaluate(&dff, &[Value::bit(false), d1], &mut st).get(0);
        assert_eq!(q, Value::x(4)); // no edge from X->0
        let q = evaluate(&dff, &[Value::bit(true), d1], &mut st).get(0);
        assert_eq!(q, d1); // 0 -> 1 edge captures
        let q = evaluate(&dff, &[Value::bit(true), d2], &mut st).get(0);
        assert_eq!(q, d1); // data change while clock high: hold
        let q = evaluate(&dff, &[Value::bit(false), d2], &mut st).get(0);
        assert_eq!(q, d1); // falling edge: hold
        let q = evaluate(&dff, &[Value::bit(true), d2], &mut st).get(0);
        assert_eq!(q, d2); // next rising edge captures new data
    }

    #[test]
    fn dff_edge_detection_is_idempotent() {
        let dff = ElementKind::Dff { width: 1 };
        let mut st = ElemState::init(&dff);
        evaluate(&dff, &[Value::bit(false), Value::bit(true)], &mut st);
        evaluate(&dff, &[Value::bit(true), Value::bit(true)], &mut st);
        let q1 = evaluate(&dff, &[Value::bit(true), Value::bit(false)], &mut st).get(0);
        let q2 = evaluate(&dff, &[Value::bit(true), Value::bit(false)], &mut st).get(0);
        assert_eq!(q1, q2, "re-evaluation with same inputs must not re-trigger");
    }

    #[test]
    fn dffr_async_reset_dominates() {
        let dffr = ElementKind::DffR { width: 2 };
        let mut st = ElemState::init(&dffr);
        let d = Value::from_u64(3, 2);
        let q =
            evaluate(&dffr, &[Value::bit(false), d, Value::bit(true)], &mut st).get(0);
        assert_eq!(q.to_u64(), Some(0));
        evaluate(&dffr, &[Value::bit(false), d, Value::bit(false)], &mut st);
        let q =
            evaluate(&dffr, &[Value::bit(true), d, Value::bit(false)], &mut st).get(0);
        assert_eq!(q, d);
    }

    #[test]
    fn latch_transparent_and_opaque() {
        let latch = ElementKind::Latch { width: 2 };
        let mut st = ElemState::init(&latch);
        let d1 = Value::from_u64(2, 2);
        let d2 = Value::from_u64(1, 2);
        let q = evaluate(&latch, &[Value::bit(true), d1], &mut st).get(0);
        assert_eq!(q, d1);
        let q = evaluate(&latch, &[Value::bit(false), d2], &mut st).get(0);
        assert_eq!(q, d1, "opaque latch holds");
        let q = evaluate(&latch, &[Value::bit(true), d2], &mut st).get(0);
        assert_eq!(q, d2);
    }

    #[test]
    fn functional_blocks() {
        let mut st = ElemState::None;
        let out = evaluate(
            &ElementKind::Comparator { width: 4 },
            &[Value::from_u64(3, 4), Value::from_u64(7, 4)],
            &mut st,
        );
        assert_eq!(out.get(0), Value::bit(false)); // eq
        assert_eq!(out.get(1), Value::bit(true)); // lt
        let p = evaluate(
            &ElementKind::Multiplier { width: 3 },
            &[Value::from_u64(5, 3), Value::from_u64(7, 3)],
            &mut st,
        );
        assert_eq!(p.get(0).to_u64(), Some(35));
        let d = evaluate(
            &ElementKind::Subtractor { width: 8 },
            &[Value::from_u64(5, 8), Value::from_u64(7, 8)],
            &mut st,
        );
        assert_eq!(d.get(0).to_u64(), Some(254));
    }

    #[test]
    fn memory_read_first_semantics() {
        let mem = ElementKind::Memory {
            addr_bits: 2,
            width: 8,
        };
        let mut st = ElemState::init(&mem);
        let lo = Value::bit(false);
        let hi = Value::bit(true);
        let a1 = Value::from_u64(1, 2);
        let d9 = Value::from_u64(9, 8);
        let d7 = Value::from_u64(7, 8);
        // Write 9 to cell 1 on the first edge (rdata shows the old X).
        evaluate(&mem, &[lo, hi, a1, d9], &mut st);
        let q = evaluate(&mem, &[hi, hi, a1, d9], &mut st).get(0);
        assert_eq!(q, Value::x(8), "read-first: old value appears");
        // Next edge, same address, write 7: rdata shows 9.
        evaluate(&mem, &[lo, hi, a1, d7], &mut st);
        let q = evaluate(&mem, &[hi, hi, a1, d7], &mut st).get(0);
        assert_eq!(q.to_u64(), Some(9));
        // Read-only edge: rdata shows 7.
        evaluate(&mem, &[lo, lo, a1, d9], &mut st);
        let q = evaluate(&mem, &[hi, lo, a1, d9], &mut st).get(0);
        assert_eq!(q.to_u64(), Some(7));
        // Other cells are untouched (still X).
        let a0 = Value::from_u64(0, 2);
        evaluate(&mem, &[lo, lo, a0, d9], &mut st);
        let q = evaluate(&mem, &[hi, lo, a0, d9], &mut st).get(0);
        assert_eq!(q, Value::x(8));
    }

    #[test]
    fn memory_unknowns_poison_conservatively() {
        let mem = ElementKind::Memory {
            addr_bits: 1,
            width: 4,
        };
        let mut st = ElemState::init(&mem);
        let lo = Value::bit(false);
        let hi = Value::bit(true);
        let a0 = Value::from_u64(0, 1);
        let d = Value::from_u64(5, 4);
        // Establish a known cell.
        evaluate(&mem, &[lo, hi, a0, d], &mut st);
        evaluate(&mem, &[hi, hi, a0, d], &mut st);
        // Write with unknown address: every cell poisons.
        evaluate(&mem, &[lo, hi, Value::x(1), d], &mut st);
        evaluate(&mem, &[hi, hi, Value::x(1), d], &mut st);
        evaluate(&mem, &[lo, lo, a0, d], &mut st);
        let q = evaluate(&mem, &[hi, lo, a0, d], &mut st).get(0);
        assert_eq!(q, Value::x(4), "unknown-address write poisons");
    }

    #[test]
    fn tristate_and_resolver() {
        let tb = ElementKind::TriBuf { width: 4 };
        let d = Value::from_u64(0b1010, 4);
        assert_eq!(eval(&tb, &[Value::bit(true), d]), d);
        assert_eq!(eval(&tb, &[Value::bit(false), d]), Value::z(4));
        assert_eq!(eval(&tb, &[Value::x(1), d]), Value::x(4));
        let res = ElementKind::Resolver { width: 4 };
        // One driver active, others floating: the bus carries its value.
        assert_eq!(eval(&res, &[d, Value::z(4), Value::z(4)]), d);
        // All floating: the bus floats.
        assert_eq!(eval(&res, &[Value::z(4), Value::z(4)]), Value::z(4));
        // Two drivers fighting: conflicting bits short to X.
        let other = Value::from_u64(0b1100, 4);
        let fight = eval(&res, &[d, other]);
        assert_eq!(fight.bit_at(3), Bit::One); // both drive 1
        assert_eq!(fight.bit_at(0), Bit::Zero); // both drive 0
        assert_eq!(fight.bit_at(1), Bit::X); // 1 vs 0
        assert_eq!(fight.bit_at(2), Bit::X); // 0 vs 1
    }

    #[test]
    fn wiring_elements() {
        let v = Value::from_u64(0b1011_0110, 8);
        assert_eq!(
            eval(
                &ElementKind::Slice {
                    in_width: 8,
                    lo: 2,
                    width: 3
                },
                &[v]
            )
            .to_u64(),
            Some(0b101)
        );
        let z = eval(
            &ElementKind::ZeroExt {
                in_width: 8,
                out_width: 12,
            },
            &[v],
        );
        assert_eq!(z.width(), 12);
        assert_eq!(z.to_u64(), Some(0b1011_0110));
        let s = eval(
            &ElementKind::Shl {
                in_width: 8,
                out_width: 12,
                amount: 3,
            },
            &[v],
        );
        assert_eq!(s.to_u64(), Some(0b1011_0110 << 3));
        // Truncating shift.
        let s = eval(
            &ElementKind::Shl {
                in_width: 8,
                out_width: 8,
                amount: 4,
            },
            &[v],
        );
        assert_eq!(s.to_u64(), Some((0b1011_0110 << 4) & 0xff));
        // X bits ride along through wiring.
        let x = eval(
            &ElementKind::ZeroExt {
                in_width: 1,
                out_width: 4,
            },
            &[Value::x(1)],
        );
        assert_eq!(x.bit_at(0), Bit::X);
        assert_eq!(x.bit_at(3), Bit::Zero);
    }

    #[test]
    fn clock_expansion() {
        let clk = ElementKind::Clock {
            half_period: 10,
            offset: 0,
        };
        let ev = expand_generator(&clk, Time(25));
        assert_eq!(
            ev,
            vec![
                (Time(0), Value::bit(true)),
                (Time(10), Value::bit(false)),
                (Time(20), Value::bit(true)),
            ]
        );
    }

    #[test]
    fn pulse_expansion() {
        let p = ElementKind::Pulse { at: 5, width: 3 };
        let ev = expand_generator(&p, Time(100));
        assert_eq!(
            ev,
            vec![
                (Time(0), Value::bit(false)),
                (Time(5), Value::bit(true)),
                (Time(8), Value::bit(false)),
            ]
        );
    }

    #[test]
    fn pattern_expansion_cycles_and_dedups() {
        let vals: Arc<[Value]> = vec![
            Value::from_u64(1, 2),
            Value::from_u64(1, 2),
            Value::from_u64(2, 2),
        ]
        .into();
        let pat = ElementKind::Pattern {
            period: 10,
            values: vals,
        };
        let ev = expand_generator(&pat, Time(45));
        // t=0: 1, t=10: 1 (dedup), t=20: 2, t=30: 1, t=40: 1 (dedup)
        assert_eq!(
            ev,
            vec![
                (Time(0), Value::from_u64(1, 2)),
                (Time(20), Value::from_u64(2, 2)),
                (Time(30), Value::from_u64(1, 2)),
            ]
        );
    }

    #[test]
    fn lfsr_expansion_is_deterministic_and_in_range() {
        let l = ElementKind::Lfsr {
            width: 4,
            period: 3,
            seed: 42,
        };
        let a = expand_generator(&l, Time(60));
        let b = expand_generator(&l, Time(60));
        assert_eq!(a, b);
        assert!(a.iter().all(|(_, v)| v.to_u64().unwrap() < 16));
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn const_expansion() {
        let c = ElementKind::Const {
            value: Value::from_u64(9, 4),
        };
        assert_eq!(
            expand_generator(&c, Time(1000)),
            vec![(Time(0), Value::from_u64(9, 4))]
        );
    }

    #[test]
    fn vector_expansion_starts_unknown_dedups_and_stops_at_the_end() {
        let bit = Value::bit;
        let changes: Arc<[(u64, Value)]> =
            vec![(3, Value::x(1)), (5, bit(true)), (6, bit(true)), (9, bit(false)), (12, bit(true))]
                .into();
        // Unknown until t=3, where X repeats it; 6 repeats 5; 12 is past the end.
        let want = vec![(Time(0), Value::x(1)), (Time(5), bit(true)), (Time(9), bit(false))];
        let kind = ElementKind::Vector { changes: changes.clone() };
        assert_eq!(expand_generator(&kind, Time(10)), want);
        let mut streamed = Vec::new();
        expand_vector(changes.iter().copied(), Time(10), |t, v| streamed.push((t, v)));
        assert_eq!(streamed, want);
        // A vector that starts at t=0 has no unknown prefix.
        let mut from_zero = Vec::new();
        expand_vector([(0, bit(false)), (4, bit(true))], Time(3), |t, v| from_zero.push((t, v)));
        assert_eq!(from_zero, vec![(Time(0), bit(false))]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn vector_expansion_rejects_unordered_changes_even_past_the_end() {
        let bit = Value::bit;
        expand_vector([(0, bit(false)), (9, bit(true)), (9, bit(false))], Time(3), |_, _| {});
    }

    #[test]
    fn events_strictly_increase_and_never_repeat_value() {
        for kind in [
            ElementKind::Clock {
                half_period: 7,
                offset: 3,
            },
            ElementKind::Lfsr {
                width: 2,
                period: 5,
                seed: 1,
            },
        ] {
            let ev = expand_generator(&kind, Time(200));
            assert!(ev.windows(2).all(|w| w[0].0 < w[1].0), "{kind:?}");
            assert!(ev.windows(2).all(|w| w[0].1 != w[1].1), "{kind:?}");
            assert_eq!(ev[0].0, Time::ZERO);
        }
    }

    #[test]
    fn x_propagates_through_gates() {
        let x = Value::x(1);
        assert_eq!(eval(&ElementKind::Xor, &[x, Value::bit(true)]), x);
        assert_eq!(eval(&ElementKind::And, &[x, Value::bit(false)]), Value::bit(false));
        assert_eq!(eval(&ElementKind::Or, &[x, Value::bit(true)]), Value::bit(true));
    }

    /// Every state a 1-bit sequential element can hold: each stored word
    /// and each last clock sample, and both cells of a 1-bit memory.
    fn every_state(kind: &ElementKind) -> Vec<ElemState> {
        let four = [Value::bit(false), Value::bit(true), Value::x(1), Value::z(1)];
        let pairs = move || four.into_iter().flat_map(move |a| four.map(|b| (a, b)));
        match kind {
            ElementKind::Dff { .. } | ElementKind::DffR { .. } => {
                pairs().map(|(q, last_clk)| ElemState::Edge { q, last_clk }).collect()
            }
            ElementKind::Latch { .. } => four.iter().map(|&q| ElemState::Stored(q)).collect(),
            ElementKind::Memory { .. } => pairs()
                .flat_map(|(q, last_clk)| {
                    pairs().map(move |(c0, c1)| ElemState::Mem { cells: vec![c0, c1], q, last_clk })
                })
                .collect(),
            _ => panic!("{kind} is not sequential"),
        }
    }

    /// The property `ElementKind::triggers` promises, from every state
    /// settled by one evaluation on an input vector `a` that arms the
    /// rule: re-evaluating with only non-trigger inputs moved changes
    /// neither the output nor the internal state, and a trigger port
    /// taking a transition its `Edge` calls non-moving leaves the output
    /// alone (a falling clock edge still records its new clock sample).
    #[test]
    fn non_trigger_inputs_and_non_moving_edges_are_output_neutral() {
        let four = [Value::bit(false), Value::bit(true), Value::x(1), Value::z(1)];
        let vectors = |n: usize| -> Vec<Vec<Value>> {
            (0..4usize.pow(n as u32))
                .map(|k| (0..n).map(|p| four[(k >> (2 * p)) & 3]).collect())
                .collect()
        };
        for kind in [
            ElementKind::Dff { width: 1 },
            ElementKind::DffR { width: 1 },
            ElementKind::Latch { width: 1 },
            ElementKind::Memory { addr_bits: 1, width: 1 },
        ] {
            let rule = kind.triggers().expect("sequential kinds have a rule");
            let Arity::Exact(n) = kind.input_arity() else {
                panic!("sequential kinds have fixed arity");
            };
            let all = vectors(n);
            let mut known_outputs = 0;
            for state in every_state(&kind) {
                for a in &all {
                    let armed = rule.while_level.is_none_or(|lvl| {
                        rule.ports.iter().all(|&(p, _)| a[p].to_logic().bit_at(0) == lvl)
                    });
                    if !armed {
                        continue;
                    }
                    let mut st = state.clone();
                    let out = evaluate(&kind, a, &mut st).get(0);
                    known_outputs += usize::from(out.to_u64().is_some());
                    for b in &all {
                        let triggers_held = rule.ports.iter().all(|&(p, _)| b[p] == a[p]);
                        let non_moving = rule
                            .ports
                            .iter()
                            .all(|&(p, edge)| b[p] == a[p] || !edge.moves(&a[p], &b[p]));
                        if !non_moving {
                            continue;
                        }
                        let mut st2 = st.clone();
                        let moved = evaluate(&kind, b, &mut st2).get(0);
                        assert_eq!(moved, out, "{kind} from {state:?}: {a:?} -> {b:?}");
                        if triggers_held {
                            assert_eq!(st2, st, "{kind} from {state:?}: {a:?} -> {b:?} moved state");
                        }
                    }
                }
            }
            assert!(known_outputs > 0, "{kind}: no settled state holds a known word");
        }
    }

    #[test]
    fn controlling_bit_matches_kind_table() {
        // An AND with a 0 input yields the declared controlling output.
        let c = ElementKind::And.controlling().unwrap();
        let out = eval(&ElementKind::And, &[Value::bit(false), Value::x(1)]);
        assert_eq!(out.bit_at(0), c.output);
        let c = ElementKind::Nand.controlling().unwrap();
        let out = eval(&ElementKind::Nand, &[Value::bit(false), Value::x(1)]);
        assert_eq!(out.bit_at(0), c.output);
        assert_eq!(c.input, Bit::Zero);
    }
}
