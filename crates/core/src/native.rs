//! The native gate arms every scalar engine shares.
//!
//! [`eval_native`] computes what a gate, buffer or mux drives straight
//! from its inputs, with the [`Value`] operations [`evaluate`] uses for the
//! element, so four-state semantics live in one place. Each engine decodes
//! an element's [`Opcode`] once per run and reads the inputs where it keeps
//! them: the compiled kernel from its slot file, the event engines from
//! their node values, the chaotic engine from its replay's current values.
//! Stateful and RTL kinds have no arm here and go through [`evaluate`];
//! [`eval_element`] is that choice for the engines that gather inputs only
//! when they must.

use parsim_logic::{evaluate, ElemState, ElementKind, Outputs, Value};
use parsim_netlist::compile::Opcode;

/// The value a gate, buffer or mux with opcode `op` and `n` inputs drives,
/// reading input `k` through `input(k)`. `None` for the opcodes that go
/// through [`evaluate`] (stateful and RTL elements).
#[inline(always)]
pub(crate) fn eval_native(op: Opcode, n: usize, input: impl Fn(usize) -> Value) -> Option<Value> {
    let logic = |k: usize| input(k).to_logic();
    let fold = |f: fn(&Value, &Value) -> Value| (1..n).fold(logic(0), |acc, k| f(&acc, &logic(k)));
    Some(match op {
        Opcode::And => fold(Value::and),
        Opcode::Or => fold(Value::or),
        Opcode::Nand => fold(Value::and).not(),
        Opcode::Nor => fold(Value::or).not(),
        Opcode::Xor => fold(Value::xor),
        Opcode::Xnor => fold(Value::xor).not(),
        Opcode::Not => logic(0).not(),
        Opcode::Buf => logic(0),
        Opcode::Mux => Value::mux(&input(0), &input(1), &input(2)),
        _ => return None,
    })
}

/// Evaluates an element of `kind` whose opcode is `op` (`None` only for
/// generators, which no engine evaluates) and which has `n` inputs: the
/// native arm when there is one, else [`evaluate`] on the inputs gathered
/// into `buf`.
#[inline(always)]
pub(crate) fn eval_element(
    op: Option<Opcode>,
    kind: &ElementKind,
    n: usize,
    input: impl Fn(usize) -> Value,
    state: &mut ElemState,
    buf: &mut Vec<Value>,
) -> Outputs {
    if let Some(v) = op.and_then(|op| eval_native(op, n, &input)) {
        return Outputs::one(v);
    }
    buf.clear();
    buf.extend((0..n).map(input));
    evaluate(kind, buf, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Every opcode with a native arm, with the element kind it lowers from.
    fn native_kinds(width: u8) -> Vec<ElementKind> {
        vec![
            ElementKind::And,
            ElementKind::Or,
            ElementKind::Nand,
            ElementKind::Nor,
            ElementKind::Xor,
            ElementKind::Xnor,
            ElementKind::Not,
            ElementKind::Buf,
            ElementKind::Mux { width },
        ]
    }

    /// The fan-ins `kind` takes, up to four.
    fn fan_ins(kind: &ElementKind) -> Vec<usize> {
        match kind {
            ElementKind::Not | ElementKind::Buf => vec![1],
            ElementKind::Mux { .. } => vec![3],
            _ => (1..=4).collect(),
        }
    }

    /// `eval_native` and `eval_element` on `inputs` against [`evaluate`] of
    /// the element kind.
    fn check(kind: &ElementKind, inputs: &[Value]) {
        let op = Opcode::of(kind).expect("not a generator");
        let native = eval_native(op, inputs.len(), |k| inputs[k]);
        let want = evaluate(kind, inputs, &mut ElemState::None);
        assert_eq!(want.len(), 1);
        assert_eq!(native, Some(want.get(0)), "{kind:?} on {inputs:?}");
        let mut buf = Vec::new();
        let input = |k: usize| inputs[k];
        let out = eval_element(
            Some(op),
            kind,
            inputs.len(),
            input,
            &mut ElemState::None,
            &mut buf,
        );
        assert_eq!(out, want, "{kind:?} on {inputs:?}");
    }

    #[test]
    fn native_arms_match_evaluate_on_every_four_state_input() {
        let bits = [
            Value::bit(false),
            Value::bit(true),
            Value::x(1),
            Value::z(1),
        ];
        for kind in native_kinds(1) {
            for n in fan_ins(&kind) {
                // Every assignment of the four states to `n` inputs.
                for code in 0..4usize.pow(n as u32) {
                    let inputs: Vec<Value> = (0..n)
                        .map(|k| bits[code / 4usize.pow(k as u32) % 4])
                        .collect();
                    check(&kind, &inputs);
                }
            }
        }
    }

    #[test]
    fn native_arms_match_evaluate_on_random_wide_values() {
        let mut rng = SmallRng::seed_from_u64(0x5ca1_a6e5);
        for width in 2..=64u8 {
            // Fully known, a few unknown bits, and mostly unknown.
            let value = |rng: &mut SmallRng| {
                let b = match rng.gen_range(0..3u32) {
                    0 => 0,
                    1 => rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>(),
                    _ => rng.gen(),
                };
                Value::from_planes(width, rng.gen(), b)
            };
            for kind in native_kinds(width) {
                for n in fan_ins(&kind) {
                    for _ in 0..32 {
                        let mut inputs: Vec<Value> = (0..n).map(|_| value(&mut rng)).collect();
                        if let ElementKind::Mux { .. } = kind {
                            inputs[0] = value(&mut rng).slice(0, 1);
                        }
                        check(&kind, &inputs);
                    }
                }
            }
        }
    }

    #[test]
    fn native_mux_matches_evaluate_on_unknown_selects() {
        let mut rng = SmallRng::seed_from_u64(0x03a5_e1d0);
        let selects = [
            Value::bit(false),
            Value::bit(true),
            Value::x(1),
            Value::z(1),
        ];
        for width in [1u8, 7, 64] {
            let kind = ElementKind::Mux { width };
            for _ in 0..16 {
                let a = Value::from_planes(width, rng.gen(), 0);
                let b = Value::from_planes(width, rng.gen(), rng.gen::<u64>() & rng.gen::<u64>());
                // Equal and differing data under every select.
                for (a, b) in [(a, a), (a, b), (b, b)] {
                    for sel in selects {
                        check(&kind, &[sel, a, b]);
                    }
                }
            }
        }
    }

    #[test]
    fn stateful_and_rtl_opcodes_take_the_evaluate_arm() {
        let read = |_: usize| -> Value { unreachable!("the fallback reads nothing here") };
        for op in [
            Opcode::Dff,
            Opcode::DffR,
            Opcode::Latch,
            Opcode::TriBuf,
            Opcode::Adder,
            Opcode::Memory,
            Opcode::Resolver,
        ] {
            assert_eq!(eval_native(op, 2, read), None, "{op:?}");
        }
        // The fallback gathers the inputs and keeps the element's state.
        let kind = ElementKind::Dff { width: 1 };
        let mut state = ElemState::init(&kind);
        let mut buf = Vec::new();
        let mut step = |clk: bool, d: bool| {
            let inputs = [Value::bit(clk), Value::bit(d)];
            let op = Opcode::of(&kind);
            eval_element(op, &kind, 2, |k| inputs[k], &mut state, &mut buf).get(0)
        };
        step(false, true);
        assert_eq!(step(true, true), Value::bit(true), "rising edge latches d");
        assert_eq!(step(false, false), Value::bit(true), "falling edge holds");
    }
}
