//! Four-state logic values, element models, and the evaluation kernel.
//!
//! This crate is the bottom layer of `parsim`, the reproduction of
//! *Soule & Blank, "Parallel Logic Simulation on General Purpose Machines"
//! (DAC 1988)*. It defines:
//!
//! - [`Value`]: a four-state (`0`/`1`/`X`/`Z`) logic vector of up to 64 bits,
//!   using the classic two-plane encoding,
//! - [`ElementKind`]: every element model the paper's circuits need — scalar
//!   gates, sequential elements, RTL/functional blocks (adders, multipliers),
//!   and signal generators,
//! - [`evaluate`]: the single evaluation kernel shared by all four simulation
//!   engines,
//! - [`Time`]/[`Delay`]: simulation time arithmetic, and
//! - [`wide`]: the bit-plane kernels that evaluate `64·W` stimulus lanes
//!   per word group for the batch engine.
//!
//! # Examples
//!
//! ```
//! use parsim_logic::{evaluate, ElemState, ElementKind, Value};
//!
//! let and = ElementKind::And;
//! let mut state = ElemState::None;
//! let out = evaluate(&and, &[Value::bit(true), Value::bit(false)], &mut state);
//! assert_eq!(out.get(0), Value::bit(false));
//! ```

#![forbid(unsafe_code)]

mod eval;
mod kind;
mod time;
mod value;
pub mod wide;

pub use eval::{evaluate, expand_generator, expand_vector, ElemState, Outputs};
pub use kind::{scan_quiet, Controlling, Edge, ElementKind, Lookahead, PortCountError, Triggers};
pub use time::{transition_delay, Delay, Time};
pub use value::{Bit, ParseValueError, Value};
