//! A deterministic virtual Encore Multimax.
//!
//! The paper's evaluation ran on a 16-processor Encore Multimax (8 cards,
//! two processors per card sharing one cache). This host has two vCPUs,
//! so wall-clock speed-up curves to 16 processors are physically
//! unobtainable — instead, this crate *simulates the multiprocessor*: it
//! executes the paper's scheduling decisions (round-robin scatter and
//! end-of-phase work stealing, where the threaded §2 engine routes to
//! owners and does not steal; at-most-once activation, event batching)
//! while charging per-operation costs from a [`CostModel`], and reports
//! virtual execution time and per-processor utilization.
//!
//! Because the model runs the *actual algorithms* on the *actual event
//! traces* of the circuit, the paper's qualitative results emerge from
//! structure rather than curve fitting:
//!
//! - event starvation caps the synchronous algorithm's speed-up
//!   (Figs. 1–2),
//! - barrier costs grow with processor count,
//! - cache sharing beyond 8 processors produces the dip the paper
//!   attributes to the Multimax's dual-processor cards,
//! - compiled mode scales nearly linearly on homogeneous gate circuits
//!   but poorly on the ~100-element functional multiplier (Fig. 3),
//! - the asynchronous algorithm's batching amortizes scheduling overhead
//!   (the 1–3× uniprocessor advantage of §5) and its lack of barriers
//!   raises utilization (Figs. 4–5).
//!
//! # Examples
//!
//! ```
//! use parsim_circuits::inverter_array;
//! use parsim_logic::Time;
//! use parsim_machine::{model_async, model_sync, MachineConfig};
//!
//! let arr = inverter_array(8, 8, 1)?;
//! let uni = model_sync(&arr.netlist, Time(100), &MachineConfig::multimax(1));
//! let par = model_sync(&arr.netlist, Time(100), &MachineConfig::multimax(8));
//! assert!(par.speedup(&uni) > 2.0);
//! let a = model_async(&arr.netlist, Time(100), &MachineConfig::multimax(8));
//! assert!(a.utilization() > 0.5);
//! # Ok::<(), parsim_netlist::BuildError>(())
//! ```

mod chaotic_model;
mod compiled_model;
mod cost;
mod report;
mod sync_model;
mod trace;

pub use chaotic_model::model_async;
pub use compiled_model::{model_compiled, PartitionStrategy};
pub use cost::{CostModel, MachineConfig, OsInterrupts, Topology};
pub use report::ModelReport;
pub use sync_model::{model_seq, model_sync};
pub use trace::{trace_execution, ExecutionTrace, StepRecord};
