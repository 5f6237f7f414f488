//! The four simulation engines of *Soule & Blank, DAC 1988*.
//!
//! | Engine | Paper section | Synchronization |
//! |---|---|---|
//! | [`EventDriven`] | §2 (uniprocessor baseline) | none (sequential) |
//! | [`SyncEventDriven`] | §2 | two barriers per step, owner-routed activations, no stealing; outputs go to the evaluator's own calendar |
//! | [`CompiledMode`] | §3 | barrier per unit-delay time step, static partition |
//! | [`ChaoticAsync`] | §4 | **none** — lock-free SPSC grid, per-node valid times |
//!
//! All engines consume the same immutable [`Netlist`](parsim_netlist::Netlist)
//! and a [`SimConfig`], and produce a [`SimResult`] holding waveforms for
//! the watched nodes plus execution [`Metrics`]. On identical circuits the
//! event-driven, synchronous, and asynchronous engines produce *identical*
//! waveforms; the compiled-mode engine matches them whenever every element
//! has unit delay (compiled mode, by definition, imposes unit delay).
//!
//! # Examples
//!
//! ```
//! use parsim_core::{ChaoticAsync, EventDriven, SimConfig};
//! use parsim_logic::{Delay, ElementKind, Time};
//! use parsim_netlist::Builder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Builder::new();
//! let clk = b.node("clk", 1);
//! let q = b.node("q", 1);
//! b.element("osc", ElementKind::Clock { half_period: 3, offset: 3 }, Delay(1), &[], &[clk])?;
//! b.element("inv", ElementKind::Not, Delay(1), &[clk], &[q])?;
//! let netlist = b.finish()?;
//!
//! let config = SimConfig::new(Time(30)).watch(q);
//! let seq = EventDriven::run(&netlist, &config)?;
//! let par = ChaoticAsync::run(&netlist, &config.clone().threads(2))?;
//! assert!(seq
//!     .waveform(q)
//!     .unwrap()
//!     .changes()
//!     .eq(par.waveform(q).unwrap().changes()));
//! # Ok(())
//! # }
//! ```
//!
//! # Failure containment
//!
//! Every `run` returns `Result<SimResult, SimError>`. The parallel
//! engines isolate worker panics (`catch_unwind` plus barrier/queue
//! poisoning, surfaced as [`SimError::WorkerPanicked`]), and an optional
//! watchdog ([`SimConfig::deadline`], one budget for the whole run, and
//! [`SimConfig::stall_timeout`]) cancels runs that overrun or stop making
//! progress, returning
//! [`SimError::Stalled`] or [`SimError::DeadlineExceeded`] with a
//! [`StallDiagnostic`] snapshot. Deterministic faults can be injected
//! through [`FaultPlan`] to exercise these paths.

pub mod analysis;
pub mod behavior;
pub mod chaotic;
pub mod check;
pub mod checkpoint;
pub mod compiled;
mod config;
mod error;
mod exec;
mod fault;
mod kernel;
mod layout;
mod metrics;
mod native;
pub mod report;
pub mod seq;
mod shared;
pub mod sync;
pub mod testbench;
mod waveform;

pub use analysis::{ActivityReport, WaveformStats};
pub use chaotic::ChaoticAsync;
pub use check::{assert_equivalent, equivalence_report, EquivalenceReport};
pub use checkpoint::EngineKind;
pub use compiled::{BatchResult, CompiledMode, LaneStimulus};
pub use config::{CheckpointPolicy, SimConfig};
pub use error::{SimError, StallDiagnostic};
pub use fault::FaultPlan;
pub use metrics::{
    ArenaCounters, CheckpointCounters, EventsPerStepHistogram, LocalityMetrics, Metrics,
    ThreadMetrics,
};
pub use parsim_checkpoint::{
    CheckpointError, CheckpointStore, EngineSnapshot, StorageFault, StorageFaultPlan,
};
pub use parsim_trace::{Trace, TraceConfig};
pub use report::RunReport;
pub use seq::EventDriven;
pub use sync::SyncEventDriven;
pub use testbench::{TestBench, TestBenchError, TestRun};
pub use waveform::{Changes, SimResult, Waveform};
