//! # parsim — Parallel Logic Simulation on General Purpose Machines
//!
//! A from-scratch Rust reproduction of *Soule & Blank, "Parallel Logic
//! Simulation on General Purpose Machines" (DAC 1988)*: three parallel
//! gate/RTL/functional logic-simulation algorithms for shared-memory
//! multiprocessors —
//!
//! 1. a **synchronous event-driven** simulator with distributed
//!    per-processor queues and end-of-phase work stealing,
//! 2. a **unit-delay compiled-mode** simulator with static partitioning,
//!    and
//! 3. a fully **asynchronous, lock-free** simulator with no barriers, no
//!    rollbacks, and incremental per-node valid times.
//!
//! This facade crate re-exports the public API of the component crates:
//!
//! - [`logic`]: four-state values, element models, the evaluation kernel
//! - [`netlist`]: circuit graph, builder, text format, analyses
//! - [`queue`]: the lock-free SPSC grid and synchronization primitives
//! - [`circuits`]: the paper's benchmark circuits and stimulus
//! - [`engine`]: the four simulation engines, waveforms, metrics
//! - [`machine`]: the virtual Encore-Multimax cost model used to reproduce
//!   the paper's speed-up figures on any host
//! - [`harness`]: experiment definitions regenerating every figure
//!
//! # Quickstart
//!
//! ```
//! use parsim::logic::{Delay, ElementKind, Time};
//! use parsim::netlist::Builder;
//! use parsim::engine::{EventDriven, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A clock driving an inverter.
//! let mut b = Builder::new();
//! let clk = b.node("clk", 1);
//! let out = b.node("out", 1);
//! b.element(
//!     "osc",
//!     ElementKind::Clock { half_period: 5, offset: 5 },
//!     Delay(1),
//!     &[],
//!     &[clk],
//! )?;
//! b.element("inv", ElementKind::Not, Delay(1), &[clk], &[out])?;
//! let netlist = b.finish()?;
//!
//! let config = SimConfig::new(Time(40)).watch(out);
//! let result = EventDriven::run(&netlist, &config)?;
//! let wave = result.waveform(out).unwrap();
//! assert!(wave.changes().len() > 2);
//! // Changes decode as `(time, value)` pairs, in time order.
//! let (last, value) = wave.changes().next_back().unwrap();
//! assert_eq!((Some(&last), value), (wave.times().last(), wave.final_value()));
//! # Ok(())
//! # }
//! ```

/// One-stop imports for typical simulation programs.
///
/// ```
/// use parsim::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Builder::new();
/// let clk = b.node("clk", 1);
/// b.element("osc", ElementKind::Clock { half_period: 2, offset: 2 },
///           Delay(1), &[], &[clk])?;
/// let n = b.finish()?;
/// let r = EventDriven::run(&n, &SimConfig::new(Time(10)).watch(clk))?;
/// assert!(r.waveform(clk).is_some());
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use parsim_core::{
        assert_equivalent, checkpoint, ActivityReport, BatchResult, ChaoticAsync,
        CheckpointError, CompiledMode, EngineKind, EventDriven, FaultPlan, LaneStimulus,
        RunReport, SimConfig, SimError, SimResult, StorageFault, SyncEventDriven, TestBench,
        TestRun, Trace, TraceConfig, Waveform, WaveformStats,
    };
    pub use parsim_logic::{Bit, Delay, ElementKind, Time, Value};
    pub use parsim_netlist::{Builder, ElemId, Netlist, NetlistStats, NodeId};
}

pub use parsim_circuits as circuits;
pub use parsim_core as engine;
pub use parsim_harness as harness;
pub use parsim_logic as logic;
pub use parsim_machine as machine;
pub use parsim_netlist as netlist;
pub use parsim_queue as queue;
pub use parsim_trace as trace;
