//! Structured simulation errors and stall diagnostics.
//!
//! Every engine entry point returns `Result<SimResult, SimError>`: a
//! worker panic, a progress stall, a blown deadline, or an invalid
//! configuration surfaces as a typed error instead of a hung process or
//! an opaque abort. The parallel engines guarantee *containment* — a
//! failing worker poisons its peers' synchronization primitives so every
//! thread is joined before the error is returned, never leaving detached
//! threads spinning on shared state.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use parsim_logic::Time;

/// A structured simulation failure.
///
/// # Examples
///
/// ```
/// use parsim_core::{SimConfig, SimError};
/// use parsim_logic::Time;
///
/// let err = SimConfig::new(Time(10)).try_watch_named(
///     &parsim_netlist::Builder::new().finish().unwrap(),
///     ["nope"],
/// ).unwrap_err();
/// assert!(matches!(err, SimError::UnknownNode { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A worker thread panicked. The engine cancelled and joined every
    /// peer before returning; `payload` is the panic message.
    WorkerPanicked {
        /// Which engine was running.
        engine: &'static str,
        /// Index of the worker that panicked.
        worker: usize,
        /// The panic payload, rendered to a string.
        payload: String,
    },
    /// No worker made progress for at least
    /// [`SimConfig::stall_timeout`](crate::SimConfig::stall_timeout); the
    /// watchdog cancelled the run.
    Stalled {
        /// Which engine was running.
        engine: &'static str,
        /// How long every heartbeat had been frozen when the watchdog
        /// fired.
        stalled_for: Duration,
        /// Snapshot of engine state at cancellation (boxed to keep the
        /// `Err` variant small on the hot `Result` path).
        diagnostic: Box<StallDiagnostic>,
    },
    /// The run exceeded [`SimConfig::deadline`](crate::SimConfig::deadline)
    /// in wall time, counted from its start across every checkpoint
    /// segment and lane chunk, and was cancelled.
    DeadlineExceeded {
        /// Which engine was running.
        engine: &'static str,
        /// The configured deadline.
        deadline: Duration,
        /// Snapshot of engine state at cancellation (boxed to keep the
        /// `Err` variant small on the hot `Result` path).
        diagnostic: Box<StallDiagnostic>,
    },
    /// The configuration cannot drive this run (e.g. an empty batch or a
    /// lane stimulus that overrides a gate-driven node).
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// A watch request named a node the netlist does not have.
    UnknownNode {
        /// The unresolved name.
        name: String,
    },
    /// A checkpoint write, scan, or restore failed (see
    /// [`parsim_checkpoint::CheckpointError`]). Injected storage faults
    /// surface here too: the simulated machine "died" mid-protocol.
    Checkpoint(parsim_checkpoint::CheckpointError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WorkerPanicked {
                engine,
                worker,
                payload,
            } => write!(f, "{engine}: worker {worker} panicked: {payload}"),
            SimError::Stalled {
                engine,
                stalled_for,
                diagnostic,
            } => write!(
                f,
                "{engine}: no worker made progress for {stalled_for:?}; cancelled \
                 ({diagnostic})"
            ),
            SimError::DeadlineExceeded {
                engine,
                deadline,
                diagnostic,
            } => write!(
                f,
                "{engine}: wall-time deadline of {deadline:?} exceeded; cancelled \
                 ({diagnostic})"
            ),
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid simulation config: {reason}")
            }
            SimError::UnknownNode { name } => write!(f, "unknown node `{name}`"),
            SimError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl Error for SimError {}

impl From<parsim_checkpoint::CheckpointError> for SimError {
    fn from(e: parsim_checkpoint::CheckpointError) -> SimError {
        SimError::Checkpoint(e)
    }
}

/// What the engine was doing when the watchdog cancelled it.
///
/// Collected by the driver thread after all workers have been joined, so
/// every field is a quiescent post-mortem view, not a racing sample.
/// Fields that only one engine can populate are `Option`/empty elsewhere.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallDiagnostic {
    /// Per-worker heartbeat counts (activations processed) at cancellation.
    pub heartbeats: Vec<u64>,
    /// Outstanding activations on the scheduling grid (the asynchronous
    /// engine's global queue depth), if the engine tracks one.
    pub pending_activations: Option<i64>,
    /// Activation-state histogram: elements idle vs. queued/running
    /// (asynchronous engine).
    pub activations_idle: Option<usize>,
    /// Elements still queued or running at cancellation.
    pub activations_pending: Option<usize>,
    /// The minimum per-node valid-until horizon — how far simulated time
    /// had been fully computed (asynchronous engine).
    pub min_valid_until: Option<Time>,
    /// The last globally completed simulated time (synchronous engines).
    pub sim_time: Option<Time>,
    /// Ordinal of the last checkpoint that committed before the failure
    /// (set by the [`checkpoint`](crate::checkpoint) driver), so a
    /// post-mortem says exactly what is recoverable. `None` when
    /// checkpointing was off or nothing had committed yet.
    pub last_checkpoint_step: Option<u64>,
}

impl fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "heartbeats={:?}", self.heartbeats)?;
        if let Some(p) = self.pending_activations {
            write!(f, ", pending={p}")?;
        }
        if let (Some(i), Some(q)) = (self.activations_idle, self.activations_pending) {
            write!(f, ", elements idle/pending={i}/{q}")?;
        }
        if let Some(v) = self.min_valid_until {
            write!(f, ", min valid_until={v}")?;
        }
        if let Some(t) = self.sim_time {
            write!(f, ", sim time={t}")?;
        }
        if let Some(s) = self.last_checkpoint_step {
            write!(f, ", last checkpoint=#{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_usefully() {
        let e = SimError::WorkerPanicked {
            engine: "chaotic",
            worker: 3,
            payload: "index out of bounds".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("chaotic") && s.contains("worker 3") && s.contains("index"));

        let d = StallDiagnostic {
            heartbeats: vec![10, 0],
            pending_activations: Some(4),
            activations_idle: Some(90),
            activations_pending: Some(10),
            min_valid_until: Some(Time(17)),
            sim_time: None,
            last_checkpoint_step: Some(4),
        };
        let e = SimError::Stalled {
            engine: "sync",
            stalled_for: Duration::from_millis(250),
            diagnostic: Box::new(d),
        };
        let s = e.to_string();
        assert!(s.contains("250ms") && s.contains("pending=4") && s.contains("17"));

        let e = SimError::DeadlineExceeded {
            engine: "compiled",
            deadline: Duration::from_secs(1),
            diagnostic: Box::default(),
        };
        assert!(e.to_string().contains("deadline"));
    }
}
