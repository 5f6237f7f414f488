//! Simulation run configuration.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use parsim_logic::Time;
use parsim_netlist::{Netlist, NodeId};
use parsim_trace::TraceConfig;

use crate::error::SimError;
use crate::fault::FaultPlan;

/// Periodic crash-consistent checkpointing (see the
/// [`checkpoint`](crate::checkpoint) module).
///
/// Carried on [`SimConfig`] and consumed by
/// [`checkpoint::run`](crate::checkpoint::run) /
/// [`checkpoint::resume`](crate::checkpoint::resume); the plain
/// per-engine `run` entry points ignore it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory of rolling snapshot files (created if absent).
    pub dir: PathBuf,
    /// Snapshot every this many simulated ticks. Zero (the default until
    /// [`SimConfig::with_checkpoint_every`] is called) is invalid.
    pub every: u64,
    /// How many committed snapshots to retain; clamped to at least 2 so
    /// a torn newest file always leaves a fallback.
    pub keep: usize,
}

/// Configuration shared by all four engines.
///
/// Built fluently:
///
/// ```
/// use parsim_core::SimConfig;
/// use parsim_logic::Time;
/// use parsim_netlist::NodeId;
///
/// let cfg = SimConfig::new(Time(1000))
///     .watch(NodeId::from_index(0))
///     .threads(4);
/// assert_eq!(cfg.threads, 4);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulate through this time (inclusive).
    pub end_time: Time,
    /// Nodes whose waveforms are recorded.
    pub watch: Vec<NodeId>,
    /// Worker threads for the parallel engines (ignored by
    /// [`EventDriven`](crate::EventDriven)).
    pub threads: usize,
    /// Enable the asynchronous engine's gate-specific lookahead (§4): the
    /// AND/OR controlling-value rule and the register trigger rule. On by
    /// default; never changes waveforms, only validity propagation.
    pub lookahead: bool,
    /// Enable the asynchronous engine's concurrent garbage collection of
    /// consumed events. On by default; disable only to measure the paper's
    /// "massive state storage" problem.
    pub gc: bool,
    /// Hard wall-time budget for the whole run, counted from its start:
    /// every checkpoint segment and every lane chunk of the run draws on
    /// the one budget. When exceeded, the watchdog cancels all workers and
    /// the engine returns [`SimError::DeadlineExceeded`]. `None` (the
    /// default) disables it.
    pub deadline: Option<Duration>,
    /// Progress watchdog: if no worker processes an activation for this
    /// long, the run is cancelled and the engine returns
    /// [`SimError::Stalled`] with a diagnostic snapshot. `None` (the
    /// default) disables it.
    pub stall_timeout: Option<Duration>,
    /// Deterministic fault injection (see [`FaultPlan`]). Empty by
    /// default.
    pub fault: FaultPlan,
    /// Compiled-mode activity gating: skip kernel blocks whose inputs did
    /// not change since their last evaluation. On by default; never
    /// changes waveforms, only the amount of redundant work (and the
    /// `evaluations` metric). Disable with
    /// [`SimConfig::without_activity_gating`] to reproduce the paper's
    /// literal "every element is executed every time step" behavior.
    pub activity_gating: bool,
    /// Per-worker event tracing (see [`parsim_trace`]). `None` (the
    /// default) records nothing. Recording additionally requires the
    /// `trace` cargo feature: without it the hooks are compiled-out no-ops
    /// and [`SimResult::trace`](crate::SimResult) stays `None` even when
    /// this is set. Never changes waveforms.
    pub trace: Option<TraceConfig>,
    /// Periodic crash-consistent checkpointing. `None` (the default)
    /// disables it; set with [`SimConfig::with_checkpoint_dir`] and
    /// [`SimConfig::with_checkpoint_every`], then drive the run through
    /// [`checkpoint::run`](crate::checkpoint::run). Never changes
    /// waveforms: a checkpointed (or resumed) run is bit-identical to an
    /// uninterrupted one.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Chunk width (in stimulus lanes per word group) for the compiled
    /// batch kernel: one of 64, 128, 256, 512. `None` (the default) chunks
    /// by the batch's shape alone: at most 512 lanes a chunk, at least one
    /// chunk per thread while lanes last, sizes within one lane of each
    /// other, and the same on every host. Never changes waveforms or the
    /// kernel code, only how many lanes each chunk carries.
    pub lane_width: Option<usize>,
    /// In-run telemetry sampling period. `None` (the default) leaves the
    /// always-on metrics registry running but takes no periodic samples;
    /// `Some(p)` makes the watchdog/monitor thread snapshot the registry
    /// every `p` into a bounded flight-recorder ring, returned as
    /// [`SimResult::telemetry`](crate::SimResult) sample series. Never
    /// changes waveforms.
    pub sample_every: Option<Duration>,
    /// Shared slot the engine installs its live telemetry context into at
    /// run start, so another thread can watch the registry mid-run (e.g.
    /// `psim --live-stats`). `None` (the default) skips installation.
    pub telemetry_hub: Option<Arc<parsim_telemetry::Hub>>,
}

impl SimConfig {
    /// Creates a configuration running through `end_time` with one thread
    /// and no watched nodes.
    pub fn new(end_time: Time) -> SimConfig {
        SimConfig {
            end_time,
            watch: Vec::new(),
            threads: 1,
            lookahead: true,
            gc: true,
            deadline: None,
            stall_timeout: None,
            fault: FaultPlan::default(),
            activity_gating: true,
            trace: None,
            checkpoint: None,
            lane_width: None,
            sample_every: None,
            telemetry_hub: None,
        }
    }

    /// Adds one node to the watch list.
    #[must_use]
    pub fn watch(mut self, node: NodeId) -> SimConfig {
        self.watch.push(node);
        self
    }

    /// Adds many nodes to the watch list.
    #[must_use]
    pub fn watch_all(mut self, nodes: impl IntoIterator<Item = NodeId>) -> SimConfig {
        self.watch.extend(nodes);
        self
    }

    /// Adds nodes to the watch list by name.
    ///
    /// # Panics
    ///
    /// Panics if any name is unknown in `netlist` — watching a
    /// nonexistent node is always a programming error. Use
    /// [`SimConfig::try_watch_named`] for a typed error instead.
    #[must_use]
    pub fn watch_named<'a>(
        self,
        netlist: &Netlist,
        names: impl IntoIterator<Item = &'a str>,
    ) -> SimConfig {
        match self.try_watch_named(netlist, names) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds nodes to the watch list by name, reporting an unknown name as
    /// a typed error (the non-panicking form of [`SimConfig::watch_named`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] naming the first unresolved node.
    pub fn try_watch_named<'a>(
        mut self,
        netlist: &Netlist,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<SimConfig, SimError> {
        for name in names {
            let id = netlist
                .node_by_name(name)
                .ok_or_else(|| SimError::UnknownNode {
                    name: name.to_string(),
                })?;
            self.watch.push(id);
        }
        Ok(self)
    }

    /// Sets the worker thread count for parallel engines.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> SimConfig {
        assert!(threads > 0, "at least one thread required");
        self.threads = threads;
        self
    }

    /// Disables all of the asynchronous engine's lookahead (controlling
    /// values and register triggers).
    #[must_use]
    pub fn without_lookahead(mut self) -> SimConfig {
        self.lookahead = false;
        self
    }

    /// Disables the asynchronous engine's event garbage collection.
    #[must_use]
    pub fn without_gc(mut self) -> SimConfig {
        self.gc = false;
        self
    }

    /// Sets a hard wall-time budget for the whole run, shared by all of
    /// its checkpoint segments and lane chunks.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> SimConfig {
        self.deadline = Some(deadline);
        self
    }

    /// Enables the progress watchdog: cancel the run if no worker makes
    /// progress for `timeout`.
    #[must_use]
    pub fn with_stall_timeout(mut self, timeout: Duration) -> SimConfig {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Injects a deterministic fault (testing aid; see [`FaultPlan`]).
    #[must_use]
    pub fn with_fault(mut self, fault: FaultPlan) -> SimConfig {
        self.fault = fault;
        self
    }

    /// Disables compiled-mode activity gating, re-evaluating every element
    /// every step like the paper's §3 engine.
    #[must_use]
    pub fn without_activity_gating(mut self) -> SimConfig {
        self.activity_gating = false;
        self
    }

    /// Enables per-worker event tracing for this run; the drained trace is
    /// returned in [`SimResult::trace`](crate::SimResult). Requires the
    /// `trace` cargo feature for events to actually be recorded.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> SimConfig {
        self.trace = Some(trace);
        self
    }

    /// Sets the checkpoint directory (snapshots land here as rolling
    /// `ckpt-*.psnap` files). Pair with [`SimConfig::with_checkpoint_every`].
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> SimConfig {
        let policy = self.checkpoint.get_or_insert_with(CheckpointPolicy::default);
        policy.dir = dir.into();
        if policy.keep == 0 {
            policy.keep = 2;
        }
        self
    }

    /// Checkpoints every `ticks` simulated ticks. The interval must be
    /// nonzero and a directory must also be set (the driver reports
    /// [`CheckpointError::BadPolicy`](parsim_checkpoint::CheckpointError)
    /// otherwise).
    #[must_use]
    pub fn with_checkpoint_every(mut self, ticks: u64) -> SimConfig {
        let policy = self.checkpoint.get_or_insert_with(CheckpointPolicy::default);
        policy.every = ticks;
        if policy.keep == 0 {
            policy.keep = 2;
        }
        self
    }

    /// Retains the newest `keep` snapshots (clamped to at least 2).
    #[must_use]
    pub fn with_checkpoint_keep(mut self, keep: usize) -> SimConfig {
        let policy = self.checkpoint.get_or_insert_with(CheckpointPolicy::default);
        policy.keep = keep;
        self
    }

    /// Sets the compiled batch kernel's chunk width in lanes: every chunk
    /// holds `width` lanes but the last. Tests use it to reach multi-chunk
    /// runs; by default chunks follow the lane and thread counts (see
    /// [`SimConfig::lane_width`]).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not one of 64, 128, 256, 512.
    #[must_use]
    pub fn with_lane_width(mut self, width: usize) -> SimConfig {
        assert!(
            parsim_logic::wide::LANE_WIDTHS.contains(&width),
            "lane width must be one of 64, 128, 256, 512 (got {width})"
        );
        self.lane_width = Some(width);
        self
    }

    /// Arms the in-run telemetry sampler: the monitor thread snapshots
    /// the metrics registry every `period` into the flight-recorder ring
    /// returned as [`SimResult::telemetry`](crate::SimResult) samples.
    #[must_use]
    pub fn sample_every(mut self, period: Duration) -> SimConfig {
        self.sample_every = Some(period);
        self
    }

    /// Installs the run's live telemetry context into `hub` at run start,
    /// for mid-run observation from another thread.
    #[must_use]
    pub fn with_telemetry_hub(mut self, hub: Arc<parsim_telemetry::Hub>) -> SimConfig {
        self.telemetry_hub = Some(hub);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let n0 = NodeId::from_index(0);
        let n1 = NodeId::from_index(1);
        let cfg = SimConfig::new(Time(5))
            .watch(n0)
            .watch_all([n1])
            .threads(3)
            .without_lookahead()
            .without_gc()
            .without_activity_gating();
        assert_eq!(cfg.end_time, Time(5));
        assert_eq!(cfg.watch, vec![n0, n1]);
        assert_eq!(cfg.threads, 3);
        assert!(!cfg.lookahead);
        assert!(!cfg.gc);
        assert!(!cfg.activity_gating);
        assert!(SimConfig::new(Time(5)).activity_gating);
        assert!(SimConfig::new(Time(5)).trace.is_none());
        let traced = SimConfig::new(Time(5)).with_trace(TraceConfig::default());
        assert!(traced.trace.is_some());
        assert!(SimConfig::new(Time(5)).lane_width.is_none());
        let wide = SimConfig::new(Time(5)).with_lane_width(256);
        assert_eq!(wide.lane_width, Some(256));
    }

    #[test]
    #[should_panic(expected = "lane width must be one of")]
    fn bad_lane_width_rejected() {
        let _ = SimConfig::new(Time(1)).with_lane_width(96);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = SimConfig::new(Time(1)).threads(0);
    }

    #[test]
    fn watch_named_resolves() {
        let mut b = parsim_netlist::Builder::new();
        let a = b.node("alpha", 1);
        let _ = b.node("beta", 1);
        let n = b.finish().unwrap();
        let cfg = SimConfig::new(Time(1)).watch_named(&n, ["alpha"]);
        assert_eq!(cfg.watch, vec![a]);
    }

    #[test]
    fn try_watch_named_reports_unknown_nodes() {
        let n = parsim_netlist::Builder::new().finish().unwrap();
        let err = SimConfig::new(Time(1))
            .try_watch_named(&n, ["ghost"])
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownNode { ref name } if name == "ghost"));
    }

    #[test]
    fn containment_knobs_chain() {
        let cfg = SimConfig::new(Time(5))
            .with_deadline(Duration::from_secs(2))
            .with_stall_timeout(Duration::from_millis(100))
            .with_fault(FaultPlan::panic_at(0, 3));
        assert_eq!(cfg.deadline, Some(Duration::from_secs(2)));
        assert_eq!(cfg.stall_timeout, Some(Duration::from_millis(100)));
        assert!(!cfg.fault.is_empty());
        assert!(SimConfig::new(Time(5)).fault.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn watch_named_rejects_unknown() {
        let n = parsim_netlist::Builder::new().finish().unwrap();
        let _ = SimConfig::new(Time(1)).watch_named(&n, ["ghost"]);
    }
}
