//! Job specifications, identities, statuses, and finished artifacts.

use std::sync::Arc;
use std::time::Duration;

use parsim_core::{LaneStimulus, SimError, SimResult};
use parsim_logic::Time;
use parsim_netlist::{Netlist, NodeId};

/// Opaque job handle, unique per server instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One tenant's simulation request.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Who is asking — quota accounting key.
    pub tenant: String,
    /// The circuit. Jobs whose netlists hash to the same structural
    /// digest ([`parsim_checkpoint::netlist_digest`]) are packed into the
    /// same pass. The job, not the server's store,
    /// keeps it alive until its pass has run.
    pub netlist: Arc<Netlist>,
    /// This tenant's stimulus lane (schedule overrides on top of the
    /// netlist's base generators).
    pub stimulus: LaneStimulus,
    /// Simulate through this time (inclusive).
    pub end: Time,
    /// Nodes whose waveforms the tenant wants back.
    pub watch: Vec<NodeId>,
    /// Wall-clock budget measured from submission. Expiry fails the job
    /// with [`SimError::DeadlineExceeded`] (`engine: "server"`), checked
    /// at dispatch and at checkpoint-segment cuts. `None` never expires.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A job watching `watch` through `end` with no overrides, no
    /// deadline.
    pub fn new(tenant: impl Into<String>, netlist: Arc<Netlist>, end: Time) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            netlist,
            stimulus: LaneStimulus::base(),
            end,
            watch: Vec::new(),
            deadline: None,
        }
    }

    /// Sets the stimulus lane (builder style).
    #[must_use]
    pub fn stimulus(mut self, stimulus: LaneStimulus) -> JobSpec {
        self.stimulus = stimulus;
        self
    }

    /// Adds one watched node (builder style).
    #[must_use]
    pub fn watch(mut self, node: NodeId) -> JobSpec {
        self.watch.push(node);
        self
    }

    /// Sets the wall-clock budget (builder style).
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> JobSpec {
        self.deadline = Some(d);
        self
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in its digest bin.
    Queued,
    /// Inside a batch pass.
    Running,
    /// Finished with an artifact.
    Done,
    /// Finished with a [`SimError`].
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobStatus {
    /// `true` once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled)
    }

    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// A finished job's deliverable: the tenant's private view of the shared
/// batch pass.
#[derive(Debug, Clone)]
pub struct JobArtifact {
    /// Waveforms restricted to the job's watch list and end time —
    /// bit-identical to a standalone run of the same stimulus.
    pub result: SimResult,
    /// Which lane of the batch pass carried this job.
    pub lane: usize,
    /// How many tenants shared that pass.
    pub lanes_in_batch: usize,
    /// The engine the pass ran on: `"event-driven"` or `"compiled-mode"`.
    pub engine: &'static str,
    /// Whether the pass reused a cached compiled program (never for an
    /// event-driven pass, which has none).
    pub cache_hit: bool,
    /// The batch pass's run telemetry (shared across its tenants).
    pub telemetry: Option<Arc<parsim_telemetry::RunTelemetry>>,
}

/// How a job ended: artifact or error. Cancellation surfaces as
/// [`JobStatus::Cancelled`] with no outcome. The artifact is shared with
/// the server's record of the job — it carries whole waveforms, and every
/// read of the outcome would otherwise copy them.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    Done(Arc<JobArtifact>),
    Failed(SimError),
}

/// Why a submission was refused at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant already has `limit` jobs queued or running.
    QuotaExceeded { tenant: String, limit: usize },
    /// The spec cannot be served: its stimulus has an override
    /// [`LaneStimulus::validate`] refuses.
    Invalid { reason: String },
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QuotaExceeded { tenant, limit } => {
                write!(f, "tenant '{tenant}' is at its quota of {limit} active jobs")
            }
            SubmitError::Invalid { reason } => write!(f, "invalid job: {reason}"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}
