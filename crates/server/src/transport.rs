//! The wire-shaped request/response vocabulary and the transport trait.
//!
//! Every front door — the in-process one the tests use and the HTTP
//! listener — speaks the same typed [`Request`]/[`Response`] pairs, with
//! only strings and integers inside so any byte transport can carry them
//! without a serialization dependency. [`InProcTransport`] is the
//! reference implementation: it asks the server's [`NetlistStore`] for
//! the request text's netlist (parsing only bytes it has not seen),
//! resolves names against it and calls straight into the [`Server`], so
//! every lifecycle test stays hermetic (no sockets, no ports).
//!
//! [`NetlistStore`]: crate::NetlistStore

use std::sync::Arc;

use parsim_logic::{Time, Value};

use crate::job::{JobId, JobOutcome, JobSpec, SubmitError};
use crate::scheduler::Server;
use crate::store::Interned;
use parsim_core::LaneStimulus;

/// A transport-level request. Node references are names; times and
/// values are plain integers (values are resolved against node widths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a job: `netlist` is
    /// [`Netlist::from_text`](parsim_netlist::Netlist::from_text) format,
    /// `overrides` replace named nodes' generator schedules for this
    /// tenant's lane as `(node, [(time, value)])`.
    Submit {
        tenant: String,
        netlist: String,
        watch: Vec<String>,
        end: u64,
        deadline_ms: Option<u64>,
        overrides: Vec<(String, Vec<(u64, u64)>)>,
    },
    /// Poll a job's status.
    Status { id: u64 },
    /// Request cancellation.
    Cancel { id: u64 },
    /// Fetch the result, long-polling up to `wait_ms` for completion.
    Result { id: u64, wait_ms: u64 },
    /// Service metrics in Prometheus text format.
    Metrics,
}

/// A transport-level response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Submitted {
        id: u64,
    },
    Status {
        status: &'static str,
    },
    Cancelled {
        ok: bool,
    },
    /// Terminal result. `vcd` and `engine` are set for done jobs, `error`
    /// for failed ones; a still-pending job (long-poll timeout) reports its
    /// status with none of them.
    Result {
        status: &'static str,
        vcd: Option<String>,
        lane: usize,
        lanes_in_batch: usize,
        /// [`JobArtifact::engine`](crate::JobArtifact::engine).
        engine: Option<&'static str>,
        cache_hit: bool,
        error: Option<String>,
    },
    Metrics {
        text: String,
    },
    /// HTTP-shaped failure: 400 bad request, 404 unknown job, 429 quota,
    /// 503 shutting down.
    Error {
        code: u16,
        message: String,
    },
}

/// Anything that can carry [`Request`]s to a server. Implementations
/// must be shareable across connection-handling threads.
pub trait Transport: Send + Sync {
    fn call(&self, req: Request) -> Response;
}

/// The hermetic transport: requests resolve directly against an owned
/// [`Server`], no bytes involved.
pub struct InProcTransport {
    server: Arc<Server>,
}

impl InProcTransport {
    pub fn new(server: Arc<Server>) -> InProcTransport {
        InProcTransport { server }
    }

    /// The wrapped server (tests reach through for metrics assertions).
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    fn submit(
        &self,
        tenant: String,
        netlist_text: String,
        watch: &[String],
        end: u64,
        deadline_ms: Option<u64>,
        overrides: &[(String, Vec<(u64, u64)>)],
    ) -> Response {
        let Interned { netlist, digest } = match self.server.store().intern_text(netlist_text) {
            Ok(found) => found,
            Err(e) => return bad_request(format!("netlist: {e}")),
        };
        let mut spec = JobSpec::new(tenant, netlist.clone(), Time(end));
        for name in watch {
            match netlist.node_by_name(name) {
                Some(id) => spec.watch.push(id),
                None => return bad_request(format!("unknown watch node '{name}'")),
            }
        }
        let mut stimulus = LaneStimulus::base();
        for (name, schedule) in overrides {
            let Some(node) = netlist.node_by_name(name) else {
                return bad_request(format!("unknown override node '{name}'"));
            };
            let width = netlist.node(node).width();
            let schedule: Vec<(Time, Value)> = schedule
                .iter()
                .map(|&(t, v)| (Time(t), Value::from_u64(v, width)))
                .collect();
            stimulus = stimulus.drive(node, schedule);
        }
        spec.stimulus = stimulus;
        if let Some(ms) = deadline_ms {
            spec.deadline = Some(std::time::Duration::from_millis(ms));
        }
        match self.server.submit_digested(spec, digest) {
            Ok(id) => Response::Submitted { id: id.0 },
            Err(SubmitError::QuotaExceeded { tenant, limit }) => Response::Error {
                code: 429,
                message: format!("tenant '{tenant}' is at its quota of {limit} active jobs"),
            },
            Err(SubmitError::Invalid { reason }) => bad_request(reason),
            Err(SubmitError::ShuttingDown) => Response::Error {
                code: 503,
                message: "server is shutting down".into(),
            },
        }
    }

    fn result(&self, id: u64, wait_ms: u64) -> Response {
        let job = JobId(id);
        let status = if wait_ms > 0 {
            self.server
                .wait(job, std::time::Duration::from_millis(wait_ms))
                .or_else(|| self.server.status(job))
        } else {
            self.server.status(job)
        };
        let Some(status) = status else {
            return Response::Error { code: 404, message: format!("unknown job {id}") };
        };
        match self.server.outcome(job) {
            Some(JobOutcome::Done(artifact)) => Response::Result {
                status: status.name(),
                vcd: Some(artifact.result.to_vcd()),
                lane: artifact.lane,
                lanes_in_batch: artifact.lanes_in_batch,
                engine: Some(artifact.engine),
                cache_hit: artifact.cache_hit,
                error: None,
            },
            Some(JobOutcome::Failed(err)) => Response::Result {
                status: status.name(),
                vcd: None,
                lane: 0,
                lanes_in_batch: 0,
                engine: None,
                cache_hit: false,
                error: Some(err.to_string()),
            },
            None => Response::Result {
                status: status.name(),
                vcd: None,
                lane: 0,
                lanes_in_batch: 0,
                engine: None,
                cache_hit: false,
                error: None,
            },
        }
    }
}

fn bad_request(message: String) -> Response {
    Response::Error { code: 400, message }
}

impl Transport for InProcTransport {
    fn call(&self, req: Request) -> Response {
        match req {
            Request::Submit { tenant, netlist, watch, end, deadline_ms, overrides } => {
                self.submit(tenant, netlist, &watch, end, deadline_ms, &overrides)
            }
            Request::Status { id } => match self.server.status(JobId(id)) {
                Some(status) => Response::Status { status: status.name() },
                None => Response::Error { code: 404, message: format!("unknown job {id}") },
            },
            Request::Cancel { id } => Response::Cancelled { ok: self.server.cancel(JobId(id)) },
            Request::Result { id, wait_ms } => self.result(id, wait_ms),
            Request::Metrics => Response::Metrics { text: self.server.metrics_text() },
        }
    }
}
