//! Multi-tenant lane-packed simulation serving.
//!
//! The paper's word-parallel compiled mode evaluates **one** instruction
//! stream for many independent stimulus sets at once. This crate turns
//! that substrate into a service: tenants submit jobs, a scheduler bins
//! pending jobs by their netlist's FNV-1a structural digest
//! ([`parsim_checkpoint::netlist_digest`]), and each dispatch drains one
//! bin into a single [`CompiledMode::run_batch`] pass — up to
//! [`ServerConfig::max_lanes_per_batch`] tenants served by one
//! instruction-stream execution, each getting back waveforms
//! bit-identical to a standalone run of their stimulus. A job alone in its
//! pass on a unit-delay netlist gains nothing from sharing, so that pass
//! runs [`EventDriven::run_lane`] instead, evaluating only what changes
//! and never lowering the netlist — the paper's §3 point that compiled
//! mode pays or not depending on the circuit, decided pass by pass.
//!
//! The compile-once/run-many economics ride one [`NetlistStore`]: a single
//! LRU of [`ServerConfig::cache_capacity`] circuits, each entry holding the
//! request text, the shared parsed netlist, its digest and the lazily
//! compiled [`CompiledProgram`]. A text submission first looks its bytes up
//! (hash, then a full byte comparison) and parses only on a miss; the first
//! compiled pass of a digest pays the lowering, every later one reuses the program
//! through [`CompiledMode::run_batch_with_program`]. Finished jobs keep
//! only their artifact, and only the most recent
//! [`RETAINED_FINISHED_JOBS`] of them are kept at all, so memory is bounded
//! in the number of jobs served.
//!
//! Per-tenant quotas bound queue occupancy, wall-clock deadlines ride the
//! engine's watchdog and [`SimError`] containment (expiry while the job is the *server's*
//! responsibility synthesizes [`SimError::DeadlineExceeded`] with
//! `engine: "server"`), and cancellation/deadline eviction takes effect
//! at checkpoint-segment cuts when [`ServerConfig::segment_ticks`] is
//! set.
//!
//! Transports stack from the inside out: [`InProcTransport`] calls the
//! [`Server`] directly (hermetic tests), and [`HttpServer`] serves the
//! same [`Request`]/[`Response`] vocabulary over a hand-rolled HTTP/1.1
//! listener (`psim-server` in `parsim-harness` is the bin).
//!
//! Service-level observability lives in
//! [`parsim_telemetry::ServerRegistry`] under `parsim_server_*` metric
//! names: job lifecycle counts, netlist-store hits/misses (text lookups),
//! cache hits/misses/evictions (programs), passes (and how many ran
//! event-driven), and lane occupancy.
//!
//! [`CompiledMode::run_batch`]: parsim_core::CompiledMode::run_batch
//! [`EventDriven::run_lane`]: parsim_core::EventDriven::run_lane
//! [`CompiledMode::run_batch_with_program`]: parsim_core::CompiledMode::run_batch_with_program
//! [`CompiledProgram`]: parsim_netlist::compile::CompiledProgram
//! [`SimError`]: parsim_core::SimError
//! [`SimError::DeadlineExceeded`]: parsim_core::SimError::DeadlineExceeded

pub mod http;
pub mod job;
pub mod scheduler;
pub mod store;
pub mod transport;

pub use http::HttpServer;
pub use job::{JobArtifact, JobId, JobOutcome, JobSpec, JobStatus, SubmitError};
pub use scheduler::{Server, ServerConfig, RETAINED_FINISHED_JOBS};
pub use store::{Interned, NetlistStore};
pub use transport::{InProcTransport, Request, Response, Transport};
