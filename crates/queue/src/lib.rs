//! Lock-free scheduling primitives for the parallel simulation engines.
//!
//! The paper's asynchronous algorithm (§4) schedules elements through an
//! n×n grid of single-reader/single-writer FIFO queues: "each queue has
//! only one processor that adds elements to it and only one processor that
//! removes elements from it... Since no locks are used, the two processors
//! corresponding to each queue must never modify the same location." This
//! crate provides exactly those building blocks:
//!
//! - [`spsc`]: an unbounded lock-free single-producer/single-consumer
//!   queue (segmented, with the Lamport publish/consume protocol),
//! - [`grid()`]: the n×n mailbox grid, each item sent to its owner,
//! - [`barrier::SpinBarrier`]: the sense-reversing barrier the synchronous
//!   algorithms need at phase boundaries, and [`barrier::WriteMark`], the
//!   compiled kernels' quiet-step agreement that rides on it,
//! - [`activation::ActivationState`]: the per-element at-most-once
//!   scheduling state machine ("activate the elements only once"),
//! - [`batch::IdBatch`]: a cache-line-sized batch of element ids so one
//!   grid slot carries many activations (locality-aware scheduling),
//! - [`backoff::Backoff`]: truncated exponential backoff for idle
//!   workers (spin → yield → bounded park).
//!
//! The barrier, backoff, and grid primitives additionally expose
//! `*_traced` variants that record into a `parsim_trace::WorkerTracer`
//! (span for barrier waits, instants for grid traffic and parks). With the
//! `trace` feature off these wrappers cost nothing beyond the plain call.
//!
//! # Model checking
//!
//! Every lock-free protocol here compiles against the [`sync`] facade
//! instead of `std` directly. Under `RUSTFLAGS="--cfg parsim_model"` the
//! facade resolves to the `parsim-model-check` interleaving explorer and
//! `tests/model.rs` exhaustively checks the real implementations —
//! torn/dropped SPSC items, drop-while-nonempty drains, barrier
//! deadlock/double-release, barrier-carried quiet-step agreement and
//! dirty marks, activation-handoff visibility. See DESIGN.md
//! §9 for the inventory-to-model-test mapping.

pub mod activation;
pub mod backoff;
pub mod barrier;
pub mod batch;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod grid;
pub mod pad;
pub mod spsc;
pub mod sync;

pub use activation::ActivationState;
pub use backoff::Backoff;
pub use batch::{IdBatch, BATCH_CAPACITY};
pub use pad::CachePadded;
pub use barrier::{SpinBarrier, WriteMark};
pub use grid::{grid, GridReceiver, GridSender};
pub use spsc::{channel, Receiver, Sender};
