//! # parsim-model-check — vendored interleaving explorer
//!
//! A registry-free, loom-style model checker for parsim's lock-free
//! inventory (SPSC segmented queues, the n×n grid, the sense-reversing
//! barrier, the chaotic node's `valid_until`/GC-cursor protocol). Like the
//! workspace's `rand`/`proptest` shims, it exists so builds
//! never touch a registry: the whole checker is this one crate.
//!
//! ## What it does
//!
//! [`Explorer::check`] runs a closure over and over, each time forcing a
//! different interleaving of its model threads, until the bounded tree of
//! schedules is exhausted. Two kinds of decision are explored:
//!
//! - **Thread choices** — at every schedule point (each atomic op, yield,
//!   spawn, join) any runnable thread may run next, bounded by a CHESS
//!   preemption budget.
//! - **Read choices** — an atomic load may observe *any* store the C11
//!   visibility rules allow (per-location modification order, coherence
//!   floors, SeqCst front), not just the newest; release/acquire edges and
//!   fences join vector clocks exactly as the memory model prescribes,
//!   including release sequences continued by RMWs.
//!
//! Violations — panics/asserts, data races on [`cell::UnsafeCell`] data,
//! join deadlocks, runaway spins — are reported as a [`Counterexample`]
//! carrying a replayable schedule string; [`Explorer::replay`] pins that
//! schedule so a found bug can be committed as a deterministic regression
//! test.
//!
//! ## What it deliberately is not
//!
//! - Not exhaustive beyond its bounds: the preemption/step/execution
//!   budgets make exploration finite; [`Outcome::complete`] says whether
//!   the tree was fully covered within them.
//! - Not a UB detector: a counterexample execution may tear down protocol
//!   state mid-flight; miri on the *real* atomics covers UB (see the CI
//!   model-check job).
//! - `compare_exchange_weak` never fails spuriously (spurious failures
//!   only re-run CAS loops without adding observable outcomes).
//!
//! ## Using it
//!
//! Protocol crates compile against a `cfg(parsim_model)` facade that
//! aliases `std::sync::atomic` et al. to the types here (see
//! `parsim_queue::sync`), so the *real* implementation runs under the
//! model unchanged:
//!
//! ```
//! use parsim_model_check::{model, sync::atomic::{AtomicU64, Ordering}, sync::Arc, thread};
//!
//! model(|| {
//!     let flag = Arc::new(AtomicU64::new(0));
//!     let data = Arc::new(AtomicU64::new(0));
//!     let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
//!     let t = thread::spawn(move || {
//!         d2.store(42, Ordering::Relaxed);
//!         f2.store(1, Ordering::Release);
//!     });
//!     if flag.load(Ordering::Acquire) == 1 {
//!         assert_eq!(data.load(Ordering::Relaxed), 42);
//!     }
//!     t.join();
//! });
//! ```

pub mod atomic;
pub mod cell;
mod arc;
mod clock;
mod exec;
pub mod thread;

pub use exec::{model, CexKind, Config, Counterexample, Explorer, Outcome, ThreadId};

/// Mirror of the `std::sync` paths the facade re-exports.
pub mod sync {
    pub use crate::arc::Arc;

    /// Mirror of `std::sync::atomic` (model types + the real `Ordering`).
    pub mod atomic {
        pub use crate::atomic::{
            fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
        };
        pub use std::sync::atomic::Ordering;
    }
}

/// Mirror of `std::hint` for spin loops.
pub mod hint {
    /// Spin-loop hint: parks until some store lands, like
    /// [`thread::yield_now`](crate::thread::yield_now).
    pub fn spin_loop() {
        crate::exec::park_until_write();
    }
}
