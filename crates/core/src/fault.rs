//! Deterministic fault injection for the parallel engines.
//!
//! A [`FaultPlan`] rides on [`SimConfig`](crate::SimConfig) and names a
//! worker plus an activation ordinal at which that worker either panics
//! or stops making progress. The engines consult the plan at their
//! activation-processing point, so an injected failure lands exactly
//! where a real bug would: mid-protocol, with peers blocked on the dead
//! worker's queues or barriers. The containment tests use this to prove
//! that every failure mode terminates with a structured
//! [`SimError`](crate::SimError) instead of a hang.
//!
//! Always compiled (the per-activation cost is one branch on a cloned
//! `Option`); the `chaos` cargo feature additionally perturbs the queue
//! protocol itself (see `parsim_queue::chaos`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use parsim_checkpoint::{StorageFault, StorageFaultPlan};

/// What an engine worker should do at the fault point.
pub(crate) enum FaultAction {
    /// No fault here; keep processing.
    Continue,
    /// The worker stalled and was then cancelled; exit its loop cleanly.
    Exit,
}

/// A deterministic fault to inject into one worker.
///
/// # Examples
///
/// ```
/// use parsim_core::FaultPlan;
///
/// // Worker 0 panics while processing its 3rd activation.
/// let plan = FaultPlan::panic_at(0, 2);
/// // Worker 1 freezes (stops heartbeating) at its first activation.
/// let stall = FaultPlan::stall_at(1, 0);
/// # let _ = (plan, stall);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(worker, nth)`: the worker panics at its `nth` activation
    /// (0-based).
    panic_at: Option<(usize, u64)>,
    /// `(worker, nth)`: the worker stops making progress at its `nth`
    /// activation, holding its in-flight work until cancelled.
    stall_at: Option<(usize, u64)>,
    /// Storage faults injected into the checkpoint write protocol
    /// (consulted by the [`checkpoint`](crate::checkpoint) driver, not by
    /// the engine workers). Empty by default.
    pub storage: StorageFaultPlan,
}

impl FaultPlan {
    /// A plan where `worker` panics at its `nth` (0-based) activation.
    pub fn panic_at(worker: usize, nth: u64) -> FaultPlan {
        FaultPlan {
            panic_at: Some((worker, nth)),
            ..FaultPlan::default()
        }
    }

    /// A plan where `worker` freezes at its `nth` (0-based) activation —
    /// it keeps its in-flight element claimed and stops heartbeating,
    /// exactly like a worker wedged in an infinite loop, until the
    /// watchdog cancels the run.
    pub fn stall_at(worker: usize, nth: u64) -> FaultPlan {
        FaultPlan {
            stall_at: Some((worker, nth)),
            ..FaultPlan::default()
        }
    }

    /// A plan injecting `fault` into the `nth` (0-based) checkpoint
    /// write of the run — the storage-side counterpart of
    /// [`FaultPlan::panic_at`]. Chainable via [`FaultPlan::and_storage_fault`].
    pub fn storage_fault(nth: u64, fault: StorageFault) -> FaultPlan {
        FaultPlan {
            storage: StorageFaultPlan::new().fault_at(nth, fault),
            ..FaultPlan::default()
        }
    }

    /// Adds another storage fault to this plan.
    #[must_use]
    pub fn and_storage_fault(mut self, nth: u64, fault: StorageFault) -> FaultPlan {
        self.storage = self.storage.fault_at(nth, fault);
        self
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panic_at.is_none() && self.stall_at.is_none() && self.storage.is_empty()
    }

    /// The first activation ordinal at which the plan acts on `worker`
    /// (`u64::MAX` if none). [`FaultPlan::check`] is a no-op below it, so
    /// a kernel that counts activations a block at a time consults the
    /// plan only in the block that reaches it.
    pub(crate) fn first_activation(&self, worker: usize) -> u64 {
        [self.panic_at, self.stall_at]
            .into_iter()
            .flatten()
            .filter(|&(w, _)| w == worker)
            .map(|(_, nth)| nth)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Consults the plan at one activation. `count` is the worker's local
    /// 0-based ordinal of the activation it is about to process.
    ///
    /// Panics if the panic fault matches. Parks until `cancel` if the
    /// stall fault matches, then asks the caller to exit. The engines call
    /// this before touching the claimed element, so a stalled worker
    /// leaves the protocol exactly as a wedged one would.
    pub(crate) fn check(
        &self,
        worker: usize,
        count: u64,
        cancel: &AtomicBool,
    ) -> FaultAction {
        if self.panic_at == Some((worker, count)) {
            panic!("injected fault: worker {worker} panicked at activation {count}");
        }
        if let Some((w, nth)) = self.stall_at {
            if w == worker && count >= nth {
                while !cancel.load(Ordering::Acquire) {
                    std::thread::park_timeout(Duration::from_millis(1));
                }
                return FaultAction::Exit;
            }
        }
        FaultAction::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_always_continues() {
        let cancel = AtomicBool::new(false);
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for w in 0..4 {
            for c in 0..10 {
                assert!(matches!(plan.check(w, c, &cancel), FaultAction::Continue));
            }
        }
    }

    #[test]
    #[should_panic(expected = "injected fault: worker 1 panicked at activation 2")]
    fn panic_fault_fires_at_exact_ordinal() {
        let cancel = AtomicBool::new(false);
        let plan = FaultPlan::panic_at(1, 2);
        // Wrong worker / wrong ordinal: no fault.
        let _ = plan.check(0, 2, &cancel);
        let _ = plan.check(1, 1, &cancel);
        let _ = plan.check(1, 2, &cancel); // boom
    }

    #[test]
    fn stall_fault_parks_until_cancel() {
        let cancel = AtomicBool::new(true); // pre-cancelled: returns at once
        let plan = FaultPlan::stall_at(0, 3);
        assert!(matches!(plan.check(0, 2, &cancel), FaultAction::Continue));
        assert!(matches!(plan.check(0, 3, &cancel), FaultAction::Exit));
        assert!(matches!(plan.check(0, 9, &cancel), FaultAction::Exit));
        assert!(matches!(plan.check(1, 3, &cancel), FaultAction::Continue));
    }

    #[test]
    fn first_activation_is_where_check_first_acts() {
        assert_eq!(FaultPlan::default().first_activation(0), u64::MAX);
        let plan = FaultPlan::panic_at(1, 7);
        assert_eq!(plan.first_activation(1), 7);
        assert_eq!(plan.first_activation(0), u64::MAX);
        assert_eq!(FaultPlan::stall_at(0, 3).first_activation(0), 3);
        let storage = FaultPlan::storage_fault(0, StorageFault::FsyncCrash);
        assert_eq!(storage.first_activation(0), u64::MAX);
    }
}
