//! A phase-counting spin barrier (sense reversing, generalized).
//!
//! The synchronous event-driven and compiled-mode algorithms "make sure
//! that *all* processors are done before continuing on to the next
//! time-step" (§2). A sense-reversing barrier is reusable across an
//! unbounded number of phases without reinitialization; this one counts
//! phases in a monotonic epoch instead of flipping a boolean sense.
//!
//! The original implementation derived each waiter's sense by *re-reading
//! the shared flag* (`!self.sense.load(Relaxed)`) on arrival. That read
//! races the previous leader's flip: it is only correct because every
//! arriver's load happens to be ordered before the flip through the
//! `AcqRel` chain on `remaining` — an edge supplied by a *different*
//! location's protocol, invisible at the read itself, and lost the moment
//! anyone weakens the arrival RMW (the model checker demonstrates the
//! resulting deadlock in
//! `parsim-model-check/tests/prefix_counterexamples.rs`). The epoch form
//! needs no such cross-location argument: a waiter captures the epoch
//! before arriving and spins until it *changes*, so a stale capture is
//! impossible to misinterpret and a missed flip cannot park a waiter in
//! the wrong phase.

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use parsim_trace::{EventKind, WorkerTracer};

/// A reusable spin barrier for a fixed set of participants.
///
/// Spins briefly, then yields to the OS scheduler — important when threads
/// outnumber cores (this reproduction often runs oversubscribed).
///
/// # Examples
///
/// ```
/// use parsim_queue::SpinBarrier;
/// use std::sync::Arc;
///
/// let barrier = Arc::new(SpinBarrier::new(2));
/// let b2 = Arc::clone(&barrier);
/// let t = std::thread::spawn(move || {
///     b2.wait();
/// });
/// let leader = barrier.wait();
/// t.join().unwrap();
/// # let _ = leader;
/// ```
pub struct SpinBarrier {
    parties: usize,
    remaining: AtomicUsize,
    /// Completed-phase counter; waiters of phase `p` spin until it leaves
    /// `p`. Monotonic, so a waiter can never confuse two phases (the
    /// boolean-sense ABA) and never needs to re-read shared state to
    /// learn which phase it is in.
    phase: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    /// Creates a barrier for `parties` participants.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> SpinBarrier {
        assert!(parties > 0, "barrier needs at least one party");
        SpinBarrier {
            parties,
            remaining: AtomicUsize::new(parties),
            phase: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// The number of participants.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Marks the barrier as unusable and releases every current and
    /// future waiter immediately.
    ///
    /// Called by a participant that is about to die (e.g. from a panic
    /// handler) so its peers observe shutdown instead of spinning forever
    /// on a phase that can never complete. Once poisoned, every `wait`
    /// returns `false` without synchronizing; callers must check
    /// [`SpinBarrier::is_poisoned`] and abandon the phase protocol.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// True once any participant has called [`SpinBarrier::poison`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Blocks until all parties have called `wait`. Returns `true` for
    /// exactly one caller per phase (the "leader"), which is useful for
    /// per-phase bookkeeping.
    ///
    /// A poisoned barrier never blocks: `wait` returns `false` at once,
    /// and any phase in flight when the poison landed is abandoned.
    pub fn wait(&self) -> bool {
        if self.is_poisoned() {
            return false;
        }
        // Capture the phase *before* arriving: once `remaining` is
        // decremented the leader may flip at any moment, and a capture
        // taken after that point could name the next phase and wait on a
        // release that already happened.
        let my_phase = self.phase.load(Ordering::Acquire);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arriver: reset the count for the next phase, then
            // release this one. The reset must be ordered before (or with)
            // the phase store — waiters re-arrive as soon as they see the
            // epoch move.
            self.remaining.store(self.parties, Ordering::Relaxed);
            self.phase.fetch_add(1, Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            while self.phase.load(Ordering::Acquire) == my_phase {
                if self.is_poisoned() {
                    return false;
                }
                spins += 1;
                if spins < 64 {
                    crate::sync::hint::spin_loop();
                } else {
                    // Oversubscribed hosts: let the missing party run.
                    crate::sync::thread::yield_now();
                }
            }
            false
        }
    }

    /// [`SpinBarrier::wait`] wrapped in a `BarrierWait` trace span.
    ///
    /// `phase` tags which barrier within the engine's step loop this is
    /// (e.g. 0 = after node apply, 1 = after element eval), so the run
    /// report can attribute imbalance to a specific phase boundary.
    #[inline]
    pub fn wait_traced(&self, tracer: &mut WorkerTracer, phase: u32) -> bool {
        tracer.begin(EventKind::BarrierWait, phase);
        let leader = self.wait();
        tracer.end(EventKind::BarrierWait);
        leader
    }
}

/// How workers in lockstep on a [`SpinBarrier`] agree that a step was
/// quiet: it queued no write on any worker, so nothing can change before
/// the next scheduled stimulus and the step loop may continue there.
///
/// A worker whose evaluation of step `t` queued a write calls
/// [`note`](WriteMark::note) before the post-evaluate barrier of `t`;
/// every worker calls [`quiet`](WriteMark::quiet) after it. The barrier
/// orders every note of `t` before every read, and the post-apply barrier
/// of the next executed step orders every read before the next note, so
/// `Relaxed` suffices and all workers read the same answer. The whole
/// argument lives in the two barriers; `tests/model.rs` checks it against
/// this type and the real barrier.
pub struct WriteMark(AtomicU64);

impl WriteMark {
    /// A mark that has seen no write.
    pub fn new() -> WriteMark {
        WriteMark(AtomicU64::new(0))
    }

    /// Records that the caller's evaluation of step `t` queued a write.
    #[inline]
    pub fn note(&self, t: u64) {
        self.0.store(t + 1, Ordering::Relaxed);
    }

    /// True when no worker noted a write at step `t`.
    #[inline]
    pub fn quiet(&self, t: u64) -> bool {
        self.0.load(Ordering::Relaxed) != t + 1
    }
}

impl Default for WriteMark {
    fn default() -> WriteMark {
        WriteMark::new()
    }
}

#[cfg(all(test, not(parsim_model)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn single_party_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
        }
    }

    #[test]
    fn phases_are_totally_ordered() {
        const THREADS: usize = 4;
        const PHASES: u64 = 200;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    for phase in 0..PHASES {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // After the barrier, all increments of this phase
                        // must be visible.
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(
                            seen >= (phase + 1) * THREADS as u64,
                            "phase {phase}: saw {seen}"
                        );
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), PHASES * THREADS as u64);
    }

    #[test]
    fn poison_releases_spinning_waiters() {
        let barrier = Arc::new(SpinBarrier::new(3));
        assert!(!barrier.is_poisoned());
        // Two of three parties arrive; the phase cannot complete. A third
        // party poisons instead of arriving, and both waiters must return.
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || barrier.wait())
            })
            .collect();
        // Give the waiters time to block in the spin loop.
        thread::sleep(std::time::Duration::from_millis(20));
        barrier.poison();
        for w in waiters {
            assert!(!w.join().unwrap(), "poisoned wait must not elect a leader");
        }
        // Subsequent waits return immediately.
        assert!(!barrier.wait());
        assert!(barrier.is_poisoned());
    }

    #[test]
    fn exactly_one_leader_per_phase() {
        const THREADS: usize = 3;
        const PHASES: usize = 100;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let leaders = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let leaders = Arc::clone(&leaders);
                thread::spawn(move || {
                    for _ in 0..PHASES {
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::Relaxed), PHASES as u64);
    }
}
