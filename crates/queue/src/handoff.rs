//! Per-worker step handoff for statically scheduled BSP execution.
//!
//! The compiled batch kernel runs a two-phase step loop (apply pending
//! node writes, then evaluate levels). With a [`SpinBarrier`] every
//! worker waits for *every* other worker twice per step — even for
//! workers whose outputs it never reads. The lowered instruction stream
//! knows the communication pattern at compile time, so a worker only
//! needs to order itself against its actual **producers** (workers whose
//! node slots it reads) and **consumers** (workers that read its slots).
//!
//! [`StepHandoff`] is the per-edge primitive: each worker owns two
//! monotonic phase counters — "I finished my apply of step `t`" and "I
//! finished my eval of step `t`" — published with `Release` and awaited
//! with `Acquire`. A phase counter stores `t + 1` once step `t`'s phase
//! is done, so the all-zeros initial state means "nothing published" and
//! waiters never need a sentinel.
//!
//! The protocol a worker `w` runs per *executed* step `t` (neighbor-sync
//! mode; every worker executes the same increasing sequence of steps,
//! and `s` is the one before `t`):
//!
//! 1. wait `eval_done[c] ≥ s+1` for every consumer `c` (step `s`'s reads
//!    of `w`'s slots have retired — overwriting them is now safe),
//! 2. apply `w`'s pending writes for step `t`; publish `apply_done[w] = t+1`,
//! 3. wait `apply_done[p] ≥ t+1` for every producer `p` (the slot values
//!    `w`'s instructions read this step are final),
//! 4. evaluate; [`note_write`](StepHandoff::note_write) if that queued a
//!    write for the next step; publish `eval_done[w] = t+1`.
//!
//! The sequence need not be consecutive: when step `t` queued no write on
//! *any* worker, nothing can change before the next scheduled stimulus,
//! and every worker continues there. A worker that queued a write itself
//! knows the next step is `t+1`; one that did not asks
//! [`wait_quiet`](StepHandoff::wait_quiet), which waits for *every*
//! worker's `eval_done ≥ t+1` and then reads two agreement words:
//! `last_write` (latest step anyone noted a write at) and `last_quiet`
//! (latest step anyone found quiet). `last_write` alone decides unless a
//! worker that already passed `t` has overwritten it with a later step;
//! that worker either noted a write at `t` too (and so never asked) or
//! found `t` quiet and said so in `last_quiet` first — so all workers
//! take the same decision whatever the interleaving.
//!
//! Each wait targets a counter that its owner is guaranteed to advance
//! (waits only ever target phases of the step being executed or the one
//! executed before it, and phases within a worker's loop advance in
//! program order), so the wait graph is grounded and deadlock-free —
//! unless a worker dies. For that case the handoff carries the same
//! poison protocol as the barrier: a dying worker (panic handler,
//! watchdog, fault-plan exit) poisons the handoff, every in-flight and
//! future wait returns `false` immediately, and callers abandon the step
//! loop.
//!
//! Built entirely on [`crate::sync`], so `--cfg parsim_model` runs the
//! whole protocol under the deterministic interleaving explorer
//! (`crates/queue/tests/model.rs`).
//!
//! [`SpinBarrier`]: crate::SpinBarrier

use crate::pad::CachePadded;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Two published phase counters per worker plus a shared poison flag.
///
/// Counters are cache-padded: each is written by exactly one worker and
/// spun on by a handful of neighbors, and padding keeps a publish from
/// invalidating an unrelated worker's line.
pub struct StepHandoff {
    /// `apply_done[w] = t + 1` ⇔ worker `w` finished its apply phase of
    /// step `t` (writes to its node slots for this step are complete).
    apply_done: Vec<CachePadded<AtomicU64>>,
    /// `eval_done[w] = t + 1` ⇔ worker `w` finished evaluating step `t`
    /// (its reads of producer slots for this step have retired).
    eval_done: Vec<CachePadded<AtomicU64>>,
    /// `last_write = t + 1` ⇔ `t` is the latest step at which any worker
    /// queued a write for the step after it.
    last_write: CachePadded<AtomicU64>,
    /// `last_quiet = t + 1` ⇔ `t` is the latest step some worker found
    /// quiet (no worker queued a write at it).
    last_quiet: CachePadded<AtomicU64>,
    poisoned: AtomicBool,
}

impl StepHandoff {
    /// Creates a handoff for `workers` participants, all phases
    /// unpublished.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> StepHandoff {
        assert!(workers > 0, "handoff needs at least one worker");
        StepHandoff {
            apply_done: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            eval_done: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            last_write: CachePadded::new(AtomicU64::new(0)),
            last_quiet: CachePadded::new(AtomicU64::new(0)),
            poisoned: AtomicBool::new(false),
        }
    }

    /// The number of participating workers.
    pub fn workers(&self) -> usize {
        self.apply_done.len()
    }

    /// Publishes "worker `w` finished its apply phase of step `step`".
    ///
    /// The `Release` store is the synchronization edge that makes `w`'s
    /// node-slot writes (and any `Relaxed` dirty-mask marks) visible to a
    /// consumer returning from [`StepHandoff::wait_apply`].
    #[inline]
    pub fn publish_apply(&self, w: usize, step: u64) {
        self.apply_done[w].store(step + 1, Ordering::Release);
    }

    /// Blocks until worker `p` has published its apply phase of `step`.
    ///
    /// Returns `false` immediately if the handoff is (or becomes)
    /// poisoned; the caller must abandon the step loop.
    #[inline]
    pub fn wait_apply(&self, p: usize, step: u64) -> bool {
        self.wait(&self.apply_done[p], step)
    }

    /// Publishes "worker `w` finished evaluating step `step`" — its reads
    /// of producer slots for this step have retired, so producers may
    /// overwrite them for step `step + 1`.
    #[inline]
    pub fn publish_eval(&self, w: usize, step: u64) {
        self.eval_done[w].store(step + 1, Ordering::Release);
    }

    /// Blocks until worker `c` has published its eval phase of `step`.
    ///
    /// Returns `false` immediately if the handoff is (or becomes)
    /// poisoned.
    #[inline]
    pub fn wait_eval(&self, c: usize, step: u64) -> bool {
        self.wait(&self.eval_done[c], step)
    }

    /// Records that the caller's evaluation of `step` queued a write for
    /// the step after it, so `step` is not quiet. Call it before
    /// [`publish_eval`](StepHandoff::publish_eval) of the same step: that
    /// publish is what carries the note to every
    /// [`wait_quiet`](StepHandoff::wait_quiet) of `step`.
    ///
    /// `Release`, because a worker that found an earlier step quiet wrote
    /// `last_quiet` before coming here, and a slower worker learns of
    /// that decision by acquiring this word.
    #[inline]
    pub fn note_write(&self, step: u64) {
        self.last_write.fetch_max(step + 1, Ordering::Release);
    }

    /// Blocks until every worker has published its eval phase of `step`,
    /// then reports whether the step was quiet: no worker called
    /// [`note_write`](StepHandoff::note_write) for it. Every caller gets
    /// the same answer for the same step. A worker that noted a write at
    /// `step` itself already knows the answer and must not ask.
    ///
    /// Returns `None` if the handoff is (or becomes) poisoned.
    pub fn wait_quiet(&self, step: u64) -> Option<bool> {
        for counter in &self.eval_done {
            if !self.wait(counter, step) {
                return None;
            }
        }
        let target = step + 1;
        // Every note of `step` happened before the publishes acquired
        // above, so a value below `target` means nobody wrote. A value
        // above it comes from a worker already past `step`: if that
        // worker found `step` quiet it said so in `last_quiet` before
        // its later note, which the acquire here makes visible.
        let last = self.last_write.load(Ordering::Acquire);
        let quiet = last < target
            || (last > target && self.last_quiet.load(Ordering::Acquire) == target);
        if quiet {
            self.last_quiet.fetch_max(target, Ordering::AcqRel);
        }
        Some(quiet)
    }

    /// Marks the handoff unusable and releases every current and future
    /// waiter immediately (same contract as `SpinBarrier::poison`).
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// True once any participant has called [`StepHandoff::poison`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    #[inline]
    fn wait(&self, counter: &AtomicU64, step: u64) -> bool {
        let target = step + 1;
        let mut spins = 0u32;
        // Counters are monotonic, so `>=` tolerates the owner running
        // arbitrarily far ahead of this waiter.
        while counter.load(Ordering::Acquire) < target {
            if self.is_poisoned() {
                return false;
            }
            spins += 1;
            if spins < 64 {
                crate::sync::hint::spin_loop();
            } else {
                // Oversubscribed hosts: let the missing worker run.
                crate::sync::thread::yield_now();
            }
        }
        !self.is_poisoned()
    }
}

#[cfg(all(test, not(parsim_model)))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn published_phases_are_observed_in_order() {
        let h = StepHandoff::new(2);
        h.publish_apply(0, 0);
        assert!(h.wait_apply(0, 0));
        h.publish_eval(0, 0);
        assert!(h.wait_eval(0, 0));
        // Monotonic: a later publish satisfies earlier waits too.
        h.publish_apply(1, 5);
        assert!(h.wait_apply(1, 3));
        assert!(h.wait_apply(1, 5));
    }

    #[test]
    fn producer_consumer_chain_runs_many_steps() {
        const STEPS: u64 = 10_000;
        let h = Arc::new(StepHandoff::new(2));
        let data = Arc::new(std::sync::atomic::AtomicU64::new(0));
        // Worker 0 produces (apply), worker 1 consumes (eval).
        let producer = {
            let h = Arc::clone(&h);
            let data = Arc::clone(&data);
            thread::spawn(move || {
                for t in 0..STEPS {
                    if t > 0 && !h.wait_eval(1, t - 1) {
                        return;
                    }
                    data.store(t + 1, std::sync::atomic::Ordering::Relaxed);
                    h.publish_apply(0, t);
                }
            })
        };
        let consumer = {
            let h = Arc::clone(&h);
            let data = Arc::clone(&data);
            thread::spawn(move || {
                for t in 0..STEPS {
                    if !h.wait_apply(0, t) {
                        return;
                    }
                    // The Relaxed payload write is ordered by the
                    // Release/Acquire edge on apply_done[0].
                    assert_eq!(data.load(std::sync::atomic::Ordering::Relaxed), t + 1);
                    h.publish_eval(1, t);
                }
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();
    }

    /// Two workers with no edge between them, so neither ever waits for
    /// the other except in `wait_quiet`. Worker 1 queues a write on a
    /// fixed set of steps; both must walk the same sequence of executed
    /// steps: `t + 1` after a step with a write, the next stimulus after
    /// a quiet one.
    #[test]
    fn quiet_steps_are_agreed_and_jumped_by_every_worker() {
        const END: u64 = 40_000;
        const PERIOD: u64 = 40;
        let writes_at = |t: u64| t % PERIOD < 7 && t % 3 != 2;
        let walk = move |h: &StepHandoff, w: usize| {
            let mut visited = Vec::new();
            let mut t = 0u64;
            while t <= END {
                visited.push(t);
                h.publish_apply(w, t);
                let wrote = w == 1 && writes_at(t);
                if wrote {
                    h.note_write(t);
                }
                h.publish_eval(w, t);
                let quiet = !wrote && h.wait_quiet(t).expect("never poisoned");
                t = if quiet { (t / PERIOD + 1) * PERIOD } else { t + 1 };
            }
            visited
        };
        let h = Arc::new(StepHandoff::new(2));
        let peer = {
            let h = Arc::clone(&h);
            thread::spawn(move || walk(&h, 1))
        };
        let mine = walk(&h, 0);
        let theirs = peer.join().unwrap();
        assert_eq!(mine, theirs);
        // The walk a single thread would take with full knowledge.
        let mut expected = Vec::new();
        let mut t = 0u64;
        while t <= END {
            expected.push(t);
            t = if writes_at(t) { t + 1 } else { (t / PERIOD + 1) * PERIOD };
        }
        assert_eq!(mine, expected);
        assert!(mine.len() < END as usize / 4, "most steps were jumped");
    }

    #[test]
    fn poison_releases_stuck_waiters() {
        let h = Arc::new(StepHandoff::new(2));
        let waiter = {
            let h = Arc::clone(&h);
            // Worker 1 never publishes; the wait can only end by poison.
            thread::spawn(move || h.wait_apply(1, 7))
        };
        thread::sleep(std::time::Duration::from_millis(20));
        h.poison();
        assert!(!waiter.join().unwrap());
        // Poison also defeats already-satisfied waits, so a caller that
        // raced the poison cannot keep stepping on half-published state.
        h.publish_apply(0, 0);
        assert!(!h.wait_apply(0, 0));
        assert_eq!(h.wait_quiet(0), None);
        assert!(h.is_poisoned());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = StepHandoff::new(0);
    }
}
