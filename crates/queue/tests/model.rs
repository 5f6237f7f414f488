//! Model checking of the real queue protocols under the vendored
//! interleaving explorer.
//!
//! Compiled only under `RUSTFLAGS="--cfg parsim_model"` (the CI
//! model-check job); the implementations under test are the exact
//! shipping ones — the facade in `parsim_queue::sync` swaps `std`'s
//! primitives for `parsim_model_check`'s, nothing else changes.
//!
//! Every test here passes *exhaustively* within its bounds: the explorer
//! reports completeness, and `assert_pass` fails on either a
//! counterexample or an exhausted execution budget. The bugs these
//! protocols used to contain (or would contain with one ordering
//! weakened) live in `parsim-model-check/tests/prefix_counterexamples.rs`
//! as pinned failing schedules.
#![cfg(parsim_model)]

use parsim_model_check::{Explorer, model, thread};
use parsim_queue::sync::atomic::{AtomicUsize, Ordering};
use parsim_queue::sync::Arc;
use parsim_queue::sync::UnsafeCell;
use parsim_queue::{channel, ActivationState, IdBatch, SpinBarrier, StepHandoff, BATCH_CAPACITY};

/// Under the model the SPSC segment size is 2, so three items cross a
/// segment boundary: the producer links a successor and the consumer
/// retires the exhausted segment mid-stream. No interleaving may tear,
/// drop, reorder, or duplicate an item.
#[test]
fn spsc_fifo_across_segment_retire() {
    let outcome = Explorer::new().max_preemptions(2).check(|| {
        let (mut tx, mut rx) = channel::<u64>();
        let t = thread::spawn(move || {
            for i in 0..3u64 {
                tx.send(i);
            }
        });
        let mut next = 0u64;
        while next < 3 {
            match rx.recv() {
                Some(v) => {
                    assert_eq!(v, next, "fifo violated");
                    next += 1;
                }
                None => thread::yield_now(),
            }
        }
        assert_eq!(rx.recv(), None);
        t.join();
    });
    outcome.assert_pass("spsc push/pop/segment-retire");
}

/// Token whose drop is observable through a shared counter, so the
/// end-of-life drain can be audited for exactly-once drops.
struct Token {
    hits: Arc<AtomicUsize>,
}

impl Drop for Token {
    fn drop(&mut self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}

/// Dropping a non-empty channel (three items spanning two segments, zero
/// or one consumed) must drop every unconsumed item exactly once, on
/// whichever thread releases the channel last — the drain's own `Acquire`
/// loads must order it after the producer's final publishes, with no help
/// from join edges.
#[test]
fn spsc_drop_while_nonempty_drains_exactly_once() {
    let outcome = Explorer::new().max_preemptions(2).check(|| {
        let hits = Arc::new(AtomicUsize::new(0));
        let (mut tx, mut rx) = channel::<Token>();
        let h = Arc::clone(&hits);
        let t = thread::spawn(move || {
            for _ in 0..3 {
                tx.send(Token {
                    hits: Arc::clone(&h),
                });
            }
            // tx drops here: the producer may or may not be the last
            // owner depending on the schedule.
        });
        // Consume at most one item, then abandon the queue while it may
        // still be non-empty (and possibly still being filled).
        let _ = rx.recv();
        drop(rx);
        t.join();
        assert_eq!(hits.load(Ordering::Relaxed), 3, "every token dropped exactly once");
    });
    outcome.assert_pass("spsc drop-while-nonempty");
}

/// An `IdBatch` travels as one 64-byte slot: all `BATCH_CAPACITY` ids must
/// be visible to the consumer the moment the slot is (the slot's release
/// publish covers the whole copy — a torn batch is a data race on the
/// slot cell).
#[test]
fn idbatch_slot_publishes_all_ids() {
    let outcome = Explorer::new().check(|| {
        let (mut tx, mut rx) = channel::<IdBatch>();
        let t = thread::spawn(move || {
            let mut b = IdBatch::new();
            for i in 0..BATCH_CAPACITY as u32 {
                assert!(b.push(i));
            }
            tx.send(b);
        });
        loop {
            if let Some(b) = rx.recv() {
                let expected: Vec<u32> = (0..BATCH_CAPACITY as u32).collect();
                assert_eq!(b.as_slice(), expected.as_slice(), "torn batch");
                break;
            }
            thread::yield_now();
        }
        t.join();
    });
    outcome.assert_pass("idbatch full-slot publication");
}

/// Two parties, two back-to-back phases: the barrier must elect exactly
/// one leader per phase, never deadlock (an unreleasable phase would
/// surface as a StepLimit/Deadlock counterexample), never double-release
/// (a double release would let a party run ahead and observe fewer than
/// `2 * (phase + 1)` pre-barrier increments), and must publish every
/// party's pre-barrier writes to every post-barrier reader.
#[test]
fn barrier_two_phases_one_leader_no_deadlock() {
    let outcome = Explorer::new().max_preemptions(2).check(|| {
        let barrier = Arc::new(SpinBarrier::new(2));
        let leaders = Arc::new(AtomicUsize::new(0));
        let work = Arc::new(AtomicUsize::new(0));
        let (b2, l2, w2) = (Arc::clone(&barrier), Arc::clone(&leaders), Arc::clone(&work));
        let body = move |barrier: &SpinBarrier, leaders: &AtomicUsize, work: &AtomicUsize| {
            for phase in 0..2usize {
                work.fetch_add(1, Ordering::Relaxed);
                if barrier.wait() {
                    leaders.fetch_add(1, Ordering::Relaxed);
                }
                let seen = work.load(Ordering::Relaxed);
                assert!(
                    seen >= 2 * (phase + 1),
                    "phase {phase} released early: saw {seen} increments"
                );
            }
        };
        let body2 = body;
        let t = thread::spawn(move || body2(&b2, &l2, &w2));
        body(&barrier, &leaders, &work);
        t.join();
        assert_eq!(
            leaders.load(Ordering::Relaxed),
            2,
            "exactly one leader per phase"
        );
    });
    outcome.assert_pass("barrier two-phase leader election");
}

/// Poisoning must release a waiter stuck in a phase that can never
/// complete — in every interleaving, including poison-before-arrival.
#[test]
fn barrier_poison_releases_model() {
    let outcome = Explorer::new().check(|| {
        let barrier = Arc::new(SpinBarrier::new(2));
        let b2 = Arc::clone(&barrier);
        let t = thread::spawn(move || b2.wait());
        barrier.poison();
        assert!(!t.join(), "poisoned wait must not elect a leader");
        assert!(!barrier.wait());
    });
    outcome.assert_pass("barrier poison release");
}

/// The activation machine's absorbed wakeup: an activator that loses the
/// `try_activate` race (its CAS absorbs into `Queued`/`RunningDirty`)
/// must still have its prior writes visible to whichever run the machine
/// guarantees follows. The deliberate same-value CAS in `try_activate` is
/// what makes this hold — remove it and this exploration finds a schedule
/// where the element runs with a stale view and goes idle with `payload`
/// unseen (the executor loop below then spins into a StepLimit
/// counterexample).
#[test]
fn activation_absorbed_wakeup_not_lost() {
    let outcome = Explorer::new().max_preemptions(2).check(|| {
        let st = Arc::new(ActivationState::new());
        let payload = Arc::new(AtomicUsize::new(0));
        let queued = Arc::new(AtomicUsize::new(0));

        // Seed: the element is already queued by the main thread.
        assert!(st.try_activate());

        let (s2, p2, q2) = (Arc::clone(&st), Arc::clone(&payload), Arc::clone(&queued));
        let t = thread::spawn(move || {
            // Publish work, then activate. Relaxed on purpose: the
            // activation machine itself must carry the edge.
            p2.store(1, Ordering::Relaxed);
            if s2.try_activate() {
                q2.store(1, Ordering::Release);
            }
        });

        // Executor: drains the pseudo-queue until the payload has been
        // observed by a run. If visibility were lost this loop would spin
        // forever (caught as a violation).
        let mut pending = 1usize;
        let mut seen = 0usize;
        while seen == 0 {
            if pending > 0 {
                pending -= 1;
                st.begin_run();
                seen = payload.load(Ordering::Relaxed);
                if st.finish_run() {
                    pending += 1;
                }
            } else if queued.swap(0, Ordering::Acquire) == 1 {
                pending += 1;
            } else {
                thread::yield_now();
            }
        }
        t.join();
    });
    outcome.assert_pass("activation absorbed-wakeup visibility");
}

/// With the `chaos` feature on, the seeded yield bursts inside
/// `send`/`recv` are real schedule points: the exploration exercises the
/// exact perturbation windows `cargo test --features chaos` does, and the
/// protocol still passes exhaustively.
#[cfg(feature = "chaos")]
#[test]
fn chaos_yields_are_schedule_points() {
    model(|| {
        let (mut tx, mut rx) = channel::<u64>();
        let t = thread::spawn(move || {
            tx.send(1);
            tx.send(2);
        });
        let mut next = 1u64;
        while next <= 2 {
            match rx.recv() {
                Some(v) => {
                    assert_eq!(v, next);
                    next += 1;
                }
                None => thread::yield_now(),
            }
        }
        t.join();
    });
}

/// A node slot shared between a producing and a consuming worker; plain
/// (non-atomic) data, exactly like the wide value arena in the compiled
/// batch kernel. Safe to share only because the handoff protocol orders
/// every write against every read — the model's clock-checked cell
/// reports a data race the instant any required edge is missing.
struct Slot(UnsafeCell<u64>);

// SAFETY: all accesses are funneled through the StepHandoff protocol
// under test; the model checker verifies that claim on every schedule.
unsafe impl Sync for Slot {}
unsafe impl Send for Slot {}

/// The full two-worker BSP step protocol over a shared slot, two steps:
/// worker 0 (producer) overwrites the slot in its apply phase, worker 1
/// (consumer) reads it in its eval phase. Three hazards are all in play
/// and must be closed by the handoff alone:
///
/// - RAW: the consumer's step-`t` read must see the producer's step-`t`
///   write (`wait_apply` edge),
/// - WAR: the producer's step-`t+1` overwrite must not race the
///   consumer's step-`t` read (`wait_eval` edge),
/// - plain-data race: the slot is a non-atomic cell, so *any* unordered
///   access pair is an immediate counterexample.
#[test]
fn handoff_bsp_step_protocol_no_races() {
    let outcome = Explorer::new().max_preemptions(2).check(|| {
        const STEPS: u64 = 2;
        let h = Arc::new(StepHandoff::new(2));
        let slot = Arc::new(Slot(UnsafeCell::new(0)));
        let (h2, s2) = (Arc::clone(&h), Arc::clone(&slot));
        // Worker 0: producer.
        let t = thread::spawn(move || {
            for t in 0..STEPS {
                if t > 0 && !h2.wait_eval(1, t - 1) {
                    return;
                }
                s2.0.with_mut(|p| unsafe { *p = t + 1 });
                h2.publish_apply(0, t);
                // Reads nothing; its eval phase is empty.
                h2.publish_eval(0, t);
            }
        });
        // Worker 1: consumer (owns no slots, so its apply is empty).
        for t in 0..STEPS {
            h.publish_apply(1, t);
            if !h.wait_apply(0, t) {
                return;
            }
            let v = slot.0.with(|p| unsafe { *p });
            assert_eq!(v, t + 1, "step {t}: stale or torn slot value");
            h.publish_eval(1, t);
        }
        t.join();
    });
    outcome.assert_pass("handoff BSP step protocol");
}

/// The dirty-mask contract under neighbor sync: activity marks are
/// `Relaxed` stores made during a producer's apply phase, and consumers
/// `take` them with `Relaxed` loads during eval. That is only sound if
/// the `publish_apply`/`wait_apply` Release/Acquire pair carries the
/// marks — this exploration deletes every other ordering source on
/// purpose.
#[test]
fn handoff_apply_edge_carries_relaxed_marks() {
    let outcome = Explorer::new().max_preemptions(2).check(|| {
        let h = Arc::new(StepHandoff::new(2));
        let mark = Arc::new(AtomicUsize::new(0));
        let (h2, m2) = (Arc::clone(&h), Arc::clone(&mark));
        let t = thread::spawn(move || {
            // Relaxed on purpose: the handoff must carry the edge.
            m2.store(1, Ordering::Relaxed);
            h2.publish_apply(0, 0);
        });
        if h.wait_apply(0, 0) {
            assert_eq!(
                mark.load(Ordering::Relaxed),
                1,
                "dirty mark lost across the apply handoff"
            );
        }
        t.join();
    });
    outcome.assert_pass("handoff carries relaxed dirty marks");
}

/// Poisoning must release a waiter stuck on a phase that will never be
/// published — in every interleaving, including poison-before-wait.
#[test]
fn handoff_poison_releases_model() {
    let outcome = Explorer::new().check(|| {
        let h = Arc::new(StepHandoff::new(2));
        let h2 = Arc::clone(&h);
        // Worker 1 never publishes anything; only poison can end this.
        let t = thread::spawn(move || h2.wait_apply(1, 3));
        h.poison();
        assert!(!t.join(), "poisoned wait must report failure");
        assert!(!h.wait_eval(0, 0));
    });
    outcome.assert_pass("handoff poison release");
}

/// One worker of the kernel's neighbor-mode step loop with quiet-step
/// jumps, reduced to its synchronization. Worker 0 overwrites `slot` in
/// the apply phase of every step it executes and every other worker reads
/// it while evaluating, when `edges` is set; without `edges` no worker
/// ever waits for another except to agree on a quiet step, so one can run
/// arbitrarily far ahead. `wrote(w, t)` says whether `w`'s evaluation of
/// step `t` queues a write; `stimuli` are the steps a jump may not pass.
/// Returns the steps executed, or `None` once poisoned.
fn quiet_walk(
    h: &StepHandoff,
    slot: &Slot,
    w: usize,
    edges: bool,
    wrote: fn(usize, u64) -> bool,
    stimuli: &[u64],
    cut: u64,
) -> Option<Vec<u64>> {
    let mut executed = Vec::new();
    let mut prev: Option<u64> = None;
    let mut t = 0u64;
    while t <= cut {
        executed.push(t);
        if edges && w == 0 {
            // The consumers' reads at the step executed before this one
            // (not `t - 1`, which a jump may have passed) must retire.
            if let Some(s) = prev {
                for c in 1..h.workers() {
                    if !h.wait_eval(c, s) {
                        return None;
                    }
                }
            }
            slot.0.with_mut(|p| unsafe { *p = t + 1 });
        }
        if edges {
            h.publish_apply(w, t);
            if w != 0 {
                if !h.wait_apply(0, t) {
                    return None;
                }
                let v = slot.0.with(|p| unsafe { *p });
                assert_eq!(v, t + 1, "worker {w} step {t}: stale or overwritten slot");
            }
        }
        let wrote_here = wrote(w, t);
        if wrote_here {
            h.note_write(t);
        }
        if t == cut {
            // Nobody waits on the last step's eval; leaving the publish
            // out keeps the exploration small.
            break;
        }
        h.publish_eval(w, t);
        let next_stimulus = stimuli.iter().copied().find(|&s| s > t).unwrap_or(cut + 1);
        // Asking is pointless when the answer cannot change the next step.
        let quiet = !wrote_here && next_stimulus > t + 1 && h.wait_quiet(t)?;
        prev = Some(t);
        t = if quiet { next_stimulus } else { t + 1 };
    }
    Some(executed)
}

/// Runs `quiet_walk` on `workers` model threads under a preemption bound
/// and requires every one of them to execute exactly `expected`.
#[allow(clippy::too_many_arguments)]
fn check_quiet_walk(
    name: &str,
    preemptions: usize,
    workers: usize,
    edges: bool,
    wrote: fn(usize, u64) -> bool,
    stimuli: &'static [u64],
    cut: u64,
    expected: &'static [u64],
) {
    let outcome = Explorer::new().max_preemptions(preemptions).check(move || {
        let h = Arc::new(StepHandoff::new(workers));
        let slot = Arc::new(Slot(UnsafeCell::new(0)));
        let peers: Vec<_> = (1..workers)
            .map(|w| {
                let (h, slot) = (Arc::clone(&h), Arc::clone(&slot));
                thread::spawn(move || quiet_walk(&h, &slot, w, edges, wrote, stimuli, cut))
            })
            .collect();
        let mine = quiet_walk(&h, &slot, 0, edges, wrote, stimuli, cut);
        assert_eq!(mine.as_deref(), Some(expected), "worker 0 decided differently");
        for (i, peer) in peers.into_iter().enumerate() {
            let theirs = peer.join();
            assert_eq!(theirs.as_deref(), Some(expected), "worker {} decided differently", i + 1);
        }
    });
    outcome.assert_pass(name);
}

/// Step 0 is quiet on both workers and the next stimulus is at step 3:
/// both must execute 0 then 3, worker 0 overwriting its slot at step 3
/// once worker 1's read *at step 0* — the previous executed step, not a
/// step 2 that never ran and would deadlock the wait — has retired.
#[test]
fn handoff_quiet_jump_agreed_two_workers() {
    check_quiet_walk("handoff quiet jump, two workers", 2, 2, true, |_, _| false, &[3], 3, &[0, 3]);
}

/// The same jump over three workers. Three workers each spinning on three
/// counters is the widest tree in this file, so it runs without the slot
/// and without preemptions: every order of voluntary switches and every
/// read the memory model allows, about 35 000 executions.
#[test]
fn handoff_quiet_jump_agreed_three_workers() {
    check_quiet_walk("handoff quiet jump, three workers", 0, 3, false, |_, _| false, &[3], 3, &[0, 3]);
}

/// Exactly one worker (the last) queues a write at step 0, with the next
/// stimulus far away: the others ask, must all be told "not quiet", and
/// continue at step 1 with it.
#[test]
fn handoff_one_busy_worker_holds_everyone_to_the_next_step() {
    let wrote = |w: usize, t: u64| w == 1 && t == 0;
    check_quiet_walk("handoff lone writer, two workers", 2, 2, false, wrote, &[9], 1, &[0, 1]);
    let wrote = |w: usize, t: u64| w == 2 && t == 0;
    check_quiet_walk("handoff lone writer, three workers", 1, 3, false, wrote, &[9], 1, &[0, 1]);
}

/// No edges, so a worker that need not ask runs ahead freely. Step 0 is
/// quiet with the next stimulus at 2, where worker 1 queues a write.
/// While worker 0 is still deciding step 0, `last_write` may already name
/// step 2 — later than the step asked about, which is exactly what a
/// *non*-quiet step 0 followed by a busy step 1 would look like. Only
/// `last_quiet` tells them apart; worker 0 must still jump 0 → 2.
#[test]
fn handoff_quiet_decision_survives_a_worker_running_ahead() {
    let wrote = |w: usize, t: u64| w == 1 && t == 2;
    check_quiet_walk("handoff run-ahead past a quiet step", 2, 2, false, wrote, &[2], 2, &[0, 2]);
}

/// The mirror image: worker 1 queues writes at steps 0 and 1 without ever
/// asking, so `last_write` can again be ahead of the step worker 0 asks
/// about — and this time that step was *not* quiet. Nobody may jump.
#[test]
fn handoff_busy_steps_are_not_mistaken_for_a_jump() {
    let wrote = |w: usize, _| w == 1;
    check_quiet_walk("handoff run-ahead past busy steps", 2, 2, false, wrote, &[9], 1, &[0, 1]);
}

/// Poison must release a worker parked in the all-workers wait of
/// `wait_quiet` — worker 1 never publishes its eval — in every
/// interleaving, including poison-before-wait.
#[test]
fn handoff_poison_releases_the_all_workers_wait() {
    let outcome = Explorer::new().check(|| {
        let h = Arc::new(StepHandoff::new(2));
        let h2 = Arc::clone(&h);
        let t = thread::spawn(move || {
            h2.publish_eval(0, 0);
            h2.wait_quiet(0)
        });
        h.poison();
        assert_eq!(t.join(), None, "poisoned wait_quiet must report failure");
        assert_eq!(h.wait_quiet(0), None);
    });
    outcome.assert_pass("handoff poison releases wait_quiet");
}

// `model` is referenced by the chaos-gated test only; keep the import
// warning-free in default-feature builds.
#[cfg(not(feature = "chaos"))]
#[allow(unused_imports)]
use model as _;
