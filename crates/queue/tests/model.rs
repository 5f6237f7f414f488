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
use parsim_queue::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use parsim_queue::sync::Arc;
use parsim_queue::sync::UnsafeCell;
use parsim_queue::{channel, ActivationState, IdBatch, SpinBarrier, WriteMark, BATCH_CAPACITY};

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

/// A node slot shared between a writing and a reading worker; plain
/// (non-atomic) data, exactly like the value arenas of the compiled
/// kernels. Safe to share only because the step barriers order every
/// write against every read — the model's clock-checked cell reports a
/// data race the instant any required edge is missing.
struct Slot(UnsafeCell<u64>);

// SAFETY: all accesses are funneled through the barrier protocol under
// test; the model checker verifies that claim on every schedule.
unsafe impl Sync for Slot {}
unsafe impl Send for Slot {}

/// One worker of the compiled kernels' step loop, reduced to its
/// synchronization: apply, barrier, evaluate, note, barrier, quiet. With a
/// `slot`, worker 0 overwrites it in the apply phase of every step it
/// executes and every other worker reads it while evaluating. `wrote(w, t)`
/// says whether `w`'s evaluation of step `t` queues a write; `stimuli` are
/// the steps a jump may not pass. The walk ends where it reaches `cut` —
/// a worker that gets there agreed with every other on every step before
/// it — and returns the steps it went through, or `None` once poisoned.
fn step_walk(
    barrier: &SpinBarrier,
    mark: &WriteMark,
    slot: Option<&Slot>,
    w: usize,
    wrote: fn(usize, u64) -> bool,
    stimuli: &[u64],
    cut: u64,
) -> Option<Vec<u64>> {
    let mut steps = Vec::new();
    let mut t = 0u64;
    while t < cut {
        steps.push(t);
        if let Some(slot) = slot.filter(|_| w == 0) {
            slot.0.with_mut(|p| unsafe { *p = t + 1 });
        }
        barrier.wait();
        if barrier.is_poisoned() {
            return None;
        }
        if let Some(slot) = slot.filter(|_| w != 0) {
            let v = slot.0.with(|p| unsafe { *p });
            assert_eq!(v, t + 1, "worker {w} step {t}: stale or overwritten slot");
        }
        if wrote(w, t) {
            mark.note(t);
        }
        barrier.wait();
        if barrier.is_poisoned() {
            return None;
        }
        let stimulus = stimuli.iter().copied().find(|&s| s > t).unwrap_or(cut);
        t = if stimulus > t + 1 && mark.quiet(t) { stimulus } else { t + 1 };
    }
    steps.push(t);
    Some(steps)
}

/// Runs `step_walk` on `workers` model threads under a preemption bound
/// and requires every one of them to go through exactly `expected`.
#[allow(clippy::too_many_arguments)]
fn check_step_walk(
    name: &str,
    preemptions: usize,
    workers: usize,
    with_slot: bool,
    wrote: fn(usize, u64) -> bool,
    stimuli: &'static [u64],
    cut: u64,
    expected: &'static [u64],
) {
    let outcome = Explorer::new().max_preemptions(preemptions).check(move || {
        let barrier = Arc::new(SpinBarrier::new(workers));
        let mark = Arc::new(WriteMark::new());
        let slot = Arc::new(Slot(UnsafeCell::new(0)));
        let peers: Vec<_> = (1..workers)
            .map(|w| {
                let (b, m, s) = (Arc::clone(&barrier), Arc::clone(&mark), Arc::clone(&slot));
                thread::spawn(move || {
                    step_walk(&b, &m, with_slot.then_some(&*s), w, wrote, stimuli, cut)
                })
            })
            .collect();
        let slot = with_slot.then_some(&*slot);
        let mine = step_walk(&barrier, &mark, slot, 0, wrote, stimuli, cut);
        assert_eq!(mine.as_deref(), Some(expected), "worker 0 decided differently");
        for (i, peer) in peers.into_iter().enumerate() {
            let theirs = peer.join();
            assert_eq!(theirs.as_deref(), Some(expected), "worker {} decided differently", i + 1);
        }
    });
    outcome.assert_pass(name);
}

/// Step 0 is quiet on every worker and the next stimulus is at step 3:
/// all must go from 0 straight to 3. A worker that read "not quiet" would
/// wait at step 1 for peers that never come, which the explorer reports as
/// a deadlock.
#[test]
fn write_mark_quiet_jump_agreed_two_workers() {
    check_step_walk("quiet jump, two workers", 2, 2, false, |_, _| false, &[3], 3, &[0, 3]);
}

/// The same jump over three workers. Three spinning parties are the widest
/// trees in this file, so the three-worker cases run without preemptions:
/// every order of voluntary switches and every read the memory model
/// allows.
#[test]
fn write_mark_quiet_jump_agreed_three_workers() {
    check_step_walk("quiet jump, three workers", 0, 3, false, |_, _| false, &[3], 3, &[0, 3]);
}

/// Exactly one worker (the last) queues a write at step 0, with the next
/// stimulus far away: the others must all read "not quiet" and continue
/// at step 1 with it.
#[test]
fn write_mark_lone_writer_holds_everyone_to_the_next_step() {
    let wrote = |w: usize, t: u64| w == 1 && t == 0;
    check_step_walk("lone writer, two workers", 2, 2, false, wrote, &[9], 1, &[0, 1]);
    let wrote = |w: usize, t: u64| w == 2 && t == 0;
    check_step_walk("lone writer, three workers", 0, 3, false, wrote, &[9], 1, &[0, 1]);
}

/// Worker 0 overwrites a plain slot in the apply phase of steps 0 and 3,
/// worker 1 reads it while evaluating them. The step-3 overwrite must not
/// race the step-0 read (the post-evaluate barrier of step 0, the one the
/// jump starts from) and the step-3 read must see it (the post-apply
/// barrier of step 3).
#[test]
fn barriers_order_a_plain_slot_across_a_quiet_jump() {
    check_step_walk("plain slot across a jump", 2, 2, true, |_, _| false, &[3], 4, &[0, 3, 4]);
}

/// The dirty-mask contract (`DirtyMask` in the compiled kernels): a feeding
/// slot's writer marks a block in the apply phase with a check-before-set
/// (a `Relaxed` load, then `fetch_or` only if the bit is clear), and the
/// block's owner takes the mark while evaluating with a `Relaxed` load and a
/// plain `Relaxed` store of the word minus the bit — no RMW. Only the
/// barriers order them: the post-apply one carries each mark to its take,
/// the post-evaluate one keeps the next step's mark from landing between
/// the take's load and its store (and being overwritten by it). The peer
/// marks two bits of one word — bit 0 every step, bit 1 on step 1 only —
/// so a take of one bit that clobbered the other would show.
#[test]
fn barrier_carries_a_relaxed_dirty_mark() {
    let outcome = Explorer::new().max_preemptions(2).check(|| {
        const STEPS: usize = 2;
        const ONCE: usize = 1;
        let barrier = Arc::new(SpinBarrier::new(2));
        let mask = Arc::new(AtomicU64::new(0));
        let (b2, m2) = (Arc::clone(&barrier), Arc::clone(&mask));
        // Apply, barrier, evaluate, barrier — minus the last step's second
        // barrier, which orders nothing here.
        let t = thread::spawn(move || {
            let mark = |bit: u64| {
                if m2.load(Ordering::Relaxed) & bit == 0 {
                    m2.fetch_or(bit, Ordering::Relaxed);
                }
            };
            for step in 0..STEPS {
                mark(1);
                if step == ONCE {
                    mark(2);
                }
                b2.wait();
                if step + 1 < STEPS {
                    b2.wait();
                }
            }
        });
        let take = |bit: u64| {
            let word = mask.load(Ordering::Relaxed);
            if word & bit == 0 {
                return false;
            }
            mask.store(word & !bit, Ordering::Relaxed);
            true
        };
        for step in 0..STEPS {
            barrier.wait();
            assert!(take(1), "step {step}: bit 0's mark lost across the barrier");
            assert_eq!(take(2), step == ONCE, "step {step}: bit 1 lost or stale");
            if step + 1 < STEPS {
                barrier.wait();
            }
        }
        t.join();
    });
    outcome.assert_pass("barrier carries relaxed dirty marks");
}

/// A worker that dies at either barrier of a step poisons it instead of
/// arriving: both peers, whether already waiting or still to come, must
/// leave the step loop. Three parties, so no preemptions (see above).
#[test]
fn poison_in_either_barrier_releases_every_waiter() {
    for dies_at in 0..2 {
        let outcome = Explorer::new().max_preemptions(0).check(move || {
            let barrier = Arc::new(SpinBarrier::new(3));
            let mark = Arc::new(WriteMark::new());
            let peers: Vec<_> = (1..3)
                .map(|w| {
                    let (b, m) = (Arc::clone(&barrier), Arc::clone(&mark));
                    thread::spawn(move || step_walk(&b, &m, None, w, |_, _| true, &[], 3))
                })
                .collect();
            if dies_at == 1 {
                barrier.wait();
            }
            barrier.poison();
            for (i, peer) in peers.into_iter().enumerate() {
                assert_eq!(peer.join(), None, "worker {} kept stepping", i + 1);
            }
        });
        outcome.assert_pass(&format!("poison at barrier {dies_at}"));
    }
}

// `model` is referenced by the chaos-gated test only; keep the import
// warning-free in default-feature builds.
#[cfg(not(feature = "chaos"))]
#[allow(unused_imports)]
use model as _;
