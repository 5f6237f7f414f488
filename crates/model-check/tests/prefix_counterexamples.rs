//! Committed counterexamples: the pre-fix shapes of protocols that were
//! hardened in the queue crate, kept as failing-schedule regression
//! tests.
//!
//! Each pair below replicates, with the model's own primitives, the exact
//! ordering shape a shipped protocol had before its fix, and the shape it
//! has after:
//!
//! - **Drop-drain** (`spsc::Channel::drop`): the drain used `Relaxed`
//!   loads and leaned on `Arc::drop`'s internal acquire fence to order
//!   the drain after the producer's last publish.
//!   Stated as its own protocol — publish with release, drain with a
//!   relaxed read — the explorer finds a schedule where the drain
//!   observes the published flag yet races with the slot write. The fix
//!   upgrades the drain loads to `Acquire`.
//! - **Barrier arrival** (`barrier::SpinBarrier` before the epoch
//!   rewrite): the boolean sense-reversing shape derived each phase's
//!   sense from a pre-arrival `Relaxed` re-read of the shared sense flag.
//!   That read contributes no ordering; the whole protocol is carried by
//!   the `AcqRel` arrival RMW on `remaining`. Weaken that single RMW to
//!   `Relaxed` and the leader releases a phase without having acquired
//!   its peers' pre-barrier writes. The rewrite derives each waiter's
//!   phase from an `Acquire` load of a monotone epoch, so the value the
//!   waiter spins on is itself the synchronizing location.
//!
//! Every discovered schedule is pinned and replayed, so these stay
//! red-green: the broken shape must keep failing on its recorded
//! schedule, and the fixed shape must pass the same exhaustive
//! exploration.

use parsim_model_check::cell::UnsafeCell;
use parsim_model_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use parsim_model_check::sync::Arc;
use parsim_model_check::{thread, CexKind, Explorer};

// ---------------------------------------------------------------------------
// Drop-drain: publish with release, drain with a configurable load.
// ---------------------------------------------------------------------------

/// The end-of-life drain of a single-slot channel: the producer writes
/// the slot and publishes it; the dropping endpoint drains whatever the
/// publication counter admits. `load` is the ordering the drain uses —
/// the pre-fix code used `Relaxed`.
fn drain_shape(load: Ordering) {
    let slot = Arc::new(UnsafeCell::new(0u64));
    let published = Arc::new(AtomicU64::new(0));
    let (s2, p2) = (Arc::clone(&slot), Arc::clone(&published));
    let producer = thread::spawn(move || {
        s2.with_mut(|p| unsafe { *p = 42 });
        p2.store(1, Ordering::Release);
    });
    // Drop-while-nonempty: no join, no Arc teardown fence — the drain's
    // own load is the only candidate ordering.
    if published.load(load) == 1 {
        let v = slot.with(|p| unsafe { *p });
        assert_eq!(v, 42, "drained a slot the publish did not cover");
    }
    producer.join();
}

/// Schedule on which the pre-fix drain was first caught racing. Pinned so
/// the regression reproduces deterministically, independent of search
/// order.
const DRAIN_RELAXED_SCHEDULE: &str = "t0 t0 t0 t0 t1 t1 t1 t0 r1";

#[test]
fn prefix_drop_drain_relaxed_races() {
    let outcome = Explorer::new().check(|| drain_shape(Ordering::Relaxed));
    let cex = outcome
        .counterexample
        .as_ref()
        .expect("relaxed drop-drain must race with the slot write");
    assert_eq!(cex.kind, CexKind::DataRace, "expected a slot race: {cex}");

    let replayed = Explorer::new().replay(DRAIN_RELAXED_SCHEDULE, || {
        drain_shape(Ordering::Relaxed)
    });
    let rcex = replayed
        .counterexample
        .expect("pinned schedule must reproduce the drain race");
    assert_eq!(rcex.kind, CexKind::DataRace);
}

#[test]
fn fixed_drop_drain_acquire_passes() {
    Explorer::new()
        .check(|| drain_shape(Ordering::Acquire))
        .assert_pass("acquire drop-drain");
}

// ---------------------------------------------------------------------------
// Barrier: the boolean sense-reversing shape, arrival RMW configurable.
// ---------------------------------------------------------------------------

/// The barrier as shipped before the epoch rewrite: per-phase sense
/// derived by negating a `Relaxed` re-read of the shared sense flag.
struct SenseBarrier {
    remaining: AtomicUsize,
    sense: AtomicBool,
}

impl SenseBarrier {
    fn new() -> SenseBarrier {
        SenseBarrier {
            remaining: AtomicUsize::new(2),
            sense: AtomicBool::new(false),
        }
    }

    fn wait(&self, arrival: Ordering) -> bool {
        let my_sense = !self.sense.load(Ordering::Relaxed);
        if self.remaining.fetch_sub(1, arrival) == 1 {
            self.remaining.store(2, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
            true
        } else {
            while self.sense.load(Ordering::Acquire) != my_sense {
                thread::yield_now();
            }
            false
        }
    }
}

/// Two parties, `phases` rounds; every party increments `work` before
/// each wait and must observe both increments after it. With a `Relaxed`
/// arrival the *leader* is the vulnerable party: it observes the peer's
/// arrival through the `remaining` counter yet has acquired nothing, so
/// the leak already manifests in phase 0 (one phase keeps the broken
/// shape's exploration tractable; the fixed shape runs two to cover the
/// sense reversal).
fn sense_barrier_shape(arrival: Ordering, phases: usize) {
    let barrier = Arc::new(SenseBarrier::new());
    let work = Arc::new(AtomicUsize::new(0));
    let (b2, w2) = (Arc::clone(&barrier), Arc::clone(&work));
    let body = move |b: &SenseBarrier, w: &AtomicUsize| {
        for phase in 0..phases {
            w.fetch_add(1, Ordering::Relaxed);
            b.wait(arrival);
            let seen = w.load(Ordering::Relaxed);
            assert!(
                seen >= 2 * (phase + 1),
                "phase {phase} released with only {seen} increments visible"
            );
        }
    };
    let body2 = body;
    let t = thread::spawn(move || body2(&b2, &w2));
    body(&barrier, &work);
    t.join();
}

/// Schedule on which the relaxed-arrival barrier was first caught
/// releasing a phase without the peer's pre-barrier write.
const BARRIER_RELAXED_SCHEDULE: &str = "t0 t0 t0 t1 t1 t0 t1 t1 t1 t1 t0 t1 t1 t1 r0";

#[test]
fn prefix_barrier_relaxed_arrival_leaks_phase() {
    let outcome = Explorer::new()
        .max_preemptions(2)
        .check(|| sense_barrier_shape(Ordering::Relaxed, 1));
    let cex = outcome
        .counterexample
        .as_ref()
        .expect("relaxed arrival must leak a pre-barrier write");
    assert_eq!(cex.kind, CexKind::Panic, "expected stale work count: {cex}");

    let replayed = Explorer::new().replay(BARRIER_RELAXED_SCHEDULE, || {
        sense_barrier_shape(Ordering::Relaxed, 1)
    });
    let rcex = replayed
        .counterexample
        .expect("pinned schedule must reproduce the leak");
    assert_eq!(rcex.kind, CexKind::Panic);
    assert!(
        rcex.message.contains("increments visible"),
        "pinned schedule reproduced the wrong failure: {rcex}"
    );
}

/// With the `AcqRel` arrival restored, the boolean-sense shape passes —
/// which is precisely the point: its correctness lived entirely in the
/// `remaining` RMW, not in the sense protocol the code was written
/// around. The shipped barrier now makes the synchronizing location
/// explicit (the epoch the waiter spins on); `crates/queue/tests/model.rs`
/// checks that implementation itself.
#[test]
fn fixed_barrier_acqrel_arrival_passes() {
    Explorer::new()
        .check(|| sense_barrier_shape(Ordering::AcqRel, 2))
        .assert_pass("acqrel sense barrier");
}
