//! Model checking of the chaotic engine's per-node behavior-list
//! protocols (`parsim_core::behavior`) under the vendored interleaving
//! explorer. Compiled only under `RUSTFLAGS="--cfg parsim_model"`.
//!
//! Four protocols from the chaotic engine's lock-freedom inventory are
//! checked here (the scheduling-side protocols live in
//! `crates/queue/tests/model.rs`):
//!
//! 1. publication: slot write → `len` release store vs. `len` acquire
//!    load → slot read, across a chunk-link boundary (model `CHUNK` = 2);
//! 2. garbage collection: a chunk is reclaimed only when every consumer
//!    has consumed strictly past it — under the model, `gc` tombstones
//!    reclaimed chunks, so any schedule in which a consumer can still
//!    reach one is reported as a data race on the tombstone write — by
//!    the writer after its pushes or by a reader whose published cursor
//!    has just crossed a chunk boundary; with the writer and two readers
//!    reclaiming one node at once, the per-node try-flag must keep any
//!    chunk from being quarantined twice;
//! 3. the `valid_until` writer-exclusive read-modify-write (`Relaxed`
//!    load + `Release` store), whose safety rests entirely on the
//!    activation machine's AcqRel handoff chain — the justification for
//!    the two `Relaxed` loads in `chaotic.rs` (`known_through` and
//!    `out_valid` extension sites);
//! 4. the lookahead rules' quiet-window scan ([`Cursor::scan_quiet`]):
//!    `valid_until` must be loaded *before* the list is read, because
//!    the writer pushes an event at `te` before it stores a `valid_until`
//!    that can equal `te`. The peek-first order the engine used to have is
//!    kept here as a shape the explorer must keep rejecting, and the
//!    edge-aware scan must stop before a moving event that follows
//!    non-moving ones across a chunk link.
#![cfg(parsim_model)]

use parsim_core::behavior::{crosses_chunk, ChunkAlloc, Cursor, Lists, NodeState, CHUNK};
use parsim_logic::{Edge, Value};
use parsim_model_check::{thread, CexKind, Explorer};
use parsim_queue::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use parsim_queue::sync::Arc;
use parsim_queue::ActivationState;

/// The writer appends events across a chunk boundary while the consumer
/// replays them concurrently: every event must arrive intact, in order,
/// and the cursor's `value` tracking must follow. An unpublished slot
/// read would be a data race on the slot cell.
#[test]
fn behavior_publish_consume_across_chunks() {
    assert_eq!(CHUNK, 2, "model builds shrink the chunk size");
    let outcome = Explorer::new().max_preemptions(2).check(|| {
        let mut alloc = ChunkAlloc::default();
        let lists = Arc::new(Lists::new([1], &mut alloc));
        let l2 = Arc::clone(&lists);
        let writer = thread::spawn(move || {
            let mut a = ChunkAlloc::default();
            for t in 0..3u64 {
                // SAFETY: this thread is the node's only writer.
                unsafe { l2[0].push(t, Value::bit(t % 2 == 1), &mut a) };
            }
        });
        let node = &lists[0];
        let mut cursor = Cursor::new(node, Value::x(1));
        let mut next = 0u64;
        while next < 3 {
            // SAFETY: this thread is the element's only runner.
            match unsafe { cursor.peek(node) } {
                Some((t, v)) => {
                    assert_eq!(t, next, "events replay in append order");
                    assert_eq!(v, Value::bit(t % 2 == 1), "torn event");
                    unsafe { cursor.consume(node) };
                    assert_eq!(cursor.value, v);
                    next += 1;
                }
                None => thread::yield_now(),
            }
        }
        assert!(unsafe { cursor.peek(node) }.is_none());
        writer.join();
    });
    outcome.assert_pass("behavior-list publication across chunks");
}

/// The writer garbage-collects after every append while the consumer is
/// still replaying: no schedule may reclaim a chunk the consumer's
/// cursor can still reach. The consumer publishes its progress with a
/// release store ([`Lists::publish`]) after each consume — exactly the
/// engine's cursor-publication step — and the strict `>` in `gc`'s
/// reachability check is what keeps the in-progress chunk alive.
#[test]
fn behavior_gc_never_reclaims_reachable_chunk() {
    let outcome = Explorer::new().max_preemptions(2).check(|| {
        let mut alloc = ChunkAlloc::default();
        let lists = Arc::new(Lists::new([1], &mut alloc));
        let l2 = Arc::clone(&lists);
        let writer = thread::spawn(move || {
            let mut a = ChunkAlloc::default();
            let mut freed = 0u64;
            for t in 0..4u64 {
                // SAFETY: this thread is the node's only writer; the one
                // consumer publishes only positions it has reached.
                unsafe {
                    l2[0].push(t, Value::bit(t % 2 == 1), &mut a);
                    freed += l2.gc(0, &mut a);
                }
            }
            freed
        });
        let node = &lists[0];
        let mut cursor = Cursor::new(node, Value::x(1));
        let mut next = 0u64;
        while next < 4 {
            // SAFETY: this thread is the element's only runner.
            match unsafe { cursor.peek(node) } {
                Some((t, v)) => {
                    assert_eq!(t, next);
                    assert_eq!(v, Value::bit(t % 2 == 1), "read a reclaimed slot");
                    unsafe { cursor.consume(node) };
                    lists.publish(0, 0, cursor.global);
                    next += 1;
                }
                None => thread::yield_now(),
            }
        }
        let freed_concurrent = writer.join();
        // After the consumer has consumed everything (4 events = 2 full
        // chunks) a final writer-side gc must reclaim at least the first
        // chunk; `consumed` must exceed base + CHUNK strictly, which 4 > 3
        // satisfies for the chunk based at 0... only once the cursor is
        // past it. SAFETY: the writer thread has exited; exclusivity
        // transfers through the join edge.
        let freed_final = unsafe { lists.gc(0, &mut ChunkAlloc::default()) };
        assert!(
            freed_concurrent + freed_final >= 1,
            "fully consumed chunks must eventually be reclaimed"
        );
    });
    outcome.assert_pass("behavior-list GC reachability");
}

/// One element run of a reader, as `run_element` does it: replay what is
/// published, publish the cursor, and reclaim if the cursor has just
/// passed a chunk's last slot. Returns the chunks it reclaimed.
fn reader_run(lists: &Lists, k: usize, cursor: &mut Cursor, alloc: &mut ChunkAlloc) -> u64 {
    let node = &lists[0];
    // SAFETY: the caller is the element's only runner, and it publishes
    // only what its cursor has consumed.
    unsafe {
        while let Some((t, v)) = cursor.peek(node) {
            assert_eq!(t, cursor.global, "read a reclaimed slot");
            assert_eq!(v, Value::bit(t % 2 == 1), "read a reclaimed slot");
            cursor.consume(node);
        }
        let prev = lists.publish(0, k, cursor.global);
        if crosses_chunk(prev, cursor.global) {
            lists.gc(0, alloc)
        } else {
            0
        }
    }
}

/// The last reader to leave a chunk frees it. The writer pushes five
/// events across three model chunks and then reclaims, as the engine's
/// writer does at the end of its run, while two readers each run
/// once, concurrently, replaying whatever is published: three reclaimers
/// of one node. A reader that could still reach a reclaimed chunk races
/// the tombstone writes (or reads a tombstone and fails its assertion),
/// and a chunk quarantined twice fails `reclaim`'s assertion. After the
/// joins each reader runs once more, to the end of the list, and one more
/// `gc` covers a loser of the try-flag: every chunk but the tail has then
/// been reclaimed, each exactly once.
#[test]
fn behavior_readers_and_writer_reclaim_concurrently() {
    const EVENTS: u64 = 5;
    assert_eq!(CHUNK, 2, "model builds shrink the chunk size");
    let outcome = Explorer::new().max_preemptions(2).check(|| {
        let mut alloc = ChunkAlloc::default();
        let lists = Arc::new(Lists::new([2], &mut alloc));
        let l2 = Arc::clone(&lists);
        let writer = thread::spawn(move || {
            let mut a = ChunkAlloc::default();
            // SAFETY: this thread is the node's only writer; each reader
            // publishes only positions it has reached.
            unsafe {
                for t in 0..EVENTS {
                    l2[0].push(t, Value::bit(t % 2 == 1), &mut a);
                }
                l2.gc(0, &mut a)
            }
        });
        let l3 = Arc::clone(&lists);
        let other = thread::spawn(move || {
            let mut cursor = Cursor::new(&l3[0], Value::x(1));
            let freed = reader_run(&l3, 1, &mut cursor, &mut ChunkAlloc::default());
            (cursor, freed)
        });
        let mut alloc = ChunkAlloc::default();
        let mut cursor = Cursor::new(&lists[0], Value::x(1));
        let mut freed = reader_run(&lists, 0, &mut cursor, &mut alloc);
        let (mut other_cursor, other_freed) = other.join();
        freed += writer.join() + other_freed;
        freed += reader_run(&lists, 0, &mut cursor, &mut alloc);
        freed += reader_run(&lists, 1, &mut other_cursor, &mut alloc);
        assert_eq!(cursor.global, EVENTS);
        // SAFETY: every thread has joined; the cursors are final.
        freed += unsafe { lists.gc(0, &mut alloc) };
        let chunks = EVENTS.div_ceil(CHUNK as u64);
        assert_eq!(freed, chunks - 1, "every chunk but the tail, each once");
    });
    outcome.assert_pass("behavior-list reclamation by readers and the writer");
}

/// The `valid_until` read-modify-write as the chaotic engine performs it:
/// a `Relaxed` load followed by a `Release` store, with no RMW atomicity.
/// This is only correct because the store is writer-exclusive and
/// successive writers are ordered by the activation machine's AcqRel
/// chain. Two threads race to activate the same element and whoever runs
/// performs the split increment; a stale `Relaxed` read in any schedule
/// would make two runs write the same value and the final count come up
/// short.
#[test]
fn valid_until_relaxed_rmw_is_exclusive() {
    let outcome = Explorer::new().max_preemptions(3).check(|| {
        let st = Arc::new(ActivationState::new());
        let vu = Arc::new(AtomicU64::new(0));
        let runs = Arc::new(AtomicUsize::new(0));

        let driver = |st: &ActivationState, vu: &AtomicU64, runs: &AtomicUsize| {
            if st.try_activate() {
                loop {
                    st.begin_run();
                    // The chaotic.rs pattern (known_through / out_valid
                    // extension): Relaxed load, monotone Release store.
                    let v = vu.load(Ordering::Relaxed);
                    vu.store(v + 1, Ordering::Release);
                    runs.fetch_add(1, Ordering::Relaxed);
                    if !st.finish_run() {
                        break;
                    }
                }
            }
        };

        let (s2, v2, r2) = (Arc::clone(&st), Arc::clone(&vu), Arc::clone(&runs));
        let t = thread::spawn(move || driver(&s2, &v2, &r2));
        driver(&st, &vu, &runs);
        t.join();

        // An activation absorbed into a *running* element forces a rerun
        // (2 runs); one absorbed into a merely *queued* element coalesces
        // into the single pending run (1 run). Both are correct — what
        // must never happen is a run observing a stale `valid_until` and
        // collapsing an increment, so the count tracks runs exactly.
        let r = runs.load(Ordering::Relaxed);
        assert!((1..=2).contains(&r), "every activation leads to a run");
        assert_eq!(
            vu.load(Ordering::Relaxed),
            r as u64,
            "a run observed a stale valid_until despite the handoff chain"
        );
    });
    outcome.assert_pass("valid_until writer-exclusive relaxed RMW");
}

/// A lookahead consumer racing the node's writer at the one point where
/// the two orders differ: the writer appends an event at `TE` and then
/// publishes `valid_until = TE` (a transition whose delay is the
/// element's minimum delay does exactly this). The consumer reads how
/// long the node stays quiet and would extend its own outputs that far
/// without evaluating; whatever it read, no event it has not consumed may
/// lie inside that window.
fn quiet_window_shape(read: unsafe fn(&mut Cursor, &NodeState) -> u64) {
    const TE: u64 = 5;
    let mut alloc = ChunkAlloc::default();
    let lists = Arc::new(Lists::new([1], &mut alloc));
    let l2 = Arc::clone(&lists);
    let writer = thread::spawn(move || {
        let mut a = ChunkAlloc::default();
        // SAFETY: this thread is the node's only writer.
        unsafe { l2[0].push(TE, Value::bit(true), &mut a) };
        l2[0].valid_until.store(TE, Ordering::Release);
    });
    let node = &lists[0];
    let mut cursor = Cursor::new(node, Value::x(1));
    // SAFETY: this thread is the element's only runner.
    let quiet = unsafe { read(&mut cursor, node) };
    writer.join();
    let next = unsafe { cursor.peek(node) }.expect("the writer has appended");
    assert!(
        next.0 > quiet,
        "adopted a quiet window through {quiet} that covers the unconsumed event at {}",
        next.0
    );
}

/// The controlling-value rule's read: every event moves.
unsafe fn every_event_moves(cursor: &mut Cursor, node: &NodeState) -> u64 {
    cursor.scan_quiet(node, Edge::Any)
}

/// The order `run_element` had before the quiet-window read existed:
/// peek, and only on an empty list fall back to `valid_until`.
unsafe fn peek_then_valid(cursor: &mut Cursor, node: &NodeState) -> u64 {
    match cursor.peek(node) {
        Some((t, _)) => t.saturating_sub(1),
        None => node.valid_until.load(Ordering::Acquire),
    }
}

#[test]
fn quiet_window_loads_valid_until_before_peeking() {
    Explorer::new()
        .max_preemptions(3)
        .check(|| quiet_window_shape(every_event_moves))
        .assert_pass("lookahead quiet-window read");
}

/// A register's clock scan racing the clock's writer: two non-moving
/// events (X→1, 1→0), then a rising edge, the third event crossing into
/// a second chunk at `CHUNK = 2`, and validity stored last. Whatever
/// prefix of the list and the validity the scan sees, its window must end
/// before the rising edge.
#[test]
fn edge_scan_stops_before_a_moving_event_across_a_chunk() {
    assert_eq!(CHUNK, 2, "model builds shrink the chunk size");
    const EVENTS: [(u64, bool); 3] = [(3, true), (5, false), (7, true)];
    Explorer::new()
        .max_preemptions(3)
        .check(|| {
            let mut alloc = ChunkAlloc::default();
            let lists = Arc::new(Lists::new([1], &mut alloc));
            let l2 = Arc::clone(&lists);
            let writer = thread::spawn(move || {
                let mut a = ChunkAlloc::default();
                for (t, v) in EVENTS {
                    // SAFETY: this thread is the node's only writer.
                    unsafe { l2[0].push(t, Value::bit(v), &mut a) };
                }
                l2[0].valid_until.store(7, Ordering::Release);
            });
            let node = &lists[0];
            let cursor = Cursor::new(node, Value::x(1));
            // SAFETY: this thread is the element's only runner.
            let quiet = unsafe { cursor.scan_quiet(node, Edge::Rising) };
            writer.join();
            assert!(quiet < 7, "window through {quiet} covers the rising edge at 7");
            // Once validity is out, the whole list is visible: the window
            // is exactly the tick before the edge.
            let settled = unsafe { cursor.scan_quiet(node, Edge::Rising) };
            assert_eq!(settled, 6, "a settled list scans to the tick before the edge");
        })
        .assert_pass("edge-aware quiet-window scan");
}

#[test]
fn quiet_window_peek_first_misses_the_covered_event() {
    let outcome = Explorer::new().max_preemptions(3).check(|| quiet_window_shape(peek_then_valid));
    let cex = outcome
        .counterexample
        .expect("peek-then-valid must adopt a window over an unseen event");
    assert_eq!(cex.kind, CexKind::Panic, "expected the window assertion: {cex}");
    assert!(cex.message.contains("covers the unconsumed event"), "{cex}");
}
