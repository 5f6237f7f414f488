//! Per-node behavior lists: the chaotic engine's append-only event store.
//!
//! §4 of the paper keeps, per node, "the entire history of events" so
//! that an element can replay as much of its input behavior as the
//! inputs' valid times allow. This module is that store, extracted from
//! the engine so it can be model-checked in isolation:
//!
//! - [`Chunk`]: a fixed-size block of `(time, value)` events, linked
//!   forward through an atomic `next` pointer;
//! - [`NodeState`]: one node's chunked list plus its publication counter
//!   (`len`), its validity horizon (`valid_until`), and one consumption
//!   cursor per fan-out entry (the GC protocol);
//! - [`Cursor`]: a consumer's position in one list.
//!
//! # Protocol
//!
//! Exactly one thread at a time is the node's *writer* — the element run
//! that drives the node, made exclusive by the
//! [`ActivationState`](parsim_queue::ActivationState) machine. The writer
//! appends with [`NodeState::push`] (slot write, then `len` release
//! store) and reclaims with [`NodeState::gc`]. Any fan-out consumer reads
//! through a [`Cursor`]: `len` acquire load, then slot read; it publishes
//! how far it has consumed via a release store into
//! [`NodeState::consumed`], and `gc` reclaims a chunk only when *every*
//! consumer's cursor is strictly past the chunk's last slot — which
//! implies each consumer's chunk pointer has already followed `next`
//! beyond it.
//!
//! `valid_until` is monotone and has a split personality on purpose:
//! concurrent *input-side* readers (lookahead, replay gating) take
//! `Acquire` loads, but the writer's own read-modify-write is a `Relaxed`
//! load followed by a `Release` store. That relaxed load is justified by
//! exclusivity alone: only the node's driver ever stores `valid_until`,
//! and successive runs of the driver are ordered by the activation
//! machine's AcqRel RMW chain (`finish_run` → `try_activate` →
//! `begin_run`), so the writer can never see its predecessor's store
//! "late". `tests/model_chaotic.rs` checks exactly this handoff.
//!
//! The writer appends an event *before* it stores the `valid_until` that
//! covers it, and the two can carry the same time. A reader that wants
//! "this node has no event I have not seen through T" must therefore load
//! `valid_until` first and look at the list second —
//! [`Cursor::quiet_through`] is the one place that does it, and the model
//! test `quiet_window_peek_first_misses_the_covered_event` shows the
//! opposite order adopting a window over an event it never saw.
//!
//! # Chunk reuse
//!
//! A reclaimed or dropped chunk goes back to a process-wide free-list of
//! at most [`POOL_CAP`] chunks, not to the allocator, and the next list
//! that grows takes it from there. Reuse is safe for the same reason a
//! free followed by a malloc of the same address is: `gc` hands a chunk
//! back only once every consumer's cursor is past it, and the new owner
//! rewrites `base` and nulls `next` before linking it. Its old slot
//! contents are never observed, because no slot at or beyond `len` is
//! ever read.
//!
//! # Model checking
//!
//! Everything here compiles against the [`parsim_queue::sync`] facade.
//! Under `RUSTFLAGS="--cfg parsim_model"` the chunk size shrinks to 2 so
//! chunk linking and retirement are reachable within a bounded
//! exploration, the free-list is compiled out, and `gc` *quarantines*
//! instead of freeing: reclaimed chunks get every slot overwritten with a
//! tombstone and are kept alive until `Drop`. A consumer that could still
//! reach a reclaimed chunk then trips the explorer's data-race detector
//! on the tombstone write (or asserts on the tombstone value) instead of
//! dereferencing freed memory.

use std::mem::MaybeUninit;
use std::ptr;

use parsim_logic::Value;
use parsim_queue::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use parsim_queue::sync::UnsafeCell;

/// Events per behavior-list chunk.
#[cfg(not(parsim_model))]
pub const CHUNK: usize = 64;
/// Model-mode chunk size: small enough that chunk linking, cursor chunk
/// hops, and GC retirement all happen within an exhaustively explorable
/// number of events.
#[cfg(parsim_model)]
pub const CHUNK: usize = 2;

/// Most chunks the process-wide free-list keeps: 16 384 chunks of 2 064
/// bytes, 32.25 MiB, which covers a 16-bit gate multiplier's whole run
/// (11 329 chunks). A return that would take the list past it frees the
/// excess to the allocator.
pub const POOL_CAP: usize = 16_384;

/// One chunk of a node's append-only behavior list.
pub struct Chunk {
    slots: [UnsafeCell<MaybeUninit<(u64, Value)>>; CHUNK],
    /// Global index of `slots[0]`.
    base: u64,
    next: AtomicPtr<Chunk>,
}

impl Chunk {
    fn boxed(base: u64) -> Box<Chunk> {
        Box::new(Chunk {
            slots: [const { UnsafeCell::new(MaybeUninit::uninit()) }; CHUNK],
            base,
            next: AtomicPtr::new(ptr::null_mut()),
        })
    }
}

/// The process-wide chunk free-list. It outlives every run: the engines
/// start fresh worker threads per run, so a per-thread cache would die
/// with its workers.
#[cfg(not(parsim_model))]
// A chunk is handed out by address, so each one stays in its own `Box`.
#[allow(clippy::vec_box)]
mod pool {
    use std::cmp::Reverse;
    use std::sync::{Mutex, MutexGuard};

    use super::{Chunk, POOL_CAP};

    /// Chunks a [`ChunkAlloc`](super::ChunkAlloc) moves per lock.
    pub const BATCH: usize = 64;

    struct Pool {
        /// Free chunks; by descending address while `sorted`, so the
        /// lowest addresses sit at the tail, where `refill` takes from.
        free: Vec<Box<Chunk>>,
        sorted: bool,
    }

    static POOL: Mutex<Pool> = Mutex::new(Pool {
        free: Vec::new(),
        sorted: true,
    });

    fn lock() -> MutexGuard<'static, Pool> {
        // Nothing here can leave the list inconsistent mid-update.
        POOL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Moves the `BATCH` lowest-addressed free chunks into `stash`, lowest
    /// last (the stash pops from its end), or `BATCH` fresh ones when the
    /// list is empty. The list is sorted here, on the first refill after
    /// returns, so a run's worth of returned chunks is sorted once: handing
    /// them out in address order lays the next run's lists out the way a
    /// fresh heap would.
    pub fn refill(stash: &mut Vec<Box<Chunk>>) {
        let mut p = lock();
        if p.free.is_empty() {
            drop(p);
            let from = stash.len();
            stash.extend((0..BATCH).map(|_| Chunk::boxed(0)));
            stash[from..].reverse();
            return;
        }
        if !p.sorted {
            p.free.sort_unstable_by_key(|c| Reverse(&**c as *const Chunk as usize));
            p.sorted = true;
        }
        let from = p.free.len().saturating_sub(BATCH);
        stash.extend(p.free.drain(from..));
    }

    /// Takes every chunk `chunks` yields: up to `POOL_CAP` stay on the
    /// list, the rest go back to the allocator.
    pub fn give(chunks: impl IntoIterator<Item = Box<Chunk>>) {
        let mut chunks = chunks.into_iter();
        let mut p = lock();
        let before = p.free.len();
        let room = POOL_CAP.saturating_sub(before);
        p.free.extend(chunks.by_ref().take(room));
        if p.free.len() > before {
            p.sorted = false;
        }
        drop(p);
        chunks.for_each(drop);
    }

    pub fn len() -> usize {
        lock().free.len()
    }
}

/// Process-wide count of chunks handed out and not yet returned. Debug
/// builds only: in release builds both functions are empty.
#[cfg(debug_assertions)]
mod live {
    use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

    static CHUNKS: AtomicI64 = AtomicI64::new(0);

    pub fn add(delta: i64) {
        CHUNKS.fetch_add(delta, Relaxed);
    }

    pub fn get() -> i64 {
        CHUNKS.load(Relaxed)
    }
}

#[cfg(not(debug_assertions))]
mod live {
    #[inline(always)]
    pub fn add(_delta: i64) {}

    pub fn get() -> i64 {
        0
    }
}

/// Number of behavior-list chunks handed out to lists and not yet
/// returned: a leak probe for tests (every engine run must return it to
/// where it started, early exits included). Pooled chunks do not count.
/// Always `0` in release builds, where nothing counts.
pub fn live_chunks() -> i64 {
    live::get()
}

/// Number of chunks on the process-wide free-list, at most [`POOL_CAP`].
#[cfg(not(parsim_model))]
pub fn pooled_chunks() -> usize {
    pool::len()
}

/// Always `0`: model builds have no free-list.
#[cfg(parsim_model)]
pub fn pooled_chunks() -> usize {
    0
}

/// One writer's chunk source and tally. Chunks come from a private
/// stash, refilled 64 at a time from the process-wide free-list (fresh
/// `Box`es only when that is empty); reclaimed chunks go back to the
/// stash, which spills 64 to the list whenever it holds more than 128,
/// and empties into the list when the handle drops. The handle is
/// carried by the writer (`&mut`) through [`NodeState::push`] /
/// [`NodeState::gc`] so chunk traffic is counted per thread without
/// atomics.
#[derive(Default)]
#[allow(clippy::vec_box)] // see `pool`
pub struct ChunkAlloc {
    /// Chunks handed out through this handle.
    pub allocs: u64,
    /// Chunks reclaimed through this handle.
    pub frees: u64,
    #[cfg(not(parsim_model))]
    stash: Vec<Box<Chunk>>,
}

impl std::fmt::Debug for ChunkAlloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkAlloc")
            .field("allocs", &self.allocs)
            .field("frees", &self.frees)
            .finish_non_exhaustive()
    }
}

impl ChunkAlloc {
    fn alloc(&mut self, base: u64) -> *mut Chunk {
        self.allocs += 1;
        live::add(1);
        Box::into_raw(self.take(base))
    }

    #[cfg(not(parsim_model))]
    fn take(&mut self, base: u64) -> Box<Chunk> {
        if self.stash.is_empty() {
            pool::refill(&mut self.stash);
        }
        let mut chunk = self.stash.pop().expect("refill never leaves the stash empty");
        chunk.base = base;
        *chunk.next.get_mut() = ptr::null_mut();
        chunk
    }

    #[cfg(parsim_model)]
    fn take(&mut self, base: u64) -> Box<Chunk> {
        Chunk::boxed(base)
    }

    /// # Safety
    ///
    /// `chunk` must be unlinked, unreachable by any consumer, and never
    /// freed twice.
    #[cfg(not(parsim_model))]
    unsafe fn free(&mut self, chunk: *mut Chunk) {
        self.frees += 1;
        live::add(-1);
        self.stash.push(Box::from_raw(chunk));
        if self.stash.len() > 2 * pool::BATCH {
            pool::give(self.stash.drain(..pool::BATCH));
        }
    }
}

#[cfg(not(parsim_model))]
impl Drop for ChunkAlloc {
    fn drop(&mut self) {
        pool::give(self.stash.drain(..));
    }
}

/// A node's behavior: its event history plus how far it is known.
pub struct NodeState {
    /// Head chunk (moves forward as GC frees consumed chunks).
    head: AtomicPtr<Chunk>,
    /// Writer-owned tail chunk pointer.
    tail: UnsafeCell<*mut Chunk>,
    /// Count of published events (release store by the writer).
    len: AtomicU64,
    /// Behavior is known for every t <= valid_until. Monotone; written
    /// only by the node's exclusive driver (see the module docs for why
    /// the writer's own loads may be `Relaxed`).
    pub valid_until: AtomicU64,
    /// Per-fanout-entry consumption cursor (global event index), release
    /// stored by the consumer, acquire loaded by [`NodeState::gc`].
    pub consumed: Box<[AtomicU64]>,
    /// Reclaimed-but-not-freed chunks (writer-owned). See module docs.
    #[cfg(parsim_model)]
    quarantine: UnsafeCell<Vec<*mut Chunk>>,
}

// SAFETY: `tail` (and the model-only quarantine) is only touched by the
// node's unique driver, which is exclusive via the activation state
// machine; everything else is atomic.
unsafe impl Send for NodeState {}
unsafe impl Sync for NodeState {}

impl NodeState {
    /// A fresh single-chunk list with one consumption cursor per fan-out
    /// entry, allocated through `alloc`.
    pub fn new(fanouts: usize, alloc: &mut ChunkAlloc) -> NodeState {
        let chunk = alloc.alloc(0);
        NodeState {
            head: AtomicPtr::new(chunk),
            tail: UnsafeCell::new(chunk),
            len: AtomicU64::new(0),
            valid_until: AtomicU64::new(0),
            consumed: (0..fanouts).map(|_| AtomicU64::new(0)).collect(),
            #[cfg(parsim_model)]
            quarantine: UnsafeCell::new(Vec::new()),
        }
    }

    /// Appends one event. Caller must be the node's (exclusive) writer.
    ///
    /// # Safety
    ///
    /// Only one thread may call this at a time (activation exclusivity).
    pub unsafe fn push(&self, t: u64, v: Value, alloc: &mut ChunkAlloc) {
        let len = self.len.load(Ordering::Relaxed);
        let mut tail = self.tail.with(|p| *p);
        if len - (*tail).base == CHUNK as u64 {
            let new = alloc.alloc(len);
            (*tail).next.store(new, Ordering::Release);
            self.tail.with_mut(|p| *p = new);
            tail = new;
        }
        let idx = (len - (*tail).base) as usize;
        (*tail).slots[idx].with_mut(|slot| {
            (*slot).write((t, v));
        });
        self.len.store(len + 1, Ordering::Release);
    }

    /// Reclaims chunks every fan-out consumer has fully moved past into
    /// `alloc`. Caller must be the node's (exclusive) writer. Returns the
    /// number of chunks reclaimed.
    ///
    /// A chunk `c` is reclaimed only when every consumer's cursor exceeds
    /// `c.base + CHUNK`, which implies each consumer's chunk pointer has
    /// advanced beyond `c` (to consume an event of index `>= c.base +
    /// CHUNK` it must have followed `c.next`). The tail chunk is never
    /// reclaimed.
    ///
    /// # Safety
    ///
    /// Only one thread may call this at a time (activation exclusivity).
    pub unsafe fn gc(&self, alloc: &mut ChunkAlloc) -> u64 {
        let min_consumed = self
            .consumed
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .min()
            .unwrap_or_else(|| self.len.load(Ordering::Relaxed));
        let mut freed = 0;
        loop {
            let head = self.head.load(Ordering::Relaxed);
            let next = (*head).next.load(Ordering::Relaxed);
            if next.is_null() || min_consumed <= (*head).base + CHUNK as u64 {
                break;
            }
            self.head.store(next, Ordering::Relaxed);
            self.reclaim(head, alloc);
            freed += 1;
        }
        freed
    }

    #[cfg(not(parsim_model))]
    unsafe fn reclaim(&self, chunk: *mut Chunk, alloc: &mut ChunkAlloc) {
        alloc.free(chunk);
    }

    /// Model-mode reclamation: tombstone every slot (any consumer that
    /// can still reach the chunk races with these writes and is reported
    /// by the explorer) and keep the allocation alive until `Drop` so
    /// even an undetected late read stays memory-safe.
    #[cfg(parsim_model)]
    unsafe fn reclaim(&self, chunk: *mut Chunk, _alloc: &mut ChunkAlloc) {
        for slot in &(*chunk).slots {
            slot.with_mut(|p| {
                (*p).write((u64::MAX, Value::x(1)));
            });
        }
        self.quarantine.with_mut(|q| (*q).push(chunk));
    }
}

impl Drop for NodeState {
    fn drop(&mut self) {
        // Acquire pairs with the writer's release publishes, so the chain
        // walk is ordered even when the dropping thread never touched the
        // list (same discipline as the queue crate's drop-drains).
        let mut chunk = self.head.load(Ordering::Acquire);
        let chain = std::iter::from_fn(|| {
            if chunk.is_null() {
                return None;
            }
            // SAFETY: chunks were allocated and unlinked exactly once.
            let next = unsafe { (*chunk).next.load(Ordering::Acquire) };
            live::add(-1);
            // (u64, Value) is Copy: no per-slot drop needed.
            Some(unsafe { Box::from_raw(std::mem::replace(&mut chunk, next)) })
        });
        #[cfg(not(parsim_model))]
        pool::give(chain);
        #[cfg(parsim_model)]
        chain.for_each(drop);
        #[cfg(parsim_model)]
        self.quarantine.with_mut(|q| {
            for &c in unsafe { &*q }.iter() {
                // SAFETY: quarantined chunks were unlinked exactly once
                // and are unreachable from the head chain freed above.
                drop(unsafe { Box::from_raw(c) });
                live::add(-1);
            }
        });
    }
}

/// A consumer's position in one node's behavior list.
pub struct Cursor {
    chunk: *mut Chunk,
    /// Global index of the next unconsumed event. Read-only for callers.
    pub global: u64,
    /// Value after the last consumed event (all-X before any). Read-only
    /// for callers.
    pub value: Value,
    /// Copy of the next unconsumed event, if already fetched. Never goes
    /// stale: event lists are append-only and the cursor only advances on
    /// `consume`. A `None` cache means "list was drained at last check"
    /// and must be re-fetched (the producer may have appended since). The
    /// cached event's chunk cannot be reclaimed, because reclamation
    /// requires every consumer to have *consumed* past the chunk.
    cached: Option<(u64, Value)>,
}

// SAFETY: the raw pointer is only dereferenced under the publication
// protocol (len acquire) by the owning element's exclusive run.
unsafe impl Send for Cursor {}

impl Cursor {
    /// A cursor at the start of `node`'s list, reporting `initial`
    /// (normally all-X at the node's width) until the first consume.
    pub fn new(node: &NodeState, initial: Value) -> Cursor {
        Cursor {
            chunk: node.head.load(Ordering::Relaxed),
            global: 0,
            value: initial,
            cached: None,
        }
    }

    /// Peeks the next unconsumed event, if published. Hits the local
    /// cache on all but the first call per event.
    ///
    /// # Safety
    ///
    /// Caller must hold the element exclusively (activation machine).
    pub unsafe fn peek(&mut self, node: &NodeState) -> Option<(u64, Value)> {
        if self.cached.is_some() {
            return self.cached;
        }
        if self.global >= node.len.load(Ordering::Acquire) {
            return None;
        }
        while self.global >= (*self.chunk).base + CHUNK as u64 {
            let next = (*self.chunk).next.load(Ordering::Acquire);
            debug_assert!(!next.is_null(), "published event beyond linked chunks");
            self.chunk = next;
        }
        let idx = (self.global - (*self.chunk).base) as usize;
        self.cached = Some((*self.chunk).slots[idx].with(|slot| (*slot).assume_init()));
        self.cached
    }

    /// The time through which `node` is known to carry no event this
    /// cursor has not consumed: one tick before the next unconsumed event,
    /// or the node's `valid_until` when none is published. This is what
    /// the engine's lookahead rules read to learn how long an input keeps
    /// its current value.
    ///
    /// The order of the two loads matters. The writer pushes an event at
    /// `te` and only *then* stores a `valid_until` that may equal `te`, so
    /// peeking first could miss the event and still read the validity that
    /// covers it. Loading `valid_until` first (`Acquire`, pairing with the
    /// writer's `Release` store) makes every event at or before the loaded
    /// value visible to the peek that follows.
    ///
    /// # Safety
    ///
    /// Caller must hold the element exclusively (activation machine).
    pub unsafe fn quiet_through(&mut self, node: &NodeState) -> u64 {
        let valid = node.valid_until.load(Ordering::Acquire);
        match self.peek(node) {
            Some((t, _)) => t.saturating_sub(1),
            None => valid,
        }
    }

    /// Consumes the event returned by the last `peek`.
    ///
    /// # Safety
    ///
    /// Caller must hold the element exclusively and have peeked.
    pub unsafe fn consume(&mut self, node: &NodeState) {
        let (_, v) = match self.cached.take() {
            Some(ev) => ev,
            None => self.peek(node).expect("consume without peek"),
        };
        self.cached = None;
        self.value = v;
        self.global += 1;
    }
}

#[cfg(all(test, not(parsim_model)))]
mod tests {
    use super::*;

    #[test]
    fn push_peek_consume_single_thread() {
        let mut a = ChunkAlloc::default();
        let node = NodeState::new(1, &mut a);
        // SAFETY: single-threaded test — trivially exclusive.
        unsafe {
            for t in 0..(CHUNK as u64 * 2 + 3) {
                node.push(t, Value::bit(t % 2 == 1), &mut a);
            }
            let mut c = Cursor::new(&node, Value::x(1));
            for t in 0..(CHUNK as u64 * 2 + 3) {
                assert_eq!(c.peek(&node), Some((t, Value::bit(t % 2 == 1))));
                c.consume(&node);
                assert_eq!(c.value, Value::bit(t % 2 == 1));
            }
            assert_eq!(c.peek(&node), None);
        }
    }

    #[test]
    fn gc_frees_only_fully_consumed_chunks() {
        let mut a = ChunkAlloc::default();
        let node = NodeState::new(1, &mut a);
        // SAFETY: single-threaded test — trivially exclusive.
        unsafe {
            let total = CHUNK as u64 * 3;
            for t in 0..total {
                node.push(t, Value::bit(false), &mut a);
            }
            // Nothing consumed: nothing freed.
            assert_eq!(node.gc(&mut a), 0);
            // Cursor strictly past the first chunk (>= requires > base+CHUNK).
            node.consumed[0].store(CHUNK as u64 + 1, Ordering::Release);
            assert_eq!(node.gc(&mut a), 1);
            // Everything consumed: tail chunk still never freed.
            node.consumed[0].store(total + 1, Ordering::Release);
            assert_eq!(node.gc(&mut a), 1);
            assert_eq!(a.allocs, 3);
            assert_eq!(a.frees, 2);
        }
    }

    #[test]
    fn recycled_chunk_reads_only_events_pushed_after_recycling() {
        let mut a = ChunkAlloc::default();
        let old = NodeState::new(1, &mut a);
        // SAFETY: single-threaded test — trivially exclusive.
        unsafe {
            for t in 0..(CHUNK as u64 * 3) {
                old.push(t, Value::bit(true), &mut a);
            }
            let second = (*old.head.load(Ordering::Relaxed)).next.load(Ordering::Relaxed);
            // Reclaims the chunks at base 0 and CHUNK; the stash hands out
            // the last one first, full of stale events and still linked.
            old.consumed[0].store(CHUNK as u64 * 2 + 1, Ordering::Release);
            assert_eq!(old.gc(&mut a), 2);

            let node = NodeState::new(1, &mut a);
            let head = node.head.load(Ordering::Relaxed);
            assert_eq!(head, second, "the reclaimed chunk is reused");
            assert_eq!((*head).base, 0);
            assert!((*head).next.load(Ordering::Relaxed).is_null());

            let mut c = Cursor::new(&node, Value::x(1));
            assert_eq!(c.peek(&node), None);
            node.push(7, Value::bit(false), &mut a);
            assert_eq!(c.peek(&node), Some((7, Value::bit(false))));
            c.consume(&node);
            assert_eq!(c.peek(&node), None);
        }
    }
}
