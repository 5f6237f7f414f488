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
//!   (`len`), its validity horizon (`valid_until`), its reclaimers'
//!   try-flag and its span of the consumption table;
//! - [`Lists`]: every node's list for one run plus the run's consumption
//!   table, one cursor per fan-out entry, node-major (the GC protocol);
//! - [`Cursor`]: a consumer's position in one list.
//!
//! # Protocol
//!
//! Exactly one thread at a time is a node's *writer* — the element run
//! that drives the node, made exclusive by the
//! [`ActivationState`](parsim_queue::ActivationState) machine. The writer
//! appends with [`NodeState::push`] (slot write, then `len` release
//! store). Any fan-out consumer reads through a [`Cursor`]: `len` acquire
//! load, then slot read; it publishes how far it has consumed with
//! [`Lists::publish`], a release store into its slot of the consumption
//! table.
//!
//! [`Lists::gc`] reclaims a chunk only when *every* consumer's published
//! cursor is strictly past the chunk's last slot — which implies each
//! consumer's chunk pointer has already followed `next` beyond it — and
//! never reclaims the tail. Any thread may call it: the writer after each
//! run, and a consumer whose published cursor has just passed the last
//! slot of a chunk ([`crosses_chunk`]), the only moment a consumer can
//! make a chunk reclaimable. So the last consumer to leave a chunk frees
//! it, as §4's "asynchronous" collection has it, even when the writer
//! never runs again. Nearly every call finds nothing to free, and settles
//! that from the published cursors and a hint — the head chunk's `base`,
//! stored by the flag holder below and only ever growing, so a stale read
//! is low and never hides a reclaimable chunk — without the flag's
//! read-modify-write. Two rules make the rest safe:
//!
//! - *Reclaimers exclude each other* through a per-node try-flag
//!   (`swap(true, Acquire)` … `store(false, Release)`), which also orders
//!   successive reclaimers' moves of `head`. A thread that finds the flag
//!   set skips: what it would have freed stays until the next crossing,
//!   the writer's next run or the drop, which costs memory, never
//!   correctness. A bare CAS on `head` would not do: a reclaimer delayed
//!   between its load of `head` and its CAS can find the same address
//!   back at `head` after the chunk was freed and reused as a later chunk
//!   of this very list (ABA), and free it twice.
//! - *No reclaimer races the writer.* The writer touches only its tail
//!   chunk's slots and `next`. A reclaimed chunk has a non-null `next`, so
//!   it is no longer the tail; the writer's release store of that `next`
//!   was its last touch of the chunk, and the reclaimer's acquire load of
//!   it orders the free after. No consumer reads it again either: each has
//!   read past its last slot, which needed a `len` that covers the next
//!   chunk — stored after `tail` moved — and published that with a
//!   release store the reclaimer's acquire load of the slot pairs with.
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
//! [`Cursor::scan_quiet`] is the one place that does it, and the model
//! test `quiet_window_peek_first_misses_the_covered_event` shows the
//! opposite order adopting a window over an event it never saw.
//!
//! # Chunk reuse
//!
//! A reclaimed or dropped chunk goes back to a process-wide free-list of
//! at most [`POOL_CAP`] chunks, not to the allocator, and the next list
//! that grows takes it from there. Reuse is safe for the same reason a
//! free followed by a malloc of the same address is: `gc` hands a chunk
//! back only once every consumer's cursor is past it and after the
//! writer's last touch (see *Protocol*), and the new owner — whichever
//! thread reclaimed it, or any thread once it went through the free-list's
//! mutex — rewrites `base` and nulls `next` before linking it. Its old slot
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
//! tombstone and are kept alive until the [`Lists`] drop, and a chunk
//! quarantined twice fails an assertion. A consumer that could still
//! reach a reclaimed chunk then trips the explorer's data-race detector
//! on the tombstone write (or asserts on the tombstone value) instead of
//! dereferencing freed memory.

use std::mem::MaybeUninit;
use std::ptr;

use parsim_logic::{scan_quiet, Edge, Value};
use parsim_queue::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
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
/// bytes, 32.25 MiB. A run's consumers hand back the chunks they leave,
/// so what a run holds at once is about one chunk per node plus the
/// slack of the workers' stashes (a 16-bit gate multiplier's one-thread
/// run hands out 11 329 chunks over 2 467 nodes and reclaims all but the
/// 2 467 tails as it goes); the cap bounds what the process keeps between
/// runs. A return that would take the list past it frees the excess to
/// the allocator.
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
            p.free
                .sort_unstable_by_key(|c| Reverse(&**c as *const Chunk as usize));
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
/// and empties into the list when the handle drops. Each worker carries
/// one (`&mut`) through [`NodeState::push`] and [`Lists::gc`], whichever
/// node it writes or reclaims, so chunk traffic is counted per thread
/// without atomics.
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
        let mut chunk = self
            .stash
            .pop()
            .expect("refill never leaves the stash empty");
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

/// A node's behavior: its event history plus how far it is known. Made
/// only by [`Lists::new`]; its consumers' cursors live in the [`Lists`]
/// that owns it.
pub struct NodeState {
    /// Head chunk (moves forward as GC frees consumed chunks). Written
    /// only by the holder of `reclaiming`.
    head: AtomicPtr<Chunk>,
    /// Writer-owned tail chunk pointer.
    tail: UnsafeCell<*mut Chunk>,
    /// Count of published events (release store by the writer).
    len: AtomicU64,
    /// Behavior is known for every t <= valid_until. Monotone; written
    /// only by the node's exclusive driver (see the module docs for why
    /// the writer's own loads may be `Relaxed`).
    pub valid_until: AtomicU64,
    /// `base` of the head chunk, stored by the `reclaiming` holder as
    /// `head` moves. Anyone may read it as a hint — it only grows, so a
    /// stale read is low — and `gc` takes the flag only when some chunk
    /// can be reclaimed by it.
    head_base: AtomicU64,
    /// The reclaimers' try-flag: set while one thread runs `gc` on this
    /// node. See the module docs.
    reclaiming: AtomicBool,
    /// This node's fan-out entries: `start..end` in the owning
    /// [`Lists`]' consumption table. Kept here, beside `valid_until`,
    /// which every reader has just loaded when it publishes.
    consumers: (u32, u32),
    /// Reclaimed-but-not-freed chunks, owned by the `reclaiming` holder.
    /// See the module docs.
    #[cfg(parsim_model)]
    quarantine: UnsafeCell<Vec<*mut Chunk>>,
}

// SAFETY: `tail` is only touched by the node's unique driver, which is
// exclusive via the activation state machine, and the model-only
// quarantine only by the holder of the `reclaiming` flag; everything else
// is atomic.
unsafe impl Send for NodeState {}
unsafe impl Sync for NodeState {}

impl NodeState {
    /// A fresh single-chunk list, allocated through `alloc`, whose
    /// consumers are `consumers` of the consumption table.
    fn new(consumers: (u32, u32), alloc: &mut ChunkAlloc) -> NodeState {
        let chunk = alloc.alloc(0);
        NodeState {
            head: AtomicPtr::new(chunk),
            tail: UnsafeCell::new(chunk),
            len: AtomicU64::new(0),
            valid_until: AtomicU64::new(0),
            head_base: AtomicU64::new(0),
            reclaiming: AtomicBool::new(false),
            consumers,
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

    /// Reclaims into `alloc` the chunks every consumer has moved past;
    /// `table` is the owning [`Lists`]' consumption table. See
    /// [`Lists::gc`].
    unsafe fn gc(&self, table: &[AtomicU64], alloc: &mut ChunkAlloc) -> u64 {
        let (start, end) = self.consumers;
        let min_consumed = table[start as usize..end as usize]
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .min()
            .unwrap_or_else(|| self.len.load(Ordering::Acquire));
        // Nearly every call has nothing to reclaim: settle that without
        // the flag's read-modify-write. The hint is at most the head's
        // real `base`, so this never skips a reclaimable chunk.
        if min_consumed <= self.head_base.load(Ordering::Relaxed) + CHUNK as u64 {
            return 0;
        }
        if self.reclaiming.swap(true, Ordering::Acquire) {
            return 0;
        }
        let mut freed = 0;
        loop {
            // Relaxed: `head` moves only under the flag, whose
            // acquire/release chain orders successive reclaimers.
            let head = self.head.load(Ordering::Relaxed);
            // Acquire pairs with the writer's link store: everything the
            // writer did to `head`, and `next`'s `base`, happens before.
            let next = (*head).next.load(Ordering::Acquire);
            if next.is_null() || min_consumed <= (*head).base + CHUNK as u64 {
                break;
            }
            self.head.store(next, Ordering::Relaxed);
            self.head_base.store((*next).base, Ordering::Relaxed);
            self.reclaim(head, alloc);
            freed += 1;
        }
        self.reclaiming.store(false, Ordering::Release);
        freed
    }

    #[cfg(not(parsim_model))]
    unsafe fn reclaim(&self, chunk: *mut Chunk, alloc: &mut ChunkAlloc) {
        alloc.free(chunk);
    }

    /// Model-mode reclamation: tombstone every slot (any consumer that
    /// can still reach the chunk races with these writes and is reported
    /// by the explorer) and keep the allocation alive until the lists
    /// drop, so even an undetected late read stays memory-safe.
    #[cfg(parsim_model)]
    unsafe fn reclaim(&self, chunk: *mut Chunk, _alloc: &mut ChunkAlloc) {
        for slot in &(*chunk).slots {
            slot.with_mut(|p| {
                (*p).write((u64::MAX, Value::x(1)));
            });
        }
        self.quarantine.with_mut(|q| {
            assert!(!(*q).contains(&chunk), "chunk quarantined twice");
            (*q).push(chunk);
        });
    }

    /// The node's chunks, head to tail, as owned boxes.
    ///
    /// # Safety
    ///
    /// Call once, when no other thread can reach the list, and never
    /// touch the node's chunks again.
    unsafe fn take_chain(&self) -> impl Iterator<Item = Box<Chunk>> {
        // Acquire pairs with the writer's release publishes, so the chain
        // walk is ordered even when the dropping thread never touched the
        // list (same discipline as the queue crate's drop-drains).
        let mut chunk = self.head.load(Ordering::Acquire);
        std::iter::from_fn(move || {
            if chunk.is_null() {
                return None;
            }
            let next = (*chunk).next.load(Ordering::Acquire);
            live::add(-1);
            // (u64, Value) is Copy: no per-slot drop needed.
            Some(Box::from_raw(std::mem::replace(&mut chunk, next)))
        })
    }
}

/// Every node's behavior list for one run, and the run's consumption
/// table: one cursor per fan-out entry, node-major, so a node's consumers
/// are one contiguous slice. Dropping it returns every list's chunks to
/// the process-wide free-list in one hand-over.
pub struct Lists {
    nodes: Vec<NodeState>,
    /// Per fan-out entry: the global index of the entry's next
    /// unconsumed event, release stored by [`Lists::publish`], acquire
    /// loaded by [`Lists::gc`].
    consumed: Vec<AtomicU64>,
}

impl Lists {
    /// One fresh single-chunk list per entry of `fanouts`, which gives the
    /// node's number of fan-out entries, allocated through `alloc`.
    pub fn new(fanouts: impl IntoIterator<Item = usize>, alloc: &mut ChunkAlloc) -> Lists {
        let mut entries = 0u32;
        let nodes: Vec<NodeState> = fanouts
            .into_iter()
            .map(|k| {
                let start = entries;
                entries += k as u32;
                NodeState::new((start, entries), alloc)
            })
            .collect();
        Lists {
            nodes,
            consumed: (0..entries).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Every list, in node order.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeState> {
        self.nodes.iter()
    }

    /// Publishes that fan-out entry `k` of node `n` has consumed every
    /// event before global index `global`, and returns what the entry had
    /// published before. The entry's element is the slot's only writer.
    pub fn publish(&self, n: usize, k: usize, global: u64) -> u64 {
        let slot = &self.consumed[self.nodes[n].consumers.0 as usize + k];
        // Relaxed: this entry's element is the only writer.
        let prev = slot.load(Ordering::Relaxed);
        slot.store(global, Ordering::Release);
        prev
    }

    /// Reclaims into `alloc` the chunks of node `n` that every fan-out
    /// consumer has moved past. Any thread may call it; it returns the
    /// number of chunks reclaimed, `0` also when another thread is
    /// reclaiming this node at the same moment.
    ///
    /// A chunk `c` is reclaimed only when every consumer's published
    /// cursor exceeds `c.base + CHUNK`, which implies each consumer's
    /// chunk pointer has advanced beyond `c` (to consume an event of index
    /// `>= c.base + CHUNK` it must have followed `c.next`). The tail chunk
    /// is never reclaimed.
    ///
    /// # Safety
    ///
    /// Every cursor published for node `n` must be one its consumer has
    /// reached, and every consumer must still be at or past it.
    pub unsafe fn gc(&self, n: usize, alloc: &mut ChunkAlloc) -> u64 {
        self.nodes[n].gc(&self.consumed, alloc)
    }
}

/// Whether a consumer whose published cursor moves from `prev` to `now`
/// has passed the last slot of a chunk — the only moment its move can make
/// a chunk reclaimable ([`Lists::gc`] needs every cursor strictly past
/// `base + CHUNK`). Chunk bases are multiples of [`CHUNK`].
pub fn crosses_chunk(prev: u64, now: u64) -> bool {
    let passed = |g: u64| g.saturating_sub(1) / CHUNK as u64;
    passed(now) > passed(prev)
}

impl std::ops::Index<usize> for Lists {
    type Output = NodeState;

    fn index(&self, n: usize) -> &NodeState {
        &self.nodes[n]
    }
}

impl Drop for Lists {
    fn drop(&mut self) {
        // SAFETY: `&mut self` means no other thread can reach the lists,
        // and the nodes drop right after without touching their chunks.
        let chains = self.nodes.iter().flat_map(|n| unsafe { n.take_chain() });
        #[cfg(not(parsim_model))]
        pool::give(chains);
        #[cfg(parsim_model)]
        chains.for_each(drop);
        #[cfg(parsim_model)]
        for n in &self.nodes {
            n.quarantine.with_mut(|q| {
                for &c in unsafe { &*q }.iter() {
                    // SAFETY: quarantined chunks were unlinked exactly once
                    // and are unreachable from the head chains freed above.
                    drop(unsafe { Box::from_raw(c) });
                    live::add(-1);
                }
            });
        }
    }
}

/// A consumer's position in one node's behavior list. A copy is the same
/// position: the chaotic engine replays on a copy and stores it back.
#[derive(Clone, Copy)]
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

    /// The time through which `node` carries no event past this cursor
    /// that `edge` says can move the consumer's output: the lookahead
    /// rules' quiet window ([`scan_quiet`] over the published events,
    /// starting from [`Cursor::value`]). With [`Edge::Any`] it is one tick
    /// before the next unconsumed event, or the node's `valid_until` when
    /// none is published. Nothing is consumed: the events the window
    /// covers stay in the list and are replayed once valid.
    ///
    /// The order of the loads matters. The writer pushes an event at `te`
    /// and only *then* stores a `valid_until` that may equal `te`, so
    /// reading the list first could miss the event and still read the
    /// validity that covers it. Loading `valid_until` first (`Acquire`,
    /// pairing with the writer's `Release` store) makes every event at or
    /// before the loaded value visible to the `len` load that follows.
    ///
    /// # Safety
    ///
    /// Caller must hold the element exclusively (activation machine).
    pub unsafe fn scan_quiet(&self, node: &NodeState, edge: Edge) -> u64 {
        let valid = node.valid_until.load(Ordering::Acquire);
        let len = node.len.load(Ordering::Acquire);
        let (mut chunk, mut global) = (self.chunk, self.global);
        let published = std::iter::from_fn(|| {
            if global >= len {
                return None;
            }
            while global >= (*chunk).base + CHUNK as u64 {
                chunk = (*chunk).next.load(Ordering::Acquire);
            }
            let idx = (global - (*chunk).base) as usize;
            global += 1;
            Some((*chunk).slots[idx].with(|slot| (*slot).assume_init()))
        });
        scan_quiet(valid, self.value, published, edge)
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
        let lists = Lists::new([1], &mut a);
        let node = &lists[0];
        // SAFETY: single-threaded test — trivially exclusive.
        unsafe {
            for t in 0..(CHUNK as u64 * 2 + 3) {
                node.push(t, Value::bit(t % 2 == 1), &mut a);
            }
            let mut c = Cursor::new(node, Value::x(1));
            for t in 0..(CHUNK as u64 * 2 + 3) {
                assert_eq!(c.peek(node), Some((t, Value::bit(t % 2 == 1))));
                c.consume(node);
                assert_eq!(c.value, Value::bit(t % 2 == 1));
            }
            assert_eq!(c.peek(node), None);
        }
    }

    #[test]
    fn gc_frees_only_fully_consumed_chunks() {
        let mut a = ChunkAlloc::default();
        let lists = Lists::new([1], &mut a);
        // SAFETY: single-threaded test — trivially exclusive; the published
        // cursors are never past the (absent) consumer's.
        unsafe {
            let total = CHUNK as u64 * 3;
            for t in 0..total {
                lists[0].push(t, Value::bit(false), &mut a);
            }
            // Nothing consumed: nothing freed.
            assert_eq!(lists.gc(0, &mut a), 0);
            // Cursor strictly past the first chunk (>= requires > base+CHUNK).
            lists.publish(0, 0, CHUNK as u64 + 1);
            assert_eq!(lists.gc(0, &mut a), 1);
            // Everything consumed: tail chunk still never freed.
            lists.publish(0, 0, total + 1);
            assert_eq!(lists.gc(0, &mut a), 1);
            assert_eq!(a.allocs, 3);
            assert_eq!(a.frees, 2);
        }
    }

    #[test]
    fn crossing_is_passing_a_chunks_last_slot() {
        let c = CHUNK as u64;
        assert!(
            !crosses_chunk(0, c),
            "the cursor may still point into chunk 0"
        );
        assert!(crosses_chunk(0, c + 1));
        assert!(crosses_chunk(c, c + 1));
        assert!(!crosses_chunk(c + 1, 2 * c));
        assert!(crosses_chunk(c + 1, 3 * c + 1));
        assert!(!crosses_chunk(5, 5));
    }

    /// Two readers and the writer of one node each reclaim, as the chaotic
    /// engine does: a reader after its cursor crosses a chunk boundary, the
    /// writer after its run. Only the reader that leaves a chunk last can
    /// free it, and the tail stays.
    #[test]
    fn last_reader_to_leave_a_chunk_frees_it() {
        let mut w = ChunkAlloc::default();
        let (mut r0, mut r1) = (ChunkAlloc::default(), ChunkAlloc::default());
        let lists = Lists::new([2], &mut w);
        let node = &lists[0];
        let total = CHUNK as u64 * 3 + 1;
        // SAFETY: single-threaded test — trivially exclusive; each reader
        // publishes only positions its cursor has reached.
        unsafe {
            for t in 0..total {
                node.push(t, Value::bit(t % 2 == 1), &mut w);
            }
            let mut cursors = [
                Cursor::new(node, Value::x(1)),
                Cursor::new(node, Value::x(1)),
            ];
            let mut read = |k: usize, upto: u64, alloc: &mut ChunkAlloc| {
                let c = &mut cursors[k];
                while c.global < upto {
                    assert_eq!(
                        c.peek(node),
                        Some((c.global, Value::bit(c.global % 2 == 1)))
                    );
                    c.consume(node);
                }
                let prev = lists.publish(0, k, c.global);
                if crosses_chunk(prev, c.global) {
                    lists.gc(0, alloc)
                } else {
                    0
                }
            };
            // Reader 0 runs ahead through two chunks: reader 1 holds both.
            assert_eq!(read(0, 2 * CHUNK as u64 + 1, &mut r0), 0);
            assert_eq!(lists.gc(0, &mut w), 0, "the writer waits for reader 1");
            // Reader 1 leaves the first chunk last and frees it.
            assert_eq!(read(1, CHUNK as u64 + 1, &mut r1), 1);
            // Reader 1 reads to the end: it frees the second; the third is
            // still reader 0's.
            assert_eq!(read(1, total, &mut r1), 1);
            // Reader 0 reads to the end and frees the third.
            assert_eq!(read(0, total, &mut r0), 1);
            assert_eq!(lists.gc(0, &mut w), 0, "the tail is never freed");
            assert_eq!((w.allocs, w.frees, r0.frees, r1.frees), (4, 0, 1, 2));
            for c in &mut cursors {
                assert_eq!(c.peek(node), None);
            }
        }
        drop(lists);
        assert_eq!(
            r0.stash.len() + r1.stash.len(),
            3,
            "freed chunks go to the reclaimer"
        );
    }

    #[test]
    fn recycled_chunk_reads_only_events_pushed_after_recycling() {
        let mut a = ChunkAlloc::default();
        let old = Lists::new([1], &mut a);
        // SAFETY: single-threaded test — trivially exclusive.
        unsafe {
            for t in 0..(CHUNK as u64 * 3) {
                old[0].push(t, Value::bit(true), &mut a);
            }
            let second = (*old[0].head.load(Ordering::Relaxed))
                .next
                .load(Ordering::Relaxed);
            // Reclaims the chunks at base 0 and CHUNK; the stash hands out
            // the last one first, full of stale events and still linked.
            old.publish(0, 0, CHUNK as u64 * 2 + 1);
            assert_eq!(old.gc(0, &mut a), 2);

            let lists = Lists::new([1], &mut a);
            let node = &lists[0];
            let head = node.head.load(Ordering::Relaxed);
            assert_eq!(head, second, "the reclaimed chunk is reused");
            assert_eq!((*head).base, 0);
            assert!((*head).next.load(Ordering::Relaxed).is_null());

            let mut c = Cursor::new(node, Value::x(1));
            assert_eq!(c.peek(node), None);
            node.push(7, Value::bit(false), &mut a);
            assert_eq!(c.peek(node), Some((7, Value::bit(false))));
            c.consume(node);
            assert_eq!(c.peek(node), None);
        }
    }
}
