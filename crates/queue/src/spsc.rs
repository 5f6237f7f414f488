//! Unbounded lock-free single-producer/single-consumer FIFO.
//!
//! The queue is a linked list of fixed-size segments. The producer writes
//! into the tail segment and *publishes* each slot with a release store of
//! the segment's published count; the consumer acquires that count before
//! reading. Head and tail state live on opposite sides and are never
//! modified by the other party — the paper's "the two processors
//! corresponding to each queue must never modify the same location".
//!
//! Segments fully consumed by the consumer are freed by the consumer once
//! the producer has linked a successor (the producer never revisits a
//! segment after linking its successor, so this is safe without epochs).
//!
//! Model-checked: `tests/model.rs` runs this exact implementation under
//! the `parsim-model-check` explorer (push/pop/segment-retire, both drop
//! orders, drop-while-nonempty, chaos yields); the pre-fix drain that
//! leaned on `Arc`'s drop fence is kept as a counterexample fixture in
//! `parsim-model-check/tests/prefix_counterexamples.rs`.

use std::mem::MaybeUninit;
use std::ptr;

use crate::pad::CachePadded;
use crate::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use crate::sync::{Arc, UnsafeCell};

/// Slots per segment. Large enough to amortize allocation, small enough
/// that bursty producers don't hoard memory.
#[cfg(not(parsim_model))]
const SEG: usize = 256;
/// Under the model: small enough that segment linking and retirement are
/// reachable within a bounded exploration.
#[cfg(parsim_model)]
const SEG: usize = 2;

struct Segment<T> {
    data: [UnsafeCell<MaybeUninit<T>>; SEG],
    /// Number of slots written and visible to the consumer.
    published: AtomicUsize,
    next: AtomicPtr<Segment<T>>,
}

impl<T> Segment<T> {
    fn new_boxed() -> *mut Segment<T> {
        Box::into_raw(Box::new(Segment {
            data: [const { UnsafeCell::new(MaybeUninit::uninit()) }; SEG],
            published: AtomicUsize::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }

    /// Frees a segment previously returned by `new_boxed`.
    ///
    /// # Safety
    ///
    /// `seg` must be live with no remaining readers or writers, and any
    /// published-but-unread items must already have been dropped.
    unsafe fn free(seg: *mut Segment<T>) {
        drop(Box::from_raw(seg));
    }
}

struct Channel<T> {
    /// Producer-side cursor: current tail segment and write index.
    tail: CachePadded<UnsafeCell<(*mut Segment<T>, usize)>>,
    /// Consumer-side cursor: current head segment and read index.
    head: CachePadded<UnsafeCell<(*mut Segment<T>, usize)>>,
}

// SAFETY: the producer only touches `tail` and the consumer only `head`;
// cross-thread publication goes through `published`/`next` atomics.
unsafe impl<T: Send> Send for Channel<T> {}
unsafe impl<T: Send> Sync for Channel<T> {}

impl<T> Drop for Channel<T> {
    fn drop(&mut self) {
        // Exclusive access: both endpoints are gone. Drain remaining items
        // and free all segments.
        //
        // The `Acquire` loads below carry their own ordering edge from the
        // producer's final `Release` publishes: this drain may run on the
        // consumer's thread (consumer endpoint dropped last) and read
        // slots the consumer never received. The original `Relaxed` drain
        // was only correct through the acquire fence inside
        // `Arc::drop` — an invariant of someone else's implementation;
        // under the model (whose `Arc` reproduces exactly that fence, no
        // more) the protocol must order the drain itself.
        unsafe {
            let (mut seg, mut idx) = self.head.with(|p| *p);
            while !seg.is_null() {
                let published = (*seg).published.load(Ordering::Acquire);
                for i in idx..published {
                    (*seg).data[i].with_mut(|slot| ptr::drop_in_place((*slot).as_mut_ptr()));
                }
                let next = (*seg).next.load(Ordering::Acquire);
                Segment::free(seg);
                seg = next;
                idx = 0;
            }
        }
    }
}

/// The sending half of an unbounded SPSC queue.
///
/// Not [`Clone`]: exactly one producer exists per queue.
///
/// # Examples
///
/// ```
/// let (mut tx, mut rx) = parsim_queue::channel::<u32>();
/// tx.send(7);
/// assert_eq!(rx.recv(), Some(7));
/// assert_eq!(rx.recv(), None);
/// ```
pub struct Sender<T> {
    ch: Arc<Channel<T>>,
    #[cfg(feature = "chaos")]
    chaos: crate::chaos::ChaosState,
}

// SAFETY: moving the unique producer endpoint to another thread is fine for
// T: Send; the endpoint is !Sync by construction (UnsafeCell access).
unsafe impl<T: Send> Send for Sender<T> {}

/// The receiving half of an unbounded SPSC queue.
///
/// Not [`Clone`]: exactly one consumer exists per queue.
pub struct Receiver<T> {
    ch: Arc<Channel<T>>,
    #[cfg(feature = "chaos")]
    chaos: crate::chaos::ChaosState,
}

unsafe impl<T: Send> Send for Receiver<T> {}

/// Creates an unbounded SPSC queue.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let seg = Segment::new_boxed();
    let ch = Arc::new(Channel {
        tail: CachePadded::new(UnsafeCell::new((seg, 0))),
        head: CachePadded::new(UnsafeCell::new((seg, 0))),
    });
    (
        Sender {
            ch: Arc::clone(&ch),
            #[cfg(feature = "chaos")]
            chaos: crate::chaos::ChaosState::new("spsc-send"),
        },
        Receiver {
            ch,
            #[cfg(feature = "chaos")]
            chaos: crate::chaos::ChaosState::new("spsc-recv"),
        },
    )
}

impl<T> Sender<T> {
    /// Enqueues a value. Never blocks and never fails; memory is the only
    /// limit (the paper's asynchronous queues "fill up quickly", which is
    /// the desirable state — ample available work).
    pub fn send(&mut self, value: T) {
        unsafe {
            let (mut seg, mut idx) = self.ch.tail.with(|p| *p);
            if idx == SEG {
                let new = Segment::new_boxed();
                (*seg).next.store(new, Ordering::Release);
                seg = new;
                idx = 0;
            }
            (*seg).data[idx].with_mut(|slot| (*slot).write(value));
            // Chaos: widen the window between writing a slot and
            // publishing it, so consumers exercise the not-yet-visible
            // path that a well-timed preemption would otherwise hit
            // only rarely.
            #[cfg(feature = "chaos")]
            self.chaos.maybe_yield();
            (*seg).published.store(idx + 1, Ordering::Release);
            self.ch.tail.with_mut(|p| *p = (seg, idx + 1));
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeues the oldest value, or `None` if the queue is currently
    /// empty.
    pub fn recv(&mut self) -> Option<T> {
        // Chaos: occasionally stall the consumer so producer-side
        // backlogs (and segment-boundary races) are exercised.
        #[cfg(feature = "chaos")]
        self.chaos.maybe_yield();
        unsafe {
            loop {
                let (seg, idx) = self.ch.head.with(|p| *p);
                if idx == SEG {
                    let next = (*seg).next.load(Ordering::Acquire);
                    if next.is_null() {
                        return None;
                    }
                    // The producer has moved on; this segment is fully
                    // consumed and will never be touched again.
                    Segment::free(seg);
                    self.ch.head.with_mut(|p| *p = (next, 0));
                    continue;
                }
                let published = (*seg).published.load(Ordering::Acquire);
                if idx < published {
                    let value = (*seg).data[idx].with(|slot| (*slot).assume_init_read());
                    self.ch.head.with_mut(|p| *p = (seg, idx + 1));
                    return Some(value);
                }
                return None;
            }
        }
    }

    /// True if a `recv` right now would return `None`. Advisory only: the
    /// producer may enqueue immediately afterwards.
    pub fn is_empty(&self) -> bool {
        unsafe {
            let (seg, idx) = self.ch.head.with(|p| *p);
            if idx == SEG {
                return (*seg).next.load(Ordering::Acquire).is_null();
            }
            idx >= (*seg).published.load(Ordering::Acquire)
        }
    }
}

#[cfg(all(test, not(parsim_model)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let (mut tx, mut rx) = channel();
        for i in 0..1000 {
            tx.send(i);
        }
        for i in 0..1000 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert_eq!(rx.recv(), None);
        assert!(rx.is_empty());
    }

    #[test]
    fn interleaved_send_recv_crosses_segments() {
        let (mut tx, mut rx) = channel();
        let mut expected = 0u64;
        for round in 0..50u64 {
            for i in 0..((round % 7) * 37 + 13) {
                tx.send(round * 10_000 + i);
            }
            while let Some(v) = rx.recv() {
                let round_got = v / 10_000;
                let idx = v % 10_000;
                assert_eq!(v, round_got * 10_000 + idx);
                expected += 1;
            }
        }
        assert!(expected > SEG as u64 * 2, "test must cross segments");
    }

    #[test]
    fn cross_thread_sequence_preserved() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = channel();
        let producer = thread::spawn(move || {
            for i in 0..N {
                tx.send(i);
            }
        });
        let mut next = 0u64;
        while next < N {
            if let Some(v) = rx.recv() {
                assert_eq!(v, next, "fifo order violated");
                next += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.recv(), None);
    }

    struct DropCounter<'a>(&'a AtomicUsize, #[allow(dead_code)] u64);
    impl Drop for DropCounter<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn unconsumed_items_are_dropped_exactly_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        DROPS.store(0, Ordering::Relaxed);
        {
            let (mut tx, mut rx) = channel();
            for i in 0..(SEG as u64 * 3 + 17) {
                tx.send(DropCounter(&DROPS, i));
            }
            // Consume a prefix spanning one segment boundary.
            for _ in 0..(SEG + 5) {
                let item = rx.recv().unwrap();
                drop(item);
            }
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), SEG * 3 + 17);
    }

    #[test]
    fn sender_dropping_first_still_delivers() {
        let (mut tx, mut rx) = channel();
        for i in 0..10 {
            tx.send(i);
        }
        drop(tx);
        for i in 0..10 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn zero_item_channel_drops_cleanly() {
        let (tx, rx) = channel::<String>();
        drop(tx);
        drop(rx);
    }
}
