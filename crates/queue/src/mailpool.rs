//! Barrier-separated n×n buffer recycling pool for the synchronous
//! engine's mailboxes.

use crate::pad::CachePadded;

/// One pool slot: a stack of recycled buffers behind a padded cell.
type MailSlot<T> = CachePadded<std::cell::UnsafeCell<Vec<Vec<T>>>>;

/// An n×n grid of recycled-buffer stacks, one per mailbox slot.
///
/// Slot `(a, b)` is written by worker `a` in one phase and read by
/// worker `b` in another; the engine's barrier between phases is the
/// synchronization, exactly like the mailbox slots themselves.
pub struct MailPool<T> {
    n: usize,
    slots: Box<[MailSlot<T>]>,
}

// SAFETY: each slot is accessed by one thread at a time under the
// caller's barrier discipline (documented on `put`/`take`).
unsafe impl<T: Send> Send for MailPool<T> {}
unsafe impl<T: Send> Sync for MailPool<T> {}

impl<T> MailPool<T> {
    pub fn new(n: usize) -> MailPool<T> {
        MailPool {
            n,
            slots: (0..n * n)
                .map(|_| CachePadded::new(std::cell::UnsafeCell::new(Vec::new())))
                .collect(),
        }
    }

    /// Returns a spent buffer to the `(from, to)` slot.
    ///
    /// # Safety
    ///
    /// No other thread may access slot `(from, to)` concurrently; the
    /// caller's phase barrier provides the separation.
    pub unsafe fn put(&self, from: usize, to: usize, buf: Vec<T>) {
        (*self.slots[from * self.n + to].get()).push(buf);
    }

    /// Takes a recycled buffer from the `(from, to)` slot, if any.
    ///
    /// # Safety
    ///
    /// Same exclusivity contract as [`put`](MailPool::put).
    pub unsafe fn take(&self, from: usize, to: usize) -> Option<Vec<T>> {
        (*self.slots[from * self.n + to].get()).pop()
    }
}

#[cfg(all(test, not(parsim_model)))]
mod tests {
    use super::*;

    #[test]
    fn mail_pool_recycles_per_slot() {
        let pool: MailPool<u32> = MailPool::new(2);
        // SAFETY: single-threaded — trivially phase-separated.
        unsafe {
            assert!(pool.take(0, 1).is_none());
            pool.put(0, 1, vec![7, 8]);
            assert_eq!(pool.take(0, 1), Some(vec![7, 8]));
            assert!(pool.take(1, 0).is_none(), "slots are directional");
        }
    }
}
