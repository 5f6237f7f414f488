//! Shared-memory slices with phase-disciplined access.
//!
//! The parallel engines partition mutable state so that, at any instant,
//! each slot has at most one writer (enforced by barriers or by the
//! activation state machine). [`SharedSlice`] is the thin unsafe cell that
//! makes such state shareable across `std::thread::scope` threads.

use std::cell::UnsafeCell;

/// A heap slice of `UnsafeCell`s that may be shared across threads.
///
/// # Safety discipline
///
/// `SharedSlice` itself performs no synchronization. Callers must
/// guarantee, by construction, that no slot is accessed mutably by two
/// threads at once and that cross-thread visibility is established by an
/// external synchronization edge (a barrier, an atomic publish, or a
/// channel transfer). Every engine in this crate documents which mechanism
/// protects which slice.
pub(crate) struct SharedSlice<T> {
    slots: Box<[UnsafeCell<T>]>,
}

// SAFETY: access discipline is the caller's responsibility (see type docs);
// the type is only used inside this crate under barrier/activation
// protocols.
unsafe impl<T: Send> Sync for SharedSlice<T> {}
unsafe impl<T: Send> Send for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// Builds a slice from per-slot initial values.
    pub fn new(values: Vec<T>) -> SharedSlice<T> {
        values.into_iter().collect()
    }

    /// Returns a shared reference to slot `i`.
    ///
    /// # Safety
    ///
    /// No thread may concurrently write slot `i`, and a synchronization
    /// edge must order this read after the last write.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> &T {
        &*self.slots[i].get()
    }

    /// Returns an exclusive reference to slot `i`.
    ///
    /// # Safety
    ///
    /// No other thread may concurrently access slot `i`, and
    /// synchronization edges must order accesses across phases.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        &mut *self.slots[i].get()
    }

    /// The slots' values, once no thread shares the slice.
    pub fn into_vec(self) -> Vec<T> {
        let slots = self.slots.into_vec().into_iter();
        slots.map(UnsafeCell::into_inner).collect()
    }

    /// Returns an exclusive reference to the contiguous slot range.
    ///
    /// # Safety
    ///
    /// As for [`SharedSlice::get_mut`], applied to every slot in `range`.
    /// `UnsafeCell::raw_get` yields the slots' contents with write
    /// permission, and `UnsafeCell<T>` has the same layout as `T`.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &mut [T] {
        let slots = &self.slots[range];
        // SAFETY: the pointer and length come from a live in-bounds
        // subslice; exclusivity is the caller's guarantee (see above).
        std::slice::from_raw_parts_mut(UnsafeCell::raw_get(slots.as_ptr()), slots.len())
    }
}

impl<T> FromIterator<T> for SharedSlice<T> {
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> SharedSlice<T> {
        SharedSlice {
            slots: values.into_iter().map(UnsafeCell::new).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_threaded_access() {
        let s: SharedSlice<usize> = (0..4).map(|i| i * 10).collect();
        unsafe {
            *s.get_mut(2) = 99;
            assert_eq!(*s.get(2), 99);
            assert_eq!(*s.get(0), 0);
            s.slice_mut(1..3).copy_from_slice(&[7, 8]);
        }
        assert_eq!(s.into_vec(), [0, 7, 8, 30]);
    }

    #[test]
    fn disjoint_parallel_writes() {
        let s = SharedSlice::new(vec![0usize; 8]);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let s = &s;
                let done = &done;
                scope.spawn(move || {
                    for i in (t..8).step_by(2) {
                        // SAFETY: threads write disjoint (odd/even) slots;
                        // the join below is the synchronization edge.
                        unsafe { *s.get_mut(i) = i + 1 };
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
        });
        for i in 0..8 {
            // SAFETY: threads joined; exclusive access.
            assert_eq!(unsafe { *s.get(i) }, i + 1);
        }
    }
}
