//! Fixed-capacity element-id batches for the mailbox grid.
//!
//! One element id per SPSC slot would make every cross-processor wake pay
//! a full cross-core publication. An [`IdBatch`] lets one grid slot carry
//! many ids: the sender accumulates foreign fan-out into a small
//! per-destination buffer and flushes it at activation end, amortizing the
//! release/acquire traffic over the whole batch.
//!
//! The capacity is chosen so the struct fills exactly one cache line
//! (15 × 4-byte ids + 1-byte length + padding = 64 bytes), matching the
//! SPSC ring's slot granularity.

/// Ids per batch: one cache line's worth.
pub const BATCH_CAPACITY: usize = 15;

/// A fixed-capacity batch of element ids carried in one grid slot.
///
/// # Examples
///
/// ```
/// use parsim_queue::IdBatch;
///
/// let mut b = IdBatch::new();
/// assert!(b.push(3));
/// assert!(b.push(7));
/// assert_eq!(b.as_slice(), &[3, 7]);
/// while !b.is_full() {
///     b.push(0);
/// }
/// assert!(!b.push(9), "a full batch rejects further ids");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdBatch {
    len: u8,
    ids: [u32; BATCH_CAPACITY],
}

impl Default for IdBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl IdBatch {
    /// Creates an empty batch.
    pub const fn new() -> IdBatch {
        IdBatch {
            len: 0,
            ids: [0; BATCH_CAPACITY],
        }
    }

    /// Appends one id. Returns `false` (leaving the batch unchanged) when
    /// the batch is full — the caller must flush first.
    pub fn push(&mut self, id: u32) -> bool {
        if self.is_full() {
            return false;
        }
        self.ids[self.len as usize] = id;
        self.len += 1;
        true
    }

    /// The ids accumulated so far, oldest first.
    pub fn as_slice(&self) -> &[u32] {
        &self.ids[..self.len as usize]
    }

    /// Number of ids in the batch.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no ids have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the batch holds [`BATCH_CAPACITY`] ids.
    pub fn is_full(&self) -> bool {
        self.len as usize == BATCH_CAPACITY
    }

    /// Removes and returns all ids, leaving the batch empty and reusable.
    pub fn take(&mut self) -> IdBatch {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_one_cache_line() {
        assert_eq!(std::mem::size_of::<IdBatch>(), 64);
    }

    #[test]
    fn push_until_full_then_reject() {
        let mut b = IdBatch::new();
        assert!(b.is_empty());
        for i in 0..BATCH_CAPACITY as u32 {
            assert!(b.push(i), "push {i} within capacity");
        }
        assert!(b.is_full());
        assert!(!b.push(99));
        let expected: Vec<u32> = (0..BATCH_CAPACITY as u32).collect();
        assert_eq!(b.as_slice(), expected.as_slice());
    }

    #[test]
    fn take_resets_for_reuse() {
        let mut b = IdBatch::new();
        b.push(5);
        b.push(6);
        let taken = b.take();
        assert_eq!(taken.as_slice(), &[5, 6]);
        assert!(b.is_empty());
        assert!(b.push(7));
        assert_eq!(b.as_slice(), &[7]);
    }
}
