//! How many heap allocations `Netlist::from_text` makes, as a bound.
//!
//! On the text of `pipelined_cpu(16, 128)` (2 596 nodes, 2 596 elements)
//! the parser used to make 18 335 allocation calls, reallocations
//! included: every name was stored twice, as map key and as node or
//! element, and each element's two port lists grew as they were
//! collected, and every fan-out list grew one reader at a time. Now each
//! name is one allocation shared by the two, an element's ports are one
//! list of exact length, and each node's fan-out list is allocated once,
//! at its final length: the count reads 10 389, about two per node (name,
//! fan-out) and two per element (name, ports).
//! This file holds one test only: the counting allocator sees every
//! thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use parsim_circuits::pipelined_cpu;
use parsim_netlist::Netlist;

/// Allocation calls, reallocations included. `Relaxed`: the counter
/// publishes no other data, and the test reads it on its own thread.
struct CountingAlloc;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc`/`realloc` above with this `layout`.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn from_text_allocates_at_most_the_budget_on_the_cpu_text() {
    const BUDGET: usize = 10_389;
    let text = pipelined_cpu(16, 128).unwrap().netlist.to_text();
    let before = CALLS.load(Ordering::Relaxed);
    let netlist = Netlist::from_text(&text).unwrap();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(netlist.num_elements(), 2596);
    assert!(
        calls <= BUDGET,
        "from_text made {calls} allocation calls, over the budget of {BUDGET}"
    );
}
