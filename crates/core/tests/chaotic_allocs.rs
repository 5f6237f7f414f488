//! What one `ChaoticAsync` run allocates, as a budget.
//!
//! The engine's per-run state is a handful of flat tables indexed by pin
//! or element (`Wiring::pins_in` / `pins_out` and the run tables behind
//! `ElemRun`), so a run's heap allocations no longer scale with five
//! `Vec`s per element. On `pipelined_cpu(16, 128)` to tick 512 at one
//! thread, a warm run made 23 491 allocations (fresh ones and
//! reallocations) when wiring and run state were per-element `Vec`s, and
//! 2 745 with the pin tables, 2 596 of them one `consumed` box per node.
//! With the consumption cursors in one flat table (`behavior::Lists`) it
//! makes 153, none of them per node or per element. The budget is 200:
//! the count plus about a third, room for the standard library's thread
//! start-up to change, not for anything that grows with the netlist. This
//! file holds one test only: the counting allocator sees every thread of
//! the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use parsim_circuits::pipelined_cpu;
use parsim_core::{ChaoticAsync, SimConfig};
use parsim_logic::Time;

/// Counts every fresh allocation and every reallocation. `Relaxed`: the
/// counter publishes no other data, and the test reads it only before the
/// run starts its workers and after it has joined them.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc`/`realloc` above with this `layout`.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_chaotic_run_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 200;
    let cpu = pipelined_cpu(16, 128).unwrap();
    let watch = cpu.pc.iter().chain(&cpu.wb_result).copied();
    let cfg = SimConfig::new(Time(512)).watch_all(watch).threads(1);
    // The warm-up fills the behavior-list chunk pool and any lazily built
    // process state, so the counted run sees what every later run sees.
    let warm = ChaoticAsync::run(&cpu.netlist, &cfg).unwrap();

    let before = ALLOCS.load(Ordering::Relaxed);
    let r = ChaoticAsync::run(&cpu.netlist, &cfg).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(r.metrics.events_processed, warm.metrics.events_processed);
    println!(
        "{allocs} allocations for {} elements, {} nodes",
        cpu.netlist.num_elements(),
        cpu.netlist.num_nodes()
    );
    assert!(
        allocs <= BUDGET,
        "{allocs} allocations in one run, budget {BUDGET}"
    );
}
