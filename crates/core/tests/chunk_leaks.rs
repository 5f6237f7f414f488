//! No behavior-list chunk outlives a `ChaoticAsync` run: after clean runs
//! and after a `SimError` early exit, the process-wide live-chunk count
//! is back where it started.
//!
//! `live_chunks` is a process-global counter, so every test here
//! serializes on one mutex: a leak assertion must not observe another
//! test's transient chunks. It only counts in debug builds; under
//! `--release` it reads 0 and the assertions hold vacuously.

use std::sync::Mutex;

use parsim_circuits::inverter_array;
use parsim_core::behavior::{live_chunks, ChunkAlloc, NodeState};
use parsim_core::{ChaoticAsync, FaultPlan, SimConfig, SimError};
use parsim_logic::Time;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The probe itself: a node's head chunk is live until the node drops.
#[test]
#[cfg(debug_assertions)]
fn probe_counts_allocation_and_drop() {
    let _g = serial();
    let before = live_chunks();
    let node = NodeState::new(1, &mut ChunkAlloc::default());
    assert_eq!(live_chunks(), before + 1);
    drop(node);
    assert_eq!(live_chunks(), before);
}

#[test]
fn clean_runs_leak_no_chunks() {
    let _g = serial();
    let arr = inverter_array(8, 8, 2).unwrap();
    let before = live_chunks();
    for threads in [1usize, 2, 4, 8] {
        let cfg = SimConfig::new(Time(400)).threads(threads);
        let r = ChaoticAsync::run(&arr.netlist, &cfg).unwrap();
        let a = &r.metrics.arena;
        assert!(a.chunk_frees > 0, "x{threads}: run too short to exercise the GC");
        assert!(a.chunk_frees < a.chunk_allocs, "x{threads}: tail chunks are never GC'd");
        assert_eq!(live_chunks(), before, "x{threads}: chunks leaked by a clean run");
    }
}

/// A worker panic mid-run unwinds past live chunks and in-flight queue
/// segments; the engine's teardown must still free every chunk.
#[test]
fn early_exit_leaks_no_chunks() {
    let _g = serial();
    let arr = inverter_array(8, 8, 1).unwrap();
    let before = live_chunks();
    for threads in [2usize, 4] {
        let victim = threads - 1;
        let cfg = SimConfig::new(Time(1_000))
            .threads(threads)
            .with_fault(FaultPlan::panic_at(victim, 3));
        let err = ChaoticAsync::run(&arr.netlist, &cfg)
            .expect_err("injected panic must surface as an error");
        assert!(
            matches!(err, SimError::WorkerPanicked { worker, .. } if worker == victim),
            "x{threads}: got {err}"
        );
        assert_eq!(live_chunks(), before, "x{threads}: chunks leaked on the SimError path");
    }
}
