//! Every behavior-list chunk a `ChaoticAsync` run takes goes back to the
//! process-wide free-list: after clean runs and after a `SimError` early
//! exit, the live-chunk count is back where it started and the free-list
//! holds at most `POOL_CAP` chunks. A warm free-list — chunks still full
//! of an earlier run's events — changes no waveform.
//!
//! `live_chunks` and `pooled_chunks` are process-global, so every test
//! here serializes on one mutex: an assertion must not observe another
//! test's transient chunks. `live_chunks` only counts in debug builds;
//! under `--release` it reads 0 and those assertions hold vacuously.

use std::sync::Mutex;

use parsim_circuits::{gate_multiplier, inverter_array, pipelined_cpu};
use parsim_core::behavior::{live_chunks, pooled_chunks, POOL_CAP};
use parsim_core::{assert_equivalent, ChaoticAsync, EventDriven, FaultPlan, SimConfig, SimError};
use parsim_logic::Time;
use parsim_netlist::{Netlist, NodeId};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn assert_returned(live_before: i64, tag: &str) {
    assert_eq!(live_chunks(), live_before, "{tag}: chunks leaked");
    assert!(pooled_chunks() <= POOL_CAP, "{tag}: {} chunks pooled", pooled_chunks());
}

/// A run whose lists hold more than `POOL_CAP` chunks at once (every node
/// of the array takes one before the first activation). It leaves the
/// free-list full; returns the chunks it handed out.
fn fill_pool() -> u64 {
    let arr = inverter_array(128, 130, 2).unwrap();
    assert!(arr.netlist.num_nodes() > POOL_CAP);
    let r = ChaoticAsync::run(&arr.netlist, &SimConfig::new(Time(4))).unwrap();
    r.metrics.arena.chunk_allocs
}

fn watch_all(netlist: &Netlist, end: Time) -> SimConfig {
    SimConfig::new(end).watch_all((0..netlist.num_nodes()).map(NodeId::from_index))
}

/// The probe itself: each list's head chunk is live until the lists drop.
#[test]
#[cfg(debug_assertions)]
fn probe_counts_allocation_and_drop() {
    use parsim_core::behavior::{ChunkAlloc, Lists};

    let _g = serial();
    let before = live_chunks();
    let lists = Lists::new([1, 0], &mut ChunkAlloc::default());
    assert_eq!(live_chunks(), before + 2);
    drop(lists);
    assert_returned(before, "two lists");
}

#[test]
fn clean_runs_return_every_chunk() {
    let _g = serial();
    let arr = inverter_array(8, 8, 2).unwrap();
    let before = live_chunks();
    for threads in [1usize, 2, 4, 8] {
        let cfg = SimConfig::new(Time(400)).threads(threads);
        let m = ChaoticAsync::run(&arr.netlist, &cfg).unwrap().metrics;
        let a = &m.arena;
        assert!(a.chunk_frees > 0, "x{threads}: run too short to exercise the GC");
        assert!(a.chunk_frees < a.chunk_allocs, "x{threads}: tail chunks are never GC'd");
        assert_eq!(m.gc_chunks_freed, a.chunk_frees, "x{threads}: one count of GC'd chunks");
        assert_returned(before, &format!("x{threads} clean run"));
    }
}

/// A worker panic mid-run unwinds past live chunks, a worker's stash and
/// in-flight queue segments; the engine's teardown must still return
/// every chunk.
#[test]
fn early_exit_returns_every_chunk() {
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
        assert_returned(before, &format!("x{threads} SimError path"));
    }
}

/// The retained memory is bounded by the one constant: a run that hands
/// out more than `POOL_CAP` chunks leaves exactly `POOL_CAP` pooled and
/// frees the rest.
#[test]
fn a_run_beyond_the_cap_leaves_exactly_the_cap_pooled() {
    let _g = serial();
    let before = live_chunks();
    let handed_out = fill_pool();
    assert!(handed_out > POOL_CAP as u64, "{handed_out} chunks handed out");
    assert_eq!(pooled_chunks(), POOL_CAP);
    assert_returned(before, "beyond the cap");
}

/// Recycled chunks carry stale events and stale links; no run may see
/// them.
#[test]
fn warm_pool_runs_match_the_oracle() {
    let _g = serial();
    let m = gate_multiplier(4, &[(3, 5), (15, 15), (9, 6)], 64).unwrap();
    let cpu = pipelined_cpu(8, 48).unwrap();
    let arr = inverter_array(8, 8, 2).unwrap();
    let cases = [
        ("multiplier", &m.netlist, m.schedule_end()),
        ("cpu", &cpu.netlist, Time(400)),
        ("array", &arr.netlist, Time(400)),
    ];
    fill_pool();
    let before = live_chunks();
    for (name, netlist, end) in cases {
        let cfg = watch_all(netlist, end);
        let oracle = EventDriven::run(netlist, &cfg).unwrap();
        for threads in [1usize, 2, 4] {
            let tag = format!("{name} x{threads} on a warm pool");
            let r = ChaoticAsync::run(netlist, &cfg.clone().threads(threads)).unwrap();
            assert_equivalent(&oracle, &r, &tag);
            assert_returned(before, &tag);
        }
    }
}

/// A panic on a warm pool returns every chunk, and the next run on the
/// same pool is clean.
#[test]
fn panic_on_a_warm_pool_returns_every_chunk() {
    let _g = serial();
    let arr = inverter_array(8, 8, 1).unwrap();
    fill_pool();
    let before = live_chunks();
    let cfg = watch_all(&arr.netlist, Time(1_000)).threads(2);
    let err = ChaoticAsync::run(&arr.netlist, &cfg.clone().with_fault(FaultPlan::panic_at(1, 3)))
        .expect_err("injected panic must surface as an error");
    assert!(matches!(err, SimError::WorkerPanicked { worker: 1, .. }), "got {err}");
    assert_returned(before, "panic on a warm pool");
    let oracle = EventDriven::run(&arr.netlist, &cfg).unwrap();
    let r = ChaoticAsync::run(&arr.netlist, &cfg).unwrap();
    assert_equivalent(&oracle, &r, "clean run after the panic");
    assert_returned(before, "clean run after the panic");
}
