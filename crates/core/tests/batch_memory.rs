//! What a batch holds in memory while it runs, as a bound.
//!
//! `run_batch` hands back one encoded change list per (lane, watched
//! node), `Waveform::heap_bytes` each: 8.25 bytes a one-bit change. Until
//! the step loop ends it may hold those changes packed — one record per
//! (slot, step), not per lane — so its peak live heap is the returned
//! lists plus a fraction of them, not several copies: 1.64 × as one
//! 256-lane chunk, 1.19 × as three 64-lane chunks (the packed logs weigh
//! more against 8.25-byte changes than against the 32-byte pairs they
//! were once stored as, which read 1.17 × and 1.05 × in this run, at 2.8 ×
//! the peak bytes). The per-lane record stream before the packed logs read
//! 3.56 × and 2.21 × of pairs. The test checks three shapes: one chunk at
//! one thread, three 64-lane chunks, and two 96-lane chunks running at
//! once on two threads, each holding its own arenas and packed logs. This
//! file holds one test only: the counting allocator sees every thread of
//! the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use parsim_circuits::gate_multiplier;
use parsim_core::{CompiledMode, LaneStimulus, SimConfig};
use parsim_logic::{Time, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Live heap bytes and their high-water mark. `Relaxed` throughout: the
/// two counters publish no other data, and the test reads them only
/// before `run_batch` starts its workers and after it has joined them.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc`/`realloc` above with this `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn batch_peak_heap_is_bounded_by_the_waveforms_it_returns() {
    const BITS: usize = 8;
    const PERIOD: u64 = 128;
    const PAIRS: usize = 96;
    const LANES: usize = 192;

    let base = gate_multiplier(BITS, &[(0, 0); PAIRS], PERIOD).unwrap();
    let end = base.schedule_end();
    let mut watch = base.product.clone();
    watch.extend(base.a_inputs.iter().chain(&base.b_inputs).copied());

    // Every lane multiplies its own operand sequence.
    let mut rng = SmallRng::seed_from_u64(0x6d65_6d6f);
    let stimuli: Vec<LaneStimulus> = (0..LANES)
        .map(|_| {
            let operands: Vec<u64> =
                (0..PAIRS).map(|_| rng.gen_range(0..1u64 << (2 * BITS))).collect();
            let mut stim = LaneStimulus::base();
            for (bit, &node) in base.a_inputs.iter().chain(&base.b_inputs).enumerate() {
                let sched = operands
                    .iter()
                    .enumerate()
                    .map(|(k, op)| (Time(k as u64 * PERIOD), Value::bit((op >> bit) & 1 == 1)))
                    .collect();
                stim = stim.drive(node, sched);
            }
            stim
        })
        .collect();
    let cfg = SimConfig::new(end).watch_all(watch);

    // One 192-lane chunk, then 64 lanes per word: 192 lanes as three
    // chunks, then two threads: two 96-lane chunks at once. All passes
    // stay in this one test, because the counting allocator is
    // process-wide and a parallel test would move the peak.
    for cfg in [cfg.clone(), cfg.clone().with_lane_width(64), cfg.threads(2)] {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let batch = CompiledMode::run_batch(&base.netlist, &cfg, &stimuli).unwrap();
        let peak = PEAK.load(Ordering::Relaxed) - before;
        let width = batch.metrics.lane_width;
        if cfg.lane_width == Some(64) {
            assert_eq!(width, 64, "192 lanes at lane width 64 run as 64-lane chunks");
        }
        if cfg.threads == 2 {
            assert_eq!(width, 128, "192 lanes at two threads run as two 96-lane chunks");
            let ran = batch.metrics.per_thread.iter().filter(|t| t.evaluations > 0);
            assert_eq!(ran.count(), 2, "both chunks ran, one per worker");
        }

        let returned: usize = batch
            .lanes
            .iter()
            .flat_map(|lane| lane.waveforms())
            .map(|w| w.heap_bytes())
            .sum();
        // Big enough that the 4 MiB of slack (value arenas, schedules, the
        // packed logs' own headers) cannot hide a second copy of the result.
        assert!(returned > 8 << 20, "only {returned} bytes of waveforms came back");
        assert!(
            peak <= 2 * returned + (4 << 20),
            "run_batch at lane width {width}, {} threads, peaked at {peak} live heap \
             bytes for {returned} bytes of waveforms ({:.2}x)",
            cfg.threads,
            peak as f64 / returned as f64
        );
    }
}
