//! Width-generic bit-plane executor for the compiled instruction stream.
//!
//! Node values live as bit-plane word groups ([`WideLanes<W>`]): `W`
//! 64-bit plane words per node bit, one *independent simulation* per
//! lane, `64·W` lanes per kernel invocation. Gates, muxes, flip-flops,
//! latches, and tri-states evaluate natively as word-group boolean
//! algebra (see [`parsim_logic::wide`]: one set of `[u64; W]` loops for
//! every `W` and every host, no runtime dispatch); the remaining RTL ops
//! (adders, memories, resolvers, …) fall back to the scalar evaluator
//! lane by lane, so every element kind is supported and every lane stays
//! bit-identical to a scalar run of that lane's stimulus.
//!
//! An arbitrary number of stimulus lanes is *chunked* over one word
//! width: a 1000-lane batch at width 512 runs as two 512-lane chunks, the
//! ragged tail masked per word ([`wide::mask_first`]). The width is
//! [`SimConfig::lane_width`] when set, else the host's default
//! ([`wide::native_lane_width`]); the last chunk drops to the narrowest
//! word that covers its lanes.
//!
//! Each step is the scalar executor's: apply, [`SpinBarrier`], evaluate,
//! [`WriteMark::note`], [`SpinBarrier`], [`WriteMark::quiet`], so a step
//! that queued no write on any worker jumps to the next stimulus. The
//! barrier + `WriteMark` agreement is model-checked in
//! `crates/queue/tests/model.rs`.
//!
//! Each chunk's workers run through `exec::run_workers`, as every parallel
//! engine's do, so watchdog and fault containment are shared and the
//! deadline covers all chunks of a batch. Activity gating and checkpoint
//! segments (capture/resume of every lane at a cut,
//! [`run_batch_segment`]) mirror `kernel/scalar.rs`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parsim_checkpoint::{EngineSnapshot, PendingEvent};
use parsim_logic::wide::{self, LaneMask, WideLanes, LANE_WIDTHS};
use parsim_logic::{evaluate, ElemState, Time, Value};
use parsim_netlist::compile::{CompiledProgram, Opcode};
use parsim_netlist::{Netlist, NodeId};
use parsim_queue::{SpinBarrier, WriteMark};
use parsim_telemetry::{Counter, Gauge, Tally, TelemetryCtx};

use crate::checkpoint::{
    check_resume, generator_events, in_flight_events, new_run_ctx, override_events, start_state,
    Bounds,
};
use crate::compiled::{BatchResult, LaneStimulus};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::exec::run_workers;
use crate::fault::FaultAction;
use crate::kernel::{credit_quiet_steps, DirtyMask, ExecPlan};
use crate::metrics::Metrics;
use crate::shared::SharedSlice;
use crate::waveform::{SimResult, WatchSlots};

/// Engine tag used in [`SimError`] values.
const ENGINE: &str = "compiled-mode";

fn invalid(reason: String) -> SimError {
    SimError::InvalidConfig { reason }
}

/// One worker's change log of one watched slot, still packed: record `r`
/// says that at step `recs[r].0` (strictly increasing) the lanes of
/// `recs[r].1` (never empty) took the values in the `r`-th slot-width run
/// of `planes`. A step that changes 55 lanes of a slot writes one record,
/// not 55; the per-lane work is [`transpose_slot`]'s, once, after the loop.
#[derive(Default)]
struct SlotLog<const W: usize> {
    recs: Vec<(u64, LaneMask<W>)>,
    planes: Vec<WideLanes<W>>,
}

impl<const W: usize> SlotLog<W> {
    /// Records `new` as what the lanes of `diff` took at step `t`.
    #[inline]
    fn record(&mut self, t: u64, diff: &LaneMask<W>, new: &[WideLanes<W>]) {
        if wide::mask_any(diff) {
            self.recs.push((t, *diff));
            self.planes.extend_from_slice(new);
        }
    }
}

/// One masked write of a chunk's stimulus schedule: at step `t`, `slot`
/// takes `planes[off..off + width]` in the lanes of `mask`.
struct GenWrite<const W: usize> {
    t: u64,
    slot: u32,
    mask: LaneMask<W>,
    off: usize,
}

/// `watch_of` entry of a slot nobody watches; indexes past every log list.
const UNWATCHED: u32 = u32::MAX;

/// Transposes the packed logs of one watched slot, `width` bits wide, into
/// one change list per lane `0..chunk_lanes`, each allocated once at its
/// exact final length.
///
/// `logs` must already be in time order end to end. They are: a slot has
/// one writer per step and at most two over a segment — thread 0 (all of a
/// generator-driven slot; an instruction-driven one only at a resumed
/// segment's first step, for injected pending events) and the thread that
/// owns its driving instruction, whose pending set is still empty at that
/// first step — so thread 0's log followed by the owner's needs no sort.
fn transpose_slot<const W: usize>(
    logs: &[&SlotLog<W>],
    width: usize,
    chunk_lanes: usize,
) -> Vec<Vec<(Time, Value)>> {
    debug_assert!(
        logs.iter()
            .flat_map(|log| log.recs.iter().map(|r| r.0))
            .is_sorted_by(|a, b| a < b),
        "a watched slot's logs must concatenate in strictly increasing step order"
    );
    let mut counts = vec![0usize; chunk_lanes];
    for log in logs {
        for (_, mask) in &log.recs {
            wide::for_each_lane(mask, |lane| counts[lane as usize] += 1);
        }
    }
    let mut lists: Vec<Vec<(Time, Value)>> =
        counts.into_iter().map(Vec::with_capacity).collect();
    for log in logs {
        for ((t, mask), planes) in log.recs.iter().zip(log.planes.chunks_exact(width)) {
            wide::for_each_lane(mask, |lane| {
                lists[lane as usize].push((Time(*t), wide::gather(planes, lane)));
            });
        }
    }
    lists
}

/// Per-worker chunk results: one packed log per watched slot and the
/// unapplied pending set (slot list + flat plane arena) held when the
/// segment ended — the unit-delay events for `cut + 1`, for checkpoint
/// capture. Counters travel through the worker's shared telemetry shard.
type ChunkWorkerOutput<const W: usize> = (Vec<SlotLog<W>>, Vec<u32>, Vec<WideLanes<W>>);

/// What the chunks of a batch add to, lane by lane: one change list per
/// watched node in watch order, and a snapshot if the segment captures.
struct BatchOut {
    lanes: Vec<Vec<Vec<(Time, Value)>>>,
    snapshots: Option<Vec<EngineSnapshot>>,
}

/// Everything shared by every chunk of one batch run.
struct BatchCtx<'a> {
    netlist: &'a Netlist,
    config: &'a SimConfig,
    prog: &'a CompiledProgram,
    plan: &'a ExecPlan,
    /// The watched slots, in watch (node) order.
    watch_slots: &'a [u32],
    /// Per slot: its position in `watch_slots`, or [`UNWATCHED`].
    watch_of: &'a [u32],
    state_offset: &'a [u32],
    max_out_bits: usize,
    /// Expanded base generator schedules (events at `t <= t0` already
    /// filtered out on resume).
    base_events: &'a [(u32, Vec<(u64, Value)>)],
    /// Per-lane overrides, validated; expanded chunk by chunk.
    stimuli: &'a [LaneStimulus],
    /// Resume-injected pending events: `(global lane, time, slot, value)`.
    injections: &'a [(usize, u64, u32, Value)],
    /// Per-slot bitset (words of 64 global lanes) of overridden lanes.
    overridden: &'a HashMap<u32, Vec<u64>>,
    resume: Option<&'a [EngineSnapshot]>,
    /// In-flight resume events beyond the cut, per global lane; copied
    /// into the next snapshot untouched.
    carry: &'a [Vec<PendingEvent>],
    bounds: Bounds,
    /// Every lane's start state when there is no resume snapshot (built
    /// only then).
    fresh: Option<&'a EngineSnapshot>,
    telemetry: &'a TelemetryCtx,
}

impl BatchCtx<'_> {
    /// The state global lane `lane` starts the segment from.
    fn start(&self, lane: usize) -> &EngineSnapshot {
        match self.resume {
            Some(snaps) => &snaps[lane],
            None => self.fresh.expect("a fresh batch has a fresh start state"),
        }
    }
}

/// Selects the batch lane width: explicit config, else the host's
/// default chunk width.
fn select_lane_width(config: &SimConfig) -> Result<usize, SimError> {
    match config.lane_width {
        Some(w) if !LANE_WIDTHS.contains(&w) => Err(invalid(format!(
            "lane_width must be one of 64, 128, 256, 512 (got {w})"
        ))),
        Some(w) => Ok(w),
        None => Ok(wide::native_lane_width()),
    }
}

/// Runs one checkpoint segment of the packed batch kernel over any number
/// of stimulus lanes; a whole run is the segment from nothing to
/// `end_time` that captures nothing.
///
/// Semantics per lane mirror `kernel/scalar.rs::run_segment` exactly: a
/// snapshot at cut `T` is slot values after the apply phase of step `T`,
/// instruction states after its evaluate phase, and the pending set that
/// evaluate produced (events for `T + 1`). `resume` takes one
/// [`EngineSnapshot`] per lane (all at the same time), and `capture`
/// returns one per lane — each individually interchangeable with a
/// scalar-engine snapshot of that lane's stimulus.
pub(crate) fn run_batch_segment(
    netlist: &Netlist,
    config: &SimConfig,
    prog: &CompiledProgram,
    stimuli: &[LaneStimulus],
    resume: Option<&[EngineSnapshot]>,
    cut: u64,
    capture: bool,
) -> Result<(BatchResult, Option<Vec<EngineSnapshot>>), SimError> {
    let lanes = stimuli.len();
    if lanes == 0 {
        return Err(invalid(
            "run_batch requires at least one stimulus lane (got 0)".to_string(),
        ));
    }
    let start = Instant::now();
    let end = config.end_time.ticks();
    let max_width = select_lane_width(config)?;

    // ---- lane stimulus validation ---------------------------------------
    // `overridden[slot]` = bitset of lanes whose stimulus replaces that
    // slot's base generator schedule.
    let bitset_words = lanes.div_ceil(64);
    let mut overridden: HashMap<u32, Vec<u64>> = HashMap::new();
    for (l, stim) in stimuli.iter().enumerate() {
        stim.validate(netlist)
            .map_err(|reason| invalid(format!("lane {l} {reason}")))?;
        for (node, _) in &stim.overrides {
            let seen = overridden
                .entry(prog.slot_of(*node))
                .or_insert_with(|| vec![0; bitset_words]);
            seen[l / 64] |= 1 << (l % 64);
        }
    }

    // ---- resume validation ----------------------------------------------
    let t0 = match resume {
        Some(snaps) => {
            if snaps.len() != lanes {
                return Err(invalid(format!(
                    "batch resume requires one snapshot per lane ({} snapshots, {lanes} lanes)",
                    snaps.len()
                )));
            }
            let t = snaps[0].time;
            if snaps.iter().any(|s| s.time != t) {
                return Err(invalid(
                    "batch resume snapshots disagree on snapshot time".to_string(),
                ));
            }
            for snap in snaps {
                check_resume(snap, netlist, end, cut)?;
            }
            Some(t)
        }
        None => None,
    };
    let bounds = Bounds { t0, cut, horizon: end, capture };

    // ---- shared schedules and plans -------------------------------------
    // Base generator schedules, expanded once for every chunk.
    let base_events: Vec<(u32, Vec<(u64, Value)>)> = netlist
        .generators()
        .into_iter()
        .map(|gen| {
            let e = netlist.element(gen);
            (prog.slot_of(e.outputs()[0]), generator_events(e.kind(), bounds).collect())
        })
        .collect();
    // Resume snapshots' in-flight events ride the apply phase like
    // generator events; each lane's carry goes to its next snapshot.
    let mut injections: Vec<(usize, u64, u32, Value)> = Vec::new();
    let carry = (0..lanes)
        .map(|l| {
            in_flight_events(resume.map(|snaps| &snaps[l]), cut, |t, node, v| {
                injections.push((l, t, prog.slot_of(NodeId::from_index(node)), v));
                Ok(())
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let plan = ExecPlan::build(prog, config.threads);

    let slots = WatchSlots::new(netlist, &config.watch);
    let watch_slots: Vec<u32> = slots.nodes().map(|n| prog.slot_of(n)).collect();
    let mut watch_of = vec![UNWATCHED; prog.num_slots()];
    for (k, &slot) in watch_slots.iter().enumerate() {
        watch_of[slot as usize] = k as u32;
    }

    // Native sequential state layout (q planes, plus last_clk for edge
    // ops) and the widest output scratch any instruction needs.
    let mut state_offset: Vec<u32> = Vec::with_capacity(prog.num_insns() + 1);
    let mut state_len = 0u32;
    let mut max_out_bits = 1usize;
    for i in 0..prog.num_insns() {
        state_offset.push(state_len);
        let w = u32::from(prog.width(i));
        match prog.opcode(i) {
            Opcode::Dff | Opcode::DffR => state_len += w + 1,
            Opcode::Latch => state_len += w,
            _ => {}
        }
        let out_bits: usize = prog
            .outputs(i)
            .iter()
            .map(|&s| prog.slot_width(s) as usize)
            .sum();
        max_out_bits = max_out_bits.max(out_bits);
    }
    state_offset.push(state_len);

    // The batch kernel owns its run-scoped telemetry context (the
    // BatchResult is not a SimResult, so the finished telemetry rides the
    // batch result instead).
    let telemetry = new_run_ctx(config);
    let fresh = resume.is_none().then(|| start_state(netlist, end, None).into_owned());
    let ctx = BatchCtx {
        netlist,
        config,
        prog,
        plan: &plan,
        watch_slots: &watch_slots,
        watch_of: &watch_of,
        state_offset: &state_offset,
        max_out_bits,
        base_events: &base_events,
        stimuli,
        injections: &injections,
        overridden: &overridden,
        resume,
        carry: &carry,
        bounds,
        fresh: fresh.as_ref(),
        telemetry: &telemetry,
    };

    // ---- chunk loop ------------------------------------------------------
    // Chunks are `max_width` lanes except the last, which drops to the
    // narrowest word group covering the remainder (a 65-lane tail runs as
    // one 128-wide chunk, not a 512-wide one).
    let mut out = BatchOut {
        lanes: Vec::with_capacity(lanes),
        snapshots: capture.then(Vec::new),
    };
    let mut used_width = 0u64;
    let mut lane_base = 0usize;
    while lane_base < lanes {
        let chunk_lanes = (lanes - lane_base).min(max_width);
        let words = LANE_WIDTHS
            .iter()
            .map(|w| w / 64)
            .find(|w| w * 64 >= chunk_lanes)
            .expect("chunk_lanes <= 512")
            .min(max_width / 64);
        used_width = used_width.max(64 * words as u64);
        match words {
            1 => run_chunk::<1>(&ctx, lane_base, chunk_lanes, &mut out),
            2 => run_chunk::<2>(&ctx, lane_base, chunk_lanes, &mut out),
            4 => run_chunk::<4>(&ctx, lane_base, chunk_lanes, &mut out),
            8 => run_chunk::<8>(&ctx, lane_base, chunk_lanes, &mut out),
            _ => unreachable!("lane widths are 64/128/256/512"),
        }?;
        lane_base += chunk_lanes;
    }

    telemetry.registry.driver().gauge_max(Gauge::LaneWidth, used_width);
    let wall = start.elapsed();
    let run_telemetry = telemetry.finish();
    let metrics = Metrics::from_registry(&telemetry.registry, &run_telemetry.finals, wall);

    let lanes_out = out
        .lanes
        .into_iter()
        .map(|lists| SimResult::from_lists(config.end_time, &slots, lists, metrics.clone()))
        .collect();
    Ok((
        BatchResult {
            lanes: lanes_out,
            metrics,
            telemetry: Some(run_telemetry),
        },
        out.snapshots,
    ))
}

/// Runs lanes `lane_base .. lane_base + chunk_lanes` (local lanes
/// `0..chunk_lanes` of a `64·W`-wide word group) through the full
/// segment step loop and appends their results to `out`.
fn run_chunk<const W: usize>(
    ctx: &BatchCtx<'_>,
    lane_base: usize,
    chunk_lanes: usize,
    out: &mut BatchOut,
) -> Result<(), SimError> {
    let BatchCtx {
        netlist,
        config,
        prog,
        plan,
        watch_slots,
        watch_of,
        state_offset,
        max_out_bits,
        resume,
        bounds,
        telemetry,
        ..
    } = *ctx;
    let (cut, end) = (bounds.cut, bounds.horizon);
    let first_step = bounds.t0.map_or(0, |t| t + 1);
    let threads = config.threads;
    let gating = config.activity_gating;
    let lane_mask: LaneMask<W> = wide::mask_first::<W>(chunk_lanes);
    let lane_mask = &lane_mask;

    // ---- this chunk's stimulus schedule ----------------------------------
    // One masked write per (step, slot), sorted by step and walked by a
    // per-worker cursor: every worker needs the next stimulus time, thread
    // 0 also applies. Built in one bucket per stimulated slot, each sorted
    // by step: a source's events come in step order, so merging them in
    // (same-step lane writes into one masked write) is a cursor walk over
    // the slot's bucket, with no search per event.
    let mut bucket_of = vec![u32::MAX; prog.num_slots()];
    let mut buckets: Vec<Vec<GenWrite<W>>> = Vec::new();
    let mut gen_planes: Vec<WideLanes<W>> = Vec::new();
    let mut add = |cursor: &mut usize, t: u64, slot: u32, mask: &LaneMask<W>, v: &Value| {
        if !wide::mask_any(mask) {
            return;
        }
        let w = prog.slot_width(slot) as usize;
        if bucket_of[slot as usize] == u32::MAX {
            bucket_of[slot as usize] = buckets.len() as u32;
            buckets.push(Vec::new());
        }
        let bucket = &mut buckets[bucket_of[slot as usize] as usize];
        while bucket.get(*cursor).is_some_and(|wr| wr.t < t) {
            *cursor += 1;
        }
        if bucket.get(*cursor).is_none_or(|wr| wr.t != t) {
            let write = GenWrite { t, slot, mask: wide::mask_none::<W>(), off: gen_planes.len() };
            bucket.insert(*cursor, write);
            gen_planes.resize(gen_planes.len() + w, WideLanes::ZERO);
        }
        let entry = &mut bucket[*cursor];
        wide::mask_or_assign(&mut entry.mask, mask);
        let (a, b) = v.to_planes();
        for (i, word) in gen_planes[entry.off..entry.off + w].iter_mut().enumerate() {
            let sa = (a >> i) & 1 == 1;
            let sb = (b >> i) & 1 == 1;
            for ((wa, wb), &m) in word.a.iter_mut().zip(word.b.iter_mut()).zip(mask.iter()) {
                *wa = (*wa & !m) | if sa { m } else { 0 };
                *wb = (*wb & !m) | if sb { m } else { 0 };
            }
        }
    };
    for (slot, events) in ctx.base_events {
        // Unused lanes (>= `chunk_lanes`) follow the base schedule too,
        // keeping every lane's values well-defined.
        let mut base_mask = wide::mask_all::<W>();
        if let Some(bits) = ctx.overridden.get(slot) {
            let w0 = lane_base / 64;
            for (i, word) in base_mask.iter_mut().enumerate() {
                *word = !bits.get(w0 + i).copied().unwrap_or(0);
            }
        }
        if !wide::mask_any(&base_mask) {
            continue;
        }
        let mut cursor = 0;
        for (t, v) in events {
            add(&mut cursor, *t, *slot, &base_mask, v);
        }
    }
    // Per-lane overrides go through the `Vector` generator's own expansion,
    // so a lane's trajectory is exactly what a netlist with a `Vector`
    // driver would produce (the per-lane equivalence oracle).
    for (local, stim) in ctx.stimuli[lane_base..lane_base + chunk_lanes].iter().enumerate() {
        let mask = wide::mask_lane::<W>(local as u32);
        for (node, schedule) in &stim.overrides {
            let slot = prog.slot_of(*node);
            let mut cursor = 0;
            override_events(schedule, bounds, |t, v| add(&mut cursor, t, slot, &mask, &v));
        }
    }
    for &(lane, t, slot, v) in ctx.injections {
        if lane < lane_base || lane >= lane_base + chunk_lanes {
            continue;
        }
        let mask = wide::mask_lane::<W>((lane - lane_base) as u32);
        add(&mut 0, t, slot, &mask, &v);
    }
    let mut gen_writes: Vec<GenWrite<W>> = buckets.into_iter().flatten().collect();
    gen_writes.sort_unstable_by_key(|w| (w.t, w.slot));
    let (gen_writes, gen_planes) = (&gen_writes, &gen_planes);

    // ---- execution state -------------------------------------------------
    // Packed slot values: a flat bit-plane arena, `slot_offset(s)..+width`
    // per slot. Written single-writer during apply phases.
    let values: SharedSlice<WideLanes<W>> =
        SharedSlice::from_fn(prog.total_bits().max(1), |_| WideLanes::X);
    let values = &values;

    // Native sequential state (q planes, plus last_clk for edge ops) lives
    // in its own arena, touched only by the owning thread.
    let state_len = state_offset[prog.num_insns()] as usize;
    let nat_state: SharedSlice<WideLanes<W>> =
        SharedSlice::from_fn(state_len.max(1), |_| WideLanes::X);
    let nat_state = &nat_state;
    // Per-lane scalar states for fallback instructions (empty for native).
    let fb_state: SharedSlice<Vec<ElemState>> = SharedSlice::from_fn(prog.num_insns(), |i| {
        if prog.opcode(i).has_packed_kernel() {
            Vec::new()
        } else {
            (0..chunk_lanes)
                .map(|local| ctx.start(lane_base + local).elem_states[prog.elem(i)].clone())
                .collect()
        }
    });
    let fb_state = &fb_state;

    if let Some(snaps) = resume {
        // Scatter each lane's snapshot into the wide arenas. SAFETY (all
        // `slice_mut` calls here): no worker threads exist yet.
        for s in 0..prog.num_slots() as u32 {
            let w = prog.slot_width(s) as usize;
            let off = prog.slot_offset(s);
            let dst = unsafe { values.slice_mut(off..off + w) };
            let node = prog.node_of(s).index();
            for local in 0..chunk_lanes {
                wide::scatter(dst, local as u32, &snaps[lane_base + local].values[node]);
            }
        }
        for (i, &off) in state_offset.iter().enumerate().take(prog.num_insns()) {
            let w = prog.width(i) as usize;
            let off = off as usize;
            match prog.opcode(i) {
                Opcode::Dff | Opcode::DffR => {
                    let st = unsafe { nat_state.slice_mut(off..off + w + 1) };
                    let (q, rest) = st.split_at_mut(w);
                    for local in 0..chunk_lanes {
                        let state = &snaps[lane_base + local].elem_states[prog.elem(i)];
                        if let ElemState::Edge { q: qv, last_clk } = state {
                            wide::scatter(q, local as u32, qv);
                            wide::scatter(&mut rest[..1], local as u32, last_clk);
                        }
                    }
                }
                Opcode::Latch => {
                    let q = unsafe { nat_state.slice_mut(off..off + w) };
                    for local in 0..chunk_lanes {
                        let state = &snaps[lane_base + local].elem_states[prog.elem(i)];
                        if let ElemState::Stored(v) = state {
                            wide::scatter(q, local as u32, v);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Resume restarts with an all-dirty mask (same rationale as scalar:
    // re-evaluating a clean block is idempotent).
    let dirty = DirtyMask::all_dirty(&plan.thread_blocks);
    let dirty = &dirty;

    let barrier = &SpinBarrier::new(threads);
    let last_write = WriteMark::new();
    let last_write = &last_write;
    let registry = &telemetry.registry;
    let stop = AtomicBool::new(false);
    let stop = &stop;
    let cur_step = AtomicU64::new(0);
    let cur_step = &cur_step;

    let outputs: Vec<ChunkWorkerOutput<W>> = run_workers(
        ENGINE,
        config,
        telemetry,
        Some(barrier),
        vec![(); threads],
        |p, (), cont| {
            let mut logs: Vec<SlotLog<W>> =
                watch_slots.iter().map(|_| SlotLog::default()).collect();
            let shard = registry.worker(p);
            let mut tally = Tally::default();
            // Pending writes: slot list plus a flat plane arena
            // (widths are implied by the slots), reused across
            // steps so the hot loop never allocates.
            let mut pend_slots: Vec<u32> = Vec::new();
            let mut pend_data: Vec<WideLanes<W>> = Vec::new();
            let mut scratch: Vec<WideLanes<W>> = vec![WideLanes::X; max_out_bits];
            let mut inputs_buf: Vec<Value> = Vec::with_capacity(8);
            let mut processed = 0u64;
            let mut gen_cursor = 0usize;
            let mut t = first_step;
            'run: while t <= cut {
                cont.beat(p);
                if p == 0 {
                    cur_step.store(t, Ordering::Relaxed);
                    // Steps are shared across lane chunks; only
                    // the first chunk counts them so multi-chunk
                    // batches don't multiply the step count.
                    if lane_base == 0 {
                        tally.inc(Counter::TimeSteps);
                        shard.set_gauge(Gauge::SimTime, t);
                    }
                    if cont.cancelled() {
                        stop.store(true, Ordering::Release);
                    }
                }
                let busy_start = Instant::now();
                // ---- apply phase ----------------------------
                // What a write owes once its masked diff is
                // known: the event count, the watched slot's
                // packed record, its fan-out's dirty bits.
                let mut commit = |slot: u32, diff: &LaneMask<W>, new: &[WideLanes<W>]| {
                    tally.add(Counter::EventsProcessed, u64::from(wide::mask_count(diff)));
                    // A cut past `end_time` records nothing there.
                    let watch = if t <= end {
                        watch_of[slot as usize]
                    } else {
                        UNWATCHED
                    };
                    if let Some(log) = logs.get_mut(watch as usize) {
                        log.record(t, diff, new);
                    }
                    if gating && wide::mask_any(diff) {
                        for &b in plan.fanout(slot) {
                            dirty.mark(b);
                        }
                    }
                };
                let mut cursor = 0usize;
                for &slot in &pend_slots {
                    let w = prog.slot_width(slot) as usize;
                    let new = &pend_data[cursor..cursor + w];
                    cursor += w;
                    let off = prog.slot_offset(slot);
                    // SAFETY: single writer per slot (driver
                    // thread), phases separated by barriers.
                    let cur = unsafe { values.slice_mut(off..off + w) };
                    let diff = wide::mask_and(&wide::changed_mask(cur, new), lane_mask);
                    commit(slot, &diff, new);
                    cur.copy_from_slice(new);
                }
                pend_slots.clear();
                pend_data.clear();
                // Every executed step is at or before the next stimulus, so
                // what is due is exactly the entries at `t`.
                while let Some(wr) = gen_writes.get(gen_cursor).filter(|wr| wr.t == t) {
                    gen_cursor += 1;
                    if p != 0 {
                        continue;
                    }
                    let w = prog.slot_width(wr.slot) as usize;
                    let data = &gen_planes[wr.off..wr.off + w];
                    let off = prog.slot_offset(wr.slot);
                    // SAFETY: generator slots are only
                    // written here, by thread 0.
                    let cur = unsafe { values.slice_mut(off..off + w) };
                    let mut diff = wide::mask_none::<W>();
                    for (c, d) in cur.iter_mut().zip(data) {
                        let eff = WideLanes::select(&wr.mask, *d, *c);
                        wide::mask_or_assign(&mut diff, &c.diff(eff));
                        *c = eff;
                    }
                    commit(wr.slot, &wide::mask_and(&diff, lane_mask), cur);
                }
                tally.add_elapsed(Counter::BusyNs, busy_start);
                let wait_start = Instant::now();
                barrier.wait();
                tally.add_elapsed(Counter::IdleNs, wait_start);
                // All threads observe the same `stop` value here (set before
                // the barrier), so they break at the same step.
                if barrier.is_poisoned() || stop.load(Ordering::Acquire) {
                    break 'run;
                }

                // ---- evaluate phase -------------------------
                let busy_start = Instant::now();
                let mut step_evals = 0u64;
                if t < end {
                    for b in plan.thread_blocks[p].clone() {
                        let insns = plan.block_insns(b);
                        if gating && !dirty.take(b as u32) {
                            tally.inc(Counter::BlocksSkipped);
                            tally.add(Counter::EvalsSkipped, insns.len() as u64);
                            continue;
                        }
                        for &i in insns {
                            if let FaultAction::Exit =
                                config.fault.check(p, processed, cont.cancel_flag())
                            {
                                // Only reached after cancellation,
                                // which always poisons the barrier,
                                // so peers are not left waiting.
                                break 'run;
                            }
                            processed += 1;
                            cont.beat(p);
                            let i = i as usize;
                            eval_insn(
                                netlist,
                                prog,
                                values,
                                nat_state,
                                state_offset,
                                fb_state,
                                i,
                                chunk_lanes,
                                &mut scratch,
                                &mut inputs_buf,
                            );
                            step_evals += 1;
                            // Compare against current values and queue changed
                            // ports. The compare is masked: tail lanes of a
                            // fallback instruction hold stale scratch and must
                            // not keep blocks dirty.
                            let mut s_off = 0usize;
                            for &slot in prog.outputs(i) {
                                let w = prog.slot_width(slot) as usize;
                                let new = &scratch[s_off..s_off + w];
                                s_off += w;
                                let off = prog.slot_offset(slot);
                                // SAFETY: reading a slot this
                                // thread exclusively writes.
                                let cur = unsafe { values.slice(off..off + w) };
                                let diff = wide::mask_and(&wide::changed_mask(cur, new), lane_mask);
                                if wide::mask_any(&diff) {
                                    pend_slots.push(slot);
                                    pend_data.extend_from_slice(new);
                                }
                            }
                        }
                    }
                }
                tally.add_elapsed(Counter::BusyNs, busy_start);
                // Publish this step's deltas (never per event).
                tally.add(Counter::Evaluations, step_evals);
                tally.add(Counter::Activations, step_evals);
                tally.flush(&shard);
                shard.set_gauge(Gauge::QueueDepth, pend_slots.len() as u64);
                if gating && !pend_slots.is_empty() {
                    last_write.note(t);
                }
                let wait_start = Instant::now();
                barrier.wait();
                tally.add_elapsed(Counter::IdleNs, wait_start);
                if barrier.is_poisoned() {
                    break 'run;
                }
                // A step that queued no write anywhere left no
                // dirty block either: nothing changes until the
                // next stimulus, so continue there.
                let mut next = t + 1;
                let stimulus = gen_writes.get(gen_cursor).map_or(cut + 1, |wr| wr.t);
                if gating && stimulus > next && last_write.quiet(t) {
                    next = stimulus;
                    // Steps are shared across lane chunks;
                    // only the first chunk counts them.
                    let counts = (p == 0 && lane_base == 0).then_some(&*shard);
                    credit_quiet_steps(&mut tally, plan, p, counts, (t, next, end));
                }
                t = next;
            }
            // The last barrier's idle time and any early break.
            tally.flush(&shard);
            (logs, pend_slots, pend_data)
        },
        |d| d.sim_time = Some(Time(cur_step.load(Ordering::Relaxed))),
    )?;

    // Slot-major: one slot's `chunk_lanes` list tails stay cache-resident
    // while its log is replayed.
    out.lanes.extend((0..chunk_lanes).map(|_| Vec::with_capacity(watch_slots.len())));
    for (k, &slot) in watch_slots.iter().enumerate() {
        let logs: Vec<&SlotLog<W>> = outputs.iter().map(|(logs, ..)| &logs[k]).collect();
        let lists = transpose_slot(&logs, prog.slot_width(slot) as usize, chunk_lanes);
        for (lane, list) in out.lanes[lane_base..].iter_mut().zip(lists) {
            lane.push(list);
        }
    }
    let mut leftover: Vec<(u32, Vec<WideLanes<W>>)> = Vec::new();
    for (_, pend_slots, pend_data) in outputs {
        let mut cursor = 0usize;
        for slot in pend_slots {
            let w = prog.slot_width(slot) as usize;
            leftover.push((slot, pend_data[cursor..cursor + w].to_vec()));
            cursor += w;
        }
    }

    if let Some(snapshots) = &mut out.snapshots {
        let num_nodes = netlist.num_nodes();
        snapshots.extend((0..chunk_lanes).map(|local| {
            let lane = local as u32;
            // SAFETY (all raw reads below): workers are joined;
            // single-threaded access with the joins as the edge.
            let node_values: Vec<Value> = (0..num_nodes)
                .map(|n| {
                    let s = prog.slot_of(NodeId::from_index(n));
                    let w = prog.slot_width(s) as usize;
                    let off = prog.slot_offset(s);
                    wide::gather(unsafe { values.slice(off..off + w) }, lane)
                })
                .collect();
            let mut elem_states = ctx.start(lane_base + local).elem_states.clone();
            for i in 0..prog.num_insns() {
                let w = prog.width(i) as usize;
                let off = state_offset[i] as usize;
                match prog.opcode(i) {
                    Opcode::Dff | Opcode::DffR => {
                        let st = unsafe { nat_state.slice(off..off + w + 1) };
                        elem_states[prog.elem(i)] = ElemState::Edge {
                            q: wide::gather(&st[..w], lane),
                            last_clk: wide::gather(&st[w..], lane),
                        };
                    }
                    Opcode::Latch => {
                        let st = unsafe { nat_state.slice(off..off + w) };
                        elem_states[prog.elem(i)] = ElemState::Stored(wide::gather(st, lane));
                    }
                    _ => {
                        let states = unsafe { fb_state.get_mut(i) };
                        if let Some(s) = states.get(local) {
                            elem_states[prog.elem(i)] = s.clone();
                        }
                    }
                }
            }
            // A queued wide write is this lane's unit-delay event only where
            // the lane changed, exactly when the scalar engine would have
            // queued it.
            let queued = leftover
                .iter()
                .map(|(slot, data)| (prog.node_of(*slot).index(), wide::gather(data, lane)));
            let carry = ctx.carry[lane_base + local].clone();
            bounds.unit_delay_snapshot(node_values, elem_states, queued, carry)
        }));
    }

    Ok(())
}

/// Evaluates instruction `i` into `scratch` (output ports concatenated).
#[allow(clippy::too_many_arguments)]
#[inline]
fn eval_insn<const W: usize>(
    netlist: &Netlist,
    prog: &CompiledProgram,
    values: &SharedSlice<WideLanes<W>>,
    nat_state: &SharedSlice<WideLanes<W>>,
    state_offset: &[u32],
    fb_state: &SharedSlice<Vec<ElemState>>,
    i: usize,
    chunk_lanes: usize,
    scratch: &mut [WideLanes<W>],
    inputs_buf: &mut Vec<Value>,
) {
    let ins = prog.inputs(i);
    // SAFETY (all `values.slice` calls below): evaluate phase is read-only
    // for slot values; the barrier orders it after the last apply-phase
    // write.
    let input = |k: usize| {
        let off = prog.slot_offset(ins[k]);
        let w = prog.slot_width(ins[k]) as usize;
        unsafe { values.slice(off..off + w) }
    };
    let w = prog.width(i) as usize;
    let op = prog.opcode(i);
    match op {
        Opcode::And | Opcode::Or | Opcode::Nand | Opcode::Nor | Opcode::Xor | Opcode::Xnor => {
            let out = &mut scratch[..w];
            wide::load_logic(out, input(0));
            for k in 1..ins.len() {
                match op {
                    Opcode::And | Opcode::Nand => wide::fold_and(out, input(k)),
                    Opcode::Or | Opcode::Nor => wide::fold_or(out, input(k)),
                    _ => wide::fold_xor(out, input(k)),
                }
            }
            if matches!(op, Opcode::Nand | Opcode::Nor | Opcode::Xnor) {
                wide::not_inplace(out);
            }
        }
        Opcode::Not => {
            let out = &mut scratch[..w];
            wide::load_logic(out, input(0));
            wide::not_inplace(out);
        }
        Opcode::Buf => wide::load_logic(&mut scratch[..w], input(0)),
        Opcode::Mux => {
            let sel = input(0)[0];
            // The borrow of `scratch` and the two value slices are disjoint.
            wide::mux(&mut scratch[..w], sel, input(1), input(2));
        }
        Opcode::Dff | Opcode::DffR => {
            let off = state_offset[i] as usize;
            // SAFETY: native state is touched only by the owning thread.
            let st = unsafe { nat_state.slice_mut(off..off + w + 1) };
            let (q, rest) = st.split_at_mut(w);
            let last_clk = &mut rest[0];
            let clk = input(0)[0];
            if op == Opcode::Dff {
                wide::dff(q, last_clk, clk, input(1));
            } else {
                wide::dffr(q, last_clk, clk, input(1), input(2)[0]);
            }
            scratch[..w].copy_from_slice(q);
        }
        Opcode::Latch => {
            let off = state_offset[i] as usize;
            // SAFETY: native state is touched only by the owning thread.
            let q = unsafe { nat_state.slice_mut(off..off + w) };
            wide::latch(q, input(0)[0], input(1));
            scratch[..w].copy_from_slice(q);
        }
        Opcode::TriBuf => wide::tribuf(&mut scratch[..w], input(0)[0], input(1)),
        _ => {
            // Scalar fallback: evaluate each live lane with the shared
            // kernel. Tail lanes (>= chunk_lanes) are left stale in
            // scratch; the caller masks them out of the change compare.
            let kind = netlist.elements()[prog.elem(i)].kind();
            // SAFETY: fallback state is touched only by the owning thread.
            let states = unsafe { fb_state.get_mut(i) };
            for lane in 0..chunk_lanes as u32 {
                inputs_buf.clear();
                for k in 0..ins.len() {
                    inputs_buf.push(wide::gather(input(k), lane));
                }
                let out = evaluate(kind, inputs_buf, &mut states[lane as usize]);
                let mut s_off = 0usize;
                for (port, v) in out.iter() {
                    let pw = prog.slot_width(prog.outputs(i)[port]) as usize;
                    wide::scatter(&mut scratch[s_off..s_off + pw], lane, &v);
                    s_off += pw;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// One applied write of the slot under test: step, masked diff, new planes.
    type Write<const W: usize> = (u64, LaneMask<W>, Vec<WideLanes<W>>);

    /// The recording [`SlotLog`] + [`transpose_slot`] replaced, kept as
    /// their reference: one record per changed lane pushed from inside the
    /// step loop (`for_each_lane` + `gather`), dealt out per lane afterwards.
    fn per_lane_reference<const W: usize>(
        writes: &[Write<W>],
        chunk_lanes: usize,
    ) -> Vec<Vec<(Time, Value)>> {
        let mut changes: Vec<(u32, Time, Value)> = Vec::new();
        for (t, diff, new) in writes {
            wide::for_each_lane(diff, |lane| {
                changes.push((lane, Time(*t), wide::gather(new, lane)));
            });
        }
        let mut lane_changes = vec![Vec::new(); chunk_lanes];
        for (lane, t, v) in changes {
            lane_changes[lane as usize].push((t, v));
        }
        lane_changes
    }

    fn check<const W: usize>(width: usize, chunk_lanes: usize, rng: &mut SmallRng) {
        let live = wide::mask_first::<W>(chunk_lanes);
        let writes: Vec<Write<W>> = (0..48u64)
            .map(|t| {
                // Dense, sparse and — one step in four — empty diffs.
                let mut diff = wide::mask_none::<W>();
                for word in diff.iter_mut() {
                    *word = match rng.gen_range(0..4u32) {
                        0 => 0,
                        1 => rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>(),
                        _ => rng.gen(),
                    };
                }
                if t % 4 == 3 {
                    diff = wide::mask_none::<W>();
                }
                let planes = (0..width)
                    .map(|_| WideLanes {
                        a: [(); W].map(|_| rng.gen()),
                        b: [(); W].map(|_| rng.gen()),
                    })
                    .collect();
                (7 + 3 * t, wide::mask_and(&diff, &live), planes)
            })
            .collect();
        // Two writers, as after a resume: thread 0 holds the first step,
        // the slot's owner every later one.
        let mut logs = [SlotLog::<W>::default(), SlotLog::default()];
        for (i, (t, diff, new)) in writes.iter().enumerate() {
            logs[usize::from(i > 0)].record(*t, diff, new);
        }
        let logged: usize = logs.iter().map(|log| log.recs.len()).sum();
        assert_eq!(logged, writes.iter().filter(|w| wide::mask_any(&w.1)).count());
        assert!(logs.iter().all(|log| log.recs.iter().all(|(_, m)| wide::mask_any(m))));
        assert!(logs.iter().all(|log| log.planes.len() == width * log.recs.len()));

        let got = transpose_slot(&[&logs[0], &logs[1]], width, chunk_lanes);
        assert_eq!(got, per_lane_reference(&writes, chunk_lanes), "W={W} width={width}");
        assert!(got.iter().all(|list| list.capacity() == list.len()));
    }

    #[test]
    fn transpose_matches_the_per_lane_recording_it_replaced() {
        fn all_widths<const W: usize>(rng: &mut SmallRng) {
            // A full group, ragged tails across and inside a word, one lane.
            for chunk_lanes in [64 * W, 64 * W - 1, 64 * W - 37, 1] {
                for width in [1, 4, 64] {
                    check::<W>(width, chunk_lanes, rng);
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(0x10a5_2026);
        all_widths::<1>(&mut rng);
        all_widths::<2>(&mut rng);
        all_widths::<4>(&mut rng);
        all_widths::<8>(&mut rng);
    }

    #[test]
    fn a_slot_that_never_changed_yields_empty_unallocated_lists() {
        let mut log = SlotLog::<2>::default();
        log.record(5, &wide::mask_none::<2>(), &[WideLanes::ONE]);
        assert!(log.recs.is_empty() && log.planes.is_empty());
        let lists = transpose_slot(&[&log, &SlotLog::default()], 1, 100);
        assert_eq!(lists.len(), 100);
        assert!(lists.iter().all(|list| list.is_empty() && list.capacity() == 0));
    }
}
