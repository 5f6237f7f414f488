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
//! A batch is split into contiguous lane *chunks* by its shape alone
//! ([`lane_chunks`]): at most 512 lanes each, at least one per thread
//! while lanes last, or [`SimConfig::lane_width`] lanes each when set.
//! Each chunk runs at the narrowest word group that covers it, its ragged
//! tail masked per word ([`wide::mask_first`]).
//!
//! Threads split lanes, not gates: one `exec::run_workers` call per batch
//! hands chunk `c` to worker `c mod workers`, and a worker runs its chunks
//! one after another, each start to finish on arenas it owns. A step is
//! apply, evaluate, and a jump to the next stimulus when the step queued
//! no write; no step barrier, no shared value arena. Watchdog and fault
//! containment are every engine's, and the deadline covers the whole
//! batch. Activity gating and checkpoint segments (capture/resume of every
//! lane at a cut, [`run_batch_segment`]) mirror `kernel/scalar.rs`.
//!
//! The step loop touches only chunk-local state through offsets fixed
//! before it starts. The program is decoded once per batch in the plan's
//! order ([`PackedCode`]: opcodes, widths, input plane offsets, output
//! slots with their plane offsets), so no instruction reads a
//! [`CompiledProgram`] table; `prog.*` appears only at the edges
//! (stimulus, snapshots, the fallback gather). Gates and buffers fold
//! their inputs straight from the value arena into the pending buffer, one
//! arm for every width; the mux, registers, latch and tri-state run their
//! `wide` kernels on the planes they queue. A queued write carries the
//! lanes it changes, computed once when it is queued, and the apply phase
//! reuses that diff; queueing itself is branch-free ([`Pending`]). The
//! gating bits are a plain bitset the chunk owns ([`BlockBits`]), and the
//! evaluate phase walks only the set ones.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parsim_checkpoint::{EngineSnapshot, PendingEvent};
use parsim_logic::wide::{self, LaneMask, WideLanes, LANE_WIDTHS};
use parsim_logic::{evaluate, ElemState, Time, Value};
use parsim_netlist::compile::{CompiledProgram, Opcode};
use parsim_netlist::{Netlist, NodeId};
use parsim_telemetry::{Counter, Gauge, Tally, TelemetryCtx};

use crate::checkpoint::{
    check_resume, generator_events, in_flight_events, new_run_ctx, override_events, start_state,
    Bounds,
};
use crate::compiled::{BatchResult, LaneStimulus};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::exec::{run_workers, Containment};
use crate::fault::FaultAction;
use crate::kernel::{credit_quiet_steps, Csr, ExecPlan};
use crate::metrics::Metrics;
use crate::waveform::{Encoded, EncodedWriter, SimResult, WatchSlots};

/// Engine tag used in [`SimError`] values.
const ENGINE: &str = "compiled-mode";

fn invalid(reason: String) -> SimError {
    SimError::InvalidConfig { reason }
}

/// A chunk's change log of one watched slot, still packed: record `r`
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

/// One masked write of a chunk's stimulus schedule: at step `t`, `port`
/// takes `planes[off..off + port.width]` in the lanes of `mask`.
struct GenWrite<const W: usize> {
    t: u64,
    port: Slot,
    mask: LaneMask<W>,
    off: usize,
}

/// A program slot as the step loop addresses it: the slot (for watch
/// lookups, fan-out and snapshots) and its planes `off..off + width` in
/// the value arena.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    slot: u32,
    off: u32,
    width: u32,
}

impl Slot {
    fn of(prog: &CompiledProgram, slot: u32) -> Slot {
        Slot {
            slot,
            off: prog.slot_offset(slot) as u32,
            width: u32::from(prog.slot_width(slot)),
        }
    }

    #[inline]
    fn planes(self) -> Range<usize> {
        self.off as usize..(self.off + self.width) as usize
    }
}

/// The program decoded once per batch for the packed step loop, in the
/// plan's instruction order (the order its gating blocks index): opcodes,
/// port-0 widths, native state offsets, input plane offsets and output
/// ports. The step loop reads these and no [`CompiledProgram`] table;
/// `prog.*` is read only at the edges (stimulus, snapshots, the fallback
/// gather).
struct PackedCode {
    ops: Vec<Opcode>,
    widths: Vec<u8>,
    /// Offset of each instruction's native state in the state arena (q
    /// planes, then `last_clk` for edge ops); one entry more, the total.
    state: Vec<u32>,
    /// Input plane offsets in the value arena, in port order.
    inputs: Csr,
    /// Output ports, in port order.
    outputs: Csr<Slot>,
    /// The widest output concatenation: the fallback scratch length.
    max_out_bits: usize,
    /// Every output port's planes: what one step can queue at most.
    out_planes: usize,
}

impl PackedCode {
    /// Decodes instructions `insns` of `prog`, in that order.
    fn decode(prog: &CompiledProgram, insns: &[u32]) -> PackedCode {
        let rows = insns.iter().map(|&i| i as usize);
        let mut state = Vec::with_capacity(insns.len() + 1);
        let mut len = 0u32;
        for i in rows.clone() {
            state.push(len);
            let w = u32::from(prog.width(i));
            match prog.opcode(i) {
                Opcode::Dff | Opcode::DffR => len += w + 1,
                Opcode::Latch => len += w,
                _ => {}
            }
        }
        state.push(len);
        let outputs = Csr::from_rows(
            rows.clone()
                .map(|i| prog.outputs(i).iter().map(|&s| Slot::of(prog, s))),
        );
        let max_out_bits = (0..insns.len())
            .map(|k| outputs.row(k).iter().map(|p| p.width as usize).sum())
            .fold(1, usize::max);
        let out_planes = outputs.items.iter().map(|p| p.width as usize).sum();
        PackedCode {
            ops: rows.clone().map(|i| prog.opcode(i)).collect(),
            widths: rows.clone().map(|i| prog.width(i)).collect(),
            state,
            inputs: Csr::from_rows(
                rows.map(|i| prog.inputs(i).iter().map(|&s| prog.slot_offset(s) as u32)),
            ),
            outputs,
            max_out_bits,
            out_planes,
        }
    }
}

/// A write queued by the evaluate phase: `port` takes the next
/// `port.width` planes of the pending buffer, changing the live lanes of
/// `diff`. The diff is computed once, when the write is queued: the
/// instruction is its slot's only writer and stimulus writes apply after
/// pending ones, so the slot still holds what it was compared against.
#[derive(Clone, Copy)]
struct PendWrite<const W: usize> {
    port: Slot,
    diff: LaneMask<W>,
}

/// The writes one evaluate phase queued for the next apply phase: the
/// first `len` records and the first `planes_len` planes, end to end.
/// Both buffers are sized once per chunk for every output port writing in
/// one step (the planes are at most the value arena's size again), so
/// queueing is branch-free: the next write's planes and record are always
/// written, and only counted when the write changes a live lane.
struct Pending<const W: usize> {
    writes: Vec<PendWrite<W>>,
    planes: Vec<WideLanes<W>>,
    len: usize,
    planes_len: usize,
}

impl<const W: usize> Pending<W> {
    /// Room for `ports` output ports of `planes` planes in all.
    fn new(ports: usize, planes: usize) -> Pending<W> {
        let empty = PendWrite {
            port: Slot::default(),
            diff: wide::mask_none(),
        };
        Pending {
            writes: vec![empty; ports],
            planes: vec![WideLanes::X; planes],
            len: 0,
            planes_len: 0,
        }
    }

    /// The `w` planes the next write fills.
    #[inline]
    fn next_planes(&mut self, w: usize) -> &mut [WideLanes<W>] {
        &mut self.planes[self.planes_len..self.planes_len + w]
    }

    /// Queues the planes [`next_planes`](Self::next_planes) handed out as
    /// `port`'s write when they change a live lane of `values`, and leaves
    /// them uncounted when they do not.
    #[inline]
    fn close(&mut self, port: Slot, values: &[WideLanes<W>], live: &LaneMask<W>) {
        let w = port.width as usize;
        let new = &self.planes[self.planes_len..self.planes_len + w];
        let diff = wide::mask_and(&wide::changed_mask(&values[port.planes()], new), live);
        let queued = usize::from(wide::mask_any(&diff));
        self.writes[self.len] = PendWrite { port, diff };
        self.len += queued;
        self.planes_len += w * queued;
    }

    /// The queued writes and their planes.
    #[inline]
    fn queued(&self) -> (&[PendWrite<W>], &[WideLanes<W>]) {
        (&self.writes[..self.len], &self.planes[..self.planes_len])
    }

    fn clear(&mut self) {
        self.len = 0;
        self.planes_len = 0;
    }
}

/// One dirty bit per gating block, owned by the chunk whose step loop
/// sets and takes them. A chunk runs start to finish on one thread, so
/// plain words do here what [`DirtyMask`](super::DirtyMask)'s atomics do
/// for scalar workers that share a step.
struct BlockBits {
    words: Vec<u64>,
    blocks: usize,
}

impl BlockBits {
    /// All `blocks` start dirty: every instruction runs at least once.
    fn all_dirty(blocks: usize) -> BlockBits {
        let mut bits = BlockBits {
            words: vec![0; blocks.div_ceil(64)],
            blocks,
        };
        bits.mark_all();
        bits
    }

    /// Marks every block.
    fn mark_all(&mut self) {
        self.words.fill(!0);
        if let Some(last) = self.words.last_mut() {
            *last >>= (64 - self.blocks % 64) % 64;
        }
    }

    #[inline]
    fn mark(&mut self, b: u32) {
        self.words[b as usize / 64] |= 1 << (b % 64);
    }

    /// Clears every bit, handing out the marked blocks in ascending order.
    #[inline]
    fn take_all(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter_mut()
            .enumerate()
            .flat_map(|(i, word)| set_bits(std::mem::take(word)).map(move |b| 64 * i + b as usize))
    }
}

/// `watch_of` entry of a slot nobody watches; indexes past every log list.
const UNWATCHED: u32 = u32::MAX;

/// Transposes the packed log of one watched slot, `width` bits wide, into
/// one encoded change list per lane `0..chunk_lanes`, each allocated once
/// at its exact final size and written without building a `Value`. A
/// one-bit slot reads each record word's two plane words once for all its
/// lanes; wider slots gather lane by lane.
fn transpose_slot<const W: usize>(
    log: &SlotLog<W>,
    width: usize,
    chunk_lanes: usize,
) -> Vec<Encoded> {
    debug_assert!(
        log.recs.is_sorted_by(|a, b| a.0 < b.0),
        "a watched slot's log must be in strictly increasing step order"
    );
    let mut lists: Vec<EncodedWriter> = lane_counts(log.recs.iter().map(|(_, m)| m), chunk_lanes)
        .into_iter()
        .map(|n| EncodedWriter::new(width as u8, n))
        .collect();
    for ((t, mask), planes) in log.recs.iter().zip(log.planes.chunks_exact(width)) {
        let t = Time(*t);
        for (w, (lanes, &word)) in lists.chunks_mut(64).zip(mask).enumerate() {
            match planes {
                [one] => {
                    let (a, b) = (one.a[w], one.b[w]);
                    for i in set_bits(word) {
                        lanes[i as usize].push(t, a >> i & 1, b >> i & 1);
                    }
                }
                _ => {
                    for i in set_bits(word) {
                        let (a, b) = wide::gather_planes(planes, 64 * w as u32 + i);
                        lanes[i as usize].push(t, a, b);
                    }
                }
            }
        }
    }
    lists.into_iter().map(EncodedWriter::finish).collect()
}

/// The positions of `word`'s set bits, ascending.
#[inline]
fn set_bits(mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let i = word.trailing_zeros();
        word &= word.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

/// How many of `masks` hold each lane `0..lanes`, with no branch per lane:
/// bit `8k + j` of a mask word adds one to byte `k` of that word's `j`-th
/// counter, and the counters spill into the totals every 255 masks, before
/// a byte can overflow.
fn lane_counts<'a, const W: usize>(
    masks: impl Iterator<Item = &'a LaneMask<W>>,
    lanes: usize,
) -> Vec<usize> {
    const BYTE_LSBS: u64 = 0x0101_0101_0101_0101;
    let mut totals = vec![0usize; 64 * W];
    let mut counters = [[0u64; 8]; W];
    let spill = |counters: &mut [[u64; 8]; W], totals: &mut [usize]| {
        for (w, word) in counters.iter_mut().enumerate() {
            for (j, c) in word.iter_mut().enumerate() {
                for k in 0..8 {
                    totals[64 * w + 8 * k + j] += (*c >> (8 * k) & 0xff) as usize;
                }
                *c = 0;
            }
        }
    };
    for (n, mask) in masks.enumerate() {
        for (word, &m) in counters.iter_mut().zip(mask) {
            for (j, c) in word.iter_mut().enumerate() {
                *c += m >> j & BYTE_LSBS;
            }
        }
        if n % 255 == 254 {
            spill(&mut counters, &mut totals);
        }
    }
    spill(&mut counters, &mut totals);
    totals.truncate(lanes);
    totals
}

/// What one chunk hands back, lane by lane: one change list per watched
/// node in watch order, and a snapshot if the segment captures.
struct ChunkOut {
    lanes: Vec<Vec<Encoded>>,
    snapshots: Option<Vec<EngineSnapshot>>,
}

/// Everything shared by every chunk of one batch run.
struct BatchCtx<'a> {
    netlist: &'a Netlist,
    config: &'a SimConfig,
    prog: &'a CompiledProgram,
    /// The program bound to one worker: every chunk runs all of it.
    plan: &'a ExecPlan,
    /// `plan`'s instructions, decoded.
    code: &'a PackedCode,
    /// The watched slots, in watch (node) order.
    watch_slots: &'a [u32],
    /// Per slot: its position in `watch_slots`, or [`UNWATCHED`].
    watch_of: &'a [u32],
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
    /// The step worker 0 is at, for a stall diagnostic.
    step: &'a AtomicU64,
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

/// Validates a forced batch lane width ([`SimConfig::lane_width`]).
fn select_lane_width(config: &SimConfig) -> Result<Option<usize>, SimError> {
    match config.lane_width {
        Some(w) if !LANE_WIDTHS.contains(&w) => Err(invalid(format!(
            "lane_width must be one of 64, 128, 256, 512 (got {w})"
        ))),
        width => Ok(width),
    }
}

/// Splits `lanes` lanes into contiguous chunks, in lane order, by shape
/// alone. With no forced `width`, `lanes` at `threads` make
/// `max(⌈lanes / 512⌉, min(threads, lanes))` chunks whose sizes differ by
/// at most one lane, the larger first; with one, chunks are `width` lanes
/// and the last is narrower. Each runs at [`group_words`] of its length.
fn lane_chunks(lanes: usize, threads: usize, width: Option<usize>) -> Vec<Range<usize>> {
    match width {
        Some(w) => (0..lanes)
            .step_by(w)
            .map(|lo| lo..(lo + w).min(lanes))
            .collect(),
        None => {
            let widest = LANE_WIDTHS[LANE_WIDTHS.len() - 1];
            let n = lanes.div_ceil(widest).max(threads.clamp(1, lanes));
            // The first `lanes % n` chunks take one lane more.
            let start = |c: usize| c * (lanes / n) + c.min(lanes % n);
            (0..n).map(|c| start(c)..start(c + 1)).collect()
        }
    }
}

/// The narrowest word group (`W`, in 64-lane words) covering `lanes`.
fn group_words(lanes: usize) -> usize {
    lanes.div_ceil(64).next_power_of_two()
}

/// The 64 bits of `bits` from bit `start` on; bits past its end read 0.
fn bits_at(bits: &[u64], start: usize) -> u64 {
    let word = |k: usize| bits.get(k).copied().unwrap_or(0);
    match start % 64 {
        0 => word(start / 64),
        s => word(start / 64) >> s | word(start / 64 + 1) << (64 - s),
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
    let chunks = lane_chunks(lanes, config.threads, select_lane_width(config)?);

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
    let bounds = Bounds {
        t0,
        cut,
        horizon: end,
        capture,
    };

    // ---- shared schedules and plans -------------------------------------
    // Base generator schedules, expanded once for every chunk.
    let base_events: Vec<(u32, Vec<(u64, Value)>)> = netlist
        .generators()
        .into_iter()
        .map(|gen| {
            let e = netlist.element(gen);
            (
                prog.slot_of(e.outputs()[0]),
                generator_events(e.kind(), bounds).collect(),
            )
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

    let plan = ExecPlan::build(prog, 1);

    let slots = WatchSlots::new(netlist, &config.watch);
    let watch_slots: Vec<u32> = slots.nodes().map(|n| prog.slot_of(n)).collect();
    let mut watch_of = vec![UNWATCHED; prog.num_slots()];
    for (k, &slot) in watch_slots.iter().enumerate() {
        watch_of[slot as usize] = k as u32;
    }

    let code = PackedCode::decode(prog, plan.thread_insns(0));

    // The batch kernel owns its run-scoped telemetry context (the
    // BatchResult is not a SimResult, so the finished telemetry rides the
    // batch result instead).
    let telemetry = new_run_ctx(config);
    let fresh = resume
        .is_none()
        .then(|| start_state(netlist, end, None).into_owned());
    let step = AtomicU64::new(0);
    let ctx = BatchCtx {
        netlist,
        config,
        prog,
        plan: &plan,
        code: &code,
        watch_slots: &watch_slots,
        watch_of: &watch_of,
        base_events: &base_events,
        stimuli,
        injections: &injections,
        overridden: &overridden,
        resume,
        carry: &carry,
        bounds,
        fresh: fresh.as_ref(),
        telemetry: &telemetry,
        step: &step,
    };

    // ---- chunks on workers -----------------------------------------------
    // Chunk `c` runs on worker `c mod workers`, each worker's in order; no
    // stealing, so fault plans and counts do not depend on timing.
    let workers = config.threads.clamp(1, chunks.len());
    let outputs: Vec<Vec<ChunkOut>> = run_workers(
        ENGINE,
        config,
        &telemetry,
        None,
        vec![(); workers],
        |p, (), cont| {
            // The fault plan counts a worker's activations across its chunks.
            let mut processed = 0u64;
            let mut outs = Vec::new();
            for chunk in chunks.iter().skip(p).step_by(workers) {
                if cont.cancelled() {
                    break;
                }
                let (lanes, n) = (chunk.clone(), &mut processed);
                outs.push(match group_words(chunk.len()) {
                    1 => run_chunk::<1>(&ctx, lanes, p, cont, n),
                    2 => run_chunk::<2>(&ctx, lanes, p, cont, n),
                    4 => run_chunk::<4>(&ctx, lanes, p, cont, n),
                    8 => run_chunk::<8>(&ctx, lanes, p, cont, n),
                    _ => unreachable!("chunks hold at most 512 lanes"),
                });
            }
            outs
        },
        |d| d.sim_time = Some(Time(step.load(Ordering::Relaxed))),
    )?;

    // Lane order is chunk order: chunk `c` is worker `c mod workers`'s
    // `c / workers`-th.
    let mut per_worker: Vec<_> = outputs.into_iter().map(Vec::into_iter).collect();
    let mut lane_lists = Vec::with_capacity(lanes);
    let mut snapshots = capture.then(|| Vec::with_capacity(lanes));
    for c in 0..chunks.len() {
        let out = per_worker[c % workers].next().expect("every chunk ran");
        lane_lists.extend(out.lanes);
        if let (Some(all), Some(snaps)) = (&mut snapshots, out.snapshots) {
            all.extend(snaps);
        }
    }

    let used_width = chunks
        .iter()
        .map(|c| 64 * group_words(c.len()) as u64)
        .fold(0, u64::max);
    telemetry
        .registry
        .driver()
        .gauge_max(Gauge::LaneWidth, used_width);
    let wall = start.elapsed();
    let run_telemetry = telemetry.finish();
    let metrics = Metrics::from_registry(&telemetry.registry, &run_telemetry.finals, wall);

    let lanes_out = lane_lists
        .into_iter()
        .map(|lists| SimResult::from_lists(config.end_time, &slots, lists, metrics.clone()))
        .collect();
    Ok((
        BatchResult {
            lanes: lanes_out,
            metrics,
            telemetry: Some(run_telemetry),
        },
        snapshots,
    ))
}

/// Runs the lanes of `chunk` (local lanes `0..chunk.len()` of a
/// `64·W`-wide word group) through the full segment step loop on worker
/// `p`, on arenas of its own, and returns their results. `processed`
/// carries the worker's activation count from chunk to chunk.
fn run_chunk<const W: usize>(
    ctx: &BatchCtx<'_>,
    chunk: Range<usize>,
    p: usize,
    cont: &Containment,
    processed: &mut u64,
) -> ChunkOut {
    let BatchCtx {
        netlist,
        config,
        prog,
        plan,
        code,
        watch_slots,
        watch_of,
        resume,
        bounds,
        telemetry,
        ..
    } = *ctx;
    // Plan position → program instruction, for the edges.
    let insns = plan.thread_insns(0);
    let (lane_base, chunk_lanes) = (chunk.start, chunk.len());
    let (cut, end) = (bounds.cut, bounds.horizon);
    let first_step = bounds.t0.map_or(0, |t| t + 1);
    let gating = config.activity_gating;
    let lane_mask: LaneMask<W> = wide::mask_first::<W>(chunk_lanes);
    let lane_mask = &lane_mask;

    // ---- this chunk's stimulus schedule ----------------------------------
    // One masked write per (step, slot), sorted by step and walked by a
    // cursor. Built in one bucket per stimulated slot, each sorted by
    // step: a source's events come in step order, so merging them in
    // (same-step lane writes into one masked write) is a cursor walk over
    // the slot's bucket, with no search per event.
    let mut bucket_of = vec![u32::MAX; prog.num_slots()];
    let mut buckets: Vec<Vec<GenWrite<W>>> = Vec::new();
    let mut gen_planes: Vec<WideLanes<W>> = Vec::new();
    let mut add = |cursor: &mut usize, t: u64, slot: u32, mask: &LaneMask<W>, v: &Value| {
        if !wide::mask_any(mask) {
            return;
        }
        let port = Slot::of(prog, slot);
        if bucket_of[slot as usize] == u32::MAX {
            bucket_of[slot as usize] = buckets.len() as u32;
            buckets.push(Vec::new());
        }
        let bucket = &mut buckets[bucket_of[slot as usize] as usize];
        while bucket.get(*cursor).is_some_and(|wr| wr.t < t) {
            *cursor += 1;
        }
        if bucket.get(*cursor).is_none_or(|wr| wr.t != t) {
            let write = GenWrite {
                t,
                port,
                mask: wide::mask_none::<W>(),
                off: gen_planes.len(),
            };
            bucket.insert(*cursor, write);
            gen_planes.resize(gen_planes.len() + port.width as usize, WideLanes::ZERO);
        }
        let entry = &mut bucket[*cursor];
        wide::mask_or_assign(&mut entry.mask, mask);
        let (a, b) = v.to_planes();
        let planes = &mut gen_planes[entry.off..entry.off + port.width as usize];
        for (i, word) in planes.iter_mut().enumerate() {
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
            for (i, (word, live)) in base_mask.iter_mut().zip(lane_mask).enumerate() {
                *word = !(bits_at(bits, lane_base + 64 * i) & live);
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
    for (local, stim) in ctx.stimuli[chunk.clone()].iter().enumerate() {
        let mask = wide::mask_lane::<W>(local as u32);
        for (node, schedule) in &stim.overrides {
            let slot = prog.slot_of(*node);
            let mut cursor = 0;
            override_events(schedule, bounds, |t, v| {
                add(&mut cursor, t, slot, &mask, &v)
            });
        }
    }
    for &(lane, t, slot, v) in ctx.injections {
        if chunk.contains(&lane) {
            add(
                &mut 0,
                t,
                slot,
                &wide::mask_lane::<W>((lane - lane_base) as u32),
                &v,
            );
        }
    }
    let mut gen_writes: Vec<GenWrite<W>> = buckets.into_iter().flatten().collect();
    gen_writes.sort_unstable_by_key(|w| (w.t, w.port.slot));

    // ---- execution state -------------------------------------------------
    // Packed slot values: a flat bit-plane arena, `slot_offset(s)..+width`
    // per slot.
    let mut values = vec![WideLanes::<W>::X; prog.total_bits().max(1)];
    // Native sequential state (q planes, plus last_clk for edge ops).
    let mut nat_state = vec![WideLanes::<W>::X; code.state[insns.len()].max(1) as usize];
    // Per-lane scalar states for fallback instructions (empty for native),
    // in plan order.
    let mut fb_state: Vec<Vec<ElemState>> = insns
        .iter()
        .map(|&i| {
            let i = i as usize;
            if prog.opcode(i).has_packed_kernel() {
                Vec::new()
            } else {
                let state = |lane| ctx.start(lane).elem_states[prog.elem(i)].clone();
                chunk.clone().map(state).collect()
            }
        })
        .collect();

    if let Some(snaps) = resume {
        // Scatter each lane's snapshot into the wide arenas.
        let snaps = &snaps[chunk.clone()];
        for s in 0..prog.num_slots() as u32 {
            let dst = &mut values[Slot::of(prog, s).planes()];
            let node = prog.node_of(s).index();
            for (local, snap) in snaps.iter().enumerate() {
                wide::scatter(dst, local as u32, &snap.values[node]);
            }
        }
        for (k, &i) in insns.iter().enumerate() {
            let (op, w) = (code.ops[k], code.widths[k] as usize);
            if !matches!(op, Opcode::Dff | Opcode::DffR | Opcode::Latch) {
                continue;
            }
            let st = &mut nat_state[code.state[k] as usize..];
            for (local, snap) in snaps.iter().enumerate() {
                match (op, &snap.elem_states[prog.elem(i as usize)]) {
                    (Opcode::Dff | Opcode::DffR, ElemState::Edge { q, last_clk }) => {
                        wide::scatter(&mut st[..w], local as u32, q);
                        wide::scatter(&mut st[w..w + 1], local as u32, last_clk);
                    }
                    (Opcode::Latch, ElemState::Stored(v)) => {
                        wide::scatter(&mut st[..w], local as u32, v);
                    }
                    _ => {}
                }
            }
        }
    }

    // Resume restarts with an all-dirty mask (same rationale as scalar:
    // re-evaluating a clean block is idempotent).
    let mut dirty = BlockBits::all_dirty(plan.blocks.len());

    // Steps are shared by every chunk of a batch; chunk 0 alone counts them.
    let shard = telemetry.registry.worker(p);
    let counts_steps = (lane_base == 0).then_some(&*shard);
    let mut logs: Vec<SlotLog<W>> = watch_slots.iter().map(|_| SlotLog::default()).collect();
    let mut tally = Tally::default();
    let mut pend = Pending::<W>::new(code.outputs.items.len(), code.out_planes);
    let mut scratch: Vec<WideLanes<W>> = vec![WideLanes::X; code.max_out_bits];
    let mut inputs_buf: Vec<Value> = Vec::with_capacity(8);
    let mut gen_cursor = 0usize;
    let fault_at = config.fault.first_activation(p);
    let mut t = first_step;
    'run: while t <= cut {
        cont.beat(p);
        if cont.cancelled() {
            break;
        }
        if p == 0 {
            ctx.step.store(t, Ordering::Relaxed);
        }
        if counts_steps.is_some() {
            tally.inc(Counter::TimeSteps);
            shard.set_gauge(Gauge::SimTime, t);
        }
        let busy_start = Instant::now();
        // ---- apply phase ----------------------------------------------
        // What a write owes once its masked diff is known: the event
        // count, the watched slot's packed record, its fan-out's dirty
        // bits.
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
        let (writes, planes) = pend.queued();
        let mut cursor = 0usize;
        for wr in writes {
            let new = &planes[cursor..cursor + wr.port.width as usize];
            cursor += new.len();
            values[wr.port.planes()].copy_from_slice(new);
            commit(wr.port.slot, &wr.diff, new);
        }
        pend.clear();
        // Every executed step is at or before the next stimulus, so what
        // is due is exactly the entries at `t`.
        while let Some(wr) = gen_writes.get(gen_cursor).filter(|wr| wr.t == t) {
            gen_cursor += 1;
            let data = &gen_planes[wr.off..wr.off + wr.port.width as usize];
            let cur = &mut values[wr.port.planes()];
            let mut diff = wide::mask_none::<W>();
            for (c, d) in cur.iter_mut().zip(data) {
                let eff = WideLanes::select(&wr.mask, *d, *c);
                wide::mask_or_assign(&mut diff, &c.diff(eff));
                *c = eff;
            }
            commit(wr.port.slot, &wide::mask_and(&diff, lane_mask), cur);
        }

        // ---- evaluate phase -------------------------------------------
        let mut step_evals = 0u64;
        if t < end {
            if !gating {
                dirty.mark_all();
            }
            // Only the marked blocks are visited; what the step skipped is
            // counted once, after the loop.
            let mut blocks_run = 0u64;
            for b in dirty.take_all() {
                let block = plan.blocks[b];
                let (lo, hi) = (block.lo as usize, block.hi as usize);
                blocks_run += 1;
                // Heartbeat and fault plan are block-grained, as in the
                // scalar kernel.
                cont.beat(p);
                let checked = *processed + (hi - lo) as u64 > fault_at;
                for k in lo..hi {
                    if checked {
                        let n = *processed + (k - lo) as u64;
                        if let FaultAction::Exit = config.fault.check(p, n, cont.cancel_flag()) {
                            // Only reached after cancellation.
                            break 'run;
                        }
                    }
                    let (op, ins) = (code.ops[k], code.inputs.row(k));
                    let (w, outs) = (code.widths[k] as usize, code.outputs.row(k));
                    let state = &mut nat_state[code.state[k] as usize..];
                    if eval_native(op, ins, w, &values, state, pend.next_planes(w)) {
                        pend.close(outs[0], &values, lane_mask);
                        continue;
                    }
                    // Scalar fallback: evaluate each live lane with the
                    // shared kernel. Tail lanes (>= chunk_lanes) are left
                    // stale in scratch; the masked compare drops them.
                    let i = insns[k] as usize;
                    let kind = netlist.elements()[prog.elem(i)].kind();
                    let states = &mut fb_state[k];
                    for lane in 0..chunk_lanes as u32 {
                        inputs_buf.clear();
                        for &slot in prog.inputs(i) {
                            let planes = Slot::of(prog, slot).planes();
                            inputs_buf.push(wide::gather(&values[planes], lane));
                        }
                        let out = evaluate(kind, &inputs_buf, &mut states[lane as usize]);
                        let mut s_off = 0usize;
                        for (port, v) in out.iter() {
                            let pw = outs[port].width as usize;
                            wide::scatter(&mut scratch[s_off..s_off + pw], lane, &v);
                            s_off += pw;
                        }
                    }
                    let mut s_off = 0usize;
                    for &port in outs {
                        let new = &scratch[s_off..s_off + port.width as usize];
                        s_off += new.len();
                        pend.next_planes(new.len()).copy_from_slice(new);
                        pend.close(port, &values, lane_mask);
                    }
                }
                *processed += (hi - lo) as u64;
                step_evals += (hi - lo) as u64;
            }
            tally.add(
                Counter::BlocksSkipped,
                plan.blocks.len() as u64 - blocks_run,
            );
            tally.add(Counter::EvalsSkipped, insns.len() as u64 - step_evals);
        }
        tally.add_elapsed(Counter::BusyNs, busy_start);
        // Publish this step's deltas (never per event).
        tally.add(Counter::Evaluations, step_evals);
        tally.add(Counter::Activations, step_evals);
        tally.flush(&shard);
        shard.set_gauge(Gauge::QueueDepth, pend.len as u64);
        // A step that queued no write left no dirty block either: nothing
        // changes until the next stimulus, so continue there.
        let mut next = t + 1;
        let stimulus = gen_writes.get(gen_cursor).map_or(cut + 1, |wr| wr.t);
        if gating && stimulus > next && pend.len == 0 {
            next = stimulus;
            credit_quiet_steps(&mut tally, plan, 0, counts_steps, (t, next, end));
        }
        t = next;
    }
    // Any early break.
    tally.flush(&shard);

    // Slot-major: one slot's `chunk_lanes` list tails stay cache-resident
    // while its log is replayed.
    let mut lanes: Vec<Vec<Encoded>> = (0..chunk_lanes)
        .map(|_| Vec::with_capacity(watch_slots.len()))
        .collect();
    for (log, &slot) in logs.iter().zip(watch_slots) {
        let lists = transpose_slot(log, prog.slot_width(slot) as usize, chunk_lanes);
        for (lane, list) in lanes.iter_mut().zip(lists) {
            lane.push(list);
        }
    }

    let snapshots = bounds.capture.then(|| {
        let gather = |arena: &[WideLanes<W>], off: usize, w: usize, lane: u32| {
            wide::gather(&arena[off..off + w], lane)
        };
        (0..chunk_lanes)
            .map(|local| {
                let lane = local as u32;
                let node_values: Vec<Value> = (0..netlist.num_nodes())
                    .map(|n| {
                        let port = Slot::of(prog, prog.slot_of(NodeId::from_index(n)));
                        wide::gather(&values[port.planes()], lane)
                    })
                    .collect();
                let mut elem_states = ctx.start(lane_base + local).elem_states.clone();
                for (k, &i) in insns.iter().enumerate() {
                    let (w, off) = (code.widths[k] as usize, code.state[k] as usize);
                    elem_states[prog.elem(i as usize)] = match code.ops[k] {
                        Opcode::Dff | Opcode::DffR => ElemState::Edge {
                            q: gather(&nat_state, off, w, lane),
                            last_clk: gather(&nat_state, off + w, 1, lane),
                        },
                        Opcode::Latch => ElemState::Stored(gather(&nat_state, off, w, lane)),
                        _ => match fb_state[k].get(local) {
                            Some(s) => s.clone(),
                            None => continue,
                        },
                    };
                }
                // A queued wide write is this lane's unit-delay event only
                // where the lane changed, exactly when the scalar engine
                // would have queued it.
                let (writes, planes) = pend.queued();
                let mut cursor = 0usize;
                let queued = writes.iter().map(|wr| {
                    let w = wr.port.width as usize;
                    cursor += w;
                    (
                        prog.node_of(wr.port.slot).index(),
                        gather(planes, cursor - w, w, lane),
                    )
                });
                let carry = ctx.carry[lane_base + local].clone();
                bounds.unit_delay_snapshot(node_values, elem_states, queued, carry)
            })
            .collect()
    });
    ChunkOut { lanes, snapshots }
}

/// Evaluates instruction `op` with port-0 width `w` natively, reading its
/// inputs at plane offsets `ins` of `values` and writing its `w` output
/// planes into `out` (the pending buffer); `state` starts at the
/// instruction's native state. Returns `false`, writing nothing, for the
/// opcodes without a packed kernel.
///
/// Gates and buffers compute with `wide`'s fold operations straight from
/// the value arena into `out`, one arm for every width; the mux,
/// registers, latch and tri-state run their `wide` kernels on it too.
#[inline]
fn eval_native<const W: usize>(
    op: Opcode,
    ins: &[u32],
    w: usize,
    values: &[WideLanes<W>],
    state: &mut [WideLanes<W>],
    out: &mut [WideLanes<W>],
) -> bool {
    // A data input spans `w` planes; a control input (select, clock,
    // enable, reset) is one.
    let input = |k: usize| &values[ins[k] as usize..ins[k] as usize + w];
    let control = |k: usize| values[ins[k] as usize];
    match op {
        Opcode::And
        | Opcode::Or
        | Opcode::Nand
        | Opcode::Nor
        | Opcode::Xor
        | Opcode::Xnor
        | Opcode::Not
        | Opcode::Buf => {
            wide::load_logic(out, input(0));
            for k in 1..ins.len() {
                match op {
                    Opcode::And | Opcode::Nand => wide::fold_and(out, input(k)),
                    Opcode::Or | Opcode::Nor => wide::fold_or(out, input(k)),
                    _ => wide::fold_xor(out, input(k)),
                }
            }
            if matches!(op, Opcode::Nand | Opcode::Nor | Opcode::Xnor | Opcode::Not) {
                wide::not_inplace(out);
            }
        }
        Opcode::Mux => wide::mux(out, control(0), input(1), input(2)),
        Opcode::Dff | Opcode::DffR => {
            let (q, rest) = state[..w + 1].split_at_mut(w);
            let last_clk = &mut rest[0];
            if op == Opcode::Dff {
                wide::dff(q, last_clk, control(0), input(1));
            } else {
                wide::dffr(q, last_clk, control(0), input(1), control(2));
            }
            out.copy_from_slice(q);
        }
        Opcode::Latch => {
            let q = &mut state[..w];
            wide::latch(q, control(0), input(1));
            out.copy_from_slice(q);
        }
        Opcode::TriBuf => wide::tribuf(out, control(0), input(1)),
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::ElementKind;
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
        let mut log = SlotLog::<W>::default();
        for (t, diff, new) in &writes {
            log.record(*t, diff, new);
        }
        assert_eq!(
            log.recs.len(),
            writes.iter().filter(|w| wide::mask_any(&w.1)).count()
        );
        assert!(log.recs.iter().all(|(_, m)| wide::mask_any(m)));
        assert_eq!(log.planes.len(), width * log.recs.len());

        let got = transpose_slot(&log, width, chunk_lanes);
        let decoded: Vec<Vec<(Time, Value)>> = got
            .iter()
            .map(|list| list.changes(width as u8).collect())
            .collect();
        assert_eq!(
            decoded,
            per_lane_reference(&writes, chunk_lanes),
            "W={W} width={width}"
        );
        // Exact size: a time and `2·width` plane bits per change.
        for (list, changes) in got.iter().zip(&decoded) {
            let n = changes.len();
            assert_eq!(list.heap_bytes(), 8 * (n + (2 * width * n).div_ceil(64)));
        }
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
        let lists = transpose_slot(&log, 1, 100);
        assert_eq!(lists.len(), 100);
        assert!(lists
            .iter()
            .all(|list| list.changes(1).len() == 0 && list.heap_bytes() == 0));
    }

    /// The branch-free lane counts against one increment per set bit, over
    /// mask counts that spill the byte counters never, once, and twice
    /// with a remainder, and over full, ragged and one-lane chunks.
    #[test]
    fn lane_counts_match_a_count_per_set_bit() {
        fn case<const W: usize>(rng: &mut SmallRng) {
            for chunk_lanes in [64 * W, 64 * W - 37, 1] {
                let live = wide::mask_first::<W>(chunk_lanes);
                let shapes = [
                    (0, false),
                    (1, true),
                    (254, false),
                    (255, true),
                    (600, true),
                    (600, false),
                ];
                for (records, full) in shapes {
                    // Every lane in every mask, or a mix of dense and sparse.
                    let masks: Vec<LaneMask<W>> = (0..records)
                        .map(|_| {
                            let dense = rng.gen_range(0..3u32) > 0;
                            let m = [(); W].map(|_| match (full, dense) {
                                (true, _) => !0,
                                (false, true) => !rng.gen::<u64>() | rng.gen::<u64>(),
                                (false, false) => rng.gen::<u64>() & rng.gen::<u64>(),
                            });
                            wide::mask_and(&m, &live)
                        })
                        .collect();
                    let mut want = vec![0usize; chunk_lanes];
                    for m in &masks {
                        wide::for_each_lane(m, |lane| want[lane as usize] += 1);
                    }
                    let got = lane_counts(masks.iter(), chunk_lanes);
                    assert_eq!(got, want, "W={W} lanes {chunk_lanes} records {records}");
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(0xc0_4e75);
        case::<1>(&mut rng);
        case::<2>(&mut rng);
        case::<4>(&mut rng);
        case::<8>(&mut rng);
    }

    /// The chunk rule over lanes 1..=1100 × threads 1..=5 × every forced
    /// width: contiguous, non-empty chunks of at most 512 lanes covering
    /// every lane, as many as the rule says, even when unforced, each run
    /// at the narrowest word group that covers it.
    #[test]
    fn lane_chunks_cover_every_lane_by_shape() {
        for lanes in 1..=1100usize {
            for threads in 1..=5usize {
                for width in [None, Some(64), Some(128), Some(256), Some(512)] {
                    let case = format!("{lanes} lanes, {threads} threads, width {width:?}");
                    let chunks = lane_chunks(lanes, threads, width);
                    let mut next = 0;
                    for chunk in &chunks {
                        assert_eq!(chunk.start, next, "{case}: {chunks:?}");
                        assert!(!chunk.is_empty() && chunk.len() <= 512, "{case}: {chunk:?}");
                        let words = group_words(chunk.len());
                        assert!([1, 2, 4, 8].contains(&words), "{case}");
                        assert!(words * 64 >= chunk.len(), "{case}: W={words} too narrow");
                        let narrower = words / 2 * 64;
                        assert!(
                            words == 1 || narrower < chunk.len(),
                            "{case}: W={words} too wide"
                        );
                        next = chunk.end;
                    }
                    assert_eq!(next, lanes, "{case}: lanes left over");
                    let sizes = chunks.iter().map(|c| c.len());
                    match width {
                        Some(w) => {
                            assert_eq!(chunks.len(), lanes.div_ceil(w), "{case}");
                            assert!(sizes.rev().skip(1).all(|n| n == w), "{case}");
                        }
                        None => {
                            let n = lanes.div_ceil(512).max(threads.min(lanes));
                            assert_eq!(chunks.len(), n, "{case}");
                            let (lo, hi) = (sizes.clone().min(), sizes.max());
                            assert!(hi.unwrap() - lo.unwrap() <= 1, "{case}: {chunks:?}");
                        }
                    }
                }
            }
        }
    }

    /// The override bitset read at any lane offset: aligned, straddling two
    /// words, and past the end.
    #[test]
    fn bits_at_reads_any_lane_offset() {
        let bits = [0xdead_beef_0123_4567u64, 0x89ab_cdef_f00d_cafe];
        assert_eq!(bits_at(&bits, 0), bits[0]);
        assert_eq!(bits_at(&bits, 64), bits[1]);
        assert_eq!(bits_at(&bits, 4), bits[0] >> 4 | bits[1] << 60);
        assert_eq!(bits_at(&bits, 100), bits[1] >> 36);
        assert_eq!(bits_at(&bits, 128), 0);
        for start in 0..128 {
            for lane in 0..64 {
                let g = start + lane;
                let want = g < 128 && bits[g / 64] >> (g % 64) & 1 == 1;
                assert_eq!(
                    bits_at(&bits, start) >> lane & 1 == 1,
                    want,
                    "{start}+{lane}"
                );
            }
        }
    }

    /// Runs the gate arm of `kind` at fan-in `n` and width `w` over
    /// random four-state lanes (Z included), with `chunk_lanes` of the
    /// `64·W` live, and checks every live lane's output and queued diff
    /// against [`evaluate`]; then commits the output and checks that the
    /// same inputs queue nothing.
    fn gate_arm_case<const W: usize>(
        kind: &ElementKind,
        n: usize,
        w: usize,
        chunk_lanes: usize,
        rng: &mut SmallRng,
    ) {
        let case = format!("{kind:?} fan-in {n} width {w} W={W} lanes {chunk_lanes}");
        let op = Opcode::of(kind).expect("a gate");
        // Each lane one of 0, 1, Z and X, or only known bits, or mostly.
        let plane = |rng: &mut SmallRng| WideLanes::<W> {
            a: [(); W].map(|_| rng.gen()),
            b: [(); W].map(|_| match rng.gen_range(0..3u32) {
                0 => 0,
                1 => rng.gen::<u64>() & rng.gen::<u64>(),
                _ => rng.gen(),
            }),
        };
        // Input `k` at planes `k·w..`, the output slot after the inputs.
        let mut values: Vec<WideLanes<W>> = (0..(n + 1) * w).map(|_| plane(rng)).collect();
        let ins: Vec<u32> = (0..n).map(|k| (k * w) as u32).collect();
        let port = Slot {
            off: (n * w) as u32,
            width: w as u32,
            ..Slot::default()
        };
        let live = wide::mask_first::<W>(chunk_lanes);
        let mut pend = Pending::<W>::new(1, w);
        let run = |values: &[WideLanes<W>], pend: &mut Pending<W>| {
            pend.clear();
            assert!(eval_native(
                op,
                &ins,
                w,
                values,
                &mut [],
                pend.next_planes(w)
            ));
            pend.close(port, values, &live);
        };
        run(&values, &mut pend);
        let (writes, planes) = pend.queued();
        assert!(writes.len() <= 1, "{case}");
        let diff = writes.first().map_or(wide::mask_none(), |wr| wr.diff);
        assert_eq!(planes.len(), w * writes.len(), "{case}");
        for lane in 0..(64 * W) as u32 {
            let bit = |m: &LaneMask<W>| m[lane as usize / 64] >> (lane % 64) & 1 == 1;
            if !bit(&live) {
                assert!(!bit(&diff), "{case}: dead lane {lane} in the diff");
                continue;
            }
            let inputs: Vec<Value> = ins
                .iter()
                .map(|&off| wide::gather(&values[off as usize..off as usize + w], lane))
                .collect();
            let want = evaluate(kind, &inputs, &mut ElemState::None).get(0);
            let changed = want != wide::gather(&values[port.planes()], lane);
            assert_eq!(bit(&diff), changed, "{case}: lane {lane} on {inputs:?}");
            if !writes.is_empty() {
                let got = wide::gather(planes, lane);
                assert_eq!(got, want, "{case}: lane {lane} on {inputs:?}");
            }
        }
        if !writes.is_empty() {
            values[port.planes()].copy_from_slice(planes);
            run(&values, &mut pend);
            assert!(
                pend.queued().0.is_empty(),
                "{case}: a committed output queued again"
            );
            assert!(pend.queued().1.is_empty(), "{case}: dropped planes counted");
        }
    }

    #[test]
    fn gate_arms_match_evaluate_lane_by_lane() {
        fn all_cases<const W: usize>(rng: &mut SmallRng) {
            let gates = [
                ElementKind::And,
                ElementKind::Or,
                ElementKind::Nand,
                ElementKind::Nor,
                ElementKind::Xor,
                ElementKind::Xnor,
                ElementKind::Not,
                ElementKind::Buf,
            ];
            for kind in &gates {
                let fan_ins = match kind {
                    ElementKind::Not | ElementKind::Buf => 1..=1,
                    _ => 1..=4,
                };
                for n in fan_ins {
                    for w in [1, 2, 7, 64] {
                        // A full group, ragged tails, one lane.
                        for chunk_lanes in [64 * W, 64 * W - 1, 64 * W - 37, 1] {
                            gate_arm_case::<W>(kind, n, w, chunk_lanes, rng);
                        }
                    }
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(0x6a7e_a245);
        all_cases::<1>(&mut rng);
        all_cases::<2>(&mut rng);
        all_cases::<4>(&mut rng);
        all_cases::<8>(&mut rng);
    }

    /// The chunk's dirty bits: every block at the start and after
    /// `mark_all`, none past the last block, marks taken once each in
    /// ascending order.
    #[test]
    fn block_bits_take_each_mark_once_in_order() {
        for blocks in [0usize, 1, 63, 64, 65, 200] {
            let mut bits = BlockBits::all_dirty(blocks);
            assert_eq!(
                bits.take_all().collect::<Vec<_>>(),
                (0..blocks).collect::<Vec<_>>()
            );
            assert_eq!(bits.take_all().count(), 0, "{blocks} blocks");
            let marked: Vec<usize> = [0, 5, 63, 64, 130, 199]
                .into_iter()
                .filter(|&b| b < blocks)
                .collect();
            for &b in marked.iter().rev() {
                bits.mark(b as u32);
                bits.mark(b as u32);
            }
            assert_eq!(
                bits.take_all().collect::<Vec<_>>(),
                marked,
                "{blocks} blocks"
            );
            bits.mark_all();
            assert_eq!(bits.take_all().count(), blocks);
        }
    }
}
