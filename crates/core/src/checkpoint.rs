//! The checkpoint driver: segmented runs, periodic snapshots, resume.
//!
//! The engines themselves know how to run one *segment* — the span
//! between two barrier-consistent cuts — optionally warm-starting from
//! an [`EngineSnapshot`] and optionally capturing one at the segment's
//! end. This module turns that into crash-consistent long runs:
//!
//! - [`run`] slices `[0, end_time]` into segments of
//!   [`CheckpointPolicy::every`] ticks, captures a snapshot at each cut,
//!   and commits it through [`CheckpointStore`] (temp file + fsync +
//!   atomic rename, keep-last-K);
//! - [`resume`] scans the checkpoint directory, loads the newest *valid*
//!   snapshot (falling back past torn or corrupt files), and continues
//!   the run — producing waveforms bit-identical to an uninterrupted
//!   run.
//!
//! # Why segments compose exactly
//!
//! A segment ending at cut `T` runs in *capture* mode: an event computed
//! for time `te > T` is not dropped (as a plain run ending at `T` would)
//! but collected into the snapshot's pending list, **with** the same
//! `last_scheduled`/`last_sched_time` bookkeeping the uninterrupted run
//! would have performed — because the uninterrupted run (horizon
//! `end_time`) keeps exactly those events. Events beyond `end_time`
//! itself are dropped without bookkeeping in both worlds. Since an event
//! beyond `T` cannot affect any evaluation at or before `T`, the
//! uninterrupted run's state at `T` and the captured snapshot agree on
//! every field; re-injecting the pending list and re-expanding generator
//! schedules past `T` therefore replays the identical future. This also
//! makes snapshots engine-portable: a cut captured by the sequential
//! engine can be resumed by the chaotic one (and vice versa), because
//! all engines agree on state at every cut.
//!
//! # The segment boundary
//!
//! All five executors meet a cut through this module's four rules: the
//! start state ([`start_state`]), the stimulus and carry
//! ([`stimulus_events`], [`in_flight_events`]), routing a computed change
//! ([`Bounds::route`]) and the snapshot at the cut ([`Bounds::snapshot`]).
//! Every public resume path applies [`check_resume`].

use std::borrow::Cow;
use std::time::{Duration, Instant};

use parsim_checkpoint::{
    ChangeRecord, CheckpointError, CheckpointStore, EngineSnapshot, PendingEvent,
};
use parsim_logic::{
    expand_generator, expand_vector, transition_delay, Delay, ElemState, ElementKind, Time, Value,
};
use parsim_netlist::{Netlist, NodeId};
use parsim_telemetry::{Counter, Gauge, TelemetryCtx, DEFAULT_RING_CAPACITY};
use parsim_trace::Trace;

use crate::chaotic::ChaoticAsync;
use crate::compiled::{CompiledMode, LaneStimulus};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::metrics::Metrics;
use crate::seq::EventDriven;
use crate::sync::SyncEventDriven;
use crate::waveform::SimResult;

pub use parsim_checkpoint::netlist_digest;

/// Which engine the checkpoint driver should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// [`EventDriven`] — the sequential oracle.
    Sequential,
    /// [`SyncEventDriven`] — barrier-synchronized parallel event-driven.
    Synchronous,
    /// [`CompiledMode`] — unit-delay levelized sweep (scalar executor;
    /// the SIMD batch API has its own segment entry point,
    /// [`CompiledMode::run_batch_segment`], returning one snapshot per
    /// lane).
    Compiled,
    /// [`ChaoticAsync`] — the lock-free asynchronous engine.
    Chaotic,
}

impl EngineKind {
    /// Engine name as used in CLI flags and error messages.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Sequential => "seq",
            EngineKind::Synchronous => "sync",
            EngineKind::Compiled => "compiled",
            EngineKind::Chaotic => "async",
        }
    }

    fn run_segment(
        self,
        netlist: &Netlist,
        config: &SimConfig,
        seg: SegmentSpec<'_>,
    ) -> Result<SegmentOut, SimError> {
        match self {
            EngineKind::Sequential => {
                EventDriven::run_segment(netlist, config, seg, &LaneStimulus::base())
            }
            EngineKind::Synchronous => SyncEventDriven::run_segment(netlist, config, seg),
            EngineKind::Compiled => CompiledMode::run_segment(netlist, config, seg),
            EngineKind::Chaotic => ChaoticAsync::run_segment(netlist, config, seg),
        }
    }
}

/// What one engine invocation should simulate.
///
/// `resume` is the state at the previous cut (`None` for a fresh start);
/// the segment simulates `(resume.time, cut]`. `config.end_time` stays
/// the *horizon*: events beyond it are dropped exactly as in an
/// uninterrupted run. With `capture`, events in `(cut, end_time]` and
/// the final engine state come back as an [`EngineSnapshot`].
pub(crate) struct SegmentSpec<'a> {
    pub resume: Option<&'a EngineSnapshot>,
    pub cut: u64,
    pub capture: bool,
    /// The run-scoped telemetry context. Owned by the caller (engine
    /// `run` wrapper or the checkpoint driver) and shared across every
    /// segment of the run, so registry counters stay cumulative; only
    /// the owner calls [`TelemetryCtx::finish`], exactly once.
    pub telemetry: TelemetryCtx,
}

/// Builds the run-scoped telemetry context: one registry shard per
/// worker plus the driver shard, the sampler armed per
/// `config.sample_every`, and the context published to the config's hub
/// (if any) for mid-run observation.
pub(crate) fn new_run_ctx(config: &SimConfig) -> TelemetryCtx {
    let workers = config.threads.max(1);
    let ctx = TelemetryCtx::for_run(workers, config.sample_every, DEFAULT_RING_CAPACITY);
    ctx.registry
        .driver()
        .set_gauge(Gauge::Workers, workers as u64);
    if let Some(hub) = &config.telemetry_hub {
        hub.install(ctx.clone());
    }
    ctx
}

impl SegmentSpec<'_> {
    /// The whole run in one segment: no warm start, no capture. Every
    /// plain `Engine::run` goes through this, making the segmented path
    /// the only code path.
    pub fn whole(config: &SimConfig, telemetry: TelemetryCtx) -> SegmentSpec<'static> {
        SegmentSpec {
            resume: None,
            cut: config.end_time.ticks(),
            capture: false,
            telemetry,
        }
    }

    /// This segment's bounds under `config`'s horizon.
    pub fn bounds(&self, config: &SimConfig) -> Bounds {
        Bounds {
            t0: self.resume.map(|s| s.time),
            cut: self.cut,
            horizon: config.end_time.ticks(),
            capture: self.capture,
        }
    }
}

/// Where a segment starts and ends: everything the cut rules read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bounds {
    /// The resume snapshot's time, `None` for a fresh start. Stimulus at
    /// or before it is already in the start state.
    pub t0: Option<u64>,
    /// How far the segment simulates (inclusive).
    pub cut: u64,
    /// The run's horizon (`SimConfig::end_time`): events beyond it are
    /// dropped exactly as in an uninterrupted run.
    pub horizon: u64,
    /// Whether events in `(cut, horizon]` are captured into a snapshot.
    pub capture: bool,
}

/// Where a computed output change goes ([`Bounds::route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Due by the cut: the engine files it at this time.
    Keep(u64),
    /// Past the cut but within the horizon of a capturing segment: the
    /// uninterrupted run keeps it, so the snapshot carries it.
    Capture(u64),
    /// Past everything the run keeps.
    Drop,
}

impl Bounds {
    /// Routes an output change to `v`, computed at `t` by a driver whose
    /// last kept value and time are `last` / `last_t`; the caller has
    /// checked `v != *last`. Applies the rise/fall delay and the monotone
    /// transport floor (a pulse shorter than the delay differential
    /// stretches instead of reordering). `Keep` and `Capture` update the
    /// bookkeeping; `Drop` must not, or a flip-back would re-emit the kept
    /// value. A symmetric delay is settled here, without the per-bit
    /// direction scan of [`transition_delay`]: every event engine routes
    /// each output change through this, and most elements have one delay.
    #[inline]
    pub fn route(
        self,
        last: &mut Value,
        last_t: &mut u64,
        v: Value,
        t: u64,
        (rise, fall): (Delay, Delay),
    ) -> Route {
        let delay = if rise == fall {
            rise
        } else {
            transition_delay(last, &v, rise, fall)
        };
        let te = (t + delay.ticks()).max(*last_t + 1);
        let route = if te <= self.cut {
            Route::Keep(te)
        } else if self.capture && te <= self.horizon {
            Route::Capture(te)
        } else {
            return Route::Drop;
        };
        *last = v;
        *last_t = te;
        route
    }

    /// The snapshot at this segment's cut: the engine state there plus
    /// `pending`, every event past the cut (captured ones and the carry).
    pub fn snapshot(
        self,
        values: Vec<Value>,
        last_scheduled: Vec<Value>,
        last_sched_time: Vec<u64>,
        elem_states: Vec<ElemState>,
        mut pending: Vec<PendingEvent>,
    ) -> EngineSnapshot {
        pending.sort_by_key(|ev| (ev.time, ev.node));
        EngineSnapshot {
            end_time: self.horizon,
            time: self.cut,
            step: 0,
            seeds: [0, 0],
            values,
            last_scheduled,
            last_sched_time,
            elem_states,
            pending,
            changes: Vec::new(),
        }
    }

    /// The snapshot at the cut of a unit-delay executor: `queued` are the
    /// `(node, value)` writes its last step left for `cut + 1`. A write
    /// that changes its node is pending, as an event engine would have
    /// scheduled it; with one driver per node, the last value scheduled is
    /// the pending value or else the current one.
    pub fn unit_delay_snapshot(
        self,
        values: Vec<Value>,
        elem_states: Vec<ElemState>,
        queued: impl IntoIterator<Item = (usize, Value)>,
        mut pending: Vec<PendingEvent>,
    ) -> EngineSnapshot {
        let mut last_scheduled = values.clone();
        let mut last_sched_time = vec![0u64; values.len()];
        for (node, v) in queued {
            if v != values[node] {
                last_scheduled[node] = v;
                last_sched_time[node] = self.cut + 1;
                pending.push(PendingEvent {
                    time: self.cut + 1,
                    node: node as u32,
                    value: v,
                });
            }
        }
        self.snapshot(
            values,
            last_scheduled,
            last_sched_time,
            elem_states,
            pending,
        )
    }
}

/// The state a segment starts from: its resume snapshot, or every
/// engine's fresh start ([`EngineSnapshot::shaped_for`]).
pub(crate) fn start_state<'a>(
    netlist: &Netlist,
    horizon: u64,
    resume: Option<&'a EngineSnapshot>,
) -> Cow<'a, EngineSnapshot> {
    resume.map_or_else(
        || Cow::Owned(EngineSnapshot::shaped_for(netlist, horizon)),
        Cow::Borrowed,
    )
}

/// One generator's schedule within the segment, `(t0, cut]`. Nothing at
/// or before `t0` is needed: the start state already holds each
/// generator node's value there.
pub(crate) fn generator_events(
    kind: &ElementKind,
    bounds: Bounds,
) -> impl Iterator<Item = (u64, Value)> {
    expand_generator(kind, Time(bounds.cut))
        .into_iter()
        .map(|(t, v)| (t.ticks(), v))
        .filter(move |&(t, _)| bounds.t0.is_none_or(|t0| t > t0))
}

/// A lane override's schedule within the segment, `(t0, cut]`, expanded
/// as a `Vector` generator of the same changes would be.
pub(crate) fn override_events(
    schedule: &[(Time, Value)],
    bounds: Bounds,
    mut file: impl FnMut(u64, Value),
) {
    let changes = schedule.iter().map(|&(t, v)| (t.ticks(), v));
    expand_vector(changes, Time(bounds.cut), |t, v| {
        if bounds.t0.is_none_or(|t0| t.ticks() > t0) {
            file(t.ticks(), v);
        }
    });
}

/// Files a lane's stimulus for the segment as `(time, node, value)`:
/// every generator's schedule in element order, except that an override
/// replaces its node's generator, then the overrides in order. The first
/// error `file` returns stops the expansion and is returned.
pub(crate) fn stimulus_events(
    netlist: &Netlist,
    stimulus: &LaneStimulus,
    bounds: Bounds,
    mut file: impl FnMut(u64, usize, Value) -> Result<(), SimError>,
) -> Result<(), SimError> {
    for gen in netlist.generators() {
        let e = netlist.element(gen);
        let out = e.outputs()[0];
        if stimulus.overrides.iter().all(|(node, _)| *node != out) {
            for (t, v) in generator_events(e.kind(), bounds) {
                file(t, out.index(), v)?;
            }
        }
    }
    for (node, schedule) in &stimulus.overrides {
        let mut filed = Ok(());
        override_events(schedule, bounds, |t, v| {
            if filed.is_ok() {
                filed = file(t, node.index(), v);
            }
        });
        filed?;
    }
    Ok(())
}

/// Files the resume snapshot's in-flight events due by the cut as
/// `(time, node, value)`, in `(time, node)` order, and returns the rest:
/// the carry, which the segment hands to its own snapshot unexecuted
/// (their bookkeeping happened when they were computed).
pub(crate) fn in_flight_events(
    resume: Option<&EngineSnapshot>,
    cut: u64,
    mut file: impl FnMut(u64, usize, Value) -> Result<(), SimError>,
) -> Result<Vec<PendingEvent>, SimError> {
    let mut carry = Vec::new();
    for ev in resume.map_or(&[][..], |snap| &snap.pending) {
        if ev.time <= cut {
            file(ev.time, ev.node as usize, ev.value)?;
        } else {
            carry.push(ev.clone());
        }
    }
    Ok(carry)
}

/// The one check before resuming `snap`: it fits `netlist`, was captured
/// for this `horizon`, and lies strictly before the `cut` to run to.
pub(crate) fn check_resume(
    snap: &EngineSnapshot,
    netlist: &Netlist,
    horizon: u64,
    cut: u64,
) -> Result<(), SimError> {
    snap.check_shape(netlist)?;
    if snap.end_time != horizon {
        return Err(SimError::Checkpoint(CheckpointError::EndTimeMismatch {
            snapshot: snap.end_time,
            config: horizon,
        }));
    }
    if snap.time >= cut {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "resume snapshot time {} is not before the cut {cut}",
                snap.time
            ),
        });
    }
    Ok(())
}

/// What one segment produced. Its counters are not here: the engine
/// published them into the segment's [`TelemetryCtx`].
pub(crate) struct SegmentOut {
    /// Watched changes applied within the segment, in emission order.
    pub changes: Vec<(Time, NodeId, Value)>,
    /// Wall-clock duration of the segment.
    pub wall: Duration,
    /// Per-worker trace, when tracing was on (segment-local).
    pub trace: Option<Trace>,
    /// Present iff the segment ran with `capture`.
    pub snapshot: Option<EngineSnapshot>,
}

impl SegmentOut {
    /// Finishes a whole-run segment into the public result type.
    pub fn into_result(
        self,
        netlist: &Netlist,
        config: &SimConfig,
        ctx: &TelemetryCtx,
    ) -> SimResult {
        finish_run(netlist, config, self.changes, self.trace, self.wall, ctx)
    }
}

/// Ends a run: takes the final registry snapshot, builds the [`Metrics`]
/// view over it, and assembles the public result. Called exactly once
/// per run, by whoever created `ctx`.
fn finish_run(
    netlist: &Netlist,
    config: &SimConfig,
    changes: Vec<(Time, NodeId, Value)>,
    trace: Option<Trace>,
    wall: Duration,
    ctx: &TelemetryCtx,
) -> SimResult {
    let telemetry = ctx.finish();
    let metrics = Metrics::from_registry(&ctx.registry, &telemetry.finals, wall);
    let mut result =
        SimResult::from_changes(netlist, config.end_time, &config.watch, changes, metrics);
    result.trace = trace;
    result.telemetry = Some(telemetry);
    result
}

/// Runs `netlist` on `kind` with periodic checkpointing per
/// `config.checkpoint`, starting fresh (any existing snapshots in the
/// directory are ignored and eventually pruned).
///
/// # Errors
///
/// [`SimError::Checkpoint`] for policy/storage failures (including
/// injected storage faults — the simulated crash), plus everything the
/// underlying engine can return. On watchdog errors the
/// [`StallDiagnostic`](crate::StallDiagnostic) reports the last
/// committed checkpoint step.
pub fn run(kind: EngineKind, netlist: &Netlist, config: &SimConfig) -> Result<SimResult, SimError> {
    drive(kind, netlist, config, false)
}

/// Scans the checkpoint directory, restores the newest valid snapshot
/// (falling back past torn/corrupt files), and continues the run to
/// `config.end_time` — with further periodic checkpoints. With no
/// loadable snapshot the run simply starts fresh.
///
/// The produced waveforms are bit-identical to an uninterrupted
/// [`run`]: restored history (watched changes up to the cut) rides in
/// the snapshot itself.
///
/// # Errors
///
/// As [`run`]; additionally
/// [`CheckpointError::EndTimeMismatch`] if the snapshot was captured for
/// a different horizon than `config.end_time`.
pub fn resume(
    kind: EngineKind,
    netlist: &Netlist,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    drive(kind, netlist, config, true)
}

fn drive(
    kind: EngineKind,
    netlist: &Netlist,
    config: &SimConfig,
    try_resume: bool,
) -> Result<SimResult, SimError> {
    let policy = config.checkpoint.as_ref().ok_or_else(|| {
        SimError::Checkpoint(CheckpointError::BadPolicy {
            detail: "SimConfig::checkpoint is not set".to_string(),
        })
    })?;
    if policy.every == 0 {
        return Err(SimError::Checkpoint(CheckpointError::BadPolicy {
            detail: "checkpoint interval is zero (set with_checkpoint_every)".to_string(),
        }));
    }
    if policy.dir.as_os_str().is_empty() {
        return Err(SimError::Checkpoint(CheckpointError::BadPolicy {
            detail: "checkpoint directory is not set (set with_checkpoint_dir)".to_string(),
        }));
    }
    let end = config.end_time.ticks();
    let digest = netlist_digest(netlist);
    let mut store = CheckpointStore::open(&policy.dir, digest, policy.keep)?;

    let ctx = new_run_ctx(config);
    let driver = ctx.registry.driver();

    let mut warm: Option<EngineSnapshot> = None;
    if try_resume {
        let t = Instant::now();
        let rec = store.recover()?;
        if let Some(snap) = rec.snapshot {
            // Every segment's cut is at most the horizon.
            check_resume(&snap, netlist, end, end)?;
            warm = Some(snap);
        }
        driver.add(Counter::CheckpointRestoreNs, t.elapsed().as_nanos() as u64);
    }

    // Watched changes accumulate across segments; a restored snapshot
    // already carries the pre-crash history.
    let mut changes: Vec<ChangeRecord> = warm
        .as_mut()
        .map(|s| std::mem::take(&mut s.changes))
        .unwrap_or_default();
    let mut step = warm.as_ref().map(|s| s.step).unwrap_or(0);
    let mut committed_step = warm.as_ref().map(|s| s.step);
    let mut trace: Option<Trace> = None;
    let mut wall = Duration::ZERO;

    loop {
        let t0 = warm.as_ref().map(|s| s.time).unwrap_or(0);
        if t0 >= end {
            break;
        }
        let cut = (t0 + policy.every).min(end);
        // The final segment reaches the horizon; there is nothing left
        // to resume into, so it does not capture.
        let capture = cut < end;
        let seg = SegmentSpec {
            resume: warm.as_ref(),
            cut,
            capture,
            telemetry: ctx.clone(),
        };
        let out = kind
            .run_segment(netlist, config, seg)
            .map_err(|e| stamp_last_checkpoint(e, committed_step))?;
        changes.extend(out.changes.iter().map(|&(t, n, v)| ChangeRecord {
            time: t.ticks(),
            node: n.index() as u32,
            value: v,
        }));
        wall += out.wall;
        trace = out.trace;

        match out.snapshot {
            Some(mut snap) => {
                step += 1;
                snap.step = step;
                snap.changes = changes.clone();
                let t = Instant::now();
                let stats = store
                    .save(&snap, &config.fault.storage)
                    .map_err(|e| stamp_last_checkpoint(SimError::Checkpoint(e), committed_step))?;
                driver.add(Counter::CheckpointWriteNs, t.elapsed().as_nanos() as u64);
                driver.inc(Counter::CheckpointWrites);
                driver.add(Counter::CheckpointBytes, stats.bytes);
                driver.set_gauge(Gauge::LastCheckpointTime, snap.time);
                committed_step = Some(step);
                snap.changes.clear();
                warm = Some(snap);
            }
            None => break,
        }
    }

    let changes: Vec<(Time, NodeId, Value)> = changes
        .into_iter()
        .map(|c| (Time(c.time), NodeId::from_index(c.node as usize), c.value))
        .collect();
    Ok(finish_run(netlist, config, changes, trace, wall, &ctx))
}

/// Annotates watchdog errors with the last committed checkpoint so the
/// post-mortem names what is recoverable.
fn stamp_last_checkpoint(mut err: SimError, step: Option<u64>) -> SimError {
    match &mut err {
        SimError::Stalled { diagnostic, .. } | SimError::DeadlineExceeded { diagnostic, .. } => {
            diagnostic.last_checkpoint_step = step;
        }
        _ => {}
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`Bounds::route`] as it was before its symmetric-delay fast path:
    /// every change goes through [`transition_delay`].
    fn route_general(
        bounds: Bounds,
        last: &mut Value,
        last_t: &mut u64,
        v: Value,
        t: u64,
        (rise, fall): (Delay, Delay),
    ) -> Route {
        let te = (t + transition_delay(last, &v, rise, fall).ticks()).max(*last_t + 1);
        let route = if te <= bounds.cut {
            Route::Keep(te)
        } else if bounds.capture && te <= bounds.horizon {
            Route::Capture(te)
        } else {
            return Route::Drop;
        };
        *last = v;
        *last_t = te;
        route
    }

    fn bounds(cut: u64, horizon: u64, capture: bool) -> Bounds {
        Bounds {
            t0: None,
            cut,
            horizon,
            capture,
        }
    }

    #[test]
    fn route_matches_the_general_delay_computation() {
        let delays = [(3, 3), (2, 5), (5, 2), (1, 1), (0, 4)].map(|(r, f)| (Delay(r), Delay(f)));
        // Every cut and horizon a change at t = 20 can land on or just
        // past, captured and not.
        let mut segments = Vec::new();
        for cut in 19..=27 {
            for horizon in [cut, cut + 1, cut + 3, 100] {
                for capture in [false, true] {
                    segments.push(bounds(cut, horizon, capture));
                }
            }
        }
        // The four states, every bit alike, give the 16 old/new pairs.
        for width in [1u8, 5] {
            let mut states = vec![
                Value::zero(width),
                Value::ones(width),
                Value::x(width),
                Value::z(width),
            ];
            if width > 1 {
                // Mixed directions and a partly unknown value.
                states.push(Value::from_u64(0b10101, width));
                states.push(Value::from_u64(0b01010, width));
                states.push(Value::from_planes(width, 0b10111, 0b10000));
            }
            for old in &states {
                for new in &states {
                    for &delay in &delays {
                        // A floor below, at and above `t + delay`.
                        for last_t in [0, 21, 23, 26] {
                            for &b in &segments {
                                let (mut l0, mut t0) = (*old, last_t);
                                let (mut l1, mut t1) = (*old, last_t);
                                let got = b.route(&mut l0, &mut t0, *new, 20, delay);
                                let want = route_general(b, &mut l1, &mut t1, *new, 20, delay);
                                assert_eq!(
                                    (got, l0, t0),
                                    (want, l1, t1),
                                    "{old:?} -> {new:?}, {delay:?}, last {last_t}, {b:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn route_keeps_captures_and_drops_at_the_boundaries() {
        let (one, zero) = (Value::bit(true), Value::bit(false));
        let symmetric = (Delay(2), Delay(2));
        let route = |b: Bounds, last_t: u64| {
            let (mut last, mut lt) = (zero, last_t);
            let r = b.route(&mut last, &mut lt, one, 10, symmetric);
            (r, last, lt)
        };
        // Due exactly at the cut: kept.
        assert_eq!(route(bounds(12, 20, false), 0), (Route::Keep(12), one, 12));
        // One past the cut: dropped unless captured, and a drop leaves the
        // bookkeeping alone.
        assert_eq!(route(bounds(11, 20, false), 0), (Route::Drop, zero, 0));
        assert_eq!(
            route(bounds(11, 20, true), 0),
            (Route::Capture(12), one, 12)
        );
        // At the horizon a capture holds; past it, it drops.
        assert_eq!(
            route(bounds(11, 12, true), 0),
            (Route::Capture(12), one, 12)
        );
        assert_eq!(route(bounds(10, 11, true), 0), (Route::Drop, zero, 0));
        // The transport floor moves a change past the last one kept.
        assert_eq!(route(bounds(20, 20, false), 14), (Route::Keep(15), one, 15));
        assert_eq!(route(bounds(14, 20, false), 14), (Route::Drop, zero, 14));
        assert_eq!(
            route(bounds(14, 20, true), 14),
            (Route::Capture(15), one, 15)
        );
    }
}
