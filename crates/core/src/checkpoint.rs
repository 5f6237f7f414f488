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

use std::time::{Duration, Instant};

use parsim_checkpoint::{ChangeRecord, CheckpointError, CheckpointStore, EngineSnapshot};
use parsim_logic::{Time, Value};
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
    ctx.registry.driver().set_gauge(Gauge::Workers, workers as u64);
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
            snap.check_shape(netlist)?;
            if snap.end_time != end {
                return Err(SimError::Checkpoint(CheckpointError::EndTimeMismatch {
                    snapshot: snap.end_time,
                    config: end,
                }));
            }
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
