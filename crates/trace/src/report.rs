//! Post-run trace analysis: per-phase utilization, barrier-imbalance
//! histograms, queue-occupancy-over-time, and the hottest elements.
//!
//! A [`RunReport`] is computed purely from a drained [`Trace`] — it needs no
//! access to engine internals, so the same analyzer works for every engine
//! and for traces reconstructed in tests. Rendered two ways: `Display` for
//! the `psim --report` text path, [`RunReport::to_json`] for machine
//! consumption next to the BENCH files.

use crate::json::{escape, fmt_f64_prec};
use crate::{EventKind, Mark, Trace};
use std::collections::HashMap;
use std::fmt;

/// Work-span kinds tracked per worker, in report order. Barrier waits are
/// accounted separately (they are stall, not work).
pub const PHASES: [EventKind; 6] = [
    EventKind::ActivationReplay,
    EventKind::TimeStep,
    EventKind::PhaseApply,
    EventKind::PhaseEval,
    EventKind::PhaseNodes,
    EventKind::PhaseElems,
];

/// Log-bucketed duration histogram (nanosecond bounds, roughly powers of 4).
pub const DURATION_BOUNDS_NS: [u64; 9] =
    [250, 1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000, 4_000_000, 16_000_000];

#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurationStats {
    /// counts[i] counts durations <= DURATION_BOUNDS_NS[i]; the final slot
    /// is the overflow bucket.
    pub counts: [u64; DURATION_BOUNDS_NS.len() + 1],
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl DurationStats {
    pub fn record(&mut self, dur_ns: u64) {
        let slot = DURATION_BOUNDS_NS
            .iter()
            .position(|&b| dur_ns <= b)
            .unwrap_or(DURATION_BOUNDS_NS.len());
        self.counts[slot] += 1;
        self.count += 1;
        self.total_ns += dur_ns;
        self.max_ns = self.max_ns.max(dur_ns);
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Upper bound (ns) of the smallest bucket whose cumulative share
    /// reaches `p` (0.0..=1.0). The overflow bucket reports the observed max.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target.max(1) {
                return if i < DURATION_BOUNDS_NS.len() {
                    DURATION_BOUNDS_NS[i]
                } else {
                    self.max_ns
                };
            }
        }
        self.max_ns
    }
}

/// One worker's summary.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    pub worker: u32,
    pub events: usize,
    pub dropped: u64,
    /// Time inside each [`PHASES`] span kind, in ns.
    pub phase_ns: [u64; PHASES.len()],
    /// Busy time reported directly by engine metrics rather than derived
    /// from trace spans — the path that works without the `trace` feature
    /// (see [`RunReport::from_thread_summaries`]).
    pub direct_busy_ns: u64,
    /// Measured idle time (backoff spins, barrier-free waits) from engine
    /// metrics; 0 when only trace spans are available.
    pub idle_ns: u64,
    pub barrier_ns: u64,
    pub barrier_waits: u64,
    pub spans: u64,
    pub inserts: u64,
    pub evals: u64,
    pub grid_sends: u64,
    pub grid_recvs: u64,
    pub local_hits: u64,
    pub parks: u64,
    pub heartbeats: u64,
    pub pool_misses: u64,
}

impl WorkerReport {
    pub fn busy_ns(&self) -> u64 {
        self.phase_ns.iter().sum::<u64>() + self.direct_busy_ns
    }

    /// Fraction of the run's wall span this worker spent in work spans.
    pub fn utilization(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            0.0
        } else {
            self.busy_ns() as f64 / wall_ns as f64
        }
    }
}

/// Queue occupancy aggregated over one slice of the run.
#[derive(Debug, Clone, Default)]
pub struct DepthBin {
    pub start_ns: u64,
    pub samples: u64,
    pub sum: u64,
    pub max: u32,
}

impl DepthBin {
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

/// An element ranked by aggregate activation time.
#[derive(Debug, Clone, Default)]
pub struct HotElement {
    pub element: u32,
    pub activations: u64,
    pub total_ns: u64,
}

const QUEUE_BINS: usize = 24;
const TOP_K: usize = 8;

/// Checkpoint-protocol activity for a run. The trace stream itself does
/// not carry this (the driver, not the workers, writes snapshots); the
/// harness fills it in from the engine's metrics via
/// [`RunReport::with_checkpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Snapshots committed to disk.
    pub writes: u64,
    /// Total bytes across committed snapshot files.
    pub bytes: u64,
    /// Wall nanoseconds spent serializing, fsyncing, and renaming.
    pub write_ns: u64,
    /// Wall nanoseconds spent scanning/validating/loading at resume.
    pub restore_ns: u64,
}

/// Hot-path allocation activity for a run. Like [`CheckpointReport`],
/// the trace stream does not carry this; the harness fills it in from
/// the engine's metrics via [`RunReport::with_allocs`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocReport {
    /// Behavior chunks handed out to lists.
    pub chunk_allocs: u64,
    /// Behavior chunks reclaimed by the writers' cursor GC.
    pub chunk_frees: u64,
    /// Synchronous-engine calendar buffers reused from drained entries.
    pub mailbox_recycled: u64,
}

/// What the chaotic engine's activations found and what lookahead bought
/// them. Like [`CheckpointReport`], from the engine's metrics via
/// [`RunReport::with_lookahead`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookaheadReport {
    /// Element activations.
    pub activations: u64,
    /// Activations that consumed no input event.
    pub empty_activations: u64,
    /// Activations where lookahead extended validity past the
    /// least-valid input.
    pub extensions: u64,
}

impl LookaheadReport {
    /// Utilisation ⟨u⟩ = 1 − empty / activations: the fraction of
    /// activations that found an input event to consume (Kolakowska,
    /// Novotny & Rikvold's update statistic for conservative PDES). Zero
    /// when nothing was activated.
    pub fn utilisation(&self) -> f64 {
        if self.activations == 0 {
            return 0.0;
        }
        1.0 - self.empty_activations as f64 / self.activations as f64
    }
}

/// What compiled-mode activity gating skipped. From the engine's metrics
/// via [`RunReport::with_gating`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatingReport {
    /// Element evaluations performed.
    pub evaluations: u64,
    /// Evaluations the every-element-every-step rule would have added.
    pub evals_skipped: u64,
    /// Steps the run covers, executed or jumped over.
    pub time_steps: u64,
    /// Of those, steps jumped over while the circuit was settled.
    pub quiet_steps: u64,
}

/// One worker's scheduling/timing totals as reported by engine metrics —
/// the feature-free twin of the trace-derived counters. The harness
/// builds these from `parsim-core`'s `ThreadMetrics` (which this crate
/// cannot name without a dependency cycle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadSummary {
    pub busy_ns: u64,
    pub idle_ns: u64,
    pub evals: u64,
    pub local_hits: u64,
    pub grid_sends: u64,
    pub backoff_parks: u64,
}

/// One point of the in-run telemetry flight recorder, reduced to the
/// fields the report renders. The harness converts `parsim-telemetry`'s
/// samples into these (again: no dependency cycle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeSeriesPoint {
    /// Nanoseconds since the run's registry epoch.
    pub t_ns: u64,
    pub events: u64,
    pub evaluations: u64,
    pub sim_time: u64,
    pub queue_depth: u64,
    pub busy_ns: u64,
    pub idle_ns: u64,
}

/// The sampled time-series section of a run report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeSeriesReport {
    /// Sampling period, ns (0 when unknown).
    pub sample_every_ns: u64,
    /// Samples oldest-first; the last is the end-of-run total.
    pub points: Vec<TimeSeriesPoint>,
}

impl TimeSeriesReport {
    /// Event throughput between consecutive samples, in events/second.
    pub fn rates(&self) -> Vec<f64> {
        self.points
            .windows(2)
            .map(|w| {
                let dt = w[1].t_ns.saturating_sub(w[0].t_ns);
                if dt == 0 {
                    0.0
                } else {
                    (w[1].events.saturating_sub(w[0].events)) as f64 * 1e9 / dt as f64
                }
            })
            .collect()
    }
}

/// The analyzer output. See module docs.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub wall_ns: u64,
    pub total_events: usize,
    pub dropped: u64,
    pub workers: Vec<WorkerReport>,
    /// All barrier-wait durations across all workers.
    pub barrier: DurationStats,
    /// Queue-depth counter samples binned over the run's wall span.
    pub queue_depth: Vec<DepthBin>,
    /// Top elements by total activation-replay time (falls back to
    /// evaluation counts for engines that only emit `Eval` instants).
    pub hottest: Vec<HotElement>,
    /// Checkpoint write/restore latency, when the run checkpointed.
    pub checkpoint: Option<CheckpointReport>,
    /// SIMD lane-group width of a batch run (64/128/256/512), or 0 for
    /// scalar engines. From engine metrics, via [`RunReport::with_lane_width`].
    pub lane_width: u64,
    /// Hot-path allocation activity, when the engine reported any.
    pub allocs: Option<AllocReport>,
    /// Activation efficiency of a chaotic-engine run.
    pub lookahead: Option<LookaheadReport>,
    /// What activity gating skipped in a compiled-mode run.
    pub gating: Option<GatingReport>,
    /// In-run telemetry samples, when sampling was on. From the
    /// always-on metrics registry via [`RunReport::with_timeseries`].
    pub timeseries: Option<TimeSeriesReport>,
}

impl RunReport {
    pub fn from_trace(trace: &Trace) -> RunReport {
        let wall_ns = trace.last_tick_ns();
        let mut report = RunReport {
            wall_ns,
            total_events: trace.num_events(),
            dropped: trace.dropped(),
            queue_depth: (0..QUEUE_BINS)
                .map(|i| DepthBin {
                    start_ns: wall_ns * i as u64 / QUEUE_BINS as u64,
                    ..DepthBin::default()
                })
                .collect(),
            ..RunReport::default()
        };
        let mut hot: HashMap<u32, HotElement> = HashMap::new();

        for wt in &trace.workers {
            let mut wr = WorkerReport {
                worker: wt.worker,
                events: wt.events.len(),
                dropped: wt.dropped,
                ..WorkerReport::default()
            };
            // Per-kind stack of (begin tick, arg); our spans of one kind
            // never nest but tolerate it anyway.
            let mut open: HashMap<EventKind, Vec<(u64, u32)>> = HashMap::new();
            let last_tick = wt.events.last().map(|e| e.tick_ns).unwrap_or(0);

            for ev in &wt.events {
                match ev.mark {
                    Mark::Begin => {
                        open.entry(ev.kind).or_default().push((ev.tick_ns, ev.arg));
                    }
                    Mark::End => {
                        if let Some((begin, arg)) =
                            open.get_mut(&ev.kind).and_then(|s| s.pop())
                        {
                            let dur = ev.tick_ns.saturating_sub(begin);
                            close_span(&mut wr, &mut report, &mut hot, ev.kind, arg, dur);
                        }
                    }
                    Mark::Instant => match ev.kind {
                        EventKind::EventInsert => wr.inserts += 1,
                        EventKind::Eval => {
                            wr.evals += 1;
                            let h = hot.entry(ev.arg).or_default();
                            h.element = ev.arg;
                            h.activations += 1;
                        }
                        EventKind::GridSend => wr.grid_sends += 1,
                        EventKind::GridRecv => wr.grid_recvs += 1,
                        EventKind::LocalHit => wr.local_hits += 1,
                        EventKind::BackoffPark => wr.parks += 1,
                        EventKind::Heartbeat => wr.heartbeats += 1,
                        EventKind::PoolMiss => wr.pool_misses += 1,
                        _ => {}
                    },
                    Mark::Counter => {
                        if ev.kind == EventKind::QueueDepth {
                            let bin = (ev.tick_ns * QUEUE_BINS as u64)
                                .checked_div(wall_ns)
                                .map_or(0, |b| (b as usize).min(QUEUE_BINS - 1));
                            let b = &mut report.queue_depth[bin];
                            b.samples += 1;
                            b.sum += ev.arg as u64;
                            b.max = b.max.max(ev.arg);
                        }
                    }
                }
            }
            // Close spans still open at drain time at the worker's last tick.
            for (kind, stack) in open {
                for (begin, arg) in stack {
                    let dur = last_tick.saturating_sub(begin);
                    close_span(&mut wr, &mut report, &mut hot, kind, arg, dur);
                }
            }
            report.workers.push(wr);
        }

        let mut hottest: Vec<HotElement> = hot.into_values().collect();
        hottest.sort_by(|a, b| {
            b.total_ns.cmp(&a.total_ns).then(b.activations.cmp(&a.activations)).then(a.element.cmp(&b.element))
        });
        hottest.truncate(TOP_K);
        report.hottest = hottest;
        report
    }

    /// Builds a utilization-only report straight from engine metrics —
    /// no trace required, so `psim` can show per-worker imbalance on
    /// every parallel run, not just `--features trace` builds.
    pub fn from_thread_summaries(wall_ns: u64, threads: &[ThreadSummary]) -> RunReport {
        let mut report = RunReport { wall_ns, ..RunReport::default() };
        for (i, t) in threads.iter().enumerate() {
            report.workers.push(WorkerReport {
                worker: i as u32,
                direct_busy_ns: t.busy_ns,
                idle_ns: t.idle_ns,
                evals: t.evals,
                local_hits: t.local_hits,
                grid_sends: t.grid_sends,
                parks: t.backoff_parks,
                ..WorkerReport::default()
            });
        }
        report
    }

    /// Folds engine-metrics scheduling/idle totals into a trace-derived
    /// report. Metrics are authoritative for idle time and backoff parks
    /// (trace instants sample them only under the `trace` feature's
    /// recording paths); trace-derived span timings stay untouched.
    pub fn with_thread_summaries(mut self, threads: &[ThreadSummary]) -> RunReport {
        for (i, t) in threads.iter().enumerate() {
            match self.workers.iter_mut().find(|w| w.worker == i as u32) {
                Some(w) => {
                    w.idle_ns = t.idle_ns;
                    w.parks = w.parks.max(t.backoff_parks);
                    w.local_hits = w.local_hits.max(t.local_hits);
                    w.grid_sends = w.grid_sends.max(t.grid_sends);
                }
                None => {
                    self.workers.push(WorkerReport {
                        worker: i as u32,
                        direct_busy_ns: t.busy_ns,
                        idle_ns: t.idle_ns,
                        evals: t.evals,
                        local_hits: t.local_hits,
                        grid_sends: t.grid_sends,
                        parks: t.backoff_parks,
                        ..WorkerReport::default()
                    });
                }
            }
        }
        self
    }

    /// Attaches the in-run telemetry sample series so `Display` and
    /// `to_json` include throughput-over-time.
    pub fn with_timeseries(mut self, timeseries: TimeSeriesReport) -> RunReport {
        self.timeseries = Some(timeseries);
        self
    }

    /// Attaches checkpoint activity (from engine metrics) so `Display`
    /// and `to_json` include write/restore latency.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointReport) -> RunReport {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Attaches the SIMD lane-group width (from engine metrics) so
    /// `Display` and `to_json` report it. 0 means a scalar engine.
    pub fn with_lane_width(mut self, lane_width: u64) -> RunReport {
        self.lane_width = lane_width;
        self
    }

    /// Attaches hot-path allocation activity (from engine metrics) so
    /// `Display` and `to_json` include the chunk and mailbox counters.
    pub fn with_allocs(mut self, allocs: AllocReport) -> RunReport {
        self.allocs = Some(allocs);
        self
    }

    /// Attaches the chaotic engine's activation-efficiency counters (from
    /// engine metrics) so `Display` and `to_json` include them.
    pub fn with_lookahead(mut self, lookahead: LookaheadReport) -> RunReport {
        self.lookahead = Some(lookahead);
        self
    }

    /// Attaches compiled-mode gating counters (from engine metrics) so
    /// `Display` and `to_json` include them.
    pub fn with_gating(mut self, gating: GatingReport) -> RunReport {
        self.gating = Some(gating);
        self
    }

    /// Mean utilization over all workers.
    pub fn utilization(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers.iter().map(|w| w.utilization(self.wall_ns)).sum::<f64>()
            / self.workers.len() as f64
    }

    /// Spread between the most- and least-stalled worker's total barrier
    /// wait, in ns. The paper's barrier-imbalance signal: a large spread
    /// means one worker's phase work dominates the step.
    pub fn barrier_imbalance_ns(&self) -> u64 {
        let totals: Vec<u64> = self.workers.iter().map(|w| w.barrier_ns).collect();
        match (totals.iter().max(), totals.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    /// Total time in each phase kind, summed across workers.
    pub fn phase_totals(&self) -> [(EventKind, u64); PHASES.len()] {
        let mut out = [(EventKind::ActivationReplay, 0u64); PHASES.len()];
        for (i, &kind) in PHASES.iter().enumerate() {
            out[i] = (kind, self.workers.iter().map(|w| w.phase_ns[i]).sum());
        }
        out
    }

    /// Structured JSON rendering (machine-readable companion to `Display`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        s.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        s.push_str(&format!("  \"total_events\": {},\n", self.total_events));
        s.push_str(&format!("  \"dropped_events\": {},\n", self.dropped));
        s.push_str(&format!(
            "  \"mean_utilization\": {},\n",
            fmt_f64_prec(self.utilization(), 4)
        ));
        s.push_str(&format!(
            "  \"barrier_imbalance_ns\": {},\n",
            self.barrier_imbalance_ns()
        ));
        s.push_str(&format!("  \"lane_width\": {},\n", self.lane_width));
        s.push_str("  \"phase_totals_ns\": {");
        let mut first = true;
        for (kind, ns) in self.phase_totals() {
            if ns == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{}\": {ns}", escape(kind.name())));
        }
        s.push_str("},\n");
        s.push_str("  \"barrier\": {");
        s.push_str(&format!(
            "\"waits\": {}, \"total_ns\": {}, \"max_ns\": {}, \"mean_ns\": {}, \
             \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}",
            self.barrier.count,
            self.barrier.total_ns,
            self.barrier.max_ns,
            fmt_f64_prec(self.barrier.mean_ns(), 1),
            self.barrier.percentile(0.50),
            self.barrier.percentile(0.95),
            self.barrier.percentile(0.99),
        ));
        s.push_str("},\n");
        s.push_str("  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"worker\": {}, \"events\": {}, \"dropped\": {}, \"busy_ns\": {}, \
                 \"idle_ns\": {}, \"barrier_ns\": {}, \"utilization\": {}, \"spans\": {}, \
                 \"inserts\": {}, \
                 \"evals\": {}, \"grid_sends\": {}, \"grid_recvs\": {}, \"local_hits\": {}, \
                 \"parks\": {}, \"heartbeats\": {}, \"pool_misses\": {}}}{}\n",
                w.worker,
                w.events,
                w.dropped,
                w.busy_ns(),
                w.idle_ns,
                w.barrier_ns,
                fmt_f64_prec(w.utilization(self.wall_ns), 4),
                w.spans,
                w.inserts,
                w.evals,
                w.grid_sends,
                w.grid_recvs,
                w.local_hits,
                w.parks,
                w.heartbeats,
                w.pool_misses,
                if i + 1 == self.workers.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"queue_depth\": [\n");
        let bins: Vec<&DepthBin> = self.queue_depth.iter().filter(|b| b.samples > 0).collect();
        for (i, b) in bins.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"start_ns\": {}, \"samples\": {}, \"mean\": {}, \"max\": {}}}{}\n",
                b.start_ns,
                b.samples,
                fmt_f64_prec(b.mean(), 2),
                b.max,
                if i + 1 == bins.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"hottest_elements\": [\n");
        for (i, h) in self.hottest.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"element\": {}, \"activations\": {}, \"total_ns\": {}}}{}\n",
                h.element,
                h.activations,
                h.total_ns,
                if i + 1 == self.hottest.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]");
        if let Some(c) = &self.checkpoint {
            s.push_str(&format!(
                ",\n  \"checkpoint\": {{\"writes\": {}, \"bytes\": {}, \"write_ns\": {}, \
                 \"restore_ns\": {}}}",
                c.writes, c.bytes, c.write_ns, c.restore_ns
            ));
        }
        if let Some(a) = &self.allocs {
            s.push_str(&format!(
                ",\n  \"allocs\": {{\"chunk_allocs\": {}, \"chunk_frees\": {}, \
                 \"mailbox_recycled\": {}}}",
                a.chunk_allocs, a.chunk_frees, a.mailbox_recycled
            ));
        }
        if let Some(l) = &self.lookahead {
            s.push_str(&format!(
                ",\n  \"lookahead\": {{\"activations\": {}, \"empty_activations\": {}, \
                 \"extensions\": {}, \"utilisation\": {}}}",
                l.activations,
                l.empty_activations,
                l.extensions,
                fmt_f64_prec(l.utilisation(), 4)
            ));
        }
        if let Some(g) = &self.gating {
            s.push_str(&format!(
                ",\n  \"gating\": {{\"evaluations\": {}, \"evals_skipped\": {}, \
                 \"time_steps\": {}, \"quiet_steps\": {}}}",
                g.evaluations, g.evals_skipped, g.time_steps, g.quiet_steps
            ));
        }
        if let Some(ts) = &self.timeseries {
            s.push_str(&format!(
                ",\n  \"timeseries\": {{\"sample_every_ns\": {}, \"points\": [\n",
                ts.sample_every_ns
            ));
            for (i, p) in ts.points.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"t_ns\": {}, \"events\": {}, \"evaluations\": {}, \
                     \"sim_time\": {}, \"queue_depth\": {}, \"busy_ns\": {}, \
                     \"idle_ns\": {}}}{}\n",
                    p.t_ns,
                    p.events,
                    p.evaluations,
                    p.sim_time,
                    p.queue_depth,
                    p.busy_ns,
                    p.idle_ns,
                    if i + 1 == ts.points.len() { "" } else { "," }
                ));
            }
            s.push_str("  ]}");
        }
        s.push_str("\n}\n");
        s
    }
}

fn close_span(
    wr: &mut WorkerReport,
    report: &mut RunReport,
    hot: &mut HashMap<u32, HotElement>,
    kind: EventKind,
    arg: u32,
    dur_ns: u64,
) {
    wr.spans += 1;
    if kind == EventKind::BarrierWait {
        wr.barrier_ns += dur_ns;
        wr.barrier_waits += 1;
        report.barrier.record(dur_ns);
        return;
    }
    if let Some(i) = PHASES.iter().position(|&k| k == kind) {
        wr.phase_ns[i] += dur_ns;
    }
    if kind == EventKind::ActivationReplay {
        let h = hot.entry(arg).or_default();
        h.element = arg;
        h.activations += 1;
        h.total_ns += dur_ns;
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run report: wall {:.3} ms, {} workers, {} events ({} dropped){}",
            ms(self.wall_ns),
            self.workers.len(),
            self.total_events,
            self.dropped,
            if self.lane_width > 0 {
                format!(", {}-bit lanes", self.lane_width)
            } else {
                String::new()
            }
        )?;
        writeln!(f, "\nper-phase utilization:")?;
        writeln!(
            f,
            "  {:<8} {:>7} {:>10} {:>10} {:>11} {:>7} {:>8} {:>8} {:>7}",
            "worker", "util%", "busy(ms)", "idle(ms)", "barrier(ms)", "spans", "inserts",
            "evals", "parks"
        )?;
        for w in &self.workers {
            writeln!(
                f,
                "  {:<8} {:>7.1} {:>10.3} {:>10.3} {:>11.3} {:>7} {:>8} {:>8} {:>7}",
                w.worker,
                100.0 * w.utilization(self.wall_ns),
                ms(w.busy_ns()),
                ms(w.idle_ns),
                ms(w.barrier_ns),
                w.spans,
                w.inserts,
                w.evals,
                w.parks
            )?;
        }
        let totals = self.phase_totals();
        if totals.iter().any(|&(_, ns)| ns > 0) {
            write!(f, "  phases:")?;
            for (kind, ns) in totals {
                if ns > 0 {
                    write!(f, " {}={:.3}ms", kind.name(), ms(ns))?;
                }
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "  mean utilization {:.1}%",
            100.0 * self.utilization()
        )?;
        if self.barrier.count > 0 {
            writeln!(
                f,
                "\nbarrier waits: {} waits, mean {:.1} us, p50 {:.1} us, p95 {:.1} us, \
                 p99 {:.1} us, max {:.1} us",
                self.barrier.count,
                self.barrier.mean_ns() / 1e3,
                self.barrier.percentile(0.50) as f64 / 1e3,
                self.barrier.percentile(0.95) as f64 / 1e3,
                self.barrier.percentile(0.99) as f64 / 1e3,
                self.barrier.max_ns as f64 / 1e3,
            )?;
            writeln!(
                f,
                "  per-worker imbalance (max-min total wait): {:.3} ms ({:.1}% of wall)",
                ms(self.barrier_imbalance_ns()),
                if self.wall_ns == 0 {
                    0.0
                } else {
                    100.0 * self.barrier_imbalance_ns() as f64 / self.wall_ns as f64
                }
            )?;
        }
        let sched: (u64, u64, u64, u64) = self.workers.iter().fold((0, 0, 0, 0), |acc, w| {
            (
                acc.0 + w.local_hits,
                acc.1 + w.grid_sends,
                acc.2 + w.grid_recvs,
                acc.3 + w.parks,
            )
        });
        if sched != (0, 0, 0, 0) {
            writeln!(
                f,
                "\nscheduling: {} local hits, {} grid sends, {} grid recvs, {} parks",
                sched.0, sched.1, sched.2, sched.3
            )?;
        }
        let bins: Vec<&DepthBin> = self.queue_depth.iter().filter(|b| b.samples > 0).collect();
        if !bins.is_empty() {
            writeln!(f, "\nqueue occupancy over time (mean depth per slice):")?;
            write!(f, "  ")?;
            for b in &bins {
                write!(f, "{:.0} ", b.mean())?;
            }
            writeln!(f)?;
            let max = bins.iter().map(|b| b.max).max().unwrap_or(0);
            writeln!(f, "  peak depth {max}")?;
        }
        if !self.hottest.is_empty() {
            writeln!(f, "\nhottest elements:")?;
            for h in &self.hottest {
                writeln!(
                    f,
                    "  element {:>6}: {:>8} activations, {:.3} ms",
                    h.element,
                    h.activations,
                    ms(h.total_ns)
                )?;
            }
        }
        if let Some(c) = &self.checkpoint {
            writeln!(
                f,
                "\ncheckpoints: {} written ({} bytes), write {:.3} ms \
                 ({:.3} ms/snapshot), restore {:.3} ms",
                c.writes,
                c.bytes,
                ms(c.write_ns),
                if c.writes == 0 { 0.0 } else { ms(c.write_ns) / c.writes as f64 },
                ms(c.restore_ns)
            )?;
        }
        if let Some(a) = &self.allocs {
            writeln!(
                f,
                "\nmemory: {} chunks handed out / {} reclaimed, {} mailboxes recycled",
                a.chunk_allocs, a.chunk_frees, a.mailbox_recycled
            )?;
        }
        if let Some(l) = &self.lookahead {
            writeln!(
                f,
                "\nlookahead: {} of {} activations extended validity, {} consumed no event \
                 (utilisation {:.3})",
                l.extensions,
                l.activations,
                l.empty_activations,
                l.utilisation()
            )?;
        }
        if let Some(g) = &self.gating {
            let would_run = g.evaluations + g.evals_skipped;
            writeln!(
                f,
                "\ngating: {} of {} evaluations skipped ({:.1}%)\n\
                 quiet steps: {} of {} steps jumped over",
                g.evals_skipped,
                would_run,
                100.0 * g.evals_skipped as f64 / would_run.max(1) as f64,
                g.quiet_steps,
                g.time_steps
            )?;
        }
        if let Some(ts) = &self.timeseries {
            if !ts.points.is_empty() {
                writeln!(
                    f,
                    "\ntelemetry time series: {} samples every {:.1} ms",
                    ts.points.len(),
                    ms(ts.sample_every_ns)
                )?;
                let rates = ts.rates();
                if !rates.is_empty() {
                    write!(f, "  events/s:")?;
                    for r in &rates {
                        write!(f, " {:.0}", r)?;
                    }
                    writeln!(f)?;
                }
                if let Some(last) = ts.points.last() {
                    writeln!(
                        f,
                        "  final: {} events, {} evaluations, sim time {}",
                        last.events, last.evaluations, last.sim_time
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::lint;
    use crate::{TraceEvent, WorkerTrace};

    fn ev(tick_ns: u64, kind: EventKind, mark: Mark, arg: u32) -> TraceEvent {
        TraceEvent { tick_ns, arg, kind, mark }
    }

    fn synthetic_trace() -> Trace {
        Trace {
            workers: vec![
                WorkerTrace {
                    worker: 0,
                    events: vec![
                        ev(0, EventKind::ActivationReplay, Mark::Begin, 5),
                        ev(100, EventKind::EventInsert, Mark::Instant, 1),
                        ev(1_000, EventKind::ActivationReplay, Mark::End, 0),
                        ev(1_100, EventKind::QueueDepth, Mark::Counter, 4),
                        ev(1_200, EventKind::BarrierWait, Mark::Begin, 0),
                        ev(2_200, EventKind::BarrierWait, Mark::End, 0),
                        ev(2_300, EventKind::LocalHit, Mark::Instant, 5),
                        ev(2_400, EventKind::ActivationReplay, Mark::Begin, 5),
                        ev(4_000, EventKind::ActivationReplay, Mark::End, 0),
                    ],
                    dropped: 0,
                },
                WorkerTrace {
                    worker: 1,
                    events: vec![
                        ev(0, EventKind::BarrierWait, Mark::Begin, 0),
                        ev(3_000, EventKind::BarrierWait, Mark::End, 0),
                        ev(3_100, EventKind::ActivationReplay, Mark::Begin, 9),
                        ev(4_000, EventKind::ActivationReplay, Mark::End, 0),
                    ],
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn report_computes_utilization_and_barriers() {
        let r = RunReport::from_trace(&synthetic_trace());
        assert_eq!(r.wall_ns, 4_000);
        assert_eq!(r.workers.len(), 2);
        // Worker 0: two activation spans of 1000 + 1600 ns.
        assert_eq!(r.workers[0].busy_ns(), 2_600);
        assert_eq!(r.workers[0].barrier_ns, 1_000);
        assert_eq!(r.workers[0].inserts, 1);
        assert_eq!(r.workers[0].local_hits, 1);
        // Worker 1: one 900 ns span, 3000 ns barrier.
        assert_eq!(r.workers[1].busy_ns(), 900);
        assert_eq!(r.workers[1].barrier_ns, 3_000);
        assert!((r.workers[0].utilization(r.wall_ns) - 0.65).abs() < 1e-9);
        assert_eq!(r.barrier.count, 2);
        assert_eq!(r.barrier_imbalance_ns(), 2_000);
        // Hottest: element 5 (2600 ns over 2 activations) above element 9.
        assert_eq!(r.hottest[0].element, 5);
        assert_eq!(r.hottest[0].activations, 2);
        assert_eq!(r.hottest[0].total_ns, 2_600);
        assert_eq!(r.hottest[1].element, 9);
        // Queue depth: one sample of 4.
        let sampled: Vec<&DepthBin> =
            r.queue_depth.iter().filter(|b| b.samples > 0).collect();
        assert_eq!(sampled.len(), 1);
        assert_eq!(sampled[0].max, 4);
    }

    #[test]
    fn report_json_and_text_render() {
        let r = RunReport::from_trace(&synthetic_trace());
        let j = r.to_json();
        lint(&j).expect("report JSON must be well-formed");
        assert!(j.contains("\"mean_utilization\""));
        assert!(j.contains("\"barrier_imbalance_ns\": 2000"));
        assert!(!j.contains("NaN"));
        let text = r.to_string();
        assert!(text.contains("per-phase utilization"));
        assert!(text.contains("barrier waits"));
        assert!(text.contains("hottest elements"));
    }

    #[test]
    fn allocs_block_renders_in_json_and_text() {
        let r = RunReport::from_trace(&synthetic_trace()).with_allocs(AllocReport {
            chunk_allocs: 120,
            chunk_frees: 80,
            mailbox_recycled: 7,
        });
        let j = r.to_json();
        lint(&j).expect("allocs JSON must be well-formed");
        assert!(j.contains("\"allocs\": {\"chunk_allocs\": 120, \"chunk_frees\": 80"));
        assert!(r.to_string().contains("memory: 120 chunks handed out / 80 reclaimed, 7 mailboxes"));
    }

    #[test]
    fn lookahead_line_renders_in_json_and_text() {
        let r = RunReport::from_trace(&synthetic_trace()).with_lookahead(LookaheadReport {
            activations: 500,
            empty_activations: 40,
            extensions: 120,
        });
        let j = r.to_json();
        lint(&j).expect("lookahead JSON must be well-formed");
        assert!(j.contains(
            "\"lookahead\": {\"activations\": 500, \"empty_activations\": 40, \"extensions\": 120, \
             \"utilisation\": 0.9200}"
        ));
        assert!(r.to_string().contains(
            "lookahead: 120 of 500 activations extended validity, 40 consumed no event \
             (utilisation 0.920)"
        ));
        assert_eq!(LookaheadReport::default().utilisation(), 0.0);
    }

    #[test]
    fn gating_lines_render_in_json_and_text() {
        let r = RunReport::from_trace(&synthetic_trace()).with_gating(GatingReport {
            evaluations: 250,
            evals_skipped: 750,
            time_steps: 321,
            quiet_steps: 240,
        });
        let j = r.to_json();
        lint(&j).expect("gating JSON must be well-formed");
        assert!(j.contains(
            "\"gating\": {\"evaluations\": 250, \"evals_skipped\": 750, \
             \"time_steps\": 321, \"quiet_steps\": 240}"
        ));
        let text = r.to_string();
        assert!(text.contains("gating: 750 of 1000 evaluations skipped (75.0%)"));
        assert!(text.contains("quiet steps: 240 of 321 steps jumped over"));
    }

    /// A jump replaces the empty apply/eval spans of the steps it passes
    /// with one instant; busy time is the sum of the spans that exist, so
    /// the phase table reads the same with and without it.
    #[test]
    fn quiet_jump_instant_leaves_phase_utilization_alone() {
        let spans = vec![
            ev(0, EventKind::PhaseApply, Mark::Begin, 0),
            ev(100, EventKind::PhaseApply, Mark::End, 0),
            ev(100, EventKind::PhaseEval, Mark::Begin, 0),
            ev(400, EventKind::PhaseEval, Mark::End, 0),
            ev(900, EventKind::PhaseApply, Mark::Begin, 40),
            ev(1000, EventKind::PhaseApply, Mark::End, 0),
        ];
        let mut jumped = spans.clone();
        jumped.insert(4, ev(400, EventKind::QuietJump, Mark::Instant, 39));
        let report = |events| {
            RunReport::from_trace(&Trace {
                workers: vec![WorkerTrace { worker: 0, events, dropped: 0 }],
            })
        };
        let (plain, jumped) = (report(spans), report(jumped));
        assert_eq!(plain.workers[0].phase_ns, jumped.workers[0].phase_ns);
        assert_eq!(plain.workers[0].spans, jumped.workers[0].spans);
        assert_eq!(plain.utilization(), jumped.utilization());
        assert_eq!(jumped.workers[0].busy_ns(), 500);
    }

    #[test]
    fn empty_trace_yields_sane_report() {
        let r = RunReport::from_trace(&Trace::default());
        assert_eq!(r.wall_ns, 0);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.barrier_imbalance_ns(), 0);
        lint(&r.to_json()).unwrap();
        let _ = r.to_string();
    }

    #[test]
    fn unclosed_span_closed_at_last_tick() {
        let t = Trace {
            workers: vec![WorkerTrace {
                worker: 0,
                events: vec![
                    ev(0, EventKind::PhaseEval, Mark::Begin, 0),
                    ev(500, EventKind::Eval, Mark::Instant, 3),
                ],
                dropped: 0,
            }],
        };
        let r = RunReport::from_trace(&t);
        assert_eq!(r.workers[0].busy_ns(), 500);
        assert_eq!(r.workers[0].evals, 1);
        // Eval instants feed the hottest table when no replay spans exist.
        assert_eq!(r.hottest[0].element, 3);
    }

    #[test]
    fn duration_stats_percentiles() {
        let mut d = DurationStats::default();
        assert_eq!(d.percentile(0.5), 0);
        for _ in 0..90 {
            d.record(200); // <=250 bucket
        }
        for _ in 0..9 {
            d.record(3_000); // <=4000 bucket
        }
        d.record(50_000_000); // overflow
        assert_eq!(d.percentile(0.50), 250);
        assert_eq!(d.percentile(0.95), 4_000);
        assert_eq!(d.percentile(1.0), 50_000_000);
        assert_eq!(d.max_ns, 50_000_000);
    }
}
