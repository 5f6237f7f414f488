//! The run report: per-worker utilization, the engine's counters, and —
//! for a traced run — per-phase time, barrier-imbalance histograms,
//! queue occupancy over time and the hottest elements.
//!
//! [`RunReport::new`] is the one way to build it, from the run's
//! [`Metrics`], its drained [`Trace`] (if any) and its [`RunTelemetry`]
//! (if any), and every number has one source. Counts the telemetry
//! registry holds — per-worker evaluations, idle time, local hits, grid
//! sends and parks; checkpoint, chunk, lookahead, gating and lane-width
//! counters — are read from `Metrics`, and so are the conditions that
//! show their sections. The trace supplies only what only it records:
//! the phase split, span busy time and its own wall clock (busy share and
//! wall on one clock), barrier waits, spans, inserts, grid receives,
//! heartbeats, per-worker pool misses, queue-depth samples, the hottest
//! elements and ring drops. The time-series section reads the telemetry
//! sample ring. Rendered two ways: `Display` for the `psim --report` text
//! path, [`RunReport::to_json`] for machine consumption.

use std::collections::HashMap;
use std::fmt;

use parsim_telemetry::{Counter, Gauge, RunTelemetry, Sample};
use parsim_trace::json::{escape, fmt_f64_prec};
use parsim_trace::{EventKind, Mark, Trace};

use crate::{Metrics, ThreadMetrics};

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
pub const DURATION_BOUNDS_NS: [u64; 9] = [
    250, 1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000, 4_000_000, 16_000_000,
];

#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurationStats {
    /// `counts[i]` counts durations <= `DURATION_BOUNDS_NS[i]`; the final slot
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

/// What the trace recorded for one worker (all zero for an untraced run);
/// its engine counters are [`RunReport::worker_metrics`].
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    pub worker: u32,
    pub events: usize,
    pub dropped: u64,
    /// Time inside each [`PHASES`] span kind, in ns.
    pub phase_ns: [u64; PHASES.len()],
    pub barrier_ns: u64,
    pub barrier_waits: u64,
    pub spans: u64,
    pub inserts: u64,
    pub grid_recvs: u64,
    pub heartbeats: u64,
    pub pool_misses: u64,
}

impl WorkerReport {
    /// Time inside work spans.
    pub fn busy_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
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

/// The report. See module docs.
#[derive(Debug, Clone)]
pub struct RunReport<'a> {
    /// The run's counters; every registry count the report shows is read
    /// from here.
    pub metrics: &'a Metrics,
    /// The run's telemetry; its sample ring is the time-series section.
    pub telemetry: Option<&'a RunTelemetry>,
    /// Whether a trace was analyzed. The trace-only fields below are zero
    /// or empty when not.
    pub traced: bool,
    /// The trace's last tick when traced, else the measured run wall.
    pub wall_ns: u64,
    pub total_events: usize,
    pub dropped: u64,
    /// One row per worker: every worker the trace or the metrics saw, and
    /// at least one.
    pub workers: Vec<WorkerReport>,
    /// All barrier-wait durations across all workers.
    pub barrier: DurationStats,
    /// Queue-depth counter samples binned over the run's wall span.
    pub queue_depth: Vec<DepthBin>,
    /// Top elements by total activation-replay time (falls back to
    /// evaluation counts for engines that only emit `Eval` instants).
    pub hottest: Vec<HotElement>,
}

impl<'a> RunReport<'a> {
    /// Builds the report of one run. See module docs for which source
    /// supplies which number.
    pub fn new(
        metrics: &'a Metrics,
        trace: Option<&Trace>,
        telemetry: Option<&'a RunTelemetry>,
    ) -> RunReport<'a> {
        let traced_workers = trace.map_or(0, |t| {
            t.workers
                .iter()
                .map(|w| w.worker as usize + 1)
                .max()
                .unwrap_or(0)
        });
        let mut workers: Vec<WorkerReport> =
            (0..traced_workers.max(metrics.per_thread.len()).max(1))
                .map(|w| WorkerReport {
                    worker: w as u32,
                    ..WorkerReport::default()
                })
                .collect();
        let wall_ns = trace.map_or(metrics.wall.as_nanos() as u64, Trace::last_tick_ns);
        let mut barrier = DurationStats::default();
        let mut queue_depth: Vec<DepthBin> = (0..QUEUE_BINS)
            .map(|i| DepthBin {
                start_ns: wall_ns * i as u64 / QUEUE_BINS as u64,
                ..DepthBin::default()
            })
            .collect();
        let mut hot: HashMap<u32, HotElement> = HashMap::new();

        for wt in trace.iter().flat_map(|t| &t.workers) {
            let wr = &mut workers[wt.worker as usize];
            wr.events = wt.events.len();
            wr.dropped = wt.dropped;
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
                        if let Some((begin, arg)) = open.get_mut(&ev.kind).and_then(|s| s.pop()) {
                            let dur = ev.tick_ns.saturating_sub(begin);
                            close_span(wr, &mut barrier, &mut hot, ev.kind, arg, dur);
                        }
                    }
                    Mark::Instant => match ev.kind {
                        EventKind::EventInsert => wr.inserts += 1,
                        EventKind::Eval => {
                            let h = hot.entry(ev.arg).or_default();
                            h.element = ev.arg;
                            h.activations += 1;
                        }
                        EventKind::GridRecv => wr.grid_recvs += 1,
                        EventKind::Heartbeat => wr.heartbeats += 1,
                        EventKind::PoolMiss => wr.pool_misses += 1,
                        _ => {}
                    },
                    Mark::Counter => {
                        if ev.kind == EventKind::QueueDepth {
                            let bin = (ev.tick_ns * QUEUE_BINS as u64)
                                .checked_div(wall_ns)
                                .map_or(0, |b| (b as usize).min(QUEUE_BINS - 1));
                            let b = &mut queue_depth[bin];
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
                    close_span(wr, &mut barrier, &mut hot, kind, arg, dur);
                }
            }
        }

        let mut hottest: Vec<HotElement> = hot.into_values().collect();
        hottest.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then(b.activations.cmp(&a.activations))
                .then(a.element.cmp(&b.element))
        });
        hottest.truncate(TOP_K);
        RunReport {
            metrics,
            telemetry,
            traced: trace.is_some(),
            wall_ns,
            total_events: trace.map_or(0, Trace::num_events),
            dropped: trace.map_or(0, Trace::dropped),
            workers,
            barrier,
            queue_depth,
            hottest,
        }
    }

    /// Worker `worker`'s engine counters. The sequential engine times no
    /// worker, so its one implicit worker is busy for the whole run and
    /// performs every evaluation.
    pub fn worker_metrics(&self, worker: usize) -> ThreadMetrics {
        let m = self.metrics;
        match m.per_thread.get(worker) {
            Some(t) => t.clone(),
            None if m.per_thread.is_empty() => ThreadMetrics {
                busy: m.wall,
                evaluations: m.evaluations,
                events: m.events_processed,
                ..ThreadMetrics::default()
            },
            None => ThreadMetrics::default(),
        }
    }

    /// Worker `worker`'s busy time: its work spans when traced (measured
    /// on the trace's clock, like [`RunReport::wall_ns`]), else the
    /// engine's measured busy time.
    pub fn busy_ns(&self, worker: usize) -> u64 {
        if self.traced {
            self.workers[worker].busy_ns()
        } else {
            self.worker_metrics(worker).busy.as_nanos() as u64
        }
    }

    /// Fraction of the run's wall span worker `worker` was busy.
    pub fn worker_utilization(&self, worker: usize) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_ns(worker) as f64 / self.wall_ns as f64
        }
    }

    /// Mean utilization over all workers.
    pub fn utilization(&self) -> f64 {
        (0..self.workers.len())
            .map(|w| self.worker_utilization(w))
            .sum::<f64>()
            / self.workers.len() as f64
    }

    /// Spread between the most- and least-stalled worker's total barrier
    /// wait, in ns. The paper's barrier-imbalance signal: a large spread
    /// means one worker's phase work dominates the step.
    pub fn barrier_imbalance_ns(&self) -> u64 {
        let totals = self.workers.iter().map(|w| w.barrier_ns);
        totals.clone().max().unwrap_or(0) - totals.min().unwrap_or(0)
    }

    /// Total time in each phase kind, summed across workers.
    pub fn phase_totals(&self) -> [(EventKind, u64); PHASES.len()] {
        let mut out = [(EventKind::ActivationReplay, 0u64); PHASES.len()];
        for (i, &kind) in PHASES.iter().enumerate() {
            out[i] = (kind, self.workers.iter().map(|w| w.phase_ns[i]).sum());
        }
        out
    }

    /// The sampled time series, when sampling was on and took a sample.
    fn samples(&self) -> Option<&'a [Sample]> {
        self.telemetry
            .map(|t| &t.samples[..])
            .filter(|s| !s.is_empty())
    }

    /// Structured JSON rendering (machine-readable companion to `Display`).
    pub fn to_json(&self) -> String {
        let (m, b) = (self.metrics, &self.barrier);
        let phases: Vec<String> = (self.phase_totals().iter())
            .filter(|&&(_, ns)| ns > 0)
            .map(|(kind, ns)| format!("\"{}\": {ns}", escape(kind.name())))
            .collect();
        let workers = self.workers.iter().enumerate().map(|(i, w)| {
            let t = self.worker_metrics(i);
            format!(
                "{{\"worker\": {}, \"events\": {}, \"dropped\": {}, \"busy_ns\": {}, \
                 \"idle_ns\": {}, \"barrier_ns\": {}, \"utilization\": {}, \"spans\": {}, \
                 \"inserts\": {}, \"evals\": {}, \"grid_sends\": {}, \"grid_recvs\": {}, \
                 \"local_hits\": {}, \"parks\": {}, \"heartbeats\": {}, \"pool_misses\": {}}}",
                w.worker,
                w.events,
                w.dropped,
                self.busy_ns(i),
                t.idle.as_nanos(),
                w.barrier_ns,
                fmt_f64_prec(self.worker_utilization(i), 4),
                w.spans,
                w.inserts,
                t.evaluations,
                t.sched.grid_sends,
                w.grid_recvs,
                t.sched.local_hits,
                t.sched.backoff_parks,
                w.heartbeats,
                w.pool_misses,
            )
        });
        let bins = self.queue_depth.iter().filter(|b| b.samples > 0).map(|b| {
            format!(
                "{{\"start_ns\": {}, \"samples\": {}, \"mean\": {}, \"max\": {}}}",
                b.start_ns,
                b.samples,
                fmt_f64_prec(b.mean(), 2),
                b.max
            )
        });
        let hottest = self.hottest.iter().map(|h| {
            format!(
                "{{\"element\": {}, \"activations\": {}, \"total_ns\": {}}}",
                h.element, h.activations, h.total_ns
            )
        });
        let mut s = format!(
            "{{\n  \"wall_ns\": {},\n  \"total_events\": {},\n  \"dropped_events\": {},\n  \
             \"mean_utilization\": {},\n  \"barrier_imbalance_ns\": {},\n  \"lane_width\": {},\n  \
             \"phase_totals_ns\": {{{}}},\n  \"barrier\": {{\"waits\": {}, \"total_ns\": {}, \
             \"max_ns\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}},\n  \
             \"workers\": [\n{}  ],\n  \"queue_depth\": [\n{}  ],\n  \"hottest_elements\": [\n{}  ]",
            self.wall_ns,
            self.total_events,
            self.dropped,
            fmt_f64_prec(self.utilization(), 4),
            self.barrier_imbalance_ns(),
            m.lane_width,
            phases.join(", "),
            b.count,
            b.total_ns,
            b.max_ns,
            fmt_f64_prec(b.mean_ns(), 1),
            b.percentile(0.50),
            b.percentile(0.95),
            b.percentile(0.99),
            json_rows(workers),
            json_rows(bins),
            json_rows(hottest),
        );
        if !m.checkpoint.is_empty() {
            let c = &m.checkpoint;
            s.push_str(&format!(
                ",\n  \"checkpoint\": {{\"writes\": {}, \"bytes\": {}, \"write_ns\": {}, \
                 \"restore_ns\": {}}}",
                c.writes, c.bytes, c.write_ns, c.restore_ns
            ));
        }
        if !m.arena.is_empty() {
            let a = &m.arena;
            s.push_str(&format!(
                ",\n  \"allocs\": {{\"chunk_allocs\": {}, \"chunk_frees\": {}, \
                 \"mailbox_recycled\": {}}}",
                a.chunk_allocs, a.chunk_frees, a.mailbox_recycled
            ));
        }
        if has_lookahead(m) {
            s.push_str(&format!(
                ",\n  \"lookahead\": {{\"activations\": {}, \"empty_activations\": {}, \
                 \"extensions\": {}, \"utilisation\": {}}}",
                m.activations,
                m.empty_activations,
                m.lookahead_extensions,
                fmt_f64_prec(m.activation_utilisation(), 4)
            ));
        }
        if m.evals_skipped > 0 {
            s.push_str(&format!(
                ",\n  \"gating\": {{\"evaluations\": {}, \"evals_skipped\": {}, \
                 \"time_steps\": {}, \"quiet_steps\": {}}}",
                m.evaluations, m.evals_skipped, m.time_steps, m.quiet_steps
            ));
        }
        if let Some(samples) = self.samples() {
            let points = samples.iter().map(|p| {
                format!(
                    "{{\"t_ns\": {}, \"events\": {}, \"evaluations\": {}, \
                     \"sim_time\": {}, \"queue_depth\": {}, \"busy_ns\": {}, \"idle_ns\": {}}}",
                    p.t_ns,
                    p.snap.counter(Counter::EventsProcessed),
                    p.snap.counter(Counter::Evaluations),
                    p.snap.gauge(Gauge::SimTime),
                    p.snap.gauge(Gauge::QueueDepth),
                    p.snap.counter(Counter::BusyNs),
                    p.snap.counter(Counter::IdleNs),
                )
            });
            s.push_str(&format!(
                ",\n  \"timeseries\": {{\"sample_every_ns\": {}, \"points\": [\n{}  ]}}",
                sample_every_ns(self.telemetry),
                json_rows(points)
            ));
        }
        s.push_str("\n}\n");
        s
    }
}

/// The lines of a JSON array: one indented row each, comma-separated.
fn json_rows(rows: impl Iterator<Item = String>) -> String {
    let mut out = rows
        .map(|r| format!("    {r}"))
        .collect::<Vec<_>>()
        .join(",\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Only the chaotic engine counts empty activations and lookahead
/// extensions; every other engine leaves both at zero and gets no line.
fn has_lookahead(m: &Metrics) -> bool {
    m.empty_activations + m.lookahead_extensions > 0
}

fn sample_every_ns(telemetry: Option<&RunTelemetry>) -> u64 {
    telemetry.and_then(|t| t.sampled_every_ns).unwrap_or(0)
}

fn close_span(
    wr: &mut WorkerReport,
    barrier: &mut DurationStats,
    hot: &mut HashMap<u32, HotElement>,
    kind: EventKind,
    arg: u32,
    dur_ns: u64,
) {
    wr.spans += 1;
    if kind == EventKind::BarrierWait {
        wr.barrier_ns += dur_ns;
        wr.barrier_waits += 1;
        barrier.record(dur_ns);
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

impl fmt::Display for RunReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.metrics;
        write!(
            f,
            "run report: wall {:.3} ms, {} workers",
            ms(self.wall_ns),
            self.workers.len()
        )?;
        if self.traced {
            write!(
                f,
                ", {} events ({} dropped)",
                self.total_events, self.dropped
            )?;
        }
        if m.lane_width > 0 {
            write!(f, ", {}-bit lanes", m.lane_width)?;
        }
        writeln!(f)?;
        writeln!(f, "\nper-phase utilization:")?;
        writeln!(
            f,
            "  {:<8} {:>7} {:>10} {:>10} {:>11} {:>7} {:>8} {:>8} {:>7}",
            "worker",
            "util%",
            "busy(ms)",
            "idle(ms)",
            "barrier(ms)",
            "spans",
            "inserts",
            "evals",
            "parks"
        )?;
        for (i, w) in self.workers.iter().enumerate() {
            let t = self.worker_metrics(i);
            writeln!(
                f,
                "  {:<8} {:>7.1} {:>10.3} {:>10.3} {:>11.3} {:>7} {:>8} {:>8} {:>7}",
                w.worker,
                100.0 * self.worker_utilization(i),
                ms(self.busy_ns(i)),
                ms(t.idle.as_nanos() as u64),
                ms(w.barrier_ns),
                w.spans,
                w.inserts,
                t.evaluations,
                t.sched.backoff_parks
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
        writeln!(f, "  mean utilization {:.1}%", 100.0 * self.utilization())?;
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
        let l = &m.locality;
        let grid_recvs: u64 = self.workers.iter().map(|w| w.grid_recvs).sum();
        if l.local_hits + l.grid_sends + grid_recvs + l.backoff_parks > 0 {
            writeln!(
                f,
                "\nscheduling: {} local hits, {} grid sends, {} grid recvs, {} parks",
                l.local_hits, l.grid_sends, grid_recvs, l.backoff_parks
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
        if !m.checkpoint.is_empty() {
            let c = &m.checkpoint;
            writeln!(
                f,
                "\ncheckpoints: {} written ({} bytes), write {:.3} ms \
                 ({:.3} ms/snapshot), restore {:.3} ms",
                c.writes,
                c.bytes,
                ms(c.write_ns),
                if c.writes == 0 {
                    0.0
                } else {
                    ms(c.write_ns) / c.writes as f64
                },
                ms(c.restore_ns)
            )?;
        }
        if !m.arena.is_empty() {
            let a = &m.arena;
            writeln!(
                f,
                "\nmemory: {} chunks handed out / {} reclaimed, {} mailboxes recycled",
                a.chunk_allocs, a.chunk_frees, a.mailbox_recycled
            )?;
        }
        if has_lookahead(m) {
            writeln!(
                f,
                "\nlookahead: {} of {} activations extended validity, {} consumed no event \
                 (utilisation {:.3})",
                m.lookahead_extensions,
                m.activations,
                m.empty_activations,
                m.activation_utilisation()
            )?;
        }
        if m.evals_skipped > 0 {
            writeln!(
                f,
                "\ngating: {} of {} evaluations skipped ({:.1}%)\n\
                 quiet steps: {} of {} steps jumped over",
                m.evals_skipped,
                m.evaluations + m.evals_skipped,
                100.0 * m.gating_ratio(),
                m.quiet_steps,
                m.time_steps
            )?;
        }
        if let Some(samples) = self.samples() {
            writeln!(
                f,
                "\ntelemetry time series: {} samples every {:.1} ms",
                samples.len(),
                ms(sample_every_ns(self.telemetry))
            )?;
            let events = |s: &Sample| s.snap.counter(Counter::EventsProcessed);
            if samples.len() > 1 {
                write!(f, "  events/s:")?;
                for w in samples.windows(2) {
                    // Event throughput between consecutive samples.
                    let dt = w[1].t_ns.saturating_sub(w[0].t_ns);
                    let rate = if dt == 0 {
                        0.0
                    } else {
                        events(&w[1]).saturating_sub(events(&w[0])) as f64 * 1e9 / dt as f64
                    };
                    write!(f, " {rate:.0}")?;
                }
                writeln!(f)?;
            }
            let last = &samples[samples.len() - 1].snap;
            writeln!(
                f,
                "  final: {} events, {} evaluations, sim time {}",
                last.counter(Counter::EventsProcessed),
                last.counter(Counter::Evaluations),
                last.gauge(Gauge::SimTime)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArenaCounters, LocalityMetrics};
    use parsim_trace::json::lint;
    use parsim_trace::{TraceEvent, WorkerTrace};

    fn ev(tick_ns: u64, kind: EventKind, mark: Mark, arg: u32) -> TraceEvent {
        TraceEvent {
            tick_ns,
            arg,
            kind,
            mark,
        }
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
        // The local hit is a registry count: the report reads it from the
        // metrics, not from the trace's instant.
        let hit = ThreadMetrics {
            sched: LocalityMetrics {
                local_hits: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let m = Metrics {
            per_thread: vec![hit, ThreadMetrics::default()],
            ..Default::default()
        };
        let r = RunReport::new(&m, Some(&synthetic_trace()), None);
        assert_eq!(r.wall_ns, 4_000);
        assert_eq!(r.workers.len(), 2);
        // Worker 0: two activation spans of 1000 + 1600 ns.
        assert_eq!(r.workers[0].busy_ns(), 2_600);
        assert_eq!(r.workers[0].barrier_ns, 1_000);
        assert_eq!(r.workers[0].inserts, 1);
        assert_eq!(r.worker_metrics(0).sched.local_hits, 1);
        // Worker 1: one 900 ns span, 3000 ns barrier.
        assert_eq!(r.workers[1].busy_ns(), 900);
        assert_eq!(r.workers[1].barrier_ns, 3_000);
        assert!((r.worker_utilization(0) - 0.65).abs() < 1e-9);
        assert_eq!(r.barrier.count, 2);
        assert_eq!(r.barrier_imbalance_ns(), 2_000);
        // Hottest: element 5 (2600 ns over 2 activations) above element 9.
        assert_eq!(r.hottest[0].element, 5);
        assert_eq!(r.hottest[0].activations, 2);
        assert_eq!(r.hottest[0].total_ns, 2_600);
        assert_eq!(r.hottest[1].element, 9);
        // Queue depth: one sample of 4.
        let sampled: Vec<&DepthBin> = r.queue_depth.iter().filter(|b| b.samples > 0).collect();
        assert_eq!(sampled.len(), 1);
        assert_eq!(sampled[0].max, 4);
    }

    #[test]
    fn report_json_and_text_render() {
        let m = Metrics::default();
        let r = RunReport::new(&m, Some(&synthetic_trace()), None);
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
        let m = Metrics {
            arena: ArenaCounters {
                chunk_allocs: 120,
                chunk_frees: 80,
                mailbox_recycled: 7,
            },
            ..Default::default()
        };
        let r = RunReport::new(&m, Some(&synthetic_trace()), None);
        let j = r.to_json();
        lint(&j).expect("allocs JSON must be well-formed");
        assert!(j.contains("\"allocs\": {\"chunk_allocs\": 120, \"chunk_frees\": 80"));
        assert!(r
            .to_string()
            .contains("memory: 120 chunks handed out / 80 reclaimed, 7 mailboxes"));
    }

    #[test]
    fn lookahead_line_renders_in_json_and_text() {
        let m = Metrics {
            activations: 500,
            empty_activations: 40,
            lookahead_extensions: 120,
            ..Default::default()
        };
        let r = RunReport::new(&m, Some(&synthetic_trace()), None);
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
        assert_eq!(Metrics::default().activation_utilisation(), 0.0);
    }

    #[test]
    fn gating_lines_render_in_json_and_text() {
        let m = Metrics {
            evaluations: 250,
            evals_skipped: 750,
            time_steps: 321,
            quiet_steps: 240,
            ..Default::default()
        };
        let r = RunReport::new(&m, Some(&synthetic_trace()), None);
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
        let m = Metrics::default();
        let report = |events| {
            let trace = Trace {
                workers: vec![WorkerTrace {
                    worker: 0,
                    events,
                    dropped: 0,
                }],
            };
            RunReport::new(&m, Some(&trace), None)
        };
        let (plain, jumped) = (report(spans), report(jumped));
        assert_eq!(plain.workers[0].phase_ns, jumped.workers[0].phase_ns);
        assert_eq!(plain.workers[0].spans, jumped.workers[0].spans);
        assert_eq!(plain.utilization(), jumped.utilization());
        assert_eq!(jumped.workers[0].busy_ns(), 500);
    }

    #[test]
    fn empty_trace_yields_sane_report() {
        let m = Metrics::default();
        let r = RunReport::new(&m, Some(&Trace::default()), None);
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
        // A one-worker sequential run: its evaluation count is the metrics'.
        let m = Metrics {
            evaluations: 1,
            ..Default::default()
        };
        let r = RunReport::new(&m, Some(&t), None);
        assert_eq!(r.workers[0].busy_ns(), 500);
        assert_eq!(r.worker_metrics(0).evaluations, 1);
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
