//! Execution metrics: event counts, per-thread utilization, and the
//! events-per-time-step distribution the paper's parallelism arguments
//! rest on.

use std::fmt;
use std::time::Duration;

use parsim_telemetry::{Counter, Gauge, HistSnapshot, Registry, Snapshot, HIST_BOUNDS};

/// Histogram of node-change events per active time step.
///
/// The paper (§4, citing the authors' DAC 1987 statistics paper) observes
/// that "even for circuits with 5000 gates, there can be less than 5
/// events available for evaluation about 50% of the time" — this histogram
/// lets the experiments verify the claim on our circuits.
///
/// # Examples
///
/// ```
/// use parsim_core::EventsPerStepHistogram;
///
/// let mut h = EventsPerStepHistogram::new();
/// h.record(3);
/// h.record(700);
/// assert_eq!(h.steps(), 2);
/// assert!((h.fraction_at_most(5) - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EventsPerStepHistogram {
    /// Bucket upper bounds (inclusive); the last bucket is unbounded.
    counts: Vec<u64>,
    total_steps: u64,
    total_events: u64,
    max: u64,
}

impl Default for EventsPerStepHistogram {
    /// Same as [`EventsPerStepHistogram::new`]: the bucket vector is
    /// always allocated, so `record` and `merge` work on a
    /// default-constructed histogram.
    fn default() -> EventsPerStepHistogram {
        EventsPerStepHistogram::new()
    }
}

/// Inclusive upper bounds of the histogram buckets (the registry's, so a
/// [`HistSnapshot`] converts bucket for bucket); the final implicit
/// bucket collects everything larger.
const BOUNDS: &[u64] = &HIST_BOUNDS;

impl From<&HistSnapshot> for EventsPerStepHistogram {
    fn from(h: &HistSnapshot) -> EventsPerStepHistogram {
        EventsPerStepHistogram {
            counts: h.buckets.clone(),
            total_steps: h.count,
            total_events: h.sum,
            max: h.max,
        }
    }
}

impl EventsPerStepHistogram {
    /// Creates an empty histogram.
    pub fn new() -> EventsPerStepHistogram {
        EventsPerStepHistogram {
            counts: vec![0; BOUNDS.len() + 1],
            total_steps: 0,
            total_events: 0,
            max: 0,
        }
    }

    /// Records one active time step carrying `events` node changes.
    pub fn record(&mut self, events: u64) {
        let idx = BOUNDS
            .iter()
            .position(|&b| events <= b)
            .unwrap_or(BOUNDS.len());
        self.counts[idx] += 1;
        self.total_steps += 1;
        self.total_events += events;
        self.max = self.max.max(events);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &EventsPerStepHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total_steps += other.total_steps;
        self.total_events += other.total_events;
        self.max = self.max.max(other.max);
    }

    /// Number of active time steps recorded.
    pub fn steps(&self) -> u64 {
        self.total_steps
    }

    /// Total events across all steps.
    pub fn events(&self) -> u64 {
        self.total_events
    }

    /// Mean events per active step.
    pub fn mean(&self) -> f64 {
        if self.total_steps == 0 {
            0.0
        } else {
            self.total_events as f64 / self.total_steps as f64
        }
    }

    /// Largest single-step event count.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fraction of steps with at most `k` events (k must be one of the
    /// bucket bounds for an exact answer; otherwise the nearest bound not
    /// exceeding `k` is used).
    pub fn fraction_at_most(&self, k: u64) -> f64 {
        if self.total_steps == 0 {
            return 0.0;
        }
        let upto = BOUNDS.iter().take_while(|&&b| b <= k).count();
        let sum: u64 = self.counts[..upto].iter().sum();
        sum as f64 / self.total_steps as f64
    }

    /// Events-per-step value at percentile `p` (0.0..=1.0), resolved to
    /// bucket granularity: the smallest bucket bound whose cumulative step
    /// share reaches `p`. Steps landing in the unbounded top bucket report
    /// the observed [`EventsPerStepHistogram::max`]. Returns 0 for an
    /// empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total_steps == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * self.total_steps as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            cum += count;
            if cum >= target {
                return if i < BOUNDS.len() { BOUNDS[i] } else { self.max };
            }
        }
        self.max
    }

    /// Median events per active step (bucket-resolution).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile events per active step (bucket-resolution).
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th-percentile events per active step (bucket-resolution).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

impl fmt::Display for EventsPerStepHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} steps, {} events (mean {:.1}/step, max {})",
            self.total_steps,
            self.total_events,
            self.mean(),
            self.max
        )?;
        let mut lo = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            let label = if i < BOUNDS.len() {
                format!("{}..={}", lo + u64::from(i > 0), BOUNDS[i])
            } else {
                format!(">{}", BOUNDS[BOUNDS.len() - 1])
            };
            if count > 0 {
                writeln!(f, "  {label:>9}: {count}")?;
            }
            if i < BOUNDS.len() {
                lo = BOUNDS[i];
            }
        }
        Ok(())
    }
}

/// Scheduling-locality counters for the asynchronous engine's
/// locality-aware scheduler (zero for the other engines).
///
/// # Examples
///
/// ```
/// use parsim_core::LocalityMetrics;
///
/// let m = LocalityMetrics {
///     local_hits: 30,
///     grid_sends: 10,
///     grid_batches: 2,
///     ..Default::default()
/// };
/// assert!((m.locality_ratio() - 0.75).abs() < 1e-9);
/// assert!((m.batch_occupancy() - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalityMetrics {
    /// Activations scheduled through a worker's own local LIFO deque
    /// (no grid message; includes the initial owner placement).
    pub local_hits: u64,
    /// Element ids sent across the SPSC grid (cross-processor hops, plus
    /// local-deque overflow routed back through the grid).
    pub grid_sends: u64,
    /// Grid slots used to carry those ids; `grid_sends / grid_batches`
    /// is the mean batch occupancy.
    pub grid_batches: u64,
    /// Idle-branch snoozes that reached the bounded-park stage of the
    /// truncated exponential backoff.
    pub backoff_parks: u64,
}

impl LocalityMetrics {
    /// Reads the four scheduling counters through `counter` (one worker's
    /// shard, or the aggregated snapshot).
    fn read(counter: impl Fn(Counter) -> u64) -> LocalityMetrics {
        LocalityMetrics {
            local_hits: counter(Counter::LocalHits),
            grid_sends: counter(Counter::GridSends),
            grid_batches: counter(Counter::GridBatches),
            backoff_parks: counter(Counter::BackoffParks),
        }
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &LocalityMetrics) {
        self.local_hits += other.local_hits;
        self.grid_sends += other.grid_sends;
        self.grid_batches += other.grid_batches;
        self.backoff_parks += other.backoff_parks;
    }

    /// Fraction of scheduled activations that stayed processor-local:
    /// `local_hits / (local_hits + grid_sends)`. Returns 0.0 when nothing
    /// was scheduled.
    pub fn locality_ratio(&self) -> f64 {
        let total = self.local_hits + self.grid_sends;
        if total == 0 {
            0.0
        } else {
            self.local_hits as f64 / total as f64
        }
    }

    /// Mean element ids per occupied grid slot (1.0 means no batching
    /// benefit). Returns 0.0 when the grid was never used.
    pub fn batch_occupancy(&self) -> f64 {
        if self.grid_batches == 0 {
            0.0
        } else {
            self.grid_sends as f64 / self.grid_batches as f64
        }
    }
}

/// Per-worker-thread timing and work counters.
#[derive(Debug, Clone, Default)]
pub struct ThreadMetrics {
    /// Time spent doing useful work (evaluations, updates, scheduling).
    pub busy: Duration,
    /// Time spent waiting: barriers, empty queues.
    pub idle: Duration,
    /// Element evaluations performed by this thread.
    pub evaluations: u64,
    /// Input events consumed by this thread's evaluations.
    pub events: u64,
    /// Scheduling-locality counters (asynchronous engine only).
    pub sched: LocalityMetrics,
}

impl ThreadMetrics {
    /// busy / (busy + idle), or 1.0 when nothing was measured.
    pub fn utilization(&self) -> f64 {
        let total = self.busy + self.idle;
        if total.is_zero() {
            1.0
        } else {
            self.busy.as_secs_f64() / total.as_secs_f64()
        }
    }
}

/// Aggregate metrics for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Node-change events applied.
    pub events_processed: u64,
    /// Element evaluations performed.
    pub evaluations: u64,
    /// Element activations (schedulings).
    pub activations: u64,
    /// Active time steps (event-driven engines) or total steps (compiled).
    pub time_steps: u64,
    /// Distribution of events per active step: the registry's histogram,
    /// recorded once per step by the sequential engine and by the
    /// synchronous engine's step leader (from the step's global event
    /// count). The compiled and chaotic engines leave it empty — compiled
    /// mode evaluates every element each step so the paper's §5
    /// availability statistic is meaningless there, and the chaotic
    /// engine has no global step at all. Renderers must check
    /// [`EventsPerStepHistogram::steps`] and skip the histogram instead of
    /// printing zeros.
    pub events_per_step: EventsPerStepHistogram,
    /// Per-worker timing and work: one row per worker that measured busy
    /// or idle time, summed over every lane chunk and checkpoint segment
    /// the worker ran. Empty for the sequential engine, which measures
    /// neither.
    pub per_thread: Vec<ThreadMetrics>,
    /// Asynchronous-engine activations that consumed no input event: the
    /// element was woken by a validity extension that unlocked nothing
    /// (zero for other engines).
    pub empty_activations: u64,
    /// Asynchronous-engine activations where lookahead (controlling value
    /// or register trigger rule) carried the outputs' validity past the
    /// least-valid input (zero for other engines and for
    /// [`without_lookahead`](crate::SimConfig::without_lookahead) runs).
    pub lookahead_extensions: u64,
    /// Event-list chunks reclaimed by the asynchronous engine's concurrent
    /// garbage collector (zero for other engines). Always equal to
    /// [`ArenaCounters::chunk_frees`]: both are published from the same
    /// per-worker tallies.
    pub gc_chunks_freed: u64,
    /// Kernel blocks skipped by compiled-mode activity gating (zero for
    /// other engines and for gated runs that never go quiescent).
    pub blocks_skipped: u64,
    /// Element evaluations eliminated by activity gating: the evaluations
    /// the paper's "every element is executed every time step" rule would
    /// have performed on the skipped blocks.
    pub evals_skipped: u64,
    /// Compiled-mode steps the kernel jumped over instead of executing:
    /// after a step that queued no write on any worker nothing can change
    /// until the next scheduled stimulus, so the loop continues there.
    /// Included in [`Metrics::time_steps`]; zero for other engines and
    /// with [`without_activity_gating`](crate::SimConfig::without_activity_gating).
    pub quiet_steps: u64,
    /// Aggregated scheduling-locality counters (asynchronous engine only;
    /// the per-thread split lives in [`Metrics::per_thread`]).
    pub locality: LocalityMetrics,
    /// Synchronous-engine mailbox-pool misses: update buffers that had to
    /// be freshly allocated because the recycling pool was empty (zero for
    /// the other engines). A warmed-up pool should hold this near the
    /// number of distinct (worker, target) pairs.
    pub pool_misses: u64,
    /// Checkpoint write/restore counters (all zero unless the run was
    /// driven through the [`checkpoint`](crate::checkpoint) module).
    pub checkpoint: CheckpointCounters,
    /// SIMD lane width (stimulus lanes per word group) used by the
    /// compiled batch kernel: 64, 128, 256, or 512. Zero for every other
    /// engine, so benchmark JSON built from these metrics is
    /// self-describing about the vector width that produced it.
    pub lane_width: u64,
    /// Hot-path allocation counters (see [`ArenaCounters`]; the name is
    /// historical).
    pub arena: ArenaCounters,
    /// Wall-clock duration of the run (excluding netlist construction).
    pub wall: Duration,
}

/// Hot-path allocation counters.
///
/// The name is historical: the slab arena these once described is gone
/// (DESIGN.md §12). Behavior-list chunks come from a bounded process-wide
/// free-list and go back to it (§12.1); the allocator is only asked when
/// that list is empty. The type keeps its name and field names because
/// the benchmark reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaCounters {
    /// Behavior-list chunks handed out to lists (all workers plus the
    /// build phase), whether recycled or freshly allocated.
    pub chunk_allocs: u64,
    /// Behavior-list chunks reclaimed by the writers' cursor GC (chunks
    /// still linked at the end of the run go back with their node).
    pub chunk_frees: u64,
    /// Synchronous-engine mailbox buffers served from the recycling pool
    /// (the hit counter complementing [`Metrics::pool_misses`]).
    pub mailbox_recycled: u64,
}

impl ArenaCounters {
    /// Merges another run segment's counters (additive).
    pub fn merge(&mut self, other: &ArenaCounters) {
        self.chunk_allocs += other.chunk_allocs;
        self.chunk_frees += other.chunk_frees;
        self.mailbox_recycled += other.mailbox_recycled;
    }

    /// True when no allocation activity was recorded.
    pub fn is_empty(&self) -> bool {
        *self == ArenaCounters::default()
    }

    /// Chunk handouts; the name is historical (it once counted
    /// global-allocator calls, one per chunk).
    pub fn global_allocs(&self) -> u64 {
        self.chunk_allocs
    }
}

/// Checkpoint overhead counters, published by the
/// [`checkpoint`](crate::checkpoint) driver so `--report` and the
/// metrics line make snapshot cost visible next to simulation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointCounters {
    /// Snapshots committed to disk.
    pub writes: u64,
    /// Total bytes across committed snapshot files.
    pub bytes: u64,
    /// Wall nanoseconds spent serializing, fsyncing, and renaming.
    pub write_ns: u64,
    /// Wall nanoseconds spent scanning/validating/loading at resume.
    pub restore_ns: u64,
}

impl CheckpointCounters {
    /// Merges another run segment's counters (additive).
    pub fn merge(&mut self, other: &CheckpointCounters) {
        self.writes += other.writes;
        self.bytes += other.bytes;
        self.write_ns += other.write_ns;
        self.restore_ns += other.restore_ns;
    }

    /// True when no checkpoint activity was recorded.
    pub fn is_empty(&self) -> bool {
        *self == CheckpointCounters::default()
    }
}

impl Metrics {
    /// The one place a run's `Metrics` is built: a typed view over the
    /// run's telemetry registry. Scalar fields are the aggregated
    /// counters of `finals`, `per_thread` comes from the per-worker
    /// shards, and `wall` is the measured simulation time (the registry
    /// does not time the run).
    pub(crate) fn from_registry(
        registry: &Registry,
        finals: &Snapshot,
        wall: Duration,
    ) -> Metrics {
        // A worker shard with no measured time took no part in the run:
        // the sequential engine times nothing, and it leaves the shards
        // beyond its single worker untouched.
        let per_thread = registry.shards()[..registry.num_workers()]
            .iter()
            .filter(|s| s.counter(Counter::BusyNs) + s.counter(Counter::IdleNs) > 0)
            .map(|s| ThreadMetrics {
                busy: Duration::from_nanos(s.counter(Counter::BusyNs)),
                idle: Duration::from_nanos(s.counter(Counter::IdleNs)),
                evaluations: s.counter(Counter::Evaluations),
                events: s.counter(Counter::EventsProcessed),
                sched: LocalityMetrics::read(|c| s.counter(c)),
            })
            .collect();
        Metrics {
            events_processed: finals.counter(Counter::EventsProcessed),
            evaluations: finals.counter(Counter::Evaluations),
            activations: finals.counter(Counter::Activations),
            time_steps: finals.counter(Counter::TimeSteps),
            events_per_step: EventsPerStepHistogram::from(&finals.hist),
            per_thread,
            empty_activations: finals.counter(Counter::EmptyActivations),
            lookahead_extensions: finals.counter(Counter::LookaheadExtensions),
            gc_chunks_freed: finals.counter(Counter::GcChunksFreed),
            blocks_skipped: finals.counter(Counter::BlocksSkipped),
            evals_skipped: finals.counter(Counter::EvalsSkipped),
            quiet_steps: finals.counter(Counter::QuietSteps),
            locality: LocalityMetrics::read(|c| finals.counter(c)),
            pool_misses: finals.counter(Counter::PoolMisses),
            checkpoint: CheckpointCounters {
                writes: finals.counter(Counter::CheckpointWrites),
                bytes: finals.counter(Counter::CheckpointBytes),
                write_ns: finals.counter(Counter::CheckpointWriteNs),
                restore_ns: finals.counter(Counter::CheckpointRestoreNs),
            },
            lane_width: finals.gauge(Gauge::LaneWidth),
            arena: ArenaCounters {
                chunk_allocs: finals.counter(Counter::ArenaChunkAllocs),
                chunk_frees: finals.counter(Counter::ArenaChunkFrees),
                mailbox_recycled: finals.counter(Counter::MailboxRecycled),
            },
            wall,
        }
    }

    /// Merges a *separate* run's metrics into this one — the server
    /// stitching the slices of a job through
    /// [`SimResult::append_segment`](crate::SimResult::append_segment).
    /// (Within one run nothing is merged: every worker, lane chunk and
    /// checkpoint segment publishes into the same registry.)
    ///
    /// Counters and histograms add and `per_thread` rows are
    /// concatenated. `wall` and `lane_width` are the non-additive fields:
    /// both take the maximum.
    pub fn merge(&mut self, other: &Metrics) {
        self.events_processed += other.events_processed;
        self.evaluations += other.evaluations;
        self.activations += other.activations;
        self.time_steps += other.time_steps;
        self.events_per_step.merge(&other.events_per_step);
        self.per_thread.extend(other.per_thread.iter().cloned());
        self.empty_activations += other.empty_activations;
        self.lookahead_extensions += other.lookahead_extensions;
        self.gc_chunks_freed += other.gc_chunks_freed;
        self.blocks_skipped += other.blocks_skipped;
        self.evals_skipped += other.evals_skipped;
        self.quiet_steps += other.quiet_steps;
        self.locality.merge(&other.locality);
        self.pool_misses += other.pool_misses;
        self.arena.merge(&other.arena);
        self.checkpoint.merge(&other.checkpoint);
        self.lane_width = self.lane_width.max(other.lane_width);
        self.wall = self.wall.max(other.wall);
    }

    /// Mean utilization across worker threads (1.0 for the sequential
    /// engine).
    pub fn utilization(&self) -> f64 {
        if self.per_thread.is_empty() {
            return 1.0;
        }
        self.per_thread.iter().map(ThreadMetrics::utilization).sum::<f64>()
            / self.per_thread.len() as f64
    }

    /// Mean element activity per active time step: the fraction of the
    /// circuit's elements that see an event each step. The paper quotes
    /// 0.1–0.5% per step for typical gate-level circuits (§3).
    pub fn activity(&self, num_elements: usize) -> f64 {
        if self.time_steps == 0 || num_elements == 0 {
            0.0
        } else {
            self.events_processed as f64 / self.time_steps as f64 / num_elements as f64
        }
    }

    /// Fraction of compiled-mode evaluations eliminated by activity
    /// gating: `evals_skipped / (evaluations + evals_skipped)`. This is
    /// the direct counter to the §3 pathology that at 0.1–0.5% activity
    /// "every element is executed every time step" regardless of need.
    /// Returns 0.0 when gating is off or nothing was evaluated.
    pub fn gating_ratio(&self) -> f64 {
        let would_run = self.evaluations + self.evals_skipped;
        if would_run == 0 {
            0.0
        } else {
            self.evals_skipped as f64 / would_run as f64
        }
    }

    /// Mean input events consumed per element evaluation — the batching
    /// factor that makes the asynchronous algorithm faster per event than
    /// the event-driven one (§5).
    pub fn events_per_evaluation(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            self.events_processed as f64 / self.evaluations as f64
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events, {} evaluations, {} activations, {} steps, util {:.0}%, wall {:?}",
            self.events_processed,
            self.evaluations,
            self.activations,
            self.time_steps,
            self.utilization() * 100.0,
            self.wall
        )?;
        if self.evals_skipped > 0 {
            write!(
                f,
                ", gated {:.0}% ({} quiet steps)",
                self.gating_ratio() * 100.0,
                self.quiet_steps
            )?;
        }
        if self.lane_width > 0 {
            write!(f, ", {}-bit lanes", self.lane_width)?;
        }
        // Engines that never record the histogram (compiled, chaotic)
        // get no ev/step clause at all — zeros here would read as "every
        // step was empty", which is not what absence means.
        if self.events_per_step.steps() > 0 {
            write!(
                f,
                ", ev/step p50 {} p95 {}",
                self.events_per_step.p50(),
                self.events_per_step.p95()
            )?;
        }
        if self.arena.chunk_allocs > 0 {
            write!(f, ", {} chunks handed out", self.arena.chunk_allocs)?;
        }
        if !self.checkpoint.is_empty() {
            write!(
                f,
                ", {} checkpoint(s) ({} B, write {:?}, restore {:?})",
                self.checkpoint.writes,
                self.checkpoint.bytes,
                Duration::from_nanos(self.checkpoint.write_ns),
                Duration::from_nanos(self.checkpoint.restore_ns),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_fractions() {
        let mut h = EventsPerStepHistogram::new();
        for e in [1, 1, 2, 5, 6, 100, 2000] {
            h.record(e);
        }
        assert_eq!(h.steps(), 7);
        assert_eq!(h.events(), 2115);
        assert_eq!(h.max(), 2000);
        assert!((h.fraction_at_most(1) - 2.0 / 7.0).abs() < 1e-9);
        assert!((h.fraction_at_most(5) - 4.0 / 7.0).abs() < 1e-9);
        assert!((h.fraction_at_most(1000) - 6.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge() {
        let mut a = EventsPerStepHistogram::new();
        a.record(3);
        let mut b = EventsPerStepHistogram::new();
        b.record(700);
        a.merge(&b);
        assert_eq!(a.steps(), 2);
        assert_eq!(a.max(), 700);
    }

    #[test]
    fn histogram_percentiles() {
        let empty = EventsPerStepHistogram::new();
        assert_eq!(empty.percentile(0.5), 0);
        assert_eq!(empty.p99(), 0);

        let mut h = EventsPerStepHistogram::new();
        // 60 steps of 1 event, 35 steps of 8 events, 4 steps of 60,
        // 1 step of 5000 (unbounded bucket).
        for _ in 0..60 {
            h.record(1);
        }
        for _ in 0..35 {
            h.record(8);
        }
        for _ in 0..4 {
            h.record(60);
        }
        h.record(5000);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p95(), 10); // 8 lands in the ..=10 bucket
        assert_eq!(h.p99(), 100); // 60 lands in the ..=100 bucket
        // The top step lives in the unbounded bucket: report the true max.
        assert_eq!(h.percentile(1.0), 5000);
        assert_eq!(h.percentile(0.0), 1, "p0 reports the lowest bucket");
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let mut h = EventsPerStepHistogram::new();
        for e in [1, 3, 7, 15, 40, 80, 150, 400, 900, 3000] {
            h.record(e);
        }
        let mut last = 0;
        for i in 0..=20 {
            let v = h.percentile(i as f64 / 20.0);
            assert!(v >= last, "percentile must be monotone");
            last = v;
        }
    }

    #[test]
    fn metrics_merge_sums_counters_and_concats_threads() {
        let mut a = Metrics {
            events_processed: 10,
            evaluations: 5,
            activations: 7,
            time_steps: 3,
            empty_activations: 2,
            lookahead_extensions: 4,
            gc_chunks_freed: 1,
            blocks_skipped: 2,
            evals_skipped: 4,
            pool_misses: 6,
            locality: LocalityMetrics { local_hits: 3, ..Default::default() },
            arena: ArenaCounters {
                chunk_allocs: 100,
                chunk_frees: 40,
                ..Default::default()
            },
            per_thread: vec![ThreadMetrics::default()],
            lane_width: 64,
            wall: Duration::from_millis(10),
            ..Default::default()
        };
        a.events_per_step.record(2);
        let mut b = Metrics {
            events_processed: 1,
            evaluations: 1,
            activations: 1,
            time_steps: 1,
            empty_activations: 1,
            lookahead_extensions: 1,
            pool_misses: 1,
            locality: LocalityMetrics { grid_sends: 9, ..Default::default() },
            arena: ArenaCounters {
                chunk_allocs: 10,
                mailbox_recycled: 3,
                ..Default::default()
            },
            per_thread: vec![ThreadMetrics::default(), ThreadMetrics::default()],
            lane_width: 256,
            wall: Duration::from_millis(4),
            ..Default::default()
        };
        b.events_per_step.record(700);
        a.merge(&b);
        assert_eq!(a.events_processed, 11);
        assert_eq!(a.evaluations, 6);
        assert_eq!(a.activations, 8);
        assert_eq!(a.time_steps, 4);
        assert_eq!(a.empty_activations, 3);
        assert_eq!(a.lookahead_extensions, 5);
        assert_eq!(a.pool_misses, 7);
        assert_eq!(a.locality.local_hits, 3);
        assert_eq!(a.locality.grid_sends, 9);
        assert_eq!(a.per_thread.len(), 3);
        assert_eq!(a.arena.chunk_allocs, 110);
        assert_eq!(a.arena.chunk_frees, 40);
        assert_eq!(a.arena.mailbox_recycled, 3);
        assert_eq!(a.events_per_step.steps(), 2);
        assert_eq!(a.events_per_step.max(), 700);
        assert_eq!(a.wall, Duration::from_millis(10), "wall is max, not sum");
        assert_eq!(a.lane_width, 256, "lane width is max, not sum");
    }

    #[test]
    fn utilization_math() {
        let t = ThreadMetrics {
            busy: Duration::from_millis(75),
            idle: Duration::from_millis(25),
            evaluations: 10,
            events: 20,
            sched: Default::default(),
        };
        assert!((t.utilization() - 0.75).abs() < 1e-9);
        let m = Metrics {
            per_thread: vec![t.clone(), t],
            events_processed: 20,
            evaluations: 10,
            ..Default::default()
        };
        assert!((m.utilization() - 0.75).abs() < 1e-9);
        assert!((m.events_per_evaluation() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn activity_math() {
        let m = Metrics {
            events_processed: 50,
            time_steps: 10,
            ..Default::default()
        };
        assert!((m.activity(1000) - 0.005).abs() < 1e-9);
        assert_eq!(m.activity(0), 0.0);
        assert_eq!(Metrics::default().activity(10), 0.0);
    }

    #[test]
    fn locality_ratio_and_occupancy() {
        assert_eq!(LocalityMetrics::default().locality_ratio(), 0.0);
        assert_eq!(LocalityMetrics::default().batch_occupancy(), 0.0);
        let mut a = LocalityMetrics {
            local_hits: 60,
            grid_sends: 20,
            grid_batches: 4,
            backoff_parks: 2,
        };
        assert!((a.locality_ratio() - 0.75).abs() < 1e-9);
        assert!((a.batch_occupancy() - 5.0).abs() < 1e-9);
        let b = LocalityMetrics {
            local_hits: 40,
            grid_sends: 0,
            grid_batches: 0,
            backoff_parks: 3,
        };
        a.merge(&b);
        assert_eq!(a.local_hits, 100);
        assert_eq!(a.grid_sends, 20);
        assert_eq!(a.backoff_parks, 5);
        assert!((a.locality_ratio() - 100.0 / 120.0).abs() < 1e-9);
    }

    #[test]
    fn display_renders() {
        let mut h = EventsPerStepHistogram::new();
        h.record(4);
        assert!(h.to_string().contains("1 steps"));
        let m = Metrics::default();
        assert!(m.to_string().contains("0 events"));
    }
}
