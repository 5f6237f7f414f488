//! The sharded metrics registry: fixed counter/gauge/histogram sets,
//! one cache-padded single-writer shard per worker, snapshot-on-read
//! aggregation.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Monotonic counters. One slot per variant in every [`Shard`]; the
/// numbering is the array index, so keep `ALL` in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Node-change events applied.
    EventsProcessed,
    /// Element evaluations performed.
    Evaluations,
    /// Element activations (schedulings).
    Activations,
    /// Chaotic-engine activations that consumed no input event.
    EmptyActivations,
    /// Chaotic-engine activations where lookahead carried the outputs'
    /// validity past the least-valid input.
    LookaheadExtensions,
    /// Active time steps (event-driven) or executed steps (compiled).
    TimeSteps,
    /// Activations served from a worker's own local deque.
    LocalHits,
    /// Element ids sent across the SPSC grid.
    GridSends,
    /// Grid slots used to carry those ids.
    GridBatches,
    /// Idle snoozes that reached the bounded-park backoff stage.
    BackoffParks,
    /// Synchronous-engine calendar buffers freshly allocated (no drained
    /// buffer to reuse).
    PoolMisses,
    /// Synchronous-engine calendar buffers reused from drained entries.
    MailboxRecycled,
    /// Event-list chunks reclaimed by the chaotic engine's concurrent GC.
    GcChunksFreed,
    /// Compiled-mode level blocks skipped by activity gating.
    BlocksSkipped,
    /// Element evaluations eliminated by activity gating.
    EvalsSkipped,
    /// Compiled-mode steps jumped over because the circuit had settled and
    /// no stimulus was due (counted in `TimeSteps` too).
    QuietSteps,
    /// Behavior-list chunks handed out.
    ArenaChunkAllocs,
    /// Behavior-list chunks reclaimed by cursor GC.
    ArenaChunkFrees,
    /// Snapshots committed to disk by the checkpoint store.
    CheckpointWrites,
    /// Total bytes across committed snapshot files.
    CheckpointBytes,
    /// Wall nanoseconds spent serializing/fsyncing/renaming snapshots.
    CheckpointWriteNs,
    /// Wall nanoseconds spent scanning/validating/loading at resume.
    CheckpointRestoreNs,
    /// Wall nanoseconds spent doing useful work (per-thread busy time;
    /// the chaotic engine charges whole busy spans, not activations).
    BusyNs,
    /// Wall nanoseconds spent waiting: barriers, empty queues.
    IdleNs,
    /// Watchdog monitor wakeups observed (the sampler's own heartbeat).
    MonitorWakeups,
}

impl Counter {
    pub const ALL: [Counter; 25] = [
        Counter::EventsProcessed,
        Counter::Evaluations,
        Counter::Activations,
        Counter::EmptyActivations,
        Counter::LookaheadExtensions,
        Counter::TimeSteps,
        Counter::LocalHits,
        Counter::GridSends,
        Counter::GridBatches,
        Counter::BackoffParks,
        Counter::PoolMisses,
        Counter::MailboxRecycled,
        Counter::GcChunksFreed,
        Counter::BlocksSkipped,
        Counter::EvalsSkipped,
        Counter::QuietSteps,
        Counter::ArenaChunkAllocs,
        Counter::ArenaChunkFrees,
        Counter::CheckpointWrites,
        Counter::CheckpointBytes,
        Counter::CheckpointWriteNs,
        Counter::CheckpointRestoreNs,
        Counter::BusyNs,
        Counter::IdleNs,
        Counter::MonitorWakeups,
    ];
    pub const COUNT: usize = Counter::ALL.len();

    /// Prometheus metric name (`_total` suffix per the counter convention;
    /// everything lives under the `parsim_` namespace).
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsProcessed => "parsim_events_total",
            Counter::Evaluations => "parsim_evaluations_total",
            Counter::Activations => "parsim_activations_total",
            Counter::EmptyActivations => "parsim_empty_activations_total",
            Counter::LookaheadExtensions => "parsim_lookahead_extensions_total",
            Counter::TimeSteps => "parsim_time_steps_total",
            Counter::LocalHits => "parsim_sched_local_hits_total",
            Counter::GridSends => "parsim_sched_grid_sends_total",
            Counter::GridBatches => "parsim_sched_grid_batches_total",
            Counter::BackoffParks => "parsim_sched_backoff_parks_total",
            Counter::PoolMisses => "parsim_mailbox_pool_misses_total",
            Counter::MailboxRecycled => "parsim_mailbox_recycled_total",
            Counter::GcChunksFreed => "parsim_gc_chunks_freed_total",
            Counter::BlocksSkipped => "parsim_gate_blocks_skipped_total",
            Counter::EvalsSkipped => "parsim_gate_evals_skipped_total",
            Counter::QuietSteps => "parsim_quiet_steps_total",
            Counter::ArenaChunkAllocs => "parsim_arena_chunk_allocs_total",
            Counter::ArenaChunkFrees => "parsim_arena_chunk_frees_total",
            Counter::CheckpointWrites => "parsim_checkpoint_writes_total",
            Counter::CheckpointBytes => "parsim_checkpoint_bytes_total",
            Counter::CheckpointWriteNs => "parsim_checkpoint_write_ns_total",
            Counter::CheckpointRestoreNs => "parsim_checkpoint_restore_ns_total",
            Counter::BusyNs => "parsim_busy_ns_total",
            Counter::IdleNs => "parsim_idle_ns_total",
            Counter::MonitorWakeups => "parsim_monitor_wakeups_total",
        }
    }

    /// One-line HELP text for the Prometheus exposition.
    pub fn help(self) -> &'static str {
        match self {
            Counter::EventsProcessed => "Node-change events applied",
            Counter::Evaluations => "Element evaluations performed",
            Counter::Activations => "Element activations (schedulings)",
            Counter::EmptyActivations => "Activations that consumed no input event",
            Counter::LookaheadExtensions => {
                "Activations where lookahead extended validity past the least-valid input"
            }
            Counter::TimeSteps => "Active (event-driven) or executed (compiled) time steps",
            Counter::LocalHits => "Activations served from the worker-local deque",
            Counter::GridSends => "Element ids sent across the SPSC grid",
            Counter::GridBatches => "Grid slots used to carry sent ids",
            Counter::BackoffParks => "Idle snoozes that reached the bounded-park backoff stage",
            Counter::PoolMisses => "Calendar buffers freshly allocated because no drained one was free",
            Counter::MailboxRecycled => "Calendar buffers reused from drained entries",
            Counter::GcChunksFreed => "Event-list chunks reclaimed by the concurrent GC",
            Counter::BlocksSkipped => "Compiled-mode level blocks skipped by activity gating",
            Counter::EvalsSkipped => "Evaluations eliminated by activity gating",
            Counter::QuietSteps => "Compiled-mode steps jumped over while the circuit was settled",
            Counter::ArenaChunkAllocs => "Behavior-list chunks handed out",
            Counter::ArenaChunkFrees => "Behavior-list chunks reclaimed by cursor GC",
            Counter::CheckpointWrites => "Snapshots committed to disk",
            Counter::CheckpointBytes => "Bytes across committed snapshot files",
            Counter::CheckpointWriteNs => "Nanoseconds spent committing snapshots",
            Counter::CheckpointRestoreNs => "Nanoseconds spent restoring a snapshot at resume",
            Counter::BusyNs => {
                "Nanoseconds of useful per-thread work (chaotic engine: busy spans between idle lulls)"
            }
            Counter::IdleNs => "Nanoseconds waiting at barriers or on empty queues",
            Counter::MonitorWakeups => "Watchdog monitor-thread wakeups",
        }
    }
}

/// Last-value metrics. Each shard stores its own value; aggregation
/// across shards follows [`Gauge::agg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Current simulated time (ticks) reached by the publisher.
    SimTime,
    /// Scheduling-queue depth (local deque / pending activations).
    QueueDepth,
    /// Simulated time of the most recent committed checkpoint.
    LastCheckpointTime,
    /// SIMD stimulus-lane width of the compiled batch kernel.
    LaneWidth,
    /// Worker threads participating in the run.
    Workers,
}

/// How a gauge aggregates across shards in a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeAgg {
    /// Depths and occupancies: the total is the sum of the parts.
    Sum,
    /// Watermarks and frontiers: the total is the furthest part.
    Max,
}

impl Gauge {
    pub const ALL: [Gauge; 5] = [
        Gauge::SimTime,
        Gauge::QueueDepth,
        Gauge::LastCheckpointTime,
        Gauge::LaneWidth,
        Gauge::Workers,
    ];
    pub const COUNT: usize = Gauge::ALL.len();

    pub fn name(self) -> &'static str {
        match self {
            Gauge::SimTime => "parsim_sim_time",
            Gauge::QueueDepth => "parsim_queue_depth",
            Gauge::LastCheckpointTime => "parsim_last_checkpoint_time",
            Gauge::LaneWidth => "parsim_lane_width",
            Gauge::Workers => "parsim_workers",
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            Gauge::SimTime => "Current simulated time in ticks",
            Gauge::QueueDepth => "Scheduling-queue depth (pending activations)",
            Gauge::LastCheckpointTime => "Simulated time of the last committed checkpoint",
            Gauge::LaneWidth => "SIMD stimulus-lane width of the batch kernel",
            Gauge::Workers => "Worker threads participating in the run",
        }
    }

    pub fn agg(self) -> GaugeAgg {
        match self {
            Gauge::QueueDepth => GaugeAgg::Sum,
            Gauge::SimTime
            | Gauge::LastCheckpointTime
            | Gauge::LaneWidth
            | Gauge::Workers => GaugeAgg::Max,
        }
    }
}

/// Inclusive upper bounds of the events-per-step histogram buckets (also
/// the bounds of `parsim-core`'s `EventsPerStepHistogram`, which is built
/// from a [`HistSnapshot`]). The final implicit bucket is unbounded.
pub const HIST_BOUNDS: [u64; 10] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000];

const HIST_SLOTS: usize = HIST_BOUNDS.len() + 1;

/// One worker's (or the driver's) private slice of the registry.
///
/// Exactly one thread writes a shard; everyone else only reads. Writes
/// are relaxed load/store pairs — no read-modify-write, no `lock` prefix,
/// no false sharing (the struct is padded to its own cache lines).
/// Readers see each counter's value eventually (on x86 immediately); the
/// cross-counter view is only approximate until the writer quiesces,
/// which is exactly the contract a monitoring snapshot needs.
#[repr(align(128))]
pub struct Shard {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    hist_buckets: [AtomicU64; HIST_SLOTS],
    hist_count: AtomicU64,
    hist_sum: AtomicU64,
    hist_max: AtomicU64,
}

impl Default for Shard {
    fn default() -> Shard {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_count: AtomicU64::new(0),
            hist_sum: AtomicU64::new(0),
            hist_max: AtomicU64::new(0),
        }
    }
}

impl Shard {
    /// Single-writer increment: relaxed load + store, not `fetch_add`.
    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        let slot = &self.counters[c as usize];
        slot.store(slot.load(Relaxed).wrapping_add(v), Relaxed);
    }

    #[inline]
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Relaxed)
    }

    #[inline]
    pub fn set_gauge(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].store(v, Relaxed);
    }

    /// Ratchet a watermark gauge upward (single-writer, so load+store).
    #[inline]
    pub fn gauge_max(&self, g: Gauge, v: u64) {
        let slot = &self.gauges[g as usize];
        if v > slot.load(Relaxed) {
            slot.store(v, Relaxed);
        }
    }

    #[inline]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Relaxed)
    }

    /// Records one active time step carrying `events` node changes into
    /// the events-per-step histogram.
    #[inline]
    pub fn record_step_events(&self, events: u64) {
        let idx = HIST_BOUNDS
            .iter()
            .position(|&b| events <= b)
            .unwrap_or(HIST_BOUNDS.len());
        let b = &self.hist_buckets[idx];
        b.store(b.load(Relaxed) + 1, Relaxed);
        self.hist_count.store(self.hist_count.load(Relaxed) + 1, Relaxed);
        self.hist_sum.store(self.hist_sum.load(Relaxed) + events, Relaxed);
        if events > self.hist_max.load(Relaxed) {
            self.hist_max.store(events, Relaxed);
        }
    }
}

/// A worker-private buffer of counter deltas: the hot path does plain
/// `u64` adds into it, and [`Tally::flush`] publishes them into the
/// worker's [`Shard`] at the engine's cadence (once per time step, every
/// few hundred activations, at worker exit) — never per event.
#[derive(Debug, Default)]
pub struct Tally([u64; Counter::COUNT]);

impl Tally {
    #[inline]
    pub fn add(&mut self, c: Counter, v: u64) {
        self.0[c as usize] += v;
    }

    #[inline]
    pub fn inc(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Adds the nanoseconds elapsed since `since` (a busy or idle span).
    #[inline]
    pub fn add_elapsed(&mut self, c: Counter, since: Instant) {
        self.add(c, since.elapsed().as_nanos() as u64);
    }

    /// Charges the span since `*mark` to `c` and restarts `mark` at the
    /// same clock read, so back-to-back spans neither gap nor overlap.
    #[inline]
    pub fn lap(&mut self, c: Counter, mark: &mut Instant) {
        let now = Instant::now();
        self.add(c, now.duration_since(*mark).as_nanos() as u64);
        *mark = now;
    }

    /// Publishes every pending delta into `shard` and zeroes the buffer.
    pub fn flush(&mut self, shard: &Shard) {
        for (c, delta) in Counter::ALL.iter().zip(&mut self.0) {
            if *delta != 0 {
                shard.add(*c, *delta);
                *delta = 0;
            }
        }
    }
}

/// Aggregated events-per-step histogram state at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket (non-cumulative) step counts; `buckets[HIST_BOUNDS.len()]`
    /// is the unbounded overflow bucket.
    pub buckets: Vec<u64>,
    /// Steps recorded.
    pub count: u64,
    /// Total events across all recorded steps.
    pub sum: u64,
    /// Largest single-step event count.
    pub max: u64,
}

impl HistSnapshot {
    fn empty() -> HistSnapshot {
        HistSnapshot { buckets: vec![0; HIST_SLOTS], ..Default::default() }
    }
}

/// A point-in-time aggregate of every shard, indexable by [`Counter`] and
/// [`Gauge`]. Plain data: safe to hold, ship, and diff.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: Vec<u64>,
    gauges: Vec<u64>,
    pub hist: HistSnapshot,
}

impl Snapshot {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }
}

/// The per-run registry: one [`Shard`] per worker plus a driver shard for
/// the coordinating thread (checkpoint commits, end-of-run folds, the
/// watchdog).
pub struct Registry {
    shards: Vec<Arc<Shard>>,
    start: Instant,
}

impl Registry {
    /// A registry for `workers` worker threads (plus the driver shard).
    pub fn new(workers: usize) -> Registry {
        let shards = (0..workers.max(1) + 1).map(|_| Arc::new(Shard::default())).collect();
        Registry { shards, start: Instant::now() }
    }

    pub fn num_workers(&self) -> usize {
        self.shards.len() - 1
    }

    /// Worker `i`'s shard. Out-of-range indexes fall back to the driver
    /// shard rather than panicking (a run resumed with a different thread
    /// count still publishes somewhere).
    pub fn worker(&self, i: usize) -> Arc<Shard> {
        self.shards.get(i).unwrap_or_else(|| self.driver_ref()).clone()
    }

    /// The coordinating thread's shard.
    pub fn driver(&self) -> Arc<Shard> {
        self.driver_ref().clone()
    }

    fn driver_ref(&self) -> &Arc<Shard> {
        self.shards.last().expect("registry always has a driver shard")
    }

    /// All shards, workers first, driver last (for labeled exposition).
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Label for shard `i` in the exposition (`"0"`, `"1"`, …, `"driver"`).
    pub fn shard_label(&self, i: usize) -> String {
        if i + 1 == self.shards.len() {
            "driver".to_string()
        } else {
            i.to_string()
        }
    }

    /// Nanoseconds since the registry was created (the run epoch).
    pub fn uptime_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Aggregate every shard with relaxed loads. Counters sum; gauges
    /// follow [`Gauge::agg`]; histograms merge bucket-wise.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters = vec![0u64; Counter::COUNT];
        let mut gauges = vec![0u64; Gauge::COUNT];
        let mut hist = HistSnapshot::empty();
        for shard in &self.shards {
            for (i, slot) in counters.iter_mut().enumerate() {
                *slot += shard.counters[i].load(Relaxed);
            }
            for (g, slot) in Gauge::ALL.iter().zip(gauges.iter_mut()) {
                let v = shard.gauges[*g as usize].load(Relaxed);
                *slot = match g.agg() {
                    GaugeAgg::Sum => *slot + v,
                    GaugeAgg::Max => (*slot).max(v),
                };
            }
            for (i, b) in hist.buckets.iter_mut().enumerate() {
                *b += shard.hist_buckets[i].load(Relaxed);
            }
            hist.count += shard.hist_count.load(Relaxed);
            hist.sum += shard.hist_sum.load(Relaxed);
            hist.max = hist.max.max(shard.hist_max.load(Relaxed));
        }
        Snapshot { counters, gauges, hist }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("workers", &self.num_workers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_indexes_match_all_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} out of order in Counter::ALL");
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i, "{g:?} out of order in Gauge::ALL");
        }
    }

    #[test]
    fn metric_names_are_unique_and_namespaced() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        for n in &names {
            assert!(n.starts_with("parsim_"), "{n} must live under parsim_");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric name");
        for c in Counter::ALL {
            assert!(c.name().ends_with("_total"), "{} must end in _total", c.name());
        }
    }

    #[test]
    fn shard_counters_sum_across_workers() {
        let reg = Registry::new(2);
        reg.worker(0).add(Counter::EventsProcessed, 10);
        reg.worker(1).add(Counter::EventsProcessed, 5);
        reg.driver().add(Counter::EventsProcessed, 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::EventsProcessed), 16);
        assert_eq!(snap.counter(Counter::Evaluations), 0);
    }

    #[test]
    fn tally_flush_publishes_deltas_once() {
        let reg = Registry::new(1);
        let shard = reg.worker(0);
        let mut tally = Tally::default();
        tally.inc(Counter::Evaluations);
        tally.add(Counter::BusyNs, 40);
        tally.flush(&shard);
        tally.flush(&shard);
        tally.inc(Counter::Evaluations);
        tally.flush(&shard);
        assert_eq!(shard.counter(Counter::Evaluations), 2);
        assert_eq!(shard.counter(Counter::BusyNs), 40);
        assert_eq!(shard.counter(Counter::EventsProcessed), 0);
    }

    #[test]
    fn gauge_aggregation_by_kind() {
        let reg = Registry::new(2);
        reg.worker(0).set_gauge(Gauge::QueueDepth, 3);
        reg.worker(1).set_gauge(Gauge::QueueDepth, 4);
        reg.worker(0).set_gauge(Gauge::SimTime, 100);
        reg.worker(1).set_gauge(Gauge::SimTime, 90);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge(Gauge::QueueDepth), 7, "depths sum");
        assert_eq!(snap.gauge(Gauge::SimTime), 100, "frontiers max");
    }

    #[test]
    fn gauge_max_ratchets() {
        let reg = Registry::new(1);
        let s = reg.worker(0);
        s.gauge_max(Gauge::SimTime, 5);
        s.gauge_max(Gauge::SimTime, 3);
        assert_eq!(s.gauge(Gauge::SimTime), 5);
    }

    #[test]
    fn histogram_buckets_match_core_bounds() {
        let reg = Registry::new(1);
        let s = reg.worker(0);
        s.record_step_events(1);
        s.record_step_events(3);
        s.record_step_events(5000);
        let h = reg.snapshot().hist;
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 5004);
        assert_eq!(h.max, 5000);
        assert_eq!(h.buckets[0], 1, "1 lands in <=1");
        assert_eq!(h.buckets[2], 1, "3 lands in <=5");
        assert_eq!(h.buckets[HIST_BOUNDS.len()], 1, "5000 overflows");
    }

    #[test]
    fn out_of_range_worker_falls_back_to_driver() {
        let reg = Registry::new(1);
        reg.worker(99).add(Counter::Evaluations, 2);
        assert_eq!(reg.driver().counter(Counter::Evaluations), 2);
    }
}
