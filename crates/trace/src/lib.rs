//! Lock-free per-worker event tracing for the parsim engines.
//!
//! Each worker thread owns a [`WorkerTracer`]: a pre-allocated ring of
//! fixed-size [`TraceEvent`] records stamped with a monotonic tick derived
//! from a shared [`std::time::Instant`] epoch. Because every ring is owned
//! exclusively by its worker there are no locks and no atomics on the hot
//! path, and because the ring is sized up front there is no allocation
//! either — when it fills, the oldest records are overwritten and counted
//! as dropped. Buffers are drained only once, at run end, into a [`Trace`].
//!
//! Recording is gated behind the `trace` cargo feature. With the feature
//! disabled, [`WorkerTracer`] is a zero-sized type and every recording
//! method is an `#[inline]` empty body, so the hooks threaded through the
//! engines compile to nothing. The data model and the Chrome/Perfetto
//! exporter ([`Trace::write_chrome_json`]) are always compiled, so
//! `Option<Trace>` fields work identically in both builds (the option is
//! just always `None` without the feature). The run report that analyzes a
//! trace next to the engine's counters is `parsim-core`'s `RunReport`.

pub mod chrome;
pub mod json;

use std::time::Instant;

/// True when this build can actually record events (`trace` cargo feature).
///
/// Callers that require a trace (e.g. `psim --trace`) should check this and
/// fail loudly instead of silently producing an empty file.
pub const fn recording_compiled() -> bool {
    cfg!(feature = "trace")
}

/// Default ring capacity per worker, in events (16 bytes each → 1 MiB).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Run-time tracing configuration, passed via `SimConfig::with_trace`.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring capacity per worker, in events. When a worker records more than
    /// this, the oldest events are overwritten and counted as dropped.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: DEFAULT_CAPACITY,
        }
    }
}

impl TraceConfig {
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig {
            capacity: capacity.max(16),
        }
    }
}

/// What happened. One byte; the meaning of `arg` depends on the kind.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Span: chaotic engine replaying pending input events into an element
    /// and evaluating it. `arg` = element id.
    ActivationReplay = 0,
    /// Span: one simulated time step (seq engine). `arg` = low 32 bits of
    /// the simulated time.
    TimeStep = 1,
    /// Span: compiled-mode apply phase (commit pending node values).
    PhaseApply = 2,
    /// Span: compiled-mode evaluate phase (run level blocks).
    PhaseEval = 3,
    /// Span: sync engine phase A (apply node updates, schedule elements).
    PhaseNodes = 4,
    /// Span: sync engine phase B (evaluate elements, emit node updates).
    PhaseElems = 5,
    /// Span: waiting at a barrier. `arg` = barrier index within the loop.
    BarrierWait = 6,
    /// Instant: an event was inserted into a queue/mailbox. `arg` = node id.
    EventInsert = 7,
    /// Instant: a batch was pushed to another worker's grid column.
    /// `arg` = destination worker.
    GridSend = 8,
    /// Instant: a batch was received from the grid. `arg` = source peer.
    GridRecv = 9,
    /// Instant: an activation was served from the worker-local deque.
    /// `arg` = element id.
    LocalHit = 10,
    // 11 is retired and stays unused, so recorded kinds keep their values.
    /// Instant: the idle backoff escalated to an OS park. `arg` = park count.
    BackoffPark = 12,
    /// Instant: watchdog heartbeat from an idle worker.
    Heartbeat = 13,
    /// Instant: one element evaluation. `arg` = element id.
    Eval = 14,
    /// Counter: local queue occupancy sampled at an activation boundary.
    /// `arg` = depth.
    QueueDepth = 15,
    /// Instant: compiled-mode level block evaluated. `arg` = block id.
    BlockRun = 16,
    /// Instant: compiled-mode level block skipped by activity gating.
    /// `arg` = block id.
    BlockSkip = 17,
    /// Instant: sync engine calendar buffer freshly allocated (no drained
    /// buffer to reuse). `arg` = worker.
    PoolMiss = 18,
    /// Instant: compiled mode jumped from a settled circuit to the next
    /// stimulus. `arg` = steps jumped over (saturating); those steps have
    /// no apply/eval spans.
    QuietJump = 19,
}

impl EventKind {
    /// Stable human-readable name, used by both consumers.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ActivationReplay => "activation_replay",
            EventKind::TimeStep => "time_step",
            EventKind::PhaseApply => "phase_apply",
            EventKind::PhaseEval => "phase_eval",
            EventKind::PhaseNodes => "phase_nodes",
            EventKind::PhaseElems => "phase_elems",
            EventKind::BarrierWait => "barrier_wait",
            EventKind::EventInsert => "event_insert",
            EventKind::GridSend => "grid_send",
            EventKind::GridRecv => "grid_recv",
            EventKind::LocalHit => "local_hit",
            EventKind::BackoffPark => "backoff_park",
            EventKind::Heartbeat => "heartbeat",
            EventKind::Eval => "eval",
            EventKind::QueueDepth => "queue_depth",
            EventKind::BlockRun => "block_run",
            EventKind::BlockSkip => "block_skip",
            EventKind::PoolMiss => "pool_miss",
            EventKind::QuietJump => "quiet_jump",
        }
    }

    /// Kinds recorded as begin/end span pairs (everything else is an
    /// instant or a counter sample).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::ActivationReplay
                | EventKind::TimeStep
                | EventKind::PhaseApply
                | EventKind::PhaseEval
                | EventKind::PhaseNodes
                | EventKind::PhaseElems
                | EventKind::BarrierWait
        )
    }

    /// Span kinds that count as useful work (for utilization); barrier
    /// waits are accounted separately.
    pub fn is_work_span(self) -> bool {
        self.is_span() && self != EventKind::BarrierWait
    }
}

/// Whether a record opens a span, closes one, or stands alone.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    Begin = 0,
    End = 1,
    Instant = 2,
    Counter = 3,
}

/// One fixed-size (16-byte) trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the run's shared epoch.
    pub tick_ns: u64,
    /// Kind-dependent payload (element id, worker index, depth, ...).
    pub arg: u32,
    pub kind: EventKind,
    pub mark: Mark,
}

/// Per-run handle: creates one [`WorkerTracer`] per worker against a shared
/// epoch, and reassembles their drained rings into a [`Trace`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    // Both only reach recorders when the `trace` feature compiles them in.
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    capacity: usize,
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    epoch: Instant,
}

impl Tracer {
    /// `config = None` (or a build without the `trace` feature) yields a
    /// disabled tracer whose workers record nothing and whose
    /// [`Tracer::finish`] returns `None`.
    pub fn new(config: Option<&TraceConfig>) -> Tracer {
        let enabled = recording_compiled() && config.is_some();
        Tracer {
            enabled,
            capacity: config
                .map(|c| c.capacity.max(16))
                .unwrap_or(DEFAULT_CAPACITY),
            epoch: Instant::now(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Build the tracer for one worker. The returned value is moved into the
    /// worker thread and owned exclusively by it for the whole run.
    pub fn worker(&self, index: usize) -> WorkerTracer {
        let _ = index;
        #[cfg(feature = "trace")]
        {
            if self.enabled {
                return WorkerTracer {
                    rec: Some(Box::new(Recorder {
                        worker: index as u32,
                        epoch: self.epoch,
                        buf: Vec::with_capacity(self.capacity),
                        capacity: self.capacity,
                        total: 0,
                    })),
                };
            }
        }
        WorkerTracer::default()
    }

    /// Drain the workers' rings. Returns `None` when tracing was disabled.
    /// Workers lost to a panic may simply be absent from `workers`.
    pub fn finish<I>(self, workers: I) -> Option<Trace>
    where
        I: IntoIterator<Item = WorkerTracer>,
    {
        if !self.enabled {
            return None;
        }
        #[cfg(feature = "trace")]
        {
            let mut out: Vec<WorkerTrace> = workers
                .into_iter()
                .filter_map(|w| w.rec.map(|r| r.into_trace()))
                .collect();
            out.sort_by_key(|w| w.worker);
            Some(Trace { workers: out })
        }
        #[cfg(not(feature = "trace"))]
        {
            let _ = workers;
            None
        }
    }
}

#[cfg(feature = "trace")]
#[derive(Debug, Clone)]
struct Recorder {
    worker: u32,
    epoch: Instant,
    buf: Vec<TraceEvent>,
    capacity: usize,
    total: u64,
}

#[cfg(feature = "trace")]
impl Recorder {
    #[inline]
    fn push(&mut self, kind: EventKind, mark: Mark, arg: u32) {
        let ev = TraceEvent {
            tick_ns: self.epoch.elapsed().as_nanos() as u64,
            arg,
            kind,
            mark,
        };
        let idx = (self.total % self.capacity as u64) as usize;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[idx] = ev;
        }
        self.total += 1;
    }

    fn into_trace(self) -> WorkerTrace {
        let dropped = self.total.saturating_sub(self.buf.len() as u64);
        let mut events = self.buf;
        if dropped > 0 {
            // The ring wrapped: rotate so the oldest surviving event is first.
            let split = (self.total % self.capacity as u64) as usize;
            events.rotate_left(split);
        }
        WorkerTrace {
            worker: self.worker,
            events,
            dropped,
        }
    }
}

/// A worker thread's exclusive recording handle.
///
/// With the `trace` feature disabled this is a zero-sized type and every
/// method body is empty; the compiler removes the calls entirely.
#[derive(Debug, Default, Clone)]
pub struct WorkerTracer {
    #[cfg(feature = "trace")]
    rec: Option<Box<Recorder>>,
}

impl WorkerTracer {
    /// A tracer that records nothing, for paths that need a placeholder.
    pub fn disabled() -> WorkerTracer {
        WorkerTracer::default()
    }

    /// True when this handle actually records. Lets hot paths skip computing
    /// an expensive `arg` (the record calls themselves are already cheap).
    #[inline]
    pub fn is_active(&self) -> bool {
        #[cfg(feature = "trace")]
        {
            self.rec.is_some()
        }
        #[cfg(not(feature = "trace"))]
        {
            false
        }
    }

    #[inline]
    pub fn begin(&mut self, kind: EventKind, arg: u32) {
        let _ = (kind, arg);
        #[cfg(feature = "trace")]
        if let Some(r) = self.rec.as_deref_mut() {
            r.push(kind, Mark::Begin, arg);
        }
    }

    #[inline]
    pub fn end(&mut self, kind: EventKind) {
        let _ = kind;
        #[cfg(feature = "trace")]
        if let Some(r) = self.rec.as_deref_mut() {
            r.push(kind, Mark::End, 0);
        }
    }

    #[inline]
    pub fn instant(&mut self, kind: EventKind, arg: u32) {
        let _ = (kind, arg);
        #[cfg(feature = "trace")]
        if let Some(r) = self.rec.as_deref_mut() {
            r.push(kind, Mark::Instant, arg);
        }
    }

    /// Record a counter sample (e.g. queue depth at an activation boundary).
    #[inline]
    pub fn counter(&mut self, kind: EventKind, value: u32) {
        let _ = (kind, value);
        #[cfg(feature = "trace")]
        if let Some(r) = self.rec.as_deref_mut() {
            r.push(kind, Mark::Counter, value);
        }
    }
}

/// One worker's drained ring, oldest event first.
#[derive(Debug, Clone, Default)]
pub struct WorkerTrace {
    pub worker: u32,
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring filled up.
    pub dropped: u64,
}

impl WorkerTrace {
    /// Number of completed (begin + end both survived) spans.
    pub fn span_count(&self) -> usize {
        let mut open: std::collections::HashMap<EventKind, usize> =
            std::collections::HashMap::new();
        let mut done = 0usize;
        for ev in &self.events {
            match ev.mark {
                Mark::Begin => *open.entry(ev.kind).or_insert(0) += 1,
                Mark::End => {
                    if let Some(n) = open.get_mut(&ev.kind) {
                        if *n > 0 {
                            *n -= 1;
                            done += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        done
    }
}

/// The full drained trace of one run: one [`WorkerTrace`] per worker,
/// sorted by worker index.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub workers: Vec<WorkerTrace>,
}

impl Trace {
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    pub fn num_events(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    pub fn dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// Latest tick across all workers (the run's observed wall span in ns,
    /// since the epoch is taken at tracer creation).
    pub fn last_tick_ns(&self) -> u64 {
        self.workers
            .iter()
            .flat_map(|w| w.events.last())
            .map(|e| e.tick_ns)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "trace")]
    fn cfg_small(cap: usize) -> TraceConfig {
        TraceConfig::with_capacity(cap)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(None);
        assert!(!t.is_enabled());
        let mut w = t.worker(0);
        w.begin(EventKind::TimeStep, 1);
        w.end(EventKind::TimeStep);
        w.instant(EventKind::Eval, 2);
        assert!(t.finish(vec![w]).is_none());
    }

    #[cfg(feature = "trace")]
    #[test]
    fn records_in_order_with_monotonic_ticks() {
        let t = Tracer::new(Some(&cfg_small(1024)));
        assert!(t.is_enabled());
        let mut w = t.worker(3);
        assert!(w.is_active());
        w.begin(EventKind::ActivationReplay, 7);
        w.instant(EventKind::EventInsert, 9);
        w.end(EventKind::ActivationReplay);
        let trace = t.finish(vec![w]).expect("enabled tracer yields a trace");
        assert_eq!(trace.num_workers(), 1);
        let wt = &trace.workers[0];
        assert_eq!(wt.worker, 3);
        assert_eq!(wt.dropped, 0);
        assert_eq!(wt.events.len(), 3);
        assert_eq!(wt.events[0].kind, EventKind::ActivationReplay);
        assert_eq!(wt.events[0].mark, Mark::Begin);
        assert_eq!(wt.events[0].arg, 7);
        assert_eq!(wt.events[1].kind, EventKind::EventInsert);
        assert_eq!(wt.events[2].mark, Mark::End);
        for pair in wt.events.windows(2) {
            assert!(pair[0].tick_ns <= pair[1].tick_ns);
        }
        assert_eq!(wt.span_count(), 1);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn ring_wraps_and_counts_dropped() {
        let t = Tracer::new(Some(&cfg_small(16)));
        let mut w = t.worker(0);
        for i in 0..40u32 {
            w.instant(EventKind::Eval, i);
        }
        let trace = t.finish(vec![w]).unwrap();
        let wt = &trace.workers[0];
        assert_eq!(wt.events.len(), 16);
        assert_eq!(wt.dropped, 24);
        // Oldest surviving event first, newest last.
        let args: Vec<u32> = wt.events.iter().map(|e| e.arg).collect();
        let expect: Vec<u32> = (24..40).collect();
        assert_eq!(args, expect);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn workers_sorted_and_panicked_workers_tolerated() {
        let t = Tracer::new(Some(&cfg_small(64)));
        let mut a = t.worker(2);
        let mut b = t.worker(0);
        a.instant(EventKind::Heartbeat, 0);
        b.instant(EventKind::Heartbeat, 0);
        // Worker 1 "panicked": its tracer is never returned.
        let trace = t.finish(vec![a, b]).unwrap();
        let ids: Vec<u32> = trace.workers.iter().map(|w| w.worker).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn event_record_is_16_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 16);
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn worker_tracer_is_zero_sized_without_feature() {
        assert_eq!(std::mem::size_of::<WorkerTracer>(), 0);
        let t = Tracer::new(Some(&TraceConfig::default()));
        assert!(!t.is_enabled(), "recording requires the trace feature");
        let mut w = t.worker(0);
        w.begin(EventKind::TimeStep, 0);
        w.end(EventKind::TimeStep);
        assert!(t.finish(vec![w]).is_none());
    }
}
