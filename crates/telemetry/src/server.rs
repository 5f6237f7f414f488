//! Service-level metrics for the multi-tenant simulation server.
//!
//! The engine [`Registry`](crate::Registry) is deliberately closed: its
//! [`Counter`](crate::Counter) set is what `parsim-core`'s `Metrics` view
//! is built from, one run at a time, so job-queue and cache traffic
//! cannot ride there. This module is the open half: a small
//! **multi-writer** registry (`fetch_add`, not the engine shards'
//! single-writer load/store pairs — submissions arrive on arbitrary
//! transport threads while the scheduler drains on its own) covering the
//! server's job lifecycle, compiled-program cache, and lane packing.
//!
//! Everything lives under the `parsim_server_` namespace and renders
//! through the same text-format 0.0.4 conventions [`prometheus::render`]
//! uses, so [`prometheus::lint`] accepts the combined exposition.
//!
//! [`prometheus::render`]: crate::prometheus::render
//! [`prometheus::lint`]: crate::prometheus::lint

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Monotonic server counters. Array index == discriminant; keep `ALL` in
/// declaration order (same convention as the engine registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ServerCounter {
    /// Jobs accepted into the queue.
    JobsSubmitted,
    /// Jobs that finished with a usable result.
    JobsCompleted,
    /// Jobs that finished with a `SimError`.
    JobsFailed,
    /// Jobs cancelled by their tenant before completion.
    JobsCancelled,
    /// Submissions refused because the tenant was at its quota.
    QuotaRejections,
    /// Jobs failed because their deadline expired (queued or running).
    DeadlineExpirations,
    /// Compiled passes that found the compiled program in the cache.
    CacheHits,
    /// Compiled passes that had to compile the netlist first.
    CacheMisses,
    /// Netlist-store entries (netlist and program) evicted by the LRU bound.
    CacheEvictions,
    /// Text submissions that found their netlist already parsed in the store.
    NetlistHits,
    /// Text submissions that parsed and digested their netlist.
    NetlistMisses,
    /// Passes executed on either engine (each serves up to
    /// `max_lanes_per_batch` jobs).
    BatchPasses,
    /// Jobs packed into those passes (sum of per-pass occupancy).
    LanesPacked,
    /// Checkpoint segments executed across all passes.
    Segments,
    /// Passes run on the event-driven engine rather than the compiled batch
    /// kernel (a subset of `BatchPasses`).
    EventDrivenPasses,
}

impl ServerCounter {
    pub const ALL: [ServerCounter; 15] = [
        ServerCounter::JobsSubmitted,
        ServerCounter::JobsCompleted,
        ServerCounter::JobsFailed,
        ServerCounter::JobsCancelled,
        ServerCounter::QuotaRejections,
        ServerCounter::DeadlineExpirations,
        ServerCounter::CacheHits,
        ServerCounter::CacheMisses,
        ServerCounter::CacheEvictions,
        ServerCounter::NetlistHits,
        ServerCounter::NetlistMisses,
        ServerCounter::BatchPasses,
        ServerCounter::LanesPacked,
        ServerCounter::Segments,
        ServerCounter::EventDrivenPasses,
    ];
    pub const COUNT: usize = ServerCounter::ALL.len();

    pub fn name(self) -> &'static str {
        match self {
            ServerCounter::JobsSubmitted => "parsim_server_jobs_submitted_total",
            ServerCounter::JobsCompleted => "parsim_server_jobs_completed_total",
            ServerCounter::JobsFailed => "parsim_server_jobs_failed_total",
            ServerCounter::JobsCancelled => "parsim_server_jobs_cancelled_total",
            ServerCounter::QuotaRejections => "parsim_server_quota_rejections_total",
            ServerCounter::DeadlineExpirations => "parsim_server_deadline_expirations_total",
            ServerCounter::CacheHits => "parsim_server_cache_hits_total",
            ServerCounter::CacheMisses => "parsim_server_cache_misses_total",
            ServerCounter::CacheEvictions => "parsim_server_cache_evictions_total",
            ServerCounter::NetlistHits => "parsim_server_netlist_hits_total",
            ServerCounter::NetlistMisses => "parsim_server_netlist_misses_total",
            ServerCounter::BatchPasses => "parsim_server_batch_passes_total",
            ServerCounter::LanesPacked => "parsim_server_lanes_packed_total",
            ServerCounter::Segments => "parsim_server_segments_total",
            ServerCounter::EventDrivenPasses => "parsim_server_event_driven_passes_total",
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            ServerCounter::JobsSubmitted => "Jobs accepted into the queue",
            ServerCounter::JobsCompleted => "Jobs finished with a usable result",
            ServerCounter::JobsFailed => "Jobs finished with a SimError",
            ServerCounter::JobsCancelled => "Jobs cancelled by their tenant",
            ServerCounter::QuotaRejections => "Submissions refused at the tenant quota",
            ServerCounter::DeadlineExpirations => "Jobs failed by deadline expiry",
            ServerCounter::CacheHits => "Compiled passes served from the program cache",
            ServerCounter::CacheMisses => "Compiled passes that compiled the netlist",
            ServerCounter::CacheEvictions => "Netlist-store entries evicted by the LRU bound",
            ServerCounter::NetlistHits => "Text submissions served an already parsed netlist",
            ServerCounter::NetlistMisses => "Text submissions that parsed their netlist",
            ServerCounter::BatchPasses => "Passes executed on either engine",
            ServerCounter::LanesPacked => "Jobs packed into passes",
            ServerCounter::Segments => "Checkpoint segments executed in passes",
            ServerCounter::EventDrivenPasses => {
                "Passes run on the event-driven engine, never lowering the netlist"
            }
        }
    }
}

/// Last-value server gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ServerGauge {
    /// Jobs waiting in digest bins.
    QueueDepth,
    /// Jobs currently inside a batch pass.
    JobsRunning,
    /// Compiled programs resident in the cache.
    CachedPrograms,
    /// Occupancy (jobs) of the most recent batch pass.
    LastBatchLanes,
    /// Job records the server holds: queued, running and retained finished.
    JobsRetained,
}

impl ServerGauge {
    pub const ALL: [ServerGauge; 5] = [
        ServerGauge::QueueDepth,
        ServerGauge::JobsRunning,
        ServerGauge::CachedPrograms,
        ServerGauge::LastBatchLanes,
        ServerGauge::JobsRetained,
    ];
    pub const COUNT: usize = ServerGauge::ALL.len();

    pub fn name(self) -> &'static str {
        match self {
            ServerGauge::QueueDepth => "parsim_server_queue_depth",
            ServerGauge::JobsRunning => "parsim_server_jobs_running",
            ServerGauge::CachedPrograms => "parsim_server_cached_programs",
            ServerGauge::LastBatchLanes => "parsim_server_last_batch_lanes",
            ServerGauge::JobsRetained => "parsim_server_jobs_retained",
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            ServerGauge::QueueDepth => "Jobs waiting in digest bins",
            ServerGauge::JobsRunning => "Jobs currently inside a batch pass",
            ServerGauge::CachedPrograms => "Compiled programs resident in the cache",
            ServerGauge::LastBatchLanes => "Job occupancy of the most recent batch pass",
            ServerGauge::JobsRetained => "Job records held: queued, running and retained finished",
        }
    }
}

/// The server's process-lifetime metrics registry.
///
/// Unlike the engine's sharded single-writer registry, this one is tiny
/// and contended by design: any thread may bump any counter, so slots use
/// `fetch_add`/`store` read-modify-writes. Server traffic is measured in
/// jobs per second, not events per nanosecond — contention is irrelevant.
#[derive(Debug, Default)]
pub struct ServerRegistry {
    counters: [AtomicU64; ServerCounter::COUNT],
    gauges: [AtomicU64; ServerGauge::COUNT],
}

impl ServerRegistry {
    pub fn new() -> ServerRegistry {
        ServerRegistry::default()
    }

    #[inline]
    pub fn add(&self, c: ServerCounter, v: u64) {
        self.counters[c as usize].fetch_add(v, Relaxed);
    }

    #[inline]
    pub fn inc(&self, c: ServerCounter) {
        self.add(c, 1);
    }

    #[inline]
    pub fn counter(&self, c: ServerCounter) -> u64 {
        self.counters[c as usize].load(Relaxed)
    }

    #[inline]
    pub fn set_gauge(&self, g: ServerGauge, v: u64) {
        self.gauges[g as usize].store(v, Relaxed);
    }

    #[inline]
    pub fn gauge(&self, g: ServerGauge) -> u64 {
        self.gauges[g as usize].load(Relaxed)
    }

    /// Renders the registry as Prometheus text-format 0.0.4 (no labels —
    /// the server is one process, not a shard set). The output passes
    /// [`crate::prometheus::lint`].
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4 * 1024);
        for c in ServerCounter::ALL {
            out.push_str(&format!("# HELP {} {}\n", c.name(), c.help()));
            out.push_str(&format!("# TYPE {} counter\n", c.name()));
            out.push_str(&format!("{} {}\n", c.name(), self.counter(c)));
        }
        for g in ServerGauge::ALL {
            out.push_str(&format!("# HELP {} {}\n", g.name(), g.help()));
            out.push_str(&format!("# TYPE {} gauge\n", g.name()));
            out.push_str(&format!("{} {}\n", g.name(), self.gauge(g)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prometheus::lint;

    #[test]
    fn enum_indexes_match_all_order() {
        for (i, c) in ServerCounter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} out of order in ServerCounter::ALL");
        }
        for (i, g) in ServerGauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i, "{g:?} out of order in ServerGauge::ALL");
        }
    }

    #[test]
    fn names_are_unique_namespaced_and_conventional() {
        let mut names: Vec<&str> = ServerCounter::ALL.iter().map(|c| c.name()).collect();
        names.extend(ServerGauge::ALL.iter().map(|g| g.name()));
        for n in &names {
            assert!(n.starts_with("parsim_server_"), "{n} must live under parsim_server_");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric name");
        for c in ServerCounter::ALL {
            assert!(c.name().ends_with("_total"), "{} must end in _total", c.name());
        }
    }

    #[test]
    fn multi_writer_counters_accumulate() {
        let reg = std::sync::Arc::new(ServerRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        reg.inc(ServerCounter::JobsSubmitted);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter(ServerCounter::JobsSubmitted), 4000);
    }

    #[test]
    fn render_passes_lint_fresh_and_populated() {
        let reg = ServerRegistry::new();
        lint(&reg.render()).expect("fresh registry lints clean");
        reg.add(ServerCounter::BatchPasses, 2);
        reg.add(ServerCounter::LanesPacked, 3);
        reg.inc(ServerCounter::EventDrivenPasses);
        reg.set_gauge(ServerGauge::LastBatchLanes, 2);
        let text = reg.render();
        lint(&text).expect("populated registry lints clean");
        assert!(text.contains("parsim_server_batch_passes_total 2"));
        assert!(text.contains("# TYPE parsim_server_event_driven_passes_total counter"));
        assert!(text.contains("parsim_server_event_driven_passes_total 1"));
        assert!(text.contains("parsim_server_last_batch_lanes 2"));
    }
}
