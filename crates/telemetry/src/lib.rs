//! Always-on live telemetry for the parsim engines.
//!
//! PR 4's tracer is post-mortem: per-worker rings drain only at run end,
//! so a long simulation is a black box while it runs (and recording costs
//! ~2.3x, which is why it hides behind the `trace` feature). This crate is
//! the complementary substrate: an **always-compiled, always-on** metrics
//! registry cheap enough to leave enabled on every run.
//!
//! - [`Registry`]: one cache-padded [`Shard`] per worker thread plus one
//!   driver shard. Every shard is single-writer: the owning thread bumps
//!   its counters with relaxed load/store pairs (no `lock` prefix, no
//!   sharing), and readers aggregate across shards with relaxed loads at
//!   snapshot time. Counters and gauges are fixed enums ([`Counter`],
//!   [`Gauge`]) so a publish is an array index away — no hashing, no
//!   allocation, no branches beyond the bounds check the optimizer drops.
//! - [`Sampler`]: rides the watchdog/heartbeat monitor thread (the
//!   monitor in `parsim-core`'s `exec` module), snapshotting the registry
//!   on a configurable period into a bounded drop-oldest [`SampleRing`] —
//!   a flight recorder whose contents export as the time-series section
//!   of `parsim-core`'s `RunReport` (its `report` module) and as an
//!   endpoint-shaped JSON document.
//! - Exposition: [`prometheus::render`] emits text-format 0.0.4 with
//!   per-worker labels, [`prometheus::lint`] is a vendored, registry-free
//!   format check for CI, and [`series::render_json`] writes the sample
//!   ring through `parsim_trace::json`'s NaN-safe helpers.
//!
//! The registry is the only place a run's numbers are counted. Workers
//! keep a private [`Tally`] of deltas and flush it into their shard once
//! per time step (every 256 activations in the chaotic engine, which has
//! no step) and at exit; `parsim-core`'s end-of-run [`Metrics`] is a typed
//! view built from the final snapshot and the per-worker shards, so the
//! live exposition and the post-run report cannot disagree.
//!
//! [`Metrics`]: https://docs.rs/parsim-core

pub mod prometheus;
pub mod registry;
pub mod sampler;
pub mod series;
pub mod server;

pub use registry::{
    Counter, Gauge, HistSnapshot, Registry, Shard, Snapshot, Tally, HIST_BOUNDS,
};
pub use sampler::{Sample, SampleRing, Sampler, DEFAULT_RING_CAPACITY};
pub use series::RunTelemetry;
pub use server::{ServerCounter, ServerGauge, ServerRegistry};

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Everything one run's publishers share: the shard registry and, when
/// sampling is configured, the bounded sample ring.
///
/// Created once per run by the engine entry point (or by the checkpoint
/// driver, which threads the same context through every segment so
/// counters stay cumulative across restarts) and handed to workers, the
/// watchdog, and the checkpoint store.
#[derive(Clone)]
pub struct TelemetryCtx {
    pub registry: Arc<Registry>,
    pub ring: Option<Arc<SampleRing>>,
    /// Sampling period, when in-run sampling is on.
    pub every: Option<Duration>,
}

impl TelemetryCtx {
    /// Context for a run with `workers` worker threads. `sample_every`
    /// arms the in-run sampler with a ring of `capacity` samples.
    pub fn for_run(
        workers: usize,
        sample_every: Option<Duration>,
        capacity: usize,
    ) -> TelemetryCtx {
        TelemetryCtx {
            registry: Arc::new(Registry::new(workers)),
            ring: sample_every.map(|_| Arc::new(SampleRing::new(capacity))),
            every: sample_every,
        }
    }

    /// The sampler for the monitor thread, when sampling is configured.
    pub fn sampler(&self) -> Option<Sampler> {
        match (&self.ring, self.every) {
            (Some(ring), Some(every)) => {
                Some(Sampler::new(self.registry.clone(), ring.clone(), every))
            }
            _ => None,
        }
    }

    /// Drains the flight recorder and takes the final authoritative
    /// snapshot (appended as the last sample when sampling was on, so the
    /// series always ends on the exact end-of-run totals).
    pub fn finish(&self) -> RunTelemetry {
        let finals = self.registry.snapshot();
        let mut samples = match &self.ring {
            Some(ring) => ring.drain(),
            None => Vec::new(),
        };
        if self.ring.is_some() {
            samples.push(Sample {
                t_ns: self.registry.uptime_ns(),
                snap: finals.clone(),
            });
        }
        RunTelemetry {
            workers: self.registry.num_workers(),
            uptime_ns: self.registry.uptime_ns(),
            sampled_every_ns: self.every.map(|d| d.as_nanos() as u64),
            samples,
            finals,
        }
    }
}

impl fmt::Debug for TelemetryCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryCtx")
            .field("workers", &self.registry.num_workers())
            .field("sampling", &self.every)
            .finish()
    }
}

/// A shared slot a running engine installs its [`TelemetryCtx`] into, so
/// an outside observer (e.g. `psim --live-stats`) can watch the registry
/// mid-run. Create one, clone it into `SimConfig`, and poll [`Hub::get`]
/// from any thread.
#[derive(Default)]
pub struct Hub {
    slot: Mutex<Option<TelemetryCtx>>,
}

impl Hub {
    pub fn new() -> Arc<Hub> {
        Arc::new(Hub::default())
    }

    /// Called by the engine at run start (and by each checkpoint segment;
    /// re-installing the same context is idempotent).
    pub fn install(&self, ctx: TelemetryCtx) {
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(ctx);
    }

    /// The currently-running (or most recent) run's telemetry context.
    pub fn get(&self) -> Option<TelemetryCtx> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl fmt::Debug for Hub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hub({})", if self.get().is_some() { "installed" } else { "empty" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_without_sampling_has_no_ring() {
        let ctx = TelemetryCtx::for_run(2, None, 16);
        assert!(ctx.ring.is_none());
        assert!(ctx.sampler().is_none());
        let run = ctx.finish();
        assert!(run.samples.is_empty());
        assert_eq!(run.workers, 2);
    }

    #[test]
    fn finish_appends_final_sample_when_sampling() {
        let ctx = TelemetryCtx::for_run(1, Some(Duration::from_millis(5)), 16);
        ctx.registry.worker(0).add(Counter::EventsProcessed, 42);
        let run = ctx.finish();
        assert_eq!(run.samples.len(), 1, "final sample always appended");
        assert_eq!(run.samples[0].snap.counter(Counter::EventsProcessed), 42);
        assert_eq!(run.finals.counter(Counter::EventsProcessed), 42);
    }

    #[test]
    fn hub_install_and_get() {
        let hub = Hub::new();
        assert!(hub.get().is_none());
        let ctx = TelemetryCtx::for_run(1, None, 16);
        ctx.registry.worker(0).add(Counter::Evaluations, 7);
        hub.install(ctx);
        let live = hub.get().expect("installed");
        assert_eq!(live.registry.snapshot().counter(Counter::Evaluations), 7);
    }
}
