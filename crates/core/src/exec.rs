//! The worker runner every parallel engine shares, and the failure
//! containment it owns.
//!
//! [`run_workers`] starts one scoped thread per worker input and runs each
//! under `catch_unwind`. A panicking worker records itself in the run's
//! [`Containment`], cancels the run and poisons the engine's barrier (if it
//! has one), so the driver always joins every thread and returns a
//! structured error.
//!
//! The monitor is an optional thread in the same scope, started when the
//! config sets a deadline or stall timeout — or the telemetry context arms
//! the sampler, which rides the same thread ([`monitored`]). It samples the
//! workers' heartbeats: if the wall-time deadline passes, or no counter
//! moves for the stall timeout, it cancels the run, poisons the barrier and
//! records which trigger fired. The runner turns that verdict plus the
//! engine's post-join state into [`SimError::Stalled`] or
//! [`SimError::DeadlineExceeded`]. On every wakeup the monitor also ticks
//! the in-run telemetry [`Sampler`], which decides whether its period
//! elapsed and snapshots the registry into the flight-recorder ring.
//!
//! The deadline is measured from the run's epoch, the creation of its
//! telemetry [`Registry`], not from the start of the segment or lane chunk
//! at hand: a checkpointed run and a chunked batch have one budget.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::{Scope, Thread};
use std::time::{Duration, Instant};

use parsim_queue::{CachePadded, SpinBarrier};
use parsim_telemetry::{Registry, Sampler, TelemetryCtx};

use crate::config::SimConfig;
use crate::error::{SimError, StallDiagnostic};

/// Renders a panic payload (from `catch_unwind`) to a string.
fn panic_payload_to_string(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Which monitor trigger cancelled the run.
enum WatchdogVerdict {
    /// No heartbeat moved for this long.
    Stalled { stalled_for: Duration },
    /// The wall-time deadline passed.
    Deadline { deadline: Duration },
}

/// Per-run shared containment state.
pub(crate) struct Containment {
    /// Cooperative cancellation: workers poll this on their
    /// activation-pop path and exit their loops when set.
    cancel: AtomicBool,
    /// Set once the monitored body returned: the monitor exits.
    finished: AtomicBool,
    /// First panic wins: `(worker, payload)`.
    panic_slot: Mutex<Option<(usize, String)>>,
    /// The monitor's verdict, if the monitor cancelled the run.
    verdict: Mutex<Option<WatchdogVerdict>>,
    /// Per-worker activation counters, padded to avoid false sharing with
    /// the hot path that increments them.
    heartbeats: Vec<CachePadded<AtomicU64>>,
}

impl Containment {
    pub fn new(workers: usize) -> Containment {
        Containment {
            cancel: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            panic_slot: Mutex::new(None),
            verdict: Mutex::new(None),
            heartbeats: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// The cancellation flag workers poll (also handed to
    /// [`FaultPlan::check`](crate::FaultPlan) so stalled workers wake).
    pub fn cancel_flag(&self) -> &AtomicBool {
        &self.cancel
    }

    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    fn cancel_now(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// Bumps worker `w`'s heartbeat: once per processed activation (the
    /// compiled kernels: once per step and per gating block they run).
    pub fn beat(&self, w: usize) {
        self.heartbeats[w].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker panic (first one wins) and cancels the run.
    fn record_panic(&self, worker: usize, payload: Box<dyn Any + Send>) {
        let msg = panic_payload_to_string(payload);
        {
            let mut slot = self.panic_slot.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some((worker, msg));
            }
        }
        self.cancel_now();
    }

    /// The first recorded panic, if any.
    fn take_panic(&self) -> Option<(usize, String)> {
        self.panic_slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    fn record_verdict(&self, v: WatchdogVerdict) {
        let mut slot = self.verdict.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(v);
        }
    }

    /// The monitor's verdict, if it cancelled the run.
    fn take_verdict(&self) -> Option<WatchdogVerdict> {
        self.verdict
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    /// Post-join snapshot of the heartbeat counters.
    fn heartbeat_snapshot(&self) -> Vec<u64> {
        self.heartbeats
            .iter()
            .map(|h| h.load(Ordering::Relaxed))
            .collect()
    }
}

/// Runs `work(w, input, containment)` for every worker `w` on its own
/// scoped thread, one per element of `inputs`, under the monitor
/// [`monitored`] starts for `config` and `telemetry`, and returns the
/// workers' outputs in worker order.
///
/// `barrier` is the one primitive the engine's workers can block on; a
/// panicking worker and a firing monitor both poison it. `diagnose` fills
/// in the engine's own [`StallDiagnostic`] fields after the join, when the
/// monitor cancelled the run.
///
/// # Errors
///
/// [`SimError::WorkerPanicked`] if any worker panicked (the first one is
/// reported), else [`SimError::Stalled`] / [`SimError::DeadlineExceeded`]
/// if the monitor cancelled the run.
pub(crate) fn run_workers<I: Send, T: Send>(
    engine: &'static str,
    config: &SimConfig,
    telemetry: &TelemetryCtx,
    barrier: Option<&SpinBarrier>,
    inputs: Vec<I>,
    work: impl Fn(usize, I, &Containment) -> T + Sync,
    diagnose: impl FnOnce(&mut StallDiagnostic),
) -> Result<Vec<T>, SimError> {
    let cont = Containment::new(inputs.len());
    let (deadline, stall) = (config.deadline, config.stall_timeout);
    let outputs: Vec<Option<T>> = monitored(&cont, deadline, stall, telemetry, barrier, |scope| {
        let (work, cont) = (&work, &cont);
        let workers: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(w, input)| {
                scope.spawn(
                    move || match catch_unwind(AssertUnwindSafe(|| work(w, input, cont))) {
                        Ok(out) => Some(out),
                        Err(payload) => {
                            cont.record_panic(w, payload);
                            if let Some(b) = barrier {
                                b.poison();
                            }
                            None
                        }
                    },
                )
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().ok().flatten())
            .collect()
    });

    if let Some((worker, payload)) = cont.take_panic() {
        return Err(SimError::WorkerPanicked {
            engine,
            worker,
            payload,
        });
    }
    if let Some(verdict) = cont.take_verdict() {
        let mut diagnostic = Box::new(StallDiagnostic {
            heartbeats: cont.heartbeat_snapshot(),
            ..StallDiagnostic::default()
        });
        diagnose(&mut diagnostic);
        return Err(match verdict {
            WatchdogVerdict::Stalled { stalled_for } => SimError::Stalled {
                engine,
                stalled_for,
                diagnostic,
            },
            WatchdogVerdict::Deadline { deadline } => SimError::DeadlineExceeded {
                engine,
                deadline,
                diagnostic,
            },
        });
    }
    Ok(outputs
        .into_iter()
        .map(|out| out.expect("a worker that recorded no panic returned its output"))
        .collect())
}

/// Runs `body` on the calling thread, in a thread scope that also holds
/// the monitor when `deadline`, `stall_timeout` or `telemetry`'s sampler
/// asks for one; with none of the three no thread is started. The monitor
/// stops when `body` returns.
pub(crate) fn monitored<'env, R>(
    cont: &'env Containment,
    deadline: Option<Duration>,
    stall_timeout: Option<Duration>,
    telemetry: &'env TelemetryCtx,
    barrier: Option<&'env SpinBarrier>,
    body: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
) -> R {
    let sampler = telemetry.sampler();
    std::thread::scope(|scope| {
        let wanted = wants_monitor(deadline, stall_timeout, sampler.is_some());
        let monitor = wanted.then(|| {
            let registry = &*telemetry.registry;
            scope.spawn(move || watch(cont, deadline, stall_timeout, sampler, registry, barrier))
        });
        let _stop = StopMonitor(cont, monitor.as_ref().map(|m| m.thread()));
        body(scope)
    })
}

/// Whether [`monitored`] starts a monitor thread: only a deadline, a stall
/// timeout or an armed sampler needs one.
fn wants_monitor(
    deadline: Option<Duration>,
    stall_timeout: Option<Duration>,
    sampler_armed: bool,
) -> bool {
    deadline.is_some() || stall_timeout.is_some() || sampler_armed
}

/// Stops the monitor when dropped — also when the body unwinds, since the
/// scope joins the monitor before it lets the panic through.
struct StopMonitor<'a>(&'a Containment, Option<&'a Thread>);

impl Drop for StopMonitor<'_> {
    fn drop(&mut self) {
        self.0.finished.store(true, Ordering::Release);
        if let Some(monitor) = self.1 {
            monitor.unpark();
        }
    }
}

/// The monitor loop. The sampler ticks on every wakeup, even after a
/// trigger fired, so the flight recorder keeps covering the drain-and-join
/// window.
fn watch(
    cont: &Containment,
    deadline: Option<Duration>,
    stall_timeout: Option<Duration>,
    mut sampler: Option<Sampler>,
    registry: &Registry,
    barrier: Option<&SpinBarrier>,
) {
    // Sample often enough to honor short test timeouts (and tight
    // telemetry cadences) without burning a core: a quarter of the
    // tightest bound, clamped.
    let tightest = stall_timeout
        .into_iter()
        .chain(deadline)
        .chain(sampler.as_ref().map(|s| s.period()))
        .min()
        .unwrap_or(Duration::from_millis(100));
    let interval = (tightest / 4).clamp(Duration::from_millis(1), Duration::from_millis(25));
    let mut last_beats = cont.heartbeat_snapshot();
    let mut last_change = Instant::now();
    loop {
        // The first pass runs before any wait, so a segment or chunk that
        // starts with the run's budget already spent is cancelled at once.
        // Once the body returned, its work stands: no trigger fires.
        if !cont.cancelled() && !cont.finished.load(Ordering::Acquire) {
            let beats = cont.heartbeat_snapshot();
            if beats != last_beats {
                last_beats = beats;
                last_change = Instant::now();
            }
            let frozen = last_change.elapsed();
            let verdict = match deadline {
                Some(d) if Duration::from_nanos(registry.uptime_ns()) > d => {
                    Some(WatchdogVerdict::Deadline { deadline: d })
                }
                _ => stall_timeout
                    .filter(|&s| frozen > s)
                    .map(|_| WatchdogVerdict::Stalled {
                        stalled_for: frozen,
                    }),
            };
            if let Some(v) = verdict {
                cont.record_verdict(v);
                cont.cancel_now();
                if let Some(b) = barrier {
                    b.poison();
                }
            }
        }
        // Cancelled (by a trigger or a panicking worker): nothing is left
        // to watch, only the sampler to tick until the body returns.
        if cont.cancelled() && sampler.is_none() {
            return;
        }
        std::thread::park_timeout(interval);
        if let Some(s) = sampler.as_mut() {
            s.tick();
        }
        if cont.finished.load(Ordering::Acquire) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_telemetry::DEFAULT_RING_CAPACITY;

    /// Waits (up to five seconds) until `done` holds.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < give_up, "{what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn ctx(sample_every: Option<Duration>) -> TelemetryCtx {
        TelemetryCtx::for_run(1, sample_every, DEFAULT_RING_CAPACITY)
    }

    #[test]
    fn panic_slot_keeps_first() {
        let c = Containment::new(2);
        assert!(!c.cancelled());
        c.record_panic(1, Box::new("first"));
        c.record_panic(0, Box::new("second".to_string()));
        assert!(c.cancelled());
        assert_eq!(c.take_panic(), Some((1, "first".to_string())));
        assert_eq!(c.take_panic(), None);
    }

    #[test]
    fn no_config_no_thread() {
        let ms = Some(Duration::from_millis(1));
        assert!(!wants_monitor(None, None, false));
        assert!(wants_monitor(ms, None, false));
        assert!(wants_monitor(None, ms, false));
        assert!(wants_monitor(None, None, true));
    }

    #[test]
    fn finished_body_is_not_cancelled() {
        // The budget is spent before the monitor's first pass, but the body
        // returned first: its work stands.
        let telemetry = ctx(None);
        std::thread::sleep(Duration::from_millis(20));
        let c = Containment::new(1);
        c.finished.store(true, Ordering::Release);
        let deadline = Some(Duration::from_millis(10));
        monitored(&c, deadline, None, &telemetry, None, |_| {});
        assert!(!c.cancelled());
        assert!(c.take_verdict().is_none());
    }

    #[test]
    fn monitor_detects_frozen_heartbeats() {
        let c = Containment::new(2);
        let stall = Some(Duration::from_millis(30));
        monitored(&c, None, stall, &ctx(None), None, |_| {
            // Beat for a while, then freeze.
            for _ in 0..3 {
                c.beat(0);
                std::thread::sleep(Duration::from_millis(5));
            }
            wait_for("monitor never fired", || c.cancelled());
        });
        assert!(matches!(
            c.take_verdict(),
            Some(WatchdogVerdict::Stalled { .. })
        ));
    }

    #[test]
    fn monitor_enforces_deadline_even_with_progress() {
        let c = Containment::new(1);
        let barrier = SpinBarrier::new(2);
        let deadline = Some(Duration::from_millis(30));
        monitored(&c, deadline, None, &ctx(None), Some(&barrier), |_| {
            let give_up = Instant::now() + Duration::from_secs(5);
            while !c.cancelled() {
                c.beat(0); // constant progress must not defeat the deadline
                assert!(Instant::now() < give_up, "monitor never fired");
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        assert!(matches!(
            c.take_verdict(),
            Some(WatchdogVerdict::Deadline { .. })
        ));
        assert!(
            barrier.is_poisoned(),
            "a firing monitor poisons the barrier"
        );
    }

    #[test]
    fn deadline_counts_from_the_run_epoch() {
        let telemetry = ctx(None);
        std::thread::sleep(Duration::from_millis(20));
        // A later segment of the run: its budget is already spent, so the
        // monitor cancels on its first pass, before any wait.
        let c = Containment::new(1);
        let deadline = Some(Duration::from_millis(10));
        monitored(&c, deadline, None, &telemetry, None, |_| {
            wait_for("a spent budget must cancel at once", || c.cancelled());
        });
        assert!(matches!(
            c.take_verdict(),
            Some(WatchdogVerdict::Deadline { .. })
        ));
    }

    #[test]
    fn sampler_alone_starts_the_monitor_and_samples() {
        let c = Containment::new(1);
        let telemetry = ctx(Some(Duration::from_millis(1)));
        let ring = telemetry.ring.clone().expect("sampling is on");
        monitored(&c, None, None, &telemetry, None, |_| {
            wait_for("sampler never ticked", || ring.len() >= 3);
        });
        let samples = ring.drain();
        assert!(samples.len() >= 3);
        for pair in samples.windows(2) {
            assert!(pair[0].t_ns <= pair[1].t_ns, "sample timestamps monotone");
        }
    }

    #[test]
    fn sampler_keeps_ticking_after_the_monitor_trips() {
        let c = Containment::new(1);
        let telemetry = ctx(Some(Duration::from_millis(1)));
        let ring = telemetry.ring.clone().expect("sampling is on");
        let deadline = Some(Duration::from_millis(10));
        monitored(&c, deadline, None, &telemetry, None, |_| {
            wait_for("monitor never fired", || c.cancelled());
            let after_trip = ring.len();
            wait_for("sampler stopped after the deadline tripped", || {
                ring.len() > after_trip
            });
        });
    }
}
