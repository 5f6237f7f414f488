//! Failure containment: every injected fault must terminate with a
//! structured [`SimError`] — never a hang, never a detached thread.
//!
//! Each scenario runs the engine on a helper thread and waits on a
//! channel with a 30-second timeout, so a containment regression fails
//! the test instead of wedging the whole suite. After each injected
//! failure a clean run of the same engine must still match the oracle.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use parsim_circuits::inverter_array;
use parsim_core::{
    checkpoint, equivalence_report, ChaoticAsync, CompiledMode, EngineKind, EventDriven, FaultPlan,
    LaneStimulus, SimConfig, SimError, SimResult, SyncEventDriven,
};
use parsim_logic::Time;
use parsim_netlist::Netlist;

/// Outer hang guard: runs `f` on its own thread and panics if it has not
/// produced a result (ok or error) within 30 seconds.
fn guarded<T, F>(context: &str, f: F) -> Result<T, SimError>
where
    T: Send + 'static,
    F: FnOnce() -> Result<T, SimError> + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    let result = rx
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{context}: engine hung past the 30s containment guard"));
    let _ = handle.join();
    result
}

/// A unit-delay circuit with steady activity on every worker: an 8×8
/// inverter array toggling every tick (valid for all four engines,
/// including compiled mode).
fn busy_netlist() -> Netlist {
    inverter_array(8, 8, 1).expect("valid generator parameters").netlist
}

type Engine = fn(&Netlist, &SimConfig) -> Result<SimResult, SimError>;

/// `CompiledMode::run_batch` over 260 base lanes at 64 lanes per word
/// group, so five chunks: every worker has one at 2, 3 and 4 threads, and
/// some run two. Lane 0 stands for the batch.
fn run_batch(netlist: &Netlist, config: &SimConfig) -> Result<SimResult, SimError> {
    let lanes = vec![LaneStimulus::base(); 260];
    let config = config.clone().with_lane_width(64);
    Ok(CompiledMode::run_batch(netlist, &config, &lanes)?
        .lanes
        .swap_remove(0))
}

/// `(label, engine tag in its errors, run)`.
const PARALLEL_ENGINES: [(&str, &str, Engine); 4] = [
    (
        "chaotic-async",
        "chaotic-async",
        ChaoticAsync::run as Engine,
    ),
    (
        "sync-event-driven",
        "sync-event-driven",
        SyncEventDriven::run as Engine,
    ),
    (
        "compiled-mode",
        "compiled-mode",
        CompiledMode::run as Engine,
    ),
    ("compiled-mode batch", "compiled-mode", run_batch as Engine),
];

/// One run's failure must not leak into the next: a clean run of the same
/// engine on the same netlist still equals the `EventDriven` oracle.
fn assert_clean_rerun(label: &str, run: Engine, threads: usize) {
    let arr = inverter_array(8, 8, 1).expect("valid generator parameters");
    let cfg = SimConfig::new(Time(200)).watch_all(arr.taps.clone());
    let oracle = EventDriven::run(&arr.netlist, &cfg).unwrap();
    let cfg = cfg.threads(threads);
    let clean = guarded(&format!("{label} clean rerun"), move || {
        run(&arr.netlist, &cfg)
    })
    .unwrap_or_else(|e| panic!("{label}: clean run after a failure: {e}"));
    let rep = equivalence_report(&oracle, &clean);
    assert!(
        rep.is_equivalent(),
        "{label}: clean run after a failure diverged: {rep}"
    );
}

#[test]
fn injected_worker_panic_is_contained_in_every_parallel_engine() {
    for (label, tag, run) in PARALLEL_ENGINES {
        for threads in [2usize, 4] {
            // The last worker panics a few activations in, with peers
            // mid-protocol on barriers or queues.
            let victim = threads - 1;
            let cfg = SimConfig::new(Time(1_000))
                .threads(threads)
                .with_fault(FaultPlan::panic_at(victim, 3));
            let err = guarded(&format!("{label} x{threads} panic"), move || {
                run(&busy_netlist(), &cfg)
            })
            .expect_err("injected panic must surface as an error");
            match err {
                SimError::WorkerPanicked {
                    engine,
                    worker,
                    payload,
                } => {
                    assert_eq!(engine, tag);
                    assert_eq!(worker, victim, "{label}: wrong worker blamed");
                    assert!(
                        payload.contains("injected fault"),
                        "{label}: unexpected payload {payload:?}"
                    );
                }
                other => panic!("{label}: expected WorkerPanicked, got {other}"),
            }
            assert_clean_rerun(label, run, threads);
        }
    }
}

#[test]
fn panic_containment_needs_no_watchdog() {
    // No deadline, no stall timeout: containment must come from the
    // poison/cancel protocol alone.
    for (label, tag, run) in PARALLEL_ENGINES {
        let cfg = SimConfig::new(Time(1_000))
            .threads(3)
            .with_fault(FaultPlan::panic_at(0, 0));
        let err = guarded(&format!("{label} watchdogless panic"), move || {
            run(&busy_netlist(), &cfg)
        })
        .expect_err("injected panic must surface as an error");
        assert!(
            matches!(err, SimError::WorkerPanicked { engine, worker: 0, .. } if engine == tag),
            "{label}: got {err}"
        );
        assert_clean_rerun(label, run, 3);
    }
}

#[test]
fn stalled_worker_trips_the_watchdog_with_a_diagnostic() {
    for (label, tag, run) in PARALLEL_ENGINES {
        let threads = 3usize;
        let cfg = SimConfig::new(Time(100_000))
            .threads(threads)
            .with_fault(FaultPlan::stall_at(0, 0))
            .with_stall_timeout(Duration::from_millis(100));
        let err = guarded(&format!("{label} stall"), move || {
            run(&busy_netlist(), &cfg)
        })
        .expect_err("a frozen worker must surface as an error");
        match err {
            SimError::Stalled {
                engine,
                stalled_for,
                diagnostic,
            } => {
                assert_eq!(engine, tag);
                assert!(
                    stalled_for >= Duration::from_millis(100),
                    "{label}: fired early at {stalled_for:?}"
                );
                // The diagnostic covers every worker. (Absolute counts are
                // engine-specific: the synchronous engines also beat once
                // per step for liveness, so a stalled worker may show a
                // beat or two from before it froze.)
                assert_eq!(
                    diagnostic.heartbeats.len(),
                    threads,
                    "{label}: diagnostic must cover every worker"
                );
            }
            other => panic!("{label}: expected Stalled, got {other}"),
        }
        assert_clean_rerun(label, run, threads);
    }
}

/// 64 columns two deep: every level is 64 inverters, so at two threads a
/// worker's level splits into full 16-instruction gating blocks, and the
/// ordinals below fall at a block's start, middle and end.
fn wide_netlist() -> Netlist {
    inverter_array(64, 2, 1).expect("valid generator parameters").netlist
}

#[test]
fn scalar_compiled_panic_fires_at_its_exact_activation() {
    // The kernel consults the fault plan per block; the panic must still
    // land on the named ordinal, in the first step or a later one.
    for nth in [0u64, 9, 16, 31, 57, 64 * 5 + 7] {
        let cfg = SimConfig::new(Time(1_000))
            .threads(2)
            .with_fault(FaultPlan::panic_at(1, nth));
        let err = guarded(&format!("compiled panic at {nth}"), move || {
            CompiledMode::run(&wide_netlist(), &cfg)
        })
        .expect_err("injected panic must surface as an error");
        match err {
            SimError::WorkerPanicked {
                engine,
                worker,
                payload,
            } => {
                assert_eq!((engine, worker), ("compiled-mode", 1));
                let want = format!("injected fault: worker 1 panicked at activation {nth}");
                assert!(payload.contains(&want), "{nth}: payload {payload:?}");
            }
            other => panic!("{nth}: expected WorkerPanicked, got {other}"),
        }
    }
    assert_clean_rerun("compiled-mode", CompiledMode::run, 2);
}

#[test]
fn batch_panic_fires_at_its_exact_activation() {
    // 130 lanes at 64 per word group: chunks 0 and 2 on worker 0, chunk 1
    // (64 lanes) on worker 1. The batch kernel runs one instruction list
    // in 16-instruction blocks and consults the fault plan per block.
    let batch = |cfg: &SimConfig| {
        let lanes = vec![LaneStimulus::base(); 130];
        CompiledMode::run_batch(&wide_netlist(), &cfg.clone().with_lane_width(64), &lanes)
    };
    let cfg = SimConfig::new(Time(60)).threads(2);
    // Activations per chunk, from a clean run: every lane runs the same
    // stimulus, so each of the three chunks counts the same.
    let total = batch(&cfg).unwrap().metrics.evaluations;
    assert_eq!(total % 3, 0, "{total} activations in three chunks");
    let per_chunk = total / 3;
    assert!(per_chunk > 64 * 3, "{per_chunk} activations per chunk");
    // The start, mid-block, a block boundary, a later step, and past the
    // end of worker 0's first chunk: its count carries into the next
    // chunk instead of starting over.
    for nth in [0u64, 9, 16, 64 * 2 + 31, per_chunk, per_chunk + 7] {
        let cfg = cfg.clone().with_fault(FaultPlan::panic_at(0, nth));
        let err = guarded(&format!("batch panic at {nth}"), move || batch(&cfg))
            .expect_err("injected panic must surface as an error");
        match err {
            SimError::WorkerPanicked {
                engine,
                worker,
                payload,
            } => {
                assert_eq!((engine, worker), ("compiled-mode", 0));
                let want = format!("injected fault: worker 0 panicked at activation {nth}");
                assert!(payload.contains(&want), "{nth}: payload {payload:?}");
            }
            other => panic!("{nth}: expected WorkerPanicked, got {other}"),
        }
    }
    assert_clean_rerun("compiled-mode batch", run_batch, 2);
}

#[test]
fn scalar_compiled_stall_is_reported_with_block_grained_heartbeats() {
    let nth = 57u64;
    let cfg = SimConfig::new(Time(100_000))
        .threads(2)
        .with_fault(FaultPlan::stall_at(1, nth))
        .with_stall_timeout(Duration::from_millis(100));
    let err = guarded("compiled stall", move || {
        CompiledMode::run(&wide_netlist(), &cfg)
    })
    .expect_err("a frozen worker must surface as an error");
    match err {
        SimError::Stalled {
            engine,
            stalled_for,
            diagnostic,
        } => {
            assert_eq!(engine, "compiled-mode");
            assert!(stalled_for >= Duration::from_millis(100), "fired early at {stalled_for:?}");
            assert_eq!(diagnostic.heartbeats.len(), 2);
            // The victim beat at the step top and once per block it
            // started, not once per instruction it ran.
            let beats = diagnostic.heartbeats[1];
            assert!(beats > 0 && beats < nth, "victim heartbeats {beats}");
        }
        other => panic!("expected Stalled, got {other}"),
    }
    assert_clean_rerun("compiled-mode", CompiledMode::run, 2);
}

#[test]
fn deadline_cancels_parallel_engines_mid_stall() {
    // A worker wedged forever, watched only by the wall-time deadline:
    // the run must end with DeadlineExceeded, not a hang.
    for (label, tag, run) in PARALLEL_ENGINES {
        let cfg = SimConfig::new(Time(100_000))
            .threads(2)
            .with_fault(FaultPlan::stall_at(1, 0))
            .with_deadline(Duration::from_millis(50));
        let err = guarded(&format!("{label} deadline"), move || {
            run(&busy_netlist(), &cfg)
        })
        .expect_err("a blown deadline must surface as an error");
        assert!(
            matches!(
                err,
                SimError::DeadlineExceeded { engine, deadline, .. }
                    if engine == tag && deadline == Duration::from_millis(50)
            ),
            "{label}: got {err}"
        );
        assert_clean_rerun(label, run, 2);
    }
}

#[test]
fn deadline_cancels_the_sequential_engine() {
    // Far more work than a 5ms budget allows; the inline deadline poll
    // must cut the run short with the last completed sim time recorded.
    let cfg = SimConfig::new(Time(100_000)).with_deadline(Duration::from_millis(5));
    let err = guarded("event-driven deadline", move || {
        EventDriven::run(&inverter_array(32, 16, 1).unwrap().netlist, &cfg)
    })
    .expect_err("a blown deadline must surface as an error");
    match err {
        SimError::DeadlineExceeded {
            engine, diagnostic, ..
        } => {
            assert_eq!(engine, "event-driven");
            assert!(diagnostic.sim_time.is_some());
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
}

/// The wall time of the faster of two runs of `f`.
fn calibrate<T>(f: impl Fn() -> Result<T, SimError>) -> Duration {
    (0..2)
        .map(|_| {
            let t = Instant::now();
            f().expect("the calibration run has no deadline");
            t.elapsed()
        })
        .min()
        .expect("two runs")
}

/// Runs `run` (given `None`: no deadline) under a quarter of its
/// calibrated time and returns that budget and the error it ended in. An
/// `Ok` whose wall time is past the budget ignored the deadline and fails
/// at once. An `Ok` inside the budget means the calibration ran under
/// heavier load than the run (concurrent test binaries share the cores),
/// so it recalibrates and retries, three attempts in all.
fn quarter_budget_error<T, F>(
    context: &str,
    run: F,
    wall: fn(&T) -> Duration,
) -> (Duration, SimError)
where
    T: Send + 'static,
    F: Fn(Option<Duration>) -> Result<T, SimError> + Clone + Send + 'static,
{
    for attempt in 1..=3 {
        let budget = calibrate(|| run(None)) / 4;
        let run = run.clone();
        match guarded(context, move || run(Some(budget))) {
            Err(err) => return (budget, err),
            Ok(out) => {
                let wall = wall(&out);
                assert!(
                    wall <= budget,
                    "{context}: returned Ok after {wall:?}, past its {budget:?} budget"
                );
                eprintln!(
                    "{context}: attempt {attempt} returned Ok in {wall:?} \
                     under its {budget:?} budget; recalibrating"
                );
            }
        }
    }
    panic!("{context}: returned Ok under a quarter of its calibrated time on 3 attempts");
}

/// `SimConfig::deadline` is one budget for the whole run. A run cut into
/// 20 checkpoint segments, or a batch cut into 8 lane chunks, gets a
/// quarter of what it needs: every segment and chunk alone fits in that,
/// the run does not, so it must end in `DeadlineExceeded`.
#[test]
fn deadline_spans_checkpoint_segments_and_lane_chunks() {
    let netlist = inverter_array(32, 16, 1)
        .expect("valid generator parameters")
        .netlist;
    let end = 2_000u64;
    let dir = std::env::temp_dir().join(format!("parsim-deadline-{}", std::process::id()));
    for kind in [
        EngineKind::Sequential,
        EngineKind::Synchronous,
        EngineKind::Compiled,
        EngineKind::Chaotic,
    ] {
        let cfg = SimConfig::new(Time(end))
            .threads(2)
            .with_checkpoint_dir(dir.join(kind.name()))
            .with_checkpoint_every(end / 20);
        let netlist = netlist.clone();
        let run = move |deadline: Option<Duration>| {
            let cfg = deadline.map_or(cfg.clone(), |d| cfg.clone().with_deadline(d));
            checkpoint::run(kind, &netlist, &cfg)
        };
        let context = format!("{}: 20 segments must share one budget", kind.name());
        let (budget, err) = quarter_budget_error(&context, run, |r: &SimResult| r.metrics.wall);
        assert!(
            matches!(err, SimError::DeadlineExceeded { deadline, .. } if deadline == budget),
            "{}: got {err}",
            kind.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    let lanes = vec![LaneStimulus::base(); 512];
    let cfg = SimConfig::new(Time(end / 4)).threads(2).with_lane_width(64);
    let run = move |deadline: Option<Duration>| {
        let cfg = deadline.map_or(cfg.clone(), |d| cfg.clone().with_deadline(d));
        CompiledMode::run_batch(&netlist, &cfg, &lanes)
    };
    let (_, err) = quarter_budget_error("8 lane chunks must share one budget", run, |r| {
        r.metrics.wall
    });
    assert!(
        matches!(
            err,
            SimError::DeadlineExceeded {
                engine: "compiled-mode",
                ..
            }
        ),
        "batch: got {err}"
    );
}

#[test]
fn watchdog_does_not_perturb_a_healthy_run() {
    // Generous bounds on a fast run: results must match a watchdog-free
    // run exactly.
    let arr = inverter_array(4, 4, 1).unwrap();
    let cfg = SimConfig::new(Time(200)).watch_all(arr.taps.clone());
    let plain = EventDriven::run(&arr.netlist, &cfg).unwrap();
    let bounded = cfg
        .clone()
        .with_deadline(Duration::from_secs(60))
        .with_stall_timeout(Duration::from_secs(30));
    for (label, _, run) in PARALLEL_ENGINES {
        let r = run(&arr.netlist, &bounded.clone().threads(3)).unwrap();
        let rep = equivalence_report(&plain, &r);
        assert!(
            rep.is_equivalent(),
            "{label} diverged under watchdog: {rep}"
        );
    }
    let seq = EventDriven::run(&arr.netlist, &bounded).unwrap();
    assert!(equivalence_report(&plain, &seq).is_equivalent());
}

/// The chaotic engine's containment must hold with its local deques and
/// batched sends, where a worker may die holding unflushed batches.
#[test]
fn chaotic_faults_are_contained_with_local_deques() {
    // Panic mid-run: peers must be cancelled even if the victim's outbox
    // still held batched activations.
    let cfg = SimConfig::new(Time(1_000))
        .threads(4)
        .with_fault(FaultPlan::panic_at(2, 5));
    let err = guarded("chaotic panic", move || {
        ChaoticAsync::run(&busy_netlist(), &cfg)
    })
    .expect_err("injected panic must surface as an error");
    assert!(
        matches!(err, SimError::WorkerPanicked { worker: 2, .. }),
        "got {err}"
    );

    // Stall: a frozen worker must trip the watchdog while its peers sit in
    // the backoff idle branch.
    let cfg = SimConfig::new(Time(100_000))
        .threads(3)
        .with_fault(FaultPlan::stall_at(1, 0))
        .with_stall_timeout(Duration::from_millis(100));
    let err = guarded("chaotic stall", move || {
        ChaoticAsync::run(&busy_netlist(), &cfg)
    })
    .expect_err("a frozen worker must surface as an error");
    assert!(matches!(err, SimError::Stalled { .. }), "got {err}");
}

/// With the `chaos` feature on, the queue layer injects seeded yields and
/// delayed publication into the SPSC protocol. Waveforms must be bit-for-
/// bit identical to the sequential oracle anyway.
#[cfg(feature = "chaos")]
#[test]
fn chaos_schedule_perturbation_never_changes_waveforms() {
    let arr = inverter_array(16, 8, 2).unwrap();
    let cfg = SimConfig::new(Time(400)).watch_all(arr.taps.clone());
    let oracle = EventDriven::run(&arr.netlist, &cfg).unwrap();
    for threads in [2usize, 3, 4] {
        let cfg_t = cfg.clone().threads(threads);
        let asy = guarded(&format!("chaos async x{threads}"), {
            let netlist = arr.netlist.clone();
            let cfg_t = cfg_t.clone();
            move || ChaoticAsync::run(&netlist, &cfg_t)
        })
        .unwrap();
        let rep = equivalence_report(&oracle, &asy);
        assert!(rep.is_equivalent(), "async x{threads} under chaos: {rep}");

        let sync = guarded(&format!("chaos sync x{threads}"), {
            let netlist = arr.netlist.clone();
            let cfg_t = cfg_t.clone();
            move || SyncEventDriven::run(&netlist, &cfg_t)
        })
        .unwrap();
        let rep = equivalence_report(&oracle, &sync);
        assert!(rep.is_equivalent(), "sync x{threads} under chaos: {rep}");
    }
}
