//! The equivalence driver: one circuit, every engine configuration it
//! supports, each checked against the sequential [`EventDriven`] oracle.
//!
//! [`check`] runs `SyncEventDriven` and `ChaoticAsync` at 1, 2 and 3
//! threads and the chaotic engine's two ablations; on unit-delay netlists
//! the compiled kernel gated at 1–3 threads and ungated, and `run_batch` at
//! 1 and 8 lanes and, given distinct lane stimuli, at 65 or more across
//! chunk shapes and widths, each lane against
//! [`EventDriven::run_lane`] of its stimulus; and `checkpoint::run` on
//! every engine cut at a quiet tick, and crashed at an active tick and
//! resumed at another thread count. DESIGN.md §9 has the rows and the
//! circuits behind them. Every result must equal the oracle's
//! `to_vcd()` bytes and pass [`equivalence_report`] over every watched node
//! (a batch lane repeating an earlier lane's stimulus: the report only).
//! Beside waveforms it checks what holds on any circuit: the oracle's event
//! count (a batch, its lanes' sum), no extension from an ablated
//! lookahead, one batch worker per lane chunk up to the thread count, and
//! compiled counters that walk every tick and agree on quiet steps at
//! every thread count. A watchdog ends the test process when one circuit's
//! rows run past two minutes, so a wedged engine fails the test binary,
//! naming the circuit, instead of hanging it.
//!
//! The module lives under `tests/` and adds nothing to the library; a test
//! binary includes it with `mod support;`, or with `#[path]` from another
//! package.

#![allow(dead_code)]

use std::collections::BTreeSet;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use parsim_circuits::RandomCircuitParams;
use parsim_core::{
    checkpoint, equivalence_report, ChaoticAsync, CheckpointError, CompiledMode, EngineKind,
    EventDriven, FaultPlan, LaneStimulus, Metrics, SimConfig, SimError, SimResult, StorageFault,
    SyncEventDriven,
};
use parsim_logic::{Delay, Time};
use parsim_netlist::compile::CompiledProgram;
use parsim_netlist::{Netlist, NodeId};
use proptest::strategy::Strategy;

/// One [`check`]'s budget, far beyond what any takes.
const DEADLINE: Duration = Duration::from_secs(120);
/// Thread counts of every parallel engine.
pub const THREADS: [usize; 3] = [1, 2, 3];
/// Batch lane counts: one lane; eight; two 64-lane chunks with a one-lane
/// tail, run only on a circuit with lane stimuli of its own.
const LANES: [usize; 3] = [1, 8, 65];

/// `parsim-circuits`' random circuits: 5–79 elements, 1–5 inputs, a
/// sequential fraction in quarters, delays up to 3.
pub fn random_params() -> impl Strategy<Value = RandomCircuitParams> {
    (
        5usize..80,
        1usize..6,
        0u64..4,
        1u64..4,
        proptest::arbitrary::any::<u64>(),
    )
        .prop_map(
            |(elements, inputs, quarters, max_delay, seed)| RandomCircuitParams {
                elements,
                inputs,
                seq_fraction: quarters as f64 * 0.25,
                max_delay,
                seed,
            },
        )
}

/// One circuit for [`check`]: what to run, what to watch, how long.
pub struct Circuit<'a> {
    name: String,
    netlist: &'a Netlist,
    watch: Vec<NodeId>,
    end: Time,
    lanes: Vec<LaneStimulus>,
    cuts: Vec<u64>,
}

impl<'a> Circuit<'a> {
    /// `netlist` run to `end` with `watch` watched; `name` tags every
    /// failure message.
    pub fn new(
        name: impl Into<String>,
        netlist: &'a Netlist,
        watch: impl IntoIterator<Item = NodeId>,
        end: Time,
    ) -> Circuit<'a> {
        Circuit {
            name: name.into(),
            netlist,
            watch: watch.into_iter().collect(),
            end,
            lanes: Vec::new(),
            cuts: Vec::new(),
        }
    }

    /// Batch lane stimuli. The lane counts of [`LANES`] cycle through
    /// them; without two or more, every lane runs the same stimulus, and
    /// the 65-lane rows, whose copies could not show a lane out of place,
    /// are left out.
    pub fn lanes(mut self, lanes: Vec<LaneStimulus>) -> Circuit<'a> {
        self.lanes = lanes;
        self
    }

    /// One more checkpoint interval for the cut rows, beside the quiet
    /// tick the driver picks itself. Every parallel engine is crashed at
    /// the first one given, not at the active tick.
    pub fn cut_every(mut self, ticks: u64) -> Circuit<'a> {
        self.cuts.push(ticks);
        self
    }
}

/// What [`check`] ran, for a test's own assertions on top.
pub struct Outcome {
    /// The oracle's result.
    pub oracle: SimResult,
    /// Each lane stimulus's oracle (`EventDriven::run_lane`), in order;
    /// empty on a netlist that is not unit-delay.
    pub lanes: Vec<SimResult>,
    /// Quiet steps of the gated scalar compiled runs (the same at every
    /// thread count); `None` when the netlist is not unit-delay.
    pub quiet_steps: Option<u64>,
    /// Quiet steps of the gated batch: of every row when all lanes run
    /// the same stimulus, else of the full-lane width-64 row.
    pub batch_quiet_steps: Option<u64>,
}

/// Runs `c` through every configuration it supports and panics, naming
/// the circuit and the configuration, at the first one that differs from
/// the oracle.
pub fn check(c: &Circuit<'_>) -> Outcome {
    let _watchdog = Watchdog::start(&c.name);
    let cfg = SimConfig::new(c.end).watch_all(c.watch.iter().copied());
    let oracle =
        EventDriven::run(c.netlist, &cfg).unwrap_or_else(|e| panic!("{}: oracle: {e}", c.name));
    let watched = c.watch.iter().collect::<BTreeSet<_>>().len();
    let want = Want::of(&oracle, watched);
    want.same(&format!("{}: oracle", c.name), &oracle);

    let unit = c
        .netlist
        .iter_elements()
        .all(|(_, e)| (e.rise_delay(), e.fall_delay()) == (Delay(1), Delay(1)));
    event_engines(c, &cfg, &want);
    cuts(c, &cfg, &want, unit);
    let (quiet_steps, lanes, batch_quiet_steps) = if unit {
        let quiet = compiled(c, &cfg, &want);
        let (lanes, batch_quiet) = batch(c, &cfg, &want);
        (Some(quiet), lanes, Some(batch_quiet))
    } else {
        (None, Vec::new(), None)
    };
    Outcome {
        oracle,
        lanes,
        quiet_steps,
        batch_quiet_steps,
    }
}

/// Ends the process unless dropped within [`DEADLINE`]: one thread per
/// [`check`], where `SimConfig::with_deadline` would start one per run.
struct Watchdog(mpsc::Sender<()>);

impl Watchdog {
    fn start(name: &str) -> Watchdog {
        let (done, wait) = mpsc::channel::<()>();
        let name = name.to_owned();
        std::thread::spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = wait.recv_timeout(DEADLINE) {
                // Straight to the stream: libtest's capture dies with the process.
                let msg =
                    format!("{name}: still running after {DEADLINE:?}; an engine is wedged\n");
                let _ = std::io::stderr().write_all(msg.as_bytes());
                std::process::exit(101);
            }
        });
        Watchdog(done)
    }
}

/// An oracle result, its VCD bytes and the number of distinct watched nodes.
struct Want<'a> {
    result: &'a SimResult,
    vcd: String,
    watched: usize,
}

impl<'a> Want<'a> {
    fn of(result: &'a SimResult, watched: usize) -> Want<'a> {
        Want {
            result,
            vcd: result.to_vcd(),
            watched,
        }
    }

    fn same(&self, tag: &str, got: &SimResult) {
        self.same_waveforms(tag, got);
        assert!(
            got.to_vcd() == self.vcd,
            "{tag}: VCD bytes differ from the oracle's"
        );
    }

    /// [`Want::same`] without the VCD bytes: for a batch lane repeating an
    /// earlier lane's stimulus, whose encoding that lane already checked.
    fn same_waveforms(&self, tag: &str, got: &SimResult) {
        let report = equivalence_report(self.result, got);
        assert!(report.is_equivalent(), "{tag}: {report}");
        assert_eq!(report.compared, self.watched, "{tag}: waveforms compared");
    }

    fn same_events(&self, tag: &str, got: &SimResult) {
        self.same(tag, got);
        let want = self.result.metrics.events_processed;
        assert_eq!(
            got.metrics.events_processed, want,
            "{tag}: events processed"
        );
    }
}

type Run = fn(&Netlist, &SimConfig) -> Result<SimResult, SimError>;

fn run(tag: &str, engine: Run, netlist: &Netlist, cfg: &SimConfig) -> SimResult {
    engine(netlist, cfg).unwrap_or_else(|e| panic!("{tag}: {e}"))
}

/// `SyncEventDriven` and `ChaoticAsync` at every thread count, and the
/// chaotic engine's two ablations.
fn event_engines(c: &Circuit<'_>, cfg: &SimConfig, want: &Want<'_>) {
    let engines: [(&str, Run); 2] = [("sync", SyncEventDriven::run), ("async", ChaoticAsync::run)];
    for threads in THREADS {
        for (engine, go) in engines {
            let tag = format!("{}: {engine} x{threads}", c.name);
            want.same_events(
                &tag,
                &run(&tag, go, c.netlist, &cfg.clone().threads(threads)),
            );
        }
    }
    let ablations = [
        (
            "without_lookahead",
            cfg.clone().threads(2).without_lookahead(),
        ),
        ("without_gc", cfg.clone().threads(2).without_gc()),
    ];
    for (ablation, cfg) in ablations {
        let tag = format!("{}: async x2 {ablation}", c.name);
        let r = run(&tag, ChaoticAsync::run, c.netlist, &cfg);
        want.same_events(&tag, &r);
        if !cfg.lookahead {
            assert_eq!(r.metrics.lookahead_extensions, 0, "{tag}: extended");
        }
    }
}

/// The compiled kernels' counters against walking every tick: every tick
/// is a step, every instruction of every step is evaluated or skipped, and
/// the quiet steps are the ones every other gated run read (`quiet`) — or
/// none, with nothing skipped, when gating is off.
pub fn counters(
    tag: &str,
    m: &Metrics,
    end: u64,
    insns: u64,
    gating: bool,
    quiet: &mut Option<u64>,
) {
    assert_eq!(m.time_steps, end + 1, "{tag}: every tick is a step");
    assert_eq!(
        m.evaluations + m.evals_skipped,
        insns * end,
        "{tag}: evaluated + skipped accounts for every instruction every step"
    );
    if gating {
        assert_eq!(
            *quiet.get_or_insert(m.quiet_steps),
            m.quiet_steps,
            "{tag}: quiet steps"
        );
    } else {
        assert_eq!((m.quiet_steps, m.evals_skipped), (0, 0), "{tag}: ungated");
    }
}

/// `CompiledMode::run` at every thread count, gated and not; returns the
/// gated runs' quiet steps.
fn compiled(c: &Circuit<'_>, cfg: &SimConfig, want: &Want<'_>) -> u64 {
    let insns = CompiledProgram::compile(c.netlist).num_insns() as u64;
    let mut quiet = None;
    let rows = THREADS
        .map(|threads| (threads, true))
        .into_iter()
        .chain([(1, false)]);
    for (threads, gating) in rows {
        let tag = format!("{}: compiled x{threads} gating={gating}", c.name);
        let mut cfg = cfg.clone().threads(threads);
        if !gating {
            cfg = cfg.without_activity_gating();
        }
        let r = run(&tag, CompiledMode::run, c.netlist, &cfg);
        want.same_events(&tag, &r);
        counters(&tag, &r.metrics, c.end.ticks(), insns, gating, &mut quiet);
    }
    quiet.expect("the compiled rows ran")
}

/// `run_batch` over lane counts, thread counts and widths, every lane
/// checked against `EventDriven::run_lane` of its stimulus. Returns the
/// lane oracles and the batch rows' quiet steps.
fn batch(c: &Circuit<'_>, cfg: &SimConfig, want: &Want<'_>) -> (Vec<SimResult>, u64) {
    let stimuli = match c.lanes.is_empty() {
        true => vec![LaneStimulus::base()],
        false => c.lanes.clone(),
    };
    let oracles: Vec<SimResult> = stimuli
        .iter()
        .enumerate()
        .map(|(l, s)| {
            EventDriven::run_lane(c.netlist, cfg, s)
                .unwrap_or_else(|e| panic!("{}: run_lane {l}: {e}", c.name))
        })
        .collect();
    for (l, (s, r)) in stimuli.iter().zip(&oracles).enumerate() {
        if s.overrides.is_empty() {
            want.same(&format!("{}: run_lane {l} (no overrides)", c.name), r);
        }
    }
    let wants: Vec<Want<'_>> = oracles.iter().map(|r| Want::of(r, want.watched)).collect();
    let full = LANES[2].max(stimuli.len());
    let pool: Vec<LaneStimulus> = (0..full)
        .map(|l| stimuli[l % stimuli.len()].clone())
        .collect();
    let insns = CompiledProgram::compile(c.netlist).num_insns() as u64;
    let distinct = stimuli.len() > 1;
    let mut quiet = None;
    // (lanes, threads, forced lane width): spare threads and a chunk that
    // starts inside a word; with distinct lanes, width-64 chunks on two
    // workers, and one worker's chunks in the narrowest group over up to
    // 512 lanes, dead lanes past its last one and, past 512 lanes, a tail.
    let mut rows = vec![(LANES[0], 3, None), (LANES[1], 2, None)];
    if distinct {
        rows.extend([(full, 2, Some(64)), (full, 1, Some(512))]);
    }
    for (lanes, threads, width) in rows {
        let tag = format!("{}: batch {lanes} lanes x{threads} width {width:?}", c.name);
        let mut cfg = cfg.clone().threads(threads);
        if let Some(w) = width {
            cfg = cfg.with_lane_width(w);
        }
        let r = CompiledMode::run_batch(c.netlist, &cfg, &pool[..lanes])
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(r.lanes.len(), lanes, "{tag}: lane results");
        for (l, lane) in r.lanes.iter().enumerate() {
            let (want, tag) = (&wants[l % wants.len()], format!("{tag} lane {l}"));
            if l < wants.len() {
                want.same(&tag, lane);
            } else {
                want.same_waveforms(&tag, lane);
            }
        }
        let events = (0..lanes).map(|l| oracles[l % oracles.len()].metrics.events_processed);
        assert_eq!(
            r.metrics.events_processed,
            events.sum(),
            "{tag}: events over all lanes"
        );
        // Threads take whole lane chunks, so `min(threads, chunks)` workers run.
        let chunks = match width {
            Some(w) => lanes.div_ceil(w),
            None => lanes.div_ceil(512).max(threads.min(lanes)),
        };
        assert_eq!(
            r.metrics.per_thread.len(),
            threads.min(chunks),
            "{tag}: workers"
        );
        let quiet = if !distinct || width == Some(64) {
            &mut quiet
        } else {
            &mut None
        };
        counters(
            &tag,
            &r.metrics,
            c.end.ticks(),
            insns * chunks as u64,
            true,
            quiet,
        );
    }
    (oracles, quiet.expect("the batch rows ran"))
}

/// A checkpoint directory no other run of this process uses.
fn fresh_checkpoint_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("parsim-oracle-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The last tick without any node change and the busiest tick (the last of
/// equals), each from `[end / 4, end / 3]` if it has one there and else
/// from `[end / 16, end / 4)`: cutting every that many ticks puts two to
/// sixteen captured snapshots before the end, mostly two or three.
fn pick_cuts(netlist: &Netlist, end: u64) -> (Option<u64>, Option<u64>) {
    let (lo, mid, hi) = ((end / 16).max(1), (end / 4).max(1), end / 3);
    if lo > hi {
        return (None, None);
    }
    let all = SimConfig::new(Time(end)).watch_all(netlist.iter_nodes().map(|(id, _)| id));
    let r = EventDriven::run(netlist, &all).expect("the all-nodes oracle runs");
    let mut busy = vec![0usize; (hi - lo + 1) as usize];
    for &t in r.waveforms().iter().flat_map(|w| w.times()) {
        if (lo..=hi).contains(&t.ticks()) {
            busy[(t.ticks() - lo) as usize] += 1;
        }
    }
    let quiet = |from: usize, to: usize| (from..to).rev().find(|&i| busy[i] == 0);
    let active = |from: usize, to: usize| {
        (from..to)
            .max_by_key(|&i| (busy[i], i))
            .filter(|&i| busy[i] > 0)
    };
    let (split, len) = ((mid - lo) as usize, busy.len());
    let at = |i: usize| lo + i as u64;
    (
        quiet(split, len).or_else(|| quiet(0, split)).map(at),
        active(split, len).or_else(|| active(0, split)).map(at),
    )
}

/// `checkpoint::run` on every engine the circuit supports: cut at a quiet
/// tick at one thread, and at the circuit's own intervals at two. Then a
/// crash at 2 threads while committing the second snapshot, resumed from
/// the first at 1: at the circuit's first own interval on every parallel
/// engine; without one, at the active tick on one parallel engine picked
/// by the length of the circuit's name, so that a family of circuits
/// crashes them all. The sequential engine has no threads
/// (`checkpoint_resume.rs` crashes it at every write with every fault).
fn cuts(c: &Circuit<'_>, cfg: &SimConfig, want: &Want<'_>, unit: bool) {
    let mut parallel = vec![EngineKind::Synchronous, EngineKind::Chaotic];
    if unit {
        parallel.push(EngineKind::Compiled);
    }
    let (quiet, active) = pick_cuts(c.netlist, c.end.ticks());
    // (engine, interval, threads, crash)
    let mut rows: Vec<(EngineKind, u64, usize, bool)> = Vec::new();
    for &kind in [EngineKind::Sequential].iter().chain(&parallel) {
        rows.extend(quiet.map(|ticks| (kind, ticks, 1, false)));
        rows.extend(c.cuts.iter().map(|&ticks| (kind, ticks, 2, false)));
    }
    match (c.cuts.first(), active) {
        (Some(&ticks), _) => rows.extend(parallel.iter().map(|&kind| (kind, ticks, 2, true))),
        (None, Some(ticks)) => rows.push((parallel[c.name.len() % parallel.len()], ticks, 2, true)),
        (None, None) => {}
    }
    for (kind, ticks, threads, crash) in rows {
        let tag = format!(
            "{}: checkpoint {} x{threads} every {ticks}{}",
            c.name,
            kind.name(),
            if crash { ", crashed, resumed x1" } else { "" }
        );
        let dir = fresh_checkpoint_dir();
        let ckpt = cfg
            .clone()
            .threads(threads)
            .with_checkpoint_dir(&dir)
            .with_checkpoint_every(ticks);
        let r = if crash {
            let fault = FaultPlan::storage_fault(1, StorageFault::FsyncCrash);
            match checkpoint::run(kind, c.netlist, &ckpt.clone().with_fault(fault)) {
                Err(SimError::Checkpoint(CheckpointError::InjectedCrash { .. })) => {}
                other => panic!(
                    "{tag}: expected the injected crash, got {:?}",
                    other.map(|_| ())
                ),
            }
            checkpoint::resume(kind, c.netlist, &ckpt.threads(1))
        } else {
            checkpoint::run(kind, c.netlist, &ckpt)
        };
        want.same(&tag, &r.unwrap_or_else(|e| panic!("{tag}: {e}")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
