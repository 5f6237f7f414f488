//! Crash-consistent checkpoint/restore: segmented runs must be
//! bit-identical to uninterrupted ones on every engine, resume must
//! continue from the newest valid snapshot after a simulated crash, and
//! recovery must survive every storage fault the write protocol can
//! suffer — torn writes at every byte, silent bit flips, fsync and
//! rename crashes — without panicking, hanging, or changing a waveform.
//! The equivalence driver (`support::check`) cuts every circuit it is
//! given on every engine and crashes it on one; this file holds the
//! storage faults, the guard rails and the carry of in-flight events.

mod support;

use std::fs;
use std::path::PathBuf;

use parsim_circuits::{inverter_array, random_circuit};
use parsim_core::{
    checkpoint, equivalence_report, CheckpointError, CheckpointStore, CompiledMode, EngineKind,
    EngineSnapshot, EventDriven, FaultPlan, LaneStimulus, SimConfig, SimError, StorageFault,
};
use parsim_checkpoint::PendingEvent;
use parsim_logic::{Delay, ElementKind, Time};
use parsim_netlist::Builder;
use proptest::prelude::*;

use support::{check, random_params, Circuit};

const ALL_ENGINES: [EngineKind; 4] = [
    EngineKind::Sequential,
    EngineKind::Synchronous,
    EngineKind::Compiled,
    EngineKind::Chaotic,
];

/// A fresh scratch directory, unique per test *and* process, so
/// parallel test binaries never collide.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parsim-ckpt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Unit-delay circuit every engine (including compiled mode) can run.
fn test_circuit() -> (parsim_netlist::Netlist, Vec<parsim_netlist::NodeId>) {
    let arr = inverter_array(8, 6, 2).unwrap();
    let mut watch = arr.taps.clone();
    watch.extend(arr.inputs.iter().copied());
    (arr.netlist, watch)
}

fn expect_injected_crash(err: SimError) {
    match err {
        SimError::Checkpoint(CheckpointError::InjectedCrash { .. }) => {}
        other => panic!("expected injected crash, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Segmented == uninterrupted, all engines
// ---------------------------------------------------------------------------

/// The driver cuts every engine every 60 ticks and at a quiet tick, and
/// crashes every parallel one every 60 ticks while committing a snapshot
/// and resumes it at another thread count (the sequential one crashes in
/// every way below); here the checkpoint counters of the 60-tick cuts.
#[test]
fn checkpointed_run_matches_uninterrupted_all_engines() {
    let (netlist, watch) = test_circuit();
    let circuit = Circuit::new("inverter array 8x6", &netlist, watch.clone(), Time(400));
    check(&circuit.cut_every(60));
    for kind in ALL_ENGINES {
        let dir = tmpdir(&format!("seg-{}", kind.name()));
        let cfg = SimConfig::new(Time(400))
            .watch_all(watch.clone())
            .threads(2)
            .with_checkpoint_dir(&dir)
            .with_checkpoint_every(60);
        let r = checkpoint::run(kind, &netlist, &cfg).unwrap();
        // Cuts at 60..360 → six captured snapshots, and the counters
        // must say so.
        assert_eq!(r.metrics.checkpoint.writes, 6, "{}", kind.name());
        assert!(r.metrics.checkpoint.bytes > 0, "{}", kind.name());
        // Seven segments, still one row per worker (the sequential
        // engine measures no busy/idle time and reports none).
        let rows = if kind == EngineKind::Sequential { 0 } else { 2 };
        assert_eq!(r.metrics.per_thread.len(), rows, "{}", kind.name());
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn interval_larger_than_run_is_one_plain_segment() {
    let (netlist, watch) = test_circuit();
    let dir = tmpdir("oneseg");
    let cfg = SimConfig::new(Time(100))
        .watch_all(watch.clone())
        .with_checkpoint_dir(&dir)
        .with_checkpoint_every(1000);
    let r = checkpoint::run(EngineKind::Sequential, &netlist, &cfg).unwrap();
    let oracle =
        EventDriven::run(&netlist, &SimConfig::new(Time(100)).watch_all(watch)).unwrap();
    assert!(equivalence_report(&oracle, &r).is_equivalent());
    assert_eq!(r.metrics.checkpoint.writes, 0, "final segment never captures");
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Crash + resume, all engines, every protocol phase
// ---------------------------------------------------------------------------

#[test]
fn every_fault_kind_at_every_write_recovers() {
    let (netlist, watch) = test_circuit();
    let oracle = EventDriven::run(&netlist, &SimConfig::new(Time(300)).watch_all(watch.clone()))
        .unwrap();
    let faults = [
        StorageFault::TornWrite { at_byte: 100 },
        StorageFault::BitFlip { at_byte: 41 },
        StorageFault::FsyncCrash,
        StorageFault::RenameCrash,
    ];
    // end 300, every 60 → four capturing cuts (60..240), so writes 0..=3.
    for fault in faults {
        for nth in 0..4u64 {
            let dir = tmpdir(&format!("phase-{fault:?}-{nth}").replace([' ', '{', '}', ':'], ""));
            let cfg = SimConfig::new(Time(300))
                .watch_all(watch.clone())
                .with_checkpoint_dir(&dir)
                .with_checkpoint_every(60);
            let crashing = cfg.clone().with_fault(FaultPlan::storage_fault(nth, fault));
            match checkpoint::run(EngineKind::Sequential, &netlist, &crashing) {
                // A bit flip is silent at write time: the run completes
                // and only a later load can notice.
                Ok(r) => {
                    assert!(matches!(fault, StorageFault::BitFlip { .. }), "{fault:?}");
                    assert!(equivalence_report(&oracle, &r).is_equivalent());
                }
                Err(e) => expect_injected_crash(e),
            }
            // Recovery: fall back past whatever the fault left behind and
            // still finish with the oracle's exact waveforms.
            let r = checkpoint::resume(EngineKind::Sequential, &netlist, &cfg).unwrap();
            let rep = equivalence_report(&oracle, &r);
            assert!(rep.is_equivalent(), "{fault:?} at write {nth}: {rep}");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn torn_newest_falls_back_to_previous_snapshot() {
    let (netlist, watch) = test_circuit();
    let dir = tmpdir("fallback");
    let cfg = SimConfig::new(Time(300))
        .watch_all(watch.clone())
        .with_checkpoint_dir(&dir)
        .with_checkpoint_every(60);
    // Write 0 commits clean; write 1 commits a torn file then dies.
    let crashing = cfg.clone().with_fault(FaultPlan::storage_fault(
        1,
        StorageFault::TornWrite { at_byte: 64 },
    ));
    expect_injected_crash(
        checkpoint::run(EngineKind::Sequential, &netlist, &crashing).unwrap_err(),
    );

    // The store itself must report the fallback: newest is skipped as
    // corrupt, the previous snapshot loads.
    let digest = checkpoint::netlist_digest(&netlist);
    let store = CheckpointStore::open(&dir, digest, 4).unwrap();
    let rec = store.recover().unwrap();
    assert_eq!(rec.skipped.len(), 1, "torn newest must be skipped");
    assert!(matches!(
        rec.skipped[0].1,
        CheckpointError::Corrupt { .. }
    ));
    assert_eq!(rec.snapshot.as_ref().map(|s| s.time), Some(60));

    let oracle =
        EventDriven::run(&netlist, &SimConfig::new(Time(300)).watch_all(watch)).unwrap();
    let r = checkpoint::resume(EngineKind::Sequential, &netlist, &cfg).unwrap();
    assert!(equivalence_report(&oracle, &r).is_equivalent());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_before_any_commit_resumes_fresh() {
    let (netlist, watch) = test_circuit();
    let dir = tmpdir("fresh");
    let cfg = SimConfig::new(Time(200))
        .watch_all(watch.clone())
        .with_checkpoint_dir(&dir)
        .with_checkpoint_every(50);
    let crashing = cfg
        .clone()
        .with_fault(FaultPlan::storage_fault(0, StorageFault::RenameCrash));
    expect_injected_crash(
        checkpoint::run(EngineKind::Sequential, &netlist, &crashing).unwrap_err(),
    );
    // Nothing committed — only a stale temp file may exist.
    let digest = checkpoint::netlist_digest(&netlist);
    let store = CheckpointStore::open(&dir, digest, 4).unwrap();
    assert_eq!(store.num_snapshots(), 0);

    let oracle =
        EventDriven::run(&netlist, &SimConfig::new(Time(200)).watch_all(watch)).unwrap();
    let r = checkpoint::resume(EngineKind::Sequential, &netlist, &cfg).unwrap();
    assert!(equivalence_report(&oracle, &r).is_equivalent());
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Torn-write matrix: every byte truncation point
// ---------------------------------------------------------------------------

#[test]
fn torn_write_matrix_every_truncation_point() {
    let (netlist, watch) = test_circuit();
    let dir = tmpdir("matrix");
    let cfg = SimConfig::new(Time(200))
        .watch_all(watch.clone())
        .with_checkpoint_dir(&dir)
        .with_checkpoint_every(60)
        .with_checkpoint_keep(8);
    // Crash right after the second commit so steps 1 and 2 are on disk.
    let crashing = cfg
        .clone()
        .with_fault(FaultPlan::storage_fault(2, StorageFault::FsyncCrash));
    expect_injected_crash(
        checkpoint::run(EngineKind::Sequential, &netlist, &crashing).unwrap_err(),
    );

    let digest = checkpoint::netlist_digest(&netlist);
    let store = CheckpointStore::open(&dir, digest, 8).unwrap();
    let newest = dir.join("ckpt-0000000002.psnap");
    let full = fs::read(&newest).unwrap();
    assert!(full.len() > 64, "snapshot should be non-trivial");

    for cut in 0..=full.len() {
        fs::write(&newest, &full[..cut]).unwrap();
        let rec = store
            .recover()
            .unwrap_or_else(|e| panic!("recover must not fail at cut {cut}: {e}"));
        let snap = rec
            .snapshot
            .unwrap_or_else(|| panic!("a fallback must exist at cut {cut}"));
        if cut == full.len() {
            assert_eq!(snap.time, 120, "full file loads fully");
            assert!(rec.skipped.is_empty());
        } else {
            assert_eq!(snap.time, 60, "truncated newest must fall back (cut {cut})");
            assert_eq!(rec.skipped.len(), 1, "cut {cut}");
        }
    }

    // And through the whole driver at representative tear points: the
    // resumed waveforms stay exactly the oracle's.
    let oracle =
        EventDriven::run(&netlist, &SimConfig::new(Time(200)).watch_all(watch)).unwrap();
    for cut in [0, 1, full.len() / 2, full.len() - 1] {
        fs::write(&newest, &full[..cut]).unwrap();
        let r = checkpoint::resume(EngineKind::Sequential, &netlist, &cfg).unwrap();
        let rep = equivalence_report(&oracle, &r);
        assert!(rep.is_equivalent(), "driver resume at cut {cut}: {rep}");
        // The resume re-checkpointed; restore the torn state for the
        // next iteration's scan.
        let _ = fs::remove_dir_all(&dir);
        expect_injected_crash(
            checkpoint::run(EngineKind::Sequential, &netlist, &crashing).unwrap_err(),
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Guard rails
// ---------------------------------------------------------------------------

#[test]
fn resume_with_different_end_time_is_rejected() {
    let (netlist, watch) = test_circuit();
    let dir = tmpdir("horizon");
    let cfg = SimConfig::new(Time(300))
        .watch_all(watch.clone())
        .with_checkpoint_dir(&dir)
        .with_checkpoint_every(60);
    let crashing = cfg
        .clone()
        .with_fault(FaultPlan::storage_fault(1, StorageFault::FsyncCrash));
    expect_injected_crash(
        checkpoint::run(EngineKind::Sequential, &netlist, &crashing).unwrap_err(),
    );
    let other = SimConfig::new(Time(500))
        .watch_all(watch)
        .with_checkpoint_dir(&dir)
        .with_checkpoint_every(60);
    match checkpoint::resume(EngineKind::Sequential, &netlist, &other) {
        Err(SimError::Checkpoint(CheckpointError::EndTimeMismatch { snapshot, config })) => {
            assert_eq!((snapshot, config), (300, 500));
        }
        other => panic!("expected EndTimeMismatch, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_for_different_netlist_is_skipped() {
    let (netlist, watch) = test_circuit();
    let dir = tmpdir("digest");
    let cfg = SimConfig::new(Time(200))
        .watch_all(watch.clone())
        .with_checkpoint_dir(&dir)
        .with_checkpoint_every(60);
    let crashing = cfg
        .clone()
        .with_fault(FaultPlan::storage_fault(1, StorageFault::FsyncCrash));
    expect_injected_crash(
        checkpoint::run(EngineKind::Sequential, &netlist, &crashing).unwrap_err(),
    );

    // A different circuit must refuse these snapshots and start fresh.
    let other = inverter_array(4, 4, 2).unwrap();
    let cfg2 = SimConfig::new(Time(200))
        .watch_all(other.taps.clone())
        .with_checkpoint_dir(&dir)
        .with_checkpoint_every(60);
    let oracle = EventDriven::run(
        &other.netlist,
        &SimConfig::new(Time(200)).watch_all(other.taps.clone()),
    )
    .unwrap();
    let r = checkpoint::resume(EngineKind::Sequential, &other.netlist, &cfg2).unwrap();
    assert!(equivalence_report(&oracle, &r).is_equivalent());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_policy_is_a_typed_error() {
    let (netlist, _) = test_circuit();
    let cfg = SimConfig::new(Time(100));
    match checkpoint::run(EngineKind::Sequential, &netlist, &cfg) {
        Err(SimError::Checkpoint(CheckpointError::BadPolicy { .. })) => {}
        other => panic!("expected BadPolicy, got {other:?}"),
    }
    let cfg = SimConfig::new(Time(100)).with_checkpoint_dir(tmpdir("nopol"));
    match checkpoint::run(EngineKind::Sequential, &netlist, &cfg) {
        Err(SimError::Checkpoint(CheckpointError::BadPolicy { .. })) => {}
        other => panic!("expected BadPolicy for zero interval, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Cross-engine portability
// ---------------------------------------------------------------------------

#[test]
fn snapshots_are_engine_portable() {
    let (netlist, watch) = test_circuit();
    let oracle = EventDriven::run(&netlist, &SimConfig::new(Time(300)).watch_all(watch.clone()))
        .unwrap();
    for capture_kind in ALL_ENGINES {
        for resume_kind in ALL_ENGINES {
            let dir = tmpdir(&format!(
                "xeng-{}-{}",
                capture_kind.name(),
                resume_kind.name()
            ));
            let cfg = SimConfig::new(Time(300))
                .watch_all(watch.clone())
                .threads(2)
                .with_checkpoint_dir(&dir)
                .with_checkpoint_every(70);
            let crashing = cfg
                .clone()
                .with_fault(FaultPlan::storage_fault(1, StorageFault::FsyncCrash));
            expect_injected_crash(
                checkpoint::run(capture_kind, &netlist, &crashing).unwrap_err(),
            );
            let r = checkpoint::resume(resume_kind, &netlist, &cfg).unwrap();
            let rep = equivalence_report(&oracle, &r);
            assert!(
                rep.is_equivalent(),
                "{} -> {}: {rep}",
                capture_kind.name(),
                resume_kind.name()
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

// ---------------------------------------------------------------------------
// The carry: in-flight events past the next cut
// ---------------------------------------------------------------------------

/// The event engines; compiled mode runs every gate at unit delay.
const EVENT_ENGINES: [EngineKind; 3] =
    [EngineKind::Sequential, EngineKind::Synchronous, EngineKind::Chaotic];

/// A clock into a buffer of delay 50, cut every 20 ticks: each snapshot
/// holds buffer events more than one interval past its cut, so the next
/// segment must carry them to its own snapshot unexecuted.
fn carry_circuit() -> (parsim_netlist::Netlist, Vec<parsim_netlist::NodeId>) {
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    let out = b.node("out", 1);
    let osc = ElementKind::Clock { half_period: 9, offset: 3 };
    b.element("osc", osc, Delay(1), &[], &[clk]).unwrap();
    b.element("slow", ElementKind::Buf, Delay(50), &[clk], &[out]).unwrap();
    (b.finish().unwrap(), vec![clk, out])
}

const CARRY_END: u64 = 200;
const CARRY_EVERY: u64 = 20;

fn carry_config(watch: &[parsim_netlist::NodeId], dir: &std::path::Path) -> SimConfig {
    SimConfig::new(Time(CARRY_END))
        .watch_all(watch.to_vec())
        .threads(2)
        .with_checkpoint_dir(dir)
        .with_checkpoint_every(CARRY_EVERY)
}

/// Crashes `kind` during its third checkpoint write and checks what
/// survived: the snapshot at the second cut, holding events past the
/// third.
fn crash_with_carry(kind: EngineKind, netlist: &parsim_netlist::Netlist, cfg: &SimConfig) {
    let crashing = cfg.clone().with_fault(FaultPlan::storage_fault(2, StorageFault::FsyncCrash));
    expect_injected_crash(checkpoint::run(kind, netlist, &crashing).unwrap_err());
    let dir = &cfg.checkpoint.as_ref().unwrap().dir;
    let store = CheckpointStore::open(dir, checkpoint::netlist_digest(netlist), 4).unwrap();
    let snap = store.recover().unwrap().snapshot.expect("two cuts committed");
    assert_eq!(snap.time, 2 * CARRY_EVERY, "{}", kind.name());
    assert!(
        snap.pending.iter().any(|ev| ev.time > snap.time + CARRY_EVERY),
        "{}: no event past the next cut",
        kind.name()
    );
}

#[test]
fn in_flight_events_past_the_next_cut_are_carried() {
    let (netlist, watch) = carry_circuit();
    let circuit = Circuit::new("carry", &netlist, watch.clone(), Time(CARRY_END));
    let oracle = check(&circuit.cut_every(CARRY_EVERY)).oracle;
    for capture_kind in EVENT_ENGINES {
        for resume_kind in EVENT_ENGINES {
            let dir = tmpdir(&format!("carry-{}-{}", capture_kind.name(), resume_kind.name()));
            let cfg = carry_config(&watch, &dir);
            crash_with_carry(capture_kind, &netlist, &cfg);
            let r = checkpoint::resume(resume_kind, &netlist, &cfg).unwrap();
            let rep = equivalence_report(&oracle, &r);
            assert!(
                rep.is_equivalent(),
                "{} -> {}: {rep}",
                capture_kind.name(),
                resume_kind.name()
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// The batch kernel's carry: a lane snapshot whose buffer events lie past
/// the next cut, resumed on one batch lane to that cut, comes back with
/// those events unchanged.
#[test]
fn batch_resume_carries_events_past_its_cut_unchanged() {
    let (netlist, watch) = carry_circuit();
    let cfg = SimConfig::new(Time(CARRY_END)).watch_all(watch);
    let base = LaneStimulus::base();
    let (_, snap) =
        EventDriven::run_lane_segment(&netlist, &cfg, &base, None, Time(CARRY_EVERY)).unwrap();
    let cut = 2 * CARRY_EVERY;
    let past_cut = |snap: &EngineSnapshot| -> Vec<PendingEvent> {
        snap.pending.iter().filter(|ev| ev.time > cut).cloned().collect()
    };
    let carried = past_cut(&snap);
    assert!(!carried.is_empty(), "the lane snapshot holds events past the next cut");
    let (_, snaps) = CompiledMode::run_batch_segment(
        &netlist,
        &cfg,
        &[base],
        Some(std::slice::from_ref(&snap)),
        Time(cut),
    )
    .unwrap();
    assert_eq!(past_cut(&snaps[0]), carried);
}

// ---------------------------------------------------------------------------
// Property: random circuits through the whole matrix
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits through the whole matrix: cut at a quiet tick on
    /// every engine that can run them and crashed mid-run at an active tick
    /// on one, which changes with the circuit, beside every other row. The
    /// vendored proptest does not shrink: a failure names the parameters.
    #[test]
    fn random_circuits_cut_and_resumed_match_the_oracle(params in random_params()) {
        let c = random_circuit(&params).unwrap();
        check(&Circuit::new(format!("{params:?}"), &c.netlist, c.watch.clone(), Time(150)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same at unit delay, where the compiled and batch rows run too.
    #[test]
    fn unit_delay_random_circuits_cut_and_resumed_match_the_oracle(mut params in random_params()) {
        params.max_delay = 1;
        let c = random_circuit(&params).unwrap();
        check(&Circuit::new(format!("{params:?}"), &c.netlist, c.watch.clone(), Time(100)));
    }
}
