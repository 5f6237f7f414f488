//! Oracle equivalence between the telemetry registry and [`Metrics`].
//!
//! The registry is the *same run* counted a second way: engines publish
//! batched deltas into per-worker shards while also accumulating their
//! own `Metrics`. If the two ever disagree the publish cadence dropped
//! or double-counted a delta somewhere, so the end-of-run aggregate must
//! match the merged `Metrics` *exactly* — every counter, every histogram
//! bucket — for all four engines, with in-run sampling both off and on.
//!
//! `MonitorWakeups` is the one deliberate exclusion: it counts sampler
//! ticks, which have no `Metrics` counterpart. `CheckpointRestoreNs`
//! does not exist as a counter at all (restores happen before the run's
//! registry is created), so `Metrics::checkpoint.restore_ns` has no
//! registry twin either.

use std::time::Duration;

use parsim_circuits::inverter_array;
use parsim_core::{
    ChaoticAsync, CompiledMode, EventDriven, Metrics, SimConfig, SyncEventDriven,
};
use parsim_logic::Time;
use parsim_netlist::Netlist;
use parsim_telemetry::{Counter, RunTelemetry, Snapshot};

/// Every counter with a `Metrics` twin, and the twin's value.
fn expected(m: &Metrics) -> Vec<(Counter, u64)> {
    let busy: u64 = m.per_thread.iter().map(|t| t.busy.as_nanos() as u64).sum();
    let idle: u64 = m.per_thread.iter().map(|t| t.idle.as_nanos() as u64).sum();
    vec![
        (Counter::EventsProcessed, m.events_processed),
        (Counter::Evaluations, m.evaluations),
        (Counter::Activations, m.activations),
        (Counter::TimeSteps, m.time_steps),
        (Counter::LocalHits, m.locality.local_hits),
        (Counter::GridSends, m.locality.grid_sends),
        (Counter::GridBatches, m.locality.grid_batches),
        (Counter::Steals, m.locality.steals),
        (Counter::BackoffParks, m.locality.backoff_parks),
        (Counter::PoolMisses, m.pool_misses),
        (Counter::MailboxRecycled, m.arena.mailbox_recycled),
        (Counter::GcChunksFreed, m.gc_chunks_freed),
        (Counter::BlocksSkipped, m.blocks_skipped),
        (Counter::EvalsSkipped, m.evals_skipped),
        (Counter::ArenaChunkAllocs, m.arena.chunk_allocs),
        (Counter::ArenaChunkFrees, m.arena.chunk_frees),
        (Counter::CheckpointWrites, m.checkpoint.writes),
        (Counter::CheckpointBytes, m.checkpoint.bytes),
        (Counter::CheckpointWriteNs, m.checkpoint.write_ns),
        (Counter::BusyNs, busy),
        (Counter::IdleNs, idle),
    ]
}

fn assert_finals_match(label: &str, finals: &Snapshot, m: &Metrics) {
    for (c, want) in expected(m) {
        assert_eq!(
            finals.counter(c),
            want,
            "{label}: registry {c:?} diverges from Metrics"
        );
    }
    let h = &finals.hist;
    assert_eq!(h.count, m.events_per_step.steps(), "{label}: hist step count");
    assert_eq!(h.sum, m.events_per_step.events(), "{label}: hist event sum");
    assert_eq!(h.max, m.events_per_step.max(), "{label}: hist max");
}

/// Sampled runs must also be *internally* consistent: every in-run
/// sample is monotone in counters, and the last sample IS the finals.
fn assert_samples_consistent(label: &str, run: &RunTelemetry) {
    let last = run.samples.last().unwrap_or_else(|| {
        panic!("{label}: sampling was on but the ring is empty")
    });
    for (c, v) in expected_counters_of(&last.snap) {
        assert_eq!(
            v,
            run.finals.counter(c),
            "{label}: final sample disagrees with finals on {c:?}"
        );
    }
    for pair in run.samples.windows(2) {
        assert!(pair[0].t_ns <= pair[1].t_ns, "{label}: sample times regress");
        for (c, v) in expected_counters_of(&pair[0].snap) {
            assert!(
                v <= pair[1].snap.counter(c),
                "{label}: counter {c:?} regressed between samples"
            );
        }
    }
}

/// All monotone counters of a snapshot (excludes nothing — even
/// `MonitorWakeups` must be monotone across samples).
fn expected_counters_of(s: &Snapshot) -> Vec<(Counter, u64)> {
    Counter::ALL.iter().map(|&c| (c, s.counter(c))).collect()
}

fn circuit() -> parsim_circuits::InverterArray {
    inverter_array(8, 8, 2).unwrap()
}

fn run_all(netlist: &Netlist, cfg: &SimConfig, label: &str, sampled: bool) {
    let seq = EventDriven::run(netlist, cfg).unwrap();
    let rt = seq.telemetry.as_ref().expect("seq telemetry missing");
    assert_finals_match(&format!("{label}/seq"), &rt.finals, &seq.metrics);
    if sampled {
        assert_samples_consistent(&format!("{label}/seq"), rt);
    }

    for threads in [1, 2, 4] {
        let cfg_t = cfg.clone().threads(threads);
        for (name, result) in [
            ("sync", SyncEventDriven::run(netlist, &cfg_t).unwrap()),
            ("async", ChaoticAsync::run(netlist, &cfg_t).unwrap()),
            ("compiled", CompiledMode::run(netlist, &cfg_t).unwrap()),
        ] {
            let tag = format!("{label}/{name} x{threads}");
            let rt = result
                .telemetry
                .as_ref()
                .unwrap_or_else(|| panic!("{tag}: telemetry missing"));
            assert_finals_match(&tag, &rt.finals, &result.metrics);
            if sampled {
                assert_samples_consistent(&tag, rt);
            }
        }
    }
}

#[test]
fn registry_matches_metrics_unsampled() {
    let arr = circuit();
    let cfg = SimConfig::new(Time(120)).watch_all(arr.taps.clone());
    run_all(&arr.netlist, &cfg, "unsampled", false);
}

#[test]
fn registry_matches_metrics_sampled() {
    let arr = circuit();
    // An aggressive 1 ms cadence so short test runs still catch a few
    // in-flight snapshots; finals equality must hold regardless of how
    // many ticks landed mid-run.
    let cfg = SimConfig::new(Time(120))
        .watch_all(arr.taps.clone())
        .sample_every(Duration::from_millis(1));
    run_all(&arr.netlist, &cfg, "sampled", true);
}

#[test]
fn sampling_does_not_change_waveforms() {
    let arr = circuit();
    let cfg = SimConfig::new(Time(120)).watch_all(arr.taps.clone());
    let plain = ChaoticAsync::run(&arr.netlist, &cfg.clone().threads(2)).unwrap();
    let sampled = ChaoticAsync::run(
        &arr.netlist,
        &cfg.threads(2).sample_every(Duration::from_millis(1)),
    )
    .unwrap();
    parsim_core::assert_equivalent(&plain, &sampled, "sampled vs unsampled");
}
