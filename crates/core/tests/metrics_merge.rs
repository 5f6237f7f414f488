//! Property: [`Metrics::merge`] has `Metrics::default()` as its identity
//! on both sides — the server stitches a job's slices by merging each
//! later slice into the first (`SimResult::append_segment`), so a slice
//! that did nothing must not move any field.
//!
//! The vendored proptest has no collection strategies, so the metrics
//! are derived deterministically from a generated seed: the counters
//! come from a splitmix64 stream keyed by it.

use std::time::Duration;

use parsim_core::{LocalityMetrics, Metrics, ThreadMetrics};
use proptest::prelude::*;

/// splitmix64: cheap, well-mixed stream for deriving counter values.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds one slice's metrics from a deterministic stream. Counters are
/// kept small so sums never overflow, and every field — including the
/// histogram, locality counters, and a per-thread entry — is exercised.
fn slice_metrics(seed: u64) -> Metrics {
    let mut s = seed;
    let mut m = Metrics {
        events_processed: mix(&mut s) % 10_000,
        evaluations: mix(&mut s) % 10_000,
        activations: mix(&mut s) % 10_000,
        time_steps: mix(&mut s) % 1_000,
        gc_chunks_freed: mix(&mut s) % 100,
        blocks_skipped: mix(&mut s) % 100,
        evals_skipped: mix(&mut s) % 100,
        quiet_steps: mix(&mut s) % 100,
        pool_misses: mix(&mut s) % 100,
        // max-merged, like wall: the run's lane width is the widest any
        // chunk used.
        lane_width: 64 << (mix(&mut s) % 4),
        locality: LocalityMetrics {
            local_hits: mix(&mut s) % 1_000,
            grid_sends: mix(&mut s) % 1_000,
            grid_batches: mix(&mut s) % 500,
            backoff_parks: mix(&mut s) % 100,
        },
        wall: Duration::from_nanos(mix(&mut s) % 5_000_000),
        ..Metrics::default()
    };
    // A few histogram records spanning several buckets, plus the
    // occasional empty histogram (merge must tolerate both sides).
    for _ in 0..(mix(&mut s) % 5) {
        m.events_per_step.record(mix(&mut s) % 300);
    }
    m.per_thread.push(ThreadMetrics {
        busy: Duration::from_nanos(mix(&mut s) % 1_000_000),
        idle: Duration::from_nanos(mix(&mut s) % 1_000_000),
        evaluations: mix(&mut s) % 10_000,
        events: mix(&mut s) % 10_000,
        sched: LocalityMetrics {
            local_hits: mix(&mut s) % 1_000,
            grid_sends: mix(&mut s) % 1_000,
            grid_batches: mix(&mut s) % 500,
            backoff_parks: mix(&mut s) % 100,
        },
    });
    m
}

/// Field-by-field equality check (`Metrics` has no `PartialEq`: its
/// engine-facing API never needs one, and deriving it just for tests
/// would invite accidental float comparisons elsewhere).
fn assert_metrics_eq(a: &Metrics, b: &Metrics) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.events_processed, b.events_processed);
    prop_assert_eq!(a.evaluations, b.evaluations);
    prop_assert_eq!(a.activations, b.activations);
    prop_assert_eq!(a.time_steps, b.time_steps);
    prop_assert_eq!(a.gc_chunks_freed, b.gc_chunks_freed);
    prop_assert_eq!(a.blocks_skipped, b.blocks_skipped);
    prop_assert_eq!(a.evals_skipped, b.evals_skipped);
    prop_assert_eq!(a.quiet_steps, b.quiet_steps);
    prop_assert_eq!(a.pool_misses, b.pool_misses);
    prop_assert_eq!(a.lane_width, b.lane_width);
    prop_assert_eq!(a.wall, b.wall);
    prop_assert_eq!(&a.events_per_step, &b.events_per_step);
    prop_assert_eq!(a.locality, b.locality);
    prop_assert_eq!(a.per_thread.len(), b.per_thread.len());
    for (x, y) in a.per_thread.iter().zip(&b.per_thread) {
        prop_assert_eq!(x.busy, y.busy);
        prop_assert_eq!(x.idle, y.idle);
        prop_assert_eq!(x.evaluations, y.evaluations);
        prop_assert_eq!(x.events, y.events);
        prop_assert_eq!(x.sched, y.sched);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merging_empty_metrics_is_identity(seed in any::<u64>()) {
        let w = slice_metrics(seed);
        let mut left = Metrics::default();
        left.merge(&w);
        let mut right = w.clone();
        right.merge(&Metrics::default());
        assert_metrics_eq(&left, &right)?;
        assert_metrics_eq(&left, &w)?;
    }
}
