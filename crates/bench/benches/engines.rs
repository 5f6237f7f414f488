//! Wall-clock benchmarks of the four real engines.
//!
//! On this single-core host, thread counts above 1 measure
//! oversubscription overhead rather than speed-up — the interesting
//! single-core comparisons are engine-vs-engine at one thread (the §5
//! uniprocessor story) and the per-event costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parsim_bench::{bench_array, quick};
use parsim_circuits::gate_multiplier;
use parsim_core::{ChaoticAsync, CompiledMode, EventDriven, SimConfig, SyncEventDriven};
use parsim_logic::Time;

fn engines_on_inverter_array(c: &mut Criterion) {
    let q = quick();
    let arr = bench_array();
    let cfg = SimConfig::new(Time(400));
    let mut g = c.benchmark_group("engines_inverter_array");
    g.sample_size(q.sample_size)
        .measurement_time(std::time::Duration::from_secs_f64(q.measurement_secs))
        .warm_up_time(std::time::Duration::from_millis(q.warmup_millis));
    g.bench_function("event_driven", |b| {
        b.iter(|| EventDriven::run(&arr.netlist, &cfg).unwrap())
    });
    g.bench_function("sync_x1", |b| {
        b.iter(|| SyncEventDriven::run(&arr.netlist, &cfg).unwrap())
    });
    g.bench_function("compiled_x1", |b| {
        b.iter(|| CompiledMode::run(&arr.netlist, &cfg).unwrap())
    });
    g.bench_function("async_x1", |b| {
        b.iter(|| ChaoticAsync::run(&arr.netlist, &cfg).unwrap())
    });
    g.finish();
}

fn async_thread_overhead(c: &mut Criterion) {
    let q = quick();
    let arr = bench_array();
    let cfg = SimConfig::new(Time(300));
    let mut g = c.benchmark_group("async_thread_overhead");
    g.sample_size(q.sample_size)
        .measurement_time(std::time::Duration::from_secs_f64(q.measurement_secs))
        .warm_up_time(std::time::Duration::from_millis(q.warmup_millis));
    for threads in [1usize, 2] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| ChaoticAsync::run(&arr.netlist, &cfg.clone().threads(t)).unwrap())
        });
    }
    g.finish();
}

fn gate_multiplier_throughput(c: &mut Criterion) {
    let q = quick();
    let m = gate_multiplier(8, &[(123, 231), (250, 250)], 160).expect("valid circuit");
    let cfg = SimConfig::new(m.schedule_end());
    let mut g = c.benchmark_group("gate_multiplier");
    g.sample_size(q.sample_size)
        .measurement_time(std::time::Duration::from_secs_f64(q.measurement_secs))
        .warm_up_time(std::time::Duration::from_millis(q.warmup_millis));
    g.bench_function("event_driven", |b| {
        b.iter(|| EventDriven::run(&m.netlist, &cfg).unwrap())
    });
    g.bench_function("async_x1", |b| {
        b.iter(|| ChaoticAsync::run(&m.netlist, &cfg).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    engines_on_inverter_array,
    async_thread_overhead,
    gate_multiplier_throughput
);
criterion_main!(benches);
