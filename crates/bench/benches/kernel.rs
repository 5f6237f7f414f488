//! Scalar vs word-parallel compiled-mode kernel.
//!
//! Compares one scalar `CompiledMode::run` pass against a 64-lane
//! `CompiledMode::run_batch` pass on three circuits: ISCAS c17, the
//! inverter array, and a random gate netlist. The batch pass does 64
//! simulations' worth of work per iteration, so an iteration that is
//! less than 64× slower than the scalar one is a net win; end-to-end
//! throughput numbers come from the benchmark in `benchmark/`.
//!
//! Setting `PARSIM_BENCH_QUICK` shrinks sample counts and measurement
//! windows so CI can smoke-test the benchmark without paying for
//! statistics.

use criterion::{criterion_group, criterion_main, Criterion};
use parsim_bench::{bench_array, quick};
use parsim_circuits::{random_circuit, RandomCircuitParams};
use parsim_core::{CompiledMode, LaneStimulus, SimConfig};
use parsim_logic::Time;
use parsim_netlist::bench_fmt::{from_bench, BenchOptions, C17};
use parsim_netlist::Netlist;

fn settings() -> parsim_bench::criterion_config::Settings {
    let mut q = quick();
    if std::env::var_os("PARSIM_BENCH_QUICK").is_some() {
        q.sample_size = 10; // criterion's floor
        q.measurement_secs = 0.05;
        q.warmup_millis = 10;
    }
    q
}

fn base_lanes(n: usize) -> Vec<LaneStimulus> {
    (0..n).map(|_| LaneStimulus::base()).collect()
}

fn scalar_vs_packed(c: &mut Criterion, group: &str, netlist: &Netlist, end: Time) {
    let q = settings();
    let cfg = SimConfig::new(end);
    let lanes = base_lanes(64);
    let mut g = c.benchmark_group(group);
    g.sample_size(q.sample_size)
        .measurement_time(std::time::Duration::from_secs_f64(q.measurement_secs))
        .warm_up_time(std::time::Duration::from_millis(q.warmup_millis));
    g.bench_function("scalar_x1", |b| {
        b.iter(|| CompiledMode::run(netlist, &cfg).unwrap())
    });
    g.bench_function("packed_64_lanes", |b| {
        b.iter(|| CompiledMode::run_batch(netlist, &cfg, &lanes).unwrap())
    });
    g.finish();
}

fn kernel_c17(c: &mut Criterion) {
    let circuit = from_bench(C17, &BenchOptions::default()).expect("c17 parses");
    scalar_vs_packed(c, "kernel_c17", &circuit.netlist, Time(2000));
}

fn kernel_inverter_array(c: &mut Criterion) {
    let arr = bench_array();
    scalar_vs_packed(c, "kernel_inverter_array", &arr.netlist, Time(400));
}

fn kernel_random_gates(c: &mut Criterion) {
    let params = RandomCircuitParams {
        elements: 300,
        inputs: 12,
        seq_fraction: 0.1,
        max_delay: 3,
        seed: 42,
    };
    let circuit = random_circuit(&params).expect("generator is self-consistent");
    scalar_vs_packed(c, "kernel_random_gates", &circuit.netlist, Time(500));
}

criterion_group!(benches, kernel_c17, kernel_inverter_array, kernel_random_gates);
criterion_main!(benches);
