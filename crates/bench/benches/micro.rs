//! Microbenchmarks of the lock-free substrate and evaluation kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use parsim_bench::quick;
use parsim_logic::{evaluate, ElemState, ElementKind, Value};
use parsim_queue::{channel, grid, ActivationState};

fn spsc_throughput(c: &mut Criterion) {
    let q = quick();
    let mut g = c.benchmark_group("spsc");
    g.sample_size(q.sample_size)
        .measurement_time(std::time::Duration::from_secs_f64(q.measurement_secs))
        .warm_up_time(std::time::Duration::from_millis(q.warmup_millis));
    g.bench_function("send_recv_1k", |b| {
        b.iter(|| {
            let (mut tx, mut rx) = channel::<u64>();
            for i in 0..1000 {
                tx.send(i);
            }
            let mut sum = 0u64;
            while let Some(v) = rx.recv() {
                sum = sum.wrapping_add(v);
            }
            sum
        })
    });
    g.bench_function("grid4_scatter_1k", |b| {
        b.iter(|| {
            let (mut senders, mut receivers) = grid::<u64>(4);
            for i in 0..1000 {
                senders[(i % 4) as usize].send(i);
            }
            let mut sum = 0u64;
            for rx in receivers.iter_mut() {
                while let Some(v) = rx.recv() {
                    sum = sum.wrapping_add(v);
                }
            }
            sum
        })
    });
    g.finish();
}

fn activation_machine(c: &mut Criterion) {
    let q = quick();
    let mut g = c.benchmark_group("activation");
    g.sample_size(q.sample_size)
        .measurement_time(std::time::Duration::from_secs_f64(q.measurement_secs))
        .warm_up_time(std::time::Duration::from_millis(q.warmup_millis));
    g.bench_function("activate_run_cycle", |b| {
        let st = ActivationState::new();
        b.iter(|| {
            if st.try_activate() {
                st.begin_run();
                let _ = st.finish_run();
            }
        })
    });
    g.finish();
}

fn evaluation_kernel(c: &mut Criterion) {
    let q = quick();
    let mut g = c.benchmark_group("evaluate");
    g.sample_size(q.sample_size)
        .measurement_time(std::time::Duration::from_secs_f64(q.measurement_secs))
        .warm_up_time(std::time::Duration::from_millis(q.warmup_millis));
    let a = Value::from_u64(0xa5a5, 16);
    let bb = Value::from_u64(0x5a5a, 16);
    let cin = Value::bit(false);
    g.bench_function("nand2", |b| {
        let mut st = ElemState::None;
        let x = Value::bit(true);
        let y = Value::bit(false);
        b.iter(|| evaluate(&ElementKind::Nand, &[x, y], &mut st))
    });
    g.bench_function("adder16", |b| {
        let mut st = ElemState::None;
        b.iter(|| evaluate(&ElementKind::Adder { width: 16 }, &[a, bb, cin], &mut st))
    });
    g.bench_function("dff", |b| {
        let kind = ElementKind::Dff { width: 16 };
        let mut st = ElemState::init(&kind);
        let clk = Value::bit(true);
        b.iter(|| evaluate(&kind, &[clk, a], &mut st))
    });
    g.finish();
}

criterion_group!(benches, spsc_throughput, activation_machine, evaluation_kernel);
criterion_main!(benches);
