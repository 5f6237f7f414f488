//! Zero-step and pre-publish exposition edges: a run that never advances
//! time (end = 0) and a registry snapshotted before the engine publishes
//! anything must still render lint-clean Prometheus text and valid
//! series JSON — no NaN, no negative utilization, no histogram whose
//! `_count` disagrees with its `+Inf` bucket. Plus the sampler's own
//! contract on real runs: the sample series only moves forward, ends on
//! the finals, and leaves the waveforms alone.

use parsim_core::{ChaoticAsync, CompiledMode, EventDriven, SimConfig, SyncEventDriven};
use parsim_logic::{Delay, ElementKind, Time};
use parsim_netlist::{Builder, Netlist};
use parsim_telemetry::{prometheus, series, Hub};

fn tiny() -> Netlist {
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    let q = b.node("q", 1);
    b.element("osc", ElementKind::Clock { half_period: 2, offset: 2 }, Delay(1), &[], &[clk])
        .unwrap();
    b.element("inv", ElementKind::Not, Delay(1), &[clk], &[q]).unwrap();
    b.finish().unwrap()
}

/// Every sample value in the exposition must be a finite, non-negative
/// number (the registry has no legitimately negative family).
fn assert_values_sane(prom: &str) {
    for line in prom.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let value = line.rsplit(' ').next().unwrap();
        let parsed: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value {value:?} in line {line:?}"));
        assert!(parsed.is_finite(), "non-finite value in {line:?}");
        assert!(parsed >= 0.0, "negative value in {line:?}");
    }
    assert!(!prom.contains("NaN"), "exposition must never print NaN");
}

/// Histogram `_count` must equal the `+Inf` cumulative bucket.
fn assert_histograms_consistent(prom: &str) {
    let inf_of = |name: &str| -> Option<f64> {
        prom.lines()
            .find(|l| l.starts_with(name) && l.contains("le=\"+Inf\""))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
    };
    for line in prom.lines() {
        if let Some((name, value)) = line.split_once("_count ") {
            let count: f64 = value.trim().parse().unwrap();
            if let Some(inf) = inf_of(&format!("{name}_bucket")) {
                assert_eq!(count, inf, "histogram {name}: _count vs +Inf bucket");
            }
        }
    }
}

fn check_run(engine: &str, run: impl FnOnce(&Netlist, &SimConfig) -> bool) {
    let netlist = tiny();
    let hub = Hub::new();
    // end = 0: the engine starts, publishes its registry, and retires
    // without a single step of simulated time.
    let cfg = SimConfig::new(Time(0)).threads(2).with_telemetry_hub(hub.clone());
    assert!(run(&netlist, &cfg), "{engine}: zero-step run must succeed");
    let ctx = hub.get().unwrap_or_else(|| panic!("{engine}: engine installed no telemetry"));
    let prom = prometheus::render(&ctx.registry);
    prometheus::lint(&prom).unwrap_or_else(|e| panic!("{engine}: lint: {e}\n{prom}"));
    assert_values_sane(&prom);
    assert_histograms_consistent(&prom);
    // The series document of the (sample-free) run is still valid JSON
    // whose final totals match the registry.
    let doc = series::render_json(&ctx.finish());
    parsim_trace::json::lint(&doc).unwrap_or_else(|e| panic!("{engine}: series json: {e}\n{doc}"));
    assert!(!doc.contains("NaN"), "{engine}: series must never print NaN");
}

#[test]
fn zero_step_runs_render_lint_clean_expositions() {
    check_run("seq", |n, c| EventDriven::run(n, c).is_ok());
    check_run("sync", |n, c| SyncEventDriven::run(n, c).is_ok());
    check_run("compiled", |n, c| CompiledMode::run(n, c).is_ok());
    check_run("async", |n, c| ChaoticAsync::run(n, c).is_ok());
}

#[test]
fn pre_publish_snapshot_renders_lint_clean() {
    // The in-run sampler (and /metrics scrapes) can observe the registry
    // before any worker publishes — and, worse, mid-publish. A fresh
    // registry must already render lint-clean with sane values.
    let hub = Hub::new();
    let netlist = tiny();
    let cfg = SimConfig::new(Time(0)).with_telemetry_hub(hub.clone());
    EventDriven::run(&netlist, &cfg).unwrap();
    let ctx = hub.get().unwrap();
    // Snapshot-then-render, the same path the sampler takes.
    let snap = ctx.registry.snapshot();
    let _ = snap; // the snapshot itself must not panic on an empty run
    let prom = prometheus::render(&ctx.registry);
    prometheus::lint(&prom).expect("pre-publish exposition lints");
    assert_values_sane(&prom);
    assert_histograms_consistent(&prom);
}

#[test]
fn empty_series_document_is_valid_json() {
    // A hub whose run ends before the first sampler tick yields a
    // RunTelemetry with zero samples; its JSON must still lint.
    let hub = Hub::new();
    let cfg = SimConfig::new(Time(0)).with_telemetry_hub(hub.clone());
    EventDriven::run(&tiny(), &cfg).unwrap();
    let run = hub.get().unwrap().finish();
    assert!(run.samples.is_empty(), "no sampler armed, no samples");
    let doc = series::render_json(&run);
    parsim_trace::json::lint(&doc).expect("sample-free series document lints");
}

#[test]
fn sampled_runs_are_monotone_end_on_finals_and_keep_waveforms() {
    // With the in-run sampler armed (an aggressive 1 ms cadence so short
    // runs still catch in-flight snapshots), every engine's sample series
    // must move only forward, its last sample must be the run's finals,
    // and sampling must not change the waveforms.
    let arr = parsim_circuits::inverter_array(8, 8, 2).unwrap();
    let plain = SimConfig::new(Time(120)).watch_all(arr.taps.clone()).threads(2);
    let sampled = plain.clone().sample_every(std::time::Duration::from_millis(1));
    type Run = fn(&Netlist, &SimConfig) -> Result<parsim_core::SimResult, parsim_core::SimError>;
    let engines: [(&str, Run); 4] = [
        ("seq", EventDriven::run),
        ("sync", SyncEventDriven::run),
        ("compiled", CompiledMode::run),
        ("async", ChaoticAsync::run),
    ];
    for (engine, run) in engines {
        let reference = run(&arr.netlist, &plain).unwrap();
        let result = run(&arr.netlist, &sampled).unwrap();
        parsim_core::assert_equivalent(&reference, &result, engine);
        let rt = result.telemetry.as_ref().expect("telemetry is always on");
        let last = rt.samples.last().unwrap_or_else(|| panic!("{engine}: empty sample ring"));
        assert_eq!(last.snap, rt.finals, "{engine}: last sample is not the finals");
        for pair in rt.samples.windows(2) {
            assert!(pair[0].t_ns <= pair[1].t_ns, "{engine}: sample times regress");
            for c in parsim_telemetry::Counter::ALL {
                assert!(
                    pair[0].snap.counter(c) <= pair[1].snap.counter(c),
                    "{engine}: {c:?} regressed between samples"
                );
            }
        }
    }
}
