//! End-to-end tracing: every engine run with [`SimConfig::with_trace`]
//! yields a drained [`Trace`] whose Chrome export is well-formed JSON and
//! whose [`RunReport`] carries per-phase utilization — and, crucially,
//! waveforms are identical with and without tracing (the hooks must
//! observe, never perturb).

use parsim_core::{
    assert_equivalent, ChaoticAsync, CompiledMode, EventDriven, SimConfig, SyncEventDriven,
    TraceConfig,
};
use parsim_logic::{Delay, ElementKind, Time};
use parsim_netlist::{Builder, Netlist, NodeId};

/// A clocked inverter tree with feedback: enough events to touch every
/// hook (activations, inserts, barriers, grid traffic).
fn circuit() -> (Netlist, Vec<NodeId>) {
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    b.element(
        "osc",
        ElementKind::Clock {
            half_period: 3,
            offset: 3,
        },
        Delay(1),
        &[],
        &[clk],
    )
    .unwrap();
    let mut prev = clk;
    let mut watch = vec![clk];
    for i in 0..6 {
        let n = b.node(&format!("n{i}"), 1);
        b.element(&format!("inv{i}"), ElementKind::Not, Delay(1), &[prev], &[n])
            .unwrap();
        watch.push(n);
        prev = n;
    }
    (b.finish().unwrap(), watch)
}

fn traced_config(watch: &[NodeId]) -> SimConfig {
    SimConfig::new(Time(200))
        .watch_all(watch.to_vec())
        .with_trace(TraceConfig::default())
}

#[test]
fn tracing_does_not_change_waveforms() {
    let (n, watch) = circuit();
    let plain = SimConfig::new(Time(200)).watch_all(watch.clone());
    let traced = traced_config(&watch);
    let base = EventDriven::run(&n, &plain).unwrap();
    assert_equivalent(&base, &EventDriven::run(&n, &traced).unwrap(), "seq traced");
    assert_equivalent(
        &base,
        &SyncEventDriven::run(&n, &traced.clone().threads(2)).unwrap(),
        "sync traced",
    );
    assert_equivalent(
        &base,
        &ChaoticAsync::run(&n, &traced.clone().threads(2)).unwrap(),
        "chaotic traced",
    );
    assert_equivalent(
        &base,
        &CompiledMode::run(&n, &traced.clone().threads(2)).unwrap(),
        "compiled traced",
    );
}

#[cfg(feature = "trace")]
mod with_feature {
    use super::*;
    use parsim_core::RunReport;

    /// Runs one engine and sanity-checks the drained trace: every worker
    /// present, at least one span per worker, Chrome JSON lints, and the
    /// report renders with finite utilization.
    fn check(name: &str, result: parsim_core::SimResult, workers: usize) {
        let trace = result
            .trace
            .unwrap_or_else(|| panic!("{name}: trace feature on + config set => Some"));
        assert_eq!(trace.num_workers(), workers, "{name}: all workers drained");
        for w in &trace.workers {
            assert!(
                w.span_count() > 0,
                "{name}: worker {} recorded no spans",
                w.worker
            );
        }
        let json = trace.to_chrome_json();
        parsim_trace::json::lint(&json)
            .unwrap_or_else(|e| panic!("{name}: chrome export not valid JSON: {e}"));
        let report = RunReport::new(&result.metrics, Some(&trace), None);
        assert_eq!(report.workers.len(), workers);
        let util = report.utilization();
        assert!(
            (0.0..=1.0).contains(&util),
            "{name}: utilization {util} out of range"
        );
        parsim_trace::json::lint(&report.to_json())
            .unwrap_or_else(|e| panic!("{name}: report JSON invalid: {e}"));
        assert!(!report.to_string().is_empty());
    }

    #[test]
    fn every_engine_produces_spans_from_every_worker() {
        let (n, watch) = circuit();
        let cfg = traced_config(&watch);
        check("seq", EventDriven::run(&n, &cfg).unwrap(), 1);
        check(
            "sync",
            SyncEventDriven::run(&n, &cfg.clone().threads(2)).unwrap(),
            2,
        );
        check(
            "chaotic",
            ChaoticAsync::run(&n, &cfg.clone().threads(2)).unwrap(),
            2,
        );
        check(
            "compiled",
            CompiledMode::run(&n, &cfg.clone().threads(2)).unwrap(),
            2,
        );
    }

    #[test]
    fn untraced_config_yields_no_trace() {
        let (n, watch) = circuit();
        let cfg = SimConfig::new(Time(50)).watch_all(watch);
        assert!(EventDriven::run(&n, &cfg).unwrap().trace.is_none());
    }

    #[test]
    fn tiny_ring_capacity_drops_but_stays_valid() {
        let (n, watch) = circuit();
        let cfg = SimConfig::new(Time(200))
            .watch_all(watch)
            .with_trace(TraceConfig::with_capacity(32));
        let r = EventDriven::run(&n, &cfg).unwrap();
        let trace = r.trace.unwrap();
        assert!(trace.dropped() > 0, "32-slot ring must overflow here");
        parsim_trace::json::lint(&trace.to_chrome_json()).unwrap();
    }
}

#[cfg(not(feature = "trace"))]
#[test]
fn trace_request_is_a_noop_without_the_feature() {
    let (n, watch) = circuit();
    let r = EventDriven::run(&n, &traced_config(&watch)).unwrap();
    assert!(
        r.trace.is_none(),
        "without the trace feature, hooks are no-ops and no trace is drained"
    );
}
