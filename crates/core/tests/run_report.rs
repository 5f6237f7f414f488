//! The run report on real runs: each line [`RunReport::new`] renders from
//! a run's [`Metrics`](parsim_core::Metrics) and sample ring says what
//! those hold, and its JSON lints.

use std::time::Duration;

use parsim_circuits::{gate_multiplier, pipelined_cpu, GateMultiplier};
use parsim_core::{
    checkpoint, ChaoticAsync, CompiledMode, EngineKind, RunReport, SimConfig, SimResult,
    SyncEventDriven,
};
use parsim_logic::Time;

fn multiplier() -> (GateMultiplier, SimConfig) {
    let m = gate_multiplier(8, &[(123, 231), (255, 1)], 160).unwrap();
    let cfg = SimConfig::new(m.schedule_end()).watch_all(m.product.iter().copied());
    (m, cfg)
}

/// The report's text and its JSON, which must lint.
fn render(r: &SimResult) -> (String, String) {
    let report = RunReport::new(&r.metrics, r.trace.as_ref(), r.telemetry.as_ref());
    let json = report.to_json();
    parsim_trace::json::lint(&json).unwrap_or_else(|e| panic!("report JSON: {e}\n{json}"));
    (report.to_string(), json)
}

/// The 8-bit CPU, whose every loop runs through a register: the chaotic
/// engine's register lookahead fires there at one thread. (The acyclic
/// multiplier does not: one thread activates each element once, with
/// every input event already in place, so it shows no lookahead line.)
#[test]
fn lookahead_line_is_the_chaotic_counters() {
    let cpu = pipelined_cpu(8, 48).unwrap();
    let r = ChaoticAsync::run(&cpu.netlist, &SimConfig::new(Time(400))).unwrap();
    let mt = &r.metrics;
    assert!(mt.lookahead_extensions > 0, "register lookahead never fired");
    let (text, json) = render(&r);
    let (act, empty, ext) = (mt.activations, mt.empty_activations, mt.lookahead_extensions);
    assert!(text.contains(&format!(
        "\nlookahead: {ext} of {act} activations extended validity, {empty} consumed no event"
    )));
    assert!(json.contains(&format!(
        "\"lookahead\": {{\"activations\": {act}, \"empty_activations\": {empty}, \
         \"extensions\": {ext},"
    )));
}

#[test]
fn gating_lines_are_the_compiled_counters() {
    let (m, cfg) = multiplier();
    let r = CompiledMode::run(&m.netlist, &cfg.threads(2)).unwrap();
    let mt = &r.metrics;
    assert!(mt.evals_skipped > 0 && mt.quiet_steps > 0, "a gated run that skips");
    let (text, json) = render(&r);
    let would_run = mt.evaluations + mt.evals_skipped;
    assert!(text.contains(&format!("\ngating: {} of {would_run} evaluations", mt.evals_skipped)));
    assert!(text.contains(&format!(
        "quiet steps: {} of {} steps jumped over",
        mt.quiet_steps, mt.time_steps
    )));
    assert!(json.contains(&format!(
        "\"gating\": {{\"evaluations\": {}, \"evals_skipped\": {}, \"time_steps\": {}, \
         \"quiet_steps\": {}}}",
        mt.evaluations, mt.evals_skipped, mt.time_steps, mt.quiet_steps
    )));
}

#[test]
fn checkpoint_line_is_the_driver_counters() {
    let (m, cfg) = multiplier();
    let dir = std::env::temp_dir().join(format!("parsim-report-{}", std::process::id()));
    let cfg = cfg.threads(2).with_checkpoint_dir(&dir).with_checkpoint_every(60);
    let r = checkpoint::run(EngineKind::Synchronous, &m.netlist, &cfg).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let c = &r.metrics.checkpoint;
    assert!(c.writes > 0);
    let (text, json) = render(&r);
    assert!(text.contains(&format!("\ncheckpoints: {} written ({} bytes)", c.writes, c.bytes)));
    assert!(json.contains(&format!(
        "\"checkpoint\": {{\"writes\": {}, \"bytes\": {},",
        c.writes, c.bytes
    )));
}

#[test]
fn last_time_series_point_is_the_finals() {
    let (m, cfg) = multiplier();
    let cfg = cfg.threads(2).sample_every(Duration::from_millis(1));
    let r = SyncEventDriven::run(&m.netlist, &cfg).unwrap();
    let samples = r.telemetry.as_ref().unwrap().samples.len();
    let mt = &r.metrics;
    let (text, json) = render(&r);
    assert!(text.contains(&format!("\ntelemetry time series: {samples} samples every 1.0 ms")));
    assert!(text.contains(&format!(
        "  final: {} events, {} evaluations, ",
        mt.events_processed, mt.evaluations
    )));
    let last = json.split("{\"t_ns\": ").last().unwrap();
    assert!(
        last.contains(&format!(
            "\"events\": {}, \"evaluations\": {},",
            mt.events_processed, mt.evaluations
        )),
        "{last}"
    );
}

#[test]
fn per_worker_evaluations_are_the_per_thread_counts() {
    let (m, cfg) = multiplier();
    let r = SyncEventDriven::run(&m.netlist, &cfg.threads(2)).unwrap();
    let per_thread = &r.metrics.per_thread;
    assert_eq!(per_thread.len(), 2);
    assert_eq!(per_thread.iter().map(|t| t.evaluations).sum::<u64>(), r.metrics.evaluations);
    let (text, json) = render(&r);
    // The table's rows follow its header: worker, util%, busy, idle,
    // barrier, spans, inserts, evals, parks.
    let rows: Vec<Vec<&str>> = text
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("worker"))
        .skip(1)
        .take(2)
        .map(|l| l.split_whitespace().collect())
        .collect();
    for (w, t) in per_thread.iter().enumerate() {
        assert_eq!(rows[w][0], w.to_string());
        assert_eq!(rows[w][7], t.evaluations.to_string(), "worker {w}");
        let entry = json.lines().find(|l| l.contains(&format!("{{\"worker\": {w}, "))).unwrap();
        assert!(entry.contains(&format!("\"evals\": {}, ", t.evaluations)), "{entry}");
    }
}
