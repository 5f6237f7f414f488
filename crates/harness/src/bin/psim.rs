//! `psim` — simulate a text-format netlist from the command line.
//!
//! ```text
//! psim CIRCUIT.net --end 1000 --engine async --threads 4 \
//!      --watch out0 --watch out1 --vcd dump.vcd
//! ```
//!
//! Engines: `seq` (default), `sync`, `compiled`, `async`. Files ending
//! in `.bench` are parsed as ISCAS benchmarks (LFSR stimulus attached);
//! anything else uses the native text format. The special input `@c17`
//! uses the built-in ISCAS-85 c17 benchmark (no file needed). With no
//! `--watch` flags, every named node that is not auto-generated (`_t...`)
//! is watched. `--stats` prints netlist statistics and exits.
//!
//! `--report` prints the run report (`parsim_core::RunReport`):
//! per-worker utilization, idle time, evaluations and parks, and the
//! engine's checkpoint, chunk, lookahead, gating and sampled time-series
//! counters. `--trace OUT.json` (requires building with `--features
//! trace`) records a per-worker event trace and writes it in Chrome
//! `trace_events` format — load it at <https://ui.perfetto.dev>; with
//! `--report` the report then adds per-phase time, barrier imbalance,
//! queue occupancy and the hottest elements, and is also written as
//! `OUT.report.json`.
//!
//! `--checkpoint-dir DIR --checkpoint-every N` snapshots the run every N
//! simulated ticks (crash-consistently: temp file + fsync + atomic
//! rename, keeping the last few). After a crash, the same command with
//! `--resume` scans DIR, restores the newest valid snapshot (falling
//! back past torn files), and continues — producing waveforms
//! bit-identical to an uninterrupted run.
//!
//! `--lanes N` (with `--engine compiled`) runs the SIMD batch kernel
//! with N copies of the base stimulus — a lane-throughput measurement
//! mode. `--force-lane-width {64,128,256,512}` pins the chunk width
//! instead of chunking by lane and thread count (64 runs a 130-lane batch
//! as three chunks); the kernel code is the same at every width. The
//! chosen width is reported in the metrics line.
//!
//! Telemetry (always on, no feature flag): `--metrics-out OUT.prom`
//! writes the final registry as Prometheus text-format 0.0.4 (self-
//! linted) plus a sibling `OUT.series.json` time-series document whose
//! final sample equals the run's metrics totals. `--sample-every MS`
//! arms the in-run sampler (the watchdog thread snapshots the registry
//! every MS milliseconds into a bounded ring). `--live-stats` prints a
//! one-line stderr progress ticker (events/s, utilization, queue depth,
//! last checkpoint) while the run is in flight.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parsim_core::{
    checkpoint, ChaoticAsync, CompiledMode, EngineKind, EventDriven, RunReport, SimConfig,
    SyncEventDriven, TraceConfig,
};
use parsim_harness::Table;
use parsim_logic::Time;
use parsim_netlist::bench_fmt::{from_bench, BenchOptions, C17};
use parsim_netlist::{Netlist, NetlistStats};
use parsim_telemetry::{prometheus, series, Counter, Gauge, Hub, RunTelemetry};

const USAGE: &str = "usage: psim CIRCUIT.net|@c17 [--engine seq|sync|compiled|async] \
[--end N] [--threads N] [--watch NODE]... [--vcd FILE] [--stats] \
[--trace OUT.json] [--report] \
[--checkpoint-dir DIR --checkpoint-every N [--resume]] \
[--lanes N [--force-lane-width 64|128|256|512]] \
[--metrics-out OUT.prom] [--sample-every MS] [--live-stats]";

/// What the command line asked for: a run, or just the usage text
/// (`--help` is a success, not an error).
enum Cli {
    Run(Box<Options>),
    Help,
}

struct Options {
    input: String,
    engine: String,
    end: u64,
    threads: usize,
    watch: Vec<String>,
    vcd: Option<String>,
    stats: bool,
    trace: Option<String>,
    report: bool,
    checkpoint_dir: Option<String>,
    checkpoint_every: u64,
    resume: bool,
    lanes: usize,
    force_lane_width: Option<usize>,
    metrics_out: Option<String>,
    sample_every_ms: u64,
    live_stats: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        input: String::new(),
        engine: "seq".to_string(),
        end: 1000,
        threads: 1,
        watch: Vec::new(),
        vcd: None,
        stats: false,
        trace: None,
        report: false,
        checkpoint_dir: None,
        checkpoint_every: 0,
        resume: false,
        lanes: 0,
        force_lane_width: None,
        metrics_out: None,
        sample_every_ms: 0,
        live_stats: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--engine" => opts.engine = value("--engine")?,
            "--end" => {
                opts.end = value("--end")?
                    .parse()
                    .map_err(|_| "--end must be an integer".to_string())?
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be an integer".to_string())?;
                if opts.threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--watch" => opts.watch.push(value("--watch")?),
            "--vcd" => opts.vcd = Some(value("--vcd")?),
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = Some(value("--trace")?),
            "--report" => opts.report = true,
            "--checkpoint-dir" => opts.checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--checkpoint-every" => {
                opts.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| "--checkpoint-every must be an integer".to_string())?
            }
            "--resume" => opts.resume = true,
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--sample-every" => {
                opts.sample_every_ms = value("--sample-every")?
                    .parse()
                    .map_err(|_| "--sample-every must be an integer (milliseconds)".to_string())?;
                if opts.sample_every_ms == 0 {
                    return Err("--sample-every must be at least 1 ms".to_string());
                }
            }
            "--live-stats" => opts.live_stats = true,
            "--lanes" => {
                opts.lanes = value("--lanes")?
                    .parse()
                    .map_err(|_| "--lanes must be an integer".to_string())?;
                if opts.lanes == 0 {
                    return Err("--lanes must be at least 1".to_string());
                }
            }
            "--force-lane-width" => {
                let w: usize = value("--force-lane-width")?
                    .parse()
                    .map_err(|_| "--force-lane-width must be an integer".to_string())?;
                if ![64, 128, 256, 512].contains(&w) {
                    return Err(format!(
                        "--force-lane-width must be one of 64, 128, 256, 512 (got {w})"
                    ));
                }
                opts.force_lane_width = Some(w);
            }
            "--help" | "-h" => return Ok(Cli::Help),
            other if !other.starts_with('-') && opts.input.is_empty() => {
                opts.input = other.to_string()
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.input.is_empty() {
        return Err("missing input netlist (try --help)".to_string());
    }
    Ok(Cli::Run(Box::new(opts)))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Cli::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Cli::Run(opts)) => opts,
        // Bad flags are usage errors: name the offense, show the usage
        // line, exit nonzero.
        Err(msg) => {
            eprintln!("psim: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("psim: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Options) -> Result<(), String> {
    if opts.trace.is_some() && !parsim_trace::recording_compiled() {
        return Err(
            "--trace requires the `trace` cargo feature; rebuild with \
             `cargo build --release -p parsim-harness --features trace`"
                .to_string(),
        );
    }
    // `@c17` uses the built-in ISCAS-85 c17 benchmark; `.bench` files use
    // the ISCAS format (with default LFSR stimulus); everything else is
    // the native text format.
    let netlist = if opts.input == "@c17" {
        from_bench(C17, &BenchOptions::default())
            .map_err(|e| e.to_string())?
            .netlist
    } else {
        let text = std::fs::read_to_string(&opts.input)
            .map_err(|e| format!("cannot read {}: {e}", opts.input))?;
        if opts.input.ends_with(".bench") {
            from_bench(&text, &BenchOptions::default())
                .map_err(|e| e.to_string())?
                .netlist
        } else {
            Netlist::from_text(&text).map_err(|e| e.to_string())?
        }
    };

    if opts.stats {
        print!("{}", NetlistStats::compute(&netlist));
        return Ok(());
    }

    let watch: Vec<_> = if opts.watch.is_empty() {
        netlist
            .iter_nodes()
            .filter(|(_, n)| !n.name().starts_with("_t"))
            .map(|(id, _)| id)
            .collect()
    } else {
        opts.watch
            .iter()
            .map(|name| {
                netlist
                    .node_by_name(name)
                    .ok_or_else(|| format!("unknown node `{name}`"))
            })
            .collect::<Result<_, _>>()?
    };

    let mut config = SimConfig::new(Time(opts.end))
        .watch_all(watch.iter().copied())
        .threads(opts.threads);
    if opts.trace.is_some() {
        config = config.with_trace(TraceConfig::default());
    }
    if let Some(w) = opts.force_lane_width {
        config = config.with_lane_width(w);
    }
    if opts.sample_every_ms > 0 {
        config = config.sample_every(Duration::from_millis(opts.sample_every_ms));
    }
    // The hub is the live window into the running engine's registry; the
    // engine installs its telemetry context there at run start.
    let hub = (opts.live_stats || opts.metrics_out.is_some()).then(Hub::new);
    if let Some(h) = &hub {
        config = config.with_telemetry_hub(h.clone());
    }
    let kind = match opts.engine.as_str() {
        "seq" => EngineKind::Sequential,
        "sync" => EngineKind::Synchronous,
        "compiled" => EngineKind::Compiled,
        "async" => EngineKind::Chaotic,
        other => return Err(format!("unknown engine `{other}`")),
    };
    // `--lanes N` runs the SIMD batch kernel with N copies of the base
    // stimulus — a throughput-measurement mode (lanes see identical
    // inputs; per-lane stimulus files are the testbench API's job).
    if opts.lanes > 0 {
        if opts.engine != "compiled" {
            return Err("--lanes requires --engine compiled".to_string());
        }
        if opts.checkpoint_dir.is_some() || opts.resume || opts.trace.is_some() {
            return Err("--lanes is incompatible with --checkpoint-dir/--resume/--trace"
                .to_string());
        }
        let stimuli = vec![parsim_core::LaneStimulus::base(); opts.lanes];
        let ticker = match (&hub, opts.live_stats) {
            (Some(h), true) => Some(LiveTicker::start(h.clone())),
            _ => None,
        };
        let batch = CompiledMode::run_batch(&netlist, &config, &stimuli);
        if let Some(t) = ticker {
            t.finish();
        }
        let batch = batch.map_err(|e| e.to_string())?;
        let mut t = Table::new(
            &format!(
                "{} — compiled batch, {} lanes ({}-bit groups), end={}",
                opts.input, opts.lanes, batch.metrics.lane_width, opts.end
            ),
            &["node", "changes", "final value"],
        );
        for w in batch.lanes[0].waveforms() {
            t.row(vec![
                w.name().to_string(),
                w.num_changes().to_string(),
                w.final_value().to_string(),
            ]);
        }
        t.note(&format!("{}", batch.metrics));
        print!("{t}");
        if let Some(path) = &opts.metrics_out {
            let h = hub.as_ref().expect("--metrics-out always sets the hub");
            write_metrics(path, h, batch.telemetry.as_ref())?;
        }
        return Ok(());
    }

    let ticker = match (&hub, opts.live_stats) {
        (Some(h), true) => Some(LiveTicker::start(h.clone())),
        _ => None,
    };
    let result = if let Some(dir) = &opts.checkpoint_dir {
        if opts.checkpoint_every == 0 {
            return Err("--checkpoint-dir requires --checkpoint-every N (ticks)".to_string());
        }
        config = config
            .with_checkpoint_dir(dir)
            .with_checkpoint_every(opts.checkpoint_every);
        if opts.resume {
            checkpoint::resume(kind, &netlist, &config)
        } else {
            checkpoint::run(kind, &netlist, &config)
        }
    } else if opts.resume {
        return Err("--resume requires --checkpoint-dir DIR".to_string());
    } else {
        match kind {
            EngineKind::Sequential => EventDriven::run(&netlist, &config),
            EngineKind::Synchronous => SyncEventDriven::run(&netlist, &config),
            EngineKind::Compiled => CompiledMode::run(&netlist, &config),
            EngineKind::Chaotic => ChaoticAsync::run(&netlist, &config),
        }
    };
    if let Some(t) = ticker {
        t.finish();
    }
    let result = result.map_err(|e| e.to_string())?;

    let mut t = Table::new(
        &format!("{} — {} engine, end={}", opts.input, opts.engine, opts.end),
        &["node", "changes", "final value"],
    );
    for w in result.waveforms() {
        t.row(vec![
            w.name().to_string(),
            w.num_changes().to_string(),
            w.final_value().to_string(),
        ]);
    }
    t.note(&format!("{}", result.metrics));
    print!("{t}");

    if let Some(path) = &opts.vcd {
        result.write_vcd(path).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\nwrote {path}");
    }

    if let Some(trace_path) = &opts.trace {
        let trace = result
            .trace
            .as_ref()
            .ok_or("engine returned no trace despite --trace (bug)")?;
        let json = trace.to_chrome_json();
        // Self-validate before writing: the export must parse as JSON and
        // carry at least one span from every worker, or the run fails.
        parsim_trace::json::lint(&json)
            .map_err(|e| format!("internal error: chrome trace is not valid JSON: {e}"))?;
        for w in &trace.workers {
            if w.span_count() == 0 {
                return Err(format!(
                    "internal error: worker {} recorded no spans",
                    w.worker
                ));
            }
        }
        std::fs::write(trace_path, &json)
            .map_err(|e| format!("cannot write {trace_path}: {e}"))?;
        println!(
            "\nwrote {trace_path} ({} workers, {} events, {} dropped) — load at ui.perfetto.dev",
            trace.num_workers(),
            trace.num_events(),
            trace.dropped()
        );
    }

    // Traced or not, one report: engine counters from the metrics, the
    // phase split, barrier waits and hottest elements from the trace.
    if opts.report {
        let report =
            RunReport::new(&result.metrics, result.trace.as_ref(), result.telemetry.as_ref());
        println!("\n{report}");
        if let Some(trace_path) = &opts.trace {
            let report_path = format!("{}.report.json", trace_path.trim_end_matches(".json"));
            let report_json = report.to_json();
            parsim_trace::json::lint(&report_json)
                .map_err(|e| format!("internal error: run report is not valid JSON: {e}"))?;
            std::fs::write(&report_path, &report_json)
                .map_err(|e| format!("cannot write {report_path}: {e}"))?;
            println!("wrote {report_path}");
        }
    }

    if let Some(path) = &opts.metrics_out {
        let h = hub.as_ref().expect("--metrics-out always sets the hub");
        write_metrics(path, h, result.telemetry.as_ref())?;
    }
    Ok(())
}

/// Writes the final registry as Prometheus text-format 0.0.4 (self-
/// linted before the write) plus the sibling time-series JSON document.
fn write_metrics(
    path: &str,
    hub: &Arc<Hub>,
    telemetry: Option<&RunTelemetry>,
) -> Result<(), String> {
    let ctx = hub
        .get()
        .ok_or("internal error: engine installed no telemetry context")?;
    let prom = prometheus::render(&ctx.registry);
    prometheus::lint(&prom)
        .map_err(|e| format!("internal error: prometheus exposition failed format check: {e}"))?;
    std::fs::write(path, &prom).map_err(|e| format!("cannot write {path}: {e}"))?;
    let owned;
    let run = match telemetry {
        Some(t) => t,
        None => {
            owned = ctx.finish();
            &owned
        }
    };
    let series_path = format!(
        "{}.series.json",
        path.trim_end_matches(".prom").trim_end_matches(".txt")
    );
    let doc = series::render_json(run);
    parsim_trace::json::lint(&doc)
        .map_err(|e| format!("internal error: series document is not valid JSON: {e}"))?;
    std::fs::write(&series_path, &doc).map_err(|e| format!("cannot write {series_path}: {e}"))?;
    println!("\nwrote {path} (prometheus) and {series_path} (time series)");
    Ok(())
}

/// Background stderr ticker for `--live-stats`: polls the running
/// engine's registry through the [`Hub`] at ~2 Hz and rewrites one
/// status line with throughput, utilization, and occupancy.
struct LiveTicker {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl LiveTicker {
    fn start(hub: Arc<Hub>) -> LiveTicker {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut prev: Option<(std::time::Instant, u64)> = None;
            let mut printed = false;
            let mut naps = 0u32;
            while !flag.load(Ordering::Acquire) {
                // Nap in 100 ms slices so shutdown is prompt, print at 2 Hz.
                std::thread::sleep(Duration::from_millis(100));
                naps += 1;
                if !naps.is_multiple_of(5) {
                    continue;
                }
                let Some(ctx) = hub.get() else { continue };
                let snap = ctx.registry.snapshot();
                let events = snap.counter(Counter::EventsProcessed);
                let now = std::time::Instant::now();
                let rate = match prev {
                    Some((t0, e0)) => {
                        let dt = now.duration_since(t0).as_secs_f64();
                        if dt > 0.0 {
                            events.saturating_sub(e0) as f64 / dt
                        } else {
                            0.0
                        }
                    }
                    None => 0.0,
                };
                prev = Some((now, events));
                let busy = snap.counter(Counter::BusyNs);
                let idle = snap.counter(Counter::IdleNs);
                let util = if busy + idle > 0 {
                    format!("{:.0}%", 100.0 * busy as f64 / (busy + idle) as f64)
                } else {
                    // Engines publish busy/idle at coarse flush points;
                    // early in a run there may be nothing yet.
                    "--".to_string()
                };
                let mut line = format!(
                    "[psim] t={} | {} ev/s | util {} | depth {}",
                    snap.gauge(Gauge::SimTime),
                    fmt_rate(rate),
                    util,
                    snap.gauge(Gauge::QueueDepth),
                );
                if snap.counter(Counter::CheckpointWrites) > 0 {
                    line.push_str(&format!(
                        " | ckpt @t={}",
                        snap.gauge(Gauge::LastCheckpointTime)
                    ));
                }
                eprint!("\r{line:<78}");
                printed = true;
            }
            if printed {
                eprintln!();
            }
        });
        LiveTicker { stop, handle }
    }

    fn finish(self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.handle.join();
    }
}

fn fmt_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.1}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}
