//! One workload, measured: the end-to-end run (tracing off) and the traced
//! run (spans and probes) behind `--workload … --trace 0|1`.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use parsim_core::Metrics;

use crate::inputs::{self, Inputs, Timed};
use crate::metrics::{Def, Values, END_TO_END, PER_LAYER};
use crate::pipeline;
use crate::probes::{self, Effort};
use crate::procfs;
use crate::serve::{self, Harness, Scrape, ServeBlock};
use crate::sizes::{MIN_OPS, SERVE_CLIENTS, SERVE_TENANTS, SETUP_REPS};
use crate::span::{self, Tracer};
use crate::stats::{median, nearest_rank, percentile};

/// Where trace files and probe scratch go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A measured run of one workload.
pub struct Outcome {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static Def, f64)>,
}

/// Run length and thoroughness. `quick` is the smoke mode: three ops, one
/// set-up, the median by nearest rank. Never for numbers.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seconds: f64,
    pub quick: bool,
}

impl Plan {
    fn min_ops(&self) -> usize {
        if self.quick {
            3
        } else {
            MIN_OPS
        }
    }

    fn percentile(&self, samples: &[f64], p: f64) -> Result<f64, String> {
        if self.quick {
            Ok(nearest_rank(samples, p))
        } else {
            percentile(samples, p).map_err(|e| format!("p{:.0}: {e}", p * 100.0))
        }
    }
}

/// Inputs built, the server up if the workload's op goes through it, and
/// one warm-up op done and verified.
struct Ready {
    inputs: Inputs,
    harness: Option<Harness>,
}

fn no_tracers() -> Vec<Tracer> {
    (0..SERVE_CLIENTS).map(|_| Tracer::off()).collect()
}

fn warm_up_server(harness: &Harness, inputs: &Inputs) -> Result<(), String> {
    let (wave, _) = serve::run_block(
        harness.addr(),
        &inputs.serve,
        0.0,
        1,
        no_tracers(),
        false,
        &|_| (),
    );
    match wave.failures.first() {
        None => Ok(()),
        Some(e) => Err(format!("warm-up wave: {e}")),
    }
}

fn start_server(inputs: &Inputs) -> Result<Harness, String> {
    let harness = Harness::start()?;
    warm_up_server(&harness, inputs)?;
    Ok(harness)
}

fn set_up(name: &str, seed: u64) -> Result<Ready, String> {
    let inputs = inputs::build(name, seed)?;
    let harness = match inputs.timed {
        Timed::Serve => Some(start_server(&inputs)?),
        Timed::Pipeline => {
            let out = pipeline::run_op(&inputs.pipeline, &mut Tracer::off())?;
            pipeline::verify(&inputs.pipeline, &out).map_err(|e| format!("warm-up op: {e}"))?;
            None
        }
    };
    Ok(Ready { inputs, harness })
}

/// The timed block of either kind, reduced to what the metrics need.
struct Timings {
    latencies_ms: Vec<f64>,
    /// Seconds the ops' clocks ran: their sum for the single pipeline
    /// client, first submit to last result for the concurrent clients.
    wall_s: f64,
    failures: Vec<String>,
}

fn timed_block(ready: &Ready, plan: &Plan, after_op: &(dyn Fn(usize) + Sync)) -> Timings {
    match ready.inputs.timed {
        Timed::Pipeline => {
            let block = pipeline::run_block(
                &ready.inputs.pipeline,
                plan.seconds,
                plan.min_ops(),
                &mut Tracer::off(),
                false,
                after_op,
            );
            let latencies_ms = block.latencies_ms(false);
            Timings {
                wall_s: latencies_ms.iter().sum::<f64>() / 1e3,
                latencies_ms,
                failures: block.failures,
            }
        }
        Timed::Serve => {
            let harness = ready
                .harness
                .as_ref()
                .expect("serve workloads set a server up");
            let (block, _) = serve::run_block(
                harness.addr(),
                &ready.inputs.serve,
                plan.seconds,
                plan.min_ops(),
                no_tracers(),
                false,
                after_op,
            );
            Timings {
                latencies_ms: block.latencies_ms(false),
                wall_s: block.wall_s,
                failures: block.failures,
            }
        }
    }
}

/// The end-to-end run: set-up (several times, median), then the timed
/// block with tracing off.
pub fn end_to_end(name: &str, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..if plan.quick { 1 } else { SETUP_REPS } {
        // The previous set-up (and its server) is torn down first, outside
        // the clock, so repetitions do not overlap.
        drop(ready.take());
        let start = Instant::now();
        ready = Some(set_up(name, seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let ready = ready.expect("at least one set-up");

    let rss_at = plan.min_ops();
    let peak_rss_mb = Mutex::new(None);
    let cpu_before = procfs::cpu_ms();
    let t = timed_block(&ready, plan, &|n| {
        if n == rss_at {
            *peak_rss_mb.lock().expect("no panic holds this lock") = Some(procfs::peak_rss_mb());
        }
    });
    let cpu_ms = procfs::cpu_ms() - cpu_before;
    let ops = t.latencies_ms.len();

    let mut v = Values::new(&END_TO_END);
    v.set("setup_s", median(&setup_s));
    v.set("op_ms_p50", plan.percentile(&t.latencies_ms, 0.5)?);
    v.set("ops_per_s", ops as f64 / t.wall_s);
    v.set("cpu_ms_per_op", cpu_ms / ops as f64);
    let peak = peak_rss_mb.into_inner().expect("no panic holds this lock");
    v.set(
        "peak_rss_mb",
        peak.ok_or("the block ended before the op that samples peak RSS")?,
    );
    Ok(Outcome {
        attempted: ops,
        failures: t.failures,
        metrics: v.finish()?,
    })
}

fn p50(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5)
}

/// Metrics read off the op's own spans and its last result.
fn op_layers(
    input: &inputs::PipelineInput,
    spans: &[span::Span],
    last: &(Metrics, usize),
    seq_ms: f64,
    out: &mut Values,
) {
    let med = |name: &str| p50(&span::durations_ms(spans, name));
    let (op_ms, parse_ms, run_ms, vcd_ms) = (
        med("op"),
        med("netlist.parse"),
        med("core.run"),
        med("core.vcd"),
    );
    let (m, vcd_bytes) = last;
    out.set("netlist.parse_ms", parse_ms);
    out.set(
        "netlist.parse_mb_per_s",
        input.text.len() as f64 / 1e6 / (parse_ms / 1e3),
    );
    out.set("netlist.text_bytes", input.text.len() as f64);
    out.set("netlist.elements", input.netlist.num_elements() as f64);
    out.set("core.run_ms", run_ms);
    out.set("core.run_share", run_ms / op_ms);
    out.set(
        "core.ns_per_event",
        run_ms * 1e6 / m.events_processed.max(1) as f64,
    );
    out.set(
        "core.events_per_s",
        m.events_processed as f64 / (run_ms / 1e3),
    );
    out.set("core.events", m.events_processed as f64);
    out.set("core.evaluations", m.evaluations as f64);
    out.set("core.activations", m.activations as f64);
    out.set("core.time_steps", m.time_steps as f64);
    out.set("core.busy_ratio", m.utilization());
    out.set("core.evals_skipped_ratio", m.gating_ratio());
    out.set("core.lane_width", m.lane_width as f64);
    out.set("core.locality_ratio", m.locality.locality_ratio());
    out.set("core.backoff_parks", m.locality.backoff_parks as f64);
    out.set(
        "core.vs_seq_ratio",
        run_ms / (seq_ms * input.lanes.len() as f64),
    );
    out.set("core.vcd_ms", vcd_ms);
    out.set("core.vcd_bytes", *vcd_bytes as f64);
    out.set(
        "core.vcd_mb_per_s",
        *vcd_bytes as f64 / 1e6 / (vcd_ms / 1e3),
    );
    out.set("queue.arena_global_allocs", m.arena.global_allocs() as f64);
    out.set("queue.arena_chunk_allocs", m.arena.chunk_allocs as f64);
    out.set("queue.pool_misses", m.pool_misses as f64);
}

/// Metrics read off a traced serve block, its `/metrics` delta, and the
/// in-process replay of the same submits.
fn server_layers(
    spans: &[span::Span],
    block: &ServeBlock,
    delta: Scrape,
    inproc_submit_ms: &[f64],
    render_ms: f64,
    out: &mut Values,
) {
    let submit_ms = p50(&span::durations_ms(spans, "server.submit"));
    let inproc_ms = p50(inproc_submit_ms);
    out.set("server.submit_ms_p50", submit_ms);
    out.set(
        "server.result_wait_ms_p50",
        p50(&span::durations_ms(spans, "server.result_wait")),
    );
    out.set("server.inproc_submit_ms_p50", inproc_ms);
    out.set("server.http_overhead_ms", submit_ms - inproc_ms);
    // Lanes per pass from the server's counters; the cache as tenants see
    // it, from the response headers: the share of jobs whose pass found its
    // program compiled.
    out.set(
        "server.lanes_per_pass",
        delta.lanes_packed as f64 / delta.passes.max(1) as f64,
    );
    let hits = block.jobs.iter().filter(|j| j.cache_hit).count();
    out.set(
        "server.cache_hit_ratio",
        hits as f64 / block.jobs.len().max(1) as f64,
    );
    out.set("server.passes", delta.passes as f64);
    out.set("server.quota_rejections", delta.quota_rejections as f64);
    out.set("server.jobs_failed", delta.jobs_failed as f64);
    out.set("telemetry.render_ms", render_ms);
}

/// The traced run: ops with spans on (interleaved with untraced ones so the
/// tracing overhead is a paired comparison), the layer probes, and the
/// trace file. End-to-end numbers are never taken from here.
pub fn traced(name: &str, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let Ready { inputs, harness } = set_up(name, seed)?;
    let inputs = &inputs;
    let effort = if plan.quick {
        Effort::QUICK
    } else {
        Effort::FULL
    };
    let epoch = Instant::now();
    let mut out = Values::new(&PER_LAYER);
    let mut failures = Vec::new();

    // Pipeline ops, every other one traced. Timed pipelines get 0.4 of
    // the run; a serve workload's pass replay only needs enough for a median.
    // A pipeline workload's server starts only afterwards, so these ops
    // see the allocator and thread state the end-to-end run's ops see.
    let (seconds, min_ops) = match (inputs.timed, plan.quick) {
        (_, true) => (0.0, 4),
        (Timed::Pipeline, false) => (plan.seconds * 0.4, 40),
        (Timed::Serve, false) => (0.0, 20),
    };
    let mut tr = Tracer::new(epoch, 0);
    let ops = pipeline::run_block(&inputs.pipeline, seconds, min_ops, &mut tr, true, |_| ());
    failures.extend(ops.failures.iter().cloned());
    let last = ops
        .last
        .as_ref()
        .ok_or("no pipeline op succeeded in the traced run")?;

    // Server jobs, every other wave traced, with a `/metrics` scrape either
    // side. Timed serve workloads get half the run; pipelines send two
    // waves per client.
    let (seconds, min_jobs) = match (inputs.timed, plan.quick) {
        (Timed::Serve, false) => (plan.seconds * 0.5, 2 * MIN_OPS),
        _ => (0.0, 2 * SERVE_CLIENTS * SERVE_TENANTS),
    };
    let harness = match harness {
        Some(h) => h,
        None if plan.quick => Harness::start()?,
        None => start_server(inputs)?,
    };
    let addr = harness.addr();
    let before = serve::scrape(addr)?;
    let tracers = (0..SERVE_CLIENTS)
        .map(|c| Tracer::new(epoch, 1 + c as u32))
        .collect();
    let (jobs, tracers) = serve::run_block(
        addr,
        &inputs.serve,
        seconds,
        min_jobs,
        tracers,
        true,
        &|_| (),
    );
    let delta = serve::scrape(addr)?.since(before);
    for t in tracers {
        tr.absorb(t);
    }
    failures.extend(jobs.failures.iter().cloned());
    let inproc_ms = serve::inproc_submit_ms(
        &harness.inproc,
        &inputs.serve,
        if plan.quick { 1 } else { 2 },
    )?;
    let render: Vec<f64> = (0..20)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(harness.inproc.server().metrics_text());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let scratch = out_dir().join(format!("ckpt-{name}-{}", std::process::id()));
    let seq_ms = probes::run_all(&inputs.pipeline, &effort, &scratch, &mut out)?;
    op_layers(&inputs.pipeline, tr.spans(), last, seq_ms, &mut out);
    server_layers(
        tr.spans(),
        &jobs,
        delta,
        &inproc_ms,
        median(&render),
        &mut out,
    );

    // The attribution's own sanity: what the timed op's top-level span does
    // not hand to a child, and what the spans cost.
    let (top, traced_ms, plain_ms) = match inputs.timed {
        Timed::Pipeline => ("op", ops.latencies_ms(true), ops.latencies_ms(false)),
        Timed::Serve => ("wave", jobs.latencies_ms(true), jobs.latencies_ms(false)),
    };
    let own = span::self_times_ns(tr.spans());
    let unattributed: Vec<f64> = tr
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == top)
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    out.set("bench.unattributed_ms", p50(&unattributed));
    out.set("bench.spans_recorded", tr.spans().len() as f64);
    out.set(
        "bench.trace_overhead_ratio",
        p50(&traced_ms) / p50(&plain_ms),
    );

    let path = out_dir().join(format!("trace-{name}.json"));
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("create {}: {e}", out_dir().display()))?;
    std::fs::write(&path, span::chrome_json(tr.spans()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Outcome {
        attempted: ops.ops.len() + jobs.jobs.len(),
        failures,
        metrics: out.finish()?,
    })
}
