//! Layer probes: direct, timed calls into one public function of a layer,
//! on the workload's own input. They fill the per-layer metrics that no
//! span of the op can, because the call happens inside another layer (the
//! server's digest and lowering) or is not on the op's path at all (the
//! sequential baseline, the 2-thread run, the queue and gate micro-loops).

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use parsim_checkpoint::netlist_digest;
use parsim_core::{checkpoint, EngineKind, LaneStimulus, Metrics, SimConfig, SyncEventDriven};
use parsim_logic::wide::{fold_and, fold_or, fold_xor, WideLanes};
use parsim_logic::{evaluate, ElemState, ElementKind, Value};
use parsim_netlist::compile::CompiledProgram;
use parsim_netlist::partition::cone_cluster;
use parsim_netlist::Netlist;
use parsim_queue::spsc;

use crate::inputs::{Engine, PipelineInput};
use crate::metrics::Values;
use crate::pipeline::{resolve_request, simulate};
use crate::stats::median;

/// How often each probe repeats; its metric is the median.
pub struct Effort {
    pub reps: usize,
    pub spsc_messages: usize,
    pub gate_evals: usize,
    pub word_ops: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        reps: 3,
        spsc_messages: 1_000_000,
        gate_evals: 2_000_000,
        word_ops: 4_000_000,
    };
    pub const QUICK: Effort = Effort {
        reps: 1,
        spsc_messages: 10_000,
        gate_evals: 20_000,
        word_ops: 40_000,
    };
}

fn ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Median time of `reps` calls, with the last call's result.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (t, out) = ms(&mut f);
        times.push(t);
        last = Some(out);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// The op's engine at `threads`; the sequential engine has no threads, so
/// its parallel leg is the paper's: `ChaoticAsync` against `EventDriven`.
fn at_threads(engine: Engine, threads: usize) -> Engine {
    match engine {
        Engine::Seq if threads == 1 => Engine::Seq,
        Engine::Seq | Engine::Chaotic { .. } => Engine::Chaotic { threads },
        Engine::Compiled { .. } => Engine::Compiled { threads },
        Engine::Batch { .. } => Engine::Batch { threads },
    }
}

struct Runner<'a> {
    input: &'a PipelineInput,
    netlist: &'a Netlist,
    config: SimConfig,
    stimuli: Vec<LaneStimulus>,
}

impl Runner<'_> {
    fn run(&self, engine: Engine, config: &SimConfig) -> Result<Metrics, String> {
        simulate(engine, self.netlist, config, &self.stimuli).map(|(_, m)| m)
    }

    fn median_run_ms(&self, reps: usize, engine: Engine) -> Result<(f64, Metrics), String> {
        let (t, m) = median_ms(reps, || self.run(engine, &self.config));
        Ok((t, m?))
    }
}

/// `netlist.lower_ms`, `netlist.insns`, `netlist.partition_ms`,
/// `checkpoint.digest_ms`: the structure-only passes over the netlist.
fn structure(netlist: &Netlist, e: &Effort, out: &mut Values) {
    let (lower_ms, program) = median_ms(e.reps, || CompiledProgram::compile(netlist));
    out.set("netlist.lower_ms", lower_ms);
    out.set("netlist.insns", program.num_insns() as f64);
    let (partition_ms, _) = median_ms(e.reps, || {
        black_box(cone_cluster(netlist, 2));
        black_box(program.level_partition(2));
    });
    out.set("netlist.partition_ms", partition_ms);
    let (digest_ms, _) = median_ms(e.reps, || black_box(netlist_digest(netlist)));
    out.set("checkpoint.digest_ms", digest_ms);
}

/// `core.seq_run_ms`, `core.sync_run_ms`, and the checkpointed sequential
/// run: the paper's uniprocessor baseline, its §2 engine, and the cost of
/// four snapshot cuts on the same stimulus. Returns the sequential median.
fn baselines(r: &Runner, e: &Effort, scratch: &Path, out: &mut Values) -> Result<f64, String> {
    let (seq_ms, _) = r.median_run_ms(e.reps, Engine::Seq)?;
    out.set("core.seq_run_ms", seq_ms);
    let sync_config = r.config.clone().threads(2);
    let (sync_ms, sync) = median_ms(e.reps, || {
        SyncEventDriven::run(r.netlist, &sync_config).map(|r| r.metrics)
    });
    sync.map_err(|e| format!("sync probe: {e}"))?;
    out.set("core.sync_run_ms", sync_ms);

    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let cut_every = r.input.end.div_ceil(5).max(1);
    let config = r
        .config
        .clone()
        .with_checkpoint_dir(scratch)
        .with_checkpoint_every(cut_every);
    let (ckpt_ms, result) = ms(|| checkpoint::run(EngineKind::Sequential, r.netlist, &config));
    let removed = std::fs::remove_dir_all(scratch);
    let c = result
        .map_err(|e| format!("checkpoint probe: {e}"))?
        .metrics
        .checkpoint;
    removed.map_err(|e| format!("remove {}: {e}", scratch.display()))?;
    let writes = c.writes.max(1) as f64;
    out.set("checkpoint.snapshot_ms", c.write_ns as f64 / 1e6 / writes);
    out.set("checkpoint.snapshot_bytes", c.bytes as f64 / writes);
    out.set("checkpoint.run_overhead_ratio", ckpt_ms / seq_ms);
    Ok(seq_ms)
}

/// `core.run_ms_t2`, `core.speedup_t2`, `queue.grid_sends`: the op's engine
/// at one and at two threads.
fn two_threads(r: &Runner, e: &Effort, out: &mut Values) -> Result<(), String> {
    let (t1, _) = r.median_run_ms(e.reps, at_threads(r.input.engine, 1))?;
    let (t2, m2) = r.median_run_ms(e.reps, at_threads(r.input.engine, 2))?;
    out.set("core.run_ms_t2", t2);
    out.set("core.speedup_t2", t1 / t2);
    out.set("queue.grid_sends", m2.locality.grid_sends as f64);
    Ok(())
}

/// `core.restrict_ms` per lane, `telemetry.sampled_overhead_ratio`.
fn result_path(r: &Runner, e: &Effort, out: &mut Values) -> Result<(), String> {
    let (results, _) = simulate(r.input.engine, r.netlist, &r.config, &r.stimuli)?;
    let (restrict_ms, _) = median_ms(e.reps, || {
        for lane in &results {
            black_box(lane.restricted(&r.config.watch, r.config.end_time));
        }
    });
    out.set("core.restrict_ms", restrict_ms / results.len() as f64);

    let sampled = r.config.clone().sample_every(Duration::from_millis(1));
    let (mut plain_ms, mut sampled_ms) = (Vec::new(), Vec::new());
    for _ in 0..e.reps {
        plain_ms.push(ms(|| r.run(r.input.engine, &r.config)).0);
        sampled_ms.push(ms(|| r.run(r.input.engine, &sampled)).0);
    }
    out.set(
        "telemetry.sampled_overhead_ratio",
        median(&sampled_ms) / median(&plain_ms),
    );
    Ok(())
}

/// `queue.spsc_ns_per_msg`: send then receive, one thread, so the number
/// is the queue's own cost with no cache-line traffic between cores.
fn spsc_probe(e: &Effort, out: &mut Values) {
    let (mut tx, mut rx) = spsc::channel::<u64>();
    let (total_ms, sum) = ms(|| {
        let mut sum = 0u64;
        for i in 0..e.spsc_messages as u64 {
            tx.send(black_box(i));
            sum = sum.wrapping_add(rx.recv().expect("the message just sent"));
        }
        sum
    });
    black_box(sum);
    out.set(
        "queue.spsc_ns_per_msg",
        total_ms * 1e6 / e.spsc_messages as f64,
    );
}

/// `logic.eval_ns_per_gate`: `evaluate` over the netlist's own mix of
/// non-generator elements, inputs alternating between 0 and 1.
fn gate_probe(netlist: &Netlist, e: &Effort, out: &mut Values) {
    let mut gates: Vec<(&ElementKind, Vec<Value>, ElemState)> = netlist
        .elements()
        .iter()
        .filter(|el| !el.kind().is_generator())
        .map(|el| {
            let inputs = el
                .inputs()
                .iter()
                .enumerate()
                .map(|(i, &n)| Value::from_u64(i as u64 & 1, netlist.node(n).width()))
                .collect();
            (el.kind(), inputs, ElemState::init(el.kind()))
        })
        .collect();
    let rounds = (e.gate_evals / gates.len().max(1)).max(1);
    let (total_ms, _) = ms(|| {
        for _ in 0..rounds {
            for (kind, inputs, state) in gates.iter_mut() {
                black_box(evaluate(kind, black_box(inputs), state));
            }
        }
    });
    out.set(
        "logic.eval_ns_per_gate",
        total_ms * 1e6 / (rounds * gates.len().max(1)) as f64,
    );
}

/// `logic.wide_ns_per_word_op`: and/or/xor folds and a select over
/// 512-lane word groups, the packed kernel's inner operations.
fn wide_probe(e: &Effort, out: &mut Values) {
    const GROUPS: usize = 64;
    let mut acc = [WideLanes::<8>::ONE; GROUPS];
    let src: Vec<WideLanes<8>> = (0..GROUPS)
        .map(|i| WideLanes {
            a: [0x5555_5555_5555_5555u64.rotate_left(i as u32); 8],
            b: [0; 8],
        })
        .collect();
    let mask = [0x0f0f_0f0f_0f0f_0f0fu64; 8];
    let rounds = (e.word_ops / (4 * GROUPS)).max(1);
    let (total_ms, _) = ms(|| {
        for _ in 0..rounds {
            fold_and(&mut acc, black_box(&src));
            fold_or(&mut acc, black_box(&src));
            fold_xor(&mut acc, black_box(&src));
            for (a, s) in acc.iter_mut().zip(&src) {
                *a = WideLanes::select(&mask, *a, *s);
            }
        }
        black_box(&acc);
    });
    out.set(
        "logic.wide_ns_per_word_op",
        total_ms * 1e6 / (rounds * 4 * GROUPS) as f64,
    );
}

/// Runs every probe on `input` and returns the sequential baseline's run
/// time in ms. `scratch` is a directory the checkpoint probe may create
/// and removes again.
pub fn run_all(
    input: &PipelineInput,
    e: &Effort,
    scratch: &Path,
    out: &mut Values,
) -> Result<f64, String> {
    let netlist = &input.netlist;
    let (config, stimuli) = resolve_request(input, netlist)?;
    let runner = Runner {
        input,
        netlist,
        config,
        stimuli,
    };
    structure(netlist, e, out);
    let seq_ms = baselines(&runner, e, scratch, out)?;
    two_threads(&runner, e, out)?;
    result_path(&runner, e, out)?;
    spsc_probe(e, out);
    gate_probe(netlist, e, out);
    wide_probe(e, out);
    Ok(seq_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::tiny;
    use crate::metrics::PER_LAYER;

    #[test]
    fn probes_fill_their_metrics_on_a_small_input() {
        let input = tiny(Engine::Chaotic { threads: 1 });
        let scratch = crate::measure::out_dir().join(format!("ckpt-test-{}", std::process::id()));
        let mut out = Values::new(&PER_LAYER);
        let seq_ms = run_all(&input, &Effort::QUICK, &scratch, &mut out).unwrap();
        assert!(seq_ms > 0.0);
        assert!(
            !scratch.exists(),
            "the checkpoint probe cleans up after itself"
        );
        let missing = out.finish().err().unwrap();
        for probed in [
            "netlist.lower_ms",
            "checkpoint.snapshot_ms",
            "core.speedup_t2",
            "queue.spsc_ns_per_msg",
            "logic.wide_ns_per_word_op",
            "telemetry.sampled_overhead_ratio",
        ] {
            assert!(
                !missing.contains(probed),
                "{probed} was not measured: {missing}"
            );
        }
    }
}
