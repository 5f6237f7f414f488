//! The pipeline op: one request carried from netlist text to VCD bytes by
//! library calls, the way `psim` does it, with a span around each layer.

use std::time::{Duration, Instant};

use parsim_core::{
    ChaoticAsync, CompiledMode, EventDriven, LaneStimulus, Metrics, SimConfig, SimResult,
};
use parsim_logic::{Time, Value};
use parsim_netlist::{Netlist, NodeId};

use crate::inputs::{Drive, Engine, PipelineInput};
use crate::span::Tracer;

/// What one op produced; checked after the op's clock has stopped.
pub struct OpOutput {
    /// The netlist the op parsed (names are resolved against it again
    /// when products are checked).
    pub netlist: Netlist,
    /// One result per lane.
    pub results: Vec<SimResult>,
    /// VCD text of every lane that has an expected VCD, in lane order.
    pub vcds: Vec<String>,
    /// The run's metrics (batch-wide for `Engine::Batch`).
    pub metrics: Metrics,
}

fn resolve(netlist: &Netlist, name: &str) -> Result<NodeId, String> {
    netlist
        .node_by_name(name)
        .ok_or_else(|| format!("unknown node `{name}`"))
}

/// Resolves a by-name drive into the engine's per-lane stimulus.
pub fn lane_stimulus(netlist: &Netlist, drive: &Drive) -> Result<LaneStimulus, String> {
    let mut stimulus = LaneStimulus::base();
    for (name, schedule) in drive {
        let node = resolve(netlist, name)?;
        let width = netlist.node(node).width();
        let schedule = schedule
            .iter()
            .map(|&(t, v)| (Time(t), Value::from_u64(v, width)))
            .collect();
        stimulus = stimulus.drive(node, schedule);
    }
    Ok(stimulus)
}

/// The engine call of an op, on an already parsed netlist.
pub fn simulate(
    engine: Engine,
    netlist: &Netlist,
    config: &SimConfig,
    stimuli: &[LaneStimulus],
) -> Result<(Vec<SimResult>, Metrics), String> {
    let scalar = |r: Result<SimResult, parsim_core::SimError>| {
        r.map(|r| {
            let metrics = r.metrics.clone();
            (vec![r], metrics)
        })
    };
    match engine {
        Engine::Seq => scalar(EventDriven::run(netlist, config)),
        Engine::Chaotic { threads } => {
            scalar(ChaoticAsync::run(netlist, &config.clone().threads(threads)))
        }
        Engine::Compiled { threads } => {
            scalar(CompiledMode::run(netlist, &config.clone().threads(threads)))
        }
        Engine::Batch { threads } => {
            CompiledMode::run_batch(netlist, &config.clone().threads(threads), stimuli)
                .map(|b| (b.lanes, b.metrics))
        }
    }
    .map_err(|e| format!("{engine:?}: {e}"))
}

/// Watch list, run configuration and lane stimuli of `input`, resolved by
/// name against a parsed netlist.
pub fn resolve_request(
    input: &PipelineInput,
    netlist: &Netlist,
) -> Result<(SimConfig, Vec<LaneStimulus>), String> {
    let watch = input
        .watch
        .iter()
        .map(|name| resolve(netlist, name))
        .collect::<Result<Vec<_>, _>>()?;
    let config = SimConfig::new(Time(input.end)).watch_all(watch);
    let stimuli = match input.engine {
        Engine::Batch { .. } => input
            .lanes
            .iter()
            .map(|lane| lane_stimulus(netlist, &lane.drive))
            .collect::<Result<_, _>>()?,
        _ => Vec::new(),
    };
    Ok((config, stimuli))
}

/// Runs one op. Span names are the per-layer metric prefixes.
pub fn run_op(input: &PipelineInput, tr: &mut Tracer) -> Result<OpOutput, String> {
    tr.span("op", |tr| {
        let netlist = tr
            .span("netlist.parse", |_| Netlist::from_text(&input.text))
            .map_err(|e| format!("parse: {e}"))?;
        let (config, stimuli) = tr.span("bench.resolve", |_| resolve_request(input, &netlist))?;
        let (results, metrics) = tr.span("core.run", |_| {
            simulate(input.engine, &netlist, &config, &stimuli)
        })?;
        let vcds = tr.span("core.vcd", |_| {
            input
                .lanes
                .iter()
                .zip(&results)
                .filter(|(lane, _)| lane.expected.is_some())
                .map(|(_, r)| r.to_vcd())
                .collect()
        });
        Ok(OpOutput {
            netlist,
            results,
            vcds,
            metrics,
        })
    })
}

/// Checks an op's output against the oracle: every encoded VCD by length
/// and hash, and for multipliers `product = a·b` at every sample time of
/// every lane.
pub fn verify(input: &PipelineInput, out: &OpOutput) -> Result<(), String> {
    if out.results.len() != input.lanes.len() {
        return Err(format!(
            "{} results for {} lanes",
            out.results.len(),
            input.lanes.len()
        ));
    }
    let mut vcds = out.vcds.iter();
    for (l, lane) in input.lanes.iter().enumerate() {
        if let Some(expected) = &lane.expected {
            let vcd = vcds
                .next()
                .ok_or_else(|| format!("lane {l}: no VCD was encoded"))?;
            expected.check(vcd).map_err(|e| format!("lane {l}: {e}"))?;
        }
    }
    let product = input
        .product_bits
        .iter()
        .map(|name| resolve(&out.netlist, name))
        .collect::<Result<Vec<_>, _>>()?;
    for (l, (lane, result)) in input.lanes.iter().zip(&out.results).enumerate() {
        for &(t, want) in &lane.products {
            let got = result.bus_value_at(&product, Time(t));
            if got != Some(want) {
                return Err(format!(
                    "lane {l}: product at t={t} is {got:?}, expected {want}"
                ));
            }
        }
    }
    Ok(())
}

/// The four exact counts of a run; at one thread they must repeat
/// bit-for-bit from op to op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub evaluations: u64,
    pub activations: u64,
    pub time_steps: u64,
}

impl Counts {
    pub fn of(m: &Metrics) -> Counts {
        Counts {
            events: m.events_processed,
            evaluations: m.evaluations,
            activations: m.activations,
            time_steps: m.time_steps,
        }
    }
}

fn single_threaded(engine: Engine) -> bool {
    match engine {
        Engine::Seq => true,
        Engine::Chaotic { threads } | Engine::Compiled { threads } | Engine::Batch { threads } => {
            threads == 1
        }
    }
}

/// One timed op of a block.
pub struct OpRecord {
    pub ms: f64,
    pub traced: bool,
}

/// A sequence of ops run back to back by one client.
pub struct Block {
    pub ops: Vec<OpRecord>,
    /// Why each failed op failed (errors, oracle mismatches, count drift).
    pub failures: Vec<String>,
    /// Metrics and VCD bytes of the last successful op.
    pub last: Option<(Metrics, usize)>,
}

impl Block {
    pub fn latencies_ms(&self, traced: bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.traced == traced)
            .map(|o| o.ms)
            .collect()
    }
}

/// Runs ops until `seconds` have passed and at least `min_ops` are done,
/// calling `after_op(n)` once the `n`-th op has been verified. With
/// `trace_every_other` the tracer is switched on for odd ops only, so
/// traced and untraced latencies come from interleaved ops of one process.
pub fn run_block(
    input: &PipelineInput,
    seconds: f64,
    min_ops: usize,
    tr: &mut Tracer,
    trace_every_other: bool,
    mut after_op: impl FnMut(usize),
) -> Block {
    let mut block = Block {
        ops: Vec::new(),
        failures: Vec::new(),
        last: None,
    };
    let mut first_counts: Option<Counts> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while block.ops.len() < min_ops || Instant::now() < deadline {
        let n = block.ops.len();
        let traced = trace_every_other && n % 2 == 1;
        if trace_every_other {
            tr.set_enabled(traced);
        }
        tr.set_op(n as u64);
        let start = Instant::now();
        let out = run_op(input, tr);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        // The clock has stopped: verification is not part of the op.
        block.ops.push(OpRecord { ms, traced });
        let checked = out.and_then(|out| {
            verify(input, &out)?;
            let counts = Counts::of(&out.metrics);
            if single_threaded(input.engine) && *first_counts.get_or_insert(counts) != counts {
                return Err(format!(
                    "counts drifted between ops: {first_counts:?} then {counts:?}"
                ));
            }
            Ok(out)
        });
        match checked {
            Ok(out) => block.last = Some((out.metrics, out.vcds.iter().map(String::len).sum())),
            Err(e) => block.failures.push(format!("op {n}: {e}")),
        }
        after_op(n + 1);
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::tiny;

    #[test]
    fn every_engine_passes_the_oracle_on_a_small_multiplier() {
        for engine in [
            Engine::Seq,
            Engine::Chaotic { threads: 1 },
            Engine::Compiled { threads: 2 },
            Engine::Batch { threads: 1 },
        ] {
            let input = tiny(engine);
            let out = run_op(&input, &mut Tracer::off()).unwrap();
            verify(&input, &out).unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        }
    }

    #[test]
    fn corrupted_expected_hash_is_reported_as_a_failure() {
        let mut input = tiny(Engine::Seq);
        input.lanes[0].expected.as_mut().unwrap().hash ^= 1;
        let out = run_op(&input, &mut Tracer::off()).unwrap();
        let err = verify(&input, &out).unwrap_err();
        assert!(err.contains("the oracle's is"), "{err}");
        let block = run_block(&input, 0.0, 3, &mut Tracer::off(), false, |_| ());
        assert_eq!((block.ops.len(), block.failures.len()), (3, 3));
        assert!(block.last.is_none());
    }

    #[test]
    fn wrong_product_and_unknown_watch_are_failures() {
        let mut input = tiny(Engine::Seq);
        input.lanes[0].products[1].1 += 1;
        let out = run_op(&input, &mut Tracer::off()).unwrap();
        assert!(verify(&input, &out).unwrap_err().contains("product at"));
        let mut input = tiny(Engine::Seq);
        input.watch.push("ghost".into());
        assert!(run_op(&input, &mut Tracer::off()).is_err());
    }

    #[test]
    fn op_spans_nest_under_the_op_and_alternate_when_asked() {
        let input = tiny(Engine::Chaotic { threads: 1 });
        let mut tr = Tracer::new(Instant::now(), 0);
        let block = run_block(&input, 0.0, 4, &mut tr, true, |_| ());
        assert!(block.failures.is_empty(), "{:?}", block.failures);
        assert_eq!(block.latencies_ms(true).len(), 2);
        assert_eq!(block.latencies_ms(false).len(), 2);
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names[..5],
            [
                "op",
                "netlist.parse",
                "bench.resolve",
                "core.run",
                "core.vcd"
            ]
        );
        assert_eq!(tr.spans().iter().filter(|s| s.name == "op").count(), 2);
        assert!(tr.spans()[1..5]
            .iter()
            .all(|s| s.parent == Some(0) && s.op == 1));
    }
}
