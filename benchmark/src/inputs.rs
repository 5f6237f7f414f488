//! Seeded inputs and their oracle.
//!
//! Circuits are built with the `parsim_circuits` generators, never from
//! text, so an op that goes through `to_text` → `from_text` also checks the
//! round trip. The expected output of every op is an `EventDriven` run of
//! the generator-built netlist, stored as VCD length + FNV-1a hash (the
//! full text where a server response is byte-compared).

use std::sync::Arc;

use parsim_circuits::{gate_multiplier, inverter_array, pipelined_cpu};
use parsim_core::{EventDriven, SimConfig};
use parsim_logic::{expand_generator, ElementKind, Time, Value};
use parsim_netlist::{Netlist, NodeId};

use crate::sizes::*;
use crate::stats::fnv1a;

pub const WORKLOADS: [&str; 7] = [
    "mult16_async",
    "cpu_async",
    "invarray_compiled",
    "mult16_batch",
    "netio_wide",
    "serve_shared",
    "serve_mixed",
];

/// SplitMix64: the benchmark's only source of pseudo-randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The fixed operand pool number `stream`: `pairs` nonzero `bits`-bit pairs.
fn operand_pool(bits: usize, pairs: usize, stream: u64) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(POOL_SEED ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mask = (1u64 << bits) - 1;
    (0..pairs)
        .map(|_| ((rng.next() & mask).max(1), (rng.next() & mask).max(1)))
        .collect()
}

/// A return-to-zero operand schedule: `(0,0), p, (0,0), q, …, (0,0)` with
/// the pool's pairs in an order drawn from `rng`.
///
/// Event counts of a gate multiplier swing ±10% between random operand
/// sequences, which would drown every bound in seed-to-seed spread. With a
/// zero pair between operands each pair costs its own `0→p` and `p→0`
/// transitions whatever its neighbours, so every seed simulates exactly the
/// same events in a different order (and yields a different VCD).
fn rtz_schedule(pool: &[(u64, u64)], rng: &mut Rng) -> Vec<(u64, u64)> {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut order);
    let mut schedule = vec![(0, 0)];
    for i in order {
        schedule.push(pool[i]);
        schedule.push((0, 0));
    }
    schedule
}

/// Per-node stimulus overrides as `(node name, [(time, value)])`: the shape
/// of the server's `drive=` parameter, resolved into a `LaneStimulus` for
/// batch lanes.
pub type Drive = Vec<(String, Vec<(u64, u64)>)>;

/// What an op's VCD must hash to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub len: usize,
    pub hash: u64,
}

impl Expected {
    pub fn of(vcd: &str) -> Expected {
        Expected {
            len: vcd.len(),
            hash: fnv1a(vcd.as_bytes()),
        }
    }

    pub fn check(&self, vcd: &str) -> Result<(), String> {
        let got = Expected::of(vcd);
        if got == *self {
            Ok(())
        } else {
            Err(format!(
                "VCD is {} bytes with hash {:016x}, the oracle's is {} bytes with hash {:016x}",
                got.len, got.hash, self.len, self.hash
            ))
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Seq,
    Chaotic {
        threads: usize,
    },
    Compiled {
        threads: usize,
    },
    /// `CompiledMode::run_batch`, one lane per `LaneInput`.
    Batch {
        threads: usize,
    },
}

/// One simulation of the netlist: the base stimulus (empty `drive`) or a
/// batch lane with its own.
#[derive(Debug, Clone)]
pub struct LaneInput {
    pub drive: Drive,
    /// `(sample time, a·b)`; empty for circuits that are not multipliers.
    pub products: Vec<(u64, u64)>,
    /// Set on lanes whose VCD the op encodes and the oracle checks.
    pub expected: Option<Expected>,
}

/// A request carried from netlist text to VCD bytes by library calls.
#[derive(Debug, Clone)]
pub struct PipelineInput {
    pub text: String,
    /// The generator-built netlist the scalar oracle and the layer probes
    /// run: the one the text was rendered from, or for a batch the same
    /// structure with lane 0's schedule in its own generators.
    pub netlist: Netlist,
    pub watch: Vec<String>,
    pub end: u64,
    pub engine: Engine,
    /// One lane for the scalar engines, the batch's lanes for `Batch`.
    pub lanes: Vec<LaneInput>,
    /// Product bit names, LSB first; empty when no lane has products.
    pub product_bits: Vec<String>,
}

/// The same request as a server job.
#[derive(Debug, Clone)]
pub struct JobTemplate {
    pub text: Arc<str>,
    pub watch: Vec<String>,
    pub end: u64,
    pub drive: Drive,
    /// The scalar oracle's VCD, byte-compared with the response; `None`
    /// where only the response status is checked (layer probes).
    pub expected_vcd: Option<Arc<str>>,
}

/// Jobs of the closed loop cycle through `templates`; template `i` carries
/// tenant `i % SERVE_TENANTS`'s stimulus, and the count is 1 or a multiple
/// of the tenant count, so every wave holds each tenant once.
#[derive(Debug, Clone)]
pub struct ServeInput {
    pub templates: Vec<JobTemplate>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timed {
    Pipeline,
    Serve,
}

/// Everything one workload runs: the op that is timed, and the same request
/// in the other form so the traced run can measure every layer on it.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub timed: Timed,
    pub pipeline: PipelineInput,
    pub serve: ServeInput,
}

fn node_names(netlist: &Netlist, ids: &[NodeId]) -> Vec<String> {
    ids.iter()
        .map(|&id| netlist.node(id).name().to_string())
        .collect()
}

fn oracle_vcd(netlist: &Netlist, watch: &[NodeId], end: u64) -> Result<String, String> {
    let config = SimConfig::new(Time(end)).watch_all(watch.iter().copied());
    EventDriven::run(netlist, &config)
        .map(|r| r.to_vcd())
        .map_err(|e| format!("oracle run: {e}"))
}

/// An operand schedule as stimulus: the drive that reproduces it on a
/// multiplier whose own generators carry another schedule, and the product
/// due just before each next operand pair.
struct Stimulus {
    drive: Drive,
    products: Vec<(u64, u64)>,
}

fn stimulus(bits: usize, period: u64, schedule: &[(u64, u64)]) -> Stimulus {
    let end = Time(schedule.len() as u64 * period);
    let bus = |prefix: &str, pick: fn(&(u64, u64)) -> u64| -> Drive {
        (0..bits)
            .map(|bit| {
                let values: Vec<Value> = schedule
                    .iter()
                    .map(|p| Value::bit((pick(p) >> bit) & 1 == 1))
                    .collect();
                // The same expansion the engines apply to the multiplier's
                // own `Pattern` generators.
                let kind = ElementKind::Pattern {
                    period,
                    values: values.into(),
                };
                let changes = expand_generator(&kind, end)
                    .into_iter()
                    .map(|(t, v)| (t.ticks(), v.to_u64().expect("operand bits are 0 or 1")))
                    .collect();
                (format!("{prefix}{bit}"), changes)
            })
            .collect()
    };
    let mut drive = bus("a", |p| p.0);
    drive.extend(bus("b", |p| p.1));
    let products = schedule
        .iter()
        .enumerate()
        .map(|(k, &(a, b))| ((k as u64 + 1) * period - 1, a * b))
        .collect();
    Stimulus { drive, products }
}

impl Stimulus {
    fn lane(self, expected: Option<Expected>) -> LaneInput {
        LaneInput {
            drive: self.drive,
            products: self.products,
            expected,
        }
    }
}

/// A gate multiplier whose generators carry `schedule`, built to be run by
/// the oracle.
struct Mult {
    netlist: Netlist,
    product: Vec<NodeId>,
    end: u64,
}

fn mult(bits: usize, period: u64, schedule: &[(u64, u64)]) -> Result<Mult, String> {
    let m = gate_multiplier(bits, schedule, period).map_err(|e| format!("multiplier: {e}"))?;
    Ok(Mult {
        end: m.schedule_end().ticks(),
        product: m.product,
        netlist: m.netlist,
    })
}

impl Mult {
    fn oracle(&self) -> Result<String, String> {
        oracle_vcd(&self.netlist, &self.product, self.end)
    }

    fn product_names(&self) -> Vec<String> {
        node_names(&self.netlist, &self.product)
    }
}

/// A scalar pipeline over `netlist` with the base stimulus only.
fn scalar_pipeline(
    netlist: Netlist,
    watch: &[NodeId],
    end: u64,
    engine: Engine,
    product_bits: Vec<String>,
    products: Vec<(u64, u64)>,
) -> Result<PipelineInput, String> {
    let expected = Expected::of(&oracle_vcd(&netlist, watch, end)?);
    Ok(PipelineInput {
        text: netlist.to_text(),
        watch: node_names(&netlist, watch),
        netlist,
        end,
        engine,
        lanes: vec![LaneInput {
            drive: Vec::new(),
            products,
            expected: Some(expected),
        }],
        product_bits,
    })
}

/// The pipeline's own request as one unchecked job template: what the
/// traced run submits to measure the server layers on this input.
fn probe_job(p: &PipelineInput) -> ServeInput {
    ServeInput {
        templates: vec![JobTemplate {
            text: p.text.as_str().into(),
            watch: p.watch.clone(),
            end: p.end,
            drive: p.lanes[0].drive.clone(),
            expected_vcd: None,
        }],
    }
}

fn pipeline_workload(pipeline: PipelineInput) -> Inputs {
    Inputs {
        timed: Timed::Pipeline,
        serve: probe_job(&pipeline),
        pipeline,
    }
}

/// A multiplier whose own schedule is all zero pairs: the shared text of
/// batch lanes and server tenants, the same for every seed.
fn zero_base(bits: usize, period: u64, vectors: usize) -> Result<Mult, String> {
    mult(bits, period, &vec![(0, 0); vectors])
}

/// A batch pipeline over `base` with one lane per schedule; lanes named in
/// `checked` carry the scalar oracle's VCD of their schedule.
fn batch_pipeline(
    base: Mult,
    (bits, period): (usize, u64),
    threads: usize,
    schedules: &[Vec<(u64, u64)>],
    checked: &[usize],
) -> Result<PipelineInput, String> {
    let lanes = schedules
        .iter()
        .enumerate()
        .map(|(l, schedule)| {
            let expected = match checked.contains(&l) {
                true => Some(Expected::of(&mult(bits, period, schedule)?.oracle()?)),
                false => None,
            };
            Ok(stimulus(bits, period, schedule).lane(expected))
        })
        .collect::<Result<_, String>>()?;
    Ok(PipelineInput {
        text: base.netlist.to_text(),
        watch: base.product_names(),
        product_bits: base.product_names(),
        netlist: mult(bits, period, &schedules[0])?.netlist,
        end: base.end,
        engine: Engine::Batch { threads },
        lanes,
    })
}

fn mult16_async(seed: u64) -> Result<Inputs, String> {
    let pool = operand_pool(MULT16_BITS, MULT16_ASYNC_PAIRS, 0);
    let schedule = rtz_schedule(&pool, &mut Rng::new(seed));
    let m = mult(MULT16_BITS, MULT16_PERIOD, &schedule)?;
    let (bits, product) = (m.product_names(), m.product.clone());
    let products = stimulus(MULT16_BITS, MULT16_PERIOD, &schedule).products;
    scalar_pipeline(
        m.netlist,
        &product,
        m.end,
        Engine::Chaotic { threads: 1 },
        bits,
        products,
    )
    .map(pipeline_workload)
}

fn cpu_async() -> Result<Inputs, String> {
    let cpu = pipelined_cpu(CPU_WIDTH, CPU_HALF_PERIOD).map_err(|e| format!("cpu: {e}"))?;
    let watch: Vec<NodeId> = cpu.pc.iter().chain(&cpu.wb_result).copied().collect();
    let end = CPU_CYCLES * 2 * CPU_HALF_PERIOD;
    scalar_pipeline(
        cpu.netlist,
        &watch,
        end,
        Engine::Chaotic { threads: 1 },
        Vec::new(),
        Vec::new(),
    )
    .map(pipeline_workload)
}

fn invarray_compiled() -> Result<Inputs, String> {
    let array =
        inverter_array(INV_COLS, INV_DEPTH, INV_TOGGLE).map_err(|e| format!("array: {e}"))?;
    scalar_pipeline(
        array.netlist,
        &array.taps,
        INV_END,
        Engine::Compiled {
            threads: INV_THREADS,
        },
        Vec::new(),
        Vec::new(),
    )
    .map(pipeline_workload)
}

fn netio_wide(seed: u64) -> Result<Inputs, String> {
    let pool = operand_pool(NETIO_BITS, NETIO_PAIRS, 0);
    let schedule = rtz_schedule(&pool, &mut Rng::new(seed));
    let m = mult(NETIO_BITS, NETIO_PERIOD, &schedule)?;
    let bits = m.product_names();
    let every_node: Vec<NodeId> = m.netlist.iter_nodes().map(|(id, _)| id).collect();
    let products = stimulus(NETIO_BITS, NETIO_PERIOD, &schedule).products;
    scalar_pipeline(m.netlist, &every_node, m.end, Engine::Seq, bits, products)
        .map(pipeline_workload)
}

fn mult16_batch(seed: u64) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed);
    let mut lane_ids: Vec<usize> = (0..BATCH_LANES).collect();
    rng.shuffle(&mut lane_ids);
    let schedules: Vec<Vec<(u64, u64)>> = (0..BATCH_LANES)
        .map(|l| {
            rtz_schedule(
                &operand_pool(MULT16_BITS, BATCH_PAIRS, 1 + l as u64),
                &mut rng,
            )
        })
        .collect();
    batch_pipeline(
        zero_base(MULT16_BITS, MULT16_PERIOD, 2 * BATCH_PAIRS + 1)?,
        (MULT16_BITS, MULT16_PERIOD),
        1,
        &schedules,
        &lane_ids[..BATCH_CHECKED_LANES],
    )
    .map(pipeline_workload)
}

/// A server workload over `netlists` multipliers `(bits, period)`: template
/// `j` is tenant `j % SERVE_TENANTS`'s stimulus on netlist `j % len`. The
/// pipeline form is one server pass replayed by library calls: the batch
/// the scheduler runs when the first `pass_lanes` tenants' jobs of netlist
/// 0 meet in one bin.
fn serve_workload(
    seed: u64,
    netlists: &[(usize, u64)],
    pass_lanes: usize,
) -> Result<Inputs, String> {
    let vectors = 2 * SERVE_PAIRS + 1;
    let mut rng = Rng::new(seed);
    let pools: Vec<Vec<(u64, u64)>> = (0..SERVE_TENANTS)
        .map(|t| {
            rtz_schedule(
                &operand_pool(MULT16_BITS, SERVE_PAIRS, 1000 + t as u64),
                &mut rng,
            )
        })
        .collect();
    // Tenant `t`'s schedule cut down to a `bits`-wide multiplier.
    let schedule = |t: usize, bits: usize| -> Vec<(u64, u64)> {
        let mask = (1u64 << bits) - 1;
        pools[t]
            .iter()
            .map(|&(a, b)| (a & mask, b & mask))
            .collect()
    };

    // One shared text per distinct netlist, however many tenants send it.
    let bases = netlists
        .iter()
        .map(|&(bits, period)| {
            let base = zero_base(bits, period, vectors)?;
            let text: Arc<str> = base.netlist.to_text().into();
            Ok((text, base.product_names(), base.end))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let templates = (0..netlists.len().max(SERVE_TENANTS))
        .map(|j| {
            let (bits, period) = netlists[j % netlists.len()];
            let (text, watch, end) = bases[j % netlists.len()].clone();
            let schedule = schedule(j % SERVE_TENANTS, bits);
            Ok(JobTemplate {
                text,
                watch,
                end,
                drive: stimulus(bits, period, &schedule).drive,
                expected_vcd: Some(mult(bits, period, &schedule)?.oracle()?.into()),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let (bits, period) = netlists[0];
    let pass: Vec<Vec<(u64, u64)>> = (0..pass_lanes).map(|t| schedule(t, bits)).collect();
    let every_lane: Vec<usize> = (0..pass_lanes).collect();
    let pipeline = batch_pipeline(
        zero_base(bits, period, vectors)?,
        (bits, period),
        SERVE_THREADS,
        &pass,
        &every_lane,
    )?;
    Ok(Inputs {
        timed: Timed::Serve,
        pipeline,
        serve: ServeInput { templates },
    })
}

/// Builds workload `name`'s inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Result<Inputs, String> {
    match name {
        "mult16_async" => mult16_async(seed),
        "cpu_async" => cpu_async(),
        "invarray_compiled" => invarray_compiled(),
        "mult16_batch" => mult16_batch(seed),
        "netio_wide" => netio_wide(seed),
        "serve_shared" => serve_workload(seed, &[(MULT16_BITS, MULT16_PERIOD)], SERVE_TENANTS),
        "serve_mixed" => {
            let netlists: Vec<(usize, u64)> = MIXED_PERIODS
                .iter()
                .flat_map(|&p| MIXED_WIDTHS.iter().map(move |&w| (w, p)))
                .collect();
            serve_workload(seed, &netlists, 1)
        }
        other => Err(format!(
            "unknown workload '{other}' (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// A 4-bit multiplier pipeline small enough for unit tests.
#[cfg(test)]
pub fn tiny(engine: Engine) -> PipelineInput {
    let schedule = rtz_schedule(&operand_pool(4, 3, 0), &mut Rng::new(7));
    let m = mult(4, 64, &schedule).unwrap();
    let (bits, product) = (m.product_names(), m.product.clone());
    let products = stimulus(4, 64, &schedule).products;
    scalar_pipeline(m.netlist, &product, m.end, engine, bits, products).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_order() {
        let a = build("mult16_async", 3).unwrap();
        let b = build("mult16_async", 3).unwrap();
        let c = build("mult16_async", 4).unwrap();
        assert_eq!(a.pipeline.text, b.pipeline.text);
        assert_eq!(a.pipeline.lanes[0].expected, b.pipeline.lanes[0].expected);
        assert_ne!(a.pipeline.text, c.pipeline.text);
        // Another seed permutes the same pool: the same products, reordered.
        let products = |i: &Inputs| {
            let mut p: Vec<u64> = i.pipeline.lanes[0]
                .products
                .iter()
                .map(|&(_, p)| p)
                .collect();
            p.sort_unstable();
            p
        };
        assert_eq!(products(&a), products(&c));
    }

    #[test]
    fn rtz_schedule_returns_to_zero_between_pairs() {
        let pool = operand_pool(8, 5, 0);
        let s = rtz_schedule(&pool, &mut Rng::new(1));
        assert_eq!(s.len(), 11);
        assert!(s.iter().step_by(2).all(|&p| p == (0, 0)));
        assert!(s.iter().skip(1).step_by(2).all(|p| pool.contains(p)));
    }

    #[test]
    fn mixed_templates_cover_24_distinct_netlists_and_keep_tenants() {
        let mixed = build("serve_mixed", 1).unwrap();
        let texts: std::collections::BTreeSet<&str> =
            mixed.serve.templates.iter().map(|t| &*t.text).collect();
        assert_eq!((mixed.serve.templates.len(), texts.len()), (24, 24));
        assert_eq!(mixed.pipeline.lanes.len(), 1);
        let shared = build("serve_shared", 1).unwrap();
        assert_eq!(shared.serve.templates.len(), SERVE_TENANTS);
        assert!(shared
            .serve
            .templates
            .iter()
            .all(|t| t.text == shared.serve.templates[0].text));
        assert_eq!(shared.pipeline.lanes.len(), SERVE_TENANTS);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(build("nope", 1).unwrap_err().contains("unknown workload"));
    }
}
