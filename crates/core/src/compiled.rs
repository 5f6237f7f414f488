//! The parallel unit-delay compiled-mode engine (§3 of the paper).
//!
//! "In compiled mode, every element is executed every time step. To
//! parallelize this, the elements are statically partitioned among the
//! processors and each processor evaluates its assigned elements every
//! timestep. The processors synchronize at the end of every time-step."
//!
//! Compiled mode *imposes* unit delay: an element's outputs computed from
//! inputs at step `t` appear at step `t + 1`, regardless of the element's
//! declared delay. On circuits whose delays are all 1 this produces
//! waveforms identical to the event-driven engines; on other circuits it
//! is a different (coarser) timing model — exactly the trade-off the
//! paper discusses.
//!
//! Since PR 2 the engine no longer walks `Element` structs: the netlist is
//! lowered once by [`CompiledProgram`] into a level-major instruction
//! stream (dense opcodes + slot indices), and two executors run that
//! stream — a scalar one ([`CompiledMode::run`]) and a word-parallel one
//! packing any number of independent stimulus lanes into SIMD-wide
//! bit-plane word groups ([`CompiledMode::run_batch`]; 64–512 lanes per
//! kernel pass depending on the CPU, chunked beyond that — see
//! [`parsim_logic::wide`]). Both gate work with per-block dirty
//! bitmasks unless [`SimConfig::without_activity_gating`] is set; skipped
//! work is reported in [`Metrics::blocks_skipped`] /
//! [`Metrics::evals_skipped`](crate::Metrics::evals_skipped).
//!
//! [`CompiledProgram`]: parsim_netlist::compile::CompiledProgram
//! [`Metrics::blocks_skipped`]: crate::Metrics::blocks_skipped

use parsim_checkpoint::EngineSnapshot;
use parsim_logic::{Time, Value};
use parsim_netlist::compile::CompiledProgram;
use parsim_netlist::{Netlist, NodeId};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::kernel;
use crate::metrics::Metrics;
use crate::waveform::SimResult;

/// One lane's stimulus for [`CompiledMode::run_batch`] or
/// [`EventDriven::run_lane`]: per-node schedule overrides applied on top
/// of the netlist's own generators.
///
/// [`EventDriven::run_lane`]: crate::EventDriven::run_lane
///
/// Each override replaces the named node's generator schedule (or drives an
/// undriven node) *for that lane only*; nodes without an override follow
/// the netlist's base generators in every lane. Schedules are `(time,
/// value)` pairs, strictly increasing in time, each value the node's width.
#[derive(Debug, Clone, Default)]
pub struct LaneStimulus {
    /// `(node, schedule)` pairs; the schedule fully replaces the node's
    /// base generator for this lane.
    pub overrides: Vec<(NodeId, Vec<(Time, Value)>)>,
}

impl LaneStimulus {
    /// A lane that follows the netlist's base generators unchanged.
    pub fn base() -> LaneStimulus {
        LaneStimulus::default()
    }

    /// Adds one node override (builder style).
    #[must_use]
    pub fn drive(mut self, node: NodeId, schedule: Vec<(Time, Value)>) -> LaneStimulus {
        self.overrides.push((node, schedule));
        self
    }

    /// Checks every override against `netlist`, the one check both engines
    /// and the server's submit path apply.
    ///
    /// # Errors
    ///
    /// The reason the first bad override is refused: it targets an unknown
    /// node or one driven by a non-generator element, its schedule is
    /// empty, not strictly increasing in time or of the wrong width, or the
    /// same node is overridden twice.
    pub fn validate(&self, netlist: &Netlist) -> Result<(), String> {
        for (node, schedule) in &self.overrides {
            if node.index() >= netlist.num_nodes() {
                return Err(format!(
                    "override targets unknown node index {}",
                    node.index()
                ));
            }
            let n = netlist.node(*node);
            if let Some((drv, _)) = n.driver() {
                if !netlist.element(drv).kind().is_generator() {
                    return Err(format!(
                        "override targets node '{}', which is driven by non-generator element '{}'",
                        n.name(),
                        netlist.element(drv).name()
                    ));
                }
            }
            if schedule.is_empty() {
                return Err(format!(
                    "override for node '{}' has an empty schedule",
                    n.name()
                ));
            }
            if !schedule.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!(
                    "override for node '{}' is not strictly increasing in time",
                    n.name()
                ));
            }
            if let Some((_, v)) = schedule.iter().find(|(_, v)| v.width() != n.width()) {
                return Err(format!(
                    "override for node '{}' has width {} (node is {})",
                    n.name(),
                    v.width(),
                    n.width()
                ));
            }
        }
        let mut nodes: Vec<NodeId> = self.overrides.iter().map(|(n, _)| *n).collect();
        nodes.sort_unstable();
        match nodes.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(format!(
                "overrides node '{}' twice",
                netlist.node(w[0]).name()
            )),
            None => Ok(()),
        }
    }
}

/// Result of a [`CompiledMode::run_batch`] call: one [`SimResult`] per
/// stimulus lane plus the aggregate metrics of the packed run.
///
/// `lanes[i]` holds lane `i`'s waveforms, bit-identical to a scalar run of
/// that lane's stimulus. Each lane's embedded `metrics` is a copy of the
/// batch-wide [`BatchResult::metrics`] (word-parallel execution has no
/// per-lane cost breakdown), where `evaluations` counts *word-group*
/// instruction executions — each covering up to [`Metrics::lane_width`]
/// lanes at once.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-lane simulation results, in stimulus order.
    pub lanes: Vec<SimResult>,
    /// Aggregate metrics for the whole packed run.
    pub metrics: Metrics,
    /// Finished run telemetry (the batch has no single [`SimResult`] to
    /// carry it, so it rides here).
    pub telemetry: Option<parsim_telemetry::RunTelemetry>,
}

/// The parallel compiled-mode simulator.
///
/// # Examples
///
/// ```
/// use parsim_core::{CompiledMode, SimConfig};
/// use parsim_logic::{Delay, ElementKind, Time};
/// use parsim_netlist::Builder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Builder::new();
/// let clk = b.node("clk", 1);
/// let out = b.node("out", 1);
/// b.element("osc", ElementKind::Clock { half_period: 4, offset: 4 }, Delay(1), &[], &[clk])?;
/// b.element("inv", ElementKind::Not, Delay(1), &[clk], &[out])?;
/// let netlist = b.finish()?;
/// let r = CompiledMode::run(&netlist, &SimConfig::new(Time(20)).watch(out).threads(2))?;
/// assert!(r.waveform(out).unwrap().num_changes() > 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CompiledMode;

impl CompiledMode {
    /// Runs with the compiled program's own level-aware LPT partition:
    /// instruction costs are balanced across `config.threads` processors
    /// *within each level bucket*, so no thread sits idle at the step
    /// barrier while another finishes a deep level.
    ///
    /// Which thread owns which element affects load balance only, never
    /// waveforms: compiled mode double-buffers node values (outputs land
    /// in a pending set applied only after the step barrier), so the order
    /// in which a step's instructions are evaluated cannot matter.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WorkerPanicked`] if any worker panicked (the
    /// step barrier is poisoned so peers unblock, and every thread is
    /// joined first), and [`SimError::Stalled`] /
    /// [`SimError::DeadlineExceeded`] if the configured watchdog cancelled
    /// the run.
    pub fn run(netlist: &Netlist, config: &SimConfig) -> Result<SimResult, SimError> {
        kernel::scalar::run(netlist, config, &CompiledProgram::compile(netlist))
    }

    /// Runs one checkpoint segment on the scalar executor with the
    /// level-aware LPT partition (the batch API has its own segment entry
    /// point, [`CompiledMode::run_batch_segment`]). See
    /// [`kernel::scalar::run_segment`] for the unit-delay snapshot shape.
    pub(crate) fn run_segment(
        netlist: &Netlist,
        config: &SimConfig,
        seg: crate::checkpoint::SegmentSpec<'_>,
    ) -> Result<crate::checkpoint::SegmentOut, SimError> {
        kernel::scalar::run_segment(netlist, config, &CompiledProgram::compile(netlist), seg)
    }

    /// Runs any number of stimulus sets in word-parallel SIMD passes.
    ///
    /// Each lane is an independent simulation of the same netlist:
    /// `stimuli[i]` describes lane `i` as per-node schedule overrides on
    /// top of the base generators (see [`LaneStimulus`]). Node values are
    /// stored as two bit-plane word groups per node bit — lane `i` lives
    /// in bit `i` of its word group — so one AND instruction evaluates a
    /// gate for up to 512 lanes at once (64 per 64-bit word).
    /// The lanes are split into contiguous chunks by the batch's shape:
    /// at most 512 lanes each, and at least one per thread while lanes
    /// last (or [`SimConfig::with_lane_width`] lanes each), each run at
    /// the narrowest word group that covers it, so thousands of lanes are
    /// fine. Threads split lanes, not gates: worker `w` of
    /// `min(threads, chunks)` runs chunks `w`, `w + workers`, … start to
    /// finish, with no step barrier. Lanes' waveforms are extracted
    /// separately and are bit-identical to running each stimulus through
    /// the scalar engine.
    ///
    /// Activity gating, quiet-step jumps and the containment machinery
    /// (watchdog, fault plan) behave as in [`CompiledMode::run`]. In the
    /// returned metrics, `evaluations` counts word-group instruction
    /// executions (all lanes of a chunk at once), `events_processed`
    /// counts per-lane value changes, and [`Metrics::lane_width`] reports
    /// the widest word group used.
    ///
    /// # Errors
    ///
    /// All of [`CompiledMode::run`]'s errors, plus
    /// [`SimError::InvalidConfig`] when `stimuli` is empty, a lane has an
    /// override [`LaneStimulus::validate`] refuses, or a forced lane width
    /// is not one of 64/128/256/512.
    pub fn run_batch(
        netlist: &Netlist,
        config: &SimConfig,
        stimuli: &[LaneStimulus],
    ) -> Result<BatchResult, SimError> {
        let prog = CompiledProgram::compile(netlist);
        CompiledMode::run_batch_with_program(netlist, config, &prog, stimuli)
    }

    /// [`CompiledMode::run_batch`] with a caller-supplied compiled
    /// program — the compile-once/run-many entry point. Callers that
    /// serve many batches of the same netlist (e.g. a multi-tenant
    /// simulation service keyed by netlist digest) compile once, cache
    /// the [`CompiledProgram`], and skip the lowering pass on every
    /// subsequent batch.
    ///
    /// `program` must have been compiled from this exact `netlist`; the
    /// pairing is the caller's contract (a digest cache keyed by
    /// [`parsim_checkpoint::netlist_digest`] satisfies it).
    ///
    /// # Errors
    ///
    /// All of [`CompiledMode::run_batch`]'s errors, plus
    /// [`SimError::InvalidConfig`] when `program` disagrees with
    /// `netlist` on the element count (the cheap pairing sanity check).
    pub fn run_batch_with_program(
        netlist: &Netlist,
        config: &SimConfig,
        program: &CompiledProgram,
        stimuli: &[LaneStimulus],
    ) -> Result<BatchResult, SimError> {
        check_program_pairing(netlist, program)?;
        let end = config.end_time.ticks();
        kernel::packed::run_batch_segment(netlist, config, program, stimuli, None, end, false)
            .map(|(result, _)| result)
    }

    /// Runs one checkpoint segment of the word-parallel batch kernel:
    /// simulate every lane up to (and including) step `cut`, and return
    /// one [`EngineSnapshot`] per lane alongside the segment's
    /// [`BatchResult`].
    ///
    /// `resume` takes the snapshots of a previous
    /// `run_batch_segment` call (one per lane, all at the same cut) and
    /// continues from the step after; `None` starts from time zero. Each
    /// returned snapshot is individually interchangeable with a
    /// scalar-engine snapshot of that lane's stimulus: a batch can be
    /// cut, one lane extracted and resumed on the scalar checkpointed
    /// engine, or vice versa, without changing its waveform.
    ///
    /// Waveform results in the returned [`BatchResult`] cover only this
    /// segment (changes after the resume time, up to the cut).
    ///
    /// # Errors
    ///
    /// All of [`CompiledMode::run_batch`]'s errors, plus
    /// [`SimError::InvalidConfig`] when the resume snapshots don't match
    /// the lane count, disagree on their snapshot time, or are not
    /// strictly before `cut`, and [`SimError::Checkpoint`] when one does
    /// not fit the netlist or was captured for another `end_time`.
    pub fn run_batch_segment(
        netlist: &Netlist,
        config: &SimConfig,
        stimuli: &[LaneStimulus],
        resume: Option<&[EngineSnapshot]>,
        cut: Time,
    ) -> Result<(BatchResult, Vec<EngineSnapshot>), SimError> {
        let prog = CompiledProgram::compile(netlist);
        CompiledMode::run_batch_segment_with_program(netlist, config, &prog, stimuli, resume, cut)
    }

    /// [`CompiledMode::run_batch_segment`] with a caller-supplied compiled
    /// program — see [`CompiledMode::run_batch_with_program`] for the
    /// compile-once/run-many contract and the pairing check.
    pub fn run_batch_segment_with_program(
        netlist: &Netlist,
        config: &SimConfig,
        program: &CompiledProgram,
        stimuli: &[LaneStimulus],
        resume: Option<&[EngineSnapshot]>,
        cut: Time,
    ) -> Result<(BatchResult, Vec<EngineSnapshot>), SimError> {
        check_program_pairing(netlist, program)?;
        let (result, snaps) = kernel::packed::run_batch_segment(
            netlist,
            config,
            program,
            stimuli,
            resume,
            cut.ticks(),
            true,
        )?;
        Ok((result, snaps.expect("capture was requested")))
    }
}

/// The cheap sanity check that a cached [`CompiledProgram`] actually belongs
/// to `netlist`. Element count is the only structural property both sides
/// expose; a digest-keyed cache makes deeper mismatches unreachable.
fn check_program_pairing(netlist: &Netlist, program: &CompiledProgram) -> Result<(), SimError> {
    if program.num_elements() != netlist.num_elements() {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "compiled program was built from a different netlist: program has {} elements, netlist has {}",
                program.num_elements(),
                netlist.num_elements()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::assert_equivalent;
    use crate::seq::EventDriven;
    use parsim_logic::{Delay, ElementKind};
    use parsim_netlist::Builder;

    fn clocked_chain(len: usize) -> (Netlist, Vec<NodeId>) {
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        b.element(
            "osc",
            ElementKind::Clock {
                half_period: 5,
                offset: 5,
            },
            Delay(1),
            &[],
            &[clk],
        )
        .unwrap();
        let mut watch = vec![clk];
        let mut prev = clk;
        for i in 0..len {
            let n = b.node(&format!("n{i}"), 1);
            b.element(&format!("inv{i}"), ElementKind::Not, Delay(1), &[prev], &[n])
                .unwrap();
            watch.push(n);
            prev = n;
        }
        (b.finish().unwrap(), watch)
    }

    #[test]
    fn matches_event_driven_on_unit_delay_circuit() {
        let (n, watch) = clocked_chain(6);
        let cfg = SimConfig::new(Time(50)).watch_all(watch.clone());
        let seq = EventDriven::run(&n, &cfg).unwrap();
        for threads in [1, 2, 4] {
            let par = CompiledMode::run(&n, &cfg.clone().threads(threads)).unwrap();
            assert_equivalent(&seq, &par, &format!("compiled x{threads}"));
        }
    }

    #[test]
    fn dff_divider_matches() {
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        let rst = b.node("rst", 1);
        let q = b.node("q", 1);
        let d = b.node("d", 1);
        b.element(
            "osc",
            ElementKind::Clock {
                half_period: 4,
                offset: 4,
            },
            Delay(1),
            &[],
            &[clk],
        )
        .unwrap();
        b.element(
            "porst",
            ElementKind::Pulse { at: 0, width: 2 },
            Delay(1),
            &[],
            &[rst],
        )
        .unwrap();
        b.element(
            "ff",
            ElementKind::DffR { width: 1 },
            Delay(1),
            &[clk, d, rst],
            &[q],
        )
        .unwrap();
        b.element("inv", ElementKind::Not, Delay(1), &[q], &[d])
            .unwrap();
        let n = b.finish().unwrap();
        let cfg = SimConfig::new(Time(60)).watch(q).watch(d);
        let seq = EventDriven::run(&n, &cfg).unwrap();
        let par = CompiledMode::run(&n, &cfg.clone().threads(3)).unwrap();
        assert_equivalent(&seq, &par, "dff divider");
    }

    #[test]
    fn evaluations_count_every_element_every_step() {
        let (n, watch) = clocked_chain(4);
        // With gating off, the paper's literal behavior: 4 inverters
        // (clock generator excluded) * 10 eval steps.
        let ungated = SimConfig::new(Time(10))
            .watch_all(watch.clone())
            .without_activity_gating();
        let r = CompiledMode::run(&n, &ungated).unwrap();
        assert_eq!(r.metrics.evaluations, 4 * 10);
        assert_eq!(r.metrics.evals_skipped, 0);
        assert_eq!(r.metrics.time_steps, 11);
        // With gating on, evaluated + skipped still accounts for every
        // element every step — work is elided, never lost track of.
        let gated = SimConfig::new(Time(10)).watch_all(watch);
        let g = CompiledMode::run(&n, &gated).unwrap();
        assert_eq!(g.metrics.evaluations + g.metrics.evals_skipped, 4 * 10);
        assert_eq!(g.metrics.time_steps, 11);
    }

    #[test]
    fn gated_and_ungated_waveforms_match() {
        let (n, watch) = clocked_chain(7);
        let cfg = SimConfig::new(Time(60)).watch_all(watch).threads(2);
        let gated = CompiledMode::run(&n, &cfg).unwrap();
        let ungated =
            CompiledMode::run(&n, &cfg.clone().without_activity_gating()).unwrap();
        assert_equivalent(&gated, &ungated, "gating on/off");
    }

    #[test]
    fn batch_base_lanes_match_scalar_run() {
        let (n, watch) = clocked_chain(5);
        let cfg = SimConfig::new(Time(40)).watch_all(watch).threads(2);
        let scalar = CompiledMode::run(&n, &cfg).unwrap();
        let batch = CompiledMode::run_batch(
            &n,
            &cfg,
            &[LaneStimulus::base(), LaneStimulus::base(), LaneStimulus::base()],
        )
        .unwrap();
        assert_eq!(batch.lanes.len(), 3);
        for (i, lane) in batch.lanes.iter().enumerate() {
            assert_equivalent(&scalar, lane, &format!("batch lane {i}"));
        }
    }

    #[test]
    fn cached_program_reuse_matches_fresh_compile() {
        let (n, watch) = clocked_chain(5);
        let cfg = SimConfig::new(Time(40)).watch_all(watch).threads(2);
        let prog = CompiledProgram::compile(&n);
        let fresh = CompiledMode::run_batch(&n, &cfg, &[LaneStimulus::base()]).unwrap();
        // Same program serves several batches.
        for _ in 0..2 {
            let reused =
                CompiledMode::run_batch_with_program(&n, &cfg, &prog, &[LaneStimulus::base()])
                    .unwrap();
            assert_equivalent(&fresh.lanes[0], &reused.lanes[0], "program reuse");
        }
    }

    #[test]
    fn mismatched_program_is_invalid_config() {
        let (n, _) = clocked_chain(3);
        let (other, _) = clocked_chain(5);
        let prog = CompiledProgram::compile(&other);
        let cfg = SimConfig::new(Time(5));
        let err = CompiledMode::run_batch_with_program(&n, &cfg, &prog, &[LaneStimulus::base()])
            .unwrap_err();
        match err {
            SimError::InvalidConfig { reason } => {
                assert!(reason.contains("different netlist"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn batch_rejects_bad_stimuli() {
        let (n, _) = clocked_chain(2);
        let cfg = SimConfig::new(Time(5));
        // Empty batch.
        assert!(matches!(
            CompiledMode::run_batch(&n, &cfg, &[]),
            Err(SimError::InvalidConfig { .. })
        ));
        let clk = n.node_by_name("clk").unwrap();
        let n0 = n.node_by_name("n0").unwrap();
        let low = vec![(Time(0), Value::zero(1))];
        let bad = [
            (
                "unknown node",
                LaneStimulus::base().drive(NodeId::from_index(99), low.clone()),
            ),
            (
                "gate-driven node",
                LaneStimulus::base().drive(n0, low.clone()),
            ),
            (
                "empty schedule",
                LaneStimulus::base().drive(clk, Vec::new()),
            ),
            (
                "not increasing",
                LaneStimulus::base().drive(
                    clk,
                    vec![(Time(3), Value::zero(1)), (Time(3), Value::ones(1))],
                ),
            ),
            (
                "wrong width",
                LaneStimulus::base().drive(clk, vec![(Time(0), Value::zero(2))]),
            ),
            (
                "given twice",
                LaneStimulus::base().drive(clk, low.clone()).drive(clk, low),
            ),
        ];
        for (what, stim) in bad {
            let reason = stim.validate(&n).expect_err(what);
            // The batch names the lane, the one-lane engine does not.
            let batch = CompiledMode::run_batch(&n, &cfg, &[LaneStimulus::base(), stim.clone()]);
            let lane_1 = format!("lane 1 {reason}");
            assert!(
                matches!(&batch, Err(SimError::InvalidConfig { reason: r }) if *r == lane_1),
                "{what}: {batch:?}"
            );
            let lane = EventDriven::run_lane(&n, &cfg, &stim);
            assert!(
                matches!(&lane, Err(SimError::InvalidConfig { reason: r }) if *r == reason),
                "{what}: {lane:?}"
            );
        }
    }
}
