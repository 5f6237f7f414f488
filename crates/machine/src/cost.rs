//! The virtual machine's cost model.

/// Per-operation costs in virtual cycles.
///
/// One virtual cycle ≈ the time to evaluate one inverter (the paper's
/// "inverter event" unit, scaled by `event_scale`). Defaults are chosen so
/// the modeled algorithms land in the paper's reported ranges; every knob
/// is public so experiments can perturb them.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Fixed cost of dispatching one element evaluation (dequeue, fetch,
    /// call). The event-driven algorithm pays this per element per time
    /// step; the asynchronous algorithm amortizes it over a batch.
    pub eval_overhead: u64,
    /// Multiplier applied to an element's
    /// [`eval_cost`](parsim_logic::ElementKind::eval_cost) per evaluated
    /// event.
    pub event_scale: u64,
    /// Cost of one node update (read record, write value, scan fan-out).
    pub update_cost: u64,
    /// Cost of one distributed-queue operation (enqueue or dequeue).
    pub queue_op: u64,
    /// Extra serialization cost per operation on a *centralized* queue
    /// (lock acquisition); used only when
    /// [`MachineConfig::distributed_queues`] is false.
    pub central_queue_op: u64,
    /// Fixed barrier cost.
    pub barrier_base: u64,
    /// Per-processor barrier cost (linear arrival/release).
    pub barrier_per_proc: u64,
    /// Extra cost per stolen work item.
    pub steal_cost: u64,
    /// Cost of writing one event record into memory homed on the
    /// evaluating processor. Zero by default:
    /// local writes ride the `update_cost` charge.
    pub local_mem_cost: u64,
    /// Cost of writing one event record into memory homed on *another*
    /// processor. Sweeping this against `local_mem_cost` models what the
    /// paper's machine pays when event memory is not placed where the
    /// partition runs.
    pub remote_mem_cost: u64,
    /// Cache-sharing slowdown factor for paired processors at full memory
    /// pressure: each member of a sharing pair runs `1 + penalty *
    /// pressure` times slower. At the default 0.6 a pair delivers only
    /// ~25% more throughput than a lone processor, which collapses the
    /// speed-up slope past 8 processors — the knee the paper reports as
    /// "the dip in performance when using more than eight processors".
    pub cache_share_penalty: f64,
    /// Relative amplitude of data-dependent evaluation-time noise for
    /// functional elements ("the execution times, even for multiple
    /// evaluations of the same model, are unpredictable").
    pub eval_noise: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            eval_overhead: 6,
            event_scale: 2,
            update_cost: 2,
            queue_op: 2,
            central_queue_op: 4,
            barrier_base: 20,
            barrier_per_proc: 6,
            steal_cost: 3,
            local_mem_cost: 0,
            remote_mem_cost: 0,
            cache_share_penalty: 0.6,
            eval_noise: 0.5,
        }
    }
}

/// Optional OS working-set-scan interference: the paper's pre-fix kernel
/// interrupted one process for 0.1–0.25 s every 2 s, stalling every
/// barrier-synchronized peer (§2).
#[derive(Debug, Clone, Copy)]
pub struct OsInterrupts {
    /// Virtual cycles between interrupts.
    pub period: u64,
    /// Stall length in virtual cycles.
    pub duration: u64,
}

/// The interconnect the virtual processors communicate over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// The Encore Multimax's shared bus: uniform access.
    SharedMemory,
    /// A binary hypercube (the paper's §6 porting target): a message from
    /// processor `a` to `b` pays `hop_cost` cycles per differing address
    /// bit before it becomes visible.
    Hypercube { hop_cost: u64 },
}

impl Topology {
    /// Message latency between two processors.
    pub fn latency(&self, from: usize, to: usize) -> u64 {
        match self {
            Topology::SharedMemory => 0,
            Topology::Hypercube { hop_cost } => {
                hop_cost * (from ^ to).count_ones() as u64
            }
        }
    }

    /// Cost of a barrier over `procs` processors on this interconnect
    /// (dimension-ordered reduce + broadcast on the hypercube).
    pub fn barrier_extra(&self, procs: usize) -> u64 {
        match self {
            Topology::SharedMemory => 0,
            Topology::Hypercube { hop_cost } => {
                let dims = usize::BITS - procs.next_power_of_two().leading_zeros() - 1;
                2 * hop_cost * u64::from(dims)
            }
        }
    }
}

/// The virtual multiprocessor configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Processor count (the paper sweeps 1..=16).
    pub procs: usize,
    /// Processor cards; two processors share a cache once `procs`
    /// exceeds `cards` (Encore Multimax: 8 cards).
    pub cards: usize,
    /// Per-operation costs.
    pub cost: CostModel,
    /// End-of-phase work stealing (§2's +15–20% utilization fix).
    pub work_stealing: bool,
    /// Distributed per-processor queues versus the §2 strawman of one
    /// central queue.
    pub distributed_queues: bool,
    /// OS interference, if modeling the unpatched kernel.
    pub os_interrupts: Option<OsInterrupts>,
    /// Enable the asynchronous model's lookahead (controlling values and
    /// register triggers, as in the engine).
    pub lookahead: bool,
    /// The interconnect between virtual processors.
    pub topology: Topology,
    /// The paper's key difference from Chandy–Misra: valid times ratchet
    /// forward incrementally (`true`, no deadlock) versus advancing only
    /// when events flow (`false`, the classic scheme that deadlocks on
    /// feedback and needs global detection-and-recovery rounds).
    pub incremental_validity: bool,
}

impl MachineConfig {
    /// The Encore Multimax the paper used: 8 dual-processor cards, work
    /// stealing on, distributed queues, patched OS.
    pub fn multimax(procs: usize) -> MachineConfig {
        MachineConfig {
            procs,
            cards: 8,
            cost: CostModel::default(),
            work_stealing: true,
            distributed_queues: true,
            os_interrupts: None,
            lookahead: true,
            topology: Topology::SharedMemory,
            incremental_validity: true,
        }
    }

    /// A binary hypercube with `procs` nodes (no cache sharing — each
    /// node has private memory) and the given per-hop message cost.
    pub fn hypercube(procs: usize, hop_cost: u64) -> MachineConfig {
        MachineConfig {
            procs,
            cards: procs, // private memory: no cache pairing
            cost: CostModel::default(),
            work_stealing: false, // stealing needs shared memory
            distributed_queues: true,
            os_interrupts: None,
            lookahead: true,
            topology: Topology::Hypercube { hop_cost },
            incremental_validity: true,
        }
    }

    /// Per-processor slowdown multipliers from cache sharing: processors
    /// beyond the card count pair up, and both members of a pair slow
    /// down in proportion to the circuit's memory pressure (0..=1).
    pub fn penalties(&self, memory_pressure: f64) -> Vec<f64> {
        let shared_pairs = self.procs.saturating_sub(self.cards);
        let penalized = (2 * shared_pairs).min(self.procs);
        (0..self.procs)
            .map(|p| {
                if p < penalized {
                    1.0 + self.cost.cache_share_penalty * memory_pressure
                } else {
                    1.0
                }
            })
            .collect()
    }
}

/// Deterministic per-(element, occurrence) evaluation-time noise in
/// `[1 - amp, 1 + amp]`, via splitmix64.
pub(crate) fn noise(amp: f64, elem: u64, occurrence: u64) -> f64 {
    if amp == 0.0 {
        return 1.0;
    }
    let mut z = elem
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(occurrence)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    1.0 + amp * (2.0 * unit - 1.0)
}

/// Memory pressure of a circuit relative to the paper's largest benchmark
/// (the ~5000-element gate multiplier saturates at 1.0).
pub(crate) fn memory_pressure(num_elements: usize) -> f64 {
    (num_elements as f64 / 5000.0).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multimax_defaults() {
        let m = MachineConfig::multimax(16);
        assert_eq!(m.procs, 16);
        assert_eq!(m.cards, 8);
        assert!(m.work_stealing && m.distributed_queues);
        assert!(m.os_interrupts.is_none());
    }

    #[test]
    fn penalties_kick_in_past_card_count() {
        let m = MachineConfig::multimax(8);
        assert!(m.penalties(1.0).iter().all(|&p| p == 1.0));
        let m = MachineConfig::multimax(10);
        let pen = m.penalties(1.0);
        assert_eq!(pen.iter().filter(|&&p| p > 1.0).count(), 4);
        let m = MachineConfig::multimax(16);
        let pen = m.penalties(1.0);
        assert!(pen.iter().all(|&p| p > 1.0), "all 16 share caches");
        // Zero pressure: no penalty even when sharing.
        assert!(m.penalties(0.0).iter().all(|&p| p == 1.0));
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        for e in 0..50 {
            for k in 0..50 {
                let a = noise(0.5, e, k);
                let b = noise(0.5, e, k);
                assert_eq!(a, b);
                assert!((0.5..=1.5).contains(&a), "{a}");
            }
        }
        assert_eq!(noise(0.0, 3, 4), 1.0);
        assert_ne!(noise(0.5, 1, 1), noise(0.5, 1, 2));
    }

    #[test]
    fn hypercube_latency_is_hamming_hops() {
        let t = Topology::Hypercube { hop_cost: 5 };
        assert_eq!(t.latency(0, 0), 0);
        assert_eq!(t.latency(0b000, 0b111), 15);
        assert_eq!(t.latency(5, 6), 10); // 101 ^ 110 = 011
        assert_eq!(Topology::SharedMemory.latency(0, 15), 0);
        // Barrier scales with the cube dimension.
        assert_eq!(t.barrier_extra(8), 2 * 5 * 3);
        assert_eq!(Topology::SharedMemory.barrier_extra(8), 0);
    }

    #[test]
    fn hypercube_config_disables_cache_pairing() {
        let m = MachineConfig::hypercube(16, 10);
        assert!(m.penalties(1.0).iter().all(|&p| p == 1.0));
        assert!(!m.work_stealing);
    }

    #[test]
    fn memory_pressure_saturates() {
        assert!(memory_pressure(100) < 0.1);
        assert_eq!(memory_pressure(5000), 1.0);
        assert_eq!(memory_pressure(50_000), 1.0);
    }
}
