//! Execution plans for the compiled-mode instruction-stream kernel.
//!
//! A [`CompiledProgram`](parsim_netlist::compile::CompiledProgram) is a
//! machine-independent lowering of the netlist; this module binds it to a
//! thread count: per-thread instruction lists (stream order, so level-major
//! within a thread), fixed-size *blocks* that never cross level boundaries,
//! and a slot→block fanout map driving the activity-gating dirty bitmask.
//!
//! Two executors share one plan: [`scalar`] (one stimulus, `Value`-typed
//! slots — the rewritten §3 engine) and [`packed`] (up to 64 stimulus lanes
//! on bit-plane words), and one step: apply, [`SpinBarrier`], evaluate,
//! [`WriteMark::note`], [`SpinBarrier`], [`WriteMark::quiet`].
//!
//! [`SpinBarrier`]: parsim_queue::SpinBarrier
//! [`WriteMark::note`]: parsim_queue::WriteMark::note
//! [`WriteMark::quiet`]: parsim_queue::WriteMark::quiet

pub(crate) mod packed;
pub(crate) mod scalar;

use std::sync::atomic::{AtomicU64, Ordering};

use parsim_netlist::compile::CompiledProgram;
use parsim_telemetry::{Counter, Gauge, Shard, Tally};

/// Maximum instructions per activity-gating block. Small enough that one
/// quiescent functional unit is skippable, large enough that the dirty
/// bitmask stays tiny relative to the stream.
pub(crate) const BLOCK_INSNS: usize = 16;

/// One gating block: instructions `lo..hi` of `thread`'s list, all in the
/// same level bucket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    pub thread: u32,
    pub lo: u32,
    pub hi: u32,
}

/// A compiled program bound to a thread count through its level-aware
/// partition ([`CompiledProgram::level_partition`]), the one placement
/// both executors use.
pub(crate) struct ExecPlan {
    /// Per-thread instruction indices in stream (level-major) order.
    pub thread_insns: Vec<Vec<u32>>,
    /// All gating blocks; ids are global across threads.
    pub blocks: Vec<Block>,
    /// Contiguous block-id range owned by each thread.
    pub thread_blocks: Vec<std::ops::Range<usize>>,
    /// CSR: blocks reading each slot (`fan_start[slot]..fan_start[slot+1]`
    /// indexes `fan_blocks`).
    fan_start: Vec<u32>,
    fan_blocks: Vec<u32>,
}

impl ExecPlan {
    /// Binds `prog` to `threads` worker threads.
    pub fn build(prog: &CompiledProgram, threads: usize) -> ExecPlan {
        let partition = prog.level_partition(threads);
        let mut thread_insns: Vec<Vec<u32>> = vec![Vec::new(); threads];
        for i in 0..prog.num_insns() {
            let p = partition.assignment()[prog.elem(i)] as usize;
            thread_insns[p].push(i as u32);
        }

        let mut blocks = Vec::new();
        let mut thread_blocks = Vec::with_capacity(threads);
        for (p, insns) in thread_insns.iter().enumerate() {
            let first = blocks.len();
            let mut lo = 0usize;
            while lo < insns.len() {
                let level = prog.level_of(insns[lo] as usize);
                let mut hi = lo + 1;
                while hi < insns.len()
                    && hi - lo < BLOCK_INSNS
                    && prog.level_of(insns[hi] as usize) == level
                {
                    hi += 1;
                }
                blocks.push(Block {
                    thread: p as u32,
                    lo: lo as u32,
                    hi: hi as u32,
                });
                lo = hi;
            }
            thread_blocks.push(first..blocks.len());
        }

        // Slot → reading-blocks CSR (sorted, deduplicated).
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (b, block) in blocks.iter().enumerate() {
            let insns = &thread_insns[block.thread as usize];
            for &i in &insns[block.lo as usize..block.hi as usize] {
                for &slot in prog.inputs(i as usize) {
                    pairs.push((slot, b as u32));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut fan_start = vec![0u32; prog.num_slots() + 1];
        for &(slot, _) in &pairs {
            fan_start[slot as usize + 1] += 1;
        }
        for s in 1..fan_start.len() {
            fan_start[s] += fan_start[s - 1];
        }
        let fan_blocks: Vec<u32> = pairs.into_iter().map(|(_, b)| b).collect();

        ExecPlan {
            thread_insns,
            blocks,
            thread_blocks,
            fan_start,
            fan_blocks,
        }
    }

    /// The gating blocks that read `slot`.
    #[inline]
    pub fn fanout(&self, slot: u32) -> &[u32] {
        &self.fan_blocks[self.fan_start[slot as usize] as usize
            ..self.fan_start[slot as usize + 1] as usize]
    }

    /// The instructions of block `b`.
    #[inline]
    pub fn block_insns(&self, b: usize) -> &[u32] {
        let block = self.blocks[b];
        &self.thread_insns[block.thread as usize][block.lo as usize..block.hi as usize]
    }
}

/// One dirty bit per gating block.
///
/// Bits are *set* (by any thread, via `fetch_or`) during the apply phase
/// when a feeding slot changes, and *read-and-cleared* only by the owning
/// thread during the evaluate phase. The post-apply step barrier orders
/// every mark of a step before every `take` of it, and the post-evaluate
/// barrier orders every `take` before the next step's marks, so `Relaxed`
/// ordering suffices. (`crates/queue/tests/model.rs` checks that the
/// barrier carries a `Relaxed` mark.)
pub(crate) struct DirtyMask {
    words: Vec<AtomicU64>,
}

impl DirtyMask {
    /// All blocks start dirty: every instruction runs at least once.
    pub fn all_dirty(blocks: usize) -> DirtyMask {
        DirtyMask {
            words: (0..blocks.div_ceil(64)).map(|_| AtomicU64::new(!0)).collect(),
        }
    }

    /// Marks block `b` dirty.
    #[inline]
    pub fn mark(&self, b: u32) {
        self.words[b as usize / 64].fetch_or(1 << (b % 64), Ordering::Relaxed);
    }

    /// Clears and returns block `b`'s dirty bit (owner thread only).
    #[inline]
    pub fn take(&self, b: u32) -> bool {
        let word = &self.words[b as usize / 64];
        let bit = 1u64 << (b % 64);
        if word.load(Ordering::Relaxed) & bit != 0 {
            word.fetch_and(!bit, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

/// Credits worker `p` with the steps `t + 1 .. next` a quiet jump passes
/// over, exactly as executing them would have: below `end` each of them
/// skips every block the worker owns, and the worker that counts time
/// steps (`counts_steps`, which names its `shard`) counts them, as steps
/// and as quiet steps, and moves the simulated-time gauge past them.
pub(crate) fn credit_quiet_steps(
    tally: &mut Tally,
    plan: &ExecPlan,
    p: usize,
    counts_steps: Option<&Shard>,
    (t, next, end): (u64, u64, u64),
) {
    let gated = next.min(end).saturating_sub(t + 1);
    tally.add(Counter::BlocksSkipped, gated * plan.thread_blocks[p].len() as u64);
    tally.add(Counter::EvalsSkipped, gated * plan.thread_insns[p].len() as u64);
    if let Some(shard) = counts_steps {
        tally.add(Counter::TimeSteps, next - t - 1);
        tally.add(Counter::QuietSteps, next - t - 1);
        shard.set_gauge(Gauge::SimTime, next - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::{Delay, ElementKind};
    use parsim_netlist::{Builder, Netlist};

    fn chain(len: usize) -> Netlist {
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
        let mut prev = clk;
        for i in 0..len {
            let n = b.node(&format!("n{i}"), 1);
            b.element(&format!("inv{i}"), ElementKind::Not, Delay(1), &[prev], &[n])
                .unwrap();
            prev = n;
        }
        b.finish().unwrap()
    }

    #[test]
    fn blocks_never_cross_level_boundaries() {
        let n = chain(40);
        let prog = CompiledProgram::compile(&n);
        let plan = ExecPlan::build(&prog, 3);
        for b in 0..plan.blocks.len() {
            let insns = plan.block_insns(b);
            assert!(!insns.is_empty());
            assert!(insns.len() <= BLOCK_INSNS);
            let level = prog.level_of(insns[0] as usize);
            assert!(insns
                .iter()
                .all(|&i| prog.level_of(i as usize) == level));
        }
        // Every instruction appears in exactly one block.
        let total: usize = (0..plan.blocks.len()).map(|b| plan.block_insns(b).len()).sum();
        assert_eq!(total, prog.num_insns());
    }

    #[test]
    fn fanout_reaches_every_reader() {
        let n = chain(10);
        let prog = CompiledProgram::compile(&n);
        let plan = ExecPlan::build(&prog, 2);
        for b in 0..plan.blocks.len() {
            for &i in plan.block_insns(b) {
                for &slot in prog.inputs(i as usize) {
                    assert!(
                        plan.fanout(slot).contains(&(b as u32)),
                        "slot {slot} missing block {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn dirty_mask_set_take_cycle() {
        let m = DirtyMask::all_dirty(70);
        assert!(m.take(0));
        assert!(!m.take(0));
        assert!(m.take(69));
        m.mark(69);
        assert!(m.take(69));
        assert!(!m.take(69));
    }
}
