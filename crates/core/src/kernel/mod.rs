//! Execution plans for the compiled-mode instruction-stream kernel.
//!
//! A [`CompiledProgram`](parsim_netlist::compile::CompiledProgram) is a
//! machine-independent lowering of the netlist; this module binds it to a
//! thread count: per-thread instruction lists (stream order, so level-major
//! within a thread), fixed-size *blocks* that never cross level boundaries,
//! and a slot→block fanout map driving the activity-gating dirty bitmask.
//!
//! Two executors use the plan. [`scalar`] (one stimulus, `Value`-typed
//! slots — the rewritten §3 engine) splits the instructions over its
//! workers and runs one step: apply, [`SpinBarrier`], evaluate,
//! [`WriteMark::note`], [`SpinBarrier`], [`WriteMark::quiet`]. [`packed`]
//! (up to 512 stimulus lanes per chunk on bit-plane words) binds the whole
//! program to one worker and splits lanes instead: a chunk runs start to
//! finish on one thread, with no barrier and nothing shared but the plan
//! and the program it decodes once per batch; its dirty bits are a plain
//! bitset per chunk, not a [`DirtyMask`].
//! Both read a decoded instruction list, never the [`CompiledProgram`]
//! tables, in their step loops ([`WorkerCode`] for the scalar workers),
//! and both dispatch on the instruction's opcode: gates, buffers and the
//! mux (and, in [`packed`], registers, latches and tri-states) have native
//! arms, and the rest go through `parsim_logic::evaluate`. Both beat their
//! heartbeat and bound their fault-plan check once per gating block, not
//! per instruction.
//!
//! Shared-state discipline (the scalar executor's, the only one whose
//! workers share a step): see [`scalar`].
//!
//! [`SpinBarrier`]: parsim_queue::SpinBarrier
//! [`WriteMark::note`]: parsim_queue::WriteMark::note
//! [`WriteMark::quiet`]: parsim_queue::WriteMark::quiet

pub(crate) mod packed;
pub(crate) mod scalar;

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use parsim_logic::Value;
use parsim_netlist::compile::{CompiledProgram, Opcode};
use parsim_telemetry::{Counter, Gauge, Shard, Tally};

use crate::layout::{LineGroup, OwnerLayout, LINE, PAD};
use crate::shared::SharedSlice;

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

/// Rows of `T`s in one allocation: row `k` is
/// `items[start[k]..start[k + 1]]`.
pub(crate) struct Csr<T = u32> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    fn from_rows<R: IntoIterator<Item = T>>(rows: impl IntoIterator<Item = R>) -> Csr<T> {
        let mut start = vec![0];
        let mut items = Vec::new();
        for row in rows {
            items.extend(row);
            start.push(items.len() as u32);
        }
        Csr { start, items }
    }

    #[inline]
    pub fn row(&self, k: usize) -> &[T] {
        &self.items[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

/// A compiled program bound to a thread count through its level-aware
/// partition ([`CompiledProgram::level_partition`]), the one placement
/// both executors use.
pub(crate) struct ExecPlan {
    /// Instruction indices grouped by thread, each thread's in stream
    /// (level-major) order: [`ExecPlan::thread_insns`].
    insns: OwnerLayout,
    /// All gating blocks; ids are global across threads.
    pub blocks: Vec<Block>,
    /// Contiguous block-id range owned by each thread.
    pub thread_blocks: Vec<Range<usize>>,
    /// Slot → blocks reading it.
    fan: Csr,
}

impl ExecPlan {
    /// Binds `prog` to `threads` worker threads.
    pub fn build(prog: &CompiledProgram, threads: usize) -> ExecPlan {
        let partition = prog.level_partition(threads);
        let owner = |i| partition.assignment()[prog.elem(i)] as usize;
        let thread_insns = OwnerLayout::build((0..prog.num_insns()).map(owner), threads, 1);

        let mut blocks = Vec::new();
        let mut thread_blocks = Vec::with_capacity(threads);
        for p in 0..threads {
            let insns = thread_insns.items(p);
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
            let insns = thread_insns.items(block.thread as usize);
            for &i in &insns[block.lo as usize..block.hi as usize] {
                for &slot in prog.inputs(i as usize) {
                    pairs.push((slot, b as u32));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut rest = &pairs[..];
        let fan = Csr::from_rows((0..prog.num_slots() as u32).map(|slot| {
            let (row, tail) = rest.split_at(rest.partition_point(|&(s, _)| s == slot));
            rest = tail;
            row.iter().map(|&(_, b)| b)
        }));

        ExecPlan {
            insns: thread_insns,
            blocks,
            thread_blocks,
            fan,
        }
    }

    /// Thread `p`'s instruction indices, in stream (level-major) order.
    #[inline]
    pub fn thread_insns(&self, p: usize) -> &[u32] {
        self.insns.items(p)
    }

    /// The gating blocks that read `slot`.
    #[inline]
    pub fn fanout(&self, slot: u32) -> &[u32] {
        self.fan.row(slot as usize)
    }

    /// The worker that writes each slot in the apply phase: the owner of
    /// its driving instruction; for a generator or undriven slot, the
    /// owner of the first block reading it, or worker 0 when none does.
    pub fn writers(&self, prog: &CompiledProgram) -> Vec<usize> {
        let mut writer: Vec<usize> = (0..prog.num_slots() as u32)
            .map(|slot| match self.fanout(slot).first() {
                Some(&b) => self.blocks[b as usize].thread as usize,
                None => 0,
            })
            .collect();
        for p in 0..self.thread_blocks.len() {
            for &i in self.thread_insns(p) {
                for &slot in prog.outputs(i as usize) {
                    writer[slot as usize] = p;
                }
            }
        }
        writer
    }

    /// The instructions of block `b`.
    #[cfg(test)]
    pub fn block_insns(&self, b: usize) -> &[u32] {
        let block = self.blocks[b];
        &self.thread_insns(block.thread as usize)[block.lo as usize..block.hi as usize]
    }
}

/// Value slots per slot-file group: the fewest `Value`s that fill whole
/// cache lines (8 × 24 bytes = 3 lines).
pub(crate) const GROUP: usize = 8;

const _: () = assert!(size_of::<LineGroup<Value, GROUP>>() == GROUP * size_of::<Value>());

/// One worker's instructions, in its [`ExecPlan::thread_insns`] order:
/// their opcodes, and their input and output slot lists (rows, in port
/// order) translated into [`SlotLayout`] positions.
pub(crate) struct WorkerCode {
    pub ops: Vec<Opcode>,
    pub inputs: Csr,
    pub outputs: Csr,
}

/// The scalar executor's slot file, numbered by writing worker.
///
/// Program slots are an [`OwnerLayout`] by writer ([`ExecPlan::writers`])
/// in groups of [`GROUP`]: worker `p`'s region holds the output slots of
/// its instructions, and each generator or undriven slot whose first
/// reading block is its own (worker 0 takes those nobody reads). So
/// locality inside a worker is the stream's, and a stimulus write lands
/// where the worker that reads it first evaluates. The executor works in
/// positions only; program slots and nodes appear at its edges (stimulus,
/// watch flags, waveform changes, snapshots).
pub(crate) struct SlotLayout {
    /// Program slots by writing worker.
    pub slots: OwnerLayout,
    /// Per worker: its instructions' slot lists in positions.
    code: Vec<WorkerCode>,
    /// Position → blocks reading it.
    fan: Csr,
}

impl SlotLayout {
    /// Lays out `prog`'s slots for the workers of `plan`.
    pub fn build(prog: &CompiledProgram, plan: &ExecPlan) -> SlotLayout {
        let threads = plan.thread_blocks.len();
        let slots = OwnerLayout::build(plan.writers(prog).into_iter(), threads, GROUP);
        let code = (0..threads)
            .map(|p| {
                let pos = |&s: &u32| slots.pos(s as usize);
                let rows = plan.thread_insns(p).iter().map(|&i| i as usize);
                WorkerCode {
                    ops: rows.clone().map(|i| prog.opcode(i)).collect(),
                    inputs: Csr::from_rows(rows.clone().map(|i| prog.inputs(i).iter().map(pos))),
                    outputs: Csr::from_rows(rows.map(|i| prog.outputs(i).iter().map(pos))),
                }
            })
            .collect();
        let fan = Csr::from_rows((0..slots.positions() as u32).map(|pos| {
            match slots.item_at(pos) {
                PAD => &[][..],
                slot => plan.fanout(slot),
            }
            .iter()
            .copied()
        }));
        SlotLayout { slots, code, fan }
    }

    /// Worker `p`'s instructions in positions.
    #[inline]
    pub fn code(&self, p: usize) -> &WorkerCode {
        &self.code[p]
    }

    /// The gating blocks that read position `pos`.
    #[inline]
    pub fn fanout(&self, pos: u32) -> &[u32] {
        self.fan.row(pos as usize)
    }

    /// A slot file holding `init(slot)` at each program slot's position
    /// (padding holds an `X` nobody reads).
    pub fn slot_file(&self, init: impl Fn(u32) -> Value) -> SharedSlice<LineGroup<Value, GROUP>> {
        let fill = |slot| if slot == PAD { Value::x(1) } else { init(slot) };
        SharedSlice::new(self.slots.store(fill))
    }
}

/// Dirty-bit words per cache line.
const LINE_WORDS: usize = LINE / size_of::<AtomicU64>();
/// Dirty bits per cache line.
const LINE_BITS: usize = 64 * LINE_WORDS;

/// One dirty bit per gating block.
///
/// Each worker's blocks have their bits in words on cache lines of their
/// own, so a worker's `take`s touch no line another worker's `take`s do.
/// Bits are *set* (by any worker) during the apply phase when a feeding
/// slot changes, and *read-and-cleared* only by the owning worker during
/// the evaluate phase; the post-apply step barrier orders every mark of a
/// step before every `take` of it, and the post-evaluate barrier orders
/// every `take` before the next step's marks, so `Relaxed` suffices.
///
/// `mark` loads first and `fetch_or`s only a clear bit: most marks land on
/// a block some other input already dirtied, and a load leaves the line
/// shared where an RMW would pull it over. A bit seen set stays set until
/// the next evaluate phase, because no `take` runs in an apply phase.
///
/// `take` is a load and a plain store, no RMW. That is sound because a
/// word is taken only by its owner and no `mark` runs in an evaluate
/// phase: nothing can write the word between the load and the store. (It
/// would not be with two owners' bits in one word, which the per-worker
/// lines rule out.) `crates/queue/tests/model.rs` checks this protocol on
/// the real barrier.
pub(crate) struct DirtyMask {
    lines: Vec<LineGroup<AtomicU64, LINE_WORDS>>,
    /// Each block's bit index, by owner in lines of bits.
    bits: OwnerLayout,
}

impl DirtyMask {
    /// All blocks start dirty: every instruction runs at least once.
    /// `thread_blocks` are the workers' block ranges, in ascending order
    /// and covering `0..blocks` ([`ExecPlan::thread_blocks`]).
    pub fn all_dirty(thread_blocks: &[Range<usize>]) -> DirtyMask {
        let owners =
            (thread_blocks.iter().enumerate()).flat_map(|(p, b)| std::iter::repeat_n(p, b.len()));
        let bits = OwnerLayout::build(owners, thread_blocks.len(), LINE_BITS);
        DirtyMask {
            lines: (0..bits.positions() / LINE_BITS)
                .map(|_| LineGroup(std::array::from_fn(|_| AtomicU64::new(!0))))
                .collect(),
            bits,
        }
    }

    /// Block `b`'s word and bit.
    #[inline]
    fn word(&self, b: u32) -> (&AtomicU64, u64) {
        let bit = self.bits.pos(b as usize) as usize;
        (
            &self.lines[bit / LINE_BITS].0[bit / 64 % LINE_WORDS],
            1 << (bit % 64),
        )
    }

    /// Marks block `b` dirty (apply phase).
    #[inline]
    pub fn mark(&self, b: u32) {
        let (word, bit) = self.word(b);
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Clears and returns block `b`'s dirty bit (owner only, evaluate
    /// phase).
    #[inline]
    pub fn take(&self, b: u32) -> bool {
        let (word, bit) = self.word(b);
        let v = word.load(Ordering::Relaxed);
        if v & bit == 0 {
            return false;
        }
        word.store(v & !bit, Ordering::Relaxed);
        true
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
    tally.add(
        Counter::BlocksSkipped,
        gated * plan.thread_blocks[p].len() as u64,
    );
    tally.add(
        Counter::EvalsSkipped,
        gated * plan.thread_insns(p).len() as u64,
    );
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
            b.element(
                &format!("inv{i}"),
                ElementKind::Not,
                Delay(1),
                &[prev],
                &[n],
            )
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
            assert!(insns.iter().all(|&i| prog.level_of(i as usize) == level));
        }
        // Every instruction appears in exactly one block.
        let total: usize = (0..plan.blocks.len())
            .map(|b| plan.block_insns(b).len())
            .sum();
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
        // One worker owning all 70 blocks, and three.
        for cuts in [&[0, 70][..], &[0, 24, 48, 70]] {
            let workers: Vec<_> = cuts.windows(2).map(|w| w[0]..w[1]).collect();
            let m = DirtyMask::all_dirty(&workers);
            assert!(m.take(0));
            assert!(!m.take(0));
            assert!(m.take(69));
            m.mark(69);
            assert!(m.take(69));
            assert!(!m.take(69));
            // Two marked bits of one word: taking one keeps the other.
            for (a, b) in [(5, 6), (30, 31)] {
                m.take(a);
                m.take(b);
                m.mark(a);
                m.mark(b);
                m.mark(b);
                assert!(m.take(a), "{workers:?}: block {a}");
                assert!(m.take(b), "{workers:?}: block {b} lost with {a}'s take");
                assert!(!m.take(a) && !m.take(b), "{workers:?}: {a}/{b} still set");
            }
        }
    }

    /// Between barriers no two workers write one cache line: not in the
    /// slot file (its positions times `size_of::<Value>()`, in an
    /// allocation of line-aligned groups), not in the dirty mask (the
    /// words' addresses). The layout's position lists name the program's
    /// own slots. And every placement is the one a stable grouping by
    /// worker gives, each region rounded up to its line unit, so the
    /// kernel's memory traffic does not move with the layout code.
    #[test]
    fn workers_write_disjoint_cache_lines() {
        use std::collections::BTreeMap;

        // Positions of items grouped stably by owner, each region starting
        // on a multiple of `unit`.
        fn grouped(owner: &[usize], threads: usize, unit: usize) -> Vec<u32> {
            let (mut pos, mut next) = (vec![0; owner.len()], 0usize);
            for p in 0..threads {
                for item in (0..owner.len()).filter(|&i| owner[i] == p) {
                    pos[item] = next as u32;
                    next += 1;
                }
                next = next.next_multiple_of(unit);
            }
            pos
        }

        let array = parsim_circuits::inverter_array(33, 5, 2).unwrap().netlist;
        let cpu = parsim_circuits::pipelined_cpu(8, 48).unwrap().netlist;
        for (name, netlist) in [("array", &array), ("cpu", &cpu)] {
            let prog = CompiledProgram::compile(netlist);
            for threads in 1..=3 {
                let case = format!("{name} x{threads}");
                let plan = ExecPlan::build(&prog, threads);
                let layout = SlotLayout::build(&prog, &plan);
                let part = prog.level_partition(threads);
                for p in 0..threads {
                    let insns = (0..prog.num_insns() as u32)
                        .filter(|&i| part.assignment()[prog.elem(i as usize)] as usize == p);
                    assert_eq!(plan.thread_insns(p), insns.collect::<Vec<_>>(), "{case}");
                }
                // A slot's writer drives it; a generator or undriven slot
                // goes to the worker whose block reads it first, or to
                // worker 0 when no block reads it.
                let mut first_reader = vec![None; prog.num_slots()];
                for b in 0..plan.blocks.len() {
                    for &i in plan.block_insns(b) {
                        for &slot in prog.inputs(i as usize) {
                            let reader = &mut first_reader[slot as usize];
                            reader.get_or_insert(plan.blocks[b].thread as usize);
                        }
                    }
                }
                let mut writer: Vec<usize> = first_reader.iter().map(|r| r.unwrap_or(0)).collect();
                let mut driven = vec![false; prog.num_slots()];
                for p in 0..threads {
                    for &i in plan.thread_insns(p) {
                        for &slot in prog.outputs(i as usize) {
                            writer[slot as usize] = p;
                            driven[slot as usize] = true;
                        }
                    }
                }
                assert_eq!(plan.writers(&prog), writer, "{case}");
                let slot_pos = grouped(&writer, threads, GROUP);
                for (slot, &pos) in slot_pos.iter().enumerate() {
                    assert_eq!(layout.slots.pos(slot), pos, "{case}: slot {slot}");
                }
                // Each array column has a clock of its own, and at two
                // threads and more some columns' heads are not worker 0's.
                if name == "array" {
                    let away = (0..prog.num_slots()).any(|s| !driven[s] && writer[s] != 0);
                    assert_eq!(away, threads > 1, "{case}");
                }
                let mut line_writer = BTreeMap::new();
                for (slot, &w) in writer.iter().enumerate() {
                    let pos = layout.slots.pos(slot);
                    assert_eq!(layout.slots.item_at(pos), slot as u32, "{case}");
                    assert!(layout.slots.region(w).contains(&pos), "{case}: slot {slot}");
                    assert_eq!(layout.fanout(pos), plan.fanout(slot as u32), "{case}");
                    let first = pos as usize * size_of::<Value>();
                    let last = first + size_of::<Value>() - 1;
                    for line in first / LINE..=last / LINE {
                        let owner = *line_writer.entry(line).or_insert(w);
                        assert_eq!(owner, w, "{case}: slot-file line {line} written by two");
                    }
                }
                let file_bytes = layout.slots.positions() * size_of::<Value>();
                assert!(file_bytes.is_multiple_of(LINE), "{case}");
                let writers: std::collections::BTreeSet<_> = line_writer.values().collect();
                assert_eq!(writers.len(), threads, "{case}: every worker writes");
                for p in 0..threads {
                    let code = layout.code(p);
                    for (k, &i) in plan.thread_insns(p).iter().enumerate() {
                        let slots = |pos: &[u32]| -> Vec<u32> {
                            pos.iter().map(|&x| layout.slots.item_at(x)).collect()
                        };
                        assert_eq!(slots(code.inputs.row(k)), prog.inputs(i as usize), "{case}");
                        assert_eq!(
                            slots(code.outputs.row(k)),
                            prog.outputs(i as usize),
                            "{case}"
                        );
                    }
                }

                let mask = DirtyMask::all_dirty(&plan.thread_blocks);
                let block_owner: Vec<usize> =
                    plan.blocks.iter().map(|b| b.thread as usize).collect();
                let bits = grouped(&block_owner, threads, LINE_BITS);
                for (b, &bit) in bits.iter().enumerate() {
                    assert_eq!(mask.bits.pos(b), bit, "{case}: block {b}");
                }
                let mut line_owner = BTreeMap::new();
                for (p, blocks) in plan.thread_blocks.iter().enumerate() {
                    for b in blocks.clone() {
                        let addr = mask.word(b as u32).0 as *const AtomicU64 as usize;
                        let owner = *line_owner.entry(addr / LINE).or_insert(p);
                        assert_eq!(owner, p, "{case}: dirty-mask line of block {b} shared");
                    }
                }
            }
        }
    }
}
