//! Netlist → instruction-stream compile pass for the compiled-mode kernel.
//!
//! The paper's §3 engine walks the element graph every step through dynamic
//! dispatch. This pass lowers a [`Netlist`] once, ahead of time, into a
//! flat struct-of-arrays instruction stream that the `parsim-core` kernel
//! executors (scalar and 64-lane packed) iterate directly:
//!
//! - elements are **levelized** (via [`levelize`](crate::analyze::levelize))
//!   and sorted level-major: sequential elements first (level 0), then each
//!   combinational rank, then any combinational-cycle elements last;
//! - node ids are renumbered into **dense value slots** in first-use order
//!   along the stream, so a level's reads and writes stay cache-adjacent;
//! - per instruction the stream stores an [`Opcode`], the input/output slot
//!   lists (CSR layout), the port-0 width, the level bucket, and the
//!   evaluation cost used for LPT balancing.
//!
//! Generators are *not* instructions — the engines replay their expanded
//! schedules directly — but their output nodes still receive slots.

use parsim_logic::ElementKind;

use crate::analyze::levelize;
use crate::graph::Netlist;
use crate::ids::NodeId;
use crate::partition::{lpt, Partition};

/// Dense operation code for one compiled instruction.
///
/// The first block of variants has native word-parallel (64-lane bit-plane)
/// kernels; the rest evaluate through the scalar per-lane fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Multi-input AND.
    And,
    /// Multi-input OR.
    Or,
    /// Multi-input NAND.
    Nand,
    /// Multi-input NOR.
    Nor,
    /// Multi-input XOR.
    Xor,
    /// Multi-input XNOR.
    Xnor,
    /// Inverter.
    Not,
    /// Buffer.
    Buf,
    /// 2:1 multiplexer.
    Mux,
    /// D flip-flop.
    Dff,
    /// D flip-flop with synchronous reset.
    DffR,
    /// Transparent latch.
    Latch,
    /// Tri-state buffer.
    TriBuf,
    /// Ripple-carry adder (two outputs).
    Adder,
    /// Subtractor.
    Subtractor,
    /// Multiplier.
    Multiplier,
    /// Comparator (two outputs).
    Comparator,
    /// Synchronous memory.
    Memory,
    /// Multi-driver resolver.
    Resolver,
    /// Bit-slice extract.
    Slice,
    /// Zero extension.
    ZeroExt,
    /// Constant left shift.
    Shl,
}

impl Opcode {
    /// The opcode for `kind`, or `None` for generators (which compile to
    /// replayed schedules, not instructions).
    pub fn of(kind: &ElementKind) -> Option<Opcode> {
        Some(match kind {
            ElementKind::And => Opcode::And,
            ElementKind::Or => Opcode::Or,
            ElementKind::Nand => Opcode::Nand,
            ElementKind::Nor => Opcode::Nor,
            ElementKind::Xor => Opcode::Xor,
            ElementKind::Xnor => Opcode::Xnor,
            ElementKind::Not => Opcode::Not,
            ElementKind::Buf => Opcode::Buf,
            ElementKind::Mux { .. } => Opcode::Mux,
            ElementKind::Dff { .. } => Opcode::Dff,
            ElementKind::DffR { .. } => Opcode::DffR,
            ElementKind::Latch { .. } => Opcode::Latch,
            ElementKind::TriBuf { .. } => Opcode::TriBuf,
            ElementKind::Adder { .. } => Opcode::Adder,
            ElementKind::Subtractor { .. } => Opcode::Subtractor,
            ElementKind::Multiplier { .. } => Opcode::Multiplier,
            ElementKind::Comparator { .. } => Opcode::Comparator,
            ElementKind::Memory { .. } => Opcode::Memory,
            ElementKind::Resolver { .. } => Opcode::Resolver,
            ElementKind::Slice { .. } => Opcode::Slice,
            ElementKind::ZeroExt { .. } => Opcode::ZeroExt,
            ElementKind::Shl { .. } => Opcode::Shl,
            _ => return None,
        })
    }

    /// True when a native 64-lane bit-plane kernel exists for this op.
    pub fn has_packed_kernel(self) -> bool {
        matches!(
            self,
            Opcode::And
                | Opcode::Or
                | Opcode::Nand
                | Opcode::Nor
                | Opcode::Xor
                | Opcode::Xnor
                | Opcode::Not
                | Opcode::Buf
                | Opcode::Mux
                | Opcode::Dff
                | Opcode::DffR
                | Opcode::Latch
                | Opcode::TriBuf
        )
    }
}

/// A levelized, slot-renumbered struct-of-arrays instruction stream.
///
/// Instruction indices are stream order: level bucket 0 holds the
/// sequential elements, buckets `1..=max_level` the combinational ranks,
/// and a final bucket any elements on combinational cycles. Within a
/// bucket, instructions keep ascending element order, so the stream is
/// deterministic for a given netlist.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    num_elements: usize,
    opcodes: Vec<Opcode>,
    elems: Vec<u32>,
    widths: Vec<u8>,
    costs: Vec<u64>,
    insn_level: Vec<u32>,
    input_start: Vec<u32>,
    inputs: Vec<u32>,
    output_start: Vec<u32>,
    outputs: Vec<u32>,
    levels: Vec<(u32, u32)>,
    slot_of: Vec<u32>,
    node_of: Vec<u32>,
    slot_width: Vec<u8>,
    slot_offset: Vec<u32>,
}

impl CompiledProgram {
    /// Lowers `netlist` into an instruction stream.
    pub fn compile(netlist: &Netlist) -> CompiledProgram {
        let lv = levelize(netlist);
        let has_cyclic = !lv.cyclic.is_empty();
        let num_buckets = lv.max_level as usize + 1 + usize::from(has_cyclic);
        let cyclic_bucket = (num_buckets - 1) as u32;

        // Bucket the non-generator elements level-major, ascending element
        // order within a bucket.
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); num_buckets];
        for (i, e) in netlist.elements().iter().enumerate() {
            if e.kind().is_generator() {
                continue;
            }
            let b = if lv.level[i] == u32::MAX {
                cyclic_bucket
            } else {
                lv.level[i]
            };
            buckets[b as usize].push(i);
        }

        // Dense slot renumbering: nodes gain slots in first-use order along
        // the stream (inputs then outputs per instruction), then generator
        // outputs, then any untouched nodes.
        let mut slot_of = vec![u32::MAX; netlist.num_nodes()];
        let mut node_of: Vec<u32> = Vec::with_capacity(netlist.num_nodes());
        let assign = |node: NodeId, slot_of: &mut Vec<u32>, node_of: &mut Vec<u32>| {
            let n = node.index();
            if slot_of[n] == u32::MAX {
                slot_of[n] = node_of.len() as u32;
                node_of.push(n as u32);
            }
        };

        let mut opcodes = Vec::new();
        let mut elems = Vec::new();
        let mut widths = Vec::new();
        let mut costs = Vec::new();
        let mut insn_level = Vec::new();
        let mut input_start = vec![0u32];
        let mut inputs = Vec::new();
        let mut output_start = vec![0u32];
        let mut outputs = Vec::new();
        let mut levels = Vec::with_capacity(num_buckets);
        for (b, bucket) in buckets.iter().enumerate() {
            let lo = opcodes.len() as u32;
            for &i in bucket {
                let e = &netlist.elements()[i];
                let op = Opcode::of(e.kind()).expect("generators are not instructions");
                opcodes.push(op);
                elems.push(i as u32);
                widths.push(netlist.node(e.outputs()[0]).width());
                costs.push(e.kind().eval_cost());
                insn_level.push(b as u32);
                for &inp in e.inputs() {
                    assign(inp, &mut slot_of, &mut node_of);
                    inputs.push(slot_of[inp.index()]);
                }
                input_start.push(inputs.len() as u32);
                for &out in e.outputs() {
                    assign(out, &mut slot_of, &mut node_of);
                    outputs.push(slot_of[out.index()]);
                }
                output_start.push(outputs.len() as u32);
            }
            levels.push((lo, opcodes.len() as u32));
        }
        for (id, _) in netlist.iter_nodes() {
            assign(id, &mut slot_of, &mut node_of);
        }

        let slot_width: Vec<u8> = node_of
            .iter()
            .map(|&n| netlist.nodes()[n as usize].width())
            .collect();
        let mut slot_offset = Vec::with_capacity(slot_width.len() + 1);
        let mut off = 0u32;
        for &w in &slot_width {
            slot_offset.push(off);
            off += u32::from(w);
        }
        slot_offset.push(off);

        CompiledProgram {
            num_elements: netlist.num_elements(),
            opcodes,
            elems,
            widths,
            costs,
            insn_level,
            input_start,
            inputs,
            output_start,
            outputs,
            levels,
            slot_of,
            node_of,
            slot_width,
            slot_offset,
        }
    }

    /// Number of instructions (non-generator elements).
    #[inline]
    pub fn num_insns(&self) -> usize {
        self.opcodes.len()
    }

    /// Number of elements in the source netlist (including generators).
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Number of value slots (== number of nodes).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.node_of.len()
    }

    /// Number of level buckets (sequential + combinational ranks + cyclic).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The instruction index span of level bucket `b`.
    #[inline]
    pub fn level_span(&self, b: usize) -> std::ops::Range<usize> {
        let (lo, hi) = self.levels[b];
        lo as usize..hi as usize
    }

    /// The opcode of instruction `i`.
    #[inline]
    pub fn opcode(&self, i: usize) -> Opcode {
        self.opcodes[i]
    }

    /// The source element index of instruction `i`.
    #[inline]
    pub fn elem(&self, i: usize) -> usize {
        self.elems[i] as usize
    }

    /// The port-0 output width of instruction `i`.
    #[inline]
    pub fn width(&self, i: usize) -> u8 {
        self.widths[i]
    }

    /// The LPT cost of instruction `i` (inverter-event units).
    #[inline]
    pub fn cost(&self, i: usize) -> u64 {
        self.costs[i]
    }

    /// The level bucket of instruction `i`.
    #[inline]
    pub fn level_of(&self, i: usize) -> u32 {
        self.insn_level[i]
    }

    /// Input slots of instruction `i`, in port order.
    #[inline]
    pub fn inputs(&self, i: usize) -> &[u32] {
        &self.inputs[self.input_start[i] as usize..self.input_start[i + 1] as usize]
    }

    /// Output slots of instruction `i`, in port order.
    #[inline]
    pub fn outputs(&self, i: usize) -> &[u32] {
        &self.outputs[self.output_start[i] as usize..self.output_start[i + 1] as usize]
    }

    /// The dense slot of `node`.
    #[inline]
    pub fn slot_of(&self, node: NodeId) -> u32 {
        self.slot_of[node.index()]
    }

    /// The node behind `slot`.
    #[inline]
    pub fn node_of(&self, slot: u32) -> NodeId {
        NodeId::from_index(self.node_of[slot as usize] as usize)
    }

    /// The width of `slot` in bits.
    #[inline]
    pub fn slot_width(&self, slot: u32) -> u8 {
        self.slot_width[slot as usize]
    }

    /// Offset of `slot` in a flat per-bit arena (prefix sums of widths).
    #[inline]
    pub fn slot_offset(&self, slot: u32) -> usize {
        self.slot_offset[slot as usize] as usize
    }

    /// Total per-bit arena length (sum of all slot widths).
    #[inline]
    pub fn total_bits(&self) -> usize {
        *self.slot_offset.last().expect("sentinel") as usize
    }

    /// A static element partition that LPT-balances *within each level
    /// bucket*, so every barrier-separated rank spreads evenly across
    /// `threads` processors. Generators (never evaluated in compiled mode)
    /// go to part 0.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn level_partition(&self, threads: usize) -> Partition {
        assert!(threads > 0, "threads must be nonzero");
        let mut assignment = vec![0u32; self.num_elements];
        for b in 0..self.num_levels() {
            let span = self.level_span(b);
            if span.is_empty() {
                continue;
            }
            let costs: Vec<u64> = span.clone().map(|i| self.cost(i)).collect();
            let sub = lpt(&costs, threads);
            for (k, i) in span.enumerate() {
                assignment[self.elem(i)] = sub.assignment()[k];
            }
        }
        Partition::from_assignment(threads, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Builder;
    use parsim_logic::{Delay, Value};

    fn diamond() -> Netlist {
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        let a = b.node("a", 1);
        let x = b.node("x", 1);
        let y = b.node("y", 1);
        let z = b.node("z", 1);
        let q = b.node("q", 1);
        b.element(
            "osc",
            ElementKind::Clock {
                half_period: 2,
                offset: 0,
            },
            Delay(1),
            &[],
            &[clk],
        )
        .unwrap();
        b.element(
            "c",
            ElementKind::Const {
                value: Value::bit(true),
            },
            Delay(1),
            &[],
            &[a],
        )
        .unwrap();
        b.element("g1", ElementKind::Not, Delay(1), &[a], &[x])
            .unwrap();
        b.element("g2", ElementKind::Not, Delay(1), &[a], &[y])
            .unwrap();
        b.element("g3", ElementKind::And, Delay(1), &[x, y], &[z])
            .unwrap();
        b.element(
            "ff",
            ElementKind::Dff { width: 1 },
            Delay(1),
            &[clk, z],
            &[q],
        )
        .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn stream_is_level_major_and_complete() {
        let n = diamond();
        let p = CompiledProgram::compile(&n);
        // 4 non-generator elements become instructions.
        assert_eq!(p.num_insns(), 4);
        assert_eq!(p.num_slots(), n.num_nodes());
        // Levels are monotone along the stream.
        for i in 1..p.num_insns() {
            assert!(p.level_of(i) >= p.level_of(i - 1));
        }
        // The flip-flop sits in bucket 0, ahead of its combinational cone.
        assert_eq!(p.opcode(0), Opcode::Dff);
        assert_eq!(p.level_of(0), 0);
        // g3 depends on g1/g2 and lands in a later bucket.
        let g3 = (0..p.num_insns())
            .find(|&i| p.opcode(i) == Opcode::And)
            .unwrap();
        let g1 = (0..p.num_insns())
            .find(|&i| p.opcode(i) == Opcode::Not)
            .unwrap();
        assert!(p.level_of(g3) > p.level_of(g1));
    }

    #[test]
    fn slots_are_dense_and_invertible() {
        let n = diamond();
        let p = CompiledProgram::compile(&n);
        let mut seen = vec![false; p.num_slots()];
        for (id, _) in n.iter_nodes() {
            let s = p.slot_of(id);
            assert_eq!(p.node_of(s), id);
            assert_eq!(p.slot_width(s), n.node(id).width());
            assert!(!seen[s as usize], "duplicate slot");
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(p.total_bits(), {
            let mut t = 0usize;
            for node in n.nodes() {
                t += node.width() as usize;
            }
            t
        });
    }

    #[test]
    fn instruction_ports_mirror_elements() {
        let n = diamond();
        let p = CompiledProgram::compile(&n);
        for i in 0..p.num_insns() {
            let e = &n.elements()[p.elem(i)];
            assert_eq!(Opcode::of(e.kind()), Some(p.opcode(i)));
            let want_in: Vec<u32> = e.inputs().iter().map(|&x| p.slot_of(x)).collect();
            let want_out: Vec<u32> = e.outputs().iter().map(|&x| p.slot_of(x)).collect();
            assert_eq!(p.inputs(i), &want_in[..]);
            assert_eq!(p.outputs(i), &want_out[..]);
            assert_eq!(p.width(i), n.node(e.outputs()[0]).width());
        }
    }

    #[test]
    fn level_partition_balances_each_rank() {
        let n = diamond();
        let p = CompiledProgram::compile(&n);
        let part = p.level_partition(2);
        assert_eq!(part.parts(), 2);
        assert_eq!(part.assignment().len(), n.num_elements());
        // The two same-level inverters split across the two parts.
        let g1 = n.element_by_name("g1").unwrap().index();
        let g2 = n.element_by_name("g2").unwrap().index();
        assert_ne!(part.assignment()[g1], part.assignment()[g2]);
    }

    #[test]
    fn cyclic_elements_land_in_the_final_bucket() {
        let mut b = Builder::new();
        let a = b.node("a", 1);
        let x = b.node("x", 1);
        let y = b.node("y", 1);
        b.element(
            "c",
            ElementKind::Const {
                value: Value::bit(true),
            },
            Delay(1),
            &[],
            &[a],
        )
        .unwrap();
        // A combinational loop: n1 and n2 feed each other.
        b.element("n1", ElementKind::Nand, Delay(1), &[a, y], &[x])
            .unwrap();
        b.element("n2", ElementKind::Nand, Delay(1), &[a, x], &[y])
            .unwrap();
        let n = b.finish().unwrap();
        let p = CompiledProgram::compile(&n);
        assert_eq!(p.num_insns(), 2);
        let last = p.num_levels() - 1;
        assert_eq!(p.level_span(last).len(), 2);
    }
}
