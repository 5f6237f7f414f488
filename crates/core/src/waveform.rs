//! Waveforms and simulation results.

use std::io;
use std::ops::Range;
use std::sync::Arc;

use parsim_logic::{Time, Value};
use parsim_netlist::{Netlist, NodeId};

use crate::metrics::Metrics;

/// The recorded value changes of one watched node.
///
/// Every node implicitly starts at all-`X` at time zero; its changes are
/// the subsequent transitions in strictly increasing time order (a change
/// *at* time zero replaces the implicit `X`).
///
/// The changes are kept in one exact-size allocation ([`Encoded`]): the
/// change times, then each change's two planes as `2·width` packed bits.
/// A one-bit change costs 8.25 bytes, a 64-bit one 24.
#[derive(Clone, PartialEq)]
pub struct Waveform {
    node: NodeId,
    /// Shared with every other lane of a batch.
    name: Arc<str>,
    width: u8,
    changes: Encoded,
}

impl Waveform {
    /// The node this waveform belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's width in bits.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// All value changes in time order, decoded one at a time.
    pub fn changes(&self) -> Changes<'_> {
        self.changes.changes(self.width)
    }

    /// The times of all value changes, strictly increasing.
    pub fn times(&self) -> &[Time] {
        self.changes.times()
    }

    /// The value at time `t` (the last change at or before `t`, or all-`X`
    /// before the first change).
    pub fn value_at(&self, t: Time) -> Value {
        match self.times().partition_point(|&ct| ct <= t) {
            0 => Value::x(self.width),
            i => self.changes().nth(i - 1).expect("a change before `t`").1,
        }
    }

    /// The final value of the waveform (all-`X` if it never changed).
    pub fn final_value(&self) -> Value {
        self.changes()
            .next_back()
            .map_or_else(|| Value::x(self.width), |(_, v)| v)
    }

    /// The number of transitions.
    pub fn num_changes(&self) -> usize {
        self.changes.len
    }

    /// The heap bytes the changes occupy: `8·n + 8·⌈2·width·n / 64⌉` for
    /// `n` changes.
    pub fn heap_bytes(&self) -> usize {
        self.changes.heap_bytes()
    }
}

impl std::fmt::Debug for Waveform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waveform")
            .field("node", &self.node)
            .field("name", &self.name)
            .field("width", &self.width)
            .field("changes", &self.changes())
            .finish()
    }
}

/// The changes of a [`Waveform`] as `(time, value)` pairs, in time order.
#[derive(Clone)]
pub struct Changes<'a> {
    times: &'a [Time],
    bits: &'a [Time],
    width: u32,
    range: Range<usize>,
}

impl Changes<'_> {
    #[inline]
    fn get(&self, i: usize) -> (Time, Value) {
        let (a, b) = read_planes(self.bits, self.width, i);
        (self.times[i], Value::from_planes(self.width as u8, a, b))
    }
}

impl Iterator for Changes<'_> {
    type Item = (Time, Value);

    #[inline]
    fn next(&mut self) -> Option<(Time, Value)> {
        self.range.next().map(|i| self.get(i))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }

    #[inline]
    fn nth(&mut self, n: usize) -> Option<(Time, Value)> {
        self.range.nth(n).map(|i| self.get(i))
    }
}

impl DoubleEndedIterator for Changes<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<(Time, Value)> {
        self.range.next_back().map(|i| self.get(i))
    }
}

impl ExactSizeIterator for Changes<'_> {}

impl std::iter::FusedIterator for Changes<'_> {}

impl std::fmt::Debug for Changes<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

/// One waveform's changes in its storage encoding: `words[..len]` are the
/// change times, strictly increasing, and `words[len..]` a bit stream in
/// which change `i` holds plane `a` at bits `2·width·i ..` and plane `b`
/// right after it, `width` bits each. Bits past the last change are zero,
/// so equal change lists encode to equal words. The bit words are `Time`s
/// only so that [`Waveform::times`] is a plain slice of the allocation.
#[derive(Clone, PartialEq, Default, Debug)]
pub(crate) struct Encoded {
    len: usize,
    words: Box<[Time]>,
}

impl Encoded {
    fn times(&self) -> &[Time] {
        &self.words[..self.len]
    }

    fn bits(&self) -> &[Time] {
        &self.words[self.len..]
    }

    /// The changes, decoded as the `width`-bit values they encode.
    pub(crate) fn changes(&self, width: u8) -> Changes<'_> {
        Changes {
            times: self.times(),
            bits: self.bits(),
            width: u32::from(width),
            range: 0..self.len,
        }
    }

    /// The bytes of the one allocation.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words)
    }

    /// Encodes a list already in strictly increasing time order.
    fn from_pairs(width: u8, pairs: &[(Time, Value)]) -> Encoded {
        let mut out = EncodedWriter::new(width, pairs.len());
        for &(t, v) in pairs {
            let (a, b) = v.to_planes();
            out.push(t, a, b);
        }
        out.finish()
    }

    /// The first `n` changes.
    fn prefix(&self, width: u8, n: usize) -> Encoded {
        let mut out = EncodedWriter::new(width, n);
        out.words[..n].copy_from_slice(&self.times()[..n]);
        copy_bits(&mut out.words[n..], 0, self.bits(), plane_bits(width, n));
        out.at = n;
        out.finish()
    }

    /// These changes followed by `later`'s, all of which come after them.
    fn concat(&self, width: u8, later: &Encoded) -> Encoded {
        let (n, m) = (self.len, later.len);
        let mut out = EncodedWriter::new(width, n + m);
        out.words[..n].copy_from_slice(self.times());
        out.words[n..n + m].copy_from_slice(later.times());
        let bits = &mut out.words[n + m..];
        copy_bits(bits, 0, self.bits(), plane_bits(width, n));
        copy_bits(
            bits,
            plane_bits(width, n),
            later.bits(),
            plane_bits(width, m),
        );
        out.at = n + m;
        out.finish()
    }
}

/// Fills an [`Encoded`] of a length known up front, change by change in
/// time order, in one zeroed allocation of its final size.
pub(crate) struct EncodedWriter {
    width: u32,
    len: usize,
    /// Changes written so far.
    at: usize,
    words: Box<[Time]>,
}

impl EncodedWriter {
    pub(crate) fn new(width: u8, len: usize) -> EncodedWriter {
        let words = len + plane_bits(width, len).div_ceil(64);
        EncodedWriter {
            width: u32::from(width),
            len,
            at: 0,
            words: vec![Time::ZERO; words].into_boxed_slice(),
        }
    }

    /// Appends a change at `t` whose planes are `a` and `b`, each with no
    /// bit set at or above the width.
    #[inline]
    pub(crate) fn push(&mut self, t: Time, a: u64, b: u64) {
        let (i, w) = (self.at, self.width);
        debug_assert_eq!((a | b) & !low_bits(w), 0, "planes wider than the node");
        self.words[i] = t;
        let bits = &mut self.words[self.len..];
        if w <= 32 {
            write_bits(bits, 2 * w as usize * i, 2 * w, a | b << w);
        } else {
            write_bits(bits, 2 * w as usize * i, w, a);
            write_bits(bits, (2 * i + 1) * w as usize, w, b);
        }
        self.at = i + 1;
    }

    pub(crate) fn finish(self) -> Encoded {
        debug_assert_eq!(self.at, self.len, "every announced change written");
        debug_assert!(
            self.words[..self.len].windows(2).all(|p| p[0] < p[1]),
            "waveform times must strictly increase"
        );
        Encoded {
            len: self.len,
            words: self.words,
        }
    }
}

/// The bits `n` changes of a `width`-bit node take in the plane stream.
fn plane_bits(width: u8, n: usize) -> usize {
    2 * usize::from(width) * n
}

/// The low `width` (1..=64) bits set.
fn low_bits(width: u32) -> u64 {
    u64::MAX >> (64 - width)
}

/// The `width` (1..=64) bits of the stream `bits` from bit `at` on.
#[inline]
fn read_bits(bits: &[Time], at: usize, width: u32) -> u64 {
    let (k, s) = (at / 64, (at % 64) as u32);
    let mut v = bits[k].0 >> s;
    if s + width > 64 {
        v |= bits[k + 1].0 << (64 - s);
    }
    v & low_bits(width)
}

/// ORs `v`, `width` (1..=64) bits with nothing set above them, into the
/// stream `bits` at bit `at`.
#[inline]
fn write_bits(bits: &mut [Time], at: usize, width: u32, v: u64) {
    let (k, s) = (at / 64, (at % 64) as u32);
    bits[k].0 |= v << s;
    if s + width > 64 {
        bits[k + 1].0 |= v >> (64 - s);
    }
}

/// Change `i`'s planes `(a, b)` from a `width`-bit node's plane stream.
#[inline]
fn read_planes(bits: &[Time], width: u32, i: usize) -> (u64, u64) {
    let at = 2 * width as usize * i;
    if width <= 32 {
        let both = read_bits(bits, at, 2 * width);
        (both & low_bits(width), both >> width)
    } else {
        (
            read_bits(bits, at, width),
            read_bits(bits, at + width as usize, width),
        )
    }
}

/// ORs the first `n` bits of the stream `src` into `dst` from bit `at` on.
fn copy_bits(dst: &mut [Time], at: usize, src: &[Time], n: usize) {
    for (k, word) in src.iter().enumerate().take(n.div_ceil(64)) {
        let width = (n - 64 * k).min(64) as u32;
        write_bits(dst, at + 64 * k, width, word.0 & low_bits(width));
    }
}

/// The watch list in the form result assembly wants it: one slot per
/// distinct watched node, in node order, with the name and width every
/// waveform of that node carries, and a dense node → slot table so routing
/// a change costs one indexed load. Built once per run — once per batch by
/// `run_batch`, whose lanes all share it.
pub(crate) struct WatchSlots {
    /// Watched nodes, ascending, no repeats.
    nodes: Vec<(NodeId, Arc<str>, u8)>,
    /// Indexed by node: its position in `nodes`, or `UNWATCHED`.
    slot_of: Vec<u32>,
}

const UNWATCHED: u32 = u32::MAX;

impl WatchSlots {
    pub(crate) fn new(netlist: &Netlist, watch: &[NodeId]) -> WatchSlots {
        let mut slot_of = vec![UNWATCHED; netlist.num_nodes()];
        for &n in watch {
            slot_of[n.index()] = 0;
        }
        let mut nodes = Vec::with_capacity(watch.len().min(slot_of.len()));
        for (i, slot) in slot_of.iter_mut().enumerate() {
            if *slot != UNWATCHED {
                *slot = nodes.len() as u32;
                let id = NodeId::from_index(i);
                let node = netlist.node(id);
                nodes.push((id, Arc::from(node.name()), node.width()));
            }
        }
        WatchSlots { nodes, slot_of }
    }

    /// The watched nodes, ascending.
    pub(crate) fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.nodes.iter().map(|&(n, ..)| n)
    }
}

/// The outcome of a simulation run: watched waveforms plus metrics.
///
/// # Examples
///
/// See [`crate`]-level documentation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The configured end time.
    pub end_time: Time,
    /// One per watched node, ascending by node id.
    pub(crate) waveforms: Vec<Waveform>,
    /// Execution metrics.
    pub metrics: Metrics,
    /// The drained per-worker event trace. `Some` only when the run was
    /// configured with [`SimConfig::with_trace`](crate::SimConfig) *and*
    /// the `trace` cargo feature is compiled in.
    pub trace: Option<parsim_trace::Trace>,
    /// The run's telemetry: the final registry snapshot (always present
    /// for engine-driven runs — the registry is compiled in and on) plus
    /// the in-run sample series when
    /// [`SimConfig::sample_every`](crate::SimConfig) was set.
    pub telemetry: Option<parsim_telemetry::RunTelemetry>,
}

impl SimResult {
    /// Assembles a result from per-thread change buffers.
    ///
    /// Changes may arrive in any order across buffers; a node's list is
    /// sorted by time only if it did not arrive that way. Each
    /// `(node, time)` pair must be unique — the engines guarantee it.
    /// Changes after `end_time` or for unwatched nodes are dropped.
    pub(crate) fn from_changes(
        netlist: &Netlist,
        end_time: Time,
        watch: &[NodeId],
        changes: Vec<(Time, NodeId, Value)>,
        metrics: Metrics,
    ) -> SimResult {
        let slots = WatchSlots::new(netlist, watch);
        // Where a change goes, if it is kept at all.
        let slot_for = |t: Time, n: NodeId| match slots.slot_of[n.index()] {
            slot if slot != UNWATCHED && t <= end_time => Some(slot as usize),
            _ => None,
        };
        // Pass 1: how many changes each slot keeps, and whether they
        // arrive in time order.
        let mut counts = vec![0usize; slots.nodes.len()];
        let mut latest: Vec<Option<Time>> = vec![None; counts.len()];
        let mut out_of_order = vec![false; counts.len()];
        for &(t, n, _) in &changes {
            if let Some(slot) = slot_for(t, n) {
                counts[slot] += 1;
                out_of_order[slot] |= latest[slot].is_some_and(|last| last > t);
                latest[slot] = Some(t);
            }
        }
        // Pass 2: an in-order slot is encoded as its changes arrive; the
        // rest are gathered, sorted and then encoded.
        enum Sink {
            Direct(EncodedWriter),
            Sorted(u8, Vec<(Time, Value)>),
        }
        let mut sinks: Vec<Sink> = (counts.into_iter().zip(out_of_order))
            .zip(&slots.nodes)
            .map(|((count, unsorted), &(_, _, width))| match unsorted {
                false => Sink::Direct(EncodedWriter::new(width, count)),
                true => Sink::Sorted(width, Vec::with_capacity(count)),
            })
            .collect();
        for (t, n, v) in changes {
            let Some(slot) = slot_for(t, n) else { continue };
            match &mut sinks[slot] {
                Sink::Direct(out) => {
                    let (a, b) = v.to_planes();
                    out.push(t, a, b);
                }
                Sink::Sorted(_, list) => list.push((t, v)),
            }
        }
        let lists = sinks
            .into_iter()
            .map(|sink| match sink {
                Sink::Direct(out) => out.finish(),
                Sink::Sorted(width, mut list) => {
                    // Stable, as the global (time, node) sort it replaces was.
                    list.sort_by_key(|&(t, _)| t);
                    Encoded::from_pairs(width, &list)
                }
            })
            .collect();
        SimResult::from_lists(end_time, &slots, lists, metrics)
    }

    /// Adopts one finished change list per watched node, in `slots` order,
    /// by move. Every list must end at or before `end_time`.
    pub(crate) fn from_lists(
        end_time: Time,
        slots: &WatchSlots,
        lists: Vec<Encoded>,
        metrics: Metrics,
    ) -> SimResult {
        debug_assert_eq!(lists.len(), slots.nodes.len());
        debug_assert!(
            lists
                .iter()
                .all(|l| l.times().last().is_none_or(|&t| t <= end_time)),
            "waveform times must end by the end time"
        );
        let waveforms = slots
            .nodes
            .iter()
            .zip(lists)
            .map(|((node, name, width), changes)| Waveform {
                node: *node,
                name: Arc::clone(name),
                width: *width,
                changes,
            })
            .collect();
        SimResult {
            end_time,
            waveforms,
            metrics,
            trace: None,
            telemetry: None,
        }
    }

    fn index_of(&self, node: NodeId) -> Option<usize> {
        self.waveforms
            .binary_search_by_key(&node, Waveform::node)
            .ok()
    }

    /// The waveform of a watched node, if it was watched.
    pub fn waveform(&self, node: NodeId) -> Option<&Waveform> {
        self.index_of(node).map(|i| &self.waveforms[i])
    }

    /// The final value of a watched node.
    pub fn final_value(&self, node: NodeId) -> Option<Value> {
        self.waveform(node).map(Waveform::final_value)
    }

    /// Reads a multi-bit quantity at time `t` from a set of 1-bit watched
    /// nodes (LSB first) — convenient for gate-level buses.
    ///
    /// Returns `None` if any bit is unwatched or not a known 0/1 at `t`.
    pub fn bus_value_at(&self, bits: &[NodeId], t: Time) -> Option<u64> {
        let mut out = 0u64;
        for (i, &bit) in bits.iter().enumerate() {
            let v = self.waveform(bit)?.value_at(t).to_u64()?;
            out |= v << i;
        }
        Some(out)
    }

    /// All watched waveforms, sorted by node id.
    pub fn waveforms(&self) -> Vec<&Waveform> {
        self.waveforms.iter().collect()
    }

    /// A copy restricted to `watch`'s waveforms with changes truncated to
    /// `end` — a tenant's private view of a shared batch lane. Nodes in
    /// `watch` that were not watched in the original run are absent from
    /// the copy (there is nothing recorded to restrict to). Metrics are
    /// carried over unchanged; trace and telemetry are dropped (they
    /// describe the whole run, not the restricted view).
    pub fn restricted(&self, watch: &[NodeId], end: Time) -> SimResult {
        let mut keep: Vec<usize> = watch.iter().filter_map(|&n| self.index_of(n)).collect();
        keep.sort_unstable();
        keep.dedup();
        let waveforms = keep
            .into_iter()
            .map(|i| {
                let w = &self.waveforms[i];
                let upto = w.times().partition_point(|&t| t <= end);
                Waveform {
                    node: w.node,
                    name: Arc::clone(&w.name),
                    width: w.width,
                    changes: w.changes.prefix(w.width, upto),
                }
            })
            .collect();
        SimResult {
            end_time: end.min(self.end_time),
            waveforms,
            metrics: self.metrics.clone(),
            trace: None,
            telemetry: None,
        }
    }

    /// Appends a later checkpoint segment's changes onto this result —
    /// the stitching step of segmented runs (`run_batch_segment` chains).
    ///
    /// `later` must be the immediately following segment of the same run:
    /// every node watched here with changes in `later` must start strictly
    /// after this result's last recorded change for that node (the segment
    /// API guarantees it). Nodes watched only in `later` are added whole.
    /// Metrics are merged; `end_time` advances to `later.end_time`.
    pub fn append_segment(&mut self, later: &SimResult) {
        let watched_here = self.waveforms.len();
        for w in &later.waveforms {
            // Only the waveforms this result started with are in order.
            let found =
                self.waveforms[..watched_here].binary_search_by_key(&w.node, Waveform::node);
            match found {
                Ok(i) => {
                    let existing = &mut self.waveforms[i];
                    debug_assert!(
                        existing.times().last() < w.times().first() || w.times().is_empty(),
                        "segments must be appended in time order"
                    );
                    existing.changes = existing.changes.concat(w.width, &w.changes);
                }
                Err(_) => self.waveforms.push(w.clone()),
            }
        }
        if self.waveforms.len() > watched_here {
            self.waveforms.sort_by_key(Waveform::node);
        }
        self.metrics.merge(&later.metrics);
        self.end_time = self.end_time.max(later.end_time);
    }

    /// Writes the watched waveforms to a VCD file.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_vcd(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        // No `BufWriter`: the encoder already hands over large blocks.
        self.write_vcd_to(&mut std::fs::File::create(path)?)
    }

    /// Exports the watched waveforms as a VCD (Value Change Dump) document.
    pub fn to_vcd(&self) -> String {
        let mut out = Vec::new();
        self.write_vcd_to(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("a VCD is ASCII around UTF-8 node names")
    }

    /// Encodes the watched waveforms as a VCD document into `out`, in
    /// blocks of about [`VCD_BLOCK`] bytes — a `File` or a socket needs no
    /// buffering of its own around it.
    ///
    /// Variables are declared in node order and identified by their
    /// position in base 94 over `!`..=`~`, least significant symbol first.
    /// Every variable is dumped at `#0` (all-`x` unless it changed at time
    /// zero); later changes follow grouped by time, in node order within a
    /// time.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` reports.
    pub fn write_vcd_to<W: io::Write>(&self, out: &mut W) -> io::Result<()> {
        let ws = &self.waveforms;
        let idents = Idents::new(ws.len());
        let mut buf: Vec<u8> = Vec::with_capacity(VCD_BLOCK + 256);
        buf.extend_from_slice(b"$timescale 1ns $end\n$scope module parsim $end\n");
        for (i, w) in ws.iter().enumerate() {
            buf.extend_from_slice(b"$var wire ");
            push_decimal(&mut buf, u64::from(w.width));
            buf.push(b' ');
            buf.extend_from_slice(idents.get(i));
            buf.push(b' ');
            buf.extend_from_slice(w.name.as_bytes());
            buf.extend_from_slice(b" $end\n");
            flush_if_full(&mut buf, out)?;
        }
        buf.extend_from_slice(b"$upscope $end\n$enddefinitions $end\n");

        // Waveforms are in node order and each is in time order, so a
        // stable sort on time alone yields (time, node) order. LSD radix,
        // 16 bits a pass; the first pass reads the waveforms themselves.
        let latest = ws
            .iter()
            .filter_map(|w| w.times().last())
            .map(|t| t.ticks())
            .max()
            .unwrap_or(0);
        let dump_times = ws
            .iter()
            .flat_map(|w| std::iter::once(0).chain(later_times(w).iter().map(|t| t.ticks())));
        let mut pass = RadixPass::new(dump_times, 0, latest);
        for (slot, w) in ws.iter().enumerate() {
            dump_records(slot, w, |r| pass.put(r));
        }
        let mut dump = pass.sorted;
        let mut shift = RADIX_BITS;
        while shift < u64::BITS && latest >> shift != 0 {
            let mut pass = RadixPass::new(dump.iter().map(|r| r.t), shift, latest);
            for &r in &dump {
                pass.put(r);
            }
            dump = pass.sorted;
            shift += RADIX_BITS;
        }

        // Indexed by a bit's two planes, `a | b << 1`.
        const BIT: [u8; 4] = *b"01zx";
        let mut now = None;
        for r in &dump {
            if now != Some(r.t) {
                now = Some(r.t);
                buf.push(b'#');
                push_decimal(&mut buf, r.t);
                buf.push(b'\n');
            }
            let bit = |i: u8| BIT[(((r.a >> i) & 1) | (((r.b >> i) & 1) << 1)) as usize];
            if r.width == 1 {
                buf.push(bit(0));
            } else {
                buf.push(b'b');
                buf.extend((0..r.width).rev().map(bit));
                buf.push(b' ');
            }
            buf.extend_from_slice(idents.get(r.slot as usize));
            buf.push(b'\n');
            flush_if_full(&mut buf, out)?;
        }
        out.write_all(&buf)
    }
}

/// The size at which [`SimResult::write_vcd_to`] hands its buffer on.
const VCD_BLOCK: usize = 64 * 1024;

fn flush_if_full<W: io::Write>(buf: &mut Vec<u8>, out: &mut W) -> io::Result<()> {
    if buf.len() >= VCD_BLOCK {
        out.write_all(buf)?;
        buf.clear();
    }
    Ok(())
}

fn push_decimal(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Every variable's VCD identifier, encoded once.
struct Idents {
    bytes: Vec<u8>,
    /// `bytes[ends[i - 1]..ends[i]]` is identifier `i`.
    ends: Vec<u32>,
}

impl Idents {
    fn new(count: usize) -> Idents {
        let mut bytes = Vec::with_capacity(2 * count);
        let mut ends = Vec::with_capacity(count);
        for i in 0..count {
            // VCD identifier alphabet: printable ASCII 33..=126.
            let mut v = i;
            loop {
                bytes.push(33 + (v % 94) as u8);
                v /= 94;
                if v == 0 {
                    break;
                }
            }
            ends.push(bytes.len() as u32);
        }
        Idents { bytes, ends }
    }

    fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }
}

/// One line of the dump section: a value (as its two planes) for the
/// variable in `slot` at time `t`.
#[derive(Clone, Copy, Default)]
struct DumpRecord {
    t: u64,
    a: u64,
    b: u64,
    slot: u32,
    width: u8,
}

/// A waveform's changes after time zero, whose dump lines follow the one
/// at `#0`.
fn later_times(w: &Waveform) -> &[Time] {
    let times = w.times();
    &times[times.partition_point(|&t| t == Time::ZERO)..]
}

/// Hands `put` a waveform's dump lines: its value at time zero, then every
/// later change, decoded straight from its plane stream.
#[inline]
fn dump_records(slot: usize, w: &Waveform, mut put: impl FnMut(DumpRecord)) {
    let record = |t: Time, (a, b): (u64, u64)| DumpRecord {
        t: t.ticks(),
        a,
        b,
        slot: slot as u32,
        width: w.width,
    };
    put(record(Time::ZERO, w.value_at(Time::ZERO).to_planes()));
    let (bits, width) = (w.changes.bits(), u32::from(w.width));
    let later = w.num_changes() - later_times(w).len();
    for (i, &t) in w.times().iter().enumerate().skip(later) {
        put(record(t, read_planes(bits, width, i)));
    }
}

const RADIX_BITS: u32 = 16;
const RADIX_MASK: u64 = (1 << RADIX_BITS) - 1;

/// One stable counting-sort pass over the `RADIX_BITS` of each record's
/// time at `shift`: [`RadixPass::new`] counts the times, then every record
/// is [`put`](RadixPass::put) in the same order.
struct RadixPass {
    shift: u32,
    /// Per digit: where its next record goes.
    next: Vec<usize>,
    sorted: Vec<DumpRecord>,
}

impl RadixPass {
    /// `latest` bounds every time, so the table is no larger than the
    /// digit's range in this input.
    fn new(times: impl Iterator<Item = u64>, shift: u32, latest: u64) -> RadixPass {
        let mut next = vec![0usize; (latest >> shift).min(RADIX_MASK) as usize + 2];
        for t in times {
            next[((t >> shift) & RADIX_MASK) as usize + 1] += 1;
        }
        for d in 1..next.len() {
            next[d] += next[d - 1];
        }
        let sorted = vec![DumpRecord::default(); next[next.len() - 1]];
        RadixPass {
            shift,
            next,
            sorted,
        }
    }

    #[inline]
    fn put(&mut self, r: DumpRecord) {
        let at = &mut self.next[((r.t >> self.shift) & RADIX_MASK) as usize];
        self.sorted[*at] = r;
        *at += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::{Delay, ElementKind};
    use parsim_netlist::Builder;
    use proptest::prelude::*;

    fn tiny_netlist() -> (Netlist, NodeId, NodeId) {
        let mut b = Builder::new();
        let a = b.node("a", 1);
        let c = b.node("c", 4);
        b.element(
            "g",
            ElementKind::Const {
                value: Value::bit(true),
            },
            Delay(1),
            &[],
            &[a],
        )
        .unwrap();
        (b.finish().unwrap(), a, c)
    }

    #[test]
    fn value_at_semantics() {
        let (n, a, _) = tiny_netlist();
        let changes = vec![
            (Time(5), a, Value::bit(true)),
            (Time(10), a, Value::bit(false)),
        ];
        let r = SimResult::from_changes(&n, Time(20), &[a], changes, Metrics::default());
        let w = r.waveform(a).unwrap();
        assert_eq!(w.value_at(Time(0)), Value::x(1));
        assert_eq!(w.value_at(Time(5)), Value::bit(true));
        assert_eq!(w.value_at(Time(7)), Value::bit(true));
        assert_eq!(w.value_at(Time(10)), Value::bit(false));
        assert_eq!(w.final_value(), Value::bit(false));
        assert_eq!(w.num_changes(), 2);
    }

    #[test]
    fn changes_beyond_end_are_trimmed() {
        let (n, a, _) = tiny_netlist();
        let changes = vec![
            (Time(5), a, Value::bit(true)),
            (Time(30), a, Value::bit(false)),
        ];
        let r = SimResult::from_changes(&n, Time(20), &[a], changes, Metrics::default());
        assert_eq!(r.waveform(a).unwrap().num_changes(), 1);
    }

    #[test]
    fn unsorted_buffers_are_sorted() {
        let (n, a, _) = tiny_netlist();
        let changes = vec![
            (Time(10), a, Value::bit(false)),
            (Time(5), a, Value::bit(true)),
        ];
        let r = SimResult::from_changes(&n, Time(20), &[a], changes, Metrics::default());
        let w = r.waveform(a).unwrap();
        assert_eq!(w.times()[0], Time(5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arrival order is not part of the result: per-worker buffers
        /// concatenated (each in time order, the way the parallel engines
        /// deliver them) and a fully shuffled list both assemble to what
        /// the `(time, node)`-sorted list does — which is each watched
        /// node's in-range changes in time order, and nothing else.
        #[test]
        fn assembly_does_not_depend_on_arrival_order(
            seed in any::<u64>(),
            nodes in 1usize..12,
            buffers in 1usize..5,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut b = Builder::new();
            let ids: Vec<NodeId> =
                (0..nodes).map(|i| b.node(&format!("n{i}"), 1 + (i % 3) as u8 * 7)).collect();
            let netlist = b.finish().unwrap();
            let end = Time(40);
            // Unique (node, time) pairs, a third of them beyond `end`.
            let mut sorted: Vec<(Time, NodeId, Value)> = Vec::new();
            for t in 0..60u64 {
                for &n in &ids {
                    if rng.gen_range(0..3u32) == 0 {
                        let width = netlist.node(n).width();
                        sorted.push((Time(t), n, Value::from_u64(rng.gen_range(0..2u64), width)));
                    }
                }
            }
            // Most nodes watched, out of order and with a repeat; the rest
            // still produce changes, which assembly must drop.
            let mut watch: Vec<NodeId> =
                ids.iter().rev().copied().filter(|_| rng.gen_range(0..4u32) != 0).collect();
            watch.extend(watch.first().copied());

            let mut per_worker = vec![Vec::new(); buffers];
            for &c in &sorted {
                per_worker[rng.gen_range(0..buffers)].push(c);
            }
            let concatenated: Vec<_> = per_worker.into_iter().rev().flatten().collect();
            let mut shuffled = sorted.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }

            let assemble =
                |c| SimResult::from_changes(&netlist, end, &watch, c, Metrics::default()).waveforms;
            let want = assemble(sorted.clone());
            prop_assert_eq!(&assemble(concatenated), &want, "seed {}", seed);
            prop_assert_eq!(&assemble(shuffled), &want, "seed {}", seed);

            let mut watched = watch.clone();
            watched.sort();
            watched.dedup();
            let got: Vec<NodeId> = want.iter().map(Waveform::node).collect();
            prop_assert_eq!(got, watched);
            for w in &want {
                let model: Vec<(Time, Value)> = sorted
                    .iter()
                    .filter(|&&(t, n, _)| n == w.node() && t <= end)
                    .map(|&(t, _, v)| (t, v))
                    .collect();
                prop_assert_eq!(w.changes().collect::<Vec<_>>(), model, "node {:?}", w.node());
            }
        }

        /// The encoding against a plain `(Time, Value)` list per node, at
        /// widths whose records fit one word (1, 2, 7, 31, 32) and whose
        /// planes take a field each (33, 63, 64), with X and Z bits and,
        /// in about half the cases, a change at time zero. Changes arrive
        /// in order or shuffled. `changes` both ways, `times`, `value_at`
        /// at every tick, `final_value`, `restricted` at a random cut and
        /// `append_segment` of the two halves all read the model back, and
        /// the cut and stitched copies encode exactly as freshly built
        /// ones.
        #[test]
        fn encoding_matches_a_plain_change_list(
            seed in any::<u64>(),
            most in 0usize..40,
            shuffle in any::<bool>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut b = Builder::new();
            let widths = [1u8, 2, 7, 31, 32, 33, 63, 64];
            let ids: Vec<NodeId> = widths.iter().map(|&w| b.node(&format!("w{w}"), w)).collect();
            let netlist = b.finish().unwrap();
            let end = Time(200);
            let mut models: Vec<Vec<(Time, Value)>> = Vec::new();
            let mut all: Vec<(Time, NodeId, Value)> = Vec::new();
            for (&id, &width) in ids.iter().zip(&widths) {
                let mut model = Vec::new();
                let mut t = rng.gen_range(0..2u64);
                for _ in 0..rng.gen_range(0..=most) {
                    let v = match rng.gen_range(0..6u32) {
                        0 => Value::x(width),
                        1 => Value::z(width),
                        2 => Value::from_u64(rng.gen(), width),
                        // Mixed four-state bits: X where both planes are set.
                        _ => Value::from_planes(width, rng.gen(), rng.gen::<u64>() & rng.gen::<u64>()),
                    };
                    all.push((Time(t), id, v));
                    if t <= end.ticks() {
                        model.push((Time(t), v));
                    }
                    t += rng.gen_range(1..9u64);
                }
                models.push(model);
            }
            if shuffle {
                for i in (1..all.len()).rev() {
                    all.swap(i, rng.gen_range(0..=i));
                }
            }
            let build = |end: Time, changes: Vec<(Time, NodeId, Value)>| {
                SimResult::from_changes(&netlist, end, &ids, changes, Metrics::default())
            };
            let r = build(end, all.clone());
            let at = |model: &[(Time, Value)], width: u8, t: Time| {
                model.iter().rev().find(|&&(ct, _)| ct <= t).map_or(Value::x(width), |&(_, v)| v)
            };
            for ((w, model), &width) in r.waveforms.iter().zip(&models).zip(&widths) {
                prop_assert_eq!(w.width(), width);
                prop_assert_eq!(w.changes().len(), model.len());
                prop_assert_eq!(&w.changes().collect::<Vec<_>>(), model, "width {}", width);
                let backwards: Vec<_> = model.iter().rev().copied().collect();
                prop_assert_eq!(w.changes().rev().collect::<Vec<_>>(), backwards);
                let times: Vec<Time> = model.iter().map(|&(t, _)| t).collect();
                prop_assert_eq!(w.times(), &times[..]);
                for t in 0..=end.ticks() + 1 {
                    prop_assert_eq!(w.value_at(Time(t)), at(model, width, Time(t)), "t {}", t);
                }
                prop_assert_eq!(w.final_value(), at(model, width, Time::MAX));
                let n = model.len();
                let bits = 2 * usize::from(width) * n;
                prop_assert_eq!(w.heap_bytes(), 8 * (n + bits.div_ceil(64)));
            }

            let cut = Time(rng.gen_range(0..=end.ticks() + 10));
            let (head, tail): (Vec<_>, Vec<_>) = all.iter().partition(|&&(t, _, _)| t <= cut);
            let view = r.restricted(&ids, cut);
            let fresh = build(cut.min(end), head.clone());
            prop_assert_eq!(&view.waveforms, &fresh.waveforms, "cut at {:?}", cut);
            for (w, model) in view.waveforms.iter().zip(&models) {
                let kept: Vec<_> = model.iter().copied().filter(|&(t, _)| t <= cut).collect();
                prop_assert_eq!(w.changes().collect::<Vec<_>>(), kept);
            }

            let mut stitched = build(cut.min(end), head);
            stitched.append_segment(&build(end, tail));
            prop_assert_eq!(&stitched.waveforms, &r.waveforms, "stitched at {:?}", cut);
        }
    }

    #[test]
    fn bus_value_assembly() {
        let mut b = Builder::new();
        let bits: Vec<NodeId> = (0..4).map(|i| b.node(&format!("p{i}"), 1)).collect();
        let n = b.finish().unwrap();
        let changes = vec![
            (Time(1), bits[0], Value::bit(true)),
            (Time(1), bits[1], Value::bit(false)),
            (Time(1), bits[2], Value::bit(true)),
            (Time(1), bits[3], Value::bit(false)),
        ];
        let r = SimResult::from_changes(&n, Time(5), &bits, changes, Metrics::default());
        assert_eq!(r.bus_value_at(&bits, Time(2)), Some(0b0101));
        // X before the changes: unreadable.
        assert_eq!(r.bus_value_at(&bits, Time(0)), None);
    }

    #[test]
    fn restricted_filters_nodes_and_truncates_time() {
        let (n, a, c) = tiny_netlist();
        let changes = vec![
            (Time(5), a, Value::bit(true)),
            (Time(15), a, Value::bit(false)),
            (Time(5), c, Value::from_u64(9, 4)),
        ];
        let r = SimResult::from_changes(&n, Time(20), &[a, c], changes, Metrics::default());
        let view = r.restricted(&[a], Time(10));
        assert_eq!(view.end_time, Time(10));
        assert!(view.waveform(c).is_none());
        let w = view.waveform(a).unwrap();
        assert_eq!(w.num_changes(), 1);
        assert_eq!(w.changes().next(), Some((Time(5), Value::bit(true))));
        // The original is untouched.
        assert_eq!(r.waveform(a).unwrap().num_changes(), 2);
    }

    #[test]
    fn restricted_skips_unwatched_nodes() {
        let (n, a, c) = tiny_netlist();
        let r = SimResult::from_changes(&n, Time(20), &[a], vec![], Metrics::default());
        let view = r.restricted(&[a, c], Time(20));
        assert!(view.waveform(a).is_some());
        assert!(view.waveform(c).is_none());
    }

    #[test]
    fn append_segment_stitches_changes_and_metrics() {
        let (n, a, c) = tiny_netlist();
        let head_metrics = Metrics {
            evaluations: 3,
            ..Metrics::default()
        };
        let mut head = SimResult::from_changes(
            &n,
            Time(10),
            &[a],
            vec![(Time(5), a, Value::bit(true))],
            head_metrics,
        );
        let tail_metrics = Metrics {
            evaluations: 4,
            ..Metrics::default()
        };
        let tail = SimResult::from_changes(
            &n,
            Time(20),
            &[a, c],
            vec![
                (Time(12), a, Value::bit(false)),
                (Time(14), c, Value::from_u64(7, 4)),
            ],
            tail_metrics,
        );
        head.append_segment(&tail);
        assert_eq!(head.end_time, Time(20));
        assert_eq!(head.metrics.evaluations, 7);
        let wa = head.waveform(a).unwrap();
        assert_eq!(
            wa.changes().collect::<Vec<_>>(),
            [(Time(5), Value::bit(true)), (Time(12), Value::bit(false))]
        );
        // A node watched only in the tail is adopted whole.
        assert_eq!(head.waveform(c).unwrap().num_changes(), 1);
    }

    #[test]
    fn write_vcd_creates_file() {
        let (n, a, _) = tiny_netlist();
        let changes = vec![(Time(5), a, Value::bit(true))];
        let r = SimResult::from_changes(&n, Time(20), &[a], changes, Metrics::default());
        let path = std::env::temp_dir().join("parsim_write_vcd_test.vcd");
        r.write_vcd(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("$timescale"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn vcd_export_structure() {
        let (n, a, c) = tiny_netlist();
        let changes = vec![
            (Time(5), a, Value::bit(true)),
            (Time(5), c, Value::from_u64(9, 4)),
        ];
        let r = SimResult::from_changes(&n, Time(20), &[a, c], changes, Metrics::default());
        let vcd = r.to_vcd();
        assert!(vcd.contains("$var wire 1"));
        assert!(vcd.contains("$var wire 4"));
        assert!(vcd.contains("#5"));
        assert!(vcd.contains("b1001"));
        assert!(vcd.contains("$enddefinitions"));
    }
}
