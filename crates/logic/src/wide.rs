//! Bit-plane lane kernels: `64·W` stimulus lanes per word group.
//!
//! A [`Value`] stores one logic vector as two planes `(a, b)` with one bit
//! per *vector bit*. This module transposes that layout: a
//! [`WideLanes<W>`] holds one *vector bit* across `64·W` independent
//! simulations, as `W` consecutive `u64` words per plane (64/128/256/512
//! lanes for `W` ∈ {1, 2, 4, 8}), so a node of width `w` is `w`
//! consecutive `WideLanes`. Four-state logic then evaluates as plain
//! word-wide boolean algebra. Every kernel here is *bit-identical* per
//! lane to [`evaluate`](crate::evaluate); the compiled-mode batch engine
//! in `parsim-core` relies on that, and the tests check it exhaustively
//! for one-bit operands at `W = 1` and `W = 8`, and on random wide
//! operands at every `W`.
//!
//! Lane masks are [`LaneMask<W>`] (`[u64; W]`, word `l / 64`, bit
//! `l % 64` for lane `l`), so a batch whose lane count is not a multiple
//! of the word width simply masks the ragged tail.
//!
//! The kernels are one set of `[u64; W]` loops with `W` fixed at compile
//! time; the compiler vectorizes them for the target it builds for. There
//! is no hand-written intrinsic path and no runtime dispatch: the batch
//! kernel is bound by memory latency on its tables and value arena, not by
//! word ops (DESIGN.md §11.1). [`simd_level`] probes the CPU only to name
//! the host.
//!
//! Encoding per lane (same two-plane convention as [`Value`]):
//!
//! | state | a | b |
//! |-------|---|---|
//! | `0`   | 0 | 0 |
//! | `1`   | 1 | 0 |
//! | `Z`   | 0 | 1 |
//! | `X`   | 1 | 1 |

use std::sync::OnceLock;

use crate::value::Value;

/// Lane widths (in stimulus lanes) supported by the wide kernels.
pub const LANE_WIDTHS: [usize; 4] = [64, 128, 256, 512];

/// One bit position of a logic vector across `64·W` simulation lanes.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideLanes<const W: usize> {
    /// Plane `a`: set for `1` and `X` lanes. Lane `l` is word `l / 64`,
    /// bit `l % 64`.
    pub a: [u64; W],
    /// Plane `b`: set for `Z` and `X` lanes.
    pub b: [u64; W],
}

/// A per-lane bitmask over `64·W` lanes (same word/bit layout as the
/// planes of [`WideLanes<W>`]).
pub type LaneMask<const W: usize> = [u64; W];

impl<const W: usize> Default for WideLanes<W> {
    fn default() -> WideLanes<W> {
        WideLanes::ZERO
    }
}

impl<const W: usize> WideLanes<W> {
    /// All lanes `X` (the reset state of every node).
    pub const X: WideLanes<W> = WideLanes {
        a: [!0; W],
        b: [!0; W],
    };
    /// All lanes `0`.
    pub const ZERO: WideLanes<W> = WideLanes {
        a: [0; W],
        b: [0; W],
    };
    /// All lanes `1`.
    pub const ONE: WideLanes<W> = WideLanes {
        a: [!0; W],
        b: [0; W],
    };
    /// All lanes `Z`.
    pub const Z: WideLanes<W> = WideLanes {
        a: [0; W],
        b: [!0; W],
    };

    /// Z lanes become X; mirrors [`Value::to_logic`] per lane.
    #[inline]
    pub fn to_logic(self) -> WideLanes<W> {
        let mut out = self;
        for w in 0..W {
            out.a[w] |= self.b[w];
        }
        out
    }

    /// Lanes that are a known `1` (raw view).
    #[inline]
    pub fn k1(self) -> LaneMask<W> {
        let mut m = [0u64; W];
        for (w, word) in m.iter_mut().enumerate() {
            *word = self.a[w] & !self.b[w];
        }
        m
    }

    /// Lanes that are a known `0` (raw view).
    #[inline]
    pub fn k0(self) -> LaneMask<W> {
        let mut m = [0u64; W];
        for (w, word) in m.iter_mut().enumerate() {
            *word = !self.a[w] & !self.b[w];
        }
        m
    }

    /// Lanes where `self` differs from `other` in either plane.
    #[inline]
    pub fn diff(self, other: WideLanes<W>) -> LaneMask<W> {
        let mut m = [0u64; W];
        for (w, word) in m.iter_mut().enumerate() {
            *word = (self.a[w] ^ other.a[w]) | (self.b[w] ^ other.b[w]);
        }
        m
    }

    /// Builds lanes from known-zero and known-one masks; uncovered lanes
    /// are `X`.
    #[inline]
    pub fn from_masks(zeros: LaneMask<W>, ones: LaneMask<W>) -> WideLanes<W> {
        let mut out = WideLanes::ZERO;
        for w in 0..W {
            let unknown = !(zeros[w] | ones[w]);
            out.a[w] = ones[w] | unknown;
            out.b[w] = unknown;
        }
        out
    }

    /// Per-lane select: lanes in `mask` read from `t`, the rest from `e`.
    #[inline]
    pub fn select(mask: &LaneMask<W>, t: WideLanes<W>, e: WideLanes<W>) -> WideLanes<W> {
        let mut out = WideLanes::ZERO;
        for (w, &m) in mask.iter().enumerate() {
            out.a[w] = (t.a[w] & m) | (e.a[w] & !m);
            out.b[w] = (t.b[w] & m) | (e.b[w] & !m);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Lane-mask helpers.
// ---------------------------------------------------------------------------

/// The empty mask.
#[inline]
pub fn mask_none<const W: usize>() -> LaneMask<W> {
    [0; W]
}

/// The full mask (all `64·W` lanes).
#[inline]
pub fn mask_all<const W: usize>() -> LaneMask<W> {
    [!0; W]
}

/// The first `n` lanes set (`n ≤ 64·W`); the ragged-tail mask for a
/// chunk carrying fewer stimulus lanes than the word holds.
#[inline]
pub fn mask_first<const W: usize>(n: usize) -> LaneMask<W> {
    debug_assert!(n <= 64 * W);
    let mut m = [0u64; W];
    for (w, word) in m.iter_mut().enumerate() {
        let lo = w * 64;
        if n >= lo + 64 {
            *word = !0;
        } else if n > lo {
            *word = (1u64 << (n - lo)) - 1;
        }
    }
    m
}

/// A mask with only lane `lane` set.
#[inline]
pub fn mask_lane<const W: usize>(lane: u32) -> LaneMask<W> {
    debug_assert!((lane as usize) < 64 * W);
    let mut m = [0u64; W];
    m[lane as usize / 64] = 1u64 << (lane % 64);
    m
}

/// True when any lane is set.
#[inline]
pub fn mask_any<const W: usize>(m: &LaneMask<W>) -> bool {
    m.iter().any(|&w| w != 0)
}

/// Number of set lanes.
#[inline]
pub fn mask_count<const W: usize>(m: &LaneMask<W>) -> u32 {
    m.iter().map(|w| w.count_ones()).sum()
}

/// Word-wise AND of two masks.
#[inline]
pub fn mask_and<const W: usize>(x: &LaneMask<W>, y: &LaneMask<W>) -> LaneMask<W> {
    let mut m = [0u64; W];
    for w in 0..W {
        m[w] = x[w] & y[w];
    }
    m
}

/// Word-wise OR of two masks, accumulated in place.
#[inline]
pub fn mask_or_assign<const W: usize>(acc: &mut LaneMask<W>, m: &LaneMask<W>) {
    for w in 0..W {
        acc[w] |= m[w];
    }
}

/// Calls `f(lane)` for every set lane, ascending.
#[inline]
pub fn for_each_lane<const W: usize>(m: &LaneMask<W>, mut f: impl FnMut(u32)) {
    for (w, &word) in m.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let lane = (w * 64) as u32 + bits.trailing_zeros();
            bits &= bits - 1;
            f(lane);
        }
    }
}

// ---------------------------------------------------------------------------
// Scatter / gather / masked copies.
// ---------------------------------------------------------------------------

/// Lanes where `old` and `new` differ in any bit of the vector.
#[inline]
pub fn changed_mask<const W: usize>(old: &[WideLanes<W>], new: &[WideLanes<W>]) -> LaneMask<W> {
    debug_assert_eq!(old.len(), new.len());
    let mut m = [0u64; W];
    for (o, n) in old.iter().zip(new) {
        mask_or_assign(&mut m, &o.diff(*n));
    }
    m
}

/// Copies `src` into `dst` only in the lanes of `mask`.
#[inline]
pub fn write_masked<const W: usize>(
    dst: &mut [WideLanes<W>],
    src: &[WideLanes<W>],
    mask: &LaneMask<W>,
) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d = WideLanes::select(mask, *s, *d);
    }
}

/// Writes the bits of `v` into lane `lane` of `dst` (`dst.len()` must be
/// `v.width()`).
#[inline]
pub fn scatter<const W: usize>(dst: &mut [WideLanes<W>], lane: u32, v: &Value) {
    debug_assert_eq!(dst.len(), v.width() as usize);
    debug_assert!((lane as usize) < 64 * W);
    let (a, b) = v.to_planes();
    let word = lane as usize / 64;
    let bit = 1u64 << (lane % 64);
    for (i, d) in dst.iter_mut().enumerate() {
        d.a[word] = (d.a[word] & !bit) | (u64::from((a >> i) & 1 == 1) * bit);
        d.b[word] = (d.b[word] & !bit) | (u64::from((b >> i) & 1 == 1) * bit);
    }
}

/// Reads lane `lane` of `src` back as a scalar [`Value`] of width
/// `src.len()`.
#[inline]
pub fn gather<const W: usize>(src: &[WideLanes<W>], lane: u32) -> Value {
    let (a, b) = gather_planes(src, lane);
    Value::from_planes(src.len() as u8, a, b)
}

/// Reads lane `lane` of `src` back as the two planes `(a, b)` of a
/// `src.len()`-bit value (see [`Value::to_planes`]), without building it.
#[inline]
pub fn gather_planes<const W: usize>(src: &[WideLanes<W>], lane: u32) -> (u64, u64) {
    debug_assert!((lane as usize) < 64 * W && src.len() <= 64);
    let word = lane as usize / 64;
    let shift = lane % 64;
    let mut a = 0u64;
    let mut b = 0u64;
    for (i, s) in src.iter().enumerate() {
        a |= ((s.a[word] >> shift) & 1) << i;
        b |= ((s.b[word] >> shift) & 1) << i;
    }
    (a, b)
}

/// Replicates `v` into all `64·W` lanes of `dst`.
#[inline]
pub fn broadcast<const W: usize>(dst: &mut [WideLanes<W>], v: &Value) {
    debug_assert_eq!(dst.len(), v.width() as usize);
    let (a, b) = v.to_planes();
    for (i, d) in dst.iter_mut().enumerate() {
        *d = WideLanes {
            a: [if (a >> i) & 1 == 1 { !0 } else { 0 }; W],
            b: [if (b >> i) & 1 == 1 { !0 } else { 0 }; W],
        };
    }
}

// ---------------------------------------------------------------------------
// Gate kernels. All gate inputs pass through the logic view first, exactly
// like `fold_logic` in the scalar evaluator: Z participates as X.
// ---------------------------------------------------------------------------

/// `out = src.to_logic()` — the first fold step and the `Buf` kernel.
#[inline]
pub fn load_logic<const W: usize>(out: &mut [WideLanes<W>], src: &[WideLanes<W>]) {
    debug_assert_eq!(out.len(), src.len());
    for (o, s) in out.iter_mut().zip(src) {
        *o = s.to_logic();
    }
}

/// `acc = acc AND src.to_logic()` (acc already a logic view).
#[inline]
pub fn fold_and<const W: usize>(acc: &mut [WideLanes<W>], src: &[WideLanes<W>]) {
    debug_assert_eq!(acc.len(), src.len());
    for (a, s) in acc.iter_mut().zip(src) {
        let s = s.to_logic();
        let zeros = join(a.k0(), s.k0(), |x, y| x | y);
        let ones = join(a.k1(), s.k1(), |x, y| x & y);
        *a = WideLanes::from_masks(zeros, ones);
    }
}

/// `acc = acc OR src.to_logic()` (acc already a logic view).
#[inline]
pub fn fold_or<const W: usize>(acc: &mut [WideLanes<W>], src: &[WideLanes<W>]) {
    debug_assert_eq!(acc.len(), src.len());
    for (a, s) in acc.iter_mut().zip(src) {
        let s = s.to_logic();
        let zeros = join(a.k0(), s.k0(), |x, y| x & y);
        let ones = join(a.k1(), s.k1(), |x, y| x | y);
        *a = WideLanes::from_masks(zeros, ones);
    }
}

/// `acc = acc XOR src.to_logic()` (acc already a logic view).
#[inline]
pub fn fold_xor<const W: usize>(acc: &mut [WideLanes<W>], src: &[WideLanes<W>]) {
    debug_assert_eq!(acc.len(), src.len());
    for (a, s) in acc.iter_mut().zip(src) {
        let s = s.to_logic();
        let mut zeros = [0u64; W];
        let mut ones = [0u64; W];
        for w in 0..W {
            let known = !a.b[w] & !s.b[w];
            ones[w] = (a.a[w] ^ s.a[w]) & known;
            zeros[w] = known & !ones[w];
        }
        *a = WideLanes::from_masks(zeros, ones);
    }
}

/// Four-state complement in place; mirrors [`Value::not`] per lane.
#[inline]
pub fn not_inplace<const W: usize>(v: &mut [WideLanes<W>]) {
    for l in v.iter_mut() {
        *l = WideLanes::from_masks(l.k1(), l.k0());
    }
}

#[inline(always)]
fn join<const W: usize>(
    x: LaneMask<W>,
    y: LaneMask<W>,
    f: impl Fn(u64, u64) -> u64,
) -> LaneMask<W> {
    let mut m = [0u64; W];
    for w in 0..W {
        m[w] = f(x[w], y[w]);
    }
    m
}

// ---------------------------------------------------------------------------
// Mux / sequential kernels. These mirror the corresponding arms of
// `evaluate` exactly, including the X-merge rules.
// ---------------------------------------------------------------------------

/// 2:1 mux: `sel == 0` picks `a` verbatim, `sel == 1` picks `b` verbatim;
/// unknown select passes the operands through only where they agree on the
/// whole vector, else `X`.
#[inline]
pub fn mux<const W: usize>(
    out: &mut [WideLanes<W>],
    sel: WideLanes<W>,
    a: &[WideLanes<W>],
    b: &[WideLanes<W>],
) {
    debug_assert!(out.len() == a.len() && a.len() == b.len());
    let sl = sel.to_logic();
    let s1 = sl.k1();
    let s0 = sl.k0();
    let sx = sl.b;
    // Lanes where the whole a and b vectors agree (bitwise, raw encoding).
    let eqv = changed_mask(a, b);
    for ((o, av), bv) in out.iter_mut().zip(a).zip(b) {
        for w in 0..W {
            let eq = !eqv[w];
            o.a[w] = (s0[w] & av.a[w]) | (s1[w] & bv.a[w]) | (sx[w] & ((eq & av.a[w]) | !eq));
            o.b[w] = (s0[w] & av.b[w]) | (s1[w] & bv.b[w]) | (sx[w] & ((eq & av.b[w]) | !eq));
        }
    }
}

/// Lanes where `(prev, now)` is a rising edge: previous clock a known 0
/// and current clock a known 1 — the raw-view rule of
/// [`Value::is_rising_edge`].
#[inline]
pub fn rising_mask<const W: usize>(prev: WideLanes<W>, now: WideLanes<W>) -> LaneMask<W> {
    mask_and(&prev.k0(), &now.k1())
}

/// D flip-flop step: captures `d` into `q` on rising-edge lanes and records
/// the clock. The caller copies `q` out afterwards.
#[inline]
pub fn dff<const W: usize>(
    q: &mut [WideLanes<W>],
    last_clk: &mut WideLanes<W>,
    clk: WideLanes<W>,
    d: &[WideLanes<W>],
) {
    debug_assert_eq!(q.len(), d.len());
    let edge = rising_mask(*last_clk, clk);
    for (qv, dv) in q.iter_mut().zip(d) {
        *qv = WideLanes::select(&edge, *dv, *qv);
    }
    *last_clk = clk;
}

/// D flip-flop with synchronous reset: a known-1 reset forces `q` to zero,
/// a rising edge with known-0 reset captures `d`, and an unknown reset
/// holds (no capture, no clear) — matching the `DffR` arm of `evaluate`.
#[inline]
pub fn dffr<const W: usize>(
    q: &mut [WideLanes<W>],
    last_clk: &mut WideLanes<W>,
    clk: WideLanes<W>,
    d: &[WideLanes<W>],
    rst: WideLanes<W>,
) {
    debug_assert_eq!(q.len(), d.len());
    let rl = rst.to_logic();
    let r1 = rl.k1();
    let edge = mask_and(&rising_mask(*last_clk, clk), &rl.k0());
    for (qv, dv) in q.iter_mut().zip(d) {
        *qv = WideLanes::select(&edge, *dv, *qv);
        for (w, &r) in r1.iter().enumerate() {
            qv.a[w] &= !r;
            qv.b[w] &= !r;
        }
    }
    *last_clk = clk;
}

/// Transparent latch step: known-1 enable is transparent, known-0 holds,
/// unknown enable holds only if `q` already equals `d` (else `q` poisons to
/// `X`), matching the `Latch` arm of `evaluate`.
#[inline]
pub fn latch<const W: usize>(q: &mut [WideLanes<W>], en: WideLanes<W>, d: &[WideLanes<W>]) {
    debug_assert_eq!(q.len(), d.len());
    let el = en.to_logic();
    let e1 = el.k1();
    let ex = el.b;
    let eqv = changed_mask(q, d);
    for (qv, dv) in q.iter_mut().zip(d) {
        for w in 0..W {
            let e0 = !(e1[w] | ex[w]);
            let eq = !eqv[w];
            qv.a[w] = (e1[w] & dv.a[w]) | (e0 & qv.a[w]) | (ex[w] & ((eq & qv.a[w]) | !eq));
            qv.b[w] = (e1[w] & dv.b[w]) | (e0 & qv.b[w]) | (ex[w] & ((eq & qv.b[w]) | !eq));
        }
    }
}

/// Tri-state buffer: known-1 enable passes `d` verbatim, known-0 releases
/// to `Z`, unknown enable outputs `X`.
#[inline]
pub fn tribuf<const W: usize>(out: &mut [WideLanes<W>], en: WideLanes<W>, d: &[WideLanes<W>]) {
    debug_assert_eq!(out.len(), d.len());
    let el = en.to_logic();
    let e1 = el.k1();
    let ex = el.b;
    for (o, dv) in out.iter_mut().zip(d) {
        for w in 0..W {
            let e0 = !(e1[w] | ex[w]);
            o.a[w] = (e1[w] & dv.a[w]) | ex[w];
            o.b[w] = (e1[w] & dv.b[w]) | e0 | ex[w];
        }
    }
}

// ---------------------------------------------------------------------------
// CPU probe. It selects no code path: the kernels above are the same on
// every host. It names the host.
// ---------------------------------------------------------------------------

/// The widest x86-64 vector extension the running CPU reports.
///
/// This selects no code path and no chunk width; every host runs the same
/// `[u64; W]` kernels on the same chunks. [`SimdLevel::name`] names the
/// host in benchmark fingerprints. Ordered: every level implies the ones
/// below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// No vector extension detected (or not x86-64).
    Scalar,
    /// SSE2, 128-bit vectors.
    Sse2,
    /// AVX2, 256-bit vectors.
    Avx2,
    /// AVX-512F, 512-bit vectors.
    Avx512,
}

impl SimdLevel {
    /// Short human/JSON-friendly name.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "u64",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// Detects (once, cached) the running CPU's [`SimdLevel`]. Selects no
/// code path.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect_simd_level)
}

fn detect_simd_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return SimdLevel::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        if is_x86_feature_detected!("sse2") {
            return SimdLevel::Sse2;
        }
    }
    SimdLevel::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, ElemState};
    use crate::kind::ElementKind;
    use crate::value::Bit;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const STATES: [Bit; 4] = [Bit::Zero, Bit::One, Bit::X, Bit::Z];

    fn rand_value(rng: &mut SmallRng, width: u8) -> Value {
        let bits: Vec<Bit> = (0..width).map(|_| STATES[rng.gen_range(0..4)]).collect();
        Value::from_bits(&bits)
    }

    fn bitv(b: Bit) -> Value {
        Value::from_bits(&[b])
    }

    /// Load, fold and (for the inverting gates) complement: the kernel
    /// sequence the batch engine runs for a two-input gate.
    fn gate<const W: usize>(
        kind: &ElementKind,
        xs: &[WideLanes<W>],
        ys: &[WideLanes<W>],
    ) -> Vec<WideLanes<W>> {
        let mut out = vec![WideLanes::<W>::ZERO; xs.len()];
        load_logic(&mut out, xs);
        match kind {
            ElementKind::And | ElementKind::Nand => fold_and(&mut out, ys),
            ElementKind::Or | ElementKind::Nor => fold_or(&mut out, ys),
            _ => fold_xor(&mut out, ys),
        }
        if matches!(
            kind,
            ElementKind::Nand | ElementKind::Nor | ElementKind::Xnor
        ) {
            not_inplace(&mut out);
        }
        out
    }

    /// `k` one-bit operands in which lane `l` carries state combination
    /// `l % 4^k`, so every combination repeats across every word of the
    /// group. Returns the operands and each lane's scalar inputs.
    fn every_state_combo<const W: usize>(k: u32) -> (Vec<WideLanes<W>>, Vec<Vec<Value>>) {
        let mut ops = vec![WideLanes::<W>::ZERO; k as usize];
        let mut lanes = Vec::new();
        for lane in 0..64 * W {
            let combo = lane % 4usize.pow(k);
            let vals: Vec<Value> = (0..k)
                .map(|i| bitv(STATES[combo / 4usize.pow(k - 1 - i) % 4]))
                .collect();
            for (i, op) in ops.iter_mut().enumerate() {
                scatter(std::slice::from_mut(op), lane as u32, &vals[i]);
            }
            lanes.push(vals);
        }
        (ops, lanes)
    }

    fn check_gates_every_state_pair<const W: usize>() {
        let (ops, lanes) = every_state_combo::<W>(2);
        for kind in [
            ElementKind::And,
            ElementKind::Nand,
            ElementKind::Or,
            ElementKind::Nor,
            ElementKind::Xor,
            ElementKind::Xnor,
        ] {
            let out = gate(&kind, &ops[..1], &ops[1..]);
            for (lane, xy) in lanes.iter().enumerate() {
                let expect = evaluate(&kind, xy, &mut ElemState::None).get(0);
                assert_eq!(
                    gather(&out, lane as u32),
                    expect,
                    "{kind:?} W={W} lane {lane} ({} op {})",
                    xy[0],
                    xy[1]
                );
            }
        }
    }

    #[test]
    fn gates_match_scalar_for_every_state_pair() {
        check_gates_every_state_pair::<1>();
        check_gates_every_state_pair::<8>();
    }

    fn check_unary_every_state<const W: usize>() {
        let (src, lanes) = every_state_combo::<W>(1);
        for kind in [ElementKind::Not, ElementKind::Buf] {
            let mut out = [WideLanes::<W>::ZERO; 1];
            load_logic(&mut out, &src);
            if kind == ElementKind::Not {
                not_inplace(&mut out);
            }
            for (lane, x) in lanes.iter().enumerate() {
                let expect = evaluate(&kind, x, &mut ElemState::None).get(0);
                assert_eq!(
                    gather(&out, lane as u32),
                    expect,
                    "{kind:?} W={W} on {}",
                    x[0]
                );
            }
        }
    }

    #[test]
    fn unary_gates_match_scalar_for_every_state() {
        check_unary_every_state::<1>();
        check_unary_every_state::<8>();
    }

    /// Every (select, a, b) state triple, so the X and Z select arms and
    /// both of their agree/disagree cases are all hit; and every
    /// (enable, d) pair of the tri-state buffer.
    fn check_mux_tribuf_every_state<const W: usize>() {
        let (ops, lanes) = every_state_combo::<W>(3);
        let mut out = [WideLanes::<W>::ZERO; 1];
        mux(&mut out, ops[0], &ops[1..2], &ops[2..]);
        let mk = ElementKind::Mux { width: 1 };
        for (lane, sab) in lanes.iter().enumerate() {
            let expect = evaluate(&mk, sab, &mut ElemState::None).get(0);
            assert_eq!(
                gather(&out, lane as u32),
                expect,
                "mux W={W} sel {} a {} b {}",
                sab[0],
                sab[1],
                sab[2]
            );
        }
        let (ops, lanes) = every_state_combo::<W>(2);
        tribuf(&mut out, ops[0], &ops[1..]);
        let tk = ElementKind::TriBuf { width: 1 };
        for (lane, ed) in lanes.iter().enumerate() {
            let expect = evaluate(&tk, ed, &mut ElemState::None).get(0);
            assert_eq!(
                gather(&out, lane as u32),
                expect,
                "tribuf W={W} en {} d {}",
                ed[0],
                ed[1]
            );
        }
    }

    #[test]
    fn mux_and_tribuf_match_scalar_for_every_state() {
        check_mux_tribuf_every_state::<1>();
        check_mux_tribuf_every_state::<8>();
    }

    /// Random multi-bit stimulus in every lane, checked against the scalar
    /// evaluator lane by lane.
    fn check_gate_all_lanes<const W: usize>(kind: ElementKind, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let w = 5usize;
        let mut xs = vec![WideLanes::<W>::ZERO; w];
        let mut ys = vec![WideLanes::<W>::ZERO; w];
        let mut scalar = Vec::new();
        for lane in 0..(64 * W) as u32 {
            let x = rand_value(&mut rng, w as u8);
            let y = rand_value(&mut rng, w as u8);
            scatter(&mut xs, lane, &x);
            scatter(&mut ys, lane, &y);
            scalar.push((x, y));
        }
        let out = gate(&kind, &xs, &ys);
        for (lane, (x, y)) in scalar.iter().enumerate() {
            let expect = evaluate(&kind, &[*x, *y], &mut ElemState::None).get(0);
            assert_eq!(
                gather(&out, lane as u32),
                expect,
                "{kind:?} W={W} lane {lane}"
            );
        }
    }

    #[test]
    fn gates_match_scalar_at_every_width() {
        for kind in [
            ElementKind::And,
            ElementKind::Nand,
            ElementKind::Or,
            ElementKind::Nor,
            ElementKind::Xor,
            ElementKind::Xnor,
        ] {
            check_gate_all_lanes::<1>(kind.clone(), 7);
            check_gate_all_lanes::<2>(kind.clone(), 11);
            check_gate_all_lanes::<4>(kind.clone(), 13);
            check_gate_all_lanes::<8>(kind, 17);
        }
    }

    /// 200 steps of random clock, reset and data in every lane through
    /// the dff, dffr and latch kernels, checked against one scalar
    /// evaluator state per lane after every step.
    fn check_seq_all_lanes<const W: usize>(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let w = 3usize;
        let lanes = 64 * W;
        for kind in [
            ElementKind::Dff { width: w as u8 },
            ElementKind::DffR { width: w as u8 },
            ElementKind::Latch { width: w as u8 },
        ] {
            let mut q = vec![WideLanes::<W>::X; w];
            let mut last_clk = WideLanes::<W>::X;
            let mut states: Vec<ElemState> =
                (0..lanes).map(|_| ElemState::init(&kind)).collect();
            for _step in 0..200 {
                let mut clks = [WideLanes::<W>::ZERO; 1];
                let mut rsts = [WideLanes::<W>::ZERO; 1];
                let mut ds = vec![WideLanes::<W>::ZERO; w];
                let mut scalar = Vec::new();
                for lane in 0..lanes as u32 {
                    let c = bitv(STATES[rng.gen_range(0..4)]);
                    let r = bitv(STATES[rng.gen_range(0..4)]);
                    let d = rand_value(&mut rng, w as u8);
                    scatter(&mut clks, lane, &c);
                    scatter(&mut rsts, lane, &r);
                    scatter(&mut ds, lane, &d);
                    scalar.push((c, d, r));
                }
                match kind {
                    ElementKind::Dff { .. } => dff(&mut q, &mut last_clk, clks[0], &ds),
                    ElementKind::DffR { .. } => {
                        dffr(&mut q, &mut last_clk, clks[0], &ds, rsts[0])
                    }
                    _ => latch(&mut q, clks[0], &ds),
                }
                for (lane, (c, d, r)) in scalar.iter().enumerate() {
                    let inputs: Vec<Value> = match kind {
                        ElementKind::DffR { .. } => vec![*c, *d, *r],
                        _ => vec![*c, *d],
                    };
                    let expect = evaluate(&kind, &inputs, &mut states[lane]).get(0);
                    assert_eq!(
                        gather(&q, lane as u32),
                        expect,
                        "{kind:?} W={W} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn sequential_kernels_match_scalar_at_every_width() {
        check_seq_all_lanes::<1>(19);
        check_seq_all_lanes::<2>(23);
        check_seq_all_lanes::<4>(29);
        check_seq_all_lanes::<8>(31);
    }

    fn check_mux_tribuf<const W: usize>(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let w = 4usize;
        let lanes = 64 * W;
        for _ in 0..20 {
            let mut sels = [WideLanes::<W>::ZERO; 1];
            let mut avs = vec![WideLanes::<W>::ZERO; w];
            let mut bvs = vec![WideLanes::<W>::ZERO; w];
            let mut scalar = Vec::new();
            for lane in 0..lanes as u32 {
                let s = bitv(STATES[rng.gen_range(0..4)]);
                let a = rand_value(&mut rng, w as u8);
                let b = if rng.gen_bool(0.4) {
                    a
                } else {
                    rand_value(&mut rng, w as u8)
                };
                scatter(&mut sels, lane, &s);
                scatter(&mut avs, lane, &a);
                scatter(&mut bvs, lane, &b);
                scalar.push((s, a, b));
            }
            let mut out = vec![WideLanes::<W>::ZERO; w];
            mux(&mut out, sels[0], &avs, &bvs);
            let mk = ElementKind::Mux { width: w as u8 };
            for (lane, (s, a, b)) in scalar.iter().enumerate() {
                let expect = evaluate(&mk, &[*s, *a, *b], &mut ElemState::None).get(0);
                assert_eq!(gather(&out, lane as u32), expect, "mux W={W} lane {lane}");
            }
            let mut tout = vec![WideLanes::<W>::ZERO; w];
            tribuf(&mut tout, sels[0], &avs);
            let tk = ElementKind::TriBuf { width: w as u8 };
            for (lane, (s, a, _)) in scalar.iter().enumerate() {
                let expect = evaluate(&tk, &[*s, *a], &mut ElemState::None).get(0);
                assert_eq!(
                    gather(&tout, lane as u32),
                    expect,
                    "tribuf W={W} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn mux_and_tribuf_match_scalar_at_every_width() {
        check_mux_tribuf::<1>(37);
        check_mux_tribuf::<2>(41);
        check_mux_tribuf::<4>(43);
        check_mux_tribuf::<8>(47);
    }

    fn check_scatter_gather<const W: usize>() {
        let mut rng = SmallRng::seed_from_u64(53);
        let mut arr = vec![WideLanes::<W>::X; 5];
        let mut vals = Vec::new();
        for lane in 0..(64 * W) as u32 {
            let v = rand_value(&mut rng, 5);
            scatter(&mut arr, lane, &v);
            vals.push(v);
        }
        for (lane, v) in vals.iter().enumerate() {
            assert_eq!(gather(&arr, lane as u32), *v, "W={W} lane {lane}");
        }
        let mut all = vec![WideLanes::<W>::ZERO; 5];
        let v = rand_value(&mut rng, 5);
        broadcast(&mut all, &v);
        for lane in 0..(64 * W) as u32 {
            assert_eq!(gather(&all, lane), v);
        }
    }

    #[test]
    fn scatter_gather_round_trips_at_every_width() {
        check_scatter_gather::<1>();
        check_scatter_gather::<2>();
        check_scatter_gather::<4>();
        check_scatter_gather::<8>();
    }

    #[test]
    fn mask_helpers() {
        assert_eq!(mask_first::<2>(0), [0, 0]);
        assert_eq!(mask_first::<2>(1), [1, 0]);
        assert_eq!(mask_first::<2>(64), [!0, 0]);
        assert_eq!(mask_first::<2>(65), [!0, 1]);
        assert_eq!(mask_first::<2>(128), [!0, !0]);
        assert_eq!(mask_first::<4>(63), [(1u64 << 63) - 1, 0, 0, 0]);
        assert_eq!(mask_count(&mask_first::<8>(513 - 512)), 1);
        assert_eq!(mask_lane::<2>(70), [0, 1 << 6]);
        assert!(mask_any(&mask_lane::<4>(255)));
        assert!(!mask_any(&mask_none::<4>()));
        assert_eq!(mask_count(&mask_all::<8>()), 512);
        let mut seen = Vec::new();
        for_each_lane(&mask_lane::<2>(70), |l| seen.push(l));
        for_each_lane(&mask_lane::<2>(3), |l| seen.push(l));
        assert_eq!(seen, vec![70, 3]);
    }

    #[test]
    fn changed_and_write_masked() {
        let mut a = vec![WideLanes::<2>::ZERO; 2];
        let mut b = vec![WideLanes::<2>::ZERO; 2];
        let v = Value::from_bits(&[Bit::One, Bit::Zero]);
        scatter(&mut a, 100, &v);
        assert_eq!(changed_mask(&a, &b), mask_lane::<2>(100));
        write_masked(&mut b, &a, &mask_lane::<2>(100));
        assert_eq!(changed_mask(&a, &b), mask_none::<2>());
        // Writes outside the mask must not leak.
        let snapshot = b.clone();
        let mut src = vec![WideLanes::<2>::ONE; 2];
        scatter(&mut src, 100, &Value::from_bits(&[Bit::Zero, Bit::Zero]));
        write_masked(&mut b, &src, &mask_lane::<2>(5));
        assert_eq!(gather(&b, 100), gather(&snapshot, 100));
        assert_eq!(gather(&b, 5), gather(&src, 5));
    }

    #[test]
    fn simd_level_is_consistent() {
        let level = simd_level();
        assert!(!level.name().is_empty());
        // Cached: a second call returns the same tier.
        assert_eq!(simd_level(), level);
    }
}
