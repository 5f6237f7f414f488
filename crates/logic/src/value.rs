//! Four-state logic vectors.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A single four-state logic bit.
///
/// # Examples
///
/// ```
/// use parsim_logic::Bit;
///
/// assert_eq!(Bit::from(true), Bit::One);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bit {
    /// Strong logic low.
    Zero,
    /// Strong logic high.
    One,
    /// Unknown.
    X,
    /// High impedance.
    Z,
}

impl From<bool> for Bit {
    fn from(b: bool) -> Bit {
        if b {
            Bit::One
        } else {
            Bit::Zero
        }
    }
}

impl fmt::Display for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Bit::Zero => '0',
            Bit::One => '1',
            Bit::X => 'x',
            Bit::Z => 'z',
        };
        write!(f, "{c}")
    }
}

/// A four-state logic vector of 1 to 64 bits.
///
/// Uses the classic two-plane encoding: for each bit position the pair of
/// planes `(a, b)` encodes `0 = (0,0)`, `1 = (1,0)`, `Z = (0,1)`,
/// `X = (1,1)`. All boolean operations implement conservative four-state
/// semantics (a controlling value dominates an `X`; `Z` inputs are treated
/// as `X`), and arithmetic returns all-`X` whenever any input bit is
/// unknown, matching conventional gate/RTL-level simulator behavior.
///
/// Bits above `width` are always zero in both planes (a maintained
/// invariant all operations rely on).
///
/// # Examples
///
/// ```
/// use parsim_logic::Value;
///
/// let a = Value::from_u64(0b1100, 4);
/// let b = Value::from_u64(0b1010, 4);
/// assert_eq!(a.and(&b), Value::from_u64(0b1000, 4));
/// assert_eq!(a.and(&Value::x(4)).bit_at(3), parsim_logic::Bit::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Value {
    /// The width in bits, `1..=64`, held in a whole word: a `u8` here
    /// would leave seven bytes of padding, which every copy of a value
    /// moves too, in pieces that stall the loads that follow them.
    width: u64,
    /// Plane a: set for `1` and `X` bits.
    a: u64,
    /// Plane b: set for `Z` and `X` bits.
    b: u64,
}

impl Value {
    /// Creates an all-zeros value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn zero(width: u8) -> Value {
        assert_width(width);
        Value { width: width as u64, a: 0, b: 0 }
    }

    /// Creates an all-ones value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn ones(width: u8) -> Value {
        assert_width(width);
        Value {
            width: width as u64,
            a: mask(width),
            b: 0,
        }
    }

    /// Creates an all-`X` (unknown) value of the given width.
    ///
    /// Every node starts at `X` at time zero, exactly as in the paper's
    /// example where node 4 "is only known to be X at time 0".
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    #[inline]
    pub fn x(width: u8) -> Value {
        assert_width(width);
        let m = mask(width);
        Value { width: width as u64, a: m, b: m }
    }

    /// Creates an all-`Z` (high impedance) value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn z(width: u8) -> Value {
        assert_width(width);
        Value {
            width: width as u64,
            a: 0,
            b: mask(width),
        }
    }

    /// Creates a fully known value from the low `width` bits of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn from_u64(v: u64, width: u8) -> Value {
        assert_width(width);
        Value {
            width: width as u64,
            a: v & mask(width),
            b: 0,
        }
    }

    /// Creates a single known bit.
    pub fn bit(b: bool) -> Value {
        Value::from_u64(b as u64, 1)
    }

    /// Creates a value from a slice of bits, index 0 being the LSB.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty or longer than 64.
    pub fn from_bits(bits: &[Bit]) -> Value {
        assert!(!bits.is_empty() && bits.len() <= 64, "1..=64 bits required");
        let mut a = 0u64;
        let mut b = 0u64;
        for (i, bit) in bits.iter().enumerate() {
            let (pa, pb) = match bit {
                Bit::Zero => (0, 0),
                Bit::One => (1, 0),
                Bit::Z => (0, 1),
                Bit::X => (1, 1),
            };
            a |= pa << i;
            b |= pb << i;
        }
        Value {
            width: bits.len() as u64,
            a,
            b,
        }
    }

    /// The width in bits (1..=64).
    #[inline]
    pub fn width(&self) -> u8 {
        self.width as u8
    }

    /// Returns the bit at `index` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn bit_at(&self, index: u8) -> Bit {
        assert!(index < self.width(), "bit index out of range");
        match ((self.a >> index) & 1, (self.b >> index) & 1) {
            (0, 0) => Bit::Zero,
            (1, 0) => Bit::One,
            (0, 1) => Bit::Z,
            _ => Bit::X,
        }
    }

    /// True if every bit is a strong `0` or `1`.
    #[inline]
    pub fn is_fully_known(&self) -> bool {
        self.b == 0
    }

    /// True if any bit is `X` or `Z`.
    #[inline]
    pub fn has_unknown(&self) -> bool {
        self.b != 0
    }

    /// The numeric value, if fully known.
    #[inline]
    pub fn to_u64(&self) -> Option<u64> {
        if self.is_fully_known() {
            Some(self.a)
        } else {
            None
        }
    }

    /// Decomposes the value into its two encoding planes `(a, b)`.
    ///
    /// Plane `a` is set for `1` and `X` bits, plane `b` for `Z` and `X`
    /// bits. Together with [`Value::from_planes`] this is the bridge
    /// between scalar values and the word-parallel bit-plane kernels in
    /// [`wide`](crate::wide).
    #[inline]
    pub fn to_planes(&self) -> (u64, u64) {
        (self.a, self.b)
    }

    /// Reassembles a value from its two encoding planes (see
    /// [`Value::to_planes`]). Bits above `width` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    #[inline]
    pub fn from_planes(width: u8, a: u64, b: u64) -> Value {
        assert_width(width);
        let m = mask(width);
        Value {
            width: width as u64,
            a: a & m,
            b: b & m,
        }
    }

    /// Treats `Z` bits as `X`, producing a pure-logic view.
    ///
    /// Gate inputs cannot distinguish a floating wire from an unknown one.
    #[inline]
    pub fn to_logic(&self) -> Value {
        Value {
            width: self.width,
            a: self.a | self.b,
            b: self.b,
        }
    }

    /// Mask of known bit positions (strong 0 or 1).
    #[inline]
    fn known(&self) -> u64 {
        mask(self.width()) & !self.b
    }

    /// Mask of known-one positions.
    #[inline]
    fn k1(&self) -> u64 {
        self.a & !self.b
    }

    /// Mask of known-zero positions.
    #[inline]
    fn k0(&self) -> u64 {
        self.known() & !self.a
    }

    /// Bitwise four-state AND.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[inline]
    pub fn and(&self, rhs: &Value) -> Value {
        self.check_width(rhs);
        let zeros = self.k0() | rhs.k0();
        let ones = self.k1() & rhs.k1();
        Value::from_masks(self.width(), zeros, ones)
    }

    /// Bitwise four-state OR.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[inline]
    pub fn or(&self, rhs: &Value) -> Value {
        self.check_width(rhs);
        let ones = self.k1() | rhs.k1();
        let zeros = self.k0() & rhs.k0();
        Value::from_masks(self.width(), zeros, ones)
    }

    /// Bitwise four-state XOR (unknown if either side is unknown).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[inline]
    pub fn xor(&self, rhs: &Value) -> Value {
        self.check_width(rhs);
        let known = self.known() & rhs.known();
        let v = (self.a ^ rhs.a) & known;
        let ones = v;
        let zeros = known & !v;
        Value::from_masks(self.width(), zeros, ones)
    }

    /// Bitwise four-state NOT (`X`/`Z` stay unknown).
    #[inline]
    pub fn not(&self) -> Value {
        let ones = self.k0();
        let zeros = self.k1();
        Value::from_masks(self.width(), zeros, ones)
    }

    #[inline]
    fn from_masks(width: u8, zeros: u64, ones: u64) -> Value {
        let m = mask(width);
        let unknown = m & !(zeros | ones);
        Value {
            width: width as u64,
            a: (ones | unknown) & m,
            b: unknown,
        }
    }

    /// AND-reduction to a single bit.
    pub fn reduce_and(&self) -> Value {
        if self.k0() != 0 {
            Value::bit(false)
        } else if self.k1() == mask(self.width()) {
            Value::bit(true)
        } else {
            Value::x(1)
        }
    }

    /// OR-reduction to a single bit.
    pub fn reduce_or(&self) -> Value {
        if self.k1() != 0 {
            Value::bit(true)
        } else if self.k0() == mask(self.width()) {
            Value::bit(false)
        } else {
            Value::x(1)
        }
    }

    /// XOR-reduction to a single bit (`X` if any bit unknown).
    pub fn reduce_xor(&self) -> Value {
        if self.is_fully_known() {
            Value::bit(self.a.count_ones() % 2 == 1)
        } else {
            Value::x(1)
        }
    }

    /// Wrapping addition; all-`X` if either operand has unknown bits.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn add(&self, rhs: &Value) -> Value {
        self.check_width(rhs);
        match (self.to_u64(), rhs.to_u64()) {
            (Some(x), Some(y)) => Value::from_u64(x.wrapping_add(y), self.width()),
            _ => Value::x(self.width()),
        }
    }

    /// Addition with carry-in, returning `(sum, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ or `cin` is not 1 bit wide.
    pub fn add_carry(&self, rhs: &Value, cin: &Value) -> (Value, Value) {
        self.check_width(rhs);
        assert_eq!(cin.width(), 1, "carry-in must be a single bit");
        match (self.to_u64(), rhs.to_u64(), cin.to_u64()) {
            (Some(x), Some(y), Some(c)) => {
                let wide = (x as u128) + (y as u128) + (c as u128);
                let sum = (wide as u64) & mask(self.width());
                let carry = (wide >> self.width()) & 1;
                (
                    Value::from_u64(sum, self.width()),
                    Value::from_u64(carry as u64, 1),
                )
            }
            _ => (Value::x(self.width()), Value::x(1)),
        }
    }

    /// Wrapping subtraction; all-`X` if either operand has unknown bits.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn sub(&self, rhs: &Value) -> Value {
        self.check_width(rhs);
        match (self.to_u64(), rhs.to_u64()) {
            (Some(x), Some(y)) => Value::from_u64(x.wrapping_sub(y), self.width()),
            _ => Value::x(self.width()),
        }
    }

    /// Multiplication producing a `out_width`-bit product (wrapping).
    ///
    /// All-`X` if either operand has unknown bits.
    ///
    /// # Panics
    ///
    /// Panics if `out_width` is 0 or greater than 64.
    pub fn mul(&self, rhs: &Value, out_width: u8) -> Value {
        assert_width(out_width);
        match (self.to_u64(), rhs.to_u64()) {
            (Some(x), Some(y)) => Value::from_u64(x.wrapping_mul(y), out_width),
            _ => Value::x(out_width),
        }
    }

    /// Four-state equality comparison, returning a single bit.
    ///
    /// Known-unequal pairs force `0`; fully known equal vectors give `1`;
    /// anything else is `X`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn logic_eq(&self, rhs: &Value) -> Value {
        self.check_width(rhs);
        // A definitely-unequal bit: known in both and different.
        let both_known = self.known() & rhs.known();
        if (self.a ^ rhs.a) & both_known != 0 {
            Value::bit(false)
        } else if both_known == mask(self.width()) {
            Value::bit(true)
        } else {
            Value::x(1)
        }
    }

    /// Unsigned less-than comparison, returning a single bit (`X` if either
    /// operand has unknown bits).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn logic_lt(&self, rhs: &Value) -> Value {
        self.check_width(rhs);
        match (self.to_u64(), rhs.to_u64()) {
            (Some(x), Some(y)) => Value::bit(x < y),
            _ => Value::x(1),
        }
    }

    /// Resolves two driver contributions on a shared bus, per bit:
    /// `Z` yields to any driven value, agreeing drivers keep their value,
    /// conflicting strong drivers (`0` vs `1`) produce `X`, and `X`
    /// contaminates everything except a pure `Z`.
    ///
    /// This is the standard wired-bus resolution table; the
    /// [`Resolver`](crate::ElementKind::Resolver) element folds it over
    /// all bus drivers.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use parsim_logic::Value;
    ///
    /// let driven = Value::from_u64(0b10, 2);
    /// let idle = Value::z(2);
    /// assert_eq!(driven.resolve(&idle), driven);
    /// assert_eq!(idle.resolve(&idle), idle);
    /// // Conflicting strong drivers short to X.
    /// assert_eq!(
    ///     Value::bit(true).resolve(&Value::bit(false)),
    ///     Value::x(1)
    /// );
    /// ```
    pub fn resolve(&self, rhs: &Value) -> Value {
        self.check_width(rhs);
        // Allocation-free plane arithmetic: a released (Z) driver yields to
        // the other side, agreeing strong drivers pass through, and every
        // other combination (X on either side, 0-vs-1 conflict) shorts to X.
        let m = mask(self.width());
        let (z1, z2) = (!self.a & self.b, !rhs.a & rhs.b);
        let (k1a, k1b) = (self.a & !self.b, rhs.a & !rhs.b);
        let (k0a, k0b) = (!self.a & !self.b & m, !rhs.a & !rhs.b & m);
        let ones = (k1a & (k1b | z2)) | (k1b & z1);
        let zeros = (k0a & (k0b | z2)) | (k0b & z1);
        let z_out = z1 & z2;
        let x_out = m & !(ones | zeros | z_out);
        Value {
            width: self.width,
            a: ones | x_out,
            b: z_out | x_out,
        }
    }

    /// Concatenates `high` above `self` (`self` stays the LSBs).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 64.
    pub fn concat(&self, high: &Value) -> Value {
        let w = self.width() as u16 + high.width() as u16;
        assert!(w <= 64, "concatenated width exceeds 64");
        Value {
            width: w as u64,
            a: self.a | (high.a << self.width()),
            b: self.b | (high.b << self.width()),
        }
    }

    /// Extracts bits `[lo, lo+width)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `self.width()` or `width` is 0.
    pub fn slice(&self, lo: u8, width: u8) -> Value {
        assert_width(width);
        assert!(
            lo as u16 + width as u16 <= self.width() as u16,
            "slice out of range"
        );
        Value {
            width: width as u64,
            a: (self.a >> lo) & mask(width),
            b: (self.b >> lo) & mask(width),
        }
    }

    /// A 2:1 multiplexer: `a` when `sel` (read as logic, `Z` as `X`) is
    /// 0, `b` when it is known non-zero, and when it is unknown `a` if the
    /// two data inputs agree, all-`X` otherwise.
    ///
    /// # Examples
    ///
    /// ```
    /// use parsim_logic::Value;
    ///
    /// let (a, b) = (Value::from_u64(3, 4), Value::from_u64(5, 4));
    /// assert_eq!(Value::mux(&Value::bit(false), &a, &b), a);
    /// assert_eq!(Value::mux(&Value::bit(true), &a, &b), b);
    /// assert_eq!(Value::mux(&Value::z(1), &a, &a), a);
    /// assert_eq!(Value::mux(&Value::x(1), &a, &b), Value::x(4));
    /// ```
    #[inline]
    pub fn mux(sel: &Value, a: &Value, b: &Value) -> Value {
        match sel.to_logic().to_u64() {
            Some(0) => *a,
            Some(_) => *b,
            None if a == b => *a,
            None => Value::x(a.width()),
        }
    }

    /// True if this value represents a rising edge seen against `prev`
    /// (previous value known 0 or unknown treated as no edge unless 0→1).
    ///
    /// Only meaningful for single-bit values.
    pub fn is_rising_edge(prev: &Value, now: &Value) -> bool {
        prev.to_u64() == Some(0) && now.to_u64() == Some(1)
    }

    /// Renders as a binary string, MSB first (e.g. `10x1`), for VCD export.
    pub fn to_binary_string(&self) -> String {
        (0..self.width())
            .rev()
            .map(|i| match self.bit_at(i) {
                Bit::Zero => '0',
                Bit::One => '1',
                Bit::X => 'x',
                Bit::Z => 'z',
            })
            .collect()
    }

    #[inline]
    fn check_width(&self, rhs: &Value) {
        assert_eq!(
            self.width(), rhs.width(),
            "operand width mismatch: {} vs {}",
            self.width(), rhs.width()
        );
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b{}", self.width(), self.to_binary_string())
    }
}

/// Error returned when parsing a [`Value`] from text fails.
///
/// # Examples
///
/// ```
/// use parsim_logic::Value;
///
/// assert!("4'bq111".parse::<Value>().is_err());
/// assert_eq!("4'b1010".parse::<Value>().ok(), Some(Value::from_u64(10, 4)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseValueError {
    msg: String,
}

impl fmt::Display for ParseValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid logic value literal: {}", self.msg)
    }
}

impl Error for ParseValueError {}

impl FromStr for Value {
    type Err = ParseValueError;

    /// Parses `<width>'b<bits>`, `<width>'d<decimal>`, `<width>'h<hex>`, or
    /// the bare literals `0` and `1`.
    fn from_str(s: &str) -> Result<Value, ParseValueError> {
        let err = |msg: &str| ParseValueError {
            msg: format!("{msg} in `{s}`"),
        };
        match s {
            "0" => return Ok(Value::bit(false)),
            "1" => return Ok(Value::bit(true)),
            _ => {}
        }
        let (w, rest) = s.split_once('\'').ok_or_else(|| err("missing '"))?;
        let width: u8 = w.parse().map_err(|_| err("bad width"))?;
        if width == 0 || width > 64 {
            return Err(err("width must be 1..=64"));
        }
        // Not `split_at(1)`: `rest` may be empty or start mid-character.
        let (base, digits) = rest.split_at(rest.chars().next().map_or(0, char::len_utf8));
        match base {
            "b" => {
                if digits.is_empty() || digits.len() > width as usize {
                    return Err(err("bad binary digit count"));
                }
                // Straight into the two planes, as `from_bits` encodes
                // them; the digit count bounds the shifts below 64.
                let (mut a, mut b) = (0u64, 0u64);
                for (i, c) in digits.chars().rev().enumerate() {
                    let (pa, pb) = match c {
                        '0' => (0, 0),
                        '1' => (1, 0),
                        'x' | 'X' => (1, 1),
                        'z' | 'Z' => (0, 1),
                        _ => return Err(err("bad binary digit")),
                    };
                    a |= pa << i;
                    b |= pb << i;
                }
                Ok(Value { width: width as u64, a, b })
            }
            "d" => {
                let v: u64 = digits.parse().map_err(|_| err("bad decimal"))?;
                if width < 64 && v > mask(width) {
                    return Err(err("decimal does not fit width"));
                }
                Ok(Value::from_u64(v, width))
            }
            "h" => {
                let v = u64::from_str_radix(digits, 16).map_err(|_| err("bad hex"))?;
                if width < 64 && v > mask(width) {
                    return Err(err("hex does not fit width"));
                }
                Ok(Value::from_u64(v, width))
            }
            _ => Err(err("unknown base")),
        }
    }
}

#[inline]
fn mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[inline]
fn assert_width(width: u8) {
    assert!((1..=64).contains(&width), "width must be 1..=64");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let v = Value::from_u64(0b101, 3);
        assert_eq!(v.width(), 3);
        assert_eq!(v.bit_at(0), Bit::One);
        assert_eq!(v.bit_at(1), Bit::Zero);
        assert_eq!(v.bit_at(2), Bit::One);
        assert_eq!(v.to_u64(), Some(5));
        assert!(v.is_fully_known());
    }

    #[test]
    fn x_and_z_states() {
        let x = Value::x(4);
        let z = Value::z(4);
        assert!(x.has_unknown());
        assert_eq!(x.bit_at(2), Bit::X);
        assert_eq!(z.bit_at(0), Bit::Z);
        assert_eq!(z.to_logic().bit_at(0), Bit::X);
        assert_eq!(x.to_u64(), None);
    }

    #[test]
    fn and_controlling_zero_dominates_x() {
        let zero = Value::zero(1);
        let x = Value::x(1);
        assert_eq!(zero.and(&x), Value::bit(false));
        assert_eq!(x.and(&zero), Value::bit(false));
        assert_eq!(Value::bit(true).and(&x), Value::x(1));
    }

    #[test]
    fn or_controlling_one_dominates_x() {
        let one = Value::ones(1);
        let x = Value::x(1);
        assert_eq!(one.or(&x), Value::bit(true));
        assert_eq!(Value::bit(false).or(&x), Value::x(1));
    }

    #[test]
    fn xor_propagates_unknown() {
        let x = Value::x(1);
        assert_eq!(Value::bit(true).xor(&x), Value::x(1));
        assert_eq!(Value::bit(true).xor(&Value::bit(true)), Value::bit(false));
    }

    #[test]
    fn not_inverts_known_only() {
        assert_eq!(Value::from_u64(0b10, 2).not(), Value::from_u64(0b01, 2));
        assert_eq!(Value::x(2).not(), Value::x(2));
    }

    #[test]
    fn z_treated_as_x_by_gates() {
        let z = Value::z(1).to_logic();
        assert_eq!(Value::bit(false).and(&z), Value::bit(false));
        assert_eq!(Value::bit(true).and(&z), Value::x(1));
    }

    #[test]
    fn reductions() {
        assert_eq!(Value::from_u64(0b111, 3).reduce_and(), Value::bit(true));
        assert_eq!(Value::from_u64(0b110, 3).reduce_and(), Value::bit(false));
        assert_eq!(Value::from_u64(0, 3).reduce_or(), Value::bit(false));
        assert_eq!(Value::from_u64(0b100, 3).reduce_or(), Value::bit(true));
        assert_eq!(Value::from_u64(0b101, 3).reduce_xor(), Value::bit(false));
        assert_eq!(Value::x(3).reduce_xor(), Value::x(1));
        // Controlling bits decide reductions even with X present.
        let with_x = Value::from_bits(&[Bit::Zero, Bit::X, Bit::X]);
        assert_eq!(with_x.reduce_and(), Value::bit(false));
        let with_x1 = Value::from_bits(&[Bit::One, Bit::X, Bit::X]);
        assert_eq!(with_x1.reduce_or(), Value::bit(true));
    }

    #[test]
    fn arithmetic_known() {
        let a = Value::from_u64(200, 8);
        let b = Value::from_u64(100, 8);
        assert_eq!(a.add(&b).to_u64(), Some(44)); // wraps mod 256
        assert_eq!(a.sub(&b).to_u64(), Some(100));
        let (sum, cout) = a.add_carry(&b, &Value::bit(false));
        assert_eq!(sum.to_u64(), Some(44));
        assert_eq!(cout.to_u64(), Some(1));
        assert_eq!(
            Value::from_u64(7, 3).mul(&Value::from_u64(6, 3), 6).to_u64(),
            Some(42)
        );
    }

    #[test]
    fn arithmetic_unknown_poisons() {
        let a = Value::x(8);
        let b = Value::from_u64(1, 8);
        assert_eq!(a.add(&b), Value::x(8));
        assert_eq!(b.mul(&a, 16), Value::x(16));
    }

    #[test]
    fn comparisons() {
        let a = Value::from_u64(3, 4);
        let b = Value::from_u64(5, 4);
        assert_eq!(a.logic_eq(&b), Value::bit(false));
        assert_eq!(a.logic_eq(&a), Value::bit(true));
        assert_eq!(a.logic_lt(&b), Value::bit(true));
        // Known-different bit forces inequality even with X elsewhere.
        let half_x = Value::from_bits(&[Bit::Zero, Bit::X, Bit::Zero, Bit::Zero]);
        let one = Value::from_u64(1, 4);
        assert_eq!(half_x.logic_eq(&one), Value::bit(false));
        // Fully compatible but unknown: X.
        let x = Value::x(4);
        assert_eq!(x.logic_eq(&one), Value::x(1));
    }

    #[test]
    fn concat_and_slice() {
        let lo = Value::from_u64(0b01, 2);
        let hi = Value::from_u64(0b11, 2);
        let v = lo.concat(&hi);
        assert_eq!(v.width(), 4);
        assert_eq!(v.to_u64(), Some(0b1101));
        assert_eq!(v.slice(2, 2), hi);
        assert_eq!(v.slice(0, 2), lo);
    }

    #[test]
    fn edge_detection() {
        assert!(Value::is_rising_edge(&Value::bit(false), &Value::bit(true)));
        assert!(!Value::is_rising_edge(&Value::bit(true), &Value::bit(true)));
        assert!(!Value::is_rising_edge(&Value::x(1), &Value::bit(true)));
    }

    #[test]
    fn parse_round_trip() {
        for s in ["4'b10x1", "1'b1", "8'd255", "16'hbeef", "0", "1"] {
            let v: Value = s.parse().unwrap();
            let again: Value = v.to_string().parse().unwrap();
            assert_eq!(v, again, "round-trip failed for {s}");
        }
        assert!("4'd16".parse::<Value>().is_err());
        assert!("65'b1".parse::<Value>().is_err());
        assert!("4'b".parse::<Value>().is_err());
        // Nothing, or a multi-byte character, where the base letter goes.
        assert!("4'".parse::<Value>().is_err());
        assert!("4'é1".parse::<Value>().is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Value::from_u64(0b10, 2).to_string(), "2'b10");
        assert_eq!(Value::x(1).to_string(), "1'bx");
    }

    #[test]
    fn width_64_mask_is_correct() {
        let v = Value::from_u64(u64::MAX, 64);
        assert_eq!(v.to_u64(), Some(u64::MAX));
        assert_eq!(v.add(&Value::from_u64(1, 64)).to_u64(), Some(0));
    }
}
