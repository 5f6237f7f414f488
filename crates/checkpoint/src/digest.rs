//! Structural netlist digest.
//!
//! A snapshot is only meaningful for the exact netlist that produced it:
//! node and element ids are dense creation-order indices, so restoring
//! state vectors into a different circuit would silently mis-wire every
//! value. The digest folds the full structure — names, widths, kinds
//! (including generator parameters), delays, and connectivity — into a
//! 64-bit FNV-1a hash stored in the snapshot header and checked on load.

use std::fmt::Write as _;

use parsim_netlist::Netlist;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        // Length-prefix so ("ab","c") and ("a","bc") differ.
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// 64-bit structural digest of `netlist`.
///
/// Deterministic across runs and processes (no pointer or hash-map
/// iteration order involved); any change to a name, width, element kind,
/// delay, or connection changes the digest.
///
/// # Examples
///
/// ```
/// use parsim_netlist::Netlist;
///
/// let a = Netlist::from_text("node x 1\nelem g clock:5:0 delay=1 out=x\n").unwrap();
/// let b = Netlist::from_text("node x 1\nelem g clock:7:0 delay=1 out=x\n").unwrap();
/// assert_ne!(
///     parsim_checkpoint::netlist_digest(&a),
///     parsim_checkpoint::netlist_digest(&b),
/// );
/// ```
pub fn netlist_digest(netlist: &Netlist) -> u64 {
    let mut h = Fnv::new();
    h.u64(netlist.num_nodes() as u64);
    h.u64(netlist.num_elements() as u64);
    for (_, node) in netlist.iter_nodes() {
        h.str(node.name());
        h.u64(node.width() as u64);
    }
    let mut kind = String::new();
    for (_, elem) in netlist.iter_elements() {
        h.str(elem.name());
        // Debug formatting covers the kind discriminant plus every
        // generator / memory parameter (periods, seeds, widths, values).
        // One buffer serves every element: the length prefix needs the
        // whole rendering before its first byte is hashed.
        kind.clear();
        write!(kind, "{:?}", elem.kind()).expect("writing to a String");
        h.str(&kind);
        h.u64(elem.rise_delay().ticks());
        h.u64(elem.fall_delay().ticks());
        h.u64(elem.inputs().len() as u64);
        for &n in elem.inputs() {
            h.u64(n.index() as u64);
        }
        h.u64(elem.outputs().len() as u64);
        for &n in elem.outputs() {
            h.u64(n.index() as u64);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_structure_sensitive() {
        let text = "node a 1\nnode y 1\nelem g clock:3:0 delay=1 out=a\nelem i not delay=1 in=a out=y\n";
        let n1 = Netlist::from_text(text).unwrap();
        let n2 = Netlist::from_text(text).unwrap();
        assert_eq!(netlist_digest(&n1), netlist_digest(&n2));

        let renamed = text.replace("node y", "node z").replace("out=y", "out=z");
        let n3 = Netlist::from_text(&renamed).unwrap();
        assert_ne!(netlist_digest(&n1), netlist_digest(&n3));
    }

    /// The digest is stored in every `PSIMCKPT` header, so its value for a
    /// given circuit may never change. Both literals were captured before
    /// the per-element `format!` was replaced by one reused buffer.
    #[test]
    fn digest_values_are_pinned() {
        use parsim_netlist::bench_fmt::{from_bench, BenchOptions, C17};
        let c17 = from_bench(C17, &BenchOptions::default()).unwrap();
        assert_eq!(netlist_digest(&c17.netlist), 0x5c25_eddf_f40c_6bda);
        let mult4 = parsim_circuits::gate_multiplier(4, &[(3, 5), (15, 15)], 64).unwrap();
        assert_eq!(netlist_digest(&mult4.netlist), 0xf598_9858_02ee_88d5);
    }
}
