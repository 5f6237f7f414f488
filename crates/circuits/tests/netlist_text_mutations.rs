//! Property: `Netlist::from_text` on a mutated netlist text returns a
//! netlist or a `ParseNetlistError` on a line of that text, and never
//! panics. Every netlist it accepts round-trips through `to_text`
//! byte-for-byte.
//!
//! The seeds are the texts of a small gate multiplier, a window of the
//! pipelined CPU, a feedback chain, a shared bus and a hand-written
//! clocked circuit. The mutations are byte flips, word swaps, truncation,
//! duplicated lines and integers replaced by boundary values.

use parsim_circuits::{feedback_chain, gate_multiplier, pipelined_cpu, shared_bus};
use parsim_netlist::Netlist;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// A tiny clocked circuit, as the text format's own tests write it.
const SAMPLE: &str = "\
# a tiny clocked circuit
node clk 1
node d 1
node q 1

elem osc clock:5:5 delay=1 out=clk
elem ff dff:1 delay=2 in=clk,d out=q
elem inv not delay=1 in=q out=d
";

/// Integers at the edges of the parser's `u8` and `u64` fields, and one
/// past them.
const BOUNDARIES: [&str; 10] = [
    "0",
    "1",
    "64",
    "65",
    "255",
    "256",
    "4294967295",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
];

/// Bytes a flip writes: separators, the format's punctuation, and the
/// first byte of a multi-byte character (`from_utf8_lossy` makes it
/// U+FFFD).
const FLIPS: &[u8] = b" \t\n\r\x0b#,=:;@/'0179xzbdhn_\xc2";

fn seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let mult = gate_multiplier(3, &[(5, 3), (7, 6)], 64).unwrap();
        let chain = feedback_chain(2, 3).unwrap();
        let bus = shared_bus(3, 4, 8).unwrap();
        vec![
            mult.netlist.to_text(),
            cpu_window(40),
            chain.netlist.to_text(),
            bus.netlist.to_text(),
            SAMPLE.to_string(),
        ]
    })
}

/// `count` consecutive elements from the middle of the smallest pipelined
/// CPU, with just the nodes they connect: a few kilobytes of its text, so
/// that thousands of cases parse quickly.
fn cpu_window(count: usize) -> String {
    let cpu = pipelined_cpu(8, 40).unwrap();
    let n = &cpu.netlist;
    let all = n.to_text();
    let lines: Vec<&str> = all.lines().collect();
    let first = n.num_elements() / 2;
    let mut nodes: Vec<usize> = (first..first + count)
        .flat_map(|i| {
            let e = &n.elements()[i];
            e.inputs()
                .iter()
                .chain(e.outputs())
                .map(|id| id.index())
                .collect::<Vec<_>>()
        })
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    // `to_text` writes a header, then every node, then every element.
    let mut text: Vec<&str> = nodes.iter().map(|&i| lines[1 + i]).collect();
    text.extend((first..first + count).map(|i| lines[1 + n.num_nodes() + i]));
    text.join("\n") + "\n"
}

/// Applies one random mutation to `text`.
fn mutate(text: &str, rng: &mut SmallRng) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    match rng.gen_range(0..5u32) {
        0 => {
            // Byte flip.
            let mut bytes = text.as_bytes().to_vec();
            if !bytes.is_empty() {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = FLIPS[rng.gen_range(0..FLIPS.len())];
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => {
            // Swap two words of one line.
            if lines.is_empty() {
                return text.to_string();
            }
            let at = rng.gen_range(0..lines.len());
            let mut words: Vec<&str> = lines[at].split(' ').collect();
            let (i, j) = (rng.gen_range(0..words.len()), rng.gen_range(0..words.len()));
            words.swap(i, j);
            let swapped = words.join(" ");
            lines[at] = &swapped;
            lines.join("\n") + "\n"
        }
        2 => {
            // Truncate at a character boundary.
            let mut at = rng.gen_range(0..=text.len());
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            text[..at].to_string()
        }
        3 => {
            // Duplicate a line somewhere else.
            let Some(&line) = pick(&lines, rng) else {
                return text.to_string();
            };
            let at = rng.gen_range(0..=lines.len());
            lines.insert(at, line);
            lines.join("\n") + "\n"
        }
        _ => {
            // Replace one run of digits with a boundary value.
            let runs = digit_runs(text);
            let Some(&(start, end)) = pick(&runs, rng) else {
                return text.to_string();
            };
            let value = BOUNDARIES[rng.gen_range(0..BOUNDARIES.len())];
            format!("{}{value}{}", &text[..start], &text[end..])
        }
    }
}

fn pick<'a, T>(items: &'a [T], rng: &mut SmallRng) -> Option<&'a T> {
    (!items.is_empty()).then(|| &items[rng.gen_range(0..items.len())])
}

/// The byte ranges of the maximal runs of ASCII digits in `text`.
fn digit_runs(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2400))]

    #[test]
    fn mutated_text_parses_or_fails_on_a_line_of_it(
        seed_index in 0usize..5,
        mutations in 1u32..4,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut text = seeds()[seed_index].clone();
        for _ in 0..mutations {
            text = mutate(&text, &mut rng);
        }
        match Netlist::from_text(&text) {
            Ok(n) => {
                let written = n.to_text();
                let again = Netlist::from_text(&written)
                    .map_err(|e| TestCaseError::fail(format!("reparse: {e}\n{text}")))?;
                prop_assert_eq!(&written, &again.to_text(), "{}", text);
            }
            Err(e) => {
                let lines = text.lines().count();
                prop_assert!((1..=lines).contains(&e.line()), "{e} of {lines} lines:\n{text}");
            }
        }
    }
}
