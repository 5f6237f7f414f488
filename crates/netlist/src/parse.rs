//! The `parsim` text netlist format.
//!
//! A line-oriented format sufficient to round-trip every circuit the
//! generators produce:
//!
//! ```text
//! # comment
//! node <name> <width>
//! elem <name> <kindspec> delay=<ticks> in=<n1,n2,...> out=<m1,...>
//! ```
//!
//! `kindspec` is a mnemonic, optionally with `:`-separated parameters —
//! `and`, `mux:4`, `add:8`, `clock:5:0`, `lfsr:8:3:42`,
//! `const:4'b1010`, `pattern:10:1'b0;1'b1`. Generators omit `in=`.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use parsim_logic::{Delay, ElementKind};

use crate::build::Builder;
use crate::graph::Netlist;
use crate::ids::NodeId;

/// Error produced when parsing the text netlist format fails.
///
/// Carries the 1-based line number of the offending line.
///
/// # Examples
///
/// ```
/// use parsim_netlist::Netlist;
///
/// let err = Netlist::from_text("node a 1\nfrob x").unwrap_err();
/// assert_eq!(err.line(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ParseNetlistError {
    line: usize,
    msg: String,
}

impl ParseNetlistError {
    fn new(line: usize, msg: impl Into<String>) -> ParseNetlistError {
        ParseNetlistError {
            line,
            msg: msg.into(),
        }
    }

    /// Constructs an error for other in-crate parsers (the `.bench`
    /// reader).
    pub(crate) fn new_public(line: usize, msg: String) -> ParseNetlistError {
        ParseNetlistError::new(line, msg)
    }

    /// The 1-based line number where parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist parse error at line {}: {}", self.line, self.msg)
    }
}

impl Error for ParseNetlistError {}

impl Netlist {
    /// Parses the text netlist format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNetlistError`] with the offending line on any syntax
    /// or semantic (builder validation) failure.
    pub fn from_text(text: &str) -> Result<Netlist, ParseNetlistError> {
        // One look at each line's first word sizes the builder's tables,
        // so none of them is regrown or rehashed while parsing.
        let (mut nodes, mut elems) = (0, 0);
        let mut words = Words::new(text);
        while words.next_line() {
            match words.next() {
                Some("node") => nodes += 1,
                Some("elem") => elems += 1,
                _ => {}
            }
        }
        let mut b = Builder::with_capacity(nodes, elems);
        let (mut inputs, mut outputs) = (Vec::new(), Vec::new());
        let mut words = Words::new(text);
        let mut lineno = 0;
        while words.next_line() {
            lineno += 1;
            let err = |msg: &str| ParseNetlistError::new(lineno, msg);
            match words.next() {
                Some("node") => {
                    let name = words.next().ok_or_else(|| err("missing node name"))?;
                    let width: u8 = words
                        .next()
                        .ok_or_else(|| err("missing node width"))?
                        .parse()
                        .map_err(|_| err("bad node width"))?;
                    if width == 0 || width > 64 {
                        return Err(err("width must be 1..=64"));
                    }
                    b.node(name, width);
                }
                Some("elem") => {
                    let name = words.next().ok_or_else(|| err("missing element name"))?;
                    let kindspec = words.next().ok_or_else(|| err("missing kind"))?;
                    let kind = parse_kind(kindspec).map_err(|m| err(&m))?;
                    let mut delay = Delay::UNIT;
                    let mut fall: Option<Delay> = None;
                    inputs.clear();
                    outputs.clear();
                    for field in words.by_ref() {
                        if let Some(d) = field.strip_prefix("delay=") {
                            // `delay=R` or `delay=R/F` (rise/fall).
                            let (r, f) = match d.split_once('/') {
                                Some((r, f)) => (r, Some(f)),
                                None => (d, None),
                            };
                            delay = Delay(r.parse().map_err(|_| err("bad delay"))?);
                            if let Some(f) = f {
                                fall = Some(Delay(f.parse().map_err(|_| err("bad fall delay"))?));
                            }
                        } else if let Some(names) = field.strip_prefix("in=") {
                            lookup(&b, names, &mut inputs).map_err(|m| err(&m))?;
                        } else if let Some(names) = field.strip_prefix("out=") {
                            lookup(&b, names, &mut outputs).map_err(|m| err(&m))?;
                        } else {
                            return Err(err(&format!("unknown field `{field}`")));
                        }
                    }
                    let fall = fall.unwrap_or(delay);
                    b.element_with_delays(name, kind, delay, fall, &inputs, &outputs)
                        .map_err(|e| err(&e.to_string()))?;
                }
                Some(other) => return Err(err(&format!("unknown directive `{other}`"))),
                None => {}
            }
        }
        b.finish()
            .map_err(|e| ParseNetlistError::new(lineno, e.to_string()))
    }

    /// Writes the text netlist format. [`Netlist::from_text`] of the result
    /// reproduces an equivalent netlist.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# parsim netlist: {} nodes, {} elements",
            self.num_nodes(),
            self.num_elements()
        );
        for n in self.nodes() {
            let _ = writeln!(out, "node {} {}", n.name(), n.width());
        }
        for e in self.elements() {
            if e.rise_delay() == e.fall_delay() {
                let _ = write!(
                    out,
                    "elem {} {} delay={}",
                    e.name(),
                    kind_spec(e.kind()),
                    e.delay()
                );
            } else {
                let _ = write!(
                    out,
                    "elem {} {} delay={}/{}",
                    e.name(),
                    kind_spec(e.kind()),
                    e.rise_delay(),
                    e.fall_delay()
                );
            }
            if !e.inputs().is_empty() {
                let names: Vec<&str> = e.inputs().iter().map(|&n| self.node(n).name()).collect();
                let _ = write!(out, " in={}", names.join(","));
            }
            let names: Vec<&str> = e.outputs().iter().map(|&n| self.node(n).name()).collect();
            let _ = writeln!(out, " out={}", names.join(","));
        }
        out
    }
}

/// The words of a text, line by line: within a line, exactly what
/// `str::split_whitespace` yields from the line up to its first `#`.
///
/// Lines end at `\n` only; a `\r` before it, like any other whitespace,
/// separates words. ASCII bytes are classified by a table; a non-ASCII
/// character is decoded only where one occurs, so that U+00A0 or U+3000
/// separate words as `char::is_whitespace` says they do.
struct Words<'a> {
    text: &'a str,
    pos: usize,
    started: bool,
}

impl<'a> Words<'a> {
    fn new(text: &'a str) -> Words<'a> {
        Words {
            text,
            pos: 0,
            started: false,
        }
    }

    /// Skips what is left of the current line, comment included, and
    /// reports whether another line starts. The first call starts the
    /// first line.
    fn next_line(&mut self) -> bool {
        if self.started {
            // Mostly the words ran up to the newline; a comment, or words
            // left unread, are skipped by a search.
            self.pos = match self.text.as_bytes().get(self.pos) {
                Some(b'\n') => self.pos + 1,
                _ => match self.text[self.pos..].find('\n') {
                    Some(i) => self.pos + i + 1,
                    None => self.text.len(),
                },
            };
        }
        self.started = true;
        self.pos < self.text.len()
    }

    /// The length of the non-ASCII character at `pos`, and whether it
    /// separates words. Out of line: ASCII text never calls it.
    #[cold]
    fn wide_char(&self) -> (usize, bool) {
        let c = self.text[self.pos..].chars().next();
        let c = c.expect("a non-ASCII byte starts a character");
        (c.len_utf8(), c.is_whitespace())
    }
}

/// What one byte is to the word splitter.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Word,
    Space,
    /// `\n` or `#`: the line's words are over.
    End,
    /// The first byte of a non-ASCII character.
    Wide,
}

static CLASSES: [Class; 256] = {
    let mut classes = [Class::Word; 256];
    let mut b = 0;
    while b < 256 {
        classes[b] = match b as u8 {
            b'\n' | b'#' => Class::End,
            b'\t'..=b'\r' | b' ' => Class::Space,
            0x80..=0xff => Class::Wide,
            _ => Class::Word,
        };
        b += 1;
    }
    classes
};

impl<'a> Iterator for Words<'a> {
    type Item = &'a str;

    /// The current line's next word; `None` at the line's end or its `#`.
    fn next(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let mut start = self.pos;
        loop {
            let rest = &bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| CLASSES[b as usize] != Class::Word);
            self.pos += run.unwrap_or(rest.len());
            let separator = match bytes.get(self.pos).map(|&b| CLASSES[b as usize]) {
                Some(Class::Space) => 1,
                Some(Class::Wide) => match self.wide_char() {
                    (len, true) => len,
                    (len, false) => {
                        // Part of a word.
                        self.pos += len;
                        continue;
                    }
                },
                // `\n`, `#` or the text's end: the line's words are over.
                _ => return (self.pos > start).then(|| &self.text[start..self.pos]),
            };
            if self.pos > start {
                let word = &self.text[start..self.pos];
                self.pos += separator;
                return Some(word);
            }
            self.pos += separator;
            start = self.pos;
        }
    }
}

/// Replaces `ports` with the nodes a comma-separated list names, in
/// order, skipping empty names.
fn lookup(b: &Builder, names: &str, ports: &mut Vec<NodeId>) -> Result<(), String> {
    ports.clear();
    for name in names.split(',').filter(|n| !n.is_empty()) {
        let id = b.node_id(name);
        ports.push(id.ok_or_else(|| format!("unknown node `{name}`"))?);
    }
    Ok(())
}

fn parse_kind(spec: &str) -> Result<ElementKind, String> {
    let (mnemonic, rest) = match spec.split_once(':') {
        Some((mnemonic, rest)) => (mnemonic, Some(rest)),
        None => (spec, None),
    };
    let no_params = |kind: ElementKind| -> Result<ElementKind, String> {
        if rest.is_some() {
            Err(format!("kind `{mnemonic}` takes no parameters"))
        } else {
            Ok(kind)
        }
    };
    let width_param = || -> Result<u8, String> {
        rest.ok_or_else(|| format!("kind `{mnemonic}` needs a width parameter"))?
            .parse()
            .map_err(|_| format!("bad width in `{spec}`"))
    };
    match mnemonic {
        "and" => no_params(ElementKind::And),
        "or" => no_params(ElementKind::Or),
        "nand" => no_params(ElementKind::Nand),
        "nor" => no_params(ElementKind::Nor),
        "xor" => no_params(ElementKind::Xor),
        "xnor" => no_params(ElementKind::Xnor),
        "not" => no_params(ElementKind::Not),
        "buf" => no_params(ElementKind::Buf),
        "mux" => Ok(ElementKind::Mux {
            width: width_param()?,
        }),
        "dff" => Ok(ElementKind::Dff {
            width: width_param()?,
        }),
        "dffr" => Ok(ElementKind::DffR {
            width: width_param()?,
        }),
        "latch" => Ok(ElementKind::Latch {
            width: width_param()?,
        }),
        "mem" => {
            let [addr_bits, width] = params(rest, spec)?;
            Ok(ElementKind::Memory {
                addr_bits: parse_param(addr_bits, spec)?,
                width: parse_param(width, spec)?,
            })
        }
        "tribuf" => Ok(ElementKind::TriBuf {
            width: width_param()?,
        }),
        "res" => Ok(ElementKind::Resolver {
            width: width_param()?,
        }),
        "add" => Ok(ElementKind::Adder {
            width: width_param()?,
        }),
        "sub" => Ok(ElementKind::Subtractor {
            width: width_param()?,
        }),
        "mul" => Ok(ElementKind::Multiplier {
            width: width_param()?,
        }),
        "cmp" => Ok(ElementKind::Comparator {
            width: width_param()?,
        }),
        "slice" => {
            let [in_width, lo, width] = params(rest, spec)?;
            Ok(ElementKind::Slice {
                in_width: parse_param(in_width, spec)?,
                lo: parse_param(lo, spec)?,
                width: parse_param(width, spec)?,
            })
        }
        "zext" => {
            let [in_width, out_width] = params(rest, spec)?;
            Ok(ElementKind::ZeroExt {
                in_width: parse_param(in_width, spec)?,
                out_width: parse_param(out_width, spec)?,
            })
        }
        "shl" => {
            let [in_width, out_width, amount] = params(rest, spec)?;
            Ok(ElementKind::Shl {
                in_width: parse_param(in_width, spec)?,
                out_width: parse_param(out_width, spec)?,
                amount: parse_param(amount, spec)?,
            })
        }
        "clock" => {
            let [half_period, offset] = params(rest, spec)?;
            Ok(ElementKind::Clock {
                half_period: parse_param(half_period, spec)?,
                offset: parse_param(offset, spec)?,
            })
        }
        "pulse" => {
            let [at, width] = params(rest, spec)?;
            Ok(ElementKind::Pulse {
                at: parse_param(at, spec)?,
                width: parse_param(width, spec)?,
            })
        }
        "lfsr" => {
            let [width, period, seed] = params(rest, spec)?;
            Ok(ElementKind::Lfsr {
                width: parse_param(width, spec)?,
                period: parse_param(period, spec)?,
                seed: parse_param(seed, spec)?,
            })
        }
        "const" => {
            let value = parse_param(rest.ok_or_else(|| bad(spec))?, spec)?;
            Ok(ElementKind::Const { value })
        }
        // `split` yields at least one item, so neither list is empty.
        "vector" => {
            let changes = rest
                .ok_or_else(|| bad(spec))?
                .split(';')
                .map(|pair| {
                    let (t, v) = pair.split_once('@').ok_or_else(|| bad(spec))?;
                    Ok((parse_param(t, spec)?, parse_param(v, spec)?))
                })
                .collect::<Result<_, String>>()?;
            Ok(ElementKind::Vector { changes })
        }
        "pattern" => {
            let [period, values] = params(rest, spec)?;
            Ok(ElementKind::Pattern {
                period: parse_param(period, spec)?,
                values: values
                    .split(';')
                    .map(|v| parse_param(v, spec))
                    .collect::<Result<_, _>>()?,
            })
        }
        _ => Err(format!("unknown kind `{mnemonic}`")),
    }
}

/// The `N` `:`-separated parameters after a kind's mnemonic, lent from
/// the spec; the last one takes whatever colons are left.
fn params<'a, const N: usize>(rest: Option<&'a str>, spec: &str) -> Result<[&'a str; N], String> {
    let mut parts = rest.ok_or_else(|| bad(spec))?.splitn(N, ':');
    let mut ps = [""; N];
    for p in &mut ps {
        *p = parts.next().ok_or_else(|| bad(spec))?;
    }
    Ok(ps)
}

/// One parameter of `spec`: a number, or a value literal.
fn parse_param<T: std::str::FromStr>(param: &str, spec: &str) -> Result<T, String> {
    param.parse().map_err(|_| bad(spec))
}

fn bad(spec: &str) -> String {
    format!("bad kind spec `{spec}`")
}

fn kind_spec(kind: &ElementKind) -> String {
    match kind {
        ElementKind::Mux { width }
        | ElementKind::Dff { width }
        | ElementKind::DffR { width }
        | ElementKind::Latch { width }
        | ElementKind::TriBuf { width }
        | ElementKind::Resolver { width }
        | ElementKind::Adder { width }
        | ElementKind::Subtractor { width }
        | ElementKind::Multiplier { width }
        | ElementKind::Comparator { width } => format!("{}:{width}", kind.mnemonic()),
        ElementKind::Memory { addr_bits, width } => format!("mem:{addr_bits}:{width}"),
        ElementKind::Slice {
            in_width,
            lo,
            width,
        } => format!("slice:{in_width}:{lo}:{width}"),
        ElementKind::ZeroExt {
            in_width,
            out_width,
        } => format!("zext:{in_width}:{out_width}"),
        ElementKind::Shl {
            in_width,
            out_width,
            amount,
        } => format!("shl:{in_width}:{out_width}:{amount}"),
        ElementKind::Clock {
            half_period,
            offset,
        } => format!("clock:{half_period}:{offset}"),
        ElementKind::Pulse { at, width } => format!("pulse:{at}:{width}"),
        ElementKind::Lfsr {
            width,
            period,
            seed,
        } => format!("lfsr:{width}:{period}:{seed}"),
        ElementKind::Const { value } => format!("const:{value}"),
        ElementKind::Pattern { period, values } => {
            let vals: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            format!("pattern:{period}:{}", vals.join(";"))
        }
        ElementKind::Vector { changes } => {
            let vals: Vec<String> = changes.iter().map(|(t, v)| format!("{t}@{v}")).collect();
            format!("vector:{}", vals.join(";"))
        }
        _ => kind.mnemonic().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::{Time, Value};

    const SAMPLE: &str = "\
# a tiny clocked circuit
node clk 1
node d 1
node q 1

elem osc clock:5:5 delay=1 out=clk
elem ff dff:1 delay=2 in=clk,d out=q
elem inv not delay=1 in=q out=d
";

    #[test]
    fn parses_sample() {
        let n = Netlist::from_text(SAMPLE).unwrap();
        assert_eq!(n.num_nodes(), 3);
        assert_eq!(n.num_elements(), 3);
        let ff = n.element_by_name("ff").unwrap();
        assert_eq!(n.element(ff).delay(), Delay(2));
        assert!(matches!(
            n.element(ff).kind(),
            ElementKind::Dff { width: 1 }
        ));
    }

    #[test]
    fn round_trips() {
        let n = Netlist::from_text(SAMPLE).unwrap();
        let text = n.to_text();
        let n2 = Netlist::from_text(&text).unwrap();
        assert_eq!(n.num_nodes(), n2.num_nodes());
        assert_eq!(n.num_elements(), n2.num_elements());
        assert_eq!(n.to_text(), n2.to_text());
    }

    #[test]
    fn kind_specs_round_trip() {
        let kinds = vec![
            ElementKind::And,
            ElementKind::Mux { width: 4 },
            ElementKind::Adder { width: 8 },
            ElementKind::Multiplier { width: 3 },
            ElementKind::TriBuf { width: 8 },
            ElementKind::Memory {
                addr_bits: 6,
                width: 16,
            },
            ElementKind::Resolver { width: 8 },
            ElementKind::Slice {
                in_width: 16,
                lo: 3,
                width: 3,
            },
            ElementKind::ZeroExt {
                in_width: 6,
                out_width: 32,
            },
            ElementKind::Shl {
                in_width: 6,
                out_width: 32,
                amount: 9,
            },
            ElementKind::Clock {
                half_period: 7,
                offset: 2,
            },
            ElementKind::Pulse { at: 3, width: 9 },
            ElementKind::Lfsr {
                width: 5,
                period: 11,
                seed: 99,
            },
            ElementKind::Const {
                value: "4'b10x1".parse().unwrap(),
            },
            ElementKind::Pattern {
                period: 6,
                values: vec![Value::bit(false), Value::bit(true)].into(),
            },
            ElementKind::Vector {
                changes: vec![(0, Value::bit(false)), (7, Value::bit(true))].into(),
            },
        ];
        for k in kinds {
            let spec = kind_spec(&k);
            let parsed = parse_kind(&spec).unwrap();
            assert_eq!(parsed, k, "spec `{spec}`");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Netlist::from_text("node a 1\nnode b\n").unwrap_err();
        assert_eq!(err.line(), 2);
        let err = Netlist::from_text("elem g and delay=1 in=a,b out=c\n").unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("unknown node"));
    }

    #[test]
    fn rejects_unknown_kind_and_directive() {
        assert!(Netlist::from_text("weird x\n").is_err());
        assert!(
            Netlist::from_text("node a 1\nnode y 1\nelem g frobnicate delay=1 in=a out=y\n")
                .is_err()
        );
    }

    /// Generator parameters `expand_generator` would assert on inside an
    /// engine are typed, line-numbered errors here instead.
    #[test]
    fn rejects_generators_the_engines_would_panic_on() {
        let cases = [
            ("clock:0:3", 1, "clock half_period must be >= 1"),
            ("pattern:0:1'b0;1'b1", 1, "pattern period must be >= 1"),
            ("lfsr:4:0:9", 4, "lfsr period must be >= 1"),
            ("vector:5@1'b0;5@1'b1", 1, "strictly increasing"),
            ("vector:7@1'b0;2@1'b1", 1, "strictly increasing"),
            (
                "vector:0@1'b0;4@2'b11",
                1,
                "vector values must all have the same width",
            ),
            (
                "pattern:3:1'b0;4'b1010",
                1,
                "pattern values must all have the same width",
            ),
        ];
        for (spec, width, want) in cases {
            let text = format!("# stimulus\nnode n {width}\nelem g {spec} delay=1 out=n\n");
            let err = Netlist::from_text(&text).expect_err(spec);
            assert_eq!(err.line(), 3, "{spec}");
            assert!(err.to_string().contains(want), "{spec}: {err}");
        }
        // The well-formed neighbour of each case still parses, and expands.
        for (spec, width) in [
            ("clock:1:0", 1),
            ("pattern:1:1'b0;1'b1", 1),
            ("lfsr:4:1:9", 4),
            ("vector:5@1'b0;6@1'b1", 1),
        ] {
            let text = format!("node n {width}\nelem g {spec} delay=1 out=n\n");
            let n = Netlist::from_text(&text).unwrap_or_else(|e| panic!("{spec}: {e}"));
            let kind = n.element(n.generators()[0]).kind();
            assert!(
                !parsim_logic::expand_generator(kind, Time(20)).is_empty(),
                "{spec}"
            );
        }
    }

    /// What `from_text` makes of a text: the body of the netlist's
    /// `to_text` (without its `# parsim netlist` header line), or the
    /// error's line and message.
    type Outcome = Result<&'static str, (usize, &'static str)>;

    /// The accepted syntax, pinned case by case: line ends, every kind of
    /// separator, comments, port lists, name clashes and every error the
    /// parser reports, with its line. A word is what `str::split_whitespace`
    /// yields, so every Unicode `White_Space` character separates words.
    ///
    /// `finish` errors (reported at the last line) have no case: a text
    /// cannot reach one, because the builder refuses a zero delay on any
    /// element that has inputs, and `validate` only searches for cycles
    /// through such elements.
    const SEMANTICS: &[(&str, &str, Outcome)] = &[
        (
            "CRLF line ends",
            "node a 1\r\nnode y 1\r\nelem g not delay=1 in=a out=y\r\n",
            Ok("node a 1\nnode y 1\nelem g not delay=1 in=a out=y\n"),
        ),
        (
            "a bare CR inside a line separates words",
            "node a\r1\nnode y 1\nelem g not\rdelay=1 in=a out=y\r",
            Ok("node a 1\nnode y 1\nelem g not delay=1 in=a out=y\n"),
        ),
        (
            "tab, VT and FF separate words",
            "node\ta\x0b1\nnode\x0cy\t\t1\nelem g\x0bnot delay=1\tin=a\x0cout=y\n",
            Ok("node a 1\nnode y 1\nelem g not delay=1 in=a out=y\n"),
        ),
        (
            "U+0085, U+00A0, U+2003 and U+3000 separate words",
            "node\u{85}a\u{a0}1\nnode\u{2003}y\u{3000}1\n\
             elem\u{3000}g not\u{a0}delay=1\u{85}in=a\u{2003}out=y\n",
            Ok("node a 1\nnode y 1\nelem g not delay=1 in=a out=y\n"),
        ),
        (
            "other non-ASCII characters are part of a word",
            "node \u{e9}t\u{e9} 1\nnode y\u{200b} 1\nelem \u{3b3} not delay=1 in=\u{e9}t\u{e9} out=y\u{200b}\n",
            Ok("node \u{e9}t\u{e9} 1\nnode y\u{200b} 1\nelem \u{3b3} not delay=1 in=\u{e9}t\u{e9} out=y\u{200b}\n"),
        ),
        (
            "a leading BOM is part of the first word",
            "\u{feff}node a 1\n",
            Err((1, "unknown directive `\u{feff}node`")),
        ),
        (
            "# glued to a word starts a comment",
            "node a 1#one\nnode y#\n",
            Err((2, "missing node width")),
        ),
        (
            "# inside a kind spec cuts it",
            "node y 4\nelem c const:4'b1010#x delay=1 out=y\n",
            Err((2, "element `c` expects 1 outputs, got 0")),
        ),
        (
            "# after the last field",
            "node y 4\nelem c const:4'b1010 delay=1 out=y# in=y\n",
            Ok("node y 4\nelem c const:4'b1010 delay=1 out=y\n"),
        ),
        (
            "leading and trailing whitespace, blank and comment-only lines",
            "\n  # header\n\t\n   node a 1   \n#node b 1\n \x0c \n  node y 1\t\n\
             \u{3000}elem g not delay=1 in=a out=y \u{a0}\n\n",
            Ok("node a 1\nnode y 1\nelem g not delay=1 in=a out=y\n"),
        ),
        ("the empty text", "", Ok("")),
        ("only blank lines", "\n\r\n \n", Ok("")),
        (
            "words after a node's width are ignored",
            "node a +1 wide 7\nnode y 01\nelem g not delay=1 in=a out=y\n",
            Ok("node a 1\nnode y 1\nelem g not delay=1 in=a out=y\n"),
        ),
        (
            "empty names in a port list are skipped",
            "node a 1\nnode b 1\nnode y 1\nelem g and delay=1 in=,a,,b, out=y,\n",
            Ok("node a 1\nnode b 1\nnode y 1\nelem g and delay=1 in=a,b out=y\n"),
        ),
        (
            "an empty in= connects nothing",
            "node c 1\nelem osc clock:5:5 delay=1 in= out=c\n",
            Ok("node c 1\nelem osc clock:5:5 delay=1 out=c\n"),
        ),
        (
            "a later field overrides an earlier one",
            "node a 1\nnode b 1\nnode y 1\n\
             elem g not delay=4 in=b delay=2/3 in=a out=b out=y\n",
            Ok("node a 1\nnode b 1\nnode y 1\nelem g not delay=2/3 in=a out=y\n"),
        ),
        (
            "duplicate node names are renamed name__N",
            "node a 1\nnode a 1\nnode a__2 1\nnode a 1\n\
             elem g not delay=1 in=a out=a__3\n",
            Ok("node a 1\nnode a__1 1\nnode a__2 1\nnode a__3 1\n\
                elem g not delay=1 in=a out=a__3\n"),
        ),
        (
            "duplicate element names",
            "node a 1\nnode y 1\nnode z 1\nelem g not delay=1 in=a out=y\n\
             elem g not delay=1 in=a out=z\n",
            Err((5, "duplicate name `g`")),
        ),
        (
            "the duplicate check comes before every other element check",
            "node a 1\nnode y 1\nelem g not delay=1 in=a out=y\nelem g and delay=0 out=y\n",
            Err((4, "duplicate name `g`")),
        ),
        // Line numbers count blank, comment and CRLF lines.
        ("unknown directive", "# c\r\n\r\nfrob x\n", Err((3, "unknown directive `frob`"))),
        ("missing node name", "node a 1\nnode\n", Err((2, "missing node name"))),
        ("missing node width", "node a # 1\n", Err((1, "missing node width"))),
        ("bad node width", "node a x\n", Err((1, "bad node width"))),
        ("node width over u8", "node a 256\n", Err((1, "bad node width"))),
        ("negative node width", "node a -1\n", Err((1, "bad node width"))),
        ("zero node width", "node a 0\n", Err((1, "width must be 1..=64"))),
        ("node width over 64", "\nnode a 65\n", Err((2, "width must be 1..=64"))),
        ("missing element name", "elem\n", Err((1, "missing element name"))),
        ("missing kind", "elem g\n", Err((1, "missing kind"))),
        ("unknown kind", "elem g frob\n", Err((1, "unknown kind `frob`"))),
        ("parameters on a plain gate", "elem g and:3\n", Err((1, "kind `and` takes no parameters"))),
        ("missing width parameter", "elem g mux\n", Err((1, "kind `mux` needs a width parameter"))),
        ("bad width parameter", "elem g mux:x\n", Err((1, "bad width in `mux:x`"))),
        ("width parameter over u8", "elem g add:256\n", Err((1, "bad width in `add:256`"))),
        ("too few parameters", "elem g mem:3\n", Err((1, "bad kind spec `mem:3`"))),
        ("bad parameter", "elem g clock:5:x\n", Err((1, "bad kind spec `clock:5:x`"))),
        ("extra parameters land in the last", "elem g clock:5:5:5\n", Err((1, "bad kind spec `clock:5:5:5`"))),
        ("parameter over u64", "elem g clock:18446744073709551616:0\n", Err((1, "bad kind spec `clock:18446744073709551616:0`"))),
        ("const without a value", "elem g const\n", Err((1, "bad kind spec `const`"))),
        ("bad const value", "elem g const:2'b102\n", Err((1, "bad kind spec `const:2'b102`"))),
        ("empty vector", "elem g vector:\n", Err((1, "bad kind spec `vector:`"))),
        ("vector pair without @", "elem g vector:0@1;5\n", Err((1, "bad kind spec `vector:0@1;5`"))),
        ("empty pattern value", "elem g pattern:3:1;\n", Err((1, "bad kind spec `pattern:3:1;`"))),
        ("bad delay", "node a 1\nnode y 1\nelem g not delay=x in=a out=y\n", Err((3, "bad delay"))),
        ("empty delay", "elem g not delay=\n", Err((1, "bad delay"))),
        ("delay over u64", "elem g not delay=18446744073709551616\n", Err((1, "bad delay"))),
        ("bad fall delay", "elem g not delay=1/x\n", Err((1, "bad fall delay"))),
        ("two slashes", "elem g not delay=1/2/3\n", Err((1, "bad fall delay"))),
        ("unknown node", "node a 1\nelem g not delay=1 in=a,ghost out=a\n", Err((2, "unknown node `ghost`"))),
        ("fields are read in order", "elem g not in=ghost delay=x\n", Err((1, "unknown node `ghost`"))),
        ("unknown field", "elem g not delay=1 frob=2\n", Err((1, "unknown field `frob=2`"))),
        ("a field without =", "elem g not in\n", Err((1, "unknown field `in`"))),
        (
            "zero delay",
            "node a 1\nnode y 1\nelem g not delay=0 in=a out=y\n",
            Err((3, "element `g` has zero delay; all delays must be >= 1 tick")),
        ),
        (
            "zero fall delay",
            "node a 1\nnode y 1\nelem g not delay=1/0 in=a out=y\n",
            Err((3, "element `g` has zero delay; all delays must be >= 1 tick")),
        ),
        (
            "input count",
            "node a 1\nnode y 1\nelem g not delay=1 in=a,a out=y\n",
            Err((3, "element `g`: element Not expects exactly 1 inputs, got 2")),
        ),
        (
            "output count",
            "node a 1\nnode y 1\nelem g not delay=1 in=a out=y,a\n",
            Err((3, "element `g` expects 1 outputs, got 2")),
        ),
        (
            "port width",
            "node a 1\nnode y 2\nelem g not delay=1 in=a out=y\n",
            Err((3, "element `g` port out0 expects width 1, got 2")),
        ),
        (
            "generator check",
            "node c 1\nelem osc clock:0:5 delay=1 out=c\n",
            Err((2, "element `osc`: clock half_period must be >= 1")),
        ),
        (
            "multiple drivers",
            "node a 1\nnode y 1\nelem g not delay=1 in=a out=y\nelem h not delay=1 in=a out=y\n",
            Err((4, "node `y` has multiple drivers")),
        ),
    ];

    #[test]
    fn accepted_syntax_and_every_error_are_pinned() {
        for &(case, text, want) in SEMANTICS {
            let got = Netlist::from_text(text);
            match (got, want) {
                (Ok(n), Ok(body)) => {
                    let out = n.to_text();
                    let (_, got_body) = out.split_once('\n').expect("a header line");
                    assert_eq!(got_body, body, "{case}");
                }
                (Err(e), Err((line, msg))) => {
                    assert_eq!(e.line(), line, "{case}: {e}");
                    assert_eq!(
                        e.to_string(),
                        format!("netlist parse error at line {line}: {msg}"),
                        "{case}"
                    );
                }
                (got, want) => panic!("{case}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let n = Netlist::from_text("# nothing\n\n   \nnode a 1 # trailing\n").unwrap();
        assert_eq!(n.num_nodes(), 1);
    }

    #[test]
    fn parsed_generator_expands() {
        let n = Netlist::from_text("node c 1\nelem osc clock:3:0 delay=1 out=c\n").unwrap();
        let gen = n.generators();
        assert_eq!(gen.len(), 1);
        let ev = parsim_logic::expand_generator(n.element(gen[0]).kind(), Time(10));
        assert!(!ev.is_empty());
    }
}
