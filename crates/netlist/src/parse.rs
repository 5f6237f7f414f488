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
use std::sync::Arc;

use parsim_logic::{Delay, ElementKind, Value};

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
        // One cheap look at each line's first word sizes the builder's
        // tables, so none of them is regrown or rehashed while parsing.
        let (mut nodes, mut elems) = (0, 0);
        for line in text.lines() {
            match line.split_whitespace().next() {
                Some("node") => nodes += 1,
                Some("elem") => elems += 1,
                _ => {}
            }
        }
        let mut b = Builder::with_capacity(nodes, elems);
        let mut last_line = 0;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            last_line = lineno;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tok = line.split_whitespace();
            match tok.next() {
                Some("node") => {
                    let name = tok
                        .next()
                        .ok_or_else(|| ParseNetlistError::new(lineno, "missing node name"))?;
                    let width: u8 = tok
                        .next()
                        .ok_or_else(|| ParseNetlistError::new(lineno, "missing node width"))?
                        .parse()
                        .map_err(|_| ParseNetlistError::new(lineno, "bad node width"))?;
                    if width == 0 || width > 64 {
                        return Err(ParseNetlistError::new(lineno, "width must be 1..=64"));
                    }
                    b.node(name, width);
                }
                Some("elem") => {
                    let name = tok
                        .next()
                        .ok_or_else(|| ParseNetlistError::new(lineno, "missing element name"))?;
                    let kindspec = tok
                        .next()
                        .ok_or_else(|| ParseNetlistError::new(lineno, "missing kind"))?;
                    let kind = parse_kind(kindspec)
                        .map_err(|m| ParseNetlistError::new(lineno, m))?;
                    let mut delay = Delay::UNIT;
                    let mut fall: Option<Delay> = None;
                    let mut inputs: Vec<NodeId> = Vec::new();
                    let mut outputs: Vec<NodeId> = Vec::new();
                    let lookup = |b: &Builder, names: &str, lineno: usize| {
                        names
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(|n| {
                                node_id_by_name(b, n).ok_or_else(|| {
                                    ParseNetlistError::new(lineno, format!("unknown node `{n}`"))
                                })
                            })
                            .collect::<Result<Vec<NodeId>, _>>()
                    };
                    for field in tok {
                        if let Some(d) = field.strip_prefix("delay=") {
                            // `delay=R` or `delay=R/F` (rise/fall).
                            let (r, f) = match d.split_once('/') {
                                Some((r, f)) => (r, Some(f)),
                                None => (d, None),
                            };
                            delay = Delay(r.parse().map_err(|_| {
                                ParseNetlistError::new(lineno, "bad delay")
                            })?);
                            if let Some(f) = f {
                                fall = Some(Delay(f.parse().map_err(|_| {
                                    ParseNetlistError::new(lineno, "bad fall delay")
                                })?));
                            }
                        } else if let Some(ns) = field.strip_prefix("in=") {
                            inputs = lookup(&b, ns, lineno)?;
                        } else if let Some(ns) = field.strip_prefix("out=") {
                            outputs = lookup(&b, ns, lineno)?;
                        } else {
                            return Err(ParseNetlistError::new(
                                lineno,
                                format!("unknown field `{field}`"),
                            ));
                        }
                    }
                    b.add_element(name, kind, delay, fall.unwrap_or(delay), inputs, outputs)
                        .map_err(|e| ParseNetlistError::new(lineno, e.to_string()))?;
                }
                Some(other) => {
                    return Err(ParseNetlistError::new(
                        lineno,
                        format!("unknown directive `{other}`"),
                    ))
                }
                None => {}
            }
        }
        b.finish()
            .map_err(|e| ParseNetlistError::new(last_line, e.to_string()))
    }

    /// Writes the text netlist format. [`Netlist::from_text`] of the result
    /// reproduces an equivalent netlist.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# parsim netlist: {} nodes, {} elements", self.num_nodes(), self.num_elements());
        for n in self.nodes() {
            let _ = writeln!(out, "node {} {}", n.name(), n.width());
        }
        for e in self.elements() {
            if e.rise_delay() == e.fall_delay() {
                let _ = write!(out, "elem {} {} delay={}", e.name(), kind_spec(e.kind()), e.delay());
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
                let names: Vec<&str> = e
                    .inputs()
                    .iter()
                    .map(|&n| self.node(n).name())
                    .collect();
                let _ = write!(out, " in={}", names.join(","));
            }
            let names: Vec<&str> = e
                .outputs()
                .iter()
                .map(|&n| self.node(n).name())
                .collect();
            let _ = writeln!(out, " out={}", names.join(","));
        }
        out
    }
}

fn node_id_by_name(b: &Builder, name: &str) -> Option<NodeId> {
    b.node_id(name)
}

fn parse_kind(spec: &str) -> Result<ElementKind, String> {
    let mut parts = spec.splitn(2, ':');
    let mnemonic = parts.next().expect("splitn yields at least one");
    let rest = parts.next();
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
            let ps = params(rest, 2, spec)?;
            Ok(ElementKind::Memory {
                addr_bits: ps[0].parse().map_err(|_| bad(spec))?,
                width: ps[1].parse().map_err(|_| bad(spec))?,
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
            let ps = params(rest, 3, spec)?;
            Ok(ElementKind::Slice {
                in_width: ps[0].parse().map_err(|_| bad(spec))?,
                lo: ps[1].parse().map_err(|_| bad(spec))?,
                width: ps[2].parse().map_err(|_| bad(spec))?,
            })
        }
        "zext" => {
            let ps = params(rest, 2, spec)?;
            Ok(ElementKind::ZeroExt {
                in_width: ps[0].parse().map_err(|_| bad(spec))?,
                out_width: ps[1].parse().map_err(|_| bad(spec))?,
            })
        }
        "shl" => {
            let ps = params(rest, 3, spec)?;
            Ok(ElementKind::Shl {
                in_width: ps[0].parse().map_err(|_| bad(spec))?,
                out_width: ps[1].parse().map_err(|_| bad(spec))?,
                amount: ps[2].parse().map_err(|_| bad(spec))?,
            })
        }
        "clock" => {
            let ps = params(rest, 2, spec)?;
            Ok(ElementKind::Clock {
                half_period: ps[0].parse().map_err(|_| bad(spec))?,
                offset: ps[1].parse().map_err(|_| bad(spec))?,
            })
        }
        "pulse" => {
            let ps = params(rest, 2, spec)?;
            Ok(ElementKind::Pulse {
                at: ps[0].parse().map_err(|_| bad(spec))?,
                width: ps[1].parse().map_err(|_| bad(spec))?,
            })
        }
        "lfsr" => {
            let ps = params(rest, 3, spec)?;
            Ok(ElementKind::Lfsr {
                width: ps[0].parse().map_err(|_| bad(spec))?,
                period: ps[1].parse().map_err(|_| bad(spec))?,
                seed: ps[2].parse().map_err(|_| bad(spec))?,
            })
        }
        "const" => {
            let lit = rest.ok_or_else(|| bad(spec))?;
            let value: Value = lit.parse().map_err(|_| bad(spec))?;
            Ok(ElementKind::Const { value })
        }
        "vector" => {
            let rest = rest.ok_or_else(|| bad(spec))?;
            let changes: Result<Vec<(u64, Value)>, String> = rest
                .split(';')
                .map(|pair| {
                    let (t, v) = pair.split_once('@').ok_or_else(|| bad(spec))?;
                    Ok((
                        t.parse::<u64>().map_err(|_| bad(spec))?,
                        v.parse::<Value>().map_err(|_| bad(spec))?,
                    ))
                })
                .collect();
            let changes = changes?;
            if changes.is_empty() {
                return Err(bad(spec));
            }
            Ok(ElementKind::Vector {
                changes: changes.into(),
            })
        }
        "pattern" => {
            let ps = params(rest, 2, spec)?;
            let period: u64 = ps[0].parse().map_err(|_| bad(spec))?;
            let values: Result<Vec<Value>, _> =
                ps[1].split(';').map(|v| v.parse::<Value>()).collect();
            let values = values.map_err(|_| bad(spec))?;
            if values.is_empty() {
                return Err(bad(spec));
            }
            let values: Arc<[Value]> = values.into();
            Ok(ElementKind::Pattern { period, values })
        }
        _ => Err(format!("unknown kind `{mnemonic}`")),
    }
}

fn params(rest: Option<&str>, n: usize, spec: &str) -> Result<Vec<String>, String> {
    let rest = rest.ok_or_else(|| bad(spec))?;
    let ps: Vec<String> = rest.splitn(n, ':').map(str::to_string).collect();
    if ps.len() != n {
        Err(bad(spec))
    } else {
        Ok(ps)
    }
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
            let vals: Vec<String> = changes
                .iter()
                .map(|(t, v)| format!("{t}@{v}"))
                .collect();
            format!("vector:{}", vals.join(";"))
        }
        _ => kind.mnemonic().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::Time;

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
        assert!(Netlist::from_text("node a 1\nnode y 1\nelem g frobnicate delay=1 in=a out=y\n").is_err());
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
            ("vector:0@1'b0;4@2'b11", 1, "vector values must all have the same width"),
            ("pattern:3:1'b0;4'b1010", 1, "pattern values must all have the same width"),
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
            assert!(!parsim_logic::expand_generator(kind, Time(20)).is_empty(), "{spec}");
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
