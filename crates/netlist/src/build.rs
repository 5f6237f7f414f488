//! Validating netlist construction.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use parsim_logic::{Delay, ElementKind};

use crate::graph::{Element, Netlist, Node};
use crate::ids::{ElemId, NodeId};

/// Errors detected while building a netlist.
///
/// # Examples
///
/// ```
/// use parsim_logic::{Delay, ElementKind};
/// use parsim_netlist::{BuildError, Builder};
///
/// let mut b = Builder::new();
/// let a = b.node("a", 1);
/// let err = b
///     .element("bad", ElementKind::Not, Delay(1), &[a, a], &[a])
///     .unwrap_err();
/// assert!(matches!(err, BuildError::Arity { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// An element was connected to the wrong number of inputs.
    Arity { element: String, detail: String },
    /// An element was connected to the wrong number of outputs.
    OutputCount {
        element: String,
        expected: usize,
        got: usize,
    },
    /// A port was connected to a node of the wrong width.
    Width {
        element: String,
        port: String,
        expected: u8,
        got: u8,
    },
    /// Two elements drive the same node.
    MultipleDrivers { node: String },
    /// Two nodes or two elements share a name.
    DuplicateName { name: String },
    /// An element delay of zero, which the asynchronous engine cannot
    /// accept (valid times must strictly advance around feedback loops).
    ZeroDelay { element: String },
    /// A node id from a different builder.
    UnknownNode { element: String },
    /// A node width outside `1..=64`.
    InvalidWidth { name: String, width: u8 },
    /// A fan-out or driver entry that does not cross-reference an actual
    /// element port — the graph invariant every engine's unchecked indexing
    /// relies on. Unreachable through [`Builder`]; guards netlists
    /// assembled or transformed by other code.
    DanglingFanout { node: String, detail: String },
    /// A zero-delay element on a feedback path, around which valid times
    /// could not strictly advance (the asynchronous engine would livelock).
    ZeroDelayCycle { element: String },
}

/// The full netlist construction/validation error type.
///
/// Alias of [`BuildError`]: eager per-element checks and the global
/// [`Netlist::validate`](crate::Netlist::validate) pass report through the
/// same enum.
pub type NetlistError = BuildError;

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Arity { element, detail } => {
                write!(f, "element `{element}`: {detail}")
            }
            BuildError::OutputCount {
                element,
                expected,
                got,
            } => write!(
                f,
                "element `{element}` expects {expected} outputs, got {got}"
            ),
            BuildError::Width {
                element,
                port,
                expected,
                got,
            } => write!(
                f,
                "element `{element}` port {port} expects width {expected}, got {got}"
            ),
            BuildError::MultipleDrivers { node } => {
                write!(f, "node `{node}` has multiple drivers")
            }
            BuildError::DuplicateName { name } => write!(f, "duplicate name `{name}`"),
            BuildError::ZeroDelay { element } => write!(
                f,
                "element `{element}` has zero delay; all delays must be >= 1 tick"
            ),
            BuildError::UnknownNode { element } => {
                write!(f, "element `{element}` references an unknown node")
            }
            BuildError::InvalidWidth { name, width } => {
                write!(f, "node `{name}` has width {width}; widths must be 1..=64")
            }
            BuildError::DanglingFanout { node, detail } => {
                write!(f, "node `{node}` has a dangling connection: {detail}")
            }
            BuildError::ZeroDelayCycle { element } => write!(
                f,
                "element `{element}` sits on a feedback path with zero delay; \
                 valid times cannot advance around the loop"
            ),
        }
    }
}

impl Error for BuildError {}

/// Incrementally constructs a validated [`Netlist`].
///
/// Nodes are created first with [`Builder::node`]; elements connect them
/// with [`Builder::element`]. Every connection is checked eagerly — arity,
/// port widths, single-driver rule, nonzero delay — so a successful
/// [`Builder::finish`] yields a netlist every engine can run without
/// further checks.
///
/// # Examples
///
/// ```
/// use parsim_logic::{Delay, ElementKind, Value};
/// use parsim_netlist::Builder;
///
/// # fn main() -> Result<(), parsim_netlist::BuildError> {
/// let mut b = Builder::new();
/// let a = b.node("a", 1);
/// let y = b.node("y", 1);
/// b.element(
///     "c",
///     ElementKind::Const { value: Value::bit(true) },
///     Delay(1),
///     &[],
///     &[a],
/// )?;
/// b.element("g", ElementKind::Buf, Delay(1), &[a], &[y])?;
/// let netlist = b.finish()?;
/// assert_eq!(netlist.num_nodes(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Builder {
    nodes: Vec<Node>,
    elements: Vec<Element>,
    node_names: HashMap<Arc<str>, NodeId>,
    elem_names: HashMap<Arc<str>, ElemId>,
    auto_node: u64,
}

impl Builder {
    /// Creates an empty builder.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// An empty builder with room for `nodes` nodes and `elements`
    /// elements, so the tables of a netlist whose size is known up front
    /// (a parsed file) are allocated once instead of grown and rehashed.
    pub(crate) fn with_capacity(nodes: usize, elements: usize) -> Builder {
        Builder {
            nodes: Vec::with_capacity(nodes),
            elements: Vec::with_capacity(elements),
            node_names: HashMap::with_capacity(nodes),
            elem_names: HashMap::with_capacity(elements),
            auto_node: 0,
        }
    }

    /// Declares a node.
    ///
    /// If `name` is already taken, a unique suffix is appended (duplicate
    /// declarations are common in generated circuits; the final netlist
    /// still has unique names). Returns the node's id.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64. Use
    /// [`Builder::try_node`] to get a typed error instead.
    pub fn node(&mut self, name: &str, width: u8) -> NodeId {
        match self.try_node(name, width) {
            Ok(id) => id,
            Err(e) => panic!("node width must be 1..=64: {e}"),
        }
    }

    /// Declares a node, reporting an invalid width as a typed error
    /// instead of panicking (the non-panicking form of [`Builder::node`]).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidWidth`] if `width` is 0 or greater
    /// than 64.
    pub fn try_node(&mut self, name: &str, width: u8) -> Result<NodeId, BuildError> {
        if !(1..=64).contains(&width) {
            return Err(BuildError::InvalidWidth {
                name: name.to_string(),
                width,
            });
        }
        let id = NodeId::from_index(self.nodes.len());
        // One allocation and one hash per name: the map key and the node
        // share the name, and a free name is claimed where it was looked up.
        let mut candidate: Arc<str> = Arc::from(name);
        let unique = loop {
            match self.node_names.entry(candidate) {
                Entry::Vacant(slot) => {
                    let unique = slot.key().clone();
                    slot.insert(id);
                    break unique;
                }
                Entry::Occupied(_) => {
                    self.auto_node += 1;
                    candidate = format!("{name}__{}", self.auto_node).into();
                }
            }
        };
        self.nodes.push(Node {
            name: unique,
            width,
            driver: None,
            fanout: Vec::new(),
        });
        Ok(id)
    }

    /// Looks up a previously declared node by name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.node_names.get(name).copied()
    }

    /// Declares a fresh anonymous node.
    pub fn fresh(&mut self, width: u8) -> NodeId {
        self.auto_node += 1;
        let name = format!("_t{}", self.auto_node);
        self.node(&name, width)
    }

    /// Instantiates an element connecting `inputs` to `outputs`.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the arity, output count, any port width,
    /// the single-driver rule, or the nonzero-delay rule is violated.
    pub fn element(
        &mut self,
        name: &str,
        kind: ElementKind,
        delay: Delay,
        inputs: &[NodeId],
        outputs: &[NodeId],
    ) -> Result<ElemId, BuildError> {
        self.element_with_delays(name, kind, delay, delay, inputs, outputs)
    }

    /// Instantiates an element with an asymmetric rise/fall delay pair:
    /// output transitions toward 1 take `rise` ticks, toward 0 take
    /// `fall` ticks; vector or unknown transitions take the larger. A
    /// pulse shorter than the delay difference is stretched rather than
    /// cancelled (the engines keep each node's event times monotone), a
    /// transport-delay approximation all four engines apply identically.
    ///
    /// # Errors
    ///
    /// Same as [`Builder::element`], with the zero-delay rule applied to
    /// both delays.
    pub fn element_with_delays(
        &mut self,
        name: &str,
        kind: ElementKind,
        rise: Delay,
        fall: Delay,
        inputs: &[NodeId],
        outputs: &[NodeId],
    ) -> Result<ElemId, BuildError> {
        let element = || name.to_string();
        // The name is allocated and hashed once, for the element and the
        // lookup table both. A clash is reported before any other check;
        // the vacant slot is filled only once every check has passed.
        let slot = match self.elem_names.entry(Arc::from(name)) {
            Entry::Occupied(_) => return Err(BuildError::DuplicateName { name: element() }),
            Entry::Vacant(slot) => slot,
        };
        if (rise.ticks() == 0 || fall.ticks() == 0) && !kind.is_generator() {
            return Err(BuildError::ZeroDelay { element: element() });
        }
        kind.check_arity(inputs.len())
            .map_err(|e| BuildError::Arity {
                element: element(),
                detail: e.to_string(),
            })?;
        if outputs.len() != kind.num_outputs() {
            return Err(BuildError::OutputCount {
                element: element(),
                expected: kind.num_outputs(),
                got: outputs.len(),
            });
        }
        if inputs
            .iter()
            .chain(outputs)
            .any(|n| n.index() >= self.nodes.len())
        {
            return Err(BuildError::UnknownNode { element: element() });
        }
        check_generator(name, &kind)?;
        Builder::check_widths(&self.nodes, name, &kind, inputs, outputs)?;
        // Single-driver rule.
        if let Some(driven) = outputs
            .iter()
            .find(|o| self.nodes[o.index()].driver.is_some())
        {
            return Err(BuildError::MultipleDrivers {
                node: self.nodes[driven.index()].name.to_string(),
            });
        }
        let id = ElemId::from_index(self.elements.len());
        for (port, &out) in outputs.iter().enumerate() {
            self.nodes[out.index()].driver = Some((id, port as u8));
        }
        self.elements.push(Element {
            name: slot.key().clone(),
            kind,
            delay: rise,
            fall,
            ports: inputs.iter().chain(outputs).copied().collect(),
            num_inputs: inputs.len(),
        });
        slot.insert(id);
        Ok(id)
    }

    /// Called with the node table alone: `element_with_delays` holds the name
    /// table's vacant slot across the checks.
    fn check_widths(
        nodes: &[Node],
        ename: &str,
        kind: &ElementKind,
        inputs: &[NodeId],
        outputs: &[NodeId],
    ) -> Result<(), BuildError> {
        let w = |n: NodeId| nodes[n.index()].width;
        let expect = |port: &str, expected: u8, got: u8| -> Result<(), BuildError> {
            if expected == got {
                Ok(())
            } else {
                Err(BuildError::Width {
                    element: ename.to_string(),
                    port: port.to_string(),
                    expected,
                    got,
                })
            }
        };
        if kind.is_width_generic() {
            // All inputs and the output share the first input's width.
            let base = w(inputs[0]);
            if let Some(i) = inputs.iter().position(|&inp| w(inp) != base) {
                expect(&format!("in{i}"), base, w(inputs[i]))?;
            }
            expect("out0", base, w(outputs[0]))?;
            return Ok(());
        }
        match kind {
            ElementKind::Mux { width } => {
                expect("sel", 1, w(inputs[0]))?;
                expect("a", *width, w(inputs[1]))?;
                expect("b", *width, w(inputs[2]))?;
                expect("out", *width, w(outputs[0]))?;
            }
            ElementKind::Dff { width }
            | ElementKind::Latch { width }
            | ElementKind::TriBuf { width } => {
                expect("clk/en", 1, w(inputs[0]))?;
                expect("d", *width, w(inputs[1]))?;
                expect("q", *width, w(outputs[0]))?;
            }
            ElementKind::Memory { addr_bits, width } => {
                if *addr_bits == 0 || *addr_bits > 12 {
                    return Err(BuildError::Arity {
                        element: ename.to_string(),
                        detail: "memory addr_bits must be 1..=12".to_string(),
                    });
                }
                expect("clk", 1, w(inputs[0]))?;
                expect("we", 1, w(inputs[1]))?;
                expect("addr", *addr_bits, w(inputs[2]))?;
                expect("wdata", *width, w(inputs[3]))?;
                expect("rdata", *width, w(outputs[0]))?;
            }
            ElementKind::Resolver { width } => {
                if let Some(i) = inputs.iter().position(|&inp| w(inp) != *width) {
                    expect(&format!("in{i}"), *width, w(inputs[i]))?;
                }
                expect("out", *width, w(outputs[0]))?;
            }
            ElementKind::DffR { width } => {
                expect("clk", 1, w(inputs[0]))?;
                expect("d", *width, w(inputs[1]))?;
                expect("rst", 1, w(inputs[2]))?;
                expect("q", *width, w(outputs[0]))?;
            }
            ElementKind::Adder { width } => {
                expect("a", *width, w(inputs[0]))?;
                expect("b", *width, w(inputs[1]))?;
                expect("cin", 1, w(inputs[2]))?;
                expect("sum", *width, w(outputs[0]))?;
                expect("cout", 1, w(outputs[1]))?;
            }
            ElementKind::Subtractor { width } => {
                expect("a", *width, w(inputs[0]))?;
                expect("b", *width, w(inputs[1]))?;
                expect("diff", *width, w(outputs[0]))?;
            }
            ElementKind::Multiplier { width } => {
                expect("a", *width, w(inputs[0]))?;
                expect("b", *width, w(inputs[1]))?;
                expect("p", kind.output_width(0), w(outputs[0]))?;
            }
            ElementKind::Comparator { width } => {
                expect("a", *width, w(inputs[0]))?;
                expect("b", *width, w(inputs[1]))?;
                expect("eq", 1, w(outputs[0]))?;
                expect("lt", 1, w(outputs[1]))?;
            }
            ElementKind::Slice {
                in_width,
                lo,
                width,
            } => {
                if *lo as u16 + *width as u16 > *in_width as u16 {
                    return Err(BuildError::Arity {
                        element: ename.to_string(),
                        detail: "slice range exceeds input width".to_string(),
                    });
                }
                expect("in", *in_width, w(inputs[0]))?;
                expect("out", *width, w(outputs[0]))?;
            }
            ElementKind::ZeroExt {
                in_width,
                out_width,
            } => {
                if out_width < in_width {
                    return Err(BuildError::Arity {
                        element: ename.to_string(),
                        detail: "zero-extension must not narrow".to_string(),
                    });
                }
                expect("in", *in_width, w(inputs[0]))?;
                expect("out", *out_width, w(outputs[0]))?;
            }
            ElementKind::Shl {
                in_width,
                out_width,
                amount,
            } => {
                if *amount as u16 + *in_width as u16 > 64 {
                    return Err(BuildError::Arity {
                        element: ename.to_string(),
                        detail: "shift amount plus input width exceeds 64".to_string(),
                    });
                }
                expect("in", *in_width, w(inputs[0]))?;
                expect("out", *out_width, w(outputs[0]))?;
            }
            // Generators: output width fixed by the kind.
            k if k.is_generator() => {
                expect("out", k.output_width(0), w(outputs[0]))?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Instantiates `sub` as a subcircuit.
    ///
    /// Every node and element of `sub` is copied with its name prefixed
    /// `"{prefix}."`, except nodes listed in `bindings`, which are
    /// redirected to existing nodes of this builder (the instance's
    /// ports). Returns the mapping from `sub`'s node names to the node
    /// ids used in this builder.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if a binding names an unknown node of
    /// `sub`, a bound node's width differs, or copying an element violates
    /// the usual rules (e.g. binding an internally driven node to a node
    /// that already has a driver).
    ///
    /// # Examples
    ///
    /// ```
    /// use parsim_logic::{Delay, ElementKind};
    /// use parsim_netlist::Builder;
    ///
    /// # fn main() -> Result<(), parsim_netlist::BuildError> {
    /// // A reusable inverter cell.
    /// let mut cell = Builder::new();
    /// let a = cell.node("a", 1);
    /// let y = cell.node("y", 1);
    /// cell.element("inv", ElementKind::Not, Delay(1), &[a], &[y])?;
    /// let cell = cell.finish()?;
    ///
    /// // Two chained instances.
    /// let mut top = Builder::new();
    /// let input = top.node("in", 1);
    /// let mid = top.node("mid", 1);
    /// let out = top.node("out", 1);
    /// top.instantiate(&cell, "u0", &[("a", input), ("y", mid)])?;
    /// top.instantiate(&cell, "u1", &[("a", mid), ("y", out)])?;
    /// let n = top.finish()?;
    /// assert_eq!(n.num_elements(), 2);
    /// assert!(n.element_by_name("u0.inv").is_some());
    /// # Ok(())
    /// # }
    /// ```
    pub fn instantiate(
        &mut self,
        sub: &Netlist,
        prefix: &str,
        bindings: &[(&str, NodeId)],
    ) -> Result<HashMap<String, NodeId>, BuildError> {
        // Resolve bindings against the subcircuit.
        let mut map: HashMap<String, NodeId> = HashMap::new();
        for &(name, target) in bindings {
            let sub_node = sub.node_by_name(name).ok_or_else(|| BuildError::Arity {
                element: format!("{prefix}.{name}"),
                detail: "binding names a node the subcircuit does not have".to_string(),
            })?;
            let expected = sub.node(sub_node).width();
            let got = self.nodes[target.index()].width;
            if expected != got {
                return Err(BuildError::Width {
                    element: format!("{prefix} (instance)"),
                    port: name.to_string(),
                    expected,
                    got,
                });
            }
            map.insert(name.to_string(), target);
        }
        // Copy unbound nodes with prefixed names.
        for (_, node) in sub.iter_nodes() {
            if !map.contains_key(node.name()) {
                let id = self.node(&format!("{prefix}.{}", node.name()), node.width());
                map.insert(node.name().to_string(), id);
            }
        }
        // Copy elements, rewiring through the map.
        for (_, e) in sub.iter_elements() {
            let inputs: Vec<NodeId> = e
                .inputs()
                .iter()
                .map(|&n| map[sub.node(n).name()])
                .collect();
            let outputs: Vec<NodeId> = e
                .outputs()
                .iter()
                .map(|&n| map[sub.node(n).name()])
                .collect();
            self.element_with_delays(
                &format!("{prefix}.{}", e.name()),
                e.kind().clone(),
                e.rise_delay(),
                e.fall_delay(),
                &inputs,
                &outputs,
            )?;
        }
        Ok(map)
    }

    /// Finalizes the netlist, running the global [`Netlist::validate`]
    /// pass over the assembled graph.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DanglingFanout`] or
    /// [`BuildError::ZeroDelayCycle`] if a global invariant is violated.
    /// Unreachable for graphs built purely through this builder's checked
    /// methods (the eager checks subsume the global ones), but load-bearing
    /// for netlists assembled by transformation passes.
    pub fn finish(mut self) -> Result<Netlist, BuildError> {
        // Fan-out lists are filled only now that every reader is known, so
        // each is allocated once, at its final length.
        let mut readers = vec![0usize; self.nodes.len()];
        for e in &self.elements {
            for n in e.inputs() {
                readers[n.index()] += 1;
            }
        }
        for (node, &n) in self.nodes.iter_mut().zip(&readers) {
            node.fanout.reserve_exact(n);
        }
        for (i, e) in self.elements.iter().enumerate() {
            for (port, n) in e.inputs().iter().enumerate() {
                let entry = (ElemId::from_index(i), port as u16);
                self.nodes[n.index()].fanout.push(entry);
            }
        }
        let netlist = Netlist {
            nodes: self.nodes,
            elements: self.elements,
            node_names: self.node_names,
            elem_names: self.elem_names,
        };
        netlist.validate()?;
        Ok(netlist)
    }
}

/// Rejects generator parameters `parsim_logic::expand_generator` asserts
/// on, so that a malformed stimulus is a build error here and not a panic
/// inside an engine.
fn check_generator(ename: &str, kind: &ElementKind) -> Result<(), BuildError> {
    let detail = match kind {
        ElementKind::Clock { half_period: 0, .. } => "clock half_period must be >= 1",
        ElementKind::Pattern { period: 0, .. } => "pattern period must be >= 1",
        ElementKind::Lfsr { period: 0, .. } => "lfsr period must be >= 1",
        ElementKind::Pattern { values, .. } if values.is_empty() => "pattern must have values",
        ElementKind::Pattern { values, .. }
            if values.iter().any(|v| v.width() != values[0].width()) =>
        {
            "pattern values must all have the same width"
        }
        ElementKind::Vector { changes } if changes.is_empty() => "vector must have changes",
        ElementKind::Vector { changes } if !changes.windows(2).all(|w| w[0].0 < w[1].0) => {
            "vector changes must be strictly increasing in time"
        }
        ElementKind::Vector { changes }
            if changes
                .iter()
                .any(|(_, v)| v.width() != changes[0].1.width()) =>
        {
            "vector values must all have the same width"
        }
        _ => return Ok(()),
    };
    Err(BuildError::Arity {
        element: ename.to_string(),
        detail: detail.to_string(),
    })
}

impl Netlist {
    /// Checks the global graph invariants every engine's unchecked indexing
    /// relies on: fan-out/driver cross-references must name real element
    /// ports, and no zero-delay element may sit on a feedback path.
    ///
    /// [`Builder::finish`] runs this automatically; call it directly after
    /// hand-assembling or transforming a netlist outside the builder.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DanglingFanout`] for a fan-out entry whose
    /// element does not read the node at that port (or a driver entry whose
    /// element does not write it), and [`BuildError::ZeroDelayCycle`] for a
    /// zero-delay element inside a strongly connected component, around
    /// which valid times could not strictly advance.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, node) in self.iter_nodes() {
            for &(elem, port) in node.fanout() {
                let ok = elem.index() < self.num_elements()
                    && self.element(elem).inputs().get(port as usize) == Some(&id);
                if !ok {
                    return Err(BuildError::DanglingFanout {
                        node: node.name().to_string(),
                        detail: format!(
                            "fan-out entry names element #{} input port {port}, \
                             which does not read this node",
                            elem.index()
                        ),
                    });
                }
            }
            if let Some((elem, port)) = node.driver() {
                let ok = elem.index() < self.num_elements()
                    && self.element(elem).outputs().get(port as usize) == Some(&id);
                if !ok {
                    return Err(BuildError::DanglingFanout {
                        node: node.name().to_string(),
                        detail: format!(
                            "driver entry names element #{} output port {port}, \
                             which does not write this node",
                            elem.index()
                        ),
                    });
                }
            }
        }
        // Feedback requires strictly advancing valid times: every element
        // on a cycle (through any mix of combinational and sequential
        // elements) must have nonzero delay. The per-element eager check
        // already forbids zero-delay non-generators, so this only fires on
        // hand-assembled graphs — but those are exactly the ones that would
        // otherwise livelock the asynchronous engine.
        let zero_delay = |e: &Element| e.rise_delay().max(e.fall_delay()).ticks() == 0;
        // A cycle runs through inputs, so a netlist whose only zero-delay
        // elements are generators (every builder-made one) needs no search.
        if !self
            .elements
            .iter()
            .any(|e| zero_delay(e) && !e.inputs().is_empty())
        {
            return Ok(());
        }
        let mut on_cycle = vec![false; self.num_elements()];
        crate::analyze::for_each_component(self, |comp| match *comp {
            [e] => {
                let id = ElemId::from_index(e);
                on_cycle[e] = self
                    .element(id)
                    .outputs()
                    .iter()
                    .any(|&o| self.node(o).fanout().iter().any(|&(c, _)| c == id));
            }
            _ => comp.iter().for_each(|&e| on_cycle[e] = true),
        });
        for (id, e) in self.iter_elements() {
            if on_cycle[id.index()] && zero_delay(e) {
                return Err(BuildError::ZeroDelayCycle {
                    element: e.name().to_string(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::Value;

    #[test]
    fn rejects_zero_delay_on_logic() {
        let mut b = Builder::new();
        let a = b.node("a", 1);
        let y = b.node("y", 1);
        let err = b
            .element("g", ElementKind::Not, Delay(0), &[a], &[y])
            .unwrap_err();
        assert!(matches!(err, BuildError::ZeroDelay { .. }));
    }

    #[test]
    fn rejects_multiple_drivers() {
        let mut b = Builder::new();
        let a = b.node("a", 1);
        let y = b.node("y", 1);
        b.element("g1", ElementKind::Not, Delay(1), &[a], &[y])
            .unwrap();
        let err = b
            .element("g2", ElementKind::Buf, Delay(1), &[a], &[y])
            .unwrap_err();
        assert!(matches!(err, BuildError::MultipleDrivers { .. }));
    }

    #[test]
    fn rejects_width_mismatch() {
        let mut b = Builder::new();
        let a = b.node("a", 4);
        let bb = b.node("b", 8);
        let y = b.node("y", 4);
        let err = b
            .element("g", ElementKind::And, Delay(1), &[a, bb], &[y])
            .unwrap_err();
        assert!(matches!(err, BuildError::Width { .. }));
    }

    #[test]
    fn rejects_adder_port_widths() {
        let mut b = Builder::new();
        let a = b.node("a", 8);
        let c = b.node("b", 8);
        let cin = b.node("cin", 1);
        let sum = b.node("sum", 8);
        let cout = b.node("cout", 8); // wrong: must be 1
        let err = b
            .element(
                "add",
                ElementKind::Adder { width: 8 },
                Delay(1),
                &[a, c, cin],
                &[sum, cout],
            )
            .unwrap_err();
        assert!(matches!(err, BuildError::Width { .. }));
    }

    #[test]
    fn rejects_duplicate_element_names() {
        let mut b = Builder::new();
        let a = b.node("a", 1);
        let y = b.node("y", 1);
        let z = b.node("z", 1);
        b.element("g", ElementKind::Not, Delay(1), &[a], &[y])
            .unwrap();
        let err = b
            .element("g", ElementKind::Not, Delay(1), &[a], &[z])
            .unwrap_err();
        assert!(matches!(err, BuildError::DuplicateName { .. }));
    }

    #[test]
    fn duplicate_node_names_are_uniquified() {
        let mut b = Builder::new();
        let a1 = b.node("a", 1);
        let a2 = b.node("a", 1);
        assert_ne!(a1, a2);
        let n = b.finish().unwrap();
        assert_ne!(n.node(a1).name(), n.node(a2).name());
    }

    #[test]
    fn generator_width_checked() {
        let mut b = Builder::new();
        let out = b.node("out", 4);
        let err = b
            .element(
                "c",
                ElementKind::Const {
                    value: Value::bit(true),
                },
                Delay(1),
                &[],
                &[out],
            )
            .unwrap_err();
        assert!(matches!(err, BuildError::Width { .. }));
    }

    #[test]
    fn empty_stimulus_is_an_error_not_a_panic() {
        // Unreachable from text (the parser refuses an empty list first);
        // `output_width` would index past the end.
        let empty_pattern = ElementKind::Pattern {
            period: 2,
            values: Vec::new().into(),
        };
        let empty_vector = ElementKind::Vector {
            changes: Vec::new().into(),
        };
        for kind in [empty_pattern, empty_vector] {
            let mut b = Builder::new();
            let out = b.node("out", 1);
            let err = b.element("g", kind, Delay(1), &[], &[out]).unwrap_err();
            assert!(matches!(err, BuildError::Arity { .. }), "{err}");
        }
    }

    #[test]
    fn fanout_and_driver_recorded() {
        let mut b = Builder::new();
        let a = b.node("a", 1);
        let y = b.node("y", 1);
        let z = b.node("z", 1);
        b.element("g1", ElementKind::Not, Delay(1), &[a], &[y])
            .unwrap();
        b.element("g2", ElementKind::Not, Delay(1), &[a], &[z])
            .unwrap();
        let n = b.finish().unwrap();
        assert_eq!(n.node(a).fanout().len(), 2);
        assert!(n.node(a).driver().is_none());
        assert!(n.node(y).driver().is_some());
    }

    #[test]
    fn fresh_nodes_are_unique() {
        let mut b = Builder::new();
        let t1 = b.fresh(1);
        let t2 = b.fresh(1);
        assert_ne!(t1, t2);
    }

    fn inverter_cell() -> crate::Netlist {
        let mut cell = Builder::new();
        let a = cell.node("a", 1);
        let y = cell.node("y", 1);
        cell.element("inv", ElementKind::Not, Delay(1), &[a], &[y])
            .unwrap();
        cell.finish().unwrap()
    }

    #[test]
    fn instantiate_copies_and_binds() {
        let cell = inverter_cell();
        let mut top = Builder::new();
        let input = top.node("in", 1);
        let out = top.node("out", 1);
        let map = top
            .instantiate(&cell, "u0", &[("a", input), ("y", out)])
            .unwrap();
        assert_eq!(map["a"], input);
        assert_eq!(map["y"], out);
        let n = top.finish().unwrap();
        assert_eq!(n.num_nodes(), 2, "fully bound: no copies");
        assert!(n.element_by_name("u0.inv").is_some());
        assert!(n.node(out).driver().is_some());
    }

    #[test]
    fn instantiate_copies_internal_nodes() {
        // Double-inverter cell with an internal node.
        let mut cell = Builder::new();
        let a = cell.node("a", 1);
        let mid = cell.node("mid", 1);
        let y = cell.node("y", 1);
        cell.element("i1", ElementKind::Not, Delay(1), &[a], &[mid])
            .unwrap();
        cell.element("i2", ElementKind::Not, Delay(1), &[mid], &[y])
            .unwrap();
        let cell = cell.finish().unwrap();

        let mut top = Builder::new();
        let input = top.node("in", 1);
        let out = top.node("out", 1);
        top.instantiate(&cell, "buf0", &[("a", input), ("y", out)])
            .unwrap();
        let n = top.finish().unwrap();
        assert!(n.node_by_name("buf0.mid").is_some());
        assert_eq!(n.num_elements(), 2);
    }

    #[test]
    fn instantiate_rejects_width_mismatch_and_unknown_port() {
        let cell = inverter_cell();
        let mut top = Builder::new();
        let wide = top.node("w", 4);
        let err = top.instantiate(&cell, "u0", &[("a", wide)]).unwrap_err();
        assert!(matches!(err, BuildError::Width { .. }));
        let ok = top.node("ok", 1);
        let err = top.instantiate(&cell, "u1", &[("zz", ok)]).unwrap_err();
        assert!(matches!(err, BuildError::Arity { .. }));
    }

    #[test]
    fn try_node_rejects_bad_widths_without_panicking() {
        let mut b = Builder::new();
        let err = b.try_node("z", 0).unwrap_err();
        assert!(matches!(err, BuildError::InvalidWidth { width: 0, .. }));
        let err = b.try_node("w", 65).unwrap_err();
        assert!(matches!(err, BuildError::InvalidWidth { width: 65, .. }));
        assert!(b.try_node("ok", 64).is_ok());
    }

    #[test]
    fn validate_accepts_builder_output() {
        let cell = inverter_cell();
        cell.validate().unwrap();
    }

    #[test]
    fn validate_catches_dangling_fanout() {
        // Hand-corrupt a netlist the way a buggy transformation pass
        // might: a fan-out entry pointing at an element that does not read
        // the node.
        let mut n = inverter_cell();
        let a = n.node_by_name("a").unwrap();
        n.nodes[a.index()].fanout.push((ElemId::from_index(7), 0));
        let err = n.validate().unwrap_err();
        assert!(matches!(err, BuildError::DanglingFanout { .. }));
        assert!(err.to_string().contains("dangling"));
    }

    #[test]
    fn validate_catches_dangling_driver() {
        let mut n = inverter_cell();
        let y = n.node_by_name("y").unwrap();
        n.nodes[y.index()].driver = Some((ElemId::from_index(0), 3));
        assert!(matches!(
            n.validate().unwrap_err(),
            BuildError::DanglingFanout { .. }
        ));
    }

    #[test]
    fn validate_catches_zero_delay_cycle() {
        // A two-inverter ring with a zero delay, assembled directly (the
        // builder's eager check would reject the element).
        let mut b = Builder::new();
        let q = b.node("q", 1);
        let qn = b.node("qn", 1);
        b.element("i1", ElementKind::Not, Delay(1), &[q], &[qn])
            .unwrap();
        b.element("i2", ElementKind::Not, Delay(1), &[qn], &[q])
            .unwrap();
        let mut n = b.finish().unwrap();
        n.elements[0].delay = Delay(0);
        n.elements[0].fall = Delay(0);
        let err = n.validate().unwrap_err();
        assert!(matches!(err, BuildError::ZeroDelayCycle { .. }));
        // The same zero delay off any cycle is not a cycle error.
        let mut b = Builder::new();
        let a = b.node("a", 1);
        let y = b.node("y", 1);
        b.element("g", ElementKind::Buf, Delay(1), &[a], &[y])
            .unwrap();
        let mut n = b.finish().unwrap();
        n.elements[0].delay = Delay(0);
        n.elements[0].fall = Delay(0);
        n.validate().unwrap();
    }

    #[test]
    fn instantiate_enforces_single_driver_across_boundary() {
        let cell = inverter_cell();
        let mut top = Builder::new();
        let input = top.node("in", 1);
        let out = top.node("out", 1);
        top.element("drv", ElementKind::Buf, Delay(1), &[input], &[out])
            .unwrap();
        // Binding the cell's driven output to an already-driven node must
        // fail.
        let err = top
            .instantiate(&cell, "u0", &[("a", input), ("y", out)])
            .unwrap_err();
        assert!(matches!(err, BuildError::MultipleDrivers { .. }));
    }
}
