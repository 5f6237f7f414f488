//! The netlist graph: nodes, elements, and fan-out adjacency.

use parsim_logic::{Delay, ElementKind};
use std::collections::HashMap;
use std::sync::Arc;

use crate::ids::{ElemId, NodeId};

/// A net: a named, width-carrying wire driven by at most one element port.
///
/// Fan-out lists `(element, input port)` pairs; both engines use them to
/// activate downstream elements when the node changes.
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) name: Arc<str>,
    pub(crate) width: u8,
    pub(crate) driver: Option<(ElemId, u8)>,
    pub(crate) fanout: Vec<(ElemId, u16)>,
}

impl Node {
    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's width in bits.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// The driving `(element, output port)`, if any. Undriven nodes float
    /// at `X` forever.
    pub fn driver(&self) -> Option<(ElemId, u8)> {
        self.driver
    }

    /// The `(element, input port)` pairs this node feeds.
    pub fn fanout(&self) -> &[(ElemId, u16)] {
        &self.fanout
    }
}

/// An instantiated element: a kind, a propagation delay, and its port
/// connections.
#[derive(Debug, Clone)]
pub struct Element {
    pub(crate) name: Arc<str>,
    pub(crate) kind: ElementKind,
    pub(crate) delay: Delay,
    pub(crate) fall: Delay,
    /// Input nodes then output nodes, in port order: one allocation.
    pub(crate) ports: Box<[NodeId]>,
    pub(crate) num_inputs: usize,
}

impl Element {
    /// The element's instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The element's model.
    pub fn kind(&self) -> &ElementKind {
        &self.kind
    }

    /// The rise propagation delay (and the fall delay too, for elements
    /// built with a single symmetric delay).
    pub fn delay(&self) -> Delay {
        self.delay
    }

    /// The rise propagation delay (output transitions toward 1).
    pub fn rise_delay(&self) -> Delay {
        self.delay
    }

    /// The fall propagation delay (output transitions toward 0).
    pub fn fall_delay(&self) -> Delay {
        self.fall
    }

    /// The smaller of the rise and fall delays — the engines' conservative
    /// bound for validity propagation.
    pub fn min_delay(&self) -> Delay {
        self.delay.min(self.fall)
    }

    /// Input nodes in port order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.ports[..self.num_inputs]
    }

    /// Output nodes in port order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.ports[self.num_inputs..]
    }
}

/// An immutable, validated circuit graph.
///
/// Create one with [`Builder`](crate::Builder) or parse the text format via
/// [`Netlist::from_text`]. All four simulation engines take a `&Netlist`
/// and never mutate it, so one netlist can back many concurrent
/// simulations.
///
/// # Examples
///
/// ```
/// use parsim_logic::{Delay, ElementKind};
/// use parsim_netlist::Builder;
///
/// # fn main() -> Result<(), parsim_netlist::BuildError> {
/// let mut b = Builder::new();
/// let a = b.node("a", 1);
/// let y = b.node("y", 1);
/// b.element("inv", ElementKind::Not, Delay(1), &[a], &[y])?;
/// let n = b.finish()?;
/// assert_eq!(n.node_by_name("y").map(|id| n.node(id).width()), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) nodes: Vec<Node>,
    pub(crate) elements: Vec<Element>,
    /// Name lookups; each key shares its allocation with the name stored
    /// in the node or element.
    pub(crate) node_names: HashMap<Arc<str>, NodeId>,
    pub(crate) elem_names: HashMap<Arc<str>, ElemId>,
}

impl Netlist {
    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The number of elements.
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks up an element.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn element(&self, id: ElemId) -> &Element {
        &self.elements[id.index()]
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All elements in id order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Iterates over `(id, node)` pairs.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Iterates over `(id, element)` pairs.
    pub fn iter_elements(&self) -> impl Iterator<Item = (ElemId, &Element)> {
        self.elements
            .iter()
            .enumerate()
            .map(|(i, e)| (ElemId::from_index(i), e))
    }

    /// Finds a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_names.get(name).copied()
    }

    /// Finds an element by name.
    pub fn element_by_name(&self, name: &str) -> Option<ElemId> {
        self.elem_names.get(name).copied()
    }

    /// Ids of all generator elements (the paper's "gen" elements).
    pub fn generators(&self) -> Vec<ElemId> {
        self.iter_elements()
            .filter(|(_, e)| e.kind.is_generator())
            .map(|(id, _)| id)
            .collect()
    }

    /// The largest element delay.
    pub fn max_delay(&self) -> Delay {
        self.elements
            .iter()
            .map(|e| e.delay.max(e.fall))
            .max()
            .unwrap_or(Delay(0))
    }

    /// The smallest element delay.
    pub fn min_delay(&self) -> Delay {
        self.elements
            .iter()
            .map(|e| e.delay.min(e.fall))
            .min()
            .unwrap_or(Delay(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Builder;
    use parsim_logic::Value;

    fn tiny() -> Netlist {
        let mut b = Builder::new();
        let a = b.node("a", 1);
        let y = b.node("y", 1);
        b.element(
            "src",
            ElementKind::Const {
                value: Value::bit(true),
            },
            Delay(1),
            &[],
            &[a],
        )
        .unwrap();
        b.element("inv", ElementKind::Not, Delay(2), &[a], &[y])
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn lookups_work() {
        let n = tiny();
        let a = n.node_by_name("a").unwrap();
        assert_eq!(n.node(a).name(), "a");
        assert_eq!(n.node(a).fanout().len(), 1);
        let inv = n.element_by_name("inv").unwrap();
        assert_eq!(n.element(inv).inputs(), &[a]);
        assert_eq!(n.element(inv).delay(), Delay(2));
        assert!(n.node_by_name("zzz").is_none());
    }

    #[test]
    fn generators_and_delays() {
        let n = tiny();
        assert_eq!(n.generators().len(), 1);
        assert_eq!(n.max_delay(), Delay(2));
        assert_eq!(n.min_delay(), Delay(1));
    }

    #[test]
    fn driver_tracking() {
        let n = tiny();
        let y = n.node_by_name("y").unwrap();
        let (drv, port) = n.node(y).driver().unwrap();
        assert_eq!(n.element(drv).name(), "inv");
        assert_eq!(port, 0);
    }
}
