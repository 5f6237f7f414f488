//! Structural analyses: levelization, strongly connected components, and
//! feedback detection.
//!
//! The paper's §4 observes that feedback paths "prevent complete processing
//! of each node for all time" and serialize the asynchronous algorithm into
//! event-at-a-time pipelining. These analyses let experiments quantify how
//! much of a circuit sits on feedback paths.

use crate::graph::Netlist;
use crate::ids::ElemId;

/// Combinational levelization.
///
/// Returns, for each element, its level: generators and sequential elements
/// are level 0 sources; each combinational element is one more than the
/// deepest combinational input. Elements on purely combinational cycles
/// (which the builder does not forbid — some oscillators are legitimate)
/// are reported in `cyclic` and given level `u32::MAX`.
///
/// # Examples
///
/// ```
/// use parsim_logic::{Delay, ElementKind, Value};
/// use parsim_netlist::{analyze::levelize, Builder};
///
/// # fn main() -> Result<(), parsim_netlist::BuildError> {
/// let mut b = Builder::new();
/// let a = b.node("a", 1);
/// let m = b.node("m", 1);
/// let y = b.node("y", 1);
/// b.element("c", ElementKind::Const { value: Value::bit(true) }, Delay(1), &[], &[a])?;
/// b.element("g1", ElementKind::Not, Delay(1), &[a], &[m])?;
/// b.element("g2", ElementKind::Not, Delay(1), &[m], &[y])?;
/// let n = b.finish()?;
/// let lv = levelize(&n);
/// assert_eq!(lv.max_level, 2);
/// assert!(lv.cyclic.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn levelize(netlist: &Netlist) -> Levelization {
    let n = netlist.num_elements();
    let mut level = vec![0u32; n];
    let mut indegree = vec![0u32; n];
    // Combinational dependency edges: driver -> consumer, skipping edges
    // out of sequential/generator elements (they break timing paths).
    let mut ready: Vec<usize> = Vec::new();
    let mut max_level_init = 0u32;
    for (i, e) in netlist.elements().iter().enumerate() {
        if e.kind().is_generator() || e.kind().is_sequential() {
            ready.push(i);
            continue;
        }
        level[i] = 1; // combinational elements sit at least one level deep
        let mut deg = 0;
        for &inp in e.inputs() {
            if let Some((drv, _)) = netlist.node(inp).driver() {
                let dk = netlist.element(drv).kind();
                if !dk.is_generator() && !dk.is_sequential() {
                    deg += 1;
                }
            }
        }
        indegree[i] = deg;
        if deg == 0 {
            ready.push(i);
            max_level_init = max_level_init.max(1);
        }
    }
    let mut seen = 0usize;
    let mut max_level = max_level_init;
    while let Some(i) = ready.pop() {
        seen += 1;
        let e = &netlist.elements()[i];
        let is_source = e.kind().is_generator() || e.kind().is_sequential();
        for &out in e.outputs() {
            for &(consumer, _) in netlist.node(out).fanout() {
                let c = consumer.index();
                let ck = netlist.element(consumer).kind();
                if ck.is_generator() || ck.is_sequential() || is_source {
                    continue;
                }
                level[c] = level[c].max(level[i] + 1);
                max_level = max_level.max(level[c]);
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.push(c);
                }
            }
        }
    }
    let cyclic: Vec<ElemId> = (0..n)
        .filter(|&i| indegree[i] > 0)
        .map(ElemId::from_index)
        .collect();
    for c in &cyclic {
        level[c.index()] = u32::MAX;
    }
    debug_assert_eq!(seen + cyclic.len(), n);
    Levelization {
        level,
        max_level,
        cyclic,
    }
}

/// Result of [`levelize`].
#[derive(Debug, Clone)]
pub struct Levelization {
    /// Per-element level, indexed by `ElemId::index()`; `u32::MAX` for
    /// elements on combinational cycles.
    pub level: Vec<u32>,
    /// The deepest acyclic combinational level.
    pub max_level: u32,
    /// Elements on purely combinational cycles.
    pub cyclic: Vec<ElemId>,
}

/// Computes the strongly connected components of the element graph
/// (iterative Tarjan), including edges through sequential elements — this
/// is the *feedback* structure the paper's §4 worries about, where a DFF in
/// a loop still forces event-at-a-time processing.
///
/// Returns components in reverse topological order; singleton components
/// without self-loops are included.
pub fn strongly_connected_components(netlist: &Netlist) -> Vec<Vec<ElemId>> {
    let mut comps: Vec<Vec<ElemId>> = Vec::new();
    for_each_component(netlist, |comp| {
        let mut comp: Vec<ElemId> = comp.iter().map(|&e| ElemId::from_index(e)).collect();
        comp.sort();
        comps.push(comp);
    });
    comps
}

/// The search behind [`strongly_connected_components`]: calls `visit` with
/// each component's element indices (in no particular order) as it closes,
/// without giving each one storage of its own — most components of a real
/// netlist are single elements.
pub(crate) fn for_each_component(netlist: &Netlist, mut visit: impl FnMut(&[usize])) {
    let n = netlist.num_elements();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    // Iterative Tarjan. A frame is an element and the position of its next
    // unvisited successor: (output port, entry in that node's fan-out).
    let mut work: Vec<(usize, usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        work.push((start, 0, 0));
        while let Some(&mut (v, ref mut port, ref mut entry)) = work.last_mut() {
            if index[v] == usize::MAX {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let outputs = netlist.elements()[v].outputs();
            let mut successor = None;
            while let Some(&out) = outputs.get(*port) {
                if let Some(&(consumer, _)) = netlist.node(out).fanout().get(*entry) {
                    *entry += 1;
                    successor = Some(consumer.index());
                    break;
                }
                *port += 1;
                *entry = 0;
            }
            if let Some(w) = successor {
                if index[w] == usize::MAX {
                    work.push((w, 0, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&mut (parent, _, _)) = work.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let root = stack.iter().rposition(|&w| w == v).expect("v is on the stack");
                    for &w in &stack[root..] {
                        on_stack[w] = false;
                    }
                    visit(&stack[root..]);
                    stack.truncate(root);
                }
            }
        }
    }
}

/// The longest combinational path through the netlist, weighted by each
/// element's worst-case (max of rise/fall) delay.
///
/// Returns the total delay in ticks and the elements along the path, from
/// source to sink. Elements on combinational cycles are excluded (their
/// "depth" is unbounded); sequential elements and generators bound the
/// path at both ends. Returns `(0, vec![])` for circuits with no
/// combinational logic.
///
/// This is the settling-time bound circuit generators need when choosing
/// stimulus periods and clock half-periods.
///
/// # Examples
///
/// ```
/// use parsim_logic::{Delay, ElementKind, Value};
/// use parsim_netlist::{analyze::critical_path, Builder};
///
/// # fn main() -> Result<(), parsim_netlist::BuildError> {
/// let mut b = Builder::new();
/// let a = b.node("a", 1);
/// let m = b.node("m", 1);
/// let y = b.node("y", 1);
/// b.element("c", ElementKind::Const { value: Value::bit(true) }, Delay(1), &[], &[a])?;
/// b.element("g1", ElementKind::Not, Delay(3), &[a], &[m])?;
/// b.element("g2", ElementKind::Not, Delay(5), &[m], &[y])?;
/// let n = b.finish()?;
/// let (ticks, path) = critical_path(&n);
/// assert_eq!(ticks, 8);
/// assert_eq!(path.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn critical_path(netlist: &Netlist) -> (u64, Vec<ElemId>) {
    let n = netlist.num_elements();
    let lv = levelize(netlist);
    // Process combinational elements in level order (acyclic by
    // construction; cyclic ones carry level u32::MAX and are skipped).
    let mut order: Vec<usize> = (0..n)
        .filter(|&i| {
            let k = netlist.elements()[i].kind();
            !k.is_generator() && !k.is_sequential() && lv.level[i] != u32::MAX
        })
        .collect();
    order.sort_by_key(|&i| lv.level[i]);
    // arrival[i] = delay-weighted longest path ending at element i
    // (inclusive of i's own delay); pred[i] = previous element on it.
    let mut arrival = vec![0u64; n];
    let mut pred = vec![usize::MAX; n];
    let mut best = (0u64, usize::MAX);
    for &i in &order {
        let e = &netlist.elements()[i];
        let own = e.rise_delay().max(e.fall_delay()).ticks();
        let mut in_arrival = 0u64;
        let mut in_pred = usize::MAX;
        for &inp in e.inputs() {
            if let Some((drv, _)) = netlist.node(inp).driver() {
                let d = drv.index();
                let dk = netlist.element(drv).kind();
                if !dk.is_generator()
                    && !dk.is_sequential()
                    && lv.level[d] != u32::MAX
                    && arrival[d] > in_arrival
                {
                    in_arrival = arrival[d];
                    in_pred = d;
                }
            }
        }
        arrival[i] = in_arrival + own;
        pred[i] = in_pred;
        if arrival[i] > best.0 {
            best = (arrival[i], i);
        }
    }
    if best.1 == usize::MAX {
        return (0, Vec::new());
    }
    let mut path = Vec::new();
    let mut cur = best.1;
    while cur != usize::MAX {
        path.push(ElemId::from_index(cur));
        cur = pred[cur];
    }
    path.reverse();
    (best.0, path)
}

/// Elements that participate in feedback: members of any SCC with more than
/// one element, or with a self-loop.
///
/// # Examples
///
/// ```
/// use parsim_logic::{Delay, ElementKind};
/// use parsim_netlist::{analyze::feedback_elements, Builder};
///
/// # fn main() -> Result<(), parsim_netlist::BuildError> {
/// let mut b = Builder::new();
/// let q = b.node("q", 1);
/// let qn = b.node("qn", 1);
/// b.element("i1", ElementKind::Not, Delay(1), &[q], &[qn])?;
/// b.element("i2", ElementKind::Not, Delay(1), &[qn], &[q])?;
/// let n = b.finish()?;
/// assert_eq!(feedback_elements(&n).len(), 2); // ring oscillator
/// # Ok(())
/// # }
/// ```
pub fn feedback_elements(netlist: &Netlist) -> Vec<ElemId> {
    let mut out = Vec::new();
    for comp in strongly_connected_components(netlist) {
        if comp.len() > 1 {
            out.extend(comp);
        } else {
            let e = comp[0];
            // Self-loop: one of its outputs feeds one of its inputs.
            let elem = netlist.element(e);
            let self_loop = elem.outputs().iter().any(|&o| {
                netlist
                    .node(o)
                    .fanout()
                    .iter()
                    .any(|&(consumer, _)| consumer == e)
            });
            if self_loop {
                out.push(e);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Builder;
    use parsim_logic::{Delay, ElementKind, Value};

    fn chain(len: usize) -> Netlist {
        let mut b = Builder::new();
        let mut prev = b.node("in", 1);
        b.element(
            "src",
            ElementKind::Const {
                value: Value::bit(false),
            },
            Delay(1),
            &[],
            &[prev],
        )
        .unwrap();
        for i in 0..len {
            let next = b.node(&format!("n{i}"), 1);
            b.element(&format!("inv{i}"), ElementKind::Not, Delay(1), &[prev], &[next])
                .unwrap();
            prev = next;
        }
        b.finish().unwrap()
    }

    #[test]
    fn chain_levels_are_depth() {
        let n = chain(5);
        let lv = levelize(&n);
        assert_eq!(lv.max_level, 5);
        assert!(lv.cyclic.is_empty());
    }

    #[test]
    fn ring_oscillator_is_cyclic() {
        let mut b = Builder::new();
        let a = b.node("a", 1);
        let c = b.node("c", 1);
        b.element("i1", ElementKind::Not, Delay(1), &[a], &[c])
            .unwrap();
        b.element("i2", ElementKind::Not, Delay(1), &[c], &[a])
            .unwrap();
        let n = b.finish().unwrap();
        let lv = levelize(&n);
        assert_eq!(lv.cyclic.len(), 2);
        let fb = feedback_elements(&n);
        assert_eq!(fb.len(), 2);
    }

    #[test]
    fn dff_breaks_levelization_but_not_feedback() {
        // clk -> dff -> inv -> back to dff.d : sequential loop.
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        let q = b.node("q", 1);
        let d = b.node("d", 1);
        b.element(
            "c",
            ElementKind::Clock {
                half_period: 5,
                offset: 5,
            },
            Delay(1),
            &[],
            &[clk],
        )
        .unwrap();
        b.element("ff", ElementKind::Dff { width: 1 }, Delay(1), &[clk, d], &[q])
            .unwrap();
        b.element("inv", ElementKind::Not, Delay(1), &[q], &[d])
            .unwrap();
        let n = b.finish().unwrap();
        // Levelization treats the DFF as a source: no combinational cycle.
        let lv = levelize(&n);
        assert!(lv.cyclic.is_empty());
        // But the SCC analysis sees the sequential feedback loop.
        let fb = feedback_elements(&n);
        assert_eq!(fb.len(), 2, "dff and inverter form the loop");
    }

    #[test]
    fn scc_covers_all_elements_once() {
        let n = chain(10);
        let comps = strongly_connected_components(&n);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, n.num_elements());
        let mut ids: Vec<_> = comps.into_iter().flatten().collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n.num_elements());
    }

    #[test]
    fn acyclic_circuit_has_no_feedback() {
        let n = chain(4);
        assert!(feedback_elements(&n).is_empty());
    }

    #[test]
    fn critical_path_weights_by_delay() {
        // Two parallel paths: 3 cheap gates vs 1 expensive gate.
        let mut b = Builder::new();
        let a = b.node("a", 1);
        b.element(
            "src",
            ElementKind::Const {
                value: Value::bit(false),
            },
            Delay(1),
            &[],
            &[a],
        )
        .unwrap();
        let x1 = b.node("x1", 1);
        let x2 = b.node("x2", 1);
        let x3 = b.node("x3", 1);
        b.element("c1", ElementKind::Not, Delay(2), &[a], &[x1]).unwrap();
        b.element("c2", ElementKind::Not, Delay(2), &[x1], &[x2]).unwrap();
        b.element("c3", ElementKind::Not, Delay(2), &[x2], &[x3]).unwrap();
        let y = b.node("y", 1);
        b.element("big", ElementKind::Buf, Delay(100), &[a], &[y]).unwrap();
        let n = b.finish().unwrap();
        let (ticks, path) = critical_path(&n);
        assert_eq!(ticks, 100, "the single slow gate dominates");
        assert_eq!(path.len(), 1);
        assert_eq!(n.element(path[0]).name(), "big");
    }

    #[test]
    fn critical_path_uses_worst_of_rise_fall() {
        let mut b = Builder::new();
        let a = b.node("a", 1);
        let y = b.node("y", 1);
        b.element_with_delays("g", ElementKind::Not, Delay(2), Delay(9), &[a], &[y])
            .unwrap();
        let n = b.finish().unwrap();
        assert_eq!(critical_path(&n).0, 9);
    }

    #[test]
    fn cyclic_and_empty_circuits() {
        let empty = Builder::new().finish().unwrap();
        assert_eq!(critical_path(&empty), (0, vec![]));
        // A ring oscillator: every element cyclic, so no path.
        let mut b = Builder::new();
        let x = b.node("x", 1);
        let yv = b.node("y", 1);
        b.element("i1", ElementKind::Not, Delay(1), &[x], &[yv]).unwrap();
        b.element("i2", ElementKind::Not, Delay(1), &[yv], &[x]).unwrap();
        let ring = b.finish().unwrap();
        assert_eq!(critical_path(&ring).0, 0);
    }
}
