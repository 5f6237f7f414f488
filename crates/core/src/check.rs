//! Cross-engine waveform equivalence checking.
//!
//! The three event-semantics engines (sequential, synchronous parallel,
//! asynchronous) must produce *identical* waveforms on any circuit; the
//! compiled-mode engine matches them on unit-delay circuits. These helpers
//! are used throughout the integration tests and by the harness's
//! self-check.

use std::fmt;

use parsim_netlist::NodeId;

use crate::waveform::{Changes, SimResult};

/// The outcome of comparing two simulation results.
#[derive(Debug, Clone, Default)]
pub struct EquivalenceReport {
    /// Nodes whose waveforms differ, with the first divergence rendered.
    pub mismatches: Vec<(NodeId, String)>,
    /// Nodes compared: every node watched on either side.
    pub compared: usize,
}

impl EquivalenceReport {
    /// True when no watched waveform differs.
    pub fn is_equivalent(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl fmt::Display for EquivalenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_equivalent() {
            write!(f, "{} waveforms identical", self.compared)
        } else {
            writeln!(
                f,
                "{} of {} waveforms differ:",
                self.mismatches.len(),
                self.compared
            )?;
            for (node, detail) in self.mismatches.iter().take(5) {
                writeln!(f, "  {node}: {detail}")?;
            }
            Ok(())
        }
    }
}

/// Compares every waveform watched by either result. A node watched on one
/// side only is a mismatch: an engine that drops a watched waveform is not
/// equivalent to one that records it.
///
/// # Examples
///
/// ```
/// use parsim_core::{equivalence_report, EventDriven, SimConfig};
/// use parsim_logic::Time;
/// # use parsim_logic::{Delay, ElementKind, Value};
/// # use parsim_netlist::Builder;
/// # let mut b = Builder::new();
/// # let a = b.node("a", 1);
/// # b.element("c", ElementKind::Const { value: Value::bit(true) }, Delay(1), &[], &[a]).unwrap();
/// # let netlist = b.finish().unwrap();
/// let cfg = SimConfig::new(Time(10)).watch(a);
/// let r1 = EventDriven::run(&netlist, &cfg).unwrap();
/// let r2 = EventDriven::run(&netlist, &cfg).unwrap();
/// assert!(equivalence_report(&r1, &r2).is_equivalent());
/// ```
pub fn equivalence_report(a: &SimResult, b: &SimResult) -> EquivalenceReport {
    let mut report = EquivalenceReport::default();
    for wa in a.waveforms() {
        let node = wa.node();
        report.compared += 1;
        let detail = match b.waveform(node) {
            Some(wb) if wa.changes().eq(wb.changes()) => continue,
            Some(wb) => first_divergence(wa.changes(), wb.changes()),
            None => "watched on the left only".to_string(),
        };
        report.mismatches.push((node, detail));
    }
    for wb in b.waveforms() {
        if a.waveform(wb.node()).is_none() {
            report.compared += 1;
            let detail = "watched on the right only".to_string();
            report.mismatches.push((wb.node(), detail));
        }
    }
    report
}

fn first_divergence(mut a: Changes<'_>, mut b: Changes<'_>) -> String {
    for i in 0..a.len().max(b.len()) {
        match (a.next(), b.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (x, y) => {
                return format!("change #{i}: left {x:?}, right {y:?}");
            }
        }
    }
    "lengths differ".to_string()
}

/// Asserts that two results are waveform-identical.
///
/// # Panics
///
/// Panics with a rendered report when any watched waveform differs.
pub fn assert_equivalent(a: &SimResult, b: &SimResult, context: &str) {
    let report = equivalence_report(a, b);
    assert!(
        report.is_equivalent(),
        "waveform mismatch ({context}): {report}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::metrics::Metrics;
    use crate::seq::EventDriven;
    use parsim_logic::{Delay, ElementKind, Time, Value};
    use parsim_netlist::Builder;

    #[test]
    fn identical_runs_are_equivalent() {
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        b.element(
            "osc",
            ElementKind::Clock {
                half_period: 2,
                offset: 2,
            },
            Delay(1),
            &[],
            &[clk],
        )
        .unwrap();
        let n = b.finish().unwrap();
        let cfg = SimConfig::new(Time(20)).watch(clk);
        let a = EventDriven::run(&n, &cfg).unwrap();
        let c = EventDriven::run(&n, &cfg).unwrap();
        let rep = equivalence_report(&a, &c);
        assert!(rep.is_equivalent());
        assert_eq!(rep.compared, 1);
        assert_equivalent(&a, &c, "self");
    }

    #[test]
    fn divergence_is_detected_and_rendered() {
        let mut b = Builder::new();
        let x = b.node("x", 1);
        let n = b.finish().unwrap();
        let mk = |changes: Vec<(Time, parsim_netlist::NodeId, Value)>| {
            crate::waveform::SimResult::from_changes(
                &n,
                Time(10),
                &[x],
                changes,
                Metrics::default(),
            )
        };
        let a = mk(vec![(Time(1), x, Value::bit(true))]);
        let c = mk(vec![(Time(2), x, Value::bit(true))]);
        let rep = equivalence_report(&a, &c);
        assert!(!rep.is_equivalent());
        assert!(rep.to_string().contains("waveforms differ"));
    }

    #[test]
    fn a_waveform_watched_on_one_side_only_is_a_mismatch() {
        let mut b = Builder::new();
        let x = b.node("x", 1);
        let y = b.node("y", 1);
        let n = b.finish().unwrap();
        let changes = vec![(Time(1), x, Value::bit(true))];
        let mk = |watch: &[parsim_netlist::NodeId]| {
            let m = Metrics::default();
            crate::waveform::SimResult::from_changes(&n, Time(10), watch, changes.clone(), m)
        };
        let both = mk(&[x, y]);
        let only_x = mk(&[x]);
        for (left, right, side) in [(&both, &only_x, "left"), (&only_x, &both, "right")] {
            let rep = equivalence_report(left, right);
            assert!(!rep.is_equivalent(), "y watched on the {side} only");
            assert_eq!(rep.compared, 2);
            assert_eq!(rep.mismatches.len(), 1);
            assert_eq!(rep.mismatches[0].0, y);
            assert!(
                rep.mismatches[0].1.contains(side),
                "{}",
                rep.mismatches[0].1
            );
        }
    }
}
