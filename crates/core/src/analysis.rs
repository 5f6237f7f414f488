//! Waveform analysis: toggle rates, pulse widths, and glitch detection.
//!
//! Post-processing over [`SimResult`] waveforms — the kind of reporting a
//! simulation user wants after the run (and the data behind activity
//! claims like the paper's "0.1–0.5% per time step").

use parsim_logic::Time;

use crate::waveform::{SimResult, Waveform};

/// Summary statistics for one waveform.
///
/// # Examples
///
/// ```
/// use parsim_core::{EventDriven, SimConfig, WaveformStats};
/// use parsim_logic::{Delay, ElementKind, Time};
/// use parsim_netlist::Builder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Builder::new();
/// let clk = b.node("clk", 1);
/// b.element("osc", ElementKind::Clock { half_period: 5, offset: 5 },
///           Delay(1), &[], &[clk])?;
/// let n = b.finish()?;
/// let r = EventDriven::run(&n, &SimConfig::new(Time(100)).watch(clk))?;
/// let stats = WaveformStats::of(r.waveform(clk).unwrap(), Time(100));
/// // The initial 0 at t=0 plus a toggle every 5 ticks.
/// assert_eq!(stats.transitions, 21);
/// assert!((stats.toggle_rate - 0.21).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaveformStats {
    /// Total value changes.
    pub transitions: usize,
    /// Transitions per tick of simulated time.
    pub toggle_rate: f64,
    /// Shortest interval between consecutive changes (ticks).
    pub min_pulse: Option<u64>,
    /// Longest interval between consecutive changes (ticks).
    pub max_pulse: Option<u64>,
    /// Changes closer together than the node's typical period — a cheap
    /// glitch indicator: intervals strictly shorter than `glitch_window`.
    pub glitches: usize,
    /// The glitch window used (ticks).
    pub glitch_window: u64,
}

impl WaveformStats {
    /// Computes statistics over a waveform through `end`, using a glitch
    /// window of 2 ticks (pulses of width 1 count as glitches).
    pub fn of(waveform: &Waveform, end: Time) -> WaveformStats {
        WaveformStats::with_glitch_window(waveform, end, 2)
    }

    /// Computes statistics with an explicit glitch window.
    pub fn with_glitch_window(
        waveform: &Waveform,
        end: Time,
        glitch_window: u64,
    ) -> WaveformStats {
        let times = waveform.times();
        let mut min_pulse = None;
        let mut max_pulse = None;
        let mut glitches = 0;
        for pair in times.windows(2) {
            let w = pair[1].ticks() - pair[0].ticks();
            min_pulse = Some(min_pulse.map_or(w, |m: u64| m.min(w)));
            max_pulse = Some(max_pulse.map_or(w, |m: u64| m.max(w)));
            if w < glitch_window {
                glitches += 1;
            }
        }
        let span = end.ticks().max(1);
        WaveformStats {
            transitions: times.len(),
            toggle_rate: times.len() as f64 / span as f64,
            min_pulse,
            max_pulse,
            glitches,
            glitch_window,
        }
    }
}

/// An activity report over every watched node of a result.
#[derive(Debug, Clone)]
pub struct ActivityReport {
    /// `(node name, stats)` sorted by descending transition count.
    pub per_node: Vec<(String, WaveformStats)>,
    /// Mean toggle rate across watched nodes.
    pub mean_toggle_rate: f64,
    /// Nodes that never changed (stuck at initial `X` or constant).
    pub quiet_nodes: usize,
}

impl ActivityReport {
    /// Builds the report from a simulation result.
    ///
    /// # Examples
    ///
    /// ```
    /// use parsim_core::{ActivityReport, EventDriven, SimConfig};
    /// use parsim_logic::{Delay, ElementKind, Time};
    /// use parsim_netlist::Builder;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = Builder::new();
    /// let clk = b.node("clk", 1);
    /// let dead = b.node("dead", 1);
    /// b.element("osc", ElementKind::Clock { half_period: 4, offset: 4 },
    ///           Delay(1), &[], &[clk])?;
    /// let n = b.finish()?;
    /// let r = EventDriven::run(
    ///     &n,
    ///     &SimConfig::new(Time(40)).watch(clk).watch(dead),
    /// )?;
    /// let report = ActivityReport::from_result(&r);
    /// assert_eq!(report.quiet_nodes, 1);
    /// assert_eq!(report.per_node[0].0, "clk");
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_result(result: &SimResult) -> ActivityReport {
        let mut per_node: Vec<(String, WaveformStats)> = result
            .waveforms()
            .iter()
            .map(|w| (w.name().to_string(), WaveformStats::of(w, result.end_time)))
            .collect();
        per_node.sort_by_key(|(_, s)| std::cmp::Reverse(s.transitions));
        let quiet_nodes = per_node.iter().filter(|(_, s)| s.transitions == 0).count();
        let mean_toggle_rate = if per_node.is_empty() {
            0.0
        } else {
            per_node.iter().map(|(_, s)| s.toggle_rate).sum::<f64>() / per_node.len() as f64
        };
        ActivityReport {
            per_node,
            mean_toggle_rate,
            quiet_nodes,
        }
    }

    /// The busiest `n` nodes.
    pub fn top(&self, n: usize) -> &[(String, WaveformStats)] {
        &self.per_node[..n.min(self.per_node.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::seq::EventDriven;
    use parsim_logic::{Delay, ElementKind};
    use parsim_netlist::Builder;

    #[test]
    fn pulse_widths_and_glitches() {
        // A pulse generator: 0 -> 1 at 10 -> 0 at 11 (width-1 glitch).
        let mut b = Builder::new();
        let p = b.node("p", 1);
        b.element("pg", ElementKind::Pulse { at: 10, width: 1 }, Delay(1), &[], &[p])
            .unwrap();
        let n = b.finish().unwrap();
        let r = EventDriven::run(&n, &SimConfig::new(Time(50)).watch(p)).unwrap();
        let s = WaveformStats::of(r.waveform(n.node_by_name("p").unwrap()).unwrap(), Time(50));
        assert_eq!(s.transitions, 3); // 0 at t=0, 1 at 10, 0 at 11
        assert_eq!(s.min_pulse, Some(1));
        assert_eq!(s.glitches, 1);
        assert_eq!(s.max_pulse, Some(10));
    }

    #[test]
    fn empty_waveform_stats() {
        let mut b = Builder::new();
        let q = b.node("q", 1);
        let n = b.finish().unwrap();
        let r = EventDriven::run(&n, &SimConfig::new(Time(10)).watch(q)).unwrap();
        let s = WaveformStats::of(r.waveform(q).unwrap(), Time(10));
        assert_eq!(s.transitions, 0);
        assert_eq!(s.min_pulse, None);
        assert_eq!(s.glitches, 0);
        assert_eq!(s.toggle_rate, 0.0);
    }

    #[test]
    fn report_orders_by_activity() {
        let mut b = Builder::new();
        let fast = b.node("fast", 1);
        let slow = b.node("slow", 1);
        b.element(
            "f",
            ElementKind::Clock {
                half_period: 1,
                offset: 1,
            },
            Delay(1),
            &[],
            &[fast],
        )
        .unwrap();
        b.element(
            "s",
            ElementKind::Clock {
                half_period: 20,
                offset: 20,
            },
            Delay(1),
            &[],
            &[slow],
        )
        .unwrap();
        let n = b.finish().unwrap();
        let r = EventDriven::run(&n, &SimConfig::new(Time(100)).watch(fast).watch(slow)).unwrap();
        let report = ActivityReport::from_result(&r);
        assert_eq!(report.per_node[0].0, "fast");
        assert_eq!(report.quiet_nodes, 0);
        assert!(report.mean_toggle_rate > 0.0);
        assert_eq!(report.top(1).len(), 1);
        assert_eq!(report.top(10).len(), 2);
    }
}
