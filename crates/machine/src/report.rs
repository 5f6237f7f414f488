//! Model execution reports.

use std::fmt;

/// The outcome of one modeled execution.
///
/// # Examples
///
/// ```
/// use parsim_machine::ModelReport;
///
/// let uni = ModelReport { procs: 1, virtual_time: 1000, busy: vec![1000], events: 10, local_events: 0, remote_events: 0, evaluations: 10, activations: 10, deadlock_recoveries: 0 };
/// let par = ModelReport { procs: 4, virtual_time: 300, busy: vec![250; 4], events: 10, local_events: 0, remote_events: 0, evaluations: 10, activations: 10, deadlock_recoveries: 0 };
/// assert!((par.speedup(&uni) - 3.333).abs() < 0.01);
/// assert!((par.utilization() - 0.833).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Virtual processor count.
    pub procs: usize,
    /// Virtual cycles from start to completion.
    pub virtual_time: u64,
    /// Busy cycles per processor.
    pub busy: Vec<u64>,
    /// Node-change events processed.
    pub events: u64,
    /// Events written into memory homed on the evaluating processor
    /// (the driver's home). Only the chaotic model attributes
    /// event homes; the barrier-synchronous models report zero.
    pub local_events: u64,
    /// Events written into memory homed on another processor.
    pub remote_events: u64,
    /// Element evaluations performed.
    pub evaluations: u64,
    /// Element activations (schedulings).
    pub activations: u64,
    /// Global deadlock detection-and-recovery rounds (always zero with
    /// the paper's incremental validity updates; nonzero only in the
    /// Chandy–Misra ablation).
    pub deadlock_recoveries: u64,
}

impl ModelReport {
    /// Mean processor utilization: busy cycles over `procs × time`.
    pub fn utilization(&self) -> f64 {
        if self.virtual_time == 0 {
            return 1.0;
        }
        let busy: u64 = self.busy.iter().sum();
        busy as f64 / (self.procs as f64 * self.virtual_time as f64)
    }

    /// Speed-up relative to a baseline run (usually the same algorithm at
    /// one processor, as the paper normalizes its figures).
    pub fn speedup(&self, baseline: &ModelReport) -> f64 {
        if self.virtual_time == 0 {
            return 1.0;
        }
        baseline.virtual_time as f64 / self.virtual_time as f64
    }

    /// Events per evaluation — the asynchronous algorithm's batching
    /// factor.
    pub fn events_per_evaluation(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            self.events as f64 / self.evaluations as f64
        }
    }

    /// Fraction of home-attributed events that landed in remote memory
    /// (0.0 when the model doesn't attribute homes).
    pub fn remote_fraction(&self) -> f64 {
        let total = self.local_events + self.remote_events;
        if total == 0 {
            0.0
        } else {
            self.remote_events as f64 / total as f64
        }
    }
}

impl fmt::Display for ModelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} procs: {} cycles, util {:.0}%, {} events / {} evals / {} activations",
            self.procs,
            self.virtual_time,
            self.utilization() * 100.0,
            self.events,
            self.evaluations,
            self.activations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_cases() {
        let r = ModelReport {
            procs: 2,
            virtual_time: 0,
            busy: vec![0, 0],
            events: 0,
            local_events: 0,
            remote_events: 0,
            evaluations: 0,
            activations: 0,
            deadlock_recoveries: 0,
        };
        assert_eq!(r.utilization(), 1.0);
        assert_eq!(r.speedup(&r), 1.0);
        assert_eq!(r.events_per_evaluation(), 0.0);
        assert_eq!(r.remote_fraction(), 0.0);
    }
}
