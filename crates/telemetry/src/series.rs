//! The per-run telemetry artifact: the drained sample series plus the
//! final authoritative snapshot, and its endpoint-shaped JSON rendering.

use crate::registry::{Counter, Gauge, Snapshot, HIST_BOUNDS};
use crate::sampler::Sample;

use parsim_trace::json;

/// Everything telemetry observed over one run: the flight-recorder
/// series (empty unless sampling was configured) and the final registry
/// snapshot, which the run's `Metrics` is built from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTelemetry {
    /// Worker threads the registry was sharded for.
    pub workers: usize,
    /// Wall nanoseconds from registry creation to the final snapshot.
    pub uptime_ns: u64,
    /// Sampling period, when in-run sampling was on.
    pub sampled_every_ns: Option<u64>,
    /// Timestamped samples, oldest first; when sampling was on the last
    /// entry is always the final snapshot.
    pub samples: Vec<Sample>,
    /// The end-of-run aggregate.
    pub finals: Snapshot,
}

fn snapshot_json(out: &mut String, indent: &str, snap: &Snapshot) {
    out.push_str(&format!("{indent}\"counters\": ["));
    for (i, c) in Counter::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&snap.counter(*c).to_string());
    }
    out.push_str("],\n");
    out.push_str(&format!("{indent}\"gauges\": ["));
    for (i, g) in Gauge::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&snap.gauge(*g).to_string());
    }
    out.push_str("],\n");
    let h = &snap.hist;
    out.push_str(&format!(
        "{indent}\"events_per_step\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [{}]}}\n",
        h.count,
        h.sum,
        h.max,
        h.buckets.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", ")
    ));
}

/// Renders the run's telemetry as an endpoint-shaped JSON document:
/// metric name tables once, then compact per-sample value arrays aligned
/// with them. All values are integers; derived rates are left to the
/// consumer so the document never carries a NaN (and the string fields go
/// through [`parsim_trace::json::escape`]).
pub fn render_json(run: &RunTelemetry) -> String {
    let mut out = String::with_capacity(4096 + 512 * run.samples.len());
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema\": \"{}\",\n",
        json::escape("parsim-telemetry-series-v1")
    ));
    out.push_str(&format!("  \"workers\": {},\n", run.workers));
    out.push_str(&format!("  \"uptime_ns\": {},\n", run.uptime_ns));
    out.push_str(&format!(
        "  \"sample_every_ns\": {},\n",
        run.sampled_every_ns.unwrap_or(0)
    ));
    out.push_str(&format!(
        "  \"counter_names\": [{}],\n",
        Counter::ALL
            .iter()
            .map(|c| format!("\"{}\"", json::escape(c.name())))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "  \"gauge_names\": [{}],\n",
        Gauge::ALL
            .iter()
            .map(|g| format!("\"{}\"", json::escape(g.name())))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "  \"hist_bounds\": [{}],\n",
        HIST_BOUNDS.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", ")
    ));
    out.push_str("  \"samples\": [\n");
    for (i, s) in run.samples.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"t_ns\": {},\n", s.t_ns));
        snapshot_json(&mut out, "      ", &s.snap);
        out.push_str(if i + 1 == run.samples.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"final\": {\n");
    snapshot_json(&mut out, "    ", &run.finals);
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn telemetry_with(events: u64, sampled: bool) -> RunTelemetry {
        let reg = Registry::new(1);
        reg.worker(0).add(Counter::EventsProcessed, events);
        reg.worker(0).set_gauge(Gauge::SimTime, events * 2);
        reg.worker(0).record_step_events(events.max(1));
        let finals = reg.snapshot();
        RunTelemetry {
            workers: 1,
            uptime_ns: 1000,
            sampled_every_ns: sampled.then_some(100),
            samples: if sampled {
                vec![Sample { t_ns: 1000, snap: finals.clone() }]
            } else {
                Vec::new()
            },
            finals,
        }
    }

    #[test]
    fn rendered_series_lints_as_json() {
        let run = telemetry_with(42, true);
        let doc = render_json(&run);
        json::lint(&doc).expect("series document must parse as JSON");
        assert!(doc.contains("\"parsim_events_total\""));
        assert!(doc.contains("\"t_ns\": 1000"));
        assert!(!doc.contains("NaN"));
        assert!(!doc.contains("null"));
    }

    #[test]
    fn empty_series_still_renders_final() {
        let run = telemetry_with(7, false);
        let doc = render_json(&run);
        json::lint(&doc).expect("must parse");
        assert!(doc.contains("\"samples\": [\n  ],"));
        assert!(doc.contains("\"final\""));
    }
}
