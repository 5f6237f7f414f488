//! The metric tables: names, units, directions and regression bounds.
//! `BENCHMARK.json` repeats them; a test keeps the two in step.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// `compare` calls it a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; the same five on every workload.
///
/// The bounds are three times the widest spread seen between ten runs of
/// one commit on the 2-vCPU reference host, capped at the 0.25 the
/// benchmark contract allows: the host's speed shifts for seconds to
/// minutes at a time, so identical code reads up to 14% apart in
/// `op_ms_p50`, whatever the statistic (see README, "Steadiness").
///
/// Two metrics of the issue's table are not here. `failed_op_ratio`
/// travels beside these as `failed / attempted`, because a gated metric may
/// never read 0 and this one always should. `op_ms_p90` spread up to 26%
/// between identical runs, more than any bound the contract allows, so it
/// would fail the benchmark's own acceptance and gate nothing.
pub const END_TO_END: [Def; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
];

/// One row per layer measurement, grouped by crate.
pub const PER_LAYER: [Def; 54] = [
    layer("netlist.parse_ms", "ms", Lower),
    layer("netlist.parse_mb_per_s", "MB/s", Higher),
    layer("netlist.text_bytes", "bytes", Lower),
    layer("netlist.elements", "count", Lower),
    layer("netlist.lower_ms", "ms", Lower),
    layer("netlist.insns", "count", Lower),
    layer("netlist.partition_ms", "ms", Lower),
    layer("checkpoint.digest_ms", "ms", Lower),
    layer("checkpoint.snapshot_ms", "ms", Lower),
    layer("checkpoint.snapshot_bytes", "bytes", Lower),
    layer("checkpoint.run_overhead_ratio", "ratio", Lower),
    layer("core.run_ms", "ms", Lower),
    layer("core.run_share", "ratio", Lower),
    layer("core.ns_per_event", "ns", Lower),
    layer("core.events_per_s", "1/s", Higher),
    layer("core.events", "count", Lower),
    layer("core.evaluations", "count", Lower),
    layer("core.activations", "count", Lower),
    layer("core.time_steps", "count", Lower),
    layer("core.busy_ratio", "ratio", Higher),
    layer("core.evals_skipped_ratio", "ratio", Higher),
    layer("core.lane_width", "bits", Higher),
    layer("core.locality_ratio", "ratio", Higher),
    layer("core.backoff_parks", "count", Lower),
    layer("core.seq_run_ms", "ms", Lower),
    layer("core.sync_run_ms", "ms", Lower),
    layer("core.vs_seq_ratio", "ratio", Lower),
    layer("core.run_ms_t2", "ms", Lower),
    layer("core.speedup_t2", "ratio", Higher),
    layer("core.vcd_ms", "ms", Lower),
    layer("core.vcd_bytes", "bytes", Lower),
    layer("core.vcd_mb_per_s", "MB/s", Higher),
    layer("core.restrict_ms", "ms", Lower),
    layer("queue.arena_global_allocs", "count", Lower),
    layer("queue.arena_chunk_allocs", "count", Lower),
    layer("queue.pool_misses", "count", Lower),
    layer("queue.grid_sends", "count", Lower),
    layer("queue.spsc_ns_per_msg", "ns", Lower),
    layer("logic.eval_ns_per_gate", "ns", Lower),
    layer("logic.wide_ns_per_word_op", "ns", Lower),
    layer("telemetry.sampled_overhead_ratio", "ratio", Lower),
    layer("telemetry.render_ms", "ms", Lower),
    layer("server.submit_ms_p50", "ms", Lower),
    layer("server.result_wait_ms_p50", "ms", Lower),
    layer("server.inproc_submit_ms_p50", "ms", Lower),
    layer("server.http_overhead_ms", "ms", Lower),
    layer("server.lanes_per_pass", "count", Higher),
    layer("server.cache_hit_ratio", "ratio", Higher),
    layer("server.passes", "count", Lower),
    layer("server.quota_rejections", "count", Lower),
    layer("server.jobs_failed", "count", Lower),
    layer("bench.unattributed_ms", "ms", Lower),
    layer("bench.spans_recorded", "count", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
];

/// Measured values for one of the tables above.
pub struct Values {
    defs: &'static [Def],
    values: Vec<Option<f64>>,
}

impl Values {
    pub fn new(defs: &'static [Def]) -> Values {
        Values {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Records `value` under `name`, which must be in the table.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the table"));
        self.values[i] = Some(value);
    }

    /// Every metric of the table with its value, or the names left unset.
    pub fn finish(&self) -> Result<Vec<(&'static Def, f64)>, String> {
        let missing: Vec<&str> = self
            .defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name)
            .collect();
        if !missing.is_empty() {
            return Err(format!("metrics not measured: {}", missing.join(", ")));
        }
        Ok(self
            .defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| (d, v.expect("checked")))
            .collect())
    }
}

/// The `metrics` object of a result line.
pub fn to_json(values: &[(&'static Def, f64)]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(d, v)| {
                let fields = vec![
                    ("value".to_string(), Json::Num(*v)),
                    ("unit".to_string(), Json::Str(d.unit.to_string())),
                ];
                (d.name.to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;

    #[test]
    fn values_report_what_is_missing() {
        let mut v = Values::new(&END_TO_END);
        v.set("setup_s", 0.5);
        let err = v.finish().err().unwrap();
        assert!(
            err.contains("op_ms_p50") && !err.contains("setup_s"),
            "{err}"
        );
    }

    /// `BENCHMARK.json` at the repository root states the same workloads,
    /// metrics, units, directions and bounds as the tables here.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (m, d) in listed.iter().zip(defs) {
                assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(better),
                    "{}",
                    d.name
                );
                assert_eq!(m.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
    }
}
