//! Prometheus text-format 0.0.4 exposition and a vendored, registry-free
//! format lint.
//!
//! Naming conventions (documented in DESIGN.md §13): every metric lives
//! under the `parsim_` namespace, counters carry the `_total` suffix,
//! per-shard values are labeled `worker="0"`..`worker="driver"`, and the
//! events-per-step histogram is exposed aggregated (cumulative `le`
//! buckets ending in `+Inf`, plus `_sum` and `_count`).

use crate::registry::{Counter, Gauge, HistSnapshot, Registry, HIST_BOUNDS};

/// Renders the registry as Prometheus text-format 0.0.4.
pub fn render(reg: &Registry) -> String {
    let mut out = String::with_capacity(16 * 1024);
    for c in Counter::ALL {
        out.push_str(&format!("# HELP {} {}\n", c.name(), c.help()));
        out.push_str(&format!("# TYPE {} counter\n", c.name()));
        for (i, shard) in reg.shards().iter().enumerate() {
            out.push_str(&format!(
                "{}{{worker=\"{}\"}} {}\n",
                c.name(),
                reg.shard_label(i),
                shard.counter(c)
            ));
        }
    }
    for g in Gauge::ALL {
        out.push_str(&format!("# HELP {} {}\n", g.name(), g.help()));
        out.push_str(&format!("# TYPE {} gauge\n", g.name()));
        for (i, shard) in reg.shards().iter().enumerate() {
            out.push_str(&format!(
                "{}{{worker=\"{}\"}} {}\n",
                g.name(),
                reg.shard_label(i),
                shard.gauge(g)
            ));
        }
    }
    let hist = reg.snapshot().hist;
    let name = "parsim_events_per_step";
    out.push_str(&format!(
        "# HELP {name} Node-change events per active time step\n# TYPE {name} histogram\n"
    ));
    render_histogram(&mut out, name, &hist);
    out
}

/// Emits one histogram's `_bucket`/`_sum`/`_count` samples.
///
/// The `+Inf` bucket and `_count` are derived from the bucket sum rather
/// than the snapshot's `count` field: shards store the bucket slot before
/// the count, so a snapshot taken mid-record can carry `count` one behind
/// (or ahead of) the buckets — emitting the stored count verbatim would
/// intermittently violate the `+Inf == _count >= last bucket` invariant
/// the lint enforces. Bucket-derived totals are consistent by construction.
pub(crate) fn render_histogram(out: &mut String, name: &str, hist: &HistSnapshot) {
    let mut cum = 0u64;
    for (i, bound) in HIST_BOUNDS.iter().enumerate() {
        cum += hist.buckets.get(i).copied().unwrap_or(0);
        out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cum}\n"));
    }
    let total = cum + hist.buckets.get(HIST_BOUNDS.len()).copied().unwrap_or(0);
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {total}\n"));
    out.push_str(&format!("{name}_sum {}\n", hist.sum));
    out.push_str(&format!("{name}_count {total}\n"));
}

/// Validates Prometheus text-format 0.0.4 structure without any metrics
/// registry: line syntax (`# HELP`/`# TYPE` comments, `name{labels} value`
/// samples), metric-name and label grammar, numeric sample values, TYPE
/// declarations preceding their samples, and histogram invariants
/// (cumulative non-decreasing buckets whose `+Inf` bucket equals
/// `_count`). Returns the first violation with its line number.
pub fn lint(text: &str) -> Result<(), String> {
    let mut typed: Vec<(String, String)> = Vec::new(); // (name, type)
    let mut seen_samples: Vec<String> = Vec::new();
    // Histogram bookkeeping per metric: bucket values in order, +Inf, count.
    let mut hist_buckets: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    let mut hist_inf: Vec<(String, f64)> = Vec::new();
    let mut hist_count: Vec<(String, f64)> = Vec::new();

    for (ln, raw) in text.lines().enumerate() {
        let n = ln + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {n}: TYPE without metric name"))?;
                let ty = parts
                    .next()
                    .ok_or_else(|| format!("line {n}: TYPE {name} without a type"))?;
                if !matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {n}: unknown TYPE '{ty}' for {name}"));
                }
                check_name(name, n)?;
                if typed.iter().any(|(m, _)| m == name) {
                    return Err(format!("line {n}: duplicate TYPE for {name}"));
                }
                if seen_samples.iter().any(|s| metric_family(s) == name) {
                    return Err(format!("line {n}: TYPE for {name} after its samples"));
                }
                typed.push((name.to_string(), ty.to_string()));
            } else if let Some(decl) = rest.strip_prefix("HELP ") {
                let name = decl
                    .split_whitespace()
                    .next()
                    .ok_or_else(|| format!("line {n}: HELP without metric name"))?;
                check_name(name, n)?;
            }
            // Other comments are legal free text.
            continue;
        }

        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(['{', ' ', '\t']) {
            Some(i) => (&line[..i], &line[i..]),
            None => return Err(format!("line {n}: sample without a value: '{line}'")),
        };
        check_name(name_part, n)?;
        let (labels, value_part) = if let Some(stripped) = rest.strip_prefix('{') {
            let close = stripped
                .find('}')
                .ok_or_else(|| format!("line {n}: unterminated label set"))?;
            (&stripped[..close], &stripped[close + 1..])
        } else {
            ("", rest)
        };
        let mut le_value: Option<f64> = None;
        if !labels.is_empty() {
            for pair in split_labels(labels, n)? {
                let (k, v) = pair;
                if k == "le" && name_part.ends_with("_bucket") {
                    le_value = Some(parse_le(&v, n)?);
                }
            }
        }
        let mut tail = value_part.split_whitespace();
        let value = tail
            .next()
            .ok_or_else(|| format!("line {n}: sample without a value"))?;
        let value: f64 = parse_value(value, n)?;
        if let Some(ts) = tail.next() {
            ts.parse::<i64>()
                .map_err(|_| format!("line {n}: bad timestamp '{ts}'"))?;
        }
        if tail.next().is_some() {
            return Err(format!("line {n}: trailing tokens after timestamp"));
        }

        let family = metric_family(name_part);
        if let Some((_, ty)) = typed.iter().find(|(m, _)| *m == family) {
            if ty == "counter" && value < 0.0 {
                return Err(format!("line {n}: negative counter {name_part}"));
            }
            if ty == "histogram" {
                if name_part.ends_with("_bucket") {
                    match le_value {
                        Some(le) if le.is_infinite() => hist_inf.push((family, value)),
                        Some(le) => match hist_buckets.iter_mut().find(|(m, _)| *m == family) {
                            Some((_, v)) => v.push((le, value)),
                            None => hist_buckets.push((family, vec![(le, value)])),
                        },
                        None => {
                            return Err(format!("line {n}: histogram bucket without le label"))
                        }
                    }
                } else if name_part.ends_with("_count") {
                    hist_count.push((family, value));
                }
            }
        }
        seen_samples.push(name_part.to_string());
    }

    for (family, buckets) in &hist_buckets {
        let mut prev = (f64::NEG_INFINITY, 0.0);
        for &(le, v) in buckets {
            if le < prev.0 {
                return Err(format!("histogram {family}: le bounds out of order"));
            }
            if v < prev.1 {
                return Err(format!("histogram {family}: bucket counts not cumulative"));
            }
            prev = (le, v);
        }
        let inf = hist_inf
            .iter()
            .find(|(m, _)| m == family)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("histogram {family}: missing le=\"+Inf\" bucket"))?;
        if inf < prev.1 {
            return Err(format!("histogram {family}: +Inf bucket below last bound"));
        }
        if let Some((_, count)) = hist_count.iter().find(|(m, _)| m == family) {
            if (inf - count).abs() > f64::EPSILON {
                return Err(format!(
                    "histogram {family}: +Inf bucket {inf} != _count {count}"
                ));
            }
        } else {
            return Err(format!("histogram {family}: missing _count"));
        }
    }
    Ok(())
}

/// Strips histogram/summary child suffixes to the declared family name.
fn metric_family(name: &str) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base.to_string();
        }
    }
    name.to_string()
}

fn check_name(name: &str, line: usize) -> Result<(), String> {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    if !ok_first || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        return Err(format!("line {line}: invalid metric name '{name}'"));
    }
    Ok(())
}

fn parse_value(v: &str, line: usize) -> Result<f64, String> {
    match v {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => v
            .parse::<f64>()
            .map_err(|_| format!("line {line}: bad sample value '{v}'")),
    }
}

fn parse_le(v: &str, line: usize) -> Result<f64, String> {
    parse_value(v, line).map_err(|_| format!("line {line}: bad le bound '{v}'"))
}

/// Splits `k="v",k2="v2"` label pairs, validating label-name grammar and
/// quote/escape structure.
fn split_labels(s: &str, line: usize) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = s;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line}: label without '='"))?;
        let key = rest[..eq].trim();
        if key.is_empty()
            || !key
                .chars()
                .enumerate()
                .all(|(i, c)| c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()))
        {
            return Err(format!("line {line}: invalid label name '{key}'"));
        }
        let after = &rest[eq + 1..];
        let body = after
            .strip_prefix('"')
            .ok_or_else(|| format!("line {line}: label value must be quoted"))?;
        // Find the closing quote, honoring backslash escapes.
        let mut escaped = false;
        let mut close = None;
        for (i, c) in body.char_indices() {
            if escaped {
                if !matches!(c, '\\' | '"' | 'n') {
                    return Err(format!("line {line}: bad escape '\\{c}' in label value"));
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                close = Some(i);
                break;
            }
        }
        let close = close.ok_or_else(|| format!("line {line}: unterminated label value"))?;
        out.push((key.to_string(), body[..close].to_string()));
        let tail = body[close + 1..].trim_start();
        if tail.is_empty() {
            return Ok(out);
        }
        rest = tail
            .strip_prefix(',')
            .ok_or_else(|| format!("line {line}: expected ',' between labels"))?
            .trim_start();
        if rest.is_empty() {
            return Ok(out); // trailing comma is tolerated
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Counter, Gauge};

    #[test]
    fn rendered_registry_passes_lint() {
        let reg = Registry::new(2);
        reg.worker(0).add(Counter::EventsProcessed, 100);
        reg.worker(1).add(Counter::EventsProcessed, 50);
        reg.worker(1).add(Counter::LookaheadExtensions, 7);
        reg.worker(1).add(Counter::EmptyActivations, 9);
        reg.worker(0).set_gauge(Gauge::SimTime, 400);
        reg.worker(0).record_step_events(3);
        reg.worker(1).record_step_events(1200);
        let text = render(&reg);
        lint(&text).expect("rendered exposition must lint clean");
        assert!(text.contains("parsim_events_total{worker=\"0\"} 100"));
        assert!(text.contains("parsim_events_total{worker=\"driver\"} 0"));
        assert!(text.contains("# TYPE parsim_events_total counter"));
        assert!(text.contains("# TYPE parsim_lookahead_extensions_total counter"));
        assert!(text.contains("parsim_lookahead_extensions_total{worker=\"1\"} 7"));
        assert!(text.contains("# TYPE parsim_empty_activations_total counter"));
        assert!(text.contains("parsim_empty_activations_total{worker=\"1\"} 9"));
        assert!(text.contains("parsim_events_per_step_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("parsim_events_per_step_count 2"));
        assert!(text.contains("parsim_events_per_step_sum 1203"));
    }

    #[test]
    fn buckets_render_cumulative() {
        let reg = Registry::new(1);
        let s = reg.worker(0);
        s.record_step_events(1); // <=1
        s.record_step_events(2); // <=2
        s.record_step_events(2);
        let text = render(&reg);
        assert!(text.contains("parsim_events_per_step_bucket{le=\"1\"} 1"));
        assert!(text.contains("parsim_events_per_step_bucket{le=\"2\"} 3"));
        assert!(text.contains("parsim_events_per_step_bucket{le=\"5\"} 3"));
        lint(&text).unwrap();
    }

    /// Regression: shards store the histogram bucket slot before the
    /// count, so an in-flight `record_step_events` can be snapshotted
    /// with the bucket incremented but the count not (or vice versa).
    /// The exposition must stay lint-clean either way.
    #[test]
    fn torn_histogram_snapshot_renders_lint_clean() {
        for torn_count in [0u64, 1, 2, 7] {
            let hist = HistSnapshot {
                buckets: {
                    let mut b = vec![0u64; HIST_BOUNDS.len() + 1];
                    b[0] = 2; // two steps landed in <=1 ...
                    b[HIST_BOUNDS.len()] = 1; // ... one overflowed
                    b
                },
                count: torn_count, // disagrees with the buckets
                sum: 1003,
                max: 1001,
            };
            let mut text = String::from("# TYPE parsim_events_per_step histogram\n");
            render_histogram(&mut text, "parsim_events_per_step", &hist);
            lint(&text).unwrap_or_else(|e| {
                panic!("torn snapshot (count={torn_count}) must lint clean: {e}\n{text}")
            });
            // +Inf and _count both come from the bucket sum, never the
            // torn count field.
            assert!(text.contains("parsim_events_per_step_bucket{le=\"+Inf\"} 3"));
            assert!(text.contains("parsim_events_per_step_count 3"));
        }
    }

    #[test]
    fn empty_registry_renders_lint_clean() {
        let reg = Registry::new(3);
        let text = render(&reg);
        lint(&text).expect("pre-publish snapshot must lint clean");
        assert!(text.contains("parsim_events_per_step_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("parsim_events_per_step_count 0"));
    }

    #[test]
    fn lint_accepts_well_formed_hand_written_text() {
        let ok = "# HELP x_total things\n# TYPE x_total counter\nx_total{a=\"b\",c=\"d\\\"e\"} 1 1234567\nplain_metric 2.5\n";
        lint(ok).expect("well-formed text");
    }

    #[test]
    fn lint_rejects_malformed_lines() {
        assert!(lint("9bad_name 1\n").is_err(), "bad metric name");
        assert!(lint("x{le=\"1\" 1\n").is_err(), "unterminated labels");
        assert!(lint("x 1 2 3\n").is_err(), "trailing tokens");
        assert!(lint("x notanumber\n").is_err(), "bad value");
        assert!(lint("# TYPE x widget\nx 1\n").is_err(), "unknown type");
        assert!(
            lint("x_total 1\n# TYPE x_total counter\n").is_err(),
            "TYPE after samples"
        );
        assert!(
            lint("# TYPE x counter\nx -1\n").is_err(),
            "negative counter"
        );
        assert!(lint("x{=\"v\"} 1\n").is_err(), "empty label name");
    }

    #[test]
    fn lint_enforces_histogram_invariants() {
        let decreasing = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        assert!(lint(decreasing).is_err(), "non-cumulative buckets");
        let mismatch = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 5\n";
        assert!(lint(mismatch).is_err(), "+Inf != _count");
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(lint(no_inf).is_err(), "missing +Inf bucket");
        let good = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n";
        lint(good).expect("valid histogram");
    }
}
