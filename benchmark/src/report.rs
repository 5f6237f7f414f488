//! `run`: every workload in its own child process, one result document.
//! `compare`: two such documents against the regression bounds.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::inputs::WORKLOADS;
use crate::json::{self, Json};
use crate::metrics::{Better, Def, END_TO_END, PER_LAYER};
use crate::procfs;
use crate::sizes;
use crate::stats::{median, spread};

pub const SCHEMA: &str = "parsim-benchmark-v1";

pub struct RunOptions {
    pub seed: u64,
    pub seconds: u64,
    pub runs: usize,
    pub quick: bool,
    pub out: PathBuf,
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host fingerprint, revision, seed and size constants: the head of every
/// result document.
fn header(opts: &RunOptions) -> Vec<(&'static str, Json)> {
    let host = procfs::host();
    vec![
        ("schema", Json::Str(SCHEMA.into())),
        (
            "host",
            obj(vec![
                ("nproc", Json::Num(host.nproc as f64)),
                ("simd", Json::Str(host.simd.into())),
                ("cpu_model", Json::Str(host.cpu_model)),
                ("mem_total_mb", Json::Num(host.mem_total_mb as f64)),
            ]),
        ),
        ("git", Json::Str(git_revision())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds as f64)),
        ("runs", Json::Num(opts.runs as f64)),
        ("quick", Json::Bool(opts.quick)),
        (
            "sizes",
            Json::Obj(
                sizes::table()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                    .collect(),
            ),
        ),
    ]
}

/// One child's result line.
struct Line {
    attempted: f64,
    failed: f64,
    metrics: Json,
}

/// Re-executes this binary for one workload, so peak RSS and allocator
/// state are the workload's own, and parses its last stdout line.
fn child(workload: &str, opts: &RunOptions, trace: bool) -> Result<Line, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("start child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}): child exited with {}",
            trace as u8, output.status
        ));
    }
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: child printed nothing"))?;
    let doc = json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: no '{key}' in result"))
    };
    Ok(Line {
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics: doc
            .get("metrics")
            .cloned()
            .ok_or_else(|| format!("{workload}: no metrics"))?,
    })
}

/// `{"name": {"unit": u, "samples": [one per run]}}` for one metric table.
fn samples(defs: &[Def], lines: &[Line]) -> Result<Json, String> {
    let mut fields = Vec::new();
    for d in defs {
        let values = lines
            .iter()
            .map(|l| {
                l.metrics
                    .get(d.name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .map(Json::Num)
                    .ok_or_else(|| format!("child result lacks '{}'", d.name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        fields.push((
            d.name.to_string(),
            obj(vec![
                ("unit", Json::Str(d.unit.into())),
                ("samples", Json::Arr(values)),
            ]),
        ));
    }
    Ok(Json::Obj(fields))
}

fn print_table(title: &str, defs: &[Def], table: &Json) {
    println!("  {title}");
    for d in defs {
        let values: Vec<f64> = table
            .get(d.name)
            .and_then(|m| m.get("samples"))
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        if !values.is_empty() {
            println!("    {:<34} {:>16.4} {}", d.name, median(&values), d.unit);
        }
    }
}

/// Runs every workload (end to end, then traced) `opts.runs` times, prints
/// every metric by name with its unit, and writes the result document.
/// `Ok(false)` when any op failed.
pub fn run(opts: &RunOptions) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for name in WORKLOADS {
        let mut e2e = Vec::new();
        let mut traced = Vec::new();
        for _ in 0..opts.runs {
            e2e.push(child(name, opts, false)?);
            traced.push(child(name, opts, true)?);
        }
        let numbers = |pick: fn(&Line) -> f64| {
            Json::Arr(
                e2e.iter()
                    .chain(&traced)
                    .map(|l| Json::Num(pick(l)))
                    .collect(),
            )
        };
        let attempted: f64 = e2e.iter().chain(&traced).map(|l| l.attempted).sum();
        let failed: f64 = e2e.iter().chain(&traced).map(|l| l.failed).sum();
        all_correct &= failed == 0.0;
        let end_to_end = samples(&END_TO_END, &e2e)?;
        let per_layer = samples(&PER_LAYER, &traced)?;
        println!(
            "{name}: {attempted} ops attempted, {failed} failed (failed_op_ratio {})",
            failed / attempted
        );
        print_table("end to end (tracing off)", &END_TO_END, &end_to_end);
        print_table("per layer (traced run)", &PER_LAYER, &per_layer);
        workloads.push(obj(vec![
            ("name", Json::Str(name.into())),
            ("attempted", numbers(|l| l.attempted)),
            ("failed", numbers(|l| l.failed)),
            ("failed_op_ratio", Json::Num(failed / attempted)),
            ("end_to_end", end_to_end),
            ("per_layer", per_layer),
        ]));
    }
    let mut doc = header(opts);
    doc.push(("workloads", Json::Arr(workloads)));
    if let Some(dir) = opts.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, obj(doc).render() + "\n")
        .map_err(|e| format!("write {}: {e}", opts.out.display()))?;
    println!("wrote {}", opts.out.display());
    Ok(all_correct)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    Unresolved,
    Improved,
    Unchanged,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative when better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The rule of one row. A median worse by more than the bound is a
/// regression. Otherwise, where either side's own quartile spread exceeds
/// the bound the row is unresolved, not unchanged, unless every run of `b`
/// reads better than every run of `a`.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let worse_by = worsening(better, median(a), median(b));
    if worse_by > bound {
        return Verdict::Regression;
    }
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worsening(better, x, y) < 0.0));
    let noisy = [a, b].iter().any(|s| spread(s).is_some_and(|s| s > bound));
    match (noisy, all_better) {
        (true, false) => Verdict::Unresolved,
        (_, true) => Verdict::Improved,
        _ if worse_by < -bound => Verdict::Improved,
        _ => Verdict::Unchanged,
    }
}

struct Doc {
    json: Json,
}

impl Doc {
    fn load(path: &Path) -> Result<Doc, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let json = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if json.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{} is not a {SCHEMA} document", path.display()));
        }
        Ok(Doc { json })
    }

    fn workload(&self, name: &str) -> Option<&Json> {
        self.json
            .get("workloads")?
            .as_arr()?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
    }

    fn samples(&self, workload: &str, metric: &str) -> Option<Vec<f64>> {
        let samples = self
            .workload(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("samples")?;
        Some(samples.as_arr()?.iter().filter_map(Json::as_f64).collect())
    }

    fn failed_op_ratio(&self, workload: &str) -> Option<f64> {
        self.workload(workload)?.get("failed_op_ratio")?.as_f64()
    }
}

/// Prints one row per metric × workload, every ratio with its base, and
/// returns whether `b` is free of regressions against `a`.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (Doc::load(a_path)?, Doc::load(b_path)?);
    println!("A = {}\nB = {}", a_path.display(), b_path.display());
    println!(
        "{:<18} {:<15} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound"
    );
    let mut clean = true;
    for name in WORKLOADS {
        for d in &END_TO_END {
            let (Some(sa), Some(sb)) = (a.samples(name, d.name), b.samples(name, d.name)) else {
                return Err(format!(
                    "{name}/{} is missing from one of the documents",
                    d.name
                ));
            };
            if sa.is_empty() || sb.is_empty() {
                return Err(format!("{name}/{} has no samples", d.name));
            }
            let bound = d.bound.expect("end-to-end metrics are bounded");
            let verdict = judge(d.better, bound, &sa, &sb);
            clean &= verdict != Verdict::Regression;
            let widest = [&sa, &sb]
                .iter()
                .filter_map(|s| spread(s))
                .fold(None, |w: Option<f64>, s| Some(w.map_or(s, |w| w.max(s))));
            println!(
                "{:<18} {:<15} {:>12.4} {:>12.4} {:>8.4} {:>8} {:>7.2}  {} (base A = {:.4} {}, {}+{} runs)",
                name,
                d.name,
                median(&sa),
                median(&sb),
                median(&sb) / median(&sa),
                widest.map_or("n/a".to_string(), |w| format!("{w:.4}")),
                bound,
                verdict.name(),
                median(&sa),
                d.unit,
                sa.len(),
                sb.len(),
            );
        }
        let (fa, fb) = (
            a.failed_op_ratio(name).unwrap_or(0.0),
            b.failed_op_ratio(name).unwrap_or(0.0),
        );
        let verdict = if fb > fa { "REGRESSION" } else { "unchanged" };
        clean &= fb <= fa;
        println!(
            "{name:<18} {:<15} {fa:>12.6} {fb:>12.6} {:>8} {:>8} {:>7}  {verdict} (any increase fails)",
            "failed_op_ratio", "-", "-", "0"
        );
    }
    println!(
        "{}",
        if clean {
            "no regression"
        } else {
            "REGRESSION: see rows above"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_median_worse_than_the_bound_is_a_regression() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [112.0, 111.0, 113.0, 112.5, 111.5];
        assert_eq!(judge(Better::Lower, 0.10, &a, &slower), Verdict::Regression);
        assert_eq!(
            judge(Better::Higher, 0.10, &slower, &a),
            Verdict::Regression
        );
        let a_bit_slower = [104.0, 105.0, 103.0, 104.5, 104.2];
        assert_eq!(
            judge(Better::Lower, 0.10, &a, &a_bit_slower),
            Verdict::Unchanged
        );
        let faster = [80.0, 81.0, 79.0, 80.5, 80.2];
        assert_eq!(judge(Better::Lower, 0.10, &a, &faster), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let b = [101.0, 102.0, 100.0, 103.0, 99.0];
        assert_eq!(judge(Better::Lower, 0.10, &noisy, &b), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        let all_better = [70.0, 71.0, 72.0, 73.0, 74.0];
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy, &all_better),
            Verdict::Improved
        );
        // A single run has no spread to speak of.
        assert_eq!(
            judge(Better::Lower, 0.10, &[100.0], &[101.0]),
            Verdict::Unchanged
        );
    }
}
