//! The parsim benchmark: netlist text → VCD bytes and submit → result, with
//! a per-layer trace. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! parsim-benchmark --workload NAME --seed N --seconds S --trace 0|1   one measured run
//! parsim-benchmark run [--seed N] [--seconds S] [--runs R] [--out FILE] [--quick]
//! parsim-benchmark compare A.json B.json
//! ```

mod httpc;
mod inputs;
mod json;
mod measure;
mod metrics;
mod pipeline;
mod probes;
mod procfs;
mod report;
mod serve;
mod sizes;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use measure::Plan;

const USAGE: &str = "usage:
  parsim-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
  parsim-benchmark run [--seed N] [--seconds S] [--runs R] [--out FILE] [--quick]
  parsim-benchmark compare A.json B.json";

/// `--flag value` pairs and bare `--quick`, in any order.
struct Flags {
    pairs: Vec<(String, String)>,
    quick: bool,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            quick: false,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--quick" {
                flags.quick = true;
            } else if known.contains(&arg.as_str()) {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?;
                flags.pairs.push((arg.clone(), value.clone()));
            } else {
                return Err(format!("unknown argument `{arg}`"));
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name} must be a number, got `{v}`"))
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.number(name)?
            .ok_or_else(|| format!("{name} is required"))
    }
}

/// One measured run of one workload; the result is the last stdout line.
fn measure_one(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let workload = flags.get("--workload").ok_or("--workload is required")?;
    let seed: u64 = flags.required("--seed")?;
    let seconds: f64 = flags.required("--seconds")?;
    // A quick run does its three ops and stops, whatever the seconds say.
    let plan = Plan {
        seconds: if flags.quick { 0.0 } else { seconds },
        quick: flags.quick,
    };
    let outcome = match flags.get("--trace") {
        Some("0") => measure::end_to_end(workload, seed, &plan)?,
        Some("1") => measure::traced(workload, seed, &plan)?,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    for failure in outcome.failures.iter().take(10) {
        eprintln!("parsim-benchmark: {workload}: failed op: {failure}");
    }
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failures.is_empty())),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failures.len() as f64)),
        ("metrics".into(), metrics::to_json(&outcome.metrics)),
    ]);
    println!("{}", line.render());
    // The line itself says whether the outputs were correct; a run that
    // measured and reported has done its job.
    Ok(true)
}

fn run_all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--seed", "--seconds", "--runs", "--out"])?;
    let opts = report::RunOptions {
        seed: flags.number("--seed")?.unwrap_or(sizes::DEFAULT_SEED),
        seconds: flags.number("--seconds")?.unwrap_or(10),
        runs: flags.number("--runs")?.unwrap_or(1).max(1),
        quick: flags.quick,
        out: flags
            .get("--out")
            .map_or_else(|| measure::out_dir().join("result.json"), PathBuf::from),
    };
    report::run(&opts)
}

fn compare(args: &[String]) -> Result<bool, String> {
    match args {
        [a, b] => report::compare(Path::new(a), Path::new(b)),
        _ => Err("compare takes exactly two result files".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(_) => measure_one(&args),
    };
    match outcome {
        // Failed ops and regressions are reported in full above; the exit
        // code only says that there were some.
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("parsim-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
