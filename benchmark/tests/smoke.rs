//! `run --quick`: every workload end to end and traced with three ops each.
//! Checks the plumbing (children, result lines, document, trace files),
//! never the numbers.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn quick_run_writes_a_complete_document_in_under_20_s() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let out = dir.join("smoke-result.json");
    let start = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_parsim-benchmark"))
        .args(["run", "--quick", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("start the benchmark");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    // Debug builds of the engines are several times slower; the limit is
    // for the optimised build the README tells you to test with.
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < Duration::from_secs(20),
            "quick run took {elapsed:?}"
        );
    }

    let doc = std::fs::read_to_string(&out).expect("result document");
    assert!(
        doc.starts_with("{\"schema\":\"parsim-benchmark-v1\",\"host\":{\"nproc\":"),
        "{doc}"
    );
    for key in ["\"git\":", "\"seed\":7", "\"sizes\":{", "\"quick\":true"] {
        assert!(doc.contains(key), "document lacks {key}");
    }
    for workload in [
        "mult16_async",
        "cpu_async",
        "invarray_compiled",
        "mult16_batch",
        "netio_wide",
        "serve_shared",
        "serve_mixed",
    ] {
        assert!(
            doc.contains(&format!("\"name\":\"{workload}\"")),
            "{workload} missing"
        );
        assert!(
            stdout.contains(&format!("{workload}: ")),
            "{workload} not printed"
        );
        let trace = dir.join(format!("trace-{workload}.json"));
        let trace = std::fs::read_to_string(&trace).expect("trace file");
        assert!(trace.contains("\"traceEvents\""), "{workload} trace");
    }
    for metric in [
        "op_ms_p50",
        "core.run_ms",
        "server.submit_ms_p50",
        "bench.trace_overhead_ratio",
    ] {
        assert!(stdout.contains(metric), "{metric} not printed");
    }
    assert!(stdout.contains("failed_op_ratio 0)"), "{stdout}");

    // The same document compared with itself has no regression.
    let compare = Command::new(env!("CARGO_BIN_EXE_parsim-benchmark"))
        .arg("compare")
        .args([&out, &out])
        .output()
        .expect("start compare");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert!(
        table.contains("no regression") && table.contains("base A ="),
        "{table}"
    );
}

#[test]
fn unknown_workload_and_bad_flags_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "cpu_async",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &[
            "--workload",
            "cpu_async",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["compare", "only-one.json"][..],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_parsim-benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert!(!run.status.success(), "{args:?} should fail");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
