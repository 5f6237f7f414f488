//! Chrome `trace_events` JSON exporter.
//!
//! Produces the [Trace Event Format] consumed by `chrome://tracing` and
//! `ui.perfetto.dev`: one process, one track (`tid`) per worker, span
//! begin/end pairs (`ph: "B"/"E"`), thread-scoped instants (`ph: "i"`),
//! and counter tracks (`ph: "C"`). Timestamps are microseconds relative to
//! the run epoch.
//!
//! Ring overwrite can orphan span halves (an `E` whose `B` was dropped, or
//! a `B` whose `E` never made it before drain). Orphaned ends are skipped
//! and unclosed begins are closed at the worker's last tick, so the emitted
//! stream is always properly nested and loads cleanly.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::escape;
use crate::{EventKind, Mark, Trace, TraceEvent, WorkerTrace};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

impl Trace {
    /// Render the whole trace as a Chrome `trace_events` JSON document.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.num_events() * 96);
        out.push_str("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
        let mut first = true;
        for wt in &self.workers {
            emit_worker(&mut out, wt, &mut first);
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// Write [`Trace::to_chrome_json`] to `path`.
    pub fn write_chrome_json<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_chrome_json().as_bytes())?;
        f.flush()
    }
}

fn push_event(out: &mut String, first: &mut bool, body: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(body);
}

fn ts_us(tick_ns: u64) -> String {
    // Microseconds with nanosecond precision preserved.
    format!("{}.{:03}", tick_ns / 1_000, tick_ns % 1_000)
}

fn emit_worker(out: &mut String, wt: &WorkerTrace, first: &mut bool) {
    let tid = wt.worker;
    push_event(
        out,
        first,
        &format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(&format!("worker-{tid}"))
        ),
    );

    // Pre-scan: per-kind balance so orphaned ends are skipped below. An end
    // is orphaned when, at that point in the stream, no begin of the same
    // kind is open.
    let mut open: HashMap<EventKind, u32> = HashMap::new();
    let last_tick = wt.events.last().map(|e| e.tick_ns).unwrap_or(0);

    for ev in &wt.events {
        match ev.mark {
            Mark::Begin => {
                *open.entry(ev.kind).or_insert(0) += 1;
                push_event(out, first, &span(ev, "B", tid, true));
            }
            Mark::End => {
                let n = open.entry(ev.kind).or_insert(0);
                if *n == 0 {
                    continue; // matching begin was overwritten by the ring
                }
                *n -= 1;
                push_event(out, first, &span(ev, "E", tid, false));
            }
            Mark::Instant => {
                push_event(
                    out,
                    first,
                    &format!(
                        "{{\"name\":\"{}\",\"cat\":\"parsim\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
                        ev.kind.name(),
                        ts_us(ev.tick_ns),
                        ev.arg
                    ),
                );
            }
            Mark::Counter => {
                push_event(
                    out,
                    first,
                    &format!(
                        "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{tid},\
                         \"args\":{{\"value\":{}}}}}",
                        ev.kind.name(),
                        ts_us(ev.tick_ns),
                        ev.arg
                    ),
                );
            }
        }
    }

    // Close any spans still open at drain time so B/E stay balanced.
    // Deepest-first order doesn't matter for correctness here because the
    // closer is emitted at a single tick; emit in arbitrary kind order.
    for (kind, n) in open {
        for _ in 0..n {
            push_event(
                out,
                first,
                &format!(
                    "{{\"name\":\"{}\",\"cat\":\"parsim\",\"ph\":\"E\",\"ts\":{},\
                     \"pid\":1,\"tid\":{tid}}}",
                    kind.name(),
                    ts_us(last_tick)
                ),
            );
        }
    }
}

fn span(ev: &TraceEvent, ph: &str, tid: u32, with_args: bool) -> String {
    if with_args {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"parsim\",\"ph\":\"{ph}\",\"ts\":{},\
             \"pid\":1,\"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
            ev.kind.name(),
            ts_us(ev.tick_ns),
            ev.arg
        )
    } else {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"parsim\",\"ph\":\"{ph}\",\"ts\":{},\
             \"pid\":1,\"tid\":{tid}}}",
            ev.kind.name(),
            ts_us(ev.tick_ns)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::lint;

    fn ev(tick_ns: u64, kind: EventKind, mark: Mark, arg: u32) -> TraceEvent {
        TraceEvent {
            tick_ns,
            arg,
            kind,
            mark,
        }
    }

    fn sample_trace() -> Trace {
        Trace {
            workers: vec![
                WorkerTrace {
                    worker: 0,
                    events: vec![
                        ev(100, EventKind::ActivationReplay, Mark::Begin, 4),
                        ev(150, EventKind::EventInsert, Mark::Instant, 9),
                        ev(300, EventKind::ActivationReplay, Mark::End, 0),
                        ev(320, EventKind::QueueDepth, Mark::Counter, 3),
                    ],
                    dropped: 0,
                },
                WorkerTrace {
                    worker: 1,
                    events: vec![
                        ev(90, EventKind::BarrierWait, Mark::Begin, 0),
                        ev(400, EventKind::BarrierWait, Mark::End, 0),
                    ],
                    dropped: 2,
                },
            ],
        }
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let doc = sample_trace().to_chrome_json();
        lint(&doc).expect("chrome export must be valid JSON");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("thread_name"));
        assert!(doc.contains("worker-0"));
        assert!(doc.contains("worker-1"));
        assert!(doc.contains("activation_replay"));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("\"ts\":0.100")); // 100ns = 0.1us
    }

    #[test]
    fn orphaned_ends_skipped_and_open_begins_closed() {
        let t = Trace {
            workers: vec![WorkerTrace {
                worker: 0,
                events: vec![
                    // End whose begin was overwritten by the ring.
                    ev(10, EventKind::TimeStep, Mark::End, 0),
                    // Begin that never closed before drain.
                    ev(20, EventKind::PhaseEval, Mark::Begin, 0),
                    ev(30, EventKind::Eval, Mark::Instant, 1),
                ],
                dropped: 5,
            }],
        };
        let doc = t.to_chrome_json();
        lint(&doc).unwrap();
        let begins = doc.matches("\"ph\":\"B\"").count();
        let ends = doc.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1, "orphan end dropped, open begin auto-closed");
        assert!(
            !doc.contains("time_step"),
            "orphaned end must not be emitted"
        );
    }

    #[test]
    fn empty_trace_still_valid() {
        let doc = Trace::default().to_chrome_json();
        lint(&doc).unwrap();
    }

    #[test]
    fn write_chrome_json_roundtrips_to_disk() {
        let path = std::env::temp_dir().join("parsim_trace_chrome_test.json");
        sample_trace().write_chrome_json(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        lint(&body).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
