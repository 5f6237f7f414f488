//! The server op: `POST /v1/jobs` → `GET /v1/jobs/{id}/result` over a
//! loopback socket, driven as a closed loop.
//!
//! Closed loop, stated once: `SERVE_CLIENTS` client threads, each repeating
//! "submit one job for each of `SERVE_TENANTS` tenants, then collect the
//! results in the same order". A client sends its next wave only after the
//! previous one is collected, so at most `SERVE_CLIENTS × SERVE_TENANTS`
//! jobs are outstanding and a slower server receives less load.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parsim_server::{
    HttpServer, InProcTransport, Request, Response, Server, ServerConfig, Transport,
};

use crate::httpc;
use crate::inputs::{Drive, JobTemplate, ServeInput};
use crate::sizes::{SERVE_CLIENTS, SERVE_TENANTS, SERVE_THREADS, SERVE_WAIT_MS};
use crate::span::Tracer;

/// A server behind its HTTP listener on an ephemeral loopback port.
pub struct Harness {
    // Field order is drop order: stop accepting before the scheduler goes.
    http: HttpServer,
    pub inproc: Arc<InProcTransport>,
}

impl Harness {
    pub fn start() -> Result<Harness, String> {
        let config = ServerConfig {
            threads: SERVE_THREADS,
            ..ServerConfig::default()
        };
        let inproc = Arc::new(InProcTransport::new(Arc::new(Server::start(config))));
        let http = HttpServer::bind("127.0.0.1:0", inproc.clone() as Arc<dyn Transport>)
            .map_err(|e| format!("bind loopback listener: {e}"))?;
        Ok(Harness { http, inproc })
    }

    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }
}

/// `node@t:v;t:v,node2@…`, the `drive=` parameter's grammar.
fn encode_drive(drive: &Drive) -> String {
    drive
        .iter()
        .map(|(node, schedule)| {
            let pairs: Vec<String> = schedule.iter().map(|(t, v)| format!("{t}:{v}")).collect();
            format!("{node}@{}", pairs.join(";"))
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Everything of a submit target after the tenant. Node names hold only
/// letters, digits and `_`, and the drive grammar's `@:;,` pass the
/// server's query splitter as they are, so nothing needs escaping.
fn query_tail(t: &JobTemplate) -> String {
    let mut tail = format!("&end={}&watch={}", t.end, t.watch.join(","));
    if !t.drive.is_empty() {
        tail.push_str("&drive=");
        tail.push_str(&encode_drive(&t.drive));
    }
    tail
}

/// One completed (or failed) job as its client saw it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Submit start → result received.
    pub ms: f64,
    /// The job's wave recorded spans.
    pub traced: bool,
    /// `X-Parsim-Cache-Hit`: the job's pass found its program compiled.
    pub cache_hit: bool,
}

pub struct ServeBlock {
    pub jobs: Vec<JobRecord>,
    pub failures: Vec<String>,
    /// First submit → last result, across clients.
    pub wall_s: f64,
}

impl ServeBlock {
    pub fn latencies_ms(&self, traced: bool) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| j.traced == traced)
            .map(|j| j.ms)
            .collect()
    }
}

struct Pending {
    id: Result<u64, String>,
    started: Instant,
    template: usize,
    job: u64,
}

fn submit(addr: SocketAddr, tenant: &str, tail: &str, text: &str) -> Result<u64, String> {
    let target = format!("/v1/jobs?tenant={tenant}{tail}");
    let r = httpc::request(addr, "POST", &target, text)?;
    if r.status != 200 {
        return Err(format!(
            "submit refused with {}: {}",
            r.status,
            r.body.trim_end()
        ));
    }
    r.body
        .trim()
        .strip_prefix("id=")
        .and_then(|id| id.parse().ok())
        .ok_or_else(|| format!("submit answered '{}'", r.body.trim_end()))
}

fn collect(addr: SocketAddr, id: u64, template: &JobTemplate) -> Result<bool, String> {
    let target = format!("/v1/jobs/{id}/result?wait_ms={SERVE_WAIT_MS}");
    let r = httpc::request(addr, "GET", &target, "")?;
    if r.status != 200 {
        return Err(format!(
            "job {id}: result answered {}: {}",
            r.status,
            r.body.trim_end()
        ));
    }
    if let Some(expected) = &template.expected_vcd {
        if r.body != **expected {
            return Err(format!(
                "job {id}: VCD of {} bytes differs from the scalar oracle's {} bytes",
                r.body.len(),
                expected.len()
            ));
        }
    }
    Ok(r.header("x-parsim-cache-hit") == Some("true"))
}

/// Runs the closed loop against `addr` until `seconds` have passed and at
/// least `min_jobs` are collected (clients stop at wave boundaries).
/// `after_job(n)` is called as the `n`-th job completes. `tracers` are one
/// per client; with `trace_every_other` each is switched on for its odd
/// waves only, so traced and untraced jobs interleave on one server.
pub fn run_block(
    addr: SocketAddr,
    input: &ServeInput,
    seconds: f64,
    min_jobs: usize,
    tracers: Vec<Tracer>,
    trace_every_other: bool,
    after_job: &(dyn Fn(usize) + Sync),
) -> (ServeBlock, Vec<Tracer>) {
    assert_eq!(tracers.len(), SERVE_CLIENTS, "one tracer per client");
    let tails: Vec<String> = input.templates.iter().map(query_tail).collect();
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);

    // Clients start half a cycle of templates apart, so two jobs of one
    // netlist never meet unless the workload has a single netlist.
    let len = input.templates.len();
    let client = |c: usize, mut tr: Tracer| {
        let mut jobs = Vec::new();
        let mut failures = Vec::new();
        let mut wave = 0u64;
        while done.load(Ordering::SeqCst) < min_jobs || Instant::now() < deadline {
            let traced = trace_every_other && wave % 2 == 1;
            if trace_every_other {
                tr.set_enabled(traced);
            }
            tr.set_op(wave);
            tr.span("wave", |tr| {
                let pending: Vec<Pending> = (0..SERVE_TENANTS)
                    .map(|t| {
                        let job = wave * SERVE_TENANTS as u64 + t as u64;
                        let position = job as usize + c * len / SERVE_CLIENTS;
                        let template = position % len;
                        let tenant = format!("c{c}t{}", position % SERVE_TENANTS);
                        tr.set_op(job);
                        let started = Instant::now();
                        let id = tr.span("server.submit", |_| {
                            let text = &input.templates[template].text;
                            submit(addr, &tenant, &tails[template], text)
                        });
                        Pending {
                            id,
                            started,
                            template,
                            job,
                        }
                    })
                    .collect();
                for p in pending {
                    tr.set_op(p.job);
                    let outcome = p.id.and_then(|id| {
                        tr.span("server.result_wait", |_| {
                            collect(addr, id, &input.templates[p.template])
                        })
                    });
                    let cache_hit = outcome.unwrap_or_else(|e| {
                        failures.push(format!("client {c} job {}: {e}", p.job));
                        false
                    });
                    jobs.push(JobRecord {
                        ms: p.started.elapsed().as_secs_f64() * 1e3,
                        traced,
                        cache_hit,
                    });
                    after_job(done.fetch_add(1, Ordering::SeqCst) + 1);
                }
            });
            wave += 1;
        }
        (jobs, failures, tr)
    };

    let per_client: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .into_iter()
            .enumerate()
            .map(|(c, tr)| {
                let client = &client;
                s.spawn(move || client(c, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut block = ServeBlock {
        jobs: Vec::new(),
        failures: Vec::new(),
        wall_s,
    };
    let mut tracers = Vec::new();
    for (jobs, failures, tr) in per_client {
        block.jobs.extend(jobs);
        block.failures.extend(failures);
        tracers.push(tr);
    }
    (block, tracers)
}

/// The `parsim_server_*` counters the per-layer metrics use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scrape {
    pub passes: u64,
    pub lanes_packed: u64,
    pub quota_rejections: u64,
    pub jobs_failed: u64,
}

impl Scrape {
    pub fn since(self, earlier: Scrape) -> Scrape {
        Scrape {
            passes: self.passes - earlier.passes,
            lanes_packed: self.lanes_packed - earlier.lanes_packed,
            quota_rejections: self.quota_rejections - earlier.quota_rejections,
            jobs_failed: self.jobs_failed - earlier.jobs_failed,
        }
    }
}

/// Reads the counters out of a Prometheus text exposition.
pub fn parse_metrics(text: &str) -> Scrape {
    let value = |name: &str| -> u64 {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.trim().parse().ok())
            .unwrap_or(0)
    };
    Scrape {
        passes: value("parsim_server_batch_passes_total"),
        lanes_packed: value("parsim_server_lanes_packed_total"),
        quota_rejections: value("parsim_server_quota_rejections_total"),
        jobs_failed: value("parsim_server_jobs_failed_total"),
    }
}

/// `GET /metrics` over the socket.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let r = httpc::request(addr, "GET", "/metrics", "")?;
    if r.status != 200 {
        return Err(format!("/metrics answered {}", r.status));
    }
    Ok(parse_metrics(&r.body))
}

/// Replays `waves` waves of the same jobs through `InProcTransport::call`
/// (no socket, no HTTP parsing) and returns each submit's time in ms.
pub fn inproc_submit_ms(
    transport: &InProcTransport,
    input: &ServeInput,
    waves: usize,
) -> Result<Vec<f64>, String> {
    let mut submit_ms = Vec::new();
    for wave in 0..waves {
        let mut ids = Vec::new();
        for t in 0..SERVE_TENANTS {
            let template = &input.templates[(wave * SERVE_TENANTS + t) % input.templates.len()];
            let request = Request::Submit {
                tenant: format!("inproc{t}"),
                netlist: template.text.to_string(),
                watch: template.watch.clone(),
                end: template.end,
                deadline_ms: None,
                overrides: template.drive.clone(),
            };
            let start = Instant::now();
            let response = transport.call(request);
            submit_ms.push(start.elapsed().as_secs_f64() * 1e3);
            match response {
                Response::Submitted { id } => ids.push(id),
                other => return Err(format!("in-process submit answered {other:?}")),
            }
        }
        for id in ids {
            match transport.call(Request::Result {
                id,
                wait_ms: SERVE_WAIT_MS,
            }) {
                Response::Result { status: "done", .. } => {}
                other => return Err(format!("in-process job {id} ended as {other:?}")),
            }
        }
    }
    Ok(submit_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_encoding_matches_the_servers_grammar() {
        let drive: Drive = vec![
            ("clk".into(), vec![(0, 1), (5, 0)]),
            ("rst".into(), vec![(2, 1)]),
        ];
        assert_eq!(encode_drive(&drive), "clk@0:1;5:0,rst@2:1");
    }

    #[test]
    fn metrics_text_is_scraped_by_name() {
        let text = "# HELP parsim_server_batch_passes_total passes\n\
                    # TYPE parsim_server_batch_passes_total counter\n\
                    parsim_server_batch_passes_total 12\n\
                    parsim_server_lanes_packed_total 90\n\
                    parsim_server_jobs_failed_total 2\n";
        let s = parse_metrics(text);
        assert_eq!((s.passes, s.lanes_packed, s.jobs_failed), (12, 90, 2));
        let later = Scrape { passes: 20, ..s };
        assert_eq!(later.since(s).passes, 8);
    }
}
