//! `psim-server` — serve simulations over HTTP.
//!
//! ```text
//! psim-server --addr 127.0.0.1:9090 --threads 2 --max-lanes 64
//! ```
//!
//! Tenants POST netlist text to `/v1/jobs` and poll
//! `/v1/jobs/{id}/result`; jobs whose netlists share a structural digest
//! are packed into one word-parallel batch pass, and a job alone in its
//! pass on a unit-delay circuit runs the event-driven engine instead (see
//! the `parsim-server` crate docs and `DESIGN.md` §14). A text the server
//! has seen before is not parsed again: up to `--cache-capacity` circuits
//! are kept, each with its parsed netlist and compiled program. `GET
//! /metrics` exposes the `parsim_server_*` Prometheus families.

use std::process::ExitCode;
use std::sync::Arc;

use parsim_server::{HttpServer, InProcTransport, Server, ServerConfig, Transport};

const USAGE: &str = "usage: psim-server [--addr HOST:PORT] [--threads N] [--max-lanes N] \
[--segment-ticks N] [--cache-capacity N] [--quota N]
  --threads N         workers per compiled pass; a lone unit-delay job runs event-driven on the scheduler thread
  --cache-capacity N  circuits kept (parsed netlist + compiled program each), least recently used evicted";

struct Options {
    addr: String,
    config: ServerConfig,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options { addr: "127.0.0.1:9090".to_string(), config: ServerConfig::default() };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().ok_or_else(|| format!("{name} requires a value"))
        };
        let parse = |name: &str, v: String| -> Result<usize, String> {
            v.parse().map_err(|_| format!("{name} must be an integer, got `{v}`"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--threads" => {
                opts.config.threads = parse("--threads", value("--threads")?)?;
                if opts.config.threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--max-lanes" => {
                opts.config.max_lanes_per_batch = parse("--max-lanes", value("--max-lanes")?)?;
                if opts.config.max_lanes_per_batch == 0 {
                    return Err("--max-lanes must be at least 1".to_string());
                }
            }
            "--segment-ticks" => {
                opts.config.segment_ticks =
                    parse("--segment-ticks", value("--segment-ticks")?)? as u64
            }
            "--cache-capacity" => {
                opts.config.cache_capacity = parse("--cache-capacity", value("--cache-capacity")?)?
            }
            "--quota" => {
                opts.config.tenant_quota = parse("--quota", value("--quota")?)?;
                if opts.config.tenant_quota == 0 {
                    return Err("--quota must be at least 1".to_string());
                }
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Some(opts)) => opts,
        Err(msg) => {
            eprintln!("psim-server: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let server = Arc::new(Server::start(opts.config));
    let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new(server));
    let listener = match HttpServer::bind(&opts.addr, transport) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("psim-server: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("psim-server listening on http://{}", listener.addr());
    println!("  POST /v1/jobs?tenant=T&end=N&watch=a,b[&drive=node@t:v;t:v]  (body: netlist text)");
    println!("  GET  /v1/jobs/{{id}}/result?wait_ms=N   GET /metrics");
    // Serve until the process is killed; the accept loop owns the work.
    loop {
        std::thread::park();
    }
}
