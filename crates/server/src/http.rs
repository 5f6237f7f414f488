//! A dependency-free HTTP/1.1 front door over any [`Transport`].
//!
//! Hand-rolled on `std::net::TcpListener` — the workspace vendors no
//! async runtime or HTTP stack, and the service's request rate (jobs, not
//! events) makes thread-per-connection plus blocking reads entirely
//! adequate. One request per connection (`Connection: close`).
//!
//! Routes:
//!
//! | Method & path | Meaning |
//! |---|---|
//! | `POST /v1/jobs?tenant=T&end=N&watch=a,b[&deadline_ms=N][&drive=...]` | submit; body is [`Netlist::from_text`] format |
//! | `GET /v1/jobs/{id}` | status |
//! | `POST /v1/jobs/{id}/cancel` | cancel |
//! | `GET /v1/jobs/{id}/result[?wait_ms=N]` | long-poll result; VCD body |
//! | `GET /v1/jobs/{id}/stream[?wait_ms=N]` | result as chunked transfer |
//! | `GET /metrics` | Prometheus text exposition |
//!
//! The `drive` parameter carries lane overrides as
//! `node@t:v;t:v,node2@t:v` (times and values decimal, values resolved
//! against node widths). An override the engines would refuse (unknown
//! node, gate-driven node, unordered times, a node given twice) is a 400 at
//! submit.
//!
//! A result names its pass in `X-Parsim-Status`, `X-Parsim-Lane`,
//! `X-Parsim-Lanes-In-Batch` and `X-Parsim-Cache-Hit`, and a done job also
//! in `X-Parsim-Engine` (`event-driven` or `compiled-mode`).
//!
//! [`Netlist::from_text`]: parsim_netlist::Netlist::from_text

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::transport::{Request, Response, Transport};

/// A bound, serving HTTP listener. Dropping it stops accepting (open
/// connections finish their one request).
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral test port) and
    /// starts serving `transport`.
    pub fn bind(addr: &str, transport: Arc<dyn Transport>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let accept_thread = std::thread::Builder::new()
            .name("parsim-server-http".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let transport = transport.clone();
                    let _ = std::thread::Builder::new()
                        .name("parsim-server-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(stream, &*transport);
                        });
                }
            })?;
        Ok(HttpServer { addr: local, shutdown, accept_thread: Some(accept_thread) })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Most bytes a request line plus headers may take (431 beyond it).
const MAX_HEAD_BYTES: u64 = 64 * 1024;
/// Largest accepted body (413 beyond it, refused before any allocation).
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

fn handle_connection(stream: TcpStream, transport: &dyn Transport) -> std::io::Result<()> {
    // The reader may take at most the head's budget until the body's
    // length is known and vetted.
    let mut reader = BufReader::new(stream.try_clone()?.take(MAX_HEAD_BYTES));
    let mut head_line = |line: &mut String| -> std::io::Result<bool> {
        line.clear();
        reader.read_line(line)?;
        // A line cut short by the budget (not by the peer) has no newline.
        Ok(line.ends_with('\n') || reader.get_ref().limit() > 0)
    };
    let mut request_line = String::new();
    if !head_line(&mut request_line)? {
        return write_plain(stream, 431, "request head too large", &[]);
    }
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return write_plain(stream, 400, "malformed request line", &[]);
    };
    // A bad length is answered once the whole head is read, so the refusal
    // is not lost to a reset over the peer's unread bytes.
    let mut content_length: Result<usize, String> = Ok(0);
    let mut line = String::new();
    loop {
        if !head_line(&mut line)? {
            return write_plain(stream, 431, "request head too large", &[]);
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().map_err(|_| format!("bad Content-Length '{v}'"));
        }
    }
    let content_length = match content_length {
        Ok(n) => n,
        Err(msg) => return write_plain(stream, 400, &msg, &[]),
    };
    if content_length > MAX_BODY_BYTES {
        let msg = format!("body of {content_length} bytes exceeds {MAX_BODY_BYTES}");
        return write_plain(stream, 413, &msg, &[]);
    }
    // Part of the body may already sit in the buffer, charged to the head.
    let unread = content_length.saturating_sub(reader.buffer().len());
    reader.get_mut().set_limit(unread as u64);
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let Ok(body) = String::from_utf8(body) else {
        return write_plain(stream, 400, "body is not valid UTF-8", &[]);
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = parse_query(query);

    let (method, path) = (method.to_ascii_uppercase(), path.trim_end_matches('/'));
    let stream_mode = path.ends_with("/stream");
    match route(&method, path, &query, body) {
        Ok(req) => respond(stream, transport.call(req), stream_mode),
        Err((code, msg)) => write_plain(stream, code, &msg, &[]),
    }
}

/// Maps a parsed HTTP request onto a transport [`Request`].
fn route(
    method: &str,
    path: &str,
    query: &[(String, String)],
    body: String,
) -> Result<Request, (u16, String)> {
    let q = |key: &str| query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
    let q_u64 = |key: &str| -> Result<Option<u64>, (u16, String)> {
        match q(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| (400, format!("query parameter '{key}' must be an integer, got '{v}'"))),
        }
    };
    match (method, path) {
        ("POST", "/v1/jobs") => {
            let tenant = q("tenant").unwrap_or("anonymous").to_string();
            let end = q_u64("end")?.ok_or((400, "missing 'end' query parameter".into()))?;
            let watch = q("watch")
                .map(|w| w.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect())
                .unwrap_or_default();
            let overrides = match q("drive") {
                Some(d) => parse_drive(d).map_err(|e| (400, e))?,
                None => Vec::new(),
            };
            Ok(Request::Submit {
                tenant,
                netlist: body,
                watch,
                end,
                deadline_ms: q_u64("deadline_ms")?,
                overrides,
            })
        }
        ("GET", "/metrics") => Ok(Request::Metrics),
        _ => {
            let rest = path
                .strip_prefix("/v1/jobs/")
                .ok_or((404, format!("no route for {method} {path}")))?;
            let (id_part, action) = match rest.split_once('/') {
                Some((id, action)) => (id, Some(action)),
                None => (rest, None),
            };
            let id: u64 = id_part
                .parse()
                .map_err(|_| (400, format!("bad job id '{id_part}'")))?;
            match (method, action) {
                ("GET", None) => Ok(Request::Status { id }),
                ("POST", Some("cancel")) => Ok(Request::Cancel { id }),
                ("GET", Some("result")) | ("GET", Some("stream")) => Ok(Request::Result {
                    id,
                    wait_ms: q_u64("wait_ms")?.unwrap_or(0),
                }),
                _ => Err((404, format!("no route for {method} {path}"))),
            }
        }
    }
}

/// Per-node lane overrides as `(node, [(time, value)])` — the wire shape
/// of [`Request::Submit`]'s `overrides`.
type DriveOverrides = Vec<(String, Vec<(u64, u64)>)>;

/// Parses `node@t:v;t:v,node2@t:v` lane overrides.
fn parse_drive(s: &str) -> Result<DriveOverrides, String> {
    let mut out = Vec::new();
    for clause in s.split(',').filter(|c| !c.is_empty()) {
        let (node, sched) = clause
            .split_once('@')
            .ok_or_else(|| format!("drive clause '{clause}' missing '@'"))?;
        let mut schedule = Vec::new();
        for pair in sched.split(';').filter(|p| !p.is_empty()) {
            let (t, v) = pair
                .split_once(':')
                .ok_or_else(|| format!("drive pair '{pair}' missing ':'"))?;
            let t: u64 = t.parse().map_err(|_| format!("bad drive time '{t}'"))?;
            let v: u64 = v.parse().map_err(|_| format!("bad drive value '{v}'"))?;
            schedule.push((t, v));
        }
        out.push((node.to_string(), schedule));
    }
    Ok(out)
}

/// Splits and percent-decodes `k=v&k2=v2`.
fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let decoded = if bytes[i] == b'%' && i + 2 < bytes.len() {
            s.get(i + 1..i + 3)
                .and_then(|hex| u8::from_str_radix(hex, 16).ok())
        } else {
            None
        };
        match decoded {
            Some(b) => {
                out.push(b);
                i += 3;
            }
            None => {
                out.push(if bytes[i] == b'+' { b' ' } else { bytes[i] });
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn respond(stream: TcpStream, resp: Response, stream_mode: bool) -> std::io::Result<()> {
    match resp {
        Response::Submitted { id } => write_plain(stream, 200, &format!("id={id}\n"), &[]),
        Response::Status { status } => {
            write_plain(stream, 200, &format!("status={status}\n"), &[])
        }
        Response::Cancelled { ok } => write_plain(stream, 200, &format!("ok={ok}\n"), &[]),
        Response::Metrics { text } => write_plain(stream, 200, &text, &[]),
        Response::Error { code, message } => {
            write_plain(stream, code, &format!("{message}\n"), &[])
        }
        Response::Result {
            status,
            vcd,
            lane,
            lanes_in_batch,
            engine,
            cache_hit,
            error,
        } => {
            let mut extra = vec![
                ("X-Parsim-Status", status.to_string()),
                ("X-Parsim-Lane", lane.to_string()),
                ("X-Parsim-Lanes-In-Batch", lanes_in_batch.to_string()),
                ("X-Parsim-Cache-Hit", cache_hit.to_string()),
            ];
            if let Some(engine) = engine {
                extra.push(("X-Parsim-Engine", engine.to_string()));
            }
            match (vcd, error) {
                (Some(vcd), _) if stream_mode => write_chunked(stream, 200, &vcd, &extra),
                (Some(vcd), _) => write_plain(stream, 200, &vcd, &extra),
                (None, Some(err)) => write_plain(stream, 500, &format!("{err}\n"), &extra),
                // Still pending after the long-poll window.
                (None, None) => write_plain(stream, 202, &format!("status={status}\n"), &extra),
            }
        }
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn write_plain(
    mut stream: TcpStream,
    code: u16,
    body: &str,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_text(code),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Chunked transfer for `/stream`: the body goes out in bounded pieces,
/// so a large VCD never needs a contiguous Content-Length send.
fn write_chunked(
    mut stream: TcpStream,
    code: u16,
    body: &str,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: text/plain; charset=utf-8\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
        status_text(code)
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    for chunk in body.as_bytes().chunks(4096) {
        stream.write_all(format!("{:x}\r\n", chunk.len()).as_bytes())?;
        stream.write_all(chunk)?;
        stream.write_all(b"\r\n")?;
    }
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing_decodes_pairs() {
        let q = parse_query("tenant=alice&end=40&watch=a%2Cb&x=1+2");
        assert_eq!(q[0], ("tenant".into(), "alice".into()));
        assert_eq!(q[2], ("watch".into(), "a,b".into()));
        assert_eq!(q[3], ("x".into(), "1 2".into()));
    }

    #[test]
    fn drive_clause_parsing() {
        let d = parse_drive("clk@0:1;5:0,rst@2:1").unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], ("clk".into(), vec![(0, 1), (5, 0)]));
        assert_eq!(d[1], ("rst".into(), vec![(2, 1)]));
        assert!(parse_drive("clk0:1").is_err(), "missing @");
        assert!(parse_drive("clk@zero:1").is_err(), "bad time");
    }

    #[test]
    fn routes_map_to_requests() {
        let q = parse_query("wait_ms=50");
        assert_eq!(
            route("GET", "/v1/jobs/7/result", &q, String::new()).unwrap(),
            Request::Result { id: 7, wait_ms: 50 }
        );
        assert_eq!(
            route("GET", "/v1/jobs/7", &[], String::new()).unwrap(),
            Request::Status { id: 7 }
        );
        assert_eq!(
            route("POST", "/v1/jobs/7/cancel", &[], String::new()).unwrap(),
            Request::Cancel { id: 7 }
        );
        assert!(route("POST", "/v1/jobs", &[], String::new()).is_err(), "missing end");
        assert!(route("GET", "/v1/jobs/x", &[], String::new()).is_err(), "bad id");
        let q = parse_query("tenant=t&end=bogus");
        assert!(route("POST", "/v1/jobs", &q, String::new()).is_err(), "non-numeric end");
    }
}
