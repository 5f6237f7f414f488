//! End-to-end smoke: two tenants submit the same netlist text through the
//! transport, the scheduler serves both from a single lane-packed batch
//! pass, and each tenant's VCD is byte-identical to a standalone
//! scalar-oracle run of their stimulus. Also exercises the HTTP listener
//! over a loopback socket: a lone job served event-driven, and a bad
//! override refused at the door without harming the job it would have
//! shared a pass with.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use parsim_core::{EventDriven, SimConfig};
use parsim_logic::{Delay, ElementKind, Time, Value};
use parsim_netlist::Builder;
use parsim_server::{
    HttpServer, InProcTransport, Request, Response, Server, ServerConfig, Transport,
};
use parsim_telemetry::{ServerCounter, ServerGauge};

/// The submission body: the same circuit the oracle builds, in
/// [`parsim_netlist::Netlist::from_text`] format, inputs undriven so each
/// tenant's lane overrides supply them.
const NETLIST_TEXT: &str = "\
node clk 1
node in0 1
node in1 1
node g0 1
node g1 1
node g2 1
elem osc clock:4:4 delay=1 out=clk
elem and0 and delay=1 in=in0,in1 out=g0
elem xor0 xor delay=1 in=g0,clk out=g1
elem nor0 nor delay=1 in=g1,in0 out=g2
";

const WATCH: &str = "clk,g0,g1,g2";
const END: u64 = 40;

/// `(in0 schedule, in1 schedule)` as `(time, value)` pairs.
type Drive = [&'static [(u64, u64)]; 2];

const DRIVE_A: Drive = [&[(0, 0), (6, 1), (20, 0)], &[(0, 1), (11, 0)]];
const DRIVE_B: Drive = [&[(0, 1), (9, 0), (25, 1)], &[(0, 0), (15, 1)]];

fn drive_param(d: &Drive) -> String {
    let clause = |name: &str, sched: &[(u64, u64)]| {
        let pairs: Vec<String> = sched.iter().map(|(t, v)| format!("{t}:{v}")).collect();
        format!("{name}@{}", pairs.join(";"))
    };
    format!("{},{}", clause("in0", d[0]), clause("in1", d[1]))
}

/// Standalone scalar-oracle VCD: the same circuit built with `Vector`
/// drivers feeding the inputs (node-creation order identical to the text
/// form, so `NodeId`s — and therefore VCD identifiers — line up).
fn oracle_vcd(d: &Drive) -> String {
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    let in0 = b.node("in0", 1);
    let in1 = b.node("in1", 1);
    let g0 = b.node("g0", 1);
    let g1 = b.node("g1", 1);
    let g2 = b.node("g2", 1);
    b.element("osc", ElementKind::Clock { half_period: 4, offset: 4 }, Delay(1), &[], &[clk])
        .unwrap();
    for (i, (input, sched)) in [in0, in1].iter().zip(d).enumerate() {
        let changes: Arc<[(u64, Value)]> =
            sched.iter().map(|&(t, v)| (t, Value::from_u64(v, 1))).collect::<Vec<_>>().into();
        b.element(&format!("vec{i}"), ElementKind::Vector { changes }, Delay(1), &[], &[*input])
            .unwrap();
    }
    b.element("and0", ElementKind::And, Delay(1), &[in0, in1], &[g0]).unwrap();
    b.element("xor0", ElementKind::Xor, Delay(1), &[g0, clk], &[g1]).unwrap();
    b.element("nor0", ElementKind::Nor, Delay(1), &[g1, in0], &[g2]).unwrap();
    let netlist = b.finish().unwrap();
    let cfg = SimConfig::new(Time(END)).watch_all([clk, g0, g1, g2]);
    EventDriven::run(&netlist, &cfg).unwrap().to_vcd()
}

fn submit_request(tenant: &str, d: &Drive) -> Request {
    Request::Submit {
        tenant: tenant.into(),
        netlist: NETLIST_TEXT.into(),
        watch: WATCH.split(',').map(str::to_string).collect(),
        end: END,
        deadline_ms: None,
        overrides: drive_param(d)
            .split(',')
            .map(|clause| {
                let (node, sched) = clause.split_once('@').unwrap();
                let sched = sched
                    .split(';')
                    .map(|p| {
                        let (t, v) = p.split_once(':').unwrap();
                        (t.parse().unwrap(), v.parse().unwrap())
                    })
                    .collect();
                (node.to_string(), sched)
            })
            .collect(),
    }
}

#[test]
fn two_tenants_one_pass_byte_equal_waveforms() {
    // Paused server: both jobs queue into the same digest bin, so the
    // single resume provably serves them with one batch pass.
    let server = Arc::new(Server::start(ServerConfig {
        start_paused: true,
        ..ServerConfig::default()
    }));
    let transport = InProcTransport::new(server.clone());

    let Response::Submitted { id: alice } = transport.call(submit_request("alice", &DRIVE_A))
    else {
        panic!("alice's submit must succeed");
    };
    let Response::Submitted { id: bob } = transport.call(submit_request("bob", &DRIVE_B)) else {
        panic!("bob's submit must succeed");
    };
    server.resume();

    let mut lanes = Vec::new();
    for (id, drive) in [(alice, &DRIVE_A), (bob, &DRIVE_B)] {
        let resp = transport.call(Request::Result {
            id,
            wait_ms: 30_000,
        });
        let Response::Result {
            status,
            vcd,
            lane,
            lanes_in_batch,
            engine,
            cache_hit,
            error,
        } = resp
        else {
            panic!("expected a result response");
        };
        assert_eq!(status, "done");
        assert_eq!(error, None);
        assert_eq!(lanes_in_batch, 2, "both tenants share one pass");
        assert_eq!(
            engine,
            Some("compiled-mode"),
            "two lanes share the compiled kernel"
        );
        assert!(!cache_hit, "first pass of this digest compiles");
        assert_eq!(vcd.as_deref(), Some(oracle_vcd(drive).as_str()), "byte-identical to oracle");
        lanes.push(lane);
    }
    lanes.sort_unstable();
    assert_eq!(lanes, [0, 1], "tenants occupy distinct lanes of the pass");

    let m = server.metrics();
    assert_eq!(m.counter(ServerCounter::BatchPasses), 1, "one pass served both");
    assert_eq!(m.counter(ServerCounter::LanesPacked), 2);
    assert_eq!(m.counter(ServerCounter::JobsCompleted), 2);
    assert_eq!(m.counter(ServerCounter::CacheMisses), 1);
    assert_eq!(m.counter(ServerCounter::CacheHits), 0);
    assert_eq!(m.gauge(ServerGauge::LastBatchLanes), 2);

    // Two more tenants reusing the digest, packed again, ride the cached
    // program.
    server.pause();
    let later: Vec<(u64, &Drive)> = [("carol", &DRIVE_A), ("dave", &DRIVE_B)]
        .into_iter()
        .map(
            |(tenant, drive)| match transport.call(submit_request(tenant, drive)) {
                Response::Submitted { id } => (id, drive),
                other => panic!("{tenant}'s submit answered {other:?}"),
            },
        )
        .collect();
    server.resume();
    for (id, drive) in later {
        let Response::Result {
            cache_hit,
            vcd,
            lanes_in_batch,
            ..
        } = transport.call(Request::Result {
            id,
            wait_ms: 30_000,
        })
        else {
            panic!("expected a result response");
        };
        assert_eq!(lanes_in_batch, 2);
        assert!(cache_hit, "second pass of the digest reuses the program");
        assert_eq!(vcd.as_deref(), Some(oracle_vcd(drive).as_str()));
    }
    assert_eq!(server.metrics().counter(ServerCounter::CacheHits), 1);
    assert_eq!(
        server.metrics().counter(ServerCounter::EventDrivenPasses),
        0
    );
}

/// One request over a real loopback socket; returns (status code,
/// headers, body).
fn http(addr: std::net::SocketAddr, request: impl AsRef<[u8]>) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect loopback");
    stream.write_all(request.as_ref()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let code: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    (code, head.to_string(), body.to_string())
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String, String) {
    http(addr, format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"))
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    http(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn dechunk(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    loop {
        let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            return out;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..]; // skip the chunk's trailing CRLF
    }
}

#[test]
fn http_loopback_round_trip() {
    let server = Arc::new(Server::start(ServerConfig::default()));
    let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.clone()));
    let listener = HttpServer::bind("127.0.0.1:0", transport).expect("bind ephemeral port");
    let addr = listener.addr();

    // Submit over the wire: query carries tenant/end/watch/drive, body
    // carries the netlist text.
    let submit_path = format!(
        "/v1/jobs?tenant=alice&end={END}&watch={WATCH}&drive={}",
        drive_param(&DRIVE_A)
    );
    let (code, _, body) = post(addr, &submit_path, NETLIST_TEXT);
    assert_eq!(code, 200, "submit: {body}");
    let id: u64 = body.trim().strip_prefix("id=").expect("id=N body").parse().unwrap();

    // Long-poll the result; the body is the VCD, metadata rides headers.
    let (code, head, vcd) = get(addr, &format!("/v1/jobs/{id}/result?wait_ms=30000"));
    assert_eq!(code, 200, "result: {vcd}");
    assert!(head.contains("X-Parsim-Status: done"), "headers: {head}");
    assert!(head.contains("X-Parsim-Lanes-In-Batch: 1"), "headers: {head}");
    // A lone unit-delay job runs event-driven and lowers nothing.
    assert!(
        head.contains("X-Parsim-Engine: event-driven"),
        "headers: {head}"
    );
    assert!(
        head.contains("X-Parsim-Cache-Hit: false"),
        "headers: {head}"
    );
    assert_eq!(
        vcd,
        oracle_vcd(&DRIVE_A),
        "wire VCD byte-identical to oracle"
    );

    let (code, _, body) = get(addr, &format!("/v1/jobs/{id}"));
    assert_eq!((code, body.trim()), (200, "status=done"));

    // The stream route delivers the same bytes chunked.
    let (code, head, chunked) = get(addr, &format!("/v1/jobs/{id}/stream?wait_ms=1000"));
    assert_eq!(code, 200);
    assert!(head.contains("Transfer-Encoding: chunked"), "headers: {head}");
    assert_eq!(dechunk(&chunked), oracle_vcd(&DRIVE_A));

    // Metrics exposition is reachable and carries the server families.
    let (code, _, metrics) = get(addr, "/metrics");
    assert_eq!(code, 200);
    assert!(
        metrics.contains("parsim_server_jobs_submitted_total 1"),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("parsim_server_batch_passes_total 1"),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("parsim_server_event_driven_passes_total 1"),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("parsim_server_cache_misses_total 0"),
        "metrics: {metrics}"
    );

    // Error paths over the wire: unknown job, cancel of unknown, bad
    // submits.
    let (code, _, _) = get(addr, "/v1/jobs/999");
    assert_eq!(code, 404);
    let (code, _, body) = post(addr, "/v1/jobs/999/cancel", "");
    assert_eq!((code, body.trim()), (200, "ok=false"));
    let (code, _, _) = post(addr, "/v1/jobs?tenant=alice", NETLIST_TEXT); // no end=
    assert_eq!(code, 400);
    let (code, _, _) = post(addr, &format!("/v1/jobs?tenant=a&end={END}"), "not a netlist");
    assert_eq!(code, 400);
    let (code, _, _) = post(
        addr,
        &format!("/v1/jobs?tenant=a&end={END}&watch=nope"),
        NETLIST_TEXT,
    );
    assert_eq!(code, 400, "unknown watch node is a bad request");

    // A generator the engines would assert on is refused at the door, with
    // the line it is on — not accepted and left to panic inside a
    // scheduler pass. The server keeps serving afterwards.
    let zero_clock = NETLIST_TEXT.replace("clock:4:4", "clock:0:4");
    let (code, _, body) = post(addr, &format!("/v1/jobs?tenant=a&end={END}"), &zero_clock);
    assert_eq!(code, 400, "zero half-period: {body}");
    assert!(body.contains("line 7") && body.contains("half_period"), "body: {body}");
    let (code, _, body) = post(addr, &submit_path, NETLIST_TEXT);
    assert_eq!(code, 200, "submit after the refusal: {body}");
    let id: u64 = body.trim().strip_prefix("id=").expect("id=N body").parse().unwrap();
    let (code, head, _) = get(addr, &format!("/v1/jobs/{id}/result?wait_ms=30000"));
    assert_eq!(code, 200);
    assert!(head.contains("X-Parsim-Status: done"), "headers: {head}");
}

/// A tenant whose override the engines would refuse is answered 400 at
/// submit, over the socket, while the tenant it would have shared a pass
/// with is served oracle-exact.
#[test]
fn bad_override_is_400_and_the_pass_mate_completes() {
    let server = Arc::new(Server::start(ServerConfig {
        start_paused: true,
        ..ServerConfig::default()
    }));
    let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.clone()));
    let listener = HttpServer::bind("127.0.0.1:0", transport).expect("bind ephemeral port");
    let addr = listener.addr();
    let submit = |tenant: &str, drive: &str| {
        let path = format!("/v1/jobs?tenant={tenant}&end={END}&watch={WATCH}&drive={drive}");
        post(addr, &path, NETLIST_TEXT)
    };

    let (code, _, body) = submit("alice", &drive_param(&DRIVE_A));
    assert_eq!(code, 200, "good submit: {body}");
    let id: u64 = body
        .trim()
        .strip_prefix("id=")
        .expect("id=N body")
        .parse()
        .unwrap();
    let (code, _, body) = submit("bob", "in0@9:1;3:0,in1@0:0");
    assert_eq!(code, 400, "bad submit: {body}");
    assert!(
        body.contains("'in0' is not strictly increasing"),
        "body: {body}"
    );
    assert_eq!(server.metrics().counter(ServerCounter::JobsSubmitted), 1);

    server.resume();
    let (code, head, vcd) = get(addr, &format!("/v1/jobs/{id}/result?wait_ms=30000"));
    assert_eq!(code, 200, "result: {vcd}");
    assert!(head.contains("X-Parsim-Status: done"), "headers: {head}");
    assert_eq!(vcd, oracle_vcd(&DRIVE_A));
    assert_eq!(server.metrics().counter(ServerCounter::JobsFailed), 0);
}

/// A listener whose submissions would succeed, for probing what the front
/// door refuses before the transport is ever called.
fn front_door() -> (HttpServer, Arc<Server>) {
    let server = Arc::new(Server::start(ServerConfig::default()));
    let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.clone()));
    (HttpServer::bind("127.0.0.1:0", transport).expect("bind ephemeral port"), server)
}

#[test]
fn unparsable_content_length_is_400() {
    let (listener, server) = front_door();
    let (code, _, body) = http(
        listener.addr(),
        format!("POST /v1/jobs?tenant=a&end={END} HTTP/1.1\r\nContent-Length: lots\r\n\r\n"),
    );
    assert_eq!(code, 400, "body: {body}");
    assert!(body.contains("Content-Length"), "body: {body}");
    assert_eq!(server.metrics().counter(ServerCounter::JobsSubmitted), 0);
}

#[test]
fn oversized_content_length_is_413_before_any_body_is_read() {
    let (listener, server) = front_door();
    // Only the head is sent: the refusal must not wait for (or allocate)
    // the 16 MiB + 1 the header announces.
    let (code, head, _) = http(
        listener.addr(),
        format!(
            "POST /v1/jobs?tenant=a&end={END} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            16 * 1024 * 1024 + 1
        ),
    );
    assert_eq!(code, 413);
    assert!(head.starts_with("HTTP/1.1 413 Payload Too Large"), "head: {head}");
    assert_eq!(server.metrics().counter(ServerCounter::JobsSubmitted), 0);
}

#[test]
fn invalid_utf8_body_is_400_not_rewritten() {
    let (listener, server) = front_door();
    // A valid netlist with one byte that is not UTF-8 inside a name: lossy
    // decoding would have accepted it under a different node name.
    let mut body = NETLIST_TEXT.as_bytes().to_vec();
    let at = NETLIST_TEXT.find("g2").unwrap();
    body[at] = 0xff;
    let mut request = format!(
        "POST /v1/jobs?tenant=a&end={END} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(&body);
    let (code, _, answer) = http(listener.addr(), request);
    assert_eq!(code, 400, "body: {answer}");
    assert!(answer.contains("UTF-8"), "body: {answer}");
    assert_eq!(server.metrics().counter(ServerCounter::JobsSubmitted), 0);
    assert!(server.store().is_empty(), "nothing was parsed");
}

#[test]
fn oversized_request_head_is_431() {
    let (listener, _server) = front_door();
    // Exactly the head budget and still no end of line: the server has
    // read every byte sent, so the refusal arrives on a clean close.
    let mut request = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
    request.resize(64 * 1024, b'a');
    let (code, head, _) = http(listener.addr(), request);
    assert_eq!(code, 431);
    assert!(head.contains("Request Header Fields Too Large"), "head: {head}");
    // A head inside the budget is still served.
    let (code, _, _) = get(listener.addr(), "/metrics");
    assert_eq!(code, 200);
}
