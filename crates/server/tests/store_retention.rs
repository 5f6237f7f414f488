//! The netlist store and job retention as a tenant sees them through
//! [`InProcTransport`]: texts that are one circuit pack into one pass,
//! malformed text leaves nothing behind, a job outlives the eviction of its
//! store entry, and the server's job table stays bounded however many jobs
//! it has served. (The store's own unit tests cover the text and digest
//! keys, the byte comparison behind a key hit, and the LRU.)

use std::sync::Arc;

use parsim_core::{EventDriven, SimConfig};
use parsim_logic::Time;
use parsim_netlist::Netlist;
use parsim_server::{
    InProcTransport, Request, Response, Server, ServerConfig, Transport, RETAINED_FINISHED_JOBS,
};
use parsim_telemetry::{ServerCounter, ServerGauge};

const END: u64 = 40;
const WATCH: [&str; 3] = ["clk", "g0", "g1"];
const WAIT_MS: u64 = 30_000;

/// A clocked two-gate circuit with one free input; `half_period` makes
/// structurally distinct variants.
fn circuit_text(half_period: u64) -> String {
    format!(
        "node clk 1\nnode in0 1\nnode g0 1\nnode g1 1\n\
         elem osc clock:{half_period}:{half_period} delay=1 out=clk\n\
         elem and0 and delay=1 in=in0,clk out=g0\n\
         elem inv0 not delay=1 in=g0 out=g1\n"
    )
}

const DRIVE_A: &[(u64, u64)] = &[(0, 0), (6, 1), (21, 0)];
const DRIVE_B: &[(u64, u64)] = &[(0, 1), (9, 0), (26, 1)];

/// Standalone `EventDriven` VCD of the circuit with `drive` as a `vector:`
/// generator on `in0` (node order, hence VCD identifiers, is unchanged).
fn oracle_vcd(half_period: u64, drive: &[(u64, u64)]) -> String {
    let changes: Vec<String> = drive.iter().map(|(t, v)| format!("{t}@1'b{v}")).collect();
    let text = format!(
        "{}elem vec0 vector:{} delay=1 out=in0\n",
        circuit_text(half_period),
        changes.join(";")
    );
    let netlist = Netlist::from_text(&text).unwrap();
    let watch = WATCH.map(|name| netlist.node_by_name(name).unwrap());
    let cfg = SimConfig::new(Time(END)).watch_all(watch);
    EventDriven::run(&netlist, &cfg).unwrap().to_vcd()
}

fn submit(transport: &InProcTransport, tenant: &str, text: String, drive: &[(u64, u64)]) -> Response {
    transport.call(Request::Submit {
        tenant: tenant.into(),
        netlist: text,
        watch: WATCH.map(str::to_string).to_vec(),
        end: END,
        deadline_ms: None,
        overrides: vec![("in0".into(), drive.to_vec())],
    })
}

fn submitted(response: Response) -> u64 {
    match response {
        Response::Submitted { id } => id,
        other => panic!("submit answered {other:?}"),
    }
}

/// `(vcd, lanes_in_batch)` of a job that must finish `done`.
fn done(transport: &InProcTransport, id: u64) -> (String, usize) {
    match transport.call(Request::Result { id, wait_ms: WAIT_MS }) {
        Response::Result { status: "done", vcd: Some(vcd), lanes_in_batch, .. } => {
            (vcd, lanes_in_batch)
        }
        other => panic!("job {id} ended as {other:?}"),
    }
}

fn paused(config: ServerConfig) -> (Arc<Server>, InProcTransport) {
    let server = Arc::new(Server::start(ServerConfig { start_paused: true, ..config }));
    (server.clone(), InProcTransport::new(server))
}

#[test]
fn texts_differing_by_a_comment_pack_into_one_pass() {
    let (server, transport) = paused(ServerConfig::default());
    let plain = circuit_text(4);
    let commented = format!("# bob's copy of the same circuit\n{plain}");
    let alice = submitted(submit(&transport, "alice", plain, DRIVE_A));
    let bob = submitted(submit(&transport, "bob", commented, DRIVE_B));
    assert_eq!(server.store().len(), 1, "two texts, one structural digest, one entry");
    server.resume();

    for (id, drive) in [(alice, DRIVE_A), (bob, DRIVE_B)] {
        let (vcd, lanes_in_batch) = done(&transport, id);
        assert_eq!(lanes_in_batch, 2, "both texts share the pass");
        assert_eq!(vcd, oracle_vcd(4, drive), "byte-identical to the standalone run");
    }
    let m = server.metrics();
    assert_eq!(m.counter(ServerCounter::BatchPasses), 1);
    assert_eq!(m.counter(ServerCounter::NetlistMisses), 2, "each new text is parsed once");
    assert_eq!(m.counter(ServerCounter::CacheMisses), 1, "and lowered once between them");
}

#[test]
fn malformed_text_is_refused_and_leaves_the_store_alone() {
    let (server, transport) = paused(ServerConfig::default());
    submitted(submit(&transport, "alice", circuit_text(4), DRIVE_A));
    for _ in 0..2 {
        let bad = format!("{}elem broken frobnicate delay=1 out=g1\n", circuit_text(4));
        match submit(&transport, "mallory", bad, DRIVE_A) {
            Response::Error { code: 400, message } => {
                assert!(message.contains("line 8"), "message: {message}")
            }
            other => panic!("malformed text answered {other:?}"),
        }
    }
    assert_eq!(server.store().len(), 1);
    assert_eq!(server.metrics().counter(ServerCounter::JobsSubmitted), 1);
}

#[test]
fn a_queued_job_outlives_the_eviction_of_its_entry() {
    let (server, transport) = paused(ServerConfig { cache_capacity: 2, ..ServerConfig::default() });
    // capacity + 1 distinct circuits: the third submit evicts the first's
    // entry while that job is still queued.
    let jobs: Vec<(u64, u64)> = [3, 4, 5]
        .into_iter()
        .map(|half| (half, submitted(submit(&transport, "alice", circuit_text(half), DRIVE_A))))
        .collect();
    assert_eq!(server.store().len(), 2);
    assert_eq!(server.metrics().counter(ServerCounter::CacheEvictions), 1);
    // The coldest went: its text parses again, the hottest's does not.
    let misses = server.metrics().counter(ServerCounter::NetlistMisses);
    server.store().intern_text(circuit_text(5)).unwrap();
    assert_eq!(server.metrics().counter(ServerCounter::NetlistMisses), misses);
    server.resume();

    for (half, id) in jobs {
        // The job, not the store, kept its netlist alive until dispatch.
        assert_eq!(done(&transport, id).0, oracle_vcd(half, DRIVE_A), "half-period {half}");
    }
    assert_eq!(server.store().len(), 2, "still one capacity");
}

#[test]
fn job_records_are_bounded_in_the_job_count() {
    const JOBS: usize = 5_000;
    const TENANTS: usize = 8;
    let server = Arc::new(Server::start(ServerConfig { threads: 1, ..ServerConfig::default() }));
    let transport = InProcTransport::new(server.clone());
    let text = circuit_text(2);

    let (mut first, mut last) = (None, 0);
    let mut most_retained = 0;
    for _ in 0..JOBS / TENANTS {
        let wave: Vec<u64> = (0..TENANTS)
            .map(|t| submitted(submit(&transport, &format!("t{t}"), text.clone(), DRIVE_A)))
            .collect();
        for id in wave {
            assert!(matches!(
                transport.call(Request::Result { id, wait_ms: WAIT_MS }),
                Response::Result { status: "done", .. }
            ));
            first.get_or_insert(id);
            last = id;
        }
        most_retained = most_retained.max(server.metrics().gauge(ServerGauge::JobsRetained));
    }
    let m = server.metrics();
    assert_eq!(m.counter(ServerCounter::JobsCompleted), JOBS as u64);
    assert_eq!(m.counter(ServerCounter::NetlistMisses), 1, "one parse served them all");
    assert!(
        most_retained <= (RETAINED_FINISHED_JOBS + TENANTS) as u64,
        "{most_retained} records held with at most {TENANTS} jobs outstanding"
    );
    assert_eq!(m.gauge(ServerGauge::JobsRetained), RETAINED_FINISHED_JOBS as u64);
    assert_eq!((m.gauge(ServerGauge::QueueDepth), m.gauge(ServerGauge::JobsRunning)), (0, 0));

    // The oldest id has been forgotten; the newest still has its waveform.
    let oldest = first.expect("jobs ran");
    for request in [Request::Status { id: oldest }, Request::Result { id: oldest, wait_ms: 0 }] {
        assert!(matches!(transport.call(request), Response::Error { code: 404, .. }));
    }
    assert_eq!(done(&transport, last).0, oracle_vcd(2, DRIVE_A));

    // Every quota slot came back: each tenant can hold exactly its quota again.
    server.pause();
    let quota = ServerConfig::default().tenant_quota;
    for _ in 0..quota {
        submitted(submit(&transport, "t0", text.clone(), DRIVE_A));
    }
    assert!(matches!(
        submit(&transport, "t0", text, DRIVE_A),
        Response::Error { code: 429, .. }
    ));
    assert_eq!(m.counter(ServerCounter::QuotaRejections), 1);
}
