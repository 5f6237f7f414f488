//! The service on circuits that spend most of their time settled.
//!
//! Both engines skip a settled circuit's quiet stretch: the event-driven
//! one a lone job runs on never visits a tick without events, and the
//! compiled kernels jump to the next stimulus. So a long quiet horizon
//! costs a pass nothing — but the scheduler's contract must not notice:
//! segments still end at every `segment_ticks` boundary (where cancellation
//! and deadline eviction land), and a tenant asking for an absurd end time
//! on a circuit that settles gets its oracle-exact answer instead of
//! pinning the scheduler thread. Every case runs as one lane (event-driven
//! segments) and as two packed lanes (compiled quiet jumps).

use std::sync::Arc;
use std::time::{Duration, Instant};

use parsim_core::{EventDriven, SimConfig, SimError, SimResult};
use parsim_logic::Time;
use parsim_netlist::Netlist;
use parsim_server::{
    InProcTransport, JobId, JobOutcome, JobSpec, JobStatus, Request, Response, Server,
    ServerConfig, Transport,
};
use parsim_telemetry::ServerCounter;

/// A clockless circuit: a constant, two one-shot vectors whose last change
/// is at tick 30, and a few gates. After the ripple of tick 30 dies out
/// nothing is ever scheduled again.
const SETTLING: &str = "\
node one 1
node a 1
node b 1
node g0 1
node g1 1
node g2 1
elem tie const:1'b1 delay=1 out=one
elem va vector:0@1'b0;6@1'b1;30@1'b0 delay=1 out=a
elem vb vector:0@1'b1;11@1'b0;19@1'b1 delay=1 out=b
elem and0 and delay=1 in=a,b out=g0
elem xor0 xor delay=1 in=g0,one out=g1
elem nor0 nor delay=1 in=g1,a out=g2
";
const WATCH: [&str; 4] = ["a", "g0", "g1", "g2"];
const WAIT: Duration = Duration::from_secs(30);
/// One lane runs event-driven, two share the compiled kernel.
const SHAPES: [(usize, &str); 2] = [(1, "event-driven"), (2, "compiled-mode")];

fn settling() -> Arc<Netlist> {
    Arc::new(Netlist::from_text(SETTLING).unwrap())
}

fn spec(tenant: &str, netlist: &Arc<Netlist>, end: u64) -> JobSpec {
    let mut spec = JobSpec::new(tenant, Arc::clone(netlist), Time(end));
    for name in WATCH {
        spec = spec.watch(netlist.node_by_name(name).unwrap());
    }
    spec
}

fn oracle(netlist: &Netlist, end: u64) -> SimResult {
    let watch = WATCH.map(|name| netlist.node_by_name(name).unwrap());
    EventDriven::run(netlist, &SimConfig::new(Time(end)).watch_all(watch)).unwrap()
}

/// A server started paused, `lanes` jobs of `spec(tenant)` submitted to it,
/// then resumed, so the jobs share one pass.
fn packed(
    config: ServerConfig,
    lanes: usize,
    spec: impl Fn(&str) -> JobSpec,
) -> (Server, Vec<JobId>) {
    let server = Server::start(ServerConfig {
        start_paused: true,
        ..config
    });
    let ids = (0..lanes)
        .map(|t| server.submit(spec(&format!("t{t}"))).unwrap())
        .collect();
    server.resume();
    (server, ids)
}

/// Segments far shorter than the quiet stretch: every cut is still taken
/// (one engine call per `segment_ticks`), and the stitched result is the
/// oracle's.
#[test]
fn segments_shorter_than_the_quiet_stretch_still_cut_everywhere() {
    const END: u64 = 4_000;
    const SEGMENT: u64 = 9;
    let netlist = settling();
    for (lanes, engine) in SHAPES {
        let config = ServerConfig {
            segment_ticks: SEGMENT,
            ..ServerConfig::default()
        };
        let (server, ids) = packed(config, lanes, |t| spec(t, &netlist, END));
        for id in ids {
            assert_eq!(server.wait(id, WAIT), Some(JobStatus::Done));
            let JobOutcome::Done(artifact) = server.outcome(id).unwrap() else {
                panic!("expected a done artifact");
            };
            assert_eq!((artifact.engine, artifact.lanes_in_batch), (engine, lanes));
            assert_eq!(artifact.result.to_vcd(), oracle(&netlist, END).to_vcd());
        }
        let segments = server.metrics().counter(ServerCounter::Segments);
        assert_eq!(segments, END.div_ceil(SEGMENT), "{engine}");
    }
}

/// A job whose whole remaining run is one quiet stretch is still evicted
/// at a cut: on request, and when its deadline passes.
#[test]
fn cancel_and_deadline_eviction_land_at_cuts_inside_a_quiet_stretch() {
    // Far more segments than can run before the test acts; each is cheap
    // (one jump) but none may be skipped.
    const END: u64 = 4_000_000_000;
    let config = ServerConfig { segment_ticks: 1_000, threads: 1, ..ServerConfig::default() };
    let netlist = settling();
    for (lanes, engine) in SHAPES {
        let (server, ids) = packed(config.clone(), lanes, |t| spec(t, &netlist, END));
        let began = Instant::now();
        while server.status(ids[0]) == Some(JobStatus::Queued) && began.elapsed() < WAIT {
            std::thread::yield_now();
        }
        for &id in &ids {
            assert!(
                server.cancel(id),
                "{engine}: running job accepts cancellation"
            );
            assert_eq!(server.wait(id, WAIT), Some(JobStatus::Cancelled));
            assert!(server.outcome(id).is_none());
        }

        let budget = Duration::from_millis(40);
        let expiring = |t: &str| spec(t, &netlist, END).deadline(budget);
        let (server, ids) = packed(config.clone(), lanes, expiring);
        for id in ids {
            assert_eq!(server.wait(id, WAIT), Some(JobStatus::Failed));
            let JobOutcome::Failed(SimError::DeadlineExceeded { deadline, .. }) =
                server.outcome(id).unwrap()
            else {
                panic!("{engine}: expected a deadline failure");
            };
            assert_eq!(deadline, budget);
        }
        let segments = server.metrics().counter(ServerCounter::Segments);
        assert!(
            segments > 1,
            "{engine}: the pass ran past its first cut ({segments} segments)"
        );
        assert!(
            segments < END / 1_000,
            "{engine}: and was evicted long before the end"
        );
    }
}

/// A tenant asks for 10^12 ticks of a circuit that settles after ~35. The
/// pass is one uninterruptible engine run (`segment_ticks == 0`), which
/// used to mean 10^12 steps on the scheduler thread; now it is a handful of
/// executed steps and one jump (or, event-driven, no step after the last
/// event), and the VCD is the oracle's.
#[test]
fn a_trillion_tick_job_on_a_settled_circuit_answers_within_a_second() {
    const END: u64 = 1_000_000_000_000;
    let expected = oracle(&settling(), END).to_vcd();
    for (lanes, engine) in SHAPES {
        let server = Arc::new(Server::start(ServerConfig {
            start_paused: true,
            ..ServerConfig::default()
        }));
        let transport = InProcTransport::new(server.clone());
        let began = Instant::now();
        let ids: Vec<u64> = (0..lanes)
            .map(|t| {
                match transport.call(Request::Submit {
                    tenant: format!("t{t}"),
                    netlist: SETTLING.into(),
                    watch: WATCH.map(String::from).to_vec(),
                    end: END,
                    deadline_ms: None,
                    overrides: Vec::new(),
                }) {
                    Response::Submitted { id } => id,
                    other => panic!("submit answered {other:?}"),
                }
            })
            .collect();
        server.resume();
        for id in ids {
            let Response::Result {
                status,
                vcd: Some(vcd),
                engine: served,
                ..
            } = transport.call(Request::Result {
                id,
                wait_ms: 30_000,
            })
            else {
                panic!("{engine}: no result");
            };
            assert_eq!((status, served), ("done", Some(engine)));
            assert_eq!(vcd, expected);
        }
        let elapsed = began.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "{engine}: took {elapsed:?}"
        );

        // Another tenant is served right after: the scheduler thread is free.
        let id = server.submit(spec("late", &settling(), 50)).unwrap();
        assert_eq!(server.wait(id, WAIT), Some(JobStatus::Done));
    }
}
