//! Server job-lifecycle coverage: submit→poll→result equality with a
//! standalone oracle run, cancellation (queued and mid-run), quota
//! rejection, deadline expiry mapping to [`SimError`], refusal of a bad
//! override at submit, the engine each pass runs on, and cache hit/miss
//! counters (which only compiled passes, two lanes or more, touch).

use std::sync::Arc;
use std::time::Duration;

use parsim_core::{CompiledMode, EventDriven, LaneStimulus, SimConfig, SimError};
use parsim_logic::{Delay, ElementKind, Time, Value};
use parsim_netlist::{Builder, Netlist, NodeId};
use parsim_server::{
    JobArtifact, JobId, JobOutcome, JobSpec, JobStatus, Server, ServerConfig, SubmitError,
};
use parsim_telemetry::{ServerCounter, ServerGauge};

/// Input schedules, one per input node.
type Schedules = Vec<Vec<(Time, Value)>>;

struct Circuit {
    netlist: Netlist,
    inputs: Vec<NodeId>,
    watch: Vec<NodeId>,
}

/// A small deterministic unit-delay circuit: clock, two stimulus inputs,
/// and a few gates. With `drive: Some`, inputs get `Vector` drivers (the
/// scalar-oracle form); with `None` they stay floating for batch-lane
/// overrides. Node creation order is identical either way, so `NodeId`s
/// line up across the two forms.
fn circuit(drive: Option<&Schedules>) -> Circuit {
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    let in0 = b.node("in0", 1);
    let in1 = b.node("in1", 1);
    let g0 = b.node("g0", 1);
    let g1 = b.node("g1", 1);
    let g2 = b.node("g2", 1);
    b.element(
        "osc",
        ElementKind::Clock { half_period: 4, offset: 4 },
        Delay(1),
        &[],
        &[clk],
    )
    .unwrap();
    if let Some(schedules) = drive {
        for (i, (input, sched)) in [in0, in1].iter().zip(schedules).enumerate() {
            let changes: Arc<[(u64, Value)]> =
                sched.iter().map(|&(t, v)| (t.ticks(), v)).collect::<Vec<_>>().into();
            b.element(
                &format!("vec{i}"),
                ElementKind::Vector { changes },
                Delay(1),
                &[],
                &[*input],
            )
            .unwrap();
        }
    }
    b.element("and0", ElementKind::And, Delay(1), &[in0, in1], &[g0]).unwrap();
    b.element("xor0", ElementKind::Xor, Delay(1), &[g0, clk], &[g1]).unwrap();
    b.element("nor0", ElementKind::Nor, Delay(1), &[g1, in0], &[g2]).unwrap();
    Circuit {
        netlist: b.finish().unwrap(),
        inputs: vec![in0, in1],
        watch: vec![clk, g0, g1, g2],
    }
}

fn bit(v: u64) -> Value {
    Value::from_u64(v, 1)
}

fn sched_a() -> Schedules {
    vec![
        vec![(Time(0), bit(0)), (Time(6), bit(1)), (Time(20), bit(0))],
        vec![(Time(0), bit(1)), (Time(11), bit(0))],
    ]
}

fn sched_b() -> Schedules {
    vec![
        vec![(Time(0), bit(1)), (Time(9), bit(0)), (Time(25), bit(1))],
        vec![(Time(0), bit(0)), (Time(15), bit(1))],
    ]
}

fn stimulus_for(c: &Circuit, schedules: &Schedules) -> LaneStimulus {
    let mut s = LaneStimulus::base();
    for (input, sched) in c.inputs.iter().zip(schedules) {
        s = s.drive(*input, sched.clone());
    }
    s
}

/// The standalone scalar-oracle result for one stimulus.
fn oracle(schedules: &Schedules, end: Time) -> parsim_core::SimResult {
    let c = circuit(Some(schedules));
    let cfg = SimConfig::new(end).watch_all(c.watch.clone());
    EventDriven::run(&c.netlist, &cfg).unwrap()
}

fn spec_for(tenant: &str, schedules: &Schedules, end: Time) -> JobSpec {
    let c = circuit(None);
    let watch = c.watch.clone();
    let stimulus = stimulus_for(&c, schedules);
    JobSpec::new(tenant, Arc::new(c.netlist), end)
        .stimulus(stimulus)
        .watch(watch[0])
        .watch(watch[1])
        .watch(watch[2])
        .watch(watch[3])
}

const WAIT: Duration = Duration::from_secs(30);

/// The artifact of a job that must finish `done`.
fn done(server: &Server, id: JobId) -> Arc<JobArtifact> {
    assert_eq!(server.wait(id, WAIT), Some(JobStatus::Done));
    match server.outcome(id) {
        Some(JobOutcome::Done(artifact)) => artifact,
        other => panic!("job {id} ended as {other:?}"),
    }
}

/// `(event-driven passes, program cache misses, program cache hits)`.
fn engine_counters(server: &Server) -> (u64, u64, u64) {
    let m = server.metrics();
    (
        m.counter(ServerCounter::EventDrivenPasses),
        m.counter(ServerCounter::CacheMisses),
        m.counter(ServerCounter::CacheHits),
    )
}

#[test]
fn submit_poll_result_matches_standalone_oracle() {
    let server = Server::start(ServerConfig::default());
    let end = Time(40);
    let id = server.submit(spec_for("alice", &sched_a(), end)).unwrap();
    assert_eq!(server.wait(id, WAIT), Some(JobStatus::Done));
    assert_eq!(server.status(id), Some(JobStatus::Done));
    let JobOutcome::Done(artifact) = server.outcome(id).unwrap() else {
        panic!("expected a done artifact");
    };
    let oracle = oracle(&sched_a(), end);
    let c = circuit(None);
    for node in c.watch {
        assert_eq!(
            artifact.result.waveform(node).unwrap().changes().collect::<Vec<_>>(),
            oracle.waveform(node).unwrap().changes().collect::<Vec<_>>(),
            "node {node:?} must match the scalar oracle"
        );
    }
    assert_eq!(artifact.result.to_vcd(), oracle.to_vcd(), "VCDs byte-identical");
    assert_eq!(artifact.lanes_in_batch, 1);
    assert_eq!(
        artifact.engine, "event-driven",
        "a lone unit-delay job runs event-driven"
    );
    assert!(!artifact.cache_hit, "an event-driven pass has no program");
    assert_eq!(
        engine_counters(&server),
        (1, 0, 0),
        "and never touches the program cache"
    );
}

#[test]
fn segmented_pass_matches_oracle_too() {
    let server = Server::start(ServerConfig {
        segment_ticks: 7, // uneven on purpose: 40 ticks = 5 full cuts + remainder
        ..ServerConfig::default()
    });
    let end = Time(40);
    let id = server.submit(spec_for("alice", &sched_b(), end)).unwrap();
    assert_eq!(server.wait(id, WAIT), Some(JobStatus::Done));
    let JobOutcome::Done(artifact) = server.outcome(id).unwrap() else {
        panic!("expected a done artifact");
    };
    assert_eq!(artifact.result.to_vcd(), oracle(&sched_b(), end).to_vcd());
    assert_eq!(artifact.engine, "event-driven");
    assert_eq!(engine_counters(&server), (1, 0, 0));
    assert!(
        server.metrics().counter(ServerCounter::Segments) >= 6,
        "40 ticks at 7/segment is at least 6 segments"
    );
}

#[test]
fn cancel_queued_job_is_immediate() {
    let server = Server::start(ServerConfig { start_paused: true, ..ServerConfig::default() });
    let id = server.submit(spec_for("alice", &sched_a(), Time(40))).unwrap();
    assert_eq!(server.status(id), Some(JobStatus::Queued));
    assert!(server.cancel(id), "queued job accepts cancellation");
    assert_eq!(server.status(id), Some(JobStatus::Cancelled));
    assert!(server.outcome(id).is_none(), "cancelled jobs have no outcome");
    assert!(!server.cancel(id), "second cancel is a no-op");
    assert_eq!(server.metrics().counter(ServerCounter::JobsCancelled), 1);
    // The quota slot was released: a fresh submit succeeds even at quota 1.
    let server = Server::start(ServerConfig {
        start_paused: true,
        tenant_quota: 1,
        ..ServerConfig::default()
    });
    let first = server.submit(spec_for("bob", &sched_a(), Time(40))).unwrap();
    server.cancel(first);
    server.submit(spec_for("bob", &sched_a(), Time(40))).expect("slot released");
}

#[test]
fn cancel_mid_run_lands_at_a_segment_cut() {
    // Long run, tiny segments: cancellation is requested once the job is
    // observably running, and must take effect at a cut boundary. (If
    // the request raced ahead of dispatch the job cancels while queued —
    // the terminal status is Cancelled either way.)
    let server = Server::start(ServerConfig {
        segment_ticks: 5,
        threads: 1,
        ..ServerConfig::default()
    });
    let id = server.submit(spec_for("alice", &sched_a(), Time(20_000))).unwrap();
    let began = std::time::Instant::now();
    while server.status(id) == Some(JobStatus::Queued) && began.elapsed() < WAIT {
        std::thread::yield_now();
    }
    assert!(server.cancel(id), "running job accepts cancellation");
    assert_eq!(server.wait(id, WAIT), Some(JobStatus::Cancelled));
    assert!(server.outcome(id).is_none());
}

#[test]
fn quota_rejection_counts_and_releases() {
    let server = Server::start(ServerConfig {
        start_paused: true,
        tenant_quota: 2,
        ..ServerConfig::default()
    });
    let a = server.submit(spec_for("alice", &sched_a(), Time(40))).unwrap();
    let _b = server.submit(spec_for("alice", &sched_b(), Time(40))).unwrap();
    let err = server.submit(spec_for("alice", &sched_a(), Time(40))).unwrap_err();
    assert_eq!(
        err,
        SubmitError::QuotaExceeded { tenant: "alice".into(), limit: 2 }
    );
    assert_eq!(server.metrics().counter(ServerCounter::QuotaRejections), 1);
    // Another tenant is unaffected.
    server.submit(spec_for("carol", &sched_a(), Time(40))).expect("separate quota");
    // Finishing a job frees the slot.
    server.cancel(a);
    server.submit(spec_for("alice", &sched_a(), Time(40))).expect("slot released");
}

#[test]
fn deadline_expiry_maps_to_sim_error() {
    // Paused server: the job can never dispatch, so a zero budget
    // deterministically expires. Lazy expiry surfaces through wait().
    let server = Server::start(ServerConfig { start_paused: true, ..ServerConfig::default() });
    let spec = spec_for("alice", &sched_a(), Time(40)).deadline(Duration::ZERO);
    let id = server.submit(spec).unwrap();
    assert_eq!(server.wait(id, WAIT), Some(JobStatus::Failed));
    let JobOutcome::Failed(err) = server.outcome(id).unwrap() else {
        panic!("expected a failed outcome");
    };
    match err {
        SimError::DeadlineExceeded { engine, deadline, .. } => {
            assert_eq!(engine, "server", "server-synthesized expiry");
            assert_eq!(deadline, Duration::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    assert_eq!(server.metrics().counter(ServerCounter::DeadlineExpirations), 1);
    assert_eq!(server.metrics().counter(ServerCounter::JobsFailed), 1);
}

#[test]
fn cache_hit_vs_miss_counters() {
    // Two two-lane passes of one digest, each packed while paused: the
    // first lowers the netlist, the second reuses the program.
    let server = Server::start(ServerConfig {
        start_paused: true,
        ..ServerConfig::default()
    });
    let end = Time(40);
    let mut passes = Vec::new();
    for (first, second) in [("alice", "bob"), ("carol", "dave")] {
        let a = server.submit(spec_for(first, &sched_a(), end)).unwrap();
        let b = server.submit(spec_for(second, &sched_b(), end)).unwrap();
        server.resume();
        passes.push((done(&server, a), done(&server, b)));
        server.pause();
    }
    assert_eq!(
        engine_counters(&server),
        (0, 1, 1),
        "one miss, then one hit"
    );
    assert_eq!(server.metrics().gauge(ServerGauge::CachedPrograms), 1);
    for ((a, b), hit) in passes.into_iter().zip([false, true]) {
        for artifact in [&a, &b] {
            assert_eq!(
                (artifact.engine, artifact.lanes_in_batch),
                ("compiled-mode", 2)
            );
            assert_eq!(artifact.cache_hit, hit);
        }
        // Results stay oracle-exact regardless of hit or miss.
        assert_eq!(a.result.to_vcd(), oracle(&sched_a(), end).to_vcd());
        assert_eq!(b.result.to_vcd(), oracle(&sched_b(), end).to_vcd());
    }
}

/// One tenant's bad override used to be accepted and then fail every job
/// packed with it. It is refused at submit, and its would-be pass mate
/// completes oracle-exact.
#[test]
fn bad_override_is_refused_at_submit_and_its_pass_mate_completes() {
    let server = Server::start(ServerConfig {
        start_paused: true,
        ..ServerConfig::default()
    });
    let end = Time(40);
    let good = server.submit(spec_for("alice", &sched_a(), end)).unwrap();
    let unordered = vec![
        vec![(Time(9), bit(1)), (Time(3), bit(0))],
        sched_b()[1].clone(),
    ];
    let err = server.submit(spec_for("bob", &unordered, end)).unwrap_err();
    let SubmitError::Invalid { reason } = err else {
        panic!("expected Invalid, got {err:?}");
    };
    assert_eq!(
        reason,
        "override for node 'in0' is not strictly increasing in time"
    );
    assert_eq!(server.metrics().counter(ServerCounter::JobsSubmitted), 1);
    server.resume();
    let artifact = done(&server, good);
    assert_eq!(artifact.result.to_vcd(), oracle(&sched_a(), end).to_vcd());
    assert_eq!(server.metrics().counter(ServerCounter::JobsFailed), 0);
    // The refusal took no quota: bob can still hold his whole quota.
    for _ in 0..ServerConfig::default().tenant_quota {
        server
            .submit(spec_for("bob", &sched_b(), end))
            .expect("quota untouched");
    }
}

/// Compiled mode imposes unit delay, so on a netlist with any other delay
/// the two engines disagree: a lone job on it keeps the compiled kernel and
/// gets the waveforms the server has always served.
#[test]
fn a_lone_job_with_a_two_tick_gate_stays_compiled() {
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    let slow = b.node("slow", 1);
    let fast = b.node("fast", 1);
    b.element(
        "osc",
        ElementKind::Clock {
            half_period: 5,
            offset: 5,
        },
        Delay(1),
        &[],
        &[clk],
    )
    .unwrap();
    b.element("inv2", ElementKind::Not, Delay(2), &[clk], &[slow])
        .unwrap();
    b.element("inv1", ElementKind::Not, Delay(1), &[slow], &[fast])
        .unwrap();
    let netlist = b.finish().unwrap();
    let end = Time(40);
    let cfg = SimConfig::new(end).watch(slow).watch(fast);
    let compiled = CompiledMode::run(&netlist, &cfg).unwrap().to_vcd();
    let event_driven = EventDriven::run(&netlist, &cfg).unwrap().to_vcd();
    assert_ne!(
        compiled, event_driven,
        "the two timing models must differ here"
    );

    let server = Server::start(ServerConfig::default());
    let spec = JobSpec::new("alice", Arc::new(netlist), end)
        .watch(slow)
        .watch(fast);
    let artifact = done(&server, server.submit(spec).unwrap());
    assert_eq!(
        (artifact.engine, artifact.lanes_in_batch),
        ("compiled-mode", 1)
    );
    assert_eq!(artifact.result.to_vcd(), compiled);
    assert_eq!(engine_counters(&server), (0, 1, 0));
}

#[test]
fn unknown_job_ids_are_none() {
    let server = Server::start(ServerConfig { start_paused: true, ..ServerConfig::default() });
    let ghost = parsim_server::JobId(999);
    assert_eq!(server.status(ghost), None);
    assert_eq!(server.wait(ghost, Duration::from_millis(10)), None);
    assert!(server.outcome(ghost).is_none());
    assert!(!server.cancel(ghost));
}

#[test]
fn different_digests_bin_separately() {
    // Two structurally different netlists must not share a pass, even with
    // two jobs of each waiting.
    let server = Server::start(ServerConfig { start_paused: true, ..ServerConfig::default() });
    // A second, different circuit: a clock and one inverter.
    let mut b = Builder::new();
    let clk = b.node("clk", 1);
    let q = b.node("q", 1);
    b.element("osc", ElementKind::Clock { half_period: 3, offset: 3 }, Delay(1), &[], &[clk])
        .unwrap();
    b.element("inv", ElementKind::Not, Delay(1), &[clk], &[q]).unwrap();
    let other = Arc::new(b.finish().unwrap());
    let mut ids = Vec::new();
    for tenant in ["alice", "bob"] {
        ids.push(
            server
                .submit(spec_for(tenant, &sched_a(), Time(40)))
                .unwrap(),
        );
        ids.push(
            server
                .submit(JobSpec::new(tenant, other.clone(), Time(40)).watch(q))
                .unwrap(),
        );
    }
    server.resume();
    for id in ids {
        assert_eq!(done(&server, id).lanes_in_batch, 2);
    }
    assert_eq!(
        server.metrics().counter(ServerCounter::BatchPasses),
        2,
        "different digests take separate passes"
    );
    assert_eq!(
        engine_counters(&server),
        (0, 2, 0),
        "each digest lowered once"
    );
}
