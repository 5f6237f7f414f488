//! Integration tests across the whole workspace, through the `parsim`
//! facade: circuits → engines → machine models must stay mutually
//! consistent. The engine matrix is the equivalence driver the engine
//! crate's own tests share, so tier-1 runs all of it on a few circuits.

#[path = "../crates/core/tests/support/mod.rs"]
mod support;

use support::{check, Circuit};

use parsim::circuits::{
    functional_multiplier, gate_multiplier, inverter_array, pipelined_cpu, random_circuit,
    GateMultiplier, RandomCircuitParams,
};
use parsim::engine::{
    assert_equivalent, checkpoint, ChaoticAsync, CompiledMode, EngineKind, EventDriven, FaultPlan,
    LaneStimulus, SimConfig, SyncEventDriven,
};
use parsim::logic::{expand_generator, ElementKind, Time, Value};
use parsim::machine::{model_async, model_seq, model_sync, trace_execution, MachineConfig};
use parsim::netlist::Netlist;

/// The machine model's trace replays the same algorithm as the real
/// sequential engine: their event and evaluation counts must agree
/// exactly on every circuit.
#[test]
fn model_trace_matches_real_engine_counts() {
    let arr = inverter_array(8, 8, 2).unwrap();
    let func = functional_multiplier(&[(3, 9), (500, 700)], 64).unwrap();
    let cpu = pipelined_cpu(8, 48).unwrap();
    let cases: Vec<(&str, &Netlist, Time)> = vec![
        ("array", &arr.netlist, Time(150)),
        ("functional", &func.netlist, Time(128)),
        ("cpu", &cpu.netlist, Time(400)),
    ];
    for (name, netlist, end) in cases {
        let real = EventDriven::run(netlist, &SimConfig::new(end)).unwrap();
        let trace = trace_execution(netlist, end);
        assert_eq!(
            real.metrics.events_processed, trace.total_events,
            "{name}: event counts diverge"
        );
        assert_eq!(
            real.metrics.evaluations, trace.total_evals,
            "{name}: evaluation counts diverge"
        );
    }
}

/// Async engine and async model process the same number of node events.
#[test]
fn async_model_event_count_matches_engine() {
    let arr = inverter_array(8, 8, 1).unwrap();
    let end = Time(120);
    let engine = ChaoticAsync::run(&arr.netlist, &SimConfig::new(end)).unwrap();
    let model = model_async(&arr.netlist, end, &MachineConfig::multimax(1));
    assert_eq!(engine.metrics.events_processed, model.events);
}

/// Every circuit generator's output survives a text-format round trip and
/// simulates identically afterwards.
#[test]
fn text_round_trip_preserves_behavior() {
    let arr = inverter_array(4, 6, 2).unwrap();
    let func = functional_multiplier(&[(42, 69)], 64).unwrap();
    let rnd = random_circuit(&RandomCircuitParams {
        elements: 60,
        seed: 99,
        ..Default::default()
    })
    .unwrap();
    for (name, netlist, end) in [
        ("array", &arr.netlist, Time(100)),
        ("functional", &func.netlist, Time(64)),
        ("random", &rnd.netlist, Time(100)),
    ] {
        let reparsed = Netlist::from_text(&netlist.to_text())
            .unwrap_or_else(|e| panic!("{name}: reparse failed: {e}"));
        // Watch every node (ids are preserved by the round trip).
        let watch: Vec<_> = netlist.iter_nodes().map(|(id, _)| id).collect();
        let cfg = SimConfig::new(end).watch_all(watch);
        let a = EventDriven::run(netlist, &cfg).unwrap();
        let b = EventDriven::run(&reparsed, &cfg).unwrap();
        assert_equivalent(&a, &b, name);
    }
}

/// The paper's headline end-to-end story, in one test: all four engines
/// agree on the multiplier; the virtual Multimax prefers the asynchronous
/// algorithm at high processor counts.
#[test]
fn headline_story() {
    let m = gate_multiplier(8, &[(123, 231), (255, 1)], 160).unwrap();
    let end = m.schedule_end();
    let cfg = SimConfig::new(end).watch_all(m.product.iter().copied());
    let seq = EventDriven::run(&m.netlist, &cfg).unwrap();
    let cfg4 = cfg.clone().threads(4);
    assert_equivalent(&seq, &SyncEventDriven::run(&m.netlist, &cfg4).unwrap(), "sync");
    assert_equivalent(&seq, &ChaoticAsync::run(&m.netlist, &cfg4).unwrap(), "async");
    assert_equivalent(&seq, &CompiledMode::run(&m.netlist, &cfg4).unwrap(), "compiled");

    // Products are numerically correct.
    assert_eq!(
        seq.bus_value_at(&m.product, m.sample_time(0)),
        Some(123 * 231)
    );

    // Modeled at 16 virtual processors, the asynchronous algorithm beats
    // the synchronous one in absolute time.
    let m16 = MachineConfig::multimax(16);
    let sync16 = model_sync(&m.netlist, end, &m16);
    let async16 = model_async(&m.netlist, end, &m16);
    assert!(
        async16.virtual_time < sync16.virtual_time,
        "async {} should finish before sync {}",
        async16.virtual_time,
        sync16.virtual_time
    );
}

/// §5's uniprocessor claim holds in the cost model for every paper
/// circuit: the asynchronous algorithm is 1–3.5× the event-driven one.
#[test]
fn modeled_uniproc_ratio_in_paper_band() {
    let arr = inverter_array(16, 8, 2).unwrap();
    let func = functional_multiplier(&[(3, 9), (500, 700), (1, 1)], 64).unwrap();
    for (name, netlist, end) in [
        ("array", &arr.netlist, Time(400)),
        ("functional", &func.netlist, Time(192)),
    ] {
        let seq = model_seq(netlist, end, &MachineConfig::multimax(1).cost);
        let asy = model_async(netlist, end, &MachineConfig::multimax(1));
        let ratio = seq.virtual_time as f64 / asy.virtual_time as f64;
        assert!(
            (1.0..=3.5).contains(&ratio),
            "{name}: uniprocessor ratio {ratio:.2} outside the paper's band"
        );
    }
}

/// VCD export is structurally valid for a multi-engine run.
#[test]
fn vcd_export_is_well_formed() {
    let arr = inverter_array(2, 2, 1).unwrap();
    let cfg = SimConfig::new(Time(20)).watch_all(arr.taps.iter().copied());
    let r = ChaoticAsync::run(&arr.netlist, &cfg.threads(2)).unwrap();
    let vcd = r.to_vcd();
    assert!(vcd.contains("$timescale"));
    assert!(vcd.contains("$enddefinitions"));
    assert_eq!(vcd.matches("$var").count(), 2);
    assert!(vcd.lines().filter(|l| l.starts_with('#')).count() > 2);
}

/// The VCD format, pinned in tier-1: the length and FNV-1a of the 8-bit
/// gate multiplier's all-nodes dump, captured from the encoder that
/// `crates/core/tests/vcd_golden.rs` keeps as its reference. Every engine
/// must produce these bytes; an encoder change that moves them is a format
/// change and has to say so.
#[test]
fn all_nodes_vcd_bytes_are_pinned() {
    let m = gate_multiplier(8, &[(123, 231), (255, 1)], 160).unwrap();
    let watch: Vec<_> = m.netlist.iter_nodes().map(|(id, _)| id).collect();
    let cfg = SimConfig::new(m.schedule_end()).watch_all(watch).threads(2);
    for (engine, vcd) in [
        ("seq", EventDriven::run(&m.netlist, &cfg).unwrap().to_vcd()),
        ("sync", SyncEventDriven::run(&m.netlist, &cfg).unwrap().to_vcd()),
        ("compiled", CompiledMode::run(&m.netlist, &cfg).unwrap().to_vcd()),
        ("async", ChaoticAsync::run(&m.netlist, &cfg).unwrap().to_vcd()),
    ] {
        let fnv1a = vcd.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((vcd.len(), fnv1a), (23_164, 3_535_017_428_156_724_197), "{engine}");
    }
}

/// The snapshot bytes, pinned in tier-1: the FNV-1a of the newest `.psnap`
/// a checkpointed one-thread run of the 8-bit gate multiplier commits on
/// each engine (every node watched, so the change log's order is pinned
/// too), and of a one-lane batch snapshot at the same cut. A change to the
/// segment boundary that moves a byte of any of them has to say so. One
/// thread, because at more the order of same-tick changes depends on the
/// interleaving.
#[test]
fn snapshot_bytes_are_pinned() {
    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let m = gate_multiplier(8, &[(123, 231), (255, 1)], 160).unwrap();
    let end = m.schedule_end();
    let every = end.ticks() / 4;
    let watch: Vec<_> = m.netlist.iter_nodes().map(|(id, _)| id).collect();
    let cfg = SimConfig::new(end).watch_all(watch);
    let pinned = [
        (EngineKind::Sequential, 2_722_689_983_378_798_440),
        (EngineKind::Synchronous, 2_722_689_983_378_798_440),
        (EngineKind::Compiled, 3_923_842_293_362_103_821),
        (EngineKind::Chaotic, 177_867_306_987_821_965),
    ];
    for (kind, want) in pinned {
        let dir = std::env::temp_dir()
            .join(format!("parsim-snapshot-pin-{}-{}", kind.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = cfg.clone().with_checkpoint_dir(&dir).with_checkpoint_every(every);
        checkpoint::run(kind, &m.netlist, &ckpt).unwrap();
        let newest = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "psnap"))
            .max()
            .expect("three cuts commit snapshots");
        let bytes = std::fs::read(&newest).unwrap();
        assert_eq!(fnv1a(&bytes), want, "{} ({})", kind.name(), newest.display());
        let _ = std::fs::remove_dir_all(&dir);
    }
    let cut = Time(3 * every);
    let (_, snaps) =
        CompiledMode::run_batch_segment(&m.netlist, &cfg, &[LaneStimulus::base()], None, cut)
            .unwrap();
    assert_eq!(fnv1a(&snaps[0].encode(0)), 11_536_594_935_373_166_620, "one-lane batch");
}

/// A stimulus the engines would assert on is a parse error with its line
/// number, never a netlist.
#[test]
fn malformed_generator_is_a_parse_error() {
    let err = Netlist::from_text("node c 1\nnode q 1\nelem osc clock:0:5 delay=1 out=c\n")
        .expect_err("a zero half-period must not parse");
    assert_eq!(err.line(), 3);
}

/// Cross-crate smoke over the multi-threaded engines: the acyclic gate
/// multiplier, every node watched, through the whole matrix — every
/// parallel engine at one to three threads, the ablations, the batch
/// kernel, checkpointed runs cut on every engine and one crashed and
/// resumed — all bit-identical to the sequential oracle. An inverter array and a CPU
/// with feedback take the same matrix, every node watched, below.
#[test]
fn parallel_engines_and_checkpoint_resume_match_oracle() {
    let m = gate_multiplier(8, &[(123, 231), (255, 1)], 160).unwrap();
    let watch = m.netlist.iter_nodes().map(|(id, _)| id);
    check(&Circuit::new("multiplier", &m.netlist, watch, m.schedule_end()));
}

/// Each compiled worker writes its own region of the slot file and owns its
/// element state, so the layout changes with the thread count; the
/// waveform must not. With every node watched, the matrix holds the
/// compiled kernels to `EventDriven`'s VCD bytes at every thread count on
/// an array whose 33 columns split into uneven regions, and so is a
/// checkpointed run that crashes at 2 threads and resumes at 1. The next
/// test holds the same matrix on a CPU whose flip-flops keep per-worker
/// state.
#[test]
fn compiled_workers_match_the_oracle_at_every_thread_count_and_cut() {
    let array = inverter_array(33, 5, 2).unwrap();
    let watch = array.netlist.iter_nodes().map(|(id, _)| id);
    let out = check(&Circuit::new("array", &array.netlist, watch, Time(200)));
    assert!(out.quiet_steps.is_some(), "array: the compiled rows ran");
}

#[test]
fn cpu_with_feedback_matches_the_oracle_on_every_engine_and_cut() {
    let cpu = pipelined_cpu(8, 48).unwrap();
    let watch = cpu.netlist.iter_nodes().map(|(id, _)| id);
    let out = check(&Circuit::new("cpu", &cpu.netlist, watch, Time(400)));
    assert!(out.quiet_steps.is_some(), "cpu: the compiled rows ran");
}

/// Behavior-list chunks outlive a run on the process-wide free-list, so
/// every run after the first reuses chunks still full of earlier events.
/// Three back-to-back runs of the 16-bit gate multiplier must each dump
/// the oracle's VCD bytes and repeat the same counts.
#[test]
fn chaotic_runs_on_a_warm_chunk_pool_repeat_bytes_and_counts() {
    let operands = [(40_503, 65_535), (1, 65_535), (65_535, 2), (12_345, 54_321)];
    let m = gate_multiplier(16, &operands, 256).unwrap();
    let watch: Vec<_> = m.netlist.iter_nodes().map(|(id, _)| id).collect();
    let cfg = SimConfig::new(m.schedule_end()).watch_all(watch);
    let oracle = EventDriven::run(&m.netlist, &cfg).unwrap().to_vcd();
    let mut counts = Vec::new();
    for run in 0..3 {
        let r = ChaoticAsync::run(&m.netlist, &cfg).unwrap();
        assert!(r.to_vcd() == oracle, "run {run}: VCD differs from EventDriven's");
        let x = &r.metrics;
        counts.push([
            x.events_processed,
            x.evaluations,
            x.activations,
            x.time_steps,
            x.gc_chunks_freed,
            x.pool_misses,
            x.evals_skipped,
        ]);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "counts moved: {counts:?}");
}

/// The counting path, pinned against something other than itself. At one
/// thread every engine is deterministic, so `(events_processed,
/// evaluations, activations, time_steps, gc_chunks_freed, pool_misses,
/// evals_skipped, quiet_steps)` are exact literals (captured before `Metrics` became a
/// view over the telemetry registry; a refactor of the counting path must
/// not move them — the `cpu`/`async` row was re-pinned once, when register
/// lookahead cut its activations from 191 467). The chaotic engine's
/// one-thread `(local_hits, grid_sends, grid_batches)` are pinned too
/// (captured while the pure-grid scheduler still existed beside the local
/// deques): the CPU's 24 grid sends are local-deque overflow. At 2 and 4
/// threads only the engine-independent identities hold.
#[test]
fn metrics_counts_are_pinned() {
    use parsim::engine::{SimError, SimResult};
    use parsim_telemetry::Counter;

    type Run = fn(&Netlist, &SimConfig) -> Result<SimResult, SimError>;
    let engines: [(&str, Run); 4] = [
        ("seq", EventDriven::run),
        ("sync", SyncEventDriven::run),
        ("compiled", CompiledMode::run),
        ("async", ChaoticAsync::run),
    ];
    let m = gate_multiplier(8, &[(123, 231), (255, 1)], 160).unwrap();
    let cpu = pipelined_cpu(8, 48).unwrap();
    let cases = [
        (
            "multiplier",
            &m.netlist,
            m.schedule_end(),
            [
                [1295, 2583, 2583, 83, 0, 0, 0, 0],
                [1295, 2583, 2583, 83, 0, 0, 0, 0],
                [1295, 6501, 6501, 321, 0, 0, 181019, 238],
                [1295, 2583, 586, 0, 0, 0, 0, 0],
            ],
            [586, 0, 0],
        ),
        (
            "cpu",
            &cpu.netlist,
            Time(400),
            [
                [2716, 7021, 7021, 51, 0, 0, 0, 0],
                [2716, 7021, 7021, 51, 0, 0, 0, 0],
                [2716, 13293, 13293, 401, 0, 0, 556307, 350],
                [2716, 7015, 10459, 0, 0, 0, 0, 0],
            ],
            [10435, 24, 24],
        ),
    ];
    for (name, netlist, end, pinned, sched) in cases {
        let cfg = SimConfig::new(end);
        for ((engine, run), want) in engines.iter().zip(pinned) {
            let x = run(netlist, &cfg).unwrap().metrics;
            let got = [
                x.events_processed,
                x.evaluations,
                x.activations,
                x.time_steps,
                x.gc_chunks_freed,
                x.pool_misses,
                x.evals_skipped,
                x.quiet_steps,
            ];
            assert_eq!(got, want, "{name}/{engine} x1");
            if *engine == "async" {
                let l = x.locality;
                let got = [l.local_hits, l.grid_sends, l.grid_batches];
                assert_eq!(got, sched, "{name}/async x1 scheduling");
            }
        }
        // Every loop of the CPU runs through a register, so register
        // lookahead must keep buying at least 5x there — and none of it
        // may come from delivering different events.
        if name == "cpu" {
            let on = ChaoticAsync::run(netlist, &cfg).unwrap().metrics;
            let off = ChaoticAsync::run(netlist, &cfg.clone().without_lookahead()).unwrap().metrics;
            assert_eq!(on.events_processed, off.events_processed, "lookahead moved events");
            assert_eq!(off.lookahead_extensions, 0, "ablated run still extended");
            assert!(
                on.activations * 5 <= off.activations,
                "register lookahead: {} activations with, {} without",
                on.activations,
                off.activations
            );
        }
        let oracle_events = pinned[0][0];
        for threads in [2, 4] {
            for (engine, run) in &engines[1..] {
                let r = run(netlist, &cfg.clone().threads(threads)).unwrap();
                let tag = format!("{name}/{engine} x{threads}");
                let x = &r.metrics;
                assert_eq!(x.events_processed, oracle_events, "{tag}: events");
                if *engine == "compiled" {
                    assert_eq!(x.quiet_steps, pinned[2][7], "{tag}: quiet steps");
                }
                let per_thread: u64 = x.per_thread.iter().map(|t| t.evaluations).sum();
                assert_eq!(per_thread, x.evaluations, "{tag}: per-thread evaluations");
                let finals = &r.telemetry.as_ref().expect("telemetry is always on").finals;
                for (c, field) in [
                    (Counter::EventsProcessed, x.events_processed),
                    (Counter::Evaluations, x.evaluations),
                    (Counter::Activations, x.activations),
                    (Counter::TimeSteps, x.time_steps),
                ] {
                    assert_eq!(finals.counter(c), field, "{tag}: {c:?}");
                }
            }
        }
    }
}

/// The service end of the stack: two tenants send the *same* multiplier
/// text with different `drive=` operands through the in-process transport.
/// The netlist store parses the text once, the scheduler packs both jobs
/// into one word-parallel pass, and each tenant's VCD is byte-equal to a
/// standalone `EventDriven` run of a multiplier built with its operands.
#[test]
fn server_packs_two_tenants_of_one_text_into_one_oracle_exact_pass() {
    use parsim_server::{InProcTransport, Request, Response, Server, ServerConfig, Transport};
    use parsim_telemetry::ServerCounter;

    const BITS: usize = 4;
    const PERIOD: u64 = 64;
    let operands: [[(u64, u64); 2]; 2] = [[(3, 5), (15, 15)], [(9, 7), (2, 12)]];
    let base = gate_multiplier(BITS, &[(0, 0), (0, 0)], PERIOD).unwrap();
    let end = base.schedule_end();
    let text = base.netlist.to_text();
    let watch: Vec<String> = base
        .product
        .iter()
        .map(|&n| base.netlist.node(n).name().to_string())
        .collect();

    // A tenant's operands as overrides of the text's own input generators:
    // the expansion the engines apply to a `Pattern` of those bits.
    let drive = |pairs: &[(u64, u64)]| -> Vec<(String, Vec<(u64, u64)>)> {
        let bus = |prefix: &str, pick: fn(&(u64, u64)) -> u64| {
            (0..BITS)
                .map(|bit| {
                    let values: Vec<Value> =
                        pairs.iter().map(|p| Value::bit((pick(p) >> bit) & 1 == 1)).collect();
                    let kind = ElementKind::Pattern { period: PERIOD, values: values.into() };
                    let changes = expand_generator(&kind, end)
                        .into_iter()
                        .map(|(t, v)| (t.ticks(), v.to_u64().unwrap()))
                        .collect();
                    (format!("{prefix}{bit}"), changes)
                })
                .collect::<Vec<_>>()
        };
        let mut drive = bus("a", |p| p.0);
        drive.extend(bus("b", |p| p.1));
        drive
    };

    let server = std::sync::Arc::new(Server::start(ServerConfig {
        start_paused: true,
        threads: 1,
        ..ServerConfig::default()
    }));
    let transport = InProcTransport::new(server.clone());
    let ids: Vec<u64> = operands
        .iter()
        .enumerate()
        .map(|(t, pairs)| {
            let request = Request::Submit {
                tenant: format!("tenant{t}"),
                netlist: text.clone(),
                watch: watch.clone(),
                end: end.ticks(),
                deadline_ms: None,
                overrides: drive(pairs),
            };
            match transport.call(request) {
                Response::Submitted { id } => id,
                other => panic!("submit answered {other:?}"),
            }
        })
        .collect();
    server.resume();

    for (id, pairs) in ids.into_iter().zip(&operands) {
        let Response::Result { status, vcd, lanes_in_batch, error, .. } =
            transport.call(Request::Result { id, wait_ms: 30_000 })
        else {
            panic!("expected a result response");
        };
        assert_eq!((status, error), ("done", None));
        assert_eq!(lanes_in_batch, 2, "both tenants ride one pass");
        let own = gate_multiplier(BITS, pairs, PERIOD).unwrap();
        let cfg = SimConfig::new(end).watch_all(own.product.iter().copied());
        let oracle = EventDriven::run(&own.netlist, &cfg).unwrap();
        assert_eq!(vcd.as_deref(), Some(oracle.to_vcd().as_str()), "operands {pairs:?}");
    }
    let m = server.metrics();
    assert_eq!(m.counter(ServerCounter::NetlistMisses), 1, "the text was parsed once");
    assert_eq!(m.counter(ServerCounter::NetlistHits), 1);
    assert_eq!(m.counter(ServerCounter::BatchPasses), 1);
}

/// The paper's §3 choice, made by the server: a lone multiplier job — one
/// lane, every delay 1 — runs on the event-driven engine, never lowers the
/// netlist, and still answers with the VCD a standalone `EventDriven` run
/// of a multiplier built with its operands gives.
#[test]
fn server_runs_a_lone_unit_delay_job_event_driven_without_lowering() {
    use parsim_server::{InProcTransport, Request, Response, Server, ServerConfig, Transport};
    use parsim_telemetry::ServerCounter;

    const BITS: usize = 4;
    const PERIOD: u64 = 64;
    let operands = [(11, 13), (6, 0)];
    let base = gate_multiplier(BITS, &[(0, 0), (0, 0)], PERIOD).unwrap();
    let end = base.schedule_end();
    // The operands as overrides of the text's input generators.
    let overrides: Vec<(String, Vec<(u64, u64)>)> = base
        .a_inputs
        .iter()
        .chain(&base.b_inputs)
        .enumerate()
        .map(|(i, &node)| {
            let operand = |&(a, b): &(u64, u64)| if i < BITS { a } else { b };
            let values: Vec<Value> = operands
                .iter()
                .map(|p| Value::bit((operand(p) >> (i % BITS)) & 1 == 1))
                .collect();
            let kind = ElementKind::Pattern {
                period: PERIOD,
                values: values.into(),
            };
            let changes = expand_generator(&kind, end)
                .into_iter()
                .map(|(t, v)| (t.ticks(), v.to_u64().unwrap()))
                .collect();
            (base.netlist.node(node).name().to_string(), changes)
        })
        .collect();

    let server = std::sync::Arc::new(Server::start(ServerConfig::default()));
    let transport = InProcTransport::new(server.clone());
    let Response::Submitted { id } = transport.call(Request::Submit {
        tenant: "solo".into(),
        netlist: base.netlist.to_text(),
        watch: base
            .product
            .iter()
            .map(|&n| base.netlist.node(n).name().to_string())
            .collect(),
        end: end.ticks(),
        deadline_ms: None,
        overrides,
    }) else {
        panic!("submit refused");
    };
    let Response::Result {
        status,
        vcd,
        lanes_in_batch,
        engine,
        cache_hit,
        ..
    } = transport.call(Request::Result {
        id,
        wait_ms: 30_000,
    })
    else {
        panic!("expected a result response");
    };
    assert_eq!((status, lanes_in_batch), ("done", 1));
    assert_eq!((engine, cache_hit), (Some("event-driven"), false));
    let own = gate_multiplier(BITS, &operands, PERIOD).unwrap();
    let cfg = SimConfig::new(end).watch_all(own.product.iter().copied());
    let oracle = EventDriven::run(&own.netlist, &cfg).unwrap();
    assert_eq!(vcd.as_deref(), Some(oracle.to_vcd().as_str()));
    let m = server.metrics();
    assert_eq!(m.counter(ServerCounter::EventDrivenPasses), 1);
    assert_eq!(
        m.counter(ServerCounter::CacheMisses),
        0,
        "nothing was lowered"
    );
    assert_eq!(m.counter(ServerCounter::BatchPasses), 1);
}

/// The batch kernel's result path inside tier-1: three lanes — the
/// netlist's own stimulus and two lanes overriding its operand generators —
/// cut by `run_batch_segment` while carries are still rippling, resumed
/// from the snapshots, and stitched with `append_segment`. Each lane's VCD
/// is byte-equal to an uncut `EventDriven` run of a multiplier built with
/// that lane's operands, so the packed change logs, their transposition
/// into per-lane lists and the segment stitch all sit under `cargo test`.
#[test]
fn batch_lanes_cut_resumed_and_stitched_match_their_oracles_byte_for_byte() {
    const BITS: usize = 4;
    const PERIOD: u64 = 64;
    let operands: [[(u64, u64); 2]; 3] = [[(0, 0), (0, 0)], [(3, 5), (15, 15)], [(9, 7), (2, 12)]];
    let base = gate_multiplier(BITS, &operands[0], PERIOD).unwrap();
    let end = base.schedule_end();
    let cut = Time(PERIOD + 5);
    let stimuli = [
        LaneStimulus::base(),
        operand_lane(&base, &operands[1], end),
        operand_lane(&base, &operands[2], end),
    ];

    let cfg = SimConfig::new(end).watch_all(base.product.iter().copied()).threads(2);
    let (head, snaps) =
        CompiledMode::run_batch_segment(&base.netlist, &cfg, &stimuli, None, cut).unwrap();
    assert!(snaps.iter().any(|s| !s.pending.is_empty()), "the cut catches events in flight");
    let (tail, _) =
        CompiledMode::run_batch_segment(&base.netlist, &cfg, &stimuli, Some(&snaps), end).unwrap();

    for ((mut lane, tail), pairs) in head.lanes.into_iter().zip(&tail.lanes).zip(&operands) {
        lane.append_segment(tail);
        assert_eq!(lane.to_vcd(), multiplier_oracle_vcd(&base, pairs), "operands {pairs:?}");
    }
}

/// A lane that multiplies `pairs` on `base`'s netlist: overrides of its
/// operand generators, expanded as the engines expand a `Pattern` of each
/// bit.
fn operand_lane(base: &GateMultiplier, pairs: &[(u64, u64)], end: Time) -> LaneStimulus {
    let bits = base.a_inputs.len();
    let mut stim = LaneStimulus::base();
    for (i, &node) in base.a_inputs.iter().chain(&base.b_inputs).enumerate() {
        let operand = |&(a, b): &(u64, u64)| if i < bits { a } else { b };
        let values: Vec<Value> =
            pairs.iter().map(|p| Value::bit((operand(p) >> (i % bits)) & 1 == 1)).collect();
        let kind = ElementKind::Pattern { period: base.period, values: values.into() };
        stim = stim.drive(node, expand_generator(&kind, end));
    }
    stim
}

/// The product VCD of an uncut `EventDriven` run of a multiplier shaped
/// like `base` but built with `pairs`, over `base`'s schedule.
fn multiplier_oracle_vcd(base: &GateMultiplier, pairs: &[(u64, u64)]) -> String {
    let own = gate_multiplier(base.a_inputs.len(), pairs, base.period).unwrap();
    assert_eq!(own.product, base.product);
    let cfg = SimConfig::new(base.schedule_end()).watch_all(own.product.iter().copied());
    EventDriven::run(&own.netlist, &cfg).unwrap().to_vcd()
}

/// The batch kernel at every word width inside tier-1: 130 lanes, each
/// multiplying its own operands, through the matrix (every lane against
/// `EventDriven::run_lane` of its stimulus), and at lane widths 64, 128,
/// 256 and 512 — three chunks, two chunks, and one 256-lane word twice
/// (130 lanes need no wider word). Every lane's VCD is byte-identical at
/// all four widths, and lanes 0, 64 and 129 (the first lane of the first
/// and second 64-lane chunks, and the ragged last lane) are byte-equal to
/// `EventDriven` on a multiplier built with their operands.
#[test]
fn batch_lanes_are_byte_identical_at_every_lane_width() {
    const LANES: u64 = 130;
    let base = gate_multiplier(4, &[(0, 0); 2], 64).unwrap();
    let end = base.schedule_end();
    // Lane `l`'s first pair is (l % 16, l / 16): no two lanes alike.
    let pairs = |l: u64| [(l % 16, l / 16), (15 - l % 16, (l * 7) % 16)];
    let stimuli: Vec<LaneStimulus> =
        (0..LANES).map(|l| operand_lane(&base, &pairs(l), end)).collect();
    let circuit = Circuit::new("130 multiplier lanes", &base.netlist, base.product.clone(), end);
    let vcds: Vec<String> = check(&circuit.lanes(stimuli.clone()))
        .lanes
        .iter()
        .map(|lane| lane.to_vcd())
        .collect();

    let cfg = SimConfig::new(end).watch_all(base.product.iter().copied()).threads(2);
    for (width, used) in [(64, 64), (128, 128), (256, 256), (512, 256)] {
        let wide = cfg.clone().with_lane_width(width);
        let batch = CompiledMode::run_batch(&base.netlist, &wide, &stimuli).unwrap();
        assert_eq!(batch.metrics.lane_width, used, "lane width {width}");
        for (l, lane) in batch.lanes.iter().enumerate() {
            assert_eq!(lane.to_vcd(), vcds[l], "lane {l} at width {width}");
        }
    }
    for l in [0, 64, 129] {
        assert_eq!(vcds[l as usize], multiplier_oracle_vcd(&base, &pairs(l)), "lane {l}");
    }
}

/// Threads split lanes, not gates, inside tier-1: the same 130 lanes with
/// no forced width at 1, 2, 3 and 4 threads run as one 256-wide chunk, two
/// 65-lane chunks at 128, and three or four chunks at 64, one worker per
/// chunk. Every fifth lane keeps the netlist's own operands, so chunks
/// that start inside a word mix base and overridden lanes. The matrix
/// holds every lane to its oracle; here every lane's VCD and the event
/// count match at every thread count, and a 2-lane batch at 4 threads
/// starts 2 workers.
#[test]
fn batch_threads_split_lanes_and_match_one_thread() {
    const LANES: u64 = 130;
    let base = gate_multiplier(4, &[(5, 3), (9, 14)], 64).unwrap();
    let end = base.schedule_end();
    let pairs = |l: u64| [(l % 16, l / 16), (15 - l % 16, (l * 7) % 16)];
    let stimuli: Vec<LaneStimulus> = (0..LANES)
        .map(|l| match l % 5 {
            0 => LaneStimulus::base(),
            _ => operand_lane(&base, &pairs(l), end),
        })
        .collect();
    let circuit = Circuit::new("130 mixed lanes", &base.netlist, base.product.clone(), end);
    let vcds: Vec<String> = check(&circuit.lanes(stimuli.clone()))
        .lanes
        .iter()
        .map(|lane| lane.to_vcd())
        .collect();
    let cfg = SimConfig::new(end).watch_all(base.product.iter().copied());
    let workers_ran =
        |m: &parsim::engine::Metrics| m.per_thread.iter().filter(|t| t.evaluations > 0).count();

    let mut events = Vec::new();
    for (threads, width, chunks) in [(1, 256, 1), (2, 128, 2), (3, 64, 3), (4, 64, 4)] {
        let batch =
            CompiledMode::run_batch(&base.netlist, &cfg.clone().threads(threads), &stimuli)
                .unwrap();
        assert_eq!(batch.metrics.lane_width, width, "x{threads}");
        assert_eq!(workers_ran(&batch.metrics), threads.min(chunks), "x{threads}");
        events.push(batch.metrics.events_processed);
        for (l, lane) in batch.lanes.iter().enumerate() {
            assert_eq!(lane.to_vcd(), vcds[l], "lane {l} at {threads} threads");
        }
    }
    assert!(events.windows(2).all(|w| w[0] == w[1]), "events moved: {events:?}");

    let two = CompiledMode::run_batch(&base.netlist, &cfg.threads(4), &stimuli[..2]).unwrap();
    assert_eq!(workers_ran(&two.metrics), 2, "two lanes make two chunks");
    for (l, lane) in two.lanes.iter().enumerate() {
        assert_eq!(lane.to_vcd(), vcds[l], "lane {l} of two");
    }
}

/// The batch kernel's failure containment inside tier-1: a worker that
/// panics mid-run is reported by index, and the next run of the same batch
/// on the same netlist is byte-equal to its oracle.
#[test]
fn batch_worker_panic_is_contained_and_the_next_run_is_clean() {
    use parsim::engine::SimError;

    let m = gate_multiplier(4, &[(3, 5), (9, 7)], 64).unwrap();
    let end = m.schedule_end();
    let cfg = SimConfig::new(end).watch_all(m.product.iter().copied());
    let lanes = [LaneStimulus::base(), LaneStimulus::base()];
    let faulty = cfg.clone().threads(2).with_fault(FaultPlan::panic_at(1, 3));
    let err = CompiledMode::run_batch(&m.netlist, &faulty, &lanes).unwrap_err();
    assert!(
        matches!(err, SimError::WorkerPanicked { worker: 1, .. }),
        "got {err}"
    );

    let clean = CompiledMode::run_batch(&m.netlist, &cfg.clone().threads(2), &lanes).unwrap();
    let oracle = EventDriven::run(&m.netlist, &cfg).unwrap().to_vcd();
    for lane in &clean.lanes {
        assert_eq!(lane.to_vcd(), oracle);
    }
}

/// Batch lanes on nodes wider than one bit inside tier-1: a unit-delay RTL
/// datapath whose watched nodes are 1, 7 (a tri-state slice that floats
/// to `Z` while the clock is low), 32, 33 and 64 bits wide, run as 70
/// lanes — a ragged 128-lane word at one thread, two 35-lane chunks at
/// two. Every lane drives its own 32-bit operands, its VCD is identical
/// at both thread counts, and every lane's VCD is byte-equal to
/// `EventDriven::run_lane` of its stimulus.
#[test]
fn multi_bit_batch_lanes_match_event_driven_byte_for_byte() {
    use parsim::netlist::Builder;

    const LANES: u64 = 70;
    const PERIOD: u64 = 40;
    let end = Time(4 * PERIOD);
    let mut b = Builder::new();
    let operand = |b: &mut Builder, name: &str, seed: u64| {
        let node = b.node(name, 32);
        let values: Vec<Value> = (0..4u64)
            .map(|k| Value::from_u64((seed + k).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32, 32))
            .collect();
        let kind = ElementKind::Pattern { period: PERIOD, values: values.into() };
        b.element(&format!("{name}gen"), kind, parsim::logic::Delay(1), &[], &[node]).unwrap();
        node
    };
    let a = operand(&mut b, "a", 1);
    let c = operand(&mut b, "b", 2);
    let one = |kind: ElementKind, b: &mut Builder, name: &str, ins: &[_], width: u8| {
        let out = b.node(name, width);
        b.element(&format!("{name}_e"), kind, parsim::logic::Delay(1), ins, &[out]).unwrap();
        out
    };
    let clk = one(ElementKind::Clock { half_period: 5, offset: 5 }, &mut b, "clk", &[], 1);
    let cin = one(ElementKind::Const { value: Value::bit(false) }, &mut b, "cin", &[], 1);
    let prod = one(ElementKind::Multiplier { width: 32 }, &mut b, "prod", &[a, c], 64);
    let acc = one(ElementKind::Dff { width: 64 }, &mut b, "acc", &[clk, prod], 64);
    let (sum, cout) = (b.node("sum", 32), b.node("cout", 1));
    let adder = ElementKind::Adder { width: 32 };
    b.element("add", adder, parsim::logic::Delay(1), &[a, c, cin], &[sum, cout]).unwrap();
    let ext = ElementKind::ZeroExt { in_width: 32, out_width: 33 };
    let sum33 = one(ext, &mut b, "sum33", &[sum], 33);
    let slice = ElementKind::Slice { in_width: 32, lo: 3, width: 7 };
    let mid = one(slice, &mut b, "mid", &[a], 7);
    let bus = one(ElementKind::TriBuf { width: 7 }, &mut b, "bus", &[clk, mid], 7);
    let netlist = b.finish().unwrap();

    let lane = |l: u64| {
        let schedule = |salt: u64| {
            (0..4u64)
                .map(|k| {
                    let v = (l * 977 + salt + k).wrapping_mul(0xd1b5_4a32_d192_ed03) >> 32;
                    (Time(k * PERIOD), Value::from_u64(v, 32))
                })
                .collect()
        };
        match l % 7 {
            0 => LaneStimulus::base(),
            _ => LaneStimulus::base().drive(a, schedule(11)).drive(c, schedule(29)),
        }
    };
    let stimuli: Vec<LaneStimulus> = (0..LANES).map(lane).collect();
    let watch = [a, c, prod, acc, sum, cout, sum33, bus];
    let cfg = SimConfig::new(end).watch_all(watch);
    let widths: Vec<u8> = watch.iter().map(|&n| netlist.node(n).width()).collect();
    assert_eq!(widths, [32, 32, 64, 64, 32, 1, 33, 7]);

    let one_thread = CompiledMode::run_batch(&netlist, &cfg, &stimuli).unwrap();
    let two_threads = CompiledMode::run_batch(&netlist, &cfg.clone().threads(2), &stimuli).unwrap();
    assert_eq!(one_thread.metrics.lane_width, 128);
    assert_eq!(two_threads.metrics.lane_width, 64);
    let mut saw_z = false;
    for (l, stim) in stimuli.iter().enumerate() {
        let vcd = one_thread.lanes[l].to_vcd();
        assert_eq!(vcd, two_threads.lanes[l].to_vcd(), "lane {l} at two threads");
        let oracle = EventDriven::run_lane(&netlist, &cfg, stim).unwrap();
        assert_eq!(vcd, oracle.to_vcd(), "lane {l}");
        saw_z |= vcd.contains("bzzzzzzz ");
    }
    assert!(saw_z, "the tri-state slice floats in the dump");
}
