//! Integration tests across the whole workspace, through the `parsim`
//! facade: circuits → engines → machine models must stay mutually
//! consistent.

use parsim::circuits::{
    functional_multiplier, gate_multiplier, inverter_array, pipelined_cpu, random_circuit,
    RandomCircuitParams,
};
use parsim::engine::{
    assert_equivalent, checkpoint, ChaoticAsync, CompiledMode, EngineKind, EventDriven, FaultPlan,
    SimConfig, StorageFault, SyncEventDriven,
};
use parsim::logic::Time;
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

/// A stimulus the engines would assert on is a parse error with its line
/// number, never a netlist.
#[test]
fn malformed_generator_is_a_parse_error() {
    let err = Netlist::from_text("node c 1\nnode q 1\nelem osc clock:0:5 delay=1 out=c\n")
        .expect_err("a zero half-period must not parse");
    assert_eq!(err.line(), 3);
}

/// Cross-crate smoke over the multi-threaded engines: the acyclic gate
/// multiplier and the CPU with feedback, every parallel engine at more
/// than one thread, all bit-identical to the sequential oracle — plus a
/// crash-and-resume of the asynchronous engine from its own checkpoints.
#[test]
fn parallel_engines_and_checkpoint_resume_match_oracle() {
    let m = gate_multiplier(8, &[(123, 231), (255, 1)], 160).unwrap();
    let cpu = pipelined_cpu(8, 48).unwrap();
    let mut cpu_watch = cpu.pc.clone();
    cpu_watch.extend(cpu.wb_result.iter().copied());
    let cases = [
        ("multiplier", &m.netlist, m.product.clone(), m.schedule_end()),
        ("cpu", &cpu.netlist, cpu_watch, Time(400)),
    ];
    for (name, netlist, watch, end) in cases {
        let cfg = SimConfig::new(end).watch_all(watch);
        let seq = EventDriven::run(netlist, &cfg).unwrap();
        for threads in [1, 2, 4] {
            let r = ChaoticAsync::run(netlist, &cfg.clone().threads(threads)).unwrap();
            assert_equivalent(&seq, &r, &format!("{name}: async x{threads}"));
        }
        let cfg2 = cfg.clone().threads(2);
        let r = SyncEventDriven::run(netlist, &cfg2).unwrap();
        assert_equivalent(&seq, &r, &format!("{name}: sync x2"));
        let r = CompiledMode::run(netlist, &cfg2).unwrap();
        assert_equivalent(&seq, &r, &format!("{name}: compiled x2"));

        // The machine dies during the second checkpoint's fsync; the
        // resumed run continues from the first and must not differ.
        let dir = std::env::temp_dir()
            .join(format!("parsim-full-stack-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = cfg2
            .with_checkpoint_dir(&dir)
            .with_checkpoint_every(end.ticks() / 4);
        let crashing = ckpt
            .clone()
            .with_fault(FaultPlan::storage_fault(1, StorageFault::FsyncCrash));
        checkpoint::run(EngineKind::Chaotic, netlist, &crashing)
            .expect_err("the injected storage crash must end the run");
        let r = checkpoint::resume(EngineKind::Chaotic, netlist, &ckpt).unwrap();
        assert_equivalent(&seq, &r, &format!("{name}: async resumed"));
        let _ = std::fs::remove_dir_all(&dir);
    }
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
                [2716, 7021, 18448, 0, 0, 0, 0, 0],
            ],
            [18424, 24, 24],
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
    use parsim::logic::{expand_generator, ElementKind, Value};
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
    use parsim::logic::{expand_generator, ElementKind, Value};
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
    use parsim::engine::LaneStimulus;
    use parsim::logic::{expand_generator, ElementKind, Value};

    const BITS: usize = 4;
    const PERIOD: u64 = 64;
    let operands: [[(u64, u64); 2]; 3] = [[(0, 0), (0, 0)], [(3, 5), (15, 15)], [(9, 7), (2, 12)]];
    let base = gate_multiplier(BITS, &operands[0], PERIOD).unwrap();
    let end = base.schedule_end();
    let cut = Time(PERIOD + 5);

    // A lane's operands as overrides of the base netlist's input
    // generators: the expansion the engines apply to a `Pattern` of the bit.
    let drive = |pairs: &[(u64, u64)]| {
        let mut stim = LaneStimulus::base();
        for (i, &node) in base.a_inputs.iter().chain(&base.b_inputs).enumerate() {
            let operand = |&(a, b): &(u64, u64)| if i < BITS { a } else { b };
            let values: Vec<Value> =
                pairs.iter().map(|p| Value::bit((operand(p) >> (i % BITS)) & 1 == 1)).collect();
            let kind = ElementKind::Pattern { period: PERIOD, values: values.into() };
            stim = stim.drive(node, expand_generator(&kind, end));
        }
        stim
    };
    let stimuli = [LaneStimulus::base(), drive(&operands[1]), drive(&operands[2])];

    let cfg = SimConfig::new(end).watch_all(base.product.iter().copied()).threads(2);
    let (head, snaps) =
        CompiledMode::run_batch_segment(&base.netlist, &cfg, &stimuli, None, cut).unwrap();
    assert!(snaps.iter().any(|s| !s.pending.is_empty()), "the cut catches events in flight");
    let (tail, _) =
        CompiledMode::run_batch_segment(&base.netlist, &cfg, &stimuli, Some(&snaps), end).unwrap();

    for ((mut lane, tail), pairs) in head.lanes.into_iter().zip(&tail.lanes).zip(&operands) {
        lane.append_segment(tail);
        let own = gate_multiplier(BITS, pairs, PERIOD).unwrap();
        assert_eq!(own.product, base.product);
        let oracle_cfg = SimConfig::new(end).watch_all(own.product.iter().copied());
        let oracle = EventDriven::run(&own.netlist, &oracle_cfg).unwrap();
        assert_eq!(lane.to_vcd(), oracle.to_vcd(), "operands {pairs:?}");
    }
}

/// The batch kernel's failure containment inside tier-1: a worker that
/// panics mid-run is reported by index, and the next run of the same batch
/// on the same netlist is byte-equal to its oracle.
#[test]
fn batch_worker_panic_is_contained_and_the_next_run_is_clean() {
    use parsim::engine::{LaneStimulus, SimError};

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
