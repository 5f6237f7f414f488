//! The experiments: one function per figure/claim of the paper.

use parsim_core::{ChaoticAsync, EventDriven, SimConfig};
use parsim_logic::Time;
use parsim_machine::{
    model_async, model_compiled, model_seq, model_sync, MachineConfig, OsInterrupts,
    PartitionStrategy,
};
use parsim_netlist::Netlist;

use crate::bench_circuits::{
    paper_cpu, paper_functional_multiplier, paper_gate_multiplier, paper_inverter_array,
    PROC_SWEEP,
};
use crate::table::Table;

fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Speed-up sweep of one modeled algorithm over the processor list,
/// normalized to its own one-processor run (the paper's normalization).
fn sync_speedups(netlist: &Netlist, end: Time) -> Vec<(usize, f64, f64)> {
    let uni = model_seq(netlist, end, &MachineConfig::multimax(1).cost);
    PROC_SWEEP
        .iter()
        .map(|&p| {
            let r = model_sync(netlist, end, &MachineConfig::multimax(p));
            (p, r.speedup(&uni), r.utilization())
        })
        .collect()
}

/// Figure 1: speed-up of the synchronous event-driven algorithm on the
/// paper's four circuits.
pub fn fig1_event_driven() -> Table {
    let gate = paper_gate_multiplier(4);
    let func = paper_functional_multiplier(8);
    let cpu = paper_cpu();
    let arr = paper_inverter_array(2);
    let runs = [
        ("gate-mult", sync_speedups(&gate.netlist, gate.schedule_end())),
        ("func-mult", sync_speedups(&func.netlist, func.schedule_end())),
        ("cpu", sync_speedups(&cpu.netlist, Time(2048))),
        ("inv-array", sync_speedups(&arr.netlist, Time(200))),
    ];
    let mut t = Table::new(
        "Figure 1 — synchronous event-driven speed-up vs processors",
        &["procs", "gate-mult", "func-mult", "cpu", "inv-array"],
    );
    for (i, &p) in PROC_SWEEP.iter().enumerate() {
        t.row(vec![
            p.to_string(),
            fmt2(runs[0].1[i].1),
            fmt2(runs[1].1[i].1),
            fmt2(runs[2].1[i].1),
            fmt2(runs[3].1[i].1),
        ]);
    }
    t.note("paper: gate-level multiplier reaches 6-9 at 15 processors; the RTL multiplier scales poorly; a dip/knee appears past 8 processors (cache sharing).");
    t
}

/// Figure 2: speed-up vs processors at controlled event densities
/// (512/256/128/64 events per tick on the 32×16 inverter array).
pub fn fig2_event_density() -> Table {
    let mut t = Table::new(
        "Figure 2 — events per time step vs achievable speed-up (inverter array)",
        &["procs", "512 ev/tick", "256 ev/tick", "128 ev/tick", "64 ev/tick"],
    );
    let sweeps: Vec<Vec<(usize, f64, f64)>> = [1u64, 2, 4, 8]
        .iter()
        .map(|&tp| {
            let arr = paper_inverter_array(tp);
            sync_speedups(&arr.netlist, Time(200))
        })
        .collect();
    for (i, &p) in PROC_SWEEP.iter().enumerate() {
        t.row(vec![
            p.to_string(),
            fmt2(sweeps[0][i].1),
            fmt2(sweeps[1][i].1),
            fmt2(sweeps[2][i].1),
            fmt2(sweeps[3][i].1),
        ]);
    }
    t.note("paper: the denser the event supply, the later the speed-up saturates; ~1000 events/step are needed to use more than 16 processors efficiently.");
    t
}

/// Figure 3: compiled-mode speed-ups.
pub fn fig3_compiled() -> Table {
    let arr = paper_inverter_array(1);
    let gate = paper_gate_multiplier(1);
    let func = paper_functional_multiplier(2);
    let sweep = |netlist: &Netlist, end: Time| -> Vec<f64> {
        let uni = model_compiled(
            netlist,
            end,
            &MachineConfig::multimax(1),
            PartitionStrategy::RoundRobin,
        );
        PROC_SWEEP
            .iter()
            .map(|&p| {
                model_compiled(
                    netlist,
                    end,
                    &MachineConfig::multimax(p),
                    PartitionStrategy::RoundRobin,
                )
                .speedup(&uni)
            })
            .collect()
    };
    let a = sweep(&arr.netlist, Time(128));
    let g = sweep(&gate.netlist, Time(128));
    let f = sweep(&func.netlist, Time(128));
    let mut t = Table::new(
        "Figure 3 — compiled-mode speed-up vs processors",
        &["procs", "inv-array", "gate-mult", "func-mult"],
    );
    for (i, &p) in PROC_SWEEP.iter().enumerate() {
        t.row(vec![p.to_string(), fmt2(a[i]), fmt2(g[i]), fmt2(f[i])]);
    }
    t.note("paper: 10-13 at 15 processors for gate-level circuits; the ~100-element functional multiplier balances poorly and trails.");
    t
}

/// Figure 4: asynchronous algorithm speed-ups (and utilizations).
pub fn fig4_async() -> Table {
    let arr = paper_inverter_array(1);
    let gate = paper_gate_multiplier(4);
    let func = paper_functional_multiplier(8);
    let sweep = |netlist: &Netlist, end: Time| -> Vec<(f64, f64)> {
        let uni = model_async(netlist, end, &MachineConfig::multimax(1));
        PROC_SWEEP
            .iter()
            .map(|&p| {
                let r = model_async(netlist, end, &MachineConfig::multimax(p));
                (r.speedup(&uni), r.utilization())
            })
            .collect()
    };
    let a = sweep(&arr.netlist, Time(200));
    let g = sweep(&gate.netlist, gate.schedule_end());
    let f = sweep(&func.netlist, func.schedule_end());
    let mut t = Table::new(
        "Figure 4 — asynchronous algorithm speed-up (utilization) vs processors",
        &[
            "procs",
            "inv-array",
            "util",
            "gate-mult",
            "util",
            "func-mult",
            "util",
        ],
    );
    for (i, &p) in PROC_SWEEP.iter().enumerate() {
        t.row(vec![
            p.to_string(),
            fmt2(a[i].0),
            pct(a[i].1),
            fmt2(g[i].0),
            pct(g[i].1),
            fmt2(f[i].0),
            pct(f[i].1),
        ]);
    }
    t.note("paper: inverter array best (91% utilization at 8 processors); the gate-level multiplier suffers most from cache sharing; the functional multiplier pipelines with reduced events-per-evaluation.");
    t
}

/// Figure 5: asynchronous versus event-driven on the inverter array.
pub fn fig5_comparison() -> Table {
    let arr = paper_inverter_array(4);
    let end = Time(300);
    let uni = model_seq(&arr.netlist, end, &MachineConfig::multimax(1).cost);
    let mut t = Table::new(
        "Figure 5 — comparative speeds on the inverter array (normalized to uniprocessor event-driven)",
        &["procs", "event-driven", "ed util", "async", "async util"],
    );
    for &p in PROC_SWEEP {
        let s = model_sync(&arr.netlist, end, &MachineConfig::multimax(p));
        let a = model_async(&arr.netlist, end, &MachineConfig::multimax(p));
        t.row(vec![
            p.to_string(),
            fmt2(s.speedup(&uni)),
            pct(s.utilization()),
            fmt2(a.speedup(&uni)),
            pct(a.utilization()),
        ]);
    }
    t.note("paper: at 16 processors the asynchronous algorithm reaches 68% utilization, 10-20 points above the event-driven algorithm, and is absolutely faster throughout.");
    t
}

/// §5's uniprocessor claim, measured two ways: modeled virtual cycles and
/// *real wall-clock* of the actual engines (meaningful on one core).
pub fn uniproc_ratio() -> Table {
    let mut t = Table::new(
        "§5 — uniprocessor asynchronous vs event-driven (ratio > 1 means async faster)",
        &["circuit", "modeled ratio", "wall-clock ratio", "events/eval (async)"],
    );
    let arr = paper_inverter_array(2);
    let func = paper_functional_multiplier(16);
    let gate = paper_gate_multiplier(4);
    let cases: Vec<(&str, &Netlist, Time)> = vec![
        ("inv-array", &arr.netlist, Time(2000)),
        ("func-mult", &func.netlist, func.schedule_end()),
        ("gate-mult", &gate.netlist, gate.schedule_end()),
    ];
    for (name, netlist, end) in cases {
        let m_seq = model_seq(netlist, end, &MachineConfig::multimax(1).cost);
        let m_asy = model_async(netlist, end, &MachineConfig::multimax(1));
        let modeled = m_seq.virtual_time as f64 / m_asy.virtual_time as f64;
        // Real engines, wall clock, best of 3.
        let cfg = SimConfig::new(end);
        let wall = |f: &dyn Fn() -> std::time::Duration| -> f64 {
            (0..3).map(|_| f()).min().expect("3 runs").as_secs_f64()
        };
        let t_seq = wall(&|| EventDriven::run(netlist, &cfg).unwrap().metrics.wall);
        let t_asy = wall(&|| ChaoticAsync::run(netlist, &cfg).unwrap().metrics.wall);
        let real = t_seq / t_asy;
        let batching = m_asy.evaluations as f64 / m_asy.activations.max(1) as f64;
        t.row(vec![
            name.to_string(),
            fmt2(modeled),
            fmt2(real),
            fmt2(batching),
        ]);
    }
    t.note("paper: the uniprocessor asynchronous algorithm is 1-3x faster than the event-driven algorithm (batching amortizes scheduling overhead).");
    t
}

/// §4's event-availability statistic on large circuits.
pub fn event_stats() -> Table {
    let gate = paper_gate_multiplier(4);
    let cpu = paper_cpu();
    let mut t = Table::new(
        "§4 — events available per time step (sequential reference engine)",
        &["circuit", "elements", "active steps", "mean ev/step", "steps with <=5 ev", "activity/step"],
    );
    for (name, netlist, end) in [
        ("gate-mult", &gate.netlist, gate.schedule_end()),
        ("cpu", &cpu.netlist, Time(4096)),
    ] {
        let r = EventDriven::run(netlist, &SimConfig::new(end)).unwrap();
        let h = &r.metrics.events_per_step;
        t.row(vec![
            name.to_string(),
            netlist.num_elements().to_string(),
            h.steps().to_string(),
            format!("{:.1}", h.mean()),
            pct(h.fraction_at_most(5)),
            format!("{:.2}%", r.metrics.activity(netlist.num_elements()) * 100.0),
        ]);
    }
    t.note("paper (citing Soule & Blank 1987, Wong & Franklin 1986): even 5000-gate circuits can have fewer than 5 events available ~50% of the time; gate-level element activity is typically 0.1-0.5% per step.");
    t
}

/// §2 ablation: one central queue versus distributed per-processor queues.
pub fn ablation_queues() -> Table {
    let arr = paper_inverter_array(1);
    let end = Time(150);
    let uni = model_seq(&arr.netlist, end, &MachineConfig::multimax(1).cost);
    let mut t = Table::new(
        "§2 ablation — central vs distributed queues (inverter array)",
        &["procs", "central", "distributed"],
    );
    for &p in &[1usize, 2, 4, 8, 12, 16] {
        let mut central = MachineConfig::multimax(p);
        central.distributed_queues = false;
        let c = model_sync(&arr.netlist, end, &central).speedup(&uni);
        let d = model_sync(&arr.netlist, end, &MachineConfig::multimax(p)).speedup(&uni);
        t.row(vec![p.to_string(), fmt2(c), fmt2(d)]);
    }
    t.note("paper: the initial centralized implementation achieved at most ~2x with 8 processors; distributing the queues fixed it.");
    t
}

/// §2 ablation: end-of-phase work stealing on/off.
pub fn ablation_stealing() -> Table {
    // The CPU's bursty clock-edge steps carry hundreds of events with
    // data-dependent evaluation times — the load-imbalance regime where
    // end-of-phase stealing pays off.
    let cpu = paper_cpu();
    let end = Time(3072);
    let mut t = Table::new(
        "§2 ablation — work stealing (pipelined CPU)",
        &["procs", "static util", "stealing util", "static speedup", "stealing speedup"],
    );
    let uni = model_seq(&cpu.netlist, end, &MachineConfig::multimax(1).cost);
    for &p in &[4usize, 8, 15] {
        let mut no_steal = MachineConfig::multimax(p);
        no_steal.work_stealing = false;
        let s0 = model_sync(&cpu.netlist, end, &no_steal);
        let s1 = model_sync(&cpu.netlist, end, &MachineConfig::multimax(p));
        t.row(vec![
            p.to_string(),
            pct(s0.utilization()),
            pct(s1.utilization()),
            fmt2(s0.speedup(&uni)),
            fmt2(s1.speedup(&uni)),
        ]);
    }
    t.note("paper: stealing at the end of each phase gave 15-20% better utilization than static balancing.");
    t
}

/// §2 ablation: the unpatched OS's working-set scans.
pub fn ablation_os_interrupts() -> Table {
    let arr = paper_inverter_array(2);
    let end = Time(200);
    let uni = model_seq(&arr.netlist, end, &MachineConfig::multimax(1).cost);
    let mut t = Table::new(
        "§2 ablation — OS working-set-scan interference (inverter array)",
        &["procs", "patched OS", "unpatched OS"],
    );
    for &p in &[4usize, 8, 16] {
        let clean = model_sync(&arr.netlist, end, &MachineConfig::multimax(p)).speedup(&uni);
        let mut noisy_cfg = MachineConfig::multimax(p);
        // Interrupt stalls comparable to a simulation step every ~20 steps.
        noisy_cfg.os_interrupts = Some(OsInterrupts {
            period: 20_000,
            duration: 2_000,
        });
        let noisy = model_sync(&arr.netlist, end, &noisy_cfg).speedup(&uni);
        t.row(vec![p.to_string(), fmt2(clean), fmt2(noisy)]);
    }
    t.note("paper: a working-set scan froze one process for 0.1-0.25s every 2s, stalling every barrier-synchronized peer, until the kernel was modified.");
    t
}

/// §4 ablation: gate-specific lookahead — the controlling-value rule on
/// the (register-free) gate multiplier, modeled, and the register trigger
/// rule on the pipelined CPU, where every loop runs through a flip-flop,
/// measured on the real engine.
pub fn ablation_lookahead() -> Table {
    let gate = paper_gate_multiplier(4);
    let end = gate.schedule_end();
    let mut t = Table::new(
        "§4 ablation — lookahead (gate-level multiplier modeled; pipelined CPU on the real engine)",
        &["circuit", "measure", "with lookahead", "without", "ratio"],
    );
    for &p in &[1usize, 8, 16] {
        let with = model_async(&gate.netlist, end, &MachineConfig::multimax(p));
        let mut cfg = MachineConfig::multimax(p);
        cfg.lookahead = false;
        let without = model_async(&gate.netlist, end, &cfg);
        t.row(vec![
            "gate-mult".into(),
            format!("model time @{p}"),
            with.virtual_time.to_string(),
            without.virtual_time.to_string(),
            fmt2(without.virtual_time as f64 / with.virtual_time as f64),
        ]);
    }
    let cpu = paper_cpu();
    let cfg = SimConfig::new(Time(2048));
    // Median of five 1-thread runs each; the counts repeat exactly.
    let median_run = |cfg: &SimConfig| {
        let mut runs: Vec<_> =
            (0..5).map(|_| ChaoticAsync::run(&cpu.netlist, cfg).expect("cpu runs").metrics).collect();
        runs.sort_by_key(|m| m.wall);
        runs.swap_remove(2)
    };
    let with = median_run(&cfg);
    let without = median_run(&cfg.clone().without_lookahead());
    assert_eq!(with.events_processed, without.events_processed, "lookahead moved events");
    t.row(vec![
        "cpu".into(),
        "engine activations".into(),
        with.activations.to_string(),
        without.activations.to_string(),
        fmt2(without.activations as f64 / with.activations as f64),
    ]);
    let ms = |m: &parsim_core::Metrics| m.wall.as_secs_f64() * 1e3;
    t.row(vec![
        "cpu".into(),
        "engine wall ms".into(),
        fmt2(ms(&with)),
        fmt2(ms(&without)),
        fmt2(ms(&without) / ms(&with)),
    ]);
    t.note("paper: knowledge of an AND gate's controlling value lets events on other inputs be ignored while the output is pinned. The same §4 idea applied to registers: a flip-flop's output cannot move before its next rising clock edge or reset assertion, whatever its data input, a falling edge or a reset release does.");
    t
}

/// §4's storage claim: concurrent garbage collection of consumed events,
/// measured on the real lock-free engine.
pub fn gc_effectiveness() -> Table {
    let arr = paper_inverter_array(1);
    let end = Time(4000);
    let mut t = Table::new(
        "§4 — asynchronous garbage collection (real engine, inverter array, 4000 ticks)",
        &["threads", "events", "chunks freed (gc on)", "chunks freed (gc off)"],
    );
    for threads in [1usize, 2] {
        let cfg = SimConfig::new(end).threads(threads);
        let on = ChaoticAsync::run(&arr.netlist, &cfg).unwrap();
        let off = ChaoticAsync::run(&arr.netlist, &cfg.clone().without_gc()).unwrap();
        t.row(vec![
            threads.to_string(),
            on.metrics.events_processed.to_string(),
            on.metrics.gc_chunks_freed.to_string(),
            off.metrics.gc_chunks_freed.to_string(),
        ]);
    }
    t.note("paper: storage for events is freed once all fan-out elements have consumed them — eliminating Time-Warp-style state explosion.");
    t
}

/// §5/§6 — long feedback chains: the asynchronous algorithm's advantage
/// collapses as feedback locks the circuit into event-at-a-time
/// processing.
pub fn feedback_experiment() -> Table {
    let mut t = Table::new(
        "§5/§6 — feedback-chain length vs algorithm choice (8 virtual processors)",
        &["rings x length", "ed speedup", "async speedup", "async/ed time", "async batching"],
    );
    // Same total element count (~256), different feedback structure:
    // many short rings pipeline; one long ring serializes.
    for (rings, length) in [(32usize, 8usize), (8, 32), (2, 128), (1, 256)] {
        let fb = parsim_circuits::feedback_chain(rings, length).expect("valid circuit");
        let end = Time(600);
        let uni = model_seq(&fb.netlist, end, &MachineConfig::multimax(1).cost);
        let m8 = MachineConfig::multimax(8);
        let s = model_sync(&fb.netlist, end, &m8);
        let a = model_async(&fb.netlist, end, &m8);
        t.row(vec![
            format!("{rings} x {length}"),
            fmt2(s.speedup(&uni)),
            fmt2(a.speedup(&uni)),
            fmt2(a.virtual_time as f64 / s.virtual_time as f64),
            fmt2(a.evaluations as f64 / a.activations.max(1) as f64),
        ]);
    }
    t.note("paper (§5): 'for circuits with long feed-back chains, it looks like the event-driven algorithm will be faster especially with a large number of processors.' A time ratio above 1 means event-driven wins.");
    t
}

/// §6 — tristate-bus circuits: the resolver is a serialization hub.
pub fn bus_experiment() -> Table {
    let mut t = Table::new(
        "§6 — shared tristate bus (speed-ups at 8 virtual processors)",
        &["drivers", "ed speedup", "async speedup", "async util"],
    );
    for drivers in [4usize, 16, 64] {
        let bus = parsim_circuits::shared_bus(drivers, 16, 16).expect("valid circuit");
        let end = Time(600);
        let uni = model_seq(&bus.netlist, end, &MachineConfig::multimax(1).cost);
        let m8 = MachineConfig::multimax(8);
        let s = model_sync(&bus.netlist, end, &m8);
        let a = model_async(&bus.netlist, end, &m8);
        t.row(vec![
            drivers.to_string(),
            fmt2(s.speedup(&uni)),
            fmt2(a.speedup(&uni)),
            pct(a.utilization()),
        ]);
    }
    t.note("paper (§6 future work): 'the effects of circuits with very large feedback chains and large busses on the algorithm's performance.' The resolver funnels every driver's events through one element.");
    t
}

/// §6 — representation levels: the same 16x16 multiply workload at gate
/// level versus functional level, under both parallel algorithms.
pub fn levels_experiment() -> Table {
    let gate = paper_gate_multiplier(4);
    let func = paper_functional_multiplier(4);
    let mut t = Table::new(
        "§6 — abstraction level (same 16x16 multiply workload, 8 virtual processors)",
        &["level", "elements", "events", "evals", "async batching", "ed speedup", "async speedup"],
    );
    for (name, netlist, end) in [
        ("gate", &gate.netlist, gate.schedule_end()),
        ("functional", &func.netlist, func.schedule_end()),
    ] {
        let uni = model_seq(netlist, end, &MachineConfig::multimax(1).cost);
        let m8 = MachineConfig::multimax(8);
        let s = model_sync(netlist, end, &m8);
        let a = model_async(netlist, end, &m8);
        t.row(vec![
            name.to_string(),
            netlist.num_elements().to_string(),
            a.events.to_string(),
            a.evaluations.to_string(),
            fmt2(a.evaluations as f64 / a.activations.max(1) as f64),
            fmt2(s.speedup(&uni)),
            fmt2(a.speedup(&uni)),
        ]);
    }
    t.note("paper (§6 future work): 'investigating the effects of simulating circuits at different representation levels.' One functional evaluation replaces dozens of gate events; the asynchronous algorithm keeps its advantage at both levels.");
    t
}

/// §6 — the hypercube port: how well does each algorithm tolerate
/// message latency? (The paper lists "porting these algorithms to a
/// hypercube architecture" as future work.)
pub fn hypercube_experiment() -> Table {
    let arr = paper_inverter_array(1);
    let end = Time(200);
    let uni = model_seq(&arr.netlist, end, &MachineConfig::multimax(1).cost);
    let mut t = Table::new(
        "§6 — 16-node hypercube vs shared memory (inverter array, speed-ups vs uniprocessor event-driven)",
        &["interconnect", "ed speedup", "async speedup", "async util"],
    );
    let shared = MachineConfig::multimax(16);
    let s = model_sync(&arr.netlist, end, &shared);
    let a = model_async(&arr.netlist, end, &shared);
    t.row(vec![
        "shared memory".to_string(),
        fmt2(s.speedup(&uni)),
        fmt2(a.speedup(&uni)),
        pct(a.utilization()),
    ]);
    for hop in [5u64, 20, 80] {
        let cube = MachineConfig::hypercube(16, hop);
        let s = model_sync(&arr.netlist, end, &cube);
        let a = model_async(&arr.netlist, end, &cube);
        t.row(vec![
            format!("hypercube hop={hop}"),
            fmt2(s.speedup(&uni)),
            fmt2(a.speedup(&uni)),
            pct(a.utilization()),
        ]);
    }
    t.note("paper (§6 future work): 'porting these algorithms to a hypercube architecture.' Event batching makes the asynchronous algorithm latency-tolerant; the barrier-bound event-driven algorithm pays the network on every phase.");
    t
}

/// Real-engine wall-clock matrix on this host (single core: absolute
/// times, not speed-ups).
pub fn wallclock_matrix() -> Table {
    let arr = paper_inverter_array(2);
    let func = paper_functional_multiplier(8);
    let gate = paper_gate_multiplier(2);
    let mut t = Table::new(
        "Wall-clock of the real engines on this host (1 thread, best of 3)",
        &["circuit", "event-driven", "sync", "compiled", "async"],
    );
    let cases: Vec<(&str, &parsim_netlist::Netlist, Time)> = vec![
        ("inv-array", &arr.netlist, Time(1000)),
        ("func-mult", &func.netlist, func.schedule_end()),
        ("gate-mult", &gate.netlist, gate.schedule_end()),
    ];
    for (name, netlist, end) in cases {
        let cfg = SimConfig::new(end);
        let best = |f: &dyn Fn() -> std::time::Duration| {
            (0..3).map(|_| f()).min().expect("three runs")
        };
        let seq = best(&|| EventDriven::run(netlist, &cfg).unwrap().metrics.wall);
        let sync = best(&|| parsim_core::SyncEventDriven::run(netlist, &cfg).unwrap().metrics.wall);
        let compiled =
            best(&|| parsim_core::CompiledMode::run(netlist, &cfg).unwrap().metrics.wall);
        let asy = best(&|| ChaoticAsync::run(netlist, &cfg).unwrap().metrics.wall);
        let ms = |d: std::time::Duration| format!("{:.2}ms", d.as_secs_f64() * 1e3);
        t.row(vec![
            name.to_string(),
            ms(seq),
            ms(sync),
            ms(compiled),
            ms(asy),
        ]);
    }
    t.note("absolute single-core times; multiprocessor scaling lives in the virtual-Multimax figures above.");
    t
}

/// §1/§4 — the ablation against Chandy–Misra: incremental valid-time
/// updates versus event-carried knowledge with global deadlock
/// detection and recovery.
pub fn chandy_misra_ablation() -> Table {
    let mut t = Table::new(
        "§1/§4 ablation — incremental validity vs Chandy-Misra deadlock recovery (8 virtual processors)",
        &["circuit", "incremental time", "cm time", "cm recoveries", "cm/incr ratio"],
    );
    let fb = parsim_circuits::feedback_chain(4, 16).expect("valid circuit");
    let cpu = paper_cpu();
    let arr = paper_inverter_array(2);
    let cases: Vec<(&str, &parsim_netlist::Netlist, Time)> = vec![
        ("feedback 4x16", &fb.netlist, Time(400)),
        ("cpu", &cpu.netlist, Time(1536)),
        ("inv-array", &arr.netlist, Time(200)),
    ];
    for (name, netlist, end) in cases {
        let incr = model_async(netlist, end, &MachineConfig::multimax(8));
        let mut cm_cfg = MachineConfig::multimax(8);
        cm_cfg.incremental_validity = false;
        let cm = model_async(netlist, end, &cm_cfg);
        t.row(vec![
            name.to_string(),
            incr.virtual_time.to_string(),
            cm.virtual_time.to_string(),
            cm.deadlock_recoveries.to_string(),
            fmt2(cm.virtual_time as f64 / incr.virtual_time.max(1) as f64),
        ]);
    }
    t.note("paper (§1): Chandy-Misra runs 'until no more elements have events on all their inputs (i.e. deadlock)', then globally updates clock values and restarts; 'our algorithm is very similar but the clock-values are updated incrementally so deadlock does not occur.' Incremental validity always reports zero recoveries.");
    t
}

/// Runs every experiment, in paper order.
pub fn all_experiments() -> Vec<Table> {
    vec![
        fig1_event_driven(),
        fig2_event_density(),
        fig3_compiled(),
        fig4_async(),
        fig5_comparison(),
        uniproc_ratio(),
        event_stats(),
        ablation_queues(),
        ablation_stealing(),
        ablation_os_interrupts(),
        ablation_lookahead(),
        gc_effectiveness(),
        feedback_experiment(),
        bus_experiment(),
        levels_experiment(),
        hypercube_experiment(),
        chandy_misra_ablation(),
        wallclock_matrix(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_density_orders_speedups_at_16_procs() {
        let t = fig2_event_density();
        let last = t.rows().len() - 1;
        let dense = t.cell_f64(last, "512 ev/tick").unwrap();
        let sparse = t.cell_f64(last, "64 ev/tick").unwrap();
        assert!(
            dense > sparse,
            "denser events must sustain more processors: {dense} vs {sparse}"
        );
    }

    #[test]
    fn fig5_async_beats_event_driven_at_16() {
        let t = fig5_comparison();
        let last = t.rows().len() - 1;
        let ed = t.cell_f64(last, "event-driven").unwrap();
        let asy = t.cell_f64(last, "async").unwrap();
        assert!(asy > ed, "async {asy} should beat event-driven {ed} at 16");
    }

    #[test]
    fn ablation_queues_shows_central_cap() {
        let t = ablation_queues();
        // Central at 8 procs (row index 3) stays near the paper's ~2.
        let central8 = t.cell_f64(3, "central").unwrap();
        let dist8 = t.cell_f64(3, "distributed").unwrap();
        assert!(central8 < 3.5, "central queue should cap: {central8}");
        assert!(dist8 > 2.0 * central8, "distributed should far exceed central");
    }

    #[test]
    fn feedback_collapses_batching_and_async_advantage() {
        let t = feedback_experiment();
        let first_batch = t.cell_f64(0, "async batching").unwrap();
        let last_batch = t.cell_f64(t.rows().len() - 1, "async batching").unwrap();
        assert!(
            last_batch < first_batch / 3.0,
            "one long ring should collapse batching: {first_batch} -> {last_batch}"
        );
        let first = t.cell_f64(0, "async speedup").unwrap();
        let last = t.cell_f64(t.rows().len() - 1, "async speedup").unwrap();
        assert!(
            last < first / 2.0,
            "async speedup should collapse with feedback: {first} -> {last}"
        );
    }

    #[test]
    fn functional_level_favors_async_over_event_driven() {
        // §5: "the asynchronous algorithm does far better" on the
        // ~100-element functional multiplier.
        let t = levels_experiment();
        let ed = t.cell_f64(1, "ed speedup").unwrap();
        let asy = t.cell_f64(1, "async speedup").unwrap();
        assert!(
            asy > 2.0 * ed,
            "functional level: async {asy} should dwarf event-driven {ed}"
        );
    }

    #[test]
    fn async_tolerates_hypercube_latency_better_than_event_driven() {
        let t = hypercube_experiment();
        // Compare shared memory (row 0) against the costliest hop (last).
        let last = t.rows().len() - 1;
        let ed_drop = t.cell_f64(0, "ed speedup").unwrap() / t.cell_f64(last, "ed speedup").unwrap();
        let asy_drop =
            t.cell_f64(0, "async speedup").unwrap() / t.cell_f64(last, "async speedup").unwrap();
        assert!(
            asy_drop < ed_drop,
            "async should degrade less: async x{asy_drop:.2} vs ed x{ed_drop:.2}"
        );
    }

    #[test]
    fn chandy_misra_needs_recovery_storms_on_control_logic() {
        // Self-sustaining rings barely deadlock (events carry knowledge),
        // but the CPU's multi-input logic with bursty activity deadlocks
        // repeatedly and pays for every recovery round.
        let t = chandy_misra_ablation();
        let feedback_recoveries: u64 =
            t.cell(0, "cm recoveries").unwrap().parse().unwrap();
        assert!(feedback_recoveries > 0, "the kick-start phase deadlocks");
        let cpu_recoveries: u64 = t.cell(1, "cm recoveries").unwrap().parse().unwrap();
        assert!(
            cpu_recoveries > 50,
            "control logic should deadlock repeatedly: {cpu_recoveries}"
        );
        let ratio = t.cell_f64(1, "cm/incr ratio").unwrap();
        assert!(
            ratio > 1.2,
            "recovery storms must cost time on the cpu: ratio {ratio}"
        );
    }

    #[test]
    fn fig1_shapes_hold() {
        let t = fig1_event_driven();
        let last = t.rows().len() - 1;
        // The gate-level multiplier saturates well below ideal and shows
        // the knee: its peak is near 8 procs, not 16.
        let gate8 = t.cell_f64(4, "gate-mult").unwrap(); // row 4 = 8 procs
        let gate16 = t.cell_f64(last, "gate-mult").unwrap();
        assert!(gate8 >= gate16 * 0.95, "knee: {gate8} vs {gate16}");
        // The functional multiplier is always the worst of the four.
        for (i, &p) in crate::bench_circuits::PROC_SWEEP.iter().enumerate() {
            if p < 4 {
                continue;
            }
            let func = t.cell_f64(i, "func-mult").unwrap();
            for col in ["gate-mult", "cpu", "inv-array"] {
                let other = t.cell_f64(i, col).unwrap();
                assert!(
                    func <= other,
                    "functional should trail {col} at {p} procs: {func} vs {other}"
                );
            }
        }
    }

    #[test]
    fn fig3_compiled_beats_event_driven_on_gate_level() {
        // The whole point of compiled mode: on gate-level circuits it
        // outruns the event-driven algorithm's parallel ceiling.
        let f3 = fig3_compiled();
        let f1 = fig1_event_driven();
        let last = f3.rows().len() - 1;
        let compiled_gate = f3.cell_f64(last, "gate-mult").unwrap();
        let ed_gate = f1.cell_f64(last, "gate-mult").unwrap();
        assert!(
            compiled_gate > 1.5 * ed_gate,
            "compiled {compiled_gate} should beat event-driven {ed_gate} on gates"
        );
    }

    #[test]
    fn gc_frees_chunks() {
        let t = gc_effectiveness();
        let freed_on: u64 = t.cell(0, "chunks freed (gc on)").unwrap().parse().unwrap();
        let freed_off: u64 = t.cell(0, "chunks freed (gc off)").unwrap().parse().unwrap();
        assert!(freed_on > 0, "gc should reclaim chunks");
        assert_eq!(freed_off, 0);
    }
}
