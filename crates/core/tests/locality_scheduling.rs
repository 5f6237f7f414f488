//! Locality-aware scheduling in the asynchronous engine: waveform
//! equivalence against the sequential oracle at every thread count, the
//! `without_local_queue` ablation contract, and the scheduling-counter
//! invariants (owner routing steals nothing, batches never exceed sends,
//! chain circuits stay processor-local).

use parsim_circuits::{inverter_array, random_circuit, RandomCircuitParams};
use parsim_core::{equivalence_report, ChaoticAsync, EventDriven, SimConfig};
use parsim_logic::Time;
use parsim_netlist::partition::cone_cluster;
use parsim_netlist::partition::Partition;
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = RandomCircuitParams> {
    (
        5usize..80,   // elements
        1usize..6,    // inputs
        0u64..4,      // seq fraction in quarters
        1u64..4,      // max delay
        any::<u64>(), // seed
    )
        .prop_map(|(elements, inputs, seqq, max_delay, seed)| RandomCircuitParams {
            elements,
            inputs,
            seq_fraction: seqq as f64 * 0.25,
            max_delay,
            seed,
        })
}

#[test]
fn locality_scheduled_waveforms_match_oracle_on_fixed_circuit() {
    let arr = inverter_array(16, 8, 2).unwrap();
    let cfg = SimConfig::new(Time(400)).watch_all(arr.taps.clone());
    let oracle = EventDriven::run(&arr.netlist, &cfg).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let r = ChaoticAsync::run(&arr.netlist, &cfg.clone().threads(threads)).unwrap();
        let rep = equivalence_report(&oracle, &r);
        assert!(rep.is_equivalent(), "locality x{threads}: {rep}");
    }
}

#[test]
fn pure_grid_ablation_reproduces_scatter_behavior() {
    let arr = inverter_array(8, 8, 1).unwrap();
    let cfg = SimConfig::new(Time(300)).watch_all(arr.taps.clone()).threads(4);
    let oracle = EventDriven::run(&arr.netlist, &cfg).unwrap();

    let grid_only = ChaoticAsync::run(&arr.netlist, &cfg.clone().without_local_queue()).unwrap();
    let rep = equivalence_report(&oracle, &grid_only);
    assert!(rep.is_equivalent(), "pure grid: {rep}");
    // Ablation contract: nothing goes through local deques, every id
    // travels in its own single-id batch, and owner bookkeeping is off.
    let l = &grid_only.metrics.locality;
    assert_eq!(l.local_hits, 0, "ablation must not use local deques");
    assert_eq!(
        l.grid_batches, l.grid_sends,
        "ablation sends single-id batches only"
    );
    assert!(l.grid_sends > 0, "the grid must carry the whole run");
    assert_eq!(l.steals, 0, "no owner bookkeeping without a partition");

    let local = ChaoticAsync::run(&arr.netlist, &cfg).unwrap();
    let l = &local.metrics.locality;
    assert!(l.local_hits > 0, "default scheduling must hit local deques");
}

#[test]
fn chain_circuits_stay_processor_local() {
    // Independent inverter chains are pure fan-out cones: the partitioner
    // must keep each chain on one worker, so well over half (here: all)
    // of the scheduled activations bypass the grid.
    let arr = inverter_array(16, 8, 2).unwrap();
    let cfg = SimConfig::new(Time(400));
    for threads in [2usize, 4] {
        let r = ChaoticAsync::run(&arr.netlist, &cfg.clone().threads(threads)).unwrap();
        let l = &r.metrics.locality;
        assert!(
            l.locality_ratio() >= 0.5,
            "x{threads}: locality ratio {:.3} below 0.5 ({l:?})",
            l.locality_ratio()
        );
    }
}

#[test]
fn owner_routing_never_steals_and_batches_never_exceed_sends() {
    let c = random_circuit(&RandomCircuitParams {
        elements: 120,
        inputs: 6,
        seq_fraction: 0.25,
        max_delay: 3,
        seed: 7,
    })
    .unwrap();
    let cfg = SimConfig::new(Time(300)).threads(4);
    let r = ChaoticAsync::run(&c.netlist, &cfg).unwrap();
    let l = &r.metrics.locality;
    assert_eq!(l.steals, 0, "owner routing must execute on owners: {l:?}");
    assert!(
        l.grid_batches <= l.grid_sends,
        "a batch carries at least one id: {l:?}"
    );
    if l.grid_sends > 0 {
        assert!(l.batch_occupancy() >= 1.0, "{l:?}");
    }
}

#[test]
fn explicit_partition_is_respected() {
    let arr = inverter_array(8, 4, 2).unwrap();
    let cfg = SimConfig::new(Time(200)).watch_all(arr.taps.clone());
    let oracle = EventDriven::run(&arr.netlist, &cfg).unwrap();

    // A cone partition passed explicitly behaves like the built-in one.
    let cones = cone_cluster(&arr.netlist, 2);
    let r = ChaoticAsync::run(
        &arr.netlist,
        &cfg.clone().threads(2).with_partition(cones),
    )
    .unwrap();
    assert!(equivalence_report(&oracle, &r).is_equivalent());

    // Degenerate placement: every element owned by worker 0 of 2. The
    // run stays correct and never needs the grid (all fan-out is owned;
    // worker 1 simply idles until termination).
    let all_zero = Partition::from_assignment(2, vec![0; arr.netlist.num_elements()]);
    let r = ChaoticAsync::run(
        &arr.netlist,
        &cfg.clone().threads(2).with_partition(all_zero),
    )
    .unwrap();
    assert!(equivalence_report(&oracle, &r).is_equivalent());
    let l = &r.metrics.locality;
    assert_eq!(l.grid_sends, 0, "single-owner placement needs no grid: {l:?}");
    assert!((l.locality_ratio() - 1.0).abs() < 1e-12);
}

#[test]
#[should_panic(expected = "part count must equal the thread count")]
fn mismatched_partition_width_panics() {
    let arr = inverter_array(4, 4, 2).unwrap();
    let p = cone_cluster(&arr.netlist, 3);
    let cfg = SimConfig::new(Time(50)).threads(2).with_partition(p);
    let _ = ChaoticAsync::run(&arr.netlist, &cfg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn locality_and_ablation_match_reference(
        params in params_strategy(),
        threads in 1usize..9,
    ) {
        let c = random_circuit(&params).unwrap();
        let cfg = SimConfig::new(Time(150)).watch_all(c.watch.clone());
        let seq = EventDriven::run(&c.netlist, &cfg).unwrap();

        let local = ChaoticAsync::run(&c.netlist, &cfg.clone().threads(threads)).unwrap();
        let rep = equivalence_report(&seq, &local);
        prop_assert!(rep.is_equivalent(), "seed {} local x{threads}: {rep}", params.seed);

        let grid = ChaoticAsync::run(
            &c.netlist,
            &cfg.clone().threads(threads).without_local_queue(),
        ).unwrap();
        let rep = equivalence_report(&seq, &grid);
        prop_assert!(rep.is_equivalent(), "seed {} grid x{threads}: {rep}", params.seed);
        prop_assert_eq!(grid.metrics.locality.local_hits, 0);
    }
}
