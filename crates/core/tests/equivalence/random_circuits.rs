//! Random well-formed circuits (combinational DAGs plus sequential
//! feedback): the sharpest test of the asynchronous engine's valid-time
//! protocol. The generated ones go through the matrix in
//! `checkpoint_resume.rs` (any delay, and unit delay) and, with lanes, in
//! `batch_equivalence.rs`; here are the pinned ones, and the chaotic
//! engine at more threads than the matrix's three.

use parsim_circuits::{random_circuit, RandomCircuitParams};
use parsim_core::{equivalence_report, ChaoticAsync, EventDriven, SimConfig};
use parsim_logic::Time;
use proptest::prelude::*;

use crate::support::{check, random_params, Circuit};

fn check_random(params: &RandomCircuitParams, end: Time) {
    let c = random_circuit(params).unwrap();
    check(&Circuit::new(
        format!("{params:?}"),
        &c.netlist,
        c.watch.clone(),
        end,
    ));
}

/// `ChaoticAsync` at `threads` against the oracle.
fn oversubscribed(params: &RandomCircuitParams, end: Time, threads: usize) {
    let c = random_circuit(params).unwrap();
    let cfg = SimConfig::new(end).watch_all(c.watch.clone());
    let seq = EventDriven::run(&c.netlist, &cfg).unwrap();
    let asy = ChaoticAsync::run(&c.netlist, &cfg.threads(threads)).unwrap();
    let rep = equivalence_report(&seq, &asy);
    assert!(rep.is_equivalent(), "{params:?} x{threads}: {rep}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// More threads than cores exercises preemption-driven interleavings.
    #[test]
    fn oversubscribed_random_circuits_match_the_oracle(params in random_params(), threads in 4usize..9) {
        oversubscribed(&params, Time(150), threads);
    }
}

/// The one failure proptest ever recorded for these circuits (found at
/// one thread), replayed through the whole matrix.
#[test]
fn recorded_failure_case_matches_the_oracle() {
    let params = RandomCircuitParams {
        elements: 18,
        inputs: 4,
        seq_fraction: 0.0,
        max_delay: 3,
        seed: 9_297_927_732_003_452_976,
    };
    check_random(&params, Time(150));
}

/// A long-running oversubscribed stress case.
#[test]
fn oversubscribed_stress() {
    let params = RandomCircuitParams {
        elements: 150,
        inputs: 6,
        seq_fraction: 0.25,
        max_delay: 3,
        seed: 20260705,
    };
    for threads in [6, 8] {
        oversubscribed(&params, Time(400), threads);
    }
}
