//! Property tests: the SPSC queue behaves exactly like a `VecDeque` under
//! arbitrary interleavings of sends and receives.

// Single-threaded property runs; under the model cfg the primitives only
// work inside an exploration, so this suite is real-atomics only.
#![cfg(not(parsim_model))]

use std::collections::VecDeque;

use parsim_queue::channel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Replays a random operation sequence against both the lock-free queue
/// and a reference `VecDeque`, checking every observation.
fn check_against_model(seed: u64, ops: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut tx, mut rx) = channel::<u64>();
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut next = 0u64;
    for _ in 0..ops {
        if rng.gen_bool(0.55) {
            tx.send(next);
            model.push_back(next);
            next += 1;
        } else {
            assert_eq!(rx.recv(), model.pop_front(), "seed {seed}");
        }
    }
    // Drain.
    while let Some(expected) = model.pop_front() {
        assert_eq!(rx.recv(), Some(expected), "seed {seed} (drain)");
    }
    assert_eq!(rx.recv(), None, "seed {seed} (empty)");
    assert!(rx.is_empty());
}

#[test]
fn spsc_matches_vecdeque_model() {
    for seed in 0..50 {
        check_against_model(seed, 2000);
    }
}

#[test]
fn spsc_matches_model_across_many_segments() {
    // Long bursts force multiple 256-slot segments.
    for seed in 100..110 {
        check_against_model(seed, 30_000);
    }
}

/// Ping-pong latency correctness: two queues forming a rendezvous must
/// never lose or reorder tokens under real threads.
#[test]
fn spsc_ping_pong() {
    const ROUNDS: u64 = 20_000;
    let (mut tx_ab, mut rx_ab) = channel::<u64>();
    let (mut tx_ba, mut rx_ba) = channel::<u64>();
    let pong = std::thread::spawn(move || {
        let mut received = 0u64;
        while received < ROUNDS {
            if let Some(v) = rx_ab.recv() {
                assert_eq!(v, received);
                received += 1;
                tx_ba.send(v * 2);
            } else {
                std::thread::yield_now();
            }
        }
    });
    let mut got = 0u64;
    let mut sent = 0u64;
    while got < ROUNDS {
        if sent < ROUNDS {
            tx_ab.send(sent);
            sent += 1;
        }
        while let Some(v) = rx_ba.recv() {
            assert_eq!(v, got * 2);
            got += 1;
        }
    }
    pong.join().unwrap();
}
