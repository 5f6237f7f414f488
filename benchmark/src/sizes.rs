//! Size constants of the seven workloads.
//!
//! Fixed once: every stored result is only comparable with results taken
//! at the same sizes, so a change here is a new baseline, never a tuning
//! step. Each op is sized to ≈ 45–85 ms on the 2-vCPU reference host, so
//! that a 10 s timed block holds well over 100 ops.

/// Seed used by `run` when none is given.
pub const DEFAULT_SEED: u64 = 1988;

/// Seed of the fixed operand pools. `--seed` only permutes a pool, so
/// every seed simulates the same multiset of input transitions (see
/// `inputs::rtz_schedule`).
pub const POOL_SEED: u64 = 1988;

/// Fewest ops in a timed block. The op that completes this count also
/// samples `VmHWM` for `peak_rss_mb`: every block reaches it, so the reading
/// does not depend on how many more ops a faster build fits into the same
/// seconds.
pub const MIN_OPS: usize = 100;

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The paper's gate multiplier: width and operand period in ticks.
pub const MULT16_BITS: usize = 16;
pub const MULT16_PERIOD: u64 = 256;

/// `mult16_async`: operand pairs (2·pairs+1 vectors with the zero pairs).
pub const MULT16_ASYNC_PAIRS: usize = 48;

/// `cpu_async`: `pipelined_cpu(width, half_period)` run for whole cycles.
pub const CPU_WIDTH: usize = 16;
pub const CPU_HALF_PERIOD: u64 = 128;
pub const CPU_CYCLES: u64 = 2;

/// `invarray_compiled`: the paper's 32×16 inverter array.
pub const INV_COLS: usize = 32;
pub const INV_DEPTH: usize = 16;
pub const INV_TOGGLE: u64 = 2;
pub const INV_END: u64 = 3000;
pub const INV_THREADS: usize = 2;

/// `mult16_batch`: lanes, operand pairs per lane, byte-compared lanes.
pub const BATCH_LANES: usize = 192;
pub const BATCH_PAIRS: usize = 2;
pub const BATCH_CHECKED_LANES: usize = 8;

/// `netio_wide`: a wider multiplier with every node watched.
pub const NETIO_BITS: usize = 24;
pub const NETIO_PERIOD: u64 = 512;
pub const NETIO_PAIRS: usize = 2;

/// `serve_*`: closed loop of `SERVE_CLIENTS` threads, each submitting a
/// wave of `SERVE_TENANTS` jobs (one per tenant) and then collecting them.
pub const SERVE_CLIENTS: usize = 2;
pub const SERVE_TENANTS: usize = 8;
pub const SERVE_PAIRS: usize = 4;
pub const SERVE_THREADS: usize = 1;
/// Long-poll window of a result fetch; a job still pending after it
/// counts as failed.
pub const SERVE_WAIT_MS: u64 = 20_000;

/// `serve_mixed`: widths × periods = 24 structurally distinct multipliers,
/// more than the server's `cache_capacity` of 8 and the 16 outstanding.
pub const MIXED_WIDTHS: [usize; 8] = [8, 9, 10, 11, 12, 13, 14, 15];
pub const MIXED_PERIODS: [u64; 3] = [256, 320, 384];

/// The constants as `(name, value)` rows for the result header.
pub fn table() -> Vec<(&'static str, u64)> {
    vec![
        ("pool_seed", POOL_SEED),
        ("min_ops", MIN_OPS as u64),
        ("setup_reps", SETUP_REPS as u64),
        ("mult16_bits", MULT16_BITS as u64),
        ("mult16_period", MULT16_PERIOD),
        ("mult16_async_pairs", MULT16_ASYNC_PAIRS as u64),
        ("cpu_width", CPU_WIDTH as u64),
        ("cpu_half_period", CPU_HALF_PERIOD),
        ("cpu_cycles", CPU_CYCLES),
        ("inv_cols", INV_COLS as u64),
        ("inv_depth", INV_DEPTH as u64),
        ("inv_toggle", INV_TOGGLE),
        ("inv_end", INV_END),
        ("inv_threads", INV_THREADS as u64),
        ("batch_lanes", BATCH_LANES as u64),
        ("batch_pairs", BATCH_PAIRS as u64),
        ("batch_checked_lanes", BATCH_CHECKED_LANES as u64),
        ("netio_bits", NETIO_BITS as u64),
        ("netio_period", NETIO_PERIOD),
        ("netio_pairs", NETIO_PAIRS as u64),
        ("serve_clients", SERVE_CLIENTS as u64),
        ("serve_tenants", SERVE_TENANTS as u64),
        ("serve_pairs", SERVE_PAIRS as u64),
        ("serve_threads", SERVE_THREADS as u64),
        (
            "mixed_netlists",
            (MIXED_WIDTHS.len() * MIXED_PERIODS.len()) as u64,
        ),
    ]
}
