//! Every engine configuration against the sequential oracle, circuit by
//! circuit: the paper's benchmark circuits, level-sensitive and memory
//! elements, rise/fall delays, the §6 future-work circuits, ISCAS `.bench`
//! input, defensive edge cases and random circuits. Each module keeps its
//! circuits and the semantic assertions only they make; the matrix itself
//! is `support::check`.

#[path = "../support/mod.rs"]
mod support;

mod edge_cases;
mod future_work;
mod iscas;
mod latch;
mod memory;
mod paper_circuits;
mod random_circuits;
mod rise_fall;
