//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation.
//!
//! Each `fig*`/`ablation*` function returns a [`Table`] whose rows come
//! from the virtual-Multimax models (the host has one core, so speed-up
//! *curves* are modeled; see `DESIGN.md`), plus a list of the paper's
//! reported values for side-by-side comparison. The [`uniproc_ratio`]
//! experiment additionally measures *real wall-clock* ratios with the
//! actual engines, which is meaningful on a single core.
//!
//! The `figures` binary prints everything as markdown — the source of the
//! numbers recorded in `EXPERIMENTS.md`:
//!
//! ```text
//! cargo run --release -p parsim-harness --bin figures
//! ```

mod bench_circuits;
mod figures;
mod table;

pub use bench_circuits::{
    paper_cpu, paper_functional_multiplier, paper_gate_multiplier, paper_inverter_array,
    PROC_SWEEP,
};
pub use figures::{
    ablation_lookahead, ablation_os_interrupts, ablation_queues, ablation_stealing,
    all_experiments, bus_experiment, chandy_misra_ablation, event_stats,
    feedback_experiment, fig1_event_driven,
    fig2_event_density, fig3_compiled, fig4_async, fig5_comparison, gc_effectiveness,
    hypercube_experiment, levels_experiment, uniproc_ratio, wallclock_matrix,
};
pub use table::Table;
