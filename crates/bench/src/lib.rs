//! Shared helpers for the Criterion benchmarks.
//!
//! Every paper table/figure has a bench target (`bench_table1`,
//! `bench_fig7`, …) exercising the same kernel the experiment harness
//! runs, at a size chosen so `cargo bench` completes in minutes. The
//! micro (`bench_micro`) and ablation (`bench_ablations`) targets profile
//! the individual moving parts.

pub mod ledger;

/// A tiny deterministic graph for spectral benches.
pub fn mini_epinions_graph(scale: usize) -> mto_graph::Graph {
    let spec = mto_experiments::DatasetSpec::epinions().scaled_down(scale);
    mto_experiments::build_dataset(&spec)
}
