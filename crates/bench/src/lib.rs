//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment is a library function returning a structured result
//! plus a `print` routine producing the rows/series the paper reports;
//! the `experiments` binary dispatches on experiment ids. Nothing here
//! gates a wall-clock number: that is `fleetbench`'s job
//! (`BENCHMARK.json`).

#![forbid(unsafe_code)]

pub mod check;
pub mod experiments;
pub mod util;

pub use experiments::{
    ablation, churn, fig10, fig2, fig4, fig5, fig6, fig7, fig8, fig9, hop_bench, migration,
    obs_overhead, robust, table2, theorem1,
};
