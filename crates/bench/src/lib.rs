//! # ngs-bench
//!
//! The evaluation harness: regenerates every table and figure of the
//! paper (Table I, Figures 6–12) over synthetic datasets, plus the
//! serving, fault, recovery, observability and collate drills,
//! with a `repro` binary
//! (`cargo run -p ngs-bench --release --bin repro -- all`).

pub mod data;
pub mod experiments;
pub mod series;

pub use data::{DataCache, Scale};
pub use experiments::{
    collate_bench, fault_bench, fig10, fig11, fig12, fig6, fig7, fig8, fig9,
    load_bench, obs_bench, recovery_bench, table1, ExperimentConfig,
};
pub use series::{to_speedup, Figure, Series, Table1};
