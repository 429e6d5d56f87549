//! # spmv-bench — the reproduction harness
//!
//! Library side of the `reproduce` binary: per-matrix evaluation
//! ([`runner`]), aggregation into the paper's tables ([`tables`]) and
//! per-matrix figure series ([`figures`]).
//!
//! Every table and figure of the paper maps to one harness command; see
//! DESIGN.md §4 for the index and EXPERIMENTS.md for recorded
//! paper-vs-reproduction numbers.
//!
//! Observability: [`measured`] times `reproduce plan`'s chosen cells
//! (per-iteration [`measured::TimingStats`] after an adaptive warm-up),
//! and [`metrics`] joins time to working-set bytes in the
//! schema-versioned `BENCH.json` artifact that `plan`, `graph` and
//! `loadgen` write and the [`jsonv`] reader re-validates. Kernel
//! performance is measured by perfbench (`perfbench/` at the repository
//! root), which links [`measured::random_x`] and the [`roofline`] triad.

pub mod figures;
pub mod graph;
pub mod jsonv;
pub mod measured;
pub mod metrics;
pub mod planning;
pub mod roofline;
pub mod runner;
pub mod tables;

pub use runner::{evaluate_entry, EvalOptions, MatrixResult};
