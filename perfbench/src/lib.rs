//! Layered SpMV benchmark.
//!
//! Three seeded workloads, each run in one process: `kernel-ml` (the
//! paper's §VI-A protocol over the `Par*` executors), `served-large` and
//! `served-small` (closed-loop clients against `SpmvService`). Every layer
//! is measured from outside, by timing calls into its public API. See
//! `README.md` in this directory for the workloads, the metrics and the
//! layer each one belongs to.

pub mod fixture;
pub mod host;
pub mod phases;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
