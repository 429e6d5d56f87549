//! # spmv-parallel — partitioning schemes and multithreaded SpMV
//!
//! The paper parallelizes SpMV with *row partitioning* (§II-C): contiguous
//! row blocks, statically balanced by non-zero count, one block per thread.
//! Each thread then owns disjoint slices of `row_ptr`/`col_ind`/`values`
//! (or the `ctl` stream for CSR-DU) and of the output vector `y`, while all
//! threads share read-only access to `x`.
//!
//! ## Threading model (paper §VI-A)
//!
//! The paper's measurement protocol spawns its pthreads *once*, then times
//! 128 consecutive SpMV operations inside them with a barrier between
//! iterations — per-iteration cost contains no thread-creation overhead.
//! This crate mirrors that structure:
//!
//! * every executor owns a persistent [`pool::WorkerPool`], created at
//!   plan time: `nthreads - 1` OS workers parked on a condvar, woken per
//!   `par_spmv` call via an epoch/condvar handshake, with the calling
//!   thread participating as thread 0 (the paper's main pthread);
//! * all per-call scratch (the private `y` vectors of column
//!   partitioning, the tile partials of 2-D blocking) is pre-allocated in
//!   the plan, so a steady-state `par_spmv` call performs **zero** heap
//!   allocations and **zero** thread spawns;
//! * cross-thread reductions run as a second chunked dispatch on the same
//!   pool (each thread sums a disjoint output chunk across all private
//!   vectors in fixed order, keeping results deterministic);
//! * dispatch takes `&mut self` (one in-flight job per pool, enforced by
//!   the borrow checker) and is panic-robust: `run` always drains every
//!   worker before returning or unwinding, and a panic on any thread is
//!   re-raised on the caller with the pool left reusable.
//!
//! This crate provides:
//!
//! * [`partition`] — row/column/block partitioning with nnz balancing
//!   (boundaries rounded to the nearest nnz prefix);
//! * [`pool`] — the persistent [`pool::WorkerPool`] and the checked
//!   buffer split its executors write through ([`pool::Parts`],
//!   [`pool::WorkerPool::run_split`]);
//! * [`supervised`] — the one parallel kernel of each paper format, a
//!   [`supervised::ChunkKernel`] ([`supervised::CsrChunks`],
//!   [`supervised::CsrDuChunks`], [`supervised::CsrViChunks`],
//!   [`supervised::CsrDuViChunks`]), and the fault-tolerant executor
//!   that runs it;
//! * [`par`] — parallel executors that pre-plan partition, pool and
//!   scratch, and run `y = A·x` on the pool per call: [`par::ParChunks`]
//!   runs any chunk kernel with one thread per chunk, and the paper
//!   formats' [`par::ParCsr`], [`par::ParCsrDu`], [`par::ParCsrVi`] and
//!   [`par::ParCsrDuVi`] are that driver over a borrowed matrix;
//!   [`par::ParCscColumns`] and [`par::ParCsrBlock2d`] keep their own
//!   partitioning;
//! * [`spmspv`] — sparse-times-sparse products on the pool: the bucket
//!   plan over CSC and the masked-CSR fallback.
//!
//! Output and scratch buffers reach the pool threads through
//! [`pool::WorkerPool::run_split`]: a plan builds a [`pool::Parts`] (one
//! row range per thread, checked pairwise disjoint once, when the plan is
//! made — for a [`supervised::ChunkKernel`], its chunks' rows), and each
//! dispatch hands thread `t` range `t` of the buffer as a plain `&mut`
//! slice. The SpMSpV phases that hand out several buffers at once cut
//! them with `split_at_mut` before dispatch instead. The supervised
//! executor cuts each call's owned output along the same kind of
//! [`pool::Parts`], checked when the executor is built, and lends chunk
//! `c`'s rows to the one thread that claims `c`. The pool's job handoff,
//! `run_split` and that output are the crate's only raw-pointer code.
//!
//! The paper binds threads to specific cores with `sched_setaffinity` to
//! control cache sharing; placement here is a *logical* concept consumed
//! by the `spmv-memsim` performance model (this container cannot pin
//! cores), while the kernels themselves run on however many OS threads are
//! requested.
//!
//! ## Fault tolerance
//!
//! Long-running multithreaded SpMV must survive its workers, not trust
//! them. [`supervised::SupervisedSpMv`] is the crate's one watchdog (see
//! the README's *Failure model* section for the full contract): it runs
//! chunk-granular SpMV with typed fault handling. Under
//! [`supervised::RecoveryPolicy::Degrade`] any panicked, stalled, dead,
//! or (with `verify_every`) corrupted chunk is re-executed serially on the
//! caller — the result is bit-identical to a serial run and the call
//! reports a [`supervised::HealthReport`]; under
//! [`supervised::RecoveryPolicy::FailFast`] the first fault returns a
//! typed [`supervised::PoolError`] with `y` untouched. Either way the
//! executor remains reusable.
//!
//! [`pool::WorkerPool`], and every `Par*` executor on it, has no
//! watchdog: a panic on any thread is re-raised on the caller once the
//! dispatch has drained, with the plan left reusable, and a slow worker
//! is waited for, because the job borrows the caller's stack.
//!
//! The `fault-injection` feature compiles in a deterministic scripted
//! fault harness ([`faults`], test-only) that drives panics, stalls,
//! thread deaths, and silent corruption through the supervised executor;
//! the recovery matrix lives in `tests/fault_injection.rs`, and
//! feature-independent guarantees (tight-deadline correctness, self-check
//! on honest kernels) in the workspace-root `tests/fault_tolerance.rs`.
//!
//! ## Observability
//!
//! The `telemetry` feature compiles per-worker busy-time and work-item
//! counters ([`telemetry::PoolTelemetry`]) into the pool dispatch path
//! and the supervised executor, recorded lock-free into cache-line-
//! aligned relaxed atomics that each thread writes alone. Drain a window
//! with [`pool::WorkerPool::take_telemetry`] / [`ParSpMv::take_telemetry`]
//! or read [`supervised::HealthReport::telemetry`]; the derived
//! [`telemetry::PoolTelemetry::imbalance`] ratio (busiest thread over the
//! mean) is what the benchmark harness stores in `BENCH.json`. With the
//! feature off the types still compile (so signatures never change) but
//! every recording site is compiled out and the queries return `None`.

#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod par;
pub mod partition;
pub mod pool;
pub mod spmspv;
pub mod supervised;
pub mod telemetry;

pub use par::{
    ParChunks, ParCscColumns, ParCsr, ParCsrBlock2d, ParCsrDu, ParCsrDuVi, ParCsrVi, ParSpMm,
    ParSpMv,
};
pub use partition::{ColPartition, Grid2d, RowPartition};
pub use pool::{Parts, WorkerPool};
pub use spmspv::{ParMaskedSpMSpV, ParSpMSpV};
pub use supervised::{
    assemble_chunks, parse_watchdog_ms, watchdog_deadline, watchdog_deadline_checked, ChunkKernel,
    CsrChunks, CsrDuChunks, CsrDuViChunks, CsrViChunks, FaultEvent, HealthReport, PoolError,
    RecoveryPolicy, SupervisedSpMv, WatchdogOpts, DEFAULT_WATCHDOG,
};
pub use telemetry::PoolTelemetry;
