//! Supervised parallel SpMV: watchdog, graceful degradation, self-healing.
//!
//! This module also defines the one parallel kernel of each paper
//! format: a [`ChunkKernel`] ([`CsrChunks`], [`CsrDuChunks`],
//! [`CsrViChunks`], [`CsrDuViChunks`]) that computes one row chunk of
//! `y = A·x`. The supervised executor below runs it over an `Arc`'d
//! matrix; [`crate::par::ParChunks`] runs the same kernel over a borrowed
//! one.
//!
//! The borrowed-job [`crate::pool::WorkerPool`] is the *fast* path: zero
//! allocation per dispatch, but a live straggler can never be abandoned —
//! the dispatched closure borrows the caller's stack, so `run` must wait
//! for every worker it woke. The pool therefore has no watchdog: it
//! re-raises a worker panic on the caller and otherwise waits. This module
//! is the *resilient* path and holds the crate's only watchdog: everything
//! a worker touches is owned by an `Arc`'d per-call state, so the caller
//! may walk away from a wedged worker without any dangling borrow. That
//! buys the full fault model:
//!
//! * **worker panic** — caught on the worker, reported, and the chunk is
//!   re-executed serially by the caller (no deadline wait);
//! * **worker death** (thread terminated without finishing) — detected at
//!   the deadline, chunk re-executed serially, worker respawned;
//! * **worker stall** (alive but past the deadline) — the worker is
//!   *abandoned*: the caller re-executes its chunk serially, a
//!   replacement thread takes its roster slot, and the stuck thread exits
//!   on its own whenever its computation finally returns (it only holds
//!   `Arc`s, so nothing dangles);
//! * **silent chunk corruption** — optionally caught by re-executing
//!   sampled chunks serially and comparing bit patterns (the chunk kernel
//!   is deterministic, so any discrepancy is corruption, not roundoff).
//!
//! Under [`RecoveryPolicy::Degrade`] every fault above still yields a
//! **correct** result — recovery re-runs the identical chunk kernel over
//! the identical partition, so output is bit-identical to a serial run —
//! plus a [`HealthReport`] saying what happened. Under
//! [`RecoveryPolicy::FailFast`] the first fault aborts the call with a
//! typed [`PoolError`] instead (a caller's `y` is left untouched); the
//! executor itself stays usable either way.
//!
//! Workers must never hold a borrow of caller memory, so the input is
//! *shared* and the output is *owned by the call*:
//! [`SupervisedSpMv::spmm_owned`] takes the panel `x` as an `Arc<Vec<V>>`
//! that workers read in place, allocates one zeroed `nrows x k` output,
//! and the thread that claims chunk `c` computes straight into that
//! chunk's rows. The executor reads the kernel's shape and chunk row
//! ranges once, when it is built, and checks then that the ranges are
//! pairwise disjoint and end at or before `nrows`; a chunk's rows go to
//! its one claimant and to nobody else. A healthy call hands the output
//! back whole, so the result is its only vector-sized allocation.
//!
//! On any fault the output stays with the call state, because an
//! abandoned straggler may still write its chunk's rows into it.
//! Recovered and self-checked chunks are computed into buffers of their
//! own, and the call returns a fresh output built from the rows the
//! claimants published plus those buffers, so whatever a straggler
//! writes later lands where no caller looks. A call releases its state,
//! and with it the shared input, when it returns, unless an abandoned
//! straggler still holds it. The slice entry points
//! [`SupervisedSpMv::spmv`], [`SupervisedSpMv::spmm`] and
//! [`SupervisedSpMv::spmm_shared`] wrap the owned call with the copies
//! they need. The plain `Par*` executors run the same chunk kernels
//! without supervision, straight into `y`; use them when raw throughput
//! matters more than fault isolation.

use crate::par::split_row_bounds;
use crate::partition::RowPartition;
use crate::pool::Parts;
use crate::telemetry::PoolTelemetry;
use spmv_core::csr_du::{CsrDu, DuSplit};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Csr, Isa, Scalar, SpIndex, SparseError};
use std::marker::PhantomData;
use std::ops::{Deref, Range};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Chunk kernels
// ---------------------------------------------------------------------

/// A matrix pre-partitioned into independently computable row chunks:
/// the one parallel kernel of each format. [`crate::par::ParChunks`] runs
/// it on a worker pool, one thread per chunk, and [`SupervisedSpMv`] runs
/// it under a watchdog.
///
/// `compute_block` must be **deterministic** (same chunk + same `x` ⇒
/// bit-identical output): the watchdog re-executes chunks after faults
/// and the self-check compares recomputed chunks bit-for-bit. The
/// supervised executor shares its kernel with its workers behind an
/// `Arc<dyn ChunkKernel<V>>`, which needs a `'static` kernel (one that
/// owns its matrix, typically through an `Arc`), so a chunk computation
/// can outlive any particular call — the property that makes stall
/// abandonment sound.
pub trait ChunkKernel<V: Scalar>: Send + Sync {
    /// Rows of the matrix (length of `y`).
    fn nrows(&self) -> usize;
    /// Columns of the matrix (length of `x`).
    fn ncols(&self) -> usize;
    /// Number of chunks. Chunk row ranges are pairwise disjoint; rows not
    /// covered by any chunk come out zero. [`SupervisedSpMv`] and
    /// [`crate::par::ParChunks`] read the count and the ranges once, when
    /// they are built, and refuse overlapping ranges then.
    fn nchunks(&self) -> usize;
    /// Row range `chunk` covers; read once, at construction, like
    /// [`ChunkKernel::nchunks`]. A range ending past
    /// [`ChunkKernel::nrows`] is refused there too.
    fn chunk_rows(&self, chunk: usize) -> Range<usize>;
    /// Computes `out = (A·x)[chunk_rows(chunk)]` for the `ncols x k`
    /// row-major panel `x`, overwriting every element of the
    /// `chunk_rows(chunk).len() x k` row-major panel `out`; `k = 1` is
    /// SpMV. Format kernels decode each unit once for all `k` columns.
    fn compute_block(&self, chunk: usize, x: &[V], k: usize, out: &mut [V]);
}

/// Row-partitioned chunks over a CSR matrix (nnz-balanced). `M` is any
/// handle that derefs to the matrix: an `Arc` for the supervised
/// executor, a borrow for [`crate::par::ParCsr`].
pub struct CsrChunks<I: SpIndex, V: Scalar, M = Arc<Csr<I, V>>> {
    matrix: M,
    partition: RowPartition,
    isa: Isa,
    _format: PhantomData<fn() -> (I, V)>,
}

impl<I: SpIndex, V: Scalar, M: Deref<Target = Csr<I, V>>> CsrChunks<I, V, M> {
    /// Partitions `matrix` into `nchunks` nnz-balanced row chunks. The
    /// kernel ISA is snapshotted here, so every chunk execution — worker,
    /// serial retry and bit-exact self-check alike — runs the same kernel.
    pub fn new(matrix: M, nchunks: usize) -> CsrChunks<I, V, M> {
        CsrChunks::with_isa(matrix, nchunks, spmv_core::simd::selected())
    }

    /// Like [`CsrChunks::new`] with an explicit kernel ISA (unavailable
    /// choices degrade to scalar inside the kernel dispatch).
    pub fn with_isa(matrix: M, nchunks: usize, isa: Isa) -> CsrChunks<I, V, M> {
        let partition = RowPartition::by_nnz(matrix.row_ptr(), nchunks.max(1));
        CsrChunks { matrix, partition, isa, _format: PhantomData }
    }
}

impl<I: SpIndex, V: Scalar, M> ChunkKernel<V> for CsrChunks<I, V, M>
where
    M: Deref<Target = Csr<I, V>> + Send + Sync,
{
    fn nrows(&self) -> usize {
        self.matrix.nrows()
    }
    fn ncols(&self) -> usize {
        self.matrix.ncols()
    }
    fn nchunks(&self) -> usize {
        self.partition.nparts()
    }
    fn chunk_rows(&self, chunk: usize) -> Range<usize> {
        self.partition.part(chunk)
    }
    fn compute_block(&self, chunk: usize, x: &[V], k: usize, out: &mut [V]) {
        let r = self.partition.part(chunk);
        self.matrix.spmm_rows_local_isa(self.isa, r.start, r.end, x, k, out);
    }
}

/// Row-partitioned chunks over a CSR-VI matrix (nnz-balanced), with the
/// matrix handle `M` as on [`CsrChunks`].
pub struct CsrViChunks<I: SpIndex = u32, V: Scalar = f64, M = Arc<CsrVi<I, V>>> {
    matrix: M,
    partition: RowPartition,
    isa: Isa,
    _format: PhantomData<fn() -> (I, V)>,
}

impl<I: SpIndex, V: Scalar, M: Deref<Target = CsrVi<I, V>>> CsrViChunks<I, V, M> {
    /// Partitions `matrix` into `nchunks` nnz-balanced row chunks
    /// (kernel ISA snapshotted, as on [`CsrChunks::new`]).
    pub fn new(matrix: M, nchunks: usize) -> CsrViChunks<I, V, M> {
        CsrViChunks::with_isa(matrix, nchunks, spmv_core::simd::selected())
    }

    /// Like [`CsrViChunks::new`] with an explicit kernel ISA.
    pub fn with_isa(matrix: M, nchunks: usize, isa: Isa) -> CsrViChunks<I, V, M> {
        let partition = RowPartition::by_nnz(matrix.row_ptr(), nchunks.max(1));
        CsrViChunks { matrix, partition, isa, _format: PhantomData }
    }
}

impl<I: SpIndex, V: Scalar, M> ChunkKernel<V> for CsrViChunks<I, V, M>
where
    M: Deref<Target = CsrVi<I, V>> + Send + Sync,
{
    fn nrows(&self) -> usize {
        self.matrix.nrows()
    }
    fn ncols(&self) -> usize {
        self.matrix.ncols()
    }
    fn nchunks(&self) -> usize {
        self.partition.nparts()
    }
    fn chunk_rows(&self, chunk: usize) -> Range<usize> {
        self.partition.part(chunk)
    }
    fn compute_block(&self, chunk: usize, x: &[V], k: usize, out: &mut [V]) {
        let r = self.partition.part(chunk);
        self.matrix.spmm_rows_local_isa(self.isa, r.start, r.end, x, k, out);
    }
}

/// Ctl-stream chunks over a CSR-DU matrix: each chunk is a [`DuSplit`],
/// "an offset in the ctl, values and y arrays" (§IV). The matrix handle
/// `M` is as on [`CsrChunks`].
pub struct CsrDuChunks<V: Scalar, M = Arc<CsrDu<V>>> {
    matrix: M,
    splits: Vec<DuSplit>,
    bounds: Vec<usize>,
    isa: Isa,
    _format: PhantomData<fn() -> V>,
}

impl<V: Scalar, M: Deref<Target = CsrDu<V>>> CsrDuChunks<V, M> {
    /// Plans `nchunks` nnz-balanced ctl-stream splits (possibly fewer for
    /// tiny matrices; zero for an empty one). Kernel ISA snapshotted, as
    /// on [`CsrChunks::new`].
    pub fn new(matrix: M, nchunks: usize) -> CsrDuChunks<V, M> {
        CsrDuChunks::with_isa(matrix, nchunks, spmv_core::simd::selected())
    }

    /// Like [`CsrDuChunks::new`] with an explicit kernel ISA.
    pub fn with_isa(matrix: M, nchunks: usize, isa: Isa) -> CsrDuChunks<V, M> {
        let splits = matrix.splits(nchunks.max(1));
        let bounds = split_row_bounds(splits.iter().map(DuSplit::row_end));
        CsrDuChunks { matrix, splits, bounds, isa, _format: PhantomData }
    }
}

impl<V: Scalar, M: Deref<Target = CsrDu<V>> + Send + Sync> ChunkKernel<V> for CsrDuChunks<V, M> {
    fn nrows(&self) -> usize {
        self.matrix.nrows()
    }
    fn ncols(&self) -> usize {
        self.matrix.ncols()
    }
    fn nchunks(&self) -> usize {
        self.splits.len()
    }
    fn chunk_rows(&self, chunk: usize) -> Range<usize> {
        self.bounds[chunk]..self.bounds[chunk + 1]
    }
    fn compute_block(&self, chunk: usize, x: &[V], k: usize, out: &mut [V]) {
        self.matrix.spmm_split_local_isa(self.isa, &self.splits[chunk], x, k, out);
    }
}

/// Ctl-stream chunks over a CSR-DU-VI matrix, with the matrix handle `M`
/// as on [`CsrChunks`].
pub struct CsrDuViChunks<V: Scalar, M = Arc<CsrDuVi<V>>> {
    matrix: M,
    splits: Vec<DuSplit>,
    bounds: Vec<usize>,
    isa: Isa,
    _format: PhantomData<fn() -> V>,
}

impl<V: Scalar, M: Deref<Target = CsrDuVi<V>>> CsrDuViChunks<V, M> {
    /// Plans `nchunks` nnz-balanced ctl-stream splits (kernel ISA
    /// snapshotted, as on [`CsrChunks::new`]).
    pub fn new(matrix: M, nchunks: usize) -> CsrDuViChunks<V, M> {
        CsrDuViChunks::with_isa(matrix, nchunks, spmv_core::simd::selected())
    }

    /// Like [`CsrDuViChunks::new`] with an explicit kernel ISA.
    pub fn with_isa(matrix: M, nchunks: usize, isa: Isa) -> CsrDuViChunks<V, M> {
        let splits = matrix.splits(nchunks.max(1));
        let bounds = split_row_bounds(splits.iter().map(DuSplit::row_end));
        CsrDuViChunks { matrix, splits, bounds, isa, _format: PhantomData }
    }
}

impl<V: Scalar, M> ChunkKernel<V> for CsrDuViChunks<V, M>
where
    M: Deref<Target = CsrDuVi<V>> + Send + Sync,
{
    fn nrows(&self) -> usize {
        self.matrix.nrows()
    }
    fn ncols(&self) -> usize {
        self.matrix.ncols()
    }
    fn nchunks(&self) -> usize {
        self.splits.len()
    }
    fn chunk_rows(&self, chunk: usize) -> Range<usize> {
        self.bounds[chunk]..self.bounds[chunk + 1]
    }
    fn compute_block(&self, chunk: usize, x: &[V], k: usize, out: &mut [V]) {
        self.matrix.spmm_split_local_isa(self.isa, &self.splits[chunk], x, k, out);
    }
}

/// Zeroes the rows of the row-major `nrows x k` panel `y` that none of
/// the `chunks` row ranges covers. When the ranges ascend, it zeroes
/// exactly those rows; when they do not, it may zero covered rows too, so
/// call it before the chunks are written.
pub(crate) fn zero_uncovered<V: Scalar>(
    chunks: impl IntoIterator<Item = Range<usize>>,
    k: usize,
    y: &mut [V],
) {
    // Every row below `covered` lies in a chunk or is zeroed already.
    let mut covered = 0;
    for rows in chunks {
        if rows.start > covered {
            y[covered * k..rows.start * k].fill(V::zero());
        }
        covered = covered.max(rows.end);
    }
    y[covered * k..].fill(V::zero());
}

/// Writes the row-major `nrows x k` panel `y` chunk by chunk:
/// `write(chunk, rows)` fills the rows of `y` that `chunk` covers, and
/// the rows no chunk covers are zeroed. When chunks ascend, as in every
/// kernel of this module, each row is written exactly once. A serial
/// caller computes each chunk straight into its rows with it.
pub fn assemble_chunks<V: Scalar>(
    kernel: &dyn ChunkKernel<V>,
    k: usize,
    y: &mut [V],
    mut write: impl FnMut(usize, &mut [V]),
) {
    zero_uncovered((0..kernel.nchunks()).map(|chunk| kernel.chunk_rows(chunk)), k, y);
    for chunk in 0..kernel.nchunks() {
        let rows = kernel.chunk_rows(chunk);
        write(chunk, &mut y[rows.start * k..rows.end * k]);
    }
}

// ---------------------------------------------------------------------
// Watchdog configuration, errors, health
// ---------------------------------------------------------------------

/// The watchdog deadline used when `SPMV_WATCHDOG_MS` is unset.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_millis(1000);

/// Parses an `SPMV_WATCHDOG_MS` value: a positive integer millisecond
/// count. Zero is rejected — a zero deadline would triage every dispatch
/// as stalled before it ran.
pub fn parse_watchdog_ms(v: &str) -> Result<Duration, SparseError> {
    match v.trim().parse::<u64>() {
        Ok(ms) if ms >= 1 => Ok(Duration::from_millis(ms)),
        _ => Err(SparseError::InvalidArgument(format!(
            "SPMV_WATCHDOG_MS={v:?} is not a positive integer millisecond count"
        ))),
    }
}

/// Watchdog deadline: `SPMV_WATCHDOG_MS` env override, else 1 s. It is
/// the supervised executor's default stall deadline
/// ([`WatchdogOpts::default`]). CI runs the tier-1 suite once with this
/// set aggressively low to prove a tight deadline cannot corrupt results
/// (it can only cause serial recovery).
///
/// A malformed value falls back to the default with a **one-time**
/// warning on stderr (this lenient path runs inside constructors that
/// cannot return errors); explicit API paths use
/// [`watchdog_deadline_checked`] to surface the typed error instead.
pub fn watchdog_deadline() -> Duration {
    match std::env::var("SPMV_WATCHDOG_MS") {
        Ok(v) => parse_watchdog_ms(&v).unwrap_or_else(|e| {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: {e}; using the default {} ms watchdog deadline",
                    DEFAULT_WATCHDOG.as_millis()
                );
            });
            DEFAULT_WATCHDOG
        }),
        Err(_) => DEFAULT_WATCHDOG,
    }
}

/// Strict form of [`watchdog_deadline`] for explicit API paths (the
/// service builder, `loadgen`): a malformed `SPMV_WATCHDOG_MS` returns
/// [`SparseError::InvalidArgument`] instead of silently falling back.
pub fn watchdog_deadline_checked() -> Result<Duration, SparseError> {
    match std::env::var("SPMV_WATCHDOG_MS") {
        Ok(v) => parse_watchdog_ms(&v),
        Err(std::env::VarError::NotPresent) => Ok(DEFAULT_WATCHDOG),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(SparseError::InvalidArgument("SPMV_WATCHDOG_MS is not valid unicode".into()))
        }
    }
}

/// What the supervisor does when a fault is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Recover: re-execute affected chunks serially on the caller,
    /// respawn lost workers, return `Ok` with the events in the
    /// [`HealthReport`]. The result is bit-identical to a serial run.
    Degrade,
    /// Abort: return the first fault as a typed [`PoolError`], leaving
    /// the output buffer untouched. Lost workers are still respawned, so
    /// the executor remains usable.
    FailFast,
}

/// Watchdog configuration for [`SupervisedSpMv`].
#[derive(Debug, Clone, Copy)]
pub struct WatchdogOpts {
    /// How long a call waits for outstanding chunks before triaging
    /// their workers for death or stall. Any positive value is safe: a
    /// low deadline can only cause spurious (correct) serial recovery,
    /// never a wrong result.
    pub deadline: Duration,
    /// Degrade-and-recover or fail-fast.
    pub policy: RecoveryPolicy,
    /// `0` disables the self-check; `n > 0` re-executes every `n`-th
    /// chunk serially after all chunks complete and compares bit
    /// patterns, replacing any corrupted chunk with the serial result
    /// (`1` checks every chunk).
    pub verify_every: usize,
    /// When `true` (default) the calling thread claims chunks alongside
    /// the workers before supervising. `false` dedicates the caller to
    /// supervision — all chunks go to workers, which also makes fault
    /// injection deterministic in tests (the caller consults no hooks).
    pub caller_participates: bool,
}

impl Default for WatchdogOpts {
    /// Deadline from `SPMV_WATCHDOG_MS` (default 1 s), degrade-and-
    /// recover, self-check off.
    fn default() -> WatchdogOpts {
        WatchdogOpts {
            deadline: watchdog_deadline(),
            policy: RecoveryPolicy::Degrade,
            verify_every: 0,
            caller_participates: true,
        }
    }
}

/// Typed faults surfaced by [`RecoveryPolicy::FailFast`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A worker panicked while computing `chunk`.
    WorkerPanicked { tid: usize, chunk: usize },
    /// A worker exceeded the watchdog deadline while holding `chunk`.
    WorkerStalled { tid: usize, chunk: usize, waited: Duration },
    /// A worker's thread terminated without completing `chunk`.
    WorkerDied { tid: usize, chunk: usize },
    /// A chunk's published result did not match its serial re-execution.
    ChunkCorrupted { chunk: usize },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked { tid, chunk } => {
                write!(f, "worker {tid} panicked while computing chunk {chunk}")
            }
            PoolError::WorkerStalled { tid, chunk, waited } => {
                write!(f, "worker {tid} stalled on chunk {chunk} ({waited:?} past deadline)")
            }
            PoolError::WorkerDied { tid, chunk } => {
                write!(f, "worker {tid} died without completing chunk {chunk}")
            }
            PoolError::ChunkCorrupted { chunk } => {
                write!(f, "chunk {chunk} failed the serial cross-check (corrupted result)")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// One observed-and-handled fault (see [`HealthReport`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A worker panicked; the chunk was re-executed serially.
    WorkerPanicked { tid: usize, chunk: usize },
    /// A worker thread died mid-chunk; the chunk was re-executed
    /// serially.
    WorkerDied { tid: usize, chunk: usize },
    /// A live worker blew the deadline; it was abandoned (it exits on
    /// its own once its computation returns) and the chunk re-executed
    /// serially.
    WorkerStalled { tid: usize, chunk: usize, waited: Duration },
    /// A fresh thread took over a lost worker's roster slot.
    WorkerRespawned { tid: usize },
    /// The self-check caught a corrupted chunk and replaced it with the
    /// serial result.
    ChunkCorrupted { chunk: usize },
}

/// What happened during one supervised call. `events` empty ⇒ fully
/// healthy parallel execution; otherwise the call *degraded* — some
/// chunks ran serially on the caller — but the result is still correct.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Faults observed, in detection order.
    pub events: Vec<FaultEvent>,
    /// Chunks the caller re-executed serially (recovery work).
    pub recovered_chunks: usize,
    /// Per-thread heartbeat counters at the end of the call (index =
    /// tid; the caller is 0). Each thread bumps its counter at chunk
    /// claim and completion, so a low even count identifies the thread
    /// that did little work — diagnostic context for the events above.
    pub heartbeats: Vec<u64>,
    /// Per-thread busy time and chunk counts for this call (`dispatches`
    /// is always 1). `None` unless the crate's `telemetry` feature is
    /// enabled; recording is compiled out entirely when off.
    pub telemetry: Option<PoolTelemetry>,
}

impl HealthReport {
    /// `true` if any fault was observed (some work ran degraded).
    pub fn degraded(&self) -> bool {
        !self.events.is_empty()
    }
}

// ---------------------------------------------------------------------
// The call's output
// ---------------------------------------------------------------------

/// What [`SupervisedSpMv::with_opts`] reads from its kernel, once: the
/// matrix shape and each chunk's row range. The ranges are pairwise
/// disjoint and end at or before `nrows` (checked by [`Layout::of`]), so
/// each of them times `k` lies inside an `nrows x k` panel.
struct Layout {
    nrows: usize,
    ncols: usize,
    rows: Parts,
}

impl Layout {
    /// Reads `kernel`'s shape and chunk ranges. Panics if two chunks
    /// share a row or a chunk ends past the last row.
    fn of<V: Scalar>(kernel: &dyn ChunkKernel<V>) -> Layout {
        let nrows = kernel.nrows();
        let rows = Parts::new((0..kernel.nchunks()).map(|c| kernel.chunk_rows(c)).collect());
        for r in rows.ranges() {
            assert!(r.end <= nrows, "chunk row range {r:?} ends past the last row ({nrows} rows)");
        }
        Layout { nrows, ncols: kernel.ncols(), rows }
    }

    fn nchunks(&self) -> usize {
        self.rows.len()
    }

    /// Row range of `chunk`.
    fn chunk(&self, chunk: usize) -> Range<usize> {
        self.rows.ranges()[chunk].clone()
    }
}

/// One call's zeroed `nrows x k` output panel. [`OwnedPanel::claim`]
/// draws each chunk once, and the thread that draws chunk `c` gets its
/// rows as a [`Piece`]; nobody else reaches them while the piece lives.
/// The panel is read only through [`OwnedPanel::read_finished`], the rows
/// of a chunk whose piece was dropped, and given away whole by
/// [`OwnedPanel::take`] once every piece was dropped. Until then it stays
/// here, so an abandoned straggler that still holds a piece writes into
/// memory the call state keeps alive for it.
struct OwnedPanel<V> {
    /// Base of `buf`'s heap block. Pieces are cut from it, never through
    /// `buf`, so no reference to the whole block exists while they live.
    base: *mut V,
    /// Owns the block; `None` once taken.
    buf: Mutex<Option<Vec<V>>>,
    layout: Arc<Layout>,
    k: usize,
    /// Next chunk to draw.
    next: AtomicUsize,
    /// `finished[c]`: chunk `c`'s piece was dropped. Set with `Release`
    /// after the piece's last write and read with `Acquire` before the
    /// rows are read, so the reader sees every write.
    finished: Vec<AtomicBool>,
}

// SAFETY: `base` points into the block `buf` owns, so sending the panel
// sends its `V`s and their ownership, which needs `V: Send`; `layout`,
// `k`, `next` and `finished` are `Send` on their own.
unsafe impl<V: Send> Send for OwnedPanel<V> {}
// SAFETY: through `&OwnedPanel`, `base` reaches the block only as the
// pieces `claim` lends, disjoint rows with one thread each, and as the
// finished rows `read_finished` reads under the `buf` lock, so no element
// is reachable from two threads at once; a piece writes `V`s on the
// thread that drew it, which needs `V: Send`. `buf` is a `Mutex`, and
// `layout`, `k`, `next` and `finished` are `Sync` on their own.
unsafe impl<V: Send> Sync for OwnedPanel<V> {}

impl<V: Scalar> OwnedPanel<V> {
    /// A zeroed `nrows x k` panel cut along `layout`'s chunks.
    fn new(layout: Arc<Layout>, k: usize) -> OwnedPanel<V> {
        let len = layout.nrows.checked_mul(k).expect("nrows x k overflows usize");
        let mut buf = vec![V::zero(); len];
        let base = buf.as_mut_ptr();
        let finished = (0..layout.nchunks()).map(|_| AtomicBool::new(false)).collect();
        let next = AtomicUsize::new(0);
        OwnedPanel { base, buf: Mutex::new(Some(buf)), layout, k, next, finished }
    }

    /// Draws the next chunk and its rows, or `None` once every chunk has
    /// been drawn.
    fn claim(&self) -> Option<(usize, Piece<'_, V>)> {
        let c = self.next.fetch_add(1, Ordering::AcqRel);
        let r = self.layout.rows.ranges().get(c)?;
        // SAFETY: `r.start <= r.end <= nrows` (`Parts::new`, `Layout::of`),
        // so the rows times `k` lie inside the `nrows * k` block, which
        // `buf` keeps allocated while `self` lives and `take` gives away
        // only once every piece was dropped. The fetch-add draws `c` for
        // this caller alone, non-empty ranges are pairwise disjoint
        // (`Parts::new`), and `read_finished` reads only rows whose piece
        // was dropped, so nothing else reaches these rows while the piece
        // lives.
        let rows = unsafe {
            std::slice::from_raw_parts_mut(self.base.add(r.start * self.k), r.len() * self.k)
        };
        Some((c, Piece { rows, finished: &self.finished[c] }))
    }

    /// Runs `f` on chunk `c`'s rows if its piece was dropped and the panel
    /// was not taken; `None` otherwise.
    fn read_finished<R>(&self, c: usize, f: impl FnOnce(&[V]) -> R) -> Option<R> {
        let buf = lock(&self.buf);
        if buf.is_none() || !self.finished[c].load(Ordering::Acquire) {
            return None;
        }
        let r = self.layout.chunk(c);
        // SAFETY: the rows lie inside the block as in `claim`, and `buf`
        // still owns it: it is checked above, and `take` waits for the lock
        // held here. Chunk `c`'s one piece was dropped and `claim` never
        // draws `c` again, so nothing writes these rows while `f` reads.
        let rows = unsafe {
            std::slice::from_raw_parts(self.base.add(r.start * self.k), r.len() * self.k)
        };
        Some(f(rows))
    }

    /// The whole panel, once every chunk's piece was dropped; `None`
    /// before that, and once taken.
    fn take(&self) -> Option<Vec<V>> {
        let mut buf = lock(&self.buf);
        if self.finished.iter().all(|f| f.load(Ordering::Acquire)) {
            buf.take()
        } else {
            None
        }
    }
}

/// The rows of one chunk, lent by [`OwnedPanel::claim`] to the thread
/// that drew it. Dropping it marks the chunk finished.
struct Piece<'a, V> {
    rows: &'a mut [V],
    finished: &'a AtomicBool,
}

impl<V> Drop for Piece<'_, V> {
    fn drop(&mut self) {
        self.finished.store(true, Ordering::Release);
    }
}

// ---------------------------------------------------------------------
// Per-call shared state
// ---------------------------------------------------------------------

/// Claim marker: chunk not yet claimed by any thread.
const UNCLAIMED: usize = usize::MAX;

/// Where a chunk's published result lives. The first publish wins; later
/// ones (an abandoned straggler finishing after recovery) are discarded.
enum Slot<V> {
    Pending,
    /// In the call's panel, written by the chunk's claimant.
    InPlace,
    /// In a buffer of its own: a serial recovery or self-check.
    Own(Vec<V>),
}

struct Progress {
    /// Chunks with a published result.
    done: usize,
    /// `(chunk, tid)` pairs whose worker panicked (chunk unpublished).
    failed: Vec<(usize, usize)>,
}

/// Everything the workers touch during one call. Fully owned (behind an
/// `Arc`), so an abandoned worker can finish — or never finish — without
/// endangering the caller.
struct CallState<V: Scalar> {
    /// The input panel, shared with the caller rather than borrowed.
    x: Arc<Vec<V>>,
    /// Panel width: `x` is `ncols * k`, the output `nrows * k`, both
    /// row-major. `1` for plain SpMV.
    k: usize,
    nchunks: usize,
    /// The output; its claims hand out the chunks.
    out: OwnedPanel<V>,
    /// `claims[c]`: tid that claimed chunk `c`, or [`UNCLAIMED`].
    claims: Vec<AtomicUsize>,
    results: Vec<Mutex<Slot<V>>>,
    progress: Mutex<Progress>,
    done_cv: Condvar,
    /// Per-thread heartbeats (index = tid), bumped at chunk claim and
    /// completion. Diagnostic only; exposed through
    /// [`HealthReport::heartbeats`].
    hb: Vec<AtomicU64>,
    /// Per-thread busy nanoseconds (index = tid); each thread adds only
    /// to its own counter, relaxed ordering (diagnostics, not
    /// synchronization).
    #[cfg(feature = "telemetry")]
    busy_ns: Vec<AtomicU64>,
    #[cfg(feature = "fault-injection")]
    fault: crate::faults::FaultHandle,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f`, crediting its wall time to `tid`'s busy counter. Compiles to
/// a plain call without the `telemetry` feature.
#[inline]
fn timed<V: Scalar, R>(state: &CallState<V>, tid: usize, f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "telemetry")]
    {
        let t0 = Instant::now();
        let r = f();
        state.busy_ns[tid].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = (state, tid);
        f()
    }
}

impl<V: Scalar> CallState<V> {
    /// Publishes `result` for chunk `c` unless someone already did;
    /// returns whether this publish won.
    fn publish(&self, c: usize, result: Slot<V>) -> bool {
        {
            let mut slot = lock(&self.results[c]);
            if !matches!(*slot, Slot::Pending) {
                return false;
            }
            *slot = result;
        }
        let mut p = lock(&self.progress);
        p.done += 1;
        if p.done == self.nchunks {
            self.done_cv.notify_all();
        }
        true
    }

    fn is_pending(&self, c: usize) -> bool {
        matches!(*lock(&self.results[c]), Slot::Pending)
    }

    /// Records a worker panic on chunk `c` and wakes the supervisor.
    fn mark_failed(&self, c: usize, tid: usize) {
        let mut p = lock(&self.progress);
        p.failed.push((c, tid));
        self.done_cv.notify_all();
    }

    fn done(&self) -> usize {
        lock(&self.progress).done
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

struct SupState<V: Scalar> {
    epoch: u64,
    job: Option<Arc<CallState<V>>>,
    shutdown: bool,
}

struct SupShared<V: Scalar> {
    state: Mutex<SupState<V>>,
    work_cv: Condvar,
}

/// Outcome of one worker chunk attempt.
enum ChunkRun {
    Done,
    #[cfg(feature = "fault-injection")]
    Exit,
}

/// Runs chunk `c` into `piece` on a worker; returns `true` if the thread
/// must exit (injected death). Panics — injected or real — are caught
/// and recorded so the supervisor can recover without waiting for the
/// deadline.
fn worker_chunk<V: Scalar>(
    job: &CallState<V>,
    kernel: &dyn ChunkKernel<V>,
    c: usize,
    piece: Piece<'_, V>,
    tid: usize,
) -> bool {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-injection")]
        let injected = job.fault.before_compute(c);
        #[cfg(feature = "fault-injection")]
        if injected == Some(crate::faults::FaultAction::ExitThread) {
            // Simulated thread death: the claimed chunk stays unpublished.
            return ChunkRun::Exit;
        }
        kernel.compute_block(c, &job.x, job.k, &mut *piece.rows);
        #[cfg(feature = "fault-injection")]
        if injected == Some(crate::faults::FaultAction::CorruptChunk) {
            if let Some(v0) = piece.rows.first_mut() {
                *v0 = -*v0; // silent corruption only the self-check sees
            }
        }
        ChunkRun::Done
    }));
    // The chunk is finished, even after a panic, before anything is
    // published.
    drop(piece);
    match outcome {
        Ok(ChunkRun::Done) => {
            job.publish(c, Slot::InPlace);
            false
        }
        #[cfg(feature = "fault-injection")]
        Ok(ChunkRun::Exit) => true,
        Err(_) => {
            job.mark_failed(c, tid);
            false
        }
    }
}

fn sup_worker_loop<V: Scalar>(
    shared: Arc<SupShared<V>>,
    kernel: Arc<dyn ChunkKernel<V>>,
    tid: usize,
    alive: Arc<AtomicBool>,
    mut seen_epoch: u64,
) {
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown || !alive.load(Ordering::Acquire) {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    // No job: the call ended before this worker woke.
                    if let Some(job) = st.job.as_ref() {
                        break Arc::clone(job);
                    }
                }
                st = shared.work_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        loop {
            if !alive.load(Ordering::Acquire) {
                // Abandoned mid-call: our roster slot has a replacement;
                // exit quietly (the job state is Arc-owned, nothing
                // dangles).
                return;
            }
            let Some((c, piece)) = job.out.claim() else {
                break;
            };
            job.claims[c].store(tid, Ordering::Release);
            job.hb[tid].fetch_add(1, Ordering::AcqRel);
            if timed(&job, tid, || worker_chunk(&job, &*kernel, c, piece, tid)) {
                return;
            }
            job.hb[tid].fetch_add(1, Ordering::AcqRel);
        }
    }
}

struct WorkerSlot {
    handle: JoinHandle<()>,
    alive: Arc<AtomicBool>,
}

// ---------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------

/// Fault-tolerant parallel SpMV executor over a [`ChunkKernel`].
///
/// Construction reads the kernel's shape and chunk ranges once and
/// spawns `nthreads - 1` persistent workers (the caller participates as
/// thread 0). Each [`SupervisedSpMv::spmm_owned`] call fans the chunks out
/// over the threads with dynamic claiming, each claimant computing into
/// the call's output, supervises them against the watchdog deadline, and
/// recovers per the policy. See the module docs for the fault model.
pub struct SupervisedSpMv<V: Scalar> {
    kernel: Arc<dyn ChunkKernel<V>>,
    layout: Arc<Layout>,
    shared: Arc<SupShared<V>>,
    workers: Vec<WorkerSlot>,
    nthreads: usize,
    opts: WatchdogOpts,
}

impl<V: Scalar> SupervisedSpMv<V> {
    /// Reads `kernel`'s shape and chunk ranges and spawns the worker
    /// roster with `nthreads` total threads and the given watchdog
    /// options. Panics, before any worker starts, if two chunks share a
    /// row or a chunk ends past the last row.
    pub fn with_opts(
        kernel: Arc<dyn ChunkKernel<V>>,
        nthreads: usize,
        opts: WatchdogOpts,
    ) -> SupervisedSpMv<V> {
        assert!(nthreads >= 1, "need at least one thread");
        let layout = Arc::new(Layout::of(&*kernel));
        let shared = Arc::new(SupShared {
            state: Mutex::new(SupState { epoch: 0, job: None, shutdown: false }),
            work_cv: Condvar::new(),
        });
        let workers = (1..nthreads).map(|tid| spawn_sup_worker(&shared, &kernel, tid, 0)).collect();
        SupervisedSpMv { kernel, layout, shared, workers, nthreads, opts }
    }

    /// [`SupervisedSpMv::with_opts`] with [`WatchdogOpts::default`].
    pub fn new(kernel: Arc<dyn ChunkKernel<V>>, nthreads: usize) -> SupervisedSpMv<V> {
        SupervisedSpMv::with_opts(kernel, nthreads, WatchdogOpts::default())
    }

    /// Threads per call (including the caller).
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The watchdog options in effect.
    pub fn opts(&self) -> &WatchdogOpts {
        &self.opts
    }

    /// Replaces the watchdog deadline for subsequent calls — the
    /// serving layer's per-request deadline plumbing: each batch runs
    /// under the minimum remaining budget of its members instead of the
    /// construction-time default. Any positive value is safe (a low
    /// deadline can only cause spurious serial recovery, never a wrong
    /// result); sub-millisecond values are honored as given.
    pub fn set_deadline(&mut self, deadline: Duration) {
        assert!(deadline > Duration::ZERO, "watchdog deadline must be positive");
        self.opts.deadline = deadline;
    }

    /// Computes `y = A·x` under supervision: [`SupervisedSpMv::spmm_shared`]
    /// on a copy of `x` with `k = 1`.
    ///
    /// Returns the call's [`HealthReport`] (empty events ⇒ fully healthy
    /// parallel run). Under [`RecoveryPolicy::FailFast`] the first fault
    /// aborts with a [`PoolError`] and `y` is left untouched.
    pub fn spmv(&mut self, x: &[V], y: &mut [V]) -> Result<HealthReport, PoolError> {
        assert_eq!(x.len(), self.layout.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.layout.nrows, "y length must equal nrows");
        self.spmm_shared(Arc::new(x.to_vec()), 1, y)
    }

    /// [`SupervisedSpMv::spmm_shared`] on a copy of the panel `x`.
    pub fn spmm(&mut self, x: &[V], k: usize, y: &mut [V]) -> Result<HealthReport, PoolError> {
        self.spmm_shared(Arc::new(x.to_vec()), k, y)
    }

    /// [`SupervisedSpMv::spmm_owned`], copying the result into the
    /// row-major `nrows x k` panel `y`. On an error `y` is left
    /// untouched.
    pub fn spmm_shared(
        &mut self,
        x: Arc<Vec<V>>,
        k: usize,
        y: &mut [V],
    ) -> Result<HealthReport, PoolError> {
        assert!(k >= 1, "need at least one right-hand side");
        assert_eq!(y.len(), self.layout.nrows * k, "y must be an nrows x k row-major panel");
        let (out, report) = self.spmm_owned(x, k)?;
        y.copy_from_slice(&out);
        Ok(report)
    }

    /// Computes and returns the row-major panel `y[nrows x k] = A ·
    /// x[ncols x k]` under supervision, reading `x` in place: workers
    /// share the panel instead of borrowing it, so no copy is made. The
    /// output is allocated once, zeroed, and each chunk's claimant
    /// computes straight into its rows, so a healthy call returns that
    /// allocation. Chunks are claimed dynamically; panics, stalls and
    /// deaths are recovered by re-executing the chunk's *panel* serially
    /// on the caller into a buffer of its own
    /// ([`RecoveryPolicy::Degrade`], bit-identical to a serial SpMM),
    /// and the call then returns a fresh output assembled from the
    /// finished chunks; or the first fault aborts the call
    /// ([`RecoveryPolicy::FailFast`]). The `verify_every` self-check
    /// compares full chunk panels bit-for-bit. `k = 1` is bit-identical
    /// to [`SupervisedSpMv::spmv`].
    pub fn spmm_owned(
        &mut self,
        x: Arc<Vec<V>>,
        k: usize,
    ) -> Result<(Vec<V>, HealthReport), PoolError> {
        assert!(k >= 1, "need at least one right-hand side");
        assert_eq!(x.len(), self.layout.ncols * k, "x must be an ncols x k row-major panel");
        let mut report = HealthReport::default();
        let nchunks = self.layout.nchunks();
        if nchunks == 0 {
            return Ok((vec![V::zero(); self.layout.nrows * k], report));
        }
        let state = Arc::new(CallState {
            x,
            k,
            nchunks,
            out: OwnedPanel::new(Arc::clone(&self.layout), k),
            claims: (0..nchunks).map(|_| AtomicUsize::new(UNCLAIMED)).collect(),
            results: (0..nchunks).map(|_| Mutex::new(Slot::Pending)).collect(),
            progress: Mutex::new(Progress { done: 0, failed: Vec::new() }),
            done_cv: Condvar::new(),
            hb: (0..self.nthreads).map(|_| AtomicU64::new(0)).collect(),
            #[cfg(feature = "telemetry")]
            busy_ns: (0..self.nthreads).map(|_| AtomicU64::new(0)).collect(),
            #[cfg(feature = "fault-injection")]
            fault: crate::faults::FaultHandle::capture(),
        });
        if self.nthreads > 1 {
            let mut st = lock(&self.shared.state);
            st.epoch += 1;
            st.job = Some(Arc::clone(&state));
            drop(st);
            self.shared.work_cv.notify_all();
        }
        // The caller participates as thread 0 (never fault-injected: a
        // scripted fault on the supervisor would be a fault in the test
        // harness, not in the system under test).
        if self.opts.caller_participates {
            while let Some((c, piece)) = state.out.claim() {
                state.claims[c].store(0, Ordering::Release);
                state.hb[0].fetch_add(1, Ordering::AcqRel);
                timed(&state, 0, || self.kernel.compute_block(c, &state.x, k, &mut *piece.rows));
                drop(piece);
                state.publish(c, Slot::InPlace);
                state.hb[0].fetch_add(1, Ordering::AcqRel);
            }
        }
        self.supervise(&state, &mut report)?;
        if self.opts.verify_every > 0 {
            self.self_check(&state, &mut report)?;
        }
        report.heartbeats = state.hb.iter().map(|h| h.load(Ordering::Acquire)).collect();
        #[cfg(feature = "telemetry")]
        {
            // Chunk counts come from the claim ledger: who *claimed* each
            // chunk (recovery re-executions are credited to tid 0's busy
            // time but not double-counted as chunks).
            let mut chunks = vec![0u64; self.nthreads];
            for claim in &state.claims {
                let tid = claim.load(Ordering::Acquire);
                if tid != UNCLAIMED {
                    chunks[tid] += 1;
                }
            }
            report.telemetry = Some(PoolTelemetry {
                busy_ns: state.busy_ns.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                chunks,
                dispatches: 1,
            });
        }
        if self.nthreads > 1 {
            // Drop the workers' handle on the call state now, not at the
            // next dispatch: it holds the caller's `x`, which should be
            // freed with its request (keeping it raised RSS under steady
            // small-request load).
            lock(&self.shared.state).job = None;
        }
        Ok((self.output(&state), report))
    }

    /// The call's result: the panel itself when every chunk's claimant
    /// published in place, else a fresh panel assembled from the rows the
    /// claimants published and the chunks computed into buffers of their
    /// own. The old panel then stays with the call state, out of reach of
    /// the caller, for any straggler still writing into it.
    fn output(&self, state: &CallState<V>) -> Vec<V> {
        if state.results.iter().all(|s| matches!(*lock(s), Slot::InPlace)) {
            if let Some(y) = state.out.take() {
                return y;
            }
        }
        let k = state.k;
        let mut y = vec![V::zero(); self.layout.nrows * k];
        for c in 0..state.nchunks {
            let r = self.layout.chunk(c);
            let rows = &mut y[r.start * k..r.end * k];
            match &*lock(&state.results[c]) {
                Slot::Own(own) => rows.copy_from_slice(own),
                Slot::InPlace => state
                    .out
                    .read_finished(c, |done| rows.copy_from_slice(done))
                    .expect("a claimant publishes only after its piece is finished"),
                Slot::Pending => unreachable!("every chunk is resolved before the output"),
            }
        }
        y
    }

    /// Waits for all chunks, recovering panics immediately and triaging
    /// stragglers at the deadline.
    fn supervise(
        &mut self,
        state: &Arc<CallState<V>>,
        report: &mut HealthReport,
    ) -> Result<(), PoolError> {
        let start = Instant::now();
        loop {
            // Handle recorded worker panics without waiting for the
            // deadline.
            let failed = std::mem::take(&mut lock(&state.progress).failed);
            for (chunk, tid) in failed {
                report.events.push(FaultEvent::WorkerPanicked { tid, chunk });
                if self.opts.policy == RecoveryPolicy::FailFast {
                    return Err(PoolError::WorkerPanicked { tid, chunk });
                }
                self.recover_chunk(state, chunk, report);
            }
            if state.done() == state.nchunks {
                return Ok(());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.opts.deadline {
                return self.triage(state, report, elapsed);
            }
            let p = lock(&state.progress);
            if p.done < state.nchunks && p.failed.is_empty() {
                let _unused = state
                    .done_cv
                    .wait_timeout(p, self.opts.deadline - elapsed)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Deadline expired with chunks outstanding: classify each straggling
    /// worker (dead vs stalled), abandon/respawn it, and re-execute its
    /// chunk serially (Degrade) or abort (FailFast).
    fn triage(
        &mut self,
        state: &Arc<CallState<V>>,
        report: &mut HealthReport,
        waited: Duration,
    ) -> Result<(), PoolError> {
        for chunk in 0..state.nchunks {
            if !state.is_pending(chunk) {
                continue;
            }
            let tid = state.claims[chunk].load(Ordering::Acquire);
            let fault = if tid == UNCLAIMED || tid == 0 {
                // Unclaimed (workers died before reaching it) or the
                // supervisor's own — no worker to blame; just recover.
                None
            } else if self.workers[tid - 1].handle.is_finished() {
                Some((FaultEvent::WorkerDied { tid, chunk }, PoolError::WorkerDied { tid, chunk }))
            } else {
                Some((
                    FaultEvent::WorkerStalled { tid, chunk, waited },
                    PoolError::WorkerStalled { tid, chunk, waited },
                ))
            };
            if let Some((event, error)) = fault {
                report.events.push(event);
                self.respawn(tid, report);
                if self.opts.policy == RecoveryPolicy::FailFast {
                    return Err(error);
                }
            }
            // Unclaimed chunks carry no fault to report (the work just
            // has to happen somewhere) — recover them under both
            // policies.
            self.recover_chunk(state, chunk, report);
        }
        // Every chunk now has a published result; panics that raced the
        // scan still deserve their event (their chunk was recovered by
        // the loop above, so no further work is needed).
        let failed = std::mem::take(&mut lock(&state.progress).failed);
        for (chunk, tid) in failed {
            report.events.push(FaultEvent::WorkerPanicked { tid, chunk });
            if self.opts.policy == RecoveryPolicy::FailFast {
                return Err(PoolError::WorkerPanicked { tid, chunk });
            }
        }
        debug_assert_eq!(state.done(), state.nchunks, "triage must resolve every chunk");
        Ok(())
    }

    /// Computes `chunk` serially on the caller into a buffer of its own.
    fn compute_own(&self, state: &CallState<V>, chunk: usize) -> Vec<V> {
        let mut out = vec![V::zero(); self.layout.chunk(chunk).len() * state.k];
        self.kernel.compute_block(chunk, &state.x, state.k, &mut out);
        out
    }

    /// Re-executes `chunk` serially on the caller and publishes the
    /// result (first publish wins; a late straggler's result is
    /// discarded).
    fn recover_chunk(&self, state: &Arc<CallState<V>>, chunk: usize, report: &mut HealthReport) {
        // Recovery runs on the caller: credit its busy time to tid 0.
        let out = timed(state, 0, || self.compute_own(state, chunk));
        state.publish(chunk, Slot::Own(out));
        report.recovered_chunks += 1;
    }

    /// Abandons worker `tid`'s current thread (if still running) and
    /// installs a fresh one in its roster slot, so the pool returns to
    /// full strength for subsequent calls.
    fn respawn(&mut self, tid: usize, report: &mut HealthReport) {
        self.workers[tid - 1].alive.store(false, Ordering::Release);
        let epoch = lock(&self.shared.state).epoch;
        // Dropping the old handle detaches the thread; an abandoned
        // straggler exits on its own when its computation returns and it
        // observes `alive == false`.
        self.workers[tid - 1] = spawn_sup_worker(&self.shared, &self.kernel, tid, epoch);
        report.events.push(FaultEvent::WorkerRespawned { tid });
    }

    /// Replaces any dead roster slot with a fresh worker thread and
    /// returns how many were respawned. The per-call watchdog already
    /// respawns workers it catches faulting *during* a call; this is the
    /// between-calls complement for executor handoff: a serving layer
    /// that parks an executor when its owning thread dies and hands it
    /// to a replacement thread calls this to restore the roster to full
    /// strength before dispatching again. Safe to call at any time the
    /// executor is not mid-call.
    pub fn ensure_workers(&mut self) -> usize {
        let epoch = lock(&self.shared.state).epoch;
        let mut respawned = 0;
        for i in 0..self.workers.len() {
            let slot = &self.workers[i];
            if slot.alive.load(Ordering::Acquire) && !slot.handle.is_finished() {
                continue;
            }
            slot.alive.store(false, Ordering::Release);
            self.workers[i] = spawn_sup_worker(&self.shared, &self.kernel, i + 1, epoch);
            respawned += 1;
        }
        respawned
    }

    /// Re-executes sampled chunks serially and compares bit patterns;
    /// replaces corrupted chunks with the serial result (Degrade) or
    /// aborts (FailFast).
    fn self_check(
        &self,
        state: &Arc<CallState<V>>,
        report: &mut HealthReport,
    ) -> Result<(), PoolError> {
        for chunk in (0..state.nchunks).step_by(self.opts.verify_every) {
            let expect = self.compute_own(state, chunk);
            let same = |got: &[V]| {
                got.len() == expect.len()
                    && got.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits())
            };
            let mut slot = lock(&state.results[chunk]);
            let clean = match &*slot {
                Slot::InPlace => state.out.read_finished(chunk, same) == Some(true),
                Slot::Own(got) => same(got),
                Slot::Pending => unreachable!("every chunk is resolved before the self-check"),
            };
            if clean {
                continue;
            }
            report.events.push(FaultEvent::ChunkCorrupted { chunk });
            if self.opts.policy == RecoveryPolicy::FailFast {
                return Err(PoolError::ChunkCorrupted { chunk });
            }
            *slot = Slot::Own(expect); // the serial result is authoritative
            report.recovered_chunks += 1;
        }
        Ok(())
    }
}

fn spawn_sup_worker<V: Scalar>(
    shared: &Arc<SupShared<V>>,
    kernel: &Arc<dyn ChunkKernel<V>>,
    tid: usize,
    seen_epoch: u64,
) -> WorkerSlot {
    let alive = Arc::new(AtomicBool::new(true));
    let handle = {
        let shared = Arc::clone(shared);
        let kernel = Arc::clone(kernel);
        let alive = Arc::clone(&alive);
        std::thread::Builder::new()
            .name(format!("spmv-supervised-{tid}"))
            .spawn(move || sup_worker_loop(shared, kernel, tid, alive, seen_epoch))
            .expect("failed to spawn supervised worker")
    };
    WorkerSlot { handle, alive }
}

impl<V: Scalar> Drop for SupervisedSpMv<V> {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            st.job = None;
        }
        self.shared.work_cv.notify_all();
        for slot in self.workers.drain(..) {
            let _ = slot.handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{ParChunks, ParSpMm};
    use spmv_core::csr_du::DuOptions;
    use spmv_core::{Coo, SpMv};

    fn irregular(nrows: usize, ncols: usize, seed: u64) -> Coo<f64> {
        let mut t: Vec<(usize, usize, f64)> = Vec::new();
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for r in 0..nrows {
            if r % 11 == 3 {
                continue; // empty row
            }
            let len = 1 + (next() as usize) % 9;
            for _ in 0..len {
                t.push((r, (next() as usize) % ncols, ((next() % 17) as f64) - 8.0));
            }
        }
        let mut coo = Coo::from_triplets(nrows, ncols, t).unwrap();
        coo.canonicalize();
        coo
    }

    fn x_for(ncols: usize) -> Vec<f64> {
        (0..ncols).map(|i| ((i % 23) as f64) * 0.37 - 3.0).collect()
    }

    /// Opts with a deadline generous enough that healthy runs never
    /// degrade, regardless of any `SPMV_WATCHDOG_MS` in the environment.
    fn calm() -> WatchdogOpts {
        WatchdogOpts { deadline: Duration::from_secs(60), ..WatchdogOpts::default() }
    }

    fn kernels(
        csr: &Csr<u32, f64>,
        nchunks: usize,
    ) -> Vec<(&'static str, Arc<dyn ChunkKernel<f64>>)> {
        let du = CsrDu::from_csr(csr, &DuOptions::default());
        let vi = CsrVi::from_csr(csr);
        let duvi = CsrDuVi::from_csr(csr, &DuOptions::default());
        vec![
            ("csr", Arc::new(CsrChunks::new(Arc::new(csr.clone()), nchunks))),
            ("csr-du", Arc::new(CsrDuChunks::new(Arc::new(du), nchunks))),
            ("csr-vi", Arc::new(CsrViChunks::new(Arc::new(vi), nchunks))),
            ("csr-duvi", Arc::new(CsrDuViChunks::new(Arc::new(duvi), nchunks))),
        ]
    }

    #[test]
    fn watchdog_ms_parser_accepts_positive_integers_only() {
        assert_eq!(parse_watchdog_ms("5").unwrap(), Duration::from_millis(5));
        assert_eq!(parse_watchdog_ms(" 250 ").unwrap(), Duration::from_millis(250));
        for bad in ["", "0", "-5", "1.5", "fast", "10ms", "99999999999999999999999"] {
            let err = parse_watchdog_ms(bad).unwrap_err();
            assert!(
                matches!(err, SparseError::InvalidArgument(_)),
                "{bad:?} must be a typed rejection, got {err}"
            );
            assert!(err.to_string().contains("SPMV_WATCHDOG_MS"), "{err}");
        }
    }

    #[test]
    fn checked_watchdog_deadline_agrees_with_lenient_path_on_valid_env() {
        // CI runs the suite both with SPMV_WATCHDOG_MS unset and set to a
        // valid value; in both cases the strict and lenient readers must
        // agree. (Malformed values are covered by the pure parser test —
        // mutating the process environment would race other tests.)
        assert_eq!(watchdog_deadline_checked().unwrap(), watchdog_deadline());
    }

    #[test]
    fn set_deadline_changes_subsequent_calls_without_respawning() {
        let coo = irregular(120, 100, 3);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(100);
        let mut y_serial = vec![0.0; 120];
        csr.spmv(&x, &mut y_serial);
        let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr), 6));
        let mut sup = SupervisedSpMv::with_opts(kernel, 3, calm());
        assert_eq!(sup.opts().deadline, Duration::from_secs(60));
        // Per-request deadline plumbing: tighten, run, relax, run — both
        // calls stay healthy and bit-identical on the same worker roster.
        sup.set_deadline(Duration::from_millis(200));
        assert_eq!(sup.opts().deadline, Duration::from_millis(200));
        let mut y = vec![99.0; 120];
        sup.spmv(&x, &mut y).expect("healthy run under tightened deadline");
        assert_eq!(y, y_serial);
        sup.set_deadline(Duration::from_secs(30));
        let mut y2 = vec![-1.0; 120];
        sup.spmv(&x, &mut y2).expect("healthy run after relaxing");
        assert_eq!(y2, y_serial);
    }

    #[test]
    #[should_panic(expected = "watchdog deadline must be positive")]
    fn zero_deadline_is_rejected() {
        let coo = irregular(40, 40, 5);
        let csr: Csr<u32, f64> = coo.to_csr();
        let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr), 2));
        let mut sup = SupervisedSpMv::with_opts(kernel, 2, calm());
        sup.set_deadline(Duration::ZERO);
    }

    #[test]
    fn healthy_run_matches_serial_bit_exact_all_kernels() {
        let coo = irregular(180, 140, 7);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(140);
        let mut y_serial = vec![0.0; 180];
        csr.spmv(&x, &mut y_serial);
        for nthreads in [1usize, 2, 4, 7] {
            for (name, kernel) in kernels(&csr, nthreads * 2) {
                let mut sup = SupervisedSpMv::with_opts(kernel, nthreads, calm());
                let mut y = vec![99.0; 180];
                let report = sup.spmv(&x, &mut y).expect("healthy run");
                assert_eq!(y, y_serial, "{name} nthreads={nthreads}");
                assert!(!report.degraded(), "{name}: unexpected events {:?}", report.events);
            }
        }
    }

    #[test]
    fn supervised_spmm_matches_serial_panel_all_kernels() {
        let coo = irregular(130, 110, 13);
        let csr: Csr<u32, f64> = coo.to_csr();
        for k in [1usize, 2, 3, 4, 8] {
            let x: Vec<f64> = (0..110 * k).map(|i| ((i % 31) as f64) * 0.21 - 2.5).collect();
            let mut y_serial = vec![0.0; 130 * k];
            csr.spmm(&x, k, &mut y_serial);
            for nthreads in [1usize, 3] {
                for (name, kernel) in kernels(&csr, nthreads * 2) {
                    let mut sup = SupervisedSpMv::with_opts(kernel, nthreads, calm());
                    let mut y = vec![9.0; 130 * k];
                    let report = sup.spmm(&x, k, &mut y).expect("healthy run");
                    assert_eq!(y, y_serial, "{name} k={k} nthreads={nthreads}");
                    assert!(!report.degraded(), "{name}: events {:?}", report.events);
                }
            }
        }
    }

    /// Chunks over a CSR matrix that leave rows 10..15 and 42.. of 50
    /// uncovered, listed in `order`.
    struct GapChunks {
        csr: Csr<u32, f64>,
        order: [usize; 3],
    }

    const GAP_RANGES: [Range<usize>; 3] = [0..10, 15..30, 30..42];

    impl ChunkKernel<f64> for GapChunks {
        fn nrows(&self) -> usize {
            self.csr.nrows()
        }
        fn ncols(&self) -> usize {
            self.csr.ncols()
        }
        fn nchunks(&self) -> usize {
            3
        }
        fn chunk_rows(&self, chunk: usize) -> Range<usize> {
            GAP_RANGES[self.order[chunk]].clone()
        }
        fn compute_block(&self, chunk: usize, x: &[f64], k: usize, out: &mut [f64]) {
            let r = self.chunk_rows(chunk);
            self.csr.spmm_rows_local_isa(Isa::Scalar, r.start, r.end, x, k, out);
        }
    }

    #[test]
    fn assembly_zeroes_rows_no_chunk_covers() {
        let csr: Csr<u32, f64> = irregular(50, 40, 17).to_csr();
        for k in [1usize, 3] {
            let x: Vec<f64> = (0..40 * k).map(|i| ((i % 13) as f64) * 0.3 - 1.7).collect();
            let mut expect = vec![0.0; 50 * k];
            csr.spmm(&x, k, &mut expect);
            for r in (10..15).chain(42..50) {
                expect[r * k..(r + 1) * k].fill(0.0);
            }
            let x = Arc::new(x);
            for order in [[0, 1, 2], [2, 0, 1]] {
                for nthreads in [1usize, 3] {
                    let kernel = Arc::new(GapChunks { csr: csr.clone(), order });
                    let mut sup = SupervisedSpMv::with_opts(kernel, nthreads, calm());
                    let mut y = vec![f64::NAN; 50 * k];
                    sup.spmm_shared(Arc::clone(&x), k, &mut y).expect("healthy run");
                    let same = y.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "k={k} order={order:?} nthreads={nthreads}");
                }
                // The pool driver zeroes the same rows, before its one
                // thread per chunk writes the rest.
                let mut par = ParChunks::from_kernel(GapChunks { csr: csr.clone(), order });
                let mut y = vec![f64::NAN; 50 * k];
                par.par_spmm(&x, k, &mut y);
                let same = y.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "ParChunks k={k} order={order:?}");
            }
        }
    }

    /// Two chunks of a 12-row matrix that both claim rows 5..8.
    struct OverlapChunks;

    impl ChunkKernel<f64> for OverlapChunks {
        fn nrows(&self) -> usize {
            12
        }
        fn ncols(&self) -> usize {
            4
        }
        fn nchunks(&self) -> usize {
            2
        }
        fn chunk_rows(&self, chunk: usize) -> Range<usize> {
            [0..8, 5..12][chunk].clone()
        }
        fn compute_block(&self, _chunk: usize, _x: &[f64], _k: usize, out: &mut [f64]) {
            out.fill(0.0);
        }
    }

    #[test]
    #[should_panic(expected = "chunk row ranges overlap")]
    fn pool_driver_refuses_overlapping_chunks() {
        // Each pool thread writes its chunk's rows of `y` through
        // `WorkerPool::run_split`, so a plan with shared rows must not
        // exist.
        ParChunks::from_kernel(OverlapChunks);
    }

    #[test]
    #[should_panic(expected = "chunk row ranges overlap")]
    fn supervised_refuses_overlapping_chunks() {
        // Each claimant writes its chunk's rows of the call's output, so
        // an executor over shared rows must not exist.
        SupervisedSpMv::with_opts(Arc::new(OverlapChunks), 2, calm());
    }

    /// Two chunks of a 12-row matrix, the second claiming rows 8..13.
    struct PastEndChunks;

    impl ChunkKernel<f64> for PastEndChunks {
        fn nrows(&self) -> usize {
            12
        }
        fn ncols(&self) -> usize {
            4
        }
        fn nchunks(&self) -> usize {
            2
        }
        fn chunk_rows(&self, chunk: usize) -> Range<usize> {
            [0..8, 8..13][chunk].clone()
        }
        fn compute_block(&self, _chunk: usize, _x: &[f64], _k: usize, out: &mut [f64]) {
            out.fill(0.0);
        }
    }

    #[test]
    #[should_panic(expected = "ends past the last row")]
    fn supervised_refuses_chunks_past_the_last_row() {
        SupervisedSpMv::with_opts(Arc::new(PastEndChunks), 2, calm());
    }

    /// CSR chunks that count the calls asking for the shape or a chunk
    /// range, and on request panic once on chunk 1 or corrupt the next
    /// non-empty chunk they compute.
    struct CountingChunks {
        inner: CsrChunks<u32, f64>,
        shape_calls: AtomicUsize,
        panic_once: AtomicBool,
        corrupt_once: AtomicBool,
    }

    impl CountingChunks {
        fn count(&self) {
            self.shape_calls.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl ChunkKernel<f64> for CountingChunks {
        fn nrows(&self) -> usize {
            self.count();
            ChunkKernel::<f64>::nrows(&self.inner)
        }
        fn ncols(&self) -> usize {
            self.count();
            ChunkKernel::<f64>::ncols(&self.inner)
        }
        fn nchunks(&self) -> usize {
            self.count();
            ChunkKernel::<f64>::nchunks(&self.inner)
        }
        fn chunk_rows(&self, chunk: usize) -> Range<usize> {
            self.count();
            self.inner.chunk_rows(chunk)
        }
        fn compute_block(&self, chunk: usize, x: &[f64], k: usize, out: &mut [f64]) {
            if chunk == 1 && self.panic_once.swap(false, Ordering::AcqRel) {
                panic!("scripted chunk panic");
            }
            self.inner.compute_block(chunk, x, k, out);
            if !out.is_empty() && self.corrupt_once.swap(false, Ordering::AcqRel) {
                out[0] += 1.0;
            }
        }
    }

    #[test]
    fn kernel_shape_is_read_only_at_construction() {
        let csr: Csr<u32, f64> = irregular(120, 100, 21).to_csr();
        let x = x_for(100);
        let mut y_serial = vec![0.0; 120];
        csr.spmv(&x, &mut y_serial);
        let kernel = Arc::new(CountingChunks {
            inner: CsrChunks::new(Arc::new(csr), 6),
            shape_calls: AtomicUsize::new(0),
            panic_once: AtomicBool::new(false),
            corrupt_once: AtomicBool::new(false),
        });
        // Workers take every chunk, so the scripted panic is caught and
        // recovered; every chunk is self-checked.
        let opts = WatchdogOpts { caller_participates: false, verify_every: 1, ..calm() };
        let mut sup = SupervisedSpMv::with_opts(Arc::clone(&kernel) as _, 3, opts);
        let built = kernel.shape_calls.load(Ordering::SeqCst);
        assert!(built > 0, "construction reads the shape");
        let shared = Arc::new(x.clone());
        for (what, panic, corrupt) in
            [("healthy", false, false), ("recovered", true, false), ("corrected", false, true)]
        {
            kernel.panic_once.store(panic, Ordering::SeqCst);
            kernel.corrupt_once.store(corrupt, Ordering::SeqCst);
            let (y, report) = sup.spmm_owned(Arc::clone(&shared), 1).expect(what);
            assert_eq!(y, y_serial, "{what}");
            assert_eq!(report.degraded(), panic || corrupt, "{what}: {:?}", report.events);
            let mut y = vec![f64::NAN; 120];
            sup.spmv(&x, &mut y).expect(what);
            assert_eq!(y, y_serial, "{what} through the slice entry point");
        }
        assert_eq!(
            kernel.shape_calls.load(Ordering::SeqCst),
            built,
            "a call asked the kernel for its shape or a chunk range"
        );
    }

    #[test]
    fn supervised_plan_is_reusable() {
        let coo = irregular(90, 70, 3);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(70);
        let mut y_serial = vec![0.0; 90];
        csr.spmv(&x, &mut y_serial);
        let mut sup = SupervisedSpMv::new(Arc::new(CsrChunks::new(Arc::new(csr), 8)), 4);
        for call in 0..50 {
            let mut y = vec![-1.0; 90];
            sup.spmv(&x, &mut y).expect("healthy run");
            assert_eq!(y, y_serial, "call {call}");
        }
    }

    #[test]
    fn empty_matrix_yields_zero_y() {
        let csr: Csr<u32, f64> = Coo::from_triplets(5, 4, vec![]).unwrap().to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let mut sup = SupervisedSpMv::new(Arc::new(CsrDuChunks::new(Arc::new(du), 4)), 3);
        let mut y = vec![7.0; 5];
        let report = sup.spmv(&[0.0; 4], &mut y).expect("empty matrix");
        assert_eq!(y, vec![0.0; 5]);
        assert!(!report.degraded());
    }

    #[test]
    fn self_check_passes_on_healthy_run() {
        let coo = irregular(120, 100, 9);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(100);
        let mut y_serial = vec![0.0; 120];
        csr.spmv(&x, &mut y_serial);
        let opts = WatchdogOpts { verify_every: 1, ..calm() };
        let mut sup =
            SupervisedSpMv::with_opts(Arc::new(CsrChunks::new(Arc::new(csr), 6)), 4, opts);
        let mut y = vec![0.0; 120];
        let report = sup.spmv(&x, &mut y).expect("healthy verified run");
        assert_eq!(y, y_serial);
        assert!(!report.degraded(), "self-check must not trip on clean chunks");
    }

    #[test]
    fn failfast_on_healthy_run_is_ok() {
        let coo = irregular(60, 60, 5);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(60);
        let opts = WatchdogOpts { policy: RecoveryPolicy::FailFast, ..calm() };
        let mut sup =
            SupervisedSpMv::with_opts(Arc::new(CsrChunks::new(Arc::new(csr), 4)), 4, opts);
        let mut y = vec![0.0; 60];
        sup.spmv(&x, &mut y).expect("no fault, no error");
    }

    #[test]
    fn tight_deadline_never_corrupts_results() {
        // The no-false-trips property: an aggressively low deadline may
        // cause spurious serial recovery, but results stay bit-identical
        // and no error is returned under Degrade.
        let coo = irregular(150, 150, 11);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(150);
        let mut y_serial = vec![0.0; 150];
        csr.spmv(&x, &mut y_serial);
        let opts = WatchdogOpts {
            deadline: Duration::from_micros(1),
            policy: RecoveryPolicy::Degrade,
            ..WatchdogOpts::default()
        };
        let mut sup =
            SupervisedSpMv::with_opts(Arc::new(CsrChunks::new(Arc::new(csr), 16)), 4, opts);
        for _ in 0..10 {
            let mut y = vec![0.0; 150];
            sup.spmv(&x, &mut y).expect("degrade mode never errors");
            assert_eq!(y, y_serial);
        }
    }

    #[test]
    fn heartbeats_cover_all_threads() {
        let coo = irregular(100, 80, 2);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(80);
        let mut sup =
            SupervisedSpMv::with_opts(Arc::new(CsrChunks::new(Arc::new(csr), 8)), 3, calm());
        let mut y = vec![0.0; 100];
        let report = sup.spmv(&x, &mut y).expect("healthy run");
        assert_eq!(report.heartbeats.len(), 3);
        // All chunk work is accounted for: 2 beats per chunk, 8 chunks.
        assert_eq!(report.heartbeats.iter().sum::<u64>(), 16);
    }

    #[test]
    fn report_telemetry_matches_feature_state() {
        let coo = irregular(100, 80, 4);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(80);
        let mut sup =
            SupervisedSpMv::with_opts(Arc::new(CsrChunks::new(Arc::new(csr), 8)), 3, calm());
        let mut y = vec![0.0; 100];
        let report = sup.spmv(&x, &mut y).expect("healthy run");
        #[cfg(not(feature = "telemetry"))]
        assert!(report.telemetry.is_none());
        #[cfg(feature = "telemetry")]
        {
            let t = report.telemetry.expect("telemetry on");
            assert_eq!(t.busy_ns.len(), 3);
            assert_eq!(t.dispatches, 1);
            // Every chunk was claimed by exactly one thread.
            assert_eq!(t.chunks.iter().sum::<u64>(), 8);
            assert!(t.imbalance() >= 1.0);
        }
    }
}
