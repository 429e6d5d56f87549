//! Parallel SpMV executors.
//!
//! Each executor pre-computes its partition at construction (the paper
//! also partitions once, outside the timed loop) and owns a persistent
//! [`WorkerPool`] plus whatever scratch its reduction needs, so a
//! steady-state [`ParSpMv::par_spmv`] call spawns no threads and performs
//! no heap allocation: the pool is woken, each thread runs its planned
//! block, and executors that need cross-thread reductions run them as a
//! second chunked dispatch on the same pool.
//!
//! The four paper formats have one parallel kernel each, their
//! [`ChunkKernel`]. [`ParChunks`] runs any chunk kernel on the pool,
//! thread `t` computing chunk `t` straight into its rows of `y`;
//! [`ParCsr`], [`ParCsrDu`], [`ParCsrVi`] and [`ParCsrDuVi`] are that
//! driver over a borrowed matrix. The supervised executor and the service
//! run the same kernels over an `Arc`'d matrix. Column and 2-D block
//! partitioning keep executors of their own, because they reduce across
//! threads.
//!
//! Every buffer the threads write — `y` and the plan-owned scratch — is
//! cut by [`WorkerPool::run_split`] along a [`Parts`] built with the
//! plan, so each thread gets a plain `&mut` slice of its own rows.

use crate::partition::{ColPartition, Grid2d, RowPartition};
use crate::pool::{chunk, Parts, WorkerPool};
use crate::supervised::{zero_uncovered, ChunkKernel};
use crate::supervised::{CsrChunks, CsrDuChunks, CsrDuViChunks, CsrViChunks};
use spmv_core::csr_du::CsrDu;
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Csc, Csr, Isa, Scalar, SpIndex};

/// Common interface of the parallel executors (mirrors [`spmv_core::SpMv`]
/// with a fixed thread count chosen at plan time).
///
/// `par_spmv` takes `&mut self` because a plan owns mutable per-call state
/// — its worker pool and pre-allocated reduction scratch — and a single
/// plan must not be dispatched concurrently from two threads.
pub trait ParSpMv<V: Scalar>: Send {
    /// Number of threads this plan uses.
    fn nthreads(&self) -> usize;
    /// Computes `y = A·x` using the planned partition.
    fn par_spmv(&mut self, x: &[V], y: &mut [V]);
}

/// Multi-vector extension of [`ParSpMv`]: `Y = A·X` for a row-major panel
/// of `k` right-hand sides (`x[col * k + v]`, `y[row * k + v]` — the
/// [`spmv_core::DenseBlock`] layout), reusing the executor's planned
/// partition and persistent pool. Implemented by [`ParChunks`], and so by
/// the four paper-format executors ([`ParCsr`], [`ParCsrDu`],
/// [`ParCsrVi`], [`ParCsrDuVi`]): each thread decodes its row block
/// **once** and broadcasts every decoded scalar across the `k`-wide
/// panel, so the per-thread decode cost of the compressed formats is
/// amortized `k`-fold. With `k = 1` the result is bit-identical to
/// [`ParSpMv::par_spmv`].
pub trait ParSpMm<V: Scalar>: ParSpMv<V> {
    /// Computes `Y = A·X` using the planned partition. Panics if
    /// `x.len() != ncols * k` or `y.len() != nrows * k` or `k == 0`.
    fn par_spmm(&mut self, x: &[V], k: usize, y: &mut [V]);
}

/// Row bounds implied by ctl-stream splits: `[0, splits[0].row_end, ...]`.
pub(crate) fn split_row_bounds(row_ends: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut bounds = vec![0usize];
    bounds.extend(row_ends);
    bounds
}

// ---------------------------------------------------------------------
// Chunk kernels — one driver for the four paper formats
// ---------------------------------------------------------------------

/// Runs a [`ChunkKernel`] on a persistent [`WorkerPool`] with one thread
/// per chunk: thread `t` computes chunk `t` straight into its rows of
/// `y`, and rows no chunk covers are zeroed. `par_spmv` is `par_spmm`
/// with `k = 1`.
pub struct ParChunks<K> {
    kernel: K,
    /// `kernel.chunk_rows(t)` for every chunk.
    rows: Parts,
    pool: WorkerPool,
}

impl<K> ParChunks<K> {
    /// Plans `kernel` on a pool of `kernel.nchunks()` threads (at least
    /// one). Panics if two chunks share a row.
    pub fn from_kernel<V: Scalar>(kernel: K) -> ParChunks<K>
    where
        K: ChunkKernel<V>,
    {
        let rows =
            Parts::new((0..kernel.nchunks()).map(|chunk| kernel.chunk_rows(chunk)).collect());
        let pool = WorkerPool::new(rows.len().max(1));
        ParChunks { kernel, rows, pool }
    }

    /// The chunk kernel this plan runs.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }
}

impl<V: Scalar, K: ChunkKernel<V>> ParSpMv<V> for ParChunks<K> {
    fn nthreads(&self) -> usize {
        self.rows.len()
    }

    fn par_spmv(&mut self, x: &[V], y: &mut [V]) {
        self.par_spmm(x, 1, y);
    }
}

impl<V: Scalar, K: ChunkKernel<V>> ParSpMm<V> for ParChunks<K> {
    fn par_spmm(&mut self, x: &[V], k: usize, y: &mut [V]) {
        assert!(k >= 1, "need at least one right-hand side");
        assert_eq!(x.len(), self.kernel.ncols() * k, "x must be ncols x k row-major");
        assert_eq!(y.len(), self.kernel.nrows() * k, "y must be nrows x k row-major");
        zero_uncovered(self.rows.ranges().iter().cloned(), k, y);
        if self.rows.is_empty() {
            return;
        }
        let kernel = &self.kernel;
        self.pool.run_split(y, &self.rows, k, |tid, out| kernel.compute_block(tid, x, k, out));
    }
}

/// Row-partitioned parallel CSR SpMV (the paper's baseline MT kernel):
/// [`CsrChunks`] over a borrowed matrix.
pub type ParCsr<'m, I = u32, V = f64> = ParChunks<CsrChunks<I, V, &'m Csr<I, V>>>;

impl<'m, I: SpIndex, V: Scalar> ParCsr<'m, I, V> {
    /// Plans an nnz-balanced row partition over `nthreads` threads. The
    /// kernel ISA is snapshotted here (like the partition: chosen once,
    /// outside the timed loop).
    pub fn new(matrix: &'m Csr<I, V>, nthreads: usize) -> Self {
        ParChunks::from_kernel(CsrChunks::new(matrix, nthreads))
    }

    /// Like [`ParCsr::new`] with an explicit kernel ISA (unavailable
    /// choices degrade to scalar inside the kernel dispatch).
    pub fn with_isa(matrix: &'m Csr<I, V>, nthreads: usize, isa: Isa) -> Self {
        ParChunks::from_kernel(CsrChunks::with_isa(matrix, nthreads, isa))
    }
}

/// Row-partitioned parallel CSR-DU SpMV: [`CsrDuChunks`] over a borrowed
/// matrix. Each thread receives "an offset in the ctl, values and y
/// arrays" (§IV) via a pre-computed split.
pub type ParCsrDu<'m, V = f64> = ParChunks<CsrDuChunks<V, &'m CsrDu<V>>>;

impl<'m, V: Scalar> ParCsrDu<'m, V> {
    /// Plans nnz-balanced ctl-stream splits over `nthreads` threads (fewer
    /// for tiny matrices). The kernel ISA is snapshotted at plan time.
    pub fn new(matrix: &'m CsrDu<V>, nthreads: usize) -> Self {
        ParChunks::from_kernel(CsrDuChunks::new(matrix, nthreads))
    }

    /// Like [`ParCsrDu::new`] with an explicit kernel ISA.
    pub fn with_isa(matrix: &'m CsrDu<V>, nthreads: usize, isa: Isa) -> Self {
        ParChunks::from_kernel(CsrDuChunks::with_isa(matrix, nthreads, isa))
    }
}

/// Row-partitioned parallel CSR-VI SpMV ("trivially derived from the
/// serial by providing to each thread the first and the last row", §V):
/// [`CsrViChunks`] over a borrowed matrix.
pub type ParCsrVi<'m, I = u32, V = f64> = ParChunks<CsrViChunks<I, V, &'m CsrVi<I, V>>>;

impl<'m, I: SpIndex, V: Scalar> ParCsrVi<'m, I, V> {
    /// Plans an nnz-balanced row partition over `nthreads` threads. The
    /// kernel ISA is snapshotted at plan time.
    pub fn new(matrix: &'m CsrVi<I, V>, nthreads: usize) -> Self {
        ParChunks::from_kernel(CsrViChunks::new(matrix, nthreads))
    }

    /// Like [`ParCsrVi::new`] with an explicit kernel ISA.
    pub fn with_isa(matrix: &'m CsrVi<I, V>, nthreads: usize, isa: Isa) -> Self {
        ParChunks::from_kernel(CsrViChunks::with_isa(matrix, nthreads, isa))
    }
}

/// Row-partitioned parallel CSR-DU-VI SpMV: [`CsrDuViChunks`] over a
/// borrowed matrix.
pub type ParCsrDuVi<'m, V = f64> = ParChunks<CsrDuViChunks<V, &'m CsrDuVi<V>>>;

impl<'m, V: Scalar> ParCsrDuVi<'m, V> {
    /// Plans nnz-balanced ctl-stream splits over `nthreads` threads. The
    /// kernel ISA is snapshotted at plan time.
    pub fn new(matrix: &'m CsrDuVi<V>, nthreads: usize) -> Self {
        ParChunks::from_kernel(CsrDuViChunks::new(matrix, nthreads))
    }

    /// Like [`ParCsrDuVi::new`] with an explicit kernel ISA.
    pub fn with_isa(matrix: &'m CsrDuVi<V>, nthreads: usize, isa: Isa) -> Self {
        ParChunks::from_kernel(CsrDuViChunks::with_isa(matrix, nthreads, isa))
    }
}

// ---------------------------------------------------------------------
// CSC — column partitioning with private-y reduction
// ---------------------------------------------------------------------

/// Column-partitioned parallel CSC SpMV (§II-C): each thread runs a column
/// block into a *private* y vector ("the best practice is to have each
/// thread use its own y array"), followed by a chunked parallel reduction
/// on the same pool. The private vectors are pre-allocated at plan time.
pub struct ParCscColumns<'m, I: SpIndex = u32, V: Scalar = f64> {
    matrix: &'m Csc<I, V>,
    partition: ColPartition,
    pool: WorkerPool,
    /// `nparts` private y vectors, stored flat (`nparts * nrows`).
    privates: Vec<V>,
    /// Thread `t`'s private vector: row `t` of `privates` at scale `nrows`.
    stripes: Parts,
    /// The uniform row chunks of `y` the threads reduce.
    chunks: Parts,
}

impl<'m, I: SpIndex, V: Scalar> ParCscColumns<'m, I, V> {
    /// Plans an nnz-balanced column partition over `nthreads` threads.
    pub fn new(matrix: &'m Csc<I, V>, nthreads: usize) -> Self {
        let partition = ColPartition::by_nnz(matrix.col_ptr(), nthreads);
        let nparts = partition.nparts();
        let pool = WorkerPool::new(nparts);
        let privates = vec![V::zero(); nparts * matrix.nrows()];
        let stripes = Parts::uniform(nparts, nparts);
        let chunks = Parts::uniform(matrix.nrows(), nparts);
        ParCscColumns { partition, matrix, pool, privates, stripes, chunks }
    }
}

impl<I: SpIndex, V: Scalar> ParSpMv<V> for ParCscColumns<'_, I, V> {
    fn nthreads(&self) -> usize {
        self.partition.nparts()
    }

    fn par_spmv(&mut self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.matrix.ncols(), "x length must equal ncols");
        assert_eq!(y.len(), self.matrix.nrows(), "y length must equal nrows");
        let nparts = self.partition.nparts();
        let nrows = self.matrix.nrows();
        let partition = &self.partition;
        let m = self.matrix;
        // Dispatch 1: each thread zeroes its private y and accumulates its
        // column block into it.
        self.pool.run_split(&mut self.privates, &self.stripes, nrows, |tid, y_private| {
            y_private.fill(V::zero());
            let range = partition.part(tid);
            m.spmv_cols_acc(range.start, range.end, x, y_private);
        });
        // Dispatch 2: chunked parallel reduction. Each thread sums its row
        // chunk across all privates in fixed part order, so the result is
        // bit-identical to the serial reduction.
        let (privates, chunks) = (&self.privates, &self.chunks);
        self.pool.run_split(y, chunks, 1, |tid, y_chunk| {
            for (y_i, i) in y_chunk.iter_mut().zip(chunks.ranges()[tid].clone()) {
                let mut acc = V::zero();
                for k in 0..nparts {
                    acc += privates[k * nrows + i];
                }
                *y_i = acc;
            }
        });
    }
}

// ---------------------------------------------------------------------
// CSR — 2-D block partitioning
// ---------------------------------------------------------------------

/// Block-partitioned parallel CSR SpMV (§II-C): threads form a `pr x pc`
/// grid; each owns a (row block, column block) tile. Threads in the same
/// grid row share output rows, so each writes a private partial that a
/// chunked second dispatch reduces. Demonstrates the partitioning
/// trade-off space (ablation A3). Within each row, the tile's entries are
/// located by binary search on the sorted column indices, so a tile only
/// streams its own non-zeros (plus the row pointers).
pub struct ParCsrBlock2d<'m, I: SpIndex = u32, V: Scalar = f64> {
    matrix: &'m Csr<I, V>,
    grid: Grid2d,
    rows: RowPartition,
    col_bounds: Vec<usize>,
    pool: WorkerPool,
    /// Per-tile partial y blocks, stored flat; tile `t` owns range `t` of
    /// `tiles` (its row block's length).
    partials: Vec<V>,
    tiles: Parts,
    /// The rows of `y` tile `(pr, pc)` reduces: the `pc`-th uniform chunk
    /// of row block `pr`.
    y_parts: Parts,
}

impl<'m, I: SpIndex, V: Scalar> ParCsrBlock2d<'m, I, V> {
    /// Plans a near-square `pr x pc` grid with nnz-balanced row blocks and
    /// uniform column blocks.
    pub fn new(matrix: &'m Csr<I, V>, nthreads: usize) -> Self {
        let grid = Grid2d::squarest(nthreads);
        let rows = RowPartition::for_csr(matrix, grid.pr);
        let col_bounds: Vec<usize> = (0..=grid.pc).map(|k| k * matrix.ncols() / grid.pc).collect();
        let mut tiles = Vec::with_capacity(grid.len());
        let mut y_parts = Vec::with_capacity(grid.len());
        let mut off = 0;
        for t in 0..grid.len() {
            let (pr, pc) = grid.coords(t);
            let block = rows.part(pr);
            tiles.push(off..off + block.len());
            off += block.len();
            let local = chunk(block.len(), grid.pc, pc);
            y_parts.push(block.start + local.start..block.start + local.end);
        }
        let partials = vec![V::zero(); off];
        let pool = WorkerPool::new(grid.len());
        let (tiles, y_parts) = (Parts::new(tiles), Parts::new(y_parts));
        ParCsrBlock2d { matrix, grid, rows, col_bounds, pool, partials, tiles, y_parts }
    }

    /// The thread grid.
    pub fn grid(&self) -> Grid2d {
        self.grid
    }

    /// Value/column positions of row `i` falling in tile `t`'s column
    /// block, found by binary search on the row's sorted column indices.
    /// Exposed so tests can count exactly how many entries each tile
    /// visits.
    pub fn tile_row_entries(&self, t: usize, i: usize) -> std::ops::Range<usize> {
        let (_, pc) = self.grid.coords(t);
        let rr = self.matrix.row_range(i);
        let cind = &self.matrix.col_ind()[rr.clone()];
        let lo = rr.start + cind.partition_point(|c| c.index() < self.col_bounds[pc]);
        let hi = rr.start + cind.partition_point(|c| c.index() < self.col_bounds[pc + 1]);
        lo..hi
    }
}

impl<I: SpIndex, V: Scalar> ParSpMv<V> for ParCsrBlock2d<'_, I, V> {
    fn nthreads(&self) -> usize {
        self.grid.len()
    }

    fn par_spmv(&mut self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.matrix.ncols(), "x length must equal ncols");
        assert_eq!(y.len(), self.matrix.nrows(), "y length must equal nrows");
        let m = self.matrix;
        let grid = self.grid;
        let rows = &self.rows;
        let col_bounds = &self.col_bounds;
        let col_ind = m.col_ind();
        let values = m.values();
        // Dispatch 1: each tile computes its partial y block, visiting
        // only entries inside its column range (binary search per row).
        self.pool.run_split(&mut self.partials, &self.tiles, 1, |t, partial| {
            let (pr, pc) = grid.coords(t);
            let row_block = rows.part(pr);
            let (c_lo, c_hi) = (col_bounds[pc], col_bounds[pc + 1]);
            for (li, i) in row_block.enumerate() {
                let rr = m.row_range(i);
                let cind = &col_ind[rr.clone()];
                let lo = rr.start + cind.partition_point(|c| c.index() < c_lo);
                let hi = rr.start + cind.partition_point(|c| c.index() < c_hi);
                let mut acc = V::zero();
                for k in lo..hi {
                    acc += values[k] * x[col_ind[k].index()];
                }
                partial[li] = acc;
            }
        });
        // Dispatch 2: reduce across each grid row. Thread (pr, pc) owns
        // the pc-th uniform chunk of row block pr, so all grid.len()
        // threads reduce concurrently into disjoint y ranges, summing
        // tiles in fixed pc order (deterministic).
        let (partials, tiles, y_parts) = (&self.partials, self.tiles.ranges(), &self.y_parts);
        self.pool.run_split(y, y_parts, 1, |t, y_chunk| {
            let (pr, _) = grid.coords(t);
            let block_start = rows.part(pr).start;
            for (y_i, i) in y_chunk.iter_mut().zip(y_parts.ranges()[t].clone()) {
                let li = i - block_start;
                let mut acc = V::zero();
                for pcj in 0..grid.pc {
                    acc += partials[tiles[pr * grid.pc + pcj].start + li];
                }
                *y_i = acc;
            }
        });
    }
}

#[cfg(test)]
mod tests;
