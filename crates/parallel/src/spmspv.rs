//! Parallel SpMSpV on the [`WorkerPool`]: the two-phase bucket plan over
//! CSC plus the row-partitioned masked-CSR fallback.
//!
//! ## The bucket plan ([`ParSpMSpV`])
//!
//! The serial form lives in [`spmv_core::spmspv::spmspv_bucketed`]; here
//! the active columns are split contiguously across threads and the
//! output rows into `nbuckets` contiguous buckets, giving four pool
//! dispatches with serial prefix sums between them:
//!
//! 1. **count** — thread `t` counts, per bucket `b`, the matrix entries
//!    its column slice contributes (`counts[t][b]`);
//! 2. a serial exclusive prefix sum lays the pair array out bucket-major,
//!    thread-slices in thread order within each bucket (`offs[b][t]`);
//! 3. **scatter** — the pair array is cut at that prefix table into one
//!    piece per (bucket, thread), and each thread writes its
//!    `(row, a_ij·x_j)` pairs into its own pieces, no synchronization;
//! 4. **accumulate** — buckets are split across threads; each bucket's
//!    pairs are folded into a dense accumulator over its row range, then
//!    a serial prefix over per-bucket support counts and a final
//!    **gather** dispatch copy the results into the sorted output.
//!
//! Within a bucket, pairs sit in global active-column order (thread
//! slices partition the columns contiguously and the prefix sum keeps
//! thread order), so every output row accumulates in ascending
//! active-column order — the result is **bit-identical across thread
//! counts and bucket counts**, and to the serial [`SpMSpV`] paths.
//!
//! ## Masked-CSR fallback ([`ParMaskedSpMSpV`])
//!
//! When the matrix is only available row-major, the fallback densifies
//! `x` plus an active-column mask and row-partitions the masked
//! accumulation. Each row is computed by exactly one thread in ascending
//! column order, so it matches the bucket plan bit-for-bit (structural
//! support included).
//!
//! ## What a call allocates
//!
//! The plans keep their counts, prefix tables, accumulators and (for the
//! bucket plan) pair arrays across calls; the pair arrays grow to the
//! largest pair count seen. A call allocates its output and bookkeeping
//! of `O(nthreads × nbuckets)` words: the phases that write several
//! buffers at once cut them with `split_at_mut` before dispatch
//! ([`spmv_core::split_mut`]) and hand each thread its pieces through
//! take-once slots, and each scatter thread keeps one cursor per bucket.
//!
//! [`SpMSpV`]: spmv_core::SpMSpV

use crate::partition::RowPartition;
use crate::pool::{chunk, Parts, WorkerPool};
use spmv_core::error::{Result, SparseError};
use spmv_core::spmspv::{choose_path, DENSE_CROSSOVER_DENSITY};
use spmv_core::{split_mut, Csc, Csr, Scalar, SpIndex, SpMSpVPath, SparseVec};
use std::sync::{Mutex, PoisonError};

fn check_x_dim(ncols: usize, x_dim: usize) -> Result<()> {
    if x_dim != ncols {
        return Err(SparseError::DimensionMismatch(format!(
            "spmspv: x dim {x_dim} != ncols {ncols}"
        )));
    }
    Ok(())
}

/// Take-once slots, one per thread: thread `t` takes item `t`.
struct Handout<T>(Vec<Mutex<Option<T>>>);

impl<T> Handout<T> {
    fn new(items: impl IntoIterator<Item = T>) -> Self {
        Handout(items.into_iter().map(|item| Mutex::new(Some(item))).collect())
    }

    fn take(&self, tid: usize) -> T {
        // A slot is only ever emptied whole, so a poisoned one is intact.
        let item = self.0[tid].lock().unwrap_or_else(PoisonError::into_inner).take();
        item.expect("each thread takes its pieces once")
    }
}

/// Copies the support of `acc` (the rows `hit` marks) into the sorted
/// output: thread `t` gathers rows `row_bounds[t]..row_bounds[t + 1]`
/// into output slots `out_bounds[t]..out_bounds[t + 1]`, which hold
/// exactly that many marked rows.
fn gather<V: Scalar>(
    pool: &mut WorkerPool,
    acc: &[V],
    hit: &[u8],
    row_bounds: &[usize],
    out_bounds: &[usize],
) -> Result<SparseVec<V>> {
    let out_nnz = *out_bounds.last().expect("a bound past the last thread");
    let mut out_ind = vec![0u32; out_nnz];
    let mut out_val = vec![V::zero(); out_nnz];
    {
        let ind = split_mut(&mut out_ind, out_bounds);
        let val = split_mut(&mut out_val, out_bounds);
        let pieces = Handout::new(ind.into_iter().zip(val));
        pool.run(|tid| {
            let (oind, oval) = pieces.take(tid);
            let mut w = 0usize;
            for r in row_bounds[tid]..row_bounds[tid + 1] {
                if hit[r] != 0 {
                    oind[w] = r as u32;
                    oval[w] = acc[r];
                    w += 1;
                }
            }
        });
    }
    SparseVec::new(acc.len(), out_ind, out_val)
}

/// Parallel two-phase bucket SpMSpV over a borrowed CSC matrix.
///
/// Owns a [`WorkerPool`] and per-call scratch, reused across calls. A
/// call still allocates its output and `O(nthreads × nbuckets)` words of
/// bookkeeping (see the [module docs](self#what-a-call-allocates), which
/// also give the algorithm and determinism contracts).
pub struct ParSpMSpV<'m, I: SpIndex = u32, V: Scalar = f64> {
    m: &'m Csc<I, V>,
    pool: WorkerPool,
    nthreads: usize,
    nbuckets: usize,
    bucket_rows: usize,
    crossover: f64,
    counts: Vec<usize>, // [t * nbuckets + b]
    /// Thread `t`'s row of `counts` (scale `nbuckets`).
    count_rows: Parts,
    offs: Vec<usize>,   // [b * nthreads + t] .. nbuckets * nthreads + 1
    bstart: Vec<usize>, // [b] .. nbuckets + 1
    /// Thread `t` accumulates buckets `bucket_bounds[t]..bucket_bounds[t + 1]`,
    /// which cover rows `row_bounds[t]..row_bounds[t + 1]`.
    bucket_bounds: Vec<usize>, // [t] .. nthreads + 1
    row_bounds: Vec<usize>, // [t] .. nthreads + 1
    touched: Vec<usize>, // [b]
    out_off: Vec<usize>, // [b] .. nbuckets + 1
    pair_rows: Vec<u32>, // bucket-major (row, value) pair array
    pair_vals: Vec<V>,
    acc: Vec<V>,  // nrows
    hit: Vec<u8>, // nrows
}

impl<'m, I: SpIndex, V: Scalar> ParSpMSpV<'m, I, V> {
    /// Builds a plan with `nthreads` workers and the default bucket count
    /// (4 buckets per thread, clamped to the row count — the result does
    /// not depend on the choice, only load balance does).
    pub fn new(m: &'m Csc<I, V>, nthreads: usize) -> Self {
        let nthreads = nthreads.max(1);
        Self::with_buckets(m, nthreads, nthreads * 4)
    }

    /// Builds a plan with an explicit bucket count (tests pin this to
    /// prove bucket-count independence).
    pub fn with_buckets(m: &'m Csc<I, V>, nthreads: usize, nbuckets: usize) -> Self {
        let nthreads = nthreads.max(1);
        let nbuckets = nbuckets.clamp(1, m.nrows().max(1));
        let bucket_rows = m.nrows().div_ceil(nbuckets).max(1);
        let bucket_bounds = RowPartition::uniform(nbuckets, nthreads).bounds;
        // Trailing buckets can sit entirely past the last row when
        // `nbuckets * bucket_rows` over-covers; clamp.
        let row_bounds = bucket_bounds.iter().map(|&b| (b * bucket_rows).min(m.nrows())).collect();
        ParSpMSpV {
            m,
            pool: WorkerPool::new(nthreads),
            nthreads,
            nbuckets,
            bucket_rows,
            crossover: DENSE_CROSSOVER_DENSITY,
            counts: vec![0; nthreads * nbuckets],
            count_rows: Parts::uniform(nthreads, nthreads),
            offs: vec![0; nbuckets * nthreads + 1],
            bstart: vec![0; nbuckets + 1],
            bucket_bounds,
            row_bounds,
            touched: vec![0; nbuckets],
            out_off: vec![0; nbuckets + 1],
            pair_rows: Vec::new(),
            pair_vals: Vec::new(),
            acc: vec![V::zero(); m.nrows()],
            hit: vec![0; m.nrows()],
        }
    }

    /// Overrides the density crossover used by [`ParSpMSpV::auto_path`].
    pub fn with_crossover(mut self, crossover: f64) -> Self {
        self.crossover = crossover;
        self
    }

    /// Worker count (including the participating caller).
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Bucket count in use.
    pub fn nbuckets(&self) -> usize {
        self.nbuckets
    }

    /// The path the density crossover selects for this input — the
    /// caller is expected to run its dense engine when this says
    /// [`SpMSpVPath::Dense`] (bit-identity makes the switch purely a
    /// performance decision).
    pub fn auto_path(&self, x: &SparseVec<V>) -> SpMSpVPath {
        choose_path(x.density(), self.crossover)
    }

    /// Multiplies by a sparse vector on the bucket plan.
    pub fn spmspv(&mut self, x: &SparseVec<V>) -> Result<SparseVec<V>> {
        check_x_dim(self.m.ncols(), x.dim())?;
        let nrows = self.m.nrows();
        if x.is_empty() || nrows == 0 {
            return Ok(SparseVec::empty(nrows));
        }
        let (nt, nb, brows) = (self.nthreads, self.nbuckets, self.bucket_rows);
        let (col_ptr, row_ind, values) = (self.m.col_ptr(), self.m.row_ind(), self.m.values());
        let (x_ind, x_val) = (x.indices(), x.values());

        // Phase 1: per-(thread, bucket) pair counts. Each thread zeroes
        // its own row first: the counts persist from the last call.
        self.pool.run_split(&mut self.counts, &self.count_rows, nb, |tid, my| {
            my.fill(0);
            for i in chunk(x_ind.len(), nt, tid) {
                let c = x_ind[i] as usize;
                for j in col_ptr[c].index()..col_ptr[c + 1].index() {
                    my[row_ind[j].index() / brows] += 1;
                }
            }
        });

        // Serial prefix sum: bucket-major, thread order within a bucket.
        let mut run = 0usize;
        for b in 0..nb {
            self.bstart[b] = run;
            for t in 0..nt {
                self.offs[b * nt + t] = run;
                run += self.counts[t * nb + b];
            }
        }
        self.bstart[nb] = run;
        self.offs[nb * nt] = run;
        self.pair_rows.resize(run, 0);
        self.pair_vals.resize(run, V::zero());

        // Phase 2: synchronization-free scatter. The pair arrays are cut
        // at the prefix table into one piece per (bucket, thread), and
        // thread `t` takes its piece of every bucket.
        {
            let rows = split_mut(&mut self.pair_rows, &self.offs);
            let vals = split_mut(&mut self.pair_vals, &self.offs);
            let mut mine: Vec<Vec<_>> = (0..nt).map(|_| Vec::with_capacity(nb)).collect();
            for (i, piece) in rows.into_iter().zip(vals).enumerate() {
                mine[i % nt].push(piece);
            }
            let pieces = Handout::new(mine);
            self.pool.run(|tid| {
                let mut slots = pieces.take(tid);
                let mut cur = vec![0usize; nb];
                for i in chunk(x_ind.len(), nt, tid) {
                    let (c, xv) = (x_ind[i] as usize, x_val[i]);
                    for j in col_ptr[c].index()..col_ptr[c + 1].index() {
                        let r = row_ind[j].index();
                        let b = r / brows;
                        let p = cur[b];
                        cur[b] = p + 1;
                        slots[b].0[p] = r as u32;
                        slots[b].1[p] = values[j] * xv;
                    }
                }
            });
        }

        // Phase 3: per-bucket accumulation. Each thread zeroes its
        // accumulator rows before folding, then counts each bucket's
        // support.
        {
            let acc = split_mut(&mut self.acc, &self.row_bounds);
            let hit = split_mut(&mut self.hit, &self.row_bounds);
            let touched = split_mut(&mut self.touched, &self.bucket_bounds);
            let pieces = Handout::new(acc.into_iter().zip(hit).zip(touched));
            let (bstart, pair_rows, pair_vals) = (&self.bstart, &self.pair_rows, &self.pair_vals);
            let (bucket_bounds, row_bounds) = (&self.bucket_bounds, &self.row_bounds);
            self.pool.run(|tid| {
                let ((acc, hit), touched) = pieces.take(tid);
                let r0 = row_bounds[tid];
                acc.fill(V::zero());
                hit.fill(0);
                for (b, tch) in (bucket_bounds[tid]..bucket_bounds[tid + 1]).zip(touched) {
                    for p in bstart[b]..bstart[b + 1] {
                        let r = pair_rows[p] as usize - r0;
                        acc[r] += pair_vals[p];
                        hit[r] = 1;
                    }
                    let blo = (b * brows).min(nrows) - r0;
                    let bhi = ((b + 1) * brows).min(nrows) - r0;
                    *tch = hit[blo..bhi].iter().filter(|&&h| h != 0).count();
                }
            });
        }

        // Serial prefix over per-bucket support counts.
        self.out_off[0] = 0;
        for b in 0..nb {
            self.out_off[b + 1] = self.out_off[b] + self.touched[b];
        }

        // Phase 4: gather each thread's buckets into the sorted output.
        let out_bounds: Vec<usize> = self.bucket_bounds.iter().map(|&b| self.out_off[b]).collect();
        gather(&mut self.pool, &self.acc, &self.hit, &self.row_bounds, &out_bounds)
    }
}

/// Parallel masked-CSR SpMSpV: densified `x` + active-column mask, rows
/// partitioned across the pool. The fallback path when only a row-major
/// matrix is at hand; bit-identical to [`ParSpMSpV`] (see module docs).
pub struct ParMaskedSpMSpV<'m, I: SpIndex = u32, V: Scalar = f64> {
    m: &'m Csr<I, V>,
    pool: WorkerPool,
    nthreads: usize,
    xd: Vec<V>,      // ncols
    active: Vec<u8>, // ncols
    acc: Vec<V>,     // nrows
    hit: Vec<u8>,    // nrows
    /// Thread `t` owns rows `row_bounds[t]..row_bounds[t + 1]`.
    row_bounds: Vec<usize>, // [t] .. nthreads + 1
    touched: Vec<usize>, // [t]
    out_off: Vec<usize>, // [t] .. nthreads + 1
}

impl<'m, I: SpIndex, V: Scalar> ParMaskedSpMSpV<'m, I, V> {
    /// Builds a masked plan with `nthreads` workers.
    pub fn new(m: &'m Csr<I, V>, nthreads: usize) -> Self {
        let nthreads = nthreads.max(1);
        ParMaskedSpMSpV {
            m,
            pool: WorkerPool::new(nthreads),
            nthreads,
            xd: vec![V::zero(); m.ncols()],
            active: vec![0; m.ncols()],
            acc: vec![V::zero(); m.nrows()],
            hit: vec![0; m.nrows()],
            row_bounds: RowPartition::uniform(m.nrows(), nthreads).bounds,
            touched: vec![0; nthreads],
            out_off: vec![0; nthreads + 1],
        }
    }

    /// Worker count (including the participating caller).
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Multiplies by a sparse vector on the masked row partition.
    pub fn spmspv(&mut self, x: &SparseVec<V>) -> Result<SparseVec<V>> {
        check_x_dim(self.m.ncols(), x.dim())?;
        let nrows = self.m.nrows();
        if x.is_empty() || nrows == 0 {
            return Ok(SparseVec::empty(nrows));
        }
        let nt = self.nthreads;
        // Serial mask build (O(ncols) clear + O(nnz(x)) fill).
        self.xd.fill(V::zero());
        self.active.fill(0);
        for (c, xv) in x.iter() {
            self.xd[c] = xv;
            self.active[c] = 1;
        }

        // Masked accumulation over disjoint row slices. `hit` is written
        // unconditionally so no stale state from a previous call can leak
        // through.
        {
            let acc = split_mut(&mut self.acc, &self.row_bounds);
            let hit = split_mut(&mut self.hit, &self.row_bounds);
            let pieces = Handout::new(acc.into_iter().zip(hit).zip(self.touched.iter_mut()));
            let (m, xd, active, row_bounds) = (self.m, &self.xd, &self.active, &self.row_bounds);
            self.pool.run(|tid| {
                let ((acc, hit), tch) = pieces.take(tid);
                let mut count = 0usize;
                for (w, r) in (row_bounds[tid]..row_bounds[tid + 1]).enumerate() {
                    let mut sum = V::zero();
                    let mut touched = false;
                    for (c, v) in m.row_iter(r) {
                        if active[c] != 0 {
                            sum += v * xd[c];
                            touched = true;
                        }
                    }
                    acc[w] = sum;
                    hit[w] = touched as u8;
                    count += touched as usize;
                }
                *tch = count;
            });
        }

        // Serial prefix over per-thread support counts, then gather.
        self.out_off[0] = 0;
        for t in 0..nt {
            self.out_off[t + 1] = self.out_off[t] + self.touched[t];
        }
        gather(&mut self.pool, &self.acc, &self.hit, &self.row_bounds, &self.out_off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::spmspv::{spmspv_bucketed, SpMSpV};
    use spmv_core::Coo;

    fn irregular(nrows: usize, ncols: usize, seed: u64) -> (Csr<u32, f64>, Csc<u32, f64>) {
        let mut t: Vec<(usize, usize, f64)> = Vec::new();
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for r in 0..nrows {
            let len = (next() as usize) % 9;
            for _ in 0..len {
                t.push((r, (next() as usize) % ncols, ((next() % 17) as f64) - 8.0));
            }
        }
        let mut coo = Coo::from_triplets(nrows, ncols, t).unwrap();
        coo.canonicalize();
        let csr = coo.to_csr();
        let csc = Csc::from_csr(&csr).unwrap();
        (csr, csc)
    }

    fn frontier(ncols: usize, step: usize) -> SparseVec<f64> {
        let ind: Vec<u32> = (0..ncols).step_by(step).map(|i| i as u32).collect();
        let val: Vec<f64> = ind.iter().map(|&i| 0.5 + (i % 7) as f64 * 0.25).collect();
        SparseVec::new(ncols, ind, val).unwrap()
    }

    #[test]
    fn bucket_plan_matches_serial_across_threads_and_buckets() {
        let (_, csc) = irregular(97, 83, 7);
        let x = frontier(83, 3);
        let reference = csc.spmspv(&x).unwrap();
        assert_eq!(spmspv_bucketed(&csc, &x, 5).unwrap(), reference);
        for nthreads in [1, 2, 4, 7] {
            for nbuckets in [1, 3, 16, 200] {
                let mut plan = ParSpMSpV::with_buckets(&csc, nthreads, nbuckets);
                let got = plan.spmspv(&x).unwrap();
                assert_eq!(got, reference, "nthreads={nthreads} nbuckets={nbuckets}");
            }
        }
    }

    #[test]
    fn masked_plan_matches_bucket_plan() {
        let (csr, csc) = irregular(64, 64, 11);
        let x = frontier(64, 5);
        let mut bucket = ParSpMSpV::new(&csc, 4);
        let mut masked = ParMaskedSpMSpV::new(&csr, 4);
        assert_eq!(masked.spmspv(&x).unwrap(), bucket.spmspv(&x).unwrap());
        // Scratch reuse: a second, different frontier on the same plans.
        let x2 = frontier(64, 2);
        assert_eq!(masked.spmspv(&x2).unwrap(), bucket.spmspv(&x2).unwrap());
        assert_eq!(bucket.spmspv(&x2).unwrap(), csc.spmspv(&x2).unwrap());
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let (csr, csc) = irregular(30, 20, 3);
        let mut bucket = ParSpMSpV::new(&csc, 3);
        let mut masked = ParMaskedSpMSpV::new(&csr, 3);
        assert!(bucket.spmspv(&SparseVec::empty(20)).unwrap().is_empty());
        assert!(masked.spmspv(&SparseVec::empty(20)).unwrap().is_empty());
        assert!(bucket.spmspv(&SparseVec::empty(7)).is_err());
        assert!(masked.spmspv(&SparseVec::empty(7)).is_err());
    }

    #[test]
    fn auto_path_switches_on_density() {
        let (_, csc) = irregular(40, 40, 5);
        let plan = ParSpMSpV::new(&csc, 2).with_crossover(0.5);
        assert_eq!(plan.auto_path(&frontier(40, 13)), SpMSpVPath::CscBucket);
        assert_eq!(plan.auto_path(&frontier(40, 1)), SpMSpVPath::Dense);
    }
}
