//! Compressed Sparse Row (CSR) — the baseline format of the paper (§II-B).
//!
//! Three arrays: `values` (non-zeros in row-major order), `col_ind` (the
//! column of each non-zero) and `row_ptr` (the offset of each row's first
//! non-zero in `values`). The paper's baseline uses 32-bit indices and
//! 64-bit values; both widths are generic here.

use crate::coo::Coo;
use crate::error::{Result, SparseError};
use crate::index::SpIndex;
use crate::scalar::Scalar;
use crate::simd::Isa;
use crate::spmv::{FormatKind, SpMv};
use crate::stats::WorkingSet;

/// A sparse matrix in Compressed Sparse Row format.
///
/// Invariants (validated in [`Csr::from_raw_parts`]):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[nrows] == nnz`, monotonically non-decreasing;
/// * `col_ind.len() == values.len() == nnz`;
/// * within each row, column indices are strictly increasing and `< ncols`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<I: SpIndex = u32, V: Scalar = f64> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<I>,
    col_ind: Vec<I>,
    values: Vec<V>,
}

impl<I: SpIndex, V: Scalar> Csr<I, V> {
    /// Builds a CSR matrix from its three raw arrays, validating every
    /// invariant listed on the type.
    #[allow(clippy::needless_range_loop)] // explicit j-indexing mirrors the kernel
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<I>,
        col_ind: Vec<I>,
        values: Vec<V>,
    ) -> Result<Self> {
        check_csr_structure(nrows, ncols, &row_ptr, &col_ind, values.len())?;
        Ok(Csr { nrows, ncols, row_ptr, col_ind, values })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array (`nrows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[I] {
        &self.row_ptr
    }

    /// The column-index array (`nnz` entries).
    #[inline]
    pub fn col_ind(&self) -> &[I] {
        &self.col_ind
    }

    /// The value array (`nnz` entries).
    #[inline]
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Mutable access to values (pattern-preserving updates, e.g. matrix
    /// refresh between solver restarts).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [V] {
        &mut self.values
    }

    /// Half-open range of `values`/`col_ind` positions belonging to `row`.
    #[inline]
    pub fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        self.row_ptr[row].index()..self.row_ptr[row + 1].index()
    }

    /// Number of non-zeros in `row`.
    #[inline]
    pub fn row_nnz(&self, row: usize) -> usize {
        self.row_ptr[row + 1].index() - self.row_ptr[row].index()
    }

    /// Iterates over `(col, value)` pairs of one row.
    pub fn row_iter(&self, row: usize) -> impl Iterator<Item = (usize, V)> + '_ {
        let range = self.row_range(row);
        self.col_ind[range.clone()].iter().zip(&self.values[range]).map(|(c, v)| (c.index(), *v))
    }

    /// Iterates over all `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, V)> + '_ {
        (0..self.nrows).flat_map(move |r| self.row_iter(r).map(move |(c, v)| (r, c, v)))
    }

    /// Transpose SpMV: `y = Aᵀ·x` without materializing the transpose
    /// (`x.len() == nrows`, `y.len() == ncols`). Scatters along rows —
    /// the access-pattern mirror of the CSC kernel. Used by
    /// normal-equation and BiCG-style solvers.
    #[allow(clippy::needless_range_loop)] // paper-style explicit index loop
    pub fn spmv_transpose(&self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.nrows, "x length must equal nrows for A^T x");
        assert_eq!(y.len(), self.ncols, "y length must equal ncols for A^T x");
        for v in y.iter_mut() {
            *v = V::zero();
        }
        for i in 0..self.nrows {
            let xi = x[i];
            for j in self.row_range(i) {
                y[self.col_ind[j].index()] += self.values[j] * xi;
            }
        }
    }

    /// Multi-vector SpMM: `Y = A·X` for `k` right-hand sides stored
    /// row-major (`x[col * k + v]`, `y[row * k + v]`). Amortizes each
    /// matrix element over `k` FMAs — the classic remedy for SpMV's
    /// bandwidth-boundedness when multiple vectors are available (block
    /// solvers), complementary to the paper's compression. Raw-slice
    /// convenience wrapper over [`Csr::spmm_rows_local_isa`]; the
    /// trait-level panel entry point is [`crate::SpMm::spmm`].
    pub fn spmm(&self, x: &[V], k: usize, y: &mut [V]) {
        assert!(k >= 1, "need at least one right-hand side");
        assert_eq!(x.len(), self.ncols * k, "x must be ncols x k row-major");
        assert_eq!(y.len(), self.nrows * k, "y must be nrows x k row-major");
        self.spmm_rows_local_isa(crate::simd::selected(), 0, self.nrows, x, k, y);
    }

    /// The CSR kernel: SpMM over the half-open row range
    /// `[row_begin, row_end)` with `k` right-hand sides, writing into a
    /// *local* panel whose row 0 corresponds to `row_begin`
    /// (`y_local[(i - row_begin) * k + v]`). Each thread of the
    /// row-partitioned multithreaded kernel (§II-C) owns a disjoint row
    /// block and therefore a disjoint slice of `y`; `k = 1` is SpMV, and
    /// [`SpMv::spmv`] is this call over all rows.
    ///
    /// Every row accumulates in registers and stores `y` once (the
    /// paper's §VI-A optimization). `isa` is chosen by the caller —
    /// parallel plans snapshot it once at construction — and an
    /// unavailable ISA degrades to the scalar path. `k ∈ {1, 2, 4, 8}`
    /// with `u32`/`f64` arrays run the AVX2 kernels when available;
    /// everything else runs the register-blocked scalar loop, with a
    /// fixed-size accumulator for those widths and a generic one
    /// otherwise.
    #[inline]
    pub fn spmm_rows_local_isa(
        &self,
        isa: Isa,
        row_begin: usize,
        row_end: usize,
        x: &[V],
        k: usize,
        y_local: &mut [V],
    ) {
        debug_assert!(row_end <= self.nrows);
        // The AVX2 kernels gather from `x` unchecked.
        assert_eq!(x.len(), self.ncols * k, "x must be ncols x k row-major");
        debug_assert_eq!(y_local.len(), (row_end - row_begin) * k);
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2_ok(isa)
            && matches!(k, 1 | 2 | 4 | 8)
            && self.ncols <= i32::MAX as usize
        {
            use crate::simd::{as_f64s, as_f64s_mut, as_u32s, avx2};
            if let (Some(rp), Some(ci), Some(vs)) =
                (as_u32s(&self.row_ptr), as_u32s(&self.col_ind), as_f64s(&self.values))
            {
                let xs = as_f64s(x).expect("V is f64");
                let ys = as_f64s_mut(y_local).expect("V is f64");
                let src = avx2::ValSrc::Direct(vs);
                // SAFETY: AVX2 verified by avx2_ok; CSR invariants give
                // columns < ncols == x.len() / k (asserted above); ncols
                // fits the i32 gather lanes.
                unsafe {
                    match k {
                        1 => avx2::rows_k1(rp, ci, src, row_begin, row_end, row_begin, xs, ys),
                        2 => avx2::rows_k2(rp, ci, src, row_begin, row_end, row_begin, xs, ys),
                        4 => avx2::rows_k4(rp, ci, src, row_begin, row_end, row_begin, xs, ys),
                        _ => avx2::rows_k8(rp, ci, src, row_begin, row_end, row_begin, xs, ys),
                    }
                }
                return;
            }
        }
        let _ = isa;
        crate::spmm::with_row_acc!(k, acc => {
            self.spmm_rows_acc(row_begin, row_end, x, k, y_local, &mut acc)
        });
    }

    /// Accumulator-generic SpMM row loop (monomorphized per panel width).
    #[inline]
    fn spmm_rows_acc<A: crate::spmm::RowAcc<V>>(
        &self,
        row_begin: usize,
        row_end: usize,
        x: &[V],
        k: usize,
        y_local: &mut [V],
        acc: &mut A,
    ) {
        let col_ind = &self.col_ind[..];
        let values = &self.values[..];
        for i in row_begin..row_end {
            let lo = self.row_ptr[i].index();
            let hi = self.row_ptr[i + 1].index();
            acc.reset();
            for j in lo..hi {
                let c = col_ind[j].index();
                acc.fma(values[j], &x[c * k..c * k + k]);
            }
            let base = (i - row_begin) * k;
            acc.store(&mut y_local[base..base + k]);
        }
    }

    /// Converts back to COO (canonical order).
    pub fn to_coo(&self) -> Coo<V> {
        Coo::from_triplets(self.nrows, self.ncols, self.iter())
            .expect("CSR invariants guarantee in-bounds entries")
    }

    /// Transposes into a new CSR (equivalently: interprets this matrix as
    /// CSC of the transpose). O(nnz + ncols).
    ///
    /// Returns [`SparseError::IndexOverflow`] when a *row* index of this
    /// matrix does not fit in `I`: CSR never stores row indices, so
    /// `nrows` may exceed `I::MAX` for a valid matrix — but the transpose
    /// must store them as its column indices.
    pub fn transpose(&self) -> Result<Csr<I, V>> {
        if self.nrows > 0 {
            // Checking only the largest row index keeps the hot loop free
            // of per-element branches.
            I::from_usize(self.nrows - 1)?;
        }
        let mut counts = vec![0usize; self.ncols + 1];
        for c in &self.col_ind {
            counts[c.index() + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut row_ptr: Vec<I> = Vec::with_capacity(self.ncols + 1);
        for &c in &counts {
            // Safe: every prefix count <= nnz, and nnz fits in I because
            // self.row_ptr already stores it.
            row_ptr.push(I::from_usize_unchecked(c));
        }
        let mut col_ind: Vec<I> = vec![I::default(); self.nnz()];
        let mut values: Vec<V> = vec![V::zero(); self.nnz()];
        let mut next = counts;
        for r in 0..self.nrows {
            for (c, v) in self.row_iter(r) {
                let dst = next[c];
                next[c] += 1;
                col_ind[dst] = I::from_usize_unchecked(r); // r < nrows, checked above
                values[dst] = v;
            }
        }
        Ok(Csr { nrows: self.ncols, ncols: self.nrows, row_ptr, col_ind, values })
    }

    /// Working-set breakdown per the paper's §II-B formula.
    pub fn working_set(&self) -> WorkingSet {
        WorkingSet::for_csr::<I, V>(self.nrows, self.ncols, self.nnz())
    }

    /// Total bytes of the matrix structure + values (excluding the x/y
    /// vectors): `nnz*(idx+val) + (nrows+1)*idx`.
    pub fn size_bytes(&self) -> usize {
        self.nnz() * (I::BYTES + V::BYTES) + (self.nrows + 1) * I::BYTES
    }

    /// Number of *unique* value bit patterns — the denominator of the
    /// total-to-unique (`ttu`) ratio that gates CSR-VI applicability (§V).
    pub fn unique_values(&self) -> usize {
        let mut set: std::collections::HashSet<V::Bits> =
            std::collections::HashSet::with_capacity(self.values.len().min(1 << 20));
        for v in &self.values {
            set.insert(v.to_bits());
        }
        set.len()
    }

    /// Total-to-unique values ratio; `nnz / unique_values` (§VI-E). Returns
    /// `f64::INFINITY` for an empty values set... which cannot happen for a
    /// matrix with nnz > 0; 0-nnz matrices report a ratio of 0.
    pub fn ttu(&self) -> f64 {
        if self.nnz() == 0 {
            return 0.0;
        }
        self.nnz() as f64 / self.unique_values() as f64
    }
}

/// Checks the CSR invariants (also CSC's, with rows/columns swapped)
/// against borrowed arrays; shared by [`Csr::from_raw_parts`] and the
/// `validate` methods of the CSR-layout formats.
#[allow(clippy::needless_range_loop)] // explicit j-indexing mirrors the kernel
pub(crate) fn check_csr_structure<I: SpIndex>(
    nrows: usize,
    ncols: usize,
    row_ptr: &[I],
    col_ind: &[I],
    nvalues: usize,
) -> Result<()> {
    if row_ptr.len() != nrows + 1 {
        return Err(SparseError::MalformedPointers(format!(
            "row_ptr length {} != nrows + 1 = {}",
            row_ptr.len(),
            nrows + 1
        )));
    }
    if col_ind.len() != nvalues {
        return Err(SparseError::MalformedPointers(format!(
            "col_ind length {} != values length {}",
            col_ind.len(),
            nvalues
        )));
    }
    if row_ptr[0].index() != 0 {
        return Err(SparseError::MalformedPointers("row_ptr[0] != 0".into()));
    }
    if row_ptr[nrows].index() != col_ind.len() {
        return Err(SparseError::MalformedPointers(format!(
            "row_ptr[nrows] = {} != nnz = {}",
            row_ptr[nrows].index(),
            col_ind.len()
        )));
    }
    for r in 0..nrows {
        let (lo, hi) = (row_ptr[r].index(), row_ptr[r + 1].index());
        if lo > hi {
            return Err(SparseError::MalformedPointers(format!("row_ptr decreases at row {r}")));
        }
        let mut prev: Option<usize> = None;
        for j in lo..hi {
            let c = col_ind[j].index();
            if c >= ncols {
                return Err(SparseError::IndexOutOfBounds { row: r, col: c, nrows, ncols });
            }
            if let Some(p) = prev {
                if c <= p {
                    return Err(SparseError::UnsortedIndices { row: r });
                }
            }
            prev = Some(c);
        }
    }
    Ok(())
}

impl<I: SpIndex, V: Scalar> SpMv<V> for Csr<I, V> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn kind(&self) -> FormatKind {
        FormatKind::Csr
    }
    fn size_bytes(&self) -> usize {
        Csr::size_bytes(self)
    }

    fn spmv(&self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        self.spmm_rows_local_isa(crate::simd::selected(), 0, self.nrows, x, 1, y);
    }

    fn validate(&self) -> std::result::Result<(), SparseError> {
        check_csr_structure(self.nrows, self.ncols, &self.row_ptr, &self.col_ind, self.values.len())
    }
}

impl<I: SpIndex, V: Scalar> crate::spmm::SpMm<V> for Csr<I, V> {
    fn spmm(&self, x: crate::DenseBlock<'_, V>, mut y: crate::DenseBlockMut<'_, V>) {
        let k = crate::spmm::assert_panel_shapes(self.nrows, self.ncols, &x, &y);
        self.spmm_rows_local_isa(crate::simd::selected(), 0, self.nrows, x.data(), k, y.data_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_matrix;

    #[test]
    fn paper_fig1_arrays() {
        // Fig. 1 of the paper: the 6x6 example matrix and its CSR arrays.
        let csr: Csr = paper_matrix().to_csr();
        assert_eq!(csr.row_ptr(), &[0, 2, 5, 6, 9, 12, 16]);
        assert_eq!(csr.col_ind(), &[0, 1, 1, 3, 5, 2, 2, 4, 5, 0, 3, 4, 0, 2, 3, 5]);
        assert_eq!(
            csr.values(),
            &[5.4, 1.1, 6.3, 7.7, 8.8, 1.1, 2.9, 3.7, 2.9, 9.0, 1.1, 4.5, 1.1, 2.9, 3.7, 1.1]
        );
    }

    #[test]
    fn validation_rejects_bad_row_ptr() {
        let r = Csr::<u32, f64>::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(r, Err(SparseError::MalformedPointers(_))));
        let r = Csr::<u32, f64>::from_raw_parts(2, 2, vec![1, 1, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(r, Err(SparseError::MalformedPointers(_))));
        let r = Csr::<u32, f64>::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(r, Err(SparseError::MalformedPointers(_))));
    }

    #[test]
    fn validation_rejects_unsorted_and_oob_columns() {
        let r = Csr::<u32, f64>::from_raw_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
        assert!(matches!(r, Err(SparseError::UnsortedIndices { row: 0 })));
        let r = Csr::<u32, f64>::from_raw_parts(1, 3, vec![0, 1], vec![3], vec![1.0]);
        assert!(matches!(r, Err(SparseError::IndexOutOfBounds { .. })));
        // duplicates (equal consecutive columns) are also rejected
        let r = Csr::<u32, f64>::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
        assert!(matches!(r, Err(SparseError::UnsortedIndices { row: 0 })));
    }

    #[test]
    fn spmv_matches_coo_reference() {
        let coo = paper_matrix();
        let csr: Csr = coo.to_csr();
        let x: Vec<f64> = (0..6).map(|i| 0.5 + i as f64).collect();
        let mut y_ref = vec![0.0; 6];
        let mut y = vec![0.0; 6];
        coo.spmv_reference(&x, &mut y_ref);
        csr.spmv(&x, &mut y);
        assert_eq!(y, y_ref);
    }

    #[test]
    fn spmv_rows_partial_range() {
        let csr: Csr = paper_matrix().to_csr();
        let x = vec![1.0; 6];
        let mut y_full = vec![0.0; 6];
        csr.spmv(&x, &mut y_full);

        let mut y_parts = vec![0.0; 6];
        let (top, bottom) = y_parts.split_at_mut(3);
        csr.spmm_rows_local_isa(crate::simd::selected(), 0, 3, &x, 1, top);
        csr.spmm_rows_local_isa(crate::simd::selected(), 3, 6, &x, 1, bottom);
        assert_eq!(y_parts, y_full);
    }

    #[test]
    fn transpose_involution() {
        let csr: Csr = paper_matrix().to_csr();
        let tt = csr.transpose().unwrap().transpose().unwrap();
        assert_eq!(tt, csr);
    }

    #[test]
    fn transpose_spmv_consistency() {
        // (A^T x)_i == sum over rows r of A[r, i] * x[r]
        let coo = paper_matrix();
        let csr: Csr = coo.to_csr();
        let t = csr.transpose().unwrap();
        let x = vec![1.0, -1.0, 2.0, 0.5, 3.0, -2.0];
        let mut y_t = vec![0.0; 6];
        t.spmv(&x, &mut y_t);
        let mut y_ref = vec![0.0; 6];
        coo.transpose().spmv_reference(&x, &mut y_ref);
        assert_eq!(y_t, y_ref);
    }

    #[test]
    fn ttu_of_paper_matrix() {
        // Values: 5.4 1.1 6.3 7.7 8.8 1.1 2.9 3.7 2.9 9.0 1.1 4.5 1.1 2.9 3.7 1.1
        // Unique: {5.4, 1.1, 6.3, 7.7, 8.8, 2.9, 3.7, 9.0, 4.5} = 9
        let csr: Csr = paper_matrix().to_csr();
        assert_eq!(csr.unique_values(), 9);
        assert!((csr.ttu() - 16.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn size_bytes_matches_formula() {
        let csr: Csr = paper_matrix().to_csr();
        // nnz * (4 + 8) + (6 + 1) * 4
        assert_eq!(csr.size_bytes(), 16 * 12 + 7 * 4);
    }

    #[test]
    fn row_iter_and_iter() {
        let csr: Csr = paper_matrix().to_csr();
        let row1: Vec<_> = csr.row_iter(1).collect();
        assert_eq!(row1, vec![(1, 6.3), (3, 7.7), (5, 8.8)]);
        assert_eq!(csr.iter().count(), 16);
    }

    #[test]
    fn spmv_transpose_matches_transposed_spmv() {
        let coo = paper_matrix();
        let csr: Csr = coo.to_csr();
        let t = csr.transpose().unwrap();
        let x: Vec<f64> = (0..6).map(|i| 0.3 * i as f64 - 1.0).collect();
        let mut y_t = vec![0.0; 6];
        let mut y_direct = vec![0.0; 6];
        t.spmv(&x, &mut y_t);
        csr.spmv_transpose(&x, &mut y_direct);
        for (a, b) in y_direct.iter().zip(&y_t) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn spmv_transpose_rectangular() {
        let coo = Coo::from_triplets(2, 4, vec![(0, 3, 2.0), (1, 0, 1.0)]).unwrap();
        let csr: Csr = coo.to_csr();
        let mut y = vec![0.0; 4];
        csr.spmv_transpose(&[1.0, 10.0], &mut y);
        assert_eq!(y, vec![10.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn spmm_matches_repeated_spmv() {
        let coo = paper_matrix();
        let csr: Csr = coo.to_csr();
        let k = 3;
        // Row-major X: x[col * k + v].
        let x: Vec<f64> = (0..6 * k).map(|i| (i as f64) * 0.1 - 0.7).collect();
        let mut y = vec![0.0; 6 * k];
        csr.spmm(&x, k, &mut y);
        for v in 0..k {
            let xv: Vec<f64> = (0..6).map(|c| x[c * k + v]).collect();
            let mut yv = vec![0.0; 6];
            csr.spmv(&xv, &mut yv);
            for r in 0..6 {
                assert!((y[r * k + v] - yv[r]).abs() < 1e-12, "rhs {v} row {r}");
            }
        }
    }

    #[test]
    fn spmm_single_rhs_equals_spmv() {
        let csr: Csr = paper_matrix().to_csr();
        let x: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let mut y1 = vec![0.0; 6];
        let mut y2 = vec![0.0; 6];
        csr.spmv(&x, &mut y1);
        csr.spmm(&x, 1, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn u16_index_csr_works() {
        let coo = paper_matrix();
        let csr = coo.to_csr_with_index::<u16>().unwrap();
        let x = vec![1.0; 6];
        let mut y = vec![0.0; 6];
        let mut y_ref = vec![0.0; 6];
        csr.spmv(&x, &mut y);
        coo.spmv_reference(&x, &mut y_ref);
        assert_eq!(y, y_ref);
        assert_eq!(csr.size_bytes(), 16 * 10 + 7 * 2);
    }

    #[test]
    fn f32_values_csr_works() {
        let coo = Coo::<f32>::from_triplets(2, 2, vec![(0, 0, 2.0f32), (1, 1, 3.0f32)]).unwrap();
        let csr: Csr<u32, f32> = coo.to_csr_with_index().unwrap();
        let mut y = vec![0.0f32; 2];
        csr.spmv(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![2.0, 3.0]);
    }
}
