//! CSR-VI ("CSR Value Index") — the paper's value-compression format (§V).
//!
//! Value data carries no inherent redundancy in general, but many real
//! matrices contain few *unique* values (quantized coefficients, unit
//! stiffness entries, adjacency weights…). CSR-VI replaces the `values`
//! array of CSR with:
//!
//! * `vals_unique` — each distinct value bit-pattern, stored once;
//! * `val_ind` — for each non-zero, the index of its value in
//!   `vals_unique`, stored at the narrowest width that addresses all
//!   unique values (u8 if `uv ≤ 2^8`, u16 if `uv ≤ 2^16`, else u32).
//!
//! The SpMV kernel replaces the direct `values[j]` load with the indirect
//! `vals_unique[val_ind[j]]`. When `uv` is small, `vals_unique` stays
//! cache-resident and the per-element traffic drops from 8 value bytes to
//! 1-2 index bytes.
//!
//! Applicability is gated by the **total-to-unique ratio** `ttu = nnz/uv`;
//! the paper uses the empirical criterion `ttu > 5` (§VI-E).

pub(crate) mod build;
mod spmv;

use crate::csr::Csr;
use crate::error::Result;
use crate::index::SpIndex;
use crate::scalar::Scalar;
use crate::spmv::{FormatKind, SpMv};
use crate::stats::SizeReport;
use std::sync::Arc;

/// The paper's empirical applicability threshold for CSR-VI (§VI-E).
pub const TTU_THRESHOLD: f64 = 5.0;

/// Width-specialized storage of the per-element value indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValInd {
    /// `uv ≤ 2^8` unique values.
    U8(Vec<u8>),
    /// `2^8 < uv ≤ 2^16`.
    U16(Vec<u16>),
    /// `2^16 < uv ≤ 2^32`.
    U32(Vec<u32>),
}

impl ValInd {
    /// Number of per-element indices (== nnz).
    pub fn len(&self) -> usize {
        match self {
            ValInd::U8(v) => v.len(),
            ValInd::U16(v) => v.len(),
            ValInd::U32(v) => v.len(),
        }
    }

    /// `true` if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per stored index.
    pub fn width_bytes(&self) -> usize {
        match self {
            ValInd::U8(_) => 1,
            ValInd::U16(_) => 2,
            ValInd::U32(_) => 4,
        }
    }

    /// Total bytes of the index array.
    pub fn size_bytes(&self) -> usize {
        self.len() * self.width_bytes()
    }

    /// Index of element `j` (slow path, for tests/reconstruction).
    pub fn get(&self, j: usize) -> usize {
        match self {
            ValInd::U8(v) => v[j] as usize,
            ValInd::U16(v) => v[j] as usize,
            ValInd::U32(v) => v[j] as usize,
        }
    }
}

/// A sparse matrix in CSR-VI format.
///
/// Structure arrays (`row_ptr`, `col_ind`) are identical to CSR's; only
/// the value storage differs.
///
/// ```
/// use spmv_core::csr_vi::CsrVi;
///
/// let csr = spmv_core::examples::paper_matrix().to_csr();
/// let vi = CsrVi::from_csr(&csr);
/// // Fig. 4 of the paper: 9 unique values, 1-byte indices.
/// assert_eq!(vi.unique_values(), 9);
/// assert_eq!(vi.val_ind().width_bytes(), 1);
/// // The paper's applicability gate: ttu = 16/9 < 5, so not recommended.
/// assert!(!vi.is_profitable());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrVi<I: SpIndex = u32, V: Scalar = f64> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<I>,
    col_ind: Vec<I>,
    vals_unique: Vec<V>,
    /// Shared with the CSR-DU-VI assembled from this matrix
    /// ([`crate::csr_duvi::CsrDuVi::from_du_vi`]); never written after
    /// the build.
    val_ind: Arc<ValInd>,
}

impl<I: SpIndex, V: Scalar> CsrVi<I, V> {
    /// Builds CSR-VI from CSR. `O(nnz)` using a hash table over value bit
    /// patterns, as in the paper (§V). From
    /// [`crate::PARALLEL_ENCODE_MIN_NNZ`] non-zeros on, the dedup and the
    /// copies run on one range per available CPU; the result is the same
    /// either way.
    pub fn from_csr(csr: &Csr<I, V>) -> CsrVi<I, V> {
        Self::from_csr_in_parts(csr, crate::encode_parts::for_nnz(csr.nnz()))
    }

    /// [`CsrVi::from_csr`] split into exactly `parts` ranges, whatever the
    /// matrix size and CPU count. Every `parts` yields the same table, ids
    /// and id width; this entry point exists so that tests can check that.
    #[doc(hidden)]
    pub fn from_csr_in_parts(csr: &Csr<I, V>, parts: usize) -> CsrVi<I, V> {
        build::build(csr, parts)
    }

    /// Rebuilds CSR-VI from untrusted parts (e.g. a deserialized
    /// container): validates the CSR structure invariants, the value-index
    /// length and that every value index addresses the unique table.
    pub fn from_parts_checked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<I>,
        col_ind: Vec<I>,
        vals_unique: Vec<V>,
        val_ind: ValInd,
    ) -> Result<CsrVi<I, V>> {
        // Validate structure by constructing a CSR with dummy values.
        let nnz = col_ind.len();
        let dummy = vec![V::zero(); nnz];
        let csr = Csr::from_raw_parts(nrows, ncols, row_ptr, col_ind, dummy)?;
        if val_ind.len() != nnz {
            return Err(crate::error::SparseError::InvalidFormat(format!(
                "val_ind length {} != nnz {nnz}",
                val_ind.len()
            )));
        }
        let uv = vals_unique.len();
        for j in 0..val_ind.len() {
            if val_ind.get(j) >= uv {
                return Err(crate::error::SparseError::InvalidFormat(format!(
                    "value index {} at element {j} exceeds unique count {uv}",
                    val_ind.get(j)
                )));
            }
        }
        let (row_ptr, col_ind) = (csr.row_ptr().to_vec(), csr.col_ind().to_vec());
        Ok(CsrVi { nrows, ncols, row_ptr, col_ind, vals_unique, val_ind: Arc::new(val_ind) })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.val_ind.len()
    }

    /// The row-pointer array.
    pub fn row_ptr(&self) -> &[I] {
        &self.row_ptr
    }

    /// The column-index array.
    pub fn col_ind(&self) -> &[I] {
        &self.col_ind
    }

    /// The unique-value table (first-occurrence order).
    pub fn vals_unique(&self) -> &[V] {
        &self.vals_unique
    }

    /// The per-element value indices.
    pub fn val_ind(&self) -> &ValInd {
        &self.val_ind
    }

    /// The value indices as shared with [`crate::csr_duvi::CsrDuVi`].
    pub(crate) fn shared_val_ind(&self) -> Arc<ValInd> {
        Arc::clone(&self.val_ind)
    }

    /// Number of unique values (`uv`).
    pub fn unique_values(&self) -> usize {
        self.vals_unique.len()
    }

    /// Total-to-unique values ratio (§VI-E).
    pub fn ttu(&self) -> f64 {
        if self.nnz() == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.unique_values() as f64
        }
    }

    /// `true` if the paper's `ttu > 5` criterion recommends this format.
    pub fn is_profitable(&self) -> bool {
        self.ttu() > TTU_THRESHOLD
    }

    /// Reconstructs plain CSR (lossless).
    pub fn to_csr(&self) -> Result<Csr<I, V>> {
        let values: Vec<V> =
            (0..self.nnz()).map(|j| self.vals_unique[self.val_ind.get(j)]).collect();
        Csr::from_raw_parts(
            self.nrows,
            self.ncols,
            self.row_ptr.clone(),
            self.col_ind.clone(),
            values,
        )
    }

    /// Bytes streamed per SpMV: structure + value indices + unique table.
    pub fn size_bytes(&self) -> usize {
        (self.nrows + 1) * I::BYTES
            + self.nnz() * I::BYTES
            + self.val_ind.size_bytes()
            + self.vals_unique.len() * V::BYTES
    }

    /// Size comparison against the CSR baseline with the same index width.
    pub fn size_report(&self) -> SizeReport {
        SizeReport {
            csr_bytes: self.nnz() * (I::BYTES + V::BYTES) + (self.nrows + 1) * I::BYTES,
            compressed_bytes: self.size_bytes(),
        }
    }

    /// The CSR-VI kernel (Fig. 5 of the paper): SpMM over the half-open
    /// row range `[row_begin, row_end)` with `k` right-hand sides, writing
    /// into a local row-major panel whose row 0 corresponds to
    /// `row_begin`. The paper notes the multithreaded version is
    /// "trivially derived" by giving each thread its first and last row.
    /// Each value-table indirection is resolved once per non-zero and
    /// broadcast across the `k`-wide accumulator; `k = 1` is SpMV, and
    /// [`SpMv::spmv`] is this call over all rows. `isa` is chosen by the
    /// caller (parallel plans snapshot it at construction); an
    /// unavailable ISA degrades to the scalar path.
    pub fn spmm_rows_local_isa(
        &self,
        isa: crate::simd::Isa,
        row_begin: usize,
        row_end: usize,
        x: &[V],
        k: usize,
        y_local: &mut [V],
    ) {
        debug_assert_eq!(y_local.len(), (row_end - row_begin) * k);
        spmv::spmm_rows(self, isa, row_begin, row_end, row_begin, x, k, y_local);
    }
}

impl<I: SpIndex, V: Scalar> SpMv<V> for CsrVi<I, V> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn nnz(&self) -> usize {
        self.val_ind.len()
    }
    fn kind(&self) -> FormatKind {
        FormatKind::CsrVi
    }
    fn size_bytes(&self) -> usize {
        CsrVi::size_bytes(self)
    }

    fn spmv(&self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        self.spmm_rows_local_isa(crate::simd::selected(), 0, self.nrows, x, 1, y);
    }

    fn validate(&self) -> std::result::Result<(), crate::error::SparseError> {
        use crate::error::SparseError;
        crate::csr::check_csr_structure(
            self.nrows,
            self.ncols,
            &self.row_ptr,
            &self.col_ind,
            self.val_ind.len(),
        )?;
        let uv = self.vals_unique.len();
        for j in 0..self.val_ind.len() {
            if self.val_ind.get(j) >= uv {
                return Err(SparseError::InvalidFormat(format!(
                    "value index {} at element {j} exceeds unique count {uv}",
                    self.val_ind.get(j)
                )));
            }
        }
        Ok(())
    }
}

impl<I: SpIndex, V: Scalar> crate::spmm::SpMm<V> for CsrVi<I, V> {
    fn spmm(&self, x: crate::DenseBlock<'_, V>, mut y: crate::DenseBlockMut<'_, V>) {
        let k = crate::spmm::assert_panel_shapes(self.nrows, self.ncols, &x, &y);
        self.spmm_rows_local_isa(crate::simd::selected(), 0, self.nrows, x.data(), k, y.data_mut());
    }
}

#[cfg(test)]
mod tests;
