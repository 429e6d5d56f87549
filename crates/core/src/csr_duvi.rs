//! CSR-DU-VI — combined index *and* value compression.
//!
//! The ICPP'08 paper presents CSR-DU and CSR-VI separately; its companion
//! CF'08 paper ("Optimizing sparse matrix-vector multiplication using index
//! and value compression", reference \[8\]) combines them: the ctl byte
//! stream of CSR-DU replaces the structure arrays while the unique-value
//! table of CSR-VI replaces the value array. For matrices that are both
//! structurally regular and value-redundant this compounds the working-set
//! reduction.
//!
//! Construction runs the CSR-VI value dedup and the CSR-DU ctl encode, one
//! after the other; from [`crate::PARALLEL_ENCODE_MIN_NNZ`] non-zeros on,
//! each splits its scan across the available CPUs and still writes the
//! bytes its one-part scan writes. [`CsrDuVi::from_du_vi`] builds nothing:
//! it shares the ctl stream and the ids of encodings already made.

use crate::csr::Csr;
use crate::csr_du::{CsrDu, DuOptions, DuSplit};
use crate::csr_vi::{CsrVi, ValInd};
use crate::error::Result;
use crate::index::SpIndex;
use crate::scalar::Scalar;
use crate::spmv::{FormatKind, SpMv};
use crate::stats::SizeReport;
use std::sync::Arc;

/// A sparse matrix with delta-unit structure compression and value
/// indirection.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrDuVi<V: Scalar = f64> {
    du: CsrDu<V>, // `values` inside is EMPTY; kept for ctl + dims + splits
    vals_unique: Vec<V>,
    val_ind: Arc<ValInd>,
    nnz: usize,
}

impl<V: Scalar> CsrDuVi<V> {
    /// Builds the combined format from CSR. `O(nnz)`. Value deduplication
    /// uses the same canonical-bit-pattern rules as CSR-VI (NaNs collapse
    /// to one table slot; `-0.0`/`+0.0` stay distinct). From
    /// [`crate::PARALLEL_ENCODE_MIN_NNZ`] non-zeros on, the dedup and the
    /// ctl encode each run on one range per available CPU, as in
    /// [`CsrVi::from_csr`] and [`CsrDu::from_csr`].
    pub fn from_csr<I: SpIndex>(csr: &Csr<I, V>, opts: &DuOptions) -> CsrDuVi<V> {
        Self::from_csr_in_parts(csr, opts, crate::encode_parts::for_nnz(csr.nnz()))
    }

    /// [`CsrDuVi::from_csr`] split into exactly `parts` ranges, whatever
    /// the matrix size and CPU count. Every `parts` yields the same bytes;
    /// this entry point exists so that tests can check that.
    #[doc(hidden)]
    pub fn from_csr_in_parts<I: SpIndex>(
        csr: &Csr<I, V>,
        opts: &DuOptions,
        parts: usize,
    ) -> CsrDuVi<V> {
        let (vals_unique, val_ind) = crate::csr_vi::build::dedup_values(csr.values(), parts);
        let du = CsrDu::structure_from_csr(csr, opts, parts);
        CsrDuVi { du, vals_unique, val_ind: Arc::new(val_ind), nnz: csr.nnz() }
    }

    /// Assembles the combined format from a CSR-DU encoding and a CSR-VI
    /// encoding of the same matrix instead of encoding either again: it
    /// shares the ctl stream of one and the value ids of the other (both
    /// are immutable) and copies the value table. Built from the same CSR
    /// (with the same `opts` for `du`), the result equals
    /// [`CsrDuVi::from_csr`].
    ///
    /// # Panics
    /// If the two encodings differ in shape or non-zero count.
    pub fn from_du_vi<I: SpIndex>(du: &CsrDu<V>, vi: &CsrVi<I, V>) -> CsrDuVi<V> {
        assert!(
            (du.nrows(), du.ncols(), du.nnz()) == (vi.nrows(), vi.ncols(), vi.nnz()),
            "CSR-DU ({}x{}, {} nnz) and CSR-VI ({}x{}, {} nnz) encode different matrices",
            du.nrows(),
            du.ncols(),
            du.nnz(),
            vi.nrows(),
            vi.ncols(),
            vi.nnz()
        );
        CsrDuVi {
            du: du.structure(),
            vals_unique: vi.vals_unique().to_vec(),
            val_ind: vi.shared_val_ind(),
            nnz: du.nnz(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.du.nrows()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.du.ncols()
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The control byte stream (structure data).
    pub fn ctl(&self) -> &[u8] {
        self.du.ctl()
    }

    /// The unique-value table.
    pub fn vals_unique(&self) -> &[V] {
        &self.vals_unique
    }

    /// The per-element value indices.
    pub fn val_ind(&self) -> &ValInd {
        &self.val_ind
    }

    /// Number of unique values.
    pub fn unique_values(&self) -> usize {
        self.vals_unique.len()
    }

    /// Number of delta units in the ctl stream.
    pub fn units(&self) -> usize {
        self.du.units()
    }

    /// Total-to-unique values ratio.
    pub fn ttu(&self) -> f64 {
        if self.nnz == 0 {
            0.0
        } else {
            self.nnz as f64 / self.unique_values() as f64
        }
    }

    /// Reconstructs plain CSR (lossless).
    pub fn to_csr(&self) -> Result<Csr<u32, V>> {
        let structure = self.du_with_values();
        structure.to_csr()
    }

    /// Bytes streamed per SpMV.
    pub fn size_bytes(&self) -> usize {
        self.du.ctl().len() + self.val_ind.size_bytes() + self.vals_unique.len() * V::BYTES
    }

    /// Size comparison against the u32/f64-style CSR baseline.
    pub fn size_report(&self) -> SizeReport {
        SizeReport {
            csr_bytes: self.nnz * (4 + V::BYTES) + (self.nrows() + 1) * 4,
            compressed_bytes: self.size_bytes(),
        }
    }

    /// nnz-balanced row splits (delegates to the DU stream).
    pub fn splits(&self, nparts: usize) -> Vec<DuSplit> {
        self.du.splits(nparts)
    }

    /// SpMV over one split from [`CsrDuVi::splits`] of this matrix,
    /// writing only the rows the split owns (`y` is the full-length
    /// output vector).
    ///
    /// # Panics
    /// If `split` does not fit this matrix or `x.len() != ncols` (see
    /// [`DuSplit`]).
    pub fn spmv_split(&self, split: &DuSplit, x: &[V], y: &mut [V]) {
        self.du.assert_split_fits(split, x.len(), 1);
        self.spmv_impl(
            split.ctl_range(),
            split.val_start(),
            split.row_wrap_base(),
            split.row_start(),
            split.row_end(),
            0,
            x,
            y,
        );
    }

    /// Like [`CsrDuVi::spmv_split`], but writes into a local slice covering
    /// only the split's rows (for parallel drivers).
    pub fn spmv_split_local(&self, split: &DuSplit, x: &[V], y_local: &mut [V]) {
        self.spmv_split_local_isa(crate::simd::selected(), split, x, y_local);
    }

    /// [`CsrDuVi::spmv_split_local`] with an explicit, pre-selected
    /// [`crate::simd::Isa`] — for parallel plans that snapshot the ISA at
    /// construction. An unavailable ISA degrades to the scalar decode.
    ///
    /// # Panics
    /// As [`CsrDuVi::spmv_split`].
    pub fn spmv_split_local_isa(
        &self,
        isa: crate::simd::Isa,
        split: &DuSplit,
        x: &[V],
        y_local: &mut [V],
    ) {
        self.du.assert_split_fits(split, x.len(), 1);
        debug_assert_eq!(y_local.len(), split.row_end() - split.row_start());
        self.spmv_impl_isa(
            isa,
            split.ctl_range(),
            split.val_start(),
            split.row_wrap_base(),
            split.row_start(),
            split.row_end(),
            split.row_start(),
            x,
            y_local,
        );
    }

    /// SpMM over one split (full-size row-major panels): the multi-vector
    /// analogue of [`CsrDuVi::spmv_split`]. One decode of the ctl stream
    /// *and* one value-table indirection per non-zero feed `k` FMAs.
    ///
    /// # Panics
    /// If `split` does not fit this matrix or `x.len() != ncols * k`.
    pub fn spmm_split(&self, split: &DuSplit, x: &[V], k: usize, y: &mut [V]) {
        self.du.assert_split_fits(split, x.len(), k);
        self.spmm_impl(
            split.ctl_range(),
            split.val_start(),
            split.row_wrap_base(),
            split.row_start(),
            split.row_end(),
            0,
            x,
            k,
            y,
        );
    }

    /// Like [`CsrDuVi::spmm_split`], but `y_local` covers only the split's
    /// own row panels (for parallel drivers).
    pub fn spmm_split_local(&self, split: &DuSplit, x: &[V], k: usize, y_local: &mut [V]) {
        self.spmm_split_local_isa(crate::simd::selected(), split, x, k, y_local);
    }

    /// [`CsrDuVi::spmm_split_local`] with an explicit, pre-selected
    /// [`crate::simd::Isa`] (see [`CsrDuVi::spmv_split_local_isa`]).
    ///
    /// # Panics
    /// As [`CsrDuVi::spmm_split`].
    pub fn spmm_split_local_isa(
        &self,
        isa: crate::simd::Isa,
        split: &DuSplit,
        x: &[V],
        k: usize,
        y_local: &mut [V],
    ) {
        self.du.assert_split_fits(split, x.len(), k);
        debug_assert_eq!(y_local.len(), (split.row_end() - split.row_start()) * k);
        self.spmm_impl_isa(
            isa,
            split.ctl_range(),
            split.val_start(),
            split.row_wrap_base(),
            split.row_start(),
            split.row_end(),
            split.row_start(),
            x,
            k,
            y_local,
        );
    }

    /// Palette value source for the AVX2 decode, when `V` is `f64` and
    /// the unique-value table fits the i32 gather lanes.
    #[cfg(target_arch = "x86_64")]
    fn val_src(&self) -> Option<crate::simd::avx2::ValSrc<'_>> {
        use crate::simd::avx2::ValSrc;
        let pal = crate::simd::as_f64s(&self.vals_unique)?;
        if pal.len() > i32::MAX as usize {
            return None;
        }
        Some(match &*self.val_ind {
            ValInd::U8(ind) => ValSrc::Pal8(pal, ind),
            ValInd::U16(ind) => ValSrc::Pal16(pal, ind),
            ValInd::U32(ind) => ValSrc::Pal32(pal, ind),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn spmv_impl(
        &self,
        ctl_range: std::ops::Range<usize>,
        val_start: usize,
        row_wrap_base: usize,
        row_start: usize,
        row_end: usize,
        y_base: usize,
        x: &[V],
        y: &mut [V],
    ) {
        self.spmv_impl_isa(
            crate::simd::selected(),
            ctl_range,
            val_start,
            row_wrap_base,
            row_start,
            row_end,
            y_base,
            x,
            y,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn spmv_impl_isa(
        &self,
        isa: crate::simd::Isa,
        ctl_range: std::ops::Range<usize>,
        val_start: usize,
        row_wrap_base: usize,
        row_start: usize,
        row_end: usize,
        y_base: usize,
        x: &[V],
        y: &mut [V],
    ) {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2_ok(isa) && self.ncols() <= i32::MAX as usize {
            use crate::simd::{as_f64s, as_f64s_mut, avx2};
            if let Some(src) = self.val_src() {
                let (xs, ys) = (as_f64s(x).expect("V is f64"), as_f64s_mut(y).expect("V is f64"));
                // SAFETY: AVX2 verified by avx2_ok; ncols and the value
                // table fit the i32 gather lanes; palette indices are
                // in-table (dedup invariant). The stream was built by the
                // encoder, and every caller passes either the whole
                // stream or a split of this matrix that
                // `assert_split_fits` checked with `x.len() == ncols * k`.
                unsafe {
                    avx2::du_ctl_k1(
                        self.du.ctl(),
                        src,
                        ctl_range,
                        val_start,
                        row_wrap_base,
                        row_start,
                        row_end,
                        y_base,
                        xs,
                        ys,
                    );
                }
                return;
            }
        }
        let _ = isa;
        let vals = &self.vals_unique[..];
        match &*self.val_ind {
            ValInd::U8(ind) => crate::csr_du::spmv_ctl_range(
                self.du.ctl(),
                #[inline(always)]
                |j| vals[ind[j] as usize],
                ctl_range,
                val_start,
                row_wrap_base,
                row_start,
                row_end,
                y_base,
                x,
                y,
            ),
            ValInd::U16(ind) => crate::csr_du::spmv_ctl_range(
                self.du.ctl(),
                #[inline(always)]
                |j| vals[ind[j] as usize],
                ctl_range,
                val_start,
                row_wrap_base,
                row_start,
                row_end,
                y_base,
                x,
                y,
            ),
            ValInd::U32(ind) => crate::csr_du::spmv_ctl_range(
                self.du.ctl(),
                #[inline(always)]
                |j| vals[ind[j] as usize],
                ctl_range,
                val_start,
                row_wrap_base,
                row_start,
                row_end,
                y_base,
                x,
                y,
            ),
        }
    }

    /// SpMM twin of [`CsrDuVi::spmv_impl`]: dispatches on the value-index
    /// width, then on the panel width `k` (register accumulators for
    /// `k ∈ {1, 2, 4, 8}`), into the shared ctl decode loop.
    #[allow(clippy::too_many_arguments)]
    fn spmm_impl(
        &self,
        ctl_range: std::ops::Range<usize>,
        val_start: usize,
        row_wrap_base: usize,
        row_start: usize,
        row_end: usize,
        y_base: usize,
        x: &[V],
        k: usize,
        y: &mut [V],
    ) {
        self.spmm_impl_isa(
            crate::simd::selected(),
            ctl_range,
            val_start,
            row_wrap_base,
            row_start,
            row_end,
            y_base,
            x,
            k,
            y,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn spmm_impl_isa(
        &self,
        isa: crate::simd::Isa,
        ctl_range: std::ops::Range<usize>,
        val_start: usize,
        row_wrap_base: usize,
        row_start: usize,
        row_end: usize,
        y_base: usize,
        x: &[V],
        k: usize,
        y: &mut [V],
    ) {
        use crate::spmm::with_row_acc;
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2_ok(isa)
            && matches!(k, 1 | 2 | 4 | 8)
            && self.ncols() <= i32::MAX as usize
        {
            use crate::simd::{as_f64s, as_f64s_mut, avx2};
            if let Some(src) = self.val_src() {
                let (xs, ys) = (as_f64s(x).expect("V is f64"), as_f64s_mut(y).expect("V is f64"));
                let ctl = self.du.ctl();
                // SAFETY: as on spmv_impl_isa's dispatch above.
                unsafe {
                    match k {
                        1 => avx2::du_ctl_k1(
                            ctl,
                            src,
                            ctl_range,
                            val_start,
                            row_wrap_base,
                            row_start,
                            row_end,
                            y_base,
                            xs,
                            ys,
                        ),
                        2 => avx2::du_ctl_k2(
                            ctl,
                            src,
                            ctl_range,
                            val_start,
                            row_wrap_base,
                            row_start,
                            row_end,
                            y_base,
                            xs,
                            ys,
                        ),
                        4 => avx2::du_ctl_k4(
                            ctl,
                            src,
                            ctl_range,
                            val_start,
                            row_wrap_base,
                            row_start,
                            row_end,
                            y_base,
                            xs,
                            ys,
                        ),
                        _ => avx2::du_ctl_k8(
                            ctl,
                            src,
                            ctl_range,
                            val_start,
                            row_wrap_base,
                            row_start,
                            row_end,
                            y_base,
                            xs,
                            ys,
                        ),
                    }
                }
                return;
            }
        }
        let _ = isa;
        let vals = &self.vals_unique[..];
        match &*self.val_ind {
            ValInd::U8(ind) => with_row_acc!(k, acc => crate::csr_du::spmm_ctl_range(
                self.du.ctl(),
                #[inline(always)]
                |j| vals[ind[j] as usize],
                ctl_range.clone(),
                val_start,
                row_wrap_base,
                row_start,
                row_end,
                y_base,
                x,
                k,
                y,
                &mut acc,
            )),
            ValInd::U16(ind) => with_row_acc!(k, acc => crate::csr_du::spmm_ctl_range(
                self.du.ctl(),
                #[inline(always)]
                |j| vals[ind[j] as usize],
                ctl_range.clone(),
                val_start,
                row_wrap_base,
                row_start,
                row_end,
                y_base,
                x,
                k,
                y,
                &mut acc,
            )),
            ValInd::U32(ind) => with_row_acc!(k, acc => crate::csr_du::spmm_ctl_range(
                self.du.ctl(),
                #[inline(always)]
                |j| vals[ind[j] as usize],
                ctl_range.clone(),
                val_start,
                row_wrap_base,
                row_start,
                row_end,
                y_base,
                x,
                k,
                y,
                &mut acc,
            )),
        }
    }

    /// Rebuilds a CsrDu with materialized values (for reconstruction).
    fn du_with_values(&self) -> CsrDu<V> {
        let values: Vec<V> = (0..self.nnz).map(|j| self.vals_unique[self.val_ind.get(j)]).collect();
        self.du.clone().with_values(values)
    }
}

impl<V: Scalar> SpMv<V> for CsrDuVi<V> {
    fn nrows(&self) -> usize {
        self.du.nrows()
    }
    fn ncols(&self) -> usize {
        self.du.ncols()
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
    fn kind(&self) -> FormatKind {
        FormatKind::CsrDuVi
    }
    fn size_bytes(&self) -> usize {
        CsrDuVi::size_bytes(self)
    }

    fn spmv(&self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.ncols(), "x length must equal ncols");
        assert_eq!(y.len(), self.nrows(), "y length must equal nrows");
        self.spmv_impl(0..self.du.ctl().len(), 0, usize::MAX, 0, self.nrows(), 0, x, y);
    }

    fn validate(&self) -> std::result::Result<(), crate::error::SparseError> {
        use crate::error::SparseError;
        let (nnz, units) = self.du.validate_ctl_stream()?;
        if nnz != self.nnz {
            return Err(SparseError::InvalidFormat(format!(
                "ctl stream covers {nnz} non-zeros but header says {}",
                self.nnz
            )));
        }
        if units != self.du.units() {
            return Err(SparseError::InvalidFormat(format!(
                "ctl stream has {units} units but header says {}",
                self.du.units()
            )));
        }
        if self.val_ind.len() != self.nnz {
            return Err(SparseError::InvalidFormat(format!(
                "val_ind length {} != nnz {}",
                self.val_ind.len(),
                self.nnz
            )));
        }
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

impl<V: Scalar> crate::spmm::SpMm<V> for CsrDuVi<V> {
    fn spmm(&self, x: crate::DenseBlock<'_, V>, mut y: crate::DenseBlockMut<'_, V>) {
        let k = crate::spmm::assert_panel_shapes(self.nrows(), self.ncols(), &x, &y);
        self.spmm_impl(
            0..self.du.ctl().len(),
            0,
            usize::MAX,
            0,
            self.nrows(),
            0,
            x.data(),
            k,
            y.data_mut(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::examples::paper_matrix;

    fn build(coo: &Coo<f64>) -> CsrDuVi<f64> {
        CsrDuVi::from_csr(&coo.to_csr(), &DuOptions::default())
    }

    #[test]
    fn roundtrip_paper_matrix() {
        let csr = paper_matrix().to_csr();
        let duvi = CsrDuVi::from_csr(&csr, &DuOptions::default());
        assert_eq!(duvi.to_csr().unwrap(), csr);
        assert_eq!(duvi.unique_values(), 9);
    }

    #[test]
    fn spmv_matches_csr() {
        let coo = paper_matrix();
        let duvi = build(&coo);
        let x: Vec<f64> = (0..6).map(|i| (i as f64).sin() + 2.0).collect();
        let mut y0 = vec![0.0; 6];
        let mut y1 = vec![5.0; 6];
        coo.to_csr().spmv(&x, &mut y0);
        duvi.spmv(&x, &mut y1);
        assert_eq!(y0, y1);
    }

    #[test]
    fn compounds_both_reductions() {
        // Banded matrix with 3 unique values: DU shrinks indices to ~1 B,
        // VI shrinks values to 1 B -> total well under half of CSR.
        let n = 3000usize;
        let mut t = Vec::new();
        for i in 0..n {
            for d in 0..4usize {
                if i + d < n {
                    t.push((i, i + d, [1.0, 2.0, 3.0, 2.0][d]));
                }
            }
        }
        let coo = Coo::from_triplets(n, n, t).unwrap();
        let duvi = build(&coo);
        let r = duvi.size_report();
        assert!(r.reduction() > 0.6, "combined reduction {} too small", r.reduction());
    }

    #[test]
    fn spmv_via_splits_matches_serial() {
        let mut t = Vec::new();
        for i in 0..200usize {
            if i % 11 == 5 {
                continue;
            }
            for j in 0..(1 + i % 7) {
                t.push((i, (i * 3 + j * 41) % 300, ((i + j) % 4) as f64 + 0.5));
            }
        }
        let mut coo = Coo::from_triplets(200, 300, t).unwrap();
        coo.canonicalize();
        let duvi = build(&coo);
        let x: Vec<f64> = (0..300).map(|i| (i % 9) as f64 - 4.0).collect();
        let mut y_full = vec![0.0; 200];
        duvi.spmv(&x, &mut y_full);
        for nparts in [2, 3, 7] {
            let mut y = vec![1.0; 200];
            for s in duvi.splits(nparts) {
                duvi.spmv_split(&s, &x, &mut y);
            }
            assert_eq!(y, y_full, "nparts={nparts}");
        }
    }

    #[test]
    fn empty_matrix() {
        let coo: Coo<f64> = Coo::new(4, 4);
        let duvi = build(&coo);
        assert_eq!(duvi.nnz(), 0);
        let mut y = vec![1.0; 4];
        duvi.spmv(&[0.0; 4], &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }
}
