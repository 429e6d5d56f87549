//! CSR-DU ("CSR Delta Unit") — the paper's index-compression format (§IV).
//!
//! The matrix is logically divided into *units*: runs of non-zeros inside a
//! single row. All indexing information is serialized into one byte stream,
//! `ctl`, replacing both `row_ptr` and `col_ind`. Each unit is encoded as
//!
//! ```text
//! uflags (1 byte) | usize (1 byte) | [urjmp varint] | ujmp varint | ucis
//! ```
//!
//! * `uflags` holds the unit *type* (the storage width of the delta values:
//!   1, 2, 4 or 8 bytes, or a sequential run) plus a `NR` flag marking the
//!   start of a new row and an `RJMP` flag marking a jump over empty rows.
//! * `usize` is the number of non-zeros covered by the unit (1..=255).
//! * `urjmp` (present iff `RJMP`) is the number of *extra* rows to advance —
//!   the paper's format cannot express empty rows; this varint is our
//!   documented extension for them.
//! * `ujmp` is the column distance of the unit's first non-zero from the
//!   current column position (which resets to 0 at a new row, so for
//!   row-starting units it is the absolute first column).
//! * `ucis` holds the remaining `usize - 1` column deltas, each stored in
//!   the unit's width (little-endian). Sequential units (`SEQ`, an optional
//!   encoder feature for runs of fully-dense neighbours) store no `ucis`
//!   bytes at all.
//!
//! During SpMV the byte stream is decoded with a per-type inner loop
//! (`match` on the unit type, then a tight loop over same-width deltas),
//! which keeps branches predictable — the coarse-grain property the paper
//! contrasts against DCSR's per-element command decoding.
//!
//! The numerical values stay in a plain `values` array exactly as in CSR.

mod decode;
mod encode;
mod spmv;
mod stats;
mod validate;

pub use decode::{DuCursor, Unit};
pub use encode::DuOptions;
pub use stats::DuStats;

pub(crate) use spmv::{spmm_ctl_range, spmv_ctl_range};

use crate::csr::Csr;
use crate::error::Result;
use crate::index::SpIndex;
use crate::scalar::Scalar;
use crate::spmv::{FormatKind, SpMv};
use crate::stats::SizeReport;
use std::sync::Arc;

/// Bit in `uflags` marking that the unit starts a new row.
pub const FLAG_NEW_ROW: u8 = 0x80;
/// Bit in `uflags` marking that a varint row-jump follows (empty rows).
pub const FLAG_ROW_JMP: u8 = 0x40;
/// Mask extracting the unit type from `uflags`.
pub const TYPE_MASK: u8 = 0x3f;

/// Storage width class of a unit's delta values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum UnitType {
    /// Column deltas stored as `u8`.
    U8 = 0,
    /// Column deltas stored as `u16` (little-endian).
    U16 = 1,
    /// Column deltas stored as `u32` (little-endian).
    U32 = 2,
    /// Column deltas stored as `u64` (little-endian).
    U64 = 3,
    /// All deltas are exactly 1 (a dense horizontal run); nothing stored.
    Seq = 4,
}

impl UnitType {
    /// Bytes per stored delta.
    pub fn delta_bytes(self) -> usize {
        match self {
            UnitType::U8 => 1,
            UnitType::U16 => 2,
            UnitType::U32 => 4,
            UnitType::U64 => 8,
            UnitType::Seq => 0,
        }
    }

    /// Narrowest non-sequential type able to store `delta`.
    pub fn for_delta(delta: usize) -> UnitType {
        match crate::index::narrowest_width_bytes(delta) {
            1 => UnitType::U8,
            2 => UnitType::U16,
            4 => UnitType::U32,
            _ => UnitType::U64,
        }
    }

    /// Decodes the type bits of a `uflags` byte.
    pub fn from_flags(uflags: u8) -> UnitType {
        match uflags & TYPE_MASK {
            0 => UnitType::U8,
            1 => UnitType::U16,
            2 => UnitType::U32,
            3 => UnitType::U64,
            4 => UnitType::Seq,
            t => panic!("corrupt ctl stream: unknown unit type {t}"),
        }
    }
}

/// A sparse matrix in CSR-DU format.
///
/// Construct with [`CsrDu::from_csr`]. The stored representation is exactly
/// the `ctl` byte stream plus the `values` array; everything else is
/// recomputed on demand.
///
/// ```
/// use spmv_core::csr_du::{CsrDu, DuOptions};
/// use spmv_core::SpMv;
///
/// let csr = spmv_core::examples::paper_matrix().to_csr();
/// let du = CsrDu::from_csr(&csr, &DuOptions::default());
/// // Table I of the paper: six units, 28 ctl bytes vs 92 CSR index bytes.
/// assert_eq!(du.units(), 6);
/// assert!(du.ctl().len() < csr.nnz() * 4);
/// // Lossless and bit-identical in SpMV:
/// assert_eq!(du.to_csr().unwrap(), csr);
/// ```
#[derive(Debug, Clone)]
pub struct CsrDu<V: Scalar = f64> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    /// Shared by clones and by the CSR-DU-VI assembled from this matrix
    /// ([`crate::csr_duvi::CsrDuVi::from_du_vi`]): the stream is never
    /// written after the encode.
    ctl: Arc<Vec<u8>>,
    values: Vec<V>,
    units: usize,
    /// Identity of this ctl stream (shared by clones), stamped into every
    /// [`DuSplit`] cut from it; see [`next_stream_id`].
    stream_id: u64,
}

/// Equal content; the stream identity is not compared.
impl<V: Scalar> PartialEq for CsrDu<V> {
    fn eq(&self, other: &Self) -> bool {
        let CsrDu { nrows, ncols, nnz, ctl, values, units, stream_id: _ } = self;
        *nrows == other.nrows
            && *ncols == other.ncols
            && *nnz == other.nnz
            && *ctl == other.ctl
            && *values == other.values
            && *units == other.units
    }
}

/// A fresh ctl-stream identity. Every encode and every checked rebuild
/// draws one, so a [`DuSplit`] can only be used with the stream it was
/// cut from (or a clone of it). Relaxed: the counter publishes no data,
/// only uniqueness matters.
fn next_stream_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl<V: Scalar> CsrDu<V> {
    /// Encodes a CSR matrix into CSR-DU. The construction is `O(nnz)`: one
    /// scan of the matrix, exactly as the paper requires (§IV). From
    /// [`crate::PARALLEL_ENCODE_MIN_NNZ`] non-zeros on, the scan and the
    /// value copy are split into nnz-balanced row ranges, one per
    /// available CPU; the encoding is the same bytes either way.
    pub fn from_csr<I: SpIndex>(csr: &Csr<I, V>, opts: &DuOptions) -> CsrDu<V> {
        Self::from_csr_in_parts(csr, opts, crate::encode_parts::for_nnz(csr.nnz()))
    }

    /// [`CsrDu::from_csr`] split into exactly `parts` row ranges, whatever
    /// the matrix size and CPU count. Every `parts` yields the same bytes;
    /// this entry point exists so that tests can check that.
    #[doc(hidden)]
    pub fn from_csr_in_parts<I: SpIndex>(
        csr: &Csr<I, V>,
        opts: &DuOptions,
        parts: usize,
    ) -> CsrDu<V> {
        encode::encode_ctl(csr, opts, parts)
            .with_values(crate::encode_parts::copy(csr.values(), parts))
    }

    /// The ctl stream of `csr` alone, encoded in `parts` row ranges, with
    /// an empty value array: the structure half of CSR-DU-VI, which stores
    /// its values as a table.
    pub(crate) fn structure_from_csr<I: SpIndex>(
        csr: &Csr<I, V>,
        opts: &DuOptions,
        parts: usize,
    ) -> CsrDu<V> {
        encode::encode_ctl(csr, opts, parts)
    }

    /// This matrix's structure: its ctl stream, shared, with an empty
    /// value array and a stream identity of its own — what
    /// [`CsrDu::structure_from_csr`] would encode from the same CSR.
    pub(crate) fn structure(&self) -> CsrDu<V> {
        CsrDu {
            values: Vec::new(),
            stream_id: next_stream_id(),
            ctl: Arc::clone(&self.ctl),
            ..*self
        }
    }

    /// Rebuilds a CSR-DU matrix from an *untrusted* ctl stream and value
    /// array (e.g. a deserialized container), validating the stream with
    /// full bounds checks and cross-checking the non-zero count.
    pub fn from_parts_checked(
        nrows: usize,
        ncols: usize,
        ctl: Vec<u8>,
        values: Vec<V>,
    ) -> crate::error::Result<CsrDu<V>> {
        let (nnz, units) = validate::validate_ctl(&ctl, nrows, ncols)?;
        if nnz != values.len() {
            return Err(crate::error::SparseError::InvalidFormat(format!(
                "ctl stream covers {nnz} non-zeros but {} values supplied",
                values.len()
            )));
        }
        Ok(CsrDu {
            nrows,
            ncols,
            nnz,
            ctl: Arc::new(ctl),
            values,
            units,
            stream_id: next_stream_id(),
        })
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
        self.nnz
    }

    /// The control byte stream holding all indexing information.
    pub fn ctl(&self) -> &[u8] {
        &self.ctl
    }

    /// Re-walks the ctl stream with full bounds checks, returning
    /// `(nnz, units)`. Shared by [`SpMv::validate`] here and in the
    /// combined DU-VI format, whose inner `CsrDu` carries no values.
    pub(crate) fn validate_ctl_stream(&self) -> Result<(usize, usize)> {
        validate::validate_ctl(&self.ctl, self.nrows, self.ncols)
    }

    /// Attaches a value array to a structure-only matrix.
    pub(crate) fn with_values(mut self, values: Vec<V>) -> CsrDu<V> {
        debug_assert_eq!(values.len(), self.nnz);
        self.values = values;
        self
    }

    /// The value array (identical content to CSR's).
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Number of encoded units.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Decoding cursor over the units (used by tests, stats and the
    /// partitioner).
    pub fn cursor(&self) -> DuCursor<'_> {
        DuCursor::new(&self.ctl)
    }

    /// Reconstructs the CSR form; the round-trip is lossless.
    pub fn to_csr(&self) -> Result<Csr<u32, V>> {
        decode::to_csr(self)
    }

    /// Bytes streamed per SpMV: the ctl stream plus the values.
    pub fn size_bytes(&self) -> usize {
        self.ctl.len() + self.nnz * V::BYTES
    }

    /// Size comparison against the `u32`-index CSR baseline, as printed on
    /// the bars of the paper's Fig. 7.
    pub fn size_report(&self) -> SizeReport {
        SizeReport {
            csr_bytes: self.nnz() * (4 + V::BYTES) + (self.nrows + 1) * 4,
            compressed_bytes: self.size_bytes(),
        }
    }

    /// Per-unit-type statistics (delta-width histogram etc.).
    pub fn stats(&self) -> DuStats {
        stats::compute(self)
    }

    /// Splits the matrix into `nparts` contiguous row blocks with
    /// approximately equal non-zero counts, for the row-partitioned
    /// multithreaded kernel (§II-C). Cut points always fall on row-starting
    /// units. Returns at most `nparts` splits (fewer for tiny matrices).
    pub fn splits(&self, nparts: usize) -> Vec<DuSplit> {
        decode::splits(self, nparts)
    }

    /// Panics unless `split` fits this matrix — it was cut from this ctl
    /// stream and its ctl, value and row ranges lie inside the matrix's
    /// own — and `x` is a full `ncols × k` panel. Every split entry point
    /// checks this before decoding; it is what the unchecked AVX2 decode
    /// relies on.
    pub(crate) fn assert_split_fits(&self, split: &DuSplit, x_len: usize, k: usize) {
        let DuSplit { ctl_range, val_start, row_start, row_end, nnz, stream_id, .. } = split;
        assert!(
            *stream_id == self.stream_id,
            "split does not fit this matrix: it was cut from a different ctl stream"
        );
        assert!(
            ctl_range.start <= ctl_range.end && ctl_range.end <= self.ctl.len(),
            "split ctl range {ctl_range:?} does not fit this matrix's {} ctl bytes",
            self.ctl.len()
        );
        assert!(
            val_start.checked_add(*nnz).is_some_and(|end| end <= self.nnz),
            "split values {val_start}+{nnz} do not fit this matrix's {} non-zeros",
            self.nnz
        );
        assert!(
            row_start <= row_end && *row_end <= self.nrows,
            "split rows {row_start}..{row_end} do not fit this matrix's {} rows",
            self.nrows
        );
        assert_eq!(x_len, self.ncols * k, "x must be an ncols x k row-major panel");
    }

    /// SpMV over one split produced by [`CsrDu::splits`] of this matrix,
    /// writing only `y[split.row_start()..split.row_end()]`. `y` is the
    /// full-length output vector.
    ///
    /// # Panics
    /// If `split` does not fit this matrix or `x.len() != ncols`.
    pub fn spmv_split(&self, split: &DuSplit, x: &[V], y: &mut [V]) {
        self.assert_split_fits(split, x.len(), 1);
        spmv::spmv_range(
            self,
            crate::simd::selected(),
            split.ctl_range.clone(),
            split.val_start,
            split.row_wrap_base,
            split.row_start,
            split.row_end,
            0,
            x,
            y,
        );
    }

    /// Like [`CsrDu::spmv_split`], but `y_local` covers only the split's
    /// own rows (`y_local.len() == row_end - row_start`). This is the
    /// entry point for parallel drivers that hand each thread a disjoint
    /// sub-slice of `y`.
    pub fn spmv_split_local(&self, split: &DuSplit, x: &[V], y_local: &mut [V]) {
        self.spmv_split_local_isa(crate::simd::selected(), split, x, y_local);
    }

    /// [`CsrDu::spmv_split_local`] with an explicit, pre-selected
    /// [`crate::simd::Isa`] — for parallel plans that snapshot the ISA at
    /// construction. An unavailable ISA degrades to the scalar decode.
    ///
    /// # Panics
    /// As [`CsrDu::spmv_split`].
    pub fn spmv_split_local_isa(
        &self,
        isa: crate::simd::Isa,
        split: &DuSplit,
        x: &[V],
        y_local: &mut [V],
    ) {
        self.assert_split_fits(split, x.len(), 1);
        debug_assert_eq!(y_local.len(), split.row_end - split.row_start);
        spmv::spmv_range(
            self,
            isa,
            split.ctl_range.clone(),
            split.val_start,
            split.row_wrap_base,
            split.row_start,
            split.row_end,
            split.row_start,
            x,
            y_local,
        );
    }

    /// SpMM over one split: the multi-vector analogue of
    /// [`CsrDu::spmv_split`]. `x`/`y` are full-size row-major panels
    /// (`ncols × k` / `nrows × k`); only the split's own row panels are
    /// written. Each ctl unit is decoded once and its values broadcast
    /// across the `k`-wide accumulator.
    ///
    /// # Panics
    /// If `split` does not fit this matrix or `x.len() != ncols * k`.
    pub fn spmm_split(&self, split: &DuSplit, x: &[V], k: usize, y: &mut [V]) {
        self.assert_split_fits(split, x.len(), k);
        spmv::spmm_range(
            self,
            crate::simd::selected(),
            split.ctl_range.clone(),
            split.val_start,
            split.row_wrap_base,
            split.row_start,
            split.row_end,
            0,
            x,
            k,
            y,
        );
    }

    /// Like [`CsrDu::spmm_split`], but `y_local` covers only the split's
    /// own row panels (`y_local.len() == (row_end - row_start) * k`) —
    /// the entry point for parallel drivers handing each thread a
    /// disjoint sub-slice of `y`.
    pub fn spmm_split_local(&self, split: &DuSplit, x: &[V], k: usize, y_local: &mut [V]) {
        self.spmm_split_local_isa(crate::simd::selected(), split, x, k, y_local);
    }

    /// [`CsrDu::spmm_split_local`] with an explicit, pre-selected
    /// [`crate::simd::Isa`] (see [`CsrDu::spmv_split_local_isa`]).
    ///
    /// # Panics
    /// As [`CsrDu::spmm_split`].
    pub fn spmm_split_local_isa(
        &self,
        isa: crate::simd::Isa,
        split: &DuSplit,
        x: &[V],
        k: usize,
        y_local: &mut [V],
    ) {
        self.assert_split_fits(split, x.len(), k);
        debug_assert_eq!(y_local.len(), (split.row_end - split.row_start) * k);
        spmv::spmm_range(
            self,
            isa,
            split.ctl_range.clone(),
            split.val_start,
            split.row_wrap_base,
            split.row_start,
            split.row_end,
            split.row_start,
            x,
            k,
            y_local,
        );
    }
}

impl<V: Scalar> SpMv<V> for CsrDu<V> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
    fn kind(&self) -> FormatKind {
        FormatKind::CsrDu
    }
    fn size_bytes(&self) -> usize {
        CsrDu::size_bytes(self)
    }

    fn spmv(&self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        spmv::spmv_range(
            self,
            crate::simd::selected(),
            0..self.ctl.len(),
            0,
            usize::MAX,
            0,
            self.nrows,
            0,
            x,
            y,
        );
    }

    fn validate(&self) -> std::result::Result<(), crate::error::SparseError> {
        let (nnz, units) = self.validate_ctl_stream()?;
        if nnz != self.values.len() || nnz != self.nnz {
            return Err(crate::error::SparseError::InvalidFormat(format!(
                "ctl stream covers {nnz} non-zeros but header says {} and {} values stored",
                self.nnz,
                self.values.len()
            )));
        }
        if units != self.units {
            return Err(crate::error::SparseError::InvalidFormat(format!(
                "ctl stream has {units} units but header says {}",
                self.units
            )));
        }
        Ok(())
    }
}

impl<V: Scalar> crate::spmm::SpMm<V> for CsrDu<V> {
    fn spmm(&self, x: crate::DenseBlock<'_, V>, mut y: crate::DenseBlockMut<'_, V>) {
        let k = crate::spmm::assert_panel_shapes(self.nrows, self.ncols, &x, &y);
        spmv::spmm_range(
            self,
            crate::simd::selected(),
            0..self.ctl.len(),
            0,
            usize::MAX,
            0,
            self.nrows,
            0,
            x.data(),
            k,
            y.data_mut(),
        );
    }
}

/// One thread's share of a CSR-DU matrix: a byte range of `ctl`, the
/// matching offset into `values`, and the row block it covers. This is
/// exactly the per-thread information the paper describes (§IV): "an offset
/// in the ctl, values and y arrays ... and the total number of rows".
///
/// Only [`CsrDu::splits`] (and [`crate::csr_duvi::CsrDuVi::splits`]) can
/// build one, and a split may only be passed back to the matrix it came
/// from (or a clone of it): the AVX2 decode reads the ctl range without
/// bounds checks, trusting that it starts on a row-starting unit of that
/// matrix's stream. Each split records the identity of its stream, and
/// the split entry points panic — before reading anything — on a split
/// cut from another stream or one whose ctl, value or row range reaches
/// past the matrix's own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuSplit {
    ctl_range: std::ops::Range<usize>,
    val_start: usize,
    row_start: usize,
    row_end: usize,
    row_wrap_base: usize,
    nnz: usize,
    stream_id: u64,
}

impl DuSplit {
    /// Byte range within the ctl stream.
    pub fn ctl_range(&self) -> std::ops::Range<usize> {
        self.ctl_range.clone()
    }

    /// Offset of the first value of this split within `values`.
    pub fn val_start(&self) -> usize {
        self.val_start
    }

    /// First row owned (inclusive); `y[row_start..row_end]` is written
    /// exclusively by this split.
    pub fn row_start(&self) -> usize {
        self.row_start
    }

    /// Last row owned (exclusive).
    pub fn row_end(&self) -> usize {
        self.row_end
    }

    /// Wrapping row baseline: the split's first `NR` unit advances
    /// `1 + row_jmp` from this value to land on its true absolute row.
    pub fn row_wrap_base(&self) -> usize {
        self.row_wrap_base
    }

    /// Non-zeros in this split.
    pub fn nnz(&self) -> usize {
        self.nnz
    }
}

#[cfg(test)]
mod tests;
