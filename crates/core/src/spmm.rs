//! Multi-vector SpMV — SpMM: `Y = A·X` for a panel of `k` right-hand
//! sides — and the [`DenseBlock`] panel views.
//!
//! ## Why SpMM exists in a compression paper's repo
//!
//! The paper's central trade is spending CPU cycles decoding compressed
//! indices (CSR-DU's ctl stream) and values (CSR-VI's `val_ind`) to save
//! memory traffic. With a single right-hand side each decoded element
//! feeds exactly one FMA; with a panel of `k` vectors the *same* decode
//! feeds `k` FMAs, so the decode cost is amortized `k`-fold while the
//! matrix traffic (the part compression shrinks) is unchanged. SpMM is
//! therefore the workload where compressed formats pull ahead soonest.
//!
//! ## The `DenseBlock` layout contract
//!
//! Panels are stored **row-major**: element `(r, v)` of an `n × k` panel
//! lives at `data[r * k + v]`. Column `v` of `X` is the `v`-th right-hand
//! side; all `k` values belonging to one matrix row/column are adjacent,
//! so one decoded column index `c` addresses the contiguous slice
//! `x[c*k .. c*k + k]` — one cache line for small `k`, which is exactly
//! what the register-blocked kernels rely on.
//!
//! ## Register blocking
//!
//! Every format's kernel is written once, generic over a `RowAcc`
//! row-accumulator. `with_row_acc!` dispatches on `k` at the call
//! boundary: `k ∈ {1, 2, 4, 8}` monomorphize with a fixed-size array
//! accumulator that lives in registers (`FixedAcc`); any other `k` falls
//! back to a heap-backed accumulator (`DynAcc`). Each paper format has
//! this one kernel, and its [`SpMv::spmv`] is the `k = 1` call, so SpMV
//! and SpMM at `k = 1` are the same code and give the same bits by
//! construction.

use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::spmv::SpMv;

/// An immutable row-major dense panel view: `rows × cols` values with
/// element `(r, v)` at `data[r * cols + v]`.
#[derive(Debug, Clone, Copy)]
pub struct DenseBlock<'a, V: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: &'a [V],
}

impl<'a, V: Scalar> DenseBlock<'a, V> {
    /// Wraps a slice as a `rows × cols` row-major panel.
    ///
    /// Panics if `data.len() != rows * cols` — a view with a wrong length
    /// cannot be represented, so this is a programming error, not an
    /// input-shape error (those are [`SpMm::try_spmm`]'s job).
    pub fn new(rows: usize, cols: usize, data: &'a [V]) -> Self {
        assert_eq!(data.len(), rows * cols, "DenseBlock data must hold rows * cols elements");
        DenseBlock { rows, cols, data }
    }

    /// Number of panel rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of panel columns (`k`, the number of right-hand sides).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn data(&self) -> &'a [V] {
        self.data
    }

    /// One panel row: the `cols` values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [V] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies out one panel *column* (right-hand side `v`) as a contiguous
    /// vector — the shape a single-vector [`SpMv::spmv`] call consumes.
    /// Used by differential tests and the per-column fallback paths.
    pub fn column(&self, v: usize) -> Vec<V> {
        assert!(v < self.cols, "column {v} out of bounds for {} columns", self.cols);
        (0..self.rows).map(|r| self.data[r * self.cols + v]).collect()
    }
}

/// A mutable row-major dense panel view (same layout as [`DenseBlock`]).
#[derive(Debug)]
pub struct DenseBlockMut<'a, V: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: &'a mut [V],
}

impl<'a, V: Scalar> DenseBlockMut<'a, V> {
    /// Wraps a mutable slice as a `rows × cols` row-major panel.
    ///
    /// Panics if `data.len() != rows * cols` (see [`DenseBlock::new`]).
    pub fn new(rows: usize, cols: usize, data: &'a mut [V]) -> Self {
        assert_eq!(data.len(), rows * cols, "DenseBlockMut data must hold rows * cols elements");
        DenseBlockMut { rows, cols, data }
    }

    /// Number of panel rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of panel columns (`k`).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [V] {
        self.data
    }

    /// Reborrows as a shorter-lived mutable view (lets a caller pass the
    /// panel to [`SpMm::spmm`] repeatedly without giving it up).
    #[inline]
    pub fn reborrow(&mut self) -> DenseBlockMut<'_, V> {
        DenseBlockMut { rows: self.rows, cols: self.cols, data: self.data }
    }

    /// An immutable view of the same panel.
    #[inline]
    pub fn as_block(&self) -> DenseBlock<'_, V> {
        DenseBlock { rows: self.rows, cols: self.cols, data: self.data }
    }
}

/// Sparse matrix × dense panel multiplication: `Y = A·X` where `X` is
/// `ncols × k` and `Y` is `nrows × k`, both row-major ([`DenseBlock`]).
///
/// Implemented by the four paper formats (CSR, CSR-DU, CSR-VI,
/// CSR-DU-VI). Each implementation decodes every unit/row **once** and
/// broadcasts the decoded scalar across a `k`-wide inner loop; `k = 1`
/// degenerates to [`SpMv::spmv`] bit-for-bit.
pub trait SpMm<V: Scalar = f64>: SpMv<V> {
    /// Computes `Y = A·X`. Panics when the panel shapes disagree with the
    /// matrix (`x.rows() != ncols`, `y.rows() != nrows`,
    /// `x.cols() != y.cols()`) or `x.cols() == 0`. `Y` is fully
    /// overwritten.
    fn spmm(&self, x: DenseBlock<'_, V>, y: DenseBlockMut<'_, V>);

    /// Checked SpMM: returns [`SparseError::DimensionMismatch`] for
    /// mismatched panel shapes (and [`SparseError::InvalidArgument`] for
    /// an empty `k = 0` panel) instead of panicking — the entry point for
    /// panels built from untrusted or dynamic sources, mirroring
    /// [`SpMv::try_spmv`].
    fn try_spmm(&self, x: DenseBlock<'_, V>, y: DenseBlockMut<'_, V>) -> Result<(), SparseError> {
        if x.cols() != y.cols() {
            return Err(SparseError::DimensionMismatch(format!(
                "x panel has {} columns but y panel has {} for {} SpMM",
                x.cols(),
                y.cols(),
                self.kind()
            )));
        }
        if x.cols() == 0 {
            return Err(SparseError::InvalidArgument(
                "SpMM needs at least one right-hand side (k >= 1)".into(),
            ));
        }
        if x.rows() != self.ncols() {
            return Err(SparseError::DimensionMismatch(format!(
                "x panel rows {} != ncols {} for {} SpMM",
                x.rows(),
                self.ncols(),
                self.kind()
            )));
        }
        if y.rows() != self.nrows() {
            return Err(SparseError::DimensionMismatch(format!(
                "y panel rows {} != nrows {} for {} SpMM",
                y.rows(),
                self.nrows(),
                self.kind()
            )));
        }
        self.spmm(x, y);
        Ok(())
    }
}

/// Asserts the panel shapes of a `spmm` call against the matrix
/// dimensions and returns `k`. Shared preamble of every [`SpMm`]
/// implementation (the checked path is [`SpMm::try_spmm`]).
pub(crate) fn assert_panel_shapes<V: Scalar>(
    nrows: usize,
    ncols: usize,
    x: &DenseBlock<'_, V>,
    y: &DenseBlockMut<'_, V>,
) -> usize {
    assert_eq!(x.cols(), y.cols(), "x and y panels must have the same number of columns");
    let k = x.cols();
    assert!(k >= 1, "need at least one right-hand side");
    assert_eq!(x.rows(), ncols, "x panel rows must equal ncols");
    assert_eq!(y.rows(), nrows, "y panel rows must equal nrows");
    k
}

/// A `k`-wide row accumulator: the register-blocking abstraction every
/// SpMM kernel is written against. One accumulator covers one output row
/// panel `y[row*k .. row*k + k]`; the kernel calls [`RowAcc::reset`] at
/// row start, [`RowAcc::fma`] once per non-zero (broadcasting the decoded
/// matrix scalar across the `k`-wide x-row), and [`RowAcc::store`] on row
/// end — the SpMM generalization of the paper's §VI-A register
/// accumulator, preserving its store-once-per-row property.
pub(crate) trait RowAcc<V: Scalar> {
    /// The panel width this accumulator covers.
    fn k(&self) -> usize;
    /// Zeroes the accumulator (row start).
    fn reset(&mut self);
    /// `acc[v] += a * x_row[v]` for `v in 0..k`.
    fn fma(&mut self, a: V, x_row: &[V]);
    /// Writes the accumulated row panel to `y_row[..k]`.
    fn store(&self, y_row: &mut [V]);
}

/// Fixed-width accumulator: a `[V; K]` the compiler keeps in registers
/// for small `K`. The `K = 1` instantiation is the scalar SpMV
/// accumulator.
pub(crate) struct FixedAcc<V: Scalar, const K: usize> {
    acc: [V; K],
}

impl<V: Scalar, const K: usize> FixedAcc<V, K> {
    #[inline(always)]
    pub(crate) fn new() -> Self {
        FixedAcc { acc: [V::zero(); K] }
    }
}

impl<V: Scalar, const K: usize> RowAcc<V> for FixedAcc<V, K> {
    #[inline(always)]
    fn k(&self) -> usize {
        K
    }

    #[inline(always)]
    fn reset(&mut self) {
        self.acc = [V::zero(); K];
    }

    #[inline(always)]
    fn fma(&mut self, a: V, x_row: &[V]) {
        let x_row = &x_row[..K]; // one bounds check, then a fixed-trip loop
        for (accv, &xv) in self.acc.iter_mut().zip(x_row) {
            *accv += a * xv;
        }
    }

    #[inline(always)]
    fn store(&self, y_row: &mut [V]) {
        y_row[..K].copy_from_slice(&self.acc);
    }
}

/// Heap-backed accumulator for arbitrary `k` — the generic fallback when
/// `k` is not one of the specialized widths. Allocated once per kernel
/// call, not per row.
pub(crate) struct DynAcc<V: Scalar> {
    acc: Vec<V>,
}

impl<V: Scalar> DynAcc<V> {
    #[inline]
    pub(crate) fn new(k: usize) -> Self {
        DynAcc { acc: vec![V::zero(); k] }
    }
}

impl<V: Scalar> RowAcc<V> for DynAcc<V> {
    #[inline(always)]
    fn k(&self) -> usize {
        self.acc.len()
    }

    #[inline(always)]
    fn reset(&mut self) {
        for v in &mut self.acc {
            *v = V::zero();
        }
    }

    #[inline(always)]
    fn fma(&mut self, a: V, x_row: &[V]) {
        for (o, &xv) in self.acc.iter_mut().zip(x_row) {
            *o += a * xv;
        }
    }

    #[inline(always)]
    fn store(&self, y_row: &mut [V]) {
        y_row[..self.acc.len()].copy_from_slice(&self.acc);
    }
}

/// Dispatches a kernel body on the panel width `k`: the widths
/// `{1, 2, 4, 8}` bind `$acc` to a monomorphized [`FixedAcc`] (register
/// blocking), every other width to a [`DynAcc`]. The body is instantiated
/// once per arm, so each fast path compiles to a fixed-trip inner loop.
macro_rules! with_row_acc {
    ($k:expr, $acc:ident => $body:expr) => {
        match $k {
            1 => {
                let mut $acc = $crate::spmm::FixedAcc::<_, 1>::new();
                $body
            }
            2 => {
                let mut $acc = $crate::spmm::FixedAcc::<_, 2>::new();
                $body
            }
            4 => {
                let mut $acc = $crate::spmm::FixedAcc::<_, 4>::new();
                $body
            }
            8 => {
                let mut $acc = $crate::spmm::FixedAcc::<_, 8>::new();
                $body
            }
            k => {
                let mut $acc = $crate::spmm::DynAcc::new(k);
                $body
            }
        }
    };
}
pub(crate) use with_row_acc;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_matrix;
    use crate::Csr;

    #[test]
    fn dense_block_views_index_row_major() {
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let b = DenseBlock::new(4, 3, &data);
        assert_eq!(b.rows(), 4);
        assert_eq!(b.cols(), 3);
        assert_eq!(b.row(2), &[6.0, 7.0, 8.0]);
        assert_eq!(b.column(1), vec![1.0, 4.0, 7.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "rows * cols")]
    fn dense_block_rejects_wrong_length() {
        let data = vec![0.0f64; 5];
        let _ = DenseBlock::new(2, 3, &data);
    }

    #[test]
    fn accumulators_agree() {
        // FixedAcc<4> and DynAcc(4) run the same FMA sequence.
        let a = [0.5f64, -1.25, 2.0];
        let xr = [[1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4], [-1.0, 0.0, 1.0, 2.0]];
        let mut fixed = FixedAcc::<f64, 4>::new();
        let mut dynamic = DynAcc::<f64>::new(4);
        fixed.reset();
        dynamic.reset();
        for (av, row) in a.iter().zip(&xr) {
            fixed.fma(*av, row);
            dynamic.fma(*av, row);
        }
        let mut y_f = [0.0; 4];
        let mut y_d = [0.0; 4];
        fixed.store(&mut y_f);
        dynamic.store(&mut y_d);
        assert_eq!(y_f, y_d);
        assert_eq!(RowAcc::<f64>::k(&fixed), 4);
        assert_eq!(RowAcc::<f64>::k(&dynamic), 4);
    }

    #[test]
    fn try_spmm_rejects_each_mismatch_arm() {
        let csr: Csr = paper_matrix().to_csr();
        let m: &dyn SpMm<f64> = &csr;

        // x.cols != y.cols
        let x = vec![1.0; 6 * 2];
        let mut y = vec![0.0; 6 * 3];
        let err =
            m.try_spmm(DenseBlock::new(6, 2, &x), DenseBlockMut::new(6, 3, &mut y)).unwrap_err();
        assert!(matches!(err, SparseError::DimensionMismatch(_)), "{err}");

        // k = 0
        let x0: Vec<f64> = Vec::new();
        let mut y0: Vec<f64> = Vec::new();
        let err =
            m.try_spmm(DenseBlock::new(6, 0, &x0), DenseBlockMut::new(6, 0, &mut y0)).unwrap_err();
        assert!(matches!(err, SparseError::InvalidArgument(_)), "{err}");

        // x.rows != ncols
        let x = vec![1.0; 5 * 2];
        let mut y = vec![0.0; 6 * 2];
        let err =
            m.try_spmm(DenseBlock::new(5, 2, &x), DenseBlockMut::new(6, 2, &mut y)).unwrap_err();
        assert!(matches!(err, SparseError::DimensionMismatch(_)), "{err}");

        // y.rows != nrows
        let x = vec![1.0; 6 * 2];
        let mut y = vec![0.0; 5 * 2];
        let err =
            m.try_spmm(DenseBlock::new(6, 2, &x), DenseBlockMut::new(5, 2, &mut y)).unwrap_err();
        assert!(matches!(err, SparseError::DimensionMismatch(_)), "{err}");

        // Correct shapes succeed and match the panicking entry point.
        let x = vec![1.0; 6 * 2];
        let mut y = vec![0.0; 6 * 2];
        let mut y_ref = vec![0.0; 6 * 2];
        m.spmm(DenseBlock::new(6, 2, &x), DenseBlockMut::new(6, 2, &mut y_ref));
        m.try_spmm(DenseBlock::new(6, 2, &x), DenseBlockMut::new(6, 2, &mut y)).unwrap();
        assert_eq!(y, y_ref);
    }
}
