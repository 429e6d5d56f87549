//! The CSR-VI SpMV kernel (Fig. 5 of the paper): CSR's kernel with the
//! direct value load replaced by an indirection through `vals_unique`.
//! Specialized per index width so the inner loop stays monomorphic.
//!
//! The SpMM variant ([`spmm_rows`]) additionally specializes per panel
//! width through the [`RowAcc`] accumulator: each `val_ind` entry is
//! resolved through the unique-value table **once** and the value
//! broadcast across `k` FMAs, amortizing the indirection.

use super::{CsrVi, ValInd};
use crate::index::SpIndex;
use crate::scalar::Scalar;
use crate::simd::Isa;
use crate::spmm::{with_row_acc, RowAcc};

/// Palette value source for the AVX2 kernels, when `V` is `f64` and the
/// unique-value table fits the i32 gather lanes.
#[cfg(target_arch = "x86_64")]
fn val_src<'a, V: Scalar>(
    vals_unique: &'a [V],
    val_ind: &'a ValInd,
) -> Option<crate::simd::avx2::ValSrc<'a>> {
    use crate::simd::avx2::ValSrc;
    let pal = crate::simd::as_f64s(vals_unique)?;
    if pal.len() > i32::MAX as usize {
        return None;
    }
    Some(match val_ind {
        ValInd::U8(ind) => ValSrc::Pal8(pal, ind),
        ValInd::U16(ind) => ValSrc::Pal16(pal, ind),
        ValInd::U32(ind) => ValSrc::Pal32(pal, ind),
    })
}

/// Row-range kernel. `y_base` is subtracted from the row number when
/// indexing `y`, so parallel drivers can pass disjoint local slices
/// (`y_base = row_begin`); serial callers pass the full `y` and 0.
/// `isa` is the pre-selected kernel ISA (unavailable choices degrade to
/// the scalar path).
pub(super) fn spmv_rows<I: SpIndex, V: Scalar>(
    m: &CsrVi<I, V>,
    isa: Isa,
    row_begin: usize,
    row_end: usize,
    y_base: usize,
    x: &[V],
    y: &mut [V],
) {
    debug_assert!(row_end <= m.nrows());
    // The AVX2 kernel gathers from `x` unchecked.
    assert_eq!(x.len(), m.ncols(), "x length must equal ncols");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_ok(isa) && m.ncols() <= i32::MAX as usize {
        use crate::simd::{as_f64s, as_f64s_mut, as_u32s, avx2};
        if let (Some(rp), Some(ci), Some(src)) =
            (as_u32s(&m.row_ptr), as_u32s(&m.col_ind), val_src(&m.vals_unique, &m.val_ind))
        {
            let (xs, ys) = (as_f64s(x).expect("V is f64"), as_f64s_mut(y).expect("V is f64"));
            // SAFETY: AVX2 verified by avx2_ok; CSR-VI invariants give
            // columns < ncols == x.len() / k (asserted above) and in-table
            // value indices; ncols and the table length fit the i32
            // gather lanes.
            unsafe { avx2::rows_k1(rp, ci, src, row_begin, row_end, y_base, xs, ys) };
            return;
        }
    }
    let _ = isa;
    match &*m.val_ind {
        ValInd::U8(ind) => {
            kernel(&m.row_ptr, &m.col_ind, &m.vals_unique, ind, row_begin, row_end, y_base, x, y)
        }
        ValInd::U16(ind) => {
            kernel(&m.row_ptr, &m.col_ind, &m.vals_unique, ind, row_begin, row_end, y_base, x, y)
        }
        ValInd::U32(ind) => {
            kernel(&m.row_ptr, &m.col_ind, &m.vals_unique, ind, row_begin, row_end, y_base, x, y)
        }
    }
}

/// Width-generic inner kernel; `W` is the value-index element type.
#[allow(clippy::too_many_arguments)]
#[inline]
fn kernel<I: SpIndex, V: Scalar, W: Copy + Into<u32>>(
    row_ptr: &[I],
    col_ind: &[I],
    vals_unique: &[V],
    val_ind: &[W],
    row_begin: usize,
    row_end: usize,
    y_base: usize,
    x: &[V],
    y: &mut [V],
) {
    for i in row_begin..row_end {
        let lo = row_ptr[i].index();
        let hi = row_ptr[i + 1].index();
        let mut acc = V::zero();
        for j in lo..hi {
            let val = vals_unique[Into::<u32>::into(val_ind[j]) as usize];
            acc += val * x[col_ind[j].index()];
        }
        y[i - y_base] = acc;
    }
}

/// SpMM row-range kernel: `x`/`y` are row-major panels of width `k`
/// (`y[(i - y_base) * k ..][..k]` receives row `i`). Width-dispatched on
/// both the value-index type and the panel width.
#[allow(clippy::too_many_arguments)]
pub(super) fn spmm_rows<I: SpIndex, V: Scalar>(
    m: &CsrVi<I, V>,
    isa: Isa,
    row_begin: usize,
    row_end: usize,
    y_base: usize,
    x: &[V],
    k: usize,
    y: &mut [V],
) {
    debug_assert!(row_end <= m.nrows());
    // The AVX2 kernels gather from `x` unchecked.
    assert_eq!(x.len(), m.ncols() * k, "x must be ncols x k row-major");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_ok(isa) && matches!(k, 1 | 2 | 4 | 8) && m.ncols() <= i32::MAX as usize {
        use crate::simd::{as_f64s, as_f64s_mut, as_u32s, avx2};
        if let (Some(rp), Some(ci), Some(src)) =
            (as_u32s(&m.row_ptr), as_u32s(&m.col_ind), val_src(&m.vals_unique, &m.val_ind))
        {
            let (xs, ys) = (as_f64s(x).expect("V is f64"), as_f64s_mut(y).expect("V is f64"));
            // SAFETY: as on the spmv_rows dispatch above.
            unsafe {
                match k {
                    1 => avx2::rows_k1(rp, ci, src, row_begin, row_end, y_base, xs, ys),
                    2 => avx2::rows_k2(rp, ci, src, row_begin, row_end, y_base, xs, ys),
                    4 => avx2::rows_k4(rp, ci, src, row_begin, row_end, y_base, xs, ys),
                    _ => avx2::rows_k8(rp, ci, src, row_begin, row_end, y_base, xs, ys),
                }
            }
            return;
        }
    }
    let _ = isa;
    match &*m.val_ind {
        ValInd::U8(ind) => with_row_acc!(k, acc => kernel_mm(
            &m.row_ptr, &m.col_ind, &m.vals_unique, ind, row_begin, row_end, y_base, x, k, y,
            &mut acc,
        )),
        ValInd::U16(ind) => with_row_acc!(k, acc => kernel_mm(
            &m.row_ptr, &m.col_ind, &m.vals_unique, ind, row_begin, row_end, y_base, x, k, y,
            &mut acc,
        )),
        ValInd::U32(ind) => with_row_acc!(k, acc => kernel_mm(
            &m.row_ptr, &m.col_ind, &m.vals_unique, ind, row_begin, row_end, y_base, x, k, y,
            &mut acc,
        )),
    }
}

/// Width- and accumulator-generic SpMM inner kernel. The `k = 1`
/// instantiation performs exactly [`kernel`]'s operations in the same
/// order (bit-identical results).
#[allow(clippy::too_many_arguments)]
#[inline]
fn kernel_mm<I: SpIndex, V: Scalar, W: Copy + Into<u32>, A: RowAcc<V>>(
    row_ptr: &[I],
    col_ind: &[I],
    vals_unique: &[V],
    val_ind: &[W],
    row_begin: usize,
    row_end: usize,
    y_base: usize,
    x: &[V],
    k: usize,
    y: &mut [V],
    acc: &mut A,
) {
    for i in row_begin..row_end {
        let lo = row_ptr[i].index();
        let hi = row_ptr[i + 1].index();
        acc.reset();
        for j in lo..hi {
            let val = vals_unique[Into::<u32>::into(val_ind[j]) as usize];
            let c = col_ind[j].index();
            acc.fma(val, &x[c * k..c * k + k]);
        }
        let base = (i - y_base) * k;
        acc.store(&mut y[base..base + k]);
    }
}
