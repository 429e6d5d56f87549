//! The CSR-DU SpMV kernel (Fig. 3 of the paper), generalized to SpMM.
//!
//! Structure mirrors the paper's code snippet: per unit, extract `uflags`
//! and `usize`, perform row bookkeeping on `NR`, add the `ujmp` column
//! jump, then `switch` on the unit type into a tight same-width inner loop.
//! The row accumulator is kept in a register and flushed on row change
//! (the paper's §VI-A store optimization), which also keeps partial sums
//! exactly associative with the CSR kernel: additions happen in the same
//! order, so results are bit-identical to CSR's.
//!
//! The kernel is generic along two axes, both resolved by
//! monomorphization:
//!
//! * a *value accessor* `G`, so that CSR-DU-VI (the combined index+value
//!   compression) reuses the exact same decode loop with an indirect
//!   value load;
//! * a [`RowAcc`] *row accumulator*, so that the multi-vector SpMM path
//!   ([`spmm_ctl_range`]) decodes each unit **once** and broadcasts the
//!   value across a `k`-wide panel. The single-vector entry point
//!   [`spmv_ctl_range`] is the `k = 1` instantiation with a one-element
//!   register accumulator — the same floating-point operations in the
//!   same order as before, so SpMV results are unchanged bit-for-bit.

use super::{CsrDu, UnitType, FLAG_NEW_ROW, FLAG_ROW_JMP};
use crate::scalar::Scalar;
use crate::simd::Isa;
use crate::spmm::{with_row_acc, FixedAcc, RowAcc};
use crate::varint::read_varint;

/// Executes SpMM over `ctl[ctl_range]` with values fetched through `get`,
/// accumulating into the `k`-wide row accumulator `acc`.
///
/// * `val_start` — index of the first value of this range.
/// * `row_wrap_base` — wrapping row baseline (see `decode` module docs).
/// * `row_start..row_end` — the rows owned by this call; their `y` panels
///   are zeroed first and are the only elements written.
/// * `y_base` — subtracted from absolute row numbers when indexing `y`
///   (panel row `r` occupies `y[(r - y_base) * k ..][..k]`), so a
///   parallel driver can pass each thread a disjoint local slice
///   (`y_base = row_start`); serial callers pass the full `y` and 0.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn spmm_ctl_range<V: Scalar, G: Fn(usize) -> V, A: RowAcc<V>>(
    ctl: &[u8],
    get: G,
    ctl_range: std::ops::Range<usize>,
    val_start: usize,
    row_wrap_base: usize,
    row_start: usize,
    row_end: usize,
    y_base: usize,
    x: &[V],
    k: usize,
    y: &mut [V],
    acc: &mut A,
) {
    debug_assert_eq!(acc.k(), k);
    for v in &mut y[(row_start - y_base) * k..(row_end - y_base) * k] {
        *v = V::zero();
    }

    let end = ctl_range.end;
    let mut pos = ctl_range.start;
    let mut val = val_start;

    let mut row = row_wrap_base;
    let mut col = 0usize;
    // Row accumulator (registers for the specialized widths); flushed on
    // row change.
    acc.reset();
    let mut have_row = false;

    while pos < end {
        let uflags = ctl[pos];
        let usize_b = ctl[pos + 1] as usize;
        pos += 2;

        if uflags & FLAG_NEW_ROW != 0 {
            if have_row {
                let base = (row - y_base) * k;
                acc.store(&mut y[base..base + k]);
            }
            let jmp_rows =
                if uflags & FLAG_ROW_JMP != 0 { read_varint(ctl, &mut pos) as usize } else { 0 };
            row = row.wrapping_add(1 + jmp_rows);
            col = 0;
            acc.reset();
            have_row = true;
        }
        col += read_varint(ctl, &mut pos) as usize;

        // First element of the unit.
        acc.fma(get(val), &x[col * k..col * k + k]);
        val += 1;
        let mut remaining = usize_b - 1;

        match UnitType::from_flags(uflags) {
            UnitType::U8 => {
                while remaining > 0 {
                    col += ctl[pos] as usize;
                    pos += 1;
                    acc.fma(get(val), &x[col * k..col * k + k]);
                    val += 1;
                    remaining -= 1;
                }
            }
            UnitType::U16 => {
                while remaining > 0 {
                    col += u16::from_le_bytes([ctl[pos], ctl[pos + 1]]) as usize;
                    pos += 2;
                    acc.fma(get(val), &x[col * k..col * k + k]);
                    val += 1;
                    remaining -= 1;
                }
            }
            UnitType::U32 => {
                while remaining > 0 {
                    col +=
                        u32::from_le_bytes(ctl[pos..pos + 4].try_into().expect("4 bytes")) as usize;
                    pos += 4;
                    acc.fma(get(val), &x[col * k..col * k + k]);
                    val += 1;
                    remaining -= 1;
                }
            }
            UnitType::U64 => {
                while remaining > 0 {
                    col +=
                        u64::from_le_bytes(ctl[pos..pos + 8].try_into().expect("8 bytes")) as usize;
                    pos += 8;
                    acc.fma(get(val), &x[col * k..col * k + k]);
                    val += 1;
                    remaining -= 1;
                }
            }
            UnitType::Seq => {
                while remaining > 0 {
                    col += 1;
                    acc.fma(get(val), &x[col * k..col * k + k]);
                    val += 1;
                    remaining -= 1;
                }
            }
        }
    }
    if have_row {
        let base = (row - y_base) * k;
        acc.store(&mut y[base..base + k]);
    }
}

/// Executes SpMV over `ctl[ctl_range]` with values fetched through `get` —
/// the `k = 1` instantiation of [`spmm_ctl_range`] with a one-element
/// register accumulator (bit-identical to the dedicated SpMV kernel it
/// replaces). Parameters as on [`spmm_ctl_range`].
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn spmv_ctl_range<V: Scalar, G: Fn(usize) -> V>(
    ctl: &[u8],
    get: G,
    ctl_range: std::ops::Range<usize>,
    val_start: usize,
    row_wrap_base: usize,
    row_start: usize,
    row_end: usize,
    y_base: usize,
    x: &[V],
    y: &mut [V],
) {
    let mut acc = FixedAcc::<V, 1>::new();
    spmm_ctl_range(
        ctl,
        get,
        ctl_range,
        val_start,
        row_wrap_base,
        row_start,
        row_end,
        y_base,
        x,
        1,
        y,
        &mut acc,
    );
}

/// CSR-DU entry point: direct value loads from the `values` array.
/// `isa` is the pre-selected kernel ISA (unavailable choices degrade to
/// the scalar decode loop).
#[allow(clippy::too_many_arguments)]
pub(super) fn spmv_range<V: Scalar>(
    du: &CsrDu<V>,
    isa: Isa,
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
    if crate::simd::avx2_ok(isa) && du.ncols() <= i32::MAX as usize {
        use crate::simd::{as_f64s, as_f64s_mut, avx2};
        if let Some(vs) = as_f64s(du.values()) {
            let (xs, ys) = (as_f64s(x).expect("V is f64"), as_f64s_mut(y).expect("V is f64"));
            // SAFETY: AVX2 verified by avx2_ok; ncols fits the i32 gather
            // lanes. The stream was built by the encoder or accepted by
            // validate_ctl, and every caller passes either the whole
            // stream or a split of this matrix that `assert_split_fits`
            // checked together with `x.len() == ncols * k`.
            unsafe {
                avx2::du_ctl_k1(
                    du.ctl(),
                    avx2::ValSrc::Direct(vs),
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
    let values = du.values();
    spmv_ctl_range(
        du.ctl(),
        #[inline(always)]
        |j| values[j],
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

/// CSR-DU SpMM entry point: direct value loads, panel width `k`
/// dispatched to the specialized accumulators (AVX2 panel kernels for
/// `k ∈ {1, 2, 4, 8}` with `f64` values when the ISA allows).
#[allow(clippy::too_many_arguments)]
pub(super) fn spmm_range<V: Scalar>(
    du: &CsrDu<V>,
    isa: Isa,
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
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_ok(isa) && matches!(k, 1 | 2 | 4 | 8) && du.ncols() <= i32::MAX as usize {
        use crate::simd::{as_f64s, as_f64s_mut, avx2};
        if let Some(vs) = as_f64s(du.values()) {
            let (xs, ys) = (as_f64s(x).expect("V is f64"), as_f64s_mut(y).expect("V is f64"));
            let src = avx2::ValSrc::Direct(vs);
            // SAFETY: as on spmv_range's dispatch above.
            unsafe {
                match k {
                    1 => avx2::du_ctl_k1(
                        du.ctl(),
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
                        du.ctl(),
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
                        du.ctl(),
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
                        du.ctl(),
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
    let values = du.values();
    with_row_acc!(k, acc => {
        spmm_ctl_range(
            du.ctl(),
            #[inline(always)]
            |j| values[j],
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
        )
    });
}
