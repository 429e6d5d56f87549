//! AVX2 (x86-64) kernels for the four hot loops: CSR row accumulate,
//! CSR-DU delta-unit decode, CSR-VI palette gather, and the fixed-`k`
//! SpMM panel accumulators. Concrete `f64`/`u32` only — the generic
//! formats fall back to the scalar kernels for every other type pair.
//!
//! # Bit-identity contract
//!
//! Each kernel performs exactly the scalar kernel's floating-point
//! operations in the same order:
//!
//! * multiplies and adds stay separate (`vmulpd` + `vaddpd`, never
//!   `vfmadd`) because the scalar kernels round the product and the sum
//!   independently;
//! * `k ∈ {2, 4, 8}` panels vectorize *across* the `k` independent
//!   per-lane accumulator chains (lane `v` sees the same `+= a * x[v]`
//!   sequence as `FixedAcc`);
//! * CSR / CSR-VI at `k = 1` compute four products per step (SIMD
//!   loads/gathers + `vmulpd`) but fold them into the single row
//!   accumulator lane by lane in stream order, matching the scalar
//!   reduction chain;
//! * CSR-DU / CSR-DU-VI at `k = 1` run the scalar chain itself, one
//!   element at a time.
//!
//! Integer work (palette-index widening) is exact, so vectorizing it
//! cannot perturb results.
//!
//! # One dispatch per call
//!
//! Each `#[target_feature]` entry point (`rows_k{1,2,4,8}`,
//! `du_ctl_k{1,2,4,8}`) matches its [`ValSrc`] tag once and then runs an
//! `#[inline(always)]` body that is generic over [`Vals`] — direct
//! values, or a palette with 8-, 16- or 32-bit indices — so the
//! per-element loops are monomorphic and carry no value-source branch.
//!
//! The CSR-DU body (one for every `k`) walks the ctl stream with
//! unchecked loads, matches the unit type bits directly, decodes the
//! `ujmp`/`urjmp` varints of up to three bytes (values below 2^21)
//! without entering the LEB128 loop, and writes every owned `y` row
//! exactly once: a row the stream covers receives its accumulator when
//! the next row starts, and only the rows the stream skips (leading
//! rows, `RJMP` gaps and trailing rows) are zeroed. The scalar kernel
//! zeroes the whole range first and then overwrites the covered rows, so
//! both leave the same bits.
//!
//! # Safety contract
//!
//! Every entry point is `unsafe fn` + `#[target_feature]`: callers must
//! have verified AVX2 support ([`crate::simd::avx2_ok`]). The CSR and
//! palette gathers index with `i32` lanes, so callers also guarantee
//! `ncols <= i32::MAX` and (for palettes) a table of at most `i32::MAX`
//! entries. Beyond that the unchecked loads rely on:
//!
//! * **CSR / CSR-VI** — the format invariants the constructors and
//!   `from_parts_checked` establish: `row_ptr` non-decreasing up to
//!   `col_ind.len()`, every column `< ncols`, every palette index inside
//!   the table. The entry points assert `row_end < row_ptr.len()`; the
//!   callers assert `x.len() == ncols * k`.
//! * **CSR-DU / CSR-DU-VI** — a ctl stream built by the encoder or
//!   accepted by `validate_ctl`: every unit header, varint and delta
//!   body is complete, every row is `< nrows`, every column `< ncols`,
//!   and the unit lengths add up to the stored values. The decoded range
//!   is either the whole stream or a split from `CsrDu::splits` of the
//!   same matrix, so it starts on a row-starting unit and ends on a unit
//!   boundary. The split kernel methods (`spmm_split_local_isa`) assert
//!   that the split fits the matrix and that `x.len() == ncols * k`.
//!
//! All `y` writes are bounds-checked slice stores (once per row), so no
//! stream content can write out of bounds. Debug builds check the rest
//! of the contract at every read: each ctl header and body read stays
//! below the range end, each value index below the value count, and each
//! decoded column below `x.len() / k`.

#![allow(clippy::too_many_arguments)]

use std::arch::x86_64::*;
use std::mem::size_of;
use std::ops::Range;

use crate::csr_du::{UnitType, FLAG_NEW_ROW, FLAG_ROW_JMP, TYPE_MASK};
use crate::varint::read_varint;

/// Where a kernel reads its per-element values from: directly (CSR,
/// CSR-DU) or through a unique-value table (CSR-VI, CSR-DU-VI), one
/// variant per palette index width. Each entry point matches it once
/// and hands its body the matching [`Vals`] implementation.
#[derive(Clone, Copy)]
pub(crate) enum ValSrc<'a> {
    Direct(&'a [f64]),
    Pal8(&'a [f64], &'a [u8]),
    Pal16(&'a [f64], &'a [u16]),
    Pal32(&'a [f64], &'a [u32]),
}

/// Per-element value loads of one value source. `get`/`get4` perform
/// exactly the loads of the scalar closures `|j| values[j]` and
/// `|j| vals[ind[j] as usize]`.
trait Vals: Copy {
    /// Number of stored elements (the bound the debug checks use).
    fn len(self) -> usize;

    /// Value of element `j`.
    ///
    /// # Safety
    /// `j < self.len()`; palette indices must be in-table.
    unsafe fn get(self, j: usize) -> f64;

    /// Values of elements `j..j+4` as a vector (contiguous load for
    /// direct values, widen + gather for palettes).
    ///
    /// # Safety
    /// As [`Vals::get`] for all of `j..j+4`; AVX2 must be enabled in the
    /// caller. Palette tables must have `<= i32::MAX` entries.
    unsafe fn get4(self, j: usize) -> __m256d;
}

/// Direct values (CSR, CSR-DU).
#[derive(Clone, Copy)]
struct Direct<'a>(&'a [f64]);

impl Vals for Direct<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    unsafe fn get(self, j: usize) -> f64 {
        debug_assert!(j < self.0.len(), "value index {j} out of range");
        // SAFETY: `j < len` by this fn's contract.
        *self.0.get_unchecked(j)
    }

    #[inline(always)]
    unsafe fn get4(self, j: usize) -> __m256d {
        debug_assert!(j + 4 <= self.0.len(), "value index {j}+4 out of range");
        // SAFETY: `j + 4 <= len` by this fn's contract; unaligned load.
        _mm256_loadu_pd(self.0.as_ptr().add(j))
    }
}

/// Palette values (CSR-VI, CSR-DU-VI): element `j` is `table[ind[j]]`.
#[derive(Clone, Copy)]
struct Pal<'a, I> {
    table: &'a [f64],
    ind: &'a [I],
}

impl<I: PalIndex> Vals for Pal<'_, I> {
    #[inline(always)]
    fn len(self) -> usize {
        self.ind.len()
    }

    #[inline(always)]
    unsafe fn get(self, j: usize) -> f64 {
        debug_assert!(j < self.ind.len(), "value index {j} out of range");
        // SAFETY: `j < ind.len()` by this fn's contract.
        let t = I::read(self.ind.as_ptr().add(j).cast());
        debug_assert!(t < self.table.len(), "palette index {t} out of table");
        // SAFETY: palette indices are in-table (CSR-VI dedup invariant).
        *self.table.get_unchecked(t)
    }

    #[inline(always)]
    unsafe fn get4(self, j: usize) -> __m256d {
        debug_assert!(j + 4 <= self.ind.len(), "value index {j}+4 out of range");
        // SAFETY: `j + 4 <= ind.len()`; the four widened indices are
        // in-table and the table fits the i32 gather lanes.
        let idx = I::load4(self.ind.as_ptr().add(j).cast());
        _mm256_i32gather_pd::<8>(self.table.as_ptr(), idx)
    }
}

/// An unsigned little-endian integer as stored in a CSR-DU unit body or
/// a palette index array, read one at a time.
trait Delta: Copy {
    /// Reads one value at `p` (no alignment required).
    ///
    /// # Safety
    /// `p` must point at `size_of::<Self>()` readable bytes.
    unsafe fn read(p: *const u8) -> usize;
}

/// A palette index type (8, 16 or 32 bits), which also widens four
/// consecutive indices into `i32` gather lanes at once.
trait PalIndex: Delta {
    /// Widens the four indices at `p` into `i32` lanes (exact).
    ///
    /// # Safety
    /// `p` must point at `4 * size_of::<Self>()` readable bytes; AVX2
    /// must be enabled in the caller.
    unsafe fn load4(p: *const u8) -> __m128i;
}

macro_rules! impl_delta {
    ($($t:ty),*) => {$(
        impl Delta for $t {
            #[inline(always)]
            unsafe fn read(p: *const u8) -> usize {
                // x86-64 is little-endian, matching the stored byte order.
                p.cast::<$t>().read_unaligned() as usize
            }
        }
    )*};
}

impl_delta!(u8, u16, u32, u64);

impl PalIndex for u8 {
    #[inline(always)]
    unsafe fn load4(p: *const u8) -> __m128i {
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(p.cast::<i32>().read_unaligned()))
    }
}

impl PalIndex for u16 {
    #[inline(always)]
    unsafe fn load4(p: *const u8) -> __m128i {
        _mm_cvtepu16_epi32(_mm_loadl_epi64(p.cast()))
    }
}

impl PalIndex for u32 {
    #[inline(always)]
    unsafe fn load4(p: *const u8) -> __m128i {
        _mm_loadu_si128(p.cast())
    }
}

/// Matches a [`ValSrc`] once and evaluates `$body` with `$v` bound to
/// the matching [`Vals`] implementation, so `$body` is compiled once per
/// value source with monomorphic element loads.
macro_rules! with_vals {
    ($src:expr, $v:ident => $body:expr) => {
        match $src {
            ValSrc::Direct(values) => {
                let $v = Direct(values);
                $body
            }
            ValSrc::Pal8(table, ind) => {
                let $v = Pal { table, ind };
                $body
            }
            ValSrc::Pal16(table, ind) => {
                let $v = Pal { table, ind };
                $body
            }
            ValSrc::Pal32(table, ind) => {
                let $v = Pal { table, ind };
                $body
            }
        }
    };
}

/// Folds four products into the scalar accumulator in lane order —
/// exactly the scalar kernel's `acc += p0; acc += p1; acc += p2;
/// acc += p3` reduction chain.
///
/// # Safety
/// AVX2 must be enabled in the caller.
#[inline(always)]
unsafe fn fold4(mut acc: f64, p: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(p);
    let hi = _mm256_extractf128_pd::<1>(p);
    acc += _mm_cvtsd_f64(lo);
    acc += _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
    acc += _mm_cvtsd_f64(hi);
    acc += _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
    acc
}

/// CSR / CSR-VI row-range SpMV (`k = 1`). Mirrors the scalar row loops
/// `Csr::spmm_rows_acc` / `csr_vi::kernel_mm` with a one-element
/// `FixedAcc`: per row, accumulate `values[j] * x[col_ind[j]]` in
/// stream order, store once. Four columns are gathered and multiplied
/// per step; the adds stay sequential (see [`fold4`]).
///
/// # Safety
/// AVX2 required; `row_ptr`/`col_ind` must describe a valid CSR
/// structure (non-decreasing row pointers up to `col_ind.len()`) with
/// in-bounds columns (`< x.len() <= i32::MAX + 1`), and `src` must cover
/// every element index. Row bounds and `y` are checked here.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn rows_k1(
    row_ptr: &[u32],
    col_ind: &[u32],
    src: ValSrc<'_>,
    row_begin: usize,
    row_end: usize,
    y_base: usize,
    x: &[f64],
    y: &mut [f64],
) {
    // SAFETY: this fn's contract is the body's; `src` is matched once.
    with_vals!(src, v => rows_k1_body(row_ptr, col_ind, v, row_begin, row_end, y_base, x, y))
}

/// Body of [`rows_k1`], monomorphized per value source.
///
/// # Safety
/// As [`rows_k1`].
#[inline(always)]
unsafe fn rows_k1_body<S: Vals>(
    row_ptr: &[u32],
    col_ind: &[u32],
    vals: S,
    row_begin: usize,
    row_end: usize,
    y_base: usize,
    x: &[f64],
    y: &mut [f64],
) {
    assert!(row_begin >= row_end || row_end < row_ptr.len(), "row range past row_ptr");
    let xp = x.as_ptr();
    for i in row_begin..row_end {
        // SAFETY: `i + 1 <= row_end < row_ptr.len()` (asserted above).
        let lo = *row_ptr.get_unchecked(i) as usize;
        let hi = *row_ptr.get_unchecked(i + 1) as usize;
        debug_assert!(lo <= hi && hi <= col_ind.len() && hi <= vals.len());
        let mut acc = 0.0f64;
        let mut j = lo;
        // SAFETY (both loops): `lo..hi` lies inside `col_ind` and the
        // values by the CSR invariant; every column is `< ncols ==
        // x.len()` by the CSR invariant and the caller's `x` assert.
        while j + 4 <= hi {
            let cols = _mm_loadu_si128(col_ind.as_ptr().add(j).cast());
            let xv = _mm256_i32gather_pd::<8>(xp, cols);
            acc = fold4(acc, _mm256_mul_pd(vals.get4(j), xv));
            j += 4;
        }
        while j < hi {
            let c = *col_ind.get_unchecked(j) as usize;
            debug_assert!(c < x.len(), "column {c} >= x.len() {}", x.len());
            acc += vals.get(j) * *xp.add(c);
            j += 1;
        }
        y[i - y_base] = acc;
    }
}

/// A `k`-wide row accumulator held in registers. Lane `v` runs the
/// independent chain `acc[v] += a * x[v]` — the register analogue of
/// `FixedAcc<f64, K>`, lane-for-lane identical.
pub(crate) trait PanelAcc: Copy {
    const K: usize;
    /// # Safety
    /// AVX2 must be enabled in the caller (applies to all methods).
    unsafe fn zero() -> Self;
    /// # Safety
    /// `xp` must point at `K` readable doubles; AVX2 enabled.
    unsafe fn step(self, a: f64, xp: *const f64) -> Self;
    /// # Safety
    /// `yp` must point at `K` writable doubles; AVX2 enabled.
    unsafe fn store(self, yp: *mut f64);

    /// Stores the panel into row `row` of the row-major panel `y`,
    /// bounds-checked.
    ///
    /// # Safety
    /// AVX2 enabled.
    #[inline(always)]
    unsafe fn store_row(self, y: &mut [f64], row: usize) {
        let dst = &mut y[row * Self::K..][..Self::K];
        // SAFETY: `dst` is exactly `K` writable doubles.
        self.store(dst.as_mut_ptr());
    }
}

/// The `k = 1` accumulator: one scalar chain, `acc += a * x[0]`.
#[derive(Clone, Copy)]
pub(crate) struct Acc1(f64);

impl PanelAcc for Acc1 {
    const K: usize = 1;
    #[inline(always)]
    unsafe fn zero() -> Self {
        Acc1(0.0)
    }
    #[inline(always)]
    unsafe fn step(self, a: f64, xp: *const f64) -> Self {
        Acc1(self.0 + a * *xp)
    }
    #[inline(always)]
    unsafe fn store(self, yp: *mut f64) {
        *yp = self.0;
    }
}

#[derive(Clone, Copy)]
pub(crate) struct Acc2(__m128d);

impl PanelAcc for Acc2 {
    const K: usize = 2;
    #[inline(always)]
    unsafe fn zero() -> Self {
        Acc2(_mm_setzero_pd())
    }
    #[inline(always)]
    unsafe fn step(self, a: f64, xp: *const f64) -> Self {
        Acc2(_mm_add_pd(self.0, _mm_mul_pd(_mm_set1_pd(a), _mm_loadu_pd(xp))))
    }
    #[inline(always)]
    unsafe fn store(self, yp: *mut f64) {
        _mm_storeu_pd(yp, self.0);
    }
}

#[derive(Clone, Copy)]
pub(crate) struct Acc4(__m256d);

impl PanelAcc for Acc4 {
    const K: usize = 4;
    #[inline(always)]
    unsafe fn zero() -> Self {
        Acc4(_mm256_setzero_pd())
    }
    #[inline(always)]
    unsafe fn step(self, a: f64, xp: *const f64) -> Self {
        Acc4(_mm256_add_pd(self.0, _mm256_mul_pd(_mm256_set1_pd(a), _mm256_loadu_pd(xp))))
    }
    #[inline(always)]
    unsafe fn store(self, yp: *mut f64) {
        _mm256_storeu_pd(yp, self.0);
    }
}

#[derive(Clone, Copy)]
pub(crate) struct Acc8(__m256d, __m256d);

impl PanelAcc for Acc8 {
    const K: usize = 8;
    #[inline(always)]
    unsafe fn zero() -> Self {
        Acc8(_mm256_setzero_pd(), _mm256_setzero_pd())
    }
    #[inline(always)]
    unsafe fn step(self, a: f64, xp: *const f64) -> Self {
        let av = _mm256_set1_pd(a);
        Acc8(
            _mm256_add_pd(self.0, _mm256_mul_pd(av, _mm256_loadu_pd(xp))),
            _mm256_add_pd(self.1, _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(4)))),
        )
    }
    #[inline(always)]
    unsafe fn store(self, yp: *mut f64) {
        _mm256_storeu_pd(yp, self.0);
        _mm256_storeu_pd(yp.add(4), self.1);
    }
}

/// CSR / CSR-VI row-range SpMM body for `k = A::K`. Mirrors
/// `Csr::spmm_rows_acc` / `csr_vi::kernel_mm` with the accumulator held
/// in vector registers. `#[inline(always)]` so each `#[target_feature]`
/// wrapper below compiles it with AVX2 codegen.
///
/// # Safety
/// As [`rows_k1`], with `x`/`y` row-major panels of width `A::K`.
#[inline(always)]
unsafe fn rows_panel_body<A: PanelAcc, S: Vals>(
    row_ptr: &[u32],
    col_ind: &[u32],
    vals: S,
    row_begin: usize,
    row_end: usize,
    y_base: usize,
    x: &[f64],
    y: &mut [f64],
) {
    assert!(row_begin >= row_end || row_end < row_ptr.len(), "row range past row_ptr");
    let xp = x.as_ptr();
    for i in row_begin..row_end {
        // SAFETY: `i + 1 <= row_end < row_ptr.len()` (asserted above).
        let lo = *row_ptr.get_unchecked(i) as usize;
        let hi = *row_ptr.get_unchecked(i + 1) as usize;
        debug_assert!(lo <= hi && hi <= col_ind.len() && hi <= vals.len());
        let mut acc = A::zero();
        for j in lo..hi {
            // SAFETY: `j` indexes a stored element and its column is
            // `< ncols`, so `x[c * K..][..K]` is in bounds (CSR invariant
            // plus the caller's `x.len() == ncols * K`).
            let c = *col_ind.get_unchecked(j) as usize;
            debug_assert!(c < x.len() / A::K, "column {c} >= x.len() / k");
            acc = acc.step(vals.get(j), xp.add(c * A::K));
        }
        acc.store_row(y, i - y_base);
    }
}

macro_rules! rows_panel_wrapper {
    ($name:ident, $acc:ty) => {
        /// # Safety
        /// See [`rows_panel_body`].
        #[target_feature(enable = "avx2")]
        pub(crate) unsafe fn $name(
            row_ptr: &[u32],
            col_ind: &[u32],
            src: ValSrc<'_>,
            row_begin: usize,
            row_end: usize,
            y_base: usize,
            x: &[f64],
            y: &mut [f64],
        ) {
            // SAFETY: this fn's contract is the body's; `src` is matched
            // once.
            with_vals!(src, v => rows_panel_body::<$acc, _>(
                row_ptr, col_ind, v, row_begin, row_end, y_base, x, y,
            ))
        }
    };
}

rows_panel_wrapper!(rows_k2, Acc2);
rows_panel_wrapper!(rows_k4, Acc4);
rows_panel_wrapper!(rows_k8, Acc8);

// Unit type codes (`uflags & TYPE_MASK`), matched directly by the walks.
const U8: u8 = UnitType::U8 as u8;
const U16: u8 = UnitType::U16 as u8;
const U32: u8 = UnitType::U32 as u8;
const U64: u8 = UnitType::U64 as u8;
const SEQ: u8 = UnitType::Seq as u8;

/// Decode position of a ctl walk: byte offset, current column and index
/// of the next value. `end` (the ctl range end) and `ncols` (`x.len() /
/// k`) bound the debug checks.
struct Walk {
    pos: usize,
    col: usize,
    val: usize,
    end: usize,
    ncols: usize,
}

impl Walk {
    /// Reads a unit header `(uflags, len)`.
    ///
    /// # Safety
    /// `pos < end`, where `ctl[..end]` is a whole number of units.
    #[inline(always)]
    unsafe fn header(&mut self, ctl: &[u8]) -> (u8, usize) {
        debug_assert!(self.pos + 2 <= self.end, "unit header crosses the ctl range end");
        // SAFETY: a unit starts at `pos < end <= ctl.len()` and its
        // header is never truncated (encoder / `validate_ctl`).
        let h = (*ctl.get_unchecked(self.pos), *ctl.get_unchecked(self.pos + 1) as usize);
        self.pos += 2;
        h
    }

    /// Reads a `ujmp`/`urjmp` varint: unchecked loads for encodings of up
    /// to three bytes (values below 2^21, which covers the absolute first
    /// column of a row in any matrix with fewer than two million
    /// columns), the checked LEB128 reader for longer ones.
    ///
    /// # Safety
    /// A varint of the current unit starts at `pos`.
    #[inline(always)]
    unsafe fn varint(&mut self, ctl: &[u8]) -> usize {
        debug_assert!(self.pos < self.end, "varint starts past the ctl range end");
        // SAFETY: the unit's varints are complete and end before `end`, so
        // every byte with the continuation bit set is followed by another.
        let b0 = *ctl.get_unchecked(self.pos) as usize;
        if b0 < 0x80 {
            self.pos += 1;
            return b0;
        }
        debug_assert!(self.pos + 1 < self.end, "varint crosses the ctl range end");
        let b1 = *ctl.get_unchecked(self.pos + 1) as usize;
        if b1 < 0x80 {
            self.pos += 2;
            return (b0 & 0x7f) | b1 << 7;
        }
        debug_assert!(self.pos + 2 < self.end, "varint crosses the ctl range end");
        let b2 = *ctl.get_unchecked(self.pos + 2) as usize;
        if b2 < 0x80 {
            self.pos += 3;
            return (b0 & 0x7f) | (b1 & 0x7f) << 7 | b2 << 14;
        }
        let v = read_varint(ctl, &mut self.pos) as usize;
        debug_assert!(self.pos <= self.end, "varint crosses the ctl range end");
        v
    }

    /// Checks (debug builds) that a decoded column lies inside `x`.
    #[inline(always)]
    fn debug_col(&self, col: usize) {
        debug_assert!(col < self.ncols, "column {col} >= x.len() / k = {}", self.ncols);
    }
}

/// Zeroes panel rows `rows` of the row-major panel `y` (width `k`): the
/// owned rows a ctl walk skipped. Skips the call for the common empty
/// range.
#[inline(always)]
fn zero_rows(y: &mut [f64], rows: Range<usize>, k: usize) {
    if rows.start < rows.end {
        y[rows.start * k..rows.end * k].fill(0.0);
    }
}

/// CSR-DU / CSR-DU-VI ctl-stream SpMV/SpMM body for `k = A::K`. Mirrors
/// `csr_du::spmm_ctl_range` exactly — same unit walk, same row
/// bookkeeping, same store points — with the row panel held in
/// registers. The decode is scalar: at `k = 1` the sequential add chain
/// bounds the loop and a gather-based four-wide decode measured slower
/// than one element at a time, and at `k >= 2` the panel work dominates.
/// Only the rows the stream skips are zeroed (see the module docs).
/// `#[inline(always)]` so the `#[target_feature]` wrappers compile it
/// with AVX2 codegen.
///
/// # Safety
/// AVX2 required; `ctl[ctl_range]` must be the whole stream or a split
/// from `CsrDu::splits` of this matrix, whose stream was built by the
/// encoder or accepted by `validate_ctl`; `row_wrap_base`, `val_start`
/// and `row_start..row_end` must be that split's; `vals` must hold the
/// matrix's values (palette indices in-table); and `x` must be a
/// row-major panel of at least `ncols * A::K` doubles. `y` writes are
/// bounds-checked.
#[inline(always)]
unsafe fn du_panel_body<A: PanelAcc, S: Vals>(
    ctl: &[u8],
    vals: S,
    ctl_range: Range<usize>,
    val_start: usize,
    row_wrap_base: usize,
    row_start: usize,
    row_end: usize,
    y_base: usize,
    x: &[f64],
    y: &mut [f64],
) {
    let k = A::K;
    debug_assert!(ctl_range.end <= ctl.len());
    let mut w = Walk {
        pos: ctl_range.start,
        col: 0,
        val: val_start,
        end: ctl_range.end,
        ncols: x.len() / k,
    };
    let xp = x.as_ptr();
    let mut row = row_wrap_base;
    let mut acc = A::zero();
    let mut have_row = false;
    let mut unwritten = row_start;

    // SAFETY (whole walk): every read below stays inside the current
    // unit (encoder / `validate_ctl` invariant; the range starts and
    // ends on unit boundaries because it comes from `splits()`), value
    // indices stay below the value count (unit lengths add up to the
    // stored values), and each decoded column is `< ncols`, so its `x`
    // panel row `col * K..col * K + K` is in bounds.
    while w.pos < w.end {
        let (uflags, len) = w.header(ctl);

        if uflags & FLAG_NEW_ROW != 0 {
            if have_row {
                acc.store_row(y, row - y_base);
            }
            let jmp_rows = if uflags & FLAG_ROW_JMP != 0 { w.varint(ctl) } else { 0 };
            row = row.wrapping_add(1 + jmp_rows);
            zero_rows(y, unwritten - y_base..row - y_base, k);
            unwritten = row + 1;
            w.col = 0;
            acc = A::zero();
            have_row = true;
        }
        w.col += w.varint(ctl);
        w.debug_col(w.col);
        debug_assert!(w.val + len <= vals.len(), "unit values past the value count");

        acc = acc.step(vals.get(w.val), xp.add(w.col * k));
        w.val += 1;
        let rest = len - 1;

        acc = match uflags & TYPE_MASK {
            U8 => deltas_panel::<u8, A, S>(&mut w, ctl, rest, acc, vals, xp),
            U16 => deltas_panel::<u16, A, S>(&mut w, ctl, rest, acc, vals, xp),
            U32 => deltas_panel::<u32, A, S>(&mut w, ctl, rest, acc, vals, xp),
            U64 => deltas_panel::<u64, A, S>(&mut w, ctl, rest, acc, vals, xp),
            SEQ => {
                for _ in 0..rest {
                    w.col += 1;
                    w.debug_col(w.col);
                    acc = acc.step(vals.get(w.val), xp.add(w.col * k));
                    w.val += 1;
                }
                acc
            }
            t => unreachable!("corrupt ctl stream: unknown unit type {t}"),
        };
    }
    if have_row {
        acc.store_row(y, row - y_base);
    }
    zero_rows(y, unwritten - y_base..row_end - y_base, k);
}

/// The `rest` remaining deltas of a unit into a `K`-wide panel.
///
/// # Safety
/// As [`du_panel_body`]; `w` sits on the unit's delta body.
#[inline(always)]
unsafe fn deltas_panel<D: Delta, A: PanelAcc, S: Vals>(
    w: &mut Walk,
    ctl: &[u8],
    rest: usize,
    mut acc: A,
    vals: S,
    xp: *const f64,
) -> A {
    debug_assert!(w.pos + rest * size_of::<D>() <= w.end, "unit body crosses the ctl range end");
    for _ in 0..rest {
        // SAFETY: the delta lies in the unit body; the column is `< ncols`.
        w.col += D::read(ctl.as_ptr().add(w.pos));
        w.debug_col(w.col);
        acc = acc.step(vals.get(w.val), xp.add(w.col * A::K));
        w.pos += size_of::<D>();
        w.val += 1;
    }
    acc
}

macro_rules! du_ctl_panel_wrapper {
    ($name:ident, $acc:ty) => {
        /// # Safety
        /// See [`du_panel_body`].
        #[target_feature(enable = "avx2")]
        pub(crate) unsafe fn $name(
            ctl: &[u8],
            src: ValSrc<'_>,
            ctl_range: Range<usize>,
            val_start: usize,
            row_wrap_base: usize,
            row_start: usize,
            row_end: usize,
            y_base: usize,
            x: &[f64],
            y: &mut [f64],
        ) {
            // SAFETY: this fn's contract is the body's; `src` is matched
            // once.
            with_vals!(src, v => du_panel_body::<$acc, _>(
                ctl, v, ctl_range, val_start, row_wrap_base, row_start, row_end, y_base, x, y,
            ))
        }
    };
}

du_ctl_panel_wrapper!(du_ctl_k1, Acc1);
du_ctl_panel_wrapper!(du_ctl_k2, Acc2);
du_ctl_panel_wrapper!(du_ctl_k4, Acc4);
du_ctl_panel_wrapper!(du_ctl_k8, Acc8);
