//! The SIMD differential test matrix: every AVX2 decode+compute kernel
//! must be *bit-identical* to its scalar counterpart — not merely close.
//! The vectorized paths are written without FMA contraction and with
//! lane-parallel panel accumulators precisely so that each output element
//! sees the same multiply/add sequence as the scalar kernel; this suite
//! is the contract that keeps that true.
//!
//! Coverage: format ∈ {csr, csr-du, csr-vi, csr-duvi} × k ∈ {1, 2, 4, 8}
//! × threads ∈ {1, 2, 4, 7}, over shapes with empty rows, dense rows and
//! degenerate cases, plus a property-based sweep over arbitrary matrices.
//! The delta formats run both with the default encoder and with `SEQ`
//! units enabled (the `-seq` formats), and one shape is wide enough for
//! `u32` column deltas, so every unit type's decode is compared. Outputs
//! start as NaN, so a kernel that leaves a row unwritten fails.
//! On hosts without AVX2 the cross-ISA tests degrade to scalar-vs-scalar
//! (trivially passing) and print a note.

use proptest::collection::vec;
use proptest::prelude::*;
use spmv_core::checked::{CheckOptions, CheckedSpMv};
use spmv_core::csr_du::{CsrDu, DuOptions, UnitType};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Coo, Csr, Isa, SpMv};
use spmv_parallel::{ParCsr, ParCsrDu, ParCsrDuVi, ParCsrVi, ParSpMm, ParSpMv};

const KS: [usize; 4] = [1, 2, 4, 8];
const THREADS: [usize; 4] = [1, 2, 4, 7];
/// Formats under test; `-seq` builds the delta stream with `SEQ` units.
const FORMATS: [&str; 6] = ["csr", "csr-du", "csr-du-seq", "csr-vi", "csr-duvi", "csr-duvi-seq"];

/// Encoder options of a delta format name from [`FORMATS`].
fn du_options(fmt: &str) -> DuOptions {
    if fmt.ends_with("-seq") {
        DuOptions::with_seq()
    } else {
        DuOptions::default()
    }
}

/// Returns AVX2 when the host supports it, otherwise scalar (with a note
/// so a skipped cross-ISA run is visible in the test log).
fn avx2_or_note() -> Isa {
    if Isa::Avx2.available() {
        Isa::Avx2
    } else {
        eprintln!("note: host lacks AVX2, cross-ISA tests degrade to scalar-vs-scalar");
        Isa::Scalar
    }
}

/// Deterministic x panel (row-major, `ncols x k`), values in [-2, 2).
fn x_panel(ncols: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..ncols * k)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) % 4000) as f64 / 1000.0 - 2.0
        })
        .collect()
}

/// Irregular sparse matrix: interleaved empty rows, two dense rows, and a
/// value palette small enough that CSR-VI's dedup paths engage.
fn mixed_matrix(nrows: usize, ncols: usize, seed: u64) -> Coo<f64> {
    let mut t: Vec<(usize, usize, f64)> = Vec::new();
    let mut state = seed.wrapping_mul(0x2545f4914f6cdd1d) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for r in 0..nrows {
        if r % 7 == 2 {
            continue; // empty row
        }
        if r == 5 || r == 17 {
            for c in 0..ncols {
                t.push((r, c, ((next() % 13) as f64) - 6.0));
            }
            continue;
        }
        let len = 1 + (next() as usize) % 8;
        for _ in 0..len {
            t.push((r, (next() as usize) % ncols, ((next() % 17) as f64) - 8.0));
        }
    }
    let mut coo = Coo::from_triplets(nrows, ncols, t).unwrap();
    coo.canonicalize();
    coo
}

/// Non-empty rows isolated between runs of 2 to 150 empty rows, with a
/// leading and a trailing run. Every split cut at any thread count falls
/// between two non-empty rows, so each split starts and ends next to
/// skipped rows: leading rows of the first split, `RJMP` gaps inside
/// every split (some needing two-byte varints) and trailing rows before
/// each cut and at the end. Row lengths 1..=13 hit the four-wide decode
/// and its tails.
fn islands_matrix() -> Coo<f64> {
    let mut t: Vec<(usize, usize, f64)> = Vec::new();
    let mut r = 140;
    for i in 0..28usize {
        for j in 0..1 + (i * 5) % 13 {
            t.push((r, i * 7 + j * 19, (j % 5) as f64 - 1.5));
        }
        r += if i % 3 == 0 { 150 } else { 2 + i % 5 };
    }
    let mut coo = Coo::from_triplets(r + 130, 500, t).unwrap();
    coo.canonicalize();
    coo
}

/// Columns spread past 65 535 so the encoder stores `u32` deltas, in
/// units long enough for the four-wide decode and its tail.
fn wide_u32_matrix() -> Coo<f64> {
    let mut t: Vec<(usize, usize, f64)> = Vec::new();
    for r in 0..12usize {
        let base = r * 97;
        let mut cols: Vec<usize> = (0..1 + r % 5).map(|j| base + j * 70_000).collect();
        cols.extend((1..=r % 4).map(|j| base + 280_000 + j * 3));
        for (j, c) in cols.into_iter().enumerate() {
            t.push((r, c, j as f64 - 2.5));
        }
    }
    let mut coo = Coo::from_triplets(12, 300_000, t).unwrap();
    coo.canonicalize();
    coo
}

/// Shapes: general, wide (multi-byte deltas), long rows (SIMD main loops
/// with tails at every remainder), split cuts between skipped rows,
/// `u32` deltas, and degenerate cases.
fn suite() -> Vec<(&'static str, Coo<f64>)> {
    vec![
        ("mixed", mixed_matrix(60, 45, 3)),
        ("mixed-wide", mixed_matrix(25, 3000, 11)),
        ("long-rows", mixed_matrix(30, 200, 23)),
        ("islands", islands_matrix()),
        ("wide-u32", wide_u32_matrix()),
        ("one-by-one", Coo::from_triplets(1, 1, vec![(0usize, 0usize, 2.5)]).unwrap()),
        ("zero-nnz", Coo::new(6, 4)),
        ("all-empty-rows", Coo::from_triplets(9, 9, vec![(4usize, 4usize, 1.0)]).unwrap()),
    ]
}

fn assert_bits_eq(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length mismatch");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label} elem {i}: {a} != {b}");
    }
}

/// Serial per-format panel under an explicit ISA. CSR and CSR-VI use the
/// row-range entry points; the delta formats go through their (single)
/// split, which covers every row.
fn serial_panel(fmt: &str, csr: &Csr<u32, f64>, isa: Isa, x: &[f64], k: usize) -> Vec<f64> {
    let nrows = csr.nrows();
    let mut y = vec![f64::NAN; nrows * k];
    match fmt {
        "csr" => csr.spmm_rows_local_isa(isa, 0, nrows, x, k, &mut y),
        "csr-vi" => {
            CsrVi::from_csr(csr).spmm_rows_local_isa(isa, 0, nrows, x, k, &mut y);
        }
        "csr-du" | "csr-du-seq" => {
            let du = CsrDu::from_csr(csr, &du_options(fmt));
            for s in &du.splits(1) {
                let rows = (s.row_end() - s.row_start()) * k;
                du.spmm_split_local_isa(isa, s, x, k, &mut y[s.row_start() * k..][..rows]);
            }
        }
        "csr-duvi" | "csr-duvi-seq" => {
            let duvi = CsrDuVi::from_csr(csr, &du_options(fmt));
            for s in &duvi.splits(1) {
                let rows = (s.row_end() - s.row_start()) * k;
                duvi.spmm_split_local_isa(isa, s, x, k, &mut y[s.row_start() * k..][..rows]);
            }
        }
        other => panic!("unknown format {other}"),
    }
    y
}

#[test]
fn serial_kernels_bit_identical_across_isas() {
    let simd = avx2_or_note();
    for (name, coo) in suite() {
        let csr: Csr<u32, f64> = coo.to_csr();
        for k in KS {
            let x = x_panel(csr.ncols(), k, 41 + k as u64);
            for fmt in FORMATS {
                let scalar = serial_panel(fmt, &csr, Isa::Scalar, &x, k);
                let vector = serial_panel(fmt, &csr, simd, &x, k);
                assert_bits_eq(&format!("{name}/{fmt}/k={k}"), &vector, &scalar);
            }
        }
    }
}

#[test]
fn serial_spmv_entry_points_bit_identical_across_isas() {
    // The k = 1 SpMV entry points are separate code paths from the
    // panel kernels; pin them explicitly.
    let simd = avx2_or_note();
    for ((name, coo), seq) in suite().into_iter().flat_map(|c| [(c.clone(), ""), (c, "-seq")]) {
        let csr: Csr<u32, f64> = coo.to_csr();
        let du = CsrDu::from_csr(&csr, &du_options(seq));
        let vi = CsrVi::from_csr(&csr);
        let duvi = CsrDuVi::from_csr(&csr, &du_options(seq));
        let nrows = csr.nrows();
        let x = x_panel(csr.ncols(), 1, 59);
        for isa_pair in [(Isa::Scalar, simd)] {
            let (a, b) = isa_pair;
            let mut ya = vec![f64::NAN; nrows];
            let mut yb = vec![f64::NAN; nrows];
            csr.spmv_rows_local_isa(a, 0, nrows, &x, &mut ya);
            csr.spmv_rows_local_isa(b, 0, nrows, &x, &mut yb);
            assert_bits_eq(&format!("{name}/csr/spmv"), &yb, &ya);

            vi.spmv_rows_local_isa(a, 0, nrows, &x, &mut ya);
            vi.spmv_rows_local_isa(b, 0, nrows, &x, &mut yb);
            assert_bits_eq(&format!("{name}/csr-vi/spmv"), &yb, &ya);

            for s in &du.splits(1) {
                du.spmv_split_local_isa(a, s, &x, &mut ya[s.row_start()..s.row_end()]);
                du.spmv_split_local_isa(b, s, &x, &mut yb[s.row_start()..s.row_end()]);
            }
            assert_bits_eq(&format!("{name}/csr-du{seq}/spmv"), &yb, &ya);

            for s in &duvi.splits(1) {
                duvi.spmv_split_local_isa(a, s, &x, &mut ya[s.row_start()..s.row_end()]);
                duvi.spmv_split_local_isa(b, s, &x, &mut yb[s.row_start()..s.row_end()]);
            }
            assert_bits_eq(&format!("{name}/csr-duvi{seq}/spmv"), &yb, &ya);
        }
    }
}

#[test]
fn parallel_plans_bit_identical_across_isas() {
    // Row-partitioned executors assign each output row to exactly one
    // worker, so a scalar-plan and an AVX2-plan must agree bit-for-bit
    // at every thread count, for both SpMV and every panel width.
    let simd = avx2_or_note();
    for (name, coo) in suite() {
        let csr: Csr<u32, f64> = coo.to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let vi = CsrVi::from_csr(&csr);
        let duvi = CsrDuVi::from_csr(&csr, &DuOptions::default());
        let du_seq = CsrDu::from_csr(&csr, &DuOptions::with_seq());
        let duvi_seq = CsrDuVi::from_csr(&csr, &DuOptions::with_seq());
        for &threads in &THREADS {
            type Pair<'a> = (&'a str, Box<dyn ParSpMm<f64> + 'a>, Box<dyn ParSpMm<f64> + 'a>);
            let mut pairs: Vec<Pair> = vec![
                (
                    "csr",
                    Box::new(ParCsr::with_isa(&csr, threads, Isa::Scalar)),
                    Box::new(ParCsr::with_isa(&csr, threads, simd)),
                ),
                (
                    "csr-du",
                    Box::new(ParCsrDu::with_isa(&du, threads, Isa::Scalar)),
                    Box::new(ParCsrDu::with_isa(&du, threads, simd)),
                ),
                (
                    "csr-vi",
                    Box::new(ParCsrVi::with_isa(&vi, threads, Isa::Scalar)),
                    Box::new(ParCsrVi::with_isa(&vi, threads, simd)),
                ),
                (
                    "csr-duvi",
                    Box::new(ParCsrDuVi::with_isa(&duvi, threads, Isa::Scalar)),
                    Box::new(ParCsrDuVi::with_isa(&duvi, threads, simd)),
                ),
                (
                    "csr-du-seq",
                    Box::new(ParCsrDu::with_isa(&du_seq, threads, Isa::Scalar)),
                    Box::new(ParCsrDu::with_isa(&du_seq, threads, simd)),
                ),
                (
                    "csr-duvi-seq",
                    Box::new(ParCsrDuVi::with_isa(&duvi_seq, threads, Isa::Scalar)),
                    Box::new(ParCsrDuVi::with_isa(&duvi_seq, threads, simd)),
                ),
            ];
            for k in KS {
                let x = x_panel(csr.ncols(), k, 67 + k as u64);
                for (fmt, plan_s, plan_v) in &mut pairs {
                    let mut ys = vec![f64::NAN; csr.nrows() * k];
                    let mut yv = vec![f64::NAN; csr.nrows() * k];
                    plan_s.par_spmm(&x, k, &mut ys);
                    plan_v.par_spmm(&x, k, &mut yv);
                    assert_bits_eq(&format!("{name}/{fmt}/k={k}/t={threads}"), &yv, &ys);
                }
            }
        }
    }
}

#[test]
fn parallel_spmv_bit_identical_across_isas() {
    let simd = avx2_or_note();
    for (name, coo) in std::iter::once(("mixed-80", mixed_matrix(80, 64, 5))).chain(suite()) {
        parallel_spmv_pairs_agree(name, simd, &coo.to_csr());
    }
}

fn parallel_spmv_pairs_agree(name: &str, simd: Isa, csr: &Csr<u32, f64>) {
    let du = CsrDu::from_csr(csr, &DuOptions::default());
    let vi = CsrVi::from_csr(csr);
    let duvi = CsrDuVi::from_csr(csr, &DuOptions::default());
    let du_seq = CsrDu::from_csr(csr, &DuOptions::with_seq());
    let x = x_panel(csr.ncols(), 1, 71);
    for &threads in &THREADS {
        type MvPair<'a> = (&'a str, Box<dyn ParSpMv<f64> + 'a>, Box<dyn ParSpMv<f64> + 'a>);
        let mut pairs: Vec<MvPair> = vec![
            (
                "csr",
                Box::new(ParCsr::with_isa(csr, threads, Isa::Scalar)),
                Box::new(ParCsr::with_isa(csr, threads, simd)),
            ),
            (
                "csr-du",
                Box::new(ParCsrDu::with_isa(&du, threads, Isa::Scalar)),
                Box::new(ParCsrDu::with_isa(&du, threads, simd)),
            ),
            (
                "csr-vi",
                Box::new(ParCsrVi::with_isa(&vi, threads, Isa::Scalar)),
                Box::new(ParCsrVi::with_isa(&vi, threads, simd)),
            ),
            (
                "csr-duvi",
                Box::new(ParCsrDuVi::with_isa(&duvi, threads, Isa::Scalar)),
                Box::new(ParCsrDuVi::with_isa(&duvi, threads, simd)),
            ),
            (
                "csr-du-seq",
                Box::new(ParCsrDu::with_isa(&du_seq, threads, Isa::Scalar)),
                Box::new(ParCsrDu::with_isa(&du_seq, threads, simd)),
            ),
        ];
        for (fmt, plan_s, plan_v) in &mut pairs {
            let mut ys = vec![f64::NAN; csr.nrows()];
            let mut yv = vec![f64::NAN; csr.nrows()];
            plan_s.par_spmv(&x, &mut ys);
            plan_v.par_spmv(&x, &mut yv);
            assert_bits_eq(&format!("{name}/{fmt}/t={threads}"), &yv, &ys);
        }
    }
}

#[test]
fn trait_dispatch_matches_explicit_scalar_bits() {
    // Whatever ISA `spmv_core::simd::selected()` resolves to (including a
    // SPMV_ISA override in the environment), the trait-level spmv must
    // equal the explicit-scalar result bit-for-bit.
    for (name, coo) in suite() {
        let csr: Csr<u32, f64> = coo.to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let vi = CsrVi::from_csr(&csr);
        let duvi = CsrDuVi::from_csr(&csr, &DuOptions::default());
        let du_seq = CsrDu::from_csr(&csr, &DuOptions::with_seq());
        let duvi_seq = CsrDuVi::from_csr(&csr, &DuOptions::with_seq());
        let x = x_panel(csr.ncols(), 1, 83);
        let formats: Vec<(&str, &dyn SpMv<f64>)> = vec![
            ("csr", &csr),
            ("csr-du", &du),
            ("csr-vi", &vi),
            ("csr-duvi", &duvi),
            ("csr-du-seq", &du_seq),
            ("csr-duvi-seq", &duvi_seq),
        ];
        for (fmt, m) in formats {
            let scalar = serial_panel(fmt, &csr, Isa::Scalar, &x, 1);
            let mut y = vec![f64::NAN; csr.nrows()];
            m.spmv(&x, &mut y);
            assert_bits_eq(&format!("{name}/{fmt}"), &y, &scalar);
        }
    }
}

#[test]
fn suite_streams_contain_every_compared_unit_type() {
    // The cross-ISA comparisons above only check a unit type's AVX2
    // decode if the suite's streams contain it, in units long enough for
    // the four-wide loop (first element plus at least four deltas).
    let mut long_units = [0usize; 5];
    for (_, coo) in suite() {
        let csr: Csr<u32, f64> = coo.to_csr();
        for opts in [DuOptions::default(), DuOptions::with_seq()] {
            let du = CsrDu::from_csr(&csr, &opts);
            for unit in du.cursor().filter(|u| u.len >= 5) {
                long_units[unit.utype as usize] += 1;
            }
        }
    }
    for t in [UnitType::U8, UnitType::U16, UnitType::U32, UnitType::Seq] {
        assert!(long_units[t as usize] > 0, "no long {t:?} unit in the suite: {long_units:?}");
    }
}

#[test]
fn long_varints_decode_identically() {
    // Row jumps and first columns past 2^21 take four-byte varints, and
    // the ones past 2^14 three bytes: both the unrolled varint decode and
    // its LEB128 fallback must match the scalar walk.
    let n = (1 << 21) + 8;
    let t = vec![
        (0, 3, 1.5),
        (0, n - 3, -2.0),
        (n - 2, n - 1, 0.75),
        (n - 1, 16_500, 3.0),
        (n - 1, 16_501, -1.25),
    ];
    let csr: Csr<u32, f64> = Coo::from_triplets(n, n, t).unwrap().to_csr();
    let simd = avx2_or_note();
    for k in [1, 2] {
        let x = x_panel(n, k, 97);
        for fmt in ["csr-du", "csr-duvi"] {
            let scalar = serial_panel(fmt, &csr, Isa::Scalar, &x, k);
            let vector = serial_panel(fmt, &csr, simd, &x, k);
            assert_bits_eq(&format!("long-varints/{fmt}/k={k}"), &vector, &scalar);
        }
    }
}

/// Runs `call`, which must panic with the split-fit assertion.
fn assert_split_rejected(label: &str, call: impl FnOnce()) {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
        .expect_err(&format!("{label}: foreign split accepted"));
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(msg.contains("does not fit"), "{label}: unexpected panic {msg:?}");
}

#[test]
fn foreign_splits_panic_before_decoding() {
    // A split carries raw ctl/value/row offsets that the AVX2 decode
    // trusts; every split entry point must refuse one cut from another
    // matrix — larger, or the same shape with a different stream —
    // before reading anything, so `y` stays untouched.
    let small: Csr<u32, f64> = mixed_matrix(20, 45, 3).to_csr();
    let opts = DuOptions::default();
    let du = CsrDu::from_csr(&small, &opts);
    let duvi = CsrDuVi::from_csr(&small, &opts);
    let larger = CsrDu::from_csr(&mixed_matrix(60, 45, 3).to_csr(), &opts);
    let beyond = larger.splits(2).pop().expect("two splits");
    assert!(beyond.ctl_range().end > du.ctl().len(), "split must reach past the small stream");
    let same_shape = CsrDu::from_csr(&mixed_matrix(20, 45, 4).to_csr(), &opts);
    for (source, foreign) in [("larger", beyond), ("same-shape", same_shape.splits(1).remove(0))] {
        let rows = foreign.row_end() - foreign.row_start();
        for isa in [Isa::Scalar, avx2_or_note()] {
            for k in [1, 8] {
                let x = x_panel(small.ncols(), k, 13);
                let mut y_full = vec![f64::NAN; small.nrows() * k];
                let mut y_local = vec![f64::NAN; rows * k];
                let tag = format!("{source}/{isa}/k={k}");
                if k == 1 {
                    assert_split_rejected(&format!("du spmv_split {tag}"), || {
                        du.spmv_split(&foreign, &x, &mut y_full)
                    });
                    assert_split_rejected(&format!("du spmv_split_local_isa {tag}"), || {
                        du.spmv_split_local_isa(isa, &foreign, &x, &mut y_local)
                    });
                    assert_split_rejected(&format!("duvi spmv_split {tag}"), || {
                        duvi.spmv_split(&foreign, &x, &mut y_full)
                    });
                    assert_split_rejected(&format!("duvi spmv_split_local_isa {tag}"), || {
                        duvi.spmv_split_local_isa(isa, &foreign, &x, &mut y_local)
                    });
                }
                assert_split_rejected(&format!("du spmm_split {tag}"), || {
                    du.spmm_split(&foreign, &x, k, &mut y_full)
                });
                assert_split_rejected(&format!("du spmm_split_local_isa {tag}"), || {
                    du.spmm_split_local_isa(isa, &foreign, &x, k, &mut y_local)
                });
                assert_split_rejected(&format!("duvi spmm_split {tag}"), || {
                    duvi.spmm_split(&foreign, &x, k, &mut y_full)
                });
                assert_split_rejected(&format!("duvi spmm_split_local_isa {tag}"), || {
                    duvi.spmm_split_local_isa(isa, &foreign, &x, k, &mut y_local)
                });
                assert!(y_full.iter().chain(&y_local).all(|v| v.is_nan()), "{tag}: y was written");
            }
        }
    }
    // A clone shares its original's stream, so the original's splits
    // stay valid for it.
    let copy = du.clone();
    let x = x_panel(small.ncols(), 1, 13);
    let (mut want, mut got) = (vec![f64::NAN; small.nrows()], vec![f64::NAN; small.nrows()]);
    for s in &du.splits(3) {
        du.spmv_split(s, &x, &mut want);
        copy.spmv_split(s, &x, &mut got);
    }
    assert_bits_eq("clone", &got, &want);
}

#[test]
fn checked_spmv_accepts_avx2_plan_at_zero_ulps() {
    // The bit-identity contract means the strictest comparator setting —
    // zero tolerated ULPs over every row — accepts an AVX2-planned
    // parallel run against the serial scalar baseline.
    let simd = avx2_or_note();
    let coo = mixed_matrix(64, 48, 17);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_panel(csr.ncols(), 1, 29);
    let opts = CheckOptions { sample_rows: 0, max_ulps: 0 };
    let checked = CheckedSpMv::with_options(&csr, &csr, opts).unwrap();
    for &threads in &THREADS {
        let mut par = ParCsr::with_isa(&csr, threads, simd);
        let mut y = vec![0.0; csr.nrows()];
        par.par_spmv(&x, &mut y);
        checked.verify_against(&x, &y).unwrap_or_else(|e| panic!("t={threads} isa={simd}: {e}"));
    }
}

/// Strategy: arbitrary canonical matrices with palette-biased values
/// (CSR-VI dedup) and occasional arbitrary finite doubles.
fn arb_matrix() -> impl Strategy<Value = Coo<f64>> {
    (1usize..40, 1usize..40)
        .prop_flat_map(|(nrows, ncols)| {
            let value = prop_oneof![
                4 => prop_oneof![Just(1.0), Just(-1.0), Just(2.5), Just(0.0), Just(-0.0)],
                1 => (-1e9f64..1e9).prop_filter("finite", |v: &f64| v.is_finite()),
            ];
            let entry = (0..nrows, 0..ncols, value);
            (Just(nrows), Just(ncols), vec(entry, 0..160))
        })
        .prop_map(|(nrows, ncols, entries)| {
            let mut coo = Coo::from_triplets(nrows, ncols, entries).expect("in bounds");
            coo.canonicalize();
            coo
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn simd_bit_identity_property(
        (coo, x, k) in arb_matrix().prop_flat_map(|coo| {
            let ncols = coo.ncols();
            (Just(coo), vec(-100.0f64..100.0, ncols * 8), prop_oneof![
                Just(1usize), Just(2), Just(4), Just(8)
            ])
        })
    ) {
        let simd = if Isa::Avx2.available() { Isa::Avx2 } else { Isa::Scalar };
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = &x[..csr.ncols() * k];
        for fmt in FORMATS {
            let scalar = serial_panel(fmt, &csr, Isa::Scalar, x, k);
            let vector = serial_panel(fmt, &csr, simd, x, k);
            for (i, (a, b)) in vector.iter().zip(&scalar).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{}/k={} elem {}: {} != {}", fmt, k, i, a, b
                );
            }
        }
    }
}
