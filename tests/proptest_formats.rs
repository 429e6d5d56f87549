//! Property-based tests: on arbitrary sparse matrices, every format
//! round-trips losslessly and computes SpMV identically to the COO
//! reference oracle.

use proptest::collection::vec;
use proptest::prelude::*;
use spmv_core::prelude::*;
use spmv_core::Coo;

/// Strategy: an arbitrary canonical sparse matrix up to 40x40 with up to
/// 160 entries, values from a small palette (so CSR-VI's dedup paths and
/// ttu gating both get exercised) mixed with arbitrary finite floats.
fn arb_matrix() -> impl Strategy<Value = Coo<f64>> {
    (1usize..40, 1usize..40)
        .prop_flat_map(|(nrows, ncols)| {
            let entry = (0..nrows, 0..ncols, arb_value());
            (Just(nrows), Just(ncols), vec(entry, 0..160))
        })
        .prop_map(|(nrows, ncols, entries)| {
            let mut coo = Coo::from_triplets(nrows, ncols, entries).expect("in bounds");
            coo.canonicalize();
            coo
        })
}

/// Values: bias toward a palette (dedup-friendly) with occasional
/// arbitrary finite doubles, including negative zero.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => prop_oneof![Just(1.0), Just(-1.0), Just(2.5), Just(0.0), Just(-0.0)],
        1 => (-1e9f64..1e9).prop_filter("finite", |v| v.is_finite()),
    ]
}

/// Strategy for x vectors matched to a column count.
fn arb_x(ncols: usize) -> impl Strategy<Value = Vec<f64>> {
    vec(-100.0f64..100.0, ncols..=ncols)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn csr_du_roundtrip(coo in arb_matrix()) {
        let csr: Csr = coo.to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        prop_assert_eq!(du.to_csr().unwrap(), csr);
    }

    #[test]
    fn csr_du_seq_roundtrip(coo in arb_matrix()) {
        let csr: Csr = coo.to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::with_seq());
        prop_assert_eq!(du.to_csr().unwrap(), csr);
    }

    #[test]
    fn csr_vi_roundtrip(coo in arb_matrix()) {
        let csr: Csr = coo.to_csr();
        let vi = CsrVi::from_csr(&csr);
        prop_assert_eq!(vi.to_csr().unwrap(), csr.clone());
        // uv is never larger than nnz and vals_unique has no duplicates.
        prop_assert!(vi.unique_values() <= csr.nnz().max(1));
        let mut bits: Vec<u64> = vi.vals_unique().iter().map(|v| v.to_bits()).collect();
        bits.sort_unstable();
        let before = bits.len();
        bits.dedup();
        prop_assert_eq!(bits.len(), before, "vals_unique must be duplicate free");
    }

    #[test]
    fn dcsr_roundtrip(coo in arb_matrix()) {
        let csr: Csr = coo.to_csr();
        let d = Dcsr::from_csr(&csr, &Default::default());
        prop_assert_eq!(d.to_csr().unwrap(), csr);
    }

    #[test]
    fn spmv_equivalence_all_compressed(
        (coo, x) in arb_matrix().prop_flat_map(|coo| {
            let ncols = coo.ncols();
            (Just(coo), arb_x(ncols))
        })
    ) {
        let csr: Csr = coo.to_csr();
        let mut y_ref = vec![0.0; csr.nrows()];
        coo.spmv_reference(&x, &mut y_ref);

        let formats: Vec<Box<dyn SpMv<f64>>> = vec![
            Box::new(csr.clone()),
            Box::new(CsrDu::from_csr(&csr, &DuOptions::default())),
            Box::new(CsrVi::from_csr(&csr)),
            Box::new(CsrDuVi::from_csr(&csr, &DuOptions::default())),
            Box::new(Dcsr::from_csr(&csr, &Default::default())),
        ];
        for m in formats {
            let mut y = vec![f64::NAN; csr.nrows()];
            m.spmv(&x, &mut y);
            for (i, (a, b)) in y.iter().zip(&y_ref).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "{:?} row {}: {} vs {}", m.kind(), i, a, b
                );
            }
        }
    }

    #[test]
    fn du_splits_cover_each_nnz_once(coo in arb_matrix(), nparts in 1usize..9) {
        let csr: Csr = coo.to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let splits = du.splits(nparts);
        prop_assert!(!splits.is_empty());
        prop_assert_eq!(splits[0].row_start(), 0);
        prop_assert_eq!(splits.last().unwrap().row_end(), csr.nrows());
        let mut nnz_total = 0usize;
        for w in splits.windows(2) {
            prop_assert_eq!(w[0].row_end(), w[1].row_start());
            prop_assert_eq!(w[0].ctl_range().end, w[1].ctl_range().start);
        }
        for s in &splits {
            nnz_total += s.nnz();
        }
        prop_assert_eq!(nnz_total, csr.nnz());
    }

    #[test]
    fn parallel_executors_match_serial(
        (coo, x) in arb_matrix().prop_flat_map(|coo| {
            let ncols = coo.ncols();
            (Just(coo), arb_x(ncols))
        }),
        nthreads in 1usize..6,
    ) {
        use spmv_parallel::{ParCsr, ParCsrDu, ParCsrVi, ParSpMv};
        let csr: Csr = coo.to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let vi = CsrVi::from_csr(&csr);

        let mut y_serial = vec![0.0; csr.nrows()];
        csr.spmv(&x, &mut y_serial);

        let mut y = vec![1.0; csr.nrows()];
        ParCsr::new(&csr, nthreads).par_spmv(&x, &mut y);
        prop_assert_eq!(&y, &y_serial);

        let mut y = vec![2.0; csr.nrows()];
        ParCsrDu::new(&du, nthreads).par_spmv(&x, &mut y);
        prop_assert_eq!(&y, &y_serial);

        let mut y = vec![3.0; csr.nrows()];
        ParCsrVi::new(&vi, nthreads).par_spmv(&x, &mut y);
        prop_assert_eq!(&y, &y_serial);
    }

    #[test]
    fn size_reports_are_consistent(coo in arb_matrix()) {
        let csr: Csr = coo.to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let vi = CsrVi::from_csr(&csr);
        // Reported compressed bytes must match the structures' real sizes.
        prop_assert_eq!(du.size_report().compressed_bytes, du.size_bytes());
        prop_assert_eq!(vi.size_report().compressed_bytes, vi.size_bytes());
        prop_assert_eq!(du.size_report().csr_bytes, csr.size_bytes());
    }

    #[test]
    fn mtx_roundtrip_property(coo in arb_matrix()) {
        let mut buf = Vec::new();
        spmv_matgen::mtx::write_mtx(&coo, &mut buf).unwrap();
        let back = spmv_matgen::mtx::read_mtx(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.nrows(), coo.nrows());
        prop_assert_eq!(back.ncols(), coo.ncols());
        prop_assert_eq!(back.entries(), coo.entries());
    }
}
