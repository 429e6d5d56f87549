//! Cross-checks: every parallel executor must produce results identical
//! (bit-exact for the row-partitioned ones) to the serial kernel, on
//! matrices with awkward shapes — including across many repeated calls on
//! one plan, which exercises the persistent worker pool and the
//! pre-allocated scratch.

use super::*;
use spmv_core::csr_du::DuOptions;
use spmv_core::Coo;
use spmv_core::SpMv;

/// An irregular test matrix: empty rows, skewed row lengths, a long row.
fn irregular(nrows: usize, ncols: usize, seed: u64) -> Coo<f64> {
    let mut t: Vec<(usize, usize, f64)> = Vec::new();
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for r in 0..nrows {
        if r % 13 == 5 {
            continue; // empty row
        }
        let len = 1 + (next() as usize) % 12;
        for _ in 0..len {
            t.push((r, (next() as usize) % ncols, ((next() % 17) as f64) - 8.0));
        }
    }
    // One long row.
    if nrows > 2 {
        for j in 0..(ncols / 2) {
            t.push((2, j * 2 % ncols, 1.5));
        }
    }
    let mut coo = Coo::from_triplets(nrows, ncols, t).unwrap();
    coo.canonicalize();
    coo
}

fn x_for(ncols: usize) -> Vec<f64> {
    (0..ncols).map(|i| ((i % 23) as f64) * 0.37 - 3.0).collect()
}

#[test]
fn par_csr_matches_serial_bit_exact() {
    let coo = irregular(200, 300, 1);
    let csr = coo.to_csr();
    let x = x_for(300);
    let mut y_serial = vec![0.0; 200];
    csr.spmv(&x, &mut y_serial);
    for nthreads in [1, 2, 3, 4, 7, 8] {
        let mut par = ParCsr::new(&csr, nthreads);
        let mut y = vec![99.0; 200];
        par.par_spmv(&x, &mut y);
        assert_eq!(y, y_serial, "nthreads={nthreads}");
    }
}

#[test]
fn par_csr_du_matches_serial_bit_exact() {
    let coo = irregular(200, 300, 2);
    let csr = coo.to_csr();
    let du = spmv_core::csr_du::CsrDu::from_csr(&csr, &DuOptions::default());
    let x = x_for(300);
    let mut y_serial = vec![0.0; 200];
    du.spmv(&x, &mut y_serial);
    for nthreads in [1, 2, 3, 5, 8] {
        let mut par = ParCsrDu::new(&du, nthreads);
        let mut y = vec![99.0; 200];
        par.par_spmv(&x, &mut y);
        assert_eq!(y, y_serial, "nthreads={nthreads}");
    }
}

#[test]
fn par_csr_vi_matches_serial_bit_exact() {
    let coo = irregular(150, 150, 3);
    let csr = coo.to_csr();
    let vi = CsrVi::from_csr(&csr);
    let x = x_for(150);
    let mut y_serial = vec![0.0; 150];
    vi.spmv(&x, &mut y_serial);
    for nthreads in [1, 2, 4, 6] {
        let mut par = ParCsrVi::new(&vi, nthreads);
        let mut y = vec![-1.0; 150];
        par.par_spmv(&x, &mut y);
        assert_eq!(y, y_serial, "nthreads={nthreads}");
    }
}

#[test]
fn par_csr_duvi_matches_serial_bit_exact() {
    let coo = irregular(150, 200, 4);
    let csr = coo.to_csr();
    let duvi = CsrDuVi::from_csr(&csr, &DuOptions::default());
    let x = x_for(200);
    let mut y_serial = vec![0.0; 150];
    duvi.spmv(&x, &mut y_serial);
    for nthreads in [1, 2, 4, 8] {
        let mut par = ParCsrDuVi::new(&duvi, nthreads);
        let mut y = vec![7.5; 150];
        par.par_spmv(&x, &mut y);
        assert_eq!(y, y_serial, "nthreads={nthreads}");
    }
}

#[test]
fn par_csc_columns_matches_reference_numerically() {
    // Column partitioning reorders additions, so compare with tolerance.
    let coo = irregular(120, 120, 5);
    let csr = coo.to_csr();
    let csc = Csc::from_csr(&csr).unwrap();
    let x = x_for(120);
    let mut y_ref = vec![0.0; 120];
    coo.spmv_reference(&x, &mut y_ref);
    for nthreads in [1, 2, 3, 4] {
        let mut par = ParCscColumns::new(&csc, nthreads);
        let mut y = vec![1.0; 120];
        par.par_spmv(&x, &mut y);
        for (i, (a, b)) in y.iter().zip(&y_ref).enumerate() {
            assert!((a - b).abs() < 1e-9, "nthreads={nthreads} row={i}: {a} vs {b}");
        }
    }
}

#[test]
fn checked_comparator_accepts_reordered_reductions() {
    // The column-partitioned executor sums per-thread private vectors
    // — a reordering a raw == 0.0 comparison would spuriously fail on
    // general inputs; the ULP comparator must accept it over every row.
    use spmv_core::checked::{CheckOptions, CheckedSpMv};
    let csr = spmv_matgen::gen::banded(500, 6, 1.0, 3).to_csr();
    let csc = Csc::from_csr(&csr).unwrap();
    let x: Vec<f64> = (0..500).map(|i| ((i * 7919) % 1009) as f64 / 503.0 - 1.0).collect();
    let mut par = ParCscColumns::new(&csc, 4);
    let mut y = vec![0.0; 500];
    par.par_spmv(&x, &mut y);
    let opts = CheckOptions { sample_rows: 0, ..CheckOptions::default() };
    CheckedSpMv::with_options(&csc, &csr, opts).unwrap().verify_against(&x, &y).unwrap();
}

#[test]
fn par_csr_block2d_matches_reference_numerically() {
    let coo = irregular(100, 140, 6);
    let csr = coo.to_csr();
    let x = x_for(140);
    let mut y_ref = vec![0.0; 100];
    coo.spmv_reference(&x, &mut y_ref);
    for nthreads in [1, 2, 4, 6, 8, 9] {
        let mut par = ParCsrBlock2d::new(&csr, nthreads);
        assert_eq!(par.nthreads(), nthreads);
        let mut y = vec![2.0; 100];
        par.par_spmv(&x, &mut y);
        for (i, (a, b)) in y.iter().zip(&y_ref).enumerate() {
            assert!((a - b).abs() < 1e-9, "nthreads={nthreads} row={i}");
        }
    }
}

#[test]
fn block2d_tiles_visit_each_nonzero_exactly_once() {
    // The tile kernel binary-searches each row's sorted column indices to
    // its column block; summing the located ranges over all tiles in a
    // grid row must cover the matrix exactly once — the old
    // `cols.contains(&c)` filter streamed every row block's entries pc
    // times instead.
    let coo = irregular(100, 140, 6);
    let csr = coo.to_csr();
    for nthreads in [2, 4, 6, 9, 12] {
        let par = ParCsrBlock2d::new(&csr, nthreads);
        let grid = par.grid();
        let mut visited = 0usize;
        let mut next_expected = vec![std::collections::BTreeMap::new(); csr.nrows()];
        for t in 0..grid.len() {
            let (pr, _) = grid.coords(t);
            let row_part = RowPartition::for_csr(&csr, grid.pr);
            for i in row_part.part(pr) {
                let r = par.tile_row_entries(t, i);
                visited += r.len();
                // Ranges within one row must not overlap across tiles.
                for k in r {
                    assert!(
                        next_expected[i].insert(k, t).is_none(),
                        "entry {k} of row {i} visited twice (nthreads={nthreads})"
                    );
                }
            }
        }
        assert_eq!(visited, csr.nnz(), "nthreads={nthreads}");
    }
}

#[test]
fn block2d_handles_unsorted_free_columns_at_block_edges() {
    // Column blocks with awkward boundaries: a matrix whose rows span the
    // full width, checked bit-level against the per-row serial sum in the
    // same left-to-right order (binary search preserves in-row order).
    let coo = irregular(60, 61, 13);
    let csr = coo.to_csr();
    let x = x_for(61);
    let mut y_serial = vec![0.0; 60];
    csr.spmv(&x, &mut y_serial);
    let mut par = ParCsrBlock2d::new(&csr, 7); // pc = 7, pr = 1
    let mut y = vec![0.0; 60];
    par.par_spmv(&x, &mut y);
    for (i, (a, b)) in y.iter().zip(&y_serial).enumerate() {
        assert!((a - b).abs() < 1e-9, "row={i}: {a} vs {b}");
    }
}

#[test]
fn empty_matrix_all_executors() {
    let coo: Coo<f64> = Coo::new(10, 10);
    let csr = coo.to_csr();
    let du = spmv_core::csr_du::CsrDu::from_csr(&csr, &DuOptions::default());
    let vi = CsrVi::from_csr(&csr);
    let x = vec![1.0; 10];

    let mut y = vec![5.0; 10];
    ParCsr::new(&csr, 4).par_spmv(&x, &mut y);
    assert_eq!(y, vec![0.0; 10]);

    let mut y = vec![5.0; 10];
    ParCsrDu::new(&du, 4).par_spmv(&x, &mut y);
    assert_eq!(y, vec![0.0; 10]);

    let mut y = vec![5.0; 10];
    ParCsrVi::new(&vi, 4).par_spmv(&x, &mut y);
    assert_eq!(y, vec![0.0; 10]);
}

#[test]
fn more_threads_than_rows() {
    let coo = irregular(5, 50, 7);
    let csr = coo.to_csr();
    let x = x_for(50);
    let mut y_serial = vec![0.0; 5];
    csr.spmv(&x, &mut y_serial);
    let mut par = ParCsr::new(&csr, 16);
    let mut y = vec![0.0; 5];
    par.par_spmv(&x, &mut y);
    assert_eq!(y, y_serial);
}

#[test]
fn pool_reuse_many_calls_bit_identical() {
    // The tentpole's core claim: one plan (one pool, one scratch
    // allocation) serving hundreds of calls produces bit-identical output
    // every time, for the compressed formats and odd thread counts.
    let coo = irregular(160, 190, 21);
    let csr = coo.to_csr();
    let du = spmv_core::csr_du::CsrDu::from_csr(&csr, &DuOptions::default());
    let vi = CsrVi::from_csr(&csr);
    let x = x_for(190);
    let mut y_du_serial = vec![0.0; 160];
    du.spmv(&x, &mut y_du_serial);
    let mut y_vi_serial = vec![0.0; 160];
    vi.spmv(&x, &mut y_vi_serial);

    for nthreads in [1, 2, 3, 5, 7] {
        let mut par_du = ParCsrDu::new(&du, nthreads);
        let mut par_vi = ParCsrVi::new(&vi, nthreads);
        let mut y = vec![0.0; 160];
        for call in 0..120 {
            y.fill(f64::NAN); // must be fully overwritten every call
            par_du.par_spmv(&x, &mut y);
            assert_eq!(y, y_du_serial, "du nthreads={nthreads} call={call}");
            y.fill(f64::NAN);
            par_vi.par_spmv(&x, &mut y);
            assert_eq!(y, y_vi_serial, "vi nthreads={nthreads} call={call}");
        }
    }
}

#[test]
fn pool_reuse_interleaved_plans() {
    // Several live plans, each with its own pool, dispatched round-robin:
    // pools must not interfere with one another.
    let coo = irregular(130, 130, 22);
    let csr = coo.to_csr();
    let csc = Csc::from_csr(&csr).unwrap();
    let du = spmv_core::csr_du::CsrDu::from_csr(&csr, &DuOptions::default());
    let x = x_for(130);
    let mut y_serial = vec![0.0; 130];
    csr.spmv(&x, &mut y_serial);

    let mut p_csr = ParCsr::new(&csr, 3);
    let mut p_du = ParCsrDu::new(&du, 4);
    let mut p_csc = ParCscColumns::new(&csc, 2);
    let mut p_blk = ParCsrBlock2d::new(&csr, 6);
    let mut y = vec![0.0; 130];
    for _ in 0..50 {
        p_csr.par_spmv(&x, &mut y);
        assert_eq!(y, y_serial);
        p_du.par_spmv(&x, &mut y);
        assert_eq!(y, y_serial);
        p_csc.par_spmv(&x, &mut y);
        for (a, b) in y.iter().zip(&y_serial) {
            assert!((a - b).abs() < 1e-9);
        }
        p_blk.par_spmv(&x, &mut y);
        for (a, b) in y.iter().zip(&y_serial) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
