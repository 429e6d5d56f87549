//! Quickstart: build a sparse matrix, compress it with the paper's two
//! schemes, and multiply — serial and multithreaded.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spmv_core::csr_du::{CsrDu, DuOptions};
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Coo, Csr, SpMv};
use spmv_parallel::{ChunkKernel, ParCsrDu, ParSpMv};

fn main() {
    // 1. Assemble a matrix in COO (triplet) form — here a small banded
    //    system with three distinct coefficient values.
    let n = 10_000usize;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
        if i > 0 {
            coo.push(i, i - 1, -1.0).unwrap();
        }
        if i + 1 < n {
            coo.push(i, i + 1, -1.0).unwrap();
        }
        if i + 50 < n {
            coo.push(i, i + 50, -0.5).unwrap();
        }
    }

    // 2. Convert to CSR — the baseline format (u32 indices, f64 values).
    let csr: Csr = coo.to_csr();
    println!("matrix: {} x {}, nnz = {}", csr.nrows(), csr.ncols(), csr.nnz());
    println!("CSR size:      {:>9} bytes", csr.size_bytes());

    // 3. Compress. CSR-DU shrinks the index data via delta units; CSR-VI
    //    replaces values with narrow indices into a unique-value table.
    let du = CsrDu::from_csr(&csr, &DuOptions::default());
    let vi = CsrVi::from_csr(&csr);
    println!(
        "CSR-DU size:   {:>9} bytes ({:.1}% smaller, {} units)",
        du.size_bytes(),
        du.size_report().reduction() * 100.0,
        du.units()
    );
    println!(
        "CSR-VI size:   {:>9} bytes ({:.1}% smaller, {} unique values, ttu = {:.0})",
        vi.size_bytes(),
        vi.size_report().reduction() * 100.0,
        vi.unique_values(),
        vi.ttu()
    );

    // 4. Multiply: y = A·x. All formats produce bit-identical results.
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.25).collect();
    let mut y_csr = vec![0.0; n];
    let mut y_du = vec![0.0; n];
    let mut y_vi = vec![0.0; n];
    csr.spmv(&x, &mut y_csr);
    du.spmv(&x, &mut y_du);
    vi.spmv(&x, &mut y_vi);
    assert_eq!(y_csr, y_du);
    assert_eq!(y_csr, y_vi);
    println!("\nserial SpMV agreement across formats: OK (bit-identical)");

    // 5. Multithreaded: plan an nnz-balanced row partition (and spawn the
    //    plan's persistent worker pool) once, then run.
    let mut par = ParCsrDu::new(&du, 4);
    let mut y_par = vec![0.0; n];
    par.par_spmv(&x, &mut y_par);
    assert_eq!(y_csr, y_par);
    println!("4-thread CSR-DU SpMV agreement: OK ({} splits)", par.kernel().nchunks());

    // 6. The paper's selection rule, automated.
    let auto = spmv_repro::auto_format(&csr);
    println!(
        "\nauto_format chose {} ({} bytes streamed/iteration)",
        auto.name(),
        auto.size_bytes()
    );
}
