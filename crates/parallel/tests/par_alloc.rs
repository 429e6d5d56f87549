//! A warm `Par*` call allocates nothing: the plan owns its partition,
//! pool and scratch, and each thread computes straight into `y`.
//!
//! The counting allocator sees every thread of the process, so this file
//! holds a single test.

use spmv_core::csr_du::{CsrDu, DuOptions};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Coo, Csr};
use spmv_parallel::{ParCsr, ParCsrDu, ParCsrDuVi, ParCsrVi, ParSpMm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts the bytes every allocation and reallocation asks for.
struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Square matrix with three entries per row (some rows merge duplicates).
fn scattered(n: usize) -> Csr<u32, f64> {
    let t = (0..n).flat_map(|r| {
        [(r, r, 4.0), (r, (r * 7 + 3) % n, -1.0 - (r % 5) as f64), (r, (r * 13 + 5) % n, 0.5)]
    });
    let mut coo = Coo::from_triplets(n, n, t).unwrap();
    coo.canonicalize();
    coo.to_csr()
}

#[test]
fn warm_par_calls_allocate_nothing() {
    const N: usize = 2_000;
    const K: usize = 8;
    let csr = scattered(N);
    let du = CsrDu::from_csr(&csr, &DuOptions::default());
    let vi = CsrVi::from_csr(&csr);
    let duvi = CsrDuVi::from_csr(&csr, &DuOptions::default());
    let x1: Vec<f64> = (0..N).map(|i| ((i % 17) as f64) - 8.0).collect();
    let xk: Vec<f64> = (0..N * K).map(|i| ((i % 13) as f64) * 0.5 - 3.0).collect();
    let mut y1 = vec![0.0; N];
    let mut yk = vec![0.0; N * K];
    for name in ["csr", "csr-du", "csr-vi", "csr-duvi"] {
        // Planned just before its own warm-up: a new pool worker allocates
        // its thread name when it starts, so a pool planned earlier could
        // still be starting while another executor's calls are counted.
        let mut par: Box<dyn ParSpMm<f64> + '_> = match name {
            "csr" => Box::new(ParCsr::new(&csr, 2)),
            "csr-du" => Box::new(ParCsrDu::new(&du, 2)),
            "csr-vi" => Box::new(ParCsrVi::new(&vi, 2)),
            _ => Box::new(ParCsrDuVi::new(&duvi, 2)),
        };
        assert_eq!(par.nthreads(), 2, "{name}");
        // Warm-up: the first call wakes the workers.
        par.par_spmv(&x1, &mut y1);
        par.par_spmm(&xk, K, &mut yk);
        let before = REQUESTED.load(Ordering::SeqCst);
        for _ in 0..5 {
            par.par_spmv(&x1, &mut y1);
            par.par_spmm(&xk, K, &mut yk);
        }
        let bytes = REQUESTED.load(Ordering::SeqCst) - before;
        assert_eq!(bytes, 0, "{name}: 5 warm spmv + spmm calls allocated {bytes} bytes");
    }
}
