//! A warm supervised call on a shared input allocates its output panel,
//! which every chunk computes into, and a small constant: the input
//! panel is read in place, not copied.
//!
//! The counting allocator sees every thread of the process, so this file
//! holds a single test.

use spmv_core::csr_du::{CsrDu, DuOptions};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Coo, Csr};
use spmv_parallel::{
    ChunkKernel, CsrChunks, CsrDuChunks, CsrDuViChunks, CsrViChunks, SupervisedSpMv, WatchdogOpts,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

fn kernels(csr: &Csr<u32, f64>) -> Vec<(&'static str, Arc<dyn ChunkKernel<f64>>)> {
    let du = CsrDu::from_csr(csr, &DuOptions::default());
    let duvi = CsrDuVi::from_csr(csr, &DuOptions::default());
    vec![
        ("csr", Arc::new(CsrChunks::new(Arc::new(csr.clone()), 8))),
        ("csr-du", Arc::new(CsrDuChunks::new(Arc::new(du), 8))),
        ("csr-vi", Arc::new(CsrViChunks::new(Arc::new(CsrVi::from_csr(csr)), 8))),
        ("csr-duvi", Arc::new(CsrDuViChunks::new(Arc::new(duvi), 8))),
    ]
}

#[test]
fn warm_shared_x_call_allocates_only_its_chunk_outputs() {
    /// Call bookkeeping, independent of the matrix size.
    const SMALL: usize = 4096;
    // An explicit deadline: a tight `SPMV_WATCHDOG_MS` could otherwise
    // trigger recovery, which allocates chunk buffers and a fresh output.
    let opts = WatchdogOpts { deadline: Duration::from_secs(60), ..WatchdogOpts::default() };
    for n in [2_000usize, 200_000] {
        let csr = scattered(n);
        for (name, kernel) in kernels(&csr) {
            let mut sup = SupervisedSpMv::with_opts(kernel, 3, opts);
            for k in [2usize, 1] {
                let x = Arc::new((0..n * k).map(|i| ((i % 17) as f64) - 8.0).collect::<Vec<_>>());
                let mut y = vec![0.0; n * k];
                // Warm-up: the first calls wake the workers.
                for _ in 0..2 {
                    sup.spmm_shared(Arc::clone(&x), k, &mut y).expect("healthy run");
                }
                let mut worst = 0;
                for _ in 0..5 {
                    let before = REQUESTED.load(Ordering::SeqCst);
                    let report = sup.spmm_shared(Arc::clone(&x), k, &mut y).expect("healthy run");
                    worst = worst.max(REQUESTED.load(Ordering::SeqCst) - before);
                    assert!(!report.degraded(), "{name} n={n} k={k}: {:?}", report.events);
                }
                // The output panel, `n x k` values.
                let limit = n * k * 8 + SMALL;
                assert!(
                    worst < limit,
                    "{name} n={n} k={k}: a warm call allocated {worst} bytes (limit {limit})"
                );
            }
        }
    }
}
