//! A warm lone request allocates one vector: its response `y`, which is
//! the output the executor's chunks were computed into. The request's
//! `x` goes to the executor as is, without a gather, a copy or a
//! scatter.
//!
//! The counting allocator sees every thread of the process (clients,
//! shards, workers, the supervisor), so this file holds a single test.

use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::{csr_du::DuOptions, Coo, Csr, SpMv};
use spmv_parallel::{ChunkKernel, CsrChunks, CsrDuViChunks};
use spmv_service::{Request, ServiceBuilder, ServiceConfig};
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

#[test]
fn warm_lone_submit_allocates_only_its_response() {
    const N: usize = 50_000;
    /// Admission, queue, batch and call bookkeeping, independent of `N`.
    const SMALL: usize = 16 << 10;
    let csr = scattered(N);
    let duvi = CsrDuVi::from_csr(&csr, &DuOptions::default());
    let kernels: [(&str, Arc<dyn ChunkKernel<f64>>); 2] = [
        ("csr", Arc::new(CsrChunks::new(Arc::new(csr.clone()), 8))),
        ("csr-duvi", Arc::new(CsrDuViChunks::new(Arc::new(duvi), 8))),
    ];
    // Explicit deadlines: a tight `SPMV_WATCHDOG_MS` could otherwise
    // trigger recovery, which allocates chunk buffers and a fresh output.
    let cfg = ServiceConfig {
        default_deadline: Duration::from_secs(60),
        max_exec_deadline: Duration::from_secs(60),
        threads: 2,
        ..ServiceConfig::default()
    };
    let mut builder = ServiceBuilder::new(cfg);
    for (name, kernel) in &kernels {
        builder = builder.register_matrix(*name, Arc::clone(kernel));
    }
    let svc = builder.start();
    let x: Vec<f64> = (0..N).map(|i| ((i % 17) as f64) - 8.0).collect();
    let mut y_serial = vec![0.0; N];
    csr.spmv(&x, &mut y_serial);
    let request = |name: &str| Request {
        matrix: name.into(),
        tenant: "t".into(),
        x: x.clone(),
        deadline: None,
    };
    for (name, _) in &kernels {
        // Warm-up: the first request builds the executor.
        for _ in 0..3 {
            svc.submit(request(name)).expect("warm-up request");
        }
        let mut worst = 0;
        for _ in 0..5 {
            let req = request(name);
            let before = REQUESTED.load(Ordering::SeqCst);
            let resp = svc.submit(req).expect("healthy request");
            worst = worst.max(REQUESTED.load(Ordering::SeqCst) - before);
            assert_eq!(resp.batch_k, 1, "{name}: one client never coalesces");
            assert!(!resp.degraded && !resp.serial, "{name}: degraded or serial run");
            assert!(resp.y == y_serial, "{name}: response differs from serial");
        }
        // The response `y`, one vector.
        let limit = N * 8 + SMALL;
        assert!(
            worst <= limit,
            "{name}: a warm lone submit allocated {worst} bytes (limit {limit} = y + {SMALL})"
        );
    }
    svc.shutdown();
}
