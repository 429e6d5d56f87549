//! Tier-1 fault-tolerance coverage for the supervised parallel path.
//!
//! Unlike `crates/parallel/tests/fault_injection.rs` (which scripts
//! faults behind the `fault-injection` feature), these tests run in the
//! default build and pin down the properties the recovery machinery must
//! preserve even when nothing goes wrong:
//!
//! * results bit-identical to the serial kernel for every chunked format,
//!   across thread counts {1, 2, 4, 7}, on a reusable executor;
//! * an aggressively low watchdog deadline may trigger spurious serial
//!   recovery but never a wrong result;
//! * the chunk self-check (`verify_every`) passes on honest kernels;
//! * health reports stay internally consistent (every recovered chunk
//!   leaves an event).

use spmv_core::csr_du::{CsrDu, DuOptions};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Csr, SpMv};
use spmv_parallel::{
    ChunkKernel, CsrChunks, CsrDuChunks, CsrDuViChunks, CsrViChunks, SupervisedSpMv, WatchdogOpts,
};
use std::sync::Arc;
use std::time::Duration;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// True when the environment pins an aggressively low watchdog deadline
/// (the CI tight-deadline gate sets `SPMV_WATCHDOG_MS=5`). Spurious
/// stall triage is then *expected*, so "run stayed healthy" assertions
/// are waived — bit-identical-result assertions never are.
fn spurious_triage_expected() -> bool {
    std::env::var("SPMV_WATCHDOG_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .is_some_and(|ms| ms < 100)
}

fn test_csr(seed: u64) -> Csr {
    spmv_matgen::gen::power_law(2_500, 5, seed).to_csr()
}

fn x_for(csr: &Csr) -> Vec<f64> {
    (0..csr.ncols()).map(|i| ((i % 23) as f64) * 0.37 - 3.0).collect()
}

fn serial_y(csr: &Csr, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; csr.nrows()];
    csr.spmv(x, &mut y);
    y
}

/// Every chunked format over the same matrix, `nchunks` chunks each.
fn all_kernels(csr: &Csr, nchunks: usize) -> Vec<(&'static str, Arc<dyn ChunkKernel<f64>>)> {
    let du = CsrDu::from_csr(csr, &DuOptions::default());
    let vi = CsrVi::from_csr(csr);
    let duvi = CsrDuVi::from_csr(csr, &DuOptions::default());
    vec![
        ("CSR", Arc::new(CsrChunks::new(Arc::new(csr.clone()), nchunks))),
        ("CSR-DU", Arc::new(CsrDuChunks::new(Arc::new(du), nchunks))),
        ("CSR-VI", Arc::new(CsrViChunks::new(Arc::new(vi), nchunks))),
        ("CSR-DU-VI", Arc::new(CsrDuViChunks::new(Arc::new(duvi), nchunks))),
    ]
}

#[test]
fn supervised_formats_match_serial_across_thread_counts() {
    let csr = test_csr(11);
    let x = x_for(&csr);
    let y_serial = serial_y(&csr, &x);
    for &nthreads in &THREAD_COUNTS {
        for (name, kernel) in all_kernels(&csr, nthreads.max(2) * 2) {
            let mut sup = SupervisedSpMv::new(kernel, nthreads);
            // Three calls on the same executor: steady-state reuse.
            for call in 0..3 {
                let mut y = vec![-1.0; csr.nrows()];
                let report = sup.spmv(&x, &mut y).expect("healthy run");
                assert_eq!(y, y_serial, "{name}, {nthreads} threads, call {call}");
                assert!(
                    !report.degraded() || spurious_triage_expected(),
                    "{name}, {nthreads} threads, call {call}: unexpected events {:?}",
                    report.events
                );
            }
        }
    }
}

#[test]
fn tight_watchdog_deadline_never_corrupts_results() {
    // A 1-ms deadline on a single-CPU container all but guarantees
    // spurious stall triage: workers are timed out while merely
    // descheduled. The executor must absorb every such false positive —
    // chunks re-run serially, the answer stays bit-identical, and the
    // executor survives repeated calls.
    let csr = test_csr(23);
    let x = x_for(&csr);
    let y_serial = serial_y(&csr, &x);
    let opts = WatchdogOpts {
        deadline: Duration::from_millis(1),
        verify_every: 0,
        caller_participates: true,
    };
    for &nthreads in &THREAD_COUNTS {
        let kernel: Arc<dyn ChunkKernel<f64>> =
            Arc::new(CsrChunks::new(Arc::new(csr.clone()), nthreads.max(2) * 2));
        let mut sup = SupervisedSpMv::with_opts(kernel, nthreads, opts);
        for call in 0..3 {
            let mut y = vec![0.0; csr.nrows()];
            let report = sup.spmv(&x, &mut y).expect("degrade absorbs spurious stalls");
            assert_eq!(y, y_serial, "{nthreads} threads, call {call}");
            // Accounting: every recovered chunk must have left an event.
            assert!(
                report.recovered_chunks == 0 || report.degraded(),
                "recovered {} chunks with empty event log",
                report.recovered_chunks
            );
        }
    }
}

#[test]
fn self_check_passes_on_honest_kernels() {
    // verify_every = 1 re-executes every chunk serially and compares bit
    // patterns: on an uncorrupted run it must find nothing, for every
    // chunked format.
    let csr = test_csr(31);
    let x = x_for(&csr);
    let y_serial = serial_y(&csr, &x);
    let opts = WatchdogOpts { verify_every: 1, ..WatchdogOpts::default() };
    for (name, kernel) in all_kernels(&csr, 6) {
        let mut sup = SupervisedSpMv::with_opts(kernel, 3, opts);
        let mut y = vec![0.0; csr.nrows()];
        let report = sup.spmv(&x, &mut y).expect("self-check on honest kernel");
        assert_eq!(y, y_serial, "{name}");
        // Stall triage under a low ambient deadline is fine; a corruption
        // event on an honest kernel never is.
        assert!(
            !report
                .events
                .iter()
                .any(|e| matches!(e, spmv_parallel::FaultEvent::ChunkCorrupted { .. })),
            "{name}: self-check flagged honest chunks: {:?}",
            report.events
        );
        assert!(
            !report.degraded() || spurious_triage_expected(),
            "{name}: unexpected events {:?}",
            report.events
        );
    }
}

#[test]
fn empty_and_tiny_matrices_are_supervised_safely() {
    // Degenerate shapes: more threads than rows, empty matrix. The chunk
    // planner must not panic and results must match serial.
    for (nrows, ncols) in [(0usize, 4usize), (1, 1), (3, 5)] {
        let mut coo = spmv_core::Coo::<f64>::new(nrows, ncols);
        if nrows > 0 && ncols > 0 {
            coo.push(0, 0, 2.5).unwrap();
            if nrows > 2 {
                coo.push(2, ncols - 1, -1.5).unwrap();
            }
        }
        let csr: Csr = coo.to_csr();
        let x = vec![1.0; ncols];
        let y_serial = serial_y(&csr, &x);
        for &nthreads in &THREAD_COUNTS {
            let kernel: Arc<dyn ChunkKernel<f64>> =
                Arc::new(CsrChunks::new(Arc::new(csr.clone()), nthreads));
            let mut sup = SupervisedSpMv::new(kernel, nthreads);
            let mut y = vec![0.0; nrows];
            let report = sup.spmv(&x, &mut y).expect("degenerate shape");
            assert_eq!(y, y_serial, "{nrows}x{ncols}, {nthreads} threads");
            assert!(!report.degraded() || spurious_triage_expected());
        }
    }
}
