//! Fault-injection recovery matrix (requires `--features fault-injection`).
//!
//! Drives scripted faults — worker panics, stalls past the watchdog
//! deadline, thread deaths, and silent chunk corruption — through the
//! supervised executor, across thread counts {1, 2, 4, 7}, and asserts
//! the two acceptance properties after every recovery:
//!
//! 1. the result is **bit-identical** to the serial kernel;
//! 2. the executor remains **reusable** (a healthy follow-up call
//!    succeeds and matches serial again).
//!
//! Tests arm their [`FaultPlan`] on the calling thread, so concurrent
//! tests cannot see each other's faults. Injection is deterministic: the
//! tests disable caller participation and key their rules by **chunk**
//! (chunks are claimed dynamically, so whichever worker claims the
//! targeted chunk receives the fault).

#![cfg(feature = "fault-injection")]

use spmv_core::csr_du::{CsrDu, DuOptions};
use spmv_core::{Coo, Csr, SpMv};
use spmv_parallel::faults::{FaultAction, FaultPlan, FaultSite};
use spmv_parallel::supervised::{
    ChunkKernel, CsrChunks, CsrDuChunks, FaultEvent, PoolError, RecoveryPolicy, SupervisedSpMv,
    WatchdogOpts,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// A scripted fault and the check its fail-fast error must pass.
type FailFastCase = (FaultAction, fn(&PoolError) -> bool);

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
        let len = 1 + (next() as usize) % 8;
        for _ in 0..len {
            t.push((r, (next() as usize) % ncols, ((next() % 17) as f64) - 8.0));
        }
    }
    let mut coo = Coo::from_triplets(nrows, ncols, t).unwrap();
    coo.canonicalize();
    coo
}

fn x_for(ncols: usize) -> Vec<f64> {
    (0..ncols).map(|i| ((i % 23) as f64) * 0.37 - 3.0).collect()
}

/// Supervised opts for injection tests: short deadline (stall/death
/// recovery is deadline-gated), caller dedicated to supervision so the
/// targeted worker deterministically claims chunks.
fn injection_opts(policy: RecoveryPolicy) -> WatchdogOpts {
    WatchdogOpts {
        deadline: Duration::from_millis(40),
        policy,
        verify_every: 0,
        caller_participates: false,
    }
}

/// Runs the fault × recovery matrix for one scripted action against the
/// supervised executor and checks both acceptance properties.
fn supervised_recovers_from(action: FaultAction, expect_fires: bool) {
    let coo = irregular(160, 120, 42);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(120);
    let mut y_serial = vec![0.0; 160];
    csr.spmv(&x, &mut y_serial);
    for &nthreads in &THREAD_COUNTS {
        let kernel: Arc<dyn ChunkKernel<f64>> =
            Arc::new(CsrChunks::new(Arc::new(csr.clone()), nthreads.max(2) * 2));
        let mut sup =
            SupervisedSpMv::with_opts(kernel, nthreads, injection_opts(RecoveryPolicy::Degrade));
        // Target chunk 0 of dispatch 0: with >= 2 threads some worker
        // necessarily claims it (caller doesn't participate); with one
        // thread no worker exists, the rule cannot fire, and the run must
        // simply stay correct (the watchdog recovers every chunk).
        let armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), action).arm();
        let mut y = vec![-7.0; 160];
        let report = sup.spmv(&x, &mut y).expect("degrade mode recovers");
        assert_eq!(
            y, y_serial,
            "recovered result must be bit-identical ({action:?}, {nthreads} threads)"
        );
        if nthreads >= 2 && expect_fires {
            assert_eq!(armed.fired_count(), 1, "{action:?} must fire once");
            assert!(
                report.degraded(),
                "{action:?} with {nthreads} threads: expected a recorded event, got {:?}",
                report.events
            );
        }
        drop(armed);
        // Reusability: a healthy follow-up call on the same plan.
        let mut y2 = vec![0.0; 160];
        let report2 = sup.spmv(&x, &mut y2).expect("pool reusable after recovery");
        assert_eq!(y2, y_serial, "follow-up call after {action:?}");
        assert!(
            !report2.degraded(),
            "follow-up after {action:?} must be healthy, got {:?}",
            report2.events
        );
    }
}

#[test]
fn supervised_recovers_from_worker_panic() {
    supervised_recovers_from(FaultAction::PanicOnce, true);
}

#[test]
fn supervised_recovers_from_worker_stall() {
    supervised_recovers_from(FaultAction::DelayOnce(Duration::from_millis(150)), true);
}

#[test]
fn supervised_recovers_from_worker_death() {
    supervised_recovers_from(FaultAction::ExitThread, true);
}

#[test]
fn supervised_panic_recovery_reports_event_and_respawn_keeps_strength() {
    let coo = irregular(100, 90, 3);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(90);
    let mut y_serial = vec![0.0; 100];
    csr.spmv(&x, &mut y_serial);
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr), 6));
    let mut sup = SupervisedSpMv::with_opts(kernel, 3, injection_opts(RecoveryPolicy::Degrade));
    let armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), FaultAction::ExitThread).arm();
    let mut y = vec![0.0; 100];
    let report = sup.spmv(&x, &mut y).expect("degrade");
    assert_eq!(armed.fired_count(), 1);
    assert_eq!(y, y_serial);
    let died = report.events.iter().find_map(|e| match e {
        FaultEvent::WorkerDied { tid, .. } => Some(*tid),
        _ => None,
    });
    let died = died.unwrap_or_else(|| panic!("expected WorkerDied, got {:?}", report.events));
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::WorkerRespawned { tid } if *tid == died)),
        "dead worker {died} must be respawned: {:?}",
        report.events
    );
    assert!(report.recovered_chunks >= 1);
}

#[test]
fn supervised_self_check_catches_injected_corruption() {
    let coo = irregular(140, 110, 8);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(110);
    let mut y_serial = vec![0.0; 140];
    csr.spmv(&x, &mut y_serial);
    let du = CsrDu::from_csr(&csr, &DuOptions::default());
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrDuChunks::new(Arc::new(du), 6));
    let opts = WatchdogOpts {
        verify_every: 1, // check every chunk: corruption cannot hide
        ..injection_opts(RecoveryPolicy::Degrade)
    };
    let mut sup = SupervisedSpMv::with_opts(kernel, 3, opts);
    let armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), FaultAction::CorruptChunk).arm();
    let mut y = vec![0.0; 140];
    let report = sup.spmv(&x, &mut y).expect("degrade replaces corrupted chunk");
    assert_eq!(armed.fired_count(), 1);
    assert_eq!(y, y_serial, "self-check must restore the corrupted chunk");
    assert!(
        report.events.iter().any(|e| matches!(e, FaultEvent::ChunkCorrupted { .. })),
        "events: {:?}",
        report.events
    );
}

#[test]
fn supervised_failfast_returns_typed_errors() {
    let coo = irregular(120, 100, 5);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(100);
    let cases: Vec<FailFastCase> = vec![
        (FaultAction::PanicOnce, |e| matches!(e, PoolError::WorkerPanicked { .. })),
        (FaultAction::DelayOnce(Duration::from_millis(200)), |e| {
            matches!(e, PoolError::WorkerStalled { .. })
        }),
        (FaultAction::ExitThread, |e| matches!(e, PoolError::WorkerDied { .. })),
    ];
    for (action, matches_err) in cases {
        let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr.clone()), 4));
        let mut sup =
            SupervisedSpMv::with_opts(kernel, 2, injection_opts(RecoveryPolicy::FailFast));
        let _armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), action).arm();
        let mut y = vec![123.0; 120];
        let err = sup.spmv(&x, &mut y).expect_err("failfast surfaces the fault");
        assert!(matches_err(&err), "{action:?} yielded {err:?}");
        assert_eq!(y, vec![123.0; 120], "failfast must leave y untouched");
    }
}

#[test]
fn supervised_failfast_corruption_error() {
    let coo = irregular(80, 80, 6);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(80);
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr), 4));
    let opts = WatchdogOpts { verify_every: 1, ..injection_opts(RecoveryPolicy::FailFast) };
    let mut sup = SupervisedSpMv::with_opts(kernel, 2, opts);
    let _armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), FaultAction::CorruptChunk).arm();
    let mut y = vec![0.0; 80];
    let err = sup.spmv(&x, &mut y).expect_err("corruption must fail fast");
    assert!(matches!(err, PoolError::ChunkCorrupted { .. }), "{err:?}");
}

#[test]
fn supervised_repeated_faults_across_calls_stay_correct() {
    // One plan, faults on several consecutive calls: the roster respawn
    // must keep the pool at strength through repeated degradation.
    let coo = irregular(130, 100, 12);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(100);
    let mut y_serial = vec![0.0; 130];
    csr.spmv(&x, &mut y_serial);
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr), 8));
    let mut sup = SupervisedSpMv::with_opts(kernel, 4, injection_opts(RecoveryPolicy::Degrade));
    let armed = FaultPlan::new()
        .inject(FaultSite::chunk(0, 0), FaultAction::PanicOnce)
        .inject(FaultSite::chunk(1, 3), FaultAction::ExitThread)
        .inject(FaultSite::chunk(2, 7), FaultAction::DelayOnce(Duration::from_millis(120)))
        .arm();
    for call in 0..4 {
        let mut y = vec![0.0; 130];
        sup.spmv(&x, &mut y).expect("degrade");
        assert_eq!(y, y_serial, "call {call}");
    }
    assert_eq!(armed.fired_count(), 3, "all three scripted faults fired");
}

// ---------------------------------------------------------------------
// SpMM (multi-vector) chunks: same fault model, panel outputs
// ---------------------------------------------------------------------

fn x_panel_for(ncols: usize, k: usize) -> Vec<f64> {
    (0..ncols * k).map(|i| ((i % 29) as f64) * 0.23 - 2.0).collect()
}

/// SpMM analogue of [`supervised_recovers_from`]: a fault during a
/// multi-vector chunk must recover under Degrade with a panel
/// bit-identical to the serial SpMM.
fn supervised_spmm_recovers_from(action: FaultAction, expect_fires: bool) {
    let coo = irregular(160, 120, 42);
    let csr: Csr<u32, f64> = coo.to_csr();
    let k = 4;
    let x = x_panel_for(120, k);
    let mut y_serial = vec![0.0; 160 * k];
    csr.spmm(&x, k, &mut y_serial);
    for &nthreads in &THREAD_COUNTS {
        let kernel: Arc<dyn ChunkKernel<f64>> =
            Arc::new(CsrChunks::new(Arc::new(csr.clone()), nthreads.max(2) * 2));
        let mut sup =
            SupervisedSpMv::with_opts(kernel, nthreads, injection_opts(RecoveryPolicy::Degrade));
        let armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), action).arm();
        let mut y = vec![-7.0; 160 * k];
        let report = sup.spmm(&x, k, &mut y).expect("degrade mode recovers");
        assert_eq!(
            y, y_serial,
            "recovered panel must be bit-identical ({action:?}, {nthreads} threads)"
        );
        if nthreads >= 2 && expect_fires {
            assert_eq!(armed.fired_count(), 1, "{action:?} must fire once");
            assert!(report.degraded(), "{action:?}: expected an event, got {:?}", report.events);
        }
        drop(armed);
        // Reusability: a healthy follow-up SpMM on the same plan.
        let mut y2 = vec![0.0; 160 * k];
        let report2 = sup.spmm(&x, k, &mut y2).expect("pool reusable after recovery");
        assert_eq!(y2, y_serial, "follow-up call after {action:?}");
        assert!(!report2.degraded(), "follow-up must be healthy, got {:?}", report2.events);
    }
}

#[test]
fn supervised_spmm_recovers_from_worker_panic() {
    supervised_spmm_recovers_from(FaultAction::PanicOnce, true);
}

#[test]
fn supervised_spmm_recovers_from_worker_stall() {
    supervised_spmm_recovers_from(FaultAction::DelayOnce(Duration::from_millis(150)), true);
}

#[test]
fn supervised_spmm_recovers_from_worker_death() {
    supervised_spmm_recovers_from(FaultAction::ExitThread, true);
}

#[test]
fn supervised_spmm_self_check_catches_injected_corruption() {
    // CorruptChunk flips the first element of the chunk's *panel*; the
    // bit-exact self-check must catch it and restore the serial panel.
    let coo = irregular(140, 110, 8);
    let csr: Csr<u32, f64> = coo.to_csr();
    let k = 3;
    let x = x_panel_for(110, k);
    let mut y_serial = vec![0.0; 140 * k];
    csr.spmm(&x, k, &mut y_serial);
    let du = CsrDu::from_csr(&csr, &DuOptions::default());
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrDuChunks::new(Arc::new(du), 6));
    let opts = WatchdogOpts { verify_every: 1, ..injection_opts(RecoveryPolicy::Degrade) };
    let mut sup = SupervisedSpMv::with_opts(kernel, 3, opts);
    let armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), FaultAction::CorruptChunk).arm();
    let mut y = vec![0.0; 140 * k];
    let report = sup.spmm(&x, k, &mut y).expect("degrade replaces corrupted chunk");
    assert_eq!(armed.fired_count(), 1);
    assert_eq!(y, y_serial, "self-check must restore the corrupted panel");
    assert!(
        report.events.iter().any(|e| matches!(e, FaultEvent::ChunkCorrupted { .. })),
        "events: {:?}",
        report.events
    );
}

#[test]
fn supervised_spmm_failfast_leaves_panel_untouched() {
    let coo = irregular(120, 100, 5);
    let csr: Csr<u32, f64> = coo.to_csr();
    let k = 4;
    let x = x_panel_for(100, k);
    let cases: Vec<FailFastCase> = vec![
        (FaultAction::PanicOnce, |e| matches!(e, PoolError::WorkerPanicked { .. })),
        (FaultAction::DelayOnce(Duration::from_millis(200)), |e| {
            matches!(e, PoolError::WorkerStalled { .. })
        }),
        (FaultAction::ExitThread, |e| matches!(e, PoolError::WorkerDied { .. })),
    ];
    for (action, matches_err) in cases {
        let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr.clone()), 4));
        let mut sup =
            SupervisedSpMv::with_opts(kernel, 2, injection_opts(RecoveryPolicy::FailFast));
        let _armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), action).arm();
        let mut y = vec![123.0; 120 * k];
        let err = sup.spmm(&x, k, &mut y).expect_err("failfast surfaces the fault");
        assert!(matches_err(&err), "{action:?} yielded {err:?}");
        assert_eq!(y, vec![123.0; 120 * k], "failfast must leave the panel untouched");
    }
}

#[test]
fn supervised_spmm_failfast_corruption_error() {
    let coo = irregular(80, 80, 6);
    let csr: Csr<u32, f64> = coo.to_csr();
    let k = 2;
    let x = x_panel_for(80, k);
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr), 4));
    let opts = WatchdogOpts { verify_every: 1, ..injection_opts(RecoveryPolicy::FailFast) };
    let mut sup = SupervisedSpMv::with_opts(kernel, 2, opts);
    let _armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), FaultAction::CorruptChunk).arm();
    let mut y = vec![9.5; 80 * k];
    let err = sup.spmm(&x, k, &mut y).expect_err("corruption must fail fast");
    assert!(matches!(err, PoolError::ChunkCorrupted { .. }), "{err:?}");
    assert_eq!(y, vec![9.5; 80 * k], "failfast corruption must leave the panel untouched");
}

// ---------------------------------------------------------------------
// Calls on a shared input after an abandoned straggler
// ---------------------------------------------------------------------

/// Stalls the first `compute_block` it runs *after* taking its output
/// buffer: scribbles a marker over the buffer, sleeps, then computes for
/// real. A straggler of this kind holds a chunk buffer while the
/// executor moves on.
struct StallMidChunk {
    inner: CsrChunks<u32, f64>,
    stall: Duration,
    armed: AtomicBool,
}

impl ChunkKernel<f64> for StallMidChunk {
    fn nrows(&self) -> usize {
        ChunkKernel::<f64>::nrows(&self.inner)
    }
    fn ncols(&self) -> usize {
        ChunkKernel::<f64>::ncols(&self.inner)
    }
    fn nchunks(&self) -> usize {
        ChunkKernel::<f64>::nchunks(&self.inner)
    }
    fn chunk_rows(&self, chunk: usize) -> std::ops::Range<usize> {
        self.inner.chunk_rows(chunk)
    }
    fn compute_block(&self, chunk: usize, x: &[f64], k: usize, out: &mut [f64]) {
        if self.armed.swap(false, Ordering::AcqRel) {
            out.fill(-1.0e300);
            std::thread::sleep(self.stall);
            out.fill(0.0);
        }
        self.inner.compute_block(chunk, x, k, out);
    }
}

/// Calls `sup` through the shared-x entry point until well past the
/// straggler's wake-up, on a different `x` each call and with `y`
/// filled with NaN; every result must be bit-identical to serial. A
/// straggler's late write reaching a later call's output would show up
/// as a wrong chunk there.
fn calls_stay_serial_past_the_straggler(
    sup: &mut SupervisedSpMv<f64>,
    csr: &Csr<u32, f64>,
    k: usize,
    stall: Duration,
    what: &str,
) -> usize {
    let (nrows, ncols) = (csr.nrows(), csr.ncols());
    let cases: Vec<(Arc<Vec<f64>>, Vec<f64>)> = (0..4)
        .map(|phase| {
            let x: Vec<f64> =
                (0..ncols * k).map(|i| (((i + 7 * phase) % 29) as f64) * 0.23 - 2.0).collect();
            let mut y = vec![0.0; nrows * k];
            csr.spmm(&x, k, &mut y);
            (Arc::new(x), y)
        })
        .collect();
    let start = std::time::Instant::now();
    let mut calls = 0;
    while start.elapsed() < stall * 3 {
        let (x, y_serial) = &cases[calls % cases.len()];
        let mut y = vec![f64::NAN; nrows * k];
        sup.spmm_shared(Arc::clone(x), k, &mut y).expect("degrade mode recovers");
        let same = y.iter().zip(y_serial).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{what} k={k}: call {calls} differs from serial");
        calls += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    calls
}

#[test]
fn abandoned_straggler_never_reaches_a_later_call() {
    let coo = irregular(160, 120, 77);
    let csr: Csr<u32, f64> = coo.to_csr();
    let stall = Duration::from_millis(150);
    for k in [1usize, 4] {
        // A scripted stall before the chunk computes.
        let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr.clone()), 6));
        let mut sup = SupervisedSpMv::with_opts(kernel, 3, injection_opts(RecoveryPolicy::Degrade));
        let armed =
            FaultPlan::new().inject(FaultSite::chunk(0, 0), FaultAction::DelayOnce(stall)).arm();
        let calls = calls_stay_serial_past_the_straggler(&mut sup, &csr, k, stall, "DelayOnce");
        assert_eq!(armed.fired_count(), 1, "k={k}: the stall fired");
        assert!(calls > 3, "k={k}: only {calls} calls");
        drop(armed);

        // A stall while the worker holds the chunk's buffer.
        let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(StallMidChunk {
            inner: CsrChunks::new(Arc::new(csr.clone()), 6),
            stall,
            armed: AtomicBool::new(true),
        });
        let mut sup = SupervisedSpMv::with_opts(kernel, 3, injection_opts(RecoveryPolicy::Degrade));
        calls_stay_serial_past_the_straggler(&mut sup, &csr, k, stall, "mid-chunk stall");
    }
}

// ---------------------------------------------------------------------
// Late writes of an abandoned straggler
// ---------------------------------------------------------------------

/// Written by a released straggler over its whole piece.
const MARKER: f64 = -1.0e300;

/// Parks the first computation of chunk 0 until the test sends on `go`,
/// then fills the whole piece with [`MARKER`], reports on `scribbled`,
/// parks again until a second `go`, and only then computes.
struct ParkedChunk {
    inner: CsrChunks<u32, f64>,
    armed: AtomicBool,
    go: Mutex<mpsc::Receiver<()>>,
    scribbled: Mutex<mpsc::Sender<()>>,
}

impl ChunkKernel<f64> for ParkedChunk {
    fn nrows(&self) -> usize {
        ChunkKernel::<f64>::nrows(&self.inner)
    }
    fn ncols(&self) -> usize {
        ChunkKernel::<f64>::ncols(&self.inner)
    }
    fn nchunks(&self) -> usize {
        ChunkKernel::<f64>::nchunks(&self.inner)
    }
    fn chunk_rows(&self, chunk: usize) -> std::ops::Range<usize> {
        self.inner.chunk_rows(chunk)
    }
    fn compute_block(&self, chunk: usize, x: &[f64], k: usize, out: &mut [f64]) {
        if chunk == 0 && self.armed.swap(false, Ordering::AcqRel) {
            // A failed test drops the senders, which releases the wait.
            let go = self.go.lock().unwrap();
            let _ = go.recv();
            out.fill(MARKER);
            let _ = self.scribbled.lock().unwrap().send(());
            let _ = go.recv();
        }
        self.inner.compute_block(chunk, x, k, out);
    }
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    let same =
        got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "{what}: the returned output differs from serial CSR");
}

#[test]
fn late_straggler_writes_never_reach_a_returned_output() {
    let coo = irregular(160, 120, 91);
    let csr: Csr<u32, f64> = coo.to_csr();
    for k in [1usize, 4] {
        let x = Arc::new(x_panel_for(120, k));
        let mut y_serial = vec![0.0; 160 * k];
        csr.spmm(&x, k, &mut y_serial);
        let (go, go_rx) = mpsc::channel();
        let (scribbled_tx, scribbled) = mpsc::channel();
        let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(ParkedChunk {
            inner: CsrChunks::new(Arc::new(csr.clone()), 6),
            armed: AtomicBool::new(true),
            go: Mutex::new(go_rx),
            scribbled: Mutex::new(scribbled_tx),
        });
        let mut sup = SupervisedSpMv::with_opts(kernel, 3, injection_opts(RecoveryPolicy::Degrade));
        let (y, report) = sup.spmm_owned(Arc::clone(&x), k).expect("degrade mode recovers");
        assert!(
            report.events.iter().any(|e| matches!(e, FaultEvent::WorkerStalled { chunk: 0, .. })),
            "k={k}: chunk 0 must be abandoned, got {:?}",
            report.events
        );
        assert_bits(&y, &y_serial, &format!("k={k} before the release"));
        go.send(()).expect("the straggler waits");
        scribbled.recv().expect("the straggler scribbles its piece");
        assert_bits(&y, &y_serial, &format!("k={k} after the straggler scribbled"));
        go.send(()).expect("the straggler waits again");
        let (y, report) = sup.spmm_owned(Arc::clone(&x), k).expect("healthy follow-up");
        assert_bits(&y, &y_serial, &format!("k={k} follow-up"));
        assert!(!report.degraded(), "k={k}: follow-up events {:?}", report.events);
    }
}

#[test]
fn owned_output_is_serial_after_panic_and_death() {
    let coo = irregular(160, 120, 93);
    let csr: Csr<u32, f64> = coo.to_csr();
    for action in [FaultAction::PanicOnce, FaultAction::ExitThread] {
        for k in [1usize, 4] {
            let x = Arc::new(x_panel_for(120, k));
            let mut y_serial = vec![0.0; 160 * k];
            csr.spmm(&x, k, &mut y_serial);
            let kernel: Arc<dyn ChunkKernel<f64>> =
                Arc::new(CsrChunks::new(Arc::new(csr.clone()), 6));
            let mut sup =
                SupervisedSpMv::with_opts(kernel, 3, injection_opts(RecoveryPolicy::Degrade));
            let armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), action).arm();
            let (y, report) = sup.spmm_owned(Arc::clone(&x), k).expect("degrade mode recovers");
            assert_eq!(armed.fired_count(), 1, "{action:?} k={k} must fire once");
            assert!(report.degraded(), "{action:?} k={k}: no event recorded");
            assert_bits(&y, &y_serial, &format!("{action:?} k={k}"));
        }
    }
}
