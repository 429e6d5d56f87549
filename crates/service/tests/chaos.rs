//! Chaos under load: scripted worker panics, stalls, and corruption
//! fire *while* concurrent client traffic is in flight.
//! Every request must terminate with a bit-correct result or a typed
//! error — no hangs, no silent wrong answers — across thread counts
//! {1, 2, 4, 7}. Requires `--features fault-injection`.

#![cfg(feature = "fault-injection")]

use spmv_core::csr_vi::CsrVi;
use spmv_core::{Coo, Csr, SpMv};
use spmv_parallel::faults::{FaultAction, FaultPlan, FaultSite};
use spmv_parallel::{CsrChunks, CsrViChunks};
use spmv_service::{Request, ServiceBuilder, ServiceConfig, ServiceError};
use std::sync::Arc;
use std::time::Duration;

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
        if r % 11 == 3 {
            continue;
        }
        let len = 1 + (next() as usize) % 9;
        for _ in 0..len {
            t.push((r, (next() as usize) % ncols, ((next() % 17) as f64) - 8.0));
        }
    }
    let mut coo = Coo::from_triplets(nrows, ncols, t).unwrap();
    coo.canonicalize();
    coo
}

fn x_for(ncols: usize, phase: usize) -> Vec<f64> {
    (0..ncols).map(|i| (((i + phase) % 23) as f64) * 0.37 - 3.0).collect()
}

fn req(matrix: &str, tenant: &str, x: Vec<f64>, deadline: Duration) -> Request {
    Request { matrix: matrix.into(), tenant: tenant.into(), x, deadline: Some(deadline) }
}

/// The scripted mixed-fault plan: a panic on the very first dispatch,
/// two stalls past the watchdog deadline, and a second panic later in
/// the run. Chunk-pinned sites fire deterministically when the
/// dispatcher does not claim chunks itself (`caller_participates:
/// false`), because then every chunk runs on an injectable worker.
fn mixed_plan() -> FaultPlan {
    FaultPlan::new()
        .inject(FaultSite::chunk(0, 0), FaultAction::PanicOnce)
        .inject(FaultSite::chunk(2, 1), FaultAction::DelayOnce(Duration::from_millis(300)))
        .inject(FaultSite::chunk(4, 0), FaultAction::DelayOnce(Duration::from_millis(300)))
        .inject(FaultSite::chunk(6, 2), FaultAction::PanicOnce)
}

#[test]
fn chaos_under_concurrent_load_terminates_every_request_correctly() {
    for nthreads in [1usize, 2, 4, 7] {
        let coo_a = irregular(200, 170, 31);
        let csr_a: Arc<Csr<u32, f64>> = Arc::new(coo_a.to_csr());
        let coo_b = irregular(150, 190, 37);
        let csr_b: Csr<u32, f64> = coo_b.to_csr();
        let vi_b = CsrVi::from_csr(&csr_b);
        let csr_b = Arc::new(csr_b);

        let cfg = ServiceConfig {
            threads: nthreads,
            // Route every chunk through workers so chunk-pinned faults
            // fire; at 1 thread the service forces the dispatcher to
            // participate (and, as thread 0, it is never injected).
            caller_participates: false,
            // Tight enough that the 300ms injected stalls are detected
            // and recovered rather than silently waited out.
            max_exec_deadline: Duration::from_millis(120),
            default_deadline: Duration::from_secs(30),
            ..ServiceConfig::default()
        };
        let svc = Arc::new(
            ServiceBuilder::new(cfg)
                .register_matrix("a", Arc::new(CsrChunks::new(Arc::clone(&csr_a), 6)))
                .register_matrix("b", Arc::new(CsrViChunks::new(Arc::new(vi_b), 6)))
                .inject_faults(mixed_plan())
                .start(),
        );

        let nclients = 12;
        let per_client = 4;
        let mut handles = Vec::new();
        for c in 0..nclients {
            let svc = Arc::clone(&svc);
            let csr_a = Arc::clone(&csr_a);
            let csr_b = Arc::clone(&csr_b);
            handles.push(std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for i in 0..per_client {
                    let phase = c * per_client + i;
                    let (name, csr): (&str, &Csr<u32, f64>) =
                        if phase % 2 == 0 { ("a", &csr_a) } else { ("b", &csr_b) };
                    let x = x_for(csr.ncols(), phase);
                    let mut want = vec![0.0f64; csr.nrows()];
                    csr.spmv(&x, &mut want);
                    let tenant = format!("tenant-{}", c % 3);
                    let r = svc.submit(req(name, &tenant, x, Duration::from_secs(30)));
                    match r {
                        Ok(resp) => {
                            assert_eq!(
                                resp.y, want,
                                "nthreads={nthreads} phase={phase}: admitted result must be \
                                 bit-identical to serial even under injected faults"
                            );
                            outcomes.push(true);
                        }
                        // Under overload-free chaos the only acceptable
                        // typed outcomes are load/deadline signals.
                        Err(ServiceError::DeadlineExceeded { .. })
                        | Err(ServiceError::Overloaded { .. })
                        | Err(ServiceError::TenantQuotaExceeded { .. }) => outcomes.push(false),
                        Err(e) => panic!("nthreads={nthreads} phase={phase}: {e}"),
                    }
                }
                outcomes
            }));
        }
        let all: Vec<bool> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        assert_eq!(all.len(), nclients * per_client, "every request terminated");

        let stats = svc.stats();
        assert_eq!(
            stats.submitted,
            stats.admitted + stats.shed_overload + stats.shed_quota,
            "nthreads={nthreads}: no lost admissions"
        );
        assert_eq!(
            stats.admitted,
            stats.completed + stats.deadline_expired + stats.failed,
            "nthreads={nthreads}: no lost responses"
        );
        if nthreads > 1 {
            assert!(
                stats.pool_faults > 0,
                "nthreads={nthreads}: the scripted faults must actually fire"
            );
        }
        assert!(
            all.iter().filter(|&&ok| ok).count() as u64 == stats.completed,
            "client-side and service-side completion counts agree"
        );
    }
}

#[test]
fn tripped_breaker_routes_to_serial_with_identical_results() {
    let coo = irregular(130, 110, 47);
    let csr: Csr<u32, f64> = coo.to_csr();
    let cfg = ServiceConfig {
        threads: 2,
        caller_participates: false,
        breaker_trip_after: 2,
        breaker_cooldown: Duration::from_secs(60),
        default_deadline: Duration::from_secs(30),
        max_exec_deadline: Duration::from_secs(30),
        ..ServiceConfig::default()
    };
    let svc = ServiceBuilder::new(cfg)
        .register_matrix("m", Arc::new(CsrChunks::new(Arc::new(csr.clone()), 5)))
        // Chunk 0 panics on the first two dispatches: two degraded calls.
        .inject_faults(
            FaultPlan::new()
                .inject(FaultSite::chunk(0, 0), FaultAction::PanicOnce)
                .inject(FaultSite::chunk(1, 0), FaultAction::PanicOnce),
        )
        .start();
    let served = |phase: usize| {
        let x = x_for(110, phase);
        let mut want = vec![0.0f64; 130];
        csr.spmv(&x, &mut want);
        let r = svc.submit(req("m", "t", x, Duration::from_secs(30))).unwrap();
        assert_eq!(r.y, want, "phase {phase}: result must be bit-identical to serial");
        r
    };

    // Requests 1 and 2: the executor recovers each panic, so both run on
    // the pool and come back degraded; the second degraded call in a row
    // trips the breaker (trip_after = 2).
    for phase in [1, 5] {
        let r = served(phase);
        assert!(r.degraded && !r.serial, "phase {phase}: {r:?}");
    }

    // Request 3: the breaker is open (60s cooldown), so the batch runs
    // on the serial fallback — same bits, flagged `serial`.
    let r3 = served(9);
    assert!(r3.serial && !r3.degraded, "{r3:?}");

    let stats = svc.shutdown();
    assert_eq!(stats.breaker_trips, 1);
    assert_eq!(stats.serial_batches, 1);
    assert_eq!(stats.pool_faults, 2, "one recovered panic per degraded call");
    assert_eq!(stats.completed, 3);
}

#[test]
fn a_recovered_stall_counts_one_pool_fault() {
    // The watchdog abandons the stalled worker, recovers its chunk and
    // respawns the worker: two health events, but one fault.
    let coo = irregular(120, 100, 61);
    let csr: Csr<u32, f64> = coo.to_csr();
    let cfg = ServiceConfig {
        threads: 2,
        caller_participates: false,
        max_exec_deadline: Duration::from_millis(500),
        default_deadline: Duration::from_secs(30),
        ..ServiceConfig::default()
    };
    let svc =
        ServiceBuilder::new(cfg)
            .register_matrix("m", Arc::new(CsrChunks::new(Arc::new(csr.clone()), 5)))
            .inject_faults(FaultPlan::new().inject(
                FaultSite::chunk(0, 0),
                FaultAction::DelayOnce(Duration::from_millis(2000)),
            ))
            .start();
    let x = x_for(100, 2);
    let mut want = vec![0.0f64; 120];
    csr.spmv(&x, &mut want);
    let resp = svc.submit(req("m", "t", x, Duration::from_secs(30))).unwrap();
    assert_eq!(resp.y, want, "the recovered chunk must be bit-identical to serial");
    assert!(resp.degraded, "{resp:?}");
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.pool_faults, 1, "a respawn is the stall's recovery, not a second fault");
}

#[test]
fn shutdown_mid_chaos_publishes_every_outstanding_reply_promptly() {
    // Shutdown semantics under fault injection: admission closes, the
    // drain deadline expires whatever cannot finish, and *every*
    // outstanding reply slot is published — each blocked client returns
    // with a typed outcome well within the reply-grace window, even
    // though a worker is wedged on an injected stall when shutdown
    // begins.
    let coo = irregular(120, 100, 59);
    let csr: Arc<Csr<u32, f64>> = Arc::new(coo.to_csr());
    let cfg = ServiceConfig {
        threads: 2,
        caller_participates: false,
        max_batch: 1, // every request holds its own queue slot
        max_exec_deadline: Duration::from_millis(150),
        default_deadline: Duration::from_secs(30),
        ..ServiceConfig::default()
    };
    let svc =
        Arc::new(
            ServiceBuilder::new(cfg)
                .register_matrix("m", Arc::new(CsrChunks::new(Arc::clone(&csr), 6)))
                // The first batch wedges a worker past the watchdog deadline,
                // so shutdown arrives with the shard mid-recovery and a queue
                // of untouched requests behind it.
                .inject_faults(FaultPlan::new().inject(
                    FaultSite::chunk(0, 0),
                    FaultAction::DelayOnce(Duration::from_millis(400)),
                ))
                .start(),
        );

    let mut clients = Vec::new();
    for c in 0..10 {
        let svc = Arc::clone(&svc);
        let csr = Arc::clone(&csr);
        clients.push(std::thread::spawn(move || {
            let x = x_for(100, c);
            let mut want = vec![0.0f64; 120];
            csr.spmv(&x, &mut want);
            let r = svc.submit(req("m", "t", x, Duration::from_secs(30)));
            (c, want, r)
        }));
    }
    std::thread::sleep(Duration::from_millis(60)); // traffic queues up

    let t0 = std::time::Instant::now();
    // Clients are still blocked inside submit (holding Arc clones), so
    // shutdown is initiated through the shared-handle entry point.
    svc.begin_shutdown(Duration::from_millis(100));
    let stats = svc.stats();
    for h in clients {
        let (c, want, r) = h.join().unwrap();
        match r {
            Ok(resp) => assert_eq!(resp.y, want, "client {c}: drained result must be correct"),
            Err(ServiceError::DeadlineExceeded { .. }) | Err(ServiceError::ShuttingDown) => {}
            Err(e) => panic!("client {c}: unexpected terminal error {e}"),
        }
    }
    // Shutdown + drain + expiry must finish in bounded time: the drain
    // budget plus the wedged batch, nowhere near the 30s budgets (let
    // alone the reply-grace backstop).
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "shutdown took {:?}; replies were not published promptly",
        t0.elapsed()
    );
    assert_eq!(
        stats.admitted,
        stats.completed + stats.deadline_expired + stats.failed,
        "every admitted request terminated in exactly one reply"
    );
}

#[test]
fn corrupted_chunk_is_repaired_by_the_self_check() {
    let coo = irregular(110, 100, 53);
    let csr: Csr<u32, f64> = coo.to_csr();
    let cfg = ServiceConfig {
        threads: 2,
        caller_participates: false,
        verify_every: 1, // cross-check every chunk
        default_deadline: Duration::from_secs(30),
        max_exec_deadline: Duration::from_secs(30),
        ..ServiceConfig::default()
    };
    let svc = ServiceBuilder::new(cfg)
        .register_matrix("m", Arc::new(CsrChunks::new(Arc::new(csr.clone()), 5)))
        .inject_faults(FaultPlan::new().inject(FaultSite::chunk(0, 1), FaultAction::CorruptChunk))
        .start();

    let x = x_for(100, 4);
    let mut want = vec![0.0f64; 110];
    csr.spmv(&x, &mut want);
    let resp = svc.submit(req("m", "t", x, Duration::from_secs(30))).unwrap();
    assert_eq!(resp.y, want, "silent corruption must be caught and repaired");
    assert!(resp.degraded, "the repair shows up as a degraded (but correct) response");
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 1);
    assert!(stats.pool_faults >= 1);
}
