//! End-to-end service tests: correctness against serial SpMV across
//! kernel formats, admission control (capacity and quota sheds),
//! deadline behavior, coalescing accounting, and shutdown draining.

use spmv_core::csr_du::CsrDu;
use spmv_core::csr_du::DuOptions;
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Coo, Csr, SpMv};
use spmv_parallel::{ChunkKernel, CsrChunks, CsrDuChunks, CsrDuViChunks, CsrViChunks};
use spmv_service::{
    Request, ServiceBuilder, ServiceConfig, ServiceError, SpmvService, TenantLimits,
};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
            continue; // empty row
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

/// A long-deadline config so healthy tests never trip timing paths.
fn calm_config() -> ServiceConfig {
    ServiceConfig {
        default_deadline: Duration::from_secs(60),
        max_exec_deadline: Duration::from_secs(60),
        threads: 3,
        ..ServiceConfig::default()
    }
}

fn req(matrix: &str, tenant: &str, x: Vec<f64>) -> Request {
    Request { matrix: matrix.into(), tenant: tenant.into(), x, deadline: None }
}

/// A kernel wrapper that sleeps per chunk computation, so tests can
/// deterministically occupy the dispatcher and build a backlog.
struct SlowKernel {
    inner: Arc<dyn ChunkKernel<f64>>,
    delay: Duration,
}

impl ChunkKernel<f64> for SlowKernel {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn nchunks(&self) -> usize {
        self.inner.nchunks()
    }
    fn chunk_rows(&self, chunk: usize) -> Range<usize> {
        self.inner.chunk_rows(chunk)
    }
    fn compute_block(&self, chunk: usize, x: &[f64], k: usize, out: &mut [f64]) {
        std::thread::sleep(self.delay);
        self.inner.compute_block(chunk, x, k, out);
    }
}

#[test]
fn results_are_bit_identical_to_serial_across_formats() {
    let coo = irregular(180, 150, 42);
    let csr: Csr<u32, f64> = coo.to_csr();
    let du = CsrDu::from_csr(&csr, &DuOptions::default());
    let vi = CsrVi::from_csr(&csr);
    let duvi = CsrDuVi::from_csr(&csr, &DuOptions::default());
    let svc = ServiceBuilder::new(calm_config())
        .register_matrix("csr", Arc::new(CsrChunks::new(Arc::new(csr.clone()), 7)))
        .register_matrix("csr-du", Arc::new(CsrDuChunks::new(Arc::new(du), 7)))
        .register_matrix("csr-vi", Arc::new(CsrViChunks::new(Arc::new(vi), 7)))
        .register_matrix("csr-duvi", Arc::new(CsrDuViChunks::new(Arc::new(duvi), 7)))
        .start();

    for name in ["csr", "csr-du", "csr-vi", "csr-duvi"] {
        let x = x_for(150, 3);
        let mut want = vec![0.0f64; 180];
        csr.spmv(&x, &mut want);
        let resp = svc.submit(req(name, "t0", x)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(resp.y, want, "{name}: service result must be bit-identical to serial");
        assert!(!resp.degraded, "{name}: healthy run");
        assert!(!resp.serial, "{name}: breaker should be closed");
    }
    let stats = svc.shutdown();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.admitted, stats.completed + stats.deadline_expired + stats.failed);
}

#[test]
fn concurrent_traffic_coalesces_and_every_result_is_correct() {
    let coo = irregular(160, 140, 7);
    let csr: Csr<u32, f64> = coo.to_csr();
    let csr = Arc::new(csr);
    let svc = Arc::new(
        ServiceBuilder::new(calm_config())
            .register_matrix("a", Arc::new(CsrChunks::new(Arc::clone(&csr), 5)))
            .start(),
    );

    let nclients = 24;
    let mut handles = Vec::new();
    for c in 0..nclients {
        let svc = Arc::clone(&svc);
        let csr = Arc::clone(&csr);
        handles.push(std::thread::spawn(move || {
            let x = x_for(140, c);
            let mut want = vec![0.0f64; 160];
            csr.spmv(&x, &mut want);
            let resp = svc.submit(req("a", &format!("tenant-{}", c % 3), x)).unwrap();
            assert_eq!(resp.y, want, "client {c}");
            assert!(resp.batch_k >= 1 && resp.batch_k <= 8);
            resp.batch_k
        }));
    }
    let widths: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let stats = svc.stats();
    assert_eq!(stats.completed, nclients as u64);
    assert_eq!(stats.admitted, stats.completed + stats.deadline_expired + stats.failed);
    assert_eq!(stats.submitted, stats.admitted + stats.shed_overload + stats.shed_quota);
    // The histogram accounts for every completed request exactly once.
    assert_eq!(stats.batched_requests(), nclients as u64);
    // Each client's reported width matches a recorded batch width.
    for w in widths {
        assert!(stats.batch_sizes[w - 1] > 0, "width {w} reported but not recorded");
    }
}

#[test]
fn full_queue_sheds_with_overloaded() {
    let coo = irregular(40, 40, 9);
    let csr: Csr<u32, f64> = coo.to_csr();
    let slow = Arc::new(SlowKernel {
        inner: Arc::new(CsrChunks::new(Arc::new(csr), 2)),
        delay: Duration::from_millis(60),
    });
    let cfg = ServiceConfig {
        queue_capacity: 2,
        max_batch: 1, // no coalescing: each queued request holds a slot
        threads: 1,
        ..calm_config()
    };
    let svc = Arc::new(ServiceBuilder::new(cfg).register_matrix("m", slow).start());

    // Saturate: one request occupies the dispatcher (~120ms), two fill
    // the queue, and further arrivals must shed while it is still busy.
    let mut clients = Vec::new();
    for c in 0..12 {
        let svc = Arc::clone(&svc);
        clients.push(std::thread::spawn(move || {
            let r = svc.submit(req("m", "t", x_for(40, c)));
            (c, r)
        }));
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut ok = 0u64;
    let mut overloaded = 0u64;
    for h in clients {
        let (c, r) = h.join().unwrap();
        match r {
            Ok(resp) => {
                assert!(!resp.y.is_empty(), "client {c}");
                ok += 1;
            }
            Err(ServiceError::Overloaded { capacity, .. }) => {
                assert_eq!(capacity, 2);
                overloaded += 1;
            }
            Err(e) => panic!("client {c}: unexpected error {e}"),
        }
    }
    assert!(ok >= 1, "some requests must complete");
    assert!(overloaded >= 1, "a 2-slot queue under 12 fast arrivals must shed");
    let stats = svc.stats();
    assert_eq!(stats.shed_overload, overloaded);
    assert_eq!(stats.submitted, stats.admitted + stats.shed_overload + stats.shed_quota);
}

#[test]
fn tenant_quota_sheds_only_the_noisy_tenant() {
    let coo = irregular(40, 40, 11);
    let csr: Csr<u32, f64> = coo.to_csr();
    let slow = Arc::new(SlowKernel {
        inner: Arc::new(CsrChunks::new(Arc::new(csr), 2)),
        delay: Duration::from_millis(50),
    });
    let cfg = ServiceConfig { queue_capacity: 64, max_batch: 1, threads: 1, ..calm_config() };
    let svc = Arc::new(
        ServiceBuilder::new(cfg)
            .register_matrix("m", slow)
            .set_tenant_limits(
                "noisy",
                TenantLimits { max_inflight: 1, ..TenantLimits::unlimited() },
            )
            .start(),
    );

    let mut clients = Vec::new();
    for c in 0..8 {
        let svc = Arc::clone(&svc);
        let tenant = if c % 2 == 0 { "noisy" } else { "polite" };
        clients.push(std::thread::spawn(move || svc.submit(req("m", tenant, x_for(40, c)))));
        std::thread::sleep(Duration::from_millis(5));
    }
    let results: Vec<_> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    let quota_sheds = results
        .iter()
        .filter(|r| matches!(r, Err(ServiceError::TenantQuotaExceeded { tenant, quota: 1, .. }) if tenant == "noisy"))
        .count();
    assert!(quota_sheds >= 1, "noisy tenant at quota 1 must shed under 4 queued requests");
    for r in &results {
        match r {
            Ok(_) | Err(ServiceError::TenantQuotaExceeded { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(svc.stats().shed_quota, quota_sheds as u64);
}

#[test]
fn zero_budget_fails_fast_and_queued_expiry_is_typed() {
    let coo = irregular(50, 50, 13);
    let csr: Csr<u32, f64> = coo.to_csr();
    let slow = Arc::new(SlowKernel {
        inner: Arc::new(CsrChunks::new(Arc::new(csr), 2)),
        delay: Duration::from_millis(80),
    });
    let cfg = ServiceConfig { max_batch: 1, threads: 1, ..calm_config() };
    let svc = Arc::new(ServiceBuilder::new(cfg).register_matrix("m", slow).start());

    // Zero budget: rejected before admission, not counted as submitted.
    let r = svc.submit(Request {
        matrix: "m".into(),
        tenant: "t".into(),
        x: x_for(50, 0),
        deadline: Some(Duration::ZERO),
    });
    assert!(matches!(r, Err(ServiceError::DeadlineExceeded { .. })));
    assert_eq!(svc.stats().expired_at_submit, 1);
    assert_eq!(svc.stats().submitted, 0);

    // A tight budget behind a slow request expires in the queue with a
    // typed error (dispatcher-side or backstop, both are accounted).
    let blocker = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.submit(req("m", "t", x_for(50, 1))))
    };
    std::thread::sleep(Duration::from_millis(20)); // blocker reaches the pool
    let tight = svc.submit(Request {
        matrix: "m".into(),
        tenant: "t".into(),
        x: x_for(50, 2),
        deadline: Some(Duration::from_millis(1)),
    });
    match tight {
        Err(ServiceError::DeadlineExceeded { waited }) => {
            assert!(waited >= Duration::from_millis(1));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    blocker.join().unwrap().expect("blocker completes");
    let stats = svc.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.admitted, stats.completed + stats.deadline_expired + stats.failed);
}

#[test]
fn invalid_requests_are_typed_and_uncounted_in_load_stats() {
    let coo = irregular(30, 30, 17);
    let csr: Csr<u32, f64> = coo.to_csr();
    let svc = ServiceBuilder::new(calm_config())
        .register_matrix("m", Arc::new(CsrChunks::new(Arc::new(csr), 2)))
        .set_tenant_limits(
            "small",
            TenantLimits { max_inflight: 8, max_vector_bytes: 64, ..TenantLimits::unlimited() },
        )
        .start();

    assert!(matches!(
        svc.submit(req("nope", "t", x_for(30, 0))),
        Err(ServiceError::UnknownMatrix(n)) if n == "nope"
    ));
    assert!(matches!(
        svc.submit(req("m", "t", x_for(31, 0))),
        Err(ServiceError::DimensionMismatch { expected: 30, got: 31 })
    ));
    assert!(matches!(
        svc.submit(req("m", "small", x_for(30, 0))),
        Err(ServiceError::VectorTooLarge { bytes: 240, max_bytes: 64 })
    ));
    let stats = svc.stats();
    assert_eq!(stats.rejected_invalid, 3);
    assert_eq!(stats.submitted, 0, "invalid requests never reach admission");
}

#[test]
fn shutdown_drains_queued_requests_with_typed_errors_and_never_hangs() {
    let coo = irregular(40, 40, 19);
    let csr: Csr<u32, f64> = coo.to_csr();
    let slow = Arc::new(SlowKernel {
        inner: Arc::new(CsrChunks::new(Arc::new(csr), 2)),
        delay: Duration::from_millis(60),
    });
    let cfg = ServiceConfig { max_batch: 1, threads: 1, ..calm_config() };
    let svc = Arc::new(ServiceBuilder::new(cfg).register_matrix("m", slow).start());

    let mut clients = Vec::new();
    for c in 0..6 {
        let svc = Arc::clone(&svc);
        clients.push(std::thread::spawn(move || svc.submit(req("m", "t", x_for(40, c)))));
    }
    std::thread::sleep(Duration::from_millis(30)); // let them queue
    let t0 = Instant::now();
    let svc = Arc::into_inner(svc).map(SpmvService::shutdown);
    // Arc::into_inner fails while clients still hold clones — but each
    // client's handle was moved into its thread, so dropping happens as
    // they finish. Retry is unnecessary: clients are unblocked by the
    // drain (or complete normally), so joining them is bounded.
    let mut outcomes = Vec::new();
    for h in clients {
        outcomes.push(h.join().unwrap());
    }
    assert!(t0.elapsed() < Duration::from_secs(30), "shutdown must be prompt");
    for r in &outcomes {
        match r {
            Ok(_)
            | Err(ServiceError::ShuttingDown)
            | Err(ServiceError::DeadlineExceeded { .. }) => {}
            Err(e) => panic!("unexpected terminal error {e}"),
        }
    }
    if let Some(stats) = svc {
        assert_eq!(stats.admitted, stats.completed + stats.deadline_expired + stats.failed);
    }
}

#[test]
fn serve_then_shutdown_yields_exact_counters() {
    let coo = irregular(20, 20, 23);
    let csr: Csr<u32, f64> = coo.to_csr();
    let svc = ServiceBuilder::new(calm_config())
        .register_matrix("m", Arc::new(CsrChunks::new(Arc::new(csr), 2)))
        .start();
    let resp = svc.submit(req("m", "t", x_for(20, 1))).unwrap();
    assert_eq!(resp.batch_k, 1);
    assert_eq!(resp.y.len(), 20);
    let stats = svc.shutdown();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.batches(), 1);
    assert_eq!(stats.batch_sizes[0], 1);
}

#[test]
fn drr_weights_split_batch_leads_proportionally() {
    // One shard, one thread, no coalescing: batches pop strictly in DRR
    // order and execute serially, so completion order == scheduler
    // order. A weight-3 tenant whose requests all arrive first should
    // lead 3 batches per round to the weight-1 tenant's 1 — not drain
    // its whole backlog first (FIFO) and not alternate 1:1.
    let coo = irregular(30, 30, 31);
    let csr: Csr<u32, f64> = coo.to_csr();
    let slow = Arc::new(SlowKernel {
        inner: Arc::new(CsrChunks::new(Arc::new(csr), 2)),
        delay: Duration::from_millis(60),
    });
    let cfg = ServiceConfig { max_batch: 1, threads: 1, ..calm_config() };
    let svc = Arc::new(
        ServiceBuilder::new(cfg)
            .register_matrix("m", slow)
            .set_tenant_limits("heavy", TenantLimits { weight: 3, ..TenantLimits::unlimited() })
            .set_tenant_limits("light", TenantLimits::unlimited())
            .start(),
    );

    // Occupy the dispatcher (~120ms) so the real traffic queues up
    // behind it and the scheduler sees the full backlog at once.
    let blocker = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.submit(req("m", "blocker", x_for(30, 99))))
    };
    std::thread::sleep(Duration::from_millis(20));
    let mut clients = Vec::new();
    for c in 0..8 {
        let tenant = if c < 6 { "heavy" } else { "light" };
        let svc = Arc::clone(&svc);
        clients.push(std::thread::spawn(move || {
            let r = svc.submit(req("m", tenant, x_for(30, c))).unwrap();
            assert!(!r.y.is_empty());
            (tenant, Instant::now())
        }));
        std::thread::sleep(Duration::from_millis(3)); // order arrivals
    }
    blocker.join().unwrap().expect("blocker completes");
    let mut done: Vec<(&str, Instant)> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    done.sort_by_key(|(_, t)| *t);
    let order: Vec<&str> = done.iter().map(|(t, _)| *t).collect();
    assert_eq!(
        order,
        [
            "heavy", "heavy", "heavy", "light", // round 1: 3 credits vs 1
            "heavy", "heavy", "heavy", "light", // round 2
        ],
        "weight-3 tenant leads 3 batches per weight-1 batch"
    );
}

#[test]
fn flooding_tenant_cannot_starve_a_polite_tenant() {
    // Acceptance criterion for the DRR scheduler: a tenant flooding the
    // queue with 10x the traffic cannot push another tenant's p99
    // admission wait above the configured bound. With FIFO the polite
    // request would wait behind the flooder's whole backlog
    // (30 requests x ~30ms ≈ 900ms); with DRR it waits one or two
    // batches. Coalescing is off (different matrices per tenant), so
    // the flooder cannot smuggle riders into polite batches either.
    let coo = irregular(30, 30, 37);
    let slow = || {
        let csr: Csr<u32, f64> = coo.to_csr();
        Arc::new(SlowKernel {
            inner: Arc::new(CsrChunks::new(Arc::new(csr), 2)),
            delay: Duration::from_millis(15),
        })
    };
    let cfg = ServiceConfig {
        max_batch: 1,
        threads: 1,
        queue_capacity: 256,
        default_tenant_limits: TenantLimits::unlimited(),
        ..calm_config()
    };
    let svc = Arc::new(
        ServiceBuilder::new(cfg)
            .register_matrix("flood-m", slow())
            .register_matrix("polite-m", slow())
            .start(),
    );

    // The flooder keeps a deep backlog queued for the whole test.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut flooders = Vec::new();
    for c in 0..30 {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        flooders.push(std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let _ = svc.submit(req("flood-m", "flood", x_for(30, c)));
            }
        }));
    }
    std::thread::sleep(Duration::from_millis(100)); // backlog builds

    // The polite tenant submits sequentially; every wait is recorded.
    let mut waits = Vec::new();
    for c in 0..12 {
        let r = svc.submit(req("polite-m", "polite", x_for(30, c))).unwrap();
        waits.push(r.queue_wait);
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    for f in flooders {
        f.join().unwrap();
    }
    waits.sort();
    let p99 = waits[waits.len() - 1]; // max of 12 samples ≥ p99
    let bound = Duration::from_millis(300);
    assert!(
        p99 < bound,
        "polite tenant's worst admission wait {p99:?} exceeds the fairness bound \
         {bound:?} under a 30-deep flood (waits: {waits:?})"
    );
}

#[test]
fn unbounded_deadline_serves_and_releases_its_quota_slot() {
    // `Duration::MAX` is past any `Instant`: it must read as "no
    // deadline", and each request must give its tenant's quota slot back.
    // One more such request than the default quota, then a normal one.
    let coo = irregular(90, 70, 31);
    let csr: Csr<u32, f64> = coo.to_csr();
    let svc = ServiceBuilder::new(calm_config())
        .register_matrix("m", Arc::new(CsrChunks::new(Arc::new(csr.clone()), 4)))
        .start();
    let n = TenantLimits::default().max_inflight + 1;
    for i in 0..n {
        let x = x_for(70, i);
        let mut want = vec![0.0f64; 90];
        csr.spmv(&x, &mut want);
        let r = Request { deadline: Some(Duration::MAX), ..req("m", "t", x) };
        let resp = svc.submit(r).unwrap_or_else(|e| panic!("request {i}: {e}"));
        assert_eq!(resp.y, want, "request {i}");
    }
    svc.submit(req("m", "t", x_for(70, 0))).expect("no quota slot leaked");
    let stats = svc.shutdown();
    let total = n as u64 + 1;
    assert_eq!((stats.submitted, stats.admitted, stats.completed), (total, total, total));
    assert_eq!(stats.submitted, stats.admitted + stats.shed_overload + stats.shed_quota);
    assert_eq!(stats.admitted, stats.completed + stats.deadline_expired + stats.failed);
}

#[test]
fn unbounded_exec_deadline_serves_and_shuts_down_cleanly() {
    // `max_exec_deadline: Duration::MAX` means "never triage a stall";
    // the client backstop and the supervisor scale their slack with it,
    // saturating rather than overflowing.
    let coo = irregular(90, 80, 37);
    let csr: Csr<u32, f64> = coo.to_csr();
    let cfg = ServiceConfig { max_exec_deadline: Duration::MAX, ..calm_config() };
    let svc = ServiceBuilder::new(cfg)
        .register_matrix("m", Arc::new(CsrChunks::new(Arc::new(csr.clone()), 4)))
        .start();
    let x = x_for(80, 2);
    let mut want = vec![0.0f64; 90];
    csr.spmv(&x, &mut want);
    let resp = svc.submit(req("m", "t", x)).expect("served");
    assert_eq!(resp.y, want);
    let stats = svc.shutdown();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
}

/// Serves one request on a fresh service over an irregular matrix and
/// returns the service.
fn serve_one(cfg: ServiceConfig) -> SpmvService {
    let csr: Csr<u32, f64> = irregular(90, 60, 43).to_csr();
    let svc = ServiceBuilder::new(cfg)
        .register_matrix("m", Arc::new(CsrChunks::new(Arc::new(csr.clone()), 4)))
        .start();
    let x = x_for(60, 5);
    let mut want = vec![0.0f64; 90];
    csr.spmv(&x, &mut want);
    assert_eq!(svc.submit(req("m", "t", x)).expect("served").y, want);
    svc
}

fn assert_one_served(stats: &spmv_service::ServiceStats) {
    assert_eq!((stats.submitted, stats.admitted, stats.completed), (1, 1, 1));
    assert_eq!(stats.submitted, stats.admitted + stats.shed_overload + stats.shed_quota);
    assert_eq!(stats.admitted, stats.completed + stats.deadline_expired + stats.failed);
}

#[test]
fn unbounded_drain_budget_shuts_down_and_returns() {
    // `Duration::MAX` is past any `Instant`: the drain must read it as
    // "wait until the queues are empty", then stop the threads.
    let stats = serve_one(calm_config()).shutdown_within(Duration::MAX);
    assert_one_served(&stats);

    let svc = Arc::new(serve_one(calm_config()));
    svc.begin_shutdown(Duration::MAX);
    assert_one_served(&svc.stats());
    assert!(matches!(svc.submit(req("m", "t", x_for(60, 1))), Err(ServiceError::ShuttingDown)));
}

#[test]
fn unbounded_drain_deadline_drops_cleanly() {
    // The same budget from the config, reached through `Drop`.
    let svc = serve_one(ServiceConfig { drain_deadline: Duration::MAX, ..calm_config() });
    assert_one_served(&svc.stats());
    drop(svc);
}
