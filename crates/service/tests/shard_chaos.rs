//! Shard-supervision chaos: dispatcher shards are killed or stalled
//! *while* concurrent mixed-tenant traffic is in flight, and the hot
//! matrix lifecycle runs against live traffic. The acceptance bar:
//! zero lost requests — every admitted request terminates with a
//! bit-identical result or an allowed typed error, the per-shard
//! counter mirrors sum exactly to the globals, and the supervisor
//! demonstrably respawned what was killed. These tests drive the chaos
//! through `kill_shard`/`stall_shard`, so they need no feature flags.

use spmv_core::{Coo, Csr, SpMv};
use spmv_parallel::{ChunkKernel, CsrChunks};
use spmv_service::{
    Request, ServiceBuilder, ServiceConfig, ServiceError, ServiceStats, ShardStats, SpmvService,
    TenantLimits,
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

fn req(matrix: &str, tenant: &str, x: Vec<f64>) -> Request {
    Request { matrix: matrix.into(), tenant: tenant.into(), x, deadline: None }
}

/// Long-deadline base config: chaos comes from the drills, not timing.
fn calm_config() -> ServiceConfig {
    ServiceConfig {
        default_deadline: Duration::from_secs(60),
        max_exec_deadline: Duration::from_secs(60),
        threads: 2,
        ..ServiceConfig::default()
    }
}

/// Per-chunk sleep wrapper: stretches batch execution so kills land
/// with traffic genuinely in flight.
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

/// The per-shard mirrors must reproduce the global admission/terminal
/// accounting exactly: each counter's shard sum equals the global, and
/// both count invariants hold within every shard on its own.
fn assert_shard_invariants(stats: &ServiceStats) {
    let sum = |f: fn(&ShardStats) -> u64| stats.shards.iter().map(f).sum::<u64>();
    assert_eq!(stats.submitted, sum(|s| s.submitted), "submitted != shard sum");
    assert_eq!(stats.admitted, sum(|s| s.admitted), "admitted != shard sum");
    assert_eq!(stats.shed_overload, sum(|s| s.shed_overload), "shed_overload != shard sum");
    assert_eq!(stats.shed_quota, sum(|s| s.shed_quota), "shed_quota != shard sum");
    assert_eq!(
        stats.deadline_expired,
        sum(|s| s.deadline_expired),
        "deadline_expired != shard sum"
    );
    assert_eq!(stats.completed, sum(|s| s.completed), "completed != shard sum");
    assert_eq!(stats.failed, sum(|s| s.failed), "failed != shard sum");
    for s in &stats.shards {
        assert_eq!(
            s.submitted,
            s.admitted + s.shed_overload + s.shed_quota,
            "shard {}: admission leak",
            s.shard
        );
        assert_eq!(
            s.admitted,
            s.completed + s.deadline_expired + s.failed,
            "shard {}: lost responses",
            s.shard
        );
    }
}

/// Spins until the supervisor's respawn count reaches `want`.
fn wait_for_respawns(svc: &SpmvService, want: u64, budget: Duration) {
    let t0 = Instant::now();
    while svc.stats().respawns() < want {
        assert!(
            t0.elapsed() < budget,
            "supervisor performed {} respawns, wanted {want}, within {budget:?}",
            svc.stats().respawns()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn killing_every_shard_under_mixed_tenant_load_loses_zero_requests() {
    // 8 matrices hash across 4 shards; 12 clients of 3 tenants keep all
    // of them busy while each shard is killed once mid-run. Deadlines
    // are long and the queue deep, so the only acceptable outcome per
    // request is a bit-identical result.
    let nshards = 4usize;
    let names: Vec<String> = (0..8).map(|i| format!("m{i}")).collect();
    let mats: Vec<Arc<Csr<u32, f64>>> =
        (0..8).map(|i| Arc::new(irregular(120, 100, 60 + i as u64).to_csr())).collect();
    let cfg = ServiceConfig {
        shards: nshards,
        queue_capacity: 256,
        default_tenant_limits: TenantLimits::unlimited(),
        supervise_interval: Duration::from_millis(2),
        ..calm_config()
    };
    let mut builder = ServiceBuilder::new(cfg);
    for (name, m) in names.iter().zip(&mats) {
        let slow = SlowKernel {
            inner: Arc::new(CsrChunks::new(Arc::clone(m), 4)),
            delay: Duration::from_millis(2),
        };
        builder = builder.register_matrix(name.clone(), Arc::new(slow));
    }
    let svc = Arc::new(builder.start());
    assert_eq!(svc.shard_count(), nshards);

    let nclients = 12;
    let per_client = 4;
    let mut handles = Vec::new();
    for c in 0..nclients {
        let svc = Arc::clone(&svc);
        let names = names.clone();
        let mats = mats.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..per_client {
                let phase = c * per_client + i;
                let m = phase % names.len();
                let x = x_for(mats[m].ncols(), phase);
                let mut want = vec![0.0f64; mats[m].nrows()];
                mats[m].spmv(&x, &mut want);
                let tenant = format!("tenant-{}", c % 3);
                let resp = svc
                    .submit(req(&names[m], &tenant, x))
                    .unwrap_or_else(|e| panic!("client {c} req {i}: {e}"));
                assert_eq!(
                    resp.y, want,
                    "client {c} req {i}: result must be bit-identical through shard kills"
                );
            }
        }));
    }
    // Kill each shard once while the clients are pushing traffic.
    for shard in 0..nshards {
        std::thread::sleep(Duration::from_millis(10));
        assert!(svc.kill_shard(shard), "shard {shard} exists");
    }
    for h in handles {
        h.join().unwrap();
    }
    // Every kill is a death the supervisor must have repaired (idle
    // shards die too — the kill flag is checked in the wait loop).
    wait_for_respawns(&svc, nshards as u64, Duration::from_secs(10));

    let stats = Arc::into_inner(svc).expect("clients joined").shutdown();
    assert_eq!(stats.completed, (nclients * per_client) as u64, "zero lost requests");
    assert_eq!(stats.submitted, stats.admitted + stats.shed_overload + stats.shed_quota);
    assert_eq!(stats.admitted, stats.completed + stats.deadline_expired + stats.failed);
    assert_shard_invariants(&stats);
    assert!(stats.respawns() >= nshards as u64);
    let busy_shards = stats.shards.iter().filter(|s| s.submitted > 0).count();
    assert!(busy_shards >= 2, "8 matrices across 4 shards must spread load, got {busy_shards}");
}

#[test]
fn stalled_shard_is_abandoned_and_its_inflight_batch_replayed() {
    // The stall drill wedges the dispatcher *after* it pops a batch, so
    // the request sits in `inflight` with no heartbeat. The supervisor
    // must abandon the incarnation, requeue the unanswered request, and
    // the replacement must answer it correctly.
    let csr: Arc<Csr<u32, f64>> = Arc::new(irregular(90, 80, 71).to_csr());
    let cfg = ServiceConfig {
        threads: 2,
        default_deadline: Duration::from_secs(30),
        // Keep the stall threshold small: it is stall_grace floored by
        // the worst healthy batch (twice max_exec_deadline).
        max_exec_deadline: Duration::from_millis(50),
        stall_grace: Duration::from_millis(100),
        supervise_interval: Duration::from_millis(5),
        ..ServiceConfig::default()
    };
    let svc = Arc::new(
        ServiceBuilder::new(cfg)
            .register_matrix("m", Arc::new(CsrChunks::new(Arc::clone(&csr), 4)))
            .start(),
    );

    assert!(svc.stall_shard(0));
    let t0 = Instant::now();
    let x = x_for(80, 1);
    let mut want = vec![0.0f64; 90];
    csr.spmv(&x, &mut want);
    let resp = svc.submit(req("m", "t", x)).expect("replayed after the stall");
    assert_eq!(resp.y, want, "replayed result must be bit-identical");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "stall recovery took {:?}; the supervisor should abandon within ~the stall threshold",
        t0.elapsed()
    );

    let stats = Arc::into_inner(svc).expect("sole handle").shutdown();
    assert!(stats.requeued() >= 1, "the wedged batch must be requeued, got {}", stats.requeued());
    assert!(stats.respawns() >= 1);
    assert_eq!(stats.completed, 1);
    assert_shard_invariants(&stats);
}

#[test]
fn repeated_kills_trip_the_shard_breaker_into_serial_drain() {
    let csr: Arc<Csr<u32, f64>> = Arc::new(irregular(70, 60, 73).to_csr());
    let cfg = ServiceConfig {
        shard_trip_after: 2,
        supervise_interval: Duration::from_millis(2),
        ..calm_config()
    };
    let svc = ServiceBuilder::new(cfg)
        .register_matrix("m", Arc::new(CsrChunks::new(Arc::clone(&csr), 4)))
        .start();

    for round in 1..=2u64 {
        assert!(svc.kill_shard(0));
        wait_for_respawns(&svc, round, Duration::from_secs(10));
    }
    // Two respawns tripped the shard breaker: the shard keeps serving,
    // but every batch now runs on the serial fallback — same bits.
    let x = x_for(60, 2);
    let mut want = vec![0.0f64; 70];
    csr.spmv(&x, &mut want);
    let resp = svc.submit(req("m", "t", x)).expect("degraded shard still serves");
    assert_eq!(resp.y, want, "serial-drain result must be bit-identical");
    assert!(resp.serial, "a tripped shard breaker forces the serial path");

    let stats = svc.shutdown();
    assert!(stats.shards[0].degraded, "the shard breaker must be tripped");
    assert!(stats.serial_batches >= 1);
    assert_eq!(stats.completed, 1);
    assert_shard_invariants(&stats);
}

#[test]
fn live_register_and_evict_lifecycle_is_typed_end_to_end() {
    let a: Arc<Csr<u32, f64>> = Arc::new(irregular(60, 50, 77).to_csr());
    let b: Arc<Csr<u32, f64>> = Arc::new(irregular(40, 45, 79).to_csr());
    let kb = || -> Arc<dyn ChunkKernel<f64>> { Arc::new(CsrChunks::new(Arc::clone(&b), 3)) };
    let svc = ServiceBuilder::new(calm_config())
        .register_matrix("a", Arc::new(CsrChunks::new(Arc::clone(&a), 3)))
        .start();

    // Register on the live service; the matrix serves immediately.
    svc.register("b", kb()).expect("live registration");
    let x = x_for(45, 3);
    let mut want = vec![0.0f64; 40];
    b.spmv(&x, &mut want);
    assert_eq!(svc.submit(req("b", "t", x.clone())).unwrap().y, want);
    assert_eq!(svc.matrices().len(), 2);

    // A live name cannot be re-registered (evict first to replace).
    assert!(matches!(
        svc.register("b", kb()),
        Err(ServiceError::AlreadyRegistered(n)) if n == "b"
    ));

    // Evict: the name disappears, typed all the way down.
    svc.evict("b").expect("evict a live matrix");
    assert!(matches!(
        svc.submit(req("b", "t", x.clone())),
        Err(ServiceError::UnknownMatrix(n)) if n == "b"
    ));
    assert!(matches!(svc.evict("b"), Err(ServiceError::UnknownMatrix(n)) if n == "b"));
    assert!(matches!(svc.evict("never"), Err(ServiceError::UnknownMatrix(_))));
    assert_eq!(svc.matrices().len(), 1);

    // Re-register after eviction: the slot is reusable, the old
    // generation is not — and the new registration serves correctly.
    svc.register("b", kb()).expect("re-register after evict");
    assert_eq!(svc.submit(req("b", "t", x)).unwrap().y, want);

    let stats = svc.shutdown();
    assert_eq!(stats.admitted, stats.completed + stats.deadline_expired + stats.failed);
    assert_shard_invariants(&stats);
}

#[test]
fn evicting_a_matrix_with_queued_work_answers_every_request_typed() {
    // Eviction races a backlog: one request is executing, several are
    // queued behind it. Every one must terminate — completed (it beat
    // the sweep or was already in flight) or the typed `Evicting` —
    // and afterwards the name is gone.
    let csr: Arc<Csr<u32, f64>> = Arc::new(irregular(50, 40, 83).to_csr());
    let slow = Arc::new(SlowKernel {
        inner: Arc::new(CsrChunks::new(Arc::clone(&csr), 2)),
        delay: Duration::from_millis(40),
    });
    let cfg = ServiceConfig { max_batch: 1, threads: 1, ..calm_config() };
    let svc = Arc::new(ServiceBuilder::new(cfg).register_matrix("hot", slow).start());

    let mut clients = Vec::new();
    for c in 0..6 {
        let svc = Arc::clone(&svc);
        let csr = Arc::clone(&csr);
        clients.push(std::thread::spawn(move || {
            let x = x_for(40, c);
            let mut want = vec![0.0f64; 50];
            csr.spmv(&x, &mut want);
            (want, svc.submit(req("hot", "t", x)))
        }));
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(30)); // a backlog forms
    svc.evict("hot").expect("evict with queued work");

    let mut evicted = 0u64;
    for h in clients {
        let (want, r) = h.join().unwrap();
        match r {
            Ok(resp) => assert_eq!(resp.y, want, "pre-sweep completion must be correct"),
            Err(ServiceError::Evicting(n)) => {
                assert_eq!(n, "hot");
                evicted += 1;
            }
            Err(e) => panic!("unexpected terminal error {e}"),
        }
    }
    assert!(evicted >= 1, "a 40ms/chunk backlog of 6 must catch the eviction sweep");
    assert!(matches!(
        svc.submit(req("hot", "t", x_for(40, 9))),
        Err(ServiceError::UnknownMatrix(_))
    ));

    let stats = Arc::into_inner(svc).expect("clients joined").shutdown();
    assert_eq!(stats.failed, evicted, "evicting replies are the only failures");
    assert_eq!(stats.admitted, stats.completed + stats.deadline_expired + stats.failed);
    assert_shard_invariants(&stats);
}
