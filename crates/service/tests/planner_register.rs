//! Planner-routed registration: `register_csr` without an explicit
//! format must pick one through the cost model (checked on this host by
//! the default host trial when the model picks compression), serve
//! bit-identical results, answer evict + re-register cycles from the plan
//! cache with zero fresh encodes, and refuse a doomed registration before
//! planning it.

use spmv_core::{Coo, Csr, FormatKind, SpMv};
use spmv_memsim::{Planner, PlannerConfig};
use spmv_service::{Request, ServiceBuilder, ServiceConfig, ServiceError, SpmvService};
use std::sync::Arc;
use std::time::Duration;

fn test_matrix(n: usize) -> Arc<Csr<u32, f64>> {
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        for d in [-1i64, 0, 1] {
            let c = r as i64 + d;
            if (0..n as i64).contains(&c) {
                // Few distinct values, so CSR-VI is a live candidate.
                coo.push(r, c as usize, [1.0, 2.0, -1.0][(r + c as usize) % 3]).unwrap();
            }
        }
    }
    Arc::new(coo.to_csr())
}

fn cfg() -> ServiceConfig {
    ServiceConfig {
        threads: 2,
        default_deadline: Duration::from_secs(5),
        ..ServiceConfig::default()
    }
}

fn submit(svc: &SpmvService, name: &str, x: Vec<f64>) -> Vec<f64> {
    svc.submit(Request { matrix: name.into(), tenant: "t".into(), x, deadline: None })
        .expect("planned matrix serves requests")
        .y
}

#[test]
fn register_without_format_routes_through_planner() {
    let m = test_matrix(600);
    let (builder, plan) = ServiceBuilder::new(cfg())
        .register_csr("planned", Arc::clone(&m))
        .expect("plannable matrix");
    assert!(!plan.cache_hit);
    assert!(plan.threads >= 1 && plan.threads <= 2, "candidates clamped to the pool");
    let svc = builder.start();

    let x: Vec<f64> = (0..m.ncols()).map(|i| (i % 7) as f64 - 3.0).collect();
    let y = submit(&svc, "planned", x.clone());
    let mut want = vec![0.0; m.nrows()];
    m.spmv(&x, &mut want);
    assert_eq!(y, want, "planned kernel must be bit-identical to serial CSR");

    let s = svc.planner_stats();
    assert_eq!((s.hits, s.misses), (0, 1));
    svc.shutdown();
}

#[test]
fn evict_and_reregister_is_a_cache_hit_with_zero_new_encodes() {
    let m = test_matrix(400);
    let svc = ServiceBuilder::new(cfg()).start();

    let cold = svc.register_csr("m", Arc::clone(&m)).expect("cold registration");
    assert!(!cold.cache_hit);
    let encodes_after_cold = svc.planner_stats().encodes;

    let x = vec![1.0; m.ncols()];
    let y_cold = submit(&svc, "m", x.clone());

    svc.evict("m").expect("evict");
    let warm = svc.register_csr("m", Arc::clone(&m)).expect("warm registration");
    assert!(warm.cache_hit, "re-registering a known matrix must hit the cache");
    assert_eq!((warm.format, warm.threads, warm.chunks), (cold.format, cold.threads, cold.chunks));

    let s = svc.planner_stats();
    assert_eq!(s.hits, 1);
    assert_eq!(s.misses, 1);
    assert_eq!(s.encodes, encodes_after_cold, "cache hit must not re-encode candidates");

    let y_warm = submit(&svc, "m", x);
    assert_eq!(y_warm, y_cold);
    svc.shutdown();
}

#[test]
fn degenerate_matrices_register_without_panicking() {
    let svc = ServiceBuilder::new(cfg()).start();

    // 0-nnz: trivial serial-CSR fallback plan.
    let empty: Arc<Csr<u32, f64>> = Arc::new(Coo::new(5, 5).to_csr());
    let plan = svc.register_csr("empty", empty).expect("degenerate plan");
    assert_eq!(plan.threads, 1);
    let y = submit(&svc, "empty", vec![1.0; 5]);
    assert_eq!(y, vec![0.0; 5]);

    // 1x1.
    let mut coo = Coo::new(1, 1);
    coo.push(0, 0, 2.5).unwrap();
    let one: Arc<Csr<u32, f64>> = Arc::new(coo.to_csr());
    svc.register_csr("one", one).expect("1x1 plan");
    assert_eq!(submit(&svc, "one", vec![2.0]), vec![5.0]);
    svc.shutdown();
}

/// The service's own planner settings with the host trial off: what the
/// cost model alone would plan.
fn model_only(svc: &SpmvService) -> Planner {
    Planner::new(PlannerConfig { host_trial: false, ..svc.planner().config().clone() })
}

#[test]
fn host_trial_pick_serves_bit_identical_results_and_replays_from_cache() {
    // Large enough that the model plans a compressed format at 2 threads,
    // so the default host trial runs on the cold registration.
    let m = test_matrix(100_000);
    let svc = ServiceBuilder::new(cfg()).start();
    assert!(svc.planner().config().host_trial, "the service trials compressed picks by default");
    let model = model_only(&svc).plan_csr(&m).expect("plannable");
    assert_ne!(model.format, FormatKind::Csr, "the model must pick compressed here");

    let cold = svc.register_csr("m", Arc::clone(&m)).expect("cold registration");
    assert!(!cold.cache_hit);
    assert_eq!((cold.threads, cold.chunks), (2, 4), "the plan runs the timed cell");
    assert_eq!(svc.planner_stats().encodes, 3, "the trial encodes nothing extra");

    let x: Vec<f64> = (0..m.ncols()).map(|i| (i % 11) as f64 * 0.5 - 2.0).collect();
    let mut want = vec![0.0; m.nrows()];
    m.spmv(&x, &mut want);
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&submit(&svc, "m", x.clone())), bits(&want), "trial pick vs serial CSR");

    svc.evict("m").expect("evict");
    let warm = svc.register_csr("m", Arc::clone(&m)).expect("warm registration");
    assert!(warm.cache_hit);
    assert_eq!((warm.format, warm.threads, warm.chunks), (cold.format, cold.threads, cold.chunks));
    let s = svc.planner_stats();
    assert_eq!((s.hits, s.misses, s.encodes), (1, 1, 3), "a hit replays without the trial");
    assert_eq!(bits(&submit(&svc, "m", x)), bits(&want));
    svc.shutdown();
}

#[test]
fn register_csr_under_a_live_name_fails_before_planning() {
    let svc = ServiceBuilder::new(cfg()).start();
    svc.register_csr("m", test_matrix(400)).expect("first registration");
    let before = svc.planner_stats();
    let other = test_matrix(500);
    assert!(matches!(
        svc.register_csr("m", other),
        Err(ServiceError::AlreadyRegistered(name)) if name == "m"
    ));
    assert_eq!(svc.planner_stats(), before, "a duplicate name must not be planned");
    svc.shutdown();
}

#[test]
fn register_csr_after_begin_shutdown_fails_before_planning() {
    let svc = ServiceBuilder::new(cfg()).start();
    svc.begin_shutdown(Duration::from_millis(50));
    let before = svc.planner_stats();
    assert!(matches!(svc.register_csr("late", test_matrix(400)), Err(ServiceError::ShuttingDown)));
    assert_eq!(svc.planner_stats(), before, "a closed service must not plan");
}
