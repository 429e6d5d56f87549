//! Dispatch-overhead bench: persistent [`WorkerPool`] vs spawn-per-call.
//!
//! On a *small* matrix the kernel itself is microseconds, so per-call
//! dispatch cost dominates: spawning OS threads every call (the old
//! executors' `thread::scope` pattern) pays a spawn + join per thread per
//! call, while the pool pays two condvar signals. This bench quantifies
//! the gap the worker-pool refactor closed, and also times a full
//! pool-backed `ParCsr::par_spmv` so the end-to-end small-matrix call
//! cost is visible next to the raw dispatch cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spmv_bench::measured::random_x;
use spmv_core::{split_mut, Csr};
use spmv_parallel::{ParCsr, ParSpMv, Parts, RowPartition, WorkerPool};
use std::hint::black_box;

fn benches(c: &mut Criterion) {
    // Small on purpose: ~4k rows, ~20k nnz — the kernel is far cheaper
    // than an OS thread spawn.
    let coo = spmv_matgen::gen::banded(4_000, 5, 1.0, 17);
    let csr: Csr = coo.to_csr();
    let x = random_x::<f64>(csr.ncols(), 3);
    let mut y = vec![0.0f64; csr.nrows()];
    let isa = spmv_core::simd::selected();

    let threads: Vec<usize> = [2usize, 4].into_iter().filter(|&t| t <= 2 * num_cpus()).collect();

    for &t in &threads {
        let mut group = c.benchmark_group(format!("dispatch/{t}threads"));
        group.throughput(Throughput::Elements(csr.nnz() as u64));
        let part = RowPartition::for_csr(&csr, t);
        let (csr, x, part) = (&csr, &x, &part);

        // Spawn-per-call baseline: the pre-refactor executor pattern.
        group.bench_with_input(BenchmarkId::new("spawn-per-call", t), &t, |b, _| {
            b.iter(|| {
                let pieces = split_mut(black_box(&mut y), &part.bounds);
                std::thread::scope(|s| {
                    for (tid, y_local) in pieces.into_iter().enumerate() {
                        let r = part.part(tid);
                        s.spawn(move || {
                            csr.spmm_rows_local_isa(isa, r.start, r.end, x, 1, y_local)
                        });
                    }
                });
            })
        });

        // Persistent pool running the identical per-thread body.
        let parts = Parts::new((0..t).map(|tid| part.part(tid)).collect());
        let mut pool = WorkerPool::new(t);
        group.bench_with_input(BenchmarkId::new("pool", t), &t, |b, _| {
            b.iter(|| {
                pool.run_split(black_box(&mut y), &parts, 1, |tid, y_local| {
                    let r = part.part(tid);
                    csr.spmm_rows_local_isa(isa, r.start, r.end, x, 1, y_local);
                });
            })
        });

        // The full planned executor (pool + partition owned by the plan).
        let mut par = ParCsr::new(csr, t);
        group.bench_with_input(BenchmarkId::new("par-csr-plan", t), &t, |b, _| {
            b.iter(|| par.par_spmv(black_box(x), black_box(&mut y)))
        });

        group.finish();
    }

    // Empty-body dispatch: pure overhead, no kernel at all.
    for &t in &threads {
        let mut group = c.benchmark_group(format!("dispatch-empty/{t}threads"));
        group.bench_function("spawn-per-call", |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for tid in 0..t {
                        s.spawn(move || black_box(tid));
                    }
                })
            })
        });
        let mut pool = WorkerPool::new(t);
        group.bench_function("pool", |b| {
            b.iter(|| {
                pool.run(|tid| {
                    black_box(tid);
                })
            })
        });
        group.finish();
    }
}

fn num_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

criterion_group!(dispatch, benches);
criterion_main!(dispatch);
