//! Thread-execution primitives.
//!
//! The paper spawns its pthreads once and measures 128 consecutive SpMV
//! operations inside them (§VI-A): per-iteration cost contains no
//! thread-creation overhead, only barrier synchronization. [`WorkerPool`]
//! is the corresponding primitive here — `nthreads - 1` OS workers are
//! spawned once at plan time and parked on a condvar between calls; each
//! [`WorkerPool::run`] wakes them to execute one borrowed per-thread
//! closure (the caller participates as thread 0) and returns once every
//! thread has finished. Steady-state dispatch is two mutex round-trips and
//! two condvar signals per call — no spawn, no join, no allocation.
//! Dispatch takes `&mut self`, and a drop guard keeps the dispatch
//! handshake intact across panics: `run` always waits for every worker
//! before returning *or unwinding*, and a panic on any thread is re-raised
//! on the caller with the pool left reusable.
//!
//! The pool has no watchdog. Every job runs under `catch_unwind`, so a
//! panic cannot end a worker thread; a worker thread returns only at
//! shutdown; and a live straggler must be waited for anyway, because the
//! job borrows the caller's stack. Detecting and recovering from stalled
//! or lost workers is [`crate::supervised::SupervisedSpMv`]'s job, whose
//! workers own everything they touch.
//!
//! [`IterationDriver`] layers the paper's repeated-iteration protocol on
//! top: one pool dispatch runs all rounds, with a [`Barrier`] between
//! consecutive rounds (and none after the last — the pool's own completion
//! handshake already joins it).

use crate::telemetry::PoolTelemetry;
use std::any::Any;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------

/// A borrowed per-dispatch job: a type-erased pointer to the caller's
/// `Fn(usize)` closure. The lifetime is erased when the job is published;
/// soundness comes from [`WorkerPool::run`] not returning *or unwinding*
/// until every worker has finished calling through the pointer (a drop
/// guard performs the wait on both paths), so the pointee outlives all
/// uses.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// The pointee is `Sync` (shared by all workers) and outlives the dispatch;
// the pointer itself is only ever dereferenced during that dispatch.
unsafe impl Send for Job {}

struct State {
    /// Incremented once per dispatch; workers detect new work by epoch,
    /// not by job presence, so a worker can never run the same job twice.
    epoch: u64,
    /// The current job, valid for workers whose seen epoch is stale.
    job: Option<Job>,
    /// Workers still running the current job.
    active: usize,
    /// Set once by `Drop`; workers exit at the next wake-up.
    shutdown: bool,
    /// First panic raised inside a worker's slice of the current job;
    /// re-raised on the dispatching caller's stack by [`WorkerPool::run`].
    panic_payload: Option<Box<dyn Any + Send>>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between dispatches.
    work_cv: Condvar,
    /// The dispatching caller parks here until `active` drains to zero.
    done_cv: Condvar,
    /// Per-thread busy-time/job counters (slot 0 = caller); drained by
    /// [`WorkerPool::take_telemetry`].
    #[cfg(feature = "telemetry")]
    telemetry: crate::telemetry::TelemetrySink,
}

/// Runs `f`, crediting its wall time to `tid`'s telemetry slot. Compiles
/// to a plain call without the `telemetry` feature.
#[inline]
fn record_busy<R>(shared: &Shared, tid: usize, f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "telemetry")]
    {
        let t0 = std::time::Instant::now();
        let r = f();
        shared.telemetry.record(tid, t0.elapsed());
        r
    }
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = (shared, tid);
        f()
    }
}

/// Locks the pool state, ignoring poison: no code path holds the lock
/// across a panic, and the drain guard must never itself panic while the
/// caller is already unwinding.
fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks until every worker has finished the current job, then clears it
/// and re-raises any worker panic. Runs on both the return and unwind
/// paths of [`WorkerPool::run`]: the borrowed closure behind the
/// type-erased job pointer must outlive every worker's use of it even when
/// the caller's own `f(0)` panics.
struct DrainGuard<'a> {
    shared: &'a Shared,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_state(self.shared);
        while st.active > 0 {
            st = self.shared.done_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        // The borrow behind the job pointer dies when `run` exits.
        st.job = None;
        let payload = st.panic_payload.take();
        drop(st);
        if let Some(payload) = payload {
            // A worker panicked inside the job: propagate on the caller's
            // stack — unless the caller is already unwinding from its own
            // `f(0)` panic, which takes precedence.
            if !std::thread::panicking() {
                panic::resume_unwind(payload);
            }
        }
    }
}

/// A persistent pool of `nthreads - 1` parked OS workers plus the caller.
///
/// Created once per plan and reused for every `par_spmv` call, mirroring
/// the paper's spawn-once protocol (§VI-A). Dispatching takes `&mut self`,
/// so two threads sharing the pool can never race a dispatch — to share a
/// pool across threads, wrap it in a `Mutex` (or give each thread its own
/// pool).
///
/// # Panics
///
/// A panic inside the dispatched closure — on any thread — propagates out
/// of [`WorkerPool::run`] on the caller's stack after every other thread
/// has finished its slice of the job; the pool itself remains usable for
/// subsequent dispatches.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    nthreads: usize,
}

impl WorkerPool {
    /// Spawns `nthreads - 1` workers (none for `nthreads == 1`).
    pub fn new(nthreads: usize) -> WorkerPool {
        assert!(nthreads >= 1, "need at least one thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
                panic_payload: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            #[cfg(feature = "telemetry")]
            telemetry: crate::telemetry::TelemetrySink::new(nthreads),
        });
        let handles = (1..nthreads).map(|tid| spawn_worker(&shared, tid)).collect();
        WorkerPool { shared, handles, nthreads }
    }

    /// Number of threads participating in each dispatch (including the
    /// caller).
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Drains per-thread telemetry (busy time, job counts, dispatch
    /// count) accumulated since construction or the last drain. Returns
    /// `None` unless the crate's `telemetry` feature is enabled —
    /// recording code is compiled out entirely when off, so the method
    /// exists (and types check) in both configurations at zero cost.
    pub fn take_telemetry(&mut self) -> Option<PoolTelemetry> {
        #[cfg(feature = "telemetry")]
        {
            Some(self.shared.telemetry.snapshot_and_reset())
        }
        #[cfg(not(feature = "telemetry"))]
        {
            None
        }
    }

    /// Runs `f(tid)` once per thread, `tid` in `0..nthreads`, and returns
    /// after every thread has finished. The caller executes `tid == 0` on
    /// its own stack; `f` may therefore borrow local data. Taking
    /// `&mut self` makes concurrent dispatch onto one pool unrepresentable
    /// in safe code — the soundness of the borrowed-job pointer depends on
    /// exactly one dispatch being in flight.
    pub fn run<F>(&mut self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.nthreads == 1 {
            // Serial fast path: no handshake at all.
            #[cfg(feature = "telemetry")]
            self.shared.telemetry.record_dispatch();
            record_busy(&self.shared, 0, || f(0));
            return;
        }
        #[cfg(feature = "telemetry")]
        self.shared.telemetry.record_dispatch();
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // Erase the borrow's lifetime; see `Job` for why this is sound.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f_ref)
        });
        {
            let mut st = lock_state(&self.shared);
            debug_assert_eq!(st.active, 0, "dispatch while previous job still active");
            st.job = Some(job);
            st.epoch += 1;
            st.active = self.nthreads - 1;
        }
        self.shared.work_cv.notify_all();
        // From here workers may be running `f`. The guard waits for all of
        // them (and clears the job) on both the return and the unwind path
        // of `f(0)` below, so the borrow never dangles; it also re-raises
        // a worker panic once the drain completes.
        let guard = DrainGuard { shared: &self.shared };
        record_busy(&self.shared, 0, || f(0));
        drop(guard);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_state(&self.shared);
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawns the worker thread for `tid`.
fn spawn_worker(shared: &Arc<Shared>, tid: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("spmv-worker-{tid}"))
        .spawn(move || worker_loop(&shared, tid))
        .expect("failed to spawn pool worker")
}

fn worker_loop(shared: &Shared, tid: usize) {
    let mut seen_epoch = 0;
    loop {
        let job = {
            let mut st = lock_state(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("epoch advanced without a job");
                }
                st = shared.work_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: `run` keeps the closure alive until `active` drains to
        // zero, which happens only after this call returns. A panic in the
        // job must not unwind past the decrement below — it would strand
        // `active` and deadlock the caller forever — so it is caught here
        // and re-raised by `run` on the caller's stack instead.
        let outcome = record_busy(shared, tid, || {
            panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(tid) }))
        });
        let mut st = lock_state(shared);
        if let Err(payload) = outcome {
            // Keep the first panic; later ones add nothing for the caller.
            if st.panic_payload.is_none() {
                st.panic_payload = Some(payload);
            }
        }
        st.active -= 1;
        let done = st.active == 0;
        drop(st);
        if done {
            shared.done_cv.notify_one();
        }
    }
}

// ---------------------------------------------------------------------
// DisjointSlices
// ---------------------------------------------------------------------

/// Hands disjoint `&mut` sub-slices of one buffer to pool threads.
///
/// [`WorkerPool::run`] shares a single `Fn` closure between threads, so
/// the closure cannot capture per-thread `&mut` slices directly; this cell
/// erases the buffer's uniqueness and re-asserts it per sub-range.
///
/// # Invariant
///
/// Ranges claimed via [`DisjointSlices::range`] during one dispatch must
/// be pairwise disjoint. Every use in this crate derives the ranges from a
/// partition whose blocks are disjoint by construction.
pub struct DisjointSlices<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// Threads only ever touch disjoint elements (the invariant above), which
// is exactly the access pattern `&mut [T]: Send` permits when chunked.
unsafe impl<T: Send> Sync for DisjointSlices<'_, T> {}

impl<'a, T> DisjointSlices<'a, T> {
    /// Wraps `buf`, taking its unique borrow for `'a`.
    pub fn new(buf: &'a mut [T]) -> DisjointSlices<'a, T> {
        DisjointSlices { ptr: buf.as_mut_ptr(), len: buf.len(), _marker: PhantomData }
    }

    /// Length of the wrapped buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the wrapped buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reclaims `buf[r]` as a mutable slice.
    ///
    /// # Safety
    ///
    /// `r` must not overlap any other range claimed from this cell during
    /// the same dispatch.
    #[allow(clippy::mut_from_ref)] // the whole point of the cell
    pub unsafe fn range(&self, r: Range<usize>) -> &mut [T] {
        assert!(r.start <= r.end && r.end <= self.len, "range {r:?} out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.end - r.start)
    }
}

/// Uniform chunk `k` of `n` elements split `nchunks` ways (used for the
/// chunked parallel reductions).
pub fn chunk(n: usize, nchunks: usize, k: usize) -> Range<usize> {
    k * n / nchunks..(k + 1) * n / nchunks
}

// ---------------------------------------------------------------------
// Spawn-per-call baseline
// ---------------------------------------------------------------------

/// Runs `f(tid)` on `nthreads` scoped threads and waits for all of them.
///
/// This is the *spawn-per-call* baseline the persistent [`WorkerPool`]
/// replaces in the hot paths; it survives as the comparison arm of the
/// dispatch-overhead benchmark.
pub fn run_on_threads<F>(nthreads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    assert!(nthreads >= 1, "need at least one thread");
    if nthreads == 1 {
        // Fast path: no spawn for the serial case.
        f(0);
        return;
    }
    std::thread::scope(|s| {
        for tid in 0..nthreads {
            let f = &f;
            s.spawn(move || f(tid));
        }
    });
}

// ---------------------------------------------------------------------
// IterationDriver
// ---------------------------------------------------------------------

/// Drives `iters` rounds of a per-thread body on a persistent pool with a
/// barrier between rounds — the paper's repeated-iteration measurement
/// loop (§VI-A). Threads are spawned once at construction; `run` costs one
/// pool dispatch regardless of the round count, and no barrier is paid
/// after the final round (the pool's completion handshake already joins
/// all threads).
pub struct IterationDriver {
    pool: WorkerPool,
    barrier: Barrier,
    iters: usize,
}

impl IterationDriver {
    /// Creates a driver for `nthreads` threads x `iters` rounds.
    pub fn new(nthreads: usize, iters: usize) -> IterationDriver {
        assert!(nthreads >= 1 && iters >= 1);
        IterationDriver { pool: WorkerPool::new(nthreads), barrier: Barrier::new(nthreads), iters }
    }

    /// Number of threads per round.
    pub fn nthreads(&self) -> usize {
        self.pool.nthreads()
    }

    /// Rounds per `run`.
    pub fn iters(&self) -> usize {
        self.iters
    }

    /// Runs `body(tid, iter)` for every thread and round. Rounds are
    /// globally ordered: all threads finish round `i` before any starts
    /// round `i + 1`.
    ///
    /// A panic in `body` propagates like [`WorkerPool::run`]'s — but if
    /// other threads are already blocked in an inter-round barrier wait
    /// they will never be released, so `body` should not panic except to
    /// abort the process (measurement bodies here never do).
    pub fn run<F>(&mut self, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let iters = self.iters;
        let barrier = &self.barrier;
        self.pool.run(|tid| {
            for iter in 0..iters {
                body(tid, iter);
                if iter + 1 < iters {
                    barrier.wait();
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn pool_executes_each_tid_once() {
        let mut pool = WorkerPool::new(4);
        let hits = Mutex::new(vec![0usize; 4]);
        pool.run(|tid| {
            hits.lock().unwrap()[tid] += 1;
        });
        assert_eq!(*hits.lock().unwrap(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn pool_serial_fast_path() {
        let mut pool = WorkerPool::new(1);
        let count = AtomicUsize::new(0);
        pool.run(|tid| {
            assert_eq!(tid, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_reuse_many_dispatches() {
        // The core property the tentpole claims: one pool, many calls, no
        // worker ever lost or duplicated.
        let mut pool = WorkerPool::new(3);
        let count = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(|_tid| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 600);
    }

    #[test]
    fn pool_borrows_caller_stack() {
        let mut pool = WorkerPool::new(4);
        let mut out = vec![0usize; 4];
        let cell = DisjointSlices::new(&mut out);
        pool.run(|tid| {
            // SAFETY: each tid claims its own element.
            let slot = unsafe { cell.range(tid..tid + 1) };
            slot[0] = tid * 10;
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let mut pool = WorkerPool::new(8);
        pool.run(|_| {});
        drop(pool); // must not hang or leak threads
    }

    #[test]
    fn pool_waits_for_a_slow_worker_before_returning() {
        // The borrowed job's soundness on the normal return path: `run`
        // returns only after every worker has finished its slice, however
        // long one of them takes.
        let mut pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|tid| {
            if tid == 2 {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            hits[tid].fetch_add(1, Ordering::SeqCst);
        });
        for (tid, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "tid {tid}");
        }
    }

    #[test]
    fn pool_caller_panic_waits_for_workers_and_stays_usable() {
        // If f(0) panics, `run` must not unwind until every worker has
        // finished its slice of the job (the borrowed closure dies with
        // the frame), and the pool must survive for later dispatches.
        let mut pool = WorkerPool::new(4);
        let worker_hits = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|tid| {
                if tid == 0 {
                    panic!("caller-side panic");
                }
                // Give the caller a head start into its panic path.
                std::thread::sleep(std::time::Duration::from_millis(10));
                worker_hits.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(caught.is_err());
        // All three workers finished before `run` unwound.
        assert_eq!(worker_hits.load(Ordering::SeqCst), 3);
        let count = AtomicUsize::new(0);
        pool.run(|_tid| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn pool_worker_panic_propagates_to_caller_and_stays_usable() {
        // A panic on a worker thread must not strand `active` (deadlock);
        // it is re-raised on the caller with its original payload.
        let mut pool = WorkerPool::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|tid| {
                if tid == 2 {
                    panic!("worker-side panic");
                }
            });
        }));
        let payload = caught.expect_err("worker panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "worker-side panic");
        let count = AtomicUsize::new(0);
        pool.run(|_tid| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn take_telemetry_matches_feature_state() {
        let mut pool = WorkerPool::new(3);
        for _ in 0..5 {
            pool.run(|_tid| {
                std::hint::black_box(0u64);
            });
        }
        let t = pool.take_telemetry();
        #[cfg(feature = "telemetry")]
        {
            let t = t.expect("telemetry feature enabled");
            assert_eq!(t.busy_ns.len(), 3);
            assert_eq!(t.dispatches, 5);
            // Every thread ran exactly one job per dispatch.
            assert_eq!(t.chunks, vec![5, 5, 5]);
            assert!(t.imbalance() >= 1.0);
            // The drain resets the window.
            assert_eq!(pool.take_telemetry().expect("still enabled").dispatches, 0);
        }
        #[cfg(not(feature = "telemetry"))]
        assert!(t.is_none(), "telemetry must be absent when the feature is off");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_covers_serial_fast_path() {
        let mut pool = WorkerPool::new(1);
        pool.run(|_tid| {
            std::hint::black_box(0u64);
        });
        let t = pool.take_telemetry().expect("telemetry feature enabled");
        assert_eq!(t.dispatches, 1);
        assert_eq!(t.chunks, vec![1]);
    }

    #[test]
    fn run_on_threads_executes_each_tid_once() {
        let hits = Mutex::new(vec![0usize; 4]);
        run_on_threads(4, |tid| {
            hits.lock().unwrap()[tid] += 1;
        });
        assert_eq!(*hits.lock().unwrap(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn run_on_threads_serial_fast_path() {
        let count = AtomicUsize::new(0);
        run_on_threads(1, |tid| {
            assert_eq!(tid, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn iteration_driver_orders_rounds() {
        // With the barrier, no thread can be a full round ahead: track the
        // max round spread ever observed.
        let current = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        let mut driver = IterationDriver::new(4, 16);
        driver.run(|_tid, iter| {
            let seen = current.load(Ordering::SeqCst);
            if iter > seen + 1 {
                violations.fetch_add(1, Ordering::SeqCst);
            }
            current.fetch_max(iter, Ordering::SeqCst);
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn iteration_driver_total_invocations() {
        let count = AtomicUsize::new(0);
        IterationDriver::new(3, 10).run(|_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn iteration_driver_is_reusable() {
        let mut driver = IterationDriver::new(2, 5);
        let count = AtomicUsize::new(0);
        for _ in 0..20 {
            driver.run(|_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn chunks_tile_the_range() {
        for n in [0usize, 1, 7, 64, 101] {
            for parts in 1..8 {
                let mut covered = 0;
                for k in 0..parts {
                    let c = chunk(n, parts, k);
                    assert_eq!(c.start, covered);
                    covered = c.end;
                }
                assert_eq!(covered, n);
            }
        }
    }
}
