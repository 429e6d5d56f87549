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
//! The paper's kernels give each thread one disjoint block of `y` (§IV:
//! "an offset in the ctl, values and y arrays"; §V: "the first and the
//! last row"). [`WorkerPool::run_split`] is that hand-out: a [`Parts`]
//! holds one row range per thread, checked pairwise disjoint once, when
//! the plan is built, and each dispatch gives thread `t` its range of one
//! buffer as a plain `&mut` slice. Every executor of the crate that
//! writes a shared buffer from the pool goes through it, so the
//! disjointness argument is made once, here.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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

// SAFETY: the pointee is `Sync`, so workers may call it concurrently
// through shared references, and it outlives the dispatch (see above);
// the pointer is dereferenced only during that dispatch.
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
        });
        let handles = (1..nthreads).map(|tid| spawn_worker(&shared, tid)).collect();
        WorkerPool { shared, handles, nthreads }
    }

    /// Number of threads participating in each dispatch (including the
    /// caller).
    pub fn nthreads(&self) -> usize {
        self.nthreads
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
            f(0);
            return;
        }
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: only the borrow's lifetime is erased. `f` outlives every
        // use of the pointer: the drain guard below waits for all workers
        // on both the return and the unwind path before `f` is dropped.
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
        f(0);
        drop(guard);
    }

    /// Runs `f(t, piece)` once per thread, like [`WorkerPool::run`], where
    /// `piece` is `buf[r.start * scale..r.end * scale]` for thread `t`'s
    /// range `r` in `parts`: each thread writes its own share of one
    /// buffer (`scale` elements per row, e.g. the `k` columns of a
    /// row-major panel).
    ///
    /// Panics before any thread runs unless `parts` holds one range per
    /// thread and every range, empty or not, times `scale` lies inside
    /// `buf`.
    pub fn run_split<T, F>(&mut self, buf: &mut [T], parts: &Parts, scale: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert_eq!(parts.len(), self.nthreads, "need one range per pool thread");
        for r in parts.ranges() {
            let end = r.end.checked_mul(scale).expect("range end times scale overflows usize");
            assert!(
                end <= buf.len(),
                "range {r:?} x {scale} lies past the buffer end {}",
                buf.len()
            );
        }
        let base = SharedMut(buf.as_mut_ptr());
        self.run(|tid| {
            let r = &parts.ranges()[tid];
            // SAFETY: `r.start <= r.end` (a `Parts` invariant) and
            // `r.end * scale <= buf.len()` (checked above), so the piece
            // lies inside `buf`, which stays mutably borrowed until `run`
            // has drained every thread. The non-empty ranges of `parts`
            // are pairwise disjoint (checked by `Parts::new`), and `run`
            // calls each `tid` exactly once per dispatch, so no element
            // is reachable through two live pieces.
            let piece = unsafe {
                std::slice::from_raw_parts_mut(base.get().add(r.start * scale), r.len() * scale)
            };
            f(tid, piece);
        });
    }
}

/// The base pointer of the buffer [`WorkerPool::run_split`] cuts up,
/// shared by the pool threads.
struct SharedMut<T>(*mut T);

// SAFETY: threads use the pointer only to build the disjoint pieces
// `run_split` hands out, one per thread; sending a `&mut [T]` to another
// thread needs `T: Send`.
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// The pointer. A method, so that closures capture the `Sync` wrapper
    /// rather than its raw-pointer field.
    fn get(&self) -> *mut T {
        self.0
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
        // A panic in the job must not unwind past the decrement below — it
        // would strand `active` and deadlock the caller forever — so it is
        // caught here and re-raised by `run` on the caller's stack instead.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: `run` keeps the closure alive until `active` drains
            // to zero, which happens only after this call returns.
            unsafe { (*job.0)(tid) }
        }));
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
// Parts
// ---------------------------------------------------------------------

/// One row range per pool thread: the shares of a buffer that
/// [`WorkerPool::run_split`] hands out, range `t` to thread `t`.
///
/// The ranges may come in any order and leave gaps, and any of them may
/// be empty. The non-empty ones are pairwise disjoint: [`Parts::new`]
/// checks that once, when a plan is built, so a dispatch needs no check
/// of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parts {
    ranges: Vec<Range<usize>>,
}

impl Parts {
    /// Wraps `ranges`, range `t` for thread `t`. Panics if a range is
    /// reversed or two non-empty ranges share a row.
    pub fn new(ranges: Vec<Range<usize>>) -> Parts {
        for r in &ranges {
            assert!(r.start <= r.end, "chunk row range {r:?} is reversed");
        }
        let mut live: Vec<_> = ranges.iter().filter(|r| !r.is_empty()).collect();
        live.sort_by_key(|r| r.start);
        for w in live.windows(2) {
            assert!(w[0].end <= w[1].start, "chunk row ranges overlap: {:?} and {:?}", w[0], w[1]);
        }
        Parts { ranges }
    }

    /// `parts` near-equal ranges tiling `0..n` in order: range `t` is
    /// [`chunk`]`(n, parts, t)`.
    pub fn uniform(n: usize, parts: usize) -> Parts {
        Parts::new((0..parts).map(|t| chunk(n, parts, t)).collect())
    }

    /// The ranges, range `t` for thread `t`.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// `true` if there are no ranges.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Uniform chunk `k` of `n` elements split `nchunks` ways (used for the
/// chunked parallel reductions).
pub fn chunk(n: usize, nchunks: usize, k: usize) -> Range<usize> {
    k * n / nchunks..(k + 1) * n / nchunks
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
        pool.run_split(&mut out, &Parts::uniform(4, 4), 1, |tid, slot| slot[0] = tid * 10);
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

    fn panic_message(payload: &(dyn Any + Send)) -> &str {
        let owned = payload.downcast_ref::<String>().map(String::as_str);
        owned.or_else(|| payload.downcast_ref::<&str>().copied()).unwrap_or_default()
    }

    /// Builds `parts()` and splits a `len`-byte buffer by it at `scale`;
    /// checks that this panics with `expected` before any thread calls
    /// the body, and that the pool then serves a valid split.
    fn assert_refused(
        pool: &mut WorkerPool,
        expected: &str,
        parts: impl FnOnce() -> Parts,
        len: usize,
        scale: usize,
    ) {
        let calls = AtomicUsize::new(0);
        let mut buf = vec![0u8; len];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_split(&mut buf, &parts(), scale, |_, _| {
                calls.fetch_add(1, Ordering::SeqCst);
            });
        }));
        let payload = caught.expect_err(expected);
        assert!(panic_message(&*payload).contains(expected), "{}", panic_message(&*payload));
        assert_eq!(calls.load(Ordering::SeqCst), 0, "{expected}: a thread ran");
        let n = pool.nthreads();
        let mut out = vec![0usize; n];
        pool.run_split(&mut out, &Parts::uniform(n, n), 1, |tid, slot| slot[0] = tid + 1);
        assert_eq!(out, (1..=n).collect::<Vec<_>>(), "{expected}: pool unusable afterwards");
    }

    #[test]
    fn split_refuses_bad_parts_before_any_thread_runs() {
        let mut pool = WorkerPool::new(3);
        let overlap = || Parts::new(vec![0..4, 6..8, 3..5]);
        assert_refused(&mut pool, "chunk row ranges overlap", overlap, 8, 1);
        let reversed = || Parts::new(vec![0..1, Range { start: 5, end: 2 }, 6..8]);
        assert_refused(&mut pool, "is reversed", reversed, 8, 1);
        for count in [2, 4] {
            let wrong_count = || Parts::uniform(8, count);
            assert_refused(&mut pool, "one range per pool thread", wrong_count, 8, 1);
        }
        let past_end = || Parts::new(vec![0..2, 2..4, 4..9]);
        assert_refused(&mut pool, "past the buffer end", past_end, 8, 1);
        let empty_past_end = || Parts::new(vec![0..2, 9..9, 2..4]);
        assert_refused(&mut pool, "past the buffer end", empty_past_end, 8, 1);
        assert_refused(&mut pool, "past the buffer end", || Parts::uniform(8, 3), 8, 2);
        let huge = || Parts::new(vec![0..1, 1..2, 2..usize::MAX / 2]);
        assert_refused(&mut pool, "overflows", huge, 8, 3);
        let empty_huge = || Parts::new(vec![0..1, usize::MAX..usize::MAX, 1..2]);
        assert_refused(&mut pool, "overflows", empty_huge, 8, 2);
    }

    #[test]
    fn split_pieces_hold_exactly_each_threads_rows() {
        for nthreads in [1, 2, 3, 5, 7] {
            let mut pool = WorkerPool::new(nthreads);
            // Descending order, a one-row gap before every range, and
            // every third range empty.
            let ranges: Vec<_> = (0..nthreads)
                .map(|t| {
                    let start = 3 * (nthreads - 1 - t) + 1;
                    start..start + if t % 3 == 1 { 0 } else { 2 }
                })
                .collect();
            let parts = Parts::new(ranges.clone());
            for scale in [1, 3] {
                let mut buf = vec![usize::MAX; (3 * nthreads + 1) * scale];
                pool.run_split(&mut buf, &parts, scale, |tid, piece| {
                    assert_eq!(piece.len(), ranges[tid].len() * scale);
                    piece.fill(tid);
                });
                for (i, &v) in buf.iter().enumerate() {
                    let owner = ranges.iter().position(|r| r.contains(&(i / scale)));
                    let ctx = format!("nthreads={nthreads} scale={scale} element {i}");
                    assert_eq!(v, owner.unwrap_or(usize::MAX), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn split_worker_panic_propagates_and_pool_stays_usable() {
        let mut pool = WorkerPool::new(3);
        let parts = Parts::uniform(6, 3);
        let mut buf = vec![0u32; 6];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_split(&mut buf, &parts, 1, |tid, piece| {
                assert_ne!(tid, 2, "worker two fails");
                piece.fill(1);
            });
        }));
        let payload = caught.expect_err("a worker panic propagates");
        assert!(panic_message(&*payload).contains("worker two fails"));
        pool.run_split(&mut buf, &parts, 1, |tid, piece| piece.fill(tid as u32 + 1));
        assert_eq!(buf, [1, 1, 2, 2, 3, 3]);
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
