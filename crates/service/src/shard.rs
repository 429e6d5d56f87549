//! Dispatcher shards and their supervisor.
//!
//! The service runs `N` dispatcher shards; each matrix is hash-assigned
//! to one shard ([`crate::registry::shard_for`]) and each shard owns the
//! [`SupervisedSpMv`] executors and circuit breakers for its matrices.
//! A shard is one OS thread running [`shard_loop`]; the **supervisor**
//! thread watches all of them and keeps the service live through shard
//! deaths:
//!
//! * **death** — the shard thread exited or panicked (`alive` cleared by
//!   its drop guard). The supervisor steals its in-flight batch,
//!   re-queues every request whose reply has not been published
//!   (publish-once `ReplySlot`s make replays safe: if the dying shard
//!   already answered, the replay's publish loses and nothing double
//!   counts), expires anything already past deadline — the same drain
//!   discipline shutdown uses — and respawns the thread;
//! * **stall** — the thread is alive but its heartbeat went stale while
//!   work was pending. The supervisor *abandons* the incarnation by
//!   bumping the shard's incarnation counter (the wedged loop exits at
//!   its next check and drops its executors without parking them) and
//!   recovers exactly as for a death;
//! * **repeated failures** — after `shard_trip_after` respawns the
//!   shard's breaker trips: the shard is marked degraded and from then
//!   on executes every batch serially on the dispatcher thread
//!   (no worker pool to die), trading throughput for liveness.
//!
//! Executor handoff is warm: an exiting incarnation (clean return, chaos
//! kill, or panic unwind) parks its executor map in the shard's
//! `parked_execs` slot, and the replacement serves from it as is. The
//! executors' worker threads are not the shard's: they outlive it, and
//! none of them dies of a fault (each chunk runs under `catch_unwind`,
//! and a stalled worker is replaced during the call that caught it).

use crate::breaker::CircuitBreaker;
use crate::error::ServiceError;
use crate::registry::{MatrixId, Registry};
use crate::sched::{release_slot, DrrSched};
use crate::service::{Pending, Response, ServiceConfig, TenantLimits};
use crate::stats::{ShardStatsInner, StatsInner};
use spmv_memsim::Planner;
use spmv_parallel::{assemble_chunks, ChunkKernel, FaultEvent, SupervisedSpMv, WatchdogOpts};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-injection")]
use spmv_parallel::faults::FaultPlan;

/// Poison-recovering lock: a shard thread that panics mid-update must
/// not take the supervisor or the clients down with it.
pub(crate) fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One matrix's executor + breaker, owned by the shard that the matrix
/// hashes to. Built lazily from the registry on first use.
pub(crate) struct ExecEntry {
    exec: SupervisedSpMv<f64>,
    breaker: CircuitBreaker,
    kernel: Arc<dyn ChunkKernel<f64>>,
}

pub(crate) type ExecMap = HashMap<MatrixId, ExecEntry>;

/// Mutex-guarded shard state: the DRR queue plus the drain flags.
pub(crate) struct ShardState {
    pub sched: DrrSched,
    /// Shutdown phase 1: stop when the queue empties.
    pub draining: bool,
    /// Shutdown phase 2: stop now.
    pub shutdown: bool,
}

/// Everything a shard shares with admission, the supervisor, and the
/// eviction protocol.
pub(crate) struct ShardShared {
    pub state: Mutex<ShardState>,
    pub work_cv: Condvar,
    /// Milliseconds since service start, stamped every scheduler pass.
    pub heartbeat: AtomicU64,
    /// Bumped by the supervisor to abandon a stalled incarnation; a loop
    /// whose captured incarnation is stale exits at its next check.
    pub incarnation: AtomicU64,
    /// Current incarnation running (cleared by its drop guard).
    pub alive: AtomicBool,
    /// Loop exited cleanly via the drain path (not a death).
    pub drained: AtomicBool,
    /// Chaos: die abruptly at the next dispatch point.
    pub kill: AtomicBool,
    /// Chaos: wedge (stop heartbeating) until abandoned.
    pub stall: AtomicBool,
    /// Shard breaker tripped: every batch runs serially from now on.
    pub degraded: AtomicBool,
    /// Epoch pin for eviction: `u64::MAX` when quiescent, else the
    /// global epoch observed when the current batch was popped.
    pub epoch_pin: Arc<AtomicU64>,
    /// The batch currently executing; stolen by the supervisor for
    /// replay when the incarnation dies.
    pub inflight: Mutex<Vec<Arc<Pending>>>,
    /// Warm executor handoff slot between incarnations.
    pub parked_execs: Mutex<Option<ExecMap>>,
    /// Evicted ids whose cached executors the shard must drop.
    pub retired: Mutex<Vec<MatrixId>>,
}

impl ShardShared {
    pub(crate) fn new(epoch_pin: Arc<AtomicU64>) -> ShardShared {
        ShardShared {
            state: Mutex::new(ShardState {
                sched: DrrSched::new(),
                draining: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            heartbeat: AtomicU64::new(0),
            incarnation: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            drained: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            stall: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            epoch_pin,
            inflight: Mutex::new(Vec::new()),
            parked_execs: Mutex::new(None),
            retired: Mutex::new(Vec::new()),
        }
    }
}

/// State shared by the service handle, every shard, and the supervisor.
pub(crate) struct ServiceInner {
    pub cfg: ServiceConfig,
    /// Shared format/thread/partition planner: builder-time and live
    /// `register_csr` calls hit the same plan cache.
    pub planner: Arc<Planner>,
    pub registry: Registry,
    pub stats: StatsInner,
    /// Global per-tenant *queued* counts (quotas span shards).
    pub tenant_counts: Mutex<HashMap<String, usize>>,
    pub tenants: HashMap<String, TenantLimits>,
    pub shards: Vec<Arc<ShardShared>>,
    /// Service start, the heartbeat clock's epoch.
    pub epoch0: Instant,
    /// Cleared by shutdown: admission rejects with `ShuttingDown`.
    pub accepting: AtomicBool,
    /// Tells the supervisor to join everything and exit.
    pub stopping: AtomicBool,
    /// Template fault plan; each shard incarnation arms a fresh clone.
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Mutex<Option<FaultPlan>>,
}

pub(crate) fn now_ms(inner: &ServiceInner) -> u64 {
    inner.epoch0.elapsed().as_millis() as u64
}

pub(crate) fn bump_shard(
    stats: &StatsInner,
    shard: usize,
    pick: impl Fn(&ShardStatsInner) -> &AtomicU64,
) {
    if let Some(s) = stats.shards.get(shard) {
        stats.bump(pick(s));
    }
}

/// The longest span the service adds to an `Instant`. A longer budget,
/// grace or cooldown (`Duration::MAX` included) means "never" and is
/// capped here, so every deadline instant stays representable.
pub(crate) const FAR_FUTURE: Duration = Duration::from_secs(100 * 365 * 24 * 60 * 60);

/// The worst healthy batch: the call blowing the full watchdog deadline,
/// then the serial recovery of its pending chunks, allowed as long
/// again. Saturating, because `max_exec_deadline: Duration::MAX` is a
/// legal "never triage".
pub(crate) fn worst_healthy_batch(cfg: &ServiceConfig) -> Duration {
    cfg.max_exec_deadline.saturating_mul(2)
}

/// A stalled heartbeat only counts as a stall past this threshold: the
/// configured grace, but never tighter than the worst healthy batch —
/// a slow-but-legal batch must not look like a wedge.
pub(crate) fn stall_threshold(cfg: &ServiceConfig) -> Duration {
    cfg.stall_grace.max(worst_healthy_batch(cfg).saturating_add(Duration::from_millis(250)))
}

pub(crate) fn spawn_shard(inner: &Arc<ServiceInner>, idx: usize, my_inc: u64) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("spmv-shard-{idx}"))
        .spawn(move || {
            // The armed plan is thread-local to this shard incarnation:
            // executor dispatches snapshot it, so planned faults fire on
            // worker threads while the shard (thread 0) stays
            // uninjected and cannot be killed by its own plan.
            #[cfg(feature = "fault-injection")]
            let _armed = lock(&inner.fault_plan).clone().map(FaultPlan::arm);
            shard_loop(&inner, idx, my_inc);
        })
        .expect("spawning dispatcher shard")
}

/// Parks the executor map for the next incarnation on any exit — clean
/// return, chaos kill, or panic unwind — and marks the shard dead.
/// An *abandoned* incarnation (superseded while stalled) does neither:
/// its executors drop here, and the replacement owns the shard flags.
struct ExecHolder<'a> {
    sh: &'a ShardShared,
    my_inc: u64,
    execs: Option<ExecMap>,
}

impl Drop for ExecHolder<'_> {
    fn drop(&mut self) {
        if self.sh.incarnation.load(Ordering::Acquire) == self.my_inc {
            if let Some(execs) = self.execs.take() {
                let mut slot = lock(&self.sh.parked_execs);
                if slot.is_none() {
                    *slot = Some(execs);
                }
            }
            self.sh.alive.store(false, Ordering::Release);
        }
    }
}

pub(crate) fn shard_loop(inner: &Arc<ServiceInner>, idx: usize, my_inc: u64) {
    let sh = &inner.shards[idx];
    let cfg = &inner.cfg;
    let opts = WatchdogOpts {
        deadline: cfg.max_exec_deadline.max(Duration::from_millis(1)),
        verify_every: cfg.verify_every,
        // The shard claims chunks as thread 0 — forced on for
        // `threads == 1` (otherwise nobody computes), and safe under
        // fault injection because the caller thread is never injected.
        caller_participates: cfg.caller_participates || cfg.threads <= 1,
    };
    let mut holder =
        ExecHolder { sh, my_inc, execs: Some(lock(&sh.parked_execs).take().unwrap_or_default()) };

    loop {
        for id in std::mem::take(&mut *lock(&sh.retired)) {
            if let Some(execs) = holder.execs.as_mut() {
                execs.remove(&id);
            }
        }
        let batch: Vec<Arc<Pending>> = {
            let mut st = lock(&sh.state);
            loop {
                if sh.incarnation.load(Ordering::Acquire) != my_inc {
                    return; // abandoned: a replacement owns this shard now
                }
                sh.heartbeat.store(now_ms(inner), Ordering::Release);
                if sh.kill.swap(false, Ordering::AcqRel) {
                    return; // chaos: abrupt death while idle/queued
                }
                if st.shutdown {
                    return;
                }
                if !st.sched.is_empty() {
                    if let Some(b) = st.sched.pop_batch(cfg.max_batch) {
                        // Quota slots release at pop (quotas bound
                        // *queued* requests, which is what admission
                        // can observe), inside the same critical
                        // section as the pop so admission never sees a
                        // half-updated picture.
                        {
                            let mut counts = lock(&inner.tenant_counts);
                            for p in &b {
                                let ok = release_slot(&mut counts, &p.tenant);
                                debug_assert!(ok, "tenant count out of sync for {:?}", p.tenant);
                            }
                        }
                        // Pin the reclamation epoch and expose the
                        // in-flight batch before releasing the queue
                        // lock, so eviction's queue sweep and the
                        // supervisor's replay both see a consistent
                        // handoff.
                        sh.epoch_pin.store(inner.registry.epoch(), Ordering::Release);
                        *lock(&sh.inflight) = b.clone();
                        break b;
                    }
                    continue;
                }
                if st.draining {
                    sh.drained.store(true, Ordering::Release);
                    return;
                }
                let (g, _) = sh
                    .work_cv
                    .wait_timeout(st, Duration::from_millis(10))
                    .unwrap_or_else(PoisonError::into_inner);
                st = g;
            }
        };
        if sh.kill.swap(false, Ordering::AcqRel) {
            return; // chaos: die with the batch in flight (replayed)
        }
        if sh.stall.swap(false, Ordering::AcqRel) {
            // Chaos: wedge without heartbeating until the supervisor
            // abandons this incarnation.
            while sh.incarnation.load(Ordering::Acquire) == my_inc {
                std::thread::sleep(Duration::from_millis(2));
            }
            return;
        }
        let execs = holder.execs.as_mut().expect("exec map held while serving");
        run_batch(inner, sh, batch, execs, opts);
        if sh.incarnation.load(Ordering::Acquire) != my_inc {
            return; // superseded mid-batch: the flags belong to the replacement
        }
        lock(&sh.inflight).clear();
        sh.epoch_pin.store(u64::MAX, Ordering::Release);
    }
}

/// Executes one coalesced batch: expire stale members, gather the
/// panel, run it (one supervised call, or serially when the matrix
/// breaker is open or the whole shard is degraded), scatter, publish. A
/// lone request skips the gather and the scatter.
fn run_batch(
    inner: &ServiceInner,
    sh: &ShardShared,
    batch: Vec<Arc<Pending>>,
    execs: &mut ExecMap,
    opts: WatchdogOpts,
) {
    let stats = &inner.stats;
    let cfg = &inner.cfg;
    let now = Instant::now();
    let mut live: Vec<Arc<Pending>> = Vec::with_capacity(batch.len());
    for p in batch {
        if p.expires <= now {
            let shard = p.shard;
            p.reply.publish_with(
                Err(ServiceError::DeadlineExceeded { waited: now - p.enqueued }),
                || {
                    stats.bump(&stats.deadline_expired);
                    bump_shard(stats, shard, |s| &s.deadline_expired);
                },
            );
        } else {
            live.push(p);
        }
    }
    if live.is_empty() {
        return;
    }

    let id = live[0].id;
    let k = live.len();
    let es = match execs.entry(id) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(v) => match inner.registry.kernel_for(id) {
            Some(kernel) => v.insert(ExecEntry {
                exec: SupervisedSpMv::with_opts(Arc::clone(&kernel), cfg.threads.max(1), opts),
                breaker: CircuitBreaker::new(cfg.breaker_trip_after, cfg.breaker_cooldown),
                kernel,
            }),
            None => {
                // The batch raced an eviction's queue sweep and the
                // registration is gone: answer with the typed teardown
                // error rather than computing against a dead matrix.
                for p in &live {
                    let shard = p.shard;
                    p.reply.publish_with(Err(ServiceError::Evicting(p.matrix.clone())), || {
                        stats.bump(&stats.failed);
                        bump_shard(stats, shard, |s| &s.failed);
                    });
                }
                return;
            }
        },
    };
    let (nrows, ncols) = (es.kernel.nrows(), es.kernel.ncols());

    // A lone request runs on its own `x`, and the panel the executor
    // returns becomes its response `y`. A wider batch gathers the request
    // vectors into the row-major `ncols x k` layout the SpMM kernels
    // expect, and the returned panel is scattered back below.
    let x = if k == 1 {
        Arc::clone(&live[0].x)
    } else {
        let mut x_panel = vec![0.0f64; ncols * k];
        for (v, p) in live.iter().enumerate() {
            for (c, &val) in p.x.iter().enumerate() {
                x_panel[c * k + v] = val;
            }
        }
        Arc::new(x_panel)
    };

    // The watchdog deadline tracks the batch's tightest remaining
    // budget: a stalled worker costs at most the time the most
    // impatient member has left, not a full default deadline.
    let tightest = live.iter().map(|p| p.expires).min().expect("non-empty batch");
    let exec_deadline = tightest
        .saturating_duration_since(now)
        .clamp(Duration::from_millis(1), cfg.max_exec_deadline.max(Duration::from_millis(1)));
    es.exec.set_deadline(exec_deadline);

    let serial = sh.degraded.load(Ordering::Acquire) || !es.breaker.allow_parallel(now);
    let (y_panel, degraded) = if serial {
        let mut y_panel = vec![0.0f64; nrows * k];
        serial_spmm(es.kernel.as_ref(), &x, k, &mut y_panel);
        stats.bump(&stats.serial_batches);
        (y_panel, false)
    } else {
        run_parallel(es, stats, x, k)
    };

    stats.batch_sizes[k - 1].fetch_add(1, Ordering::Relaxed);
    let ys: Vec<Vec<f64>> = if k == 1 {
        vec![y_panel]
    } else {
        (0..k).map(|v| (0..nrows).map(|r| y_panel[r * k + v]).collect()).collect()
    };
    for (p, y) in live.iter().zip(ys) {
        let resp = Response { y, batch_k: k, queue_wait: now - p.enqueued, degraded, serial };
        let shard = p.shard;
        p.reply.publish_with(Ok(resp), || {
            stats.bump(&stats.completed);
            bump_shard(stats, shard, |s| &s.completed);
        });
    }
}

/// The parallel path: one supervised call, which recovers every fault
/// it detects. A degraded call counts its faults and feeds the matrix
/// breaker. Returns the executor's own output panel and whether the
/// call degraded.
fn run_parallel(
    es: &mut ExecEntry,
    stats: &StatsInner,
    x: Arc<Vec<f64>>,
    k: usize,
) -> (Vec<f64>, bool) {
    let (y_panel, report) = es.exec.spmm_owned(x, k);
    if report.degraded() {
        // A respawn is a stall's recovery, not a second fault.
        let faults = report
            .events
            .iter()
            .filter(|e| !matches!(e, FaultEvent::WorkerRespawned { .. }))
            .count();
        stats.pool_faults.fetch_add(faults as u64, Ordering::Relaxed);
        if es.breaker.record_fault(Instant::now()) {
            stats.bump(&stats.breaker_trips);
        }
    } else {
        es.breaker.record_success();
    }
    (y_panel, report.degraded())
}

/// Serial SpMM over the chunk kernel — the same per-chunk
/// `compute_block` calls the supervised executor makes, so the result is
/// bit-identical to the parallel path. Each chunk computes straight into
/// its rows of `y`; rows no chunk covers are zeroed.
pub(crate) fn serial_spmm(kernel: &dyn ChunkKernel<f64>, x: &[f64], k: usize, y: &mut [f64]) {
    assemble_chunks(kernel, k, y, |chunk, rows| kernel.compute_block(chunk, x, k, rows));
}

// ---------------------------------------------------------------------
// Queue sweeps shared by shutdown, respawn recovery, and eviction
// ---------------------------------------------------------------------

/// Removes matching queued requests from a shard, releases their quota
/// slots, and publishes `err(p)` for each. Returns how many terminated.
pub(crate) fn sweep_queue(
    inner: &ServiceInner,
    shard: usize,
    pred: impl Fn(&Pending) -> bool,
    err: impl Fn(&Pending) -> ServiceError,
    terminal: impl Fn(&ShardStatsInner) -> &AtomicU64,
    global: impl Fn(&StatsInner) -> &AtomicU64,
) -> usize {
    let sh = &inner.shards[shard];
    let removed = lock(&sh.state).sched.remove_where(pred);
    if removed.is_empty() {
        return 0;
    }
    {
        let mut counts = lock(&inner.tenant_counts);
        for p in &removed {
            let ok = release_slot(&mut counts, &p.tenant);
            debug_assert!(ok, "tenant count out of sync for {:?}", p.tenant);
        }
    }
    let n = removed.len();
    for p in removed {
        let e = err(&p);
        let shard_idx = p.shard;
        p.reply.publish_with(Err(e), || {
            inner.stats.bump(global(&inner.stats));
            bump_shard(&inner.stats, shard_idx, &terminal);
        });
    }
    n
}

/// Expires every queued request already past its deadline — the drain
/// discipline shutdown applies, reused when a respawned shard takes
/// over a backlog its predecessor sat on.
pub(crate) fn expire_stale_queued(inner: &ServiceInner, shard: usize) -> usize {
    let now = Instant::now();
    sweep_queue(
        inner,
        shard,
        |p| p.expires <= now,
        |p| ServiceError::DeadlineExceeded { waited: now - p.enqueued },
        |s| &s.deadline_expired,
        |s| &s.deadline_expired,
    )
}

/// Publishes `Evicting` to every queued request for a matrix being torn
/// down (terminal counter: `failed` — the request was admitted).
pub(crate) fn sweep_evicting(inner: &ServiceInner, shard: usize, id: MatrixId) -> usize {
    sweep_queue(
        inner,
        shard,
        |p| p.id == id,
        |p| ServiceError::Evicting(p.matrix.clone()),
        |s| &s.failed,
        |s| &s.failed,
    )
}

// ---------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------

pub(crate) fn spawn_supervisor(
    inner: &Arc<ServiceInner>,
    handles: Vec<Option<JoinHandle<()>>>,
) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name("spmv-shard-supervisor".into())
        .spawn(move || supervisor_loop(&inner, handles))
        .expect("spawning shard supervisor")
}

fn supervisor_loop(inner: &Arc<ServiceInner>, mut handles: Vec<Option<JoinHandle<()>>>) {
    let nshards = inner.shards.len();
    let mut failures = vec![0u32; nshards];
    let stall_ms = u64::try_from(stall_threshold(&inner.cfg).as_millis()).unwrap_or(u64::MAX);
    let interval = inner.cfg.supervise_interval.max(Duration::from_millis(1));
    loop {
        std::thread::sleep(interval);
        if inner.stopping.load(Ordering::Acquire) {
            break;
        }
        let now = now_ms(inner);
        for i in 0..nshards {
            let sh = &inner.shards[i];
            if sh.drained.load(Ordering::Acquire) {
                continue; // clean drain exit, not a death
            }
            let dead = !sh.alive.load(Ordering::Acquire);
            let stalled = !dead && {
                let busy = !lock(&sh.state).sched.is_empty() || !lock(&sh.inflight).is_empty();
                busy && now.saturating_sub(sh.heartbeat.load(Ordering::Acquire)) > stall_ms
            };
            if !dead && !stalled {
                continue;
            }

            // Abandon the current incarnation. A dead thread is joined
            // (it already returned); a stalled one is detached — it
            // exits on its own at the next incarnation check, and its
            // executors drop instead of parking.
            let inc = sh.incarnation.fetch_add(1, Ordering::AcqRel) + 1;
            if dead {
                if let Some(h) = handles[i].take() {
                    let _ = h.join();
                }
            } else {
                let _ = handles[i].take();
            }

            // Steal the in-flight batch and replay whatever was never
            // answered; publish-once makes the replay safe even if the
            // old incarnation published concurrently.
            let stolen = std::mem::take(&mut *lock(&sh.inflight));
            let unpublished: Vec<Arc<Pending>> =
                stolen.into_iter().filter(|p| !p.reply.is_published()).collect();
            sh.epoch_pin.store(u64::MAX, Ordering::Release);
            if !unpublished.is_empty() {
                let n = unpublished.len() as u64;
                let mut st = lock(&sh.state);
                {
                    let mut counts = lock(&inner.tenant_counts);
                    for p in &unpublished {
                        *counts.entry(p.tenant.clone()).or_insert(0) += 1;
                    }
                }
                st.sched.requeue_front(unpublished);
                drop(st);
                inner.stats.shards[i].requeued.fetch_add(n, Ordering::Relaxed);
            }
            // Same drain discipline as shutdown: anything already past
            // its deadline answers now instead of wasting the pool.
            expire_stale_queued(inner, i);

            failures[i] += 1;
            if failures[i] >= inner.cfg.shard_trip_after.max(1)
                && !sh.degraded.swap(true, Ordering::AcqRel)
            {
                inner.stats.shards[i].degraded.store(1, Ordering::Relaxed);
            }
            inner.stats.bump(&inner.stats.shards[i].respawns);
            sh.heartbeat.store(now_ms(inner), Ordering::Release);
            sh.alive.store(true, Ordering::Release);
            handles[i] = Some(spawn_shard(inner, i, inc));
        }
    }
    for h in handles.into_iter().flatten() {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::{Coo, Csr, Isa};
    use std::ops::Range;

    /// CSR chunks over 24 rows that leave rows 4..7 and 20.. uncovered.
    struct GapKernel(Csr<u32, f64>);

    const CHUNKS: [Range<usize>; 3] = [0..4, 7..12, 12..20];

    impl ChunkKernel<f64> for GapKernel {
        fn nrows(&self) -> usize {
            self.0.nrows()
        }
        fn ncols(&self) -> usize {
            self.0.ncols()
        }
        fn nchunks(&self) -> usize {
            CHUNKS.len()
        }
        fn chunk_rows(&self, chunk: usize) -> Range<usize> {
            CHUNKS[chunk].clone()
        }
        fn compute_block(&self, chunk: usize, x: &[f64], k: usize, out: &mut [f64]) {
            let r = self.chunk_rows(chunk);
            self.0.spmm_rows_local_isa(Isa::Scalar, r.start, r.end, x, k, out);
        }
    }

    #[test]
    fn unbounded_exec_deadline_saturates_the_stall_threshold() {
        // `Duration::MAX` is a legal watchdog ceiling: the supervisor's
        // threshold must saturate with it, neither overflowing nor
        // wrapping short.
        let cfg = ServiceConfig { max_exec_deadline: Duration::MAX, ..ServiceConfig::default() };
        assert_eq!(worst_healthy_batch(&cfg), Duration::MAX);
        assert_eq!(stall_threshold(&cfg), Duration::MAX);
        // Under the default 1-s watchdog the configured 10-s grace holds.
        let cfg = ServiceConfig {
            max_exec_deadline: spmv_parallel::DEFAULT_WATCHDOG,
            ..ServiceConfig::default()
        };
        assert_eq!(stall_threshold(&cfg), Duration::from_secs(10));
    }

    #[test]
    fn serial_spmm_zeroes_rows_no_chunk_covers() {
        let triplets = (0..24).flat_map(|r| [(r, r % 9, 1.5 + r as f64), (r, (r * 5) % 9, -2.0)]);
        let csr: Csr<u32, f64> = Coo::from_triplets(24, 9, triplets).unwrap().to_csr();
        let kernel = GapKernel(csr.clone());
        for k in [1usize, 2] {
            let x: Vec<f64> = (0..9 * k).map(|i| (i as f64) * 0.25 - 1.0).collect();
            let mut expect = vec![0.0; 24 * k];
            csr.spmm(&x, k, &mut expect);
            for r in (4..7).chain(20..24) {
                expect[r * k..(r + 1) * k].fill(0.0);
            }
            let mut y = vec![f64::NAN; 24 * k];
            serial_spmm(&kernel, &x, k, &mut y);
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&expect), "k={k}");
        }
    }
}
