//! The service proper: admission control, sharded dispatch, the hot
//! matrix lifecycle, and the publish-once reply path back to blocked
//! clients.
//!
//! Threading model: clients call [`SpmvService::submit`] from any
//! number of threads; a request is validated, routed to the dispatcher
//! shard that owns its matrix, and admitted under that shard's queue
//! mutex (plus one global tenant-count mutex, so quotas span shards).
//! Each shard thread owns the [`SupervisedSpMv`] executors and circuit
//! breakers for its matrices, so batch execution needs no further
//! synchronization — clients and shards meet only at the shard queues
//! and at per-request [`ReplySlot`]s. A supervisor thread watches the
//! shards and respawns any that die or stall (see [`crate::shard`]).
//!
//! Shutdown is a two-phase drain: [`SpmvService::shutdown_within`]
//! closes admission (typed [`ServiceError::ShuttingDown`]), lets the
//! shards work off their queues until the drain deadline, expires the
//! remainder with [`ServiceError::DeadlineExceeded`], and only then
//! stops the threads — every queued request terminates with a reply.

use crate::error::ServiceError;
use crate::registry::MatrixId;
use crate::registry::Registry;
use crate::shard::{
    bump_shard, lock, spawn_shard, spawn_supervisor, sweep_evicting, worst_healthy_batch,
    ServiceInner, ShardShared, FAR_FUTURE,
};
use crate::stats::{ServiceStats, StatsInner, MAX_BATCH};
use spmv_core::{Csr, SparseError};
use spmv_memsim::{Plan, PlanCacheStats, Planner, PlannerConfig};
use spmv_parallel::{watchdog_deadline, watchdog_deadline_checked, ChunkKernel};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-injection")]
use spmv_parallel::faults::FaultPlan;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Per-tenant admission ceilings, in the spirit of the I/O layer's
/// `LoadLimits`: explicit knobs instead of hard-coded constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLimits {
    /// Maximum requests a tenant may have queued at once (summed across
    /// shards); the next request is shed with
    /// [`ServiceError::TenantQuotaExceeded`].
    pub max_inflight: usize,
    /// Maximum size of a request's `x` vector in bytes; larger requests
    /// are rejected with [`ServiceError::VectorTooLarge`].
    pub max_vector_bytes: u64,
    /// Deficit-round-robin weight: batch-lead credits the tenant earns
    /// per scheduler round (0 is treated as 1). A tenant with weight 3
    /// leads up to three consecutive batches per round where a weight-1
    /// tenant leads one.
    pub weight: u32,
}

impl TenantLimits {
    /// No per-tenant ceilings (shard queue capacity still applies).
    pub fn unlimited() -> TenantLimits {
        TenantLimits { max_inflight: usize::MAX, max_vector_bytes: u64::MAX, weight: 1 }
    }
}

impl Default for TenantLimits {
    /// 16 requests in flight, 64 MiB vectors, weight 1.
    fn default() -> TenantLimits {
        TenantLimits { max_inflight: 16, max_vector_bytes: 64 << 20, weight: 1 }
    }
}

/// Service-wide configuration. [`Default`] gives a small, safe setup;
/// [`ServiceConfig::from_env`] additionally validates the `SPMV_*`
/// environment knobs through the strict parsers and surfaces a typed
/// [`SparseError::InvalidArgument`] instead of a warn-and-fallback.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bounded queue capacity **per shard**; requests beyond it are shed
    /// with [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Limits applied to tenants without explicit
    /// [`ServiceBuilder::set_tenant_limits`] registration.
    pub default_tenant_limits: TenantLimits,
    /// Deadline budget for requests that don't carry their own.
    pub default_deadline: Duration,
    /// Widest panel the coalescer builds (clamped to `1..=8`; widths
    /// are further clamped down to {1, 2, 4, 8}).
    pub max_batch: usize,
    /// Worker threads per supervised executor.
    pub threads: usize,
    /// Dispatcher shards; matrices are hash-assigned to shards by name.
    /// Default 1 (a single dispatcher, as before, but supervised).
    pub shards: usize,
    /// Forwarded to [`WatchdogOpts::verify_every`] (0 = off).
    ///
    /// [`WatchdogOpts::verify_every`]: spmv_parallel::WatchdogOpts::verify_every
    pub verify_every: usize,
    /// Whether each shard claims chunks alongside its workers (default).
    /// Forced on when `threads == 1` (someone must compute); chaos
    /// tests turn it off so every chunk runs on an injectable worker.
    pub caller_participates: bool,
    /// Ceiling on the per-batch watchdog deadline; the effective
    /// deadline is the batch's tightest remaining budget clamped to
    /// `1ms ..= max_exec_deadline`.
    pub max_exec_deadline: Duration,
    /// Consecutive pool faults that trip a matrix's circuit breaker.
    pub breaker_trip_after: u32,
    /// How long a tripped breaker forces serial execution before a
    /// half-open probe.
    pub breaker_cooldown: Duration,
    /// How often the supervisor scans the shards for deaths and stalls.
    pub supervise_interval: Duration,
    /// Heartbeat staleness past which a shard with pending work counts
    /// as stalled. Never applied tighter than the worst *healthy* batch
    /// plus 250 ms; that batch is twice `max_exec_deadline`, a watchdog
    /// deadline blown and the serial recovery after it.
    pub stall_grace: Duration,
    /// Respawns after which a shard's breaker trips and the shard
    /// degrades to serial-drain mode (no worker pool left to die).
    pub shard_trip_after: u32,
    /// Drain budget [`SpmvService::shutdown`] grants queued work before
    /// expiring the remainder with `DeadlineExceeded`.
    pub drain_deadline: Duration,
    /// Tuning for the format planner behind
    /// [`ServiceBuilder::register_csr`] / [`SpmvService::register_csr`].
    /// Thread candidates above [`threads`](ServiceConfig::threads) are
    /// dropped at planner construction so a plan never promises more
    /// parallelism than the executor pool can deliver. The default turns
    /// the planner's host trial on: a compressed model pick is timed
    /// against the other formats on this host before it is committed.
    pub planner: PlannerConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            queue_capacity: 64,
            default_tenant_limits: TenantLimits::default(),
            default_deadline: Duration::from_millis(250),
            max_batch: MAX_BATCH,
            threads: 4,
            shards: 1,
            verify_every: 0,
            caller_participates: true,
            max_exec_deadline: watchdog_deadline(),
            breaker_trip_after: 3,
            breaker_cooldown: Duration::from_millis(250),
            supervise_interval: Duration::from_millis(10),
            stall_grace: Duration::from_secs(10),
            shard_trip_after: 3,
            drain_deadline: Duration::from_secs(2),
            planner: PlannerConfig { host_trial: true, ..PlannerConfig::default() },
        }
    }
}

impl ServiceConfig {
    /// [`Default`], but the `SPMV_WATCHDOG_MS` and `SPMV_ISA`
    /// environment knobs are validated strictly: a malformed value is a
    /// typed [`SparseError::InvalidArgument`] here rather than the
    /// implicit paths' warn-once-and-fall-back.
    pub fn from_env() -> Result<ServiceConfig, SparseError> {
        spmv_core::simd::env_isa_checked()?;
        let watchdog = watchdog_deadline_checked()?;
        Ok(ServiceConfig { max_exec_deadline: watchdog, ..ServiceConfig::default() })
    }
}

// ---------------------------------------------------------------------
// Requests, responses, the reply slot
// ---------------------------------------------------------------------

/// One `y = A·x` request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Registry name of the matrix.
    pub matrix: String,
    /// Tenant for quota accounting (any string; unregistered tenants
    /// get [`ServiceConfig::default_tenant_limits`]).
    pub tenant: String,
    /// Input vector; length must equal the matrix's column count.
    pub x: Vec<f64>,
    /// Deadline budget; `None` uses [`ServiceConfig::default_deadline`].
    pub deadline: Option<Duration>,
}

/// A completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The product vector (length = matrix rows).
    pub y: Vec<f64>,
    /// Width of the coalesced panel this request executed in.
    pub batch_k: usize,
    /// Time from admission to the start of the executing batch.
    pub queue_wait: Duration,
    /// Whether the executing call observed (and recovered from) faults.
    pub degraded: bool,
    /// Whether the batch ran serially because the matrix's circuit
    /// breaker was open or the shard is degraded.
    pub serial: bool,
}

/// Publish-once rendezvous between a dispatcher shard and a blocked
/// client. The first `publish` wins; the loser's result is dropped and
/// — by contract — the loser must not bump any terminal stats counter.
/// This is what lets the client-side backstop publish
/// [`ServiceError::DeadlineExceeded`], and the supervisor replay a dead
/// shard's in-flight batch, without ever double-counting a request.
///
/// Every lock acquisition recovers from [`PoisonError`]: a publisher
/// that panics mid-publish poisons the mutex, and without recovery the
/// *client* blocked in [`ReplySlot::wait_until`] would panic too —
/// exactly the no-hang/typed-error guarantee this type exists to keep.
pub(crate) struct ReplySlot {
    slot: Mutex<Option<Result<Response, ServiceError>>>,
    cv: Condvar,
}

impl ReplySlot {
    pub(crate) fn new() -> ReplySlot {
        ReplySlot { slot: Mutex::new(None), cv: Condvar::new() }
    }

    /// First writer wins; returns whether this call published.
    #[cfg(test)]
    fn publish(&self, r: Result<Response, ServiceError>) -> bool {
        self.publish_with(r, || {})
    }

    /// First writer wins; `on_win` runs *inside* the slot's critical
    /// section before any waiter can observe the reply, so terminal
    /// stats counters are already bumped by the time `submit` returns —
    /// a caller reading [`SpmvService::stats`](crate::SpmvService::stats)
    /// right after a reply sees consistent accounting.
    pub(crate) fn publish_with(
        &self,
        r: Result<Response, ServiceError>,
        on_win: impl FnOnce(),
    ) -> bool {
        let mut g = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if g.is_some() {
            return false;
        }
        *g = Some(r);
        on_win();
        self.cv.notify_all();
        true
    }

    /// Whether a reply has been published (terminal). Used by the
    /// supervisor to decide which in-flight requests need a replay.
    pub(crate) fn is_published(&self) -> bool {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner).is_some()
    }

    /// Blocks until a reply is published or `until` passes; `None` on
    /// timeout (the slot is left untouched for a backstop publish).
    fn wait_until(&self, until: Instant) -> Option<Result<Response, ServiceError>> {
        let mut g = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if g.is_some() {
                return g.take();
            }
            let now = Instant::now();
            if now >= until {
                return None;
            }
            g = self.cv.wait_timeout(g, until - now).unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    /// Takes the published reply, if any.
    fn take(&self) -> Option<Result<Response, ServiceError>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner).take()
    }
}

/// An admitted request, queued on (and replayable by) its shard.
pub(crate) struct Pending {
    /// Which registration this request is for (slot + generation, so a
    /// replay can never land on a reused slot).
    pub id: MatrixId,
    /// The shard the matrix hashes to; every terminal counter bump is
    /// attributed here.
    pub shard: usize,
    /// Matrix name, for typed lifecycle errors.
    pub matrix: String,
    pub tenant: String,
    /// The request's input vector, moved in at admission. Shared, not
    /// copied: a lone request hands it to the executor as is, and a
    /// supervisor replay still finds it here.
    pub x: Arc<Vec<f64>>,
    pub enqueued: Instant,
    pub expires: Instant,
    pub reply: Arc<ReplySlot>,
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Builds an [`SpmvService`]: register resident matrices (any
/// [`ChunkKernel`] — CSR, CSR-DU, CSR-VI, CSR-DU+VI chunk adapters all
/// qualify), set per-tenant limits, then [`start`](ServiceBuilder::start)
/// the dispatcher shards. Matrices can also be registered (and evicted)
/// on the live service afterwards.
pub struct ServiceBuilder {
    config: ServiceConfig,
    planner: Arc<Planner>,
    matrices: Vec<(String, Arc<dyn ChunkKernel<f64>>)>,
    tenants: HashMap<String, TenantLimits>,
    #[cfg(feature = "fault-injection")]
    fault_plan: Option<FaultPlan>,
}

/// Builds the service's planner from its config: thread candidates are
/// clamped to the executor pool size (and at least serial execution is
/// always a candidate), so a plan never asks for threads the pool does
/// not have.
fn service_planner(config: &ServiceConfig) -> Arc<Planner> {
    let mut pc = config.planner.clone();
    let pool = config.threads.max(1);
    pc.thread_candidates.retain(|&t| t >= 1 && t <= pool);
    if pc.thread_candidates.is_empty() {
        pc.thread_candidates.push(pool.min(pc.sim.machine.cores()).max(1));
    }
    Arc::new(Planner::new(pc))
}

impl ServiceBuilder {
    pub fn new(config: ServiceConfig) -> ServiceBuilder {
        let planner = service_planner(&config);
        ServiceBuilder {
            config,
            planner,
            matrices: Vec::new(),
            tenants: HashMap::new(),
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }

    /// Registers a resident matrix under `name` (later registrations
    /// with the same name shadow earlier ones).
    pub fn register_matrix(
        mut self,
        name: impl Into<String>,
        kernel: Arc<dyn ChunkKernel<f64>>,
    ) -> ServiceBuilder {
        let name = name.into();
        self.matrices.retain(|(n, _)| *n != name);
        self.matrices.push((name, kernel));
        self
    }

    /// Registers a CSR matrix **without an explicit format**: the
    /// planner picks format and partition granularity from its cost
    /// model (cached by matrix fingerprint — re-registering a known
    /// matrix re-encodes nothing at analysis time). Returns the builder
    /// and the decision for inspection.
    pub fn register_csr(
        mut self,
        name: impl Into<String>,
        m: Arc<Csr<u32, f64>>,
    ) -> Result<(ServiceBuilder, Plan), ServiceError> {
        let (plan, kernel) = self.planner.plan_kernel(&m).map_err(ServiceError::PlanningFailed)?;
        self = self.register_matrix(name, kernel);
        Ok((self, plan))
    }

    /// Sets explicit limits for a tenant (others get the config
    /// default).
    pub fn set_tenant_limits(
        mut self,
        tenant: impl Into<String>,
        limits: TenantLimits,
    ) -> ServiceBuilder {
        self.tenants.insert(tenant.into(), limits);
        self
    }

    /// Arms a clone of `plan` on every shard incarnation, so its
    /// executors inject the planned faults into *worker* threads during
    /// batch execution. Each shard participates as thread 0, which the
    /// supervised executor never fault-injects, so a shard cannot be
    /// killed by its own plan (use
    /// [`SpmvService::kill_shard`] / [`SpmvService::stall_shard`] for
    /// that).
    #[cfg(feature = "fault-injection")]
    pub fn inject_faults(mut self, plan: FaultPlan) -> ServiceBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Spawns the dispatcher shards and their supervisor and returns
    /// the running service.
    pub fn start(self) -> SpmvService {
        let cfg = self.config.clone();
        let nshards = cfg.shards.max(1);
        let pins: Vec<Arc<AtomicU64>> =
            (0..nshards).map(|_| Arc::new(AtomicU64::new(u64::MAX))).collect();
        let registry = Registry::new(nshards, pins.clone());
        for (name, kernel) in self.matrices {
            registry.insert(&name, kernel).expect("builder deduplicates matrix names");
        }
        let shards: Vec<Arc<ShardShared>> =
            (0..nshards).map(|i| Arc::new(ShardShared::new(Arc::clone(&pins[i])))).collect();
        let inner = Arc::new(ServiceInner {
            cfg,
            planner: self.planner,
            registry,
            stats: StatsInner::new(nshards),
            tenant_counts: Mutex::new(HashMap::new()),
            tenants: self.tenants,
            shards,
            epoch0: Instant::now(),
            accepting: AtomicBool::new(true),
            stopping: AtomicBool::new(false),
            #[cfg(feature = "fault-injection")]
            fault_plan: Mutex::new(self.fault_plan),
        });
        let handles: Vec<Option<JoinHandle<()>>> =
            (0..nshards).map(|i| Some(spawn_shard(&inner, i, 0))).collect();
        let supervisor = spawn_supervisor(&inner, handles);
        SpmvService { inner, supervisor: Mutex::new(Some(supervisor)) }
    }
}

// ---------------------------------------------------------------------
// The service handle
// ---------------------------------------------------------------------

/// A running SpMV service. Cheap to share behind an [`Arc`];
/// [`submit`](SpmvService::submit) blocks the calling thread until the
/// request terminates — with a [`Response`] or a typed
/// [`ServiceError`], never a hang. Dropping the service shuts it down
/// gracefully: admission closes, queued requests drain until the
/// configured drain deadline, the remainder expires with
/// [`ServiceError::DeadlineExceeded`], and every thread is joined.
pub struct SpmvService {
    inner: Arc<ServiceInner>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl SpmvService {
    /// Submits a request and blocks until it terminates. See the crate
    /// docs for the admission → shard queue → coalesce → execute
    /// pipeline.
    pub fn submit(&self, req: Request) -> Result<Response, ServiceError> {
        let stats = &self.inner.stats;
        // Validation happens before admission: these rejections are
        // request defects, not load signals, and stay out of
        // `submitted` so the shed-accounting invariants hold exactly.
        let Some(m) = self.inner.registry.lookup(&req.matrix) else {
            stats.bump(&stats.rejected_invalid);
            return Err(ServiceError::UnknownMatrix(req.matrix));
        };
        if m.evicting {
            stats.bump(&stats.rejected_invalid);
            return Err(ServiceError::Evicting(req.matrix));
        }
        if req.x.len() != m.ncols {
            stats.bump(&stats.rejected_invalid);
            return Err(ServiceError::DimensionMismatch { expected: m.ncols, got: req.x.len() });
        }
        let limits = self
            .inner
            .tenants
            .get(&req.tenant)
            .copied()
            .unwrap_or(self.inner.cfg.default_tenant_limits);
        let bytes = (req.x.len() * std::mem::size_of::<f64>()) as u64;
        if bytes > limits.max_vector_bytes {
            stats.bump(&stats.rejected_invalid);
            return Err(ServiceError::VectorTooLarge { bytes, max_bytes: limits.max_vector_bytes });
        }
        let budget = req.deadline.unwrap_or(self.inner.cfg.default_deadline);
        if budget.is_zero() {
            stats.bump(&stats.expired_at_submit);
            return Err(ServiceError::DeadlineExceeded { waited: Duration::ZERO });
        }
        if !self.inner.accepting.load(Ordering::Acquire) {
            stats.bump(&stats.rejected_shutdown);
            return Err(ServiceError::ShuttingDown);
        }

        let now = Instant::now();
        // Worked out before any counter or quota is touched. Both spans
        // are capped at `FAR_FUTURE`, so neither instant can overflow and
        // a budget of `Duration::MAX` reads as "no deadline".
        let expires = now + budget.min(FAR_FUTURE);
        let backstop = expires + self.reply_grace();
        let reply = Arc::new(ReplySlot::new());
        let sh = &self.inner.shards[m.shard];
        {
            let mut st = lock(&sh.state);
            if st.draining || st.shutdown {
                stats.bump(&stats.rejected_shutdown);
                return Err(ServiceError::ShuttingDown);
            }
            stats.bump(&stats.submitted);
            bump_shard(stats, m.shard, |s| &s.submitted);
            if st.sched.len() >= self.inner.cfg.queue_capacity {
                stats.bump(&stats.shed_overload);
                bump_shard(stats, m.shard, |s| &s.shed_overload);
                return Err(ServiceError::Overloaded {
                    queued: st.sched.len(),
                    capacity: self.inner.cfg.queue_capacity,
                });
            }
            {
                let mut counts = lock(&self.inner.tenant_counts);
                let inflight = counts.entry(req.tenant.clone()).or_insert(0);
                if *inflight >= limits.max_inflight {
                    let seen = *inflight;
                    stats.bump(&stats.shed_quota);
                    bump_shard(stats, m.shard, |s| &s.shed_quota);
                    return Err(ServiceError::TenantQuotaExceeded {
                        tenant: req.tenant,
                        inflight: seen,
                        quota: limits.max_inflight,
                    });
                }
                *inflight += 1;
            }
            st.sched.push(
                limits.weight,
                Arc::new(Pending {
                    id: m.id,
                    shard: m.shard,
                    matrix: req.matrix,
                    tenant: req.tenant,
                    x: Arc::new(req.x),
                    enqueued: now,
                    expires,
                    reply: Arc::clone(&reply),
                }),
            );
            stats.bump(&stats.admitted);
            bump_shard(stats, m.shard, |s| &s.admitted);
        }
        sh.work_cv.notify_one();

        // The shard expires stale requests at pop (and the supervisor
        // at respawn), so the normal deadline path answers well before
        // this backstop. The backstop exists so that `submit` cannot
        // hang even if the whole dispatch layer is wedged: past the
        // grace window the client publishes `DeadlineExceeded` itself
        // (publish-once keeps the accounting single-entry either way).
        match reply.wait_until(backstop) {
            Some(r) => r,
            None => {
                reply.publish_with(
                    Err(ServiceError::DeadlineExceeded { waited: now.elapsed() }),
                    || {
                        stats.bump(&stats.deadline_expired);
                        bump_shard(stats, m.shard, |s| &s.deadline_expired);
                    },
                );
                reply.take().expect("reply slot filled after backstop publish")
            }
        }
    }

    /// Slack beyond the request budget before the client-side backstop
    /// fires: the worst healthy batch, with margin for scheduling noise.
    fn reply_grace(&self) -> Duration {
        worst_healthy_batch(&self.inner.cfg).saturating_add(Duration::from_secs(5)).min(FAR_FUTURE)
    }

    /// Registers a matrix on the **live** service. The matrix is
    /// hash-assigned to a shard and servable as soon as this returns.
    /// Fails with [`ServiceError::AlreadyRegistered`] if the name is
    /// live (evict first to replace), or
    /// [`ServiceError::ShuttingDown`] during shutdown.
    pub fn register(
        &self,
        name: impl Into<String>,
        kernel: Arc<dyn ChunkKernel<f64>>,
    ) -> Result<(), ServiceError> {
        if !self.inner.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        self.inner.registry.insert(&name.into(), kernel).map(|_| ())
    }

    /// Registers a CSR matrix on the live service **without an explicit
    /// format**: the planner chooses format and partition granularity
    /// (see [`ServiceBuilder::register_csr`]) and the chosen kernel goes
    /// through the normal [`register`](SpmvService::register) path.
    /// Plans are cached by matrix fingerprint, so evicting and
    /// re-registering the same matrix is a cache hit that re-runs no
    /// analysis. Returns the decision. A live name or a closed service
    /// fails typed, as in [`register`](SpmvService::register), before
    /// any fingerprinting or planning is spent on the matrix.
    pub fn register_csr(
        &self,
        name: impl Into<String>,
        m: Arc<Csr<u32, f64>>,
    ) -> Result<Plan, ServiceError> {
        let name = name.into();
        // Planning a large matrix costs far more than these checks, so a
        // doomed registration fails before it starts; the registry
        // insert in `register` stays the authoritative check.
        if !self.inner.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        if self.inner.registry.lookup(&name).is_some() {
            return Err(ServiceError::AlreadyRegistered(name));
        }
        let (plan, kernel) =
            self.inner.planner.plan_kernel(&m).map_err(ServiceError::PlanningFailed)?;
        self.register(name, kernel)?;
        Ok(plan)
    }

    /// The service's shared planner (builder-time and live
    /// registrations hit the same plan cache).
    pub fn planner(&self) -> &Planner {
        &self.inner.planner
    }

    /// Snapshot of the planner's cache/analysis counters.
    pub fn planner_stats(&self) -> PlanCacheStats {
        self.inner.planner.stats()
    }

    /// Evicts a matrix from the live service. Epoch-based reclamation:
    ///
    /// 1. the registration flips to `Evicting` — new submissions are
    ///    rejected with [`ServiceError::Evicting`];
    /// 2. queued requests for the matrix are answered `Evicting`;
    /// 3. the global epoch is bumped and the call blocks until every
    ///    shard is quiescent or past the new epoch — no in-flight batch
    ///    can still observe the registration;
    /// 4. the registration is dropped and the owning shard retires its
    ///    cached executor.
    ///
    /// Returns [`ServiceError::UnknownMatrix`] for names never (or no
    /// longer) registered and [`ServiceError::Evicting`] if another
    /// eviction of the same name is still in flight.
    pub fn evict(&self, name: &str) -> Result<(), ServiceError> {
        let m = self.inner.registry.begin_evict(name)?;
        sweep_evicting(&self.inner, m.shard, m.id);
        self.inner.registry.bump_and_wait_quiescent(Duration::from_secs(30));
        // Requests that raced admission against step 1 landed after the
        // first sweep; they are queued but can no longer execute.
        sweep_evicting(&self.inner, m.shard, m.id);
        self.inner.registry.finish_evict(m.id);
        let sh = &self.inner.shards[m.shard];
        lock(&sh.retired).push(m.id);
        sh.work_cv.notify_all();
        Ok(())
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats.snapshot()
    }

    /// Live (non-evicting) matrices as `(name, nrows, ncols)`.
    pub fn matrices(&self) -> Vec<(String, usize, usize)> {
        self.inner.registry.live_matrices()
    }

    /// Number of dispatcher shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Chaos drill: makes shard `shard`'s dispatcher thread die
    /// abruptly at its next dispatch point — possibly with a batch in
    /// flight, which the supervisor must replay. Returns `false` for an
    /// out-of-range index. Safe in production in the sense that no
    /// admitted request is lost: the supervisor respawns the shard and
    /// replays unanswered work.
    pub fn kill_shard(&self, shard: usize) -> bool {
        match self.inner.shards.get(shard) {
            Some(sh) => {
                sh.kill.store(true, Ordering::Release);
                sh.work_cv.notify_all();
                true
            }
            None => false,
        }
    }

    /// Chaos drill: wedges shard `shard` after its next batch pop — it
    /// stops heartbeating with work in flight until the supervisor
    /// abandons and replaces it. Returns `false` for an out-of-range
    /// index.
    pub fn stall_shard(&self, shard: usize) -> bool {
        match self.inner.shards.get(shard) {
            Some(sh) => {
                sh.stall.store(true, Ordering::Release);
                sh.work_cv.notify_all();
                true
            }
            None => false,
        }
    }

    /// Graceful shutdown with the configured
    /// [`drain_deadline`](ServiceConfig::drain_deadline). Returns the
    /// final counters. Dropping the service does the same implicitly.
    pub fn shutdown(self) -> ServiceStats {
        let drain = self.inner.cfg.drain_deadline;
        self.shutdown_impl(drain);
        self.inner.stats.snapshot()
    }

    /// Graceful shutdown with an explicit drain budget:
    ///
    /// 1. admission closes — new submissions fail with
    ///    [`ServiceError::ShuttingDown`];
    /// 2. shards keep executing queued work until their queues empty or
    ///    `drain` elapses;
    /// 3. whatever is still queued expires with
    ///    [`ServiceError::DeadlineExceeded`];
    /// 4. shard threads and the supervisor are joined.
    ///
    /// Every request admitted before shutdown terminates with a typed
    /// reply; none is silently stranded.
    pub fn shutdown_within(self, drain: Duration) -> ServiceStats {
        self.shutdown_impl(drain);
        self.inner.stats.snapshot()
    }

    /// Initiates the same graceful drain from a *shared* handle (e.g. a
    /// signal handler holding an `Arc<SpmvService>` while clients are
    /// still blocked in [`submit`](SpmvService::submit)): admission
    /// closes, queued work drains until `drain` elapses, the remainder
    /// expires, and the threads are joined. Idempotent; later calls
    /// (and the eventual `Drop`) are no-ops. Read the final counters
    /// with [`stats`](SpmvService::stats).
    pub fn begin_shutdown(&self, drain: Duration) {
        self.shutdown_impl(drain);
    }

    fn shutdown_impl(&self, drain: Duration) {
        let Some(supervisor) = lock(&self.supervisor).take() else {
            return;
        };
        self.inner.accepting.store(false, Ordering::Release);
        for sh in &self.inner.shards {
            lock(&sh.state).draining = true;
            sh.work_cv.notify_all();
        }
        // Drain phase: wait for every queue and in-flight batch to
        // clear (the supervisor keeps recovering dying shards
        // throughout, so a mid-drain death does not strand its work).
        // The budget is capped at `FAR_FUTURE`, as in `submit`, so an
        // unbounded one cannot overflow the instant and leave the threads
        // running.
        let deadline = Instant::now() + drain.min(FAR_FUTURE);
        loop {
            let busy = self
                .inner
                .shards
                .iter()
                .any(|sh| !lock(&sh.state).sched.is_empty() || !lock(&sh.inflight).is_empty());
            if !busy || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Expire the remainder: queued work that outlived the drain
        // budget still terminates, with a typed error.
        for i in 0..self.inner.shards.len() {
            let now = Instant::now();
            crate::shard::sweep_queue(
                &self.inner,
                i,
                |_| true,
                |p| ServiceError::DeadlineExceeded { waited: now - p.enqueued },
                |s| &s.deadline_expired,
                |s| &s.deadline_expired,
            );
        }
        // Hard stop: shard loops exit at their next scheduler pass; the
        // supervisor joins them all and then exits itself.
        for sh in &self.inner.shards {
            lock(&sh.state).shutdown = true;
            sh.work_cv.notify_all();
        }
        self.inner.stopping.store(true, Ordering::Release);
        let _ = supervisor.join();
    }
}

impl Drop for SpmvService {
    fn drop(&mut self) {
        self.shutdown_impl(self.inner.cfg.drain_deadline);
    }
}

// ---------------------------------------------------------------------
// Unit tests for the pure pieces (end-to-end tests live in tests/)
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_slot_first_publish_wins() {
        let slot = ReplySlot::new();
        assert!(slot.publish(Err(ServiceError::ShuttingDown)));
        assert!(!slot.publish(Err(ServiceError::DeadlineExceeded { waited: Duration::ZERO })));
        assert_eq!(slot.take(), Some(Err(ServiceError::ShuttingDown)));
        assert_eq!(slot.take(), None, "take drains the slot");
    }

    #[test]
    fn reply_slot_wait_times_out_without_publish() {
        let slot = ReplySlot::new();
        let t0 = Instant::now();
        assert!(slot.wait_until(t0 + Duration::from_millis(20)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn reply_slot_survives_a_poisoned_lock() {
        // A publisher that panics inside the critical section poisons
        // the slot mutex. The client blocked in `wait_until` (and the
        // backstop's publish/take) must recover the guard and keep the
        // typed-reply contract instead of propagating the panic.
        let slot = Arc::new(ReplySlot::new());
        let poisoner = Arc::clone(&slot);
        let _ = std::thread::spawn(move || {
            poisoner.publish_with(Err(ServiceError::ShuttingDown), || {
                panic!("publisher dies inside the critical section");
            });
        })
        .join();
        assert!(slot.slot.is_poisoned(), "the panic must actually poison the lock");
        // The poisoned publish still landed (state update precedes
        // `on_win`), so publish-once, wait, and take all keep working.
        assert!(slot.is_published());
        assert!(!slot.publish(Err(ServiceError::DeadlineExceeded { waited: Duration::ZERO })));
        assert_eq!(
            slot.wait_until(Instant::now() + Duration::from_millis(10)),
            Some(Err(ServiceError::ShuttingDown))
        );
        assert_eq!(slot.take(), None);
        // And a fresh wait on the drained slot times out instead of
        // panicking on the poisoned condvar wait.
        assert!(slot.wait_until(Instant::now() + Duration::from_millis(5)).is_none());
    }
}
