//! Overload-safe, self-healing, sharded batched SpMV serving layer.
//!
//! Clients submit `y = A·x` requests against a registry of resident
//! matrices ([`SpmvService::submit`]) and get back a typed result or a
//! typed rejection — **never a hang**. The layer turns the supervised
//! multithreaded executor into a multi-tenant service that degrades
//! gracefully under overload instead of queueing unboundedly or
//! stalling, and that survives the death or stall of its own dispatch
//! threads without losing admitted requests.
//!
//! # Shard topology
//!
//! Dispatch is split across [`ServiceConfig::shards`] supervised
//! dispatcher shards. Each matrix is hash-assigned to one shard by name
//! (FNV-1a, stable across restarts), and that shard owns the matrix's
//! supervised executor pool and circuit breaker — shards share nothing
//! but the registry, the tenant quota table, and the stats sums. A
//! supervisor thread watches per-shard heartbeats:
//!
//! * a **dead** shard (thread exited) is respawned; its in-flight batch
//!   members whose replies were never published are re-queued at the
//!   *front* of the new incarnation's queue (publish-once reply slots
//!   make the replay idempotent — a request that already answered is
//!   skipped, one that didn't is answered exactly once);
//! * a **stalled** shard (heartbeat stale beyond
//!   [`ServiceConfig::stall_grace`] with work pending) is abandoned —
//!   its incarnation number is bumped so the wedged thread exits
//!   harmlessly if it ever wakes — and replaced the same way;
//! * after [`ServiceConfig::shard_trip_after`] respawns the shard's
//!   breaker trips and the replacement runs **degraded**: every batch
//!   executes on the serial fallback path (bit-identical results, no
//!   worker pool left to die).
//!
//! # Queue contract
//!
//! Admission control runs under the owning shard's queue mutex, in this
//! order:
//!
//! 1. **Validation** (no load accounting): unknown matrix, dimension
//!    mismatch, oversized vector, and zero deadline budget are rejected
//!    with the corresponding [`ServiceError`] before touching the
//!    queue.
//! 2. **Capacity**: each shard queue is bounded
//!    ([`ServiceConfig::queue_capacity`]); a full queue sheds with
//!    [`ServiceError::Overloaded`]. Backpressure is by rejection — the
//!    caller learns *immediately* that the service is saturated.
//! 3. **Quota**: each tenant may have at most
//!    [`TenantLimits::max_inflight`] requests queued (summed across
//!    shards); beyond that it is shed with
//!    [`ServiceError::TenantQuotaExceeded`], so one noisy tenant cannot
//!    monopolize the queue.
//!
//! Admitted requests carry a deadline budget (their own, or
//! [`ServiceConfig::default_deadline`]). The dispatcher expires stale
//! requests *before* spending pool time on them, and the budget also
//! bounds the executor's watchdog deadline for the batch, so a faulty
//! worker costs at most what the most impatient batch member has left.
//! As a final backstop, the submitting thread itself publishes
//! [`ServiceError::DeadlineExceeded`] if no reply arrives within the
//! budget plus a grace window — the no-hang guarantee does not depend
//! on the dispatcher being healthy.
//!
//! # Fairness and coalescing contract
//!
//! Within a shard, batch *leads* are chosen by weighted deficit round
//! robin over per-tenant FIFO queues: a tenant with
//! [`TenantLimits::weight`] `w` earns `w` lead credits per scheduler
//! round, so a tenant flooding the queue cannot starve a polite one —
//! the polite tenant still leads its fair share of batches and its
//! queue wait stays bounded by queue depth, not by the flooder's
//! backlog. Coalescing then fills the rest of the panel with the
//! oldest queued requests against the *same matrix* from **any**
//! tenant (riders cost no credits — fairness never fights batching),
//! up to [`ServiceConfig::max_batch`], run as one `ncols × k` panel
//! through the supervised SpMM path. Widths clamp down to
//! {8, 4, 2, 1} — the monomorphized panel kernels — and clamped-off
//! requests keep their queue positions, seeding the next batch.
//! Within a tenant, FIFO order is preserved; results are scattered
//! back per request, and each answer is bit-identical to a serial
//! `y = A·x` for that request's vector (the executor's recovery
//! guarantee extends through the panel path).
//!
//! # Hot matrix lifecycle
//!
//! [`SpmvService::register`] and [`SpmvService::evict`] work on the
//! *live* service. Eviction is epoch-based reclamation: the entry flips
//! to `Evicting` (admission rejects with [`ServiceError::Evicting`]),
//! queued requests for the matrix are answered `Evicting`, and the
//! evictor blocks until every shard is quiescent or past the bumped
//! epoch — so no in-flight batch can still observe the registration —
//! before the entry is dropped and the owning shard retires its cached
//! executor. Registration slots are reused, generations never are.
//!
//! # Drain / shutdown state machine
//!
//! [`SpmvService::shutdown`] (and [`SpmvService::shutdown_within`], and
//! `Drop`) runs **accepting → draining → expired → stopped**:
//! admission closes first (typed [`ServiceError::ShuttingDown`], never
//! a hang), shards keep executing queued work until their queues empty
//! or the drain deadline ([`ServiceConfig::drain_deadline`]) elapses,
//! the remainder is expired with [`ServiceError::DeadlineExceeded`],
//! and only then are the shard threads and the supervisor joined. The
//! same drain path runs when the supervisor replaces a shard, so a
//! respawn mid-shutdown cannot strand requests.
//!
//! # Failure handling
//!
//! Each batch is one supervised call. The executor absorbs worker
//! panics and stalls (and, with [`ServiceConfig::verify_every`],
//! corrupted chunks) and the batch still completes, flagged
//! [`Response::degraded`]; execution itself never fails a request.
//! Repeated degraded calls trip a per-matrix [`CircuitBreaker`] that
//! routes that matrix's batches to a serial fallback (same chunk
//! kernels, bit-identical results) for a cooldown before probing the
//! pool again.
//!
//! Every counter is exposed via [`SpmvService::stats`]; the
//! [`ServiceStats`] invariants (`submitted = admitted + sheds`,
//! `admitted = completed + expired + failed`) are what the BENCH.json
//! `service` validator re-checks on loadgen artifacts.

mod breaker;
mod error;
mod registry;
mod sched;
mod service;
mod shard;
mod stats;

pub use breaker::CircuitBreaker;
pub use error::ServiceError;
pub use service::{Request, Response, ServiceBuilder, ServiceConfig, SpmvService, TenantLimits};
pub use stats::{ServiceStats, ShardStats, MAX_BATCH};
