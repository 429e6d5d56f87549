//! Service counters, maintained so two invariants hold exactly once the
//! traffic has drained (the BENCH.json validator re-checks them):
//!
//! * `submitted == admitted + shed_overload + shed_quota` — every
//!   request reaching admission control is admitted or shed;
//! * `admitted == completed + deadline_expired + failed` — every
//!   admitted request terminates in exactly one reply.
//!
//! Both invariants also hold **per shard**: every request is routed to
//! exactly one dispatcher shard at admission and bumps that shard's
//! mirror of each counter, so the global counters are exact sums of the
//! per-shard ones. `requeued` (requests replayed after a shard death)
//! and `respawns` are informational — a replayed request still
//! terminates exactly once, so it never double-counts in the invariants.
//!
//! Requests rejected *before* admission (unknown matrix, dimension
//! mismatch, oversized vector, zero deadline budget, shutdown in
//! progress, eviction in progress) are counted in `rejected_invalid` /
//! `expired_at_submit` / `rejected_shutdown` and are outside
//! `submitted`. Reply publication is first-write-wins (see
//! `ReplySlot`), and each terminal counter is bumped only by the thread
//! whose publish won, so no reply is ever double-counted.

use std::sync::atomic::{AtomicU64, Ordering};

/// The widest panel the coalescer ever builds (and the histogram size).
pub const MAX_BATCH: usize = 8;

/// Per-shard mirrors of the admission/terminal counters, plus the
/// supervision counters that only exist per shard.
#[derive(Default)]
pub(crate) struct ShardStatsInner {
    pub submitted: AtomicU64,
    pub admitted: AtomicU64,
    pub shed_overload: AtomicU64,
    pub shed_quota: AtomicU64,
    pub deadline_expired: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub requeued: AtomicU64,
    pub respawns: AtomicU64,
    pub degraded: AtomicU64, // 0/1 flag: shard breaker tripped
}

pub(crate) struct StatsInner {
    pub submitted: AtomicU64,
    pub admitted: AtomicU64,
    pub shed_overload: AtomicU64,
    pub shed_quota: AtomicU64,
    pub rejected_invalid: AtomicU64,
    pub expired_at_submit: AtomicU64,
    pub rejected_shutdown: AtomicU64,
    pub deadline_expired: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub pool_faults: AtomicU64,
    pub breaker_trips: AtomicU64,
    pub serial_batches: AtomicU64,
    pub batch_sizes: [AtomicU64; MAX_BATCH],
    pub shards: Vec<ShardStatsInner>,
}

impl StatsInner {
    pub fn new(nshards: usize) -> StatsInner {
        StatsInner {
            submitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            shed_quota: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            expired_at_submit: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            pool_faults: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            serial_batches: AtomicU64::new(0),
            batch_sizes: std::array::from_fn(|_| AtomicU64::new(0)),
            shards: (0..nshards.max(1)).map(|_| ShardStatsInner::default()).collect(),
        }
    }

    pub fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ServiceStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServiceStats {
            submitted: load(&self.submitted),
            admitted: load(&self.admitted),
            shed_overload: load(&self.shed_overload),
            shed_quota: load(&self.shed_quota),
            rejected_invalid: load(&self.rejected_invalid),
            expired_at_submit: load(&self.expired_at_submit),
            rejected_shutdown: load(&self.rejected_shutdown),
            deadline_expired: load(&self.deadline_expired),
            completed: load(&self.completed),
            failed: load(&self.failed),
            retries: 0,
            pool_faults: load(&self.pool_faults),
            breaker_trips: load(&self.breaker_trips),
            serial_batches: load(&self.serial_batches),
            batch_sizes: std::array::from_fn(|i| load(&self.batch_sizes[i])),
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardStats {
                    shard: i,
                    submitted: load(&s.submitted),
                    admitted: load(&s.admitted),
                    shed_overload: load(&s.shed_overload),
                    shed_quota: load(&s.shed_quota),
                    deadline_expired: load(&s.deadline_expired),
                    completed: load(&s.completed),
                    failed: load(&s.failed),
                    requeued: load(&s.requeued),
                    respawns: load(&s.respawns),
                    degraded: load(&s.degraded) != 0,
                })
                .collect(),
        }
    }
}

/// A point-in-time snapshot of the service counters
/// ([`SpmvService::stats`](crate::SpmvService::stats)). Counter semantics
/// and invariants are documented on the module.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests that reached admission control (valid, positive budget).
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests shed with [`Overloaded`](crate::ServiceError::Overloaded).
    pub shed_overload: u64,
    /// Requests shed with
    /// [`TenantQuotaExceeded`](crate::ServiceError::TenantQuotaExceeded).
    pub shed_quota: u64,
    /// Requests rejected before admission: unknown matrix, dimension
    /// mismatch, or an oversized vector.
    pub rejected_invalid: u64,
    /// Requests whose deadline budget was already zero at submission
    /// (failed fast before admission).
    pub expired_at_submit: u64,
    /// Requests rejected with
    /// [`ShuttingDown`](crate::ServiceError::ShuttingDown) after admission
    /// closed (outside `submitted`, like the other pre-admission counts).
    pub rejected_shutdown: u64,
    /// Admitted requests that expired while queued (or at the reply
    /// backstop) and were answered
    /// [`DeadlineExceeded`](crate::ServiceError::DeadlineExceeded).
    pub deadline_expired: u64,
    /// Admitted requests answered with a result.
    pub completed: u64,
    /// Admitted requests answered
    /// [`Evicting`](crate::ServiceError::Evicting): queued, or popped in
    /// a batch, while their matrix was torn down. (Requests still queued
    /// when a shutdown's drain budget runs out count in
    /// `deadline_expired`.)
    pub failed: u64,
    /// Always 0: the supervised executor recovers every worker fault
    /// itself, so the service never re-runs a batch. The field stays
    /// because benchmark artifacts and their readers still carry it.
    pub retries: u64,
    /// Faults in the health reports of degraded supervised calls: each
    /// recovered panic, stall and corrupted chunk counts once (a stalled
    /// worker's respawn is its recovery and does not count again).
    pub pool_faults: u64,
    /// Times a per-matrix circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Batches executed serially because a breaker was open.
    pub serial_batches: u64,
    /// `batch_sizes[i]` panels executed at width `k = i + 1`.
    pub batch_sizes: [u64; MAX_BATCH],
    /// Per-shard counter mirrors plus supervision counters; always at
    /// least one entry. Admission and terminal counters sum exactly to
    /// the globals above.
    pub shards: Vec<ShardStats>,
}

/// Snapshot of one dispatcher shard's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Shard index (position in [`ServiceStats::shards`]).
    pub shard: usize,
    /// Requests routed to this shard that reached admission control.
    pub submitted: u64,
    /// Requests admitted into this shard's queue.
    pub admitted: u64,
    /// Shed with [`Overloaded`](crate::ServiceError::Overloaded) — the
    /// capacity check is per shard queue.
    pub shed_overload: u64,
    /// Shed with
    /// [`TenantQuotaExceeded`](crate::ServiceError::TenantQuotaExceeded)
    /// (the quota itself is global across shards).
    pub shed_quota: u64,
    /// Admitted requests answered `DeadlineExceeded`.
    pub deadline_expired: u64,
    /// Admitted requests answered with a result.
    pub completed: u64,
    /// Admitted requests answered `Evicting`.
    pub failed: u64,
    /// In-flight requests replayed after this shard died or stalled
    /// (each still terminates exactly once; informational).
    pub requeued: u64,
    /// Times the supervisor respawned this shard's dispatcher thread.
    pub respawns: u64,
    /// Shard breaker tripped: the shard now drains serially.
    pub degraded: bool,
}

impl ServiceStats {
    /// Total batches executed (any width).
    pub fn batches(&self) -> u64 {
        self.batch_sizes.iter().sum()
    }

    /// Requests covered by executed batches: `Σ (i + 1) · batch_sizes[i]`.
    pub fn batched_requests(&self) -> u64 {
        self.batch_sizes.iter().enumerate().map(|(i, n)| (i as u64 + 1) * n).sum()
    }

    /// Total in-flight requests replayed after shard deaths/stalls.
    pub fn requeued(&self) -> u64 {
        self.shards.iter().map(|s| s.requeued).sum()
    }

    /// Total shard dispatcher respawns across the service lifetime.
    pub fn respawns(&self) -> u64 {
        self.shards.iter().map(|s| s.respawns).sum()
    }
}
