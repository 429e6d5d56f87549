//! Typed request outcomes: every path through the service terminates in
//! a [`Response`](crate::Response) or one of these errors — never a hang.

use spmv_core::SparseError;
use std::time::Duration;

/// Why a request did not return a result. Clients must handle every
/// variant; the first three are *load signals* (retry later, shed, or
/// slow down), the rest are request or lifecycle failures. Execution
/// never fails: the supervised executor recovers every worker fault.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Admission control shed the request: the bounded queue was full.
    /// Backpressure by rejection — the service never queues unboundedly.
    Overloaded {
        /// Requests queued when the request arrived.
        queued: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// Admission control shed the request: the tenant hit its in-flight
    /// quota ([`TenantLimits::max_inflight`](crate::TenantLimits)).
    TenantQuotaExceeded {
        /// The tenant that was over quota.
        tenant: String,
        /// The tenant's queued requests at admission time.
        inflight: usize,
        /// The tenant's quota.
        quota: usize,
    },
    /// The request's deadline budget expired: either fail-fast before
    /// admission (zero budget), while queued (the dispatcher expires
    /// stale requests before touching the pool), or at the client-side
    /// reply backstop.
    DeadlineExceeded {
        /// How long the request waited before expiring.
        waited: Duration,
    },
    /// The request's x vector exceeds the tenant's per-request byte
    /// ceiling ([`TenantLimits::max_vector_bytes`](crate::TenantLimits)).
    VectorTooLarge {
        /// The request vector's size in bytes.
        bytes: u64,
        /// The tenant's ceiling.
        max_bytes: u64,
    },
    /// The named matrix is not in the service's registry.
    UnknownMatrix(String),
    /// The request vector's length disagrees with the matrix.
    DimensionMismatch {
        /// The matrix's column count.
        expected: usize,
        /// The request vector's length.
        got: usize,
    },
    /// The named matrix is being evicted: new requests are rejected and
    /// requests already queued for it are answered with this error.
    Evicting(String),
    /// [`register`](crate::SpmvService::register) was called with a name
    /// that is already live; evict it first to replace the matrix.
    AlreadyRegistered(String),
    /// The service is shutting down: admission is closed, and queued
    /// requests that outlive the drain deadline expire instead of being
    /// executed.
    ShuttingDown,
    /// [`register_csr`](crate::SpmvService::register_csr) could not plan
    /// or encode the matrix (e.g. the planner was configured with no
    /// usable thread candidates, or chose an unmodeled format).
    PlanningFailed(SparseError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { queued, capacity } => {
                write!(f, "overloaded: {queued} requests queued at capacity {capacity}")
            }
            ServiceError::TenantQuotaExceeded { tenant, inflight, quota } => {
                write!(f, "tenant {tenant:?} quota exceeded: {inflight} in flight, quota {quota}")
            }
            ServiceError::DeadlineExceeded { waited } => {
                write!(f, "deadline exceeded after {waited:?}")
            }
            ServiceError::VectorTooLarge { bytes, max_bytes } => {
                write!(f, "request vector is {bytes} bytes, tenant ceiling is {max_bytes}")
            }
            ServiceError::UnknownMatrix(name) => {
                write!(f, "matrix {name:?} is not registered")
            }
            ServiceError::DimensionMismatch { expected, got } => {
                write!(f, "x has {got} entries but the matrix has {expected} columns")
            }
            ServiceError::Evicting(name) => {
                write!(f, "matrix {name:?} is being evicted")
            }
            ServiceError::AlreadyRegistered(name) => {
                write!(f, "matrix {name:?} is already registered")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::PlanningFailed(e) => write!(f, "matrix planning failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}
