//! Per-matrix circuit breaker: repeated pool faults trip the matrix to
//! serial execution for a cooldown, then a half-open probe decides
//! whether the pool has recovered.
//!
//! The breaker protects *throughput under persistent faults*: a worker
//! roster that panics or stalls on every dispatch makes each parallel
//! attempt cost a watchdog deadline plus recovery work, while the serial
//! path computes the same bits with no fault surface. State transitions:
//!
//! ```text
//! Closed --(trip_after consecutive faults)--> Open
//! Open   --(cooldown elapses)--------------> HalfOpen
//! HalfOpen --(probe succeeds)--> Closed
//! HalfOpen --(probe faults)----> Open (fresh cooldown)
//! ```
//!
//! Driven only by the single dispatcher thread, so it needs no interior
//! mutability; time is passed in, so tests are deterministic.

use crate::shard::FAR_FUTURE;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Healthy: execute in parallel, count consecutive faults.
    Closed,
    /// Tripped: execute serially until the cooldown elapses.
    Open { until: Instant },
    /// Cooldown over: the next parallel execution is a probe.
    HalfOpen,
}

/// See the module docs for the state machine.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: State,
    consecutive_faults: u32,
    trip_after: u32,
    cooldown: Duration,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker that trips after `trip_after` consecutive faults
    /// and stays open for `cooldown` before probing. A cooldown too long
    /// for an `Instant` (`Duration::MAX`) means "never probe".
    pub fn new(trip_after: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker {
            state: State::Closed,
            consecutive_faults: 0,
            trip_after: trip_after.max(1),
            cooldown: cooldown.min(FAR_FUTURE),
            trips: 0,
        }
    }

    /// Whether the next execution may use the parallel pool (`true`) or
    /// must run serially (`false`). Transitions `Open -> HalfOpen` when
    /// the cooldown has elapsed.
    pub fn allow_parallel(&mut self, now: Instant) -> bool {
        match self.state {
            State::Closed | State::HalfOpen => true,
            State::Open { until } if now >= until => {
                self.state = State::HalfOpen;
                true
            }
            State::Open { .. } => false,
        }
    }

    /// Records a pool fault: a supervised call whose health report is
    /// degraded (it recovered a panic, a stall or a corrupted chunk).
    /// Returns `true` when this fault tripped the breaker open.
    pub fn record_fault(&mut self, now: Instant) -> bool {
        match self.state {
            State::HalfOpen => {
                // The probe failed: back to a fresh cooldown.
                self.state = State::Open { until: now + self.cooldown };
                self.trips += 1;
                true
            }
            State::Closed => {
                self.consecutive_faults += 1;
                if self.consecutive_faults >= self.trip_after {
                    self.consecutive_faults = 0;
                    self.state = State::Open { until: now + self.cooldown };
                    self.trips += 1;
                    true
                } else {
                    false
                }
            }
            State::Open { .. } => false,
        }
    }

    /// Records a healthy parallel execution: resets the fault streak and
    /// closes a half-open breaker.
    pub fn record_success(&mut self) {
        self.consecutive_faults = 0;
        if self.state == State::HalfOpen {
            self.state = State::Closed;
        }
    }

    /// Times the breaker has tripped open over its lifetime.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Whether the breaker is currently forcing serial execution.
    pub fn is_open(&self) -> bool {
        matches!(self.state, State::Open { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_consecutive_faults_and_probes_after_cooldown() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(3, Duration::from_millis(100));
        assert!(b.allow_parallel(t0));
        assert!(!b.record_fault(t0));
        assert!(!b.record_fault(t0));
        assert!(b.allow_parallel(t0), "still closed below the trip threshold");
        assert!(b.record_fault(t0), "third consecutive fault trips");
        assert_eq!(b.trips(), 1);
        assert!(b.is_open());
        assert!(!b.allow_parallel(t0 + Duration::from_millis(50)), "open during cooldown");
        // Cooldown over: half-open probe allowed; success closes.
        assert!(b.allow_parallel(t0 + Duration::from_millis(100)));
        b.record_success();
        assert!(!b.is_open());
        assert!(b.allow_parallel(t0 + Duration::from_millis(100)));
    }

    #[test]
    fn failed_probe_reopens_with_a_fresh_cooldown() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(1, Duration::from_millis(100));
        assert!(b.record_fault(t0), "trip_after = 1 trips immediately");
        let probe_at = t0 + Duration::from_millis(100);
        assert!(b.allow_parallel(probe_at));
        assert!(b.record_fault(probe_at), "failed probe re-trips");
        assert_eq!(b.trips(), 2);
        assert!(!b.allow_parallel(probe_at + Duration::from_millis(99)), "fresh cooldown");
        assert!(b.allow_parallel(probe_at + Duration::from_millis(100)));
    }

    #[test]
    fn unbounded_cooldown_trips_and_stays_open() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(1, Duration::MAX);
        assert!(b.record_fault(t0), "trips without overflowing its reopen instant");
        assert!(b.is_open());
        assert!(!b.allow_parallel(t0 + Duration::from_secs(10 * 365 * 24 * 60 * 60)));
        assert!(b.is_open());
    }

    #[test]
    fn success_resets_the_fault_streak() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(2, Duration::from_millis(10));
        assert!(!b.record_fault(t0));
        b.record_success();
        assert!(!b.record_fault(t0), "streak restarted after a success");
        assert!(b.record_fault(t0));
    }
}
