//! Deterministic fault injection for the supervised executor.
//!
//! The recovery paths in [`crate::supervised`] only matter if they are
//! exercised; this module provides the scripted faults that exercise
//! them. A [`FaultPlan`] is a list of (injection point → action) rules
//! armed on the current thread; the hooks inside the supervised executor
//! consult the plan and fire each rule **exactly once**.
//!
//! ## Injection points
//!
//! Hooks are compiled in only under the `fault-injection` cargo feature
//! (release builds carry zero injection code — the hook functions compile
//! to nothing). The supervised executor consults the plan at two points:
//!
//! * **before a worker computes a chunk** — [`FaultAction::PanicOnce`]
//!   panics on the worker thread (caught by the worker loop),
//!   [`FaultAction::DelayOnce`] sleeps past the watchdog deadline to
//!   simulate a wedged worker, and [`FaultAction::ExitThread`] makes the
//!   worker thread return from its loop entirely, simulating a dead
//!   worker that must be respawned;
//! * **after a worker computes a chunk** — [`FaultAction::CorruptChunk`]
//!   flips the sign of the first element the worker produced, simulating
//!   silent data corruption that only the self-check can catch.
//!
//! ## Determinism
//!
//! There is no randomness anywhere: a rule names its target explicitly
//! (dispatch sequence number and/or chunk index), and the plan is
//! consumed-once, so a test that arms
//! `panic on dispatch 0, chunk 2` observes exactly one panic at exactly
//! that point on every run, under every thread interleaving. The "fixed
//! seed" of the CI fault-smoke gate is the script itself.
//!
//! Plans are **thread-local to the arming thread** in their bookkeeping
//! but shared with workers through an `Arc`, so concurrent tests in the
//! same process cannot see each other's faults.

#![allow(dead_code)] // the harness is only driven under `fault-injection`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What to do when a matching injection point is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic on the executing thread (message: `"injected panic"`).
    PanicOnce,
    /// Sleep for the given duration before computing, simulating a stall
    /// past the watchdog deadline.
    DelayOnce(Duration),
    /// Make the worker thread exit its loop, simulating a dead worker.
    ExitThread,
    /// Corrupt the first output element of the chunk after computing it
    /// (sign flip), simulating silent corruption.
    CorruptChunk,
}

/// Where a fault fires. `None` fields are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Zero-based dispatch (supervised call) sequence number since the
    /// plan was armed.
    pub dispatch: Option<u64>,
    /// Chunk index within the dispatch.
    pub chunk: Option<usize>,
}

impl FaultSite {
    /// Matches any chunk of any dispatch.
    pub fn any() -> FaultSite {
        FaultSite { dispatch: None, chunk: None }
    }

    /// Matches one chunk of one dispatch, whichever worker claims it.
    pub fn chunk(dispatch: u64, chunk: usize) -> FaultSite {
        FaultSite { dispatch: Some(dispatch), chunk: Some(chunk) }
    }

    fn matches(&self, dispatch: u64, chunk: usize) -> bool {
        self.dispatch.is_none_or(|d| d == dispatch) && self.chunk.is_none_or(|c| c == chunk)
    }
}

struct Rule {
    site: FaultSite,
    action: FaultAction,
    fired: AtomicBool,
}

impl Clone for Rule {
    fn clone(&self) -> Rule {
        Rule {
            site: self.site,
            action: self.action,
            fired: AtomicBool::new(self.fired.load(Ordering::Acquire)),
        }
    }
}

/// A scripted, consumed-once set of fault rules.
///
/// Arm with [`FaultPlan::arm`]; the executor hooks consult the armed plan
/// through [`current`]. Dropping the returned [`ArmedPlan`] guard disarms.
#[derive(Default, Clone)]
pub struct FaultPlan {
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a rule; each rule fires at most once.
    pub fn inject(mut self, site: FaultSite, action: FaultAction) -> FaultPlan {
        self.rules.push(Rule { site, action, fired: AtomicBool::new(false) });
        self
    }

    /// Arms the plan for code run on the current thread *and* on
    /// supervised workers dispatched while armed. Returns a guard; the
    /// plan is disarmed when the guard drops.
    pub fn arm(self) -> ArmedPlan {
        let shared = Arc::new(PlanState { plan: self, dispatch: Mutex::new(0) });
        ACTIVE.with(|a| *a.borrow_mut() = Some(Arc::clone(&shared)));
        ArmedPlan { shared }
    }

    /// Consumes the first unfired rule matching the site, if any.
    fn take(&self, dispatch: u64, chunk: usize) -> Option<FaultAction> {
        for rule in &self.rules {
            if rule.site.matches(dispatch, chunk)
                && rule
                    .fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return Some(rule.action);
            }
        }
        None
    }

    /// Number of rules that have fired so far.
    pub fn fired_count(&self) -> usize {
        self.rules.iter().filter(|r| r.fired.load(Ordering::Acquire)).count()
    }
}

struct PlanState {
    plan: FaultPlan,
    /// Dispatch sequence counter, bumped by the executor per call.
    dispatch: Mutex<u64>,
}

thread_local! {
    static ACTIVE: std::cell::RefCell<Option<Arc<PlanState>>> =
        const { std::cell::RefCell::new(None) };
}

/// Guard holding a plan armed on the current thread. The executor clones
/// the inner `Arc` into workers at dispatch time.
pub struct ArmedPlan {
    shared: Arc<PlanState>,
}

impl ArmedPlan {
    /// How many of the plan's rules have fired. Tests assert this to prove
    /// the fault actually happened (a recovery test that never injects
    /// proves nothing).
    pub fn fired_count(&self) -> usize {
        self.shared.plan.fired_count()
    }
}

impl Drop for ArmedPlan {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = None);
    }
}

/// Handle the executor captures at dispatch time and passes into workers.
#[derive(Clone)]
pub struct FaultHandle {
    state: Option<Arc<PlanState>>,
    dispatch: u64,
}

impl FaultHandle {
    /// Snapshot of the plan armed on the *calling* thread, advancing its
    /// dispatch counter. Returns an inert handle when nothing is armed.
    pub fn capture() -> FaultHandle {
        let state = ACTIVE.with(|a| a.borrow().clone());
        let dispatch = match &state {
            Some(s) => {
                let mut d = s.dispatch.lock().unwrap();
                let cur = *d;
                *d += 1;
                cur
            }
            None => 0,
        };
        FaultHandle { state, dispatch }
    }

    /// An inert handle (never fires).
    pub fn inert() -> FaultHandle {
        FaultHandle { state: None, dispatch: 0 }
    }

    /// Consumes a matching before-compute rule. `PanicOnce` panics here;
    /// `DelayOnce` sleeps here; `ExitThread` and `CorruptChunk` are
    /// returned for the caller to act on.
    pub fn before_compute(&self, chunk: usize) -> Option<FaultAction> {
        let action = self.state.as_ref()?.plan.take(self.dispatch, chunk)?;
        match action {
            FaultAction::PanicOnce => panic!("injected panic"),
            FaultAction::DelayOnce(d) => {
                std::thread::sleep(d);
                None
            }
            FaultAction::ExitThread | FaultAction::CorruptChunk => Some(action),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_fire_exactly_once() {
        let plan = FaultPlan::new().inject(FaultSite::chunk(0, 1), FaultAction::CorruptChunk);
        let armed = plan.arm();
        let h = FaultHandle::capture();
        assert_eq!(h.before_compute(0), None); // wrong chunk
        assert_eq!(h.before_compute(1), Some(FaultAction::CorruptChunk));
        assert_eq!(h.before_compute(1), None); // consumed
        assert_eq!(armed.fired_count(), 1);
    }

    #[test]
    fn dispatch_counter_advances_per_capture() {
        let plan = FaultPlan::new().inject(FaultSite::chunk(1, 0), FaultAction::CorruptChunk);
        let _armed = plan.arm();
        let h0 = FaultHandle::capture();
        assert_eq!(h0.before_compute(0), None); // dispatch 0: no match
        let h1 = FaultHandle::capture();
        assert_eq!(h1.before_compute(0), Some(FaultAction::CorruptChunk));
    }

    #[test]
    fn disarm_on_drop() {
        {
            let _armed = FaultPlan::new().inject(FaultSite::any(), FaultAction::CorruptChunk).arm();
        }
        let h = FaultHandle::capture();
        assert_eq!(h.before_compute(0), None);
    }

    #[test]
    #[should_panic(expected = "injected panic")]
    fn panic_once_panics() {
        let _armed = FaultPlan::new().inject(FaultSite::any(), FaultAction::PanicOnce).arm();
        let h = FaultHandle::capture();
        h.before_compute(0);
    }
}
