//! The timed phases: the paper's kernel protocol over `Par*` executors,
//! and closed-loop clients against a running `SpmvService`.

use spmv_memsim::Plan;
use spmv_parallel::ParSpMm;
use spmv_service::{
    Request, ServiceBuilder, ServiceConfig, ServiceError, ServiceStats, SpmvService,
};
use std::time::{Duration, Instant};

use crate::fixture::{Enc, Fmt, Mat, Rng, FMTS, K8, XS};
use crate::host::THREADS;
use crate::report::Accounting;
use crate::trace::{label, Tracer, ROOT};

/// The latency limit: the service's default deadline budget. An answer
/// later than this counts as failed.
pub fn latency_limit() -> Duration {
    ServiceConfig::default().default_deadline
}

/// The kernel cells of the protocol: every matrix × format × k ∈ {1, 8}.
pub fn cells(nmats: usize) -> Vec<(usize, Fmt, usize)> {
    let mut v = Vec::new();
    for m in 0..nmats {
        for f in FMTS {
            for k in [1, K8] {
                v.push((m, f, k));
            }
        }
    }
    v
}

/// Per-call times of the kernel phase.
pub struct KernelRun {
    /// Seconds per call, indexed like [`cells`].
    pub cell_s: Vec<Vec<f64>>,
    pub acc: Accounting,
    pub elapsed_s: f64,
}

impl KernelRun {
    /// Appends a later run of the same cells.
    pub fn absorb(&mut self, o: KernelRun) {
        for (mine, theirs) in self.cell_s.iter_mut().zip(o.cell_s) {
            mine.extend(theirs);
        }
        self.acc.add(&o.acc);
        self.elapsed_s += o.elapsed_s;
    }
}

/// Builds the `Par*` executor of every (matrix, format).
pub fn par_execs<'a>(mats: &'a [Mat], encs: &'a [Enc]) -> Vec<Vec<Box<dyn ParSpMm<f64> + 'a>>> {
    mats.iter()
        .zip(encs)
        .map(|(m, e)| FMTS.iter().map(|&f| crate::fixture::par_exec(m, e, f)).collect())
        .collect()
}

/// Repeated rounds over every cell in a seeded order until `dur` has
/// passed (at least one full round). Every output is compared bit for
/// bit with the serial CSR reference, outside the timed call.
pub fn kernel_run(
    mats: &[Mat],
    execs: &mut [Vec<Box<dyn ParSpMm<f64> + '_>>],
    dur: Duration,
    rng: &mut Rng,
    tr: &mut Tracer,
) -> KernelRun {
    let cells = cells(mats.len());
    let mut out = KernelRun {
        cell_s: vec![Vec::new(); cells.len()],
        acc: Accounting::default(),
        elapsed_s: 0.0,
    };
    let mut ys: Vec<(Vec<f64>, Vec<f64>)> =
        mats.iter().map(|m| (vec![0.0; m.csr.nrows()], vec![0.0; m.csr.nrows() * K8])).collect();
    let limit = latency_limit().as_secs_f64();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let t0 = Instant::now();
    let mut op = 0u64;
    loop {
        rng.shuffle(&mut order);
        for &c in &order {
            let (m, f, k) = cells[c];
            let mat = &mats[m];
            let exec = &mut execs[m][f.index()];
            let (y1, y8) = &mut ys[m];
            let xi = rng.below(XS);
            let root = tr.begin("op", ROOT, op, label(m, f.index(), k));
            let span = tr.begin("par", root, op, label(m, f.index(), k));
            let start = Instant::now();
            if k == 1 {
                exec.par_spmv(std::hint::black_box(&mat.xs[xi]), y1);
            } else {
                exec.par_spmm(std::hint::black_box(&mat.x8), K8, y8);
            }
            let s = start.elapsed().as_secs_f64();
            tr.end(span);
            let check = tr.begin("verify", root, op, label(m, f.index(), k));
            let ok = if k == 1 { mat.check1(xi, y1) } else { mat.check8(y8) };
            tr.end(check);
            tr.end(root);
            out.acc.attempted += 1;
            if !ok {
                out.acc.wrong += 1;
            } else if s > limit {
                out.acc.late += 1;
            }
            out.cell_s[c].push(s);
            op += 1;
        }
        if t0.elapsed() >= dur {
            break;
        }
    }
    out.elapsed_s = t0.elapsed().as_secs_f64();
    out
}

/// Service configuration sized for a 2-CPU host: two pool threads per
/// executor and one dispatcher shard; everything else is the default.
pub fn service_config() -> ServiceConfig {
    ServiceConfig { threads: THREADS, shards: 1, ..ServiceConfig::default() }
}

/// A started service and the planner's decision for each registered
/// matrix (`mats` first, then the churn matrix).
pub struct Started {
    pub svc: SpmvService,
    pub plans: Vec<Plan>,
}

/// Registers every matrix through the planner, starts the service and
/// sends one warm request per matrix (checked against its reference).
pub fn start_service(
    mats: &[Mat],
    churn: Option<&Mat>,
    tenant: &str,
    acc: &mut Accounting,
) -> Started {
    let mut builder = ServiceBuilder::new(service_config());
    let mut plans = Vec::new();
    for m in mats.iter().chain(churn) {
        let (b, plan) = builder
            .register_csr(m.name.clone(), std::sync::Arc::clone(&m.csr))
            .expect("planner accepts corpus matrices");
        builder = b;
        plans.push(plan);
    }
    let svc = builder.start();
    for m in mats {
        let req = Request {
            matrix: m.name.clone(),
            tenant: tenant.to_string(),
            x: m.xs[0].clone(),
            deadline: None,
        };
        acc.attempted += 1;
        match svc.submit(req) {
            Ok(r) if m.check1(0, &r.y) => {}
            Ok(_) => acc.wrong += 1,
            Err(_) => acc.errors += 1,
        }
    }
    Started { svc, plans }
}

/// Traffic shape of a closed-loop serving phase.
pub struct ServeSpec {
    pub clients: usize,
    pub tenants: Vec<String>,
    /// Client 0 evicts and re-registers this matrix every
    /// [`CHURN_EVERY`] of its requests; no request targets it.
    pub churn: Option<usize>,
}

/// Requests client 0 sends between two churn cycles.
pub const CHURN_EVERY: u64 = 200;

/// Name the churn matrix is registered under.
pub const CHURN_NAME: &str = "churn";

pub struct ServeRun {
    /// Client-side `submit` time of each completed request, ms, in
    /// slice order.
    pub latencies_ms: Vec<f64>,
    /// `(completions, seconds)` of each slice appended by [`absorb`].
    ///
    /// [`absorb`]: ServeRun::absorb
    pub slices: Vec<(usize, f64)>,
    pub acc: Accounting,
    pub elapsed_s: f64,
    pub before: ServiceStats,
    pub after: ServiceStats,
    pub tracer: Tracer,
}

impl ServeRun {
    /// Appends a later run against the same service.
    pub fn absorb(&mut self, o: ServeRun) {
        self.latencies_ms.extend(o.latencies_ms);
        self.slices.extend(o.slices);
        self.acc.add(&o.acc);
        self.elapsed_s += o.elapsed_s;
        self.after = o.after;
        self.tracer.absorb(o.tracer);
    }
}

/// Closed-loop clients: each sends its next request when the previous
/// one returns. The clients walk one seeded ring of the matrices
/// round-robin, evenly spaced around it, so two clients ask for the same
/// matrix at once only as often as their rates drift apart. The x vector
/// and tenant of each request are seeded.
#[allow(clippy::too_many_arguments)]
pub fn serve_run(
    svc: &SpmvService,
    mats: &[Mat],
    churn: Option<&Mat>,
    spec: &ServeSpec,
    plan_fmt: &[usize],
    dur: Duration,
    seed: u64,
    epoch: Instant,
    traced: bool,
) -> ServeRun {
    let before = svc.stats();
    let limit = latency_limit();
    let t0 = Instant::now();
    let end = t0 + dur;
    let mut ring: Vec<usize> = (0..mats.len()).collect();
    Rng::new(seed).shuffle(&mut ring);
    let ring = &ring;
    let results: Vec<(Vec<f64>, Accounting, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                s.spawn(move || {
                    let mut tr = Tracer::new(epoch, traced);
                    let mut rng =
                        Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
                    let offset = c * mats.len() / spec.clients;
                    let mut lat = Vec::new();
                    let mut acc = Accounting::default();
                    let mut i = 0u64;
                    while Instant::now() < end {
                        let m = ring[(offset + i as usize) % mats.len()];
                        let mat = &mats[m];
                        let xi = rng.below(XS);
                        let tenant = &spec.tenants[rng.below(spec.tenants.len())];
                        let req_id = ((c as u64) << 40) | i;
                        i += 1;
                        let x = mat.xs[xi].clone();
                        let f = plan_fmt[m];
                        let root = tr.begin("request", ROOT, req_id, label(m, f, 0));
                        let sub = tr.begin("submit", root, req_id, label(m, f, 0));
                        let start = Instant::now();
                        let r = svc.submit(Request {
                            matrix: mat.name.clone(),
                            tenant: tenant.clone(),
                            x,
                            deadline: None,
                        });
                        let took = start.elapsed();
                        acc.attempted += 1;
                        match r {
                            Ok(resp) => {
                                tr.record(
                                    "queue_wait",
                                    sub,
                                    req_id,
                                    label(m, f, resp.batch_k),
                                    start,
                                    resp.queue_wait.as_nanos() as u64,
                                );
                                tr.end_labelled(sub, label(m, f, resp.batch_k));
                                let check =
                                    tr.begin("verify", root, req_id, label(m, f, resp.batch_k));
                                let ok = mat.check1(xi, &resp.y);
                                tr.end(check);
                                if !ok {
                                    acc.wrong += 1;
                                } else if took > limit {
                                    acc.late += 1;
                                }
                                lat.push(took.as_secs_f64() * 1e3);
                            }
                            Err(e) => {
                                tr.end(sub);
                                match e {
                                    ServiceError::Overloaded { .. }
                                    | ServiceError::TenantQuotaExceeded { .. } => acc.shed += 1,
                                    ServiceError::DeadlineExceeded { .. } => acc.expired += 1,
                                    _ => acc.errors += 1,
                                }
                            }
                        }
                        tr.end(root);
                        if let (0, Some(ci), Some(ch)) = (c, spec.churn, churn) {
                            if i.is_multiple_of(CHURN_EVERY) {
                                let ev = tr.begin("evict", ROOT, req_id, label(ci, 0, 0));
                                let evicted = svc.evict(CHURN_NAME);
                                tr.end(ev);
                                let reg = tr.begin("register", ROOT, req_id, label(ci, 0, 0));
                                let registered =
                                    svc.register_csr(CHURN_NAME, std::sync::Arc::clone(&ch.csr));
                                tr.end(reg);
                                if let Some(e) = evicted.err().or(registered.err()) {
                                    eprintln!("perfbench: churn cycle failed: {e}");
                                    acc.invariant_violations += 1;
                                }
                            }
                        }
                    }
                    (lat, acc, tr)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let after = svc.stats();
    let mut out = ServeRun {
        latencies_ms: Vec::new(),
        slices: Vec::new(),
        acc: Accounting::default(),
        elapsed_s,
        before,
        after,
        tracer: Tracer::new(epoch, traced),
    };
    for (lat, acc, tr) in results {
        out.latencies_ms.extend(lat);
        out.acc.add(&acc);
        out.tracer.absorb(tr);
    }
    let completed = out.latencies_ms.len();
    out.slices.push((completed, elapsed_s));
    out.acc.invariant_violations += stats_violations(&out.before, &out.after, completed as u64);
    out
}

/// Broken `ServiceStats` invariants once every request has returned:
/// `submitted == admitted + sheds`, `admitted == completed + expired +
/// failed`, and the completions the service counted during the phase
/// equal those the clients received.
pub fn stats_violations(before: &ServiceStats, after: &ServiceStats, client_completed: u64) -> u64 {
    let s = after;
    let served = s.completed.saturating_sub(before.completed);
    let broken = [
        (
            s.submitted != s.admitted + s.shed_overload + s.shed_quota,
            "submitted != admitted + sheds",
        ),
        (
            s.admitted != s.completed + s.deadline_expired + s.failed,
            "admitted != completed + expired + failed",
        ),
        (served != client_completed, "service and clients disagree on completions"),
    ];
    let mut bad = 0;
    for (hit, what) in broken {
        if hit {
            eprintln!("perfbench: service invariant broken: {what} ({s:?}; clients completed {client_completed})");
            bad += 1;
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_invariants_are_checked_exactly() {
        let before = ServiceStats { completed: 2, ..ServiceStats::default() };
        let good = ServiceStats {
            submitted: 10,
            admitted: 8,
            shed_overload: 1,
            shed_quota: 1,
            completed: 6,
            deadline_expired: 1,
            failed: 1,
            ..ServiceStats::default()
        };
        assert_eq!(stats_violations(&before, &good, 4), 0);
        assert_eq!(stats_violations(&before, &good, 5), 1, "a lost completion is a violation");
        let unshed = ServiceStats { shed_quota: 0, ..good.clone() };
        assert_eq!(stats_violations(&before, &unshed, 4), 1);
        let unanswered = ServiceStats { failed: 0, ..good };
        assert_eq!(stats_violations(&before, &unanswered, 4), 1);
    }
}
