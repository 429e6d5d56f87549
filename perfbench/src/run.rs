//! One benchmark run: build the workload's inputs, set up (timed), run
//! the timed phase, check every output, and derive the metrics. With
//! tracing on, the timed phase runs twice (untraced, then traced) and a
//! layer-by-layer sweep over the same matrices follows.

use spmv_memsim::{Plan, Planner};
use spmv_parallel::{SupervisedSpMv, WorkerPool};
use spmv_service::SpmvService;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::fixture::{
    chunk_kernel, corpus_mat, encode, serial_spmv, stored_bytes, Enc, Fmt, Mat, Rng, FMTS, K8,
};
use crate::host::{self, Triad, THREADS};
use crate::phases::{self, KernelRun, ServeRun, ServeSpec, Started};
use crate::report::{json_num, json_object, json_str, Accounting, Metric};
use crate::stats;
use crate::trace::{self, label, unlabel, Span, Tracer, ROOT};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's protocol in-process: three large ML-vi matrices, all
    /// four formats, `Par*` at 2 threads, k ∈ {1, 8}.
    KernelMl,
    /// One large matrix registered through the planner, two closed-loop
    /// clients, one tenant.
    ServedLarge,
    /// Eight cache-resident matrices, two closed-loop clients, three
    /// tenants, and registry churn on a ninth matrix.
    ServedSmall,
}

pub const WORKLOADS: [Workload; 3] =
    [Workload::KernelMl, Workload::ServedLarge, Workload::ServedSmall];

/// Corpus ids of kernel-ml: st3d, plaw and bfem structures, all in ML-vi.
pub const KERNEL_ML_IDS: [u32; 3] = [69, 63, 40];
/// Corpus id of served-large.
pub const SERVED_LARGE_IDS: [u32; 1] = [69];
/// Corpus ids of served-small: the MS-vi set.
pub const SERVED_SMALL_IDS: [u32; 8] = spmv_matgen::sets::MS_VI;
/// Corpus id of served-small's churn matrix, outside the served set
/// (about 5 k nnz at [`SMALL_SCALE`]).
pub const CHURN_ID: u32 = 27;
/// Corpus scale of served-small's matrices (35–90 k nnz each).
pub const SMALL_SCALE: f64 = 0.08;

/// Share of a served workload's timed phase spent on the kernel cells
/// of its own matrices; the rest serves requests.
const SERVED_KERNEL_SHARE: f64 = 0.3;
/// Length of one kernel-then-serve slice of a served workload, seconds.
const SLICE_S: f64 = 2.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` the traced run spends on each ladder rung.
const LADDER_SHARE: f64 = 0.15;
/// Empty pool dispatches timed for `par.dispatch_us`.
const DISPATCHES: usize = 2000;
/// Evict/re-register cycles per matrix where no churn runs.
const REGISTER_REPS: usize = 2;

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelMl => "kernel-ml",
            Workload::ServedLarge => "served-large",
            Workload::ServedSmall => "served-small",
        }
    }

    fn ids(self) -> &'static [u32] {
        match self {
            Workload::KernelMl => &KERNEL_ML_IDS,
            Workload::ServedLarge => &SERVED_LARGE_IDS,
            Workload::ServedSmall => &SERVED_SMALL_IDS,
        }
    }

    fn corpus_scale(self) -> f64 {
        match self {
            Workload::ServedSmall => SMALL_SCALE,
            _ => 1.0,
        }
    }

    fn served(self) -> bool {
        self != Workload::KernelMl
    }

    fn spec(self, churn_index: usize) -> ServeSpec {
        match self {
            Workload::ServedSmall => ServeSpec {
                clients: THREADS,
                tenants: (0..3).map(|t| format!("tenant-{t}")).collect(),
                churn: Some(churn_index),
            },
            Workload::ServedLarge => {
                ServeSpec { clients: THREADS, tenants: vec!["tenant-0".into()], churn: None }
            }
            // kernel-ml has no traffic; its traced run serves its own
            // matrices from one client to measure the service layers.
            Workload::KernelMl => {
                ServeSpec { clients: 1, tenants: vec!["tenant-0".into()], churn: None }
            }
        }
    }
}

/// Run options. `scale` multiplies every corpus scale (1.0 for the
/// benchmark proper; tests shrink it).
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    /// `f64` elements per triad array per thread.
    pub triad_elems: usize,
    /// Where the traced run writes its spans.
    pub out_dir: Option<PathBuf>,
}

/// What a run reports.
pub struct Output {
    pub acc: Accounting,
    pub metrics: Vec<Metric>,
    /// Figures printed but not gated: `latency_p99_ms`, whose spread run
    /// to run on a shared 2-CPU host exceeds any usable bound.
    pub ungated: Vec<Metric>,
    /// Host and provenance record (one JSON object).
    pub provenance: String,
    /// Where the spans went, for the traced run.
    pub spans_path: Option<PathBuf>,
}

/// One execution of the timed phase.
struct Phase {
    kernel: KernelRun,
    serve: Option<ServeRun>,
    tracer: Tracer,
}

impl Phase {
    /// Operations per second of the part that defines the workload.
    fn rate(&self) -> f64 {
        match &self.serve {
            Some(s) => s.latencies_ms.len() as f64 / s.elapsed_s,
            None => self.kernel.acc.attempted as f64 / self.kernel.elapsed_s,
        }
    }

    fn acc(&self) -> Accounting {
        let mut a = self.kernel.acc;
        if let Some(s) = &self.serve {
            a.add(&s.acc);
        }
        a
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 && a.is_finite() {
        a / b
    } else {
        0.0
    }
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    out.push(Metric { name: name.into(), unit, value });
}

/// Calls `f` until both 5 calls and `budget` have passed (or 2000
/// calls), recording one root span per call.
fn sample(tr: &mut Tracer, name: &'static str, lbl: u32, budget: Duration, mut f: impl FnMut()) {
    let (min, max) = (5, 2000);
    let t0 = Instant::now();
    let mut n = 0;
    while n < max && (n < min || t0.elapsed() < budget) {
        let s = tr.begin(name, ROOT, n as u64, lbl);
        f();
        tr.end(s);
        n += 1;
    }
}

/// Median duration in ms of the spans named `name` whose label passes
/// `pick`; 0 when there are none.
fn med_ms(spans: &[Span], name: &str, pick: impl Fn(u32) -> bool) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && pick(s.label))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    stats::median(&d).unwrap_or(0.0)
}

/// Sorted copy.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn r0_samples(r: &Phase) -> usize {
    r.serve.as_ref().map_or(r.kernel.acc.attempted as usize, |s| s.latencies_ms.len())
}

/// Runs the timed phase. A served workload alternates kernel rounds and
/// serving in slices of [`SLICE_S`], so both parts sample the whole run
/// window and a burst of host noise cannot land on one part alone.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    seconds: f64,
    mats: &[Mat],
    execs: &mut [Vec<Box<dyn spmv_parallel::ParSpMm<f64> + '_>>],
    churn: Option<&Mat>,
    served: Option<(&SpmvService, &ServeSpec, &[usize])>,
    rng: &mut Rng,
    epoch: Instant,
    traced: bool,
) -> Phase {
    let total = Duration::from_secs_f64(seconds);
    let mut tracer = Tracer::new(epoch, traced);
    let Some((svc, spec, plan_fmt)) = served else {
        let kernel = phases::kernel_run(mats, execs, total, rng, &mut tracer);
        return Phase { kernel, serve: None, tracer };
    };
    let slices = (seconds / SLICE_S).ceil().max(1.0) as u32;
    let slice = total / slices;
    let mut kernel: Option<KernelRun> = None;
    let mut serve: Option<ServeRun> = None;
    for _ in 0..slices {
        let k =
            phases::kernel_run(mats, execs, slice.mul_f64(SERVED_KERNEL_SHARE), rng, &mut tracer);
        let s = phases::serve_run(
            svc,
            mats,
            churn,
            spec,
            plan_fmt,
            slice.mul_f64(1.0 - SERVED_KERNEL_SHARE),
            rng.next_u64(),
            epoch,
            traced,
        );
        match (&mut kernel, &mut serve) {
            (Some(ka), Some(sa)) => {
                ka.absorb(k);
                sa.absorb(s);
            }
            _ => {
                kernel = Some(k);
                serve = Some(s);
            }
        }
    }
    Phase { kernel: kernel.expect("at least one slice"), serve, tracer }
}

/// Index of a plan's format, for span labels.
fn plan_fmt(p: &Plan) -> Fmt {
    Fmt::from_kind(p.format).expect("the service plans only the four paper formats")
}

fn picks(mats: &[Mat], churn: Option<&Mat>, plans: &[Plan]) -> String {
    mats.iter()
        .chain(churn)
        .zip(plans)
        .map(|(m, p)| format!("{}:{}/t{}/c{}", m.name, p.format.name(), p.threads, p.chunks))
        .collect::<Vec<_>>()
        .join(" ")
}

pub fn run(o: &Opts) -> Output {
    let epoch = Instant::now();
    let w = o.workload;
    let mats: Vec<Mat> =
        w.ids().iter().map(|&id| corpus_mat(id, w.corpus_scale() * o.scale, o.seed)).collect();
    let churn = (w == Workload::ServedSmall).then(|| Mat {
        name: phases::CHURN_NAME.to_string(),
        ..corpus_mat(CHURN_ID, SMALL_SCALE * o.scale, o.seed)
    });
    let mut acc = Accounting::default();
    let mut rng = Rng::new(o.seed);

    // Kernel set-up: the three encodings and every Par* plan and pool
    // (timed only where it is the workload's set-up).
    let mut kernel_setup = Vec::new();
    let mut encs: Vec<Enc> = Vec::new();
    for _ in 0..if w.served() { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        let e: Vec<Enc> = mats.iter().map(|m| encode(&m.csr)).collect();
        let built = phases::par_execs(&mats, &e);
        kernel_setup.push(t.elapsed().as_secs_f64());
        drop(built);
        encs = e;
    }
    let mut execs = phases::par_execs(&mats, &encs);

    // Service set-up: register_csr + start + one warm request per matrix.
    let spec = w.spec(mats.len());
    let mut service_setup = Vec::new();
    let mut started: Option<Started> = None;
    if w.served() {
        for _ in 0..SETUP_REPS {
            drop(started.take());
            let t = Instant::now();
            let s = phases::start_service(&mats, churn.as_ref(), &spec.tenants[0], &mut acc);
            service_setup.push(t.elapsed().as_secs_f64());
            started = Some(s);
        }
    }
    let setup_s =
        stats::median(if w.served() { &service_setup } else { &kernel_setup }).expect("set-up ran");
    let plan_fmts: Vec<usize> = started
        .as_ref()
        .map(|s| s.plans.iter().map(|p| plan_fmt(p).index()).collect())
        .unwrap_or_default();
    let served = started.as_ref().map(|s| (&s.svc, &spec, plan_fmts.as_slice()));

    // The traced run splits --seconds between an untraced and a traced
    // pass of the same phase; their rates give the tracing overhead.
    let phase_s = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let ticks0 = host::cpu_ticks();
    let r0 = run_phase(phase_s, &mats, &mut execs, churn.as_ref(), served, &mut rng, epoch, false);
    let steal = host::steal_share(ticks0, host::cpu_ticks());
    acc.add(&r0.acc());
    let rss = host::rss_mib().unwrap_or(0.0);
    let triad = host::triad(o.triad_elems);

    let mut metrics = Vec::new();
    let mut spans_path = None;
    let planner_picks;
    if !o.trace {
        end_to_end(&mut metrics, setup_s, rss, &mats, &r0);
        planner_picks = started.as_ref().map(|s| picks(&mats, churn.as_ref(), &s.plans));
    } else {
        let r1 =
            run_phase(phase_s, &mats, &mut execs, churn.as_ref(), served, &mut rng, epoch, true);
        acc.add(&r1.acc());
        drop(execs);
        let lad = ladder(o, &mats, &encs, started.as_ref(), &r1, &triad, epoch, &mut acc);
        metrics = lad.metrics;
        metric(&mut metrics, "trace.overhead_frac", "ratio", ratio(r0.rate(), r1.rate()) - 1.0);
        planner_picks = Some(picks(&mats, None, &lad.plans));
        if let Some(dir) = &o.out_dir {
            let path = dir.join(format!("spans-{}-seed{}.tsv", w.name(), o.seed));
            let name_of = |l: u32| {
                let (m, f, k) = unlabel(l);
                let mat = mats.get(m).or(churn.as_ref()).map_or("-", |m| m.name.as_str());
                format!("{mat}/{}/k{k}", FMTS[f.min(3)].name())
            };
            let mut all = r1.tracer;
            if let Some(s) = r1.serve {
                all.absorb(s.tracer);
            }
            all.absorb(lad.tracer);
            match trace::write_tsv(&path, all.spans(), name_of) {
                Ok(()) => spans_path = Some(path),
                Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
            }
        }
    }
    drop(started);

    let (_, _, tail) = served_latency(&r0);
    let ungated = vec![Metric {
        name: "latency_p99_ms".into(),
        unit: "ms",
        value: tail.map_or(0.0, |t| t.0),
    }];
    let tail_text = match (tail, w.served()) {
        (Some((_, rung, n)), true) => {
            format!("median over {n} windows of the per-window p{}", rung as f64 / 10.0)
        }
        (Some((_, rung, _)), false) => format!("p{} of all call times", rung as f64 / 10.0),
        (None, _) => "too few samples for a tail".to_string(),
    };
    let ap = host::available_parallelism();
    let prov = [
        ("workload", json_str(w.name())),
        ("seed", o.seed.to_string()),
        ("seconds", json_num(o.seconds)),
        ("trace", o.trace.to_string()),
        ("available_parallelism", ap.to_string()),
        ("max_threads", THREADS.to_string()),
        ("threads_within_parallelism", (THREADS <= ap).to_string()),
        ("l2_kib", host::cache_kib(2).map_or("null".into(), |v| v.to_string())),
        ("l3_kib", host::cache_kib(3).map_or("null".into(), |v| v.to_string())),
        ("triad_gbs", json_num(triad.gbs)),
        ("triad_threads", triad.threads.to_string()),
        (
            "triad_array_mib_per_thread",
            json_num((triad.elems_per_thread * 8) as f64 / (1u64 << 20) as f64),
        ),
        ("triad_total_mib", json_num(triad.total_bytes() as f64 / (1u64 << 20) as f64)),
        ("isa", json_str(spmv_core::simd::selected().as_str())),
        (
            "matrices",
            json_str(
                &mats
                    .iter()
                    .chain(churn.as_ref())
                    .map(|m| format!("{}:{}nnz", m.name, m.nnz()))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        ),
        ("planner_picks", json_str(planner_picks.as_deref().unwrap_or("none"))),
        ("latency_tail", json_str(&tail_text)),
        ("latency_samples", r0_samples(&r0).to_string()),
        ("failed_share", json_num(acc.failed_share())),
        ("steal_share", steal.map_or("null".into(), json_num)),
        ("bytes_per_nnz", json_str("computed from the stored array sizes")),
    ];
    Output { acc, metrics, ungated, provenance: json_object(&prov), spans_path }
}

/// Σ 2·nnz·k over Σ median time of the chosen cells, in GFLOP/s.
fn gflops(mats: &[Mat], k: &KernelRun, pick: impl Fn(Fmt, usize) -> bool) -> f64 {
    let (mut flops, mut secs) = (0.0, 0.0);
    for (c, (m, f, kk)) in phases::cells(mats.len()).into_iter().enumerate() {
        if pick(f, kk) {
            flops += (2 * mats[m].nnz() * kk) as f64;
            secs += stats::median(&k.cell_s[c]).unwrap_or(0.0);
        }
    }
    ratio(flops, secs) / 1e9
}

/// Throughput, median latency and tail latency of the part of the phase
/// that defines the workload. Served workloads: completions per second
/// (median over slices), the median `submit` time and the windowed tail.
/// kernel-ml, whose requests are its calls: calls per second, the
/// median of the call-time mixture over its 24 cells (see
/// [`stats::mixture`]) and the tail of the raw call times.
fn served_latency(r: &Phase) -> (f64, f64, Option<(f64, u32, usize)>) {
    match &r.serve {
        Some(s) => {
            let rates: Vec<f64> = s.slices.iter().map(|&(n, secs)| ratio(n as f64, secs)).collect();
            let counts: Vec<usize> = s.slices.iter().map(|&(n, _)| n).collect();
            (
                stats::median(&rates).unwrap_or(0.0),
                stats::median(&s.latencies_ms).unwrap_or(0.0),
                stats::windowed_tail(&s.latencies_ms, &counts),
            )
        }
        None => {
            let k = &r.kernel;
            let rate = ratio(k.acc.attempted as f64, k.elapsed_s);
            let p50 = stats::mixture(&k.cell_s)
                .and_then(|(scale, ratios)| {
                    stats::percentile(&ratios, 500).map(|v| v * scale * 1e3)
                })
                .unwrap_or(0.0);
            // Each cell is 1/24 of the calls, so the top ranks of the raw
            // mixture lie inside the slowest cell and do not hop.
            let raw: Vec<f64> = k.cell_s.iter().flatten().map(|t| t * 1e3).collect();
            (rate, p50, stats::tail(&sorted(&raw)).map(|t| (t.value, t.pm, 1)))
        }
    }
}

fn end_to_end(out: &mut Vec<Metric>, setup_s: f64, rss: f64, mats: &[Mat], r: &Phase) {
    metric(out, "setup_s", "s", setup_s);
    metric(out, "rss_mb", "MiB", rss);
    for f in FMTS {
        metric(
            out,
            format!("spmv_gflops.{}", f.name()),
            "GFLOP/s",
            gflops(mats, &r.kernel, |g, k| g == f && k == 1),
        );
    }
    metric(out, "spmm8_gflops", "GFLOP/s", gflops(mats, &r.kernel, |_, k| k == K8));
    let (rate, p50, _) = served_latency(r);
    metric(out, "req_per_s", "1/s", rate);
    metric(out, "latency_p50_ms", "ms", p50);
    metric(out, "success_share", "share", 1.0 - r.acc().failed_share());
}

struct Ladder {
    metrics: Vec<Metric>,
    plans: Vec<Plan>,
    tracer: Tracer,
}

/// The layer-by-layer sweep of the traced run, over the workload's own
/// matrices: serial kernels, the planner, the supervised executor, pool
/// dispatch and registry writes, combined with the traced phase's spans.
#[allow(clippy::too_many_arguments)]
fn ladder(
    o: &Opts,
    mats: &[Mat],
    encs: &[Enc],
    started: Option<&Started>,
    r1: &Phase,
    triad: &Triad,
    epoch: Instant,
    acc: &mut Accounting,
) -> Ladder {
    let mut tr = Tracer::new(epoch, true);
    let mut out = Vec::new();
    let rung = Duration::from_secs_f64(o.seconds * LADDER_SHARE);

    // core: serial kernels, one span per call.
    let per_cell = rung.div_f64((mats.len() * FMTS.len()) as f64);
    for (mi, (m, e)) in mats.iter().zip(encs).enumerate() {
        let mut y = vec![0.0; m.csr.nrows()];
        for f in FMTS {
            sample(&mut tr, "core", label(mi, f.index(), 1), per_cell, || {
                serial_spmv(m, e, f, &m.xs[0], &mut y)
            });
            acc.attempted += 1;
            if !m.check1(0, &y) {
                acc.wrong += 1;
            }
        }
    }

    // kernel-ml has no traffic: serve its matrices from one client so the
    // service layers are measured on the same matrices.
    let own;
    let (svc, serve): (&SpmvService, &ServeRun) = match (started, &r1.serve) {
        (Some(s), Some(run)) => (&s.svc, run),
        _ => {
            let s = phases::start_service(mats, None, "tenant-0", acc);
            let fmts: Vec<usize> = s.plans.iter().map(|p| plan_fmt(p).index()).collect();
            let spec = Workload::KernelMl.spec(mats.len());
            let run = phases::serve_run(
                &s.svc,
                mats,
                None,
                &spec,
                &fmts,
                rung,
                o.seed ^ 0x5eed,
                epoch,
                true,
            );
            acc.add(&run.acc);
            own = (s, run);
            (&own.0.svc, &own.1)
        }
    };

    // planner: a cold analysis per matrix with the service's own config.
    let cfg = svc.planner().config().clone();
    let mut plans = Vec::new();
    for (mi, m) in mats.iter().enumerate() {
        let planner = Planner::new(cfg.clone());
        let s = tr.begin("plan", ROOT, mi as u64, label(mi, 0, 0));
        let plan = planner.plan_csr(&m.csr).expect("planner accepts corpus matrices");
        tr.end(s);
        plans.push(plan);
    }

    // supervised: the planned format and chunks, k = 1 and the k = 2
    // panels two closed-loop clients can coalesce.
    for (mi, ((m, e), p)) in mats.iter().zip(encs).zip(&plans).enumerate() {
        let f = plan_fmt(p);
        let mut sup = SupervisedSpMv::new(chunk_kernel(m, e, f, p.chunks), THREADS);
        let mut y = vec![0.0; m.csr.nrows()];
        let x2: Vec<f64> = m.x8.chunks_exact(K8).flat_map(|r| [r[0], r[1]]).collect();
        let mut y2 = vec![0.0; m.csr.nrows() * 2];
        let mut faults = 0;
        sample(
            &mut tr,
            "supervised",
            label(mi, f.index(), 1),
            rung.div_f64(2.0 * mats.len() as f64),
            || {
                faults += usize::from(sup.spmv(&m.xs[0], &mut y).map_or(true, |h| h.degraded()));
            },
        );
        sample(
            &mut tr,
            "supervised",
            label(mi, f.index(), 2),
            rung.div_f64(2.0 * mats.len() as f64),
            || {
                faults += usize::from(sup.spmm(&x2, 2, &mut y2).map_or(true, |h| h.degraded()));
            },
        );
        acc.attempted += 2;
        acc.errors += u64::from(faults > 0);
        let panel_ok = y2.chunks_exact(2).enumerate().all(|(r, v)| {
            v[0].to_bits() == m.ys[0][r].to_bits() && v[1].to_bits() == m.ys[1][r].to_bits()
        });
        acc.wrong += u64::from(!m.check1(0, &y)) + u64::from(!panel_ok);
    }

    // supervision's fixed cost on one served-small matrix.
    let small_owned;
    let (small, small_enc) = if o.workload == Workload::ServedSmall {
        (&mats[0], &encs[0])
    } else {
        let m = corpus_mat(SERVED_SMALL_IDS[0], SMALL_SCALE * o.scale, o.seed);
        let e = encode(&m.csr);
        small_owned = (m, e);
        (&small_owned.0, &small_owned.1)
    };
    let mut y = vec![0.0; small.csr.nrows()];
    sample(&mut tr, "core.small", 0, rung.div_f64(2.0), || {
        serial_spmv(small, small_enc, Fmt::Csr, &small.xs[0], &mut y)
    });
    let mut sup = SupervisedSpMv::new(
        chunk_kernel(small, small_enc, Fmt::Csr, THREADS * cfg.chunks_per_thread),
        THREADS,
    );
    sample(&mut tr, "supervised.small", 0, rung.div_f64(2.0), || {
        let _ = sup.spmv(&small.xs[0], &mut y);
    });
    acc.attempted += 1;
    acc.wrong += u64::from(!small.check1(0, &y));
    drop(sup);

    // pool dispatch: an empty job on a 2-thread pool.
    let mut pool = WorkerPool::new(THREADS);
    for i in 0..DISPATCHES {
        let s = tr.begin("dispatch", ROOT, i as u64, 0);
        pool.run(|_| {});
        tr.end(s);
    }
    drop(pool);

    // registry writes: the churn spans of served-small, else evict and
    // re-register each matrix on the quiet service.
    let churned = serve.tracer.spans().iter().any(|s| s.name == "register");
    if !churned {
        for _ in 0..REGISTER_REPS {
            for (mi, m) in mats.iter().enumerate() {
                let s = tr.begin("evict", ROOT, mi as u64, label(mi, 0, 0));
                let ev = svc.evict(&m.name);
                tr.end(s);
                let s = tr.begin("register", ROOT, mi as u64, label(mi, 0, 0));
                let reg = svc.register_csr(m.name.clone(), std::sync::Arc::clone(&m.csr));
                tr.end(s);
                acc.invariant_violations += u64::from(ev.is_err() || reg.is_err());
            }
        }
    }
    let pstats = svc.planner_stats();

    // --- derive the per-layer metrics -----------------------------------
    let ls = tr.spans();
    let ks = r1.tracer.spans();
    let is = |m: usize, f: Fmt, k: usize| move |l: u32| l == label(m, f.index(), k);
    let nm = mats.len();
    let nnz: usize = mats.iter().map(Mat::nnz).sum();
    let mut par = Vec::new();
    for f in FMTS {
        let serial: f64 = (0..nm).map(|m| med_ms(ls, "core", is(m, f, 1))).sum();
        let t2: f64 = (0..nm).map(|m| med_ms(ks, "par", is(m, f, 1))).sum();
        let k8: f64 = (0..nm).map(|m| med_ms(ks, "par", is(m, f, K8))).sum();
        let bytes: usize = mats.iter().zip(encs).map(|(m, e)| stored_bytes(m, e, f)).sum();
        // Computed traffic of one SpMV: the stored arrays plus x and y.
        let moved = bytes + mats.iter().map(|m| 8 * (m.csr.nrows() + m.csr.ncols())).sum::<usize>();
        let gbs = ratio(moved as f64, serial / 1e3) / 1e9;
        metric(&mut out, format!("core.serial_ms.{}", f.name()), "ms", serial);
        metric(
            &mut out,
            format!("core.bytes_per_nnz.{}", f.name()),
            "computed-B/nnz",
            ratio(bytes as f64, nnz as f64),
        );
        metric(
            &mut out,
            format!("core.roofline_frac.{}", f.name()),
            "ratio",
            ratio(gbs, triad.gbs),
        );
        metric(&mut par, format!("par.t2_ms.{}", f.name()), "ms", t2);
        metric(&mut par, format!("par.speedup_t2.{}", f.name()), "x", ratio(serial, t2));
        metric(&mut par, format!("par.k8_ms_per_vec.{}", f.name()), "ms", k8 / K8 as f64);
    }
    metric(&mut out, "core.triad_gbs", "GB/s", triad.gbs);
    out.extend(par);
    metric(&mut out, "par.dispatch_us", "us", med_ms(ls, "dispatch", |_| true) * 1e3);

    // Median supervised time per matrix at k = 1 and k = 2.
    let sup: Vec<[f64; 2]> = (0..nm)
        .map(|m| [1, 2].map(|k| med_ms(ls, "supervised", is(m, plan_fmt(&plans[m]), k))))
        .collect();
    let sup_k1: f64 = sup.iter().map(|s| s[0]).sum();
    let par_planned: f64 = (0..nm).map(|m| med_ms(ks, "par", is(m, plan_fmt(&plans[m]), 1))).sum();
    metric(&mut out, "supervised.k1_ms", "ms", sup_k1);
    metric(&mut out, "supervised.overhead_k1_ms", "ms", sup_k1 - par_planned);
    let small_over = med_ms(ls, "supervised.small", |_| true) - med_ms(ls, "core.small", |_| true);
    metric(&mut out, "supervised.overhead_small_us", "us", small_over * 1e3);

    // service: the traced serving phase (or kernel-ml's one-client pass).
    let ss = serve.tracer.spans();
    let own_ns = trace::self_times(ss);
    let waits = sorted(
        &ss.iter()
            .filter(|s| s.name == "queue_wait")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let mut exec = Vec::new();
    let mut service_self = Vec::new();
    let mut ks_sum = 0usize;
    for (s, own) in ss.iter().zip(&own_ns) {
        let (m, _, k) = unlabel(s.label);
        if s.name == "submit" && k > 0 {
            let e = *own as f64 / 1e6;
            exec.push(e);
            ks_sum += k;
            if let Some(t) = sup.get(m).and_then(|s| s.get(k - 1)) {
                service_self.push(e - t);
            }
        }
    }
    let (before, after) = (&serve.before, &serve.after);
    metric(
        &mut out,
        "service.queue_wait_p50_ms",
        "ms",
        stats::percentile(&waits, 500).unwrap_or(0.0),
    );
    metric(
        &mut out,
        "service.queue_wait_p99_ms",
        "ms",
        stats::tail(&waits).map_or(0.0, |t| t.value),
    );
    metric(&mut out, "service.exec_p50_ms", "ms", stats::median(&exec).unwrap_or(0.0));
    metric(&mut out, "service.self_p50_ms", "ms", stats::median(&service_self).unwrap_or(0.0));
    metric(&mut out, "service.batch_k_mean", "requests", ratio(ks_sum as f64, exec.len() as f64));
    let delta = |f: fn(&spmv_service::ServiceStats) -> u64| (f(after) - f(before)) as f64;
    metric(&mut out, "service.shed", "count", delta(|s| s.shed_overload + s.shed_quota));
    metric(&mut out, "service.expired", "count", delta(|s| s.deadline_expired));
    metric(&mut out, "service.failed", "count", delta(|s| s.failed));
    metric(&mut out, "service.retries", "count", delta(|s| s.retries));
    metric(&mut out, "service.pool_faults", "count", delta(|s| s.pool_faults));
    metric(&mut out, "service.breaker_trips", "count", delta(|s| s.breaker_trips));
    let reg_spans: &[Span] = if churned { ss } else { ls };
    metric(&mut out, "service.register_ms", "ms", med_ms(reg_spans, "register", |_| true));
    metric(&mut out, "service.evict_ms", "ms", med_ms(reg_spans, "evict", |_| true));

    let plan_ms: f64 =
        ls.iter().filter(|s| s.name == "plan").map(|s| s.dur_ns() as f64 / 1e6).sum();
    let predicted: f64 = plans.iter().map(|p| p.predicted_time_s).sum();
    metric(&mut out, "planner.plan_ms", "ms", plan_ms);
    metric(&mut out, "planner.misses", "count", pstats.misses as f64);
    metric(&mut out, "planner.hits", "count", pstats.hits as f64);
    metric(&mut out, "planner.encodes", "count", pstats.encodes as f64);
    metric(&mut out, "planner.pred_over_measured", "ratio", ratio(predicted, sup_k1 / 1e3));
    Ladder { metrics: out, plans, tracer: tr }
}
