//! Adaptive format/thread/partition planner with a fingerprint-keyed,
//! disk-persistable plan cache.
//!
//! The paper's central observation is that multithreaded SpMV is
//! memory-bandwidth bound, so the format that streams the fewest bytes
//! usually wins — but "usually" hides CPU-bound regimes (cache-resident
//! matrices, decode-heavy streams) where CSR or CSR-VI beat CSR-DU. The
//! repo already has every ingredient to decide per matrix instead of
//! guessing: [`MatrixProfile`] captures the nnz
//! distribution, x-vector locality and per-thread imbalance;
//! [`FormatCost`] captures each format's stream/
//! resident bytes and cycle costs (delta-unit compressibility and the
//! value-table size fall out of the encodes); and
//! [`predict`](fn@crate::predict) folds both through the modeled cache and
//! bandwidth hierarchy. The [`Planner`] glues them into one call:
//! *matrix in, ready-to-run [`Plan`] out*.
//!
//! ## Decision inputs
//!
//! For each candidate format (default: the paper's CSR, CSR-DU, CSR-VI,
//! CSR-DU-VI) the planner encodes the matrix, builds its
//! [`FormatCost`], and evaluates
//! [`predict`](fn@crate::predict) at every candidate thread count placed
//! "close" (cores packed onto as few dies as possible). Candidates are
//! ranked by predicted time per iteration under [`f64::total_cmp`] — a
//! **total** order, so a NaN that slips through can never panic the sort
//! (it ranks after every real number and loses). Ties break toward fewer
//! threads, then toward the candidate-list order.
//!
//! ## Fingerprint / cache contract
//!
//! Plans are cached keyed by the matrix's container-v2 payload CRC
//! ([`spmv_core::io::fingerprint_csr`]): repeated traffic on the same
//! matrix skips profiling, candidate encodes, and prediction entirely.
//! A CRC is a 32-bit hash, so a hit is only trusted when the entry's
//! recorded shape `(nrows, ncols, nnz)` also matches — a CRC hit with a
//! shape mismatch (possible across container versions, or from a
//! corrupted cache file) **invalidates the entry and counts as a miss**.
//! The cache persists to a small versioned text file next to BENCH.json
//! ([`Planner::save`]/[`Planner::load`]); a file with an unknown header
//! version is ignored (cold start), a malformed entry line is a typed
//! error. Entries also carry the measured cost recorded by the first
//! (cold) benchmark run, so warm runs can report measured medians with
//! zero re-encodes.
//!
//! ## Host trial
//!
//! The model is of the paper's Clovertown, not of the host, and the
//! paper's own thesis is that compression pays only where SpMV is
//! bandwidth-bound *on the machine at hand*. With
//! [`PlannerConfig::host_trial`] on, a cold analysis whose model-best
//! candidate is a compressed format checks that pick on this host
//! before committing. Every candidate format runs on its `Par*`
//! executor at the largest thread candidate, x all ones:
//!
//! 1. each executor is built once and called once, untimed (warm-up);
//! 2. up to three timed rounds follow, each calling every live candidate
//!    once, in the model's order, so a burst of host noise lands on all
//!    of them rather than on one candidate's calls;
//! 3. after the second timed round, a candidate the host has refuted is
//!    called no more, and stays refuted. The fastest candidate is the
//!    one with the lowest fastest call; another is refuted when the
//!    fastest beat it in most rounds (both of two, two of three), or
//!    when it was timed in fewer rounds than the others.
//!
//! The plan is then the model's best-ranked candidate at the trial width
//! that the host has not refuted, with that entry's predictions. So the
//! model's pick stands unless the host is decisive: formats within each
//! other's noise keep the model's order. NaN or infinite timings never
//! win. The rule is a pure function of the ranking, the width and the
//! per-round samples (`trial_pick`), and the rounds run behind a timing
//! closure (`trial_rounds`), so tests script both.
//!
//! The rule compares calls round by round because a round's calls meet
//! the same host. On a shared 2-vCPU host one call in a few dozen takes
//! twice as long, and whole rounds run up to 1.7× faster or slower than
//! their neighbours, so a rule over each candidate's calls pooled across
//! rounds lets one stray call decide. In 150 cold plans of id 69
//! (5.4 M nnz) at 2 threads, each candidate timed for all three rounds,
//! a `[fastest, slowest]` overlap rule would have planned the model's
//! CSR-DU-VI, which serves about 1.7× slower than CSR-VI, 17 times;
//! comparing fastest calls with the fastest candidate's median call, 4
//! times; the per-round majority, once (EXPERIMENTS *Cold registration*).
//!
//! The trial reuses the encodings the costing already built, so a cold
//! plan still counts three encodes, but it holds them all until it has
//! decided (about 86 MB on a 5.4M-nnz matrix). On that matrix it costs
//! 0.11–0.13 s: four pool spawns, about 7 ms per CSR-DU-based executor
//! to split its ctl stream, and 14 calls of 4–9 ms (16 when nothing is
//! refuted; CSR-DU and CSR-DU-VI, decisively slower there, usually skip
//! their third). A model pick
//! of CSR runs no trial: CSR has the fewest cycles per nnz in the model,
//! so choosing it assumes nothing about bandwidth the host could refute.
//! The trial never runs serially, because bandwidth saturates only when
//! threads run — a serial trial would undervalue compression exactly
//! where it pays. Only cold analyses run it; cache hits replay the
//! stored decision. [`PlannerConfig::default`] leaves the trial off, so
//! the paper reproduction plans the modeled machine deterministically;
//! the serving layer turns it on.
//!
//! ## Each format built once
//!
//! A cold analysis encodes CSR-DU and CSR-VI and assembles the CSR-DU-VI
//! candidate from them ([`CsrDuVi::from_du_vi`]: it shares the CSR-DU
//! ctl stream and the CSR-VI value ids), which counts as its encode.
//! Once the candidates are ranked (and, with the trial on, timed), the
//! analysis keeps the picked format's encoding and drops the others, and
//! [`Planner::plan_kernel`] serves the plan with that encoding, so a cold
//! registration encodes no format twice, whatever the trial setting. A
//! CSR plan wraps the CSR itself; only a cache hit encodes the planned
//! format once more, uncounted in [`PlanCacheStats::encodes`].
//!
//! ## Cold registration timeline
//!
//! A cold [`Planner::plan_kernel`] runs its steps one after the other on
//! the calling thread: fingerprint, profile, the CSR-DU and CSR-VI
//! encodes in candidate order, CSR-DU-VI assembly, costing, ranking, the
//! host trial and the chunk kernel. The planner owns no thread of its
//! own. From [`spmv_core::PARALLEL_ENCODE_MIN_NNZ`] non-zeros on, each
//! encoder splits its own scan across the available CPUs, and the host
//! trial's calls run on each executor's pool. EXPERIMENTS.md *Cold
//! registration* and *Construction on every core* time the steps.
//!
//! ## Interaction with overrides
//!
//! The model decides *format, thread count and chunking*; the host trial,
//! when on, may replace the model's format (never its thread count).
//! Two runtime overrides compose with it: `SPMV_ISA` changes which SpMV
//! kernel body executes (scalar vs AVX2) without affecting bytes
//! streamed, so the *model's* ranking stands and only absolute times
//! shift — but the host trial times whichever body is selected, so with
//! the trial on `SPMV_ISA` can change the format a plan picks (every
//! pick computes the same bits). An executor capped at fewer threads than
//! the plan (e.g. `ServiceConfig::threads`) should pass its cap as the
//! planner's `thread_candidates`, so the plan never promises parallelism
//! the pool cannot deliver and the trial runs at the width the executor
//! will use.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spmv_core::csr_du::{CsrDu, DuOptions};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::io::{fingerprint_csr, Fingerprint};
use spmv_core::{Csr, FormatKind, SparseError};
use spmv_parallel::{
    ChunkKernel, CsrChunks, CsrDuChunks, CsrDuViChunks, CsrViChunks, ParCsr, ParCsrDu, ParCsrDuVi,
    ParCsrVi, ParSpMv,
};

use crate::cost::{CostModel, FormatCost};
use crate::placement::Placement;
use crate::predict::{predict, SimConfig};
use crate::profile::MatrixProfile;

/// Planner tuning knobs.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Machine + cost model the predictions run against.
    pub sim: SimConfig,
    /// Candidate formats, tried in order (order also breaks exact ties).
    /// Only the four paper formats are modeled; other kinds are rejected.
    pub formats: Vec<FormatKind>,
    /// Candidate thread counts; entries above the modeled machine's core
    /// count are skipped.
    pub thread_candidates: Vec<usize>,
    /// Work chunks per planned thread (finer chunks smooth imbalance at
    /// slightly higher scheduling cost).
    pub chunks_per_thread: usize,
    /// When the model ranks a compressed format first, time every
    /// candidate format on this host before committing and plan the
    /// fastest (see the [module docs](self#host-trial)). Off by default.
    pub host_trial: bool,
}

impl Default for PlannerConfig {
    fn default() -> PlannerConfig {
        PlannerConfig {
            sim: SimConfig::default(),
            formats: vec![
                FormatKind::Csr,
                FormatKind::CsrDu,
                FormatKind::CsrVi,
                FormatKind::CsrDuVi,
            ],
            thread_candidates: vec![1, 2, 4, 8],
            chunks_per_thread: 2,
            host_trial: false,
        }
    }
}

/// One `(format, threads)` candidate with its predicted cost; the full
/// ranked list is returned on cache misses for inspection/testing.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedChoice {
    /// Candidate format.
    pub format: FormatKind,
    /// Candidate thread count.
    pub threads: usize,
    /// Predicted seconds per SpMV iteration.
    pub predicted_time_s: f64,
    /// Predicted MFLOP/s.
    pub predicted_mflops: f64,
    /// Whether the model calls this candidate memory-bandwidth bound.
    pub memory_bound: bool,
}

/// Measured cost recorded into a cache entry after a cold benchmark run,
/// replayed on warm (cache-hit) runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredCost {
    /// Median seconds per iteration.
    pub median_s: f64,
    /// Achieved MFLOP/s at the median.
    pub mflops: f64,
    /// Timed iterations behind the median.
    pub samples: usize,
    /// Warm-up iterations that ran before timing.
    pub warmup: usize,
}

/// A ready-to-run execution plan for one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Identity of the planned matrix.
    pub fingerprint: Fingerprint,
    /// Chosen storage format.
    pub format: FormatKind,
    /// Chosen thread count.
    pub threads: usize,
    /// Chosen partition granularity: nnz-balanced row chunks handed to
    /// the parallel layer's chunk kernels.
    pub chunks: usize,
    /// Bytes of the chosen format's encoded matrix (stream + resident).
    pub matrix_bytes: usize,
    /// Predicted seconds per iteration for the chosen candidate.
    pub predicted_time_s: f64,
    /// Predicted MFLOP/s for the chosen candidate.
    pub predicted_mflops: f64,
    /// Whether the chosen candidate is predicted memory-bandwidth bound.
    pub memory_bound: bool,
    /// `true` when this plan came out of the cache (no analysis ran).
    pub cache_hit: bool,
    /// Full candidate ranking, best first. Empty on cache hits.
    pub ranking: Vec<RankedChoice>,
    /// Measured cost from the cold run, if one has been recorded.
    pub measured: Option<MeasuredCost>,
}

/// Cache/analysis counters. `encodes` counts candidate *format encodes*
/// performed during analysis (CSR is free — the input already is one);
/// a 100%-hit run therefore shows `misses == 0 && encodes == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required full analysis.
    pub misses: u64,
    /// Candidate format encodes performed during analysis.
    pub encodes: u64,
    /// Cache entries discarded because the CRC matched but the recorded
    /// shape did not (poisoned/stale entries; each also counts a miss).
    pub shape_rejects: u64,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    fp: Fingerprint,
    format: FormatKind,
    threads: usize,
    chunks: usize,
    matrix_bytes: usize,
    predicted_time_s: f64,
    predicted_mflops: f64,
    memory_bound: bool,
    measured: Option<MeasuredCost>,
}

impl CacheEntry {
    fn to_plan(&self) -> Plan {
        Plan {
            fingerprint: self.fp,
            format: self.format,
            threads: self.threads,
            chunks: self.chunks,
            matrix_bytes: self.matrix_bytes,
            predicted_time_s: self.predicted_time_s,
            predicted_mflops: self.predicted_mflops,
            memory_bound: self.memory_bound,
            cache_hit: true,
            ranking: Vec::new(),
            measured: self.measured,
        }
    }
}

struct PlannerInner {
    cache: HashMap<u32, CacheEntry>,
    stats: PlanCacheStats,
}

/// See the [module docs](self) for the decision model and cache
/// contract. Thread-safe: all methods take `&self` (a service can share
/// one planner across registration paths).
pub struct Planner {
    cfg: PlannerConfig,
    inner: Mutex<PlannerInner>,
}

const CACHE_HEADER: &str = "spmv-plan-cache v1";

impl Planner {
    /// Creates a planner with an empty cache.
    pub fn new(cfg: PlannerConfig) -> Planner {
        Planner {
            cfg,
            inner: Mutex::new(PlannerInner {
                cache: HashMap::new(),
                stats: PlanCacheStats::default(),
            }),
        }
    }

    /// The configuration this planner runs with.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Snapshot of the cache/analysis counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.lock().stats
    }

    /// Number of cached plans.
    pub fn entries(&self) -> usize {
        self.lock().cache.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlannerInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Plans `m`, fingerprinting it first. See
    /// [`plan_csr_with_fingerprint`](Planner::plan_csr_with_fingerprint).
    pub fn plan_csr(&self, m: &Csr<u32, f64>) -> Result<Plan, SparseError> {
        self.plan_csr_with_fingerprint(m, fingerprint_csr(m))
    }

    /// Plans `m` under a caller-supplied fingerprint (e.g. read straight
    /// from a container file via [`spmv_core::io::read_fingerprint`]).
    ///
    /// Cache hits return the stored decision without touching the matrix
    /// beyond a shape check; a CRC hit whose recorded shape disagrees
    /// with `m` is treated as a poisoned entry — dropped, counted in
    /// `shape_rejects`, and re-analyzed as a miss.
    pub fn plan_csr_with_fingerprint(
        &self,
        m: &Csr<u32, f64>,
        fp: Fingerprint,
    ) -> Result<Plan, SparseError> {
        self.plan_keeping(m, fp).map(|(plan, _)| plan)
    }

    /// Plans `m` and builds the chunk kernel that serves the plan: the
    /// planned format's encoding in its chunk adapter, cut into
    /// [`Plan::chunks`] chunks. A cold plan hands over the encoding its
    /// analysis built for the picked format, so the matrix is encoded once
    /// per format; a cache hit encodes the planned format here, and that
    /// encode is not counted in [`PlanCacheStats::encodes`]. A CSR plan
    /// wraps `m` itself. The plan's thread count informs chunking only:
    /// the executor that runs the kernel sizes its own pool.
    pub fn plan_kernel(
        &self,
        m: &Arc<Csr<u32, f64>>,
    ) -> Result<(Plan, Arc<dyn ChunkKernel<f64>>), SparseError> {
        let (plan, picked) = self.plan_keeping(m, fingerprint_csr(m))?;
        let enc = match picked {
            Some(enc) => enc,
            None => encode_format(m, plan.format)?,
        };
        let kernel = enc.into_kernel(m, plan.chunks.max(1));
        Ok((plan, kernel))
    }

    /// The cache lookup behind every `plan_*` entry point. Cache hits
    /// return the stored decision; a miss runs the analysis and also
    /// returns the encoding of the planned format.
    fn plan_keeping<'m>(
        &self,
        m: &'m Csr<u32, f64>,
        fp: Fingerprint,
    ) -> Result<(Plan, Option<Encoded<'m>>), SparseError> {
        {
            let mut inner = self.lock();
            let cached = match inner.cache.get(&fp.crc) {
                Some(e) if e.fp.matches_shape(m.nrows(), m.ncols(), m.nnz()) => Some(e.to_plan()),
                Some(_) => {
                    // Same CRC, different shape: never trust it.
                    inner.cache.remove(&fp.crc);
                    inner.stats.shape_rejects += 1;
                    None
                }
                None => None,
            };
            if let Some(plan) = cached {
                inner.stats.hits += 1;
                return Ok((plan, None));
            }
            inner.stats.misses += 1;
        }
        let (plan, picked) = self.analyze(m, fp)?;
        let mut inner = self.lock();
        inner.cache.insert(
            fp.crc,
            CacheEntry {
                fp,
                format: plan.format,
                threads: plan.threads,
                chunks: plan.chunks,
                matrix_bytes: plan.matrix_bytes,
                predicted_time_s: plan.predicted_time_s,
                predicted_mflops: plan.predicted_mflops,
                memory_bound: plan.memory_bound,
                measured: None,
            },
        );
        Ok((plan, picked))
    }

    /// Full analysis: profile, encode candidates, predict, rank, and —
    /// with the host trial on and a compressed model pick — time them.
    /// The planned format's encoding comes back too (none for the trivial
    /// plan of a matrix without non-zeros).
    fn analyze<'m>(
        &self,
        m: &'m Csr<u32, f64>,
        fp: Fingerprint,
    ) -> Result<(Plan, Option<Encoded<'m>>), SparseError> {
        // Degenerate matrices (0 rows / 0 nnz) have no per-nnz cost — the
        // FormatCost constructors reject them by design. Serial CSR is
        // the only sensible plan and costs nothing to "execute".
        if m.nrows() == 0 || m.nnz() == 0 {
            let plan = Plan {
                fingerprint: fp,
                format: FormatKind::Csr,
                threads: 1,
                chunks: 1,
                matrix_bytes: m.nnz() * 12 + (m.nrows() + 1) * 4,
                predicted_time_s: 0.0,
                predicted_mflops: 0.0,
                memory_bound: false,
                cache_hit: false,
                ranking: Vec::new(),
                measured: None,
            };
            return Ok((plan, None));
        }

        let profile = MatrixProfile::from_csr(m);
        let machine = &self.cfg.sim.machine;
        let threads: Vec<usize> = self
            .cfg
            .thread_candidates
            .iter()
            .copied()
            .filter(|&t| t >= 1 && t <= machine.cores())
            .collect();
        if threads.is_empty() {
            return Err(SparseError::InvalidArgument(
                "planner has no usable thread candidates (all exceed the modeled core count)"
                    .into(),
            ));
        }

        let mut ranking: Vec<(usize, RankedChoice, usize)> = Vec::new();
        let mut built: Vec<(FormatKind, Encoded<'_>)> = Vec::new();
        for (order, &kind) in self.cfg.formats.iter().enumerate() {
            let enc = self.encode(m, kind, &built)?;
            let fc = enc.cost(&self.cfg.sim.cost)?;
            let bytes = fc.stream_bytes + fc.resident_bytes;
            for &t in &threads {
                let p = predict(&profile, &fc, &Placement::close(t, machine), &self.cfg.sim);
                ranking.push((
                    order,
                    RankedChoice {
                        format: kind,
                        threads: t,
                        predicted_time_s: p.time_s,
                        predicted_mflops: p.mflops,
                        memory_bound: p.memory_bound,
                    },
                    bytes,
                ));
            }
            built.push((kind, enc));
        }
        // Total order: NaN sorts after every real time (and so never
        // wins), ties prefer fewer threads, then candidate-list order.
        ranking.sort_by(|(ao, a, _), (bo, b, _)| {
            a.predicted_time_s
                .total_cmp(&b.predicted_time_s)
                .then(a.threads.cmp(&b.threads))
                .then(ao.cmp(bo))
        });
        let (ranking, bytes): (Vec<RankedChoice>, Vec<usize>) =
            ranking.into_iter().map(|(_, c, b)| (c, b)).unzip();

        let mut pick = 0;
        if self.cfg.host_trial && ranking[0].format != FormatKind::Csr {
            let t = *threads.iter().max().expect("thread candidates checked non-empty");
            pick = host_trial(m, &ranking, t, &built).unwrap_or(0);
        }
        let best = ranking[pick].clone();
        // The pick's encoding goes on to serve; the other candidates are
        // dropped here.
        let picked = built.into_iter().find(|(kind, _)| *kind == best.format).map(|(_, enc)| enc);
        let plan = Plan {
            fingerprint: fp,
            format: best.format,
            threads: best.threads,
            chunks: (best.threads * self.cfg.chunks_per_thread).max(1),
            matrix_bytes: bytes[pick],
            predicted_time_s: best.predicted_time_s,
            predicted_mflops: best.predicted_mflops,
            memory_bound: best.memory_bound,
            cache_hit: false,
            ranking,
            measured: None,
        };
        Ok((plan, picked))
    }

    /// Encodes one candidate format, counting the encode (CSR is free:
    /// the input already is one). CSR-DU-VI is assembled from the CSR-DU
    /// and CSR-VI encodings when both are among the candidates `built` so
    /// far; the assembly counts as its encode.
    fn encode<'m>(
        &self,
        m: &'m Csr<u32, f64>,
        kind: FormatKind,
        built: &[(FormatKind, Encoded<'m>)],
    ) -> Result<Encoded<'m>, SparseError> {
        let du =
            built.iter().find_map(|(_, e)| if let Encoded::Du(du) = e { Some(du) } else { None });
        let vi =
            built.iter().find_map(|(_, e)| if let Encoded::Vi(vi) = e { Some(vi) } else { None });
        let enc = match (kind, du, vi) {
            (FormatKind::CsrDuVi, Some(du), Some(vi)) => Encoded::DuVi(CsrDuVi::from_du_vi(du, vi)),
            _ => encode_format(m, kind)?,
        };
        if kind != FormatKind::Csr {
            self.lock().stats.encodes += 1;
        }
        Ok(enc)
    }

    /// Records the measured cost of a cold run into the cached plan so
    /// warm runs can report it without re-measuring.
    pub fn record_measurement(&self, crc: u32, measured: MeasuredCost) {
        if let Some(e) = self.lock().cache.get_mut(&crc) {
            e.measured = Some(measured);
        }
    }

    /// Persists the cache as a versioned text file (one entry per line),
    /// replacing `path` in one rename.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), SparseError> {
        let inner = self.lock();
        let mut entries: Vec<&CacheEntry> = inner.cache.values().collect();
        entries.sort_by_key(|e| e.fp.crc); // deterministic files
        let mut out = String::new();
        out.push_str(CACHE_HEADER);
        out.push('\n');
        for e in entries {
            out.push_str(&format!(
                "crc={} nrows={} ncols={} nnz={} format={} threads={} chunks={} \
                 matrix_bytes={} predicted_time_s={:?} predicted_mflops={:?} memory_bound={}",
                e.fp.crc,
                e.fp.nrows,
                e.fp.ncols,
                e.fp.nnz,
                e.format.name(),
                e.threads,
                e.chunks,
                e.matrix_bytes,
                e.predicted_time_s,
                e.predicted_mflops,
                e.memory_bound,
            ));
            if let Some(m) = &e.measured {
                out.push_str(&format!(
                    " measured_median_s={:?} measured_mflops={:?} \
                     measured_samples={} measured_warmup={}",
                    m.median_s, m.mflops, m.samples, m.warmup,
                ));
            }
            out.push('\n');
        }
        // Written beside the cache and renamed over it, so a save that is
        // interrupted leaves the old cache or the new one, never a torn
        // file that every later `load` rejects.
        let path = path.as_ref();
        let name = path.file_name().ok_or_else(|| {
            SparseError::InvalidArgument(format!("plan cache path {path:?} names no file"))
        })?;
        let mut tmp_name = name.to_os_string();
        tmp_name.push(format!(".tmp{}", std::process::id()));
        let tmp = path.with_file_name(tmp_name);
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(out.as_bytes())?;
                f.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, path));
        written.map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            SparseError::Parse(format!("write plan cache: {e}"))
        })
    }

    /// Loads a cache file previously written by [`save`](Planner::save),
    /// merging its entries into the in-memory cache. A file whose header
    /// names an unknown format version is ignored (cold start — old
    /// caches never block a new binary); a malformed entry line is a
    /// typed [`SparseError::Parse`]. Returns the number of entries
    /// loaded.
    pub fn load<P: AsRef<Path>>(&self, path: P) -> Result<usize, SparseError> {
        let mut text = String::new();
        std::fs::File::open(path.as_ref())
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| SparseError::Parse(format!("read plan cache: {e}")))?;
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == CACHE_HEADER => {}
            _ => return Ok(0), // unknown version: start cold
        }
        let mut loaded = 0;
        let mut inner = self.lock();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let e = parse_entry(line)?;
            inner.cache.insert(e.fp.crc, e);
            loaded += 1;
        }
        Ok(loaded)
    }
}

/// Encodes `m` into `kind`, one of the four formats the planner models
/// (CSR is the input itself).
fn encode_format(m: &Csr<u32, f64>, kind: FormatKind) -> Result<Encoded<'_>, SparseError> {
    Ok(match kind {
        FormatKind::Csr => Encoded::Csr(m),
        FormatKind::CsrDu => Encoded::Du(CsrDu::from_csr(m, &DuOptions::default())),
        FormatKind::CsrVi => Encoded::Vi(CsrVi::from_csr(m)),
        FormatKind::CsrDuVi => Encoded::DuVi(CsrDuVi::from_csr(m, &DuOptions::default())),
        other => {
            return Err(SparseError::InvalidArgument(format!(
                "planner does not model format {}",
                other.name()
            )))
        }
    })
}

/// One candidate format's matrix, encoded for costing and timed by the
/// host trial; the planned one goes on to serve.
enum Encoded<'m> {
    Csr(&'m Csr<u32, f64>),
    Du(CsrDu<f64>),
    Vi(CsrVi<u32, f64>),
    DuVi(CsrDuVi<f64>),
}

impl Encoded<'_> {
    fn cost(&self, cm: &CostModel) -> Result<FormatCost, SparseError> {
        match self {
            Encoded::Csr(m) => FormatCost::csr(*m, cm),
            Encoded::Du(m) => FormatCost::csr_du(m, cm),
            Encoded::Vi(m) => FormatCost::csr_vi(m, cm),
            Encoded::DuVi(m) => FormatCost::csr_duvi(m, cm),
        }
    }

    /// This format's `Par*` executor at `threads`, for the host trial.
    fn executor(&self, threads: usize) -> Box<dyn ParSpMv<f64> + '_> {
        match self {
            Encoded::Csr(m) => Box::new(ParCsr::new(*m, threads)),
            Encoded::Du(m) => Box::new(ParCsrDu::new(m, threads)),
            Encoded::Vi(m) => Box::new(ParCsrVi::new(m, threads)),
            Encoded::DuVi(m) => Box::new(ParCsrDuVi::new(m, threads)),
        }
    }

    /// The format's chunk adapter over this encoding, cut into `chunks`
    /// nnz-balanced chunks; CSR wraps `m`, of which it is a borrow.
    fn into_kernel(self, m: &Arc<Csr<u32, f64>>, chunks: usize) -> Arc<dyn ChunkKernel<f64>> {
        match self {
            Encoded::Csr(_) => Arc::new(CsrChunks::new(Arc::clone(m), chunks)),
            Encoded::Du(du) => Arc::new(CsrDuChunks::new(Arc::new(du), chunks)),
            Encoded::Vi(vi) => Arc::new(CsrViChunks::new(Arc::new(vi), chunks)),
            Encoded::DuVi(duvi) => Arc::new(CsrDuViChunks::new(Arc::new(duvi), chunks)),
        }
    }
}

/// Timed rounds of the host trial, after its warm-up round.
const TRIAL_ROUNDS: usize = 3;

/// Times the kept candidates at `threads` on this host ([`trial_rounds`],
/// x all ones, in the model's order at that width, each format's `Par*`
/// executor built once) and returns [`trial_pick`]'s choice.
fn host_trial(
    m: &Csr<u32, f64>,
    ranking: &[RankedChoice],
    threads: usize,
    kept: &[(FormatKind, Encoded<'_>)],
) -> Option<usize> {
    let cands: Vec<&(FormatKind, Encoded<'_>)> = ranking
        .iter()
        .filter(|c| c.threads == threads)
        .filter_map(|c| kept.iter().find(|(kind, _)| *kind == c.format))
        .collect();
    let mut execs: Vec<_> = cands.iter().map(|(_, enc)| enc.executor(threads)).collect();
    let x = vec![1.0; m.ncols()];
    let mut y = vec![0.0; m.nrows()];
    let samples = trial_rounds(execs.len(), |i| {
        let start = Instant::now();
        execs[i].par_spmv(&x, &mut y);
        start.elapsed().as_secs_f64()
    });
    let samples: Vec<(FormatKind, Vec<f64>)> =
        cands.iter().map(|(kind, _)| *kind).zip(samples).collect();
    trial_pick(ranking, threads, &samples)
}

/// The host trial's calls over `n` candidates, given in the model's
/// order: one untimed warm-up round, then up to [`TRIAL_ROUNDS`] timed
/// rounds that each call every live candidate once, in turn, so a burst
/// of host noise lands on all of them. `call(i)` runs candidate `i` once
/// and returns its seconds. After the second timed round, a candidate
/// the host has refuted ([`not_refuted`]) is called no more. Returns the
/// timed seconds of each candidate; a candidate no longer called has
/// fewer of them, which keeps it refuted.
fn trial_rounds(n: usize, mut call: impl FnMut(usize) -> f64) -> Vec<Vec<f64>> {
    for i in 0..n {
        call(i);
    }
    let mut samples = vec![Vec::with_capacity(TRIAL_ROUNDS); n];
    let mut live = vec![true; n];
    for round in 0..TRIAL_ROUNDS {
        for (i, s) in samples.iter_mut().enumerate().filter(|(i, _)| live[*i]) {
            s.push(call(i));
        }
        if round == 1 {
            live = not_refuted(&samples);
        }
    }
    samples
}

/// Which candidates, given in the model's order with their trial seconds
/// (one call per round, in round order), the host has not refuted. Only
/// a candidate timed in every round, each call finite, can stand: one
/// with fewer calls than the most-timed candidate was dropped by
/// [`trial_rounds`], and one with a NaN or infinite call is out. Among
/// those, the fastest candidate has the lowest fastest call (the first
/// in model order among equals), and another is refuted when the
/// fastest beat it in most rounds: in both of two, in two of three. A
/// round calls every candidate in turn, so its calls meet the same host,
/// and neither one slow call nor a drift in host speed from round to
/// round can decide.
fn not_refuted(samples: &[impl AsRef<[f64]>]) -> Vec<bool> {
    let rounds = samples.iter().map(|s| s.as_ref().len()).max().unwrap_or(0);
    let timed = |s: &[f64]| rounds > 0 && s.len() == rounds && s.iter().all(|t| t.is_finite());
    let fastest_call = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    let fastest = samples.iter().map(AsRef::as_ref).filter(|s| timed(s)).fold(
        None,
        |best: Option<&[f64]>, s| match best {
            Some(b) if fastest_call(b) <= fastest_call(s) => Some(b),
            _ => Some(s),
        },
    );
    samples
        .iter()
        .map(|s| {
            let s = s.as_ref();
            match fastest {
                Some(f) if timed(s) => {
                    let lost = f.iter().zip(s).filter(|(a, b)| a < b).count();
                    2 * lost <= rounds
                }
                _ => false,
            }
        })
        .collect()
}

/// The host trial's decision: the index, in `ranking`, of the model's
/// best-ranked candidate at `threads` that the host's timings in
/// `samples` (seconds per call, per format) do not refute
/// ([`not_refuted`]). The model's pick stands unless a faster format beat
/// it decisively; timings within each other's noise are no evidence
/// against the model. NaN or infinite times never win. `None` when no
/// format at `threads` was timed in every round with finite times.
fn trial_pick(
    ranking: &[RankedChoice],
    threads: usize,
    samples: &[(FormatKind, Vec<f64>)],
) -> Option<usize> {
    let cands: Vec<(usize, &[f64])> = ranking
        .iter()
        .enumerate()
        .filter(|(_, c)| c.threads == threads)
        .filter_map(|(i, c)| {
            samples.iter().find(|(f, _)| *f == c.format).map(|(_, s)| (i, s.as_slice()))
        })
        .collect();
    let times: Vec<&[f64]> = cands.iter().map(|&(_, s)| s).collect();
    cands.iter().zip(not_refuted(&times)).find_map(|(&(i, _), keep)| keep.then_some(i))
}

fn parse_entry(line: &str) -> Result<CacheEntry, SparseError> {
    let mut kv: HashMap<&str, &str> = HashMap::new();
    for tok in line.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| SparseError::Parse(format!("plan cache: bad token {tok:?}")))?;
        kv.insert(k, v);
    }
    fn req<'a>(kv: &HashMap<&str, &'a str>, k: &str) -> Result<&'a str, SparseError> {
        kv.get(k).copied().ok_or_else(|| SparseError::Parse(format!("plan cache: missing {k}")))
    }
    fn num<T: std::str::FromStr>(v: &str, k: &str) -> Result<T, SparseError> {
        v.parse().map_err(|_| SparseError::Parse(format!("plan cache: bad {k}={v}")))
    }
    let format = match req(&kv, "format")? {
        "CSR" => FormatKind::Csr,
        "CSR-DU" => FormatKind::CsrDu,
        "CSR-VI" => FormatKind::CsrVi,
        "CSR-DU-VI" => FormatKind::CsrDuVi,
        other => {
            return Err(SparseError::Parse(format!("plan cache: unknown format {other:?}")));
        }
    };
    let measured = match kv.get("measured_median_s") {
        Some(v) => Some(MeasuredCost {
            median_s: num(v, "measured_median_s")?,
            mflops: num(req(&kv, "measured_mflops")?, "measured_mflops")?,
            samples: num(req(&kv, "measured_samples")?, "measured_samples")?,
            warmup: num(req(&kv, "measured_warmup")?, "measured_warmup")?,
        }),
        None => None,
    };
    Ok(CacheEntry {
        fp: Fingerprint {
            crc: num(req(&kv, "crc")?, "crc")?,
            nrows: num(req(&kv, "nrows")?, "nrows")?,
            ncols: num(req(&kv, "ncols")?, "ncols")?,
            nnz: num(req(&kv, "nnz")?, "nnz")?,
        },
        format,
        threads: num(req(&kv, "threads")?, "threads")?,
        chunks: num(req(&kv, "chunks")?, "chunks")?,
        matrix_bytes: num(req(&kv, "matrix_bytes")?, "matrix_bytes")?,
        predicted_time_s: num(req(&kv, "predicted_time_s")?, "predicted_time_s")?,
        predicted_mflops: num(req(&kv, "predicted_mflops")?, "predicted_mflops")?,
        memory_bound: num(req(&kv, "memory_bound")?, "memory_bound")?,
        measured,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;

    fn banded(n: usize) -> Csr<u32, f64> {
        spmv_matgen::gen::banded(n, 6, 1.0, 1).to_csr()
    }

    #[test]
    fn plans_are_cached_by_fingerprint_with_zero_reencodes() {
        let p = Planner::new(PlannerConfig::default());
        let m = banded(20_000);
        let cold = p.plan_csr(&m).expect("plannable");
        assert!(!cold.cache_hit);
        assert!(!cold.ranking.is_empty());
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        // DU + VI + DU-VI candidate encodes (CSR is free).
        assert_eq!(s.encodes, 3);
        let warm = p.plan_csr(&m).expect("plannable");
        assert!(warm.cache_hit);
        assert_eq!(
            (warm.format, warm.threads, warm.chunks),
            (cold.format, cold.threads, cold.chunks)
        );
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.encodes, 3, "cache hit must not re-encode");
    }

    #[test]
    fn degenerate_shapes_get_trivial_serial_plans_not_panics() {
        let p = Planner::new(PlannerConfig::default());
        // 0-nnz.
        let empty: Csr<u32, f64> = Coo::new(5, 5).to_csr();
        let plan = p.plan_csr(&empty).expect("degenerate fallback");
        assert_eq!((plan.format, plan.threads, plan.chunks), (FormatKind::Csr, 1, 1));
        assert_eq!(plan.predicted_time_s, 0.0);
        // 1x1.
        let mut coo = Coo::new(1, 1);
        coo.push(0, 0, 2.5).unwrap();
        let one: Csr<u32, f64> = coo.to_csr();
        let plan = p.plan_csr(&one).expect("1x1 plannable");
        assert!(plan.threads >= 1);
        // Single dense row.
        let mut coo = Coo::new(4, 256);
        for c in 0..256 {
            coo.push(0, c, c as f64).unwrap();
        }
        let dense_row: Csr<u32, f64> = coo.to_csr();
        let plan = p.plan_csr(&dense_row).expect("dense row plannable");
        assert!(plan.predicted_time_s.is_finite());
        // 0-row.
        let norows: Csr<u32, f64> = Coo::new(0, 7).to_csr();
        assert!(p.plan_csr(&norows).is_ok());
    }

    #[test]
    fn poisoned_cache_entry_crc_hit_shape_mismatch_is_a_miss() {
        let p = Planner::new(PlannerConfig::default());
        let m = banded(10_000);
        let real = fingerprint_csr(&m);
        // Poison the cache: same CRC, different recorded shape — the
        // state a stale/corrupt cache file (or a cross-version CRC
        // collision) produces.
        {
            let mut inner = p.lock();
            inner.cache.insert(
                real.crc,
                CacheEntry {
                    fp: Fingerprint { crc: real.crc, nrows: 3, ncols: 3, nnz: 3 },
                    format: FormatKind::CsrVi,
                    threads: 8,
                    chunks: 64,
                    matrix_bytes: 99,
                    predicted_time_s: 1.0,
                    predicted_mflops: 1.0,
                    memory_bound: true,
                    measured: None,
                },
            );
        }
        let plan = p.plan_csr(&m).expect("re-analyzed");
        assert!(!plan.cache_hit, "poisoned entry must not serve a hit");
        assert_ne!(plan.matrix_bytes, 99);
        let s = p.stats();
        assert_eq!(s.shape_rejects, 1);
        assert_eq!(s.misses, 1);
        // The poisoned entry was replaced by the fresh analysis.
        let again = p.plan_csr(&m).expect("now cached");
        assert!(again.cache_hit);
        assert_eq!(again.fingerprint, real);
    }

    #[test]
    fn cache_roundtrips_through_disk_including_measurements() {
        let dir = std::env::temp_dir().join(format!("plancache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("PLANCACHE");
        let p = Planner::new(PlannerConfig::default());
        let m = banded(10_000);
        let cold = p.plan_csr(&m).expect("plannable");
        p.record_measurement(
            cold.fingerprint.crc,
            MeasuredCost { median_s: 1.25e-4, mflops: 480.0, samples: 16, warmup: 3 },
        );
        p.save(&path).expect("save");

        let q = Planner::new(PlannerConfig::default());
        assert_eq!(q.load(&path).expect("load"), 1);
        let warm = q.plan_csr(&m).expect("hit");
        assert!(warm.cache_hit);
        assert_eq!(warm.format, cold.format);
        let meas = warm.measured.expect("measurement persisted");
        assert_eq!(meas.samples, 16);
        assert!((meas.median_s - 1.25e-4).abs() < 1e-18);
        let s = q.stats();
        assert_eq!((s.hits, s.misses, s.encodes), (1, 0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_an_existing_cache_and_leaves_no_temporary_file() {
        let dir = std::env::temp_dir().join(format!("plancache-swap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("PLANCACHE");
        // A longer old cache, ending in the torn line an interrupted
        // in-place write used to leave.
        let old = format!("{CACHE_HEADER}\n{}\ncrc=7 nrows=", "crc=1 ".repeat(400));
        std::fs::write(&path, &old).unwrap();
        // A reader that opened the old cache keeps reading all of it: the
        // save replaced the file by rename instead of rewriting it.
        let mut reader = std::fs::File::open(&path).unwrap();
        let p = Planner::new(PlannerConfig::default());
        p.plan_csr(&banded(10_000)).expect("plannable");
        p.save(&path).expect("save");
        let mut seen = String::new();
        reader.read_to_string(&mut seen).unwrap();
        assert_eq!(seen, old);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(CACHE_HEADER) && text.ends_with('\n'));
        assert_eq!(text.lines().count(), 2, "header and the one new entry only");
        let q = Planner::new(PlannerConfig::default());
        assert_eq!(q.load(&path).expect("readable"), 1);
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["PLANCACHE"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_cache_version_is_cold_start_malformed_line_is_typed_error() {
        let dir = std::env::temp_dir().join(format!("plancache-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = Planner::new(PlannerConfig::default());

        let vpath = dir.join("future");
        std::fs::write(&vpath, "spmv-plan-cache v99\ncrc=1 whatever=2\n").unwrap();
        assert_eq!(p.load(&vpath).expect("unknown version ignored"), 0);

        let bpath = dir.join("mangled");
        std::fs::write(&bpath, format!("{CACHE_HEADER}\ncrc=1 nrows=oops\n")).unwrap();
        assert!(matches!(p.load(&bpath), Err(SparseError::Parse(_))));

        // A well-formed line naming a format the planner never plans
        // (and so could not serve) is refused like any unknown format.
        let line = |format: &str| {
            format!(
                "{CACHE_HEADER}\ncrc=1 nrows=4 ncols=4 nnz=4 format={format} threads=1 chunks=1 \
                 matrix_bytes=64 predicted_time_s=0.001 predicted_mflops=8.0 memory_bound=false\n"
            )
        };
        let fpath = dir.join("foreign-format");
        std::fs::write(&fpath, line("DCSR")).unwrap();
        assert!(matches!(p.load(&fpath), Err(SparseError::Parse(_))));
        std::fs::write(&fpath, line("CSR")).unwrap();
        assert_eq!(p.load(&fpath).expect("the same line with a planned format loads"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ranking_is_total_even_with_nan_predictions() {
        // total_cmp sorts NaN after every real value — a NaN candidate
        // loses rather than panicking the sort or winning by accident.
        let mut times = [0.5, f64::NAN, 0.1, f64::INFINITY];
        times.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(times[0], 0.1);
        assert!(times[3].is_nan());
    }

    fn two_thread_config(host_trial: bool) -> PlannerConfig {
        PlannerConfig { thread_candidates: vec![1, 2], host_trial, ..PlannerConfig::default() }
    }

    #[test]
    fn host_trial_leaves_model_csr_picks_untouched() {
        // Small enough that the model plans CSR: no trial runs, and the
        // plan is the model's to the last field.
        let m = banded(2_000);
        let off = Planner::new(two_thread_config(false)).plan_csr(&m).expect("plannable");
        assert_eq!(off.format, FormatKind::Csr);
        let on = Planner::new(two_thread_config(true)).plan_csr(&m).expect("plannable");
        assert_eq!(
            (on.format, on.threads, on.chunks, on.predicted_time_s),
            (off.format, off.threads, off.chunks, off.predicted_time_s)
        );
        assert_eq!(on.ranking, off.ranking);
    }

    #[test]
    fn host_trial_plans_a_ranked_cell_at_the_trial_width() {
        let m = banded(20_000);
        let model = Planner::new(two_thread_config(false)).plan_csr(&m).expect("plannable");
        assert_ne!(model.format, FormatKind::Csr, "the model must pick compressed here");

        let p = Planner::new(two_thread_config(true));
        let cold = p.plan_csr(&m).expect("plannable");
        assert!(!cold.cache_hit);
        // The plan runs the cell that was timed: the largest thread
        // candidate, chunked for it, with that ranking entry's numbers.
        assert_eq!((cold.threads, cold.chunks), (2, 4));
        let entry = cold
            .ranking
            .iter()
            .find(|c| c.format == cold.format && c.threads == 2)
            .expect("trial pick is a ranked candidate");
        assert_eq!(cold.predicted_time_s, entry.predicted_time_s);
        assert_eq!(cold.predicted_mflops, entry.predicted_mflops);
        assert_eq!(cold.memory_bound, entry.memory_bound);
        assert_eq!(cold.ranking, model.ranking, "ranking stays the model's");
        assert_eq!(p.stats().encodes, 3, "the trial reuses the costing's encodes");

        let warm = p.plan_csr(&m).expect("plannable");
        assert!(warm.cache_hit);
        assert_eq!(
            (warm.format, warm.threads, warm.chunks, warm.predicted_time_s),
            (cold.format, cold.threads, cold.chunks, cold.predicted_time_s)
        );
        let s = p.stats();
        assert_eq!((s.hits, s.misses, s.encodes), (1, 1, 3));
    }

    #[test]
    fn plan_kernel_serves_the_kept_encoding_without_encoding_again() {
        // Cold: the kernel is the trial's own encoding, so the plan counts
        // its three candidate encodes and nothing more. Warm: the cache
        // hit builds the kernel uncounted. Both compute what CSR does.
        let m = Arc::new(banded(20_000));
        let x: Vec<f64> = (0..m.ncols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut want = vec![0.0; m.nrows()];
        spmv_core::SpMv::spmv(&*m, &x, &mut want);
        let p = Planner::new(two_thread_config(true));
        for (round, hit) in [(0, false), (1, true)] {
            let (plan, kernel) = p.plan_kernel(&m).expect("plannable");
            assert_eq!(plan.cache_hit, hit, "round {round}");
            assert_eq!(kernel.nchunks(), plan.chunks, "round {round}");
            let mut y = vec![f64::NAN; m.nrows()];
            spmv_parallel::assemble_chunks(&*kernel, 1, &mut y, |chunk, out| {
                kernel.compute_block(chunk, &x, 1, out)
            });
            assert_eq!(y, want, "round {round}: {:?}", plan.format);
            assert_eq!(p.stats().encodes, 3, "round {round}");
        }
    }

    #[test]
    fn trial_off_plan_kernel_serves_the_encoding_the_analysis_built() {
        // With the trial off the model's pick is planned, and the
        // encoding the costing built for it serves: a cold plan_kernel
        // encodes nothing beyond the three counted candidates.
        let m = Arc::new(banded(20_000));
        let x: Vec<f64> = (0..m.ncols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut want = vec![0.0; m.nrows()];
        spmv_core::SpMv::spmv(&*m, &x, &mut want);
        let p = Planner::new(two_thread_config(false));
        let (plan, kernel) = p.plan_kernel(&m).expect("plannable");
        assert!(!plan.cache_hit);
        assert_ne!(plan.format, FormatKind::Csr, "the model must pick compressed here");
        let mut y = vec![f64::NAN; m.nrows()];
        spmv_parallel::assemble_chunks(&*kernel, 1, &mut y, |chunk, out| {
            kernel.compute_block(chunk, &x, 1, out)
        });
        assert_eq!(y, want, "{:?}", plan.format);
        let s = p.stats();
        assert_eq!((s.hits, s.misses, s.encodes), (0, 1, 3));

        // The analysis hands over the planned format's encoding; only a
        // cache hit comes back without one.
        let q = Planner::new(two_thread_config(false));
        let fp = fingerprint_csr(&m);
        let (cold, enc) = q.plan_keeping(&m, fp).expect("plannable");
        let kind = match enc.expect("a cold plan hands its encoding over") {
            Encoded::Csr(_) => FormatKind::Csr,
            Encoded::Du(_) => FormatKind::CsrDu,
            Encoded::Vi(_) => FormatKind::CsrVi,
            Encoded::DuVi(_) => FormatKind::CsrDuVi,
        };
        assert_eq!(kind, cold.format);
        let (warm, enc) = q.plan_keeping(&m, fp).expect("plannable");
        assert!(warm.cache_hit && enc.is_none());
    }

    fn choice(format: FormatKind, threads: usize, predicted_time_s: f64) -> RankedChoice {
        RankedChoice {
            format,
            threads,
            predicted_time_s,
            predicted_mflops: 1.0,
            memory_bound: false,
        }
    }

    /// A model ranking whose favourite at 2 threads is CSR-DU-VI, then
    /// CSR-VI, CSR-DU and CSR.
    fn trial_ranking() -> Vec<RankedChoice> {
        use FormatKind::{Csr, CsrDu, CsrDuVi, CsrVi};
        vec![
            choice(CsrDuVi, 2, 1.0),
            choice(CsrVi, 2, 2.0),
            choice(CsrDuVi, 1, 2.5),
            choice(CsrDu, 2, 3.0),
            choice(Csr, 2, 4.0),
            choice(Csr, 1, 5.0),
        ]
    }

    #[test]
    fn trial_pick_takes_the_fastest_finite_format_in_model_order() {
        use FormatKind::{Csr, CsrDu, CsrDuVi, CsrVi};
        let ranking = trial_ranking();
        // One call per format, one round: only the fastest (and exact ties
        // with it) survive.
        let one = |t: [(FormatKind, f64); 4]| t.map(|(f, s)| (f, vec![s])).to_vec();
        // The fastest format wins, at the trial's thread count.
        let times = one([(Csr, 3e-3), (CsrDu, 4e-3), (CsrVi, 2e-3), (CsrDuVi, 5e-3)]);
        assert_eq!(trial_pick(&ranking, 2, &times), Some(1));
        assert_eq!(trial_pick(&ranking, 1, &times), Some(5), "CSR at 1 thread");
        // An exact tie keeps the model's order.
        let tie = one([(Csr, 2e-3), (CsrDu, 4e-3), (CsrVi, 2e-3), (CsrDuVi, 2e-3)]);
        assert_eq!(trial_pick(&ranking, 2, &tie), Some(0));
        let tie = one([(Csr, 2e-3), (CsrDu, 2e-3), (CsrVi, 9e-3), (CsrDuVi, 9e-3)]);
        assert_eq!(trial_pick(&ranking, 2, &tie), Some(3));
        // NaN and infinite times never win.
        let bad =
            one([(Csr, 9e-3), (CsrDu, f64::NAN), (CsrVi, f64::INFINITY), (CsrDuVi, -f64::NAN)]);
        assert_eq!(trial_pick(&ranking, 2, &bad), Some(4));
        let none: Vec<(FormatKind, Vec<f64>)> =
            vec![(Csr, vec![f64::NAN]), (CsrDu, vec![f64::INFINITY]), (CsrVi, vec![f64::NAN])];
        assert_eq!(trial_pick(&ranking, 2, &none), None);
        assert_eq!(trial_pick(&ranking, 4, &times), None, "no candidate at that width");
    }

    /// Runs [`trial_rounds`] over `script` (one row of per-call seconds
    /// per candidate, in model order, warm-up call first) and returns the
    /// timed samples and the number of calls each candidate received.
    fn scripted_rounds(script: &[&[f64]]) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut calls = vec![0; script.len()];
        let samples = trial_rounds(script.len(), |i| {
            calls[i] += 1;
            script[i][calls[i] - 1]
        });
        (samples, calls)
    }

    #[test]
    fn trial_keeps_the_models_best_ranked_candidate_when_the_host_is_not_decisive() {
        use FormatKind::{Csr, CsrDu, CsrDuVi, CsrVi};
        let ranking = trial_ranking();
        // CSR has the fastest call, but the model's favourite CSR-DU-VI
        // and CSR-VI each beat CSR in two of the three rounds: the host is
        // not decisive, the favourite stands. CSR-DU is decisively slower.
        let script: [&[f64]; 4] = [
            &[9.0, 4.3, 4.4, 4.5], // CSR-DU-VI (model rank 0)
            &[9.0, 4.4, 4.5, 4.5], // CSR-VI
            &[9.0, 7.5, 7.8, 7.6], // CSR-DU
            &[9.0, 4.2, 4.6, 4.6], // CSR
        ];
        let (samples, _) = scripted_rounds(&script);
        let samples: Vec<_> = [CsrDuVi, CsrVi, CsrDu, Csr].into_iter().zip(samples).collect();
        assert_eq!(trial_pick(&ranking, 2, &samples), Some(0));
        // With the favourite refuted, the next-ranked survivor wins, not
        // the fastest call.
        let mut moved = samples.clone();
        moved[0].1 = vec![5.0, 5.1, 5.2];
        assert_eq!(trial_pick(&ranking, 2, &moved), Some(1), "CSR-VI outranks CSR");
    }

    #[test]
    fn trial_stops_calling_a_decisively_slower_candidate_after_the_second_round() {
        // CSR-VI, the fastest, beat CSR-DU in both of the first two timed
        // rounds: CSR-DU skips the third. CSR won one of the two and stays.
        // The warm-up call is never timed.
        let script: [&[f64]; 3] = [
            &[50.0, 4.5, 4.6, 4.4], // CSR-VI
            &[50.0, 7.5, 7.8, 0.1], // CSR-DU: its third call never runs
            &[50.0, 4.6, 4.5, 4.7], // CSR
        ];
        let (samples, calls) = scripted_rounds(&script);
        assert_eq!(calls, [4, 3, 4], "one warm-up call, then three or two timed");
        assert_eq!(samples, [vec![4.5, 4.6, 4.4], vec![7.5, 7.8], vec![4.6, 4.5, 4.7]]);
        // Two candidates that each won a round are both timed three times.
        let (_, calls) = scripted_rounds(&[&[1.0, 4.5, 4.9, 4.5], &[1.0, 4.8, 4.7, 4.6]]);
        assert_eq!(calls, [4, 4]);
    }

    #[test]
    fn trial_overrules_a_decisively_slower_model_favourite() {
        use FormatKind::{Csr, CsrDu, CsrDuVi, CsrVi};
        let ranking = trial_ranking();
        // CSR-VI beats the model's CSR-DU-VI in every round (4.4–4.6
        // against 7.5–7.8): the host is decisive. CSR lost two of three
        // rounds to CSR-VI and is refuted too.
        let script: [&[f64]; 4] = [
            &[9.0, 7.5, 7.8, 7.6], // CSR-DU-VI (model rank 0)
            &[9.0, 4.5, 4.6, 4.4], // CSR-VI
            &[9.0, 7.6, 7.7, 7.9], // CSR-DU
            &[9.0, 4.6, 4.5, 4.7], // CSR
        ];
        let (samples, calls) = scripted_rounds(&script);
        assert_eq!(calls, [3, 4, 3, 4]);
        let samples: Vec<_> = [CsrDuVi, CsrVi, CsrDu, Csr].into_iter().zip(samples).collect();
        assert_eq!(trial_pick(&ranking, 2, &samples), Some(1));
    }

    #[test]
    fn one_slow_call_of_the_fastest_does_not_rescue_a_refuted_favourite() {
        use FormatKind::{Csr, CsrDu, CsrDuVi, CsrVi};
        let ranking = trial_ranking();
        // A burst of host noise slows CSR-VI's second call past every
        // call of the model's CSR-DU-VI, so nothing is refuted after two
        // rounds and all four run a third. CSR-VI wins the other two
        // rounds, and CSR-DU-VI loses.
        let script: [&[f64]; 4] = [
            &[9.0, 8.3, 8.4, 8.5], // CSR-DU-VI (model rank 0)
            &[9.0, 4.9, 9.9, 4.8], // CSR-VI
            &[9.0, 7.9, 7.8, 7.5], // CSR-DU
            &[9.0, 5.9, 5.3, 5.8], // CSR
        ];
        let (samples, calls) = scripted_rounds(&script);
        assert_eq!(calls, [4, 4, 4, 4]);
        let samples: Vec<_> = [CsrDuVi, CsrVi, CsrDu, Csr].into_iter().zip(samples).collect();
        assert_eq!(trial_pick(&ranking, 2, &samples), Some(1));
    }

    #[test]
    fn host_speed_drift_between_rounds_does_not_rescue_a_refuted_favourite() {
        use FormatKind::{Csr, CsrDu, CsrDuVi, CsrVi};
        let ranking = trial_ranking();
        // A cold plan on a shared 2-vCPU host: the first timed round ran
        // fast, the others slow, so CSR-DU-VI's first call beats CSR-VI's
        // later ones. Round by round CSR-VI won every time.
        let samples = vec![
            (CsrDuVi, vec![5.975, 7.731, 9.551]),
            (CsrVi, vec![3.415, 7.478, 7.286]),
            (CsrDu, vec![6.334, 11.775]),
            (Csr, vec![6.342, 6.803, 6.931]),
        ];
        assert_eq!(trial_pick(&ranking, 2, &samples), Some(1));
    }

    #[test]
    fn a_candidate_dropped_after_the_second_round_stays_refuted() {
        use FormatKind::{Csr, CsrDu, CsrDuVi, CsrVi};
        let ranking = trial_ranking();
        // After two rounds CSR-VI is the fastest and beat the model's
        // CSR-DU-VI in both, so CSR-DU-VI is dropped. In the third round
        // CSR becomes the fastest and beats CSR-VI in two of three; CSR
        // beat CSR-DU-VI in only one of their two shared rounds, yet
        // CSR-DU-VI must not come back.
        let script: [&[f64]; 4] = [
            &[9.0, 4.2, 4.65, 0.1], // CSR-DU-VI (model rank 0): third call never runs
            &[9.0, 4.0, 4.6, 4.3],  // CSR-VI
            &[9.0, 7.5, 7.6, 0.1],  // CSR-DU: third call never runs
            &[9.0, 4.7, 4.5, 3.9],  // CSR
        ];
        let (samples, calls) = scripted_rounds(&script);
        assert_eq!(calls, [3, 4, 3, 4]);
        let samples: Vec<_> = [CsrDuVi, CsrVi, CsrDu, Csr].into_iter().zip(samples).collect();
        assert_eq!(trial_pick(&ranking, 2, &samples), Some(4), "CSR, not CSR-DU-VI");
        // The same holds for samples given directly: fewer rounds than the
        // most-timed candidate refute, however the shared rounds went.
        let samples = vec![(CsrDuVi, vec![1.0, 1.0]), (Csr, vec![2.0, 2.0, 2.0])];
        assert_eq!(trial_pick(&ranking, 2, &samples), Some(4));
    }

    #[test]
    fn trial_never_picks_nan_or_infinite_times() {
        use FormatKind::{Csr, CsrDu, CsrDuVi, CsrVi};
        let ranking = trial_ranking();
        // A candidate with one bad call is out, however fast its others,
        // and does not count as the fastest candidate.
        let samples = vec![
            (CsrDuVi, vec![1e-3, f64::NAN, 1e-3]),
            (CsrVi, vec![1e-3, 1e-3, f64::INFINITY]),
            (CsrDu, vec![f64::NEG_INFINITY, 1e-3]),
            (Csr, vec![5e-3, 6e-3, 5e-3]),
        ];
        assert_eq!(trial_pick(&ranking, 2, &samples), Some(4));
        // Through the rounds: the bad candidate is dropped after the
        // second timed round and never wins.
        let script: [&[f64]; 2] = [&[1.0, f64::NAN, 1e-3, 1e-3], &[1.0, 5e-3, 6e-3, 5e-3]];
        let (samples, calls) = scripted_rounds(&script);
        assert_eq!(calls, [3, 4]);
        let samples: Vec<_> = [CsrDuVi, Csr].into_iter().zip(samples).collect();
        assert_eq!(trial_pick(&ranking, 2, &samples), Some(4));
        let all_bad = vec![(CsrDuVi, vec![f64::NAN]), (Csr, vec![]), (CsrVi, vec![f64::INFINITY])];
        assert_eq!(trial_pick(&ranking, 2, &all_bad), None);
    }

    #[test]
    fn trial_exact_ties_keep_the_model_order() {
        use FormatKind::{Csr, CsrDu, CsrDuVi, CsrVi};
        let ranking = trial_ranking();
        let same = vec![4.5, 4.5, 4.5];
        let tied: Vec<_> =
            [Csr, CsrDu, CsrVi, CsrDuVi].into_iter().map(|f| (f, same.clone())).collect();
        assert_eq!(trial_pick(&ranking, 2, &tied), Some(0));
        // Equal fastest calls: the first in model order is the fastest
        // candidate, and neither other lost most rounds to it.
        let samples = vec![(CsrVi, vec![4.5, 4.6]), (CsrDu, vec![4.5, 9.0]), (Csr, vec![4.5, 4.5])];
        assert_eq!(trial_pick(&ranking, 2, &samples), Some(1));
        // So a tie on the fastest call never lets a lower-ranked format
        // refute the model's favourite, even one it beat in later rounds.
        let samples = vec![(CsrVi, vec![4.5, 5.0, 5.0]), (Csr, vec![4.5, 4.5, 4.5])];
        assert_eq!(trial_pick(&ranking, 2, &samples), Some(1));
    }

    #[test]
    fn concurrent_encodes_plan_what_sequential_ones_did() {
        // Above the threshold the CSR-DU and CSR-VI candidates are built
        // on two threads. The plan, its ranking and the encode count are
        // pinned to what the sequential analysis produced for this matrix.
        use FormatKind::{Csr, CsrDu, CsrDuVi, CsrVi};
        let mut m = spmv_matgen::gen::banded(90_000, 6, 1.0, 1).to_csr();
        let vals = spmv_matgen::values::ValueModel::Quantized { levels: 300 }.assign(m.nnz(), 7);
        m.values_mut().copy_from_slice(&vals);
        assert!(m.nnz() >= spmv_core::PARALLEL_ENCODE_MIN_NNZ, "{} nnz", m.nnz());
        let p = Planner::new(PlannerConfig::default());
        let plan = p.plan_csr(&m).expect("plannable");
        assert_eq!(
            (plan.format, plan.threads, plan.chunks, plan.matrix_bytes),
            (CsrDu, 8, 16, 10_873_098)
        );
        let c = |format, threads, predicted_time_s, predicted_mflops, memory_bound| RankedChoice {
            format,
            threads,
            predicted_time_s,
            predicted_mflops,
            memory_bound,
        };
        let want = vec![
            c(CsrDu, 8, 0.0005549387115819543, 4216.530494565141, false),
            c(CsrVi, 8, 0.0005583133077213029, 4191.044647583489, false),
            c(CsrDuVi, 8, 0.0006353762115819544, 3682.725222233449, false),
            c(CsrDuVi, 4, 0.0012687177769437879, 1844.3156094467438, false),
            c(CsrVi, 4, 0.0018922441025641026, 1236.5825301446446, true),
            c(Csr, 8, 0.0021175735294117646, 1104.9987013437967, true),
            c(CsrVi, 2, 0.0022271733499999997, 1050.6214076241529, false),
            c(CsrDuVi, 2, 0.0025354139, 922.8931023845851, false),
            c(CsrDu, 4, 0.0027879738461538462, 839.2890784208879, true),
            c(CsrDu, 2, 0.0029386751351351353, 796.2486128608424, true),
            c(Csr, 4, 0.003692179487179487, 633.7492551824716, true),
            c(Csr, 2, 0.0038917567567567568, 601.2492933782422, true),
            c(CsrDu, 1, 0.0044233509, 528.9917198294171, false),
            c(CsrVi, 1, 0.0044503467, 525.7828564232984, false),
            c(Csr, 1, 0.00449984375, 519.999388867669, true),
            c(CsrDuVi, 1, 0.005066827800000001, 461.81083951580115, false),
        ];
        assert_eq!(plan.ranking, want);
        let s = p.stats();
        assert_eq!((s.hits, s.misses, s.encodes), (0, 1, 3));
    }

    #[test]
    fn memory_bound_matrices_prefer_compressed_formats() {
        // A large banded matrix is memory-bound: the model must pick a
        // byte-reducing format over plain CSR (the paper's headline
        // claim), and use every modeled core.
        let p = Planner::new(PlannerConfig::default());
        let m = banded(200_000);
        let plan = p.plan_csr(&m).expect("plannable");
        assert_ne!(plan.format, FormatKind::Csr, "bandwidth-bound pick must compress");
        assert_eq!(plan.threads, 8);
        // CSR at the same thread count is memory-bound and predicted
        // slower — compression is exactly what bought the win.
        let csr8 = plan
            .ranking
            .iter()
            .find(|c| c.format == FormatKind::Csr && c.threads == 8)
            .expect("CSR/8 candidate present");
        assert!(csr8.memory_bound);
        assert!(plan.predicted_time_s <= csr8.predicted_time_s);
    }
}
