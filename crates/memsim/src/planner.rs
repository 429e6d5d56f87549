//! Adaptive format/thread/partition planner with a fingerprint-keyed,
//! disk-persistable plan cache.
//!
//! The paper's central observation is that multithreaded SpMV is
//! memory-bandwidth bound, so the format that streams the fewest bytes
//! usually wins — but "usually" hides CPU-bound regimes (cache-resident
//! matrices, decode-heavy streams) where CSR or CSR-VI beat CSR-DU. The
//! repo already has every ingredient to decide per matrix instead of
//! guessing: [`MatrixProfile`](crate::MatrixProfile) captures the nnz
//! distribution, x-vector locality and per-thread imbalance;
//! [`FormatCost`](crate::FormatCost) captures each format's stream/
//! resident bytes and cycle costs (delta-unit compressibility and the
//! value-table size fall out of the encodes); and
//! [`predict`](crate::predict) folds both through the modeled cache and
//! bandwidth hierarchy. The [`Planner`] glues them into one call:
//! *matrix in, ready-to-run [`Plan`] out*.
//!
//! ## Decision inputs
//!
//! For each candidate format (default: the paper's CSR, CSR-DU, CSR-VI,
//! CSR-DU-VI) the planner encodes the matrix, builds its
//! [`FormatCost`](crate::FormatCost), and evaluates
//! [`predict`](crate::predict) at every candidate thread count placed
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
//! before committing: every candidate format runs on its `Par*`
//! executor at the largest thread candidate (x all ones, one warm-up
//! call, then the fastest of three timed calls), and the plan becomes
//! the ranked candidate of the fastest format at that thread count,
//! with that entry's predictions. The trial reuses the encodings the
//! costing already built, so a cold plan still counts three encodes,
//! but it holds them all until it has decided (about 86 MB on a
//! 5.4M-nnz matrix) and adds about 0.2 s to that matrix's cold plan at
//! 2 threads on a 2-vCPU host: sixteen calls of 4–10 ms, four pool
//! spawns, and about 7 ms per CSR-DU-based executor to split its ctl
//! stream. A model pick
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
//! [`Planner::plan_kernel`] then serves the plan with the encoding the
//! trial kept for the picked format, so a cold registration encodes no
//! format twice. A CSR pick wraps the CSR itself; a cache hit, or an
//! analysis with the trial off, encodes the planned format once more,
//! uncounted in [`PlanCacheStats::encodes`].
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
//!
//! ## Online refinement
//!
//! [`Planner::refine_from_telemetry`] folds measured pool imbalance
//! (`PoolTelemetry::imbalance()`) back into a cached plan: persistent
//! imbalance above the configured threshold doubles the plan's chunk
//! count (finer work units smooth static partition skew), bounded so
//! chunking never degenerates into per-row scheduling.

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
    /// Measured-imbalance threshold above which
    /// [`Planner::refine_from_telemetry`] doubles a cached plan's chunks.
    pub refine_imbalance_threshold: f64,
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
            refine_imbalance_threshold: 1.25,
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
    /// Cached plans adjusted by [`Planner::refine_from_telemetry`].
    pub refinements: u64,
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
    /// [`Plan::chunks`] chunks. A cold plan whose host trial kept the
    /// candidate encodings hands over the one it picked, so the matrix is
    /// encoded once per format; a cache hit, or an analysis with the
    /// trial off, encodes the planned format here, and that encode is not
    /// counted in [`PlanCacheStats::encodes`]. A CSR plan wraps `m`
    /// itself. The plan's thread count informs chunking only: the
    /// executor that runs the kernel sizes its own pool.
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
    /// returns the encoding of the planned format when the analysis kept
    /// its candidates for the host trial.
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
    /// With the trial on, the planned format's encoding comes back too.
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
        // Only the trial needs the encodings once they are costed.
        let kept = if self.cfg.host_trial { built } else { Vec::new() };
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
            let x = vec![1.0; m.ncols()];
            let mut y = vec![0.0; m.nrows()];
            let times: Vec<(FormatKind, f64)> =
                kept.iter().map(|(kind, enc)| (*kind, enc.trial_time(&x, &mut y, t))).collect();
            pick = trial_pick(&ranking, t, &times).unwrap_or(0);
        }
        let best = ranking[pick].clone();
        let picked = kept.into_iter().find(|(kind, _)| *kind == best.format).map(|(_, enc)| enc);
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
    /// and CSR-VI encodings when both are among the candidates `built`
    /// so far; the assembly counts as its encode.
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

    /// Online refinement from pool telemetry: if the measured per-batch
    /// imbalance of a cached plan exceeds the configured threshold, its
    /// chunk count doubles (bounded at 8 chunks per thread) so the
    /// static nnz-balanced partition gets finer work units to smooth.
    /// Returns the plan's new chunk count, or `None` if the plan is
    /// unknown or needed no change.
    pub fn refine_from_telemetry(&self, crc: u32, imbalance: f64) -> Option<usize> {
        // NaN imbalance (empty telemetry) must not trigger refinement.
        if imbalance.is_nan() || imbalance <= self.cfg.refine_imbalance_threshold {
            return None;
        }
        let mut inner = self.lock();
        let e = inner.cache.get_mut(&crc)?;
        let cap = e.threads.max(1) * 8;
        if e.chunks >= cap {
            return None;
        }
        e.chunks = (e.chunks * 2).min(cap);
        let chunks = e.chunks;
        inner.stats.refinements += 1;
        Some(chunks)
    }

    /// Persists the cache as a versioned text file (one entry per line).
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
        let mut f = std::fs::File::create(path.as_ref())
            .map_err(|e| SparseError::Parse(format!("create plan cache: {e}")))?;
        f.write_all(out.as_bytes())
            .map_err(|e| SparseError::Parse(format!("write plan cache: {e}")))
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

/// One candidate format's matrix, encoded for costing and kept for the
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

    /// Host-trial seconds per `y = A·x` on this format's `Par*`
    /// executor at `threads`: one warm-up call, then the fastest of three
    /// timed calls.
    fn trial_time(&self, x: &[f64], y: &mut [f64], threads: usize) -> f64 {
        let mut exec: Box<dyn ParSpMv<f64> + '_> = match self {
            Encoded::Csr(m) => Box::new(ParCsr::new(*m, threads)),
            Encoded::Du(m) => Box::new(ParCsrDu::new(m, threads)),
            Encoded::Vi(m) => Box::new(ParCsrVi::new(m, threads)),
            Encoded::DuVi(m) => Box::new(ParCsrDuVi::new(m, threads)),
        };
        exec.par_spmv(x, y);
        (0..3)
            .map(|_| {
                let t = Instant::now();
                exec.par_spmv(x, y);
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
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

/// The host trial's decision: the index, in `ranking`, of the candidate
/// at `threads` whose format has the fastest finite trial time in
/// `times`. Exact ties keep the model's order (the earlier entry);
/// NaN or infinite times never win. `None` when no format at `threads`
/// has a finite time.
fn trial_pick(
    ranking: &[RankedChoice],
    threads: usize,
    times: &[(FormatKind, f64)],
) -> Option<usize> {
    ranking
        .iter()
        .enumerate()
        .filter(|(_, c)| c.threads == threads)
        .filter_map(|(i, c)| times.iter().find(|(f, _)| *f == c.format).map(|&(_, t)| (i, t)))
        .filter(|(_, t)| t.is_finite())
        // `min_by` keeps the first of equal minima: the model's order.
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
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
        "DCSR" => FormatKind::Dcsr,
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
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refinement_doubles_chunks_under_measured_imbalance() {
        let p = Planner::new(PlannerConfig::default());
        let m = banded(20_000);
        let plan = p.plan_csr(&m).expect("plannable");
        let crc = plan.fingerprint.crc;
        // Balanced pools leave the plan alone.
        assert_eq!(p.refine_from_telemetry(crc, 1.02), None);
        // Persistent imbalance doubles chunking, bounded at 8/thread.
        let refined = p.refine_from_telemetry(crc, 1.8).expect("refined");
        assert_eq!(refined, plan.chunks * 2);
        let mut last = refined;
        for _ in 0..10 {
            if let Some(c) = p.refine_from_telemetry(crc, 1.8) {
                last = c;
            }
        }
        assert_eq!(last, plan.threads * 8, "refinement is bounded");
        assert!(p.stats().refinements >= 2);
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
    fn trial_pick_takes_the_fastest_finite_format_in_model_order() {
        let c = |format, threads, predicted_time_s| RankedChoice {
            format,
            threads,
            predicted_time_s,
            predicted_mflops: 1.0,
            memory_bound: false,
        };
        use FormatKind::{Csr, CsrDu, CsrDuVi, CsrVi};
        let ranking = vec![
            c(CsrDuVi, 2, 1.0),
            c(CsrVi, 2, 2.0),
            c(CsrDuVi, 1, 2.5),
            c(CsrDu, 2, 3.0),
            c(Csr, 2, 4.0),
            c(Csr, 1, 5.0),
        ];
        // The fastest format wins, at the trial's thread count.
        let times = [(Csr, 3e-3), (CsrDu, 4e-3), (CsrVi, 2e-3), (CsrDuVi, 5e-3)];
        assert_eq!(trial_pick(&ranking, 2, &times), Some(1));
        assert_eq!(trial_pick(&ranking, 1, &times), Some(5), "CSR at 1 thread");
        // An exact tie keeps the model's order.
        let tie = [(Csr, 2e-3), (CsrDu, 4e-3), (CsrVi, 2e-3), (CsrDuVi, 2e-3)];
        assert_eq!(trial_pick(&ranking, 2, &tie), Some(0));
        let tie = [(Csr, 2e-3), (CsrDu, 2e-3), (CsrVi, 9e-3), (CsrDuVi, 9e-3)];
        assert_eq!(trial_pick(&ranking, 2, &tie), Some(3));
        // NaN and infinite times never win.
        let bad = [(Csr, 9e-3), (CsrDu, f64::NAN), (CsrVi, f64::INFINITY), (CsrDuVi, -f64::NAN)];
        assert_eq!(trial_pick(&ranking, 2, &bad), Some(4));
        let none = [(Csr, f64::NAN), (CsrDu, f64::INFINITY), (CsrVi, f64::NAN)];
        assert_eq!(trial_pick(&ranking, 2, &none), None);
        assert_eq!(trial_pick(&ranking, 4, &times), None, "no candidate at that width");
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
