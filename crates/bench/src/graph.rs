//! Graph and iterative drivers over SpMSpV (schema v7 `spmspv` section).
//!
//! Two frontier workloads exercise the sparse-input/sparse-output kernel
//! exactly where the paper's dense-`x` SpMV is wasteful — when only a
//! small set of columns is active per step:
//!
//! * **BFS levels** — the frontier is a [`SparseVec`] of `1.0`s; one
//!   SpMSpV expands it, and the *structural* output support (rows touched
//!   by any active column, even if values cancel) minus the visited set
//!   is the next frontier. Level sets depend only on structure, so the
//!   CSC-bucket and masked-CSR paths must produce identical levels at
//!   every thread count. The dense path is excluded from BFS: a dense
//!   `y = A·x` cannot report structural support.
//! * **Convergence-masked PageRank** — the delta-push form
//!   `δ_{k+1} = d · Â · δ_k` over the column-stochastic pattern
//!   `Â = A / outdeg` (structural values, `1/outdeg[j]` per entry of
//!   column `j`). Every contribution is folded into the rank vector, but
//!   only entries with `|δ| > eps` stay active — the frontier *shrinks*
//!   as vertices converge, driving the density down through the crossover
//!   where SpMSpV overtakes the dense kernel.
//!
//! ## Determinism contract
//!
//! Ranks and level sets are **bit-identical** across thread counts
//! {1, 2, 4, 7} and across all three kernel paths:
//!
//! * the bucket and masked plans are bit-identical to serial SpMSpV by
//!   construction (ascending active-column accumulation per row — see
//!   `spmv_parallel::spmspv`);
//! * the dense comparator [`ParCsr`] row-partitions, so each row is a
//!   serial left-to-right dot product regardless of thread count; the
//!   scaled values are strictly positive and deltas non-negative, so the
//!   dense path's extra `+0.0` products for inactive columns cannot
//!   change a single accumulator bit;
//! * every cross-entry reduction (the residual) goes through
//!   [`deterministic_abs_sum`] — fixed-size chunks combined in fixed
//!   order, independent of how many threads produced the summands.
//!
//! ## Crossover measurement
//!
//! [`measure_crossover`] sweeps frontier densities, timing serial bucket
//! SpMSpV against the dense CSR kernel, and reports the geometric mean of
//! the last density where SpMSpV won and the first where it lost. The
//! recorded value is always finite and positive (`check-bench` enforces
//! this): 1.0 when SpMSpV wins the whole sweep, half the smallest swept
//! density when it never wins.

use std::time::Instant;

use spmv_core::csc::Csc;
use spmv_core::csr::Csr;
use spmv_core::spmspv::{spmspv_bucketed, SpMSpVPath, DENSE_CROSSOVER_DENSITY};
use spmv_core::{SpMv, SparseError, SparseVec};
use spmv_matgen::corpus::corpus_scaled;
use spmv_matgen::frontier::{bfs_source, frontier};
use spmv_matgen::MatrixClass;
use spmv_parallel::{ParCsr, ParMaskedSpMSpV, ParSpMSpV, ParSpMv};

use crate::measured::TimingStats;
use crate::metrics::{
    BenchFile, GraphMatrixRecord, GraphSummary, MachineInfo, SpmspvSweepPoint, BENCH_SCHEMA_VERSION,
};

/// Fixed chunk width of [`deterministic_abs_sum`]. Part of the output
/// contract: changing it changes residual bits.
pub const REDUCTION_CHUNK: usize = 4096;

/// Sum of `|v|` with a pinned reduction order.
///
/// Partial sums are formed over fixed `REDUCTION_CHUNK`-wide chunks and
/// combined left to right, so the result is a pure function of the input
/// slice — never of thread count, kernel path, or scheduling. This is the
/// chunked-deterministic-reduction discipline the pool's own reductions
/// follow (see `spmv-parallel` module docs); using it here keeps the
/// PageRank residual reproducible even if the summands were produced by
/// different parallel paths.
pub fn deterministic_abs_sum(v: &[f64]) -> f64 {
    let mut total = 0.0;
    for chunk in v.chunks(REDUCTION_CHUNK) {
        let mut partial = 0.0;
        for &x in chunk {
            partial += x.abs();
        }
        total += partial;
    }
    total
}

/// Which SpMSpV execution path a driver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathMode {
    /// Per-iteration density crossover: dense [`ParCsr`] at or above the
    /// threshold, CSC-bucket below (PageRank only — BFS needs structural
    /// support, which the dense kernel cannot report, so `Auto` means
    /// the bucket path there).
    Auto,
    /// Always the parallel CSC bucket plan.
    ForceBucket,
    /// Always the parallel masked-CSR fallback.
    ForceMasked,
}

/// One BFS run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct BfsRun {
    /// Level per vertex; `-1` for unreached.
    pub levels: Vec<i64>,
    /// Distinct levels discovered (the source's level 0 included).
    pub level_count: usize,
    /// Vertices reached (source included).
    pub reached: usize,
    /// Seconds per frontier expansion.
    pub iter_s: Vec<f64>,
}

/// BFS level sets via SpMSpV frontier expansion.
///
/// The adjacency is taken structurally from `csr` (values ignored —
/// frontiers carry `1.0`s and only output *support* is consumed). An
/// edge `(r, c)` means "column `c` active ⇒ row `r` reachable", i.e.
/// traversal follows `y = A·x` information flow.
pub fn bfs(
    csr: &Csr<u32, f64>,
    nthreads: usize,
    mode: PathMode,
    source: usize,
) -> Result<BfsRun, SparseError> {
    let n = csr.nrows();
    if csr.ncols() != n {
        return Err(SparseError::DimensionMismatch(format!(
            "bfs: adjacency must be square, got {}x{}",
            n,
            csr.ncols()
        )));
    }
    if source >= n {
        return Err(SparseError::IndexOutOfBounds { row: source, col: 0, nrows: n, ncols: n });
    }
    let csc = Csc::from_csr(csr)?;
    let mut bucket = ParSpMSpV::new(&csc, nthreads);
    let mut masked = ParMaskedSpMSpV::new(csr, nthreads);

    let mut levels = vec![-1i64; n];
    levels[source] = 0;
    let mut reached = 1usize;
    let mut level_count = 1usize;
    let mut iter_s = Vec::new();
    let mut front = SparseVec::single(n, source, 1.0)?;

    for level in 1..=n as i64 {
        let t0 = Instant::now();
        let y = match mode {
            PathMode::ForceMasked => masked.spmspv(&front)?,
            PathMode::Auto | PathMode::ForceBucket => bucket.spmspv(&front)?,
        };
        iter_s.push(t0.elapsed().as_secs_f64());
        // Structural support: `y` lists every row any active column
        // stores an entry in, value bits irrelevant.
        let next: Vec<u32> =
            y.indices().iter().copied().filter(|&i| levels[i as usize] < 0).collect();
        if next.is_empty() {
            break;
        }
        for &i in &next {
            levels[i as usize] = level;
        }
        reached += next.len();
        level_count += 1;
        let vals = vec![1.0f64; next.len()];
        front = SparseVec::new(n, next, vals)?;
    }
    Ok(BfsRun { levels, level_count, reached, iter_s })
}

/// PageRank driver knobs.
#[derive(Debug, Clone)]
pub struct PageRankOpts {
    /// Damping factor `d` (paper-standard 0.85).
    pub damping: f64,
    /// Convergence mask: a vertex stays active while `|δ| > eps`.
    pub eps: f64,
    /// Iteration cap (the run also stops when no vertex is active).
    pub max_iters: usize,
    /// Density at or above which [`PathMode::Auto`] takes the dense
    /// kernel.
    pub crossover: f64,
}

impl Default for PageRankOpts {
    fn default() -> Self {
        PageRankOpts {
            damping: 0.85,
            eps: 1e-10,
            max_iters: 200,
            crossover: DENSE_CROSSOVER_DENSITY,
        }
    }
}

/// One PageRank run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankRun {
    /// Final rank per vertex.
    pub ranks: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Seconds per iteration.
    pub iter_s: Vec<f64>,
    /// Kernel path chosen per iteration.
    pub paths: Vec<&'static str>,
    /// Active vertices after the last executed iteration.
    pub final_active: usize,
    /// Deterministic `Σ|δ|` after the last executed iteration.
    pub residual: f64,
}

/// A CSR matrix and its CSC twin with bit-identical values.
pub type FormatTwins = (Csr<u32, f64>, Csc<u32, f64>);

/// Column-stochastic structural scaling: every stored entry of column
/// `j` becomes `1 / outdeg(j)` (the CSC column count). Returns the CSR
/// and its CSC twin with bit-identical values.
pub fn scaled_adjacency(csr: &Csr<u32, f64>) -> Result<FormatTwins, SparseError> {
    let ncols = csr.ncols();
    let mut deg = vec![0u64; ncols];
    for &c in csr.col_ind() {
        deg[c as usize] += 1;
    }
    let values: Vec<f64> = csr.col_ind().iter().map(|&c| 1.0 / deg[c as usize] as f64).collect();
    let scaled = Csr::from_raw_parts(
        csr.nrows(),
        ncols,
        csr.row_ptr().to_vec(),
        csr.col_ind().to_vec(),
        values,
    )?;
    let csc = Csc::from_csr(&scaled)?;
    Ok((scaled, csc))
}

/// Convergence-masked PageRank in delta-push form.
///
/// `r` starts at `(1-d)/n` everywhere with the full vertex set active;
/// each iteration computes `δ' = d · Â · δ` on the path the density
/// crossover (or forced `mode`) picks, folds every contribution into
/// `r`, and keeps only `|δ'| > eps` entries active. All quantities are
/// non-negative, so the dense path's inactive-column products are exact
/// `+0.0`s and every path produces bit-identical ranks (module docs).
pub fn pagerank(
    csr: &Csr<u32, f64>,
    nthreads: usize,
    mode: PathMode,
    opts: &PageRankOpts,
) -> Result<PageRankRun, SparseError> {
    let n = csr.nrows();
    if csr.ncols() != n {
        return Err(SparseError::DimensionMismatch(format!(
            "pagerank: adjacency must be square, got {}x{}",
            n,
            csr.ncols()
        )));
    }
    let base = (1.0 - opts.damping) / n.max(1) as f64;
    if n == 0 {
        return Ok(PageRankRun {
            ranks: Vec::new(),
            iterations: 0,
            iter_s: Vec::new(),
            paths: Vec::new(),
            final_active: 0,
            residual: 0.0,
        });
    }
    let (scsr, scsc) = scaled_adjacency(csr)?;
    let mut bucket = ParSpMSpV::new(&scsc, nthreads);
    let mut masked = ParMaskedSpMSpV::new(&scsr, nthreads);
    let mut dense = ParCsr::new(&scsr, nthreads);
    let mut yd = vec![0.0f64; n];

    let mut ranks = vec![base; n];
    let mut delta = SparseVec::new(n, (0..n as u32).collect(), vec![base; n])?;
    let mut iter_s = Vec::new();
    let mut paths: Vec<&'static str> = Vec::new();
    let mut residual = deterministic_abs_sum(delta.values());

    for _ in 0..opts.max_iters {
        if delta.is_empty() {
            break;
        }
        let path = match mode {
            PathMode::ForceBucket => SpMSpVPath::CscBucket,
            PathMode::ForceMasked => SpMSpVPath::MaskedCsr,
            PathMode::Auto => {
                if delta.density() >= opts.crossover {
                    SpMSpVPath::Dense
                } else {
                    SpMSpVPath::CscBucket
                }
            }
        };
        let t0 = Instant::now();
        // Fold `d · Â · δ` into the ranks; collect the surviving frontier.
        let mut next_ind = Vec::new();
        let mut next_val = Vec::new();
        match path {
            SpMSpVPath::Dense => {
                let xd = delta.densify();
                dense.par_spmv(&xd, &mut yd);
                for (i, &y) in yd.iter().enumerate() {
                    let v = opts.damping * y;
                    if v != 0.0 {
                        ranks[i] += v;
                        if v.abs() > opts.eps {
                            next_ind.push(i as u32);
                            next_val.push(v);
                        }
                    }
                }
            }
            SpMSpVPath::CscBucket | SpMSpVPath::MaskedCsr => {
                let y = if path == SpMSpVPath::CscBucket {
                    bucket.spmspv(&delta)?
                } else {
                    masked.spmspv(&delta)?
                };
                for (i, &yv) in y.indices().iter().zip(y.values()) {
                    let v = opts.damping * yv;
                    if v != 0.0 {
                        ranks[*i as usize] += v;
                        if v.abs() > opts.eps {
                            next_ind.push(*i);
                            next_val.push(v);
                        }
                    }
                }
            }
        }
        iter_s.push(t0.elapsed().as_secs_f64());
        paths.push(path.as_str());
        delta = SparseVec::new(n, next_ind, next_val)?;
        residual = deterministic_abs_sum(delta.values());
    }
    Ok(PageRankRun {
        ranks,
        iterations: iter_s.len(),
        iter_s,
        paths,
        final_active: delta.nnz(),
        residual,
    })
}

/// Serial density sweep: bucket SpMSpV vs the dense CSR kernel.
///
/// Returns the sweep points (densities recorded as *achieved*
/// `nnz / n`, which is what the crossover decision sees) and the
/// measured crossover density. Both kernels run `iters` times per
/// density; medians are compared.
pub fn measure_crossover(
    csr: &Csr<u32, f64>,
    csc: &Csc<u32, f64>,
    densities: &[f64],
    iters: usize,
    seed: u64,
) -> Result<(Vec<SpmspvSweepPoint>, f64), SparseError> {
    let n = csr.ncols();
    let nbuckets = 8;
    let mut y = vec![0.0f64; csr.nrows()];
    let mut points = Vec::with_capacity(densities.len());
    for &d in densities {
        let x = frontier(n, d, seed);
        if x.is_empty() {
            continue;
        }
        let xd = x.densify();
        let mut sp_samples = Vec::with_capacity(iters);
        let mut de_samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            let out = spmspv_bucketed(csc, &x, nbuckets)?;
            sp_samples.push(t0.elapsed().as_secs_f64());
            std::hint::black_box(out.nnz());

            let t0 = Instant::now();
            csr.spmv(&xd, &mut y);
            de_samples.push(t0.elapsed().as_secs_f64());
            std::hint::black_box(y[0]);
        }
        let sp = TimingStats::from_samples(&sp_samples)?.median_s;
        let de = TimingStats::from_samples(&de_samples)?.median_s;
        points.push(SpmspvSweepPoint {
            density: x.density().max(f64::MIN_POSITIVE),
            frontier_nnz: x.nnz(),
            spmspv_s: sp.max(f64::MIN_POSITIVE),
            dense_s: de.max(f64::MIN_POSITIVE),
            path: if sp < de { SpMSpVPath::CscBucket } else { SpMSpVPath::Dense }
                .as_str()
                .to_string(),
        });
    }
    Ok((points.clone(), crossover_from_sweep(&points)))
}

/// Crossover = geometric mean of the last density where SpMSpV won and
/// the first where it lost, over the longest winning prefix — so SpMSpV
/// beats dense at *every* sweep point strictly below the returned value.
/// Finite and positive by construction: 1.0 if SpMSpV wins everywhere,
/// half the smallest swept density if it never wins, 0.5 on an empty
/// sweep.
pub fn crossover_from_sweep(points: &[SpmspvSweepPoint]) -> f64 {
    let mut last_win: Option<f64> = None;
    for p in points {
        if p.spmspv_s < p.dense_s {
            last_win = Some(p.density);
        } else {
            return match last_win {
                Some(w) => (w * p.density).sqrt(),
                None => (p.density / 2.0).max(f64::MIN_POSITIVE),
            };
        }
    }
    if last_win.is_some() {
        1.0
    } else {
        0.5
    }
}

/// What [`collect_graph`] runs.
#[derive(Debug, Clone)]
pub struct GraphOptions {
    /// Corpus scale factor.
    pub scale: f64,
    /// Timed iterations per sweep density.
    pub iters: usize,
    /// Frontier/source seed.
    pub seed: u64,
    /// Thread counts the bit-identity checks cover.
    pub threads: Vec<usize>,
    /// Requested sweep densities (ascending; the first is clamped to a
    /// single nonzero by the frontier generator).
    pub densities: Vec<f64>,
    /// PageRank knobs.
    pub pagerank: PageRankOpts,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            scale: 0.05,
            iters: 9,
            seed: 0xC0FFEE,
            threads: vec![1, 2, 4, 7],
            densities: vec![1e-9, 0.01, 0.1, 0.5, 1.0],
            pagerank: PageRankOpts::default(),
        }
    }
}

/// Runs the graph suite over the power-law corpus entries and returns a
/// schema-v7 [`BenchFile`] whose `spmspv` section carries the evidence.
///
/// For every matrix this *checks* (not just measures) the determinism
/// contract: BFS levels and PageRank rank bits must be identical across
/// all of `opts.threads` and across the CSC-bucket and masked-CSR paths
/// (plus `Auto`'s dense excursions). Any divergence is an error, so a
/// green artifact is itself the bit-identity proof.
pub fn collect_graph(opts: &GraphOptions) -> Result<BenchFile, SparseError> {
    if opts.iters == 0 {
        return Err(SparseError::Parse("graph: iters must be >= 1".into()));
    }
    if opts.threads.is_empty() {
        return Err(SparseError::Parse("graph: need at least one thread count".into()));
    }
    let entries: Vec<_> = corpus_scaled(opts.scale)
        .into_iter()
        .filter(|e| matches!(e.class, MatrixClass::PowerLaw { .. }))
        .collect();
    if entries.is_empty() {
        return Err(SparseError::Parse("graph: corpus has no power-law entries".into()));
    }

    let mut matrices = Vec::with_capacity(entries.len());
    for entry in &entries {
        let coo = entry.build();
        let csr: Csr<u32, f64> = coo.to_csr();
        let csc = Csc::from_csr(&csr)?;
        let n = csr.nrows();

        let (sweep, crossover_density) =
            measure_crossover(&csr, &csc, &opts.densities, opts.iters, opts.seed)?;

        // BFS: reference run on the bucket path, then the full
        // threads × {bucket, masked} identity matrix against it.
        let source = bfs_source(n, opts.seed ^ entry.id as u64);
        let reference = bfs(&csr, opts.threads[0], PathMode::ForceBucket, source)?;
        for &t in &opts.threads {
            for mode in [PathMode::ForceBucket, PathMode::ForceMasked] {
                let run = bfs(&csr, t, mode, source)?;
                if run.levels != reference.levels {
                    return Err(SparseError::Parse(format!(
                        "graph: BFS levels diverged on {} ({t} threads, {mode:?})",
                        entry.name
                    )));
                }
            }
        }

        // PageRank: reference on Auto with the freshly measured crossover
        // driving the switch, identity across thread counts and both
        // forced sparse paths.
        let pr_opts =
            PageRankOpts { crossover: crossover_density.min(1.0), ..opts.pagerank.clone() };
        let pr = pagerank(&csr, opts.threads[0], PathMode::Auto, &pr_opts)?;
        for &t in &opts.threads {
            for mode in [PathMode::Auto, PathMode::ForceBucket, PathMode::ForceMasked] {
                let run = pagerank(&csr, t, mode, &pr_opts)?;
                if run.ranks != pr.ranks {
                    return Err(SparseError::Parse(format!(
                        "graph: PageRank ranks diverged on {} ({t} threads, {mode:?})",
                        entry.name
                    )));
                }
            }
        }

        matrices.push(GraphMatrixRecord {
            matrix: entry.name.clone(),
            matrix_id: entry.id as u64,
            nrows: n,
            nnz: csr.nnz(),
            threads: opts.threads.clone(),
            crossover_density,
            sweep,
            bfs_source: source,
            bfs_levels: reference.level_count,
            bfs_reached: reference.reached,
            bfs_iter_s: reference.iter_s.clone(),
            pagerank_iterations: pr.iterations,
            pagerank_iter_s: pr.iter_s.clone(),
            pagerank_paths: pr.paths.iter().map(|p| p.to_string()).collect(),
            pagerank_final_active: pr.final_active,
            pagerank_residual: pr.residual,
        });
    }

    Ok(BenchFile {
        schema_version: BENCH_SCHEMA_VERSION,
        machine: MachineInfo::measure(),
        scale: opts.scale,
        iterations: opts.iters,
        seed: opts.seed,
        records: Vec::new(),
        service: None,
        plan_cache: None,
        spmspv: Some(GraphSummary { matrices }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::coo::Coo;

    fn path_graph(n: usize) -> Csr<u32, f64> {
        // Directed path 0 -> 1 -> ... -> n-1 plus a back edge to make
        // every vertex have outdegree >= 1.
        let mut tri: Vec<(usize, usize, f64)> = (1..n).map(|i| (i, i - 1, 1.0)).collect();
        tri.push((0, n - 1, 1.0));
        Coo::from_triplets(n, n, tri).unwrap().to_csr()
    }

    #[test]
    fn bfs_on_a_path_finds_every_level() {
        let csr = path_graph(6);
        let run = bfs(&csr, 2, PathMode::ForceBucket, 0).unwrap();
        assert_eq!(run.levels, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(run.level_count, 6);
        assert_eq!(run.reached, 6);
        assert_eq!(run.iter_s.len(), 6); // 5 expansions + the empty probe
        let masked = bfs(&csr, 3, PathMode::ForceMasked, 0).unwrap();
        assert_eq!(masked.levels, run.levels);
    }

    fn hub_chain_graph(n: usize) -> Csr<u32, f64> {
        // Chain i-1 -> i plus a back edge i -> 0 from every vertex:
        // chain hops carry weight 1/2 (outdegree 2), so delta magnitude
        // falls off geometrically with chain position and the active set
        // shrinks a vertex or so per iteration — the frontier sparsifies
        // gradually, which is what drives Auto through the crossover.
        let mut tri: Vec<(usize, usize, f64)> = (1..n).map(|i| (i, i - 1, 1.0)).collect();
        tri.extend((1..n).map(|i| (0, i, 1.0)));
        Coo::from_triplets(n, n, tri).unwrap().to_csr()
    }

    #[test]
    fn pagerank_is_bit_identical_across_threads_and_paths() {
        let csr = hub_chain_graph(40);
        // eps sized so the steady active set is ~8 of 40 vertices:
        // density 0.2, below the 0.25 crossover, so Auto goes sparse.
        let opts = PageRankOpts { max_iters: 30, eps: 1e-4, ..PageRankOpts::default() };
        let reference = pagerank(&csr, 1, PathMode::ForceBucket, &opts).unwrap();
        assert!(reference.iterations > 0);
        for t in [1usize, 2, 4, 7] {
            for mode in [PathMode::Auto, PathMode::ForceBucket, PathMode::ForceMasked] {
                let run = pagerank(&csr, t, mode, &opts).unwrap();
                assert_eq!(
                    run.ranks.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.ranks.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "t={t} mode={mode:?}"
                );
            }
        }
        // Auto must actually exercise the dense path at the start (the
        // initial delta is fully dense) and the sparse path later.
        let auto = pagerank(&csr, 2, PathMode::Auto, &opts).unwrap();
        assert_eq!(auto.paths[0], "dense");
        assert!(auto.paths.contains(&"csc-bucket"));
    }

    #[test]
    fn deterministic_sum_is_chunk_stable() {
        let v: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        assert_eq!(deterministic_abs_sum(&v).to_bits(), deterministic_abs_sum(&v).to_bits());
    }

    #[test]
    fn crossover_rules_cover_every_sweep_shape() {
        let pt = |d: f64, sp: f64, de: f64| SpmspvSweepPoint {
            density: d,
            frontier_nnz: 1,
            spmspv_s: sp,
            dense_s: de,
            path: String::new(),
        };
        // Wins then loses: geometric mean of the boundary densities.
        let c = crossover_from_sweep(&[pt(0.01, 1.0, 2.0), pt(0.1, 2.0, 1.0)]);
        assert!((c - (0.01f64 * 0.1).sqrt()).abs() < 1e-12);
        // Wins everywhere.
        assert_eq!(crossover_from_sweep(&[pt(0.5, 1.0, 2.0)]), 1.0);
        // Never wins.
        assert_eq!(crossover_from_sweep(&[pt(0.01, 2.0, 1.0)]), 0.005);
        assert_eq!(crossover_from_sweep(&[]), 0.5);
    }
}
