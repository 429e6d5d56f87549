//! Planner-driven measurement: the `reproduce plan` subcommand.
//!
//! `plan` asks the [`Planner`] for *one* cell per corpus matrix — the
//! cost model's pick — then measures exactly that cell and compares the
//! prediction against reality. Plans are cached by matrix fingerprint
//! and persisted next to the artifact ([`PLAN_CACHE_FILE`]), so a
//! second (warm) run serves every decision from the cache, re-encodes
//! nothing, and replays the cold run's measured medians instead of
//! re-timing. Every record of the emitted `BENCH.json` carries its
//! `planner` decision block, and the top level carries the run's
//! `plan_cache` counters.

use crate::measured::{
    measure_parallel_spmv, measure_serial_spmv, validate_parallel_spmv, Measurement, TimingStats,
    WarmupOpts,
};
use crate::metrics::{
    BenchFile, BenchRecord, MachineInfo, PlanCacheSummary, PlannerDecisionRecord,
    BENCH_SCHEMA_VERSION,
};
use crate::roofline;
use spmv_core::csr_du::{CsrDu, DuOptions};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::io::fingerprint_csr;
use spmv_core::stats::effective_bandwidth;
use spmv_core::{Coo, Csr, FormatKind, SpMv, SparseError};
use spmv_memsim::{MeasuredCost, Plan, Planner};
use spmv_parallel::{ParCsr, ParCsrDu, ParCsrDuVi, ParCsrVi};

/// File name of the persisted plan cache, written next to `BENCH.json`.
pub const PLAN_CACHE_FILE: &str = "PLANCACHE";

/// What [`run_planned`] measures.
#[derive(Debug, Clone)]
pub struct PlanRunOptions {
    /// Corpus scale factor (1.0 = paper scale).
    pub scale: f64,
    /// Timed iterations for cold (not-yet-measured) plans.
    pub iters: usize,
    /// x-vector seed.
    pub seed: u64,
    /// Warm-up policy for cold measurements.
    pub warmup: WarmupOpts,
}

impl Default for PlanRunOptions {
    fn default() -> PlanRunOptions {
        PlanRunOptions { scale: 0.05, iters: 8, seed: 42, warmup: WarmupOpts::default() }
    }
}

/// One planned-and-measured corpus matrix, for report printing.
#[derive(Debug, Clone)]
pub struct PlannedOutcome {
    /// The planner's decision (including prediction and cache provenance).
    pub plan: Plan,
    /// `true` when the measurement was replayed from the cache instead
    /// of re-timed (warm run).
    pub replayed: bool,
    /// The emitted record's index in the artifact's `records` array.
    pub record: usize,
}

/// Maps a planner [`FormatKind`] to its `BENCH.json` format key
/// ([`crate::metrics::BENCH_FORMATS`]). The planner only emits the four
/// paper formats; anything else is a typed error, not a panic.
pub fn bench_key(kind: FormatKind) -> Result<&'static str, SparseError> {
    match kind {
        FormatKind::Csr => Ok("csr"),
        FormatKind::CsrDu => Ok("csr-du"),
        FormatKind::CsrVi => Ok("csr-vi"),
        FormatKind::CsrDuVi => Ok("csr-duvi"),
        other => Err(SparseError::InvalidArgument(format!(
            "planned format {} has no BENCH.json key",
            other.name()
        ))),
    }
}

/// Serial bit-identity check of an encoded format against the CSR
/// baseline (lossless encodes must agree exactly, not approximately).
fn check_serial_identity(
    fmt: &dyn SpMv<f64>,
    csr: &Csr<u32, f64>,
    name: &str,
) -> Result<(), SparseError> {
    let x: Vec<f64> = (0..csr.ncols()).map(|i| (i % 11) as f64 - 5.0).collect();
    let mut want = vec![0.0; csr.nrows()];
    csr.spmv(&x, &mut want);
    let mut got = vec![0.0; csr.nrows()];
    fmt.spmv(&x, &mut got);
    if got != want {
        return Err(SparseError::InvalidArgument(format!(
            "planned kernel for {name} disagrees with the CSR baseline"
        )));
    }
    Ok(())
}

/// Executes one cold plan: encode the chosen format, check it against
/// the CSR baseline, and time its SpMV at the planned thread count.
fn measure_plan(
    plan: &Plan,
    csr: &Csr<u32, f64>,
    opts: &PlanRunOptions,
) -> Result<Measurement, SparseError> {
    let threads = plan.threads.max(1);
    match plan.format {
        FormatKind::Csr => {
            if threads == 1 {
                measure_serial_spmv(csr, opts.iters, opts.seed, &opts.warmup)
            } else {
                let mut par = ParCsr::new(csr, threads);
                validate_parallel_spmv(csr, csr, &mut par, opts.seed)?;
                measure_parallel_spmv(csr, &mut par, opts.iters, opts.seed, &opts.warmup)
            }
        }
        FormatKind::CsrDu => {
            let du = CsrDu::from_csr(csr, &DuOptions::default());
            check_serial_identity(&du, csr, "CSR-DU")?;
            if threads == 1 {
                measure_serial_spmv(&du, opts.iters, opts.seed, &opts.warmup)
            } else {
                let mut par = ParCsrDu::new(&du, threads);
                validate_parallel_spmv(&du, csr, &mut par, opts.seed)?;
                measure_parallel_spmv(&du, &mut par, opts.iters, opts.seed, &opts.warmup)
            }
        }
        FormatKind::CsrVi => {
            let vi = CsrVi::from_csr(csr);
            check_serial_identity(&vi, csr, "CSR-VI")?;
            if threads == 1 {
                measure_serial_spmv(&vi, opts.iters, opts.seed, &opts.warmup)
            } else {
                let mut par = ParCsrVi::new(&vi, threads);
                validate_parallel_spmv(&vi, csr, &mut par, opts.seed)?;
                measure_parallel_spmv(&vi, &mut par, opts.iters, opts.seed, &opts.warmup)
            }
        }
        FormatKind::CsrDuVi => {
            let duvi = CsrDuVi::from_csr(csr, &DuOptions::default());
            check_serial_identity(&duvi, csr, "CSR-DU-VI")?;
            if threads == 1 {
                measure_serial_spmv(&duvi, opts.iters, opts.seed, &opts.warmup)
            } else {
                let mut par = ParCsrDuVi::new(&duvi, threads);
                validate_parallel_spmv(&duvi, csr, &mut par, opts.seed)?;
                measure_parallel_spmv(&duvi, &mut par, opts.iters, opts.seed, &opts.warmup)
            }
        }
        other => Err(SparseError::InvalidArgument(format!(
            "planned format {} is not executable",
            other.name()
        ))),
    }
}

/// Warm-run replay: a [`TimingStats`] block synthesized from a cached
/// measured median. Only the median is persisted, so every percentile
/// collapses onto it and the spread figures are zero — honest about
/// carrying one number, while keeping the schema shape intact.
fn replay_stats(m: &MeasuredCost) -> TimingStats {
    TimingStats {
        samples: m.samples,
        min_s: m.median_s,
        median_s: m.median_s,
        mean_s: m.median_s,
        mad_s: 0.0,
        p95_s: m.median_s,
        p99_s: m.median_s,
        cv: 0.0,
    }
}

/// Plans and measures every M0 corpus matrix at `opts.scale` through
/// `planner`, returning the artifact plus per-matrix outcomes
/// (same order as the corpus). Cold plans are encoded, checked against
/// the CSR baseline, timed, and their measured cost is recorded back
/// into the planner's cache; warm plans (cache hit with a recorded
/// measurement) replay that cost with zero encodes and zero executions.
pub fn run_planned(
    planner: &Planner,
    opts: &PlanRunOptions,
    mut progress: impl FnMut(&PlannedOutcome, &BenchRecord),
) -> Result<(BenchFile, Vec<PlannedOutcome>), SparseError> {
    if opts.iters == 0 {
        return Err(SparseError::InvalidArgument("plan requires iters >= 1".into()));
    }
    spmv_core::simd::env_isa_checked()?;
    let kernel_isa = spmv_core::simd::selected();
    let machine = MachineInfo::measure();
    if machine.machine_bandwidth_gbs <= 0.0 || !machine.machine_bandwidth_gbs.is_finite() {
        return Err(SparseError::InvalidArgument(format!(
            "stream bandwidth measurement returned {} GB/s; no roofline ceiling available",
            machine.machine_bandwidth_gbs
        )));
    }
    let corpus = spmv_matgen::corpus::corpus_scaled(opts.scale);
    let mut records = Vec::new();
    let mut outcomes = Vec::new();
    for entry in corpus.iter().filter(|e| e.in_m0()) {
        let csr: Csr = entry.build().to_csr();
        let fp = fingerprint_csr(&csr);
        let plan = planner.plan_csr_with_fingerprint(&csr, fp)?;
        let (measurement, stats, replayed) = match (&plan.measured, plan.cache_hit) {
            // Warm: decision and measurement both come from the cache;
            // only the median is persisted, so the stats block collapses
            // onto it (see `replay_stats`).
            (Some(m), true) => (*m, replay_stats(m), true),
            // Cold (or a cache entry without a recorded measurement):
            // execute the chosen cell and record what it cost.
            _ => {
                let m = measure_plan(&plan, &csr, opts)?;
                let cost = MeasuredCost {
                    median_s: m.stats.median_s,
                    mflops: m.mflops,
                    samples: m.stats.samples,
                    warmup: m.warmup_iterations,
                };
                planner.record_measurement(fp.crc, cost);
                (cost, m.stats, false)
            }
        };
        let median = measurement.median_s;
        let csr_bytes = csr.working_set().matrix_bytes();
        let effective = effective_bandwidth(plan.matrix_bytes, 1, median) / 1e9;
        let record = BenchRecord {
            matrix: entry.name.clone(),
            matrix_id: u64::from(entry.id),
            format: bench_key(plan.format)?.to_string(),
            threads: plan.threads,
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            nnz: csr.nnz(),
            matrix_bytes: plan.matrix_bytes,
            csr_matrix_bytes: csr_bytes,
            traffic_per_nnz: plan.matrix_bytes as f64 / csr.nnz().max(1) as f64,
            warmup_iterations: measurement.warmup,
            mflops: measurement.mflops,
            effective_bandwidth_gbs: effective,
            compression_adjusted_gbs: effective_bandwidth(csr_bytes, 1, median) / 1e9,
            kernel_isa: kernel_isa.as_str().to_string(),
            roofline_fraction: roofline::roofline_fraction(
                effective,
                machine.machine_bandwidth_gbs,
            ),
            stats,
            planner: PlannerDecisionRecord {
                format: bench_key(plan.format)?.to_string(),
                threads: plan.threads,
                chunks: plan.chunks,
                predicted_time_s: plan.predicted_time_s,
                predicted_mflops: plan.predicted_mflops,
                memory_bound: plan.memory_bound,
                cache_hit: plan.cache_hit,
            },
        };
        let outcome = PlannedOutcome { plan, replayed, record: records.len() };
        progress(&outcome, &record);
        records.push(record);
        outcomes.push(outcome);
    }
    let s = planner.stats();
    let file = BenchFile {
        schema_version: BENCH_SCHEMA_VERSION,
        machine,
        scale: opts.scale,
        iterations: opts.iters,
        seed: opts.seed,
        records,
        service: None,
        plan_cache: Some(PlanCacheSummary {
            hits: s.hits,
            misses: s.misses,
            encodes: s.encodes,
            shape_rejects: s.shape_rejects,
            entries: planner.entries() as u64,
        }),
        spmspv: None,
    };
    Ok((file, outcomes))
}

/// Plans the degenerate probe shapes (0-nnz, 1x1, single dense row)
/// through a **throwaway** planner with the same config, so the probes
/// exercise the no-panic paths without polluting the real run's cache
/// or counters. Returns one printable line per probe.
pub fn degenerate_probes(template: &Planner) -> Result<Vec<String>, SparseError> {
    let probe_planner = Planner::new(template.config().clone());
    let mut lines = Vec::new();
    let mut probes: Vec<(&str, Csr<u32, f64>)> = Vec::new();
    probes.push(("0-nnz 5x5", Coo::new(5, 5).to_csr()));
    let mut one = Coo::new(1, 1);
    one.push(0, 0, 2.5).unwrap();
    probes.push(("1x1", one.to_csr()));
    let mut dense = Coo::new(4, 512);
    for c in 0..512 {
        dense.push(0, c, 1.0 + (c % 3) as f64).unwrap();
    }
    probes.push(("dense-row 4x512", dense.to_csr()));
    for (name, m) in probes {
        let plan = probe_planner.plan_csr(&m)?;
        lines.push(format!(
            "probe {name:<16} -> {} x{} ({} chunks), predicted {:.3} us",
            plan.format.name(),
            plan.threads,
            plan.chunks,
            plan.predicted_time_s * 1e6,
        ));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_memsim::PlannerConfig;

    fn tiny_opts() -> PlanRunOptions {
        PlanRunOptions { scale: 0.002, iters: 2, ..PlanRunOptions::default() }
    }

    #[test]
    fn cold_then_warm_run_replays_with_zero_new_encodes() {
        let planner = Planner::new(PlannerConfig::default());
        let opts = tiny_opts();
        let (cold, cold_outcomes) = run_planned(&planner, &opts, |_, _| {}).unwrap();
        assert!(!cold.records.is_empty());
        // Distinct matrices are measured; corpus entries that scale down
        // to byte-identical matrices legitimately replay within the cold
        // run (that's the fingerprint cache working, not a bug).
        assert!(cold_outcomes.iter().any(|o| !o.replayed));
        let s = planner.stats();
        assert_eq!(s.hits + s.misses, cold.records.len() as u64);
        assert_eq!(s.misses, planner.entries() as u64, "one analysis per distinct matrix");
        let (misses_after_cold, encodes_after_cold) = (s.misses, s.encodes);

        let (warm, warm_outcomes) = run_planned(&planner, &opts, |_, _| {}).unwrap();
        assert_eq!(warm.records.len(), cold.records.len());
        assert!(warm_outcomes.iter().all(|o| o.replayed), "warm run must replay everything");
        let s = planner.stats();
        assert_eq!(s.misses, misses_after_cold, "warm run adds no misses");
        assert_eq!(s.encodes, encodes_after_cold, "warm run re-encodes nothing");
        // Warm records replay the cold medians bit-for-bit.
        for (c, w) in cold.records.iter().zip(&warm.records) {
            assert_eq!(c.format, w.format);
            assert_eq!(c.threads, w.threads);
            assert_eq!(c.stats.median_s, w.stats.median_s);
            assert!(w.planner.cache_hit);
        }
        let pc = warm.plan_cache.as_ref().unwrap();
        assert_eq!(pc.misses + pc.hits, 2 * cold.records.len() as u64);
        assert_eq!(pc.misses, misses_after_cold);
    }

    #[test]
    fn planned_artifact_is_schema_valid() {
        let planner = Planner::new(PlannerConfig::default());
        let (file, _) = run_planned(&planner, &tiny_opts(), |_, _| {}).unwrap();
        let ceiling = file.machine.machine_bandwidth_gbs;
        assert!(ceiling.is_finite() && ceiling > 0.0);
        for rec in &file.records {
            assert!(spmv_core::simd::Isa::parse(&rec.kernel_isa).is_some(), "{}", rec.kernel_isa);
            // Roofline placement is the effective figure over the stamped
            // ceiling.
            assert!((rec.roofline_fraction - rec.effective_bandwidth_gbs / ceiling).abs() < 1e-12);
            // Both bandwidths divide the same median time, so their ratio
            // must equal the byte ratio.
            if rec.effective_bandwidth_gbs > 0.0 {
                let got = rec.compression_adjusted_gbs / rec.effective_bandwidth_gbs;
                let want = rec.csr_matrix_bytes as f64 / rec.matrix_bytes as f64;
                assert!((got - want).abs() < 1e-9, "{}: {got} vs {want}", rec.matrix);
            }
            assert_eq!(rec.planner.format, rec.format);
            assert_eq!(rec.planner.threads, rec.threads);
        }
        let text = serde_json::to_string_pretty(&file).unwrap();
        crate::metrics::validate_bench_text(&text).unwrap();
    }

    #[test]
    fn zero_iterations_are_rejected() {
        let planner = Planner::new(PlannerConfig::default());
        let opts = PlanRunOptions { iters: 0, ..tiny_opts() };
        let err = run_planned(&planner, &opts, |_, _| {}).unwrap_err();
        assert!(matches!(err, SparseError::InvalidArgument(_)), "{err}");
        let s = planner.stats();
        assert_eq!((s.hits, s.misses, s.encodes), (0, 0, 0), "rejected before planning");
    }

    #[test]
    fn degenerate_probes_plan_without_panicking_or_polluting() {
        let planner = Planner::new(PlannerConfig::default());
        let lines = degenerate_probes(&planner).unwrap();
        assert_eq!(lines.len(), 3);
        let s = planner.stats();
        assert_eq!((s.hits, s.misses, s.encodes), (0, 0, 0), "probes use a throwaway planner");
        assert_eq!(planner.entries(), 0);
    }

    #[test]
    fn bench_key_covers_the_paper_formats_and_rejects_others() {
        assert_eq!(bench_key(FormatKind::Csr).unwrap(), "csr");
        assert_eq!(bench_key(FormatKind::CsrDu).unwrap(), "csr-du");
        assert_eq!(bench_key(FormatKind::CsrVi).unwrap(), "csr-vi");
        assert_eq!(bench_key(FormatKind::CsrDuVi).unwrap(), "csr-duvi");
        assert!(bench_key(FormatKind::Dcsr).is_err());
    }
}
